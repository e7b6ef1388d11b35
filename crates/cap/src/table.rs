//! Partitioned capability tables with derivation and recursive revocation.

use crate::capability::{CapKind, Capability};
use crate::rights::Rights;
use apiary_sim::ensure;
use core::fmt;

/// An opaque, generation-checked handle to a slot in a [`CapTable`].
///
/// This is the *only* representation of authority that untrusted accelerator
/// logic ever sees (§4.6: "the accelerator can only obtain a reference to
/// the capability and not the capability itself"). The generation field makes
/// stale handles harmless when a revoked slot is reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapRef {
    /// Slot index within the owning table.
    pub index: u16,
    /// Slot generation the handle was minted against.
    pub generation: u16,
}

/// Errors from capability-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapError {
    /// The handle's slot index is out of range or empty.
    InvalidRef,
    /// The handle's generation does not match (slot was revoked and reused).
    StaleRef,
    /// The capability does not carry a required right.
    InsufficientRights {
        /// What the operation needed.
        needed: Rights,
    },
    /// A derive would amplify rights, widen a range, or change kind.
    IllegalDerivation,
    /// The table is full.
    TableFull,
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapError::InvalidRef => write!(f, "invalid capability reference"),
            CapError::StaleRef => write!(f, "stale capability reference"),
            CapError::InsufficientRights { needed } => {
                write!(f, "capability lacks required rights {needed:?}")
            }
            CapError::IllegalDerivation => write!(f, "illegal capability derivation"),
            CapError::TableFull => write!(f, "capability table full"),
        }
    }
}

impl std::error::Error for CapError {}

#[derive(Debug, Clone)]
struct Slot {
    cap: Capability,
    generation: u16,
    children: Vec<(u16, u16)>,
    live: bool,
    /// Inserted by [`CapTable::insert_root`], not derived.
    root: bool,
}

/// A per-tile capability table, owned by the trusted monitor.
///
/// In hardware terms this is a small BRAM-backed table plus a comparator;
/// the [`crate`] docs explain the partitioned-capability model. The table
/// tracks the derivation tree so that revocation is recursive.
///
/// # Examples
///
/// ```
/// use apiary_cap::{CapKind, CapRef, CapTable, Capability, EndpointId, Rights};
///
/// let mut t = CapTable::new(16);
/// let root = t
///     .insert_root(Capability::new(
///         CapKind::Endpoint(EndpointId(3)),
///         Rights::SEND | Rights::GRANT,
///     ))
///     .expect("space");
/// let narrowed = t.derive(root, Rights::SEND, None).expect("legal");
/// assert!(t.check(narrowed, Rights::SEND).is_ok());
/// t.revoke(root).expect("revocable");
/// assert!(t.check(narrowed, Rights::SEND).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct CapTable {
    slots: Vec<Option<Slot>>,
    /// Free-list of reusable slot indices.
    free: Vec<u16>,
    live_count: usize,
}

impl CapTable {
    /// Creates a table with `capacity` slots (hardware tables are fixed
    /// size; 16–64 entries is typical for a tile).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u16::MAX` slots.
    pub fn new(capacity: usize) -> CapTable {
        assert!(capacity <= u16::MAX as usize, "capability table too large");
        CapTable {
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity as u16).rev().collect(),
            live_count: 0,
        }
    }

    /// Number of live capabilities.
    pub fn live(&self) -> usize {
        self.live_count
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn alloc_slot(&mut self, cap: Capability, root: bool) -> Result<CapRef, CapError> {
        let index = self.free.pop().ok_or(CapError::TableFull)?;
        let generation = match &self.slots[index as usize] {
            // Reused slot: bump the generation so old handles go stale.
            Some(old) => old.generation.wrapping_add(1),
            None => 0,
        };
        self.slots[index as usize] = Some(Slot {
            cap,
            generation,
            children: Vec::new(),
            live: true,
            root,
        });
        self.live_count += 1;
        Ok(CapRef { index, generation })
    }

    /// Inserts a root capability (kernel/monitor authority only; accelerators
    /// have no path to this operation).
    ///
    /// # Errors
    ///
    /// Returns [`CapError::TableFull`] when no slot is free.
    pub fn insert_root(&mut self, cap: Capability) -> Result<CapRef, CapError> {
        self.alloc_slot(cap, true)
    }

    fn slot(&self, r: CapRef) -> Result<&Slot, CapError> {
        let s = self
            .slots
            .get(r.index as usize)
            .and_then(|s| s.as_ref())
            .ok_or(CapError::InvalidRef)?;
        if s.generation != r.generation {
            return Err(CapError::StaleRef);
        }
        if !s.live {
            return Err(CapError::StaleRef);
        }
        Ok(s)
    }

    /// Looks up the capability behind a handle.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InvalidRef`] or [`CapError::StaleRef`] for dead
    /// handles.
    pub fn lookup(&self, r: CapRef) -> Result<&Capability, CapError> {
        Ok(&self.slot(r)?.cap)
    }

    /// Checks that the handle is live and carries all of `needed`.
    ///
    /// This is the operation the monitor performs on every message send; it
    /// maps to one table read plus one AND-compare in hardware.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::InsufficientRights`] when rights are missing, or a
    /// handle-validity error.
    pub fn check(&self, r: CapRef, needed: Rights) -> Result<&Capability, CapError> {
        let cap = self.lookup(r)?;
        if !cap.allows(needed) {
            return Err(CapError::InsufficientRights { needed });
        }
        Ok(cap)
    }

    /// Derives a narrowed capability from `parent`.
    ///
    /// `rights` must be a subset of the parent's rights and the parent must
    /// carry [`Rights::GRANT`]. For memory capabilities, `narrow_kind` may
    /// shrink the covered range; for all kinds it may be `None` to inherit
    /// the parent's kind.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::IllegalDerivation`] for amplification attempts and
    /// [`CapError::TableFull`] when no slot is free.
    pub fn derive(
        &mut self,
        parent: CapRef,
        rights: Rights,
        narrow_kind: Option<CapKind>,
    ) -> Result<CapRef, CapError> {
        let parent_slot = self.slot(parent)?;
        let parent_cap = parent_slot.cap;
        let child = Capability {
            kind: narrow_kind.unwrap_or(parent_cap.kind),
            rights,
            badge: parent_cap.badge,
        };
        if !parent_cap.can_derive(&child) {
            return Err(CapError::IllegalDerivation);
        }
        let child_ref = self.alloc_slot(child, false)?;
        self.slots[parent.index as usize]
            .as_mut()
            .expect("parent slot verified live above")
            .children
            .push((child_ref.index, child_ref.generation));
        Ok(child_ref)
    }

    /// Derives with a new badge (same narrowing rules as [`CapTable::derive`]).
    ///
    /// # Errors
    ///
    /// Same as [`CapTable::derive`].
    pub fn derive_badged(
        &mut self,
        parent: CapRef,
        rights: Rights,
        badge: u64,
    ) -> Result<CapRef, CapError> {
        let r = self.derive(parent, rights, None)?;
        self.slots[r.index as usize]
            .as_mut()
            .expect("slot just allocated")
            .cap
            .badge = badge;
        Ok(r)
    }

    /// Revokes a capability and, recursively, everything derived from it.
    ///
    /// # Errors
    ///
    /// Returns a handle-validity error if `r` is already dead.
    pub fn revoke(&mut self, r: CapRef) -> Result<(), CapError> {
        // Validate the handle first.
        self.slot(r)?;
        let mut stack = vec![(r.index, r.generation)];
        while let Some((i, generation)) = stack.pop() {
            if let Some(slot) = self.slots[i as usize].as_mut() {
                // A child slot may have been revoked directly and then
                // reused; the recorded generation no longer matches and the
                // slot must not be touched.
                if !slot.live || slot.generation != generation {
                    continue;
                }
                slot.live = false;
                stack.append(&mut slot.children);
                self.live_count -= 1;
                self.free.push(i);
            }
        }
        Ok(())
    }

    /// `Err` unless the table is one derivation forest: `live_count` and
    /// the free list agree with the slots, every live parent → child edge
    /// narrows ([`Capability::can_derive`]), a revoked slot holds no
    /// children, and every live derived capability is reachable from a live
    /// root. An edge whose child was revoked on its own (and perhaps reused
    /// under a new generation) is stale and names nothing.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = |i: usize| self.slots[i].as_ref().filter(|s| s.live);
        let n = self.slots.len();
        let live_slots = (0..n).filter(|&i| live(i).is_some()).count();
        ensure!(
            live_slots == self.live_count,
            "cap table counts {} live caps but holds {live_slots}",
            self.live_count
        );
        let mut free = vec![false; n];
        for &i in &self.free {
            let i = i as usize;
            ensure!(
                i < n && !free[i] && live(i).is_none(),
                "free list names slot {i}, which is live, repeated or out of range"
            );
            free[i] = true;
        }
        ensure!(
            self.free.len() + live_slots == n,
            "cap table has {} free and {live_slots} live of {n} slots",
            self.free.len()
        );
        let mut reached = vec![false; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&i| live(i).is_some_and(|s| s.root))
            .collect();
        for &i in &stack {
            reached[i] = true;
        }
        while let Some(i) = stack.pop() {
            let parent = live(i).expect("only live slots are stacked");
            for &(c, generation) in &parent.children {
                let c = c as usize;
                let Some(child) = live(c).filter(|s| s.generation == generation) else {
                    continue;
                };
                ensure!(
                    parent.cap.can_derive(&child.cap),
                    "cap {i} -> {c} amplifies: {:?} from {:?}",
                    child.cap,
                    parent.cap
                );
                ensure!(!child.root && !reached[c], "cap {c} has a second parent");
                reached[c] = true;
                stack.push(c);
            }
        }
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            if slot.live {
                ensure!(reached[i], "live cap {i} is unreachable from a live root");
            } else {
                ensure!(
                    slot.children.is_empty(),
                    "revoked cap {i} still holds children"
                );
            }
        }
        Ok(())
    }

    /// Iterates over all live capabilities (for tracing and debug dumps).
    pub fn iter_live(&self) -> impl Iterator<Item = (CapRef, &Capability)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref().filter(|s| s.live).map(|s| {
                (
                    CapRef {
                        index: i as u16,
                        generation: s.generation,
                    },
                    &s.cap,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::{EndpointId, MemRange};

    fn ep_cap(rights: Rights) -> Capability {
        Capability::new(CapKind::Endpoint(EndpointId(7)), rights)
    }

    #[test]
    fn insert_lookup_check() {
        let mut t = CapTable::new(4);
        let r = t.insert_root(ep_cap(Rights::SEND)).expect("space");
        assert_eq!(t.live(), 1);
        assert!(t.check(r, Rights::SEND).is_ok());
        assert_eq!(
            t.check(r, Rights::RECV),
            Err(CapError::InsufficientRights {
                needed: Rights::RECV
            })
        );
    }

    #[test]
    fn table_fills_up() {
        let mut t = CapTable::new(2);
        t.insert_root(ep_cap(Rights::SEND)).expect("slot 1");
        t.insert_root(ep_cap(Rights::SEND)).expect("slot 2");
        assert_eq!(
            t.insert_root(ep_cap(Rights::SEND)),
            Err(CapError::TableFull)
        );
    }

    #[test]
    fn derive_narrows_rights() {
        let mut t = CapTable::new(8);
        let root = t
            .insert_root(ep_cap(Rights::SEND | Rights::RECV | Rights::GRANT))
            .expect("space");
        let child = t.derive(root, Rights::SEND, None).expect("legal");
        assert!(t.check(child, Rights::SEND).is_ok());
        assert!(t.check(child, Rights::RECV).is_err());
        // Amplification is rejected.
        assert_eq!(
            t.derive(child, Rights::SEND | Rights::MANAGE, None),
            Err(CapError::IllegalDerivation)
        );
    }

    #[test]
    fn derive_requires_grant_on_parent() {
        let mut t = CapTable::new(8);
        let root = t.insert_root(ep_cap(Rights::SEND)).expect("space");
        assert_eq!(
            t.derive(root, Rights::SEND, None),
            Err(CapError::IllegalDerivation)
        );
    }

    #[test]
    fn memory_derive_narrows_range() {
        let mut t = CapTable::new(8);
        let root = t
            .insert_root(Capability::new(
                CapKind::Memory(MemRange::new(0x1000, 0x1000)),
                Rights::READ | Rights::WRITE | Rights::GRANT,
            ))
            .expect("space");
        let ok = t.derive(
            root,
            Rights::READ,
            Some(CapKind::Memory(MemRange::new(0x1800, 0x100))),
        );
        assert!(ok.is_ok());
        let widen = t.derive(
            root,
            Rights::READ,
            Some(CapKind::Memory(MemRange::new(0x800, 0x1000))),
        );
        assert_eq!(widen, Err(CapError::IllegalDerivation));
    }

    #[test]
    fn revoke_kills_subtree() {
        let mut t = CapTable::new(16);
        let root = t
            .insert_root(ep_cap(Rights::SEND | Rights::GRANT))
            .expect("space");
        let c1 = t
            .derive(root, Rights::SEND | Rights::GRANT, None)
            .expect("legal");
        let c2 = t.derive(c1, Rights::SEND, None).expect("legal");
        let sibling = t.insert_root(ep_cap(Rights::SEND)).expect("space");
        t.revoke(c1).expect("live");
        assert!(t.check(c1, Rights::SEND).is_err());
        assert!(t.check(c2, Rights::SEND).is_err());
        // Root and unrelated caps survive.
        assert!(t.check(root, Rights::SEND).is_ok());
        assert!(t.check(sibling, Rights::SEND).is_ok());
        assert_eq!(t.live(), 2);
    }

    #[test]
    fn stale_refs_after_slot_reuse() {
        let mut t = CapTable::new(2);
        let a = t.insert_root(ep_cap(Rights::SEND)).expect("space");
        t.revoke(a).expect("live");
        // Reuse the slot.
        let b = t.insert_root(ep_cap(Rights::RECV)).expect("space");
        assert_eq!(b.index, a.index);
        assert_ne!(b.generation, a.generation);
        assert_eq!(t.check(a, Rights::SEND), Err(CapError::StaleRef));
        assert!(t.check(b, Rights::RECV).is_ok());
    }

    #[test]
    fn double_revoke_is_an_error() {
        let mut t = CapTable::new(4);
        let a = t.insert_root(ep_cap(Rights::SEND)).expect("space");
        t.revoke(a).expect("live");
        assert!(t.revoke(a).is_err());
    }

    #[test]
    fn badged_derive_sets_badge() {
        let mut t = CapTable::new(8);
        let root = t
            .insert_root(ep_cap(Rights::SEND | Rights::GRANT))
            .expect("space");
        let b = t.derive_badged(root, Rights::SEND, 0xfeed).expect("legal");
        assert_eq!(t.lookup(b).expect("live").badge, 0xfeed);
    }

    #[test]
    fn iter_live_reports_only_live() {
        let mut t = CapTable::new(8);
        let a = t.insert_root(ep_cap(Rights::SEND)).expect("space");
        let _b = t.insert_root(ep_cap(Rights::RECV)).expect("space");
        t.revoke(a).expect("live");
        assert_eq!(t.iter_live().count(), 1);
    }

    #[test]
    fn law_names_a_broken_forest() {
        let mut t = CapTable::new(8);
        let root = t
            .insert_root(ep_cap(Rights::SEND | Rights::GRANT))
            .expect("space");
        let child = t
            .derive(root, Rights::SEND | Rights::GRANT, None)
            .expect("legal");
        let grandchild = t.derive(child, Rights::SEND, None).expect("legal");
        assert_eq!(t.check_invariants(), Ok(()));

        let mut amplified = t.clone();
        amplified.slots[grandchild.index as usize]
            .as_mut()
            .expect("live")
            .cap
            .rights = Rights::SEND | Rights::MANAGE;
        assert!(amplified
            .check_invariants()
            .unwrap_err()
            .contains("amplifies"));

        let mut miscounted = t.clone();
        miscounted.live_count += 1;
        assert!(miscounted.check_invariants().is_err());

        // A revoke that stops at the children leaves the grandchild an
        // orphan that still works.
        let mut orphaned = t.clone();
        for r in [root, child] {
            let slot = orphaned.slots[r.index as usize].as_mut().expect("live");
            slot.live = false;
            slot.children.clear();
            orphaned.free.push(r.index);
            orphaned.live_count -= 1;
        }
        assert!(orphaned
            .check_invariants()
            .unwrap_err()
            .contains("unreachable"));

        t.revoke(root).expect("live");
        assert_eq!(t.check_invariants(), Ok(()));
    }

    #[test]
    fn out_of_range_ref_is_invalid() {
        let t = CapTable::new(2);
        let bogus = CapRef {
            index: 99,
            generation: 0,
        };
        assert_eq!(t.lookup(bogus), Err(CapError::InvalidRef));
    }
}
