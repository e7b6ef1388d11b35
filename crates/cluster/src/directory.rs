//! The global service directory.
//!
//! `core/registry.rs` answers "which node serves `kv-store`?" for one
//! board. Across boards the same question needs a *home* scope (which
//! board published the binding), a liveness story (a board that dies must
//! stop being an answer), and a distribution story (no central registry —
//! the whole point of scale-out is surviving any single board).
//!
//! Each board runs one [`Directory`]. Entries are keyed `(name, home
//! board)` so replicas of one service on different boards coexist; each
//! entry carries a version counter and a lease deadline. The home board is
//! the only writer for its own entries: publish, withdraw (a tombstone, so
//! the removal propagates rather than resurrects) and periodic renewal all
//! bump the version. Anti-entropy gossip pushes full snapshots between
//! boards; [`Directory::merge`] keeps whichever version is newer. Liveness
//! falls out of the lease: a dead board stops renewing, its versions stop
//! advancing, and every other board expires its entries within one lease —
//! that expiry is what fails the load balancer over.

use apiary_cap::ServiceId;
use apiary_noc::NodeId;
use apiary_sim::{ensure, Cycle};
use std::collections::BTreeMap;

/// One replica binding in the global directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Logical service name.
    pub name: String,
    /// Board that published (and owns) this binding.
    pub home: u16,
    /// Node hosting the replica on its home board.
    pub node: NodeId,
    /// The service id clients invoke.
    pub service: ServiceId,
    /// Monotonic per-entry version; every mutation by the home board
    /// (publish, withdraw, lease renewal) bumps it, so gossip can order
    /// conflicting copies.
    pub version: u64,
    /// Lease deadline: the entry (or its tombstone) is dead after this.
    pub expires_at: Cycle,
    /// Tombstone flag: the home board withdrew the binding.
    pub withdrawn: bool,
}

impl DirEntry {
    /// Live means: not withdrawn and the lease has not lapsed.
    pub fn live(&self, now: Cycle) -> bool {
        !self.withdrawn && self.expires_at > now
    }
}

/// One board's view of the cluster-wide service directory.
#[derive(Debug, Clone)]
pub struct Directory {
    board: u16,
    lease: u64,
    /// Entries by name, then by home board: `(name, home)` order, and a
    /// name is found by borrowing it.
    entries: BTreeMap<String, BTreeMap<u16, DirEntry>>,
    /// Publishes that displaced a live binding of the same name here.
    pub displaced: u64,
    /// Entries accepted from gossip (newer version than ours).
    pub merged_in: u64,
    /// Entries dropped by lease expiry.
    pub expired: u64,
}

impl Directory {
    /// Creates the directory for `board` with the given lease (cycles).
    pub fn new(board: u16, lease: u64) -> Directory {
        Directory {
            board,
            lease,
            entries: BTreeMap::new(),
            displaced: 0,
            merged_in: 0,
            expired: 0,
        }
    }

    /// The board this directory is authoritative for.
    pub fn board(&self) -> u16 {
        self.board
    }

    /// Publishes a local binding. Like
    /// [`apiary_core::registry::RegistryService::publish`], the displaced
    /// live binding (if any) is returned so the kernel can notice a squat
    /// instead of silently replacing it.
    pub fn publish(
        &mut self,
        now: Cycle,
        name: &str,
        service: ServiceId,
        node: NodeId,
    ) -> Option<(ServiceId, NodeId)> {
        let homes = self.entries.entry(name.to_string()).or_default();
        let version = homes.get(&self.board).map_or(1, |e| e.version + 1);
        let old = homes.insert(
            self.board,
            DirEntry {
                name: name.to_string(),
                home: self.board,
                node,
                service,
                version,
                expires_at: now + self.lease,
                withdrawn: false,
            },
        );
        match old {
            Some(e) if e.live(now) => {
                self.displaced += 1;
                Some((e.service, e.node))
            }
            _ => None,
        }
    }

    /// Withdraws a local binding, leaving a versioned tombstone that gossip
    /// propagates (deleting outright would let a peer's stale copy
    /// resurrect the entry). Returns whether a live binding existed.
    pub fn withdraw(&mut self, now: Cycle, name: &str) -> bool {
        let ours = self.entries.get_mut(name);
        match ours.and_then(|homes| homes.get_mut(&self.board)) {
            Some(e) if e.live(now) => {
                e.withdrawn = true;
                e.version += 1;
                e.expires_at = now + self.lease;
                true
            }
            _ => false,
        }
    }

    /// Renews the lease on every live local entry, bumping versions so the
    /// renewal propagates through gossip. The home board calls this each
    /// gossip round; a dead board stops calling it, which is exactly how
    /// the rest of the cluster finds out.
    pub fn renew_local(&mut self, now: Cycle) {
        for homes in self.entries.values_mut() {
            if let Some(e) = homes.get_mut(&self.board).filter(|e| e.live(now)) {
                e.version += 1;
                e.expires_at = now + self.lease;
            }
        }
    }

    /// Points the live local binding for `name` at `node`, where its
    /// service now lives; the next renewal carries the move to peers.
    pub fn rehome(&mut self, now: Cycle, name: &str, node: NodeId) {
        let ours = self
            .entries
            .get_mut(name)
            .and_then(|h| h.get_mut(&self.board));
        if let Some(e) = ours.filter(|e| e.live(now)) {
            e.node = node;
        }
    }

    /// Merges a gossiped snapshot: for entries about *other* boards, the
    /// higher version wins; entries claiming our own board are ignored (we
    /// are authoritative for ourselves — accepting them would let a stale
    /// peer resurrect our withdrawn services).
    pub fn merge(&mut self, entries: &[DirEntry]) {
        for e in entries {
            if e.home == self.board {
                continue;
            }
            let ours = self.entries.get(&e.name).and_then(|h| h.get(&e.home));
            match ours {
                Some(ours) if ours.version >= e.version => {}
                _ => {
                    let homes = self.entries.entry(e.name.clone()).or_default();
                    homes.insert(e.home, e.clone());
                    self.merged_in += 1;
                }
            }
        }
    }

    /// Drops entries (and tombstones) whose lease has lapsed, returning
    /// them so the kernel can revoke any capabilities minted against them.
    pub fn sweep(&mut self, now: Cycle) -> Vec<DirEntry> {
        let mut out = Vec::new();
        self.entries.retain(|_, homes| {
            let dead = homes.extract_if(.., |_, e| e.expires_at <= now);
            out.extend(dead.map(|(_, e)| e));
            !homes.is_empty()
        });
        self.expired += out.len() as u64;
        out
    }

    /// Every live replica of `name`, in home-board order (deterministic:
    /// a name's entries are keyed by home).
    pub fn lookup_all(&self, now: Cycle, name: &str) -> Vec<&DirEntry> {
        self.entries
            .get(name)
            .into_iter()
            .flat_map(|homes| homes.values())
            .filter(|e| e.live(now))
            .collect()
    }

    /// The live local binding for `name`, if any.
    pub fn lookup_local(&self, now: Cycle, name: &str) -> Option<&DirEntry> {
        self.entries
            .get(name)
            .and_then(|homes| homes.get(&self.board))
            .filter(|e| e.live(now))
    }

    /// Full-state snapshot for anti-entropy gossip (tombstones included).
    pub fn snapshot(&self) -> Vec<DirEntry> {
        self.entries
            .values()
            .flat_map(|homes| homes.values())
            .cloned()
            .collect()
    }

    /// Total entries held, tombstones included.
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }

    /// Returns `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `Err` unless every entry is filed under its own name and home and
    /// no name is filed with an empty set of homes.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (name, homes) in &self.entries {
            ensure!(!homes.is_empty(), "{name} is filed with no home");
            for (&home, e) in homes {
                ensure!(
                    e.name == *name && e.home == home,
                    "{}@{} is filed under {name}@{home}",
                    e.name,
                    e.home
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEASE: u64 = 100;

    fn dir(board: u16) -> Directory {
        Directory::new(board, LEASE)
    }

    #[test]
    fn publish_lookup_and_displacement() {
        let mut d = dir(0);
        assert_eq!(d.publish(Cycle(0), "kv", ServiceId(7), NodeId(3)), None);
        assert_eq!(d.lookup_all(Cycle(1), "kv").len(), 1);
        // Republishing the same name displaces the live binding.
        assert_eq!(
            d.publish(Cycle(1), "kv", ServiceId(8), NodeId(4)),
            Some((ServiceId(7), NodeId(3)))
        );
        assert_eq!(d.displaced, 1);
        let live = d.lookup_all(Cycle(2), "kv");
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].service, ServiceId(8));
    }

    #[test]
    fn replicas_on_different_boards_coexist() {
        let mut a = dir(0);
        let mut b = dir(1);
        assert_eq!(a.publish(Cycle(0), "kv", ServiceId(7), NodeId(3)), None);
        assert_eq!(b.publish(Cycle(0), "kv", ServiceId(7), NodeId(5)), None);
        a.merge(&b.snapshot());
        let live = a.lookup_all(Cycle(1), "kv");
        assert_eq!(live.len(), 2);
        assert_eq!((live[0].home, live[1].home), (0, 1));
    }

    #[test]
    fn withdraw_tombstone_wins_over_stale_copy() {
        let mut home = dir(0);
        let mut peer = dir(1);
        assert_eq!(home.publish(Cycle(0), "kv", ServiceId(7), NodeId(3)), None);
        peer.merge(&home.snapshot());
        assert_eq!(peer.lookup_all(Cycle(1), "kv").len(), 1);
        // Home withdraws; the tombstone's higher version beats the peer's
        // live copy, and the peer's stale snapshot cannot resurrect it.
        assert!(home.withdraw(Cycle(2), "kv"));
        let stale = peer.snapshot();
        peer.merge(&home.snapshot());
        assert!(peer.lookup_all(Cycle(3), "kv").is_empty());
        home.merge(&stale);
        assert!(home.lookup_all(Cycle(3), "kv").is_empty());
    }

    #[test]
    fn scale_to_zero_tombstone_blocks_third_board_resurrection() {
        // Regression for the serverless scale-to-zero path: teardown must
        // *withdraw* (tombstone) the binding, not merely let the lease
        // lapse. With expiry alone, a peer that gossiped before learning of
        // the teardown re-advertises the dead function to a third board,
        // which then steers invocations at a decommissioned tile.
        let mut home = dir(0);
        let mut stale_peer = dir(1);
        let mut third = dir(2);
        assert_eq!(home.publish(Cycle(0), "fn", ServiceId(7), NodeId(3)), None);
        stale_peer.merge(&home.snapshot());
        third.merge(&home.snapshot());
        assert_eq!(third.lookup_all(Cycle(1), "fn").len(), 1);

        // Scale-to-zero: home withdraws. The tombstone reaches the third
        // board, but the stale peer has not heard yet.
        assert!(home.withdraw(Cycle(2), "fn"));
        third.merge(&home.snapshot());
        assert!(third.lookup_all(Cycle(3), "fn").is_empty());

        // The stale peer's snapshot still carries the live (lower-version)
        // copy. It must NOT resurrect the binding at the third board.
        third.merge(&stale_peer.snapshot());
        assert!(
            third.lookup_all(Cycle(4), "fn").is_empty(),
            "stale peer re-advertised a torn-down function"
        );

        // And once the tombstone reaches the stale peer, it converges too.
        stale_peer.merge(&home.snapshot());
        assert!(stale_peer.lookup_all(Cycle(5), "fn").is_empty());
    }

    #[test]
    fn lease_expiry_removes_unrenewed_entries() {
        let mut home = dir(0);
        let mut peer = dir(1);
        assert_eq!(home.publish(Cycle(0), "kv", ServiceId(7), NodeId(3)), None);
        peer.merge(&home.snapshot());
        // Renewed entries survive the original deadline.
        home.renew_local(Cycle(90));
        peer.merge(&home.snapshot());
        assert_eq!(peer.lookup_all(Cycle(150), "kv").len(), 1);
        // Without further renewal (home board "dies"), the lease lapses.
        assert!(peer.lookup_all(Cycle(190 + 1), "kv").is_empty());
        let swept = peer.sweep(Cycle(191));
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].home, 0);
        assert!(peer.is_empty());
    }

    #[test]
    fn merge_ignores_claims_about_our_own_board() {
        let mut home = dir(0);
        assert_eq!(home.publish(Cycle(0), "kv", ServiceId(7), NodeId(3)), None);
        let forged = vec![DirEntry {
            name: "kv".into(),
            home: 0,
            node: NodeId(9),
            service: ServiceId(99),
            version: 1_000,
            expires_at: Cycle(1_000_000),
            withdrawn: false,
        }];
        home.merge(&forged);
        let live = home.lookup_all(Cycle(1), "kv");
        assert_eq!(live[0].service, ServiceId(7), "authority stays local");
        assert_eq!(home.merged_in, 0);
    }

    #[test]
    fn renewal_bumps_version_so_it_propagates() {
        let mut home = dir(0);
        assert_eq!(home.publish(Cycle(0), "kv", ServiceId(7), NodeId(3)), None);
        let v0 = home.snapshot()[0].version;
        home.renew_local(Cycle(10));
        let snap = home.snapshot();
        assert!(snap[0].version > v0);
        assert_eq!(snap[0].expires_at, Cycle(10 + LEASE));
    }
}
