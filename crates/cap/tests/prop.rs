//! Property-based tests for the capability system.
//!
//! Invariants checked:
//!
//! 1. A derived capability never carries a right its parent lacked
//!    (no amplification, transitively).
//! 2. Memory derivations never widen the covered range.
//! 3. After revoking any capability, its entire derivation subtree is dead.
//! 4. Stale handles never validate after slot reuse.
//! 5. The table's own law ([`CapTable::check_invariants`]) holds after
//!    every operation.

use apiary_cap::{CapKind, CapRef, CapTable, Capability, EndpointId, MemRange, Rights};
use proptest::prelude::*;

fn arb_rights() -> impl Strategy<Value = Rights> {
    (0u16..=0x7f).prop_map(|bits| {
        // Reconstruct a Rights value from bits using public constants.
        let all = [
            Rights::SEND,
            Rights::RECV,
            Rights::READ,
            Rights::WRITE,
            Rights::GRANT,
            Rights::REVOKE,
            Rights::MANAGE,
        ];
        let mut r = Rights::NONE;
        for (i, flag) in all.iter().enumerate() {
            if bits & (1 << i) != 0 {
                r = r | *flag;
            }
        }
        r
    })
}

/// A random sequence of table operations, interpreted against a model.
#[derive(Debug, Clone)]
enum Op {
    InsertRoot(Rights),
    /// `narrow` masks `rights` with the parent's, so half the derives are
    /// legal and the trees grow deep enough to have grandchildren.
    Derive {
        parent: usize,
        rights: Rights,
        narrow: bool,
    },
    Revoke(usize),
    Check {
        target: usize,
        rights: Rights,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_rights().prop_map(Op::InsertRoot),
        (any::<usize>(), arb_rights(), any::<bool>()).prop_map(|(parent, rights, narrow)| {
            Op::Derive {
                parent,
                rights,
                narrow,
            }
        }),
        any::<usize>().prop_map(Op::Revoke),
        (any::<usize>(), arb_rights()).prop_map(|(target, rights)| Op::Check { target, rights }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fuzzes random op sequences against a shadow model that tracks, for
    /// every minted handle, its rights and its transitive parent chain.
    #[test]
    fn table_matches_shadow_model(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut table = CapTable::new(64);
        // Shadow: (handle, rights, parent_position, alive).
        let mut shadow: Vec<(CapRef, Rights, Option<usize>, bool)> = Vec::new();

        for op in ops {
            match op {
                Op::InsertRoot(rights) => {
                    if let Ok(r) = table.insert_root(Capability::new(
                        CapKind::Endpoint(EndpointId(1)),
                        rights,
                    )) {
                        shadow.push((r, rights, None, true));
                    }
                }
                Op::Derive { parent, rights, narrow } => {
                    if shadow.is_empty() { continue; }
                    let pi = parent % shadow.len();
                    let (pref, prights, _, palive) = shadow[pi];
                    let rights = if narrow { rights & prights } else { rights };
                    let res = table.derive(pref, rights, None);
                    let legal = palive
                        && prights.contains(Rights::GRANT)
                        && rights.is_subset_of(prights);
                    match res {
                        Ok(r) => {
                            prop_assert!(legal, "illegal derive succeeded");
                            shadow.push((r, rights, Some(pi), true));
                        }
                        Err(apiary_cap::CapError::TableFull) => {}
                        Err(_) => prop_assert!(!legal, "legal derive failed"),
                    }
                }
                Op::Revoke(target) => {
                    if shadow.is_empty() { continue; }
                    let ti = target % shadow.len();
                    let (tref, _, _, talive) = shadow[ti];
                    let res = table.revoke(tref);
                    prop_assert_eq!(res.is_ok(), talive);
                    if talive {
                        // Mark the subtree dead in the shadow.
                        let mut dead = vec![ti];
                        while let Some(d) = dead.pop() {
                            shadow[d].3 = false;
                            for (i, entry) in shadow.iter().enumerate() {
                                if entry.2 == Some(d) && entry.3 {
                                    dead.push(i);
                                }
                            }
                        }
                    }
                }
                Op::Check { target, rights } => {
                    if shadow.is_empty() { continue; }
                    let ti = target % shadow.len();
                    let (tref, trights, _, talive) = shadow[ti];
                    let ok = table.check(tref, rights).is_ok();
                    let expect = talive && trights.contains(rights);
                    prop_assert_eq!(ok, expect, "check mismatch for handle {}", ti);
                }
            }
            prop_assert_eq!(table.check_invariants(), Ok(()));
        }

        // Global invariant: every live handle in the shadow still validates
        // with exactly its recorded rights; every dead handle fails.
        for (r, rights, _, alive) in &shadow {
            let ok = table.check(*r, *rights).is_ok();
            prop_assert_eq!(ok, *alive);
        }
    }

    /// Chains of memory derivations only ever shrink the range.
    #[test]
    fn memory_ranges_only_shrink(
        cuts in prop::collection::vec((0u64..4096, 0u64..4096), 1..12)
    ) {
        let mut table = CapTable::new(64);
        let root_range = MemRange::new(0, 1 << 20);
        let mut parent = table
            .insert_root(Capability::new(
                CapKind::Memory(root_range),
                Rights::READ | Rights::WRITE | Rights::GRANT,
            ))
            .expect("space");
        let mut current = root_range;
        for (off, len) in cuts {
            let child_base = current.base + off.min(current.len);
            let child_len = len.min(current.end().saturating_sub(child_base));
            let child = MemRange::new(child_base, child_len);
            let r = table.derive(
                parent,
                Rights::READ | Rights::GRANT,
                Some(CapKind::Memory(child)),
            );
            let r = r.expect("shrinking derivation is always legal");
            let got = table.lookup(r).expect("live");
            match got.kind {
                CapKind::Memory(range) => {
                    prop_assert!(root_range.covers(&range));
                    prop_assert!(current.covers(&range));
                    current = range;
                }
                _ => prop_assert!(false, "kind changed"),
            }
            prop_assert_eq!(table.check_invariants(), Ok(()));
            parent = r;
        }
    }
}
