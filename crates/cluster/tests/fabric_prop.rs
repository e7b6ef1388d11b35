//! The sparse fabric against its dense reference, as a property.
//!
//! Random sends of mixed sizes, link cuts and restores, on star and mesh
//! fabrics with and without loss, narrow and wide ARQ windows, and links
//! faster and slower than the retransmission timeout, at random cycles. One fabric is pumped
//! every cycle (`Fabric::step_dense`); its twin is stepped only on the
//! cycles its own `next_activity` names (`Fabric::step`), and before an
//! operation it is only caught up (`Fabric::catch_up`), as the cluster
//! does. After every step of the twin both must agree on the deliveries
//! (cycle, message and order) and the counters (retransmissions among
//! them), and both must hold their laws.

use apiary_cluster::{Body, ClusterMsg, Fabric, FabricConfig, LinkConfig, Topology};
use apiary_sim::Cycle;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `src → dst` (taken modulo the board count) carrying `bytes`.
    Send { src: u16, dst: u16, bytes: usize },
    /// Cut (`up = false`) or restore a board's links.
    Link { board: u16, up: bool },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), 0usize..3_000).prop_map(|(src, dst, bytes)| Op::Send {
            src,
            dst,
            bytes
        }),
        (any::<u16>(), 0usize..40).prop_map(|(src, bytes)| Op::Send {
            src,
            dst: src.wrapping_add(1),
            bytes
        }),
        (any::<u16>(), any::<bool>()).prop_map(|(board, up)| Op::Link { board, up }),
    ]
}

/// Applies `op` to a fabric of `boards` boards; `tag` tells sends apart.
fn apply(f: &mut Fabric, op: Op, boards: u16, tag: u64) {
    match op {
        Op::Send { src, dst, bytes } => {
            let src = src % boards;
            let dst = (src + 1 + dst % (boards - 1)) % boards;
            f.send(&ClusterMsg {
                src,
                dst,
                body: Body::Invoke {
                    service: 1,
                    tag,
                    payload: vec![tag as u8; bytes],
                },
            });
        }
        Op::Link { board, up } => f.set_link(board % boards, None, up),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stepping_on_the_delivery_bound_matches_the_dense_reference(
        (boards, mesh, lossy) in (2u16..5, any::<bool>(), any::<bool>()),
        (narrow, slow) in (any::<bool>(), any::<bool>()),
        ops in prop::collection::vec((1u64..400, op()), 1..40),
    ) {
        // A narrow window keeps backlog waiting on acks; a link slower
        // than the retransmission timeout keeps acks on their way for
        // longer than a timeout.
        let cfg = FabricConfig {
            topology: if mesh { Topology::FullMesh } else { Topology::Star },
            link: LinkConfig {
                loss: if lossy { 0.05 } else { 0.0 },
                arq_window: if narrow { 2 } else { 64 },
                latency: if slow { 2_500 } else { 200 },
                ..LinkConfig::default()
            },
            seed: 3,
        };
        let mut dense = Fabric::new(boards, cfg);
        let mut sparse = Fabric::new(boards, cfg);
        // Operations at increasing cycles; every link is up again after
        // the last, so that everything drains.
        let mut at = 0;
        let mut schedule: Vec<(u64, Op)> = ops
            .into_iter()
            .map(|(gap, op)| {
                at += gap;
                (at, op)
            })
            .collect();
        for board in 0..boards {
            schedule.push((at + 1, Op::Link { board, up: true }));
        }
        let end = at + 150_000;
        let mut pending = schedule.iter().peekable();
        let (mut dense_log, mut sparse_log) = (Vec::new(), Vec::new());
        dense.step_dense(Cycle::ZERO);
        sparse.catch_up(Cycle::ZERO);
        for c in 1..=end {
            let now = Cycle(c);
            while let Some(&(_, op)) = pending.next_if(|(t, _)| *t == c) {
                sparse.catch_up(Cycle(c - 1));
                apply(&mut dense, op, boards, c);
                apply(&mut sparse, op, boards, c);
            }
            let got = dense.step_dense(now);
            dense_log.extend(got.into_iter().map(|m| (now, m)));
            if sparse.next_activity(now) > now {
                continue;
            }
            let (got, ()) = sparse.step(now);
            sparse_log.extend(got.into_iter().map(|m| (now, m)));
            prop_assert_eq!(&sparse_log, &dense_log, "deliveries by {:?}", now);
            prop_assert_eq!(sparse.stats(), dense.stats(), "counters at {:?}", now);
            prop_assert_eq!(sparse.check_invariants(), Ok(()));
            prop_assert_eq!(dense.check_invariants(), Ok(()));
        }
        // Whatever the twin never woke for delivered nothing.
        sparse.catch_up(Cycle(end));
        prop_assert_eq!(&sparse_log, &dense_log);
        prop_assert_eq!(sparse.stats(), dense.stats());
        prop_assert!(dense.idle() && sparse.idle(), "the fabric drained");
        prop_assert_eq!(sparse.next_activity(Cycle(end)), Cycle::MAX);
    }
}
