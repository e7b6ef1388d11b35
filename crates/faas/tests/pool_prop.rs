//! Warm-pool state-machine proptest.
//!
//! The orchestrator's lifecycle — register → deploy → invoke → idle →
//! reclaim → cold re-invoke — is driven through random interleavings of
//! invocations and time (which is what makes autoscaler boundaries,
//! fetches, ICAP loads, republishes and reclaims overlap in arbitrary
//! orders). After every step [`FaasSystem::check_invariants`] cross-checks
//! replica counts against the elastic area ledgers and the gateway
//! capability state: a live replica always has a cap, a torn-down one
//! never does, footprints always sum to the ledger and fit the budget.
//! After the drain, invocation conservation must hold, every pool must
//! scale to zero, and a final cold invocation must still succeed.
//!
//! Every op also runs on a twin under the dense reference clock, which
//! walks every pool wherever the orchestrator reads what the pools posted
//! and panics on a difference (`pool.rs`); the twins must agree on every
//! counter, both latency histograms and the clock after each op.

use apiary_accel::apps::echo::echo;
use apiary_cluster::ClusterConfig;
use apiary_core::AppId;
use apiary_faas::{AdmissionConfig, FaasConfig, FaasSystem, FunctionSpec};
use apiary_resources::Area;
use apiary_sim::{ClockMode, Machine};
use proptest::prelude::*;
use std::rc::Rc;

const FUNCTIONS: usize = 3;
const BOARDS: u16 = 2;
const AUTOSCALE: u64 = 1_000;

#[derive(Debug, Clone)]
enum Op {
    /// Invoke function `f` as `tenant`, entering at board `origin`.
    Invoke { f: usize, tenant: u32, origin: u16 },
    /// Let the fleet run for `cycles`.
    Advance { cycles: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FUNCTIONS, 0u32..2, 0..BOARDS).prop_map(|(f, tenant, origin)| Op::Invoke {
            f,
            tenant,
            origin
        }),
        (1u64..4_000).prop_map(|cycles| Op::Advance { cycles }),
    ]
}

fn build(clock: ClockMode) -> FaasSystem {
    let mut cluster = ClusterConfig {
        boards: BOARDS,
        ..ClusterConfig::default()
    };
    cluster.system.clock = clock;
    let mut s = FaasSystem::new(FaasConfig {
        cluster,
        autoscale_interval: AUTOSCALE,
        idle_intervals_to_zero: 2,
        // Generous ingress: this test is about the pool machinery, not
        // shedding (admission has its own unit tests).
        admission: AdmissionConfig {
            rate_milli_inv_per_cycle: 1_000,
            burst_invocations: 64,
        },
        ..FaasConfig::default()
    });
    for i in 0..FUNCTIONS {
        let cost = 30 + 20 * i as u64;
        s.register(FunctionSpec {
            name: format!("fn{i}"),
            footprint: Area::logic(40_000 + 30_000 * i as u64, 50_000),
            bitstream_bytes: 4_096 + 2_048 * i as u64,
            app: AppId(i as u32 + 1),
            factory: Rc::new(move || Box::new(echo(cost))),
        });
    }
    s
}

/// Everything a driver can see of the plane.
fn observed(s: &FaasSystem) -> String {
    let stats: Vec<_> = (0..FUNCTIONS).map(|f| s.stats(f)).collect();
    let (cold, warm) = (s.cold_latency.histogram(), s.warm_latency.histogram());
    format!("{stats:?} {cold:?} {warm:?} {:?}", s.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_pool_consistent_under_any_interleaving(
        ops in prop::collection::vec(arb_op(), 1..40)
    ) {
        let mut s = build(ClockMode::Event);
        let mut dense = build(ClockMode::Dense);
        for op in &ops {
            for s in [&mut s, &mut dense] {
                match *op {
                    Op::Invoke { f, tenant, origin } => {
                        s.invoke(f, tenant, origin, vec![0u8; 24]);
                    }
                    Op::Advance { cycles } => s.run(cycles),
                }
                if let Err(e) = s.check_invariants() {
                    prop_assert!(false, "after {op:?}: {e}");
                }
            }
            prop_assert_eq!(observed(&s), observed(&dense), "clocks part after {:?}", op);
        }

        // Drain: all queued and in-flight work resolves.
        prop_assert!(s.run_until(400_000, |s| s.quiescent()), "drain");
        if let Err(e) = s.check_invariants() {
            prop_assert!(false, "after drain: {e}");
        }
        // Conservation: every admitted invocation completed one way —
        // reply, error, or queue expiry. Nothing lost, nothing doubled.
        for f in 0..FUNCTIONS {
            let st = s.stats(f);
            prop_assert_eq!(
                st.invocations,
                st.completed_ok + st.completed_err + st.expired,
                "conservation for fn{}: {:?}", f, st
            );
            prop_assert_eq!(st.queue_depth, 0);
        }

        // Idle long enough and every pool scales to zero: tiles and area
        // all returned, no capability left behind (check_invariants
        // verifies cap absence per empty board).
        s.run(AUTOSCALE * 6 * (BOARDS as u64 + 1));
        for f in 0..FUNCTIONS {
            prop_assert_eq!(s.live_replicas(f), 0, "fn{} not reclaimed", f);
            prop_assert_eq!(s.pending_replicas(f), 0);
        }
        for b in 0..BOARDS {
            prop_assert!(s.board_utilisation(b) == 0.0, "board {} not empty", b);
        }
        if let Err(e) = s.check_invariants() {
            prop_assert!(false, "after scale-to-zero: {e}");
        }

        // The pool still works from cold: one more invocation round-trips.
        let before = s.stats(0).completed_ok;
        s.invoke(0, 0, 0, vec![0u8; 24]);
        prop_assert!(
            s.run_until(400_000, |s| s.stats(0).completed_ok == before + 1),
            "cold re-invoke after scale-to-zero"
        );
        if let Err(e) = s.check_invariants() {
            prop_assert!(false, "after cold re-invoke: {e}");
        }
    }
}
