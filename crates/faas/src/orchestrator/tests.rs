use super::*;
use apiary_accel::apps::echo::echo;
use apiary_core::SystemConfig;
use apiary_noc::NocConfig;

fn spec(name: &str, luts: u64, bytes: u64) -> FunctionSpec {
    FunctionSpec {
        name: name.to_string(),
        footprint: Area::logic(luts, luts),
        bitstream_bytes: bytes,
        app: AppId(1),
        factory: Rc::new(|| Box::new(echo(40))),
    }
}

fn small_system() -> FaasSystem {
    FaasSystem::new(FaasConfig {
        cluster: ClusterConfig {
            boards: 2,
            ..ClusterConfig::default()
        },
        autoscale_interval: 1_000,
        idle_intervals_to_zero: 2,
        ..FaasConfig::default()
    })
}

/// A 16x16 board has 256 nodes, more than a byte counts: every node but
/// the gateway and the memory service is usable.
#[test]
fn a_16x16_board_floor_plans_254_usable_nodes() {
    let s = FaasSystem::new(FaasConfig {
        cluster: ClusterConfig {
            boards: 1,
            system: SystemConfig {
                noc: NocConfig::soft(16, 16),
                ..SystemConfig::default()
            },
            ..ClusterConfig::default()
        },
        ..FaasConfig::default()
    });
    assert_eq!(s.boards[0].free_nodes.len(), 254);
}

#[test]
fn cold_then_warm_invocation() {
    let mut s = small_system();
    let f = s.register(spec("f", 50_000, 4_096));
    assert_eq!(
        s.invoke(f, 1, 0, vec![0; 32]),
        InvokeOutcome::Queued { cold: true }
    );
    assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 1));
    let st = s.stats(f);
    assert_eq!(st.live, 1);
    assert_eq!(st.deploys, 1);
    // Second invocation rides the warm replica.
    let out = s.invoke(f, 1, 0, vec![0; 32]);
    assert!(
        matches!(
            out,
            InvokeOutcome::Submitted | InvokeOutcome::Queued { cold: false }
        ),
        "{out:?}"
    );
    assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 2));
    assert!(s.cold_latency.histogram().p50() > s.warm_latency.histogram().p50());
    s.check_invariants().unwrap();
}

#[test]
fn scale_to_zero_then_cold_reinvoke() {
    let mut s = small_system();
    let f = s.register(spec("f", 50_000, 4_096));
    s.invoke(f, 1, 0, vec![0; 32]);
    assert!(s.run_until(60_000, |s| s.quiescent()));
    assert_eq!(s.live_replicas(f), 1);
    // Idle long enough: the autoscaler reclaims down to zero and the
    // area ledger returns to empty.
    assert!(s.run_until(60_000, |s| s.live_replicas(0) == 0));
    assert_eq!(s.pending_replicas(f), 0);
    assert_eq!(s.stats(f).reclaims, 1);
    assert_eq!(s.board_utilisation(0) + s.board_utilisation(1), 0.0);
    s.check_invariants().unwrap();
    // The tombstone means no stale directory entry answers; the next
    // invocation is cold again and succeeds.
    let out = s.invoke(f, 1, 0, vec![0; 32]);
    assert_eq!(out, InvokeOutcome::Queued { cold: true });
    assert!(s.run_until(60_000, |s| s.stats(0).completed_ok == 2));
    assert_eq!(s.stats(f).cold_invocations, 2);
    s.check_invariants().unwrap();
}

#[test]
fn cache_hit_skips_the_fetch() {
    let mut s = small_system();
    let f = s.register(spec("f", 50_000, 8_192));
    s.invoke(f, 1, 0, vec![0; 32]);
    assert!(s.run_until(80_000, |s| s.stats(0).completed_ok == 1));
    let first = s.take_finished()[0];
    let first_lat = first.finished_at - first.arrival;
    assert!(s.run_until(80_000, |s| s.live_replicas(0) == 0));
    // Re-invoke after scale-to-zero: if placement lands on the board
    // that still caches the bitstream, the store fetch is skipped.
    s.invoke(f, 1, 0, vec![0; 32]);
    assert!(s.run_until(80_000, |s| s.stats(0).completed_ok == 2));
    let second = s.take_finished()[0];
    let second_lat = second.finished_at - second.arrival;
    let hits: u64 = (0..2).map(|b| s.cache(b).hits).sum();
    let misses: u64 = (0..2).map(|b| s.cache(b).misses).sum();
    assert_eq!(hits + misses, 2, "two deploys, two lookups");
    if hits == 1 {
        // The hit skipped the 8192-byte fetch (4096 cycles at
        // 2 B/cycle): the second cold start must be visibly cheaper.
        assert!(
            second_lat + 2_000 < first_lat,
            "hit cold start {second_lat} not cheaper than miss {first_lat}"
        );
    }
    s.check_invariants().unwrap();
}

#[test]
fn queue_depth_grows_the_pool_across_boards() {
    let mut s = small_system();
    let f = s.register(spec("f", 50_000, 4_096));
    // A burst far deeper than one replica's target queue.
    for i in 0..24 {
        s.invoke(f, 1, (i % 2) as u16, vec![0; 32]);
    }
    assert!(s.run_until(120_000, |s| s.quiescent()), "burst drains");
    let st = s.stats(f);
    assert!(st.deploys >= 2, "autoscaler grew the pool: {st:?}");
    assert!(st.completed_ok + st.completed_err + st.expired >= 20);
    s.check_invariants().unwrap();
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut s = small_system();
        let f = s.register(spec("f", 50_000, 4_096));
        let g = s.register(spec("g", 80_000, 6_000));
        for i in 0u32..30 {
            s.invoke(
                if i % 3 == 0 { g } else { f },
                i % 2,
                (i % 2) as u16,
                vec![0; 16],
            );
            s.run(137);
        }
        s.run_until(200_000, |s| s.quiescent());
        format!(
            "{:?}|{:?}|{}|{}|{:?}",
            s.stats(f),
            s.stats(g),
            s.cold_latency.histogram().p99(),
            s.warm_latency.histogram().p99(),
            s.now()
        )
    };
    assert_eq!(run(), run());
}
