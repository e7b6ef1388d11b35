//! Isolation invariants under randomized configurations (property tests
//! spanning the kernel, monitors, capabilities and the NoC).

use apiary::accel::apps::echo::echo;
use apiary::accel::apps::idle::idle;
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::monitor::wire;
use apiary::noc::{NodeId, TrafficClass};
use apiary::sim::Machine;
use proptest::prelude::*;

/// A random system layout: which of tiles 0..14 host accelerators and to
/// which application they belong (tile 15 is the memory service).
#[derive(Debug, Clone)]
struct Layout {
    apps: Vec<(u16, u32)>,         // (node, app)
    connects: Vec<(usize, usize)>, // indices into apps; same-app only wiring.
}

fn arb_layout() -> impl Strategy<Value = Layout> {
    (
        prop::collection::vec((0u16..15, 1u32..4), 2..10),
        prop::collection::vec((any::<usize>(), any::<usize>()), 0..12),
    )
        .prop_map(|(mut apps, connects)| {
            apps.sort_by_key(|(n, _)| *n);
            apps.dedup_by_key(|(n, _)| *n);
            Layout { apps, connects }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the layout, a tile can only get a message to tiles the
    /// kernel connected it to, and implicit cross-app connects are refused.
    #[test]
    fn authority_matches_kernel_wiring(layout in arb_layout(), payload in 0usize..200) {
        let mut sys = System::new(SystemConfig::default());
        for &(node, app) in &layout.apps {
            // Inert occupants: deliveries stay in the inbox and are
            // counted, with no replies that could ping-pong.
            sys.install(NodeId(node), Box::new(idle()), AppId(app), FaultPolicy::FailStop)
                .expect("slots are deduped");
        }
        // Attempt the random connects without allow_cross_app.
        let mut granted: Vec<(u16, u16, apiary::cap::CapRef)> = Vec::new();
        for &(i, j) in &layout.connects {
            if layout.apps.is_empty() { continue; }
            let (from, fa) = layout.apps[i % layout.apps.len()];
            let (to, ta) = layout.apps[j % layout.apps.len()];
            match sys.connect(NodeId(from), NodeId(to), false) {
                Ok(cap) => {
                    prop_assert_eq!(fa, ta, "cross-app connect must be refused");
                    granted.push((from, to, cap));
                }
                Err(e) => {
                    prop_assert!(
                        fa != ta,
                        "same-app connect refused unexpectedly: {e}"
                    );
                }
            }
        }
        // Granted capabilities deliver; everything else has no path at all.
        for (k, &(from, to, cap)) in granted.iter().enumerate() {
            let now = sys.now();
            sys.tile_mut(NodeId(from)).monitor
                .send(cap, wire::KIND_REQUEST, k as u64, TrafficClass::Request,
                      vec![0xEE; payload], now)
                .expect("granted capability must work");
            let _ = to;
        }
        sys.run_until_idle(500_000);
        // Count deliveries: every tile's received count must equal the
        // number of grants targeting it — nothing more ever arrives.
        for &(node, _) in &layout.apps {
            let expected = granted.iter().filter(|(_, to, _)| *to == node).count() as u64;
            let got = sys.tile(NodeId(node)).monitor.stats().received;
            prop_assert_eq!(got, expected, "tile {} deliveries", node);
        }
    }

    /// Revocation is immediate: after the kernel revokes, no further
    /// message gets through, no matter how many were sent before.
    #[test]
    fn revocation_is_immediate(before in 1u64..8, after in 1u64..8) {
        let mut sys = System::new(SystemConfig::default());
        sys.install(NodeId(0), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
            .expect("free");
        sys.install(NodeId(5), Box::new(echo(1)), AppId(1), FaultPolicy::FailStop)
            .expect("free");
        let cap = sys.connect(NodeId(0), NodeId(5), false).expect("same app");
        sys.connect(NodeId(5), NodeId(0), false).expect("reply path");

        for tag in 0..before {
            let now = sys.now();
            sys.tile_mut(NodeId(0)).monitor
                .send(cap, wire::KIND_REQUEST, tag, TrafficClass::Request, vec![1], now)
                .expect("live capability");
            sys.run_until_idle(100_000);
        }
        sys.tile_mut(NodeId(0)).monitor.revoke_cap(cap).expect("live");
        for tag in 0..after {
            let now = sys.now();
            let err = sys.tile_mut(NodeId(0)).monitor
                .send(cap, wire::KIND_REQUEST, before + tag, TrafficClass::Request, vec![1], now)
                .expect_err("revoked");
            prop_assert!(matches!(err, apiary::monitor::SendError::Cap(_)));
        }
        sys.run_until_idle(100_000);
        prop_assert_eq!(sys.tile(NodeId(5)).monitor.stats().received, before);
    }
}

/// Replays one concrete layout against the `authority_matches_kernel_wiring`
/// invariant with plain asserts (no proptest machinery involved).
fn assert_authority_matches_wiring(layout: &Layout, payload: usize) {
    let mut sys = System::new(SystemConfig::default());
    for &(node, app) in &layout.apps {
        sys.install(
            NodeId(node),
            Box::new(idle()),
            AppId(app),
            FaultPolicy::FailStop,
        )
        .expect("slots are deduped");
    }
    let mut granted: Vec<(u16, u16, apiary::cap::CapRef)> = Vec::new();
    for &(i, j) in &layout.connects {
        if layout.apps.is_empty() {
            continue;
        }
        let (from, fa) = layout.apps[i % layout.apps.len()];
        let (to, ta) = layout.apps[j % layout.apps.len()];
        match sys.connect(NodeId(from), NodeId(to), false) {
            Ok(cap) => {
                assert_eq!(fa, ta, "cross-app connect must be refused");
                granted.push((from, to, cap));
            }
            Err(e) => {
                assert!(fa != ta, "same-app connect refused unexpectedly: {e}");
            }
        }
    }
    for (k, &(from, _, cap)) in granted.iter().enumerate() {
        let now = sys.now();
        sys.tile_mut(NodeId(from))
            .monitor
            .send(
                cap,
                wire::KIND_REQUEST,
                k as u64,
                TrafficClass::Request,
                vec![0xEE; payload],
                now,
            )
            .expect("granted capability must work");
    }
    sys.run_until_idle(500_000);
    for &(node, _) in &layout.apps {
        let expected = granted.iter().filter(|(_, to, _)| *to == node).count() as u64;
        let got = sys.tile(NodeId(node)).monitor.stats().received;
        assert_eq!(got, expected, "tile {node} deliveries");
    }
}

// The three named regressions below are shrunk counterexamples proptest
// found historically (see `isolation.proptest-regressions`), pinned as
// always-run deterministic tests so the cases survive even where the
// regression file is not picked up.

/// Six same-app tiles, one connect whose huge random indices wrap onto
/// valid slots — connect index reduction modulo `apps.len()`.
#[test]
fn regression_wrapped_connect_indices_deliver_exactly_once() {
    assert_authority_matches_wiring(
        &Layout {
            apps: vec![(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (7, 1)],
            connects: vec![(9981102113195967758, 12079719831914863952)],
        },
        15,
    );
}

/// A wrapped connect landing on a (from == to) self-pair within one app:
/// loopback wiring must still deliver exactly once.
#[test]
fn regression_self_connect_counts_one_delivery() {
    assert_authority_matches_wiring(
        &Layout {
            apps: vec![(0, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)],
            connects: vec![(6429280465722596886, 6091508379920084856)],
        },
        70,
    );
}

/// A single-tile layout where every connect index maps to tile 0: the
/// degenerate one-node case with a loopback capability.
#[test]
fn regression_single_tile_loopback() {
    assert_authority_matches_wiring(
        &Layout {
            apps: vec![(0, 1)],
            connects: vec![(0, 500833828703671)],
        },
        103,
    );
}

/// Non-property regression: a fail-stopped tile's in-flight inbox never
/// leaks to the replacement accelerator after reconfiguration.
#[test]
fn reconfiguration_does_not_leak_old_traffic() {
    let mut sys = System::new(SystemConfig::default());
    sys.install(NodeId(0), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(NodeId(5), Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let cap = sys.connect(NodeId(0), NodeId(5), false).expect("same app");

    // Park several messages in n5's inbox (idle never reads them).
    for tag in 0..5 {
        let now = sys.now();
        sys.tile_mut(NodeId(0))
            .monitor
            .send(
                cap,
                wire::KIND_REQUEST,
                tag,
                TrafficClass::Request,
                vec![0x5E; 32],
                now,
            )
            .expect("send accepted");
    }
    sys.run_until_idle(100_000);
    assert_eq!(sys.tile(NodeId(5)).monitor.inbox_len(), 5);

    // Reconfigure n5 under a different application.
    let done = sys
        .reconfigure(
            NodeId(5),
            Box::new(echo(1)),
            AppId(2),
            FaultPolicy::FailStop,
            4096,
        )
        .expect("reconfigurable");
    let wait = done - sys.now();
    sys.run(wait + 2);

    // The new occupant sees an empty inbox: the old app's data is gone.
    assert_eq!(sys.tile(NodeId(5)).monitor.inbox_len(), 0);
    assert_eq!(sys.tile(NodeId(5)).accel_name(), "echo");
}
