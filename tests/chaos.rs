//! Chaos soak: the NoC fault plane plus repeated tile kills, driven
//! end-to-end through the public `apiary` re-exports.
//!
//! Three properties are pinned here:
//!
//! 1. **Determinism** — the same seed reproduces the identical run under
//!    either clock: byte-equal NoC statistics, per-tile fault records,
//!    supervisor incident log and MTTR samples. Every step of every run
//!    also holds the system's invariants, the supervisor's ladder among
//!    them.
//! 2. **Availability** — with the supervisor on, goodput under a moderate
//!    fault rate stays within 90% of the fault-free baseline; with
//!    recovery off it does not.
//! 3. **Liveness** — no injected fault sequence may wedge the NoC: every
//!    run drains to quiescence within its cycle bound.

use std::collections::HashMap;

use apiary::accel::apps::echo::echo;
use apiary::accel::apps::idle::idle;
use apiary::cap::{CapRef, ServiceId};
use apiary::core::{AppId, FaultPolicy, SupervisorConfig, System, SystemConfig};
use apiary::monitor::wire;
use apiary::noc::{FaultPlane, NodeId, TrafficClass};
use apiary::sim::{ClockMode, Cycle, Machine, SimRng};

const SVC: ServiceId = ServiceId(99);
const CLIENT: NodeId = NodeId(0);
const HOME: NodeId = NodeId(5);
const SPARES: [NodeId; 2] = [NodeId(10), NodeId(12)];
const WINDOW: u32 = 4;
const TIMEOUT: u64 = 250;
const KILL_CODE: u32 = 0xC4A0_5011;

/// Minimal closed-loop driver (the bench harness lives in `apiary-bench`,
/// which the root crate deliberately does not depend on).
struct Loop {
    cap: CapRef,
    next_tag: u64,
    sent: HashMap<u64, Cycle>,
    ok: u64,
    errors: u64,
    lost: u64,
    issued: u64,
}

impl Loop {
    fn new(cap: CapRef) -> Loop {
        Loop {
            cap,
            next_tag: 0,
            sent: HashMap::new(),
            ok: 0,
            errors: 0,
            lost: 0,
            issued: 0,
        }
    }

    fn pump(&mut self, sys: &mut System, issue: bool) {
        let now = sys.now();
        let before = self.sent.len();
        self.sent.retain(|_, s| now - *s < TIMEOUT);
        self.lost += (before - self.sent.len()) as u64;
        while let Some(d) = sys.tile_mut(CLIENT).monitor.recv() {
            if self.sent.remove(&d.msg.tag).is_some() {
                if d.msg.kind == wire::KIND_ERROR {
                    self.errors += 1;
                } else {
                    self.ok += 1;
                }
            }
        }
        while issue && self.sent.len() < WINDOW as usize {
            let tag = self.next_tag;
            let res = sys.tile_mut(CLIENT).monitor.send(
                self.cap,
                wire::KIND_REQUEST,
                tag,
                TrafficClass::Request,
                vec![0xA5; 32],
                now,
            );
            if res.is_err() {
                break;
            }
            self.next_tag += 1;
            self.issued += 1;
            self.sent.insert(tag, now);
        }
    }
}

struct Soak {
    ok: u64,
    errors: u64,
    lost: u64,
    drained: bool,
    kills: u64,
    /// Everything that must be bit-identical across same-seed runs.
    fingerprint: String,
}

/// Runs `duration` cycles of closed-loop load at a supervised echo service
/// while the fault plane (rate > 0) and a seeded tile-killer run, one
/// cycle at a time on `clock`.
fn soak(seed: u64, rate: f64, recovery: bool, duration: u64, clock: ClockMode) -> Soak {
    let mut sys = System::new(SystemConfig {
        clock,
        supervisor: SupervisorConfig {
            enabled: recovery,
            max_restarts: 2,
            restart_backoff: 128,
            spare_nodes: SPARES.to_vec(),
            checkpoint_interval: 0,
        },
        ..SystemConfig::default()
    });
    sys.install(CLIENT, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .unwrap();
    sys.deploy_service(
        SVC,
        HOME,
        AppId(1),
        FaultPolicy::FailStop,
        4096,
        Box::new(|| Box::new(echo(1))),
    )
    .unwrap();
    let cap = sys.attach_client(CLIENT, SVC).unwrap();
    if rate > 0.0 {
        sys.noc_mut()
            .install_fault_plane(FaultPlane::new(seed, rate));
    }

    let mut client = Loop::new(cap);
    let mut killer = SimRng::new(seed ^ 0xD15E_A5E5);
    let interval = duration / 4;
    let mut next_kill = if rate > 0.0 {
        interval + killer.gen_range(interval / 2)
    } else {
        u64::MAX
    };
    let mut kills = 0u64;

    for _ in 0..duration {
        sys.advance_toward(sys.now() + 1);
        assert_eq!(sys.check_invariants(), Ok(()));
        client.pump(&mut sys, true);
        let now = sys.now().as_u64();
        if now >= next_kill {
            if let Some(home) = sys.service_home(SVC) {
                if sys.tile(home).monitor.state() == apiary::monitor::TileState::Running {
                    sys.inject_fault(home, KILL_CODE);
                    kills += 1;
                }
            }
            next_kill = now + interval + killer.gen_range(interval / 2);
        }
    }
    // Liveness: whatever the plane did, the system must drain.
    let drained = sys.run_until_idle(2_000_000);
    client.pump(&mut sys, false);

    let fault_records: Vec<_> = (0..sys.noc().mesh().nodes())
        .map(|i| sys.tile(NodeId(i as u16)).faults.clone())
        .collect();
    let fingerprint = format!(
        "noc={:?} faults={:?} incidents={:?} mttr={:?} ok={} err={} lost={} issued={}",
        sys.noc().stats(),
        fault_records,
        sys.incidents(),
        sys.mttr_samples(),
        client.ok,
        client.errors,
        client.lost,
        client.issued,
    );
    Soak {
        ok: client.ok,
        errors: client.errors,
        lost: client.lost,
        drained,
        kills,
        fingerprint,
    }
}

#[test]
fn same_seed_reproduces_the_exact_run() {
    let a = soak(0xC4A0, 0.002, true, 80_000, ClockMode::Event);
    let b = soak(0xC4A0, 0.002, true, 80_000, ClockMode::Dense);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert!(a.drained && b.drained);
    // The run actually exercised the chaos plane.
    assert!(a.ok > 0, "no goodput at all");
    assert!(a.kills > 0, "tile killer never fired");
    assert!(
        a.errors + a.lost > 0,
        "faults had no observable effect at the client"
    );
}

#[test]
fn different_seeds_diverge() {
    let a = soak(1, 0.002, true, 80_000, ClockMode::Event);
    let b = soak(2, 0.002, true, 80_000, ClockMode::Event);
    assert!(a.drained && b.drained);
    assert_ne!(a.fingerprint, b.fingerprint);
}

#[test]
fn supervisor_keeps_goodput_within_90_percent_no_recovery_does_not() {
    // 0.0005/cycle is the sweep's "moderate" cell: some link is down ~10%
    // of the time and the service tile is killed ~3 times per run.
    let duration = 100_000;
    let baseline = soak(42, 0.0, false, duration, ClockMode::Event);
    let supervised = soak(42, 0.0005, true, duration, ClockMode::Event);
    let unattended = soak(42, 0.0005, false, duration, ClockMode::Event);
    assert!(baseline.drained && supervised.drained && unattended.drained);
    let bar = baseline.ok * 9 / 10;
    assert!(
        supervised.ok >= bar,
        "supervised goodput {} below 90% of fault-free {}",
        supervised.ok,
        baseline.ok
    );
    assert!(
        unattended.ok < bar,
        "no-recovery goodput {} unexpectedly at baseline ({})",
        unattended.ok,
        baseline.ok
    );
}

#[test]
fn aggressive_chaos_never_wedges_the_network() {
    // Well past the sweep's harshest cell; liveness only.
    for seed in [3, 4, 5] {
        let s = soak(seed, 0.02, true, 60_000, ClockMode::Event);
        assert!(s.drained, "seed {seed} failed to drain");
    }
}

#[test]
#[ignore]
fn probe_seeds() {
    for seed in [1u64, 2, 3, 7, 9, 11, 42] {
        let duration = 100_000;
        let baseline = soak(seed, 0.0, false, duration, ClockMode::Event);
        let supervised = soak(seed, 0.0005, true, duration, ClockMode::Event);
        let unattended = soak(seed, 0.0005, false, duration, ClockMode::Event);
        println!(
            "seed {seed}: base {} sup {} ({:.1}%) err {} lost {} | unatt {} ({:.1}%)",
            baseline.ok,
            supervised.ok,
            supervised.ok as f64 / baseline.ok as f64 * 100.0,
            supervised.errors,
            supervised.lost,
            unattended.ok,
            unattended.ok as f64 / baseline.ok as f64 * 100.0
        );
    }
}
