//! E19 — Checkpoint/restore plane: warm recovery, live migration, and
//! preemptive tile sharing (DESIGN.md §4b).
//!
//! Three cells exercise the checkpoint plane end to end:
//!
//! - **migration**: a KV replica preloaded with N entries is live-migrated
//!   between two boards while a client keeps probing it by name. The
//!   blackout window (snapshot to restored) must scale with state size —
//!   quiesce is fixed, but fabric serialization and the ICAP restore are
//!   charged per byte — and the replica must answer post-migration
//!   requests at the new board without any client-side cap churn.
//! - **recovery**: a supervised single-board KV service is killed twice
//!   mid-run. With periodic checkpointing the restart restores the latest
//!   snapshot (bounded staleness: at most one interval of writes lost), so
//!   contents written before the first checkpoint survive every kill; with
//!   checkpointing off the restart is factory-fresh and retains nothing.
//! - **sharing**: two KV tenants time-multiplex one tile via
//!   [`apiary_core::System::swap_context`] on a fixed slice, against a
//!   static-partitioning baseline that gives each tenant its own tile.
//!   Sharing halves the tiles; the price is per-swap partial-reconfig
//!   downtime (charged on the combined snapshot bytes) and slice-boundary
//!   waits that show up in tenant p99.

use crate::harness::Run;
use crate::report::{round, rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::{drain, drive, Clients, MonitorClient};
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv::{self, kv_store, KvStoreAccel};
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterClient, ClusterConfig};
use apiary_core::fault::preemption_downtime;
use apiary_core::supervisor::SupervisorConfig;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_monitor::TileState;
use apiary_net::Workload;
use apiary_noc::NodeId;
use apiary_sim::{until, Cycle, Load, Machine};
use core::ops::ControlFlow;

const SVC: ServiceId = ServiceId(19);
const REPLICA_NODE: NodeId = NodeId(5);
const BITSTREAM: u64 = 4096; // 1024 cycles over the default 4 B/cycle ICAP.
const KILL_CODE: u32 = 0xC4A0_0019;
/// Tenant badge used for direct preloads (distinct from client badges).
const PRELOAD_TENANT: u64 = 9;

// --- Cell 1: cross-board live migration -----------------------------------

/// Drives one migration cell: `entries` preloaded KV entries (32-byte
/// values), one live migration 0 -> 1, and the drain every cell must
/// reach; returns its row.
pub fn run_migration(run: Run, entries: u64, duration: u64) -> Row {
    let mut c = run.cluster(ClusterConfig {
        boards: 2,
        request_timeout: 8_000,
        ..ClusterConfig::default()
    });
    c.deploy_replica(
        0,
        "ckpt-kv",
        SVC,
        REPLICA_NODE,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("replica tile free");
    c.run(2_000); // bitstream load + one gossip round
    let accel = c
        .board_mut(0)
        .accel_as_mut::<KvStoreAccel>(REPLICA_NODE)
        .expect("kv installed");
    for i in 0..entries {
        accel
            .service_mut()
            .insert(PRELOAD_TENANT, &(i as u32).to_le_bytes(), &[0x5A; 32]);
    }

    // One client on the *other* board probes the service by name for the
    // whole run. Its zero payloads earn MALFORMED status replies — the
    // probe measures round-trips (liveness through the migration), not KV
    // hits. It never re-attaches: post-migration completions prove the
    // late-bound name and re-minted gateway caps did all the rewiring.
    let mut clients = vec![ClusterClient::new(
        1,
        1,
        "ckpt-kv",
        16,
        Workload::Open {
            mean_interarrival: 300.0,
        },
        0xE19_0001,
    )];
    c.drive(&mut clients[..], duration / 5, |_, _| until(false));
    let ok_before = clients[0].gen.stats.completed - clients[0].gen.stats.errors;

    c.migrate_replica("ckpt-kv", 0, 1, REPLICA_NODE)
        .expect("migration starts");
    c.drive(&mut clients[..], duration - duration / 5, |_, _| {
        until(false)
    });

    for cl in &mut clients {
        cl.gen.max_requests = cl.gen.stats.issued;
    }
    // Stamp simulated work at load end: the drain's length is not work.
    let sim_cycles = c.now().as_u64();
    let drained = c.drive(&mut clients[..], 120_000, |c, _| until(c.quiescent()));

    let outcome = c.migration_outcomes().first().cloned();
    let retained = c
        .board(1)
        .accel_as::<KvStoreAccel>(REPLICA_NODE)
        .map_or(0, |a| a.service().tenant_len(PRELOAD_TENANT)) as u64;
    let ok_total = clients[0].gen.stats.completed - clients[0].gen.stats.errors;
    assert!(
        drained,
        "migration cell ({entries} entries) failed to drain"
    );
    assert_eq!(c.migrations_failed, 0, "a migration failed");
    // `ok after` proves the name still resolves without the client
    // re-attaching or re-minting capabilities.
    Row::new()
        .both("entries", "preload", entries)
        .both(
            "state_bytes",
            "state bytes",
            outcome.as_ref().map_or(0, |o| o.state_bytes),
        )
        .both(
            "blackout_cycles",
            "blackout (cyc)",
            outcome.as_ref().map_or(0, |o| o.blackout()),
        )
        .both("warm", "warm", outcome.as_ref().is_some_and(|o| o.warm))
        .pair(["retained", "entries"], "retained", [retained, entries])
        .json(
            "retention",
            round(retained as f64 / entries.max(1) as f64, 3),
        )
        .both("ok_before", "ok before", ok_before)
        .both("ok_after", "ok after", ok_total - ok_before)
        .both("caps_revoked", "caps revoked", c.caps_revoked)
        .json("drained", drained)
        .json("sim_cycles", sim_cycles)
}

// --- Cell 2: warm vs cold recovery under kills -----------------------------

const HOME: NodeId = NodeId(5);
const CLIENT: NodeId = NodeId(0);
const SPARES: [NodeId; 2] = [NodeId(10), NodeId(12)];

/// Drives one recovery cell: a closed-loop writer against a supervised KV
/// service checkpointed every `interval` cycles (0 = off, cold restarts),
/// with two deterministic tile kills when `kill` is set, then the drain
/// every cell must reach; returns its row.
pub fn run_recovery(run: Run, interval: u64, preloaded: u64, kill: bool, duration: u64) -> Row {
    let mut sys = run.system(SystemConfig {
        supervisor: SupervisorConfig {
            enabled: true,
            max_restarts: 2,
            restart_backoff: 128,
            spare_nodes: SPARES.to_vec(),
            checkpoint_interval: interval,
        },
        ..SystemConfig::default()
    });
    sys.install(CLIENT, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.deploy_service(
        SVC,
        HOME,
        AppId(1),
        FaultPolicy::FailStop,
        BITSTREAM,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("free");
    let cap = sys.attach_client(CLIENT, SVC).expect("wired");
    sys.run(2_000); // bitstream load; preload lands before the 1st checkpoint
    let accel = sys
        .accel_as_mut::<KvStoreAccel>(HOME)
        .expect("kv installed");
    for i in 0..preloaded {
        accel
            .service_mut()
            .insert(PRELOAD_TENANT, &(i as u32).to_le_bytes(), &[0x5A; 24]);
    }

    // The client writes a rolling window of keys under its own badge; the
    // preload tenant is only ever touched by checkpoints and restores.
    let mut vc = MonitorClient::with_payload(
        CLIENT,
        cap,
        Box::new(|tag| kv::put_req(&((tag % 64) as u32).to_le_bytes(), &[0x42; 24])),
    )
    .window(2);
    vc.timeout = 400;

    let kills_at = if kill {
        vec![duration / 3, 2 * duration / 3]
    } else {
        Vec::new()
    };
    let mut kills = 0;
    let kill_at = |n: usize| kills_at.get(n).map_or(Cycle::MAX, |&k| Cycle(2_000 + k));
    sys.drive(&mut Clients(&mut [&mut vc]), duration, |sys, _| {
        if sys.now() >= kill_at(kills) {
            if let Some(home) = sys.service_home(SVC) {
                if sys.tile(home).monitor.state() == TileState::Running {
                    sys.inject_fault(home, KILL_CODE);
                    kills += 1;
                }
            }
        }
        // A kill whose time has passed waits for its tile to be running,
        // which is polled after every step and needs no deadline.
        let at = kill_at(kills);
        ControlFlow::Continue(if at > sys.now() { at } else { Cycle::MAX })
    });
    let drained = drain(&mut sys, &mut [&mut vc]);

    let retained = sys
        .service_home(SVC)
        .and_then(|home| sys.accel_as::<KvStoreAccel>(home))
        .map_or(0, |a| a.service().tenant_len(PRELOAD_TENANT)) as u64;
    assert!(
        drained,
        "recovery cell (interval {interval}) failed to drain"
    );
    let mttr = sys.mttr_samples();
    let retention = retained as f64 / preloaded.max(1) as f64;
    let policy = if kills == 0 {
        "baseline (no kills)".to_string()
    } else if interval == 0 {
        "cold restart".to_string()
    } else {
        format!("checkpoint every {interval}")
    };
    Row::new()
        .json("checkpoint_interval", interval)
        .both("policy", "policy", policy)
        .both("kills", "kills", kills)
        .json("preloaded", preloaded)
        .json("retained", retained)
        .pct("kv_retention", "kv retention", retention)
        .both("completed_ok", "ok responses", vc.completed - vc.errors)
        .both(
            "checkpoints_taken",
            "checkpoints",
            sys.checkpoint_store().taken,
        )
        .both(
            "warm_restores",
            "warm restores",
            sys.checkpoint_store().warm_restores,
        )
        .both(
            "mttr_mean",
            "mean MTTR (cyc)",
            mttr.iter().sum::<u64>() / (mttr.len() as u64).max(1),
        )
        .json("drained", drained)
        .json("sim_cycles", sys.now().as_u64())
}

// --- Cell 3: preemptive tile sharing vs static partitioning ----------------

const SHARED: NodeId = NodeId(5);
const STATIC_B: NodeId = NodeId(6);
const CA: NodeId = NodeId(0);
const CB: NodeId = NodeId(3);
/// Cycles each tenant holds the shared tile.
const SLICE: u64 = 2_500;
/// The active tenant stops issuing this long before the slice boundary so
/// in-flight requests drain before the swap (an RTT is ~30 cycles).
const GUARD: u64 = 300;

/// Drives one sharing cell: each tenant's client writes a rolling window
/// of keys, so every swap carries both tenants' real KV state.
pub fn run_sharing(run: Run, shared: bool, duration: u64) -> Row {
    let mut sys = run.system(SystemConfig::default());
    sys.install(CA, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(CB, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        SHARED,
        Box::new(kv_store()),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    let cap_a = sys.connect(CA, SHARED, false).expect("same app");
    sys.connect(SHARED, CA, false).expect("reply path");
    let (cap_b, tiles) = if shared {
        sys.install_shared(
            SHARED,
            Box::new(kv_store()),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("second tenant parks");
        // `connect` checks app identity against the *active* tenant, so B
        // is swapped in for its wiring and back out before the run.
        sys.swap_context(SHARED).expect("kv is preemptible");
        let cb = sys.connect(CB, SHARED, false).expect("same app");
        sys.connect(SHARED, CB, false).expect("reply path");
        sys.swap_context(SHARED).expect("swap back");
        (cb, 1u64)
    } else {
        sys.install(
            STATIC_B,
            Box::new(kv_store()),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("free");
        let cb = sys.connect(CB, STATIC_B, false).expect("same app");
        sys.connect(STATIC_B, CB, false).expect("reply path");
        (cb, 2)
    };

    let mk = |node, cap| {
        let mut cl = MonitorClient::with_payload(
            node,
            cap,
            Box::new(|tag: u64| kv::put_req(&((tag % 32) as u32).to_le_bytes(), &[0x6B; 16])),
        )
        .window(2);
        cl.timeout = 0; // the slice gate bounds waiting; never abandon
        cl
    };
    let mut ca = mk(CA, cap_a);
    let mut cb = mk(CB, cap_b);
    let mut clients = [&mut ca, &mut cb];

    let mut swaps = 0u64;
    let mut swap_downtime = 0u64;
    if shared {
        // A starts active; B's client is gated until its first slice.
        clients[1].max_requests = 0;
        let end = sys.now().saturating_add(duration);
        let mut active = 0;
        let mut next_swap = sys.now() + SLICE;
        // The active client is gated between the step and the pump, so
        // this loop is not `Machine::drive`.
        while sys.now() < end {
            let due = Clients(&mut clients).next_wakeup(&sys);
            Machine::advance_toward(&mut sys, due.min(end).min(next_swap));
            if sys.now() + GUARD >= next_swap {
                clients[active].max_requests = clients[active].issued;
            }
            Clients(&mut clients).pump(&mut sys);
            if sys.now() >= next_swap {
                if let Ok((out, inn)) = sys.swap_context(SHARED) {
                    swaps += 1;
                    swap_downtime += preemption_downtime(out + inn);
                    active = 1 - active;
                    clients[active].max_requests = u64::MAX;
                }
                next_swap = sys.now() + SLICE;
            }
        }
    } else {
        drive(&mut sys, &mut clients, duration);
    }
    drain(&mut sys, &mut clients);

    let (a_p50, a_p99, b_p50, b_p99) = (ca.rtt.p50(), ca.rtt.p99(), cb.rtt.p50(), cb.rtt.p99());
    Row::new()
        .cell(
            "layout",
            "layout",
            if shared { "shared" } else { "static" },
            if shared {
                "shared (preemptive)"
            } else {
                "static (2 tiles)"
            },
        )
        .both("tiles", "tiles", tiles)
        .both("a_ok", "A ok", ca.completed - ca.errors)
        .both("b_ok", "B ok", cb.completed - cb.errors)
        .pair(["a_p50", "a_p99"], "A p50/p99", [a_p50, a_p99])
        .pair(["b_p50", "b_p99"], "B p50/p99", [b_p50, b_p99])
        .both("swaps", "swaps", swaps)
        .both("swap_downtime_cycles", "swap downtime (cyc)", swap_downtime)
        .json("sim_cycles", sys.now().as_u64())
}

// --- The experiment --------------------------------------------------------

/// Runs every cell; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let mig_duration: u64 = 80_000;
    let rec_duration: u64 = 90_000;
    let share_duration: u64 = 80_000;
    let interval: u64 = 4_000;
    let preloaded: u64 = 200;

    let migrations: Vec<Row> = [64u64, 512, 2048]
        .iter()
        .map(|&n| run_migration(run, n, mig_duration))
        .collect();
    let recovery = [
        run_recovery(run, 0, preloaded, false, rec_duration), // fault-free baseline
        run_recovery(run, 0, preloaded, true, rec_duration),  // cold restarts
        run_recovery(run, interval, preloaded, true, rec_duration), // warm restores
    ];
    let sharing = [
        run_sharing(run, false, share_duration),
        run_sharing(run, true, share_duration),
    ];
    let sim_cycles = migrations
        .iter()
        .chain(&recovery)
        .chain(&sharing)
        .map(|r| r.record().u64("sim_cycles"))
        .sum();
    let rendered = format!(
        "E19: Checkpoint/restore plane — warm recovery, live migration, tile sharing\n\n\
         Live migration (board 0 -> 1):\n{}\n\
         Warm vs cold recovery (supervised KV, 2 kills):\n{}\n\
         Preemptive sharing vs static partitioning:\n{}",
        table(&migrations),
        table(&recovery),
        table(&sharing)
    );
    let metrics = Json::obj()
        .set("migrations", rows_json(&migrations))
        .set("recovery", rows_json(&recovery))
        .set("sharing", rows_json(&sharing));
    ExperimentReport::new(
        "E19",
        "Checkpoint/restore plane: warm recovery, live migration, tile sharing",
        sim_cycles,
        metrics,
        rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_scales_and_migration_is_warm() {
        let d = 50_000;
        let small = run_migration(Run::EVENT, 64, d);
        let large = run_migration(Run::EVENT, 2048, d);
        let (small, large) = (small.record(), large.record());
        assert!(
            small.bool("warm") && large.bool("warm"),
            "both migrations restore warm"
        );
        assert_eq!(small.u64("retained"), 64);
        assert_eq!(large.u64("retained"), 2048);
        assert!(
            large.u64("blackout_cycles") > small.u64("blackout_cycles"),
            "blackout must scale with state: {} !> {}",
            large.u64("blackout_cycles"),
            small.u64("blackout_cycles")
        );
        assert!(
            small.u64("ok_after") > 0,
            "post-migration requests answered"
        );
        assert!(small.u64("caps_revoked") > 0, "stale gateway caps revoked");
    }

    #[test]
    fn warm_recovery_retains_kv_cold_does_not() {
        let d = 36_000;
        let cold = run_recovery(Run::EVENT, 0, 200, true, d);
        let warm = run_recovery(Run::EVENT, 4_000, 200, true, d);
        let (cold, warm) = (cold.record(), warm.record());
        assert_eq!(cold.u64("kills"), 2);
        assert_eq!(warm.u64("kills"), 2);
        assert_eq!(cold.u64("retained"), 0, "cold restart is factory-fresh");
        assert!(
            warm.f64("kv_retention") >= 0.99,
            "warm retention {:.3} below 99%",
            warm.f64("kv_retention")
        );
        assert!(warm.u64("checkpoints_taken") >= 2);
        assert_eq!(
            warm.u64("warm_restores"),
            2,
            "both kills restored a snapshot"
        );
        assert_eq!(cold.u64("warm_restores"), 0);
    }

    #[test]
    fn sharing_trades_tiles_for_latency() {
        let d = 30_000;
        let fixed = run_sharing(Run::EVENT, false, d);
        let shared = run_sharing(Run::EVENT, true, d);
        let (fixed, shared) = (fixed.record(), shared.record());
        assert_eq!(fixed.u64("tiles"), 2);
        assert_eq!(shared.u64("tiles"), 1);
        assert!(
            shared.u64("swaps") >= 8,
            "swaps ran: {}",
            shared.u64("swaps")
        );
        assert!(shared.u64("swap_downtime_cycles") > 0);
        assert!(
            shared.u64("a_ok") > 0 && shared.u64("b_ok") > 0,
            "both tenants served"
        );
        assert!(
            shared.u64("a_p99") > fixed.u64("a_p99"),
            "sharing shows up in p99: {} !> {}",
            shared.u64("a_p99"),
            fixed.u64("a_p99")
        );
    }

    #[test]
    fn cells_are_deterministic() {
        assert_eq!(
            run_migration(Run::EVENT, 256, 40_000),
            run_migration(Run::EVENT, 256, 40_000)
        );
        assert_eq!(
            run_recovery(Run::EVENT, 4_000, 100, true, 30_000),
            run_recovery(Run::EVENT, 4_000, 100, true, 30_000)
        );
        assert_eq!(
            run_sharing(Run::EVENT, true, 20_000),
            run_sharing(Run::EVENT, true, 20_000)
        );
    }
}
