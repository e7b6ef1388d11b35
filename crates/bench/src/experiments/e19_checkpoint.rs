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
use crate::report::{round3, ExperimentReport, Json};
use crate::scenarios::{drive, pump, step, MonitorClient};
use crate::table::TextTable;
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv::{self, kv_store, KvStoreAccel};
use apiary_cap::ServiceId;
use apiary_cluster::{run_clients, ClusterClient, ClusterConfig};
use apiary_core::fault::preemption_downtime;
use apiary_core::supervisor::SupervisorConfig;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_monitor::TileState;
use apiary_net::Workload;
use apiary_noc::NodeId;
use apiary_sim::Cycle;
use core::fmt::Write;

const SVC: ServiceId = ServiceId(19);
const REPLICA_NODE: NodeId = NodeId(5);
const BITSTREAM: u64 = 4096; // 1024 cycles over the default 4 B/cycle ICAP.
const KILL_CODE: u32 = 0xC4A0_0019;
/// Tenant badge used for direct preloads (distinct from client badges).
const PRELOAD_TENANT: u64 = 9;

// --- Cell 1: cross-board live migration -----------------------------------

/// One migration cell: N preloaded entries, one live migration 0 -> 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationCell {
    /// KV entries preloaded before migration (32-byte values).
    pub entries: u64,
    /// Snapshot bytes that crossed the fabric.
    pub state_bytes: u64,
    /// Blackout window: snapshot taken to service restored (cycles).
    pub blackout: u64,
    /// The destination restored from the snapshot (not factory-fresh).
    pub warm: bool,
    /// Preloaded entries present at the destination after migration.
    pub retained: u64,
    /// Client round-trips completed before the migration started.
    pub ok_before: u64,
    /// Client round-trips completed after (proves the name still resolves
    /// without the client re-attaching or re-minting capabilities).
    pub ok_after: u64,
    /// Stale gateway caps for the old home revoked at finalize.
    pub caps_revoked: u64,
    /// Migrations that failed (must be 0).
    pub failed: u64,
    /// The post-run drain reached quiescence.
    pub drained: bool,
    /// Simulated cycles at the end of the run.
    pub sim_cycles: u64,
}

/// Drives one migration cell.
pub fn run_migration(run: Run, entries: u64, duration: u64) -> MigrationCell {
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
    c.tick_n(2_000); // bitstream load + one gossip round
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
    run_clients(&mut c, &mut clients, duration / 5, |_, _| false);
    let ok_before = clients[0].gen.stats.completed - clients[0].gen.stats.errors;

    c.migrate_replica(
        "ckpt-kv",
        0,
        1,
        REPLICA_NODE,
        Box::new(|| Box::new(kv_store())),
    )
    .expect("migration starts");
    run_clients(&mut c, &mut clients, duration - duration / 5, |_, _| false);

    for cl in &mut clients {
        cl.gen.max_requests = cl.gen.stats.issued;
    }
    // Stamp simulated work at load end: the drain below may start on an
    // already-quiescent cluster, where the dense clock notices after one
    // cycle but the event clock only at the next background wakeup — the
    // post-drain `now` is the one quantity that is not clock-stable.
    let sim_cycles = c.now().as_u64();
    let drained = run_clients(&mut c, &mut clients, 120_000, |c, _| c.quiescent());

    let outcome = c.migration_outcomes().first().cloned();
    let retained = c
        .board(1)
        .accel_as::<KvStoreAccel>(REPLICA_NODE)
        .map_or(0, |a| a.service().tenant_len(PRELOAD_TENANT)) as u64;
    let ok_total = clients[0].gen.stats.completed - clients[0].gen.stats.errors;
    MigrationCell {
        entries,
        state_bytes: outcome.as_ref().map_or(0, |o| o.state_bytes),
        blackout: outcome.as_ref().map_or(0, |o| o.blackout()),
        warm: outcome.as_ref().is_some_and(|o| o.warm),
        retained,
        ok_before,
        ok_after: ok_total - ok_before,
        caps_revoked: c.caps_revoked,
        failed: c.migrations_failed,
        drained,
        sim_cycles,
    }
}

// --- Cell 2: warm vs cold recovery under kills -----------------------------

const HOME: NodeId = NodeId(5);
const CLIENT: NodeId = NodeId(0);
const SPARES: [NodeId; 2] = [NodeId(10), NodeId(12)];

/// One recovery cell: supervised KV under tile kills, warm or cold.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryCell {
    /// Checkpoint interval in cycles (0 = checkpointing off, cold restarts).
    pub interval: u64,
    /// Tile kills injected.
    pub kills: u64,
    /// KV entries preloaded before the first checkpoint.
    pub preloaded: u64,
    /// Preloaded entries still present after the run (and its kills).
    pub retained: u64,
    /// Successful client responses.
    pub completed_ok: u64,
    /// Checkpoints taken by the supervisor.
    pub checkpoints_taken: u64,
    /// Recoveries that restored a snapshot.
    pub warm_restores: u64,
    /// Mean recovery time of supervised incidents (cycles).
    pub mttr_mean: u64,
    /// The post-run drain reached quiescence.
    pub drained: bool,
    /// Simulated cycles at the end of the run.
    pub sim_cycles: u64,
}

/// Drives one recovery cell: a closed-loop writer against a supervised KV
/// service, with two deterministic tile kills when `kill` is set.
pub fn run_recovery(
    run: Run,
    interval: u64,
    preloaded: u64,
    kill: bool,
    duration: u64,
) -> RecoveryCell {
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
    let mut kills = 0u64;
    let mut next = 0usize;
    let end = sys.now().saturating_add(duration);
    while sys.now() < end {
        // A kill whose time has passed waits for its tile to be running,
        // which is polled after every step and needs no deadline.
        let kill_at = kills_at.get(next).map_or(Cycle::MAX, |&k| Cycle(2_000 + k));
        let deadline = if kill_at > sys.now() { kill_at } else { end };
        step(&mut sys, &[&mut vc], deadline.min(end));
        pump(&mut sys, &mut [&mut vc]);
        if sys.now() >= kill_at {
            if let Some(home) = sys.service_home(SVC) {
                if sys.tile(home).monitor.state() == TileState::Running {
                    sys.inject_fault(home, KILL_CODE);
                    kills += 1;
                    next += 1;
                }
            }
        }
    }
    vc.max_requests = vc.issued;
    let mut drained = false;
    for _ in 0..3 {
        drained = sys.run_until_idle(2_000_000);
        pump(&mut sys, &mut [&mut vc]);
        if drained {
            break;
        }
    }

    let retained = sys
        .service_home(SVC)
        .and_then(|home| sys.accel_as::<KvStoreAccel>(home))
        .map_or(0, |a| a.service().tenant_len(PRELOAD_TENANT)) as u64;
    let mttr = sys.mttr_samples();
    RecoveryCell {
        interval,
        kills,
        preloaded,
        retained,
        completed_ok: vc.completed - vc.errors,
        checkpoints_taken: sys.checkpoint_store().taken,
        warm_restores: sys.checkpoint_store().warm_restores,
        mttr_mean: if mttr.is_empty() {
            0
        } else {
            mttr.iter().sum::<u64>() / mttr.len() as u64
        },
        drained,
        sim_cycles: sys.now().as_u64(),
    }
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

/// One sharing cell: two KV tenants, shared tile or static partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingCell {
    /// `true` = one tile time-multiplexed; `false` = one tile per tenant.
    pub shared: bool,
    /// Tiles consumed by the two tenants.
    pub tiles: u64,
    /// Tenant A successful responses.
    pub a_ok: u64,
    /// Tenant B successful responses.
    pub b_ok: u64,
    /// Tenant A response-time p50/p99 (cycles).
    pub a_p50: u64,
    pub a_p99: u64,
    /// Tenant B response-time p50/p99 (cycles).
    pub b_p50: u64,
    pub b_p99: u64,
    /// Context swaps executed during the measured window.
    pub swaps: u64,
    /// Total partial-reconfig downtime charged for those swaps (cycles).
    pub swap_downtime: u64,
    /// Simulated cycles at the end of the run.
    pub sim_cycles: u64,
}

/// Drives one sharing cell: each tenant's client writes a rolling window
/// of keys, so every swap carries both tenants' real KV state.
pub fn run_sharing(run: Run, shared: bool, duration: u64) -> SharingCell {
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
        (cb, 1)
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
        while sys.now() < end {
            step(&mut sys, &clients, end.min(next_swap));
            if sys.now() + GUARD >= next_swap {
                clients[active].max_requests = clients[active].issued;
            }
            pump(&mut sys, &mut clients);
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
    for c in clients.iter_mut() {
        c.max_requests = c.issued;
    }
    for _ in 0..3 {
        let drained = sys.run_until_idle(2_000_000);
        pump(&mut sys, &mut clients);
        if drained {
            break;
        }
    }

    SharingCell {
        shared,
        tiles,
        a_ok: ca.completed - ca.errors,
        b_ok: cb.completed - cb.errors,
        a_p50: ca.rtt.p50(),
        a_p99: ca.rtt.p99(),
        b_p50: cb.rtt.p50(),
        b_p99: cb.rtt.p99(),
        swaps,
        swap_downtime,
        sim_cycles: sys.now().as_u64(),
    }
}

// --- The experiment --------------------------------------------------------

/// The whole experiment: migration sweep, recovery cells, sharing cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointReport {
    /// Migration cells, one per preload size.
    pub migrations: Vec<MigrationCell>,
    /// Recovery cells: fault-free baseline, cold, warm.
    pub recovery: Vec<RecoveryCell>,
    /// Sharing cells: static partitioning, then shared.
    pub sharing: Vec<SharingCell>,
}

/// Executes every cell.
pub fn execute(run: Run) -> CheckpointReport {
    let mig_duration: u64 = if run.quick { 50_000 } else { 80_000 };
    let rec_duration: u64 = if run.quick { 36_000 } else { 90_000 };
    let share_duration: u64 = if run.quick { 30_000 } else { 80_000 };
    let interval: u64 = 4_000;
    let preloaded: u64 = 200;

    let migrations: Vec<MigrationCell> = [64u64, 512, 2048]
        .iter()
        .map(|&n| run_migration(run, n, mig_duration))
        .collect();
    for m in &migrations {
        assert!(
            m.drained,
            "migration cell ({} entries) failed to drain",
            m.entries
        );
        assert_eq!(m.failed, 0, "a migration failed");
    }
    let recovery = vec![
        run_recovery(run, 0, preloaded, false, rec_duration), // fault-free baseline
        run_recovery(run, 0, preloaded, true, rec_duration),  // cold restarts
        run_recovery(run, interval, preloaded, true, rec_duration), // warm restores
    ];
    for r in &recovery {
        assert!(
            r.drained,
            "recovery cell (interval {}) failed to drain",
            r.interval
        );
    }
    let sharing = vec![
        run_sharing(run, false, share_duration),
        run_sharing(run, true, share_duration),
    ];
    CheckpointReport {
        migrations,
        recovery,
        sharing,
    }
}

impl CheckpointReport {
    /// Fraction of preloaded KV contents surviving a recovery cell.
    pub fn retention(r: &RecoveryCell) -> f64 {
        r.retained as f64 / r.preloaded.max(1) as f64
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E19: Checkpoint/restore plane — warm recovery, live migration, tile sharing\n"
        );

        let mut t = TextTable::new(&[
            "preload",
            "state bytes",
            "blackout (cyc)",
            "warm",
            "retained",
            "ok before",
            "ok after",
            "caps revoked",
        ]);
        for m in &self.migrations {
            t.row_owned(vec![
                m.entries.to_string(),
                m.state_bytes.to_string(),
                m.blackout.to_string(),
                m.warm.to_string(),
                format!("{}/{}", m.retained, m.entries),
                m.ok_before.to_string(),
                m.ok_after.to_string(),
                m.caps_revoked.to_string(),
            ]);
        }
        let _ = writeln!(out, "Live migration (board 0 -> 1):\n{}", t.render());

        let mut t = TextTable::new(&[
            "policy",
            "kills",
            "kv retention",
            "ok responses",
            "checkpoints",
            "warm restores",
            "mean MTTR (cyc)",
        ]);
        for r in &self.recovery {
            let policy = if r.kills == 0 {
                "baseline (no kills)".to_string()
            } else if r.interval == 0 {
                "cold restart".to_string()
            } else {
                format!("checkpoint every {}", r.interval)
            };
            t.row_owned(vec![
                policy,
                r.kills.to_string(),
                format!("{:.1}%", Self::retention(r) * 100.0),
                r.completed_ok.to_string(),
                r.checkpoints_taken.to_string(),
                r.warm_restores.to_string(),
                r.mttr_mean.to_string(),
            ]);
        }
        let _ = writeln!(
            out,
            "Warm vs cold recovery (supervised KV, 2 kills):\n{}",
            t.render()
        );

        let mut t = TextTable::new(&[
            "layout",
            "tiles",
            "A ok",
            "B ok",
            "A p50/p99",
            "B p50/p99",
            "swaps",
            "swap downtime (cyc)",
        ]);
        for s in &self.sharing {
            t.row_owned(vec![
                if s.shared {
                    "shared (preemptive)"
                } else {
                    "static (2 tiles)"
                }
                .to_string(),
                s.tiles.to_string(),
                s.a_ok.to_string(),
                s.b_ok.to_string(),
                format!("{}/{}", s.a_p50, s.a_p99),
                format!("{}/{}", s.b_p50, s.b_p99),
                s.swaps.to_string(),
                s.swap_downtime.to_string(),
            ]);
        }
        let _ = writeln!(
            out,
            "Preemptive sharing vs static partitioning:\n{}",
            t.render()
        );

        let _ = writeln!(
            out,
            "Reading: blackout grows with state size (fixed quiesce + per-byte fabric\n\
             serialization + per-byte ICAP restore) while the client keeps resolving the\n\
             service by name — zero re-attach. Checkpointed restarts restore the latest\n\
             snapshot, so the preload survives every kill; cold restarts retain nothing.\n\
             Sharing one tile halves the tile budget at the cost of per-swap\n\
             partial-reconfig downtime and slice-boundary waits in tenant p99."
        );
        out
    }
}

/// Builds the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let r = execute(run);
    let sim_cycles: u64 = r.migrations.iter().map(|m| m.sim_cycles).sum::<u64>()
        + r.recovery.iter().map(|c| c.sim_cycles).sum::<u64>()
        + r.sharing.iter().map(|c| c.sim_cycles).sum::<u64>();

    let migrations: Vec<Json> = r
        .migrations
        .iter()
        .map(|m| {
            Json::obj()
                .set("entries", m.entries)
                .set("state_bytes", m.state_bytes)
                .set("blackout_cycles", m.blackout)
                .set("warm", m.warm)
                .set("retained", m.retained)
                .set(
                    "retention",
                    round3(m.retained as f64 / m.entries.max(1) as f64),
                )
                .set("ok_before", m.ok_before)
                .set("ok_after", m.ok_after)
                .set("caps_revoked", m.caps_revoked)
                .set("drained", m.drained)
                .set("sim_cycles", m.sim_cycles)
        })
        .collect();
    let recovery: Vec<Json> = r
        .recovery
        .iter()
        .map(|c| {
            Json::obj()
                .set("checkpoint_interval", c.interval)
                .set("kills", c.kills)
                .set("preloaded", c.preloaded)
                .set("retained", c.retained)
                .set("kv_retention", round3(CheckpointReport::retention(c)))
                .set("completed_ok", c.completed_ok)
                .set("checkpoints_taken", c.checkpoints_taken)
                .set("warm_restores", c.warm_restores)
                .set("mttr_mean", c.mttr_mean)
                .set("drained", c.drained)
                .set("sim_cycles", c.sim_cycles)
        })
        .collect();
    let sharing: Vec<Json> = r
        .sharing
        .iter()
        .map(|s| {
            Json::obj()
                .set("layout", if s.shared { "shared" } else { "static" })
                .set("tiles", s.tiles)
                .set("a_ok", s.a_ok)
                .set("b_ok", s.b_ok)
                .set("a_p50", s.a_p50)
                .set("a_p99", s.a_p99)
                .set("b_p50", s.b_p50)
                .set("b_p99", s.b_p99)
                .set("swaps", s.swaps)
                .set("swap_downtime_cycles", s.swap_downtime)
                .set("sim_cycles", s.sim_cycles)
        })
        .collect();
    let mut metrics = Json::obj();
    metrics.put("migrations", Json::Arr(migrations));
    metrics.put("recovery", Json::Arr(recovery));
    metrics.put("sharing", Json::Arr(sharing));
    ExperimentReport::new(
        "E19",
        "Checkpoint/restore plane: warm recovery, live migration, tile sharing",
        sim_cycles,
        metrics,
        r.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_scales_and_migration_is_warm() {
        let d = 50_000;
        let small = run_migration(Run::QUICK, 64, d);
        let large = run_migration(Run::QUICK, 2048, d);
        assert!(small.warm && large.warm, "both migrations restore warm");
        assert_eq!(small.retained, 64);
        assert_eq!(large.retained, 2048);
        assert!(
            large.blackout > small.blackout,
            "blackout must scale with state: {} !> {}",
            large.blackout,
            small.blackout
        );
        assert!(small.ok_after > 0, "post-migration requests answered");
        assert!(small.caps_revoked > 0, "stale gateway caps revoked");
    }

    #[test]
    fn warm_recovery_retains_kv_cold_does_not() {
        let d = 36_000;
        let cold = run_recovery(Run::QUICK, 0, 200, true, d);
        let warm = run_recovery(Run::QUICK, 4_000, 200, true, d);
        assert_eq!(cold.kills, 2);
        assert_eq!(warm.kills, 2);
        assert_eq!(cold.retained, 0, "cold restart is factory-fresh");
        assert!(
            CheckpointReport::retention(&warm) >= 0.99,
            "warm retention {:.3} below 99%",
            CheckpointReport::retention(&warm)
        );
        assert!(warm.checkpoints_taken >= 2);
        assert_eq!(warm.warm_restores, 2, "both kills restored a snapshot");
        assert_eq!(cold.warm_restores, 0);
    }

    #[test]
    fn sharing_trades_tiles_for_latency() {
        let d = 30_000;
        let fixed = run_sharing(Run::QUICK, false, d);
        let shared = run_sharing(Run::QUICK, true, d);
        assert_eq!(fixed.tiles, 2);
        assert_eq!(shared.tiles, 1);
        assert!(shared.swaps >= 8, "swaps ran: {}", shared.swaps);
        assert!(shared.swap_downtime > 0);
        assert!(shared.a_ok > 0 && shared.b_ok > 0, "both tenants served");
        assert!(
            shared.a_p99 > fixed.a_p99,
            "sharing shows up in p99: {} !> {}",
            shared.a_p99,
            fixed.a_p99
        );
    }

    #[test]
    fn cells_are_deterministic() {
        assert_eq!(
            run_migration(Run::QUICK, 256, 40_000),
            run_migration(Run::QUICK, 256, 40_000)
        );
        assert_eq!(
            run_recovery(Run::QUICK, 4_000, 100, true, 30_000),
            run_recovery(Run::QUICK, 4_000, 100, true, 30_000)
        );
        assert_eq!(
            run_sharing(Run::QUICK, true, 20_000),
            run_sharing(Run::QUICK, true, 20_000)
        );
    }
}
