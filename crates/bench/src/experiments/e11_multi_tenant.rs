//! E11 — Mutually distrusting tenants on one board (§2, §4.1).
//!
//! The paper's multi-tenant scenario: a KV-store application co-located
//! with the video-pipeline application, sharing only the NoC and OS
//! services. We measure the KV tenant's latency:
//!
//! 1. alone on the board,
//! 2. co-located with the (well-behaved) video pipeline,
//! 3. co-located with a *misbehaving* tenant flooding the KV store,
//! 4. same, with the monitor rate limit on the attacker.
//!
//! Expected shape: honest co-location costs almost nothing (separate tiles,
//! mostly disjoint NoC paths); an undefended flood wrecks the KV tenant;
//! the monitor restores it. Cross-tenant data isolation is also asserted:
//! the KV store namespaces by capability badge, so the attacker reads
//! nothing of the victim's data even while connected to the same store.

use crate::harness::Run;
use crate::report::{table, ExperimentReport, Json, Row};
use crate::scenarios::{drive, MonitorClient};
use apiary_accel::apps::compress::compressor;
use apiary_accel::apps::flood::flooder;
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv::{self, KvStoreAccel};
use apiary_accel::apps::video::{encode_request, video_encoder};
use apiary_accel::codec::video::Frame;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_monitor::{Monitor, MonitorConfig};
use apiary_noc::NodeId;
use core::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    KvAlone,
    WithVideo,
    WithFlood,
    WithFloodDefended,
}

struct Outcome {
    kv_p50: u64,
    kv_p99: u64,
    kv_errors: u64,
    video_frames: u64,
    tenant_isolation_held: bool,
    cycles: u64,
}

fn run_scenario(run: Run, s: Scenario, requests: u64) -> Outcome {
    let kv_client = NodeId(0);
    let kv_node = NodeId(5);
    let vid_client = NodeId(3);
    let enc = NodeId(7);
    let comp = NodeId(11);
    let attacker = NodeId(10);
    let mut sys = run.system(SystemConfig::default());

    // Tenant A: the KV store application.
    sys.install(kv_client, Box::new(idle()), AppId(1), FaultPolicy::Preempt)
        .expect("free");
    sys.install(
        kv_node,
        Box::new(kv::kv_store()),
        AppId(1),
        FaultPolicy::Preempt,
    )
    .expect("free");
    let kv_cap = sys
        .connect_badged(kv_client, kv_node, 0xA, false)
        .expect("same app");
    sys.connect(kv_node, kv_client, false).expect("reply path");

    // Tenant B: the video pipeline (honest neighbour).
    let with_video = matches!(
        s,
        Scenario::WithVideo | Scenario::WithFlood | Scenario::WithFloodDefended
    );
    let mut vid = None;
    if with_video {
        sys.install(
            vid_client,
            Box::new(idle()),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("free");
        sys.install(
            enc,
            Box::new(video_encoder(0)),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("free");
        sys.install(
            comp,
            Box::new(compressor()),
            AppId(2),
            FaultPolicy::FailStop,
        )
        .expect("free");
        let to_enc = sys.connect(vid_client, enc, false).expect("same app");
        sys.connect_env(enc, comp, "next", false).expect("same app");
        sys.connect_env(comp, vid_client, "next", false)
            .expect("same app");
        vid = Some(
            MonitorClient::with_payload(
                vid_client,
                to_enc,
                Box::new(|tag| encode_request(&Frame::test_pattern(32, 32, tag))),
            )
            .window(2),
        );
    }

    // Tenant C: a misbehaving tenant of the same KV store.
    if matches!(s, Scenario::WithFlood | Scenario::WithFloodDefended) {
        let mut f = flooder(64);
        // The attacker is a legitimate-but-abusive tenant: it sends valid
        // PUTs, which cost the store real work per message.
        f.service_mut().template = Some(kv::put_req(b"flood-key", &[0x55; 40]).into());
        sys.install(attacker, Box::new(f), AppId(3), FaultPolicy::FailStop)
            .expect("free");
        if s == Scenario::WithFloodDefended {
            sys.tile_mut(attacker).monitor = Monitor::new(
                attacker,
                MonitorConfig {
                    rate: Some((50, 512)),
                    ..MonitorConfig::default()
                },
            );
        }
        // Badged connection: the store attributes the attacker's keys to
        // badge 0xB, fully separate from the victim's namespace.
        let target = sys
            .connect_badged(attacker, kv_node, 0xB, true)
            .expect("explicit cross-app");
        sys.grant_env(attacker, "target", target);
        sys.connect(kv_node, attacker, true).expect("reply path");
    }

    // Victim workload: PUT then GET per pair of requests.
    let mut kvc = MonitorClient::with_payload(
        kv_client,
        kv_cap,
        Box::new(|tag| {
            let key = format!("key-{}", tag / 2);
            if tag % 2 == 0 {
                kv::put_req(key.as_bytes(), b"victim-secret")
            } else {
                kv::get_req(key.as_bytes())
            }
        }),
    )
    .window(1)
    .max_requests(requests);
    kvc.timeout = 200_000;

    let mut clients = vec![&mut kvc];
    if let Some(v) = vid.as_mut() {
        // The video tenant pushes a fixed number of frames; the run ends
        // when both tenants finish, so the KV measurements overlap the
        // video activity.
        v.max_requests = (requests / 4).max(4);
        clients.push(v);
    }
    drive(&mut sys, &mut clients, 100_000_000);
    assert!(kvc.done(), "KV tenant never finished");

    // Isolation check: every victim key lives under badge 0xA and the
    // attacker's writes never leak into that namespace (its own keys sit
    // under badge 0xB). Victim PUTs use distinct keys, so the count is
    // exactly the number of successful PUTs.
    let store = sys
        .accel_as::<KvStoreAccel>(kv_node)
        .expect("store installed");
    let victim_keys = store.service().tenant_len(0xA_u64);
    let expected_victim_keys = requests.div_ceil(2) as usize;
    let flood_present = matches!(s, Scenario::WithFlood | Scenario::WithFloodDefended);
    let attacker_keys = store.service().tenant_len(0xB_u64);
    let isolation = victim_keys <= expected_victim_keys
        && victim_keys > 0
        && (attacker_keys <= 1)
        && (flood_present || attacker_keys == 0);

    Outcome {
        kv_p50: kvc.rtt.p50(),
        kv_p99: kvc.rtt.p99(),
        kv_errors: kvc.errors + kvc.lost,
        video_frames: vid.map(|v| v.completed).unwrap_or(0),
        tenant_isolation_held: isolation,
        cycles: sys.now().as_u64(),
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let requests = 200;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E11: Multi-tenant board — KV store + video pipeline + a misbehaving tenant\n"
    );
    let mut sim_cycles = 0u64;
    let mut metrics = Json::obj().set("requests", requests);
    let mut rows = Vec::new();
    for (name, s) in [
        ("KV alone", Scenario::KvAlone),
        ("KV + video pipeline", Scenario::WithVideo),
        ("KV + video + flooding tenant", Scenario::WithFlood),
        (
            "KV + video + flooder rate-limited",
            Scenario::WithFloodDefended,
        ),
    ] {
        let o = run_scenario(run, s, requests);
        sim_cycles += o.cycles;
        let key = match s {
            Scenario::KvAlone => "kv_alone",
            Scenario::WithVideo => "with_video",
            Scenario::WithFlood => "with_flood",
            Scenario::WithFloodDefended => "flood_defended",
        };
        let row = Row::new()
            .both("scenario", "scenario", name)
            .both("kv_p50", "KV p50", o.kv_p50)
            .both("kv_p99", "KV p99", o.kv_p99)
            .both("kv_errors_lost", "KV errors/lost", o.kv_errors)
            .both("video_frames", "video frames", o.video_frames)
            .both("isolation_held", "data isolation", o.tenant_isolation_held);
        metrics.put(key, row.record().clone());
        rows.push(row);
    }
    let _ = writeln!(out, "{}", table(&rows));
    ExperimentReport::new(
        "E11",
        "Mutually distrusting tenants: co-location, attack, defense",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_colocation_is_cheap() {
        let alone = run_scenario(Run::EVENT, Scenario::KvAlone, 20);
        let shared = run_scenario(Run::EVENT, Scenario::WithVideo, 20);
        assert!(
            shared.kv_p50 < alone.kv_p50 * 3,
            "video neighbour tripled KV latency: {} vs {}",
            shared.kv_p50,
            alone.kv_p50
        );
        assert!(shared.video_frames > 0);
        assert!(alone.tenant_isolation_held);
    }

    #[test]
    fn flood_hurts_then_rate_limit_heals() {
        let flooded = run_scenario(Run::EVENT, Scenario::WithFlood, 20);
        let defended = run_scenario(Run::EVENT, Scenario::WithFloodDefended, 20);
        assert!(
            defended.kv_p99 < flooded.kv_p99,
            "defended {} vs flooded {}",
            defended.kv_p99,
            flooded.kv_p99
        );
        assert!(
            flooded.tenant_isolation_held,
            "badges must hold under attack"
        );
    }
}
