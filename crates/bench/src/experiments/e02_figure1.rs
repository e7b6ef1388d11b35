//! E2 — Figure 1: Apiary's architecture, instantiated.
//!
//! The paper's Figure 1 shows two applications, each of several
//! accelerators, on a mesh of tiles where every tile holds a NoC router, a
//! trusted monitor, and an untrusted accelerator slot. This experiment
//! builds exactly that configuration, renders the tile map, and audits the
//! properties the figure caption claims: monitors and routers on every
//! tile, per-application capability wiring, and no authority between the
//! two applications.

use crate::harness::Run;
use crate::report::{ExperimentReport, Json};
use apiary_accel::apps::compress::compressor;
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv::kv_store;
use apiary_accel::apps::video::video_encoder;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_noc::NodeId;
use core::fmt::Write;

/// Builds the Figure-1 configuration: application 1 is the §2 video
/// pipeline (ingress + encoder + compressor), application 2 is an
/// independent KV store with its own client. Returns the system.
pub fn build(run: Run) -> System {
    let mut sys = run.system(SystemConfig::default());
    // Application 1: video pipeline across three tiles.
    let ingress = NodeId(0);
    let enc = NodeId(1);
    let comp = NodeId(2);
    sys.install(ingress, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        enc,
        Box::new(video_encoder(0)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        comp,
        Box::new(compressor()),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.connect(ingress, enc, false).expect("same app");
    sys.connect_env(enc, comp, "next", false).expect("same app");
    sys.connect_env(comp, ingress, "next", false)
        .expect("same app");
    sys.grant_memory(enc, 1 << 20).expect("space");

    // Application 2: a KV store and its client, elsewhere on the mesh.
    let kv_client = NodeId(8);
    let kv = NodeId(9);
    sys.install(kv_client, Box::new(idle()), AppId(2), FaultPolicy::Preempt)
        .expect("free");
    sys.install(kv, Box::new(kv_store()), AppId(2), FaultPolicy::Preempt)
        .expect("free");
    sys.connect_badged(kv_client, kv, 0xA11CE, false)
        .expect("same app");
    sys.connect(kv, kv_client, false).expect("reply path");
    sys.grant_memory(kv, 1 << 20).expect("space");
    sys
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let sys = build(run);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E2 / Figure 1: Apiary architecture — two applications on a 4x4 mesh\n"
    );
    out.push_str(&sys.render_map());

    let _ = writeln!(out, "\nCapability audit (who can talk to whom):");
    let mesh = sys.noc().mesh();
    let mut cross_app_caps = 0u64;
    let mut endpoint_caps = 0u64;
    for i in 0..mesh.nodes() {
        let node = NodeId(i as u16);
        let tile = sys.tile(node);
        let Some(app) = tile.app else { continue };
        for (_, cap) in tile.monitor.caps().iter_live() {
            if let apiary_cap::CapKind::Endpoint(e) = cap.kind {
                endpoint_caps += 1;
                let peer = NodeId(e.0 as u16);
                let peer_app = sys.tile(peer).app;
                let _ = writeln!(
                    out,
                    "  {node} ({app}) --SEND--> {peer} ({})",
                    peer_app.map(|a| a.to_string()).unwrap_or_default()
                );
                let os_app = apiary_core::process::OS_APP;
                if peer_app != Some(app) && peer_app != Some(os_app) && app != os_app {
                    cross_app_caps += 1;
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "\nCross-application endpoint capabilities (must be 0): {cross_app_caps}"
    );
    let _ = writeln!(
        out,
        "Every tile carries a monitor + router in the static region; \
         accelerator slots are dynamically reconfigurable."
    );
    let metrics = Json::obj()
        .set("mesh_nodes", mesh.nodes())
        .set("endpoint_caps", endpoint_caps)
        .set("cross_app_caps", cross_app_caps);
    ExperimentReport::new(
        "E2",
        "Figure 1: the Apiary architecture, instantiated and audited",
        sys.now().as_u64(),
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_sim::Machine;

    #[test]
    fn no_cross_app_authority() {
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }

    #[test]
    fn built_system_runs() {
        let mut sys = build(Run::EVENT);
        sys.run(100);
        assert_eq!(sys.now().as_u64(), 100);
    }
}
