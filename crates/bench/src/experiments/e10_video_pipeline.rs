//! E10 — The §2 video pipeline: composition and scale-out.
//!
//! Frames flow ingress -> video encoder -> third-party compressor ->
//! egress, entirely over capabilities (the compressor knows nothing about
//! video, the encoder nothing about compression). We then replicate the
//! pipeline to show the §3 scalability goal: adding encoder/compressor
//! pairs scales throughput without touching either accelerator's code —
//! the kernel just wires more tiles.
//!
//! Every frame is verified end-to-end: decompress + decode must equal the
//! original (lossless settings), so throughput numbers are for real work.

use crate::harness::Run;
use crate::report::{ExperimentReport, Json};
use crate::scenarios::{drive, MonitorClient};
use crate::table::TextTable;
use apiary_accel::apps::compress::compressor;
use apiary_accel::apps::video::{encode_request, video_encoder};
use apiary_accel::codec::{lz, video};
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_noc::{NocConfig, NodeId};
use core::fmt::Write;

const FRAME_W: u32 = 48;
const FRAME_H: u32 = 32;

struct PipelineRun {
    frames: u64,
    cycles: u64,
    bytes_in: u64,
    bytes_out: u64,
    verified: bool,
}

/// Builds `replicas` parallel encoder->compressor lanes on a 4x4 mesh and
/// pushes `frames` frames through them round-robin from one ingress tile.
fn run_pipeline(run: Run, replicas: usize, frames: u64) -> PipelineRun {
    assert!(replicas <= 4, "a 4x4 mesh fits four lanes");
    let cfg = SystemConfig {
        noc: NocConfig::soft(4, 4),
        ..SystemConfig::default()
    };
    let mut sys = run.system(cfg);
    let ingress = NodeId(0);
    sys.install(
        ingress,
        Box::new(apiary_accel::apps::idle::idle()),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    // Lane i: encoder at row i+... place encoder and compressor adjacent.
    let mut lane_caps = Vec::new();
    for i in 0..replicas {
        let enc = NodeId((1 + i * 2) as u16);
        let comp = NodeId((2 + i * 2) as u16);
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
        let to_enc = sys.connect(ingress, enc, false).expect("same app");
        sys.connect_env(enc, comp, "next", false).expect("same app");
        sys.connect_env(comp, ingress, "next", false)
            .expect("same app");
        lane_caps.push(to_enc);
    }

    // Round-robin the frames over lanes: one MonitorClient per lane, each
    // getting an equal share and a distinct tag namespace.
    let share = frames / replicas as u64;
    let mut clients: Vec<MonitorClient> = lane_caps
        .iter()
        .enumerate()
        .map(|(i, &cap)| {
            let mut c = MonitorClient::with_payload(
                ingress,
                cap,
                Box::new(move |tag| {
                    let frame = video::Frame::test_pattern(FRAME_W, FRAME_H, tag);
                    encode_request(&frame)
                }),
            )
            .window(2)
            .max_requests(share)
            .keep_responses(4);
            c.tag_base = (i as u64) << 48;
            c
        })
        .collect();

    let mut lanes: Vec<&mut MonitorClient> = clients.iter_mut().collect();
    let cycles = drive(&mut sys, &mut lanes, 500_000_000);
    // Verify kept responses decode back to the original frames.
    let mut verified = true;
    let mut bytes_out = 0u64;
    let mut done_frames = 0u64;
    for c in &clients {
        assert!(c.done(), "pipeline stalled");
        done_frames += c.completed - c.errors;
        for (tag, compressed) in &c.kept {
            bytes_out += compressed.len() as u64;
            let stream = lz::decompress(compressed).expect("compressor output");
            let frame = video::decode(&stream).expect("encoder output");
            let original = video::Frame::test_pattern(FRAME_W, FRAME_H, *tag);
            if frame != original {
                verified = false;
            }
        }
    }
    PipelineRun {
        frames: done_frames,
        cycles,
        bytes_in: done_frames * (FRAME_W as u64 * FRAME_H as u64),
        bytes_out,
        verified,
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let frames: u64 = 64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E10: Video pipeline (encode -> third-party compress) and scale-out\n\
         ({}x{} frames, lossless settings, every kept frame verified end-to-end)\n",
        FRAME_W, FRAME_H
    );
    let mut t = TextTable::new(&[
        "lanes",
        "frames",
        "cycles",
        "frames / Mcycle",
        "speedup",
        "verified",
    ]);
    let mut base = 0.0;
    let mut sim_cycles = 0u64;
    let mut all_verified = true;
    let mut speedup4 = 0.0;
    for replicas in [1usize, 2, 4] {
        let r = run_pipeline(run, replicas, frames);
        sim_cycles += r.cycles;
        all_verified &= r.verified;
        let fpm = r.frames as f64 / r.cycles as f64 * 1e6;
        if replicas == 1 {
            base = fpm;
        }
        if replicas == 4 {
            speedup4 = fpm / base;
        }
        t.row(&[
            replicas.to_string(),
            r.frames.to_string(),
            r.cycles.to_string(),
            format!("{fpm:.1}"),
            format!("{:.2}x", fpm / base),
            r.verified.to_string(),
        ]);
        let _ = (r.bytes_in, r.bytes_out);
    }
    let _ = writeln!(out, "{}", t.render());
    let metrics = Json::obj()
        .set("frames_per_lane_run", frames)
        .set("frames_per_mcycle_1lane", (base * 10.0).round() / 10.0)
        .set("speedup_4lane", (speedup4 * 100.0).round() / 100.0)
        .set("all_verified", all_verified);
    ExperimentReport::new(
        "E10",
        "Video pipeline composition and scale-out, verified losslessly",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_verifies_end_to_end() {
        let r = run_pipeline(Run::EVENT, 1, 4);
        assert_eq!(r.frames, 4);
        assert!(r.verified, "frame corrupted in flight");
        assert!(r.bytes_out > 0);
    }

    #[test]
    fn two_lanes_beat_one() {
        let one = run_pipeline(Run::EVENT, 1, 8);
        let two = run_pipeline(Run::EVENT, 2, 8);
        let f1 = one.frames as f64 / one.cycles as f64;
        let f2 = two.frames as f64 / two.cycles as f64;
        assert!(f2 > f1 * 1.3, "1 lane {f1:.2e}, 2 lanes {f2:.2e}");
    }
}
