//! `noc_uniform`: the raw 8×8 soft NoC under dense uniform-random traffic.
//!
//! Open loop at a fixed Bernoulli rate just under the knee (0.10 already
//! rejects 0.4 % of injections and doubles p99). The NoC does all the work;
//! monitor, cap, net, cluster and faas do none, so NoC data-layout and
//! flit-train work must show here and nowhere else. `board_tenants` uses the
//! same layer the opposite way (sparse, idle-skipping).

use super::{derive_seed, Phases, Rep, SimOutcome};
use crate::span::Recorder;
use apiary_noc::{InjectError, Message, Noc, NocConfig, NodeId, TrafficClass};
use apiary_sim::{Payload, SimRng};

const MESH: u8 = 8;
/// Messages per node per cycle.
const RATE: f64 = 0.08;
/// Share of 64 B (5-flit) messages; the rest are 8 B (2 flits).
const BIG_SHARE: f64 = 0.20;
const SMALL_BYTES: usize = 8;
const BIG_BYTES: usize = 64;
/// Warm-up cycles of the same load: the mesh reaches steady occupancy.
const WARM_CYCLES: u64 = 40_000;
/// Driven-load cycles of the timed section.
const LOAD_CYCLES: u64 = 160_000;
const DRAIN_LIMIT: u64 = 1_000_000;
/// Host-time slice length in cycles (see `Phases`).
const SLICE_CYCLES: u64 = 2_000;
/// Tag of warm-up messages; timed messages carry their schedule index.
const WARM_TAG: u64 = u64::MAX;

/// One scheduled injection.
#[derive(Clone, Copy)]
struct Inject {
    src: u8,
    dst: u8,
    big: bool,
}

/// The injection schedule: `per_cycle[c]..per_cycle[c + 1]` indexes the
/// injections due on cycle `c`.
struct Schedule {
    injects: Vec<Inject>,
    per_cycle: Vec<u32>,
}

fn schedule(rng: &mut SimRng, cycles: u64, nodes: u64) -> Schedule {
    let mut injects = Vec::with_capacity((cycles as f64 * nodes as f64 * RATE * 1.05) as usize);
    let mut per_cycle = Vec::with_capacity(cycles as usize + 1);
    for _ in 0..cycles {
        per_cycle.push(injects.len() as u32);
        for src in 0..nodes {
            if rng.gen_bool(RATE) {
                // Uniform over the other nodes.
                let dst = (src + 1 + rng.gen_range(nodes - 1)) % nodes;
                injects.push(Inject {
                    src: src as u8,
                    dst: dst as u8,
                    big: rng.gen_bool(BIG_SHARE),
                });
            }
        }
    }
    per_cycle.push(injects.len() as u32);
    Schedule { injects, per_cycle }
}

struct Driver {
    noc: Noc,
    nodes: u16,
    small: Payload,
    big: Payload,
    out: SimOutcome,
}

impl Driver {
    /// Offers every injection due this cycle. `base` is the schedule index
    /// of the first one, or `None` during warm-up.
    fn inject(&mut self, due: &[Inject], base: Option<u64>) {
        for (i, inj) in due.iter().enumerate() {
            let payload = if inj.big { &self.big } else { &self.small };
            let mut msg = Message::new(
                NodeId(inj.src as u16),
                NodeId(inj.dst as u16),
                TrafficClass::Request,
                payload.clone(),
            );
            msg.tag = base.map_or(WARM_TAG, |b| b + i as u64);
            let res = self.noc.try_inject(NodeId(inj.src as u16), msg);
            if base.is_some() {
                self.out.attempted += 1;
                match res {
                    Ok(_) => {}
                    // Open loop: a refused injection is a failed op, no retry.
                    Err(InjectError::QueueFull) => self.out.failed += 1,
                    Err(e) => self.out.require(false, || format!("inject refused: {e}")),
                }
            }
        }
    }

    /// Takes every delivered message and checks the timed ones.
    fn eject(&mut self, timed: &[Inject]) {
        for n in 0..self.nodes {
            let node = NodeId(n);
            while let Some(d) = self.noc.poll_eject(node) {
                if d.msg.tag == WARM_TAG {
                    continue;
                }
                let want = timed[d.msg.tag as usize];
                let bytes = if want.big { BIG_BYTES } else { SMALL_BYTES };
                let right = d.msg.dst == node
                    && want.dst as u16 == n
                    && want.src as u16 == d.msg.src.0
                    && d.msg.payload.len() == bytes;
                self.out.require(right, || format!("misdelivered: {d}"));
                self.out.ok += 1;
                self.out.latencies.push(d.latency());
            }
        }
    }
}

pub fn run(seed: u64, shrink: u64, rec: &mut Recorder) -> Rep {
    let mut phases = Phases::start();
    let warm_cycles = WARM_CYCLES / shrink;
    let load_cycles = LOAD_CYCLES / shrink;

    // Set-up: build, generate the whole schedule, warm up.
    let noc = Noc::new(NocConfig::soft(MESH, MESH));
    let nodes = noc.mesh().nodes() as u16;
    let mut rng = SimRng::new(derive_seed(seed, 0));
    let warm = schedule(&mut rng, warm_cycles, nodes as u64);
    let timed = schedule(&mut rng, load_cycles, nodes as u64);
    phases.lap();
    let mut d = Driver {
        noc,
        nodes,
        small: vec![0xA5; SMALL_BYTES].into(),
        big: vec![0x5A; BIG_BYTES].into(),
        out: SimOutcome {
            latencies: Vec::with_capacity(timed.injects.len()),
            ..SimOutcome::default()
        },
    };
    for c in 0..warm_cycles as usize {
        phases.lap_every(c as u64, SLICE_CYCLES);
        let due = &warm.injects[warm.per_cycle[c] as usize..warm.per_cycle[c + 1] as usize];
        d.inject(due, None);
        d.noc.step();
        d.eject(&timed.injects);
    }
    let before = d.noc.stats().clone();
    phases.setup_done();

    // Timed: the driven load, then drain to quiescence.
    let root = rec.start("bench.driver");
    for c in 0..load_cycles as usize {
        phases.lap_every(c as u64, SLICE_CYCLES);
        let (lo, hi) = (timed.per_cycle[c] as usize, timed.per_cycle[c + 1] as usize);
        let s = rec.start("noc.inject");
        d.inject(&timed.injects[lo..hi], Some(lo as u64));
        rec.end(s);
        let s = rec.start("noc.step");
        d.noc.step();
        rec.end(s);
        let s = rec.start("noc.eject");
        d.eject(&timed.injects);
        rec.end(s);
    }
    let mut drained = 0;
    while d.noc.pending() > 0 && drained < DRAIN_LIMIT {
        let s = rec.start("noc.step");
        d.noc.step();
        rec.end(s);
        let s = rec.start("noc.eject");
        d.eject(&timed.injects);
        rec.end(s);
        drained += 1;
    }
    rec.end(root);

    let Driver { noc, mut out, .. } = d;
    let after = noc.stats();
    out.sim_cycles = after.cycles - before.cycles;
    out.load_cycles = load_cycles;
    let pending = noc.pending();
    out.require(pending == 0, || {
        format!("{pending} messages still in flight after drain")
    });
    out.layer = vec![
        ("noc.flit_hops", (after.flit_hops - before.flit_hops) as f64),
        ("noc.delivered", (after.delivered - before.delivered) as f64),
        (
            "noc.inject_rejected",
            (after.rejected - before.rejected) as f64,
        ),
        ("noc.dropped", (after.dropped() - before.dropped()) as f64),
        (
            "noc.link_util_max",
            noc.link_utilization().first().map_or(0.0, |l| l.2),
        ),
        ("noc.latency_p99_cycles", after.latency.p99() as f64),
    ];
    out.finish();
    phases.finish(out)
}
