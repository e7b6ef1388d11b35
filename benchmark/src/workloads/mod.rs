//! The four workloads. Each builds its system, generates every input from
//! the seed, warms up, then drives a fixed amount of simulated work and
//! checks the outputs. Sizes are frozen constants (see README.md): for a
//! given seed the simulated side of a repetition repeats exactly.

pub mod board_tenants;
pub mod cluster_rpc;
pub mod faas_storm;
pub mod noc_uniform;

use crate::span::Recorder;
use crate::stats::Digest;
use apiary_cluster::ClusterSystem;
use apiary_noc::NodeId;
use std::time::Instant;

/// A named workload.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    /// Latency limit in cycles: an op that fails, is refused, or finishes
    /// over this misses the SLO. Next power of two at or above twice the
    /// seed-1 p99 when the sizes were frozen.
    pub slo_limit_cycles: u64,
    /// Runs one repetition. `shrink` divides every size (1 = the frozen
    /// size; the unit tests use 100).
    pub run: fn(seed: u64, shrink: u64, rec: &mut Recorder) -> Rep,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "noc_uniform",
        why: "raw 8x8 NoC under dense uniform traffic just below the knee: only the NoC works",
        slo_limit_cycles: 128,
        run: noc_uniform::run,
    },
    Workload {
        name: "board_tenants",
        why: "one 4x4 board with MAC, KV, video and memory tenants: core, monitor, cap, accel, mem, net work and the NoC is sparse",
        slo_limit_cycles: 1024,
        run: board_tenants::run,
    },
    Workload {
        name: "cluster_rpc",
        why: "8 lockstep boards serving open-loop echo RPC across a ToR star with periodic link cuts: cluster, net ARQ and core work",
        slo_limit_cycles: 4096,
        run: cluster_rpc::run,
    },
    Workload {
        name: "faas_storm",
        why: "4-board serverless plane under Zipf load with recurring flash crowds and cold starts: faas on top of cluster",
        slo_limit_cycles: 8192,
        run: faas_storm::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One repetition: host times plus the simulated outcome.
///
/// Both host phases are cut into slices at fixed *simulated* points, so
/// slice `i` is the same work in every repetition of a run. That lets the
/// report take, slice by slice, the fastest observation across repetitions
/// (see `report::fastest_composite`): this machine slows down by a third
/// for seconds at a time, which a median over whole repetitions cannot
/// shake off.
pub struct Rep {
    /// Build the system, generate the inputs, run the warm-up.
    pub setup_slices: Vec<f64>,
    /// The timed section: driven load plus drain.
    pub timed_slices: Vec<f64>,
    pub sim: SimOutcome,
}

/// Everything a repetition computed on the simulated clock. For a fixed
/// seed and size every field repeats exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimOutcome {
    /// Ops offered in the timed section.
    pub attempted: u64,
    /// Ops that completed successfully.
    pub ok: u64,
    /// Ops that failed or were refused.
    pub failed: u64,
    /// Latency in cycles of every ok op, ascending.
    pub latencies: Vec<u64>,
    /// Cycles from the timed start to the last completion / quiescence.
    pub sim_cycles: u64,
    /// Cycles of the driven-load window (drain excluded).
    pub load_cycles: u64,
    /// Open loops inject on the due cycle by construction; must be 0.
    pub max_inject_lag: u64,
    /// Per-layer counts read from the crates' public statistics.
    pub layer: Vec<(&'static str, f64)>,
    /// Output checks that failed. Empty on a correct run.
    pub violations: Vec<String>,
}

impl SimOutcome {
    pub fn layer_value(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// FNV over every simulated statistic and counter of the repetition.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for w in [
            self.attempted,
            self.ok,
            self.failed,
            self.sim_cycles,
            self.load_cycles,
            self.max_inject_lag,
        ] {
            d.word(w);
        }
        for &l in &self.latencies {
            d.word(l);
        }
        for (name, v) in &self.layer {
            d.bytes(name.as_bytes());
            d.word(v.to_bits());
        }
        d.value()
    }

    /// Records a failed output check.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.violations.len() < 16 {
            self.violations.push(what());
        }
    }

    /// Sorts the latencies and applies the checks every workload shares.
    pub fn finish(&mut self) {
        self.latencies.sort_unstable();
        let (attempted, ok, failed, n) = (
            self.attempted,
            self.ok,
            self.failed,
            self.latencies.len() as u64,
        );
        self.require(attempted == ok + failed, || {
            format!("conservation: attempted {attempted} != ok {ok} + failed {failed}")
        });
        self.require(ok == n, || format!("{ok} ok ops but {n} latency records"));
        let lag = self.max_inject_lag;
        self.require(lag == 0, || format!("open loop injected {lag} cycles late"));
    }
}

/// Splits one `--seed` into independent streams (splitmix64 finaliser), so
/// each generator gets its own seed and adding a stream moves no other.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stopwatch for the two host-clock phases of a repetition, cut into
/// slices. Laps must fall on the same simulated points in every repetition.
pub struct Phases {
    slice_started: Instant,
    setup: Vec<f64>,
    timed: Vec<f64>,
    in_timed: bool,
    /// Simulated cycle at which `lap_every` next cuts.
    next_mark: u64,
}

impl Phases {
    pub fn start() -> Phases {
        Phases {
            slice_started: Instant::now(),
            setup: Vec::new(),
            timed: Vec::with_capacity(128),
            in_timed: false,
            next_mark: 0,
        }
    }

    /// Ends the current slice and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        let slice = (now - self.slice_started).as_secs_f64();
        self.slice_started = now;
        if self.in_timed {
            self.timed.push(slice);
        } else {
            self.setup.push(slice);
        }
    }

    /// Cuts a slice whenever the simulated clock `now` has crossed another
    /// multiple of `every` cycles.
    #[inline]
    pub fn lap_every(&mut self, now: u64, every: u64) {
        if now >= self.next_mark {
            self.lap();
            self.next_mark = now - now % every + every;
        }
    }

    /// Ends set-up, starts the timed section.
    pub fn setup_done(&mut self) {
        self.lap();
        self.in_timed = true;
        self.next_mark = 0;
    }

    /// Ends the timed section.
    pub fn finish(mut self, sim: SimOutcome) -> Rep {
        self.lap();
        Rep {
            setup_slices: self.setup,
            timed_slices: self.timed,
            sim,
        }
    }
}

/// Every counter the cluster layer, its fabric and its boards export, as
/// one flat list: take it at the timed start, subtract at the end.
pub fn cluster_counts(c: &ClusterSystem, boards: u16) -> Vec<(&'static str, u64)> {
    let fabric = c.fabric().stats();
    let (mut hops, mut delivered, mut sent, mut received) = (0, 0, 0, 0);
    for b in 0..boards {
        let sys = c.board(b);
        hops += sys.noc().stats().flit_hops;
        delivered += sys.noc().stats().delivered;
        for n in 0..sys.noc().mesh().nodes() as u16 {
            let s = sys.tile(NodeId(n)).monitor.stats();
            sent += s.sent;
            received += s.received;
        }
    }
    vec![
        ("cluster.local_submitted", c.local_submitted),
        ("cluster.remote_submitted", c.remote_submitted),
        ("cluster.timeouts", c.timeouts),
        ("cluster.refused", c.refused),
        ("cluster.stale_replies", c.stale_replies),
        ("cluster.fabric_delivered", fabric.delivered),
        ("cluster.fabric_retransmissions", fabric.retransmissions),
        ("cluster.fabric_cut_drops", fabric.cut_drops),
        ("cluster.fabric_acks_coalesced", fabric.acks_coalesced),
        ("noc.flit_hops", hops),
        ("noc.delivered", delivered),
        ("monitor.sent", sent),
        ("monitor.received", received),
    ]
}

/// The cluster's per-layer counts over the timed section: every counter of
/// [`cluster_counts`] since `before`, the per-hop latency medians (whole
/// run: a histogram cannot be subtracted), and the board cycles simulated.
pub fn cluster_layer(
    c: &ClusterSystem,
    boards: u16,
    before: &[(&'static str, u64)],
    sim_cycles: u64,
) -> Vec<(&'static str, f64)> {
    let mut layer: Vec<(&'static str, f64)> = cluster_counts(c, boards)
        .into_iter()
        .zip(before)
        .map(|((name, after), (_, before))| (name, (after - before) as f64))
        .collect();
    layer.extend([
        (
            "cluster.fabric_out_p50_cycles",
            c.fabric_out.histogram().p50() as f64,
        ),
        (
            "cluster.on_board_p50_cycles",
            c.on_board.histogram().p50() as f64,
        ),
        (
            "cluster.fabric_back_p50_cycles",
            c.fabric_back.histogram().p50() as f64,
        ),
        ("cluster.board_cycles", (sim_cycles * boards as u64) as f64),
    ]);
    layer
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload at 1/100 size completes, conserves ops, passes its
    /// output checks and is deterministic across two in-process runs.
    #[test]
    fn small_runs_complete_conserve_and_repeat() {
        for w in &WORKLOADS {
            let a = (w.run)(3, 100, &mut Recorder::off()).sim;
            assert_eq!(a.violations, Vec::<String>::new(), "{}", w.name);
            assert!(a.attempted > 0 && a.ok > 0, "{} did no work", w.name);
            assert_eq!(a.attempted, a.ok + a.failed, "{}", w.name);
            assert_eq!(a.latencies.len() as u64, a.ok, "{}", w.name);
            assert!(
                a.sim_cycles >= a.load_cycles && a.load_cycles > 0,
                "{}",
                w.name
            );
            let b = (w.run)(3, 100, &mut Recorder::off()).sim;
            assert_eq!(a, b, "{} is not deterministic", w.name);
            assert_eq!(a.digest(), b.digest());
            let c = (w.run)(4, 100, &mut Recorder::off()).sim;
            assert_ne!(a.digest(), c.digest(), "{} ignores its seed", w.name);
        }
    }

    #[test]
    fn traced_run_matches_untraced_simulation() {
        let w = find("noc_uniform").unwrap();
        let plain = (w.run)(5, 100, &mut Recorder::off()).sim;
        let mut rec = Recorder::on(1024);
        let traced = (w.run)(5, 100, &mut rec).sim;
        assert_eq!(plain, traced);
        assert!(rec.self_seconds("noc.step") > 0.0);
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn digest_covers_layer_counts() {
        let mut a = SimOutcome {
            attempted: 2,
            ok: 2,
            latencies: vec![5, 9],
            layer: vec![("noc.flit_hops", 10.0)],
            ..SimOutcome::default()
        };
        let before = a.digest();
        a.layer[0].1 = 11.0;
        assert_ne!(before, a.digest());
    }
}
