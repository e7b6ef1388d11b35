//! E15 — Memory-service characterization.
//!
//! Every §2 scenario leans on the shared memory service; this experiment
//! measures what an accelerator actually gets from it: read bandwidth and
//! latency as a function of access pattern (sequential / strided / random)
//! and of outstanding requests, plus the DRAM row-buffer behaviour behind
//! the numbers. The architectural claim being checked: the message-passing
//! path to memory (monitor check -> NoC -> DRAM -> NoC) pipelines — an
//! accelerator that keeps requests in flight hides most of the round trip.

use crate::harness::Run;
use crate::report::{ExperimentReport, Json};
use crate::table::TextTable;
use apiary_accel::apps::idle::idle;
use apiary_cap::CapRef;
use apiary_core::memsvc::MemoryService;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_mem::AccessKind;
use apiary_monitor::{wire, SendError};
use apiary_noc::NodeId;
use apiary_sim::{until, Cycle, Load, Machine, SimRng};
use core::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    Sequential,
    Strided,
    Random,
}

impl Pattern {
    fn name(&self) -> &'static str {
        match self {
            Pattern::Sequential => "sequential",
            Pattern::Strided => "strided (8 KiB)",
            Pattern::Random => "random",
        }
    }

    fn offset(&self, i: u64, span: u64, read: u64, rng: &mut SimRng) -> u64 {
        match self {
            Pattern::Sequential => (i * read) % (span - read),
            Pattern::Strided => (i * 8192) % (span - read),
            Pattern::Random => rng.gen_range(span - read),
        }
    }
}

struct Outcome {
    bytes_per_cycle: f64,
    mean_latency: f64,
    row_hit_pct: f64,
    cycles: u64,
}

const CLIENT: NodeId = NodeId(0);
const SPAN: u64 = 4 << 20;
const READ: u64 = 1024;

/// The driver tile's reads, the board's [`Load`]: `count` reads of `READ`
/// bytes, up to `window` of them in flight.
struct Reads {
    pattern: Pattern,
    window: usize,
    count: u64,
    mem_cap: CapRef,
    svc: CapRef,
    rng: SimRng,
    issued: u64,
    replied: u64,
    /// Reply cycles less send cycles, summed: the total latency once every
    /// read is back (wrapping while some are out).
    latency_sum: u64,
}

impl Reads {
    fn window_open(&self) -> bool {
        self.issued - self.replied < self.window as u64 && self.issued < self.count
    }
}

impl Load<System> for Reads {
    /// A refused read is retried next cycle; a full window waits for a
    /// reply, which only a step's kernel phases can deliver.
    fn next_wakeup(&self, sys: &System) -> Cycle {
        if self.window_open() {
            sys.now().saturating_add(1)
        } else {
            Cycle::MAX
        }
    }

    /// Collects the replies, then refills the window.
    fn pump(&mut self, sys: &mut System) {
        let now = sys.now();
        while let Some(d) = sys.tile_mut(CLIENT).monitor.recv() {
            assert_eq!(d.msg.kind, wire::KIND_MEM_REPLY);
            assert_eq!(d.msg.payload.len() as u64, READ);
            assert!(d.msg.tag < self.issued, "a reply to a read never sent");
            self.replied += 1;
            self.latency_sum = self.latency_sum.wrapping_add(now.as_u64());
        }
        while self.window_open() {
            let off = self.pattern.offset(self.issued, SPAN, READ, &mut self.rng);
            match sys.tile_mut(CLIENT).monitor.send_mem(
                self.mem_cap,
                self.svc,
                AccessKind::Read,
                off,
                READ,
                &[],
                self.issued,
                now,
            ) {
                Ok(()) => {
                    self.latency_sum = self.latency_sum.wrapping_sub(now.as_u64());
                    self.issued += 1;
                }
                Err(SendError::Backpressure) => break,
                Err(e) => panic!("mem read refused: {e}"),
            }
        }
    }
}

/// Issues `count` reads of `READ` bytes with `window` outstanding from a
/// driver tile, returns achieved bandwidth and latency.
fn measure(run: Run, pattern: Pattern, window: usize, count: u64) -> Outcome {
    let mut sys = run.system(SystemConfig::default());
    sys.install(CLIENT, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    let mut reads = Reads {
        pattern,
        window,
        count,
        mem_cap: sys.grant_memory(CLIENT, SPAN).expect("space"),
        svc: sys.tile(CLIENT).env.get("mem-service").expect("wired"),
        rng: SimRng::new(42),
        issued: 0,
        replied: 0,
        latency_sum: 0,
    };
    let start = sys.now();
    // The first reads go out before the first step.
    reads.pump(&mut sys);
    let done = sys.drive(&mut reads, 200_000_000, |_, r| until(r.replied == count));
    assert!(done, "memory run stalled");
    let cycles = (sys.now() - start).max(1);
    let memsvc = sys
        .accel_as::<MemoryService>(sys.mem_node())
        .expect("boot service");
    let (hits, misses, conflicts) = memsvc.dram_stats();
    Outcome {
        bytes_per_cycle: (count * READ) as f64 / cycles as f64,
        mean_latency: reads.latency_sum as f64 / count as f64,
        row_hit_pct: 100.0 * hits as f64 / (hits + misses + conflicts).max(1) as f64,
        cycles,
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let count = 300;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E15: Memory service characterization (1 KiB reads over a 4 MiB segment)\n"
    );
    let mut t = TextTable::new(&[
        "pattern",
        "outstanding",
        "bandwidth (B/cyc)",
        "mean latency (cyc)",
        "DRAM row hits",
    ]);
    let windows: &[usize] = &[1, 2, 4, 8];
    let mut sim_cycles = 0u64;
    let mut peak_bw = 0.0f64;
    let mut seq_row_hits = 0.0;
    for pattern in [Pattern::Sequential, Pattern::Strided, Pattern::Random] {
        for &w in windows {
            let o = measure(run, pattern, w, count);
            sim_cycles += o.cycles;
            peak_bw = peak_bw.max(o.bytes_per_cycle);
            if pattern == Pattern::Sequential && w == *windows.last().unwrap() {
                seq_row_hits = o.row_hit_pct;
            }
            t.row(&[
                pattern.name().to_string(),
                w.to_string(),
                format!("{:.2}", o.bytes_per_cycle),
                format!("{:.0}", o.mean_latency),
                format!("{:.0}%", o.row_hit_pct),
            ]);
        }
    }
    let _ = writeln!(out, "{}", t.render());
    let metrics = Json::obj()
        .set("reads_per_point", count)
        .set("peak_bytes_per_cycle", (peak_bw * 100.0).round() / 100.0)
        .set("seq_row_hit_pct", (seq_row_hits * 10.0).round() / 10.0);
    ExperimentReport::new(
        "E15",
        "Memory-service bandwidth, latency, and DRAM row behaviour",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_pipelines_bandwidth() {
        let one = measure(Run::EVENT, Pattern::Sequential, 1, 30);
        let eight = measure(Run::EVENT, Pattern::Sequential, 8, 30);
        // The ceiling is the NoC's reply serialisation (~16 B/cycle for
        // 16 B flits on one ejection port); window 8 should reach it.
        assert!(
            eight.bytes_per_cycle > one.bytes_per_cycle * 1.5,
            "window 8 {:.2} vs window 1 {:.2}",
            eight.bytes_per_cycle,
            one.bytes_per_cycle
        );
        assert!(eight.bytes_per_cycle > 14.0, "{:.2}", eight.bytes_per_cycle);
    }

    #[test]
    fn sequential_beats_random_on_row_hits() {
        let seq = measure(Run::EVENT, Pattern::Sequential, 4, 30);
        let rand = measure(Run::EVENT, Pattern::Random, 4, 30);
        assert!(
            seq.row_hit_pct > rand.row_hit_pct,
            "seq {:.0}% vs random {:.0}%",
            seq.row_hit_pct,
            rand.row_hit_pct
        );
    }
}
