//! E7 — Segments vs pages for FPGA memory isolation (§4.6).
//!
//! The paper's claim: segments with capabilities beat paging for Apiary's
//! needs — arbitrary allocation sizes (no stranding/rounding waste) and a
//! one-cycle bounds check instead of TLB + page walks. This experiment runs
//! the same allocation/access trace through four designs:
//!
//! - segment allocator, first-fit and best-fit,
//! - buddy allocator (power-of-two segments),
//! - a paged MMU at 4 KiB and at 2 MiB pages (with a 32-entry TLB).
//!
//! Reported: success rate, wasted bytes (internal fragmentation +
//! unusable-free stranding), and mean translation/check latency under a
//! working set larger than the TLB reach.

use crate::harness::Run;
use crate::report::{rows_json, table, ExperimentReport, Json, Row};
use apiary_cap::MemRange;
use apiary_mem::{AllocPolicy, BuddyAllocator, PagedMmu, SegmentAllocator};
use apiary_sim::SimRng;
use core::fmt::Write;

const CAPACITY: u64 = 64 << 20;

/// A mixed allocation-size distribution modelled on accelerator buffers:
/// mostly small descriptors, some frame-sized buffers, occasional large
/// model/table regions — with sizes that are *not* page multiples.
fn sample_size(rng: &mut SimRng) -> u64 {
    match rng.gen_range(10) {
        0..=3 => rng.gen_range_inclusive(64, 4096), // Descriptors.
        4..=7 => rng.gen_range_inclusive(10_000, 300_000), // Frames.
        _ => rng.gen_range_inclusive(1 << 20, 6 << 20), // Models.
    }
}

#[derive(Debug, Default)]
struct Outcome {
    attempts: u64,
    failures: u64,
    requested_live: u64,
    physical_live: u64,
    /// Mean cycles per access check/translation.
    access_cycles: f64,
}

trait Arena {
    fn alloc(&mut self, len: u64) -> Option<MemRange>;
    fn free(&mut self, r: MemRange);
    fn physical_live(&self) -> u64;
    /// Cycles to validate/translate one access at `addr` within a live
    /// allocation.
    fn access(&mut self, r: &MemRange, off: u64) -> u64;
}

struct SegArena(SegmentAllocator);

impl Arena for SegArena {
    fn alloc(&mut self, len: u64) -> Option<MemRange> {
        self.0.alloc(len).ok()
    }
    fn free(&mut self, r: MemRange) {
        self.0.free(r).expect("live");
    }
    fn physical_live(&self) -> u64 {
        self.0.stats().used
    }
    fn access(&mut self, _r: &MemRange, _off: u64) -> u64 {
        // Base + bounds comparators: single cycle, always.
        1
    }
}

struct BuddyArena(BuddyAllocator);

impl Arena for BuddyArena {
    fn alloc(&mut self, len: u64) -> Option<MemRange> {
        self.0.alloc(len).ok()
    }
    fn free(&mut self, r: MemRange) {
        self.0.free(r).expect("live");
    }
    fn physical_live(&self) -> u64 {
        self.0.total() - self.0.free_bytes()
    }
    fn access(&mut self, _r: &MemRange, _off: u64) -> u64 {
        1
    }
}

struct PageArena(PagedMmu);

impl Arena for PageArena {
    fn alloc(&mut self, len: u64) -> Option<MemRange> {
        self.0.map(len).ok()
    }
    fn free(&mut self, r: MemRange) {
        self.0.unmap(r).expect("live");
    }
    fn physical_live(&self) -> u64 {
        self.0.mapped_bytes()
    }
    fn access(&mut self, r: &MemRange, off: u64) -> u64 {
        let (_pa, lat) = self
            .0
            .translate(r.base + off % r.len.max(1))
            .expect("mapped");
        lat
    }
}

fn run_trace(arena: &mut dyn Arena, ops: u64, seed: u64) -> Outcome {
    let mut rng = SimRng::new(seed);
    // (granted range, bytes actually requested) — the buddy allocator
    // hands back rounded ranges, so the request size must be tracked
    // separately to account waste honestly.
    let mut live: Vec<(MemRange, u64)> = Vec::new();
    let mut o = Outcome::default();
    let mut access_total = 0u64;
    let mut accesses = 0u64;
    for _ in 0..ops {
        // 55% alloc / 45% free keeps pressure rising toward capacity.
        if live.is_empty() || rng.gen_bool(0.55) {
            let len = sample_size(&mut rng);
            o.attempts += 1;
            match arena.alloc(len) {
                Some(r) => live.push((r, len)),
                None => o.failures += 1,
            }
        } else {
            let i = rng.gen_range(live.len() as u64) as usize;
            let (r, _) = live.swap_remove(i);
            arena.free(r);
        }
        // Touch a few random live allocations (working set > TLB reach).
        for _ in 0..4 {
            if live.is_empty() {
                break;
            }
            let (r, _) = live[rng.gen_range(live.len() as u64) as usize];
            access_total += arena.access(&r, rng.gen_range(r.len.max(1)));
            accesses += 1;
        }
    }
    o.requested_live = live.iter().map(|(_, req)| req).sum();
    o.physical_live = arena.physical_live();
    o.access_cycles = access_total as f64 / accesses.max(1) as f64;
    o
}

/// Runs the experiment; returns the structured report.
pub fn report(_run: Run) -> ExperimentReport {
    let ops = 20_000;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E7: Segments vs pages — {} alloc/free/access operations over a {} MiB arena\n",
        ops,
        CAPACITY >> 20
    );
    let designs: Vec<(&str, Box<dyn Arena>)> = vec![
        (
            "segments, first-fit",
            Box::new(SegArena(SegmentAllocator::new(
                CAPACITY,
                AllocPolicy::FirstFit,
            ))),
        ),
        (
            "segments, best-fit",
            Box::new(SegArena(SegmentAllocator::new(
                CAPACITY,
                AllocPolicy::BestFit,
            ))),
        ),
        (
            "buddy (pow2 segments)",
            Box::new(BuddyArena(BuddyAllocator::new(256, 18))), // 64 MiB.
        ),
        (
            "paging, 4 KiB + TLB32",
            Box::new(PageArena(PagedMmu::new(4096, CAPACITY / 4096, 32, 60))),
        ),
        (
            "paging, 2 MiB + TLB32",
            Box::new(PageArena(PagedMmu::new(
                2 << 20,
                CAPACITY / (2 << 20),
                32,
                60,
            ))),
        ),
    ];
    let mut rows = Vec::new();
    for (name, mut arena) in designs {
        let o = run_trace(arena.as_mut(), ops, 1234);
        let waste = o.physical_live.saturating_sub(o.requested_live);
        let physical = o.physical_live.max(1) as f64;
        rows.push(
            Row::new()
                .both("design", "design", name)
                .json("alloc_failures", o.failures)
                .cell(
                    "attempts",
                    "alloc failures",
                    o.attempts,
                    format!("{} / {}", o.failures, o.attempts),
                )
                .cell(
                    "waste_bytes",
                    "waste (phys-req)",
                    waste,
                    format!("{} KiB", waste >> 10),
                )
                .pct("waste_share", "waste %", waste as f64 / physical)
                .fixed(
                    "access_cycles_mean",
                    "access cyc (mean)",
                    o.access_cycles,
                    2,
                ),
        );
    }
    let _ = writeln!(out, "{}", table(&rows));
    let metrics = Json::obj()
        .set("ops", ops)
        .set("arena_mib", CAPACITY >> 20)
        .set("designs", rows_json(&rows));
    ExperimentReport::new(
        "E7",
        "Segments vs pages: waste and translation latency",
        0,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_have_zero_waste_and_unit_access() {
        let mut a = SegArena(SegmentAllocator::new(CAPACITY, AllocPolicy::FirstFit));
        let o = run_trace(&mut a, 1_000, 7);
        assert_eq!(o.physical_live, o.requested_live);
        assert_eq!(o.access_cycles, 1.0);
    }

    #[test]
    fn paging_wastes_and_slows() {
        let mut seg = SegArena(SegmentAllocator::new(CAPACITY, AllocPolicy::FirstFit));
        let s = run_trace(&mut seg, 1_000, 7);
        let mut pg = PageArena(PagedMmu::new(4096, CAPACITY / 4096, 32, 60));
        let p = run_trace(&mut pg, 1_000, 7);
        assert!(p.physical_live > p.requested_live, "pages round up");
        assert!(p.access_cycles > s.access_cycles, "TLB misses cost");
    }

    #[test]
    fn huge_pages_waste_more() {
        let mut p4 = PageArena(PagedMmu::new(4096, CAPACITY / 4096, 32, 60));
        let a = run_trace(&mut p4, 1_000, 7);
        let mut p2m = PageArena(PagedMmu::new(2 << 20, CAPACITY / (2 << 20), 32, 60));
        let b = run_trace(&mut p2m, 1_000, 7);
        let waste4 = a.physical_live - a.requested_live;
        let waste2m = b.physical_live.saturating_sub(b.requested_live);
        // Huge pages either waste far more physical memory or fail far
        // more allocations (capacity exhausted by rounding).
        assert!(waste2m > waste4 || b.failures > a.failures * 2);
    }
}
