//! Property-based tests for the memory allocators.
//!
//! Invariants:
//!
//! 1. Live segments never overlap and always lie inside the arena.
//! 2. Free/used byte accounting is exact under any alloc/free interleaving.
//! 3. Freeing everything returns the allocator to one fully coalesced block.
//! 4. The buddy allocator's blocks are aligned to their size.
//! 5. The segment allocator keeps its own law
//!    (`SegmentAllocator::check_invariants`) after every op.

use apiary_cap::MemRange;
use apiary_mem::{AllocPolicy, BuddyAllocator, PagedMmu, SegmentAllocator};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    Free(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..5000).prop_map(Op::Alloc),
            any::<usize>().prop_map(Op::Free),
        ],
        1..80,
    )
}

fn check_no_overlap(live: &[MemRange], total: u64) {
    for (i, a) in live.iter().enumerate() {
        assert!(a.end() <= total, "{a} escapes arena");
        for b in live.iter().skip(i + 1) {
            assert!(!a.overlaps(b), "{a} overlaps {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segment_allocator_invariants(ops in arb_ops(), best_fit in any::<bool>()) {
        let total = 64 * 1024u64;
        let policy = if best_fit { AllocPolicy::BestFit } else { AllocPolicy::FirstFit };
        let mut a = SegmentAllocator::new(total, policy);
        let mut live: Vec<MemRange> = Vec::new();
        let mut used = 0u64;

        for op in ops {
            match op {
                Op::Alloc(len) => {
                    if let Ok(seg) = a.alloc(len) {
                        prop_assert_eq!(seg.len, len);
                        live.push(seg);
                        used += len;
                    }
                }
                Op::Free(i) => {
                    if live.is_empty() { continue; }
                    let seg = live.swap_remove(i % live.len());
                    a.free(seg).expect("live segment must free");
                    used -= seg.len;
                }
            }
            check_no_overlap(&live, total);
            prop_assert_eq!(a.check_invariants(), Ok(()));
            let st = a.stats();
            prop_assert_eq!(st.used, used);
            prop_assert_eq!(st.free, total - used);
            prop_assert_eq!(st.live_segments, live.len());
        }

        // Drain everything: one coalesced block remains.
        for seg in live.drain(..) {
            a.free(seg).expect("live");
        }
        let st = a.stats();
        prop_assert_eq!(st.free, total);
        prop_assert_eq!(st.free_blocks, 1);
        prop_assert!(st.external_fragmentation.abs() < 1e-12);
    }

    #[test]
    fn buddy_allocator_invariants(ops in arb_ops()) {
        let mut b = BuddyAllocator::new(64, 10); // 64 KiB arena.
        let total = b.total();
        let mut live: Vec<MemRange> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(len) => {
                    if let Ok(seg) = b.alloc(len) {
                        prop_assert!(seg.len >= len);
                        prop_assert!(seg.len.is_power_of_two());
                        // Buddy blocks are naturally aligned to their size.
                        prop_assert_eq!(seg.base % seg.len, 0);
                        live.push(seg);
                    }
                }
                Op::Free(i) => {
                    if live.is_empty() { continue; }
                    let seg = live.swap_remove(i % live.len());
                    b.free(seg).expect("live block must free");
                }
            }
            check_no_overlap(&live, total);
            let allocated: u64 = live.iter().map(|s| s.len).sum();
            prop_assert_eq!(b.free_bytes(), total - allocated);
        }

        for seg in live.drain(..) {
            b.free(seg).expect("live");
        }
        prop_assert_eq!(b.free_bytes(), total);
        // Fully merged: the whole arena is allocatable again.
        prop_assert!(b.alloc(total).is_ok());
    }

    #[test]
    fn paging_accounting_is_exact(ops in arb_ops()) {
        let page = 4096u64;
        let mut mmu = PagedMmu::new(page, 64, 16, 50);
        let mut live: Vec<MemRange> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(len) => {
                    if let Ok(r) = mmu.map(len) {
                        prop_assert_eq!(r.len, len);
                        live.push(r);
                    }
                }
                Op::Free(i) => {
                    if live.is_empty() { continue; }
                    let r = live.swap_remove(i % live.len());
                    mmu.unmap(r).expect("live mapping must unmap");
                }
            }
            let requested: u64 = live.iter().map(|r| r.len).sum();
            let pages: u64 = live.iter().map(|r| r.len.div_ceil(page)).sum();
            prop_assert_eq!(mmu.requested_bytes(), requested);
            prop_assert_eq!(mmu.mapped_bytes(), pages * page);
            prop_assert_eq!(mmu.internal_fragmentation(), pages * page - requested);
            // Every live byte translates; translations stay inside the pool.
            for r in &live {
                let (pa, _) = mmu.translate(r.base).expect("mapped");
                prop_assert!(pa < 64 * page);
            }
        }
    }

    /// Segments hand back exactly the bytes asked for; pages round up.
    /// Whatever the workload, paging's physical footprint dominates the
    /// segment allocator's for the same requests (E7's core inequality).
    #[test]
    fn paging_never_beats_segments_on_footprint(
        lens in prop::collection::vec(1u64..20_000, 1..30)
    ) {
        let mut seg = SegmentAllocator::new(1 << 30, AllocPolicy::FirstFit);
        let mut mmu = PagedMmu::new(4096, 1 << 18, 16, 50);
        let mut seg_used = 0u64;
        for len in &lens {
            if seg.alloc(*len).is_ok() {
                seg_used += len;
            }
            let _ = mmu.map(*len);
        }
        prop_assert!(mmu.mapped_bytes() >= seg_used);
    }
}
