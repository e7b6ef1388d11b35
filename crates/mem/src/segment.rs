//! Free-list segment allocation with coalescing.
//!
//! Segments are the unit of memory isolation in Apiary: an accelerator asks
//! the memory service for `len` bytes and receives a capability covering an
//! arbitrary-sized, contiguous range. Compared to paging, nothing is rounded
//! to a page multiple, so large allocations strand no memory and small ones
//! waste none — the trade-off the paper highlights in §4.6.

use apiary_cap::MemRange;
use apiary_sim::ensure;
use core::fmt;

/// Allocation placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Place in the lowest-addressed free block that fits. Cheap in
    /// hardware: first match on a linear scan.
    #[default]
    FirstFit,
    /// Place in the smallest free block that fits. Reduces external
    /// fragmentation at the cost of a full scan.
    BestFit,
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No single free block is large enough (the request may still be
    /// smaller than the *total* free bytes: external fragmentation, the
    /// "resource stranding" of §2).
    NoSpace {
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free block at the time of the request.
        largest_free: u64,
        /// Total free bytes at the time of the request.
        total_free: u64,
    },
    /// Zero-length allocations are not representable as segments.
    ZeroLength,
    /// The freed range is not a currently allocated segment.
    BadFree,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoSpace {
                requested,
                largest_free,
                total_free,
            } => write!(
                f,
                "no space: requested {requested} B, largest free {largest_free} B, total free {total_free} B"
            ),
            AllocError::ZeroLength => write!(f, "zero-length allocation"),
            AllocError::BadFree => write!(f, "free of an unallocated range"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Point-in-time allocator statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocStats {
    /// Bytes managed in total.
    pub total: u64,
    /// Bytes currently free.
    pub free: u64,
    /// Bytes currently allocated.
    pub used: u64,
    /// Largest single free block.
    pub largest_free: u64,
    /// Number of live segments.
    pub live_segments: usize,
    /// Number of blocks on the free list (a coalescing health metric).
    pub free_blocks: usize,
    /// External fragmentation in `[0, 1]`: `1 - largest_free / free`.
    /// Zero when memory is unfragmented or entirely full.
    pub external_fragmentation: f64,
}

/// A free-list segment allocator over `[0, total)`.
///
/// The free list is kept sorted by base address and adjacent blocks are
/// coalesced on every free, so external fragmentation is purely a product of
/// the allocation pattern, not of bookkeeping artifacts.
///
/// # Examples
///
/// ```
/// use apiary_mem::{AllocPolicy, SegmentAllocator};
///
/// let mut a = SegmentAllocator::new(1 << 20, AllocPolicy::FirstFit);
/// let seg = a.alloc(1000).expect("space");
/// assert_eq!(seg.len, 1000);
/// a.free(seg).expect("was allocated");
/// assert_eq!(a.stats().free, 1 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentAllocator {
    policy: AllocPolicy,
    total: u64,
    /// Sorted, coalesced free blocks as (base, len).
    free: Vec<(u64, u64)>,
    /// Live segments as (base, len), sorted by base.
    live: Vec<(u64, u64)>,
}

impl SegmentAllocator {
    /// Creates an allocator managing `total` bytes starting at address 0.
    pub fn new(total: u64, policy: AllocPolicy) -> SegmentAllocator {
        SegmentAllocator {
            policy,
            total,
            free: if total > 0 { vec![(0, total)] } else { vec![] },
            live: Vec::new(),
        }
    }

    /// Allocates a segment of exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroLength`] for `len == 0`; [`AllocError::NoSpace`]
    /// when no contiguous block fits.
    pub fn alloc(&mut self, len: u64) -> Result<MemRange, AllocError> {
        self.alloc_aligned(len, 1)
    }

    /// Allocates `len` bytes whose base is a multiple of `align`
    /// (which must be a power of two).
    ///
    /// # Errors
    ///
    /// As [`SegmentAllocator::alloc`].
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc_aligned(&mut self, len: u64, align: u64) -> Result<MemRange, AllocError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        if len == 0 {
            return Err(AllocError::ZeroLength);
        }
        let mut chosen: Option<(usize, u64)> = None; // (free index, aligned base)
        for (i, &(base, flen)) in self.free.iter().enumerate() {
            let abase = (base + align - 1) & !(align - 1);
            let waste = abase - base;
            if flen < waste || flen - waste < len {
                continue;
            }
            match self.policy {
                AllocPolicy::FirstFit => {
                    chosen = Some((i, abase));
                    break;
                }
                AllocPolicy::BestFit => {
                    let better = match chosen {
                        None => true,
                        Some((j, _)) => flen < self.free[j].1,
                    };
                    if better {
                        chosen = Some((i, abase));
                    }
                }
            }
        }
        let Some((i, abase)) = chosen else {
            let stats = self.stats();
            return Err(AllocError::NoSpace {
                requested: len,
                largest_free: stats.largest_free,
                total_free: stats.free,
            });
        };
        let (base, flen) = self.free[i];
        let head = abase - base;
        let tail = flen - head - len;
        // Replace the block with up to two remainders.
        self.free.remove(i);
        if tail > 0 {
            self.free.insert(i, (abase + len, tail));
        }
        if head > 0 {
            self.free.insert(i, (base, head));
        }
        let range = MemRange::new(abase, len);
        let pos = self
            .live
            .binary_search_by_key(&abase, |&(b, _)| b)
            .expect_err("allocated ranges never collide");
        self.live.insert(pos, (abase, len));
        Ok(range)
    }

    /// Frees a previously allocated segment, coalescing with neighbours.
    ///
    /// # Errors
    ///
    /// [`AllocError::BadFree`] if `range` is not exactly a live segment.
    pub fn free(&mut self, range: MemRange) -> Result<(), AllocError> {
        let pos = self
            .live
            .binary_search_by_key(&range.base, |&(b, _)| b)
            .map_err(|_| AllocError::BadFree)?;
        if self.live[pos].1 != range.len {
            return Err(AllocError::BadFree);
        }
        self.live.remove(pos);
        // Insert into the free list and coalesce.
        let at = self
            .free
            .binary_search_by_key(&range.base, |&(b, _)| b)
            .expect_err("a live segment's base is never on the free list");
        self.free.insert(at, (range.base, range.len));
        // Coalesce with the next block.
        if at + 1 < self.free.len() {
            let (nb, nl) = self.free[at + 1];
            if self.free[at].0 + self.free[at].1 == nb {
                self.free[at].1 += nl;
                self.free.remove(at + 1);
            }
        }
        // Coalesce with the previous block.
        if at > 0 {
            let (pb, pl) = self.free[at - 1];
            if pb + pl == self.free[at].0 {
                self.free[at - 1].1 += self.free[at].1;
                self.free.remove(at);
            }
        }
        Ok(())
    }

    /// Returns current statistics.
    pub fn stats(&self) -> AllocStats {
        let free: u64 = self.free.iter().map(|&(_, l)| l).sum();
        let largest = self.free.iter().map(|&(_, l)| l).max().unwrap_or(0);
        AllocStats {
            total: self.total,
            free,
            used: self.total - free,
            largest_free: largest,
            live_segments: self.live.len(),
            free_blocks: self.free.len(),
            external_fragmentation: if free == 0 {
                0.0
            } else {
                1.0 - largest as f64 / free as f64
            },
        }
    }

    /// Iterates over live segments in address order.
    pub fn live_segments(&self) -> impl Iterator<Item = MemRange> + '_ {
        self.live.iter().map(|&(b, l)| MemRange::new(b, l))
    }

    /// The placement policy in use.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Total bytes managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `Ok`, or the first broken law: the free list is sorted, disjoint and
    /// fully coalesced (no two blocks touch), the live list is sorted and
    /// disjoint, and together they cover `[0, total)` with no byte in both.
    pub fn check_invariants(&self) -> Result<(), String> {
        for w in self.free.windows(2) {
            let ((a, len), b) = (w[0], w[1].0);
            ensure!(
                a + len < b,
                "free blocks at {a} (+{len}) and {b} not coalesced"
            );
        }
        for w in self.live.windows(2) {
            let ((a, len), b) = (w[0], w[1].0);
            ensure!(
                a + len <= b,
                "live segments at {a} (+{len}) and {b} overlap"
            );
        }
        let mut blocks: Vec<(u64, u64)> = self.free.iter().chain(&self.live).copied().collect();
        blocks.sort_unstable();
        let mut at = 0;
        for (base, len) in blocks {
            ensure!(len > 0, "empty block at {base}");
            ensure!(base >= at, "bytes {base}..{at} both free and live");
            ensure!(base <= at, "bytes {at}..{base} neither free nor live");
            at = base + len;
        }
        ensure!(
            at == self.total,
            "{at} of {} bytes accounted for",
            self.total
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut a = SegmentAllocator::new(1024, AllocPolicy::FirstFit);
        let s1 = a.alloc(100).expect("space");
        let s2 = a.alloc(200).expect("space");
        assert_eq!(s1.base, 0);
        assert_eq!(s2.base, 100);
        assert_eq!(a.stats().used, 300);
        a.free(s1).expect("live");
        a.free(s2).expect("live");
        let s = a.stats();
        assert_eq!(s.free, 1024);
        assert_eq!(s.free_blocks, 1, "blocks must coalesce");
    }

    #[test]
    fn law_names_the_first_broken_rule() {
        let mut a = SegmentAllocator::new(1024, AllocPolicy::FirstFit);
        let s1 = a.alloc(100).expect("space");
        a.alloc(200).expect("space");
        assert_eq!(a.check_invariants(), Ok(()));
        let mut b = a.clone();
        b.free = vec![(0, 100), (300, 724)];
        b.live.retain(|&(base, _)| base != 0);
        assert_eq!(b.check_invariants(), Ok(()));
        b.free = vec![(0, 50), (50, 50), (300, 724)];
        assert_eq!(
            b.check_invariants(),
            Err("free blocks at 0 (+50) and 50 not coalesced".into())
        );
        let mut b = a.clone();
        b.free.push((0, 10));
        b.free.sort_unstable();
        assert_eq!(
            b.check_invariants(),
            Err("bytes 0..10 both free and live".into())
        );
        a.live.retain(|&(base, _)| base != s1.base);
        assert_eq!(
            a.check_invariants(),
            Err("bytes 0..100 neither free nor live".into())
        );
    }

    #[test]
    fn zero_len_rejected() {
        let mut a = SegmentAllocator::new(64, AllocPolicy::FirstFit);
        assert_eq!(a.alloc(0), Err(AllocError::ZeroLength));
    }

    #[test]
    fn arbitrary_sizes_do_not_round() {
        // The point of segments (§4.6): a 4097-byte ask uses 4097 bytes.
        let mut a = SegmentAllocator::new(1 << 20, AllocPolicy::FirstFit);
        let s = a.alloc(4097).expect("space");
        assert_eq!(s.len, 4097);
        assert_eq!(a.stats().used, 4097);
    }

    #[test]
    fn no_space_reports_stranding() {
        let mut a = SegmentAllocator::new(1000, AllocPolicy::FirstFit);
        let a1 = a.alloc(400).expect("space");
        let _a2 = a.alloc(200).expect("space");
        let _a3 = a.alloc(400).expect("space");
        a.free(a1).expect("live");
        // 400 bytes free but the request needs 500 contiguous.
        match a.alloc(500) {
            Err(AllocError::NoSpace {
                requested,
                largest_free,
                total_free,
            }) => {
                assert_eq!(requested, 500);
                assert_eq!(largest_free, 400);
                assert_eq!(total_free, 400);
            }
            other => panic!("expected NoSpace, got {other:?}"),
        }
    }

    #[test]
    fn best_fit_picks_smallest_hole() {
        let mut a = SegmentAllocator::new(1000, AllocPolicy::BestFit);
        // Carve holes of 300 (at 0) and 100 (at 500).
        let h300 = a.alloc(300).expect("space");
        let _keep1 = a.alloc(200).expect("space");
        let h100 = a.alloc(100).expect("space");
        let _keep2 = a.alloc(400).expect("space");
        a.free(h300).expect("live");
        a.free(h100).expect("live");
        // Best fit should use the 100-byte hole at 500.
        let s = a.alloc(80).expect("space");
        assert_eq!(s.base, 500);
        // First fit would have used the hole at 0.
        let mut ff = SegmentAllocator::new(1000, AllocPolicy::FirstFit);
        let h300 = ff.alloc(300).expect("space");
        let _k1 = ff.alloc(200).expect("space");
        let h100 = ff.alloc(100).expect("space");
        let _k2 = ff.alloc(400).expect("space");
        ff.free(h300).expect("live");
        ff.free(h100).expect("live");
        assert_eq!(ff.alloc(80).expect("space").base, 0);
    }

    #[test]
    fn aligned_alloc_respects_alignment() {
        let mut a = SegmentAllocator::new(1 << 16, AllocPolicy::FirstFit);
        let _pad = a.alloc(10).expect("space");
        let s = a.alloc_aligned(100, 256).expect("space");
        assert_eq!(s.base % 256, 0);
        assert!(s.base >= 10);
    }

    #[test]
    fn free_of_bogus_range_fails() {
        let mut a = SegmentAllocator::new(1024, AllocPolicy::FirstFit);
        let s = a.alloc(64).expect("space");
        assert_eq!(a.free(MemRange::new(1, 63)), Err(AllocError::BadFree));
        assert_eq!(
            a.free(MemRange::new(s.base, s.len - 1)),
            Err(AllocError::BadFree)
        );
        a.free(s).expect("live");
        assert_eq!(a.free(s), Err(AllocError::BadFree), "double free");
    }

    #[test]
    fn fragmentation_metric_moves() {
        let mut a = SegmentAllocator::new(1000, AllocPolicy::FirstFit);
        let segs: Vec<_> = (0..10).map(|_| a.alloc(100).expect("space")).collect();
        // Free every other segment: five 100-byte holes.
        for s in segs.iter().step_by(2) {
            a.free(*s).expect("live");
        }
        let st = a.stats();
        assert_eq!(st.free, 500);
        assert_eq!(st.largest_free, 100);
        assert!((st.external_fragmentation - 0.8).abs() < 1e-9);
    }

    #[test]
    fn exhausts_exactly() {
        let mut a = SegmentAllocator::new(256, AllocPolicy::FirstFit);
        let s = a.alloc(256).expect("space");
        assert_eq!(a.stats().free, 0);
        assert!(a.alloc(1).is_err());
        a.free(s).expect("live");
        assert_eq!(a.stats().free, 256);
    }
}
