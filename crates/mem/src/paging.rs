//! The paging baseline: a page-granular MMU with TLB and walk latency.
//!
//! Previous FPGA shells (Coyote, Optimus-style designs) borrowed CPU paging
//! for FPGA memory virtualisation. The paper argues (§4.6) this buys Apiary
//! nothing: page sizes constrain allocation granularity (internal
//! fragmentation / stranding) and translation adds TLB-miss latency on the
//! data path. This module implements that baseline honestly so E7 can
//! compare it against segments.

use apiary_cap::MemRange;
use core::fmt;

/// Errors from the paging MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagingError {
    /// Out of physical frames.
    OutOfFrames {
        /// Frames requested.
        requested: u64,
        /// Frames available.
        available: u64,
    },
    /// Zero-length request.
    ZeroLength,
    /// Virtual address not mapped.
    NotMapped {
        /// The faulting virtual address.
        vaddr: u64,
    },
    /// Unmap of a range that is not exactly a prior allocation.
    BadUnmap,
}

impl fmt::Display for PagingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagingError::OutOfFrames {
                requested,
                available,
            } => write!(f, "out of frames: need {requested}, have {available}"),
            PagingError::ZeroLength => write!(f, "zero-length mapping"),
            PagingError::NotMapped { vaddr } => write!(f, "page fault at {vaddr:#x}"),
            PagingError::BadUnmap => write!(f, "unmap of unknown range"),
        }
    }
}

impl std::error::Error for PagingError {}

/// A single-level-of-detail TLB cost model: a fully associative TLB with
/// pseudo-LRU replacement, a 1-cycle hit and a configurable miss penalty.
#[derive(Debug, Clone)]
pub struct TlbModel {
    entries: usize,
    miss_penalty: u64,
    /// Resident virtual page numbers in LRU order (front = most recent).
    resident: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl TlbModel {
    /// Creates a TLB with `entries` slots and the given miss penalty
    /// (page-walk cycles against on-card DRAM; tens to hundreds of cycles).
    pub fn new(entries: usize, miss_penalty: u64) -> TlbModel {
        TlbModel {
            entries,
            miss_penalty,
            resident: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Touches a virtual page number; returns the translation latency in
    /// cycles (1 on hit, `1 + miss_penalty` on miss).
    pub fn access(&mut self, vpn: u64) -> u64 {
        if let Some(pos) = self.resident.iter().position(|&v| v == vpn) {
            self.resident.remove(pos);
            self.resident.insert(0, vpn);
            self.hits += 1;
            1
        } else {
            self.resident.insert(0, vpn);
            if self.resident.len() > self.entries {
                self.resident.pop();
            }
            self.misses += 1;
            1 + self.miss_penalty
        }
    }

    /// Drops a translation (on unmap).
    pub fn invalidate(&mut self, vpn: u64) {
        self.resident.retain(|&v| v != vpn);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A page-granular MMU over a fixed pool of physical frames.
///
/// Allocations round up to whole pages; the difference between bytes asked
/// for and bytes of frames consumed is the internal fragmentation that
/// experiment E7 charges against paging.
///
/// # Examples
///
/// ```
/// use apiary_mem::PagedMmu;
///
/// // 4 KiB pages, 1 MiB of physical memory, 16-entry TLB, 60-cycle walks.
/// let mut mmu = PagedMmu::new(4096, 256, 16, 60);
/// let va = mmu.map(5000).expect("frames available");
/// assert_eq!(mmu.mapped_bytes(), 8192, "5000 B costs two 4 KiB pages");
/// let (_pa, lat) = mmu.translate(va.base).expect("mapped");
/// assert!(lat >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct PagedMmu {
    page_size: u64,
    /// Free physical frame numbers.
    free_frames: Vec<u64>,
    total_frames: u64,
    /// vpn -> pfn.
    page_table: std::collections::BTreeMap<u64, u64>,
    /// Allocations: (virtual base, requested_len, pages).
    live: Vec<(u64, u64, u64)>,
    next_vpn: u64,
    tlb: TlbModel,
    requested_bytes: u64,
}

impl PagedMmu {
    /// Creates an MMU with `frames` physical frames of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64, frames: u64, tlb_entries: usize, walk_cycles: u64) -> PagedMmu {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        PagedMmu {
            page_size,
            free_frames: (0..frames).rev().collect(),
            total_frames: frames,
            page_table: std::collections::BTreeMap::new(),
            live: Vec::new(),
            next_vpn: 0,
            tlb: TlbModel::new(tlb_entries, walk_cycles),
            requested_bytes: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Maps `len` bytes of fresh memory; returns the virtual range.
    ///
    /// # Errors
    ///
    /// [`PagingError::ZeroLength`] or [`PagingError::OutOfFrames`].
    pub fn map(&mut self, len: u64) -> Result<MemRange, PagingError> {
        if len == 0 {
            return Err(PagingError::ZeroLength);
        }
        let pages = len.div_ceil(self.page_size);
        if (self.free_frames.len() as u64) < pages {
            return Err(PagingError::OutOfFrames {
                requested: pages,
                available: self.free_frames.len() as u64,
            });
        }
        let base_vpn = self.next_vpn;
        self.next_vpn += pages;
        for i in 0..pages {
            let pfn = self.free_frames.pop().expect("count checked above");
            self.page_table.insert(base_vpn + i, pfn);
        }
        self.live.push((base_vpn * self.page_size, len, pages));
        self.requested_bytes += len;
        Ok(MemRange::new(base_vpn * self.page_size, len))
    }

    /// Unmaps a range previously returned by [`PagedMmu::map`].
    ///
    /// # Errors
    ///
    /// [`PagingError::BadUnmap`] if the range is not a live mapping.
    pub fn unmap(&mut self, range: MemRange) -> Result<(), PagingError> {
        let pos = self
            .live
            .iter()
            .position(|&(b, l, _)| b == range.base && l == range.len)
            .ok_or(PagingError::BadUnmap)?;
        let (vbase, len, pages) = self.live.remove(pos);
        let base_vpn = vbase / self.page_size;
        for i in 0..pages {
            if let Some(pfn) = self.page_table.remove(&(base_vpn + i)) {
                self.free_frames.push(pfn);
                self.tlb.invalidate(base_vpn + i);
            }
        }
        self.requested_bytes -= len;
        Ok(())
    }

    /// Translates a virtual address; returns `(physical address, latency)`.
    ///
    /// # Errors
    ///
    /// [`PagingError::NotMapped`] on a page fault.
    pub fn translate(&mut self, vaddr: u64) -> Result<(u64, u64), PagingError> {
        let vpn = vaddr / self.page_size;
        let off = vaddr % self.page_size;
        let pfn = *self
            .page_table
            .get(&vpn)
            .ok_or(PagingError::NotMapped { vaddr })?;
        let lat = self.tlb.access(vpn);
        Ok((pfn * self.page_size + off, lat))
    }

    /// Bytes of physical memory consumed (whole pages).
    pub fn mapped_bytes(&self) -> u64 {
        (self.total_frames - self.free_frames.len() as u64) * self.page_size
    }

    /// Bytes actually requested by callers.
    pub fn requested_bytes(&self) -> u64 {
        self.requested_bytes
    }

    /// Internal fragmentation: page-rounded bytes minus requested bytes.
    pub fn internal_fragmentation(&self) -> u64 {
        self.mapped_bytes() - self.requested_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rounds_to_pages() {
        let mut mmu = PagedMmu::new(4096, 16, 8, 50);
        let r = mmu.map(1).expect("frames");
        assert_eq!(r.len, 1);
        assert_eq!(mmu.mapped_bytes(), 4096);
        assert_eq!(mmu.internal_fragmentation(), 4095);
    }

    #[test]
    fn out_of_frames() {
        let mut mmu = PagedMmu::new(4096, 2, 8, 50);
        mmu.map(8192).expect("fits exactly");
        assert!(matches!(mmu.map(1), Err(PagingError::OutOfFrames { .. })));
    }

    #[test]
    fn translate_hits_and_misses() {
        let mut mmu = PagedMmu::new(4096, 16, 4, 50);
        let r = mmu.map(4096 * 8).expect("frames");
        // First touch of each page misses.
        let (_, lat) = mmu.translate(r.base).expect("mapped");
        assert_eq!(lat, 51);
        // Immediate retouch hits.
        let (_, lat) = mmu.translate(r.base + 8).expect("mapped");
        assert_eq!(lat, 1);
        // Touch 8 pages with a 4-entry TLB, then re-touch the first: miss.
        for i in 0..8 {
            mmu.translate(r.base + i * 4096).expect("mapped");
        }
        let (_, lat) = mmu.translate(r.base).expect("mapped");
        assert_eq!(lat, 51);
    }

    #[test]
    fn unmap_releases_frames_and_faults() {
        let mut mmu = PagedMmu::new(4096, 4, 8, 50);
        let r = mmu.map(4096 * 3).expect("frames");
        mmu.unmap(r).expect("live");
        assert_eq!(mmu.mapped_bytes(), 0);
        assert!(matches!(
            mmu.translate(r.base),
            Err(PagingError::NotMapped { .. })
        ));
        // Frames are reusable.
        mmu.map(4096 * 4).expect("all frames back");
    }

    #[test]
    fn translation_is_consistent() {
        let mut mmu = PagedMmu::new(4096, 32, 16, 50);
        let r = mmu.map(4096 * 4 + 100).expect("frames");
        let (pa1, _) = mmu.translate(r.base + 5).expect("mapped");
        let (pa2, _) = mmu.translate(r.base + 5).expect("mapped");
        assert_eq!(pa1, pa2);
        // Same page, different offset: same frame.
        let (pa3, _) = mmu.translate(r.base + 6).expect("mapped");
        assert_eq!(pa3, pa1 + 1);
    }

    #[test]
    fn bad_unmap_rejected() {
        let mut mmu = PagedMmu::new(4096, 8, 8, 50);
        let r = mmu.map(4096).expect("frames");
        assert_eq!(
            mmu.unmap(MemRange::new(r.base, r.len + 1)),
            Err(PagingError::BadUnmap)
        );
        mmu.unmap(r).expect("live");
        assert_eq!(mmu.unmap(r), Err(PagingError::BadUnmap));
    }

    #[test]
    fn zero_length_rejected() {
        let mut mmu = PagedMmu::new(4096, 8, 8, 50);
        assert_eq!(mmu.map(0), Err(PagingError::ZeroLength));
    }

    #[test]
    fn tlb_lru_behaviour() {
        let mut tlb = TlbModel::new(2, 10);
        assert_eq!(tlb.access(1), 11); // miss
        assert_eq!(tlb.access(2), 11); // miss
        assert_eq!(tlb.access(1), 1); // hit, 1 becomes MRU
        assert_eq!(tlb.access(3), 11); // miss, evicts 2
        assert_eq!(tlb.access(2), 11); // miss again
        let (hits, misses) = tlb.stats();
        assert_eq!((hits, misses), (1, 4));
    }
}
