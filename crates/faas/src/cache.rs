//! Per-board bitstream cache.
//!
//! A cold start has two costs: *fetching* the bitstream from the store
//! (host DRAM or the network — orders of magnitude slower than the ICAP)
//! and *loading* it through the ICAP. The cache removes the first on a
//! hit. Capacity is bytes of on-board staging memory; eviction is LRU and
//! every eviction is counted and priced (bytes that will have to be
//! re-fetched), so an experiment can show exactly what a cache size buys.

use std::collections::BTreeMap;

/// LRU bitstream cache for one board.
///
/// Recency is a monotone access stamp, not wall time, so behaviour is a
/// pure function of the access sequence (determinism rule). All maps are
/// `BTreeMap` for stable iteration.
#[derive(Debug, Clone)]
pub struct BitstreamCache {
    capacity_bytes: u64,
    used_bytes: u64,
    /// name → (bytes, last-access stamp).
    entries: BTreeMap<String, (u64, u64)>,
    stamp: u64,
    /// Lookups that found the bitstream resident.
    pub hits: u64,
    /// Lookups that missed (and will pay the fetch).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes evicted — the re-fetch debt this cache size incurred.
    pub bytes_evicted: u64,
}

impl BitstreamCache {
    /// Creates a cache holding at most `capacity_bytes` of bitstreams.
    pub fn new(capacity_bytes: u64) -> BitstreamCache {
        BitstreamCache {
            capacity_bytes,
            used_bytes: 0,
            entries: BTreeMap::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            bytes_evicted: 0,
        }
    }

    /// Looks up `name`, refreshing its recency on a hit. Returns whether
    /// the bitstream is resident.
    pub fn lookup(&mut self, name: &str) -> bool {
        self.stamp += 1;
        match self.entries.get_mut(name) {
            Some(e) => {
                e.1 = self.stamp;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts `name` after a fetch, evicting least-recently-used entries
    /// until it fits. A bitstream larger than the whole cache is not
    /// admitted (it would evict everything for nothing).
    pub fn insert(&mut self, name: &str, bytes: u64) {
        if bytes > self.capacity_bytes {
            return;
        }
        if let Some((old, _)) = self.entries.remove(name) {
            self.used_bytes -= old;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = self
                .entries
                .iter()
                .min_by_key(|&(name, &(_, stamp))| (stamp, name.clone()))
                .map(|(name, _)| name.clone())
                .expect("used_bytes > 0 implies an entry exists");
            let (vbytes, _) = self.entries.remove(&victim).expect("listed above");
            self.used_bytes -= vbytes;
            self.evictions += 1;
            self.bytes_evicted += vbytes;
        }
        self.stamp += 1;
        self.entries.insert(name.to_string(), (bytes, self.stamp));
        self.used_bytes += bytes;
    }

    /// Whether `name` is resident (no recency refresh, no stat count).
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_stats() {
        let mut c = BitstreamCache::new(100);
        assert!(!c.lookup("a"));
        c.insert("a", 40);
        assert!(c.lookup("a"));
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(c.used_bytes(), 40);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = BitstreamCache::new(100);
        c.insert("a", 40);
        c.insert("b", 40);
        // Touch `a` so `b` is the LRU victim.
        assert!(c.lookup("a"));
        c.insert("c", 40);
        assert!(c.contains("a") && c.contains("c") && !c.contains("b"));
        assert_eq!(c.evictions, 1);
        assert_eq!(c.bytes_evicted, 40);
    }

    #[test]
    fn oversized_bitstream_is_not_admitted() {
        let mut c = BitstreamCache::new(100);
        c.insert("a", 40);
        c.insert("huge", 101);
        assert!(c.contains("a") && !c.contains("huge"));
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = BitstreamCache::new(100);
        c.insert("a", 40);
        c.insert("a", 60);
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn eviction_chain_frees_enough() {
        let mut c = BitstreamCache::new(100);
        c.insert("a", 30);
        c.insert("b", 30);
        c.insert("c", 30);
        c.insert("d", 90);
        assert!(c.contains("d"));
        assert_eq!(c.used_bytes(), 90);
        assert_eq!(c.evictions, 3);
    }
}
