//! The checkpoint plane: versioned, checksummed snapshots of preemptible
//! accelerator state (§4.4, after SYNERGY's compiler-driven checkpointing).
//!
//! The supervisor periodically asks every preemptible service for its
//! architectural state ([`apiary_accel::Accelerator::save_state`]) and
//! stores the bytes here. The restart/migrate ladder then restores the
//! latest snapshot instead of rebuilding the service factory-fresh, so a
//! recovered KV store retains its contents up to the checkpoint horizon
//! (bounded staleness: at most one checkpoint interval of writes is lost).
//!
//! Snapshots carry a format version and an FNV-1a checksum; a snapshot
//! that fails verification is *rejected* and recovery falls back to the
//! cold (factory-fresh) path rather than half-restoring corrupt state.

use apiary_sim::Cycle;
use std::collections::BTreeMap;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// FNV-1a 64-bit, the integrity check on stored state. Not cryptographic —
/// it guards against torn or bit-flipped snapshots, the same failure class
/// the NoC's flit checksum covers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One checkpoint of one service's architectural state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`] when taken by this kernel).
    pub version: u16,
    /// Monotonic sequence number per service.
    pub seq: u64,
    /// Cycle at which the state was captured.
    pub taken_at: Cycle,
    /// FNV-1a over `state`.
    pub checksum: u64,
    /// The serialized architectural state.
    pub state: Vec<u8>,
}

impl Snapshot {
    /// Captures `state` at `now` with the given sequence number.
    pub fn capture(seq: u64, now: Cycle, state: Vec<u8>) -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            seq,
            taken_at: now,
            checksum: fnv1a(&state),
            state,
        }
    }

    /// Integrity check: version understood and checksum intact.
    pub fn verify(&self) -> bool {
        self.version == SNAPSHOT_VERSION && self.checksum == fnv1a(&self.state)
    }
}

/// Per-board store of the latest snapshot per supervised service.
///
/// Keyed by the service's registry id; keeps only the newest snapshot per
/// service (bounded staleness is one checkpoint interval, so history buys
/// nothing). BTreeMap keeps iteration deterministic.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    snaps: BTreeMap<u32, Snapshot>,
    /// Checkpoints captured.
    pub taken: u64,
    /// Recoveries that restored from a snapshot (warm path).
    pub warm_restores: u64,
    /// Snapshots that failed verification and were discarded.
    pub rejected: u64,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Stores a new checkpoint for `service`, superseding any older one.
    /// Returns the sequence number assigned.
    pub fn put(&mut self, service: u32, now: Cycle, state: Vec<u8>) -> u64 {
        let seq = self.snaps.get(&service).map_or(1, |s| s.seq + 1);
        self.snaps
            .insert(service, Snapshot::capture(seq, now, state));
        self.taken += 1;
        seq
    }

    /// The latest verified snapshot for `service`, if any. A stored
    /// snapshot that no longer verifies is dropped (and counted) rather
    /// than returned.
    pub fn latest(&mut self, service: u32) -> Option<&Snapshot> {
        if let Some(snap) = self.snaps.get(&service) {
            if !snap.verify() {
                self.snaps.remove(&service);
                self.rejected += 1;
                return None;
            }
        }
        self.snaps.get(&service)
    }

    /// Drops the snapshot for `service` (service undeployed or migrated
    /// away), returning it if present.
    pub fn remove(&mut self, service: u32) -> Option<Snapshot> {
        self.snaps.remove(&service)
    }

    /// Number of services with a stored snapshot.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Returns `true` when no snapshots are held.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_verifies_and_roundtrips() {
        let snap = Snapshot::capture(3, Cycle(1000), vec![1, 2, 3, 4]);
        assert!(snap.verify());
        let mut store = CheckpointStore::new();
        store.put(9, Cycle(1000), vec![1, 2, 3, 4]);
        assert_eq!(store.latest(9), Some(&Snapshot { seq: 1, ..snap }));
    }

    /// A store holding `snap` for service 1, as if it had been tampered
    /// with where it lies.
    fn holding(snap: Snapshot) -> CheckpointStore {
        let mut store = CheckpointStore::new();
        store.snaps.insert(1, snap);
        store
    }

    #[test]
    fn wrong_version_rejected() {
        let mut snap = Snapshot::capture(1, Cycle(5), vec![7; 8]);
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(!snap.verify());
        let mut store = holding(snap);
        assert!(store.latest(1).is_none());
        assert_eq!(store.rejected, 1);
    }

    #[test]
    fn bitflip_rejected() {
        let mut snap = Snapshot::capture(1, Cycle(5), vec![0xAB; 64]);
        // Flip a bit inside the state payload: checksum must catch it.
        snap.state[63] ^= 0x40;
        let mut store = holding(snap);
        assert!(store.latest(1).is_none());
        assert_eq!(store.rejected, 1);
    }

    #[test]
    fn store_sequences_and_supersedes() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.put(7, Cycle(10), vec![1]), 1);
        assert_eq!(store.put(7, Cycle(20), vec![2]), 2);
        assert_eq!(store.put(9, Cycle(20), vec![3]), 1);
        assert_eq!(store.taken, 3);
        assert_eq!(store.len(), 2);
        let latest = store.latest(7).expect("stored");
        assert_eq!((latest.seq, latest.taken_at), (2, Cycle(20)));
        assert!(store.latest(8).is_none());
        assert!(store.remove(7).is_some());
        assert!(store.latest(7).is_none());
    }

    #[test]
    fn latest_drops_in_place_corruption() {
        let mut tampered = Snapshot::capture(1, Cycle(1), vec![1, 2, 3]);
        tampered.state[0] ^= 0xFF;
        let mut store = holding(tampered);
        assert!(store.latest(1).is_none());
        assert!(store.is_empty(), "dropped, not kept");
        assert!(store.latest(1).is_none());
        assert_eq!(store.rejected, 1, "counted once");
    }
}
