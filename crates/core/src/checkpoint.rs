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

use apiary_accel::StateError;
use apiary_sim::{Cycle, Reader};
use std::collections::BTreeMap;

/// Current snapshot wire-format version.
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
    /// Monotonic sequence number per service (replication ordering).
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

    /// Serializes the snapshot for transfer over the fabric:
    /// `[version: u16][seq: u64][taken_at: u64][checksum: u64]
    /// [len: u32][state]`, all little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(30 + self.state.len());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.taken_at.0.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.extend_from_slice(&(self.state.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.state);
        out
    }

    /// Parses and verifies an encoded snapshot.
    ///
    /// # Errors
    ///
    /// [`StateError::Corrupt`] on truncation, trailing bytes, an unknown
    /// version, or a checksum mismatch — never a partial snapshot.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, StateError> {
        fn parse(bytes: &[u8]) -> Option<Snapshot> {
            let mut r = Reader::new(bytes);
            let version = r.u16()?;
            let seq = r.u64()?;
            let taken_at = Cycle(r.u64()?);
            let checksum = r.u64()?;
            let len = r.u32()? as usize;
            let state = r.bytes(len)?.to_vec();
            r.is_empty().then_some(Snapshot {
                version,
                seq,
                taken_at,
                checksum,
                state,
            })
        }
        parse(bytes)
            .filter(Snapshot::verify)
            .ok_or(StateError::Corrupt)
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

    /// Adopts an already-built snapshot (fabric replication) if it is newer
    /// than what is held and verifies. Returns `true` if adopted.
    pub fn adopt(&mut self, service: u32, snap: Snapshot) -> bool {
        if !snap.verify() {
            self.rejected += 1;
            return false;
        }
        if self.snaps.get(&service).is_some_and(|s| s.seq >= snap.seq) {
            return false;
        }
        self.snaps.insert(service, snap);
        true
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
        let decoded = Snapshot::decode(&snap.encode()).expect("well formed");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let enc = Snapshot::capture(1, Cycle(5), vec![9; 32]).encode();
        for cut in [0, 1, 2, 10, enc.len() - 1] {
            assert_eq!(Snapshot::decode(&enc[..cut]), Err(StateError::Corrupt));
        }
        let mut trailing = enc.clone();
        trailing.push(0);
        assert_eq!(Snapshot::decode(&trailing), Err(StateError::Corrupt));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut snap = Snapshot::capture(1, Cycle(5), vec![7; 8]);
        snap.version = SNAPSHOT_VERSION + 1;
        assert!(!snap.verify());
        assert_eq!(Snapshot::decode(&snap.encode()), Err(StateError::Corrupt));
    }

    #[test]
    fn bitflip_rejected() {
        let snap = Snapshot::capture(1, Cycle(5), vec![0xAB; 64]);
        let mut enc = snap.encode();
        // Flip a bit inside the state payload: checksum must catch it.
        let n = enc.len();
        enc[n - 1] ^= 0x40;
        assert_eq!(Snapshot::decode(&enc), Err(StateError::Corrupt));
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
    fn adopt_keeps_newest_and_rejects_corrupt() {
        let mut store = CheckpointStore::new();
        let newer = Snapshot::capture(5, Cycle(50), vec![5]);
        let older = Snapshot::capture(4, Cycle(40), vec![4]);
        assert!(store.adopt(1, newer.clone()));
        assert!(!store.adopt(1, older), "stale replica ignored");
        assert_eq!(store.latest(1).expect("held").seq, 5);
        let mut bad = Snapshot::capture(9, Cycle(60), vec![6]);
        bad.checksum ^= 1;
        assert!(!store.adopt(1, bad));
        assert_eq!(store.rejected, 1);
        assert_eq!(store.latest(1).expect("held").seq, 5);
    }

    #[test]
    fn latest_drops_in_place_corruption() {
        let mut store = CheckpointStore::new();
        store.put(3, Cycle(1), vec![1, 2, 3]);
        // Simulate in-storage corruption by adopting-then-mutating via the
        // public clone (the store itself has no mutable state access, so
        // rebuild it with a tampered snapshot).
        let mut tampered = store.latest(3).expect("held").clone();
        tampered.state[0] ^= 0xFF;
        let mut store2 = CheckpointStore::new();
        store2.snaps.insert(3, tampered);
        assert!(store2.latest(3).is_none());
        assert_eq!(store2.rejected, 1);
    }
}
