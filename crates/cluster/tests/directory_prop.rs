//! The tombstone law of the gossip directory, as a property.
//!
//! Three boards' directories go through random operations: each board
//! publishes, withdraws and renews its own bindings, merges any snapshot
//! any board took earlier (gossip delivered late, out of order or twice,
//! read from its frame as the fabric delivers it), and sweeps as the clock
//! advances. After every operation:
//!
//! - **no resurrection:** once a board has held a tombstone, or merged a
//!   snapshot that held one, its `lookup_all` never again returns a copy
//!   that tombstone buried — a version at or below the tombstone's, leased
//!   no longer than it (every home mutation leases to `now + LEASE`, so a
//!   copy issued before the withdrawal expires no later than the tombstone
//!   does; a binding the home publishes afresh after the tombstone lapsed
//!   is leased later);
//! - [`Directory::check_invariants`] holds on every board.
//!
//! A board that has not yet heard of a withdrawal may still return the
//! binding: the directory is eventually consistent, and gossip is what
//! carries the tombstone.

use apiary_cap::ServiceId;
use apiary_cluster::{Body, BodyView, ClusterMsg, DirEntry, Directory, Gossip, MsgView};
use apiary_noc::NodeId;
use apiary_sim::Cycle;
use proptest::prelude::*;
use std::collections::BTreeSet;

const BOARDS: u16 = 3;
const LEASE: u64 = 100;
const NAMES: [&str; 2] = ["kv", "video"];

#[derive(Debug, Clone)]
enum Op {
    /// Board `home` publishes `name` at `node`.
    Publish { home: u16, name: usize, node: u16 },
    /// Board `home` withdraws its binding of `name`.
    Withdraw { home: u16, name: usize },
    /// Board `home` renews its live bindings.
    Renew { home: u16 },
    /// Board `board` takes a snapshot, to be merged anywhere later.
    Snapshot { board: u16 },
    /// Board `into` merges the `pick`-th snapshot taken so far.
    Merge { into: u16, pick: usize },
    /// Board `board` sweeps expired entries at the current cycle.
    Sweep { board: u16 },
    /// The clock moves on.
    Advance { cycles: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let board = || 0..BOARDS;
    let name = || 0..NAMES.len();
    prop_oneof![
        (board(), name(), 1u16..4).prop_map(|(home, name, node)| Op::Publish { home, name, node }),
        (board(), name()).prop_map(|(home, name)| Op::Withdraw { home, name }),
        board().prop_map(|home| Op::Renew { home }),
        board().prop_map(|board| Op::Snapshot { board }),
        (board(), 0usize..64).prop_map(|(into, pick)| Op::Merge { into, pick }),
        board().prop_map(|board| Op::Sweep { board }),
        (1u64..30).prop_map(|cycles| Op::Advance { cycles }),
    ]
}

/// A tombstone as a board held it: `(name, home, version, expires_at)`.
type Tomb = (String, u16, u64, Cycle);

/// The tombstones `dir` holds.
fn tombs(dir: &Directory) -> impl Iterator<Item = Tomb> {
    held_entries(dir)
        .into_iter()
        .filter(|e| e.withdrawn)
        .map(|e| (e.name, e.home, e.version, e.expires_at))
}

/// Board `board`'s snapshot as a gossip frame delivers it.
fn snapshot(dir: &Directory) -> Gossip {
    match MsgView::parse(&dir.gossip_frame(dir.board()).into()).map(|m| m.body) {
        Some(BodyView::Gossip(g)) => g,
        other => panic!("not a gossip frame: {other:?}"),
    }
}

/// Every entry `dir` holds, tombstones included.
fn held_entries(dir: &Directory) -> Vec<DirEntry> {
    match ClusterMsg::decode(&dir.gossip_frame(dir.board())).map(|m| m.body) {
        Some(Body::Gossip { entries }) => entries,
        other => panic!("not a gossip frame: {other:?}"),
    }
}

/// Whether `tomb` buried `e`: same binding, no newer, leased no longer.
fn buried(tomb: &Tomb, e: &DirEntry) -> bool {
    let (name, home, version, expires_at) = tomb;
    *name == e.name && *home == e.home && e.version <= *version && e.expires_at <= *expires_at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_tombstone_is_never_resurrected(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut dirs: Vec<Directory> = (0..BOARDS).map(|b| Directory::new(b, LEASE)).collect();
        // Each snapshot with the tombstones it carries.
        let mut snapshots: Vec<(Gossip, Vec<Tomb>)> = Vec::new();
        let mut held: Vec<BTreeSet<Tomb>> = vec![BTreeSet::new(); BOARDS as usize];
        let mut now = Cycle(0);
        for op in &ops {
            match *op {
                Op::Publish { home, name, node } => {
                    let service = ServiceId(10 + name as u32);
                    dirs[home as usize].publish(now, NAMES[name], service, NodeId(node));
                }
                Op::Withdraw { home, name } => {
                    dirs[home as usize].withdraw(now, NAMES[name]);
                }
                Op::Renew { home } => dirs[home as usize].renew_local(now),
                Op::Snapshot { board } => {
                    let dir = &dirs[board as usize];
                    snapshots.push((snapshot(dir), tombs(dir).collect()));
                }
                Op::Merge { into, pick } => {
                    if !snapshots.is_empty() {
                        let (snap, carried) = &snapshots[pick % snapshots.len()];
                        dirs[into as usize].merge(snap);
                        held[into as usize].extend(carried.iter().cloned());
                    }
                }
                Op::Sweep { board } => {
                    for e in dirs[board as usize].sweep(now) {
                        prop_assert!(e.expires_at <= now, "swept a live entry {:?}", e);
                    }
                }
                Op::Advance { cycles } => now += cycles,
            }
            for (b, dir) in dirs.iter().enumerate() {
                assert_eq!(dir.check_invariants(), Ok(()));
                held[b].extend(tombs(dir));
                for name in NAMES {
                    for e in dir.lookup_all(now, name) {
                        let tomb = held[b].iter().find(|t| buried(t, e));
                        prop_assert!(
                            tomb.is_none(),
                            "after {:?} at {:?}, board {} returns {:?} that {:?} buried",
                            op, now, b, e, tomb
                        );
                    }
                }
            }
        }
    }
}
