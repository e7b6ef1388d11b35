//! Heap allocations on a warm cluster's two message paths, counted by a
//! global allocator of this test binary's own.
//!
//! A fabric frame is read where it lands: an invocation's payload goes on
//! to the replica and its reply's payload back onto the fabric as views of
//! the frames they came in, and a gossip round writes each snapshot
//! straight into its frame and merges the entries from the frame's bytes,
//! updating the copies a board already holds in place. What remains is a
//! handful of buffers per message (each frame, its shared handle, the
//! buffers the NoC and the replica make on board), which the bounds below
//! hold it to: 10 for the invoke and 5 for the round, with no
//! reallocation.
//!
//! Run alone (`cargo test -p apiary-cluster --test allocs`) or with the
//! rest: each count is taken on the test's own thread.

use apiary_accel::apps::echo::echo;
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterConfig, ClusterSystem};
use apiary_core::{AppId, FaultPolicy};
use apiary_noc::NodeId;
use apiary_sim::{Cycle, Machine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the current thread's allocations and
/// reallocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds `GlobalAlloc`'s contract; the counters beside
// it are thread-local `Cell`s with constant initialisers, which neither
// allocate nor register a destructor, so counting cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, reallocations)` made on this thread by `f`.
fn count(f: impl FnOnce()) -> (u64, u64) {
    let read = || (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let before = read();
    f();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

const NODES: [NodeId; 3] = [NodeId(5), NodeId(6), NodeId(9)];

/// A 2-board star with the given gossip interval, three echo replicas
/// published on each board under names both boards share.
fn star(gossip_interval: u64) -> ClusterSystem {
    let mut c = ClusterSystem::new(ClusterConfig {
        boards: 2,
        gossip_interval,
        lease: 200_000,
        ..ClusterConfig::default()
    });
    for board in 0..2 {
        for (i, node) in NODES.into_iter().enumerate() {
            let name = ["kv", "video", "resize"][i];
            c.deploy_replica(
                board,
                name,
                ServiceId(40 + i as u32),
                node,
                AppId(1),
                FaultPolicy::FailStop,
                4096,
                Box::new(|| Box::new(echo(20))),
            )
            .expect("deploy");
        }
    }
    c
}

/// One remote invoke, from submit to its completion being taken. Board 0
/// sees only board 1's `kv` (its own is torn down), so the invoke crosses
/// the fabric both ways.
fn remote_invoke(c: &mut ClusterSystem, tag: u64) {
    let (board, _) = c.submit(0, "kv", tag, vec![7u8; 64]).expect("a replica");
    assert_eq!(board, 1, "the invoke goes remote");
    while !c.has_completions() {
        c.advance_toward(Cycle::MAX);
    }
    let done = c.take_completions();
    assert!(done.len() == 1 && !done[0].is_error, "{done:?}");
}

#[test]
fn a_warm_remote_invoke_and_a_gossip_round_allocate_a_handful() {
    // Invoke: gossip rarely enough that no round falls inside it.
    let mut c = star(50_000);
    c.pool_teardown(0, "kv").expect("board 0's kv goes");
    assert_eq!(c.run_checked(60_000), Ok(()));
    remote_invoke(&mut c, 1 << 32);
    let (allocs, reallocs) = count(|| remote_invoke(&mut c, (1 << 32) + 1));
    println!("remote invoke: {allocs} allocations, {reallocs} reallocations");
    assert!(
        allocs <= 10,
        "a warm remote invoke made {allocs} allocations"
    );
    assert_eq!(reallocs, 0, "a warm remote invoke reallocated");

    // Gossip: one full interval holding one round (both boards push a
    // snapshot of six entries), its deliveries and their acks.
    let interval = 2_000;
    let mut c = star(interval);
    assert_eq!(c.run_checked(10 * interval), Ok(()));
    let (allocs, reallocs) = count(|| c.run(interval));
    assert_eq!(c.now(), Cycle(11 * interval));
    assert_eq!(c.check_invariants(), Ok(()));
    println!("gossip round: {allocs} allocations, {reallocs} reallocations");
    assert!(allocs <= 5, "a gossip round made {allocs} allocations");
    assert_eq!(reallocs, 0, "a gossip round reallocated");
    // Every entry arrived: each board holds its three and the peer's three.
    for b in 0..2 {
        assert_eq!(c.directory(b).len(), 6, "board {b}'s directory");
    }
}
