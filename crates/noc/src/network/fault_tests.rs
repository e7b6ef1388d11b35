use super::faults::DEADLOCK_WINDOW;
use super::*;
use crate::fault::FaultPlane;
use crate::packet::TrafficClass;
use crate::topology::Port;

fn msg(src: u16, dst: u16, bytes: usize) -> Message {
    Message::new(
        NodeId(src),
        NodeId(dst),
        TrafficClass::Request,
        vec![0xAB; bytes],
    )
}

#[test]
fn transient_outage_drops_and_counts_instead_of_delivering() {
    let mut noc = Noc::new(NocConfig::soft(4, 1));
    // Take the 0->1 link down for longer than the whole transfer.
    noc.fail_link_for(NodeId(0), Direction::East, 10_000);
    noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
    assert!(noc.run_until_quiescent(100_000));
    assert!(noc.poll_eject(NodeId(3)).is_none(), "must not deliver");
    let st = noc.stats();
    assert_eq!(st.dropped_corrupt, 1);
    assert!(st.corrupted_flits > 0);
    assert_eq!(st.delivered, 0);
    assert_eq!(noc.pending(), 0);
}

#[test]
fn outage_heals_and_traffic_resumes() {
    let mut noc = Noc::new(NocConfig::soft(4, 1));
    noc.fail_link_for(NodeId(0), Direction::East, 50);
    for _ in 0..60 {
        noc.step();
    }
    noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
    assert!(noc.run_until_quiescent(100_000));
    assert!(noc.poll_eject(NodeId(3)).is_some(), "healed link delivers");
    assert_eq!(noc.stats().dropped(), 0);
}

#[test]
fn permanent_kill_detours_around_the_dead_link() {
    // 4x4 mesh: kill 0->East; XY route 0->3 would use it. A detour
    // through row 1 must deliver intact (no damage: the packet
    // never touches the dead link).
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    assert!(noc.kill_link(NodeId(0), Direction::East));
    assert!(noc.reachable(NodeId(0), NodeId(3)));
    noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
    assert!(noc.run_until_quiescent(100_000));
    let d = noc.poll_eject(NodeId(3)).expect("detoured delivery");
    assert_eq!(d.msg.payload.len(), 64);
    assert_eq!(noc.stats().dropped(), 0);
}

#[test]
fn cut_off_node_reports_unreachable() {
    // 2x1 mesh: killing both directions of the only link partitions it.
    let mut noc = Noc::new(NocConfig::soft(2, 1));
    assert!(noc.kill_link(NodeId(0), Direction::East));
    assert!(noc.kill_link(NodeId(1), Direction::West));
    assert!(!noc.reachable(NodeId(0), NodeId(1)));
    assert_eq!(
        noc.try_inject(NodeId(0), msg(0, 1, 8)),
        Err(InjectError::Unreachable)
    );
    // Loopback still works.
    assert!(noc.reachable(NodeId(0), NodeId(0)));
    noc.try_inject(NodeId(0), msg(0, 0, 8)).expect("loopback");
    assert!(noc.run_until_quiescent(1_000));
}

#[test]
fn kill_mid_flight_never_hangs() {
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    for s in 0..16u16 {
        let _ = noc.try_inject(NodeId(s), msg(s, (s + 7) % 16, 400));
    }
    for _ in 0..10 {
        noc.step();
    }
    // Sever several links while packets are streaming.
    noc.kill_link(NodeId(1), Direction::East);
    noc.kill_link(NodeId(2), Direction::West);
    noc.kill_link(NodeId(5), Direction::North);
    for _ in 0..1_000_000 {
        if noc.pending() == 0 {
            break;
        }
        noc.step();
        assert_eq!(noc.check_invariants(), Ok(()));
    }
    assert_eq!(noc.pending(), 0, "network must always drain");
    let st = noc.stats();
    assert_eq!(st.delivered + st.dropped(), st.injected);
}

#[test]
#[should_panic(expected = "u32::MAX flits")]
fn packet_longer_than_the_nic_entry_counts_rejected() {
    let mut noc = Noc::new(NocConfig {
        flit_bytes: 1,
        header_bytes: u32::MAX as usize + 1,
        ..NocConfig::soft(2, 2)
    });
    let _ = noc.try_inject(NodeId(0), msg(0, 3, 0));
}

/// Uniform random load on a 4x4: per node per cycle, one 5-flit message
/// with probability `rate`.
fn offer_uniform(noc: &mut Noc, rng: &mut apiary_sim::SimRng, rate: f64) {
    for src in 0..16u64 {
        if rng.gen_bool(rate) {
            let dst = (src + 1 + rng.gen_range(15)) % 16;
            let _ = noc.try_inject(NodeId(src as u16), msg(src as u16, dst as u16, 64));
        }
    }
}

/// Steps once, checks every law, and returns the tags delivered.
fn step_checked(noc: &mut Noc) -> Vec<u64> {
    noc.step();
    assert_eq!(noc.check_invariants(), Ok(()));
    (0..noc.mesh().nodes() as u16)
        .flat_map(|n| noc.drain_eject(NodeId(n)))
        .map(|d| d.msg.tag)
        .collect()
}

#[test]
fn link_kill_on_wrapped_rings_keeps_every_law() {
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    let mut rng = apiary_sim::SimRng::new(3);
    let mut handed_out = 0u64;
    // Load until the rings have wrapped: a front that moved off slot 0
    // has been all the way round or is on its way.
    for _ in 0..2_000 {
        offer_uniform(&mut noc, &mut rng, 0.15);
        handed_out += step_checked(&mut noc).len() as u64;
    }
    let wrapped = noc.fifo_head.iter().filter(|&&h| h != 0).count();
    assert!(wrapped >= 40, "only {wrapped} rings sit off slot 0");
    // Stop on a cycle with a flit on the doomed link, a buffered flit
    // that will reroute, and a partially streamed packet in a NIC.
    // (In flight on 5 -> East means in flight in node 6's West input rings.)
    let doomed = (6 * PORTS + Port::Dir(Direction::West).index()) * VCS;
    let ready = |noc: &Noc| {
        noc.fifo_fly[doomed..][..VCS].iter().any(|&fly| fly > 0)
            && noc.nic.iter().flatten().any(|e| e.next > 0)
    };
    while !ready(&noc) {
        offer_uniform(&mut noc, &mut rng, 0.15);
        handed_out += step_checked(&mut noc).len() as u64;
        assert!(noc.stats().cycles < 10_000, "load never reached the link");
    }
    let before = noc.stats().dropped();
    assert!(noc.kill_link(NodeId(5), Direction::East));
    assert_eq!(noc.check_invariants(), Ok(()));
    assert!(noc.stats().dropped() > before, "the kill flushes packets");
    // Traffic keeps flowing while the rest drains; then one message
    // whose XY route was the dead link must arrive over the detour.
    for _ in 0..500 {
        offer_uniform(&mut noc, &mut rng, 0.05);
        handed_out += step_checked(&mut noc).len() as u64;
    }
    let mut late = msg(5, 6, 64);
    late.tag = 4242;
    noc.try_inject(NodeId(5), late).expect("space");
    let mut late_arrivals = 0;
    while noc.pending() > 0 {
        let tags = step_checked(&mut noc);
        handed_out += tags.len() as u64;
        late_arrivals += tags.iter().filter(|&&t| t == 4242).count();
        assert!(noc.stats().cycles < 1_000_000, "network must always drain");
    }
    assert_eq!(
        late_arrivals, 1,
        "the detoured message arrives exactly once"
    );
    let st = noc.stats();
    assert_eq!(st.delivered, handed_out, "each delivery is handed out once");
    assert_eq!(st.delivered + st.dropped(), st.injected);
}

#[test]
fn no_progress_valve_purges_a_wedged_mesh() {
    // Stall every router for longer than the valve's window: nothing
    // can move, so the valve must purge what is buffered, leave every
    // law intact, and let fresh traffic through once the stalls lift.
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    let mut rng = apiary_sim::SimRng::new(5);
    for _ in 0..200 {
        offer_uniform(&mut noc, &mut rng, 0.15);
        step_checked(&mut noc);
    }
    assert!(noc.fifo_len.iter().any(|&l| l > 0) && noc.fifo_fly.iter().any(|&l| l > 0));
    for n in 0..16u16 {
        noc.stall_router(NodeId(n), 3 * DEADLOCK_WINDOW);
    }
    let wedged = noc.pending() as u64;
    assert!(wedged > 0);
    let before = noc.stats().clone();
    for _ in 0..DEADLOCK_WINDOW + 16 {
        step_checked(&mut noc);
    }
    let after = noc.stats().clone();
    assert_eq!(noc.pending(), 0, "the valve empties the network");
    // Flits already on a link still arrive and may eject; everything
    // else that was in flight is flushed and counted.
    let flushed = after.dropped_flushed - before.dropped_flushed;
    assert_eq!(flushed, wedged - (after.delivered - before.delivered));
    assert!(flushed > 0);
    assert!(noc.demand.iter().all(|&m| m == 0) && noc.fifo_len.iter().all(|&l| l == 0));
    assert!(noc.lock_in.iter().all(|&l| l == NO_LOCK));
    // Once the stalls lift the mesh carries traffic again.
    for _ in 0..3 * DEADLOCK_WINDOW {
        noc.step();
    }
    noc.try_inject(NodeId(0), msg(0, 15, 64)).expect("space");
    while noc.pending() > 0 {
        step_checked(&mut noc);
    }
    assert_eq!(noc.stats().delivered, after.delivered + 1);
}

#[test]
fn golden_chaos_run_matches_the_parent_commit() {
    // Fixed-seed uniform load (the `noc_uniform` shape) on an 8x8 under
    // a busy chaos plane plus one scripted link death. Every expected
    // value was captured on the commit before the flat layout, so a
    // slip in ring, delay-line or packet-table indexing fails here.
    use crate::fault::FaultEvent;
    let got = {
        let mut plane = FaultPlane::new(2024, 0.01);
        plane.schedule(
            Cycle(5_000),
            FaultEvent::LinkDown {
                node: NodeId(27),
                dir: Direction::East,
                heal_after: None,
            },
        );
        let mut noc = Noc::new(NocConfig::soft(8, 8));
        noc.install_fault_plane(plane);
        let mut rng = apiary_sim::SimRng::new(7);
        for _ in 0..20_000 {
            for src in 0..64u64 {
                if rng.gen_bool(0.08) {
                    let dst = (src + 1 + rng.gen_range(63)) % 64;
                    let bytes = if rng.gen_bool(0.2) { 64 } else { 8 };
                    let _ = noc.try_inject(NodeId(src as u16), msg(src as u16, dst as u16, bytes));
                }
            }
            step_checked(&mut noc);
        }
        let st = noc.stats();
        assert_eq!(
            noc.fault_plane()
                .expect("installed")
                .stats()
                .corrupted_flits,
            105
        );
        [
            st.injected,
            st.delivered,
            st.rejected,
            st.flit_hops,
            st.flits_ejected,
            st.cycles,
            st.corrupted_flits,
            st.dropped_corrupt,
            st.dropped_unreachable,
            st.dropped_flushed,
            st.link_faults,
            st.router_stalls,
            st.latency.count(),
            st.latency.p50(),
            st.latency.p99(),
            noc.pending() as u64,
        ]
    };
    let golden = [
        42_658, 38_558, 59_782, 553_820, 105_304, 20_000, 4_837, 1_935, 0, 1_443, 206, 102, 38_558,
        27, 768, 722,
    ];
    assert_eq!(got, golden);
}

#[test]
fn router_stall_delays_but_delivers() {
    let mut base = Noc::new(NocConfig::soft(4, 1));
    base.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
    base.run_until_quiescent(10_000);
    let unstalled = base.poll_eject(NodeId(3)).expect("delivered").latency();

    let mut noc = Noc::new(NocConfig::soft(4, 1));
    noc.stall_router(NodeId(1), 300);
    noc.try_inject(NodeId(0), msg(0, 3, 64)).expect("space");
    assert!(noc.run_until_quiescent(100_000));
    let stalled = noc.poll_eject(NodeId(3)).expect("delivered").latency();
    assert!(
        stalled >= unstalled + 250,
        "stalled={stalled} unstalled={unstalled}"
    );
    assert_eq!(noc.stats().dropped(), 0);
}

#[test]
fn chaos_plane_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        noc.install_fault_plane(FaultPlane::new(seed, 0.02));
        let mut delivered_tags = Vec::new();
        for round in 0..400u64 {
            for s in 0..16u16 {
                let mut m = msg(s, ((s as u64 + round) % 16) as u16, 48);
                m.tag = round << 16 | s as u64;
                let _ = noc.try_inject(NodeId(s), m);
            }
            for _ in 0..8 {
                noc.step();
            }
            for n in 0..16u16 {
                for d in noc.drain_eject(NodeId(n)) {
                    delivered_tags.push(d.msg.tag);
                }
            }
        }
        assert!(noc.run_until_quiescent(2_000_000), "chaos must not hang");
        for n in 0..16u16 {
            for d in noc.drain_eject(NodeId(n)) {
                delivered_tags.push(d.msg.tag);
            }
        }
        let st = noc.stats().clone();
        assert_eq!(st.delivered + st.dropped(), st.injected);
        (
            delivered_tags,
            st.delivered,
            st.dropped(),
            st.corrupted_flits,
        )
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a, b, "same seed, same chaos run");
    let c = run(12);
    assert_ne!(a.0, c.0, "different seed, different run");
    assert!(a.2 > 0, "a 2% plane must actually drop something");
    assert!(a.1 > 0, "most traffic still gets through");
}

#[test]
fn active_set_survives_purges_and_reroutes() {
    // purge_packet edits the request sets and the landing schedule the
    // active-set scans read; a kill mid-flight exercises that path. The
    // run must still drain and stay accounted.
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    for s in 0..16u16 {
        let _ = noc.try_inject(NodeId(s), msg(s, (s + 7) % 16, 400));
    }
    for _ in 0..10 {
        noc.step();
    }
    noc.kill_link(NodeId(1), Direction::East);
    noc.kill_link(NodeId(5), Direction::North);
    assert!(noc.run_until_quiescent(1_000_000));
    let st = noc.stats().clone();
    assert_eq!(st.delivered + st.dropped(), st.injected);
    let handed_out: usize = (0..16u16).map(|n| noc.drain_eject(NodeId(n)).len()).sum();
    assert_eq!(handed_out as u64, st.delivered);
}
