//! The lone flight's closed form against stepping. One NoC crosses time
//! with `skip_to` wherever it is quiet, its twin only with `step()`; after
//! every skip they must agree on everything a caller can see, and on every
//! field of the state whenever no flight is open.

use super::*;
use crate::fault::FaultPlaneConfig;
use proptest::prelude::*;

/// Everything a `&self` caller can read while a flight is open.
fn seen(noc: &Noc) -> String {
    let nodes = (0..noc.mesh.nodes() as u16).map(NodeId);
    let space: Vec<usize> = nodes
        .flat_map(|n| TrafficClass::ALL.map(|class| noc.inject_space(n, class)))
        .collect();
    let ejected: Vec<_> = (noc.eject_q.iter().flatten())
        .map(|d| (&d.msg, d.injected_at, d.delivered_at))
        .collect();
    format!(
        "{:?} {:?} {:?} pending={} rx={} space={space:?} {ejected:?} {:?}",
        noc.now(),
        noc.stats(),
        noc.link_flits,
        noc.pending(),
        noc.rx_pending_total(),
        noc.link_utilization(),
    )
}

/// Every field of the state but the slab's dead slots and the flight
/// itself. Destructured, so a field added to `Noc` fails to compile here
/// until it is placed.
fn state(noc: &Noc) -> String {
    let Noc {
        cfg: _,
        mesh: _,
        now,
        fifo: _,
        fifo_head,
        fifo_len,
        fifo_fly,
        credit,
        fifo_out,
        req,
        demand,
        lock_in,
        lock_owner,
        rr,
        due,
        credit_returns,
        nic,
        packets,
        dropped_in_flight,
        eject_q,
        rx_pending,
        next_packet,
        stats,
        link_flits,
        routes,
        dead_links,
        link_down_until,
        stall_until,
        fault_plane,
        last_progress,
        nic_occ,
        feeds: _,
        lone: _,
    } = noc;
    let held: Vec<Vec<&Flit>> = (0..fifo_len.len())
        .map(|f| noc.ring_flits(f).collect())
        .collect();
    format!(
        "{now:?} {held:?} {fifo_head:?} {fifo_len:?} {fifo_fly:?} {credit:?} {fifo_out:?} \
         {req:?} {demand:?} {lock_in:?} {lock_owner:?} {rr:?} {due:?} {credit_returns:?} \
         {nic:?} {packets:?} {dropped_in_flight} {eject_q:?} {rx_pending} {next_packet} \
         {stats:?} {link_flits:?} {routes:?} {dead_links:?} {link_down_until:?} \
         {stall_until:?} {fault_plane:?} {last_progress} {nic_occ:?}"
    )
}

fn message(src: u16, dst: u16, class: usize, bytes: usize) -> Message {
    let class = TrafficClass::ALL[class];
    Message::new(NodeId(src), NodeId(dst), class, vec![0x5A; bytes])
}

/// What interrupts the flight, pulled on both twins on the same cycle.
fn pull(noc: &mut Noc, lever: u8, src: u16, dst: u16) {
    let n = noc.mesh.nodes();
    let out = noc.routes[src as usize * n + dst as usize] as usize;
    let dir = DIRS[out.saturating_sub(1)];
    match lever {
        0 => {
            let second = (src + 1) % n as u16;
            let _ = noc.try_inject(NodeId(second), message(second, dst, 2, 48));
        }
        1 => {
            noc.kill_link(NodeId(src), dir);
        }
        2 => {
            noc.fail_link_for(NodeId(src), dir, 30);
        }
        3 => noc.stall_router(NodeId(dst), 20),
        _ => noc.install_fault_plane(FaultPlane::new(FaultPlaneConfig::with_rate(7, 0.05))),
    }
}

/// Brings both twins to `to`: `skipped` by `skip_to` while it is quiet and
/// by `step()` otherwise, `stepped` by `step()` only. Then holds them to
/// each other.
fn drive(skipped: &mut Noc, stepped: &mut Noc, to: Cycle) {
    let shallow = skipped.cfg.vc_buffer < skipped.cfg.hop_latency as usize + 2;
    while skipped.now() < to {
        if shallow && skipped.pending() > 0 {
            assert_eq!(skipped.quiet_until(), None, "a shallow-buffered flight");
        }
        let before = skipped.now();
        if skipped.skip_to(to) == before {
            assert!(
                skipped.quiet_until().is_none(),
                "a quiet network refused a skip"
            );
            skipped.step();
            assert!(skipped.lone.is_none(), "a lone flight open after step()");
        }
    }
    while stepped.now() < to {
        stepped.step();
        assert!(stepped.lone.is_none(), "a lone flight open after step()");
    }
    skipped.check_invariants();
    stepped.check_invariants();
    assert_eq!(seen(skipped), seen(stepped), "observers disagree at {to:?}");
    if skipped.lone.is_none() {
        assert_eq!(state(skipped), state(stepped), "states disagree at {to:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_lone_flight_is_where_stepping_puts_it(
        (width, height, hop_latency, vc_buffer, vcs) in
            (1u8..=6, 1u8..=6, 0usize..3, 1usize..=6, 3usize..=4),
        (class, bytes, src, dst) in (0usize..3, 0usize..1100, 0u16..36, 0u16..36),
        gaps in prop::collection::vec(0u64..40, 1..12),
        (warm, at, lever) in (0u16..3, 0u64..200, 0u8..6),
    ) {
        let cfg = NocConfig {
            vcs,
            vc_buffer,
            hop_latency: [0, 1, 3][hop_latency],
            ..NocConfig::soft(width, height)
        };
        let nodes = cfg.nodes() as u16;
        let (src, dst) = (src % nodes, dst % nodes);
        let mut skipped = Noc::new(cfg);
        let mut stepped = Noc::new(cfg);
        // Earlier traffic moves ring heads, round-robin pointers, lock
        // owners and the table's free list off their reset values.
        for i in 0..warm {
            let (from, to) = ((src + i) % nodes, (dst + 2 * i) % nodes);
            for noc in [&mut skipped, &mut stepped] {
                noc.try_inject(NodeId(from), message(from, to, class, 40 * i as usize))
                    .expect("an empty queue");
                assert!(noc.run_until_quiescent(10_000));
            }
        }
        for noc in [&mut skipped, &mut stepped] {
            noc.try_inject(NodeId(src), message(src, dst, class, bytes))
                .expect("an empty queue");
        }
        let deep = cfg.vc_buffer >= cfg.hop_latency as usize + 2;
        let lands = skipped.quiet_until();
        prop_assert_eq!(lands.is_some(), deep, "a lone flight opens iff credits never throttle it");
        let t0 = skipped.now();
        let mut lever = (lever < 5).then_some((t0 + at, lever));
        let mut target = t0;
        for gap in gaps {
            target += gap;
            if let Some((when, which)) = lever.filter(|&(when, _)| when <= target) {
                drive(&mut skipped, &mut stepped, when);
                pull(&mut skipped, which, src, dst);
                pull(&mut stepped, which, src, dst);
                lever = None;
                drive(&mut skipped, &mut stepped, when);
            }
            drive(&mut skipped, &mut stepped, target);
        }
        // Past every delivery: the flight has landed where stepping lands it.
        let end = lands.filter(|&d| d != Cycle::MAX).unwrap_or(target).max(target) + 300;
        drive(&mut skipped, &mut stepped, end);
        prop_assert!(skipped.lone.is_none());
    }
}

#[test]
fn a_lone_flight_is_due_when_its_tail_lands() {
    // 4x4 soft NoC: 0 -> 5 is two hops of hop_latency 1; 40 payload bytes
    // and a 16-byte header make four 16-byte flits.
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    noc.try_inject(NodeId(0), message(0, 5, 1, 40))
        .expect("space");
    let d = Cycle(1 + 4 + 2 * 2);
    assert_eq!(noc.quiet_until(), Some(d));
    assert_eq!(noc.skip_to(Cycle(3)), Cycle(3));
    assert_eq!(noc.inject_space(NodeId(0), TrafficClass::Request), 7);
    assert_eq!(noc.skip_to(Cycle(6)), Cycle(6));
    noc.check_invariants();
    // Flit k leaves router j at 2 + k + 2j: the head ejects at node 5 now,
    // and the NIC let go of the tail at cycle 4.
    let st = noc.stats();
    assert_eq!((st.flits_ejected, st.flit_hops), (1, 4 + 3));
    assert_eq!(noc.inject_space(NodeId(0), TrafficClass::Request), 8);
    assert_eq!(noc.skip_to(Cycle(100)), Cycle(100));
    let got = noc.poll_eject(NodeId(5)).expect("delivered");
    assert_eq!((got.delivered_at, got.latency()), (d, 9));
    assert_eq!(noc.stats().flit_hops, 8);
    assert_eq!(noc.quiet_until(), Some(Cycle::MAX));
}
