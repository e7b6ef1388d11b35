//! Flights' closed form against stepping. One NoC crosses time with
//! `skip_to` wherever it is quiet, its twin only with `step()`; after every
//! skip they must agree on everything a caller can see, and on every field
//! of the state right after each settle and whenever no flight is open.

use super::*;
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
        noc.link_counts(),
        noc.pending(),
        noc.rx_pending_total(),
        noc.link_utilization(),
    )
}

/// Every field of the state but the slab's dead slots and the flights
/// themselves. Destructured, so a field added to `Noc` fails to compile here
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
        flights: _,
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

/// What interrupts the flights, pulled on both twins on the same cycle.
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
        _ => noc.install_fault_plane(FaultPlane::new(7, 0.05)),
    }
}

/// Holds the twins to each other: their laws, everything a caller can see
/// and, whenever no flight is open (so right after every settle), every
/// field of the state.
fn agree(skipped: &Noc, stepped: &Noc) {
    assert_eq!(skipped.check_invariants(), Ok(()));
    assert_eq!(stepped.check_invariants(), Ok(()));
    let at = skipped.now();
    assert_eq!(seen(skipped), seen(stepped), "observers disagree at {at:?}");
    if !skipped.flying() {
        assert_eq!(state(skipped), state(stepped), "states disagree at {at:?}");
    }
}

/// Brings both twins to `to`: `skipped` by `skip_to` while it is quiet and
/// by `step()` otherwise, `stepped` by `step()` only, agreeing after every
/// skip and at `to`.
fn drive(skipped: &mut Noc, stepped: &mut Noc, to: Cycle) {
    let shallow = skipped.cfg.vc_buffer < skipped.cfg.hop_latency as usize + 2;
    let catch_up = |skipped: &Noc, stepped: &mut Noc| {
        while stepped.now() < skipped.now() {
            stepped.step();
            assert!(!stepped.flying(), "a flight open after step()");
        }
        agree(skipped, stepped);
    };
    while skipped.now() < to {
        assert!(!(shallow && skipped.flying()), "a shallow-buffered flight");
        let before = skipped.now();
        if skipped.skip_to(to) > before {
            catch_up(skipped, stepped);
            continue;
        }
        assert!(
            skipped.quiet_until().is_none(),
            "a quiet network refused a skip"
        );
        skipped.step();
        assert!(!skipped.flying(), "a flight open after step()");
    }
    catch_up(skipped, stepped);
}

/// One source's packets: `(dst, class, payload bytes, cycle)` each. A
/// `dst` past the mesh names the shared hot node, so that routes collide;
/// odd sizes become 40 bytes and cycles fall on a grid of 8, so that
/// packets of equal length start together and land on one cycle.
type Source = (u16, Vec<(u16, usize, usize, u64)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flights_are_where_stepping_puts_them(
        (width, height, hop_latency, vc_buffer) in
            (1u8..=6, 1u8..=6, 0usize..3, 1usize..=6),
        sources in prop::collection::vec(
            (0u16..36, prop::collection::vec((0u16..48, 0usize..3, 0usize..1100, 0u64..12), 1..=4)),
            1..=6,
        ),
        (hot, gaps) in (0u16..36, prop::collection::vec(1u64..40, 1..12)),
        (warm, at, lever, inject_queue) in (0u16..3, 0u64..200, 0u8..6, 1usize..=4),
    ) {
        let cfg = NocConfig {
            vc_buffer,
            inject_queue,
            hop_latency: [0, 1, 3][hop_latency],
            ..NocConfig::soft(width, height)
        };
        let nodes = cfg.nodes() as u16;
        let sources: Vec<Source> = sources;
        let mut sends: Vec<(u64, u16, u16, usize, usize)> = Vec::new();
        for (src, packets) in &sources {
            for &(dst, class, bytes, at) in packets {
                let dst = if dst >= 36 { hot } else { dst };
                let bytes = if bytes % 2 == 1 { 40 } else { bytes };
                sends.push((8 * at, src % nodes, dst % nodes, class, bytes));
            }
        }
        sends.sort_by_key(|s| s.0);
        let (src, dst) = (sends[0].1, sends[0].2);
        let mut skipped = Noc::new(cfg);
        let mut stepped = Noc::new(cfg);
        // Earlier traffic moves ring heads, round-robin pointers and the
        // table's free list off their reset values.
        for i in 0..warm {
            let (from, to) = ((src + i) % nodes, (dst + 2 * i) % nodes);
            for noc in [&mut skipped, &mut stepped] {
                noc.try_inject(NodeId(from), message(from, to, 1, 40 * i as usize))
                    .expect("an empty queue");
                assert!(noc.run_until_quiescent(10_000));
            }
        }
        let t0 = skipped.now();
        let deep = cfg.vc_buffer >= cfg.hop_latency as usize + 2;
        let mut lever = (lever < 5).then_some((t0 + at, lever));
        let levered = lever.is_some();
        // Skip targets between the injections.
        let mut stops: Vec<Cycle> = gaps.iter().scan(t0, |t, gap| {
            *t += *gap;
            Some(*t)
        }).collect();
        stops.sort();
        let mut stops = stops.into_iter().peekable();
        for (i, &(at, from, to, class, bytes)) in sends.iter().enumerate() {
            let at = t0 + at;
            while let Some(stop) = stops.next_if(|&s| s < at) {
                drive(&mut skipped, &mut stepped, stop);
            }
            if let Some((when, which)) = lever.filter(|&(when, _)| when <= at) {
                drive(&mut skipped, &mut stepped, when);
                pull(&mut skipped, which, src, dst);
                pull(&mut stepped, which, src, dst);
                lever = None;
                agree(&skipped, &stepped);
            }
            drive(&mut skipped, &mut stepped, at);
            let a = skipped.try_inject(NodeId(from), message(from, to, class, bytes));
            let b = stepped.try_inject(NodeId(from), message(from, to, class, bytes));
            prop_assert_eq!(a, b);
            if i == 0 && lever.is_some() == levered {
                prop_assert_eq!(skipped.flying(), deep, "a flight opens iff credits never throttle it");
            }
            agree(&skipped, &stepped);
        }
        for stop in stops {
            drive(&mut skipped, &mut stepped, stop);
        }
        if let Some((when, which)) = lever {
            drive(&mut skipped, &mut stepped, when);
            pull(&mut skipped, which, src, dst);
            pull(&mut stepped, which, src, dst);
            agree(&skipped, &stepped);
        }
        // Past every delivery: each packet has landed where stepping lands it.
        let mut end = skipped.now();
        while skipped.pending() > 0 || stepped.pending() > 0 {
            prop_assert!(end < t0 + 100_000, "traffic outlived 100k cycles");
            end += 300;
            drive(&mut skipped, &mut stepped, end);
        }
        drive(&mut skipped, &mut stepped, end + 300);
        prop_assert!(!skipped.flying());
    }
}

/// Brings `[read, unread, stepped]` to `to`: the first two by `skip_to`
/// where they are quiet and by `step()` elsewhere, the third by `step()`
/// only, reading nothing on the way.
fn reach(nocs: &mut [Noc; 3], to: Cycle) {
    let [read, unread, stepped] = nocs;
    for noc in [read, unread] {
        while noc.now() < to {
            let before = noc.now();
            if noc.skip_to(to) == before {
                noc.step();
            }
        }
    }
    while stepped.now() < to {
        stepped.step();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The flights' share of the counters is added when they are read, so
    /// a read is pure: one read at a random cycle while flights are open
    /// sees what the stepped twin counts, and leaves the skipped NoC where
    /// an unread one ends.
    #[test]
    fn reading_the_counters_mid_flight_changes_nothing(
        (width, height, hop_latency) in (1u8..=5, 1u8..=5, 0usize..3),
        sends in prop::collection::vec(
            (0u16..25, 0u16..25, 0usize..3, 200usize..900, 0u64..4),
            1..=4,
        ),
        read_at in 0u64..48,
    ) {
        let cfg = NocConfig {
            vc_buffer: 6,
            hop_latency: [0, 1, 3][hop_latency],
            ..NocConfig::soft(width, height)
        };
        let nodes = cfg.nodes() as u16;
        let mut sends: Vec<_> = sends
            .into_iter()
            .map(|(src, dst, class, bytes, at)| (8 * at, src % nodes, dst % nodes, class, bytes))
            .collect();
        sends.sort_by_key(|s| s.0);
        let mut nocs = [(); 3].map(|_| Noc::new(cfg));
        // The read happens before the first send after `read_at`, or after
        // the last send.
        let read_before = sends.iter().position(|s| s.0 > read_at).unwrap_or(sends.len());
        for (i, &(at, from, to, class, bytes)) in sends.iter().enumerate() {
            if i == read_before {
                read_mid_flight(&mut nocs, Cycle(read_at));
            }
            reach(&mut nocs, Cycle(at));
            for noc in &mut nocs {
                let _ = noc.try_inject(NodeId(from), message(from, to, class, bytes));
            }
        }
        if read_before == sends.len() {
            read_mid_flight(&mut nocs, Cycle(read_at));
        }
        let mut end = nocs[0].now();
        while nocs.iter().any(|noc| noc.pending() > 0) {
            prop_assert!(end < Cycle(100_000), "traffic outlived 100k cycles");
            end += 300;
            reach(&mut nocs, end);
        }
        let [read, unread, stepped] = &nocs;
        prop_assert_eq!(state(read), state(unread));
        prop_assert_eq!(seen(read), seen(unread));
        prop_assert_eq!(seen(read), seen(stepped));
    }
}

/// Brings the three NoCs to `at` and, if flights are open there, reads
/// the first one's counters and holds them to the stepped twin's.
fn read_mid_flight(nocs: &mut [Noc; 3], at: Cycle) {
    reach(nocs, at);
    let [read, _, stepped] = &*nocs;
    if read.flying() {
        assert_eq!(
            format!("{:?}", read.stats()),
            format!("{:?}", stepped.stats())
        );
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
    assert_eq!(noc.check_invariants(), Ok(()));
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

#[test]
fn same_cycle_landings_go_in_node_order() {
    // 0 -> 1 and 2 -> 3 on the soft 4x4: four flits and one hop each, so
    // both tails eject on cycle 1 + 4 + 2. The switch ejects node 1's
    // first, which frees its table slot first.
    let cfg = NocConfig::soft(4, 4);
    let (mut skipped, mut stepped) = (Noc::new(cfg), Noc::new(cfg));
    for noc in [&mut skipped, &mut stepped] {
        for (src, dst) in [(2, 3), (0, 1)] {
            noc.try_inject(NodeId(src), message(src, dst, 1, 40))
                .expect("space");
        }
    }
    assert_eq!(skipped.quiet_until(), Some(Cycle(7)));
    drive(&mut skipped, &mut stepped, Cycle(20));
    let landed = |noc: &mut Noc, node| noc.poll_eject(NodeId(node)).map(|d| d.delivered_at);
    for noc in [&mut skipped, &mut stepped] {
        assert_eq!([landed(noc, 1), landed(noc, 3)], [Some(Cycle(7)); 2]);
    }
    assert_eq!(state(&skipped), state(&stepped));
}
