use super::*;
use crate::packet::TrafficClass;

fn msg(src: u16, dst: u16, bytes: usize) -> Message {
    Message::new(
        NodeId(src),
        NodeId(dst),
        TrafficClass::Request,
        vec![0xAB; bytes],
    )
}

#[test]
fn single_message_crosses_mesh() {
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    noc.try_inject(NodeId(0), msg(0, 15, 32)).expect("space");
    assert!(noc.run_until_quiescent(10_000));
    let d = noc.poll_eject(NodeId(15)).expect("delivered");
    assert_eq!(d.msg.src, NodeId(0));
    assert_eq!(d.msg.payload.len(), 32);
    assert!(d.latency() > 0);
}

#[test]
fn loopback_delivery() {
    let mut noc = Noc::new(NocConfig::soft(2, 2));
    noc.try_inject(NodeId(3), msg(3, 3, 8)).expect("space");
    assert!(noc.run_until_quiescent(1_000));
    assert!(noc.poll_eject(NodeId(3)).is_some());
}

#[test]
fn src_forgery_rejected() {
    let mut noc = Noc::new(NocConfig::soft(2, 2));
    assert_eq!(
        noc.try_inject(NodeId(0), msg(1, 2, 8)),
        Err(InjectError::SrcMismatch)
    );
}

#[test]
fn bad_destination_rejected() {
    let mut noc = Noc::new(NocConfig::soft(2, 2));
    assert_eq!(
        noc.try_inject(NodeId(0), msg(0, 99, 8)),
        Err(InjectError::BadDestination)
    );
}

#[test]
fn queue_fills_and_backpressures() {
    let mut noc = Noc::new(NocConfig::soft(2, 2));
    let q = noc.config().inject_queue;
    for _ in 0..q {
        noc.try_inject(NodeId(0), msg(0, 3, 8)).expect("space");
    }
    assert_eq!(
        noc.try_inject(NodeId(0), msg(0, 3, 8)),
        Err(InjectError::QueueFull)
    );
    assert_eq!(noc.stats().rejected, 1);
}

#[test]
fn latency_grows_with_distance() {
    let cfg = NocConfig::soft(8, 1);
    let mut near = Noc::new(cfg);
    near.try_inject(NodeId(0), msg(0, 1, 8)).expect("space");
    near.run_until_quiescent(1_000);
    let near_lat = near.poll_eject(NodeId(1)).expect("delivered").latency();

    let mut far = Noc::new(cfg);
    far.try_inject(NodeId(0), msg(0, 7, 8)).expect("space");
    far.run_until_quiescent(1_000);
    let far_lat = far.poll_eject(NodeId(7)).expect("delivered").latency();
    assert!(far_lat > near_lat, "{far_lat} !> {near_lat}");
}

#[test]
fn large_message_latency_scales_with_flits() {
    let cfg = NocConfig::soft(4, 4);
    let mut a = Noc::new(cfg);
    a.try_inject(NodeId(0), msg(0, 15, 16)).expect("space");
    a.run_until_quiescent(10_000);
    let small = a.poll_eject(NodeId(15)).expect("delivered").latency();

    let mut b = Noc::new(cfg);
    b.try_inject(NodeId(0), msg(0, 15, 1024)).expect("space");
    b.run_until_quiescent(10_000);
    let big = b.poll_eject(NodeId(15)).expect("delivered").latency();
    // 1024 B at 16 B/flit is ~64 more flits of serialisation.
    assert!(big >= small + 60, "big={big} small={small}");
}

#[test]
fn many_messages_all_deliver_exactly_once() {
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    let n = noc.mesh().nodes() as u16;
    let mut sent = 0u64;
    // Every node sends to every other node, paced by queue capacity.
    for round in 0..4 {
        for s in 0..n {
            let d = (s + 1 + round) % n;
            if noc.try_inject(NodeId(s), msg(s, d, 40)).is_ok() {
                sent += 1;
            }
        }
        for _ in 0..50 {
            noc.step();
            assert_eq!(noc.check_invariants(), Ok(()));
        }
    }
    assert!(noc.run_until_quiescent(100_000));
    assert_eq!(noc.check_invariants(), Ok(()));
    let total: u64 = (0..n)
        .map(|i| noc.drain_eject(NodeId(i)).len() as u64)
        .sum();
    assert_eq!(total, sent);
    assert_eq!(noc.stats().delivered, sent);
}

#[test]
fn per_source_fifo_order_within_class() {
    let mut noc = Noc::new(NocConfig::soft(4, 1));
    // Tag messages with a sequence number in the payload.
    for i in 0..6u8 {
        let mut m = msg(0, 3, 24);
        m.payload.make_mut()[0] = i;
        m.tag = i as u64;
        noc.try_inject(NodeId(0), m).expect("space");
    }
    assert!(noc.run_until_quiescent(10_000));
    let got = noc.drain_eject(NodeId(3));
    let tags: Vec<u64> = got.iter().map(|d| d.msg.tag).collect();
    assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn control_class_beats_bulk_under_load() {
    let mut noc = Noc::new(NocConfig::soft(8, 1));
    // Saturate the path 0 -> 7 with bulk traffic.
    for _ in 0..8 {
        let mut m = msg(0, 7, 512);
        m.class = TrafficClass::Bulk;
        let _ = noc.try_inject(NodeId(0), m);
    }
    // Let bulk get going.
    for _ in 0..20 {
        noc.step();
    }
    // Now a control message on the same path.
    let mut c = msg(0, 7, 16);
    c.class = TrafficClass::Control;
    c.tag = 777;
    noc.try_inject(NodeId(0), c).expect("space");
    assert!(noc.run_until_quiescent(100_000));
    let got = noc.drain_eject(NodeId(7));
    let ctrl = got.iter().find(|d| d.msg.tag == 777).expect("delivered");
    let bulk_max = got
        .iter()
        .filter(|d| d.msg.class == TrafficClass::Bulk)
        .map(|d| d.delivered_at)
        .max()
        .expect("bulk delivered");
    // Control overtakes at least the tail of the bulk burst.
    assert!(ctrl.delivered_at < bulk_max);
}

#[test]
fn hardened_noc_is_faster() {
    let mut soft = Noc::new(NocConfig::soft(8, 8));
    soft.try_inject(NodeId(0), msg(0, 63, 256)).expect("space");
    soft.run_until_quiescent(100_000);
    let s = soft.poll_eject(NodeId(63)).expect("delivered").latency();

    let mut hard = Noc::new(NocConfig::hardened(8, 8));
    hard.try_inject(NodeId(0), msg(0, 63, 256)).expect("space");
    hard.run_until_quiescent(100_000);
    let h = hard.poll_eject(NodeId(63)).expect("delivered").latency();
    assert!(h < s, "hardened {h} !< soft {s}");
}

#[test]
fn stats_counters_consistent() {
    let mut noc = Noc::new(NocConfig::soft(3, 3));
    for s in 0..9u16 {
        let _ = noc.try_inject(NodeId(s), msg(s, (s + 4) % 9, 64));
    }
    assert!(noc.run_until_quiescent(50_000));
    let st = noc.stats();
    assert_eq!(st.injected, st.delivered);
    assert_eq!(st.latency.count(), st.delivered);
    assert!(st.flits_ejected >= st.delivered);
    assert_eq!(noc.pending(), 0);
}
