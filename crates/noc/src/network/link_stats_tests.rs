use super::*;
use crate::packet::TrafficClass;

#[test]
fn link_utilization_sums_to_flit_hops() {
    let mut noc = Noc::new(NocConfig::soft(4, 4));
    for s in 0..16u16 {
        let d = (s + 5) % 16;
        if s == d {
            continue;
        }
        let _ = noc.try_inject(
            NodeId(s),
            Message::new(NodeId(s), NodeId(d), TrafficClass::Request, vec![0; 100]),
        );
    }
    assert!(noc.run_until_quiescent(100_000));
    let cycles = noc.stats().cycles as f64;
    let total: f64 = noc
        .link_utilization()
        .iter()
        .map(|(_, _, u)| u * cycles)
        .sum();
    assert_eq!(total.round() as u64, noc.stats().flit_hops);
}

#[test]
fn hot_path_shows_up_in_utilization() {
    let mut noc = Noc::new(NocConfig::soft(4, 1));
    // Stream 0 -> 3 along the row.
    for _ in 0..8 {
        let _ = noc.try_inject(
            NodeId(0),
            Message::new(NodeId(0), NodeId(3), TrafficClass::Bulk, vec![0; 512]),
        );
    }
    assert!(noc.run_until_quiescent(100_000));
    let hot = noc.link_utilization();
    // The hottest links are the eastward hops of the stream.
    let (node, dir, util) = hot[0];
    assert_eq!(dir, Direction::East);
    assert!(node == NodeId(0) || node == NodeId(1) || node == NodeId(2));
    assert!(util > 0.1, "{util}");
    // Edge links (mesh boundary) never appear.
    assert!(hot
        .iter()
        .all(|(n, d, _)| noc.mesh().neighbor(*n, *d).is_some()));
}
