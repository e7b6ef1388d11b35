use super::*;
use crate::directory::DirEntry;
use apiary_cap::ServiceId;
use apiary_noc::NodeId;
use apiary_sim::{Payload, SimRng};

fn msg(src: u16, dst: u16, tag: u64) -> ClusterMsg {
    ClusterMsg {
        src,
        dst,
        body: Body::Invoke {
            service: 7,
            tag,
            payload: vec![1, 2, 3],
        },
    }
}

/// `m` as the fabric delivers it.
fn landed(m: &ClusterMsg) -> MsgView {
    MsgView::parse(&m.encode().into()).expect("a well-formed frame")
}

fn run(f: &mut Fabric, from: Cycle, cycles: u64) -> Vec<MsgView> {
    let mut out = Vec::new();
    for c in 0..cycles {
        out.extend(f.step(Cycle(from.0 + c)).0);
    }
    out
}

#[test]
fn codec_round_trips() {
    for m in [
        msg(0, 3, 42),
        ClusterMsg {
            src: 2,
            dst: 0,
            body: Body::Reply {
                tag: 9,
                is_error: true,
                payload: vec![5],
            },
        },
        ClusterMsg {
            src: 1,
            dst: 2,
            body: Body::Gossip {
                entries: vec![DirEntry {
                    name: "kv".into(),
                    home: 1,
                    node: NodeId(4),
                    service: ServiceId(7),
                    version: 3,
                    expires_at: Cycle(500),
                    withdrawn: false,
                }],
            },
        },
        ClusterMsg {
            src: 0,
            dst: 1,
            body: Body::Migrate {
                service: 12,
                name: "kv-a".into(),
                snapshot: vec![0xAB; 100],
            },
        },
    ] {
        assert_eq!(ClusterMsg::decode(&m.encode()), Some(m));
    }
    assert_eq!(ClusterMsg::decode(&[1, 2, 3]), None);
    // Truncated and trailing-byte migrate frames are rejected.
    let enc = ClusterMsg {
        src: 0,
        dst: 1,
        body: Body::Migrate {
            service: 1,
            name: "x".into(),
            snapshot: vec![1, 2, 3],
        },
    }
    .encode();
    assert_eq!(enc[4], 3, "a migration keeps wire tag 3");
    assert_eq!(ClusterMsg::decode(&enc[..enc.len() - 1]), None);
    let mut trailing = enc.clone();
    trailing.push(0);
    assert_eq!(ClusterMsg::decode(&trailing), None);
}

#[test]
fn links_sit_where_link_index_looks() {
    for (topology, boards) in [
        (Topology::Star, 1),
        (Topology::Star, 5),
        (Topology::FullMesh, 2),
        (Topology::FullMesh, 5),
    ] {
        let f = Fabric::new(
            boards,
            FabricConfig {
                topology,
                ..FabricConfig::default()
            },
        );
        assert!(f.links.windows(2).all(|w| w[0].key < w[1].key));
        for (i, l) in f.links.iter().enumerate() {
            assert_eq!(f.link_index(l.key.0, l.key.1), Some(i), "{:?}", l.key);
        }
        assert_eq!(f.link_index(boards, 0), None);
        assert_eq!(f.link_index(0, 0), None);
    }
    let star = Fabric::new(3, FabricConfig::default());
    assert_eq!(
        star.link_index(0, 1),
        None,
        "a star has no board-to-board link"
    );
}

#[test]
fn tor_switches_onto_an_idle_downlink_in_the_arrival_cycle() {
    let mut f = Fabric::new(2, FabricConfig::default());
    f.send(&msg(0, 1, 1));
    let up = f.link_index(0, TOR).expect("uplink");
    let down = f.link_index(TOR, 1).expect("downlink");
    // The invoke leaves on cycle 0; nothing has reached the switch before
    // its arrival cycle.
    f.catch_up(Cycle::ZERO);
    let at_switch = f.links[up].data.next_due().expect("on the uplink");
    f.catch_up(Cycle(at_switch.0 - 1));
    assert_eq!(f.links[up].rx.expected(), 0);
    assert_eq!(f.due[down], Cycle::MAX);
    // On that cycle the downlink was not due when the cycle began, yet the
    // frame is already past its backlog and on its wire.
    f.catch_up(at_switch);
    assert_eq!(f.links[up].rx.expected(), 1);
    assert!(f.links[down].backlog.is_empty());
    assert_eq!(f.links[down].data.in_flight(), 1);
    assert_eq!(f.check_invariants(), Ok(()));
}

/// On an otherwise idle star the delivery bound is exact from the moment
/// of the send: the frame's own serialisation on both hops plus two
/// propagation delays, and the fabric is stepped only to deliver.
#[test]
fn an_idle_star_posts_the_exact_delivery_cycle() {
    let mut f = Fabric::new(2, FabricConfig::default());
    f.catch_up(Cycle(9));
    f.send(&msg(0, 1, 1));
    let link = LinkConfig::default();
    let ser = (msg(0, 1, 1).encode().len() as u64 + 42).div_ceil(link.bytes_per_cycle);
    let bound = f.next_activity(Cycle(10));
    assert_eq!(bound, Cycle(10 + 2 * (ser + link.latency)));
    assert_eq!(f.step(bound).0, vec![landed(&msg(0, 1, 1))]);
    assert_eq!(f.check_invariants(), Ok(()));
    // Only the acks are left, and they are internal: they disarm both
    // timers on arrival, so nothing more is bound to reach a board and the
    // fabric drains without another step.
    assert!(!f.idle());
    assert_eq!(f.next_activity(bound + 1), Cycle::MAX);
    f.catch_up(bound + 2 * link.latency);
    assert!(f.idle());
    assert_eq!(f.check_invariants(), Ok(()));
}

/// Puts a raw frame on link `i`'s egress, as [`Fabric::send`] would.
fn enqueue(f: &mut Fabric, i: usize, frame: Payload) {
    f.links[i].backlog.push_back(frame);
    f.post(i, f.next);
}

/// The switch reads four bytes. [`Fabric::send`] only ever enqueues
/// `encode()` output, so these frames are put on the uplink by hand:
/// those whose header is valid but whose body does not decode (a
/// truncated invoke, and a well-formed body under the retired body tag 4)
/// cross the switch and die at the destination's decode; one shorter than
/// the header dies at the switch. None is delivered or counted.
#[test]
fn tor_routes_on_the_header_and_malformed_frames_die_quietly() {
    let mut f = Fabric::new(2, FabricConfig::default());
    let up = f.link_index(0, TOR).expect("uplink");
    let down = f.link_index(TOR, 1).expect("downlink");
    let mut garbled = msg(0, 1, 1).encode();
    garbled.truncate(9);
    assert_eq!(ClusterMsg::decode(&garbled), None);
    let mut retired = ClusterMsg {
        src: 0,
        dst: 1,
        body: Body::Migrate {
            service: 1,
            name: "kv".into(),
            snapshot: vec![7; 16],
        },
    }
    .encode();
    retired[4] = 4;
    assert_eq!(ClusterMsg::decode(&retired), None);
    enqueue(&mut f, up, garbled.into());
    enqueue(&mut f, up, retired.into());
    enqueue(&mut f, up, vec![0u8, 0, 1].into());
    f.send(&msg(0, 1, 2));
    let got = run(&mut f, Cycle(0), 2_000);
    assert_eq!(
        got,
        vec![landed(&msg(0, 1, 2))],
        "only the well-formed frame arrives"
    );
    assert_eq!(f.stats().delivered, 1);
    assert_eq!(f.links[up].rx.expected(), 4, "all four reached the switch");
    assert_eq!(
        f.links[down].rx.expected(),
        3,
        "the short one went no further"
    );
    assert!(f.idle(), "the links drained");
    assert_eq!(f.check_invariants(), Ok(()));
}

#[test]
fn stepping_only_due_links_matches_pumping_every_link() {
    for topology in [Topology::Star, Topology::FullMesh] {
        let cfg = FabricConfig {
            topology,
            link: LinkConfig {
                loss: 0.02,
                ..LinkConfig::default()
            },
            seed: 11,
        };
        let mut sparse = Fabric::new(4, cfg);
        let mut dense = Fabric::new(4, cfg);
        let mut rng = SimRng::new(5);
        // 30k cycles of traffic and cuts, then time to drain.
        for c in 1..=60_000u64 {
            if c < 30_000 && rng.gen_bool(0.01) {
                let src = rng.gen_range(4) as u16;
                let dst = (src + 1 + rng.gen_range(3) as u16) % 4;
                sparse.send(&msg(src, dst, c));
                dense.send(&msg(src, dst, c));
            }
            if c < 30_000 && (c % 5_000 == 1_000 || c % 5_000 == 2_500) {
                let up = c % 5_000 == 2_500;
                sparse.set_link(1, None, up);
                dense.set_link(1, None, up);
            }
            assert_eq!(
                sparse.step(Cycle(c)).0,
                dense.step_dense(Cycle(c)),
                "{topology:?} diverged at cycle {c}"
            );
        }
        assert_eq!(sparse.check_invariants(), Ok(()));
        assert_eq!(dense.check_invariants(), Ok(()));
        assert_eq!(sparse.stats(), dense.stats());
        let s = sparse.stats();
        assert!(s.delivered > 100 && s.retransmissions > 0 && s.cut_drops > 0);
        assert!(sparse.idle() && dense.idle());
    }
}

#[test]
fn star_delivers_via_tor() {
    let mut f = Fabric::new(4, FabricConfig::default());
    f.send(&msg(0, 3, 1));
    let got = run(&mut f, Cycle(0), 1_000);
    assert_eq!(got.len(), 1);
    assert_eq!((got[0].src, got[0].dst), (0, 3));
    assert!(f.idle());
    assert_eq!(f.stats().delivered, 1);
}

#[test]
fn mesh_is_faster_than_star() {
    // Same link parameters: one direct hop beats up + switch + down.
    let latency = |topology| {
        let mut f = Fabric::new(
            2,
            FabricConfig {
                topology,
                ..FabricConfig::default()
            },
        );
        f.send(&msg(0, 1, 1));
        for c in 0..10_000 {
            if !f.step(Cycle(c)).0.is_empty() {
                return c;
            }
        }
        panic!("never delivered");
    };
    assert!(latency(Topology::FullMesh) < latency(Topology::Star));
}

#[test]
fn links_preserve_order() {
    let mut f = Fabric::new(2, FabricConfig::default());
    for tag in 0..20 {
        f.send(&msg(0, 1, tag));
    }
    let got = run(&mut f, Cycle(0), 5_000);
    let tags: Vec<u64> = got
        .iter()
        .map(|m| match m.body {
            BodyView::Invoke { tag, .. } => tag,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(tags, (0..20).collect::<Vec<u64>>());
}

#[test]
fn transient_cut_heals_through_arq() {
    let mut f = Fabric::new(2, FabricConfig::default());
    f.send(&msg(0, 1, 1));
    f.set_link(0, None, false);
    let got = run(&mut f, Cycle(0), 3_000);
    assert!(got.is_empty(), "cut link delivers nothing");
    f.set_link(0, None, true);
    let got = run(&mut f, Cycle(3_000), 10_000);
    assert_eq!(got.len(), 1, "ARQ retransmits after the cut heals");
    let s = f.stats();
    assert!(s.retransmissions > 0);
    assert!(s.cut_drops > 0);
}

#[test]
fn lossy_link_still_delivers_everything() {
    let mut f = Fabric::new(
        2,
        FabricConfig {
            topology: Topology::FullMesh,
            link: LinkConfig {
                loss: 0.2,
                ..LinkConfig::default()
            },
            seed: 7,
        },
    );
    for tag in 0..40 {
        f.send(&msg(0, 1, tag));
    }
    let got = run(&mut f, Cycle(0), 200_000);
    assert_eq!(got.len(), 40);
    assert!(f.stats().loss_drops > 0, "the loss model actually fired");
}
