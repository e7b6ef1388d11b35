//! Fingerprints of NoC shapes the presets do not reach.
//!
//! One FNV-1a hash per configuration over everything a caller can observe:
//! every accept/refuse result, `(tag, delivered_at, node)` of every delivery,
//! every `NocStats` counter and `link_utilization()`. The constants were
//! captured on the commit before links moved into the downstream rings and
//! are not to be edited by a change that only re-lays state out: a link
//! longer than the ring it feeds (`hop_latency + 1 > vc_buffer`), a one-slot
//! link and a ring that is entirely in flight are the shapes a layout change
//! can get wrong while the soft and hardened presets still pass.

use apiary_noc::{
    Direction, FaultEvent, FaultPlane, Message, Noc, NocConfig, NodeId, TrafficClass,
};
use apiary_sim::{Cycle, SimRng};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

const PAYLOADS: [usize; 4] = [0, 8, 64, 700];

/// Drives `noc` with seeded mixed-class, mixed-size load for `cycles`
/// cycles (checking every law after every step), drains it, and hashes what
/// came out.
fn fingerprint(mut noc: Noc, seed: u64, rate: f64, cycles: u64) -> u64 {
    let nodes = noc.mesh().nodes() as u64;
    let mut rng = SimRng::new(seed);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut tag = 0u64;
    let step = |noc: &mut Noc, h: &mut Fnv| {
        noc.step();
        assert_eq!(noc.check_invariants(), Ok(()));
        for n in 0..nodes {
            for d in noc.drain_eject(NodeId(n as u16)) {
                assert_eq!(d.msg.dst, NodeId(n as u16), "misrouted");
                h.word(d.msg.tag);
                h.word(d.delivered_at.as_u64());
                h.word(n);
            }
        }
    };
    for _ in 0..cycles {
        for src in 0..nodes {
            if !rng.gen_bool(rate) {
                continue;
            }
            let dst = rng.gen_range(nodes);
            let class = TrafficClass::ALL[rng.gen_range(3) as usize];
            let bytes = PAYLOADS[rng.gen_range(4) as usize];
            let mut m = Message::new(
                NodeId(src as u16),
                NodeId(dst as u16),
                class,
                vec![0x5A; bytes],
            );
            m.tag = tag;
            tag += 1;
            h.word(match noc.try_inject(NodeId(src as u16), m) {
                Ok(_) => 0,
                Err(e) => 1 + e as u64,
            });
        }
        step(&mut noc, &mut h);
    }
    for _ in 0..200_000 {
        if noc.pending() == 0 {
            break;
        }
        step(&mut noc, &mut h);
    }
    assert_eq!(noc.pending(), 0, "the network drains");
    let st = noc.stats();
    for w in [
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
        st.latency.max(),
    ] {
        h.word(w);
    }
    for (node, dir, util) in noc.link_utilization() {
        h.word(node.0 as u64);
        h.word(dir as u64);
        h.word(util.to_bits());
    }
    h.0
}

/// The chaos plane of the table: random faults at rate 0.01 plus one
/// permanent kill, one healing outage and one stall at fixed cycles.
fn chaos(seed: u64) -> FaultPlane {
    let mut plane = FaultPlane::new(seed, 0.01);
    plane.schedule(
        Cycle(400),
        FaultEvent::LinkDown {
            node: NodeId(5),
            dir: Direction::East,
            heal_after: None,
        },
    );
    plane.schedule(
        Cycle(900),
        FaultEvent::LinkDown {
            node: NodeId(2),
            dir: Direction::North,
            heal_after: Some(150),
        },
    );
    plane.schedule(
        Cycle(1_300),
        FaultEvent::RouterStall {
            node: NodeId(6),
            cycles: 120,
        },
    );
    plane
}

const HOP_LATENCIES: [u64; 4] = [0, 1, 3, 7];
const VC_BUFFERS: [usize; 4] = [1, 2, 4, 6];

/// `GRID[hop latency][vc_buffer][chaos off, on]` on a 4x3.
#[rustfmt::skip]
const GRID: [[[u64; 2]; 4]; 4] = [
    [
        [0xc0901700f7820ef4, 0xabb7f52782ae68ed],
        [0xe7f2d9900bf81869, 0x4539f0a39044c88d],
        [0x74619880802da603, 0x524eda3544fbfe3f],
        [0xece5336d3b9514e2, 0xf4c6b2f06006ce85],
    ],
    [
        [0xfb46639fe16b003f, 0xe5cdd8d2f7239047],
        [0x1f3dbf50a10edeac, 0x3a27f4b0f08018f6],
        [0x9a32d3263dd9e488, 0x874d33c4f740238b],
        [0x06ed08a70b1af998, 0x95d6da9bd0b90839],
    ],
    [
        [0x5ff2e35475361adf, 0xb4864a8f1987aa1e],
        [0xe7f3bee3239d3b63, 0xbddd7d93c1984aee],
        [0xe2884a3eef0aed80, 0x6bc3ec48aa7972e6],
        [0x0a1244d4d57c59f0, 0x93b6ec7900aa5c04],
    ],
    [
        [0x6dffac13048ea1c4, 0xf56becf0b5d8a825],
        [0x7505b8cc664af23c, 0xe227164fb78e0501],
        [0x7476705ee17c904e, 0x47caaf01657ec4e7],
        [0x45ba0a515ef7ae15, 0xcf8e9af2cf3a685d],
    ],
];

const HARDENED_6X5: u64 = 0x563c_58b8_0a9e_a171;
const SOFT_8X8_WITH_KILLS: u64 = 0xeebb_56cb_8826_4da6;

/// The grid as it is written in `GRID`, for the failure message.
fn render(grid: &[[[u64; 2]; 4]; 4]) -> String {
    let mut out = String::new();
    for per_latency in grid {
        out += "    [\n";
        for [off, on] in per_latency {
            out += &format!("        [{off:#018x}, {on:#018x}],\n");
        }
        out += "    ],\n";
    }
    out
}

#[test]
fn grid_of_link_and_ring_shapes_matches_the_parent_commit() {
    let mut got = [[[0u64; 2]; 4]; 4];
    for (hi, &hop_latency) in HOP_LATENCIES.iter().enumerate() {
        for (bi, &vc_buffer) in VC_BUFFERS.iter().enumerate() {
            for chaotic in [false, true] {
                let mut noc = Noc::new(NocConfig {
                    hop_latency,
                    vc_buffer,
                    ..NocConfig::soft(4, 3)
                });
                if chaotic {
                    noc.install_fault_plane(chaos(31));
                }
                got[hi][bi][chaotic as usize] = fingerprint(noc, 17, 0.06, 2_000);
            }
        }
    }
    assert!(
        got == GRID,
        "fingerprints moved; this run gives\n{}",
        render(&got)
    );
}

#[test]
fn hardened_6x5_matches_the_parent_commit() {
    let got = fingerprint(Noc::new(NocConfig::hardened(6, 5)), 23, 0.12, 3_000);
    assert_eq!(got, HARDENED_6X5, "this run gives {got:#018x}");
}

#[test]
fn soft_8x8_with_link_kills_matches_the_parent_commit() {
    let mut plane = FaultPlane::new(0, 0.0);
    for (at, node, dir) in [
        (700, 27, Direction::East),
        (1_500, 36, Direction::South),
        (1_501, 9, Direction::West),
    ] {
        plane.schedule(
            Cycle(at),
            FaultEvent::LinkDown {
                node: NodeId(node),
                dir,
                heal_after: None,
            },
        );
    }
    let mut noc = Noc::new(NocConfig::soft(8, 8));
    noc.install_fault_plane(plane);
    let got = fingerprint(noc, 29, 0.05, 3_000);
    assert_eq!(got, SOFT_8X8_WITH_KILLS, "this run gives {got:#018x}");
}
