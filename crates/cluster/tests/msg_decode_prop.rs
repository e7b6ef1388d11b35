//! The fabric's wire format on hostile bytes, and the directory's gossip
//! read where it lands, as properties.
//!
//! Fabric frames cross a lossy wire and a switch that forwards whatever
//! carries a header, so the parsers see arbitrary bytes. For every input
//! `ClusterMsg::decode` and `MsgView::parse` must return `Some` or `None`
//! and never panic, and:
//!
//! - every valid encoding of every `Body` variant round-trips;
//! - no strict prefix of a valid encoding decodes (the format is
//!   self-delimiting, and a decoder must not accept a cut frame);
//! - whatever a damaged frame (or random bytes) decodes to is itself a
//!   message that round-trips;
//! - the view parser accepts exactly the frames `decode` accepts and reads
//!   the same fields, its payloads the owned payloads' bytes, also when the
//!   frame is itself a view into a larger buffer.
//!
//! And a directory that merges gossip frames in place holds what the rule
//! it replaced would have held from the decoded entries (the newer version
//! wins, entries claiming the directory's own board are ignored), its
//! snapshot frame byte for byte the owned encoding of those entries.

use apiary_cap::ServiceId;
use apiary_cluster::{Body, BodyView, ClusterMsg, DirEntry, Directory, MsgView};
use apiary_noc::NodeId;
use apiary_sim::{Cycle, Payload};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Names of up to 12 characters, multi-byte ones included, so that a bit
/// flip can break their UTF-8.
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..12).prop_map(|cs| {
        let pick = |c: u32| match c % 4 {
            0 => char::from_u32(c % 0x11_0000).unwrap_or('?'),
            _ => char::from(b'a' + (c % 26) as u8),
        };
        cs.into_iter().map(pick).collect()
    })
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..40)
}

fn entry() -> impl Strategy<Value = DirEntry> {
    (
        name(),
        (any::<u16>(), any::<u16>(), any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(
            |(name, (home, node, service), (version, expires_at, withdrawn))| DirEntry {
                name,
                home,
                node: NodeId(node),
                service: ServiceId(service),
                version,
                expires_at: Cycle(expires_at),
                withdrawn,
            },
        )
}

fn body() -> impl Strategy<Value = Body> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), bytes()).prop_map(|(service, tag, payload)| Body::Invoke {
            service,
            tag,
            payload
        }),
        (any::<u64>(), any::<bool>(), bytes()).prop_map(|(tag, is_error, payload)| Body::Reply {
            tag,
            is_error,
            payload
        }),
        prop::collection::vec(entry(), 0..4).prop_map(|entries| Body::Gossip { entries }),
        (any::<u32>(), name(), bytes()).prop_map(|(service, name, snapshot)| Body::Migrate {
            service,
            name,
            snapshot
        }),
    ]
}

fn msg() -> impl Strategy<Value = ClusterMsg> {
    (any::<u16>(), any::<u16>(), body()).prop_map(|(src, dst, body)| ClusterMsg { src, dst, body })
}

/// Decodes `buf`; whatever it accepts must encode back to a message that
/// decodes to itself, and the view parser must agree with it.
fn decode_closed(buf: &[u8]) -> Option<ClusterMsg> {
    let got = ClusterMsg::decode(buf);
    let view = MsgView::parse(&framed(buf));
    match (&got, &view) {
        (Some(owned), Some(view)) => same(view, owned),
        (None, None) => {}
        _ => panic!("one parser accepts what the other refuses: {buf:?}"),
    }
    let got = got?;
    assert_eq!(
        ClusterMsg::decode(&got.encode()).as_ref(),
        Some(&got),
        "an accepted frame does not round-trip: {buf:?}"
    );
    Some(got)
}

/// `buf` as a frame that is itself a view, between bytes of another
/// message, so that every field's offset is taken from the view's start.
fn framed(buf: &[u8]) -> Payload {
    let whole = [&[0xEE; 3][..], buf, &[0xDD; 2]].concat();
    Payload::from(whole).slice(3..3 + buf.len())
}

/// Panics unless `view` reads what `owned` holds, field by field.
fn same(view: &MsgView, owned: &ClusterMsg) {
    assert_eq!((view.src, view.dst), (owned.src, owned.dst));
    match (&view.body, &owned.body) {
        (
            BodyView::Invoke {
                service,
                tag,
                payload,
            },
            Body::Invoke {
                service: s,
                tag: t,
                payload: p,
            },
        ) => {
            assert_eq!((service, tag), (s, t));
            assert_eq!(payload, p, "the view's payload bytes");
        }
        (
            BodyView::Reply {
                tag,
                is_error,
                payload,
            },
            Body::Reply {
                tag: t,
                is_error: e,
                payload: p,
            },
        ) => {
            assert_eq!((tag, is_error), (t, e));
            assert_eq!(payload, p, "the view's payload bytes");
        }
        (BodyView::Gossip(gossip), Body::Gossip { entries }) => {
            let read: Vec<DirEntry> = gossip.entries().map(DirEntry::from).collect();
            assert_eq!(&read, entries);
        }
        (
            BodyView::Migrate {
                service,
                name,
                snapshot,
            },
            Body::Migrate {
                service: s,
                name: n,
                snapshot: p,
            },
        ) => {
            assert_eq!((service, name), (s, n));
            assert_eq!(snapshot, p, "the view's snapshot bytes");
        }
        (v, o) => panic!("different bodies: {v:?} and {o:?}"),
    }
}

/// The board whose directory merges in the gossip property.
const BOARD: u16 = 1;
const LEASE: u64 = 100;
const NAMES: [&str; 3] = ["kv", "vidéo", "fn"];

/// An entry from a small space, so that frames name the same bindings.
fn near_entry() -> impl Strategy<Value = DirEntry> {
    (
        0..NAMES.len(),
        0u16..3,
        (0u64..6, any::<u64>(), any::<bool>()),
        any::<u16>(),
    )
        .prop_map(
            |(name, home, (version, expires_at, withdrawn), node)| DirEntry {
                name: NAMES[name].to_string(),
                home,
                node: NodeId(node),
                service: ServiceId(u32::from(node) + 1),
                version,
                expires_at: Cycle(expires_at),
                withdrawn,
            },
        )
}

#[derive(Debug, Clone)]
enum DirOp {
    /// The directory's own board publishes `NAMES[name]` at `node`.
    Publish { name: usize, node: u16 },
    /// A peer's snapshot frame arrives.
    Gossip(Vec<DirEntry>),
}

fn dir_op() -> impl Strategy<Value = DirOp> {
    prop_oneof![
        (0..NAMES.len(), any::<u16>()).prop_map(|(name, node)| DirOp::Publish { name, node }),
        prop::collection::vec(near_entry(), 0..6).prop_map(DirOp::Gossip),
        prop::collection::vec(near_entry(), 0..6).prop_map(DirOp::Gossip),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_encoding_round_trips_and_no_prefix_decodes(m in msg()) {
        let wire = m.encode();
        prop_assert_eq!(decode_closed(&wire), Some(m));
        for cut in 0..wire.len() {
            prop_assert!(decode_closed(&wire[..cut]).is_none(), "a {cut}-byte prefix decoded");
        }
    }

    #[test]
    fn damaged_frames_decode_or_not_but_never_panic(
        m in msg(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
        cut in any::<usize>(),
    ) {
        let mut wire = m.encode();
        for (at, bit) in flips {
            let at = at % wire.len();
            wire[at] ^= 1 << bit;
        }
        decode_closed(&wire);
        decode_closed(&wire[..cut % (wire.len() + 1)]);
    }

    #[test]
    fn arbitrary_bytes_decode_or_not_but_never_panic(
        (src, dst, tag) in (any::<u16>(), any::<u16>(), 0u8..5),
        rest in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        decode_closed(&rest);
        // Behind a well-formed header and a (mostly) known tag, so that
        // the body parsers see the random bytes too.
        let mut wire = [src.to_le_bytes(), dst.to_le_bytes()].concat();
        wire.push(tag);
        wire.extend_from_slice(&rest);
        decode_closed(&wire);
    }

    #[test]
    fn merging_gossip_frames_in_place_follows_the_newer_version_rule(
        ops in prop::collection::vec(dir_op(), 1..24),
    ) {
        let mut dir = Directory::new(BOARD, LEASE);
        // The rule in place before gossip merged in place, over the owned
        // decoded entries, keyed `(name, home)` as the directory is.
        let mut model: BTreeMap<(String, u16), DirEntry> = BTreeMap::new();
        let mut merged_in = 0;
        for (t, op) in ops.iter().enumerate() {
            let now = Cycle(10 * t as u64);
            match op {
                DirOp::Publish { name, node } => {
                    let (name, node) = (NAMES[*name], NodeId(*node));
                    let service = ServiceId(7);
                    dir.publish(now, name, service, node);
                    let key = (name.to_string(), BOARD);
                    let version = model.get(&key).map_or(1, |e| e.version + 1);
                    let e = DirEntry {
                        name: name.to_string(),
                        home: BOARD,
                        node,
                        service,
                        version,
                        expires_at: now + LEASE,
                        withdrawn: false,
                    };
                    model.insert(key, e);
                }
                DirOp::Gossip(entries) => {
                    let frame = ClusterMsg {
                        src: 0,
                        dst: BOARD,
                        body: Body::Gossip { entries: entries.clone() },
                    }
                    .encode();
                    let decoded = match ClusterMsg::decode(&frame).map(|m| m.body) {
                        Some(Body::Gossip { entries }) => entries,
                        other => panic!("a gossip frame decoded to {other:?}"),
                    };
                    for e in decoded {
                        if e.home == BOARD {
                            continue;
                        }
                        let key = (e.name.clone(), e.home);
                        if model.get(&key).is_none_or(|ours| ours.version < e.version) {
                            model.insert(key, e);
                            merged_in += 1;
                        }
                    }
                    match MsgView::parse(&frame.into()).map(|m| m.body) {
                        Some(BodyView::Gossip(gossip)) => dir.merge(&gossip),
                        other => panic!("a gossip frame parsed to {other:?}"),
                    }
                }
            }
            prop_assert_eq!(dir.check_invariants(), Ok(()));
            prop_assert_eq!(dir.merged_in, merged_in, "entries taken after {:?}", op);
            prop_assert_eq!(dir.len(), model.len());
            // The snapshot frame, written straight from the directory, is
            // the owned encoding of what the rule holds, byte for byte:
            // its length is what the link charges for it.
            let owned = ClusterMsg {
                src: BOARD,
                dst: 2,
                body: Body::Gossip { entries: model.values().cloned().collect() },
            };
            prop_assert_eq!(dir.gossip_frame(2), owned.encode(), "snapshot after {:?}", op);
        }
    }
}
