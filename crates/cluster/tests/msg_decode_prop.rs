//! `ClusterMsg::decode` on hostile bytes, as a property.
//!
//! Fabric frames cross a lossy wire and a switch that forwards whatever
//! carries a header, so the decoder sees arbitrary bytes. For every input
//! it must return `Some` or `None` and never panic, and:
//!
//! - every valid encoding of every `Body` variant round-trips;
//! - no strict prefix of a valid encoding decodes (the format is
//!   self-delimiting, and a decoder must not accept a cut frame);
//! - whatever a damaged frame (or random bytes) decodes to is itself a
//!   message that round-trips.

use apiary_cap::ServiceId;
use apiary_cluster::{Body, ClusterMsg, DirEntry};
use apiary_noc::NodeId;
use apiary_sim::Cycle;
use proptest::prelude::*;

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
/// decodes to itself.
fn decode_closed(buf: &[u8]) -> Option<ClusterMsg> {
    let got = ClusterMsg::decode(buf)?;
    assert_eq!(
        ClusterMsg::decode(&got.encode()).as_ref(),
        Some(&got),
        "an accepted frame does not round-trip: {buf:?}"
    );
    Some(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_encoding_round_trips_and_no_prefix_decodes(m in msg()) {
        let wire = m.encode();
        prop_assert_eq!(ClusterMsg::decode(&wire), Some(m));
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
}
