//! Property-based tests for the accelerator library.

use apiary_accel::apps::compress::{CompressorService, Mode};
use apiary_accel::apps::echo::EchoService;
use apiary_accel::apps::faulty::FaultyService;
use apiary_accel::apps::hash::HashService;
use apiary_accel::apps::kv::{self, KvStoreService};
use apiary_accel::apps::multi::MultiService;
use apiary_accel::apps::vector::VectorService;
use apiary_accel::apps::video::{self as video_app, VideoEncoderService};
use apiary_accel::codec::{lz, video};
use apiary_accel::os::test_os::MockOs;
use apiary_accel::{Accelerator, Service, ServiceAction, StateError, TileOs};
use apiary_monitor::wire;
use apiary_noc::{Delivered, Message, NodeId, TrafficClass};
use apiary_sim::Cycle;
use proptest::prelude::*;
use std::collections::HashMap;

fn deliver(badge: u64, payload: Vec<u8>) -> Delivered {
    let mut msg = Message::new(NodeId(1), NodeId(0), TrafficClass::Request, payload);
    msg.kind = wire::KIND_REQUEST;
    msg.badge = badge;
    Delivered {
        msg,
        injected_at: Cycle(0),
        delivered_at: Cycle(0),
    }
}

#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, Vec<u8>),
    Get(u8),
    Del(u8),
}

fn arb_kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| KvOp::Put(k, v)),
        any::<u8>().prop_map(KvOp::Get),
        any::<u8>().prop_map(KvOp::Del),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The KV store agrees with a plain HashMap for any single-tenant
    /// operation sequence (sequential consistency of the service logic).
    #[test]
    fn kv_matches_hashmap_model(ops in prop::collection::vec(arb_kv_op(), 1..80)) {
        let mut svc = KvStoreService::new();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
        let mut os = apiary_accel::os::test_os::MockOs::new();

        for op in ops {
            let (payload, expect_status, expect_val) = match &op {
                KvOp::Put(k, v) => {
                    model.insert(*k, v.clone());
                    (kv::put_req(&[*k], v), kv::status::OK, None)
                }
                KvOp::Get(k) => match model.get(k) {
                    Some(v) => (kv::get_req(&[*k]), kv::status::OK, Some(v.clone())),
                    None => (kv::get_req(&[*k]), kv::status::NOT_FOUND, None),
                },
                KvOp::Del(k) => match model.remove(k) {
                    Some(_) => (kv::del_req(&[*k]), kv::status::OK, None),
                    None => (kv::del_req(&[*k]), kv::status::NOT_FOUND, None),
                },
            };
            let action = svc.serve(&deliver(7, payload), &mut os);
            let reply = match action {
                ServiceAction::Reply(r) => r,
                _ => return Err(TestCaseError::fail("kv always replies")),
            };
            let (status, value) = kv::parse_resp(&reply.payload).expect("well formed");
            prop_assert_eq!(status, expect_status, "op {:?}", op);
            prop_assert_eq!(value.map(|v| v.to_vec()), expect_val);
        }
        prop_assert_eq!(svc.tenant_len(7), model.len());
    }

    /// Save/restore is the identity on the store for any contents.
    #[test]
    fn kv_save_restore_identity(
        entries in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 1..16),
             prop::collection::vec(any::<u8>(), 0..32)),
            0..40,
        )
    ) {
        let mut svc = KvStoreService::new();
        let mut os = apiary_accel::os::test_os::MockOs::new();
        for (badge, k, v) in &entries {
            let _ = svc.serve(&deliver(*badge, kv::put_req(k, v)), &mut os);
        }
        let snap = svc.save().expect("preemptible");
        let mut restored = KvStoreService::new();
        restored.restore(&snap).expect("own snapshot");
        prop_assert_eq!(restored.len(), svc.len());
        // Spot-check every entry through the service interface.
        for (badge, k, v) in &entries {
            let action = restored.serve(&deliver(*badge, kv::get_req(k)), &mut os);
            let ServiceAction::Reply(r) = action else {
                return Err(TestCaseError::fail("kv always replies"));
            };
            let (status, value) = kv::parse_resp(&r.payload).expect("well formed");
            // Later puts may have overwritten; only require presence.
            prop_assert_eq!(status, kv::status::OK);
            prop_assert!(value.is_some() || v.is_empty());
        }
    }

    /// LZ compression round-trips arbitrary bytes.
    #[test]
    fn lz_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let c = lz::compress(&data);
        prop_assert_eq!(lz::decompress(&c).expect("own output"), data);
    }

    /// LZ decompression never panics on arbitrary (mostly corrupt) input,
    /// and never expands it more than 64-fold: a 4-byte match token emits
    /// at most 255 bytes.
    #[test]
    fn lz_decompress_total(data in prop::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(out) = lz::decompress(&data) {
            prop_assert!(out.len() <= 64 * data.len());
        }
    }

    /// A valid LZ stream cut short or with one bit flipped decompresses to
    /// `Ok` or `Err`, never a panic, and within the 64-fold bound. The
    /// input's small alphabet makes most of the stream match tokens.
    #[test]
    fn lz_decompress_damaged_streams(
        data in prop::collection::vec(0u8..4, 0..2048),
        (cut, flip) in (any::<u64>(), any::<u64>()),
    ) {
        let stream = lz::compress(&data);
        for damaged in damage(&stream, cut, flip) {
            if let Ok(out) = lz::decompress(&damaged) {
                prop_assert!(out.len() <= 64 * damaged.len());
            }
        }
    }

    /// The video codec round-trips any frame at quant 0 and bounds the
    /// error at quant k.
    #[test]
    fn video_roundtrip_and_quant_bound(
        w in 1u32..48,
        h in 1u32..48,
        seed in any::<u64>(),
        quant in 0u32..4,
    ) {
        let frame = video::Frame::test_pattern(w, h, seed);
        let lossless = video::decode(&video::encode(&frame, 0)).expect("own output");
        prop_assert_eq!(&lossless, &frame);
        let lossy = video::decode(&video::encode(&frame, quant)).expect("own output");
        let bound = (1u16 << quant) as i16;
        for (a, b) in frame.pixels.iter().zip(lossy.pixels.iter()) {
            prop_assert!((*a as i16 - *b as i16).abs() < bound.max(1));
        }
    }

    /// Video decode never panics on arbitrary input.
    #[test]
    fn video_decode_total(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = video::decode(&data);
    }

    /// A valid video stream cut short or with one bit flipped (header,
    /// token or run length) decodes to `Ok` or `Err`, never a panic.
    #[test]
    fn video_decode_damaged_streams(
        (w, h, seed, quant) in (1u32..40, 1u32..40, any::<u64>(), 0u32..4),
        (cut, flip) in (any::<u64>(), any::<u64>()),
    ) {
        let stream = video::encode(&video::Frame::test_pattern(w, h, seed), quant);
        for damaged in damage(&stream, cut, flip) {
            if let Ok(frame) = video::decode(&damaged) {
                prop_assert_eq!(frame.pixels.len(), (frame.width * frame.height) as usize);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No decoder a message payload reaches panics on arbitrary bytes: a
    /// parser returns a value or `None`, and a service answers a malformed
    /// request (an error reply, say) instead of panicking. Half the inputs
    /// are under 8 bytes, where a length field can be cut in two.
    #[test]
    fn payload_decoders_never_panic(
        data in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..8),
            prop::collection::vec(any::<u8>(), 0..512),
        ],
        badge in any::<u64>(),
    ) {
        let _ = kv::parse_resp(&data);
        let _ = video_app::decode_request(&data);
        let mut os = MockOs::new();
        let request = deliver(badge, data);
        let _ = KvStoreService::new().serve(&request, &mut os);
        let _ = CompressorService::new(Mode::Compress).serve(&request, &mut os);
        let _ = CompressorService::new(Mode::Decompress).serve(&request, &mut os);
        let _ = VideoEncoderService::new(1).serve(&request, &mut os);
        let _ = EchoService { cost_cycles: 1 }.serve(&request, &mut os);
    }
}

/// `stream` cut at `cut` (modulo its length plus one), and `stream` with bit
/// `flip` (modulo its bit count) inverted.
fn damage(stream: &[u8], cut: u64, flip: u64) -> [Vec<u8>; 2] {
    let cut = (cut % (stream.len() as u64 + 1)) as usize;
    let mut flipped = stream.to_vec();
    if !flipped.is_empty() {
        let bit = flip % (flipped.len() as u64 * 8);
        flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
    [stream[..cut].to_vec(), flipped]
}

// ---------------------------------------------------------------------------
// Checkpoint-plane audit: every preemptible service must (a) serialize
// deterministically — save → restore → save is byte-identical, (b) reject
// structurally corrupt snapshots with `StateError::Corrupt`, (c) never
// panic on arbitrary corruption, and (d) never half-restore: a rejected
// snapshot leaves the victim's state exactly as it was.

/// Runs the four checkpoint-plane properties against one service type.
/// `prime` drives the instance into an arbitrary state; it is applied
/// identically to every instance so their snapshots must agree.
fn check_state_plane<S: Service>(
    fresh: impl Fn() -> S,
    prime: impl Fn(&mut S),
    cut: usize,
    flip: (usize, u8),
) -> Result<(), TestCaseError> {
    let mut svc = fresh();
    prime(&mut svc);
    let snap = svc.save().expect("service advertises preemption");

    // (a) Deterministic round-trip.
    let mut twin = fresh();
    if let Err(e) = twin.restore(&snap) {
        return Err(TestCaseError::fail(format!("own snapshot rejected: {e:?}")));
    }
    prop_assert_eq!(twin.save().expect("still preemptible"), snap.clone());

    // (b) Truncation and trailing garbage are always structural errors.
    let mut rejected: Vec<Vec<u8>> = Vec::new();
    if !snap.is_empty() {
        rejected.push(snap[..cut % snap.len()].to_vec());
    }
    let mut trailing = snap.clone();
    trailing.push(0xA5);
    rejected.push(trailing);
    for bad in rejected {
        let mut victim = fresh();
        prime(&mut victim);
        prop_assert_eq!(victim.restore(&bad), Err(StateError::Corrupt));
        // (d) The rejected restore changed nothing.
        prop_assert_eq!(victim.save().expect("still preemptible"), snap.clone());
    }

    // (c) A flipped byte must never panic. It may restore Ok (plain
    // counters have no redundancy — integrity is the checkpoint layer's
    // checksum), but on Err the victim must again be untouched.
    if !snap.is_empty() {
        let mut flipped = snap.clone();
        flipped[flip.0 % snap.len()] ^= flip.1 | 1; // never a no-op flip
        let mut victim = fresh();
        prime(&mut victim);
        if victim.restore(&flipped).is_err() {
            prop_assert_eq!(victim.save().expect("still preemptible"), snap);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint-plane properties for the KV store (variable-length,
    /// multi-tenant snapshot format).
    #[test]
    fn kv_state_plane(
        entries in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 1..12),
             prop::collection::vec(any::<u8>(), 0..24)),
            0..24,
        ),
        cut in any::<usize>(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        check_state_plane(
            KvStoreService::new,
            |svc| {
                let mut os = MockOs::new();
                for (badge, k, v) in &entries {
                    let _ = svc.serve(&deliver(*badge, kv::put_req(k, v)), &mut os);
                }
            },
            cut,
            flip,
        )?;
    }

    /// Checkpoint-plane properties for every fixed-size-state service:
    /// echo, hash, vector, faulty, compressor (both modes), video.
    #[test]
    fn counter_services_state_plane(
        inputs in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)),
            0..12,
        ),
        cost in 0u64..100,
        fault_after in 1u64..8,
        quant in 0u32..4,
        cut in any::<usize>(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        macro_rules! plane {
            ($fresh:expr) => {
                check_state_plane(
                    $fresh,
                    |svc| {
                        let mut os = MockOs::new();
                        for (badge, payload) in &inputs {
                            let _ = svc.serve(&deliver(*badge, payload.clone()), &mut os);
                        }
                    },
                    cut,
                    flip,
                )?
            };
        }
        plane!(|| EchoService { cost_cycles: cost });
        plane!(HashService::default);
        plane!(VectorService::default);
        plane!(|| FaultyService::new(fault_after));
        plane!(|| CompressorService::new(Mode::Compress));
        plane!(|| CompressorService::new(Mode::Decompress));
        plane!(|| VideoEncoderService::new(quant));
    }

    /// The multi-context wrapper externalizes *every* context; the same
    /// four properties hold at the whole-tile (`Accelerator`) level.
    #[test]
    fn multi_context_state_plane(
        entries in prop::collection::vec(
            (0u64..6, prop::collection::vec(any::<u8>(), 1..8),
             prop::collection::vec(any::<u8>(), 0..16)),
            0..16,
        ),
        cut in any::<usize>(),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let fresh = || MultiService::new(KvStoreService::new);
        let prime = |m: &mut MultiService<KvStoreService>| {
            let mut os = MockOs::new();
            for (badge, k, v) in &entries {
                os.deliver(deliver(*badge, kv::put_req(k, v)));
            }
            // Drain the inbox and every in-flight job so the snapshot is
            // a function of `entries` alone.
            for _ in 0..2048 {
                m.wake(os.now(), &mut os);
                os.advance(1);
            }
        };

        let mut a = fresh();
        prime(&mut a);
        let snap = a.save_state().expect("multi-context is preemptible");

        let mut twin = fresh();
        twin.restore_state(&snap).expect("own snapshot restores");
        prop_assert_eq!(twin.save_state().expect("still preemptible"), snap.clone());

        let mut rejected: Vec<Vec<u8>> = Vec::new();
        if !snap.is_empty() {
            rejected.push(snap[..cut % snap.len()].to_vec());
        }
        let mut trailing = snap.clone();
        trailing.push(0xA5);
        rejected.push(trailing);
        for bad in rejected {
            let mut victim = fresh();
            prime(&mut victim);
            prop_assert_eq!(victim.restore_state(&bad), Err(StateError::Corrupt));
            prop_assert_eq!(victim.save_state().expect("still preemptible"), snap.clone());
        }

        if !snap.is_empty() {
            let mut flipped = snap.clone();
            flipped[flip.0 % snap.len()] ^= 0x01;
            let mut victim = fresh();
            prime(&mut victim);
            if victim.restore_state(&flipped).is_err() {
                prop_assert_eq!(victim.save_state().expect("still preemptible"), snap);
            }
        }
    }
}
