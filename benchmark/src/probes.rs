//! Per-layer probes: short timed loops on one layer's public API alone.
//!
//! A probe isolates what a span cannot see from outside: the host cost of
//! one operation of a layer that a workload only reaches through
//! `System::advance_toward` or `ClusterSystem::advance_toward`. Probes run
//! in the traced pass only, at least `min` of host time each, and report
//! nanoseconds per operation.

use apiary_accel::apps::kv::KvStoreService;
use apiary_accel::codec::{lz, video};
use apiary_cap::{CapKind, CapTable, Capability, EndpointId, Rights};
use apiary_cluster::{Body, ClusterMsg, Fabric, FabricConfig};
use apiary_faas::{AdmissionConfig, BitstreamCache, TenantAdmission};
use apiary_mem::dram::{DramConfig, DramModel};
use apiary_mem::{AllocPolicy, SegmentAllocator};
use apiary_monitor::{wire, Monitor, MonitorConfig};
use apiary_net::arq::{GoBackNReceiver, GoBackNSender};
use apiary_net::{Frame, Wire};
use apiary_noc::{Message, Noc, NocConfig, NodeId, TrafficClass};
use apiary_sim::{Cycle, EventQueue, Histogram, Payload, SimRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `batch` (which returns how many operations it did) until `min` of
/// host time has passed inside it; returns nanoseconds per operation.
fn ns_per_op(min: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let (mut ops, mut spent) = (0u64, Duration::ZERO);
    while spent < min {
        let t = Instant::now();
        ops += batch();
        spent += t.elapsed();
    }
    spent.as_nanos() as f64 / ops.max(1) as f64
}

/// Every probe, as `(metric name, ns per op)`. Inputs come from `seed`.
pub fn run_all(seed: u64, min: Duration) -> Vec<(&'static str, f64)> {
    let mut rng = SimRng::new(seed);
    vec![
        ("noc.sparse_step_ns_per_cycle", noc_sparse_step(min)),
        ("monitor.send_hit_ns", monitor_send(min, false)),
        ("monitor.send_miss_ns", monitor_send(min, true)),
        ("cap.check_ns", cap_check(min)),
        ("cap.derive_revoke_ns", cap_derive_revoke(min)),
        ("mem.dram_access_ns", dram_access(min, &mut rng)),
        ("mem.segment_alloc_free_ns", segment_alloc_free(min)),
        ("accel.kv_op_ns", kv_op(min, &mut rng)),
        ("accel.video_encode_ns", video_encode(min, &mut rng)),
        ("accel.lz_compress_ns", lz_compress(min, &mut rng)),
        ("net.arq_ns_per_packet", arq(min)),
        ("net.wire_ns_per_frame", wire_frame(min)),
        ("cluster.fabric_ns_per_msg", fabric_msg(min)),
        ("cluster.msg_codec_ns", msg_codec(min)),
        ("faas.admit_ns", admit(min)),
        ("faas.cache_lookup_insert_ns", cache_lookup_insert(min)),
        ("sim.eventq_ns_per_event", eventq(min, &mut rng)),
        ("sim.histogram_record_ns", histogram_record(min, &mut rng)),
        ("sim.payload_clone_ns", payload_clone(min)),
    ]
}

/// 8×8 mesh, two corner-to-corner pairs exchanging one message every eight
/// cycles, sixty idle nodes: the shape `board_tenants` and `cluster_rpc`
/// give the NoC. Per stepped cycle.
fn noc_sparse_step(min: Duration) -> f64 {
    let mut noc = Noc::new(NocConfig::soft(8, 8));
    let pairs = [(0u16, 63u16), (63, 0), (7, 56), (56, 7)];
    let payload: Payload = vec![0u8; 64].into();
    ns_per_op(min, || {
        for c in 0..4096u32 {
            if c % 8 == 0 {
                for (src, dst) in pairs {
                    let msg = Message::new(
                        NodeId(src),
                        NodeId(dst),
                        TrafficClass::Request,
                        payload.clone(),
                    );
                    let _ = noc.try_inject(NodeId(src), msg);
                }
            }
            noc.step();
            for (_, dst) in pairs {
                while let Some(d) = noc.poll_eject(NodeId(dst)) {
                    black_box(d);
                }
            }
        }
        4096
    })
}

/// One `Monitor::send` through the same capability. `miss` invalidates the
/// flow cache with `bind_service` before every send.
fn monitor_send(min: Duration, miss: bool) -> f64 {
    const BATCH: usize = 4096;
    let mut monitor = Monitor::new(
        NodeId(0),
        MonitorConfig {
            outbox_depth: BATCH,
            ..MonitorConfig::default()
        },
    );
    let payload: Payload = vec![0u8; 64].into();
    let mut now = Cycle::ZERO;
    let (mut ops, mut spent) = (0u64, Duration::ZERO);
    while spent < min {
        // Emptying the outbox also empties the capability table; both are
        // rebuilt outside the timed region.
        monitor.reset(now);
        let cap = monitor
            .install_cap(Capability::new(
                CapKind::Endpoint(EndpointId(5)),
                Rights::SEND,
            ))
            .expect("empty table");
        if !miss {
            monitor
                .send(
                    cap,
                    wire::KIND_REQUEST,
                    0,
                    TrafficClass::Request,
                    payload.clone(),
                    now,
                )
                .expect("primes the flow cache");
        }
        let t = Instant::now();
        for tag in 1..BATCH as u64 {
            if miss {
                monitor.bind_service(1, NodeId(5));
            }
            now += 1;
            let sent = monitor.send(
                cap,
                wire::KIND_REQUEST,
                tag,
                TrafficClass::Request,
                payload.clone(),
                now,
            );
            black_box(sent).expect("outbox sized for the batch");
        }
        spent += t.elapsed();
        ops += BATCH as u64 - 1;
    }
    spent.as_nanos() as f64 / ops as f64
}

fn cap_check(min: Duration) -> f64 {
    let mut table = CapTable::new(64);
    let cap = table
        .insert_root(Capability::new(
            CapKind::Endpoint(EndpointId(3)),
            Rights::SEND,
        ))
        .expect("space");
    ns_per_op(min, || {
        for _ in 0..65_536 {
            black_box(table.check(black_box(cap), Rights::SEND).is_ok());
        }
        65_536
    })
}

/// Derive a child capability, then revoke it: the reclaim path of a
/// function pool teardown.
fn cap_derive_revoke(min: Duration) -> f64 {
    let mut table = CapTable::new(64);
    let root = table
        .insert_root(Capability::new(
            CapKind::Endpoint(EndpointId(3)),
            Rights::SEND | Rights::GRANT,
        ))
        .expect("space");
    ns_per_op(min, || {
        for _ in 0..16_384 {
            let child = table.derive(root, Rights::SEND, None).expect("narrowing");
            table.revoke(black_box(child)).expect("live");
        }
        16_384
    })
}

fn dram_access(min: Duration, rng: &mut SimRng) -> f64 {
    let mut dram = DramModel::new(DramConfig::default());
    let addrs: Vec<u64> = (0..4096).map(|_| rng.gen_range(4 << 20) & !1023).collect();
    let mut now = Cycle::ZERO;
    ns_per_op(min, || {
        for &a in &addrs {
            now = black_box(dram.access(now, a, 1024));
        }
        addrs.len() as u64
    })
}

fn segment_alloc_free(min: Duration) -> f64 {
    let mut alloc = SegmentAllocator::new(1 << 24, AllocPolicy::FirstFit);
    ns_per_op(min, || {
        for _ in 0..16_384 {
            let seg = alloc.alloc(black_box(4097)).expect("space");
            alloc.free(seg).expect("live");
        }
        16_384
    })
}

/// One PUT plus one GET on a 512-key store.
fn kv_op(min: Duration, rng: &mut SimRng) -> f64 {
    let mut store = KvStoreService::new();
    let keys: Vec<String> = (0..512).map(|k| format!("key{k:04}")).collect();
    let mut value = [0u8; 32];
    rng.fill_bytes(&mut value);
    ns_per_op(min, || {
        for k in &keys {
            store.insert(0xB, k.as_bytes(), &value);
            black_box(store.get(0xB, k.as_bytes()));
        }
        2 * keys.len() as u64
    })
}

fn video_encode(min: Duration, rng: &mut SimRng) -> f64 {
    let frame = video::Frame::test_pattern(32, 32, rng.next_u64());
    ns_per_op(min, || {
        for _ in 0..64 {
            black_box(video::encode(black_box(&frame), 0));
        }
        64
    })
}

fn lz_compress(min: Duration, rng: &mut SimRng) -> f64 {
    let encoded = video::encode(&video::Frame::test_pattern(32, 32, rng.next_u64()), 0);
    ns_per_op(min, || {
        for _ in 0..64 {
            black_box(lz::compress(black_box(&encoded)));
        }
        64
    })
}

/// Sender → receiver → cumulative ack, window 8, 64 B packets.
fn arq(min: Duration) -> f64 {
    let mut tx = GoBackNSender::new(8, 1_000);
    let mut rx = GoBackNReceiver::new();
    let payload: Payload = vec![0u8; 64].into();
    let mut now = Cycle::ZERO;
    ns_per_op(min, || {
        let mut packets = 0;
        for _ in 0..2_048 {
            now += 1;
            while tx.offer(payload.clone(), now) {}
            for pkt in tx.poll(now) {
                let (data, ack) = rx.on_packet(pkt);
                black_box(data);
                tx.on_ack(ack, now);
                packets += 1;
            }
        }
        packets
    })
}

/// One frame pushed onto a wire and popped at its arrival cycle.
fn wire_frame(min: Duration) -> f64 {
    let mut w = Wire::new(125, 50);
    let payload: Payload = vec![0u8; 64].into();
    let mut now = Cycle::ZERO;
    ns_per_op(min, || {
        for tag in 0..16_384u64 {
            w.push(
                now,
                Frame {
                    client: 1,
                    port: 80,
                    tag,
                    payload: payload.clone(),
                },
            );
            now = w.next_due().expect("just pushed");
            black_box(w.pop_due(now));
        }
        16_384
    })
}

/// One 64 B invoke across a two-board ToR star, stepping the fabric only on
/// its own activity cycles until it is idle again: uplink, switch,
/// downlink and the acks.
fn fabric_msg(min: Duration) -> f64 {
    let mut fabric = Fabric::new(2, FabricConfig::default());
    let msg = ClusterMsg {
        src: 0,
        dst: 1,
        body: Body::Invoke {
            service: 17,
            tag: 1,
            payload: vec![0u8; 64],
        },
    };
    let mut now = Cycle::ZERO;
    ns_per_op(min, || {
        let mut delivered = 0;
        for _ in 0..256 {
            fabric.send(&msg);
            loop {
                let next = fabric.next_activity(now + 1);
                if next == Cycle::MAX {
                    break;
                }
                now = next;
                delivered += fabric.step(now).0.len() as u64;
            }
        }
        delivered
    })
}

fn msg_codec(min: Duration) -> f64 {
    let msg = ClusterMsg {
        src: 0,
        dst: 1,
        body: Body::Invoke {
            service: 17,
            tag: 1,
            payload: vec![0u8; 64],
        },
    };
    ns_per_op(min, || {
        for _ in 0..16_384 {
            let bytes = black_box(&msg).encode();
            black_box(ClusterMsg::decode(&bytes));
        }
        16_384
    })
}

/// Token-bucket admission, three tenants, one decision per cycle.
fn admit(min: Duration) -> f64 {
    let mut adm = TenantAdmission::new(AdmissionConfig {
        rate_milli_inv_per_cycle: 50,
        burst_invocations: 16,
    });
    let mut now = Cycle::ZERO;
    ns_per_op(min, || {
        for i in 0..65_536u32 {
            now += 1;
            black_box(adm.admit(i % 3, now));
        }
        65_536
    })
}

/// Lookup, and insert on a miss, cycling nine bitstreams through a cache
/// that holds about three of them.
fn cache_lookup_insert(min: Duration) -> f64 {
    let mut cache = BitstreamCache::new(12 << 10);
    let names: Vec<(String, u64)> = (0..9u64)
        .map(|i| (format!("fn{i}"), 3_000 + 1_250 * i))
        .collect();
    ns_per_op(min, || {
        for _ in 0..1_024 {
            for (name, bytes) in &names {
                if !cache.lookup(name) {
                    cache.insert(name, *bytes);
                }
            }
        }
        1_024 * names.len() as u64
    })
}

/// Steady-state schedule + pop with 1024 events pending. Only
/// `host::HostSim` uses the queue today, so no workload should move with it.
fn eventq(min: Duration, rng: &mut SimRng) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let delays: Vec<u64> = (0..4096).map(|_| 1 + rng.gen_range(1_000)).collect();
    for &d in &delays[..1024] {
        q.schedule_in(d, d);
    }
    ns_per_op(min, || {
        for &d in &delays {
            black_box(q.pop());
            q.schedule_in(d, d);
        }
        delays.len() as u64
    })
}

fn histogram_record(min: Duration, rng: &mut SimRng) -> f64 {
    let mut h = Histogram::new();
    let values: Vec<u64> = (0..4096).map(|_| rng.gen_range(100_000)).collect();
    ns_per_op(min, || {
        for &v in &values {
            h.record(black_box(v));
        }
        values.len() as u64
    })
}

fn payload_clone(min: Duration) -> f64 {
    let payload: Payload = vec![0u8; 1024].into();
    ns_per_op(min, || {
        for _ in 0..65_536 {
            black_box(black_box(&payload).clone());
        }
        65_536
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_time() {
        let results = run_all(1, Duration::from_millis(1));
        assert_eq!(results.len(), 19);
        for (name, ns) in results {
            assert!(ns.is_finite() && ns > 0.0, "{name} = {ns}");
        }
    }
}
