//! Criterion microbenchmarks for Apiary's hot paths.
//!
//! These complement the experiment binaries (which regenerate the paper's
//! tables/figures) with statistically solid measurements of the core
//! primitives: the capability check on the message path, segment allocation
//! vs paging, NoC transit, monitor send, codecs, the full-system cycle, and
//! the fabric and cluster cycles when most of the machine is quiet.

use apiary_bench::scenarios::{client_server, drive, MonitorClient};
use apiary_cap::{CapKind, CapTable, Capability, EndpointId, MemRange, Rights};
use apiary_core::{System, SystemConfig};
use apiary_mem::{AccessKind, AllocPolicy, PagedMmu, SegmentAllocator, SegmentChecker};
use apiary_noc::{Message, Noc, NocConfig, NodeId, Payload, TrafficClass};
use apiary_sim::SimRng;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_cap_check(c: &mut Criterion) {
    let mut table = CapTable::new(64);
    let cap = table
        .insert_root(Capability::new(
            CapKind::Endpoint(EndpointId(3)),
            Rights::SEND,
        ))
        .expect("space");
    c.bench_function("cap/check", |b| {
        b.iter(|| black_box(table.check(black_box(cap), Rights::SEND)).is_ok())
    });

    let mem = table
        .insert_root(Capability::new(
            CapKind::Memory(MemRange::new(0x10000, 0x10000)),
            Rights::READ | Rights::WRITE,
        ))
        .expect("space");
    let checker = SegmentChecker::default();
    c.bench_function("cap/bounds_check", |b| {
        b.iter(|| {
            black_box(checker.check(&table, black_box(mem), AccessKind::Read, 0x100, 64)).is_ok()
        })
    });
}

fn bench_allocators(c: &mut Criterion) {
    c.bench_function("mem/segment_alloc_free", |b| {
        b.iter_batched_ref(
            || SegmentAllocator::new(1 << 24, AllocPolicy::FirstFit),
            |a| {
                let seg = a.alloc(black_box(4097)).expect("space");
                a.free(seg).expect("live");
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("mem/paged_map_unmap", |b| {
        b.iter_batched_ref(
            || PagedMmu::new(4096, 4096, 32, 60),
            |m| {
                let r = m.map(black_box(4097)).expect("frames");
                m.unmap(r).expect("live");
            },
            BatchSize::SmallInput,
        )
    });
    // Steady-state churn against a fragmented heap.
    c.bench_function("mem/segment_churn_fragmented", |b| {
        let mut a = SegmentAllocator::new(1 << 24, AllocPolicy::FirstFit);
        let mut rng = SimRng::new(5);
        let mut live = Vec::new();
        for _ in 0..500 {
            if let Ok(s) = a.alloc(rng.gen_range_inclusive(64, 8192)) {
                live.push(s);
            }
        }
        // Free every other to fragment.
        for s in live.iter().step_by(2) {
            a.free(*s).expect("live");
        }
        b.iter(|| {
            if let Ok(s) = a.alloc(black_box(1000)) {
                a.free(s).expect("live");
            }
        })
    });
}

fn bench_noc(c: &mut Criterion) {
    c.bench_function("noc/step_idle_8x8", |b| {
        let mut noc = Noc::new(NocConfig::soft(8, 8));
        b.iter(|| noc.step())
    });
    c.bench_function("noc/message_corner_to_corner_4x4", |b| {
        b.iter_batched_ref(
            || Noc::new(NocConfig::soft(4, 4)),
            |noc| {
                let msg = Message::new(NodeId(0), NodeId(15), TrafficClass::Request, vec![0; 64]);
                noc.try_inject(NodeId(0), msg).expect("space");
                noc.run_until_quiescent(10_000);
                black_box(noc.poll_eject(NodeId(15)));
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("noc/step_loaded_4x4", |b| {
        let mut noc = Noc::new(NocConfig::soft(4, 4));
        let mut rng = SimRng::new(9);
        b.iter(|| {
            for src in 0..16u16 {
                if rng.gen_bool(0.2) {
                    let dst = (src + 1 + rng.gen_range(15) as u16) % 16;
                    let _ = noc.try_inject(
                        NodeId(src),
                        Message::new(NodeId(src), NodeId(dst), TrafficClass::Request, vec![0; 16]),
                    );
                }
            }
            noc.step();
            for n in 0..16u16 {
                noc.drain_eject(NodeId(n));
            }
        })
    });
    // The `noc_uniform` shape of `apiary-benchmark`: Bernoulli 0.08 per node
    // per cycle, uniform destinations, 80 % 8 B (2 flits) and 20 % 64 B (5).
    c.bench_function("noc/step_saturated_8x8", |b| {
        let mut noc = Noc::new(NocConfig::soft(8, 8));
        let mut rng = SimRng::new(9);
        let small: Payload = vec![0xA5; 8].into();
        let big: Payload = vec![0x5A; 64].into();
        b.iter(|| {
            for src in 0..64u16 {
                if rng.gen_bool(0.08) {
                    let dst = (src + 1 + rng.gen_range(63) as u16) % 64;
                    let payload = if rng.gen_bool(0.2) { &big } else { &small };
                    let _ = noc.try_inject(
                        NodeId(src),
                        Message::new(
                            NodeId(src),
                            NodeId(dst),
                            TrafficClass::Request,
                            payload.clone(),
                        ),
                    );
                }
            }
            noc.step();
            for n in 0..64u16 {
                while let Some(d) = noc.poll_eject(NodeId(n)) {
                    black_box(d);
                }
            }
        })
    });
}

fn bench_codecs(c: &mut Criterion) {
    use apiary_accel::codec::{lz, video};
    let frame = video::Frame::test_pattern(64, 64, 3);
    c.bench_function("codec/video_encode_64x64", |b| {
        b.iter(|| black_box(video::encode(black_box(&frame), 0)))
    });
    let encoded = video::encode(&frame, 0);
    c.bench_function("codec/video_decode_64x64", |b| {
        b.iter(|| black_box(video::decode(black_box(&encoded))).expect("well formed"))
    });
    let text = b"the quick brown fox jumps over the lazy dog ".repeat(100);
    c.bench_function("codec/lz_compress_4k5", |b| {
        b.iter(|| black_box(lz::compress(black_box(&text))))
    });
    let packed = lz::compress(&text);
    c.bench_function("codec/lz_decompress_4k5", |b| {
        b.iter(|| black_box(lz::decompress(black_box(&packed))).expect("well formed"))
    });
}

fn bench_system(c: &mut Criterion) {
    use apiary_accel::apps::echo::echo;
    c.bench_function("system/tick_4x4", |b| {
        let (mut sys, _cap) = client_server(
            System::new(SystemConfig::default()),
            NodeId(0),
            NodeId(5),
            Box::new(echo(4)),
        );
        b.iter(|| sys.tick())
    });
    c.bench_function("system/request_response_roundtrip", |b| {
        b.iter_batched(
            || {
                client_server(
                    System::new(SystemConfig::default()),
                    NodeId(0),
                    NodeId(5),
                    Box::new(echo(4)),
                )
            },
            |(mut sys, cap)| {
                let mut client = MonitorClient::new(NodeId(0), cap, 32).max_requests(1);
                drive(&mut sys, &mut [&mut client], 100_000);
                assert!(client.done());
            },
            BatchSize::SmallInput,
        )
    });
}

/// The lockstep cluster when most of it is quiet: what a cycle costs
/// should follow the boards and links that have work, not how many exist.
fn bench_cluster(c: &mut Criterion) {
    use apiary_accel::apps::echo::echo;
    use apiary_cap::ServiceId;
    use apiary_cluster::{Body, ClusterConfig, ClusterMsg, ClusterSystem, Fabric, FabricConfig};
    use apiary_core::{AppId, FaultPolicy};
    use apiary_sim::Cycle;

    // An 8-board star has 16 links. Board 0 streams to board 1, keeping its
    // uplink and board 1's downlink busy; the other 14 links stay quiet.
    c.bench_function("cluster/fabric_step_one_busy_link_of_16", |b| {
        let mut fabric = Fabric::new(8, FabricConfig::default());
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
        b.iter(|| {
            now += 1;
            if now.as_u64().is_multiple_of(16) {
                fabric.send(&msg);
            }
            black_box(fabric.step(now))
        })
    });

    // Eight boards, one replica, one client, both on board 0: that board's
    // NoC and kernel phases are busy, the other seven have nothing due.
    c.bench_function("cluster/cluster_cycle_one_busy_board_of_8", |b| {
        let mut cluster = ClusterSystem::new(ClusterConfig {
            boards: 8,
            ..ClusterConfig::default()
        });
        cluster
            .deploy_replica(
                0,
                "echo",
                ServiceId(40),
                NodeId(5),
                AppId(1),
                FaultPolicy::FailStop,
                4096,
                Box::new(|| Box::new(echo(8))),
            )
            .expect("replica tile free");
        let mut tag = 0u64;
        b.iter(|| {
            let next = cluster.now() + 1;
            if next.as_u64().is_multiple_of(64) {
                tag += 1;
                let _ = black_box(cluster.submit(0, "echo", tag, vec![0u8; 64]));
            }
            cluster.advance_toward(next);
            black_box(cluster.take_completions())
        })
    });
}

criterion_group!(
    benches,
    bench_cap_check,
    bench_allocators,
    bench_noc,
    bench_codecs,
    bench_system,
    bench_cluster
);
criterion_main!(benches);
