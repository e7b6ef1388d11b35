//! Scale-out (§3, §4.1): a service replicated behind a transparent load
//! balancer, plus a multi-context tile hosting independent processes.
//!
//! Run with: `cargo run --example scale_out`

use apiary::accel::apps::balance::{balancer, BalancerAccel};
use apiary::accel::apps::hash::HashService;
use apiary::accel::apps::idle::idle;
use apiary::accel::apps::kv::{self, KvStoreService};
use apiary::accel::apps::multi::MultiService;
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::monitor::wire;
use apiary::noc::{NodeId, TrafficClass};
use apiary::sim::Machine;

fn main() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let lb = NodeId(5);
    let replicas = [NodeId(6), NodeId(9), NodeId(10)];

    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(lb, Box::new(balancer()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    for (i, &r) in replicas.iter().enumerate() {
        // Each replica is itself a multi-context hash engine.
        sys.install(
            r,
            Box::new(MultiService::new(HashService::default)),
            AppId(1),
            FaultPolicy::Preempt,
        )
        .expect("free");
        sys.connect_env(lb, r, &format!("replica{i}"), false)
            .expect("same app");
        sys.connect(r, lb, false).expect("reply path");
    }
    let cap = sys.connect(client, lb, false).expect("same app");
    sys.connect(lb, client, false).expect("reply path");
    println!("Topology:\n{}", sys.render_map());

    // Blast 30 hashing requests through the balancer, yielding to the
    // machine whenever the monitor's outbox backpressures.
    for tag in 0..30u64 {
        loop {
            let now = sys.now();
            match sys.tile_mut(client).monitor.send(
                cap,
                wire::KIND_REQUEST,
                tag,
                TrafficClass::Request,
                format!("payload #{tag}").into_bytes(),
                now,
            ) {
                Ok(()) => break,
                Err(apiary::monitor::SendError::Backpressure) => sys.run(10),
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }
    sys.run_until_idle(1_000_000);

    let mut completed = 0;
    while let Some(d) = sys.tile_mut(client).monitor.recv() {
        assert_eq!(d.msg.kind, wire::KIND_RESPONSE);
        assert_eq!(d.msg.payload.len(), 8, "an FNV digest");
        completed += 1;
    }
    let b = sys.accel_as::<BalancerAccel>(lb).expect("installed");
    println!(
        "{completed} responses; balancer spread {} requests as {:?}",
        b.forwarded, b.per_replica
    );
    assert_eq!(completed, 30);

    // A second scenario: one tile, many processes. A multi-context KV
    // store hosts two contexts distinguished by capability badges.
    let store = NodeId(3);
    sys.install(
        store,
        Box::new(MultiService::new(KvStoreService::new)),
        AppId(2),
        FaultPolicy::Preempt,
    )
    .expect("free");
    let ctx_a = sys
        .connect_badged(client, store, 0xA, true)
        .expect("explicit");
    let ctx_b = sys
        .connect_badged(client, store, 0xB, true)
        .expect("explicit");
    sys.connect(store, client, true).expect("reply path");

    for (cap, val) in [(ctx_a, "from context A"), (ctx_b, "from context B")] {
        let now = sys.now();
        sys.tile_mut(client)
            .monitor
            .send(
                cap,
                wire::KIND_REQUEST,
                99,
                TrafficClass::Request,
                kv::put_req(b"who", val.as_bytes()),
                now,
            )
            .expect("send accepted");
        sys.run_until_idle(100_000);
        sys.tile_mut(client).monitor.recv().expect("ack");
    }
    let now = sys.now();
    sys.tile_mut(client)
        .monitor
        .send(
            ctx_a,
            wire::KIND_REQUEST,
            100,
            TrafficClass::Request,
            kv::get_req(b"who"),
            now,
        )
        .expect("send accepted");
    sys.run_until_idle(100_000);
    let d = sys.tile_mut(client).monitor.recv().expect("value");
    let (_, v) = kv::parse_resp(&d.msg.payload).expect("well formed");
    println!(
        "context A reads back: {:?} (context B's write stayed in its own process)",
        v.map(String::from_utf8_lossy)
    );
    assert_eq!(v, Some(b"from context A".as_slice()));
}
