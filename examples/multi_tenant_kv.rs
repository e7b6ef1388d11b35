//! Multi-tenant KV store (§2's "independent KV-store application").
//!
//! Two mutually distrusting tenants share one KV-store accelerator. The
//! kernel badges each tenant's capability; the monitor stamps the badge
//! into every message; the store namespaces keys by badge. Tenant B can
//! never read tenant A's data — and an unrelated tile with no capability
//! cannot reach the store at all.
//!
//! Run with: `cargo run --example multi_tenant_kv`

use apiary::accel::apps::idle::idle;
use apiary::accel::apps::kv::{self, KvStoreAccel};
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::monitor::wire;
use apiary::noc::{NodeId, TrafficClass};
use apiary::sim::Machine;

fn request(sys: &mut System, from: NodeId, cap: apiary::cap::CapRef, tag: u64, payload: Vec<u8>) {
    let now = sys.now();
    sys.tile_mut(from)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            tag,
            TrafficClass::Request,
            payload,
            now,
        )
        .expect("send accepted");
    sys.run_until_idle(100_000);
}

fn response(sys: &mut System, at: NodeId) -> (u8, Option<Vec<u8>>) {
    let d = sys.tile_mut(at).monitor.recv().expect("response");
    let (status, value) = kv::parse_resp(&d.msg.payload).expect("well formed");
    (status, value.map(|v| v.to_vec()))
}

fn main() {
    let mut sys = System::new(SystemConfig::default());
    let tenant_a = NodeId(0);
    let tenant_b = NodeId(3);
    let stranger = NodeId(12);
    let store = NodeId(9);

    sys.install(tenant_a, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(tenant_b, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(stranger, Box::new(idle()), AppId(4), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        store,
        Box::new(kv::kv_store()),
        AppId(3),
        FaultPolicy::Preempt,
    )
    .expect("free");

    // Tenancy: cross-application connections are explicit and badged.
    let cap_a = sys
        .connect_badged(tenant_a, store, 0xAAAA, true)
        .expect("explicit");
    let cap_b = sys
        .connect_badged(tenant_b, store, 0xBBBB, true)
        .expect("explicit");
    sys.connect(store, tenant_a, true).expect("reply path");
    sys.connect(store, tenant_b, true).expect("reply path");
    // The stranger gets NO capability.

    // Both tenants write the same key name.
    request(
        &mut sys,
        tenant_a,
        cap_a,
        1,
        kv::put_req(b"config", b"tenant A data"),
    );
    assert_eq!(response(&mut sys, tenant_a).0, kv::status::OK);
    request(
        &mut sys,
        tenant_b,
        cap_b,
        1,
        kv::put_req(b"config", b"tenant B data"),
    );
    assert_eq!(response(&mut sys, tenant_b).0, kv::status::OK);

    // Each reads back only its own value.
    request(&mut sys, tenant_a, cap_a, 2, kv::get_req(b"config"));
    let (s, v) = response(&mut sys, tenant_a);
    println!(
        "tenant A reads 'config' -> status {s}, {:?}",
        v.as_deref().map(String::from_utf8_lossy)
    );
    assert_eq!(v.as_deref(), Some(b"tenant A data".as_slice()));

    request(&mut sys, tenant_b, cap_b, 2, kv::get_req(b"config"));
    let (s, v) = response(&mut sys, tenant_b);
    println!(
        "tenant B reads 'config' -> status {s}, {:?}",
        v.as_deref().map(String::from_utf8_lossy)
    );
    assert_eq!(v.as_deref(), Some(b"tenant B data".as_slice()));

    // The stranger cannot even address the store: it has no capability.
    println!(
        "stranger holds {} capabilities -> cannot name the store at all",
        sys.tile(stranger).monitor.caps().live()
    );

    // The store is preemptible: the kernel can swap it out mid-run and the
    // tenants' data survives the context switch.
    let snapshot_bytes = sys.preempt(store).expect("kv store is preemptible");
    println!("preempted the store ({snapshot_bytes} B of externalized state)...");
    sys.run(1_000); // Cover the save/restore downtime.

    request(&mut sys, tenant_a, cap_a, 3, kv::get_req(b"config"));
    let (_, v) = response(&mut sys, tenant_a);
    assert_eq!(v.as_deref(), Some(b"tenant A data".as_slice()));
    println!("tenant A's data survived preemption.");

    // Revocation: the kernel cuts tenant B off; its capability dies.
    sys.tile_mut(tenant_b)
        .monitor
        .revoke_cap(cap_b)
        .expect("live");
    let now = sys.now();
    let err = sys
        .tile_mut(tenant_b)
        .monitor
        .send(
            cap_b,
            wire::KIND_REQUEST,
            9,
            TrafficClass::Request,
            kv::get_req(b"config"),
            now,
        )
        .expect_err("revoked");
    println!("tenant B after revocation -> {err}");

    let kvsvc = sys.accel_as::<KvStoreAccel>(store).expect("installed");
    println!(
        "store holds {} keys across tenants; tenant A: {}, tenant B: {}",
        kvsvc.service().len(),
        kvsvc.service().tenant_len(0xAAAA),
        kvsvc.service().tenant_len(0xBBBB),
    );
}
