//! Fault handling (§4.4): fail-stop vs preemption, side by side.
//!
//! Two identical faulty services run under the two policies. When each one
//! faults, watch what the rest of the system sees: the fail-stop tile
//! answers with errors until it is reconfigured; the preemptible tile is
//! context-swapped and keeps serving. A bystander never notices either.
//!
//! Run with: `cargo run --example fault_injection`

use apiary::accel::apps::echo::echo;
use apiary::accel::apps::faulty::faulty;
use apiary::accel::apps::idle::idle;
use apiary::core::{AppId, FaultPolicy, System, SystemConfig};
use apiary::monitor::{wire, TileState};
use apiary::noc::{NodeId, TrafficClass};
use apiary::sim::Machine;

fn send(sys: &mut System, from: NodeId, cap: apiary::cap::CapRef, tag: u64) {
    let now = sys.now();
    sys.tile_mut(from)
        .monitor
        .send(
            cap,
            wire::KIND_REQUEST,
            tag,
            TrafficClass::Request,
            vec![tag as u8],
            now,
        )
        .expect("send accepted");
    sys.run_until_idle(1_000_000);
}

fn describe(sys: &mut System, at: NodeId) -> String {
    match sys.tile_mut(at).monitor.recv() {
        Some(d) if d.msg.kind == wire::KIND_ERROR => {
            format!("ERROR (code {})", d.msg.payload[0])
        }
        Some(d) => format!("ok ({} B)", d.msg.payload.len()),
        None => "no reply (request swallowed by the fault)".to_string(),
    }
}

fn main() {
    let mut sys = System::new(SystemConfig::default());
    let client = NodeId(0);
    let failstop_svc = NodeId(5);
    let preempt_svc = NodeId(6);
    let bystander = NodeId(9);
    let bclient = NodeId(8);

    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    // Both services fault on their 2nd request.
    sys.install(
        failstop_svc,
        Box::new(faulty(2)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    sys.install(
        preempt_svc,
        Box::new(faulty(2)),
        AppId(1),
        FaultPolicy::Preempt,
    )
    .expect("free");
    sys.install(bclient, Box::new(idle()), AppId(2), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        bystander,
        Box::new(echo(2)),
        AppId(2),
        FaultPolicy::FailStop,
    )
    .expect("free");

    let fs = sys.connect(client, failstop_svc, false).expect("same app");
    sys.connect(failstop_svc, client, false).expect("reply");
    let pr = sys.connect(client, preempt_svc, false).expect("same app");
    sys.connect(preempt_svc, client, false).expect("reply");
    let by = sys.connect(bclient, bystander, false).expect("same app");
    sys.connect(bystander, bclient, false).expect("reply");

    println!("== fail-stop tile ({failstop_svc}) ==");
    send(&mut sys, client, fs, 1);
    println!("request 1 -> {}", describe(&mut sys, client));
    send(&mut sys, client, fs, 2); // Triggers the fault.
    println!("request 2 -> {}", describe(&mut sys, client));
    println!("tile state: {:?}", sys.tile(failstop_svc).monitor.state());
    send(&mut sys, client, fs, 3);
    println!("request 3 -> {}", describe(&mut sys, client));

    println!("\nkernel reconfigures {failstop_svc} with a fresh accelerator...");
    let done = sys
        .reconfigure(
            failstop_svc,
            Box::new(echo(2)),
            AppId(1),
            FaultPolicy::FailStop,
            256 << 10, // 256 KiB partial bitstream.
        )
        .expect("reconfigurable");
    let wait = done - sys.now();
    println!("bitstream load takes {wait} cycles at 4 B/cycle");
    sys.run(wait + 1);
    sys.connect(failstop_svc, client, false)
        .expect("re-wire reply");
    send(&mut sys, client, fs, 4);
    println!(
        "request 4 (after reconfig) -> {}",
        describe(&mut sys, client)
    );

    println!("\n== preemptible tile ({preempt_svc}) ==");
    send(&mut sys, client, pr, 1);
    println!("request 1 -> {}", describe(&mut sys, client));
    send(&mut sys, client, pr, 2); // Triggers the fault -> context swap.
    println!("request 2 -> {}", describe(&mut sys, client));
    let rec = sys.tile(preempt_svc).faults[0];
    println!(
        "fault handled by {:?} (tile stayed {:?})",
        rec.action,
        sys.tile(preempt_svc).monitor.state()
    );
    sys.run(1_000); // Cover the swap downtime.
    send(&mut sys, client, pr, 3);
    println!("request 3 (after swap) -> {}", describe(&mut sys, client));
    assert_eq!(sys.tile(preempt_svc).monitor.state(), TileState::Running);

    println!("\n== bystander (different application) ==");
    send(&mut sys, bclient, by, 1);
    println!("bystander request -> {}", describe(&mut sys, bclient));
    println!(
        "bystander faults recorded: {} (containment held)",
        sys.tile(bystander).faults.len()
    );
}
