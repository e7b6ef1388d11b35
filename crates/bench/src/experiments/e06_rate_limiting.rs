//! E6 — Rate limiting a misbehaving accelerator (§4.5).
//!
//! A flooder shares an echo service with a legitimate client. Policies:
//!
//! - **no defense**: the flooder sends unmetered in the victim's own
//!   traffic class — the service queue saturates and the victim's latency
//!   explodes (late requests bounce with OVERLOAD errors);
//! - **NoC QoS only**: the flood is demoted to the bulk class. Priority
//!   arbitration protects the victim *in the network*, but the service's
//!   shared inbox is still swamped — an honest negative result: NoC QoS is
//!   not endpoint admission control;
//! - **monitor rate limit**: the flooder's own monitor meters its egress
//!   to a trickle, and the victim returns to baseline.

use crate::harness::Run;
use crate::report::{rows_json, table, ExperimentReport, Json, Row};
use crate::scenarios::{drive, MonitorClient};
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::flood::{flooder, FlooderAccel};
use apiary_accel::apps::idle::idle;
use apiary_core::{AppId, FaultPolicy, SystemConfig};
use apiary_monitor::{Monitor, MonitorConfig};
use apiary_noc::{NodeId, TrafficClass};
use core::fmt::Write;

struct Outcome {
    victim_p50: u64,
    victim_p99: u64,
    victim_errors: u64,
    flood_sent: u64,
    flood_denied: u64,
    cycles: u64,
}

/// Service compute cost: slower than the unmetered flood arrival rate, so
/// an undefended flood saturates the service.
const SERVICE_COST: u64 = 8;
/// Flood message payload (small enough to arrive faster than service).
const FLOOD_BYTES: usize = 64;

fn run_policy(
    run: Run,
    attacker_present: bool,
    flood_class: TrafficClass,
    flooder_rate: Option<(u64, u64)>,
    requests: u64,
) -> Outcome {
    let client = NodeId(0);
    let service = NodeId(5);
    let attacker = NodeId(10);
    let mut sys = run.system(SystemConfig::default());
    sys.install(client, Box::new(idle()), AppId(1), FaultPolicy::FailStop)
        .expect("free");
    sys.install(
        service,
        Box::new(echo(SERVICE_COST)),
        AppId(1),
        FaultPolicy::FailStop,
    )
    .expect("free");
    // Give the service a deeper inbox so queueing (not just overflow) is
    // visible. Monitor policy is set before any capability is installed.
    sys.tile_mut(service).monitor = Monitor::new(
        service,
        MonitorConfig {
            inbox_depth: 256,
            ..MonitorConfig::default()
        },
    );
    if attacker_present {
        let mut f = flooder(FLOOD_BYTES);
        f.service_mut().class = flood_class;
        sys.install(attacker, Box::new(f), AppId(2), FaultPolicy::FailStop)
            .expect("free");
        if let Some((rate, burst)) = flooder_rate {
            sys.tile_mut(attacker).monitor = Monitor::new(
                attacker,
                MonitorConfig {
                    rate: Some((rate, burst)),
                    ..MonitorConfig::default()
                },
            );
        }
        sys.connect_env(attacker, service, "target", true)
            .expect("explicit cross-app");
        sys.connect(service, attacker, true).expect("reply path");
    }
    let cap = sys.connect(client, service, false).expect("same app");
    sys.connect(service, client, false).expect("reply path");

    let mut victim = MonitorClient::new(client, cap, 64)
        .window(1)
        .max_requests(requests);
    let cycles = drive(&mut sys, &mut [&mut victim], 50_000_000);
    assert!(victim.done(), "victim never finished ({cycles} cycles)");
    let (flood_sent, flood_denied) = sys
        .accel_as::<FlooderAccel>(attacker)
        .map(|a| (a.service().sent, a.service().rate_limited))
        .unwrap_or((0, 0));
    Outcome {
        victim_p50: victim.rtt.p50(),
        victim_p99: victim.rtt.p99(),
        victim_errors: victim.errors,
        flood_sent,
        flood_denied,
        cycles,
    }
}

/// Runs the experiment; returns the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let requests = 200;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E6: Protecting a shared service from a flooding accelerator\n\
         (victim: closed-loop echo client; attacker floods the same service)\n"
    );
    let outcomes = [
        (
            "no attacker (baseline)",
            run_policy(run, false, TrafficClass::Request, None, requests),
        ),
        (
            "no defense",
            run_policy(run, true, TrafficClass::Request, None, requests),
        ),
        (
            "NoC QoS only (flood demoted to bulk)",
            run_policy(run, true, TrafficClass::Bulk, None, requests),
        ),
        (
            "monitor rate limit (0.05 B/cyc)",
            run_policy(run, true, TrafficClass::Request, Some((50, 512)), requests),
        ),
    ];
    let rows: Vec<Row> = outcomes
        .iter()
        .map(|(name, o)| {
            Row::new()
                .both("policy", "policy", *name)
                .both("victim_p50", "victim p50 (ok)", o.victim_p50)
                .both("victim_p99", "victim p99 (ok)", o.victim_p99)
                .both("victim_errors", "victim errors", o.victim_errors)
                .both("flood_msgs", "flood msgs", o.flood_sent)
                .both("flood_denials", "flood denials", o.flood_denied)
        })
        .collect();
    let _ = writeln!(out, "{}", table(&rows));
    let sim_cycles = outcomes.iter().map(|(_, o)| o.cycles).sum();
    let baseline = &outcomes[0].1;
    let flooded = &outcomes[1].1;
    let limited = &outcomes[3].1;
    let metrics = Json::obj()
        .set("baseline_p99", baseline.victim_p99)
        .set("flooded_p99", flooded.victim_p99)
        .set("rate_limited_p99", limited.victim_p99)
        .set("flood_denials_under_limit", limited.flood_denied)
        .set("policies", rows_json(&rows));
    ExperimentReport::new(
        "E6",
        "Rate-limiting a flooding accelerator at its monitor",
        sim_cycles,
        metrics,
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_hurts_and_rate_limit_heals() {
        let quiet = run_policy(Run::EVENT, false, TrafficClass::Request, None, 25);
        let bad = run_policy(Run::EVENT, true, TrafficClass::Request, None, 25);
        let healed = run_policy(Run::EVENT, true, TrafficClass::Request, Some((50, 512)), 25);
        assert!(
            bad.victim_p99 > quiet.victim_p99 * 2,
            "flood p99 {} vs quiet {}",
            bad.victim_p99,
            quiet.victim_p99
        );
        assert!(
            healed.victim_p99 < bad.victim_p99 / 2,
            "healed {} vs flooded {}",
            healed.victim_p99,
            bad.victim_p99
        );
        assert!(healed.flood_denied > 0);
        assert_eq!(quiet.victim_errors, 0);
    }
}
