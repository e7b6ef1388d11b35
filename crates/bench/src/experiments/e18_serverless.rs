//! E18 — Serverless orchestration: cold starts, warm pools, autoscaling,
//! scale-to-zero (DESIGN.md §6).
//!
//! An open-loop invocation storm drives a [`FaasSystem`] over a four-board
//! fleet: two base tenants issue Poisson arrivals against eight functions
//! with Zipf-distributed popularity, a ninth "idle" function is touched a
//! few times and then abandoned, and mid-run a flash-crowd tenant hammers
//! the hottest function at several times its admitted allowance. The cell
//! must show, in one run:
//!
//! - **Cold vs warm**: invocations arriving with zero live replicas pay
//!   the measured cold start (store fetch on a cache miss, ICAP load,
//!   republish, gossip) — their p99 must sit well above the warm p99.
//! - **Autoscaling**: the hot function's pool grows toward one replica
//!   per board as the flash crowd deepens its queue, then shrinks back.
//! - **Scale-to-zero**: the idle function's replicas drop to zero by the
//!   75% mark and a re-invocation at 80% succeeds with a measured cold
//!   start.
//! - **Goodput retention**: per-tenant admission sheds the flash tenant at
//!   the front door, so the base tenants' ok-rate during the crowd stays
//!   close to their pre-crowd rate.
//!
//! Reported: cold/warm p50+p99, goodput retention, the replica/queue
//! timeline sampled at every autoscale boundary, per-function lifecycle
//! counters, bitstream-cache hits/misses/evictions, and admission sheds.

use crate::harness::Run;
use crate::report::{round4, rows_json, table, ExperimentReport, Json, Row};
use apiary_accel::apps::echo::echo;
use apiary_cluster::ClusterConfig;
use apiary_core::AppId;
use apiary_faas::{AdmissionConfig, FaasConfig, FaasSystem, FunctionSpec};
use apiary_resources::Area;
use apiary_sim::{Cycle, Machine, SimRng};
use std::rc::Rc;

const BOARDS: u16 = 4;
/// Zipf-popular functions; index 0 is the hottest.
const FUNCTIONS: usize = 8;
const ZIPF_THETA: f64 = 0.9;
/// Service cost per invocation, busy cycles.
const ECHO_COST: u64 = 50;
/// Per-base-tenant mean interarrival (two tenants → 0.04 inv/cycle).
const BASE_INTERARRIVAL: f64 = 50.0;
/// Flash-crowd mean interarrival — ~2.5x one tenant's admitted allowance,
/// all aimed at the hottest function.
const FLASH_INTERARRIVAL: f64 = 8.0;
/// Cycles between autoscaler boundaries (and timeline samples).
const AUTOSCALE_INTERVAL: u64 = 2_000;
/// Absolute cycles at which the idle function is touched before being
/// abandoned (its last pre-abandonment activity ends well before the
/// first autoscale idle window).
const IDLE_TOUCHES: [u64; 3] = [200, 2_200, 4_200];
const DRAIN_LIMIT: u64 = 400_000;
const SEED: u64 = 0xE18_0001;

fn build(run: Run) -> (FaasSystem, usize) {
    let mut s = run.faas(FaasConfig {
        cluster: ClusterConfig {
            boards: BOARDS,
            // Mild (~1.1x) transient overload during the flash ramp: a
            // generous cluster timeout keeps queued-then-submitted work
            // alive while the pool grows.
            request_timeout: 12_000,
            ..ClusterConfig::default()
        },
        // Small enough that a board hosting a few functions evicts: the
        // eight bitstreams sum to ~57 KiB.
        cache_bytes: 12 << 10,
        autoscale_interval: AUTOSCALE_INTERVAL,
        idle_intervals_to_zero: 3,
        queue_timeout: 10_000,
        // 0.05 inv/cycle sustained per tenant: both base tenants fit with
        // 2x headroom; the flash tenant (0.125 offered) is mostly shed.
        admission: AdmissionConfig {
            rate_milli_inv_per_cycle: 50,
            burst_invocations: 16,
        },
        seed: SEED,
        ..FaasConfig::default()
    });
    for i in 0..FUNCTIONS {
        // Popularity rank i: hotter functions get smaller bitstreams, so
        // the tail's rare cold starts carry the biggest fetches.
        s.register(FunctionSpec {
            name: format!("fn{i}"),
            footprint: Area::logic(90_000 + 8_000 * i as u64, 100_000),
            bitstream_bytes: 3_000 + 1_250 * i as u64,
            app: AppId(10 + i as u32),
            factory: Rc::new(|| Box::new(echo(ECHO_COST))),
        });
    }
    let idle_fn = s.register(FunctionSpec {
        name: "fn-idle".to_string(),
        footprint: Area::logic(90_000, 100_000),
        bitstream_bytes: 4_096,
        app: AppId(30),
        factory: Rc::new(|| Box::new(echo(ECHO_COST))),
    });
    (s, idle_fn)
}

/// Drives the storm, then writes the report from what it measured.
pub fn report(run: Run) -> ExperimentReport {
    let duration: u64 = 150_000;
    let flash_start = duration * 2 / 5;
    let flash_end = duration * 3 / 5;
    let idle_check_at = duration * 3 / 4;
    let idle_reinvoke_at = duration * 4 / 5;

    let (mut s, idle_fn) = build(run);
    let mut rng = SimRng::new(SEED ^ 0x5707);
    let draw = |r: &mut SimRng, mean: f64| (r.gen_exp(mean).ceil() as u64).max(1);

    // Absolute next-arrival cycles per stream. Every one of these is a
    // advance_toward horizon, so both clocks execute the exact same schedule.
    let mut next_base = [
        draw(&mut rng, BASE_INTERARRIVAL),
        draw(&mut rng, BASE_INTERARRIVAL),
    ];
    let mut next_flash = flash_start;
    let mut next_sample = 0u64;
    let mut idle_i = 0usize;
    let mut idle_checked = false;
    let mut idle_reinvoked = false;
    let mut idle_replicas_at_75 = usize::MAX;
    let mut origin_rr = 0u64;
    let mut timeline = Vec::new();
    let mut hot_peak_live = 0usize;

    while s.now().as_u64() < duration {
        let now = s.now().as_u64();
        if next_sample <= now {
            let live: usize = (0..s.function_count()).map(|f| s.stats(f).live).sum();
            let queued: usize = (0..s.function_count())
                .map(|f| s.stats(f).queue_depth)
                .sum();
            let util: f64 =
                (0..BOARDS).map(|b| s.board_utilisation(b)).sum::<f64>() / BOARDS as f64;
            let hot_live = s.live_replicas(0);
            hot_peak_live = hot_peak_live.max(hot_live);
            timeline.push(
                Row::new()
                    .both("cycle", "cycle", now)
                    .both("live", "live", live)
                    .both("hot_live", "hot", hot_live)
                    .both("idle_live", "idle-fn", s.live_replicas(idle_fn))
                    .both("queued", "queued", queued)
                    .fixed("mean_util", "mean util", util, 3),
            );
            next_sample += AUTOSCALE_INTERVAL;
        }
        if !idle_checked && idle_check_at <= now {
            idle_replicas_at_75 = s.live_replicas(idle_fn);
            idle_checked = true;
        }
        if !idle_reinvoked && idle_reinvoke_at <= now {
            s.invoke(
                idle_fn,
                0,
                (origin_rr % BOARDS as u64) as u16,
                vec![0u8; 32],
            );
            origin_rr += 1;
            idle_reinvoked = true;
        }
        while idle_i < IDLE_TOUCHES.len() && IDLE_TOUCHES[idle_i] <= now {
            s.invoke(
                idle_fn,
                0,
                (origin_rr % BOARDS as u64) as u16,
                vec![0u8; 32],
            );
            origin_rr += 1;
            idle_i += 1;
        }
        for (t, next) in next_base.iter_mut().enumerate() {
            while *next <= now {
                let f = rng.gen_zipf(FUNCTIONS, ZIPF_THETA);
                s.invoke(
                    f,
                    t as u32,
                    (origin_rr % BOARDS as u64) as u16,
                    vec![0u8; 32],
                );
                origin_rr += 1;
                *next += draw(&mut rng, BASE_INTERARRIVAL);
            }
        }
        if now >= flash_start && now < flash_end {
            while next_flash <= now {
                s.invoke(0, 2, (origin_rr % BOARDS as u64) as u16, vec![0u8; 32]);
                origin_rr += 1;
                next_flash += draw(&mut rng, FLASH_INTERARRIVAL);
            }
        }

        let mut horizon = duration.min(next_sample);
        if !idle_checked {
            horizon = horizon.min(idle_check_at);
        }
        if !idle_reinvoked {
            horizon = horizon.min(idle_reinvoke_at);
        }
        if idle_i < IDLE_TOUCHES.len() {
            horizon = horizon.min(IDLE_TOUCHES[idle_i]);
        }
        horizon = horizon.min(next_base[0]).min(next_base[1]);
        if now < flash_end {
            horizon = horizon.min(next_flash.max(flash_start));
        }
        s.advance_toward(Cycle(horizon));
    }

    // Stop issuing and drain: the storm may expire queued work, never
    // wedge the plane (`E18.cold-starts` reads `drained`).
    let drained = s.run_until(DRAIN_LIMIT, |s| s.quiescent());
    let sim_cycles = s.now().as_u64();

    // Arrival-classified phase accounting from the exact per-invocation
    // records (histogram quantiles are bucketed; these are not).
    let finished = s.take_finished();
    let mut pre_ok = 0u64;
    let mut flash_ok = 0u64;
    let mut idle_reinvoke_latency = 0u64;
    for f in &finished {
        let at = f.arrival.as_u64();
        if f.ok && f.tenant < 2 {
            if at < flash_start {
                pre_ok += 1;
            } else if at < flash_end {
                flash_ok += 1;
            }
        }
        if f.ok && f.fn_idx == idle_fn && at >= idle_reinvoke_at {
            idle_reinvoke_latency = f.finished_at - f.arrival;
        }
    }
    let pre_rate = pre_ok as f64 / flash_start.max(1) as f64;
    let flash_rate = flash_ok as f64 / (flash_end - flash_start).max(1) as f64;
    let goodput_retention = if pre_rate > 0.0 {
        flash_rate / pre_rate
    } else {
        0.0
    };

    let functions: Vec<Row> = (0..s.function_count())
        .map(|f| {
            let st = s.stats(f);
            let name = if f < FUNCTIONS {
                format!("fn{f}")
            } else {
                "fn-idle".to_string()
            };
            Row::new()
                .both("name", "fn", name)
                .both("invocations", "invoked", st.invocations)
                .both("cold_invocations", "cold", st.cold_invocations)
                .both("completed_ok", "ok", st.completed_ok)
                .both("completed_err", "err", st.completed_err)
                .both("expired", "expired", st.expired)
                .both("deploys", "deploys", st.deploys)
                .both("reclaims", "reclaims", st.reclaims)
                .both("live_at_end", "live@end", st.live)
        })
        .collect();
    let total = |key| functions.iter().map(|r| r.record().u64(key)).sum::<u64>();
    let cold_count = total("cold_invocations");
    let warm_count = total("invocations") - cold_count;
    let (deploys, reclaims) = (total("deploys"), total("reclaims"));
    let (mut hits, mut misses, mut evictions, mut bytes_evicted) = (0, 0, 0, 0);
    for b in 0..BOARDS {
        let c = s.cache(b);
        hits += c.hits;
        misses += c.misses;
        evictions += c.evictions;
        bytes_evicted += c.bytes_evicted;
    }
    let cold = s.cold_latency.histogram();
    let warm = s.warm_latency.histogram();
    let flash_shed = s.admission().shed_for(2);

    let step = (timeline.len() / 15).max(1);
    let rendered = format!(
        "E18: Serverless orchestration — cold starts, warm pools, scale-to-zero\n\
         ({duration} cycles of open-loop load on {BOARDS} boards: {FUNCTIONS} Zipf({ZIPF_THETA}) \
         functions + 1 idle fn, echo cost {ECHO_COST}, flash crowd on fn0 in \
         [{flash_start}, {flash_end}))\n\n{}\n\
         Cold starts: {cold_count} invocations, p50 {} / p99 {} cycles\n\
         Warm path:   {warm_count} invocations, p50 {} / p99 {} cycles\n\
         Flash crowd: {flash_shed} shed at admission; base-tenant goodput retention {:.1}% \
         ({pre_ok} ok before vs {flash_ok} ok during, rate-normalised)\n\
         Scale-to-zero: idle fn at 75% mark had {idle_replicas_at_75} live replicas; re-invoke \
         at 80% completed cold in {idle_reinvoke_latency} cycles\n\
         Autoscaler: hot fn peaked at {hot_peak_live} live replicas; {deploys} deploys, \
         {reclaims} reclaims, {} scale-ups denied\n\
         Bitstream cache: {hits} hits / {misses} misses, {evictions} evictions \
         ({bytes_evicted} bytes re-fetch debt)\n\n\
         Replica timeline (every {step} boundaries):\n{}",
        table(&functions),
        cold.p50(),
        cold.p99(),
        warm.p50(),
        warm.p99(),
        goodput_retention * 100.0,
        s.scale_up_denied,
        table(timeline.iter().step_by(step)),
    );
    let metrics = Json::obj()
        .set("duration_cycles", duration)
        .set("boards", BOARDS as u64)
        .set("functions", rows_json(&functions))
        .set("zipf_theta", ZIPF_THETA)
        .set("flash_window", vec![flash_start, flash_end])
        .set("cold_count", cold_count)
        .set("cold_p50", cold.p50())
        .set("cold_p99", cold.p99())
        .set("warm_count", warm_count)
        .set("warm_p50", warm.p50())
        .set("warm_p99", warm.p99())
        .set("goodput_retention", round4(goodput_retention))
        .set("pre_flash_ok", pre_ok)
        .set("flash_ok", flash_ok)
        .set("flash_shed", flash_shed)
        // Every admitted invocation finishes by the drain, so the finished
        // log is the exact admitted count per tenant.
        .set(
            "flash_admitted",
            finished.iter().filter(|f| f.tenant == 2).count(),
        )
        .set("idle_replicas_at_75pct", idle_replicas_at_75)
        .set("idle_reinvoke_cold_latency", idle_reinvoke_latency)
        .set("hot_peak_live", hot_peak_live)
        .set("deploys", deploys)
        .set("reclaims", reclaims)
        .set("expired", total("expired"))
        .set("scale_up_denied", s.scale_up_denied)
        .set("refusals", s.refusals)
        .set(
            "cache",
            Json::obj()
                .set("hits", hits)
                .set("misses", misses)
                .set("evictions", evictions)
                .set("bytes_evicted", bytes_evicted),
        )
        .set("drained", drained)
        .set("timeline", rows_json(&timeline));
    ExperimentReport::new(
        "E18",
        "Serverless orchestration: cold starts, warm pools, scale-to-zero",
        sim_cycles,
        metrics,
        rendered,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_exceeds_warm_and_scale_to_zero_works() {
        // Also the flash crowd shed at the door and the autoscaler growing
        // and reclaiming the hot pool.
        crate::claims::assert_hold([&report(Run::EVENT)]);
    }

    #[test]
    fn same_inputs_same_report() {
        let a = report(Run::EVENT);
        let b = report(Run::EVENT);
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
