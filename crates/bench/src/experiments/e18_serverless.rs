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
use crate::report::{round3, ExperimentReport, Json};
use crate::table::TextTable;
use apiary_accel::apps::echo::echo;
use apiary_cluster::ClusterConfig;
use apiary_core::AppId;
use apiary_faas::{AdmissionConfig, FaasConfig, FaasStats, FaasSystem, FunctionSpec};
use apiary_resources::Area;
use apiary_sim::{Cycle, SimRng};
use core::fmt::Write;
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

/// One timeline sample, taken at an autoscale boundary.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Sample cycle.
    pub cycle: u64,
    /// Live replicas, all functions.
    pub live: usize,
    /// Live replicas of the hottest function.
    pub hot_live: usize,
    /// Live replicas of the idle function.
    pub idle_live: usize,
    /// Queued invocations, all functions.
    pub queued: usize,
    /// Mean elastic-area utilisation across boards.
    pub mean_util: f64,
}

/// Aggregated bitstream-cache counters across the fleet.
#[derive(Debug, Clone, Copy)]
pub struct CacheTotals {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes_evicted: u64,
}

/// The whole cell's measurements.
#[derive(Debug, Clone)]
pub struct ServerlessReport {
    /// Cycles of driven load.
    pub duration: u64,
    /// Flash-crowd window `[start, end)`.
    pub flash: (u64, u64),
    /// Cold-start latency (p50, p99) of successful cold arrivals.
    pub cold: (u64, u64),
    /// Warm latency (p50, p99) of successful warm arrivals.
    pub warm: (u64, u64),
    /// Invocations that arrived cold / warm (admitted only).
    pub cold_count: u64,
    pub warm_count: u64,
    /// Base tenants' ok-rate during the flash window over their pre-flash
    /// ok-rate (arrival-classified).
    pub goodput_retention: f64,
    /// Base-tenant ok completions arriving before / during the flash.
    pub pre_ok: u64,
    pub flash_ok: u64,
    /// Flash-tenant invocations shed at admission / admitted.
    pub flash_shed: u64,
    pub flash_admitted: u64,
    /// Live replicas of the idle function at the 75% mark (must be 0).
    pub idle_replicas_at_75: usize,
    /// Measured cold-start latency of the idle function's re-invocation at
    /// the 80% mark (0 if it failed — the test rejects that).
    pub idle_reinvoke_latency: u64,
    /// Peak live replicas of the hot function (autoscaling evidence).
    pub hot_peak_live: usize,
    /// Per-function end-of-run stats, `FUNCTIONS` entries then the idle fn.
    pub fn_stats: Vec<FaasStats>,
    /// Replica/queue timeline at every autoscale boundary.
    pub timeline: Vec<Sample>,
    pub cache: CacheTotals,
    /// Scale-ups denied for want of a tile or area.
    pub scale_up_denied: u64,
    /// Queue flushes deferred by gateway backpressure.
    pub refusals: u64,
    /// Invocations expired waiting for a replica.
    pub expired: u64,
    /// Replica deploys / reclaims, all functions.
    pub deploys: u64,
    pub reclaims: u64,
    /// The post-load drain reached quiescence (must always be true).
    pub drained: bool,
    /// Simulated cycles at the end of the run.
    pub sim_cycles: u64,
}

fn build(run: Run, duration: u64) -> (FaasSystem, usize) {
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
    let _ = duration;
    (s, idle_fn)
}

/// Drives the storm and collects the cell's measurements.
pub fn execute(run: Run) -> ServerlessReport {
    let duration: u64 = if run.quick { 60_000 } else { 150_000 };
    let flash_start = duration * 2 / 5;
    let flash_end = duration * 3 / 5;
    let idle_check_at = duration * 3 / 4;
    let idle_reinvoke_at = duration * 4 / 5;

    let (mut s, idle_fn) = build(run, duration);
    let mut rng = SimRng::new(SEED ^ 0x5707);
    let draw = |r: &mut SimRng, mean: f64| (r.gen_exp(mean).ceil() as u64).max(1);

    // Absolute next-arrival cycles per stream. Every one of these is a
    // step_toward horizon, so both clocks execute the exact same schedule.
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
            timeline.push(Sample {
                cycle: now,
                live,
                hot_live,
                idle_live: s.live_replicas(idle_fn),
                queued,
                mean_util: util,
            });
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
        s.step_toward(Cycle(horizon));
    }

    // Stop issuing and drain: the storm may expire queued work, never
    // wedge the plane.
    let drained = s.run_until(DRAIN_LIMIT, |s| s.quiescent());
    assert!(drained, "serverless plane failed to drain");
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

    let fn_stats: Vec<FaasStats> = (0..s.function_count()).map(|f| s.stats(f)).collect();
    let mut cache = CacheTotals {
        hits: 0,
        misses: 0,
        evictions: 0,
        bytes_evicted: 0,
    };
    for b in 0..BOARDS {
        let c = s.cache(b);
        cache.hits += c.hits;
        cache.misses += c.misses;
        cache.evictions += c.evictions;
        cache.bytes_evicted += c.bytes_evicted;
    }
    let cold_count: u64 = fn_stats.iter().map(|st| st.cold_invocations).sum();
    let warm_count: u64 = fn_stats
        .iter()
        .map(|st| st.invocations - st.cold_invocations)
        .sum();

    ServerlessReport {
        duration,
        flash: (flash_start, flash_end),
        cold: (
            s.cold_latency.histogram().p50(),
            s.cold_latency.histogram().p99(),
        ),
        warm: (
            s.warm_latency.histogram().p50(),
            s.warm_latency.histogram().p99(),
        ),
        cold_count,
        warm_count,
        goodput_retention,
        pre_ok,
        flash_ok,
        flash_shed: s.admission().shed_for(2),
        // Every admitted invocation finishes by the drain, so the finished
        // log is the exact admitted count per tenant.
        flash_admitted: finished.iter().filter(|f| f.tenant == 2).count() as u64,
        idle_replicas_at_75,
        idle_reinvoke_latency,
        hot_peak_live,
        fn_stats,
        timeline,
        cache,
        scale_up_denied: s.scale_up_denied,
        refusals: s.refusals,
        expired: (0..s.function_count()).map(|f| s.stats(f).expired).sum(),
        deploys: (0..s.function_count()).map(|f| s.stats(f).deploys).sum(),
        reclaims: (0..s.function_count()).map(|f| s.stats(f).reclaims).sum(),
        drained,
        sim_cycles,
    }
}

impl ServerlessReport {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "E18: Serverless orchestration — cold starts, warm pools, scale-to-zero\n\
             ({} cycles of open-loop load on {BOARDS} boards: {FUNCTIONS} Zipf({ZIPF_THETA}) \
             functions + 1 idle fn, echo cost {ECHO_COST}, flash crowd on fn0 in \
             [{}, {}))\n",
            self.duration, self.flash.0, self.flash.1
        );
        let mut t = TextTable::new(&[
            "fn", "invoked", "cold", "ok", "err", "expired", "deploys", "reclaims", "live@end",
        ]);
        for (i, st) in self.fn_stats.iter().enumerate() {
            let name = if i < FUNCTIONS {
                format!("fn{i}")
            } else {
                "fn-idle".to_string()
            };
            t.row_owned(vec![
                name,
                st.invocations.to_string(),
                st.cold_invocations.to_string(),
                st.completed_ok.to_string(),
                st.completed_err.to_string(),
                st.expired.to_string(),
                st.deploys.to_string(),
                st.reclaims.to_string(),
                st.live.to_string(),
            ]);
        }
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "\nCold starts: {} invocations, p50 {} / p99 {} cycles\n\
             Warm path:   {} invocations, p50 {} / p99 {} cycles",
            self.cold_count, self.cold.0, self.cold.1, self.warm_count, self.warm.0, self.warm.1
        );
        let _ = writeln!(
            out,
            "Flash crowd: {} shed at admission; base-tenant goodput retention {:.1}% \
             ({} ok before vs {} ok during, rate-normalised)",
            self.flash_shed,
            self.goodput_retention * 100.0,
            self.pre_ok,
            self.flash_ok
        );
        let _ = writeln!(
            out,
            "Scale-to-zero: idle fn at 75% mark had {} live replicas; re-invoke at 80% \
             completed cold in {} cycles",
            self.idle_replicas_at_75, self.idle_reinvoke_latency
        );
        let _ = writeln!(
            out,
            "Autoscaler: hot fn peaked at {} live replicas; {} deploys, {} reclaims, \
             {} scale-ups denied",
            self.hot_peak_live, self.deploys, self.reclaims, self.scale_up_denied
        );
        let _ = writeln!(
            out,
            "Bitstream cache: {} hits / {} misses, {} evictions ({} bytes re-fetch debt)",
            self.cache.hits, self.cache.misses, self.cache.evictions, self.cache.bytes_evicted
        );
        let step = (self.timeline.len() / 15).max(1);
        let mut tl = TextTable::new(&["cycle", "live", "hot", "idle-fn", "queued", "mean util"]);
        for sm in self.timeline.iter().step_by(step) {
            tl.row_owned(vec![
                sm.cycle.to_string(),
                sm.live.to_string(),
                sm.hot_live.to_string(),
                sm.idle_live.to_string(),
                sm.queued.to_string(),
                format!("{:.3}", sm.mean_util),
            ]);
        }
        let _ = writeln!(out, "\nReplica timeline (every {step} boundaries):");
        out.push_str(&tl.render());
        out
    }
}

/// Builds the structured report.
pub fn report(run: Run) -> ExperimentReport {
    let r = execute(run);
    let mut metrics = Json::obj()
        .set("duration_cycles", r.duration)
        .set("boards", BOARDS as u64)
        .set("functions", FUNCTIONS as u64)
        .set("zipf_theta", ZIPF_THETA)
        .set(
            "flash_window",
            Json::Arr(vec![Json::U64(r.flash.0), Json::U64(r.flash.1)]),
        )
        .set("cold_count", r.cold_count)
        .set("cold_p50", r.cold.0)
        .set("cold_p99", r.cold.1)
        .set("warm_count", r.warm_count)
        .set("warm_p50", r.warm.0)
        .set("warm_p99", r.warm.1)
        .set(
            "goodput_retention",
            (r.goodput_retention * 10_000.0).round() / 10_000.0,
        )
        .set("pre_flash_ok", r.pre_ok)
        .set("flash_ok", r.flash_ok)
        .set("flash_shed", r.flash_shed)
        .set("flash_admitted", r.flash_admitted)
        .set("idle_replicas_at_75pct", r.idle_replicas_at_75 as u64)
        .set("idle_reinvoke_cold_latency", r.idle_reinvoke_latency)
        .set("hot_peak_live", r.hot_peak_live as u64)
        .set("deploys", r.deploys)
        .set("reclaims", r.reclaims)
        .set("expired", r.expired)
        .set("scale_up_denied", r.scale_up_denied)
        .set("refusals", r.refusals)
        .set(
            "cache",
            Json::obj()
                .set("hits", r.cache.hits)
                .set("misses", r.cache.misses)
                .set("evictions", r.cache.evictions)
                .set("bytes_evicted", r.cache.bytes_evicted),
        )
        .set("drained", r.drained);
    let mut fns = Vec::new();
    for (i, st) in r.fn_stats.iter().enumerate() {
        let name = if i < FUNCTIONS {
            format!("fn{i}")
        } else {
            "fn-idle".to_string()
        };
        fns.push(
            Json::obj()
                .set("name", name)
                .set("invocations", st.invocations)
                .set("cold_invocations", st.cold_invocations)
                .set("completed_ok", st.completed_ok)
                .set("completed_err", st.completed_err)
                .set("expired", st.expired)
                .set("deploys", st.deploys)
                .set("reclaims", st.reclaims)
                .set("live_at_end", st.live as u64),
        );
    }
    metrics.put("functions", Json::Arr(fns));
    let timeline: Vec<Json> = r
        .timeline
        .iter()
        .map(|sm| {
            Json::obj()
                .set("cycle", sm.cycle)
                .set("live", sm.live as u64)
                .set("hot_live", sm.hot_live as u64)
                .set("idle_live", sm.idle_live as u64)
                .set("queued", sm.queued as u64)
                .set("mean_util", round3(sm.mean_util))
        })
        .collect();
    metrics.put("timeline", Json::Arr(timeline));
    ExperimentReport::new(
        "E18",
        "Serverless orchestration: cold starts, warm pools, scale-to-zero",
        r.sim_cycles,
        metrics,
        r.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_exceeds_warm_and_scale_to_zero_works() {
        let r = execute(Run::QUICK);
        assert!(r.drained);
        assert!(
            r.cold.1 > r.warm.1,
            "cold p99 {} must exceed warm p99 {}",
            r.cold.1,
            r.warm.1
        );
        assert!(r.cold_count > 0 && r.warm_count > r.cold_count);
        // Scale-to-zero: the abandoned function's pool emptied, and the
        // re-invocation paid a real, measured cold start.
        assert_eq!(r.idle_replicas_at_75, 0, "idle fn not reclaimed");
        assert!(
            r.idle_reinvoke_latency > 1_000,
            "re-invoke after scale-to-zero must pay a cold start, got {}",
            r.idle_reinvoke_latency
        );
        // The flash crowd was shed at the door, not absorbed by the base
        // tenants' goodput.
        assert!(r.flash_shed > 0, "flash tenant never shed");
        assert!(
            r.goodput_retention >= 0.7,
            "base goodput retention {:.2} under flash crowd",
            r.goodput_retention
        );
        // The autoscaler actually grew the hot pool.
        assert!(r.hot_peak_live >= 2, "hot fn never scaled out");
        assert!(r.reclaims > 0, "nothing ever scaled back down");
        assert!(r.cache.misses > 0);
    }

    #[test]
    fn same_inputs_same_report() {
        let a = report(Run::QUICK);
        let b = report(Run::QUICK);
        assert_eq!(a.artifacts(), b.artifacts());
    }
}
