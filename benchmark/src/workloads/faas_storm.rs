//! `faas_storm`: the serverless plane under a recurring invocation storm.
//!
//! Four boards, eight Zipf(0.9) functions plus one idle function, E18's
//! configuration (12 KiB bitstream cache so evictions happen, autoscale
//! every 2000 cycles, scale-to-zero after 3 idle intervals, per-tenant
//! token bucket of 0.05 inv/cycle). Two base tenants arrive Poisson (mean
//! 50 cycles each). Every `PERIOD` cycles the idle function is touched
//! three times and a flash-crowd tenant (mean 8 cycles, all on fn0) storms
//! through 40–60 % of the period, so cold starts, scale-ups, reclaims and
//! admission sheds recur every period. Open loop on a fixed schedule.
//! `faas` admission / autoscaler / cache / cold-start pipeline does the
//! work on top of the same `cluster` layer `cluster_rpc` uses for steady
//! RPC (here: pool deploy and teardown, cap revocation, republish).

use super::{cluster_counts, cluster_layer, derive_seed, Phases, Rep, SimOutcome};
use crate::span::Recorder;
use apiary_accel::apps::echo::echo;
use apiary_cluster::ClusterConfig;
use apiary_core::AppId;
use apiary_faas::{AdmissionConfig, FaasConfig, FaasSystem, FunctionSpec, InvokeOutcome};
use apiary_resources::Area;
use apiary_sim::rng::ZipfTable;
use apiary_sim::{Cycle, SimRng};
use std::rc::Rc;

const BOARDS: u16 = 4;
const FUNCTIONS: usize = 8;
const ZIPF_THETA: f64 = 0.9;
const ECHO_COST: u64 = 50;
const BASE_TENANTS: u32 = 2;
const BASE_INTERARRIVAL: f64 = 50.0;
const FLASH_TENANT: u32 = 2;
const FLASH_INTERARRIVAL: f64 = 8.0;
const PERIOD: u64 = 150_000;
/// Offsets into each period at which the idle function is touched.
const IDLE_TOUCHES: [u64; 3] = [200, 2_200, 4_200];
const PAYLOAD_BYTES: usize = 32;
/// Warm-up periods (bitstream caches filled, pools at their steady shape).
const WARM_PERIODS: u64 = 1;
/// Timed periods.
const LOAD_PERIODS: u64 = 6;
const DRAIN_LIMIT: u64 = 400_000;
/// Host-time slice length in cycles (see `Phases`).
const SLICE_CYCLES: u64 = 10_000;

/// One scheduled invocation.
#[derive(Clone, Copy)]
struct Arrival {
    at: u64,
    fn_idx: u8,
    tenant: u8,
}

/// Every arrival of `periods` periods starting at cycle `from`, by time.
fn schedule(
    rng: &mut SimRng,
    idle_fn: usize,
    from: u64,
    periods: u64,
    period: u64,
) -> Vec<Arrival> {
    let zipf = ZipfTable::new(FUNCTIONS, ZIPF_THETA);
    let draw = |r: &mut SimRng, mean: f64| (r.gen_exp(mean).ceil() as u64).max(1);
    let end = from + periods * period;
    let mut out = Vec::new();
    for tenant in 0..BASE_TENANTS {
        let mut t = from + draw(rng, BASE_INTERARRIVAL);
        while t < end {
            out.push(Arrival {
                at: t,
                fn_idx: zipf.sample(rng) as u8,
                tenant: tenant as u8,
            });
            t += draw(rng, BASE_INTERARRIVAL);
        }
    }
    for p in 0..periods {
        let base = from + p * period;
        for off in IDLE_TOUCHES {
            out.push(Arrival {
                at: base + off * period / PERIOD,
                fn_idx: idle_fn as u8,
                tenant: 0,
            });
        }
        let (flash_start, flash_end) = (base + period * 2 / 5, base + period * 3 / 5);
        let mut t = flash_start;
        while t < flash_end {
            out.push(Arrival {
                at: t,
                fn_idx: 0,
                tenant: FLASH_TENANT as u8,
            });
            t += draw(rng, FLASH_INTERARRIVAL);
        }
    }
    // Stable: equal cycles keep generation order.
    out.sort_by_key(|a| a.at);
    out
}

fn build(seed: u64) -> (FaasSystem, usize) {
    let mut s = FaasSystem::new(FaasConfig {
        cluster: ClusterConfig {
            boards: BOARDS,
            request_timeout: 12_000,
            seed: derive_seed(seed, 0),
            ..ClusterConfig::default()
        },
        cache_bytes: 12 << 10,
        autoscale_interval: 2_000,
        idle_intervals_to_zero: 3,
        queue_timeout: 10_000,
        admission: AdmissionConfig {
            rate_milli_inv_per_cycle: 50,
            burst_invocations: 16,
        },
        seed: derive_seed(seed, 1),
        ..FaasConfig::default()
    });
    for i in 0..FUNCTIONS {
        // Hotter functions get smaller bitstreams, so the tail's rare cold
        // starts carry the biggest fetches (the eight sum to ~57 KiB).
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

struct Driver {
    s: FaasSystem,
    payload: Vec<u8>,
    origin_rr: u64,
    /// Arrivals at or after this cycle are timed.
    timed_from: u64,
    /// Sum over autoscale-interval samples of mean board utilisation.
    util_sum: f64,
    util_samples: u64,
    out: SimOutcome,
}

impl Driver {
    /// Offers every arrival of `arrivals` on its due cycle, stepping the
    /// plane between them, until `end`.
    fn load(&mut self, arrivals: &[Arrival], end: u64, phases: &mut Phases, rec: &mut Recorder) {
        let mut next = 0;
        let mut next_sample = self.s.now().as_u64();
        loop {
            let now = self.s.now().as_u64();
            while next < arrivals.len() && arrivals[next].at <= now {
                let a = arrivals[next];
                next += 1;
                let timed = a.at >= self.timed_from;
                if timed {
                    self.out.max_inject_lag = self.out.max_inject_lag.max(now - a.at);
                    self.out.attempted += 1;
                }
                let origin = (self.origin_rr % BOARDS as u64) as u16;
                self.origin_rr += 1;
                let s = rec.start("faas.invoke");
                let outcome = self.s.invoke(
                    a.fn_idx as usize,
                    a.tenant as u32,
                    origin,
                    self.payload.clone(),
                );
                rec.end(s);
                // Shed at the front door: never enters, never finishes.
                if timed && outcome == InvokeOutcome::Throttled {
                    self.out.failed += 1;
                }
            }
            if next_sample <= now {
                self.util_sum += (0..BOARDS)
                    .map(|b| self.s.board_utilisation(b))
                    .sum::<f64>()
                    / BOARDS as f64;
                self.util_samples += 1;
                next_sample += 2_000;
            }
            self.collect(rec);
            if now >= end {
                return;
            }
            let mut horizon = end.min(next_sample);
            if let Some(a) = arrivals.get(next) {
                horizon = horizon.min(a.at);
            }
            let s = rec.start("faas.step");
            self.s.step_toward(Cycle(horizon));
            rec.end(s);
            phases.lap_every(self.s.now().as_u64(), SLICE_CYCLES);
        }
    }

    /// Every offered invocation is accounted for, nothing is queued and the
    /// fleet underneath is quiet. `FaasSystem::quiescent` also wants every
    /// replica live, which a replica still fetching or loading for a
    /// function nobody calls any more never satisfies (seed 3 ends with the
    /// idle function's last deploy pending), so it is not the drain test.
    fn drained(&self) -> bool {
        self.out.ok + self.out.failed == self.out.attempted
            && (0..self.s.function_count()).all(|f| self.s.stats(f).queue_depth == 0)
            && self.s.cluster().quiescent()
    }

    /// Accounts finished invocations from the plane's exact records.
    fn collect(&mut self, rec: &mut Recorder) {
        let s = rec.start("faas.finished");
        let finished = self.s.take_finished();
        rec.end(s);
        for f in finished {
            if f.arrival.as_u64() < self.timed_from {
                continue;
            }
            if f.ok {
                self.out.ok += 1;
                self.out.latencies.push(f.finished_at - f.arrival);
            } else {
                // Error completion, cluster timeout, or queue expiry.
                self.out.failed += 1;
            }
        }
    }
}

pub fn run(seed: u64, shrink: u64, rec: &mut Recorder) -> Rep {
    let mut phases = Phases::start();
    // Shrinking shortens the period, not the period count: every phase of
    // the storm still happens.
    let period = PERIOD / shrink;

    // Set-up: build, generate the whole schedule, run the warm-up period.
    let (s, idle_fn) = build(seed);
    let mut rng = SimRng::new(derive_seed(seed, 2));
    let warm_end = WARM_PERIODS * period;
    let load_end = warm_end + LOAD_PERIODS * period;
    let warm = schedule(&mut rng, idle_fn, 0, WARM_PERIODS, period);
    let timed = schedule(&mut rng, idle_fn, warm_end, LOAD_PERIODS, period);
    let mut payload = vec![0u8; PAYLOAD_BYTES];
    rng.fill_bytes(&mut payload);
    let mut d = Driver {
        s,
        payload,
        origin_rr: 0,
        timed_from: warm_end,
        util_sum: 0.0,
        util_samples: 0,
        out: SimOutcome::default(),
    };
    phases.lap();
    d.load(&warm, warm_end, &mut phases, &mut Recorder::off());
    let stats0 = fn_totals(&d.s);
    let cache0 = cache_totals(&d.s);
    let counts0 = cluster_counts(d.s.cluster(), BOARDS);
    (d.util_sum, d.util_samples) = (0.0, 0);
    phases.setup_done();

    // Timed: the storm periods, then drain.
    let root = rec.start("bench.driver");
    d.load(&timed, load_end, &mut phases, rec);
    let limit = d.s.now().as_u64() + DRAIN_LIMIT;
    while !d.drained() && d.s.now().as_u64() < limit {
        let s = rec.start("faas.step");
        d.s.step_toward(Cycle(limit));
        rec.end(s);
        d.collect(rec);
    }
    let drained = d.drained();
    rec.end(root);

    let Driver {
        s,
        mut out,
        util_sum,
        util_samples,
        ..
    } = d;
    out.require(drained, || "plane did not drain".to_string());
    if let Err(e) = s.check_invariants() {
        out.require(false, || format!("faas invariants: {e}"));
    }
    out.sim_cycles = s.now().as_u64() - warm_end;
    out.load_cycles = load_end - warm_end;

    let stats = fn_totals(&s);
    let cache = cache_totals(&s);
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let invocations = stats.invocations - stats0.invocations;
    let lookups = (cache.0 - cache0.0) + (cache.1 - cache0.1);
    out.layer = vec![
        ("faas.invocations", invocations as f64),
        (
            "faas.cold_share",
            share(stats.cold - stats0.cold, invocations),
        ),
        ("faas.shed", (s.admission().shed - stats0.shed) as f64),
        ("faas.expired", (stats.expired - stats0.expired) as f64),
        (
            "faas.completed_err",
            (stats.completed_err - stats0.completed_err) as f64,
        ),
        ("faas.deploys", (stats.deploys - stats0.deploys) as f64),
        ("faas.reclaims", (stats.reclaims - stats0.reclaims) as f64),
        ("faas.cache_hit_share", share(cache.0 - cache0.0, lookups)),
        ("faas.cache_evictions", (cache.2 - cache0.2) as f64),
        ("faas.mean_area_util", util_sum / util_samples.max(1) as f64),
        (
            "faas.cold_p99_cycles",
            s.cold_latency.histogram().p99() as f64,
        ),
        (
            "faas.warm_p99_cycles",
            s.warm_latency.histogram().p99() as f64,
        ),
    ];
    out.layer
        .extend(cluster_layer(s.cluster(), BOARDS, &counts0, out.sim_cycles));
    out.finish();
    phases.finish(out)
}

/// Per-function counters summed over every function, plus admission sheds.
struct FnTotals {
    invocations: u64,
    cold: u64,
    completed_err: u64,
    expired: u64,
    deploys: u64,
    reclaims: u64,
    shed: u64,
}

fn fn_totals(s: &FaasSystem) -> FnTotals {
    let mut t = FnTotals {
        invocations: 0,
        cold: 0,
        completed_err: 0,
        expired: 0,
        deploys: 0,
        reclaims: 0,
        shed: s.admission().shed,
    };
    for f in 0..s.function_count() {
        let st = s.stats(f);
        t.invocations += st.invocations;
        t.cold += st.cold_invocations;
        t.completed_err += st.completed_err;
        t.expired += st.expired;
        t.deploys += st.deploys;
        t.reclaims += st.reclaims;
    }
    t
}

/// Bitstream-cache `(hits, misses, evictions)` summed over the boards.
fn cache_totals(s: &FaasSystem) -> (u64, u64, u64) {
    (0..BOARDS).fold((0, 0, 0), |(h, m, e), b| {
        let c = s.cache(b);
        (h + c.hits, m + c.misses, e + c.evictions)
    })
}
