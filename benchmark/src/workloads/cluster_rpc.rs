//! `cluster_rpc`: open-loop echo RPC over an 8-board cluster.
//!
//! Eight boards on the default ToR star, one `echo(60)` replica per board,
//! eight Poisson clients (one per entry board, mean interarrival 80 cycles
//! each: 0.1 req/cycle offered, which eight replicas absorb without
//! backlog). Once per `CUT_PERIOD` board 7's uplink is cut for `CUT_WINDOW`
//! cycles, so retry and timeout accounting is non-trivial. `cluster`
//! (fabric, directory gossip, balancer), `net` ARQ/frames and eight
//! lockstep `core` boards do the work; `faas` does none and each NoC is
//! sparse. The benchmark owns the driver loop (`submit` / `advance_toward`
//! / `take_completions`), so it keeps exact per-request latency.

use super::{cluster_counts, cluster_layer, derive_seed, Phases, Rep, SimOutcome};
use crate::span::Recorder;
use apiary_accel::apps::echo::echo;
use apiary_cap::ServiceId;
use apiary_cluster::{ClusterClient, ClusterConfig, ClusterSystem, FabricConfig};
use apiary_core::{AppId, FaultPolicy};
use apiary_net::Workload;
use apiary_noc::NodeId;
use apiary_sim::{Cycle, SimRng};

const BOARDS: u16 = 8;
const SERVICE: ServiceId = ServiceId(17);
const SERVICE_NAME: &str = "echo";
const REPLICA_NODE: NodeId = NodeId(5);
const BITSTREAM_BYTES: u64 = 4096;
const ECHO_COST: u64 = 60;
const INTERARRIVAL: f64 = 80.0;
const PAYLOAD_BYTES: usize = 64;
const REQUEST_TIMEOUT: u64 = 8_000;
/// Bitstream load plus one gossip round, before any client exists.
const BOOT_CYCLES: u64 = 2_000;
/// Warm-up cycles of driven load (directories converged, ARQ windows and
/// flow caches primed, the start-up burst of arrivals absorbed).
const WARM_CYCLES: u64 = 90_000;
/// Driven-load cycles of the timed section.
const LOAD_CYCLES: u64 = 480_000;
const CUT_PERIOD: u64 = 200_000;
/// Where in each period the cut starts.
const CUT_OFFSET: u64 = 100_000;
const CUT_WINDOW: u64 = 3_000;
const CUT_BOARD: u16 = BOARDS - 1;
const DRAIN_LIMIT: u64 = 400_000;
/// Host-time slice length in cycles (see `Phases`).
const SLICE_CYCLES: u64 = 6_000;

/// Per-client record of first-issue cycles, indexed by the tag's sequence
/// number (`tag = client_id << 32 | seq`). Retries reuse the tag, so the
/// first issue is the request's due time.
struct Issued {
    first: Vec<Cycle>,
    /// Sequence numbers below this were issued during warm-up.
    timed_from: u64,
}

struct Driver {
    c: ClusterSystem,
    clients: Vec<ClusterClient>,
    issued: Vec<Issued>,
    payload: Vec<u8>,
    timed: bool,
    out: SimOutcome,
}

impl Driver {
    fn client_of(tag: u64) -> usize {
        (tag >> 32) as usize - 1
    }

    /// Hands client `i` the outcome of one attempt at `tag` and, if that
    /// settles the request (the client did not schedule a retry instead),
    /// records it.
    fn settle(&mut self, i: usize, tag: u64, now: Cycle, is_error: bool) {
        let gen = &mut self.clients[i].gen;
        let before = gen.stats.completed;
        gen.complete(tag, now, is_error);
        let seq = tag & 0xffff_ffff;
        if gen.stats.completed == before || seq < self.issued[i].timed_from {
            return;
        }
        if is_error {
            self.out.failed += 1;
        } else {
            self.out.ok += 1;
            let first = self.issued[i].first[seq as usize];
            self.out.latencies.push(now - first);
        }
    }

    /// One driver step, as `apiary_cluster::drive_clients` but keeping the
    /// exact per-request record: deliver completions, then issue arrivals
    /// and due retries.
    fn drive(&mut self, rec: &mut Recorder) {
        let now = self.c.now();
        let s = rec.start("cluster.completions");
        let completions = self.c.take_completions();
        rec.end(s);
        for done in completions {
            self.settle(Self::client_of(done.tag), done.tag, now, done.is_error);
        }
        for i in 0..self.clients.len() {
            let origin = self.clients[i].origin;
            for tag in self.clients[i].gen.poll(now) {
                let seq = (tag & 0xffff_ffff) as usize;
                if seq == self.issued[i].first.len() {
                    self.issued[i].first.push(now);
                    self.out.attempted += self.timed as u64;
                }
                let s = rec.start("cluster.submit");
                let res = self
                    .c
                    .submit(origin, SERVICE_NAME, tag, self.payload.clone());
                rec.end(s);
                if res.is_err() {
                    // Refused at the door: an error completion for the
                    // client's retry policy, exactly as a timeout would be.
                    self.settle(i, tag, now, true);
                }
            }
        }
    }

    /// Runs to `end` (or, when draining, until everything has completed),
    /// stopping exactly on every client event.
    fn run_to(&mut self, end: Cycle, draining: bool, phases: &mut Phases, rec: &mut Recorder) {
        while self.c.now() < end {
            if draining && self.drained() {
                return;
            }
            let next = self.c.now() + 1;
            let mut due = end;
            for cl in &self.clients {
                if let Some(t) = cl.gen.next_timed_event() {
                    due = due.min(t.max(next));
                }
            }
            loop {
                let s = rec.start("cluster.advance");
                self.c.advance_toward(due);
                rec.end(s);
                phases.lap_every(self.c.now().as_u64(), SLICE_CYCLES);
                if self.c.now() >= due || self.c.has_completions() {
                    // Clients are polled on the cycle their next event is
                    // due, never later.
                    let lag = self.c.now().saturating_since(due);
                    self.out.max_inject_lag = self.out.max_inject_lag.max(lag);
                    break;
                }
                if draining && self.drained() {
                    return;
                }
            }
            self.drive(rec);
        }
    }

    fn drained(&self) -> bool {
        self.c.quiescent()
            && !self.c.has_completions()
            && self.clients.iter().all(|cl| cl.gen.in_flight() == 0)
    }

    /// Runs `cycles` of driven load with the periodic uplink cut.
    fn load(&mut self, cycles: u64, phases: &mut Phases, rec: &mut Recorder) {
        let start = self.c.now().as_u64();
        let end = start + cycles;
        let mut period = start;
        while period < end {
            let cut = (period + CUT_OFFSET).min(end);
            let heal = (cut + CUT_WINDOW).min(end);
            self.run_to(Cycle(cut), false, phases, rec);
            if cut < end {
                self.c.cut_link(CUT_BOARD, None);
                self.run_to(Cycle(heal), false, phases, rec);
                self.c.restore_link(CUT_BOARD, None);
            }
            period += CUT_PERIOD;
            self.run_to(Cycle(period.min(end)), false, phases, rec);
        }
    }
}

pub fn run(seed: u64, shrink: u64, rec: &mut Recorder) -> Rep {
    let mut phases = Phases::start();

    // Set-up: build, deploy, boot, attach clients, warm up under load.
    let mut c = ClusterSystem::new(ClusterConfig {
        boards: BOARDS,
        request_timeout: REQUEST_TIMEOUT,
        seed: derive_seed(seed, 0),
        fabric: FabricConfig {
            seed: derive_seed(seed, 1),
            ..FabricConfig::default()
        },
        ..ClusterConfig::default()
    });
    for b in 0..BOARDS {
        c.deploy_replica(
            b,
            SERVICE_NAME,
            SERVICE,
            REPLICA_NODE,
            AppId(1),
            FaultPolicy::FailStop,
            BITSTREAM_BYTES,
            Box::new(|| Box::new(echo(ECHO_COST))),
        )
        .expect("replica tile free");
    }
    c.tick_n(BOOT_CYCLES);
    let clients = (0..BOARDS)
        .map(|i| {
            ClusterClient::new(
                i as u32 + 1,
                i,
                SERVICE_NAME,
                PAYLOAD_BYTES,
                Workload::Open {
                    mean_interarrival: INTERARRIVAL,
                },
                derive_seed(seed, 10 + i as u64),
            )
        })
        .collect();
    let mut payload = vec![0u8; PAYLOAD_BYTES];
    SimRng::new(derive_seed(seed, 2)).fill_bytes(&mut payload);
    let mut d = Driver {
        c,
        clients,
        issued: (0..BOARDS)
            .map(|_| Issued {
                first: Vec::new(),
                timed_from: u64::MAX,
            })
            .collect(),
        payload,
        timed: false,
        out: SimOutcome::default(),
    };
    d.load(WARM_CYCLES / shrink, &mut phases, &mut Recorder::off());
    for rec in &mut d.issued {
        rec.timed_from = rec.first.len() as u64;
    }
    d.timed = true;
    let start = d.c.now();
    let counts0 = cluster_counts(&d.c, BOARDS);
    let clients0 = client_totals(&d.clients);
    phases.setup_done();

    // Timed: the driven load, then stop arrivals and drain.
    let root = rec.start("bench.driver");
    let load_cycles = LOAD_CYCLES / shrink;
    d.load(load_cycles, &mut phases, rec);
    for cl in &mut d.clients {
        cl.gen.max_requests = cl.gen.stats.issued;
    }
    let limit = d.c.now() + DRAIN_LIMIT;
    d.run_to(limit, true, &mut phases, rec);
    rec.end(root);

    let drained = d.drained();
    let Driver {
        c,
        clients,
        mut out,
        ..
    } = d;
    out.require(drained, || "cluster did not drain".to_string());
    let [retries, gave_up, shed] = client_totals(&clients);
    // Arrivals an open breaker shed never got a tag: attempted and failed.
    out.attempted += shed - clients0[2];
    out.failed += shed - clients0[2];
    out.sim_cycles = c.now() - start;
    out.load_cycles = load_cycles;
    out.layer = cluster_layer(&c, BOARDS, &counts0, out.sim_cycles);
    out.layer.extend([
        ("net.client_retries", (retries - clients0[0]) as f64),
        ("net.client_gave_up", (gave_up - clients0[1]) as f64),
    ]);
    out.finish();
    phases.finish(out)
}

/// `[retries, gave_up, shed]` summed over the clients.
fn client_totals(clients: &[ClusterClient]) -> [u64; 3] {
    clients.iter().fold([0; 3], |[r, g, s], cl| {
        let st = &cl.gen.stats;
        [r + st.retries, g + st.gave_up, s + st.shed]
    })
}
