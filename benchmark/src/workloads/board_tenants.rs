//! `board_tenants`: the paper's §2 board, four tenants on one 4×4 system.
//!
//! - **A (net)**: an `EthernetTile` MAC with four closed-loop external
//!   clients (window 1 each) steering to `echo(64)`.
//! - **B (kv)**: an on-chip client doing PUT then GET through a badged
//!   capability, four lanes; every GET is checked against its PUT.
//! - **C (video)**: client → `video_encoder` → `compressor` → client,
//!   32×32 frames, window 2; every output is checked against the codecs.
//! - **D (mem)**: 1 KiB `send_mem` write then read-back at random offsets
//!   of a 4 MiB grant, four lanes; every read is checked.
//!
//! Closed loop throughout. `core` phases, `monitor` + `cap` flow cache,
//! `accel`, `mem` and the `net` MAC do the work; the NoC is sparsely loaded
//! and runs its active-set / idle-skip path — the opposite use of the layer
//! `noc_uniform` saturates. `cluster` and `faas` do nothing.

use super::{derive_seed, Phases, Rep, SimOutcome};
use crate::span::Recorder;
use crate::stats::percentile;
use apiary_accel::apps::compress::compressor;
use apiary_accel::apps::echo::echo;
use apiary_accel::apps::idle::idle;
use apiary_accel::apps::kv;
use apiary_accel::apps::video::{encode_request, video_encoder};
use apiary_accel::codec::{lz, video};
use apiary_cap::CapRef;
use apiary_core::memsvc::MemoryService;
use apiary_core::process::OS_APP;
use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
use apiary_mem::AccessKind;
use apiary_monitor::{wire, MonitorStats, SendError};
use apiary_net::{EthernetTile, NetConfig, RequestGen, Workload};
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{Cycle, Payload, SimRng};

const MAC: NodeId = NodeId(0);
const KV_CLIENT: NodeId = NodeId(1);
const VIDEO_CLIENT: NodeId = NodeId(3);
const ECHO: NodeId = NodeId(5);
const KV_STORE: NodeId = NodeId(6);
const ENCODER: NodeId = NodeId(7);
const COMPRESSOR: NodeId = NodeId(11);
const MEM_CLIENT: NodeId = NodeId(12);

const ECHO_COST: u64 = 64;
const MAC_CLIENTS: u32 = 4;
const MAC_BYTES: usize = 64;
const KV_LANES: usize = 4;
const KV_BADGE: u64 = 0xB;
const KV_KEYS_PER_LANE: u64 = 512;
const KV_VALUE_BYTES: usize = 32;
const VIDEO_WINDOW: usize = 2;
const FRAME_SIDE: u32 = 32;
const FRAME_POOL: usize = 16;
const MEM_LANES: usize = 4;
const MEM_SPAN: u64 = 4 << 20;
const MEM_BLOCK: u64 = 1024;
const BLOCK_POOL: usize = 64;

/// Requests per tenant: warm-up, then timed. Chosen so the four tenants
/// finish within 10 % of each other in simulated time (README.md).
const KV_WARM: u64 = 26_600;
const KV_TIMED: u64 = 133_000;
const VIDEO_WARM: u64 = 206;
const VIDEO_TIMED: u64 = 1_030;
const MEM_WARM: u64 = 7_000;
const MEM_TIMED: u64 = 35_300;
/// The MAC's clients run on their own from cycle 0, so only their total is
/// fixed; what they issue after the timed start is the timed share.
const MAC_TOTAL_PER_CLIENT: u64 = 4_215;
const CYCLE_LIMIT: u64 = 400_000_000;
/// Host-time slice length in cycles (see `Phases`).
const SLICE_CYCLES: u64 = 15_000;

/// What a lane does next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    /// Send the first request of the pair (PUT / write).
    First,
    AwaitFirst,
    /// Send the second request of the pair (GET / read-back).
    Second,
    AwaitSecond,
}

#[derive(Clone, Copy, Debug)]
struct Lane {
    step: Step,
    /// Pairs this lane has finished.
    pair: usize,
    sent_at: Cycle,
}

/// Per-tenant issue budget and records.
#[derive(Default)]
struct Ledger {
    /// Requests this tenant may have issued in total so far.
    budget: u64,
    issued: u64,
    completed: u64,
    errors: u64,
    /// Requests issued before this count belong to the warm-up.
    timed_from: u64,
    /// Round-trip cycles of timed requests.
    rtts: Vec<u64>,
    last_completion: Cycle,
}

impl Ledger {
    fn can_issue(&self) -> bool {
        self.issued < self.budget
    }

    fn done(&self) -> bool {
        self.issued == self.budget && self.completed == self.issued
    }

    /// Accounts a reply to request number `seq` (0-based issue order).
    fn complete(&mut self, seq: u64, sent_at: Cycle, now: Cycle, is_error: bool) {
        self.completed += 1;
        self.last_completion = now;
        if seq >= self.timed_from {
            if is_error {
                self.errors += 1;
            } else {
                self.rtts.push(now - sent_at);
            }
        }
    }
}

/// Closed-loop lanes that each alternate a first request (PUT / write) and,
/// once that is answered, a second (GET / read-back) on the same pair of
/// inputs. Shared by tenants B and D. Tags are `seq << 8 | lane`.
struct PairLanes {
    lanes: Vec<Lane>,
    /// Requests committed to: a started pair reserves both of its requests,
    /// so the budget never splits a PUT from its GET.
    reserved: u64,
    ledger: Ledger,
}

impl PairLanes {
    fn new(lanes: usize) -> PairLanes {
        let lane = Lane {
            step: Step::First,
            pair: 0,
            sent_at: Cycle::ZERO,
        };
        PairLanes {
            lanes: vec![lane; lanes],
            reserved: 0,
            ledger: Ledger::default(),
        }
    }

    /// Accounts the reply carrying `tag`. Returns `(lane, pair, second)`:
    /// which lane it answers, that lane's pair index, and whether it
    /// answers the pair's second request (the one whose data is checked).
    fn reply(&mut self, tag: u64, now: Cycle, is_error: bool) -> Option<(usize, usize, bool)> {
        let i = (tag & 0xff) as usize;
        let lane = self.lanes.get_mut(i)?;
        let pair = lane.pair;
        let second = match lane.step {
            Step::AwaitFirst => {
                lane.step = Step::Second;
                false
            }
            Step::AwaitSecond => {
                lane.step = Step::First;
                lane.pair += 1;
                true
            }
            Step::First | Step::Second => return None,
        };
        self.ledger.complete(tag >> 8, lane.sent_at, now, is_error);
        Some((i, pair, second))
    }

    /// Whether lane `i` has something to send within the budget, and if so
    /// whether it is the pair's first request.
    fn ready(&self, i: usize) -> Option<bool> {
        match self.lanes[i].step {
            Step::First if self.reserved + 2 <= self.ledger.budget => Some(true),
            Step::Second => Some(false),
            _ => None,
        }
    }

    /// The tag lane `i`'s next request must carry.
    fn next_tag(&self, i: usize) -> u64 {
        self.ledger.issued << 8 | i as u64
    }

    /// Lane `i`'s request left at `now`.
    fn sent(&mut self, i: usize, now: Cycle) {
        let lane = &mut self.lanes[i];
        lane.sent_at = now;
        self.ledger.issued += 1;
        lane.step = if lane.step == Step::First {
            self.reserved += 2;
            Step::AwaitFirst
        } else {
            Step::AwaitSecond
        };
    }

    fn wants_send(&self) -> bool {
        (0..self.lanes.len()).any(|i| self.ready(i).is_some())
    }
}

/// Sends through the monitor; `false` on backpressure (retry next cycle).
fn try_send(
    sys: &mut System,
    node: NodeId,
    cap: CapRef,
    tag: u64,
    class: TrafficClass,
    payload: &Payload,
    out: &mut SimOutcome,
) -> bool {
    let now = sys.now();
    match sys
        .tile_mut(node)
        .monitor
        .send(cap, wire::KIND_REQUEST, tag, class, payload.clone(), now)
    {
        Ok(()) => true,
        Err(SendError::Backpressure) => false,
        Err(e) => {
            out.require(false, || format!("send from {node:?} refused: {e}"));
            false
        }
    }
}

/// Tenant B: PUT then GET through a badged capability.
struct KvTenant {
    cap: CapRef,
    /// Per lane: `(put request, get request, value)` per pair.
    pairs: Vec<Vec<(Payload, Payload, Vec<u8>)>>,
    lanes: PairLanes,
}

impl KvTenant {
    fn generate(rng: &mut SimRng, pairs_per_lane: usize, cap: CapRef) -> KvTenant {
        let pairs = (0..KV_LANES)
            .map(|lane| {
                (0..pairs_per_lane)
                    .map(|_| {
                        let key = format!("lane{lane}-key{:04}", rng.gen_range(KV_KEYS_PER_LANE));
                        let mut value = vec![0u8; KV_VALUE_BYTES];
                        rng.fill_bytes(&mut value);
                        (
                            kv::put_req(key.as_bytes(), &value).into(),
                            kv::get_req(key.as_bytes()).into(),
                            value,
                        )
                    })
                    .collect()
            })
            .collect();
        KvTenant {
            cap,
            pairs,
            lanes: PairLanes::new(KV_LANES),
        }
    }

    fn pump(&mut self, sys: &mut System, out: &mut SimOutcome) {
        let now = sys.now();
        while let Some(d) = sys.tile_mut(KV_CLIENT).monitor.recv() {
            let is_error = d.msg.kind == wire::KIND_ERROR;
            let Some((lane, pair, second)) = self.lanes.reply(d.msg.tag, now, is_error) else {
                out.require(false, || format!("unexpected kv reply: {d}"));
                continue;
            };
            let (_, _, value) = &self.pairs[lane][pair % self.pairs[lane].len()];
            let good = match kv::parse_resp(&d.msg.payload) {
                // The GET must return exactly what this lane last PUT.
                Some((kv::status::OK, got)) => !second || got == Some(&value[..]),
                _ => false,
            };
            out.require(good || is_error, || format!("GET != last PUT: {d}"));
        }
        for i in 0..KV_LANES {
            let Some(first) = self.lanes.ready(i) else {
                continue;
            };
            let list = &self.pairs[i];
            let (put, get, _) = &list[self.lanes.lanes[i].pair % list.len()];
            let (req, tag) = (if first { put } else { get }, self.lanes.next_tag(i));
            if !try_send(
                sys,
                KV_CLIENT,
                self.cap,
                tag,
                TrafficClass::Request,
                req,
                out,
            ) {
                break;
            }
            self.lanes.sent(i, now);
        }
    }
}

/// Tenant C. Tags are the request sequence number.
struct VideoTenant {
    cap: CapRef,
    /// `(request payload, expected pipeline output)`.
    frames: Vec<(Payload, Vec<u8>)>,
    /// `(seq, sent_at)` of in-flight requests.
    in_flight: Vec<(u64, Cycle)>,
    ledger: Ledger,
}

impl VideoTenant {
    fn generate(rng: &mut SimRng, cap: CapRef) -> VideoTenant {
        let frames = (0..FRAME_POOL)
            .map(|_| {
                let frame = video::Frame::test_pattern(FRAME_SIDE, FRAME_SIDE, rng.next_u64());
                let expected = lz::compress(&video::encode(&frame, 0));
                (encode_request(&frame).into(), expected)
            })
            .collect();
        VideoTenant {
            cap,
            frames,
            in_flight: Vec::with_capacity(VIDEO_WINDOW),
            ledger: Ledger::default(),
        }
    }

    fn pump(&mut self, sys: &mut System, out: &mut SimOutcome) {
        let now = sys.now();
        while let Some(d) = sys.tile_mut(VIDEO_CLIENT).monitor.recv() {
            let Some(pos) = self.in_flight.iter().position(|(s, _)| *s == d.msg.tag) else {
                out.require(false, || format!("unexpected video reply: {d}"));
                continue;
            };
            let (seq, sent_at) = self.in_flight.swap_remove(pos);
            let is_error = d.msg.kind == wire::KIND_ERROR;
            let expected = &self.frames[seq as usize % FRAME_POOL].1;
            out.require(is_error || d.msg.payload[..] == expected[..], || {
                format!("video output differs from the codecs: {d}")
            });
            self.ledger.complete(seq, sent_at, now, is_error);
        }
        while self.in_flight.len() < VIDEO_WINDOW && self.ledger.can_issue() {
            let seq = self.ledger.issued;
            let req = &self.frames[seq as usize % FRAME_POOL].0;
            if !try_send(
                sys,
                VIDEO_CLIENT,
                self.cap,
                seq,
                TrafficClass::Bulk,
                req,
                out,
            ) {
                break;
            }
            self.ledger.issued += 1;
            self.in_flight.push((seq, now));
        }
    }

    fn wants_send(&self) -> bool {
        self.in_flight.len() < VIDEO_WINDOW && self.ledger.can_issue()
    }
}

/// Tenant D: 1 KiB write then read-back through the memory service.
struct MemTenant {
    mem_cap: CapRef,
    svc_cap: CapRef,
    /// Per lane: `(offset, block index)` per write/read pair. Lanes own
    /// disjoint quarters of the grant, so no read races another's write.
    pairs: Vec<Vec<(u64, usize)>>,
    blocks: Vec<Vec<u8>>,
    lanes: PairLanes,
}

impl MemTenant {
    fn generate(
        rng: &mut SimRng,
        pairs_per_lane: usize,
        mem_cap: CapRef,
        svc_cap: CapRef,
    ) -> MemTenant {
        let blocks = (0..BLOCK_POOL)
            .map(|_| {
                let mut b = vec![0u8; MEM_BLOCK as usize];
                rng.fill_bytes(&mut b);
                b
            })
            .collect();
        let region = MEM_SPAN / MEM_LANES as u64;
        let pairs = (0..MEM_LANES as u64)
            .map(|lane| {
                (0..pairs_per_lane)
                    .map(|_| {
                        let slot = rng.gen_range(region / MEM_BLOCK);
                        (
                            lane * region + slot * MEM_BLOCK,
                            rng.gen_range(BLOCK_POOL as u64) as usize,
                        )
                    })
                    .collect()
            })
            .collect();
        MemTenant {
            mem_cap,
            svc_cap,
            pairs,
            blocks,
            lanes: PairLanes::new(MEM_LANES),
        }
    }

    fn pump(&mut self, sys: &mut System, out: &mut SimOutcome) {
        let now = sys.now();
        while let Some(d) = sys.tile_mut(MEM_CLIENT).monitor.recv() {
            let is_error = d.msg.kind != wire::KIND_MEM_REPLY;
            let Some((lane, pair, second)) = self.lanes.reply(d.msg.tag, now, is_error) else {
                out.require(false, || format!("unexpected memory reply: {d}"));
                continue;
            };
            let (_, block) = self.pairs[lane][pair % self.pairs[lane].len()];
            let same = !second || d.msg.payload[..] == self.blocks[block][..];
            out.require(same || is_error, || format!("read-back differs: {d}"));
        }
        for i in 0..MEM_LANES {
            let Some(write) = self.lanes.ready(i) else {
                continue;
            };
            let list = &self.pairs[i];
            let (offset, block) = list[self.lanes.lanes[i].pair % list.len()];
            let (access, data): (_, &[u8]) = if write {
                (AccessKind::Write, &self.blocks[block])
            } else {
                (AccessKind::Read, &[])
            };
            match sys.tile_mut(MEM_CLIENT).monitor.send_mem(
                self.mem_cap,
                self.svc_cap,
                access,
                offset,
                MEM_BLOCK,
                data,
                self.lanes.next_tag(i),
                now,
            ) {
                Ok(()) => self.lanes.sent(i, now),
                Err(SendError::Backpressure) => break,
                Err(e) => {
                    out.require(false, || format!("memory access refused: {e}"));
                    break;
                }
            }
        }
    }
}

/// Tenant A is driven by the MAC tile itself; the benchmark only watches
/// its clients' counters after every executed cycle, which is exact because
/// each client keeps one request in flight.
struct MacWatch {
    clients: Vec<MacClientSeen>,
    timed: bool,
    ledger: Ledger,
}

/// What the watcher last saw of one MAC client.
#[derive(Clone, Copy, Default)]
struct MacClientSeen {
    issued: u64,
    completed: u64,
    errors: u64,
    sent_at: Cycle,
    /// The in-flight request was issued in the timed section.
    in_flight_timed: bool,
}

impl MacWatch {
    fn observe(&mut self, sys: &System) {
        let now = sys.now();
        let mac = sys.accel_as::<EthernetTile>(MAC).expect("MAC installed");
        for (i, seen) in self.clients.iter_mut().enumerate() {
            let st = &mac.client(i).stats;
            if st.completed > seen.completed {
                let is_error = st.errors > seen.errors;
                seen.completed = st.completed;
                seen.errors = st.errors;
                self.ledger.completed += 1;
                self.ledger.last_completion = now;
                if seen.in_flight_timed {
                    if is_error {
                        self.ledger.errors += 1;
                    } else {
                        self.ledger.rtts.push(now - seen.sent_at);
                    }
                }
            }
            if st.issued > seen.issued {
                seen.issued = st.issued;
                seen.sent_at = now;
                seen.in_flight_timed = self.timed;
                self.ledger.issued += 1;
            }
        }
    }
}

struct Board {
    sys: System,
    kv: KvTenant,
    video: VideoTenant,
    mem: MemTenant,
    mac: MacWatch,
    out: SimOutcome,
}

impl Board {
    /// Runs until the three driven tenants have spent their budgets (and,
    /// if `mac_too`, the MAC's clients are done as well).
    fn drive(&mut self, mac_too: bool, phases: &mut Phases, rec: &mut Recorder) {
        let limit = Cycle(CYCLE_LIMIT);
        loop {
            self.kv.pump(&mut self.sys, &mut self.out);
            self.video.pump(&mut self.sys, &mut self.out);
            self.mem.pump(&mut self.sys, &mut self.out);
            self.mac.observe(&self.sys);
            let done = self.kv.lanes.ledger.done()
                && self.video.ledger.done()
                && self.mem.lanes.ledger.done()
                && (!mac_too || self.mac.ledger.completed == self.mac.ledger.budget);
            // A failed check ends the run at once: a refused send would
            // otherwise be retried every cycle up to the limit.
            if done || self.sys.now() >= limit || !self.out.violations.is_empty() {
                break;
            }
            // A refused send is retried on the very next cycle; otherwise
            // only a delivery (which ends the step) can make work.
            let wants = self.kv.lanes.wants_send()
                || self.video.wants_send()
                || self.mem.lanes.wants_send();
            let due = if wants { self.sys.now() + 1 } else { limit };
            let s = rec.start("core.advance");
            self.sys.advance_toward(due);
            rec.end(s);
            phases.lap_every(self.sys.now().as_u64(), SLICE_CYCLES);
        }
    }

    fn monitor_totals(&self) -> MonitorStats {
        let mut t = MonitorStats::default();
        for n in 0..self.sys.noc().mesh().nodes() as u16 {
            let s = self.sys.tile(NodeId(n)).monitor.stats();
            t.sent += s.sent;
            t.received += s.received;
            t.denied += s.denied;
            t.rate_limited += s.rate_limited;
            t.backpressured += s.backpressured;
            t.nacks_sent += s.nacks_sent;
            t.dropped += s.dropped;
            t.flow_hits += s.flow_hits;
            t.flow_misses += s.flow_misses;
        }
        t
    }

    fn dram(&self) -> (u64, u64, u64, u64) {
        let svc = self
            .sys
            .accel_as::<MemoryService>(self.sys.mem_node())
            .expect("boot service");
        let (hits, misses, conflicts) = svc.dram_stats();
        (hits, misses, conflicts, svc.rejected)
    }
}

fn build(seed: u64, shrink: u64) -> Board {
    let mut sys = System::new(SystemConfig::default());
    let install = |sys: &mut System, node, accel, app| {
        sys.install(node, accel, app, FaultPolicy::FailStop)
            .expect("tile free at boot");
    };

    // Tenant A: MAC -> echo.
    let mac_total = MAC_TOTAL_PER_CLIENT / shrink;
    let mut mac = EthernetTile::new(NetConfig::default());
    for i in 0..MAC_CLIENTS {
        mac.add_client(
            RequestGen::new(
                i + 1,
                80,
                MAC_BYTES,
                Workload::Closed {
                    outstanding: 1,
                    think_cycles: 0,
                },
                derive_seed(seed, 10 + i as u64),
            )
            .with_max_requests(mac_total),
        );
    }
    install(&mut sys, MAC, Box::new(mac), OS_APP);
    install(&mut sys, ECHO, Box::new(echo(ECHO_COST)), AppId(1));
    let flow = sys.connect(MAC, ECHO, false).expect("OS app");
    sys.connect(ECHO, MAC, false).expect("reply path");
    sys.accel_as_mut::<EthernetTile>(MAC)
        .expect("just installed")
        .bind_flow(80, flow);

    // Tenant B: badged KV.
    install(&mut sys, KV_CLIENT, Box::new(idle()), AppId(2));
    install(&mut sys, KV_STORE, Box::new(kv::kv_store()), AppId(2));
    let kv_cap = sys
        .connect_badged(KV_CLIENT, KV_STORE, KV_BADGE, false)
        .expect("same app");
    sys.connect(KV_STORE, KV_CLIENT, false).expect("reply path");

    // Tenant C: video pipeline.
    install(&mut sys, VIDEO_CLIENT, Box::new(idle()), AppId(3));
    install(&mut sys, ENCODER, Box::new(video_encoder(0)), AppId(3));
    install(&mut sys, COMPRESSOR, Box::new(compressor()), AppId(3));
    let to_enc = sys.connect(VIDEO_CLIENT, ENCODER, false).expect("same app");
    sys.connect_env(ENCODER, COMPRESSOR, "next", false)
        .expect("same app");
    sys.connect_env(COMPRESSOR, VIDEO_CLIENT, "next", false)
        .expect("same app");

    // Tenant D: memory.
    install(&mut sys, MEM_CLIENT, Box::new(idle()), AppId(4));
    let mem_cap = sys
        .grant_memory(MEM_CLIENT, MEM_SPAN)
        .expect("a 16 MiB board grants 4 MiB");
    let svc_cap = sys.tile(MEM_CLIENT).env.get("mem-service").expect("wired");

    // Lanes share one budget, so a lane may run a little ahead of an even
    // split; lanes wrap around their list if they ever exhaust it.
    let per_lane = |requests: u64, lanes: usize| (requests / shrink / lanes as u64 + 8) as usize;
    let kv_pairs = per_lane(KV_WARM + KV_TIMED, KV_LANES);
    let mem_pairs = per_lane(MEM_WARM + MEM_TIMED, MEM_LANES);
    Board {
        kv: KvTenant::generate(&mut SimRng::new(derive_seed(seed, 1)), kv_pairs, kv_cap),
        video: VideoTenant::generate(&mut SimRng::new(derive_seed(seed, 2)), to_enc),
        mem: MemTenant::generate(
            &mut SimRng::new(derive_seed(seed, 3)),
            mem_pairs,
            mem_cap,
            svc_cap,
        ),
        mac: MacWatch {
            clients: vec![MacClientSeen::default(); MAC_CLIENTS as usize],
            timed: false,
            ledger: Ledger {
                budget: mac_total * MAC_CLIENTS as u64,
                ..Ledger::default()
            },
        },
        sys,
        out: SimOutcome::default(),
    }
}

pub fn run(seed: u64, shrink: u64, rec: &mut Recorder) -> Rep {
    let mut phases = Phases::start();
    // Budgets stay even so PUT/GET and write/read pairs are never split.
    let even = |n: u64| (n / shrink).max(2) & !1;

    // Set-up: build, generate, and warm up (flow caches primed, KV store
    // populated, DRAM rows open, MAC clients in steady state).
    let mut b = build(seed, shrink);
    b.kv.lanes.ledger.budget = even(KV_WARM);
    b.video.ledger.budget = (VIDEO_WARM / shrink).max(1);
    b.mem.lanes.ledger.budget = even(MEM_WARM);
    phases.lap();
    b.drive(false, &mut phases, &mut Recorder::off());
    let (mon0, noc0, dram0) = (b.monitor_totals(), b.sys.noc().stats().clone(), b.dram());
    let start = b.sys.now();
    for l in [
        &mut b.mac.ledger,
        &mut b.kv.lanes.ledger,
        &mut b.video.ledger,
        &mut b.mem.lanes.ledger,
    ] {
        l.timed_from = l.issued;
        l.rtts.clear();
    }
    b.mac.timed = true;
    phases.setup_done();

    // Timed: every tenant spends its timed budget; closed loop throughout.
    b.kv.lanes.ledger.budget += even(KV_TIMED);
    b.video.ledger.budget += (VIDEO_TIMED / shrink).max(1);
    b.mem.lanes.ledger.budget += even(MEM_TIMED);
    let root = rec.start("bench.driver");
    b.drive(true, &mut phases, rec);
    let last = b.sys.now();
    let idle = b.sys.run_until(100_000, |s| s.is_idle());
    rec.end(root);

    let mut out = std::mem::take(&mut b.out);
    out.require(idle || b.sys.is_idle(), || {
        "board did not go idle".to_string()
    });
    let mac_tile = b.sys.accel_as::<EthernetTile>(MAC).expect("MAC installed");
    out.require(mac_tile.all_done(), || "MAC clients not done".to_string());
    for (i, c) in mac_tile.clients().iter().enumerate() {
        let (issued, completed) = (c.stats.issued, c.stats.completed);
        out.require(issued == completed, || {
            format!("MAC client {i}: issued {issued} != completed {completed}")
        });
    }
    let tenants = [
        &b.mac.ledger,
        &b.kv.lanes.ledger,
        &b.video.ledger,
        &b.mem.lanes.ledger,
    ];
    for ledger in tenants {
        out.require(ledger.issued == ledger.completed, || {
            "a tenant has requests in flight after the run".to_string()
        });
        out.attempted += ledger.issued - ledger.timed_from;
        out.ok += ledger.rtts.len() as u64;
        out.failed += ledger.errors;
        out.latencies.extend_from_slice(&ledger.rtts);
    }
    out.sim_cycles = last - start;
    out.load_cycles = out.sim_cycles;

    let p99 = |rtts: &[u64]| {
        let mut v = rtts.to_vec();
        v.sort_unstable();
        percentile(&v, 0.99) as f64
    };
    let mon = b.monitor_totals();
    let noc = b.sys.noc().stats();
    let dram = b.dram();
    let accesses = (dram.0 + dram.1 + dram.2) - (dram0.0 + dram0.1 + dram0.2);
    let sends = (mon.flow_hits - mon0.flow_hits) + (mon.flow_misses - mon0.flow_misses);
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    out.layer.extend([
        ("noc.flit_hops", (noc.flit_hops - noc0.flit_hops) as f64),
        ("noc.delivered", (noc.delivered - noc0.delivered) as f64),
        ("noc.inject_rejected", (noc.rejected - noc0.rejected) as f64),
        ("noc.dropped", (noc.dropped() - noc0.dropped()) as f64),
        (
            "noc.link_util_max",
            b.sys.noc().link_utilization().first().map_or(0.0, |l| l.2),
        ),
        ("noc.latency_p99_cycles", noc.latency.p99() as f64),
        ("monitor.sent", (mon.sent - mon0.sent) as f64),
        ("monitor.received", (mon.received - mon0.received) as f64),
        ("monitor.denied", (mon.denied - mon0.denied) as f64),
        (
            "monitor.rate_limited",
            (mon.rate_limited - mon0.rate_limited) as f64,
        ),
        (
            "monitor.backpressured",
            (mon.backpressured - mon0.backpressured) as f64,
        ),
        (
            "monitor.nacks_sent",
            (mon.nacks_sent - mon0.nacks_sent) as f64,
        ),
        (
            "monitor.flow_hit_share",
            share(mon.flow_hits - mon0.flow_hits, sends),
        ),
        ("mem.dram_accesses", accesses as f64),
        ("mem.dram_row_hit_share", share(dram.0 - dram0.0, accesses)),
        ("mem.alloc_failures", (dram.3 - dram0.3) as f64),
        ("mem.rtt_p99_cycles", p99(&b.mem.lanes.ledger.rtts)),
        ("accel.kv_rtt_p99_cycles", p99(&b.kv.lanes.ledger.rtts)),
        ("accel.video_rtt_p99_cycles", p99(&b.video.ledger.rtts)),
        ("net.mac_rtt_p99_cycles", p99(&b.mac.ledger.rtts)),
        ("net.mac_no_flow_drops", mac_tile.no_flow_drops as f64),
        ("net.mac_send_refused", mac_tile.send_refused as f64),
        ("core.incidents", b.sys.incidents().len() as f64),
        // When each tenant finished, as a share of the slowest: the request
        // counts are chosen to keep these within 10 % of each other.
        ("bench.tenant_finish_spread", {
            let ends = tenants.map(|l| (l.last_completion - start) as f64);
            let max = ends.iter().cloned().fold(0.0, f64::max);
            let min = ends.iter().cloned().fold(f64::MAX, f64::min);
            (max - min) / max.max(1.0)
        }),
    ]);
    out.finish();
    phases.finish(out)
}
