//! The Ethernet MAC tile: the boundary between the datacenter network and
//! the NoC.
//!
//! Everything external — the wire and the clients — is state *inside* this
//! accelerator, so an `apiary_core::System` containing an `EthernetTile`
//! is a closed, deterministic simulation. The kernel steers flows by
//! installing endpoint capabilities and registering them in the flow table
//! (port -> capability): the MAC can only reach tiles the kernel connected
//! it to, like any other accelerator.

use crate::client::RequestGen;
use crate::frame::{Frame, Wire};
use apiary_accel::{Accelerator, TileOs};
use apiary_cap::CapRef;
use apiary_monitor::wire as proto;
use apiary_noc::TrafficClass;
use apiary_sim::{Cycle, Wakeup};
use std::collections::HashMap;

/// Network front-end configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// One-way wire propagation delay in cycles (ToR to FPGA; ~500 ns at
    /// 250 MHz is 125 cycles).
    pub wire_latency: u64,
    /// Wire bandwidth in bytes/cycle (100 GbE at 250 MHz is 50 B/cycle).
    pub wire_bandwidth: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            wire_latency: 125,
            wire_bandwidth: 50,
        }
    }
}

/// The network service accelerator.
pub struct EthernetTile {
    cfg: NetConfig,
    /// Flow table: UDP port -> capability to the serving tile.
    flows: HashMap<u16, CapRef>,
    /// External clients (the far end of the wire).
    clients: Vec<RequestGen>,
    /// Client -> FPGA direction.
    rx: Wire,
    /// FPGA -> client direction.
    tx: Wire,
    /// tag -> client index for response steering.
    inflight: HashMap<u64, usize>,
    /// Frames dropped for lack of a flow-table entry.
    pub no_flow_drops: u64,
    /// Requests refused by the monitor (backpressure, caps).
    pub send_refused: u64,
}

impl EthernetTile {
    /// Creates a network tile.
    pub fn new(cfg: NetConfig) -> EthernetTile {
        EthernetTile {
            rx: Wire::new(cfg.wire_latency, cfg.wire_bandwidth),
            tx: Wire::new(cfg.wire_latency, cfg.wire_bandwidth),
            cfg,
            flows: HashMap::new(),
            clients: Vec::new(),
            inflight: HashMap::new(),
            no_flow_drops: 0,
            send_refused: 0,
        }
    }

    /// Registers a flow: frames for `port` go through `cap` (which the
    /// kernel must have installed at this tile's monitor).
    pub fn bind_flow(&mut self, port: u16, cap: CapRef) {
        self.flows.insert(port, cap);
    }

    /// Adds an external client; returns its index.
    pub fn add_client(&mut self, client: RequestGen) -> usize {
        self.clients.push(client);
        self.clients.len() - 1
    }

    /// Client access (stats).
    pub fn client(&self, idx: usize) -> &RequestGen {
        &self.clients[idx]
    }

    /// All clients.
    pub fn clients(&self) -> &[RequestGen] {
        &self.clients
    }

    /// Returns `true` when every bounded client is done.
    pub fn all_done(&self) -> bool {
        self.clients.iter().all(|c| c.done())
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }
}

impl Accelerator for EthernetTile {
    fn name(&self) -> &'static str {
        "ethernet-mac"
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn core::any::Any {
        self
    }

    fn wake(&mut self, now: Cycle, os: &mut dyn TileOs) -> Wakeup {
        // 1. Clients issue requests onto the rx wire.
        for (idx, c) in self.clients.iter_mut().enumerate() {
            let port = c.port;
            let bytes = c.payload_bytes;
            let cid = c.client_id;
            for tag in c.poll(now) {
                self.inflight.insert(tag, idx);
                self.rx.push(
                    now,
                    Frame {
                        client: cid,
                        port,
                        tag,
                        payload: vec![0xC1; bytes].into(),
                    },
                );
            }
        }

        // 2. Frames arriving at the MAC become NoC requests.
        while let Some(frame) = self.rx.pop_due(now) {
            match self.flows.get(&frame.port) {
                Some(&cap) => {
                    let res = os.send(
                        cap,
                        proto::KIND_REQUEST,
                        frame.tag,
                        TrafficClass::Request,
                        frame.payload,
                    );
                    if res.is_err() {
                        self.send_refused += 1;
                        self.inflight.remove(&frame.tag);
                    }
                }
                None => {
                    self.no_flow_drops += 1;
                    self.inflight.remove(&frame.tag);
                }
            }
        }

        // 3. NoC responses become frames on the tx wire.
        while let Some(d) = os.recv() {
            if let Some(&idx) = self.inflight.get(&d.msg.tag) {
                self.inflight.remove(&d.msg.tag);
                let client = &self.clients[idx];
                self.tx.push(
                    now,
                    Frame {
                        client: client.client_id,
                        port: client.port,
                        tag: d.msg.tag,
                        payload: d.msg.payload.clone(),
                    },
                );
                // Error kind rides in the tag-indexed completion below.
                if d.msg.kind == proto::KIND_ERROR {
                    // Mark by pushing an error frame: payload[0] is a code;
                    // completion marks is_error below on arrival.
                }
            }
        }

        // 4. Frames arriving back at clients complete requests.
        while let Some(frame) = self.tx.pop_due(now) {
            if let Some(c) = self
                .clients
                .iter_mut()
                .find(|c| c.client_id == frame.client)
            {
                // A 1-byte payload that is a known error code marks errors;
                // real responses from our services are structured payloads.
                let is_error =
                    frame.payload.len() == 1 && frame.payload[0] == proto::err::TARGET_FAILED;
                c.complete(frame.tag, now, is_error);
            }
        }

        // Sleep until the earliest thing that can happen without a NoC
        // message: a client's timed event (arrival, refill, retry, breaker
        // cooldown) or a frame landing at either end of the wire. NoC
        // responses re-arm the tile on delivery. Every state change above
        // is gated on one of these times, so skipped cycles are no-ops.
        let mut due = Cycle::MAX;
        for c in &self.clients {
            if let Some(t) = c.next_timed_event() {
                due = due.min(t);
            }
        }
        if let Some(t) = self.rx.next_due() {
            due = due.min(t);
        }
        if let Some(t) = self.tx.next_due() {
            due = due.min(t);
        }
        if due == Cycle::MAX {
            Wakeup::OnMessage
        } else {
            Wakeup::AtOrMessage(due.max(now.saturating_add(1)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Workload;
    use apiary_accel::apps::echo::echo;
    use apiary_accel::apps::idle::idle;
    use apiary_core::{AppId, FaultPolicy, System, SystemConfig};
    use apiary_noc::NodeId;
    use apiary_sim::Machine;

    /// Builds a system with a MAC at n0 serving an echo service at n5.
    fn net_system(clients: Vec<RequestGen>) -> (System, NodeId) {
        let mut sys = System::new(SystemConfig::default());
        let mac_node = NodeId(0);
        let svc_node = NodeId(5);
        let mut mac = EthernetTile::new(NetConfig::default());
        for c in clients {
            mac.add_client(c);
        }
        sys.install(
            mac_node,
            Box::new(mac),
            apiary_core::process::OS_APP,
            FaultPolicy::FailStop,
        )
        .expect("free");
        sys.install(svc_node, Box::new(echo(4)), AppId(1), FaultPolicy::FailStop)
            .expect("free");
        let cap = sys.connect(mac_node, svc_node, false).expect("OS app");
        sys.connect(svc_node, mac_node, false).expect("reply path");
        sys.accel_as_mut::<EthernetTile>(mac_node)
            .expect("installed")
            .bind_flow(80, cap);
        (sys, mac_node)
    }

    #[test]
    fn closed_loop_requests_complete_over_the_wire() {
        let gen = RequestGen::new(
            1,
            80,
            64,
            Workload::Closed {
                outstanding: 2,
                think_cycles: 0,
            },
            11,
        )
        .with_max_requests(20);
        let (mut sys, mac_node) = net_system(vec![gen]);
        sys.run_until(20_000, |s| {
            s.accel_as::<EthernetTile>(mac_node)
                .expect("installed")
                .all_done()
        });
        let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
        let stats = &mac.client(0).stats;
        assert_eq!(stats.issued, 20);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.errors, 0);
        // RTT includes two wire crossings: at least 2 x 125 cycles.
        assert!(stats.rtt.min() >= 250, "min rtt {}", stats.rtt.min());
    }

    #[test]
    fn frames_without_flow_entry_are_dropped() {
        let gen = RequestGen::new(
            2,
            9999, // Unbound port.
            64,
            Workload::Closed {
                outstanding: 1,
                think_cycles: 0,
            },
            5,
        )
        .with_max_requests(3);
        let (mut sys, mac_node) = net_system(vec![gen]);
        sys.run(5_000);
        let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
        assert!(mac.no_flow_drops >= 1);
        assert_eq!(mac.client(0).stats.completed, 0);
    }

    #[test]
    fn multiple_clients_share_the_mac() {
        let mk = |id, seed| {
            RequestGen::new(
                id,
                80,
                64,
                Workload::Closed {
                    outstanding: 1,
                    think_cycles: 10,
                },
                seed,
            )
            .with_max_requests(10)
        };
        let (mut sys, mac_node) = net_system(vec![mk(1, 1), mk(2, 2), mk(3, 3)]);
        sys.run_until(60_000, |s| {
            s.accel_as::<EthernetTile>(mac_node)
                .expect("installed")
                .all_done()
        });
        let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
        for i in 0..3 {
            assert_eq!(mac.client(i).stats.completed, 10, "client {i}");
        }
    }

    #[test]
    fn dead_service_yields_error_responses() {
        let gen = RequestGen::new(
            1,
            80,
            64,
            Workload::Closed {
                outstanding: 1,
                think_cycles: 0,
            },
            7,
        )
        .with_max_requests(5);
        let (mut sys, mac_node) = net_system(vec![gen]);
        // Also occupy another tile so the system stays busy.
        sys.install(NodeId(9), Box::new(idle()), AppId(2), FaultPolicy::FailStop)
            .expect("free");
        sys.fail_stop(NodeId(5));
        sys.run_until(60_000, |s| {
            s.accel_as::<EthernetTile>(mac_node)
                .expect("installed")
                .all_done()
        });
        let mac = sys.accel_as::<EthernetTile>(mac_node).expect("installed");
        let stats = &mac.client(0).stats;
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.errors, 5, "all responses are TARGET_FAILED errors");
    }
}
