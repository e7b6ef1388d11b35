//! The request path, from `submit` to a completion, and [`Requests`]: the
//! pending requests and their timeout queue, whose law is kept here only.

use super::ClusterSystem;
use crate::fabric::msg;
use apiary_cap::{CapKind, Capability, Rights};
use apiary_monitor::wire::KIND_REQUEST;
use apiary_noc::{NodeId, TrafficClass};
use apiary_sim::{ensure, Cycle, Payload};
use std::collections::{BTreeMap, VecDeque};

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// No live replica in the origin board's directory view.
    NoReplica,
    /// The origin board is dead (its NIC went with it).
    OriginDead,
    /// The gateway monitor refused the send (backpressure, rate limit, or
    /// a capability failure).
    Refused,
}

/// A finished request, surfaced to whichever client issued the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Board whose client issued the request.
    pub origin: u16,
    /// The client's correlation tag.
    pub tag: u64,
    /// Error reply, refused send, or timeout.
    pub is_error: bool,
}

/// One request awaiting its reply. Its end-to-end and fabric hop latencies
/// are measured from here, and only while it is pending.
pub(super) struct Pending {
    origin: u16,
    target: (u16, NodeId),
    pub(super) submitted: Cycle,
    /// When the target's gateway sent the reply back over the fabric.
    pub(super) replied: Option<Cycle>,
    deadline: Cycle,
}

/// Requests awaiting a reply, by tag, and the queue that times them out.
#[derive(Default)]
pub(super) struct Requests {
    pending: BTreeMap<u64, Pending>,
    /// `(deadline, tag)` of every submit, oldest first. `request_timeout`
    /// is constant and the clock monotonic, so submit order is deadline
    /// order and the front is the earliest timeout. Entries of requests
    /// that completed (or whose tag was resubmitted) go stale and are
    /// dropped when they reach the front.
    deadlines: VecDeque<(Cycle, u64)>,
    /// The front of `deadlines` was looked up and found live, and `pending`
    /// has lost or replaced no entry since: it need not be looked up again.
    front_live: bool,
}

impl Requests {
    /// Starts the clock on a request, replacing any that reused the tag.
    fn insert(&mut self, tag: u64, pending: Pending) {
        self.deadlines.push_back((pending.deadline, tag));
        self.front_live &= self.pending.insert(tag, pending).is_none();
    }

    fn finish(&mut self, tag: u64) -> Option<Pending> {
        let p = self.pending.remove(&tag)?;
        self.front_live = false;
        Some(p)
    }

    pub(super) fn get(&self, tag: u64) -> Option<&Pending> {
        self.pending.get(&tag)
    }

    /// `board`'s gateway sent pending `tag`'s reply at `now`, if `board`
    /// is where the request went.
    pub(super) fn note_reply(&mut self, tag: u64, board: u16, now: Cycle) {
        if let Some(p) = self.pending.get_mut(&tag).filter(|p| p.target.0 == board) {
            p.replied = Some(now);
        }
    }

    /// Tags of the pending requests whose deadline has passed, ascending.
    /// Consumes the front of the deadline queue up to `now` and past any
    /// stale entries, so the front is again the earliest live deadline. The
    /// dense reference also scans `pending` and demands the same answer.
    pub(super) fn pop_expired(&mut self, now: Cycle, dense: bool) -> Vec<u64> {
        let mut expired = Vec::new();
        while let Some(&(deadline, tag)) = self.deadlines.front() {
            let live = |p: &Pending| p.deadline == deadline;
            self.front_live = self.front_live || self.pending.get(&tag).is_some_and(live);
            if self.front_live && deadline > now {
                break;
            }
            self.deadlines.pop_front();
            if std::mem::take(&mut self.front_live) {
                expired.push(tag);
            }
        }
        // The same tag can sit in the queue twice with one deadline
        // (completed and resubmitted within a cycle).
        expired.sort_unstable();
        expired.dedup();
        if dense {
            let scanned: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&t, _)| t)
                .collect();
            assert_eq!(expired, scanned, "deadline queue disagrees with a scan");
        }
        expired
    }

    /// The queue's front: at or before the earliest pending timeout.
    pub(super) fn next_deadline(&self) -> Option<Cycle> {
        self.deadlines.front().map(|&(d, _)| d)
    }

    pub(super) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// `Err` unless the front is no later than every pending timeout (or
    /// the event clock would sleep through one) and is live if marked so,
    /// and the balancer's `in_flight` total counts exactly the pending
    /// requests (requests are conserved).
    pub(super) fn check(&self, in_flight: u64) -> Result<(), String> {
        let pending = self.pending.len() as u64;
        ensure!(
            in_flight == pending,
            "balancer counts {in_flight} requests in flight, {pending} are pending"
        );
        if let Some(earliest) = self.pending.values().map(|p| p.deadline).min() {
            let front = self.next_deadline();
            ensure!(
                front.is_some_and(|d| d <= earliest),
                "deadline queue front {front:?} is later than pending minimum {earliest:?}"
            );
        }
        let live = |&(d, t): &(Cycle, u64)| self.pending.get(&t).is_some_and(|p| p.deadline == d);
        let marked_right = !self.front_live || self.deadlines.front().is_some_and(live);
        ensure!(marked_right, "deadline queue front wrongly marked live");
        Ok(())
    }
}

impl ClusterSystem {
    /// Submits a request from a client attached at `origin` for the named
    /// service. The directory supplies live replicas, the balancer picks
    /// one, and the invocation goes out locally or over the fabric (its
    /// frame written from the payload's bytes). Returns the chosen replica.
    pub fn submit(
        &mut self,
        origin: u16,
        name: &str,
        tag: u64,
        payload: impl Into<Payload> + AsRef<[u8]>,
    ) -> Result<(u16, NodeId), SubmitError> {
        let now = self.now();
        if !self.boards[origin as usize].alive {
            return Err(SubmitError::OriginDead);
        }
        let replicas = self.boards[origin as usize].dir.lookup_all(now, name);
        self.candidates.clear();
        self.candidates
            .extend(replicas.map(|e| ((e.home, e.node), e.service)));
        let Some(k) = self.balancer.pick(&self.candidates, |c| c.0) else {
            return Err(SubmitError::NoReplica);
        };
        let ((tboard, tnode), service) = self.candidates[k];
        let gw = self.cfg.gateway;
        if tboard == origin {
            let b = &mut self.boards[origin as usize];
            let cap = b
                .local_caps
                .get(&service.0)
                .copied()
                .ok_or(SubmitError::NoReplica)?;
            b.sys_mut()
                .tile_mut(gw)
                .monitor
                .send(cap, KIND_REQUEST, tag, TrafficClass::Request, payload, now)
                .map_err(|_| {
                    self.refused += 1;
                    SubmitError::Refused
                })?;
            self.local_submitted += 1;
        } else {
            let b = &mut self.boards[origin as usize];
            // Mint (or reuse) the remote capability for this (board,
            // service) and let the egress proxy check it like any send.
            let cap = match b.remote_caps.get(&(tboard, service.0)) {
                Some(c) => *c,
                None => {
                    let c = b
                        .sys_mut()
                        .tile_mut(gw)
                        .monitor
                        .install_cap(Capability::new(
                            CapKind::Remote {
                                board: tboard,
                                service,
                            },
                            Rights::SEND,
                        ))
                        .map_err(|_| SubmitError::Refused)?;
                    b.remote_caps.insert((tboard, service.0), c);
                    c
                }
            };
            if b.sys()
                .tile(gw)
                .monitor
                .caps()
                .check(cap, Rights::SEND)
                .is_err()
            {
                self.refused += 1;
                return Err(SubmitError::Refused);
            }
            let frame = msg::invoke(origin, tboard, service.0, tag, payload.as_ref());
            self.fabric.send_frame(frame);
            self.remote_submitted += 1;
        }
        self.balancer.started((tboard, tnode));
        let target = (tboard, tnode);
        let deadline = now + self.cfg.request_timeout;
        self.requests.insert(
            tag,
            Pending {
                origin,
                target,
                submitted: now,
                replied: None,
                deadline,
            },
        );
        Ok((tboard, tnode))
    }

    /// Finished requests since the last call, in completion order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Whether finished requests await [`ClusterSystem::take_completions`].
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    pub(super) fn finish_request(&mut self, tag: u64, is_error: bool, now: Cycle) {
        match self.requests.finish(tag) {
            Some(p) => {
                self.balancer.finished(p.target);
                if !is_error {
                    self.end_to_end.record(p.submitted, now);
                }
                self.completions.push(Completion {
                    origin: p.origin,
                    tag,
                    is_error,
                });
            }
            None => self.stale_replies += 1,
        }
    }
}
