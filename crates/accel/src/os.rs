//! The portable OS interface accelerators program against.

use apiary_cap::CapRef;
use apiary_monitor::SendError;
use apiary_noc::{Delivered, TrafficClass};
use apiary_sim::{Cycle, Payload};

/// The capability environment a process starts with: named handles to the
/// resources the kernel granted it (its "argv of authority").
///
/// # Examples
///
/// ```
/// use apiary_accel::CapEnv;
/// use apiary_cap::CapRef;
///
/// let mut env = CapEnv::new();
/// env.insert("mem", CapRef { index: 0, generation: 0 });
/// assert!(env.get("mem").is_some());
/// assert!(env.get("net").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CapEnv {
    caps: Vec<(String, CapRef)>,
}

impl CapEnv {
    /// Creates an empty environment.
    pub fn new() -> CapEnv {
        CapEnv::default()
    }

    /// Adds or replaces a named capability.
    pub fn insert(&mut self, name: &str, cap: CapRef) {
        if let Some(slot) = self.caps.iter_mut().find(|(n, _)| n == name) {
            slot.1 = cap;
        } else {
            self.caps.push((name.to_string(), cap));
        }
    }

    /// Looks a capability up by name.
    pub fn get(&self, name: &str) -> Option<CapRef> {
        self.caps.iter().find(|(n, _)| n == name).map(|(_, c)| *c)
    }

    /// Iterates over all named capabilities.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CapRef)> {
        self.caps.iter().map(|(n, c)| (n.as_str(), *c))
    }

    /// Number of capabilities in the environment.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Returns `true` when no capabilities were granted.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

/// The system-call surface of an Apiary tile.
///
/// This is the *entire* interface between untrusted accelerator logic and
/// the rest of the system; everything passes through the tile's monitor.
/// Implementations live in the kernel (`apiary-core`); tests may use mocks.
pub trait TileOs {
    /// Current simulated time.
    fn now(&self) -> Cycle;

    /// Takes the next delivered message, if any.
    fn recv(&mut self) -> Option<Delivered>;

    /// Messages waiting in the inbox (what [`TileOs::recv`] would drain).
    /// Wakeup scheduling uses this to choose between sleeping until a
    /// message arrives and re-running next cycle to drain a backlog.
    fn inbox_depth(&self) -> usize;

    /// Sends a message through a capability.
    ///
    /// # Errors
    ///
    /// [`SendError`] when the monitor refuses (capability, rate, queue).
    fn send(
        &mut self,
        cap: CapRef,
        kind: u16,
        tag: u64,
        class: TrafficClass,
        payload: Payload,
    ) -> Result<(), SendError>;

    /// Replies to a received message. Succeeds only if the kernel granted
    /// this tile an endpoint capability for the message's source — IPC must
    /// have been established (§4.2).
    ///
    /// # Errors
    ///
    /// [`SendError::Cap`] when no endpoint capability covers the source.
    fn reply(
        &mut self,
        to: &Delivered,
        kind: u16,
        class: TrafficClass,
        payload: Payload,
    ) -> Result<(), SendError>;

    /// Issues an asynchronous read of `len` bytes at `offset` within the
    /// segment capability `mem_cap`; the completion arrives later as a
    /// [`apiary_monitor::wire::KIND_MEM_REPLY`] message carrying `tag`.
    ///
    /// # Errors
    ///
    /// [`SendError::Protect`] on a bounds/rights failure (checked locally,
    /// before the network).
    fn mem_read(
        &mut self,
        mem_cap: CapRef,
        offset: u64,
        len: u64,
        tag: u64,
    ) -> Result<(), SendError>;

    /// Issues an asynchronous write; completion semantics as
    /// [`TileOs::mem_read`].
    ///
    /// # Errors
    ///
    /// As [`TileOs::mem_read`].
    fn mem_write(
        &mut self,
        mem_cap: CapRef,
        offset: u64,
        data: &[u8],
        tag: u64,
    ) -> Result<(), SendError>;

    /// The capability environment the kernel granted this process.
    fn cap_env(&self) -> &CapEnv;

    /// Raises a fault: the accelerator detected an unrecoverable internal
    /// error. The kernel applies the tile's fault policy (§4.4) — fail-stop,
    /// or context swap if the accelerator is preemptible.
    fn raise_fault(&mut self, code: u32);
}

/// A self-contained [`TileOs`] implementation for unit-testing accelerators
/// without booting a kernel.
pub mod test_os {
    use super::{CapEnv, TileOs};
    use apiary_cap::CapRef;
    use apiary_monitor::SendError;
    use apiary_noc::{Delivered, NodeId, TrafficClass};
    use apiary_sim::{Cycle, Payload};
    use std::collections::VecDeque;

    /// A mock tile OS: deliveries are scripted, sends and faults are
    /// recorded, replies always succeed.
    #[derive(Default)]
    pub struct MockOs {
        now: Cycle,
        inbox: VecDeque<Delivered>,
        /// Replies sent: (destination, kind, class, payload).
        pub sent: Vec<(NodeId, u16, TrafficClass, Payload)>,
        /// Raw sends through capabilities: (cap, kind, tag, payload).
        pub cap_sends: Vec<(CapRef, u16, u64, Payload)>,
        /// Memory operations issued: (cap, offset, len_or_data_len, write?).
        pub mem_ops: Vec<(CapRef, u64, u64, bool)>,
        /// Faults raised.
        pub faults: Vec<u32>,
        env: CapEnv,
    }

    impl MockOs {
        /// Creates an empty mock at time zero.
        pub fn new() -> MockOs {
            MockOs::default()
        }

        /// Queues a delivery for the accelerator to `recv`.
        pub fn deliver(&mut self, d: Delivered) {
            self.inbox.push_back(d);
        }

        /// Advances mock time.
        pub fn advance(&mut self, cycles: u64) {
            self.now += cycles;
        }

        /// Messages still queued.
        pub fn inbox_len(&self) -> usize {
            self.inbox.len()
        }

        /// Grants a named capability in the environment.
        pub fn grant(&mut self, name: &str, cap: CapRef) {
            self.env.insert(name, cap);
        }
    }

    impl TileOs for MockOs {
        fn now(&self) -> Cycle {
            self.now
        }

        fn recv(&mut self) -> Option<Delivered> {
            self.inbox.pop_front()
        }

        fn inbox_depth(&self) -> usize {
            self.inbox.len()
        }

        fn send(
            &mut self,
            cap: CapRef,
            kind: u16,
            tag: u64,
            _class: TrafficClass,
            payload: Payload,
        ) -> Result<(), SendError> {
            self.cap_sends.push((cap, kind, tag, payload));
            Ok(())
        }

        fn reply(
            &mut self,
            to: &Delivered,
            kind: u16,
            class: TrafficClass,
            payload: Payload,
        ) -> Result<(), SendError> {
            self.sent.push((to.msg.src, kind, class, payload));
            Ok(())
        }

        fn mem_read(
            &mut self,
            mem_cap: CapRef,
            offset: u64,
            len: u64,
            _tag: u64,
        ) -> Result<(), SendError> {
            self.mem_ops.push((mem_cap, offset, len, false));
            Ok(())
        }

        fn mem_write(
            &mut self,
            mem_cap: CapRef,
            offset: u64,
            data: &[u8],
            _tag: u64,
        ) -> Result<(), SendError> {
            self.mem_ops
                .push((mem_cap, offset, data.len() as u64, true));
            Ok(())
        }

        fn cap_env(&self) -> &CapEnv {
            &self.env
        }

        fn raise_fault(&mut self, code: u32) {
            self.faults.push(code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_env_insert_get_replace() {
        let mut env = CapEnv::new();
        assert!(env.is_empty());
        let a = CapRef {
            index: 1,
            generation: 0,
        };
        let b = CapRef {
            index: 2,
            generation: 3,
        };
        env.insert("x", a);
        env.insert("y", b);
        assert_eq!(env.get("x"), Some(a));
        assert_eq!(env.len(), 2);
        // Replace keeps one entry.
        env.insert("x", b);
        assert_eq!(env.get("x"), Some(b));
        assert_eq!(env.len(), 2);
        assert_eq!(env.iter().count(), 2);
    }
}
