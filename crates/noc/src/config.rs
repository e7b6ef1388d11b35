//! NoC configuration.

use crate::packet::TrafficClass;

/// Virtual channels per link: one per traffic class, since
/// [`TrafficClass::vc`] is the only source of a VC index.
pub const VCS: usize = TrafficClass::ALL.len();

// The switch's per-router `demand` bitset holds `5 ports * 8` bits.
const _: () = assert!(VCS <= 8);

/// Parameters of the mesh NoC. Every link carries [`VCS`] virtual
/// channels, one per traffic class.
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// Mesh columns.
    pub width: u8,
    /// Mesh rows.
    pub height: u8,
    /// Input-buffer depth per VC, in flits. At `hop_latency + 2` or more,
    /// credits never throttle a single stream, and packets on disjoint
    /// routes fly in closed form ([`crate::Noc::quiet_until`]); shallower
    /// buffers are always stepped.
    pub vc_buffer: usize,
    /// Data bytes carried per flit (link width).
    pub flit_bytes: usize,
    /// Packet header size in bytes (routing + kind + tag + badge).
    pub header_bytes: usize,
    /// Extra pipeline cycles per hop beyond the buffer write (soft routers
    /// typically add 1–2; a hardened NoC hides them).
    pub hop_latency: u64,
    /// Injection-queue depth at each local port, in messages.
    pub inject_queue: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        // A conservative soft (fabric-logic) NoC on a 250 MHz clock.
        NocConfig {
            width: 4,
            height: 4,
            vc_buffer: 4,
            flit_bytes: 16,
            header_bytes: 16,
            hop_latency: 1,
            inject_queue: 8,
        }
    }
}

impl NocConfig {
    /// A soft NoC with the given geometry and defaults elsewhere.
    pub fn soft(width: u8, height: u8) -> NocConfig {
        NocConfig {
            width,
            height,
            ..NocConfig::default()
        }
    }

    /// A hardened NoC (Versal/Agilex class): 128-bit-per-cycle equivalent
    /// links modelled as wider flits, deeper buffers, and no per-hop bubble.
    pub fn hardened(width: u8, height: u8) -> NocConfig {
        NocConfig {
            width,
            height,
            vc_buffer: 8,
            flit_bytes: 32,
            header_bytes: 16,
            hop_latency: 0,
            inject_queue: 16,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions, zero buffers, zero-size flits, a
    /// `vc_buffer` above 255 (FIFO depths and credits are byte-wide
    /// counters) or a `hop_latency` above 255 (a flit in flight carries its
    /// slot of the `hop_latency + 1` landing slots in a byte).
    pub fn validate(&self) {
        assert!(self.width > 0 && self.height > 0, "empty mesh");
        assert!(self.vc_buffer > 0, "VC buffers must hold at least one flit");
        assert!(
            self.vc_buffer <= u8::MAX as usize,
            "VC buffer depth must fit the byte-wide credit counters"
        );
        assert!(
            self.hop_latency <= u8::MAX as u64,
            "hop latency sizes the landing schedule; 255 is the most supported"
        );
        assert!(self.flit_bytes > 0, "flits must carry data");
        assert!(self.inject_queue > 0, "injection queue must exist");
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        NocConfig::default().validate();
        NocConfig::soft(8, 8).validate();
        NocConfig::hardened(6, 5).validate();
    }

    #[test]
    fn hardened_is_wider_and_faster() {
        let s = NocConfig::soft(4, 4);
        let h = NocConfig::hardened(4, 4);
        assert!(h.flit_bytes > s.flit_bytes);
        assert!(h.hop_latency < s.hop_latency);
    }

    #[test]
    #[should_panic(expected = "VC buffer depth")]
    fn vc_buffer_wider_than_a_byte_rejected() {
        let c = NocConfig {
            vc_buffer: 256,
            ..NocConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "hop latency")]
    fn hop_latency_wider_than_a_byte_rejected() {
        let c = NocConfig {
            hop_latency: 256,
            ..NocConfig::default()
        };
        c.validate();
    }

    #[test]
    fn byte_wide_limits_themselves_validate() {
        let c = NocConfig {
            vc_buffer: 255,
            hop_latency: 255,
            ..NocConfig::default()
        };
        c.validate();
    }
}
