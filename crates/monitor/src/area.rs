//! The monitor's hardware cost model (the paper's open question §6.1).
//!
//! "What is the overhead of the per-tile monitor?" — the answer decides how
//! many tiles an Apiary deployment can afford, and therefore how fine the
//! granularity of composition can be. This module prices a monitor as a sum
//! of per-feature costs, with constants anchored to published sizes of
//! comparable FPGA blocks:
//!
//! - an AXI firewall / protocol checker class block is ~1–2 kLUT,
//! - a CAM/BRAM-backed lookup table costs ~30 LUT + control per entry when
//!   done in logic, or one BRAM36 when wider than ~64 entries,
//! - a token bucket is a counter, an adder and a comparator (~100 LUT),
//! - trace capture is counters plus an optional BRAM ring.
//!
//! Absolute numbers are estimates — the experiment's claim is about
//! *scaling*: monitor area must stay a small, tile-count-proportional
//! fraction of the device.

use crate::monitor::{MonitorConfig, CAP_SLOTS};
use apiary_resources::Area;

/// Which monitor features are instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorFeatures {
    /// Capability-table slots.
    pub cap_slots: u32,
    /// Service name-table entries.
    pub name_slots: u32,
    /// Egress token-bucket rate limiter.
    pub rate_limiter: bool,
    /// Segment bounds-check unit on the memory path.
    pub mem_protection: bool,
    /// Trace ring buffer (BRAM) in addition to always-on counters.
    pub trace_ring: bool,
    /// Outbox + inbox message buffering depth (messages).
    pub queue_depth: u32,
}

impl Default for MonitorFeatures {
    /// The monitor every tile instantiates: its capability table and the
    /// default [`MonitorConfig`]'s outbox.
    fn default() -> Self {
        MonitorFeatures {
            cap_slots: CAP_SLOTS as u32,
            name_slots: 16,
            rate_limiter: true,
            mem_protection: true,
            trace_ring: false,
            queue_depth: MonitorConfig::default().outbox_depth as u32,
        }
    }
}

impl MonitorFeatures {
    /// The smallest useful monitor: interposition and capability checks
    /// only.
    pub fn minimal() -> MonitorFeatures {
        MonitorFeatures {
            cap_slots: 16,
            name_slots: 8,
            rate_limiter: false,
            mem_protection: false,
            trace_ring: false,
            queue_depth: 4,
        }
    }

    /// Everything on, sized generously.
    pub fn full() -> MonitorFeatures {
        MonitorFeatures {
            cap_slots: 64,
            name_slots: 32,
            rate_limiter: true,
            mem_protection: true,
            trace_ring: true,
            queue_depth: 32,
        }
    }
}

/// Per-feature area constants (LUT/FF/BRAM). Public so experiments can
/// report sensitivity to the constants themselves.
#[derive(Debug, Clone, Copy)]
pub struct MonitorAreaModel {
    /// Fixed cost: NoC-side protocol FSMs, header stamping, mux/demux.
    pub base: Area,
    /// Per capability-table slot (stored in LUTRAM below 64 entries).
    pub per_cap_slot: Area,
    /// Per name-table entry.
    pub per_name_slot: Area,
    /// The token bucket.
    pub rate_limiter: Area,
    /// Base/bounds comparator pair plus the request rewriter.
    pub mem_protection: Area,
    /// Trace ring controller (the ring itself is BRAM).
    pub trace_ring: Area,
    /// Per message of queue depth (flit-width registers/LUTRAM).
    pub per_queue_msg: Area,
}

impl Default for MonitorAreaModel {
    fn default() -> Self {
        MonitorAreaModel {
            base: Area {
                luts: 900,
                ffs: 1_100,
                bram36: 0,
                dsps: 0,
            },
            per_cap_slot: Area::logic(24, 18),
            per_name_slot: Area::logic(12, 8),
            rate_limiter: Area::logic(110, 90),
            mem_protection: Area::logic(260, 140),
            trace_ring: Area {
                luts: 150,
                ffs: 120,
                bram36: 2,
                dsps: 0,
            },
            per_queue_msg: Area::logic(20, 64),
        }
    }
}

impl MonitorAreaModel {
    /// Prices a monitor with the given features.
    pub fn area(&self, f: &MonitorFeatures) -> Area {
        let mut a = self.base;
        a += self.per_cap_slot * f.cap_slots as u64;
        a += self.per_name_slot * f.name_slots as u64;
        if f.rate_limiter {
            a += self.rate_limiter;
        }
        if f.mem_protection {
            a += self.mem_protection;
        }
        if f.trace_ring {
            a += self.trace_ring;
        }
        a += self.per_queue_msg * (2 * f.queue_depth as u64);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiary_resources::{FloorPlanner, Part};

    #[test]
    fn default_monitor_is_a_few_kilolut() {
        let a = MonitorAreaModel::default().area(&MonitorFeatures::default());
        assert!(
            (1_500..6_000).contains(&a.luts),
            "default monitor should be firewall-class, got {} LUTs",
            a.luts
        );
    }

    #[test]
    fn minimal_less_than_default_less_than_full() {
        let m = MonitorAreaModel::default();
        let min = m.area(&MonitorFeatures::minimal());
        let def = m.area(&MonitorFeatures::default());
        let max = m.area(&MonitorFeatures::full());
        assert!(min.luts < def.luts);
        assert!(def.luts < max.luts);
    }

    #[test]
    fn area_scales_linearly_in_cap_slots() {
        let m = MonitorAreaModel::default();
        let f16 = MonitorFeatures {
            cap_slots: 16,
            ..MonitorFeatures::default()
        };
        let f64 = MonitorFeatures {
            cap_slots: 64,
            ..MonitorFeatures::default()
        };
        let delta = m.area(&f64).luts - m.area(&f16).luts;
        assert_eq!(delta, 48 * m.per_cap_slot.luts);
    }

    #[test]
    fn sixty_four_monitors_fit_a_vu9p_with_headroom() {
        // The scaling claim: even 64 full-featured monitors plus a soft NoC
        // leave the majority of a VU9P for accelerators.
        let monitor = MonitorAreaModel::default().area(&MonitorFeatures::default());
        let part = Part::by_number("VU9P").expect("catalogued");
        let plan = FloorPlanner {
            tiles: 64,
            monitor,
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        }
        .plan(part)
        .expect("fits");
        assert!(
            plan.framework_fraction() < 0.30,
            "framework fraction {}",
            plan.framework_fraction()
        );
    }
}
