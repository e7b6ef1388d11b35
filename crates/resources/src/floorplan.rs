//! Tile floor-planning: dividing a part into Apiary tiles.
//!
//! Apiary (§4.1) divides the FPGA into a *static region* — NoC routers,
//! per-tile monitors, I/O shells — and per-tile *dynamic regions* that hold
//! untrusted accelerators and are partially reconfigurable. The floor-planner
//! answers: given a part, a mesh geometry and a monitor implementation, how
//! much logic does the framework consume and how much is left per tile?
//!
//! This directly serves the paper's first open question (§6): more tiles
//! means finer-grained composition but a larger fraction of the device spent
//! on Apiary itself.

use crate::area::Area;
use crate::catalog::Part;
use core::fmt;

/// Why a floor plan could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorPlanError {
    /// The static framework alone exceeds the device.
    FrameworkDoesNotFit {
        /// Resources required by the framework.
        required: Area,
        /// Resources offered by the part.
        available: Area,
    },
    /// A zero-tile plan was requested.
    NoTiles,
}

impl fmt::Display for FloorPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorPlanError::FrameworkDoesNotFit {
                required,
                available,
            } => write!(
                f,
                "Apiary framework ({required}) exceeds device ({available})"
            ),
            FloorPlanError::NoTiles => write!(f, "a floor plan needs at least one tile"),
        }
    }
}

impl std::error::Error for FloorPlanError {}

/// Inputs to the floor-planner.
#[derive(Debug, Clone, Copy)]
pub struct FloorPlanner {
    /// Number of tiles (mesh nodes with an accelerator slot).
    pub tiles: u64,
    /// Area of one per-tile monitor.
    pub monitor: Area,
    /// Area of one NoC router (zero on parts with a hardened NoC).
    pub router: Area,
    /// One-off area for board I/O shells: Ethernet MAC, memory controllers,
    /// reconfiguration controller.
    pub io_shell: Area,
}

impl FloorPlanner {
    /// A representative soft NoC router: 5 ports x 2 VCs x 4-flit buffers
    /// plus a 5x5 crossbar and allocators — on the order of published
    /// open-source router implementations (CONNECT, OpenSMART).
    pub const SOFT_ROUTER: Area = Area {
        luts: 1_500,
        ffs: 1_200,
        bram36: 0,
        dsps: 0,
    };

    /// A hardened router consumes no programmable logic.
    pub const HARD_ROUTER: Area = Area::ZERO;

    /// A representative I/O shell: 100G MAC + DDR4 controller + ICAP glue,
    /// in line with published shell sizes (Coyote reports its full static
    /// shell below ~15% of a VU9P; ours is the subset Apiary needs).
    pub const IO_SHELL: Area = Area {
        luts: 60_000,
        ffs: 90_000,
        bram36: 150,
        dsps: 0,
    };

    /// Produces the floor plan for the given part.
    ///
    /// # Errors
    ///
    /// Returns [`FloorPlanError::NoTiles`] for a zero-tile request and
    /// [`FloorPlanError::FrameworkDoesNotFit`] when the static framework
    /// exceeds the device.
    pub fn plan(&self, part: &Part) -> Result<FloorPlan, FloorPlanError> {
        if self.tiles == 0 {
            return Err(FloorPlanError::NoTiles);
        }
        let framework = (self.monitor + self.router) * self.tiles + self.io_shell;
        if !framework.fits_in(&part.resources) {
            return Err(FloorPlanError::FrameworkDoesNotFit {
                required: framework,
                available: part.resources,
            });
        }
        let remaining = part.resources.saturating_sub(&framework);
        let per_tile = Area {
            luts: remaining.luts / self.tiles,
            ffs: remaining.ffs / self.tiles,
            bram36: remaining.bram36 / self.tiles,
            dsps: remaining.dsps / self.tiles,
        };
        Ok(FloorPlan {
            part: *part,
            tiles: self.tiles,
            framework,
            tile_slot: per_tile,
        })
    }
}

/// The result of floor-planning: how the device is divided.
#[derive(Debug, Clone)]
pub struct FloorPlan {
    /// The part the plan targets.
    pub part: Part,
    /// Number of tiles.
    pub tiles: u64,
    /// Total static-framework area (monitors + routers + I/O shell).
    pub framework: Area,
    /// Dynamic-region budget available to each tile's accelerator.
    pub tile_slot: Area,
}

impl FloorPlan {
    /// Fraction of the device consumed by the Apiary framework (binding
    /// resource), in `[0, 1]`.
    pub fn framework_fraction(&self) -> f64 {
        self.framework.utilisation_of(&self.part.resources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Part;

    fn monitor() -> Area {
        Area {
            luts: 2_000,
            ffs: 2_500,
            bram36: 4,
            dsps: 0,
        }
    }

    #[test]
    fn plan_on_vu9p_leaves_most_of_device() {
        let part = Part::by_number("VU9P").expect("catalogued");
        let planner = FloorPlanner {
            tiles: 16,
            monitor: monitor(),
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        };
        let plan = planner.plan(part).expect("fits");
        assert!(
            plan.framework_fraction() < 0.20,
            "{}",
            plan.framework_fraction()
        );
        let user_luts = plan.tile_slot.luts * plan.tiles;
        assert!(user_luts as f64 / part.resources.luts as f64 > 0.75);
    }

    #[test]
    fn more_tiles_means_more_framework() {
        let part = Part::by_number("VU9P").expect("catalogued");
        let mk = |tiles| FloorPlanner {
            tiles,
            monitor: monitor(),
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        };
        let f4 = mk(4).plan(part).expect("fits").framework_fraction();
        let f64t = mk(64).plan(part).expect("fits").framework_fraction();
        assert!(f64t > f4);
    }

    #[test]
    fn hardened_noc_cuts_framework_area() {
        let part = Part::by_number("VP1802").expect("catalogued");
        let soft = FloorPlanner {
            tiles: 32,
            monitor: monitor(),
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        };
        let hard = FloorPlanner {
            router: FloorPlanner::HARD_ROUTER,
            ..soft
        };
        let fs = soft.plan(part).expect("fits");
        let fh = hard.plan(part).expect("fits");
        // Routers vanish into hard logic: LUT cost drops, and the overall
        // framework fraction can only improve.
        assert!(fh.framework.luts < fs.framework.luts);
        assert!(fh.framework_fraction() <= fs.framework_fraction());
    }

    #[test]
    fn zero_tiles_is_an_error() {
        let part = Part::by_number("VU3P").expect("catalogued");
        let planner = FloorPlanner {
            tiles: 0,
            monitor: monitor(),
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        };
        assert!(matches!(planner.plan(part), Err(FloorPlanError::NoTiles)));
    }

    #[test]
    fn oversized_framework_is_rejected() {
        let part = Part::by_number("XC7V585T").expect("catalogued");
        let planner = FloorPlanner {
            tiles: 1_000,
            monitor: monitor(),
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        };
        match planner.plan(part) {
            Err(FloorPlanError::FrameworkDoesNotFit {
                required,
                available,
            }) => {
                assert!(required.luts > available.luts);
            }
            other => panic!("expected FrameworkDoesNotFit, got {other:?}"),
        }
    }

    #[test]
    fn tile_slots_partition_the_remainder() {
        let part = Part::by_number("VU29P").expect("catalogued");
        let planner = FloorPlanner {
            tiles: 9,
            monitor: monitor(),
            router: FloorPlanner::SOFT_ROUTER,
            io_shell: FloorPlanner::IO_SHELL,
        };
        let plan = planner.plan(part).expect("fits");
        let used = plan.framework + plan.tile_slot * plan.tiles;
        assert!(used.fits_in(&part.resources));
    }
}
