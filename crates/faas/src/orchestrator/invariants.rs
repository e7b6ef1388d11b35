//! The serverless plane's ledger laws, checked against the replica sets.

use super::{FaasSystem, ReplicaState};
use apiary_resources::Area;
use std::collections::BTreeSet;

impl FaasSystem {
    /// Cross-checks every ledger against the replica sets and the
    /// cluster's capability state. Used by tests (including the warm-pool
    /// proptest) after arbitrary interleavings.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.pools.check()?;
        for (bi, l) in self.boards.iter().enumerate() {
            let b = bi as u16;
            let mut used = Area::ZERO;
            let mut nodes = BTreeSet::new();
            for (fi, f) in self.functions.iter().enumerate() {
                let replicas = self.pools.replicas(fi);
                let on_board: Vec<_> = replicas.iter().filter(|r| r.board == b).collect();
                if on_board.len() > 1 {
                    return Err(format!(
                        "fn `{}` has {} replicas on board {b}",
                        f.spec.name,
                        on_board.len()
                    ));
                }
                for r in &on_board {
                    used += f.spec.footprint;
                    if !nodes.insert(r.node) {
                        return Err(format!("node {:?} on board {b} double-booked", r.node));
                    }
                    if l.free_nodes.contains(&r.node) {
                        return Err(format!(
                            "node {:?} on board {b} both free and occupied",
                            r.node
                        ));
                    }
                    if r.state == ReplicaState::Live && !self.cluster.has_local_cap(b, f.service) {
                        return Err(format!(
                            "live replica of `{}` on board {b} has no gateway cap",
                            f.spec.name
                        ));
                    }
                }
                if on_board.is_empty() && self.cluster.has_local_cap(b, f.service) {
                    return Err(format!(
                        "board {b} holds a cap for `{}` with no replica",
                        f.spec.name
                    ));
                }
            }
            if used != l.used {
                return Err(format!(
                    "board {b} ledger says {} used, replicas say {used}",
                    l.used
                ));
            }
            if !used.fits_in(&l.budget) {
                return Err(format!("board {b} over budget: {used} > {}", l.budget));
            }
        }
        Ok(())
    }
}
