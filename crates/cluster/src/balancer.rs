//! Replica selection: power-of-two-choices over in-flight counts.
//!
//! The cluster keeps one counter per replica — requests outstanding
//! against it right now. Picking the globally least-loaded replica would
//! need a scan and herds every client onto the same target between
//! updates; picking uniformly at random ignores load entirely. Sampling
//! *two* replicas and taking the less loaded one gets exponentially better
//! tail behaviour than random for one extra lookup (Mitzenmacher), and it
//! fails over for free: a dead board stops completing requests, its
//! in-flight counts ratchet upward with every timeout-then-retry, and the
//! two-choice comparison starts steering everything else away — before
//! lease expiry removes it from the directory entirely.

use apiary_noc::NodeId;
use apiary_sim::SimRng;
use std::collections::BTreeMap;

/// A replica key: `(board, node)`.
pub type Replica = (u16, NodeId);

/// The replica-aware load balancer.
#[derive(Debug, Clone)]
pub struct Balancer {
    rng: SimRng,
    in_flight: BTreeMap<Replica, u64>,
    /// Picks made.
    pub picks: u64,
    /// Picks where the two sampled replicas had different loads (the
    /// second choice actually mattered).
    pub informed_picks: u64,
}

impl Balancer {
    /// Creates a balancer with its own seeded RNG.
    pub fn new(seed: u64) -> Balancer {
        Balancer {
            rng: SimRng::new(seed),
            in_flight: BTreeMap::new(),
            picks: 0,
            informed_picks: 0,
        }
    }

    /// Picks one of `candidates` by power-of-two-choices; ties go to the
    /// first sample — itself uniformly random, so an idle cluster load
    /// balances evenly — keeping picks deterministic given the RNG
    /// stream. Returns an index into `candidates`, each of which names its
    /// replica through `key`.
    pub fn pick<T>(&mut self, candidates: &[T], key: impl Fn(&T) -> Replica) -> Option<usize> {
        match candidates.len() {
            0 => None,
            1 => {
                self.picks += 1;
                Some(0)
            }
            n => {
                self.picks += 1;
                let i = self.rng.gen_range(n as u64) as usize;
                let mut j = self.rng.gen_range(n as u64 - 1) as usize;
                if j >= i {
                    j += 1;
                }
                let (li, lj) = (
                    self.load(key(&candidates[i])),
                    self.load(key(&candidates[j])),
                );
                if li != lj {
                    self.informed_picks += 1;
                }
                Some(if lj < li { j } else { i })
            }
        }
    }

    /// Requests currently outstanding against `r`.
    pub fn load(&self, r: Replica) -> u64 {
        self.in_flight.get(&r).copied().unwrap_or(0)
    }

    /// Records a request dispatched to `r`.
    pub fn started(&mut self, r: Replica) {
        *self.in_flight.entry(r).or_insert(0) += 1;
    }

    /// Records a request finished (reply, error, or timeout) at `r`.
    pub fn finished(&mut self, r: Replica) {
        if let Some(c) = self.in_flight.get_mut(&r) {
            *c = c.saturating_sub(1);
        }
    }

    /// Total requests in flight across all replicas.
    pub fn total_in_flight(&self) -> u64 {
        self.in_flight.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicas(n: u16) -> Vec<Replica> {
        (0..n).map(|b| (b, NodeId(5))).collect()
    }

    #[test]
    fn empty_and_singleton() {
        let mut b = Balancer::new(1);
        assert_eq!(b.pick(&[], |&r: &Replica| r), None);
        assert_eq!(b.pick(&replicas(1), |&r| r), Some(0));
    }

    #[test]
    fn avoids_the_loaded_replica() {
        let mut b = Balancer::new(1);
        let rs = replicas(2);
        // Pile load onto replica 0; every two-choice sample sees it.
        for _ in 0..100 {
            b.started(rs[0]);
        }
        for _ in 0..50 {
            let k = b.pick(&rs, |&r| r).expect("non-empty");
            assert_eq!(k, 1, "two choices always include the idle replica");
        }
        assert_eq!(b.informed_picks, 50);
    }

    #[test]
    fn spreads_load_across_equal_replicas() {
        let mut b = Balancer::new(42);
        let rs = replicas(4);
        let mut counts = [0u64; 4];
        for _ in 0..400 {
            let k = b.pick(&rs, |&r| r).expect("non-empty");
            counts[k] += 1;
            b.started(rs[k]);
            // Completions keep pace, so loads stay comparable.
            b.finished(rs[k]);
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 40, "replica {i} starved: {counts:?}");
        }
    }

    #[test]
    fn finished_is_saturating_and_untracked_replicas_are_idle() {
        let mut b = Balancer::new(1);
        let r = (0, NodeId(1));
        b.finished(r);
        assert_eq!(b.load(r), 0);
        b.started(r);
        b.started(r);
        assert_eq!(b.load(r), 2);
        b.finished(r);
        assert_eq!(b.load(r), 1);
        assert_eq!(b.total_in_flight(), 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let rs = replicas(8);
        let picks = |seed| {
            let mut b = Balancer::new(seed);
            (0..100)
                .map(|_| {
                    let k = b.pick(&rs, |&r| r).expect("non-empty");
                    b.started(rs[k]);
                    k
                })
                .collect::<Vec<usize>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds explore differently");
    }
}
