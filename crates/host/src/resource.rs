//! A pool of identical servers with earliest-free scheduling.

use apiary_sim::Cycle;

/// `n` identical units (CPU cores, DMA engines, accelerator replicas);
/// work is placed on the unit that frees up first.
///
/// # Examples
///
/// ```
/// use apiary_host::Resource;
/// use apiary_sim::Cycle;
///
/// let mut cores = Resource::new(2);
/// assert_eq!(cores.acquire(Cycle(0), 10), Cycle(10));
/// assert_eq!(cores.acquire(Cycle(0), 10), Cycle(10)); // Second core.
/// assert_eq!(cores.acquire(Cycle(0), 10), Cycle(20)); // Queues.
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    free_at: Vec<Cycle>,
    /// Total busy time accumulated across units.
    pub busy_cycles: u64,
}

impl Resource {
    /// Creates a pool of `n` units.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Resource {
        assert!(n > 0, "a resource pool needs at least one unit");
        Resource {
            free_at: vec![Cycle::ZERO; n],
            busy_cycles: 0,
        }
    }

    /// Schedules `work` cycles starting no earlier than `now` on the
    /// earliest-free unit; returns the completion time.
    pub fn acquire(&mut self, now: Cycle, work: u64) -> Cycle {
        let idx = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        let start = now.max(self.free_at[idx]);
        let done = start + work;
        self.free_at[idx] = done;
        self.busy_cycles += work;
        done
    }

    /// Units in the pool.
    pub fn units(&self) -> usize {
        self.free_at.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_serialises() {
        let mut r = Resource::new(1);
        assert_eq!(r.acquire(Cycle(0), 5), Cycle(5));
        assert_eq!(r.acquire(Cycle(0), 5), Cycle(10));
        assert_eq!(r.acquire(Cycle(100), 5), Cycle(105));
        assert_eq!(r.busy_cycles, 15);
    }

    #[test]
    fn multiple_units_parallelise() {
        let mut r = Resource::new(3);
        let d: Vec<Cycle> = (0..3).map(|_| r.acquire(Cycle(0), 10)).collect();
        assert!(d.iter().all(|&c| c == Cycle(10)));
        assert_eq!(r.acquire(Cycle(0), 10), Cycle(20));
    }

    #[test]
    fn zero_work_is_free() {
        let mut r = Resource::new(1);
        assert_eq!(r.acquire(Cycle(7), 0), Cycle(7));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_pool_rejected() {
        Resource::new(0);
    }
}
