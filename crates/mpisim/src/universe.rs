//! Spawning rank universes.

use crate::comm::{Comm, Shared};
use crate::fault::FaultPlan;
use std::sync::Arc;

/// A fixed-size set of ranks executed on OS threads (compare `mpirun -np`).
///
/// ```
/// use mpisim::Universe;
/// let sums = Universe::new(4).run(|comm| comm.allreduce(comm.rank() as u64, |a, b| a + b));
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub struct Universe {
    np: usize,
    fault: FaultPlan,
}

impl Universe {
    /// A universe of `np` ranks.
    pub fn new(np: usize) -> Universe {
        assert!(np > 0, "need at least one rank");
        Universe { np, fault: FaultPlan::none() }
    }

    /// Install a fault plan: every rank's [`Comm`] applies it to the
    /// point-to-point plane (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Universe {
        if let Some(k) = fault.kill {
            assert!(k.rank < self.np, "killed rank {} out of range", k.rank);
        }
        self.fault = fault;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.np
    }

    /// Run `f` once per rank on its own thread; returns the per-rank
    /// results in rank order. Panics in any rank propagate after all
    /// ranks have been joined (a rank panic usually deadlocks peers
    /// waiting on it in real MPI too — here remaining ranks blocked on a
    /// vanished peer would hang, so keep rank bodies panic-free except in
    /// tests that expect full-universe completion).
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        let shared = Arc::new(Shared::new(self.np, self.fault));
        let comms: Vec<Comm> = (0..self.np).map(|r| Comm::new(r, Arc::clone(&shared))).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter()
                .map(|comm| {
                    let f = &f;
                    scope.spawn(move || f(comm))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_numbered_in_order() {
        let ids = Universe::new(8).run(|comm| (comm.rank(), comm.size()));
        for (i, (rank, size)) in ids.into_iter().enumerate() {
            assert_eq!(rank, i);
            assert_eq!(size, 8);
        }
    }

    #[test]
    fn large_universe_runs() {
        // 128 ranks of trivial work: ensures thread spawning scales to the
        // rank counts the integration tests use.
        let sums = Universe::new(128).run(|comm| comm.allreduce(1u64, |a, b| a + b));
        assert!(sums.into_iter().all(|s| s == 128));
    }
}
