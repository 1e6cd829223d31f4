//! Collective operations.
//!
//! The paper's algorithm leans on three collectives:
//!
//! * `MPI_Alltoallv` — shipping k-mers/tiles/reads to their owning ranks
//!   (spectrum construction Step III, the load-balancing shuffle §III-A,
//!   the batch-reads heuristic);
//! * `MPI_Allgatherv` — the replication heuristics ("Allgather
//!   k-mers/tiles/both", §III-B);
//! * `MPI_Reduce(MAX)` on the batch count — realized as an allreduce since
//!   every rank drives its batch loop off the result.
//!
//! Implementation: ranks rendezvous at a shared slot matrix guarded by a
//! barrier sandwich (deposit → barrier → collect → barrier). Values move
//! by ownership transfer — `Vec`s are handed over, not copied — matching
//! how we count bytes for the cost model.
//!
//! All ranks must issue collectives in the same order (an MPI requirement
//! we inherit); a rank that skips one deadlocks, exactly like real MPI —
//! which is why the batch-reads heuristic needs its max-batches allreduce
//! (§III-B: "Each process thus continues this process for the maximum
//! number of batches even though it might have exhausted its set of
//! reads").

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

pub(crate) struct CollectiveState {
    np: usize,
    barrier: Barrier,
    /// np×np alltoall slots, row-major: `matrix[src*np + dst]`.
    matrix: Vec<Slot>,
    /// np allgather/allreduce slots.
    row: Vec<Slot>,
    /// Per-rank issue counters for non-blocking rounds. All ranks must
    /// start non-blocking collectives in the same order (MPI's matching
    /// rule), so the n-th `start_alltoallv` of every rank shares one
    /// round id regardless of arrival timing.
    nb_seq: Vec<AtomicU64>,
    /// In-flight non-blocking rounds, keyed by round id. Unlike the
    /// blocking matrix there is no barrier sandwich: depositors never
    /// wait, and `wait` blocks on the condvar only until all `np` rows
    /// of its round have arrived — that is what buys the overlap.
    nb: Mutex<HashMap<u64, NbRound>>,
    nb_cv: Condvar,
}

struct NbRound {
    /// np×np slots, row-major `slots[src*np + dst]`.
    slots: Vec<Option<Box<dyn Any + Send>>>,
    deposited: usize,
    collected: usize,
}

impl CollectiveState {
    pub(crate) fn new(np: usize) -> CollectiveState {
        CollectiveState {
            np,
            barrier: Barrier::new(np),
            matrix: (0..np * np).map(|_| Mutex::new(None)).collect(),
            row: (0..np).map(|_| Mutex::new(None)).collect(),
            nb_seq: (0..np).map(|_| AtomicU64::new(0)).collect(),
            nb: Mutex::new(HashMap::new()),
            nb_cv: Condvar::new(),
        }
    }
}

/// Handle for an in-flight non-blocking alltoallv round
/// ([`crate::Comm::start_alltoallv`]); redeem with [`wait`] to receive.
/// Dropping the handle without waiting leaks the round's buffers for the
/// lifetime of the universe (peers are unaffected — they only need the
/// deposit, which happened at start).
///
/// [`wait`]: PendingAlltoallv::wait
#[must_use = "an unawaited alltoallv never delivers its received rows"]
pub struct PendingAlltoallv<'c, T> {
    comm: &'c crate::comm::Comm,
    round: u64,
    _elem: PhantomData<fn() -> T>,
}

impl crate::comm::Comm {
    /// Synchronize all ranks (`MPI_Barrier`).
    pub fn barrier(&self) {
        self.shared().stall_tick(self.rank());
        self.shared().collectives.barrier.wait();
    }

    /// `MPI_Alltoallv`: `send[d]` goes to rank `d`; returns `recv` where
    /// `recv[s]` came from rank `s` (so `recv[s]` is what rank `s` put in
    /// its `send[me]`).
    pub fn alltoallv<T: Send + 'static>(&self, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let cs = &self.shared().collectives;
        let np = cs.np;
        assert_eq!(send.len(), np, "alltoallv send buffer must have one entry per rank");
        let me = self.rank();
        let bytes: usize = send.iter().map(|v| v.len() * std::mem::size_of::<T>()).sum();
        self.shared().stats[me].count_collective(bytes);
        self.shared().stall_tick(me);
        for (dst, data) in send.into_iter().enumerate() {
            *cs.matrix[me * np + dst].lock() = Some(Box::new(data));
        }
        cs.barrier.wait();
        let mut recv = Vec::with_capacity(np);
        for src in 0..np {
            let boxed = cs.matrix[src * np + me].lock().take().expect("deposited before barrier");
            recv.push(*boxed.downcast::<Vec<T>>().expect("uniform alltoallv element type"));
        }
        cs.barrier.wait();
        recv
    }

    /// Non-blocking `MPI_Ialltoallv`: deposit `send` and return
    /// immediately with a handle; [`PendingAlltoallv::wait`] delivers the
    /// received rows. Between start and wait the rank is free to compute —
    /// the double-buffered spectrum build overlaps batch *B*'s exchange
    /// with batch *B+1*'s extraction this way.
    ///
    /// Matching follows MPI's rule: every rank must start its
    /// non-blocking collectives in the same order (the n-th start on each
    /// rank forms one round). Several rounds may be in flight at once.
    pub fn start_alltoallv<T: Send + 'static>(&self, send: Vec<Vec<T>>) -> PendingAlltoallv<'_, T> {
        let cs = &self.shared().collectives;
        let np = cs.np;
        assert_eq!(send.len(), np, "alltoallv send buffer must have one entry per rank");
        let me = self.rank();
        let bytes: usize = send.iter().map(|v| v.len() * std::mem::size_of::<T>()).sum();
        self.shared().stats[me].count_collective_nonblocking(bytes);
        self.shared().stall_tick(me);
        let round = cs.nb_seq[me].fetch_add(1, Ordering::Relaxed);
        {
            let mut rounds = cs.nb.lock();
            let entry = rounds.entry(round).or_insert_with(|| NbRound {
                slots: (0..np * np).map(|_| None).collect(),
                deposited: 0,
                collected: 0,
            });
            for (dst, data) in send.into_iter().enumerate() {
                entry.slots[me * np + dst] = Some(Box::new(data));
            }
            entry.deposited += 1;
        }
        cs.nb_cv.notify_all();
        PendingAlltoallv { comm: self, round, _elem: PhantomData }
    }

    /// `MPI_Allgatherv`: every rank contributes `mine`; everyone receives
    /// all contributions indexed by rank.
    pub fn allgatherv<T: Clone + Send + 'static>(&self, mine: Vec<T>) -> Vec<Vec<T>> {
        let cs = &self.shared().collectives;
        let np = cs.np;
        let me = self.rank();
        self.shared().stats[me].count_collective(mine.len() * std::mem::size_of::<T>());
        self.shared().stall_tick(me);
        *cs.row[me].lock() = Some(Box::new(mine));
        cs.barrier.wait();
        let mut all = Vec::with_capacity(np);
        for src in 0..np {
            let guard = cs.row[src].lock();
            let vec = guard
                .as_ref()
                .expect("deposited before barrier")
                .downcast_ref::<Vec<T>>()
                .expect("uniform allgatherv element type");
            all.push(vec.clone());
        }
        cs.barrier.wait();
        all
    }

    /// Generic allreduce: fold every rank's `value` with `f` in rank order
    /// (deterministic). Every rank must pass an equivalent `f`.
    pub fn allreduce<T, F>(&self, value: T, f: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let cs = &self.shared().collectives;
        let me = self.rank();
        self.shared().stats[me].count_collective(std::mem::size_of::<T>());
        self.shared().stall_tick(me);
        *cs.row[me].lock() = Some(Box::new(value));
        cs.barrier.wait();
        let mut acc: Option<T> = None;
        for src in 0..cs.np {
            let guard = cs.row[src].lock();
            let v = guard
                .as_ref()
                .expect("deposited before barrier")
                .downcast_ref::<T>()
                .expect("uniform allreduce element type")
                .clone();
            acc = Some(match acc {
                None => v,
                Some(a) => f(a, v),
            });
        }
        cs.barrier.wait();
        acc.expect("np >= 1")
    }

    /// `MPI_Allreduce(MAX)` on a `u64` — the paper's batch-count reduce.
    pub fn allreduce_max_u64(&self, value: u64) -> u64 {
        self.allreduce(value, u64::max)
    }
}

impl<T: Send + 'static> PendingAlltoallv<'_, T> {
    /// Block until every rank's deposit for this round has arrived, then
    /// take this rank's received rows: `recv[s]` is what rank `s` put in
    /// its `send[me]`, exactly like the blocking [`Comm::alltoallv`].
    ///
    /// [`Comm::alltoallv`]: crate::comm::Comm::alltoallv
    pub fn wait(self) -> Vec<Vec<T>> {
        let cs = &self.comm.shared().collectives;
        let np = cs.np;
        let me = self.comm.rank();
        let mut rounds = cs.nb.lock();
        while rounds.get(&self.round).is_none_or(|r| r.deposited < np) {
            cs.nb_cv.wait(&mut rounds);
        }
        let round = rounds.get_mut(&self.round).expect("round present while waiting");
        let mut recv = Vec::with_capacity(np);
        for src in 0..np {
            let boxed = round.slots[src * np + me].take().expect("all ranks deposited");
            recv.push(*boxed.downcast::<Vec<T>>().expect("uniform alltoallv element type"));
        }
        round.collected += 1;
        if round.collected == np {
            rounds.remove(&self.round);
        }
        recv
    }
}

#[cfg(test)]
mod tests {
    use crate::universe::Universe;

    #[test]
    fn alltoallv_transposes() {
        let np = 5;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            // send[d] = [me*10 + d]
            let send: Vec<Vec<usize>> = (0..np).map(|d| vec![me * 10 + d]).collect();
            comm.alltoallv(send)
        });
        for (me, recv) in results.into_iter().enumerate() {
            for (src, v) in recv.into_iter().enumerate() {
                assert_eq!(v, vec![src * 10 + me]);
            }
        }
    }

    #[test]
    fn alltoallv_variable_lengths() {
        let np = 4;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            // rank r sends r copies of its id to each destination
            let send: Vec<Vec<u8>> = (0..np).map(|_| vec![me as u8; me]).collect();
            comm.alltoallv(send)
        });
        for recv in results {
            for (src, v) in recv.into_iter().enumerate() {
                assert_eq!(v, vec![src as u8; src]);
            }
        }
    }

    #[test]
    fn back_to_back_alltoallv_do_not_interfere() {
        let np = 3;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            let a = comm.alltoallv((0..np).map(|d| vec![(me, d, 'a')]).collect());
            let b = comm.alltoallv((0..np).map(|d| vec![(me, d, 'b')]).collect());
            (a, b)
        });
        for (me, (a, b)) in results.into_iter().enumerate() {
            for src in 0..np {
                assert_eq!(a[src], vec![(src, me, 'a')]);
                assert_eq!(b[src], vec![(src, me, 'b')]);
            }
        }
    }

    #[test]
    fn allgatherv_collects_everything() {
        let np = 4;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            comm.allgatherv(vec![me; me + 1])
        });
        for all in results {
            for (src, v) in all.into_iter().enumerate() {
                assert_eq!(v, vec![src; src + 1]);
            }
        }
    }

    #[test]
    fn allreduce_max_and_sum() {
        let np = 6;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank() as u64;
            (comm.allreduce_max_u64(me * 3), comm.allreduce(me, |a, b| a + b))
        });
        for (max, sum) in results {
            assert_eq!(max, 15);
            assert_eq!(sum, 15);
        }
    }

    #[test]
    fn allreduce_fold_order_is_rank_order() {
        let np = 4;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            comm.allreduce(vec![me], |mut a, b| {
                a.extend(b);
                a
            })
        });
        for folded in results {
            assert_eq!(folded, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn single_rank_collectives() {
        let results = Universe::new(1).run(|comm| {
            comm.barrier();
            let a = comm.alltoallv(vec![vec![42u32]]);
            let g = comm.allgatherv(vec![7u8]);
            let m = comm.allreduce_max_u64(9);
            (a, g, m)
        });
        assert_eq!(results[0].0, vec![vec![42]]);
        assert_eq!(results[0].1, vec![vec![7]]);
        assert_eq!(results[0].2, 9);
    }

    #[test]
    fn start_alltoallv_transposes_like_blocking() {
        let np = 5;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            let send: Vec<Vec<usize>> = (0..np).map(|d| vec![me * 10 + d]).collect();
            comm.start_alltoallv(send).wait()
        });
        for (me, recv) in results.into_iter().enumerate() {
            for (src, v) in recv.into_iter().enumerate() {
                assert_eq!(v, vec![src * 10 + me]);
            }
        }
    }

    #[test]
    fn start_alltoallv_overlaps_compute_between_start_and_wait() {
        // Ranks start the exchange, then do rank-skewed local work before
        // waiting — no rank may block until its own wait().
        let np = 4;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            let pending = comm.start_alltoallv((0..np).map(|d| vec![(me, d)]).collect());
            let local: usize = (0..(me + 1) * 1000).sum(); // stand-in compute
            (pending.wait(), local)
        });
        for (me, (recv, _)) in results.into_iter().enumerate() {
            for (src, v) in recv.into_iter().enumerate() {
                assert_eq!(v, vec![(src, me)]);
            }
        }
    }

    #[test]
    fn multiple_nonblocking_rounds_in_flight() {
        // Double buffering keeps two rounds pending at once (k-mers and
        // tiles of one batch); rounds must match by issue order, not by
        // completion order.
        let np = 3;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank();
            let a = comm.start_alltoallv((0..np).map(|d| vec![(me, d, 'a')]).collect());
            let b = comm.start_alltoallv((0..np).map(|d| vec![(me, d, 'b')]).collect());
            // Wait out of issue order on purpose.
            let rb = b.wait();
            let ra = a.wait();
            (ra, rb)
        });
        for (me, (a, b)) in results.into_iter().enumerate() {
            for src in 0..np {
                assert_eq!(a[src], vec![(src, me, 'a')]);
                assert_eq!(b[src], vec![(src, me, 'b')]);
            }
        }
    }

    #[test]
    fn nonblocking_interleaves_with_blocking_collectives() {
        let np = 4;
        let results = Universe::new(np).run(|comm| {
            let me = comm.rank() as u64;
            let pending =
                comm.start_alltoallv((0..np).map(|d| vec![me * 100 + d as u64]).collect());
            let max = comm.allreduce_max_u64(me);
            (pending.wait(), max)
        });
        for (me, (recv, max)) in results.into_iter().enumerate() {
            assert_eq!(max, np as u64 - 1);
            for (src, v) in recv.into_iter().enumerate() {
                assert_eq!(v, vec![src as u64 * 100 + me as u64]);
            }
        }
    }

    #[test]
    fn single_rank_nonblocking_round_trips() {
        let results = Universe::new(1).run(|comm| comm.start_alltoallv(vec![vec![7u8, 8]]).wait());
        assert_eq!(results[0], vec![vec![7, 8]]);
    }

    #[test]
    fn nonblocking_stats_counted() {
        let results = Universe::new(2).run(|comm| {
            let p = comm.start_alltoallv(vec![vec![0u64; 4], vec![0u64; 4]]);
            let _ = p.wait();
            comm.stats()
        });
        assert_eq!(results[0].collective_ops, 1);
        assert_eq!(results[0].collective_sent_bytes, 64);
        assert_eq!(results[0].nonblocking_collective_ops, 1);
    }

    #[test]
    fn collective_stats_counted() {
        let results = Universe::new(2).run(|comm| {
            let _ = comm.alltoallv(vec![vec![0u64; 4], vec![0u64; 4]]);
            comm.stats()
        });
        assert_eq!(results[0].collective_ops, 1);
        assert_eq!(results[0].collective_sent_bytes, 64);
    }
}
