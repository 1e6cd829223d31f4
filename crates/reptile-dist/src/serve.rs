//! The serve plane: a long-lived correction service (DESIGN.md §13).
//!
//! A [`ServeEngine`] runs the same rank lifecycle as a batch run
//! (`engine_mt::obtain_tables`, then `engine_mt::with_service_plane`),
//! with one difference: its job source is an admission queue, not a
//! fixed read set. It spins up `np` rank threads once, loads the
//! specstore snapshot (or builds the spectrum from seed reads) once, and
//! keeps every piece of Step-IV state — comm threads, owner maps,
//! heuristic side tables, round buffers, wire buffers — warm for the
//! engine's whole lifetime. Individual reads are then corrected as
//! *requests* through a bounded multi-producer admission queue:
//!
//! ```text
//!  submit() ──► [admission queue] ──► rank workers (micro-batches)
//!     │              │ high-water        │ correct (in lockstep rounds)
//!     ▼              ▼                   ▼
//!  Backpressure   bounded depth     [completion buffer] ──► drain()
//!  (retry-after)
//! ```
//!
//! **Backpressure.** The queue is bounded by `ServeConfig::queue_depth`
//! (the high-water mark): once it holds that many requests, `submit`
//! rejects with [`SubmitError::Backpressure`] carrying a retry-after
//! hint derived from the measured drain rate. Producers never block —
//! an open-loop client past saturation sees explicit rejections, not an
//! unbounded queue.
//!
//! **Adaptive micro-batching.** Each rank worker takes *everything*
//! queued up to `ServeConfig::max_batch` in one lock acquisition, then
//! corrects the whole micro-batch as one chunk: under aggregate lookups,
//! one first-wave fetch of its count-free keys, then lockstep rounds of
//! one batch per owner. Under light load batches degenerate to single
//! requests (lowest latency); as load grows the batch size grows with
//! the queue, so the per-owner round trips of the first wave and of each
//! round amortize over more and more requests — the same messages serve
//! a bigger batch.
//!
//! **Faults.** The worker loop contains no collectives, so a killed or
//! stalled rank can never wedge the queue: its own requests degrade
//! through the lookup deadline/retry/degrade protocol (absent-everywhere
//! answers), and the surviving ranks keep draining. The only
//! collectives are at startup (snapshot load) and shutdown (one final
//! barrier before the comm threads are released) — both are reliable
//! under every fault the plan can inject except a stall, which merely
//! delays them.

use crate::engine::{ConfigError, EngineConfig, EngineError};
use crate::engine_mt::{obtain_tables, root_cause, with_service_plane};
use crate::report::LookupStats;
use dnaseq::Read;
use mpisim::{Comm, Universe};
use reptile::CorrectionStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission-queue and micro-batching knobs of a [`ServeEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// The queue's high-water mark *and* hard bound: `submit` rejects
    /// with backpressure once this many requests are waiting.
    pub queue_depth: usize,
    /// Most requests a worker coalesces into one micro-batch (one
    /// owner-batched round trip per fetch under aggregate lookups).
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { queue_depth: 4096, max_batch: 256 }
    }
}

/// Why a [`ServeEngine::submit`] was not admitted. Both variants hand
/// the read back (like `mpsc::TrySendError`) so a retry needs no clone.
#[derive(Clone, Debug)]
pub enum SubmitError {
    /// The queue is at its high-water mark. Retry no sooner than
    /// `retry_after` (estimated from the measured drain rate).
    Backpressure {
        /// The rejected read, returned to the caller.
        read: Read,
        /// Requests waiting when the submission was rejected.
        queue_len: usize,
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
    /// The engine is shutting down (or failed at startup); no further
    /// admissions.
    Closed(Read),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure { queue_len, retry_after, .. } => {
                write!(f, "admission queue full ({queue_len} waiting); retry after {retry_after:?}")
            }
            SubmitError::Closed(_) => write!(f, "serve engine is closed"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One corrected request, with its latency accounting.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// Caller-supplied trace id, echoed verbatim.
    pub trace_id: u64,
    /// The corrected read.
    pub read: Read,
    /// Time spent waiting in the admission queue (enqueue → dequeue).
    pub queue: Duration,
    /// Time from dequeue to this request's correction finishing
    /// (includes the rounds of its micro-batch up to the one that
    /// completed it, and the requests corrected before it).
    pub service: Duration,
    /// Size of the micro-batch this request rode in.
    pub batch_len: usize,
    /// Whether any lookup this request's micro-batch depended on
    /// degraded to "absent everywhere" (fault plan active). Batch-level
    /// attribution: a degraded lookup marks every request in the batch.
    pub degraded: bool,
}

/// Lifetime totals of a [`ServeEngine`], returned by
/// [`ServeEngine::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Submissions rejected with backpressure.
    pub rejected: u64,
    /// Requests corrected and completed.
    pub completed: u64,
    /// Micro-batches processed across all ranks.
    pub batches: u64,
    /// Errors corrected across all requests.
    pub errors_corrected: u64,
    /// Lookup-protocol counters merged across ranks (including the
    /// comm-thread serve counts).
    pub lookups: LookupStats,
    /// Snapshot bytes read at startup (0 when built from seed reads).
    pub snapshot_bytes_read: u64,
    /// Reed-Solomon repair work performed across ranks while loading a
    /// degraded snapshot at startup (all-zero on clean starts; requires
    /// a `Repair` recovery policy in the config).
    pub repair: specstore::RepairStats,
    /// Engine lifetime, start of serving to shutdown.
    pub uptime_secs: f64,
    /// Responses completed but never drained before shutdown.
    pub responses: Vec<ServeResponse>,
}

impl ServeReport {
    /// Mean micro-batch size over the engine's lifetime — the
    /// adaptive-batching outcome (1.0 under light load, growing with
    /// saturation).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed as f64 / self.batches as f64
    }
}

/// A queued request: the trace id and admission stamp ride with the
/// read through the queue.
struct QueuedRequest {
    trace_id: u64,
    enqueued: Instant,
    read: Read,
}

/// Queue state guarded by one mutex: the deque and the closed flag are
/// read together by workers, so admission-vs-drain races cannot strand
/// a request (a request admitted before close is visibly non-empty to
/// at least one worker's exit check).
struct QueueState {
    deque: VecDeque<QueuedRequest>,
    closed: bool,
}

/// Startup handshake between `start()` and the rank threads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Startup {
    Pending,
    Ready,
    Failed,
}

/// State shared by the client handle, the driver thread and every rank
/// worker.
struct Shared {
    queue_depth: usize,
    max_batch: usize,
    /// Rank workers draining the queue at once.
    workers: usize,
    queue: Mutex<QueueState>,
    /// Signals workers on admission and close.
    notify: Condvar,
    completed: Mutex<Vec<ServeResponse>>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    done: AtomicU64,
    /// EWMA of per-request wall time (ns) across recent micro-batches;
    /// feeds the backpressure retry-after hint.
    ewma_ns: AtomicU64,
    startup: Mutex<Startup>,
    startup_cv: Condvar,
}

impl Shared {
    fn mark(&self, s: Startup) {
        *self.startup.lock().expect("startup lock") = s;
        self.startup_cv.notify_all();
    }

    fn close(&self) {
        let mut q = self.queue.lock().expect("queue lock");
        q.closed = true;
        drop(q);
        self.notify.notify_all();
    }
}

/// Per-rank lifetime summary returned by the rank threads at shutdown.
struct RankDone {
    lookups: LookupStats,
    correction: CorrectionStats,
    requests: u64,
    batches: u64,
    snapshot_bytes_read: u64,
    repair: specstore::RepairStats,
}

/// A persistent, long-lived correction service over `np` rank threads.
///
/// Construction ([`ServeEngine::start`]) pays the whole setup cost —
/// thread spawn, snapshot load (or distributed build from seed reads),
/// heuristic side-table derivation — exactly once; after that each
/// correction request costs only its own lookups. Dropping the engine
/// without calling [`ServeEngine::shutdown`] closes the queue and joins
/// the ranks (discarding the report).
pub struct ServeEngine {
    shared: Arc<Shared>,
    driver: Option<std::thread::JoinHandle<Result<Vec<RankDone>, EngineError>>>,
    started: Instant,
}

impl ServeEngine {
    /// Start the service: spawn the universe, load the snapshot (when
    /// `cfg.load_spectrum` is set) or build the spectrum from
    /// `seed_reads`, and block until every rank is ready to serve.
    /// Startup failures (bad snapshot, invalid config) surface here,
    /// not on the first submit.
    pub fn start(
        cfg: EngineConfig,
        serve: ServeConfig,
        seed_reads: Vec<Read>,
    ) -> Result<ServeEngine, EngineError> {
        cfg.validate()?;
        if serve.queue_depth == 0 {
            return Err(ConfigError::Heuristics("serve queue_depth must be at least 1".into()))?;
        }
        if serve.max_batch == 0 {
            return Err(ConfigError::Heuristics("serve max_batch must be at least 1".into()))?;
        }
        // The service has no fixed read set, so read-set-derived
        // heuristics cannot apply to it.
        let h = &cfg.heuristics;
        if h.keep_read_tables || h.cache_remote || h.batch_reads || h.steal_chunks {
            return Err(ConfigError::Heuristics(
                "serve mode has no per-run read set: read-tables, cache-remote, batch-reads \
                 and steal are unsupported"
                    .into(),
            ))?;
        }
        if h.hot_shard_k > 0 {
            return Err(ConfigError::Heuristics(
                "serve mode cannot sample request skew at startup: hot-shards is unsupported"
                    .into(),
            ))?;
        }
        let shared = Arc::new(Shared {
            queue_depth: serve.queue_depth,
            max_batch: serve.max_batch,
            workers: cfg.np,
            queue: Mutex::new(QueueState { deque: VecDeque::new(), closed: false }),
            notify: Condvar::new(),
            completed: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            done: AtomicU64::new(0),
            // seed the drain-rate estimate at 5µs/request until measured
            ewma_ns: AtomicU64::new(5_000),
            startup: Mutex::new(Startup::Pending),
            startup_cv: Condvar::new(),
        });
        let started = Instant::now();
        let driver = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let universe =
                    Universe::with_topology(cfg.np, cfg.topology).with_fault_plan(cfg.fault);
                let per_rank: Vec<Result<RankDone, EngineError>> =
                    universe.run(|comm| serve_rank(comm, &cfg, &seed_reads, &shared));
                let out = root_cause(per_rank);
                if out.is_err() {
                    // no rank reached the ready barrier; unblock start()
                    shared.mark(Startup::Failed);
                    shared.close();
                }
                out
            })
        };
        // Block until the ranks pass the post-load barrier (or fail
        // collectively), so snapshot errors are synchronous.
        let mut state = shared.startup.lock().expect("startup lock");
        while *state == Startup::Pending {
            state = shared.startup_cv.wait(state).expect("startup wait");
        }
        let failed = *state == Startup::Failed;
        drop(state);
        let mut engine = ServeEngine { shared, driver: Some(driver), started };
        if failed {
            let err = match engine.join_driver() {
                Err(e) => e,
                // unreachable in practice: Failed is only marked on Err
                Ok(_) => ConfigError::Heuristics("serve startup failed".into()).into(),
            };
            return Err(err);
        }
        Ok(engine)
    }

    /// Submit one read for correction. Non-blocking: past the
    /// high-water mark the request is rejected with a retry-after hint
    /// instead of queuing unboundedly.
    pub fn submit(&self, trace_id: u64, read: Read) -> Result<(), SubmitError> {
        let mut q = self.shared.queue.lock().expect("queue lock");
        if q.closed {
            return Err(SubmitError::Closed(read));
        }
        let len = q.deque.len();
        if len >= self.shared.queue_depth {
            drop(q);
            self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            let per_req = self.shared.ewma_ns.load(Ordering::Relaxed);
            return Err(SubmitError::Backpressure {
                read,
                queue_len: len,
                retry_after: retry_after(per_req, len, self.shared.workers),
            });
        }
        q.deque.push_back(QueuedRequest { trace_id, enqueued: Instant::now(), read });
        drop(q);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.notify.notify_one();
        Ok(())
    }

    /// Requests currently waiting for a worker.
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").deque.len()
    }

    /// Take every completed response accumulated since the last drain.
    pub fn drain(&self) -> Vec<ServeResponse> {
        std::mem::take(&mut *self.shared.completed.lock().expect("completed lock"))
    }

    /// Close the queue, drain the in-flight requests, join the ranks
    /// and return the lifetime report (plus any undrained responses).
    pub fn shutdown(mut self) -> Result<ServeReport, EngineError> {
        self.shared.close();
        let ranks = self.join_driver()?;
        let mut report = ServeReport {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            completed: self.shared.done.load(Ordering::Relaxed),
            uptime_secs: self.started.elapsed().as_secs_f64(),
            responses: self.drain(),
            ..ServeReport::default()
        };
        for r in ranks {
            report.batches += r.batches;
            report.errors_corrected += r.correction.errors_corrected;
            report.lookups.merge(&r.lookups);
            report.snapshot_bytes_read += r.snapshot_bytes_read;
            report.repair.merge(&r.repair);
            debug_assert!(r.requests <= report.completed);
        }
        Ok(report)
    }

    fn join_driver(&mut self) -> Result<Vec<RankDone>, EngineError> {
        match self.driver.take() {
            Some(h) => h.join().expect("serve driver panicked"),
            None => Ok(Vec::new()),
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if self.driver.is_some() {
            self.shared.close();
            let _ = self.join_driver();
        }
    }
}

/// The backpressure hint: the time a quarter of a `queue_len` queue
/// (plus the request in hand) takes to drain at the engine's combined
/// rate — `workers` ranks pulling micro-batches at once, each taking
/// `per_req_ns` per request. Never zero.
fn retry_after(per_req_ns: u64, queue_len: usize, workers: usize) -> Duration {
    let one_worker = per_req_ns.max(1).saturating_mul(queue_len as u64 / 4 + 1);
    Duration::from_nanos(one_worker.div_ceil(workers.max(1) as u64))
}

/// How long a worker sleeps on an empty queue before re-checking the
/// closed flag — a backstop only; admissions and close both signal the
/// condvar.
const WORKER_POLL: Duration = Duration::from_millis(50);

/// EWMA weight (percent) of the newest micro-batch's per-request time.
const EWMA_NEW_PCT: u64 = 20;

/// The per-rank serve loop: obtain the tables once, then pull
/// micro-batches off the shared admission queue inside the service
/// plane until the engine closes. Collective structure: snapshot load
/// (or build) + one barrier at startup, the service plane's barrier at
/// shutdown — nothing per request, so no rank can block another through
/// the queue.
fn serve_rank(
    comm: &Comm,
    cfg: &EngineConfig,
    seed_reads: &[Read],
    shared: &Shared,
) -> Result<RankDone, EngineError> {
    let (me, np) = (comm.rank(), comm.size());
    // Step-I analog for the seed corpus: contiguous slices.
    let mine = &seed_reads[seed_reads.len() * me / np..seed_reads.len() * (me + 1) / np];
    let (tables, _, _, snapshot_bytes_read, repair) = obtain_tables(comm, cfg, mine)?;
    comm.barrier();
    if me == 0 {
        shared.mark(Startup::Ready);
    }

    let mut correction = CorrectionStats::default();
    let (mut requests, mut batches) = (0u64, 0u64);
    let (lookups, _) = with_service_plane(comm, &tables, cfg, None, |router| {
        // Staging vectors reused for the engine's lifetime, beside the
        // router's own round and wire buffers.
        let mut meta: Vec<(u64, Instant)> = Vec::with_capacity(shared.max_batch);
        let mut reads: Vec<Read> = Vec::with_capacity(shared.max_batch);
        let mut stamps: Vec<(Duration, bool)> = Vec::with_capacity(shared.max_batch);
        loop {
            meta.clear();
            reads.clear();
            stamps.clear();
            {
                let mut q = shared.queue.lock().expect("queue lock");
                while q.deque.is_empty() && !q.closed {
                    let (guard, _) =
                        shared.notify.wait_timeout(q, WORKER_POLL).expect("queue wait");
                    q = guard;
                }
                if q.deque.is_empty() {
                    break; // closed and drained
                }
                // adaptive micro-batch: everything queued, capped
                let n = q.deque.len().min(shared.max_batch);
                for qr in q.deque.drain(..n) {
                    meta.push((qr.trace_id, qr.enqueued));
                    reads.push(qr.read);
                }
            }
            let dequeued = Instant::now();
            let n = reads.len();
            stamps.resize(n, (Duration::ZERO, false));
            // the rounds finish the reads of a micro-batch in round order,
            // not queue order: each is stamped as it completes
            router.correct_chunk(&mut reads, &cfg.params, |i, outcome, degraded| {
                correction.absorb(&outcome);
                stamps[i] = (dequeued.elapsed(), degraded);
            });
            let per_req_ns = (dequeued.elapsed().as_nanos() as u64 / n as u64).max(1);
            let old = shared.ewma_ns.load(Ordering::Relaxed);
            shared.ewma_ns.store(
                (old * (100 - EWMA_NEW_PCT) + per_req_ns * EWMA_NEW_PCT) / 100,
                Ordering::Relaxed,
            );
            {
                let mut completed = shared.completed.lock().expect("completed lock");
                completed.reserve(n);
                for ((read, (trace_id, enqueued)), (service, degraded)) in
                    reads.drain(..).zip(meta.drain(..)).zip(stamps.drain(..))
                {
                    completed.push(ServeResponse {
                        trace_id,
                        read,
                        queue: dequeued.duration_since(enqueued),
                        service,
                        batch_len: n,
                        degraded,
                    });
                }
            }
            shared.done.fetch_add(n as u64, Ordering::Relaxed);
            requests += n as u64;
            batches += 1;
        }
    });
    Ok(RankDone { lookups, correction, requests, batches, snapshot_bytes_read, repair })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, ThreadedEngine};
    use crate::heuristics::HeuristicConfig;
    use crate::test_data::{params, periodic_reads as dataset};
    use reptile::ReptileParams;

    /// Submit every read, tolerating backpressure, and drain until all
    /// are back; returns responses sorted by trace id.
    fn serve_all(engine: &ServeEngine, reads: &[Read]) -> Vec<ServeResponse> {
        let mut out = Vec::with_capacity(reads.len());
        for r in reads {
            let mut pending = r.clone();
            loop {
                match engine.submit(r.id, pending) {
                    Ok(()) => break,
                    Err(SubmitError::Backpressure { read, retry_after, .. }) => {
                        out.extend(engine.drain());
                        std::thread::sleep(retry_after.min(Duration::from_millis(5)));
                        pending = read;
                    }
                    Err(SubmitError::Closed(_)) => panic!("engine closed during submit"),
                }
            }
        }
        while out.len() < reads.len() {
            out.extend(engine.drain());
            std::thread::sleep(Duration::from_micros(200));
        }
        out.sort_unstable_by_key(|r| r.trace_id);
        out
    }

    /// Serve-mode corrections are bit-identical to a batch run with the
    /// same spectrum, across the serve-compatible heuristic matrix.
    #[test]
    fn serve_matches_batch_output() {
        let reads = dataset(60);
        let matrix = [
            HeuristicConfig::default(),
            HeuristicConfig { universal: true, ..Default::default() },
            HeuristicConfig { aggregate_lookups: true, ..Default::default() },
            HeuristicConfig { aggregate_lookups: true, universal: true, ..Default::default() },
            HeuristicConfig::replicate_both(),
            HeuristicConfig { partial_group: 2, ..Default::default() },
        ];
        for heur in matrix {
            for np in [1, 3] {
                let cfg = EngineConfig {
                    heuristics: heur,
                    chunk_size: 16,
                    build_threads: 2,
                    ..EngineConfig::new(np, params())
                };
                let batch = ThreadedEngine.run(&cfg, &reads);
                let engine = ServeEngine::start(
                    cfg,
                    ServeConfig { queue_depth: 32, max_batch: 8 },
                    reads.clone(),
                )
                .expect("serve start");
                let responses = serve_all(&engine, &reads);
                let report = engine.shutdown().expect("serve shutdown");
                assert_eq!(responses.len(), reads.len());
                for (resp, want) in responses.iter().zip(&batch.corrected) {
                    assert_eq!(resp.read, *want, "serve != batch ({}, np={np})", heur.label());
                    assert!(!resp.degraded, "fault-free serve degraded a request");
                    assert!(resp.batch_len >= 1 && resp.batch_len <= 8);
                }
                assert_eq!(report.completed, reads.len() as u64);
                assert_eq!(report.accepted, reads.len() as u64);
                assert!(report.batches > 0 && report.mean_batch() >= 1.0);
            }
        }
    }

    /// The hint prices the drain at every worker's rate together: 4
    /// workers at 8 µs per request clear a quarter of a 40-deep queue
    /// (plus one) in 11 × 8 / 4 = 22 µs, a quarter of one worker's time.
    #[test]
    fn retry_after_prices_the_combined_drain_rate() {
        assert_eq!(retry_after(8_000, 40, 4), Duration::from_micros(22));
        assert_eq!(retry_after(8_000, 40, 1), Duration::from_micros(88));
        assert_eq!(retry_after(8_000, 40, 2), retry_after(8_000, 40, 1) / 2);
        assert_eq!(retry_after(0, 0, 8), Duration::from_nanos(1), "never zero");
    }

    /// The queue is bounded: a burst larger than the high-water mark is
    /// rejected with a usable retry-after, and every admitted request
    /// still completes.
    #[test]
    fn backpressure_bounds_the_queue() {
        let reads = dataset(120);
        let cfg = EngineConfig {
            heuristics: HeuristicConfig { aggregate_lookups: true, ..Default::default() },
            ..EngineConfig::new(2, params())
        };
        let serve = ServeConfig { queue_depth: 8, max_batch: 4 };
        let engine = ServeEngine::start(cfg, serve, reads.clone()).expect("serve start");
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for r in &reads {
            match engine.submit(r.id, r.clone()) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Backpressure { read, queue_len, retry_after }) => {
                    rejected += 1;
                    assert_eq!(read, *r, "rejection must hand the read back");
                    assert!(queue_len >= serve.queue_depth);
                    assert!(retry_after > Duration::ZERO);
                }
                Err(SubmitError::Closed(_)) => panic!("engine closed early"),
            }
            assert!(engine.queue_len() <= serve.queue_depth, "queue exceeded its bound");
        }
        let mut responses = Vec::new();
        while (responses.len() as u64) < accepted {
            responses.extend(engine.drain());
            std::thread::sleep(Duration::from_micros(200));
        }
        let report = engine.shutdown().expect("serve shutdown");
        assert_eq!(report.accepted, accepted);
        assert_eq!(report.rejected, rejected);
        assert_eq!(report.completed, accepted);
        // a burst of 120 into a depth-8 queue must trip the mark at
        // least once unless the workers drained absurdly fast; either
        // way the accounting above must balance
        assert_eq!(accepted + rejected, reads.len() as u64);
    }

    /// A missing snapshot fails `start` itself with a typed snapshot
    /// error, not the first submit.
    #[test]
    fn startup_failure_is_synchronous() {
        let dir =
            std::env::temp_dir().join(format!("reptile-serve-missing-{}", std::process::id()));
        let cfg = EngineConfig { load_spectrum: Some(dir), ..EngineConfig::new(2, params()) };
        let err = match ServeEngine::start(cfg, ServeConfig::default(), Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("start must fail on a missing snapshot"),
        };
        assert!(matches!(err, EngineError::Snapshot(_)), "got {err}");
    }

    /// Serve-incompatible heuristics are rejected up front, each with a
    /// heuristics error: the read-set heuristics, stealing, hot shards,
    /// and a memory budget (valid only beside `batch_reads`).
    #[test]
    fn rejects_read_set_heuristics() {
        let budget = Some(crate::ooc::min_budget(&params()));
        for (heur, memory_budget) in [
            (HeuristicConfig { keep_read_tables: true, ..Default::default() }, None),
            (HeuristicConfig { cache_remote: true, ..Default::default() }, None),
            (
                HeuristicConfig {
                    keep_read_tables: true,
                    cache_remote: true,
                    ..Default::default()
                },
                None,
            ),
            (HeuristicConfig { steal_chunks: true, ..Default::default() }, None),
            (HeuristicConfig { batch_reads: true, ..Default::default() }, None),
            (HeuristicConfig { batch_reads: true, ..Default::default() }, budget),
            (HeuristicConfig { hot_shard_k: 2, ..Default::default() }, None),
        ] {
            let cfg =
                EngineConfig { heuristics: heur, memory_budget, ..EngineConfig::new(2, params()) };
            let got = ServeEngine::start(cfg, ServeConfig::default(), dataset(8));
            assert!(
                matches!(got, Err(EngineError::Config(ConfigError::Heuristics(_)))),
                "{} budget {memory_budget:?}: {:?}",
                heur.label(),
                got.err()
            );
        }
        let cfg = EngineConfig::new(2, params());
        assert!(ServeEngine::start(cfg, ServeConfig { queue_depth: 0, max_batch: 1 }, dataset(8))
            .is_err());
    }

    /// Out-of-range corrector parameters fail `start` with a typed
    /// config error, not a panic.
    #[test]
    fn bad_params_are_typed_errors() {
        for bad in
            [ReptileParams { k: 40, ..params() }, ReptileParams { tile_overlap: 6, ..params() }]
        {
            let cfg = EngineConfig::new(2, bad);
            let got = ServeEngine::start(cfg, ServeConfig::default(), dataset(8));
            assert!(
                matches!(got, Err(EngineError::Config(ConfigError::Params(_)))),
                "{:?}",
                got.err()
            );
        }
    }

    /// Dropping the engine without shutdown() must not hang or leak the
    /// rank threads.
    #[test]
    fn drop_without_shutdown_joins() {
        let reads = dataset(20);
        let cfg = EngineConfig::new(2, params());
        let engine = ServeEngine::start(cfg, ServeConfig::default(), reads.clone()).expect("start");
        engine.submit(1, reads[0].clone()).expect("submit");
        drop(engine);
    }
}
