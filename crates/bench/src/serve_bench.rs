//! Open-loop serve benchmarks: the long-lived correction service under
//! YCSB-style offered load.
//!
//! Three measurements, one snapshot:
//!
//! 1. **Per-job batch loop** (the old serve mode): every job re-enters
//!    `try_run_distributed` — universe spawn, snapshot load, shuffle,
//!    barriers — per job. This is the baseline the persistent engine
//!    must beat.
//! 2. **Closed-loop serve**: the same jobs stream through one
//!    [`ServeEngine`] as fast as backpressure allows. The sustained
//!    rate is the service's *capacity* `C`, and the ratio against the
//!    batch loop is the headline speedup.
//! 3. **Open-loop sweep**: Poisson arrivals from
//!    [`genio::OpenLoopGen`] at several fractions of `C`, including a
//!    point past saturation, so the latency distribution shows the
//!    queueing knee and the overload point shows backpressure engaging
//!    (rejections > 0) instead of unbounded queue growth.
//!
//! The request stream is a 75/25 mix of two read lengths drawn from the
//! same genome the spectrum was built on (one snapshot serves both),
//! which is what a correction service sees: one reference spectrum,
//! heterogeneous incoming read batches. `figures -- bench-json` writes
//! the record to `BENCH_serve.json` and gates it with the `serve-floor`
//! rows.

use crate::{group, scratch_dir, Metrics};
use dnaseq::Read;
use genio::dataset::DatasetProfile;
use genio::{MixComponent, OpenLoopGen, RequestMix};
use reptile::{LocalSpectra, ReptileParams};
use reptile_dist::snapshot::save_snapshot_serial;
use reptile_dist::{
    try_run_distributed, EngineConfig, HeuristicConfig, ServeConfig, ServeEngine, ServeResponse,
    SubmitError,
};
use std::time::{Duration, Instant};

/// Rank count for every serve measurement (large enough that most
/// lookups are remote, small enough that worker threads do not thrash a
/// CI box).
pub const NP: usize = 4;

/// Deterministic seed for the serve workload (genome + schedules).
pub const SEED: u64 = 0x5EED_5E12;

/// One offered-load point of the open-loop sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadPoint {
    /// Offered load as a fraction of the calibrated capacity.
    pub fraction: f64,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Requests the generator submitted (accepted + rejected).
    pub submitted: u64,
    /// Requests admitted and corrected.
    pub completed: u64,
    /// Submissions rejected with backpressure (open-loop: dropped).
    pub rejected: u64,
    /// Sustained completion rate, requests/second.
    pub achieved_rps: f64,
    /// Mean micro-batch size at this load (adaptive batching outcome).
    pub mean_batch: f64,
    /// Queue+service latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
    /// Largest admission-queue depth the generator observed.
    pub max_queue: usize,
}

/// The full benchmark result; [`ServeBenchReport::metrics`] is its record.
#[derive(Clone, Debug, Default)]
pub struct ServeBenchReport {
    /// Ranks in the service.
    pub np: usize,
    /// Reads the spectrum was built from.
    pub spectrum_reads: usize,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Jobs in the batch-loop baseline (and the closed-loop replay).
    pub jobs: usize,
    /// Reads per job.
    pub job_reads: usize,
    /// Wall time of the per-job batch loop, seconds.
    pub batch_secs: f64,
    /// Wall time of the same jobs through the persistent engine.
    pub serve_secs: f64,
    /// Calibrated capacity: requests/second sustained by a saturating
    /// closed-loop burst, the median of three equal bursts (the sweep's
    /// fractions are relative to this).
    pub capacity_rps: f64,
    /// serve vs batch-loop speedup on identical jobs.
    pub speedup: f64,
    /// The open-loop sweep, ascending offered load.
    pub points: Vec<LoadPoint>,
    /// Total requests submitted across the whole benchmark.
    pub total_requests: u64,
}

impl ServeBenchReport {
    /// Rejections at the highest offered load (the backpressure-engages
    /// assertion: past saturation an open-loop source must see drops).
    pub fn overload_rejected(&self) -> u64 {
        self.points.last().map(|p| p.rejected).unwrap_or(0)
    }

    /// The `BENCH_serve.json` record. Each sweep point is named by its
    /// fraction of capacity (`open_loop.0.50.p99_ms`); `floors.mid_p99_ms`
    /// is the middle point's p99, below saturation, so the CI ceiling on
    /// it is a service-time statement, not a queue-depth one.
    pub fn metrics(&self) -> Metrics {
        let mid_p99 = self.points.get(self.points.len() / 2).map_or(f64::NAN, |p| p.p99_ms);
        let mut m = [
            group(
                "workload",
                &[
                    ("np", self.np as f64),
                    ("spectrum_reads", self.spectrum_reads as f64),
                    ("snapshot_bytes", self.snapshot_bytes as f64),
                    ("jobs", self.jobs as f64),
                    ("job_reads", self.job_reads as f64),
                ],
            ),
            group(
                "closed_loop",
                &[
                    ("batch_secs", self.batch_secs),
                    ("serve_secs", self.serve_secs),
                    ("capacity_rps", self.capacity_rps),
                    ("speedup_vs_batch", self.speedup),
                ],
            ),
        ]
        .concat();
        for p in &self.points {
            m.extend(group(
                &format!("open_loop.{:.2}", p.fraction),
                &[
                    ("offered_rps", p.offered_rps),
                    ("submitted", p.submitted as f64),
                    ("completed", p.completed as f64),
                    ("rejected", p.rejected as f64),
                    ("achieved_rps", p.achieved_rps),
                    ("mean_batch", p.mean_batch),
                    ("p50_ms", p.p50_ms),
                    ("p95_ms", p.p95_ms),
                    ("p99_ms", p.p99_ms),
                    ("p999_ms", p.p999_ms),
                    ("max_queue", p.max_queue as f64),
                ],
            ));
        }
        m.extend(group(
            "floors",
            &[
                ("requests_total", self.total_requests as f64),
                ("mid_p99_ms", mid_p99),
                ("overload_rejected", self.overload_rejected() as f64),
            ],
        ));
        m
    }
}

fn params() -> ReptileParams {
    ReptileParams {
        k: 12,
        tile_overlap: 6,
        kmer_threshold: 4,
        tile_threshold: 3,
        ..ReptileParams::for_tests()
    }
}

/// The service's reference spectrum: deep 60 bp coverage of the genome.
fn spectrum_profile(n_reads: usize, genome_len: usize) -> DatasetProfile {
    DatasetProfile {
        name: "serve-spectrum".into(),
        genome_len,
        read_len: 60,
        n_reads,
        base_error_rate: 0.003,
        hotspot_count: 2,
        hotspot_multiplier: 4.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
}

/// A request pool over the *same genome* (same seed + genome length →
/// identical genome draw) with its own read length and error rate.
fn request_pool(n_reads: usize, genome_len: usize, read_len: usize, err: f64) -> Vec<Read> {
    DatasetProfile { read_len, n_reads, base_error_rate: err, ..spectrum_profile(0, genome_len) }
        .generate(SEED)
        .reads
}

/// The serve request mix: 75% short reads at the spectrum's error rate,
/// 25% longer reads at a higher one.
fn request_mix(genome_len: usize, pool_reads: usize) -> RequestMix {
    RequestMix::new(vec![
        MixComponent { weight: 3.0, reads: request_pool(pool_reads, genome_len, 60, 0.003) },
        MixComponent { weight: 1.0, reads: request_pool(pool_reads / 2, genome_len, 100, 0.008) },
    ])
}

fn engine_config(snapshot: &std::path::Path) -> EngineConfig {
    // The service operating point: tiles (the hot, neighbour-exploded
    // spectrum) replicated at startup — memory for throughput, paid
    // once by the persistent engine but per *job* by the batch loop —
    // while k-mer lookups stay owner-sharded and ride the aggregated
    // (micro-batched) Step IV round trips.
    let h = HeuristicConfig {
        aggregate_lookups: true,
        replicate_tiles: true,
        ..HeuristicConfig::base()
    };
    EngineConfig::builder(NP, params())
        .heuristics(h)
        .load_spectrum(snapshot)
        .build()
        .expect("serve bench engine config")
}

/// Draw `jobs × job_reads` requests from the mix and re-id them so every
/// read in a job is unique (batch mode dedups output by id).
fn draw_jobs(mix: &RequestMix, jobs: usize, job_reads: usize) -> Vec<Vec<Read>> {
    let mut gen = OpenLoopGen::new(mix.clone(), 1.0, SEED ^ 0x10B5);
    (0..jobs)
        .map(|_| {
            gen.generate(job_reads)
                .into_iter()
                .enumerate()
                .map(|(i, a)| Read { id: i as u64 + 1, ..a.read })
                .collect()
        })
        .collect()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Submit every read of `job` (retrying on backpressure), drain until
/// all of them complete, and return the responses sorted by read id.
fn serve_one_job(engine: &ServeEngine, job: &[Read]) -> Vec<ServeResponse> {
    let n = job.len();
    let mut responses: Vec<ServeResponse> = Vec::with_capacity(n);
    for read in job {
        let mut pending = read.clone();
        loop {
            match engine.submit(pending.id, pending) {
                Ok(()) => break,
                Err(SubmitError::Backpressure { read, retry_after, .. }) => {
                    responses.append(&mut engine.drain());
                    // The hint is how long one worker takes over a quarter
                    // of the queue, and all `NP` workers drain at once: a
                    // client that slept that long would find the queue
                    // empty and the burst would measure the client, not
                    // the engine. Poll sooner.
                    std::thread::sleep(retry_after.min(Duration::from_micros(200)));
                    pending = read;
                }
                Err(SubmitError::Closed(_)) => panic!("serve engine closed mid-benchmark"),
            }
        }
    }
    while responses.len() < n {
        responses.append(&mut engine.drain());
        if responses.len() < n {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    responses.sort_unstable_by_key(|r| r.read.id);
    responses
}

/// One open-loop point: submit `n` Poisson arrivals at `rate` req/s
/// (bursts are released on schedule, never paced per request), dropping
/// rejected submissions the way an open-loop source does, and collect
/// latency for every completion.
fn open_loop_point(
    engine: &ServeEngine,
    mix: &RequestMix,
    rate: f64,
    fraction: f64,
    n: u64,
    seed: u64,
) -> LoadPoint {
    let mut gen = OpenLoopGen::new(mix.clone(), rate, seed);
    let mut responses: Vec<ServeResponse> = Vec::with_capacity(n as usize);
    let mut rejected = 0u64;
    let mut accepted = 0u64;
    let mut max_queue = 0usize;
    let start = Instant::now();
    let mut next = gen.next_arrival();
    let mut submitted = 0u64;
    while submitted < n {
        let now = start.elapsed().as_secs_f64();
        // release everything the schedule says has arrived by `now`
        while submitted < n && next.at_secs <= now {
            submitted += 1;
            let read = Read { id: submitted, ..next.read.clone() };
            match engine.submit(next.trace_id, read) {
                Ok(()) => accepted += 1,
                Err(SubmitError::Backpressure { queue_len, .. }) => {
                    // open-loop: the request is lost, the source does
                    // not slow down
                    rejected += 1;
                    max_queue = max_queue.max(queue_len);
                }
                Err(SubmitError::Closed(_)) => panic!("serve engine closed mid-benchmark"),
            }
            next = gen.next_arrival();
        }
        max_queue = max_queue.max(engine.queue_len());
        responses.append(&mut engine.drain());
        let wait = (next.at_secs - start.elapsed().as_secs_f64()).max(0.0);
        if wait > 100e-6 {
            std::thread::sleep(Duration::from_secs_f64(wait.min(0.001)));
        }
    }
    while responses.len() < accepted as usize {
        responses.append(&mut engine.drain());
        if responses.len() < accepted as usize {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut lat_ms: Vec<f64> =
        responses.iter().map(|r| (r.queue + r.service).as_secs_f64() * 1e3).collect();
    lat_ms.sort_by(|a, b| a.total_cmp(b));
    let batches: u64 = {
        // mean batch over this point's responses (each response carries
        // the size of the batch it rode in)
        let sum: u64 = responses.iter().map(|r| r.batch_len as u64).sum();
        if responses.is_empty() {
            0
        } else {
            sum / responses.len() as u64
        }
    };
    LoadPoint {
        fraction,
        offered_rps: rate,
        submitted,
        completed: responses.len() as u64,
        rejected,
        achieved_rps: responses.len() as f64 / elapsed.max(1e-9),
        mean_batch: batches as f64,
        p50_ms: percentile(&lat_ms, 50.0),
        p95_ms: percentile(&lat_ms, 95.0),
        p99_ms: percentile(&lat_ms, 99.0),
        p999_ms: percentile(&lat_ms, 99.9),
        max_queue,
    }
}

/// Run the full benchmark.
///
/// `open_loop_requests` is the total submissions across the sweep
/// (`bench-json` uses ≥ 1M; the in-crate test a few thousand); `jobs ×
/// job_reads` sizes the batch-loop comparison.
pub fn run(open_loop_requests: u64, jobs: usize, job_reads: usize) -> ServeBenchReport {
    // A serve deployment fronts a *large* reference spectrum (the
    // paper's datasets run 0.9–158 GB); the per-job batch loop pays the
    // snapshot load for every job, the persistent engine once.
    let spectrum_reads = 80_000;
    let genome_len = 250_000;
    let p = params();

    // --- one spectrum, persisted once ---
    let spectrum = spectrum_profile(spectrum_reads, genome_len).generate(SEED).reads;
    let built = LocalSpectra::build(&spectrum, &p);
    let dir = scratch_dir("serve-bench");
    let per_rank =
        save_snapshot_serial(&dir, &p, NP, 0, &built.kmers, &built.tiles).expect("save snapshot");
    let snapshot_bytes: u64 = per_rank.iter().sum();
    let cfg = engine_config(&dir);
    let mix = request_mix(genome_len, 3_000);
    let job_sets = draw_jobs(&mix, jobs, job_reads);

    // --- baseline: the per-job batch loop (snapshot reloaded per job) ---
    let t = Instant::now();
    let batch_outputs: Vec<Vec<Read>> = job_sets
        .iter()
        .map(|job| try_run_distributed(&cfg, job).expect("batch-loop job").corrected)
        .collect();
    let batch_secs = t.elapsed().as_secs_f64();

    // --- persistent engine: same jobs, closed loop ---
    // Queue depth scales with the request budget so the overload point
    // fills the queue well within its run at any benchmark size.
    let queue_depth = (open_loop_requests / 32).clamp(256, 2_048) as usize;
    let engine =
        ServeEngine::start(cfg.clone(), ServeConfig { queue_depth, max_batch: 512 }, Vec::new())
            .expect("serve engine start");
    let t = Instant::now();
    let mut serve_outputs: Vec<Vec<Read>> = Vec::with_capacity(jobs);
    for job in &job_sets {
        serve_outputs.push(serve_one_job(&engine, job).into_iter().map(|r| r.read).collect());
    }
    let serve_secs = t.elapsed().as_secs_f64();
    for (batch, serve) in batch_outputs.iter().zip(&serve_outputs) {
        assert_eq!(batch, serve, "serve output must be bit-identical to batch mode");
    }
    let total_jobs_requests = (jobs * job_reads) as u64;
    let speedup = batch_secs / serve_secs.max(1e-9);

    // --- saturation burst: calibrate the true capacity for the sweep.
    // Job replay serializes at job boundaries (submit, drain, next), so
    // its rate underestimates what a continuously-fed queue sustains;
    // the sweep fractions must be relative to the latter or the
    // "overload" point would not actually overload. One burst is one
    // sample of a noisy rate on a shared host, and every sweep point
    // scales with it, so the capacity is the median of three equal
    // bursts.
    const BURSTS: usize = 3;
    let burst_n = (open_loop_requests / 4).clamp(2_000, 40_000) as usize;
    let burst: Vec<Read> = OpenLoopGen::new(mix.clone(), 1.0, SEED ^ 0xCA11)
        .generate(burst_n)
        .into_iter()
        .enumerate()
        .map(|(i, a)| Read { id: i as u64 + 1, ..a.read })
        .collect();
    let mut burst_rps: Vec<f64> = (0..BURSTS)
        .map(|_| {
            let t = Instant::now();
            let served = serve_one_job(&engine, &burst);
            let burst_secs = t.elapsed().as_secs_f64();
            assert_eq!(served.len(), burst_n);
            burst_n as f64 / burst_secs.max(1e-9)
        })
        .collect();
    burst_rps.sort_by(f64::total_cmp);
    let capacity_rps = burst_rps[BURSTS / 2];

    // --- open-loop sweep on the same warm engine ---
    // Below-saturation points run in ≈ n/rate wall seconds, so the
    // overload point carries the bulk of the request budget.
    let fractions = [0.5, 0.8, 1.5];
    let shares = [0.2, 0.3, 0.5];
    let mut points = Vec::new();
    for (i, (&f, &share)) in fractions.iter().zip(&shares).enumerate() {
        let n = ((open_loop_requests as f64) * share).ceil() as u64;
        points.push(open_loop_point(&engine, &mix, f * capacity_rps, f, n, SEED + i as u64));
    }
    let report = engine.shutdown().expect("serve engine shutdown");
    assert_eq!(report.lookups.keys_degraded, 0, "no faults injected, nothing may degrade");
    let _ = std::fs::remove_dir_all(&dir);

    let total_requests = total_jobs_requests
        + (BURSTS * burst_n) as u64
        + points.iter().map(|p| p.submitted).sum::<u64>();
    ServeBenchReport {
        np: NP,
        spectrum_reads,
        snapshot_bytes,
        jobs,
        job_reads,
        batch_secs,
        serve_secs,
        capacity_rps,
        speedup,
        points,
        total_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance shape on a small budget: the persistent engine
    /// beats the per-job batch loop, the overload point engages
    /// backpressure, and latency percentiles are ordered. Wait-heavy
    /// (spawns real rank threads and paces a Poisson schedule), so it
    /// only runs in release.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wait-heavy serve benchmark: run with --release")]
    fn serve_beats_batch_loop_and_backpressure_engages() {
        let r = run(9_000, 6, 150);
        eprintln!("serve bench:\n{}", crate::render_json(&r.metrics()));
        assert!(
            r.speedup > 1.0,
            "persistent serve ({:.3}s) must beat the per-job batch loop ({:.3}s)",
            r.serve_secs,
            r.batch_secs
        );
        assert!(r.capacity_rps > 0.0);
        assert_eq!(r.points.len(), 3);
        for p in &r.points {
            assert!(p.completed > 0);
            assert!(p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms && p.p99_ms <= p.p999_ms);
        }
        assert!(
            r.overload_rejected() > 0,
            "1.5x capacity must trip backpressure (rejected = {})",
            r.overload_rejected()
        );
        assert!(r.total_requests >= 9_000);
    }
}
