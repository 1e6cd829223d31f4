//! Serve-plane integration: the long-lived [`ServeEngine`] admission
//! queue under message faults and a stalled rank.
//!
//! The serve loop's invariant is that no collective runs between
//! startup and shutdown, so a misbehaving rank can slow or degrade the
//! requests *it* serves but can never wedge the shared queue. These
//! tests drive the queue with backpressure-retrying submitters and
//! assert three things: the queue stays bounded, every request
//! completes within a progress deadline (degraded, not hung), and the
//! fault-free slice of the responses is bit-identical to batch mode.

mod support;

use dnaseq::Read;
use genio::dataset::DatasetProfile;
use mpisim::FaultPlan;
use reptile::{LocalSpectra, ReptileParams};
use reptile_dist::snapshot::save_snapshot_serial;
use reptile_dist::{
    Engine, EngineConfig, HeuristicConfig, ServeConfig, ServeEngine, ServeResponse, ThreadedEngine,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

const NP: usize = 4;

fn params() -> ReptileParams {
    ReptileParams {
        k: 10,
        tile_overlap: 5,
        kmer_threshold: 3,
        tile_threshold: 3,
        ..ReptileParams::default()
    }
}

/// `n` reads at `error_rate` over the one genome every read set here
/// samples (same seed and genome length).
fn reads(n: usize, error_rate: f64) -> Vec<Read> {
    DatasetProfile {
        name: "serve-plane".into(),
        genome_len: 2_500,
        read_len: 60,
        n_reads: n,
        base_error_rate: error_rate,
        hotspot_count: 2,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(83)
    .reads
}

fn spectrum_reads() -> Vec<Read> {
    reads(2_000, 0.004)
}

/// Requests drawn over the same genome, numbered from 1.
fn request_reads(n: usize) -> Vec<Read> {
    let mut reads = reads(n, 0.008);
    for (i, r) in reads.iter_mut().enumerate() {
        r.id = i as u64 + 1;
    }
    reads
}

fn snapshot_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("reptile-serve-plane-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reads = spectrum_reads();
    let p = params();
    let built = LocalSpectra::build(&reads, &p);
    save_snapshot_serial(&dir, &p, NP, 0, &built.kmers, &built.tiles).expect("save snapshot");
    dir
}

fn base_config(snapshot: &PathBuf) -> EngineConfig {
    EngineConfig::builder(NP, params())
        .heuristics(HeuristicConfig { aggregate_lookups: true, ..HeuristicConfig::base() })
        .load_spectrum(snapshot)
        .build()
        .expect("serve plane config")
}

/// Reference outputs from batch mode on the same snapshot, by read id.
fn batch_reference(cfg: &EngineConfig, reads: &[Read]) -> HashMap<u64, Read> {
    let clean = EngineConfig { fault: FaultPlan::default(), ..cfg.clone() };
    ThreadedEngine
        .try_run(&clean, reads)
        .expect("clean batch run")
        .corrected
        .into_iter()
        .map(|r| (r.id, r))
        .collect()
}

/// Lossy-but-maskable faults (drop + delay, retries in budget): every
/// response must complete *and* stay bit-identical to batch mode — the
/// retry protocol hides the faults entirely, so the "fault-free slice"
/// is the whole request stream.
#[test]
#[cfg_attr(debug_assertions, ignore = "wait-dominated (fault retries); run in release")]
fn dropped_and_delayed_messages_mask_bit_identically() {
    let dir = snapshot_dir("drop-delay");
    let cfg = EngineConfig {
        fault: FaultPlan::parse("seed=9,drop=0.1,delay=0.05:300us").unwrap(),
        lookup_deadline: Some(Duration::from_millis(5)),
        retry_budget: 12,
        ..base_config(&dir)
    };
    let reads = request_reads(500);
    let reference = batch_reference(&cfg, &reads);

    let serve = ServeConfig { queue_depth: 48, max_batch: 16 };
    let engine = ServeEngine::start(cfg, serve, Vec::new()).expect("engine start");
    let (responses, rejected, max_queue) =
        support::drive(&engine, &reads, serve.queue_depth, Duration::from_secs(30));
    let report = engine.shutdown().expect("shutdown");

    assert!(max_queue <= serve.queue_depth, "queue unbounded: {max_queue}");
    assert!(rejected > 0, "a 48-deep queue fed 500 reads must engage backpressure");
    assert_eq!(responses.len(), reads.len());
    assert_eq!(report.lookups.keys_degraded, 0, "budgeted retries must mask drop/delay fully");
    for r in &responses {
        assert!(!r.degraded);
        assert_eq!(
            Some(&r.read),
            reference.get(&r.read.id),
            "read {} diverged from batch mode under masked faults",
            r.read.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled rank (every 8th send held for 20ms) slows the requests it
/// touches but must neither wedge the queue nor change any output:
/// stalls delay, they do not lose messages, so with no deadline set
/// every lookup still resolves exactly.
#[test]
#[cfg_attr(debug_assertions, ignore = "wait-dominated (rank stalls); run in release")]
fn stalled_rank_slows_but_does_not_wedge_the_queue() {
    let dir = snapshot_dir("stall");
    let cfg = EngineConfig {
        fault: FaultPlan::parse("seed=5,stall=2:8:20ms").unwrap(),
        ..base_config(&dir)
    };
    let reads = request_reads(300);
    let reference = batch_reference(&cfg, &reads);

    let serve = ServeConfig { queue_depth: 32, max_batch: 8 };
    let engine = ServeEngine::start(cfg, serve, Vec::new()).expect("engine start");
    let (responses, _rejected, max_queue) =
        support::drive(&engine, &reads, serve.queue_depth, Duration::from_secs(60));
    let report = engine.shutdown().expect("shutdown");

    assert!(max_queue <= serve.queue_depth, "queue unbounded: {max_queue}");
    assert_eq!(responses.len(), reads.len(), "stall must delay requests, not lose them");
    assert_eq!(report.lookups.keys_degraded, 0);
    for r in &responses {
        assert_eq!(Some(&r.read), reference.get(&r.read.id), "read {} diverged", r.read.id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drops with a *tight* retry budget: some lookups exhaust their
/// retries and degrade to "absent everywhere" (PR semantics: count 0),
/// but every request still completes and the responses whose
/// micro-batches saw no degradation — the fault-free slice — stay
/// bit-identical to batch mode.
///
/// Both "some lookup degrades" and "some request stays clean" are
/// outcomes of the seeded plan, so the parameters are chosen to make
/// each fail with probability below 1e-4, computed from the plan (every
/// message on an edge draws its own drop decision, independent across
/// messages):
///
/// * an attempt survives when its request and its reply both do:
///   `(1 − 0.11)² = 0.7921`; a batch degrades when both attempts of the
///   1-retry budget are lost: `0.2079² = 0.0432`, so it survives with
///   `p = 0.9568`;
/// * `max_batch = 1` makes every read its own micro-batch, so a read is
///   clean when all of its own batches survive. A 60-base read has 10
///   tile windows; its first wave and each of its at most `3 × 10`
///   rounds send at most one batch to each of the 3 other owners: at
///   most 93 batches, clean with probability ≥ `p^93 = 0.0165` (the
///   worst case; a read whose windows are all solid needs no round). No
///   clean read among 600: ≤ `(1 − 0.0165)^600 = e^-9.96 ≈ 5e-5`;
/// * every read's 51 k-mers hash over 4 owners, so it sends at least
///   one batch (all local: `(1/4)^51 < 1e-30`). No degraded key in ≥ 600
///   batches: ≤ `p^600 = e^-26.5 ≈ 3e-12`.
///
/// The deadline only has to outlast a reply that was not dropped; 2 ms
/// (4 ms on the resend) is long next to a millisecond-scale round trip.
#[test]
#[cfg_attr(debug_assertions, ignore = "wait-dominated (deadline misses); run in release")]
fn exhausted_retries_degrade_requests_without_wedging() {
    let dir = snapshot_dir("degrade");
    let cfg = EngineConfig {
        fault: FaultPlan::parse("seed=13,drop=0.11").unwrap(),
        lookup_deadline: Some(Duration::from_millis(2)),
        retry_budget: 1,
        ..base_config(&dir)
    };
    let reads = request_reads(600);
    let reference = batch_reference(&cfg, &reads);

    let serve = ServeConfig { queue_depth: 64, max_batch: 1 };
    let engine = ServeEngine::start(cfg, serve, Vec::new()).expect("engine start");
    let (responses, _rejected, max_queue) =
        support::drive(&engine, &reads, serve.queue_depth, Duration::from_secs(60));
    let report = engine.shutdown().expect("shutdown");

    assert!(max_queue <= serve.queue_depth, "queue unbounded: {max_queue}");
    assert_eq!(responses.len(), reads.len(), "degraded requests must still complete");
    assert!(
        report.lookups.keys_degraded > 0,
        "an 11% drop rate against a 1-retry budget must degrade some lookups"
    );
    let clean: Vec<&ServeResponse> = responses.iter().filter(|r| !r.degraded).collect();
    assert!(!clean.is_empty(), "some micro-batches must dodge the drops entirely");
    for r in clean {
        assert_eq!(
            Some(&r.read),
            reference.get(&r.read.id),
            "fault-free slice: read {} diverged from batch mode",
            r.read.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-free sanity at the integration level (runs in debug too): a
/// snapshot-backed serve engine with a small queue matches the
/// sequential corrector exactly and reports sane accounting — a slice of
/// the differential matrix in `support`.
#[test]
fn fault_free_serve_matches_batch_mode() {
    support::check_grid(support::Grid::Serve);
}
