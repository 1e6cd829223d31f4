//! The out-of-core build contract: with any valid memory budget, the
//! spill/merge build is *bit-identical* to the in-memory build — same
//! corrected reads, same table geometry — across rank counts and both
//! engines; and a corrupted run file fails the build with a typed error
//! instead of ever folding wrong counts into a table.

use mpisim::{FaultPlan, SnapshotChopSpec};
use proptest::prelude::*;
use reptile::ReptileParams;
use reptile_dist::{ooc, EngineConfig, EngineError, HeuristicConfig};
use reptile_dist::{Engine, ThreadedEngine, VirtualEngine};

// k = 8 / overlap 4 puts the k-mers in a direct-count array (16 bits,
// never spills — the finish streams the array into the table) while the
// tiles (24 bits > DIRECT_BITS) buffer and spill: both out-of-core
// finish paths run in every test.
fn params() -> ReptileParams {
    ReptileParams {
        k: 8,
        tile_overlap: 4,
        kmer_threshold: 2,
        tile_threshold: 2,
        ..ReptileParams::default()
    }
}

/// The budget ladder the matrix runs: the validation floor (tight
/// enough to spill on real pools), a mid budget, and effectively
/// unlimited (exercises the ooc plumbing's zero-spill fast path).
fn budgets(p: &ReptileParams) -> [u64; 3] {
    let floor = ooc::min_budget(p);
    [floor, floor + (1 << 20), u64::MAX]
}

fn batched() -> HeuristicConfig {
    HeuristicConfig { batch_reads: true, ..HeuristicConfig::default() }
}

fn cfg_with_budget(np: usize, budget: Option<u64>) -> EngineConfig {
    let mut b = EngineConfig::builder(np, params()).chunk_size(16).heuristics(batched());
    if let Some(bytes) = budget {
        b = b.memory_budget(bytes);
    }
    b.build().expect("valid config")
}

/// Enough distinct sequence content that per-rank spill pressure
/// outgrows the floor budget's trigger and the build really spills:
/// 240 LCG-generated templates × 10 well-covered copies of 60 bp each
/// (the floor trigger sits at a quarter of `MIN_ACC_ROOM`, so the pool
/// must push well past 64 KiB of pending entries per rank).
fn heavy_pool() -> Vec<dnaseq::Read> {
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        rng
    };
    let mut reads = Vec::new();
    let mut id = 1u64;
    for t in 0..240usize {
        let template: Vec<u8> = (0..60).map(|_| b"ACGT"[(next() >> 33) as usize % 4]).collect();
        for c in 0..10usize {
            let mut seq = template.clone();
            let mut qual = vec![32u8; seq.len()];
            // one low-quality mutation per template's first copy
            if c == 0 {
                let pos = (7 * t + 3) % seq.len();
                seq[pos] = match seq[pos] {
                    b'A' => b'C',
                    b'C' => b'G',
                    b'G' => b'T',
                    _ => b'A',
                };
                qual[pos] = 4;
            }
            reads.push(dnaseq::Read::new(id, seq, qual));
            id += 1;
        }
    }
    reads
}

fn read_pool() -> impl Strategy<Value = Vec<dnaseq::Read>> {
    let base = prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 20..35);
    prop::collection::vec((base, 4usize..30, any::<u16>()), 2..5).prop_map(|specs| {
        let mut reads = Vec::new();
        let mut id = 1u64;
        for (template, copies, mutseed) in specs {
            for c in 0..copies {
                let mut seq = template.clone();
                let mut qual = vec![32u8; seq.len()];
                if c == 0 && !seq.is_empty() {
                    let pos = (mutseed as usize) % seq.len();
                    seq[pos] = match seq[pos] {
                        b'A' => b'C',
                        b'C' => b'G',
                        b'G' => b'T',
                        _ => b'A',
                    };
                    qual[pos] = 4;
                }
                reads.push(dnaseq::Read::new(id, seq, qual));
                id += 1;
            }
        }
        reads
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance matrix: budget ∈ {floor, mid, ∞} × np ∈ {1,3,4} ×
    /// both engines must reproduce the unbudgeted build exactly —
    /// corrected reads *and* the per-rank table footprint (the
    /// byte-accurate geometry fingerprint; a merge that dropped, dup'd,
    /// or mis-folded a single key would shift `table_bytes` or the
    /// corrected output).
    #[test]
    fn budgeted_build_bit_identical(reads in read_pool(), np in prop::sample::select(vec![1usize, 3, 4])) {
        let p = params();
        let baseline = ThreadedEngine.run(&cfg_with_budget(np, None), &reads);
        let base_tables: Vec<u64> =
            baseline.report.ranks.iter().map(|r| r.build.table_bytes).collect();
        let vbaseline = VirtualEngine.run(&cfg_with_budget(np, None), &reads);
        for budget in budgets(&p) {
            let out = ThreadedEngine.run(&cfg_with_budget(np, Some(budget)), &reads);
            prop_assert_eq!(&out.corrected, &baseline.corrected, "threaded, budget {}", budget);
            let tables: Vec<u64> = out.report.ranks.iter().map(|r| r.build.table_bytes).collect();
            prop_assert_eq!(&tables, &base_tables, "table geometry, budget {}", budget);
            prop_assert!(out.report.ooc_peak_bytes() <= budget, "peak over budget {}", budget);

            let vout = VirtualEngine.run(&cfg_with_budget(np, Some(budget)), &reads);
            prop_assert_eq!(&vout.corrected, &vbaseline.corrected, "virtual, budget {}", budget);
        }
    }
}

/// Deterministic heavy run at the floor budget: the build must actually
/// spill (otherwise the merge path went untested), stay under budget,
/// and still match the in-memory output bit for bit.
#[test]
fn floor_budget_spills_and_matches() {
    let p = params();
    let reads = heavy_pool();
    let budget = ooc::min_budget(&p);
    for np in [1usize, 3] {
        let baseline = ThreadedEngine.run(&cfg_with_budget(np, None), &reads);
        let out = ThreadedEngine.run(&cfg_with_budget(np, Some(budget)), &reads);
        assert!(out.report.spill_runs() > 0, "np {np}: floor budget never spilled");
        assert!(out.report.spill_bytes() > 0);
        assert!(out.report.ooc_peak_bytes() <= budget, "np {np}: peak over budget");
        assert_eq!(out.corrected, baseline.corrected, "np {np}");
        let base_tables: Vec<u64> =
            baseline.report.ranks.iter().map(|r| r.build.table_bytes).collect();
        let tables: Vec<u64> = out.report.ranks.iter().map(|r| r.build.table_bytes).collect();
        assert_eq!(tables, base_tables, "np {np}: table geometry diverged");
    }
}

/// An unlimited budget must never write a run file — the ooc plumbing's
/// zero-IO fast path is the in-memory finalize verbatim.
#[test]
fn unlimited_budget_never_spills() {
    let out = ThreadedEngine.run(&cfg_with_budget(3, Some(u64::MAX)), &heavy_pool());
    assert_eq!(out.report.spill_runs(), 0);
    assert_eq!(out.report.spill_bytes(), 0);
}

/// The PR-4 `chop=` fault composed with the spill plane: truncating a
/// rank's run file surfaces as a typed spill error — the run's
/// verify-before-serve contract means a damaged file can fail the
/// build but can never leak wrong counts into a table.
#[test]
fn chopped_run_file_is_a_typed_error() {
    let p = params();
    let budget = ooc::min_budget(&p);
    for keep in [0u64, 10, 40] {
        let cfg = EngineConfig::builder(2, p)
            .chunk_size(16)
            .heuristics(batched())
            .memory_budget(budget)
            .fault(FaultPlan {
                snapshot_chop: Some(SnapshotChopSpec { rank: 0, keep_bytes: keep }),
                ..FaultPlan::none()
            })
            .build()
            .expect("valid config");
        match ThreadedEngine.try_run(&cfg, &heavy_pool()) {
            Err(EngineError::Spill(e)) => {
                let msg = e.to_string();
                assert!(!msg.is_empty());
            }
            Err(other) => panic!("keep={keep}: wrong error kind: {other}"),
            Ok(_) => panic!("keep={keep}: chopped run file was accepted"),
        }
    }
}

/// A budget below the geometry floor is a config error, not a doomed
/// run; and a budget without batch_reads is rejected up front.
#[test]
fn budget_validation() {
    let p = params();
    let floor = ooc::min_budget(&p);
    let err = EngineConfig::builder(2, p)
        .heuristics(batched())
        .memory_budget(floor - 1)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("floor"), "got: {err}");

    let err = EngineConfig::builder(2, params()).memory_budget(floor).build().unwrap_err();
    assert!(err.to_string().contains("batch_reads"), "got: {err}");
}
