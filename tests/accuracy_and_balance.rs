//! End-to-end behavioural tests: correction accuracy against ground
//! truth, and the load-imbalance phenomenon + its static-balancing fix
//! (the paper's §III-A / Fig 4 at test scale).

use genio::dataset::DatasetProfile;
use reptile::{correct_dataset, AccuracyReport, ReptileParams};
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, VirtualEngine};

fn well_covered_dataset(seed: u64) -> genio::dataset::SyntheticDataset {
    DatasetProfile {
        name: "acc".into(),
        genome_len: 8_000,
        read_len: 80,
        n_reads: 6_000, // 60X coverage
        base_error_rate: 0.004,
        hotspot_count: 4,
        hotspot_multiplier: 10.0,
        hotspot_fraction: 0.12,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(seed)
}

fn params() -> ReptileParams {
    ReptileParams {
        k: 12,
        tile_overlap: 6,
        kmer_threshold: 5,
        tile_threshold: 5,
        ..ReptileParams::default()
    }
}

#[test]
fn corrector_achieves_positive_gain() {
    let ds = well_covered_dataset(31);
    let (corrected, stats) = correct_dataset(&ds.reads, &params());
    let report = AccuracyReport::score_dataset(&ds.reads, &corrected, &ds.truth);
    assert!(stats.errors_corrected > 500, "corrected {}", stats.errors_corrected);
    assert!(
        report.gain() > 0.35,
        "gain {:.3} (TP {}, FP {}, FN {})",
        report.gain(),
        report.true_positives,
        report.false_positives,
        report.false_negatives
    );
    assert!(report.sensitivity() > 0.35, "sensitivity {:.3}", report.sensitivity());
    assert!(
        report.specificity() > 0.9995,
        "must not corrupt correct bases: {:.6}",
        report.specificity()
    );
}

#[test]
fn stricter_quality_threshold_reduces_false_positives() {
    let ds = well_covered_dataset(32);
    let lenient = ReptileParams { q_threshold: 30, ..params() };
    let strict = ReptileParams { q_threshold: 12, relax_quality: false, ..params() };
    let (c_len, _) = correct_dataset(&ds.reads, &lenient);
    let (c_str, _) = correct_dataset(&ds.reads, &strict);
    let r_len = AccuracyReport::score_dataset(&ds.reads, &c_len, &ds.truth);
    let r_str = AccuracyReport::score_dataset(&ds.reads, &c_str, &ds.truth);
    // strict mode attempts fewer positions → fewer FPs, fewer TPs
    assert!(r_str.false_positives <= r_len.false_positives);
    assert!(r_str.true_positives <= r_len.true_positives);
}

#[test]
fn hotspots_cause_imbalance_and_balancing_fixes_it() {
    let ds = well_covered_dataset(33);
    let p = params();
    let np = 64;
    let imb_cfg = EngineConfig {
        heuristics: HeuristicConfig { load_balance: false, ..Default::default() },
        ..EngineConfig::virtual_cluster(np, p)
    };
    let bal_cfg = EngineConfig::virtual_cluster(np, p);
    let imb = VirtualEngine.run(&imb_cfg, &ds.reads);
    let bal = VirtualEngine.run(&bal_cfg, &ds.reads);
    // identical corrections, different schedules
    assert_eq!(imb.corrected, bal.corrected);
    let imb_ratio = imb.report.imbalance_ratio();
    let bal_ratio = bal.report.imbalance_ratio();
    assert!(
        imb_ratio > bal_ratio,
        "hotspot clustering must show up as imbalance: {imb_ratio:.2} vs {bal_ratio:.2}"
    );
    // the paper's headline: balancing cuts the makespan (Fig 4: ~2x)
    assert!(
        bal.report.correct_secs() < imb.report.correct_secs(),
        "balanced {:.3}s vs imbalanced {:.3}s",
        bal.report.correct_secs(),
        imb.report.correct_secs()
    );
    // per-rank errors corrected: spread shrinks with balancing
    let spread = |r: &reptile_dist::RunReport| {
        let errs: Vec<u64> = r.ranks.iter().map(|x| x.correction.errors_corrected).collect();
        (*errs.iter().max().unwrap() as f64) / (*errs.iter().min().unwrap() as f64).max(1.0)
    };
    assert!(spread(&bal.report) < spread(&imb.report));
}

#[test]
fn remote_tile_misses_dominate_comm_traffic() {
    // The paper observes most communication time is tile lookups,
    // especially for tiles absent from the spectrum (error tiles).
    let ds = well_covered_dataset(34);
    let run = VirtualEngine.run(&EngineConfig::virtual_cluster(32, params()), &ds.reads);
    let rk: u64 = run.report.ranks.iter().map(|r| r.lookups.remote_kmer_lookups).sum();
    let rt: u64 = run.report.ranks.iter().map(|r| r.lookups.remote_tile_lookups).sum();
    let tile_misses: u64 = run.report.ranks.iter().map(|r| r.lookups.remote_tile_misses).sum();
    assert!(rt > rk, "tile lookups ({rt}) should outnumber k-mer lookups ({rk})");
    assert!(tile_misses > 0, "error tiles must miss the spectrum");
    assert!(
        tile_misses * 2 > rt,
        "most remote tile lookups are for absent tiles: {tile_misses}/{rt}"
    );
}

#[test]
fn memory_footprint_shrinks_with_rank_count() {
    // §V: "as the number of nodes is increased, the number of k-mers and
    // tiles per rank also decreases", e.g. <50 MB/rank for E.coli at 256
    // nodes.
    let ds = well_covered_dataset(35);
    let p = params();
    let mem_at = |np: usize| {
        VirtualEngine
            .run(&EngineConfig::virtual_cluster(np, p), &ds.reads)
            .report
            .peak_memory_bytes()
    };
    let m16 = mem_at(16);
    let m256 = mem_at(256);
    assert!(m256 < m16, "per-rank memory must shrink: {m16} -> {m256}");
}
