//! The reproduction's central invariant: sequential Reptile, the threaded
//! distributed engine, and the virtual-cluster engine produce identical
//! corrected reads — on any rank count and under every heuristic.

use genio::dataset::DatasetProfile;
use reptile::{correct_dataset, ReptileParams};
use reptile_dist::engine_virtual::run_virtual;
use reptile_dist::spectrum::BuildStats;
use reptile_dist::{run_distributed, EngineConfig, HeuristicConfig, LookupStats};

fn dataset(seed: u64, both_strands: bool) -> genio::dataset::SyntheticDataset {
    DatasetProfile {
        name: "it".into(),
        genome_len: 6_000,
        read_len: 70,
        n_reads: 2_500,
        base_error_rate: 0.004,
        hotspot_count: 3,
        hotspot_multiplier: 8.0,
        hotspot_fraction: 0.1,
        both_strands,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(seed)
}

fn params(canonical: bool) -> ReptileParams {
    ReptileParams {
        k: 11,
        tile_overlap: 5,
        kmer_threshold: 4,
        tile_threshold: 4,
        canonical,
        ..ReptileParams::default()
    }
}

#[test]
fn threaded_engine_matches_sequential_across_rank_counts() {
    let ds = dataset(1, false);
    let p = params(false);
    let (seq, seq_stats) = correct_dataset(&ds.reads, &p);
    assert!(seq_stats.errors_corrected > 100, "dataset must exercise the corrector");
    for np in [1usize, 2, 5, 8] {
        let out = run_distributed(&EngineConfig::new(np, p), &ds.reads);
        assert_eq!(out.corrected, seq, "np={np}");
    }
}

#[test]
fn virtual_engine_matches_sequential_across_rank_counts() {
    let ds = dataset(2, false);
    let p = params(false);
    let (seq, _) = correct_dataset(&ds.reads, &p);
    for np in [1usize, 3, 64, 1024] {
        let run = run_virtual(&EngineConfig::virtual_cluster(np, p), &ds.reads);
        assert_eq!(run.corrected, seq, "np={np}");
    }
}

#[test]
fn virtual_and_threaded_agree_under_heuristics() {
    let ds = dataset(3, false);
    let p = params(false);
    let (seq, _) = correct_dataset(&ds.reads, &p);
    let matrix = [
        HeuristicConfig::base(),
        HeuristicConfig { universal: true, ..Default::default() },
        HeuristicConfig { keep_read_tables: true, cache_remote: true, ..Default::default() },
        HeuristicConfig::replicate_both(),
        HeuristicConfig::paper_production(),
        HeuristicConfig { load_balance: false, ..Default::default() },
        HeuristicConfig { partial_group: 2, ..Default::default() },
        HeuristicConfig { aggregate_lookups: true, ..Default::default() },
        HeuristicConfig { aggregate_lookups: true, partial_group: 2, ..Default::default() },
    ];
    for heur in matrix {
        let mut mt_cfg = EngineConfig::new(4, p);
        mt_cfg.heuristics = heur;
        mt_cfg.chunk_size = 300;
        let mt = run_distributed(&mt_cfg, &ds.reads);
        let mut v_cfg = EngineConfig::virtual_cluster(4, p);
        v_cfg.heuristics = heur;
        v_cfg.chunk_size = 300;
        let virt = run_virtual(&v_cfg, &ds.reads);
        assert_eq!(mt.corrected, seq, "heur={}", heur.label());
        assert_eq!(virt.corrected, seq, "heur={}", heur.label());
        // one router under both engines: fault-free, each rank routes
        // every lookup the same way, so its counters agree exactly
        for (m, v) in mt.report.ranks.iter().zip(&virt.report.ranks) {
            // excluded: the owner-side serve counts. The threaded comm
            // thread counts the requests it answered; the virtual engine
            // has no per-owner request log and spreads the totals by
            // owned-entry share (`distribute_service_counts`).
            let routed =
                |l: &LookupStats| LookupStats { requests_served: 0, batches_served: 0, ..*l };
            assert_eq!(
                routed(&m.lookups),
                routed(&v.lookups),
                "heur={} rank {}",
                heur.label(),
                m.rank
            );
            // the virtual engine replays the build's occurrence walk, so
            // every construction counter agrees too. Excluded: measured
            // table bytes, wall-clock, and the spill plane (no budget).
            let counters = |b: &BuildStats| BuildStats {
                table_bytes: 0,
                extract_ns: 0,
                exchange_ns: 0,
                overlap_ns: 0,
                merge_ns: 0,
                spill_runs: 0,
                spill_bytes: 0,
                ooc_peak_bytes: 0,
                ..*b
            };
            assert_eq!(
                counters(&m.build),
                counters(&v.build),
                "heur={} rank {}",
                heur.label(),
                m.rank
            );
        }
        if heur.aggregate_lookups {
            // the waves fetch everything the walk asks for: fault-free,
            // no lookup falls back to a single-key round trip
            for run in [&mt, &virt] {
                assert_eq!(run.report.remote_lookups(), 0, "heur={}", heur.label());
                assert!(run.report.ranks.iter().all(|r| r.lookups.batches_sent > 0));
            }
        }
    }
}

#[test]
fn canonical_mode_agrees_on_double_stranded_data() {
    let ds = dataset(4, true);
    let p = params(true);
    let (seq, stats) = correct_dataset(&ds.reads, &p);
    assert!(stats.errors_corrected > 50, "canonical spectra must still correct");
    let out = run_distributed(&EngineConfig::new(6, p), &ds.reads);
    assert_eq!(out.corrected, seq);
    let virt = run_virtual(&EngineConfig::virtual_cluster(37, p), &ds.reads);
    assert_eq!(virt.corrected, seq);
}

#[test]
fn correction_statistics_agree_across_engines() {
    let ds = dataset(5, false);
    let p = params(false);
    let (_, seq_stats) = correct_dataset(&ds.reads, &p);
    let mt = run_distributed(&EngineConfig::new(4, p), &ds.reads);
    let virt = run_virtual(&EngineConfig::virtual_cluster(4, p), &ds.reads);
    assert_eq!(mt.report.errors_corrected(), seq_stats.errors_corrected);
    assert_eq!(virt.report.errors_corrected(), seq_stats.errors_corrected);
    let mt_reads: u64 = mt.report.ranks.iter().map(|r| r.reads_processed).sum();
    assert_eq!(mt_reads, ds.reads.len() as u64);
}

#[test]
fn distributed_correction_is_idempotent() {
    let ds = dataset(6, false);
    let p = params(false);
    let cfg = EngineConfig::new(4, p);
    let once = run_distributed(&cfg, &ds.reads);
    let twice = run_distributed(&cfg, &once.corrected);
    let thrice = run_distributed(&cfg, &twice.corrected);
    // Repeated passes legitimately correct a little more (removing errors
    // sharpens the spectra), but the process must converge: each pass
    // changes no more reads than the previous one, and the volume is a
    // small fraction of the dataset.
    let diff = |a: &[dnaseq::Read], b: &[dnaseq::Read]| {
        a.iter().zip(b).filter(|(x, y)| x.seq != y.seq).count()
    };
    let d12 = diff(&twice.corrected, &once.corrected);
    let d23 = diff(&thrice.corrected, &twice.corrected);
    assert!(d12 * 10 <= ds.reads.len(), "second pass changed {d12} of {} reads", ds.reads.len());
    assert!(d23 <= d12, "passes must converge: {d12} then {d23}");
}
