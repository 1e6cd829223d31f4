//! Integration tests for the beyond-paper extensions: partial
//! replication and the k-mer-only baseline, exercised through the
//! public API.

mod support;

use genio::dataset::DatasetProfile;
use reptile::{correct_dataset, AccuracyReport, ReptileParams};
use reptile_dist::{Engine, EngineConfig, ThreadedEngine};

fn dataset(seed: u64) -> genio::dataset::SyntheticDataset {
    DatasetProfile {
        name: "ext".into(),
        genome_len: 6_000,
        read_len: 70,
        n_reads: 2_400,
        base_error_rate: 0.006,
        hotspot_count: 3,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(seed)
}

fn params() -> ReptileParams {
    ReptileParams {
        k: 11,
        tile_overlap: 5,
        kmer_threshold: 4,
        tile_threshold: 3,
        ..ReptileParams::default()
    }
}

/// A slice of the differential matrix in `support`.
#[test]
fn partial_replication_all_engines_agree() {
    support::check_grid(support::Grid::PartialReplication);
}

#[test]
fn partial_replication_reduces_messages_threaded() {
    let ds = dataset(52);
    let p = params();
    let base = ThreadedEngine.run(&EngineConfig::new(6, p), &ds.reads);
    let mut cfg = EngineConfig::new(6, p);
    cfg.heuristics.partial_group = 3;
    let partial = ThreadedEngine.run(&cfg, &ds.reads);
    let remote = |o: &reptile_dist::RunOutput| -> u64 {
        o.report.ranks.iter().map(|r| r.lookups.remote_total()).sum()
    };
    assert!(
        remote(&partial) < remote(&base),
        "groups of 3 of 6 ranks should roughly halve messages: {} vs {}",
        remote(&partial),
        remote(&base)
    );
}

#[test]
fn tile_corrector_beats_kmer_baseline_on_ground_truth() {
    // The tile advantage (§II-A) holds in the paper's coverage regime
    // (47–197X): tiles are sampled once per stride, so at low coverage
    // their counts starve against any threshold and the longer windows
    // lose more candidates than they disambiguate. Use ~70X here.
    let ds = DatasetProfile {
        name: "tiles".into(),
        genome_len: 6_000,
        read_len: 70,
        n_reads: 6_000,
        base_error_rate: 0.006,
        hotspot_count: 3,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(55);
    let p = params();
    let (tiles, _) = correct_dataset(&ds.reads, &p);
    let (kmers, _) = reptile::correct_dataset_kmers_only(&ds.reads, &p);
    let t = AccuracyReport::score_dataset(&ds.reads, &tiles, &ds.truth);
    let k = AccuracyReport::score_dataset(&ds.reads, &kmers, &ds.truth);
    assert!(
        t.gain() > k.gain(),
        "tiles {:.3} must beat k-mers-only {:.3} (§II-A)",
        t.gain(),
        k.gain()
    );
    assert!(t.false_positives < k.false_positives + 50);
}
