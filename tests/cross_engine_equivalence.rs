//! The reproduction's central invariant: sequential Reptile, the threaded
//! distributed engine, and the virtual-cluster engine produce identical
//! corrected reads — on any rank count and under every heuristic. Each
//! grid below is a slice of the one differential matrix in `support`.

mod support;

use genio::dataset::DatasetProfile;
use reptile::ReptileParams;
use reptile_dist::{Engine, EngineConfig, ThreadedEngine};
use support::{check_grid, Grid};

#[test]
fn threaded_engine_matches_sequential_across_rank_counts() {
    check_grid(Grid::ThreadedNp);
}

#[test]
fn virtual_engine_matches_sequential_across_rank_counts() {
    check_grid(Grid::VirtualNp);
}

/// Adds the two-engine columns: per-rank `LookupStats` and `BuildStats`
/// equality, and no single-key fallback in aggregate mode.
#[test]
fn virtual_and_threaded_agree_under_heuristics() {
    check_grid(Grid::Heuristics);
}

#[test]
fn canonical_mode_agrees_on_double_stranded_data() {
    check_grid(Grid::Canonical);
}

#[test]
fn correction_statistics_agree_across_engines() {
    check_grid(Grid::Statistics);
}

#[test]
fn distributed_correction_is_idempotent() {
    let reads = DatasetProfile {
        name: "it".into(),
        genome_len: 6_000,
        read_len: 70,
        n_reads: 2_500,
        base_error_rate: 0.004,
        hotspot_count: 3,
        hotspot_multiplier: 8.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(6)
    .reads;
    let p = ReptileParams {
        k: 11,
        tile_overlap: 5,
        kmer_threshold: 4,
        tile_threshold: 4,
        ..ReptileParams::default()
    };
    let cfg = EngineConfig::new(4, p);
    let once = ThreadedEngine.run(&cfg, &reads);
    let twice = ThreadedEngine.run(&cfg, &once.corrected);
    let thrice = ThreadedEngine.run(&cfg, &twice.corrected);
    // Repeated passes legitimately correct a little more (removing errors
    // sharpens the spectra), but the process must converge: each pass
    // changes no more reads than the previous one, and the volume is a
    // small fraction of the dataset.
    let diff = |a: &[dnaseq::Read], b: &[dnaseq::Read]| {
        a.iter().zip(b).filter(|(x, y)| x.seq != y.seq).count()
    };
    let d12 = diff(&twice.corrected, &once.corrected);
    let d23 = diff(&thrice.corrected, &twice.corrected);
    assert!(d12 * 10 <= reads.len(), "second pass changed {d12} of {} reads", reads.len());
    assert!(d23 <= d12, "passes must converge: {d12} then {d23}");
}
