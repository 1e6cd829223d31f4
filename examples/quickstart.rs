//! Quickstart: correct a small synthetic read set three ways and check
//! they agree.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! 1. generate an E.coli-flavoured synthetic dataset (known ground truth);
//! 2. correct it with sequential Reptile (the baseline);
//! 3. correct it with the distributed engine on 8 in-process MPI-like
//!    ranks (the paper's algorithm, spectra distributed by hash owner);
//! 4. assert the outputs are identical and report accuracy.

use genio::dataset::DatasetProfile;
use reptile::{correct_dataset, AccuracyReport, ReptileParams};
use reptile_dist::{Engine, EngineConfig, ThreadedEngine};

fn main() {
    // A 1/2000-scale E.coli-like dataset: ~23 kbp genome, ~4.4 k reads.
    let profile = DatasetProfile::ecoli_like().scaled(2000);
    let dataset = profile.generate(42);
    println!(
        "dataset: {} reads x {} bp, genome {} bp, {:.0}X coverage, {} injected errors",
        dataset.reads.len(),
        profile.read_len,
        dataset.genome.len(),
        dataset.profile.coverage(),
        dataset.errors_injected
    );

    let params = ReptileParams {
        k: 12,
        tile_overlap: 6,
        kmer_threshold: 5,
        tile_threshold: 5,
        ..ReptileParams::default()
    };

    // --- sequential baseline ---
    let (seq_corrected, seq_stats) = correct_dataset(&dataset.reads, &params);
    println!(
        "sequential: corrected {} errors in {} reads",
        seq_stats.errors_corrected, seq_stats.reads_corrected
    );

    // --- distributed (8 ranks, real threads, real messages) ---
    let cfg = EngineConfig::new(8, params);
    let out = ThreadedEngine.run(&cfg, &dataset.reads);
    let remote: u64 = out.report.ranks.iter().map(|r| r.lookups.remote_total()).sum();
    println!(
        "distributed: 8 ranks, {} remote lookups, {} errors corrected",
        remote,
        out.report.errors_corrected()
    );

    assert_eq!(out.corrected, seq_corrected, "distributed output must equal sequential");
    println!("outputs identical across engines ✓");

    // --- accuracy vs ground truth ---
    let report = AccuracyReport::score_dataset(&dataset.reads, &seq_corrected, &dataset.truth);
    println!(
        "accuracy: gain {:.3}, sensitivity {:.3}, specificity {:.6}",
        report.gain(),
        report.sensitivity(),
        report.specificity()
    );
}
