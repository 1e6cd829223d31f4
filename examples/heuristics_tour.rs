//! Tour of the paper's execution-mode heuristics (§III-B).
//!
//! ```text
//! cargo run --release --example heuristics_tour
//! ```
//!
//! Runs the same dataset through every heuristic combination the paper
//! evaluates in Fig 5 — on the *threaded* engine (real messages between 8
//! ranks) — and prints what each mode trades: remote lookups vs resident
//! table entries vs collective rounds. Output correctness is asserted
//! against the sequential baseline for every mode.

use genio::dataset::DatasetProfile;
use reptile::{correct_dataset, ReptileParams};
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, ThreadedEngine};

fn main() {
    let dataset = DatasetProfile::ecoli_like().scaled(4000).generate(11);
    let params = ReptileParams {
        k: 12,
        tile_overlap: 6,
        kmer_threshold: 5,
        tile_threshold: 5,
        ..ReptileParams::default()
    };
    let (baseline, _) = correct_dataset(&dataset.reads, &params);

    let modes: Vec<HeuristicConfig> = vec![
        HeuristicConfig::base(),
        HeuristicConfig { universal: true, ..Default::default() },
        HeuristicConfig { keep_read_tables: true, ..Default::default() },
        HeuristicConfig { keep_read_tables: true, cache_remote: true, ..Default::default() },
        HeuristicConfig { replicate_kmers: true, ..Default::default() },
        HeuristicConfig { replicate_tiles: true, ..Default::default() },
        HeuristicConfig::replicate_both(),
        HeuristicConfig { batch_reads: true, ..Default::default() },
        HeuristicConfig::paper_production(),
        HeuristicConfig { load_balance: false, ..Default::default() },
    ];

    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "mode", "remoteK", "remoteT", "served", "mem_MiB", "batches"
    );
    for heur in modes {
        let cfg = EngineConfig {
            np: 8,
            chunk_size: 250,
            params,
            heuristics: heur,
            ..EngineConfig::new(8, params)
        };
        let out = ThreadedEngine.run(&cfg, &dataset.reads);
        assert_eq!(out.corrected, baseline, "mode {} altered the output", heur.label());
        let rk: u64 = out.report.ranks.iter().map(|r| r.lookups.remote_kmer_lookups).sum();
        let rt: u64 = out.report.ranks.iter().map(|r| r.lookups.remote_tile_lookups).sum();
        let served: u64 = out.report.ranks.iter().map(|r| r.lookups.requests_served).sum();
        let mem = out.report.peak_memory_bytes() / (1024.0 * 1024.0);
        let batches = out.report.ranks.iter().map(|r| r.build.batches).max().unwrap_or(0);
        println!(
            "{:<28} {:>9} {:>9} {:>9} {:>10.1} {:>8}",
            heur.label(),
            rk,
            rt,
            served,
            mem,
            batches
        );
    }
    println!("\nall modes produced output identical to sequential Reptile ✓");
}
