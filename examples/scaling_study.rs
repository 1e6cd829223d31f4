//! Strong-scaling study on the virtual cluster (the paper's Figs 6–8
//! methodology at example scale).
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```
//!
//! Sweeps the rank count from 64 to 4096 (32 ranks/node, BG/Q cost
//! model), with and without static load balancing, and prints the scaling
//! series: modeled construction/correction seconds, communication share,
//! imbalance ratio and parallel efficiency. A second sweep replays the
//! same rank counts from a persisted spectrum snapshot (`load_spectrum`),
//! comparing the modeled snapshot-load time against rebuilding Steps
//! II–III from the reads — the build-once / correct-many mode.

use genio::dataset::DatasetProfile;
use mpisim::Topology;
use reptile::ReptileParams;
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, VirtualEngine};

fn main() {
    let dataset = DatasetProfile::ecoli_like().scaled(1000).generate(3);
    println!(
        "workload: {} reads x 102 bp (E.coli/1000), BG/Q cost model, 32 ranks/node\n",
        dataset.reads.len()
    );
    let params = ReptileParams {
        k: 12,
        tile_overlap: 6,
        kmer_threshold: 5,
        tile_threshold: 5,
        ..ReptileParams::default()
    };

    println!(
        "{:>6} {:>6} {:>12} {:>11} {:>9} {:>11} {:>10}",
        "ranks", "nodes", "construct_s", "correct_s", "comm_pct", "imbalanced", "imb_ratio"
    );
    let mut first: Option<(usize, f64)> = None;
    let mut last: Option<(usize, f64)> = None;
    for np in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let cfg = EngineConfig {
            topology: Topology::new(32),
            ..EngineConfig::virtual_cluster(np, params)
        };
        let balanced = VirtualEngine.run(&cfg, &dataset.reads);
        let imb_cfg = EngineConfig {
            heuristics: HeuristicConfig { load_balance: false, ..Default::default() },
            ..cfg
        };
        let imbalanced = VirtualEngine.run(&imb_cfg, &dataset.reads);

        let total = balanced.report.makespan_secs();
        let comm_max = balanced.report.ranks.iter().map(|r| r.comm_secs).fold(0.0, f64::max);
        let comm_pct = 100.0 * comm_max / balanced.report.correct_secs().max(1e-12);
        println!(
            "{:>6} {:>6} {:>12.2} {:>11.2} {:>8.0}% {:>11.2} {:>10.2}",
            np,
            np / 32,
            balanced.report.construct_secs(),
            balanced.report.correct_secs(),
            comm_pct,
            imbalanced.report.correct_secs(),
            imbalanced.report.imbalance_ratio(),
        );
        if first.is_none() {
            first = Some((np, total));
        }
        last = Some((np, total));
    }
    let (np0, t0) = first.unwrap();
    let (np1, t1) = last.unwrap();
    let efficiency = (t0 * np0 as f64) / (t1 * np1 as f64);
    println!(
        "\nparallel efficiency {np0} → {np1} ranks: {efficiency:.2} \
         (the paper reports 0.81 for E.coli at 8192 ranks)"
    );

    // --- build once, correct many: replay the sweep from a snapshot ---
    let snap = std::env::temp_dir().join(format!("reptile-scaling-snap-{}", std::process::id()));
    let save_cfg = EngineConfig {
        topology: Topology::new(32),
        save_spectrum: Some(snap.clone()),
        ..EngineConfig::virtual_cluster(256, params)
    };
    let saved = VirtualEngine.run(&save_cfg, &dataset.reads);
    println!(
        "\nsnapshot: {} B of pruned spectra persisted at np=256",
        saved.report.snapshot_bytes_written()
    );
    println!("{:>6} {:>12} {:>10} {:>9}", "ranks", "rebuild_s", "load_s", "speedup");
    for np in [64usize, 256, 1024, 4096] {
        let cfg = EngineConfig {
            topology: Topology::new(32),
            ..EngineConfig::virtual_cluster(np, params)
        };
        let rebuilt = VirtualEngine.run(&cfg, &dataset.reads);
        let load_cfg = EngineConfig { load_spectrum: Some(snap.clone()), ..cfg };
        let loaded = VirtualEngine.run(&load_cfg, &dataset.reads);
        assert_eq!(
            loaded.corrected, rebuilt.corrected,
            "snapshot-loaded correction must be bit-identical (np={np})"
        );
        let rebuild_s = rebuilt.report.construct_secs();
        let load_s = loaded.report.construct_secs();
        println!(
            "{:>6} {:>12.2} {:>10.2} {:>8.1}x{}",
            np,
            rebuild_s,
            load_s,
            rebuild_s / load_s.max(1e-12),
            if np == 256 { "  (zero-copy)" } else { "  (re-sharded)" }
        );
    }
    std::fs::remove_dir_all(&snap).ok();
}
