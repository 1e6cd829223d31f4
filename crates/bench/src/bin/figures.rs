//! Regenerate the paper's tables and figures, or measure the floors.
//!
//! ```text
//! cargo run -p reptile-bench --release --bin figures -- all
//! cargo run -p reptile-bench --release --bin figures -- table1 fig4 fig6
//! cargo run -p reptile-bench --release --bin figures -- bench-json
//! ```
//!
//! Output: the same rows/series the paper reports, with modeled BG/Q
//! times extrapolated to paper scale (see DESIGN.md §6; absolute numbers
//! are calibrated loosely, shapes are the claim). `bench-json` is not
//! part of `all`: it runs the measured benches, writes their
//! `BENCH_*.json` records to the working directory, checks every floor
//! row against them and exits 1 naming each row that failed.

use reptile::ReptileParams;
use reptile_bench::figures::*;
use reptile_bench::workloads::*;
use reptile_bench::{check_floors, render_json, BENCHES};

/// A paper table or figure: its item name and how to render it.
type Figure = (&'static str, fn(ReptileParams) -> String);

/// Every paper table and figure, in the order `all` prints them.
const FIGURES: &[Figure] = &[
    ("table1", |_| table1()),
    ("fig2", |p| render_fig2(&fig2(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("fig3", |p| render_fig3(&fig3(&ecoli_scaled(), p))),
    ("fig4", |p| render_fig4(&fig4(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("fig5", |p| render_fig5(&fig5(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("fig6", |p| render_scaling(&fig6(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("fig7", |p| render_scaling(&fig7(&drosophila_scaled(), p, DROSOPHILA_DIVISOR))),
    ("fig8", |p| render_scaling(&fig8(&human_scaled(), p, HUMAN_DIVISOR))),
    ("partial", |p| render_partial(&partial_sweep(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("ablation-chunk", |p| render_chunk(&ablation_chunk(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("ablation-q", |p| render_quality(&ablation_quality(&ecoli_scaled(), p))),
    ("ablation-balance", |_| render_balance(&ablation_balance())),
    ("baseline", |p| render_baseline(&baseline_comparison(&ecoli_scaled(), p))),
    ("prior-art", |p| render_prior_art(&prior_art_comparison(&ecoli_scaled(), p, ECOLI_DIVISOR))),
    ("latency", |p| render_latency(&latency_sweep(&ecoli_scaled(), p, ECOLI_DIVISOR))),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        FIGURES.iter().map(|&(name, _)| name).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let params = figure_params();
    for item in wanted {
        if item == "bench-json" {
            bench_json();
        } else if let Some((_, figure)) = FIGURES.iter().find(|&&(name, _)| name == item) {
            println!("{}", figure(params));
        } else {
            let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
            eprintln!("unknown item '{item}' (expected {}, bench-json, all)", names.join(", "));
            std::process::exit(2);
        }
    }
}

/// Measure every bench, write its `BENCH_*.json`, then check every
/// floor row against the same records.
fn bench_json() {
    let mut records = Vec::new();
    for &(file, measure) in BENCHES {
        let record = measure();
        let json = render_json(&record);
        std::fs::write(file, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        print!("{json}");
        eprintln!("wrote {file}");
        records.push((file, record));
    }
    let (lines, failed) = check_floors(&records);
    print!("{lines}");
    if !failed.is_empty() {
        eprintln!("bench-json: {} floor rows FAILED: {}", failed.len(), failed.join(", "));
        std::process::exit(1);
    }
    println!("bench-json: all floor rows OK");
}
