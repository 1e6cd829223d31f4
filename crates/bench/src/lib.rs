//! Benchmark harness: workloads, figure regeneration, and the measured
//! floors CI gates on.
//!
//! The [`workloads`] module pins the scaled dataset profiles and
//! parameters every figure uses; [`figures`] regenerates each table and
//! figure of the paper (run `cargo run -p reptile-bench --release --bin
//! figures -- all`). Criterion micro-benchmarks live under `benches/`.
//!
//! Measurement is one mechanism. Each `*_bench` module returns its
//! numbers as one [`Metrics`] record of dotted names; its wall-clock
//! races take the best of N runs (`time_ns_per_op`).
//! `figures -- bench-json` runs the [`BENCHES`], writes each record as a
//! flat `BENCH_*.json` through [`render_json`], then checks every
//! [`FLOORS`] row against the same in-memory records with
//! [`check_floors`] and exits 1 if any row fails. Nothing reads the
//! files back: they are CI artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance_bench;
pub mod build_bench;
pub mod figures;
pub mod ooc_bench;
pub mod serve_bench;
pub mod snapshot_bench;
pub mod spectrum_bench;
pub mod workloads;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One bench's numbers: `(dotted name, value)` in output order.
pub type Metrics = Vec<(String, f64)>;

/// `fields` named `prefix.name` (or bare `name` under an empty prefix).
pub(crate) fn group(prefix: &str, fields: &[(&str, f64)]) -> Metrics {
    fields
        .iter()
        .map(|&(name, v)| {
            (if prefix.is_empty() { name.to_string() } else { format!("{prefix}.{name}") }, v)
        })
        .collect()
}

/// The value of metric `name` in `record`.
fn metric(record: &[(String, f64)], name: &str) -> Option<f64> {
    record.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// Render a record as one flat JSON object, a `"name": value` per line.
/// Values print at full precision; a non-finite value is written `null`.
pub fn render_json(record: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, v)) in record.iter().enumerate() {
        let sep = if i + 1 < record.len() { "," } else { "" };
        let value = if v.is_finite() { v.to_string() } else { "null".to_string() };
        let _ = writeln!(out, "  \"{name}\": {value}{sep}");
    }
    out.push_str("}\n");
    out
}

/// Best-of-`reps` wall time of `f`, in ns per `ops` operations.
pub(crate) fn time_ns_per_op<R>(reps: usize, ops: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best / ops.max(1) as f64
}

/// A fresh scratch directory path under the system temp dir, unique per
/// call even when tests run concurrently in one process (same pid).
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "reptile-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A measured bench: the `BENCH_*.json` file it writes and how to
/// measure its record.
pub type Bench = (&'static str, fn() -> Metrics);

/// Every measured bench at its CI size, in the order `bench-json` runs
/// them.
pub const BENCHES: &[Bench] = &[
    ("BENCH_spectrum.json", || spectrum_bench::run(200_000).metrics()),
    ("BENCH_build.json", || build_bench::run(20_000).metrics()),
    ("BENCH_snapshot.json", || snapshot_bench::run(20_000).metrics()),
    ("BENCH_balance.json", || balance_bench::run().metrics()),
    ("BENCH_serve.json", || serve_bench::run(1_050_000, 24, 100).metrics()),
    ("BENCH_ooc.json", || ooc_bench::run(20_000).metrics()),
];

/// How a floor row compares its metric.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// `value >= bound`.
    AtLeast(f64),
    /// `value <= bound`.
    AtMost(f64),
    /// `value > bound`.
    Above(f64),
    /// `value == bound`.
    Equals(f64),
    /// `lo <= value <= hi`.
    Within(f64, f64),
    /// `value <=` the named metric of the same record.
    AtMostMetric(&'static str),
}

impl Check {
    fn holds(self, v: f64, record: &[(String, f64)]) -> bool {
        match self {
            Check::AtLeast(b) => v >= b,
            Check::AtMost(b) => v <= b,
            Check::Above(b) => v > b,
            Check::Equals(b) => v == b,
            Check::Within(lo, hi) => (lo..=hi).contains(&v),
            Check::AtMostMetric(name) => metric(record, name).is_some_and(|b| v <= b),
        }
    }

    fn describe(self, record: &[(String, f64)]) -> String {
        match self {
            Check::AtLeast(b) => format!(">= {b}"),
            Check::AtMost(b) => format!("<= {b}"),
            Check::Above(b) => format!("> {b}"),
            Check::Equals(b) => format!("== {b}"),
            Check::Within(lo, hi) => format!("in {lo}..={hi}"),
            Check::AtMostMetric(name) => match metric(record, name) {
                Some(b) => format!("<= {name} {b}"),
                None => format!("<= {name} (missing)"),
            },
        }
    }
}

/// One measured floor, `(gate, file, metric, check)`: the dotted
/// `metric` of the record written to `file` must pass `check`. `gate`
/// groups rows under the name the docs cite (`perf-floor`, …); a failed
/// row is reported as `gate metric`.
pub type Floor = (&'static str, &'static str, &'static str, Check);

/// Every threshold CI holds the measured benches to.
pub const FLOORS: &[Floor] = &[
    // the pipelined build and the flat table's bulk load
    ("perf-floor", "BENCH_build.json", "ratios.speedup_4t_measured", Check::AtLeast(3.0)),
    ("perf-floor", "BENCH_spectrum.json", "flat.bulk_ns_per_key", Check::AtMost(30.0)),
    // adaptive balancing: wins on skew, costs nothing on uniform data
    ("balance-floor", "BENCH_balance.json", "ratios.skewed_speedup", Check::AtLeast(1.5)),
    ("balance-floor", "BENCH_balance.json", "ratios.uniform_ratio", Check::Within(0.95, 1.05)),
    ("balance-floor", "BENCH_balance.json", "ratios.remote_reduction", Check::Above(0.0)),
    // the persistent serve engine
    ("serve-floor", "BENCH_serve.json", "closed_loop.speedup_vs_batch", Check::AtLeast(2.0)),
    ("serve-floor", "BENCH_serve.json", "floors.requests_total", Check::AtLeast(1_000_000.0)),
    ("serve-floor", "BENCH_serve.json", "floors.mid_p99_ms", Check::AtMost(600.0)),
    ("serve-floor", "BENCH_serve.json", "floors.overload_rejected", Check::Above(0.0)),
    // erasure-coded snapshots: repair beats rebuild, parity stays a small tax
    ("repair-floor", "BENCH_snapshot.json", "ratios.repair_speedup", Check::AtLeast(2.0)),
    ("repair-floor", "BENCH_snapshot.json", "ratios.parity_overhead", Check::AtMost(0.15)),
    ("repair-floor", "BENCH_snapshot.json", "parity.repaired_bytes", Check::Above(0.0)),
    // the out-of-core build: under budget, really spilled, bounded price, same output
    ("ooc-floor", "BENCH_ooc.json", "peak_accounted_bytes", Check::AtMostMetric("budget_bytes")),
    ("ooc-floor", "BENCH_ooc.json", "spill.runs", Check::Above(0.0)),
    ("ooc-floor", "BENCH_ooc.json", "ooc_slowdown", Check::AtMost(2.5)),
    ("ooc-floor", "BENCH_ooc.json", "output_identical", Check::Equals(1.0)),
];

/// Check every [`FLOORS`] row against `records` (`(file, record)`
/// pairs). Returns one line per row, and the labels of the rows that
/// failed; a missing record or metric fails its row.
pub fn check_floors(records: &[(&str, Metrics)]) -> (String, Vec<String>) {
    let mut lines = String::new();
    let mut failed = Vec::new();
    for &(gate, file, name, check) in FLOORS {
        let record = records.iter().find(|(f, _)| *f == file).map_or(&[][..], |(_, m)| m);
        let value = metric(record, name);
        let ok = value.is_some_and(|v| check.holds(v, record));
        let shown = value.map_or("missing".to_string(), |v| v.to_string());
        let verdict = if ok { "ok" } else { "FAILED" };
        let _ = writeln!(
            lines,
            "{gate}: {file} {name} = {shown} ({}) {verdict}",
            check.describe(record)
        );
        if !ok {
            failed.push(format!("{gate} {name}"));
        }
    }
    (lines, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_finite_values_and_nulls_the_rest() {
        let record: Metrics = vec![
            ("workload.reads".into(), 20_000.0),
            ("ratios.speedup".into(), 0.1 + 0.2),
            ("ns.tiny".into(), 1.5e-7),
            ("bytes".into(), 4_587_520.0),
            ("nan".into(), f64::NAN),
            ("inf".into(), f64::INFINITY),
        ];
        let json = render_json(&record);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"), "{json}");
        assert_eq!(json.lines().count(), record.len() + 2);
        for (name, v) in &record {
            let needle = format!("\"{name}\": ");
            let at = json.find(&needle).unwrap_or_else(|| panic!("{name} missing in {json}"))
                + needle.len();
            let text = json[at..].split([',', '\n']).next().expect("value text");
            if v.is_finite() {
                assert_eq!(text.parse::<f64>().ok(), Some(*v), "{name} did not round-trip");
            } else {
                assert_eq!(text, "null", "non-finite {name} must be null");
            }
        }
        // the last entry carries no trailing comma
        assert!(json.ends_with("\"inf\": null\n}\n"), "{json}");
    }

    /// The record each bench emits, from a default report: the metric
    /// names do not depend on the measured values.
    fn bench_records() -> Vec<(&'static str, Metrics)> {
        vec![
            ("BENCH_spectrum.json", spectrum_bench::SpectrumBenchReport::default().metrics()),
            ("BENCH_build.json", build_bench::BuildBenchReport::default().metrics()),
            ("BENCH_snapshot.json", snapshot_bench::SnapshotBenchReport::default().metrics()),
            ("BENCH_balance.json", balance_bench::BalanceBenchReport::default().metrics()),
            ("BENCH_serve.json", serve_bench::ServeBenchReport::default().metrics()),
            ("BENCH_ooc.json", ooc_bench::OocBenchReport::default().metrics()),
        ]
    }

    #[test]
    fn every_floor_row_reads_a_metric_its_bench_emits() {
        let records = bench_records();
        let files: Vec<&str> = BENCHES.iter().map(|&(f, _)| f).collect();
        assert_eq!(files, records.iter().map(|&(f, _)| f).collect::<Vec<_>>());
        assert_eq!(FLOORS.len(), 16);
        for &(gate, file, name, check) in FLOORS {
            let (_, record) = records
                .iter()
                .find(|(f, _)| *f == file)
                .unwrap_or_else(|| panic!("{gate} {name}: no bench writes {file}"));
            assert!(metric(record, name).is_some(), "{gate}: {file} does not emit {name}");
            if let Check::AtMostMetric(bound) = check {
                assert!(metric(record, bound).is_some(), "{gate}: {file} does not emit {bound}");
            }
        }
        for (file, record) in &records {
            let mut names: Vec<&str> = record.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), record.len(), "{file} emits a metric name twice");
        }
    }

    #[test]
    fn a_failing_row_is_reported_by_its_label() {
        // a record set that passes every row...
        let mut records: Vec<(&str, Metrics)> = bench_records();
        for &(_, file, name, check) in FLOORS {
            let (_, record) = records.iter_mut().find(|(f, _)| *f == file).expect("file");
            let pass = match check {
                Check::AtLeast(b) | Check::AtMost(b) | Check::Equals(b) => b,
                Check::Above(b) => b + 1.0,
                Check::Within(lo, hi) => (lo + hi) / 2.0,
                Check::AtMostMetric(_) => 0.0,
            };
            record.iter_mut().find(|(n, _)| n == name).expect("metric").1 = pass;
        }
        let (lines, failed) = check_floors(&records);
        assert!(failed.is_empty(), "{lines}");
        assert_eq!(lines.lines().count(), FLOORS.len());
        // ...then break one row with a low value and one with a non-finite one
        let build = records.iter_mut().find(|(f, _)| *f == "BENCH_build.json").expect("build");
        build.1.iter_mut().find(|(n, _)| n == "ratios.speedup_4t_measured").expect("row").1 = 2.99;
        let ooc = records.iter_mut().find(|(f, _)| *f == "BENCH_ooc.json").expect("ooc");
        ooc.1.iter_mut().find(|(n, _)| n == "ooc_slowdown").expect("row").1 = f64::NAN;
        let (lines, failed) = check_floors(&records);
        assert_eq!(
            failed,
            ["perf-floor ratios.speedup_4t_measured", "ooc-floor ooc_slowdown"],
            "{lines}"
        );
        assert_eq!(lines.matches("FAILED").count(), 2, "{lines}");
        // a bench that wrote nothing fails every row that reads it
        let (_, failed) = check_floors(&records[..1]);
        assert_eq!(failed.len(), FLOORS.len() - 1);
    }
}
