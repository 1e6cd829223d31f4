//! Out-of-core build bench: the bounded-memory spill/merge build vs the
//! in-memory build on the same workload. Its record is written to
//! `BENCH_ooc.json` by `figures -- bench-json`, which gates it with the
//! `ooc-floor` rows.
//!
//! Two claims feed the record:
//!
//! 1. **the budget holds** — with `memory_budget` pinned at the geometry
//!    floor (far below the in-memory working set), the build really
//!    spills (run files hit disk) and the measured peak *accounted*
//!    bytes — count tables + accumulator entries + spill staging
//!    buffers — stay at or under the budget. Deterministic, asserted in
//!    CI unconditionally.
//! 2. **the price is bounded** — the spilled build's construct time
//!    stays within 2.5x of the in-memory build on this workload. A
//!    wall-clock claim, so the floor is enforced by the `ooc-floor` row
//!    on release builds only.
//!
//! Output identity (corrected reads byte-for-byte equal) is re-checked
//! here too, on the bench workload — the proptest matrix in
//! `reptile-dist/tests/ooc_build.rs` owns the exhaustive version.

use crate::build_bench::build_workload;
use crate::workloads::smoke_params;
use crate::{group, Metrics};
use reptile_dist::engine_mt::run_distributed;
use reptile_dist::{ooc, EngineConfig, HeuristicConfig};

/// Ranks the bench runs at — small enough for CI, parallel enough that
/// the per-owner run files and the merge both exercise real fan-in.
const NP: usize = 3;

/// The comparison result; [`OocBenchReport::metrics`] is its record.
#[derive(Clone, Copy, Debug, Default)]
pub struct OocBenchReport {
    /// Reads in the workload.
    pub reads: usize,
    /// The memory budget the out-of-core build ran under (the geometry
    /// floor for the bench parameters).
    pub budget_bytes: u64,
    /// Measured peak accounted bytes (tables + accumulator entries +
    /// spill buffers), max over ranks.
    pub peak_accounted_bytes: u64,
    /// In-memory (unbudgeted) build construct seconds, max over ranks.
    pub inmem_build_secs: f64,
    /// Out-of-core build construct seconds, max over ranks.
    pub ooc_build_secs: f64,
    /// Run files written across all ranks.
    pub spill_runs: u64,
    /// Bytes spilled across all ranks.
    pub spill_bytes: u64,
    /// Merge seconds, max over ranks.
    pub merge_secs: f64,
    /// Whether the budgeted build's corrected output was byte-identical
    /// to the unbudgeted build's.
    pub output_identical: bool,
}

impl OocBenchReport {
    /// Out-of-core construct time as a multiple of the in-memory build.
    pub fn slowdown(&self) -> f64 {
        self.ooc_build_secs / self.inmem_build_secs.max(1e-12)
    }

    /// The `BENCH_ooc.json` record; `output_identical` is 1 or 0.
    pub fn metrics(&self) -> Metrics {
        [
            group("workload", &[("reads", self.reads as f64), ("np", NP as f64)]),
            group(
                "",
                &[
                    ("budget_bytes", self.budget_bytes as f64),
                    ("peak_accounted_bytes", self.peak_accounted_bytes as f64),
                    ("inmem_build_secs", self.inmem_build_secs),
                    ("ooc_build_secs", self.ooc_build_secs),
                    ("ooc_slowdown", self.slowdown()),
                ],
            ),
            group(
                "spill",
                &[
                    ("runs", self.spill_runs as f64),
                    ("bytes", self.spill_bytes as f64),
                    ("merge_secs", self.merge_secs),
                ],
            ),
            group("", &[("output_identical", f64::from(u8::from(self.output_identical)))]),
        ]
        .concat()
    }
}

/// Run the comparison on `n_reads` reads (the `bench-json` subcommand
/// uses 20_000).
pub fn run(n_reads: usize) -> OocBenchReport {
    let params = smoke_params();
    let reads = build_workload(n_reads, 60, 3);
    let heur = HeuristicConfig { batch_reads: true, ..HeuristicConfig::default() };
    let cfg = |budget: Option<u64>| {
        let mut b =
            EngineConfig::builder(NP, params).chunk_size(2000).heuristics(heur).build_threads(2);
        if let Some(bytes) = budget {
            b = b.memory_budget(bytes);
        }
        b.build().expect("valid bench config")
    };

    let baseline = run_distributed(&cfg(None), &reads);
    let budget = ooc::min_budget(&params);
    let out = run_distributed(&cfg(Some(budget)), &reads);

    OocBenchReport {
        reads: n_reads,
        budget_bytes: budget,
        peak_accounted_bytes: out.report.ooc_peak_bytes(),
        inmem_build_secs: baseline.report.construct_secs(),
        ooc_build_secs: out.report.construct_secs(),
        spill_runs: out.report.spill_runs(),
        spill_bytes: out.report.spill_bytes(),
        merge_secs: out.report.merge_secs(),
        output_identical: out.corrected == baseline.corrected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic acceptance criteria: at the floor budget the
    /// build spills for real, the accounted peak honors the budget, and
    /// the output is byte-identical to the in-memory build. The time
    /// ratio is not asserted here — its `ooc-floor` row gates it on
    /// release builds, same policy as `build_bench`.
    #[test]
    fn floor_budget_spills_under_budget_with_identical_output() {
        let r = run(1_500);
        assert!(r.spill_runs > 0, "floor budget must force a spill");
        assert!(r.spill_bytes > 0);
        assert!(
            r.peak_accounted_bytes <= r.budget_bytes,
            "peak {} over budget {}",
            r.peak_accounted_bytes,
            r.budget_bytes
        );
        assert!(r.output_identical, "ooc output diverged from the in-memory build");
        assert!(r.merge_secs >= 0.0);
    }
}
