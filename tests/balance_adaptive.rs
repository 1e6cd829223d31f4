//! Adaptive-balancing acceptance tests: hot-shard replication and
//! read-chunk stealing must be invisible in the output — bit-identical
//! to the sequential corrector across rank counts, replication budgets
//! and both engines — and must compose with the fault-injection plane
//! (dropped or delayed steal traffic degrades gracefully, never hangs).

mod support;

use mpisim::FaultPlan;
use reptile_dist::{run_distributed, EngineConfig, HeuristicConfig};
use std::time::Duration;
use support::{check_grid, fixture, Grid, Set};

/// The bit-identity slice: replication budgets (off, minimal, several,
/// everything) with and without stealing, on both engines, on the
/// skewed set.
#[test]
fn adaptive_settings_are_output_invariant() {
    check_grid(Grid::Adaptive);
}

/// The mechanisms must actually engage on the skewed set — otherwise the
/// slice above only ever tests the gates. The fixture asserts it when it
/// builds the set: a virtual np-8 adaptive run hits hot replicas and
/// steals chunks.
#[test]
fn adaptive_mechanisms_engage_on_skew() {
    fixture(Set::Skewed);
}

/// Faults on the correction plane — which now carries the seq-stamped
/// steal traffic too — must be masked by the at-least-once protocol:
/// same output as the fault-free adaptive run, nothing degraded, and
/// the run terminates (completion of this test is the no-hang claim).
///
/// Deadline waits dominate the drop cells' runtime, so debug builds skip
/// this (the CI fault-matrix job runs it in release), mirroring the main
/// fault grid in `fault_matrix.rs`.
#[test]
#[cfg_attr(debug_assertions, ignore = "wait-dominated; run in release (CI fault-matrix job)")]
fn adaptive_composes_with_fault_plans() {
    let reads = support::profile(Set::Skewed).0.generate(2).reads;
    let p = support::params(Set::Skewed);
    let base = |np: usize| {
        let mut cfg = EngineConfig::new(np, p);
        cfg.heuristics = HeuristicConfig::adaptive(2);
        cfg.chunk_size = 40;
        cfg
    };
    let faults: &[(&str, &str, u64)] =
        &[("drop", "seed=7,drop=0.1", 2), ("delay", "seed=10,delay=0.2:200us", 25)];
    for np in [3usize, 4] {
        let clean = run_distributed(&base(np), &reads);
        for &(name, spec, deadline_ms) in faults {
            let cfg = EngineConfig {
                fault: FaultPlan::parse(spec).unwrap(),
                lookup_deadline: Some(Duration::from_millis(deadline_ms)),
                retry_budget: 10,
                ..base(np)
            };
            cfg.validate().unwrap();
            let faulted = run_distributed(&cfg, &reads);
            assert_eq!(
                clean.corrected, faulted.corrected,
                "np={np} {name}: faulted adaptive run diverged"
            );
            let degraded: u64 = faulted.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
            assert_eq!(degraded, 0, "np={np} {name}: retries must mask benign faults");
        }
    }
}
