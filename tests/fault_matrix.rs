//! The fault-injection acceptance matrix: seeded message faults
//! (drop/dup/reorder/delay) across rank counts and both engines must be
//! masked bit-identically by the retry protocol, and a killed owner must
//! degrade gracefully (its keys read as absent everywhere) instead of
//! hanging the run. Writes `target/fault-matrix-report.json` with the
//! degradation counters for the CI artifact, rewritten after every cell
//! and before that cell's asserts, so a failing cell leaves its row.

use genio::dataset::DatasetProfile;
use mpisim::FaultPlan;
use reptile_dist::{engine_by_name, EngineConfig, RunOutput};
use std::fmt::Write as _;
use std::time::Duration;

fn dataset() -> genio::dataset::SyntheticDataset {
    DatasetProfile {
        name: "fault".into(),
        genome_len: 2_500,
        read_len: 60,
        n_reads: 300,
        base_error_rate: 0.006,
        hotspot_count: 2,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(71)
}

fn params() -> reptile::ReptileParams {
    reptile::ReptileParams {
        k: 10,
        tile_overlap: 5,
        kmer_threshold: 3,
        tile_threshold: 3,
        ..reptile::ReptileParams::default()
    }
}

fn config(engine: &str, np: usize) -> EngineConfig {
    let base = if engine == "virtual" {
        EngineConfig::virtual_cluster(np, params())
    } else {
        EngineConfig::new(np, params())
    };
    EngineConfig { chunk_size: 120, ..base }
}

/// Everything that must be bit-identical between a faulted run (no kill)
/// and the fault-free reference: corrected reads, correction statistics,
/// spectrum tables' byte accounting, and the exchange accounting.
fn assert_bit_identical(label: &str, clean: &RunOutput, faulted: &RunOutput) {
    assert_eq!(clean.corrected, faulted.corrected, "{label}: corrected output");
    assert_eq!(
        clean.report.errors_corrected(),
        faulted.report.errors_corrected(),
        "{label}: errors corrected"
    );
    assert_eq!(
        clean.report.exchanged_bytes(),
        faulted.report.exchanged_bytes(),
        "{label}: exchanged bytes"
    );
    for (c, f) in clean.report.ranks.iter().zip(&faulted.report.ranks) {
        assert_eq!(
            c.memory_bytes.to_bits(),
            f.memory_bytes.to_bits(),
            "{label}: rank {} memory",
            c.rank
        );
        assert_eq!(c.build.owned_kmers, f.build.owned_kmers, "{label}: rank {} kmers", c.rank);
        assert_eq!(c.build.owned_tiles, f.build.owned_tiles, "{label}: rank {} tiles", c.rank);
        assert_eq!(
            c.lookups.keys_degraded, 0,
            "{label}: clean run must not degrade (rank {})",
            c.rank
        );
        assert_eq!(
            f.lookups.keys_degraded, 0,
            "{label}: faulted run with retries must not degrade (rank {})",
            c.rank
        );
    }
}

struct MatrixRow {
    engine: &'static str,
    np: usize,
    fault: &'static str,
    retried: u64,
    deadline_misses: u64,
    keys_degraded: u64,
}

fn counters(out: &RunOutput) -> (u64, u64, u64) {
    let sum = |f: &dyn Fn(&reptile_dist::LookupStats) -> u64| -> u64 {
        out.report.ranks.iter().map(|r| f(&r.lookups)).sum()
    };
    (sum(&|l| l.requests_retried), sum(&|l| l.deadline_misses), sum(&|l| l.keys_degraded))
}

fn write_report(rows: &[MatrixRow]) {
    let mut json = String::from("{\n  \"fault_matrix\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"np\": {}, \"fault\": \"{}\", \
             \"requests_retried\": {}, \"deadline_misses\": {}, \"keys_degraded\": {}}}{}",
            r.engine,
            r.np,
            r.fault,
            r.retried,
            r.deadline_misses,
            r.keys_degraded,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/fault-matrix-report.json", json).expect("write fault-matrix report");
}

/// The headline acceptance grid: drop/dup/reorder/delay × np ∈ {1,3,4}
/// × both engines. With retries enabled and no rank killed, every run is
/// bit-identical to the fault-free reference.
///
/// Deadline waits dominate the runtime (the drop cells pay a real 2 ms
/// wait per round that loses a request, doubling per attempt), so debug
/// builds run the quick smoke test below instead; the CI `fault-matrix`
/// job runs this grid in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "wait-dominated; run in release (CI fault-matrix job)")]
fn benign_fault_grid_is_bit_identical_and_kill_degrades() {
    let ds = dataset();
    // generous budgets: the seeded per-edge decisions are deterministic,
    // but the mt engine's worker/server interleaving on a shared edge
    // shifts per-edge indices between runs, so the bound is statistical.
    // A round trip is lost when either direction drops (p = 1 - 0.9^2 =
    // 0.19 at drop=0.1), so budget 10 leaves P(degrade) ~ 0.19^11 ~ 1e-8
    // per key - negligible even across tens of thousands of lookups.
    // (name, spec, base deadline): lossless faults use a roomy deadline
    // (it never fires); drop runs use a short one so the thousands of
    // seeded losses cost milliseconds each, not tens of milliseconds.
    let faults: &[(&'static str, &'static str, u64)] = &[
        ("drop", "seed=7,drop=0.1", 2),
        ("dup", "seed=8,dup=0.25", 25),
        ("reorder", "seed=9,reorder=0.4", 25),
        ("delay", "seed=10,delay=0.2:200us", 25),
    ];
    let mut rows = Vec::new();
    for engine_name in ["mt", "virtual"] {
        let engine = engine_by_name(engine_name).unwrap();
        for np in [1usize, 3, 4] {
            let clean = engine.run(&config(engine_name, np), &ds.reads);
            for &(name, spec, deadline_ms) in faults {
                let cfg = EngineConfig {
                    fault: FaultPlan::parse(spec).unwrap(),
                    lookup_deadline: Some(Duration::from_millis(deadline_ms)),
                    retry_budget: 10,
                    ..config(engine_name, np)
                };
                cfg.validate().unwrap();
                let faulted = engine.run(&cfg, &ds.reads);
                let (retried, deadline_misses, keys_degraded) = counters(&faulted);
                rows.push(MatrixRow {
                    engine: engine_name,
                    np,
                    fault: name,
                    retried,
                    deadline_misses,
                    keys_degraded,
                });
                write_report(&rows);
                assert_bit_identical(&format!("{engine_name} np={np} {name}"), &clean, &faulted);
            }
        }
    }
    // single-rank runs never message, so faults must be invisible there;
    // multi-rank drop runs must actually have exercised the retry path
    for r in &rows {
        if r.np == 1 {
            assert_eq!(r.retried, 0, "np=1 has no messages to retry");
        }
        if r.fault == "drop" && r.np > 1 {
            assert!(r.retried > 0, "{} np={} drop run never retried", r.engine, r.np);
        }
    }

    // --- the aggregate columns: every chunk is corrected by a first-wave
    // fetch and several lockstep rounds, each one batch per owner under
    // the same retry protocol. Lossy and slow batches are masked; a dead
    // owner degrades, never hangs (each fetch or round waits out one
    // deadline per attempt) ---
    for engine_name in ["mt", "virtual"] {
        let engine = engine_by_name(engine_name).unwrap();
        let np = 3;
        let aggregate = |fault: &str, retry_budget: u32| EngineConfig {
            fault: FaultPlan::parse(fault).unwrap(),
            lookup_deadline: Some(Duration::from_millis(2)),
            retry_budget,
            heuristics: reptile_dist::HeuristicConfig {
                aggregate_lookups: true,
                ..Default::default()
            },
            ..config(engine_name, np)
        };
        let clean =
            engine.run(&EngineConfig { lookup_deadline: None, ..aggregate("", 0) }, &ds.reads);
        let faulted = engine.run(&aggregate("seed=12,drop=0.1,delay=0.2:200us", 10), &ds.reads);
        let (retried, deadline_misses, keys_degraded) = counters(&faulted);
        rows.push(MatrixRow {
            engine: engine_name,
            np,
            fault: "aggregate drop+delay",
            retried,
            deadline_misses,
            keys_degraded,
        });
        write_report(&rows);
        assert_bit_identical(&format!("{engine_name} aggregate drop+delay"), &clean, &faulted);
        for r in &faulted.report.ranks {
            let chunks = r.reads_processed.div_ceil(120);
            assert!(
                r.lookups.batches_sent > chunks * (np as u64 - 1),
                "{engine_name}: rank {} must need more than one fetch per chunk",
                r.rank
            );
        }
        assert!(retried > 0, "{engine_name}: aggregate drop run never retried");

        let cfg = aggregate("seed=3,kill=1", 2);
        let out = engine.run(&cfg, &ds.reads);
        let (retried, deadline_misses, keys_degraded) = counters(&out);
        rows.push(MatrixRow {
            engine: engine_name,
            np,
            fault: "kill",
            retried,
            deadline_misses,
            keys_degraded,
        });
        write_report(&rows);
        assert_eq!(out.corrected.len(), ds.reads.len(), "{engine_name}: kill must not lose reads");
        assert!(keys_degraded > 0, "{engine_name}: killed owner must degrade some keys");
        assert_eq!(
            out.report.ranks[1].lookups.requests_served, 0,
            "{engine_name}: the killed rank serves nothing"
        );
    }
}

/// Debug-build smoke slice of the matrix: one lossy cell and one kill
/// cell per engine at np = 3, on a small slice of the reads, so plain
/// `cargo test` still drives the retry protocol end to end without the
/// full grid's minutes of deadline waits.
#[test]
fn fault_smoke_drop_masks_and_kill_degrades() {
    let ds = dataset();
    let reads = &ds.reads[..45];
    for engine_name in ["mt", "virtual"] {
        let engine = engine_by_name(engine_name).unwrap();
        let clean = engine.run(&config(engine_name, 3), reads);
        let cfg = EngineConfig {
            fault: FaultPlan::parse("seed=7,drop=0.1").unwrap(),
            lookup_deadline: Some(Duration::from_millis(2)),
            retry_budget: 10,
            ..config(engine_name, 3)
        };
        let faulted = engine.run(&cfg, reads);
        assert_bit_identical(&format!("{engine_name} smoke drop"), &clean, &faulted);
        let (retried, _, _) = counters(&faulted);
        assert!(retried > 0, "{engine_name}: smoke drop run never retried");

        // a killed owner degrades immediately (no retries) and the run
        // still completes with every read accounted for
        let cfg = EngineConfig {
            fault: FaultPlan::parse("seed=3,kill=1").unwrap(),
            lookup_deadline: Some(Duration::from_millis(1)),
            retry_budget: 0,
            ..config(engine_name, 3)
        };
        let out = engine.run(&cfg, reads);
        assert_eq!(out.corrected.len(), reads.len(), "{engine_name}: kill must not lose reads");
        let (_, _, keys_degraded) = counters(&out);
        assert!(keys_degraded > 0, "{engine_name}: killed owner must degrade some keys");
    }
}
