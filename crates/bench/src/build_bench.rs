//! Spectrum-construction race: the serial reference builder vs the
//! pipelined fused-scan builder, measured at the phase's real operating
//! point; its record is written to `BENCH_build.json` by
//! `figures -- bench-json`.
//!
//! Two claims feed the record:
//!
//! 1. **single-rank build throughput** — the fused scan (one rolling
//!    pass deriving each tile from its two k-mer codes) plus
//!    width-adaptive counting aggregation and a survivors-only bulk
//!    table load replace the serial path's per-occurrence hash insert
//!    and build-then-prune rebuild; keys/sec for the serial builder and
//!    the pipelined builder at 1 and 4 extraction workers. The measured
//!    4-worker speedup `ratios.speedup_4t_measured` is a **CI floor**
//!    (the `perf-floor` row): ≥ 3× over the serial reference on this
//!    workload, single-thread efficiency alone — no core-count excuse.
//! 2. **exchanged bytes** — with pre-aggregation only *distinct*
//!    `(key, count)` pairs cross the wire. The reduction vs shipping raw
//!    occurrences is deterministic (a property of the workload, not the
//!    clock), so it is asserted in CI unconditionally.

use crate::workloads::{smoke_params, SEED};
use crate::{group, time_ns_per_op, Metrics};
use dnaseq::{mix64, Read};
use mpisim::Universe;
use reptile::ReptileParams;
use reptile_dist::spectrum::{build_distributed, build_distributed_serial, BuildStats};
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, VirtualEngine};

/// One builder's measurements at a fixed workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildNumbers {
    /// Wall ns per extracted key occurrence (k-mers + tiles).
    pub ns_per_key: f64,
    /// Extracted key occurrences per second.
    pub keys_per_sec: f64,
}

/// The race result; [`BuildBenchReport::metrics`] is its record.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildBenchReport {
    /// Reads in the workload.
    pub reads: usize,
    /// K-mer + tile occurrences one build extracts.
    pub key_occurrences: u64,
    /// Serial reference builder, single rank.
    pub serial: BuildNumbers,
    /// Pipelined builder, 1 extraction worker, single rank.
    pub pipelined_1t: BuildNumbers,
    /// Pipelined builder, 4 extraction workers, single rank.
    pub pipelined_4t: BuildNumbers,
    /// Raw bytes an unaggregated exchange would ship (every off-rank
    /// occurrence at wire-tuple width), np=4 batch mode, all ranks.
    pub exchange_occurrence_bytes: u64,
    /// Bytes the pre-aggregated exchange actually ships.
    pub exchange_shipped_bytes: u64,
    /// Single-rank 4-worker speedup under the virtual engine's cost
    /// model (deterministic — what 4 real cores deliver; the measured
    /// ratio above is bounded by the host's core count).
    pub modeled_speedup_4t: f64,
    /// Modeled fraction of build wall-time hidden by the
    /// double-buffered exchange at np=4 batch mode.
    pub modeled_overlap_fraction: f64,
}

impl BuildBenchReport {
    /// Single-rank throughput gain of the 4-worker pipelined build over
    /// the serial reference.
    pub fn speedup_4t(&self) -> f64 {
        self.serial.ns_per_key / self.pipelined_4t.ns_per_key
    }

    /// How many times fewer bytes cross the wire thanks to the sort +
    /// run-length pre-aggregation (deterministic).
    pub fn exchange_reduction(&self) -> f64 {
        self.exchange_occurrence_bytes as f64 / self.exchange_shipped_bytes.max(1) as f64
    }

    /// The `BENCH_build.json` record.
    pub fn metrics(&self) -> Metrics {
        let builder = |name: &str, n: &BuildNumbers| {
            group(name, &[("ns_per_key", n.ns_per_key), ("keys_per_sec", n.keys_per_sec)])
        };
        [
            group(
                "workload",
                &[("reads", self.reads as f64), ("key_occurrences", self.key_occurrences as f64)],
            ),
            builder("serial", &self.serial),
            builder("pipelined_1t", &self.pipelined_1t),
            builder("pipelined_4t", &self.pipelined_4t),
            group(
                "exchange",
                &[
                    ("occurrence_bytes", self.exchange_occurrence_bytes as f64),
                    ("shipped_bytes", self.exchange_shipped_bytes as f64),
                    ("reduction", self.exchange_reduction()),
                ],
            ),
            group("ratios", &[("speedup_4t_measured", self.speedup_4t())]),
            group(
                "modeled",
                &[
                    ("speedup_4t", self.modeled_speedup_4t),
                    ("overlap_fraction_np4", self.modeled_overlap_fraction),
                ],
            ),
        ]
        .concat()
    }
}

/// Deterministic spectrum-build workload: groups of `dup` copies of
/// distinct random templates — the duplicate profile that makes counts
/// survive pruning and gives pre-aggregation something to merge.
pub fn build_workload(n_reads: usize, read_len: usize, dup: usize) -> Vec<Read> {
    let mut reads = Vec::with_capacity(n_reads);
    for i in 0..n_reads {
        let template = i / dup.max(1);
        let seed = mix64(SEED ^ (template as u64 + 1));
        let seq: Vec<u8> = (0..read_len)
            .map(|j| [b'A', b'C', b'G', b'T'][(mix64(seed ^ (j as u64)) % 4) as usize])
            .collect();
        reads.push(Read::new(i as u64 + 1, seq, vec![30; read_len]));
    }
    reads
}

fn single_rank_stats(
    reads: &[Read],
    chunk: usize,
    params: &ReptileParams,
    threads: Option<usize>,
) -> BuildStats {
    Universe::new(1).run(move |comm| {
        let heur = HeuristicConfig::base();
        match threads {
            None => build_distributed_serial(comm, reads, chunk, params, &heur).1,
            Some(t) => build_distributed(comm, reads, chunk, params, &heur, t).1,
        }
    })[0]
}

fn numbers(ns_per_key: f64) -> BuildNumbers {
    BuildNumbers { ns_per_key, keys_per_sec: 1e9 / ns_per_key.max(1e-9) }
}

/// Run the race on `n_reads` reads (the `bench-json` subcommand uses
/// 20_000; use ≥ 5_000 for stable numbers).
pub fn run(n_reads: usize) -> BuildBenchReport {
    let params = smoke_params();
    let reads = build_workload(n_reads, 60, 3);
    let chunk = 2000;

    // occurrence count is identical across builders (proptest-enforced);
    // measure once
    let probe = single_rank_stats(&reads, chunk, &params, Some(1));
    let key_occurrences = probe.kmers_extracted + probe.tiles_extracted;
    let ops = key_occurrences as usize;

    let reads_ref = &reads;
    let serial_ns = time_ns_per_op(3, ops, || single_rank_stats(reads_ref, chunk, &params, None));
    let piped1_ns =
        time_ns_per_op(3, ops, || single_rank_stats(reads_ref, chunk, &params, Some(1)));
    let piped4_ns =
        time_ns_per_op(3, ops, || single_rank_stats(reads_ref, chunk, &params, Some(4)));

    // --- exchange volume at np=4, batch mode (deterministic) ---
    // block partition: duplicate templates are adjacent, so keeping them
    // on one rank gives pre-aggregation real duplicates to merge (the
    // load balancer's hash(seq) placement has the same effect at scale)
    let np = 4;
    let stats: Vec<BuildStats> = Universe::new(np).run(move |comm| {
        let n = reads_ref.len();
        let (lo, hi) = (comm.rank() * n / np, (comm.rank() + 1) * n / np);
        let heur = HeuristicConfig { batch_reads: true, ..Default::default() };
        build_distributed(comm, &reads_ref[lo..hi], 500, &params, &heur, 2).1
    });
    // an unaggregated exchange ships every occurrence at the same
    // wire-tuple width the aggregated one uses; approximate the k-mer /
    // tile occurrence split by the shipped-entry split (exact enough for
    // a lower bound: tiles are wider, and tiles dedup *more*)
    let mut occurrence_bytes = 0u64;
    let mut shipped_bytes = 0u64;
    for s in &stats {
        shipped_bytes += s.exchange_bytes;
        let per_entry = s.exchange_bytes as f64 / s.exchange_entries.max(1) as f64;
        occurrence_bytes += (s.exchange_occurrences as f64 * per_entry) as u64;
    }

    // --- modeled numbers (deterministic, core-count independent) ---
    let modeled_construct = |threads: usize| {
        let cfg =
            EngineConfig { build_threads: threads, ..EngineConfig::virtual_cluster(1, params) };
        VirtualEngine.run(&cfg, reads_ref).report.construct_secs()
    };
    let modeled_speedup_4t = modeled_construct(1) / modeled_construct(4).max(1e-12);
    let vcfg = EngineConfig {
        heuristics: HeuristicConfig { batch_reads: true, ..Default::default() },
        // ~4 batches per rank at any workload size: one round has nothing
        // to overlap with (the model degenerates to compute + comm)
        chunk_size: (n_reads / (np * 4)).max(1),
        build_threads: 2,
        ..EngineConfig::virtual_cluster(np, params)
    };
    let modeled_overlap_fraction =
        VirtualEngine.run(&vcfg, reads_ref).report.build_overlap_fraction();

    BuildBenchReport {
        reads: n_reads,
        key_occurrences,
        serial: numbers(serial_ns),
        pipelined_1t: numbers(piped1_ns),
        pipelined_4t: numbers(piped4_ns),
        exchange_occurrence_bytes: occurrence_bytes,
        exchange_shipped_bytes: shipped_bytes,
        modeled_speedup_4t,
        modeled_overlap_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The deterministic acceptance criterion: pre-aggregation must ship
    /// strictly fewer bytes than the raw occurrence stream would (the
    /// workload has 3x duplicate templates, so there is real dedup to
    /// find). Latency ratios are held by the floor table, not asserted
    /// here — same policy as `spectrum_bench`.
    #[test]
    fn preaggregation_reduces_exchanged_bytes() {
        let r = run(1_200);
        assert!(r.key_occurrences > 0);
        assert!(r.exchange_shipped_bytes > 0, "np=4 build must exchange something");
        assert!(
            r.exchange_shipped_bytes < r.exchange_occurrence_bytes,
            "aggregated exchange must ship fewer bytes ({} vs {})",
            r.exchange_shipped_bytes,
            r.exchange_occurrence_bytes
        );
        assert!(r.exchange_reduction() > 1.0);
    }

    /// The modeled numbers stay in the record (they project what real
    /// cores deliver) and stay sane — but they are not the headline
    /// assert; the measured `perf-floor` row is.
    #[test]
    fn modeled_four_workers_at_least_double_throughput() {
        let r = run(1_200);
        assert!(
            r.modeled_speedup_4t >= 2.0,
            "modeled 4-worker speedup {} < 2x",
            r.modeled_speedup_4t
        );
        assert!(r.modeled_overlap_fraction > 0.0);
        assert!(r.modeled_overlap_fraction < 1.0);
    }

    #[test]
    fn workload_is_deterministic() {
        let a = build_workload(50, 60, 3);
        let b = build_workload(50, 60, 3);
        assert_eq!(a, b);
        // duplicate groups share sequences
        assert_eq!(a[0].seq, a[1].seq);
        assert_ne!(a[0].seq, a[3].seq);
    }
}
