//! Build-once / correct-many race: rebuilding the pruned spectra from
//! the reads (Steps II–III) vs loading a persisted specstore snapshot.
//!
//! The snapshot's pitch is that a spectrum is built once and then served
//! to many correction runs, so the number that matters is how much
//! cheaper `load_spectrum` is than a rebuild:
//!
//! 1. **zero-copy load** — same rank count as the save: every shard's
//!    slot arrays are adopted by a flat table with no re-hash and no
//!    exchange;
//! 2. **re-sharded load** — a different rank count: shard groups are
//!    unioned and re-owned, paying a merge on top of the raw I/O.
//!
//! `run()` measures the rebuild, the save, and both load flavours on a
//! deterministic synthetic dataset and checks the loaded spectra are
//! entry-identical to the rebuilt ones; its record is written to
//! `BENCH_snapshot.json` by `figures -- bench-json`, where the
//! `repair-floor` rows gate it.

use crate::{group, scratch_dir, time_ns_per_op, Metrics};
use genio::dataset::DatasetProfile;
use reptile::{LocalSpectra, ReptileParams};
use reptile_dist::snapshot::{load_snapshot_serial, save_snapshot_serial};
use reptile_dist::RecoveryPolicy;

/// Rank count the snapshot is saved at (and zero-copy loaded at).
pub const SAVE_NP: usize = 4;
/// Rank count the re-sharded load runs at.
pub const RESHARD_NP: usize = 3;
/// Rank count for the parity/repair leg. Wider than [`SAVE_NP`] so one
/// parity shard per kind amortises to a small byte overhead (~1/8).
pub const PARITY_NP: usize = 8;
/// Parity shards per (kind, shard-group) in the repair leg.
pub const PARITY_M: usize = 1;
/// Rank whose k-mer shard the repair leg truncates.
const CHOP_RANK: usize = 3;
/// Bytes kept by the truncation — past the header, well short of the payload.
const CHOP_KEEP: u64 = 64;

/// The race result; [`SnapshotBenchReport::metrics`] is its record.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotBenchReport {
    /// Reads in the workload.
    pub reads: usize,
    /// Distinct k-mers surviving the threshold prune.
    pub kmer_entries: usize,
    /// Distinct tiles surviving the threshold prune.
    pub tile_entries: usize,
    /// Total snapshot size on disk (all shards + manifest).
    pub snapshot_bytes: u64,
    /// Rebuild both spectra from the reads, ns (best-of wall time).
    pub build_ns: f64,
    /// Persist the spectra as a [`SAVE_NP`]-way snapshot, ns.
    pub save_ns: f64,
    /// Load the snapshot back at the same rank count, ns.
    pub load_ns: f64,
    /// Load the snapshot at [`RESHARD_NP`] ranks (union + re-own), ns.
    pub reshard_load_ns: f64,
    /// Snapshot size at [`PARITY_NP`] ranks with no parity, bytes.
    pub plain_bytes: u64,
    /// Snapshot size at [`PARITY_NP`] ranks with [`PARITY_M`] parity
    /// shards per kind, bytes.
    pub parity_bytes: u64,
    /// Persist with parity encoding at [`PARITY_NP`] ranks, ns.
    pub parity_save_ns: f64,
    /// Load with one k-mer shard truncated, reconstructing it from the
    /// survivors + parity on every load (no rewrite), ns.
    pub repair_load_ns: f64,
    /// Bytes reconstructed by the repair leg (sanity: > 0).
    pub repaired_bytes: u64,
}

impl SnapshotBenchReport {
    /// How many times faster the zero-copy load is than rebuilding.
    pub fn load_speedup(&self) -> f64 {
        self.build_ns / self.load_ns.max(1.0)
    }

    /// How many times faster the re-sharded load is than rebuilding.
    pub fn reshard_speedup(&self) -> f64 {
        self.build_ns / self.reshard_load_ns.max(1.0)
    }

    /// Extra bytes the parity shards cost, as a fraction of the
    /// parity-free snapshot (~`PARITY_M / PARITY_NP` plus rounding to
    /// the widest shard in each group).
    pub fn parity_overhead(&self) -> f64 {
        (self.parity_bytes.saturating_sub(self.plain_bytes)) as f64 / self.plain_bytes.max(1) as f64
    }

    /// How many times faster a repairing load is than rebuilding from
    /// reads — the number that justifies parity over re-running Step II.
    pub fn repair_speedup(&self) -> f64 {
        self.build_ns / self.repair_load_ns.max(1.0)
    }

    /// The `BENCH_snapshot.json` record.
    pub fn metrics(&self) -> Metrics {
        [
            group(
                "workload",
                &[
                    ("reads", self.reads as f64),
                    ("kmer_entries", self.kmer_entries as f64),
                    ("tile_entries", self.tile_entries as f64),
                    ("snapshot_bytes", self.snapshot_bytes as f64),
                ],
            ),
            group(
                "ns",
                &[
                    ("build", self.build_ns),
                    ("save", self.save_ns),
                    ("load", self.load_ns),
                    ("reshard_load", self.reshard_load_ns),
                    ("parity_save", self.parity_save_ns),
                    ("repair_load", self.repair_load_ns),
                ],
            ),
            group(
                "parity",
                &[
                    ("plain_bytes", self.plain_bytes as f64),
                    ("parity_bytes", self.parity_bytes as f64),
                    ("repaired_bytes", self.repaired_bytes as f64),
                ],
            ),
            group(
                "ratios",
                &[
                    ("load_speedup", self.load_speedup()),
                    ("reshard_speedup", self.reshard_speedup()),
                    ("repair_speedup", self.repair_speedup()),
                    ("parity_overhead", self.parity_overhead()),
                ],
            ),
        ]
        .concat()
    }
}

/// Deterministic spectrum workload: `n` reads over a genome sized for
/// ~15X coverage, so the prune keeps genome-backed entries and drops the
/// error singletons — the operating point a served snapshot holds.
fn workload(n: usize) -> Vec<dnaseq::Read> {
    DatasetProfile {
        name: "snap".into(),
        genome_len: (n * 60 / 15).max(500),
        read_len: 60,
        n_reads: n,
        base_error_rate: 0.004,
        hotspot_count: 2,
        hotspot_multiplier: 6.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(0x5EED_5A9D)
    .reads
}

fn params() -> ReptileParams {
    ReptileParams {
        k: 10,
        tile_overlap: 5,
        kmer_threshold: 4,
        tile_threshold: 3,
        ..ReptileParams::for_tests()
    }
}

type SortedEntries = (Vec<(u64, u32)>, Vec<(u128, u32)>);

fn sorted_entries(s: &LocalSpectra) -> SortedEntries {
    let mut k: Vec<_> = s.kmers.iter().collect();
    k.sort_unstable();
    let mut t: Vec<_> = s.tiles.iter().collect();
    t.sort_unstable();
    (k, t)
}

/// Run the race on `n` reads (use ≥ 2_000 for stable numbers; the
/// `bench-json` subcommand uses 20_000).
pub fn run(n: usize) -> SnapshotBenchReport {
    let reads = workload(n);
    let p = params();
    let dir = scratch_dir("snap-bench");

    // --- rebuild from reads (the cost `load_spectrum` avoids) ---
    let build_ns = time_ns_per_op(3, 1, || LocalSpectra::build(&reads, &p));
    let built = LocalSpectra::build(&reads, &p);

    // --- persist (save overwrites in place, so repetition is safe) ---
    let save_ns = time_ns_per_op(3, 1, || {
        save_snapshot_serial(&dir, &p, SAVE_NP, 0, &built.kmers, &built.tiles)
            .expect("save snapshot")
    });
    let per_rank = save_snapshot_serial(&dir, &p, SAVE_NP, 0, &built.kmers, &built.tiles)
        .expect("save snapshot");
    let snapshot_bytes: u64 = per_rank.iter().sum();

    // --- load back, zero-copy then re-sharded ---
    let load_ns = time_ns_per_op(5, 1, || {
        load_snapshot_serial(&dir, &p, SAVE_NP, RecoveryPolicy::Strict, None)
            .expect("load snapshot")
    });
    let reshard_load_ns = time_ns_per_op(5, 1, || {
        load_snapshot_serial(&dir, &p, RESHARD_NP, RecoveryPolicy::Strict, None)
            .expect("re-sharded load")
    });

    // The race only counts if both loads reproduce the spectra exactly.
    let zero = load_snapshot_serial(&dir, &p, SAVE_NP, RecoveryPolicy::Strict, None)
        .expect("load snapshot");
    let resharded = load_snapshot_serial(&dir, &p, RESHARD_NP, RecoveryPolicy::Strict, None)
        .expect("re-sharded load");
    assert!(!zero.resharded && resharded.resharded);
    let want = sorted_entries(&built);
    for loaded in [
        LocalSpectra { kmers: zero.kmers, tiles: zero.tiles },
        LocalSpectra { kmers: resharded.kmers, tiles: resharded.tiles },
    ] {
        assert_eq!(sorted_entries(&loaded), want, "loaded spectra must be entry-identical");
    }

    // --- parity leg: encode overhead, then repair a truncated shard ---
    let pdir = scratch_dir("snap-bench");
    let plain_bytes: u64 =
        save_snapshot_serial(&pdir, &p, PARITY_NP, 0, &built.kmers, &built.tiles)
            .expect("plain save")
            .iter()
            .sum();
    let parity_save_ns = time_ns_per_op(3, 1, || {
        save_snapshot_serial(&pdir, &p, PARITY_NP, PARITY_M, &built.kmers, &built.tiles)
            .expect("parity save")
    });
    let parity_bytes: u64 =
        save_snapshot_serial(&pdir, &p, PARITY_NP, PARITY_M, &built.kmers, &built.tiles)
            .expect("parity save")
            .iter()
            .sum();
    // Truncating the same shard to the same length is idempotent, so the
    // chop can ride along on every timed load: each rep pays a full
    // classify → reconstruct → verify pass (rewrite stays off).
    let repair = RecoveryPolicy::Repair { max_lost: PARITY_M, rewrite: false };
    let repair_load_ns = time_ns_per_op(5, 1, || {
        load_snapshot_serial(&pdir, &p, PARITY_NP, repair, Some((CHOP_RANK, CHOP_KEEP)))
            .expect("repairing load")
    });
    let repaired = load_snapshot_serial(&pdir, &p, PARITY_NP, repair, Some((CHOP_RANK, CHOP_KEEP)))
        .expect("repairing load");
    let repaired_bytes: u64 = repaired.per_rank_repair.iter().map(|r| r.bytes_reconstructed).sum();
    assert!(repaired_bytes > 0, "repair leg must actually reconstruct a shard");
    let loaded = LocalSpectra { kmers: repaired.kmers, tiles: repaired.tiles };
    assert_eq!(sorted_entries(&loaded), want, "repaired spectra must be entry-identical");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&pdir);

    SnapshotBenchReport {
        reads: reads.len(),
        kmer_entries: built.kmers.len(),
        tile_entries: built.tiles.len(),
        snapshot_bytes,
        build_ns,
        save_ns,
        load_ns,
        reshard_load_ns,
        plain_bytes,
        parity_bytes,
        parity_save_ns,
        repair_load_ns,
        repaired_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion: loading a persisted snapshot beats
    /// rebuilding the spectra from the reads — otherwise the
    /// build-once / correct-many mode has no reason to exist. The margin
    /// grows with the read count (load scales with surviving entries,
    /// rebuild with total k-mer occurrences), so 4_000 reads is
    /// comfortably past the crossover even on a noisy CI machine.
    #[test]
    fn snapshot_load_beats_rebuild() {
        let r = run(4_000);
        assert!(r.kmer_entries > 0 && r.snapshot_bytes > 0);
        assert!(
            r.load_speedup() > 1.0,
            "zero-copy load {:.0} ns vs rebuild {:.0} ns — speedup {:.2}x ≤ 1x",
            r.load_ns,
            r.build_ns,
            r.load_speedup()
        );
        assert!(
            r.reshard_speedup() > 1.0,
            "re-sharded load {:.0} ns vs rebuild {:.0} ns — speedup {:.2}x ≤ 1x",
            r.reshard_load_ns,
            r.build_ns,
            r.reshard_speedup()
        );
        assert!(
            r.repair_speedup() > 1.0,
            "repairing load {:.0} ns vs rebuild {:.0} ns — speedup {:.2}x ≤ 1x",
            r.repair_load_ns,
            r.build_ns,
            r.repair_speedup()
        );
        assert!(
            r.parity_overhead() < 0.5,
            "one parity shard over {PARITY_NP} data shards cost {:.1}% extra bytes",
            r.parity_overhead() * 100.0
        );
    }
}
