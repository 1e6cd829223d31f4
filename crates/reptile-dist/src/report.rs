//! Per-rank and aggregate run reports.
//!
//! Everything the paper's figures plot comes out of these structs: times
//! split into k-mer construction vs error correction vs communication,
//! per-rank lookup/traffic counts, errors corrected, memory footprints.

use crate::spectrum::BuildStats;
use mpisim::{CostModel, Topology};
use reptile::CorrectionStats;
use specstore::RepairStats;

/// Counters from one rank's correction phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LookupStats {
    /// K-mer lookups answered from the rank's own tables.
    pub local_kmer_lookups: u64,
    /// Tile lookups answered locally.
    pub local_tile_lookups: u64,
    /// K-mer lookups that crossed ranks.
    pub remote_kmer_lookups: u64,
    /// Tile lookups that crossed ranks.
    pub remote_tile_lookups: u64,
    /// Remote k-mer lookups answered "does not exist".
    pub remote_kmer_misses: u64,
    /// Remote tile lookups answered "does not exist" — the paper finds
    /// these dominate the communication time ("especially tiles which
    /// are not part of the tile spectrum", §IV).
    pub remote_tile_misses: u64,
    /// Lookups served *for* other ranks by this rank's comm thread
    /// (counted per key, so batch mode and base mode are comparable).
    pub requests_served: u64,
    /// Remote answers cached into the reads tables (add-remote mode).
    pub cached_answers: u64,
    /// Cache hits on previously cached answers.
    pub cache_hits: u64,
    /// Request **messages** this rank sent during correction: one per
    /// single-key lookup plus one per batch (aggregate mode). The
    /// quantity the lookup-aggregation heuristic minimizes.
    pub remote_messages: u64,
    /// Batched requests sent (aggregate mode).
    pub batches_sent: u64,
    /// Keys shipped inside those batches.
    pub batched_keys: u64,
    /// Aggregate mode: lookups answered from the chunk's first wave
    /// (counted as local, not remote), once per ask. A lookup a round's
    /// batch answers is counted in `batched_keys` only, once per distinct
    /// key of the round.
    pub prefetch_hits: u64,
    /// Batched requests this rank's comm thread answered for others.
    pub batches_served: u64,
    /// Request messages re-sent after a missed deadline (retry protocol;
    /// zero on a fault-free run).
    pub requests_retried: u64,
    /// Receive deadlines that expired while waiting for a response.
    pub deadline_misses: u64,
    /// Keys whose lookup exhausted the retry budget and degraded to the
    /// paper's "absent everywhere" answer (`-1` → count 0). Nonzero only
    /// when an owner is killed or the fault plan out-runs the budget.
    pub keys_degraded: u64,
    /// Lookups answered from a hot-shard replica (adaptive balancing,
    /// `hot_shard_k > 0`): would-be remote lookups turned local.
    pub hot_shard_hits: u64,
    /// Read chunks this rank stole from busier ranks (`steal_chunks`).
    pub chunks_stolen: u64,
}

impl LookupStats {
    /// All lookups that left the rank.
    pub fn remote_total(&self) -> u64 {
        self.remote_kmer_lookups + self.remote_tile_lookups
    }

    /// Mean keys per batch request (0 when no batches were sent).
    pub fn keys_per_batch(&self) -> f64 {
        if self.batches_sent == 0 {
            return 0.0;
        }
        self.batched_keys as f64 / self.batches_sent as f64
    }

    /// Merge counters (worker + server sides of one rank).
    pub fn merge(&mut self, o: &LookupStats) {
        self.local_kmer_lookups += o.local_kmer_lookups;
        self.local_tile_lookups += o.local_tile_lookups;
        self.remote_kmer_lookups += o.remote_kmer_lookups;
        self.remote_tile_lookups += o.remote_tile_lookups;
        self.remote_kmer_misses += o.remote_kmer_misses;
        self.remote_tile_misses += o.remote_tile_misses;
        self.requests_served += o.requests_served;
        self.cached_answers += o.cached_answers;
        self.cache_hits += o.cache_hits;
        self.remote_messages += o.remote_messages;
        self.batches_sent += o.batches_sent;
        self.batched_keys += o.batched_keys;
        self.prefetch_hits += o.prefetch_hits;
        self.batches_served += o.batches_served;
        self.requests_retried += o.requests_retried;
        self.deadline_misses += o.deadline_misses;
        self.keys_degraded += o.keys_degraded;
        self.hot_shard_hits += o.hot_shard_hits;
        self.chunks_stolen += o.chunks_stolen;
    }
}

/// One rank's full report.
#[derive(Clone, Debug, Default)]
pub struct RankReport {
    /// Rank id.
    pub rank: usize,
    /// Reads this rank corrected.
    pub reads_processed: u64,
    /// Construction-phase counters.
    pub build: BuildStats,
    /// Correction outcome counters.
    pub correction: CorrectionStats,
    /// Lookup/traffic counters.
    pub lookups: LookupStats,
    /// Modeled k-mer construction time, seconds (virtual engine) or
    /// measured wall seconds (threaded engine).
    pub construct_secs: f64,
    /// Modeled/measured total correction-phase time, seconds.
    pub correct_secs: f64,
    /// Of `correct_secs`, time attributable to communication.
    pub comm_secs: f64,
    /// Resident memory, bytes: process base overhead plus the spectrum
    /// tables' footprint — *measured* (flat-store slot arrays + headers,
    /// `RankTables::memory_bytes`) in the threaded engine, derived from
    /// the same flat-table geometry per entry count in the virtual
    /// engine. `build.table_bytes` carries the table-only portion.
    pub memory_bytes: f64,
    /// Snapshot bytes this rank read (`load_spectrum` runs; 0 otherwise).
    pub snapshot_bytes_read: u64,
    /// Snapshot bytes this rank wrote (`save_spectrum` runs; rank 0's
    /// figure includes the manifest).
    pub snapshot_bytes_written: u64,
    /// Wall (threaded) / modeled (virtual) seconds spent loading the
    /// snapshot — the number to hold against `construct_secs` of a fresh
    /// build when deciding whether build-once / correct-many pays off.
    pub snapshot_load_secs: f64,
    /// Seconds spent saving the snapshot.
    pub snapshot_save_secs: f64,
    /// Reed-Solomon shard repair this rank performed during a
    /// `load_spectrum` run under a `Repair` policy (all-zero on clean
    /// loads, `Strict` loads, and non-snapshot runs). `repair_ns` is
    /// wall time in the threaded engine and modeled time in the
    /// virtual one.
    pub repair: RepairStats,
}

/// A whole run: per-rank reports plus the layout that produced them.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-rank reports, indexed by rank.
    pub ranks: Vec<RankReport>,
    /// Node/rank layout of the run.
    pub topology: Topology,
    /// Cost model used (virtual engine) — kept for reproducibility.
    pub cost: CostModel,
}

impl RunReport {
    /// Job completion time: the slowest rank (construction and correction
    /// are globally barriered phases, so phase maxima add).
    pub fn makespan_secs(&self) -> f64 {
        let construct = self.ranks.iter().map(|r| r.construct_secs).fold(0.0, f64::max);
        let correct = self.ranks.iter().map(|r| r.correct_secs).fold(0.0, f64::max);
        construct + correct
    }

    /// Max construction time across ranks (the "k-mer construction time"
    /// series of Figs 2/6/7/8).
    pub fn construct_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.construct_secs).fold(0.0, f64::max)
    }

    /// Max correction time across ranks (the "error correction time"
    /// series).
    pub fn correct_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.correct_secs).fold(0.0, f64::max)
    }

    /// Mean correction time across ranks. On scaled datasets with few
    /// reads per rank the max is inflated by Poisson count variance that
    /// the paper's full-size runs do not have; the mean is the
    /// regime-independent scaling signal (see EXPERIMENTS.md).
    pub fn correct_secs_mean(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.correct_secs).sum::<f64>() / self.ranks.len() as f64
    }

    /// Total errors corrected across ranks.
    pub fn errors_corrected(&self) -> u64 {
        self.ranks.iter().map(|r| r.correction.errors_corrected).sum()
    }

    /// Largest per-rank modeled memory footprint, bytes (Fig 5's memory
    /// series reports the highest-footprint rank).
    pub fn peak_memory_bytes(&self) -> f64 {
        self.ranks.iter().map(|r| r.memory_bytes).fold(0.0, f64::max)
    }

    /// Fraction of the build's combined extract + exchange time that the
    /// pipelined builder hid by overlapping the two (summed over ranks;
    /// 0 for the serial path, approaches 1/2 when the sides are equal
    /// and every round overlaps).
    pub fn build_overlap_fraction(&self) -> f64 {
        let overlap: u64 = self.ranks.iter().map(|r| r.build.overlap_ns).sum();
        let total: u64 = self.ranks.iter().map(|r| r.build.extract_ns + r.build.exchange_ns).sum();
        if total == 0 {
            return 0.0;
        }
        overlap as f64 / total as f64
    }

    /// Total distinct `(key, count)` pairs shipped through the build's
    /// count exchanges, all ranks.
    pub fn exchanged_entries(&self) -> u64 {
        self.ranks.iter().map(|r| r.build.exchange_entries).sum()
    }

    /// Total bytes shipped through the build's count exchanges, all ranks.
    pub fn exchanged_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.build.exchange_bytes).sum()
    }

    /// Pre-aggregation compression: raw off-rank occurrences per shipped
    /// distinct entry (1.0 = nothing deduped; higher is better).
    pub fn exchange_compression(&self) -> f64 {
        let entries = self.exchanged_entries();
        if entries == 0 {
            return 1.0;
        }
        self.ranks.iter().map(|r| r.build.exchange_occurrences).sum::<u64>() as f64 / entries as f64
    }

    /// Ratio slowest/fastest rank correction time (load imbalance, Fig 4).
    pub fn imbalance_ratio(&self) -> f64 {
        let max = self.ranks.iter().map(|r| r.correct_secs).fold(0.0, f64::max);
        let min = self.ranks.iter().map(|r| r.correct_secs).fold(f64::INFINITY, f64::min);
        if min <= 0.0 || !min.is_finite() {
            return 1.0;
        }
        max / min
    }

    /// Straggler spread: `(max − min) / mean` of per-rank correction
    /// time. 0 on a perfectly balanced run; the adaptive-balancing
    /// metric the `balance_bench` floors watch (unlike
    /// [`imbalance_ratio`](Self::imbalance_ratio) it stays finite when
    /// the fastest rank rounds to zero).
    pub fn straggler_spread(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let max = self.ranks.iter().map(|r| r.correct_secs).fold(0.0, f64::max);
        let min = self.ranks.iter().map(|r| r.correct_secs).fold(f64::INFINITY, f64::min);
        let mean = self.correct_secs_mean();
        if mean <= 0.0 {
            return 0.0;
        }
        (max - min) / mean
    }

    /// Total lookups answered from hot-shard replicas, all ranks.
    pub fn hot_shard_hits(&self) -> u64 {
        self.ranks.iter().map(|r| r.lookups.hot_shard_hits).sum()
    }

    /// Total read chunks moved by work stealing, all ranks.
    pub fn chunks_stolen(&self) -> u64 {
        self.ranks.iter().map(|r| r.lookups.chunks_stolen).sum()
    }

    /// Total lookups that actually crossed ranks, all ranks — the
    /// traffic hot-shard replication removes.
    pub fn remote_lookups(&self) -> u64 {
        self.ranks.iter().map(|r| r.lookups.remote_total()).sum()
    }

    /// Total snapshot bytes read across ranks (0 on non-snapshot runs).
    pub fn snapshot_bytes_read(&self) -> u64 {
        self.ranks.iter().map(|r| r.snapshot_bytes_read).sum()
    }

    /// Total snapshot bytes written across ranks (rank 0 includes the
    /// manifest).
    pub fn snapshot_bytes_written(&self) -> u64 {
        self.ranks.iter().map(|r| r.snapshot_bytes_written).sum()
    }

    /// Slowest rank's snapshot load time — the barriered-phase cost a
    /// loaded run pays instead of `construct_secs`.
    pub fn snapshot_load_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.snapshot_load_secs).fold(0.0, f64::max)
    }

    /// Slowest rank's snapshot save time.
    pub fn snapshot_save_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.snapshot_save_secs).fold(0.0, f64::max)
    }

    /// Total data shards reconstructed from parity across ranks (0 on
    /// clean or `Strict` loads).
    pub fn shards_repaired(&self) -> u64 {
        self.ranks.iter().map(|r| r.repair.shards_repaired).sum()
    }

    /// Total bytes of shard data reconstructed from parity, all ranks.
    pub fn repair_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.repair.bytes_reconstructed).sum()
    }

    /// Slowest rank's repair time, seconds — loads are a barriered
    /// phase, so the straggler's repair is what the run actually pays.
    pub fn repair_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.repair.repair_ns as f64 * 1e-9).fold(0.0, f64::max)
    }

    /// Total out-of-core spill runs written across ranks (0 unless a
    /// memory budget was set and tripped).
    pub fn spill_runs(&self) -> u64 {
        self.ranks.iter().map(|r| r.build.spill_runs).sum()
    }

    /// Total bytes of spill run files written across ranks.
    pub fn spill_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.build.spill_bytes).sum()
    }

    /// Slowest rank's run-merge time, seconds — construction barriers
    /// before correction, so the straggler's merge is the cost the
    /// budgeted build actually pays.
    pub fn merge_secs(&self) -> f64 {
        self.ranks.iter().map(|r| r.build.merge_ns as f64 * 1e-9).fold(0.0, f64::max)
    }

    /// Largest per-rank high-water mark of the out-of-core accounted
    /// bytes (tables + accumulators + spill buffers; 0 on unbudgeted
    /// runs). The `ooc-floor` rows of `figures -- bench-json` check this
    /// against the budget.
    pub fn ooc_peak_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.build.ooc_peak_bytes).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(construct: f64, correct: f64, comm: f64) -> RankReport {
        RankReport {
            construct_secs: construct,
            correct_secs: correct,
            comm_secs: comm,
            ..Default::default()
        }
    }

    fn run(ranks: Vec<RankReport>) -> RunReport {
        RunReport { ranks, topology: Topology::new(32), cost: CostModel::bgq() }
    }

    #[test]
    fn makespan_is_sum_of_phase_maxima() {
        let r = run(vec![rank(1.0, 10.0, 5.0), rank(2.0, 8.0, 4.0)]);
        assert_eq!(r.construct_secs(), 2.0);
        assert_eq!(r.correct_secs(), 10.0);
        assert_eq!(r.makespan_secs(), 12.0);
    }

    #[test]
    fn imbalance_ratio_computed() {
        let r = run(vec![rank(0.0, 4.0, 0.0), rank(0.0, 16.0, 0.0)]);
        assert_eq!(r.imbalance_ratio(), 4.0);
        let uniform = run(vec![rank(0.0, 5.0, 0.0), rank(0.0, 5.0, 0.0)]);
        assert_eq!(uniform.imbalance_ratio(), 1.0);
    }

    #[test]
    fn build_aggregates_from_rank_stats() {
        let mut a = rank(1.0, 1.0, 0.0);
        a.build.extract_ns = 600;
        a.build.exchange_ns = 400;
        a.build.overlap_ns = 300;
        a.build.exchange_entries = 10;
        a.build.exchange_occurrences = 40;
        a.build.exchange_bytes = 160;
        let mut b = rank(1.0, 1.0, 0.0);
        b.build.extract_ns = 400;
        b.build.exchange_ns = 600;
        b.build.overlap_ns = 100;
        b.build.exchange_entries = 10;
        b.build.exchange_occurrences = 20;
        b.build.exchange_bytes = 160;
        let r = run(vec![a, b]);
        assert_eq!(r.build_overlap_fraction(), 400.0 / 2000.0);
        assert_eq!(r.exchanged_entries(), 20);
        assert_eq!(r.exchanged_bytes(), 320);
        assert_eq!(r.exchange_compression(), 3.0);
        // degenerate runs: no exchange at all
        let empty = run(vec![rank(0.0, 0.0, 0.0)]);
        assert_eq!(empty.build_overlap_fraction(), 0.0);
        assert_eq!(empty.exchange_compression(), 1.0);
    }

    #[test]
    fn lookup_stats_merge() {
        let mut a = LookupStats { remote_tile_lookups: 5, ..Default::default() };
        let b = LookupStats {
            remote_tile_lookups: 7,
            requests_served: 3,
            remote_messages: 9,
            batches_sent: 2,
            batched_keys: 40,
            prefetch_hits: 30,
            batches_served: 1,
            requests_retried: 4,
            deadline_misses: 5,
            keys_degraded: 6,
            hot_shard_hits: 8,
            chunks_stolen: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.remote_tile_lookups, 12);
        assert_eq!(a.requests_served, 3);
        assert_eq!(a.remote_total(), 12);
        assert_eq!(a.remote_messages, 9);
        assert_eq!(a.batches_sent, 2);
        assert_eq!(a.batched_keys, 40);
        assert_eq!(a.prefetch_hits, 30);
        assert_eq!(a.batches_served, 1);
        assert_eq!(a.requests_retried, 4);
        assert_eq!(a.deadline_misses, 5);
        assert_eq!(a.keys_degraded, 6);
        assert_eq!(a.hot_shard_hits, 8);
        assert_eq!(a.chunks_stolen, 2);
    }

    #[test]
    fn straggler_spread_and_skew_aggregates() {
        // ranks at 4s/16s: mean 10, spread (16-4)/10
        let r = run(vec![rank(0.0, 4.0, 0.0), rank(0.0, 16.0, 0.0)]);
        assert!((r.straggler_spread() - 1.2).abs() < 1e-12);
        let uniform = run(vec![rank(0.0, 5.0, 0.0), rank(0.0, 5.0, 0.0)]);
        assert_eq!(uniform.straggler_spread(), 0.0);
        assert_eq!(run(vec![]).straggler_spread(), 0.0);
        let mut a = rank(0.0, 1.0, 0.0);
        a.lookups.hot_shard_hits = 10;
        a.lookups.chunks_stolen = 1;
        a.lookups.remote_kmer_lookups = 3;
        let mut b = rank(0.0, 1.0, 0.0);
        b.lookups.hot_shard_hits = 5;
        b.lookups.remote_tile_lookups = 4;
        let r = run(vec![a, b]);
        assert_eq!(r.hot_shard_hits(), 15);
        assert_eq!(r.chunks_stolen(), 1);
        assert_eq!(r.remote_lookups(), 7);
    }

    #[test]
    fn snapshot_aggregates() {
        let mut a = rank(0.0, 0.0, 0.0);
        a.snapshot_bytes_read = 100;
        a.snapshot_bytes_written = 300;
        a.snapshot_load_secs = 0.5;
        a.snapshot_save_secs = 0.1;
        let mut b = rank(0.0, 0.0, 0.0);
        b.snapshot_bytes_read = 50;
        b.snapshot_load_secs = 0.2;
        let r = run(vec![a, b]);
        assert_eq!(r.snapshot_bytes_read(), 150);
        assert_eq!(r.snapshot_bytes_written(), 300);
        assert_eq!(r.snapshot_load_secs(), 0.5);
        assert_eq!(r.snapshot_save_secs(), 0.1);
    }

    #[test]
    fn repair_aggregates() {
        let mut a = rank(0.0, 0.0, 0.0);
        a.repair = RepairStats {
            shards_repaired: 2,
            bytes_reconstructed: 4096,
            survivor_bytes_read: 12_288,
            shards_rewritten: 1,
            repair_ns: 2_000_000_000,
            ..RepairStats::default()
        };
        let mut b = rank(0.0, 0.0, 0.0);
        b.repair.shards_repaired = 1;
        b.repair.bytes_reconstructed = 100;
        b.repair.repair_ns = 500_000_000;
        let r = run(vec![a, b]);
        assert_eq!(r.shards_repaired(), 3);
        assert_eq!(r.repair_bytes(), 4196);
        assert_eq!(r.repair_secs(), 2.0, "barriered phase pays the straggler");
        // clean runs report zeros
        let clean = run(vec![rank(0.0, 0.0, 0.0)]);
        assert_eq!(clean.shards_repaired(), 0);
        assert_eq!(clean.repair_secs(), 0.0);
    }

    #[test]
    fn batch_stat_derivations() {
        let s = LookupStats { batches_sent: 4, batched_keys: 100, ..Default::default() };
        assert_eq!(s.keys_per_batch(), 25.0);
        assert_eq!(LookupStats::default().keys_per_batch(), 0.0);
    }
}
