//! Storage-engine race: the flat open-addressing spectrum store vs the
//! `FxHashMap` it replaced, measured at the pipeline's real operating
//! point (insert-heavy construction, threshold prune, point lookups).
//!
//! Two numbers matter for the paper's memory story:
//!
//! 1. **bytes/entry after pruning** — `prune` on a hash map (`retain`)
//!    keeps the peak-size allocation, while the flat store rebuilds to
//!    the smallest power-of-two capacity that fits the survivors.
//!    Singletons (sequencing errors) are the majority of a real
//!    spectrum, so the post-prune state is where Fig 5's peak-memory
//!    rows live, and where the flat store wins by well over 2×;
//! 2. **point-lookup latency** — linear probing over packed parallel
//!    arrays must be no slower than the hash map on the hit/miss mix
//!    the corrector generates.
//!
//! `run()` measures both plus build/sweep throughput; its record is
//! written to `BENCH_spectrum.json` by `figures -- bench-json`, where
//! the `perf-floor` row holds `flat.bulk_ns_per_key` to 30 ns/key.

use crate::{group, time_ns_per_op, Metrics};
use dnaseq::{mix64, FxHashMap};
use reptile::FlatKmerTable;

/// Estimated heap bytes of a hashbrown-backed `HashMap` at `capacity()
/// == usable`: buckets are the next power of two holding `usable` at
/// 7/8 load, each bucket pays the entry payload plus one control byte.
/// Slightly conservative (the real table adds a few trailing control
/// bytes), which only understates the flat store's advantage.
pub fn fx_table_bytes(usable_capacity: usize, entry_bytes: usize) -> usize {
    let header = std::mem::size_of::<FxHashMap<u64, u32>>();
    if usable_capacity == 0 {
        return header;
    }
    let buckets = ((usable_capacity * 8).div_ceil(7)).next_power_of_two().max(4);
    header + buckets * (entry_bytes + 1)
}

/// One engine's measurements.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineNumbers {
    /// Heap bytes per surviving entry after the threshold prune.
    pub bytes_per_entry_post_prune: f64,
    /// Construction: ns per inserted key occurrence.
    pub build_ns_per_key: f64,
    /// Bulk construction from pre-aggregated sorted distinct entries
    /// (the pipelined build's materialization path): ns per key. Flat:
    /// exact reserve + one probe-start-ordered bulk load; FxHashMap:
    /// pre-sized `with_capacity` + per-entry insert.
    pub bulk_ns_per_key: f64,
    /// Point lookup, key present, ns.
    pub lookup_hit_ns: f64,
    /// Point lookup, key absent, ns.
    pub lookup_miss_ns: f64,
    /// Full-table sweep (batch serving), ns per entry.
    pub sweep_ns_per_entry: f64,
}

/// The race result; [`SpectrumBenchReport::metrics`] is its record.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpectrumBenchReport {
    /// Distinct keys inserted before pruning.
    pub inserted_keys: usize,
    /// Keys surviving `prune(2)` (the non-singletons).
    pub survivors: usize,
    /// Flat open-addressing store.
    pub flat: EngineNumbers,
    /// `FxHashMap` baseline.
    pub fxhash: EngineNumbers,
}

impl SpectrumBenchReport {
    /// How many times smaller the flat store is per surviving entry.
    pub fn bytes_per_entry_improvement(&self) -> f64 {
        self.fxhash.bytes_per_entry_post_prune / self.flat.bytes_per_entry_post_prune
    }

    /// The `BENCH_spectrum.json` record.
    pub fn metrics(&self) -> Metrics {
        [
            group(
                "workload",
                &[
                    ("inserted_keys", self.inserted_keys as f64),
                    ("survivors", self.survivors as f64),
                    ("prune_threshold", 2.0),
                ],
            ),
            self.flat.metrics("flat"),
            self.fxhash.metrics("fxhash"),
            group("ratios", &[("bytes_per_entry_improvement", self.bytes_per_entry_improvement())]),
        ]
        .concat()
    }
}

impl EngineNumbers {
    fn metrics(&self, engine: &str) -> Metrics {
        group(
            engine,
            &[
                ("bytes_per_entry_post_prune", self.bytes_per_entry_post_prune),
                ("build_ns_per_key", self.build_ns_per_key),
                ("bulk_ns_per_key", self.bulk_ns_per_key),
                ("lookup_hit_ns", self.lookup_hit_ns),
                ("lookup_miss_ns", self.lookup_miss_ns),
                ("sweep_ns_per_entry", self.sweep_ns_per_entry),
            ],
        )
    }
}

/// Deterministic spectrum-like workload: `n` distinct well-mixed keys,
/// one quarter of them repeated so they survive `prune(2)` — the
/// singleton-dominated profile of a real k-mer spectrum.
fn workload(n: usize) -> Vec<u64> {
    let mut keys = Vec::with_capacity(n + n / 4 * 2);
    for i in 0..n as u64 {
        // sentinel-adjacent keys are legal; keep them in the stream
        keys.push(mix64(i));
    }
    for i in (0..n as u64).step_by(4) {
        keys.push(mix64(i));
        keys.push(mix64(i));
    }
    keys
}

/// Absent-key probe stream (disjoint from [`workload`] by construction:
/// `mix64` is a bijection and the offset range does not overlap).
fn miss_probes(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| mix64(i + (1 << 40))).collect()
}

/// Run the race on `n` distinct keys (use ≥ 100_000 for stable numbers;
/// the `bench-json` subcommand uses 200_000).
pub fn run(n: usize) -> SpectrumBenchReport {
    let keys = workload(n);
    let misses = miss_probes(n.min(50_000));

    // --- build ---
    let flat_build_ns = time_ns_per_op(3, keys.len(), || {
        let mut t = FlatKmerTable::new();
        for &k in &keys {
            t.add_count(k, 1);
        }
        t.len()
    });
    let fx_build_ns = time_ns_per_op(3, keys.len(), || {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for &k in &keys {
            *m.entry(k).or_insert(0) += 1;
        }
        m.len()
    });

    // --- bulk construction from sorted distinct entries (what the
    // pipelined spectrum build hands the table after aggregation) ---
    let mut entries: Vec<(u64, u32)> = {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut out: Vec<(u64, u32)> = Vec::new();
        for k in sorted {
            match out.last_mut() {
                Some(last) if last.0 == k => last.1 += 1,
                _ => out.push((k, 1)),
            }
        }
        out
    };
    entries.shrink_to_fit();
    let flat_bulk_ns = time_ns_per_op(3, entries.len(), || {
        let mut t = FlatKmerTable::new();
        t.reserve(entries.len());
        t.merge_sorted(&entries);
        t.len()
    });
    let fx_bulk_ns = time_ns_per_op(3, entries.len(), || {
        let mut m: FxHashMap<u64, u32> =
            FxHashMap::with_capacity_and_hasher(entries.len(), Default::default());
        for &(k, c) in &entries {
            m.insert(k, c);
        }
        m.len()
    });

    // --- the post-prune operating point ---
    let mut flat = FlatKmerTable::new();
    let mut fx: FxHashMap<u64, u32> = FxHashMap::default();
    for &k in &keys {
        flat.add_count(k, 1);
        *fx.entry(k).or_insert(0) += 1;
    }
    flat.prune(2);
    fx.retain(|_, c| *c >= 2);
    let survivors = flat.len();
    assert_eq!(survivors, fx.len());
    let flat_bytes = flat.memory_bytes() as f64 / survivors.max(1) as f64;
    let fx_bytes = fx_table_bytes(fx.capacity(), std::mem::size_of::<(u64, u32)>()) as f64
        / survivors.max(1) as f64;

    // --- point lookups on the pruned tables ---
    // probe in an order random wrt BOTH layouts (iterating a table in
    // its own slot order would hand that table sequential prefetch)
    let mut hits: Vec<u64> = flat.iter().map(|(k, _)| k).collect();
    hits.sort_unstable_by_key(|&k| mix64(k ^ 0x5bd1_e995));
    let flat_hit_ns = time_ns_per_op(5, hits.len(), || {
        hits.iter().map(|&k| flat.get(k).unwrap_or(0) as u64).sum::<u64>()
    });
    let fx_hit_ns = time_ns_per_op(5, hits.len(), || {
        hits.iter().map(|&k| fx.get(&k).copied().unwrap_or(0) as u64).sum::<u64>()
    });
    let flat_miss_ns = time_ns_per_op(5, misses.len(), || {
        misses.iter().filter(|&&k| flat.get(k).is_some()).count()
    });
    let fx_miss_ns =
        time_ns_per_op(5, misses.len(), || misses.iter().filter(|&&k| fx.contains_key(&k)).count());

    // --- full-table sweep (batch serving answers from one pass) ---
    let flat_sweep_ns =
        time_ns_per_op(5, survivors, || flat.iter().map(|(_, c)| c as u64).sum::<u64>());
    let fx_sweep_ns = time_ns_per_op(5, survivors, || fx.values().map(|&c| c as u64).sum::<u64>());

    SpectrumBenchReport {
        inserted_keys: n,
        survivors,
        flat: EngineNumbers {
            bytes_per_entry_post_prune: flat_bytes,
            build_ns_per_key: flat_build_ns,
            bulk_ns_per_key: flat_bulk_ns,
            lookup_hit_ns: flat_hit_ns,
            lookup_miss_ns: flat_miss_ns,
            sweep_ns_per_entry: flat_sweep_ns,
        },
        fxhash: EngineNumbers {
            bytes_per_entry_post_prune: fx_bytes,
            build_ns_per_key: fx_build_ns,
            bulk_ns_per_key: fx_bulk_ns,
            lookup_hit_ns: fx_hit_ns,
            lookup_miss_ns: fx_miss_ns,
            sweep_ns_per_entry: fx_sweep_ns,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_byte_estimate_tracks_hashbrown_geometry() {
        // empty map: header only
        assert_eq!(fx_table_bytes(0, 16), std::mem::size_of::<FxHashMap<u64, u32>>());
        // 7 usable slots -> 8 buckets of 17 bytes
        let header = std::mem::size_of::<FxHashMap<u64, u32>>();
        assert_eq!(fx_table_bytes(7, 16), header + 8 * 17);
        assert_eq!(fx_table_bytes(14, 16), header + 16 * 17);
    }

    /// The acceptance criterion: ≥ 2× lower bytes/entry than the
    /// FxHashMap baseline at the post-prune operating point. Geometry is
    /// deterministic, so this is assertable in CI (latency is reported
    /// in the JSON, not asserted).
    #[test]
    fn flat_store_halves_bytes_per_entry() {
        let r = run(40_000);
        assert!(r.survivors > 0);
        assert!(
            r.bytes_per_entry_improvement() >= 2.0,
            "flat {} B/e vs fxhash {} B/e — improvement {:.2}x < 2x",
            r.flat.bytes_per_entry_post_prune,
            r.fxhash.bytes_per_entry_post_prune,
            r.bytes_per_entry_improvement()
        );
    }
}
