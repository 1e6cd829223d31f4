//! Adaptive tallying of key occurrences for the pipelined build.
//!
//! The build's job between extraction and the flat tables is exactly
//! multiset counting: fold a few million raw key occurrences (plus
//! pre-counted `(key, count)` runs from exchanges) into sorted distinct
//! `(key, count)` entries. [`CountAcc`] picks the cheapest exact
//! strategy from the **key width** — spectrum keys are narrow (a k-mer
//! is `2k` bits, a tile `2·tile_len`), and counting gets dramatically
//! cheaper when the key space fits a machine-sized array:
//!
//! | key bits | strategy | per-occurrence work |
//! |----------|----------|---------------------|
//! | ≤ 22 | direct: `counts[key] += 1` into a `2^bits` array | one prefetched increment, no buffering at all |
//! | ≤ 32 | partition `u32` keys on the high bits, count each bucket in an L2-resident array | one 4-byte append + one scatter + one increment |
//! | ≤ 36 | same partition/count over `u64` storage | as above, 8-byte |
//! | ≤ 64 | LSD radix sort + run-length encode | `⌈bits/11⌉` streaming passes |
//! | ≤ 128 | LSD radix sort over `u128` + RLE | as above, 16-byte |
//!
//! Every strategy is exact and emits the same ascending distinct
//! entries with saturating counts; saturating addition of non-negative
//! counts is associative and commutative (`min(Σ, u32::MAX)` whatever
//! the fold order), so deferring the fold is bit-identical to the
//! serial reference's per-occurrence `add_count` loop.
//!
//! Raw buffering is bounded: past [`COMPACT_RAW`] occurrences the
//! buffer is folded into distinct runs in place, so accumulator memory
//! scales with *distinct* keys (like the serial hash tables), not with
//! total occurrences. [`CountAcc::finalize`] hands every buffer back to
//! the allocator and drops sub-threshold entries inside its merge, so
//! the build holds neither dead tally capacity nor the unpruned entry
//! vector while the tables are bulk-loaded.

use reptile::radix::lsd_sort_by;
use reptile::SpectrumKey;

/// Direct counting above this key width would outgrow the last-level
/// cache (`2^22` u32 counters = 16 MiB); wider keys partition instead.
const DIRECT_BITS: u32 = 22;
/// Low bits counted per partition bucket: a `2^18`-counter scratch
/// (1 MiB) stays cache-resident while a bucket is counted.
const PART_LOW_BITS: u32 = 18;
/// Partition/count works while `bits - PART_LOW_BITS` top bits keep the
/// bucket table small; past this the accumulator falls back to sorting.
const PART_BITS_MAX: u32 = 36;
/// Fold the raw occurrence buffer into distinct runs past this many
/// buffered keys, bounding accumulator memory by distinct keys.
const COMPACT_RAW: usize = 1 << 22;
/// Software-prefetch lookahead for the direct-count increment loop.
const COUNT_AHEAD: usize = 16;

/// Bytes of the direct strategy's fixed `2^bits` count array, 0 for
/// widths that use a buffered strategy. This is the irreducible
/// accumulator floor a memory budget must cover: the array cannot spill
/// (it *is* the aggregation), only its drained entries can.
pub(crate) fn direct_array_bytes(bits: u32) -> u64 {
    if bits <= DIRECT_BITS {
        4u64 << bits
    } else {
        0
    }
}

/// Which counting strategy a key width selects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Strategy {
    Direct,
    Part32,
    Part64,
    Sort64,
    Sort128,
}

fn strategy_for(bits: u32) -> Strategy {
    match bits {
        0..=DIRECT_BITS => Strategy::Direct,
        23..=32 => Strategy::Part32,
        33..=PART_BITS_MAX => Strategy::Part64,
        37..=64 => Strategy::Sort64,
        _ => Strategy::Sort128,
    }
}

/// An exact, width-adaptive occurrence tally (see the module docs).
///
/// Feed it raw occurrences ([`push_keys`]) and pre-counted runs from
/// exchanges ([`push_run`]); [`finalize`] returns the sorted distinct
/// `(key, count)` entries whose saturating count reaches its
/// `min_count`.
///
/// [`push_keys`]: CountAcc::push_keys
/// [`push_run`]: CountAcc::push_run
/// [`finalize`]: CountAcc::finalize
pub(crate) struct CountAcc<K> {
    bits: u32,
    strategy: Strategy,
    /// Direct strategy: `2^bits` saturating counters, allocated on the
    /// first push so untouched accumulators cost nothing.
    counts: Vec<u32>,
    /// Direct strategy: cells of `counts` currently non-zero. Keeps
    /// [`finalize`] scan-free and lets [`pending_entry_bytes`] expose
    /// the implicit working set (the direct array's *resident* size is
    /// constant, so occupancy is the only spill signal it has).
    ///
    /// [`finalize`]: CountAcc::finalize
    /// [`pending_entry_bytes`]: CountAcc::pending_entry_bytes
    occupied: usize,
    raw32: Vec<u32>,
    raw64: Vec<u64>,
    raw128: Vec<u128>,
    /// Pre-counted entries (exchange output and compacted raw); may
    /// repeat keys across pushes, folded at finalize.
    runs: Vec<(K, u32)>,
}

impl<K: SpectrumKey> CountAcc<K> {
    /// An empty tally for keys of the given width.
    pub(crate) fn new(bits: u32) -> CountAcc<K> {
        assert!((1..=128).contains(&bits));
        CountAcc {
            bits,
            strategy: strategy_for(bits),
            counts: Vec::new(),
            occupied: 0,
            raw32: Vec::new(),
            raw64: Vec::new(),
            raw128: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Tally a batch of raw key occurrences (each counts 1).
    pub(crate) fn push_keys(&mut self, keys: &[K]) {
        match self.strategy {
            Strategy::Direct => {
                if self.counts.is_empty() && !keys.is_empty() {
                    self.counts = vec![0u32; 1 << self.bits];
                }
                let counts = &mut self.counts[..];
                let mut newly = 0usize;
                for (i, k) in keys.iter().enumerate() {
                    if let Some(nk) = keys.get(i + COUNT_AHEAD) {
                        dnaseq::simd::prefetch_read(counts, nk.to_u128() as usize);
                    }
                    let idx = k.to_u128() as usize;
                    newly += (counts[idx] == 0) as usize;
                    counts[idx] = counts[idx].saturating_add(1);
                }
                self.occupied += newly;
            }
            Strategy::Part32 => self.raw32.extend(keys.iter().map(|k| k.to_u128() as u32)),
            Strategy::Part64 | Strategy::Sort64 => {
                self.raw64.extend(keys.iter().map(|k| k.to_u128() as u64))
            }
            Strategy::Sort128 => self.raw128.extend(keys.iter().map(|k| k.to_u128())),
        }
        if self.raw32.len() >= COMPACT_RAW
            || self.raw64.len() >= COMPACT_RAW
            || self.raw128.len() >= COMPACT_RAW / 2
        {
            self.compact();
        }
    }

    /// Merge a run of pre-counted `(key, count)` entries (saturating).
    pub(crate) fn push_run(&mut self, run: &[(K, u32)]) {
        match self.strategy {
            Strategy::Direct => {
                if self.counts.is_empty() && !run.is_empty() {
                    self.counts = vec![0u32; 1 << self.bits];
                }
                for &(k, c) in run {
                    let idx = k.to_u128() as usize;
                    self.occupied += (self.counts[idx] == 0 && c > 0) as usize;
                    self.counts[idx] = self.counts[idx].saturating_add(c);
                }
            }
            _ => self.runs.extend_from_slice(run),
        }
    }

    /// Fold buffered raw occurrences into `runs`, emptying the raw
    /// buffer (its capacity stays for the pushes that follow) — called
    /// automatically past [`COMPACT_RAW`].
    fn compact(&mut self) {
        let entries = self.aggregate_raw(true);
        self.runs.extend(entries);
        // Keep `runs` itself bounded across many compactions.
        if self.runs.len() >= COMPACT_RAW / 2 {
            fold_sorted(&mut self.runs);
        }
    }

    /// Resident bytes of the accumulator's backing storage right now —
    /// the direct-count array plus the raw occurrence buffers plus the
    /// compacted entry runs, all at allocated capacity. This is the
    /// number the out-of-core build's memory budget charges between
    /// batches to decide when to spill. 0 after [`finalize`] (which a
    /// spill calls): it returns every buffer to the allocator.
    ///
    /// [`finalize`]: CountAcc::finalize
    pub(crate) fn memory_bytes(&self) -> usize {
        self.counts.capacity() * 4
            + self.raw32.capacity() * 4
            + self.raw64.capacity() * 8
            + self.raw128.capacity() * 16
            + self.runs.capacity() * std::mem::size_of::<(K, u32)>()
    }

    /// Upper bound on the entry bytes a [`finalize`] (hence a spill)
    /// would materialize right now — the out-of-core spill *trigger*.
    /// Distinct from [`memory_bytes`]: the direct-count array's
    /// resident size never changes, so its spill pressure is the
    /// occupancy, while the buffered strategies' pressure is everything
    /// they have queued (raw occurrences + runs, each at most one
    /// output entry).
    ///
    /// [`finalize`]: CountAcc::finalize
    /// [`memory_bytes`]: CountAcc::memory_bytes
    pub(crate) fn pending_entry_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(K, u32)>();
        match self.strategy {
            Strategy::Direct => self.occupied * entry,
            _ => {
                (self.raw32.len() + self.raw64.len() + self.raw128.len() + self.runs.len()) * entry
            }
        }
    }

    /// Whether this accumulator counts in a direct-index array. A
    /// direct kind never spills: the array *is* the aggregation (fixed
    /// size, charged in the out-of-core fixed floor), so draining it to
    /// disk frees nothing — the out-of-core finish streams it straight
    /// into the table via [`iter_direct`] instead.
    ///
    /// [`iter_direct`]: CountAcc::iter_direct
    pub(crate) fn is_direct(&self) -> bool {
        self.strategy == Strategy::Direct
    }

    /// Iterate the direct array's occupied slots in ascending key order
    /// without materializing an entry vector — the bounded-transient
    /// drain the out-of-core finish streams into the flat table.
    pub(crate) fn iter_direct(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        debug_assert!(self.is_direct());
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(k, &c)| (K::from_u128(k as u128), c))
    }

    /// Drain everything into sorted distinct entries (ascending keys,
    /// saturating counts) whose count is at least `min_count`, leaving
    /// the accumulator empty with every buffer freed (`memory_bytes()
    /// == 0`). The threshold applies to the folded totals inside the
    /// final merge, so a prune never allocates for the entries it
    /// drops; 0 keeps every entry.
    pub(crate) fn finalize(&mut self, min_count: u32) -> Vec<(K, u32)> {
        if self.strategy == Strategy::Direct {
            let counts = std::mem::take(&mut self.counts);
            let distinct = std::mem::take(&mut self.occupied);
            if counts.is_empty() {
                return Vec::new();
            }
            // Branchless emit at the occupancy-tracked exact size: every
            // slot stores unconditionally at a cursor that only advances
            // past non-zero counts (the spare slot absorbs the trailing
            // dummy writes) — no per-slot branch for ~25%-dense counters
            // to mispredict, and no sizing pre-pass (pushes counted
            // 0→non-zero transitions as they happened).
            let min = min_count.max(1);
            let mut out: Vec<(K, u32)> = vec![(K::from_u128(0), 0); distinct + 1];
            let mut j = 0usize;
            for (k, &c) in counts.iter().enumerate() {
                out[j] = (K::from_u128(k as u128), c);
                j += (c >= min) as usize;
            }
            out.truncate(j);
            return out;
        }
        let entries = self.aggregate_raw(false);
        let mut runs = std::mem::take(&mut self.runs);
        fold_sorted(&mut runs);
        merge_entry_runs(entries, runs, min_count)
    }

    /// Aggregate the raw occurrence buffer into sorted distinct entries
    /// via the width-selected strategy, emptying the buffer; `keep`
    /// retains its capacity for further pushes, otherwise it is freed.
    fn aggregate_raw(&mut self, keep: bool) -> Vec<(K, u32)> {
        let bits = self.bits;
        let out = match self.strategy {
            Strategy::Direct => unreachable!("direct strategy buffers no raw keys"),
            Strategy::Part32 => partition_count(&mut self.raw32, bits),
            Strategy::Part64 => partition_count(&mut self.raw64, bits),
            Strategy::Sort64 => sort_rle(&mut self.raw64, bits),
            Strategy::Sort128 => sort_rle(&mut self.raw128, bits),
        };
        if keep {
            self.raw32.clear();
            self.raw64.clear();
            self.raw128.clear();
        } else {
            self.raw32 = Vec::new();
            self.raw64 = Vec::new();
            self.raw128 = Vec::new();
        }
        out
    }
}

/// Sort `runs` by key and fold duplicates in place (saturating).
fn fold_sorted<K: SpectrumKey>(runs: &mut Vec<(K, u32)>) {
    runs.sort_unstable_by_key(|e| e.0);
    runs.dedup_by(|cur, acc| {
        if acc.0 == cur.0 {
            acc.1 = acc.1.saturating_add(cur.1);
            true
        } else {
            false
        }
    });
}

/// Two-pointer merge of two sorted distinct entry lists (saturating),
/// keeping the merged entries whose count is at least `min`. An
/// unpruned merge (`min == 0`) is sized up front; a pruning one grows
/// with its survivors only, so the distinct entries it drops never
/// share the heap with the table built from the result.
fn merge_entry_runs<K: SpectrumKey>(a: Vec<(K, u32)>, b: Vec<(K, u32)>, min: u32) -> Vec<(K, u32)> {
    if min == 0 {
        if a.is_empty() {
            return b;
        }
        if b.is_empty() {
            return a;
        }
    }
    let mut out: Vec<(K, u32)> = Vec::with_capacity(if min == 0 { a.len() + b.len() } else { 0 });
    let mut emit = |e: (K, u32)| {
        if e.1 >= min {
            out.push(e);
        }
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                emit(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                emit(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                emit((a[i].0, a[i].1.saturating_add(b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    a[i..].iter().chain(&b[j..]).for_each(|&e| emit(e));
    out
}

/// A raw-buffer word the counting strategies operate on.
///
/// `to_u64` is the hot-loop arithmetic width for partition/count (only
/// ever instantiated at `u32`/`u64`, where it is lossless); `widen` is
/// the lossless emission width.
trait PartWord: Copy {
    fn to_u64(self) -> u64;
    fn widen(self) -> u128;
}
impl PartWord for u32 {
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn widen(self) -> u128 {
        self as u128
    }
}
impl PartWord for u64 {
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self
    }
    #[inline(always)]
    fn widen(self) -> u128 {
        self as u128
    }
}
impl PartWord for u128 {
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn widen(self) -> u128 {
        self
    }
}

/// Count keys of `bits` width by partitioning on the top
/// `bits − PART_LOW_BITS` bits (one contiguous scatter), then counting
/// each bucket's low bits in a cache-resident `2^PART_LOW_BITS` array.
/// Buckets ascend by the high bits and each bucket emits ascending low
/// bits, so the concatenation is globally sorted.
fn partition_count<K: SpectrumKey, W: PartWord>(raw: &mut [W], bits: u32) -> Vec<(K, u32)> {
    if raw.is_empty() {
        return Vec::new();
    }
    debug_assert!(bits > PART_LOW_BITS && bits <= PART_BITS_MAX);
    let hi_bits = bits - PART_LOW_BITS;
    let nb = 1usize << hi_bits;
    let mut hist = vec![0u32; nb];
    for k in raw.iter() {
        hist[(k.to_u64() >> PART_LOW_BITS) as usize] += 1;
    }
    let mut starts = vec![0u32; nb + 1];
    let mut acc = 0u32;
    for (s, &h) in starts.iter_mut().zip(hist.iter()) {
        *s = acc;
        acc += h;
    }
    starts[nb] = acc;
    let mut cursors = starts[..nb].to_vec();
    let mut parts: Vec<W> = vec![raw[0]; raw.len()];
    for &k in raw.iter() {
        let b = (k.to_u64() >> PART_LOW_BITS) as usize;
        parts[cursors[b] as usize] = k;
        cursors[b] += 1;
    }
    let mut counts = vec![0u32; 1usize << PART_LOW_BITS];
    let mut touched: Vec<u32> = Vec::new();
    let mut out: Vec<(K, u32)> = Vec::new();
    let low_mask = (1u64 << PART_LOW_BITS) - 1;
    for b in 0..nb {
        let seg = &parts[starts[b] as usize..starts[b + 1] as usize];
        if seg.is_empty() {
            continue;
        }
        touched.clear();
        for &k in seg {
            let lo = (k.to_u64() & low_mask) as usize;
            if counts[lo] == 0 {
                touched.push(lo as u32);
            }
            counts[lo] = counts[lo].saturating_add(1);
        }
        touched.sort_unstable();
        let hi = (b as u64) << PART_LOW_BITS;
        for &lo in &touched {
            out.push((K::from_u128((hi | lo as u64) as u128), counts[lo as usize]));
            counts[lo as usize] = 0;
        }
    }
    out
}

/// Count keys by LSD radix sort plus a run-length sweep — the fully
/// general strategy for keys too wide to partition.
fn sort_rle<K: SpectrumKey, W: PartWord + reptile::radix::RadixWord + Ord>(
    raw: &mut Vec<W>,
    bits: u32,
) -> Vec<(K, u32)> {
    if raw.is_empty() {
        return Vec::new();
    }
    let mut tmp: Vec<W> = Vec::new();
    lsd_sort_by(raw, &mut tmp, bits, |&k| k);
    let mut out: Vec<(K, u32)> = Vec::new();
    for &k in raw.iter() {
        let key = K::from_u128(k.widen());
        match out.last_mut() {
            Some(last) if last.0 == key => last.1 = last.1.saturating_add(1),
            _ => out.push((key, 1)),
        }
    }
    out
}

/// Aggregate per-worker occurrence buckets into sorted distinct
/// `(key, count)` entries — the per-batch pre-aggregation the exchange
/// path runs on non-owned buckets before shipping them. Same adaptive
/// strategies as [`CountAcc`], via a throwaway accumulator.
pub(crate) fn aggregate_occurrences<'p, K: SpectrumKey + 'p>(
    parts: impl Iterator<Item = &'p Vec<K>>,
    bits: u32,
) -> Vec<(K, u32)> {
    let mut acc: CountAcc<K> = CountAcc::new(bits);
    for part in parts {
        acc.push_keys(part);
    }
    acc.finalize(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference<K: SpectrumKey>(keys: &[K], runs: &[(K, u32)]) -> Vec<(K, u32)> {
        let mut map: dnaseq::FxHashMap<K, u32> = dnaseq::FxHashMap::default();
        for &k in keys {
            let c = map.entry(k).or_insert(0);
            *c = c.saturating_add(1);
        }
        for &(k, c) in runs {
            let e = map.entry(k).or_insert(0);
            *e = e.saturating_add(c);
        }
        let mut v: Vec<(K, u32)> = map.into_iter().collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    /// Tally `keys` and `runs` interleaved — raw pushes, runs and an
    /// explicit compaction between them (the automatic trigger needs
    /// millions of keys) — and finalize at `min`, which must leave
    /// every buffer freed.
    fn tally<K: SpectrumKey>(bits: u32, keys: &[K], runs: &[(K, u32)], min: u32) -> Vec<(K, u32)> {
        let mut acc: CountAcc<K> = CountAcc::new(bits);
        let (kh, rh) = (keys.len() / 2, runs.len() / 2);
        acc.push_keys(&keys[..kh]);
        acc.push_run(&runs[..rh]);
        if !acc.is_direct() {
            acc.compact();
        }
        acc.push_keys(&keys[kh..]);
        acc.push_run(&runs[rh..]);
        let got = acc.finalize(min);
        assert_eq!(acc.memory_bytes(), 0, "bits={bits}: finalize left buffers allocated");
        got
    }

    /// `finalize(0)` against the hash reference, and `finalize(min)`
    /// against `finalize(0)` followed by `retain`, at thresholds that
    /// each drop the rarest keys and keep the commonest.
    fn check_tally<K: SpectrumKey>(bits: u32, keys: &[K], runs: &[(K, u32)]) {
        let all = tally(bits, keys, runs, 0);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "bits={bits}: not ascending");
        assert_eq!(all, reference(keys, runs), "bits={bits}");
        let lo = all.iter().map(|e| e.1).min().unwrap();
        let hi = all.iter().map(|e| e.1).max().unwrap();
        assert!(lo < hi, "bits={bits}: uniform counts prune all or nothing");
        for min in [lo + 1, (lo + hi) / 2 + 1, hi] {
            let mut kept = all.clone();
            kept.retain(|&(_, c)| c >= min);
            assert!(!kept.is_empty() && kept.len() < all.len(), "bits={bits} min={min}: no prune");
            assert_eq!(tally(bits, keys, runs, min), kept, "bits={bits} min={min}");
        }
    }

    fn keys_u64(n: usize, bits: u32, seed: u64) -> Vec<u64> {
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        (0..n as u64).map(|i| dnaseq::mix64(seed ^ (i % 700)) & mask).collect()
    }

    #[test]
    fn every_strategy_matches_hash_counting_u64() {
        for bits in [4u32, 20, 22, 23, 30, 32, 33, 36, 37, 48, 64] {
            let keys = keys_u64(5000, bits, 11);
            let runs: Vec<(u64, u32)> =
                keys_u64(300, bits, 99).into_iter().map(|k| (k, 1 + (k % 5) as u32)).collect();
            check_tally(bits, &keys, &runs);
        }
    }

    #[test]
    fn every_strategy_matches_hash_counting_u128() {
        for bits in [20u32, 30, 36, 60, 70, 100, 128] {
            let mask = if bits == 128 { u128::MAX } else { (1u128 << bits) - 1 };
            let keys: Vec<u128> = (0..4000u64)
                .map(|i| {
                    (((dnaseq::mix64(i % 531) as u128) << 64)
                        | dnaseq::mix64((i % 531) ^ 7) as u128)
                        & mask
                })
                .collect();
            let runs: Vec<(u128, u32)> = keys.iter().step_by(9).map(|&k| (k, 3)).collect();
            check_tally(bits, &keys, &runs);
        }
    }

    #[test]
    fn compaction_preserves_counts() {
        // Force mid-stream compaction explicitly (the automatic trigger
        // needs millions of keys) and check the fold is lossless.
        for bits in [30u32, 48] {
            let keys = keys_u64(3000, bits, 5);
            let mut acc: CountAcc<u64> = CountAcc::new(bits);
            acc.push_keys(&keys[..1000]);
            acc.compact();
            acc.push_keys(&keys[1000..]);
            acc.compact();
            acc.compact(); // idempotent on an empty raw buffer
            let got = acc.finalize(0);
            assert_eq!(got, reference(&keys, &[]), "bits={bits}");
        }
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        for bits in [10u32, 30, 48] {
            let mut acc: CountAcc<u64> = CountAcc::new(bits);
            acc.push_run(&[(7, u32::MAX - 1)]);
            acc.push_keys(&[7, 7, 7]);
            acc.push_run(&[(7, u32::MAX)]);
            assert_eq!(acc.finalize(0), vec![(7u64, u32::MAX)], "bits={bits}");
        }
    }

    #[test]
    fn empty_and_untouched_accumulators_are_free() {
        let mut acc: CountAcc<u64> = CountAcc::new(20);
        assert!(acc.counts.is_empty(), "direct counters must allocate lazily");
        assert!(acc.finalize(0).is_empty());
        let mut acc: CountAcc<u128> = CountAcc::new(100);
        acc.push_keys(&[]);
        acc.push_run(&[]);
        assert!(acc.finalize(0).is_empty());
    }

    #[test]
    fn aggregate_occurrences_matches_sort_and_rle() {
        for (nparts, bits, mask) in
            [(1usize, 20u32, 0xF_FFFFu64), (3, 20, 0xF_FFFF), (7, 30, 0x3FFF_FFFF), (3, 8, 0xFF)]
        {
            let keys: Vec<u64> = (0..4000u64).map(|i| dnaseq::mix64(i % 977) & mask).collect();
            let parts: Vec<Vec<u64>> = (0..nparts)
                .map(|p| keys.iter().copied().skip(p).step_by(nparts).collect())
                .collect();
            let got = aggregate_occurrences(parts.iter(), bits);
            assert_eq!(got, reference(&keys, &[]), "nparts={nparts} bits={bits}");
        }
        let none: Vec<Vec<u64>> = vec![Vec::new(); 3];
        assert!(aggregate_occurrences(none.iter(), 20).is_empty());
    }
}
