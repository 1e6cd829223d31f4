//! Flat open-addressing key→count tables backing the spectra.
//!
//! The paper exists because spectra must fit in 512 MB/rank on
//! BlueGene/Q, yet a generic `HashMap<u64, u32>` spends most of its
//! footprint on layout overhead: the `(u64, u32)` pair pads to 16 bytes,
//! control bytes and a ≤7/8 load bound come on top, and `retain` (our
//! old `prune`) never returns capacity, so a pruned spectrum keeps the
//! peak-size allocation forever. Memory-frugal k-mer counters (KMC as
//! used by RECKONER, the distributed tables of the Extreme-Scale
//! Metagenome Assembly work) all converge on the same layout instead:
//! a flat power-of-two array of packed key+count slots with linear
//! probing, parameterised by key width. This module implements that
//! layout once, as [`FlatTable`] over the key kind ([`SpectrumKey`]),
//! with two instances:
//!
//! * [`FlatKmerTable`] — `u64` keys, one key lane + counts, 12 bytes per
//!   slot;
//! * [`FlatTileTable`] — `u128` keys split into two `u64` lanes so no
//!   slot needs 16-byte alignment, 20 bytes per slot (a `(u128, u32)`
//!   pair would pad to 32).
//!
//! Design:
//!
//! * capacity is always a power of two; the probe sequence starts at
//!   the top `log2(capacity)` bits of a Fibonacci multiply of the key's
//!   [`probe_hash`](SpectrumKey::probe_hash) (every input bit influences
//!   them, and golden-ratio spacing scatters similar codes) and steps
//!   linearly — cache-friendly for the batch sweeps;
//! * the all-ones key ([`SpectrumKey::SENTINEL`]) is the reserved empty
//!   marker, and a slot is vacant only when every lane is all-ones. The
//!   sentinel is still a *legal* code (k=32 poly-T), so its count lives
//!   in a side field instead of a slot;
//! * growth doubles when an insert would push occupancy past the
//!   configurable max load factor (default 3/4), giving amortized O(1)
//!   inserts;
//! * `prune` is tombstone-free: survivors are rehashed into the
//!   smallest capacity that fits them, so — unlike `retain` on a hash
//!   map — pruning singletons actually returns their memory. This is
//!   the operating point Fig 5's peak-memory series measures;
//! * counts saturate at `u32::MAX` instead of wrapping;
//! * [`FlatTable::memory_bytes`] is exact (slot arrays + header), and
//!   the static [`FlatTable::bytes_for_entries`] geometry predicts it
//!   from an entry count alone, which is what lets the virtual engine
//!   model per-table bytes without building tables.

use std::sync::Arc;

use crate::key::SpectrumKey;

/// Smallest allocated capacity (power of two).
const MIN_CAPACITY: usize = 16;
/// Default max load factor numerator/denominator: 3/4. At 7/8 the
/// post-prune table can sit at 0.76+ occupancy where linear-probing
/// miss chains average ~9 slots; 3/4 keeps misses short while staying
/// well under the hash map's bytes/entry (measured in
/// `reptile-bench`'s `spectrum_bench`).
const DEFAULT_LOAD: (usize, usize) = (3, 4);

/// Batch width of the `insert_batch` software-prefetch pipeline: while
/// one group of keys inserts, the probe-start cache lines of the next
/// group are requested. Sized to keep roughly a memory-parallelism
/// window of outstanding lines without thrashing L1.
const PREFETCH_GROUP: usize = 16;

/// Above this capacity the bulk-load probe-start indices would overflow
/// the `u32` radix pairs; such tables fall back to pipelined inserts
/// (4 G slots = 48 GB — far past any rank budget this code targets).
const BULK_LOAD_MAX_CAPACITY: usize = u32::MAX as usize;

/// The Fibonacci multiplier of the probe start: 2^64/φ.
const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Probe-start slot: Fibonacci (multiplicative) hashing — one multiply
/// by 2^64/φ, keeping the top log2(capacity) bits, which every input
/// bit influences. Golden-ratio spacing scatters near-identical codes
/// maximally far apart, which is exactly what linear probing wants, at
/// a third of `mix64`'s latency on the correction hot path.
#[inline]
fn probe_start(h: u64, mask: usize) -> usize {
    debug_assert!((mask + 1).is_power_of_two());
    (h.wrapping_mul(FIB_MUL) >> ((mask as u64 + 1).leading_zeros() + 1)) as usize
}

/// Fingerprint of the probe-function family: the Fibonacci multiplier of
/// the probe start folded with the tile-key mixing constant of
/// [`SpectrumKey::probe_hash`]. Slot arrays dumped to disk are only
/// probe-ready again if the loading build uses the *same* probe
/// functions, so snapshot headers record this value and reject a
/// mismatch instead of returning garbage lookups. Changing either
/// constant changes the seed and invalidates old snapshots, which is
/// exactly the point.
pub const HASH_SEED: u64 = FIB_MUL ^ crate::key::TILE_FOLD_MUL;

/// Slot-array backing: owned and mutable, or a shared slab adopted from a
/// loaded snapshot. The mapped form is the borrowed half of the Cow-style
/// split — probes read it in place (no rehash, no per-slot copy into a
/// fresh allocation), and the first mutation copies it into owned storage.
#[derive(Clone, Debug)]
enum Slab<T: Copy> {
    /// Private, growable storage (every table built in memory).
    Owned(Vec<T>),
    /// Shared immutable slab (snapshot-loaded tables; possibly aliased by
    /// other tables of the same snapshot).
    Mapped(Arc<[T]>),
}

impl<T: Copy> Slab<T> {
    fn owned(v: Vec<T>) -> Slab<T> {
        Slab::Owned(v)
    }

    fn is_mapped(&self) -> bool {
        matches!(self, Slab::Mapped(_))
    }

    fn into_vec(self) -> Vec<T> {
        match self {
            Slab::Owned(v) => v,
            Slab::Mapped(a) => a.to_vec(),
        }
    }

    /// Copy a mapped slab into owned storage — once per table, so kept
    /// out of line from the hot mutable accesses.
    #[cold]
    #[inline(never)]
    fn detach(&mut self) {
        if let Slab::Mapped(a) = self {
            *self = Slab::Owned(a.to_vec());
        }
    }
}

impl<T: Copy> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab::Owned(Vec::new())
    }
}

impl<T: Copy> std::ops::Deref for Slab<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Slab::Owned(v) => v,
            Slab::Mapped(a) => a,
        }
    }
}

impl<T: Copy> std::ops::DerefMut for Slab<T> {
    /// Copy-on-write: mutable access to a mapped slab detaches it into
    /// owned storage first.
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        if self.is_mapped() {
            self.detach();
        }
        match self {
            Slab::Owned(v) => v,
            Slab::Mapped(_) => unreachable!("mapped slab detached above"),
        }
    }
}

/// The occupied `(key, count)` slots of raw slot arrays, in slot order:
/// every slot whose lanes are not all all-ones.
fn occupied<'a, K: SpectrumKey, L: std::ops::Deref<Target = [u64]>>(
    lanes: &'a [L],
    counts: &'a [u32],
) -> impl Iterator<Item = (K, u32)> + 'a {
    counts
        .iter()
        .enumerate()
        .map(move |(i, &c)| (K::from_lanes(|l| lanes[l][i]), c))
        .filter(|&(k, _)| k != K::SENTINEL)
}

/// Smallest power-of-two capacity holding `n` entries at load
/// `num/den`, or 0 for an empty table.
fn capacity_for(n: usize, num: usize, den: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let needed = (n * den).div_ceil(num);
    needed.next_power_of_two().max(MIN_CAPACITY)
}

/// Open-addressing key → `u32` count table over a key kind `K`.
#[derive(Clone, Debug)]
pub struct FlatTable<K: SpectrumKey> {
    /// Slot keys, one array per key lane (lane 0 = low 64 bits); a slot
    /// is vacant when every lane holds all-ones. Each array's length is
    /// the capacity (a power of two) or 0 before the first insert.
    lanes: K::Lanes<Slab<u64>>,
    /// Slot counts, parallel to the lanes.
    counts: Slab<u32>,
    /// Occupied slots (excludes the sentinel key).
    len: usize,
    /// `capacity - 1`; 0 when unallocated.
    mask: usize,
    /// Count stored for the reserved all-ones key itself.
    sentinel_count: Option<u32>,
    /// Max load factor numerator.
    load_num: usize,
    /// Max load factor denominator.
    load_den: usize,
}

/// The k-mer count table: `u64` keys, 12 bytes per slot.
pub type FlatKmerTable = FlatTable<u64>;

/// The tile count table: `u128` keys in two lanes, 20 bytes per slot.
pub type FlatTileTable = FlatTable<u128>;

impl<K: SpectrumKey> Default for FlatTable<K> {
    fn default() -> FlatTable<K> {
        FlatTable::new()
    }
}

impl<K: SpectrumKey> FlatTable<K> {
    /// Bytes per slot: one `u64` per lane plus the `u32` count.
    const SLOT_BYTES: usize = K::BYTES + 4;

    /// Empty table (no allocation until the first insert).
    pub fn new() -> FlatTable<K> {
        FlatTable::with_max_load(DEFAULT_LOAD.0, DEFAULT_LOAD.1)
    }

    /// Empty table with max load factor `num/den` (e.g. 3, 4).
    pub fn with_max_load(num: usize, den: usize) -> FlatTable<K> {
        assert!(num > 0 && num < den, "load factor must be in (0, 1)");
        FlatTable {
            lanes: K::lanes_from(|_| Slab::default()),
            counts: Slab::default(),
            len: 0,
            mask: 0,
            sentinel_count: None,
            load_num: num,
            load_den: den,
        }
    }

    /// Allocated slot count (a power of two, or 0 before first insert).
    pub fn capacity(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct keys stored (sentinel included).
    pub fn len(&self) -> usize {
        self.len + self.sentinel_count.is_some() as usize
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact resident bytes: slot arrays plus the table header.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<FlatTable<K>>() + self.capacity() * Self::SLOT_BYTES
    }

    /// Bytes a table holding `n` entries occupies at the default max
    /// load — the same geometry (smallest fitting power-of-two capacity
    /// × bytes/slot + header) `memory_bytes` reports after building or
    /// pruning to `n` entries. The virtual engine's memory model is
    /// built on this.
    pub fn bytes_for_entries(n: usize) -> usize {
        std::mem::size_of::<FlatTable<K>>()
            + capacity_for(n, DEFAULT_LOAD.0, DEFAULT_LOAD.1) * Self::SLOT_BYTES
    }

    /// What slot `idx` holds, for a key (never the sentinel) split into
    /// `want`: `Some(true)` that key, `Some(false)` nothing — every lane
    /// all-ones — and `None` another key. Each lane is read once, in
    /// order, and the answer `None` is given at the first lane that
    /// shows it, so a probe step past a foreign tile reads only its low
    /// lane.
    #[inline]
    fn slot_state(&self, idx: usize, want: &K::Lanes<u64>) -> Option<bool> {
        let (mut holds, mut vacant) = (true, true);
        for (lane, &w) in self.lanes.as_ref().iter().zip(want.as_ref()) {
            let v = lane[idx];
            holds &= v == w;
            vacant &= v == u64::MAX;
            if !holds && !vacant {
                return None;
            }
        }
        Some(holds)
    }

    #[inline]
    fn set_slot(&mut self, idx: usize, key: K, count: u32) {
        for (l, lane) in self.lanes.as_mut().iter_mut().enumerate() {
            lane[idx] = key.lane(l);
        }
        self.counts[idx] = count;
    }

    /// The slot where `key` lives (`true`), or the vacant slot where it
    /// would be inserted (`false`). Capacity must be nonzero.
    #[inline]
    fn probe(&self, key: K) -> (usize, bool) {
        debug_assert!(self.capacity() > 0);
        debug_assert_ne!(key, K::SENTINEL);
        let want = key.lanes();
        let mut idx = probe_start(key.probe_hash(), self.mask);
        loop {
            if let Some(found) = self.slot_state(idx, &want) {
                return (idx, found);
            }
            idx = (idx + 1) & self.mask;
        }
    }

    /// Stored count for `key`, `None` when absent.
    #[inline]
    pub fn get(&self, key: K) -> Option<u32> {
        if key == K::SENTINEL {
            return self.sentinel_count;
        }
        if self.len == 0 {
            return None;
        }
        // The counts array is only touched on a hit, so a miss stays
        // within the key lanes (one cache stream per lane).
        let (idx, found) = self.probe(key);
        found.then(|| self.counts[idx])
    }

    /// Add `count` to `key`'s tally (saturating), inserting if absent.
    pub fn add_count(&mut self, key: K, count: u32) {
        if key == K::SENTINEL {
            let prev = self.sentinel_count.unwrap_or(0);
            self.sentinel_count = Some(prev.saturating_add(count));
            return;
        }
        if self.capacity() == 0 {
            self.rehash(MIN_CAPACITY, 0);
        }
        let (mut idx, found) = self.probe(key);
        if found {
            self.counts[idx] = self.counts[idx].saturating_add(count);
            return;
        }
        // Grow *before* inserting so occupancy never exceeds the bound.
        if (self.len + 1) * self.load_den > self.capacity() * self.load_num {
            self.rehash(self.capacity() * 2, 0);
            idx = self.probe(key).0;
        }
        self.set_slot(idx, key, count);
        self.len += 1;
    }

    /// Pre-size for `additional` more distinct keys, so a bulk ingest of
    /// that many entries triggers no incremental growth rehash. The
    /// target is the capacity incremental growth to `len() + additional`
    /// entries would land on, so when the estimate is exact (e.g. the
    /// disjoint owner parts of an allgathered spectrum) the final
    /// geometry still matches [`FlatTable::bytes_for_entries`].
    pub fn reserve(&mut self, additional: usize) {
        let want = capacity_for(self.len + additional, self.load_num, self.load_den);
        if want > self.capacity() {
            self.rehash(want, 0);
        }
    }

    /// Bulk-ingest a sorted run of **distinct** `(key, count)` pairs —
    /// the shape the pipelined spectrum build's pre-aggregated per-owner
    /// buckets arrive in. Equivalent to `add_count` per pair (saturating
    /// adds commute, so the result is order-independent); debug builds
    /// verify the run is strictly ascending.
    ///
    /// On an **empty** table the whole run is placed by a one-sweep bulk
    /// load — exact-capacity allocation and a single probe-start-ordered
    /// sweep, several times faster than per-key probing. Otherwise pair
    /// with [`FlatTable::reserve`] when the number of *new* keys is
    /// known, to skip incremental growth.
    pub fn merge_sorted(&mut self, entries: &[(K, u32)]) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "merge_sorted requires strictly ascending keys"
        );
        if self.len == 0 && self.sentinel_count.is_none() {
            self.bulk_load(entries);
        } else {
            self.insert_batch(entries);
        }
    }

    /// Construct the contents of an empty table from distinct entries in
    /// one sweep. The entries are ordered by probe start (a 2-pass LSD
    /// radix sort of `(start, index)` pairs), after which linear-probing
    /// placement degenerates to a monotone cursor: each key lands at
    /// `max(start, cursor)` — no probe loop, no occupancy re-check, no
    /// growth, and the slot writes walk the table front to back instead
    /// of hopping the whole array per key. Keys whose run crosses the
    /// wrap-around boundary spill to a regular probe afterwards (a
    /// handful at most: only the final cluster can cross). Content,
    /// `len`, and capacity match an `add_count` loop exactly.
    fn bulk_load(&mut self, entries: &[(K, u32)]) {
        debug_assert!(self.len == 0 && self.sentinel_count.is_none());
        // The sentinel key is the all-ones pattern, so a sorted run can
        // only carry it last; its count lives in the side field.
        let (entries, sentinel) = match entries.split_last() {
            Some((&(key, c), rest)) if key == K::SENTINEL => (rest, Some(c)),
            _ => (entries, None),
        };
        self.sentinel_count = sentinel;
        if entries.is_empty() {
            return;
        }
        self.reserve(entries.len());
        let cap = self.capacity();
        if cap > BULK_LOAD_MAX_CAPACITY {
            self.insert_batch(entries);
            return;
        }
        // `(probe_start << 32) | index`, sorted on the high half only —
        // one packed u64 per entry keeps the two radix passes and the
        // placement loop on 8-byte elements.
        let mut order: Vec<u64> = entries
            .iter()
            .enumerate()
            .map(|(i, &(k, _))| ((probe_start(k.probe_hash(), self.mask) as u64) << 32) | i as u64)
            .collect();
        let mut tmp: Vec<u64> = Vec::new();
        crate::radix::lsd_sort_by(&mut order, &mut tmp, cap.trailing_zeros(), |&p| {
            (p >> 32) as u32
        });
        // The freshly reserved slot arrays are owned; place into plain
        // vectors so the sweep indexes them without a per-write
        // copy-on-write check, then hand them back.
        let mut lanes = K::lanes_from(|l| std::mem::take(&mut self.lanes.as_mut()[l]).into_vec());
        let mut counts = std::mem::take(&mut self.counts).into_vec();
        let mut spill: Vec<u32> = Vec::new();
        let mut cursor = 0usize;
        // The placement gather (`entries[i]`) is the only random access
        // left; its indices are known well ahead, so keep a window of
        // them prefetched.
        const AHEAD: usize = 16;
        for (j, &p) in order.iter().enumerate() {
            if let Some(&np) = order.get(j + AHEAD) {
                dnaseq::simd::prefetch_read(entries, np as u32 as usize);
            }
            let (h, i) = ((p >> 32) as usize, p as u32);
            let slot = cursor.max(h);
            if slot >= cap {
                spill.push(i);
                continue;
            }
            let (key, count) = entries[i as usize];
            for (l, lane) in lanes.as_mut().iter_mut().enumerate() {
                lane[slot] = key.lane(l);
            }
            counts[slot] = count;
            cursor = slot + 1;
        }
        self.lanes = K::lanes_from(|l| Slab::owned(std::mem::take(&mut lanes.as_mut()[l])));
        self.counts = Slab::owned(counts);
        // Spilled keys probe from their start, wrapping into the front
        // of the array; every slot they skip is occupied, preserving the
        // probe-path invariant for lookups.
        for i in spill {
            let (key, count) = entries[i as usize];
            let (idx, found) = self.probe(key);
            debug_assert!(!found);
            self.set_slot(idx, key, count);
        }
        self.len = entries.len();
    }

    /// Bulk add with a software-prefetch pipeline: entries are processed
    /// in probe groups of `PREFETCH_GROUP`; while one group inserts, the
    /// probe-start cache lines of the *next* group are prefetched in
    /// every lane, so the dependent random loads of up to a whole group
    /// are in flight at once instead of serializing one miss at a time.
    /// Insertion order and growth schedule are exactly those of
    /// `add_count` per pair. Unlike [`FlatTable::merge_sorted`] this
    /// accepts arbitrary (unsorted, duplicated) pairs.
    pub fn insert_batch(&mut self, entries: &[(K, u32)]) {
        let mut at = 0;
        while at < entries.len() {
            let next = (at + PREFETCH_GROUP).min(entries.len());
            // Hints target the current geometry; a growth rehash while
            // the current group inserts merely wastes them.
            if self.capacity() > 0 {
                for &(key, _) in &entries[next..(next + PREFETCH_GROUP).min(entries.len())] {
                    if key != K::SENTINEL {
                        let idx = probe_start(key.probe_hash(), self.mask);
                        for lane in self.lanes.as_ref() {
                            dnaseq::simd::prefetch_read(lane, idx);
                        }
                    }
                }
            }
            for &(key, count) in &entries[at..next] {
                self.add_count(key, count);
            }
            at = next;
        }
    }

    /// Streaming counterpart of [`FlatTable::merge_sorted`] for the
    /// out-of-core build: the distinct-survivor count is known up front
    /// (the run merge's counting pass) but the survivors arrive as a
    /// stream, never materialized whole. Reserves for `entries` exactly
    /// as the in-memory path's `reserve(n)` + `merge_sorted(&all)` call
    /// pair does — so the final capacity, `len`, counts, and
    /// `memory_bytes` all match it — then inserts `chunk`-sized sorted
    /// slices through the prefetch-pipelined batch path with no growth
    /// rehash. The table must be empty; `entries` counts the sentinel
    /// key if the stream carries one (strictly-ascending keys put it
    /// last).
    pub fn bulk_load_sorted_stream(
        &mut self,
        entries: usize,
        chunk: usize,
        iter: impl IntoIterator<Item = (K, u32)>,
    ) {
        assert!(self.is_empty(), "bulk_load_sorted_stream requires an empty table");
        assert!(chunk > 0, "chunk must be nonzero");
        self.reserve(entries);
        let mut buf: Vec<(K, u32)> = Vec::with_capacity(chunk.min(entries.max(1)));
        let mut last: Option<K> = None;
        let mut seen = 0usize;
        for (key, count) in iter {
            debug_assert!(
                last.is_none_or(|p| p < key),
                "bulk_load_sorted_stream requires strictly ascending keys"
            );
            last = Some(key);
            seen += 1;
            if key == K::SENTINEL {
                self.sentinel_count = Some(count);
                continue;
            }
            buf.push((key, count));
            if buf.len() == chunk {
                self.insert_batch(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.insert_batch(&buf);
        }
        debug_assert_eq!(seen, entries, "stream length must match the declared count");
    }

    /// Rebuild every occupied slot whose count reaches `threshold` (0
    /// keeps them all) into fresh arrays of `new_cap` slots — growth,
    /// reserve and prune alike. `len` is the caller's to keep: growth
    /// keeps every entry, prune knows its survivors.
    fn rehash(&mut self, new_cap: usize, threshold: u32) {
        let old_lanes = K::lanes_from(|l| {
            let fresh = Slab::owned(vec![u64::MAX; new_cap]);
            std::mem::replace(&mut self.lanes.as_mut()[l], fresh).into_vec()
        });
        let old_counts = std::mem::replace(&mut self.counts, Slab::owned(vec![0; new_cap]));
        let old_counts = old_counts.into_vec();
        self.mask = new_cap.saturating_sub(1);
        for (key, count) in occupied::<K, _>(old_lanes.as_ref(), &old_counts) {
            if count >= threshold {
                let idx = self.probe(key).0;
                self.set_slot(idx, key, count);
            }
        }
    }

    /// Drop entries with count < `threshold`, then rebuild into the
    /// smallest capacity that fits the survivors (tombstone-free; the
    /// freed slots are returned to the allocator, unlike `retain` on a
    /// hash map which pins the peak capacity).
    pub fn prune(&mut self, threshold: u32) {
        if self.sentinel_count.is_some_and(|c| c < threshold) {
            self.sentinel_count = None;
        }
        let survivors = occupied::<K, _>(self.raw_parts().lanes.as_ref(), &self.counts)
            .filter(|&(_, c)| c >= threshold)
            .count();
        self.rehash(capacity_for(survivors, self.load_num, self.load_den), threshold);
        self.len = survivors;
    }

    /// Iterate `(key, count)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        occupied(self.lanes.as_ref(), &self.counts)
            .chain(self.sentinel_count.map(|c| (K::SENTINEL, c)))
    }

    /// Consume into `(key, count)` pairs.
    pub fn into_entries(mut self) -> impl Iterator<Item = (K, u32)> {
        let sentinel = self.sentinel_count.map(|c| (K::SENTINEL, c));
        let lanes = K::lanes_from(|l| std::mem::take(&mut self.lanes.as_mut()[l]).into_vec());
        self.counts
            .into_vec()
            .into_iter()
            .enumerate()
            .map(move |(i, c)| (K::from_lanes(|l| lanes.as_ref()[l][i]), c))
            .filter(|&(k, _)| k != K::SENTINEL)
            .chain(sentinel)
    }

    /// True when the slot arrays are snapshot-mapped (shared, not yet
    /// detached by a mutation).
    pub fn is_mapped(&self) -> bool {
        self.lanes.as_ref().iter().any(Slab::is_mapped) || self.counts.is_mapped()
    }

    /// Borrow the raw slot arrays and geometry — the exact bytes a
    /// snapshot shard persists. Probing a table rebuilt from these parts
    /// via [`FlatTable::from_mapped_parts`] visits identical slots.
    pub fn raw_parts(&self) -> TableParts<'_, K> {
        TableParts {
            lanes: K::lanes_from(|l| &*self.lanes.as_ref()[l]),
            counts: &self.counts,
            entries: self.len,
            sentinel_count: self.sentinel_count,
            load_num: self.load_num,
            load_den: self.load_den,
        }
    }

    /// Adopt snapshot-loaded slot arrays as a ready-to-probe table with
    /// no rehash: the arrays must be a verbatim dump of a table built by
    /// this module (same probe family — callers check [`HASH_SEED`]
    /// before trusting the layout). Validates geometry and recounts
    /// occupancy — a slot is occupied unless every lane is all-ones — so
    /// a corrupted-but-checksummed dump cannot fabricate an
    /// out-of-bounds mask or an impossible load factor.
    pub fn from_mapped_parts(
        lanes: K::Lanes<Arc<[u64]>>,
        counts: Arc<[u32]>,
        sentinel_count: Option<u32>,
        load_num: usize,
        load_den: usize,
    ) -> Result<FlatTable<K>, String> {
        if load_num == 0 || load_num >= load_den {
            return Err(format!("load factor {load_num}/{load_den} not in (0, 1)"));
        }
        let cap = counts.len();
        let lanes = lanes.as_ref();
        if lanes.iter().any(|lane| lane.len() != cap) {
            let lens: Vec<usize> = lanes.iter().map(|lane| lane.len()).collect();
            return Err(format!("slot arrays disagree: lanes of {lens:?} slots vs {cap} counts"));
        }
        if cap != 0 && (!cap.is_power_of_two() || cap < MIN_CAPACITY) {
            return Err(format!("capacity {cap} is not 0 or a power of two ≥ {MIN_CAPACITY}"));
        }
        let len = (0..cap).filter(|&i| lanes.iter().any(|lane| lane[i] != u64::MAX)).count();
        if len * load_den > cap * load_num {
            return Err(format!("{len} entries exceed the {load_num}/{load_den} bound at {cap}"));
        }
        Ok(FlatTable {
            mask: cap.saturating_sub(1),
            lanes: K::lanes_from(|l| Slab::Mapped(lanes[l].clone())),
            counts: Slab::Mapped(counts),
            len,
            sentinel_count,
            load_num,
            load_den,
        })
    }
}

/// Borrowed view of a [`FlatTable`]'s slot arrays and geometry — the
/// persistence boundary for snapshot shards.
#[derive(Clone, Debug)]
pub struct TableParts<'a, K: SpectrumKey> {
    /// Slot key lanes (lane 0 = low 64 bits), each `capacity` long; a
    /// slot is vacant when every lane is all-ones.
    pub lanes: K::Lanes<&'a [u64]>,
    /// Slot counts, parallel to the lanes.
    pub counts: &'a [u32],
    /// Occupied slots (sentinel excluded).
    pub entries: usize,
    /// Side-field count for the reserved all-ones key.
    pub sentinel_count: Option<u32>,
    /// Max load factor numerator.
    pub load_num: usize,
    /// Max load factor denominator.
    pub load_den: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key `i` of a kind, low bits only (dense, collision-prone pools).
    fn key<K: SpectrumKey>(i: u64) -> K {
        K::from_u128(i as u128)
    }

    /// Key `i` of a kind, scattered across every lane.
    fn spread<K: SpectrumKey>(i: u64) -> K {
        let lo = dnaseq::mix64(i);
        K::from_u128(((dnaseq::mix64(lo) as u128) << 64) | lo as u128)
    }

    fn sorted<K: SpectrumKey>(it: impl Iterator<Item = (K, u32)>) -> Vec<(K, u32)> {
        let mut v: Vec<_> = it.collect();
        v.sort_unstable();
        v
    }

    /// Run a generic check for both key kinds.
    macro_rules! both_kinds {
        ($check:ident) => {
            $check::<u64>();
            $check::<u128>();
        };
    }

    #[test]
    fn header_sizes_pin_the_memory_model() {
        // The virtual engine's modeled bytes (and so the figures) are
        // `bytes_for_entries`: header + capacity × slot bytes.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            (FlatKmerTable::bytes_for_entries(0), FlatTileTable::bytes_for_entries(0)),
            (88, 112)
        );
        assert_eq!(
            FlatKmerTable::bytes_for_entries(1) - FlatKmerTable::bytes_for_entries(0),
            16 * 12
        );
        assert_eq!(
            FlatTileTable::bytes_for_entries(1) - FlatTileTable::bytes_for_entries(0),
            16 * 20
        );
    }

    fn insert_get_roundtrip_across_growth<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        assert_eq!(t.capacity(), 0);
        for i in 0..1000u64 {
            t.add_count(key(i * 7919), (i % 9 + 1) as u32);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(key(i * 7919)), Some((i % 9 + 1) as u32));
        }
        assert_eq!(t.get(key(123_456_789)), None);
        assert!(t.capacity().is_power_of_two());
        // occupancy bound holds after growth
        assert!(t.len() * 4 <= t.capacity() * 3);
    }

    #[test]
    fn insert_get_roundtrip_across_growth_both_kinds() {
        both_kinds!(insert_get_roundtrip_across_growth);
    }

    fn sentinel_key_is_a_legal_entry<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        t.add_count(K::SENTINEL, 3); // k=32 poly-T is a real code
        t.add_count(K::SENTINEL, 2);
        assert_eq!(t.get(K::SENTINEL), Some(5));
        assert_eq!(t.len(), 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(K::SENTINEL, 5)]);
        t.prune(6);
        assert_eq!(t.get(K::SENTINEL), None);
        assert!(t.is_empty());
    }

    #[test]
    fn sentinel_key_is_a_legal_entry_both_kinds() {
        both_kinds!(sentinel_key_is_a_legal_entry);
    }

    fn counts_saturate_instead_of_wrapping<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        t.add_count(key(42), u32::MAX - 1);
        t.add_count(key(42), 5);
        assert_eq!(t.get(key(42)), Some(u32::MAX));
        t.add_count(key(42), u32::MAX);
        assert_eq!(t.get(key(42)), Some(u32::MAX));
    }

    #[test]
    fn counts_saturate_instead_of_wrapping_both_kinds() {
        both_kinds!(counts_saturate_instead_of_wrapping);
    }

    fn prune_rebuilds_to_smallest_capacity<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        for i in 0..10_000u64 {
            t.add_count(key(i), if i < 50 { 3 } else { 1 });
        }
        let peak = t.memory_bytes();
        t.prune(2);
        assert_eq!(t.len(), 50);
        for i in 0..50u64 {
            assert_eq!(t.get(key(i)), Some(3));
        }
        assert_eq!(t.get(key(51)), None);
        assert!(t.memory_bytes() < peak / 8, "prune must return memory");
        assert_eq!(t.memory_bytes(), FlatTable::<K>::bytes_for_entries(50));
    }

    #[test]
    fn prune_rebuilds_to_smallest_capacity_both_kinds() {
        both_kinds!(prune_rebuilds_to_smallest_capacity);
    }

    fn geometry_predicts_measured_bytes<K: SpectrumKey>() {
        // 12/13 and 768/769 straddle the 3/4-load growth boundaries
        for n in [0usize, 1, 12, 13, 15, 100, 768, 769, 5000] {
            let mut t = FlatTable::<K>::new();
            for i in 0..n as u64 {
                t.add_count(key(i), 1);
            }
            assert_eq!(
                t.memory_bytes(),
                FlatTable::<K>::bytes_for_entries(n),
                "{} geometry diverges at n={n}",
                K::NAME
            );
        }
    }

    #[test]
    fn geometry_predicts_measured_bytes_both_kinds() {
        both_kinds!(geometry_predicts_measured_bytes);
    }

    fn reserve_preserves_geometry_and_skips_growth<K: SpectrumKey>() {
        for n in [1usize, 12, 13, 100, 769] {
            let mut t = FlatTable::<K>::new();
            t.reserve(n);
            let cap = t.capacity();
            for i in 0..n as u64 {
                t.add_count(key(i), 1);
            }
            assert_eq!(t.capacity(), cap, "no growth after an exact reserve (n={n})");
            assert_eq!(t.memory_bytes(), FlatTable::<K>::bytes_for_entries(n));
        }
        // reserve(0) on an empty table allocates nothing
        let mut t = FlatTable::<K>::new();
        t.reserve(0);
        assert_eq!(t.capacity(), 0);
    }

    #[test]
    fn reserve_preserves_geometry_and_skips_growth_both_kinds() {
        both_kinds!(reserve_preserves_geometry_and_skips_growth);
    }

    fn merge_sorted_equals_per_key_adds<K: SpectrumKey>() {
        let run: Vec<(K, u32)> = (0..500).map(|i| (key(i * 31), (i % 7 + 1) as u32)).collect();
        let mut bulk = FlatTable::<K>::new();
        bulk.add_count(key(93), 5); // pre-existing overlap with the run
        bulk.reserve(run.len());
        bulk.merge_sorted(&run);
        let mut serial = FlatTable::<K>::new();
        serial.add_count(key(93), 5);
        for &(k, c) in &run {
            serial.add_count(k, c);
        }
        assert_eq!(sorted(bulk.iter()), sorted(serial.iter()));
        // sentinel key rides through the sorted path too (sorts last)
        let mut s = FlatTable::<K>::new();
        s.merge_sorted(&[(key(1), 2), (K::SENTINEL, 9)]);
        assert_eq!(s.get(K::SENTINEL), Some(9));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_sorted_equals_per_key_adds_both_kinds() {
        both_kinds!(merge_sorted_equals_per_key_adds);
    }

    fn insert_batch_equals_per_key_adds_on_unsorted_duplicated_input<K: SpectrumKey>() {
        // Unsorted, duplicated, sentinel-laden input crossing several
        // growth rehashes mid-batch: content and geometry must match the
        // plain add_count loop exactly.
        let entries: Vec<(K, u32)> = (0..2000u64)
            .map(|i| {
                let k = if i % 97 == 0 { K::SENTINEL } else { spread(i % 700) };
                (k, (i % 5 + 1) as u32)
            })
            .collect();
        let mut bulk = FlatTable::<K>::new();
        bulk.insert_batch(&entries);
        let mut serial = FlatTable::<K>::new();
        for &(k, c) in &entries {
            serial.add_count(k, c);
        }
        assert_eq!(bulk.capacity(), serial.capacity());
        assert_eq!(bulk.len(), serial.len());
        assert_eq!(bulk.get(K::SENTINEL), serial.get(K::SENTINEL));
        assert_eq!(sorted(bulk.iter()), sorted(serial.iter()));
    }

    #[test]
    fn insert_batch_equals_per_key_adds_on_unsorted_duplicated_input_both_kinds() {
        both_kinds!(insert_batch_equals_per_key_adds_on_unsorted_duplicated_input);
    }

    fn bulk_load_matches_per_key_adds<K: SpectrumKey>() {
        // merge_sorted on an *empty* table takes the one-sweep bulk-load
        // path; content, geometry, lookups, and the sentinel side field
        // must match the per-key loop. Enough random keys at full target
        // load that probe clusters cross the wrap-around boundary with
        // overwhelming probability, covering the spill path.
        for n in [1usize, 50, 6000, 50_000] {
            let mut entries: Vec<(K, u32)> =
                (0..n as u64).map(|i| (spread(i), (i % 5 + 1) as u32)).collect();
            entries.push((K::SENTINEL, 9)); // sentinel sorts last
            entries.sort_unstable_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);
            let mut bulk = FlatTable::<K>::new();
            bulk.merge_sorted(&entries);
            let mut serial = FlatTable::<K>::new();
            serial.reserve(entries.len() - 1); // same pre-size, sentinel slotless
            for &(k, c) in &entries {
                serial.add_count(k, c);
            }
            assert_eq!(bulk.capacity(), serial.capacity(), "n={n}");
            assert_eq!(bulk.len(), serial.len());
            assert_eq!(bulk.get(K::SENTINEL), Some(9));
            for &(k, c) in &entries {
                assert_eq!(bulk.get(k), Some(c), "n={n} key={k:?}");
            }
            assert_eq!(bulk.get(spread(n as u64 + 7)), None);
            assert_eq!(sorted(bulk.iter()), sorted(serial.iter()));
        }
    }

    #[test]
    fn bulk_load_matches_per_key_adds_both_kinds() {
        both_kinds!(bulk_load_matches_per_key_adds);
    }

    fn streamed_bulk_load_matches_materialized_merge_sorted<K: SpectrumKey>() {
        // The out-of-core merge feeds this entry; geometry and content
        // must match the in-memory reserve + merge_sorted pair for any
        // chunking, sentinel or not.
        for n in [0usize, 1, 12, 13, 700, 6001] {
            for chunk in [1usize, 7, 256, 1 << 16] {
                let mut entries: Vec<(K, u32)> =
                    (0..n as u64).map(|i| (spread(i), (i % 9 + 1) as u32)).collect();
                if n % 2 == 1 {
                    entries.push((K::SENTINEL, 6)); // sentinel rides along on odd sizes
                }
                entries.sort_unstable_by_key(|e| e.0);
                entries.dedup_by_key(|e| e.0);
                let mut mem = FlatTable::<K>::new();
                mem.reserve(entries.len());
                mem.merge_sorted(&entries);
                let mut ooc = FlatTable::<K>::new();
                ooc.bulk_load_sorted_stream(entries.len(), chunk, entries.iter().copied());
                assert_eq!(ooc.capacity(), mem.capacity(), "n={n} chunk={chunk}");
                assert_eq!(ooc.len(), mem.len());
                assert_eq!(ooc.memory_bytes(), mem.memory_bytes());
                assert_eq!(ooc.get(K::SENTINEL), mem.get(K::SENTINEL));
                for &(k, c) in &entries {
                    assert_eq!(ooc.get(k), Some(c), "n={n} chunk={chunk} key={k:?}");
                }
            }
        }
    }

    #[test]
    fn streamed_bulk_load_matches_materialized_merge_sorted_both_kinds() {
        both_kinds!(streamed_bulk_load_matches_materialized_merge_sorted);
    }

    #[test]
    #[ignore = "manual profiling probe"]
    fn profile_insert_batch_paths() {
        let n = 290_000usize;
        let mut entries: Vec<(u64, u32)> = (0..n as u64).map(|i| (dnaseq::mix64(i), 3)).collect();
        entries.sort_unstable();
        entries.dedup_by_key(|e| e.0);
        let time = |f: &mut dyn FnMut()| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / entries.len() as f64
        };
        for round in 0..3 {
            let bulk = time(&mut || {
                let mut t = FlatKmerTable::new();
                t.merge_sorted(&entries);
            });
            let in_order = time(&mut || {
                let mut t = FlatKmerTable::new();
                t.reserve(entries.len());
                t.insert_batch(&entries);
            });
            let growth = time(&mut || {
                let mut t = FlatKmerTable::new();
                for &(k, c) in &entries {
                    t.add_count(k, c);
                }
            });
            eprintln!(
                "round {round}: bulk={bulk:.1} in_order={in_order:.1} growth={growth:.1} ns/key ({} keys)",
                entries.len()
            );
        }
        // stage breakdown of the bulk path
        let cap = capacity_for(entries.len(), DEFAULT_LOAD.0, DEFAULT_LOAD.1);
        let mask = cap - 1;
        for round in 0..3 {
            let t0 = std::time::Instant::now();
            let mut order: Vec<u64> = entries
                .iter()
                .enumerate()
                .map(|(i, &(k, _))| ((probe_start(k, mask) as u64) << 32) | i as u64)
                .collect();
            let t_order = t0.elapsed().as_nanos() as f64;
            let t1 = std::time::Instant::now();
            let mut tmp: Vec<u64> = Vec::new();
            crate::radix::lsd_sort_by(&mut order, &mut tmp, cap.trailing_zeros(), |&p| {
                (p >> 32) as u32
            });
            let t_sort = t1.elapsed().as_nanos() as f64;
            let t2 = std::time::Instant::now();
            let mut keys = vec![u64::MAX; cap];
            let mut counts = vec![0u32; cap];
            let t_alloc = t2.elapsed().as_nanos() as f64;
            let t3 = std::time::Instant::now();
            let mut cursor = 0usize;
            const AHEAD: usize = 16;
            for (j, &p) in order.iter().enumerate() {
                if let Some(&np) = order.get(j + AHEAD) {
                    dnaseq::simd::prefetch_read(&entries, np as u32 as usize);
                }
                let (h, i) = ((p >> 32) as usize, p as u32);
                let slot = cursor.max(h);
                if slot >= cap {
                    continue;
                }
                let (key, count) = entries[i as usize];
                keys[slot] = key;
                counts[slot] = count;
                cursor = slot + 1;
            }
            let t_place = t3.elapsed().as_nanos() as f64;
            std::hint::black_box((&keys, &counts));
            let per = entries.len() as f64;
            eprintln!(
                "  stages {round}: order={:.1} sort={:.1} alloc={:.1} place={:.1} ns/key",
                t_order / per,
                t_sort / per,
                t_alloc / per,
                t_place / per
            );
        }
    }

    #[test]
    fn tile_table_distinguishes_halves() {
        // A slot is vacant only when *both* lanes are all-ones: keys with
        // one all-ones half are ordinary entries.
        let half_low = u64::MAX as u128;
        let half_high = (u64::MAX as u128) << 64;
        let mut t = FlatTileTable::new();
        t.add_count(1u128, 1);
        t.add_count(1u128 << 64, 2);
        t.add_count((1u128 << 64) | 1, 3);
        t.add_count(half_low, 4);
        t.add_count(half_high, 5);
        assert_eq!(t.get(1u128), Some(1));
        assert_eq!(t.get(1u128 << 64), Some(2));
        assert_eq!(t.get((1u128 << 64) | 1), Some(3));
        assert_eq!(t.get(half_low), Some(4));
        assert_eq!(t.get(half_high), Some(5));
        assert_eq!(t.get(u128::MAX), None);
        assert_eq!(t.len(), 5);
        assert_eq!(remap(&t).get(half_high), Some(5));
        t.prune(2);
        assert_eq!((t.get(half_low), t.get(1)), (Some(4), None));
        let entries = sorted(t.into_entries());
        assert_eq!(entries, vec![(half_low, 4), (1 << 64, 2), ((1 << 64) | 1, 3), (half_high, 5)]);
    }

    fn iter_matches_into_entries<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        for k in [key(5), key(9), K::SENTINEL, key(1 << 60), spread(3)] {
            t.add_count(k, 2);
        }
        assert_eq!(sorted(t.iter()), sorted(t.into_entries()));
    }

    #[test]
    fn iter_matches_into_entries_both_kinds() {
        both_kinds!(iter_matches_into_entries);
    }

    #[test]
    fn custom_load_factor_bounds_occupancy() {
        let mut t = FlatKmerTable::with_max_load(1, 2);
        for key in 0..100u64 {
            t.add_count(key, 1);
        }
        assert!(t.len() * 2 <= t.capacity(), "load ≤ 1/2");
        assert_eq!(t.capacity(), 256);
    }

    /// Rebuild a table from its raw parts the way a snapshot load does:
    /// copy the slot arrays into shared slabs and adopt them.
    fn remap<K: SpectrumKey>(t: &FlatTable<K>) -> FlatTable<K> {
        let p = t.raw_parts();
        FlatTable::from_mapped_parts(
            K::lanes_from(|l| Arc::from(p.lanes.as_ref()[l])),
            Arc::from(p.counts),
            p.sentinel_count,
            p.load_num,
            p.load_den,
        )
        .expect("valid parts")
    }

    fn mapped_parts_roundtrip_probes_identically<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        for i in 0..777u64 {
            t.add_count(spread(i), (i % 5 + 1) as u32);
        }
        t.add_count(K::SENTINEL, 9);
        let m = remap(&t);
        assert!(m.is_mapped());
        assert_eq!(m.len(), t.len());
        assert_eq!(m.capacity(), t.capacity());
        for i in 0..777u64 {
            assert_eq!(m.get(spread(i)), t.get(spread(i)));
        }
        assert_eq!(m.get(K::SENTINEL), Some(9));
        assert_eq!(m.get(key(123_456_789)), None);
    }

    #[test]
    fn mapped_parts_roundtrip_probes_identically_both_kinds() {
        both_kinds!(mapped_parts_roundtrip_probes_identically);
    }

    fn mapped_table_detaches_on_first_mutation<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        for i in 0..100u64 {
            t.add_count(key(i), 1);
        }
        let mut m = remap(&t);
        assert!(m.is_mapped());
        m.add_count(key(7), 1); // existing key: count bump detaches counts
        assert_eq!(m.get(key(7)), Some(2));
        m.add_count(key(5000), 3); // new key: detaches the lanes too
        assert!(!m.is_mapped());
        assert_eq!(m.get(key(5000)), Some(3));
        assert_eq!(t.get(key(7)), Some(1), "source table unaffected by CoW");
        let mut m = remap(&t);
        m.prune(3);
        assert!(!m.is_mapped());
        assert!(m.is_empty());
        assert_eq!(t.get(key(11)), Some(1));
    }

    #[test]
    fn mapped_table_detaches_on_first_mutation_both_kinds() {
        both_kinds!(mapped_table_detaches_on_first_mutation);
    }

    fn mapped_memory_bytes_stays_exact<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        for i in 0..200u64 {
            t.add_count(key(i), 1);
        }
        assert_eq!(remap(&t).memory_bytes(), t.memory_bytes());
    }

    #[test]
    fn mapped_memory_bytes_stays_exact_both_kinds() {
        both_kinds!(mapped_memory_bytes_stays_exact);
    }

    fn invalid_mapped_parts_are_rejected<K: SpectrumKey>() {
        let slots = |n: usize| -> Arc<[u64]> { Arc::from(vec![u64::MAX; n].as_slice()) };
        let counts = |n: usize| -> Arc<[u32]> { Arc::from(vec![0u32; n].as_slice()) };
        let adopt = |lanes: K::Lanes<Arc<[u64]>>, counts, num, den| {
            FlatTable::<K>::from_mapped_parts(lanes, counts, None, num, den)
        };
        // mismatched lengths: counts vs lanes, and (for tiles) lane vs lane
        assert!(adopt(K::lanes_from(|_| slots(16)), counts(8), 3, 4).is_err());
        if K::LANES > 1 {
            assert!(adopt(K::lanes_from(|l| slots(16 >> l)), counts(16), 3, 4).is_err());
        }
        // non-power-of-two capacity
        assert!(adopt(K::lanes_from(|_| slots(24)), counts(24), 3, 4).is_err());
        // capacity below the minimum
        assert!(adopt(K::lanes_from(|_| slots(8)), counts(8), 3, 4).is_err());
        // bad load factor
        assert!(adopt(K::lanes_from(|_| slots(16)), counts(16), 4, 4).is_err());
        assert!(adopt(K::lanes_from(|_| slots(16)), counts(16), 0, 4).is_err());
        // occupancy above the load bound: 16 slots all full at 3/4 —
        // a slot with any lane not all-ones counts as occupied
        let full = |l: usize| -> Arc<[u64]> {
            Arc::from((0..16u64).map(|i| if l == 0 { i } else { u64::MAX }).collect::<Vec<_>>())
        };
        assert!(adopt(K::lanes_from(full), counts(16), 3, 4).is_err());
        // the valid baseline does adopt
        assert!(adopt(K::lanes_from(|_| slots(16)), counts(16), 3, 4).is_ok());
    }

    #[test]
    fn invalid_mapped_parts_are_rejected_both_kinds() {
        both_kinds!(invalid_mapped_parts_are_rejected);
    }

    fn empty_prune_and_get_are_safe<K: SpectrumKey>() {
        let mut t = FlatTable::<K>::new();
        t.prune(2);
        assert_eq!(t.get(key(7)), None);
        assert_eq!(t.len(), 0);
        assert_eq!(t.capacity(), 0);
        // pruning everything returns the allocation entirely
        t.add_count(key(9), 1);
        assert!(t.capacity() > 0);
        t.prune(2);
        assert_eq!(t.capacity(), 0);
        assert_eq!(t.memory_bytes(), FlatTable::<K>::bytes_for_entries(0));
    }

    #[test]
    fn empty_prune_and_get_are_safe_both_kinds() {
        both_kinds!(empty_prune_and_get_are_safe);
    }
}
