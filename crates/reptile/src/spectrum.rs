//! K-mer and tile spectra.
//!
//! "The k-mer spectrum is represented by key-value pairs with k-mer ID as
//! the key and the count of the k-mer as the value. ... The k-mer and
//! tile spectrum are stored in separate hash tables" (paper §III step II
//! and §II-B — hash tables instead of the sorted arrays of the earlier
//! parallelizations). Both are one [`Spectrum`] type over the key kind,
//! sitting on the flat open-addressing table of [`crate::flat`], which
//! packs key+count slots and reports exact resident bytes
//! (`memory_bytes`).

use crate::flat::FlatTable;
use crate::key::SpectrumKey;
use crate::params::ReptileParams;
use dnaseq::Read;

/// A spectrum key that has already been strand-normalized.
///
/// Owner-side paths (wire lookups, batch service, exchange ingestion)
/// must operate on canonicalized keys — the sender normalized before
/// hashing, and re-normalizing is wasted work while *forgetting* to
/// normalize silently misses entries. This newtype moves that invariant
/// from a `debug_assert!` into the type system: [`Spectrum::count_at`],
/// [`Spectrum::get_at`] and the `OwnerMap` raw-owner functions only
/// accept `Normalized<K>`, so handing them an unnormalized code is a
/// compile error rather than a release-mode wrong answer.
///
/// Obtain one from [`Spectrum::normalize`]
/// (or the `OwnerMap` key functions), or — for keys that arrive over the
/// wire or out of a spectrum iterator, which are normalized by
/// construction — via the explicit escape hatch [`Normalized::assume`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Normalized<K>(K);

impl<K: Copy> Normalized<K> {
    /// Wrap a key that is known to be normalized already (wire-decoded
    /// requests, spectrum-iterator output, fetch-wave key lists). The call
    /// site is the audit point: use it only where normalization is
    /// guaranteed by construction.
    #[inline]
    pub fn assume(key: K) -> Normalized<K> {
        Normalized(key)
    }

    /// The underlying packed code.
    #[inline]
    pub fn key(self) -> K {
        self.0
    }
}

/// A spectrum of one key kind: count per packed code, on the flat table
/// of [`crate::flat`]. "The k-mer and tile spectrum are stored in
/// separate hash tables" — the same table type over a different key
/// ([`KmerSpectrum`] / [`TileSpectrum`]; "the tile ID is a long
/// integer", §III step II).
#[derive(Clone, Debug)]
pub struct Spectrum<K: SpectrumKey> {
    codec: K::Codec,
    canonical: bool,
    counts: FlatTable<K>,
}

/// The k-mer spectrum: count per packed `u64` k-mer code.
pub type KmerSpectrum = Spectrum<u64>;

/// The tile spectrum: count per packed `u128` tile code.
pub type TileSpectrum = Spectrum<u128>;

impl<K: SpectrumKey> Spectrum<K> {
    /// Empty spectrum under `codec`.
    pub fn new(codec: K::Codec, canonical: bool) -> Spectrum<K> {
        Spectrum { codec, canonical, counts: FlatTable::new() }
    }

    /// The codec in use.
    pub fn codec(&self) -> K::Codec {
        self.codec
    }

    /// Canonicalize a code per the spectrum's strand policy.
    #[inline]
    pub fn normalize(&self, code: K) -> Normalized<K> {
        Normalized(if self.canonical { K::canonical(&self.codec, code) } else { code })
    }

    /// Add every code of this kind in a read.
    pub fn add_read(&mut self, read: &Read) {
        for code in K::codes_of(self.codec, &read.seq) {
            let key = self.normalize(code);
            self.counts.add_count(key.0, 1);
        }
    }

    /// Add a count for a normalized key (saturating).
    pub fn add_count(&mut self, key: Normalized<K>, count: u32) {
        self.counts.add_count(key.0, count);
    }

    /// Pre-size for `additional` more distinct codes
    /// ([`FlatTable::reserve`]): an exact estimate keeps the geometry
    /// `bytes_for_entries`-exact while skipping every incremental growth
    /// rehash.
    pub fn reserve(&mut self, additional: usize) {
        self.counts.reserve(additional);
    }

    /// Bulk-ingest a sorted run of distinct (normalized) `(code, count)`
    /// pairs — the pre-aggregated per-owner buckets of the pipelined
    /// distributed build ([`FlatTable::merge_sorted`]).
    pub fn merge_sorted(&mut self, entries: &[(K, u32)]) {
        self.counts.merge_sorted(entries);
    }

    /// Count of a code (0 if absent). Normalizes internally.
    #[inline]
    pub fn count(&self, code: K) -> u32 {
        self.counts.get(self.normalize(code).0).unwrap_or(0)
    }

    /// [`count`](Spectrum::count) for a key that is already normalized
    /// (owner-side paths: keys arriving over the wire or out of an
    /// `OwnerMap`-keyed batch were canonicalized at the sender). Skips
    /// the revcomp/min canonicalization, which is idempotent, so the
    /// answer is identical.
    #[inline]
    pub fn count_at(&self, key: Normalized<K>) -> u32 {
        self.counts.get(key.0).unwrap_or(0)
    }

    /// [`count_at`](Spectrum::count_at) for a group of normalized keys:
    /// one `Some(count)` per key, appended to `out` in key order — the
    /// answer form of the corrector's group lookups, which a resident
    /// table always gives.
    pub fn counts_at(&self, keys: Normalized<&[K]>, out: &mut Vec<Option<u32>>) {
        out.extend(keys.0.iter().map(|&key| Some(self.count_at(Normalized(key)))));
    }

    /// Stored count of a code, `None` when absent — distinguishes "known
    /// count 0" entries (resolved reads tables) from missing entries.
    /// Normalizes internally.
    #[inline]
    pub fn get(&self, code: K) -> Option<u32> {
        self.counts.get(self.normalize(code).0)
    }

    /// [`get`](Spectrum::get) for an already normalized key.
    #[inline]
    pub fn get_at(&self, key: Normalized<K>) -> Option<u32> {
        self.counts.get(key.0)
    }

    /// Remove entries below `threshold` (paper §III step III: "k-mers and
    /// tiles below a threshold are subsequently removed").
    pub fn prune(&mut self, threshold: u32) {
        self.counts.prune(threshold);
    }

    /// Number of distinct codes stored.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(code, count)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.counts.iter()
    }

    /// Exact resident bytes of the backing table (slots + header).
    pub fn memory_bytes(&self) -> usize {
        self.counts.memory_bytes()
    }

    /// Bytes a spectrum holding `n` entries occupies (flat-table
    /// geometry at [`MAX_LOAD`](crate::MAX_LOAD)) — the virtual engine's
    /// memory model.
    pub fn bytes_for_entries(n: usize) -> usize {
        FlatTable::<K>::bytes_for_entries(n)
    }

    /// Whether this spectrum folds reverse complements.
    pub fn canonical(&self) -> bool {
        self.canonical
    }

    /// Borrow the backing table (snapshot save path).
    pub fn table(&self) -> &FlatTable<K> {
        &self.counts
    }

    /// Wrap an existing table (snapshot load path): the table's entries
    /// must already be normalized under the same codec/strand policy.
    pub fn from_table(codec: K::Codec, canonical: bool, counts: FlatTable<K>) -> Spectrum<K> {
        Spectrum { codec, canonical, counts }
    }
}

/// Both spectra together, with the local (sequential) [`SpectrumAccess`]
/// implementation used by the baseline corrector.
///
/// [`SpectrumAccess`]: crate::corrector::SpectrumAccess
#[derive(Clone, Debug)]
pub struct LocalSpectra {
    /// The k-mer spectrum.
    pub kmers: KmerSpectrum,
    /// The tile spectrum.
    pub tiles: TileSpectrum,
}

impl LocalSpectra {
    /// Build both spectra from a full read set, then prune by the
    /// parameter thresholds.
    pub fn build(reads: &[Read], params: &ReptileParams) -> LocalSpectra {
        let mut built = LocalSpectra::build_unpruned(reads, params);
        built.kmers.prune(params.kmer_threshold);
        built.tiles.prune(params.tile_threshold);
        built
    }

    /// Build without pruning (the distributed construction prunes only
    /// after the global count merge).
    pub fn build_unpruned(reads: &[Read], params: &ReptileParams) -> LocalSpectra {
        params.assert_valid();
        let mut kmers = KmerSpectrum::new(params.kmer_codec(), params.canonical);
        let mut tiles = TileSpectrum::new(params.tile_codec(), params.canonical);
        for read in reads {
            kmers.add_read(read);
            tiles.add_read(read);
        }
        LocalSpectra { kmers, tiles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, seq: &[u8]) -> Read {
        Read::new(id, seq.to_vec(), vec![30; seq.len()])
    }

    fn params() -> ReptileParams {
        ReptileParams { k: 4, tile_overlap: 2, ..ReptileParams::for_tests() }
    }

    #[test]
    fn kmer_counts_accumulate() {
        let p = params();
        let mut s = KmerSpectrum::new(p.kmer_codec(), false);
        s.add_read(&read(1, b"AAAAA")); // AAAA twice
        s.add_read(&read(2, b"AAAA")); // once more
        let code = p.kmer_codec().encode(b"AAAA").unwrap();
        assert_eq!(s.count(code), 3);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ambiguous_bases_skipped() {
        let p = params();
        let mut s = KmerSpectrum::new(p.kmer_codec(), false);
        s.add_read(&read(1, b"AANTTTT"));
        // only TTTT windows (positions 3) — windows crossing N are dropped
        assert_eq!(s.len(), 1);
        assert_eq!(s.count(p.kmer_codec().encode(b"TTTT").unwrap()), 1);
    }

    #[test]
    fn prune_removes_rare() {
        let p = params();
        let mut s = KmerSpectrum::new(p.kmer_codec(), false);
        s.add_read(&read(1, b"AAAA"));
        s.add_read(&read(2, b"AAAA"));
        s.add_read(&read(3, b"CCCC"));
        s.prune(2);
        assert_eq!(s.count(p.kmer_codec().encode(b"AAAA").unwrap()), 2);
        assert_eq!(s.count(p.kmer_codec().encode(b"CCCC").unwrap()), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn canonical_folds_strands() {
        let p = params();
        let mut s = KmerSpectrum::new(p.kmer_codec(), true);
        s.add_read(&read(1, b"ACGG"));
        s.add_read(&read(2, b"CCGT")); // revcomp of ACGG
        let code = p.kmer_codec().encode(b"ACGG").unwrap();
        assert_eq!(s.count(code), 2);
        assert_eq!(
            s.count(p.kmer_codec().encode(b"CCGT").unwrap()),
            2,
            "lookup from either strand"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn tile_counts_and_prune() {
        let p = params(); // tile len 6, stride 2
        let mut s = TileSpectrum::new(p.tile_codec(), false);
        s.add_read(&read(1, b"ACGTAC"));
        s.add_read(&read(2, b"ACGTAC"));
        let code = p.tile_codec().encode(b"ACGTAC").unwrap();
        assert_eq!(s.count(code), 2);
        s.prune(3);
        assert_eq!(s.count(code), 0);
    }

    #[test]
    fn local_spectra_build_prunes_by_thresholds() {
        let p = params();
        // 3 copies of one read, 1 copy of a read whose k-mers all occur once
        let mut reads = vec![read(1, b"ACGTACGT"), read(2, b"ACGTACGT"), read(3, b"ACGTACGT")];
        reads.push(read(4, b"TACGGTCA"));
        let spectra = LocalSpectra::build(&reads, &p);
        let kc = p.kmer_codec();
        assert_eq!(spectra.kmers.count(kc.encode(b"ACGT").unwrap()), 6); // 2 windows x 3 reads
        assert_eq!(
            spectra.kmers.count(kc.encode(b"GGTC").unwrap()),
            0,
            "singleton pruned at threshold 2"
        );
    }

    #[test]
    fn normalized_keys_round_trip() {
        let p = params();
        let mut s = KmerSpectrum::new(p.kmer_codec(), true);
        let code = p.kmer_codec().encode(b"ACGG").unwrap();
        let key = s.normalize(code);
        s.add_count(key, 2);
        assert_eq!(s.count_at(key), 2);
        assert_eq!(s.get_at(key), Some(2));
        // both strands normalize to the same key
        let rc = p.kmer_codec().encode(b"CCGT").unwrap();
        assert_eq!(s.normalize(rc), key);
        // iterator output is normalized by construction
        for (c, n) in s.iter() {
            assert_eq!(s.count_at(Normalized::assume(c)), n);
        }
    }

    #[test]
    fn unpruned_build_keeps_everything() {
        let p = params();
        let reads = vec![read(1, b"ACGTACGT")];
        let s = LocalSpectra::build_unpruned(&reads, &p);
        assert!(!s.kmers.is_empty());
        assert!(!s.tiles.is_empty());
        let pruned = LocalSpectra::build(&reads, &p);
        assert!(pruned.kmers.len() <= s.kmers.len());
    }
}
