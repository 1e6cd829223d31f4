//! Demand-driven wave prefetch for batched (aggregated) remote lookups.
//!
//! The distributed engine's base mode resolves every non-local spectrum
//! count with a synchronous one-key round trip, so a read with `m`
//! missing keys pays `m` network latencies. Systems that scale past
//! this (diBELLA, the Extreme-Scale Metagenome Assembly work) aggregate
//! requests per destination rank into vectorized messages — and they
//! aggregate the lookups a pass has *shown* it needs, not every lookup
//! it could conceivably make.
//!
//! [`correct_in_waves`] does that with the corrector's own window walk
//! ([`crate::corrector`]): it walks every unfinished read of a chunk
//! against the counts resident so far; a window that finds a key missing
//! names it and is deferred; the deduplicated missing keys of the whole
//! chunk go to the engine's [`WaveSource::fetch`] in one round; and the
//! walk resumes. Which keys are asked for is decided by the counts
//! already known: neighbours only of windows that are not solid, only
//! at the positions the k-mer prescreen leaves. A read whose pass defers
//! nothing is corrected: that pass is
//! [`correct_read`](crate::correct_read).
//!
//! Termination is structural, not a cap: a window is evaluated on final
//! bases once every window before it is final, and from then on it can
//! be deferred at most twice (once for its tile and k-mer keys, once for
//! its neighbours), because every key it names is resident on the next
//! pass. A chunk whose longest read has `w` windows therefore needs at
//! most `2w` fetch rounds.

use crate::corrector::{PartialAccess, ReadOutcome, Walk, WalkProgress, WalkScratch};
use crate::params::ReptileParams;
use dnaseq::{FxHashMap, Read};
use std::collections::hash_map::Entry;

/// Spectrum keys to fetch, normalized exactly like the corrector's own
/// lookups (canonical when `params.canonical`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchKeys {
    /// Normalized k-mer keys.
    pub kmers: Vec<u64>,
    /// Normalized tile keys.
    pub tiles: Vec<u128>,
}

impl PrefetchKeys {
    /// Total number of keys across both spectra.
    pub fn len(&self) -> usize {
        self.kmers.len() + self.tiles.len()
    }

    /// Whether no keys were enumerated.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty() && self.tiles.is_empty()
    }

    /// Sort and deduplicate both key lists.
    pub fn finish(&mut self) {
        self.kmers.sort_unstable();
        self.kmers.dedup();
        self.tiles.sort_unstable();
        self.tiles.dedup();
    }

    /// Empty both key lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.kmers.clear();
        self.tiles.clear();
    }
}

/// Append the first wave of `read` to `out`: what [`correct_in_waves`]
/// asks for when nothing is resident, which is every window's tile key
/// and its two k-mer keys — the keys that can be named without knowing a
/// count. Neighbour keys are asked for in later waves, once the counts
/// say which windows need them. Keys are appended raw — call
/// [`PrefetchKeys::finish`] afterwards to dedup.
pub fn enumerate_read_keys(read: &Read, params: &ReptileParams, out: &mut PrefetchKeys) {
    struct NothingResident<'a>(&'a mut PrefetchKeys);

    impl PartialAccess for NothingResident<'_> {
        fn kmer(&mut self, key: u64) -> Option<u32> {
            self.0.kmers.push(key);
            None
        }

        fn tile(&mut self, key: u128) -> Option<u32> {
            self.0.tiles.push(key);
            None
        }
    }

    Walk::new(params).name_keys(read, &mut NothingResident(out));
}

/// What [`correct_in_waves`] needs from an engine: the counts it can
/// answer without communication, and a way to fetch the rest.
pub trait WaveSource {
    /// Count of a normalized k-mer key if this rank holds it.
    fn resident_kmer(&mut self, key: u64) -> Option<u32>;
    /// Count of a normalized tile key if this rank holds it.
    fn resident_tile(&mut self, key: u128) -> Option<u32>;
    /// Fetch one wave: store the count of every key of `missing` (no
    /// duplicates, none resident, none fetched before) into `cache`. A
    /// key that cannot be fetched is stored as 0, the paper's "absent
    /// everywhere" answer.
    fn fetch(&mut self, missing: &PrefetchKeys, cache: &mut WaveCache);
}

/// The counts fetched so far for one chunk. `None` marks a key that has
/// been asked for in the current wave and not answered yet, so that no
/// key is asked for twice.
#[derive(Debug, Default)]
pub struct WaveCache {
    kmers: FxHashMap<u64, Option<u32>>,
    tiles: FxHashMap<u128, Option<u32>>,
}

impl WaveCache {
    /// Store the fetched count of a k-mer key.
    pub fn put_kmer(&mut self, key: u64, count: u32) {
        self.kmers.insert(key, Some(count));
    }

    /// Store the fetched count of a tile key.
    pub fn put_tile(&mut self, key: u128, count: u32) {
        self.tiles.insert(key, Some(count));
    }

    /// The fetched count of a k-mer key, `None` until it is answered.
    pub fn kmer(&self, key: u64) -> Option<u32> {
        self.kmers.get(&key).copied().flatten()
    }

    /// The fetched count of a tile key, `None` until it is answered.
    pub fn tile(&self, key: u128) -> Option<u32> {
        self.tiles.get(&key).copied().flatten()
    }
}

/// Everything [`correct_in_waves`] allocates, held by the caller so that
/// successive chunks reuse it.
#[derive(Debug, Default)]
pub struct WaveScratch {
    cache: WaveCache,
    missing: PrefetchKeys,
    progress: Vec<WalkProgress>,
    /// Indices of the reads not finished yet.
    active: Vec<usize>,
    walk: WalkScratch,
}

/// What one [`correct_in_waves`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Fetch rounds.
    pub waves: u32,
    /// K-mer lookups answered from fetched counts.
    pub kmer_hits: u64,
    /// Tile lookups answered from fetched counts.
    pub tile_hits: u64,
}

/// The walk's view of one wave: resident counts first, then fetched
/// ones; anything else is noted in `missing`, once.
struct WaveLookup<'a, S> {
    source: &'a mut S,
    cache: &'a mut WaveCache,
    missing: &'a mut PrefetchKeys,
    stats: &'a mut WaveStats,
}

/// Look `key` up among the fetched counts; a key seen for the first time
/// is marked as asked for and appended to `missing`.
fn fetched<K: Copy + Eq + std::hash::Hash>(
    cache: &mut FxHashMap<K, Option<u32>>,
    missing: &mut Vec<K>,
    hits: &mut u64,
    key: K,
) -> Option<u32> {
    match cache.entry(key) {
        Entry::Occupied(e) => {
            *hits += u64::from(e.get().is_some());
            *e.get()
        }
        Entry::Vacant(e) => {
            e.insert(None);
            missing.push(key);
            None
        }
    }
}

impl<S: WaveSource> PartialAccess for WaveLookup<'_, S> {
    fn kmer(&mut self, key: u64) -> Option<u32> {
        self.source.resident_kmer(key).or_else(|| {
            fetched(&mut self.cache.kmers, &mut self.missing.kmers, &mut self.stats.kmer_hits, key)
        })
    }

    fn tile(&mut self, key: u128) -> Option<u32> {
        self.source.resident_tile(key).or_else(|| {
            fetched(&mut self.cache.tiles, &mut self.missing.tiles, &mut self.stats.tile_hits, key)
        })
    }
}

/// Correct a chunk of reads in place against a spectrum that is only
/// partly resident, fetching the rest in waves (see the module docs).
/// `done(source, index, outcome)` is called once per read, as soon as it
/// is finished, with the source as it stands then: the read has seen
/// nothing fetched later. Bytes and [`ReadOutcome`] equal what
/// [`correct_read`](crate::correct_read) produces over the full spectrum.
pub fn correct_in_waves<S: WaveSource>(
    reads: &mut [Read],
    params: &ReptileParams,
    scratch: &mut WaveScratch,
    source: &mut S,
    mut done: impl FnMut(&S, usize, ReadOutcome),
) -> WaveStats {
    let walk = Walk::new(params);
    let WaveScratch { cache, missing, progress, active, walk: buffers } = scratch;
    cache.kmers.clear();
    cache.tiles.clear();
    missing.clear();
    progress.clear();
    progress.resize_with(reads.len(), WalkProgress::default);
    active.clear();
    active.extend(0..reads.len());
    let most_windows = reads.iter().map(|r| walk.windows(r.len())).max().unwrap_or(0);
    let mut stats = WaveStats::default();
    loop {
        let mut lookup = WaveLookup {
            source: &mut *source,
            cache: &mut *cache,
            missing: &mut *missing,
            stats: &mut stats,
        };
        active.retain(|&i| {
            let finished = walk.pass(&mut reads[i], &mut progress[i], &mut lookup, buffers);
            if finished {
                done(lookup.source, i, std::mem::take(&mut progress[i].outcome));
            }
            !finished
        });
        if active.is_empty() {
            return stats;
        }
        stats.waves += 1;
        assert!(
            stats.waves as usize <= 2 * most_windows,
            "wave {} over a chunk of at most {most_windows} windows per read: \
             a fetch left a requested key unanswered",
            stats.waves
        );
        source.fetch(missing, cache);
        missing.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::LocalSpectra;
    use crate::{correct_read, Normalized};

    fn params() -> ReptileParams {
        ReptileParams {
            k: 6,
            tile_overlap: 3,
            kmer_threshold: 2,
            tile_threshold: 2,
            ..ReptileParams::for_tests()
        }
    }

    fn dataset() -> Vec<Read> {
        let genome: Vec<u8> =
            (0..200).map(|i| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(i) % 4) as usize]).collect();
        (0..90u64)
            .map(|i| {
                let start = (i as usize * 7) % (genome.len() - 30);
                let mut seq = genome[start..start + 30].to_vec();
                let mut qual = vec![35u8; 30];
                if i % 3 == 0 {
                    let pos = 5 + (i as usize % 20);
                    seq[pos] = match seq[pos] {
                        b'A' => b'C',
                        b'C' => b'G',
                        b'G' => b'T',
                        _ => b'A',
                    };
                    qual[pos] = 6;
                }
                Read::new(i + 1, seq, qual)
            })
            .collect()
    }

    /// Nothing resident; every fetch is answered from the full spectra
    /// and logged.
    struct Remote<'a> {
        spectra: &'a LocalSpectra,
        waves: Vec<PrefetchKeys>,
    }

    impl WaveSource for Remote<'_> {
        fn resident_kmer(&mut self, _: u64) -> Option<u32> {
            None
        }

        fn resident_tile(&mut self, _: u128) -> Option<u32> {
            None
        }

        fn fetch(&mut self, missing: &PrefetchKeys, cache: &mut WaveCache) {
            for &k in &missing.kmers {
                cache.put_kmer(k, self.spectra.kmers.count_at(Normalized::assume(k)));
            }
            for &t in &missing.tiles {
                cache.put_tile(t, self.spectra.tiles.count_at(Normalized::assume(t)));
            }
            self.waves.push(missing.clone());
        }
    }

    #[test]
    fn waves_reproduce_correct_read_and_the_first_wave_is_the_enumeration() {
        for canonical in [false, true] {
            let p = ReptileParams { canonical, ..params() };
            let reads = dataset();
            let mut spectra = LocalSpectra::build(&reads, &p);
            let mut expected = reads.clone();
            let outcomes: Vec<ReadOutcome> =
                expected.iter_mut().map(|r| correct_read(r, &mut spectra, &p)).collect();
            assert!(outcomes.iter().any(ReadOutcome::corrected), "dataset must exercise commits");

            let mut chunk = reads.clone();
            let mut source = Remote { spectra: &spectra, waves: Vec::new() };
            let mut got = vec![None; reads.len()];
            let stats = correct_in_waves(
                &mut chunk,
                &p,
                &mut WaveScratch::default(),
                &mut source,
                |_, i, o| {
                    assert!(got[i].replace(o).is_none(), "read {i} finished twice");
                },
            );
            assert_eq!(chunk, expected);
            assert_eq!(got.into_iter().map(Option::unwrap).collect::<Vec<_>>(), outcomes);
            assert_eq!(stats.waves as usize, source.waves.len());
            assert!(stats.kmer_hits + stats.tile_hits > 0);

            let mut first = PrefetchKeys::default();
            for r in &reads {
                enumerate_read_keys(r, &p, &mut first);
            }
            first.finish();
            source.waves[0].finish();
            assert_eq!(source.waves[0], first);
        }
    }

    #[test]
    fn short_and_empty_reads_need_no_keys() {
        let p = params();
        let mut keys = PrefetchKeys::default();
        for read in [Read::new(1, b"ACGT".to_vec(), vec![35; 4]), Read::new(2, vec![], vec![])] {
            enumerate_read_keys(&read, &p, &mut keys);
        }
        assert!(keys.is_empty());
    }

    /// Three keys per window, the anchored final window included, and
    /// none for a window with an `N`.
    #[test]
    fn first_wave_names_tile_and_kmers_of_every_window() {
        let p = params(); // tile_len 9, stride 3
        let r = &dataset()[0];
        let mut read = Read::new(1, r.seq[..28].to_vec(), r.qual[..28].to_vec());
        let mut keys = PrefetchKeys::default();
        enumerate_read_keys(&read, &p, &mut keys);
        // starts 0, 3, .., 18 and the anchored 19
        assert_eq!((keys.tiles.len(), keys.kmers.len()), (8, 16));
        let tcodec = p.tile_codec();
        let last = tcodec.encode(&read.seq[28 - tcodec.len()..]).unwrap();
        assert_eq!(keys.tiles.last(), Some(&last));

        read.seq[26] = b'N'; // inside the windows at 18 and 19 only
        let mut keys = PrefetchKeys::default();
        enumerate_read_keys(&read, &p, &mut keys);
        assert_eq!((keys.tiles.len(), keys.kmers.len()), (6, 12));
    }
}
