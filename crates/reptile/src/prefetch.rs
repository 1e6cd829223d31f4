//! Correcting a chunk of reads against a spectrum that is only partly
//! resident: the rounds of Step IV.
//!
//! A read corrected on its own pays one network latency per missing
//! count. Systems that scale past this (diBELLA, the Extreme-Scale
//! Metagenome Assembly work) keep many requests in flight, and ask for
//! the lookups a pass has *shown* it needs, not every lookup it could
//! conceivably make. [`correct_in_waves`] does that with the corrector's
//! own window walk ([`crate::corrector`]): it walks every unfinished read
//! of a chunk against the counts resident so far, a window that finds a
//! key missing names it and waits, the whole chunk's missing keys go out
//! in one round, and the walk resumes. A read whose pass waits for
//! nothing is corrected: that pass is [`correct_read`](crate::correct_read).
//! Two modes ([`WaveMode`]):
//!
//! * **Aggregate** — the chunk's missing keys are deduplicated and
//!   fetched as one vectorized batch per owner ([`WaveSource::fetch`]).
//!   The walk looks ahead to fill each wave: a missing tile pulls its
//!   k-mers along, and windows past a waiting one are evaluated on the
//!   bases they will most likely see.
//! * **Lockstep** — the paper's one request per lookup, latency hidden
//!   instead of paid. Each read asks exactly what the sequential walk
//!   asks, in its order, each key once ([`WaveSource::ask_kmer`]): its
//!   pass stops at the first window that waits, and the next pass replays
//!   that window's answers. The round's single-key requests are all sent
//!   before the first reply is awaited ([`WaveSource::exchange`]), so the
//!   message count is the sequential one and only the waiting overlaps.
//!
//! Termination is structural, not a cap: a window is evaluated on final
//! bases once every window before it is final, and from then on it can
//! wait at most twice in aggregate mode (its tile and k-mer keys, then its
//! neighbours) and three times in lockstep mode (tile, k-mers,
//! neighbours), because every key it names is answered by the next pass.
//! A chunk whose longest read has `w` windows therefore needs at most
//! `2w` or `3w` rounds.

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

/// How [`correct_in_waves`] gets the counts a chunk is missing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaveMode {
    /// Deduplicated keys, one batch per owner and wave, looked ahead for.
    Aggregate,
    /// One single-key request per lookup of the sequential walk, a whole
    /// round in flight at once.
    Lockstep,
}

/// What [`correct_in_waves`] needs from an engine: the counts it can
/// answer without communication, and a way to get the rest.
pub trait WaveSource {
    /// Aggregate mode: count of a normalized k-mer key if this rank
    /// holds it. Asked again on every pass that needs the key.
    fn resident_kmer(&mut self, key: u64) -> Option<u32>;
    /// Aggregate mode: count of a normalized tile key if this rank holds
    /// it.
    fn resident_tile(&mut self, key: u128) -> Option<u32>;
    /// Aggregate mode: fetch one wave — store the count of every key of
    /// `missing` (no duplicates, none resident, none fetched before) into
    /// `cache`. A key that cannot be fetched is stored as 0, the paper's
    /// "absent everywhere" answer.
    fn fetch(&mut self, missing: &PrefetchKeys, cache: &mut WaveCache);
    /// Lockstep mode: one lookup of the sequential walk, asked once. The
    /// count if this rank can answer it; otherwise `None`, with one
    /// request for the key queued for the round.
    fn ask_kmer(&mut self, key: u64) -> Option<u32>;
    /// Lockstep mode: [`ask_kmer`](WaveSource::ask_kmer) for a tile key.
    fn ask_tile(&mut self, key: u128) -> Option<u32>;
    /// Lockstep mode: send every request queued since the last call, all
    /// of them before the first reply is awaited, and append one answer
    /// per request to `answers`, in queue order. `None` = the request
    /// degraded; the walk reads it as 0, the paper's "absent everywhere".
    fn exchange(&mut self, answers: &mut Vec<Option<u32>>);
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
    /// Lockstep mode: one round's answers, in request order.
    answers: Vec<Option<u32>>,
}

/// What one [`correct_in_waves`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Fetch rounds.
    pub waves: u32,
    /// Aggregate mode: k-mer lookups answered from fetched counts.
    pub kmer_hits: u64,
    /// Aggregate mode: tile lookups answered from fetched counts.
    pub tile_hits: u64,
}

/// The lockstep walk's access: every new ask goes to the source.
struct Ask<'a, S>(&'a mut S);

impl<S: WaveSource> PartialAccess for Ask<'_, S> {
    fn kmer(&mut self, key: u64) -> Option<u32> {
        self.0.ask_kmer(key)
    }

    fn tile(&mut self, key: u128) -> Option<u32> {
        self.0.ask_tile(key)
    }
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
/// partly resident, getting the rest in rounds (see the module docs).
/// `done(source, index, outcome, degraded)` is called once per read, as
/// soon as it is finished, with the source as it stands then: the read has
/// seen nothing fetched later. `degraded` says one of the read's own
/// lockstep answers degraded (always false in aggregate mode). Bytes and
/// [`ReadOutcome`] equal what [`correct_read`](crate::correct_read)
/// produces over the full spectrum.
pub fn correct_in_waves<S: WaveSource>(
    reads: &mut [Read],
    params: &ReptileParams,
    mode: WaveMode,
    scratch: &mut WaveScratch,
    source: &mut S,
    mut done: impl FnMut(&S, usize, ReadOutcome, bool),
) -> WaveStats {
    let lockstep = mode == WaveMode::Lockstep;
    let walk = if lockstep { Walk::lockstep(params) } else { Walk::new(params) };
    let WaveScratch { cache, missing, progress, active, walk: buffers, answers } = scratch;
    cache.kmers.clear();
    cache.tiles.clear();
    missing.clear();
    progress.truncate(reads.len());
    progress.iter_mut().for_each(WalkProgress::reset);
    progress.resize_with(reads.len(), WalkProgress::default);
    active.clear();
    active.extend(0..reads.len());
    let most_windows = reads.iter().map(|r| walk.windows(r.len())).max().unwrap_or(0);
    let max_waits = if lockstep { 3 } else { 2 };
    let mut stats = WaveStats::default();
    loop {
        // one pass over every unfinished read; a finished one is handed
        // back with the source as its walk left it
        let mut finish = |source: &S, i: usize, progress: &mut WalkProgress| {
            let outcome = std::mem::take(&mut progress.outcome);
            done(source, i, outcome, std::mem::take(&mut progress.degraded));
        };
        if lockstep {
            let mut ask = Ask(&mut *source);
            active.retain(|&i| {
                let finished =
                    walk.pass_lockstep(&mut reads[i], &mut progress[i], &mut ask, buffers);
                if finished {
                    finish(ask.0, i, &mut progress[i]);
                }
                !finished
            });
        } else {
            let mut lookup = WaveLookup {
                source: &mut *source,
                cache: &mut *cache,
                missing: &mut *missing,
                stats: &mut stats,
            };
            active.retain(|&i| {
                let finished = walk.pass(&mut reads[i], &mut progress[i], &mut lookup, buffers);
                if finished {
                    finish(lookup.source, i, &mut progress[i]);
                }
                !finished
            });
        }
        if active.is_empty() {
            return stats;
        }
        stats.waves += 1;
        assert!(
            stats.waves as usize <= max_waits * most_windows,
            "round {} over a chunk of at most {most_windows} windows per read: \
             a fetch left a requested key unanswered",
            stats.waves
        );
        if lockstep {
            // every unfinished read waits on requests of this round: its
            // unanswered asks, in the order they were queued
            answers.clear();
            source.exchange(answers);
            let mut replies = answers.iter();
            for &i in active.iter() {
                let read = &mut progress[i];
                for answer in read.answers.iter_mut().filter(|a| a.is_none()) {
                    let reply = *replies.next().expect("one answer per queued request");
                    read.degraded |= reply.is_none();
                    *answer = Some(reply.unwrap_or(0));
                }
            }
            debug_assert!(replies.next().is_none(), "an answer for no queued request");
        } else {
            source.fetch(missing, cache);
            missing.clear();
        }
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
    /// and logged, and so is every lockstep round.
    struct Remote<'a> {
        spectra: &'a LocalSpectra,
        waves: Vec<PrefetchKeys>,
        /// Lockstep: the requests queued for the round in flight.
        queued: PrefetchKeys,
        /// Lockstep: the order of `queued` (false = k-mer).
        queued_tile: Vec<bool>,
        /// Lockstep: every request, round by round.
        rounds: Vec<PrefetchKeys>,
    }

    impl<'a> Remote<'a> {
        fn new(spectra: &'a LocalSpectra) -> Self {
            Remote {
                spectra,
                waves: Vec::new(),
                queued: PrefetchKeys::default(),
                queued_tile: Vec::new(),
                rounds: Vec::new(),
            }
        }
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

        fn ask_kmer(&mut self, key: u64) -> Option<u32> {
            self.queued.kmers.push(key);
            self.queued_tile.push(false);
            None
        }

        fn ask_tile(&mut self, key: u128) -> Option<u32> {
            self.queued.tiles.push(key);
            self.queued_tile.push(true);
            None
        }

        fn exchange(&mut self, answers: &mut Vec<Option<u32>>) {
            let (mut kmers, mut tiles) = (self.queued.kmers.iter(), self.queued.tiles.iter());
            for &tile in &self.queued_tile {
                answers.push(Some(if tile {
                    self.spectra.tiles.count_at(Normalized::assume(*tiles.next().unwrap()))
                } else {
                    self.spectra.kmers.count_at(Normalized::assume(*kmers.next().unwrap()))
                }));
            }
            self.queued_tile.clear();
            self.rounds.push(std::mem::take(&mut self.queued));
        }
    }

    /// The sequential walk's lookups, counted.
    struct Counting<'a>(&'a mut LocalSpectra, PrefetchKeys);

    impl crate::SpectrumAccess for Counting<'_> {
        fn kmer_count(&mut self, code: u64) -> u32 {
            self.1.kmers.push(code);
            self.0.kmer_count(code)
        }

        fn tile_count(&mut self, code: u128) -> u32 {
            self.1.tiles.push(code);
            self.0.tile_count(code)
        }
    }

    /// Lockstep rounds reproduce `correct_read` with the sequential
    /// walk's lookups exactly: the same keys, as many times, each read's
    /// in its order — only grouped into rounds.
    #[test]
    fn lockstep_rounds_ask_exactly_what_the_sequential_walk_asks() {
        for canonical in [false, true] {
            let p = ReptileParams { canonical, ..params() };
            let reads = dataset();
            let mut spectra = LocalSpectra::build(&reads, &p);
            let mut expected = reads.clone();
            let mut sequential = Counting(&mut spectra, PrefetchKeys::default());
            let outcomes: Vec<ReadOutcome> =
                expected.iter_mut().map(|r| correct_read(r, &mut sequential, &p)).collect();
            let mut asked = sequential.1;
            assert!(outcomes.iter().any(ReadOutcome::corrected), "dataset must exercise commits");

            let mut chunk = reads.clone();
            let mut source = Remote::new(&spectra);
            let mut got = vec![None; reads.len()];
            let stats = correct_in_waves(
                &mut chunk,
                &p,
                WaveMode::Lockstep,
                &mut WaveScratch::default(),
                &mut source,
                |_, i, o, degraded| {
                    assert!(!degraded);
                    assert!(got[i].replace(o).is_none(), "read {i} finished twice");
                },
            );
            assert_eq!(chunk, expected);
            assert_eq!(got.into_iter().map(Option::unwrap).collect::<Vec<_>>(), outcomes);
            assert_eq!(stats.waves as usize, source.rounds.len());
            assert!(source.rounds.len() > 1 && source.waves.is_empty());
            assert!(source.rounds[0].len() >= reads.len(), "round 1 asks every read's first tile");
            let mut rounds = PrefetchKeys::default();
            for round in &source.rounds {
                rounds.kmers.extend(&round.kmers);
                rounds.tiles.extend(&round.tiles);
            }
            for keys in [&mut rounds, &mut asked] {
                keys.kmers.sort_unstable();
                keys.tiles.sort_unstable();
            }
            assert_eq!(rounds, asked, "canonical={canonical}");
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
            let mut source = Remote::new(&spectra);
            let mut got = vec![None; reads.len()];
            let stats = correct_in_waves(
                &mut chunk,
                &p,
                WaveMode::Aggregate,
                &mut WaveScratch::default(),
                &mut source,
                |_, i, o, _| {
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
