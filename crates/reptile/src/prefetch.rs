//! Correcting a chunk of reads against a spectrum that is only partly
//! resident: the rounds of Step IV.
//!
//! A read corrected on its own pays one network latency per missing
//! count. Systems that scale past this (diBELLA, the Extreme-Scale
//! Metagenome Assembly work) keep many requests in flight, and ask for
//! the lookups a pass has *shown* it needs, not every lookup it could
//! conceivably make. [`correct_in_waves`] does that with the corrector's
//! own window walk ([`crate::corrector`]), in lockstep rounds: each
//! unfinished read of a chunk walks to its first window that waits,
//! having asked exactly what the sequential walk asks next, in its order,
//! each lookup once ([`WaveSource::ask_kmer`]); the round's requests all
//! go out before the first reply is awaited ([`WaveSource::exchange`]);
//! the next pass replays the waiting window's answers and walks on. A
//! read whose pass waits for nothing is corrected: that pass is
//! [`correct_read`](crate::correct_read). How a round travels is the
//! source's business — one single-key request per ask, or the round's
//! asks deduplicated into one batch per owner — and so is anything it
//! fetched before the first round: [`enumerate_read_keys`] names the keys
//! a chunk needs before any count is known.
//!
//! Termination is structural, not a cap: a window is evaluated on final
//! bases once every window before it is final, and from then on it can
//! wait at most three times (tile, k-mers, neighbours), because every key
//! it names is answered by the next pass. A chunk whose longest read has
//! `w` windows therefore needs at most `3w` rounds.

use crate::corrector::{PartialAccess, ReadOutcome, Walk, WalkProgress, WalkScratch};
use crate::params::ReptileParams;
use dnaseq::Read;

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

/// Append the first wave of `read` to `out`: every window's tile key and
/// its two k-mer keys, window by window — the keys that can be named
/// without knowing a count. Neighbour keys depend on counts and are asked
/// for in the rounds, once the counts say which windows need them. Keys
/// are appended raw — call [`PrefetchKeys::finish`] afterwards to dedup.
pub fn enumerate_read_keys(read: &Read, params: &ReptileParams, out: &mut PrefetchKeys) {
    Walk::new(params).name_keys(read, out);
}

/// What [`correct_in_waves`] needs from an engine: the counts it can
/// answer without communication, and a way to get the rest in rounds.
pub trait WaveSource {
    /// One lookup of the sequential walk, asked once. The count if this
    /// rank can answer it; otherwise `None`, with a request for the key
    /// queued for the round.
    fn ask_kmer(&mut self, key: u64) -> Option<u32>;
    /// [`ask_kmer`](WaveSource::ask_kmer) for a tile key.
    fn ask_tile(&mut self, key: u128) -> Option<u32>;
    /// [`ask_tile`](WaveSource::ask_tile) for a group of tile keys (a
    /// window's neighbour candidates): one answer per key, appended to
    /// `out` in key order, and as many asks as keys, in that order. The
    /// default asks key by key.
    fn ask_tiles(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        out.extend(keys.iter().map(|&key| self.ask_tile(key)));
    }
    /// Send every request queued since the last call, all of them before
    /// the first reply is awaited, and append one answer per queued ask
    /// to `answers`, in queue order. `None` = the answer degraded; the
    /// walk reads it as 0, the paper's "absent everywhere".
    fn exchange(&mut self, answers: &mut Vec<Option<u32>>);
}

/// Everything [`correct_in_waves`] allocates, held by the caller so that
/// successive chunks reuse it.
#[derive(Debug, Default)]
pub struct WaveScratch {
    progress: Vec<WalkProgress>,
    /// Indices of the reads not finished yet.
    active: Vec<usize>,
    walk: WalkScratch,
    /// One round's answers, in request order.
    answers: Vec<Option<u32>>,
}

/// What one [`correct_in_waves`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Rounds exchanged.
    pub waves: u32,
}

/// The walk's access: every new ask goes to the source.
struct Ask<'a, S>(&'a mut S);

impl<S: WaveSource> PartialAccess for Ask<'_, S> {
    fn kmer(&mut self, key: u64) -> Option<u32> {
        self.0.ask_kmer(key)
    }

    fn tile(&mut self, key: u128) -> Option<u32> {
        self.0.ask_tile(key)
    }

    fn tiles(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        self.0.ask_tiles(keys, out);
    }
}

/// Correct a chunk of reads in place against a spectrum that is only
/// partly resident, getting the rest in rounds (see the module docs).
/// `done(index, outcome, degraded)` is called once per read, as soon as
/// it is finished; `degraded` says one of the read's own answers
/// degraded. Bytes and [`ReadOutcome`] equal what
/// [`correct_read`](crate::correct_read) produces over the full spectrum
/// whenever nothing degraded.
pub fn correct_in_waves<S: WaveSource>(
    reads: &mut [Read],
    params: &ReptileParams,
    scratch: &mut WaveScratch,
    source: &mut S,
    mut done: impl FnMut(usize, ReadOutcome, bool),
) -> WaveStats {
    let walk = Walk::new(params);
    let WaveScratch { progress, active, walk: buffers, answers } = scratch;
    progress.truncate(reads.len());
    progress.iter_mut().for_each(WalkProgress::reset);
    progress.resize_with(reads.len(), WalkProgress::default);
    active.clear();
    active.extend(0..reads.len());
    let most_windows = reads.iter().map(|r| walk.windows(r.len())).max().unwrap_or(0);
    let mut stats = WaveStats::default();
    loop {
        // one pass over every unfinished read; a finished one is handed
        // back at once
        let mut ask = Ask(&mut *source);
        active.retain(|&i| {
            let read = &mut progress[i];
            let finished = walk.pass_lockstep(&mut reads[i], read, &mut ask, buffers);
            if finished {
                done(i, std::mem::take(&mut read.outcome), std::mem::take(&mut read.degraded));
            }
            !finished
        });
        if active.is_empty() {
            return stats;
        }
        stats.waves += 1;
        assert!(
            stats.waves as usize <= 3 * most_windows,
            "round {} over a chunk of at most {most_windows} windows per read: \
             an exchange left a requested key unanswered",
            stats.waves
        );
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

    /// Nothing resident; every round is answered from the full spectra
    /// and logged.
    struct Remote<'a> {
        spectra: &'a LocalSpectra,
        /// The requests queued for the round in flight.
        queued: PrefetchKeys,
        /// The order of `queued` (false = k-mer).
        queued_tile: Vec<bool>,
        /// Every request, round by round.
        rounds: Vec<PrefetchKeys>,
    }

    impl<'a> Remote<'a> {
        fn new(spectra: &'a LocalSpectra) -> Self {
            Remote {
                spectra,
                queued: PrefetchKeys::default(),
                queued_tile: Vec::new(),
                rounds: Vec::new(),
            }
        }
    }

    impl WaveSource for Remote<'_> {
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
                &mut WaveScratch::default(),
                &mut source,
                |i, o, degraded| {
                    assert!(!degraded);
                    assert!(got[i].replace(o).is_none(), "read {i} finished twice");
                },
            );
            assert_eq!(chunk, expected);
            assert_eq!(got.into_iter().map(Option::unwrap).collect::<Vec<_>>(), outcomes);
            assert_eq!(stats.waves as usize, source.rounds.len());
            assert!(source.rounds.len() > 1);
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
