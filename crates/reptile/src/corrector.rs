//! The tile-by-tile Reptile corrector.
//!
//! Reptile "corrects tiles instead of k-mers. Since a tile has almost
//! twice the character count as the k-mer, error correction at the tile
//! level has far fewer candidates than at the k-mer level" (paper §II-A).
//! Per read, the corrector walks tile windows left to right (stride
//! `k − overlap`, so consecutive tiles share one k-mer):
//!
//! 1. a tile whose global count ≥ `tile_threshold` is *solid* — skip;
//! 2. otherwise collect candidate error positions: bases in the window
//!    with Phred < `q_threshold` (the paper's quality-score steering);
//!    if there are none and `relax_quality` is set, fall back to the
//!    lowest-quality positions in the window; cap at
//!    `max_positions_per_tile`, preferring lower quality;
//! 3. prescreen with the **k-mer spectrum**: if exactly one of the
//!    tile's two constituent k-mers is weak, restrict candidate positions
//!    to that k-mer's exclusive span (this is how Reptile uses both
//!    spectra);
//! 4. enumerate Hamming neighbours at those positions (≤
//!    `max_errors_per_tile` substitutions), ask for their tile counts as
//!    one group, keep those whose count ≥ `tile_threshold`;
//! 5. commit the winner if it is unambiguous: at most `max_candidates`
//!    survivors and the best count ≥ `dominance` × the runner-up
//!    (deterministic tie-breaks: count desc, distance asc, code asc);
//! 6. corrections are written into the read immediately so subsequent
//!    (overlapping) windows see them.
//!
//! All spectrum access goes through [`SpectrumAccess`], which the
//! distributed engine implements with the paper's
//! `hashKmer → readsKmer → remote request` chain. The window logic is
//! written once, against [`PartialAccess`], whose lookups may answer
//! "not resident": [`correct_read`] walks the windows over an access that
//! always answers, and [`crate::prefetch`] walks a chunk of reads in
//! lockstep rounds, each read stopping at its first window that waits
//! and replaying that window's answers once the round has brought them.

use crate::params::ReptileParams;
use crate::prefetch::PrefetchKeys;
use crate::spectrum::{LocalSpectra, Normalized};
use dnaseq::neighbors::hamming_neighbors;
use dnaseq::quality::Phred;
use dnaseq::{Base, Read, TileCode};

/// Where the corrector gets k-mer/tile counts from.
///
/// Implementations must agree with the global spectrum: the same code
/// always yields the same count, no matter which rank asks — that is the
/// paper's correctness invariant for the distributed lookups ("If a k-mer
/// or tile does not exist at its owning rank, it can be inferred that the
/// k-mer or tile does not exist at all", §III step IV).
pub trait SpectrumAccess {
    /// Global count of a k-mer code (0 when absent from the spectrum).
    fn kmer_count(&mut self, code: u64) -> u32;
    /// Global count of a tile code (0 when absent from the spectrum).
    fn tile_count(&mut self, code: u128) -> u32;
    /// The counts of a group of normalized tile keys: one `Some(count)`
    /// per key, appended to `out` in key order (the answer form of
    /// [`PartialAccess::tiles`]; a spectrum access always answers). The
    /// default asks [`tile_count`](SpectrumAccess::tile_count) key by key
    /// — normalizing a normalized key changes nothing — so an access that
    /// counts its lookups counts each key once.
    fn tile_counts(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        out.extend(keys.iter().map(|&key| Some(self.tile_count(key))));
    }
}

impl SpectrumAccess for LocalSpectra {
    #[inline]
    fn kmer_count(&mut self, code: u64) -> u32 {
        self.kmers.count(code)
    }

    #[inline]
    fn tile_count(&mut self, code: u128) -> u32 {
        self.tiles.count(code)
    }

    /// The group without re-normalizing its keys.
    fn tile_counts(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        self.tiles.counts_at(Normalized::assume(keys), out);
    }
}

/// One committed base substitution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaseFix {
    /// Position in the read.
    pub pos: u32,
    /// Original base (ASCII).
    pub from: u8,
    /// Corrected base (ASCII).
    pub to: u8,
}

/// Per-read correction outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Substitutions committed, in commit order.
    pub fixes: Vec<BaseFix>,
    /// Tile windows evaluated.
    pub tiles_evaluated: u32,
    /// Windows already solid.
    pub tiles_solid: u32,
    /// Windows corrected.
    pub tiles_corrected: u32,
    /// Windows left alone: no solid neighbour.
    pub tiles_uncorrectable: u32,
    /// Windows left alone: too many / non-dominant candidates.
    pub tiles_ambiguous: u32,
    /// Windows skipped (contained `N`).
    pub tiles_skipped: u32,
}

impl ReadOutcome {
    /// Whether any substitution was committed.
    pub fn corrected(&self) -> bool {
        !self.fixes.is_empty()
    }
}

/// Aggregate statistics over a batch of reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorrectionStats {
    /// Reads processed.
    pub reads: u64,
    /// Reads with at least one fix.
    pub reads_corrected: u64,
    /// Total substitutions committed ("errors corrected" in Fig 4).
    pub errors_corrected: u64,
    /// Tile windows evaluated.
    pub tiles_evaluated: u64,
    /// Solid windows.
    pub tiles_solid: u64,
    /// Ambiguous windows.
    pub tiles_ambiguous: u64,
    /// Uncorrectable windows.
    pub tiles_uncorrectable: u64,
}

impl CorrectionStats {
    /// Fold one read's outcome into the aggregate.
    pub fn absorb(&mut self, o: &ReadOutcome) {
        self.reads += 1;
        if o.corrected() {
            self.reads_corrected += 1;
        }
        self.errors_corrected += o.fixes.len() as u64;
        self.tiles_evaluated += o.tiles_evaluated as u64;
        self.tiles_solid += o.tiles_solid as u64;
        self.tiles_ambiguous += o.tiles_ambiguous as u64;
        self.tiles_uncorrectable += o.tiles_uncorrectable as u64;
    }

    /// Merge another aggregate into this one.
    pub fn merge(&mut self, other: &CorrectionStats) {
        self.reads += other.reads;
        self.reads_corrected += other.reads_corrected;
        self.errors_corrected += other.errors_corrected;
        self.tiles_evaluated += other.tiles_evaluated;
        self.tiles_solid += other.tiles_solid;
        self.tiles_ambiguous += other.tiles_ambiguous;
        self.tiles_uncorrectable += other.tiles_uncorrectable;
    }
}

/// Spectrum lookups that may answer "not resident" — what the window
/// walk is written against.
///
/// `None` means the count is not available on this rank right now; the
/// access has queued the key for the round, and the window that asked
/// waits for a later pass. [`correct_read`] runs the walk over an access
/// that is always resident.
pub trait PartialAccess {
    /// Count of a normalized k-mer key, or `None` when not resident.
    fn kmer(&mut self, key: u64) -> Option<u32>;
    /// Count of a normalized tile key, or `None` when not resident.
    fn tile(&mut self, key: u128) -> Option<u32>;
    /// [`tile`](PartialAccess::tile) for a group of normalized tile keys
    /// (a window's neighbour candidates): one answer per key, appended to
    /// `out` in key order.
    fn tiles(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>);
}

/// Every [`SpectrumAccess`] is a [`PartialAccess`] that never defers.
struct Resident<'a, A>(&'a mut A);

impl<A: SpectrumAccess> PartialAccess for Resident<'_, A> {
    #[inline]
    fn kmer(&mut self, key: u64) -> Option<u32> {
        Some(self.0.kmer_count(key))
    }

    #[inline]
    fn tile(&mut self, key: u128) -> Option<u32> {
        Some(self.0.tile_count(key))
    }

    fn tiles(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        self.0.tile_counts(keys, out);
    }
}

/// Buffers of the window walk, held by the caller so one allocation
/// serves every window of every read (and every wave) it corrects.
#[derive(Debug, Default)]
pub struct WalkScratch {
    positions: Vec<usize>,
    /// `(code, distance)` of every Hamming neighbour of one window.
    neighbors: Vec<(TileCode, usize)>,
    /// Their tile keys, in the same order.
    keys: Vec<u128>,
    /// The answers to those keys.
    counts: Vec<Option<u32>>,
    /// `(code, count, distance)` of the solid neighbours of one window.
    candidates: Vec<(TileCode, u32, usize)>,
}

/// How far the walk over one read has got: windows before `next` are
/// final (their commits are in the read, their counters in `outcome`).
#[derive(Debug, Default)]
pub(crate) struct WalkProgress {
    next: usize,
    pub(crate) outcome: ReadOutcome,
    /// The answers window `next` has had, in ask order; `None` = asked,
    /// answer not in yet.
    pub(crate) answers: Vec<Option<u32>>,
    /// One of this read's own answers was degraded.
    pub(crate) degraded: bool,
}

impl WalkProgress {
    /// Start a new read, keeping the answer log's allocation.
    pub(crate) fn reset(&mut self) {
        let mut answers = std::mem::take(&mut self.answers);
        answers.clear();
        *self = WalkProgress { answers, ..WalkProgress::default() };
    }
}

/// The parameters and codecs one walk needs, derived once per caller.
pub(crate) struct Walk<'a> {
    params: &'a ReptileParams,
    tcodec: dnaseq::TileCodec,
    kcodec: dnaseq::KmerCodec,
}

/// The lockstep walk's view of an access: the asks of a window first
/// replay the answers it already has, and whatever it asks beyond them
/// goes to the access and is logged.
struct Replay<'a, A> {
    answers: &'a mut Vec<Option<u32>>,
    asked: usize,
    access: &'a mut A,
}

impl<A: PartialAccess> Replay<'_, A> {
    #[inline]
    fn ask(&mut self, ask: impl FnOnce(&mut A) -> Option<u32>) -> Option<u32> {
        if self.asked == self.answers.len() {
            let answer = ask(self.access);
            self.answers.push(answer);
        }
        self.asked += 1;
        self.answers[self.asked - 1]
    }
}

impl<A: PartialAccess> PartialAccess for Replay<'_, A> {
    #[inline]
    fn kmer(&mut self, key: u64) -> Option<u32> {
        self.ask(|access| access.kmer(key))
    }

    #[inline]
    fn tile(&mut self, key: u128) -> Option<u32> {
        self.ask(|access| access.tile(key))
    }

    /// Replays the logged prefix of the group and asks the rest in one
    /// call, logging its answers: the log ends up as the per-key asks
    /// would leave it.
    fn tiles(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        let logged = (self.answers.len() - self.asked).min(keys.len());
        if logged < keys.len() {
            self.access.tiles(&keys[logged..], self.answers);
        }
        out.extend_from_slice(&self.answers[self.asked..self.asked + keys.len()]);
        self.asked += keys.len();
    }
}

/// What the walk decided about one window.
enum Verdict {
    /// The window contains `N`.
    Skipped,
    Solid,
    Uncorrectable,
    Ambiguous,
    /// Rewrite the window's tile `raw` as `winner`.
    Fix {
        raw: TileCode,
        winner: TileCode,
    },
}

impl<'a> Walk<'a> {
    pub(crate) fn new(params: &'a ReptileParams) -> Walk<'a> {
        Walk { params, tcodec: params.tile_codec(), kcodec: params.kmer_codec() }
    }

    /// Tile windows of a read of `read_len` bases: one per stride, plus
    /// the window anchored at the read end when the stride does not land
    /// on it (so 3' bases are correctable).
    pub(crate) fn windows(&self, read_len: usize) -> usize {
        let Some(last_start) = read_len.checked_sub(self.tcodec.len()) else { return 0 };
        last_start.div_ceil(self.tcodec.stride()) + 1
    }

    /// Start of window `w` of a read of `read_len` bases.
    fn start(&self, w: usize, read_len: usize) -> usize {
        (w * self.tcodec.stride()).min(read_len - self.tcodec.len())
    }

    /// The k-mer keys of a tile's two constituent k-mers.
    #[inline]
    fn kmer_keys(&self, raw_tile: TileCode) -> (u64, u64) {
        let (first, second) = self.tcodec.to_kmers(raw_tile);
        let canonical = self.params.canonical;
        (kmer_key(&self.kcodec, first, canonical), kmer_key(&self.kcodec, second, canonical))
    }

    /// Append the keys of every window of `read` that can be named
    /// without knowing a count: each window's tile key and its two k-mer
    /// keys, window by window; none for a window with an `N`.
    pub(crate) fn name_keys(&self, read: &Read, keys: &mut PrefetchKeys) {
        let tile_len = self.tcodec.len();
        for w in 0..self.windows(read.len()) {
            let start = self.start(w, read.len());
            let Some(raw_tile) = self.tcodec.encode(&read.seq[start..start + tile_len]) else {
                continue;
            };
            keys.tiles.push(tile_key(&self.tcodec, raw_tile, self.params.canonical));
            let (first, second) = self.kmer_keys(raw_tile);
            keys.kmers.extend([first, second]);
        }
    }

    /// One left-to-right pass over the windows of `read` that are not
    /// final yet. It stops at the first window that waits, having asked
    /// for exactly the keys the sequential walk asks next (a window asks
    /// in at most three groups — its tile, its two k-mers, its neighbour
    /// tiles — and every member of a group is named before any of its
    /// answers is needed). The next pass replays that window's answers
    /// from `progress.answers` instead of asking again. Returns whether
    /// the read is finished.
    pub(crate) fn pass_lockstep(
        &self,
        read: &mut Read,
        progress: &mut WalkProgress,
        access: &mut impl PartialAccess,
        scratch: &mut WalkScratch,
    ) -> bool {
        for w in progress.next..self.windows(read.len()) {
            let start = self.start(w, read.len());
            let answers = &mut progress.answers;
            let mut replay = Replay { answers, asked: 0, access: &mut *access };
            let Some(verdict) = self.evaluate(read, start, &mut replay, scratch) else {
                return false;
            };
            progress.answers.clear();
            self.settle(read, start, verdict, &mut progress.outcome);
            progress.next = w + 1;
        }
        true
    }

    /// Decide one window from the bases as they stand, or return `None`
    /// when a key it needs is not resident (every key of the group that
    /// waits has then been asked for).
    #[inline]
    fn evaluate(
        &self,
        read: &Read,
        start: usize,
        access: &mut impl PartialAccess,
        scratch: &mut WalkScratch,
    ) -> Option<Verdict> {
        let (params, tcodec, kcodec) = (self.params, &self.tcodec, &self.kcodec);
        let tile_len = tcodec.len();
        let Some(raw_tile) = tcodec.encode(&read.seq[start..start + tile_len]) else {
            return Some(Verdict::Skipped);
        };
        let tile_count = access.tile(tile_key(tcodec, raw_tile, params.canonical))?;
        if tile_count >= params.tile_threshold {
            return Some(Verdict::Solid);
        }
        // --- candidate positions ---
        let WalkScratch { positions, neighbors, keys, counts, candidates } = scratch;
        positions.clear();
        collect_positions(&read.qual[start..start + tile_len], params, positions);
        if positions.is_empty() {
            return Some(Verdict::Uncorrectable);
        }
        // --- k-mer prescreen: restrict to the weak half when unambiguous ---
        let (first_key, second_key) = self.kmer_keys(raw_tile);
        let (first_count, second_count) = (access.kmer(first_key), access.kmer(second_key));
        let first_solid = first_count? >= params.kmer_threshold;
        let second_solid = second_count? >= params.kmer_threshold;
        if first_solid && !second_solid {
            // error likely in the second k-mer's exclusive tail
            positions.retain(|&p| p >= kcodec.k());
        } else if !first_solid && second_solid {
            // error likely in the first k-mer's exclusive head
            positions.retain(|&p| p < tcodec.stride());
        }
        if positions.is_empty() {
            return Some(Verdict::Uncorrectable);
        }
        // --- neighbour search: the whole candidate set, asked as one group ---
        neighbors.clear();
        hamming_neighbors(raw_tile, tile_len, positions, params.max_errors_per_tile, neighbors);
        keys.clear();
        keys.extend(neighbors.iter().map(|&(cand, _)| tile_key(tcodec, cand, params.canonical)));
        counts.clear();
        access.tiles(keys, counts);
        candidates.clear();
        for (&(cand, d), &count) in neighbors.iter().zip(counts.iter()) {
            match count {
                Some(count) if count >= params.tile_threshold => candidates.push((cand, count, d)),
                Some(_) => {}
                None => return None,
            }
        }
        if candidates.is_empty() {
            return Some(Verdict::Uncorrectable);
        }
        if candidates.len() > params.max_candidates {
            return Some(Verdict::Ambiguous);
        }
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
        if candidates.len() > 1 && candidates[0].1 < params.dominance * candidates[1].1 {
            return Some(Verdict::Ambiguous);
        }
        Some(Verdict::Fix { raw: raw_tile, winner: candidates[0].0 })
    }

    /// Make a verdict final: count it, and write a fix into the read so
    /// later (overlapping) windows see it.
    #[inline]
    fn settle(&self, read: &mut Read, start: usize, verdict: Verdict, out: &mut ReadOutcome) {
        out.tiles_evaluated += 1;
        match verdict {
            Verdict::Skipped => out.tiles_skipped += 1,
            Verdict::Solid => out.tiles_solid += 1,
            Verdict::Uncorrectable => out.tiles_uncorrectable += 1,
            Verdict::Ambiguous => out.tiles_ambiguous += 1,
            Verdict::Fix { raw, winner } => {
                for p in 0..self.tcodec.len() {
                    let newb = self.tcodec.base_at(winner, p);
                    if newb != self.tcodec.base_at(raw, p) {
                        let pos = start + p;
                        let fix = BaseFix {
                            pos: pos as u32,
                            from: read.seq[pos],
                            to: Base::from_code(newb).to_ascii(),
                        };
                        read.seq[pos] = fix.to;
                        out.fixes.push(fix);
                    }
                }
                out.tiles_corrected += 1;
            }
        }
    }
}

/// Correct one read in place. Deterministic: same read + same counts ⇒
/// same fixes, on any rank layout.
pub fn correct_read(
    read: &mut Read,
    access: &mut impl SpectrumAccess,
    params: &ReptileParams,
) -> ReadOutcome {
    correct_read_with(read, access, params, &mut WalkScratch::default())
}

/// [`correct_read`] with caller-held buffers, for loops over many reads.
pub fn correct_read_with(
    read: &mut Read,
    access: &mut impl SpectrumAccess,
    params: &ReptileParams,
    scratch: &mut WalkScratch,
) -> ReadOutcome {
    let walk = Walk::new(params);
    let mut outcome = ReadOutcome::default();
    let mut resident = Resident(access);
    for w in 0..walk.windows(read.len()) {
        let start = walk.start(w, read.len());
        let Some(verdict) = walk.evaluate(read, start, &mut resident, scratch) else {
            unreachable!("an always-resident access defers nothing")
        };
        walk.settle(read, start, verdict, &mut outcome);
    }
    outcome
}

/// Candidate positions within a window, ascending: strictly-below-
/// threshold qualities; optional relaxation to the lowest-quality bases;
/// capped at `max_positions_per_tile` keeping the lowest qualities (ties:
/// leftmost). The tile and k-mer-only correctors share it.
///
/// Depends only on qualities, which corrections never change.
pub(crate) fn collect_positions(
    quals: &[Phred],
    params: &ReptileParams,
    positions: &mut Vec<usize>,
) {
    for (i, &q) in quals.iter().enumerate() {
        if q < params.q_threshold {
            positions.push(i);
        }
    }
    if positions.is_empty() && params.relax_quality {
        // take every position; the cap below keeps the weakest ones
        positions.extend(0..quals.len());
    }
    let cap = params.max_positions_per_tile;
    if positions.len() > cap {
        // the `(quality, position)` keys are distinct, so the kept set is
        // the one a full sort would keep
        positions.select_nth_unstable_by_key(cap, |&p| (quals[p], p));
        positions.truncate(cap);
        positions.sort_unstable();
    }
}

#[inline]
fn tile_key(codec: &dnaseq::TileCodec, code: u128, canonical: bool) -> u128 {
    if canonical {
        codec.canonical(code)
    } else {
        code
    }
}

#[inline]
fn kmer_key(codec: &dnaseq::KmerCodec, code: u64, canonical: bool) -> u64 {
    if canonical {
        codec.canonical(code)
    } else {
        code
    }
}

/// Correct a whole dataset sequentially: build spectra, then correct each
/// read. Returns corrected reads (ids preserved) and aggregate stats.
///
/// ```
/// use dnaseq::Read;
/// use reptile::{correct_dataset, ReptileParams};
/// let params = ReptileParams { k: 4, tile_overlap: 2, kmer_threshold: 2,
///                              tile_threshold: 2, ..Default::default() };
/// let template = b"ACGTACGTTGCA";
/// let mut reads: Vec<Read> = (1..=5)
///     .map(|id| Read::new(id, template.to_vec(), vec![35; 12]))
///     .collect();
/// // read 6 has one low-quality error at position 5
/// let mut seq = template.to_vec();
/// seq[5] = b'A';
/// let mut qual = vec![35u8; 12];
/// qual[5] = 5;
/// reads.push(Read::new(6, seq, qual));
/// let (corrected, stats) = correct_dataset(&reads, &params);
/// assert_eq!(corrected[5].seq, template.to_vec());
/// assert_eq!(stats.errors_corrected, 1);
/// ```
pub fn correct_dataset(reads: &[Read], params: &ReptileParams) -> (Vec<Read>, CorrectionStats) {
    let mut spectra = LocalSpectra::build(reads, params);
    let mut stats = CorrectionStats::default();
    let mut scratch = WalkScratch::default();
    let corrected = reads
        .iter()
        .map(|r| {
            let mut read = r.clone();
            let outcome = correct_read_with(&mut read, &mut spectra, params, &mut scratch);
            stats.absorb(&outcome);
            read
        })
        .collect();
    (corrected, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ReptileParams {
        ReptileParams {
            k: 4,
            tile_overlap: 2,
            kmer_threshold: 2,
            tile_threshold: 2,
            q_threshold: 20,
            max_errors_per_tile: 2,
            max_positions_per_tile: 6,
            max_candidates: 4,
            dominance: 2,
            relax_quality: true,
            canonical: false,
        }
    }

    /// Spectra from many copies of a template read.
    fn spectra_from_template(template: &[u8], copies: usize, p: &ReptileParams) -> LocalSpectra {
        let reads: Vec<Read> = (0..copies)
            .map(|i| Read::new(i as u64 + 1, template.to_vec(), vec![35; template.len()]))
            .collect();
        LocalSpectra::build(&reads, p)
    }

    /// Over the cap, the kept positions are the lowest `(quality,
    /// position)` keys, ascending — what a full sort keeps — whether they
    /// come from the threshold or from relaxing it.
    #[test]
    fn capped_positions_are_the_weakest_ascending() {
        let p = params();
        let quals = [9, 3, 30, 9, 1, 12, 3, 15, 9, 3];
        let mut positions = Vec::new();
        collect_positions(&quals, &p, &mut positions);
        assert_eq!(positions, [0, 1, 3, 4, 6, 9]);
        positions.clear();
        collect_positions(&[35, 40, 25, 35, 38, 25, 36, 39], &p, &mut positions);
        assert_eq!(positions, [0, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn clean_read_untouched() {
        let p = params();
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 5, &p);
        let mut read = Read::new(9, template.to_vec(), vec![35; template.len()]);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert!(!out.corrected());
        assert_eq!(read.seq, template.to_vec());
        assert_eq!(out.tiles_solid, out.tiles_evaluated);
    }

    #[test]
    fn single_low_quality_error_fixed() {
        let p = params();
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 5, &p);
        // introduce an error at position 5 (true base C -> A), low quality
        let mut seq = template.to_vec();
        seq[5] = b'A';
        let mut qual = vec![35u8; seq.len()];
        qual[5] = 8;
        let mut read = Read::new(9, seq, qual);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert_eq!(read.seq, template.to_vec(), "error corrected");
        assert_eq!(out.fixes, vec![BaseFix { pos: 5, from: b'A', to: b'C' }]);
    }

    #[test]
    fn error_at_read_end_fixed_by_anchored_window() {
        let p = params(); // tile_len 6, stride 2
        let template = b"ACGTACGTTGCAT"; // len 13: windows at 0,2,4,6 + anchored 7
        let mut spectra = spectra_from_template(template, 5, &p);
        let mut seq = template.to_vec();
        seq[12] = b'A'; // last base T -> A
        let mut qual = vec![35u8; seq.len()];
        qual[12] = 5;
        let mut read = Read::new(9, seq, qual);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert_eq!(read.seq, template.to_vec());
        assert_eq!(out.fixes.len(), 1);
        assert_eq!(out.fixes[0].pos, 12);
    }

    #[test]
    fn high_quality_error_not_touched_when_strict() {
        let mut p = params();
        p.relax_quality = false;
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 5, &p);
        let mut seq = template.to_vec();
        seq[5] = b'A';
        let mut read = Read::new(9, seq.clone(), vec![35; seq.len()]); // high qual everywhere
        let out = correct_read(&mut read, &mut spectra, &p);
        assert!(!out.corrected(), "strict mode refuses high-quality positions");
        assert_eq!(read.seq, seq);
    }

    #[test]
    fn relax_quality_rescues_high_quality_error() {
        let p = params(); // relax_quality = true
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 5, &p);
        let mut seq = template.to_vec();
        seq[5] = b'A';
        let mut qual = vec![35u8; seq.len()];
        qual[5] = 30; // above threshold but the lowest in its windows
        qual[4] = 34;
        let mut read = Read::new(9, seq, qual);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert_eq!(read.seq, template.to_vec());
        assert!(out.corrected());
    }

    #[test]
    fn ambiguous_candidates_left_alone() {
        let p = params();
        // two equally common templates differing at position 5
        let t1 = b"ACGTACGTTGCA";
        let t2 = b"ACGTAGGTTGCA";
        let mut reads = Vec::new();
        for i in 0..5u64 {
            reads.push(Read::new(2 * i + 1, t1.to_vec(), vec![35; 12]));
            reads.push(Read::new(2 * i + 2, t2.to_vec(), vec![35; 12]));
        }
        let mut spectra = LocalSpectra::build(&reads, &p);
        // a read with an error at position 5 could correct toward either
        let mut seq = t1.to_vec();
        seq[5] = b'T'; // neither C nor G
        let mut qual = vec![35u8; 12];
        qual[5] = 5;
        let mut read = Read::new(99, seq.clone(), qual);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert!(!out.corrected(), "equal-count candidates must not be guessed");
        assert!(out.tiles_ambiguous > 0);
        assert_eq!(read.seq, seq);
    }

    #[test]
    fn dominant_candidate_wins_over_rare_one() {
        let p = params();
        let t1 = b"ACGTACGTTGCA"; // common
        let t2 = b"ACGTAGGTTGCA"; // rare (but above threshold)
        let mut reads = Vec::new();
        for i in 0..10u64 {
            reads.push(Read::new(i + 1, t1.to_vec(), vec![35; 12]));
        }
        for i in 0..2u64 {
            reads.push(Read::new(100 + i, t2.to_vec(), vec![35; 12]));
        }
        let mut spectra = LocalSpectra::build(&reads, &p);
        let mut seq = t1.to_vec();
        seq[5] = b'T';
        let mut qual = vec![35u8; 12];
        qual[5] = 5;
        let mut read = Read::new(99, seq, qual);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert!(out.corrected());
        assert_eq!(read.seq, t1.to_vec(), "10:2 dominance picks the common template");
    }

    #[test]
    fn short_read_is_noop() {
        let p = params();
        let mut spectra = spectra_from_template(b"ACGTACGTTGCA", 5, &p);
        let mut read = Read::new(1, b"ACGT".to_vec(), vec![5; 4]);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert_eq!(out, ReadOutcome::default());
    }

    #[test]
    fn n_windows_skipped() {
        let p = params();
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 5, &p);
        let mut seq = template.to_vec();
        seq[5] = b'N';
        let mut read = Read::new(1, seq.clone(), vec![5; 12]);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert!(out.tiles_skipped > 0);
        assert_eq!(read.seq, Read::new(1, seq, vec![5; 12]).seq, "N windows untouched");
    }

    #[test]
    fn correction_is_idempotent() {
        let p = params();
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 5, &p);
        let mut seq = template.to_vec();
        seq[5] = b'A';
        let mut qual = vec![35u8; 12];
        qual[5] = 5;
        let mut read = Read::new(9, seq, qual);
        correct_read(&mut read, &mut spectra, &p);
        let after_first = read.clone();
        let out2 = correct_read(&mut read, &mut spectra, &p);
        assert!(!out2.corrected());
        assert_eq!(read, after_first);
    }

    #[test]
    fn two_errors_in_one_tile_fixed() {
        let p = params();
        let template = b"ACGTACGTTGCA";
        let mut spectra = spectra_from_template(template, 6, &p);
        let mut seq = template.to_vec();
        seq[4] = b'G'; // A -> G
        seq[5] = b'A'; // C -> A
        let mut qual = vec![35u8; 12];
        qual[4] = 6;
        qual[5] = 6;
        let mut read = Read::new(9, seq, qual);
        let out = correct_read(&mut read, &mut spectra, &p);
        assert_eq!(read.seq, template.to_vec());
        assert_eq!(out.fixes.len(), 2);
    }

    #[test]
    fn stats_absorb_and_merge() {
        let mut a = CorrectionStats::default();
        let mut o = ReadOutcome::default();
        o.fixes.push(BaseFix { pos: 0, from: b'A', to: b'C' });
        o.tiles_evaluated = 3;
        o.tiles_solid = 2;
        a.absorb(&o);
        assert_eq!(a.reads, 1);
        assert_eq!(a.reads_corrected, 1);
        assert_eq!(a.errors_corrected, 1);
        let mut b = CorrectionStats::default();
        b.absorb(&ReadOutcome::default());
        a.merge(&b);
        assert_eq!(a.reads, 2);
        assert_eq!(a.reads_corrected, 1);
    }

    #[test]
    fn correct_dataset_end_to_end() {
        let p = params();
        let template = b"ACGTACGTTGCATTGA";
        let mut reads: Vec<Read> =
            (0..8).map(|i| Read::new(i + 1, template.to_vec(), vec![35; template.len()])).collect();
        // read 9 has one low-quality error
        let mut seq = template.to_vec();
        seq[7] = b'C';
        let mut qual = vec![35u8; template.len()];
        qual[7] = 4;
        reads.push(Read::new(9, seq, qual));
        let (corrected, stats) = correct_dataset(&reads, &p);
        assert_eq!(corrected.len(), 9);
        assert_eq!(corrected[8].seq, template.to_vec());
        assert_eq!(stats.reads, 9);
        assert_eq!(stats.reads_corrected, 1);
        assert_eq!(stats.errors_corrected, 1);
    }
}
