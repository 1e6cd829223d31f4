//! Property tests for the Reptile corrector and spectra.

use dnaseq::{mix64, Read};
use proptest::prelude::*;
use reptile::spectrum::LocalSpectra;
use reptile::{
    correct_in_waves, correct_read, Normalized, PrefetchKeys, ReadOutcome, ReptileParams,
    SpectrumAccess, WaveScratch, WaveSource,
};

fn params() -> ReptileParams {
    ReptileParams {
        k: 6,
        tile_overlap: 3,
        kmer_threshold: 2,
        tile_threshold: 2,
        ..ReptileParams::default()
    }
}

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T', b'N']), len)
}

fn dna_clean(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), len)
}

fn reads_strategy() -> impl Strategy<Value = Vec<dnaseq::Read>> {
    // a pool of up to 8 templates, each repeated up to 6 times
    prop::collection::vec((dna(9..40), 1usize..6), 1..8).prop_map(|templates| {
        let mut reads = Vec::new();
        let mut id = 1u64;
        for (seq, copies) in templates {
            for _ in 0..copies {
                let qual: Vec<u8> =
                    seq.iter().enumerate().map(|(i, _)| 2 + ((i * 7) % 39) as u8).collect();
                reads.push(dnaseq::Read::new(id, seq.clone(), qual));
                id += 1;
            }
        }
        reads
    })
}

/// Which keys are resident: an arbitrary `pct` percent of them.
#[derive(Clone, Copy)]
struct Residency {
    salt: u64,
    pct: u64,
}

impl Residency {
    fn kmer(&self, key: u64) -> bool {
        mix64(key ^ self.salt) % 100 < self.pct
    }

    fn tile(&self, key: u128) -> bool {
        mix64((key as u64) ^ ((key >> 64) as u64) ^ self.salt) % 100 < self.pct
    }
}

/// A spectrum of which only part is resident; the rest is answered in
/// rounds, and every ask is logged.
struct SplitSpectrum<'a> {
    spectra: &'a LocalSpectra,
    resident: Residency,
    /// Every ask, resident or not.
    asked: PrefetchKeys,
    /// The answers to the round's queued requests.
    queued: Vec<u32>,
    /// First rule a round broke, if any.
    violation: Option<String>,
}

impl WaveSource for SplitSpectrum<'_> {
    fn ask_kmer(&mut self, key: u64) -> Option<u32> {
        self.asked.kmers.push(key);
        let count = self.spectra.kmers.count_at(Normalized::assume(key));
        self.resident.kmer(key).then_some(count).or_else(|| {
            self.queued.push(count);
            None
        })
    }

    fn ask_tile(&mut self, key: u128) -> Option<u32> {
        self.asked.tiles.push(key);
        let count = self.spectra.tiles.count_at(Normalized::assume(key));
        self.resident.tile(key).then_some(count).or_else(|| {
            self.queued.push(count);
            None
        })
    }

    fn exchange(&mut self, answers: &mut Vec<Option<u32>>) {
        if self.queued.is_empty() {
            self.violation.get_or_insert("a round with no requests".into());
        }
        answers.extend(self.queued.drain(..).map(Some));
    }
}

/// Records every probe `correct_read` makes.
struct Probed<'a> {
    spectra: &'a mut LocalSpectra,
    every: &'a mut PrefetchKeys,
}

impl SpectrumAccess for Probed<'_> {
    fn kmer_count(&mut self, code: u64) -> u32 {
        self.every.kmers.push(code);
        self.spectra.kmer_count(code)
    }

    fn tile_count(&mut self, code: u128) -> u32 {
        self.every.tiles.push(code);
        self.spectra.tile_count(code)
    }
}

/// One wave-driver case, everything drawn from `seed` (call this with a
/// failing seed to replay it): reads with `N`s, reads shorter than a
/// tile, lengths the stride does not divide, either strand handling,
/// strict or relaxed quality, and any share of the spectrum resident (a
/// prefetched first wave is one such share). The asks are, key for key
/// and as many times, the lookups of the sequential walk.
fn wave_case(seed: u64) -> Result<(), String> {
    let mut state = seed;
    let mut draw = |n: u64| {
        state = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
        state % n
    };
    let p = ReptileParams {
        canonical: draw(2) == 0,
        relax_quality: draw(2) == 0,
        ..params() // tile_len 9, stride 3
    };
    let genome: Vec<u8> = (0..60 + draw(90)).map(|_| b"ACGT"[draw(4) as usize]).collect();
    let reads: Vec<Read> = (0..20 + draw(40))
        .map(|id| {
            let len = (4 + draw(37) as usize).min(genome.len());
            let at = draw((genome.len() - len + 1) as u64) as usize;
            let mut seq = genome[at..at + len].to_vec();
            let mut qual = vec![35u8; len];
            for _ in 0..draw(3) {
                let pos = draw(len as u64) as usize;
                seq[pos] = b"ACGTN"[draw(5) as usize];
                qual[pos] = [4, 12, 30][draw(3) as usize];
            }
            Read::new(id + 1, seq, qual)
        })
        .collect();
    let mut spectra = LocalSpectra::build(&reads, &p);

    let mut chunk = reads.clone();
    let resident = Residency { salt: draw(u64::MAX), pct: [0, 30, 70, 95][draw(4) as usize] };
    let mut source = SplitSpectrum {
        spectra: &spectra,
        resident,
        asked: PrefetchKeys::default(),
        queued: Vec::new(),
        violation: None,
    };
    let mut outcomes: Vec<Option<ReadOutcome>> = vec![None; reads.len()];
    let stats =
        correct_in_waves(&mut chunk, &p, &mut WaveScratch::default(), &mut source, |i, o, _| {
            outcomes[i] = Some(o);
        });
    if let Some(violation) = source.violation {
        return Err(violation);
    }
    let most_windows = reads
        .iter()
        .filter(|r| r.len() >= p.tile_len())
        .map(|r| (r.len() - p.tile_len()).div_ceil(3) + 1)
        .max()
        .unwrap_or(0);
    // the pass that finishes the last read follows the last round
    if stats.waves as usize > 3 * most_windows {
        return Err(format!("{} rounds for at most {most_windows} windows", stats.waves));
    }
    let mut asked = source.asked;
    let mut every = PrefetchKeys::default();
    for ((original, got), outcome) in reads.iter().zip(&chunk).zip(outcomes) {
        let mut probed = Probed { spectra: &mut spectra, every: &mut every };
        let mut want = original.clone();
        let want_outcome = correct_read(&mut want, &mut probed, &p);
        if *got != want || outcome.as_ref() != Some(&want_outcome) {
            return Err(format!("read {} differs: {got:?} {outcome:?} vs {want:?}", want.id));
        }
    }
    for keys in [&mut asked, &mut every] {
        keys.kmers.sort_unstable();
        keys.tiles.sort_unstable();
    }
    if asked != every {
        return Err(format!(
            "the rounds asked {} k-mers and {} tiles, the sequential walk {} and {}",
            asked.kmers.len(),
            asked.tiles.len(),
            every.kmers.len(),
            every.tiles.len()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wave driver over a partly resident spectrum is `correct_read`
    /// over the full one: same bytes, same `ReadOutcome`, the asks are the
    /// sequential probes, and the round count respects the structural
    /// bound. A failure (a panic included) reports the seed to replay.
    #[test]
    fn waves_equal_correct_read(seed in any::<u64>()) {
        let result = std::panic::catch_unwind(|| wave_case(seed));
        prop_assert!(matches!(result, Ok(Ok(()))), "wave_case({seed:#x}): {result:?}");
    }

    /// Correction never changes read length or identity, and every fix is
    /// a real substitution at a valid position.
    #[test]
    fn corrector_structural_invariants(reads in reads_strategy(), target in 0usize..40) {
        let p = params();
        let mut spectra = LocalSpectra::build(&reads, &p);
        let idx = target % reads.len();
        let original = reads[idx].clone();
        let mut read = original.clone();
        let outcome = correct_read(&mut read, &mut spectra, &p);
        prop_assert_eq!(read.len(), original.len());
        prop_assert_eq!(read.id, original.id);
        prop_assert_eq!(&read.qual, &original.qual);
        let changed = read.seq.iter().zip(&original.seq).filter(|(a, b)| a != b).count();
        prop_assert_eq!(changed, outcome.fixes.len());
        for fix in &outcome.fixes {
            prop_assert!((fix.pos as usize) < read.len());
            prop_assert_ne!(fix.from, fix.to);
            prop_assert_eq!(read.seq[fix.pos as usize], fix.to);
            prop_assert!(matches!(fix.to, b'A' | b'C' | b'G' | b'T'));
        }
        // N positions are never "corrected"
        for (i, &b) in original.seq.iter().enumerate() {
            if b == b'N' {
                prop_assert_eq!(read.seq[i], b'N');
            }
        }
    }

    /// A read whose tiles are all solid is never modified.
    #[test]
    fn solid_reads_untouched(seq in dna_clean(12..40), copies in 3usize..8) {
        let p = params();
        let reads: Vec<dnaseq::Read> = (0..copies)
            .map(|i| dnaseq::Read::new(i as u64 + 1, seq.clone(), vec![35; seq.len()]))
            .collect();
        let mut spectra = LocalSpectra::build(&reads, &p);
        let mut read = reads[0].clone();
        let outcome = correct_read(&mut read, &mut spectra, &p);
        prop_assert!(!outcome.corrected());
        prop_assert_eq!(read.seq, seq);
    }

    /// Spectrum construction distributes over dataset partition: building
    /// from all reads equals merging per-part unpruned builds, then
    /// pruning — the algebra behind the distributed Step III.
    #[test]
    fn spectrum_merge_associativity(reads in reads_strategy(), split in 1usize..10) {
        let p = params();
        let cut = (split * reads.len() / 10).min(reads.len());
        let whole = LocalSpectra::build(&reads, &p);
        let left = LocalSpectra::build_unpruned(&reads[..cut], &p);
        let right = LocalSpectra::build_unpruned(&reads[cut..], &p);
        let mut merged = left;
        for (code, count) in right.kmers.iter() {
            merged.kmers.add_count(reptile::Normalized::assume(code), count);
        }
        for (code, count) in right.tiles.iter() {
            merged.tiles.add_count(reptile::Normalized::assume(code), count);
        }
        merged.kmers.prune(p.kmer_threshold);
        merged.tiles.prune(p.tile_threshold);
        let a: std::collections::HashMap<_, _> = whole.kmers.iter().collect();
        let b: std::collections::HashMap<_, _> = merged.kmers.iter().collect();
        prop_assert_eq!(a, b);
        let at: std::collections::HashMap<_, _> = whole.tiles.iter().collect();
        let bt: std::collections::HashMap<_, _> = merged.tiles.iter().collect();
        prop_assert_eq!(at, bt);
    }

    /// Canonical spectra are strand-symmetric: looking up a code and its
    /// reverse complement gives the same count.
    #[test]
    fn canonical_spectra_strand_symmetric(reads in reads_strategy()) {
        let p = ReptileParams { canonical: true, ..params() };
        let spectra = LocalSpectra::build(&reads, &p);
        let kcodec = p.kmer_codec();
        for (code, count) in spectra.kmers.iter().take(50) {
            let rc = kcodec.reverse_complement(code);
            prop_assert_eq!(spectra.kmers.count(rc), count);
        }
    }
}
