//! K-mer-spectrum-only correction — the baseline Reptile improves on.
//!
//! "Spectrum-based methods often correct k-mers in a read with their
//! Hamming distance neighbors ... However, this reduces exactness when an
//! erroneous k-mer has to be corrected since there are multiple
//! candidates for the k-mer. To avoid this scenario, Reptile corrects
//! tiles instead of k-mers. Since a tile has almost twice the character
//! count as the k-mer, error correction at the tile level has far fewer
//! candidates" (paper §II-A).
//!
//! This module implements exactly that weaker baseline — same quality
//! steering, same thresholds and ambiguity rules, but windows are single
//! k-mers — so the accuracy advantage of tiles is *measurable* on our
//! ground-truth datasets (`figures -- baseline`). It is not used by the
//! distributed engines.

use crate::corrector::{collect_positions, BaseFix, ReadOutcome, SpectrumAccess};
use crate::params::ReptileParams;
use dnaseq::neighbors::hamming_neighbors;
use dnaseq::{Base, Read};

/// Correct one read using only the k-mer spectrum. Window walk mirrors
/// the tile corrector: stride `k − overlap`, plus a final window anchored
/// at the read end.
pub fn correct_read_kmers_only(
    read: &mut Read,
    access: &mut impl SpectrumAccess,
    params: &ReptileParams,
) -> ReadOutcome {
    params.assert_valid();
    let kcodec = params.kmer_codec();
    let k = kcodec.k();
    let stride = k - params.tile_overlap;
    let mut out = ReadOutcome::default();
    if read.len() < k {
        return out;
    }
    let last_start = read.len() - k;
    let mut scratch = KmerScratch::default();
    let mut start = 0usize;
    loop {
        step_kmer_window(read, start, access, params, &kcodec, &mut scratch, &mut out);
        if start + stride > last_start {
            break;
        }
        start += stride;
    }
    if !last_start.is_multiple_of(stride) {
        step_kmer_window(read, last_start, access, params, &kcodec, &mut scratch, &mut out);
    }
    out
}

/// Buffers of the k-mer window walk, reused across a read's windows.
#[derive(Default)]
struct KmerScratch {
    positions: Vec<usize>,
    /// `(code, distance)` of every Hamming neighbour of one window.
    neighbors: Vec<(u64, usize)>,
}

fn step_kmer_window(
    read: &mut Read,
    start: usize,
    access: &mut impl SpectrumAccess,
    params: &ReptileParams,
    kcodec: &dnaseq::KmerCodec,
    scratch: &mut KmerScratch,
    out: &mut ReadOutcome,
) {
    let k = kcodec.k();
    let window = &read.seq[start..start + k];
    out.tiles_evaluated += 1;
    let code = match kcodec.encode(window) {
        Some(c) => c,
        None => {
            out.tiles_skipped += 1;
            return;
        }
    };
    let key = |c: u64| if params.canonical { kcodec.canonical(c) } else { c };
    if access.kmer_count(key(code)) >= params.kmer_threshold {
        out.tiles_solid += 1;
        return;
    }
    let KmerScratch { positions, neighbors } = scratch;
    positions.clear();
    collect_positions(&read.qual[start..start + k], params, positions);
    if positions.is_empty() {
        out.tiles_uncorrectable += 1;
        return;
    }
    neighbors.clear();
    hamming_neighbors(code, k, positions, params.max_errors_per_tile, neighbors);
    let mut candidates: Vec<(u64, u32, usize)> = Vec::new();
    for &(cand, d) in neighbors.iter() {
        let count = access.kmer_count(key(cand));
        if count >= params.kmer_threshold {
            candidates.push((cand, count, d));
        }
    }
    if candidates.is_empty() {
        out.tiles_uncorrectable += 1;
        return;
    }
    if candidates.len() > params.max_candidates {
        out.tiles_ambiguous += 1;
        return;
    }
    candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
    if candidates.len() > 1 && candidates[0].1 < params.dominance * candidates[1].1 {
        out.tiles_ambiguous += 1;
        return;
    }
    let winner = candidates[0].0;
    for p in 0..k {
        let newb = kcodec.base_at(winner, p);
        let oldb = kcodec.base_at(code, p);
        if newb != oldb {
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

/// Correct a whole dataset with the k-mer-only baseline.
pub fn correct_dataset_kmers_only(
    reads: &[Read],
    params: &ReptileParams,
) -> (Vec<Read>, crate::corrector::CorrectionStats) {
    let mut spectra = crate::spectrum::LocalSpectra::build(reads, params);
    let mut stats = crate::corrector::CorrectionStats::default();
    let corrected = reads
        .iter()
        .map(|r| {
            let mut read = r.clone();
            let outcome = correct_read_kmers_only(&mut read, &mut spectra, params);
            stats.absorb(&outcome);
            read
        })
        .collect();
    (corrected, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::LocalSpectra;

    fn params() -> ReptileParams {
        ReptileParams {
            k: 8,
            tile_overlap: 4,
            kmer_threshold: 2,
            tile_threshold: 2,
            ..ReptileParams::default()
        }
    }

    fn spectra_from(template: &[u8], copies: usize, p: &ReptileParams) -> LocalSpectra {
        let reads: Vec<Read> = (0..copies)
            .map(|i| Read::new(i as u64 + 1, template.to_vec(), vec![35; template.len()]))
            .collect();
        LocalSpectra::build(&reads, p)
    }

    #[test]
    fn fixes_simple_low_quality_error() {
        let p = params();
        let template = b"ACGTACGGTTGCAACGT";
        let mut spectra = spectra_from(template, 5, &p);
        let mut seq = template.to_vec();
        seq[6] = b'A';
        let mut qual = vec![35u8; seq.len()];
        qual[6] = 5;
        let mut read = Read::new(9, seq, qual);
        let out = correct_read_kmers_only(&mut read, &mut spectra, &p);
        assert_eq!(read.seq, template.to_vec());
        assert!(out.corrected());
    }

    /// Two weak windows in one read: the second searches only its own
    /// neighbours, not what the first left in the reused buffer.
    #[test]
    fn fixes_errors_in_two_windows() {
        let p = params();
        let template = b"ACGTACGGTTGCAACGT";
        let mut spectra = spectra_from(template, 5, &p);
        let mut seq = template.to_vec();
        seq[1] = b'A';
        seq[14] = b'T';
        let mut qual = vec![35u8; seq.len()];
        qual[1] = 5;
        qual[14] = 5;
        let mut read = Read::new(9, seq, qual);
        let out = correct_read_kmers_only(&mut read, &mut spectra, &p);
        assert_eq!(read.seq, template.to_vec());
        assert_eq!(out.fixes.len(), 2);
    }

    #[test]
    fn clean_read_untouched() {
        let p = params();
        let template = b"ACGTACGGTTGCAACGT";
        let mut spectra = spectra_from(template, 5, &p);
        let mut read = Read::new(9, template.to_vec(), vec![35; template.len()]);
        let out = correct_read_kmers_only(&mut read, &mut spectra, &p);
        assert!(!out.corrected());
        assert_eq!(out.tiles_solid, out.tiles_evaluated);
    }

    #[test]
    fn kmer_windows_have_more_ambiguity_than_tiles() {
        // Two templates that agree on a k-length window's context but
        // diverge inside it: the k-mer corrector sees multiple solid
        // candidates where the tile corrector's longer window
        // disambiguates.
        let p = ReptileParams { dominance: 1, ..params() };
        // shared prefix/suffix, differing middles
        let t1 = b"ACGTACGGTTGCAACGTTAG";
        let t2 = b"TTGTACGGATGCAACGGCCA"; // same core "TACGG?TGCAACG" with one diff
        let mut reads = Vec::new();
        for i in 0..4u64 {
            reads.push(Read::new(2 * i + 1, t1.to_vec(), vec![35; t1.len()]));
            reads.push(Read::new(2 * i + 2, t2.to_vec(), vec![35; t2.len()]));
        }
        let mut spectra = LocalSpectra::build(&reads, &p);
        // an erroneous read from t1's context
        let mut seq = t1.to_vec();
        seq[8] = b'C'; // true base T -> C
        let mut qual = vec![35u8; seq.len()];
        qual[8] = 5;
        let mut kread = Read::new(99, seq.clone(), qual.clone());
        let k_out = correct_read_kmers_only(&mut kread, &mut spectra, &p);
        let mut tread = Read::new(99, seq, qual);
        let t_out = crate::corrector::correct_read(&mut tread, &mut spectra, &p);
        // The tile corrector must restore t1 exactly; the k-mer corrector
        // may or may not, but must never beat it here.
        assert_eq!(tread.seq, t1.to_vec(), "tile corrector disambiguates: {t_out:?}");
        let k_correct = kread.seq == t1.to_vec();
        assert!(
            !k_correct || k_out.fixes == t_out.fixes,
            "kmer-only cannot be strictly better in the ambiguous case"
        );
    }

    #[test]
    fn dataset_baseline_runs() {
        let p = params();
        let template = b"ACGTACGGTTGCAACGTTAGCATG";
        let mut reads: Vec<Read> =
            (0..6).map(|i| Read::new(i + 1, template.to_vec(), vec![35; template.len()])).collect();
        let mut seq = template.to_vec();
        seq[5] = b'T';
        let mut qual = vec![35u8; template.len()];
        qual[5] = 4;
        reads.push(Read::new(7, seq, qual));
        let (corrected, stats) = correct_dataset_kmers_only(&reads, &p);
        assert_eq!(stats.reads, 7);
        assert_eq!(corrected[6].seq, template.to_vec());
    }

    #[test]
    fn short_read_noop() {
        let p = params();
        let mut spectra = spectra_from(b"ACGTACGGTTGCAACGT", 3, &p);
        let mut read = Read::new(1, b"ACGT".to_vec(), vec![5; 4]);
        let out = correct_read_kmers_only(&mut read, &mut spectra, &p);
        assert_eq!(out, ReadOutcome::default());
    }
}
