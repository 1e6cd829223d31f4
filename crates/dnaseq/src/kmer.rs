//! Packed k-mer codes and rolling extraction over reads.
//!
//! A k-mer (k ≤ 32) is packed two bits per base into a `u64`, most
//! significant base first, exactly the "k-mer ID ... constructed from the
//! characters of the sequence" of the paper (§III step II). Extraction over
//! a read is a rolling window that restarts after every ambiguous base.

use crate::base::Base;

/// A packed k-mer: 2 bits per base, first base in the highest-order bits.
pub type KmerCode = u64;

/// Encoder/decoder for k-mers of a fixed length `k`.
///
/// ```
/// use dnaseq::KmerCodec;
/// let codec = KmerCodec::new(5);
/// let code = codec.encode(b"ACGTA").unwrap();
/// assert_eq!(codec.decode(code), b"ACGTA".to_vec());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerCodec {
    k: usize,
    mask: u64,
}

impl KmerCodec {
    /// Create a codec for k-mers of `k` bases. Panics unless `1 <= k <= 32`.
    pub fn new(k: usize) -> KmerCodec {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        let mask = if k == 32 { u64::MAX } else { (1u64 << (2 * k)) - 1 };
        KmerCodec { k, mask }
    }

    /// The k-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Bit mask covering the `2k` payload bits.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Encode exactly `k` ASCII bases; `None` if the slice has the wrong
    /// length or contains an ambiguous character.
    pub fn encode(&self, seq: &[u8]) -> Option<KmerCode> {
        if seq.len() != self.k {
            return None;
        }
        let mut code = 0u64;
        for &ch in seq {
            code = (code << 2) | Base::from_ascii(ch)?.code() as u64;
        }
        Some(code)
    }

    /// Decode a code back to upper-case ASCII.
    pub fn decode(&self, code: KmerCode) -> Vec<u8> {
        let mut out = vec![0u8; self.k];
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = 2 * (self.k - 1 - i);
            *slot = Base::from_code(((code >> shift) & 3) as u8).to_ascii();
        }
        out
    }

    /// The 2-bit code of the base at position `pos` (0 = first base).
    #[inline]
    pub fn base_at(&self, code: KmerCode, pos: usize) -> u8 {
        debug_assert!(pos < self.k);
        ((code >> (2 * (self.k - 1 - pos))) & 3) as u8
    }

    /// Reverse complement of a packed k-mer.
    pub fn reverse_complement(&self, code: KmerCode) -> KmerCode {
        let mut rc = 0u64;
        let mut fwd = code;
        for _ in 0..self.k {
            rc = (rc << 2) | (3 - (fwd & 3));
            fwd >>= 2;
        }
        rc & self.mask
    }

    /// Canonical form: the lexicographic minimum of a k-mer and its reverse
    /// complement. Spectrum construction folds strands together this way.
    #[inline]
    pub fn canonical(&self, code: KmerCode) -> KmerCode {
        code.min(self.reverse_complement(code))
    }

    /// Iterate all valid k-mer codes of a read, left to right, with their
    /// start positions. Windows containing ambiguous bases are skipped; the
    /// rolling encoder restarts after the offending base.
    pub fn kmers_of<'a>(&self, seq: &'a [u8]) -> KmerIter<'a> {
        KmerIter { codec: *self, seq, pos: 0, filled: 0, code: 0 }
    }
}

/// Rolling k-mer iterator returned by [`KmerCodec::kmers_of`].
pub struct KmerIter<'a> {
    codec: KmerCodec,
    seq: &'a [u8],
    /// Index of the next base to consume.
    pos: usize,
    /// How many consecutive valid bases end just before `pos`.
    filled: usize,
    code: u64,
}

impl Iterator for KmerIter<'_> {
    /// `(start_position, code)` pairs.
    type Item = (usize, KmerCode);

    fn next(&mut self) -> Option<(usize, KmerCode)> {
        let k = self.codec.k;
        while self.pos < self.seq.len() {
            match Base::from_ascii(self.seq[self.pos]) {
                Some(b) => {
                    self.code = ((self.code << 2) | b.code() as u64) & self.codec.mask;
                    self.filled += 1;
                    self.pos += 1;
                    if self.filled >= k {
                        return Some((self.pos - k, self.code));
                    }
                }
                None => {
                    self.filled = 0;
                    self.code = 0;
                    self.pos += 1;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let codec = KmerCodec::new(7);
        let seq = b"GATTACA";
        let code = codec.encode(seq).unwrap();
        assert_eq!(codec.decode(code), seq.to_vec());
    }

    #[test]
    fn encode_rejects_bad_input() {
        let codec = KmerCodec::new(4);
        assert_eq!(codec.encode(b"ACG"), None, "too short");
        assert_eq!(codec.encode(b"ACGTA"), None, "too long");
        assert_eq!(codec.encode(b"ACNT"), None, "ambiguous");
    }

    #[test]
    fn base_at_reads_each_position() {
        let codec = KmerCodec::new(5);
        let code = codec.encode(b"ACGTA").unwrap();
        assert_eq!(codec.base_at(code, 0), Base::A.code());
        assert_eq!(codec.base_at(code, 2), Base::G.code());
        assert_eq!(codec.base_at(code, 3), Base::T.code());
        assert_eq!(codec.base_at(code, 4), Base::A.code());
    }

    #[test]
    fn reverse_complement_known_value() {
        let codec = KmerCodec::new(4);
        let code = codec.encode(b"ACGT").unwrap();
        // ACGT is its own reverse complement.
        assert_eq!(codec.reverse_complement(code), code);
        let code2 = codec.encode(b"AAAA").unwrap();
        assert_eq!(codec.decode(codec.reverse_complement(code2)), b"TTTT".to_vec());
    }

    #[test]
    fn canonical_is_min_of_pair() {
        let codec = KmerCodec::new(6);
        let code = codec.encode(b"TTTGGA").unwrap();
        let rc = codec.reverse_complement(code);
        assert_eq!(codec.canonical(code), code.min(rc));
        assert_eq!(codec.canonical(code), codec.canonical(rc), "strand symmetric");
    }

    #[test]
    fn rolling_iterator_matches_naive() {
        let codec = KmerCodec::new(4);
        let seq = b"ACGTACGTTGCA";
        let rolled: Vec<_> = codec.kmers_of(seq).collect();
        let naive: Vec<_> = (0..=seq.len() - 4)
            .filter_map(|i| codec.encode(&seq[i..i + 4]).map(|c| (i, c)))
            .collect();
        assert_eq!(rolled, naive);
        assert_eq!(rolled.len(), seq.len() - 3, "every window is valid");
    }

    #[test]
    fn rolling_iterator_skips_ambiguous_windows() {
        let codec = KmerCodec::new(3);
        let seq = b"ACGNTTTA";
        let got: Vec<_> = codec.kmers_of(seq).collect();
        // Valid windows: ACG (0), TTT (4), TTA (5). Everything touching N is out.
        assert_eq!(
            got,
            vec![
                (0, codec.encode(b"ACG").unwrap()),
                (4, codec.encode(b"TTT").unwrap()),
                (5, codec.encode(b"TTA").unwrap()),
            ]
        );
    }

    #[test]
    fn short_reads_yield_nothing() {
        let codec = KmerCodec::new(8);
        assert_eq!(codec.kmers_of(b"ACGT").count(), 0);
        assert_eq!(codec.kmers_of(b"").count(), 0);
    }

    #[test]
    fn k32_mask_covers_all_bits() {
        let codec = KmerCodec::new(32);
        let seq = [b'T'; 32];
        let code = codec.encode(&seq).unwrap();
        assert_eq!(code, u64::MAX);
        assert_eq!(codec.decode(code), seq.to_vec());
        assert_eq!(codec.reverse_complement(code), codec.encode(&[b'A'; 32]).unwrap());
    }
}
