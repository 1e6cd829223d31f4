//! Packed tile codes.
//!
//! A *tile* is "a sequence of two or more k-mers with a fixed overlap
//! length between the k-mers" (paper §II-A). Reptile corrects tiles rather
//! than individual k-mers because a tile has "almost twice the character
//! count as the k-mer", so error correction at the tile level has far fewer
//! Hamming-neighbour candidates, improving accuracy.
//!
//! We implement the two-k-mer tile: with k-mer length `k` and overlap `o`
//! the tile covers `L = 2k − o` bases, `L ≤ 64`, so the "tile ID is a long
//! integer" (§III step II) — a `u128` here.

use crate::base::Base;
use crate::kmer::{KmerCode, KmerCodec};

/// A packed tile: 2 bits per base in a `u128`, first base highest.
pub type TileCode = u128;

/// Encoder/decoder for tiles made of two `k`-mers overlapping by `overlap`.
///
/// ```
/// use dnaseq::{KmerCodec, TileCodec};
/// let tiles = TileCodec::new(4, 2);          // tile length 6, stride 2
/// let kmers = KmerCodec::new(4);
/// let t = tiles.encode(b"ACGTAC").unwrap();
/// let (first, second) = tiles.to_kmers(t);
/// assert_eq!(kmers.decode(first), b"ACGT");
/// assert_eq!(kmers.decode(second), b"GTAC");
/// assert_eq!(tiles.from_kmers(first, second), t);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileCodec {
    k: usize,
    overlap: usize,
    len: usize,
    mask: u128,
}

impl TileCodec {
    /// Build a tile codec. Requirements: `1 ≤ overlap < k ≤ 32` and the
    /// resulting tile length `2k − overlap ≤ 64`.
    pub fn new(k: usize, overlap: usize) -> TileCodec {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        assert!(overlap >= 1 && overlap < k, "overlap must be in 1..k, got {overlap}");
        let len = 2 * k - overlap;
        assert!(len <= 64, "tile length {len} exceeds 64 bases");
        let mask = if len == 64 { u128::MAX } else { (1u128 << (2 * len)) - 1 };
        TileCodec { k, overlap, len, mask }
    }

    /// K-mer length of the constituent k-mers.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Tile length in bases (`2k − overlap`).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True only for degenerate configurations (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The step between consecutive tile start positions: the second k-mer
    /// starts `k − overlap` bases after the first, and so do tiles.
    #[inline]
    pub fn stride(&self) -> usize {
        self.k - self.overlap
    }

    /// Encode exactly `len()` ASCII bases.
    pub fn encode(&self, seq: &[u8]) -> Option<TileCode> {
        if seq.len() != self.len {
            return None;
        }
        let mut code = 0u128;
        for &ch in seq {
            code = (code << 2) | Base::from_ascii(ch)?.code() as u128;
        }
        Some(code)
    }

    /// Decode back to upper-case ASCII.
    pub fn decode(&self, code: TileCode) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = 2 * (self.len - 1 - i);
            *slot = Base::from_code(((code >> shift) & 3) as u8).to_ascii();
        }
        out
    }

    /// Combine two k-mer codes into a tile. The second k-mer must start
    /// `stride()` bases after the first, i.e. its first `overlap` bases
    /// repeat the first k-mer's last `overlap` bases. Debug builds verify
    /// the overlap agreement.
    pub fn from_kmers(&self, first: KmerCode, second: KmerCode) -> TileCode {
        debug_assert_eq!(
            first & ((1u64 << (2 * self.overlap)) - 1),
            second >> (2 * (self.k - self.overlap)),
            "k-mers disagree on their overlap"
        );
        let tail_bases = self.k - self.overlap;
        let tail_mask = (1u128 << (2 * tail_bases)) - 1;
        ((first as u128) << (2 * tail_bases)) | (second as u128 & tail_mask)
    }

    /// Split a tile into its two constituent k-mer codes.
    pub fn to_kmers(&self, tile: TileCode) -> (KmerCode, KmerCode) {
        let codec = KmerCodec::new(self.k);
        let first = (tile >> (2 * (self.len - self.k))) as u64 & codec.mask();
        let second = tile as u64 & codec.mask();
        (first, second)
    }

    /// 2-bit base code at tile position `pos`.
    #[inline]
    pub fn base_at(&self, code: TileCode, pos: usize) -> u8 {
        debug_assert!(pos < self.len);
        ((code >> (2 * (self.len - 1 - pos))) & 3) as u8
    }

    /// Reverse complement of a packed tile.
    pub fn reverse_complement(&self, code: TileCode) -> TileCode {
        let mut rc = 0u128;
        let mut fwd = code;
        for _ in 0..self.len {
            rc = (rc << 2) | (3 - (fwd & 3));
            fwd >>= 2;
        }
        rc & self.mask
    }

    /// Canonical form: min of the tile and its reverse complement.
    #[inline]
    pub fn canonical(&self, code: TileCode) -> TileCode {
        code.min(self.reverse_complement(code))
    }

    /// Iterate the tiles of a read: `(start_position, code)` for every
    /// window of `len()` unambiguous bases, advancing by [`stride`] —
    /// plus, when the stride does not land on it, one final window
    /// anchored at the read end, so the 3' bases are covered by the
    /// spectrum exactly as the corrector visits them.
    ///
    /// Reptile walks reads tile by tile with this stride so consecutive
    /// tiles share exactly one k-mer.
    ///
    /// [`stride`]: TileCodec::stride
    pub fn tiles_of<'a>(&self, seq: &'a [u8]) -> impl Iterator<Item = (usize, TileCode)> + 'a {
        let this = *self;
        let stride = self.stride();
        let last_start = seq.len() as isize - this.len as isize;
        let anchored = if last_start >= 0 && !(last_start as usize).is_multiple_of(stride) {
            Some(last_start as usize)
        } else {
            None
        };
        (0..)
            .map(move |i| i * stride)
            .take_while(move |&s| s as isize <= last_start)
            .chain(anchored)
            .filter_map(move |s| this.encode(&seq[s..s + this.len]).map(|c| (s, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_round_trip() {
        let codec = TileCodec::new(6, 3);
        assert_eq!(codec.len(), 9);
        let seq = b"ACGTACGTA";
        let code = codec.encode(seq).unwrap();
        assert_eq!(codec.decode(code), seq.to_vec());
    }

    #[test]
    fn from_kmers_matches_direct_encoding() {
        let k = 6;
        let overlap = 3;
        let tcodec = TileCodec::new(k, overlap);
        let kcodec = KmerCodec::new(k);
        let seq = b"ACGTACGTA";
        let first = kcodec.encode(&seq[0..k]).unwrap();
        let second = kcodec.encode(&seq[tcodec.stride()..tcodec.stride() + k]).unwrap();
        assert_eq!(tcodec.from_kmers(first, second), tcodec.encode(seq).unwrap());
        let (f2, s2) = tcodec.to_kmers(tcodec.encode(seq).unwrap());
        assert_eq!((f2, s2), (first, second));
    }

    #[test]
    fn base_accessors() {
        let codec = TileCodec::new(5, 2);
        let seq = b"AACCGGTT"; // len = 2*5-2 = 8
        let code = codec.encode(seq).unwrap();
        for (i, &ch) in seq.iter().enumerate() {
            assert_eq!(codec.base_at(code, i), Base::from_ascii(ch).unwrap().code());
        }
    }

    #[test]
    fn revcomp_involution_and_canonical() {
        let codec = TileCodec::new(8, 4);
        let code = codec.encode(b"ACGTTGCAACGT").unwrap();
        assert_eq!(codec.reverse_complement(codec.reverse_complement(code)), code);
        assert_eq!(codec.canonical(code), codec.canonical(codec.reverse_complement(code)));
    }

    #[test]
    fn tiles_iterator_stride_and_skipping() {
        let codec = TileCodec::new(4, 2); // len 6, stride 2
        let seq = b"ACGTACGTACGT";
        let tiles: Vec<_> = codec.tiles_of(seq).collect();
        let expected_starts: Vec<usize> = vec![0, 2, 4, 6];
        assert_eq!(tiles.iter().map(|t| t.0).collect::<Vec<_>>(), expected_starts);
        // With an N at position 3, tiles starting at 0 and 2 vanish.
        let seq_n = b"ACGNACGTACGT";
        let starts: Vec<usize> = codec.tiles_of(seq_n).map(|t| t.0).collect();
        assert_eq!(starts, vec![4, 6]);
    }

    #[test]
    fn max_length_tile() {
        let codec = TileCodec::new(32, 1);
        assert_eq!(codec.len(), 63);
        let seq = vec![b'T'; 63];
        let code = codec.encode(&seq).unwrap();
        assert_eq!(codec.decode(code), seq);
    }

    #[test]
    #[should_panic(expected = "k must be in 1..=32")]
    fn rejects_oversized_k() {
        let _ = TileCodec::new(33, 1);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn rejects_bad_overlap() {
        let _ = TileCodec::new(8, 8);
    }
}
