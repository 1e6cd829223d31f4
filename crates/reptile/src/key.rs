//! The two spectrum key kinds, stated once.
//!
//! The paper builds the tile spectrum exactly as it builds the k-mer
//! spectrum (`hashKmer`/`readsKmer`, "same for tiles"); only the key
//! width differs — a k-mer code is a `u64`, a tile code a `u128`.
//! [`SpectrumKey`] is that difference and nothing more. Everything below
//! the lookup router — the flat count table ([`FlatTable`]), the
//! spectrum ([`Spectrum`]), the snapshot shard codec and the spill runs —
//! is written once over it, with `u64` and `u128` as its two instances.
//!
//! [`FlatTable`]: crate::flat::FlatTable
//! [`Spectrum`]: crate::spectrum::Spectrum

use std::fmt::Debug;
use std::hash::Hash;

use dnaseq::{KmerCodec, TileCodec};

/// Multiplier that folds a tile key's high lane into its low one for the
/// probe start ([`SpectrumKey::probe_hash`]); part of [`HASH_SEED`].
///
/// [`HASH_SEED`]: crate::flat::HASH_SEED
pub(crate) const TILE_FOLD_MUL: u64 = 0xA24B_AED4_963E_E407;

/// A spectrum key kind: `u64` k-mer codes or `u128` tile codes.
///
/// A key is stored as [`LANES`](SpectrumKey::LANES) `u64` lanes, lane 0
/// holding the low 64 bits, each lane in a slot array of its own: no slot
/// needs 16-byte alignment, so a tile slot is 8 + 8 + 4 = 20 bytes where a
/// `(u128, u32)` pair would pad to 32. The all-ones key
/// [`SENTINEL`](SpectrumKey::SENTINEL) marks an empty slot, and a slot is
/// vacant only when *every* lane is all-ones — a tile with one all-ones
/// half is an ordinary key. The sentinel is itself a legal code (k = 32
/// poly-T, a 64-base poly-T tile), so tables keep its count in a side
/// field instead of a slot.
pub trait SpectrumKey: Copy + Ord + Hash + Debug + Send + Sync + 'static {
    /// Name of the kind in file names and messages: `"kmer"` / `"tile"`.
    const NAME: &'static str;
    /// `u64` slot lanes per key (1 or 2).
    const LANES: usize;
    /// Little-endian encoded width in bytes.
    const BYTES: usize = 8 * Self::LANES;
    /// The all-ones key: every lane `u64::MAX`.
    const SENTINEL: Self;
    /// One `T` per lane: `[T; LANES]`.
    type Lanes<T: Clone + Debug>: Clone + Debug + AsRef<[T]> + AsMut<[T]>;
    /// The codec that enumerates and canonicalizes this kind's codes.
    type Codec: Copy + Debug + Send + Sync;

    /// Per-lane values from the lane index.
    fn lanes_from<T: Clone + Debug>(f: impl FnMut(usize) -> T) -> Self::Lanes<T>;
    /// The 64 bits the probe start is computed from: the key itself for a
    /// k-mer; for a tile one multiply folds the high lane in, keeping the
    /// halves asymmetric (swapping them lands elsewhere) without
    /// `mix128_parts`'s six-multiply chain.
    fn probe_hash(self) -> u64;
    /// Widen to `u128` (lossless).
    fn to_u128(self) -> u128;
    /// Narrow from `u128` (the value fits by construction).
    fn from_u128(x: u128) -> Self;
    /// Strand-canonical form of `code` under `codec`.
    fn canonical(codec: &Self::Codec, code: Self) -> Self;
    /// Every code of this kind in `seq`, left to right
    /// ([`KmerCodec::kmers_of`] / [`TileCodec::tiles_of`]).
    fn codes_of(codec: Self::Codec, seq: &[u8]) -> impl Iterator<Item = Self> + '_;

    /// Lane `l` of the key (`l < LANES`).
    #[inline]
    fn lane(self, l: usize) -> u64 {
        (self.to_u128() >> (64 * l)) as u64
    }

    /// All lanes of the key.
    #[inline]
    fn lanes(self) -> Self::Lanes<u64> {
        Self::lanes_from(|l| self.lane(l))
    }

    /// Reassemble a key from its lanes.
    #[inline]
    fn from_lanes(lane: impl Fn(usize) -> u64) -> Self {
        Self::from_u128((0..Self::LANES).fold(0, |key, l| key | (lane(l) as u128) << (64 * l)))
    }

    /// Encode into `buf[..BYTES]`, little-endian.
    #[inline]
    fn write_le(self, buf: &mut [u8]) {
        buf[..Self::BYTES].copy_from_slice(&self.to_u128().to_le_bytes()[..Self::BYTES]);
    }

    /// Decode from `buf[..BYTES]`, little-endian.
    #[inline]
    fn read_le(buf: &[u8]) -> Self {
        let mut wide = [0u8; 16];
        wide[..Self::BYTES].copy_from_slice(&buf[..Self::BYTES]);
        Self::from_u128(u128::from_le_bytes(wide))
    }
}

impl SpectrumKey for u64 {
    const NAME: &'static str = "kmer";
    const LANES: usize = 1;
    const SENTINEL: u64 = u64::MAX;
    type Lanes<T: Clone + Debug> = [T; 1];
    type Codec = KmerCodec;

    #[inline]
    fn lanes_from<T: Clone + Debug>(f: impl FnMut(usize) -> T) -> [T; 1] {
        std::array::from_fn(f)
    }

    #[inline]
    fn probe_hash(self) -> u64 {
        self
    }

    #[inline(always)]
    fn to_u128(self) -> u128 {
        self as u128
    }

    #[inline(always)]
    fn from_u128(x: u128) -> u64 {
        x as u64
    }

    #[inline]
    fn canonical(codec: &KmerCodec, code: u64) -> u64 {
        codec.canonical(code)
    }

    #[inline]
    fn codes_of(codec: KmerCodec, seq: &[u8]) -> impl Iterator<Item = u64> + '_ {
        codec.kmers_of(seq).map(|(_, code)| code)
    }
}

impl SpectrumKey for u128 {
    const NAME: &'static str = "tile";
    const LANES: usize = 2;
    const SENTINEL: u128 = u128::MAX;
    type Lanes<T: Clone + Debug> = [T; 2];
    type Codec = TileCodec;

    #[inline]
    fn lanes_from<T: Clone + Debug>(f: impl FnMut(usize) -> T) -> [T; 2] {
        std::array::from_fn(f)
    }

    #[inline]
    fn probe_hash(self) -> u64 {
        self.lane(0) ^ self.lane(1).wrapping_mul(TILE_FOLD_MUL)
    }

    #[inline(always)]
    fn to_u128(self) -> u128 {
        self
    }

    #[inline(always)]
    fn from_u128(x: u128) -> u128 {
        x
    }

    #[inline]
    fn canonical(codec: &TileCodec, code: u128) -> u128 {
        codec.canonical(code)
    }

    #[inline]
    fn codes_of(codec: TileCodec, seq: &[u8]) -> impl Iterator<Item = u128> + '_ {
        codec.tiles_of(seq).map(|(_, code)| code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<K: SpectrumKey>(keys: &[K]) {
        for &key in keys {
            assert_eq!(K::from_lanes(|l| key.lane(l)), key, "{key:?} lanes");
            let mut buf = [0u8; 16];
            key.write_le(&mut buf);
            assert_eq!(K::read_le(&buf), key, "{key:?} little-endian");
            assert_eq!(&buf[..K::BYTES], &key.to_u128().to_le_bytes()[..K::BYTES]);
        }
        assert!((0..K::LANES).all(|l| K::SENTINEL.lane(l) == u64::MAX));
    }

    #[test]
    fn lanes_and_encoding_roundtrip_for_both_kinds() {
        roundtrip::<u64>(&[0, 1, 0xDEAD_BEEF, u64::MAX - 1, u64::MAX]);
        roundtrip::<u128>(&[0, 1, 1 << 64, u64::MAX as u128, (u64::MAX as u128) << 64, u128::MAX]);
        assert_eq!(0x0123_4567_89AB_CDEF_u64.lane(0), 0x0123_4567_89AB_CDEF);
        let tile = (7u128 << 64) | 9;
        assert_eq!((tile.lane(0), tile.lane(1)), (9, 7), "lane 0 is the low half");
    }

    #[test]
    fn tile_probe_hash_keeps_halves_asymmetric() {
        let (a, b) = (3u128 << 64 | 5, 5u128 << 64 | 3);
        assert_ne!(a.probe_hash(), b.probe_hash());
        assert_eq!(42u64.probe_hash(), 42);
    }
}
