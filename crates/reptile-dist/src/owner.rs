//! Owner-rank assignment.
//!
//! "Each k-mer (and tile) are defined to have an owning rank; the owning
//! rank in our implementation is defined as the rank p (out of the number
//! of ranks np) for which hashFunction(kmer) % np == p" (paper §III step
//! II); reads are owned analogously for the load-balancing shuffle
//! (§III-A). Ownership is computed on the *normalized* (strand-folded, if
//! canonical) code, since that is the spectrum key.

use dnaseq::Read;
use reptile::{Normalized, PrefetchKeys, ReptileParams};

/// Owner assignment for one universe size and one parameter set.
#[derive(Clone, Copy, Debug)]
pub struct OwnerMap {
    np: usize,
    canonical: bool,
    kcodec: dnaseq::KmerCodec,
    tcodec: dnaseq::TileCodec,
}

impl OwnerMap {
    /// Build the owner map for `np` ranks.
    pub fn new(np: usize, params: &ReptileParams) -> OwnerMap {
        assert!(np > 0);
        OwnerMap {
            np,
            canonical: params.canonical,
            kcodec: params.kmer_codec(),
            tcodec: params.tile_codec(),
        }
    }

    /// Number of ranks.
    #[inline]
    pub fn np(&self) -> usize {
        self.np
    }

    /// Normalize a k-mer code to its spectrum key.
    #[inline]
    pub fn kmer_key(&self, code: u64) -> Normalized<u64> {
        Normalized::assume(if self.canonical { self.kcodec.canonical(code) } else { code })
    }

    /// Normalize a tile code to its spectrum key.
    #[inline]
    pub fn tile_key(&self, code: u128) -> Normalized<u128> {
        Normalized::assume(if self.canonical { self.tcodec.canonical(code) } else { code })
    }

    /// Owning rank of a k-mer (input may be unnormalized).
    #[inline]
    pub fn kmer_owner(&self, code: u64) -> usize {
        dnaseq::owner_of(self.kmer_key(code).key(), self.np)
    }

    /// Owning rank of a normalized k-mer key — skips the (idempotent)
    /// canonicalization on paths where the key came out of a spectrum
    /// table or [`kmer_key`](OwnerMap::kmer_key).
    #[inline]
    pub fn kmer_owner_at(&self, key: Normalized<u64>) -> usize {
        dnaseq::owner_of(key.key(), self.np)
    }

    /// Owning rank of a tile (input may be unnormalized).
    #[inline]
    pub fn tile_owner(&self, code: u128) -> usize {
        dnaseq::hashing::owner_of_u128(self.tile_key(code).key(), self.np)
    }

    /// Owning rank of a normalized tile key.
    #[inline]
    pub fn tile_owner_at(&self, key: Normalized<u128>) -> usize {
        dnaseq::hashing::owner_of_u128(key.key(), self.np)
    }

    /// Split normalized `keys` by owning rank into `per_owner` (one slot
    /// per rank, emptied first; the allocations are kept).
    pub fn split_by_owner(&self, keys: &PrefetchKeys, per_owner: &mut [PrefetchKeys]) {
        per_owner.iter_mut().for_each(PrefetchKeys::clear);
        for &k in &keys.kmers {
            per_owner[self.kmer_owner_at(Normalized::assume(k))].kmers.push(k);
        }
        for &t in &keys.tiles {
            per_owner[self.tile_owner_at(Normalized::assume(t))].tiles.push(t);
        }
    }

    /// Owning rank of a read under the load-balancing policy.
    #[inline]
    pub fn read_owner(&self, read: &Read) -> usize {
        read.owner(self.np)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(np: usize) -> OwnerMap {
        OwnerMap::new(np, &ReptileParams::for_tests())
    }

    #[test]
    fn owners_in_range() {
        let m = map(7);
        for code in [0u64, 1, 99, u64::MAX] {
            assert!(m.kmer_owner(code) < 7);
        }
        for code in [0u128, 1, u128::MAX >> 1] {
            assert!(m.tile_owner(code) < 7);
        }
    }

    #[test]
    fn canonical_strands_share_owner() {
        let params = ReptileParams { canonical: true, ..ReptileParams::for_tests() };
        let m = OwnerMap::new(16, &params);
        let kc = params.kmer_codec();
        let code = kc.encode(b"ACGTTGCA").unwrap();
        let rc = kc.reverse_complement(code);
        assert_eq!(m.kmer_owner(code), m.kmer_owner(rc));
        assert_eq!(m.kmer_key(code), m.kmer_key(rc));
    }

    #[test]
    fn non_canonical_uses_raw_code() {
        let m = map(16);
        assert_eq!(m.kmer_key(12345).key(), 12345);
        assert_eq!(m.tile_key(98765).key(), 98765);
        assert_eq!(m.kmer_owner_at(m.kmer_key(12345)), m.kmer_owner(12345));
        assert_eq!(m.tile_owner_at(m.tile_key(98765)), m.tile_owner(98765));
    }

    #[test]
    fn single_rank_owns_everything() {
        let m = map(1);
        assert_eq!(m.kmer_owner(42), 0);
        assert_eq!(m.tile_owner(42), 0);
    }
}
