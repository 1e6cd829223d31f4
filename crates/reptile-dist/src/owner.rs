//! Owner-rank assignment.
//!
//! "Each k-mer (and tile) are defined to have an owning rank; the owning
//! rank in our implementation is defined as the rank p (out of the number
//! of ranks np) for which hashFunction(kmer) % np == p" (paper §III step
//! II); reads are owned analogously for the load-balancing shuffle
//! (§III-A). Ownership is computed on the *normalized* (strand-folded, if
//! canonical) code, since that is the spectrum key. `Key` states the
//! two key kinds' ownership once for the code written over either.

use crate::ooc::OocBuild;
use crate::protocol::LookupRequest;
use crate::report::LookupStats;
use crate::router::{KindCounters, KindTiers, Tiers};
use crate::spectrum::{KindTables, RankTables};
use dnaseq::Read;
use reptile::{Normalized, PrefetchKeys, ReptileParams, SpectrumKey};
use std::path::PathBuf;

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

    /// Owning rank of a normalized k-mer key — skips the (idempotent)
    /// canonicalization on paths where the key came out of a spectrum
    /// table or [`kmer_key`](OwnerMap::kmer_key).
    #[inline]
    pub fn kmer_owner_at(&self, key: Normalized<u64>) -> usize {
        dnaseq::owner_of(key.key(), self.np)
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

/// What the engines need of a key kind beyond what [`SpectrumKey`]
/// states for the storage stack: ownership, the wire request, which
/// tables and counters are the kind's, and its spill-run list.
/// Everything written over the key kind — the build's Steps II–III, the
/// lookup router, the out-of-core merge — reaches a kind through it.
pub(crate) trait Key: SpectrumKey {
    /// The spectrum key of a code.
    fn normalize(self, owners: &OwnerMap) -> Normalized<Self>;
    /// The rank that owns a key.
    fn owner(key: Normalized<Self>, owners: &OwnerMap) -> usize;
    /// The single-key request for a key.
    fn request(key: Normalized<Self>) -> LookupRequest;
    /// This kind's built tables on a rank.
    fn tables(tables: &mut RankTables) -> &mut KindTables<Self>;
    /// This kind's lookup tiers.
    fn tiers<'t, 'a>(tiers: &'t mut Tiers<'a>) -> &'t mut KindTiers<'a, Self>;
    /// This kind's counters.
    fn counters(stats: &mut LookupStats) -> KindCounters<'_>;
    /// This kind's spill runs in an out-of-core build.
    fn runs(ooc: &mut OocBuild) -> &mut Vec<PathBuf>;
}

impl Key for u64 {
    #[inline]
    fn normalize(self, owners: &OwnerMap) -> Normalized<u64> {
        owners.kmer_key(self)
    }

    #[inline]
    fn owner(key: Normalized<u64>, owners: &OwnerMap) -> usize {
        owners.kmer_owner_at(key)
    }

    fn request(key: Normalized<u64>) -> LookupRequest {
        LookupRequest::Kmer(key.key())
    }

    fn tables(tables: &mut RankTables) -> &mut KindTables<u64> {
        &mut tables.kmers
    }

    #[inline]
    fn tiers<'t, 'a>(tiers: &'t mut Tiers<'a>) -> &'t mut KindTiers<'a, u64> {
        &mut tiers.kmers
    }

    #[inline]
    fn counters(stats: &mut LookupStats) -> KindCounters<'_> {
        KindCounters {
            local: &mut stats.local_kmer_lookups,
            remote: &mut stats.remote_kmer_lookups,
            remote_misses: &mut stats.remote_kmer_misses,
        }
    }

    fn runs(ooc: &mut OocBuild) -> &mut Vec<PathBuf> {
        &mut ooc.kmer_runs
    }
}

impl Key for u128 {
    #[inline]
    fn normalize(self, owners: &OwnerMap) -> Normalized<u128> {
        owners.tile_key(self)
    }

    #[inline]
    fn owner(key: Normalized<u128>, owners: &OwnerMap) -> usize {
        owners.tile_owner_at(key)
    }

    fn request(key: Normalized<u128>) -> LookupRequest {
        LookupRequest::Tile(key.key())
    }

    fn tables(tables: &mut RankTables) -> &mut KindTables<u128> {
        &mut tables.tiles
    }

    #[inline]
    fn tiers<'t, 'a>(tiers: &'t mut Tiers<'a>) -> &'t mut KindTiers<'a, u128> {
        &mut tiers.tiles
    }

    #[inline]
    fn counters(stats: &mut LookupStats) -> KindCounters<'_> {
        KindCounters {
            local: &mut stats.local_tile_lookups,
            remote: &mut stats.remote_tile_lookups,
            remote_misses: &mut stats.remote_tile_misses,
        }
    }

    fn runs(ooc: &mut OocBuild) -> &mut Vec<PathBuf> {
        &mut ooc.tile_runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(np: usize) -> OwnerMap {
        OwnerMap::new(np, &ReptileParams::for_tests())
    }

    /// The owner of an unnormalized code, the way generic code asks.
    fn owner<K: Key>(m: &OwnerMap, code: K) -> usize {
        K::owner(code.normalize(m), m)
    }

    #[test]
    fn owners_in_range() {
        let m = map(7);
        for code in [0u64, 1, 99, u64::MAX] {
            assert!(owner(&m, code) < 7);
        }
        for code in [0u128, 1, u128::MAX >> 1] {
            assert!(owner(&m, code) < 7);
        }
    }

    #[test]
    fn canonical_strands_share_owner() {
        let params = ReptileParams { canonical: true, ..ReptileParams::for_tests() };
        let m = OwnerMap::new(16, &params);
        let kc = params.kmer_codec();
        let code = kc.encode(b"ACGTTGCA").unwrap();
        let rc = kc.reverse_complement(code);
        assert_eq!(owner(&m, code), owner(&m, rc));
        assert_eq!(code.normalize(&m), rc.normalize(&m));
    }

    #[test]
    fn non_canonical_uses_raw_code() {
        let m = map(16);
        assert_eq!(12345u64.normalize(&m).key(), 12345);
        assert_eq!(98765u128.normalize(&m).key(), 98765);
    }

    #[test]
    fn single_rank_owns_everything() {
        let m = map(1);
        assert_eq!(owner(&m, 42u64), 0);
        assert_eq!(owner(&m, 42u128), 0);
    }
}
