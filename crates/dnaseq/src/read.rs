//! Sequencing reads.
//!
//! A read pairs a nucleotide sequence with per-base Phred qualities and
//! carries the numeric id Reptile's input preprocessing assigns ("the
//! names have been pre-processed to be sequence numbers (in ascending
//! order beginning with number 1)", paper §III step I).

use crate::base;
use crate::hashing;
use crate::quality::Phred;

/// A short read: ascending numeric id, ASCII sequence (`ACGTN`), and one
/// Phred score per base.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Read {
    /// 1-based sequence number from the input file.
    pub id: u64,
    /// Upper-case ASCII nucleotides; `N` marks ambiguous calls.
    pub seq: Vec<u8>,
    /// Per-base Phred scores, same length as `seq`.
    pub qual: Vec<Phred>,
}

impl Read {
    /// Construct a read, normalizing the sequence to upper case and
    /// replacing non-`ACGT` characters with `N`.
    pub fn new(id: u64, seq: impl Into<Vec<u8>>, qual: Vec<Phred>) -> Read {
        let mut seq = seq.into();
        for ch in seq.iter_mut() {
            *ch = match base::Base::from_ascii(*ch) {
                Some(b) => b.to_ascii(),
                None => b'N',
            };
        }
        let read = Read { id, seq, qual };
        read.debug_validate();
        read
    }

    /// Construct without normalization; used by parsers that already
    /// validated their input.
    pub fn from_parts(id: u64, seq: Vec<u8>, qual: Vec<Phred>) -> Read {
        let read = Read { id, seq, qual };
        read.debug_validate();
        read
    }

    fn debug_validate(&self) {
        debug_assert_eq!(
            self.seq.len(),
            self.qual.len(),
            "read {}: sequence/quality length mismatch",
            self.id
        );
    }

    /// Read length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for zero-length reads.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Whether every base is unambiguous (`ACGT`).
    pub fn is_unambiguous(&self) -> bool {
        self.seq.iter().all(|&c| base::is_unambiguous(c))
    }

    /// The deterministic 64-bit hash of the sequence content, used for the
    /// static load-balancing shuffle ("a sequence is designated to be
    /// owned by a rank p if hashFunction(seq) % np == p", paper §III-A).
    #[inline]
    pub fn sequence_hash(&self) -> u64 {
        hashing::hash_bytes(&self.seq)
    }

    /// The rank owning this read under the load-balancing policy.
    #[inline]
    pub fn owner(&self, np: usize) -> usize {
        (self.sequence_hash() % np as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_sequence() {
        let r = Read::new(1, b"acgtx".to_vec(), vec![30; 5]);
        assert_eq!(r.seq, b"ACGTN");
        assert!(!r.is_unambiguous());
        let r2 = Read::new(2, b"ACGT".to_vec(), vec![30; 4]);
        assert!(r2.is_unambiguous());
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        let r = Read::new(7, b"ACGTACGTACGT".to_vec(), vec![30; 12]);
        for np in [1usize, 2, 16, 128] {
            let o = r.owner(np);
            assert!(o < np);
            assert_eq!(o, r.owner(np));
        }
        // owner depends on sequence, not id
        let r2 = Read::new(9999, b"ACGTACGTACGT".to_vec(), vec![2; 12]);
        assert_eq!(r.owner(64), r2.owner(64));
    }

    #[test]
    fn empty_read() {
        let r = Read::new(1, Vec::new(), Vec::new());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.is_unambiguous(), "vacuously true");
    }
}
