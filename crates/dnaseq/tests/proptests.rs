//! Property-based tests for the sequence primitives.

use dnaseq::{KmerCodec, QualityEncoding, TileCodec};
use proptest::prelude::*;

fn dna_string(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), len)
}

fn dna_with_n(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T', b'N']), len)
}

proptest! {
    #[test]
    fn kmer_encode_decode_roundtrip(k in 1usize..=32, seed in any::<u64>()) {
        let codec = KmerCodec::new(k);
        // derive a sequence from the seed deterministically
        let mut x = seed;
        let seq: Vec<u8> = (0..k).map(|_| {
            x = dnaseq::mix64(x);
            [b'A', b'C', b'G', b'T'][(x % 4) as usize]
        }).collect();
        let code = codec.encode(&seq).unwrap();
        prop_assert_eq!(codec.decode(code), seq);
        prop_assert_eq!(code & !codec.mask(), 0, "no stray high bits");
    }

    #[test]
    fn kmer_revcomp_is_involution(k in 1usize..=32, code in any::<u64>()) {
        let codec = KmerCodec::new(k);
        let code = code & codec.mask();
        prop_assert_eq!(codec.reverse_complement(codec.reverse_complement(code)), code);
    }

    #[test]
    fn canonical_is_strand_invariant(k in 1usize..=32, code in any::<u64>()) {
        let codec = KmerCodec::new(k);
        let code = code & codec.mask();
        let rc = codec.reverse_complement(code);
        prop_assert_eq!(codec.canonical(code), codec.canonical(rc));
        prop_assert!(codec.canonical(code) <= code);
    }

    #[test]
    fn rolling_kmers_match_naive(seq in dna_with_n(0..120), k in 1usize..=12) {
        let codec = KmerCodec::new(k);
        let rolled: Vec<_> = codec.kmers_of(&seq).collect();
        let naive: Vec<_> = (0..seq.len().saturating_sub(k - 1))
            .filter_map(|i| codec.encode(&seq[i..i + k]).map(|c| (i, c)))
            .collect();
        prop_assert_eq!(rolled, naive);
    }

    #[test]
    fn tile_from_kmers_consistent(seq in dna_string(20..64), k in 4usize..=10, ov in 1usize..=3) {
        prop_assume!(ov < k);
        let tcodec = TileCodec::new(k, ov);
        prop_assume!(seq.len() >= tcodec.len());
        let kcodec = KmerCodec::new(k);
        let s = &seq[..tcodec.len()];
        let first = kcodec.encode(&s[..k]).unwrap();
        let second = kcodec.encode(&s[tcodec.stride()..tcodec.stride() + k]).unwrap();
        prop_assert_eq!(tcodec.from_kmers(first, second), tcodec.encode(s).unwrap());
        let (f, snd) = tcodec.to_kmers(tcodec.encode(s).unwrap());
        prop_assert_eq!((f, snd), (first, second));
    }

    #[test]
    fn tile_revcomp_involution(k in 2usize..=32, ov in 1usize..=31, code in any::<u128>()) {
        prop_assume!(ov < k && 2 * k - ov <= 64);
        let codec = TileCodec::new(k, ov);
        let code = code & ((1u128 << (2 * codec.len())).wrapping_sub(1));
        prop_assert_eq!(codec.reverse_complement(codec.reverse_complement(code)), code);
    }

    #[test]
    fn quality_roundtrip_decimal(quals in prop::collection::vec(0u8..=93, 0..200)) {
        let enc = QualityEncoding::DecimalText.encode(&quals);
        prop_assert_eq!(QualityEncoding::DecimalText.decode(&enc), Some(quals));
    }

    #[test]
    fn quality_roundtrip_sanger(quals in prop::collection::vec(0u8..=93, 0..200)) {
        let enc = QualityEncoding::SangerAscii.encode(&quals);
        prop_assert_eq!(QualityEncoding::SangerAscii.decode(&enc), Some(quals));
    }

    #[test]
    fn owner_partition_is_total(np in 1usize..512, key in any::<u64>()) {
        prop_assert!(dnaseq::owner_of(key, np) < np);
    }
}
