//! Hamming-distance neighbour enumeration, position-restricted.
//!
//! "Spectrum-based methods often correct k-mers in a read with their
//! Hamming distance neighbors" (paper §II-A). Reptile restricts candidate
//! substitution positions to *low-quality* bases, which is what keeps the
//! candidate set tractable; this module enumerates exactly those
//! neighbours: all codes obtained by substituting at most `max_errors`
//! bases, each drawn from a caller-supplied position list.
//!
//! The enumeration is generic over the packed representation (`u64`
//! k-mers, `u128` tiles) through the [`NucCode`] trait.

/// A packed nucleotide string: positional 2-bit base access plus length.
///
/// Positions are counted from the *first* base (index 0), matching
/// [`crate::KmerCodec::base_at`] / [`crate::TileCodec::base_at`].
pub trait NucCode:
    Copy + Default + Eq + Ord + std::hash::Hash + std::ops::BitXor<Output = Self>
{
    /// 2-bit base code at `pos`, given total length `len`.
    fn get_base(self, len: usize, pos: usize) -> u8;
    /// Replace base at `pos`, given total length `len`.
    fn set_base(self, len: usize, pos: usize, base: u8) -> Self;
}

impl NucCode for u64 {
    #[inline]
    fn get_base(self, len: usize, pos: usize) -> u8 {
        debug_assert!(pos < len && len <= 32);
        ((self >> (2 * (len - 1 - pos))) & 3) as u8
    }

    #[inline]
    fn set_base(self, len: usize, pos: usize, base: u8) -> u64 {
        debug_assert!(pos < len && base < 4);
        let shift = 2 * (len - 1 - pos);
        (self & !(3u64 << shift)) | ((base as u64) << shift)
    }
}

impl NucCode for u128 {
    #[inline]
    fn get_base(self, len: usize, pos: usize) -> u8 {
        debug_assert!(pos < len && len <= 64);
        ((self >> (2 * (len - 1 - pos))) & 3) as u8
    }

    #[inline]
    fn set_base(self, len: usize, pos: usize, base: u8) -> u128 {
        debug_assert!(pos < len && base < 4);
        let shift = 2 * (len - 1 - pos);
        (self & !(3u128 << shift)) | ((base as u128) << shift)
    }
}

/// Append to `out` every code within Hamming distance `1..=max_errors`
/// of `code`, where substitutions may only occur at `positions`
/// (distinct, each below `len`), as `(neighbour_code, n_substitutions)`
/// pairs.
///
/// The original code itself (distance 0) is *not* emitted. Each emitted
/// neighbour is distinct: positions are combined in strictly increasing
/// order and every substitution changes the base, so no duplicates arise.
/// The order is fixed: positions in the order given, at each position the
/// bases ascending with the original skipped, and every code followed by
/// its deeper descendants (the substitutions at later positions on top of
/// it) before its next sibling.
///
/// Cost: `sum_{d=1..max_errors} C(|positions|, d) * 3^d` entries —
/// callers keep `|positions|` small by quality filtering (paper §II-A).
///
/// ```
/// use dnaseq::{hamming_neighbors, KmerCodec};
/// let codec = KmerCodec::new(4);
/// let code = codec.encode(b"ACGT").unwrap();
/// // substitutions only at position 1: three neighbours
/// let mut n = Vec::new();
/// hamming_neighbors(code, 4, &[1], 1, &mut n);
/// assert_eq!(n.len(), 3);
/// ```
pub fn hamming_neighbors<C: NucCode>(
    code: C,
    len: usize,
    positions: &[usize],
    max_errors: usize,
    out: &mut Vec<(C, usize)>,
) {
    /// Every substitution of `code` at `masks`' positions and after,
    /// `errors_left` deep: a substitution leaves the other positions'
    /// bases as they were, so each position's masks serve every depth.
    fn descend<C: NucCode>(
        code: C,
        masks: &[[C; 3]],
        errors_left: usize,
        depth: usize,
        out: &mut Vec<(C, usize)>,
    ) {
        for (i, subs) in masks.iter().enumerate() {
            for &mask in subs {
                let neighbor = code ^ mask;
                out.push((neighbor, depth + 1));
                if errors_left > 1 {
                    descend(neighbor, &masks[i + 1..], errors_left - 1, depth + 1, out);
                }
            }
        }
    }
    if max_errors == 0 {
        return;
    }
    // Per position, the XOR masks that turn its base into each of the
    // other three, bases ascending. Positions are distinct and below
    // `len` ≤ 64, so 64 rows always suffice.
    assert!(positions.len() <= MAX_POSITIONS, "{} positions in a code of {len}", positions.len());
    let mut masks = [[C::default(); 3]; MAX_POSITIONS];
    for (row, &pos) in masks.iter_mut().zip(positions) {
        let original = code.get_base(len, pos);
        let others = (0..4u8).filter(|&b| b != original);
        for (mask, base) in row.iter_mut().zip(others) {
            *mask = code ^ code.set_base(len, pos, base);
        }
    }
    descend(code, &masks[..positions.len()], max_errors, 0, out);
}

/// The most substitution positions a code can have: the bases of the
/// longest code, a 64-base tile.
const MAX_POSITIONS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer::KmerCodec;
    use proptest::prelude::*;

    /// The neighbours of `code` as a fresh vector.
    fn neighbors<C: NucCode>(
        code: C,
        len: usize,
        positions: &[usize],
        max_errors: usize,
    ) -> Vec<(C, usize)> {
        let mut out = Vec::new();
        hamming_neighbors(code, len, positions, max_errors, &mut out);
        out
    }

    /// The visitor recursion the enumerator replaced, kept verbatim as
    /// the reference for its order: the corrector's requests go out in
    /// this order, so every round's request order depends on it.
    fn visit_recursive<C: NucCode>(
        code: C,
        len: usize,
        positions: &[usize],
        from: usize,
        errors_left: usize,
        depth: usize,
        visit: &mut impl FnMut(C, usize),
    ) {
        if errors_left == 0 {
            return;
        }
        for (i, &pos) in positions.iter().enumerate().skip(from) {
            let original = code.get_base(len, pos);
            for base in 0..4u8 {
                if base == original {
                    continue;
                }
                let neighbor = code.set_base(len, pos, base);
                visit(neighbor, depth + 1);
                visit_recursive(neighbor, len, positions, i + 1, errors_left - 1, depth + 1, visit);
            }
        }
    }

    /// Number of neighbours `hamming_neighbors` will produce:
    /// `sum_{d=1..max_errors} C(p, d) * 3^d` for `p = positions`.
    fn neighbor_count(positions: usize, max_errors: usize) -> usize {
        let mut total = 0usize;
        for d in 1..=max_errors.min(positions) {
            let mut comb = 1usize;
            for i in 0..d {
                comb = comb * (positions - i) / (i + 1);
            }
            total += comb * 3usize.pow(d as u32);
        }
        total
    }

    /// Hamming distance between two packed codes of length `len`.
    fn hamming<C: NucCode>(a: C, b: C, len: usize) -> usize {
        (0..len).filter(|&p| a.get_base(len, p) != b.get_base(len, p)).count()
    }

    proptest! {
        #[test]
        fn neighbor_set_properties(
            code in any::<u64>(),
            k in 6usize..=16,
            maxe in 1usize..=2,
            posmask in any::<u16>(),
        ) {
            let codec = KmerCodec::new(k);
            let code = code & codec.mask();
            let positions: Vec<usize> = (0..k).filter(|&p| p < 16 && posmask & (1 << p) != 0).collect();
            prop_assume!(positions.len() <= 6);
            let neigh = neighbors(code, k, &positions, maxe);
            prop_assert_eq!(neigh.len(), neighbor_count(positions.len(), maxe));
            let mut seen = std::collections::HashSet::new();
            for (n, d) in &neigh {
                prop_assert!(seen.insert(*n), "duplicate neighbour");
                prop_assert_eq!(hamming(code, *n, k), *d);
                prop_assert!(*d >= 1 && *d <= maxe);
            }
        }
    }

    proptest! {
        /// The enumerator emits exactly the old recursion's sequence, in
        /// its order, for both code widths and up to three substitutions.
        #[test]
        fn order_matches_the_visitor_recursion(
            code in any::<u128>(),
            len in 4usize..=40,
            maxe in 0usize..=3,
            posmask in any::<u64>(),
        ) {
            let positions: Vec<usize> =
                (0..len).filter(|&p| posmask & (1 << p) != 0).take(7).collect();
            let mut want = Vec::new();
            let wide = code & ((1u128 << (2 * len)) - 1);
            visit_recursive(wide, len, &positions, 0, maxe, 0, &mut |c, d| want.push((c, d)));
            prop_assert_eq!(neighbors(wide, len, &positions, maxe), want);
            if len <= 32 {
                let narrow = wide as u64;
                let mut want = Vec::new();
                visit_recursive(narrow, len, &positions, 0, maxe, 0, &mut |c, d| want.push((c, d)));
                prop_assert_eq!(neighbors(narrow, len, &positions, maxe), want);
            }
        }
    }

    /// The enumerator appends: what the buffer held stays in front.
    #[test]
    fn enumeration_appends_to_the_buffer() {
        let codec = KmerCodec::new(4);
        let code = codec.encode(b"ACGT").unwrap();
        let mut out = vec![(7u64, 9usize)];
        hamming_neighbors(code, 4, &[1], 1, &mut out);
        assert_eq!(out[0], (7, 9));
        assert_eq!(out[1..], neighbors(code, 4, &[1], 1)[..]);
    }

    #[test]
    fn single_position_yields_three_neighbors() {
        let codec = KmerCodec::new(4);
        let code = codec.encode(b"ACGT").unwrap();
        let n = neighbors(code, 4, &[1], 1);
        assert_eq!(n.len(), 3);
        let decoded: Vec<_> = n.iter().map(|(c, _)| codec.decode(*c)).collect();
        assert!(decoded.contains(&b"AAGT".to_vec()));
        assert!(decoded.contains(&b"AGGT".to_vec()));
        assert!(decoded.contains(&b"ATGT".to_vec()));
    }

    #[test]
    fn counts_match_formula() {
        let codec = KmerCodec::new(8);
        let code = codec.encode(b"ACGTACGT").unwrap();
        for (positions, max_e) in [(vec![0, 3, 5], 1), (vec![0, 3, 5], 2), (vec![1, 2, 4, 7], 2)] {
            let n = neighbors(code, 8, &positions, max_e);
            assert_eq!(n.len(), neighbor_count(positions.len(), max_e));
            // all distinct
            let set: std::collections::HashSet<_> = n.iter().map(|(c, _)| *c).collect();
            assert_eq!(set.len(), n.len());
        }
    }

    #[test]
    fn distances_are_correct() {
        let codec = KmerCodec::new(6);
        let code = codec.encode(b"AAAAAA").unwrap();
        for (neigh, d) in neighbors(code, 6, &[0, 2, 4], 2) {
            assert_eq!(hamming(code, neigh, 6), d);
            assert!((1..=2).contains(&d));
        }
    }

    #[test]
    fn substitutions_respect_position_restriction() {
        let codec = KmerCodec::new(6);
        let code = codec.encode(b"ACGTAC").unwrap();
        let allowed = [1usize, 4];
        for (neigh, _) in neighbors(code, 6, &allowed, 2) {
            for pos in 0..6 {
                if !allowed.contains(&pos) {
                    assert_eq!(
                        code.get_base(6, pos),
                        neigh.get_base(6, pos),
                        "mutated forbidden position {pos}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_positions_or_zero_errors_yield_nothing() {
        let code = 0u64;
        assert!(neighbors(code, 4, &[], 2).is_empty());
        assert!(neighbors(code, 4, &[0, 1], 0).is_empty());
        assert_eq!(neighbor_count(0, 2), 0);
        assert_eq!(neighbor_count(5, 0), 0);
    }

    #[test]
    fn u128_codes_work() {
        use crate::tile::TileCodec;
        let codec = TileCodec::new(8, 4); // len 12
        let code = codec.encode(b"ACGTACGTACGT").unwrap();
        let n = neighbors(code, 12, &[0, 11], 1);
        assert_eq!(n.len(), 6);
        for (neigh, d) in n {
            assert_eq!(hamming(code, neigh, 12), d);
        }
    }

    #[test]
    fn neighbor_count_known_values() {
        assert_eq!(neighbor_count(1, 1), 3);
        assert_eq!(neighbor_count(2, 1), 6);
        assert_eq!(neighbor_count(2, 2), 6 + 9);
        assert_eq!(neighbor_count(3, 2), 9 + 27);
        // max_errors capped by positions
        assert_eq!(neighbor_count(1, 5), 3);
    }
}
