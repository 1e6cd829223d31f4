//! The 2-bit nucleotide alphabet.
//!
//! Reptile packs sequences into integer codes two bits per base, with the
//! conventional encoding `A=0, C=1, G=2, T=3`. Any other input character
//! (most commonly `N`) has no 2-bit code; windows containing such characters
//! are skipped during spectrum construction and never corrected.

/// A single nucleotide with its canonical 2-bit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine, code 0.
    A = 0,
    /// Cytosine, code 1.
    C = 1,
    /// Guanine, code 2.
    G = 2,
    /// Thymine, code 3.
    T = 3,
}

impl Base {
    /// Decode a 2-bit code (`0..=3`). Panics in debug builds on out-of-range
    /// input; release builds mask to the low two bits.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        debug_assert!(code < 4, "2-bit base code out of range: {code}");
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parse an ASCII nucleotide character (case-insensitive). Returns
    /// `None` for ambiguity codes (`N`, IUPAC letters) and anything else.
    #[inline]
    pub fn from_ascii(ch: u8) -> Option<Base> {
        match ch {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Upper-case ASCII representation.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// Watson–Crick complement (`A<->T`, `C<->G`). With the 2-bit encoding
    /// this is simply `3 - code`, i.e. bitwise NOT of the low two bits.
    #[inline]
    pub fn complement(self) -> Base {
        Base::from_code(3 - self.code())
    }
}

/// True if the ASCII character encodes one of `ACGT` (case-insensitive).
#[inline]
pub fn is_unambiguous(ch: u8) -> bool {
    Base::from_ascii(ch).is_some()
}

/// Reverse-complement an ASCII sequence in place. Ambiguous characters map
/// to `N` (so `N` stays `N`), matching common toolchain behaviour.
pub fn reverse_complement_ascii(seq: &mut [u8]) {
    seq.reverse();
    for ch in seq.iter_mut() {
        *ch = match Base::from_ascii(*ch) {
            Some(b) => b.complement().to_ascii(),
            None => b'N',
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for b in (0..4).map(Base::from_code) {
            assert_eq!(Base::from_code(b.code()), b);
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in (0..4).map(Base::from_code) {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn ambiguous_characters_rejected() {
        for ch in [b'N', b'n', b'R', b'-', b'.', b'X', b'0'] {
            assert_eq!(Base::from_ascii(ch), None, "{}", ch as char);
            assert!(!is_unambiguous(ch));
        }
    }

    #[test]
    fn revcomp_ascii() {
        let mut s = b"ACGTN".to_vec();
        reverse_complement_ascii(&mut s);
        assert_eq!(s, b"NACGT");
        // involution on unambiguous input
        let mut t = b"GATTACA".to_vec();
        reverse_complement_ascii(&mut t);
        reverse_complement_ascii(&mut t);
        assert_eq!(t, b"GATTACA");
    }
}
