//! Streaming FNV-1a 64 checksum.
//!
//! Every file writer hashes its body as it streams it through the
//! frame's bounded buffer, so the checksum costs one pass over data that
//! is being written anyway. FNV-1a is not cryptographic — the threat model is
//! bit-rot and truncated writes, not an adversary — but it detects every
//! single-byte corruption (each input byte feeds a full 64-bit multiply),
//! which the proptest suite verifies flip by flip.

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn any_single_byte_flip_changes_digest() {
        let data: Vec<u8> = (0..=255u8).collect();
        let base = fnv1a(&data);
        for i in 0..data.len() {
            let mut corrupt = data.clone();
            corrupt[i] ^= 0x01;
            assert_ne!(fnv1a(&corrupt), base, "flip at byte {i} undetected");
        }
    }
}
