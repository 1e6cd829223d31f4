//! A Bloom filter for k-mer/tile codes.
//!
//! The paper notes that "a memory-efficient alternative to [threshold
//! pruning] is usage of a Bloom filter" (§III step III, citing Georganas
//! et al. SC'14): most distinct k-mers in error-rich data are singletons
//! (each error creates up to `k` novel k-mers), so keeping them out of
//! the counting tables saves the bulk of construction memory. The
//! standard scheme: on first sight a code only sets bits in the filter;
//! it enters the counting table when seen again. See
//! `reptile::bloom_build::build_with_bloom` for the integration.
//!
//! Implementation: double hashing (`h1 + i·h2` over `m` bits) with the
//! [`crate::mix64`] finalizer — the classic Kirsch–Mitzenmacher
//! construction, no external dependencies.

use crate::hashing::mix64;

/// A fixed-size Bloom filter over `u64` items (hash 128-bit tiles down
/// with [`crate::hashing::mix128`] first).
///
/// ```
/// use dnaseq::BloomFilter;
/// let mut filter = BloomFilter::for_items(1000, 0.01);
/// assert!(!filter.insert(42), "first sighting");
/// assert!(filter.insert(42), "second sighting");
/// assert!(filter.contains(42));
/// ```
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with at least `bits` bits (rounded up to a power
    /// of two) and `hashes` probe positions per item.
    pub fn with_bits(bits: usize, hashes: u32) -> BloomFilter {
        assert!((1..=16).contains(&hashes), "unreasonable hash count {hashes}");
        let bits = bits.max(64).next_power_of_two();
        BloomFilter { bits: vec![0u64; bits / 64], mask: bits as u64 - 1, hashes, inserted: 0 }
    }

    /// Size the filter for `n` expected items at `fp_rate` false-positive
    /// probability: `m = −n·ln p / (ln 2)²`, `k = (m/n)·ln 2`.
    pub fn for_items(n: usize, fp_rate: f64) -> BloomFilter {
        assert!(fp_rate > 0.0 && fp_rate < 1.0);
        let n = n.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fp_rate.ln() / (ln2 * ln2)).ceil() as usize;
        let k = ((m as f64 / n) * ln2).round().clamp(1.0, 16.0) as u32;
        BloomFilter::with_bits(m, k)
    }

    #[inline]
    fn probes(&self, item: u64) -> impl Iterator<Item = u64> + '_ {
        let h1 = mix64(item);
        // ensure h2 is odd so probes cycle through all positions
        let h2 = mix64(item ^ 0xA5A5_A5A5_A5A5_A5A5) | 1;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) & self.mask)
    }

    /// Insert an item; returns `true` if it *may* have been present
    /// already (all probe bits were set).
    pub fn insert(&mut self, item: u64) -> bool {
        let mut present = true;
        // collect positions first to appease the borrow checker cheaply
        let positions: Vec<u64> = self.probes(item).collect();
        for pos in positions {
            let (word, bit) = ((pos / 64) as usize, pos % 64);
            if self.bits[word] & (1 << bit) == 0 {
                present = false;
                self.bits[word] |= 1 << bit;
            }
        }
        self.inserted += 1;
        present
    }

    /// Whether the item may be present (false positives possible, false
    /// negatives impossible).
    pub fn contains(&self, item: u64) -> bool {
        self.probes(item).all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Number of bits in the filter.
    pub fn bit_len(&self) -> usize {
        self.bits.len() * 64
    }

    /// Resident bytes of the bit array.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Items inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Fraction of set bits — an occupancy/health diagnostic.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.bit_len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_items(10_000, 0.01);
        for i in 0..10_000u64 {
            f.insert(i * 2654435761);
        }
        for i in 0..10_000u64 {
            assert!(f.contains(i * 2654435761), "false negative at {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let n = 50_000;
        let mut f = BloomFilter::for_items(n, 0.01);
        for i in 0..n as u64 {
            f.insert(mix64(i));
        }
        let fps = (0..100_000u64).filter(|&i| f.contains(mix64(i + 1_000_000_000))).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate} too high");
    }

    #[test]
    fn insert_reports_prior_presence() {
        let mut f = BloomFilter::for_items(1000, 0.001);
        assert!(!f.insert(42));
        assert!(f.insert(42), "second insert must report presence");
    }

    #[test]
    fn sizing_formula_reasonable() {
        let f = BloomFilter::for_items(1_000_000, 0.01);
        // theory: ~9.6 bits/item → rounded to power of two
        assert!(f.bit_len() >= 9_000_000 && f.bit_len() <= 20_000_000);
        let tiny = BloomFilter::for_items(0, 0.5);
        assert!(tiny.bit_len() >= 64);
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = BloomFilter::with_bits(1 << 12, 4);
        assert_eq!(f.fill_ratio(), 0.0);
        for i in 0..200u64 {
            f.insert(i);
        }
        let r = f.fill_ratio();
        assert!(r > 0.05 && r < 0.5, "{r}");
        assert_eq!(f.inserted(), 200);
    }
}
