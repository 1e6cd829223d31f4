//! Least-significant-digit radix sort for the spectrum hot paths.
//!
//! Spectrum keys are *narrow*: a k-mer occupies `2k ≤ 64` bits and a
//! tile `2·tile_len ≤ 128`, and the operating points the paper measures
//! (k ≈ 10–25) use a fraction of that. A comparison sort pays
//! `O(n log n)` unpredictable branches regardless; an LSD radix sort
//! pays exactly `⌈bits / 11⌉` sequential counting-and-scatter passes,
//! which is 2–3 passes at the real key widths. Every pass streams the
//! input once, so the cost is bandwidth, not branch mispredictions —
//! the property that makes the pipelined build's pre-aggregation and
//! bulk table loads cheap.
//!
//! One histogram sweep computes the digit counts of *all* passes up
//! front, and passes whose digit is constant across the input (common
//! when `bits` is a conservative bound) are skipped without a scatter.

/// Digit width per pass. 11 bits = 2048 bins: the per-pass counter
/// array stays L1-resident (8 KB) while 64-bit keys need at most six
/// passes and the 20–30-bit keys of real workloads need two or three.
const DIGIT_BITS: u32 = 11;
/// Bins per pass (`2^DIGIT_BITS`).
const BINS: usize = 1 << DIGIT_BITS;

/// An unsigned sort-key width the radix passes can extract digits from.
/// Monomorphizing over the width keeps 128-bit arithmetic out of the
/// hist/scatter loops when keys fit in 32 or 64 bits — the common case
/// (k-mers are `2k ≤ 64` bits, hash probe starts are table-index wide).
pub trait RadixWord: Copy {
    /// `DIGIT_BITS` bits of `self` starting at bit `shift`.
    fn digit(self, shift: u32) -> usize;
    /// True when `self` fits the low `bits` bits (debug assertion only).
    fn fits(self, bits: u32) -> bool;
}

macro_rules! radix_word {
    ($($t:ty),*) => {$(
        impl RadixWord for $t {
            #[inline(always)]
            fn digit(self, shift: u32) -> usize {
                (self >> shift) as usize & (BINS - 1)
            }
            #[inline(always)]
            fn fits(self, bits: u32) -> bool {
                bits as usize >= <$t>::BITS as usize || self >> bits == 0
            }
        }
    )*};
}
radix_word!(u32, u64, u128);

/// Sort `v` ascending by `key`, which must fit in the low `bits` bits.
///
/// `tmp` is the scatter buffer, resized to `v.len()` and reusable across
/// calls (its contents afterwards are unspecified). The sort is stable,
/// runs `⌈bits / 11⌉` counting passes (minus any whose digit never
/// varies), and compares nothing — ties keep their input order.
///
/// Keys wider than `bits` sort incorrectly; debug builds assert the
/// bound.
pub fn lsd_sort_by<T: Copy, W: RadixWord, F: Fn(&T) -> W>(
    v: &mut Vec<T>,
    tmp: &mut Vec<T>,
    bits: u32,
    key: F,
) {
    let n = v.len();
    if n < 2 {
        return;
    }
    debug_assert!((1..=128).contains(&bits));
    debug_assert!(v.iter().all(|x| key(x).fits(bits)), "key wider than the declared {bits} bits");
    assert!(n <= u32::MAX as usize, "radix counters are u32");
    let passes = bits.div_ceil(DIGIT_BITS) as usize;

    // One read sweep histograms every pass's digit at once.
    let mut hists = vec![0u32; passes * BINS];
    for x in v.iter() {
        let k = key(x);
        for (p, hist) in hists.chunks_exact_mut(BINS).enumerate() {
            hist[k.digit(p as u32 * DIGIT_BITS)] += 1;
        }
    }

    tmp.clear();
    tmp.resize(n, v[0]);
    for (p, hist) in hists.chunks_exact(BINS).enumerate() {
        // A constant digit scatters every element in place: skip it.
        if hist.iter().any(|&h| h as usize == n) {
            continue;
        }
        let mut cursors = [0u32; BINS];
        let mut acc = 0u32;
        for (c, &h) in cursors.iter_mut().zip(hist) {
            *c = acc;
            acc += h;
        }
        let shift = p as u32 * DIGIT_BITS;
        for x in v.iter() {
            let d = key(x).digit(shift);
            tmp[cursors[d] as usize] = *x;
            cursors[d] += 1;
        }
        std::mem::swap(v, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(x: u64) -> u64 {
        // splitmix64-style scramble, self-contained for the tests
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn sorts_u64_keys_at_every_width() {
        for bits in [1u32, 8, 11, 12, 20, 22, 30, 33, 48, 64] {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let mut v: Vec<u64> = (0..7000u64).map(|i| mix(i % 1999) & mask).collect();
            let mut want = v.clone();
            want.sort_unstable();
            let mut tmp = Vec::new();
            lsd_sort_by(&mut v, &mut tmp, bits, |&k| k);
            assert_eq!(v, want, "bits={bits}");
        }
    }

    #[test]
    fn sorts_u128_keys_past_64_bits() {
        for bits in [70u32, 100, 128] {
            let mask = if bits == 128 { u128::MAX } else { (1u128 << bits) - 1 };
            let mut v: Vec<u128> = (0..3000u64)
                .map(|i| (((mix(i) as u128) << 64) | mix(i ^ 0xABCD) as u128) & mask)
                .collect();
            let mut want = v.clone();
            want.sort_unstable();
            let mut tmp = Vec::new();
            lsd_sort_by(&mut v, &mut tmp, bits, |&k| k);
            assert_eq!(v, want, "bits={bits}");
        }
    }

    #[test]
    fn stable_on_ties_and_sorts_by_extracted_key() {
        // Pairs sharing a key must keep their input order (stability is
        // what lets callers sort (hash, index) pairs and rely on a
        // deterministic placement order).
        let mut v: Vec<(u64, u32)> = (0..5000u32).map(|i| (mix(i as u64) % 97, i)).collect();
        let want = {
            let mut w = v.clone();
            w.sort_by_key(|&(k, _)| k);
            w
        };
        let mut tmp = Vec::new();
        lsd_sort_by(&mut v, &mut tmp, 7, |e| e.0);
        assert_eq!(v, want);
    }

    /// Not a correctness test: prints per-element cost of the two
    /// aggregation primitives this crate contributes (LSD radix sort +
    /// RLE sweep vs prefetched direct counting) on workload-sized
    /// inputs — the numbers behind `reptile_dist::counts`' strategy
    /// cutover. Run with
    /// `cargo test --release -p reptile radix::tests::profile -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn profile_aggregation_strategies() {
        for &(n, bits, distinct) in
            &[(1_020_000usize, 20u32, 290_000u64), (920_000, 30, 66_700), (1_020_000, 48, 290_000)]
        {
            let make = || -> Vec<u64> {
                (0..n as u64).map(|i| mix(i % distinct) & ((1u64 << bits) - 1)).collect()
            };
            for round in 0..3 {
                // (a) lsd sort + RLE sweep
                let mut v = make();
                let t0 = std::time::Instant::now();
                let mut tmp = Vec::new();
                lsd_sort_by(&mut v, &mut tmp, bits, |&k| k);
                let t_sort = t0.elapsed().as_nanos() as f64;
                let t1 = std::time::Instant::now();
                let mut runs: Vec<(u64, u32)> = Vec::with_capacity(n / 2);
                for &k in &v {
                    match runs.last_mut() {
                        Some(r) if r.0 == k => r.1 = r.1.saturating_add(1),
                        _ => runs.push((k, 1)),
                    }
                }
                let t_rle = t1.elapsed().as_nanos() as f64;
                std::hint::black_box(&runs);

                // (b) prefetched direct counting array (the Direct
                // strategy; only sane when the key space is small)
                let mut t_count = f64::NAN;
                if bits <= 22 {
                    let v = make();
                    let t2 = std::time::Instant::now();
                    let mut counts = vec![0u32; 1usize << bits];
                    const AHEAD: usize = 16;
                    for (i, &k) in v.iter().enumerate() {
                        if let Some(&nk) = v.get(i + AHEAD) {
                            dnaseq::simd::prefetch_read(&counts, nk as usize);
                        }
                        counts[k as usize] = counts[k as usize].saturating_add(1);
                    }
                    t_count = t2.elapsed().as_nanos() as f64;
                    std::hint::black_box(&counts);
                }

                let per = n as f64;
                eprintln!(
                    "n={n} bits={bits} round {round}: sort={:.1}+rle={:.1} | direct_count={:.1} ns/elem",
                    t_sort / per,
                    t_rle / per,
                    t_count / per,
                );
            }
        }
    }

    #[test]
    fn trivial_inputs_untouched() {
        let mut tmp = Vec::new();
        let mut empty: Vec<u64> = Vec::new();
        lsd_sort_by(&mut empty, &mut tmp, 20, |&k| k);
        assert!(empty.is_empty());
        let mut one = vec![42u64];
        lsd_sort_by(&mut one, &mut tmp, 20, |&k| k);
        assert_eq!(one, vec![42]);
    }
}
