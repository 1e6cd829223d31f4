//! Property tests for the GF(2^8) Reed-Solomon codec: encode → erase
//! any ≤ m shards → reconstruct bit-identical, and > m erasures fail
//! with the typed `TooManyLost` — across geometries, stripe lengths,
//! and erasure patterns, plus the same two checks as fixed cases at the
//! 128 + 7 geometry of the reference `rs.c` test.

use proptest::prelude::*;
use specstore::{RsCode, RsError};

/// Deterministic bytes from a seed (xorshift), so the strategy space
/// stays scalar-only while the data still varies per case.
fn shard_bytes(seed: u64, shard: usize, len: usize) -> Vec<u8> {
    let mut x = (seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// Pick `count` distinct erasure positions out of `total` from the
/// random word `bits`.
fn erasures(bits: u64, total: usize, count: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(count);
    let mut i = 0usize;
    while picked.len() < count {
        let cand = ((bits >> ((i * 7) % 57)) as usize + i) % total;
        if !picked.contains(&cand) {
            picked.push(cand);
        }
        i += 1;
    }
    picked
}

/// Encode `k` data shards of `stripe` bytes with `m` parity shards and
/// erase `lose` of the `k + m` (positions drawn from `pick`). Returns the
/// data, the parity, and the erased shard set.
#[allow(clippy::type_complexity)]
fn encode_and_erase(
    code: &RsCode,
    (k, m, stripe): (usize, usize, usize),
    seed: u64,
    pick: u64,
    lose: usize,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<Option<Vec<u8>>>) {
    let data: Vec<Vec<u8>> = (0..k).map(|j| shard_bytes(seed, j, stripe)).collect();
    let parity = code.encode(&data);
    let mut shards: Vec<Option<Vec<u8>>> =
        data.iter().chain(parity.iter()).map(|s| Some(s.clone())).collect();
    for e in erasures(pick, k + m, lose) {
        shards[e] = None;
    }
    (data, parity, shards)
}

/// Erasing `lose ≤ m` shards reconstructs every data and parity shard
/// bit-identically.
fn reconstructs_bit_identical(
    (k, m, stripe): (usize, usize, usize),
    seed: u64,
    pick: u64,
    lose: usize,
) -> Result<(), TestCaseError> {
    let code = RsCode::new(k, m).unwrap();
    let (data, parity, mut shards) = encode_and_erase(&code, (k, m, stripe), seed, pick, lose);
    code.reconstruct(&mut shards, stripe).unwrap();
    for (j, d) in data.iter().enumerate() {
        prop_assert_eq!(shards[j].as_ref().unwrap(), d, "data shard {}", j);
    }
    for (i, p) in parity.iter().enumerate() {
        prop_assert_eq!(shards[k + i].as_ref().unwrap(), p, "parity shard {}", i);
    }
    Ok(())
}

/// Erasing `lose > m` shards is the typed `TooManyLost`, naming both
/// counts.
fn too_many_lost(
    (k, m, stripe): (usize, usize, usize),
    seed: u64,
    pick: u64,
    lose: usize,
) -> Result<(), TestCaseError> {
    let code = RsCode::new(k, m).unwrap();
    let (_, _, mut shards) = encode_and_erase(&code, (k, m, stripe), seed, pick, lose);
    match code.reconstruct(&mut shards, stripe) {
        Err(RsError::TooManyLost { lost, parity }) => {
            prop_assert_eq!(lost, lose);
            prop_assert_eq!(parity, m);
        }
        other => prop_assert!(false, "expected TooManyLost, got {:?}", other.map(|_| ())),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn erase_up_to_m_reconstructs_bit_identical(
        k in 2usize..9,
        m in 1usize..4,
        stripe in 1usize..200,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let lose = (pick as usize % m) + 1; // 1..=m erasures
        reconstructs_bit_identical((k, m, stripe), seed, pick, lose)?;
    }

    #[test]
    fn erase_more_than_m_is_too_many_lost(
        k in 2usize..9,
        m in 1usize..4,
        stripe in 1usize..100,
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let lose = (m + 1 + (pick as usize % (k.min(3)))).min(k + m);
        too_many_lost((k, m, stripe), seed, pick, lose)?;
    }
}

/// The wide geometry of the reference `rs.c` test: 128 data + 7 parity
/// shards. No erasure and the full seven reconstruct bit-identically;
/// an eighth is `TooManyLost { lost: 8, parity: 7 }`.
#[test]
fn wide_geometry_128_plus_7() {
    let geometry = (128, 7, 96);
    let (seed, pick) = (0x5eed_0128, 0x9e37_79b9_7f4a_7c15);
    for lose in [0, 7] {
        reconstructs_bit_identical(geometry, seed, pick, lose).unwrap();
    }
    too_many_lost(geometry, seed, pick, 8).unwrap();
}
