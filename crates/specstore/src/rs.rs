//! GF(2^8) Reed-Solomon erasure codec for shard groups.
//!
//! A shard group is the `k` data shards of one table kind plus `m`
//! parity shards. Encoding multiplies the data by an `m × k` Cauchy
//! matrix over GF(2^8); any `k` of the `k + m` shards suffice to
//! recover the rest, so up to `m` lost shards are repairable.
//!
//! Two properties drive the construction:
//!
//! - **MDS guarantee.** Every square submatrix of a Cauchy matrix is
//!   nonsingular, so stacking the identity over the parity rows yields
//!   a matrix whose every `k`-row subset is invertible. (A naive
//!   systematic Vandermonde `[I; V]` does *not* have this property for
//!   `m ≥ 3`.) Column scaling by nonzero constants preserves it, which
//!   lets us normalise row 0 to all ones: with `m = 1` the single
//!   parity shard is a plain XOR of the data shards.
//! - **Syndrome-free reconstruction.** Decoding picks any `k`
//!   surviving rows, inverts that `k × k` matrix by Gauss–Jordan
//!   elimination, and multiplies — no polynomial syndromes, no
//!   Berlekamp–Massey. Erasure positions are known from the shard
//!   classification pass, which is all a snapshot load ever sees.
//!
//! Shards in one group may have different lengths on disk; callers
//! zero-pad to a common stripe length before encoding and slice the
//! rebuilt shards back to their recorded lengths afterwards.

/// Field polynomial x^8 + x^4 + x^3 + x^2 + 1, the usual 0x11d.
const POLY: u16 = 0x11d;

/// EXP has 512 entries so `EXP[log a + log b]` never needs a mod 255.
static EXP: [u8; 512] = build_tables().0;
static LOG: [u8; 256] = build_tables().1;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

/// Multiply in GF(2^8).
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse; `a` must be nonzero.
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    EXP[255 - LOG[a as usize] as usize]
}

/// 256-entry multiplication table for one coefficient: the inner loops
/// of encode/reconstruct become one lookup + XOR per byte.
fn mul_table(c: u8) -> [u8; 256] {
    let mut t = [0u8; 256];
    if c == 0 {
        return t;
    }
    let lc = LOG[c as usize] as usize;
    for (b, slot) in t.iter_mut().enumerate().skip(1) {
        *slot = EXP[lc + LOG[b] as usize];
    }
    t
}

/// XOR `table[src[i]]` into `dst[i]`, with the `coef == 1` fast path.
#[inline]
fn mul_acc(dst: &mut [u8], src: &[u8], coef: u8, table: &[u8; 256]) {
    debug_assert_eq!(dst.len(), src.len());
    if coef == 0 {
        return;
    }
    if coef == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= table[*s as usize];
        }
    }
}

/// Typed codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// More shards are missing than the parity budget can rebuild.
    TooManyLost {
        /// Number of missing shards (data + parity).
        lost: usize,
        /// Parity shards available to cover losses.
        parity: usize,
    },
    /// `data + parity` exceeds the GF(2^8) limit of 256 total shards,
    /// or one of the counts is zero.
    BadGeometry {
        /// Requested data shard count.
        data: usize,
        /// Requested parity shard count.
        parity: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::TooManyLost { lost, parity } => {
                write!(f, "{lost} shard(s) lost but only {parity} parity shard(s) available")
            }
            RsError::BadGeometry { data, parity } => write!(
                f,
                "unsupported geometry: {data} data + {parity} parity shards \
                 (need both >= 1 and sum <= 256)"
            ),
        }
    }
}

impl std::error::Error for RsError {}

/// A fixed `(k, m)` Reed-Solomon code with its encode matrix.
#[derive(Debug, Clone)]
pub struct RsCode {
    k: usize,
    m: usize,
    /// `m × k` parity rows of the systematic generator `[I; rows]`.
    rows: Vec<Vec<u8>>,
}

impl RsCode {
    /// Build the code for `k` data and `m` parity shards.
    pub fn new(k: usize, m: usize) -> Result<RsCode, RsError> {
        if k == 0 || m == 0 || k + m > 256 {
            return Err(RsError::BadGeometry { data: k, parity: m });
        }
        // Cauchy matrix C[i][j] = 1 / (x_i ^ y_j) with x_i = i (parity
        // rows) and y_j = m + j (data columns): the two index sets are
        // disjoint in GF(2^8) whenever k + m <= 256, so every entry is
        // defined and every square submatrix is invertible. Normalise
        // each column by its row-0 entry so row 0 is all ones.
        let mut rows = vec![vec![0u8; k]; m];
        for (i, row) in rows.iter_mut().enumerate() {
            for (j, e) in row.iter_mut().enumerate() {
                *e = gf_inv((i as u8) ^ ((m + j) as u8));
            }
        }
        for j in 0..k {
            let norm = gf_inv(rows[0][j]);
            for row in rows.iter_mut() {
                row[j] = gf_mul(row[j], norm);
            }
        }
        Ok(RsCode { k, m, rows })
    }

    /// Streaming encode step: XOR data shard `j`'s chunk into every
    /// parity accumulator. Call once per (data shard, chunk); parity
    /// buffers must be zeroed at the start of each chunk.
    pub fn encode_acc(&self, j: usize, data_chunk: &[u8], parity_chunks: &mut [Vec<u8>]) {
        assert_eq!(parity_chunks.len(), self.m, "parity buffer count");
        for (i, p) in parity_chunks.iter_mut().enumerate() {
            let c = self.rows[i][j];
            let t = mul_table(c);
            mul_acc(&mut p[..data_chunk.len()], data_chunk, c, &t);
        }
    }

    /// One-shot encode of equal-length data shards into `m` parity
    /// shards (convenience for tests and small groups).
    pub fn encode(&self, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "data shard count");
        let len = data.first().map_or(0, |d| d.len());
        let mut parity = vec![vec![0u8; len]; self.m];
        for (j, d) in data.iter().enumerate() {
            assert_eq!(d.len(), len, "data shards must share a stripe length");
            self.encode_acc(j, d, &mut parity);
        }
        parity
    }

    /// Rebuild every missing shard in place. `shards` holds the
    /// `k + m` group members in order (data `0..k`, then parity);
    /// `None` marks a loss. Present shards must all be `stripe_len`
    /// bytes. On success every entry is `Some` and data entries are
    /// bit-identical to the originals.
    pub fn reconstruct(
        &self,
        shards: &mut [Option<Vec<u8>>],
        stripe_len: usize,
    ) -> Result<(), RsError> {
        assert_eq!(shards.len(), self.k + self.m, "group size");
        for s in shards.iter().flatten() {
            assert_eq!(s.len(), stripe_len, "present shards must be stripe-length");
        }
        let lost = shards.iter().filter(|s| s.is_none()).count();
        if lost == 0 {
            return Ok(());
        }
        if lost > self.m {
            return Err(RsError::TooManyLost { lost, parity: self.m });
        }

        let missing_data: Vec<usize> = (0..self.k).filter(|&j| shards[j].is_none()).collect();
        if !missing_data.is_empty() {
            // Pick k surviving rows of [I; rows]: every present data
            // shard contributes its identity row, then parity rows
            // fill the gap. Invert and multiply.
            let mut chosen_rows: Vec<Vec<u8>> = Vec::with_capacity(self.k);
            let mut chosen_src: Vec<usize> = Vec::with_capacity(self.k);
            for j in 0..self.k {
                if shards[j].is_some() {
                    let mut row = vec![0u8; self.k];
                    row[j] = 1;
                    chosen_rows.push(row);
                    chosen_src.push(j);
                }
            }
            for i in 0..self.m {
                if chosen_rows.len() == self.k {
                    break;
                }
                if shards[self.k + i].is_some() {
                    chosen_rows.push(self.rows[i].clone());
                    chosen_src.push(self.k + i);
                }
            }
            if chosen_rows.len() < self.k {
                return Err(RsError::TooManyLost { lost, parity: self.m });
            }
            let inv = invert(chosen_rows, self.k);
            for &d in &missing_data {
                let mut out = vec![0u8; stripe_len];
                for (s, &src) in chosen_src.iter().enumerate() {
                    let c = inv[d][s];
                    let t = mul_table(c);
                    mul_acc(&mut out, shards[src].as_ref().expect("chosen"), c, &t);
                }
                shards[d] = Some(out);
            }
        }
        // With all data present, missing parity is a plain re-encode.
        for i in 0..self.m {
            if shards[self.k + i].is_some() {
                continue;
            }
            let mut out = vec![0u8; stripe_len];
            for (j, &c) in self.rows[i].iter().enumerate().take(self.k) {
                let t = mul_table(c);
                mul_acc(&mut out, shards[j].as_ref().expect("data complete"), c, &t);
            }
            shards[self.k + i] = Some(out);
        }
        Ok(())
    }
}

/// Gauss–Jordan inversion of a `k × k` matrix over GF(2^8). The input
/// rows come from `[I; Cauchy]`, so the matrix is always invertible;
/// a missing pivot is a codec bug, not a recoverable condition.
fn invert(mut a: Vec<Vec<u8>>, k: usize) -> Vec<Vec<u8>> {
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let mut row = vec![0u8; k];
            row[i] = 1;
            row
        })
        .collect();
    for col in 0..k {
        let pivot =
            (col..k).find(|&r| a[r][col] != 0).expect("RS decode matrix is singular (codec bug)");
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = gf_inv(a[col][col]);
        for x in a[col].iter_mut().chain(inv[col].iter_mut()) {
            *x = gf_mul(*x, scale);
        }
        let apiv = a[col].clone();
        let ipiv = inv[col].clone();
        for r in 0..k {
            if r == col || a[r][col] == 0 {
                continue;
            }
            let f = a[r][col];
            for (x, p) in a[r].iter_mut().zip(apiv.iter()) {
                *x ^= gf_mul(f, *p);
            }
            for (x, p) in inv[r].iter_mut().zip(ipiv.iter()) {
                *x ^= gf_mul(f, *p);
            }
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_tables_are_consistent() {
        // 2 generates the multiplicative group under 0x11d.
        for a in 1u16..=255 {
            let a = a as u8;
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Distributivity spot check across a grid.
        for a in (0u16..=255).step_by(17) {
            for b in (0u16..=255).step_by(13) {
                for c in (0u16..=255).step_by(29) {
                    let (a, b, c) = (a as u8, b as u8, c as u8);
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn row_zero_is_all_ones() {
        let code = RsCode::new(7, 3).unwrap();
        assert_eq!(code.rows[0], vec![1; 7]);
    }

    #[test]
    fn single_parity_is_xor() {
        let code = RsCode::new(4, 1).unwrap();
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i * 3 + 1; 16]).collect();
        let parity = code.encode(&data);
        for t in 0..16 {
            let x = data.iter().fold(0u8, |acc, d| acc ^ d[t]);
            assert_eq!(parity[0][t], x);
        }
    }

    fn roundtrip(k: usize, m: usize, erase: &[usize]) {
        let code = RsCode::new(k, m).unwrap();
        let stripe = 64;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|j| (0..stripe).map(|t| ((j * 37 + t * 11 + 5) % 251) as u8).collect())
            .collect();
        let parity = code.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(parity.iter()).map(|s| Some(s.clone())).collect();
        for &e in erase {
            shards[e] = None;
        }
        code.reconstruct(&mut shards, stripe).unwrap();
        for (j, d) in data.iter().enumerate() {
            assert_eq!(shards[j].as_ref().unwrap(), d, "data shard {j}");
        }
        for (i, p) in parity.iter().enumerate() {
            assert_eq!(shards[k + i].as_ref().unwrap(), p, "parity shard {i}");
        }
    }

    #[test]
    fn every_single_and_double_erasure_recovers() {
        let (k, m) = (5, 2);
        for a in 0..k + m {
            roundtrip(k, m, &[a]);
            for b in a + 1..k + m {
                roundtrip(k, m, &[a, b]);
            }
        }
    }

    #[test]
    fn every_triple_erasure_recovers_with_three_parity() {
        let (k, m) = (4, 3);
        for a in 0..k + m {
            for b in a + 1..k + m {
                for c in b + 1..k + m {
                    roundtrip(k, m, &[a, b, c]);
                }
            }
        }
    }

    #[test]
    fn too_many_lost_is_typed() {
        let code = RsCode::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
        let parity = code.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(parity.iter()).map(|s| Some(s.clone())).collect();
        shards[0] = None;
        shards[2] = None;
        shards[4] = None;
        let err = code.reconstruct(&mut shards, 8).unwrap_err();
        assert_eq!(err, RsError::TooManyLost { lost: 3, parity: 2 });
    }

    #[test]
    fn bad_geometry_is_typed() {
        assert_eq!(RsCode::new(0, 1).unwrap_err(), RsError::BadGeometry { data: 0, parity: 1 });
        assert_eq!(RsCode::new(250, 7).unwrap_err(), RsError::BadGeometry { data: 250, parity: 7 });
        assert!(RsCode::new(250, 6).is_ok());
    }

    #[test]
    fn streaming_encode_matches_one_shot() {
        let code = RsCode::new(6, 3).unwrap();
        let stripe = 100;
        let data: Vec<Vec<u8>> = (0..6)
            .map(|j| (0..stripe).map(|t| ((j * 91 + t * 7 + 3) % 256) as u8).collect())
            .collect();
        let whole = code.encode(&data);
        // Chunked: 100 bytes in chunks of 32.
        let mut parity = vec![Vec::new(); 3];
        let mut off = 0;
        while off < stripe {
            let len = 32.min(stripe - off);
            let mut chunks = vec![vec![0u8; len]; 3];
            for (j, d) in data.iter().enumerate() {
                code.encode_acc(j, &d[off..off + len], &mut chunks);
            }
            for (p, c) in parity.iter_mut().zip(chunks) {
                p.extend_from_slice(&c);
            }
            off += len;
        }
        assert_eq!(parity, whole);
    }
}
