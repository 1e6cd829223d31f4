//! Phred quality scores.
//!
//! Reptile consumes a separate quality-score file ("information on the
//! quality score associated with every base of the sequence", paper §III
//! step I) because it predates wide FASTQ support ("Reptile is not capable
//! of reading the fastq format"). Quality scores steer the corrector:
//! bases whose Phred score falls below a threshold are the candidate error
//! positions.

/// A Phred quality score: `Q = −10·log10(P_error)`. Illumina-era scores
/// fall in `0..=41`; we accept `0..=93` (the printable Sanger range).
pub type Phred = u8;

/// Highest Phred score representable in Sanger ASCII encoding.
pub const MAX_PHRED: Phred = 93;

/// How qualities are serialized in files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QualityEncoding {
    /// Whitespace-separated decimal integers, one per base (classic
    /// `.qual` files, what Reptile's config points at).
    DecimalText,
    /// One ASCII character per base, `chr(Q + 33)` (Sanger / FASTQ).
    SangerAscii,
    /// One ASCII character per base, `chr(Q + 64)` (Illumina 1.3–1.7
    /// FASTQ — the vintage of the paper's datasets). Scores cap at 62.
    Illumina13,
}

impl QualityEncoding {
    /// Encode a quality string into bytes for a file record.
    pub fn encode(self, quals: &[Phred]) -> Vec<u8> {
        match self {
            QualityEncoding::DecimalText => {
                let mut out = Vec::with_capacity(quals.len() * 3);
                for (i, &q) in quals.iter().enumerate() {
                    if i > 0 {
                        out.push(b' ');
                    }
                    out.extend_from_slice(q.to_string().as_bytes());
                }
                out
            }
            QualityEncoding::SangerAscii => quals.iter().map(|&q| q.min(MAX_PHRED) + 33).collect(),
            QualityEncoding::Illumina13 => quals.iter().map(|&q| q.min(62) + 64).collect(),
        }
    }

    /// Decode a file record into quality scores, allocated at exactly
    /// one byte per score (a decimal line is ~3 bytes per score, and the
    /// vector lives as long as its read). Returns `None` on any
    /// malformed token / out-of-range character.
    pub fn decode(self, bytes: &[u8]) -> Option<Vec<Phred>> {
        let mut out = Vec::with_capacity(bytes.len());
        self.decode_into(bytes, &mut out).then(|| out.as_slice().to_vec())
    }

    /// Decode into a caller-owned buffer (cleared first), so a streaming
    /// reader can reuse one allocation across records. Returns `false`
    /// (leaving partial content in `out`) on any malformed token /
    /// out-of-range character.
    pub fn decode_into(self, bytes: &[u8], out: &mut Vec<Phred>) -> bool {
        out.clear();
        match self {
            QualityEncoding::DecimalText => {
                let Ok(text) = std::str::from_utf8(bytes) else {
                    return false;
                };
                for tok in text.split_ascii_whitespace() {
                    match tok.parse::<u16>() {
                        Ok(v) if v <= MAX_PHRED as u16 => out.push(v as Phred),
                        _ => return false,
                    }
                }
                true
            }
            QualityEncoding::SangerAscii => bytes.iter().all(|&c| {
                let ok = (33..=33 + MAX_PHRED).contains(&c);
                if ok {
                    out.push(c - 33);
                }
                ok
            }),
            QualityEncoding::Illumina13 => bytes.iter().all(|&c| {
                let ok = (64..=126).contains(&c);
                if ok {
                    out.push(c - 64);
                }
                ok
            }),
        }
    }
}

/// Phred score for an error probability, clamped to `0..=MAX_PHRED`.
#[inline]
pub fn phred_from_probability(p: f64) -> Phred {
    if p <= 0.0 {
        return MAX_PHRED;
    }
    let q = -10.0 * p.log10();
    q.clamp(0.0, MAX_PHRED as f64).round() as Phred
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_round_trip() {
        let quals = vec![0, 2, 17, 40, 41, 93];
        let enc = QualityEncoding::DecimalText.encode(&quals);
        assert_eq!(enc, b"0 2 17 40 41 93".to_vec());
        assert_eq!(QualityEncoding::DecimalText.decode(&enc), Some(quals));
    }

    #[test]
    fn sanger_round_trip() {
        let quals = vec![0, 2, 17, 40, 41, 93];
        let enc = QualityEncoding::SangerAscii.encode(&quals);
        assert_eq!(enc, vec![b'!', b'#', b'2', b'I', b'J', b'~']);
        assert_eq!(QualityEncoding::SangerAscii.decode(&enc), Some(quals));
    }

    #[test]
    fn illumina13_round_trip() {
        let quals = vec![0, 2, 17, 40, 62];
        let enc = QualityEncoding::Illumina13.encode(&quals);
        assert_eq!(enc, vec![64, 66, 81, 104, 126]);
        assert_eq!(QualityEncoding::Illumina13.decode(&enc), Some(quals));
        // scores above the offset-64 ceiling are clamped on encode
        assert_eq!(QualityEncoding::Illumina13.encode(&[93]), vec![126]);
        // characters below the offset are rejected on decode
        assert_eq!(QualityEncoding::Illumina13.decode(&[33]), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(QualityEncoding::DecimalText.decode(b"12 x 9"), None);
        assert_eq!(QualityEncoding::DecimalText.decode(b"300"), None);
        assert_eq!(QualityEncoding::SangerAscii.decode(&[10u8]), None);
        assert_eq!(QualityEncoding::SangerAscii.decode(&[200u8]), None);
    }

    #[test]
    fn decimal_decode_allocates_one_byte_per_score() {
        let quals: Vec<Phred> = (0..100).map(|i| (i % 41) as Phred).collect();
        let line = QualityEncoding::DecimalText.encode(&quals);
        let got = QualityEncoding::DecimalText.decode(&line).unwrap();
        assert_eq!(got, quals);
        assert_eq!(got.capacity(), got.len(), "a {}-byte line", line.len());
    }

    #[test]
    fn decode_empty_is_empty() {
        assert_eq!(QualityEncoding::DecimalText.decode(b""), Some(vec![]));
        assert_eq!(QualityEncoding::DecimalText.decode(b"   "), Some(vec![]));
        assert_eq!(QualityEncoding::SangerAscii.decode(b""), Some(vec![]));
    }

    #[test]
    fn probability_conversions() {
        assert_eq!(phred_from_probability(0.1), 10);
        assert_eq!(phred_from_probability(0.001), 30);
        assert_eq!(phred_from_probability(0.0), MAX_PHRED);
        assert_eq!(phred_from_probability(1.0), 0);
    }
}
