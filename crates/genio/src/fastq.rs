//! FASTQ parsing and the Reptile preprocessing conversion.
//!
//! The paper's input pipeline predates FASTQ support: "At this point,
//! Reptile is not capable of reading the fastq format" — datasets were
//! prepared by converting the downloaded FASTQ into the numbered FASTA +
//! quality pair ("minor differences being introduced in the conversion of
//! the downloaded fastq file format to separate fasta and quality score
//! files which are needed by Reptile", §IV). This module implements both
//! the FASTQ reader/writer and that conversion, so the repository covers
//! the whole dataset-preparation path.

use crate::fasta::trim_eol;
use crate::{IoError, Result};
use dnaseq::quality::QualityEncoding;
use std::io::{BufRead, Write};

/// A parsed FASTQ record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastqRecord {
    /// Record name (everything after `@`, before any whitespace).
    pub name: Vec<u8>,
    /// Sequence line.
    pub seq: Vec<u8>,
    /// Phred scores (decoded from Sanger ASCII).
    pub qual: Vec<u8>,
}

/// Streaming FASTQ reader (4-line records; Sanger quality encoding by
/// default, Illumina-1.3 via [`FastqReader::with_encoding`]).
pub struct FastqReader<R: BufRead> {
    inner: R,
    line: Vec<u8>,
    records: u64,
    encoding: QualityEncoding,
}

impl<R: BufRead> FastqReader<R> {
    /// Wrap a buffered reader positioned at a record boundary.
    pub fn new(inner: R) -> FastqReader<R> {
        FastqReader::with_encoding(inner, QualityEncoding::SangerAscii)
    }

    /// Wrap a reader with an explicit quality encoding (the paper's
    /// datasets predate the Sanger-offset standardization; Illumina
    /// 1.3–1.7 files use offset 64).
    pub fn with_encoding(inner: R, encoding: QualityEncoding) -> FastqReader<R> {
        assert!(
            !matches!(encoding, QualityEncoding::DecimalText),
            "FASTQ qualities are per-character; DecimalText is for .qual files"
        );
        FastqReader { inner, line: Vec::with_capacity(512), records: 0, encoding }
    }

    fn read_line(&mut self) -> Result<bool> {
        self.line.clear();
        Ok(self.inner.read_until(b'\n', &mut self.line)? > 0)
    }

    /// Read the next record, or `Ok(None)` at EOF.
    pub fn next_record(&mut self) -> Result<Option<FastqRecord>> {
        let mut rec = FastqRecord { name: Vec::new(), seq: Vec::new(), qual: Vec::new() };
        Ok(self.next_record_into(&mut rec)?.then_some(rec))
    }

    /// Read the next record into `rec`, reusing its name/seq/qual
    /// buffers; returns `Ok(false)` at EOF. Streaming a whole FASTQ file
    /// through one record costs a fixed handful of buffers no matter how
    /// large the file — the ingestion-side counterpart of the
    /// out-of-core build's bounded-memory contract.
    pub fn next_record_into(&mut self, rec: &mut FastqRecord) -> Result<bool> {
        if !self.read_line()? {
            return Ok(false);
        }
        let n = self.records + 1;
        let header = trim_eol(&self.line);
        if header.first() != Some(&b'@') {
            return Err(IoError::Malformed(format!(
                "fastq record {n}: expected '@' header, got {:?}",
                String::from_utf8_lossy(&header[..header.len().min(20)])
            )));
        }
        rec.name.clear();
        rec.name.extend_from_slice(
            header[1..].split(|&c| c == b' ' || c == b'\t').next().unwrap_or(&[]),
        );
        rec.seq.clear();
        if self.inner.read_until(b'\n', &mut rec.seq)? == 0 {
            return Err(IoError::Malformed(format!("fastq record {n}: missing sequence")));
        }
        let keep = trim_eol(&rec.seq).len();
        rec.seq.truncate(keep);
        if !self.read_line()? {
            return Err(IoError::Malformed(format!("fastq record {n}: missing '+' line")));
        }
        if trim_eol(&self.line).first() != Some(&b'+') {
            return Err(IoError::Malformed(format!("fastq record {n}: expected '+' separator")));
        }
        if !self.read_line()? {
            return Err(IoError::Malformed(format!("fastq record {n}: missing qualities")));
        }
        let qual_ascii = trim_eol(&self.line);
        if qual_ascii.len() != rec.seq.len() {
            return Err(IoError::Mismatch(format!(
                "fastq record {n}: {} bases but {} quality characters",
                rec.seq.len(),
                qual_ascii.len()
            )));
        }
        if !self.encoding.decode_into(qual_ascii, &mut rec.qual) {
            return Err(IoError::Malformed(format!(
                "fastq record {n}: quality character out of range"
            )));
        }
        self.records += 1;
        Ok(true)
    }

    /// Collect all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<FastqRecord>> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// The Reptile preprocessing step: convert a FASTQ stream into the
/// numbered FASTA + decimal-quality file pair, renaming reads to
/// ascending sequence numbers starting at 1 (paper §III step I).
/// Returns the number of reads converted.
pub fn fastq_to_reptile_pair(
    fastq: impl BufRead,
    fasta_out: &mut impl Write,
    qual_out: &mut impl Write,
) -> Result<u64> {
    let mut reader = FastqReader::new(fastq);
    // One reusable record: the conversion streams a file of any size
    // through a fixed set of buffers.
    let mut rec = FastqRecord { name: Vec::new(), seq: Vec::new(), qual: Vec::new() };
    let mut id = 0u64;
    while reader.next_record_into(&mut rec)? {
        id += 1;
        crate::fasta::write_record(fasta_out, id, &rec.seq)?;
        crate::qual::write_qual_record(qual_out, id, &rec.qual)?;
    }
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &[u8] = b"@r1 desc\nACGT\n+\nII5I\n@r2\nGGTTA\n+r2\nIIIII\n";

    #[test]
    fn parses_records() {
        let mut r = FastqReader::new(Cursor::new(SAMPLE.to_vec()));
        let recs = r.read_all().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, b"r1");
        assert_eq!(recs[0].seq, b"ACGT");
        assert_eq!(recs[0].qual, vec![40, 40, 20, 40]);
        assert_eq!(recs[1].name, b"r2");
        assert_eq!(recs[1].seq.len(), 5);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            &b">r1\nACGT\n+\nIIII\n"[..],             // fasta header
            &b"@r1\nACGT\n+\nIII\n"[..],              // short quality
            &b"@r1\nACGT\nIIII\n"[..],                // missing +
            &b"@r1\nACGT\n+\n"[..],                   // truncated
            &b"@r1\nACGT\n+\n\x07\x07\x07\x07\n"[..], // qual out of range
        ] {
            let mut r = FastqReader::new(Cursor::new(bad.to_vec()));
            assert!(r.read_all().is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn conversion_produces_numbered_pair() {
        let mut fa = Vec::new();
        let mut qu = Vec::new();
        let n = fastq_to_reptile_pair(Cursor::new(SAMPLE.to_vec()), &mut fa, &mut qu).unwrap();
        assert_eq!(n, 2);
        assert_eq!(fa, b">1\nACGT\n>2\nGGTTA\n".to_vec());
        assert!(qu.starts_with(b">1\n40 40 20 40\n>2\n"));
        // and the pair zips back into Reads
        use crate::fasta::RecordReader;
        use crate::qual::{zip_records, RecordIter};
        let reads: crate::Result<Vec<_>> = zip_records(
            RecordIter(RecordReader::new(Cursor::new(fa))),
            RecordIter(RecordReader::new(Cursor::new(qu))),
        )
        .collect();
        let reads = reads.unwrap();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].id, 1);
        assert_eq!(reads[0].seq, b"ACGT");
    }

    #[test]
    fn illumina13_encoding_honoured() {
        // 'h' = 104 → Q40 in offset-64; would be Q71 in Sanger
        let data = b"@r\nACGT\n+\nhhhh\n".to_vec();
        let mut r =
            FastqReader::with_encoding(Cursor::new(data.clone()), QualityEncoding::Illumina13);
        let rec = r.next_record().unwrap().unwrap();
        assert_eq!(rec.qual, vec![40; 4]);
        let mut sanger = FastqReader::new(Cursor::new(data));
        assert_eq!(sanger.next_record().unwrap().unwrap().qual, vec![71; 4]);
    }

    #[test]
    #[should_panic(expected = "DecimalText")]
    fn decimal_encoding_rejected_for_fastq() {
        let _ = FastqReader::with_encoding(Cursor::new(Vec::new()), QualityEncoding::DecimalText);
    }

    #[test]
    fn reusable_record_streams_without_regrowing() {
        // Stream many records through one record; after the first (largest)
        // record sizes the buffers, later records must not regrow them.
        // Sanger '?' is Q30
        let mut data = format!("@widest-name\n{}\n+\n{}\n", "A".repeat(64), "?".repeat(64));
        for i in 0..50 {
            let base = ["A", "C", "G", "T"][i % 4];
            data += &format!("@r\n{}\n+\n{}\n", base.repeat(16), "?".repeat(16));
        }
        let mut r = FastqReader::new(Cursor::new(data.into_bytes()));
        let mut rec = FastqRecord { name: Vec::new(), seq: Vec::new(), qual: Vec::new() };
        assert!(r.next_record_into(&mut rec).unwrap());
        let caps = (rec.name.capacity(), rec.seq.capacity(), rec.qual.capacity());
        let mut n = 0;
        while r.next_record_into(&mut rec).unwrap() {
            n += 1;
            assert_eq!(rec.seq.len(), 16);
            assert_eq!(rec.qual, vec![30; 16]);
        }
        assert_eq!(n, 50);
        assert_eq!((rec.name.capacity(), rec.seq.capacity(), rec.qual.capacity()), caps);
    }

    #[test]
    fn empty_fastq_is_empty() {
        let mut r = FastqReader::new(Cursor::new(Vec::new()));
        assert!(r.next_record().unwrap().is_none());
    }
}
