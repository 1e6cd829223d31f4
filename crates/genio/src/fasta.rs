//! The numbered-FASTA dialect Reptile consumes.
//!
//! Reptile's preprocessing rewrites read names to "sequence numbers (in
//! ascending order beginning with number 1)" (paper §III step I). A record
//! is therefore:
//!
//! ```text
//! >17
//! ACGTTGCA...
//! ```
//!
//! One sequence line per record (short reads never wrap), `\n` line
//! endings. The same framing is used for the quality files (see
//! [`crate::qual`]), only the payload line differs.

use crate::{IoError, Result};
use std::io::{BufRead, Write};

/// A raw FASTA record: the numeric id and the payload line (unparsed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRecord {
    /// Sequence number from the `>` header.
    pub id: u64,
    /// The payload line, without the trailing newline.
    pub line: Vec<u8>,
}

/// Write one record. `payload` must not contain newlines.
pub fn write_record(out: &mut impl Write, id: u64, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(!payload.contains(&b'\n'));
    writeln!(out, ">{id}")?;
    out.write_all(payload)?;
    out.write_all(b"\n")
}

/// Parse a header line (`>NUMBER`) into the sequence number.
pub fn parse_header(line: &[u8]) -> Result<u64> {
    let line = trim_eol(line);
    if line.first() != Some(&b'>') {
        return Err(IoError::Malformed(format!(
            "expected '>' header, got {:?}",
            String::from_utf8_lossy(&line[..line.len().min(20)])
        )));
    }
    let digits = &line[1..];
    let text =
        std::str::from_utf8(digits).map_err(|_| IoError::Malformed("non-UTF8 header".into()))?;
    text.trim()
        .parse::<u64>()
        .map_err(|_| IoError::Malformed(format!("header is not a sequence number: '>{text}'")))
}

/// Strip a trailing `\n` / `\r\n` from a line.
pub fn trim_eol(line: &[u8]) -> &[u8] {
    let mut end = line.len();
    while end > 0 && (line[end - 1] == b'\n' || line[end - 1] == b'\r') {
        end -= 1;
    }
    &line[..end]
}

/// Iterate raw records from a buffered reader until EOF.
pub struct RecordReader<R: BufRead> {
    inner: R,
    line: Vec<u8>,
    /// id of the previous record, for ascending-order validation.
    prev_id: Option<u64>,
}

impl<R: BufRead> RecordReader<R> {
    /// Wrap a buffered reader positioned at a record boundary.
    pub fn new(inner: R) -> RecordReader<R> {
        RecordReader { inner, line: Vec::with_capacity(512), prev_id: None }
    }

    fn read_line(&mut self) -> Result<bool> {
        self.line.clear();
        let n = self.inner.read_until(b'\n', &mut self.line)?;
        Ok(n > 0)
    }

    /// Read the next record, or `Ok(None)` at EOF.
    ///
    /// Enforces the dialect invariants: header then exactly one payload
    /// line, ids strictly ascending.
    pub fn next_record(&mut self) -> Result<Option<RawRecord>> {
        let mut rec = RawRecord { id: 0, line: Vec::new() };
        Ok(self.next_record_into(&mut rec)?.then_some(rec))
    }

    /// Read the next record into `rec`, reusing its payload buffer;
    /// returns `Ok(false)` at EOF. The allocation-free twin of
    /// [`RecordReader::next_record`]: a loop over an arbitrarily large
    /// file holds one payload buffer, not one Vec per record.
    pub fn next_record_into(&mut self, rec: &mut RawRecord) -> Result<bool> {
        if !self.read_line()? {
            return Ok(false);
        }
        let id = parse_header(&self.line)?;
        if let Some(prev) = self.prev_id {
            if id <= prev {
                return Err(IoError::Malformed(format!(
                    "sequence numbers not ascending: {id} after {prev}"
                )));
            }
        }
        self.prev_id = Some(id);
        rec.id = id;
        rec.line.clear();
        if self.inner.read_until(b'\n', &mut rec.line)? == 0 {
            return Err(IoError::Malformed(format!("record {id}: missing payload line")));
        }
        if rec.line.first() == Some(&b'>') {
            return Err(IoError::Malformed(format!("record {id}: empty payload")));
        }
        let keep = trim_eol(&rec.line).len();
        rec.line.truncate(keep);
        Ok(true)
    }

    /// Collect every remaining record.
    pub fn read_all(&mut self) -> Result<Vec<RawRecord>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn write_then_read_round_trip() {
        let mut buf = Vec::new();
        write_record(&mut buf, 1, b"ACGT").unwrap();
        write_record(&mut buf, 2, b"GGTT").unwrap();
        let mut rdr = RecordReader::new(Cursor::new(buf));
        assert_eq!(
            rdr.read_all().unwrap(),
            vec![
                RawRecord { id: 1, line: b"ACGT".to_vec() },
                RawRecord { id: 2, line: b"GGTT".to_vec() },
            ]
        );
    }

    #[test]
    fn parse_header_variants() {
        assert_eq!(parse_header(b">42\n").unwrap(), 42);
        assert_eq!(parse_header(b">1").unwrap(), 1);
        assert!(parse_header(b"ACGT").is_err());
        assert!(parse_header(b">read_7").is_err());
        assert!(parse_header(b">").is_err());
    }

    #[test]
    fn non_ascending_ids_rejected() {
        let data = b">2\nACGT\n>2\nGGGG\n".to_vec();
        let mut rdr = RecordReader::new(Cursor::new(data));
        assert!(rdr.next_record().unwrap().is_some());
        assert!(matches!(rdr.next_record(), Err(IoError::Malformed(_))));
    }

    #[test]
    fn truncated_record_rejected() {
        let data = b">1\nACGT\n>2\n".to_vec();
        let mut rdr = RecordReader::new(Cursor::new(data));
        assert!(rdr.next_record().unwrap().is_some());
        assert!(matches!(rdr.next_record(), Err(IoError::Malformed(_))));
    }

    #[test]
    fn empty_payload_rejected() {
        let data = b">1\n>2\nACGT\n".to_vec();
        let mut rdr = RecordReader::new(Cursor::new(data));
        assert!(matches!(rdr.next_record(), Err(IoError::Malformed(_))));
    }

    #[test]
    fn crlf_tolerated() {
        let data = b">1\r\nACGT\r\n".to_vec();
        let mut rdr = RecordReader::new(Cursor::new(data));
        let rec = rdr.next_record().unwrap().unwrap();
        assert_eq!(rec.id, 1);
        assert_eq!(rec.line, b"ACGT");
    }

    #[test]
    fn empty_file_is_empty() {
        let mut rdr = RecordReader::new(Cursor::new(Vec::new()));
        assert!(rdr.next_record().unwrap().is_none());
    }
}
