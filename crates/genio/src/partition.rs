//! Step I: offset-based parallel input partitioning.
//!
//! "Each rank computes its subset of the reads whose size is simply the
//! file size divided by the number of ranks. The subset of reads are
//! processed beginning with an offset from the start of the file. ...
//! Each rank starts reading the fasta file from this offset and records
//! the starting sequence number. It then looks up the same sequence
//! number in the quality score file as well" (paper §III step I).
//!
//! [`PartitionedReader`] implements exactly this: rank `r` of `np` owns
//! the records whose headers start in byte range
//! `[size·r/np, size·(r+1)/np)` of the FASTA file (resynchronized forward
//! to the next record boundary), and the quality file is positioned at the
//! matching sequence number by a proportional guess plus bounded
//! backward/forward scanning.

use crate::fasta::{parse_header, RawRecord, RecordReader};
use crate::qual::{parse_qual_line, RecordIter};
use crate::{IoError, Result};
use dnaseq::Read;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;

/// Byte range `[start, end)` of the file owned by `rank` out of `np`.
pub fn partition_range(file_size: u64, np: usize, rank: usize) -> (u64, u64) {
    assert!(rank < np, "rank {rank} out of range for np={np}");
    let np = np as u64;
    let r = rank as u64;
    (file_size * r / np, file_size * (r + 1) / np)
}

/// Find the first record header at or after `offset`.
///
/// Returns `(header_offset, sequence_number)` or `None` if no header
/// starts at or after `offset`.
pub fn next_header_at(path: &Path, offset: u64) -> Result<Option<(u64, u64)>> {
    let mut file = File::open(path)?;
    let size = file.metadata()?.len();
    if offset >= size {
        return Ok(None);
    }
    // Determine whether `offset` is a line start: it is if it's the file
    // start or the previous byte is a newline. Otherwise we landed mid-line
    // and must discard up to the next newline so we only ever treat line
    // *starts* as potential headers.
    let at_line_start = if offset == 0 {
        true
    } else {
        file.seek(SeekFrom::Start(offset - 1))?;
        let mut prev = [0u8; 1];
        use std::io::Read as _;
        file.read_exact(&mut prev)?;
        prev[0] == b'\n'
    };
    file.seek(SeekFrom::Start(offset))?;
    let mut reader = BufReader::new(file);
    let mut pos = offset;
    let mut line = Vec::with_capacity(512);
    if !at_line_start {
        let n = reader.read_until(b'\n', &mut line)? as u64;
        if n == 0 {
            return Ok(None);
        }
        pos += n;
    }
    loop {
        line.clear();
        let n = reader.read_until(b'\n', &mut line)? as u64;
        if n == 0 {
            return Ok(None);
        }
        if line.first() == Some(&b'>') {
            return Ok(Some((pos, parse_header(&line)?)));
        }
        pos += n;
    }
}

/// The per-rank slice of a (fasta, qual) dataset, per the paper's Step I.
///
/// Construction decides `[start_id, end_id)` from byte offsets in the
/// FASTA file and aligns the quality reader to `start_id`; reads are then
/// delivered in chunks (`chunk_size` reads at a time, as Reptile's config
/// prescribes).
pub struct PartitionedReader {
    fasta: RecordReader<BufReader<File>>,
    qual: RecordReader<BufReader<File>>,
    /// Reusable quality-record buffer: the decimal-text quality line is
    /// ~4 bytes per base and only lives until it is decoded into the
    /// `Read`'s Phred vector, so one buffer serves the whole stream.
    qrec: RawRecord,
    /// First sequence number owned by this rank.
    pub start_id: u64,
    /// One past the last sequence number owned by this rank (`u64::MAX`
    /// for the final rank).
    pub end_id: u64,
    exhausted: bool,
}

impl PartitionedReader {
    /// Open rank `rank`'s slice of the pair of files.
    pub fn open(
        fasta_path: &Path,
        qual_path: &Path,
        np: usize,
        rank: usize,
    ) -> Result<PartitionedReader> {
        let size = File::open(fasta_path)?.metadata()?.len();
        let (lo, hi) = partition_range(size, np, rank);
        let start = next_header_at(fasta_path, lo)?;
        let end = next_header_at(fasta_path, hi)?;
        let (start_offset, start_id) = match start {
            Some(s) => s,
            None => {
                // Rank owns a tail shorter than one record: empty slice.
                return PartitionedReader::empty(fasta_path, qual_path);
            }
        };
        let end_id = end.map(|(_, id)| id).unwrap_or(u64::MAX);
        if start_id >= end_id {
            return PartitionedReader::empty(fasta_path, qual_path);
        }
        let mut file = File::open(fasta_path)?;
        file.seek(SeekFrom::Start(start_offset))?;
        let fasta = RecordReader::new(BufReader::new(file));
        // Quality file: same sequence number, proportional offset guess.
        let qsize = File::open(qual_path)?.metadata()?.len();
        let hint = qsize * rank as u64 / np as u64;
        let qual = seek_to_id_scan(qual_path, start_id, hint)?;
        let qrec = RawRecord { id: 0, line: Vec::new() };
        Ok(PartitionedReader { fasta, qual, qrec, start_id, end_id, exhausted: false })
    }

    fn empty(fasta_path: &Path, qual_path: &Path) -> Result<PartitionedReader> {
        Ok(PartitionedReader {
            fasta: RecordReader::new(BufReader::new(File::open(fasta_path)?)),
            qual: RecordReader::new(BufReader::new(File::open(qual_path)?)),
            qrec: RawRecord { id: 0, line: Vec::new() },
            start_id: 0,
            end_id: 0,
            exhausted: true,
        })
    }

    /// Read up to `chunk_size` reads. Returns an empty vector once the
    /// rank's slice is exhausted.
    pub fn next_chunk(&mut self, chunk_size: usize) -> Result<Vec<Read>> {
        let mut out = Vec::with_capacity(chunk_size.min(1 << 14));
        while !self.exhausted && out.len() < chunk_size {
            let frec = match self.fasta.next_record()? {
                Some(r) => r,
                None => {
                    self.exhausted = true;
                    break;
                }
            };
            if frec.id >= self.end_id {
                self.exhausted = true;
                break;
            }
            if !self.qual.next_record_into(&mut self.qrec)? {
                return Err(IoError::Mismatch(format!(
                    "quality file ends before record {}",
                    frec.id
                )));
            }
            if self.qrec.id != frec.id {
                return Err(IoError::Mismatch(format!(
                    "sequence number skew: fasta {} vs qual {}",
                    frec.id, self.qrec.id
                )));
            }
            let quals = parse_qual_line(&self.qrec)?;
            if quals.len() != frec.line.len() {
                return Err(IoError::Mismatch(format!(
                    "record {}: {} bases but {} quality scores",
                    frec.id,
                    frec.line.len(),
                    quals.len()
                )));
            }
            out.push(Read::new(frec.id, frec.line, quals));
        }
        Ok(out)
    }

    /// Drain the remaining reads of this rank's slice.
    pub fn read_all(&mut self) -> Result<Vec<Read>> {
        let mut out = Vec::new();
        loop {
            let chunk = self.next_chunk(1 << 14)?;
            if chunk.is_empty() {
                return Ok(out);
            }
            out.extend(chunk);
        }
    }
}

/// Position a [`RecordReader`] at the record with id `target_id`,
/// starting from `hint_offset` and scanning (with exponential backward
/// steps if the hint overshoots).
pub fn seek_to_id_scan(
    path: &Path,
    target_id: u64,
    hint_offset: u64,
) -> Result<RecordReader<BufReader<File>>> {
    const BACKOFF_START: u64 = 1 << 16;
    let size = File::open(path)?.metadata()?.len();
    let mut offset = hint_offset.min(size);
    let mut backoff = BACKOFF_START;
    let start_offset = loop {
        match next_header_at(path, offset)? {
            Some((hdr, id)) if id <= target_id => break hdr,
            _ if offset == 0 => {
                return Err(IoError::Mismatch(format!(
                    "sequence number {target_id} not present in {}",
                    path.display()
                )))
            }
            _ => {
                offset = offset.saturating_sub(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
    };
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(start_offset))?;
    let mut reader = RecordReader::new(BufReader::new(file));
    // Consume records until the next one is the target.
    loop {
        // Peek by reading and checking; RecordIter keeps this simple.
        let mut iter = RecordIter(reader);
        match iter.next() {
            Some(Ok(rec)) if rec.id == target_id => {
                // We consumed the target — reopen at its header instead.
                // Cheaper: remember offsets. Simplest correct approach:
                // re-scan from start_offset tracking byte positions.
                drop(iter);
                return open_at_record(path, start_offset, target_id);
            }
            Some(Ok(rec)) if rec.id < target_id => {
                reader = iter.0;
                continue;
            }
            Some(Ok(rec)) => {
                return Err(IoError::Mismatch(format!(
                    "sequence number {target_id} absent (file skips to {}) in {}",
                    rec.id,
                    path.display()
                )))
            }
            Some(Err(e)) => return Err(e),
            None => {
                return Err(IoError::Mismatch(format!(
                    "sequence number {target_id} not present in {}",
                    path.display()
                )))
            }
        }
    }
}

/// Open a reader positioned at the header of record `target_id`, which is
/// known to lie at or after `from_offset`.
fn open_at_record(
    path: &Path,
    from_offset: u64,
    target_id: u64,
) -> Result<RecordReader<BufReader<File>>> {
    let mut offset = from_offset;
    loop {
        match next_header_at(path, offset)? {
            Some((hdr, id)) if id == target_id => {
                let mut file = File::open(path)?;
                file.seek(SeekFrom::Start(hdr))?;
                return Ok(RecordReader::new(BufReader::new(file)));
            }
            Some((hdr, _)) => {
                // Advance past this header to find the next one.
                offset = hdr + 1;
            }
            None => {
                return Err(IoError::Mismatch(format!(
                    "sequence number {target_id} not present in {}",
                    path.display()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qual::write_dataset;
    use dnaseq::Read;

    fn make_dataset(n: usize) -> (std::path::PathBuf, std::path::PathBuf, Vec<Read>) {
        let dir = std::env::temp_dir().join(format!("genio-part-{}-{}", std::process::id(), n));
        std::fs::create_dir_all(&dir).unwrap();
        let reads: Vec<Read> = (1..=n as u64)
            .map(|id| {
                let len = 20 + (id as usize % 7);
                let seq: Vec<u8> =
                    (0..len).map(|i| [b'A', b'C', b'G', b'T'][(id as usize + i) % 4]).collect();
                let qual: Vec<u8> = (0..len).map(|i| ((id as usize + i) % 40) as u8 + 2).collect();
                Read::new(id, seq, qual)
            })
            .collect();
        let fpath = dir.join("reads.fa");
        let qpath = dir.join("reads.qual");
        write_dataset(&fpath, &qpath, &reads).unwrap();
        (fpath, qpath, reads)
    }

    #[test]
    fn partition_range_covers_file_exactly() {
        for size in [0u64, 1, 999, 1 << 20] {
            for np in [1usize, 2, 7, 64] {
                let mut prev_end = 0;
                for rank in 0..np {
                    let (lo, hi) = partition_range(size, np, rank);
                    assert_eq!(lo, prev_end, "gap/overlap at rank {rank}");
                    assert!(hi >= lo);
                    prev_end = hi;
                }
                assert_eq!(prev_end, size);
            }
        }
    }

    #[test]
    fn ranks_cover_all_reads_exactly_once() {
        let (fpath, qpath, reads) = make_dataset(103);
        for np in [1usize, 2, 3, 8, 16, 50] {
            let mut seen: Vec<Read> = Vec::new();
            for rank in 0..np {
                let mut part = PartitionedReader::open(&fpath, &qpath, np, rank).unwrap();
                seen.extend(part.read_all().unwrap());
            }
            seen.sort_by_key(|r| r.id);
            assert_eq!(seen, reads, "np={np}");
        }
        std::fs::remove_dir_all(fpath.parent().unwrap()).unwrap();
    }

    #[test]
    fn reads_hold_their_qualities_at_exact_length() {
        let (fpath, qpath, _) = make_dataset(60);
        let mut part = PartitionedReader::open(&fpath, &qpath, 1, 0).unwrap();
        let reads = part.read_all().unwrap();
        assert_eq!(reads.len(), 60);
        for r in &reads {
            assert_eq!(r.qual.capacity(), r.qual.len(), "read {}", r.id);
        }
        std::fs::remove_dir_all(fpath.parent().unwrap()).unwrap();
    }

    #[test]
    fn more_ranks_than_reads_is_fine() {
        let (fpath, qpath, reads) = make_dataset(5);
        let np = 16;
        let mut seen: Vec<Read> = Vec::new();
        for rank in 0..np {
            let mut part = PartitionedReader::open(&fpath, &qpath, np, rank).unwrap();
            seen.extend(part.read_all().unwrap());
        }
        seen.sort_by_key(|r| r.id);
        assert_eq!(seen, reads);
        std::fs::remove_dir_all(fpath.parent().unwrap()).unwrap();
    }

    #[test]
    fn chunked_reading_matches_full_reading() {
        let (fpath, qpath, _) = make_dataset(50);
        let mut part = PartitionedReader::open(&fpath, &qpath, 2, 0).unwrap();
        let all = part.read_all().unwrap();
        let mut part2 = PartitionedReader::open(&fpath, &qpath, 2, 0).unwrap();
        let mut chunked = Vec::new();
        loop {
            let c = part2.next_chunk(7).unwrap();
            if c.is_empty() {
                break;
            }
            assert!(c.len() <= 7);
            chunked.extend(c);
        }
        assert_eq!(all, chunked);
        std::fs::remove_dir_all(fpath.parent().unwrap()).unwrap();
    }

    #[test]
    fn next_header_at_finds_boundaries() {
        let (fpath, _qpath, _) = make_dataset(10);
        let (off, id) = next_header_at(&fpath, 0).unwrap().unwrap();
        assert_eq!((off, id), (0, 1));
        // From offset 1 we must land on record 2, not record 1.
        let (_, id2) = next_header_at(&fpath, 1).unwrap().unwrap();
        assert_eq!(id2, 2);
        let size = std::fs::metadata(&fpath).unwrap().len();
        assert!(next_header_at(&fpath, size).unwrap().is_none());
        std::fs::remove_dir_all(fpath.parent().unwrap()).unwrap();
    }

    #[test]
    fn seek_to_id_scan_works_with_bad_hints() {
        let (fpath, _qpath, _) = make_dataset(40);
        let size = std::fs::metadata(&fpath).unwrap().len();
        for target in [1u64, 2, 20, 39, 40] {
            for hint in [0u64, size / 2, size, 3] {
                let mut rdr = seek_to_id_scan(&fpath, target, hint).unwrap();
                assert_eq!(rdr.next_record().unwrap().unwrap().id, target, "hint {hint}");
            }
        }
        assert!(seek_to_id_scan(&fpath, 41, 0).is_err());
        std::fs::remove_dir_all(fpath.parent().unwrap()).unwrap();
    }

    #[test]
    fn detects_skewed_quality_file() {
        let dir = std::env::temp_dir().join(format!("genio-skew-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fpath = dir.join("reads.fa");
        let qpath = dir.join("reads.qual");
        std::fs::write(&fpath, b">1\nACGT\n>2\nGGTT\n").unwrap();
        // quality file missing record 2, has record 3 instead
        std::fs::write(&qpath, b">1\n30 30 30 30\n>3\n30 30 30 30\n").unwrap();
        let mut part = PartitionedReader::open(&fpath, &qpath, 1, 0).unwrap();
        let err = part.read_all().unwrap_err();
        assert!(matches!(err, IoError::Mismatch(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
