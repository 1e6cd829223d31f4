//! Shard file I/O: stream a flat table's slot arrays to disk and adopt
//! them back as a ready-to-probe mapped table — one write path and one
//! verify-and-adopt path for both key kinds, the shard kind and the body
//! order (key lanes, then counts) following from the key type.
//!
//! The write path never materializes an intermediate full-table copy:
//! slot arrays stream through one reused `IO_CHUNK`-byte buffer (hashed
//! as they go), and the checksum is patched into the header afterwards
//! with a single seek. The read path decodes the body bytes into typed
//! slot vectors exactly once, verifies the checksum *before* adopting
//! anything, and then hands the arrays to `from_mapped_parts`, which
//! re-validates the geometry — a corrupted-but-checksummed file cannot
//! smuggle in an impossible table.
//!
//! Everything here is crate-internal: callers go through
//! [`crate::store::SnapshotWriter`] / [`crate::store::SnapshotReader`],
//! which own the directory layout, manifest, and repair pipeline. The
//! adopt path takes bytes, not a file, so a Reed-Solomon-reconstructed
//! shard (which exists only in memory until an optional rewrite) adopts
//! through the same fully-verifying code as one read from disk.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

use reptile::{FlatTable, SpectrumKey};

use crate::checksum::Fnv1a;
use crate::format::{
    ConfigFingerprint, ShardHeader, ShardKind, SnapshotError, CHECKSUM_OFFSET, FORMAT_VERSION,
    HEADER_BYTES,
};
use crate::manifest::ShardRecord;

/// Reused streaming-buffer size. Slot arrays are written and read in
/// chunks of at most this many bytes; the save-path assertion that the
/// buffer never grew past it is the "no intermediate full-table copy"
/// guarantee.
pub const IO_CHUNK: usize = 64 * 1024;

/// Canonical shard file name for `(rank, kind)`.
pub(crate) fn shard_file_name(rank: usize, kind: ShardKind) -> String {
    format!("rank{rank:05}.{kind}.shard")
}

/// Canonical parity file name for `(kind, parity index)`.
pub(crate) fn parity_file_name(kind: ShardKind, index: usize) -> String {
    format!("{kind}.p{index:02}.parity")
}

/// Streaming shard body writer: fills the reused buffer with
/// little-endian words, hashing and flushing whenever it reaches
/// `IO_CHUNK`.
struct BodyWriter<'a> {
    out: &'a mut BufWriter<File>,
    hash: &'a mut Fnv1a,
    buf: Vec<u8>,
    path: &'a Path,
}

impl<'a> BodyWriter<'a> {
    fn new(out: &'a mut BufWriter<File>, hash: &'a mut Fnv1a, path: &'a Path) -> BodyWriter<'a> {
        BodyWriter { out, hash, buf: Vec::with_capacity(IO_CHUNK), path }
    }

    fn flush_buf(&mut self) -> Result<(), SnapshotError> {
        self.hash.update(&self.buf);
        self.out.write_all(&self.buf).map_err(|e| SnapshotError::io(self.path, e))?;
        self.buf.clear();
        Ok(())
    }

    /// Append little-endian words, flushing at every `IO_CHUNK`.
    fn put<const N: usize>(
        &mut self,
        words: impl Iterator<Item = [u8; N]>,
    ) -> Result<(), SnapshotError> {
        for w in words {
            self.buf.extend_from_slice(&w);
            if self.buf.len() >= IO_CHUNK {
                self.flush_buf()?;
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), SnapshotError> {
        self.flush_buf()?;
        // No per-shard Vec allocations: the streaming buffer is the only
        // body-sized scratch space, and it never outgrows one chunk
        // (plus the ≤8-byte spill of the word that crossed the mark).
        debug_assert!(
            self.buf.capacity() <= IO_CHUNK + 8,
            "shard write must stream, not copy the table"
        );
        Ok(())
    }
}

/// Dump `rank`'s table of key kind `K` as a shard at `path`: the
/// checksum-zeroed header, then the body streamed lane by lane and the
/// counts last, then the checksum patched into the header with a single
/// seek.
pub(crate) fn write_shard<K: SpectrumKey>(
    path: &Path,
    fingerprint: &ConfigFingerprint,
    rank: usize,
    np: usize,
    table: &FlatTable<K>,
) -> Result<ShardRecord, SnapshotError> {
    let parts = table.raw_parts();
    let kind = ShardKind::of::<K>();
    let capacity = parts.counts.len() as u64;
    let header = ShardHeader {
        version: FORMAT_VERSION,
        kind,
        fingerprint: *fingerprint,
        rank: rank as u32,
        np: np as u32,
        load_num: parts.load_num as u32,
        load_den: parts.load_den as u32,
        sentinel_count: parts.sentinel_count,
        capacity,
        entries: parts.entries as u64,
        body_bytes: capacity * kind.slot_bytes(),
        checksum: 0,
    };
    let io = |e| SnapshotError::io(path, e);
    let mut out = BufWriter::new(File::create(path).map_err(io)?);
    out.write_all(&header.encode()).map_err(io)?;
    let mut hash = Fnv1a::new();
    hash.update(&header.encode());
    {
        let mut w = BodyWriter::new(&mut out, &mut hash, path);
        for lane in parts.lanes.as_ref() {
            w.put(lane.iter().map(|k| k.to_le_bytes()))?;
        }
        w.put(parts.counts.iter().map(|c| c.to_le_bytes()))?;
        w.finish()?;
    }
    let checksum = hash.finish();
    out.seek(SeekFrom::Start(CHECKSUM_OFFSET as u64)).map_err(io)?;
    out.write_all(&checksum.to_le_bytes()).map_err(io)?;
    out.flush().map_err(io)?;
    Ok(ShardRecord {
        rank,
        kind,
        file_name: path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        bytes: HEADER_BYTES as u64 + header.body_bytes,
        checksum,
    })
}

/// Read a whole shard file. A missing file is the typed `MissingShard`,
/// not a bare I/O error.
pub(crate) fn read_shard_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            SnapshotError::MissingShard { path: path.to_path_buf() }
        } else {
            SnapshotError::io(path, e)
        }
    })
}

/// Little-endian words of `bytes`, decoded once into a shared slab.
fn decode_words<T, const N: usize>(bytes: &[u8], from_le: fn([u8; N]) -> T) -> Arc<[T]> {
    bytes.as_chunks::<N>().0.iter().map(|&w| from_le(w)).collect()
}

/// A verified, adopted shard.
pub struct LoadedShard<T> {
    /// The ready-to-probe table (mapped storage, no rehash performed).
    pub table: T,
    /// Rank that produced the shard.
    pub rank: usize,
    /// Rank count the snapshot was built at.
    pub np: usize,
    /// Total file bytes read (header + body).
    pub bytes_read: u64,
    /// The shard's checksum, which the reader also matches against the
    /// manifest's copy.
    pub checksum: u64,
}

/// Fully verify a shard image of key kind `K` — magic, version,
/// fingerprint, kind, declared sizes vs the actual length, and the
/// checksum — and only then adopt its slot arrays (lanes in order, then
/// the counts) as a mapped table, whose geometry `from_mapped_parts`
/// validates once more. `path` only names errors: the bytes may have come
/// from disk or from Reed-Solomon reconstruction, and both take this one
/// path.
pub(crate) fn adopt_shard<K: SpectrumKey>(
    bytes: &[u8],
    path: &Path,
    expect: &ConfigFingerprint,
) -> Result<LoadedShard<FlatTable<K>>, SnapshotError> {
    let invalid = |reason: String| SnapshotError::InvalidTable { path: path.to_path_buf(), reason };
    let file_len = bytes.len() as u64;
    let Some((head, body)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
        return Err(SnapshotError::Truncated {
            path: path.to_path_buf(),
            expected: HEADER_BYTES as u64,
            actual: file_len,
        });
    };
    let header = ShardHeader::decode(head, path)?;
    header.check_fingerprint(expect, path)?;
    let kind = ShardKind::of::<K>();
    if header.kind != kind {
        return Err(invalid(format!("expected a {kind} shard, found {}", header.kind)));
    }
    // checked: a corrupted capacity field can be astronomically large
    if Some(header.body_bytes) != header.capacity.checked_mul(kind.slot_bytes()) {
        return Err(invalid(format!(
            "body_bytes {} inconsistent with capacity {} ({} bytes/slot)",
            header.body_bytes,
            header.capacity,
            kind.slot_bytes()
        )));
    }
    let expected_len = (HEADER_BYTES as u64).saturating_add(header.body_bytes);
    if file_len < expected_len {
        return Err(SnapshotError::Truncated {
            path: path.to_path_buf(),
            expected: expected_len,
            actual: file_len,
        });
    }
    if file_len > expected_len {
        return Err(invalid(format!(
            "{} trailing bytes after the declared body",
            file_len - expected_len
        )));
    }
    // Hash the checksum-zeroed header, then the body.
    let mut hash = Fnv1a::new();
    let mut zeroed = *head;
    zeroed[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
    hash.update(&zeroed);
    hash.update(body);
    let computed = hash.finish();
    if computed != header.checksum {
        return Err(SnapshotError::Checksum {
            path: path.to_path_buf(),
            stored: header.checksum,
            computed,
        });
    }
    let lane_bytes = header.capacity as usize * 8;
    let (lanes, counts) = body.split_at(K::LANES * lane_bytes);
    let table = FlatTable::from_mapped_parts(
        K::lanes_from(|l| decode_words(&lanes[l * lane_bytes..][..lane_bytes], u64::from_le_bytes)),
        decode_words(counts, u32::from_le_bytes),
        header.sentinel_count,
        header.load_num as usize,
        header.load_den as usize,
    )
    .map_err(invalid)?;
    let slots = table.len() - header.sentinel_count.is_some() as usize;
    if slots as u64 != header.entries {
        return Err(invalid(format!(
            "header claims {} entries, slots hold {slots}",
            header.entries
        )));
    }
    Ok(LoadedShard {
        table,
        rank: header.rank as usize,
        np: header.np as usize,
        bytes_read: HEADER_BYTES as u64 + header.body_bytes,
        checksum: header.checksum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile::{FlatKmerTable, FlatTileTable, ReptileParams};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("specstore-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn chop(path: &Path, keep: u64) {
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(keep).unwrap();
    }

    fn fp() -> ConfigFingerprint {
        ConfigFingerprint::for_params(&ReptileParams::for_tests())
    }

    fn load<K: SpectrumKey>(
        path: &Path,
        expect: &ConfigFingerprint,
    ) -> Result<LoadedShard<FlatTable<K>>, SnapshotError> {
        adopt_shard(&read_shard_file(path)?, path, expect)
    }

    /// Keys spread across every lane of the kind, plus the sentinel.
    fn sample<K: SpectrumKey>() -> FlatTable<K> {
        let mut t = FlatTable::new();
        for key in 0..300u64 {
            let k = K::from_u128(((key as u128 * 7919) << 61) | (key as u128 * 7919));
            t.add_count(k, (key % 9 + 1) as u32);
        }
        t.add_count(K::SENTINEL, 5);
        t
    }

    fn shard_roundtrip_probes_identically<K: SpectrumKey>() {
        let dir = tmpdir(&format!("{}-rt", K::NAME));
        let path = dir.join(shard_file_name(2, ShardKind::of::<K>()));
        let t = sample::<K>();
        let rec = write_shard(&path, &fp(), 2, 4, &t).unwrap();
        assert_eq!((rec.rank, rec.kind), (2, ShardKind::of::<K>()));
        assert_eq!(rec.bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(rec.bytes, HEADER_BYTES as u64 + t.capacity() as u64 * (K::BYTES as u64 + 4));
        let loaded = load::<K>(&path, &fp()).unwrap();
        assert_eq!((loaded.rank, loaded.np), (2, 4));
        assert_eq!(loaded.bytes_read, rec.bytes);
        assert!(loaded.table.is_mapped());
        assert_eq!(loaded.table.len(), t.len());
        for (key, count) in t.iter() {
            assert_eq!(loaded.table.get(key), Some(count));
        }
        assert_eq!(loaded.table.get(K::SENTINEL), Some(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_roundtrip_probes_identically_both_kinds() {
        shard_roundtrip_probes_identically::<u64>();
        shard_roundtrip_probes_identically::<u128>();
    }

    #[test]
    fn body_is_key_lanes_then_counts() {
        // The on-disk body order: every key lane in order (lo before hi),
        // then the counts — the v1/v2 layout, unchanged.
        let dir = tmpdir("layout");
        let path = dir.join("l.tile.shard");
        let mut t = FlatTileTable::new();
        t.add_count((7u128 << 64) | 9, 3);
        write_shard(&path, &fp(), 0, 1, &t).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let body = &bytes[HEADER_BYTES..];
        let cap = t.capacity();
        let p = t.raw_parts();
        let slot = (0..cap).find(|&i| p.counts[i] == 3).unwrap();
        let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        assert_eq!((word(slot * 8), word(cap * 8 + slot * 8)), (9, 7));
        assert_eq!(body[cap * 16 + slot * 4], 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_table_shard_roundtrips() {
        let dir = tmpdir("empty");
        let path = dir.join("empty.kmer.shard");
        write_shard(&path, &fp(), 0, 1, &FlatKmerTable::new()).unwrap();
        let loaded = load::<u64>(&path, &fp()).unwrap();
        assert!(loaded.table.is_empty());
        assert_eq!(loaded.table.get(42), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_typed() {
        let dir = tmpdir("trunc");
        let path = dir.join("t.kmer.shard");
        write_shard(&path, &fp(), 0, 1, &sample::<u64>()).unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        chop(&path, full - 10);
        assert!(matches!(load::<u64>(&path, &fp()), Err(SnapshotError::Truncated { .. })));
        // chopped inside the header too
        chop(&path, 20);
        assert!(matches!(load::<u64>(&path, &fp()), Err(SnapshotError::Truncated { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn body_corruption_is_a_checksum_error() {
        let dir = tmpdir("corrupt");
        let path = dir.join("c.kmer.shard");
        write_shard(&path, &fp(), 0, 1, &sample::<u64>()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_BYTES + (bytes.len() - HEADER_BYTES) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load::<u64>(&path, &fp()), Err(SnapshotError::Checksum { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_config_is_a_fingerprint_error() {
        let dir = tmpdir("fp");
        let path = dir.join("f.tile.shard");
        write_shard(&path, &fp(), 0, 1, &sample::<u128>()).unwrap();
        let mut other = fp();
        other.k += 1;
        assert!(matches!(
            load::<u128>(&path, &other),
            Err(SnapshotError::FingerprintMismatch { field: "k", .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let dir = tmpdir("kind");
        let path = dir.join("k.shard");
        write_shard(&path, &fp(), 0, 1, &sample::<u64>()).unwrap();
        assert!(matches!(load::<u128>(&path, &fp()), Err(SnapshotError::InvalidTable { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_typed() {
        let path = std::env::temp_dir().join("specstore-no-such-dir/none.kmer.shard");
        assert!(matches!(load::<u64>(&path, &fp()), Err(SnapshotError::MissingShard { .. })));
    }
}
