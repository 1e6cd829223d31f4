//! Shard file I/O: stream a flat table's slot arrays to disk and adopt
//! them back as a ready-to-probe table — one write path and one
//! verify-and-adopt path for both key kinds, the shard kind and the body
//! order (key lanes, then counts) following from the key type.
//!
//! Both paths run through the shard [`frame`](crate::frame): the write
//! path never materializes an intermediate full-table copy (slot arrays
//! stream through the frame's bounded buffer, hashed as they go, and the
//! checksum is patched into the header afterwards with a single seek);
//! the read path checks the length the header declares and the checksum
//! *before* adopting anything, decodes the body bytes into typed slot
//! vectors exactly once, and moves the arrays into `FlatTable::from_parts`,
//! which re-validates the geometry — a corrupted-but-checksummed file
//! cannot smuggle in an impossible table.
//!
//! Everything here is crate-internal: callers go through
//! [`crate::store::SnapshotWriter`] / [`crate::store::SnapshotReader`],
//! which own the directory layout, manifest, and repair pipeline. A
//! Reed-Solomon-reconstructed shard (which exists only in memory until an
//! optional rewrite) adopts through the same fully-verifying call as one
//! read from disk.

use std::path::Path;

use reptile::{FlatTable, SpectrumKey, MAX_LOAD};

use crate::format::{
    ConfigFingerprint, ShardHeader, ShardKind, SnapshotError, FORMAT_VERSION, HEADER_BYTES,
};
use crate::frame::{self, FrameWriter, IO_CHUNK, SHARD};
use crate::manifest::ShardRecord;

/// Canonical shard file name for `(rank, kind)`.
pub(crate) fn shard_file_name(rank: usize, kind: ShardKind) -> String {
    format!("rank{rank:05}.{kind}.shard")
}

/// Canonical parity file name for `(kind, parity index)`.
pub(crate) fn parity_file_name(kind: ShardKind, index: usize) -> String {
    format!("{kind}.p{index:02}.parity")
}

/// Dump `rank`'s table of key kind `K` as a shard at `path`: the header,
/// then the body streamed lane by lane and the counts last.
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
        load_num: MAX_LOAD.0 as u32,
        load_den: MAX_LOAD.1 as u32,
        sentinel_count: parts.sentinel_count,
        capacity,
        entries: parts.entries as u64,
        body_bytes: capacity * kind.slot_bytes(),
        checksum: 0,
    };
    let mut out = FrameWriter::create(SHARD, path, header.encode(), IO_CHUNK)?;
    for lane in parts.lanes.as_ref() {
        for key in lane.iter() {
            out.put(&key.to_le_bytes())?;
        }
    }
    for count in parts.counts.iter() {
        out.put(&count.to_le_bytes())?;
    }
    let (checksum, bytes) = out.finish()?;
    Ok(ShardRecord {
        rank,
        kind,
        file_name: path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        bytes,
        checksum,
    })
}

/// Little-endian words of `bytes`, decoded once.
fn decode_words<T, const N: usize>(bytes: &[u8], from_le: fn([u8; N]) -> T) -> Vec<T> {
    bytes.as_chunks::<N>().0.iter().map(|&w| from_le(w)).collect()
}

/// A verified, adopted shard.
pub struct LoadedShard<T> {
    /// The ready-to-probe table (adopted slot arrays, no rehash).
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

/// Fully verify a shard of key kind `K` — magic, version, fingerprint,
/// kind, declared sizes vs the actual length, and the checksum — and only
/// then adopt its slot arrays (lanes in order, then the counts) as a
/// table, whose geometry `FlatTable::from_parts` validates once more.
/// The image is `rebuilt` when Reed-Solomon reconstructed it, and the
/// file at `path` otherwise; `path` names errors either way.
pub(crate) fn adopt_shard<K: SpectrumKey>(
    path: &Path,
    rebuilt: Option<&[u8]>,
    expect: &ConfigFingerprint,
) -> Result<LoadedShard<FlatTable<K>>, SnapshotError> {
    let read;
    let image = match rebuilt {
        Some(image) => image,
        None => {
            read = frame::read(path)?;
            &read
        }
    };
    let invalid = |reason: String| SnapshotError::InvalidTable { path: path.to_path_buf(), reason };
    let Some((head, body)) = image.split_first_chunk::<HEADER_BYTES>() else {
        return Err(SnapshotError::Truncated {
            path: path.to_path_buf(),
            expected: HEADER_BYTES as u64,
            actual: image.len() as u64,
        });
    };
    let header = ShardHeader::decode(head, path)?;
    header.check_fingerprint(expect, path)?;
    let kind = ShardKind::of::<K>();
    if header.kind != kind {
        return Err(invalid(format!("expected a {kind} shard, found {}", header.kind)));
    }
    let load = (header.load_num as usize, header.load_den as usize);
    if load != MAX_LOAD {
        return Err(invalid(format!(
            "max load {}/{} is not the tables' {}/{}",
            load.0, load.1, MAX_LOAD.0, MAX_LOAD.1
        )));
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
    let file_bytes = (HEADER_BYTES as u64).saturating_add(header.body_bytes);
    SHARD.check(image, path, file_bytes, header.checksum)?;
    let lane_bytes = header.capacity as usize * 8;
    let (lanes, counts) = body.split_at(K::LANES * lane_bytes);
    let table = FlatTable::from_parts(
        K::lanes_from(|l| decode_words(&lanes[l * lane_bytes..][..lane_bytes], u64::from_le_bytes)),
        decode_words(counts, u32::from_le_bytes),
        header.sentinel_count,
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
        bytes_read: file_bytes,
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
        adopt_shard(path, None, expect)
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
        assert_eq!(loaded.table.len(), t.len());
        assert_eq!(loaded.table.capacity(), t.capacity());
        let (got, want) = (loaded.table.raw_parts(), t.raw_parts());
        assert_eq!((got.lanes.as_ref(), got.counts), (want.lanes.as_ref(), want.counts));
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
