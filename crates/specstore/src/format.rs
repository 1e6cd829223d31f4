//! Shard header layout, config fingerprint, and the typed error set.
//!
//! A shard file is a fixed-size header followed by a raw little-endian
//! dump of the flat table's slot arrays:
//!
//! ```text
//! offset size field             notes
//!      0    8 magic             b"RPTLSPEC"
//!      8    4 version           FORMAT_VERSION
//!     12    4 kind              0 = kmer, 1 = tile
//!     16    4 k                 ┐
//!     20    4 tile_overlap      │
//!     24    4 canonical (0/1)   │ config fingerprint: a snapshot is
//!     28    4 kmer_threshold    │ only loadable under the exact build
//!     32    4 tile_threshold    ┘ configuration that produced it
//!     36    4 rank              producing rank
//!     40    4 np                producing rank count
//!     44    4 load_num          ┐ max load factor the slot geometry
//!     48    4 load_den          ┘ was built at
//!     52    4 sentinel_present  0/1: all-ones key side-field occupied
//!     56    4 sentinel_count    side-field count (0 when absent)
//!     60    8 hash_seed         probe-family fingerprint (HASH_SEED)
//!     68    8 capacity          slot count (0 or power of two ≥ 16)
//!     76    8 entries           occupied slots (sentinel excluded)
//!     84    8 body_bytes        capacity × 12 (kmer) or × 20 (tile)
//!     92    8 checksum          FNV-1a over header (this field zeroed)
//!                               then body, in file order
//!    100      body              one u64 array per key lane, then the
//!                               counts: kmer: keys[cap] u64,
//!                                     counts[cap] u32
//!                               tile: lo[cap] u64, hi[cap] u64,
//!                                     counts[cap] u32
//! ```
//!
//! The slot arrays are dumped verbatim, so a loaded shard is probe-ready
//! with no rehash — provided the loader's probe family matches, which is
//! what the `hash_seed` field enforces.

use std::fmt;
use std::path::PathBuf;

use reptile::{ReptileParams, SpectrumKey, HASH_SEED};

/// File magic: identifies a Reptile spectrum shard.
pub const MAGIC: [u8; 8] = *b"RPTLSPEC";
/// Current shard/manifest format version. v2 added Reed-Solomon parity
/// shards and their manifest records; shard bodies are unchanged.
pub const FORMAT_VERSION: u32 = 2;
/// Oldest format version this build still reads. v1 snapshots (no
/// parity) load under `RecoveryPolicy::Strict`.
pub const MIN_FORMAT_VERSION: u32 = 1;
/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 100;
/// Byte offset of the checksum field within the header.
pub const CHECKSUM_OFFSET: usize = 92;

/// Which key kind's flat table a shard holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardKind {
    /// `FlatKmerTable` dump: one `u64` key lane + `u32` counts,
    /// 12 bytes/slot.
    Kmer,
    /// `FlatTileTable` dump: two `u64` key lanes + `u32` counts,
    /// 20 bytes/slot.
    Tile,
}

impl ShardKind {
    /// The kind of the shards holding `K`-keyed tables: a shard's kind is
    /// its key width.
    pub fn of<K: SpectrumKey>() -> ShardKind {
        if K::LANES == 1 {
            ShardKind::Kmer
        } else {
            ShardKind::Tile
        }
    }

    /// Wire code stored in the header.
    pub fn code(self) -> u32 {
        match self {
            ShardKind::Kmer => 0,
            ShardKind::Tile => 1,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u32) -> Option<ShardKind> {
        match code {
            0 => Some(ShardKind::Kmer),
            1 => Some(ShardKind::Tile),
            _ => None,
        }
    }

    /// Bytes per slot in the body.
    pub fn slot_bytes(self) -> u64 {
        match self {
            ShardKind::Kmer => 12,
            ShardKind::Tile => 20,
        }
    }

    /// Short name used in manifest lines and file names.
    pub fn name(self) -> &'static str {
        match self {
            ShardKind::Kmer => "kmer",
            ShardKind::Tile => "tile",
        }
    }
}

impl fmt::Display for ShardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The build configuration a snapshot is bound to. Loading under any
/// other configuration is a typed error, never a silent wrong answer:
/// slot positions depend on the probe family (`hash_seed`), and entry
/// semantics depend on `k`/`tile_overlap`/`canonical`/thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigFingerprint {
    /// K-mer length.
    pub k: u32,
    /// Tile overlap.
    pub tile_overlap: u32,
    /// Strand canonicalization flag.
    pub canonical: bool,
    /// K-mer prune threshold the snapshot was built at.
    pub kmer_threshold: u32,
    /// Tile prune threshold the snapshot was built at.
    pub tile_threshold: u32,
    /// Probe-family fingerprint ([`reptile::HASH_SEED`]).
    pub hash_seed: u64,
}

impl ConfigFingerprint {
    /// Fingerprint for a parameter set under the current probe family.
    pub fn for_params(params: &ReptileParams) -> ConfigFingerprint {
        ConfigFingerprint {
            k: params.k as u32,
            tile_overlap: params.tile_overlap as u32,
            canonical: params.canonical,
            kmer_threshold: params.kmer_threshold,
            tile_threshold: params.tile_threshold,
            hash_seed: HASH_SEED,
        }
    }
}

/// Everything the fixed-size shard header records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// Format version of the file.
    pub version: u32,
    /// Table variant in the body.
    pub kind: ShardKind,
    /// Build configuration fingerprint.
    pub fingerprint: ConfigFingerprint,
    /// Producing rank.
    pub rank: u32,
    /// Producing rank count.
    pub np: u32,
    /// Max load factor numerator of the dumped geometry.
    pub load_num: u32,
    /// Max load factor denominator.
    pub load_den: u32,
    /// Side-field count for the all-ones sentinel key, if occupied.
    pub sentinel_count: Option<u32>,
    /// Slot count (0 or a power of two).
    pub capacity: u64,
    /// Occupied slots (sentinel excluded).
    pub entries: u64,
    /// Body length in bytes (`capacity × kind.slot_bytes()`).
    pub body_bytes: u64,
    /// FNV-1a over the checksum-zeroed header then the body.
    pub checksum: u64,
}

impl ShardHeader {
    /// Serialize to the fixed wire layout.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut buf = [0u8; HEADER_BYTES];
        buf[0..8].copy_from_slice(&MAGIC);
        let words32: [(usize, u32); 13] = [
            (8, self.version),
            (12, self.kind.code()),
            (16, self.fingerprint.k),
            (20, self.fingerprint.tile_overlap),
            (24, self.fingerprint.canonical as u32),
            (28, self.fingerprint.kmer_threshold),
            (32, self.fingerprint.tile_threshold),
            (36, self.rank),
            (40, self.np),
            (44, self.load_num),
            (48, self.load_den),
            (52, self.sentinel_count.is_some() as u32),
            (56, self.sentinel_count.unwrap_or(0)),
        ];
        for (off, v) in words32 {
            buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
        }
        let words64: [(usize, u64); 5] = [
            (60, self.fingerprint.hash_seed),
            (68, self.capacity),
            (76, self.entries),
            (84, self.body_bytes),
            (CHECKSUM_OFFSET, self.checksum),
        ];
        for (off, v) in words64 {
            buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Parse the wire layout. Only magic, version, and the kind code are
    /// validated here — everything else is the caller's job (fingerprint
    /// and geometry checks need context this function doesn't have).
    pub fn decode(
        buf: &[u8; HEADER_BYTES],
        path: &std::path::Path,
    ) -> Result<ShardHeader, SnapshotError> {
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        if buf[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic { path: path.to_path_buf() });
        }
        let version = u32_at(8);
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::VersionSkew {
                path: path.to_path_buf(),
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let kind = ShardKind::from_code(u32_at(12)).ok_or_else(|| SnapshotError::InvalidTable {
            path: path.to_path_buf(),
            reason: format!("unknown shard kind code {}", u32_at(12)),
        })?;
        Ok(ShardHeader {
            version,
            kind,
            fingerprint: ConfigFingerprint {
                k: u32_at(16),
                tile_overlap: u32_at(20),
                canonical: u32_at(24) != 0,
                kmer_threshold: u32_at(28),
                tile_threshold: u32_at(32),
                hash_seed: u64_at(60),
            },
            rank: u32_at(36),
            np: u32_at(40),
            load_num: u32_at(44),
            load_den: u32_at(48),
            sentinel_count: (u32_at(52) != 0).then(|| u32_at(56)),
            capacity: u64_at(68),
            entries: u64_at(76),
            body_bytes: u64_at(84),
            checksum: u64_at(CHECKSUM_OFFSET),
        })
    }

    /// Reject a fingerprint that differs from `expected`, naming the
    /// first differing field.
    pub fn check_fingerprint(
        &self,
        expected: &ConfigFingerprint,
        path: &std::path::Path,
    ) -> Result<(), SnapshotError> {
        let stored = &self.fingerprint;
        let fields: [(&'static str, u64, u64); 6] = [
            ("k", stored.k as u64, expected.k as u64),
            ("tile_overlap", stored.tile_overlap as u64, expected.tile_overlap as u64),
            ("canonical", stored.canonical as u64, expected.canonical as u64),
            ("kmer_threshold", stored.kmer_threshold as u64, expected.kmer_threshold as u64),
            ("tile_threshold", stored.tile_threshold as u64, expected.tile_threshold as u64),
            ("hash_seed", stored.hash_seed, expected.hash_seed),
        ];
        for (field, got, want) in fields {
            if got != want {
                return Err(SnapshotError::FingerprintMismatch {
                    path: path.to_path_buf(),
                    field,
                    stored: got,
                    expected: want,
                });
            }
        }
        Ok(())
    }
}

/// Every way a snapshot can fail to load or save. Corruption never
/// surfaces as garbage corrections — each class is a distinct variant so
/// callers (and tests) can tell truncation from bit-rot from a
/// configuration mismatch.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io {
        /// File being accessed.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// File shorter than its header claims (interrupted write, chopped
    /// transfer, or injected fault).
    Truncated {
        /// File being read.
        path: PathBuf,
        /// Bytes the header (or fixed layout) requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Leading bytes are not the shard magic — not a shard file.
    BadMagic {
        /// File being read.
        path: PathBuf,
    },
    /// Shard written by an incompatible format version.
    VersionSkew {
        /// File being read.
        path: PathBuf,
        /// Version in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// Stored checksum does not match the recomputed digest (bit-rot or
    /// torn write inside an otherwise well-formed file).
    Checksum {
        /// File being read.
        path: PathBuf,
        /// Digest recorded in the header.
        stored: u64,
        /// Digest recomputed over the file.
        computed: u64,
    },
    /// Snapshot built under a different configuration (wrong k, strand
    /// policy, thresholds, or probe family).
    FingerprintMismatch {
        /// File being read.
        path: PathBuf,
        /// First differing fingerprint field.
        field: &'static str,
        /// Value in the file.
        stored: u64,
        /// Value this run requires.
        expected: u64,
    },
    /// Header passed its checksum yet describes an impossible table
    /// (bad geometry, occupancy above the load bound, kind mismatch).
    InvalidTable {
        /// File being read.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// Manifest file malformed.
    Manifest {
        /// Manifest path.
        path: PathBuf,
        /// 1-based line number, 0 for file-level problems.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Manifest references a shard file that is absent.
    MissingShard {
        /// The missing shard's path.
        path: PathBuf,
    },
    /// A peer rank failed its snapshot I/O, so this rank aborted before
    /// entering the collective exchange (distributed load/save only).
    PeerFailure {
        /// Number of ranks that reported failure.
        failed_ranks: u64,
    },
    /// A `Repair` policy was requested but the manifest records no
    /// parity shards (v1 snapshot, or saved with `--parity 0`).
    NoParity {
        /// Snapshot directory.
        dir: PathBuf,
    },
    /// More shards of one group are lost than the repair budget covers
    /// (`min(manifest parity, policy max_lost)`).
    TooManyLost {
        /// Snapshot directory.
        dir: PathBuf,
        /// Table kind of the damaged group.
        kind: ShardKind,
        /// Unreadable shards in the group (data + parity).
        lost: usize,
        /// Shards the repair budget could have covered.
        budget: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => {
                write!(f, "snapshot I/O error on {}: {source}", path.display())
            }
            SnapshotError::Truncated { path, expected, actual } => write!(
                f,
                "snapshot file {} truncated: need {expected} bytes, found {actual}",
                path.display()
            ),
            SnapshotError::BadMagic { path } => {
                write!(f, "{} is not a spectrum shard (bad magic)", path.display())
            }
            SnapshotError::VersionSkew { path, found, expected } => write!(
                f,
                "{} uses format version {found}, this build reads version {expected}",
                path.display()
            ),
            SnapshotError::Checksum { path, stored, computed } => write!(
                f,
                "checksum mismatch in {}: stored {stored:#018x}, computed {computed:#018x}",
                path.display()
            ),
            SnapshotError::FingerprintMismatch { path, field, stored, expected } => write!(
                f,
                "{} was built under a different configuration: {field} is {stored}, \
                 this run requires {expected}",
                path.display()
            ),
            SnapshotError::InvalidTable { path, reason } => {
                write!(f, "{} describes an invalid table: {reason}", path.display())
            }
            SnapshotError::Manifest { path, line, reason } => {
                write!(f, "malformed manifest {} (line {line}): {reason}", path.display())
            }
            SnapshotError::MissingShard { path } => {
                write!(f, "manifest references missing shard {}", path.display())
            }
            SnapshotError::PeerFailure { failed_ranks } => {
                write!(f, "{failed_ranks} peer rank(s) failed snapshot I/O; aborted")
            }
            SnapshotError::NoParity { dir } => write!(
                f,
                "repair policy requested but snapshot {} has no parity shards",
                dir.display()
            ),
            SnapshotError::TooManyLost { dir, kind, lost, budget } => write!(
                f,
                "{} {kind} group: {lost} shard(s) unreadable, repair budget is {budget}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl SnapshotError {
    /// Wrap an OS error with the path it occurred on.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> SnapshotError {
        SnapshotError::Io { path: path.into(), source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn header() -> ShardHeader {
        ShardHeader {
            version: FORMAT_VERSION,
            kind: ShardKind::Tile,
            fingerprint: ConfigFingerprint {
                k: 12,
                tile_overlap: 6,
                canonical: true,
                kmer_threshold: 3,
                tile_threshold: 2,
                hash_seed: HASH_SEED,
            },
            rank: 3,
            np: 4,
            load_num: 3,
            load_den: 4,
            sentinel_count: Some(7),
            capacity: 64,
            entries: 40,
            body_bytes: 64 * 20,
            checksum: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn header_encode_decode_roundtrip() {
        let h = header();
        let decoded = ShardHeader::decode(&h.encode(), Path::new("x")).unwrap();
        assert_eq!(decoded, h);
        // absent sentinel round-trips too
        let h2 = ShardHeader { sentinel_count: None, ..h };
        assert_eq!(ShardHeader::decode(&h2.encode(), Path::new("x")).unwrap(), h2);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut buf = header().encode();
        buf[0] = b'X';
        assert!(matches!(
            ShardHeader::decode(&buf, Path::new("x")),
            Err(SnapshotError::BadMagic { .. })
        ));
        let mut buf = header().encode();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ShardHeader::decode(&buf, Path::new("x")),
            Err(SnapshotError::VersionSkew { found: 99, .. })
        ));
    }

    #[test]
    fn fingerprint_mismatch_names_the_field() {
        let h = header();
        let mut want = h.fingerprint;
        want.k = 13;
        let err = h.check_fingerprint(&want, Path::new("x")).unwrap_err();
        match err {
            SnapshotError::FingerprintMismatch { field, stored, expected, .. } => {
                assert_eq!(field, "k");
                assert_eq!((stored, expected), (12, 13));
            }
            other => panic!("wrong variant: {other}"),
        }
        let mut want = h.fingerprint;
        want.hash_seed ^= 1;
        assert!(matches!(
            h.check_fingerprint(&want, Path::new("x")),
            Err(SnapshotError::FingerprintMismatch { field: "hash_seed", .. })
        ));
        assert!(h.check_fingerprint(&h.fingerprint, Path::new("x")).is_ok());
    }
}
