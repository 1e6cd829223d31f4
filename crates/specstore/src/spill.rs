//! Sorted spill-run files and the k-way merger behind the out-of-core
//! spectrum build.
//!
//! RECKONER-style external-memory counting splits construction into two
//! IO-friendly phases: *spill* pre-aggregated sorted runs to disk when
//! the in-memory accumulator trips a budget, then *merge* the runs back
//! in one streaming pass. This module is the disk half of that story:
//!
//! * a **run file** is one strictly-ascending RLE sequence of
//!   `(key, count)` pairs — exactly the shape `CountAcc::finalize`
//!   drains — behind a checksummed fixed-size header;
//! * a [`RunWriter`] streams entries through a bounded [`SpillBuffer`]
//!   (never materializing the encoded run), hashing as it goes and
//!   patching the header checksum on `finish`, mirroring the snapshot
//!   shard writer;
//! * a [`RunReader`] *verifies before it serves*: `open` checks magic,
//!   version, key width, exact length, and the full-body FNV-1a
//!   checksum in one bounded streaming pass, then rewinds. A chopped or
//!   bit-flipped run is a typed [`SpillError`] before the merge adopts a
//!   single entry — corrupt spills can fail a build, never corrupt its
//!   counts;
//! * a [`RunMerger`] runs a loser-tree k-way merge over open readers,
//!   folding equal keys with the same saturating add the tables use and
//!   pruning below-threshold keys *during* the merge, so the survivor
//!   stream can feed `flat` bulk loads directly.
//!
//! Saturating addition of non-negative counts is associative and
//! commutative (`min(min(a,M)+min(b,M), M) == min(a+b, M)` for
//! `a,b ≤ M`), so per-run saturated counts merged here equal the counts
//! the all-in-memory accumulator would have produced — the keystone of
//! the out-of-core build's bit-identity guarantee.

use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use reptile::SpectrumKey;

use crate::checksum::Fnv1a;

/// Run-file magic ("ReptiLe RUN v1" — distinct from the snapshot shard
/// magic so a run can never be mistaken for a shard).
pub const RUN_MAGIC: [u8; 8] = *b"RPTLRUN1";
/// Run format version.
pub const RUN_VERSION: u16 = 1;
/// Fixed header size: magic(8) + version(2) + key_bytes(1) + pad(5) +
/// entries(8) + checksum(8).
pub const RUN_HEADER_BYTES: usize = 32;
/// Default bounded staging-buffer size for run IO. Matches the snapshot
/// layer's `IO_CHUNK`: big enough to amortize syscalls, small enough
/// that two in-flight buffers are noise next to any realistic memory
/// budget.
pub const DEFAULT_SPILL_BUF_BYTES: usize = 64 * 1024;
/// Smallest accepted staging buffer — one 16-byte key + count plus
/// header room, rounded well up so even adversarial configs stream.
/// Public because budget-driven callers scale per-reader merge buffers
/// down toward this floor when many runs must open at once.
pub const MIN_SPILL_BUF_BYTES: usize = 4 * 1024;

/// Typed failures of the spill plane. Mirrors the snapshot layer's
/// `SnapshotError` taxonomy: IO is separated from format violations so
/// callers (and the fault matrix) can assert *which* way a corrupt run
/// failed — and that it failed before any count was adopted.
#[derive(Debug)]
pub enum SpillError {
    /// Underlying filesystem error.
    Io {
        /// The run file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The file does not start with [`RUN_MAGIC`] — not a run file.
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// Run format version this build does not speak.
    VersionSkew {
        /// The offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u16,
    },
    /// Header key width disagrees with the reader's key type.
    KeyWidth {
        /// The offending file.
        path: PathBuf,
        /// Width recorded in the header.
        found: u8,
        /// Width the reader expects.
        expected: u8,
    },
    /// File length disagrees with the header's entry count — an
    /// interrupted write or a `chop=` injection.
    Truncated {
        /// The offending file.
        path: PathBuf,
        /// Bytes the header promises.
        expected_bytes: u64,
        /// Bytes actually on disk.
        actual_bytes: u64,
    },
    /// Stored checksum disagrees with the recomputed one — bit rot or a
    /// flipped byte.
    Checksum {
        /// The offending file.
        path: PathBuf,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum recomputed over the bytes on disk.
        actual: u64,
    },
    /// Body keys are not strictly ascending — a writer bug or a
    /// checksum collision; either way the run cannot be merged.
    OutOfOrder {
        /// The offending file.
        path: PathBuf,
        /// Zero-based index of the offending entry.
        entry: u64,
    },
    /// This participant's spill plane is healthy, but peers' are not —
    /// a distributed build aborts all ranks together (the failing ranks
    /// carry the real error; everyone else carries this sentinel).
    PeerFailure {
        /// How many peers reported a spill failure.
        failed_ranks: u64,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io { path, source } => {
                write!(f, "spill io error on {}: {source}", path.display())
            }
            SpillError::BadMagic { path } => {
                write!(f, "{} is not a spill run (bad magic)", path.display())
            }
            SpillError::VersionSkew { path, found } => {
                write!(
                    f,
                    "{} is run format v{found}, this build speaks v{RUN_VERSION}",
                    path.display()
                )
            }
            SpillError::KeyWidth { path, found, expected } => {
                write!(
                    f,
                    "{} holds {found}-byte keys, reader expects {expected}-byte keys",
                    path.display()
                )
            }
            SpillError::Truncated { path, expected_bytes, actual_bytes } => {
                write!(
                    f,
                    "{} truncated: header promises {expected_bytes} bytes, file has {actual_bytes}",
                    path.display()
                )
            }
            SpillError::Checksum { path, expected, actual } => {
                write!(
                    f,
                    "{} checksum mismatch: header {expected:#018x}, recomputed {actual:#018x}",
                    path.display()
                )
            }
            SpillError::OutOfOrder { path, entry } => {
                write!(f, "{} keys not strictly ascending at entry {entry}", path.display())
            }
            SpillError::PeerFailure { failed_ranks } => {
                write!(f, "{failed_ranks} peer rank(s) failed in their spill plane")
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Wrap an IO error with the path it struck.
fn io_err(path: &Path, source: std::io::Error) -> SpillError {
    SpillError::Io { path: path.to_path_buf(), source }
}

/// A bounded byte staging buffer: the only transient memory the spill
/// plane owns. Writers encode entries into it and flush when full;
/// readers refill it from disk. Its capacity is fixed at construction,
/// so `capacity_bytes` is an exact accounting input for the build's
/// memory budget.
#[derive(Debug)]
pub struct SpillBuffer {
    data: Vec<u8>,
    cap: usize,
}

impl SpillBuffer {
    /// Buffer bounded at `cap` bytes (clamped up to a streamable
    /// minimum).
    pub fn new(cap: usize) -> SpillBuffer {
        let cap = cap.max(MIN_SPILL_BUF_BYTES);
        SpillBuffer { data: Vec::with_capacity(cap), cap }
    }

    /// The fixed bound — what a budget should charge for this buffer.
    pub fn capacity_bytes(&self) -> usize {
        self.cap
    }
}

/// Summary of a finished run file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Distinct keys in the run.
    pub entries: u64,
    /// Total file size (header + body).
    pub file_bytes: u64,
    /// Header checksum (header-with-zeroed-field FNV xor body FNV).
    pub checksum: u64,
}

/// Encoded size of one `(key, count)` entry for key type `K`.
fn entry_bytes<K: SpectrumKey>() -> usize {
    K::BYTES + 4
}

/// Compose the stored checksum from the two streamed digests. FNV-1a is
/// strictly sequential, but the header is only final *after* the body
/// has streamed, so the header and body are hashed separately and
/// xor-combined; a single flipped byte in either region still changes
/// the composite.
fn compose_checksum(header_zeroed: &[u8], body_fnv: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.update(header_zeroed);
    h.finish() ^ body_fnv
}

/// Render the 32-byte header with the checksum field zeroed.
fn header_bytes_zeroed(key_bytes: u8, entries: u64) -> [u8; RUN_HEADER_BYTES] {
    let mut h = [0u8; RUN_HEADER_BYTES];
    h[0..8].copy_from_slice(&RUN_MAGIC);
    h[8..10].copy_from_slice(&RUN_VERSION.to_le_bytes());
    h[10] = key_bytes;
    // bytes 11..16 stay zero (reserved)
    h[16..24].copy_from_slice(&entries.to_le_bytes());
    // bytes 24..32: checksum, zeroed here
    h
}

/// Streaming writer of one sorted run. Entries must arrive strictly
/// ascending (the producer is `CountAcc::finalize`, which guarantees
/// it); violations panic rather than writing an unmergeable file.
#[derive(Debug)]
pub struct RunWriter<K: SpectrumKey> {
    file: File,
    path: PathBuf,
    buf: SpillBuffer,
    body_hash: Fnv1a,
    entries: u64,
    bytes_written: u64,
    last: Option<K>,
}

impl<K: SpectrumKey> RunWriter<K> {
    /// Create `path` and write the placeholder header. `buf_cap` bounds
    /// the staging buffer.
    pub fn create(path: &Path, buf_cap: usize) -> Result<RunWriter<K>, SpillError> {
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        // Placeholder header; entry count and checksum are patched by
        // `finish` once they are known.
        let header = header_bytes_zeroed(K::BYTES as u8, 0);
        file.write_all(&header).map_err(|e| io_err(path, e))?;
        Ok(RunWriter {
            file,
            path: path.to_path_buf(),
            buf: SpillBuffer::new(buf_cap),
            body_hash: Fnv1a::new(),
            entries: 0,
            bytes_written: 0,
            last: None,
        })
    }

    /// Append one `(key, count)` entry; keys must strictly ascend.
    pub fn push(&mut self, key: K, count: u32) -> Result<(), SpillError> {
        assert!(self.last.is_none_or(|prev| prev < key), "run entries must be strictly ascending");
        self.last = Some(key);
        if self.buf.data.len() + entry_bytes::<K>() > self.buf.cap {
            self.flush()?;
        }
        let at = self.buf.data.len();
        self.buf.data.resize(at + entry_bytes::<K>(), 0);
        key.write_le(&mut self.buf.data[at..]);
        self.buf.data[at + K::BYTES..at + K::BYTES + 4].copy_from_slice(&count.to_le_bytes());
        self.entries += 1;
        Ok(())
    }

    /// Flush the staging buffer, hashing the bytes on the way out.
    fn flush(&mut self) -> Result<(), SpillError> {
        if self.buf.data.is_empty() {
            return Ok(());
        }
        self.body_hash.update(&self.buf.data);
        self.file.write_all(&self.buf.data).map_err(|e| io_err(&self.path, e))?;
        self.bytes_written += self.buf.data.len() as u64;
        self.buf.data.clear();
        Ok(())
    }

    /// Flush the tail, patch the real header (entry count + composite
    /// checksum), and return the run's metadata.
    pub fn finish(mut self) -> Result<RunMeta, SpillError> {
        self.flush()?;
        let mut header = header_bytes_zeroed(K::BYTES as u8, self.entries);
        let checksum = compose_checksum(&header, self.body_hash.finish());
        header[24..32].copy_from_slice(&checksum.to_le_bytes());
        self.file.seek(SeekFrom::Start(0)).map_err(|e| io_err(&self.path, e))?;
        self.file.write_all(&header).map_err(|e| io_err(&self.path, e))?;
        self.file.flush().map_err(|e| io_err(&self.path, e))?;
        Ok(RunMeta {
            entries: self.entries,
            file_bytes: RUN_HEADER_BYTES as u64 + self.bytes_written,
            checksum,
        })
    }
}

/// Write `entries` (strictly ascending, as `CountAcc::finalize`
/// produces) to `path` as one run file.
pub fn write_run<K: SpectrumKey>(
    path: &Path,
    entries: &[(K, u32)],
    buf_cap: usize,
) -> Result<RunMeta, SpillError> {
    let mut w = RunWriter::create(path, buf_cap)?;
    for &(k, c) in entries {
        w.push(k, c)?;
    }
    w.finish()
}

/// Streaming reader of one run file. `open` fully verifies the file —
/// header fields, exact length, and the composite checksum via one
/// bounded streaming pass — before the first entry is served, so a
/// merge over open readers can never adopt corrupt counts.
#[derive(Debug)]
pub struct RunReader<K: SpectrumKey> {
    file: File,
    path: PathBuf,
    buf: SpillBuffer,
    /// Consumed prefix of `buf.data`.
    pos: usize,
    entries: u64,
    served: u64,
    last: Option<K>,
}

impl<K: SpectrumKey> RunReader<K> {
    /// Open and verify `path`. Every corruption mode is a typed error
    /// here, before any entry is visible.
    pub fn open(path: &Path, buf_cap: usize) -> Result<RunReader<K>, SpillError> {
        let mut file = File::open(path).map_err(|e| io_err(path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, e))?.len();
        let mut header = [0u8; RUN_HEADER_BYTES];
        if file_len < RUN_HEADER_BYTES as u64 {
            return Err(SpillError::Truncated {
                path: path.to_path_buf(),
                expected_bytes: RUN_HEADER_BYTES as u64,
                actual_bytes: file_len,
            });
        }
        file.read_exact(&mut header).map_err(|e| io_err(path, e))?;
        if header[0..8] != RUN_MAGIC {
            return Err(SpillError::BadMagic { path: path.to_path_buf() });
        }
        let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
        if version != RUN_VERSION {
            return Err(SpillError::VersionSkew { path: path.to_path_buf(), found: version });
        }
        let key_bytes = header[10];
        if key_bytes as usize != K::BYTES {
            return Err(SpillError::KeyWidth {
                path: path.to_path_buf(),
                found: key_bytes,
                expected: K::BYTES as u8,
            });
        }
        let entries = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let stored = u64::from_le_bytes(header[24..32].try_into().unwrap());
        // A corrupted count can be astronomically large; checked math
        // turns that into the same typed truncation a short file gets.
        let expected_len = entries
            .checked_mul(entry_bytes::<K>() as u64)
            .and_then(|b| b.checked_add(RUN_HEADER_BYTES as u64))
            .unwrap_or(u64::MAX);
        if file_len != expected_len {
            return Err(SpillError::Truncated {
                path: path.to_path_buf(),
                expected_bytes: expected_len,
                actual_bytes: file_len,
            });
        }
        let body_bytes = expected_len - RUN_HEADER_BYTES as u64;
        // Full-body verification pass through the bounded buffer, then
        // rewind to the body start for streaming decode.
        let mut buf = SpillBuffer::new(buf_cap);
        buf.data.resize(buf.cap, 0);
        let mut body_hash = Fnv1a::new();
        let mut remaining = body_bytes;
        while remaining > 0 {
            let want = (buf.cap as u64).min(remaining) as usize;
            file.read_exact(&mut buf.data[..want]).map_err(|e| io_err(path, e))?;
            body_hash.update(&buf.data[..want]);
            remaining -= want as u64;
        }
        let mut zeroed = header;
        zeroed[24..32].fill(0);
        let actual = compose_checksum(&zeroed, body_hash.finish());
        if actual != stored {
            return Err(SpillError::Checksum {
                path: path.to_path_buf(),
                expected: stored,
                actual,
            });
        }
        file.seek(SeekFrom::Start(RUN_HEADER_BYTES as u64)).map_err(|e| io_err(path, e))?;
        buf.data.clear();
        Ok(RunReader {
            file,
            path: path.to_path_buf(),
            buf,
            pos: 0,
            entries,
            served: 0,
            last: None,
        })
    }

    /// Distinct keys in the run.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Next `(key, count)` pair, `Ok(None)` at the end. Deliberately
    /// not `Iterator`: every pull can fail typed, and `Result<Option>`
    /// keeps `?` at the call sites instead of `Option<Result>` unwraps.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(K, u32)>, SpillError> {
        if self.served == self.entries {
            return Ok(None);
        }
        let need = entry_bytes::<K>();
        if self.buf.data.len() - self.pos < need {
            // Refill: keep the undecoded tail, then read up to capacity.
            self.buf.data.drain(..self.pos);
            self.pos = 0;
            let have = self.buf.data.len();
            let want_total = ((self.entries - self.served) as usize)
                .saturating_mul(need)
                .min(self.buf.cap)
                .max(need);
            self.buf.data.resize(want_total, 0);
            self.file
                .read_exact(&mut self.buf.data[have..want_total])
                .map_err(|e| io_err(&self.path, e))?;
        }
        let at = self.pos;
        let key = K::read_le(&self.buf.data[at..]);
        let count = u32::from_le_bytes(self.buf.data[at + K::BYTES..at + need].try_into().unwrap());
        self.pos += need;
        self.served += 1;
        if self.last.is_some_and(|prev| prev >= key) {
            return Err(SpillError::OutOfOrder { path: self.path.clone(), entry: self.served - 1 });
        }
        self.last = Some(key);
        Ok(Some((key, count)))
    }
}

/// Loser-tree k-way merge over open [`RunReader`]s with streaming
/// saturating-count folding of equal keys and prune-on-merge: only keys
/// whose folded count reaches `threshold` are emitted. The output is a
/// strictly-ascending survivor stream — exactly what `flat` bulk loads
/// want.
///
/// The loser tree keeps each non-winner comparison cached: replacing
/// the winner's leaf replays one root path (`⌈log2 k⌉` comparisons)
/// instead of re-scanning all k heads, the textbook structure for
/// external merge sort.
pub struct RunMerger<K: SpectrumKey> {
    readers: Vec<RunReader<K>>,
    /// Current head entry per run; `None` = exhausted.
    heads: Vec<Option<(K, u32)>>,
    /// `tree[0]` is the overall winner leaf; `tree[1..k]` hold the
    /// losers of each internal match. `usize::MAX` marks an unplayed
    /// slot during construction.
    tree: Vec<usize>,
    threshold: u32,
    /// Keys folded (pre-prune) — diagnostics for the build report.
    pub keys_merged: u64,
    /// Keys emitted (post-prune).
    pub keys_emitted: u64,
}

impl<K: SpectrumKey> RunMerger<K> {
    /// Build the tree over `readers` (already open, hence already
    /// verified); `threshold` is the Step-III prune bound applied
    /// during the merge.
    pub fn new(mut readers: Vec<RunReader<K>>, threshold: u32) -> Result<RunMerger<K>, SpillError> {
        let k = readers.len();
        let mut heads = Vec::with_capacity(k);
        for r in readers.iter_mut() {
            heads.push(r.next()?);
        }
        let mut m = RunMerger {
            readers,
            heads,
            tree: vec![usize::MAX; k.max(1)],
            threshold,
            keys_merged: 0,
            keys_emitted: 0,
        };
        for leaf in 0..k {
            m.seed(leaf);
        }
        Ok(m)
    }

    /// True when leaf `a`'s head orders before leaf `b`'s (exhausted
    /// runs order last; ties break on leaf index for determinism).
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some((ka, _)), Some((kb, _))) => (ka, a) < (kb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Initial placement of `leaf`: climb toward the root, parking at
    /// the first unplayed slot, playing (and swapping with) occupants
    /// on the way. After all k leaves seed, the k−1 internal slots hold
    /// the losers and `tree[0]` the winner.
    fn seed(&mut self, leaf: usize) {
        let k = self.heads.len();
        let mut winner = leaf;
        let mut node = (leaf + k) / 2;
        loop {
            if node == 0 {
                self.tree[0] = winner;
                return;
            }
            if self.tree[node] == usize::MAX {
                self.tree[node] = winner;
                return;
            }
            if self.beats(self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
    }

    /// Replace the winner's head (after consuming it) and replay its
    /// root path.
    fn replay(&mut self, leaf: usize) {
        let k = self.heads.len();
        let mut winner = leaf;
        let mut node = (leaf + k) / 2;
        while node > 0 {
            if self.beats(self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Pop the globally smallest head, advancing its reader.
    fn pop_min(&mut self) -> Result<Option<(K, u32)>, SpillError> {
        if self.heads.is_empty() {
            return Ok(None);
        }
        let w = self.tree[0];
        let Some(entry) = self.heads[w] else {
            return Ok(None);
        };
        self.heads[w] = self.readers[w].next()?;
        self.replay(w);
        Ok(Some(entry))
    }

    /// Next merged `(key, count)` *before* pruning: equal keys across
    /// runs folded with a saturating add.
    fn next_raw(&mut self) -> Result<Option<(K, u32)>, SpillError> {
        let Some((key, mut count)) = self.pop_min()? else {
            return Ok(None);
        };
        while self.heads.get(self.tree[0]).and_then(|h| *h).is_some_and(|(k2, _)| k2 == key) {
            let (_, c2) = self.pop_min()?.expect("peeked head exists");
            count = count.saturating_add(c2);
        }
        self.keys_merged += 1;
        Ok(Some((key, count)))
    }

    /// Next surviving `(key, count)` pair — folded, then pruned at the
    /// threshold — or `Ok(None)` when every run is drained. Same
    /// fallible-pull shape as [`RunReader::next`], same reason it is
    /// not `Iterator`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(K, u32)>, SpillError> {
        while let Some((key, count)) = self.next_raw()? {
            if count >= self.threshold {
                self.keys_emitted += 1;
                return Ok(Some((key, count)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("specstore-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn merge_all<K: SpectrumKey>(
        dir: &Path,
        names: &[&str],
        threshold: u32,
    ) -> Result<Vec<(K, u32)>, SpillError> {
        let readers = names
            .iter()
            .map(|n| RunReader::open(&dir.join(n), DEFAULT_SPILL_BUF_BYTES))
            .collect::<Result<Vec<_>, _>>()?;
        let mut m = RunMerger::new(readers, threshold)?;
        let mut out = Vec::new();
        while let Some(e) = m.next()? {
            out.push(e);
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_both_key_widths() {
        let dir = tmpdir("roundtrip");
        // enough entries to cross several staging-buffer refills
        let entries: Vec<(u64, u32)> = (0..5000u64).map(|i| (i * 3, (i % 7 + 1) as u32)).collect();
        let meta = write_run(&dir.join("a.run"), &entries, MIN_SPILL_BUF_BYTES).unwrap();
        assert_eq!(meta.entries, 5000);
        assert_eq!(meta.file_bytes, RUN_HEADER_BYTES as u64 + 5000 * 12);
        let mut r: RunReader<u64> =
            RunReader::open(&dir.join("a.run"), MIN_SPILL_BUF_BYTES).unwrap();
        let mut got = Vec::new();
        while let Some(e) = r.next().unwrap() {
            got.push(e);
        }
        assert_eq!(got, entries);

        let wide: Vec<(u128, u32)> =
            (0..300u128).map(|i| (i << 70 | i, (i % 5 + 1) as u32)).collect();
        write_run(&dir.join("w.run"), &wide, DEFAULT_SPILL_BUF_BYTES).unwrap();
        let mut r: RunReader<u128> =
            RunReader::open(&dir.join("w.run"), DEFAULT_SPILL_BUF_BYTES).unwrap();
        let mut got = Vec::new();
        while let Some(e) = r.next().unwrap() {
            got.push(e);
        }
        assert_eq!(got, wide);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_width_mismatch_is_typed() {
        let dir = tmpdir("width");
        write_run::<u64>(&dir.join("a.run"), &[(1, 1)], MIN_SPILL_BUF_BYTES).unwrap();
        let err = RunReader::<u128>::open(&dir.join("a.run"), MIN_SPILL_BUF_BYTES).unwrap_err();
        assert!(matches!(err, SpillError::KeyWidth { found: 8, expected: 16, .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_folds_duplicates_saturates_and_prunes_exactly() {
        let dir = tmpdir("merge");
        // Key 10 appears in all three runs (2+1+1 = 4 ≥ 3 survives);
        // key 20 in two runs (1+1 < 3 pruned); key 30 folds to exactly
        // the threshold (2+1 = 3 survives — the boundary case); key 40
        // saturates at the cap instead of wrapping.
        write_run::<u64>(
            &dir.join("r0.run"),
            &[(10, 2), (20, 1), (30, 2), (40, u32::MAX - 1)],
            MIN_SPILL_BUF_BYTES,
        )
        .unwrap();
        write_run::<u64>(&dir.join("r1.run"), &[(10, 1), (20, 1), (40, 5)], MIN_SPILL_BUF_BYTES)
            .unwrap();
        write_run::<u64>(&dir.join("r2.run"), &[(10, 1), (30, 1), (50, 3)], MIN_SPILL_BUF_BYTES)
            .unwrap();
        let got = merge_all::<u64>(&dir, &["r0.run", "r1.run", "r2.run"], 3).unwrap();
        assert_eq!(got, vec![(10, 4), (30, 3), (40, u32::MAX), (50, 3)]);
        // threshold 1 keeps everything, folded
        let all = merge_all::<u64>(&dir, &["r0.run", "r1.run", "r2.run"], 1).unwrap();
        assert_eq!(all, vec![(10, 4), (20, 2), (30, 3), (40, u32::MAX), (50, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_handles_empty_runs_and_single_run() {
        let dir = tmpdir("empty");
        write_run::<u64>(&dir.join("e.run"), &[], MIN_SPILL_BUF_BYTES).unwrap();
        write_run::<u64>(&dir.join("a.run"), &[(5, 2), (6, 1)], MIN_SPILL_BUF_BYTES).unwrap();
        assert_eq!(merge_all::<u64>(&dir, &["e.run"], 1).unwrap(), vec![]);
        assert_eq!(merge_all::<u64>(&dir, &["e.run", "a.run"], 2).unwrap(), vec![(5, 2)]);
        assert_eq!(merge_all::<u64>(&dir, &["a.run"], 1).unwrap(), vec![(5, 2), (6, 1)]);
        // zero runs: an empty merger is legal and immediately dry
        let mut m = RunMerger::<u64>::new(Vec::new(), 1).unwrap();
        assert!(m.next().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_deterministic_across_many_runs() {
        // 9 runs with heavy cross-run overlap: folded output must equal
        // a reference two-pointer fold of the concatenated entries.
        let dir = tmpdir("many");
        let mut reference = std::collections::BTreeMap::<u64, u32>::new();
        let mut names = Vec::new();
        for r in 0..9u64 {
            let entries: Vec<(u64, u32)> = (0..200u64)
                .filter(|i| (i + r) % 3 != 0)
                .map(|i| (i * 2, ((i + r) % 4 + 1) as u32))
                .collect();
            for &(k, c) in &entries {
                let e = reference.entry(k).or_insert(0);
                *e = e.saturating_add(c);
            }
            let name = format!("m{r}.run");
            write_run(&dir.join(&name), &entries, MIN_SPILL_BUF_BYTES).unwrap();
            names.push(name);
        }
        let names: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let got = merge_all::<u64>(&dir, &names, 4).unwrap();
        let want: Vec<(u64, u32)> = reference.into_iter().filter(|&(_, c)| c >= 4).collect();
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chop_is_typed_truncation() {
        let dir = tmpdir("chop");
        let entries: Vec<(u64, u32)> = (0..100u64).map(|i| (i, 1)).collect();
        let meta = write_run(&dir.join("a.run"), &entries, MIN_SPILL_BUF_BYTES).unwrap();
        for keep in
            [0u64, RUN_HEADER_BYTES as u64 / 2, RUN_HEADER_BYTES as u64, meta.file_bytes - 1]
        {
            let path = dir.join(format!("chop{keep}.run"));
            std::fs::copy(dir.join("a.run"), &path).unwrap();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(keep).unwrap();
            let err = RunReader::<u64>::open(&path, MIN_SPILL_BUF_BYTES).unwrap_err();
            assert!(matches!(err, SpillError::Truncated { .. }), "keep={keep}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = tmpdir("flip");
        let entries: Vec<(u64, u32)> = (0..40u64).map(|i| (i * 7, (i % 3 + 1) as u32)).collect();
        write_run(&dir.join("a.run"), &entries, MIN_SPILL_BUF_BYTES).unwrap();
        let clean = std::fs::read(dir.join("a.run")).unwrap();
        for at in 0..clean.len() {
            // every byte is covered: magic/version/width/pad/count via
            // the header checksum or their own typed checks, body via
            // the body checksum
            let mut bad = clean.clone();
            bad[at] ^= 0x40;
            let path = dir.join("bad.run");
            std::fs::write(&path, &bad).unwrap();
            let err = RunReader::<u64>::open(&path, MIN_SPILL_BUF_BYTES);
            assert!(err.is_err(), "flip at byte {at} accepted");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
