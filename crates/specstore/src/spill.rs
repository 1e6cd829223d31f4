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
//!   drains — behind a checksummed fixed-size header: the crate's
//!   verified-file frame, with the zeroed header's FNV-1a xor the
//!   body's as its digest;
//! * [`write_run`] streams entries through the frame's bounded buffer
//!   (never materializing the encoded run), hashing as it goes and
//!   patching the header checksum at the end, exactly as shards are
//!   written;
//! * a [`RunReader`] *verifies before it serves*: `open` checks magic,
//!   version, key width, exact length, and the full-body checksum in one
//!   bounded streaming pass, then rewinds. A chopped or bit-flipped run
//!   is a typed [`SnapshotError`] before the merge adopts a single entry
//!   — corrupt spills can fail a build, never corrupt its counts;
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

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use reptile::SpectrumKey;

use crate::format::SnapshotError;
use crate::frame::{FrameWriter, RUN};

/// Run-file magic ("ReptiLe RUN v1" — distinct from the snapshot shard
/// magic so a run can never be mistaken for a shard).
pub const RUN_MAGIC: [u8; 8] = *b"RPTLRUN1";
/// Run format version.
pub const RUN_VERSION: u16 = 1;
/// Fixed header size: magic(8) + version(2) + key_bytes(1) + pad(5) +
/// entries(8) + checksum(8).
pub const RUN_HEADER_BYTES: usize = 32;
/// Byte offset of the checksum slot within the run header.
pub(crate) const RUN_CHECKSUM_OFFSET: usize = 24;
/// Smallest accepted staging buffer — one 16-byte key + count plus
/// header room, rounded well up so even adversarial configs stream.
/// Public because budget-driven callers scale per-reader merge buffers
/// down toward this floor when many runs must open at once.
pub const MIN_SPILL_BUF_BYTES: usize = 4 * 1024;

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

/// The 32-byte header of a run of `entries` keys of `key_bytes` each,
/// checksum slot zeroed.
fn run_header(key_bytes: u8, entries: u64) -> [u8; RUN_HEADER_BYTES] {
    let mut h = [0u8; RUN_HEADER_BYTES];
    h[0..8].copy_from_slice(&RUN_MAGIC);
    h[8..10].copy_from_slice(&RUN_VERSION.to_le_bytes());
    h[10] = key_bytes;
    // bytes 11..16 stay zero (reserved)
    h[16..24].copy_from_slice(&entries.to_le_bytes());
    // bytes 24..32: the checksum slot
    h
}

/// Validate a run header for key type `K` (magic, version, key width)
/// and return its entry count.
fn run_entries<K: SpectrumKey>(
    head: &[u8; RUN_HEADER_BYTES],
    path: &Path,
) -> Result<u64, SnapshotError> {
    // Four words: magic | version, key width, pad | entries | checksum.
    let words = head.as_chunks::<8>().0;
    let (magic, shape, entries) = (words[0], words[1], words[2]);
    if magic != RUN_MAGIC {
        return Err(SnapshotError::BadMagic { path: path.to_path_buf() });
    }
    let version = u16::from_le_bytes([shape[0], shape[1]]);
    if version != RUN_VERSION {
        return Err(SnapshotError::VersionSkew {
            path: path.to_path_buf(),
            found: version as u32,
            expected: RUN_VERSION as u32,
        });
    }
    if shape[2] as usize != K::BYTES {
        return Err(SnapshotError::KeyWidth {
            path: path.to_path_buf(),
            found: shape[2],
            expected: K::BYTES as u8,
        });
    }
    Ok(u64::from_le_bytes(entries))
}

/// Write `entries` (strictly ascending, as `CountAcc::finalize`
/// produces — violations panic rather than writing an unmergeable file)
/// to `path` as one run file, streamed through a buffer of `buf_cap`
/// bytes (clamped up to [`MIN_SPILL_BUF_BYTES`]).
pub fn write_run<K: SpectrumKey>(
    path: &Path,
    entries: &[(K, u32)],
    buf_cap: usize,
) -> Result<RunMeta, SnapshotError> {
    assert!(entries.is_sorted_by(|a, b| a.0 < b.0), "run entries must be strictly ascending");
    let head = run_header(K::BYTES as u8, entries.len() as u64);
    let mut out = FrameWriter::create(RUN, path, head, buf_cap.max(MIN_SPILL_BUF_BYTES))?;
    // Room for the widest entry: a 16-byte key and its count.
    let mut entry = [0u8; 16 + 4];
    let entry = &mut entry[..entry_bytes::<K>()];
    for &(key, count) in entries {
        key.write_le(entry);
        entry[K::BYTES..].copy_from_slice(&count.to_le_bytes());
        out.put(entry)?;
    }
    let (checksum, file_bytes) = out.finish()?;
    Ok(RunMeta { entries: entries.len() as u64, file_bytes, checksum })
}

/// Streaming reader of one run file. `open` fully verifies the file —
/// header fields, exact length, and the checksum via one bounded
/// streaming pass — before the first entry is served, so a merge over
/// open readers can never adopt corrupt counts.
#[derive(Debug)]
pub struct RunReader<K: SpectrumKey> {
    file: File,
    path: PathBuf,
    /// The bounded staging buffer; never longer than `cap`.
    buf: Vec<u8>,
    cap: usize,
    /// Consumed prefix of `buf`.
    pos: usize,
    entries: u64,
    served: u64,
    last: Option<K>,
}

impl<K: SpectrumKey> RunReader<K> {
    /// Open and verify `path` with a staging buffer of `buf_cap` bytes
    /// (clamped up to [`MIN_SPILL_BUF_BYTES`]). Every corruption mode is
    /// a typed error here, before any entry is visible.
    pub fn open(path: &Path, buf_cap: usize) -> Result<RunReader<K>, SnapshotError> {
        let cap = buf_cap.max(MIN_SPILL_BUF_BYTES);
        let mut buf = vec![0u8; cap];
        let mut entries = 0;
        let file = RUN.open(path, &mut buf, |head| {
            entries = run_entries::<K>(head, path)?;
            // A corrupted count can be astronomically large; saturating
            // math turns that into the same typed truncation a short
            // file gets.
            Ok(entries.saturating_mul(entry_bytes::<K>() as u64))
        })?;
        buf.clear();
        Ok(RunReader {
            file,
            path: path.to_path_buf(),
            buf,
            cap,
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
    pub fn next(&mut self) -> Result<Option<(K, u32)>, SnapshotError> {
        if self.served == self.entries {
            return Ok(None);
        }
        let need = entry_bytes::<K>();
        if self.buf.len() - self.pos < need {
            // Refill: keep the undecoded tail, then read up to capacity.
            self.buf.drain(..self.pos);
            self.pos = 0;
            let have = self.buf.len();
            let want_total = ((self.entries - self.served) as usize)
                .saturating_mul(need)
                .min(self.cap)
                .max(need);
            self.buf.resize(want_total, 0);
            self.file
                .read_exact(&mut self.buf[have..want_total])
                .map_err(|e| SnapshotError::io(&self.path, e))?;
        }
        let entry = &self.buf[self.pos..self.pos + need];
        let key = K::read_le(entry);
        let mut count = [0u8; 4];
        count.copy_from_slice(&entry[K::BYTES..]);
        self.pos += need;
        self.served += 1;
        if self.last.is_some_and(|prev| prev >= key) {
            return Err(SnapshotError::OutOfOrder {
                path: self.path.clone(),
                entry: self.served - 1,
            });
        }
        self.last = Some(key);
        Ok(Some((key, u32::from_le_bytes(count))))
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
    pub fn new(
        mut readers: Vec<RunReader<K>>,
        threshold: u32,
    ) -> Result<RunMerger<K>, SnapshotError> {
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
    fn pop_min(&mut self) -> Result<Option<(K, u32)>, SnapshotError> {
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
    fn next_raw(&mut self) -> Result<Option<(K, u32)>, SnapshotError> {
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
    pub fn next(&mut self) -> Result<Option<(K, u32)>, SnapshotError> {
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
    ) -> Result<Vec<(K, u32)>, SnapshotError> {
        let readers = names
            .iter()
            .map(|n| RunReader::open(&dir.join(n), crate::IO_CHUNK))
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
        write_run(&dir.join("w.run"), &wide, crate::IO_CHUNK).unwrap();
        let mut r: RunReader<u128> = RunReader::open(&dir.join("w.run"), crate::IO_CHUNK).unwrap();
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
        assert!(matches!(err, SnapshotError::KeyWidth { found: 8, expected: 16, .. }), "{err}");
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
            assert!(matches!(err, SnapshotError::Truncated { .. }), "keep={keep}: {err}");
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
