//! The verified-file frame under every file this crate writes.
//!
//! A frame is a fixed-size header holding an 8-byte little-endian
//! checksum slot, then a body. Snapshot shards, spill runs and parity
//! shards are all frames; they differ only in header length, slot
//! position and digest rule, which each format fixes once as one of the
//! constants below. The frame owns the three things every format used to
//! repeat:
//!
//! * **writing** ([`FrameWriter`]) — the header goes out with its slot
//!   zeroed, the body streams through one buffer bounded at
//!   [`IO_CHUNK`] bytes and is hashed on the way, and the digest is
//!   patched into the slot with one seek;
//! * **reading** ([`Frame::check`] for an image in memory,
//!   [`Frame::open`] for a file streamed through a bounded buffer) — the
//!   exact length the header declares, then the digest, both checked
//!   before the caller adopts a slot or serves an entry;
//! * **the digest rules** ([`Digest`]) — written once, here.
//!
//! A parity shard is a frame with no header, so its digest is the plain
//! FNV-1a of its bytes and its checksum lives only in the manifest.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::checksum::{fnv1a, Fnv1a};
use crate::format::{SnapshotError, CHECKSUM_OFFSET, HEADER_BYTES};
use crate::spill::{RUN_CHECKSUM_OFFSET, RUN_HEADER_BYTES};

/// Bound on every streaming IO buffer in this crate: shard and parity
/// bodies are written and parity is encoded in blocks of at most this
/// many bytes, and it is the default spill-run buffer. Big enough to
/// amortize syscalls, small enough that a few in flight are noise next
/// to any realistic memory budget.
pub const IO_CHUNK: usize = 64 * 1024;

/// How a format folds its header and body into the stored checksum.
#[derive(Clone, Copy, Debug)]
enum Digest {
    /// FNV-1a over the header with its checksum slot zeroed, then the
    /// body, as one stream. Over a header-less frame this is the plain
    /// FNV-1a of the bytes.
    HeaderThenBody,
    /// FNV-1a of the zeroed header xor FNV-1a of the body: the two are
    /// hashed apart, so a single flipped byte in either still changes
    /// the result.
    HeaderXorBody,
}

/// One format's frame: a header of `H` bytes whose checksum slot (if
/// any) sits at `slot`, and the digest rule.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame<const H: usize> {
    slot: Option<usize>,
    digest: Digest,
}

/// Snapshot shards: the 100-byte [`crate::format`] header, then the slot
/// arrays.
pub(crate) const SHARD: Frame<HEADER_BYTES> =
    Frame { slot: Some(CHECKSUM_OFFSET), digest: Digest::HeaderThenBody };
/// Spill runs: the 32-byte [`crate::spill`] header, then the entries.
pub(crate) const RUN: Frame<RUN_HEADER_BYTES> =
    Frame { slot: Some(RUN_CHECKSUM_OFFSET), digest: Digest::HeaderXorBody };
/// Parity shards: no header, the Reed-Solomon stripe is the body.
pub(crate) const PARITY: Frame<0> = Frame { slot: None, digest: Digest::HeaderThenBody };

impl<const H: usize> Frame<H> {
    /// `head` with its checksum slot zeroed.
    fn zeroed(&self, head: &[u8; H]) -> [u8; H] {
        let mut z = *head;
        if let Some(at) = self.slot {
            z[at..at + 8].fill(0);
        }
        z
    }

    /// The checksum stored in `head`'s slot.
    fn stored(&self, head: &[u8; H]) -> Option<u64> {
        let at = self.slot?;
        let mut word = [0u8; 8];
        word.copy_from_slice(&head[at..at + 8]);
        Some(u64::from_le_bytes(word))
    }

    /// A fresh body hasher: seeded with the zeroed header when the rule
    /// chains the two.
    fn body_hasher(&self, head: &[u8; H]) -> Fnv1a {
        let mut hash = Fnv1a::new();
        if let Digest::HeaderThenBody = self.digest {
            hash.update(&self.zeroed(head));
        }
        hash
    }

    /// The digest of a frame whose body streamed through `body`, which
    /// [`Frame::body_hasher`] started.
    fn seal(&self, head: &[u8; H], body: &Fnv1a) -> u64 {
        match self.digest {
            Digest::HeaderThenBody => body.finish(),
            Digest::HeaderXorBody => fnv1a(&self.zeroed(head)) ^ body.finish(),
        }
    }

    /// Verify an image in memory: exactly `want_len` bytes, and a digest
    /// equal to both `want` and the checksum slot (if the format has
    /// one). `want` is the header's own slot when a shard is adopted,
    /// and the manifest's record when a survivor is classified or a
    /// rebuilt shard is checked. `path` only names errors.
    pub(crate) fn check(
        &self,
        image: &[u8],
        path: &Path,
        want_len: u64,
        want: u64,
    ) -> Result<(), SnapshotError> {
        exact_len(path, image.len() as u64, want_len)?;
        let Some((head, body)) = image.split_first_chunk::<H>() else {
            return Err(truncated(path, H as u64, image.len() as u64));
        };
        let mut hash = self.body_hasher(head);
        hash.update(body);
        agree(path, self.seal(head, &hash), [Some(want), self.stored(head)].into_iter().flatten())
    }

    /// Open `path` and verify it before anything is served: `body_len`
    /// checks the header and names the exact body length it declares,
    /// the file must be exactly that long, and the body streams through
    /// `buf` — at most its length at a time — hashed on the way, so the
    /// digest is compared with the header's slot in one bounded pass.
    /// Returns the file rewound to the body start.
    pub(crate) fn open(
        &self,
        path: &Path,
        buf: &mut [u8],
        body_len: impl FnOnce(&[u8; H]) -> Result<u64, SnapshotError>,
    ) -> Result<File, SnapshotError> {
        let io = |e| SnapshotError::io(path, e);
        let mut file = File::open(path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        if file_len < H as u64 {
            return Err(truncated(path, H as u64, file_len));
        }
        let mut head = [0u8; H];
        file.read_exact(&mut head).map_err(io)?;
        let body = body_len(&head)?;
        exact_len(path, file_len, body.saturating_add(H as u64))?;
        let mut hash = self.body_hasher(&head);
        let mut remaining = body;
        while remaining > 0 {
            let want = (buf.len() as u64).min(remaining) as usize;
            file.read_exact(&mut buf[..want]).map_err(io)?;
            hash.update(&buf[..want]);
            remaining -= want as u64;
        }
        agree(path, self.seal(&head, &hash), self.stored(&head))?;
        file.seek(SeekFrom::Start(H as u64)).map_err(io)?;
        Ok(file)
    }
}

/// Read a whole framed file. A missing file is the typed
/// `MissingShard`, not a bare I/O error.
pub(crate) fn read(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            SnapshotError::MissingShard { path: path.to_path_buf() }
        } else {
            SnapshotError::io(path, e)
        }
    })
}

/// A recomputed digest must equal every stored copy of it.
fn agree(
    path: &Path,
    computed: u64,
    stored: impl IntoIterator<Item = u64>,
) -> Result<(), SnapshotError> {
    match stored.into_iter().find(|&stored| stored != computed) {
        Some(stored) => Err(SnapshotError::Checksum { path: path.to_path_buf(), stored, computed }),
        None => Ok(()),
    }
}

fn truncated(path: &Path, expected: u64, actual: u64) -> SnapshotError {
    SnapshotError::Truncated { path: path.to_path_buf(), expected, actual }
}

/// A frame is exactly as long as its header says: shorter is a
/// truncation, longer is trailing garbage.
fn exact_len(path: &Path, actual: u64, want: u64) -> Result<(), SnapshotError> {
    if actual < want {
        return Err(truncated(path, want, actual));
    }
    if actual > want {
        return Err(SnapshotError::InvalidTable {
            path: path.to_path_buf(),
            reason: format!("{} trailing bytes after the declared body", actual - want),
        });
    }
    Ok(())
}

/// Streaming writer of one frame: the header (slot zeroed) at
/// `create`, the body through [`FrameWriter::put`], the checksum at
/// [`FrameWriter::finish`].
pub(crate) struct FrameWriter<const H: usize> {
    frame: Frame<H>,
    file: File,
    path: PathBuf,
    head: [u8; H],
    hash: Fnv1a,
    /// The one body buffer; it never holds more than `cap` bytes.
    buf: Vec<u8>,
    cap: usize,
    body_bytes: u64,
}

impl<const H: usize> FrameWriter<H> {
    /// Create `path` and write `head`, the file's final header, with its
    /// checksum slot zeroed. `cap` bounds the body buffer.
    pub(crate) fn create(
        frame: Frame<H>,
        path: &Path,
        head: [u8; H],
        cap: usize,
    ) -> Result<FrameWriter<H>, SnapshotError> {
        let head = frame.zeroed(&head);
        let mut file = File::create(path).map_err(|e| SnapshotError::io(path, e))?;
        file.write_all(&head).map_err(|e| SnapshotError::io(path, e))?;
        Ok(FrameWriter {
            frame,
            file,
            path: path.to_path_buf(),
            hash: frame.body_hasher(&head),
            head,
            buf: Vec::with_capacity(cap),
            cap,
            body_bytes: 0,
        })
    }

    /// Append body bytes. The buffer is hashed and written out whenever
    /// `bytes` would overfill it; a block as large as the buffer goes
    /// straight through.
    #[inline]
    pub(crate) fn put(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if self.buf.len() + bytes.len() > self.cap {
            self.flush()?;
        }
        if bytes.len() >= self.cap {
            self.write_body(bytes)
        } else {
            self.buf.extend_from_slice(bytes);
            Ok(())
        }
    }

    fn flush(&mut self) -> Result<(), SnapshotError> {
        let buf = std::mem::take(&mut self.buf);
        self.write_body(&buf)?;
        self.buf = buf;
        self.buf.clear();
        Ok(())
    }

    fn write_body(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.hash.update(bytes);
        self.file.write_all(bytes).map_err(|e| SnapshotError::io(&self.path, e))?;
        self.body_bytes += bytes.len() as u64;
        Ok(())
    }

    /// Flush the body, seal the digest, and patch it into the header's
    /// slot with one seek. Returns the checksum and the file's length.
    pub(crate) fn finish(mut self) -> Result<(u64, u64), SnapshotError> {
        self.flush()?;
        let checksum = self.frame.seal(&self.head, &self.hash);
        if let Some(at) = self.frame.slot {
            let io = |e| SnapshotError::io(&self.path, e);
            self.file.seek(SeekFrom::Start(at as u64)).map_err(io)?;
            self.file.write_all(&checksum.to_le_bytes()).map_err(io)?;
        }
        Ok((checksum, H as u64 + self.body_bytes))
    }
}
