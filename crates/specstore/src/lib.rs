//! `specstore`: a versioned, sharded on-disk snapshot format for pruned
//! Reptile spectrums.
//!
//! The k-mer/tile spectrum is the expensive, memory-dominant artifact of
//! the whole pipeline — the paper's Steps II–III exist to build it — yet
//! it depends only on the input read set and the build configuration,
//! not on the reads being corrected. This crate persists a built
//! spectrum so later runs skip construction entirely: build once,
//! correct many (the same shape as RECKONER serving corrections out of a
//! prebuilt KMC database).
//!
//! A snapshot directory holds one shard file per `(rank, table-kind)`
//! plus a [`Manifest`]. A shard is a verbatim little-endian dump of the
//! flat table's slot arrays behind a fixed-size checksummed header (see
//! [`format`](mod@format) for the byte layout), so loading at the same rank count is
//! zero-copy in the only sense that matters for a hash table: the slot
//! arrays are decoded once and adopted *probe-ready* — no rehash, no
//! re-insertion — via `FlatTable::from_parts`. One codec writes
//! and adopts both key kinds, k-mer and tile. Loading at a
//! different rank count re-owns entries through the caller's exchange
//! path (`reptile-dist` wires this up).
//!
//! Corruption is first-class: truncation, bad magic, version skew,
//! checksum mismatch, and config-fingerprint mismatch each surface as a
//! distinct [`SnapshotError`] variant, and the checksum is verified
//! before any table is adopted — a damaged snapshot can never produce
//! garbage corrections.
//!
//! Since format v2 a snapshot can also carry `m` Reed-Solomon parity
//! shards per table kind ([`rs`]), and corruption stops being fatal:
//! under [`RecoveryPolicy::Repair`] a [`SnapshotReader`] reconstructs
//! up to `m` lost/truncated/bit-rotted shards per group at load time,
//! re-verifies the rebuilt bytes against the manifest checksum, and can
//! heal the snapshot in place. All snapshot I/O goes through the
//! [`SnapshotWriter`] / [`SnapshotReader`] handles in [`store`]; the
//! per-file read/write functions are crate-internal.
//!
//! The out-of-core build's sorted spill runs ([`spill`]) live here too.
//! Shards, parity shards and runs are one kind of file to this crate: a
//! fixed header with a checksum slot, then a body, written through one
//! bounded streaming buffer of [`IO_CHUNK`] bytes, verified (exact
//! length, then the digest) before a slot is adopted or an entry served,
//! and failed as one [`SnapshotError`]. Each format's digest rule is
//! written once, as a constant of its format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod format;
pub(crate) mod frame;
pub mod manifest;
pub mod rs;
pub(crate) mod shard;
pub mod spill;
pub mod store;

pub use checksum::{fnv1a, Fnv1a};
pub use format::{
    ConfigFingerprint, ShardHeader, ShardKind, SnapshotError, FORMAT_VERSION, HEADER_BYTES, MAGIC,
    MIN_FORMAT_VERSION,
};
pub use frame::IO_CHUNK;
pub use manifest::{Manifest, ParityRecord, ShardRecord, MANIFEST_NAME};
pub use rs::{RsCode, RsError};
pub use shard::LoadedShard;
pub use spill::{write_run, RunMerger, RunMeta, RunReader};
pub use store::{RecoveryPolicy, RepairStats, SnapshotReader, SnapshotWriter};
