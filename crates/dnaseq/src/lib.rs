//! DNA sequence primitives shared by every crate in the workspace.
//!
//! This crate provides the low-level machinery Reptile is built on:
//!
//! * [`base`] — the 2-bit nucleotide alphabet (`A=0, C=1, G=2, T=3`) with
//!   complement and ASCII conversions;
//! * [`kmer`] — packed k-mer codes (`u64`, k ≤ 32) with rolling extraction
//!   over reads, reverse complement and canonicalization;
//! * [`tile`] — packed tile codes (`u128`, up to 64 bases). A *tile* is the
//!   concatenation of two k-mers with a fixed overlap, the unit Reptile
//!   corrects (IPDPSW'16 §II-A);
//! * [`neighbors`] — Hamming-distance neighbour enumeration restricted to a
//!   set of candidate (low-quality) positions, the heart of the candidate
//!   search during correction;
//! * [`quality`] — Phred quality scores and their file encodings;
//! * [`read`] — sequencing reads (sequence + per-base quality + numeric id);
//! * [`hashing`] — the deterministic 64-bit mixer used both for hash tables
//!   and for owner-rank assignment (`hash(x) % np`, paper §III step II).

// `deny`, not `forbid`: the [`simd`] module opts back in locally for the
// SSE2/AVX2 intrinsics and cache-prefetch hints, with documented safety
// invariants. Everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod fused;
pub mod hashing;
pub mod kmer;
pub mod neighbors;
pub mod quality;
pub mod read;
pub mod simd;
pub mod tile;

pub use base::Base;
pub use fused::{FusedItem, FusedScan, FusedScratch};
pub use hashing::{mix128, mix128_parts, mix64, owner_of, FxBuildHasher, FxHashMap, FxHashSet};
pub use kmer::{KmerCode, KmerCodec};
pub use neighbors::{neighbors_at_positions, NucCode};
pub use quality::{Phred, QualityEncoding};
pub use read::Read;
pub use tile::{TileCode, TileCodec};
