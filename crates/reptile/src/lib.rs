//! Sequential Reptile: spectrum-based substitution error correction.
//!
//! This crate is a clean-room reimplementation of the Reptile algorithm
//! (Yang, Dorman, Aluru, *Bioinformatics* 2010) that the IPDPSW'16 paper
//! parallelizes. It serves two roles in the reproduction:
//!
//! 1. the **baseline**: the distributed engine's output must match this
//!    corrector bit for bit on every dataset (integration-tested);
//! 2. the **shared core**: the per-read correction logic is written
//!    against the [`SpectrumAccess`] trait, so the distributed engine
//!    runs *the same corrector code* with lookups that may leave the
//!    rank — exactly the structure of the paper's step IV.
//!
//! Modules: [`params`] (thresholds and knobs), [`key`] (the two key
//! kinds), [`flat`] and [`spectrum`] (k-mer and tile spectra in hash
//! tables, as in the paper §II-B, one type over the key kind), [`corrector`]
//! (tile-by-tile correction with quality-restricted Hamming-neighbour
//! search), [`eval`] (accuracy metrics against known ground truth).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corrector;
pub mod eval;
pub mod flat;
pub mod key;
pub mod kmer_corrector;
pub mod params;
pub mod prefetch;
pub mod radix;
pub mod spectrum;

pub use corrector::{
    correct_dataset, correct_read, correct_read_with, CorrectionStats, ReadOutcome, SpectrumAccess,
    WalkScratch,
};
pub use eval::AccuracyReport;
pub use flat::{FlatKmerTable, FlatTable, FlatTileTable, TableParts, HASH_SEED};
pub use key::SpectrumKey;
pub use kmer_corrector::{correct_dataset_kmers_only, correct_read_kmers_only};
pub use params::ReptileParams;
pub use prefetch::{
    correct_in_waves, enumerate_read_keys, PrefetchKeys, WaveCache, WaveMode, WaveScratch,
    WaveSource, WaveStats,
};
pub use spectrum::{KmerSpectrum, LocalSpectra, Normalized, Spectrum, TileSpectrum};
