//! Distributed-memory Reptile — the IPDPSW'16 contribution.
//!
//! Instead of replicating the k-mer and tile spectra on every node (the
//! prior parallelizations), this crate *distributes* both spectra across
//! ranks by hash ownership and resolves missing counts with messages:
//!
//! * [`owner`] — owner-rank assignment for k-mers, tiles and reads;
//! * [`heuristics`] — the execution-mode matrix of §III-B (universal,
//!   read k-mers/tiles, allgather k-mers/tiles/both, add-remote-lookups,
//!   batch reads table) plus the static load-balancing switch of §III-A;
//! * [`spectrum`] — Steps II–III: per-rank `hashKmer`/`readsKmer`
//!   (`hashTile`/`readsTile`) tables, the alltoallv count exchange, the
//!   threshold prune, batch mode;
//! * [`balance`] — the static load-balancing shuffle (reads redistributed
//!   to `hash(seq) % np`);
//! * [`protocol`] — the correction-phase request/response wire format
//!   (sequence-stamped tagged messages, or the self-describing
//!   *universal* struct), designed for idempotent retries;
//! * [`engine`] — the unified entry point: [`Engine`] trait,
//!   validating [`EngineConfig`] builder, [`RunOutput`];
//! * `router` (crate-private) — Step IV's lookup rule, stated once: the
//!   routing order over a rank's tables, the sequence-stamped
//!   deadline/retry/degrade driver and the per-owner batched fetch, generic
//!   over a transport; both engines and the serve plane run it;
//! * [`engine_mt`] — Step IV on the threaded [`mpisim`] runtime: a worker
//!   thread correcting reads + a communication thread serving lookups,
//!   per rank; the router's wire transport, against the runtime's
//!   injected fault plan;
//! * [`engine_virtual`] — the same logical algorithm executed
//!   deterministically for thousands of logical ranks, with per-rank
//!   work/traffic counters mapped to modeled BG/Q seconds through
//!   [`mpisim::CostModel`] (this is what regenerates the paper's
//!   figures at 1024–32768 ranks); the router's modeled transport,
//!   replaying the same fault plans analytically;
//! * [`serve`] — the long-lived correction service: a persistent
//!   [`ServeEngine`] that loads the snapshot once and keeps the Step-IV
//!   service plane warm, fronted by a bounded admission queue with
//!   backpressure and adaptive micro-batching (DESIGN.md §13);
//! * [`snapshot`] — persistent sharded spectrum snapshots over
//!   [`specstore`]: save the pruned spectra after Step III, reload them
//!   in later runs (zero-copy at the same `np`, re-owned through the
//!   count exchange at a different `np`) so correction starts without
//!   rebuilding — build once, correct many;
//! * [`report`] — per-rank and aggregate run reports.
//!
//! The corrector itself is [`reptile`]'s — the router implements
//! [`reptile::SpectrumAccess`] for both engines, so sequential,
//! threaded-distributed and virtual-distributed runs produce
//! bit-identical corrected reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
mod counts;
pub mod engine;
pub mod engine_mt;
pub mod engine_virtual;
pub mod heuristics;
pub mod ooc;
pub mod owner;
pub mod prior_art;
pub mod protocol;
pub mod report;
mod router;
pub mod serve;
pub mod snapshot;
pub mod spectrum;

pub use engine::{
    engine_by_name, ConfigError, Engine, EngineConfig, EngineConfigBuilder, EngineError, RunOutput,
    ThreadedEngine, VirtualEngine,
};
pub use engine_mt::{
    default_build_threads, run_distributed, run_distributed_files, try_run_distributed,
    try_run_distributed_files,
};
pub use engine_virtual::{run_virtual, try_run_virtual};
pub use heuristics::HeuristicConfig;
pub use prior_art::{run_prior_art_virtual, PriorArtConfig};
pub use report::{LookupStats, RankReport, RunReport};
pub use serve::{ServeConfig, ServeEngine, ServeReport, ServeResponse, SubmitError};
pub use snapshot::{LoadedSpectra, SerialLoad};
pub use specstore::{RecoveryPolicy, RepairStats};

/// Test data the unit tests of several modules share.
#[cfg(test)]
mod test_data {
    use dnaseq::Read;
    use reptile::ReptileParams;

    /// The engines' unit-test parameters: short k-mers and tiles.
    pub(crate) fn params() -> ReptileParams {
        ReptileParams { k: 6, tile_overlap: 3, ..ReptileParams::for_tests() }
    }

    /// Parameters for the build's unit tests: shorter k-mers and tiles
    /// still.
    pub(crate) fn small_params() -> ReptileParams {
        ReptileParams { k: 5, tile_overlap: 2, ..ReptileParams::for_tests() }
    }

    /// `n` reads of `len` bases in groups of three copies of one random
    /// template, so every count passes the threshold (2) while different
    /// chunks still contribute different k-mers.
    pub(crate) fn template_reads(n: usize, len: usize) -> Vec<Read> {
        let mut reads = Vec::new();
        for i in 0..n {
            let seed = dnaseq::mix64((i / 3) as u64 + 1);
            let seq: Vec<u8> = (0..len)
                .map(|j| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(seed ^ (j as u64)) % 4) as usize])
                .collect();
            reads.push(Read::new(i as u64 + 1, seq, vec![30; len]));
        }
        reads
    }

    /// `n` reads over a 400-base genome of one short period, so its
    /// k-mers repeat.
    pub(crate) fn periodic_reads(n: usize) -> Vec<Read> {
        let genome: Vec<u8> =
            (0..400).map(|i| [b'A', b'C', b'G', b'T'][(i * 7 + i / 3) % 4]).collect();
        reads_over(&genome, n)
    }

    /// `n` reads over a 3 000-base genome of mixed bases, so its k-mers
    /// are position-specific.
    pub(crate) fn mixed_reads(n: usize) -> Vec<Read> {
        let genome: Vec<u8> = (0..3000)
            .map(|i| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(i as u64) % 4) as usize])
            .collect();
        reads_over(&genome, n)
    }

    /// `n` 40-base reads at a stride of 13 bases; every third carries
    /// one substitution at low quality.
    fn reads_over(genome: &[u8], n: usize) -> Vec<Read> {
        let mut reads = Vec::new();
        for i in 0..n {
            let start = (i * 13) % (genome.len() - 40);
            let mut seq = genome[start..start + 40].to_vec();
            let mut qual = vec![35u8; 40];
            if i % 3 == 0 {
                let pos = 5 + (i % 30);
                seq[pos] = match seq[pos] {
                    b'A' => b'C',
                    b'C' => b'G',
                    b'G' => b'T',
                    _ => b'A',
                };
                qual[pos] = 6;
            }
            reads.push(Read::new(i as u64 + 1, seq, qual));
        }
        reads
    }
}
