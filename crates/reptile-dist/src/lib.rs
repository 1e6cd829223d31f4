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
pub mod output;
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
