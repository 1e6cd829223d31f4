//! The unified engine entry point.
//!
//! Both execution engines — the threaded one that really runs ranks as
//! OS threads over `mpisim`, and the virtual one that models thousands
//! of ranks analytically — correct reads the same way and answer with
//! the same shape of result. This module gives them one front door:
//!
//! * [`EngineConfig`] — a single validated configuration covering both
//!   engines (the virtual engine simply ignores nothing: every field is
//!   meaningful to at least one engine, and the cost-model fields are
//!   carried by the threaded engine's reports too);
//! * [`EngineConfig::validate`] — the one check of a run's
//!   configuration, corrector parameters included; the builder and
//!   every engine call it, so invalid combinations come back as a typed
//!   [`ConfigError`] instead of a panic deep inside a rank thread;
//! * [`Engine`] — the object-safe trait, and the only way to start a
//!   batch run ([`ThreadedEngine`], [`VirtualEngine`],
//!   [`engine_by_name`]);
//! * [`RunOutput`] — corrected reads plus the merged [`RunReport`],
//!   identical across engines.

use crate::heuristics::HeuristicConfig;
use crate::report::RunReport;
use dnaseq::Read;
use mpisim::{CostModel, FaultPlan, Topology};
use reptile::ReptileParams;
use specstore::RecoveryPolicy;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Configuration for a correction run, shared by every engine.
///
/// Construct via [`EngineConfig::new`] (threaded-engine defaults),
/// [`EngineConfig::virtual_cluster`] (virtual-engine defaults: a 32
/// ranks-per-node BlueGene/Q-like topology, serial build) or — when any
/// field is being overridden — [`EngineConfig::builder`], which
/// validates the combination before handing the config out.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of ranks.
    pub np: usize,
    /// Node/rank layout (intra- vs inter-node links, SMT pressure).
    pub topology: Topology,
    /// Reads per Step I chunk.
    pub chunk_size: usize,
    /// Reptile algorithm parameters.
    pub params: ReptileParams,
    /// Paper heuristics (§IV–V knobs).
    pub heuristics: HeuristicConfig,
    /// Extraction worker threads per rank in the pipelined build.
    pub build_threads: usize,
    /// Analytic cost model (virtual engine's clock, threaded engine's
    /// modeled-memory reporting).
    pub cost: CostModel,
    /// Dataset scale multiplier for modeled time/memory (virtual
    /// engine; see DESIGN.md §2).
    pub scale: f64,
    /// Deterministic fault plan injected into the message plane
    /// (threaded engine) or replayed analytically (virtual engine).
    pub fault: FaultPlan,
    /// Base deadline of one Step IV lookup round: a round's requests are
    /// awaited together, once per attempt, so a dead owner costs a round
    /// one deadline per attempt however many of its keys it asks for.
    /// `None` disables the retry protocol: receives block indefinitely
    /// (the fault-free fast path).
    pub lookup_deadline: Option<Duration>,
    /// Retries after the first missed deadline before a lookup degrades
    /// to the paper's "absent everywhere" answer. Attempt `i` of a round
    /// waits `lookup_deadline * 2^i` (exponential backoff) and resends
    /// only the requests still unanswered.
    pub retry_budget: u32,
    /// Save the pruned spectra into this snapshot directory after Step
    /// III (the build-once half of build-once / correct-many).
    pub save_spectrum: Option<PathBuf>,
    /// Load the spectra from this snapshot directory instead of running
    /// Steps II–III. Same-`np` loads adopt the shard tables verbatim; a
    /// different `np` re-owns entries through the count exchange.
    /// Combining with `save_spectrum` re-shards a snapshot to this
    /// config's `np` without correcting anything twice.
    pub load_spectrum: Option<PathBuf>,
    /// Reed-Solomon parity shards written per table kind on a
    /// `save_spectrum` run (0 = no erasure coding; `m` parity shards
    /// let a later `Repair` load survive any `m` lost shards per
    /// group).
    pub parity: usize,
    /// What a `load_spectrum` run does when a shard is corrupt:
    /// surface the typed error (`Strict`) or reconstruct it from the
    /// snapshot's parity shards (`Repair`).
    pub recovery: RecoveryPolicy,
    /// Per-rank byte budget for spectrum construction. `None` builds
    /// fully in memory; `Some(bytes)` switches to the out-of-core
    /// spill/merge build ([`crate::ooc`]): the count accumulators are
    /// drained to sorted run files whenever they outgrow the budget and
    /// the final tables are materialized by a streaming k-way merge —
    /// bit-identical output, peak accounted table+buffer bytes kept
    /// under the budget. Validated against the table geometry
    /// ([`crate::ooc::min_budget`]) and requires `batch_reads` (the
    /// non-batch path must hold its whole reads tally for one final
    /// exchange, so it cannot bound memory).
    pub memory_budget: Option<u64>,
}

impl EngineConfig {
    /// Threaded-engine defaults: single-node topology, 2000-read
    /// chunks, default heuristics, measured-core build parallelism, no
    /// faults, no deadlines.
    pub fn new(np: usize, params: ReptileParams) -> EngineConfig {
        EngineConfig {
            np,
            topology: Topology::single_node(),
            chunk_size: 2000,
            params,
            heuristics: HeuristicConfig::default(),
            build_threads: crate::engine_mt::default_build_threads(),
            cost: CostModel::bgq(),
            scale: 1.0,
            fault: FaultPlan::none(),
            lookup_deadline: None,
            retry_budget: 0,
            save_spectrum: None,
            load_spectrum: None,
            parity: 0,
            recovery: RecoveryPolicy::Strict,
            memory_budget: None,
        }
    }

    /// Virtual-engine defaults: 32 ranks per node (the BlueGene/Q
    /// layout the paper ran on) and a serial build model.
    pub fn virtual_cluster(np: usize, params: ReptileParams) -> EngineConfig {
        EngineConfig {
            topology: Topology::new(32),
            build_threads: 1,
            ..EngineConfig::new(np, params)
        }
    }

    /// Start a validating builder from the threaded-engine defaults.
    pub fn builder(np: usize, params: ReptileParams) -> EngineConfigBuilder {
        EngineConfigBuilder { cfg: EngineConfig::new(np, params) }
    }

    /// Check the configuration; every engine calls this on entry, so a
    /// bad config fails fast in the caller's thread rather than
    /// panicking inside a rank.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // First: the memory-budget floor below builds codecs from them.
        self.params.validate().map_err(ConfigError::Params)?;
        if self.np == 0 {
            return Err(ConfigError::ZeroRanks);
        }
        if self.chunk_size == 0 {
            return Err(ConfigError::ZeroChunkSize);
        }
        if self.build_threads == 0 {
            return Err(ConfigError::ZeroBuildThreads);
        }
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err(ConfigError::NonPositiveScale(self.scale));
        }
        if self.retry_budget > 0 && self.lookup_deadline.is_none() {
            return Err(ConfigError::RetryWithoutDeadline);
        }
        // Message loss without a deadline means a blocking receive that
        // never returns; refuse the combination up front.
        if (self.fault.drop_p > 0.0 || self.fault.kill.is_some()) && self.lookup_deadline.is_none()
        {
            return Err(ConfigError::FaultNeedsDeadline);
        }
        if let Some(kill) = self.fault.kill {
            if kill.rank >= self.np {
                return Err(ConfigError::KilledRankOutOfRange { rank: kill.rank, np: self.np });
            }
        }
        if let Some(stall) = self.fault.stall {
            if stall.rank >= self.np {
                return Err(ConfigError::KilledRankOutOfRange { rank: stall.rank, np: self.np });
            }
        }
        if self.parity > 0 {
            if self.save_spectrum.is_none() {
                return Err(ConfigError::ParityWithoutSave);
            }
            if self.np + self.parity > 256 {
                return Err(ConfigError::ParityTooWide { np: self.np, parity: self.parity });
            }
        }
        if let RecoveryPolicy::Repair { max_lost, .. } = self.recovery {
            if max_lost == 0 {
                return Err(ConfigError::RepairZeroBudget);
            }
            if self.load_spectrum.is_none() {
                return Err(ConfigError::RepairWithoutLoad);
            }
        }
        if let Some(budget) = self.memory_budget {
            if !self.heuristics.batch_reads {
                return Err(ConfigError::MemoryBudgetNeedsBatching);
            }
            let floor = crate::ooc::min_budget(&self.params);
            if budget < floor {
                return Err(ConfigError::MemoryBudgetTooSmall { budget, floor });
            }
        }
        self.heuristics.validate().map_err(ConfigError::Heuristics)?;
        Ok(())
    }
}

/// Why an [`EngineConfig`] was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The corrector parameters are out of range (message from
    /// [`ReptileParams::validate`]).
    Params(String),
    /// `np == 0` — there is no rank to run.
    ZeroRanks,
    /// `chunk_size == 0` — Step I cannot make progress.
    ZeroChunkSize,
    /// `build_threads == 0` — the pipelined build needs a worker.
    ZeroBuildThreads,
    /// `scale` must be a positive finite multiplier.
    NonPositiveScale(f64),
    /// A retry budget without a `lookup_deadline` can never fire.
    RetryWithoutDeadline,
    /// Message drops or a killed rank without a `lookup_deadline` would
    /// hang a blocking receive forever.
    FaultNeedsDeadline,
    /// The fault plan names a rank outside `0..np`.
    KilledRankOutOfRange {
        /// The out-of-range rank in the plan.
        rank: usize,
        /// The universe size it was checked against.
        np: usize,
    },
    /// Parity shards were requested without a `save_spectrum` directory
    /// to write them into.
    ParityWithoutSave,
    /// `np + parity` exceeds the GF(2^8) Reed-Solomon limit of 256
    /// shards per group.
    ParityTooWide {
        /// Data shards per group (= ranks).
        np: usize,
        /// Requested parity shards per group.
        parity: usize,
    },
    /// A `Repair` recovery policy with `max_lost == 0` can never repair
    /// anything — use `Strict` instead.
    RepairZeroBudget,
    /// A `Repair` recovery policy without a `load_spectrum` directory
    /// has nothing to repair.
    RepairWithoutLoad,
    /// A `Repair` recovery policy was requested but the snapshot being
    /// loaded carries no parity shards (e.g. a v1 snapshot, or one
    /// saved with `parity = 0`).
    RepairWithoutParity,
    /// The memory budget is below the irreducible working set of this
    /// table geometry — the build could never finish under it.
    MemoryBudgetTooSmall {
        /// The requested budget.
        budget: u64,
        /// The smallest acceptable budget for these params
        /// ([`crate::ooc::min_budget`]).
        floor: u64,
    },
    /// A memory budget without `batch_reads`: the non-batch build holds
    /// its entire reads tally for one final exchange and cannot bound
    /// memory.
    MemoryBudgetNeedsBatching,
    /// The heuristic combination is invalid (message from
    /// [`HeuristicConfig::validate`]).
    Heuristics(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Params(msg) => write!(f, "invalid params: {msg}"),
            ConfigError::ZeroRanks => write!(f, "np must be at least 1"),
            ConfigError::ZeroChunkSize => write!(f, "chunk_size must be at least 1"),
            ConfigError::ZeroBuildThreads => write!(f, "build_threads must be at least 1"),
            ConfigError::NonPositiveScale(s) => {
                write!(f, "scale must be a positive finite number, got {s}")
            }
            ConfigError::RetryWithoutDeadline => {
                write!(f, "retry_budget > 0 requires a lookup_deadline")
            }
            ConfigError::FaultNeedsDeadline => {
                write!(f, "fault plans with drops or a kill require a lookup_deadline")
            }
            ConfigError::KilledRankOutOfRange { rank, np } => {
                write!(f, "fault plan names rank {rank}, but np is {np}")
            }
            ConfigError::ParityWithoutSave => {
                write!(f, "parity > 0 requires a save_spectrum directory")
            }
            ConfigError::ParityTooWide { np, parity } => {
                write!(f, "np {np} + parity {parity} exceeds the 256-shard GF(2^8) group limit")
            }
            ConfigError::RepairZeroBudget => {
                write!(f, "a Repair policy needs max_lost >= 1 (use Strict otherwise)")
            }
            ConfigError::RepairWithoutLoad => {
                write!(f, "a Repair policy requires a load_spectrum directory")
            }
            ConfigError::RepairWithoutParity => {
                write!(f, "a Repair policy needs a snapshot saved with parity shards")
            }
            ConfigError::MemoryBudgetTooSmall { budget, floor } => {
                write!(
                    f,
                    "memory budget {budget} B is below the {floor} B floor for this table \
                     geometry (direct count arrays + spill buffers + working room)"
                )
            }
            ConfigError::MemoryBudgetNeedsBatching => {
                write!(f, "a memory budget requires batch_reads (non-batch builds are unbounded)")
            }
            ConfigError::Heuristics(msg) => write!(f, "invalid heuristics: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why an engine run failed. The infallible [`Engine::run`] panics on
/// these; [`Engine::try_run`] hands them back typed so callers (the
/// CLI's serve mode, tests, benches) can distinguish a corrupt snapshot
/// from a malformed input file.
#[derive(Debug)]
pub enum EngineError {
    /// The configuration failed [`EngineConfig::validate`].
    Config(ConfigError),
    /// Snapshot save/load failed (corruption, fingerprint mismatch,
    /// filesystem error, or a peer rank's failure).
    Snapshot(specstore::SnapshotError),
    /// Input FASTA/QUAL files could not be read or parsed.
    Io(genio::IoError),
    /// An out-of-core build's spill plane failed (run-file IO error or
    /// verification failure — a chopped/flipped run is surfaced here,
    /// never folded into wrong counts). The error type is the snapshot
    /// layer's: runs and shards are verified by the same frame.
    Spill(specstore::SnapshotError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid config: {e}"),
            EngineError::Snapshot(e) => write!(f, "spectrum snapshot: {e}"),
            EngineError::Io(e) => write!(f, "input: {e}"),
            EngineError::Spill(e) => write!(f, "out-of-core build: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::Snapshot(e) => Some(e),
            EngineError::Io(e) => Some(e),
            EngineError::Spill(e) => Some(e),
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> EngineError {
        EngineError::Config(e)
    }
}

impl From<specstore::SnapshotError> for EngineError {
    fn from(e: specstore::SnapshotError) -> EngineError {
        // A Repair policy against a parity-free snapshot is a
        // configuration mistake (the combination can never work), not a
        // corruption event — surface it as such.
        if matches!(e, specstore::SnapshotError::NoParity { .. }) {
            return EngineError::Config(ConfigError::RepairWithoutParity);
        }
        EngineError::Snapshot(e)
    }
}

impl From<genio::IoError> for EngineError {
    fn from(e: genio::IoError) -> EngineError {
        EngineError::Io(e)
    }
}

/// Builder for [`EngineConfig`]; [`build`](EngineConfigBuilder::build)
/// validates before returning the config.
#[derive(Clone, Debug)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Switch every default the virtual engine wants (see
    /// [`EngineConfig::virtual_cluster`]); call before other setters.
    pub fn virtual_cluster(mut self) -> Self {
        self.cfg = EngineConfig::virtual_cluster(self.cfg.np, self.cfg.params);
        self
    }

    /// Set the node/rank topology.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Set the Step I chunk size.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.cfg.chunk_size = chunk_size;
        self
    }

    /// Set the heuristic knobs.
    pub fn heuristics(mut self, heuristics: HeuristicConfig) -> Self {
        self.cfg.heuristics = heuristics;
        self
    }

    /// Set the per-rank extraction parallelism.
    pub fn build_threads(mut self, build_threads: usize) -> Self {
        self.cfg.build_threads = build_threads;
        self
    }

    /// Set the analytic cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Set the modeled dataset scale multiplier.
    pub fn scale(mut self, scale: f64) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Install a fault plan.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.cfg.fault = fault;
        self
    }

    /// Enable the per-round deadline of Step IV lookups (see
    /// [`EngineConfig::lookup_deadline`]).
    pub fn lookup_deadline(mut self, deadline: Duration) -> Self {
        self.cfg.lookup_deadline = Some(deadline);
        self
    }

    /// Set the retry budget: how many times a round resends its
    /// unanswered requests (requires a deadline to validate).
    pub fn retry_budget(mut self, retries: u32) -> Self {
        self.cfg.retry_budget = retries;
        self
    }

    /// Save the pruned spectra into a snapshot directory after Step III.
    pub fn save_spectrum(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.save_spectrum = Some(dir.into());
        self
    }

    /// Load the spectra from a snapshot directory instead of building.
    pub fn load_spectrum(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.load_spectrum = Some(dir.into());
        self
    }

    /// Write `parity` Reed-Solomon shards per table kind when saving
    /// (requires `save_spectrum` to validate).
    pub fn parity(mut self, parity: usize) -> Self {
        self.cfg.parity = parity;
        self
    }

    /// Set the shard-corruption recovery policy for loads.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.cfg.recovery = recovery;
        self
    }

    /// Cap the per-rank spectrum-construction working set at `bytes`,
    /// switching the build to the out-of-core spill/merge mode
    /// (requires `batch_reads`; validated against
    /// [`crate::ooc::min_budget`]).
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.cfg.memory_budget = Some(bytes);
        self
    }

    /// Validate and return the config.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A correction run's result: the corrected dataset (sorted by read id)
/// and the merged cross-rank report. Identical shape for both engines —
/// and identical *content* for equivalent configs, which the
/// cross-engine tests assert.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Corrected reads, sorted by read id.
    pub corrected: Vec<Read>,
    /// Per-rank and aggregate statistics.
    pub report: RunReport,
}

/// A correction engine: turns a dataset and an [`EngineConfig`] into a
/// [`RunOutput`]. Object-safe, so callers can pick an engine at runtime
/// ([`engine_by_name`]) without duplicating dispatch arms.
pub trait Engine {
    /// Short stable name ("mt", "virtual") for CLIs and reports.
    fn name(&self) -> &'static str;

    /// Correct an in-memory dataset, reporting failures (bad config,
    /// unreadable or corrupt snapshot) as typed errors.
    fn try_run(&self, cfg: &EngineConfig, reads: &[Read]) -> Result<RunOutput, EngineError>;

    /// Correct a FASTA + QUAL file pair, reporting failures as typed
    /// errors.
    fn try_run_files(
        &self,
        cfg: &EngineConfig,
        fasta: &Path,
        qual: &Path,
    ) -> Result<RunOutput, EngineError>;

    /// Correct an in-memory dataset.
    ///
    /// # Panics
    /// On an invalid config ([`EngineConfig::validate`]) or a snapshot
    /// failure — use [`Engine::try_run`] to get the typed error
    /// instead.
    fn run(&self, cfg: &EngineConfig, reads: &[Read]) -> RunOutput {
        match self.try_run(cfg, reads) {
            Ok(out) => out,
            Err(e) => panic!("engine run failed: {e}"),
        }
    }
}

/// The real multi-threaded engine: ranks are OS threads over `mpisim`
/// (its [`Engine`] impl lives in [`crate::engine_mt`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedEngine;

/// The virtual engine: models `np` ranks analytically (memory and time
/// from counted work), corrects with the same shared corrector.
#[derive(Clone, Copy, Debug, Default)]
pub struct VirtualEngine;

impl Engine for VirtualEngine {
    fn name(&self) -> &'static str {
        "virtual"
    }

    fn try_run(&self, cfg: &EngineConfig, reads: &[Read]) -> Result<RunOutput, EngineError> {
        crate::engine_virtual::run(cfg, reads)
    }

    fn try_run_files(
        &self,
        cfg: &EngineConfig,
        fasta: &Path,
        qual: &Path,
    ) -> Result<RunOutput, EngineError> {
        let reads = genio::qual::load_dataset(fasta, qual)?;
        self.try_run(cfg, &reads)
    }
}

/// Look an engine up by its CLI name.
pub fn engine_by_name(name: &str) -> Option<Box<dyn Engine>> {
    match name {
        "mt" | "threaded" => Some(Box::new(ThreadedEngine)),
        "virtual" => Some(Box::new(VirtualEngine)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::params;
    use mpisim::KillSpec;

    #[test]
    fn builder_accepts_defaults() {
        let cfg = EngineConfig::builder(4, params()).build().expect("defaults are valid");
        assert_eq!(cfg.np, 4);
        assert_eq!(cfg.chunk_size, 2000);
        assert!(cfg.fault.is_none());
        assert!(cfg.lookup_deadline.is_none());
    }

    #[test]
    fn builder_rejects_zero_ranks_and_chunks() {
        assert_eq!(EngineConfig::builder(0, params()).build().unwrap_err(), ConfigError::ZeroRanks);
        assert_eq!(
            EngineConfig::builder(2, params()).chunk_size(0).build().unwrap_err(),
            ConfigError::ZeroChunkSize
        );
        assert_eq!(
            EngineConfig::builder(2, params()).build_threads(0).build().unwrap_err(),
            ConfigError::ZeroBuildThreads
        );
    }

    #[test]
    fn builder_rejects_retries_without_deadline() {
        assert_eq!(
            EngineConfig::builder(2, params()).retry_budget(3).build().unwrap_err(),
            ConfigError::RetryWithoutDeadline
        );
        // with a deadline the same budget is fine
        EngineConfig::builder(2, params())
            .retry_budget(3)
            .lookup_deadline(Duration::from_millis(5))
            .build()
            .expect("deadline makes retries valid");
    }

    #[test]
    fn builder_rejects_lossy_faults_without_deadline() {
        let lossy = FaultPlan { drop_p: 0.2, ..FaultPlan::none() };
        assert_eq!(
            EngineConfig::builder(2, params()).fault(lossy).build().unwrap_err(),
            ConfigError::FaultNeedsDeadline
        );
        let kill = FaultPlan { kill: Some(KillSpec { rank: 1 }), ..FaultPlan::none() };
        assert_eq!(
            EngineConfig::builder(2, params()).fault(kill).build().unwrap_err(),
            ConfigError::FaultNeedsDeadline
        );
        // dup/reorder/delay keep every message; no deadline required
        let benign = FaultPlan { dup_p: 0.5, reorder_p: 0.5, ..FaultPlan::none() };
        EngineConfig::builder(2, params()).fault(benign).build().expect("benign faults valid");
    }

    #[test]
    fn builder_rejects_kill_out_of_range() {
        let plan = FaultPlan { kill: Some(KillSpec { rank: 7 }), ..FaultPlan::none() };
        let err = EngineConfig::builder(4, params())
            .fault(plan)
            .lookup_deadline(Duration::from_millis(5))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::KilledRankOutOfRange { rank: 7, np: 4 });
    }

    #[test]
    fn builder_rejects_bad_heuristics() {
        let heur = HeuristicConfig { cache_remote: true, ..Default::default() };
        let err = EngineConfig::builder(4, params()).heuristics(heur).build().unwrap_err();
        assert!(matches!(err, ConfigError::Heuristics(_)), "{err:?}");
    }

    #[test]
    fn builder_rejects_bad_parity_and_recovery_combinations() {
        use specstore::RecoveryPolicy;
        // parity without a save target
        assert_eq!(
            EngineConfig::builder(4, params()).parity(2).build().unwrap_err(),
            ConfigError::ParityWithoutSave
        );
        // parity wider than the GF(2^8) group
        assert_eq!(
            EngineConfig::builder(255, params())
                .parity(2)
                .save_spectrum("/tmp/snap")
                .build()
                .unwrap_err(),
            ConfigError::ParityTooWide { np: 255, parity: 2 }
        );
        // repair with a zero budget
        assert_eq!(
            EngineConfig::builder(4, params())
                .recovery(RecoveryPolicy::Repair { max_lost: 0, rewrite: false })
                .load_spectrum("/tmp/snap")
                .build()
                .unwrap_err(),
            ConfigError::RepairZeroBudget
        );
        // repair without anything to load
        assert_eq!(
            EngineConfig::builder(4, params())
                .recovery(RecoveryPolicy::Repair { max_lost: 1, rewrite: false })
                .build()
                .unwrap_err(),
            ConfigError::RepairWithoutLoad
        );
        // the valid combination passes
        let cfg = EngineConfig::builder(4, params())
            .parity(1)
            .save_spectrum("/tmp/snap")
            .recovery(RecoveryPolicy::Repair { max_lost: 1, rewrite: true })
            .load_spectrum("/tmp/snap")
            .build()
            .expect("valid parity + repair config");
        assert_eq!(cfg.parity, 1);
        assert!(cfg.recovery.repairs());
    }

    #[test]
    fn no_parity_snapshot_error_maps_to_config() {
        let e = specstore::SnapshotError::NoParity { dir: "/tmp/x".into() };
        assert!(matches!(
            EngineError::from(e),
            EngineError::Config(ConfigError::RepairWithoutParity)
        ));
    }

    #[test]
    fn builder_rejects_nonpositive_scale() {
        let err = EngineConfig::builder(2, params()).scale(0.0).build().unwrap_err();
        assert_eq!(err, ConfigError::NonPositiveScale(0.0));
    }

    #[test]
    fn virtual_cluster_defaults() {
        let cfg = EngineConfig::virtual_cluster(64, params());
        assert_eq!(cfg.build_threads, 1);
        assert_eq!(cfg.topology.ranks_per_node(), 32);
        cfg.validate().expect("virtual defaults are valid");
    }

    #[test]
    fn errors_render_messages() {
        for err in [
            ConfigError::Params("x".into()),
            ConfigError::ZeroRanks,
            ConfigError::RetryWithoutDeadline,
            ConfigError::FaultNeedsDeadline,
            ConfigError::KilledRankOutOfRange { rank: 9, np: 4 },
            ConfigError::ParityWithoutSave,
            ConfigError::ParityTooWide { np: 255, parity: 2 },
            ConfigError::RepairZeroBudget,
            ConfigError::RepairWithoutLoad,
            ConfigError::RepairWithoutParity,
            ConfigError::Heuristics("x".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    /// Out-of-range corrector parameters are a typed config error from
    /// the builder and from both engines, never a panic.
    #[test]
    fn bad_params_are_typed_errors() {
        let reads = crate::test_data::template_reads(6, 20);
        for bad in
            [ReptileParams { k: 40, ..params() }, ReptileParams { tile_overlap: 6, ..params() }]
        {
            let err = EngineConfig::builder(2, bad).build().unwrap_err();
            assert!(matches!(err, ConfigError::Params(_)), "{err:?}");
            for engine in [&ThreadedEngine as &dyn Engine, &VirtualEngine] {
                let got = engine.try_run(&EngineConfig::new(2, bad), &reads);
                assert!(
                    matches!(got, Err(EngineError::Config(ConfigError::Params(_)))),
                    "{}: {:?}",
                    engine.name(),
                    got.err()
                );
            }
        }
    }

    #[test]
    fn engine_by_name_dispatch() {
        assert_eq!(engine_by_name("mt").unwrap().name(), "mt");
        assert_eq!(engine_by_name("threaded").unwrap().name(), "mt");
        assert_eq!(engine_by_name("virtual").unwrap().name(), "virtual");
        assert!(engine_by_name("gpu").is_none());
    }

    #[test]
    fn both_engines_run_through_the_trait() {
        let p = params();
        let reads: Vec<Read> = (0..12)
            .map(|i| {
                let seed = dnaseq::mix64(i + 1);
                let seq: Vec<u8> = (0..20)
                    .map(|j| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(seed ^ j) % 4) as usize])
                    .collect();
                Read::new(i + 1, seq, vec![30; 20])
            })
            .collect();
        let mt = ThreadedEngine.run(&EngineConfig::builder(2, p).build().unwrap(), &reads);
        let virt = VirtualEngine
            .run(&EngineConfig::builder(2, p).virtual_cluster().build().unwrap(), &reads);
        assert_eq!(mt.corrected.len(), reads.len());
        assert_eq!(virt.corrected.len(), reads.len());
        let mt_seq: Vec<_> = mt.corrected.iter().map(|r| r.seq.clone()).collect();
        let virt_seq: Vec<_> = virt.corrected.iter().map(|r| r.seq.clone()).collect();
        assert_eq!(mt_seq, virt_seq, "engines agree through the trait");
    }
}
