//! The corrector's contract as one differential matrix: corrected reads
//! bit-identical to the sequential `reptile` corrector — the only oracle
//! — across engine × heuristics × np × chunk size × source (fresh build,
//! snapshot load, repaired snapshot, out-of-core build, serve plane).
//!
//! * **One fixture.** [`fixture`] builds each named dataset and its
//!   oracle output once per process, and asserts on the way that the
//!   dataset exercises the corrector; [`requests`] adds the serve
//!   plane's request reads and their oracle output, and [`Snapshots`]
//!   saves each snapshot a process loads once.
//! * **One case type.** A [`Case`] is run by one path and checked by one
//!   set of columns (see [`verify`] and [`twin_columns`]).
//! * **One generator.** [`draws`] first enumerates every point of the
//!   per-feature grids the matrix replaced, tagged with its [`Grid`],
//!   then adds seeded random draws. Each test binary that includes this
//!   module runs the slice it names; draw numbers are global, so a draw
//!   is the same case in every binary.
//!
//! A failing draw panics with its number, label and seed, and first
//! writes the case's report and its first diverging read to
//! `target/contract-failures/draw-<n>.txt`.

#![allow(dead_code)] // each test binary runs its own slice

use dnaseq::Read;
use genio::dataset::DatasetProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reptile::{correct_dataset, correct_read, CorrectionStats, LocalSpectra, ReptileParams};
use reptile_dist::spectrum::BuildStats;
use reptile_dist::{
    ooc, Engine, EngineConfig, EngineError, HeuristicConfig, RecoveryPolicy, RunOutput, RunReport,
    ServeConfig, ServeEngine, ServeResponse, SubmitError, ThreadedEngine, VirtualEngine,
};
use specstore::{Manifest, ShardKind};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// the fixture
// ---------------------------------------------------------------------

/// The named datasets: the matrix draws the first three; the
/// snapshot-store tests' corruption and repair cases use `Store`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Set {
    /// Uniform coverage with one hotspot.
    Uniform,
    /// Repeat-heavy: half the genome is one homopolymer run, so its reads
    /// hammer one spectrum owner and hash-shuffle onto one rank.
    Skewed,
    /// Both strands sampled, corrected in canonical mode.
    Stranded,
    /// Uniform coverage over a 3 kb genome, 700 reads.
    Store,
}

/// One dataset with its oracle output.
pub struct Fixture {
    /// The reads to correct.
    pub reads: Vec<Read>,
    /// The sequential corrector's output.
    pub oracle: Vec<Read>,
    /// The sequential corrector's statistics.
    pub stats: CorrectionStats,
}

/// `set`'s dataset profile and seed.
pub fn profile(set: Set) -> (DatasetProfile, u64) {
    let uniform = DatasetProfile {
        name: "uniform".into(),
        genome_len: 600,
        read_len: 60,
        n_reads: 300,
        base_error_rate: 0.008,
        hotspot_count: 1,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    };
    match set {
        Set::Uniform => (uniform, 17),
        Set::Skewed => {
            let skewed = DatasetProfile {
                genome_len: 2_500,
                n_reads: 400,
                base_error_rate: 0.006,
                hotspot_count: 0,
                n_rate: 0.0005,
                ..uniform
            };
            (skewed.with_repeats(0.5, 1), 1)
        }
        Set::Stranded => (DatasetProfile { both_strands: true, ..uniform }, 4),
        Set::Store => (
            DatasetProfile { genome_len: 3_000, n_reads: 700, base_error_rate: 0.005, ..uniform },
            17,
        ),
    }
}

/// The corrector parameters of `set`.
pub fn params(set: Set) -> ReptileParams {
    let (threshold, canonical) = match set {
        Set::Uniform | Set::Store => (4, false),
        Set::Skewed => (3, false),
        Set::Stranded => (4, true),
    };
    ReptileParams {
        k: 10,
        tile_overlap: 5,
        kmer_threshold: threshold,
        tile_threshold: threshold,
        canonical,
        ..ReptileParams::default()
    }
}

/// `set`'s dataset and oracle, built on first use in this process.
pub fn fixture(set: Set) -> &'static Fixture {
    static SETS: [OnceLock<Fixture>; 4] = [const { OnceLock::new() }; 4];
    SETS[set as usize].get_or_init(|| {
        let (profile, seed) = profile(set);
        let reads = profile.generate(seed).reads;
        let params = params(set);
        let (oracle, stats) = correct_dataset(&reads, &params);
        // the set must exercise what its cases claim to check
        match set {
            Set::Uniform => assert!(stats.errors_corrected > 100, "uniform: {stats:?}"),
            Set::Stranded => assert!(stats.errors_corrected > 50, "canonical: {stats:?}"),
            Set::Skewed => {
                let cfg = EngineConfig {
                    heuristics: HeuristicConfig::adaptive(2),
                    chunk_size: 10,
                    ..EngineConfig::virtual_cluster(8, params)
                };
                let run = VirtualEngine.try_run(&cfg, &reads).expect("skew engagement run");
                assert!(run.report.hot_shard_hits() > 0, "hot replicas never hit");
                assert!(run.report.chunks_stolen() > 0, "steal gate never opened");
            }
            Set::Store => {}
        }
        Fixture { reads, oracle, stats }
    })
}

/// `set`'s serve requests — other reads over the same genome at twice
/// the error rate, so they carry k-mers the spectrum does not hold —
/// and their oracle output against the spectrum of `set`'s reads.
pub fn requests(set: Set) -> &'static (Vec<Read>, Vec<Read>) {
    static SETS: [OnceLock<(Vec<Read>, Vec<Read>)>; 4] = [const { OnceLock::new() }; 4];
    SETS[set as usize].get_or_init(|| {
        let (profile, seed) = profile(set);
        let noisy = DatasetProfile {
            n_reads: 200,
            base_error_rate: 2.0 * profile.base_error_rate,
            ..profile
        };
        let requests = noisy.generate(seed).reads;
        let params = params(set);
        let mut spectra = LocalSpectra::build(&fixture(set).reads, &params);
        let served = requests
            .iter()
            .map(|r| {
                let mut read = r.clone();
                correct_read(&mut read, &mut spectra, &params);
                read
            })
            .collect();
        (requests, served)
    })
}

// ---------------------------------------------------------------------
// the case type
// ---------------------------------------------------------------------

/// Which engine runs a case.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Eng {
    /// The threaded engine ([`ThreadedEngine`]).
    Mt,
    /// The virtual-cluster engine ([`VirtualEngine`]).
    Virtual,
}

/// Where a case's spectra come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Source {
    /// Built from the reads.
    Fresh,
    /// Loaded from a snapshot saved by `save_engine` at `save_np` ranks.
    Snapshot { save_engine: Eng, save_np: usize },
    /// Loaded from a parity-1 snapshot saved at the case's engine and np
    /// whose rank-0 shard of `kind` took `damage`, under
    /// `RecoveryPolicy::Repair`.
    Repaired { kind: ShardKind, damage: Damage },
    /// Built out of core under a memory budget of `budget` bytes.
    Ooc { budget: u64 },
    /// Loaded from a snapshot by a `ServeEngine` and fed the set's
    /// requests (threaded engine only).
    Serve,
}

/// The damage classes the repair path must classify as "lost".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Damage {
    /// Manifest-listed file deleted.
    Delete,
    /// File cut below the header (interrupted write).
    Chop,
    /// Trailing byte flipped (bit-rot; on an empty shard this flips the
    /// stored checksum field instead — also classified corrupt).
    Flip,
}

/// Damage one shard file.
pub fn inflict(path: &Path, damage: Damage) {
    match damage {
        Damage::Delete => std::fs::remove_file(path).expect("delete shard"),
        Damage::Chop => {
            let f = std::fs::OpenOptions::new().write(true).open(path).expect("open shard");
            f.set_len(40).expect("chop shard");
        }
        Damage::Flip => {
            let mut data = std::fs::read(path).expect("read shard");
            *data.last_mut().expect("non-empty shard") ^= 0xff;
            std::fs::write(path, data).expect("write shard");
        }
    }
}

/// One point of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub set: Set,
    pub engine: Eng,
    pub heur: HeuristicConfig,
    pub np: usize,
    pub chunk_size: usize,
    pub source: Source,
}

/// The matrix's default chunk size: the engines' 2 000-read default
/// scaled by the uniform set's 300 reads against the 2 500 of the grids
/// it replaced, so a single-rank case still crosses a chunk boundary.
pub const CHUNK: usize = 240;

impl Case {
    fn new(set: Set, engine: Eng, np: usize) -> Case {
        Case {
            set,
            engine,
            heur: HeuristicConfig::base(),
            np,
            chunk_size: CHUNK,
            source: Source::Fresh,
        }
    }

    fn heur(self, heur: HeuristicConfig) -> Case {
        Case { heur, ..self }
    }

    fn chunk(self, chunk_size: usize) -> Case {
        Case { chunk_size, ..self }
    }

    fn source(self, source: Source) -> Case {
        Case { source, ..self }
    }

    fn on(self, engine: Eng) -> Case {
        Case { engine, ..self }
    }

    /// Human-readable, unique per case.
    pub fn label(&self) -> String {
        format!("{:?} {}", self.engine, self.twin_key())
    }

    /// The label without the engine: the key the two engines' runs of
    /// one point share.
    fn twin_key(&self) -> String {
        let group = match self.heur.partial_group {
            1 => String::new(),
            g => format!("/g{g}"),
        };
        format!(
            "{:?} np={} chunk={} heur={}{group} {:?}",
            self.set,
            self.np,
            self.chunk_size,
            self.heur.label(),
            self.source
        )
    }

    /// The engine configuration of the run itself (sources add their
    /// snapshot, recovery or budget fields on top).
    fn config(&self) -> EngineConfig {
        let base = engine_config(self.engine, self.np, params(self.set));
        EngineConfig { heuristics: self.heur, chunk_size: self.chunk_size, ..base }
    }
}

/// `engine`'s default configuration at `np` ranks.
pub fn engine_config(engine: Eng, np: usize, p: ReptileParams) -> EngineConfig {
    match engine {
        Eng::Mt => EngineConfig::new(np, p),
        Eng::Virtual => EngineConfig::virtual_cluster(np, p),
    }
}

/// Run `reads` on `engine`.
pub fn run_engine(
    engine: Eng,
    cfg: &EngineConfig,
    reads: &[Read],
) -> Result<RunOutput, EngineError> {
    match engine {
        Eng::Mt => ThreadedEngine.try_run(cfg, reads),
        Eng::Virtual => VirtualEngine.try_run(cfg, reads),
    }
}

// ---------------------------------------------------------------------
// the generator
// ---------------------------------------------------------------------

/// The per-feature grids the matrix replaced, one tag per old grid. The
/// test carrying the old grid's name runs its slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// Threaded engine, base mode, np ∈ {1, 2, 5, 8}.
    ThreadedNp,
    /// Virtual engine, base mode, np ∈ {1, 3, 64, 1024}.
    VirtualNp,
    /// Nine heuristic sets × both engines at np 4, 40-read chunks: two
    /// per rank, so state carried from chunk to chunk is checked under
    /// every set (the older grid's 300-read chunks of its 2 500 reads
    /// gave about three).
    Heuristics,
    /// Canonical mode on double-stranded reads: threaded np 6, virtual
    /// np 37.
    Canonical,
    /// Both engines at np 4: the correction-statistics column.
    Statistics,
    /// The eight distinct (np, hot-shard budget, stealing) points the
    /// older property test drew, on both engines, skewed set, 40-read
    /// chunks.
    Adaptive,
    /// Snapshots saved at np ∈ {1, 3, 4} loaded at np ∈ {1, 3, 4}, each
    /// engine loading its own.
    SnapshotNp,
    /// Five heuristic sets loading a threaded np-3 snapshot at np 3.
    SnapshotHeuristics,
    /// A virtual np-4 snapshot loaded by the threaded engine at np 3 and
    /// by the virtual engine at np 2.
    SnapshotPortable,
    /// Load and plain runs at np 3 on both engines: the snapshot-timing
    /// column.
    SnapshotTimings,
    /// The serve plane, aggregate mode, np 4.
    Serve,
    /// Partial replication, groups of 2 and 4: threaded np 4, virtual
    /// np 64.
    PartialReplication,
    /// Points no older root grid had, on both engines: repaired
    /// snapshots, out-of-core builds at the floor and an unlimited
    /// budget, the serve plane in base mode, and the heuristic sets only
    /// the engines' own unit tests ran (each `replicate_*` flag alone,
    /// read tables alone, batch mode, aggregation with universal, batch
    /// mode or cached read tables) at np 3, 40-read chunks.
    Sources,
}

impl Grid {
    const ALL: [Grid; 13] = [
        Grid::ThreadedNp,
        Grid::VirtualNp,
        Grid::Heuristics,
        Grid::Canonical,
        Grid::Statistics,
        Grid::Adaptive,
        Grid::SnapshotNp,
        Grid::SnapshotHeuristics,
        Grid::SnapshotPortable,
        Grid::SnapshotTimings,
        Grid::Serve,
        Grid::PartialReplication,
        Grid::Sources,
    ];

    fn cases(self) -> Vec<Case> {
        use Eng::{Mt, Virtual};
        use Set::{Skewed, Stranded, Uniform};
        let base = HeuristicConfig::base();
        let both = |c: Case| [c.on(Mt), c.on(Virtual)];
        match self {
            Grid::ThreadedNp => [1, 2, 5, 8].map(|np| Case::new(Uniform, Mt, np)).to_vec(),
            Grid::VirtualNp => [1, 3, 64, 1024].map(|np| Case::new(Uniform, Virtual, np)).to_vec(),
            Grid::Heuristics => heuristic_sets()[..9]
                .iter()
                .flat_map(|&h| both(Case::new(Uniform, Mt, 4).heur(h).chunk(40)))
                .collect(),
            Grid::Canonical => vec![Case::new(Stranded, Mt, 6), Case::new(Stranded, Virtual, 37)],
            Grid::Statistics => both(Case::new(Uniform, Mt, 4)).to_vec(),
            Grid::Adaptive => [
                (1, 1, true),
                (3, 0, false),
                (3, 0, true),
                (3, 4, false),
                (4, 0, true),
                (4, 1, true),
                (4, usize::MAX, false),
                (4, usize::MAX, true),
            ]
            .into_iter()
            .flat_map(|(np, k, steal)| {
                let h = HeuristicConfig { hot_shard_k: k, steal_chunks: steal, ..base };
                both(Case::new(Skewed, Mt, np).heur(h).chunk(40))
            })
            .collect(),
            Grid::SnapshotNp => {
                let mut cases = Vec::new();
                for engine in [Mt, Virtual] {
                    for save_np in [1, 3, 4] {
                        for np in [1, 3, 4] {
                            let saved = Source::Snapshot { save_engine: engine, save_np };
                            cases.push(Case::new(Uniform, engine, np).source(saved));
                        }
                    }
                }
                cases
            }
            Grid::SnapshotHeuristics => [
                HeuristicConfig { universal: true, ..base },
                HeuristicConfig { keep_read_tables: true, cache_remote: true, ..base },
                HeuristicConfig::replicate_both(),
                HeuristicConfig { aggregate_lookups: true, ..base },
                HeuristicConfig { partial_group: 2, ..base },
            ]
            .map(|h| {
                let saved = Source::Snapshot { save_engine: Mt, save_np: 3 };
                Case::new(Uniform, Mt, 3).heur(h).source(saved)
            })
            .to_vec(),
            Grid::SnapshotPortable => {
                let saved = Source::Snapshot { save_engine: Virtual, save_np: 4 };
                vec![
                    Case::new(Uniform, Mt, 3).source(saved),
                    Case::new(Uniform, Virtual, 2).source(saved),
                ]
            }
            Grid::SnapshotTimings => [Mt, Virtual]
                .into_iter()
                .flat_map(|e| {
                    let saved = Source::Snapshot { save_engine: e, save_np: 3 };
                    [Case::new(Uniform, e, 3).source(saved), Case::new(Uniform, e, 3)]
                })
                .collect(),
            Grid::Serve => {
                let h = HeuristicConfig { aggregate_lookups: true, ..base };
                vec![Case::new(Uniform, Mt, 4).heur(h).source(Source::Serve)]
            }
            Grid::PartialReplication => [2, 4]
                .into_iter()
                .flat_map(|g| {
                    let h = HeuristicConfig { partial_group: g, ..base };
                    [Case::new(Uniform, Mt, 4).heur(h), Case::new(Uniform, Virtual, 64).heur(h)]
                })
                .collect(),
            Grid::Sources => {
                let mut cases = Vec::new();
                for (kind, damage) in
                    [(ShardKind::Kmer, Damage::Delete), (ShardKind::Tile, Damage::Chop)]
                {
                    let repaired = Source::Repaired { kind, damage };
                    cases.extend(both(Case::new(Uniform, Mt, 3).source(repaired)));
                }
                let floor = ooc::min_budget(&params(Uniform));
                for budget in [floor, u64::MAX] {
                    let batched = HeuristicConfig { batch_reads: true, ..base };
                    let c = Case::new(Uniform, Mt, 3).heur(batched).chunk(40);
                    cases.extend(both(c.source(Source::Ooc { budget })));
                }
                cases.push(Case::new(Uniform, Mt, 3).source(Source::Serve));
                let agg = HeuristicConfig { aggregate_lookups: true, ..base };
                for h in [
                    HeuristicConfig { replicate_kmers: true, ..base },
                    HeuristicConfig { replicate_tiles: true, ..base },
                    HeuristicConfig { keep_read_tables: true, ..base },
                    HeuristicConfig { batch_reads: true, ..base },
                    HeuristicConfig { universal: true, ..agg },
                    HeuristicConfig { batch_reads: true, ..agg },
                    HeuristicConfig { keep_read_tables: true, cache_remote: true, ..agg },
                ] {
                    cases.extend(both(Case::new(Uniform, Mt, 3).heur(h).chunk(40)));
                }
                cases
            }
        }
    }
}

/// Seeded random draws after the grid points, each a pair of cases (one
/// per engine; the serve plane has the threaded one only).
pub const RANDOM_DRAWS: u64 = 5;

/// The seed of random draw `i`.
fn draw_seed(i: u64) -> u64 {
    0x5eed_0000 + i
}

/// One numbered case of the matrix.
pub struct Draw {
    /// Position in [`draws`]: stable across binaries and runs.
    pub n: usize,
    /// The grid it reproduces, or `None` for a random draw.
    pub grid: Option<Grid>,
    /// The random draw's seed.
    pub seed: Option<u64>,
    pub case: Case,
}

/// Every case of the matrix, numbered: the grid points, then the random
/// draws.
pub fn draws() -> Vec<Draw> {
    let mut out = Vec::new();
    for grid in Grid::ALL {
        for case in grid.cases() {
            out.push(Draw { n: out.len(), grid: Some(grid), seed: None, case });
        }
    }
    for i in 0..RANDOM_DRAWS {
        let seed = draw_seed(i);
        let case = random_case(seed);
        let engines: &[Eng] =
            if case.source == Source::Serve { &[Eng::Mt] } else { &[Eng::Mt, Eng::Virtual] };
        for &engine in engines {
            out.push(Draw { n: out.len(), grid: None, seed: Some(seed), case: case.on(engine) });
        }
    }
    out
}

/// A uniform pick from `from`.
fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// The heuristic sets of the two-engine grid (the first nine) and of
/// the random draws (all): every set the older grids and the build
/// suite used, plus the adaptive bundle.
fn heuristic_sets() -> Vec<HeuristicConfig> {
    let base = HeuristicConfig::base();
    let agg = HeuristicConfig { aggregate_lookups: true, ..base };
    vec![
        base,
        HeuristicConfig { universal: true, ..base },
        HeuristicConfig { keep_read_tables: true, cache_remote: true, ..base },
        HeuristicConfig::replicate_both(),
        HeuristicConfig::paper_production(),
        HeuristicConfig { load_balance: false, ..base },
        HeuristicConfig { partial_group: 2, ..base },
        agg,
        HeuristicConfig { partial_group: 2, ..agg },
        HeuristicConfig { batch_reads: true, ..base },
        HeuristicConfig { keep_read_tables: true, ..base },
        HeuristicConfig { replicate_kmers: true, ..base },
        HeuristicConfig { replicate_tiles: true, ..base },
        HeuristicConfig { partial_group: 3, ..base },
        HeuristicConfig { replicate_kmers: true, ..agg },
        HeuristicConfig { aggregate_lookups: true, ..HeuristicConfig::paper_production() },
        HeuristicConfig { keep_read_tables: true, cache_remote: true, ..agg },
        HeuristicConfig::adaptive(2),
        HeuristicConfig { hot_shard_k: 1, ..base },
    ]
}

/// The random case of `seed`, on the threaded engine.
pub fn random_case(seed: u64) -> Case {
    let s = &mut StdRng::seed_from_u64(seed);
    let set = pick(s, &[Set::Uniform, Set::Skewed, Set::Stranded]);
    let np = pick(s, &[1, 2, 3, 4, 5, 6]);
    let chunk_size = pick(s, &[300, 120, 40, 25]);
    let floor = ooc::min_budget(&params(set));
    let source = match s.gen_range(0..5) {
        0 => Source::Fresh,
        1 => Source::Snapshot {
            save_engine: pick(s, &[Eng::Mt, Eng::Virtual]),
            save_np: pick(s, &[1, 2, 3, 4, 5]),
        },
        2 => Source::Repaired {
            kind: pick(s, &[ShardKind::Kmer, ShardKind::Tile]),
            damage: pick(s, &[Damage::Delete, Damage::Chop, Damage::Flip]),
        },
        3 => Source::Ooc { budget: pick(s, &[floor, floor + (1 << 20), u64::MAX]) },
        _ => Source::Serve,
    };
    let fits = |h: &HeuristicConfig| match source {
        Source::Ooc { .. } => h.batch_reads,
        Source::Serve => {
            !(h.keep_read_tables || h.batch_reads || h.steal_chunks) && h.hot_shard_k == 0
        }
        _ => true,
    };
    let pool: Vec<HeuristicConfig> = heuristic_sets().into_iter().filter(fits).collect();
    let heur = pick(s, &pool);
    Case { set, engine: Eng::Mt, heur, np, chunk_size, source }
}

// ---------------------------------------------------------------------
// running and checking
// ---------------------------------------------------------------------

/// What a case produced.
struct Outcome {
    corrected: Vec<Read>,
    /// The batch run's report (absent for the serve plane, whose
    /// columns are checked as it runs).
    report: Option<RunReport>,
}

/// The identity of a saved snapshot: set, engine, np, parity shards.
type SaveKey = (Set, Eng, usize, usize);

/// One save, run once: the snapshot's directory or why the save failed.
type Saved = Arc<OnceLock<Result<PathBuf, String>>>;

/// Snapshots saved in this process, shared by the tests that run at the
/// same time and removed when the last of them lets go.
pub struct Snapshots {
    dir: PathBuf,
    saved: Mutex<HashMap<SaveKey, Saved>>,
    copies: AtomicU64,
}

impl Snapshots {
    /// The live cache of this process, or a new one in a fresh
    /// temporary directory.
    pub fn shared() -> Arc<Snapshots> {
        static LIVE: Mutex<Weak<Snapshots>> = Mutex::new(Weak::new());
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(snaps) = live.upgrade() {
            return snaps;
        }
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("reptile-contract-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("snapshot scratch dir");
        let snaps = Arc::new(Snapshots { dir, saved: Mutex::default(), copies: AtomicU64::new(0) });
        *live = Arc::downgrade(&snaps);
        snaps
    }

    /// The snapshot of `set` saved by `engine` at `np` ranks with
    /// `parity` parity shards, saved on first use.
    pub fn get(&self, set: Set, engine: Eng, np: usize, parity: usize) -> Result<PathBuf, String> {
        let key = (set, engine, np, parity);
        let cell = {
            let mut saved = self.saved.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(saved.entry(key).or_default())
        };
        cell.get_or_init(|| self.save(key)).clone()
    }

    /// The save run is a case of its own: its output must equal the
    /// oracle, and every rank must report save time and no load time.
    fn save(&self, (set, engine, np, parity): SaveKey) -> Result<PathBuf, String> {
        let dir = self.dir.join(format!("{set:?}-{engine:?}-np{np}-parity{parity}"));
        let cfg = EngineConfig {
            save_spectrum: Some(dir.clone()),
            parity,
            ..Case::new(set, engine, np).config()
        };
        let label = format!("save by {engine:?} at np={np}");
        let saved = run_engine(engine, &cfg, &fixture(set).reads)
            .map_err(|e| format!("{label}: run failed: {e}"))?;
        same_as_oracle(&saved.corrected, &fixture(set).oracle)
            .map_err(|e| format!("{label}: saving must not perturb correction: {e}"))?;
        if saved.report.snapshot_bytes_written() == 0 {
            return Err(format!("{label}: no snapshot bytes written"));
        }
        for r in &saved.report.ranks {
            if !(r.snapshot_save_secs > 0.0 && r.snapshot_load_secs == 0.0) {
                return Err(format!(
                    "{label}: rank {} save/load secs {}/{}, want >0/0",
                    r.rank, r.snapshot_save_secs, r.snapshot_load_secs
                ));
            }
        }
        Ok(dir)
    }

    /// A private copy of a saved snapshot, to damage.
    pub fn copy(&self, src: &Path) -> PathBuf {
        let n = self.copies.fetch_add(1, Ordering::Relaxed);
        let dst = self.dir.join(format!("copy{n}"));
        std::fs::create_dir_all(&dst).expect("snapshot copy dir");
        for entry in std::fs::read_dir(src).expect("read snapshot dir") {
            let entry = entry.expect("snapshot dir entry");
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy shard");
        }
        dst
    }
}

impl Drop for Snapshots {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run one case through its source.
fn execute(case: &Case, snaps: &Snapshots) -> Result<Outcome, String> {
    let fx = fixture(case.set);
    let mut cfg = case.config();
    match case.source {
        Source::Fresh => {}
        Source::Snapshot { save_engine, save_np } => {
            cfg.load_spectrum = Some(snaps.get(case.set, save_engine, save_np, 0)?);
        }
        Source::Repaired { kind, damage } => {
            let saved = snaps.get(case.set, case.engine, case.np, 1)?;
            let dir = snaps.copy(&saved);
            let manifest = Manifest::read(&dir).map_err(|e| format!("manifest: {e}"))?;
            let shard = manifest.shard(0, kind).expect("rank-0 shard listed");
            inflict(&dir.join(&shard.file_name), damage);
            cfg.load_spectrum = Some(dir);
            cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        }
        Source::Ooc { budget } => cfg.memory_budget = Some(budget),
        Source::Serve => {
            cfg.load_spectrum = Some(snaps.get(case.set, Eng::Mt, case.np, 0)?);
            return serve(cfg, &requests(case.set).0)
                .map(|corrected| Outcome { corrected, report: None });
        }
    }
    let out = run_engine(case.engine, &cfg, &fx.reads).map_err(|e| format!("run failed: {e}"))?;
    Ok(Outcome { corrected: out.corrected, report: Some(out.report) })
}

/// Feed `reads` to a serve engine started from `cfg`'s snapshot and
/// return the responses in id order. The serve columns: the queue stays
/// within its depth and keeps making progress ([`drive`]), every request
/// completes undegraded, and the accounting adds up.
fn serve(cfg: EngineConfig, reads: &[Read]) -> Result<Vec<Read>, String> {
    let config = ServeConfig { queue_depth: 64, max_batch: 32 };
    let engine =
        ServeEngine::start(cfg, config, Vec::new()).map_err(|e| format!("serve start: {e}"))?;
    let (responses, _, max_queue) =
        drive(&engine, reads, config.queue_depth, Duration::from_secs(60));
    let report = engine.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;
    if max_queue > config.queue_depth {
        return Err(format!("queue unbounded: {max_queue} > {}", config.queue_depth));
    }
    if report.completed != reads.len() as u64
        || report.lookups.keys_degraded != 0
        || report.batches == 0
        || report.mean_batch() < 1.0
        || responses.iter().any(|r| r.degraded)
    {
        return Err(format!("serve accounting: {report:?}"));
    }
    Ok(responses.into_iter().map(|r| r.read).collect())
}

/// Submit every read (retrying on backpressure) and drain until all
/// complete, asserting the queue never exceeds its high-water mark and
/// that progress never stalls longer than `progress` — a wedged queue
/// fails here instead of hanging the test runner.
pub fn drive(
    engine: &ServeEngine,
    reads: &[Read],
    depth: usize,
    progress: Duration,
) -> (Vec<ServeResponse>, u64, usize) {
    let mut responses = Vec::with_capacity(reads.len());
    let mut rejected = 0u64;
    let mut max_queue = 0usize;
    let mut last_progress = Instant::now();
    for read in reads {
        let mut pending = read.clone();
        loop {
            max_queue = max_queue.max(engine.queue_len());
            match engine.submit(pending.id, pending) {
                Ok(()) => {
                    last_progress = Instant::now();
                    break;
                }
                Err(SubmitError::Backpressure { read, retry_after, queue_len }) => {
                    assert!(
                        queue_len <= depth,
                        "queue overflowed its high-water mark: {queue_len} > {depth}"
                    );
                    rejected += 1;
                    let before = responses.len();
                    responses.append(&mut engine.drain());
                    if responses.len() > before {
                        last_progress = Instant::now();
                    }
                    assert!(
                        last_progress.elapsed() < progress,
                        "no progress for {progress:?} with the queue full — serve plane wedged"
                    );
                    std::thread::sleep(retry_after.min(Duration::from_millis(20)));
                    pending = read;
                }
                Err(SubmitError::Closed(_)) => panic!("engine closed mid-test"),
            }
        }
    }
    while responses.len() < reads.len() {
        let before = responses.len();
        responses.append(&mut engine.drain());
        if responses.len() > before {
            last_progress = Instant::now();
        }
        assert!(
            last_progress.elapsed() < progress,
            "drained {}/{} then no progress for {progress:?} — serve plane wedged",
            responses.len(),
            reads.len()
        );
        std::thread::sleep(Duration::from_micros(500));
    }
    responses.sort_unstable_by_key(|r| r.read.id);
    (responses, rejected, max_queue)
}

/// `Ok` when `got` is the oracle output, else where they first differ.
fn same_as_oracle(got: &[Read], oracle: &[Read]) -> Result<(), String> {
    if got == oracle {
        return Ok(());
    }
    if got.len() != oracle.len() {
        return Err(format!("{} reads out, oracle has {}", got.len(), oracle.len()));
    }
    let i = got.iter().zip(oracle).position(|(a, b)| a != b).expect("a differing read");
    Err(format!(
        "read #{i} (id {}) diverges from the oracle:\n  got    {}\n  oracle {}",
        oracle[i].id,
        String::from_utf8_lossy(&got[i].seq),
        String::from_utf8_lossy(&oracle[i].seq)
    ))
}

/// The single-case columns.
fn verify(case: &Case, out: &Outcome) -> Result<(), String> {
    let fx = fixture(case.set);
    let oracle = if case.source == Source::Serve { &requests(case.set).1 } else { &fx.oracle };
    same_as_oracle(&out.corrected, oracle)?;
    let Some(report) = &out.report else { return Ok(()) };
    let ranks = &report.ranks;
    // correction statistics: the engines count what the oracle counts
    if report.errors_corrected() != fx.stats.errors_corrected {
        return Err(format!(
            "errors corrected {} != oracle {}",
            report.errors_corrected(),
            fx.stats.errors_corrected
        ));
    }
    let processed: u64 = ranks.iter().map(|r| r.reads_processed).sum();
    if processed != fx.reads.len() as u64 {
        return Err(format!("{processed} reads processed of {}", fx.reads.len()));
    }
    // fault-free: nothing degrades
    if ranks.iter().any(|r| r.lookups.keys_degraded != 0) {
        return Err("fault-free run degraded keys".into());
    }
    // routing: a tier that holds every key answers every lookup locally
    let h = &case.heur;
    for r in ranks {
        let l = &r.lookups;
        let all_local = case.np == 1 || h.partial_group >= case.np;
        if (h.replicate_kmers || all_local) && l.remote_kmer_lookups != 0
            || (h.replicate_tiles || all_local) && l.remote_tile_lookups != 0
        {
            return Err(format!("rank {}: a lookup left a tier that holds it: {l:?}", r.rank));
        }
    }
    // aggregate mode: no lookup falls back to a single-key round trip,
    // and every rank with remote keys to fetch sends batches
    if h.aggregate_lookups {
        if report.remote_lookups() != 0 {
            return Err(format!("{} single-key fallbacks", report.remote_lookups()));
        }
        let fetches = h.partial_group < case.np
            && h.hot_shard_k == 0
            && !(h.replicate_kmers && h.replicate_tiles);
        if let Some(r) = ranks.iter().find(|r| fetches && r.lookups.batches_sent == 0) {
            return Err(format!("rank {} sent no batch", r.rank));
        }
    }
    // snapshots: loads account their I/O and time, plain runs none
    match case.source {
        Source::Snapshot { .. } | Source::Repaired { .. } => {
            if report.snapshot_bytes_read() == 0 {
                return Err("load read no snapshot bytes".into());
            }
            if let Some(r) =
                ranks.iter().find(|r| !(r.snapshot_load_secs > 0.0 && r.snapshot_save_secs == 0.0))
            {
                return Err(format!(
                    "rank {} load/save secs {}/{}, want >0/0",
                    r.rank, r.snapshot_load_secs, r.snapshot_save_secs
                ));
            }
        }
        _ => {
            if let Some(r) =
                ranks.iter().find(|r| r.snapshot_load_secs + r.snapshot_save_secs != 0.0)
            {
                return Err(format!("rank {}: a plain run carries snapshot time", r.rank));
            }
        }
    }
    // repair: the lost shard was rebuilt
    if let Source::Repaired { .. } = case.source {
        if report.shards_repaired() == 0 || report.repair_bytes() == 0 {
            return Err(format!(
                "repaired {} shards, {} bytes",
                report.shards_repaired(),
                report.repair_bytes()
            ));
        }
    }
    Ok(())
}

/// The two-engine columns, for two runs of one point: fault-free, each
/// rank routes every lookup the same way, and the virtual engine replays
/// the build's occurrence walk, so the counters agree. Under stealing
/// the threaded engine's chunks move between ranks with timing, so only
/// the build counters are compared.
fn twin_columns(case: &Case, mt: &RunReport, virt: &RunReport) -> Result<(), String> {
    // excluded: measured table bytes, wall-clock, and the spill plane
    let counters = |b: &BuildStats| BuildStats {
        table_bytes: 0,
        extract_ns: 0,
        exchange_ns: 0,
        overlap_ns: 0,
        merge_ns: 0,
        spill_runs: 0,
        spill_bytes: 0,
        ooc_peak_bytes: 0,
        ..*b
    };
    for (m, v) in mt.ranks.iter().zip(&virt.ranks) {
        if !case.heur.steal_chunks && m.lookups != v.lookups {
            return Err(format!(
                "rank {} lookup stats differ:\n  mt      {:?}\n  virtual {:?}",
                m.rank, m.lookups, v.lookups
            ));
        }
        let built = matches!(case.source, Source::Fresh | Source::Ooc { .. });
        if built && counters(&m.build) != counters(&v.build) {
            return Err(format!(
                "rank {} build stats differ:\n  mt      {:?}\n  virtual {:?}",
                m.rank, m.build, v.build
            ));
        }
    }
    Ok(())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
    format!("panicked: {}", text.unwrap_or("(non-string payload)"))
}

/// Record a failing draw under `target/` and panic with its label and
/// seed.
fn fail(draw: &Draw, msg: &str, reports: &[&RunReport]) -> ! {
    let label = draw.case.label();
    let mut text = format!("draw #{} [{label}] seed {:?}\n{msg}\n", draw.n, draw.seed);
    for report in reports {
        let _ = writeln!(text, "\n{report:#?}");
    }
    let path = format!("target/contract-failures/draw-{}.txt", draw.n);
    let kept = std::fs::create_dir_all("target/contract-failures")
        .and_then(|()| std::fs::write(&path, text))
        .map_or_else(|e| format!("report not written: {e}"), |()| format!("report in {path}"));
    panic!("draw #{} [{label}] seed {:?}: {msg} ({kept})", draw.n, draw.seed);
}

/// Run `draws` in order, checking each against the oracle and every
/// pair of engine twins against each other.
fn check(draws: impl IntoIterator<Item = Draw>) {
    let snaps = Snapshots::shared();
    let mut twins: HashMap<String, (Eng, RunReport)> = HashMap::new();
    for draw in draws {
        let case = &draw.case;
        println!("draw #{} {}", draw.n, case.label());
        // a panic inside the case (an engine, the serve driver) is a
        // failure of the draw like any other
        let run = panic::catch_unwind(AssertUnwindSafe(|| execute(case, &snaps)));
        let out = match run.unwrap_or_else(|p| Err(panic_message(p))) {
            Ok(out) => out,
            Err(e) => fail(&draw, &e, &[]),
        };
        let report = out.report.as_ref();
        if let Err(e) = verify(case, &out) {
            fail(&draw, &e, &report.into_iter().collect::<Vec<_>>());
        }
        let Some(report) = out.report else { continue };
        match twins.remove(&case.twin_key()) {
            Some((other, twin)) if other != case.engine => {
                let (mt, virt) =
                    if case.engine == Eng::Mt { (&report, &twin) } else { (&twin, &report) };
                if let Err(e) = twin_columns(case, mt, virt) {
                    fail(&draw, &e, &[mt, virt]);
                }
            }
            _ => {
                twins.insert(case.twin_key(), (case.engine, report));
            }
        }
    }
}

/// Run the slice of the matrix that reproduces `grid`.
pub fn check_grid(grid: Grid) {
    check(draws().into_iter().filter(|d| d.grid == Some(grid)));
}

/// Run the seeded random draws.
pub fn check_random() {
    check(draws().into_iter().filter(|d| d.grid.is_none()));
}
