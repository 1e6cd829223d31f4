//! The four workloads and their set-up: inputs from the seed, files on
//! disk, and the sequential oracle every output is checked against.

use crate::gate;
use crate::trace::Tracer;
use dnaseq::Read;
use genio::fasta::RecordReader;
use genio::{DatasetProfile, MixComponent, RequestMix, RunConfig};
use reptile::{correct_read, LocalSpectra, ReptileParams};
use reptile_dist::HeuristicConfig;
use std::path::{Path, PathBuf};

/// Ranks unless a workload says otherwise: the smallest count at which
/// ownership is distributed, and this host has two cores.
pub const NP: usize = 2;

/// Seed the committed baseline was measured with; 2017 is the hold-out.
pub const DEFAULT_SEED: u64 = 2016;

/// One set of corrector parameters for all four workloads.
pub fn params() -> ReptileParams {
    ReptileParams {
        k: 12,
        tile_overlap: 6,
        kmer_threshold: 5,
        tile_threshold: 4,
        ..Default::default()
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Ranks of the batch command. `remote_base` (and `aggregate_sharded`,
    /// which must stay its twin) runs four on two cores: with two, each
    /// worker blocks on every lookup, the virtual CPUs go idle between
    /// messages, and wall-clock follows the hypervisor's wake-up latency
    /// (sd 16% of the mean over 24 interleaved trials, against 7% with
    /// four ranks, where a core always has a runnable thread).
    pub np: usize,
    /// Which layers it loads and which it starves (one line, for
    /// `BENCHMARK.json` and the README).
    pub why: &'static str,
    /// What `reptile-correct <cfg> --np <np>` gets appended (`serve_open`
    /// also gets `--spectrum-out <dir>`).
    cli_flags: &'static [&'static str],
    /// The in-process twin of `cli_flags`, for the traced pass.
    pub heuristics: fn() -> HeuristicConfig,
    /// End-to-end numbers come from the serve plane, not from CLI trials.
    pub serve: bool,
    /// Open-loop arrival rate, requests/s. Absolute, so that two commits
    /// see identical schedules.
    pub serve_rate: f64,
    divisor: usize,
}

fn base() -> HeuristicConfig {
    HeuristicConfig::base()
}

fn aggregate() -> HeuristicConfig {
    HeuristicConfig { aggregate_lookups: true, ..HeuristicConfig::base() }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "remote_base",
        np: 4,
        why: "base mode: every non-owned lookup is a one-key round trip, so mailbox, wire codec \
              and the engine_mt lookup chain do the work; build and local probes almost none",
        cli_flags: &[],
        heuristics: base,
        serve: false,
        serve_rate: 1500.0,
        divisor: 1800,
    },
    Workload {
        name: "aggregate_sharded",
        np: 4,
        why:
            "same data with --aggregate: 14x fewer remote keys ride owner sweeps; time and memory \
              sit in prefetch key enumeration and its cache, not in round trips",
        cli_flags: &["--aggregate"],
        heuristics: aggregate,
        serve: false,
        serve_rate: 1500.0,
        divisor: 1800,
    },
    Workload {
        name: "replicated_local",
        np: NP,
        why: "--replicate both: zero remote lookups, so wall is ingest, extract, exchange, \
              allgather, bulk load, local Step IV and output; the write side of the tables",
        cli_flags: &["--replicate", "both"],
        heuristics: HeuristicConfig::replicate_both,
        serve: false,
        serve_rate: 1500.0,
        divisor: 100,
    },
    Workload {
        name: "serve_open",
        np: NP,
        why: "the request path from a snapshot: queueing, micro-batching and Step IV per read, \
              closed-loop bursts for capacity then open-loop Poisson arrivals at a fixed rate",
        cli_flags: &["--replicate", "both", "--parity", "1"],
        heuristics: HeuristicConfig::replicate_both,
        serve: true,
        serve_rate: 6000.0,
        divisor: 1,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's `reptile-correct` options after the config file.
    pub fn cli_flags(&self, p: &Prepared) -> Vec<String> {
        let mut flags = vec!["--np".to_string(), self.np.to_string()];
        flags.extend(self.cli_flags.iter().map(|f| f.to_string()));
        if self.serve {
            flags.extend(["--spectrum-out".to_string(), p.snapshot().display().to_string()]);
        }
        flags
    }

    /// The reads the spectrum is built from (and, for the batch
    /// workloads, the reads that are corrected).
    pub fn profile(&self, smoke: bool) -> DatasetProfile {
        let shrink = if smoke { 20 } else { 1 };
        if self.serve {
            // deep 60 bp coverage of a 250 kb genome: the serve_bench profile
            return DatasetProfile {
                name: "serve-spectrum".into(),
                genome_len: 250_000,
                read_len: 60,
                n_reads: 80_000,
                base_error_rate: 0.003,
                hotspot_count: 2,
                both_strands: false,
                n_rate: 0.0,
                ..DatasetProfile::ecoli_like()
            }
            .scaled(shrink);
        }
        DatasetProfile::ecoli_like().scaled(self.divisor * shrink)
    }

    /// The engine's heuristics when this workload's reads are served as
    /// requests: tiles replicated at start-up, k-mers owner-sharded and
    /// fetched by the micro-batch's aggregated round trips.
    pub fn serve_heuristics() -> HeuristicConfig {
        HeuristicConfig {
            aggregate_lookups: true,
            replicate_tiles: true,
            ..HeuristicConfig::base()
        }
    }
}

/// What set-up leaves behind for the timed section.
pub struct Prepared {
    pub dir: PathBuf,
    pub files: Inputs,
    pub reads: Vec<Read>,
    /// The oracle's spectrum over `reads`.
    pub spectra: LocalSpectra,
    /// `reads` as the oracle corrects them, rendered as the FASTA file the
    /// program must write (`None`: see `prepare`'s `correct_inputs`).
    pub expected_fasta: Option<Vec<u8>>,
    /// Request pools: weight, reads (ids 1..) and the oracle's sequences.
    pub pools: Vec<Pool>,
}

pub struct Pool {
    pub weight: f64,
    pub reads: Vec<Read>,
    pub expected: Vec<Vec<u8>>,
}

impl Prepared {
    /// Where this set-up's spectrum snapshot goes.
    pub fn snapshot(&self) -> PathBuf {
        self.dir.join("snap")
    }

    pub fn input_bytes(&self) -> std::io::Result<u64> {
        Ok(std::fs::metadata(&self.files.fasta)?.len() + std::fs::metadata(&self.files.qual)?.len())
    }
}

pub fn mix(pools: &[Pool]) -> RequestMix {
    RequestMix::new(
        pools.iter().map(|p| MixComponent { weight: p.weight, reads: p.reads.clone() }).collect(),
    )
}

/// The files one `reptile-correct` run needs.
pub struct Inputs {
    pub config: PathBuf,
    pub fasta: PathBuf,
    pub qual: PathBuf,
    pub output: PathBuf,
}

/// Write `reads` and a run config for them under `dir`.
pub fn write_inputs(dir: &Path, reads: &[Read]) -> Result<Inputs, String> {
    let params = params();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let inputs = Inputs {
        config: dir.join("run.config"),
        fasta: dir.join("reads.fa"),
        qual: dir.join("reads.qual"),
        output: dir.join("corrected.fa"),
    };
    genio::qual::write_dataset(&inputs.fasta, &inputs.qual, reads)
        .map_err(|e| format!("write dataset: {e}"))?;
    let run_config = RunConfig {
        fasta_file: inputs.fasta.clone(),
        qual_file: inputs.qual.clone(),
        output_file: inputs.output.clone(),
        k: params.k,
        tile_overlap: params.tile_overlap,
        chunk_size: 2000,
        kmer_threshold: params.kmer_threshold,
        tile_threshold: params.tile_threshold,
        q_threshold: params.q_threshold,
        max_errors_per_tile: params.max_errors_per_tile,
        max_positions_per_tile: params.max_positions_per_tile,
        max_candidates: params.max_candidates,
        canonical: params.canonical,
    };
    std::fs::write(&inputs.config, run_config.to_text())
        .map_err(|e| format!("write config: {e}"))?;
    Ok(inputs)
}

fn oracle(reads: &[Read], spectra: &mut LocalSpectra, params: &ReptileParams) -> Vec<Vec<u8>> {
    reads
        .iter()
        .map(|r| {
            let mut read = r.clone();
            correct_read(&mut read, spectra, params);
            read.seq
        })
        .collect()
}

/// `serve_open`'s request pools: weight, reads, read length, error rate.
/// 75% 60 bp reads at the spectrum's error rate, 25% 100 bp reads at a
/// higher one.
const SERVE_POOLS: [(f64, usize, usize, f64); 2] =
    [(3.0, 3000, 60, 0.003), (1.0, 1500, 100, 0.008)];

/// Generate the workload's inputs from `seed`, write them under `dir`, and
/// run the oracle. The timed part of every set-up except what only
/// `serve_open` adds (snapshot save and engine start, see `run`).
///
/// `correct_inputs` is false only where nothing corrects the spectrum's
/// own reads: `serve_open`'s untraced pass checks requests, and the
/// oracle over its 80 000 reads would be most of its set-up.
pub fn prepare(
    w: &Workload,
    seed: u64,
    smoke: bool,
    dir: &Path,
    correct_inputs: bool,
    tracer: &Tracer,
) -> Result<Prepared, String> {
    let params = params();
    let profile = w.profile(smoke);
    let reads = tracer.span("setup.dataset_gen", || profile.generate(seed).reads);
    let inputs = tracer.span("setup.file_write", || write_inputs(dir, &reads))?;

    tracer.span("setup.oracle", || {
        let mut spectra = LocalSpectra::build(&reads, &params);
        let expected_fasta = correct_inputs.then(|| {
            let corrected = oracle(&reads, &mut spectra, &params);
            gate::render_fasta(reads.iter().map(|r| r.id).zip(&corrected))
        });

        // serve_open's pools sit on the spectrum's genome: the same seed and
        // genome length give the same genome draw. The batch workloads'
        // traced serve probe replays their own first reads.
        let pools = if w.serve {
            let shrink = if smoke { 20 } else { 1 };
            SERVE_POOLS
                .into_iter()
                .map(|(weight, n_reads, read_len, base_error_rate)| {
                    let pool = DatasetProfile {
                        n_reads: n_reads / shrink,
                        read_len,
                        base_error_rate,
                        ..profile.clone()
                    }
                    .generate(seed)
                    .reads;
                    let expected = oracle(&pool, &mut spectra, &params);
                    Pool { weight, reads: pool, expected }
                })
                .collect()
        } else {
            let pool = reads[..reads.len().min(3000)].to_vec();
            let expected = oracle(&pool, &mut spectra, &params);
            vec![Pool { weight: 1.0, reads: pool, expected }]
        };

        Ok(Prepared {
            dir: dir.to_path_buf(),
            files: inputs,
            reads,
            spectra,
            expected_fasta,
            pools,
        })
    })
}

/// Hand the request pools to the serve child: reads as a FASTA + QUAL
/// pair, the oracle's sequences as FASTA.
pub fn save_pools(dir: &Path, pools: &[Pool]) -> Result<(), String> {
    for (i, pool) in pools.iter().enumerate() {
        genio::qual::write_dataset(
            &dir.join(format!("pool{i}.fa")),
            &dir.join(format!("pool{i}.qual")),
            &pool.reads,
        )
        .map_err(|e| format!("write pool {i}: {e}"))?;
        let expected = gate::render_fasta(pool.reads.iter().map(|r| r.id).zip(&pool.expected));
        std::fs::write(dir.join(format!("pool{i}.expected.fa")), expected)
            .map_err(|e| format!("write pool {i} oracle: {e}"))?;
    }
    Ok(())
}

pub fn load_pools(dir: &Path) -> Result<Vec<Pool>, String> {
    SERVE_POOLS
        .iter()
        .enumerate()
        .map(|(i, &(weight, ..))| {
            let reads = genio::qual::load_dataset(
                &dir.join(format!("pool{i}.fa")),
                &dir.join(format!("pool{i}.qual")),
            )
            .map_err(|e| format!("load pool {i}: {e}"))?;
            let file = std::fs::File::open(dir.join(format!("pool{i}.expected.fa")))
                .map_err(|e| format!("open pool {i} oracle: {e}"))?;
            let expected: Vec<Vec<u8>> = RecordReader::new(std::io::BufReader::new(file))
                .read_all()
                .map_err(|e| format!("load pool {i} oracle: {e}"))?
                .into_iter()
                .map(|record| record.line)
                .collect();
            if expected.len() != reads.len() {
                return Err(format!(
                    "pool {i}: {} reads but {} oracle records",
                    reads.len(),
                    expected.len()
                ));
            }
            Ok(Pool { weight, reads, expected })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = crate::out_dir().join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn off() -> Tracer {
        Tracer::new(false, "test")
    }

    fn input_files(p: &Prepared) -> Vec<Vec<u8>> {
        [&p.files.fasta, &p.files.qual, &p.files.config]
            .iter()
            .map(|f| std::fs::read(f).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let w = by_name("remote_base").unwrap();
        let dir = scratch("seed");
        let a = prepare(w, 7, true, &dir, true, &off()).unwrap();
        let a_files = input_files(&a);
        let b = prepare(w, 7, true, &dir, true, &off()).unwrap();
        assert_eq!(a_files, input_files(&b));
        assert_eq!(a.expected_fasta, b.expected_fasta);
        let c = prepare(w, 8, true, &dir, true, &off()).unwrap();
        assert_ne!(a_files[0], input_files(&c)[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_pools_are_deterministic_and_sit_on_the_spectrum_genome() {
        let w = by_name("serve_open").unwrap();
        let dir = scratch("pools");
        let a = prepare(w, 3, true, &dir, true, &off()).unwrap();
        let b = prepare(w, 3, true, &dir, true, &off()).unwrap();
        assert_eq!(a.pools.len(), 2);
        for (pa, pb) in a.pools.iter().zip(&b.pools) {
            assert_eq!(pa.reads, pb.reads);
            assert_eq!(pa.expected, pb.expected);
        }
        let pool_dir = dir.join("pools");
        std::fs::create_dir_all(&pool_dir).unwrap();
        save_pools(&pool_dir, &a.pools).unwrap();
        let loaded = load_pools(&pool_dir).unwrap();
        for (pa, pl) in a.pools.iter().zip(&loaded) {
            assert_eq!((pa.weight, &pa.reads, &pa.expected), (pl.weight, &pl.reads, &pl.expected));
        }
        // a pool on another genome would find nothing solid to correct with
        let fixed: usize =
            a.pools[1].reads.iter().zip(&a.pools[1].expected).filter(|(r, e)| &r.seq != *e).count();
        assert!(fixed > 0, "the oracle corrects some pool reads");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_are_unique_and_fixed() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ["remote_base", "aggregate_sharded", "replicated_local", "serve_open"]);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
