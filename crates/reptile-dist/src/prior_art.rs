//! The prior-art parallelization: replicated spectra + dynamic
//! master–worker scheduling (Shah et al. IPDPS'12, Jammula et al.
//! HiPC'15 — the approaches §II-B contrasts with).
//!
//! "Previous approaches to parallelize Reptile have either replicated
//! k-mer and tile spectrum on each process or on each node ... A dynamic
//! work allocation scheme that depends upon a global master which
//! coordinates the entire work allocation mechanism ... The actual error
//! correction is performed by worker threads ... who fetch chunks of
//! sequences from the work-queue."
//!
//! Two realizations:
//!
//! * [`run_prior_art`] — on the threaded runtime: every rank holds the
//!   full spectra (allgathered); rank 0 runs a master thread handing out
//!   chunk indices on demand; workers request, correct, repeat. No
//!   correction-phase spectrum messages (everything is local), but the
//!   full-spectrum memory footprint the paper set out to eliminate.
//! * [`run_prior_art_virtual`] — the modeled counterpart: per-chunk
//!   costs measured by running the real corrector, then greedy
//!   list-scheduling onto `np` ranks (what dynamic self-scheduling
//!   converges to), plus a master round-trip charge per chunk.
//!
//! Comparing these against the paper's engine (`figures -- prior-art`)
//! reproduces the motivation table: the prior art wins on time at small
//! scale and loses the memory war as datasets grow.

use crate::heuristics::HeuristicConfig;
use crate::report::{LookupStats, RankReport, RunReport};
use crate::spectrum::build_distributed_serial;
use dnaseq::Read;
use mpisim::message::{WireReader, WireWriter};
use mpisim::{CostModel, Source, TagSel, Topology, Universe};
use reptile::spectrum::LocalSpectra;
use reptile::{correct_read, CorrectionStats, ReptileParams, SpectrumAccess};
use std::time::Instant;

/// Tag: worker asks the global master for a chunk.
const TAG_WORK_REQ: u32 = 0x20;
/// Tag: master's reply (chunk index, or the NONE sentinel).
const TAG_WORK_ASSIGN: u32 = 0x21;
/// Sentinel meaning "queue drained, stop".
const WORK_NONE: u64 = u64::MAX;

/// Configuration for a prior-art run.
#[derive(Clone, Copy, Debug)]
pub struct PriorArtConfig {
    /// Number of ranks (each holding the full spectra).
    pub np: usize,
    /// Node layout.
    pub topology: Topology,
    /// Reads per work-queue chunk.
    pub chunk_size: usize,
    /// Corrector parameters.
    pub params: ReptileParams,
}

impl PriorArtConfig {
    /// Defaults mirroring [`crate::EngineConfig::new`].
    pub fn new(np: usize, params: ReptileParams) -> PriorArtConfig {
        PriorArtConfig { np, topology: Topology::single_node(), chunk_size: 200, params }
    }
}

/// Run the replicated + dynamic-master pipeline on real threads.
pub fn run_prior_art(cfg: &PriorArtConfig, reads: &[Read]) -> crate::RunOutput {
    cfg.params.assert_valid();
    let np = cfg.np;
    let n_chunks = reads.len().div_ceil(cfg.chunk_size);
    let universe = Universe::with_topology(np, cfg.topology);
    let per_rank: Vec<(Vec<Read>, RankReport)> = universe.run(|comm| {
        let me = comm.rank();
        let t0 = Instant::now();
        // --- replicate the spectra on every rank (allgather) ---
        let lo = reads.len() * me / np;
        let hi = reads.len() * (me + 1) / np;
        let heur = HeuristicConfig {
            replicate_kmers: true,
            replicate_tiles: true,
            load_balance: false,
            ..HeuristicConfig::default()
        };
        // Prior art keeps the faithful serial build (it models the
        // original Reptile program, not this paper's pipeline).
        let (tables, build_stats) =
            build_distributed_serial(comm, &reads[lo..hi], cfg.chunk_size, &cfg.params, &heur);
        let mut spectra = LocalSpectra {
            kmers: tables.kmers.replicated.expect("replication requested"),
            tiles: tables.tiles.replicated.expect("replication requested"),
        };
        comm.barrier();
        let construct_secs = t0.elapsed().as_secs_f64();

        // --- dynamic correction: master thread on rank 0 ---
        let t1 = Instant::now();
        let mut corrected: Vec<Read> = Vec::new();
        let mut correction = CorrectionStats::default();
        let mut lookups = LookupStats::default();
        std::thread::scope(|s| {
            let master = if me == 0 {
                Some(s.spawn(|| {
                    let mut next = 0u64;
                    let mut stopped = 0usize;
                    while stopped < np {
                        let req = comm.recv(Source::Any, TagSel::Tag(TAG_WORK_REQ));
                        let assignment = if next < n_chunks as u64 {
                            let a = next;
                            next += 1;
                            a
                        } else {
                            stopped += 1;
                            WORK_NONE
                        };
                        let mut w = WireWriter::with_capacity(8);
                        w.put_u64(assignment);
                        comm.send(req.src, TAG_WORK_ASSIGN, w.finish());
                    }
                }))
            } else {
                None
            };
            // worker loop (every rank, including the master's rank)
            loop {
                comm.send(0, TAG_WORK_REQ, Vec::new());
                let resp = comm.recv(Source::Rank(0), TagSel::Tag(TAG_WORK_ASSIGN));
                let chunk = WireReader::new(&resp.payload).get_u64();
                if chunk == WORK_NONE {
                    break;
                }
                let lo = chunk as usize * cfg.chunk_size;
                let hi = (lo + cfg.chunk_size).min(reads.len());
                for read in &reads[lo..hi] {
                    let mut read = read.clone();
                    let outcome = correct_read(
                        &mut read,
                        &mut CountingLocal { spectra: &mut spectra, lookups: &mut lookups },
                        &cfg.params,
                    );
                    correction.absorb(&outcome);
                    corrected.push(read);
                }
            }
            if let Some(m) = master {
                m.join().expect("master thread panicked");
            }
        });
        let correct_secs = t1.elapsed().as_secs_f64();
        comm.barrier();
        let cost = CostModel::bgq();
        let report = RankReport {
            rank: me,
            reads_processed: corrected.len() as u64,
            build: build_stats,
            correction,
            lookups,
            construct_secs,
            correct_secs,
            comm_secs: 0.0,
            memory_bytes: cost
                .rank_memory_bytes(spectra.kmers.len() as u64, spectra.tiles.len() as u64),
            ..Default::default()
        };
        (corrected, report)
    });
    let mut corrected = Vec::new();
    let mut ranks = Vec::with_capacity(np);
    for (mine, report) in per_rank {
        corrected.extend(mine);
        ranks.push(report);
    }
    corrected.sort_by_key(|r| r.id);
    crate::RunOutput {
        corrected,
        report: RunReport { ranks, topology: cfg.topology, cost: CostModel::bgq() },
    }
}

/// Local-lookup adapter that counts lookups into [`LookupStats`].
struct CountingLocal<'a> {
    spectra: &'a mut LocalSpectra,
    lookups: &'a mut LookupStats,
}

impl SpectrumAccess for CountingLocal<'_> {
    fn kmer_count(&mut self, code: u64) -> u32 {
        self.lookups.local_kmer_lookups += 1;
        self.spectra.kmer_count(code)
    }

    fn tile_count(&mut self, code: u128) -> u32 {
        self.lookups.local_tile_lookups += 1;
        self.spectra.tile_count(code)
    }
}

/// Modeled prior-art run: per-chunk costs from the real corrector,
/// greedy list scheduling (what a dynamic master converges to), zero
/// lookup messages, full-spectrum memory, one master round-trip per
/// chunk. `scale` as in [`crate::EngineConfig`].
pub fn run_prior_art_virtual(
    cfg: &PriorArtConfig,
    reads: &[Read],
    cost: &CostModel,
    scale: f64,
) -> RunReport {
    cfg.params.assert_valid();
    let np = cfg.np;
    let spectra = LocalSpectra::build(reads, &cfg.params);
    let smt = cost.smt_factor(cfg.topology.threads_per_node(np));

    // measure per-chunk compute cost with the real corrector
    let n_chunks = reads.len().div_ceil(cfg.chunk_size);
    let mut chunk_cost_ns = vec![0f64; n_chunks.max(1)];
    let mut chunk_stats: Vec<(CorrectionStats, LookupStats)> =
        vec![(CorrectionStats::default(), LookupStats::default()); n_chunks.max(1)];
    let mut work = spectra.clone();
    for (c, chunk) in reads.chunks(cfg.chunk_size.max(1)).enumerate() {
        let mut lookups = LookupStats::default();
        let mut correction = CorrectionStats::default();
        let mut bases = 0u64;
        for read in chunk {
            bases += read.len() as u64;
            let mut read = read.clone();
            let outcome = correct_read(
                &mut read,
                &mut CountingLocal { spectra: &mut work, lookups: &mut lookups },
                &cfg.params,
            );
            correction.absorb(&outcome);
        }
        let local = lookups.local_kmer_lookups + lookups.local_tile_lookups;
        chunk_cost_ns[c] = local as f64 * cost.hash_lookup_ns + bases as f64 * cost.per_base_ns;
        chunk_stats[c] = (correction, lookups);
    }

    // greedy list scheduling: each chunk goes to the earliest-free rank
    // (+ master round trip per fetch)
    let master_rt = 2.0 * cost.net_latency_ns + cost.request_service_ns;
    let mut rank_clock = vec![0f64; np];
    let mut rank_correction = vec![CorrectionStats::default(); np];
    let mut rank_lookups = vec![LookupStats::default(); np];
    let mut rank_reads = vec![0u64; np];
    for c in 0..n_chunks {
        let rank =
            (0..np).min_by(|&a, &b| rank_clock[a].total_cmp(&rank_clock[b])).expect("np >= 1");
        rank_clock[rank] += chunk_cost_ns[c] + master_rt;
        rank_correction[rank].merge(&chunk_stats[c].0);
        rank_lookups[rank].merge(&chunk_stats[c].1);
        rank_reads[rank] +=
            reads.len().min((c + 1) * cfg.chunk_size).saturating_sub(c * cfg.chunk_size) as u64;
    }

    let full_k = spectra.kmers.len() as u64;
    let full_t = spectra.tiles.len() as u64;
    let ranks = (0..np)
        .map(|r| RankReport {
            rank: r,
            reads_processed: rank_reads[r],
            build: Default::default(),
            correction: rank_correction[r],
            lookups: rank_lookups[r],
            construct_secs: 0.0,
            correct_secs: rank_clock[r] * smt * 1e-9 * scale,
            comm_secs: 0.0,
            memory_bytes: cost
                .rank_memory_bytes((full_k as f64 * scale) as u64, (full_t as f64 * scale) as u64),
            ..Default::default()
        })
        .collect();
    RunReport { ranks, topology: cfg.topology, cost: *cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile::correct_dataset;

    fn params() -> ReptileParams {
        ReptileParams {
            k: 6,
            tile_overlap: 3,
            kmer_threshold: 2,
            tile_threshold: 2,
            ..ReptileParams::default()
        }
    }

    fn dataset(n: usize) -> Vec<Read> {
        let genome: Vec<u8> = (0..3000)
            .map(|i| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(i as u64) % 4) as usize])
            .collect();
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

    #[test]
    fn prior_art_matches_sequential() {
        let reads = dataset(120);
        let p = params();
        let (seq, seq_stats) = correct_dataset(&reads, &p);
        for np in [1usize, 2, 4] {
            let mut cfg = PriorArtConfig::new(np, p);
            cfg.chunk_size = 7;
            let out = run_prior_art(&cfg, &reads);
            assert_eq!(out.corrected, seq, "np={np}");
            assert_eq!(out.report.errors_corrected(), seq_stats.errors_corrected);
        }
    }

    #[test]
    fn every_read_processed_exactly_once() {
        let reads = dataset(101);
        let mut cfg = PriorArtConfig::new(3, params());
        cfg.chunk_size = 10;
        let out = run_prior_art(&cfg, &reads);
        assert_eq!(out.corrected.len(), reads.len());
        let total: u64 = out.report.ranks.iter().map(|r| r.reads_processed).sum();
        assert_eq!(total, reads.len() as u64);
        // no spectrum messages in the replicated mode
        for r in &out.report.ranks {
            assert_eq!(r.lookups.remote_total(), 0);
        }
    }

    #[test]
    fn virtual_prior_art_is_balanced_and_memory_heavy() {
        let reads = dataset(400);
        let p = params();
        let cost = CostModel::bgq();
        let cfg = PriorArtConfig { chunk_size: 10, ..PriorArtConfig::new(8, p) };
        let report = run_prior_art_virtual(&cfg, &reads, &cost, 1.0);
        // greedy scheduling keeps ranks within one chunk of each other
        let max = report.correct_secs();
        let mean = report.correct_secs_mean();
        assert!(max <= mean * 1.5 + 1e-9, "dynamic scheduling balances: {max} vs {mean}");
        // memory equals the full spectra on every rank
        let dist =
            crate::engine_virtual::run_virtual(&crate::EngineConfig::virtual_cluster(8, p), &reads);
        assert!(
            report.peak_memory_bytes() >= dist.report.peak_memory_bytes(),
            "replication must cost at least as much memory"
        );
        // and no communication time
        assert!(report.ranks.iter().all(|r| r.comm_secs == 0.0));
    }

    #[test]
    fn virtual_prior_art_faster_but_fatter_than_distributed() {
        let reads = dataset(600);
        let p = params();
        let cost = CostModel::bgq();
        let np = 16;
        let pa = run_prior_art_virtual(
            &PriorArtConfig { chunk_size: 20, ..PriorArtConfig::new(np, p) },
            &reads,
            &cost,
            1.0,
        );
        let dist = crate::engine_virtual::run_virtual(
            &crate::EngineConfig::virtual_cluster(np, p),
            &reads,
        );
        assert!(
            pa.correct_secs() < dist.report.correct_secs(),
            "no lookup messages -> faster correction ({} vs {})",
            pa.correct_secs(),
            dist.report.correct_secs()
        );
    }

    #[test]
    fn single_rank_prior_art() {
        let reads = dataset(30);
        let cfg = PriorArtConfig::new(1, params());
        let out = run_prior_art(&cfg, &reads);
        assert_eq!(out.corrected.len(), 30);
    }
}
