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
//! The prior art is reproduced as a model only:
//! [`run_prior_art_virtual`] measures per-chunk costs by running the
//! real corrector against the full spectra (every lookup local, so no
//! correction-phase message), then list-schedules the chunks greedily
//! onto `np` ranks (what dynamic self-scheduling converges to) with a
//! master round trip charged per chunk, and prices every rank at the
//! full-spectrum memory footprint the paper set out to eliminate.
//!
//! Comparing it against the paper's engine (`figures -- prior-art`)
//! reproduces the motivation table: the prior art wins on time at small
//! scale and loses the memory war as datasets grow.

use crate::engine::{EngineConfig, EngineError};
use crate::report::{LookupStats, RankReport, RunReport};
use dnaseq::Read;
use reptile::spectrum::LocalSpectra;
use reptile::{correct_read, CorrectionStats, SpectrumAccess};

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
/// chunk. Reads `np`, `topology`, `chunk_size` (one work-queue chunk),
/// `params`, `cost` and `scale` from `cfg`, validated as the engines do.
pub fn run_prior_art_virtual(cfg: &EngineConfig, reads: &[Read]) -> Result<RunReport, EngineError> {
    cfg.validate()?;
    let (cost, scale) = (&cfg.cost, cfg.scale);
    let np = cfg.np;
    let spectra = LocalSpectra::build(reads, &cfg.params);
    let smt = cost.smt_factor(cfg.topology.threads_per_node(np));

    // measure per-chunk compute cost with the real corrector
    let n_chunks = reads.len().div_ceil(cfg.chunk_size);
    let mut chunk_cost_ns = vec![0f64; n_chunks.max(1)];
    let mut chunk_stats: Vec<(CorrectionStats, LookupStats)> =
        vec![(CorrectionStats::default(), LookupStats::default()); n_chunks.max(1)];
    let mut work = spectra.clone();
    for (c, chunk) in reads.chunks(cfg.chunk_size).enumerate() {
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
    Ok(RunReport { ranks, topology: cfg.topology, cost: *cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConfigError, Engine, VirtualEngine};
    use crate::test_data::mixed_reads as dataset;
    use reptile::ReptileParams;

    fn params() -> ReptileParams {
        ReptileParams {
            k: 6,
            tile_overlap: 3,
            kmer_threshold: 2,
            tile_threshold: 2,
            ..ReptileParams::default()
        }
    }

    /// A single-node config with `chunk_size`-read work-queue chunks.
    fn config(np: usize, chunk_size: usize) -> EngineConfig {
        EngineConfig {
            topology: mpisim::Topology::single_node(),
            chunk_size,
            ..EngineConfig::virtual_cluster(np, params())
        }
    }

    #[test]
    fn virtual_prior_art_is_balanced_and_memory_heavy() {
        let reads = dataset(400);
        let report = run_prior_art_virtual(&config(8, 10), &reads).unwrap();
        // greedy scheduling keeps ranks within one chunk of each other
        let max = report.correct_secs();
        let mean = report.correct_secs_mean();
        assert!(max <= mean * 1.5 + 1e-9, "dynamic scheduling balances: {max} vs {mean}");
        // memory equals the full spectra on every rank
        let dist = VirtualEngine.run(&EngineConfig::virtual_cluster(8, params()), &reads);
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
        let np = 16;
        let pa = run_prior_art_virtual(&config(np, 20), &reads).unwrap();
        let dist = VirtualEngine.run(&EngineConfig::virtual_cluster(np, params()), &reads);
        assert!(
            pa.correct_secs() < dist.report.correct_secs(),
            "no lookup messages -> faster correction ({} vs {})",
            pa.correct_secs(),
            dist.report.correct_secs()
        );
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let bad = EngineConfig { params: ReptileParams { k: 40, ..params() }, ..config(4, 10) };
        let err = run_prior_art_virtual(&bad, &dataset(40)).unwrap_err();
        assert!(matches!(err, EngineError::Config(ConfigError::Params(_))), "{err}");
    }
}
