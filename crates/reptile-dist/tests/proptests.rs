//! Property tests for the distributed engines: on arbitrary read pools
//! and rank counts, the threaded and virtual engines must both reproduce
//! the sequential corrector's output exactly.

use mpisim::Universe;
use proptest::prelude::*;
use reptile::{correct_dataset, ReptileParams, Spectrum, SpectrumKey};
use reptile_dist::engine_virtual::run_virtual;
use reptile_dist::spectrum::{
    build_distributed, build_distributed_serial, BuildStats, KindTables, RankTables,
};
use reptile_dist::{run_distributed, EngineConfig, HeuristicConfig};

fn params() -> ReptileParams {
    ReptileParams {
        k: 6,
        tile_overlap: 3,
        kmer_threshold: 2,
        tile_threshold: 2,
        ..ReptileParams::default()
    }
}

fn read_pool() -> impl Strategy<Value = Vec<dnaseq::Read>> {
    // templates with occasional point mutations, mixed coverage
    let base = prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), 15..35);
    prop::collection::vec((base, 2usize..6, any::<u16>()), 2..6).prop_map(|specs| {
        let mut reads = Vec::new();
        let mut id = 1u64;
        for (template, copies, mutseed) in specs {
            for c in 0..copies {
                let mut seq = template.clone();
                let mut qual = vec![32u8; seq.len()];
                // mutate one base of one copy, low quality
                if c == 0 && !seq.is_empty() {
                    let pos = (mutseed as usize) % seq.len();
                    let cur = seq[pos];
                    seq[pos] = match cur {
                        b'A' => b'C',
                        b'C' => b'G',
                        b'G' => b'T',
                        _ => b'A',
                    };
                    qual[pos] = 4;
                }
                reads.push(dnaseq::Read::new(id, seq, qual));
                id += 1;
            }
        }
        reads
    })
}

fn entries<K: SpectrumKey>(s: &Spectrum<K>) -> Vec<(K, u32)> {
    let mut v: Vec<_> = s.iter().collect();
    v.sort_unstable();
    v
}

/// Everything bit-identity covers of one key kind: every table (owned,
/// reads, replicated, group, hot) as a sorted entry list, plus the
/// byte-accurate memory accounting.
#[derive(Debug, PartialEq)]
struct KindFingerprint<K> {
    owned: Vec<(K, u32)>,
    reads: Option<Vec<(K, u32)>>,
    replicated: Option<Vec<(K, u32)>>,
    group: Option<Vec<(K, u32)>>,
    hot: Option<Vec<(K, u32)>>,
    bytes: u64,
}

fn kind_fingerprint<K: SpectrumKey>(t: &KindTables<K>) -> KindFingerprint<K> {
    KindFingerprint {
        owned: entries(&t.owned),
        reads: t.reads.as_ref().map(entries),
        replicated: t.replicated.as_ref().map(entries),
        group: t.group.as_ref().map(entries),
        hot: t.hot.as_ref().map(entries),
        bytes: t.memory_bytes(),
    }
}

/// Both kinds of one rank's tables.
type TableFingerprint = (KindFingerprint<u64>, KindFingerprint<u128>);

fn fingerprint(t: &RankTables) -> TableFingerprint {
    (kind_fingerprint(&t.kmers), kind_fingerprint(&t.tiles))
}

/// One kind's heuristic tables on every rank against what the flags ask
/// for: the replicated table is the union of all ranks' owned tables iff
/// `replicate` (this kind's flag), the group table the union over the
/// rank's group iff partial replication is on, a reads table exists iff
/// `keep_read_tables`, and the build makes no hot replica. Serial and
/// pipelined builds share this derivation, so only a check against the
/// flags catches a helper that fills one kind from the other's.
fn check_heuristic_tables<K: SpectrumKey>(
    ranks: &[&KindFingerprint<K>],
    heur: &HeuristicConfig,
    replicate: bool,
) -> Result<(), TestCaseError> {
    let union = |ranks: &[&KindFingerprint<K>]| {
        let mut v: Vec<(K, u32)> = ranks.iter().flat_map(|r| r.owned.iter().copied()).collect();
        v.sort_unstable();
        v
    };
    let all = union(ranks);
    let g = heur.partial_group;
    for (rank, r) in ranks.iter().enumerate() {
        let group_ranks = rank / g * g..((rank / g + 1) * g).min(ranks.len());
        let group = (g > 1).then(|| union(&ranks[group_ranks]));
        prop_assert_eq!(
            r.replicated.as_ref(),
            replicate.then_some(&all),
            "{} rank {}",
            K::NAME,
            rank
        );
        prop_assert_eq!(&r.group, &group, "{} rank {}", K::NAME, rank);
        prop_assert_eq!(r.reads.is_some(), heur.keep_read_tables, "{} rank {}", K::NAME, rank);
        prop_assert!(r.hot.is_none());
    }
    Ok(())
}

/// Every heuristic combination the construction suite sweeps: one
/// representative per switch (plus the pairings the paper evaluates
/// together), each `replicate_*` flag also on its own and partial
/// replication at two group sizes, so a table built from the other
/// kind's flag shows.
fn construction_matrix() -> [HeuristicConfig; 12] {
    let base = HeuristicConfig::default();
    [
        base,
        HeuristicConfig { universal: true, ..base },
        HeuristicConfig { batch_reads: true, ..base },
        HeuristicConfig { keep_read_tables: true, ..base },
        HeuristicConfig { keep_read_tables: true, cache_remote: true, ..base },
        HeuristicConfig::replicate_both(),
        HeuristicConfig { replicate_kmers: true, ..base },
        HeuristicConfig { replicate_tiles: true, ..base },
        HeuristicConfig { partial_group: 2, ..base },
        HeuristicConfig { partial_group: 3, ..base },
        HeuristicConfig { aggregate_lookups: true, ..base },
        HeuristicConfig::paper_production(),
    ]
}

/// Zero the wall-clock fields: timings legitimately differ between the
/// serial and the pipelined builder, every other counter must not.
fn no_timing(s: BuildStats) -> BuildStats {
    BuildStats { extract_ns: 0, exchange_ns: 0, overlap_ns: 0, ..s }
}

fn build_fingerprints(
    reads: &[dnaseq::Read],
    np: usize,
    chunk: usize,
    heur: HeuristicConfig,
    threads: Option<usize>,
) -> Vec<(TableFingerprint, BuildStats)> {
    let p = params();
    Universe::new(np).run(move |comm| {
        let mine: Vec<dnaseq::Read> = reads
            .iter()
            .enumerate()
            .filter(|(i, _)| i % np == comm.rank())
            .map(|(_, r)| r.clone())
            .collect();
        let (tables, stats) = match threads {
            None => build_distributed_serial(comm, &mine, chunk, &p, &heur),
            Some(t) => build_distributed(comm, &mine, chunk, &p, &heur, t),
        };
        (fingerprint(&tables), no_timing(stats))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_matches_sequential(reads in read_pool(), np in 1usize..6) {
        let p = params();
        let (seq, _) = correct_dataset(&reads, &p);
        let out = run_distributed(&EngineConfig::new(np, p), &reads);
        prop_assert_eq!(out.corrected, seq);
    }

    #[test]
    fn virtual_matches_sequential(reads in read_pool(), np in 1usize..200) {
        let p = params();
        let (seq, _) = correct_dataset(&reads, &p);
        let run = run_virtual(&EngineConfig::virtual_cluster(np, p), &reads);
        prop_assert_eq!(run.corrected, seq);
    }

    #[test]
    fn heuristics_never_change_output(
        reads in read_pool(),
        universal in any::<bool>(),
        batch in any::<bool>(),
        balance in any::<bool>(),
        partial in 1usize..4,
    ) {
        let p = params();
        let heur = HeuristicConfig {
            universal,
            batch_reads: batch,
            load_balance: balance,
            partial_group: partial,
            ..HeuristicConfig::default()
        };
        prop_assume!(heur.validate().is_ok());
        let (seq, _) = correct_dataset(&reads, &p);
        let mut cfg = EngineConfig::new(3, p);
        cfg.heuristics = heur;
        cfg.chunk_size = 4;
        let out = run_distributed(&cfg, &reads);
        prop_assert_eq!(out.corrected, seq);
    }

    /// The pipelined builder (threaded fused extraction, per-owner
    /// pre-aggregation, double-buffered exchange) must be bit-identical
    /// to the serial reference: same tables (all of them, including the
    /// optional reads/replicated/group spectra), same byte accounting,
    /// same deterministic counters — across thread counts, chunk sizes,
    /// rank counts and every heuristic combination in the matrix. Each
    /// kind's heuristic tables must also be the ones its own flags ask
    /// for.
    #[test]
    fn pipelined_build_bit_identical_to_serial(
        reads in read_pool(),
        np in prop::sample::select(vec![1usize, 3, 4]),
        threads in prop::sample::select(vec![1usize, 2, 4]),
        chunk in prop::sample::select(vec![3usize, 7, 64]),
        heur in prop::sample::select(construction_matrix().to_vec()),
    ) {
        prop_assert!(heur.validate().is_ok(), "{}", heur.label());
        let serial = build_fingerprints(&reads, np, chunk, heur, None);
        let piped = build_fingerprints(&reads, np, chunk, heur, Some(threads));
        let kmers: Vec<_> = serial.iter().map(|((k, _), _)| k).collect();
        check_heuristic_tables(&kmers, &heur, heur.replicate_kmers)?;
        let tiles: Vec<_> = serial.iter().map(|((_, t), _)| t).collect();
        check_heuristic_tables(&tiles, &heur, heur.replicate_tiles)?;
        prop_assert_eq!(serial, piped, "heur={} np={} threads={} chunk={}",
                        heur.label(), np, threads, chunk);
    }

    /// Conservation: every input read appears exactly once in the output
    /// with the same id, length and qualities.
    #[test]
    fn reads_conserved(reads in read_pool(), np in 1usize..5) {
        let p = params();
        let out = run_distributed(&EngineConfig::new(np, p), &reads);
        prop_assert_eq!(out.corrected.len(), reads.len());
        for (a, b) in out.corrected.iter().zip(&reads) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.len(), b.len());
            prop_assert_eq!(&a.qual, &b.qual);
        }
    }
}
