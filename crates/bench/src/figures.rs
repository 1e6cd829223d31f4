//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each `figN` function runs the virtual-cluster engine on a scaled
//! workload at the paper's rank/node counts, with times extrapolated to
//! paper scale via `EngineConfig::scale`. Functions return structured
//! results (so tests can assert the *shapes* the paper reports) plus a
//! `render()` that prints the same rows/series the paper plots.

use genio::dataset::SyntheticDataset;
use genio::stats::DatasetStats;
use genio::DatasetProfile;
use mpisim::Topology;
use reptile::ReptileParams;
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, VirtualEngine};

/// Mebibytes per byte, for memory rows.
const MIB: f64 = 1024.0 * 1024.0;

fn config(
    np: usize,
    rpn: usize,
    params: ReptileParams,
    heur: HeuristicConfig,
    scale: usize,
) -> EngineConfig {
    EngineConfig {
        topology: Topology::new(rpn),
        heuristics: heur,
        scale: scale as f64,
        ..EngineConfig::virtual_cluster(np, params)
    }
}

// ---------------------------------------------------------------- Table I

/// Table I: the dataset inventory.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("Table I — datasets (paper-scale profiles)\n");
    out.push_str(&DatasetStats::table_header());
    out.push('\n');
    for p in [
        DatasetProfile::ecoli_like(),
        DatasetProfile::drosophila_like(),
        DatasetProfile::human_like(),
    ] {
        out.push_str(&DatasetStats::from_profile(&p).table_row());
        out.push('\n');
    }
    out.push_str(
        "note: E.coli coverage is computed from the table's own reads/length/genome\n\
         numbers (~197X); the paper prints 96X, inconsistent with its own formula.\n",
    );
    out
}

// ------------------------------------------------------------------ Fig 2

/// One row of Fig 2: 128 ranks at a given ranks-per-node setting.
#[derive(Clone, Copy, Debug)]
pub struct Fig2Row {
    /// Ranks per node (8, 16, 32).
    pub ranks_per_node: usize,
    /// Nodes used (16, 8, 4).
    pub nodes: usize,
    /// Modeled k-mer construction seconds.
    pub construct_secs: f64,
    /// Modeled error-correction seconds.
    pub correct_secs: f64,
    /// Of which communication.
    pub comm_secs: f64,
}

/// Fig 2: execution time of 128 ranks for E.coli, 8/16/32 ranks per node.
pub fn fig2(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> Vec<Fig2Row> {
    [8usize, 16, 32]
        .into_iter()
        .map(|rpn| {
            let cfg = config(128, rpn, params, HeuristicConfig::default(), scale);
            let run = VirtualEngine.run(&cfg, &ds.reads);
            Fig2Row {
                ranks_per_node: rpn,
                nodes: 128 / rpn,
                construct_secs: run.report.construct_secs(),
                correct_secs: run.report.correct_secs(),
                comm_secs: run.report.ranks.iter().map(|r| r.comm_secs).fold(0.0, f64::max),
            }
        })
        .collect()
}

/// Render Fig 2 rows.
pub fn render_fig2(rows: &[Fig2Row]) -> String {
    let mut out = String::from(
        "Fig 2 — E.coli, 128 ranks, varying ranks/node\n\
         rpn nodes construct_s correct_s comm_s\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>3} {:>5} {:>11.1} {:>9.1} {:>6.1}\n",
            r.ranks_per_node, r.nodes, r.construct_secs, r.correct_secs, r.comm_secs
        ));
    }
    out
}

// ------------------------------------------------------------------ Fig 3

/// Fig 3: per-rank k-mer/tile counts for 128 ranks.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// `(kmers, tiles)` owned per rank.
    pub per_rank: Vec<(u64, u64)>,
    /// `(max-min)/mean` spread of k-mer counts, percent.
    pub kmer_spread_pct: f64,
    /// Spread of tile counts, percent.
    pub tile_spread_pct: f64,
}

/// Fig 3: distribution uniformity of the spectra across 128 ranks.
pub fn fig3(ds: &SyntheticDataset, params: ReptileParams) -> Fig3 {
    let cfg = config(128, 32, params, HeuristicConfig::default(), 1);
    let run = VirtualEngine.run(&cfg, &ds.reads);
    let per_rank: Vec<(u64, u64)> =
        run.report.ranks.iter().map(|r| (r.build.owned_kmers, r.build.owned_tiles)).collect();
    Fig3 {
        kmer_spread_pct: spread_pct(per_rank.iter().map(|&(k, _)| k)),
        tile_spread_pct: spread_pct(per_rank.iter().map(|&(_, t)| t)),
        per_rank,
    }
}

fn spread_pct(counts: impl Iterator<Item = u64>) -> f64 {
    let v: Vec<u64> = counts.collect();
    let max = *v.iter().max().unwrap_or(&0) as f64;
    let min = *v.iter().min().unwrap_or(&0) as f64;
    let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    if mean == 0.0 {
        return 0.0;
    }
    (max - min) / mean * 100.0
}

/// Render Fig 3.
pub fn render_fig3(f: &Fig3) -> String {
    let mut out = String::from("Fig 3 — per-rank spectrum sizes, 128 ranks\n");
    out.push_str(&format!(
        "kmer spread (max-min)/mean: {:.2}%   tile spread: {:.2}%\n",
        f.kmer_spread_pct, f.tile_spread_pct
    ));
    out.push_str("rank kmers tiles (every 16th rank)\n");
    for (i, (k, t)) in f.per_rank.iter().enumerate().step_by(16) {
        out.push_str(&format!("{i:>4} {k:>8} {t:>8}\n"));
    }
    out
}

// ------------------------------------------------------------------ Fig 4

/// One load-balance variant of Fig 4.
#[derive(Clone, Debug)]
pub struct Fig4Side {
    /// Total correction seconds of the fastest rank.
    pub fastest_total: f64,
    /// Slowest rank.
    pub slowest_total: f64,
    /// Communication seconds, fastest rank.
    pub fastest_comm: f64,
    /// Communication seconds, slowest rank.
    pub slowest_comm: f64,
    /// Errors corrected, min over ranks.
    pub min_errors: u64,
    /// Errors corrected, max over ranks.
    pub max_errors: u64,
    /// Remote tile lookups, min over ranks.
    pub min_tile_lookups: u64,
    /// Remote tile lookups, max over ranks.
    pub max_tile_lookups: u64,
}

/// Fig 4: balanced vs imbalanced, 128 ranks, E.coli.
pub struct Fig4 {
    /// With the static load-balancing shuffle.
    pub balanced: Fig4Side,
    /// Without it (file-order chunks).
    pub imbalanced: Fig4Side,
}

/// Fig 4: effect of static load balancing, 128 ranks on 4 nodes.
pub fn fig4(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> Fig4 {
    let side = |balance: bool| {
        let heur = HeuristicConfig { load_balance: balance, ..Default::default() };
        let run = VirtualEngine.run(&config(128, 32, params, heur, scale), &ds.reads);
        let ranks = &run.report.ranks;
        Fig4Side {
            fastest_total: ranks.iter().map(|r| r.correct_secs).fold(f64::INFINITY, f64::min),
            slowest_total: ranks.iter().map(|r| r.correct_secs).fold(0.0, f64::max),
            fastest_comm: ranks.iter().map(|r| r.comm_secs).fold(f64::INFINITY, f64::min),
            slowest_comm: ranks.iter().map(|r| r.comm_secs).fold(0.0, f64::max),
            min_errors: ranks.iter().map(|r| r.correction.errors_corrected).min().unwrap_or(0),
            max_errors: ranks.iter().map(|r| r.correction.errors_corrected).max().unwrap_or(0),
            min_tile_lookups: ranks
                .iter()
                .map(|r| r.lookups.remote_tile_lookups)
                .min()
                .unwrap_or(0),
            max_tile_lookups: ranks
                .iter()
                .map(|r| r.lookups.remote_tile_lookups)
                .max()
                .unwrap_or(0),
        }
    };
    Fig4 { balanced: side(true), imbalanced: side(false) }
}

/// Render Fig 4.
pub fn render_fig4(f: &Fig4) -> String {
    let row = |name: &str, s: &Fig4Side| {
        format!(
            "{name:<11} total {:>8.1}..{:>8.1}s  comm {:>8.1}..{:>8.1}s  errors {:>7}..{:<7}  tile-lookups {:>9}..{:<9}\n",
            s.fastest_total,
            s.slowest_total,
            s.fastest_comm,
            s.slowest_comm,
            s.min_errors,
            s.max_errors,
            s.min_tile_lookups,
            s.max_tile_lookups,
        )
    };
    format!(
        "Fig 4 — load balance, 128 ranks (fastest..slowest rank)\n{}{}",
        row("imbalanced", &f.imbalanced),
        row("balanced", &f.balanced)
    )
}

// ------------------------------------------------------------------ Fig 5

/// One heuristic row of Fig 5.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Heuristic label.
    pub label: String,
    /// Ranks used (replication rows drop to fewer ranks, as in the paper).
    pub np: usize,
    /// Ranks per node.
    pub ranks_per_node: usize,
    /// Modeled correction seconds.
    pub correct_secs: f64,
    /// Modeled construction seconds.
    pub construct_secs: f64,
    /// Peak per-rank modeled memory, MiB.
    pub peak_memory_mib: f64,
}

/// Fig 5: the heuristics matrix on E.coli, 32 nodes.
///
/// Layouts follow the paper: base/universal/add-remote/batch run 1024
/// ranks at 32/node; the k-mer/tile replication rows run 256 ranks at
/// 8/node ("these runs were completed with 8 ranks per node as the memory
/// footprint was noticeably higher"); replicate-both runs 1 rank × 64
/// threads per node.
pub fn fig5(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> Vec<Fig5Row> {
    let nodes = 32usize;
    let rows: Vec<(HeuristicConfig, usize, usize, usize)> = vec![
        // (heuristics, np, ranks_per_node, threads_per_rank)
        (HeuristicConfig::default(), nodes * 32, 32, 2),
        (HeuristicConfig { universal: true, ..Default::default() }, nodes * 32, 32, 2),
        (HeuristicConfig { replicate_kmers: true, ..Default::default() }, nodes * 8, 8, 2),
        (HeuristicConfig { replicate_tiles: true, ..Default::default() }, nodes * 8, 8, 2),
        (
            HeuristicConfig { keep_read_tables: true, cache_remote: true, ..Default::default() },
            nodes * 32,
            32,
            2,
        ),
        (HeuristicConfig { batch_reads: true, ..Default::default() }, nodes * 32, 32, 2),
        (HeuristicConfig::replicate_both(), nodes, 1, 64),
    ];
    rows.into_iter()
        .map(|(heur, np, rpn, tpr)| {
            let mut cfg = config(np, rpn, params, heur, scale);
            cfg.topology = Topology::with_threads(rpn, tpr);
            let run = VirtualEngine.run(&cfg, &ds.reads);
            Fig5Row {
                label: heur.label(),
                np,
                ranks_per_node: rpn,
                correct_secs: run.report.correct_secs(),
                construct_secs: run.report.construct_secs(),
                peak_memory_mib: run.report.peak_memory_bytes() / MIB,
            }
        })
        .collect()
}

/// Render Fig 5 rows.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::from(
        "Fig 5 — heuristics, E.coli, 32 nodes\n\
         mode                        np  rpn construct_s correct_s peak_MiB\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<25} {:>5} {:>4} {:>11.1} {:>9.1} {:>8.1}\n",
            r.label, r.np, r.ranks_per_node, r.construct_secs, r.correct_secs, r.peak_memory_mib
        ));
    }
    out
}

// ------------------------------------------- §V partial replication

/// One group-size point of the partial-replication sweep.
#[derive(Clone, Copy, Debug)]
pub struct PartialRow {
    /// Replication group size (1 = the paper's base mode).
    pub group: usize,
    /// Modeled correction seconds.
    pub correct_secs: f64,
    /// Peak per-rank memory, MiB.
    pub peak_memory_mib: f64,
    /// Remote lookups across all ranks.
    pub remote_lookups: u64,
}

/// The paper's §V future-work proposal, realized: sweep the partial
/// replication group size and chart the memory↔communication trade-off
/// ("one of the approaches could be to only lower the memory footprint
/// as much as needed").
pub fn partial_sweep(
    ds: &SyntheticDataset,
    params: ReptileParams,
    scale: usize,
) -> Vec<PartialRow> {
    let np = 1024;
    // in-group lookup probability is g/np, so sweep g geometrically up to
    // full replication
    [1usize, 16, 64, 256, 1024]
        .into_iter()
        .map(|g| {
            let heur = HeuristicConfig { partial_group: g, ..Default::default() };
            let run = VirtualEngine.run(&config(np, 32, params, heur, scale), &ds.reads);
            PartialRow {
                group: g,
                correct_secs: run.report.correct_secs(),
                peak_memory_mib: run.report.peak_memory_bytes() / MIB,
                remote_lookups: run.report.ranks.iter().map(|r| r.lookups.remote_total()).sum(),
            }
        })
        .collect()
}

/// Render the partial-replication sweep.
pub fn render_partial(rows: &[PartialRow]) -> String {
    let mut out = String::from(
        "Partial replication sweep (beyond paper: its §V proposal), E.coli, 1024 ranks\n\
         group correct_s peak_MiB remote_lookups\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>9.1} {:>8.1} {:>14}\n",
            r.group, r.correct_secs, r.peak_memory_mib, r.remote_lookups
        ));
    }
    out
}

// ------------------------------------------- latency sensitivity

/// One latency point of the sensitivity sweep.
#[derive(Clone, Copy, Debug)]
pub struct LatencyRow {
    /// Inter-node one-way latency, microseconds.
    pub net_latency_us: f64,
    /// Distributed-spectrum correction seconds.
    pub distributed_secs: f64,
    /// Fully replicated correction seconds (message-free).
    pub replicated_secs: f64,
}

/// Beyond-paper sensitivity: how the distributed spectrum's penalty vs
/// full replication grows with network latency. On BG/Q-class fabrics
/// (~3 us) distribution costs single-digit factors; on commodity
/// Ethernet (~30 us+) replication pulls far ahead — quantifying when the
/// paper's memory-for-messages trade is cheap.
pub fn latency_sweep(
    ds: &SyntheticDataset,
    params: ReptileParams,
    scale: usize,
) -> Vec<LatencyRow> {
    let np = 1024;
    [1_000.0f64, 3_000.0, 10_000.0, 30_000.0, 100_000.0]
        .into_iter()
        .map(|lat_ns| {
            let mut dist_cfg = config(np, 32, params, HeuristicConfig::default(), scale);
            dist_cfg.cost = mpisim::CostModel::bgq_with_latency(lat_ns);
            let dist = VirtualEngine.run(&dist_cfg, &ds.reads);
            let mut repl_cfg = config(np, 32, params, HeuristicConfig::replicate_both(), scale);
            repl_cfg.cost = mpisim::CostModel::bgq_with_latency(lat_ns);
            let repl = VirtualEngine.run(&repl_cfg, &ds.reads);
            LatencyRow {
                net_latency_us: lat_ns / 1000.0,
                distributed_secs: dist.report.correct_secs(),
                replicated_secs: repl.report.correct_secs(),
            }
        })
        .collect()
}

/// Render the latency sweep.
pub fn render_latency(rows: &[LatencyRow]) -> String {
    let mut out = String::from(
        "Latency sensitivity (beyond paper), E.coli, 1024 ranks\n\
         latency_us distributed_s replicated_s ratio\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>10.0} {:>13.1} {:>12.1} {:>5.1}\n",
            r.net_latency_us,
            r.distributed_secs,
            r.replicated_secs,
            r.distributed_secs / r.replicated_secs.max(1e-12)
        ));
    }
    out
}

// ------------------------------------- prior-art comparison (SII-B)

/// One row of the prior-art vs this-paper comparison.
#[derive(Clone, Debug)]
pub struct PriorArtRow {
    /// Method label.
    pub method: String,
    /// Modeled correction seconds (slowest rank).
    pub correct_secs: f64,
    /// Peak per-rank memory, MiB.
    pub peak_memory_mib: f64,
    /// Remote spectrum lookups (whole job).
    pub remote_lookups: u64,
}

/// The motivation table: the replicated + dynamic-master prior art
/// (Shah'12/Jammula'15) against this paper's distributed-spectrum engine
/// with static balancing, at the same rank count.
pub fn prior_art_comparison(
    ds: &SyntheticDataset,
    params: ReptileParams,
    scale: usize,
) -> Vec<PriorArtRow> {
    let np = 1024;
    let base = config(np, 32, params, HeuristicConfig::default(), scale);
    let pa =
        reptile_dist::prior_art::run_prior_art_virtual(&base, &ds.reads).expect("prior-art run");
    let dist = VirtualEngine.run(&base, &ds.reads);
    let imb = VirtualEngine.run(
        &config(
            np,
            32,
            params,
            HeuristicConfig { load_balance: false, ..Default::default() },
            scale,
        ),
        &ds.reads,
    );
    let row = |method: &str, r: &reptile_dist::RunReport| PriorArtRow {
        method: method.to_string(),
        correct_secs: r.correct_secs(),
        peak_memory_mib: r.peak_memory_bytes() / MIB,
        remote_lookups: r.ranks.iter().map(|x| x.lookups.remote_total()).sum(),
    };
    vec![
        row("replicated+dynamic (prior art)", &pa),
        row("distributed+static (this paper)", &dist.report),
        row("distributed, no balancing", &imb.report),
    ]
}

/// Render the prior-art comparison.
pub fn render_prior_art(rows: &[PriorArtRow]) -> String {
    let mut out = String::from(
        "Prior-art comparison (SII-B): replication+dynamic vs distribution+static, 1024 ranks\n\
         method                              correct_s  peak_MiB  remote_lookups\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<35} {:>9.1} {:>9.1} {:>15}\n",
            r.method, r.correct_secs, r.peak_memory_mib, r.remote_lookups
        ));
    }
    out
}

// ---------------------------------------------- SII-A baseline claim

/// Accuracy of one corrector variant.
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// "tiles (Reptile)" or "kmers-only" (the weaker baseline).
    pub method: String,
    /// Net error-removal gain.
    pub gain: f64,
    /// Fraction of true errors fixed.
    pub sensitivity: f64,
    /// Errors introduced.
    pub false_positives: u64,
    /// Windows abandoned as ambiguous.
    pub ambiguous_windows: u64,
}

/// The claim behind Reptile's design: "error correction at the tile level
/// has far fewer candidates than at the k-mer level. Using the tiles
/// leads to more accuracy" (paper SII-A). Ground truth makes it
/// measurable.
pub fn baseline_comparison(ds: &SyntheticDataset, params: ReptileParams) -> Vec<BaselineRow> {
    use reptile::{correct_dataset, correct_dataset_kmers_only, AccuracyReport};
    let (tile_out, tile_stats) = correct_dataset(&ds.reads, &params);
    let (kmer_out, kmer_stats) = correct_dataset_kmers_only(&ds.reads, &params);
    let tile_rep = AccuracyReport::score_dataset(&ds.reads, &tile_out, &ds.truth);
    let kmer_rep = AccuracyReport::score_dataset(&ds.reads, &kmer_out, &ds.truth);
    vec![
        BaselineRow {
            method: "tiles (Reptile)".into(),
            gain: tile_rep.gain(),
            sensitivity: tile_rep.sensitivity(),
            false_positives: tile_rep.false_positives,
            ambiguous_windows: tile_stats.tiles_ambiguous,
        },
        BaselineRow {
            method: "kmers-only".into(),
            gain: kmer_rep.gain(),
            sensitivity: kmer_rep.sensitivity(),
            false_positives: kmer_rep.false_positives,
            ambiguous_windows: kmer_stats.tiles_ambiguous,
        },
    ]
}

/// Render the baseline comparison.
pub fn render_baseline(rows: &[BaselineRow]) -> String {
    let mut out = String::from(
        "Baseline comparison (SII-A claim): tile vs k-mer-only correction\n\
         method            gain  sensitivity  false_pos  ambiguous_windows\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>5.3} {:>11.3} {:>10} {:>18}\n",
            r.method, r.gain, r.sensitivity, r.false_positives, r.ambiguous_windows
        ));
    }
    out
}

// --------------------------------------------------------- ablations

/// One chunk-size point of the batch-reads ablation.
#[derive(Clone, Copy, Debug)]
pub struct ChunkRow {
    /// Reads per chunk.
    pub chunk_size: usize,
    /// Collective rounds executed.
    pub batches: u64,
    /// Peak reads-table entries (max over ranks).
    pub peak_reads_table: u64,
    /// Modeled construction seconds.
    pub construct_secs: f64,
    /// Fraction of extract + exchange time the pipelined build hid by
    /// overlapping the two.
    pub overlap_frac: f64,
    /// Total bytes shipped through count exchanges, MiB, all ranks.
    pub exchanged_mib: f64,
    /// Raw off-rank occurrences per shipped distinct entry.
    pub compression: f64,
}

/// Ablation: the batch-reads chunk-size trade-off the paper exploits for
/// the human runs ("for the 128 and the 256 nodes run, the batch size was
/// only set to 5000 reads, while for the 512 and 1024 node runs, the
/// batch size was set to 10000", §IV) — smaller chunks bound the reads
/// tables at the cost of more collective rounds.
pub fn ablation_chunk(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> Vec<ChunkRow> {
    [50usize, 200, 1000, 5000, 20000]
        .into_iter()
        .map(|chunk| {
            let mut cfg = config(
                128,
                32,
                params,
                HeuristicConfig { batch_reads: true, ..Default::default() },
                scale,
            );
            cfg.chunk_size = chunk;
            let run = VirtualEngine.run(&cfg, &ds.reads);
            ChunkRow {
                chunk_size: chunk,
                batches: run.report.ranks.iter().map(|r| r.build.batches).max().unwrap_or(0),
                peak_reads_table: run
                    .report
                    .ranks
                    .iter()
                    .map(|r| r.build.peak_reads_kmers + r.build.peak_reads_tiles)
                    .max()
                    .unwrap_or(0),
                construct_secs: run.report.construct_secs(),
                overlap_frac: run.report.build_overlap_fraction(),
                exchanged_mib: run.report.exchanged_bytes() as f64 / (1024.0 * 1024.0),
                compression: run.report.exchange_compression(),
            }
        })
        .collect()
}

/// Render the chunk-size ablation.
pub fn render_chunk(rows: &[ChunkRow]) -> String {
    let mut out = String::from(
        "Ablation — batch-reads chunk size, E.coli, 128 ranks\n\
         chunk batches peak_reads_table construct_s overlap exch_MiB dedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>7} {:>16} {:>11.2} {:>7.2} {:>8.2} {:>5.2}\n",
            r.chunk_size,
            r.batches,
            r.peak_reads_table,
            r.construct_secs,
            r.overlap_frac,
            r.exchanged_mib,
            r.compression
        ));
    }
    out
}

/// One quality-threshold point of the accuracy ablation.
#[derive(Clone, Copy, Debug)]
pub struct QualityRow {
    /// Phred cutoff for candidate positions.
    pub q_threshold: u8,
    /// Net error-removal gain.
    pub gain: f64,
    /// Fraction of true errors fixed.
    pub sensitivity: f64,
    /// Errors introduced.
    pub false_positives: u64,
}

/// Ablation: quality-threshold sensitivity of the corrector, measurable
/// here because the synthetic datasets carry ground truth.
pub fn ablation_quality(ds: &SyntheticDataset, params: ReptileParams) -> Vec<QualityRow> {
    use reptile::{correct_dataset, AccuracyReport};
    [8u8, 14, 20, 26, 32]
        .into_iter()
        .map(|q| {
            let p = ReptileParams { q_threshold: q, ..params };
            let (corrected, _) = correct_dataset(&ds.reads, &p);
            let rep = AccuracyReport::score_dataset(&ds.reads, &corrected, &ds.truth);
            QualityRow {
                q_threshold: q,
                gain: rep.gain(),
                sensitivity: rep.sensitivity(),
                false_positives: rep.false_positives,
            }
        })
        .collect()
}

/// Render the quality ablation.
pub fn render_quality(rows: &[QualityRow]) -> String {
    let mut out = String::from(
        "Ablation — q_threshold vs accuracy (ground truth)\n\
         q  gain  sensitivity  false_positives\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>2} {:>5.3} {:>11.3} {:>15}\n",
            r.q_threshold, r.gain, r.sensitivity, r.false_positives
        ));
    }
    out
}

// ------------------------------------------------------- Figs 6, 7, 8

/// One rank-count point of a scaling figure.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Ranks.
    pub np: usize,
    /// Nodes (32 ranks/node).
    pub nodes: usize,
    /// Modeled construction seconds.
    pub construct_secs: f64,
    /// Modeled correction seconds (balanced), slowest rank.
    pub correct_secs: f64,
    /// Mean-rank correction seconds — the scaling signal free of the
    /// scaled dataset's per-rank count variance.
    pub correct_mean_secs: f64,
    /// Modeled correction seconds without load balancing (`None` when the
    /// paper, too, could not finish the imbalanced run).
    pub imbalanced_correct_secs: Option<f64>,
}

/// A scaling figure: rows plus the parallel efficiency between the first
/// and last rows.
#[derive(Clone, Debug)]
pub struct ScalingFigure {
    /// Title ("Fig 6 — E.coli", …).
    pub title: String,
    /// One row per rank count.
    pub rows: Vec<ScalingRow>,
    /// Efficiency of the last row vs the first.
    pub efficiency: f64,
}

/// Generic strong-scaling sweep used by Figs 6–8.
pub fn scaling_figure(
    title: &str,
    ds: &SyntheticDataset,
    params: ReptileParams,
    scale: usize,
    rank_counts: &[usize],
    heur: HeuristicConfig,
    with_imbalanced: bool,
) -> ScalingFigure {
    let rows: Vec<ScalingRow> = rank_counts
        .iter()
        .map(|&np| {
            let run = VirtualEngine.run(&config(np, 32, params, heur, scale), &ds.reads);
            let imbalanced = if with_imbalanced {
                let h = HeuristicConfig { load_balance: false, ..heur };
                let r = VirtualEngine.run(&config(np, 32, params, h, scale), &ds.reads);
                Some(r.report.correct_secs())
            } else {
                None
            };
            ScalingRow {
                np,
                nodes: np / 32,
                construct_secs: run.report.construct_secs(),
                correct_secs: run.report.correct_secs(),
                correct_mean_secs: run.report.correct_secs_mean(),
                imbalanced_correct_secs: imbalanced,
            }
        })
        .collect();
    // Efficiency from mean-rank times: the scaled dataset's Poisson
    // count tail inflates the max at thousands of ranks (documented in
    // EXPERIMENTS.md); the mean tracks the paper's regime.
    let efficiency = match (rows.first(), rows.last()) {
        (Some(a), Some(b)) if b.correct_mean_secs > 0.0 => {
            (a.correct_mean_secs + a.construct_secs) * a.np as f64
                / ((b.correct_mean_secs + b.construct_secs) * b.np as f64)
        }
        _ => 0.0,
    };
    ScalingFigure { title: title.to_string(), rows, efficiency }
}

/// Fig 6: E.coli strong scaling, 1024→8192 ranks, balanced vs imbalanced.
pub fn fig6(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> ScalingFigure {
    scaling_figure(
        "Fig 6 — E.coli scaling (32→256 nodes)",
        ds,
        params,
        scale,
        &[1024, 2048, 4096, 8192],
        HeuristicConfig::default(),
        true,
    )
}

/// Fig 7: Drosophila strong scaling, 1024→8192 ranks (batch-reads on, as
/// the paper's 1024-rank run used it).
pub fn fig7(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> ScalingFigure {
    scaling_figure(
        "Fig 7 — Drosophila scaling (32→256 nodes)",
        ds,
        params,
        scale,
        &[1024, 2048, 4096, 8192],
        HeuristicConfig { batch_reads: true, ..Default::default() },
        true,
    )
}

/// Fig 8: Human strong scaling, 4096→32768 ranks (128→1024 nodes),
/// batch reads + load balancing, as in the paper.
pub fn fig8(ds: &SyntheticDataset, params: ReptileParams, scale: usize) -> ScalingFigure {
    scaling_figure(
        "Fig 8 — Human scaling (128→1024 nodes)",
        ds,
        params,
        scale,
        &[4096, 8192, 16384, 32768],
        HeuristicConfig { batch_reads: true, universal: true, ..Default::default() },
        false,
    )
}

/// Render a scaling figure.
pub fn render_scaling(f: &ScalingFigure) -> String {
    let mut out = format!(
        "{}\n ranks nodes construct_s correct_s(max) correct_s(mean) imbalanced_s\n",
        f.title
    );
    for r in &f.rows {
        out.push_str(&format!(
            "{:>6} {:>5} {:>11.1} {:>14.1} {:>15.1} {}\n",
            r.np,
            r.nodes,
            r.construct_secs,
            r.correct_secs,
            r.correct_mean_secs,
            r.imbalanced_correct_secs
                .map(|s| format!("{s:>12.1}"))
                .unwrap_or_else(|| "      (n/a)".into()),
        ));
    }
    out.push_str(&format!(
        "parallel efficiency {} → {} ranks: {:.2}\n",
        f.rows.first().map(|r| r.np).unwrap_or(0),
        f.rows.last().map(|r| r.np).unwrap_or(0),
        f.efficiency
    ));
    out
}

// ------------------------------------- Ablation: adaptive load balancing

/// One policy × workload row of the adaptive-balancing ablation.
#[derive(Clone, Debug)]
pub struct BalanceRow {
    /// Workload ("skewed" / "uniform").
    pub workload: &'static str,
    /// Policy ("static" / "adaptive").
    pub policy: &'static str,
    /// Modeled makespan, slowest rank, seconds.
    pub makespan_secs: f64,
    /// Remote lookups summed over ranks.
    pub remote_lookups: u64,
    /// Lookups served by a hot-shard replica.
    pub hot_shard_hits: u64,
    /// Read chunks moved by the steal protocol.
    pub chunks_stolen: u64,
    /// `(max − min) / mean` of per-rank correction time.
    pub straggler_spread: f64,
}

/// Ablation: the static paper protocol vs the adaptive balancing layer
/// (top-K hot-shard replication + read-chunk stealing) on the
/// repeat-heavy / uniform workload pair from the balance bench. The
/// uniform rows double as the no-regression control: both skew gates
/// must hold, leaving the adaptive rows identical to the static ones.
pub fn ablation_balance() -> Vec<BalanceRow> {
    use crate::balance_bench::{HOT_K, NP};
    use crate::workloads::{balance_pair, smoke_params};
    let (uni, skew) = balance_pair();
    let mut rows = Vec::new();
    for (workload, ds) in [("skewed", &skew), ("uniform", &uni)] {
        for (policy, heur) in
            [("static", HeuristicConfig::default()), ("adaptive", HeuristicConfig::adaptive(HOT_K))]
        {
            let cfg = EngineConfig {
                heuristics: heur,
                cost: mpisim::CostModel::commodity_cluster(),
                chunk_size: 32,
                ..EngineConfig::virtual_cluster(NP, smoke_params())
            };
            let run = VirtualEngine.run(&cfg, &ds.reads);
            rows.push(BalanceRow {
                workload,
                policy,
                makespan_secs: run.report.makespan_secs(),
                remote_lookups: run.report.remote_lookups(),
                hot_shard_hits: run.report.hot_shard_hits(),
                chunks_stolen: run.report.chunks_stolen(),
                straggler_spread: run.report.straggler_spread(),
            });
        }
    }
    rows
}

/// Render the adaptive-balancing ablation.
pub fn render_balance(rows: &[BalanceRow]) -> String {
    let mut out = String::from(
        "Ablation — static vs adaptive balancing, repeat-heavy pair, 8 ranks\n\
         workload policy   makespan_s remote_lookups hot_hits stolen spread\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<8} {:>10.3} {:>14} {:>8} {:>6} {:>6.3}\n",
            r.workload,
            r.policy,
            r.makespan_secs,
            r.remote_lookups,
            r.hot_shard_hits,
            r.chunks_stolen,
            r.straggler_spread
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{smoke, smoke_params};

    #[test]
    fn table1_mentions_all_datasets() {
        let t = table1();
        assert!(t.contains("E.coli") && t.contains("Drosophila") && t.contains("Human"));
        assert!(t.contains("1549111800"));
    }

    #[test]
    fn fig2_shape_32_per_node_slowest() {
        let ds = smoke();
        let rows = fig2(&ds, smoke_params(), 1);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].nodes, 16);
        assert_eq!(rows[2].nodes, 4);
        assert!(
            rows[2].correct_secs > rows[0].correct_secs,
            "32/node must be slower than 8/node: {:?}",
            rows
        );
        // k-mer construction is a small fraction of correction (paper obs.)
        assert!(rows[0].construct_secs < rows[0].correct_secs);
    }

    #[test]
    fn fig3_spread_is_small() {
        let ds = smoke();
        let f = fig3(&ds, smoke_params());
        assert_eq!(f.per_rank.len(), 128);
        // The spread is binomial: (max-min)/mean ~ 6/sqrt(mean) over 128
        // ranks. The paper's <1% comes from ~1e6 entries/rank; the smoke
        // dataset has tens, so scale the bound accordingly.
        let mean_k = f.per_rank.iter().map(|&(k, _)| k).sum::<u64>() as f64 / 128.0;
        let mean_t = f.per_rank.iter().map(|&(_, t)| t).sum::<u64>() as f64 / 128.0;
        let bound = |mean: f64| 100.0 * 10.0 / mean.max(1.0).sqrt();
        assert!(
            f.kmer_spread_pct < bound(mean_k),
            "kmer spread {}% vs bound {}% (mean {mean_k})",
            f.kmer_spread_pct,
            bound(mean_k)
        );
        assert!(
            f.tile_spread_pct < bound(mean_t),
            "tile spread {}% vs bound {}% (mean {mean_t})",
            f.tile_spread_pct,
            bound(mean_t)
        );
    }

    #[test]
    fn fig4_balancing_tightens_spread() {
        let ds = smoke();
        let f = fig4(&ds, smoke_params(), 1);
        let spread_imb = f.imbalanced.slowest_total / f.imbalanced.fastest_total.max(1e-12);
        let spread_bal = f.balanced.slowest_total / f.balanced.fastest_total.max(1e-12);
        assert!(
            spread_bal < spread_imb,
            "balancing must tighten the rank-time spread ({spread_bal} vs {spread_imb})"
        );
        assert!(f.balanced.slowest_total <= f.imbalanced.slowest_total);
    }

    #[test]
    fn fig5_shapes() {
        let ds = smoke();
        let rows = fig5(&ds, smoke_params(), 1);
        let find = |label: &str| {
            rows.iter().find(|r| r.label == label).unwrap_or_else(|| panic!("row {label}"))
        };
        let base = find("base");
        let universal = find("universal");
        let repl_tiles = find("repl-tiles");
        let repl_both = find("repl-both");
        assert!(universal.correct_secs < base.correct_secs, "universal faster");
        assert!(repl_both.correct_secs < base.correct_secs, "replication fastest");
        assert!(repl_both.peak_memory_mib > base.peak_memory_mib, "replication costs memory");
        assert!(repl_tiles.peak_memory_mib > base.peak_memory_mib);
    }

    #[test]
    fn fig6_scales_and_balancing_wins() {
        // The full fig6 runs 1024-8192 ranks on the E.coli-scale workload;
        // at smoke scale that would leave ~1 read/rank where hash-shuffle
        // count variance (not error clustering) dominates. Test the same
        // sweep machinery in the regime the figure actually runs in:
        // >= ~20 reads per rank.
        let ds = smoke();
        let f = scaling_figure(
            "smoke scaling",
            &ds,
            smoke_params(),
            1,
            &[8, 16, 32, 64],
            HeuristicConfig::default(),
            true,
        );
        assert_eq!(f.rows.len(), 4);
        assert!(f.rows[3].correct_secs < f.rows[0].correct_secs, "strong scaling");
        assert!(f.rows[3].correct_mean_secs < f.rows[0].correct_mean_secs);
        for r in &f.rows {
            let imb = r.imbalanced_correct_secs.unwrap();
            assert!(imb >= r.correct_secs, "balanced never slower at np={}", r.np);
        }
        assert!(f.efficiency > 0.3 && f.efficiency <= 1.3, "efficiency {}", f.efficiency);
    }

    #[test]
    fn partial_sweep_monotone() {
        let ds = smoke();
        let rows = partial_sweep(&ds, smoke_params(), 1);
        for w in rows.windows(2) {
            assert!(w[1].remote_lookups <= w[0].remote_lookups);
            assert!(w[1].peak_memory_mib >= w[0].peak_memory_mib - 1e-9);
        }
        assert!(rows.last().unwrap().correct_secs < rows[0].correct_secs);
    }

    #[test]
    fn latency_sweep_monotone() {
        let ds = smoke();
        let rows = latency_sweep(&ds, smoke_params(), 1);
        for w in rows.windows(2) {
            assert!(w[1].distributed_secs >= w[0].distributed_secs, "latency hurts distribution");
            // replication is latency-insensitive during correction
            assert!((w[1].replicated_secs - w[0].replicated_secs).abs() < 1e-6);
        }
        let first_ratio = rows[0].distributed_secs / rows[0].replicated_secs;
        let last_ratio =
            rows.last().unwrap().distributed_secs / rows.last().unwrap().replicated_secs;
        assert!(last_ratio > first_ratio, "penalty grows with latency");
    }

    #[test]
    fn prior_art_tradeoff_shapes() {
        let ds = smoke();
        let rows = prior_art_comparison(&ds, smoke_params(), 1);
        assert_eq!(rows.len(), 3);
        let pa = &rows[0];
        let dist = &rows[1];
        // replication removes messages but costs memory
        assert_eq!(pa.remote_lookups, 0);
        assert!(dist.remote_lookups > 0);
        assert!(pa.peak_memory_mib >= dist.peak_memory_mib);
        assert!(pa.correct_secs < dist.correct_secs);
    }

    #[test]
    fn tiles_beat_kmers_only() {
        let ds = smoke();
        let rows = baseline_comparison(&ds, smoke_params());
        assert_eq!(rows.len(), 2);
        let tiles = &rows[0];
        let kmers = &rows[1];
        assert!(
            tiles.gain >= kmers.gain,
            "SII-A: tiles must not lose to k-mers-only ({} vs {})",
            tiles.gain,
            kmers.gain
        );
        assert!(tiles.false_positives <= kmers.false_positives + 5);
    }

    #[test]
    fn ablation_chunk_tradeoff() {
        let ds = smoke();
        let rows = ablation_chunk(&ds, smoke_params(), 1);
        // smaller chunks: more batches, smaller peak tables
        assert!(rows[0].batches >= rows.last().unwrap().batches);
        assert!(rows[0].peak_reads_table <= rows.last().unwrap().peak_reads_table);
        for r in &rows {
            // the pipelined model always hides something with >= 2 rounds
            assert!(r.overlap_frac >= 0.0 && r.overlap_frac < 0.5);
            assert!(r.compression >= 1.0);
            if r.batches > 1 {
                assert!(r.overlap_frac > 0.0, "chunk={} must overlap", r.chunk_size);
            }
        }
        // same distinct keys cross the wire regardless of batching
        // granularity only when chunks don't split duplicate groups; with
        // smaller chunks dedup can only get worse (weakly more bytes)
        assert!(rows[0].exchanged_mib >= rows.last().unwrap().exchanged_mib - 1e-9);
    }

    #[test]
    fn ablation_quality_has_peak() {
        let ds = smoke();
        let rows = ablation_quality(&ds, smoke_params());
        assert_eq!(rows.len(), 5);
        // sensitivity grows (weakly) with a looser cutoff
        assert!(rows.last().unwrap().sensitivity >= rows[0].sensitivity);
        // all gains must be positive on a well-covered dataset
        for r in &rows {
            assert!(r.gain > 0.0, "q={} gain={}", r.q_threshold, r.gain);
        }
    }

    #[test]
    fn renders_do_not_panic() {
        let ds = smoke();
        let p = smoke_params();
        let _ = render_fig2(&fig2(&ds, p, 1));
        let _ = render_fig3(&fig3(&ds, p));
        let _ = render_fig4(&fig4(&ds, p, 1));
        let _ = render_fig5(&fig5(&ds, p, 1));
        let _ = render_scaling(&fig6(&ds, p, 1));
    }

    #[test]
    fn ablation_balance_shapes() {
        let rows = ablation_balance();
        assert_eq!(rows.len(), 4);
        let by = |w: &str, p: &str| {
            rows.iter().find(|r| r.workload == w && r.policy == p).expect("row present")
        };
        // adaptive wins on skew, with both mechanisms visibly engaged
        let (ss, sa) = (by("skewed", "static"), by("skewed", "adaptive"));
        assert!(sa.makespan_secs < ss.makespan_secs);
        assert!(sa.hot_shard_hits > 0 && sa.chunks_stolen > 0);
        assert!(sa.straggler_spread < ss.straggler_spread);
        // on the uniform control both gates hold: the adaptive run *is*
        // the static run
        let (us, ua) = (by("uniform", "static"), by("uniform", "adaptive"));
        assert_eq!(ua.makespan_secs, us.makespan_secs);
        assert_eq!(ua.hot_shard_hits, 0);
        assert_eq!(ua.chunks_stolen, 0);
        let txt = render_balance(&rows);
        assert!(txt.contains("hot_hits") && txt.contains("stolen"));
        assert_eq!(txt.lines().count(), 2 + rows.len());
    }
}
