//! The virtual cluster engine: thousands of logical ranks, modeled time.
//!
//! The threaded engine is the protocol-faithful implementation, but OS
//! threads cap it at a few hundred ranks. The paper's evaluation runs
//! 1024–32768 ranks, so the figures need an engine that executes the
//! *identical logical algorithm* — same owner partitioning, same lookup
//! chain, same corrections — for arbitrary `np`, deterministically, and
//! charges every counted event to a per-rank clock through
//! [`mpisim::CostModel`].
//!
//! The key observation making this sound: during the correction phase the
//! spectra are immutable, so a remote lookup is semantically a pure query
//! against the owner's table. The virtual engine answers it from the
//! global spectrum (which *is* the disjoint union of all owners' tables —
//! asserted by the spectrum tests) while charging the requester the
//! modeled round-trip and counting the request for the owner's service
//! load. Per-rank remote-lookup counts, the quantity the paper's load
//! figures hinge on, come out exactly, not approximately: they are
//! counted while running the real corrector on the rank's real reads.
//!
//! The lookup chain is not re-implemented here: each logical rank runs
//! the threaded engine's `LookupRouter` (`router.rs`) over the global
//! spectrum, with `ModelTransport` in place of the wire. Faults are
//! replayed analytically: each attempt of a modeled request consults the
//! same seeded per-edge [`FaultPlan`] decisions the threaded engine's
//! message plane applies physically, the router walks its one
//! retry/backoff state machine, the missed-deadline waits go on the
//! modeled clock ([`CostModel::retry_wait_ns`]), and keys degrade to the
//! paper's "absent everywhere" answer when the budget runs out. A kill
//! severs the rank's p2p plane both directions, so every lookup it owns
//! (and every lookup it issues) degrades — exactly the threaded semantics.
//!
//! `scale` linearly extrapolates modeled times from a scaled-down dataset
//! to paper-scale counts (per-rank work and traffic are linear in reads
//! per rank; see DESIGN.md §2).

use crate::balance::{
    owner_volume_histogram, select_hot_owners, shuffle_reads_virtual, steal_worth_it,
    sum_histograms,
};
use crate::engine::{EngineConfig, EngineError, RunOutput};
use crate::owner::{Key, OwnerMap};
use crate::protocol::RESPONSE_BYTES;
use crate::report::{RankReport, RunReport};
use crate::router::{
    owner_batch, owner_count, KindTiers, LookupRouter, Reply, Request, RouterScratch, Tiers,
    Transport,
};
use crate::snapshot;
use crate::spectrum::BuildStats;
use dnaseq::{FxHashSet, Read};
use mpisim::{CostModel, FaultPlan, TraceLog};
use reptile::spectrum::{KmerSpectrum, LocalSpectra, Spectrum, TileSpectrum};
use reptile::{CorrectionStats, Normalized};

/// Execute the distributed algorithm on `cfg.np` logical ranks.
pub fn run_virtual(cfg: &EngineConfig, reads: &[Read]) -> RunOutput {
    match try_run_virtual(cfg, reads) {
        Ok(out) => out,
        Err(e) => panic!("engine run failed: {e}"),
    }
}

/// Fallible twin of [`run_virtual`]: snapshot save/load failures (and
/// invalid configs) surface as typed [`EngineError`]s instead of panics.
/// Snapshot shards are real files even under this engine — the virtual
/// cluster writes/reads them serially and charges each logical rank the
/// modeled I/O time for its own shard pair.
pub fn try_run_virtual(cfg: &EngineConfig, reads: &[Read]) -> Result<RunOutput, EngineError> {
    cfg.validate()?;
    cfg.params.assert_valid();
    let np = cfg.np;
    let owners = OwnerMap::new(np, &cfg.params);
    let cost = &cfg.cost;
    let smt = cost.smt_factor(cfg.topology.threads_per_node(np));
    let rpn = cfg.topology.ranks_per_node().min(np);
    let deadline_ns = cfg.lookup_deadline.map_or(0.0, |d| d.as_nanos() as f64);

    // --- Step I analog + load balancing ---
    let slices: Vec<Vec<Read>> = (0..np)
        .map(|r| {
            let lo = reads.len() * r / np;
            let hi = reads.len() * (r + 1) / np;
            reads[lo..hi].to_vec()
        })
        .collect();
    let (rank_reads, shuffle_bytes) = if cfg.heuristics.load_balance {
        shuffle_reads_virtual(slices, np)
    } else {
        (slices, vec![0u64; np])
    };

    // --- adaptive balancing: the same skew detection the threaded engine
    // runs, over the identically shuffled reads, so both engines agree on
    // the hot-owner set. Empty = no replication (nothing tripped the gate).
    let hot_owners: Vec<bool> = if cfg.heuristics.hot_shard_k > 0 && np > 1 {
        let per_rank: Vec<Vec<u64>> = rank_reads
            .iter()
            .map(|reads| owner_volume_histogram(reads, &cfg.params, &owners))
            .collect();
        let hot = select_hot_owners(&sum_histograms(&per_rank), cfg.heuristics.hot_shard_k);
        if hot.iter().any(|&h| h) {
            hot
        } else {
            Vec::new()
        }
    } else {
        Vec::new()
    };

    // --- global spectra (the disjoint union of all owners' tables):
    // built from the reads, or reassembled from a snapshot's shards ---
    let (spectra, load_info) = if let Some(dir) = &cfg.load_spectrum {
        let chop = cfg.fault.snapshot_chop.map(|c| (c.rank, c.keep_bytes));
        let loaded = snapshot::load_snapshot_serial(dir, &cfg.params, np, cfg.recovery, chop)?;
        let spectra = LocalSpectra { kmers: loaded.kmers, tiles: loaded.tiles };
        (spectra, Some((loaded.per_rank_bytes, loaded.resharded, loaded.per_rank_repair)))
    } else {
        (LocalSpectra::build(reads, &cfg.params), None)
    };

    // --- snapshot save: real per-owner shard files, modeled write time ---
    let saved_bytes = match &cfg.save_spectrum {
        Some(dir) => Some(snapshot::save_snapshot_serial(
            dir,
            &cfg.params,
            np,
            cfg.parity,
            &spectra.kmers,
            &spectra.tiles,
        )?),
        None => None,
    };
    let snapshotting = load_info.is_some() || saved_bytes.is_some();

    // owned-entry counts per rank, in one pass over the spectra
    let mut owned_kmers = vec![0u64; np];
    for (code, _) in spectra.kmers.iter() {
        owned_kmers[owners.kmer_owner_at(Normalized::assume(code))] += 1;
    }
    let mut owned_tiles = vec![0u64; np];
    for (code, _) in spectra.tiles.iter() {
        owned_tiles[owners.tile_owner_at(Normalized::assume(code))] += 1;
    }

    // hot-shard replica size: ownership is disjoint, so the merged
    // replica every rank holds is exactly the sum of the hot owners'
    // pruned tables (mirrors `spectrum::replicate_hot_shards`)
    let hot_kmer_entries: u64 =
        hot_owners.iter().zip(&owned_kmers).filter(|&(&h, _)| h).map(|(_, &n)| n).sum();
    let hot_tile_entries: u64 =
        hot_owners.iter().zip(&owned_tiles).filter(|&(&h, _)| h).map(|(_, &n)| n).sum();
    // the replication collective: hot owners allgather their entries at
    // the count-exchange wire widths; every rank receives the union
    let hot_allgather_ns = if hot_owners.is_empty() {
        0.0
    } else {
        cost.allgatherv_ns(np, (hot_kmer_entries * 12 + hot_tile_entries * 20) as usize)
    };

    // --- per-rank construction accounting + correction ---
    let kcodec = cfg.params.kmer_codec();
    let tcodec = cfg.params.tile_codec();
    let max_batches = rank_reads
        .iter()
        .map(|r| r.len().div_ceil(cfg.chunk_size).max(1) as u64)
        .max()
        .unwrap_or(1);
    // correction scratch handed from each logical rank's router to the next
    let mut scratch = RouterScratch::default();
    let mut ranks = Vec::with_capacity(np);
    let mut rank_bases = Vec::with_capacity(np);
    let mut corrected_all = Vec::with_capacity(reads.len());
    for (me, mine) in rank_reads.into_iter().enumerate() {
        // construction counters
        let mut build = BuildStats {
            batches: if cfg.heuristics.batch_reads { max_batches } else { 1 },
            ..Default::default()
        };
        let mut nonowned_kmers: FxHashSet<u64> = FxHashSet::default();
        let mut nonowned_tiles: FxHashSet<u128> = FxHashSet::default();
        let mut chunk_start = 0usize;
        while chunk_start < mine.len() || chunk_start == 0 {
            let chunk_end = (chunk_start + cfg.chunk_size).min(mine.len());
            for read in &mine[chunk_start..chunk_end] {
                build.bases_processed += read.len() as u64;
                for (_, code) in kcodec.kmers_of(&read.seq) {
                    build.kmers_extracted += 1;
                    let key = owners.kmer_key(code);
                    if owners.kmer_owner_at(key) != me {
                        build.exchange_occurrences += 1;
                        nonowned_kmers.insert(key.key());
                    }
                }
                for (_, code) in tcodec.tiles_of(&read.seq) {
                    build.tiles_extracted += 1;
                    let key = owners.tile_key(code);
                    if owners.tile_owner_at(key) != me {
                        build.exchange_occurrences += 1;
                        nonowned_tiles.insert(key.key());
                    }
                }
                // True high-water sampling: inside the loop, per read —
                // matching the real engines (a chunk-boundary-only sample
                // can never under-report, but keep the semantics aligned).
                build.peak_reads_kmers = build.peak_reads_kmers.max(nonowned_kmers.len() as u64);
                build.peak_reads_tiles = build.peak_reads_tiles.max(nonowned_tiles.len() as u64);
            }
            if cfg.heuristics.batch_reads {
                // tables shipped + cleared by the per-batch exchange
                count_exchange_volume(&mut build, &nonowned_kmers, &nonowned_tiles);
                nonowned_kmers.clear();
                nonowned_tiles.clear();
            }
            if chunk_end >= mine.len() {
                break;
            }
            chunk_start = chunk_end;
        }
        if !cfg.heuristics.batch_reads {
            // single end-of-build exchange ships the whole reads tables
            count_exchange_volume(&mut build, &nonowned_kmers, &nonowned_tiles);
        }
        if load_info.is_some() {
            // Steps II–III never ran: the scan above only recovered the
            // reads-table key sets (needed for keep_read_tables), so its
            // extraction/exchange counters describe work that was skipped.
            build = BuildStats::default();
        }
        build.owned_kmers = owned_kmers[me];
        build.owned_tiles = owned_tiles[me];
        build.hot_entries = hot_kmer_entries + hot_tile_entries;
        let reads_table_entries = if cfg.heuristics.keep_read_tables {
            (nonowned_kmers.len() + nonowned_tiles.len()) as u64
        } else {
            0
        };
        build.reads_table_entries = reads_table_entries;
        if cfg.heuristics.replicate_kmers {
            build.replicated_entries += spectra.kmers.len() as u64;
        }
        if cfg.heuristics.replicate_tiles {
            build.replicated_entries += spectra.tiles.len() as u64;
        }
        let (group_kmer_entries, group_tile_entries) = if cfg.heuristics.partial_group > 1 {
            let g = cfg.heuristics.partial_group;
            let lo = (me / g) * g;
            let hi = (lo + g).min(np);
            let gk: u64 = owned_kmers[lo..hi].iter().sum();
            let gt: u64 = owned_tiles[lo..hi].iter().sum();
            build.group_entries = gk + gt;
            (gk, gt)
        } else {
            (owned_kmers[me], owned_tiles[me])
        };

        // --- correction (the real corrector, counted lookups): the same
        // router the threaded engine runs, over the global spectrum ---
        let heur = &cfg.heuristics;
        let hot = !hot_owners.is_empty();
        let tiers = Tiers {
            owners: &owners,
            me,
            group: heur.partial_group,
            hot_owners: &hot_owners,
            kmers: KindTiers {
                replicated: heur.replicate_kmers.then_some(&spectra.kmers),
                local: &spectra.kmers,
                hot: hot.then_some(&spectra.kmers),
                reads: heur.keep_read_tables.then(|| {
                    let empty = KmerSpectrum::new(kcodec, cfg.params.canonical);
                    reads_table(empty, &nonowned_kmers, &spectra.kmers)
                }),
            },
            tiles: KindTiers {
                replicated: heur.replicate_tiles.then_some(&spectra.tiles),
                local: &spectra.tiles,
                hot: hot.then_some(&spectra.tiles),
                reads: heur.keep_read_tables.then(|| {
                    let empty = TileSpectrum::new(tcodec, cfg.params.canonical);
                    reads_table(empty, &nonowned_tiles, &spectra.tiles)
                }),
            },
        };
        let transport = ModelTransport {
            spectra: &spectra,
            me,
            cost,
            fault: &cfg.fault,
            rpn,
            probe_extra: if heur.universal { 0.0 } else { cost.probe_ns },
            deadline_ns,
            edge_req_seq: vec![0u64; np],
            retry_wait_ns: 0.0,
            batch_comm_ns: 0.0,
        };
        let mut router = LookupRouter::new(tiers, transport, cfg, std::mem::take(&mut scratch));
        let mut correction = CorrectionStats::default();
        let mut corrected = mine;
        // aggregate mode fetches per chunk; base mode does not care
        for chunk in corrected.chunks_mut(cfg.chunk_size.max(1)) {
            router.correct_chunk(chunk, &cfg.params, |_, outcome, _| correction.absorb(&outcome));
        }
        let lookups = router.stats;
        let ModelTransport { probe_extra, retry_wait_ns, batch_comm_ns, .. } = router.transport;
        // cache_remote grows the reads tables in place
        let reads_kmer_entries = router.tiers.kmers.reads.as_ref().map_or(0, |r| r.len()) as u64;
        let reads_tile_entries = router.tiers.tiles.reads.as_ref().map_or(0, |r| r.len()) as u64;
        scratch = router.scratch;

        // --- time model ---
        let construct_ns = if let Some((per_rank_bytes, resharded, per_rank_repair)) = &load_info {
            // a snapshot load replaces the build: each logical rank reads
            // its own shard pair off disk; a repairing load additionally
            // streams the surviving group members and runs the GF(2^8)
            // rebuild; a re-shard load routes every entry through one
            // count-exchange round
            let io = cost.snapshot_io_ns(per_rank_bytes[me]);
            let rep = &per_rank_repair[me];
            let repair_ns = if rep.shards_repaired > 0 {
                cost.rs_repair_ns(rep.survivor_bytes_read, rep.bytes_reconstructed)
            } else {
                0.0
            };
            let reshard =
                if *resharded { cost.alltoallv_ns(np, per_rank_bytes[me] as usize) } else { 0.0 };
            (io + repair_ns + reshard + hot_allgather_ns) * smt
        } else {
            // extraction shards across the build workers; the per-round
            // collective overlaps the next round's extraction (pipelined
            // build), so the makespan is C + (B-1)·max(C,X) + X
            let compute = (build.bases_processed as f64 * cost.per_base_ns
                + (build.kmers_extracted + build.tiles_extracted) as f64 * cost.hash_insert_ns)
                / cfg.build_threads.max(1) as f64;
            // exchanges: each batch round ships the reads tables; bytes
            // approximated by entry counts × wire width
            let exchange_bytes =
                (build.peak_reads_kmers * 12 + build.peak_reads_tiles * 20).max(shuffle_bytes[me]);
            let comm_round = cost.alltoallv_ns(np, exchange_bytes as usize);
            let rounds = build.batches.max(1);
            let total = cost.overlapped_rounds_ns(rounds, compute / rounds as f64, comm_round);
            build.extract_ns = compute as u64;
            build.exchange_ns = (rounds as f64 * comm_round) as u64;
            build.overlap_ns = ((compute + rounds as f64 * comm_round) - total).max(0.0) as u64;
            // Out-of-core build: model the spill plane analytically. The
            // run bodies are this rank's owned entries at the run-file
            // entry widths (12 B k-mer, 20 B tile); spill waves fire
            // every time the accumulators outgrow the trigger (half the
            // budget headroom, mirroring `ooc::OocBuild`), each wave
            // draining both kinds to one run apiece. Runs are written
            // once and read twice (survivor-count pass + stream pass).
            let spill_ns = if let Some(budget) = cfg.memory_budget {
                let fixed = crate::ooc::fixed_floor(&cfg.params);
                let trigger = budget.saturating_sub(fixed).max(2) / 2;
                let body = owned_kmers[me] * 12 + owned_tiles[me] * 20;
                let waves = body.div_ceil(trigger).max(1);
                let runs = 2 * waves;
                let bytes = body + runs * specstore::spill::RUN_HEADER_BYTES as u64;
                build.spill_runs = runs;
                build.spill_bytes = bytes;
                build.ooc_peak_bytes = (fixed + 2 * trigger).min(budget);
                build.merge_ns = cost.spill_io_ns(2 * bytes) as u64;
                cost.spill_io_ns(bytes) + cost.spill_io_ns(2 * bytes)
            } else {
                0.0
            };
            (total + spill_ns + hot_allgather_ns) * smt
        };
        let local_lookups = lookups.local_kmer_lookups + lookups.local_tile_lookups;
        let rank_base_count = corrected.iter().map(|r| r.len() as u64).sum::<u64>();
        rank_bases.push(rank_base_count);
        let compute_ns =
            local_lookups as f64 * cost.hash_lookup_ns + rank_base_count as f64 * cost.per_base_ns;
        // seq-stamped wire sizes: 8-byte header on every request/response
        let kmer_req_bytes = if cfg.heuristics.universal { 17 } else { 16 };
        let tile_req_bytes = if cfg.heuristics.universal { 25 } else { 24 };
        let comm_ns = lookups.remote_kmer_lookups as f64
            * (cost.avg_lookup_roundtrip_ns(kmer_req_bytes, RESPONSE_BYTES, np, rpn) + probe_extra)
            + lookups.remote_tile_lookups as f64
                * (cost.avg_lookup_roundtrip_ns(tile_req_bytes, RESPONSE_BYTES, np, rpn)
                    + probe_extra)
            + batch_comm_ns
            + retry_wait_ns;
        let correct_ns = (compute_ns + comm_ns) * smt;

        // Per-table byte model mirroring `RankTables::memory_bytes`: each
        // resident table is priced by the flat-store geometry (smallest
        // power-of-two capacity holding its entries) at its paper-scale
        // entry count. Entry counts scale linearly with dataset size, so
        // paper-scale memory applies the same divisor as the time model
        // *before* the (step-wise) geometry.
        let kmer_bytes =
            |n: u64| KmerSpectrum::bytes_for_entries((n as f64 * cfg.scale) as usize) as u64;
        let tile_bytes =
            |n: u64| TileSpectrum::bytes_for_entries((n as f64 * cfg.scale) as usize) as u64;
        let mut spectrum_bytes = kmer_bytes(owned_kmers[me]) + tile_bytes(owned_tiles[me]);
        if cfg.heuristics.partial_group > 1 {
            // group tables coexist with the owned ones (the comm thread
            // still serves out-of-group requests from hash_kmers)
            spectrum_bytes += kmer_bytes(group_kmer_entries) + tile_bytes(group_tile_entries);
        }
        if cfg.heuristics.keep_read_tables {
            spectrum_bytes += kmer_bytes(reads_kmer_entries) + tile_bytes(reads_tile_entries);
        }
        if cfg.heuristics.replicate_kmers {
            spectrum_bytes += kmer_bytes(spectra.kmers.len() as u64);
        }
        if cfg.heuristics.replicate_tiles {
            spectrum_bytes += tile_bytes(spectra.tiles.len() as u64);
        }
        if !hot_owners.is_empty() {
            // every rank holds the merged hot-shard replica
            spectrum_bytes += kmer_bytes(hot_kmer_entries) + tile_bytes(hot_tile_entries);
        }
        let memory = cost.rank_memory_bytes_measured(spectrum_bytes);

        // snapshot accounting: modeled per-rank I/O time over real bytes,
        // with the same phase spans the threaded engine traces
        let snapshot_bytes_read = load_info.as_ref().map_or(0, |(b, _, _)| b[me]);
        let snapshot_bytes_written = saved_bytes.as_ref().map_or(0, |b| b[me]);
        // repair accounting: real reconstruction counters, modeled time
        // (the virtual engine's clock is the cost model, not the wall)
        let repair = load_info.as_ref().map_or_else(Default::default, |(_, _, reps)| {
            let mut rep = reps[me];
            rep.repair_ns = if rep.shards_repaired > 0 {
                (cost.rs_repair_ns(rep.survivor_bytes_read, rep.bytes_reconstructed) * cfg.scale)
                    as u64
            } else {
                0
            };
            rep
        });
        let snapshot_load_secs = if load_info.is_some() {
            cost.snapshot_io_ns(snapshot_bytes_read) * 1e-9 * cfg.scale
        } else {
            0.0
        };
        let snapshot_save_secs = if saved_bytes.is_some() {
            cost.snapshot_io_ns(snapshot_bytes_written) * 1e-9 * cfg.scale
        } else {
            0.0
        };
        let trace = snapshotting.then(|| {
            let mut t = TraceLog::new(me);
            if load_info.is_some() {
                t.phase_start("snapshot-load");
                t.phase_end("snapshot-load");
            }
            if saved_bytes.is_some() {
                t.phase_start("snapshot-save");
                t.phase_end("snapshot-save");
            }
            t
        });

        ranks.push(RankReport {
            rank: me,
            reads_processed: corrected.len() as u64,
            build,
            correction,
            lookups,
            construct_secs: construct_ns * 1e-9 * cfg.scale,
            correct_secs: correct_ns * 1e-9 * cfg.scale,
            comm_secs: comm_ns * smt * 1e-9 * cfg.scale,
            memory_bytes: memory,
            snapshot_bytes_read,
            snapshot_bytes_written,
            snapshot_load_secs,
            snapshot_save_secs,
            repair,
            trace,
        });
        corrected_all.extend(corrected);
    }

    // --- adaptive balancing: read-chunk stealing, modeled ---
    // Same gate as the threaded engine: stealing switches on only when
    // the shuffled chunk loads are imbalanced enough to pay for it.
    if cfg.heuristics.steal_chunks && np > 1 {
        let chunk_unit = cfg.chunk_size.max(1);
        let loads: Vec<u64> = ranks
            .iter()
            .map(|r| (r.reads_processed as usize).div_ceil(chunk_unit) as u64)
            .collect();
        if steal_worth_it(&loads) {
            model_chunk_stealing(&mut ranks, &rank_bases, chunk_unit, cost, rpn, smt, cfg.scale);
        }
    }

    // service load: every remote lookup is served by its owner — attribute
    // served counts by replaying the per-owner tallies
    // (uniform hashing makes these near-uniform; Fig 3's premise)
    distribute_service_counts(&mut ranks, &cfg.fault);

    corrected_all.sort_by_key(|r| r.id);
    Ok(RunOutput {
        corrected: corrected_all,
        report: RunReport { ranks, topology: cfg.topology, cost: *cost },
    })
}

/// Tally one count exchange's shipped volume: the reads tables' distinct
/// entries at the wire-tuple widths the real engines charge.
fn count_exchange_volume(
    build: &mut BuildStats,
    nonowned_kmers: &FxHashSet<u64>,
    nonowned_tiles: &FxHashSet<u128>,
) {
    build.exchange_entries += (nonowned_kmers.len() + nonowned_tiles.len()) as u64;
    build.exchange_bytes += (nonowned_kmers.len() * std::mem::size_of::<(u64, u32)>()
        + nonowned_tiles.len() * std::mem::size_of::<(u128, u32)>())
        as u64;
}

/// Analytic twin of the threaded engine's read-chunk stealing: level the
/// per-rank correction makespans toward the mean by moving whole chunks
/// from the currently slowest rank to the currently fastest, charging the
/// thief each chunk's correction work plus the steal round trip (request
/// plus the chunk's reads on the wire at the `StealResponse` widths). A move
/// only happens while it shrinks the spread — `t_max − t_min` must exceed
/// the chunk's cost — so a balanced run steals nothing, exactly like the
/// threaded protocol where no rank finishes early enough to steal.
///
/// Only modeled time, `chunks_stolen`, and `comm_secs` move;
/// `reads_processed` keeps describing the shuffle assignment (the
/// threaded engine's counter drifts with the actual steals, but which
/// physical rank corrected a read is immaterial to the model's outputs).
#[allow(clippy::too_many_arguments)]
fn model_chunk_stealing(
    ranks: &mut [RankReport],
    rank_bases: &[u64],
    chunk_size: usize,
    cost: &CostModel,
    rpn: usize,
    smt: f64,
    scale: f64,
) {
    let np = ranks.len();
    let mut t: Vec<f64> = ranks.iter().map(|r| r.correct_secs).collect();
    let mut chunks: Vec<u64> =
        ranks.iter().map(|r| (r.reads_processed as usize).div_ceil(chunk_size) as u64).collect();
    // per-chunk correction cost (and its comm share), fixed per donor rank
    let per_chunk: Vec<f64> =
        t.iter().zip(&chunks).map(|(&t, &c)| if c > 0 { t / c as f64 } else { 0.0 }).collect();
    let comm_per_chunk: Vec<f64> = ranks
        .iter()
        .zip(&chunks)
        .map(|(r, &c)| if c > 0 { r.comm_secs / c as f64 } else { 0.0 })
        .collect();
    let steal_rt: Vec<f64> = ranks
        .iter()
        .zip(rank_bases)
        .map(|(r, &bases)| {
            let reads = r.reads_processed.max(1);
            let avg_len = bases / reads;
            let n = (chunk_size as u64).min(reads);
            // StealResponse: seq + flag + count, then id + len-prefixed
            // seq/qual per read (see protocol::StealResponse::wire_bytes)
            let resp_bytes = (13 + n * (24 + 2 * avg_len)) as usize;
            cost.avg_lookup_roundtrip_ns(8, resp_bytes, np, rpn) * smt * 1e-9 * scale
        })
        .collect();
    let mut budget: u64 = chunks.iter().sum();
    while budget > 0 {
        budget -= 1;
        let (vi, _) = match t
            .iter()
            .enumerate()
            .filter(|&(r, _)| chunks[r] > 1)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        {
            Some(v) => v,
            None => break,
        };
        let (ti, _) = t
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("non-empty ranks");
        let move_cost = per_chunk[vi] + steal_rt[vi];
        if vi == ti || t[vi] - t[ti] <= move_cost {
            break;
        }
        chunks[vi] -= 1;
        chunks[ti] += 1;
        t[vi] -= per_chunk[vi];
        t[ti] += move_cost;
        ranks[ti].lookups.chunks_stolen += 1;
        // the chunk's remote-lookup traffic moves with it, and the thief
        // additionally pays the steal round trip
        ranks[vi].comm_secs = (ranks[vi].comm_secs - comm_per_chunk[vi]).max(0.0);
        ranks[ti].comm_secs += comm_per_chunk[vi] + steal_rt[vi];
    }
    for (r, t) in ranks.iter_mut().zip(t) {
        r.correct_secs = t;
    }
}

/// Spread `requests_served` over ranks proportionally to owned entries —
/// the virtual engine does not track per-owner request targets (that
/// would require per-lookup owner logging); uniform hashing makes the
/// share proportional to spectrum ownership, which Fig 3 shows is uniform
/// to within 1–2%. A killed rank's message plane is severed, so it
/// serves nothing and degraded keys are excluded from the served total.
fn distribute_service_counts(ranks: &mut [RankReport], fault: &FaultPlan) {
    let total_keys: u64 = ranks
        .iter()
        .map(|r| {
            (r.lookups.remote_total() + r.lookups.batched_keys)
                .saturating_sub(r.lookups.keys_degraded)
        })
        .sum();
    let total_batches: u64 = ranks.iter().map(|r| r.lookups.batches_sent).sum();
    let total_owned: u64 = ranks
        .iter()
        .filter(|r| !fault.kills(r.rank))
        .map(|r| r.build.owned_kmers + r.build.owned_tiles)
        .sum();
    if total_owned == 0 {
        return;
    }
    for r in ranks.iter_mut() {
        if fault.kills(r.rank) {
            r.lookups.requests_served = 0;
            r.lookups.batches_served = 0;
            continue;
        }
        let share = (r.build.owned_kmers + r.build.owned_tiles) as f64 / total_owned as f64;
        r.lookups.requests_served = (total_keys as f64 * share).round() as u64;
        r.lookups.batches_served = (total_batches as f64 * share).round() as u64;
    }
}

/// The reads table the build's `keep_read_tables` exchange would have
/// resolved: the global count of every non-owned key of the rank's reads
/// (0 = known absent).
fn reads_table<K: Key>(
    mut table: Spectrum<K>,
    keys: &FxHashSet<K>,
    global: &Spectrum<K>,
) -> Spectrum<K> {
    table.reserve(keys.len());
    for &key in keys {
        let key = Normalized::assume(key);
        table.add_count(key, global.count_at(key));
    }
    table
}

/// The modeled side of the lookup router: a request is answered from the
/// global spectrum (which *is* its owner's table, see the module docs)
/// while its cost goes on the rank's modeled clock and the seeded fault
/// plan decides, per edge and per attempt, whether the round trip is lost.
struct ModelTransport<'a> {
    spectra: &'a LocalSpectra,
    me: usize,
    cost: &'a CostModel,
    fault: &'a FaultPlan,
    /// Ranks per node, for the modeled round trip of a batch.
    rpn: usize,
    /// Modeled owner-side tag probe per request (0 in universal mode).
    probe_extra: f64,
    /// Base lookup deadline in modeled nanoseconds (0 = none).
    deadline_ns: f64,
    /// Per-destination count of modeled p2p requests sent by this rank —
    /// the per-edge message index feeding the seeded fault decisions
    /// (mirrors the threaded message plane's per-edge counters).
    edge_req_seq: Vec<u64>,
    /// Modeled nanoseconds spent waiting out missed deadlines.
    retry_wait_ns: f64,
    /// Modeled nanoseconds spent on batch round trips.
    batch_comm_ns: f64,
}

impl Transport for ModelTransport<'_> {
    /// Charge a batch's round trip when it first goes out. Single-key
    /// round trips all cost the same and are priced from the lookup
    /// counters in the time model; a retry costs its deadline wait.
    fn send(&mut self, _to: usize, _seq: u64, req: Request<'_>, attempt: u32) {
        if let (Request::Batch { kmers, tiles }, 0) = (req, attempt) {
            let req_bytes = 16 + 8 * kmers.len() + 16 * tiles.len();
            let resp_bytes = 16 + 8 * (kmers.len() + tiles.len());
            let np = self.edge_req_seq.len();
            self.batch_comm_ns +=
                self.cost.avg_lookup_roundtrip_ns(req_bytes, resp_bytes, np, self.rpn)
                    + self.probe_extra;
        }
    }

    /// One attempt of the modeled round trip: lost when the edge is
    /// severed or the fault plan drops this edge's next message, which
    /// costs the attempt's (doubling) deadline; answered otherwise. The
    /// fault-free path costs one branch.
    fn recv(&mut self, from: usize, _seq: u64, req: Request<'_>, attempt: u32) -> Option<Reply> {
        if !self.fault.is_none() {
            let lost = self.fault.severed(self.me, from) || {
                let n = self.edge_req_seq[from];
                self.edge_req_seq[from] += 1;
                let d = self.fault.decide(self.me, from, n);
                if d.delayed {
                    self.retry_wait_ns += self.fault.delay.as_nanos() as f64;
                }
                d.dropped
            };
            if lost {
                // `CostModel::retry_wait_ns` is the running total over
                // the failed attempts; this miss adds its increment
                self.retry_wait_ns += self.cost.retry_wait_ns(self.deadline_ns, attempt + 1)
                    - self.cost.retry_wait_ns(self.deadline_ns, attempt);
                return None;
            }
        }
        let LocalSpectra { kmers, tiles } = self.spectra;
        Some(match req {
            Request::Key(key) => Reply::Count(owner_count(key, kmers, tiles)),
            Request::Batch { kmers: k, tiles: t } => Reply::Batch(owner_batch(k, t, kmers, tiles)),
            // chunk stealing is leveled analytically (`model_chunk_stealing`)
            Request::Steal => Reply::Chunk(None),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicConfig;
    use mpisim::Topology;
    use reptile::{correct_dataset, ReptileParams};
    use std::time::Duration;

    fn params() -> ReptileParams {
        ReptileParams { k: 6, tile_overlap: 3, ..ReptileParams::for_tests() }
    }

    fn cfg(np: usize) -> EngineConfig {
        EngineConfig::virtual_cluster(np, params())
    }

    fn dataset(n: usize) -> Vec<Read> {
        // non-repetitive genome (mixed bases) so k-mers are position-specific
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
    fn matches_sequential_output() {
        let reads = dataset(80);
        let (seq_out, _) = correct_dataset(&reads, &params());
        for np in [1usize, 2, 16, 257] {
            let run = run_virtual(&cfg(np), &reads);
            assert_eq!(run.corrected, seq_out, "np={np}");
        }
    }

    #[test]
    fn matches_sequential_under_heuristics() {
        let reads = dataset(60);
        let (seq_out, _) = correct_dataset(&reads, &params());
        let matrix = [
            HeuristicConfig { universal: true, ..Default::default() },
            HeuristicConfig { keep_read_tables: true, ..Default::default() },
            HeuristicConfig { keep_read_tables: true, cache_remote: true, ..Default::default() },
            HeuristicConfig::replicate_both(),
            HeuristicConfig { batch_reads: true, ..Default::default() },
            HeuristicConfig::paper_production(),
            HeuristicConfig { load_balance: false, ..Default::default() },
            HeuristicConfig { aggregate_lookups: true, ..Default::default() },
            HeuristicConfig { aggregate_lookups: true, universal: true, ..Default::default() },
            HeuristicConfig { aggregate_lookups: true, batch_reads: true, ..Default::default() },
            HeuristicConfig {
                aggregate_lookups: true,
                keep_read_tables: true,
                cache_remote: true,
                ..Default::default()
            },
        ];
        for heur in matrix {
            let mut c = cfg(13);
            c.heuristics = heur;
            c.chunk_size = 5;
            let run = run_virtual(&c, &reads);
            assert_eq!(run.corrected, seq_out, "heur={}", heur.label());
        }
    }

    #[test]
    fn more_ranks_less_time() {
        // stay in the strong-scaling regime: >= ~100 reads per rank
        let reads = dataset(2000);
        let t_small = run_virtual(&cfg(4), &reads).report.makespan_secs();
        let t_large = run_virtual(&cfg(16), &reads).report.makespan_secs();
        assert!(t_large < t_small, "strong scaling must reduce makespan: {t_small} -> {t_large}");
    }

    #[test]
    fn replication_trades_memory_for_time() {
        let reads = dataset(200);
        let base = run_virtual(&cfg(16), &reads);
        let mut c = cfg(16);
        c.heuristics = HeuristicConfig::replicate_both();
        let repl = run_virtual(&c, &reads);
        assert!(repl.report.correct_secs() < base.report.correct_secs());
        assert!(repl.report.peak_memory_bytes() > base.report.peak_memory_bytes());
        assert_eq!(repl.report.ranks.iter().map(|r| r.lookups.remote_total()).sum::<u64>(), 0);
    }

    #[test]
    fn universal_mode_is_faster() {
        let reads = dataset(200);
        let base = run_virtual(&cfg(16), &reads);
        let mut c = cfg(16);
        c.heuristics.universal = true;
        let uni = run_virtual(&c, &reads);
        assert!(uni.report.correct_secs() < base.report.correct_secs());
        // same memory
        assert!((uni.report.peak_memory_bytes() - base.report.peak_memory_bytes()).abs() < 1.0);
    }

    #[test]
    fn scale_multiplies_times_linearly() {
        let reads = dataset(100);
        let one = run_virtual(&cfg(8), &reads);
        let mut c = cfg(8);
        c.scale = 100.0;
        let hundred = run_virtual(&c, &reads);
        let ratio = hundred.report.makespan_secs() / one.report.makespan_secs();
        assert!((ratio - 100.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn smt_oversubscription_slows_ranks_per_node_32() {
        let reads = dataset(200);
        let mut cfg8 = cfg(128);
        cfg8.topology = Topology::new(8);
        let mut cfg32 = cfg(128);
        cfg32.topology = Topology::new(32);
        let t8 = run_virtual(&cfg8, &reads).report.makespan_secs();
        let t32 = run_virtual(&cfg32, &reads).report.makespan_secs();
        assert!(t32 > t8, "Fig 2: 32 ranks/node slower than 8 ({t8} vs {t32})");
    }

    #[test]
    fn partial_replication_trades_memory_for_messages() {
        let reads = dataset(200);
        let mut prev_remote = u64::MAX;
        let mut prev_mem = 0.0f64;
        for g in [1usize, 2, 4, 8, 16] {
            let mut c = cfg(16);
            c.heuristics.partial_group = g;
            let run = run_virtual(&c, &reads);
            let remote: u64 = run.report.ranks.iter().map(|r| r.lookups.remote_total()).sum();
            let mem = run.report.peak_memory_bytes();
            assert!(remote <= prev_remote, "g={g}: remote lookups must not grow");
            assert!(mem >= prev_mem, "g={g}: memory must not shrink");
            prev_remote = remote;
            prev_mem = mem;
        }
        // g == np behaves like full replication: zero messages
        assert_eq!(prev_remote, 0, "group covering all ranks removes all messages");
    }

    #[test]
    fn partial_replication_output_matches_sequential() {
        let reads = dataset(80);
        let (seq_out, _) = reptile::correct_dataset(&reads, &params());
        for g in [2usize, 5] {
            let mut c = cfg(12);
            c.heuristics.partial_group = g;
            let run = run_virtual(&c, &reads);
            assert_eq!(run.corrected, seq_out, "g={g}");
        }
    }

    #[test]
    fn aggregation_cuts_modeled_messages_and_comm_time() {
        let reads = dataset(200);
        let base = run_virtual(&cfg(16), &reads);
        let mut c = cfg(16);
        c.heuristics.aggregate_lookups = true;
        let agg = run_virtual(&c, &reads);
        assert_eq!(agg.corrected, base.corrected, "aggregation must not change output");
        let msgs = |run: &RunOutput| -> u64 {
            run.report.ranks.iter().map(|r| r.lookups.remote_messages).sum()
        };
        let (base_msgs, agg_msgs) = (msgs(&base), msgs(&agg));
        assert!(agg_msgs > 0);
        assert!(
            base_msgs >= 5 * agg_msgs,
            "modeled message cut >= 5x (base {base_msgs}, agg {agg_msgs})"
        );
        let comm = |run: &RunOutput| -> f64 { run.report.ranks.iter().map(|r| r.comm_secs).sum() };
        assert!(
            comm(&agg) < comm(&base),
            "fewer round trips must lower modeled comm time ({} vs {})",
            comm(&agg),
            comm(&base)
        );
        let hits: u64 = agg.report.ranks.iter().map(|r| r.lookups.prefetch_hits).sum();
        assert!(hits > 0, "fetched counts must serve lookups");
        let batches: u64 = agg.report.ranks.iter().map(|r| r.lookups.batches_sent).sum();
        let served: u64 = agg.report.ranks.iter().map(|r| r.lookups.batches_served).sum();
        assert!(batches > 0);
        assert!(served > 0, "service shares must attribute batches to owners");
    }

    #[test]
    fn overlap_and_threads_shrink_modeled_build_time() {
        let reads = dataset(300);
        let mut batched = cfg(8);
        batched.chunk_size = 10;
        batched.heuristics.batch_reads = true;
        let b = run_virtual(&batched, &reads);
        // the pipelined batch build must report a positive overlap window
        assert!(b.report.ranks.iter().any(|r| r.build.overlap_ns > 0));
        for r in &b.report.ranks {
            // hidden time can never exceed either pipeline side
            assert!(r.build.overlap_ns <= r.build.extract_ns.min(r.build.exchange_ns) + 1);
            assert!(r.build.exchange_entries > 0);
            assert!(r.build.exchange_entries <= r.build.exchange_occurrences);
        }
        // quadrupling the build workers must cut modeled construction time
        let mut threaded = batched;
        threaded.build_threads = 4;
        let t = run_virtual(&threaded, &reads);
        let sum = |run: &RunOutput| run.report.ranks.iter().map(|r| r.construct_secs).sum::<f64>();
        assert!(sum(&t) < sum(&b), "more build threads must shrink modeled build time");
    }

    #[test]
    fn batch_mode_shrinks_peak_reads_tables() {
        let reads = dataset(300);
        let mut base = cfg(8);
        base.chunk_size = 10;
        let mut batch = base.clone();
        batch.heuristics.batch_reads = true;
        let b = run_virtual(&batch, &reads);
        let u = run_virtual(&base, &reads);
        let peak_b: u64 = b.report.ranks.iter().map(|r| r.build.peak_reads_kmers).max().unwrap();
        let peak_u: u64 = u.report.ranks.iter().map(|r| r.build.peak_reads_kmers).max().unwrap();
        assert!(peak_b < peak_u, "batching must shrink the reads table ({peak_b} vs {peak_u})");
    }

    /// Repeat-heavy dataset: half the reads are one homopolymer repeat
    /// (identical sequence — same shuffle owner, same few hot keys), the
    /// other half diverse background. This is simultaneously the skew
    /// shape for hot-shard detection (lookup volume funnels to the
    /// repeat keys' owners) and for stealing (all repeat reads land on
    /// one rank after the ownership shuffle).
    fn skewed_dataset(n: usize) -> Vec<Read> {
        let genome: Vec<u8> = (0..3000)
            .map(|i| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(i as u64 + 7) % 4) as usize])
            .collect();
        (0..n)
            .map(|i| {
                let seq: Vec<u8> = if i % 2 == 0 {
                    vec![b'A'; 40]
                } else {
                    let start = (i * 17) % (genome.len() - 40);
                    genome[start..start + 40].to_vec()
                };
                Read::new(i as u64 + 1, seq, vec![35; 40])
            })
            .collect()
    }

    #[test]
    fn hot_shard_replication_cuts_remote_lookups_not_output() {
        let reads = skewed_dataset(300);
        let (seq_out, _) = correct_dataset(&reads, &params());
        let base = run_virtual(&cfg(8), &reads);
        assert_eq!(base.corrected, seq_out);
        let mut c = cfg(8);
        c.heuristics.hot_shard_k = 2;
        let adaptive = run_virtual(&c, &reads);
        assert_eq!(adaptive.corrected, seq_out, "replication must not change output");
        assert!(adaptive.report.hot_shard_hits() > 0, "hot replicas must serve lookups");
        assert!(
            adaptive.report.remote_lookups() < base.report.remote_lookups(),
            "hot-shard hits must replace remote lookups ({} vs {})",
            adaptive.report.remote_lookups(),
            base.report.remote_lookups()
        );
        assert!(
            adaptive.report.peak_memory_bytes() > base.report.peak_memory_bytes(),
            "the replica costs memory"
        );
    }

    #[test]
    fn uniform_workload_replicates_nothing() {
        let reads = dataset(200);
        let base = run_virtual(&cfg(8), &reads);
        let mut c = cfg(8);
        c.heuristics.hot_shard_k = 4;
        let run = run_virtual(&c, &reads);
        assert_eq!(run.corrected, base.corrected);
        assert_eq!(run.report.hot_shard_hits(), 0, "no owner should trip the 1.5x gate");
        assert!(
            (run.report.peak_memory_bytes() - base.report.peak_memory_bytes()).abs() < 1.0,
            "an untripped gate must cost nothing"
        );
    }

    #[test]
    fn chunk_stealing_levels_stragglers() {
        let reads = skewed_dataset(400);
        let (seq_out, _) = correct_dataset(&reads, &params());
        let mut base = cfg(8);
        base.chunk_size = 10;
        let b = run_virtual(&base, &reads);
        let mut c = base.clone();
        c.heuristics.steal_chunks = true;
        let s = run_virtual(&c, &reads);
        assert_eq!(s.corrected, seq_out, "stealing must not change output");
        assert!(s.report.chunks_stolen() > 0, "the skewed assignment must trigger steals");
        assert!(
            s.report.straggler_spread() < b.report.straggler_spread(),
            "stealing must shrink the spread ({} vs {})",
            s.report.straggler_spread(),
            b.report.straggler_spread()
        );
        assert!(
            s.report.makespan_secs() < b.report.makespan_secs(),
            "leveling the stragglers must shrink the modeled makespan"
        );
    }

    /// Benign faults (dup/reorder, nothing lost) leave the modeled run
    /// byte-identical to the fault-free one — including all counters.
    #[test]
    fn benign_faults_change_nothing() {
        let reads = dataset(80);
        let clean = run_virtual(&cfg(8), &reads);
        let mut c = cfg(8);
        c.fault = FaultPlan::parse("seed=5,dup=0.3,reorder=0.4").unwrap();
        let faulted = run_virtual(&c, &reads);
        assert_eq!(faulted.corrected, clean.corrected);
        for (a, b) in faulted.report.ranks.iter().zip(&clean.report.ranks) {
            assert_eq!(a.lookups.keys_degraded, 0);
            assert_eq!(a.lookups.remote_total(), b.lookups.remote_total());
        }
    }

    /// Lossy faults with a generous budget: output identical, retries
    /// and deadline misses counted, modeled comm time strictly larger.
    #[test]
    fn retries_mask_drops_in_the_model() {
        let reads = dataset(80);
        let clean = run_virtual(&cfg(8), &reads);
        let mut c = cfg(8);
        c.fault = FaultPlan::parse("seed=9,drop=0.2").unwrap();
        c.lookup_deadline = Some(Duration::from_micros(50));
        c.retry_budget = 30;
        let faulted = run_virtual(&c, &reads);
        assert_eq!(faulted.corrected, clean.corrected, "retries must mask drops");
        let retried: u64 = faulted.report.ranks.iter().map(|r| r.lookups.requests_retried).sum();
        let missed: u64 = faulted.report.ranks.iter().map(|r| r.lookups.deadline_misses).sum();
        let degraded: u64 = faulted.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
        assert!(retried > 0 && missed > 0, "drop=0.2 must cost retries");
        assert_eq!(degraded, 0, "budget 30 must outlast drop=0.2");
        let comm = |run: &RunOutput| -> f64 { run.report.ranks.iter().map(|r| r.comm_secs).sum() };
        assert!(comm(&faulted) > comm(&clean), "deadline waits must show up in modeled time");
    }

    /// A killed owner degrades every key it owns; the run completes and
    /// the killed rank serves nothing.
    #[test]
    fn killed_rank_degrades_its_keys() {
        let reads = dataset(80);
        let mut c = cfg(8);
        c.fault = FaultPlan::parse("seed=1,kill=3").unwrap();
        c.lookup_deadline = Some(Duration::from_micros(50));
        c.retry_budget = 2;
        let run = run_virtual(&c, &reads);
        assert_eq!(run.corrected.len(), reads.len());
        let degraded: u64 = run.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
        assert!(degraded > 0, "keys owned by the killed rank must degrade");
        assert_eq!(run.report.ranks[3].lookups.requests_served, 0);
    }
}
