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
//! message plane applies physically, in the order the wire sends them
//! (a round's requests, then the resends of those it lost), the router
//! walks its one retry/backoff state machine, each attempt in which a
//! round lost a request puts one missed-deadline wait on the modeled
//! clock ([`CostModel::retry_wait_ns`]), and keys degrade to the
//! paper's "absent everywhere" answer when the budget runs out. A kill
//! severs the rank's p2p plane both directions, so every lookup it owns
//! (and every lookup it issues) degrades — exactly the threaded semantics.
//!
//! Steps II–III are replayed rather than executed, once per key kind:
//! `KindModel` splits the global spectrum into per-rank owned entries
//! and the hot replica, prices the kind's tables and hands the router
//! its tiers; `ReadsTally` walks each rank's reads with the build's own
//! occurrence walk (`OwnerMap::keys_of`) for the extraction, exchange
//! and reads-table counters. Every `BuildStats` counter the threaded
//! build reports comes out equal, rank by rank (cross-engine tested).
//!
//! `scale` linearly extrapolates modeled times from a scaled-down dataset
//! to paper-scale counts (per-rank work and traffic are linear in reads
//! per rank; see DESIGN.md §2).

use crate::balance::{
    owner_volume_histogram, select_hot_owners, shuffle_reads_virtual, steal_worth_it,
    sum_histograms,
};
use crate::engine::{EngineConfig, EngineError, RunOutput};
use crate::heuristics::HeuristicConfig;
use crate::owner::{Key, OwnerMap};
use crate::protocol::RESPONSE_BYTES;
use crate::report::{RankReport, RunReport};
use crate::router::{
    owner_batch, owner_count, KindTiers, LookupRouter, Pending, Reply, Request, RouterScratch,
    Tiers, Transport,
};
use crate::snapshot;
use crate::spectrum::BuildStats;
use dnaseq::{FxHashSet, Read};
use mpisim::{CostModel, FaultPlan};
use reptile::spectrum::{LocalSpectra, Spectrum};
use reptile::{CorrectionStats, Normalized, SpectrumKey};

/// [`VirtualEngine`](crate::VirtualEngine)'s run: the distributed
/// algorithm on `cfg.np` logical ranks. Snapshot shards are real files
/// even under this engine — the virtual cluster writes/reads them
/// serially and charges each logical rank the modeled I/O time for its
/// own shard pair.
pub(crate) fn run(cfg: &EngineConfig, reads: &[Read]) -> Result<RunOutput, EngineError> {
    cfg.validate()?;
    let np = cfg.np;
    let heur = &cfg.heuristics;
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
    let (rank_reads, shuffle_bytes) = if heur.load_balance {
        shuffle_reads_virtual(slices, np)
    } else {
        (slices, vec![0u64; np])
    };

    // --- adaptive balancing: the same skew detection the threaded engine
    // runs, over the identically shuffled reads, so both engines agree on
    // the hot-owner set. Empty = no replication (nothing tripped the gate).
    let hot_owners: Vec<bool> = if heur.hot_shard_k > 0 && np > 1 {
        let per_rank: Vec<Vec<u64>> =
            rank_reads.iter().map(|reads| owner_volume_histogram(reads, &owners)).collect();
        let hot = select_hot_owners(&sum_histograms(&per_rank), heur.hot_shard_k);
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

    // each kind's owned entries per rank and hot-shard replica size
    let kmer_model = KindModel::new(&spectra.kmers, heur.replicate_kmers, &owners, &hot_owners);
    let tile_model = KindModel::new(&spectra.tiles, heur.replicate_tiles, &owners, &hot_owners);
    // the replication collective: hot owners allgather their entries at
    // the count-exchange wire widths; every rank receives the union
    let hot_allgather_ns = match (kmer_model.hot, tile_model.hot) {
        (Some(k), Some(t)) => {
            cost.allgatherv_ns(np, (packed_bytes::<u64>(k) + packed_bytes::<u128>(t)) as usize)
        }
        _ => 0.0,
    };

    // --- per-rank construction accounting + correction ---
    let max_batches = rank_reads
        .iter()
        .map(|r| r.len().div_ceil(cfg.chunk_size).max(1) as u64)
        .max()
        .unwrap_or(1);
    // correction scratch handed from each logical rank's router to the next
    let mut scratch = RouterScratch::default();
    // (keys, batches) each owner answered, tallied as requests reach it
    let mut served = vec![(0u64, 0u64); np];
    let mut ranks = Vec::with_capacity(np);
    let mut rank_bases = Vec::with_capacity(np);
    let mut corrected_all = Vec::with_capacity(reads.len());
    for (me, mine) in rank_reads.into_iter().enumerate() {
        // construction counters: the build's occurrence walk, replayed
        // per kind over the rank's chunks
        let mut kmer_reads = ReadsTally::<u64>::default();
        let mut tile_reads = ReadsTally::<u128>::default();
        let mut bases = 0u64;
        for chunk in mine.chunks(cfg.chunk_size.max(1)) {
            for read in chunk {
                bases += read.len() as u64;
                kmer_reads.read(&read.seq, &owners, me);
                tile_reads.read(&read.seq, &owners, me);
            }
            if heur.batch_reads {
                // tables shipped + cleared by the per-batch exchange
                kmer_reads.exchange(true);
                tile_reads.exchange(true);
            }
        }
        if !heur.batch_reads {
            // single end-of-build exchange ships the whole reads tables
            kmer_reads.exchange(false);
            tile_reads.exchange(false);
        }
        // After a snapshot load Steps II–III never ran: the scan above
        // only recovered the reads-table key sets (needed for
        // keep_read_tables), so its extraction/exchange counters
        // describe work that was skipped.
        let mut build = if load_info.is_some() {
            BuildStats::default()
        } else {
            BuildStats {
                kmers_extracted: kmer_reads.extracted,
                tiles_extracted: tile_reads.extracted,
                bases_processed: bases,
                batches: if heur.batch_reads { max_batches } else { 1 },
                peak_reads_kmers: kmer_reads.peak,
                peak_reads_tiles: tile_reads.peak,
                exchange_entries: kmer_reads.entries + tile_reads.entries,
                exchange_occurrences: kmer_reads.occurrences + tile_reads.occurrences,
                exchange_bytes: kmer_reads.bytes + tile_reads.bytes,
                ..Default::default()
            }
        };
        build.owned_kmers = kmer_model.owned[me];
        build.owned_tiles = tile_model.owned[me];
        build.hot_entries = kmer_model.hot.unwrap_or(0) + tile_model.hot.unwrap_or(0);
        if heur.keep_read_tables {
            build.reads_table_entries = (kmer_reads.keys.len() + tile_reads.keys.len()) as u64;
        }
        build.replicated_entries = kmer_model.replicated.map_or(0, |s| s.len() as u64)
            + tile_model.replicated.map_or(0, |s| s.len() as u64);
        if heur.partial_group > 1 {
            build.group_entries =
                kmer_model.group(me, heur.partial_group) + tile_model.group(me, heur.partial_group);
        }

        // --- correction (the real corrector, counted lookups): the same
        // router the threaded engine runs, over the global spectrum ---
        let keep = heur.keep_read_tables;
        let tiers = Tiers {
            owners: &owners,
            me,
            group: heur.partial_group,
            hot_owners: &hot_owners,
            kmers: kmer_model.tiers(keep.then_some(&kmer_reads.keys)),
            tiles: tile_model.tiers(keep.then_some(&tile_reads.keys)),
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
            served: &mut served,
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
            let exchange_bytes = (packed_bytes::<u64>(build.peak_reads_kmers)
                + packed_bytes::<u128>(build.peak_reads_tiles))
            .max(shuffle_bytes[me]);
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
                let body = packed_bytes::<u64>(kmer_model.owned[me])
                    + packed_bytes::<u128>(tile_model.owned[me]);
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
        let single_key = |n: u64, req_bytes: usize| {
            n as f64
                * (cost.avg_lookup_roundtrip_ns(req_bytes, RESPONSE_BYTES, np, rpn) + probe_extra)
        };
        let comm_ns = single_key(lookups.remote_kmer_lookups, request_bytes::<u64>(heur))
            + single_key(lookups.remote_tile_lookups, request_bytes::<u128>(heur))
            + batch_comm_ns
            + retry_wait_ns;
        let correct_ns = (compute_ns + comm_ns) * smt;

        // per-table byte model mirroring `RankTables::memory_bytes`
        let spectrum_bytes = kmer_model.table_bytes(me, reads_kmer_entries, heur, cfg.scale)
            + tile_model.table_bytes(me, reads_tile_entries, heur, cfg.scale);
        let memory = cost.rank_memory_bytes_measured(spectrum_bytes);

        // snapshot accounting: modeled per-rank I/O time over real bytes
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
        });
        corrected_all.extend(corrected);
    }

    // --- adaptive balancing: read-chunk stealing, modeled ---
    // Same gate as the threaded engine: stealing switches on only when
    // the shuffled chunk loads are imbalanced enough to pay for it.
    if heur.steal_chunks && np > 1 {
        let chunk_unit = cfg.chunk_size.max(1);
        let loads: Vec<u64> = ranks
            .iter()
            .map(|r| (r.reads_processed as usize).div_ceil(chunk_unit) as u64)
            .collect();
        if steal_worth_it(&loads) {
            model_chunk_stealing(&mut ranks, &rank_bases, chunk_unit, cost, rpn, smt, cfg.scale);
        }
    }

    for (r, &(keys, batches)) in ranks.iter_mut().zip(&served) {
        r.lookups.requests_served = keys;
        r.lookups.batches_served = batches;
    }

    corrected_all.sort_by_key(|r| r.id);
    Ok(RunOutput {
        corrected: corrected_all,
        report: RunReport { ranks, topology: cfg.topology, cost: *cost },
    })
}

/// One key kind's share of the global spectra, for the replay.
struct KindModel<'s, K: SpectrumKey> {
    /// The global spectrum of the kind (every owner's table at once).
    spectrum: &'s Spectrum<K>,
    /// The same spectrum when every rank replicates it (`replicate_*`).
    replicated: Option<&'s Spectrum<K>>,
    /// Owned entries per rank.
    owned: Vec<u64>,
    /// Entries of the merged hot-shard replica every rank holds (`None`
    /// without one). Ownership is disjoint, so it is exactly the sum of
    /// the hot owners' pruned tables (mirrors
    /// `spectrum::replicate_hot_shards`).
    hot: Option<u64>,
}

impl<'s, K: Key> KindModel<'s, K> {
    fn new(
        spectrum: &'s Spectrum<K>,
        replicate: bool,
        owners: &OwnerMap,
        hot_owners: &[bool],
    ) -> KindModel<'s, K> {
        let mut owned = vec![0u64; owners.np()];
        for (key, _) in spectrum.iter() {
            owned[K::owner(Normalized::assume(key), owners)] += 1;
        }
        let hot = (!hot_owners.is_empty())
            .then(|| hot_owners.iter().zip(&owned).filter(|&(&h, _)| h).map(|(_, &n)| n).sum());
        KindModel { spectrum, replicated: replicate.then_some(spectrum), owned, hot }
    }

    /// Entries of rank `me`'s group table under partial replication in
    /// groups of `g`.
    fn group(&self, me: usize, g: usize) -> u64 {
        let lo = (me / g) * g;
        let hi = (lo + g).min(self.owned.len());
        self.owned[lo..hi].iter().sum()
    }

    /// A rank's lookup tiers of this kind, over the global spectrum,
    /// with the reads table of the non-owned `reads_keys` when kept.
    fn tiers(&self, reads_keys: Option<&FxHashSet<K>>) -> KindTiers<'s, K> {
        KindTiers {
            replicated: self.replicated,
            local: self.spectrum,
            hot: self.hot.map(|_| self.spectrum),
            reads: reads_keys.map(|keys| reads_table(keys, self.spectrum)),
        }
    }

    /// Per-table byte model mirroring `KindTables::memory_bytes`: each
    /// table resident on rank `me` is priced by the flat-store geometry
    /// (smallest power-of-two capacity holding its entries) at its
    /// paper-scale entry count. Entry counts scale linearly with dataset
    /// size, so paper-scale memory applies the same divisor as the time
    /// model *before* the (step-wise) geometry. `reads` is the reads
    /// table's final size (`cache_remote` grows it). A group table
    /// coexists with the owned one (the comm thread still serves
    /// out-of-group requests from the owned table).
    fn table_bytes(&self, me: usize, reads: u64, heur: &HeuristicConfig, scale: f64) -> u64 {
        let bytes = |n: u64| Spectrum::<K>::bytes_for_entries((n as f64 * scale) as usize) as u64;
        let group = (heur.partial_group > 1).then(|| self.group(me, heur.partial_group));
        let reads = heur.keep_read_tables.then_some(reads);
        let replicated = self.replicated.map(|s| s.len() as u64);
        let tables = [Some(self.owned[me]), group, reads, replicated, self.hot];
        tables.into_iter().flatten().map(bytes).sum()
    }
}

/// One key kind's replay of a rank's Steps II–III occurrence walk: the
/// counters the build reports, and the distinct non-owned keys its
/// reads table holds.
#[derive(Default)]
struct ReadsTally<K> {
    /// Occurrences extracted.
    extracted: u64,
    /// Occurrences owned elsewhere.
    occurrences: u64,
    /// Distinct non-owned keys since the last batch exchange.
    keys: FxHashSet<K>,
    /// High-water mark of `keys`, sampled per read.
    peak: u64,
    /// Entries shipped through count exchanges.
    entries: u64,
    /// Bytes shipped, at the wire-tuple width the real engines charge.
    bytes: u64,
}

impl<K: Key> ReadsTally<K> {
    /// Walk one read's occurrences. The peak is sampled inside the loop,
    /// per read, matching the real engines.
    fn read(&mut self, seq: &[u8], owners: &OwnerMap, me: usize) {
        for (key, owner) in owners.keys_of::<K>(seq) {
            self.extracted += 1;
            if owner != me {
                self.occurrences += 1;
                self.keys.insert(key.key());
            }
        }
        self.peak = self.peak.max(self.keys.len() as u64);
    }

    /// One count exchange ships the distinct keys; a batch exchange also
    /// clears them.
    fn exchange(&mut self, clear: bool) {
        self.entries += self.keys.len() as u64;
        self.bytes += (self.keys.len() * std::mem::size_of::<(K, u32)>()) as u64;
        if clear {
            self.keys.clear();
        }
    }
}

/// Bytes of `entries` `(key, count)` pairs packed for the wire or a run
/// file: 12 B per k-mer, 20 B per tile.
fn packed_bytes<K: SpectrumKey>(entries: u64) -> u64 {
    entries * (K::BYTES as u64 + 4)
}

/// A single-key request's modeled wire size: the 8-byte sequence-stamp
/// header, the key, and the universal struct's kind byte.
fn request_bytes<K: SpectrumKey>(heur: &HeuristicConfig) -> usize {
    8 + std::mem::size_of::<K>() + heur.universal as usize
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

/// The reads table the build's `keep_read_tables` exchange would have
/// resolved: the global count of every non-owned key of the rank's reads
/// (0 = known absent).
fn reads_table<K: Key>(keys: &FxHashSet<K>, global: &Spectrum<K>) -> Spectrum<K> {
    let mut table = Spectrum::new(global.codec(), global.canonical());
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
    /// Run-wide `(keys, batches)` each owner has answered.
    served: &'a mut [(u64, u64)],
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

    /// One attempt of the modeled round: each pending request, in send
    /// order, is lost when the edge is severed or the fault plan drops
    /// this edge's next message, and answered — and counted for its
    /// owner, twice when the plan duplicates it — otherwise. An attempt that
    /// lost any request costs its (doubling) deadline once, as the wire
    /// waits it out once for the whole round. The fault-free path costs
    /// one branch per request.
    fn recv(
        &mut self,
        pending: &[Pending<'_>],
        first: u64,
        replies: &mut [Option<Reply>],
        attempt: u32,
    ) {
        let LocalSpectra { kmers: held_kmers, tiles: held_tiles } = self.spectra;
        let mut lost_any = false;
        for p in pending {
            // lost when the edge is severed or the plan drops the edge's
            // next message; a delay goes on the modeled clock
            let mut copies = 1;
            let lost = !self.fault.is_none()
                && (self.fault.severed(self.me, p.to) || {
                    let n = self.edge_req_seq[p.to];
                    self.edge_req_seq[p.to] += 1;
                    let d = self.fault.decide(self.me, p.to, n);
                    if d.delayed {
                        self.retry_wait_ns += self.fault.delay.as_nanos() as f64;
                    }
                    copies += d.duplicated as u64;
                    d.dropped
                });
            lost_any |= lost;
            if !lost {
                let served = &mut self.served[p.to];
                replies[(p.seq - first) as usize] = Some(match p.req {
                    Request::Key(key) => {
                        served.0 += copies;
                        Reply::Count(owner_count(key, held_kmers, held_tiles))
                    }
                    Request::Batch { kmers, tiles } => {
                        served.0 += copies * (kmers.len() + tiles.len()) as u64;
                        served.1 += copies;
                        Reply::Batch(owner_batch(kmers, tiles, held_kmers, held_tiles))
                    }
                    // chunk stealing is leveled analytically (`model_chunk_stealing`)
                    Request::Steal => Reply::Chunk(None),
                });
            }
        }
        if lost_any {
            // `CostModel::retry_wait_ns` is the running total over the
            // failed attempts; this attempt adds its increment
            self.retry_wait_ns += self.cost.retry_wait_ns(self.deadline_ns, attempt + 1)
                - self.cost.retry_wait_ns(self.deadline_ns, attempt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, VirtualEngine};
    use crate::heuristics::HeuristicConfig;
    use crate::test_data::{mixed_reads as dataset, params};
    use mpisim::Topology;
    use reptile::correct_dataset;
    use std::time::Duration;

    fn cfg(np: usize) -> EngineConfig {
        EngineConfig::virtual_cluster(np, params())
    }

    #[test]
    fn more_ranks_less_time() {
        // stay in the strong-scaling regime: >= ~100 reads per rank
        let reads = dataset(2000);
        let t_small = VirtualEngine.run(&cfg(4), &reads).report.makespan_secs();
        let t_large = VirtualEngine.run(&cfg(16), &reads).report.makespan_secs();
        assert!(t_large < t_small, "strong scaling must reduce makespan: {t_small} -> {t_large}");
    }

    #[test]
    fn replication_trades_memory_for_time() {
        let reads = dataset(200);
        let base = VirtualEngine.run(&cfg(16), &reads);
        let mut c = cfg(16);
        c.heuristics = HeuristicConfig::replicate_both();
        let repl = VirtualEngine.run(&c, &reads);
        assert!(repl.report.correct_secs() < base.report.correct_secs());
        assert!(repl.report.peak_memory_bytes() > base.report.peak_memory_bytes());
        assert_eq!(repl.report.ranks.iter().map(|r| r.lookups.remote_total()).sum::<u64>(), 0);
    }

    #[test]
    fn universal_mode_is_faster() {
        let reads = dataset(200);
        let base = VirtualEngine.run(&cfg(16), &reads);
        let mut c = cfg(16);
        c.heuristics.universal = true;
        let uni = VirtualEngine.run(&c, &reads);
        assert!(uni.report.correct_secs() < base.report.correct_secs());
        // same memory
        assert!((uni.report.peak_memory_bytes() - base.report.peak_memory_bytes()).abs() < 1.0);
    }

    #[test]
    fn scale_multiplies_times_linearly() {
        let reads = dataset(100);
        let one = VirtualEngine.run(&cfg(8), &reads);
        let mut c = cfg(8);
        c.scale = 100.0;
        let hundred = VirtualEngine.run(&c, &reads);
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
        let t8 = VirtualEngine.run(&cfg8, &reads).report.makespan_secs();
        let t32 = VirtualEngine.run(&cfg32, &reads).report.makespan_secs();
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
            let run = VirtualEngine.run(&c, &reads);
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
    fn aggregation_cuts_modeled_messages_and_comm_time() {
        let reads = dataset(200);
        let base = VirtualEngine.run(&cfg(16), &reads);
        let mut c = cfg(16);
        c.heuristics.aggregate_lookups = true;
        let agg = VirtualEngine.run(&c, &reads);
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
        assert_eq!(served, batches, "every batch sent is served once, by its owner");
    }

    #[test]
    fn overlap_and_threads_shrink_modeled_build_time() {
        let reads = dataset(300);
        let mut batched = cfg(8);
        batched.chunk_size = 10;
        batched.heuristics.batch_reads = true;
        let b = VirtualEngine.run(&batched, &reads);
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
        let t = VirtualEngine.run(&threaded, &reads);
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
        let b = VirtualEngine.run(&batch, &reads);
        let u = VirtualEngine.run(&base, &reads);
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
        let base = VirtualEngine.run(&cfg(8), &reads);
        assert_eq!(base.corrected, seq_out);
        let mut c = cfg(8);
        c.heuristics.hot_shard_k = 2;
        let adaptive = VirtualEngine.run(&c, &reads);
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
        let base = VirtualEngine.run(&cfg(8), &reads);
        let mut c = cfg(8);
        c.heuristics.hot_shard_k = 4;
        let run = VirtualEngine.run(&c, &reads);
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
        let b = VirtualEngine.run(&base, &reads);
        let mut c = base.clone();
        c.heuristics.steal_chunks = true;
        let s = VirtualEngine.run(&c, &reads);
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
        let clean = VirtualEngine.run(&cfg(8), &reads);
        let mut c = cfg(8);
        c.fault = FaultPlan::parse("seed=5,dup=0.3,reorder=0.4").unwrap();
        let faulted = VirtualEngine.run(&c, &reads);
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
        let clean = VirtualEngine.run(&cfg(8), &reads);
        let mut c = cfg(8);
        c.fault = FaultPlan::parse("seed=9,drop=0.2").unwrap();
        c.lookup_deadline = Some(Duration::from_micros(50));
        c.retry_budget = 30;
        let faulted = VirtualEngine.run(&c, &reads);
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
        let run = VirtualEngine.run(&c, &reads);
        assert_eq!(run.corrected.len(), reads.len());
        let degraded: u64 = run.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
        assert!(degraded > 0, "keys owned by the killed rank must degrade");
        assert_eq!(run.report.ranks[3].lookups.requests_served, 0);
    }
}
