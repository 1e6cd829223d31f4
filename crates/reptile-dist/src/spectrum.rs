//! Distributed spectrum construction (paper Steps II–III).
//!
//! Each rank extracts the k-mers and tiles of its reads into *two* hash
//! tables per spectrum: `hashKmer` for codes it owns
//! (`hash(code) % np == rank`) and `readsKmer` for codes owned elsewhere
//! (`hashTile`/`readsTile` for tiles). An `MPI_Alltoallv` then ships every
//! `readsKmer` entry to its owner, which merges the counts; after the
//! exchange each code lives **only** at its owner with its true global
//! count, and entries below the frequency threshold are pruned.
//!
//! In *batch reads table* mode the exchange runs after every chunk and
//! the reads tables are cleared, bounding their size; an
//! `allreduce(max)` on the batch count keeps every rank participating in
//! the collectives until the slowest rank has drained its reads.
//!
//! # The pipelined builder
//!
//! [`build_distributed`] runs the phase as a pipelined producer/exchanger
//! instead of the one-thread, one-occurrence-at-a-time loop that
//! [`build_distributed_serial`] keeps as the reference:
//!
//! ```text
//!        batch B                    batch B+1                 batch B+2
//!  ┌───────────────────┐      ┌───────────────────┐      ┌──────────────
//!  │ fused extract ×T  │      │ fused extract ×T  │      │ fused extract
//!  │ radix + RLE merge │      │ radix + RLE merge │      │ radix + RLE
//!  └───────┬───────────┘      └───────┬───────────┘      └──────┬───────
//!          │ start_alltoallv ─────────┼─── wait/merge           │
//!          └──────────(in flight)─────┘   start_alltoallv ──────┼── wait
//! ```
//!
//! 1. **Sharded extraction** — the batch's reads are split across a
//!    *persistent pool* of `build_threads` workers (spawned once per
//!    build, fed read ranges over channels, output buffers recycled);
//!    each runs one batched fused scan per read
//!    ([`TileCodec::fused_scan_into`]) — SWAR/SIMD base classification
//!    plus an incrementally rolled k-mer/tile code — and pushes raw keys
//!    into per-thread, per-owner buckets. A single-rank build skips the
//!    owner hash entirely.
//! 2. **Adaptive pre-aggregation** — non-owned occurrence buckets are
//!    folded per batch into sorted distinct `(key, count)` runs by the
//!    cheapest exact strategy for the key width (the `counts` module:
//!    direct counting arrays for narrow keys, partition-and-count for
//!    mid widths, LSD radix sort + run-length encoding for wide ones),
//!    so the exchange ships each distinct key once — exactly the dedup
//!    the serial reads tables performed, without the per-occurrence
//!    hash insert.
//! 3. **Deferred tally materialization** — the running global tallies
//!    are the same width-adaptive accumulators: raw own-bucket
//!    occurrences and exchanged runs accumulate with no per-key hash
//!    probe at all and are folded once, after the last exchange, into
//!    sorted distinct entries (saturating adds commute, so any fold
//!    order is bit-identical to per-occurrence inserts); the Step III
//!    threshold prune runs as a sweep over the entry runs, and the
//!    flat tables are materialized survivors-only with an exact
//!    reserve and one monotone bulk load (no full-size table, no prune
//!    rebuild, no incremental growth rehashes at all).
//! 4. **Double-buffered exchange** — in batch mode the aggregated
//!    buckets go out through the non-blocking
//!    [`Comm::start_alltoallv`]; batch *B*'s exchange stays in flight
//!    while batch *B+1* is extracted, and is drained just before *B+1*'s
//!    buckets are posted. The virtual engine models this window as
//!    `max(compute, comm)` per batch
//!    ([`CostModel::overlapped_rounds_ns`]).
//!
//! Saturating count merges commute, so the pipelined build is
//! bit-identical to the serial reference for every heuristic
//! combination — enforced by the equivalence proptests.
//!
//! [`Comm::start_alltoallv`]: mpisim::Comm::start_alltoallv
//! [`CostModel::overlapped_rounds_ns`]: mpisim::CostModel::overlapped_rounds_ns
//! [`TileCodec::fused_scan_into`]: dnaseq::TileCodec::fused_scan_into

use crate::counts::{aggregate_occurrences, CountAcc};
use crate::heuristics::HeuristicConfig;
use crate::ooc::OocBuild;
use crate::owner::OwnerMap;
use dnaseq::{FusedScratch, Read, TileCodec};
use mpisim::{Comm, PendingAlltoallv};
use reptile::spectrum::{KmerSpectrum, Normalized, TileSpectrum};
use reptile::ReptileParams;
use specstore::spill::SpillError;
use std::sync::mpsc;
use std::time::Instant;

/// The per-rank spectrum tables after construction.
pub struct RankTables {
    /// Owner map used throughout the run.
    pub owners: OwnerMap,
    /// Owned k-mers with global counts (pruned).
    pub hash_kmers: KmerSpectrum,
    /// Owned tiles with global counts (pruned).
    pub hash_tiles: TileSpectrum,
    /// With `keep_read_tables`: non-owned k-mers from this rank's reads,
    /// with **global** counts (0 = known absent). Counts here are
    /// post-prune global counts, so lookups hit without messaging.
    pub reads_kmers: Option<KmerSpectrum>,
    /// With `keep_read_tables`: non-owned tiles from this rank's reads.
    pub reads_tiles: Option<TileSpectrum>,
    /// With `replicate_kmers`: the full pruned k-mer spectrum.
    pub replicated_kmers: Option<KmerSpectrum>,
    /// With `replicate_tiles`: the full pruned tile spectrum.
    pub replicated_tiles: Option<TileSpectrum>,
    /// With `partial_group > 1`: the merged owned k-mers of this rank's
    /// whole group (the §V partial-replication proposal). Includes this
    /// rank's own entries, so in-group lookups go here first.
    pub group_kmers: Option<KmerSpectrum>,
    /// With `partial_group > 1`: the group's merged owned tiles.
    pub group_tiles: Option<TileSpectrum>,
    /// With `hot_shard_k > 0`: replicas of the *hot* owners' pruned
    /// k-mer spectra (adaptive balancing; exact copies, global counts).
    pub hot_kmers: Option<KmerSpectrum>,
    /// With `hot_shard_k > 0`: replicas of the hot owners' tiles.
    pub hot_tiles: Option<TileSpectrum>,
    /// Which owner ranks are replicated in the hot tables (length `np`;
    /// empty when hot-shard replication is off or found no skew). All
    /// ranks agree on this vector — it routes lookups to the replica.
    pub hot_owners: Vec<bool>,
}

/// Counters from the construction phase (feeds the reports/cost model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// K-mer occurrences extracted from this rank's reads.
    pub kmers_extracted: u64,
    /// Tile occurrences extracted.
    pub tiles_extracted: u64,
    /// Bases scanned.
    pub bases_processed: u64,
    /// Chunk iterations executed (== global max batches).
    pub batches: u64,
    /// High-water mark of distinct non-owned k-mers buffered before an
    /// exchange, sampled inside the extraction loop (per read in the
    /// serial path, per batch aggregate in the pipelined one) — not just
    /// at batch boundaries, so non-batch peaks cannot under-report.
    pub peak_reads_kmers: u64,
    /// High-water mark of distinct non-owned tiles buffered before an
    /// exchange (same sampling as `peak_reads_kmers`).
    pub peak_reads_tiles: u64,
    /// Owned k-mers after pruning.
    pub owned_kmers: u64,
    /// Owned tiles after pruning.
    pub owned_tiles: u64,
    /// Entries retained in the reads tables (keep_read_tables).
    pub reads_table_entries: u64,
    /// Entries replicated locally (allgather modes).
    pub replicated_entries: u64,
    /// Entries held for the rank's group (partial replication), incl.
    /// the rank's own owned entries.
    pub group_entries: u64,
    /// Entries copied into the hot-shard replicas (adaptive balancing;
    /// 0 when `hot_shard_k` is 0 or no owner tripped the skew gate).
    pub hot_entries: u64,
    /// Measured bytes of every spectrum table resident on this rank
    /// after construction (owned + reads + replicated + group), exact
    /// per [`KmerSpectrum::memory_bytes`].
    pub table_bytes: u64,
    /// Nanoseconds spent extracting and locally aggregating (fused scan,
    /// sort + run-length merge, own-bucket/reads-table merges).
    pub extract_ns: u64,
    /// Nanoseconds blocked on count exchanges (collective wait plus the
    /// owner-side merge of received parts).
    pub exchange_ns: u64,
    /// Nanoseconds during which a count exchange was in flight while
    /// this rank kept computing — the double-buffered overlap window.
    /// Zero in the serial reference path.
    pub overlap_ns: u64,
    /// Distinct `(key, count)` pairs this rank shipped through count
    /// exchanges (post-aggregation volume).
    pub exchange_entries: u64,
    /// Raw k-mer/tile occurrences routed off-rank — what the exchange
    /// volume would have been without pre-aggregation (or the serial
    /// reads-table dedup). `exchange_entries / exchange_occurrences` is
    /// the pre-aggregation compression ratio.
    pub exchange_occurrences: u64,
    /// Bytes shipped through count exchanges (wire-tuple sizes).
    pub exchange_bytes: u64,
    /// Sorted spill runs this rank wrote (0 unless a memory budget is
    /// set and the accumulators tripped it).
    pub spill_runs: u64,
    /// Bytes of spill run files written (headers + bodies).
    pub spill_bytes: u64,
    /// Nanoseconds spent in the final table materialization — the
    /// k-way run merge (both passes) in a budgeted build, the
    /// finalize/prune/merge-sorted block otherwise charged to
    /// `extract_ns` alone.
    pub merge_ns: u64,
    /// High-water mark of the out-of-core build's accounted bytes
    /// (direct arrays + spill buffers + accumulators + merge scratch +
    /// growing tables). 0 for unbudgeted builds; ≤ the configured
    /// budget otherwise (`ooc_bench` gates this).
    pub ooc_peak_bytes: u64,
}

/// Build the distributed spectra from this rank's reads with the
/// pipelined multi-threaded producer/exchanger (see the module docs).
/// Reads are delivered in chunks of `chunk_size` (the config-file chunk
/// size of Step I); `build_threads ≥ 1` extraction workers shard each
/// chunk. Output is bit-identical to [`build_distributed_serial`].
///
/// `reads` are the reads this rank will *extract from* — already
/// load-balanced if that heuristic is on (the shuffle happens upstream,
/// per batch, in the engines).
pub fn build_distributed(
    comm: &Comm,
    reads: &[Read],
    chunk_size: usize,
    params: &ReptileParams,
    heur: &HeuristicConfig,
    build_threads: usize,
) -> (RankTables, BuildStats) {
    build_distributed_spillable(comm, reads, chunk_size, params, heur, build_threads, None)
        .expect("unbudgeted build cannot spill")
}

/// [`build_distributed`] with an optional out-of-core spill state: when
/// `ooc` is `Some`, the count accumulators are drained to sorted run
/// files whenever they trip the memory budget and the final tables are
/// materialized by a k-way run merge instead of an in-memory
/// finalize — bit-identical output, bounded peak memory (see
/// [`crate::ooc`]). With `ooc == None` this *is* the in-memory build
/// and can never return `Err`.
pub(crate) fn build_distributed_spillable(
    comm: &Comm,
    reads: &[Read],
    chunk_size: usize,
    params: &ReptileParams,
    heur: &HeuristicConfig,
    build_threads: usize,
    mut ooc: Option<&mut OocBuild>,
) -> Result<(RankTables, BuildStats), SpillError> {
    params.assert_valid();
    heur.validate().expect("invalid heuristic combination");
    assert!(chunk_size > 0);
    assert!(build_threads > 0, "build_threads must be at least 1");
    let np = comm.size();
    let me = comm.rank();
    let owners = OwnerMap::new(np, params);
    let kcodec = params.kmer_codec();
    let tcodec = params.tile_codec();

    // The persistent worker pool lives for the whole build: one scope,
    // `build_threads − 1` workers spawned once and fed read ranges over
    // channels batch after batch (the main thread is the remaining
    // worker), instead of a spawn/join per batch.
    std::thread::scope(|scope| {
        let (res_tx, res_rx) = mpsc::channel::<WorkerOut>();
        let mut job_txs: Vec<mpsc::Sender<Job<'_>>> = Vec::new();
        for _ in 1..build_threads {
            let (tx, rx) = mpsc::channel::<Job<'_>>();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                let mut scratch = FusedScratch::default();
                while let Ok(Job { reads, mut out }) = rx.recv() {
                    extract_worker(reads, &owners, &tcodec, &mut out, &mut scratch);
                    if res_tx.send(out).is_err() {
                        break;
                    }
                }
            });
            job_txs.push(tx);
        }
        let mut pool =
            ExtractPool { job_txs, res_rx, free: Vec::new(), scratch: FusedScratch::default() };
        let kbits = 2 * kcodec.k() as u32;
        let tbits = 2 * tcodec.len() as u32;

        // Running global tallies as width-adaptive count accumulators
        // (module docs step 3): raw own occurrences and exchanged runs
        // accumulate without a per-key hash probe; the flat tables are
        // materialized once, after the loop, from the finalized runs.
        let mut acc_kmers: CountAcc<u64> = CountAcc::new(kbits);
        let mut acc_tiles: CountAcc<u128> = CountAcc::new(tbits);
        let mut acc_reads_kmers: CountAcc<u64> = CountAcc::new(kbits);
        let mut acc_reads_tiles: CountAcc<u128> = CountAcc::new(tbits);
        let mut stats = BuildStats::default();

        // Every rank must join the same number of collective rounds
        // (§III-B).
        let my_batches = reads.len().div_ceil(chunk_size).max(1) as u64;
        let max_batches =
            if heur.batch_reads { comm.allreduce_max_u64(my_batches) } else { my_batches };
        stats.batches = max_batches;

        let mut pending: Option<PendingExchange<'_>> = None;
        for batch in 0..max_batches {
            let lo = (batch as usize * chunk_size).min(reads.len());
            let hi = ((batch as usize + 1) * chunk_size).min(reads.len());

            let t_extract = Instant::now();
            let raw = pool.extract(&reads[lo..hi], &owners, &tcodec, me, &mut stats);
            // The own buckets never cross the wire: tally their raw
            // occurrences straight into the accumulators (this is the
            // pipeline's compute side, like the extraction itself).
            // Budgeted builds absorb in bounded sub-chunks with a spill
            // check after each — without direct arrays every own key
            // lands in the raw buffers, so a whole batch of unchecked
            // pushes can blow past the trigger (same discipline as
            // drain_exchange).
            for w in &raw {
                match ooc.as_deref_mut() {
                    Some(o) => {
                        for sub in w.kmers[me].chunks(crate::ooc::ABSORB_CHUNK_ENTRIES) {
                            acc_kmers.push_keys(sub);
                            o.maybe_spill(&mut acc_kmers, &mut acc_tiles);
                        }
                        for sub in w.tiles[me].chunks(crate::ooc::ABSORB_CHUNK_ENTRIES) {
                            acc_tiles.push_keys(sub);
                            o.maybe_spill(&mut acc_kmers, &mut acc_tiles);
                        }
                    }
                    None => {
                        acc_kmers.push_keys(&w.kmers[me]);
                        acc_tiles.push_keys(&w.tiles[me]);
                    }
                }
            }

            if heur.batch_reads {
                // Pre-aggregate this batch's non-owned buckets for the
                // wire (each distinct key ships once, module docs
                // step 2).
                let agg = aggregate_nonown(&raw, me, kbits, tbits);
                pool.recycle(raw);
                stats.extract_ns += elapsed_ns(t_extract);
                let nonown_kmers: u64 = agg.kmers.iter().map(|b| b.len() as u64).sum();
                let nonown_tiles: u64 = agg.tiles.iter().map(|b| b.len() as u64).sum();
                stats.peak_reads_kmers = stats.peak_reads_kmers.max(nonown_kmers);
                stats.peak_reads_tiles = stats.peak_reads_tiles.max(nonown_tiles);
                // Drain batch B-1's exchange only now, after batch B's
                // extraction ran under it — the double buffering.
                if let Some(p) = pending.take() {
                    drain_exchange(
                        p,
                        &owners,
                        me,
                        &mut acc_kmers,
                        &mut acc_tiles,
                        &mut stats,
                        ooc.as_deref_mut(),
                    );
                }
                pending = Some(start_exchange(comm, agg, &mut stats));
            } else {
                // Non-batch mode: tally the raw non-owned occurrences in
                // the reads accumulators (they also feed
                // keep_read_tables) and exchange once after the last
                // chunk.
                for w in &raw {
                    for (d, bucket) in w.kmers.iter().enumerate() {
                        if d != me {
                            acc_reads_kmers.push_keys(bucket);
                        }
                    }
                    for (d, bucket) in w.tiles.iter().enumerate() {
                        if d != me {
                            acc_reads_tiles.push_keys(bucket);
                        }
                    }
                }
                pool.recycle(raw);
                stats.extract_ns += elapsed_ns(t_extract);
            }
            // Budgeted builds re-check at the batch boundary too (the
            // exchange drain already checks per absorbed sub-chunk;
            // spill failures are deferred either way — the loop's
            // collective schedule must stay uniform across ranks).
            if let Some(o) = ooc.as_deref_mut() {
                o.maybe_spill(&mut acc_kmers, &mut acc_tiles);
            }
        }
        if let Some(p) = pending.take() {
            drain_exchange(
                p,
                &owners,
                me,
                &mut acc_kmers,
                &mut acc_tiles,
                &mut stats,
                ooc.as_deref_mut(),
            );
        }

        // Finalize the reads tallies (non-batch mode only — batch mode
        // never feeds them). The serial reads tables only ever grow
        // between exchanges, so their true high-water mark *is* the
        // final distinct count — assigning the peak here samples exactly
        // what the serial path's per-read max converged to.
        let (reads_kmer_entries, reads_tile_entries) = if heur.batch_reads {
            (Vec::new(), Vec::new())
        } else {
            let t_fin = Instant::now();
            let rk = acc_reads_kmers.finalize();
            let rt = acc_reads_tiles.finalize();
            stats.extract_ns += elapsed_ns(t_fin);
            stats.peak_reads_kmers = rk.len() as u64;
            stats.peak_reads_tiles = rt.len() as u64;
            (rk, rt)
        };

        // Record the rank's own-reads key sets before the final exchange
        // consumes the runs (needed by keep_read_tables).
        let (kmer_keys, tile_keys) = if heur.keep_read_tables {
            (
                reads_kmer_entries.iter().map(|&(k, _)| k).collect::<Vec<u64>>(),
                reads_tile_entries.iter().map(|&(t, _)| t).collect::<Vec<u128>>(),
            )
        } else {
            (Vec::new(), Vec::new())
        };

        if !heur.batch_reads {
            exchange_counts_overlapped(
                comm,
                &owners,
                reads_kmer_entries,
                reads_tile_entries,
                &mut acc_kmers,
                &mut acc_tiles,
                &mut stats,
            );
        }

        // Step III's threshold prune runs on the *entry runs*, before
        // any table exists: a sweep over the finalized vector keeps the
        // same survivor set the serial path's build-then-prune keeps,
        // and the flat tables are then materialized once, survivors
        // only, with an exact reserve and one monotone bulk load — no
        // full-size table, no prune rebuild, no incremental growth
        // rehash. `capacity_for(survivors)` is the same either way, so
        // the final geometry (and `memory_bytes`) matches the serial
        // path exactly.
        let t_build = Instant::now();
        let (hash_kmers, hash_tiles) = match ooc {
            Some(o) => {
                // Budgeted materialization: spill the tails, k-way-merge
                // the runs straight into the tables (crate::ooc docs).
                // Resolve outcomes collectively before touching another
                // collective — a rank whose spill plane failed (deferred
                // batch-loop IO error or a corrupt run at merge time)
                // must abort *with* its peers, not deadlock them in
                // `derive_heuristic_tables` (same discipline as the
                // snapshot layer's gather_failures).
                let local = o.finish_spectra(&mut acc_kmers, &mut acc_tiles, params, &mut stats);
                let failed: u64 = comm
                    .allgatherv(vec![local.is_err() as u64])
                    .iter()
                    .map(|flags| flags.first().copied().unwrap_or(0))
                    .sum();
                match local {
                    Err(e) => return Err(e),
                    Ok(_) if failed > 0 => {
                        return Err(SpillError::PeerFailure { failed_ranks: failed })
                    }
                    Ok(spectra) => spectra,
                }
            }
            None => {
                let mut kmer_entries = acc_kmers.finalize();
                kmer_entries.retain(|&(_, c)| c >= params.kmer_threshold);
                let mut tile_entries = acc_tiles.finalize();
                tile_entries.retain(|&(_, c)| c >= params.tile_threshold);
                let mut hash_kmers = KmerSpectrum::new(kcodec, params.canonical);
                hash_kmers.reserve(kmer_entries.len());
                hash_kmers.merge_sorted(&kmer_entries);
                drop(kmer_entries);
                let mut hash_tiles = TileSpectrum::new(tcodec, params.canonical);
                hash_tiles.reserve(tile_entries.len());
                hash_tiles.merge_sorted(&tile_entries);
                drop(tile_entries);
                (hash_kmers, hash_tiles)
            }
        };
        stats.extract_ns += elapsed_ns(t_build);

        // Already pruned above — go straight to the heuristic tables.
        Ok(derive_heuristic_tables(
            comm, owners, params, heur, hash_kmers, hash_tiles, kmer_keys, tile_keys, stats,
        ))
        // The pool's job senders drop here, ending every worker's recv
        // loop before the scope joins them.
    })
}

/// The serial reference build: one thread, one hash insert per
/// occurrence, blocking exchanges. Kept verbatim as the semantic
/// baseline the pipelined [`build_distributed`] is proptested against
/// (and as the faithful model of the original Reptile program).
pub fn build_distributed_serial(
    comm: &Comm,
    reads: &[Read],
    chunk_size: usize,
    params: &ReptileParams,
    heur: &HeuristicConfig,
) -> (RankTables, BuildStats) {
    params.assert_valid();
    heur.validate().expect("invalid heuristic combination");
    assert!(chunk_size > 0);
    let np = comm.size();
    let owners = OwnerMap::new(np, params);
    let kcodec = params.kmer_codec();
    let tcodec = params.tile_codec();

    let mut hash_kmers = KmerSpectrum::new(kcodec, params.canonical);
    let mut hash_tiles = TileSpectrum::new(tcodec, params.canonical);
    let mut reads_kmers = KmerSpectrum::new(kcodec, params.canonical);
    let mut reads_tiles = TileSpectrum::new(tcodec, params.canonical);
    let mut stats = BuildStats::default();

    // Every rank must join the same number of collective rounds (§III-B).
    let my_batches = reads.len().div_ceil(chunk_size).max(1) as u64;
    let max_batches =
        if heur.batch_reads { comm.allreduce_max_u64(my_batches) } else { my_batches };
    stats.batches = max_batches;

    let me = comm.rank();
    for batch in 0..max_batches {
        let lo = (batch as usize * chunk_size).min(reads.len());
        let hi = ((batch as usize + 1) * chunk_size).min(reads.len());
        let t_extract = Instant::now();
        for read in &reads[lo..hi] {
            stats.bases_processed += read.len() as u64;
            for (_, code) in kcodec.kmers_of(&read.seq) {
                stats.kmers_extracted += 1;
                let key = owners.kmer_key(code);
                if owners.kmer_owner_at(key) == me {
                    hash_kmers.add_count(key, 1);
                } else {
                    stats.exchange_occurrences += 1;
                    reads_kmers.add_count(key, 1);
                }
            }
            for (_, code) in tcodec.tiles_of(&read.seq) {
                stats.tiles_extracted += 1;
                let key = owners.tile_key(code);
                if owners.tile_owner_at(key) == me {
                    hash_tiles.add_count(key, 1);
                } else {
                    stats.exchange_occurrences += 1;
                    reads_tiles.add_count(key, 1);
                }
            }
            // True high-water sampling: inside the loop, per read.
            stats.peak_reads_kmers = stats.peak_reads_kmers.max(reads_kmers.len() as u64);
            stats.peak_reads_tiles = stats.peak_reads_tiles.max(reads_tiles.len() as u64);
        }
        stats.extract_ns += elapsed_ns(t_extract);
        if heur.batch_reads {
            let t_ex = Instant::now();
            exchange_counts(
                comm,
                &owners,
                std::mem::replace(&mut reads_kmers, KmerSpectrum::new(kcodec, params.canonical)),
                std::mem::replace(&mut reads_tiles, TileSpectrum::new(tcodec, params.canonical)),
                &mut hash_kmers,
                &mut hash_tiles,
                &mut stats,
            );
            stats.exchange_ns += elapsed_ns(t_ex);
        }
    }

    // Record the rank's own-reads key sets before the final exchange
    // consumes the tables (needed by keep_read_tables).
    let (kmer_keys, tile_keys) = if heur.keep_read_tables {
        (
            reads_kmers.iter().map(|(k, _)| k).collect::<Vec<u64>>(),
            reads_tiles.iter().map(|(t, _)| t).collect::<Vec<u128>>(),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    if !heur.batch_reads {
        let t_ex = Instant::now();
        exchange_counts(
            comm,
            &owners,
            reads_kmers,
            reads_tiles,
            &mut hash_kmers,
            &mut hash_tiles,
            &mut stats,
        );
        stats.exchange_ns += elapsed_ns(t_ex);
    }

    finish_build(comm, owners, params, heur, hash_kmers, hash_tiles, kmer_keys, tile_keys, stats)
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Wire-tuple bytes of a count-exchange payload (what the collective
/// layer charges: `len × size_of::<T>()`).
fn exchange_payload_bytes(kmer_pairs: usize, tile_pairs: usize) -> u64 {
    (kmer_pairs * std::mem::size_of::<(u64, u32)>()
        + tile_pairs * std::mem::size_of::<(u128, u32)>()) as u64
}

/// One batch's extraction output: per-owner, locally pre-aggregated
/// (sorted, distinct) key/count runs.
struct BatchAggregate {
    kmers: Vec<Vec<(u64, u32)>>,
    tiles: Vec<Vec<(u128, u32)>>,
}

/// Per-worker raw output: per-owner occurrence buckets plus counters.
/// Recycled through the pool's free list, so bucket capacity is paid
/// once and reused batch after batch.
struct WorkerOut {
    kmers: Vec<Vec<u64>>,
    tiles: Vec<Vec<u128>>,
    bases: u64,
    kmers_extracted: u64,
    tiles_extracted: u64,
}

impl WorkerOut {
    fn new(np: usize) -> WorkerOut {
        WorkerOut {
            kmers: vec![Vec::new(); np],
            tiles: vec![Vec::new(); np],
            bases: 0,
            kmers_extracted: 0,
            tiles_extracted: 0,
        }
    }

    /// Reset for reuse, keeping every bucket's allocation.
    fn clear(&mut self) {
        for b in &mut self.kmers {
            b.clear();
        }
        for b in &mut self.tiles {
            b.clear();
        }
        self.bases = 0;
        self.kmers_extracted = 0;
        self.tiles_extracted = 0;
    }
}

/// One unit of pool work: a read range to extract into a recycled
/// output buffer.
struct Job<'r> {
    reads: &'r [Read],
    out: WorkerOut,
}

/// One extraction worker: a single batched fused scan per read
/// ([`TileCodec::fused_scan_into`] — SWAR/SIMD classification plus an
/// incrementally rolled k-mer/tile code), raw keys pushed into per-owner
/// buckets. With a single rank the owner hash is skipped entirely:
/// rank 0 owns every key.
fn extract_worker(
    reads: &[Read],
    owners: &OwnerMap,
    tcodec: &TileCodec,
    out: &mut WorkerOut,
    scratch: &mut FusedScratch,
) {
    let mut bases = 0u64;
    let mut kmers_extracted = 0u64;
    let mut tiles_extracted = 0u64;
    if owners.np() == 1 {
        let kb = &mut out.kmers[0];
        let tb = &mut out.tiles[0];
        for read in reads {
            bases += read.len() as u64;
            tcodec.fused_scan_into(&read.seq, scratch, |item| {
                kmers_extracted += 1;
                kb.push(owners.kmer_key(item.kmer).key());
                if let Some((_, tile)) = item.tile {
                    tiles_extracted += 1;
                    tb.push(owners.tile_key(tile).key());
                }
            });
        }
    } else {
        for read in reads {
            bases += read.len() as u64;
            tcodec.fused_scan_into(&read.seq, scratch, |item| {
                kmers_extracted += 1;
                let key = owners.kmer_key(item.kmer);
                out.kmers[owners.kmer_owner_at(key)].push(key.key());
                if let Some((_, tile)) = item.tile {
                    tiles_extracted += 1;
                    let tkey = owners.tile_key(tile);
                    out.tiles[owners.tile_owner_at(tkey)].push(tkey.key());
                }
            });
        }
    }
    out.bases += bases;
    out.kmers_extracted += kmers_extracted;
    out.tiles_extracted += tiles_extracted;
}

/// Pre-aggregate one batch's non-owned occurrence buckets into sorted
/// distinct per-owner runs for the wire (`me`'s bucket stays empty —
/// own occurrences were tallied straight into the accumulators).
fn aggregate_nonown(raw: &[WorkerOut], me: usize, kbits: u32, tbits: u32) -> BatchAggregate {
    let np = raw.first().map_or(1, |w| w.kmers.len());
    let mut kmers = Vec::with_capacity(np);
    let mut tiles = Vec::with_capacity(np);
    for d in 0..np {
        if d == me {
            kmers.push(Vec::new());
            tiles.push(Vec::new());
            continue;
        }
        kmers.push(aggregate_occurrences(raw.iter().map(|w| &w.kmers[d]), kbits));
        tiles.push(aggregate_occurrences(raw.iter().map(|w| &w.tiles[d]), tbits));
    }
    BatchAggregate { kmers, tiles }
}

/// The persistent extraction pool: job/result channels to the workers
/// spawned once by [`build_distributed`], plus recycled output buffers.
struct ExtractPool<'r> {
    job_txs: Vec<mpsc::Sender<Job<'r>>>,
    res_rx: mpsc::Receiver<WorkerOut>,
    free: Vec<WorkerOut>,
    /// The main thread's own fused-scan scratch (it always takes the
    /// first share of each batch).
    scratch: FusedScratch,
}

impl<'r> ExtractPool<'r> {
    fn take_buffer(&mut self, np: usize) -> WorkerOut {
        self.free.pop().unwrap_or_else(|| WorkerOut::new(np))
    }

    /// Extract one batch across the pool, returning the raw per-worker,
    /// per-owner occurrence buckets (recycle them with
    /// [`ExtractPool::recycle`] once tallied).
    fn extract(
        &mut self,
        reads: &'r [Read],
        owners: &OwnerMap,
        tcodec: &TileCodec,
        me: usize,
        stats: &mut BuildStats,
    ) -> Vec<WorkerOut> {
        let np = owners.np();
        let workers = (self.job_txs.len() + 1).min(reads.len()).max(1);
        let per = reads.len().div_ceil(workers).max(1);
        // Shares after the first go to the pool; the main thread (always
        // a worker itself) takes the first inline.
        let mut outstanding = 0usize;
        for (w, chunk) in reads.chunks(per).enumerate().skip(1) {
            let out = self.take_buffer(np);
            self.job_txs[w - 1].send(Job { reads: chunk, out }).expect("pool worker alive");
            outstanding += 1;
        }
        let mut main_out = self.take_buffer(np);
        extract_worker(
            reads.chunks(per).next().unwrap_or(&[]),
            owners,
            tcodec,
            &mut main_out,
            &mut self.scratch,
        );
        let mut raw: Vec<WorkerOut> = Vec::with_capacity(outstanding + 1);
        raw.push(main_out);
        for _ in 0..outstanding {
            raw.push(self.res_rx.recv().expect("pool worker result"));
        }

        for w in &raw {
            stats.bases_processed += w.bases;
            stats.kmers_extracted += w.kmers_extracted;
            stats.tiles_extracted += w.tiles_extracted;
            for (d, bucket) in w.kmers.iter().enumerate() {
                if d != me {
                    stats.exchange_occurrences += bucket.len() as u64;
                }
            }
            for (d, bucket) in w.tiles.iter().enumerate() {
                if d != me {
                    stats.exchange_occurrences += bucket.len() as u64;
                }
            }
        }
        raw
    }

    /// Return a batch's output buffers to the free list (allocations
    /// kept, contents cleared).
    fn recycle(&mut self, raw: Vec<WorkerOut>) {
        for mut w in raw {
            w.clear();
            self.free.push(w);
        }
    }
}

/// An in-flight batch exchange (both spectra) plus its start time, from
/// which the overlap window is measured at drain.
struct PendingExchange<'c> {
    kmers: PendingAlltoallv<'c, (u64, u32)>,
    tiles: PendingAlltoallv<'c, (u128, u32)>,
    started: Instant,
}

/// Post one batch's non-owned buckets through the non-blocking exchange.
fn start_exchange<'c>(
    comm: &'c Comm,
    agg: BatchAggregate,
    stats: &mut BuildStats,
) -> PendingExchange<'c> {
    let kmer_pairs: usize = agg.kmers.iter().map(Vec::len).sum();
    let tile_pairs: usize = agg.tiles.iter().map(Vec::len).sum();
    stats.exchange_entries += (kmer_pairs + tile_pairs) as u64;
    stats.exchange_bytes += exchange_payload_bytes(kmer_pairs, tile_pairs);
    let kmers = comm.start_alltoallv(agg.kmers);
    let tiles = comm.start_alltoallv(agg.tiles);
    PendingExchange { kmers, tiles, started: Instant::now() }
}

/// Wait out an in-flight exchange and merge the received runs into the
/// owner tallies.
fn drain_exchange(
    p: PendingExchange<'_>,
    owners: &OwnerMap,
    me: usize,
    acc_kmers: &mut CountAcc<u64>,
    acc_tiles: &mut CountAcc<u128>,
    stats: &mut BuildStats,
    mut ooc: Option<&mut OocBuild>,
) {
    stats.overlap_ns += elapsed_ns(p.started);
    let t_wait = Instant::now();
    // Budgeted builds absorb in bounded sub-chunks with a spill check
    // after each, so pending bytes never outrun the trigger by more
    // than one chunk — a whole exchange part can be far larger than the
    // budget headroom at the floor (crate::ooc trigger arithmetic).
    for part in p.kmers.wait() {
        debug_assert!(part
            .iter()
            .all(|&(code, _)| owners.kmer_owner_at(Normalized::assume(code)) == me));
        match ooc.as_deref_mut() {
            Some(o) => {
                for sub in part.chunks(crate::ooc::ABSORB_CHUNK_ENTRIES) {
                    acc_kmers.push_run(sub);
                    o.maybe_spill(acc_kmers, acc_tiles);
                }
            }
            None => acc_kmers.push_run(&part),
        }
    }
    for part in p.tiles.wait() {
        debug_assert!(part
            .iter()
            .all(|&(code, _)| owners.tile_owner_at(Normalized::assume(code)) == me));
        match ooc.as_deref_mut() {
            Some(o) => {
                for sub in part.chunks(crate::ooc::ABSORB_CHUNK_ENTRIES) {
                    acc_tiles.push_run(sub);
                    o.maybe_spill(acc_kmers, acc_tiles);
                }
            }
            None => acc_tiles.push_run(&part),
        }
    }
    stats.exchange_ns += elapsed_ns(t_wait);
}

/// The Step III exchange: ship `reads_*` entries to their owners and merge
/// into the owners' hash tables (blocking, serial reference path). Also
/// reused verbatim by the snapshot re-shard load: entries from an
/// old-`np` snapshot are disjoint across shards, so routing them through
/// this exchange re-owns every key with its exact global count.
pub(crate) fn exchange_counts(
    comm: &Comm,
    owners: &OwnerMap,
    reads_kmers: KmerSpectrum,
    reads_tiles: TileSpectrum,
    hash_kmers: &mut KmerSpectrum,
    hash_tiles: &mut TileSpectrum,
    stats: &mut BuildStats,
) {
    let np = comm.size();
    // Counting pass first, so every per-owner bucket is allocated once at
    // its exact final size instead of growing by push-reallocation.
    let mut kmer_sizes = vec![0usize; np];
    for (code, _) in reads_kmers.iter() {
        kmer_sizes[owners.kmer_owner_at(Normalized::assume(code))] += 1;
    }
    let mut kmer_out: Vec<Vec<(u64, u32)>> =
        kmer_sizes.into_iter().map(Vec::with_capacity).collect();
    for (code, count) in reads_kmers.into_entries() {
        kmer_out[owners.kmer_owner_at(Normalized::assume(code))].push((code, count));
    }
    let kmer_pairs: usize = kmer_out.iter().map(Vec::len).sum();
    for part in comm.alltoallv(kmer_out) {
        for (code, count) in part {
            let key = Normalized::assume(code);
            debug_assert_eq!(owners.kmer_owner_at(key), comm.rank());
            hash_kmers.add_count(key, count);
        }
    }
    let mut tile_sizes = vec![0usize; np];
    for (code, _) in reads_tiles.iter() {
        tile_sizes[owners.tile_owner_at(Normalized::assume(code))] += 1;
    }
    let mut tile_out: Vec<Vec<(u128, u32)>> =
        tile_sizes.into_iter().map(Vec::with_capacity).collect();
    for (code, count) in reads_tiles.into_entries() {
        tile_out[owners.tile_owner_at(Normalized::assume(code))].push((code, count));
    }
    let tile_pairs: usize = tile_out.iter().map(Vec::len).sum();
    for part in comm.alltoallv(tile_out) {
        for (code, count) in part {
            let key = Normalized::assume(code);
            debug_assert_eq!(owners.tile_owner_at(key), comm.rank());
            hash_tiles.add_count(key, count);
        }
    }
    stats.exchange_entries += (kmer_pairs + tile_pairs) as u64;
    stats.exchange_bytes += exchange_payload_bytes(kmer_pairs, tile_pairs);
}

/// The pipelined path's final (non-batch) exchange: same volume as
/// [`exchange_counts`], but operating on the finalized reads runs —
/// received parts fold into the owner accumulators instead of
/// hash-probing per key — and the k-mer round goes out non-blocking so
/// the tile bucketing runs under it.
fn exchange_counts_overlapped(
    comm: &Comm,
    owners: &OwnerMap,
    reads_kmers: Vec<(u64, u32)>,
    reads_tiles: Vec<(u128, u32)>,
    acc_kmers: &mut CountAcc<u64>,
    acc_tiles: &mut CountAcc<u128>,
    stats: &mut BuildStats,
) {
    let np = comm.size();
    let mut kmer_sizes = vec![0usize; np];
    for &(code, _) in &reads_kmers {
        kmer_sizes[owners.kmer_owner_at(Normalized::assume(code))] += 1;
    }
    let mut kmer_out: Vec<Vec<(u64, u32)>> =
        kmer_sizes.into_iter().map(Vec::with_capacity).collect();
    for (code, count) in reads_kmers {
        kmer_out[owners.kmer_owner_at(Normalized::assume(code))].push((code, count));
    }
    let kmer_pairs: usize = kmer_out.iter().map(Vec::len).sum();
    let pending_k = comm.start_alltoallv(kmer_out);
    let overlap_start = Instant::now();

    // Tile bucketing overlaps the in-flight k-mer round.
    let mut tile_sizes = vec![0usize; np];
    for &(code, _) in &reads_tiles {
        tile_sizes[owners.tile_owner_at(Normalized::assume(code))] += 1;
    }
    let mut tile_out: Vec<Vec<(u128, u32)>> =
        tile_sizes.into_iter().map(Vec::with_capacity).collect();
    for (code, count) in reads_tiles {
        tile_out[owners.tile_owner_at(Normalized::assume(code))].push((code, count));
    }
    let tile_pairs: usize = tile_out.iter().map(Vec::len).sum();
    let pending_t = comm.start_alltoallv(tile_out);
    stats.overlap_ns += elapsed_ns(overlap_start);

    let t_wait = Instant::now();
    for part in pending_k.wait() {
        debug_assert!(part
            .iter()
            .all(|&(code, _)| owners.kmer_owner_at(Normalized::assume(code)) == comm.rank()));
        acc_kmers.push_run(&part);
    }
    for part in pending_t.wait() {
        debug_assert!(part
            .iter()
            .all(|&(code, _)| owners.tile_owner_at(Normalized::assume(code)) == comm.rank()));
        acc_tiles.push_run(&part);
    }
    stats.exchange_ns += elapsed_ns(t_wait);
    stats.exchange_entries += (kmer_pairs + tile_pairs) as u64;
    stats.exchange_bytes += exchange_payload_bytes(kmer_pairs, tile_pairs);
}

/// Everything after the count exchange on the serial reference path:
/// threshold prune of the full tables, then the heuristic-table
/// derivation. (The pipelined path prunes its entry runs before any
/// table exists and calls [`derive_heuristic_tables`] directly.)
#[allow(clippy::too_many_arguments)]
fn finish_build(
    comm: &Comm,
    owners: OwnerMap,
    params: &ReptileParams,
    heur: &HeuristicConfig,
    mut hash_kmers: KmerSpectrum,
    mut hash_tiles: TileSpectrum,
    kmer_keys: Vec<u64>,
    tile_keys: Vec<u128>,
    stats: BuildStats,
) -> (RankTables, BuildStats) {
    // Threshold prune at the owner (Step III).
    hash_kmers.prune(params.kmer_threshold);
    hash_tiles.prune(params.tile_threshold);
    derive_heuristic_tables(
        comm, owners, params, heur, hash_kmers, hash_tiles, kmer_keys, tile_keys, stats,
    )
}

/// The collective tail of construction: keep_read_tables resolution,
/// replication / partial replication, and the final stats. Split from
/// [`finish_build`] so the snapshot load path — whose owned tables come
/// off disk already pruned — can derive the heuristic tables without
/// repeating Steps II–III. Every rank must call this together: it runs
/// alltoallv/allgatherv rounds for the heuristics that need them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn derive_heuristic_tables(
    comm: &Comm,
    owners: OwnerMap,
    params: &ReptileParams,
    heur: &HeuristicConfig,
    hash_kmers: KmerSpectrum,
    hash_tiles: TileSpectrum,
    kmer_keys: Vec<u64>,
    tile_keys: Vec<u128>,
    mut stats: BuildStats,
) -> (RankTables, BuildStats) {
    stats.owned_kmers = hash_kmers.len() as u64;
    stats.owned_tiles = hash_tiles.len() as u64;

    // --- keep_read_tables: resolve global counts for own-reads keys ---
    let (final_reads_kmers, final_reads_tiles) = if heur.keep_read_tables {
        let (rk, rt) = resolve_read_tables(
            comm,
            &owners,
            params,
            kmer_keys,
            tile_keys,
            &hash_kmers,
            &hash_tiles,
        );
        stats.reads_table_entries = (rk.len() + rt.len()) as u64;
        (Some(rk), Some(rt))
    } else {
        (None, None)
    };

    // --- replication heuristics: allgather the pruned spectra ---
    let replicated_kmers = if heur.replicate_kmers {
        let entries: Vec<(u64, u32)> = hash_kmers.iter().collect();
        let mut full = KmerSpectrum::new(params.kmer_codec(), params.canonical);
        merge_gathered_parts(&mut full, comm.allgatherv(entries), |_| true);
        stats.replicated_entries += full.len() as u64;
        Some(full)
    } else {
        None
    };
    let replicated_tiles = if heur.replicate_tiles {
        let entries: Vec<(u128, u32)> = hash_tiles.iter().collect();
        let mut full = TileSpectrum::new(params.tile_codec(), params.canonical);
        merge_gathered_parts(&mut full, comm.allgatherv(entries), |_| true);
        stats.replicated_entries += full.len() as u64;
        Some(full)
    } else {
        None
    };

    // --- partial replication (§V): gather the group's owned spectra ---
    let (group_kmers, group_tiles) = if heur.partial_group > 1 {
        let g = heur.partial_group;
        let my_group = comm.rank() / g;
        let k_entries: Vec<(u64, u32)> = hash_kmers.iter().collect();
        let mut gk = KmerSpectrum::new(params.kmer_codec(), params.canonical);
        merge_gathered_parts(&mut gk, comm.allgatherv(k_entries), |code| {
            owners.kmer_owner_at(Normalized::assume(code)) / g == my_group
        });
        let t_entries: Vec<(u128, u32)> = hash_tiles.iter().collect();
        let mut gt = TileSpectrum::new(params.tile_codec(), params.canonical);
        merge_gathered_parts(&mut gt, comm.allgatherv(t_entries), |code| {
            owners.tile_owner_at(Normalized::assume(code)) / g == my_group
        });
        stats.group_entries = (gk.len() + gt.len()) as u64;
        (Some(gk), Some(gt))
    } else {
        (None, None)
    };

    let tables = RankTables {
        owners,
        hash_kmers,
        hash_tiles,
        reads_kmers: final_reads_kmers,
        reads_tiles: final_reads_tiles,
        replicated_kmers,
        replicated_tiles,
        group_kmers,
        group_tiles,
        hot_kmers: None,
        hot_tiles: None,
        hot_owners: Vec::new(),
    };
    stats.table_bytes = tables.memory_bytes();
    (tables, stats)
}

/// Adaptive balancing: replicate the **hot** owners' pruned spectra to
/// every rank. `hot` flags the owner ranks to copy (length `np`,
/// identical on every rank — it comes out of the allgathered
/// owner-volume histogram, see `balance::select_hot_owners`). Collective:
/// every rank must call this together; cold owners contribute empty
/// parts so the allgather rounds stay uniform. The replicas are exact
/// copies of the hot owners' post-prune tables, so a replica hit returns
/// byte-for-byte the count a remote request would have.
///
/// Refreshes `stats.table_bytes` (the replicas are resident memory) and
/// records the copied entry count in `stats.hot_entries`.
pub(crate) fn replicate_hot_shards(
    comm: &Comm,
    params: &ReptileParams,
    tables: &mut RankTables,
    hot: &[bool],
    stats: &mut BuildStats,
) {
    let i_am_hot = hot[comm.rank()];
    let k_entries: Vec<(u64, u32)> =
        if i_am_hot { tables.hash_kmers.iter().collect() } else { Vec::new() };
    let mut hk = KmerSpectrum::new(params.kmer_codec(), params.canonical);
    merge_gathered_parts(&mut hk, comm.allgatherv(k_entries), |_| true);
    let t_entries: Vec<(u128, u32)> =
        if i_am_hot { tables.hash_tiles.iter().collect() } else { Vec::new() };
    let mut ht = TileSpectrum::new(params.tile_codec(), params.canonical);
    merge_gathered_parts(&mut ht, comm.allgatherv(t_entries), |_| true);
    stats.hot_entries = (hk.len() + ht.len()) as u64;
    tables.hot_kmers = Some(hk);
    tables.hot_tiles = Some(ht);
    tables.hot_owners = hot.to_vec();
    stats.table_bytes = tables.memory_bytes();
}

/// Key-type-generic view of a spectrum, for [`merge_gathered_parts`] and
/// the lookup router's tiers. Keys are normalized spectrum keys.
pub(crate) trait CountSpectrum<K> {
    fn reserve_entries(&mut self, additional: usize);
    fn add_entry(&mut self, key: K, count: u32);
    /// Stored count of `key`, `None` when absent.
    fn entry(&self, key: K) -> Option<u32>;
}

impl CountSpectrum<u64> for KmerSpectrum {
    fn reserve_entries(&mut self, additional: usize) {
        self.reserve(additional);
    }
    fn add_entry(&mut self, key: u64, count: u32) {
        self.add_count(Normalized::assume(key), count);
    }
    #[inline]
    fn entry(&self, key: u64) -> Option<u32> {
        self.get_at(Normalized::assume(key))
    }
}

impl CountSpectrum<u128> for TileSpectrum {
    fn reserve_entries(&mut self, additional: usize) {
        self.reserve(additional);
    }
    fn add_entry(&mut self, key: u128, count: u32) {
        self.add_count(Normalized::assume(key), count);
    }
    #[inline]
    fn entry(&self, key: u128) -> Option<u32> {
        self.get_at(Normalized::assume(key))
    }
}

/// Merge allgathered per-owner spectrum parts into `spec`, keeping only
/// entries matching `keep`. Owners hold disjoint key sets, so the
/// filtered part lengths sum to the exact final entry count — the table
/// is pre-sized once instead of growing through every `add_count`, and
/// the final geometry still matches `bytes_for_entries`.
fn merge_gathered_parts<K: Copy, S: CountSpectrum<K>>(
    spec: &mut S,
    parts: Vec<Vec<(K, u32)>>,
    keep: impl Fn(K) -> bool,
) {
    let matching = parts.iter().flatten().filter(|&&(key, _)| keep(key)).count();
    spec.reserve_entries(matching);
    for (key, count) in parts.into_iter().flatten() {
        if keep(key) {
            spec.add_entry(key, count);
        }
    }
}

/// The extra alltoallv round of the *read k-mers/tiles* heuristic: ask
/// each owner for the global (post-prune) counts of the keys this rank
/// saw in its own reads, and build local tables from the answers. A count
/// of 0 is stored too — "known absent" avoids a pointless future message.
fn resolve_read_tables(
    comm: &Comm,
    owners: &OwnerMap,
    params: &ReptileParams,
    kmer_keys: Vec<u64>,
    tile_keys: Vec<u128>,
    hash_kmers: &KmerSpectrum,
    hash_tiles: &TileSpectrum,
) -> (KmerSpectrum, TileSpectrum) {
    let np = comm.size();
    // k-mers: request codes, answer (code, count) pairs. The keys came
    // out of the reads tables, so they are normalized by construction —
    // raw owner/count lookups skip re-canonicalizing every one, and a
    // counting pass sizes each per-owner bucket exactly once.
    let mut ask_sizes = vec![0usize; np];
    for &code in &kmer_keys {
        ask_sizes[owners.kmer_owner_at(Normalized::assume(code))] += 1;
    }
    let mut ask: Vec<Vec<u64>> = ask_sizes.into_iter().map(Vec::with_capacity).collect();
    for code in kmer_keys {
        ask[owners.kmer_owner_at(Normalized::assume(code))].push(code);
    }
    let questions = comm.alltoallv(ask);
    let answers: Vec<Vec<(u64, u32)>> = questions
        .into_iter()
        .map(|codes| {
            codes.into_iter().map(|c| (c, hash_kmers.count_at(Normalized::assume(c)))).collect()
        })
        .collect();
    let mut rk = KmerSpectrum::new(params.kmer_codec(), params.canonical);
    // Answer parts are disjoint (each key was asked of exactly one
    // owner), so their lengths sum to the exact final entry count.
    merge_gathered_parts(&mut rk, comm.alltoallv(answers), |_| true);
    // tiles
    let mut ask_sizes_t = vec![0usize; np];
    for &code in &tile_keys {
        ask_sizes_t[owners.tile_owner_at(Normalized::assume(code))] += 1;
    }
    let mut ask_t: Vec<Vec<u128>> = ask_sizes_t.into_iter().map(Vec::with_capacity).collect();
    for code in tile_keys {
        ask_t[owners.tile_owner_at(Normalized::assume(code))].push(code);
    }
    let questions_t = comm.alltoallv(ask_t);
    let answers_t: Vec<Vec<(u128, u32)>> = questions_t
        .into_iter()
        .map(|codes| {
            codes.into_iter().map(|c| (c, hash_tiles.count_at(Normalized::assume(c)))).collect()
        })
        .collect();
    let mut rt = TileSpectrum::new(params.tile_codec(), params.canonical);
    merge_gathered_parts(&mut rt, comm.alltoallv(answers_t), |_| true);
    (rk, rt)
}

/// One local pass over `reads` collecting the distinct non-owned
/// normalized keys — what the build path's reads tables would have held.
/// The snapshot load path needs these for `keep_read_tables` (the build
/// that would have recorded them was skipped), and a plain scan is far
/// cheaper than replaying the count exchange: counts are already global
/// in the loaded tables, only the key *sets* are missing.
pub(crate) fn scan_nonowned_keys(
    reads: &[Read],
    params: &ReptileParams,
    owners: &OwnerMap,
    me: usize,
) -> (Vec<u64>, Vec<u128>) {
    let kcodec = params.kmer_codec();
    let tcodec = params.tile_codec();
    let mut kmers: dnaseq::FxHashSet<u64> = dnaseq::FxHashSet::default();
    let mut tiles: dnaseq::FxHashSet<u128> = dnaseq::FxHashSet::default();
    for read in reads {
        for (_, code) in kcodec.kmers_of(&read.seq) {
            let key = owners.kmer_key(code);
            if owners.kmer_owner_at(key) != me {
                kmers.insert(key.key());
            }
        }
        for (_, code) in tcodec.tiles_of(&read.seq) {
            let key = owners.tile_key(code);
            if owners.tile_owner_at(key) != me {
                tiles.insert(key.key());
            }
        }
    }
    (kmers.into_iter().collect(), tiles.into_iter().collect())
}

impl RankTables {
    /// Total spectrum entries resident on this rank (memory model input).
    /// Group tables subsume the rank's own entries, so when present they
    /// replace `hash_kmers` in the tally rather than double-counting.
    pub fn resident_kmer_entries(&self) -> u64 {
        let own = match &self.group_kmers {
            Some(g) => g.len() as u64,
            None => self.hash_kmers.len() as u64,
        };
        own + self.reads_kmers.as_ref().map_or(0, |s| s.len() as u64)
            + self.replicated_kmers.as_ref().map_or(0, |s| s.len() as u64)
            + self.hot_kmers.as_ref().map_or(0, |s| s.len() as u64)
    }

    /// Total tile entries resident on this rank.
    pub fn resident_tile_entries(&self) -> u64 {
        let own = match &self.group_tiles {
            Some(g) => g.len() as u64,
            None => self.hash_tiles.len() as u64,
        };
        own + self.reads_tiles.as_ref().map_or(0, |s| s.len() as u64)
            + self.replicated_tiles.as_ref().map_or(0, |s| s.len() as u64)
            + self.hot_tiles.as_ref().map_or(0, |s| s.len() as u64)
    }

    /// Measured bytes of **every** spectrum table resident on this rank
    /// (owned, reads, replicated, and group — unlike the entry tallies
    /// above, group tables do not replace the owned ones here, because
    /// both really are in memory). Exact: flat-table slot arrays plus
    /// headers.
    pub fn memory_bytes(&self) -> u64 {
        let k = self.hash_kmers.memory_bytes()
            + self.reads_kmers.as_ref().map_or(0, |s| s.memory_bytes())
            + self.replicated_kmers.as_ref().map_or(0, |s| s.memory_bytes())
            + self.group_kmers.as_ref().map_or(0, |s| s.memory_bytes())
            + self.hot_kmers.as_ref().map_or(0, |s| s.memory_bytes());
        let t = self.hash_tiles.memory_bytes()
            + self.reads_tiles.as_ref().map_or(0, |s| s.memory_bytes())
            + self.replicated_tiles.as_ref().map_or(0, |s| s.memory_bytes())
            + self.group_tiles.as_ref().map_or(0, |s| s.memory_bytes())
            + self.hot_tiles.as_ref().map_or(0, |s| s.memory_bytes());
        (k + t) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Universe;
    use reptile::spectrum::LocalSpectra;

    fn params() -> ReptileParams {
        ReptileParams { k: 5, tile_overlap: 2, ..ReptileParams::for_tests() }
    }

    fn make_reads(n: usize, len: usize) -> Vec<Read> {
        // deterministic reads: groups of 3 copies of a distinct template,
        // so counts pass the threshold (2) while different chunks still
        // contribute different k-mers
        let mut reads = Vec::new();
        for i in 0..n {
            let template = i / 3;
            let seed = dnaseq::mix64(template as u64 + 1);
            let seq: Vec<u8> = (0..len)
                .map(|j| [b'A', b'C', b'G', b'T'][(dnaseq::mix64(seed ^ (j as u64)) % 4) as usize])
                .collect();
            reads.push(Read::new(i as u64 + 1, seq, vec![30; len]));
        }
        reads
    }

    fn partition(reads: &[Read], np: usize, rank: usize) -> Vec<Read> {
        reads.iter().enumerate().filter(|(i, _)| i % np == rank).map(|(_, r)| r.clone()).collect()
    }

    /// Distributed tables must equal the sequential spectra: every code at
    /// exactly its owner, global counts, same pruning.
    fn check_equivalence(np: usize, heur: HeuristicConfig, chunk: usize, threads: usize) {
        let p = params();
        let reads = make_reads(40, 18);
        let seq = LocalSpectra::build(&reads, &p);
        let reads_ref = &reads;
        let results = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            build_distributed(comm, &mine, chunk, &params(), &heur, threads)
        });
        // union of owned tables == sequential spectrum
        let mut union_k = dnaseq::FxHashMap::default();
        let mut union_t = dnaseq::FxHashMap::default();
        for (tables, _) in &results {
            for (code, count) in tables.hash_kmers.iter() {
                assert_eq!(tables.owners.kmer_owner(code), tables_rank(&results, tables));
                assert!(union_k.insert(code, count).is_none(), "kmer at two owners");
            }
            for (code, count) in tables.hash_tiles.iter() {
                assert!(union_t.insert(code, count).is_none(), "tile at two owners");
            }
        }
        let seq_k: dnaseq::FxHashMap<_, _> = seq.kmers.iter().collect();
        let seq_t: dnaseq::FxHashMap<_, _> = seq.tiles.iter().collect();
        assert_eq!(union_k, seq_k, "np={np} heur={}", heur.label());
        assert_eq!(union_t, seq_t, "np={np} heur={}", heur.label());
    }

    fn tables_rank(results: &[(RankTables, BuildStats)], needle: &RankTables) -> usize {
        results.iter().position(|(t, _)| std::ptr::eq(t, needle)).expect("tables belong to results")
    }

    /// `BuildStats` minus its wall-clock fields — the deterministic
    /// counters the serial and pipelined paths must agree on exactly.
    pub(crate) fn deterministic_counters(stats: &BuildStats) -> BuildStats {
        BuildStats { extract_ns: 0, exchange_ns: 0, overlap_ns: 0, ..*stats }
    }

    #[test]
    fn nonown_aggregation_skips_own_bucket() {
        // aggregate_nonown must leave `me`'s bucket empty (own
        // occurrences are tallied directly, never shipped) while every
        // other owner's bucket arrives sorted and distinct.
        let np = 3;
        let mut a = WorkerOut::new(np);
        let mut b = WorkerOut::new(np);
        for i in 0..500u64 {
            a.kmers[(i % 3) as usize].push(dnaseq::mix64(i % 91) & 0xF_FFFF);
            b.kmers[(i % 3) as usize].push(dnaseq::mix64(i % 77) & 0xF_FFFF);
            a.tiles[((i + 1) % 3) as usize].push((dnaseq::mix64(i % 53) & 0x3FFF_FFFF) as u128);
        }
        let raw = [a, b];
        let raw_nonown: u64 = raw
            .iter()
            .flat_map(|w| w.kmers.iter().enumerate())
            .filter(|&(d, _)| d != 1)
            .map(|(_, bk)| bk.len() as u64)
            .sum();
        let agg = aggregate_nonown(&raw, 1, 20, 30);
        assert!(agg.kmers[1].is_empty() && agg.tiles[1].is_empty());
        for d in [0usize, 2] {
            assert!(!agg.kmers[d].is_empty());
            assert!(agg.kmers[d].windows(2).all(|w| w[0].0 < w[1].0), "owner {d} not sorted");
        }
        let shipped: u64 = agg.kmers.iter().flatten().map(|&(_, c)| c as u64).sum();
        assert_eq!(shipped, raw_nonown, "aggregation must preserve total occurrence counts");
    }

    #[test]
    #[ignore = "manual profiling probe"]
    fn profile_hot_path_breakdown() {
        let p = ReptileParams {
            k: 10,
            tile_overlap: 5,
            kmer_threshold: 4,
            tile_threshold: 3,
            canonical: false,
            ..ReptileParams::for_tests()
        };
        let tcodec = p.tile_codec();
        let kcodec = p.kmer_codec();
        let n = 20_000usize;
        let len = 60usize;
        let reads: Vec<Read> = (0..n)
            .map(|i| {
                let template = i / 3;
                let seed = dnaseq::mix64(template as u64 + 1);
                let seq: Vec<u8> = (0..len)
                    .map(|j| {
                        [b'A', b'C', b'G', b'T'][(dnaseq::mix64(seed ^ (j as u64)) % 4) as usize]
                    })
                    .collect();
                Read::new(i as u64 + 1, seq, vec![30; len])
            })
            .collect();
        let owners = OwnerMap::new(1, &p);
        let chunk = 2000;
        let mut scratch = FusedScratch::default();
        for _round in 0..3 {
            let mut t_extract = 0u64;
            let mut t_tally = 0u64;
            let mut keys = 0u64;
            let mut acc_k: CountAcc<u64> = CountAcc::new(2 * kcodec.k() as u32);
            let mut acc_t: CountAcc<u128> = CountAcc::new(2 * tcodec.len() as u32);
            let mut out = WorkerOut::new(1);
            for c in reads.chunks(chunk) {
                let t0 = Instant::now();
                extract_worker(c, &owners, &tcodec, &mut out, &mut scratch);
                t_extract += elapsed_ns(t0);
                keys += out.kmers[0].len() as u64 + out.tiles[0].len() as u64;
                let t1 = Instant::now();
                acc_k.push_keys(&out.kmers[0]);
                acc_t.push_keys(&out.tiles[0]);
                t_tally += elapsed_ns(t1);
                out.clear();
            }
            let t2 = Instant::now();
            let mut ke = acc_k.finalize();
            let mut te = acc_t.finalize();
            let t_finalize = elapsed_ns(t2);
            let t3 = Instant::now();
            ke.retain(|&(_, c)| c >= p.kmer_threshold);
            te.retain(|&(_, c)| c >= p.tile_threshold);
            let t_prune = elapsed_ns(t3);
            let t4 = Instant::now();
            let mut hk = KmerSpectrum::new(kcodec, p.canonical);
            hk.reserve(ke.len());
            hk.merge_sorted(&ke);
            let mut ht = TileSpectrum::new(tcodec, p.canonical);
            ht.reserve(te.len());
            ht.merge_sorted(&te);
            let t_build = elapsed_ns(t4);
            let per = |ns: u64| ns as f64 / keys as f64;
            eprintln!(
            "keys={keys} extract={:.2} tally={:.2} finalize={:.2} prune={:.2} build={:.2} total={:.2} ns/key (hk={} ht={})",
            per(t_extract),
            per(t_tally),
            per(t_finalize),
            per(t_prune),
            per(t_build),
            per(t_extract + t_tally + t_finalize + t_prune + t_build),
            hk.len(),
            ht.len(),
        );
        }
    }

    #[test]
    fn matches_sequential_base_mode() {
        for np in [1, 2, 4, 7] {
            check_equivalence(np, HeuristicConfig::base(), 1000, 2);
        }
    }

    #[test]
    fn matches_sequential_batch_mode() {
        for threads in [1, 3] {
            check_equivalence(
                4,
                HeuristicConfig { batch_reads: true, ..Default::default() },
                3,
                threads,
            );
        }
    }

    #[test]
    fn pipelined_matches_serial_reference_exactly() {
        // Spot check of the proptest invariant: identical tables AND
        // identical deterministic counters (incl. exchange volumes and
        // peaks) between the serial path and the pipelined one.
        let p = params();
        let reads = make_reads(42, 18);
        let reads_ref = &reads;
        let np = 3;
        for heur in [
            HeuristicConfig::base(),
            HeuristicConfig { batch_reads: true, ..Default::default() },
            HeuristicConfig { keep_read_tables: true, ..Default::default() },
        ] {
            let serial = Universe::new(np).run(move |comm| {
                let mine = partition(reads_ref, np, comm.rank());
                build_distributed_serial(comm, &mine, 4, &p, &heur)
            });
            for threads in [1, 4] {
                let piped = Universe::new(np).run(move |comm| {
                    let mine = partition(reads_ref, np, comm.rank());
                    build_distributed(comm, &mine, 4, &p, &heur, threads)
                });
                for ((ts, ss), (tp, sp)) in serial.iter().zip(&piped) {
                    assert_eq!(
                        deterministic_counters(ss),
                        deterministic_counters(sp),
                        "stats diverge: threads={threads} heur={}",
                        heur.label()
                    );
                    let sk: Vec<_> = sorted(ts.hash_kmers.iter());
                    let pk: Vec<_> = sorted(tp.hash_kmers.iter());
                    assert_eq!(sk, pk, "kmer tables diverge");
                    let st: Vec<_> = sorted(ts.hash_tiles.iter());
                    let pt: Vec<_> = sorted(tp.hash_tiles.iter());
                    assert_eq!(st, pt, "tile tables diverge");
                    assert_eq!(ts.memory_bytes(), tp.memory_bytes(), "table geometry diverges");
                }
            }
        }
    }

    fn sorted<K: Ord + Copy, I: Iterator<Item = (K, u32)>>(it: I) -> Vec<(K, u32)> {
        let mut v: Vec<(K, u32)> = it.collect();
        v.sort_unstable_by_key(|e| e.0);
        v
    }

    #[test]
    fn batch_mode_bounds_reads_tables() {
        let p = params();
        let reads = make_reads(60, 18);
        let reads_ref = &reads;
        let np = 4;
        let batched = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            let heur = HeuristicConfig { batch_reads: true, ..Default::default() };
            build_distributed(comm, &mine, 2, &p, &heur, 2).1
        });
        let unbatched = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            build_distributed(comm, &mine, 2, &p, &HeuristicConfig::base(), 2).1
        });
        for (b, u) in batched.iter().zip(&unbatched) {
            assert!(
                b.peak_reads_kmers <= u.peak_reads_kmers,
                "batching must not grow the reads table ({} vs {})",
                b.peak_reads_kmers,
                u.peak_reads_kmers
            );
            assert!(b.batches >= u.batches);
        }
        // and strictly smaller for at least one rank (many batches)
        assert!(
            batched.iter().zip(&unbatched).any(|(b, u)| b.peak_reads_kmers < u.peak_reads_kmers),
            "batch mode should shrink peak reads tables somewhere"
        );
    }

    #[test]
    fn preaggregation_shrinks_exchange_volume() {
        // Repeated templates mean many duplicate occurrences per batch;
        // the shipped entries must be the distinct keys only.
        let p = params();
        let reads = make_reads(60, 18);
        let reads_ref = &reads;
        let np = 4;
        let stats = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            let heur = HeuristicConfig { batch_reads: true, ..Default::default() };
            build_distributed(comm, &mine, 30, &p, &heur, 2).1
        });
        for s in &stats {
            assert!(s.exchange_entries > 0, "multi-rank build must exchange something");
            assert!(
                s.exchange_entries < s.exchange_occurrences,
                "pre-aggregation must dedup ({} entries vs {} occurrences)",
                s.exchange_entries,
                s.exchange_occurrences
            );
            assert!(s.exchange_bytes > 0);
        }
    }

    #[test]
    fn keep_read_tables_resolves_global_counts() {
        let p = params();
        let reads = make_reads(40, 18);
        let seq = LocalSpectra::build(&reads, &p);
        let reads_ref = &reads;
        let np = 4;
        let heur = HeuristicConfig { keep_read_tables: true, ..Default::default() };
        let results = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            build_distributed(comm, &mine, 1000, &p, &heur, 2)
        });
        for (tables, stats) in &results {
            let rk = tables.reads_kmers.as_ref().expect("reads table kept");
            assert!(stats.reads_table_entries > 0 || rk.is_empty());
            for (code, count) in rk.iter() {
                assert_eq!(count, seq.kmers.count(code), "global count mismatch for {code}");
            }
            let rt = tables.reads_tiles.as_ref().expect("tile reads table kept");
            for (code, count) in rt.iter() {
                assert_eq!(count, seq.tiles.count(code));
            }
        }
    }

    #[test]
    fn replication_builds_full_spectra() {
        let p = params();
        let reads = make_reads(40, 18);
        let seq = LocalSpectra::build(&reads, &p);
        let reads_ref = &reads;
        let np = 3;
        let heur = HeuristicConfig::replicate_both();
        let results = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            build_distributed(comm, &mine, 1000, &p, &heur, 2)
        });
        for (tables, _) in &results {
            let rep_k = tables.replicated_kmers.as_ref().unwrap();
            let rep_t = tables.replicated_tiles.as_ref().unwrap();
            assert_eq!(rep_k.len(), seq.kmers.len());
            assert_eq!(rep_t.len(), seq.tiles.len());
            for (code, count) in seq.kmers.iter() {
                assert_eq!(rep_k.count(code), count);
            }
            // satellite check: the pre-sized replicated table keeps the
            // exact bytes_for_entries geometry
            assert_eq!(
                rep_k.memory_bytes(),
                reptile::spectrum::KmerSpectrum::bytes_for_entries(rep_k.len())
            );
        }
    }

    #[test]
    fn owned_counts_roughly_uniform() {
        // The Fig 3 property: per-rank k-mer counts spread within a few
        // percent (here looser: random small dataset).
        let p = params();
        let reads = make_reads(200, 30);
        let reads_ref = &reads;
        let np = 8;
        let results = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            build_distributed(comm, &mine, 1000, &p, &HeuristicConfig::base(), 2).1
        });
        let counts: Vec<u64> = results.iter().map(|s| s.owned_kmers).collect();
        let total: u64 = counts.iter().sum();
        assert!(total > 0);
        // no rank should be empty while others are loaded (hash spread)
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 4 * min.max(1) + 8, "wildly uneven: {counts:?}");
    }
}
