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
//! The two kinds are built the same way ("same for tiles"), so the code
//! is written once: every Steps II–III step below — a worker's
//! per-owner buckets (`KindBatch`), the running tallies with their
//! absorbs, pre-aggregation and exchange post/drain (`KindTally`), the
//! serial tally (`SerialTables`), owner bucketing, the count exchange,
//! the reads-table resolution, the replicate / group / hot gathers — is
//! generic over the key kind (`owner::Key`) and called once for k-mers
//! and once for tiles, and a rank ends up with one [`KindTables`] per
//! kind in its [`RankTables`]. Two places still name both kinds, on
//! purpose: the fused extraction scan yields both from one pass over a
//! read (each base is classified and rolled into both codes once), and the
//! out-of-core spill check takes both accumulators, because its memory
//! budget spans both kinds (`crate::ooc`).
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
use crate::owner::{Key, OwnerMap};
use crate::snapshot::agree_on_failure;
use dnaseq::{FusedScratch, Read, TileCodec};
use mpisim::{Comm, PendingAlltoallv};
use reptile::spectrum::{KmerSpectrum, Normalized, Spectrum, TileSpectrum};
use reptile::{ReptileParams, SpectrumKey};
use specstore::SnapshotError;
use std::sync::mpsc;
use std::time::Instant;

/// One key kind's spectrum tables on one rank after construction.
pub struct KindTables<K: SpectrumKey> {
    /// Owned keys with global counts (pruned): `hashKmer` / `hashTile`.
    pub owned: Spectrum<K>,
    /// With `keep_read_tables`: non-owned keys from this rank's reads,
    /// with **global** counts (0 = known absent). Counts here are
    /// post-prune global counts, so lookups hit without messaging.
    pub reads: Option<Spectrum<K>>,
    /// With `replicate_kmers` / `replicate_tiles`: the full pruned
    /// spectrum of the kind.
    pub replicated: Option<Spectrum<K>>,
    /// With `partial_group > 1`: the merged owned tables of this rank's
    /// whole group (the §V partial-replication proposal). Includes this
    /// rank's own entries, so in-group lookups go here first.
    pub group: Option<Spectrum<K>>,
    /// With `hot_shard_k > 0`: replicas of the *hot* owners' pruned
    /// tables (adaptive balancing; exact copies, global counts).
    pub hot: Option<Spectrum<K>>,
}

impl<K: SpectrumKey> KindTables<K> {
    /// The owned table alone, before any heuristic table is derived.
    pub(crate) fn new(owned: Spectrum<K>) -> KindTables<K> {
        KindTables { owned, reads: None, replicated: None, group: None, hot: None }
    }

    /// Measured bytes of **every** table of this kind resident on the
    /// rank. Unlike the entry tally, a group table does not replace the
    /// owned one here, because both really are in memory. Exact:
    /// flat-table slot arrays plus headers.
    pub fn memory_bytes(&self) -> u64 {
        let others = [&self.reads, &self.replicated, &self.group, &self.hot];
        let optional: usize = others.into_iter().flatten().map(Spectrum::memory_bytes).sum();
        (self.owned.memory_bytes() + optional) as u64
    }
}

/// The per-rank spectrum tables after construction.
pub struct RankTables {
    /// Owner map used throughout the run.
    pub owners: OwnerMap,
    /// The k-mer tables.
    pub kmers: KindTables<u64>,
    /// The tile tables.
    pub tiles: KindTables<u128>,
    /// Which owner ranks are replicated in the hot tables (length `np`;
    /// empty when hot-shard replication is off or found no skew). All
    /// ranks agree on this vector — it routes lookups to the replica.
    pub hot_owners: Vec<bool>,
}

impl RankTables {
    /// Measured bytes of every spectrum table resident on this rank,
    /// both kinds ([`KindTables::memory_bytes`]).
    pub fn memory_bytes(&self) -> u64 {
        self.kmers.memory_bytes() + self.tiles.memory_bytes()
    }
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
    /// Count-exchange rounds: the global max batch count under
    /// `batch_reads` (every rank joins every round), else 1.
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
) -> Result<(RankTables, BuildStats), SnapshotError> {
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

        // Running global tallies, one per kind, as width-adaptive count
        // accumulators (module docs step 3): raw own occurrences and
        // exchanged runs accumulate without a per-key hash probe; the
        // flat tables are materialized once, after the loop, from the
        // finalized runs.
        let mut kmers: KindTally<'_, u64> = KindTally::new(2 * kcodec.k() as u32);
        let mut tiles: KindTally<'_, u128> = KindTally::new(2 * tcodec.len() as u32);
        let mut stats = BuildStats::default();

        // Every rank must join the same number of collective rounds
        // (§III-B).
        let my_batches = reads.len().div_ceil(chunk_size).max(1) as u64;
        let max_batches =
            if heur.batch_reads { comm.allreduce_max_u64(my_batches) } else { my_batches };
        stats.batches = if heur.batch_reads { max_batches } else { 1 };

        // When the batch exchange in flight was posted.
        let mut in_flight: Option<Instant> = None;
        for batch in 0..max_batches {
            let lo = (batch as usize * chunk_size).min(reads.len());
            let hi = ((batch as usize + 1) * chunk_size).min(reads.len());

            let t_extract = Instant::now();
            let raw = pool.extract(&reads[lo..hi], &owners, &tcodec, me, &mut stats);
            // The own buckets never cross the wire: tally their raw
            // occurrences straight into the accumulators (this is the
            // pipeline's compute side, like the extraction itself).
            // Without direct arrays every own key lands in the raw
            // buffers, so a budgeted build checks for a spill per
            // sub-chunk here too ([`absorb_chunk`]).
            let chunk = absorb_chunk(&ooc);
            for w in &raw {
                kmers.absorb_own(&w.kmers, me, chunk, |k| {
                    spill_check(&mut ooc, k, &mut tiles.owned)
                });
                tiles.absorb_own(&w.tiles, me, chunk, |t| {
                    spill_check(&mut ooc, &mut kmers.owned, t)
                });
            }

            if heur.batch_reads {
                // Pre-aggregate this batch's non-owned buckets for the
                // wire (each distinct key ships once, module docs
                // step 2).
                let kmer_parts = kmers.aggregate_nonown(raw.iter().map(|w| &w.kmers), me);
                let tile_parts = tiles.aggregate_nonown(raw.iter().map(|w| &w.tiles), me);
                pool.recycle(raw);
                stats.extract_ns += elapsed_ns(t_extract);
                stats.peak_reads_kmers = stats.peak_reads_kmers.max(entries(&kmer_parts));
                stats.peak_reads_tiles = stats.peak_reads_tiles.max(entries(&tile_parts));
                // Drain batch B-1's exchange only now, after batch B's
                // extraction ran under it — the double buffering.
                if let Some(started) = in_flight.take() {
                    drain_exchange(started, &mut kmers, &mut tiles, &mut stats, ooc.as_deref_mut());
                }
                kmers.post(comm, &owners, kmer_parts, &mut stats);
                tiles.post(comm, &owners, tile_parts, &mut stats);
                in_flight = Some(Instant::now());
            } else {
                // Non-batch mode: tally the raw non-owned occurrences in
                // the reads accumulators (they also feed
                // keep_read_tables) and exchange once after the last
                // chunk.
                for w in &raw {
                    kmers.absorb_reads(&w.kmers, me);
                    tiles.absorb_reads(&w.tiles, me);
                }
                pool.recycle(raw);
                stats.extract_ns += elapsed_ns(t_extract);
            }
            // Budgeted builds re-check at the batch boundary too (the
            // exchange drain already checks per absorbed sub-chunk;
            // spill failures are deferred either way — the loop's
            // collective schedule must stay uniform across ranks).
            spill_check(&mut ooc, &mut kmers.owned, &mut tiles.owned);
        }
        if let Some(started) = in_flight.take() {
            drain_exchange(started, &mut kmers, &mut tiles, &mut stats, ooc.as_deref_mut());
        }

        // Non-batch mode: finalize the reads tallies (batch mode never
        // feeds them), record the rank's own-reads key sets before the
        // exchange consumes the runs (needed by keep_read_tables), and
        // ship the runs to their owners. The serial reads tables only
        // ever grow between exchanges, so their true high-water mark
        // *is* the final distinct count — assigning the peak here
        // samples exactly what the serial path's per-read max converged
        // to.
        let (kmer_keys, tile_keys) = if heur.batch_reads {
            (Vec::new(), Vec::new())
        } else {
            let t_fin = Instant::now();
            let (kmer_runs, kmer_keys) = kmers.finalize_reads(heur.keep_read_tables);
            let (tile_runs, tile_keys) = tiles.finalize_reads(heur.keep_read_tables);
            stats.extract_ns += elapsed_ns(t_fin);
            stats.peak_reads_kmers = kmer_runs.len() as u64;
            stats.peak_reads_tiles = tile_runs.len() as u64;

            // The final exchange: same volume as [`exchange_counts`],
            // but received parts fold into the owner accumulators
            // instead of hash-probing per key, and the k-mer round goes
            // out non-blocking so the tile bucketing runs under it.
            kmers.post(comm, &owners, bucket_runs(&owners, kmer_runs), &mut stats);
            let overlap_start = Instant::now();
            tiles.post(comm, &owners, bucket_runs(&owners, tile_runs), &mut stats);
            stats.overlap_ns += elapsed_ns(overlap_start);
            let t_wait = Instant::now();
            kmers.absorb_exchange(usize::MAX, |_| {});
            tiles.absorb_exchange(usize::MAX, |_| {});
            stats.exchange_ns += elapsed_ns(t_wait);
            (kmer_keys, tile_keys)
        };

        // Step III's threshold prune runs on the *entry runs*, before
        // any table exists: the tally's final merge keeps the same
        // survivor set the serial path's build-then-prune keeps,
        // and the flat tables are then materialized once, survivors
        // only, with an exact reserve and one monotone bulk load — no
        // full-size table, no prune rebuild, no incremental growth
        // rehash. `capacity_for(survivors)` is the same either way, so
        // the final geometry (and `memory_bytes`) matches the serial
        // path exactly.
        let t_build = Instant::now();
        let (kmer_table, tile_table) = match ooc {
            Some(o) => {
                // Budgeted materialization: spill the tails, k-way-merge
                // the runs straight into the tables (crate::ooc docs).
                // Resolve outcomes collectively before touching another
                // collective — a rank whose spill plane failed (deferred
                // batch-loop IO error or a corrupt run at merge time)
                // must abort *with* its peers, not deadlock them in
                // `derive_heuristic_tables`.
                let local =
                    o.finish_spectra(&mut kmers.owned, &mut tiles.owned, params, &mut stats);
                agree_on_failure(comm, local)?
            }
            None => {
                let spectra = (
                    materialize(&mut kmers.owned, params.kmer_threshold, kcodec, params.canonical),
                    materialize(&mut tiles.owned, params.tile_threshold, tcodec, params.canonical),
                );
                // Both tallies of both kinds are spent: the tables and
                // heuristic tables that follow share the heap with no
                // count-phase buffer.
                debug_assert_eq!(
                    kmers.owned.memory_bytes()
                        + kmers.reads.memory_bytes()
                        + tiles.owned.memory_bytes()
                        + tiles.reads.memory_bytes(),
                    0
                );
                spectra
            }
        };
        stats.extract_ns += elapsed_ns(t_build);

        // Already pruned above — go straight to the heuristic tables.
        Ok(derive_heuristic_tables(
            comm, owners, heur, kmer_table, tile_table, kmer_keys, tile_keys, stats,
        ))
        // The pool's job senders drop here, ending every worker's recv
        // loop before the scope joins them.
    })
}

/// The serial reference build: one thread, one hash insert per
/// occurrence into `hashKmer`/`readsKmer` (and the tile pair), blocking
/// exchanges — the original Reptile program's loop, as one per-kind
/// tally called for k-mers and for tiles. The pipelined
/// [`build_distributed`] is proptested bit-identical against it, and
/// the `perf-floor` row of `figures -- bench-json` races it.
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
    let owners = OwnerMap::new(comm.size(), params);
    let mut kmers = SerialTables::<u64>::new(params.kmer_codec(), params.canonical);
    let mut tiles = SerialTables::<u128>::new(params.tile_codec(), params.canonical);
    let mut stats = BuildStats::default();

    // Every rank must join the same number of collective rounds (§III-B).
    let my_batches = reads.len().div_ceil(chunk_size).max(1) as u64;
    let max_batches =
        if heur.batch_reads { comm.allreduce_max_u64(my_batches) } else { my_batches };
    stats.batches = if heur.batch_reads { max_batches } else { 1 };

    let me = comm.rank();
    for batch in 0..max_batches {
        let lo = (batch as usize * chunk_size).min(reads.len());
        let hi = ((batch as usize + 1) * chunk_size).min(reads.len());
        let t_extract = Instant::now();
        for read in &reads[lo..hi] {
            stats.bases_processed += read.len() as u64;
            stats.kmers_extracted += kmers.tally(&read.seq, &owners, me, &mut stats);
            stats.tiles_extracted += tiles.tally(&read.seq, &owners, me, &mut stats);
            // True high-water sampling: inside the loop, per read.
            stats.peak_reads_kmers = stats.peak_reads_kmers.max(kmers.reads.len() as u64);
            stats.peak_reads_tiles = stats.peak_reads_tiles.max(tiles.reads.len() as u64);
        }
        stats.extract_ns += elapsed_ns(t_extract);
        if heur.batch_reads {
            let t_ex = Instant::now();
            kmers.exchange(comm, &owners, &mut stats);
            tiles.exchange(comm, &owners, &mut stats);
            stats.exchange_ns += elapsed_ns(t_ex);
        }
    }

    // Record the rank's own-reads key sets before the final exchange
    // consumes the tables (needed by keep_read_tables).
    let kmer_keys = kmers.read_keys(heur.keep_read_tables);
    let tile_keys = tiles.read_keys(heur.keep_read_tables);

    if !heur.batch_reads {
        let t_ex = Instant::now();
        kmers.exchange(comm, &owners, &mut stats);
        tiles.exchange(comm, &owners, &mut stats);
        stats.exchange_ns += elapsed_ns(t_ex);
    }

    // Threshold prune at the owner (Step III).
    kmers.owned.prune(params.kmer_threshold);
    tiles.owned.prune(params.tile_threshold);
    derive_heuristic_tables(
        comm,
        owners,
        heur,
        kmers.owned,
        tiles.owned,
        kmer_keys,
        tile_keys,
        stats,
    )
}

/// One key kind's tables in the serial reference build: `hashKmer` for
/// the keys this rank owns, `readsKmer` for the rest (or the tile pair).
struct SerialTables<K: SpectrumKey> {
    owned: Spectrum<K>,
    reads: Spectrum<K>,
}

impl<K: Key> SerialTables<K> {
    fn new(codec: K::Codec, canonical: bool) -> SerialTables<K> {
        SerialTables {
            owned: Spectrum::new(codec, canonical),
            reads: Spectrum::new(codec, canonical),
        }
    }

    /// Tally one read's occurrences of this kind, one hash insert each;
    /// returns how many there were. Forced inline, with
    /// `SpectrumKey::codes_of` marked `#[inline]`: as out-of-line calls
    /// the reference build ran 10–15% slower per key (2-core x86-64).
    #[inline(always)]
    fn tally(&mut self, seq: &[u8], owners: &OwnerMap, me: usize, stats: &mut BuildStats) -> u64 {
        let mut occurrences = 0;
        for (key, owner) in owners.keys_of::<K>(seq) {
            occurrences += 1;
            if owner == me {
                self.owned.add_count(key, 1);
            } else {
                stats.exchange_occurrences += 1;
                self.reads.add_count(key, 1);
            }
        }
        occurrences
    }

    /// The reads table's keys, when `keep_read_tables` needs them.
    fn read_keys(&self, keep: bool) -> Vec<K> {
        if keep {
            self.reads.iter().map(|(key, _)| key).collect()
        } else {
            Vec::new()
        }
    }

    /// Ship the reads table to the owners ([`exchange_counts`]) and start
    /// an empty one.
    fn exchange(&mut self, comm: &Comm, owners: &OwnerMap, stats: &mut BuildStats) {
        let empty = Spectrum::new(self.owned.codec(), self.owned.canonical());
        let reads = std::mem::replace(&mut self.reads, empty);
        exchange_counts(comm, owners, reads, &mut self.owned, stats);
    }
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Add one kind's outgoing `(key, count)` buckets to the exchange
/// volume, in wire-tuple bytes (what the collective layer charges:
/// `len × size_of::<T>()`).
fn count_exchange<K: SpectrumKey>(out: &[Vec<(K, u32)>], stats: &mut BuildStats) {
    let pairs = entries(out);
    stats.exchange_entries += pairs;
    stats.exchange_bytes += pairs * std::mem::size_of::<(K, u32)>() as u64;
}

/// Entries over every per-owner part.
fn entries<T>(parts: &[Vec<T>]) -> u64 {
    parts.iter().map(Vec::len).sum::<usize>() as u64
}

/// Sub-chunk length for tallying into the accumulators. A budgeted build
/// absorbs in bounded sub-chunks with a spill check after each, so
/// pending bytes never outrun the trigger by more than one chunk — a
/// whole batch or exchange part can be far larger than the budget
/// headroom at the floor (crate::ooc trigger arithmetic). An unbudgeted
/// build takes every slice whole.
fn absorb_chunk(ooc: &Option<&mut OocBuild>) -> usize {
    if ooc.is_some() {
        crate::ooc::ABSORB_CHUNK_ENTRIES
    } else {
        usize::MAX
    }
}

/// A budgeted build's spill check over both accumulators (a no-op
/// without a budget).
fn spill_check(
    ooc: &mut Option<&mut OocBuild>,
    kmers: &mut CountAcc<u64>,
    tiles: &mut CountAcc<u128>,
) {
    if let Some(o) = ooc {
        o.maybe_spill(kmers, tiles);
    }
}

/// One key kind's share of a worker's raw output: per-owner occurrence
/// buckets plus how many occurrences the worker extracted.
struct KindBatch<K> {
    buckets: Vec<Vec<K>>,
    extracted: u64,
}

impl<K: Key> KindBatch<K> {
    fn new(np: usize) -> KindBatch<K> {
        KindBatch { buckets: vec![Vec::new(); np], extracted: 0 }
    }

    /// Reset for reuse, keeping every bucket's allocation.
    fn clear(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        self.extracted = 0;
    }

    /// Occurrences bound for ranks other than `me`.
    fn nonown(&self, me: usize) -> u64 {
        let all: usize = self.buckets.iter().map(Vec::len).sum();
        (all - self.buckets[me].len()) as u64
    }
}

/// Per-worker raw output: both kinds' buckets plus the bases scanned.
/// Recycled through the pool's free list, so bucket capacity is paid
/// once and reused batch after batch.
struct WorkerOut {
    kmers: KindBatch<u64>,
    tiles: KindBatch<u128>,
    bases: u64,
}

impl WorkerOut {
    fn new(np: usize) -> WorkerOut {
        WorkerOut { kmers: KindBatch::new(np), tiles: KindBatch::new(np), bases: 0 }
    }

    /// Reset for reuse, keeping every bucket's allocation.
    fn clear(&mut self) {
        self.kmers.clear();
        self.tiles.clear();
        self.bases = 0;
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
        let kb = &mut out.kmers.buckets[0];
        let tb = &mut out.tiles.buckets[0];
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
                out.kmers.buckets[owners.kmer_owner_at(key)].push(key.key());
                if let Some((_, tile)) = item.tile {
                    tiles_extracted += 1;
                    let tkey = owners.tile_key(tile);
                    out.tiles.buckets[owners.tile_owner_at(tkey)].push(tkey.key());
                }
            });
        }
    }
    out.bases += bases;
    out.kmers.extracted += kmers_extracted;
    out.tiles.extracted += tiles_extracted;
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
            stats.kmers_extracted += w.kmers.extracted;
            stats.tiles_extracted += w.tiles.extracted;
            stats.exchange_occurrences += w.kmers.nonown(me) + w.tiles.nonown(me);
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

/// One key kind's running tallies in the pipelined build: the owned
/// keys' global counts, this rank's non-owned occurrences awaiting the
/// non-batch exchange (the reads table's role), and the kind's count
/// exchange in flight.
struct KindTally<'c, K> {
    /// Key width in bits (picks the accumulators' strategy).
    bits: u32,
    owned: CountAcc<K>,
    reads: CountAcc<K>,
    in_flight: Option<PendingAlltoallv<'c, (K, u32)>>,
}

impl<'c, K: Key> KindTally<'c, K> {
    fn new(bits: u32) -> KindTally<'c, K> {
        KindTally { bits, owned: CountAcc::new(bits), reads: CountAcc::new(bits), in_flight: None }
    }

    /// Tally a worker's own-bucket occurrences, `chunk` keys at a time,
    /// calling `after_chunk` after each.
    fn absorb_own(
        &mut self,
        batch: &KindBatch<K>,
        me: usize,
        chunk: usize,
        mut after_chunk: impl FnMut(&mut CountAcc<K>),
    ) {
        for sub in batch.buckets[me].chunks(chunk) {
            self.owned.push_keys(sub);
            after_chunk(&mut self.owned);
        }
    }

    /// Non-batch mode: tally a worker's non-owned occurrences for the
    /// one exchange after the last chunk.
    fn absorb_reads(&mut self, batch: &KindBatch<K>, me: usize) {
        for (d, bucket) in batch.buckets.iter().enumerate() {
            if d != me {
                self.reads.push_keys(bucket);
            }
        }
    }

    /// Batch mode: pre-aggregate one batch's non-owned buckets, over
    /// every worker, into sorted distinct per-owner runs for the wire
    /// (`me`'s run stays empty — own occurrences were tallied straight
    /// into the accumulators).
    fn aggregate_nonown<'w>(
        &self,
        batches: impl Iterator<Item = &'w KindBatch<K>> + Clone,
        me: usize,
    ) -> Vec<Vec<(K, u32)>> {
        let np = batches.clone().next().map_or(1, |b| b.buckets.len());
        (0..np)
            .map(|d| {
                if d == me {
                    Vec::new()
                } else {
                    aggregate_occurrences(batches.clone().map(|b| &b.buckets[d]), self.bits)
                }
            })
            .collect()
    }

    /// Finalize the reads tally into sorted distinct runs, plus their
    /// keys when `keep_read_tables` needs them.
    fn finalize_reads(&mut self, keep: bool) -> (Vec<(K, u32)>, Vec<K>) {
        let runs = self.reads.finalize(0);
        let keys = if keep { runs.iter().map(|&(key, _)| key).collect() } else { Vec::new() };
        (runs, keys)
    }

    /// Post per-owner `(key, count)` parts through the non-blocking
    /// exchange: part `d` goes to rank `d`, which owns its keys.
    fn post(
        &mut self,
        comm: &'c Comm,
        owners: &OwnerMap,
        parts: Vec<Vec<(K, u32)>>,
        stats: &mut BuildStats,
    ) {
        debug_assert!(parts.iter().enumerate().all(|(d, part)| {
            part.iter().all(|&(key, _)| K::owner(Normalized::assume(key), owners) == d)
        }));
        count_exchange(&parts, stats);
        self.in_flight = Some(comm.start_alltoallv(parts));
    }

    /// Wait out the exchange in flight and merge the received parts
    /// into the owned tally, `chunk` entries at a time, calling
    /// `after_chunk` after each.
    fn absorb_exchange(&mut self, chunk: usize, mut after_chunk: impl FnMut(&mut CountAcc<K>)) {
        let parts = self.in_flight.take().map_or_else(Vec::new, PendingAlltoallv::wait);
        for part in parts {
            for sub in part.chunks(chunk) {
                self.owned.push_run(sub);
                after_chunk(&mut self.owned);
            }
        }
    }
}

/// Wait out both kinds' in-flight batch exchange, posted at `started`,
/// and merge the received runs into the owner tallies.
fn drain_exchange(
    started: Instant,
    kmers: &mut KindTally<'_, u64>,
    tiles: &mut KindTally<'_, u128>,
    stats: &mut BuildStats,
    mut ooc: Option<&mut OocBuild>,
) {
    stats.overlap_ns += elapsed_ns(started);
    let t_wait = Instant::now();
    let chunk = absorb_chunk(&ooc);
    kmers.absorb_exchange(chunk, |k| spill_check(&mut ooc, k, &mut tiles.owned));
    tiles.absorb_exchange(chunk, |t| spill_check(&mut ooc, &mut kmers.owned, t));
    stats.exchange_ns += elapsed_ns(t_wait);
}

/// One kind's finalized reads runs split by owner.
fn bucket_runs<K: Key>(owners: &OwnerMap, runs: Vec<(K, u32)>) -> Vec<Vec<(K, u32)>> {
    bucket_by_owner(owners, || runs.iter().copied(), |&(key, _)| key)
}

/// Split `items` by the owner of their key, each per-owner bucket
/// allocated once at its exact final size (a counting pass over
/// `items()` first) instead of growing by push-reallocation. The keys
/// come out of a spectrum table or a finalized run, so they are
/// normalized by construction.
fn bucket_by_owner<K: Key, T, I: Iterator<Item = T>>(
    owners: &OwnerMap,
    items: impl Fn() -> I,
    key: impl Fn(&T) -> K,
) -> Vec<Vec<T>> {
    let owner = |item: &T| K::owner(Normalized::assume(key(item)), owners);
    let mut sizes = vec![0usize; owners.np()];
    for item in items() {
        sizes[owner(&item)] += 1;
    }
    let mut out: Vec<Vec<T>> = sizes.into_iter().map(Vec::with_capacity).collect();
    for item in items() {
        out[owner(&item)].push(item);
    }
    out
}

/// The Step III exchange of one kind: ship the `reads` entries to their
/// owners and merge them into the owner's table (blocking; the serial
/// reference path). Also reused by the snapshot re-shard load: entries
/// from an old-`np` snapshot are disjoint across shards, so routing them
/// through this exchange re-owns every key with its exact global count.
pub(crate) fn exchange_counts<K: Key>(
    comm: &Comm,
    owners: &OwnerMap,
    reads: Spectrum<K>,
    owned: &mut Spectrum<K>,
    stats: &mut BuildStats,
) {
    let out = bucket_by_owner(owners, || reads.iter(), |&(key, _)| key);
    drop(reads);
    count_exchange(&out, stats);
    for part in comm.alltoallv(out) {
        for (key, count) in part {
            let key = Normalized::assume(key);
            debug_assert_eq!(K::owner(key, owners), comm.rank());
            owned.add_count(key, count);
        }
    }
}

/// An in-memory build's final table of one kind: Step III's threshold
/// prune inside the tally's final merge, then the survivors
/// bulk-loaded with an exact reserve.
fn materialize<K: SpectrumKey>(
    acc: &mut CountAcc<K>,
    threshold: u32,
    codec: K::Codec,
    canonical: bool,
) -> Spectrum<K> {
    let entries = acc.finalize(threshold);
    let mut table = Spectrum::new(codec, canonical);
    table.reserve(entries.len());
    table.merge_sorted(&entries);
    table
}

/// The collective tail of construction: keep_read_tables resolution,
/// replication / partial replication, and the final stats, one kind at
/// a time ([`derive_kind`]). The snapshot load path — whose owned tables
/// come off disk already pruned — calls it directly, without repeating
/// Steps II–III. Every rank must call this together: it runs
/// alltoallv/allgatherv rounds for the heuristics that need them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn derive_heuristic_tables(
    comm: &Comm,
    owners: OwnerMap,
    heur: &HeuristicConfig,
    kmers: KmerSpectrum,
    tiles: TileSpectrum,
    kmer_keys: Vec<u64>,
    tile_keys: Vec<u128>,
    mut stats: BuildStats,
) -> (RankTables, BuildStats) {
    stats.owned_kmers = kmers.len() as u64;
    stats.owned_tiles = tiles.len() as u64;
    let mut tables = RankTables {
        owners,
        kmers: KindTables::new(kmers),
        tiles: KindTables::new(tiles),
        hot_owners: Vec::new(),
    };
    derive_kind(comm, &mut tables, heur, heur.replicate_kmers, kmer_keys, &mut stats);
    derive_kind(comm, &mut tables, heur, heur.replicate_tiles, tile_keys, &mut stats);
    stats.table_bytes = tables.memory_bytes();
    (tables, stats)
}

/// One kind's heuristic tables, from its pruned owned table: the reads
/// table of `keys` under keep_read_tables, the whole spectrum when
/// `replicate` (this kind's `replicate_*` flag), and the group's merged
/// owned tables under partial replication (§V).
fn derive_kind<K: Key>(
    comm: &Comm,
    tables: &mut RankTables,
    heur: &HeuristicConfig,
    replicate: bool,
    keys: Vec<K>,
    stats: &mut BuildStats,
) {
    let owners = tables.owners;
    let kind = K::tables(tables);
    if heur.keep_read_tables {
        let reads = resolve_read_table(comm, &owners, keys, &kind.owned);
        stats.reads_table_entries += reads.len() as u64;
        kind.reads = Some(reads);
    }
    if replicate {
        let full = gather(comm, &kind.owned, true, |_| true);
        stats.replicated_entries += full.len() as u64;
        kind.replicated = Some(full);
    }
    if heur.partial_group > 1 {
        let g = heur.partial_group;
        let my_group = comm.rank() / g;
        let group = gather(comm, &kind.owned, true, |key| {
            K::owner(Normalized::assume(key), &owners) / g == my_group
        });
        stats.group_entries += group.len() as u64;
        kind.group = Some(group);
    }
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
    tables: &mut RankTables,
    hot: &[bool],
    stats: &mut BuildStats,
) {
    let i_am_hot = hot[comm.rank()];
    let kmers = gather(comm, &tables.kmers.owned, i_am_hot, |_| true);
    let tiles = gather(comm, &tables.tiles.owned, i_am_hot, |_| true);
    stats.hot_entries = (kmers.len() + tiles.len()) as u64;
    tables.kmers.hot = Some(kmers);
    tables.tiles.hot = Some(tiles);
    tables.hot_owners = hot.to_vec();
    stats.table_bytes = tables.memory_bytes();
}

/// Allgather every rank's `owned` table (or nothing, where `!share`) into
/// one table of the entries matching `keep`.
fn gather<K: SpectrumKey>(
    comm: &Comm,
    owned: &Spectrum<K>,
    share: bool,
    keep: impl Fn(K) -> bool,
) -> Spectrum<K> {
    let entries: Vec<(K, u32)> = if share { owned.iter().collect() } else { Vec::new() };
    merge_gathered_parts(owned, comm.allgatherv(entries), keep)
}

/// A table of `like`'s kind holding the entries of the gathered per-owner
/// `parts` that match `keep`. Owners hold disjoint key sets, so the
/// filtered part lengths sum to the exact final entry count — the table
/// is pre-sized once instead of growing through every `add_count`, and
/// the final geometry still matches `bytes_for_entries`.
fn merge_gathered_parts<K: SpectrumKey>(
    like: &Spectrum<K>,
    parts: Vec<Vec<(K, u32)>>,
    keep: impl Fn(K) -> bool,
) -> Spectrum<K> {
    let mut spec = Spectrum::new(like.codec(), like.canonical());
    let matching = parts.iter().flatten().filter(|&&(key, _)| keep(key)).count();
    spec.reserve(matching);
    for (key, count) in parts.into_iter().flatten() {
        if keep(key) {
            spec.add_count(Normalized::assume(key), count);
        }
    }
    spec
}

/// The extra alltoallv round of the *read k-mers/tiles* heuristic, for
/// one kind: ask each owner for the global (post-prune) counts of the
/// keys this rank saw in its own reads, and build a local table from the
/// answers. A count of 0 is stored too — "known absent" avoids a
/// pointless future message.
fn resolve_read_table<K: Key>(
    comm: &Comm,
    owners: &OwnerMap,
    keys: Vec<K>,
    owned: &Spectrum<K>,
) -> Spectrum<K> {
    let ask = bucket_by_owner(owners, || keys.iter().copied(), |&key| key);
    drop(keys);
    let answers: Vec<Vec<(K, u32)>> = comm
        .alltoallv(ask)
        .into_iter()
        .map(|asked| {
            asked.into_iter().map(|key| (key, owned.count_at(Normalized::assume(key)))).collect()
        })
        .collect();
    // Answer parts are disjoint (each key was asked of exactly one
    // owner), so their lengths sum to the exact final entry count.
    merge_gathered_parts(owned, comm.alltoallv(answers), |_| true)
}

/// One local pass over `reads` collecting the distinct non-owned
/// normalized keys of one kind — what the build path's reads table would
/// have held. The snapshot load path needs these for `keep_read_tables`
/// (the build that would have recorded them was skipped), and a plain
/// scan is far cheaper than replaying the count exchange: counts are
/// already global in the loaded tables, only the key *sets* are missing.
pub(crate) fn scan_nonowned_keys<K: Key>(reads: &[Read], owners: &OwnerMap, me: usize) -> Vec<K> {
    let mut keys: dnaseq::FxHashSet<K> = dnaseq::FxHashSet::default();
    for read in reads {
        for (key, owner) in owners.keys_of::<K>(&read.seq) {
            if owner != me {
                keys.insert(key.key());
            }
        }
    }
    keys.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_data::{small_params as params, template_reads as make_reads};
    use mpisim::Universe;
    use reptile::spectrum::LocalSpectra;

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
            for (code, count) in tables.kmers.owned.iter() {
                let owner = u64::owner(code.normalize(&tables.owners), &tables.owners);
                assert_eq!(owner, tables_rank(&results, tables));
                assert!(union_k.insert(code, count).is_none(), "kmer at two owners");
            }
            for (code, count) in tables.tiles.owned.iter() {
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
            a.kmers.buckets[(i % 3) as usize].push(dnaseq::mix64(i % 91) & 0xF_FFFF);
            b.kmers.buckets[(i % 3) as usize].push(dnaseq::mix64(i % 77) & 0xF_FFFF);
            a.tiles.buckets[((i + 1) % 3) as usize]
                .push((dnaseq::mix64(i % 53) & 0x3FFF_FFFF) as u128);
        }
        let raw = [a, b];
        let raw_nonown: u64 = raw.iter().map(|w| w.kmers.nonown(1)).sum();
        let kmers: KindTally<'_, u64> = KindTally::new(20);
        let tiles: KindTally<'_, u128> = KindTally::new(30);
        let kmer_parts = kmers.aggregate_nonown(raw.iter().map(|w| &w.kmers), 1);
        let tile_parts = tiles.aggregate_nonown(raw.iter().map(|w| &w.tiles), 1);
        assert!(kmer_parts[1].is_empty() && tile_parts[1].is_empty());
        for d in [0usize, 2] {
            assert!(!kmer_parts[d].is_empty());
            assert!(kmer_parts[d].windows(2).all(|w| w[0].0 < w[1].0), "owner {d} not sorted");
        }
        let shipped: u64 = kmer_parts.iter().flatten().map(|&(_, c)| c as u64).sum();
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
                keys += out.kmers.buckets[0].len() as u64 + out.tiles.buckets[0].len() as u64;
                let t1 = Instant::now();
                acc_k.push_keys(&out.kmers.buckets[0]);
                acc_t.push_keys(&out.tiles.buckets[0]);
                t_tally += elapsed_ns(t1);
                out.clear();
            }
            let t2 = Instant::now();
            let mut ke = acc_k.finalize(0);
            let mut te = acc_t.finalize(0);
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
                    let sk: Vec<_> = sorted(ts.kmers.owned.iter());
                    let pk: Vec<_> = sorted(tp.kmers.owned.iter());
                    assert_eq!(sk, pk, "kmer tables diverge");
                    let st: Vec<_> = sorted(ts.tiles.owned.iter());
                    let pt: Vec<_> = sorted(tp.tiles.owned.iter());
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
            let rk = tables.kmers.reads.as_ref().expect("reads table kept");
            assert!(stats.reads_table_entries > 0 || rk.is_empty());
            for (code, count) in rk.iter() {
                assert_eq!(count, seq.kmers.count(code), "global count mismatch for {code}");
            }
            let rt = tables.tiles.reads.as_ref().expect("tile reads table kept");
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
            let rep_k = tables.kmers.replicated.as_ref().unwrap();
            let rep_t = tables.tiles.replicated.as_ref().unwrap();
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
    fn group_and_owned_tables_both_count_in_memory() {
        let p = params();
        let reads = make_reads(40, 18);
        let reads_ref = &reads;
        let np = 4;
        let heur =
            HeuristicConfig { partial_group: 2, keep_read_tables: true, ..Default::default() };
        let results = Universe::new(np).run(move |comm| {
            let mine = partition(reads_ref, np, comm.rank());
            build_distributed(comm, &mine, 1000, &p, &heur, 1).0
        });
        for tables in &results {
            let k = &tables.kmers;
            let (group, reads) = (k.group.as_ref().unwrap(), k.reads.as_ref().unwrap());
            assert!(group.len() > k.owned.len());
            let bytes = k.owned.memory_bytes() + group.memory_bytes() + reads.memory_bytes();
            assert_eq!(k.memory_bytes(), bytes as u64);
            assert_eq!(tables.memory_bytes(), k.memory_bytes() + tables.tiles.memory_bytes());
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
