//! Out-of-core spectrum construction: the `MemoryBudget`-driven build
//! mode (ROADMAP item 5, RECKONER/KMC-style external-memory counting).
//!
//! The in-memory build's working set peaks when `CountAcc::finalize`
//! materializes every distinct pre-prune key at once. With a
//! [`memory budget`](crate::EngineConfig::memory_budget) set, the build
//! instead watches the accumulators' resident bytes between batches and,
//! when they trip the spill threshold, drains them into sorted
//! [`specstore::spill`] run files — pre-prune, so no information is
//! lost. After the last exchange the runs (plus one final drain) are
//! k-way merged by a loser-tree [`RunMerger`] with streaming
//! saturating-count folding and prune-on-merge, and the survivors flow
//! straight into the flat tables' streaming sorted bulk load — the full
//! distinct-key vector never exists in memory.
//!
//! **Bit-identity.** Saturating addition of non-negative counts is
//! associative and commutative, so per-run saturated counts folded at
//! merge time equal the single-accumulator tally; the same threshold is
//! applied (at merge instead of `retain`), and the table is reserved
//! for the same survivor count, so capacity, `len`, contents, and
//! `memory_bytes` all match the unbudgeted build exactly. The proptest
//! matrix in `tests/ooc_build.rs` enforces this across budgets, rank
//! counts, and engines.
//!
//! **Budget accounting.** The accounted set is everything this mode
//! controls: the fixed floor (direct-count arrays, which *are* the
//! aggregation and cannot spill, plus the two bounded spill buffers),
//! the accumulators' resident bytes, transient drained-entry vectors
//! while a spill is writing, and — during the merge — the per-run
//! reader buffers, the stream chunk, and the growing tables.
//! [`BuildStats::ooc_peak_bytes`] reports the high-water mark;
//! `ooc_bench` proves it stays under the budget while the output
//! matches. Read buffers, reads themselves, and replication heuristics
//! are outside the accounted set (the reads side streams through
//! `genio`'s bounded readers).
//!
//! The trigger arithmetic that keeps the peak under the budget: the
//! exchange drain absorbs incoming runs in
//! `ABSORB_CHUNK_ENTRIES`-entry sub-chunks with a spill check after
//! each, so pending entry bytes at spill time never exceed
//! `trigger + one chunk`; the trigger sits at a *quarter* of the
//! headroom (`budget - fixed_floor`) because a drain transiently holds
//! both the raw buffers (capacity ≤ 2× pending) and the drained entry
//! vector — `2 × (headroom/4 + chunk) ≤ headroom` as long as a chunk
//! fits in a quarter of the headroom, which [`min_budget`]'s minimum
//! room guarantees by construction. The merge is budget-scaled the
//! same way: the per-run reader buffers share at most a quarter of the
//! headroom (clamped to the run format's 4 KiB floor), the bulk-load
//! stream chunk takes at most another quarter, and the final drains
//! release the accumulators' retained raw-buffer capacities first —
//! half the headroom is left for the tables being built.
//!
//! Direct-strategy kinds are exempt from all of it: their fixed-size
//! count array (inside [`fixed_floor`]) *is* the aggregation, so
//! spilling it would shrink nothing — the finish streams the
//! already-sorted array straight into the flat table with a
//! chunk-bounded transient and zero IO. Only buffered kinds write run
//! files.
//!
//! [`RunMerger`]: specstore::spill::RunMerger
//! [`BuildStats::ooc_peak_bytes`]: crate::spectrum::BuildStats::ooc_peak_bytes

use std::path::PathBuf;
use std::time::Instant;

use reptile::spectrum::{KmerSpectrum, TileSpectrum};
use reptile::{FlatTable, ReptileParams, SpectrumKey};
use specstore::spill::{
    write_run, RunMerger, RunReader, SpillError, DEFAULT_SPILL_BUF_BYTES, MIN_SPILL_BUF_BYTES,
};

use crate::counts::{direct_array_bytes, CountAcc};
use crate::owner::Key;
use crate::spectrum::BuildStats;

/// Entries per chunk of the merge→table stream (bounded scratch, small
/// next to any realistic budget: 4096 × 12 B = 48 KB for k-mers).
/// Budgeted merges scale this down toward
/// `MIN_STREAM_CHUNK_ENTRIES` when the headroom is tight.
pub const STREAM_CHUNK_ENTRIES: usize = 4096;

/// Floor for the budget-scaled merge stream chunk: small enough that
/// even the tightest legal headroom fits it (256 × 32 B = 8 KiB for
/// tiles), big enough that the per-chunk bulk-load overhead stays
/// amortized.
const MIN_STREAM_CHUNK_ENTRIES: usize = 256;

/// Entries the exchange drain absorbs between spill checks when a
/// budget is set. Bounds the pending-byte overshoot past the trigger to
/// one chunk: 2048 × 32 B = 64 KiB for tiles, half that for k-mers —
/// exactly a quarter of [`MIN_ACC_ROOM`], which is what the trigger
/// arithmetic (module docs) needs at the tightest legal budget.
pub(crate) const ABSORB_CHUNK_ENTRIES: usize = 2048;

/// Room the accumulators must be able to grow into before the first
/// spill can trip — a budget tighter than `floor + this` would spill
/// every batch without ever freeing enough to matter, and the drain
/// transient (2× pending at spill, see the module docs) could not stay
/// under the budget past one [`ABSORB_CHUNK_ENTRIES`] absorb chunk.
const MIN_ACC_ROOM: u64 = 256 * 1024;

/// The irreducible accounted floor of a budgeted build for `params`:
/// the direct-count arrays (present only for narrow key widths — they
/// *are* the aggregation and cannot spill) plus the two bounded spill
/// buffers. [`min_budget`] adds working room on top; `EngineConfig`
/// validation rejects budgets below that.
pub fn fixed_floor(params: &ReptileParams) -> u64 {
    let kbits = 2 * params.kmer_codec().k() as u32;
    let tbits = 2 * params.tile_codec().len() as u32;
    direct_array_bytes(kbits) + direct_array_bytes(tbits) + 2 * DEFAULT_SPILL_BUF_BYTES as u64
}

/// Smallest `memory_budget` the engine accepts for `params` — the
/// fixed floor plus enough accumulation room to make forward progress.
pub fn min_budget(params: &ReptileParams) -> u64 {
    fixed_floor(params) + MIN_ACC_ROOM
}

/// Per-rank state of one budgeted build: the spill directory, the run
/// lists, the trigger, and the running byte/peak accounting. Created by
/// the threaded engine, threaded through
/// `spectrum::build_distributed_spillable`.
pub(crate) struct OocBuild {
    /// Directory the run files live in (engine-owned temp dir).
    dir: PathBuf,
    /// This rank — run file names embed it, so ranks share the dir.
    rank: usize,
    /// Fault injection: chop this rank's first run file (k-mer if one
    /// exists, tile otherwise) down to
    /// `keep_bytes` before the merge opens it (the PR-4 `chop=` fault
    /// composed with the spill plane).
    chop: Option<u64>,
    /// Pending spillable bytes ([`CountAcc::pending_entry_bytes`])
    /// above this spill: a quarter of the budget headroom, because the
    /// drain transiently holds both the raw buffers (capacity up to 2×
    /// the pending bytes) and the drained entry vector, and the
    /// chunked absorb can overshoot the trigger by one
    /// [`ABSORB_CHUNK_ENTRIES`] chunk before the next check.
    trigger: u64,
    /// Budget minus the fixed floor: the room the accumulators and the
    /// merge transient must fit in. The per-run merge reader buffers
    /// scale down within half of this so a many-run merge cannot
    /// overshoot a tight budget on its own.
    headroom: u64,
    /// The bounded spill-buffer overhead, charged on top of every
    /// measured transient (the direct arrays are NOT added here — they
    /// are inside the measured `memory_bytes` figures, and adding them
    /// again would double-count).
    buf_overhead: u64,
    /// K-mer run files, in spill order.
    pub(crate) kmer_runs: Vec<PathBuf>,
    /// Tile run files, in spill order.
    pub(crate) tile_runs: Vec<PathBuf>,
    /// First spill failure hit inside the batch loop, deferred until
    /// the post-loop resolution point: the loop's collective schedule
    /// (one exchange per batch, uniform across ranks) must not be cut
    /// short by a local IO error, or the peers deadlock mid-collective.
    /// Once set, no further spills are attempted.
    deferred: Option<SpillError>,
    /// Run files written.
    pub(crate) spill_runs: u64,
    /// Bytes of run files written (header + body).
    pub(crate) spill_bytes: u64,
    /// High-water mark of the accounted set.
    pub(crate) peak_bytes: u64,
}

impl OocBuild {
    /// State for one rank's budgeted build. `dir` must exist; callers
    /// validated `budget >= min_budget(params)`.
    pub(crate) fn new(
        budget: u64,
        dir: PathBuf,
        rank: usize,
        chop: Option<u64>,
        params: &ReptileParams,
    ) -> OocBuild {
        let floor = fixed_floor(params);
        let buf_overhead = 2 * DEFAULT_SPILL_BUF_BYTES as u64;
        let headroom = budget.saturating_sub(floor).max(MIN_ACC_ROOM);
        OocBuild {
            dir,
            rank,
            chop,
            trigger: headroom / 4,
            headroom,
            buf_overhead,
            kmer_runs: Vec::new(),
            tile_runs: Vec::new(),
            deferred: None,
            spill_runs: 0,
            spill_bytes: 0,
            peak_bytes: buf_overhead,
        }
    }

    /// Charge `transient` measured bytes on top of the spill-buffer
    /// overhead and update the peak.
    fn charge(&mut self, transient: u64) {
        self.peak_bytes = self.peak_bytes.max(self.buf_overhead + transient);
    }

    /// Spill-check hook, called after every absorbed
    /// [`ABSORB_CHUNK_ENTRIES`] chunk of the exchange drain and at each
    /// batch boundary: charge the accumulators' resident bytes and,
    /// when the combined pending bytes trip the threshold, spill the
    /// kinds holding a meaningful share of them (at least half the
    /// trigger — when the combined total trips, at least one kind is
    /// there). A nearly-empty sibling keeps accumulating instead of
    /// paying a drain (sort + file) for a tiny run; what it holds stays
    /// below half the trigger, so the combined resident still shrinks
    /// below the threshold. Infallible by design — a spill failure is
    /// deferred (see [`OocBuild::deferred`]) so the caller's collective
    /// schedule stays uniform across ranks; it surfaces at the
    /// post-loop resolution point.
    pub(crate) fn maybe_spill(
        &mut self,
        acc_kmers: &mut CountAcc<u64>,
        acc_tiles: &mut CountAcc<u128>,
    ) {
        if self.deferred.is_some() {
            return;
        }
        let resident = (acc_kmers.memory_bytes() + acc_tiles.memory_bytes()) as u64;
        self.charge(resident);
        // The trigger watches *pending* entry bytes, not resident bytes:
        // a direct-count array's resident size never changes, so its
        // spill pressure is the occupancy it has accumulated.
        // Direct kinds exert no spill pressure: their array is the
        // aggregation (fixed size, inside the fixed floor) and the
        // finish streams it out with a chunk-bounded transient, so
        // draining it to disk would free nothing.
        let kmer_pending =
            if acc_kmers.is_direct() { 0 } else { acc_kmers.pending_entry_bytes() as u64 };
        let tile_pending =
            if acc_tiles.is_direct() { 0 } else { acc_tiles.pending_entry_bytes() as u64 };
        if kmer_pending + tile_pending > self.trigger {
            let share = self.trigger / 2;
            let mut spilled = Ok(());
            if kmer_pending >= share {
                spilled = self.spill_kind(acc_kmers, acc_tiles.memory_bytes() as u64);
            }
            if spilled.is_ok() && tile_pending >= share {
                spilled = self.spill_kind(acc_tiles, acc_kmers.memory_bytes() as u64);
            }
            if let Err(e) = spilled {
                self.deferred = Some(e);
            }
        }
    }

    /// Drain one accumulator into a fresh sorted run file (pre-prune —
    /// thresholds apply at merge time, over global folded counts).
    /// `other_resident` is the sibling accumulator's resident bytes —
    /// it stays allocated while this kind drains, so the transient
    /// charge must carry it too.
    fn spill_kind<K: Key>(
        &mut self,
        acc: &mut CountAcc<K>,
        other_resident: u64,
    ) -> Result<(), SpillError> {
        let before = acc.memory_bytes() as u64;
        let entries = acc.finalize();
        if entries.is_empty() {
            return Ok(());
        }
        // The drain's transient peak: retained raw-buffer capacity plus
        // the drained vector plus the writer's bounded buffer, on top
        // of whatever the sibling accumulator is holding.
        let entry_bytes = (entries.len() * std::mem::size_of::<(K, u32)>()) as u64;
        self.charge(other_resident + before.max(acc.memory_bytes() as u64 + entry_bytes));
        let seq = K::runs(self).len();
        let path = self.dir.join(format!("rank{:05}.{}{seq:04}.run", self.rank, K::NAME));
        let meta = write_run(&path, &entries, DEFAULT_SPILL_BUF_BYTES)?;
        K::runs(self).push(path);
        self.spill_runs += 1;
        self.spill_bytes += meta.file_bytes;
        Ok(())
    }

    /// Materialize the final pruned spectra ([`OocBuild::materialize`]
    /// per kind, k-mers first), after one last drain of every kind that
    /// spilled. Fills the spill counters and `merge_ns` of `stats`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_spectra(
        &mut self,
        acc_kmers: &mut CountAcc<u64>,
        acc_tiles: &mut CountAcc<u128>,
        params: &ReptileParams,
        stats: &mut BuildStats,
    ) -> Result<(KmerSpectrum, TileSpectrum), SpillError> {
        // A failure deferred from the batch loop aborts here, before
        // any table is built.
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        // Final drain: a kind that spilled before must ship its tail as
        // one last run so the merge sees every count.
        if !self.kmer_runs.is_empty() {
            self.spill_kind(acc_kmers, acc_tiles.memory_bytes() as u64)?;
            // No next batch is coming: return the drain buffers so the
            // merge's headroom is not eaten by dead capacity.
            acc_kmers.release_buffers();
        }
        if !self.tile_runs.is_empty() {
            self.spill_kind(acc_tiles, acc_kmers.memory_bytes() as u64)?;
            acc_tiles.release_buffers();
        }
        // Fault composition: the `chop=` plan truncates this rank's
        // first run file — k-mer if one exists, tile otherwise (the
        // selective spill can leave a light kind entirely in memory) —
        // before the merge opens (and verifies) it.
        if let Some(keep) = self.chop {
            if let Some(first) = self.kmer_runs.first().or_else(|| self.tile_runs.first()) {
                mpisim::chop_file(first, keep)
                    .map_err(|source| SpillError::Io { path: first.clone(), source })?;
            }
        }

        let t_merge = Instant::now();
        let kmer_table =
            self.materialize(acc_kmers, params.kmer_threshold, acc_tiles.memory_bytes() as u64)?;
        // The k-mer table stays resident while the tile merge runs, so
        // every tile-phase charge carries it.
        let tile_table =
            self.materialize(acc_tiles, params.tile_threshold, kmer_table.memory_bytes() as u64)?;
        stats.merge_ns += t_merge.elapsed().as_nanos() as u64;
        stats.spill_runs = self.spill_runs;
        stats.spill_bytes = self.spill_bytes;
        stats.ooc_peak_bytes = self.peak_bytes;

        // The runs are merged; return their disk space.
        for p in self.kmer_runs.drain(..).chain(self.tile_runs.drain(..)) {
            let _ = std::fs::remove_file(p);
        }
        let kcodec = params.kmer_codec();
        let tcodec = params.tile_codec();
        Ok((
            KmerSpectrum::from_table(kcodec, params.canonical, kmer_table),
            TileSpectrum::from_table(tcodec, params.canonical, tile_table),
        ))
    }

    /// Materialize one kind's pruned table. A direct kind streams its
    /// array straight in; a kind that never spilled takes the in-memory
    /// finalize path verbatim (zero IO); a spilled kind runs the two-pass
    /// k-way merge — pass 1 counts post-prune survivors (fixing the table
    /// geometry exactly as the in-memory `reserve` does), pass 2 streams
    /// them into the table. `other_resident` is what stays allocated
    /// meanwhile (the sibling accumulator, or the finished k-mer table)
    /// and is charged on top of every transient.
    fn materialize<K: Key>(
        &mut self,
        acc: &mut CountAcc<K>,
        threshold: u32,
        other_resident: u64,
    ) -> Result<FlatTable<K>, SpillError> {
        let entry = std::mem::size_of::<(K, u32)>();
        let mut t = FlatTable::new();
        if acc.is_direct() {
            // A direct kind never spilled: its array is already the
            // sorted aggregation, so stream it straight into the table
            // — exact survivor reserve, chunk-bounded transient, zero
            // IO.
            debug_assert!(K::runs(self).is_empty());
            let survivors = acc.iter_direct().filter(|&(_, c)| c >= threshold).count();
            let chunk = self.stream_chunk::<K>();
            t.bulk_load_sorted_stream(
                survivors,
                chunk,
                acc.iter_direct().filter(|&(_, c)| c >= threshold),
            );
            self.charge((chunk * entry) as u64 + t.memory_bytes() as u64 + other_resident);
        } else if K::runs(self).is_empty() {
            let mut entries = acc.finalize();
            acc.release_buffers();
            entries.retain(|&(_, c)| c >= threshold);
            self.charge(
                (entries.len() * entry) as u64
                    + FlatTable::<K>::bytes_for_entries(entries.len()) as u64
                    + other_resident,
            );
            t.reserve(entries.len());
            t.merge_sorted(&entries);
        } else {
            let runs = K::runs(self).clone();
            let survivors = self.count_survivors::<K>(&runs, threshold, other_resident)?;
            let mut merger = self.open_merger::<K>(&runs, threshold)?;
            t.bulk_load_sorted_stream(
                survivors,
                self.stream_chunk::<K>(),
                std::iter::from_fn(|| merger.next().expect("verified spill run failed mid-merge")),
            );
            self.charge(
                self.merge_overhead::<K>(runs.len()) + t.memory_bytes() as u64 + other_resident,
            );
        }
        Ok(t)
    }

    /// Per-run reader buffer for a `k`-way merge: the readers together
    /// get at most a quarter of the budget headroom, clamped to the
    /// run format's floor. A floor-budget build that spilled many runs
    /// merges with small buffers instead of blowing `k * 64 KiB` past
    /// the budget.
    fn reader_buf(&self, k: usize) -> usize {
        ((self.headroom / 4) as usize / k.max(1))
            .clamp(MIN_SPILL_BUF_BYTES, DEFAULT_SPILL_BUF_BYTES)
    }

    /// Streaming bulk-load chunk for a merge pass: at most a quarter of
    /// the budget headroom staged at once (and never more than
    /// [`STREAM_CHUNK_ENTRIES`]), so readers + chunk together stay
    /// within half the headroom and the other half is left for the
    /// tables being built.
    fn stream_chunk<K: SpectrumKey>(&self) -> usize {
        let entry = std::mem::size_of::<(K, u32)>();
        ((self.headroom / 4) as usize / entry).clamp(MIN_STREAM_CHUNK_ENTRIES, STREAM_CHUNK_ENTRIES)
    }

    /// Accounted transient bytes of a `k`-way merge pass: per-run
    /// reader buffers plus the stream chunk.
    fn merge_overhead<K: SpectrumKey>(&self, k: usize) -> u64 {
        (k * self.reader_buf(k)) as u64
            + (self.stream_chunk::<K>() * std::mem::size_of::<(K, u32)>()) as u64
    }

    /// Pass 1: fold + prune the runs, counting survivors (the table
    /// geometry input). Every run is checksum-verified on open, so a
    /// chopped or flipped file is a typed error here, before any table
    /// exists.
    fn count_survivors<K: SpectrumKey>(
        &mut self,
        runs: &[PathBuf],
        threshold: u32,
        resident: u64,
    ) -> Result<usize, SpillError> {
        let mut merger = self.open_merger::<K>(runs, threshold)?;
        let mut n = 0usize;
        while merger.next()?.is_some() {
            n += 1;
        }
        self.charge(self.merge_overhead::<K>(runs.len()) + resident);
        Ok(n)
    }

    /// Open (and thereby fully verify) every run and build the merger.
    fn open_merger<K: SpectrumKey>(
        &self,
        runs: &[PathBuf],
        threshold: u32,
    ) -> Result<RunMerger<K>, SpillError> {
        let buf = self.reader_buf(runs.len());
        let readers =
            runs.iter().map(|p| RunReader::open(p, buf)).collect::<Result<Vec<_>, _>>()?;
        RunMerger::new(readers, threshold)
    }
}
