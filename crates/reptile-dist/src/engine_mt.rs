//! The threaded distributed engine — paper Step IV on real threads.
//!
//! "Each rank at the beginning of this step forks two separate threads —
//! one thread is responsible for the error correction of the reads in its
//! part of the file, while the other thread acts as a communication
//! thread. ... Once all the ranks have finished their error correction
//! step, each rank shuts down its communication threads and outputs the
//! reads it has corrected" (paper §III step IV).
//!
//! Lifecycle: one copy serves batch runs and the serve plane alike.
//! `obtain_tables` loads a snapshot or builds the spectrum;
//! `with_service_plane` forks the communication thread, hands a job
//! source a lookup router, and runs the termination protocol below when
//! the job returns. The job sources are a batch rank's fixed chunks,
//! its chunk-steal queue, and the serve plane's admission queue.
//!
//! Termination: when a rank's worker drains its reads it enters a
//! barrier with every other worker; once the barrier completes no rank
//! can issue another first-hand lookup, so each worker raises a shutdown
//! flag for its own communication thread. The comm thread polls its
//! mailbox with a short deadline, drains any straggling (duplicated)
//! requests, and exits on the first quiet poll after the flag is up.
//! Unlike a DONE-counting protocol this cannot hang when a fault plan
//! severs a rank's message plane: the barrier is a collective, and
//! collectives stay reliable under every fault except a stall.
//!
//! Reliability: the worker's lookups go through the shared
//! `LookupRouter` (`router.rs`), which stamps a round's requests with
//! consecutive sequence numbers and drives the deadline/retry/degrade
//! protocol, one await per round and attempt; this module supplies its
//! wire side, `WireTransport`. A retried request is resent under the
//! *same* sequence number, which its response echoes, so duplicated
//! requests are idempotent and a reply is placed by its number alone:
//! stale replies (outside the round) and duplicates (already answered)
//! are discarded. With no faults injected the protocol is pure
//! overhead-free bookkeeping: the output is bit-identical to a run
//! without it.

use crate::balance::{owner_volume_histogram, select_hot_owners, shuffle_reads, sum_histograms};
use crate::engine::{Engine, EngineConfig, EngineError, RunOutput, ThreadedEngine};
use crate::ooc::OocBuild;
use crate::owner::OwnerMap;
use crate::protocol::{
    decode_response, decode_steal_ack, decode_steal_request, encode_batch_request, encode_response,
    encode_steal_ack, encode_steal_request, BatchRequest, BatchResponse, LookupRequest,
    StealResponse, TAG_BATCH_REQ, TAG_BATCH_RESP, TAG_KMER_REQ, TAG_RESP, TAG_STEAL_ACK,
    TAG_STEAL_REQ, TAG_STEAL_RESP, TAG_TILE_REQ, TAG_UNIVERSAL,
};
use crate::report::{LookupStats, RankReport, RunReport};
use crate::router::{
    owner_batch, owner_count, LookupRouter, Pending, Reply, Request, RouterScratch, Tiers,
    Transport,
};
use crate::snapshot;
use crate::spectrum::{
    build_distributed, build_distributed_spillable, derive_heuristic_tables, replicate_hot_shards,
    scan_nonowned_keys, BuildStats, RankTables,
};
use dnaseq::{FxHashMap, Read};
use mpisim::{Comm, Message, Source, Universe};
use reptile::spectrum::{KmerSpectrum, TileSpectrum};
use reptile::CorrectionStats;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_build_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A process- and run-unique temp directory for one rank's spill runs.
/// Ranks could share a directory (file names embed the rank), but
/// per-rank dirs make cleanup a local `remove_dir_all` with no
/// coordination.
fn ooc_spill_dir(rank: usize) -> std::path::PathBuf {
    use std::sync::atomic::AtomicU64;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("reptile-ooc-{}-{seq}-r{rank:05}", std::process::id()))
}

impl Engine for ThreadedEngine {
    fn name(&self) -> &'static str {
        "mt"
    }

    /// Reads are dealt to ranks in contiguous slices, mimicking the
    /// byte-offset file partitioning of Step I.
    fn try_run(&self, cfg: &EngineConfig, reads: &[Read]) -> Result<RunOutput, EngineError> {
        run_universe(cfg, |comm| {
            let (me, np) = (comm.rank(), comm.size());
            Ok(reads[reads.len() * me / np..reads.len() * (me + 1) / np].to_vec())
        })
    }

    /// Each rank reads its own byte-offset slice of the files — the
    /// paper's Step I.
    fn try_run_files(
        &self,
        cfg: &EngineConfig,
        fasta: &Path,
        qual: &Path,
    ) -> Result<RunOutput, EngineError> {
        run_universe(cfg, |comm| {
            // Read this rank's slice before any collective, so an IO
            // failure on one rank can abort the whole universe without
            // deadlocking peers inside a collective.
            let mine = genio::PartitionedReader::open(fasta, qual, comm.size(), comm.rank())
                .and_then(|mut part| part.read_all());
            let failed = comm.allreduce_max_u64(mine.is_err() as u64);
            match (failed, mine) {
                (0, Ok(mine)) => Ok(mine),
                (_, Err(e)) => Err(EngineError::Io(e)),
                (_, Ok(_)) => Err(EngineError::Io(genio::IoError::Malformed(
                    "aborted: input error on another rank".into(),
                ))),
            }
        })
    }
}

/// Both batch entry points: a universe of `cfg.np` ranks, each running
/// [`run_rank`] over the reads `reads_of` gives it, merged into one
/// output. `reads_of` must fail on every rank or on none.
fn run_universe(
    cfg: &EngineConfig,
    reads_of: impl Fn(&Comm) -> Result<Vec<Read>, EngineError> + Sync,
) -> Result<RunOutput, EngineError> {
    cfg.validate()?;
    let universe = Universe::new(cfg.np).with_fault_plan(cfg.fault);
    let per_rank = universe.run(|comm| run_rank(comm, reads_of(comm)?, cfg));
    Ok(assemble_output(root_cause(per_rank)?, cfg))
}

/// Collapse per-rank results to either every rank's payload or the
/// root-cause error. When one rank hits a real failure its peers abort
/// with sentinel errors ([`specstore::SnapshotError::PeerFailure`], or the
/// `aborted:`-prefixed input sentinel); prefer the rank that actually
/// failed so callers see the underlying cause.
pub(crate) fn root_cause<T>(per_rank: Vec<Result<T, EngineError>>) -> Result<Vec<T>, EngineError> {
    if per_rank.iter().any(|r| r.is_err()) {
        let mut fallback = None;
        for r in per_rank {
            if let Err(e) = r {
                let sentinel = match &e {
                    EngineError::Snapshot(specstore::SnapshotError::PeerFailure { .. })
                    | EngineError::Spill(specstore::SnapshotError::PeerFailure { .. }) => true,
                    EngineError::Io(genio::IoError::Malformed(m)) => m.starts_with("aborted:"),
                    _ => false,
                };
                if !sentinel {
                    return Err(e);
                }
                fallback = Some(e);
            }
        }
        return Err(fallback.expect("checked any(is_err)"));
    }
    Ok(per_rank.into_iter().map(|r| r.expect("checked no errors")).collect())
}

fn assemble_output(per_rank: Vec<(Vec<Read>, RankReport)>, cfg: &EngineConfig) -> RunOutput {
    let mut corrected = Vec::new();
    let mut ranks = Vec::with_capacity(per_rank.len());
    for (reads, report) in per_rank {
        corrected.extend(reads);
        ranks.push(report);
    }
    corrected.sort_unstable_by_key(|r| r.id);
    // Chunk stealing under a fault plan is at-least-once: a victim
    // re-adopts a handed-out chunk whose ACK never arrived, so a read can
    // be corrected on two ranks. Both corrections are byte-identical
    // (same global tables), so collapsing by id restores exactly-once
    // output. A no-op on every other run (ids are unique).
    corrected.dedup_by_key(|r| r.id);
    RunOutput { corrected, report: RunReport { ranks, topology: cfg.topology, cost: cfg.cost } }
}

/// A batch rank's pipeline: shuffle, obtain the tables, replicate hot
/// shards, save a snapshot, then correct its reads (fixed chunks, or the
/// steal queue) inside the service plane.
///
/// Fails only through the snapshot and spill paths; a failure on any
/// rank is collectively agreed inside them, so every rank returns `Err`
/// together and no rank is left stranded in a later collective.
fn run_rank(
    comm: &Comm,
    initial_reads: Vec<Read>,
    cfg: &EngineConfig,
) -> Result<(Vec<Read>, RankReport), EngineError> {
    let me = comm.rank();
    let t0 = Instant::now();

    // --- load balancing shuffle (per chunk, §III-A); the chunks move
    // through it, so the rank never holds a read twice ---
    let my_reads: Vec<Read> = if cfg.heuristics.load_balance {
        let mut mine = Vec::new();
        let n_chunks = initial_reads.len().div_ceil(cfg.chunk_size).max(1) as u64;
        let max_chunks = comm.allreduce_max_u64(n_chunks);
        let mut chunks = into_chunks(initial_reads, cfg.chunk_size);
        for _ in 0..max_chunks {
            mine.extend(shuffle_reads(comm, chunks.next().unwrap_or_default()));
        }
        mine.sort_unstable_by_key(|r| r.id);
        mine
    } else {
        initial_reads
    };

    let (mut tables, mut build_stats, snapshot_load_secs, snapshot_bytes_read, repair) =
        obtain_tables(comm, cfg, &my_reads)?;

    // --- adaptive balancing: detect skew and replicate the hot shards ---
    if cfg.heuristics.hot_shard_k > 0 && comm.size() > 1 {
        let hist = owner_volume_histogram(&my_reads, &tables.owners);
        let global = sum_histograms(&comm.allgatherv(hist));
        let hot = select_hot_owners(&global, cfg.heuristics.hot_shard_k);
        // `hot` comes out of the same global histogram on every rank, so
        // this branch (and its collectives) is collectively uniform.
        if hot.iter().any(|&h| h) {
            replicate_hot_shards(comm, &mut tables, &hot, &mut build_stats);
        }
    }
    comm.barrier();
    let construct_secs = t0.elapsed().as_secs_f64();

    // --- snapshot save: persist the pruned owned spectra for later runs ---
    let mut snapshot_save_secs = 0.0;
    let mut snapshot_bytes_written = 0u64;
    if let Some(dir) = &cfg.save_spectrum {
        let t_save = Instant::now();
        snapshot_bytes_written = snapshot::save_snapshot(
            comm,
            dir,
            &cfg.params,
            cfg.parity,
            &tables.kmers.owned,
            &tables.tiles.owned,
        )?;
        snapshot_save_secs = t_save.elapsed().as_secs_f64();
    }

    // --- Step IV: correction with a communication thread ---
    let t1 = Instant::now();
    // Exact bytes of every resident spectrum table, measured before the
    // tables are moved into the access chain (cache_remote can grow the
    // reads tables during correction; construction-time footprint is what
    // Fig 5 compares).
    let spectrum_bytes = tables.memory_bytes();
    // the worker owns (and `cache_remote` grows) the reads tables
    let reads_tables = (tables.kmers.reads.take(), tables.tiles.reads.take());
    let mut corrected = my_reads;
    let mut correction = CorrectionStats::default();
    // --- chunk stealing setup: share the work queue with the comm
    // thread, and allgather initial loads so thieves target the most
    // loaded victims first ---
    let chunk_unit = cfg.chunk_size.max(1);
    let want_steal = cfg.heuristics.steal_chunks && comm.size() > 1;
    let loads: Vec<u64> = if want_steal {
        let mine = corrected.len().div_ceil(chunk_unit) as u64;
        comm.allgatherv(vec![mine]).into_iter().map(|v| v[0]).collect()
    } else {
        Vec::new()
    };
    // Every rank sees the same allgathered loads, so the gate decision is
    // collectively uniform: either all ranks run the steal protocol or
    // none do. A balanced shuffle runs exactly the static path.
    let steal_mode = want_steal && crate::balance::steal_worth_it(&loads);
    let steal_state =
        steal_mode.then(|| Mutex::new(StealState::new(std::mem::take(&mut corrected), chunk_unit)));
    let (lookups, comm_secs) =
        with_service_plane(comm, &tables, cfg, steal_state.as_ref(), |router| {
            (router.tiers.kmers.reads, router.tiers.tiles.reads) = reads_tables;
            let mut correct = |router: &mut LookupRouter<WireTransport>, chunk: &mut [Read]| {
                router.correct_chunk(chunk, &cfg.params, |_, o, _| correction.absorb(&o));
            };
            let Some(state) = &steal_state else {
                // aggregate mode fetches per chunk; base mode does not care
                for chunk in corrected.chunks_mut(chunk_unit) {
                    correct(router, chunk);
                }
                return;
            };
            // own queue first: pop chunks off the front while the comm
            // thread hands the back out to thieves. Never hold the lock
            // while correcting — the comm thread must stay responsive.
            loop {
                let chunk = state.lock().expect("steal lock").pop_front();
                let Some(mut chunk) = chunk else { break };
                correct(router, &mut chunk);
                corrected.extend(chunk);
            }
            // At-least-once under faults: a handed-out chunk whose ACK
            // never arrived may have been lost in flight — re-adopt and
            // correct it here. If the thief did receive it, both copies
            // are identical and the id-ordered merge dedups them.
            if !cfg.fault.is_none() {
                let adopted: Vec<Vec<Read>> = {
                    let mut st = state.lock().expect("steal lock");
                    st.handed_out.drain(..).map(|(_, _, c)| c).collect()
                };
                for mut chunk in adopted {
                    correct(router, &mut chunk);
                    corrected.extend(chunk);
                }
            }
            // thief phase: sweep the other ranks, most-loaded first;
            // each victim's queue only shrinks, so one sweep that drains
            // every victim to "nothing left" is complete.
            let mut victims: Vec<usize> =
                (0..comm.size()).filter(|&r| r != me && loads[r] > 0).collect();
            victims.sort_by_key(|&r| (std::cmp::Reverse(loads[r]), r));
            for victim in victims {
                while let Some(mut chunk) = router.steal_from(victim) {
                    correct(router, &mut chunk);
                    corrected.extend(chunk);
                }
            }
        });
    let correct_secs = t1.elapsed().as_secs_f64();

    let report = RankReport {
        rank: me,
        reads_processed: corrected.len() as u64,
        build: build_stats,
        correction,
        lookups,
        construct_secs,
        correct_secs,
        comm_secs,
        memory_bytes: cfg.cost.rank_memory_bytes_measured(spectrum_bytes),
        snapshot_bytes_read,
        snapshot_bytes_written,
        snapshot_load_secs,
        snapshot_save_secs,
        repair,
    };
    Ok((corrected, report))
}

/// Steps II–III of one rank, or the snapshot load that skips them:
/// returns the tables, their build counters, the load's wall seconds,
/// the snapshot bytes read and the repair it took (the last three zero
/// on a build). `reads` feeds the build, and the reads-table key rescan
/// of a snapshot load under `keep_read_tables`.
pub(crate) fn obtain_tables(
    comm: &Comm,
    cfg: &EngineConfig,
    reads: &[Read],
) -> Result<(RankTables, BuildStats, f64, u64, specstore::RepairStats), EngineError> {
    let me = comm.rank();
    if let Some(dir) = &cfg.load_spectrum {
        let t_load = Instant::now();
        let chop = cfg.fault.snapshot_chop_for(me);
        let loaded = snapshot::load_snapshot(comm, dir, &cfg.params, cfg.recovery, chop)?;
        // The owned tables came off disk already pruned; only the
        // heuristic-derived side tables remain to be built. The
        // reads-table *key sets* were never persisted (their counts
        // are global in the loaded tables), so rescan for them when
        // keep_read_tables asks.
        let owners = OwnerMap::new(comm.size(), &cfg.params);
        let (kmer_keys, tile_keys) = if cfg.heuristics.keep_read_tables {
            (scan_nonowned_keys(reads, &owners, me), scan_nonowned_keys(reads, &owners, me))
        } else {
            (Vec::new(), Vec::new())
        };
        let (tables, stats) = derive_heuristic_tables(
            comm,
            owners,
            &cfg.heuristics,
            loaded.kmers,
            loaded.tiles,
            kmer_keys,
            tile_keys,
            BuildStats::default(),
        );
        Ok((tables, stats, t_load.elapsed().as_secs_f64(), loaded.bytes_read, loaded.repair))
    } else if let Some(budget) = cfg.memory_budget {
        // Out-of-core build: run files live in a per-rank temp dir
        // for the duration of the build. The `chop=` fault plan
        // composes with the spill plane here — with no snapshot in
        // play, the chopped file is this rank's first k-mer run.
        let dir = ooc_spill_dir(me);
        std::fs::create_dir_all(&dir)
            .map_err(|source| EngineError::Spill(specstore::SnapshotError::io(&dir, source)))?;
        let chop = cfg.fault.snapshot_chop_for(me);
        let mut ooc = OocBuild::new(budget, dir.clone(), me, chop, &cfg.params);
        let built = build_distributed_spillable(
            comm,
            reads,
            cfg.chunk_size,
            &cfg.params,
            &cfg.heuristics,
            cfg.build_threads.max(1),
            Some(&mut ooc),
        );
        let _ = std::fs::remove_dir_all(&dir);
        let (tables, stats) = built.map_err(EngineError::Spill)?;
        Ok((tables, stats, 0.0, 0, Default::default()))
    } else {
        let (tables, stats) = build_distributed(
            comm,
            reads,
            cfg.chunk_size,
            &cfg.params,
            &cfg.heuristics,
            cfg.build_threads.max(1),
        );
        Ok((tables, stats, 0.0, 0, Default::default()))
    }
}

/// Step IV's service plane around one job source. Spawns this rank's
/// [`comm_thread`] (unless `needs_service_plane` rules the plane out),
/// hands `job` a wire router over `tables`, and once the job returns
/// runs the termination protocol: the end-of-correction barrier, then
/// the shutdown flag, then the join. Returns the router's lookup
/// counters with the comm thread's serve counts folded in, and the
/// worker's wire seconds. `steal` is the queue the comm thread hands
/// chunks out of under chunk stealing.
pub(crate) fn with_service_plane<'a>(
    comm: &'a Comm,
    tables: &'a RankTables,
    cfg: &EngineConfig,
    steal: Option<&Mutex<StealState>>,
    job: impl FnOnce(&mut LookupRouter<'a, WireTransport<'a>>),
) -> (LookupStats, f64) {
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Fully replicated (or whole-universe partial-group) runs never
        // touch the p2p service plane; they run no comm thread.
        let server = cfg.heuristics.needs_service_plane(comm.size()).then(|| {
            s.spawn(|| {
                comm_thread(
                    comm,
                    &tables.kmers.owned,
                    &tables.tiles.owned,
                    cfg.heuristics.universal,
                    steal,
                    &shutdown,
                )
            })
        });
        let mut router = LookupRouter::over_wire(comm, tables, cfg);
        job(&mut router);
        // Once every worker has passed this barrier no rank can issue a
        // new first-hand request; anything still in a mailbox (delayed
        // duplicates) is drained by the servers before they exit.
        comm.barrier();
        shutdown.store(true, Ordering::Release);
        let served = server.map_or_else(ServedCounts::default, |server| {
            server.join().expect("comm thread panicked")
        });
        let mut lookups = router.stats;
        lookups.requests_served = served.keys;
        lookups.batches_served = served.batches;
        (lookups, router.transport.comm_secs)
    })
}

/// The shared work queue of chunk stealing: the rank's own worker pops
/// chunks off the *front* while the comm thread hands the *back* out to
/// thieving ranks. One mutex guards the cursors, so a chunk is taken by
/// exactly one side; the lock is never held across a correction or a
/// blocking receive.
pub(crate) struct StealState {
    /// Read chunks still to correct; `None` slots were taken.
    chunks: Vec<Option<Vec<Read>>>,
    /// Front cursor — the worker's next chunk.
    next: usize,
    /// Back boundary — steals decrement it; queue is empty when
    /// `next >= end`.
    end: usize,
    /// Handed-out, not-yet-ACKed chunks as `(thief, seq, reads)`. Under
    /// a fault plan the worker re-adopts these before the final barrier
    /// (at-least-once); fault-free they are dropped at exit, because the
    /// response is guaranteed delivered.
    handed_out: Vec<(usize, u64, Vec<Read>)>,
    /// Encoded responses by `(thief, seq)`: a retried request is answered
    /// with the **same** payload, so no chunk is ever handed to two
    /// thieves through a resend.
    served: FxHashMap<(usize, u64), Vec<u8>>,
}

impl StealState {
    fn new(reads: Vec<Read>, chunk_size: usize) -> StealState {
        let chunks: Vec<Option<Vec<Read>>> = into_chunks(reads, chunk_size).map(Some).collect();
        let end = chunks.len();
        StealState { chunks, next: 0, end, handed_out: Vec::new(), served: FxHashMap::default() }
    }

    /// Worker side: take the next chunk from the front.
    fn pop_front(&mut self) -> Option<Vec<Read>> {
        if self.next >= self.end {
            return None;
        }
        let chunk = self.chunks[self.next].take();
        self.next += 1;
        chunk
    }

    /// Steal side: take a whole chunk off the back.
    fn steal_back(&mut self) -> Option<Vec<Read>> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        self.chunks[self.end].take()
    }
}

/// Split `reads` into consecutive chunks of `chunk_size` (at least 1),
/// moving every read into its chunk rather than copying it.
fn into_chunks(reads: Vec<Read>, chunk_size: usize) -> impl Iterator<Item = Vec<Read>> {
    let mut reads = reads.into_iter();
    std::iter::from_fn(move || {
        let chunk: Vec<Read> = reads.by_ref().take(chunk_size.max(1)).collect();
        (!chunk.is_empty()).then_some(chunk)
    })
}

/// Serve counters returned by [`comm_thread`].
#[derive(Clone, Copy, Debug, Default)]
struct ServedCounts {
    /// Lookups answered, counted per key (singles plus every key inside
    /// a batch) so base and aggregate modes stay comparable.
    keys: u64,
    /// Batched requests answered.
    batches: u64,
}

/// How long the comm thread waits on an empty mailbox before re-checking
/// its shutdown flag. Arrival unparks the wait immediately, so this
/// bounds only shutdown latency, not serving latency.
const SERVER_POLL: Duration = Duration::from_millis(1);

/// Most replies the comm thread holds back before handing them over, so
/// a requester's first reply waits for at most this many lookups of its
/// backlog, not the whole of it, and a lookup deadline need not cover
/// an owner's full per-requester backlog.
const REPLY_RUN: usize = 256;

/// The communication thread: serve k-mer/tile count lookups against the
/// *owned* tables until this rank's worker raises `shutdown` after the
/// end-of-correction barrier. Requesters normalize keys before sending,
/// so serving assumes the wire keys are spectrum keys. The server is
/// stateless and idempotent: a duplicated or retried request is simply
/// answered again, echoing its sequence number. It takes one
/// requester's whole backlog at a time and hands the answers back in
/// sends of up to [`REPLY_RUN`] replies, so one requester's backlog never
/// delays another's reply, and its first reply waits for one run only.
fn comm_thread(
    comm: &Comm,
    hash_kmers: &KmerSpectrum,
    hash_tiles: &TileSpectrum,
    universal: bool,
    steal: Option<&Mutex<StealState>>,
    shutdown: &AtomicBool,
) -> ServedCounts {
    let mut req_tags: Vec<u32> = if universal {
        vec![TAG_UNIVERSAL, TAG_BATCH_REQ]
    } else {
        vec![TAG_KMER_REQ, TAG_TILE_REQ, TAG_BATCH_REQ]
    };
    if steal.is_some() {
        req_tags.extend([TAG_STEAL_REQ, TAG_STEAL_ACK]);
    }
    let mut served = ServedCounts::default();
    let mut inbox = Vec::new();
    let mut replies = Vec::new();
    loop {
        if comm.drain_tags_deadline(Source::Any, &req_tags, SERVER_POLL, &mut inbox) == 0 {
            if shutdown.load(Ordering::Acquire) {
                return served;
            }
            continue;
        }
        let src = inbox[0].src;
        for msg in inbox.drain(..) {
            if let Some(reply) = serve(&msg, hash_kmers, hash_tiles, steal, &mut served) {
                replies.push(reply);
                if replies.len() == REPLY_RUN {
                    comm.send_many(src, &mut replies);
                }
            }
        }
        if !replies.is_empty() {
            comm.send_many(src, &mut replies);
        }
    }
}

/// The comm thread's answer to one request from `msg.src`, as a
/// `(tag, payload)` frame; `None` for a steal ACK, which only updates
/// the steal state.
fn serve(
    msg: &Message,
    hash_kmers: &KmerSpectrum,
    hash_tiles: &TileSpectrum,
    steal: Option<&Mutex<StealState>>,
    served: &mut ServedCounts,
) -> Option<(u32, Vec<u8>)> {
    match msg.tag {
        TAG_STEAL_REQ => {
            let state = steal.expect("steal tag received without steal state");
            let seq = decode_steal_request(&msg.payload);
            let mut st = state.lock().expect("steal lock");
            let payload = match st.served.get(&(msg.src, seq)) {
                Some(p) => p.clone(),
                None => {
                    let resp = StealResponse { chunk: st.steal_back() };
                    let (_, p) = resp.encode(seq);
                    if let Some(reads) = resp.chunk {
                        st.handed_out.push((msg.src, seq, reads));
                    }
                    st.served.insert((msg.src, seq), p.clone());
                    p
                }
            };
            Some((TAG_STEAL_RESP, payload))
        }
        TAG_STEAL_ACK => {
            let state = steal.expect("steal tag received without steal state");
            let seq = decode_steal_ack(&msg.payload);
            let mut st = state.lock().expect("steal lock");
            st.handed_out.retain(|(src, s, _)| !(*src == msg.src && *s == seq));
            None
        }
        TAG_BATCH_REQ => {
            // one sweep over the owned tables answers the whole batch
            let (seq, req) = BatchRequest::decode(&msg.payload);
            let resp = owner_batch(&req.kmers, &req.tiles, hash_kmers, hash_tiles);
            served.keys += req.len() as u64;
            served.batches += 1;
            Some(resp.encode(seq))
        }
        tag => {
            let (seq, req) = LookupRequest::decode(tag, &msg.payload);
            served.keys += 1;
            Some((TAG_RESP, encode_response(seq, owner_count(req, hash_kmers, hash_tiles))))
        }
    }
}

/// The reply tags a worker awaits: single-key, batch and steal replies.
const REPLY_TAGS: [u32; 3] = [TAG_RESP, TAG_BATCH_RESP, TAG_STEAL_RESP];

/// The wire side of the lookup router: requests encoded into
/// per-destination outboxes, handed to the [`Comm`] one send per owner
/// when the worker next awaits its round; replies placed in the round by
/// the sequence number they echo.
pub(crate) struct WireTransport<'a> {
    comm: &'a Comm,
    /// Single-key requests travel in the self-describing encoding.
    universal: bool,
    /// Base per-round deadline; `None` = block indefinitely (the
    /// fault-free fast path).
    lookup_deadline: Option<Duration>,
    /// Encoded requests not yet sent, per destination rank. Every router
    /// send is followed by an await, and an await flushes them all
    /// before it waits, so nothing waits on a request still queued here.
    outbox: Vec<Vec<(u32, Vec<u8>)>>,
    /// Replies taken by the last drain, decoded in place.
    inbox: Vec<Message>,
    /// Seconds spent flushing and waiting for replies.
    pub(crate) comm_secs: f64,
}

impl Transport for WireTransport<'_> {
    fn send(&mut self, to: usize, seq: u64, req: Request<'_>, _attempt: u32) {
        let frame = match req {
            Request::Key(key) if self.universal => key.encode_universal(seq),
            Request::Key(key) => key.encode_tagged(seq),
            Request::Batch { kmers, tiles } => encode_batch_request(seq, kmers, tiles),
            // a steal request is its seq header alone
            Request::Steal => (TAG_STEAL_REQ, encode_steal_request(seq)),
        };
        self.outbox[to].push(frame);
    }

    /// Hand every queued request to the mailbox, one send per owner, then
    /// drain the reply tags from every owner until each pending request
    /// is answered or the attempt's deadline passes with no reply to the
    /// round: the deadline bounds the round's silence, not its length, so
    /// replies still streaming back from a long round (or one slowed by
    /// delays) are not resent, while a dead owner costs the round one
    /// deadline. A reply outside the round (late, or to a request given
    /// up on) or to a request already answered (a duplicate) is dropped;
    /// so is a response to an earlier steal, since the victim's resend
    /// cache answers a retry with the same chunk. A steal reply is
    /// acknowledged as it is placed.
    fn recv(
        &mut self,
        pending: &[Pending<'_>],
        first: u64,
        replies: &mut [Option<Reply>],
        attempt: u32,
    ) {
        let start = Instant::now();
        for (to, frames) in self.outbox.iter_mut().enumerate() {
            if !frames.is_empty() {
                self.comm.send_many(to, frames);
            }
        }
        // the base deadline doubled per attempt, the shift capped so an
        // absurd budget cannot overflow it
        let deadline = self.lookup_deadline.map(|d| d.saturating_mul(1 << attempt.min(16)));
        let mut missing = pending.len();
        let mut last_reply = Instant::now();
        while missing > 0 {
            let left = deadline.map_or(Duration::MAX, |d| d.saturating_sub(last_reply.elapsed()));
            if self.comm.drain_tags_deadline(Source::Any, &REPLY_TAGS, left, &mut self.inbox) == 0 {
                break;
            }
            let before = missing;
            for msg in self.inbox.drain(..) {
                let (seq, reply) = match msg.tag {
                    TAG_RESP => {
                        let (seq, count) = decode_response(&msg.payload);
                        (seq, Reply::Count(count))
                    }
                    TAG_BATCH_RESP => {
                        let (seq, resp) = BatchResponse::decode(&msg.payload);
                        (seq, Reply::Batch(resp))
                    }
                    _ => {
                        let (seq, resp) = StealResponse::decode(&msg.payload);
                        (seq, Reply::Chunk(resp.chunk))
                    }
                };
                let slot = seq.checked_sub(first).and_then(|i| replies.get_mut(i as usize));
                // outside the round, or answered already: dropped
                let Some(slot) = slot.filter(|slot| slot.is_none()) else { continue };
                if let Reply::Chunk(_) = reply {
                    self.comm.send(msg.src, TAG_STEAL_ACK, encode_steal_ack(seq));
                }
                *slot = Some(reply);
                missing -= 1;
            }
            if missing < before {
                last_reply = Instant::now();
            }
        }
        self.comm_secs += start.elapsed().as_secs_f64();
    }
}

impl<'a> LookupRouter<'a, WireTransport<'a>> {
    /// The threaded engine's router over a rank's intact [`RankTables`] —
    /// also the serve plane's constructor. The reads tables stay `None`
    /// (a long-lived service has no fixed read set to scan, so the caller
    /// must have rejected `keep_read_tables`/`cache_remote` up front); a
    /// run moves its own in afterwards.
    pub(crate) fn over_wire(comm: &'a Comm, tables: &'a RankTables, cfg: &EngineConfig) -> Self {
        let transport = WireTransport {
            comm,
            universal: cfg.heuristics.universal,
            lookup_deadline: cfg.lookup_deadline,
            outbox: vec![Vec::new(); comm.size()],
            inbox: Vec::new(),
            comm_secs: 0.0,
        };
        let tiers = Tiers::of_tables(tables, comm.rank(), &cfg.heuristics);
        LookupRouter::new(tiers, transport, cfg, RouterScratch::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicConfig;
    use crate::owner::Key;
    use crate::spectrum::KindTables;
    use crate::test_data::{params, periodic_reads as dataset};
    use mpisim::FaultPlan;
    use reptile::ReptileParams;

    /// The owner of an unnormalized k-mer code.
    fn kmer_owner(owners: &OwnerMap, code: u64) -> usize {
        u64::owner(code.normalize(owners), owners)
    }

    #[test]
    fn replication_eliminates_messages() {
        let reads = dataset(40);
        let mut cfg = EngineConfig::new(3, params());
        cfg.heuristics = HeuristicConfig::replicate_both();
        let out = ThreadedEngine.run(&cfg, &reads);
        for r in &out.report.ranks {
            assert_eq!(r.lookups.remote_total(), 0, "rank {} messaged under replication", r.rank);
            assert_eq!(r.lookups.requests_served, 0);
        }
    }

    #[test]
    fn base_mode_does_message() {
        let reads = dataset(40);
        let cfg = EngineConfig::new(4, params());
        let out = ThreadedEngine.run(&cfg, &reads);
        let total_remote: u64 = out.report.ranks.iter().map(|r| r.lookups.remote_total()).sum();
        assert!(total_remote > 0, "distributed spectrum must trigger remote lookups");
        let total_served: u64 = out.report.ranks.iter().map(|r| r.lookups.requests_served).sum();
        assert_eq!(total_served, total_remote, "every request is served exactly once");
    }

    #[test]
    fn aggregation_cuts_messages() {
        let reads = dataset(60);
        let base_cfg = EngineConfig::new(4, params());
        let mut agg_cfg = EngineConfig::new(4, params());
        agg_cfg.heuristics.aggregate_lookups = true;
        let base = ThreadedEngine.run(&base_cfg, &reads);
        let agg = ThreadedEngine.run(&agg_cfg, &reads);
        let msgs = |out: &RunOutput| -> u64 {
            out.report.ranks.iter().map(|r| r.lookups.remote_messages).sum()
        };
        let (base_msgs, agg_msgs) = (msgs(&base), msgs(&agg));
        assert!(agg_msgs > 0, "np=4 still needs batch messages");
        assert!(
            base_msgs >= 5 * agg_msgs,
            "aggregation must cut request messages >= 5x (base {base_msgs}, agg {agg_msgs})"
        );

        // batch accounting: every batch sent is served exactly once, the
        // per-key serve count covers singles + batched keys, and the bulk
        // of lookups resolve from the fetched counts
        let sum = |f: &dyn Fn(&LookupStats) -> u64, out: &RunOutput| -> u64 {
            out.report.ranks.iter().map(|r| f(&r.lookups)).sum()
        };
        assert_eq!(sum(&|l| l.batches_sent, &agg), sum(&|l| l.batches_served, &agg));
        assert_eq!(
            sum(&|l| l.requests_served, &agg),
            sum(&|l| l.remote_total(), &agg) + sum(&|l| l.batched_keys, &agg)
        );
        assert!(sum(&|l| l.prefetch_hits, &agg) > 0);
        assert!(sum(&|l| l.batched_keys, &agg) > 0);
        // no over-fetch: the keys shipped in batches are at most the
        // lookups base mode sends one by one on the same reads
        let (agg_keys, base_lookups) =
            (sum(&|l| l.batched_keys, &agg), sum(&|l| l.remote_total(), &base));
        assert!(
            agg_keys <= base_lookups,
            "aggregation shipped {agg_keys} keys where base mode asked {base_lookups}"
        );
        assert_eq!(sum(&|l| l.batches_sent, &base), 0, "base mode must not batch");
        // in base mode every remote lookup is exactly one request message
        assert_eq!(base_msgs, sum(&|l| l.remote_total(), &base));
    }

    #[test]
    fn cache_remote_reduces_messages_on_second_pass() {
        // add-remote caches answers; within one pass repeated tiles from
        // overlapping reads should produce cache hits.
        let reads = dataset(60);
        let base_cfg = EngineConfig {
            chunk_size: 2000,
            heuristics: HeuristicConfig { keep_read_tables: true, ..Default::default() },
            build_threads: 2,
            ..EngineConfig::new(3, params())
        };
        let cache_cfg = EngineConfig {
            heuristics: HeuristicConfig {
                keep_read_tables: true,
                cache_remote: true,
                ..Default::default()
            },
            ..base_cfg.clone()
        };
        let base = ThreadedEngine.run(&base_cfg, &reads);
        let cached = ThreadedEngine.run(&cache_cfg, &reads);
        let base_remote: u64 = base.report.ranks.iter().map(|r| r.lookups.remote_total()).sum();
        let cached_remote: u64 = cached.report.ranks.iter().map(|r| r.lookups.remote_total()).sum();
        assert!(cached_remote <= base_remote);
        let hits: u64 = cached.report.ranks.iter().map(|r| r.lookups.cache_hits).sum();
        let base_hits: u64 = base.report.ranks.iter().map(|r| r.lookups.cache_hits).sum();
        assert!(hits >= base_hits, "caching cannot reduce hits");
    }

    #[test]
    fn load_balance_changes_assignment_not_output() {
        let reads = dataset(48);
        let balanced = EngineConfig::new(4, params());
        let mut imbalanced = EngineConfig::new(4, params());
        imbalanced.heuristics.load_balance = false;
        let out_b = ThreadedEngine.run(&balanced, &reads);
        let out_i = ThreadedEngine.run(&imbalanced, &reads);
        assert_eq!(out_b.corrected, out_i.corrected, "output invariant to balancing");
        // balanced mode spreads reads by hash: processed counts differ
        // from the contiguous split for this np with high probability
        let dist_b: Vec<u64> = out_b.report.ranks.iter().map(|r| r.reads_processed).collect();
        assert_eq!(dist_b.iter().sum::<u64>(), 48);
    }

    #[test]
    fn empty_and_tiny_datasets() {
        let cfg = EngineConfig::new(3, params());
        let out = ThreadedEngine.run(&cfg, &[]);
        assert!(out.corrected.is_empty());
        // fewer reads than ranks
        let reads = dataset(2);
        let out = ThreadedEngine.run(&cfg, &reads);
        assert_eq!(out.corrected.len(), 2);
    }

    /// Lossy faults with a retry budget: output stays bit-identical to
    /// the fault-free run and the retry counters light up. Fault
    /// decisions are seeded, so a passing grid is reproducible.
    #[test]
    fn retries_mask_message_faults_bit_identically() {
        let reads = dataset(36);
        let clean_cfg = EngineConfig::new(3, params());
        let clean = ThreadedEngine.run(&clean_cfg, &reads);
        let fault = FaultPlan::parse("seed=7,drop=0.15,dup=0.1,reorder=0.2").unwrap();
        let faulted_cfg = EngineConfig {
            fault,
            lookup_deadline: Some(Duration::from_millis(25)),
            retry_budget: 10,
            ..EngineConfig::new(3, params())
        };
        let faulted = ThreadedEngine.run(&faulted_cfg, &reads);
        assert_eq!(faulted.corrected, clean.corrected, "retries must mask lossy faults");
        let retried: u64 = faulted.report.ranks.iter().map(|r| r.lookups.requests_retried).sum();
        let degraded: u64 = faulted.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
        assert!(retried > 0, "drop=0.15 must trigger retries");
        assert_eq!(degraded, 0, "budget 10 must outlast drop=0.15");
    }

    /// Reordered batches in aggregate mode are placed by their sequence
    /// numbers without changing the output.
    #[test]
    fn aggregate_mode_survives_reordering() {
        let reads = dataset(36);
        let mut clean_cfg = EngineConfig::new(3, params());
        clean_cfg.heuristics.aggregate_lookups = true;
        clean_cfg.chunk_size = 7;
        let clean = ThreadedEngine.run(&clean_cfg, &reads);
        let faulted_cfg = EngineConfig {
            fault: FaultPlan::parse("seed=11,drop=0.1,dup=0.15,reorder=0.4").unwrap(),
            lookup_deadline: Some(Duration::from_millis(25)),
            retry_budget: 10,
            ..clean_cfg
        };
        let faulted = ThreadedEngine.run(&faulted_cfg, &reads);
        assert_eq!(faulted.corrected, clean.corrected);
        let degraded: u64 = faulted.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
        assert_eq!(degraded, 0);
    }

    /// The wire transport against a scripted owner: two batches of one
    /// fetch in flight to the same owner answered in reverse order, the
    /// early one twice; then a late duplicate of the first fetch ahead of
    /// the second fetch's answer; then a base-mode round of four
    /// single-key requests answered out of order, with a duplicate of a
    /// later reply and a late duplicate of an earlier one. Every key gets
    /// its own request's count, nothing retries and nothing degrades.
    #[test]
    fn wire_transport_matches_reordered_and_duplicated_batches_by_seq() {
        use crate::protocol::MAX_BATCH_KEYS;
        use mpisim::Message;
        use reptile::{PrefetchKeys, WaveSource};
        let p = ReptileParams { k: 12, tile_overlap: 6, ..ReptileParams::for_tests() };
        let owners = OwnerMap::new(2, &p);
        let keys: Vec<u64> =
            (0u64..).filter(|&c| kmer_owner(&owners, c) == 1).take(MAX_BATCH_KEYS + 10).collect();
        let count_of = |key: u64| (key % 7) as u32;
        let answer = |msg: &Message| {
            let (seq, req) = BatchRequest::decode(&msg.payload);
            let kmer_counts = req.kmers.iter().map(|&k| i64::from(count_of(k))).collect();
            BatchResponse { kmer_counts, tile_counts: Vec::new() }.encode(seq).1
        };
        let cfg = EngineConfig::new(2, p);
        Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                let from_worker = |tag| comm.recv(Source::Rank(0), mpisim::TagSel::Tag(tag));
                let (first, second) = (from_worker(TAG_BATCH_REQ), from_worker(TAG_BATCH_REQ));
                for msg in [&second, &second, &first] {
                    comm.send(0, TAG_BATCH_RESP, answer(msg));
                }
                let third = from_worker(TAG_BATCH_REQ);
                for msg in [&second, &third] {
                    comm.send(0, TAG_BATCH_RESP, answer(msg));
                }
                let singles: Vec<Message> = (0..4).map(|_| from_worker(TAG_KMER_REQ)).collect();
                for i in [3, 3, 1, 0, 1, 2] {
                    let (seq, req) = LookupRequest::decode(TAG_KMER_REQ, &singles[i].payload);
                    let LookupRequest::Kmer(key) = req else { unreachable!("k-mer request") };
                    comm.send(0, TAG_RESP, encode_response(seq, Some(count_of(key))));
                }
                return;
            }
            let tables = bare_tables(owners, &p);
            let mut router = LookupRouter::over_wire(comm, &tables, &cfg);
            let (wave1, wave2) = keys.split_at(MAX_BATCH_KEYS + 5);
            for wave in [wave1, wave2] {
                router.fetch(&mut PrefetchKeys { kmers: wave.to_vec(), tiles: Vec::new() });
                for &key in wave {
                    let got = router.fetched(1, LookupRequest::Kmer(key));
                    assert_eq!(got, Some(count_of(key)), "key {key}");
                }
            }
            for &key in &keys[..4] {
                assert_eq!(router.ask_kmer(key), None, "owned by rank 1: a request");
            }
            let mut answers = Vec::new();
            router.exchange(&mut answers);
            let want: Vec<Option<u32>> = keys[..4].iter().map(|&k| Some(count_of(k))).collect();
            assert_eq!(answers, want);
            let s = router.stats;
            assert_eq!((s.batches_sent, s.batched_keys), (3, keys.len() as u64));
            assert_eq!((s.remote_kmer_lookups, s.remote_messages), (4, 7));
            assert_eq!((s.requests_retried, s.deadline_misses, s.keys_degraded), (0, 0, 0));
        });
    }

    /// A rank's tables holding only `owners`, every spectrum empty.
    fn bare_tables(owners: OwnerMap, p: &ReptileParams) -> RankTables {
        RankTables {
            owners,
            kmers: KindTables::new(KmerSpectrum::new(p.kmer_codec(), p.canonical)),
            tiles: KindTables::new(TileSpectrum::new(p.tile_codec(), p.canonical)),
            hot_owners: Vec::new(),
        }
    }

    /// The hand-off is batched per owner, not per message: a base-mode
    /// round of R single-key requests to k owners takes k mailbox locks
    /// on the worker's send side and at most two per owner on its receive
    /// side (one, plus one if it had to park), and each owner's comm
    /// thread answers the round with one send; a lone request takes one
    /// lock each way. A backlog longer than [`REPLY_RUN`] is answered in
    /// runs of that many replies, so its first reply does not wait for
    /// the rest. Message counts stay one per request and per reply.
    #[test]
    fn a_base_round_takes_one_mailbox_lock_per_owner() {
        use reptile::WaveSource;
        let p = ReptileParams { k: 12, tile_overlap: 6, ..ReptileParams::for_tests() };
        let owners = OwnerMap::new(3, &p);
        let owned_by =
            |r: usize, n: usize| (0u64..).filter(move |&c| kmer_owner(&owners, c) == r).take(n);
        let mut keys: Vec<u64> = owned_by(1, 5).chain(owned_by(2, 3)).collect();
        keys.sort_unstable();
        let backlog: Vec<u64> = owned_by(1, REPLY_RUN + 1).collect();
        let mut all: Vec<u64> = backlog.iter().copied().chain(owned_by(2, 3)).collect();
        all.sort_unstable();
        let count_of = |key: u64| (key % 7) as u32 + 1;
        let cfg = EngineConfig::new(3, p);
        let stats = Universe::new(3).run(|comm| {
            let me = comm.rank();
            let mut tables = bare_tables(owners, &p);
            let held: Vec<(u64, u32)> = all
                .iter()
                .filter(|&&k| kmer_owner(&owners, k) == me)
                .map(|&k| (k, count_of(k)))
                .collect();
            tables.kmers.owned.merge_sorted(&held);
            let shutdown = AtomicBool::new(false);
            let mut rounds = Vec::new();
            // Not `with_service_plane`: a rank-0 server's polls would add to the recv locks below
            std::thread::scope(|s| {
                let server = (me != 0).then(|| {
                    s.spawn(|| {
                        comm_thread(
                            comm,
                            &tables.kmers.owned,
                            &tables.tiles.owned,
                            false,
                            None,
                            &shutdown,
                        )
                    })
                });
                if me == 0 {
                    let mut router = LookupRouter::over_wire(comm, &tables, &cfg);
                    for round in [&keys[..], &keys[..1], &backlog[..]] {
                        let before = comm.stats();
                        for &key in round {
                            assert_eq!(router.ask_kmer(key), None, "not resident: a request");
                        }
                        let mut answers = Vec::new();
                        router.exchange(&mut answers);
                        let want: Vec<_> = round.iter().map(|&k| Some(count_of(k))).collect();
                        assert_eq!(answers, want);
                        let after = comm.stats();
                        rounds.push((
                            after.p2p_sent_msgs - before.p2p_sent_msgs,
                            after.p2p_recv_msgs - before.p2p_recv_msgs,
                            after.mailbox_send_locks - before.mailbox_send_locks,
                            after.mailbox_recv_locks - before.mailbox_recv_locks,
                        ));
                    }
                }
                comm.barrier();
                shutdown.store(true, Ordering::Release);
                if let Some(server) = server {
                    server.join().expect("comm thread panicked");
                }
            });
            (comm.stats(), rounds)
        });
        let (round, lone, long) = (stats[0].1[0], stats[0].1[1], stats[0].1[2]);
        let (sent, received, send_locks, recv_locks) = round;
        assert_eq!((sent, received), (8, 8), "one message per request and per reply");
        assert_eq!(send_locks, 2, "one send-side lock per owner, not per request");
        assert!((2..=4).contains(&recv_locks), "{recv_locks} receive-side locks for 2 owners");
        let (sent, received, send_locks, recv_locks) = lone;
        assert_eq!((sent, received, send_locks), (1, 1, 1));
        assert!((1..=2).contains(&recv_locks), "{recv_locks} receive-side locks");
        let (sent, received, send_locks, _) = long;
        assert_eq!((sent, received, send_locks), (REPLY_RUN as u64 + 1, REPLY_RUN as u64 + 1, 1));
        // each owner answered the round with one send, the lone request
        // with one more, and the long backlog in two runs
        assert_eq!(stats[1].0.mailbox_send_locks, 4);
        assert_eq!(stats[2].0.mailbox_send_locks, 1);
        assert_eq!((stats[1].0.p2p_sent_msgs, stats[2].0.p2p_sent_msgs), (REPLY_RUN as u64 + 7, 3));
    }

    /// Killing an owner rank: the run still completes, its keys degrade
    /// to absent, and the degradation counters report it.
    #[test]
    fn killed_owner_degrades_gracefully() {
        let reads = dataset(36);
        let cfg = EngineConfig {
            fault: FaultPlan::parse("seed=3,kill=1").unwrap(),
            lookup_deadline: Some(Duration::from_millis(2)),
            retry_budget: 2,
            heuristics: HeuristicConfig { aggregate_lookups: true, ..Default::default() },
            chunk_size: 9,
            ..EngineConfig::new(3, params())
        };
        let out = ThreadedEngine.run(&cfg, &reads);
        assert_eq!(out.corrected.len(), reads.len(), "kill must not lose reads");
        let degraded: u64 = out.report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
        assert!(degraded > 0, "lookups owned by the killed rank must degrade");
        // the killed rank's message plane is severed: it serves nothing
        assert_eq!(out.report.ranks[1].lookups.requests_served, 0);
    }
}
