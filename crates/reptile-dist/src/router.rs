//! The lookup router — paper Step IV's rule, stated once.
//!
//! "If a k-mer or tile does not exist at its owning rank, it can be
//! inferred that the k-mer or tile does not exist at all" (§III step IV):
//! a count is answered from the nearest table that holds it, otherwise
//! the owner is asked, and a key the owner cannot answer for reads as
//! absent everywhere. [`LookupRouter`] is the only copy of that rule.
//! It owns
//!
//! * the **routing order** — replicated table → group (or owned) table →
//!   hot-shard replica → reads table, which also holds the remote
//!   answers `cache_remote` adds → remote request — written over the
//!   key kind ([`Key`]), so k-mers and tiles share one chain;
//! * every routing counter of [`LookupStats`];
//! * the **retry driver** ([`LookupRouter::round_trip`]): a round's
//!   requests are stamped with consecutive sequence numbers and sent
//!   together, then the round is awaited once per attempt
//!   `0..=retry_budget` under that attempt's deadline, and only the
//!   requests still unanswered are resent, each under its own number.
//!   Each missed deadline and each resend is counted per request, and a
//!   request that outlives the budget degrades to count 0. Base-mode
//!   rounds, batched fetches and steals (a round of one) all go through
//!   it;
//! * the **round exchange**: base mode sends one single-key request per
//!   non-resident lookup of the sequential walk, aggregate mode the
//!   round's keys deduplicated into one batch per owner;
//! * the **first wave** of aggregate mode: a chunk's count-free keys
//!   ([`enumerate_read_keys`]) fetched in batches before its first round
//!   and held for that chunk only, by the same batched fetch the rounds
//!   use;
//! * [`LookupRouter::correct_chunk`], the entry point of the threaded
//!   engine, the virtual engine and the serve plane.
//!
//! Two things differ between the engines and are inputs. [`Tiers`] says
//! which table holds a key: the threaded engine hands in a rank's real
//! tables, the virtual engine hands in the global spectrum for every tier
//! its heuristics switch on (a remote lookup there is a pure query of an
//! immutable table, so the owner's answer *is* the global one).
//! [`Transport`] moves a round's requests and awaits their replies: over
//! the wire (`engine_mt::WireTransport`) or through the cost model and
//! the seeded fault plan (`engine_virtual::ModelTransport`).

use crate::engine::EngineConfig;
use crate::heuristics::HeuristicConfig;
use crate::owner::{Key, OwnerMap};
use crate::protocol::{batch_ranges, count_to_wire, wire_to_count, BatchResponse, LookupRequest};
use crate::report::LookupStats;
use crate::spectrum::{KindTables, RankTables};
use dnaseq::{FxHashMap, Read};
use reptile::spectrum::{KmerSpectrum, Spectrum, TileSpectrum};
use reptile::{
    correct_in_waves, enumerate_read_keys, Normalized, PrefetchKeys, ReadOutcome, ReptileParams,
    SpectrumKey, WaveScratch, WaveSource,
};
use std::collections::hash_map::Entry;

/// One request of the Step IV service plane, before encoding.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Request<'a> {
    /// The count of one normalized key.
    Key(LookupRequest),
    /// The counts of one owner's share of a fetch, in key order.
    Batch {
        /// Normalized k-mer keys.
        kmers: &'a [u64],
        /// Normalized tile keys.
        tiles: &'a [u128],
    },
    /// A read chunk off the back of the victim's queue.
    Steal,
}

impl Request<'_> {
    /// The keys the request asks for: what degrades when it goes
    /// unanswered.
    fn keys(&self) -> u64 {
        match self {
            Request::Key(_) => 1,
            Request::Batch { kmers, tiles } => (kmers.len() + tiles.len()) as u64,
            Request::Steal => 0,
        }
    }
}

/// One request of a round: the rank it goes to, its sequence number and
/// what it asks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pending<'a> {
    pub(crate) to: usize,
    pub(crate) seq: u64,
    pub(crate) req: Request<'a>,
}

/// The reply to a [`Request`], of the request's kind.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A key's count at its owner; `None` = the owner does not hold it.
    Count(Option<u32>),
    /// One wire count per requested key (`-1` = not held).
    Batch(BatchResponse),
    /// The stolen chunk; `None` = the victim has nothing left.
    Chunk(Option<Vec<Read>>),
}

/// What carries a round's requests to their owners and the replies
/// back. The router numbers the requests and drives the attempts; a
/// transport only moves one attempt of a round.
pub(crate) trait Transport {
    /// Put attempt `attempt` of request `seq` on its way to rank `to`.
    fn send(&mut self, to: usize, seq: u64, req: Request<'_>, attempt: u32);

    /// Wait out attempt `attempt`'s deadline for the replies to
    /// `pending`, the requests of the round numbered from `first` that
    /// are still unanswered, in send order. The reply to request `seq`
    /// goes to `replies[seq - first]`; a reply outside the round, or to
    /// a request already answered, is dropped. Returns once every
    /// pending request is answered or the deadline has passed.
    fn recv(
        &mut self,
        pending: &[Pending<'_>],
        first: u64,
        replies: &mut [Option<Reply>],
        attempt: u32,
    );
}

/// An owner's answer to a single-key request against its tables.
pub(crate) fn owner_count(
    req: LookupRequest,
    kmers: &KmerSpectrum,
    tiles: &TileSpectrum,
) -> Option<u32> {
    match req {
        LookupRequest::Kmer(code) => kmers.get_at(Normalized::assume(code)),
        LookupRequest::Tile(code) => tiles.get_at(Normalized::assume(code)),
    }
}

/// An owner's answer to a batch: one sweep over its tables.
pub(crate) fn owner_batch(
    kmer_keys: &[u64],
    tile_keys: &[u128],
    kmers: &KmerSpectrum,
    tiles: &TileSpectrum,
) -> BatchResponse {
    BatchResponse {
        kmer_counts: kmer_keys
            .iter()
            .map(|&k| count_to_wire(kmers.get_at(Normalized::assume(k))))
            .collect(),
        tile_counts: tile_keys
            .iter()
            .map(|&t| count_to_wire(tiles.get_at(Normalized::assume(t))))
            .collect(),
    }
}

/// The tables of one key kind, nearest first.
pub(crate) struct KindTiers<'a, K: SpectrumKey> {
    /// The whole pruned spectrum, under `replicate_kmers`/`_tiles`.
    pub(crate) replicated: Option<&'a Spectrum<K>>,
    /// The table that answers for this rank's group: the merged group
    /// table under partial replication (§V), else the owned table.
    pub(crate) local: &'a Spectrum<K>,
    /// Exact copies of the hot owners' tables (adaptive balancing).
    pub(crate) hot: Option<&'a Spectrum<K>>,
    /// The reads table (`keep_read_tables`): global counts of the
    /// non-owned keys of this rank's reads, 0 = known absent. Owned by
    /// the router because `cache_remote` adds remote answers to it.
    pub(crate) reads: Option<Spectrum<K>>,
}

/// Which table holds a key, on one rank.
pub(crate) struct Tiers<'a> {
    /// Key normalization and ownership.
    pub(crate) owners: &'a OwnerMap,
    /// This rank.
    pub(crate) me: usize,
    /// Partial-replication group size (1 = off).
    pub(crate) group: usize,
    /// Owners whose keys the `hot` tables hold (length `np`, or empty).
    pub(crate) hot_owners: &'a [bool],
    /// K-mer tables.
    pub(crate) kmers: KindTiers<'a, u64>,
    /// Tile tables.
    pub(crate) tiles: KindTiers<'a, u128>,
}

impl<'a> Tiers<'a> {
    /// The tiers of rank `me`'s built tables, without reads tables: a
    /// run moves its own in, the serve plane has none.
    pub(crate) fn of_tables(tables: &'a RankTables, me: usize, heur: &HeuristicConfig) -> Self {
        Tiers {
            owners: &tables.owners,
            me,
            group: heur.partial_group,
            hot_owners: &tables.hot_owners,
            kmers: KindTiers::of_tables(&tables.kmers),
            tiles: KindTiers::of_tables(&tables.tiles),
        }
    }
}

impl<'a, K: SpectrumKey> KindTiers<'a, K> {
    /// The tiers of one kind's built tables, without the reads table.
    fn of_tables(tables: &'a KindTables<K>) -> Self {
        KindTiers {
            replicated: tables.replicated.as_ref(),
            local: tables.group.as_ref().unwrap_or(&tables.owned),
            hot: tables.hot.as_ref(),
            reads: None,
        }
    }
}

/// One key kind's share of [`LookupStats`].
pub(crate) struct KindCounters<'s> {
    pub(crate) local: &'s mut u64,
    pub(crate) remote: &'s mut u64,
    pub(crate) remote_misses: &'s mut u64,
}

/// One entry of a round, in ask order.
#[derive(Clone, Copy, Debug)]
enum Posted {
    /// A request to `owner`: a single-key one in base mode, a key of the
    /// round's batch to `owner` in aggregate mode.
    Key { owner: usize, req: LookupRequest },
    /// Base mode under `cache_remote`: a key this round already
    /// requested, at the given entry — the reads-table hit the sequential
    /// walk would have had.
    Again(usize),
    /// Aggregate mode: a first-wave key whose batch degraded; it is not
    /// sent again within the chunk and answers degraded.
    Degraded,
}

/// Where the lookup chain answers a key on this rank.
#[derive(Clone, Copy)]
enum Tier {
    /// The replicated, group or owned table.
    Table,
    /// A hot owner's replica (`hot_shard_hits`).
    Hot,
    /// The reads table (`cache_hits`).
    Reads,
    /// The chunk's first wave (`prefetch_hits`).
    FirstWave,
}

/// Where the lookup chain ends for one key on this rank.
enum Route {
    /// A count this rank holds.
    Local(u32, Tier),
    /// A first-wave key whose batch degraded.
    Degraded,
    /// Not on this rank: ask the owner.
    Remote(usize),
}

/// Everything a router allocates while correcting, so that a caller
/// running many routers one after another (the virtual engine's logical
/// ranks) can hand the same buffers from one to the next.
#[derive(Default)]
pub(crate) struct RouterScratch {
    /// The wave driver's state, reused chunk after chunk.
    wave: WaveScratch,
    /// Aggregate mode: the keys of one fetch.
    keys: PrefetchKeys,
    /// Aggregate mode: the last fetch's keys by owning rank, in key order.
    fetched_keys: Vec<PrefetchKeys>,
    /// Aggregate mode: their answers, k-mers first (`None` = degraded).
    fetched: Vec<Vec<Option<u32>>>,
    /// Aggregate mode: the chunk's first wave.
    first_wave: FxHashMap<LookupRequest, Option<u32>>,
    /// The round being asked for.
    round: Vec<Posted>,
    /// Base mode under `cache_remote`: the round's entry for each key
    /// requested in it.
    requested: FxHashMap<LookupRequest, usize>,
}

/// The worker-side lookup chain of §III step IV over a [`Transport`].
pub(crate) struct LookupRouter<'a, T> {
    pub(crate) tiers: Tiers<'a>,
    pub(crate) transport: T,
    /// Batch each round per owner, after a first-wave fetch per chunk.
    aggregate: bool,
    /// Add every remote answer to the reads table.
    cache_remote: bool,
    /// Retries after the first missed deadline before a key degrades.
    retry_budget: u32,
    /// Next request sequence number (monotonic per worker, echoed by
    /// replies; never reused, so stale replies are recognizable).
    next_seq: u64,
    pub(crate) scratch: RouterScratch,
    pub(crate) stats: LookupStats,
}

impl<'a, T: Transport> LookupRouter<'a, T> {
    /// A router for one rank. The buffers of `scratch` live as long as
    /// the router: reusing one router across many serve micro-batches is
    /// what makes repeat jobs allocate ~zero.
    pub(crate) fn new(
        tiers: Tiers<'a>,
        transport: T,
        cfg: &EngineConfig,
        scratch: RouterScratch,
    ) -> Self {
        LookupRouter {
            tiers,
            transport,
            aggregate: cfg.heuristics.aggregate_lookups,
            cache_remote: cfg.heuristics.cache_remote,
            retry_budget: cfg.retry_budget,
            next_seq: 1,
            scratch,
            stats: LookupStats::default(),
        }
    }

    /// The lookup chain up to the point where it would leave the rank,
    /// counting nothing.
    fn route<K: Key>(&mut self, key: Normalized<K>) -> Route {
        let Tiers { owners, me, group, hot_owners, .. } = self.tiers;
        let tiers = K::tiers(&mut self.tiers);
        if let Some(replicated) = tiers.replicated {
            return Route::Local(replicated.count_at(key), Tier::Table);
        }
        let owner = K::owner(key, owners);
        let in_group = if group > 1 { owner / group == me / group } else { owner == me };
        if in_group {
            return Route::Local(tiers.local.count_at(key), Tier::Table);
        }
        if let (Some(hot), Some(&true)) = (tiers.hot, hot_owners.get(owner)) {
            // exact copy of the hot owner's pruned table: the same count
            // a remote request would return
            return Route::Local(hot.count_at(key), Tier::Hot);
        }
        if let Some(count) = tiers.reads.as_ref().and_then(|reads| reads.get_at(key)) {
            return Route::Local(count, Tier::Reads);
        }
        match self.scratch.first_wave.get(&K::request(key)) {
            Some(&Some(count)) => Route::Local(count, Tier::FirstWave),
            Some(None) => Route::Degraded,
            None => Route::Remote(owner),
        }
    }

    /// One lookup of a round: the local tiers, else a request to the
    /// owner queued for the round (`None`). Base mode counts it as one
    /// single-key request; under `cache_remote` a key already requested
    /// this round is the reads-table hit it would be had the first
    /// request been answered before it was asked again, as the sequential
    /// walk does. Aggregate mode counts nothing until the round's batches
    /// go out.
    fn ask<K: Key>(&mut self, code: K) -> Option<u32> {
        let key = code.normalize(self.tiers.owners);
        let owner = match self.route(key) {
            Route::Local(count, tier) => {
                let stats = &mut self.stats;
                *K::counters(stats).local += 1;
                match tier {
                    Tier::Table => {}
                    Tier::Hot => stats.hot_shard_hits += 1,
                    Tier::Reads => stats.cache_hits += 1,
                    Tier::FirstWave => stats.prefetch_hits += 1,
                }
                return Some(count);
            }
            Route::Degraded => {
                self.scratch.round.push(Posted::Degraded);
                return None;
            }
            Route::Remote(owner) => owner,
        };
        let req = K::request(key);
        let round = &mut self.scratch.round;
        if self.aggregate {
            round.push(Posted::Key { owner, req });
            return None;
        }
        if self.cache_remote && K::tiers(&mut self.tiers).reads.is_some() {
            match self.scratch.requested.entry(req) {
                Entry::Occupied(first) => {
                    *K::counters(&mut self.stats).local += 1;
                    self.stats.cache_hits += 1;
                    round.push(Posted::Again(*first.get()));
                    return None;
                }
                Entry::Vacant(slot) => {
                    slot.insert(round.len());
                }
            }
        }
        *K::counters(&mut self.stats).remote += 1;
        self.stats.remote_messages += 1;
        round.push(Posted::Key { owner, req });
        None
    }

    /// The reply to a single-key request for `key`, counted and cached
    /// like the sequential chain does; `None` = degraded. Absent at the
    /// owner reads 0.
    fn answer<K: Key>(&mut self, key: Normalized<K>, reply: Option<Reply>) -> Option<u32> {
        let count = match reply {
            Some(Reply::Count(Some(count))) => Some(count),
            Some(Reply::Count(None)) => {
                *K::counters(&mut self.stats).remote_misses += 1;
                Some(0)
            }
            None => None,
            Some(other) => unreachable!("{other:?} in reply to a key request"),
        };
        if self.cache_remote {
            if let Some(reads) = &mut K::tiers(&mut self.tiers).reads {
                reads.add_count(key, count.unwrap_or(0));
                self.stats.cached_answers += 1;
            }
        }
        count
    }

    /// The sequential chain for one key, the reference the lockstep walk
    /// is tested against: a lookup that leaves the rank is a round of
    /// one request.
    #[cfg(test)]
    fn count<K: Key>(&mut self, code: K) -> u32 {
        self.ask(code).unwrap_or_else(|| {
            let mut answers = Vec::new();
            self.exchange(&mut answers);
            answers[0].unwrap_or(0)
        })
    }

    /// The retry protocol for one round of `(owner, request)` pairs:
    /// stamp them with consecutive sequence numbers, send attempt 0 of
    /// every one, then await the whole round once per attempt under that
    /// attempt's deadline (the transport backs it off per attempt) and
    /// resend only the requests still unanswered, each under its own
    /// number. Every request unanswered at a deadline counts one missed
    /// deadline and every resend one retry; a request that outlives the
    /// budget gives up — its keys degrade to "absent everywhere". Returns
    /// one reply per request, in round order (`None` = degraded). Sends
    /// are buffered and owners always answer, so a round cannot deadlock
    /// however many requests it carries.
    fn round_trip<'r>(
        &mut self,
        round: impl IntoIterator<Item = (usize, Request<'r>)>,
    ) -> Vec<Option<Reply>> {
        let first = self.next_seq;
        let mut pending: Vec<Pending<'r>> = round
            .into_iter()
            .zip(first..)
            .map(|((to, req), seq)| Pending { to, seq, req })
            .collect();
        self.next_seq += pending.len() as u64;
        let mut replies: Vec<Option<Reply>> = pending.iter().map(|_| None).collect();
        for attempt in 0..=self.retry_budget {
            if pending.is_empty() {
                break;
            }
            if attempt > 0 {
                self.stats.requests_retried += pending.len() as u64;
            }
            for p in &pending {
                self.transport.send(p.to, p.seq, p.req, attempt);
            }
            self.transport.recv(&pending, first, &mut replies, attempt);
            pending.retain(|p| replies[(p.seq - first) as usize].is_none());
            // only nonzero with a configured deadline (or a modeled loss):
            // without one the transport waits for every answer
            self.stats.deadline_misses += pending.len() as u64;
        }
        self.stats.keys_degraded += pending.iter().map(|p| p.req.keys()).sum::<u64>();
        replies
    }

    /// One steal round trip: ask `victim` for a chunk off the back of
    /// its queue. `None` when the victim is drained — or when the retry
    /// budget ran out, which a thief treats the same way: stop stealing
    /// from that victim.
    pub(crate) fn steal_from(&mut self, victim: usize) -> Option<Vec<Read>> {
        match self.round_trip([(victim, Request::Steal)]).pop().flatten()? {
            Reply::Chunk(chunk) => {
                self.stats.chunks_stolen += u64::from(chunk.is_some());
                chunk
            }
            other => unreachable!("{other:?} in reply to a steal request"),
        }
    }

    /// Correct a chunk of reads in place, calling `done(index, outcome,
    /// degraded)` once per read, as soon as it is finished. The wave
    /// driver walks every read of the chunk in lockstep rounds, asking
    /// what the sequential walk asks ([`WaveSource::exchange`]). Base
    /// mode sends each non-resident lookup as one single-key request;
    /// aggregate mode first fetches the chunk's first wave, then sends
    /// each round's keys as one batch per owner — no single-key request
    /// is ever sent. `degraded` says one of the read's own answers
    /// degraded.
    pub(crate) fn correct_chunk(
        &mut self,
        reads: &mut [Read],
        params: &ReptileParams,
        done: impl FnMut(usize, ReadOutcome, bool),
    ) {
        if self.aggregate {
            self.fetch_first_wave(reads, params);
        }
        let mut wave = std::mem::take(&mut self.scratch.wave);
        correct_in_waves(reads, params, &mut wave, self, done);
        self.scratch.wave = wave;
        self.scratch.first_wave.clear();
    }

    /// Aggregate mode: fetch the counts of the chunk's first wave — every
    /// window's tile and k-mer keys that no local tier holds — and hold
    /// them for the chunk. A key whose batch degraded is held as
    /// degraded, so it is not sent again within the chunk.
    fn fetch_first_wave(&mut self, reads: &[Read], params: &ReptileParams) {
        let mut keys = std::mem::take(&mut self.scratch.keys);
        keys.clear();
        for read in reads {
            enumerate_read_keys(read, params, &mut keys);
        }
        keys.finish();
        let remote = |route| matches!(route, Route::Remote(_));
        keys.kmers.retain(|&k| remote(self.route(Normalized::assume(k))));
        keys.tiles.retain(|&t| remote(self.route(Normalized::assume(t))));
        self.fetch(&mut keys);
        self.scratch.keys = keys;
        let RouterScratch { fetched_keys, fetched, first_wave, .. } = &mut self.scratch;
        for (keys, counts) in fetched_keys.iter().zip(fetched.iter()) {
            let kmers = keys.kmers.iter().map(|&k| LookupRequest::Kmer(k));
            let tiles = keys.tiles.iter().map(|&t| LookupRequest::Tile(t));
            first_wave.extend(kmers.chain(tiles).zip(counts.iter().copied()));
        }
    }

    /// Aggregate mode's one batched fetch: `keys` deduplicated, split by
    /// owning rank, one vectorized request per owner (more only past
    /// `MAX_BATCH_KEYS`, see [`batch_ranges`]), all of them one round of
    /// the retry driver, so the owners work on the fetch at once. Replies
    /// are matched by sequence number, so arrival order does not matter.
    /// Leaves each owner's keys in `scratch.fetched_keys`, in key
    /// order, and their counts in `scratch.fetched` (absent at the owner
    /// reads 0); a batch that exhausts its retry budget leaves `None` for
    /// every one of its keys — the paper's degradation.
    pub(crate) fn fetch(&mut self, keys: &mut PrefetchKeys) {
        keys.finish();
        let np = self.tiers.owners.np();
        let mut per_owner = std::mem::take(&mut self.scratch.fetched_keys);
        let mut counts = std::mem::take(&mut self.scratch.fetched);
        per_owner.resize_with(np, PrefetchKeys::default);
        counts.resize_with(np, Vec::new);
        self.tiers.owners.split_by_owner(keys, &mut per_owner);
        let mut sent = Vec::new();
        for (owner, keys) in per_owner.iter().enumerate() {
            counts[owner].clear();
            counts[owner].resize(keys.len(), None);
            for (k, tl) in batch_ranges(keys.kmers.len(), keys.tiles.len()) {
                self.stats.batches_sent += 1;
                self.stats.batched_keys += (k.len() + tl.len()) as u64;
                self.stats.remote_messages += 1;
                sent.push((owner, k, tl));
            }
        }
        let batches = sent.iter().map(|(owner, k, tl)| {
            let keys = &per_owner[*owner];
            (
                *owner,
                Request::Batch { kmers: &keys.kmers[k.clone()], tiles: &keys.tiles[tl.clone()] },
            )
        });
        let replies = self.round_trip(batches);
        for ((owner, k, tl), reply) in sent.into_iter().zip(replies) {
            let keys = &per_owner[owner];
            match reply {
                Some(Reply::Batch(resp)) => {
                    debug_assert_eq!(resp.kmer_counts.len(), k.len());
                    debug_assert_eq!(resp.tile_counts.len(), tl.len());
                    let (kmer_slots, tile_slots) = counts[owner].split_at_mut(keys.kmers.len());
                    let kmer_answers = kmer_slots[k].iter_mut().zip(&resp.kmer_counts);
                    let tile_answers = tile_slots[tl].iter_mut().zip(&resp.tile_counts);
                    for (slot, &c) in kmer_answers.chain(tile_answers) {
                        *slot = Some(wire_to_count(c).unwrap_or(0));
                    }
                }
                None => {}
                Some(other) => unreachable!("{other:?} in reply to a batch request"),
            }
        }
        self.scratch.fetched_keys = per_owner;
        self.scratch.fetched = counts;
    }

    /// One base-mode round: one single-key request per ask, all of them
    /// one round of the retry driver.
    fn exchange_keys(&mut self, round: &[Posted], answers: &mut Vec<Option<u32>>) {
        self.scratch.requested.clear();
        let requests = round.iter().filter_map(|posted| match *posted {
            Posted::Key { owner, req } => Some((owner, Request::Key(req))),
            _ => None,
        });
        let mut replies = self.round_trip(requests).into_iter();
        let start = answers.len();
        for posted in round {
            let answer = match *posted {
                Posted::Key { req, .. } => {
                    let reply = replies.next().expect("a reply per request");
                    match req {
                        LookupRequest::Kmer(key) => self.answer(Normalized::assume(key), reply),
                        LookupRequest::Tile(key) => self.answer(Normalized::assume(key), reply),
                    }
                }
                // not this read's own lookup: a cache hit never degrades
                Posted::Again(first) => Some(answers[start + first].unwrap_or(0)),
                Posted::Degraded => unreachable!("base mode fetches no first wave"),
            };
            answers.push(answer);
        }
    }

    /// One aggregate-mode round: the round's keys fetched as one batch
    /// per owner, each ask answered from its key's count.
    fn exchange_batched(&mut self, round: &[Posted], answers: &mut Vec<Option<u32>>) {
        let mut keys = std::mem::take(&mut self.scratch.keys);
        keys.clear();
        for posted in round {
            match *posted {
                Posted::Key { req: LookupRequest::Kmer(k), .. } => keys.kmers.push(k),
                Posted::Key { req: LookupRequest::Tile(t), .. } => keys.tiles.push(t),
                _ => {}
            }
        }
        self.fetch(&mut keys);
        self.scratch.keys = keys;
        answers.extend(round.iter().map(|posted| match *posted {
            Posted::Key { owner, req } => self.fetched(owner, req),
            Posted::Degraded => None,
            Posted::Again(_) => unreachable!("aggregate mode deduplicates in the batch"),
        }));
    }

    /// The answer the last [`fetch`](Self::fetch) got for `req`, owned by
    /// `owner`; `None` = its batch degraded.
    pub(crate) fn fetched(&self, owner: usize, req: LookupRequest) -> Option<u32> {
        let keys = &self.scratch.fetched_keys[owner];
        let at = match req {
            LookupRequest::Kmer(k) => keys.kmers.binary_search(&k),
            LookupRequest::Tile(t) => keys.tiles.binary_search(&t).map(|i| keys.kmers.len() + i),
        };
        self.scratch.fetched[owner][at.expect("a key of the last fetch")]
    }
}

impl<T: Transport> WaveSource for LookupRouter<'_, T> {
    fn ask_kmer(&mut self, key: u64) -> Option<u32> {
        self.ask(key)
    }

    fn ask_tile(&mut self, key: u128) -> Option<u32> {
        self.ask(key)
    }

    /// Under a replicated tile tier every key of the group is a local
    /// table hit, answered by one batch probe and counted as that many
    /// asks; otherwise the group is asked key by key, in order, so the
    /// round's requests and every counter are the per-key asks' own.
    fn ask_tiles(&mut self, keys: &[u128], out: &mut Vec<Option<u32>>) {
        match self.tiers.tiles.replicated {
            Some(replicated) => {
                self.stats.local_tile_lookups += keys.len() as u64;
                // the walk's keys, normalized like every key it asks
                replicated.counts_at(Normalized::assume(keys), out);
            }
            None => out.extend(keys.iter().map(|&key| self.ask(key))),
        }
    }

    /// One round: every queued request — base mode's single-key
    /// requests, or aggregate mode's batches — goes out, and the round is
    /// awaited under the retry protocol ([`LookupRouter::round_trip`]).
    fn exchange(&mut self, answers: &mut Vec<Option<u32>>) {
        let mut round = std::mem::take(&mut self.scratch.round);
        if self.aggregate {
            self.exchange_batched(&round, answers);
        } else {
            self.exchange_keys(&round, answers);
        }
        round.clear();
        self.scratch.round = round;
    }
}

#[cfg(test)]
impl<T: Transport> reptile::SpectrumAccess for LookupRouter<'_, T> {
    fn kmer_count(&mut self, code: u64) -> u32 {
        self.count(code)
    }

    fn tile_count(&mut self, code: u128) -> u32 {
        self.count(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicConfig;
    use reptile::{correct_read_with, enumerate_read_keys, LocalSpectra, SpectrumAccess};

    fn params() -> ReptileParams {
        ReptileParams::for_tests()
    }

    /// A k-mer and a tile spectrum holding `entries`.
    fn tables(kmers: &[(u64, u32)], tiles: &[(u128, u32)]) -> (KmerSpectrum, TileSpectrum) {
        let p = params();
        let mut k = KmerSpectrum::new(p.kmer_codec(), p.canonical);
        let mut t = TileSpectrum::new(p.tile_codec(), p.canonical);
        kmers.iter().for_each(|&(key, count)| k.add_count(Normalized::assume(key), count));
        tiles.iter().for_each(|&(key, count)| t.add_count(Normalized::assume(key), count));
        (k, t)
    }

    #[derive(Debug, PartialEq)]
    enum Event {
        Send {
            to: usize,
            seq: u64,
            attempt: u32,
        },
        /// One await of a round's pending `(to, seq)` requests.
        Await {
            pending: Vec<(usize, u64)>,
            attempt: u32,
        },
    }

    /// A transport that answers like the owner of `kmers`/`tiles` would,
    /// after losing the first `lose` attempts of every request, and logs
    /// what the router asked of it.
    struct Scripted<'a> {
        kmers: &'a KmerSpectrum,
        tiles: &'a TileSpectrum,
        lose: u32,
        chunk: Option<Vec<Read>>,
        log: Vec<Event>,
        /// The keys of every batch sent, by sequence number.
        batches: FxHashMap<u64, PrefetchKeys>,
        /// Single-key requests sent (attempt 0).
        key_requests: u64,
    }

    /// A transport that answers from `kmers`/`tiles` and loses nothing.
    fn scripted<'a>(kmers: &'a KmerSpectrum, tiles: &'a TileSpectrum) -> Scripted<'a> {
        Scripted {
            kmers,
            tiles,
            lose: 0,
            chunk: None,
            log: Vec::new(),
            batches: FxHashMap::default(),
            key_requests: 0,
        }
    }

    impl Transport for Scripted<'_> {
        fn send(&mut self, to: usize, seq: u64, req: Request<'_>, attempt: u32) {
            self.log.push(Event::Send { to, seq, attempt });
            match req {
                Request::Key(_) if attempt == 0 => self.key_requests += 1,
                Request::Batch { kmers, tiles } if attempt == 0 => {
                    let keys = PrefetchKeys { kmers: kmers.to_vec(), tiles: tiles.to_vec() };
                    self.batches.insert(seq, keys);
                }
                _ => {}
            }
        }

        fn recv(
            &mut self,
            pending: &[Pending<'_>],
            first: u64,
            replies: &mut [Option<Reply>],
            attempt: u32,
        ) {
            let sent = pending.iter().map(|p| (p.to, p.seq)).collect();
            self.log.push(Event::Await { pending: sent, attempt });
            if attempt < self.lose {
                return;
            }
            for p in pending {
                replies[(p.seq - first) as usize] = Some(match p.req {
                    Request::Key(key) => Reply::Count(owner_count(key, self.kmers, self.tiles)),
                    Request::Batch { kmers, tiles } => {
                        Reply::Batch(owner_batch(kmers, tiles, self.kmers, self.tiles))
                    }
                    Request::Steal => Reply::Chunk(self.chunk.clone()),
                });
            }
        }
    }

    /// Rank `me`'s tiers with nothing but (empty) owned tables.
    fn bare_tiers<'a>(
        owners: &'a OwnerMap,
        me: usize,
        empty: &'a (KmerSpectrum, TileSpectrum),
    ) -> Tiers<'a> {
        fn kind<K: SpectrumKey>(local: &Spectrum<K>) -> KindTiers<'_, K> {
            KindTiers { replicated: None, local, hot: None, reads: None }
        }
        Tiers {
            owners,
            me,
            group: 1,
            hot_owners: &[],
            kmers: kind(&empty.0),
            tiles: kind(&empty.1),
        }
    }

    /// The first `n` codes, counting up from 1, that rank `owner` owns.
    fn owned_by<K: Key + TryFrom<u32>>(owners: &OwnerMap, owner: usize, n: usize) -> Vec<K> {
        (1u32..)
            .filter_map(|c| K::try_from(c).ok())
            .filter(|&c| K::owner(c.normalize(owners), owners) == owner)
            .take(n)
            .collect()
    }

    /// Lose attempts `0..k` for `k` below, at and above the budget: the
    /// single-key, batch and steal paths retry, count and degrade alike.
    #[test]
    fn one_retry_contract_for_key_batch_and_steal_requests() {
        const BUDGET: u32 = 2;
        let owners = OwnerMap::new(2, &params());
        let kmers: Vec<u64> = owned_by(&owners, 1, 3);
        let tiles: Vec<u128> = owned_by(&owners, 1, 2);
        // the last key of each kind is absent at its owner
        let remote = tables(&[(kmers[0], 7), (kmers[1], 9)], &[(tiles[0], 5)]);
        let empty = tables(&[], &[]);
        let chunk = vec![Read::new(1, b"ACGT".to_vec(), vec![30; 4])];
        for lose in [0, 1, BUDGET, BUDGET + 1, 9] {
            let answered = lose <= BUDGET;
            for path in ["key", "batch", "steal"] {
                let transport =
                    Scripted { lose, chunk: Some(chunk.clone()), ..scripted(&remote.0, &remote.1) };
                let cfg = EngineConfig { retry_budget: BUDGET, ..EngineConfig::new(2, params()) };
                let tiers = bare_tiers(&owners, 0, &empty);
                let mut router =
                    LookupRouter::new(tiers, transport, &cfg, RouterScratch::default());
                let keys = match path {
                    "key" => {
                        let want = if answered { 7 } else { 0 };
                        assert_eq!(router.kmer_count(kmers[0]), want, "{path} lose={lose}");
                        1
                    }
                    "batch" => {
                        let mut keys = PrefetchKeys { kmers: kmers.clone(), tiles: tiles.clone() };
                        router.fetch(&mut keys);
                        // absent at the owner reads 0; a degraded batch, None
                        let want = |c| answered.then_some(c);
                        let kmer = |i| router.fetched(1, LookupRequest::Kmer(kmers[i]));
                        let tile = |i| router.fetched(1, LookupRequest::Tile(tiles[i]));
                        let got = [kmer(0), kmer(1), kmer(2), tile(0), tile(1)];
                        let want = [want(7), want(9), want(0), want(5), want(0)];
                        assert_eq!(got, want, "{path} lose={lose}");
                        5
                    }
                    _ => {
                        let want = answered.then(|| chunk.clone());
                        assert_eq!(router.steal_from(1), want, "{path} lose={lose}");
                        assert_eq!(router.stats.chunks_stolen, u64::from(answered));
                        0
                    }
                };
                let s = router.stats;
                let label = format!("{path} lose={lose}");
                assert_eq!(s.requests_retried, u64::from(lose.min(BUDGET)), "{label}");
                assert_eq!(s.deadline_misses, u64::from(lose.min(BUDGET + 1)), "{label}");
                assert_eq!(s.keys_degraded, if answered { 0 } else { keys }, "{label}");
                // every attempt of a request carries the request's seq
                let sends = router.transport.log.iter().filter(|e| matches!(e, Event::Send { .. }));
                let want: Vec<Event> = (0..=lose.min(BUDGET))
                    .map(|attempt| Event::Send { to: 1, seq: 1, attempt })
                    .collect();
                assert!(sends.eq(&want), "{label}");
            }
        }
    }

    /// A fetch deduplicates its keys, posts one batch per owner, all of
    /// them before it awaits the round once, and counts them once.
    #[test]
    fn a_wave_sends_every_batch_before_the_first_await() {
        let owners = OwnerMap::new(3, &params());
        let mut keys = PrefetchKeys::default();
        for owner in [1, 2, 1] {
            keys.kmers.extend(owned_by::<u64>(&owners, owner, 4));
            keys.tiles.extend(owned_by::<u128>(&owners, owner, 2));
        }
        let empty = tables(&[], &[]);
        let cfg = EngineConfig::new(3, params());
        let tiers = bare_tiers(&owners, 0, &empty);
        let transport = scripted(&empty.0, &empty.1);
        let mut router = LookupRouter::new(tiers, transport, &cfg, RouterScratch::default());
        router.fetch(&mut keys);
        assert_eq!(
            router.transport.log,
            [
                Event::Send { to: 1, seq: 1, attempt: 0 },
                Event::Send { to: 2, seq: 2, attempt: 0 },
                Event::Await { pending: vec![(1, 1), (2, 2)], attempt: 0 },
            ]
        );
        let s = router.stats;
        assert_eq!((s.batches_sent, s.remote_messages, s.batched_keys), (2, 2, 12));
        assert_eq!(s.remote_total(), 0, "a fetch sends no single-key request");
        let batch = |seq| router.transport.batches[&seq].len();
        assert_eq!((batch(1), batch(2)), (6, 6), "each key once");
    }

    /// A round that loses attempt 0 of every request waits once per
    /// attempt, not once per request: a base round of eight single-key
    /// requests to one owner, then a fetch of two batches, each take one
    /// await at attempt 0 and one at attempt 1, resend every request once
    /// and lose no answer.
    #[test]
    fn a_lossy_round_is_awaited_once_per_attempt() {
        let owners = OwnerMap::new(3, &params());
        let kmers: Vec<u64> = owned_by(&owners, 1, 8);
        let tiles: Vec<u128> = owned_by(&owners, 2, 2);
        let held: Vec<(u64, u32)> = (1..).zip(&kmers).map(|(c, &k)| (k, c)).collect();
        let remote = tables(&held, &[(tiles[0], 9)]);
        let empty = tables(&[], &[]);
        let cfg = EngineConfig { retry_budget: 2, ..EngineConfig::new(3, params()) };
        let tiers = bare_tiers(&owners, 0, &empty);
        let transport = Scripted { lose: 1, ..scripted(&remote.0, &remote.1) };
        let mut router = LookupRouter::new(tiers, transport, &cfg, RouterScratch::default());
        for &key in &kmers {
            assert_eq!(router.ask_kmer(key), None, "owned by rank 1: a request");
        }
        let mut answers = Vec::new();
        router.exchange(&mut answers);
        assert_eq!(answers, (1..=8).map(Some).collect::<Vec<_>>());
        router.fetch(&mut PrefetchKeys { kmers: kmers.clone(), tiles: tiles.clone() });
        let fetched: Vec<_> =
            kmers.iter().map(|&k| router.fetched(1, LookupRequest::Kmer(k))).collect();
        assert_eq!(fetched, answers, "the batch answers what the round did");
        let tile = |i| router.fetched(2, LookupRequest::Tile(tiles[i]));
        assert_eq!((tile(0), tile(1)), (Some(9), Some(0)));
        let awaits: Vec<(usize, u32)> = router
            .transport
            .log
            .iter()
            .filter_map(|e| match e {
                Event::Await { pending, attempt } => Some((pending.len(), *attempt)),
                Event::Send { .. } => None,
            })
            .collect();
        assert_eq!(awaits, [(8, 0), (8, 1), (2, 0), (2, 1)], "one await per attempt and round");
        let s = router.stats;
        let requests = 8 + 2;
        assert_eq!(
            (s.deadline_misses, s.requests_retried, s.keys_degraded),
            (requests, requests, 0)
        );
    }

    /// One lookup of `key` on rank 0 of 4 against tiers that each store a
    /// different count for it (replicated 1, group/owned 2, hot replica 3,
    /// reads table 4, its owner 5), so the returned count names the tier
    /// that answered.
    struct Case<'t, K: Key> {
        tier: &'static str,
        key: K,
        replicated: bool,
        group: usize,
        hot: bool,
        reads: Option<&'t Spectrum<K>>,
        cache_remote: bool,
        /// The count returned and every counter that moved.
        want: (u32, LookupStats),
    }

    /// One case per tier of the routing order, for either key kind: the
    /// nearest table that holds the key answers, and only that tier's
    /// counters move. `kind(local, remote, remote_misses)` is the key
    /// kind's share of the stats.
    fn routing_order<K: Key + TryFrom<u32>>(
        table: impl Fn(&[(K, u32)]) -> Spectrum<K>,
        count_of: impl Fn(&mut LookupRouter<Scripted>, K) -> u32,
        kind: impl Fn(u64, u64, u64) -> LookupStats,
    ) {
        let owners = OwnerMap::new(4, &params());
        let (mine, near) = (owned_by::<K>(&owners, 0, 1)[0], owned_by::<K>(&owners, 1, 1)[0]);
        let [far, absent] = owned_by::<K>(&owners, 2, 2)[..] else { unreachable!() };
        let holding = |count| table(&[(mine, count), (near, count), (far, count)]);
        let (replicated, local, hot, reads) = (holding(1), holding(2), holding(3), holding(4));
        let no_reads = table(&[]);
        // the owner's answer, whichever kind `K` is
        let mut remote = tables(&[], &[]);
        match K::request(far.normalize(&owners)) {
            LookupRequest::Kmer(code) => remote.0.add_count(Normalized::assume(code), 5),
            LookupRequest::Tile(code) => remote.1.add_count(Normalized::assume(code), 5),
        }
        let empty = tables(&[], &[]);
        let hot_owners = [false, false, true, false];
        let every_tier = Case {
            tier: "replicated",
            key: far,
            replicated: true,
            group: 1,
            hot: true,
            reads: Some(&reads),
            cache_remote: false,
            want: (1, kind(1, 0, 0)),
        };
        let sent = |stats| LookupStats { remote_messages: 1, ..stats };
        let cases = [
            Case {
                tier: "in-group",
                key: near,
                group: 2,
                replicated: false,
                want: (2, kind(1, 0, 0)),
                ..every_tier
            },
            Case {
                tier: "owned",
                key: mine,
                replicated: false,
                want: (2, kind(1, 0, 0)),
                ..every_tier
            },
            Case {
                tier: "hot replica",
                replicated: false,
                want: (3, LookupStats { hot_shard_hits: 1, ..kind(1, 0, 0) }),
                ..every_tier
            },
            Case {
                tier: "reads table",
                replicated: false,
                hot: false,
                want: (4, LookupStats { cache_hits: 1, ..kind(1, 0, 0) }),
                ..every_tier
            },
            Case {
                tier: "remote",
                replicated: false,
                hot: false,
                reads: None,
                want: (5, sent(kind(0, 1, 0))),
                ..every_tier
            },
            Case {
                tier: "remote miss",
                key: absent,
                replicated: false,
                hot: false,
                reads: None,
                want: (0, sent(kind(0, 1, 1))),
                ..every_tier
            },
            Case {
                tier: "cached answer",
                replicated: false,
                hot: false,
                reads: Some(&no_reads),
                cache_remote: true,
                want: (5, LookupStats { cached_answers: 1, ..sent(kind(0, 1, 0)) }),
                ..every_tier
            },
            every_tier,
        ];
        for case in cases {
            let mut cfg = EngineConfig::new(4, params());
            cfg.heuristics.cache_remote = case.cache_remote;
            let mut tiers = bare_tiers(&owners, 0, &empty);
            tiers.group = case.group;
            tiers.hot_owners = &hot_owners;
            *K::tiers(&mut tiers) = KindTiers {
                replicated: case.replicated.then_some(&replicated),
                local: &local,
                hot: case.hot.then_some(&hot),
                reads: case.reads.cloned(),
            };
            let transport = scripted(&remote.0, &remote.1);
            let mut router = LookupRouter::new(tiers, transport, &cfg, RouterScratch::default());
            assert_eq!((count_of(&mut router, case.key), router.stats), case.want, "{}", case.tier);
            if case.cache_remote {
                // asked again, the key is a reads-table hit: no new message
                let (count, mut stats) = case.want;
                assert_eq!(count_of(&mut router, case.key), count, "{}, again", case.tier);
                stats.merge(&LookupStats { cache_hits: 1, ..kind(1, 0, 0) });
                assert_eq!(router.stats, stats, "{}, again", case.tier);
            }
        }
    }

    #[test]
    fn routing_order_kmers() {
        routing_order::<u64>(
            |entries| tables(entries, &[]).0,
            |router, key| router.kmer_count(key),
            |local, remote, misses| LookupStats {
                local_kmer_lookups: local,
                remote_kmer_lookups: remote,
                remote_kmer_misses: misses,
                ..LookupStats::default()
            },
        );
    }

    #[test]
    fn routing_order_tiles() {
        routing_order::<u128>(
            |entries| tables(&[], entries).1,
            |router, key| router.tile_count(key),
            |local, remote, misses| LookupStats {
                local_tile_lookups: local,
                remote_tile_lookups: remote,
                remote_tile_misses: misses,
                ..LookupStats::default()
            },
        );
    }

    /// Tile keys of every owner of 3, some held by their owner and some
    /// absent, one asked twice: the group the router tests ask.
    fn tile_group(owners: &OwnerMap) -> (Vec<u128>, TileSpectrum) {
        let mut keys: Vec<u128> = (0..3).flat_map(|o| owned_by::<u128>(owners, o, 4)).collect();
        keys.push(keys[5]);
        let held: Vec<(u128, u32)> = keys.iter().step_by(2).map(|&k| (k, 6)).collect();
        (keys, tables(&[], &held).1)
    }

    /// A router on rank 0 of 3 under `cfg`, with `replicated` as its
    /// replicated tile tier or none, over owners holding `owner_tables`.
    fn group_router<'a>(
        owners: &'a OwnerMap,
        cfg: &EngineConfig,
        replicated: Option<&'a TileSpectrum>,
        owner_tables: &'a (KmerSpectrum, TileSpectrum),
    ) -> LookupRouter<'a, Scripted<'a>> {
        let mut tiers = bare_tiers(owners, 0, owner_tables);
        tiers.tiles.replicated = replicated;
        if cfg.heuristics.cache_remote {
            tiers.tiles.reads = Some(TileSpectrum::new(params().tile_codec(), params().canonical));
        }
        let transport = scripted(&owner_tables.0, &owner_tables.1);
        LookupRouter::new(tiers, transport, cfg, RouterScratch::default())
    }

    /// Under a replicated tile tier a group is one batch probe that
    /// answers and counts what the per-key asks do, and sends nothing.
    #[test]
    fn replicated_group_asks_equal_per_key_asks() {
        let owners = OwnerMap::new(3, &params());
        let (keys, held) = tile_group(&owners);
        let owner_tables = (tables(&[], &[]).0, held.clone());
        let cfg = EngineConfig::new(3, params());
        let mut grouped = group_router(&owners, &cfg, Some(&held), &owner_tables);
        let mut per_key = group_router(&owners, &cfg, Some(&held), &owner_tables);
        let mut got = vec![Some(1)];
        grouped.ask_tiles(&keys, &mut got);
        let want: Vec<_> =
            std::iter::once(Some(1)).chain(keys.iter().map(|&k| per_key.ask_tile(k))).collect();
        assert_eq!(got, want);
        assert!(got.contains(&Some(6)) && got.contains(&Some(0)), "held and absent keys");
        assert_eq!(grouped.stats, per_key.stats);
        assert_eq!(grouped.stats.local_tile_lookups, keys.len() as u64);
        assert!(grouped.transport.log.is_empty() && per_key.transport.log.is_empty());
    }

    /// Without a replicated tile tier a base-mode group sends, answers
    /// and counts exactly what the per-key asks do, with and without the
    /// reads-table cache that turns a repeated key into a cache hit.
    #[test]
    fn base_mode_group_asks_send_what_per_key_asks_send() {
        let owners = OwnerMap::new(3, &params());
        let (keys, held) = tile_group(&owners);
        let owner_tables = (tables(&[], &[]).0, held);
        for cache_remote in [false, true] {
            let mut cfg = EngineConfig::new(3, params());
            cfg.heuristics.keep_read_tables = cache_remote;
            cfg.heuristics.cache_remote = cache_remote;
            let mut grouped = group_router(&owners, &cfg, None, &owner_tables);
            let mut per_key = group_router(&owners, &cfg, None, &owner_tables);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            grouped.ask_tiles(&keys, &mut got);
            want.extend(keys.iter().map(|&k| per_key.ask_tile(k)));
            assert_eq!(got, want, "cache_remote={cache_remote}: immediate answers");
            grouped.exchange(&mut got);
            per_key.exchange(&mut want);
            assert_eq!(got, want, "cache_remote={cache_remote}: round answers");
            assert_eq!(grouped.transport.log, per_key.transport.log, "cache_remote={cache_remote}");
            assert!(grouped.transport.key_requests >= 8, "the remote keys were sent");
            assert_eq!(grouped.stats, per_key.stats, "cache_remote={cache_remote}");
        }
    }

    /// Reads over a random genome, everything drawn from `seed`: low- and
    /// high-quality substitutions, `N`s, reads shorter than a tile and
    /// lengths the stride does not divide, either strand handling.
    fn random_reads(seed: u64) -> (Vec<Read>, ReptileParams) {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = dnaseq::mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
            state % n
        };
        let p = ReptileParams {
            k: 6,
            tile_overlap: 3,
            canonical: draw(2) == 0,
            ..ReptileParams::for_tests()
        };
        let genome: Vec<u8> = (0..80 + draw(120)).map(|_| b"ACGT"[draw(4) as usize]).collect();
        let reads = (0..40 + draw(60))
            .map(|id| {
                let len = (4 + draw(40) as usize).min(genome.len());
                let at = draw((genome.len() - len + 1) as u64) as usize;
                let mut seq = genome[at..at + len].to_vec();
                let mut qual = vec![35u8; len];
                for _ in 0..draw(4) {
                    let pos = draw(len as u64) as usize;
                    seq[pos] = b"ACGTN"[draw(5) as usize];
                    qual[pos] = [4, 12, 30][draw(3) as usize];
                }
                Read::new(id + 1, seq, qual)
            })
            .collect();
        (reads, p)
    }

    /// A reads table over `reads`: the global count of every key their
    /// windows name.
    fn reads_table<K: Key>(
        mut table: Spectrum<K>,
        keys: impl Fn(&PrefetchKeys) -> &[K],
        reads: &[Read],
        p: &ReptileParams,
        global: &Spectrum<K>,
    ) -> Spectrum<K> {
        let mut named = PrefetchKeys::default();
        reads.iter().for_each(|r| enumerate_read_keys(r, p, &mut named));
        named.finish();
        for &key in keys(&named) {
            let key = Normalized::assume(key);
            table.add_count(key, global.count_at(key));
        }
        table
    }

    /// Rank `me`'s tiers under `heur` over the global spectrum: every
    /// tier a heuristic switches on answers with the global count, the
    /// way the built tables do for the keys routed to them.
    fn tiers_over<'a>(
        owners: &'a OwnerMap,
        me: usize,
        heur: &HeuristicConfig,
        hot_owners: &'a [bool],
        global: &'a LocalSpectra,
        mine: &[Read],
        p: &ReptileParams,
    ) -> Tiers<'a> {
        let reads = heur.keep_read_tables;
        Tiers {
            owners,
            me,
            group: heur.partial_group,
            hot_owners,
            kmers: KindTiers {
                replicated: heur.replicate_kmers.then_some(&global.kmers),
                local: &global.kmers,
                hot: Some(&global.kmers),
                reads: reads.then(|| {
                    let empty = KmerSpectrum::new(p.kmer_codec(), p.canonical);
                    reads_table(empty, |k| &k.kmers, mine, p, &global.kmers)
                }),
            },
            tiles: KindTiers {
                replicated: heur.replicate_tiles.then_some(&global.tiles),
                local: &global.tiles,
                hot: Some(&global.tiles),
                reads: reads.then(|| {
                    let empty = TileSpectrum::new(p.tile_codec(), p.canonical);
                    reads_table(empty, |k| &k.tiles, mine, p, &global.tiles)
                }),
            },
        }
    }

    /// `mine` corrected by `router` in chunks of growing, seed-drawn
    /// sizes: the bytes, and each read's outcome.
    fn correct_in_chunks(
        router: &mut LookupRouter<Scripted>,
        mine: &[Read],
        seed: u64,
        p: &ReptileParams,
    ) -> (Vec<Read>, Vec<ReadOutcome>) {
        let mut got = mine.to_vec();
        let mut outcomes = vec![None; got.len()];
        let mut at = 0;
        let mut chunk_len = 1 + seed as usize % 23;
        while at < got.len() {
            let end = (at + chunk_len).min(got.len());
            router.correct_chunk(&mut got[at..end], p, |i, outcome, degraded| {
                assert!(!degraded, "fault-free");
                assert!(outcomes[at + i].replace(outcome).is_none(), "read finished twice");
            });
            at = end;
            chunk_len = chunk_len * 2 + 1;
        }
        (got, outcomes.into_iter().map(Option::unwrap).collect())
    }

    /// Aggregate mode on the wire, fetch by fetch (a run of sends before
    /// the first await — the first wave, then each round): no single-key
    /// request, at most one batch per owner (more only past
    /// `MAX_BATCH_KEYS`, every one but the last full) and no key twice.
    fn batched_fetches(transport: &Scripted) -> Result<(), String> {
        use crate::protocol::MAX_BATCH_KEYS;
        if transport.key_requests > 0 {
            return Err(format!("{} single-key requests", transport.key_requests));
        }
        let (log, mut at) = (&transport.log, 0);
        while at < log.len() {
            let fetch: Vec<u64> = log[at..]
                .iter()
                .map_while(|e| match *e {
                    Event::Send { seq, attempt: 0, .. } => Some(seq),
                    _ => None,
                })
                .collect();
            at += fetch.len();
            at += log[at..].iter().take_while(|e| matches!(e, Event::Await { .. })).count();
            let mut batch_sizes: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
            let mut keys = PrefetchKeys::default();
            for seq in fetch {
                let Some(Event::Send { to, .. }) =
                    log.iter().find(|e| matches!(e, Event::Send { seq: s, .. } if *s == seq))
                else {
                    unreachable!("a logged send")
                };
                let batch = &transport.batches[&seq];
                batch_sizes.entry(*to).or_default().push(batch.len());
                keys.kmers.extend(&batch.kmers);
                keys.tiles.extend(&batch.tiles);
            }
            for (owner, sizes) in batch_sizes {
                if sizes[..sizes.len() - 1].iter().any(|&n| n != MAX_BATCH_KEYS) {
                    return Err(format!("{} batches to owner {owner} in one fetch", sizes.len()));
                }
            }
            let sent = keys.len();
            keys.finish();
            if keys.len() != sent {
                return Err(format!("{} keys sent twice in one fetch", sent - keys.len()));
            }
        }
        Ok(())
    }

    /// One exactness case: for every rank of `np`, `correct_chunk` over
    /// random chunks of the rank's reads against the sequential reference
    /// — `correct_read_with` over the router itself, read after read. In
    /// base mode the rounds give the same bytes, the same `ReadOutcome`s
    /// and the same `LookupStats`, whole; in aggregate mode the same bytes
    /// and `ReadOutcome`s, over batched fetches only.
    fn lockstep_case(
        seed: u64,
        np: usize,
        name: &str,
        heur: HeuristicConfig,
    ) -> Result<(), String> {
        let (reads, p) = random_reads(seed);
        let global = LocalSpectra::build(&reads, &p);
        let owners = OwnerMap::new(np, &p);
        let cfg = EngineConfig { heuristics: heur, ..EngineConfig::new(np, p) };
        let aggregate = EngineConfig {
            heuristics: HeuristicConfig { aggregate_lookups: true, ..heur },
            ..cfg.clone()
        };
        for me in 0..np {
            let mine: Vec<Read> = reads.iter().skip(me).step_by(np).cloned().collect();
            // hot shards: one other owner's keys come from a replica
            let hot_owners: Vec<bool> =
                (0..np).map(|o| name == "hot" && o == (me + 1) % np).collect();
            let router = |cfg| {
                let tiers = tiers_over(&owners, me, &heur, &hot_owners, &global, &mine, &p);
                let transport = scripted(&global.kmers, &global.tiles);
                LookupRouter::new(tiers, transport, cfg, RouterScratch::default())
            };
            let mut sequential = router(&cfg);
            let mut want = mine.clone();
            let mut scratch = reptile::WalkScratch::default();
            let want_outcomes: Vec<ReadOutcome> = want
                .iter_mut()
                .map(|read| correct_read_with(read, &mut sequential, &p, &mut scratch))
                .collect();

            let label = format!("seed {seed:#x} np {np} {name} rank {me}");
            let mut lockstep = router(&cfg);
            let mut batched = router(&aggregate);
            for (mode, router) in [("lockstep", &mut lockstep), ("aggregate", &mut batched)] {
                let (got, outcomes) = correct_in_chunks(router, &mine, seed, &p);
                if got != want {
                    return Err(format!("{label} {mode}: corrected bytes differ"));
                }
                if outcomes != want_outcomes {
                    return Err(format!("{label} {mode}: outcomes differ"));
                }
            }
            if lockstep.stats != sequential.stats {
                return Err(format!(
                    "{label}: stats differ\n lockstep   {:?}\n sequential {:?}",
                    lockstep.stats, sequential.stats
                ));
            }
            batched_fetches(&batched.transport).map_err(|e| format!("{label} aggregate: {e}"))?;
            if batched.stats.remote_total() != 0 {
                return Err(format!("{label} aggregate: {:?}", batched.stats));
            }
        }
        Ok(())
    }

    /// Lockstep base mode asks exactly what the sequential walk asks:
    /// identical bytes, outcomes and per-rank `LookupStats` over random
    /// reads × np × every heuristic set that shapes the routing order;
    /// aggregate mode over the same cases corrects identically with one
    /// deduplicated batch per owner per fetch.
    #[test]
    fn lockstep_rounds_equal_the_sequential_walk() {
        let base = HeuristicConfig::base();
        let read_tables = HeuristicConfig { keep_read_tables: true, ..base };
        let sets = [
            ("base", base),
            ("universal", HeuristicConfig { universal: true, ..base }),
            ("keep_read_tables", read_tables),
            ("cache_remote", HeuristicConfig { cache_remote: true, ..read_tables }),
            ("replicate_kmers", HeuristicConfig { replicate_kmers: true, ..base }),
            ("replicate_tiles", HeuristicConfig { replicate_tiles: true, ..base }),
            ("partial_group", HeuristicConfig { partial_group: 2, ..base }),
            ("hot", HeuristicConfig { hot_shard_k: 1, ..base }),
        ];
        for seed in 0..12u64 {
            let seed = dnaseq::mix64(seed);
            for np in [2, 3, 4] {
                for (name, heur) in &sets {
                    let result = std::panic::catch_unwind(|| lockstep_case(seed, np, name, *heur));
                    assert!(
                        matches!(result, Ok(Ok(()))),
                        "lockstep_case({seed:#x}, {np}, {name:?}): {result:?}"
                    );
                }
            }
        }
    }

    /// Every send of a base-mode round precedes the round's one await,
    /// which awaits every request of the round, in send order, and the
    /// round carries more than one request: the round trips overlap.
    #[test]
    fn a_round_sends_every_request_before_the_first_await() {
        let (reads, p) = random_reads(7);
        let global = LocalSpectra::build(&reads, &p);
        let owners = OwnerMap::new(3, &p);
        let cfg = EngineConfig::new(3, p);
        let tiers = tiers_over(&owners, 0, &cfg.heuristics, &[], &global, &reads, &p);
        let transport = scripted(&global.kmers, &global.tiles);
        let mut router = LookupRouter::new(tiers, transport, &cfg, RouterScratch::default());
        let mut chunk = reads.clone();
        router.correct_chunk(&mut chunk, &p, |_, _, _| {});
        let log = &router.transport.log;
        let mut rounds = 0;
        let mut at = 0;
        while at < log.len() {
            let sends: Vec<_> = log[at..]
                .iter()
                .map_while(|e| match *e {
                    Event::Send { to, seq, attempt: 0 } => Some((to, seq)),
                    _ => None,
                })
                .collect();
            assert!(!sends.is_empty(), "round {rounds}: an await before any send");
            let Some(Event::Await { pending, attempt: 0 }) = log.get(at + sends.len()) else {
                panic!("round {rounds}: no await after its sends");
            };
            assert_eq!(&sends, pending, "round {rounds}: each send awaited once, in order");
            at += sends.len() + 1;
            rounds += 1;
        }
        let sent = log.len() as u64 - rounds;
        assert_eq!(sent, router.stats.remote_messages);
        assert_eq!(sent, router.stats.remote_total(), "one message per remote lookup");
        assert!(sent > 2 * rounds, "{sent} requests in {rounds} rounds: no overlap");
    }
}
