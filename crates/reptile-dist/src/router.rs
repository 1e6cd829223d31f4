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
//! * the **retry driver** ([`LookupRouter::round_trip`]): a request keeps
//!   its sequence number across attempts `0..=retry_budget`, each missed
//!   deadline is counted, each resend is counted, and a request that
//!   outlives the budget degrades to count 0. Single-key lookups, batch
//!   awaits and steal round trips all go through it;
//! * the **wave fetch** of aggregate mode: one wave's missing keys split
//!   by owner, every batch of the wave sent before the first reply is
//!   awaited, the fetched counts stored in the [`WaveCache`];
//! * the **round exchange** of base mode: one single-key request per
//!   non-resident lookup of the sequential walk, the whole round sent
//!   before the first reply is awaited;
//! * [`LookupRouter::correct_chunk`], the entry point of the threaded
//!   engine, the virtual engine and the serve plane.
//!
//! Two things differ between the engines and are inputs. [`Tiers`] says
//! which table holds a key: the threaded engine hands in a rank's real
//! tables, the virtual engine hands in the global spectrum for every tier
//! its heuristics switch on (a remote lookup there is a pure query of an
//! immutable table, so the owner's answer *is* the global one).
//! [`Transport`] moves a request and its reply: over the wire
//! (`engine_mt::WireTransport`) or through the cost model and the seeded
//! fault plan (`engine_virtual::ModelTransport`).

use crate::engine::EngineConfig;
use crate::heuristics::HeuristicConfig;
use crate::owner::{Key, OwnerMap};
use crate::protocol::{batch_ranges, count_to_wire, wire_to_count, BatchResponse, LookupRequest};
use crate::report::LookupStats;
use crate::spectrum::{KindTables, RankTables};
use dnaseq::{FxHashMap, Read};
use reptile::spectrum::{KmerSpectrum, Spectrum, TileSpectrum};
use reptile::{
    correct_in_waves, Normalized, PrefetchKeys, ReadOutcome, ReptileParams, SpectrumKey, WaveCache,
    WaveMode, WaveScratch, WaveSource,
};
use std::collections::hash_map::Entry;

/// One request of the Step IV service plane, before encoding.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Request<'a> {
    /// The count of one normalized key.
    Key(LookupRequest),
    /// The counts of one owner's share of a wave, in key order.
    Batch {
        /// Normalized k-mer keys.
        kmers: &'a [u64],
        /// Normalized tile keys.
        tiles: &'a [u128],
    },
    /// A read chunk off the back of the victim's queue.
    Steal,
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

/// What carries a request to its owner and the reply back. The router
/// numbers the requests and drives the attempts; a transport only moves
/// one attempt.
pub(crate) trait Transport {
    /// Put attempt `attempt` of request `seq` on its way to rank `to`.
    fn send(&mut self, to: usize, seq: u64, req: Request<'_>, attempt: u32);

    /// Wait out attempt `attempt`'s deadline for the reply to `seq` from
    /// rank `from`. `None` = the deadline passed; replies to any other
    /// sequence number are not this request's and never returned.
    fn recv(&mut self, from: usize, seq: u64, req: Request<'_>, attempt: u32) -> Option<Reply>;
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

/// One entry of a base-mode round, in ask order.
#[derive(Clone, Copy, Debug)]
enum Posted {
    /// A single-key request to `owner`.
    Key { owner: usize, req: LookupRequest },
    /// `cache_remote`: a key this round already requested, at the given
    /// entry — the reads-table hit the sequential walk would have had.
    Again(usize),
}

/// Everything a router allocates while correcting, so that a caller
/// running many routers one after another (the virtual engine's logical
/// ranks) can hand the same buffers from one to the next.
#[derive(Default)]
pub(crate) struct RouterScratch {
    /// The wave driver's state, its fetched-count cache included, reused
    /// chunk after chunk.
    wave: WaveScratch,
    /// Aggregate mode: one wave's missing keys split by owning rank.
    wave_keys: Vec<PrefetchKeys>,
    /// Base mode: the round being asked for.
    round: Vec<Posted>,
    /// Base mode under `cache_remote`: the round's entry for each key
    /// requested in it.
    requested: FxHashMap<LookupRequest, usize>,
}

/// The worker-side lookup chain of §III step IV over a [`Transport`].
pub(crate) struct LookupRouter<'a, T> {
    pub(crate) tiers: Tiers<'a>,
    pub(crate) transport: T,
    /// Correct chunks in fetch waves instead of key by key.
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

    fn stamp(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The lookup chain up to the point where it would leave the rank.
    /// `Err` names the key and the owner to ask.
    fn local<K: Key>(&mut self, code: K) -> Result<u32, (Normalized<K>, usize)> {
        let Tiers { owners, me, group, hot_owners, .. } = self.tiers;
        let key = code.normalize(owners);
        let tiers = K::tiers(&mut self.tiers);
        let stats = &mut self.stats;
        if let Some(replicated) = tiers.replicated {
            *K::counters(stats).local += 1;
            return Ok(replicated.count_at(key));
        }
        let owner = K::owner(key, owners);
        let in_group = if group > 1 { owner / group == me / group } else { owner == me };
        if in_group {
            *K::counters(stats).local += 1;
            return Ok(tiers.local.count_at(key));
        }
        if let (Some(hot), Some(&true)) = (tiers.hot, hot_owners.get(owner)) {
            // exact copy of the hot owner's pruned table: the same count
            // a remote request would return
            *K::counters(stats).local += 1;
            stats.hot_shard_hits += 1;
            return Ok(hot.count_at(key));
        }
        if let Some(count) = tiers.reads.as_ref().and_then(|reads| reads.get_at(key)) {
            *K::counters(stats).local += 1;
            stats.cache_hits += 1;
            return Ok(count);
        }
        Err((key, owner))
    }

    /// One lookup of base mode: the local tiers, else one single-key
    /// request to the owner queued for the round (`None`). Under
    /// `cache_remote` a key already requested this round is the
    /// reads-table hit it would be had the first request been answered
    /// before it was asked again, as the sequential walk does.
    fn ask<K: Key>(&mut self, code: K) -> Option<u32> {
        let (key, owner) = match self.local(code) {
            Ok(count) => return Some(count),
            Err(remote) => remote,
        };
        let req = K::request(key);
        let round = &mut self.scratch.round;
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

    /// The reply to single-key request `seq` (attempt 0 already sent),
    /// counted and cached like the sequential chain does; `None` =
    /// degraded. Absent at the owner reads 0.
    fn answer<K: Key>(&mut self, owner: usize, seq: u64, key: Normalized<K>) -> Option<u32> {
        let count = match self.round_trip(owner, seq, Request::Key(K::request(key)), true, 1) {
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

    /// The retry protocol for one request: send, await the reply stamped
    /// `seq`, resend under the same `seq` on every missed deadline (the
    /// transport backs the deadline off per attempt), and once the budget
    /// is spent give up — the request's `keys` degrade to "absent
    /// everywhere". `posted` says attempt 0 is already on its way (a wave
    /// sends all its batches before it awaits any).
    fn round_trip(
        &mut self,
        to: usize,
        seq: u64,
        req: Request<'_>,
        posted: bool,
        keys: u64,
    ) -> Option<Reply> {
        for attempt in 0..=self.retry_budget {
            if attempt > 0 {
                self.stats.requests_retried += 1;
            }
            if attempt > 0 || !posted {
                self.transport.send(to, seq, req, attempt);
            }
            match self.transport.recv(to, seq, req, attempt) {
                Some(reply) => return Some(reply),
                // only reachable with a configured deadline (or a modeled
                // loss): without one the transport waits for the answer
                None => self.stats.deadline_misses += 1,
            }
        }
        self.stats.keys_degraded += keys;
        None
    }

    /// One steal round trip: ask `victim` for a chunk off the back of
    /// its queue. `None` when the victim is drained — or when the retry
    /// budget ran out, which a thief treats the same way: stop stealing
    /// from that victim.
    pub(crate) fn steal_from(&mut self, victim: usize) -> Option<Vec<Read>> {
        let seq = self.stamp();
        match self.round_trip(victim, seq, Request::Steal, false, 0)? {
            Reply::Chunk(chunk) => {
                self.stats.chunks_stolen += u64::from(chunk.is_some());
                chunk
            }
            other => unreachable!("{other:?} in reply to a steal request"),
        }
    }

    /// Correct a chunk of reads in place, calling `done(index, outcome,
    /// degraded)` once per read, as soon as it is finished. The wave
    /// driver walks every read of the chunk in rounds. Base mode asks
    /// what the sequential walk asks, each non-resident lookup one
    /// single-key request, and sends a round's requests all before it
    /// awaits the first ([`WaveSource::exchange`]); aggregate mode learns
    /// from the walk which counts to fetch and gets them through
    /// [`WaveSource::fetch`] — no single-key request is ever sent.
    ///
    /// `degraded` says whether a count the read's walk saw may have been
    /// a degraded one: in base mode, one of its own lookups degraded; in
    /// aggregate mode, a key of the chunk had degraded by the time the
    /// read finished (a walk sees nothing fetched later).
    pub(crate) fn correct_chunk(
        &mut self,
        reads: &mut [Read],
        params: &ReptileParams,
        mut done: impl FnMut(usize, ReadOutcome, bool),
    ) {
        let aggregate = self.aggregate;
        let mode = if aggregate { WaveMode::Aggregate } else { WaveMode::Lockstep };
        let mut wave = std::mem::take(&mut self.scratch.wave);
        let before = self.stats.keys_degraded;
        let waves = correct_in_waves(reads, params, mode, &mut wave, self, |router, i, o, own| {
            done(i, o, own || aggregate && router.stats.keys_degraded > before)
        });
        self.scratch.wave = wave;
        self.stats.add_wave_hits(&waves);
    }
}

impl<T: Transport> WaveSource for LookupRouter<'_, T> {
    fn resident_kmer(&mut self, key: u64) -> Option<u32> {
        self.local(key).ok()
    }

    fn resident_tile(&mut self, key: u128) -> Option<u32> {
        self.local(key).ok()
    }

    /// One wave: split the missing keys by owning rank and fetch each
    /// owner's share with one vectorized round trip (more only past
    /// `MAX_BATCH_KEYS`, see [`batch_ranges`]). All batches go out before
    /// any reply is awaited: sends are buffered and owners always answer,
    /// so this cannot deadlock, and the owners work on the wave at once.
    /// Replies are matched by sequence number, so arrival order does not
    /// matter. A batch that exhausts its retry budget stores count 0 for
    /// every one of its keys — the paper's degradation semantics.
    fn fetch(&mut self, missing: &PrefetchKeys, cache: &mut WaveCache) {
        let mut per_owner = std::mem::take(&mut self.scratch.wave_keys);
        per_owner.resize_with(self.tiers.owners.np(), PrefetchKeys::default);
        self.tiers.owners.split_by_owner(missing, &mut per_owner);
        let mut sent = Vec::new();
        for (owner, keys) in per_owner.iter().enumerate() {
            for (k, tl) in batch_ranges(keys.kmers.len(), keys.tiles.len()) {
                let seq = self.stamp();
                let batch = Request::Batch {
                    kmers: &keys.kmers[k.clone()],
                    tiles: &keys.tiles[tl.clone()],
                };
                self.transport.send(owner, seq, batch, 0);
                self.stats.batches_sent += 1;
                self.stats.batched_keys += (k.len() + tl.len()) as u64;
                self.stats.remote_messages += 1;
                sent.push((owner, k, tl, seq));
            }
        }
        for (owner, k, tl, seq) in sent {
            let (kmers, tiles) = (&per_owner[owner].kmers[k], &per_owner[owner].tiles[tl]);
            let keys = (kmers.len() + tiles.len()) as u64;
            match self.round_trip(owner, seq, Request::Batch { kmers, tiles }, true, keys) {
                // counts normalized like the single-key path (key not
                // held by its owner → 0)
                Some(Reply::Batch(resp)) => {
                    debug_assert_eq!(resp.kmer_counts.len(), kmers.len());
                    debug_assert_eq!(resp.tile_counts.len(), tiles.len());
                    for (&key, &c) in kmers.iter().zip(&resp.kmer_counts) {
                        cache.put_kmer(key, wire_to_count(c).unwrap_or(0));
                    }
                    for (&key, &c) in tiles.iter().zip(&resp.tile_counts) {
                        cache.put_tile(key, wire_to_count(c).unwrap_or(0));
                    }
                }
                None => {
                    kmers.iter().for_each(|&key| cache.put_kmer(key, 0));
                    tiles.iter().for_each(|&key| cache.put_tile(key, 0));
                }
                Some(other) => unreachable!("{other:?} in reply to a batch request"),
            }
        }
        self.scratch.wave_keys = per_owner;
    }

    fn ask_kmer(&mut self, key: u64) -> Option<u32> {
        self.ask(key)
    }

    fn ask_tile(&mut self, key: u128) -> Option<u32> {
        self.ask(key)
    }

    /// One base-mode round: every queued request goes out, then each is
    /// awaited in turn, in queue order, under the retry protocol. Sends
    /// are buffered and owners always answer, so a round cannot deadlock
    /// however many requests it carries; replies are matched by sequence
    /// number, so arrival order does not matter.
    fn exchange(&mut self, answers: &mut Vec<Option<u32>>) {
        let mut round = std::mem::take(&mut self.scratch.round);
        self.scratch.requested.clear();
        let mut seqs = self.next_seq..;
        for posted in &round {
            if let Posted::Key { owner, req } = *posted {
                let seq = self.stamp();
                self.transport.send(owner, seq, Request::Key(req), 0);
            }
        }
        let start = answers.len();
        for posted in &round {
            let answer = match *posted {
                Posted::Key { owner, req } => {
                    let seq = seqs.next().expect("a sequence number per request");
                    match req {
                        LookupRequest::Kmer(key) => {
                            self.answer(owner, seq, Normalized::assume(key))
                        }
                        LookupRequest::Tile(key) => {
                            self.answer(owner, seq, Normalized::assume(key))
                        }
                    }
                }
                // not this read's own lookup: a cache hit never degrades
                Posted::Again(first) => Some(answers[start + first].unwrap_or(0)),
            };
            answers.push(answer);
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
        Send { to: usize, seq: u64, attempt: u32 },
        Recv { from: usize, seq: u64, attempt: u32 },
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
    }

    impl Transport for Scripted<'_> {
        fn send(&mut self, to: usize, seq: u64, _req: Request<'_>, attempt: u32) {
            self.log.push(Event::Send { to, seq, attempt });
        }

        fn recv(&mut self, from: usize, seq: u64, req: Request<'_>, attempt: u32) -> Option<Reply> {
            self.log.push(Event::Recv { from, seq, attempt });
            if attempt < self.lose {
                return None;
            }
            Some(match req {
                Request::Key(key) => Reply::Count(owner_count(key, self.kmers, self.tiles)),
                Request::Batch { kmers, tiles } => {
                    Reply::Batch(owner_batch(kmers, tiles, self.kmers, self.tiles))
                }
                Request::Steal => Reply::Chunk(self.chunk.clone()),
            })
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
                let transport = Scripted {
                    kmers: &remote.0,
                    tiles: &remote.1,
                    lose,
                    chunk: Some(chunk.clone()),
                    log: Vec::new(),
                };
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
                        let missing = PrefetchKeys { kmers: kmers.clone(), tiles: tiles.clone() };
                        let mut cache = WaveCache::default();
                        router.fetch(&missing, &mut cache);
                        let want = |c| Some(if answered { c } else { 0 });
                        assert_eq!(cache.kmer(kmers[0]), want(7), "{path} lose={lose}");
                        assert_eq!(cache.kmer(kmers[1]), want(9), "{path} lose={lose}");
                        assert_eq!(cache.kmer(kmers[2]), Some(0), "absent at the owner");
                        assert_eq!(cache.tile(tiles[0]), want(5), "{path} lose={lose}");
                        assert_eq!(cache.tile(tiles[1]), Some(0), "absent at the owner");
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

    /// A wave posts one batch per owner, all of them before it awaits the
    /// first reply, and counts them once.
    #[test]
    fn a_wave_sends_every_batch_before_the_first_await() {
        let owners = OwnerMap::new(3, &params());
        let mut missing = PrefetchKeys::default();
        for owner in [1, 2] {
            missing.kmers.extend(owned_by::<u64>(&owners, owner, 4));
            missing.tiles.extend(owned_by::<u128>(&owners, owner, 2));
        }
        let empty = tables(&[], &[]);
        let transport =
            Scripted { kmers: &empty.0, tiles: &empty.1, lose: 0, chunk: None, log: Vec::new() };
        let cfg = EngineConfig::new(3, params());
        let tiers = bare_tiers(&owners, 0, &empty);
        let mut router = LookupRouter::new(tiers, transport, &cfg, RouterScratch::default());
        router.fetch(&missing, &mut WaveCache::default());
        assert_eq!(
            router.transport.log,
            [
                Event::Send { to: 1, seq: 1, attempt: 0 },
                Event::Send { to: 2, seq: 2, attempt: 0 },
                Event::Recv { from: 1, seq: 1, attempt: 0 },
                Event::Recv { from: 2, seq: 2, attempt: 0 },
            ]
        );
        let s = router.stats;
        assert_eq!((s.batches_sent, s.remote_messages, s.batched_keys), (2, 2, 12));
        assert_eq!(s.remote_total(), 0, "a wave sends no single-key request");
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
            let transport = Scripted {
                kmers: &remote.0,
                tiles: &remote.1,
                lose: 0,
                chunk: None,
                log: Vec::new(),
            };
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

    /// One exactness case: for every rank of `np`, lockstep
    /// `correct_chunk` over random chunks of the rank's reads against the
    /// sequential reference — `correct_read_with` over the router itself,
    /// read after read — gives the same bytes, the same `ReadOutcome`s and
    /// the same `LookupStats`, whole.
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
        for me in 0..np {
            let mine: Vec<Read> = reads.iter().skip(me).step_by(np).cloned().collect();
            // hot shards: one other owner's keys come from a replica
            let hot_owners: Vec<bool> =
                (0..np).map(|o| name == "hot" && o == (me + 1) % np).collect();
            let router = |tiers| {
                let transport = Scripted {
                    kmers: &global.kmers,
                    tiles: &global.tiles,
                    lose: 0,
                    chunk: None,
                    log: Vec::new(),
                };
                LookupRouter::new(tiers, transport, &cfg, RouterScratch::default())
            };
            let tiers = || tiers_over(&owners, me, &heur, &hot_owners, &global, &mine, &p);
            let mut sequential = router(tiers());
            let mut want = mine.clone();
            let mut scratch = reptile::WalkScratch::default();
            let want_outcomes: Vec<ReadOutcome> = want
                .iter_mut()
                .map(|read| correct_read_with(read, &mut sequential, &p, &mut scratch))
                .collect();

            let mut lockstep = router(tiers());
            let mut got = mine.clone();
            let mut outcomes = vec![None; got.len()];
            let mut at = 0;
            let mut chunk_len = 1 + seed as usize % 23;
            while at < got.len() {
                let end = (at + chunk_len).min(got.len());
                lockstep.correct_chunk(&mut got[at..end], &p, |i, outcome, degraded| {
                    assert!(!degraded, "fault-free");
                    assert!(outcomes[at + i].replace(outcome).is_none(), "read finished twice");
                });
                at = end;
                chunk_len = chunk_len * 2 + 1;
            }
            let label = format!("seed {seed:#x} np {np} {name} rank {me}");
            if got != want {
                return Err(format!("{label}: corrected bytes differ"));
            }
            if outcomes.into_iter().map(Option::unwrap).ne(want_outcomes) {
                return Err(format!("{label}: outcomes differ"));
            }
            if lockstep.stats != sequential.stats {
                return Err(format!(
                    "{label}: stats differ\n lockstep   {:?}\n sequential {:?}",
                    lockstep.stats, sequential.stats
                ));
            }
        }
        Ok(())
    }

    /// Lockstep base mode asks exactly what the sequential walk asks:
    /// identical bytes, outcomes and per-rank `LookupStats` over random
    /// reads × np × every heuristic set that shapes the routing order.
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

    /// Every send of a base-mode round precedes the round's first await,
    /// each request is awaited once, in send order, and the round carries
    /// more than one request: the round trips overlap.
    #[test]
    fn a_round_sends_every_request_before_the_first_await() {
        let (reads, p) = random_reads(7);
        let global = LocalSpectra::build(&reads, &p);
        let owners = OwnerMap::new(3, &p);
        let cfg = EngineConfig::new(3, p);
        let tiers = tiers_over(&owners, 0, &cfg.heuristics, &[], &global, &reads, &p);
        let transport = Scripted {
            kmers: &global.kmers,
            tiles: &global.tiles,
            lose: 0,
            chunk: None,
            log: Vec::new(),
        };
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
            let awaits: Vec<_> = log[at + sends.len()..]
                .iter()
                .map_while(|e| match *e {
                    Event::Recv { from, seq, attempt: 0 } => Some((from, seq)),
                    _ => None,
                })
                .collect();
            assert!(!sends.is_empty(), "round {rounds}: an await before any send");
            assert_eq!(sends, awaits, "round {rounds}: each send awaited once, in order");
            at += sends.len() + awaits.len();
            rounds += 1;
        }
        let sent = log.len() as u64 / 2;
        assert_eq!(sent, router.stats.remote_messages);
        assert_eq!(sent, router.stats.remote_total(), "one message per remote lookup");
        assert!(sent > 2 * rounds, "{sent} requests in {rounds} rounds: no overlap");
    }
}
