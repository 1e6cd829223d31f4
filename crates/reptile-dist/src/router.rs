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
use crate::owner::OwnerMap;
use crate::protocol::{batch_ranges, count_to_wire, wire_to_count, BatchResponse, LookupRequest};
use crate::report::LookupStats;
use crate::spectrum::{CountSpectrum, RankTables};
use dnaseq::Read;
use reptile::spectrum::{KmerSpectrum, TileSpectrum};
use reptile::{
    correct_in_waves, correct_read_with, Normalized, PrefetchKeys, ReadOutcome, ReptileParams,
    SpectrumAccess, WalkScratch, WaveCache, WaveScratch, WaveSource,
};

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
pub(crate) struct KindTiers<'a, S> {
    /// The whole pruned spectrum, under `replicate_kmers`/`_tiles`.
    pub(crate) replicated: Option<&'a S>,
    /// The table that answers for this rank's group: the merged group
    /// table under partial replication (§V), else the owned table.
    pub(crate) local: &'a S,
    /// Exact copies of the hot owners' tables (adaptive balancing).
    pub(crate) hot: Option<&'a S>,
    /// The reads table (`keep_read_tables`): global counts of the
    /// non-owned keys of this rank's reads, 0 = known absent. Owned by
    /// the router because `cache_remote` adds remote answers to it.
    pub(crate) reads: Option<S>,
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
    pub(crate) kmers: KindTiers<'a, KmerSpectrum>,
    /// Tile tables.
    pub(crate) tiles: KindTiers<'a, TileSpectrum>,
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
            kmers: KindTiers {
                replicated: tables.replicated_kmers.as_ref(),
                local: tables.group_kmers.as_ref().unwrap_or(&tables.hash_kmers),
                hot: tables.hot_kmers.as_ref(),
                reads: None,
            },
            tiles: KindTiers {
                replicated: tables.replicated_tiles.as_ref(),
                local: tables.group_tiles.as_ref().unwrap_or(&tables.hash_tiles),
                hot: tables.hot_tiles.as_ref(),
                reads: None,
            },
        }
    }
}

/// One key kind's share of [`LookupStats`].
pub(crate) struct KindCounters<'s> {
    local: &'s mut u64,
    remote: &'s mut u64,
    remote_misses: &'s mut u64,
}

/// A spectrum key kind — `u64` k-mer codes or `u128` tile codes: what
/// the router needs to know to treat the two alike.
pub(crate) trait Key: Copy {
    /// The table type that counts this kind.
    type Spectrum: CountSpectrum<Self> + 'static;
    /// The spectrum key of a code.
    fn normalize(self, owners: &OwnerMap) -> Normalized<Self>;
    /// The rank that owns a key.
    fn owner(key: Normalized<Self>, owners: &OwnerMap) -> usize;
    /// The single-key request for a key.
    fn request(key: Normalized<Self>) -> LookupRequest;
    /// This kind's tables.
    fn tiers<'t, 'a>(tiers: &'t mut Tiers<'a>) -> &'t mut KindTiers<'a, Self::Spectrum>;
    /// This kind's counters.
    fn counters(stats: &mut LookupStats) -> KindCounters<'_>;
}

impl Key for u64 {
    type Spectrum = KmerSpectrum;

    #[inline]
    fn normalize(self, owners: &OwnerMap) -> Normalized<u64> {
        owners.kmer_key(self)
    }

    #[inline]
    fn owner(key: Normalized<u64>, owners: &OwnerMap) -> usize {
        owners.kmer_owner_at(key)
    }

    fn request(key: Normalized<u64>) -> LookupRequest {
        LookupRequest::Kmer(key.key())
    }

    #[inline]
    fn tiers<'t, 'a>(tiers: &'t mut Tiers<'a>) -> &'t mut KindTiers<'a, KmerSpectrum> {
        &mut tiers.kmers
    }

    #[inline]
    fn counters(stats: &mut LookupStats) -> KindCounters<'_> {
        KindCounters {
            local: &mut stats.local_kmer_lookups,
            remote: &mut stats.remote_kmer_lookups,
            remote_misses: &mut stats.remote_kmer_misses,
        }
    }
}

impl Key for u128 {
    type Spectrum = TileSpectrum;

    #[inline]
    fn normalize(self, owners: &OwnerMap) -> Normalized<u128> {
        owners.tile_key(self)
    }

    #[inline]
    fn owner(key: Normalized<u128>, owners: &OwnerMap) -> usize {
        owners.tile_owner_at(key)
    }

    fn request(key: Normalized<u128>) -> LookupRequest {
        LookupRequest::Tile(key.key())
    }

    #[inline]
    fn tiers<'t, 'a>(tiers: &'t mut Tiers<'a>) -> &'t mut KindTiers<'a, TileSpectrum> {
        &mut tiers.tiles
    }

    #[inline]
    fn counters(stats: &mut LookupStats) -> KindCounters<'_> {
        KindCounters {
            local: &mut stats.local_tile_lookups,
            remote: &mut stats.remote_tile_lookups,
            remote_misses: &mut stats.remote_tile_misses,
        }
    }
}

/// Everything a router allocates while correcting, so that a caller
/// running many routers one after another (the virtual engine's logical
/// ranks) can hand the same buffers from one to the next.
#[derive(Default)]
pub(crate) struct RouterScratch {
    /// Aggregate mode: the wave driver's state, its fetched-count cache
    /// included, reused chunk after chunk.
    wave: WaveScratch,
    /// Aggregate mode: one wave's missing keys split by owning rank.
    wave_keys: Vec<PrefetchKeys>,
    /// Base mode: the window walk's buffers.
    walk: WalkScratch,
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
            return Ok(replicated.entry(key.key()).unwrap_or(0));
        }
        let owner = K::owner(key, owners);
        let in_group = if group > 1 { owner / group == me / group } else { owner == me };
        if in_group {
            *K::counters(stats).local += 1;
            return Ok(tiers.local.entry(key.key()).unwrap_or(0));
        }
        if let (Some(hot), Some(&true)) = (tiers.hot, hot_owners.get(owner)) {
            // exact copy of the hot owner's pruned table: the same count
            // a remote request would return
            *K::counters(stats).local += 1;
            stats.hot_shard_hits += 1;
            return Ok(hot.entry(key.key()).unwrap_or(0));
        }
        if let Some(count) = tiers.reads.as_ref().and_then(|reads| reads.entry(key.key())) {
            *K::counters(stats).local += 1;
            stats.cache_hits += 1;
            return Ok(count);
        }
        Err((key, owner))
    }

    /// The whole chain for one key: local tiers, else a round trip to
    /// the owner; absent at the owner and degraded both read 0.
    fn count<K: Key>(&mut self, code: K) -> u32 {
        let (key, owner) = match self.local(code) {
            Ok(count) => return count,
            Err(remote) => remote,
        };
        *K::counters(&mut self.stats).remote += 1;
        self.stats.remote_messages += 1;
        let seq = self.stamp();
        let count = match self.round_trip(owner, seq, Request::Key(K::request(key)), false, 1) {
            Some(Reply::Count(Some(count))) => count,
            Some(Reply::Count(None)) => {
                *K::counters(&mut self.stats).remote_misses += 1;
                0
            }
            None => 0,
            Some(other) => unreachable!("{other:?} in reply to a key request"),
        };
        if self.cache_remote {
            if let Some(reads) = &mut K::tiers(&mut self.tiers).reads {
                reads.add_entry(key.key(), count);
                self.stats.cached_answers += 1;
            }
        }
        count
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
    /// degraded)` once per read, as soon as it is finished. Base mode
    /// corrects read by read, every non-local lookup a round trip of its
    /// own; aggregate mode hands the chunk to the wave driver, which learns
    /// from the walk itself which counts to fetch and gets them through
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
        if self.aggregate {
            let mut wave = std::mem::take(&mut self.scratch.wave);
            let before = self.stats.keys_degraded;
            let waves = correct_in_waves(reads, params, &mut wave, self, |router, i, outcome| {
                done(i, outcome, router.stats.keys_degraded > before)
            });
            self.scratch.wave = wave;
            self.stats.add_wave_hits(&waves);
        } else {
            let mut walk = std::mem::take(&mut self.scratch.walk);
            for (i, read) in reads.iter_mut().enumerate() {
                let before = self.stats.keys_degraded;
                let outcome = correct_read_with(read, self, params, &mut walk);
                done(i, outcome, self.stats.keys_degraded > before);
            }
            self.scratch.walk = walk;
        }
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
}

impl<T: Transport> SpectrumAccess for LookupRouter<'_, T> {
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

    fn params() -> ReptileParams {
        ReptileParams::for_tests()
    }

    /// A k-mer and a tile spectrum holding `entries`.
    fn tables(kmers: &[(u64, u32)], tiles: &[(u128, u32)]) -> (KmerSpectrum, TileSpectrum) {
        let p = params();
        let mut k = KmerSpectrum::new(p.kmer_codec(), p.canonical);
        let mut t = TileSpectrum::new(p.tile_codec(), p.canonical);
        kmers.iter().for_each(|&(key, count)| k.add_entry(key, count));
        tiles.iter().for_each(|&(key, count)| t.add_entry(key, count));
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
        fn kind<S>(local: &S) -> KindTiers<'_, S> {
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
        reads: Option<&'t K::Spectrum>,
        cache_remote: bool,
        /// The count returned and every counter that moved.
        want: (u32, LookupStats),
    }

    /// One case per tier of the routing order, for either key kind: the
    /// nearest table that holds the key answers, and only that tier's
    /// counters move. `kind(local, remote, remote_misses)` is the key
    /// kind's share of the stats.
    fn routing_order<K: Key + TryFrom<u32>>(
        table: impl Fn(&[(K, u32)]) -> K::Spectrum,
        count_of: impl Fn(&mut LookupRouter<Scripted>, K) -> u32,
        kind: impl Fn(u64, u64, u64) -> LookupStats,
    ) where
        K::Spectrum: Clone,
    {
        let owners = OwnerMap::new(4, &params());
        let (mine, near) = (owned_by::<K>(&owners, 0, 1)[0], owned_by::<K>(&owners, 1, 1)[0]);
        let [far, absent] = owned_by::<K>(&owners, 2, 2)[..] else { unreachable!() };
        let holding = |count| table(&[(mine, count), (near, count), (far, count)]);
        let (replicated, local, hot, reads) = (holding(1), holding(2), holding(3), holding(4));
        let no_reads = table(&[]);
        // the owner's answer, whichever kind `K` is
        let mut remote = tables(&[], &[]);
        match K::request(far.normalize(&owners)) {
            LookupRequest::Kmer(code) => remote.0.add_entry(code, 5),
            LookupRequest::Tile(code) => remote.1.add_entry(code, 5),
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
}
