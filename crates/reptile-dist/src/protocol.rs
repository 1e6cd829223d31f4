//! Correction-phase wire protocol.
//!
//! During step IV a worker thread that misses a k-mer/tile locally "sends
//! a message to the owning rank, requesting the count of the k-mer or
//! tile. The communication thread of each rank probes any incoming
//! messages – based on the probe, it first finds out the nature of the
//! request ... The response is either the count of the k-mer or tile or a
//! response like (−1) implying that the k-mer or tile does not exist"
//! (paper §III step IV).
//!
//! Two request encodings exist, matching the paper's *universal*
//! heuristic:
//!
//! * **tagged** (base mode): the request kind travels in the message tag
//!   (`TAG_KMER_REQ` / `TAG_TILE_REQ`), the payload is just the code;
//! * **universal**: one tag (`TAG_UNIVERSAL`), the payload carries a kind
//!   byte + the code — bigger message, no per-tag probing at the server.
//!
//! Responses carry an `i64` count, `-1` for "does not exist" (we could
//! use 0, but we keep the paper's sentinel on the wire and normalize at
//! the caller).
//!
//! Beyond the paper, the `aggregate_lookups` heuristic adds a
//! **batched** encoding ([`BatchRequest`]/[`BatchResponse`]): all keys a
//! chunk's first wave, or one of its rounds, needs from one owner travel
//! in a single vectorized message (`n × u64` k-mer keys + `n × u128` tile
//! keys), and the owner answers with one message of `n × i64` counts in
//! key order, keeping the `-1` sentinel per key. This is the request-aggregation idiom of
//! diBELLA / Extreme-Scale Metagenome Assembly (PAPERS.md) applied to
//! the Reptile step IV.
//!
//! ## Sequence numbers, retries, dedup
//!
//! Every request and response leads with a `u64` **sequence number**.
//! The requesting worker stamps each request with a fresh per-rank seq;
//! the server is stateless and idempotent (lookups are pure reads of an
//! immutable table) and simply echoes the seq into its response. Under a
//! fault plan the worker re-sends an unanswered request **with the same
//! seq** after its deadline (exponential backoff). Requests are awaited
//! in seq order, so a response to an earlier seq answers one already
//! resolved or given up (duplicated, retried, late) and is discarded,
//! and a response to a later seq is parked until its await comes round —
//! the rule that dedups responses and survives reordering. The fault-free path uses the identical encoding
//! (one protocol, no mode split); a run without deadline simply blocks
//! on the first response, which always has the expected seq because the
//! per-pair channel is FIFO and nothing is lost.
//!
//! Termination is a collective concern, not a p2p one: after its last
//! read, each worker enters a barrier, then raises its rank's local
//! shutdown flag; the comm thread takes requests with
//! [`mpisim::Comm::drain_tags_deadline`] and exits once the flag is up
//! and its mailbox holds no pending request. (Earlier revisions counted
//! per-rank `DONE` messages, which cannot survive a fault plan that may
//! drop, duplicate, or never deliver them.)

//!
//! ## Work stealing
//!
//! The adaptive balancer (`HeuristicConfig::steal_chunks`) rides the same
//! service plane with three more tags: a thief that drained its own
//! correction queue sends a seq-stamped [`TAG_STEAL_REQ`] to a loaded
//! victim, whose comm thread pops a whole read chunk off the *back* of
//! its pending queue and ships it in a [`StealResponse`] (or an empty
//! response when nothing is left). The thief confirms receipt with a
//! [`TAG_STEAL_ACK`]. The victim caches each `(thief, seq)` response so a
//! retried request gets the **same chunk** back (idempotent resend, no
//! read is ever handed to two thieves), and under a fault plan re-adopts
//! any handed-out-but-unacknowledged chunk before the final barrier —
//! at-least-once delivery, with duplicates collapsed by the id-ordered
//! output merge.

use dnaseq::Read;
use mpisim::message::{WireReader, WireWriter};

/// Tag for k-mer count requests (base mode).
pub const TAG_KMER_REQ: u32 = 0x10;
/// Tag for tile count requests (base mode).
pub const TAG_TILE_REQ: u32 = 0x11;
/// Tag for universal-mode requests (kind inside the payload).
pub const TAG_UNIVERSAL: u32 = 0x12;
/// Tag for count responses.
pub const TAG_RESP: u32 = 0x13;
/// Tag for batched (aggregated) key requests.
pub const TAG_BATCH_REQ: u32 = 0x15;
/// Tag for batched count responses.
pub const TAG_BATCH_RESP: u32 = 0x16;
/// Tag for work-steal chunk requests (adaptive balancing).
pub const TAG_STEAL_REQ: u32 = 0x17;
/// Tag for steal responses: a whole read chunk, or "nothing left".
pub const TAG_STEAL_RESP: u32 = 0x18;
/// Tag for steal acknowledgements (thief confirms chunk receipt).
pub const TAG_STEAL_ACK: u32 = 0x19;

/// Maximum keys (k-mers + tiles) per batch message; larger key sets are
/// split so a single request cannot grow unboundedly.
pub const MAX_BATCH_KEYS: usize = 1 << 16;

/// A decoded lookup request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LookupRequest {
    /// K-mer count request (normalized code).
    Kmer(u64),
    /// Tile count request (normalized code).
    Tile(u128),
}

impl LookupRequest {
    /// Encode for base (tagged) mode: `(tag, payload)`.
    pub fn encode_tagged(&self, seq: u64) -> (u32, Vec<u8>) {
        let mut w = WireWriter::with_capacity(24);
        w.put_u64(seq);
        let tag = match *self {
            LookupRequest::Kmer(code) => {
                w.put_u64(code);
                TAG_KMER_REQ
            }
            LookupRequest::Tile(code) => {
                w.put_u128(code);
                TAG_TILE_REQ
            }
        };
        (tag, w.finish())
    }

    /// Encode for universal mode: `(TAG_UNIVERSAL, payload)` with the
    /// kind byte after the seq header.
    pub fn encode_universal(&self, seq: u64) -> (u32, Vec<u8>) {
        let mut w = WireWriter::with_capacity(25);
        w.put_u64(seq);
        match *self {
            LookupRequest::Kmer(code) => {
                w.put_u8(0);
                w.put_u64(code);
            }
            LookupRequest::Tile(code) => {
                w.put_u8(1);
                w.put_u128(code);
            }
        }
        (TAG_UNIVERSAL, w.finish())
    }

    /// Decode a request delivered with `tag`: `(seq, request)`.
    pub fn decode(tag: u32, payload: &[u8]) -> (u64, LookupRequest) {
        let mut r = WireReader::new(payload);
        let seq = r.get_u64();
        let req = match tag {
            TAG_KMER_REQ => LookupRequest::Kmer(r.get_u64()),
            TAG_TILE_REQ => LookupRequest::Tile(r.get_u128()),
            TAG_UNIVERSAL => match r.get_u8() {
                0 => LookupRequest::Kmer(r.get_u64()),
                1 => LookupRequest::Tile(r.get_u128()),
                k => panic!("unknown universal request kind {k}"),
            },
            t => panic!("not a request tag: {t:#x}"),
        };
        (seq, req)
    }

    /// Wire size of this request under the given mode, for the cost
    /// model: the 8 B seq header plus the code (plus the universal kind
    /// byte).
    pub fn wire_bytes(&self, universal: bool) -> usize {
        let code = match *self {
            LookupRequest::Kmer(_) => 8,
            LookupRequest::Tile(_) => 16,
        };
        8 + if universal { code + 1 } else { code }
    }
}

/// Encode a count response: seq echo + the paper's `-1` sentinel for
/// "nonexistent".
pub fn encode_response(seq: u64, count: Option<u32>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(RESPONSE_BYTES);
    w.put_u64(seq);
    w.put_i64(count_to_wire(count));
    w.finish()
}

/// Decode a count response back to `(seq, Option<count>)`.
pub fn decode_response(payload: &[u8]) -> (u64, Option<u32>) {
    let mut r = WireReader::new(payload);
    let seq = r.get_u64();
    (seq, wire_to_count(r.get_i64()))
}

/// Wire size of a response: 8 B seq echo + 8 B count.
pub const RESPONSE_BYTES: usize = 16;

/// Map a table lookup onto the wire sentinel (`-1` = nonexistent).
#[inline]
pub fn count_to_wire(count: Option<u32>) -> i64 {
    count.map(|c| c as i64).unwrap_or(-1)
}

/// Map the wire sentinel back to a table lookup result.
#[inline]
pub fn wire_to_count(v: i64) -> Option<u32> {
    if v < 0 {
        None
    } else {
        Some(v as u32)
    }
}

/// Encode a batch request straight from borrowed key lists (the sender
/// keeps its keys in reused buffers; [`BatchRequest`] is what the owner
/// decodes): `(TAG_BATCH_REQ, payload)`.
pub fn encode_batch_request(seq: u64, kmers: &[u64], tiles: &[u128]) -> (u32, Vec<u8>) {
    assert!(kmers.len() + tiles.len() <= MAX_BATCH_KEYS, "batch exceeds MAX_BATCH_KEYS; split it");
    let mut w = WireWriter::with_capacity(16 + 8 * kmers.len() + 16 * tiles.len());
    w.put_u64(seq);
    w.put_u64s(kmers);
    w.put_u128s(tiles);
    (TAG_BATCH_REQ, w.finish())
}

/// Split one owner's share of a fetch — `kmers` k-mer keys and `tiles`
/// tile keys — into batches of at most [`MAX_BATCH_KEYS`] keys, k-mers
/// first: the `(k-mer range, tile range)` of each batch. Both engines
/// peel with this, so their batch counts and per-edge message indices
/// agree.
pub fn batch_ranges(
    kmers: usize,
    tiles: usize,
) -> impl Iterator<Item = (std::ops::Range<usize>, std::ops::Range<usize>)> {
    let (mut k0, mut t0) = (0, 0);
    std::iter::from_fn(move || {
        if k0 == kmers && t0 == tiles {
            return None;
        }
        let k1 = kmers.min(k0 + MAX_BATCH_KEYS);
        let t1 = tiles.min(t0 + MAX_BATCH_KEYS - (k1 - k0));
        let batch = (k0..k1, t0..t1);
        (k0, t0) = (k1, t1);
        Some(batch)
    })
}

/// A batched key request: the keys one fetch of a chunk of reads (its
/// first wave, or one round) needs from a single owning rank, in one
/// message.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchRequest {
    /// Normalized k-mer keys (the sender keeps them deduplicated).
    pub kmers: Vec<u64>,
    /// Normalized tile keys.
    pub tiles: Vec<u128>,
}

impl BatchRequest {
    /// Total keys in the batch.
    pub fn len(&self) -> usize {
        self.kmers.len() + self.tiles.len()
    }

    /// Whether the batch carries no keys.
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty() && self.tiles.is_empty()
    }

    /// Decode a batch request payload: `(seq, request)`.
    pub fn decode(payload: &[u8]) -> (u64, BatchRequest) {
        let mut r = WireReader::new(payload);
        let seq = r.get_u64();
        (seq, BatchRequest { kmers: r.get_u64s(), tiles: r.get_u128s() })
    }

    /// Wire size: 8 B seq + two `u32` length prefixes + 8 B per k-mer +
    /// 16 B per tile (for the cost model and capacity hints).
    pub fn wire_bytes(&self) -> usize {
        16 + 8 * self.kmers.len() + 16 * self.tiles.len()
    }
}

/// A batched count response: one `i64` per requested key, in the
/// request's key order, with the paper's `-1` sentinel kept per key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchResponse {
    /// Counts for the request's k-mer keys, in order.
    pub kmer_counts: Vec<i64>,
    /// Counts for the request's tile keys, in order.
    pub tile_counts: Vec<i64>,
}

impl BatchResponse {
    /// Encode to an owned payload: `(TAG_BATCH_RESP, payload)`.
    pub fn encode(&self, seq: u64) -> (u32, Vec<u8>) {
        let mut w = WireWriter::with_capacity(self.wire_bytes());
        w.put_u64(seq);
        w.put_i64s(&self.kmer_counts);
        w.put_i64s(&self.tile_counts);
        (TAG_BATCH_RESP, w.finish())
    }

    /// Decode a batch response payload: `(seq, response)`.
    pub fn decode(payload: &[u8]) -> (u64, BatchResponse) {
        let mut r = WireReader::new(payload);
        let seq = r.get_u64();
        (seq, BatchResponse { kmer_counts: r.get_i64s(), tile_counts: r.get_i64s() })
    }

    /// Wire size: 8 B seq + two `u32` length prefixes + 8 B per count.
    pub fn wire_bytes(&self) -> usize {
        16 + 8 * (self.kmer_counts.len() + self.tile_counts.len())
    }
}

/// Encode a steal request: just the seq header (the thief's identity is
/// the message source).
pub fn encode_steal_request(seq: u64) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(8);
    w.put_u64(seq);
    w.finish()
}

/// Decode a steal request back to its seq.
pub fn decode_steal_request(payload: &[u8]) -> u64 {
    WireReader::new(payload).get_u64()
}

/// Encode a steal acknowledgement: the seq of the response being acked.
pub fn encode_steal_ack(seq: u64) -> Vec<u8> {
    encode_steal_request(seq)
}

/// Decode a steal acknowledgement.
pub fn decode_steal_ack(payload: &[u8]) -> u64 {
    decode_steal_request(payload)
}

/// A steal response: one whole read chunk off the back of the victim's
/// pending queue, or `None` when the victim has nothing left to give.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StealResponse {
    /// The stolen chunk; `None` = queue drained, stop asking this victim.
    pub chunk: Option<Vec<Read>>,
}

impl StealResponse {
    /// Encode to an owned payload: `(TAG_STEAL_RESP, payload)`.
    pub fn encode(&self, seq: u64) -> (u32, Vec<u8>) {
        let mut w = WireWriter::with_capacity(self.wire_bytes());
        w.put_u64(seq);
        match &self.chunk {
            None => {
                w.put_u8(0);
            }
            Some(reads) => {
                w.put_u8(1);
                w.put_u32(reads.len() as u32);
                for read in reads {
                    w.put_u64(read.id);
                    w.put_bytes(&read.seq);
                    w.put_bytes(&read.qual);
                }
            }
        }
        (TAG_STEAL_RESP, w.finish())
    }

    /// Decode a steal response payload: `(seq, response)`.
    pub fn decode(payload: &[u8]) -> (u64, StealResponse) {
        let mut r = WireReader::new(payload);
        let seq = r.get_u64();
        let chunk = match r.get_u8() {
            0 => None,
            _ => {
                let n = r.get_u32() as usize;
                let mut reads = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = r.get_u64();
                    let seq_bytes = r.get_bytes().to_vec();
                    let qual = r.get_bytes().to_vec();
                    reads.push(Read::from_parts(id, seq_bytes, qual));
                }
                Some(reads)
            }
        };
        (seq, StealResponse { chunk })
    }

    /// Wire size: seq + flag (+ count + per-read id and length-prefixed
    /// sequence/quality bytes), for the cost model.
    pub fn wire_bytes(&self) -> usize {
        match &self.chunk {
            None => 9,
            Some(reads) => 13 + reads.iter().map(|r| 24 + 2 * r.len()).sum::<usize>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a sender puts on the wire for `req`: `(tag, payload)`.
    fn encode_batch(req: &BatchRequest, seq: u64) -> (u32, Vec<u8>) {
        encode_batch_request(seq, &req.kmers, &req.tiles)
    }

    #[test]
    fn tagged_round_trip() {
        for req in [LookupRequest::Kmer(0xABCD), LookupRequest::Tile(1u128 << 90)] {
            let (tag, payload) = req.encode_tagged(99);
            assert_eq!(LookupRequest::decode(tag, &payload), (99, req));
        }
    }

    #[test]
    fn universal_round_trip() {
        for req in [LookupRequest::Kmer(7), LookupRequest::Tile(u128::MAX)] {
            let (tag, payload) = req.encode_universal(u64::MAX);
            assert_eq!(tag, TAG_UNIVERSAL);
            assert_eq!(LookupRequest::decode(tag, &payload), (u64::MAX, req));
        }
    }

    #[test]
    fn universal_messages_are_bigger() {
        let k = LookupRequest::Kmer(1);
        assert_eq!(k.wire_bytes(false), 16);
        assert_eq!(k.wire_bytes(true), 17);
        assert_eq!(k.encode_tagged(0).1.len(), 16);
        assert_eq!(k.encode_universal(0).1.len(), 17);
        let t = LookupRequest::Tile(1);
        assert_eq!(t.encode_tagged(0).1.len(), 24);
        assert_eq!(t.encode_universal(0).1.len(), 25);
    }

    #[test]
    fn response_sentinel() {
        assert_eq!(decode_response(&encode_response(3, Some(42))), (3, Some(42)));
        assert_eq!(decode_response(&encode_response(0, Some(0))), (0, Some(0)));
        assert_eq!(decode_response(&encode_response(7, None)), (7, None));
        assert_eq!(encode_response(0, None).len(), RESPONSE_BYTES);
    }

    #[test]
    fn seq_survives_every_encoding() {
        // the dedup header: whatever seq goes in must come back out
        for seq in [0u64, 1, 0xFFFF_FFFF, u64::MAX] {
            let (t, p) = LookupRequest::Kmer(5).encode_tagged(seq);
            assert_eq!(LookupRequest::decode(t, &p).0, seq);
            let (t, p) = LookupRequest::Tile(5).encode_universal(seq);
            assert_eq!(LookupRequest::decode(t, &p).0, seq);
            assert_eq!(decode_response(&encode_response(seq, Some(1))).0, seq);
            let (_, p) = encode_batch(&BatchRequest { kmers: vec![1], tiles: vec![] }, seq);
            assert_eq!(BatchRequest::decode(&p).0, seq);
            let (_, p) = BatchResponse { kmer_counts: vec![1], tile_counts: vec![] }.encode(seq);
            assert_eq!(BatchResponse::decode(&p).0, seq);
        }
    }

    #[test]
    #[should_panic(expected = "not a request tag")]
    fn decode_rejects_bad_tag() {
        let _ = LookupRequest::decode(TAG_RESP, &[0; 16]);
    }

    #[test]
    fn batch_request_round_trip() {
        let req = BatchRequest {
            kmers: vec![0, 1, u64::MAX, 0xDEAD_BEEF],
            tiles: vec![u128::MAX, 1u128 << 100],
        };
        let (tag, payload) = encode_batch(&req, 11);
        assert_eq!(tag, TAG_BATCH_REQ);
        assert_eq!(payload.len(), req.wire_bytes());
        assert_eq!(BatchRequest::decode(&payload), (11, req.clone()));
        assert_eq!(req.len(), 6);
        assert!(!req.is_empty());
    }

    #[test]
    fn batch_response_round_trip() {
        let resp = BatchResponse { kmer_counts: vec![-1, 0, 42], tile_counts: vec![7, -1] };
        let (tag, payload) = resp.encode(5);
        assert_eq!(tag, TAG_BATCH_RESP);
        assert_eq!(payload.len(), resp.wire_bytes());
        assert_eq!(BatchResponse::decode(&payload), (5, resp));
    }

    #[test]
    fn empty_batch_round_trip() {
        let req = BatchRequest::default();
        assert!(req.is_empty());
        let (_, payload) = encode_batch(&req, 0);
        assert_eq!(payload.len(), 16, "seq header + two empty length prefixes");
        assert_eq!(BatchRequest::decode(&payload), (0, req));
        let resp = BatchResponse::default();
        let (_, rp) = resp.encode(0);
        assert_eq!(BatchResponse::decode(&rp), (0, resp));
    }

    #[test]
    fn max_batch_is_encodable() {
        let req = BatchRequest { kmers: (0..MAX_BATCH_KEYS as u64).collect(), tiles: vec![] };
        let (_, payload) = encode_batch(&req, 1);
        assert_eq!(payload.len(), 16 + 8 * MAX_BATCH_KEYS);
        assert_eq!(BatchRequest::decode(&payload).1.kmers.len(), MAX_BATCH_KEYS);
    }

    #[test]
    #[should_panic(expected = "batch exceeds MAX_BATCH_KEYS")]
    fn oversized_batch_rejected() {
        let req = BatchRequest { kmers: vec![0; MAX_BATCH_KEYS], tiles: vec![1] };
        let _ = encode_batch(&req, 0);
    }

    #[test]
    fn steal_request_and_ack_round_trip() {
        for seq in [0u64, 17, u64::MAX] {
            assert_eq!(decode_steal_request(&encode_steal_request(seq)), seq);
            assert_eq!(decode_steal_ack(&encode_steal_ack(seq)), seq);
        }
        assert_eq!(encode_steal_request(1).len(), 8);
    }

    #[test]
    fn steal_response_round_trip() {
        let chunk = vec![
            Read::new(41, b"ACGTACGT".to_vec(), vec![30; 8]),
            Read::new(42, b"TTTTN".to_vec(), vec![2; 5]),
        ];
        let resp = StealResponse { chunk: Some(chunk) };
        let (tag, payload) = resp.encode(9);
        assert_eq!(tag, TAG_STEAL_RESP);
        assert_eq!(payload.len(), resp.wire_bytes());
        assert_eq!(StealResponse::decode(&payload), (9, resp));
        // empty chunk (victim handing over a zero-read chunk) is distinct
        // from "nothing left"
        let empty = StealResponse { chunk: Some(vec![]) };
        let (_, p) = empty.encode(3);
        assert_eq!(StealResponse::decode(&p), (3, empty));
        let none = StealResponse { chunk: None };
        let (_, p) = none.encode(4);
        assert_eq!(p.len(), none.wire_bytes());
        assert_eq!(StealResponse::decode(&p), (4, none));
    }

    #[test]
    fn steal_tags_are_distinct() {
        let tags = [
            TAG_KMER_REQ,
            TAG_TILE_REQ,
            TAG_UNIVERSAL,
            TAG_RESP,
            TAG_BATCH_REQ,
            TAG_BATCH_RESP,
            TAG_STEAL_REQ,
            TAG_STEAL_RESP,
            TAG_STEAL_ACK,
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn sentinel_helpers() {
        assert_eq!(count_to_wire(None), -1);
        assert_eq!(count_to_wire(Some(0)), 0);
        assert_eq!(wire_to_count(-1), None);
        assert_eq!(wire_to_count(5), Some(5));
        assert_eq!(wire_to_count(count_to_wire(Some(u32::MAX))), Some(u32::MAX));
    }
}
