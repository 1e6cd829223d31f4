//! Property tests for the correction-phase wire protocol: single-key
//! requests (tagged and universal) and the aggregate-mode batch
//! request/response pair must round-trip for arbitrary key mixes —
//! including the sequence-number header every message carries so the
//! retry machinery can pair duplicated/reordered responses with their
//! requests and discard stale ones.

use proptest::prelude::*;
use reptile_dist::protocol::{
    decode_response, encode_batch_request, encode_response, BatchRequest, BatchResponse,
    LookupRequest, MAX_BATCH_KEYS, TAG_BATCH_REQ, TAG_BATCH_RESP, TAG_UNIVERSAL,
};

/// What a sender puts on the wire for `req`: `(tag, payload)`.
fn encode_batch(req: &BatchRequest, seq: u64) -> (u32, Vec<u8>) {
    encode_batch_request(seq, &req.kmers, &req.tiles)
}

fn lookup_request() -> impl Strategy<Value = LookupRequest> {
    prop_oneof![
        any::<u64>().prop_map(LookupRequest::Kmer),
        any::<u128>().prop_map(LookupRequest::Tile),
    ]
}

/// Wire counts: any non-negative `i64` plus the `-1` sentinel.
fn wire_count() -> impl Strategy<Value = i64> {
    prop_oneof![Just(-1i64), 0..=i64::MAX]
}

proptest! {
    #[test]
    fn tagged_encoding_round_trips(req in lookup_request(), seq in any::<u64>()) {
        let (tag, payload) = req.encode_tagged(seq);
        prop_assert_eq!(LookupRequest::decode(tag, &payload), (seq, req));
        prop_assert_eq!(payload.len(), req.wire_bytes(false));
    }

    #[test]
    fn universal_encoding_round_trips(req in lookup_request(), seq in any::<u64>()) {
        let (tag, payload) = req.encode_universal(seq);
        prop_assert_eq!(tag, TAG_UNIVERSAL);
        prop_assert_eq!(LookupRequest::decode(tag, &payload), (seq, req));
        prop_assert_eq!(payload.len(), req.wire_bytes(true));
    }

    #[test]
    fn response_round_trips(seq in any::<u64>(), count in proptest::option::of(any::<u32>())) {
        prop_assert_eq!(decode_response(&encode_response(seq, count)), (seq, count));
    }

    /// A retry is a resend of the *same* seq: the encoder must be a pure
    /// function of (seq, request) so the duplicate is byte-identical and
    /// the server's answer to either copy satisfies the client.
    #[test]
    fn resends_are_byte_identical(req in lookup_request(), seq in any::<u64>()) {
        prop_assert_eq!(req.encode_tagged(seq), req.encode_tagged(seq));
        prop_assert_eq!(req.encode_universal(seq), req.encode_universal(seq));
    }

    /// The dedup header: distinct seqs must produce distinct wire bytes
    /// for the same logical request, or the client could not tell a stale
    /// response from a current one.
    #[test]
    fn seq_header_distinguishes_attempts(
        req in lookup_request(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(req.encode_tagged(a).1, req.encode_tagged(b).1);
        let (sa, _) = LookupRequest::decode(req.encode_tagged(a).0, &req.encode_tagged(a).1);
        prop_assert_eq!(sa, a);
    }

    #[test]
    fn batch_request_round_trips(
        seq in any::<u64>(),
        kmers in prop::collection::vec(any::<u64>(), 0..50),
        tiles in prop::collection::vec(any::<u128>(), 0..50),
    ) {
        let req = BatchRequest { kmers, tiles };
        let (tag, payload) = encode_batch(&req, seq);
        prop_assert_eq!(tag, TAG_BATCH_REQ);
        prop_assert_eq!(payload.len(), req.wire_bytes());
        prop_assert_eq!(BatchRequest::decode(&payload), (seq, req));
    }

    #[test]
    fn batch_response_round_trips(
        seq in any::<u64>(),
        kmer_counts in prop::collection::vec(wire_count(), 0..50),
        tile_counts in prop::collection::vec(wire_count(), 0..50),
    ) {
        let resp = BatchResponse { kmer_counts, tile_counts };
        let (tag, payload) = resp.encode(seq);
        prop_assert_eq!(tag, TAG_BATCH_RESP);
        prop_assert_eq!(payload.len(), resp.wire_bytes());
        prop_assert_eq!(BatchResponse::decode(&payload), (seq, resp));
    }

    /// Batch responses to different attempts carry their own seqs; the
    /// client's stash keys on the decoded seq, so it must survive the
    /// round trip regardless of payload shape.
    #[test]
    fn batch_seq_survives_any_payload(
        seq in any::<u64>(),
        counts in prop::collection::vec(wire_count(), 0..80),
    ) {
        let resp = BatchResponse { kmer_counts: counts, tile_counts: Vec::new() };
        let (decoded_seq, decoded) = BatchResponse::decode(&resp.encode(seq).1);
        prop_assert_eq!(decoded_seq, seq);
        prop_assert_eq!(decoded, resp);
    }

    /// Splitting a batch at any point and re-joining the decoded halves
    /// loses nothing — the invariant the prefetch splitter relies on.
    #[test]
    fn split_batches_cover_the_same_keys(
        kmers in prop::collection::vec(any::<u64>(), 0..40),
        tiles in prop::collection::vec(any::<u128>(), 0..40),
        cut in 0usize..81,
    ) {
        let cut_k = cut.min(kmers.len());
        let cut_t = cut.saturating_sub(kmers.len()).min(tiles.len());
        let first = BatchRequest {
            kmers: kmers[..cut_k].to_vec(),
            tiles: tiles[..cut_t].to_vec(),
        };
        let second = BatchRequest {
            kmers: kmers[cut_k..].to_vec(),
            tiles: tiles[cut_t..].to_vec(),
        };
        let (_, a) = BatchRequest::decode(&encode_batch(&first, 1).1);
        let (_, b) = BatchRequest::decode(&encode_batch(&second, 2).1);
        let rejoined: Vec<u64> = a.kmers.iter().chain(&b.kmers).copied().collect();
        let rejoined_t: Vec<u128> = a.tiles.iter().chain(&b.tiles).copied().collect();
        prop_assert_eq!(rejoined, kmers);
        prop_assert_eq!(rejoined_t, tiles);
    }
}

#[test]
fn empty_batch_round_trips() {
    let req = BatchRequest::default();
    assert!(req.is_empty());
    assert_eq!(BatchRequest::decode(&encode_batch(&req, 0).1), (0, req));
    let resp = BatchResponse::default();
    assert_eq!(BatchResponse::decode(&resp.encode(0).1), (0, resp));
}

#[test]
fn max_batch_round_trips() {
    let req = BatchRequest {
        kmers: (0..MAX_BATCH_KEYS as u64 / 2).collect(),
        tiles: (0..MAX_BATCH_KEYS as u128 / 2).collect(),
    };
    assert_eq!(req.len(), MAX_BATCH_KEYS);
    assert_eq!(BatchRequest::decode(&encode_batch(&req, u64::MAX).1), (u64::MAX, req));
}
