//! Stress tests: many ranks, mixed traffic, no deadlocks, nothing lost.

use mpisim::{Source, TagSel, Universe};
use std::time::Duration;

/// How long a server waits on a quiet mailbox before looking again.
const POLL: Duration = Duration::from_millis(1);

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Every rank sends a known number of messages to pseudo-random peers
/// with pseudo-random tags; total received must equal total sent, and
/// per-pair FIFO must hold per tag stream.
#[test]
fn random_traffic_is_conserved() {
    const NP: usize = 16;
    const MSGS: usize = 300;
    let received = Universe::new(NP).run(|comm| {
        let me = comm.rank();
        // deterministic plan: every rank can compute everyone's sends
        let mut expected_to_me = 0u64;
        for src in 0..NP {
            for i in 0..MSGS {
                let h = mix((src as u64) << 32 | i as u64);
                if (h % NP as u64) as usize == me {
                    expected_to_me += 1;
                }
            }
        }
        // send phase
        for i in 0..MSGS {
            let h = mix((me as u64) << 32 | i as u64);
            let dst = (h % NP as u64) as usize;
            let tag = ((h >> 8) % 4) as u32;
            comm.send(dst, tag, (i as u64).to_le_bytes().to_vec());
        }
        // receive phase: drain exactly the expected number
        let mut got = 0u64;
        let mut last_seen: std::collections::HashMap<(usize, u32), u64> =
            std::collections::HashMap::new();
        while got < expected_to_me {
            let msg = comm.recv(Source::Any, TagSel::Any);
            let seq = u64::from_le_bytes(msg.payload[..8].try_into().unwrap());
            // FIFO within (src, tag): sequence numbers strictly increase
            if let Some(prev) = last_seen.insert((msg.src, msg.tag), seq) {
                assert!(seq > prev, "FIFO violated for ({}, {})", msg.src, msg.tag);
            }
            got += 1;
        }
        comm.barrier();
        let stray =
            comm.drain_tags_deadline(Source::Any, &[0, 1, 2, 3], Duration::ZERO, &mut vec![]);
        assert_eq!(stray, 0, "stray message");
        got
    });
    let total: u64 = received.iter().sum();
    assert_eq!(total, (NP * MSGS) as u64);
}

/// Request/response servers on every rank at once (the step IV pattern at
/// full mesh): every rank both serves and queries; termination via DONE
/// counting. This is the deadlock-prone shape — it must complete.
#[test]
fn full_mesh_request_response() {
    const NP: usize = 8;
    const QUERIES: usize = 120;
    const REQ: u32 = 1;
    const RESP: u32 = 2;
    const DONE: u32 = 3;
    let results = Universe::new(NP).run(|comm| {
        let me = comm.rank();
        let mut answers = Vec::new();
        let mut served = 0u64;
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                let mut done = 0;
                let mut served = 0u64;
                let (mut inbox, mut replies) = (Vec::new(), Vec::new());
                while done < NP {
                    comm.drain_tags_deadline(Source::Any, &[REQ, DONE], POLL, &mut inbox);
                    let Some(src) = inbox.first().map(|m| m.src) else { continue };
                    for m in inbox.drain(..) {
                        if m.tag == DONE {
                            done += 1;
                            continue;
                        }
                        let x = u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                        replies.push((RESP, (x * 3).to_le_bytes().to_vec()));
                        served += 1;
                    }
                    comm.send_many(src, &mut replies);
                }
                served
            });
            for i in 0..QUERIES {
                let peer = (me + 1 + i % (NP - 1)) % NP;
                comm.send(peer, REQ, (i as u64).to_le_bytes().to_vec());
                let resp = comm.recv(Source::Rank(peer), TagSel::Tag(RESP));
                answers.push(u64::from_le_bytes(resp.payload[..8].try_into().unwrap()));
            }
            for dst in 0..NP {
                comm.send(dst, DONE, Vec::new());
            }
            served = server.join().unwrap();
        });
        (answers, served)
    });
    let total_served: u64 = results.iter().map(|(_, s)| s).sum();
    assert_eq!(total_served, (NP * QUERIES) as u64);
    for (answers, _) in results {
        for (i, a) in answers.into_iter().enumerate() {
            assert_eq!(a, i as u64 * 3);
        }
    }
}

/// Every rank posts thousands of requests before it awaits the first
/// reply — base-mode Step IV keeping a whole round in flight, one
/// `send_many` per peer — while its server drains each requester's
/// backlog and answers it with one `send_many`. Correctness only: each
/// reply answers its own request, per-peer replies come back in request
/// order, and nothing is lost or left over.
#[test]
fn thousands_of_requests_in_flight_per_rank() {
    const NP: usize = 4;
    const POSTED: u64 = 2_000;
    const REQ: u32 = 1;
    const RESP: u32 = 2;
    const DONE: u32 = 3;
    Universe::new(NP).run(|comm| {
        let me = comm.rank();
        let peer_of = |i: u64| (me + 1 + (i as usize % (NP - 1))) % NP;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut done = 0;
                let (mut inbox, mut replies) = (Vec::new(), Vec::new());
                while done < NP {
                    comm.drain_tags_deadline(Source::Any, &[REQ, DONE], POLL, &mut inbox);
                    let Some(src) = inbox.first().map(|m| m.src) else { continue };
                    for m in inbox.drain(..) {
                        if m.tag == DONE {
                            done += 1;
                            continue;
                        }
                        let x = u64::from_le_bytes(m.payload[..8].try_into().unwrap());
                        replies.push((RESP, (x ^ 0xA5).to_le_bytes().to_vec()));
                    }
                    comm.send_many(src, &mut replies);
                }
            });
            let mut outbox: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); NP];
            for i in 0..POSTED {
                let x = (me as u64) << 32 | i;
                outbox[peer_of(i)].push((REQ, x.to_le_bytes().to_vec()));
            }
            for (peer, frames) in outbox.iter_mut().enumerate() {
                comm.send_many(peer, frames);
            }
            let mut inbox: Vec<Vec<u64>> = vec![Vec::new(); NP];
            for i in 0..POSTED {
                let peer = peer_of(i);
                if inbox[peer].is_empty() {
                    let mut got = Vec::new();
                    comm.drain_tags_deadline(Source::Rank(peer), &[RESP], Duration::MAX, &mut got);
                    let xs = got
                        .iter()
                        .rev()
                        .map(|m| u64::from_le_bytes(m.payload[..8].try_into().unwrap()));
                    inbox[peer] = xs.collect();
                }
                let x = inbox[peer].pop().expect("a drain takes at least one reply");
                assert_eq!(x ^ 0xA5, (me as u64) << 32 | i, "reply out of order");
            }
            for dst in 0..NP {
                comm.send(dst, DONE, Vec::new());
            }
        });
        comm.barrier();
        let stray =
            comm.drain_tags_deadline(Source::Any, &[REQ, RESP, DONE], Duration::ZERO, &mut vec![]);
        assert_eq!(stray, 0, "stray message");
    });
}

/// Collectives interleaved with p2p traffic.
#[test]
fn collectives_and_p2p_interleave() {
    const NP: usize = 12;
    let results = Universe::new(NP).run(|comm| {
        let me = comm.rank() as u64;
        let sum1 = comm.allreduce(me, |a, b| a + b);
        comm.send((comm.rank() + 1) % NP, 9, vec![me as u8]);
        let from_prev = comm.recv(Source::Any, TagSel::Tag(9)).payload[0] as usize;
        let gathered = comm.allgatherv(vec![from_prev]);
        let sum2 = comm.allreduce(me * 2, |a, b| a + b);
        (sum1, gathered, sum2)
    });
    let expect: u64 = (0..NP as u64).sum();
    for (sum1, gathered, sum2) in results {
        assert_eq!(sum1, expect);
        assert_eq!(sum2, 2 * expect);
        // gathered[r] = predecessor of r
        for (r, v) in gathered.into_iter().enumerate() {
            assert_eq!(v, vec![(r + NP - 1) % NP]);
        }
    }
}
