//! Per-rank communicator handles and point-to-point messaging.
//!
//! Semantics follow MPI:
//!
//! * messages between a fixed (src, dst) pair are delivered in send order;
//! * `recv` matches on `(Source, TagSel)` selectors, where either side
//!   may be a wildcard (`MPI_ANY_SOURCE`, `MPI_ANY_TAG`); a wildcard
//!   takes the earliest-arrived matching message;
//! * a [`Comm`] may be used from several threads of its rank concurrently
//!   (the worker + communication thread pair of step IV).
//!
//! A rank's mailbox keeps its pending messages in one FIFO bucket per
//! `(source, tag)`, each message stamped with its arrival number: an
//! exact selector takes its bucket's head without scanning other traffic,
//! a wildcard or tag set the earliest head among the buckets it matches.
//! A blocked receive registers its selector and parks; a send wakes only
//! the waiters whose selector matches the new message, so a reply wakes
//! the worker and a request the communication thread, never both.
//!
//! The hand-off is batched below the message count: [`Comm::send_many`]
//! enqueues a run of frames to one destination under one lock, each
//! still its own message with its own fault decision, and
//! [`Comm::drain_tags_deadline`] takes every pending match from one
//! sender under one lock. A round of R requests to k owners thus takes
//! about k locks a side, not R.

use crate::collectives::CollectiveState;
use crate::fault::{FaultDecision, FaultPlan};
use crate::message::Message;
use crate::stats::{RankStats, SendTally};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Source selector for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Match any sender (`MPI_ANY_SOURCE`).
    Any,
    /// Match one specific rank.
    Rank(usize),
}

/// Tag selector for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagSel {
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
    /// Match one specific tag.
    Tag(u32),
}

impl Source {
    #[inline]
    fn matches(self, src: usize) -> bool {
        match self {
            Source::Any => true,
            Source::Rank(r) => r == src,
        }
    }
}

/// The tags a receive accepts: any, or a set (one tag is a set of one).
#[derive(Clone, Copy)]
enum Tags<'a> {
    Any,
    Set(&'a [u32]),
}

impl Tags<'_> {
    #[inline]
    fn matches(self, tag: u32) -> bool {
        match self {
            Tags::Any => true,
            Tags::Set(tags) => tags.contains(&tag),
        }
    }
}

impl TagSel {
    fn tags(&self) -> Tags<'_> {
        match self {
            TagSel::Any => Tags::Any,
            TagSel::Tag(tag) => Tags::Set(std::slice::from_ref(tag)),
        }
    }
}

/// What a receive matches.
#[derive(Clone, Copy)]
struct Selector<'a> {
    src: Source,
    tags: Tags<'a>,
}

/// Tag sets up to this size are matched exactly by a waiting receive's
/// wake-up filter; a larger set is woken by any tag and re-checks.
const WAIT_TAGS: usize = 8;

/// A blocked receive, as a sender sees it: what it matches and whom to
/// wake.
struct Waiter {
    id: u64,
    src: Source,
    /// `None` = any tag.
    tags: Option<([u32; WAIT_TAGS], usize)>,
    thread: Thread,
}

impl Waiter {
    fn matches(&self, src: usize, tag: u32) -> bool {
        self.src.matches(src) && self.tags.is_none_or(|(tags, n)| tags[..n].contains(&tag))
    }
}

/// A pending message and its arrival number in this mailbox.
struct Pending {
    arrival: u64,
    msg: Message,
}

/// The pending messages of one `(source, tag)` stream, oldest first.
struct Bucket {
    tag: u32,
    queue: VecDeque<Pending>,
}

/// A mailbox's state, under its lock.
struct Slots {
    /// Per source rank, one bucket per tag that rank has sent here.
    from: Vec<Vec<Bucket>>,
    /// Arrival number of the next message.
    arrivals: u64,
    /// Receives parked on this mailbox.
    waiters: Vec<Waiter>,
    next_waiter: u64,
}

impl Slots {
    /// `(source, bucket)` of the earliest-arrived pending message that
    /// `sel` matches.
    fn find(&self, sel: Selector) -> Option<(usize, usize)> {
        let sources = match sel.src {
            Source::Any => 0..self.from.len(),
            Source::Rank(r) => r..r + 1,
        };
        let mut best: Option<(u64, usize, usize)> = None;
        for src in sources {
            for (b, bucket) in self.from[src].iter().enumerate() {
                if let Some(head) = bucket.queue.front() {
                    if sel.tags.matches(bucket.tag) && best.is_none_or(|(a, ..)| head.arrival < a) {
                        best = Some((head.arrival, src, b));
                    }
                }
            }
        }
        best.map(|(_, src, b)| (src, b))
    }

    fn take(&mut self, (src, b): (usize, usize)) -> Message {
        self.from[src][b].queue.pop_front().expect("found bucket is non-empty").msg
    }

    /// Enqueue `msg` from `src`. A reordered message swaps places (and
    /// arrival numbers) with the previous pending message of its bucket,
    /// the only reordering a matcher can observe; a duplicate arrives
    /// right after it. Returns whether a swap happened.
    fn push(&mut self, src: usize, msg: Message, reorder: bool, duplicate: bool) -> bool {
        let arrival = self.arrivals;
        self.arrivals += 1 + u64::from(duplicate);
        let buckets = &mut self.from[src];
        let b = match buckets.iter().position(|b| b.tag == msg.tag) {
            Some(b) => b,
            None => {
                buckets.push(Bucket { tag: msg.tag, queue: VecDeque::new() });
                buckets.len() - 1
            }
        };
        let queue = &mut buckets[b].queue;
        let copy = duplicate.then(|| msg.clone());
        let swapped = match queue.back_mut() {
            Some(prev) if reorder => {
                let earlier = std::mem::replace(&mut prev.arrival, arrival);
                queue.insert(queue.len() - 1, Pending { arrival: earlier, msg });
                true
            }
            _ => {
                queue.push_back(Pending { arrival, msg });
                false
            }
        };
        if let Some(msg) = copy {
            queue.push_back(Pending { arrival: arrival + 1, msg });
        }
        swapped
    }

    fn register(&mut self, sel: Selector) -> u64 {
        let id = self.next_waiter;
        self.next_waiter += 1;
        let tags = match sel.tags {
            Tags::Set(set) if set.len() <= WAIT_TAGS => {
                let mut tags = [0; WAIT_TAGS];
                tags[..set.len()].copy_from_slice(set);
                Some((tags, set.len()))
            }
            _ => None,
        };
        self.waiters.push(Waiter { id, src: sel.src, tags, thread: std::thread::current() });
        id
    }

    /// Drop waiter `id` if no sender has taken it out yet.
    fn unregister(&mut self, id: u64) {
        if let Some(i) = self.waiters.iter().position(|w| w.id == id) {
            self.waiters.swap_remove(i);
        }
    }

    /// Take out the next waiter a message from `src` with `tag` would
    /// satisfy.
    fn take_waiter(&mut self, src: usize, tag: u32) -> Option<Thread> {
        let i = self.waiters.iter().position(|w| w.matches(src, tag))?;
        Some(self.waiters.swap_remove(i).thread)
    }
}

pub(crate) struct Mailbox {
    slots: Mutex<Slots>,
}

impl Mailbox {
    fn new(np: usize) -> Mailbox {
        Mailbox {
            slots: Mutex::new(Slots {
                from: (0..np).map(|_| Vec::new()).collect(),
                arrivals: 0,
                waiters: Vec::new(),
                next_waiter: 0,
            }),
        }
    }

    /// Block until `sel` matches a pending message (or `timeout` passes:
    /// `None`), then apply `f` to it under the lock. Parks, never spins:
    /// a sender of a matching message wakes this thread. The clock is
    /// read only once the receive has to wait, and a timeout too long to
    /// reach (`Duration::MAX`) waits forever. Also returns how often the
    /// lock was taken.
    fn wait<R>(
        &self,
        sel: Selector,
        timeout: Duration,
        f: impl FnOnce(&mut Slots, (usize, usize)) -> R,
    ) -> (Option<R>, u64) {
        let mut slots = self.slots.lock();
        let mut locks = 1;
        let mut deadline = None;
        loop {
            if let Some(at) = slots.find(sel) {
                return (Some(f(&mut slots, at)), locks);
            }
            let left = match *deadline.get_or_insert_with(|| Instant::now().checked_add(timeout)) {
                None => None,
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return (None, locks),
                },
            };
            let id = slots.register(sel);
            drop(slots);
            match left {
                None => std::thread::park(),
                Some(left) => std::thread::park_timeout(left),
            }
            slots = self.slots.lock();
            locks += 1;
            slots.unregister(id);
        }
    }
}

/// A sender's hold on one destination mailbox for the length of a send
/// call: the lock is taken for the first frame that reaches the mailbox
/// and kept for the frames after it, and the receivers they match are
/// woken only once it is let go — at the end of the call, or before a
/// delay or stall fault puts the sender to sleep.
struct Hold<'a> {
    mailbox: &'a Mailbox,
    slots: Option<MutexGuard<'a, Slots>>,
    woken: Vec<Thread>,
    tally: SendTally,
}

impl<'a> Hold<'a> {
    fn new(mailbox: &'a Mailbox) -> Hold<'a> {
        Hold { mailbox, slots: None, woken: Vec::new(), tally: SendTally::default() }
    }

    /// Enqueue `msg` (see [`Slots::push`]) and take out the waiters it
    /// satisfies.
    fn push(&mut self, msg: Message, reorder: bool, duplicate: bool) {
        let Hold { mailbox, slots, woken, tally } = self;
        let slots = slots.get_or_insert_with(|| {
            tally.locks += 1;
            mailbox.slots.lock()
        });
        let (src, tag) = (msg.src, msg.tag);
        tally.reordered += u64::from(slots.push(src, msg, reorder, duplicate));
        tally.duplicated += u64::from(duplicate);
        while let Some(thread) = slots.take_waiter(src, tag) {
            woken.push(thread);
        }
    }

    /// Drop the lock, then wake the receivers the frames so far matched.
    fn release(&mut self) {
        self.slots = None;
        self.tally.wakes += self.woken.len() as u64;
        for thread in self.woken.drain(..) {
            thread.unpark();
        }
    }
}

pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) collectives: CollectiveState,
    pub(crate) stats: Vec<RankStats>,
    pub(crate) fault: FaultPlan,
    /// Per-edge message counters (row-major `src*np + dst`) feeding the
    /// deterministic per-message fault decisions.
    edge_seq: Vec<AtomicU64>,
    /// Per-rank operation counters (sends + collectives) for the stall
    /// fault's every-n-th schedule.
    op_seq: Vec<AtomicU64>,
}

impl Shared {
    pub(crate) fn new(np: usize, fault: FaultPlan) -> Shared {
        Shared {
            mailboxes: (0..np).map(|_| Mailbox::new(np)).collect(),
            collectives: CollectiveState::new(np),
            stats: (0..np).map(|_| RankStats::default()).collect(),
            fault,
            edge_seq: (0..np * np).map(|_| AtomicU64::new(0)).collect(),
            op_seq: (0..np).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Apply the stall fault for one operation on `rank` (send or
    /// collective). No-op without a matching stall spec.
    pub(crate) fn stall_tick(&self, rank: usize) {
        if let Some(pause) = self.stall_due(rank) {
            std::thread::sleep(pause);
        }
    }

    /// Count one operation on `rank` against the stall fault's schedule:
    /// the pause this operation must serve, if any (already counted).
    fn stall_due(&self, rank: usize) -> Option<Duration> {
        let st = self.fault.stall.filter(|st| st.rank == rank)?;
        let n = self.op_seq[rank].fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(st.every).then(|| {
            self.stats[rank].count_fault_stalled();
            st.pause
        })
    }
}

/// A rank's communicator: the only way ranks exchange data.
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
}

impl Comm {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>) -> Comm {
        Comm { rank, shared }
    }

    /// This rank's id (`MPI_Comm_rank`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks (`MPI_Comm_size`).
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.mailboxes.len()
    }

    /// Send `payload` to `dst` with `tag`. Buffered & non-blocking, like a
    /// small-message `MPI_Send` in practice. A [`send_many`] of one frame.
    ///
    /// [`send_many`]: Comm::send_many
    pub fn send(&self, dst: usize, tag: u32, payload: Vec<u8>) {
        let bytes = payload.len();
        self.post(dst, std::iter::once((tag, payload)), 1, bytes);
    }

    /// Send every `(tag, payload)` frame of `frames` to `dst`, in order,
    /// and leave `frames` empty. Each frame is its own message, exactly as
    /// if it went through its own [`send`](Comm::send) — the same fault
    /// decision, the same counts — but the whole call takes the
    /// destination mailbox's lock once and wakes the receivers its frames
    /// match once, after letting go of it (compare a round of `MPI_Isend`s
    /// that an MPI runtime coalesces below the application).
    ///
    /// If the universe carries a [`FaultPlan`], it is applied per frame,
    /// in order: the frame may be dropped, duplicated, reordered (ahead
    /// of the previous pending message of its `(source, tag)` stream), or
    /// delayed, and frames on a severed edge (either endpoint killed) are
    /// discarded. A delayed or stalled frame first lets go of the mailbox,
    /// so the frames before it are delivered before the sender sleeps.
    pub fn send_many(&self, dst: usize, frames: &mut Vec<(u32, Vec<u8>)>) {
        let bytes = frames.iter().map(|(_, payload)| payload.len()).sum();
        let msgs = frames.len();
        self.post(dst, frames.drain(..), msgs, bytes);
    }

    /// The one send path: count the traffic, then decide and enqueue each
    /// frame under one [`Hold`] on `dst`'s mailbox.
    fn post(
        &self,
        dst: usize,
        frames: impl Iterator<Item = (u32, Vec<u8>)>,
        msgs: usize,
        bytes: usize,
    ) {
        let shared = &*self.shared;
        let stats = &shared.stats[self.rank];
        stats.count_send(msgs, bytes);
        let fault = &shared.fault;
        let mut hold = Hold::new(&shared.mailboxes[dst]);
        for (tag, payload) in frames {
            let mut d = FaultDecision::default();
            if !fault.is_none() {
                if let Some(pause) = shared.stall_due(self.rank) {
                    hold.release();
                    std::thread::sleep(pause);
                }
                if fault.severed(self.rank, dst) {
                    hold.tally.dropped += 1;
                    continue;
                }
                d = fault.decide(self.rank, dst, self.edge_tick(dst));
                if d.delayed {
                    hold.release();
                    hold.tally.delayed += 1;
                    std::thread::sleep(fault.delay);
                }
                if d.dropped {
                    hold.tally.dropped += 1;
                    continue;
                }
            }
            hold.push(Message { src: self.rank, tag, payload }, d.reordered, d.duplicated);
        }
        hold.release();
        stats.count_sent(&hold.tally);
    }

    fn edge_tick(&self, dst: usize) -> u64 {
        let np = self.shared.mailboxes.len();
        self.shared.edge_seq[self.rank * np + dst].fetch_add(1, Ordering::Relaxed)
    }

    fn mailbox(&self) -> &Mailbox {
        &self.shared.mailboxes[self.rank]
    }

    /// Blocking receive of the first pending message matching the
    /// selectors (`MPI_Recv`).
    pub fn recv(&self, src: Source, tag: TagSel) -> Message {
        let sel = Selector { src, tags: tag.tags() };
        let (msg, locks) = self.mailbox().wait(sel, Duration::MAX, Slots::take);
        let msg = msg.expect("no deadline");
        self.shared.stats[self.rank].count_recv(1, msg.payload.len(), locks);
        msg
    }

    /// Take every pending message from one source over a *set* of tags,
    /// waiting at most `timeout` for the first (`Duration::MAX` waits
    /// forever). The first is the earliest-arrived message `src` and
    /// `tags` match; the rest are every other pending message from *its*
    /// sender that carries one of `tags`, appended to `out` in arrival
    /// order under the same lock. It never waits for more than the first.
    /// Returns how many it took: 0 once `timeout` passed with none.
    ///
    /// This is how step IV's communication thread takes a requester's
    /// whole backlog in one call without consuming other threads' traffic
    /// (it leaves count responses to the worker), answers it, and still
    /// notices its shutdown flag on a quiet mailbox; and how a worker
    /// takes every reply an owner has sent it. An MPI code expresses it
    /// as an `MPI_Iprobe` loop over the tag list followed by `MPI_Recv`s.
    pub fn drain_tags_deadline(
        &self,
        src: Source,
        tags: &[u32],
        timeout: Duration,
        out: &mut Vec<Message>,
    ) -> usize {
        let tags = Tags::Set(tags);
        let before = out.len();
        let (bytes, locks) = self.mailbox().wait(Selector { src, tags }, timeout, |slots, at| {
            let from = Selector { src: Source::Rank(at.0), tags };
            let mut bytes = 0;
            let mut next = Some(at);
            while let Some(at) = next {
                let msg = slots.take(at);
                bytes += msg.payload.len();
                out.push(msg);
                next = slots.find(from);
            }
            bytes
        });
        let taken = out.len() - before;
        self.shared.stats[self.rank].count_recv(taken, bytes.unwrap_or(0), locks);
        taken
    }

    /// Snapshot this rank's traffic counters.
    pub fn stats(&self) -> crate::stats::RankStatsSnapshot {
        self.shared.stats[self.rank].snapshot()
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RankStatsSnapshot;
    use crate::universe::Universe;

    /// Every message pending at `comm`, earliest arrival first, taken
    /// without waiting.
    fn take_pending(comm: &Comm) -> Vec<Message> {
        let any = Selector { src: Source::Any, tags: Tags::Any };
        std::iter::from_fn(|| {
            let (src, tag) = {
                let slots = comm.mailbox().slots.lock();
                let (src, b) = slots.find(any)?;
                (src, slots.from[src][b].tag)
            };
            Some(comm.recv(Source::Rank(src), TagSel::Tag(tag)))
        })
        .collect()
    }

    #[test]
    fn ring_pass() {
        let results = Universe::new(4).run(|comm| {
            let next = (comm.rank() + 1) % comm.size();
            comm.send(next, 0, vec![comm.rank() as u8]);
            let msg = comm.recv(Source::Any, TagSel::Any);
            (msg.src, msg.payload[0] as usize)
        });
        for (rank, (src, val)) in results.into_iter().enumerate() {
            let prev = (rank + 3) % 4;
            assert_eq!(src, prev);
            assert_eq!(val, prev);
        }
    }

    #[test]
    fn per_pair_fifo_order() {
        let results = Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..100u8 {
                    comm.send(1, 0, vec![i]);
                }
                Vec::new()
            } else {
                (0..100).map(|_| comm.recv(Source::Rank(0), TagSel::Tag(0)).payload[0]).collect()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<u8>>());
    }

    #[test]
    fn tag_selection_skips_non_matching() {
        let results = Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"seven".to_vec());
                comm.send(1, 9, b"nine".to_vec());
                (Vec::new(), Vec::new())
            } else {
                // Receive tag 9 first even though tag 7 arrived first.
                let nine = comm.recv(Source::Any, TagSel::Tag(9)).payload;
                let seven = comm.recv(Source::Any, TagSel::Tag(7)).payload;
                (nine, seven)
            }
        });
        assert_eq!(results[1].0, b"nine");
        assert_eq!(results[1].1, b"seven");
    }

    #[test]
    fn multithreaded_rank_worker_plus_comm_thread() {
        // Mimic step IV: rank 0 runs a worker thread sending requests and a
        // comm thread answering rank 1's requests concurrently.
        let results = Universe::new(2).run(|comm| {
            const REQ: u32 = 1;
            const RESP: u32 = 2;
            const SHUTDOWN: u32 = 3;
            const POLL: Duration = Duration::from_millis(1);
            let me = comm.rank();
            let peer = 1 - me;
            let mut answered = 0u32;
            let mut got = Vec::new();
            std::thread::scope(|s| {
                // communication thread: answer until shutdown. It must
                // receive only the tags it owns — an ANY_TAG receive would
                // also take RESP messages addressed to the worker.
                let server = s.spawn(|| {
                    let mut count = 0;
                    let (mut inbox, mut replies) = (Vec::new(), Vec::new());
                    loop {
                        comm.drain_tags_deadline(Source::Any, &[REQ, SHUTDOWN], POLL, &mut inbox);
                        let Some(src) = inbox.first().map(|m| m.src) else { continue };
                        let mut shutdown = false;
                        for m in inbox.drain(..) {
                            match m.tag {
                                REQ => {
                                    replies.push((RESP, vec![m.payload[0] * 2]));
                                    count += 1;
                                }
                                SHUTDOWN => shutdown = true,
                                _ => unreachable!("drain_tags_deadline filtered"),
                            }
                        }
                        comm.send_many(src, &mut replies);
                        if shutdown {
                            break;
                        }
                    }
                    count
                });
                // worker thread: issue 50 requests to the peer
                let worker = s.spawn(|| {
                    let mut results = Vec::new();
                    for i in 0..50u8 {
                        comm.send(peer, REQ, vec![i]);
                        let resp = comm.recv(Source::Rank(peer), TagSel::Tag(RESP));
                        results.push(resp.payload[0]);
                    }
                    results
                });
                got = worker.join().unwrap();
                // both workers done before shutting down servers
                comm.barrier();
                comm.send(peer, SHUTDOWN, Vec::new());
                answered = server.join().unwrap();
            });
            (got, answered)
        });
        for (got, answered) in results {
            assert_eq!(got, (0..50).map(|i| i * 2).collect::<Vec<u8>>());
            assert_eq!(answered, 50);
        }
    }

    #[test]
    fn drain_times_out_then_delivers() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                // nothing pending: must time out
                let mut got = Vec::new();
                let t0 = Instant::now();
                let ms20 = Duration::from_millis(20);
                assert_eq!(comm.drain_tags_deadline(Source::Any, &[4], ms20, &mut got), 0);
                assert!(t0.elapsed() >= ms20);
                comm.barrier();
                // sender released: must deliver well within the deadline
                let n = comm.drain_tags_deadline(Source::Rank(0), &[4], Duration::MAX, &mut got);
                assert_eq!(n, 1, "one message sent after barrier");
                assert_eq!(got[0].payload, vec![7]);
            } else {
                comm.barrier();
                comm.send(1, 4, vec![7]);
            }
        });
    }

    /// A drain takes the first match's sender's whole backlog over the
    /// tag set, in arrival order, and nothing from anyone else.
    #[test]
    fn drain_tags_deadline_takes_one_senders_backlog() {
        Universe::new(3).run(|comm| {
            if comm.rank() == 1 {
                let mut got = Vec::new();
                let t0 = Instant::now();
                let ms10 = Duration::from_millis(10);
                assert_eq!(comm.drain_tags_deadline(Source::Any, &[9, 4], ms10, &mut got), 0);
                assert!(t0.elapsed() >= ms10);
                comm.barrier();
                comm.barrier();
                comm.barrier();
                assert_eq!(comm.drain_tags_deadline(Source::Any, &[4, 9], ms10, &mut got), 3);
                let got: Vec<_> = got.into_iter().map(|m| (m.src, m.tag, m.payload[0])).collect();
                assert_eq!(got, vec![(0, 9, 1), (0, 4, 3), (0, 9, 4)]);
                let rest: Vec<_> = take_pending(comm).into_iter().map(|m| (m.src, m.tag)).collect();
                assert_eq!(rest, vec![(0, 7), (2, 9)], "other tags and senders left pending");
            } else {
                // rank 0's first tag-9 message arrives before rank 2's
                comm.barrier();
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![2]);
                    comm.send(1, 9, vec![1]);
                }
                comm.barrier();
                if comm.rank() == 0 {
                    comm.send_many(1, &mut vec![(4, vec![3]), (9, vec![4])]);
                } else {
                    comm.send(1, 9, vec![5]);
                }
                comm.barrier();
            }
        });
    }

    #[test]
    fn fault_drop_all_loses_messages() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan { seed: 1, drop_p: 1.0, ..FaultPlan::none() };
        let results = Universe::new(2).with_fault_plan(plan).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..10u8 {
                    comm.send(1, 0, vec![i]);
                }
            }
            comm.barrier();
            (take_pending(comm).is_empty(), comm.stats())
        });
        assert!(results[1].0, "all messages dropped");
        assert_eq!(results[0].1.faults_dropped, 10);
        assert_eq!(results[0].1.p2p_sent_msgs, 10, "sends are counted even when lost");
        assert_eq!(results[1].1.p2p_recv_msgs, 0);
    }

    #[test]
    fn fault_duplicate_all_doubles_messages() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan { seed: 1, dup_p: 1.0, ..FaultPlan::none() };
        let results = Universe::new(2).with_fault_plan(plan).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![5]);
            }
            comm.barrier();
            let got: Vec<u8> = take_pending(comm).into_iter().map(|m| m.payload[0]).collect();
            (got, comm.stats())
        });
        assert_eq!(results[1].0, vec![5, 5]);
        assert_eq!(results[0].1.faults_duplicated, 1);
    }

    #[test]
    fn fault_reorder_swaps_adjacent_pending() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan { seed: 1, reorder_p: 1.0, ..FaultPlan::none() };
        let results = Universe::new(2).with_fault_plan(plan).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1]);
                comm.send(1, 0, vec![2]);
                comm.send(1, 0, vec![3]);
            }
            comm.barrier();
            let got: Vec<u8> = take_pending(comm).into_iter().map(|m| m.payload[0]).collect();
            got
        });
        // every enqueue after the first jumps ahead of the previous
        // pending message: 1 | 2,1 | 2,3,1
        assert_eq!(results[1], vec![2, 3, 1]);
    }

    /// Reordering is per `(source, tag)` stream: a message can only
    /// overtake the previous one of its own stream, and a message with
    /// nothing to overtake is neither moved nor counted.
    #[test]
    fn fault_reorder_swaps_within_a_bucket_only() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan { seed: 1, reorder_p: 1.0, ..FaultPlan::none() };
        let results = Universe::new(2).with_fault_plan(plan).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1]);
                comm.send(1, 5, vec![10]);
                comm.send(1, 0, vec![2]);
            }
            comm.barrier();
            let got: Vec<u8> = take_pending(comm).into_iter().map(|m| m.payload[0]).collect();
            (got, comm.stats().faults_reordered)
        });
        // 2 overtook 1 and took its place in arrival order; 10 had no
        // earlier message of its stream to overtake
        assert_eq!(results[1].0, vec![2, 10, 1]);
        assert_eq!(results[0].1, 1, "only the swap that happened is counted");
    }

    /// A receiver parked on one tag is not woken by another tag's
    /// traffic: only the message it can match wakes it.
    #[test]
    fn blocked_receiver_wakes_only_for_its_own_tag() {
        const NOISE: u8 = 200;
        let shared = Arc::new(Shared::new(2, FaultPlan::none()));
        let (sender, receiver) = (Comm::new(0, shared.clone()), Comm::new(1, shared.clone()));
        let wakes = || sender.stats().mailbox_wakes;
        let noise_wakes = std::thread::scope(|s| {
            let waiting = s.spawn(|| receiver.recv(Source::Rank(0), TagSel::Tag(1)));
            // test-only wait for the receive to park
            while shared.mailboxes[1].slots.lock().waiters.is_empty() {
                std::thread::yield_now();
            }
            for i in 0..NOISE {
                sender.send(1, 2, vec![i]);
            }
            let noise_wakes = wakes();
            sender.send(1, 1, vec![7]);
            assert_eq!(waiting.join().unwrap().payload, vec![7]);
            noise_wakes
        });
        assert_eq!(noise_wakes, 0, "woken by tag 2 traffic");
        assert_eq!(wakes(), 1, "one wake-up, for the tag-1 message");
        let noise: Vec<u8> = take_pending(&receiver).into_iter().map(|m| m.payload[0]).collect();
        assert_eq!(noise, (0..NOISE).collect::<Vec<_>>());
    }

    /// The bucketed mailbox against the single-queue linear scan it
    /// replaced: random interleavings of sends and `send_many` runs from
    /// three ranks and of every receive and drain form, over every
    /// selector form, return the same messages every time.
    #[test]
    fn buckets_match_like_a_linear_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const NP: usize = 3;
        const TAGS: u32 = 4;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared = Arc::new(Shared::new(NP, FaultPlan::none()));
            let comms: Vec<Comm> = (0..NP).map(|r| Comm::new(r, shared.clone())).collect();
            let me = &comms[0];
            // (src, tag, id) in arrival order; first match wins
            let mut reference: VecDeque<(usize, u32, u8)> = VecDeque::new();
            let mut next_id = 0u8;
            for step in 0..300 {
                let src = match rng.gen_range(0..=NP) {
                    NP => Source::Any,
                    r => Source::Rank(r),
                };
                let tag = match rng.gen_range(0..=TAGS) {
                    TAGS => TagSel::Any,
                    t => TagSel::Tag(t),
                };
                // a random tag set, or the set `tag` itself selects
                let use_set = rng.gen_bool(0.2);
                let set: Vec<u32> = match (use_set, tag) {
                    (true, _) => (0..TAGS).filter(|_| rng.gen_bool(0.5)).collect(),
                    (false, TagSel::Tag(t)) => vec![t],
                    (false, TagSel::Any) => (0..TAGS).collect(),
                };
                let hit =
                    reference.iter().position(|&(s, t, _)| src.matches(s) && set.contains(&t));
                let want = hit.map(|i| reference[i]);
                let got = |m: Option<Message>| m.map(|m| (m.src, m.tag, m.payload[0]));
                let label = format!("seed {seed} step {step}: {src:?} {tag:?} set {set:?}");
                match rng.gen_range(0..5) {
                    0 | 1 => {
                        let s = rng.gen_range(0..NP);
                        let mut frames = Vec::new();
                        for _ in 0..rng.gen_range(1..=4) {
                            let t = rng.gen_range(0..TAGS);
                            frames.push((t, vec![next_id]));
                            reference.push_back((s, t, next_id));
                            next_id = next_id.wrapping_add(1);
                        }
                        match &mut frames[..] {
                            [(t, one)] if rng.gen_bool(0.5) => comms[s].send(0, *t, one.clone()),
                            _ => comms[s].send_many(0, &mut frames),
                        }
                        continue;
                    }
                    2 | 3 => {
                        let mut out = Vec::new();
                        let n = me.drain_tags_deadline(src, &set, Duration::ZERO, &mut out);
                        let mut drained = Vec::new();
                        if let Some((from, ..)) = want {
                            reference.retain(|&(s, t, id)| {
                                let take = s == from && set.contains(&t);
                                if take {
                                    drained.push((s, t, id));
                                }
                                !take
                            });
                        }
                        let out: Vec<_> = out.into_iter().map(|m| got(Some(m)).unwrap()).collect();
                        assert_eq!((n, out), (drained.len(), drained), "{label}: drain");
                        continue;
                    }
                    4 if want.is_some() && !use_set => {
                        assert_eq!(got(Some(me.recv(src, tag))), want, "{label}: recv");
                    }
                    _ => continue,
                }
                if let Some(i) = hit {
                    reference.remove(i);
                }
            }
        }
    }

    /// One `send_many` is the same traffic as one `send` per frame, fault
    /// for fault: under drop, duplicate, reorder, delay, stall and a
    /// killed rank, the receivers get the same messages in the same
    /// arrival order and the sender counts the same traffic and faults.
    #[test]
    fn send_many_equals_one_send_per_frame_under_faults() {
        use crate::fault::{KillSpec, StallSpec};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const NP: usize = 4;
        let plan = FaultPlan {
            seed: 5,
            drop_p: 0.2,
            dup_p: 0.2,
            reorder_p: 0.3,
            delay_p: 0.05,
            delay: Duration::from_micros(20),
            kill: Some(KillSpec { rank: 3 }),
            stall: Some(StallSpec { rank: 0, every: 7, pause: Duration::from_micros(20) }),
            ..FaultPlan::none()
        };
        let mut rng = StdRng::seed_from_u64(9);
        // (dst, frames) runs, sent as one call each or frame by frame
        let runs: Vec<(usize, Vec<_>)> = (0..60)
            .map(|i| {
                let dst = rng.gen_range(1..NP);
                let n = rng.gen_range(1..=8);
                (dst, (0..n).map(|j| (rng.gen_range(0..3), vec![i as u8, j as u8])).collect())
            })
            .collect();
        let outcome = |batched: bool| {
            let shared = Arc::new(Shared::new(NP, plan));
            let comms: Vec<Comm> = (0..NP).map(|r| Comm::new(r, shared.clone())).collect();
            for (dst, frames) in &runs {
                if batched {
                    comms[0].send_many(*dst, &mut frames.clone());
                } else {
                    for (tag, payload) in frames {
                        comms[0].send(*dst, *tag, payload.clone());
                    }
                }
            }
            let arrived: Vec<Vec<(u32, Vec<u8>)>> = comms
                .iter()
                .map(|c| take_pending(c).into_iter().map(|m| (m.tag, m.payload)).collect())
                .collect();
            let stats = RankStatsSnapshot { mailbox_send_locks: 0, ..comms[0].stats() };
            (arrived, stats, comms[0].stats().mailbox_send_locks)
        };
        let (one_by_one, batched) = (outcome(false), outcome(true));
        assert_eq!(batched.0, one_by_one.0, "same messages in the same arrival order");
        assert_eq!(batched.1, one_by_one.1, "same traffic and fault counters");
        let s = batched.1;
        assert!(s.faults_dropped * s.faults_duplicated * s.faults_reordered > 0, "{s:?}");
        assert!(s.faults_delayed * s.faults_stalled > 0, "{s:?}");
        assert!(batched.2 < one_by_one.2, "fewer locks: {} vs {}", batched.2, one_by_one.2);
    }

    #[test]
    fn fault_kill_severs_both_directions() {
        use crate::fault::{FaultPlan, KillSpec};
        let plan = FaultPlan { kill: Some(KillSpec { rank: 1 }), ..FaultPlan::none() };
        let results = Universe::new(3).with_fault_plan(plan).run(|comm| {
            let me = comm.rank();
            // everyone sends to everyone else
            for dst in 0..comm.size() {
                if dst != me {
                    comm.send(dst, 0, vec![me as u8]);
                }
            }
            comm.barrier();
            let mut got: Vec<u8> = take_pending(comm).into_iter().map(|m| m.payload[0]).collect();
            got.sort_unstable();
            got
        });
        assert_eq!(results[0], vec![2], "rank 1's message to rank 0 lost");
        assert!(results[1].is_empty(), "killed rank receives nothing");
        assert_eq!(results[2], vec![0]);
    }

    #[test]
    fn fault_determinism_same_plan_same_outcome() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan { seed: 77, drop_p: 0.4, dup_p: 0.2, ..FaultPlan::none() };
        let run = || {
            Universe::new(2).with_fault_plan(plan).run(|comm| {
                if comm.rank() == 0 {
                    for i in 0..50u8 {
                        comm.send(1, 0, vec![i]);
                    }
                }
                comm.barrier();
                let got: Vec<u8> = take_pending(comm).into_iter().map(|m| m.payload[0]).collect();
                got
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same faults, same delivery");
        assert!(a[1].len() < 50, "some of the 50 messages dropped at p=0.4");
        assert!(!a[1].is_empty(), "not all dropped at p=0.4");
    }

    #[test]
    fn fault_stall_pauses_the_stalled_rank() {
        use crate::fault::{FaultPlan, StallSpec};
        let plan = FaultPlan {
            stall: Some(StallSpec { rank: 0, every: 1, pause: Duration::from_millis(5) }),
            ..FaultPlan::none()
        };
        let results = Universe::new(2).with_fault_plan(plan).run(|comm| {
            let t0 = std::time::Instant::now();
            if comm.rank() == 0 {
                for _ in 0..4 {
                    comm.send(1, 0, vec![0]);
                }
            } else {
                for _ in 0..4 {
                    comm.recv(Source::Any, TagSel::Any);
                }
            }
            (t0.elapsed(), comm.stats())
        });
        assert!(results[0].0 >= Duration::from_millis(20), "4 stalled sends >= 4 * 5ms");
        assert_eq!(results[0].1.faults_stalled, 4);
        assert_eq!(results[1].1.faults_stalled, 0);
    }

    #[test]
    fn stats_count_traffic() {
        let results = Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0; 10]);
                comm.send(1, 0, vec![0; 20]);
            } else {
                comm.recv(Source::Any, TagSel::Any);
                comm.recv(Source::Any, TagSel::Any);
            }
            comm.barrier();
            comm.stats()
        });
        assert_eq!(results[0].p2p_sent_msgs, 2);
        assert_eq!(results[0].p2p_sent_bytes, 30);
        assert_eq!(results[1].p2p_recv_msgs, 2);
        assert_eq!(results[1].p2p_recv_bytes, 30);
    }
}
