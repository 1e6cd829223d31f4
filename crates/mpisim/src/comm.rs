//! Per-rank communicator handles and point-to-point messaging.
//!
//! Semantics follow MPI:
//!
//! * messages between a fixed (src, dst) pair are delivered in send order;
//! * `recv`/`probe` match on `(Source, TagSel)` selectors, where either
//!   side may be a wildcard (`MPI_ANY_SOURCE`, `MPI_ANY_TAG`); a wildcard
//!   takes the earliest-arrived matching message;
//! * [`Comm::probe`] blocks until a matching message is pending and
//!   returns its envelope without consuming it — what the paper's
//!   communication thread does ("the communication thread of each rank
//!   probes any incoming messages – based on the probe, it first finds
//!   out the nature of the request", §III step IV);
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

use crate::collectives::CollectiveState;
use crate::fault::FaultPlan;
use crate::message::{Message, MessageInfo};
use crate::stats::RankStats;
use crate::topology::Topology;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Source selector for receives and probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Match any sender (`MPI_ANY_SOURCE`).
    Any,
    /// Match one specific rank.
    Rank(usize),
}

/// Tag selector for receives and probes.
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

/// What a receive or probe matches.
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
    /// Receives and probes parked on this mailbox.
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

    fn head(&self, (src, b): (usize, usize)) -> &Message {
        &self.from[src][b].queue.front().expect("found bucket is non-empty").msg
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
    /// Wake-ups sent to parked receivers.
    #[cfg(test)]
    wakes: AtomicU64,
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
            #[cfg(test)]
            wakes: AtomicU64::new(0),
        }
    }

    /// Enqueue a message and wake the receivers it matches — after the
    /// lock is released, so a woken thread does not block on it.
    fn deliver(&self, msg: Message, reorder: bool, duplicate: bool) -> bool {
        let (src, tag) = (msg.src, msg.tag);
        let mut slots = self.slots.lock();
        let swapped = slots.push(src, msg, reorder, duplicate);
        let first = slots.take_waiter(src, tag);
        let mut rest = Vec::new();
        if first.is_some() {
            while let Some(thread) = slots.take_waiter(src, tag) {
                rest.push(thread);
            }
        }
        drop(slots);
        for thread in first.into_iter().chain(rest) {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::Relaxed);
            thread.unpark();
        }
        swapped
    }

    /// Block until `sel` matches a pending message (or `deadline`
    /// passes: `None`), then apply `f` to it under the lock. Parks, never
    /// spins: a sender of a matching message wakes this thread.
    fn wait<R>(
        &self,
        sel: Selector,
        deadline: Option<Instant>,
        f: impl FnOnce(&mut Slots, (usize, usize)) -> R,
    ) -> Option<R> {
        let mut slots = self.slots.lock();
        loop {
            if let Some(at) = slots.find(sel) {
                return Some(f(&mut slots, at));
            }
            let timeout = match deadline {
                None => None,
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return None,
                },
            };
            let id = slots.register(sel);
            drop(slots);
            match timeout {
                None => std::thread::park(),
                Some(left) => std::thread::park_timeout(left),
            }
            slots = self.slots.lock();
            slots.unregister(id);
        }
    }
}

pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) collectives: CollectiveState,
    pub(crate) stats: Vec<RankStats>,
    pub(crate) topology: Topology,
    pub(crate) fault: FaultPlan,
    /// Per-edge message counters (row-major `src*np + dst`) feeding the
    /// deterministic per-message fault decisions.
    edge_seq: Vec<AtomicU64>,
    /// Per-rank operation counters (sends + collectives) for the stall
    /// fault's every-n-th schedule.
    op_seq: Vec<AtomicU64>,
}

impl Shared {
    pub(crate) fn new(np: usize, topology: Topology, fault: FaultPlan) -> Shared {
        Shared {
            mailboxes: (0..np).map(|_| Mailbox::new(np)).collect(),
            collectives: CollectiveState::new(np),
            stats: (0..np).map(|_| RankStats::default()).collect(),
            topology,
            fault,
            edge_seq: (0..np * np).map(|_| AtomicU64::new(0)).collect(),
            op_seq: (0..np).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Apply the stall fault for one operation on `rank` (send or
    /// collective). No-op without a matching stall spec.
    pub(crate) fn stall_tick(&self, rank: usize) {
        if let Some(st) = self.fault.stall {
            if st.rank == rank {
                let n = self.op_seq[rank].fetch_add(1, Ordering::Relaxed);
                if n.is_multiple_of(st.every) {
                    self.stats[rank].count_fault_stalled();
                    std::thread::sleep(st.pause);
                }
            }
        }
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

    /// The node/rank layout this universe was configured with.
    #[inline]
    pub fn topology(&self) -> Topology {
        self.shared.topology
    }

    /// Send `payload` to `dst` with `tag`. Buffered & non-blocking, like a
    /// small-message `MPI_Send` in practice.
    ///
    /// If the universe carries a [`FaultPlan`], it is applied here: the
    /// message may be dropped, duplicated, reordered (behind the next
    /// message of its `(source, tag)` stream), or delayed, and messages on
    /// a severed edge (either endpoint killed) are discarded.
    pub fn send(&self, dst: usize, tag: u32, payload: Vec<u8>) {
        let nbytes = payload.len();
        let intra = self.shared.topology.same_node(self.rank, dst);
        let stats = &self.shared.stats[self.rank];
        stats.count_send(nbytes, intra);
        let fault = &self.shared.fault;
        let mut duplicated = false;
        let mut reordered = false;
        if !fault.is_none() {
            self.shared.stall_tick(self.rank);
            if fault.severed(self.rank, dst) {
                stats.count_fault_dropped();
                return;
            }
            let n = self.edge_tick(dst);
            let d = fault.decide(self.rank, dst, n);
            if d.delayed {
                stats.count_fault_delayed();
                std::thread::sleep(fault.delay);
            }
            if d.dropped {
                stats.count_fault_dropped();
                return;
            }
            duplicated = d.duplicated;
            reordered = d.reordered;
        }
        let msg = Message { src: self.rank, tag, payload };
        if self.shared.mailboxes[dst].deliver(msg, reordered, duplicated) {
            stats.count_fault_reordered();
        }
        if duplicated {
            stats.count_fault_duplicated();
        }
    }

    fn edge_tick(&self, dst: usize) -> u64 {
        let np = self.shared.mailboxes.len();
        self.shared.edge_seq[self.rank * np + dst].fetch_add(1, Ordering::Relaxed)
    }

    /// [`send`](Comm::send) from a borrowed buffer: one exact-size copy
    /// into the transfer payload, so callers can reuse a scratch
    /// serialization buffer across messages (MPI semantics — the send
    /// buffer is the caller's to reuse once the call returns).
    pub fn send_from_slice(&self, dst: usize, tag: u32, payload: &[u8]) {
        self.send(dst, tag, payload.to_vec());
    }

    fn mailbox(&self) -> &Mailbox {
        &self.shared.mailboxes[self.rank]
    }

    /// Receive the first message `sel` matches, waiting at most until
    /// `deadline` (`None` = forever).
    fn receive(&self, sel: Selector, deadline: Option<Instant>) -> Option<Message> {
        let msg = self.mailbox().wait(sel, deadline, Slots::take)?;
        self.shared.stats[self.rank].count_recv(msg.payload.len());
        Some(msg)
    }

    /// Blocking receive of the first pending message matching the
    /// selectors (`MPI_Recv`).
    pub fn recv(&self, src: Source, tag: TagSel) -> Message {
        self.receive(Selector { src, tags: tag.tags() }, None).expect("no deadline")
    }

    /// Blocking receive with a deadline: like [`recv`](Comm::recv), but
    /// returns `None` if no matching message arrives within `timeout`.
    /// This is the primitive under the Step IV retry protocol — an MPI
    /// code expresses it as `MPI_Irecv` + `MPI_Test` in a timed loop.
    pub fn recv_deadline(&self, src: Source, tag: TagSel, timeout: Duration) -> Option<Message> {
        self.receive(Selector { src, tags: tag.tags() }, Some(Instant::now() + timeout))
    }

    /// Receive over a *set* of tags, with a deadline: the first pending
    /// message carrying any of `tags`, or `None` once `timeout` passes.
    /// This is how a server thread that must not consume other threads'
    /// traffic (step IV's communication thread, which leaves count
    /// responses to the worker) takes its next request in one call, and
    /// notices its shutdown flag on a quiet mailbox; an MPI code
    /// expresses the same thing as an `MPI_Iprobe` loop over the tag list
    /// followed by `MPI_Recv`.
    pub fn recv_tags_deadline(
        &self,
        src: Source,
        tags: &[u32],
        timeout: Duration,
    ) -> Option<Message> {
        self.receive(Selector { src, tags: Tags::Set(tags) }, Some(Instant::now() + timeout))
    }

    /// Non-blocking receive (`MPI_Irecv` + immediate test).
    pub fn try_recv(&self, src: Source, tag: TagSel) -> Option<Message> {
        let sel = Selector { src, tags: tag.tags() };
        let msg = {
            let mut slots = self.mailbox().slots.lock();
            let at = slots.find(sel)?;
            slots.take(at)
        };
        self.shared.stats[self.rank].count_recv(msg.payload.len());
        Some(msg)
    }

    /// Blocking probe (`MPI_Probe`): wait until a matching message is
    /// pending and describe it without consuming it.
    pub fn probe(&self, src: Source, tag: TagSel) -> MessageInfo {
        let sel = Selector { src, tags: tag.tags() };
        self.mailbox().wait(sel, None, |slots, at| info(slots.head(at))).expect("no deadline")
    }

    /// Non-blocking probe (`MPI_Iprobe`).
    pub fn iprobe(&self, src: Source, tag: TagSel) -> Option<MessageInfo> {
        let slots = self.mailbox().slots.lock();
        let at = slots.find(Selector { src, tags: tag.tags() })?;
        Some(info(slots.head(at)))
    }

    /// The fault plan this universe runs under ([`FaultPlan::none`] by
    /// default).
    pub fn fault_plan(&self) -> FaultPlan {
        self.shared.fault
    }

    /// Snapshot this rank's traffic counters.
    pub fn stats(&self) -> crate::stats::RankStatsSnapshot {
        self.shared.stats[self.rank].snapshot()
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }
}

fn info(m: &Message) -> MessageInfo {
    MessageInfo { src: m.src, tag: m.tag, len: m.payload.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

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
    fn probe_then_recv() {
        let results = Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![1, 2, 3, 4]);
                0
            } else {
                let info = comm.probe(Source::Any, TagSel::Any);
                assert_eq!(info.src, 0);
                assert_eq!(info.tag, 3);
                assert_eq!(info.len, 4);
                // message still pending after probe
                let msg = comm.recv(Source::Rank(info.src), TagSel::Tag(info.tag));
                msg.payload.len()
            }
        });
        assert_eq!(results[1], 4);
    }

    #[test]
    fn iprobe_and_try_recv_nonblocking() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                // nothing can be in flight before the barrier below, so
                // the non-blocking calls must report empty
                assert!(comm.iprobe(Source::Any, TagSel::Any).is_none());
                assert!(comm.try_recv(Source::Any, TagSel::Any).is_none());
                comm.barrier();
                let info = loop {
                    if let Some(i) = comm.iprobe(Source::Rank(0), TagSel::Tag(5)) {
                        break i;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(info.len, 1);
                assert!(comm.try_recv(Source::Rank(0), TagSel::Tag(5)).is_some());
            } else {
                // send only after rank 1 has performed its empty checks
                comm.barrier();
                comm.send(1, 5, vec![9]);
            }
        });
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
                    loop {
                        let Some(m) = comm.recv_tags_deadline(Source::Any, &[REQ, SHUTDOWN], POLL)
                        else {
                            continue;
                        };
                        match m.tag {
                            REQ => {
                                comm.send(m.src, RESP, vec![m.payload[0] * 2]);
                                count += 1;
                            }
                            SHUTDOWN => break,
                            _ => unreachable!("recv_tags_deadline filtered"),
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
    fn recv_deadline_times_out_then_delivers() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                // nothing pending: must time out
                let t0 = std::time::Instant::now();
                let none = comm.recv_deadline(Source::Any, TagSel::Any, Duration::from_millis(20));
                assert!(none.is_none());
                assert!(t0.elapsed() >= Duration::from_millis(20));
                comm.barrier();
                // sender released: must deliver well within the deadline
                let msg = comm
                    .recv_deadline(Source::Rank(0), TagSel::Tag(4), Duration::from_secs(10))
                    .expect("message sent after barrier");
                assert_eq!(msg.payload, vec![7]);
            } else {
                comm.barrier();
                comm.send(1, 4, vec![7]);
            }
        });
    }

    #[test]
    fn recv_tags_deadline_times_out_without_traffic() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 1 {
                let t0 = Instant::now();
                assert!(comm
                    .recv_tags_deadline(Source::Any, &[9, 4], Duration::from_millis(10))
                    .is_none());
                assert!(t0.elapsed() >= Duration::from_millis(10));
                comm.barrier();
                let m = comm
                    .recv_tags_deadline(Source::Any, &[4, 9], Duration::from_secs(10))
                    .expect("pending after barrier");
                assert_eq!((m.src, m.tag, m.payload), (0, 9, vec![1]));
                assert!(comm.try_recv(Source::Any, TagSel::Any).is_some(), "tag 7 left pending");
            } else {
                comm.barrier();
                comm.send(1, 7, vec![2]);
                comm.send(1, 9, vec![1]);
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
            (comm.try_recv(Source::Any, TagSel::Any).is_none(), comm.stats())
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
            let mut got = Vec::new();
            while let Some(m) = comm.try_recv(Source::Any, TagSel::Any) {
                got.push(m.payload[0]);
            }
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
            let mut got = Vec::new();
            while let Some(m) = comm.try_recv(Source::Any, TagSel::Any) {
                got.push(m.payload[0]);
            }
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
            let mut got = Vec::new();
            while let Some(m) = comm.try_recv(Source::Any, TagSel::Any) {
                got.push(m.payload[0]);
            }
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
        let shared = Arc::new(Shared::new(2, Topology::single_node(), FaultPlan::none()));
        let (sender, receiver) = (Comm::new(0, shared.clone()), Comm::new(1, shared.clone()));
        let wakes = || shared.mailboxes[1].wakes.load(Ordering::Relaxed);
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
        let noise: Vec<u8> = std::iter::from_fn(|| receiver.try_recv(Source::Any, TagSel::Any))
            .map(|m| m.payload[0])
            .collect();
        assert_eq!(noise, (0..NOISE).collect::<Vec<_>>());
    }

    /// The bucketed mailbox against the single-queue linear scan it
    /// replaced: random interleavings of sends from three ranks and of
    /// every receive and probe form, over every selector form, return the
    /// same message every time.
    #[test]
    fn buckets_match_like_a_linear_scan() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const NP: usize = 3;
        const TAGS: u32 = 4;
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let shared = Arc::new(Shared::new(NP, Topology::single_node(), FaultPlan::none()));
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
                let set: Vec<u32> = (0..TAGS).filter(|_| rng.gen_bool(0.5)).collect();
                let use_set = rng.gen_bool(0.2);
                let hit = reference.iter().position(|&(s, t, _)| {
                    src.matches(s) && if use_set { set.contains(&t) } else { tag.tags().matches(t) }
                });
                let want = hit.map(|i| reference[i]);
                let got = |m: Option<Message>| m.map(|m| (m.src, m.tag, m.payload[0]));
                let label = format!("seed {seed} step {step}: {src:?} {tag:?} set {set:?}");
                match rng.gen_range(0..7) {
                    0 | 1 => {
                        let (s, t) = (rng.gen_range(0..NP), rng.gen_range(0..TAGS));
                        comms[s].send(0, t, vec![next_id]);
                        reference.push_back((s, t, next_id));
                        next_id = next_id.wrapping_add(1);
                        continue;
                    }
                    2 if use_set => {
                        let m = me.recv_tags_deadline(src, &set, Duration::ZERO);
                        assert_eq!(got(m), want, "{label}: recv_tags_deadline");
                    }
                    2 => {
                        let m = me.recv_deadline(src, tag, Duration::ZERO);
                        assert_eq!(got(m), want, "{label}: recv_deadline");
                    }
                    3 if want.is_some() && !use_set => {
                        assert_eq!(got(Some(me.recv(src, tag))), want, "{label}: recv");
                    }
                    4 if want.is_some() && !use_set => {
                        let info = me.probe(src, tag);
                        assert_eq!(Some((info.src, info.tag)), want.map(|w| (w.0, w.1)), "{label}");
                        continue;
                    }
                    5 if !use_set => {
                        let info = me.iprobe(src, tag).map(|i| (i.src, i.tag));
                        assert_eq!(info, want.map(|w| (w.0, w.1)), "{label}: iprobe");
                        continue;
                    }
                    _ if !use_set => {
                        assert_eq!(got(me.try_recv(src, tag)), want, "{label}: try_recv");
                    }
                    _ => continue,
                }
                if let Some(i) = hit {
                    reference.remove(i);
                }
            }
        }
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
            let mut got = Vec::new();
            while let Some(m) = comm.try_recv(Source::Any, TagSel::Any) {
                got.push(m.payload[0]);
            }
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
                let mut got = Vec::new();
                while let Some(m) = comm.try_recv(Source::Any, TagSel::Any) {
                    got.push(m.payload[0]);
                }
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
