//! Per-rank traffic counters.
//!
//! What the threaded runtime did per rank: point-to-point and collective
//! traffic, injected faults and mailbox lock traffic, read through
//! [`crate::Comm::stats`] (today only by tests). The virtual engine does
//! not use them: it counts its own work and prices it with
//! [`crate::CostModel`]. They are atomic because a rank's worker and
//! communication threads share one [`crate::Comm`].

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
pub(crate) struct RankStats {
    p2p_sent_msgs: AtomicU64,
    p2p_sent_bytes: AtomicU64,
    p2p_sent_intra_node: AtomicU64,
    p2p_recv_msgs: AtomicU64,
    p2p_recv_bytes: AtomicU64,
    collective_ops: AtomicU64,
    collective_sent_bytes: AtomicU64,
    nonblocking_collective_ops: AtomicU64,
    faults_dropped: AtomicU64,
    faults_duplicated: AtomicU64,
    faults_reordered: AtomicU64,
    faults_delayed: AtomicU64,
    faults_stalled: AtomicU64,
    mailbox_send_locks: AtomicU64,
    mailbox_recv_locks: AtomicU64,
    mailbox_wakes: AtomicU64,
}

/// What one send call did beyond its traffic, added to the sender's
/// counters once per call rather than once per frame.
#[derive(Default)]
pub(crate) struct SendTally {
    pub(crate) locks: u64,
    pub(crate) wakes: u64,
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
    pub(crate) reordered: u64,
    pub(crate) delayed: u64,
}

/// Add `n` unless it is zero: most calls leave most counters alone, and
/// every skipped add is one less write to a line two threads share.
fn add(counter: &AtomicU64, n: u64) {
    if n > 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl RankStats {
    pub(crate) fn count_send(&self, msgs: usize, bytes: usize, intra: bool) {
        add(&self.p2p_sent_msgs, msgs as u64);
        add(&self.p2p_sent_bytes, bytes as u64);
        if intra {
            add(&self.p2p_sent_intra_node, msgs as u64);
        }
    }

    pub(crate) fn count_sent(&self, t: &SendTally) {
        add(&self.mailbox_send_locks, t.locks);
        add(&self.mailbox_wakes, t.wakes);
        add(&self.faults_dropped, t.dropped);
        add(&self.faults_duplicated, t.duplicated);
        add(&self.faults_reordered, t.reordered);
        add(&self.faults_delayed, t.delayed);
    }

    pub(crate) fn count_recv(&self, msgs: usize, bytes: usize, locks: u64) {
        add(&self.p2p_recv_msgs, msgs as u64);
        add(&self.p2p_recv_bytes, bytes as u64);
        add(&self.mailbox_recv_locks, locks);
    }

    pub(crate) fn count_collective(&self, bytes_sent: usize) {
        self.collective_ops.fetch_add(1, Ordering::Relaxed);
        self.collective_sent_bytes.fetch_add(bytes_sent as u64, Ordering::Relaxed);
    }

    /// A non-blocking collective counts like a blocking one for volume,
    /// plus its own op counter so reports can show how much of the
    /// traffic was overlappable.
    pub(crate) fn count_collective_nonblocking(&self, bytes_sent: usize) {
        self.count_collective(bytes_sent);
        self.nonblocking_collective_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_fault_stalled(&self) {
        self.faults_stalled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> RankStatsSnapshot {
        RankStatsSnapshot {
            p2p_sent_msgs: self.p2p_sent_msgs.load(Ordering::Relaxed),
            p2p_sent_bytes: self.p2p_sent_bytes.load(Ordering::Relaxed),
            p2p_sent_intra_node: self.p2p_sent_intra_node.load(Ordering::Relaxed),
            p2p_recv_msgs: self.p2p_recv_msgs.load(Ordering::Relaxed),
            p2p_recv_bytes: self.p2p_recv_bytes.load(Ordering::Relaxed),
            collective_ops: self.collective_ops.load(Ordering::Relaxed),
            collective_sent_bytes: self.collective_sent_bytes.load(Ordering::Relaxed),
            nonblocking_collective_ops: self.nonblocking_collective_ops.load(Ordering::Relaxed),
            faults_dropped: self.faults_dropped.load(Ordering::Relaxed),
            faults_duplicated: self.faults_duplicated.load(Ordering::Relaxed),
            faults_reordered: self.faults_reordered.load(Ordering::Relaxed),
            faults_delayed: self.faults_delayed.load(Ordering::Relaxed),
            faults_stalled: self.faults_stalled.load(Ordering::Relaxed),
            mailbox_send_locks: self.mailbox_send_locks.load(Ordering::Relaxed),
            mailbox_recv_locks: self.mailbox_recv_locks.load(Ordering::Relaxed),
            mailbox_wakes: self.mailbox_wakes.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one rank's traffic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankStatsSnapshot {
    /// Point-to-point messages sent.
    pub p2p_sent_msgs: u64,
    /// Point-to-point bytes sent.
    pub p2p_sent_bytes: u64,
    /// Of the sent messages, how many stayed on-node (shared memory path).
    pub p2p_sent_intra_node: u64,
    /// Point-to-point messages received.
    pub p2p_recv_msgs: u64,
    /// Point-to-point bytes received.
    pub p2p_recv_bytes: u64,
    /// Collective operations participated in.
    pub collective_ops: u64,
    /// Bytes this rank contributed to collectives.
    pub collective_sent_bytes: u64,
    /// Of the collectives, how many were started non-blocking
    /// ([`crate::Comm::start_alltoallv`]) and thus overlappable.
    pub nonblocking_collective_ops: u64,
    /// Messages this rank sent that the fault plan discarded (including
    /// messages on a severed edge of a killed rank).
    pub faults_dropped: u64,
    /// Messages the fault plan delivered twice.
    pub faults_duplicated: u64,
    /// Messages the fault plan enqueued out of order.
    pub faults_reordered: u64,
    /// Messages the fault plan delayed before delivery.
    pub faults_delayed: u64,
    /// Operations on which this rank served a stall pause.
    pub faults_stalled: u64,
    /// Locks this rank took on destination mailboxes to enqueue its
    /// sends: one per send call, however many frames it carries (more
    /// only when a delay or stall fault made it let go in between).
    pub mailbox_send_locks: u64,
    /// Locks this rank took on its own mailbox to receive or probe: one
    /// per call, plus one per wake-up of a receive that had to park.
    pub mailbox_recv_locks: u64,
    /// Parked receivers this rank's sends woke.
    pub mailbox_wakes: u64,
}
