//! Node/rank layout.
//!
//! BlueGene/Q packs up to 64 hardware threads on a 16-core node; the paper
//! runs 8–32 MPI ranks per node and observes that intra-node messages use
//! shared memory while inter-node messages cross the 5-D torus (§IV:
//! "using multiple ranks per node also gives us a benefit: it allows any
//! communication between the ranks on the same node to use the shared
//! memory on the node"). The topology is the cost model's input: ranks
//! per node blend the intra- and inter-node link costs and set the SMT
//! pressure. The threaded runtime runs every rank in one process and
//! does not read it.

/// Rank-to-node assignment: `ranks_per_node` consecutive ranks per node
/// (block mapping, BG/Q's default).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    ranks_per_node: usize,
    /// Worker/communication threads each rank runs during correction
    /// (2 in the paper's step IV). Used by the SMT oversubscription model.
    pub threads_per_rank: usize,
}

impl Topology {
    /// All ranks on one node (the threaded-engine configuration default).
    pub fn single_node() -> Topology {
        Topology { ranks_per_node: usize::MAX, threads_per_rank: 2 }
    }

    /// `ranks_per_node` consecutive ranks share each node.
    pub fn new(ranks_per_node: usize) -> Topology {
        assert!(ranks_per_node > 0);
        Topology { ranks_per_node, threads_per_rank: 2 }
    }

    /// Same, with an explicit threads-per-rank count (the allgather-both
    /// heuristic runs 1 rank × 64 threads per node).
    pub fn with_threads(ranks_per_node: usize, threads_per_rank: usize) -> Topology {
        assert!(ranks_per_node > 0 && threads_per_rank > 0);
        Topology { ranks_per_node, threads_per_rank }
    }

    /// Ranks hosted on each node.
    #[inline]
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Total software threads per node during the correction phase.
    #[inline]
    pub fn threads_per_node(&self, np: usize) -> usize {
        self.ranks_per_node.min(np) * self.threads_per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_per_node_counts_both_threads() {
        let t = Topology::new(32);
        assert_eq!(t.threads_per_node(128), 64); // 32 ranks × 2 threads
        let t8 = Topology::new(8);
        assert_eq!(t8.threads_per_node(128), 16);
        // fewer ranks than a full node
        assert_eq!(t.threads_per_node(4), 8);
    }
}
