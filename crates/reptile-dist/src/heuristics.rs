//! Execution-mode heuristics (paper §III-A / §III-B).
//!
//! "We have also implemented heuristics to be employed for efficient
//! execution based on the dataset and the architecture. The primary
//! purpose of these heuristics is to lower the runtime or memory
//! footprint based on the hardware being tested."

/// The heuristic switchboard. All combinations the paper evaluates in
/// Fig 5 are expressible; invalid combinations are rejected by
/// [`HeuristicConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// *Universal* mode: lookups travel as one self-describing struct
    /// (kind embedded in the payload) on a single tag, so the serving
    /// rank never inspects tags before receiving — "makes the call to
    /// MPI Probe unwarranted" at the price of a slightly larger message.
    pub universal: bool,
    /// *Read k-mers/tiles*: after construction, keep the `readsKmer` /
    /// `readsTile` tables (k-mers/tiles seen in this rank's own reads but
    /// owned elsewhere) with their **global** counts, resolved by one
    /// extra alltoallv round; look them up before messaging.
    pub keep_read_tables: bool,
    /// *Allgather k-mers*: replicate the whole k-mer spectrum on every
    /// rank (no k-mer messages during correction; more memory).
    pub replicate_kmers: bool,
    /// *Allgather tiles*: replicate the whole tile spectrum.
    pub replicate_tiles: bool,
    /// *Add remote k-mer/tile lookups*: cache every remote answer in the
    /// reads tables. Requires `keep_read_tables` ("this mode can only be
    /// run with the read kmers mode").
    pub cache_remote: bool,
    /// *Batch reads table*: run the Step III exchange after every chunk
    /// of reads and clear the reads tables, bounding their size; needs a
    /// max-batches allreduce so every rank keeps joining the collectives.
    pub batch_reads: bool,
    /// Static load balancing (§III-A): redistribute reads to
    /// `hash(seq) % np` before construction.
    pub load_balance: bool,
    /// *Partial replication* (the paper's §V future-work proposal): ranks
    /// are partitioned into groups of this size, and every rank
    /// additionally stores the owned spectra of its whole group, so
    /// lookups whose owner is in-group stay local. `1` disables; `np`
    /// degenerates to full replication. "One potential strategy is for
    /// each rank to store the k-mers and tiles of a subset of other
    /// ranks, besides the k-mers and the tiles the rank owns."
    pub partial_group: usize,
    /// *Aggregate lookups* (extension beyond the paper, after diBELLA's
    /// per-destination request aggregation): each chunk of reads is
    /// corrected by base mode's lockstep rounds (`reptile::prefetch`);
    /// only their transport differs. The chunk's count-free keys (every
    /// window's tile and k-mers) are fetched first, then each round's
    /// asks travel deduplicated as **one** vectorized `TAG_BATCH_REQ`
    /// round trip per owning rank — no single-key request is ever sent;
    /// output stays bit-identical.
    pub aggregate_lookups: bool,
    /// *Top-K hot-shard replication* (adaptive balancing, beyond the
    /// paper): after the build, ranks allgather per-owner lookup-volume
    /// histograms sampled from their own reads, agree on the at-most-K
    /// hottest spectrum owners whose volume exceeds the skew gate
    /// ([`crate::balance::HOT_SHARD_MIN_LOAD`] × fair share), and
    /// replicate exactly those owners' pruned shard groups to every rank.
    /// Lookups route to the local replica first — the paper's
    /// all-or-nothing allgather heuristic generalized to "replicate only
    /// what is hot". `0` disables; `np` (or more) permits replicating
    /// every owner that trips the gate.
    pub hot_shard_k: usize,
    /// *Read-chunk stealing* (adaptive balancing, beyond the paper):
    /// ranks that drain their Step IV correction queue early pull whole
    /// read chunks from the most-loaded remaining rank over a
    /// seq-stamped steal protocol riding the fault-tolerant service
    /// plane. Output stays bit-identical because correction is a pure
    /// function of the (immutable) spectra and the final merge is
    /// id-ordered. Threaded engine: real work movement; virtual engine:
    /// modeled rebalanced per-rank compute.
    pub steal_chunks: bool,
}

impl Default for HeuristicConfig {
    /// The paper's base mode: distributed everything, tagged messages,
    /// load balancing on (all scaling figures use it).
    fn default() -> HeuristicConfig {
        HeuristicConfig {
            universal: false,
            keep_read_tables: false,
            replicate_kmers: false,
            replicate_tiles: false,
            cache_remote: false,
            batch_reads: false,
            load_balance: true,
            partial_group: 1,
            aggregate_lookups: false,
            hot_shard_k: 0,
            steal_chunks: false,
        }
    }
}

impl HeuristicConfig {
    /// Base mode (see [`Default`]).
    pub fn base() -> HeuristicConfig {
        HeuristicConfig::default()
    }

    /// The configuration the paper settles on for its large runs:
    /// "the advantageous heuristics are universal ... and batch reads
    /// table" (§IV), plus load balancing.
    pub fn paper_production() -> HeuristicConfig {
        HeuristicConfig { universal: true, batch_reads: true, ..HeuristicConfig::default() }
    }

    /// Full replication of both spectra (the "k-mers and tiles replicated
    /// on every node" row of Fig 5) — no correction-phase messaging.
    pub fn replicate_both() -> HeuristicConfig {
        HeuristicConfig {
            replicate_kmers: true,
            replicate_tiles: true,
            ..HeuristicConfig::default()
        }
    }

    /// The adaptive-balancing bundle: top-K hot-shard replication plus
    /// read-chunk stealing on top of the paper's production heuristics.
    /// `k` caps how many hot owners may be replicated (0 disables).
    pub fn adaptive(k: usize) -> HeuristicConfig {
        HeuristicConfig { hot_shard_k: k, steal_chunks: true, ..HeuristicConfig::default() }
    }

    /// Validate the combination; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cache_remote && !self.keep_read_tables {
            return Err("cache_remote requires keep_read_tables \
                        (remote answers are added to the readsKmer/readsTile tables)"
                .into());
        }
        if self.batch_reads && self.keep_read_tables {
            return Err("batch_reads clears the reads tables after every chunk, \
                        which contradicts keep_read_tables"
                .into());
        }
        if self.partial_group == 0 {
            return Err("partial_group must be >= 1 (1 disables partial replication)".into());
        }
        if self.partial_group > 1 && (self.replicate_kmers || self.replicate_tiles) {
            return Err("partial replication is redundant under full replication \
                        (drop replicate_kmers/replicate_tiles or set partial_group = 1)"
                .into());
        }
        if self.hot_shard_k > 0 && self.replicate_kmers && self.replicate_tiles {
            return Err("hot-shard replication is redundant when both spectra are \
                        already fully replicated (drop hot_shard_k or the replicate_* flags)"
                .into());
        }
        Ok(())
    }

    /// Whether any correction-phase k-mer messages can occur.
    pub fn kmers_need_messages(&self) -> bool {
        !self.replicate_kmers
    }

    /// Whether any correction-phase tile messages can occur.
    pub fn tiles_need_messages(&self) -> bool {
        !self.replicate_tiles
    }

    /// Whether Step IV uses the point-to-point service plane at all.
    /// With both spectra fully replicated every lookup is local, so the
    /// engines can skip the comm thread — and fault plans that only
    /// touch the p2p plane cannot affect the run.
    pub fn needs_service_plane(&self, np: usize) -> bool {
        np > 1
            && (self.steal_chunks
                || (self.partial_group < np
                    && (self.kmers_need_messages() || self.tiles_need_messages())))
    }

    /// Human-readable label used in Fig 5 outputs.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.universal {
            parts.push("universal");
        }
        if self.keep_read_tables {
            parts.push("read-kmers");
        }
        if self.replicate_kmers && self.replicate_tiles {
            parts.push("repl-both");
        } else if self.replicate_kmers {
            parts.push("repl-kmers");
        } else if self.replicate_tiles {
            parts.push("repl-tiles");
        }
        if self.cache_remote {
            parts.push("add-remote");
        }
        if self.batch_reads {
            parts.push("batch-reads");
        }
        if self.partial_group > 1 {
            parts.push("partial-repl");
        }
        if self.aggregate_lookups {
            parts.push("agg-lookups");
        }
        let hot;
        if self.hot_shard_k > 0 {
            hot = format!("hot-shards({})", self.hot_shard_k);
            parts.push(&hot);
        }
        if self.steal_chunks {
            parts.push("steal");
        }
        if !self.load_balance {
            parts.push("imbalanced");
        }
        if parts.is_empty() {
            "base".to_string()
        } else {
            parts.join("+")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        HeuristicConfig::default().validate().unwrap();
        HeuristicConfig::paper_production().validate().unwrap();
        HeuristicConfig::replicate_both().validate().unwrap();
    }

    #[test]
    fn cache_remote_needs_read_tables() {
        let h = HeuristicConfig { cache_remote: true, ..HeuristicConfig::default() };
        assert!(h.validate().is_err());
        let ok = HeuristicConfig {
            cache_remote: true,
            keep_read_tables: true,
            ..HeuristicConfig::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn batch_conflicts_with_read_tables() {
        let h = HeuristicConfig {
            batch_reads: true,
            keep_read_tables: true,
            ..HeuristicConfig::default()
        };
        assert!(h.validate().is_err());
    }

    #[test]
    fn replication_silences_messages() {
        let h = HeuristicConfig::replicate_both();
        assert!(!h.kmers_need_messages());
        assert!(!h.tiles_need_messages());
        let base = HeuristicConfig::base();
        assert!(base.kmers_need_messages());
        assert!(base.tiles_need_messages());
    }

    #[test]
    fn service_plane_requirement() {
        assert!(HeuristicConfig::base().needs_service_plane(4));
        assert!(!HeuristicConfig::base().needs_service_plane(1), "single rank is all-local");
        assert!(!HeuristicConfig::replicate_both().needs_service_plane(4));
        // one k-mer-only replication still needs the plane for tiles
        let h = HeuristicConfig { replicate_kmers: true, ..HeuristicConfig::default() };
        assert!(h.needs_service_plane(4));
        // a partial group covering every rank is full replication
        let full = HeuristicConfig { partial_group: 4, ..HeuristicConfig::default() };
        assert!(!full.needs_service_plane(4));
        assert!(full.needs_service_plane(8));
    }

    #[test]
    fn partial_group_validation() {
        let bad = HeuristicConfig { partial_group: 0, ..HeuristicConfig::default() };
        assert!(bad.validate().is_err());
        let redundant = HeuristicConfig {
            partial_group: 4,
            replicate_tiles: true,
            ..HeuristicConfig::default()
        };
        assert!(redundant.validate().is_err());
        let ok = HeuristicConfig { partial_group: 4, ..HeuristicConfig::default() };
        ok.validate().unwrap();
        assert_eq!(ok.label(), "partial-repl");
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(HeuristicConfig::base().label(), "base");
        assert_eq!(HeuristicConfig::paper_production().label(), "universal+batch-reads");
        assert_eq!(HeuristicConfig::replicate_both().label(), "repl-both");
        let imb = HeuristicConfig { load_balance: false, ..HeuristicConfig::default() };
        assert_eq!(imb.label(), "imbalanced");
        let agg = HeuristicConfig { aggregate_lookups: true, ..HeuristicConfig::default() };
        assert_eq!(agg.label(), "agg-lookups");
    }

    #[test]
    fn adaptive_knobs_validate_and_label() {
        let a = HeuristicConfig::adaptive(2);
        a.validate().unwrap();
        assert_eq!(a.label(), "hot-shards(2)+steal");
        // hot-shard replication composes with partial replication and a
        // single fully-replicated spectrum, but is redundant under both.
        HeuristicConfig { hot_shard_k: 1, partial_group: 2, ..HeuristicConfig::default() }
            .validate()
            .unwrap();
        HeuristicConfig { hot_shard_k: 1, replicate_kmers: true, ..HeuristicConfig::default() }
            .validate()
            .unwrap();
        let redundant = HeuristicConfig { hot_shard_k: 1, ..HeuristicConfig::replicate_both() };
        assert!(redundant.validate().is_err());
    }

    #[test]
    fn stealing_keeps_service_plane_alive() {
        // Even a fully replicated run needs the comm thread when chunks
        // can be stolen: the steal requests ride the service plane.
        let h = HeuristicConfig { steal_chunks: true, ..HeuristicConfig::replicate_both() };
        assert!(h.needs_service_plane(4));
        assert!(!h.needs_service_plane(1));
    }

    #[test]
    fn aggregate_composes_with_other_heuristics() {
        for h in [
            HeuristicConfig { aggregate_lookups: true, ..HeuristicConfig::default() },
            HeuristicConfig { aggregate_lookups: true, ..HeuristicConfig::paper_production() },
            HeuristicConfig {
                aggregate_lookups: true,
                keep_read_tables: true,
                cache_remote: true,
                ..HeuristicConfig::default()
            },
        ] {
            h.validate().unwrap();
        }
    }
}
