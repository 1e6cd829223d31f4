//! Load balancing: the paper's static randomization (§III-A) plus the
//! skew-detection half of the adaptive balancing layer.
//!
//! "Since the reads in the file are divided up into chunks amongst the
//! ranks, this leads to certain ranks having considerably more erroneous
//! sequences ... a sequence is designated to be owned by a rank p if
//! hashFunction(seq) % np == p ... The sequences are then placed in
//! separate buckets corresponding to the owning ranks. Subsequently, a
//! collective communication MPI_Alltoallv is performed; each rank then
//! processes the sequences for which they are the owning rank. This
//! hashing of sequences has the same effect as the 'randomization' of the
//! file might have."
//!
//! Static randomization balances *read counts* but not *lookup traffic*:
//! on repeat-heavy genomes a handful of spectrum owners absorb most Step
//! IV lookups no matter how evenly the reads are spread. The
//! [`owner_volume_histogram`] / [`select_hot_owners`] pair detects that
//! skew from the reads' own k-mer/tile occurrence stream, so the
//! engines can replicate just the hot shard groups (see
//! `HeuristicConfig::hot_shard_k`) and steal read chunks from stragglers
//! (`steal_chunks`).

use crate::owner::OwnerMap;
use dnaseq::Read;
use mpisim::Comm;

/// Reusable per-owner bucket scratch for the shuffle. The `alltoallv`
/// hands bucket ownership to the peers, so the vectors themselves cannot
/// survive a batch — what *is* reusable is the sizing knowledge: each
/// batch's per-owner counts become the next batch's pre-allocation
/// hints, so steady-state batches fill their buckets without a single
/// growth reallocation.
pub struct ReadBuckets {
    np: usize,
    /// Per-owner bucket length of the previous batch.
    hint: Vec<usize>,
}

impl ReadBuckets {
    /// Scratch for `np` owner ranks.
    pub fn new(np: usize) -> ReadBuckets {
        ReadBuckets { np, hint: vec![0; np] }
    }

    /// Distribute `reads` into per-owner buckets. Buckets are pre-sized
    /// to the larger of the previous batch's count and the fair share
    /// (+25% hash-variance slack), so pushes don't reallocate.
    pub fn bucket(&mut self, reads: Vec<Read>) -> Vec<Vec<Read>> {
        let fair = reads.len() / self.np;
        let default_cap = fair + fair / 4 + 1;
        let mut buckets: Vec<Vec<Read>> =
            self.hint.iter().map(|&h| Vec::with_capacity(h.max(default_cap))).collect();
        for read in reads {
            let owner = read.owner(self.np);
            buckets[owner].push(read);
        }
        for (h, b) in self.hint.iter_mut().zip(&buckets) {
            *h = b.len();
        }
        buckets
    }
}

/// Exchange one batch of reads so every rank ends up with exactly the
/// reads it owns. Returns this rank's owned reads from the batch, sorted
/// by sequence number (deterministic processing order regardless of which
/// rank read them from the file).
pub fn shuffle_reads(comm: &Comm, batch: Vec<Read>) -> Vec<Read> {
    shuffle_reads_with(comm, batch, &mut ReadBuckets::new(comm.size()))
}

/// [`shuffle_reads`] with caller-owned bucket scratch, for batch-mode
/// loops that shuffle many chunks back to back.
pub fn shuffle_reads_with(comm: &Comm, batch: Vec<Read>, scratch: &mut ReadBuckets) -> Vec<Read> {
    let received = comm.alltoallv(scratch.bucket(batch));
    let mut mine: Vec<Read> = received.into_iter().flatten().collect();
    mine.sort_unstable_by_key(|r| r.id);
    mine
}

/// Serialized shuffle for the virtual engine: given every rank's batch,
/// produce every rank's owned reads (same result as [`shuffle_reads`] on
/// the threaded runtime) plus the per-rank sent-byte counts for the cost
/// model.
pub fn shuffle_reads_virtual(batches: Vec<Vec<Read>>, np: usize) -> (Vec<Vec<Read>>, Vec<u64>) {
    let mut out: Vec<Vec<Read>> = (0..np).map(|_| Vec::new()).collect();
    let mut sent_bytes = vec![0u64; np];
    for (src, batch) in batches.into_iter().enumerate() {
        // Tally moved reads/bases and convert to wire bytes once per
        // batch (sequence + qualities + id per moved read) instead of
        // doing the arithmetic per read.
        let mut moved_reads = 0u64;
        let mut moved_bases = 0u64;
        for read in batch {
            let owner = read.owner(np);
            if owner != src {
                moved_reads += 1;
                moved_bases += read.len() as u64;
            }
            out[owner].push(read);
        }
        sent_bytes[src] += 2 * moved_bases + 8 * moved_reads;
    }
    for mine in &mut out {
        mine.sort_unstable_by_key(|r| r.id);
    }
    (out, sent_bytes)
}

// ------------------------------------------------------ skew detection

/// Skew gate for hot-shard replication: an owner qualifies as *hot* only
/// when its sampled lookup volume exceeds this multiple of the fair
/// (uniform) per-rank share. On a balanced workload nothing trips the
/// gate, so `hot_shard_k > 0` replicates nothing and costs nothing.
pub const HOT_SHARD_MIN_LOAD: f64 = 1.5;

/// Reads sampled per rank for the owner-volume histogram. The histogram
/// only has to rank `np` owners, so a bounded prefix is plenty; capping
/// keeps detection cost independent of dataset size.
pub const HISTOGRAM_SAMPLE_READS: usize = 4096;

/// Per-owner lookup-volume histogram, sampled from (a bounded prefix of)
/// this rank's reads. Counts the *backbone* keys — every k-mer and tile
/// occurrence the corrector's verification pass looks up — and leaves
/// out the mutation-neighbor candidates of the windows that are not
/// solid: those are near-uniform by hash construction, so folding
/// them in would only dilute the signal. Occurrences are counted raw —
/// *not* deduplicated — because the skew of a repeat-heavy genome lives
/// exactly in how often the same few keys recur.
///
/// Both engines call this on identically shuffled reads, so after an
/// elementwise sum across ranks ([`sum_histograms`]) every rank — and
/// both engines — agree on the same global histogram and therefore the
/// same hot-owner set.
pub fn owner_volume_histogram(reads: &[Read], owners: &OwnerMap) -> Vec<u64> {
    let mut hist = vec![0u64; owners.np()];
    for read in &reads[..reads.len().min(HISTOGRAM_SAMPLE_READS)] {
        owners.keys_of::<u64>(&read.seq).for_each(|(_, owner)| hist[owner] += 1);
        owners.keys_of::<u128>(&read.seq).for_each(|(_, owner)| hist[owner] += 1);
    }
    hist
}

/// Elementwise sum of every rank's histogram into the global one.
pub fn sum_histograms(per_rank: &[Vec<u64>]) -> Vec<u64> {
    let np = per_rank.first().map_or(0, |h| h.len());
    let mut global = vec![0u64; np];
    for h in per_rank {
        for (g, &v) in global.iter_mut().zip(h) {
            *g += v;
        }
    }
    global
}

/// Deterministically pick the at-most-`k` hottest owners from the global
/// histogram: owners above the [`HOT_SHARD_MIN_LOAD`] skew gate, ranked
/// by volume (ties broken by rank id). Returns a per-rank hot flag.
pub fn select_hot_owners(global: &[u64], k: usize) -> Vec<bool> {
    let np = global.len();
    let mut hot = vec![false; np];
    if k == 0 || np <= 1 {
        return hot;
    }
    let total: u64 = global.iter().sum();
    if total == 0 {
        return hot;
    }
    let gate = total as f64 / np as f64 * HOT_SHARD_MIN_LOAD;
    let mut candidates: Vec<(u64, usize)> = global
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v as f64 > gate)
        .map(|(i, &v)| (v, i))
        .collect();
    candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in candidates.iter().take(k) {
        hot[i] = true;
    }
    hot
}

/// Skew gate for chunk stealing: stealing engages only when the most
/// loaded rank holds more than this multiple of the mean per-rank chunk
/// count. Below it the steal traffic (request/response roundtrips plus
/// queue contention) buys back less than it costs, so a balanced shuffle
/// runs exactly the static protocol.
pub const STEAL_IMBALANCE_MIN: f64 = 1.25;

/// Decide — identically on every rank, from the allgathered per-rank
/// chunk counts — whether chunk stealing is worth switching on for this
/// run. See [`STEAL_IMBALANCE_MIN`].
pub fn steal_worth_it(chunk_loads: &[u64]) -> bool {
    if chunk_loads.len() <= 1 {
        return false;
    }
    let total: u64 = chunk_loads.iter().sum();
    if total == 0 {
        return false;
    }
    let mean = total as f64 / chunk_loads.len() as f64;
    let max = *chunk_loads.iter().max().expect("non-empty") as f64;
    max > mean * STEAL_IMBALANCE_MIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::Universe;
    use reptile::ReptileParams;

    fn make_reads(n: usize) -> Vec<Read> {
        (0..n)
            .map(|i| {
                let seq: Vec<u8> =
                    (0..20).map(|j| [b'A', b'C', b'G', b'T'][(i * 3 + j) % 4]).collect();
                Read::new(i as u64 + 1, seq, vec![30; 20])
            })
            .collect()
    }

    #[test]
    fn buckets_partition_reads() {
        let reads = make_reads(50);
        let np = 7;
        let buckets = ReadBuckets::new(np).bucket(reads.clone());
        assert_eq!(buckets.len(), np);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 50);
        for (rank, bucket) in buckets.iter().enumerate() {
            for r in bucket {
                assert_eq!(r.owner(np), rank);
            }
        }
    }

    #[test]
    fn reused_buckets_match_fresh_and_learn_sizes() {
        let np = 5;
        let mut scratch = ReadBuckets::new(np);
        for round in 0..3 {
            let reads = make_reads(40 + round * 20);
            let reused = scratch.bucket(reads.clone());
            let fresh = ReadBuckets::new(np).bucket(reads);
            assert_eq!(reused, fresh);
            for (h, b) in scratch.hint.iter().zip(&reused) {
                assert_eq!(*h, b.len(), "hints must track the last batch");
            }
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let reads = make_reads(60);
        let np = 4;
        let reads_ref = &reads;
        let results = Universe::new(np).run(move |comm| {
            // rank r starts with a contiguous slice — the file layout
            let per = reads_ref.len() / np;
            let lo = comm.rank() * per;
            let hi = if comm.rank() == np - 1 { reads_ref.len() } else { lo + per };
            shuffle_reads(comm, reads_ref[lo..hi].to_vec())
        });
        let mut all: Vec<Read> = results.into_iter().flatten().collect();
        all.sort_by_key(|r| r.id);
        assert_eq!(all, reads);
    }

    #[test]
    fn shuffle_is_deterministic_in_start_layout() {
        // The owned set per rank depends only on content, not on which
        // rank held a read initially.
        let reads = make_reads(40);
        let np = 4;
        let reads_ref = &reads;
        let layout_a = Universe::new(np).run(move |comm| {
            let per = reads_ref.len() / np;
            let lo = comm.rank() * per;
            shuffle_reads(comm, reads_ref[lo..lo + per].to_vec())
        });
        let layout_b = Universe::new(np).run(move |comm| {
            // interleaved initial layout, reused scratch as the batch
            // loops in the engines use it
            let mut scratch = ReadBuckets::new(np);
            let mine: Vec<Read> = reads_ref
                .iter()
                .enumerate()
                .filter(|(i, _)| i % np == comm.rank())
                .map(|(_, r)| r.clone())
                .collect();
            shuffle_reads_with(comm, mine, &mut scratch)
        });
        assert_eq!(layout_a, layout_b);
    }

    #[test]
    fn virtual_shuffle_matches_threaded() {
        let reads = make_reads(60);
        let np = 5;
        let per = reads.len() / np;
        let batches: Vec<Vec<Read>> = (0..np)
            .map(|r| {
                let lo = r * per;
                let hi = if r == np - 1 { reads.len() } else { lo + per };
                reads[lo..hi].to_vec()
            })
            .collect();
        let (virt, sent) = shuffle_reads_virtual(batches.clone(), np);
        let reads_ref = &batches;
        let threaded =
            Universe::new(np).run(move |comm| shuffle_reads(comm, reads_ref[comm.rank()].clone()));
        assert_eq!(virt, threaded);
        // some traffic must have moved unless the hash magically matched
        assert!(sent.iter().sum::<u64>() > 0);
        // the batched byte tally equals the per-read formula it replaced
        let mut expect = vec![0u64; np];
        for (src, batch) in batches.iter().enumerate() {
            for read in batch {
                if read.owner(np) != src {
                    expect[src] += (2 * read.len() + 8) as u64;
                }
            }
        }
        assert_eq!(sent, expect);
    }

    #[test]
    fn empty_batches_are_fine() {
        let np = 3;
        let results = Universe::new(np).run(move |comm| shuffle_reads(comm, Vec::new()));
        assert!(results.into_iter().all(|v| v.is_empty()));
    }

    // -------------------------------------------------- skew detection

    fn detect_params() -> ReptileParams {
        ReptileParams {
            k: 8,
            tile_overlap: 4,
            kmer_threshold: 2,
            tile_threshold: 2,
            ..ReptileParams::for_tests()
        }
    }

    /// A repeat-heavy workload: three quarters of the reads are one
    /// homopolymer run (a single distinct k-mer and tile — the extreme
    /// repeat), the rest diverse background. All the repeat volume
    /// lands on the one or two owners of those keys, which is exactly
    /// the skew shape a repeat-dense genome produces.
    fn repeat_reads(n: usize) -> Vec<Read> {
        (0..n)
            .map(|i| {
                let seq: Vec<u8> = if i % 4 != 0 {
                    vec![b'A'; 36]
                } else {
                    (0..36)
                        .map(|j| {
                            [b'A', b'C', b'G', b'T']
                                [(dnaseq::mix64((i * 36 + j) as u64) % 4) as usize]
                        })
                        .collect()
                };
                Read::new(i as u64 + 1, seq, vec![35; 36])
            })
            .collect()
    }

    #[test]
    fn histogram_is_deterministic_and_counts_volume() {
        let params = detect_params();
        let owners = OwnerMap::new(4, &params);
        let reads = repeat_reads(200);
        let a = owner_volume_histogram(&reads, &owners);
        let b = owner_volume_histogram(&reads, &owners);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().sum::<u64>() > 0);
        // doubling the reads (within the sample cap) doubles the volume
        let twice = owner_volume_histogram(&repeat_reads(400), &owners);
        assert_eq!(twice.iter().sum::<u64>(), 2 * a.iter().sum::<u64>());
    }

    #[test]
    fn repeat_heavy_reads_trip_the_skew_gate() {
        let params = detect_params();
        let owners = OwnerMap::new(8, &params);
        let hist = owner_volume_histogram(&repeat_reads(300), &owners);
        // the homopolymer repeat funnels 3/4 of all key occurrences to
        // the owner(s) of a single k-mer/tile — far above fair share
        let hot = select_hot_owners(&hist, 8);
        assert!(hot.iter().any(|&h| h), "repeat workload must produce hot owners: {hist:?}");
        // K caps the set
        let hot1 = select_hot_owners(&hist, 1);
        assert_eq!(hot1.iter().filter(|&&h| h).count(), 1);
        // the K=1 pick is the global argmax (first on ties)
        let max = hist.iter().copied().max().unwrap();
        let argmax = hist.iter().position(|&v| v == max).unwrap();
        assert!(hot1[argmax]);
    }

    #[test]
    fn uniform_volume_stays_cold() {
        // A flat histogram has no owner above the 1.5× gate.
        let hist = vec![100u64; 6];
        assert!(select_hot_owners(&hist, 6).iter().all(|&h| !h));
        // k=0 disables detection outright
        let skewed = vec![1000u64, 1, 1, 1];
        assert!(select_hot_owners(&skewed, 0).iter().all(|&h| !h));
        // single rank: nothing is remote, nothing to replicate
        assert_eq!(select_hot_owners(&[42], 4), vec![false]);
        // empty histogram (no lookups at all) selects nothing
        assert!(select_hot_owners(&[0, 0, 0], 2).iter().all(|&h| !h));
    }

    #[test]
    fn sum_histograms_is_elementwise() {
        let global = sum_histograms(&[vec![1, 2, 3], vec![10, 20, 30], vec![0, 0, 1]]);
        assert_eq!(global, vec![11, 22, 34]);
        assert!(sum_histograms(&[]).is_empty());
    }

    #[test]
    fn steal_gate_opens_only_on_load_imbalance() {
        // balanced loads (and shuffle-level jitter) stay static
        assert!(!steal_worth_it(&[40, 40, 40, 40]));
        assert!(!steal_worth_it(&[38, 41, 40, 42]));
        // a rank holding >1.25x the mean trips the gate
        assert!(steal_worth_it(&[200, 40, 40, 40]));
        // degenerate shapes never steal
        assert!(!steal_worth_it(&[]));
        assert!(!steal_worth_it(&[100]));
        assert!(!steal_worth_it(&[0, 0, 0]));
    }
}
