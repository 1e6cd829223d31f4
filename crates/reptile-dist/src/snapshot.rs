//! Persistent sharded spectrum snapshots — the build-once / correct-many
//! bridge between runs.
//!
//! Steps II–III dominate a correction run's wall time, yet their output —
//! the pruned, owner-partitioned k-mer and tile spectra — depends only on
//! the input dataset and the Reptile parameters. This module persists
//! that output through the [`specstore`] store API
//! ([`SnapshotWriter`] / [`SnapshotReader`]: one shard per
//! `(rank, table-kind)`, optional Reed-Solomon parity shards, and a
//! manifest) and loads it back:
//!
//! * **Same `np`** — each rank reads exactly its own two shards and
//!   adopts their slot arrays verbatim, no rehash: the tables probe
//!   identically to the freshly built ones.
//! * **Different `np`** — new rank `r` loads the shards of every old
//!   rank `o` with `o % np == r` and streams the entries through the
//!   build's own count exchange (`spectrum::exchange_counts`), which re-owns
//!   every key under the new [`OwnerMap`]. Counts are already global and
//!   pruned, and shard key sets are disjoint, so the merged result is
//!   exactly what a fresh build at the new `np` owns.
//!
//! **Repair.** Loads take a [`RecoveryPolicy`]. Under `Strict` every
//! corruption class surfaces as its typed [`SnapshotError`], as it
//! always did. Under `Repair` a damaged shard (truncated, checksummed
//! wrong, missing, header stomped) is reconstructed from the snapshot's
//! parity shards *by the rank that loads it* — shard groups are disjoint
//! across loading ranks, so distributed repair needs no coordination and
//! in-place healing (`rewrite: true`) never races. The repair work each
//! rank performed is reported in [`LoadedSpectra::repair`] /
//! [`SerialLoad::per_rank_repair`] so the engines can account it.
//!
//! **Failure protocol.** All file I/O happens *before* any collective,
//! then every rank joins an allgather of its error flag. A rank that
//! failed returns its own typed [`SnapshotError`]; its peers return
//! [`SnapshotError::PeerFailure`]. No rank can be left behind in a
//! collective, and no rank ever sees garbage — every corruption class is
//! detected (and under `Repair`, mended) before a table is adopted.

use crate::owner::Key;
use crate::owner::OwnerMap;
use crate::spectrum::{exchange_counts, BuildStats};
use mpisim::Comm;
use reptile::spectrum::{KmerSpectrum, Normalized, Spectrum, TileSpectrum};
use reptile::{FlatKmerTable, FlatTable, FlatTileTable, ReptileParams, SpectrumKey};
use specstore::{
    ConfigFingerprint, LoadedShard, RecoveryPolicy, RepairStats, ShardKind, ShardRecord,
    SnapshotError, SnapshotReader, SnapshotWriter,
};
use std::path::Path;

/// One rank's loaded owned spectra, plus the I/O accounting the reports
/// carry.
#[derive(Debug)]
pub struct LoadedSpectra {
    /// Owned k-mers with global counts (pruned) — adopted slot arrays, no
    /// rehash, on a same-`np` load; rebuilt through the exchange on a
    /// re-shard.
    pub kmers: KmerSpectrum,
    /// Owned tiles, same provenance.
    pub tiles: TileSpectrum,
    /// Shard bytes (headers included) this rank read.
    pub bytes_read: u64,
    /// Whether the snapshot was built at a different `np` and went
    /// through the re-owning exchange.
    pub resharded: bool,
    /// Reed-Solomon repair work this rank performed during the load
    /// (all-zero on a clean load or under `Strict`).
    pub repair: RepairStats,
}

/// A whole snapshot loaded by one process (the virtual engine): the
/// merged global spectra plus the per-*new*-rank byte attribution the
/// cost model charges.
#[derive(Debug)]
pub struct SerialLoad {
    /// Union of every shard's entries (the global pruned spectra).
    pub kmers: KmerSpectrum,
    /// Tile twin.
    pub tiles: TileSpectrum,
    /// Bytes new rank `r` would read: its own shards at matching `np`,
    /// its `o % np == r` shard group otherwise. Indexed by new rank.
    pub per_rank_bytes: Vec<u64>,
    /// Repair work attributable to each new rank (the rank whose shard
    /// group the reconstruction ran for). Indexed like
    /// [`per_rank_bytes`](SerialLoad::per_rank_bytes).
    pub per_rank_repair: Vec<RepairStats>,
    /// Whether the snapshot `np` differs from the requested one.
    pub resharded: bool,
}

/// Agree on one rank's file-I/O outcome with the whole group: allgather
/// everyone's error flag, then propagate the local error if there is one
/// and blame the peers otherwise. Collective. It runs before any rank
/// acts on its local result — after a snapshot save's or load's file
/// I/O, and after a budgeted build's spill merge — so a failure anywhere
/// aborts all ranks together instead of deadlocking the survivors in a
/// later collective.
pub(crate) fn agree_on_failure<T>(
    comm: &Comm,
    local: Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let failed_ranks: u64 = comm
        .allgatherv(vec![local.is_err() as u64])
        .iter()
        .map(|flags| flags.first().copied().unwrap_or(0))
        .sum();
    match local {
        Err(e) => Err(e),
        Ok(_) if failed_ranks > 0 => Err(SnapshotError::PeerFailure { failed_ranks }),
        Ok(v) => Ok(v),
    }
}

/// Save this rank's owned spectra into the snapshot directory with
/// `parity` Reed-Solomon shards per table kind; rank 0 additionally
/// gathers every rank's shard records over the wire, encodes the parity,
/// and writes the manifest. Returns the bytes this rank wrote (rank 0's
/// total includes parity and the manifest). Collective: every rank must
/// call it together.
pub fn save_snapshot(
    comm: &Comm,
    dir: &Path,
    params: &ReptileParams,
    parity: usize,
    kmers: &KmerSpectrum,
    tiles: &TileSpectrum,
) -> Result<u64, SnapshotError> {
    let me = comm.rank();
    let np = comm.size();
    let fp = ConfigFingerprint::for_params(params);
    let local: Result<(SnapshotWriter, ShardRecord, ShardRecord), SnapshotError> = (|| {
        let mut w = SnapshotWriter::create(dir, &fp, np, parity)?;
        let kr = w.write_shard(me, kmers.table())?;
        let tr = w.write_shard(me, tiles.table())?;
        Ok((w, kr, tr))
    })();
    let (writer, kr, tr) = agree_on_failure(comm, local)?;
    // Shard records cross the wire as fixed tuples (file names are
    // recomputed from rank and kind by the store), so the manifest lists
    // every rank's true byte counts and checksums, not recomputed
    // guesses.
    let wire = vec![
        (me as u64, ShardKind::Kmer.code() as u64, kr.bytes, kr.checksum),
        (me as u64, ShardKind::Tile.code() as u64, tr.bytes, tr.checksum),
    ];
    let gathered = comm.allgatherv(wire);
    let finish_result = if me == 0 {
        let records: Vec<ShardRecord> = gathered
            .into_iter()
            .flatten()
            .map(|(rank, kind_code, bytes, checksum)| {
                let kind = ShardKind::from_code(kind_code as u32).expect("rank sent a valid kind");
                ShardRecord::for_shard(rank as usize, kind, bytes, checksum)
            })
            .collect();
        writer.finish_with(records)
    } else {
        Ok(0)
    };
    let extra_bytes = agree_on_failure(comm, finish_result)?;
    Ok(kr.bytes + tr.bytes + extra_bytes)
}

/// The old ranks whose shards new rank `me` is responsible for: its own
/// at matching `np`, the `o % np == me` group otherwise. Every shard is
/// read exactly once across the new ranks, and the assignment needs no
/// communication to agree on — which is also what makes distributed
/// repair-with-rewrite race-free.
fn shard_group(old_np: usize, np: usize, me: usize) -> Vec<usize> {
    if old_np == np {
        vec![me]
    } else {
        (0..old_np).filter(|o| o % np == me).collect()
    }
}

/// Apply the fault plan's snapshot truncation to `old_rank`'s k-mer
/// shard (file name from the verified manifest).
fn apply_chop(
    reader: &SnapshotReader,
    dir: &Path,
    old_rank: usize,
    keep: u64,
) -> Result<(), SnapshotError> {
    let name = reader
        .manifest()
        .shard(old_rank, ShardKind::Kmer)
        .expect("parser enforces coverage")
        .file_name
        .clone();
    let path = dir.join(&name);
    mpisim::chop_file(&path, keep).map_err(|e| SnapshotError::io(&path, e))
}

/// Read one old rank's shard pair through the repairing reader.
fn load_shard_pair(
    reader: &mut SnapshotReader,
    old_rank: usize,
) -> Result<(LoadedShard<FlatKmerTable>, LoadedShard<FlatTileTable>), SnapshotError> {
    let k = reader.load_kmer(old_rank)?;
    let t = reader.load_tile(old_rank)?;
    Ok((k, t))
}

/// Merge a loaded shard into a staging spectrum. Key sets are disjoint
/// across shards of one snapshot, so this is a pure union.
fn merge_shard<K: SpectrumKey>(shard: LoadedShard<FlatTable<K>>, into: &mut Spectrum<K>) {
    into.reserve(shard.table.len());
    for (code, count) in shard.table.iter() {
        into.add_count(Normalized::assume(code), count);
    }
}

/// Load this rank's owned spectra from a snapshot directory under
/// `policy`. `chop`, when set, truncates the first k-mer shard in this
/// rank's group to that many bytes before reading — the deterministic
/// snapshot-corruption fault injection (surfaces as a typed
/// [`SnapshotError::Truncated`] under `Strict`, and as a successful
/// repaired load under `Repair` when the loss fits the parity budget).
/// Collective: every rank must call it together (the re-shard path runs
/// an exchange, and even the same-`np` path joins the failure
/// allgather).
pub fn load_snapshot(
    comm: &Comm,
    dir: &Path,
    params: &ReptileParams,
    policy: RecoveryPolicy,
    chop: Option<u64>,
) -> Result<LoadedSpectra, SnapshotError> {
    let me = comm.rank();
    let np = comm.size();
    let expect = ConfigFingerprint::for_params(params);
    // All local I/O first; the group decides success together below.
    let local: Result<(Vec<_>, usize, RepairStats), SnapshotError> = (|| {
        let mut reader = SnapshotReader::open(dir, &expect, policy)?;
        let old_np = reader.np();
        let mut loaded = Vec::new();
        for (i, old_rank) in shard_group(old_np, np, me).into_iter().enumerate() {
            if i == 0 {
                if let Some(keep) = chop {
                    apply_chop(&reader, dir, old_rank, keep)?;
                }
            }
            loaded.push(load_shard_pair(&mut reader, old_rank)?);
        }
        Ok((loaded, old_np, reader.stats()))
    })();
    let (loaded, old_np, repair) = agree_on_failure(comm, local)?;
    let bytes_read: u64 = loaded.iter().map(|(k, t)| k.bytes_read + t.bytes_read).sum();

    if old_np == np {
        let (k, t) = loaded.into_iter().next().expect("same-np group is exactly [me]");
        return Ok(LoadedSpectra {
            kmers: KmerSpectrum::from_table(params.kmer_codec(), params.canonical, k.table),
            tiles: TileSpectrum::from_table(params.tile_codec(), params.canonical, t.table),
            bytes_read,
            resharded: false,
            repair,
        });
    }

    // Re-shard: union this rank's shard group locally, then re-own the
    // entries through the build's count exchange. No prune afterwards —
    // the snapshot was pruned at save time and counts are final.
    let owners = OwnerMap::new(np, params);
    let mut staged_k = KmerSpectrum::new(params.kmer_codec(), params.canonical);
    let mut staged_t = TileSpectrum::new(params.tile_codec(), params.canonical);
    for (k, t) in loaded {
        merge_shard(k, &mut staged_k);
        merge_shard(t, &mut staged_t);
    }
    let mut kmers = KmerSpectrum::new(params.kmer_codec(), params.canonical);
    let mut tiles = TileSpectrum::new(params.tile_codec(), params.canonical);
    let mut stats = BuildStats::default();
    exchange_counts(comm, &owners, staged_k, &mut kmers, &mut stats);
    exchange_counts(comm, &owners, staged_t, &mut tiles, &mut stats);
    Ok(LoadedSpectra { kmers, tiles, bytes_read, resharded: true, repair })
}

/// Single-process snapshot save (the virtual engine): bucket the global
/// spectra by owner, write every rank's shards plus `parity` parity
/// shards per kind and the manifest, and return the bytes attributable
/// to each rank (rank 0 carries the parity and manifest bytes, as in
/// the distributed protocol).
pub fn save_snapshot_serial(
    dir: &Path,
    params: &ReptileParams,
    np: usize,
    parity: usize,
    kmers: &KmerSpectrum,
    tiles: &TileSpectrum,
) -> Result<Vec<u64>, SnapshotError> {
    let fp = ConfigFingerprint::for_params(params);
    let owners = OwnerMap::new(np, params);
    let rank_kmers = split_by_owner(kmers, &owners);
    let rank_tiles = split_by_owner(tiles, &owners);
    let mut writer = SnapshotWriter::create(dir, &fp, np, parity)?;
    let mut per_rank = vec![0u64; np];
    for rank in 0..np {
        let kr = writer.write_shard(rank, rank_kmers[rank].table())?;
        let tr = writer.write_shard(rank, rank_tiles[rank].table())?;
        per_rank[rank] = kr.bytes + tr.bytes;
    }
    per_rank[0] += writer.finish()?;
    Ok(per_rank)
}

/// `spec`'s entries bucketed into one spectrum per owner rank, each
/// sized exactly once by a counting pass.
fn split_by_owner<K: Key>(spec: &Spectrum<K>, owners: &OwnerMap) -> Vec<Spectrum<K>> {
    let mut sizes = vec![0usize; owners.np()];
    for (code, _) in spec.iter() {
        sizes[K::owner(Normalized::assume(code), owners)] += 1;
    }
    let mut parts: Vec<Spectrum<K>> = sizes
        .into_iter()
        .map(|n| {
            let mut part = Spectrum::new(spec.codec(), spec.canonical());
            part.reserve(n);
            part
        })
        .collect();
    for (code, count) in spec.iter() {
        let key = Normalized::assume(code);
        parts[K::owner(key, owners)].add_count(key, count);
    }
    parts
}

/// Single-process snapshot load (the virtual engine): read every shard
/// under `policy`, merge into global spectra, and attribute the bytes
/// and repair work each *new* rank would have performed. `chop` is
/// `(rank, keep_bytes)` — the fault layer's snapshot truncation, applied
/// to the first k-mer shard in that new rank's group.
pub fn load_snapshot_serial(
    dir: &Path,
    params: &ReptileParams,
    np: usize,
    policy: RecoveryPolicy,
    chop: Option<(usize, u64)>,
) -> Result<SerialLoad, SnapshotError> {
    let expect = ConfigFingerprint::for_params(params);
    let mut reader = SnapshotReader::open(dir, &expect, policy)?;
    let old_np = reader.np();
    let mut kmers = KmerSpectrum::new(params.kmer_codec(), params.canonical);
    let mut tiles = TileSpectrum::new(params.tile_codec(), params.canonical);
    let mut per_rank_bytes = vec![0u64; np];
    let mut per_rank_repair = vec![RepairStats::default(); np];
    for me in 0..np {
        let before = reader.stats();
        for (i, old_rank) in shard_group(old_np, np, me).into_iter().enumerate() {
            if i == 0 {
                if let Some((chop_rank, keep)) = chop {
                    if chop_rank == me {
                        apply_chop(&reader, dir, old_rank, keep)?;
                    }
                }
            }
            let (k, t) = load_shard_pair(&mut reader, old_rank)?;
            per_rank_bytes[me] += k.bytes_read + t.bytes_read;
            merge_shard(k, &mut kmers);
            merge_shard(t, &mut tiles);
        }
        per_rank_repair[me] = reader.stats().since(&before);
    }
    Ok(SerialLoad { kmers, tiles, per_rank_bytes, per_rank_repair, resharded: old_np != np })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicConfig;
    use crate::spectrum::{build_distributed, RankTables};
    use crate::test_data::{small_params as params, template_reads};
    use mpisim::Universe;
    use reptile::spectrum::LocalSpectra;
    use specstore::Manifest;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("reptile-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build_and_save(
        comm: &Comm,
        reads: &[dnaseq::Read],
        dir: &Path,
        parity: usize,
    ) -> RankTables {
        let np = comm.size();
        let mine: Vec<_> = reads
            .iter()
            .enumerate()
            .filter(|(i, _)| i % np == comm.rank())
            .map(|(_, r)| r.clone())
            .collect();
        let (tables, _) =
            build_distributed(comm, &mine, 1000, &params(), &HeuristicConfig::base(), 1);
        save_snapshot(comm, dir, &params(), parity, &tables.kmers.owned, &tables.tiles.owned)
            .expect("save");
        tables
    }

    /// Build at np, save, reload at the same np: every rank's tables are
    /// entry-identical and byte-accurately accounted.
    #[test]
    fn save_and_load_same_np_roundtrip() {
        let reads = template_reads(40, 20);
        let reads_ref = &reads;
        let dir = tmpdir("same-np");
        let dir_ref = &dir;
        let np = 3;
        let built = Universe::new(np).run(move |comm| build_and_save(comm, reads_ref, dir_ref, 0));
        let loaded = Universe::new(np).run(move |comm| {
            load_snapshot(comm, dir_ref, &params(), RecoveryPolicy::Strict, None).expect("load")
        });
        for (tables, l) in built.iter().zip(&loaded) {
            assert!(!l.resharded);
            assert!(l.bytes_read > 0);
            assert_eq!(l.repair, RepairStats::default());
            let mut a: Vec<_> = tables.kmers.owned.iter().collect();
            let mut b: Vec<_> = l.kmers.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "kmer tables must roundtrip");
            assert_eq!(tables.kmers.owned.memory_bytes(), l.kmers.memory_bytes());
            let mut at: Vec<_> = tables.tiles.owned.iter().collect();
            let mut bt: Vec<_> = l.tiles.iter().collect();
            at.sort_unstable();
            bt.sort_unstable();
            assert_eq!(at, bt, "tile tables must roundtrip");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Save at np=4, load at np=3: the union of re-sharded tables equals
    /// the sequential spectrum, every key at its new owner.
    #[test]
    fn reshard_load_matches_fresh_ownership() {
        let p = params();
        let reads = template_reads(40, 20);
        let seq = LocalSpectra::build(&reads, &p);
        let reads_ref = &reads;
        let dir = tmpdir("reshard");
        let dir_ref = &dir;
        Universe::new(4).run(move |comm| {
            build_and_save(comm, reads_ref, dir_ref, 0);
        });
        let new_np = 3;
        let loaded = Universe::new(new_np).run(move |comm| {
            load_snapshot(comm, dir_ref, &params(), RecoveryPolicy::Strict, None).expect("reshard")
        });
        let owners = OwnerMap::new(new_np, &p);
        let mut union: Vec<(u64, u32)> = Vec::new();
        for (rank, l) in loaded.iter().enumerate() {
            assert!(l.resharded);
            for (code, count) in l.kmers.iter() {
                assert_eq!(
                    owners.kmer_owner_at(Normalized::assume(code)),
                    rank,
                    "key at wrong owner after reshard"
                );
                union.push((code, count));
            }
        }
        union.sort_unstable();
        let mut expect: Vec<(u64, u32)> = seq.kmers.iter().collect();
        expect.sort_unstable();
        assert_eq!(union, expect, "resharded union must equal the sequential spectrum");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A chopped shard surfaces as Truncated on the chopped rank and
    /// PeerFailure everywhere else under `Strict` — nobody deadlocks.
    #[test]
    fn chop_faults_are_typed_on_every_rank() {
        let reads = template_reads(30, 20);
        let reads_ref = &reads;
        let dir = tmpdir("chop");
        let dir_ref = &dir;
        let np = 3;
        Universe::new(np).run(move |comm| {
            build_and_save(comm, reads_ref, dir_ref, 0);
        });
        let results = Universe::new(np).run(move |comm| {
            let chop = (comm.rank() == 1).then_some(40u64);
            load_snapshot(comm, dir_ref, &params(), RecoveryPolicy::Strict, chop)
        });
        assert!(matches!(results[1], Err(SnapshotError::Truncated { .. })), "{:?}", results[1]);
        for rank in [0, 2] {
            match &results[rank] {
                Err(SnapshotError::PeerFailure { failed_ranks: 1 }) => {}
                other => panic!("rank {rank}: expected PeerFailure, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same chopped shard under a `Repair` policy (parity saved
    /// alongside): the chopped rank reconstructs from parity and every
    /// rank's load equals the clean-run tables bit for bit.
    #[test]
    fn chop_fault_is_repaired_with_parity() {
        let reads = template_reads(30, 20);
        let reads_ref = &reads;
        let dir = tmpdir("chop-repair");
        let dir_ref = &dir;
        let np = 3;
        let built = Universe::new(np).run(move |comm| build_and_save(comm, reads_ref, dir_ref, 1));
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let loaded = Universe::new(np).run(move |comm| {
            let chop = (comm.rank() == 1).then_some(40u64);
            load_snapshot(comm, dir_ref, &params(), policy, chop).expect("repairing load")
        });
        for (rank, (tables, l)) in built.iter().zip(&loaded).enumerate() {
            let mut a: Vec<_> = tables.kmers.owned.iter().collect();
            let mut b: Vec<_> = l.kmers.iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "rank {rank} kmers must match after repair");
            if rank == 1 {
                assert_eq!(l.repair.shards_repaired, 1, "chopped rank repaired its shard");
                assert!(l.repair.bytes_reconstructed > 0);
            } else {
                assert_eq!(l.repair, RepairStats::default(), "clean ranks repaired nothing");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serial save + serial load roundtrip, including the re-shard byte
    /// attribution.
    #[test]
    fn serial_roundtrip_and_byte_attribution() {
        let p = params();
        let reads = template_reads(40, 20);
        let spectra = LocalSpectra::build(&reads, &p);
        let dir = tmpdir("serial");
        let per_rank =
            save_snapshot_serial(&dir, &p, 4, 0, &spectra.kmers, &spectra.tiles).expect("save");
        assert_eq!(per_rank.len(), 4);
        assert!(per_rank.iter().all(|&b| b > 0));
        // same np
        let same =
            load_snapshot_serial(&dir, &p, 4, RecoveryPolicy::Strict, None).expect("serial load");
        assert!(!same.resharded);
        assert_eq!(same.kmers.len(), spectra.kmers.len());
        for (code, count) in spectra.kmers.iter() {
            assert_eq!(same.kmers.count(code), count);
        }
        // reshard: every shard's bytes attributed exactly once
        let re = load_snapshot_serial(&dir, &p, 3, RecoveryPolicy::Strict, None)
            .expect("serial reshard");
        assert!(re.resharded);
        assert_eq!(re.kmers.len(), spectra.kmers.len());
        let manifest_bytes = std::fs::metadata(Manifest::path_in(&dir)).unwrap().len();
        let shard_total: u64 = per_rank.iter().sum::<u64>() - manifest_bytes;
        assert_eq!(re.per_rank_bytes.iter().sum::<u64>(), shard_total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serial chop + repair: the repair work lands on the chopped rank's
    /// attribution row, everyone else's stays zero.
    #[test]
    fn serial_repair_attribution_lands_on_the_chopped_rank() {
        let p = params();
        let reads = template_reads(40, 20);
        let spectra = LocalSpectra::build(&reads, &p);
        let dir = tmpdir("serial-repair");
        save_snapshot_serial(&dir, &p, 4, 1, &spectra.kmers, &spectra.tiles).expect("save");
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let got = load_snapshot_serial(&dir, &p, 4, policy, Some((2, 37))).expect("load");
        assert_eq!(got.kmers.len(), spectra.kmers.len());
        for (rank, rep) in got.per_rank_repair.iter().enumerate() {
            if rank == 2 {
                assert_eq!(rep.shards_repaired, 1, "rank 2 repaired its chopped shard");
            } else {
                assert_eq!(*rep, RepairStats::default(), "rank {rank} repaired nothing");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Loading with different parameters is a typed fingerprint
    /// mismatch, not garbage.
    #[test]
    fn serial_load_rejects_wrong_params() {
        let p = params();
        let reads = template_reads(20, 20);
        let spectra = LocalSpectra::build(&reads, &p);
        let dir = tmpdir("wrong-params");
        save_snapshot_serial(&dir, &p, 2, 0, &spectra.kmers, &spectra.tiles).expect("save");
        let other = ReptileParams { k: 7, tile_overlap: 3, ..ReptileParams::for_tests() };
        let err = load_snapshot_serial(&dir, &other, 2, RecoveryPolicy::Strict, None).unwrap_err();
        assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
