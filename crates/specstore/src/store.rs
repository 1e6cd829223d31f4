//! The snapshot store API: [`SnapshotWriter`] / [`SnapshotReader`]
//! handles that own the directory layout, manifest, fingerprint checks,
//! parity encoding, and online shard repair.
//!
//! All snapshot I/O goes through these two types — the per-file
//! shard codec is crate-internal. A writer streams
//! each rank's tables into checksummed shard files, then `finish`
//! encodes `m` Reed-Solomon parity shards per table kind (reading the
//! just-written data files back in `IO_CHUNK` blocks, so parity never
//! needs the tables in memory) and records everything in `MANIFEST.txt`.
//!
//! A reader classifies every shard-read failure. Under
//! [`RecoveryPolicy::Strict`] any corruption is returned as the typed
//! [`SnapshotError`] it always was. Under [`RecoveryPolicy::Repair`] a
//! shard-local corruption (truncation, checksum mismatch, missing file,
//! stomped header) triggers the repair pipeline for that shard's group:
//!
//! 1. **classify** — every group member (data and parity) is re-read
//!    raw and verified against the manifest's recorded length and
//!    checksum, producing the surviving-shard set;
//! 2. **repair** — if the losses fit the budget
//!    (`min(manifest parity, policy max_lost)`), the missing data
//!    shards are reconstructed by matrix inversion over the survivors
//!    ([`crate::rs`]);
//! 3. **verify** — each rebuilt shard's checksum must match the
//!    manifest record before adoption, and the bytes then pass through
//!    the same full decode as a file read. With `rewrite` set, rebuilt
//!    shards this reader actually loads are also written back to disk
//!    (temp file + rename), healing the snapshot in place.
//!
//! Losses beyond the budget surface as [`SnapshotError::TooManyLost`];
//! requesting `Repair` on a parity-free (e.g. v1) snapshot is
//! [`SnapshotError::NoParity`].

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use reptile::{FlatKmerTable, FlatTable, FlatTileTable, SpectrumKey};

use crate::format::{ConfigFingerprint, ShardKind, SnapshotError};
use crate::frame::{self, FrameWriter, IO_CHUNK, PARITY, SHARD};
use crate::manifest::{Manifest, ParityRecord, ShardRecord};
use crate::rs::{RsCode, RsError};
use crate::shard::{adopt_shard, parity_file_name, shard_file_name, write_shard, LoadedShard};

/// What a loader does when a shard turns out to be corrupt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Surface every corruption class as its typed error (the only
    /// behavior that exists for parity-free snapshots).
    #[default]
    Strict,
    /// Reconstruct up to `max_lost` lost data shards per (kind, group)
    /// from the parity shards instead of failing.
    Repair {
        /// Most lost data shards this loader will repair per group
        /// (clamped to the manifest's parity count).
        max_lost: usize,
        /// Also write rebuilt shards back to disk (temp file + rename),
        /// healing the snapshot for future loads.
        rewrite: bool,
    },
}

impl RecoveryPolicy {
    /// Does this policy attempt reconstruction at all?
    pub fn repairs(&self) -> bool {
        matches!(self, RecoveryPolicy::Repair { .. })
    }
}

/// Counters for the repair work a [`SnapshotReader`] performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Data shards reconstructed from parity.
    pub shards_repaired: u64,
    /// Bytes of reconstructed shard data (at recorded, unpadded sizes).
    pub bytes_reconstructed: u64,
    /// Bytes read from surviving shards to feed reconstruction.
    pub survivor_bytes_read: u64,
    /// Rebuilt shards written back to disk (`rewrite: true` only).
    pub shards_rewritten: u64,
    /// Wall-clock nanoseconds spent classifying + reconstructing.
    pub repair_ns: u64,
    /// Wall-clock nanoseconds of the classify pass alone: reading and
    /// verifying every group member. The members stream on scoped
    /// threads, so this is the slowest single read, not the sum — the
    /// gap between `classify_ns * members` and `classify_ns` is the
    /// parallel win.
    pub classify_ns: u64,
}

impl RepairStats {
    /// Component-wise difference against an earlier snapshot of the
    /// counters (for per-rank attribution in serial loads).
    pub fn since(&self, earlier: &RepairStats) -> RepairStats {
        RepairStats {
            shards_repaired: self.shards_repaired - earlier.shards_repaired,
            bytes_reconstructed: self.bytes_reconstructed - earlier.bytes_reconstructed,
            survivor_bytes_read: self.survivor_bytes_read - earlier.survivor_bytes_read,
            shards_rewritten: self.shards_rewritten - earlier.shards_rewritten,
            repair_ns: self.repair_ns - earlier.repair_ns,
            classify_ns: self.classify_ns - earlier.classify_ns,
        }
    }

    /// Component-wise accumulate.
    pub fn merge(&mut self, other: &RepairStats) {
        self.shards_repaired += other.shards_repaired;
        self.bytes_reconstructed += other.bytes_reconstructed;
        self.survivor_bytes_read += other.survivor_bytes_read;
        self.shards_rewritten += other.shards_rewritten;
        self.repair_ns += other.repair_ns;
        self.classify_ns += other.classify_ns;
    }
}

fn rs_err(dir: &Path, kind: ShardKind, e: RsError) -> SnapshotError {
    match e {
        RsError::TooManyLost { lost, parity } => {
            SnapshotError::TooManyLost { dir: dir.to_path_buf(), kind, lost, budget: parity }
        }
        RsError::BadGeometry { data, parity } => SnapshotError::InvalidTable {
            path: dir.to_path_buf(),
            reason: format!("unsupported erasure geometry: {data} data + {parity} parity shards"),
        },
    }
}

/// Writes one snapshot directory: shard files per rank, then parity +
/// manifest at `finish`.
pub struct SnapshotWriter {
    dir: PathBuf,
    fingerprint: ConfigFingerprint,
    np: usize,
    parity: usize,
    records: Vec<ShardRecord>,
}

impl SnapshotWriter {
    /// Create (or reuse) the snapshot directory `dir` for an `np`-rank
    /// snapshot with `parity` Reed-Solomon shards per table kind.
    pub fn create(
        dir: &Path,
        fingerprint: &ConfigFingerprint,
        np: usize,
        parity: usize,
    ) -> Result<SnapshotWriter, SnapshotError> {
        if np == 0 {
            return Err(SnapshotError::InvalidTable {
                path: dir.to_path_buf(),
                reason: "snapshot needs at least one rank".into(),
            });
        }
        if parity > 0 && np + parity > 256 {
            return Err(rs_err(dir, ShardKind::Kmer, RsError::BadGeometry { data: np, parity }));
        }
        std::fs::create_dir_all(dir).map_err(|e| SnapshotError::io(dir, e))?;
        Ok(SnapshotWriter {
            dir: dir.to_path_buf(),
            fingerprint: *fingerprint,
            np,
            parity,
            records: Vec::new(),
        })
    }

    /// Parity shards per table kind this writer will encode.
    pub fn parity(&self) -> usize {
        self.parity
    }

    /// Write `rank`'s table of either key kind as a shard; returns its
    /// record (also retained for `finish`).
    pub fn write_shard<K: SpectrumKey>(
        &mut self,
        rank: usize,
        table: &FlatTable<K>,
    ) -> Result<ShardRecord, SnapshotError> {
        self.check_rank(rank)?;
        let path = self.dir.join(shard_file_name(rank, ShardKind::of::<K>()));
        let rec = write_shard(&path, &self.fingerprint, rank, self.np, table)?;
        self.records.push(rec.clone());
        Ok(rec)
    }

    fn check_rank(&self, rank: usize) -> Result<(), SnapshotError> {
        if rank >= self.np {
            return Err(SnapshotError::InvalidTable {
                path: self.dir.clone(),
                reason: format!("rank {rank} out of range for np={}", self.np),
            });
        }
        Ok(())
    }

    /// Finish a snapshot this writer wrote alone: encode parity over
    /// its own records and write the manifest. Returns the extra bytes
    /// written (parity + manifest).
    pub fn finish(self) -> Result<u64, SnapshotError> {
        let records = self.records.clone();
        self.finish_with(records)
    }

    /// Finish a snapshot whose shards were written by many ranks: the
    /// caller gathers every rank's records (this writer's own are in
    /// `records()` already) and exactly one rank calls this. Encodes
    /// parity by streaming the data shard files back through
    /// `IO_CHUNK`-sized blocks and writes the manifest.
    pub fn finish_with(self, mut records: Vec<ShardRecord>) -> Result<u64, SnapshotError> {
        records.sort_by_key(|r| (r.rank, r.kind.code()));
        for kind in [ShardKind::Kmer, ShardKind::Tile] {
            for rank in 0..self.np {
                if !records.iter().any(|r| r.rank == rank && r.kind == kind) {
                    return Err(SnapshotError::Manifest {
                        path: Manifest::path_in(&self.dir),
                        line: 0,
                        reason: format!("no {kind} shard record for rank {rank}"),
                    });
                }
            }
        }
        let mut parity_shards = Vec::new();
        let mut extra = 0u64;
        if self.parity > 0 {
            for kind in [ShardKind::Kmer, ShardKind::Tile] {
                let (recs, bytes) = encode_parity(&self.dir, kind, &records, self.parity)?;
                parity_shards.extend(recs);
                extra += bytes;
            }
        }
        let manifest = Manifest {
            np: self.np,
            fingerprint: self.fingerprint,
            parity: self.parity,
            shards: records,
            parity_shards,
        };
        extra += manifest.write(&self.dir)?;
        Ok(extra)
    }

    /// Records of the shards this writer wrote (the per-rank wire
    /// payload for a distributed `finish_with`).
    pub fn records(&self) -> &[ShardRecord] {
        &self.records
    }
}

/// Encode `m` parity shards over `kind`'s data shards by streaming the
/// files back chunk-by-chunk (shorter shards are zero-padded to the
/// group's stripe length). Returns the parity records and bytes written.
fn encode_parity(
    dir: &Path,
    kind: ShardKind,
    records: &[ShardRecord],
    m: usize,
) -> Result<(Vec<ParityRecord>, u64), SnapshotError> {
    let data: Vec<&ShardRecord> = records.iter().filter(|r| r.kind == kind).collect();
    let k = data.len();
    let code = RsCode::new(k, m).map_err(|e| rs_err(dir, kind, e))?;
    let stripe = data.iter().map(|r| r.bytes).max().unwrap_or(0);

    let mut readers: Vec<(BufReader<File>, u64)> = Vec::with_capacity(k);
    for rec in &data {
        let path = dir.join(&rec.file_name);
        let file = File::open(&path).map_err(|e| SnapshotError::io(&path, e))?;
        readers.push((BufReader::new(file), rec.bytes));
    }
    let mut writers = (0..m)
        .map(|index| {
            FrameWriter::create(PARITY, &dir.join(parity_file_name(kind, index)), [], IO_CHUNK)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut dbuf = vec![0u8; IO_CHUNK];
    let mut pbufs = vec![vec![0u8; IO_CHUNK]; m];
    let mut done = 0u64;
    while done < stripe {
        let len = IO_CHUNK.min((stripe - done) as usize);
        for p in pbufs.iter_mut() {
            p[..len].fill(0);
        }
        for (j, (reader, remaining)) in readers.iter_mut().enumerate() {
            let want = (*remaining).min(len as u64) as usize;
            if want > 0 {
                let path = dir.join(&data[j].file_name);
                reader.read_exact(&mut dbuf[..want]).map_err(|e| SnapshotError::io(&path, e))?;
                *remaining -= want as u64;
            }
            dbuf[want..len].fill(0);
            code.encode_acc(j, &dbuf[..len], &mut pbufs);
        }
        for (out, p) in writers.iter_mut().zip(&pbufs) {
            out.put(&p[..len])?;
        }
        done += len as u64;
    }

    let mut recs = Vec::with_capacity(m);
    for (index, out) in writers.into_iter().enumerate() {
        let (checksum, bytes) = out.finish()?;
        recs.push(ParityRecord {
            kind,
            index,
            file_name: parity_file_name(kind, index),
            bytes,
            checksum,
        });
    }
    Ok((recs, stripe * m as u64))
}

/// Reads one snapshot directory, repairing lost shards on the way when
/// the policy allows it.
pub struct SnapshotReader {
    dir: PathBuf,
    expect: ConfigFingerprint,
    policy: RecoveryPolicy,
    manifest: Manifest,
    stats: RepairStats,
    /// Rebuilt shard images by `(rank, kind code)`, adopted on demand.
    rebuilt: HashMap<(usize, u32), Vec<u8>>,
}

impl SnapshotReader {
    /// Open a snapshot: read + fingerprint-check the manifest and
    /// validate the policy against it (a `Repair` policy on a
    /// parity-free snapshot is a typed error, surfaced before any shard
    /// is touched).
    pub fn open(
        dir: &Path,
        expect: &ConfigFingerprint,
        policy: RecoveryPolicy,
    ) -> Result<SnapshotReader, SnapshotError> {
        let manifest = Manifest::read(dir)?;
        manifest.check_fingerprint(expect, dir)?;
        if policy.repairs() && manifest.parity == 0 {
            return Err(SnapshotError::NoParity { dir: dir.to_path_buf() });
        }
        Ok(SnapshotReader {
            dir: dir.to_path_buf(),
            expect: *expect,
            policy,
            manifest,
            stats: RepairStats::default(),
            rebuilt: HashMap::new(),
        })
    }

    /// Rank count the snapshot was built at.
    pub fn np(&self) -> usize {
        self.manifest.np
    }

    /// The verified manifest (shard names, sizes, parity inventory).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Repair-work counters accumulated so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Load producing-rank `rank`'s k-mer shard ([`Self::load_shard`]).
    pub fn load_kmer(&mut self, rank: usize) -> Result<LoadedShard<FlatKmerTable>, SnapshotError> {
        self.load_shard(rank)
    }

    /// Load producing-rank `rank`'s tile shard ([`Self::load_shard`]).
    pub fn load_tile(&mut self, rank: usize) -> Result<LoadedShard<FlatTileTable>, SnapshotError> {
        self.load_shard(rank)
    }

    /// Load producing-rank `rank`'s shard of key kind `K`, repairing it
    /// from parity if it is corrupt and the policy allows.
    pub fn load_shard<K: SpectrumKey>(
        &mut self,
        rank: usize,
    ) -> Result<LoadedShard<FlatTable<K>>, SnapshotError> {
        let kind = ShardKind::of::<K>();
        let rec = self
            .manifest
            .shard(rank, kind)
            .ok_or_else(|| SnapshotError::InvalidTable {
                path: Manifest::path_in(&self.dir),
                reason: format!("rank {rank} out of range for np={}", self.manifest.np),
            })?
            .clone();
        let path = self.dir.join(&rec.file_name);
        // A rebuilt image adopts through the same verifying call as the
        // file, then heals the file if the policy asks for it. Each shard
        // is loaded by exactly one rank, so in-place healing never races
        // across a fleet: a rank only rewrites what it loads.
        let rebuilt = self.rebuilt.get(&(rank, kind.code()));
        let attempt = adopt_shard(&path, rebuilt.map(Vec::as_slice), &self.expect)
            .and_then(|l| cross_check(l, &rec, rank, self.manifest.np, &path));
        match (attempt, rebuilt) {
            (Ok(loaded), Some(image)) => {
                if let RecoveryPolicy::Repair { rewrite: true, .. } = self.policy {
                    let tmp = path.with_extension("repair.tmp");
                    std::fs::write(&tmp, image).map_err(|e| SnapshotError::io(&tmp, e))?;
                    std::fs::rename(&tmp, &path).map_err(|e| SnapshotError::io(&path, e))?;
                    self.stats.shards_rewritten += 1;
                }
                Ok(loaded)
            }
            (Err(e), None) if is_shard_corruption(&e) && self.policy.repairs() => {
                self.repair_group(kind)?;
                if self.rebuilt.contains_key(&(rank, kind.code())) {
                    self.load_shard(rank)
                } else {
                    // The file verified raw against the manifest yet
                    // failed decode: the snapshot was *written*
                    // inconsistent, which no amount of parity fixes.
                    Err(e)
                }
            }
            (attempt, _) => attempt,
        }
    }

    /// Classify every member of `kind`'s group against the manifest,
    /// reconstruct the lost data shards if they fit the repair budget,
    /// and verify each rebuilt image's checksum before caching it.
    fn repair_group(&mut self, kind: ShardKind) -> Result<(), SnapshotError> {
        let t0 = Instant::now();
        let m = self.manifest.parity;
        let np = self.manifest.np;
        let budget = match self.policy {
            RecoveryPolicy::Repair { max_lost, .. } => max_lost.min(m),
            RecoveryPolicy::Strict => 0,
        };
        let code = RsCode::new(np, m).map_err(|e| rs_err(&self.dir, kind, e))?;

        let data_recs: Vec<ShardRecord> = (0..np)
            .map(|rank| self.manifest.shard(rank, kind).expect("parser-checked coverage").clone())
            .collect();
        let stripe = data_recs.iter().map(|r| r.bytes).max().unwrap_or(0);

        // classify: re-read every member raw and check it against the
        // manifest's recorded length + checksum. Each member is an
        // independent file scan + checksum, so the group streams on
        // scoped threads — one per member, bounded by np + m — and the
        // pass costs the slowest single read instead of the sum.
        let t_classify = Instant::now();
        let parity_recs: Vec<ParityRecord> = (0..m)
            .map(|i| self.manifest.parity_shard(kind, i).expect("parser-checked coverage").clone())
            .collect();
        // A survivor feeds reconstruction byte for byte, so a data
        // shard's checksum slot must match the manifest too: it is the
        // one header region the digest itself cannot see.
        let mut shards: Vec<Option<Vec<u8>>> = std::thread::scope(|s| {
            let data_readers: Vec<_> = data_recs
                .iter()
                .map(|rec| {
                    let path = self.dir.join(&rec.file_name);
                    s.spawn(move || {
                        let image = frame::read(&path).ok()?;
                        SHARD.check(&image, &path, rec.bytes, rec.checksum).ok().map(|()| image)
                    })
                })
                .collect();
            let parity_readers: Vec<_> = parity_recs
                .iter()
                .map(|prec| {
                    let path = self.dir.join(&prec.file_name);
                    s.spawn(move || {
                        let image = (prec.bytes == stripe).then(|| frame::read(&path).ok())??;
                        PARITY.check(&image, &path, prec.bytes, prec.checksum).ok().map(|()| image)
                    })
                })
                .collect();
            data_readers
                .into_iter()
                .chain(parity_readers)
                .map(|h| h.join().expect("survivor reader panicked"))
                .collect()
        });
        let mut survivor_bytes = 0u64;
        for (slot, got) in shards.iter_mut().enumerate() {
            if let Some(bytes) = got {
                survivor_bytes += bytes.len() as u64;
                if slot < np {
                    bytes.resize(stripe as usize, 0);
                }
            }
        }
        self.stats.classify_ns += t_classify.elapsed().as_nanos() as u64;

        let lost_total = shards.iter().filter(|s| s.is_none()).count();
        let lost_data: Vec<usize> = (0..np).filter(|&rank| shards[rank].is_none()).collect();
        if lost_data.is_empty() {
            // The caller's failure was not a manifest-level loss
            // (nothing to rebuild); let it surface unchanged.
            return Ok(());
        }
        if lost_total > m || lost_data.len() > budget {
            return Err(SnapshotError::TooManyLost {
                dir: self.dir.clone(),
                kind,
                lost: if lost_total > m { lost_total } else { lost_data.len() },
                budget,
            });
        }

        // repair: matrix inversion over the survivors.
        code.reconstruct(&mut shards, stripe as usize).map_err(|e| rs_err(&self.dir, kind, e))?;

        // verify: a rebuilt shard must reproduce the manifest checksum
        // exactly before anything adopts it.
        for &rank in &lost_data {
            let rec = &data_recs[rank];
            let mut bytes = shards[rank].take().expect("reconstructed");
            bytes.truncate(rec.bytes as usize);
            SHARD.check(&bytes, &self.dir.join(&rec.file_name), rec.bytes, rec.checksum)?;
            self.stats.shards_repaired += 1;
            self.stats.bytes_reconstructed += rec.bytes;
            self.rebuilt.insert((rank, kind.code()), bytes);
        }
        self.stats.survivor_bytes_read += survivor_bytes;
        self.stats.repair_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }
}

/// Failure classes that mean "this one shard is damaged" (as opposed to
/// manifest-level, configuration, or collective failures) — the set the
/// repair pipeline is allowed to mask.
fn is_shard_corruption(e: &SnapshotError) -> bool {
    matches!(
        e,
        SnapshotError::Truncated { .. }
            | SnapshotError::BadMagic { .. }
            | SnapshotError::VersionSkew { .. }
            | SnapshotError::Checksum { .. }
            | SnapshotError::FingerprintMismatch { .. }
            | SnapshotError::InvalidTable { .. }
            | SnapshotError::MissingShard { .. }
    )
}

fn cross_check<T>(
    loaded: LoadedShard<T>,
    rec: &ShardRecord,
    rank: usize,
    np: usize,
    path: &Path,
) -> Result<LoadedShard<T>, SnapshotError> {
    if loaded.rank != rank || loaded.np != np {
        return Err(SnapshotError::InvalidTable {
            path: path.to_path_buf(),
            reason: format!(
                "shard header says rank {}/np {}, manifest says rank {rank}/np {np}",
                loaded.rank, loaded.np
            ),
        });
    }
    if loaded.bytes_read != rec.bytes {
        return Err(SnapshotError::InvalidTable {
            path: path.to_path_buf(),
            reason: format!("shard is {} bytes, manifest records {}", loaded.bytes_read, rec.bytes),
        });
    }
    // A header rewritten with a freshly sealed checksum verifies on its
    // own; the manifest's copy of the checksum is what exposes it.
    if loaded.checksum != rec.checksum {
        return Err(SnapshotError::Checksum {
            path: path.to_path_buf(),
            stored: rec.checksum,
            computed: loaded.checksum,
        });
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile::ReptileParams;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("specstore-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fp() -> ConfigFingerprint {
        ConfigFingerprint::for_params(&ReptileParams::for_tests())
    }

    fn kmer_table(seed: u64) -> FlatKmerTable {
        let mut t = FlatKmerTable::new();
        for key in 0..200u64 {
            t.add_count(key * 7919 + seed * 131, (key % 9 + 1) as u32);
        }
        t
    }

    fn tile_table(seed: u64) -> FlatTileTable {
        let mut t = FlatTileTable::new();
        for key in 0..150u128 {
            t.add_count((key << 33) ^ (seed as u128), (key % 7 + 1) as u32);
        }
        t
    }

    /// Write a 3-rank snapshot with `parity` parity shards.
    fn write_snapshot(dir: &Path, parity: usize) -> Vec<(FlatKmerTable, FlatTileTable)> {
        let mut w = SnapshotWriter::create(dir, &fp(), 3, parity).unwrap();
        let mut tables = Vec::new();
        for rank in 0..3 {
            let kt = kmer_table(rank as u64);
            let tt = tile_table(rank as u64);
            w.write_shard(rank, &kt).unwrap();
            w.write_shard(rank, &tt).unwrap();
            tables.push((kt, tt));
        }
        assert!(w.finish().unwrap() > 0);
        tables
    }

    fn file_of(dir: &Path, rank: usize, kind: ShardKind) -> PathBuf {
        let manifest = Manifest::read(dir).unwrap();
        dir.join(&manifest.shard(rank, kind).unwrap().file_name)
    }

    fn assert_tables_match(
        loaded: &LoadedShard<FlatKmerTable>,
        original: &FlatKmerTable,
        seed: u64,
    ) {
        assert_eq!(loaded.table.len(), original.len());
        for key in 0..200u64 {
            let k = key * 7919 + seed * 131;
            assert_eq!(loaded.table.get(k), original.get(k), "key {k}");
        }
    }

    #[test]
    fn clean_roundtrip_with_parity() {
        let dir = tmpdir("clean");
        let tables = write_snapshot(&dir, 2);
        let manifest = Manifest::read(&dir).unwrap();
        assert_eq!(manifest.parity, 2);
        assert_eq!(manifest.parity_shards.len(), 4);
        let mut r = SnapshotReader::open(&dir, &fp(), RecoveryPolicy::Strict).unwrap();
        for (rank, (kmers, _)) in tables.iter().enumerate() {
            let loaded = r.load_kmer(rank).unwrap();
            assert_tables_match(&loaded, kmers, rank as u64);
            r.load_tile(rank).unwrap();
        }
        assert_eq!(r.stats(), RepairStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_shard_repairs_bit_identically() {
        let dir = tmpdir("delete");
        let tables = write_snapshot(&dir, 1);
        let victim = file_of(&dir, 1, ShardKind::Kmer);
        std::fs::remove_file(&victim).unwrap();
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let mut r = SnapshotReader::open(&dir, &fp(), policy).unwrap();
        let loaded = r.load_kmer(1).unwrap();
        assert_tables_match(&loaded, &tables[1].0, 1);
        let stats = r.stats();
        assert_eq!(stats.shards_repaired, 1);
        assert_eq!(stats.shards_rewritten, 0);
        assert!(stats.bytes_reconstructed > 0);
        assert!(stats.survivor_bytes_read > 0);
        // the parallel classify pass is timed, and is a sub-phase of
        // the overall repair clock
        assert!(stats.classify_ns > 0);
        assert!(stats.classify_ns <= stats.repair_ns);
        // rewrite: false leaves the snapshot degraded on disk
        assert!(!victim.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_heals_the_snapshot_in_place() {
        let dir = tmpdir("heal");
        let tables = write_snapshot(&dir, 1);
        let victim = file_of(&dir, 2, ShardKind::Tile);
        let pristine = std::fs::read(&victim).unwrap();
        // truncate mid-body
        let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
        f.set_len(pristine.len() as u64 / 2).unwrap();
        drop(f);
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: true };
        let mut r = SnapshotReader::open(&dir, &fp(), policy).unwrap();
        r.load_tile(2).unwrap();
        assert_eq!(r.stats().shards_rewritten, 1);
        assert_eq!(std::fs::read(&victim).unwrap(), pristine, "healed file is bit-identical");
        // and a Strict re-open now succeeds
        let mut strict = SnapshotReader::open(&dir, &fp(), RecoveryPolicy::Strict).unwrap();
        let loaded = strict.load_tile(2).unwrap();
        assert_eq!(loaded.table.len(), tables[2].1.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_byte_repairs_via_checksum_classification() {
        let dir = tmpdir("flip");
        let tables = write_snapshot(&dir, 2);
        // flip one byte in each of two kmer shards: two losses, m = 2
        for rank in [0usize, 2] {
            let path = file_of(&dir, rank, ShardKind::Kmer);
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
        }
        let policy = RecoveryPolicy::Repair { max_lost: 2, rewrite: false };
        let mut r = SnapshotReader::open(&dir, &fp(), policy).unwrap();
        for (rank, (kmers, _)) in tables.iter().enumerate() {
            let loaded = r.load_kmer(rank).unwrap();
            assert_tables_match(&loaded, kmers, rank as u64);
        }
        // one classification pass repaired both, first failing load
        assert_eq!(r.stats().shards_repaired, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn losses_beyond_parity_are_too_many_lost() {
        let dir = tmpdir("over");
        write_snapshot(&dir, 1);
        for rank in [0usize, 1] {
            std::fs::remove_file(file_of(&dir, rank, ShardKind::Kmer)).unwrap();
        }
        let policy = RecoveryPolicy::Repair { max_lost: 2, rewrite: false };
        let mut r = SnapshotReader::open(&dir, &fp(), policy).unwrap();
        let err = r.load_kmer(0).err().expect("two losses must exceed one parity shard");
        assert!(
            matches!(
                err,
                SnapshotError::TooManyLost { kind: ShardKind::Kmer, lost: 2, budget: 1, .. }
            ),
            "got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_budget_caps_repairs_below_parity() {
        let dir = tmpdir("budget");
        write_snapshot(&dir, 2);
        for rank in [0usize, 1] {
            std::fs::remove_file(file_of(&dir, rank, ShardKind::Kmer)).unwrap();
        }
        // 2 lost, 2 parity, but the policy only allows 1.
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let mut r = SnapshotReader::open(&dir, &fp(), policy).unwrap();
        assert!(matches!(
            r.load_kmer(0),
            Err(SnapshotError::TooManyLost { lost: 2, budget: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lost_parity_shard_still_repairs_data_within_budget() {
        let dir = tmpdir("parity-loss");
        let tables = write_snapshot(&dir, 2);
        // lose one data shard AND one parity shard: 2 total <= m = 2
        std::fs::remove_file(file_of(&dir, 0, ShardKind::Kmer)).unwrap();
        let manifest = Manifest::read(&dir).unwrap();
        let pfile = dir.join(&manifest.parity_shard(ShardKind::Kmer, 0).unwrap().file_name);
        std::fs::remove_file(&pfile).unwrap();
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let mut r = SnapshotReader::open(&dir, &fp(), policy).unwrap();
        let loaded = r.load_kmer(0).unwrap();
        assert_tables_match(&loaded, &tables[0].0, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_without_parity_is_typed() {
        let dir = tmpdir("noparity");
        write_snapshot(&dir, 0);
        let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        assert!(matches!(
            SnapshotReader::open(&dir, &fp(), policy),
            Err(SnapshotError::NoParity { .. })
        ));
        // Strict still loads it fine.
        let mut r = SnapshotReader::open(&dir, &fp(), RecoveryPolicy::Strict).unwrap();
        r.load_kmer(0).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_policy_still_fails_typed_on_corruption() {
        let dir = tmpdir("strict");
        write_snapshot(&dir, 1);
        std::fs::remove_file(file_of(&dir, 1, ShardKind::Kmer)).unwrap();
        let mut r = SnapshotReader::open(&dir, &fp(), RecoveryPolicy::Strict).unwrap();
        assert!(matches!(r.load_kmer(1), Err(SnapshotError::MissingShard { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn geometry_limit_is_enforced_at_create() {
        let dir = tmpdir("geom");
        assert!(matches!(
            SnapshotWriter::create(&dir, &fp(), 255, 2),
            Err(SnapshotError::InvalidTable { .. })
        ));
        assert!(SnapshotWriter::create(&dir, &fp(), 254, 2).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
