//! End-to-end spectrum-snapshot integration: build once with
//! `save_spectrum`, correct many times with `load_spectrum`, across both
//! engines and across rank counts (same-`np` zero-copy loads and
//! re-sharded loads), with the full typed-corruption matrix and the
//! erasure-coded lose-k repair grid (parity shards + `RecoveryPolicy`).

mod support;

use reptile::ReptileParams;
use reptile_dist::{ConfigError, EngineConfig, EngineError, RecoveryPolicy};
use specstore::{fnv1a, Manifest, ShardKind, SnapshotError, MANIFEST_NAME};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use support::{check_grid, fixture, inflict, run_engine, Damage, Eng, Grid, Set, Snapshots};

/// The corruption and repair tests' dataset, with its oracle: every
/// load below that succeeds must reproduce it.
const SET: Set = Set::Store;

fn params() -> ReptileParams {
    support::params(SET)
}

const ENGINES: [Eng; 2] = [Eng::Mt, Eng::Virtual];

fn cfg_for(engine: Eng, np: usize) -> EngineConfig {
    support::engine_config(engine, np, params())
}

/// A private copy of the snapshot `engine` saves at `np` ranks with
/// `parity` parity shards; `snaps` saves each distinct one once.
fn saved_copy(snaps: &Snapshots, engine: Eng, np: usize, parity: usize) -> PathBuf {
    let src = snaps.get(SET, engine, np, parity).unwrap();
    snaps.copy(&src)
}

/// Snapshots saved at np ∈ {1, 3, 4} — zero-copy at the same np,
/// re-sharded at another — load bit-identically on both engines. This
/// and the next three tests are slices of the differential matrix in
/// `support`, which also checks every save run and the snapshot I/O and
/// timing columns.
#[test]
fn loaded_correction_is_bit_identical_across_engines_and_np() {
    check_grid(Grid::SnapshotNp);
}

/// The snapshot format is engine-neutral: shards written by the virtual
/// engine serve the threaded engine and the virtual engine at another np.
#[test]
fn snapshots_are_engine_portable() {
    check_grid(Grid::SnapshotPortable);
}

/// Snapshot loads compose with the heuristic matrix: the derived side
/// tables are rebuilt from the loaded spectra.
#[test]
fn loaded_snapshot_composes_with_heuristics() {
    check_grid(Grid::SnapshotHeuristics);
}

/// Both engines time snapshot I/O per rank: every rank of a save run
/// reports save seconds, every rank of a load run load seconds, and a
/// plain run neither.
#[test]
fn snapshot_runs_carry_timings() {
    check_grid(Grid::SnapshotTimings);
}

// ---------------------------------------------------------------------
// corruption matrix
// ---------------------------------------------------------------------

/// The on-disk path of `(rank, kind)`'s data shard, resolved through the
/// manifest (file naming is the store's business, not the tests').
fn shard_path(dir: &Path, rank: usize, kind: ShardKind) -> PathBuf {
    let manifest = Manifest::read(dir).unwrap();
    dir.join(&manifest.shard(rank, kind).unwrap().file_name)
}

/// Flip/overwrite bytes at `offset` in `path`.
fn patch_file(path: &Path, offset: usize, bytes: &[u8]) {
    let mut data = std::fs::read(path).unwrap();
    data[offset..offset + bytes.len()].copy_from_slice(bytes);
    std::fs::write(path, data).unwrap();
}

/// Load a (corrupted) snapshot through the virtual engine and return the
/// typed snapshot error it must surface.
fn load_failure(dir: &Path, reads: &[dnaseq::Read], p: ReptileParams) -> SnapshotError {
    let mut cfg = EngineConfig::virtual_cluster(3, p);
    cfg.load_spectrum = Some(dir.to_path_buf());
    match run_engine(Eng::Virtual, &cfg, reads) {
        Err(EngineError::Snapshot(e)) => e,
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("corrupted snapshot must not load"),
    }
}

#[test]
fn every_corruption_class_is_typed() {
    let reads = &fixture(SET).reads;
    let snaps = Snapshots::shared();
    let pristine = snaps.get(SET, Eng::Virtual, 3, 0).unwrap();
    let manifest = Manifest::read(&pristine).unwrap();
    let kmer0 = manifest.shard(0, ShardKind::Kmer).unwrap().file_name.clone();
    let tile2 = manifest.shard(2, ShardKind::Tile).unwrap().file_name.clone();

    // bad magic: stomp the leading magic bytes
    let dir = snaps.copy(&pristine);
    patch_file(&dir.join(&kmer0), 0, b"XXXXXXXX");
    assert!(matches!(load_failure(&dir, reads, params()), SnapshotError::BadMagic { .. }));

    // version skew: format version bumped past ours
    let dir = snaps.copy(&pristine);
    patch_file(&dir.join(&kmer0), 8, &99u32.to_le_bytes());
    assert!(matches!(
        load_failure(&dir, reads, params()),
        SnapshotError::VersionSkew { found: 99, .. }
    ));

    // checksum: a single flipped trailing byte
    let dir = snaps.copy(&pristine);
    let path = dir.join(&kmer0);
    let mut data = std::fs::read(&path).unwrap();
    *data.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, data).unwrap();
    assert!(matches!(load_failure(&dir, reads, params()), SnapshotError::Checksum { .. }));

    // fingerprint mismatch: loading under different corrector parameters
    let dir = snaps.copy(&pristine);
    let other = ReptileParams { k: 12, tile_overlap: 6, ..params() };
    assert!(matches!(load_failure(&dir, reads, other), SnapshotError::FingerprintMismatch { .. }));

    // missing shard: a manifest-listed file deleted out from under us
    let dir = snaps.copy(&pristine);
    std::fs::remove_file(dir.join(&tile2)).unwrap();
    assert!(matches!(load_failure(&dir, reads, params()), SnapshotError::MissingShard { .. }));

    // manifest that isn't one at all: bad banner
    let dir = snaps.copy(&pristine);
    std::fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").unwrap();
    assert!(matches!(load_failure(&dir, reads, params()), SnapshotError::BadMagic { .. }));

    // manifest with the right banner but a garbled body
    let dir = snaps.copy(&pristine);
    std::fs::write(dir.join(MANIFEST_NAME), "reptile-specstore v1\nnonsense without equals\n")
        .unwrap();
    assert!(matches!(load_failure(&dir, reads, params()), SnapshotError::Manifest { .. }));

    // truncation via the fault plan's chop clause (virtual replay)
    let dir = snaps.copy(&pristine);
    let mut cfg = cfg_for(Eng::Virtual, 3);
    cfg.load_spectrum = Some(dir);
    cfg.fault = mpisim::FaultPlan::parse("chop=1:40").unwrap();
    match run_engine(Eng::Virtual, &cfg, reads) {
        Err(EngineError::Snapshot(SnapshotError::Truncated { .. })) => {}
        Err(other) => panic!("chop must surface Truncated, got {other}"),
        Ok(_) => panic!("chop must surface Truncated, run succeeded"),
    }
}

/// The threaded engine's distributed abort: under a chop fault the rank
/// that hits the truncated shard reports `Truncated`, its peers agree to
/// abort, and the run surfaces the root cause — not a peer's
/// `PeerFailure` sentinel — without deadlocking.
#[test]
fn threaded_chop_aborts_with_the_root_cause() {
    let snaps = Snapshots::shared();
    let mut cfg = cfg_for(Eng::Mt, 3);
    cfg.load_spectrum = Some(saved_copy(&snaps, Eng::Mt, 3, 0));
    cfg.fault = mpisim::FaultPlan::parse("chop=1:40").unwrap();
    match run_engine(Eng::Mt, &cfg, &fixture(SET).reads) {
        Err(EngineError::Snapshot(SnapshotError::Truncated { .. })) => {}
        Err(other) => panic!("expected the root-cause Truncated error, got {other}"),
        Ok(_) => panic!("expected the root-cause Truncated error, run succeeded"),
    }
}

// ---------------------------------------------------------------------
// erasure-coded repair: the lose-k grid
// ---------------------------------------------------------------------

/// Parity width of the grid snapshots: every group survives up to two
/// lost shards, and losing three must fail typed.
const PARITY_M: usize = 2;

struct RepairRow {
    engine: Eng,
    np: usize,
    kind: ShardKind,
    lost: usize,
    repaired: u64,
    outcome: &'static str,
}

fn write_repair_report(rows: &[RepairRow]) {
    let mut json = String::from("{\n  \"parity\": 2,\n  \"repair_matrix\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"engine\": \"{}\", \"np\": {}, \"kind\": \"{}\", \"lost\": {}, \
             \"shards_repaired\": {}, \"outcome\": \"{}\"}}{}",
            format!("{:?}", r.engine).to_lowercase(),
            r.np,
            r.kind,
            r.lost,
            r.repaired,
            r.outcome,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/repair-matrix-report.json", json).expect("write repair-matrix report");
}

/// One grid cell: save with parity, damage `k` shards of `kind`, load
/// under `Repair { max_lost: PARITY_M }`. Returns the report row after
/// asserting the cell's contract: k ≤ m reconstructs bit-identically,
/// k > m fails with `TooManyLost` (never a hang, never garbage).
fn repair_cell(snaps: &Snapshots, engine: Eng, np: usize, kind: ShardKind, k: usize) -> RepairRow {
    let dir = saved_copy(snaps, engine, np, PARITY_M);
    let modes = [Damage::Delete, Damage::Chop, Damage::Flip];
    for i in 0..k {
        inflict(&shard_path(&dir, i, kind), modes[i % modes.len()]);
    }
    let mut cfg = cfg_for(engine, np);
    cfg.load_spectrum = Some(dir.clone());
    cfg.recovery = RecoveryPolicy::Repair { max_lost: PARITY_M, rewrite: false };
    let label = format!("{engine:?} np={np} {kind} k={k}");
    let row = match run_engine(engine, &cfg, &fixture(SET).reads) {
        Ok(out) => {
            assert!(k <= PARITY_M, "{label}: {k} lost shards must exceed the budget");
            assert_eq!(
                out.corrected,
                fixture(SET).oracle,
                "{label}: repaired load must stay bit-identical"
            );
            let repaired = out.report.shards_repaired();
            if k == 0 {
                assert_eq!(repaired, 0, "{label}: clean load must not repair");
            } else {
                assert!(repaired >= k as u64, "{label}: repaired {repaired} < lost {k}");
                assert!(out.report.repair_bytes() > 0, "{label}: no bytes reconstructed");
            }
            let outcome = if k == 0 { "clean" } else { "repaired" };
            RepairRow { engine, np, kind, lost: k, repaired, outcome }
        }
        Err(EngineError::Snapshot(SnapshotError::TooManyLost { lost, budget, .. })) => {
            assert!(k > PARITY_M, "{label}: repairable loss surfaced TooManyLost");
            assert!(lost > budget, "{label}: lost {lost} within budget {budget}");
            RepairRow { engine, np, kind, lost: k, repaired: 0, outcome: "too_many_lost" }
        }
        Err(other) => panic!("{label}: expected success or TooManyLost, got {other}"),
    };
    std::fs::remove_dir_all(&dir).unwrap();
    row
}

/// The lose-k acceptance grid: k ∈ 0..=m+1 damaged shards (mixed
/// delete/chop/flip) × both table kinds × np ∈ {3, 4} × both engines.
/// Every k ≤ m cell reconstructs bit-identically; every k = m+1 cell
/// fails with the typed budget error. Release CI (`repair-matrix` job)
/// runs the full grid and uploads `target/repair-matrix-report.json`.
#[test]
#[cfg_attr(debug_assertions, ignore = "32-cell grid; run in release (CI repair-matrix job)")]
fn lose_k_grid_repairs_within_budget_and_fails_typed_beyond() {
    let snaps = Snapshots::shared();
    let mut rows = Vec::new();
    for engine in ENGINES {
        for np in [3usize, 4] {
            for kind in [ShardKind::Kmer, ShardKind::Tile] {
                for k in 0..=PARITY_M + 1 {
                    rows.push(repair_cell(&snaps, engine, np, kind, k));
                }
            }
        }
    }
    write_repair_report(&rows);
}

/// Debug-build smoke slice of the grid: one repairable and one
/// over-budget cell per engine.
#[test]
fn lose_k_smoke_repairs_and_rejects() {
    let snaps = Snapshots::shared();
    for engine in ENGINES {
        repair_cell(&snaps, engine, 3, ShardKind::Kmer, PARITY_M);
        repair_cell(&snaps, engine, 3, ShardKind::Tile, PARITY_M + 1);
    }
}

/// `rewrite: true` repairs the snapshot on disk, not just in memory: a
/// later `Strict` load of the same directory succeeds.
#[test]
fn rewrite_heals_the_snapshot_in_place() {
    let reads = &fixture(SET).reads;
    let snaps = Snapshots::shared();
    let dir = saved_copy(&snaps, Eng::Virtual, 3, 1);
    inflict(&shard_path(&dir, 1, ShardKind::Kmer), Damage::Flip);

    let mut cfg = cfg_for(Eng::Virtual, 3);
    cfg.load_spectrum = Some(dir.clone());
    cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: true };
    let repaired = run_engine(Eng::Virtual, &cfg, reads).unwrap();
    assert!(repaired.report.shards_repaired() >= 1);

    // the flip is gone from disk: strict readers accept the directory
    let mut strict = cfg_for(Eng::Virtual, 3);
    strict.load_spectrum = Some(dir);
    let reloaded = run_engine(Eng::Virtual, &strict, reads).unwrap();
    assert_eq!(reloaded.corrected, repaired.corrected);
    assert_eq!(reloaded.report.shards_repaired(), 0, "rewrite must leave nothing to repair");
}

/// The PR-4 fault plan composes with repair: a `chop=` clause truncates
/// a shard mid-load, and a `Repair` policy reconstructs it instead of
/// aborting — on both engines, bit-identical to the clean run.
#[test]
fn chop_fault_plus_repair_policy_recovers_on_both_engines() {
    let snaps = Snapshots::shared();
    for engine in ENGINES {
        let mut cfg = cfg_for(engine, 3);
        cfg.load_spectrum = Some(saved_copy(&snaps, engine, 3, 1));
        cfg.fault = mpisim::FaultPlan::parse("chop=1:40").unwrap();
        cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let out = run_engine(engine, &cfg, &fixture(SET).reads)
            .unwrap_or_else(|e| panic!("{engine:?}: chop+repair must recover, got {e}"));
        assert_eq!(out.corrected, fixture(SET).oracle, "{engine:?}: chop+repair output");
        assert!(out.report.shards_repaired() >= 1, "{engine:?}: chop must trigger a repair");
    }
}

// ---------------------------------------------------------------------
// format-v1 compatibility and policy/format mismatches
// ---------------------------------------------------------------------

/// Rewrite a parity-free v2 snapshot as the v1 format this crate's
/// earlier releases wrote: v1 manifest banner, no `parity=` line, and
/// format version 1 in every shard header (checksums re-sealed, since
/// the digest covers the version field).
fn downgrade_to_v1(dir: &Path) {
    let mut manifest = Manifest::read(dir).unwrap();
    assert_eq!(manifest.parity, 0, "only parity-free snapshots can be v1");
    for rec in &mut manifest.shards {
        let path = dir.join(&rec.file_name);
        let mut data = std::fs::read(&path).unwrap();
        data[8..12].copy_from_slice(&1u32.to_le_bytes());
        data[92..100].copy_from_slice(&[0u8; 8]);
        let sum = fnv1a(&data);
        data[92..100].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        rec.checksum = sum;
    }
    let text = manifest.render().replace("reptile-specstore v2", "reptile-specstore v1");
    let text: String =
        text.lines().filter(|l| !l.starts_with("parity=")).fold(String::new(), |mut acc, line| {
            acc.push_str(line);
            acc.push('\n');
            acc
        });
    std::fs::write(Manifest::path_in(dir), text).unwrap();
}

/// A v1 (pre-parity) snapshot still loads bit-identically under `Strict`
/// on both engines, and asking it for repair is the typed configuration
/// error — not a crash in the parity reader.
#[test]
fn v1_snapshot_loads_strict_and_rejects_repair() {
    let reads = &fixture(SET).reads;
    let snaps = Snapshots::shared();
    let dir = saved_copy(&snaps, Eng::Virtual, 3, 0);
    downgrade_to_v1(&dir);

    for engine in ENGINES {
        let mut cfg = cfg_for(engine, 3);
        cfg.load_spectrum = Some(dir.clone());
        let loaded = run_engine(engine, &cfg, reads)
            .unwrap_or_else(|e| panic!("{engine:?}: v1 snapshot must load under Strict, got {e}"));
        assert_eq!(loaded.corrected, fixture(SET).oracle, "{engine:?}: v1 strict load");
        assert_eq!(loaded.report.shards_repaired(), 0, "{engine:?}");
    }

    let mut cfg = cfg_for(Eng::Virtual, 3);
    cfg.load_spectrum = Some(dir);
    cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
    match run_engine(Eng::Virtual, &cfg, reads) {
        Err(EngineError::Config(ConfigError::RepairWithoutParity)) => {}
        Err(other) => panic!("expected RepairWithoutParity, got {other}"),
        Ok(_) => panic!("a v1 snapshot has no parity to repair from"),
    }
}

/// A degraded snapshot still serves: `ServeEngine::start` under a
/// `Repair` policy reconstructs the damaged shard during its one load,
/// reports the repair in `ServeReport`, and the served corrections match
/// the sequential corrector.
#[test]
fn serve_engine_starts_degraded_and_reports_the_repair() {
    use reptile_dist::{ServeConfig, ServeEngine};
    let reads = &fixture(SET).reads;
    let snaps = Snapshots::shared();
    let dir = saved_copy(&snaps, Eng::Mt, 3, 1);
    inflict(&shard_path(&dir, 0, ShardKind::Kmer), Damage::Chop);

    let mut cfg = cfg_for(Eng::Mt, 3);
    cfg.load_spectrum = Some(dir);
    cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
    let serve = ServeConfig::default();
    let engine = ServeEngine::start(cfg, serve, Vec::new()).unwrap();
    let progress = std::time::Duration::from_secs(60);
    let (responses, _, _) = support::drive(&engine, reads, serve.queue_depth, progress);
    let report = engine.shutdown().unwrap();
    assert!(report.repair.shards_repaired >= 1, "degraded start must report its reconstruction");
    assert!(report.repair.bytes_reconstructed > 0);

    let served: Vec<Vec<u8>> = responses.into_iter().map(|r| r.read.seq).collect();
    let want: Vec<Vec<u8>> = fixture(SET).oracle.iter().map(|r| r.seq.clone()).collect();
    assert_eq!(served, want, "degraded serve must correct identically");
}
