//! End-to-end spectrum-snapshot integration: build once with
//! `save_spectrum`, correct many times with `load_spectrum`, across both
//! engines and across rank counts (same-`np` zero-copy loads and
//! re-sharded loads), with the full typed-corruption matrix and the
//! erasure-coded lose-k repair grid (parity shards + `RecoveryPolicy`).

use genio::dataset::DatasetProfile;
use reptile::ReptileParams;
use reptile_dist::{
    try_run_distributed, try_run_virtual, ConfigError, EngineConfig, EngineError, RecoveryPolicy,
    RunOutput,
};
use specstore::{fnv1a, Manifest, ShardKind, SnapshotError, MANIFEST_NAME};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A fresh directory per call: tests run concurrently in one process and
/// two of them build the same tag (the lose-k smoke cells are also grid
/// cells), so the pid alone would let one wipe the other's snapshot.
fn tempdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("reptile-snap-{tag}-{}-{seq}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params() -> ReptileParams {
    ReptileParams {
        k: 10,
        tile_overlap: 5,
        kmer_threshold: 4,
        tile_threshold: 4,
        ..ReptileParams::default()
    }
}

fn dataset() -> Vec<dnaseq::Read> {
    DatasetProfile {
        name: "snap".into(),
        genome_len: 3_000,
        read_len: 60,
        n_reads: 700,
        base_error_rate: 0.005,
        hotspot_count: 1,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(17)
    .reads
}

const ENGINES: [&str; 2] = ["mt", "virtual"];

fn cfg_for(engine: &str, np: usize) -> EngineConfig {
    match engine {
        "mt" => EngineConfig::new(np, params()),
        _ => EngineConfig::virtual_cluster(np, params()),
    }
}

fn run_engine(
    engine: &str,
    cfg: &EngineConfig,
    reads: &[dnaseq::Read],
) -> Result<RunOutput, EngineError> {
    match engine {
        "mt" => try_run_distributed(cfg, reads),
        _ => try_run_virtual(cfg, reads),
    }
}

/// The acceptance matrix: for np ∈ {1, 3, 4} on both engines, a run that
/// loads a snapshot (saved at the same np — zero-copy — or a different
/// one — re-sharded) must produce corrected reads bit-identical to a
/// fresh build at the loading np.
#[test]
fn loaded_correction_is_bit_identical_across_engines_and_np() {
    let reads = dataset();
    let nps = [1usize, 3, 4];
    for engine in ENGINES {
        let fresh: Vec<(usize, RunOutput)> = nps
            .iter()
            .map(|&np| (np, run_engine(engine, &cfg_for(engine, np), &reads).unwrap()))
            .collect();
        for (save_np, fresh_at_save) in &fresh {
            let dir = tempdir(&format!("{engine}-save{save_np}"));
            let mut save_cfg = cfg_for(engine, *save_np);
            save_cfg.save_spectrum = Some(dir.clone());
            let saved = run_engine(engine, &save_cfg, &reads).unwrap();
            assert_eq!(
                saved.corrected, fresh_at_save.corrected,
                "{engine}: saving a snapshot must not perturb correction (np={save_np})"
            );
            assert!(saved.report.snapshot_bytes_written() > 0, "{engine} np={save_np}");
            for (load_np, fresh_at_load) in &fresh {
                let mut load_cfg = cfg_for(engine, *load_np);
                load_cfg.load_spectrum = Some(dir.clone());
                let loaded = run_engine(engine, &load_cfg, &reads).unwrap();
                assert_eq!(
                    loaded.corrected, fresh_at_load.corrected,
                    "{engine}: snapshot np={save_np} loaded at np={load_np} must match fresh"
                );
                assert!(
                    loaded.report.snapshot_bytes_read() > 0,
                    "{engine} {save_np}->{load_np}: load must account its I/O"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The snapshot format is engine-neutral: shards written by the virtual
/// engine serve the threaded engine and vice versa (slot layouts may
/// differ — only the corrected output is contractual).
#[test]
fn snapshots_are_engine_portable() {
    let reads = dataset();
    let dir = tempdir("portable");
    let mut save_cfg = cfg_for("virtual", 4);
    save_cfg.save_spectrum = Some(dir.clone());
    run_engine("virtual", &save_cfg, &reads).unwrap();

    let fresh_mt = run_engine("mt", &cfg_for("mt", 3), &reads).unwrap();
    let mut load_cfg = cfg_for("mt", 3);
    load_cfg.load_spectrum = Some(dir.clone());
    let loaded = run_engine("mt", &load_cfg, &reads).unwrap();
    assert_eq!(loaded.corrected, fresh_mt.corrected);

    let mut back_cfg = cfg_for("virtual", 2);
    back_cfg.load_spectrum = Some(dir.clone());
    let back = run_engine("virtual", &back_cfg, &reads).unwrap();
    let fresh_v2 = run_engine("virtual", &cfg_for("virtual", 2), &reads).unwrap();
    assert_eq!(back.corrected, fresh_v2.corrected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Snapshot loads still compose with the heuristic matrix: the derived
/// side tables (read tables, replication, partial groups, aggregation)
/// are rebuilt from the loaded spectra and correction stays bit-identical.
#[test]
fn loaded_snapshot_composes_with_heuristics() {
    use reptile_dist::HeuristicConfig;
    let reads = dataset();
    let dir = tempdir("heur");
    let mut save_cfg = cfg_for("mt", 3);
    save_cfg.save_spectrum = Some(dir.clone());
    let fresh = run_engine("mt", &save_cfg, &reads).unwrap();
    let matrix = [
        HeuristicConfig { universal: true, ..Default::default() },
        HeuristicConfig { keep_read_tables: true, cache_remote: true, ..Default::default() },
        HeuristicConfig::replicate_both(),
        HeuristicConfig { aggregate_lookups: true, ..Default::default() },
        HeuristicConfig { partial_group: 2, ..Default::default() },
    ];
    for heur in matrix {
        let mut cfg = cfg_for("mt", 3);
        cfg.heuristics = heur;
        cfg.load_spectrum = Some(dir.clone());
        let loaded = run_engine("mt", &cfg, &reads).unwrap();
        assert_eq!(loaded.corrected, fresh.corrected, "heur={}", heur.label());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Both engines time snapshot I/O per rank: every rank of a save run
/// reports save seconds, every rank of a load run load seconds, and a
/// plain run neither.
#[test]
fn snapshot_runs_carry_timings() {
    let reads = dataset();
    for engine in ENGINES {
        let dir = tempdir(&format!("timings-{engine}"));
        let mut save_cfg = cfg_for(engine, 3);
        save_cfg.save_spectrum = Some(dir.clone());
        let saved = run_engine(engine, &save_cfg, &reads).unwrap();
        for r in &saved.report.ranks {
            assert!(r.snapshot_save_secs > 0.0, "{engine}: rank {} has no save time", r.rank);
            assert_eq!(r.snapshot_load_secs, 0.0, "{engine}: rank {} loaded nothing", r.rank);
        }

        let mut load_cfg = cfg_for(engine, 3);
        load_cfg.load_spectrum = Some(dir.clone());
        let loaded = run_engine(engine, &load_cfg, &reads).unwrap();
        for r in &loaded.report.ranks {
            assert!(r.snapshot_load_secs > 0.0, "{engine}: rank {} has no load time", r.rank);
            assert_eq!(r.snapshot_save_secs, 0.0, "{engine}: rank {} saved nothing", r.rank);
        }
        let plain = run_engine(engine, &cfg_for(engine, 3), &reads).unwrap();
        for r in &plain.report.ranks {
            assert_eq!((r.snapshot_save_secs, r.snapshot_load_secs), (0.0, 0.0), "{engine}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
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

/// Build one pristine np=3 snapshot to corrupt copies of.
fn pristine_snapshot(reads: &[dnaseq::Read]) -> PathBuf {
    let dir = tempdir("pristine");
    let mut cfg = cfg_for("virtual", 3);
    cfg.save_spectrum = Some(dir.clone());
    run_engine("virtual", &cfg, reads).unwrap();
    dir
}

/// Copy a snapshot directory so each corruption starts from clean bytes.
fn clone_snapshot(src: &Path, tag: &str) -> PathBuf {
    let dst = tempdir(tag);
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
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
    match run_engine("virtual", &cfg, reads) {
        Err(EngineError::Snapshot(e)) => e,
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("corrupted snapshot must not load"),
    }
}

#[test]
fn every_corruption_class_is_typed() {
    let reads = dataset();
    let pristine = pristine_snapshot(&reads);
    let manifest = Manifest::read(&pristine).unwrap();
    let kmer0 = manifest.shard(0, ShardKind::Kmer).unwrap().file_name.clone();
    let tile2 = manifest.shard(2, ShardKind::Tile).unwrap().file_name.clone();

    // bad magic: stomp the leading magic bytes
    let dir = clone_snapshot(&pristine, "magic");
    patch_file(&dir.join(&kmer0), 0, b"XXXXXXXX");
    assert!(matches!(load_failure(&dir, &reads, params()), SnapshotError::BadMagic { .. }));
    std::fs::remove_dir_all(&dir).unwrap();

    // version skew: format version bumped past ours
    let dir = clone_snapshot(&pristine, "version");
    patch_file(&dir.join(&kmer0), 8, &99u32.to_le_bytes());
    assert!(matches!(
        load_failure(&dir, &reads, params()),
        SnapshotError::VersionSkew { found: 99, .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();

    // checksum: a single flipped trailing byte
    let dir = clone_snapshot(&pristine, "checksum");
    let path = dir.join(&kmer0);
    let mut data = std::fs::read(&path).unwrap();
    *data.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, data).unwrap();
    assert!(matches!(load_failure(&dir, &reads, params()), SnapshotError::Checksum { .. }));
    std::fs::remove_dir_all(&dir).unwrap();

    // fingerprint mismatch: loading under different corrector parameters
    let dir = clone_snapshot(&pristine, "fingerprint");
    let other = ReptileParams { k: 12, tile_overlap: 6, ..params() };
    assert!(matches!(load_failure(&dir, &reads, other), SnapshotError::FingerprintMismatch { .. }));
    std::fs::remove_dir_all(&dir).unwrap();

    // missing shard: a manifest-listed file deleted out from under us
    let dir = clone_snapshot(&pristine, "missing");
    std::fs::remove_file(dir.join(&tile2)).unwrap();
    assert!(matches!(load_failure(&dir, &reads, params()), SnapshotError::MissingShard { .. }));
    std::fs::remove_dir_all(&dir).unwrap();

    // manifest that isn't one at all: bad banner
    let dir = clone_snapshot(&pristine, "manifest-banner");
    std::fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").unwrap();
    assert!(matches!(load_failure(&dir, &reads, params()), SnapshotError::BadMagic { .. }));
    std::fs::remove_dir_all(&dir).unwrap();

    // manifest with the right banner but a garbled body
    let dir = clone_snapshot(&pristine, "manifest-body");
    std::fs::write(dir.join(MANIFEST_NAME), "reptile-specstore v1\nnonsense without equals\n")
        .unwrap();
    assert!(matches!(load_failure(&dir, &reads, params()), SnapshotError::Manifest { .. }));
    std::fs::remove_dir_all(&dir).unwrap();

    // truncation via the fault plan's chop clause (virtual replay)
    let dir = clone_snapshot(&pristine, "chop-virtual");
    let mut cfg = cfg_for("virtual", 3);
    cfg.load_spectrum = Some(dir.clone());
    cfg.fault = mpisim::FaultPlan::parse("chop=1:40").unwrap();
    match run_engine("virtual", &cfg, &reads) {
        Err(EngineError::Snapshot(SnapshotError::Truncated { .. })) => {}
        Err(other) => panic!("chop must surface Truncated, got {other}"),
        Ok(_) => panic!("chop must surface Truncated, run succeeded"),
    }
    std::fs::remove_dir_all(&dir).unwrap();

    std::fs::remove_dir_all(&pristine).unwrap();
}

/// The threaded engine's distributed abort: under a chop fault the rank
/// that hits the truncated shard reports `Truncated`, its peers agree to
/// abort, and the run surfaces the root cause — not a peer's
/// `PeerFailure` sentinel — without deadlocking.
#[test]
fn threaded_chop_aborts_with_the_root_cause() {
    let reads = dataset();
    let dir = tempdir("chop-mt");
    let mut save_cfg = cfg_for("mt", 3);
    save_cfg.save_spectrum = Some(dir.clone());
    run_engine("mt", &save_cfg, &reads).unwrap();

    let mut cfg = cfg_for("mt", 3);
    cfg.load_spectrum = Some(dir.clone());
    cfg.fault = mpisim::FaultPlan::parse("chop=1:40").unwrap();
    match run_engine("mt", &cfg, &reads) {
        Err(EngineError::Snapshot(SnapshotError::Truncated { .. })) => {}
        Err(other) => panic!("expected the root-cause Truncated error, got {other}"),
        Ok(_) => panic!("expected the root-cause Truncated error, run succeeded"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// erasure-coded repair: the lose-k grid
// ---------------------------------------------------------------------

/// Parity width of the grid snapshots: every group survives up to two
/// lost shards, and losing three must fail typed.
const PARITY_M: usize = 2;

/// The damage classes the repair path must classify as "lost". Mixed
/// per-shard so one grid pass exercises `MissingShard`, `Truncated`, and
/// `Checksum` classification together.
#[derive(Clone, Copy)]
enum Damage {
    /// Manifest-listed file deleted.
    Delete,
    /// File cut below the header (interrupted write).
    Chop,
    /// Trailing byte flipped (bit-rot; on an empty shard this flips the
    /// stored checksum field instead — also classified corrupt).
    Flip,
}

fn inflict(path: &Path, damage: Damage) {
    match damage {
        Damage::Delete => std::fs::remove_file(path).unwrap(),
        Damage::Chop => {
            let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(40).unwrap();
        }
        Damage::Flip => {
            let mut data = std::fs::read(path).unwrap();
            *data.last_mut().unwrap() ^= 0xff;
            std::fs::write(path, data).unwrap();
        }
    }
}

/// Save a parity-protected snapshot at `np` with `engine`, returning the
/// directory (the run's corrected output equals the fresh run's — proven
/// by `loaded_correction_is_bit_identical_across_engines_and_np`).
fn save_parity_snapshot(
    engine: &str,
    np: usize,
    parity: usize,
    reads: &[dnaseq::Read],
    tag: &str,
) -> PathBuf {
    let dir = tempdir(tag);
    let mut cfg = cfg_for(engine, np);
    cfg.save_spectrum = Some(dir.clone());
    cfg.parity = parity;
    run_engine(engine, &cfg, reads).unwrap();
    dir
}

struct RepairRow {
    engine: &'static str,
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
            r.engine,
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
fn repair_cell(
    engine: &'static str,
    np: usize,
    kind: ShardKind,
    k: usize,
    reads: &[dnaseq::Read],
    fresh: &RunOutput,
) -> RepairRow {
    let dir = save_parity_snapshot(
        engine,
        np,
        PARITY_M,
        reads,
        &format!("grid-{engine}-{np}-{kind}-{k}"),
    );
    let modes = [Damage::Delete, Damage::Chop, Damage::Flip];
    for i in 0..k {
        inflict(&shard_path(&dir, i, kind), modes[i % modes.len()]);
    }
    let mut cfg = cfg_for(engine, np);
    cfg.load_spectrum = Some(dir.clone());
    cfg.recovery = RecoveryPolicy::Repair { max_lost: PARITY_M, rewrite: false };
    let label = format!("{engine} np={np} {kind} k={k}");
    let row = match run_engine(engine, &cfg, reads) {
        Ok(out) => {
            assert!(k <= PARITY_M, "{label}: {k} lost shards must exceed the budget");
            assert_eq!(
                out.corrected, fresh.corrected,
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
    let reads = dataset();
    let mut rows = Vec::new();
    for engine in ENGINES {
        for np in [3usize, 4] {
            let fresh = run_engine(engine, &cfg_for(engine, np), &reads).unwrap();
            for kind in [ShardKind::Kmer, ShardKind::Tile] {
                for k in 0..=PARITY_M + 1 {
                    rows.push(repair_cell(engine, np, kind, k, &reads, &fresh));
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
    let reads = dataset();
    for engine in ENGINES {
        let fresh = run_engine(engine, &cfg_for(engine, 3), &reads).unwrap();
        repair_cell(engine, 3, ShardKind::Kmer, PARITY_M, &reads, &fresh);
        repair_cell(engine, 3, ShardKind::Tile, PARITY_M + 1, &reads, &fresh);
    }
}

/// `rewrite: true` repairs the snapshot on disk, not just in memory: a
/// later `Strict` load of the same directory succeeds.
#[test]
fn rewrite_heals_the_snapshot_in_place() {
    let reads = dataset();
    let dir = save_parity_snapshot("virtual", 3, 1, &reads, "rewrite");
    inflict(&shard_path(&dir, 1, ShardKind::Kmer), Damage::Flip);

    let mut cfg = cfg_for("virtual", 3);
    cfg.load_spectrum = Some(dir.clone());
    cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: true };
    let repaired = run_engine("virtual", &cfg, &reads).unwrap();
    assert!(repaired.report.shards_repaired() >= 1);

    // the flip is gone from disk: strict readers accept the directory
    let mut strict = cfg_for("virtual", 3);
    strict.load_spectrum = Some(dir.clone());
    let reloaded = run_engine("virtual", &strict, &reads).unwrap();
    assert_eq!(reloaded.corrected, repaired.corrected);
    assert_eq!(reloaded.report.shards_repaired(), 0, "rewrite must leave nothing to repair");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The PR-4 fault plan composes with repair: a `chop=` clause truncates
/// a shard mid-load, and a `Repair` policy reconstructs it instead of
/// aborting — on both engines, bit-identical to the clean run.
#[test]
fn chop_fault_plus_repair_policy_recovers_on_both_engines() {
    let reads = dataset();
    for engine in ENGINES {
        let fresh = run_engine(engine, &cfg_for(engine, 3), &reads).unwrap();
        let dir = save_parity_snapshot(engine, 3, 1, &reads, &format!("chop-repair-{engine}"));
        let mut cfg = cfg_for(engine, 3);
        cfg.load_spectrum = Some(dir.clone());
        cfg.fault = mpisim::FaultPlan::parse("chop=1:40").unwrap();
        cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
        let out = run_engine(engine, &cfg, &reads)
            .unwrap_or_else(|e| panic!("{engine}: chop+repair must recover, got {e}"));
        assert_eq!(out.corrected, fresh.corrected, "{engine}: chop+repair output");
        assert!(out.report.shards_repaired() >= 1, "{engine}: chop must trigger a repair");
        std::fs::remove_dir_all(&dir).unwrap();
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
    let reads = dataset();
    let dir = tempdir("v1-compat");
    let mut save_cfg = cfg_for("virtual", 3);
    save_cfg.save_spectrum = Some(dir.clone());
    run_engine("virtual", &save_cfg, &reads).unwrap();
    downgrade_to_v1(&dir);

    for engine in ENGINES {
        let fresh = run_engine(engine, &cfg_for(engine, 3), &reads).unwrap();
        let mut cfg = cfg_for(engine, 3);
        cfg.load_spectrum = Some(dir.clone());
        let loaded = run_engine(engine, &cfg, &reads)
            .unwrap_or_else(|e| panic!("{engine}: v1 snapshot must load under Strict, got {e}"));
        assert_eq!(loaded.corrected, fresh.corrected, "{engine}: v1 strict load");
        assert_eq!(loaded.report.shards_repaired(), 0, "{engine}");
    }

    let mut cfg = cfg_for("virtual", 3);
    cfg.load_spectrum = Some(dir.clone());
    cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
    match run_engine("virtual", &cfg, &reads) {
        Err(EngineError::Config(ConfigError::RepairWithoutParity)) => {}
        Err(other) => panic!("expected RepairWithoutParity, got {other}"),
        Ok(_) => panic!("a v1 snapshot has no parity to repair from"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A degraded snapshot still serves: `ServeEngine::start` under a
/// `Repair` policy reconstructs the damaged shard during its one load,
/// reports the repair in `ServeReport`, and the served corrections match
/// a fresh batch run.
#[test]
fn serve_engine_starts_degraded_and_reports_the_repair() {
    use reptile_dist::{ServeConfig, ServeEngine, SubmitError};
    let reads = dataset();
    let fresh = run_engine("mt", &cfg_for("mt", 3), &reads).unwrap();
    let dir = save_parity_snapshot("mt", 3, 1, &reads, "serve-degraded");
    inflict(&shard_path(&dir, 0, ShardKind::Kmer), Damage::Chop);

    let mut cfg = cfg_for("mt", 3);
    cfg.load_spectrum = Some(dir.clone());
    cfg.recovery = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
    let engine = ServeEngine::start(cfg, ServeConfig::default(), Vec::new()).unwrap();

    let total = reads.len();
    let mut responses = Vec::with_capacity(total);
    for read in reads.clone() {
        let trace_id = read.id;
        let mut pending = read;
        loop {
            match engine.submit(trace_id, pending) {
                Ok(()) => break,
                Err(SubmitError::Backpressure { read, retry_after, .. }) => {
                    responses.append(&mut engine.drain());
                    std::thread::sleep(retry_after);
                    pending = read;
                }
                Err(SubmitError::Closed(_)) => panic!("serve engine closed early"),
            }
        }
    }
    while responses.len() < total {
        responses.append(&mut engine.drain());
    }
    let report = engine.shutdown().unwrap();
    assert!(report.repair.shards_repaired >= 1, "degraded start must report its reconstruction");
    assert!(report.repair.bytes_reconstructed > 0);

    responses.sort_unstable_by_key(|r| r.read.id);
    let served: Vec<Vec<u8>> = responses.into_iter().map(|r| r.read.seq).collect();
    let want: Vec<Vec<u8>> = fresh.corrected.iter().map(|r| r.seq.clone()).collect();
    assert_eq!(served, want, "degraded serve must correct identically");
    std::fs::remove_dir_all(&dir).unwrap();
}
