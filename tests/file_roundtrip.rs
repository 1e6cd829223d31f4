//! File-backed pipeline integration: Step I partitioned reading feeding
//! the distributed engine, plus failure injection on malformed inputs.

use genio::dataset::DatasetProfile;
use genio::{PartitionedReader, RunConfig};
use reptile::ReptileParams;
use reptile_dist::{Engine, EngineConfig, ThreadedEngine};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reptile-it-{tag}-{}", std::process::id()));
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

#[test]
fn file_run_matches_in_memory_run() {
    let dir = tempdir("match");
    let ds = DatasetProfile {
        name: "f".into(),
        genome_len: 4_000,
        read_len: 64,
        n_reads: 1_200,
        base_error_rate: 0.005,
        hotspot_count: 2,
        hotspot_multiplier: 6.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.001,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(21);
    let fasta = dir.join("r.fa");
    let qual = dir.join("r.qual");
    ds.write_files(&fasta, &qual).unwrap();

    let cfg = EngineConfig::new(5, params());
    let from_files = ThreadedEngine.try_run_files(&cfg, &fasta, &qual).unwrap();
    let in_memory = ThreadedEngine.run(&cfg, &ds.reads);
    assert_eq!(from_files.corrected, in_memory.corrected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The build-once / correct-many file pipeline: one run persists the
/// spectra with `save_spectrum`, later file-backed runs skip Steps II–III
/// with `load_spectrum` — at the same np and at a re-sharded np — and
/// still correct bit-identically.
#[test]
fn file_runs_serve_from_a_saved_spectrum() {
    let dir = tempdir("serve");
    let ds = DatasetProfile {
        name: "s".into(),
        genome_len: 3_000,
        read_len: 60,
        n_reads: 900,
        base_error_rate: 0.005,
        hotspot_count: 1,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.001,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(33);
    let fasta = dir.join("r.fa");
    let qual = dir.join("r.qual");
    ds.write_files(&fasta, &qual).unwrap();
    let snap = dir.join("spectrum");

    let save_cfg =
        EngineConfig { save_spectrum: Some(snap.clone()), ..EngineConfig::new(4, params()) };
    let built = ThreadedEngine.try_run_files(&save_cfg, &fasta, &qual).unwrap();
    assert!(built.report.snapshot_bytes_written() > 0);
    assert!(snap.join("MANIFEST.txt").is_file(), "save must leave a manifest behind");

    for np in [4usize, 3] {
        let load_cfg =
            EngineConfig { load_spectrum: Some(snap.clone()), ..EngineConfig::new(np, params()) };
        let served = ThreadedEngine.try_run_files(&load_cfg, &fasta, &qual).unwrap();
        assert_eq!(served.corrected, built.corrected, "np={np}");
        assert!(served.report.snapshot_bytes_read() > 0, "np={np}");
        assert_eq!(
            served.report.ranks.iter().map(|r| r.build.exchange_bytes).sum::<u64>(),
            0,
            "np={np}: a served run must not pay the build exchange"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partitioned_reading_covers_dataset_once() {
    let dir = tempdir("cover");
    let ds = DatasetProfile {
        name: "c".into(),
        genome_len: 2_000,
        read_len: 50,
        n_reads: 333,
        base_error_rate: 0.003,
        hotspot_count: 0,
        hotspot_multiplier: 1.0,
        hotspot_fraction: 0.0,
        both_strands: false,
        n_rate: 0.0,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(5);
    let fasta = dir.join("r.fa");
    let qual = dir.join("r.qual");
    ds.write_files(&fasta, &qual).unwrap();
    for np in [1usize, 4, 13] {
        let mut all = Vec::new();
        for rank in 0..np {
            let mut part = PartitionedReader::open(&fasta, &qual, np, rank).unwrap();
            all.extend(part.read_all().unwrap());
        }
        all.sort_by_key(|r| r.id);
        assert_eq!(all, ds.reads, "np={np}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_quality_file_fails_cleanly() {
    let dir = tempdir("trunc");
    let fasta = dir.join("r.fa");
    let qual = dir.join("r.qual");
    std::fs::write(&fasta, b">1\nACGTACGTACGTACGTACGT\n>2\nACGTACGTACGTACGTACGT\n").unwrap();
    // quality file missing the second record entirely
    std::fs::write(&qual, b">1\n30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30\n")
        .unwrap();
    let cfg = EngineConfig::new(2, params());
    let err = match ThreadedEngine.try_run_files(&cfg, &fasta, &qual) {
        Err(e) => e,
        Ok(_) => panic!("truncated quality file must fail"),
    };
    let msg = err.to_string();
    assert!(
        msg.contains("quality") || msg.contains("not present") || msg.contains("aborted"),
        "unexpected error: {msg}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_lengths_fail_cleanly() {
    let dir = tempdir("len");
    let fasta = dir.join("r.fa");
    let qual = dir.join("r.qual");
    std::fs::write(&fasta, b">1\nACGT\n").unwrap();
    std::fs::write(&qual, b">1\n30 30 30\n").unwrap();
    let cfg = EngineConfig::new(1, params());
    assert!(ThreadedEngine.try_run_files(&cfg, &fasta, &qual).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn config_file_drives_parameters() {
    let text = "\
        fasta_file = a.fa\n\
        qual_file = a.qual\n\
        k = 10\n\
        tile_overlap = 5\n\
        kmer_threshold = 4\n\
        tile_threshold = 4\n\
        chunk_size = 100\n";
    let cfg = RunConfig::parse(text).unwrap();
    let p = ReptileParams {
        k: cfg.k,
        tile_overlap: cfg.tile_overlap,
        kmer_threshold: cfg.kmer_threshold,
        tile_threshold: cfg.tile_threshold,
        q_threshold: cfg.q_threshold,
        max_errors_per_tile: cfg.max_errors_per_tile,
        max_positions_per_tile: cfg.max_positions_per_tile,
        max_candidates: cfg.max_candidates,
        canonical: cfg.canonical,
        ..ReptileParams::default()
    };
    p.assert_valid();
    assert_eq!(p.k, 10);
    assert_eq!(p.tile_overlap, 5);
}

#[test]
fn reads_shorter_than_a_tile_pass_through() {
    let dir = tempdir("short");
    let fasta = dir.join("r.fa");
    let qual = dir.join("r.qual");
    // read 1 is shorter than the tile length (15); read 2 is normal
    std::fs::write(&fasta, b">1\nACGTACGT\n>2\nACGTACGTACGTACGTACGTACGT\n").unwrap();
    std::fs::write(
        &qual,
        b">1\n30 30 30 30 30 30 30 30\n>2\n30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30 30\n",
    )
    .unwrap();
    let cfg = EngineConfig::new(2, params());
    let out = ThreadedEngine.try_run_files(&cfg, &fasta, &qual).unwrap();
    assert_eq!(out.corrected.len(), 2);
    assert_eq!(out.corrected[0].seq, b"ACGTACGT".to_vec(), "short read untouched");
    std::fs::remove_dir_all(&dir).unwrap();
}
