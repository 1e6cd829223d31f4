//! Integration tests for the beyond-paper extensions: partial
//! replication, the prior-art engine, the k-mer-only baseline and
//! sharded output — all exercised through the public API
//! against the same ground-truth dataset.

use genio::dataset::DatasetProfile;
use reptile::{correct_dataset, AccuracyReport, ReptileParams};
use reptile_dist::engine_virtual::run_virtual;
use reptile_dist::{run_distributed, run_prior_art, EngineConfig, HeuristicConfig, PriorArtConfig};

fn dataset(seed: u64) -> genio::dataset::SyntheticDataset {
    DatasetProfile {
        name: "ext".into(),
        genome_len: 6_000,
        read_len: 70,
        n_reads: 2_400,
        base_error_rate: 0.006,
        hotspot_count: 3,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(seed)
}

fn params() -> ReptileParams {
    ReptileParams {
        k: 11,
        tile_overlap: 5,
        kmer_threshold: 4,
        tile_threshold: 3,
        ..ReptileParams::default()
    }
}

#[test]
fn partial_replication_all_engines_agree() {
    let ds = dataset(51);
    let p = params();
    let (seq, _) = correct_dataset(&ds.reads, &p);
    for g in [2usize, 4] {
        let heur = HeuristicConfig { partial_group: g, ..Default::default() };
        let mt = EngineConfig { heuristics: heur, ..EngineConfig::new(4, p) };
        let out = run_distributed(&mt, &ds.reads);
        assert_eq!(out.corrected, seq, "threaded g={g}");
        let v = EngineConfig { heuristics: heur, ..EngineConfig::virtual_cluster(64, p) };
        let virt = run_virtual(&v, &ds.reads);
        assert_eq!(virt.corrected, seq, "virtual g={g}");
    }
}

#[test]
fn partial_replication_reduces_messages_threaded() {
    let ds = dataset(52);
    let p = params();
    let base = run_distributed(&EngineConfig::new(6, p), &ds.reads);
    let mut cfg = EngineConfig::new(6, p);
    cfg.heuristics.partial_group = 3;
    let partial = run_distributed(&cfg, &ds.reads);
    let remote = |o: &reptile_dist::RunOutput| -> u64 {
        o.report.ranks.iter().map(|r| r.lookups.remote_total()).sum()
    };
    assert!(
        remote(&partial) < remote(&base),
        "groups of 3 of 6 ranks should roughly halve messages: {} vs {}",
        remote(&partial),
        remote(&base)
    );
}

#[test]
fn prior_art_engine_agrees_with_paper_engine() {
    let ds = dataset(53);
    let p = params();
    let paper = run_distributed(&EngineConfig::new(4, p), &ds.reads);
    let prior = run_prior_art(&PriorArtConfig::new(4, p), &ds.reads);
    assert_eq!(paper.corrected, prior.corrected);
    // and the prior art never messages during correction
    assert!(prior.report.ranks.iter().all(|r| r.lookups.remote_total() == 0));
}

#[test]
fn tile_corrector_beats_kmer_baseline_on_ground_truth() {
    // The tile advantage (§II-A) holds in the paper's coverage regime
    // (47–197X): tiles are sampled once per stride, so at low coverage
    // their counts starve against any threshold and the longer windows
    // lose more candidates than they disambiguate. Use ~70X here.
    let ds = DatasetProfile {
        name: "tiles".into(),
        genome_len: 6_000,
        read_len: 70,
        n_reads: 6_000,
        base_error_rate: 0.006,
        hotspot_count: 3,
        hotspot_multiplier: 5.0,
        hotspot_fraction: 0.1,
        both_strands: false,
        n_rate: 0.0005,
        repeat_fraction: 0.0,
        repeat_unit_len: 0,
    }
    .generate(55);
    let p = params();
    let (tiles, _) = correct_dataset(&ds.reads, &p);
    let (kmers, _) = reptile::correct_dataset_kmers_only(&ds.reads, &p);
    let t = AccuracyReport::score_dataset(&ds.reads, &tiles, &ds.truth);
    let k = AccuracyReport::score_dataset(&ds.reads, &kmers, &ds.truth);
    assert!(
        t.gain() > k.gain(),
        "tiles {:.3} must beat k-mers-only {:.3} (§II-A)",
        t.gain(),
        k.gain()
    );
    assert!(t.false_positives < k.false_positives + 50);
}

#[test]
fn sharded_output_reconstructs_dataset() {
    use reptile_dist::output::{merge_shards, write_all_shards};
    let ds = dataset(56);
    let p = params();
    let np = 5;
    let out = run_distributed(&EngineConfig::new(np, p), &ds.reads);
    // shard by the rank that owns each read under load balancing
    let mut per_rank: Vec<Vec<dnaseq::Read>> = vec![Vec::new(); np];
    for r in &out.corrected {
        per_rank[r.owner(np)].push(r.clone());
    }
    let dir = std::env::temp_dir().join(format!("reptile-ext-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    write_all_shards(&dir, "c", &per_rank).unwrap();
    let merged = dir.join("c.fa");
    let n = merge_shards(&dir, "c", np, &merged).unwrap();
    assert_eq!(n, ds.reads.len() as u64);
    // merged content equals the corrected output
    let text = std::fs::read_to_string(&merged).unwrap();
    let mut lines = text.lines();
    let first_hdr = lines.next().unwrap();
    assert_eq!(first_hdr, ">1");
    let first_seq = lines.next().unwrap();
    assert_eq!(first_seq.as_bytes(), &out.corrected[0].seq[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}
