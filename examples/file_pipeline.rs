//! End-to-end file pipeline: the paper's actual I/O path.
//!
//! ```text
//! cargo run --example file_pipeline
//! ```
//!
//! Writes a synthetic dataset as the (numbered FASTA, quality) file pair
//! Reptile consumes, writes a Reptile-style config file, then runs the
//! distributed engine with each rank reading its own byte-offset slice of
//! both files (Step I), and finally writes the corrected FASTA.

use genio::dataset::DatasetProfile;
use genio::{fasta, RunConfig};
use reptile::ReptileParams;
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, ThreadedEngine};
use std::io::Write;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("reptile-file-pipeline");
    std::fs::create_dir_all(&dir)?;
    let fasta_path = dir.join("reads.fa");
    let qual_path = dir.join("reads.qual");
    let out_path = dir.join("corrected.fa");
    let config_path = dir.join("run.config");

    // 1. synthesize and write the dataset
    let dataset = DatasetProfile::ecoli_like().scaled(4000).generate(7);
    dataset.write_files(&fasta_path, &qual_path)?;
    println!("wrote {} reads to {} (+ qualities)", dataset.reads.len(), fasta_path.display());

    // 2. write and re-load the Reptile-style config file
    let config = RunConfig {
        fasta_file: fasta_path.clone(),
        qual_file: qual_path.clone(),
        output_file: out_path.clone(),
        k: 12,
        tile_overlap: 6,
        chunk_size: 500,
        kmer_threshold: 5,
        tile_threshold: 5,
        ..RunConfig::default()
    };
    std::fs::write(&config_path, config.to_text())?;
    let config = RunConfig::load(&config_path)?;
    println!("config round-tripped through {}", config_path.display());

    // 3. distributed run, each rank reading its byte-offset slice
    let params = ReptileParams {
        k: config.k,
        tile_overlap: config.tile_overlap,
        kmer_threshold: config.kmer_threshold,
        tile_threshold: config.tile_threshold,
        q_threshold: config.q_threshold,
        max_errors_per_tile: config.max_errors_per_tile,
        max_positions_per_tile: config.max_positions_per_tile,
        max_candidates: config.max_candidates,
        canonical: config.canonical,
        ..ReptileParams::default()
    };
    let cfg = EngineConfig {
        np: 6,
        chunk_size: config.chunk_size,
        params,
        heuristics: HeuristicConfig::paper_production(),
        ..EngineConfig::new(6, params)
    };
    let out = ThreadedEngine.try_run_files(&cfg, &config.fasta_file, &config.qual_file)?;
    println!(
        "corrected {} errors across {} ranks (construct {:.3}s, correct {:.3}s wall)",
        out.report.errors_corrected(),
        cfg.np,
        out.report.construct_secs(),
        out.report.correct_secs()
    );

    // 4. write the corrected FASTA ("outputs the reads it has corrected")
    let mut w = std::io::BufWriter::new(std::fs::File::create(&config.output_file)?);
    for read in &out.corrected {
        fasta::write_record(&mut w, read.id, &read.seq)?;
    }
    w.flush()?;
    println!("corrected reads written to {}", config.output_file.display());

    // sanity: corrected output differs from input (errors were fixed)
    let changed = out.corrected.iter().zip(&dataset.reads).filter(|(c, o)| c.seq != o.seq).count();
    println!("{changed} reads changed by correction");
    Ok(())
}
