//! `reptile-correct` — run a distributed correction job.
//!
//! ```text
//! reptile-correct <run.config> [options]
//!
//! options:
//!   --np N               number of ranks (default 8)
//!   --engine mt|virtual  threaded ranks (default) or the virtual cluster
//!   --universal          self-describing request messages (§III-B)
//!   --batch-reads        per-chunk spectrum exchange (§III-B)
//!   --read-tables        keep readsKmer/readsTile with global counts
//!   --cache-remote       cache remote answers (needs --read-tables)
//!   --aggregate          batch each lockstep round: one request per owner
//!                        per round (after one for the chunk's first wave),
//!                        no per-key round trip
//!   --replicate X        kmers | tiles | both (allgather heuristics)
//!   --partial-group G    §V partial replication group size
//!   --no-load-balance    disable the static shuffle (§III-A)
//!   --hot-shards K       replicate the K hottest spectrum owners when
//!                        skew detection trips (DESIGN.md §12)
//!   --steal              read-chunk stealing between ranks (gated on
//!                        chunk-load imbalance; bit-identical output)
//!   --chunk-size N       override the config file's chunk size
//!   --build-threads N    extraction workers per rank for the pipelined
//!                        spectrum build (default: all host cores; the
//!                        virtual engine models N workers per rank)
//!   --memory-budget B    out-of-core spectrum build: cap the per-rank
//!                        accounted build footprint (count tables +
//!                        accumulators + spill buffers) at B bytes;
//!                        overflow spills sorted run files to disk and a
//!                        k-way merge streams them back into the tables,
//!                        bit-identical to the in-memory build (requires
//!                        --batch-reads; B must be at or above the
//!                        geometry floor for the configured k)
//!   --scale X            dataset scale multiplier (virtual engine)
//!   --fault-plan SPEC    inject deterministic faults into the message
//!                        plane, e.g. "seed=7,drop=0.1,dup=0.05,kill=2"
//!                        (see mpisim::FaultPlan::parse for the grammar)
//!   --lookup-deadline D  base deadline of a Step IV lookup round
//!                        (e.g. 25ms); required for lossy fault plans
//!   --retry-budget N     retries before a lookup degrades to "absent
//!                        everywhere" (exponential backoff per attempt)
//!   --spectrum-out DIR   after Step III, persist the pruned spectra as a
//!                        sharded snapshot under DIR (one shard pair per
//!                        rank plus a manifest)
//!   --spectrum-in DIR    load the spectra from a snapshot instead of
//!                        rebuilding them: Steps II-III are skipped
//!                        (zero-copy at matching --np, re-owned through
//!                        the count exchange otherwise)
//!   --parity M           (with --spectrum-out) also write M
//!                        Reed-Solomon parity shards per spectrum kind,
//!                        so a later load can survive up to M lost or
//!                        corrupt shards per group (format v2)
//!   --repair-policy P    (with --spectrum-in) what a damaged shard does
//!                        to the load: "strict" (default) aborts;
//!                        "repair[:MAX[:rewrite]]" reconstructs up to
//!                        MAX lost shards per group from the survivors
//!                        + parity (MAX defaults to 1; ":rewrite" also
//!                        writes the rebuilt shards back in place)
//!   --serve FILE         build-once / correct-many: correct every job
//!                        listed in FILE ("<fasta> <qual> <output>" per
//!                        line) against one snapshot; requires
//!                        --spectrum-in and the threaded engine. The
//!                        jobs stream through one persistent
//!                        ServeEngine (snapshot loaded once, comm
//!                        threads kept warm, requests micro-batched)
//!   --queue-depth N      (with --serve) admission-queue high-water
//!                        mark: submissions past it are rejected with
//!                        retry-after backpressure (default 4096)
//!   --serve-batch N      (with --serve) micro-batch cap: most requests
//!                        a rank coalesces into one owner-batched
//!                        lookup round trip (default 256)
//!   --report             print the per-rank report table, then the
//!                        process's peak RSS beside the memory the
//!                        ranks account for (one process base plus
//!                        each rank's tables)
//! ```
//!
//! The config file supplies the input/output paths and the algorithm
//! parameters (see `genio::config`). Both engines are dispatched through
//! the [`reptile_dist::Engine`] trait — there is no per-engine plumbing
//! here beyond the name lookup.

use dnaseq::Read;
use genio::{fasta, RunConfig};
use reptile_cli::{
    heuristics_from_args, params_from_config, parse_serve_batches, recovery_from_args, ArgParser,
    ServeBatch,
};
use reptile_dist::{
    engine_by_name, EngineConfig, RunReport, ServeConfig, ServeEngine, ServeResponse, SubmitError,
};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

fn main() {
    if let Err(e) = run() {
        eprintln!("reptile-correct: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = ArgParser::parse(&raw)?;
    let config_path = args
        .positional(0)
        .ok_or("usage: reptile-correct <run.config> [options] (see --help in the docs)")?;
    let config = RunConfig::load(std::path::Path::new(config_path))?;
    let params = params_from_config(&config);
    let heuristics = heuristics_from_args(&args)?;
    let np = args.int("np", 8)?;

    let engine_name = args.value("engine").unwrap_or("mt");
    let engine = engine_by_name(engine_name)
        .ok_or_else(|| format!("--engine: expected mt|virtual, got '{engine_name}'"))?;
    if args.has("serve") && engine.name() != "mt" {
        return Err("usage: --serve runs on the threaded engine (drop --engine virtual)".into());
    }

    let mut builder = EngineConfig::builder(np, params);
    if engine.name() == "virtual" {
        builder = builder.virtual_cluster();
    }
    builder = builder
        .chunk_size(args.int("chunk-size", config.chunk_size)?)
        .heuristics(heuristics)
        .scale(args.int("scale", 1)? as f64)
        .retry_budget(args.int("retry-budget", 0)? as u32);
    if let Some(threads) = args.value("build-threads") {
        let threads: usize = threads
            .parse()
            .map_err(|_| format!("--build-threads: '{threads}' is not an integer"))?;
        builder = builder.build_threads(threads.max(1));
    }
    if let Some(bytes) = args.value("memory-budget") {
        let bytes: u64 =
            bytes.parse().map_err(|_| format!("--memory-budget: '{bytes}' is not a byte count"))?;
        builder = builder.memory_budget(bytes);
    }
    if let Some(spec) = args.value("fault-plan") {
        let plan = mpisim::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
        builder = builder.fault(plan);
    }
    if let Some(spec) = args.value("lookup-deadline") {
        let deadline =
            mpisim::parse_duration(spec).map_err(|e| format!("--lookup-deadline: {e}"))?;
        builder = builder.lookup_deadline(deadline);
    }
    if let Some(dir) = args.value("spectrum-out") {
        builder = builder.save_spectrum(dir).parity(args.int("parity", 0)?);
    }
    if let Some(dir) = args.value("spectrum-in") {
        builder = builder.load_spectrum(dir).recovery(recovery_from_args(&args)?);
    }
    let cfg = builder.build()?;

    if let Some(batches_path) = args.value("serve") {
        if cfg.load_spectrum.is_none() {
            return Err("--serve requires --spectrum-in (build the snapshot first with \
                        --spectrum-out)"
                .into());
        }
        let text = std::fs::read_to_string(batches_path)
            .map_err(|e| format!("--serve: cannot read '{batches_path}': {e}"))?;
        return serve_jobs(&args, cfg, &parse_serve_batches(&text)?);
    }

    let run = engine.try_run_files(&cfg, &config.fasta_file, &config.qual_file)?;
    write_corrected(&run.corrected, &config.output_file)?;
    println!(
        "{} reads -> {} ({} errors corrected, {} ranks, engine: {}, heuristics: {})",
        run.corrected.len(),
        config.output_file.display(),
        run.report.errors_corrected(),
        np,
        engine.name(),
        heuristics.label()
    );
    if cfg.save_spectrum.is_some() {
        println!(
            "spectrum snapshot: {} B written to {}",
            run.report.snapshot_bytes_written(),
            cfg.save_spectrum.as_deref().unwrap_or(Path::new("")).display()
        );
    }
    if cfg.load_spectrum.is_some() {
        println!(
            "spectrum snapshot: {} B loaded (build skipped)",
            run.report.snapshot_bytes_read()
        );
        if run.report.shards_repaired() > 0 {
            println!(
                "spectrum repair: {} shards reconstructed ({} B rebuilt) in {:.3}s",
                run.report.shards_repaired(),
                run.report.repair_bytes(),
                run.report.repair_secs()
            );
        }
    }
    if args.has("report") {
        print_report(&run.report);
    }
    Ok(())
}

/// Write the corrected reads as numbered FASTA records.
fn write_corrected(reads: &[Read], path: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for read in reads {
        fasta::write_record(&mut out, read.id, &read.seq)?;
    }
    out.flush()?;
    Ok(())
}

/// Stream every serve-batch job through one persistent [`ServeEngine`]:
/// the snapshot is loaded once, comm threads stay warm, and each job's
/// reads flow through the bounded admission queue (micro-batched per
/// rank), each submitted as fast as backpressure allows.
fn serve_jobs(
    args: &ArgParser,
    cfg: EngineConfig,
    batches: &[ServeBatch],
) -> Result<(), Box<dyn std::error::Error>> {
    let serve_cfg = ServeConfig {
        queue_depth: args.int("queue-depth", ServeConfig::default().queue_depth)?,
        max_batch: args.int("serve-batch", ServeConfig::default().max_batch)?,
    };
    let want_report = args.has("report");

    let t0 = Instant::now();
    let engine = ServeEngine::start(cfg, serve_cfg, Vec::new())?;
    println!(
        "serve: engine ready in {:.3}s (queue depth {}, micro-batch cap {})",
        t0.elapsed().as_secs_f64(),
        serve_cfg.queue_depth,
        serve_cfg.max_batch
    );

    let n = batches.len();
    for (i, batch) in batches.iter().enumerate() {
        let reads = genio::qual::load_dataset(&batch.fasta, &batch.qual)?;
        let total = reads.len();
        let job_start = Instant::now();
        let mut responses: Vec<ServeResponse> = Vec::with_capacity(total);
        let mut retries: u64 = 0;
        for (j, read) in reads.into_iter().enumerate() {
            let trace_id = read.id;
            let mut pending = read;
            loop {
                match engine.submit(trace_id, pending) {
                    Ok(()) => break,
                    Err(SubmitError::Backpressure { read, retry_after, .. }) => {
                        // Backpressure hands the read back: drain what
                        // has finished, honor retry-after, resubmit.
                        retries += 1;
                        responses.append(&mut engine.drain());
                        std::thread::sleep(retry_after);
                        pending = read;
                    }
                    Err(SubmitError::Closed(_)) => {
                        return Err("serve engine closed while jobs were pending".into());
                    }
                }
            }
            if j % 512 == 0 {
                responses.append(&mut engine.drain());
            }
        }
        while responses.len() < total {
            responses.append(&mut engine.drain());
            if responses.len() < total {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let elapsed = job_start.elapsed().as_secs_f64();

        responses.sort_unstable_by_key(|r| r.read.id);
        let corrected: Vec<Read> = responses.drain(..).map(|r| r.read).collect();
        write_corrected(&corrected, &batch.output)?;
        println!(
            "[{}/{}] {} -> {} ({} reads in {:.3}s, {:.0} req/s, {} backpressure retries)",
            i + 1,
            n,
            batch.fasta.display(),
            batch.output.display(),
            total,
            elapsed,
            total as f64 / elapsed.max(1e-9),
            retries,
        );
    }

    let report = engine.shutdown()?;
    let mut latencies: Vec<f64> =
        report.responses.iter().map(|r| (r.queue + r.service).as_secs_f64() * 1e3).collect();
    println!(
        "serve: {} requests in {} micro-batches (mean {:.1}/batch), {} rejected, \
         {} errors corrected, snapshot {} B loaded once, uptime {:.3}s",
        report.completed,
        report.batches,
        report.mean_batch(),
        report.rejected,
        report.errors_corrected,
        report.snapshot_bytes_read,
        report.uptime_secs,
    );
    if report.repair.shards_repaired > 0 {
        println!(
            "serve: degraded start — {} shards reconstructed ({} B rebuilt)",
            report.repair.shards_repaired, report.repair.bytes_reconstructed,
        );
    }
    if !latencies.is_empty() {
        latencies.sort_by(|a, b| a.total_cmp(b));
        println!(
            "serve latency (undrained tail): p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms",
            percentile(&latencies, 50.0),
            percentile(&latencies, 95.0),
            percentile(&latencies, 99.0),
        );
    }
    if report.lookups.keys_degraded > 0 {
        println!(
            "WARNING: {} lookups degraded to absent (fault plan active)",
            report.lookups.keys_degraded
        );
    }
    if want_report {
        println!(
            "lookups: {} remote, {} retried, {} deadline misses",
            report.lookups.remote_total(),
            report.lookups.requests_retried,
            report.lookups.deadline_misses,
        );
    }
    Ok(())
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// This process's peak resident set (`VmHWM`) in MiB, if the platform
/// exposes `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// The bytes the ranks account for as one process: they are threads of
/// it, so the cost model's process base counts once, plus each rank's
/// `memory_bytes` above that base.
fn accounted_process_bytes(report: &RunReport) -> f64 {
    let base = report.cost.process_base_bytes;
    base + report.ranks.iter().map(|r| r.memory_bytes - base).sum::<f64>()
}

fn print_report(report: &RunReport) {
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>10} {:>12} {:>8} {:>8} {:>8} {:>10}",
        "rank",
        "reads",
        "errors",
        "constr_s",
        "correct_s",
        "remote_lkps",
        "retries",
        "misses",
        "degraded",
        "mem_MiB"
    );
    for r in &report.ranks {
        println!(
            "{:>5} {:>8} {:>10} {:>10.3} {:>10.3} {:>12} {:>8} {:>8} {:>8} {:>10.1}",
            r.rank,
            r.reads_processed,
            r.correction.errors_corrected,
            r.construct_secs,
            r.correct_secs,
            r.lookups.remote_total(),
            r.lookups.requests_retried,
            r.lookups.deadline_misses,
            r.lookups.keys_degraded,
            r.memory_bytes / (1024.0 * 1024.0),
        );
    }
    println!(
        "makespan {:.3}s  (construct {:.3}s + correct {:.3}s), imbalance ratio {:.2}",
        report.makespan_secs(),
        report.construct_secs(),
        report.correct_secs(),
        report.imbalance_ratio()
    );
    println!(
        "memory: peak RSS {} MiB measured (VmHWM), {:.1} MiB accounted \
         (one process base + each rank's mem_MiB above it)",
        peak_rss_mib().map_or_else(|| "n/a".to_string(), |m| format!("{m:.1}")),
        accounted_process_bytes(report) / (1024.0 * 1024.0)
    );
    if report.ooc_peak_bytes() > 0 {
        println!(
            "out-of-core build: {} runs / {} B spilled, merge {:.3}s, peak accounted {} B",
            report.spill_runs(),
            report.spill_bytes(),
            report.merge_secs(),
            report.ooc_peak_bytes()
        );
    }
    let degraded: u64 = report.ranks.iter().map(|r| r.lookups.keys_degraded).sum();
    if degraded > 0 {
        println!("WARNING: {degraded} lookups degraded to absent (fault plan active)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{CostModel, Topology};
    use reptile_dist::RankReport;

    /// A run whose rank `r` accounts for the process base plus
    /// `tables[r]` bytes.
    fn run_with_tables(tables: &[f64]) -> RunReport {
        let cost = CostModel::bgq();
        let ranks = tables
            .iter()
            .enumerate()
            .map(|(rank, &t)| RankReport {
                rank,
                memory_bytes: cost.process_base_bytes + t,
                ..Default::default()
            })
            .collect();
        RunReport { ranks, topology: Topology::single_node(), cost }
    }

    #[test]
    fn accounted_memory_charges_the_process_base_once() {
        let base = CostModel::bgq().process_base_bytes;
        let one = run_with_tables(&[5e6]);
        assert_eq!(accounted_process_bytes(&one), one.ranks[0].memory_bytes);
        let four = run_with_tables(&[1e6, 2e6, 3e6, 4e6]);
        assert_eq!(accounted_process_bytes(&four), base + 10e6);
    }
}
