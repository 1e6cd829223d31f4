//! `run`: set up, measure untraced, verify, then the traced pass; print
//! every metric by name with its unit and write the result file.

use crate::child::{self, run_sampled, ChildRun};
use crate::gate::{self, Gate};
use crate::json::Json;
use crate::layers::{cli_command, Pass};
use crate::metrics::{EndToEnd, PerLayer, Values, END_TO_END, PER_LAYER};
use crate::serve;
use crate::stats::{median, spread};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, prepare, Prepared, Workload, WORKLOADS};
use reptile_dist::snapshot::save_snapshot_serial;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// How long one pass measures unless `--seconds` says otherwise;
/// `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 16.0;
/// Set-ups per untraced run, `setup_s` being their median: at least
/// `MIN_SETUPS`, and more of a short one (up to `MAX_SETUPS`, while they
/// have taken less than `SETUP_BUDGET_S` in all), because a set-up of
/// 80 ms reads 60 or 120 ms depending on the minute it runs in.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;
/// Fewest timed trials of a batch workload.
const MIN_TRIALS: usize = 3;

pub struct Options {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `Some(false)`: untraced pass only; `Some(true)`: traced pass only.
    pub trace: Option<bool>,
    pub smoke: bool,
}

/// A per-run scratch directory under `benchmark/out`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = crate::out_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One end-to-end metric: the reported value (the median of `raw` unless
/// said otherwise) and what it was taken over.
struct Measured {
    metric: &'static EndToEnd,
    value: f64,
    raw: Vec<f64>,
}

impl Measured {
    fn new(name: &str, value: f64, raw: Vec<f64>) -> Measured {
        let metric = END_TO_END.iter().find(|m| m.name == name).expect("a listed metric");
        Measured { metric, value, raw }
    }

    fn median_of(name: &str, raw: Vec<f64>) -> Measured {
        Measured::new(name, median(&raw), raw)
    }
}

struct Untraced {
    /// In `END_TO_END`'s order.
    metrics: Vec<Measured>,
    gate: Gate,
    notes: Vec<(&'static str, Json)>,
}

struct Traced {
    values: Values,
    gate: Gate,
    spans: Vec<Span>,
}

impl Traced {
    /// The recorded per-layer values, in `PER_LAYER`'s order.
    fn layers(&self) -> impl Iterator<Item = (&'static PerLayer, f64)> + '_ {
        PER_LAYER.iter().filter_map(|m| Some((m, self.values.get(m.name)?)))
    }
}

/// One full set-up: inputs, oracle and, for `serve_open`, what a service
/// pays before its first request: saving the spectrum as a snapshot with
/// one parity shard, and an engine start from it.
fn setup(w: &Workload, opts: &Options, dir: &Path, tracer: &Tracer) -> Result<Prepared, String> {
    // the traced pass corrects every workload's inputs; untraced, only the
    // batch workloads do
    let correct_inputs = !w.serve || tracer.enabled();
    let prepared = prepare(w, opts.seed, opts.smoke, dir, correct_inputs, tracer)?;
    if w.serve {
        let spectra = &prepared.spectra;
        tracer
            .span("setup.snapshot_save", || {
                save_snapshot_serial(
                    &prepared.snapshot(),
                    &workloads::params(),
                    workloads::NP,
                    1,
                    &spectra.kmers,
                    &spectra.tiles,
                )
            })
            .map_err(|e| format!("save snapshot: {e}"))?;
        tracer.span("setup.serve_start", || -> Result<(), String> {
            let (engine, _) = serve::start(&prepared.snapshot())?;
            engine.shutdown().map(drop).map_err(|e| format!("serve shutdown: {e}"))
        })?;
    }
    Ok(prepared)
}

/// Compare the file the CLI wrote with the oracle's, then remove it so the
/// next trial cannot pass on a stale file.
fn verify_output(p: &Prepared) -> Gate {
    let expected = p.expected_fasta.as_ref().expect("set-up corrected the inputs for this pass");
    let actual = std::fs::read(&p.files.output).unwrap_or_default();
    let _ = std::fs::remove_file(&p.files.output);
    gate::compare_fasta(expected, &actual)
}

fn trial(w: &Workload, p: &Prepared, cli: &Path) -> Result<(ChildRun, Gate), String> {
    let run = run_sampled(&mut cli_command(cli, &p.files.config, &w.cli_flags(p)))?;
    Ok((run, verify_output(p)))
}

fn untraced(w: &Workload, opts: &Options, cli: &Path, scratch: &Path) -> Result<Untraced, String> {
    let off = Tracer::new(false, w.name);
    let dir = scratch.join(w.name);
    let mut gate = Gate::default();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    let setups_started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setups_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(prepared.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        prepared = Some(setup(w, opts, &dir, &off)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let p = prepared.expect("MIN_SETUPS is at least one");
    let mut notes = vec![
        ("np", Json::Num(w.np as f64)),
        ("reads", Json::Num(p.reads.len() as f64)),
        (
            "input_mb",
            Json::Num(p.input_bytes().map_err(|e| format!("stat inputs: {e}"))? as f64 / 1e6),
        ),
        ("kmer_table_kb", Json::Num(p.spectra.kmers.table().memory_bytes() as f64 / 1024.0)),
    ];

    let mut metrics = Vec::new();
    if w.serve {
        // Every engine runs in a child of its own, so that the peak resident
        // set is not the harness's (dataset generation, the oracle).
        workloads::save_pools(&dir, &p.pools)?;
        drop(p);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let serve_child = |phase: &str, seed: u64| -> Result<(f64, serve::Outcome), String> {
            let mut cmd = Command::new(&exe);
            cmd.arg("serve-child")
                .arg(&dir)
                .args([w.serve_rate.to_string(), seed.to_string(), opts.seconds.to_string()])
                .args([if opts.smoke { "smoke" } else { "full" }, phase])
                .stdout(Stdio::null());
            let child = run_sampled(&mut cmd)?;
            let path = dir.join(SERVE_OUTCOME);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let outcome = crate::json::parse(&text)
                .ok()
                .and_then(|doc| serve::Outcome::from_json(&doc))
                .ok_or_else(|| format!("{}: not a serve outcome", path.display()))?;
            Ok((child.peak_rss_mb.ok_or("no VmHWM sample of a serve child")?, outcome))
        };
        let (_, mut out) = serve_child("bursts", opts.seed)?;
        let mut rss = Vec::new();
        for engine in 0..serve::OPEN_LOOP_ENGINES as u64 {
            // the same pools, another arrival schedule
            let (peak, open) = serve_child("open", opts.seed ^ ((engine + 1) << 48))?;
            rss.push(peak);
            out.runs.extend(open.runs);
            out.reruns += open.reruns;
            out.gate.add(open.gate);
        }
        gate.add(out.gate);
        metrics.push(Measured::median_of("reads_per_s", out.burst_rps.clone()));
        metrics
            .push(Measured::median_of("lat_p50_ms", out.runs.iter().map(|r| r.p50_ms).collect()));
        // Of the open-loop children: a burst drives the engine to its largest
        // micro-batches, whose prefetch maps land on either side of a
        // doubling from run to run.
        metrics.push(Measured::median_of("peak_rss_mb", rss));
        notes.push(("serve", out.to_json()));
    } else {
        let n_reads = p.reads.len() as f64;
        let mut walls = Vec::new();
        let mut rss = Vec::new();
        let t0 = Instant::now();
        while walls.len() < MIN_TRIALS || t0.elapsed().as_secs_f64() < opts.seconds {
            let (run, checked) = trial(w, &p, cli)?;
            gate.add(checked);
            walls.push(run.wall_s);
            rss.push(run.peak_rss_mb.ok_or("no VmHWM sample of a batch trial")?);
        }
        let rates = walls.iter().map(|s| n_reads / s).collect();
        metrics.push(Measured::new("reads_per_s", n_reads / median(&walls), rates));
        // the unit of work a user hands a batch workload is the job
        metrics.push(Measured::median_of("lat_p50_ms", walls.iter().map(|s| s * 1e3).collect()));
        metrics.push(Measured::median_of("peak_rss_mb", rss));
    }
    metrics.push(Measured::median_of("setup_s", setup_s));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Untraced { metrics, gate, notes })
}

/// Where the serve child leaves its outcome for the parent.
const SERVE_OUTCOME: &str = "serve_outcome.json";

/// `serve-child <dir> <rate> <seed> <seconds> <smoke|full> <bursts|open>`:
/// one half of `serve_open`'s timed section, in a process of its own.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let [dir, rate, seed, seconds, size, phase] = args else {
        return Err("serve-child is started by `run`, not by hand".into());
    };
    let dir = Path::new(dir);
    let number = |s: &String| s.parse::<f64>().map_err(|_| format!("serve-child: bad number {s}"));
    let seed: u64 = seed.parse().map_err(|_| format!("serve-child: bad seed {seed}"))?;
    let (seconds, smoke) = (number(seconds)?, size == "smoke");
    let plan = match phase.as_str() {
        "bursts" => serve::Plan::bursts(seconds, smoke),
        _ => serve::Plan::open_loop(number(rate)?, seconds, smoke),
    };
    let pools = workloads::load_pools(dir)?;
    let (engine, start_ms) = serve::start(&dir.join("snap"))?;
    let off = Tracer::new(false, "serve_open");
    let outcome = serve::measure(&engine, start_ms, &pools, plan, seed, &off);
    engine.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;
    std::fs::write(dir.join(SERVE_OUTCOME), outcome.to_json().render())
        .map_err(|e| format!("write serve outcome: {e}"))
}

fn traced(w: &Workload, opts: &Options, cli: &Path, scratch: &Path) -> Result<Traced, String> {
    let tracer = Tracer::new(true, w.name);
    let dir = scratch.join(format!("{}-traced", w.name));
    let (mut values, mut gate, p, traced_wall) = tracer.span(w.name, || -> Result<_, String> {
        let mut p = setup(w, opts, &dir, &tracer)?;
        let (run, gate) = tracer.span("cli.child", || trial(w, &p, cli))?;
        let mut pass = Pass {
            w,
            p: &mut p,
            cli,
            seed: opts.seed,
            smoke: opts.smoke,
            tracer: &tracer,
            values: Values::default(),
            gate,
        };
        pass.run()?;
        Ok((pass.values, pass.gate, p, run.wall_s))
    })?;
    // The same trial with nothing recording around it. Spans inside the
    // program are a later change; until then this reads as noise around 0.
    let (plain, checked) = trial(w, &p, cli)?;
    gate.add(checked);
    values.set("trace.coverage_frac", tracer.coverage());
    values.set("trace.overhead_frac", traced_wall / plain.wall_s - 1.0);
    drop(p);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Traced { values, gate, spans: tracer.take() })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last-level cache: the highest cache index of cpu0.
fn llc() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn provenance(opts: &Options) -> Json {
    let root = child::repo_root();
    Json::obj(vec![
        (
            "git_commit",
            Json::str(command_line(
                "git",
                &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("llc", Json::str(llc())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
    ])
}

fn gate_json(g: Gate) -> Json {
    Json::obj(vec![
        ("attempted", Json::Num(g.attempted as f64)),
        ("failed", Json::Num(g.failed as f64)),
        ("failed_frac", Json::Num(g.failed as f64 / g.attempted.max(1) as f64)),
    ])
}

fn workload_json(w: &Workload, untraced: Option<&Untraced>, traced: Option<&Traced>) -> Json {
    let mut fields = vec![("why", Json::str(w.why))];
    if let Some(u) = untraced {
        let e2e = u
            .metrics
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.metric.unit)),
                    ("raw", Json::nums(&m.raw)),
                ];
                if m.raw.len() >= 2 {
                    // interquartile range over the median, as the driver takes it
                    entry.push(("raw_spread", Json::Num(spread(&m.raw))));
                }
                (m.metric.name.to_string(), Json::obj(entry))
            })
            .collect();
        fields.push(("end_to_end", Json::Obj(e2e)));
        fields.push(("untraced_gate", gate_json(u.gate)));
        fields.push(("context", Json::obj(u.notes.clone())));
    }
    if let Some(t) = traced {
        let layers = t
            .layers()
            .map(|(m, value)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit)),
                    ("exact", Json::Bool(m.exact)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        fields.push(("per_layer", Json::Obj(layers)));
        fields.push(("traced_gate", gate_json(t.gate)));
    }
    Json::obj(fields)
}

fn print_table(w: &Workload, untraced: Option<&Untraced>, traced: Option<&Traced>) {
    println!("== {} ==", w.name);
    if let Some(u) = untraced {
        for m in &u.metrics {
            println!(
                "  {:<34} {:>14.4} {:<9} {} is better; over {} values",
                m.metric.name,
                m.value,
                m.metric.unit,
                m.metric.better.as_str(),
                m.raw.len()
            );
        }
        println!(
            "  {:<34} {:>14.6} {:<9} {} of {} reads differ from the oracle",
            "failed_frac",
            u.gate.failed as f64 / u.gate.attempted.max(1) as f64,
            "fraction",
            u.gate.failed,
            u.gate.attempted
        );
    }
    if let Some(t) = traced {
        for (m, v) in t.layers() {
            let exact = if m.exact { ", exact" } else { "" };
            println!(
                "  {:<34} {v:>14.4} {:<9} {} is better{exact}",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
        println!("  traced pass checked {} reads, {} failed", t.gate.attempted, t.gate.failed);
    }
}

/// The driver's result line: every metric of the pass it asked for.
fn driver_line(untraced: Option<&Untraced>, traced: Option<&Traced>) -> Json {
    let mut gate = Gate::default();
    let mut metrics = Vec::new();
    let entry = |value: f64, unit: &str| {
        Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    if let Some(u) = untraced {
        gate.add(u.gate);
        metrics.extend(
            u.metrics.iter().map(|m| (m.metric.name.to_string(), entry(m.value, m.metric.unit))),
        );
    }
    if let Some(t) = traced {
        gate.add(t.gate);
        metrics.extend(t.layers().map(|(m, v)| (m.name.to_string(), entry(v, m.unit))));
    }
    Json::obj(vec![
        ("correct", Json::Bool(gate.failed == 0)),
        ("attempted", Json::Num(gate.attempted as f64)),
        ("failed", Json::Num(gate.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Returns whether every output matched the oracle.
pub fn run(opts: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let cli = child::build_cli()?;
    let scratch = Scratch::new()?;
    let selected: Vec<&Workload> = match opts.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    let mut spans: Vec<Span> = Vec::new();
    let mut results = Vec::new();
    let mut last_line = None;
    for w in selected {
        let u = if opts.trace != Some(true) {
            Some(untraced(w, opts, &cli, &scratch.0)?)
        } else {
            None
        };
        let t =
            if opts.trace != Some(false) { Some(traced(w, opts, &cli, &scratch.0)?) } else { None };
        print_table(w, u.as_ref(), t.as_ref());
        all_correct &= u.as_ref().is_none_or(|u| u.gate.failed == 0);
        all_correct &= t.as_ref().is_none_or(|t| t.gate.failed == 0);
        results.push((w.name.to_string(), workload_json(w, u.as_ref(), t.as_ref())));
        last_line = Some(driver_line(u.as_ref(), t.as_ref()));
        if let Some(t) = t {
            // parents are indices into one workload's list
            let base = spans.len();
            spans.extend(
                t.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
            );
        }
    }

    let out_dir = crate::out_dir();
    let result = Json::obj(vec![
        // a smoke run is a twentieth the size: never compare it with a full one
        ("comparable", Json::Bool(!opts.smoke)),
        ("provenance", provenance(opts)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("workloads", Json::Obj(results)),
    ]);
    // a partial or smoke run must not overwrite a full run's file
    let part = match (opts.workload, opts.trace) {
        (None, None) => String::new(),
        (w, t) => format!(
            "-{}{}",
            w.map_or("all", |w| w.name),
            t.map_or(String::new(), |t| format!("-trace{}", t as u8))
        ),
    };
    let smoke = if opts.smoke { "-smoke" } else { "" };
    let result_path = out_dir.join(format!("result-seed{}{part}{smoke}.json", opts.seed));
    std::fs::write(&result_path, result.render_pretty())
        .map_err(|e| format!("write {}: {e}", result_path.display()))?;
    println!("result file: {}", result_path.display());
    if !spans.is_empty() {
        let trace_path = out_dir.join("trace.json");
        std::fs::write(&trace_path, trace::render(&spans).render_pretty())
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        println!("trace: {}", trace_path.display());
    }
    // one workload and one pass: the driver's call, so its line goes last
    if let (Some(_), Some(_), Some(line)) = (opts.workload, opts.trace, last_line) {
        println!("{}", line.render());
    }
    Ok(all_correct)
}
