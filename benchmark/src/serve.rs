//! The load generator for the serve plane: one thread that submits and
//! drains, closed-loop bursts for capacity and open-loop Poisson arrivals
//! for latency.
//!
//! Closed loop: one client resubmits on backpressure after `retry_after`,
//! so a slower engine receives less load; the burst's wall-clock gives the
//! capacity. Open loop: requests are sent on a seeded schedule whether or
//! not the engine keeps up, and each is timed **from when it was due** to
//! the `drain()` call that returned it, so a stall is charged to every
//! request it delays. How late the generator itself ran is reported.

use crate::gate::{self, Gate};
use crate::json::Json;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{self, params, Pool, Workload, NP};
use dnaseq::Read;
use genio::{OpenLoopGen, RequestMix};
use reptile_dist::{EngineConfig, ServeConfig, ServeEngine, ServeResponse, SubmitError};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests per closed-loop burst.
pub const BURST_REQUESTS: usize = 20_000;

/// Start the engine on a snapshot; returns it with the start-up time (ms).
pub fn start(snapshot: &Path) -> Result<(ServeEngine, f64), String> {
    let cfg = EngineConfig::builder(NP, params())
        .heuristics(Workload::serve_heuristics())
        .load_spectrum(snapshot)
        .build()
        .map_err(|e| format!("serve engine config: {e}"))?;
    let t0 = Instant::now();
    let engine = ServeEngine::start(cfg, ServeConfig::default(), Vec::new())
        .map_err(|e| format!("ServeEngine::start: {e}"))?;
    Ok((engine, t0.elapsed().as_secs_f64() * 1e3))
}

/// One open-loop run at a fixed rate.
#[derive(Clone, Debug)]
pub struct OpenRun {
    pub samples: usize,
    /// Submissions the engine refused with backpressure; each waited in the
    /// generator and was offered again at its next poll.
    pub refused: u64,
    pub p50_ms: f64,
    /// p99 when the run has the samples for it (see `tail_percentile`).
    pub tail_ms: f64,
    pub tail_percentile: f64,
    pub queue_p50_ms: f64,
    pub service_p50_ms: f64,
    pub service_p99_ms: f64,
    pub mean_batch: f64,
    pub max_queue: usize,
    /// p99 of submit instant minus due time: how late the generator ran.
    pub gen_late_p99_ms: f64,
}

struct Session<'a> {
    engine: &'a ServeEngine,
    mix: RequestMix,
    pools: &'a [Pool],
    seed: u64,
    streams: u64,
    gate: Gate,
}

fn sorted_ms(values: impl Iterator<Item = Duration>) -> Vec<f64> {
    let mut v: Vec<f64> = values.map(|d| d.as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

impl<'a> Session<'a> {
    fn new(engine: &'a ServeEngine, mix: RequestMix, pools: &'a [Pool], seed: u64) -> Self {
        Session { engine, mix, pools, seed, streams: 0, gate: Gate::default() }
    }

    /// Every burst and run draws from its own seeded stream.
    fn generator(&mut self, rate: f64) -> OpenLoopGen {
        self.streams += 1;
        OpenLoopGen::new(self.mix.clone(), rate, self.seed ^ (self.streams << 32))
    }

    /// Check responses against the oracle, through the FASTA writer. A
    /// request that never came back is a missing record.
    fn verify(&mut self, drew: &[(usize, usize)], mut responses: Vec<ServeResponse>) {
        responses.sort_unstable_by_key(|r| r.trace_id);
        let expected = gate::render_fasta(
            drew.iter()
                .enumerate()
                .map(|(i, &(pool, index))| (i as u64, &self.pools[pool].expected[index])),
        );
        let actual = gate::render_fasta(responses.iter().map(|r| (r.trace_id, &r.read.seq)));
        self.gate.add(gate::compare_fasta(&expected, &actual));
    }

    /// A saturating closed-loop burst of `n` requests; returns requests/s.
    fn burst(&mut self, n: usize) -> f64 {
        let arrivals = self.generator(1.0).generate(n);
        let drew: Vec<(usize, usize)> =
            arrivals.iter().map(|a| (a.component, a.read.id as usize - 1)).collect();
        let mut responses: Vec<ServeResponse> = Vec::with_capacity(n);
        let t0 = Instant::now();
        for (i, arrival) in arrivals.into_iter().enumerate() {
            let mut pending = Read { id: i as u64 + 1, ..arrival.read };
            loop {
                match self.engine.submit(i as u64, pending) {
                    Ok(()) => break,
                    Err(SubmitError::Backpressure { read, retry_after, .. }) => {
                        responses.append(&mut self.engine.drain());
                        std::thread::sleep(retry_after);
                        pending = read;
                    }
                    Err(SubmitError::Closed(_)) => panic!("serve engine closed mid-burst"),
                }
            }
        }
        while responses.len() < n {
            responses.append(&mut self.engine.drain());
            if responses.len() < n {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        self.verify(&drew, responses);
        n as f64 / wall
    }

    /// Poisson arrivals at `rate` requests/s for `secs` seconds.
    fn open_loop(&mut self, rate: f64, secs: f64) -> OpenRun {
        let arrivals: Vec<_> = self.generator(rate).take_while(|a| a.at_secs < secs).collect();
        let n = arrivals.len();
        let drew: Vec<(usize, usize)> =
            arrivals.iter().map(|a| (a.component, a.read.id as usize - 1)).collect();
        let due: Vec<f64> = arrivals.iter().map(|a| a.at_secs).collect();
        let mut responses: Vec<ServeResponse> = Vec::with_capacity(n);
        let mut latency_s: Vec<f64> = Vec::with_capacity(n);
        let mut late_s: Vec<f64> = Vec::with_capacity(n);
        let mut waiting: VecDeque<(u64, Read)> = VecDeque::new();
        let mut refused = 0u64;
        let mut max_queue = 0usize;
        let t0 = Instant::now();
        let collect = |responses: &mut Vec<ServeResponse>, latency_s: &mut Vec<f64>| {
            let mut batch = self.engine.drain();
            let now = t0.elapsed().as_secs_f64();
            latency_s.extend(batch.iter().map(|r| now - due[r.trace_id as usize]));
            responses.append(&mut batch);
        };
        // Submit in arrival order, whatever the engine refused earlier first.
        // The source never slows down and never drops: a refused request
        // waits here and its wait counts, since it is timed from when it was
        // due. (Dropping it would turn a slow minute of the host into failed
        // operations.)
        let offer =
            |waiting: &mut VecDeque<(u64, Read)>, refused: &mut u64, max_queue: &mut usize| {
                while let Some((trace_id, read)) = waiting.pop_front() {
                    match self.engine.submit(trace_id, read) {
                        Ok(()) => {}
                        Err(SubmitError::Backpressure { read, queue_len, .. }) => {
                            *refused += 1;
                            *max_queue = (*max_queue).max(queue_len);
                            waiting.push_front((trace_id, read));
                            return;
                        }
                        Err(SubmitError::Closed(_)) => panic!("serve engine closed mid-run"),
                    }
                }
            };
        for (i, arrival) in arrivals.into_iter().enumerate() {
            // Poll at least every 200 µs while waiting. Sleeping rather than
            // spinning: the engine's four threads already share two cores.
            loop {
                let wait = due[i] - t0.elapsed().as_secs_f64();
                if wait <= 0.0 {
                    break;
                }
                offer(&mut waiting, &mut refused, &mut max_queue);
                collect(&mut responses, &mut latency_s);
                max_queue = max_queue.max(self.engine.queue_len());
                if wait > 70e-6 {
                    std::thread::sleep(Duration::from_secs_f64((wait - 60e-6).min(140e-6)));
                } else {
                    std::thread::yield_now();
                }
            }
            late_s.push(t0.elapsed().as_secs_f64() - due[i]);
            waiting.push_back((i as u64, Read { id: i as u64 + 1, ..arrival.read }));
            offer(&mut waiting, &mut refused, &mut max_queue);
        }
        while responses.len() < n {
            offer(&mut waiting, &mut refused, &mut max_queue);
            collect(&mut responses, &mut latency_s);
            if responses.len() < n {
                std::thread::sleep(Duration::from_micros(100));
            }
        }

        let mut latency_ms: Vec<f64> = latency_s.iter().map(|s| s * 1e3).collect();
        latency_ms.sort_by(f64::total_cmp);
        let mut late_ms: Vec<f64> = late_s.iter().map(|s| s * 1e3).collect();
        late_ms.sort_by(f64::total_cmp);
        let queue_ms = sorted_ms(responses.iter().map(|r| r.queue));
        let service_ms = sorted_ms(responses.iter().map(|r| r.service));
        // each response carries the size of the batch it rode in, so the
        // mean over batches weights a response by 1/batch_len
        let batches: f64 = responses.iter().map(|r| 1.0 / r.batch_len as f64).sum();
        let tail = tail_percentile(latency_ms.len());
        let run = OpenRun {
            samples: latency_ms.len(),
            refused,
            p50_ms: percentile(&latency_ms, 50.0),
            tail_ms: percentile(&latency_ms, tail),
            tail_percentile: tail,
            queue_p50_ms: percentile(&queue_ms, 50.0),
            service_p50_ms: percentile(&service_ms, 50.0),
            service_p99_ms: percentile(&service_ms, tail),
            mean_batch: responses.len() as f64 / batches,
            max_queue,
            gen_late_p99_ms: percentile(&late_ms, 99.0),
        };
        self.verify(&drew, responses);
        run
    }
}

/// What a whole serve measurement yields; the serve child hands it to the
/// parent as JSON.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub start_ms: f64,
    pub burst_rps: Vec<f64>,
    pub runs: Vec<OpenRun>,
    /// Runs repeated because the generator ran more than 1 ms late.
    pub reruns: u64,
    pub gate: Gate,
}

impl Outcome {
    pub fn over_runs(&self, f: impl Fn(&OpenRun) -> f64) -> f64 {
        median(&self.runs.iter().map(f).collect::<Vec<f64>>())
    }
}

/// The closed-loop phase: a warm-up burst, then bursts of `requests`
/// until there are `min_bursts` of them and `secs` have gone by.
#[derive(Clone, Copy, Debug)]
pub struct Bursts {
    pub warmup_requests: usize,
    pub requests: usize,
    pub min_bursts: usize,
    pub secs: f64,
}

/// The open-loop phase: a discarded warm-up run, then `runs` runs.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    pub rate: f64,
    pub warmup_secs: f64,
    pub runs: usize,
    pub run_secs: f64,
}

/// What one engine is put through.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub bursts: Option<Bursts>,
    pub open: Option<OpenLoop>,
}

/// Share of a serve measurement's time given to the closed-loop bursts.
const BURST_SHARE: f64 = 0.3;

/// Fresh engines, each in a process of its own, that the open-loop
/// latency is taken over. Where the engine's four threads and the
/// generator land on two cores is drawn once per process and moves the
/// median latency by several percent, so one long run would report the
/// draw; the median over independent draws is steadier.
pub const OPEN_LOOP_ENGINES: usize = 3;

impl Plan {
    /// The capacity half of the end-to-end measurement.
    pub fn bursts(seconds: f64, smoke: bool) -> Plan {
        let requests = if smoke { BURST_REQUESTS / 20 } else { BURST_REQUESTS };
        let bursts = Bursts {
            warmup_requests: requests / 4,
            requests,
            min_bursts: 3,
            secs: BURST_SHARE * seconds,
        };
        Plan { bursts: Some(bursts), open: None }
    }

    /// One of the `OPEN_LOOP_ENGINES` latency measurements that share the
    /// rest of `seconds`: a warm-up run, then one run.
    pub fn open_loop(rate: f64, seconds: f64, smoke: bool) -> Plan {
        let warmup_secs = if smoke { 0.2 } else { 0.7 };
        let share = (1.0 - BURST_SHARE) * seconds / OPEN_LOOP_ENGINES as f64;
        let run_secs = (share - warmup_secs).max(0.3);
        Plan { bursts: None, open: Some(OpenLoop { rate, warmup_secs, runs: 1, run_secs }) }
    }

    /// The traced pass's short probe: one burst, one run, one engine.
    pub fn probe(rate: f64, smoke: bool) -> Plan {
        let shrink = if smoke { 10 } else { 1 };
        Plan {
            bursts: Some(Bursts {
                warmup_requests: 2000 / shrink,
                requests: 5000 / shrink,
                min_bursts: 1,
                secs: 0.0,
            }),
            open: Some(OpenLoop { rate, warmup_secs: 0.0, runs: 1, run_secs: 2.5 / shrink as f64 }),
        }
    }
}

/// Run `plan` against a started engine. An open-loop run in which the
/// generator ran more than 1 ms late is repeated, once per measurement.
pub fn measure(
    engine: &ServeEngine,
    start_ms: f64,
    pools: &[Pool],
    plan: Plan,
    seed: u64,
    tracer: &Tracer,
) -> Outcome {
    let mut session = Session::new(engine, workloads::mix(pools), pools, seed);
    let mut out = Outcome { start_ms, ..Outcome::default() };
    if let Some(b) = plan.bursts {
        tracer.span("serve.warmup_burst", || session.burst(b.warmup_requests));
        let t0 = Instant::now();
        while out.burst_rps.len() < b.min_bursts || t0.elapsed().as_secs_f64() < b.secs {
            out.burst_rps.push(tracer.span("serve.burst", || session.burst(b.requests)));
        }
    }
    if let Some(o) = plan.open {
        if o.warmup_secs > 0.0 {
            tracer.span("serve.warmup_run", || session.open_loop(o.rate, o.warmup_secs));
        }
        for _ in 0..o.runs {
            let mut run =
                tracer.span("serve.open_loop_run", || session.open_loop(o.rate, o.run_secs));
            if run.gen_late_p99_ms > 1.0 && out.reruns == 0 {
                out.reruns += 1;
                run =
                    tracer.span("serve.open_loop_rerun", || session.open_loop(o.rate, o.run_secs));
            }
            out.runs.push(run);
        }
    }
    out.gate = session.gate;
    out
}

const RUN_FIELDS: [&str; 11] = [
    "samples",
    "refused",
    "p50_ms",
    "tail_ms",
    "tail_percentile",
    "queue_p50_ms",
    "service_p50_ms",
    "service_p99_ms",
    "mean_batch",
    "max_queue",
    "gen_late_p99_ms",
];

impl OpenRun {
    fn fields(&self) -> [f64; 11] {
        [
            self.samples as f64,
            self.refused as f64,
            self.p50_ms,
            self.tail_ms,
            self.tail_percentile,
            self.queue_p50_ms,
            self.service_p50_ms,
            self.service_p99_ms,
            self.mean_batch,
            self.max_queue as f64,
            self.gen_late_p99_ms,
        ]
    }

    pub fn to_json(&self) -> Json {
        Json::obj(RUN_FIELDS.iter().copied().zip(self.fields().map(Json::Num)).collect())
    }

    fn from_json(doc: &Json) -> Option<OpenRun> {
        let f = |key: &str| doc.get(key).and_then(Json::as_f64);
        Some(OpenRun {
            samples: f("samples")? as usize,
            refused: f("refused")? as u64,
            p50_ms: f("p50_ms")?,
            tail_ms: f("tail_ms")?,
            tail_percentile: f("tail_percentile")?,
            queue_p50_ms: f("queue_p50_ms")?,
            service_p50_ms: f("service_p50_ms")?,
            service_p99_ms: f("service_p99_ms")?,
            mean_batch: f("mean_batch")?,
            max_queue: f("max_queue")? as usize,
            gen_late_p99_ms: f("gen_late_p99_ms")?,
        })
    }
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("start_ms", Json::Num(self.start_ms)),
            ("burst_rps", Json::nums(&self.burst_rps)),
            ("runs", Json::Arr(self.runs.iter().map(OpenRun::to_json).collect())),
            ("reruns", Json::Num(self.reruns as f64)),
            ("attempted", Json::Num(self.gate.attempted as f64)),
            ("failed", Json::Num(self.gate.failed as f64)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Outcome> {
        let f = |key: &str| doc.get(key).and_then(Json::as_f64);
        Some(Outcome {
            start_ms: f("start_ms")?,
            burst_rps: doc
                .get("burst_rps")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<_>>()?,
            runs: doc
                .get("runs")?
                .as_arr()?
                .iter()
                .map(OpenRun::from_json)
                .collect::<Option<_>>()?,
            reruns: f("reruns")? as u64,
            gate: Gate { attempted: f("attempted")? as u64, failed: f("failed")? as u64 },
        })
    }
}
