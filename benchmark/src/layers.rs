//! The traced pass: the per-layer ledger, measured from outside.
//!
//! Every number here comes from the harness timing calls into public
//! functions of one layer, or from public accessors of the engine's
//! reports, over the workload's own inputs. No end-to-end value is taken
//! from this pass.

use crate::child::run_sampled;
use crate::gate::{self, Gate};
use crate::metrics::Values;
use crate::serve;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{params, write_inputs, Prepared, Workload};
use dnaseq::{mix64, FusedScratch, Read};
use genio::{fasta, PartitionedReader};
use mpisim::{Source, TagSel, Universe};
use reptile::{correct_read, enumerate_read_keys, LocalSpectra, PrefetchKeys, SpectrumAccess};
use reptile_dist::protocol::{decode_response, encode_response, LookupRequest};
use reptile_dist::{Engine, EngineConfig, RunReport, ThreadedEngine};
use specstore::{ConfigFingerprint, RecoveryPolicy, RsCode, ShardKind, SnapshotReader};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Reads the kernel probes run over: enough to leave the caches, few
/// enough to keep the traced pass inside the driver's time cap.
const SAMPLE_READS: usize = 20_000;

/// `reptile-correct <config> <flags>`, output discarded.
pub fn cli_command(cli: &Path, config: &Path, flags: &[String]) -> Command {
    let mut cmd = Command::new(cli);
    cmd.arg(config).args(flags).stdout(Stdio::null());
    cmd
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Counts every lookup `correct_read` makes and remembers which keys it
/// touched, so the prefetch superset can be compared with what is used.
struct Counting<'a> {
    inner: &'a mut LocalSpectra,
    lookups: u64,
    kmers: HashSet<u64>,
    tiles: HashSet<u128>,
}

impl SpectrumAccess for Counting<'_> {
    fn kmer_count(&mut self, code: u64) -> u32 {
        self.lookups += 1;
        self.kmers.insert(code);
        self.inner.kmer_count(code)
    }

    fn tile_count(&mut self, code: u128) -> u32 {
        self.lookups += 1;
        self.tiles.insert(code);
        self.inner.tile_count(code)
    }
}

pub struct Pass<'a> {
    pub w: &'a Workload,
    pub p: &'a mut Prepared,
    pub cli: &'a Path,
    pub seed: u64,
    pub smoke: bool,
    pub tracer: &'a Tracer,
    pub values: Values,
    pub gate: Gate,
}

impl Pass<'_> {
    fn sample(&self) -> &[Read] {
        &self.p.reads[..self.p.reads.len().min(SAMPLE_READS)]
    }

    /// Run every probe. The caller has opened the root span and run set-up
    /// inside it.
    pub fn run(&mut self) -> Result<(), String> {
        self.genio_ingest()?;
        let report = self.engine_run()?;
        self.dist_counts(&report);
        self.dnaseq_extract();
        self.reptile_build();
        self.reptile_probe();
        self.reptile_correct();
        self.mpisim_rtt();
        self.mpisim_alltoallv();
        self.dist_protocol();
        self.specstore_codec();
        self.specstore_snapshot(&report)?;
        self.cli_startup()?;
        self.serve_probe()
    }

    fn genio_ingest(&mut self) -> Result<(), String> {
        let bytes = self.p.input_bytes().map_err(|e| format!("stat inputs: {e}"))?;
        let (reads, t) = self.tracer.span("genio.ingest", || {
            secs(|| -> genio::Result<usize> {
                let (files, np) = (&self.p.files, self.w.np);
                let mut n = 0;
                for rank in 0..np {
                    n += PartitionedReader::open(&files.fasta, &files.qual, np, rank)?
                        .read_all()?
                        .len();
                }
                Ok(n)
            })
        });
        let reads = reads.map_err(|e| format!("partitioned read: {e}"))?;
        if reads != self.p.reads.len() {
            return Err(format!("ingest returned {reads} of {} reads", self.p.reads.len()));
        }
        self.values.set("genio.ingest_mb_s", bytes as f64 / 1e6 / t);
        Ok(())
    }

    /// The workload's command, in process: the engine's own report gives
    /// the phase split and the message counts, and the snapshot it saves
    /// feeds the specstore and serve probes.
    fn engine_run(&mut self) -> Result<RunReport, String> {
        let cfg = EngineConfig::builder(self.w.np, params())
            .chunk_size(2000)
            .heuristics((self.w.heuristics)())
            .save_spectrum(self.p.snapshot())
            .parity(1)
            .build()
            .map_err(|e| format!("engine config: {e}"))?;
        let out = self
            .tracer
            .span("dist.try_run_files", || {
                ThreadedEngine.try_run_files(&cfg, &self.p.files.fasta, &self.p.files.qual)
            })
            .map_err(|e| format!("try_run_files: {e}"))?;
        let report = out.report;
        self.tracer.synthesize_children(
            "dist.try_run_files",
            &[
                ("dist.construct", report.construct_secs()),
                ("dist.snapshot_save", report.snapshot_save_secs()),
                ("dist.correct", report.correct_secs()),
            ],
        );

        let path = self.p.dir.join("inprocess.fa");
        let (written, t) = self.tracer.span("genio.write", || {
            secs(|| -> std::io::Result<u64> {
                let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
                for read in &out.corrected {
                    fasta::write_record(&mut file, read.id, &read.seq)?;
                }
                file.flush()?;
                Ok(file.get_ref().metadata()?.len())
            })
        });
        let written = written.map_err(|e| format!("write {}: {e}", path.display()))?;
        self.values.set("genio.write_mb_s", written as f64 / 1e6 / t);
        let actual = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let expected = self.p.expected_fasta.as_ref().expect("the traced pass corrects the inputs");
        self.gate.add(gate::compare_fasta(expected, &actual));
        Ok(report)
    }

    fn dist_counts(&mut self, report: &RunReport) {
        let reads = self.p.reads.len() as f64;
        let remote = report.remote_lookups() as f64;
        // RunReport has no accessor for these three LookupStats counters
        let lookups = || report.ranks.iter().map(|r| &r.lookups);
        let messages: u64 = lookups().map(|l| l.remote_messages).sum();
        let batches: u64 = lookups().map(|l| l.batches_sent).sum();
        let batched_keys: u64 = lookups().map(|l| l.batched_keys).sum();
        let v = &mut self.values;
        v.set("dist.remote_lookups_per_read", remote / reads);
        v.set("dist.remote_messages_per_read", messages as f64 / reads);
        v.set(
            "dist.keys_per_batch",
            if batches == 0 { 0.0 } else { batched_keys as f64 / batches as f64 },
        );
        // both ranks finish behind the slower one; lookups split evenly
        // under the static load balance, so the mean stands for its count
        let per_rank = remote / self.w.np as f64;
        v.set(
            "dist.us_per_remote_lookup",
            if remote == 0.0 { 0.0 } else { report.correct_secs() * 1e6 / per_rank },
        );
        v.set("dist.construct_s", report.construct_secs());
        v.set("dist.correct_s", report.correct_secs());
        v.set("dist.table_mb_max_rank", report.peak_memory_bytes() / 1e6);
    }

    fn dnaseq_extract(&mut self) {
        let codec = params().tile_codec();
        let (keys, t) = self.tracer.span("dnaseq.extract", || {
            secs(|| {
                let mut scratch = FusedScratch::default();
                let mut keys = 0u64;
                let mut sink = 0u64;
                for read in self.sample() {
                    codec.fused_scan_into(&read.seq, &mut scratch, |item| {
                        keys += 1 + item.tile.is_some() as u64;
                        sink ^= item.kmer ^ item.tile.map_or(0, |(_, t)| t as u64);
                    });
                }
                black_box(sink);
                keys
            })
        });
        self.values.set("dnaseq.extract_ns_per_key", t * 1e9 / keys as f64);
    }

    fn reptile_build(&mut self) {
        let params = params();
        let codec = params.tile_codec();
        let keys: usize = self
            .sample()
            .iter()
            .map(|r| codec.fused_scan(&r.seq).map(|i| 1 + i.tile.is_some() as usize).sum::<usize>())
            .sum();
        let (spectra, t) = self
            .tracer
            .span("reptile.build", || secs(|| LocalSpectra::build(self.sample(), &params)));
        black_box(spectra);
        self.values.set("reptile.build_ns_per_key", t * 1e9 / keys as f64);
    }

    /// Lookups of present and of absent keys in the oracle's k-mer table,
    /// in an order that does not follow the slot order.
    fn reptile_probe(&mut self) {
        const PROBES: usize = 1 << 20;
        let table = self.p.spectra.kmers.table();
        let present: Vec<u64> = table.iter().map(|(k, _)| k).collect();
        let mask = params().kmer_codec().mask();
        let hits: Vec<u64> = (0..PROBES as u64)
            .map(|i| present[(mix64(i) % present.len() as u64) as usize])
            .collect();
        let misses: Vec<u64> = (0u64..)
            .map(|i| mix64(i ^ self.seed) & mask)
            .filter(|k| table.get(*k).is_none())
            .take(PROBES)
            .collect();
        for (name, keys) in [("reptile.probe_hit_ns", &hits), ("reptile.probe_miss_ns", &misses)] {
            let (found, t) = self
                .tracer
                .span(name, || secs(|| keys.iter().filter(|k| table.get(**k).is_some()).count()));
            black_box(found);
            self.values.set(name, t * 1e9 / keys.len() as f64);
        }
    }

    /// Step IV and the prefetch enumeration over the same reads: time per
    /// read untouched, then the counts through the counting wrapper.
    fn reptile_correct(&mut self) {
        let params = params();
        let Prepared { reads, spectra, .. } = &mut *self.p;
        let reads = &reads[..reads.len().min(SAMPLE_READS)];
        let n = reads.len();

        let (fixed, t) = self.tracer.span("reptile.correct", || {
            secs(|| {
                reads
                    .iter()
                    .filter(|r| correct_read(&mut (*r).clone(), spectra, &params).corrected())
                    .count()
            })
        });
        black_box(fixed);
        self.values.set("reptile.correct_us_per_read", t * 1e6 / n as f64);

        let (total_keys, t) = self.tracer.span("reptile.prefetch", || {
            secs(|| {
                let mut keys = PrefetchKeys::default();
                let mut total = 0usize;
                for read in reads {
                    keys.kmers.clear();
                    keys.tiles.clear();
                    enumerate_read_keys(read, &params, &mut keys);
                    keys.finish();
                    total += keys.len();
                }
                total
            })
        });
        self.values.set("reptile.prefetch_us_per_read", t * 1e6 / n as f64);
        self.values.set("reptile.prefetch_keys_per_read", total_keys as f64 / n as f64);

        let (lookups, useful) = self.tracer.span("reptile.count_lookups", || {
            let mut access = Counting {
                inner: spectra,
                lookups: 0,
                kmers: HashSet::new(),
                tiles: HashSet::new(),
            };
            let mut keys = PrefetchKeys::default();
            let mut useful = 0usize;
            for read in reads {
                keys.kmers.clear();
                keys.tiles.clear();
                enumerate_read_keys(read, &params, &mut keys);
                keys.finish();
                access.kmers.clear();
                access.tiles.clear();
                correct_read(&mut read.clone(), &mut access, &params);
                // keys probed after a fix rewrote bases are not in the
                // enumeration; they are not the superset's to claim
                useful += keys.kmers.iter().filter(|k| access.kmers.contains(k)).count()
                    + keys.tiles.iter().filter(|k| access.tiles.contains(k)).count();
            }
            (access.lookups, useful)
        });
        self.values.set("reptile.lookups_per_read", lookups as f64 / n as f64);
        self.values.set("reptile.prefetch_useful_frac", useful as f64 / total_keys as f64);
    }

    /// 16-byte tagged ping-pong between two ranks; returns µs per round
    /// trip with `backlog` unmatched messages of another tag queued ahead.
    fn ping_pong(rounds: usize, backlog: usize) -> f64 {
        const PING: u32 = 1;
        const OTHER: u32 = 2;
        let times = Universe::new(2).run(|comm| {
            let peer = 1 - comm.rank();
            for _ in 0..backlog {
                comm.send(peer, OTHER, vec![0u8; 16]);
            }
            comm.barrier();
            let t0 = Instant::now();
            for _ in 0..rounds {
                if comm.rank() == 0 {
                    comm.send(peer, PING, vec![0u8; 16]);
                    black_box(comm.recv(Source::Rank(peer), TagSel::Tag(PING)));
                } else {
                    let msg = comm.recv(Source::Rank(peer), TagSel::Tag(PING));
                    comm.send(peer, PING, msg.payload);
                }
            }
            let t = t0.elapsed().as_secs_f64();
            for _ in 0..backlog {
                comm.recv(Source::Rank(peer), TagSel::Tag(OTHER));
            }
            t
        });
        times[0] * 1e6 / rounds as f64
    }

    /// Fresh universes, because the round trip is bimodal with where the
    /// two threads land: the median says what a run gets, the minimum what
    /// the mailbox costs.
    fn mpisim_rtt(&mut self) {
        let (universes, rounds) = if self.smoke { (3, 2_000) } else { (5, 20_000) };
        let rtts: Vec<f64> = self
            .tracer
            .span("mpisim.rtt", || (0..universes).map(|_| Self::ping_pong(rounds, 0)).collect());
        self.values.set("mpisim.rtt_us", median(&rtts));
        self.values.set("mpisim.rtt_us_min", rtts.iter().copied().fold(f64::INFINITY, f64::min));
        let backlog = self.tracer.span("mpisim.rtt_backlog64", || Self::ping_pong(rounds, 64));
        self.values.set("mpisim.rtt_backlog64_us", backlog);
    }

    fn mpisim_alltoallv(&mut self) {
        const BYTES: usize = 8 << 20;
        const ROUNDS: usize = 50;
        let times = self.tracer.span("mpisim.alltoallv", || {
            Universe::new(2).run(|comm| {
                let peer = 1 - comm.rank();
                let mut send: Vec<Vec<u8>> = vec![Vec::new(), Vec::new()];
                send[peer] = vec![comm.rank() as u8; BYTES];
                comm.barrier();
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    send = comm.alltoallv(send);
                }
                black_box(&send);
                t0.elapsed().as_secs_f64()
            })
        });
        let slowest = times.iter().copied().fold(0.0, f64::max);
        self.values.set("mpisim.alltoallv_mb_s", (BYTES * ROUNDS) as f64 / 1e6 / slowest);
    }

    /// One key through the wire codec both ways.
    fn dist_protocol(&mut self) {
        const ROUNDS: u64 = 1 << 20;
        let (sink, t) = self.tracer.span("dist.protocol", || {
            secs(|| {
                let mut sink = 0u64;
                for seq in 0..ROUNDS {
                    let (tag, wire) = LookupRequest::Kmer(black_box(seq * 31)).encode_tagged(seq);
                    let (seq, request) = LookupRequest::decode(tag, &wire);
                    let LookupRequest::Kmer(code) = request else {
                        unreachable!("encoded a k-mer")
                    };
                    let (seq, count) = decode_response(&encode_response(seq, Some(code as u32)));
                    sink ^= seq ^ count.unwrap_or(0) as u64;
                }
                sink
            })
        });
        black_box(sink);
        self.values.set("dist.protocol_ns_per_req", t * 1e9 / ROUNDS as f64);
    }

    /// The scalar GF(2^8) codec at the snapshot's geometry (a data shard
    /// per rank, one parity), in MB of original data per second.
    fn specstore_codec(&mut self) {
        const SHARD: usize = 4 << 20;
        let np = self.w.np;
        let code =
            RsCode::new(np, 1).expect("a few data shards and one parity are a valid geometry");
        let data: Vec<Vec<u8>> = (0..np as u64)
            .map(|j| (0..SHARD as u64).map(|i| mix64(i ^ (j << 40)) as u8).collect())
            .collect();
        let original_mb = (np * SHARD) as f64 / 1e6;
        let (parity, t) = self.tracer.span("specstore.rs_encode", || secs(|| code.encode(&data)));
        self.values.set("specstore.rs_encode_mb_s", original_mb / t);
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
        shards[0] = None;
        let (rebuilt, t) = self
            .tracer
            .span("specstore.rs_reconstruct", || secs(|| code.reconstruct(&mut shards, SHARD)));
        rebuilt.expect("one loss is within one parity shard");
        assert_eq!(shards[0].as_ref(), Some(&data[0]), "reconstruction restores the shard");
        self.values.set("specstore.rs_reconstruct_mb_s", original_mb / t);
    }

    /// Load the snapshot the in-process run saved, clean and then with
    /// one shard gone under `Repair`.
    fn specstore_snapshot(&mut self, report: &RunReport) -> Result<(), String> {
        self.values.set(
            "specstore.save_mb_s",
            report.snapshot_bytes_written() as f64 / 1e6 / report.snapshot_save_secs(),
        );
        let dir = self.p.snapshot();
        let expect = ConfigFingerprint::for_params(&params());
        let load = |policy: RecoveryPolicy| -> Result<u64, specstore::SnapshotError> {
            let mut reader = SnapshotReader::open(&dir, &expect, policy)?;
            let mut bytes = 0;
            for rank in 0..reader.np() {
                bytes += reader.load_kmer(rank)?.bytes_read + reader.load_tile(rank)?.bytes_read;
            }
            Ok(bytes)
        };
        let (bytes, t) =
            self.tracer.span("specstore.load", || secs(|| load(RecoveryPolicy::Strict)));
        let bytes = bytes.map_err(|e| format!("snapshot load: {e}"))?;
        self.values.set("specstore.load_mb_s", bytes as f64 / 1e6 / t);

        let lost = SnapshotReader::open(&dir, &expect, RecoveryPolicy::Strict)
            .ok()
            .and_then(|r| r.manifest().shard(0, ShardKind::Kmer).map(|s| dir.join(&s.file_name)))
            .ok_or("snapshot manifest lists no k-mer shard for rank 0")?;
        let aside = lost.with_extension("aside");
        std::fs::rename(&lost, &aside).map_err(|e| format!("move shard aside: {e}"))?;
        let (repaired, t) = self.tracer.span("specstore.repair_load", || {
            secs(|| load(RecoveryPolicy::Repair { max_lost: 1, rewrite: false }))
        });
        std::fs::rename(&aside, &lost).map_err(|e| format!("move shard back: {e}"))?;
        repaired.map_err(|e| format!("repairing load: {e}"))?;
        self.values.set("specstore.repair_load_ms", t * 1e3);
        Ok(())
    }

    /// The fixed cost inside every batch trial: the CLI on 100 reads, with
    /// both spectra replicated so that no round trip is waited for.
    fn cli_startup(&mut self) -> Result<(), String> {
        let flags = ["--np", &self.w.np.to_string(), "--replicate", "both"].map(String::from);
        let dir = self.p.dir.join("startup");
        let inputs = write_inputs(&dir, &self.p.reads[..self.p.reads.len().min(100)])?;
        let config_path = inputs.config;
        let walls = self.tracer.span("cli.startup", || -> Result<Vec<f64>, String> {
            (0..3)
                .map(|_| {
                    Ok(run_sampled(&mut cli_command(self.cli, &config_path, &flags))?.wall_s * 1e3)
                })
                .collect()
        })?;
        self.values.set("cli.startup_ms", median(&walls));
        Ok(())
    }

    /// The serve plane over this workload's request pools, from the
    /// snapshot the in-process run saved.
    fn serve_probe(&mut self) -> Result<(), String> {
        let (engine, start_ms) =
            self.tracer.span("serve.start", || serve::start(&self.p.snapshot()))?;
        let plan = serve::Plan::probe(self.w.serve_rate, self.smoke);
        let out = serve::measure(&engine, start_ms, &self.p.pools, plan, self.seed, self.tracer);
        self.tracer
            .span("serve.shutdown", || engine.shutdown())
            .map_err(|e| format!("serve shutdown: {e}"))?;
        self.gate.add(out.gate);
        let v = &mut self.values;
        v.set("serve.start_ms", out.start_ms);
        v.set("serve.lat_p50_ms", out.over_runs(|r| r.p50_ms));
        v.set("serve.lat_p99_ms", out.over_runs(|r| r.tail_ms));
        v.set("serve.queue_p50_ms", out.over_runs(|r| r.queue_p50_ms));
        v.set("serve.service_p50_ms", out.over_runs(|r| r.service_p50_ms));
        v.set("serve.service_p99_ms", out.over_runs(|r| r.service_p99_ms));
        v.set("serve.mean_batch", out.over_runs(|r| r.mean_batch));
        v.set("serve.max_queue", out.over_runs(|r| r.max_queue as f64));
        v.set("serve.gen_late_p99_ms", out.over_runs(|r| r.gen_late_p99_ms));
        Ok(())
    }
}
