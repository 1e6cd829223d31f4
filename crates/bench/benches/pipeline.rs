//! Pipeline-level benchmarks: spectrum construction (sequential vs
//! distributed, and the batched multi-rank build with and without the
//! double-buffered exchange overlap), the load-balancing shuffle, full
//! correction, and the message-passing runtime's collectives.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mpisim::Universe;
use reptile::correct_dataset;
use reptile::spectrum::LocalSpectra;
use reptile_bench::build_bench::build_workload;
use reptile_bench::workloads::{smoke, smoke_params};
use reptile_dist::balance::shuffle_reads;
use reptile_dist::spectrum::{build_distributed, build_distributed_serial};
use reptile_dist::{Engine, EngineConfig, HeuristicConfig, ThreadedEngine};

fn bench_spectrum_build(c: &mut Criterion) {
    let ds = smoke();
    let p = smoke_params();
    let mut g = c.benchmark_group("spectrum_build");
    g.sample_size(20);
    g.throughput(Throughput::Elements(ds.reads.len() as u64));
    g.bench_function("sequential", |b| b.iter(|| black_box(LocalSpectra::build(&ds.reads, &p))));
    g.bench_function("distributed_np4", |b| {
        b.iter(|| {
            let reads = &ds.reads;
            Universe::new(4).run(|comm| {
                let mine: Vec<_> = reads
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 == comm.rank())
                    .map(|(_, r)| r.clone())
                    .collect();
                build_distributed(comm, &mine, 2000, &p, &HeuristicConfig::base(), 2).1
            })
        })
    });
    g.finish();
}

fn bench_batched_overlap(c: &mut Criterion) {
    let reads = build_workload(6_000, 60, 3);
    let p = smoke_params();
    let heur = HeuristicConfig { batch_reads: true, ..Default::default() };
    let np = 4;
    let mut g = c.benchmark_group("spectrum_build_np4_batched");
    g.sample_size(10);
    g.throughput(Throughput::Elements(reads.len() as u64));
    g.bench_function("serial_blocking", |b| {
        b.iter(|| {
            let r = &reads;
            Universe::new(np).run(|comm| {
                let n = r.len();
                let (lo, hi) = (comm.rank() * n / np, (comm.rank() + 1) * n / np);
                black_box(build_distributed_serial(comm, &r[lo..hi], 500, &p, &heur).1)
            })
        })
    });
    g.bench_function("pipelined_overlapped_2t", |b| {
        b.iter(|| {
            let r = &reads;
            Universe::new(np).run(|comm| {
                let n = r.len();
                let (lo, hi) = (comm.rank() * n / np, (comm.rank() + 1) * n / np);
                black_box(build_distributed(comm, &r[lo..hi], 500, &p, &heur, 2).1)
            })
        })
    });
    g.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    let ds = smoke();
    let mut g = c.benchmark_group("load_balance_shuffle");
    g.sample_size(20);
    g.bench_function("np4", |b| {
        b.iter(|| {
            let reads = &ds.reads;
            Universe::new(4).run(|comm| {
                let per = reads.len() / 4;
                let lo = comm.rank() * per;
                let hi = if comm.rank() == 3 { reads.len() } else { lo + per };
                shuffle_reads(comm, reads[lo..hi].to_vec()).len()
            })
        })
    });
    g.finish();
}

fn bench_correction(c: &mut Criterion) {
    let ds = smoke();
    let p = smoke_params();
    let mut g = c.benchmark_group("correction");
    g.sample_size(10);
    g.throughput(Throughput::Elements(ds.reads.len() as u64));
    g.bench_function("sequential", |b| b.iter(|| black_box(correct_dataset(&ds.reads, &p))));
    g.bench_function("distributed_np4", |b| {
        let cfg = EngineConfig::new(4, p);
        b.iter(|| black_box(ThreadedEngine.run(&cfg, &ds.reads)))
    });
    g.bench_function("distributed_np4_replicated", |b| {
        let mut cfg = EngineConfig::new(4, p);
        cfg.heuristics = HeuristicConfig::replicate_both();
        b.iter(|| black_box(ThreadedEngine.run(&cfg, &ds.reads)))
    });
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpisim_collectives");
    g.sample_size(20);
    g.bench_function("alltoallv_np8_1k_each", |b| {
        b.iter(|| {
            Universe::new(8).run(|comm| {
                let send: Vec<Vec<u64>> = (0..8).map(|d| vec![d as u64; 1024]).collect();
                comm.alltoallv(send).len()
            })
        })
    });
    g.bench_function("p2p_pingpong_1k", |b| {
        b.iter(|| {
            Universe::new(2).run(|comm| {
                use mpisim::{Source, TagSel};
                if comm.rank() == 0 {
                    for i in 0..1024u32 {
                        comm.send(1, 1, i.to_le_bytes().to_vec());
                        comm.recv(Source::Rank(1), TagSel::Tag(2));
                    }
                } else {
                    for _ in 0..1024 {
                        let m = comm.recv(Source::Rank(0), TagSel::Tag(1));
                        comm.send(0, 2, m.payload);
                    }
                }
            })
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_spectrum_build,
    bench_batched_overlap,
    bench_shuffle,
    bench_correction,
    bench_collectives
);
criterion_main!(benches);
