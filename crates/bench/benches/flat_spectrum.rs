//! Race the flat open-addressing spectrum store against the `FxHashMap`
//! it replaced, across the three access patterns the pipeline
//! actually exercises: insert-heavy construction (Step II), hit/miss
//! point lookups (Step IV correction), and full-table sweeps (comm-thread
//! batch serving). Byte-accurate footprints are measured separately by
//! `reptile_bench::spectrum_bench` (`figures -- bench-json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dnaseq::{mix64, FxHashMap};
use reptile::FlatKmerTable;

const N: usize = 100_000;

/// Distinct well-mixed keys, the spectrum-construction stream.
fn keys(n: usize) -> Vec<u64> {
    (0..n as u64).map(mix64).collect()
}

/// Absent keys, disjoint from `keys` (`mix64` is a bijection).
fn absent(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| mix64(i + (1 << 40))).collect()
}

fn bench_build(c: &mut Criterion) {
    let ks = keys(N);
    let mut g = c.benchmark_group("flat_spectrum_build");
    g.sample_size(20);
    g.throughput(Throughput::Elements(ks.len() as u64));
    g.bench_function("flat_table", |b| {
        b.iter(|| {
            let mut t = FlatKmerTable::new();
            for &k in &ks {
                t.add_count(black_box(k), 1);
            }
            black_box(t.len())
        })
    });
    g.bench_function("fxhashmap", |b| {
        b.iter(|| {
            let mut m: FxHashMap<u64, u32> = FxHashMap::default();
            for &k in &ks {
                *m.entry(black_box(k)).or_insert(0) += 1;
            }
            black_box(m.len())
        })
    });
    g.finish();
}

fn bench_lookups(c: &mut Criterion) {
    let ks = keys(N);
    let mut flat = FlatKmerTable::new();
    let mut fx: FxHashMap<u64, u32> = FxHashMap::default();
    for &k in &ks {
        flat.add_count(k, 1);
        *fx.entry(k).or_insert(0) += 1;
    }

    for (pattern, probes) in [("hit", ks.clone()), ("miss", absent(N))] {
        let name = format!("flat_spectrum_lookup_{pattern}");
        let mut g = c.benchmark_group(&name);
        g.throughput(Throughput::Elements(probes.len() as u64));
        g.bench_function("flat_table", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &k in &probes {
                    acc += flat.get(black_box(k)).unwrap_or(0) as u64;
                }
                black_box(acc)
            })
        });
        g.bench_function("fxhashmap", |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for &k in &probes {
                    acc += fx.get(&black_box(k)).copied().unwrap_or(0) as u64;
                }
                black_box(acc)
            })
        });
        g.finish();
    }
}

fn bench_sweep(c: &mut Criterion) {
    let ks = keys(N);
    let mut flat = FlatKmerTable::new();
    let mut fx: FxHashMap<u64, u32> = FxHashMap::default();
    for &k in &ks {
        flat.add_count(k, 1);
        *fx.entry(k).or_insert(0) += 1;
    }
    let mut g = c.benchmark_group("flat_spectrum_sweep");
    g.throughput(Throughput::Elements(flat.len() as u64));
    g.bench_function("flat_table", |b| {
        b.iter(|| black_box(flat.iter().map(|(_, c)| c as u64).sum::<u64>()))
    });
    g.bench_function("fxhashmap", |b| {
        b.iter(|| black_box(fx.values().map(|&c| c as u64).sum::<u64>()))
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_lookups, bench_sweep);
criterion_main!(benches);
