//! Micro-benchmarks of the hot primitives: k-mer extraction, owner
//! hashing, Hamming-neighbour enumeration, spectrum lookups, wire codecs.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dnaseq::neighbors::hamming_neighbors;
use dnaseq::{owner_of, KmerCodec, TileCodec};
use reptile::spectrum::LocalSpectra;
use reptile::SpectrumAccess;
use reptile_bench::workloads::{smoke, smoke_params};

fn bench_kmer_extraction(c: &mut Criterion) {
    let ds = smoke();
    let codec = KmerCodec::new(12);
    let total_bases: u64 = ds.reads.iter().map(|r| r.len() as u64).sum();
    let mut g = c.benchmark_group("kmer_extraction");
    g.throughput(Throughput::Bytes(total_bases));
    g.bench_function("rolling_k12", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for read in &ds.reads {
                for (_, code) in codec.kmers_of(&read.seq) {
                    acc ^= code;
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_tile_extraction(c: &mut Criterion) {
    let ds = smoke();
    let codec = TileCodec::new(12, 6);
    let mut g = c.benchmark_group("tile_extraction");
    g.bench_function("tiles_k12_o6", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for read in &ds.reads {
                for (_, code) in codec.tiles_of(&read.seq) {
                    acc ^= code;
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_owner_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("owner_hash");
    g.throughput(Throughput::Elements(1 << 16));
    g.bench_function("mix64_mod_1024", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for code in 0..(1u64 << 16) {
                acc += owner_of(black_box(code), 1024);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_neighbors(c: &mut Criterion) {
    let tcodec = TileCodec::new(12, 6); // tile length 18
    let tile = tcodec.encode(b"ACGTACGTACGTACGTAC").unwrap();
    let mut g = c.benchmark_group("neighbors");
    for (label, positions, maxe) in [
        ("p4_d1", vec![2usize, 7, 11, 15], 1usize),
        ("p4_d2", vec![2, 7, 11, 15], 2),
        ("p8_d2", vec![0, 2, 4, 7, 9, 11, 15, 17], 2),
    ] {
        let mut out = Vec::new();
        g.bench_function(label, |b| {
            b.iter(|| {
                out.clear();
                hamming_neighbors(black_box(tile), 18, &positions, maxe, &mut out);
                black_box(out.len())
            })
        });
    }
    g.finish();
}

fn bench_spectrum_lookup(c: &mut Criterion) {
    let ds = smoke();
    let p = smoke_params();
    let mut spectra = LocalSpectra::build(&ds.reads, &p);
    let kcodec = p.kmer_codec();
    let codes: Vec<u64> = ds.reads[..200]
        .iter()
        .flat_map(|r| kcodec.kmers_of(&r.seq).map(|(_, c)| c).collect::<Vec<_>>())
        .collect();
    let mut g = c.benchmark_group("spectrum_lookup");
    g.throughput(Throughput::Elements(codes.len() as u64));
    g.bench_function("kmer_counts", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &code in &codes {
                acc += spectra.kmer_count(black_box(code)) as u64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    use mpisim::message::{WireReader, WireWriter};
    let mut g = c.benchmark_group("wire_codec");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("request_roundtrip", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                let mut w = WireWriter::with_capacity(9);
                w.put_u8(0).put_u64(i);
                let buf = w.finish();
                let mut r = WireReader::new(&buf);
                let _ = r.get_u8();
                acc ^= r.get_u64();
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kmer_extraction,
    bench_tile_extraction,
    bench_owner_hash,
    bench_neighbors,
    bench_spectrum_lookup,
    bench_wire_codec
);
criterion_main!(benches);
