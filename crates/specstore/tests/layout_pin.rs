//! Byte-layout pin: fixed inputs written through the public writers must
//! produce files whose FNV-1a digests equal constants recorded when the
//! formats were frozen. Every file kind is covered — k-mer and tile
//! shards, their parity shards, the manifest, and a spill run of each key
//! width — so a change to any header field, body order, digest rule or
//! parity stripe fails here, not in a later load of an old snapshot.

use reptile::{FlatKmerTable, FlatTileTable, ReptileParams};
use specstore::{
    fnv1a, write_run, ConfigFingerprint, Manifest, SnapshotWriter, IO_CHUNK, MANIFEST_NAME,
};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specstore-pin-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn digest(path: &std::path::Path) -> u64 {
    fnv1a(&std::fs::read(path).unwrap())
}

#[test]
fn snapshot_files_keep_their_bytes() {
    let dir = tmpdir("snapshot");
    let fp = ConfigFingerprint::for_params(&ReptileParams::for_tests());
    let mut w = SnapshotWriter::create(&dir, &fp, 2, 1).unwrap();
    for rank in 0..2u64 {
        let mut kmers = FlatKmerTable::new();
        for key in 0..50u64 {
            kmers.add_count(key * 7919 + rank * 131, (key % 9 + 1) as u32);
        }
        kmers.add_count(u64::MAX, 3);
        let mut tiles = FlatTileTable::new();
        for key in 0..30u128 {
            tiles.add_count((key << 70) | (key * 31 + rank as u128), (key % 5 + 1) as u32);
        }
        w.write_shard(rank as usize, &kmers).unwrap();
        w.write_shard(rank as usize, &tiles).unwrap();
    }
    w.finish().unwrap();
    let manifest = Manifest::read(&dir).unwrap();
    let mut got: Vec<(String, u64)> = manifest
        .shards
        .iter()
        .map(|r| r.file_name.clone())
        .chain(manifest.parity_shards.iter().map(|p| p.file_name.clone()))
        .chain([MANIFEST_NAME.to_string()])
        .map(|name| {
            let sum = digest(&dir.join(&name));
            (name, sum)
        })
        .collect();
    got.sort();
    let want: Vec<(String, u64)> = [
        ("MANIFEST.txt", 0x4812_e29a_fc71_da49),
        ("kmer.p00.parity", 0x6acd_9371_47b4_c1dc),
        ("rank00000.kmer.shard", 0x4b3f_9231_a879_ee15),
        ("rank00000.tile.shard", 0x2edb_15c8_9e54_5230),
        ("rank00001.kmer.shard", 0x5d1e_88fb_c59a_bc94),
        ("rank00001.tile.shard", 0x3eba_f454_3c6e_2b9d),
        ("tile.p00.parity", 0x4b19_60e5_854e_e928),
    ]
    .iter()
    .map(|&(n, s)| (n.to_string(), s))
    .collect();
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_files_keep_their_bytes() {
    let dir = tmpdir("runs");
    let narrow: Vec<(u64, u32)> = (0..700u64).map(|i| (i * 97 + 5, (i % 11 + 1) as u32)).collect();
    let wide: Vec<(u128, u32)> =
        (0..400u128).map(|i| ((i << 66) | (i * 13 + 1), (i % 6 + 1) as u32)).collect();
    let narrow_meta = write_run(&dir.join("narrow.run"), &narrow, IO_CHUNK).unwrap();
    let wide_meta = write_run(&dir.join("wide.run"), &wide, IO_CHUNK).unwrap();
    let got = [
        (narrow_meta.entries, narrow_meta.file_bytes, narrow_meta.checksum),
        (wide_meta.entries, wide_meta.file_bytes, wide_meta.checksum),
    ];
    assert_eq!(
        got,
        [(700, 32 + 700 * 12, 0xf67f_ab13_84ec_4f03), (400, 32 + 400 * 20, 0xa67a_b6f9_7311_08ab)]
    );
    let files = [digest(&dir.join("narrow.run")), digest(&dir.join("wide.run"))];
    assert_eq!(files, [0x8dc5_7924_81d9_4a57, 0x601d_4e29_9ae1_1aea]);
    std::fs::remove_dir_all(&dir).ok();
}
