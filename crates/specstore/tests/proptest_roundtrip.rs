//! Property tests for the shard format, through the store API.
//!
//! 1. `save → load → probe` is bit-identical for both key kinds across
//!    entry counts, load factors, and the all-ones sentinel edge case
//!    (the reserved empty marker that is still a legal k-mer/tile code).
//! 2. Every single-byte flip anywhere in a shard file — header or body —
//!    is rejected with a typed error under `Strict`, never silently
//!    loaded. FNV-1a guarantees this analytically (each absorption is a
//!    bijection of the state), and the exhaustive flip loop proves the
//!    wiring.
//! 3. With a parity shard and `Repair`, every one of those same flips
//!    is *repaired*: the load returns bit-identical tables instead of
//!    an error.
//! 4. A header field rewritten *and re-sealed* (the shard's checksum
//!    recomputed, so the FNV check passes) reaches the field validation
//!    behind the checksum: loading returns a typed error or a table that
//!    probes identically, and never panics.

use proptest::prelude::*;
use reptile::{FlatKmerTable, FlatTable, FlatTileTable, ReptileParams, SpectrumKey};
use specstore::{
    fnv1a, ConfigFingerprint, Manifest, RecoveryPolicy, ShardHeader, ShardKind, SnapshotReader,
    SnapshotWriter, HEADER_BYTES,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "specstore-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fingerprint() -> ConfigFingerprint {
    ConfigFingerprint::for_params(&ReptileParams::for_tests())
}

/// Write a single-rank snapshot holding both tables; returns its dir.
fn snapshot_of(kmer: &FlatKmerTable, tile: &FlatTileTable, parity: usize) -> PathBuf {
    let dir = tmpdir();
    let mut w = SnapshotWriter::create(&dir, &fingerprint(), 1, parity).unwrap();
    w.write_shard(0, kmer).unwrap();
    w.write_shard(0, tile).unwrap();
    w.finish().unwrap();
    dir
}

/// Single-rank snapshot whose `K` table is `table` (the other kind empty).
fn snapshot_with<K: SpectrumKey>(table: &FlatTable<K>) -> PathBuf {
    let dir = tmpdir();
    let mut w = SnapshotWriter::create(&dir, &fingerprint(), 1, 0).unwrap();
    w.write_shard(0, table).unwrap();
    if K::LANES == 1 {
        w.write_shard(0, &FlatTileTable::new()).unwrap();
    } else {
        w.write_shard(0, &FlatKmerTable::new()).unwrap();
    }
    w.finish().unwrap();
    dir
}

fn shard_path(dir: &Path, kind: ShardKind) -> PathBuf {
    let manifest = Manifest::read(dir).unwrap();
    dir.join(&manifest.shard(0, kind).unwrap().file_name)
}

/// Entry sets: arbitrary keys and counts, sized to cross several growth
/// boundaries; `sentinel` adds the all-ones key through its side-field
/// path.
fn entries_strategy() -> impl Strategy<Value = (Vec<(u64, u32)>, bool)> {
    (
        prop::collection::vec((any::<u64>(), 1u32..1000), 0..400),
        prop::sample::select(vec![false, true]),
    )
}

/// Load factors straddling the default: 1/2, 3/4, 5/8.
fn load_strategy() -> impl Strategy<Value = (usize, usize)> {
    prop::sample::select(vec![(1usize, 2usize), (3, 4), (5, 8)])
}

/// The generated table of kind `K`: each drawn `u64` spread across every
/// lane of the key.
fn table_of<K: SpectrumKey>(
    entries: &[(u64, u32)],
    sentinel: bool,
    (num, den): (usize, usize),
) -> FlatTable<K> {
    let mut table = FlatTable::with_max_load(num, den);
    for &(k, c) in entries {
        table.add_count(K::from_u128((k as u128) << 64 | k.rotate_left(17) as u128), c);
    }
    if sentinel {
        table.add_count(K::SENTINEL, 7);
    }
    table
}

fn sorted<K: SpectrumKey>(it: impl Iterator<Item = (K, u32)>) -> Vec<(K, u32)> {
    let mut v: Vec<_> = it.collect();
    v.sort_unstable();
    v
}

/// `loaded` answers every probe exactly as `table` does.
fn probes_identically<K: SpectrumKey>(
    loaded: &FlatTable<K>,
    table: &FlatTable<K>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(loaded.len(), table.len());
    for (k, _) in table.iter() {
        prop_assert_eq!(loaded.get(k), table.get(k));
    }
    prop_assert_eq!(loaded.get(K::SENTINEL), table.get(K::SENTINEL));
    // entry sets identical, not just probed keys
    prop_assert_eq!(sorted(loaded.iter()), sorted(table.iter()));
    Ok(())
}

fn shard_roundtrip_bit_identical<K: SpectrumKey>(table: FlatTable<K>) -> Result<(), TestCaseError> {
    let dir = snapshot_with(&table);
    let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
    let loaded = r.load_shard::<K>(0).unwrap().table;
    prop_assert!(loaded.is_mapped() || loaded.capacity() == 0);
    prop_assert_eq!(loaded.capacity(), table.capacity());
    prop_assert_eq!(loaded.memory_bytes(), table.memory_bytes());
    probes_identically(&loaded, &table)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// A shard header field, as a mutation target.
#[derive(Clone, Copy, Debug)]
enum Field {
    Capacity,
    Entries,
    LoadNum,
    LoadDen,
    SentinelPresence,
    SentinelCount,
    Kind,
    Np,
    Rank,
    BodyBytes,
    /// Capacity doubled with `body_bytes` kept consistent with it.
    Geometry,
    Version,
}

/// Change `field` (xor with a nonzero `d`, or a flip where the field is a
/// choice).
fn mutate(h: &mut ShardHeader, field: Field, d: u64) {
    let (d32, d64) = ((d as u32).max(1), d.max(1));
    match field {
        Field::Capacity => h.capacity ^= d64,
        Field::Entries => h.entries ^= d64,
        Field::LoadNum => h.load_num ^= d32,
        Field::LoadDen => h.load_den ^= d32,
        Field::SentinelPresence => {
            h.sentinel_count = if h.sentinel_count.is_some() { None } else { Some(d as u32) }
        }
        Field::SentinelCount => h.sentinel_count = Some(h.sentinel_count.unwrap_or(0) ^ d32),
        Field::Kind => {
            h.kind = if h.kind == ShardKind::Kmer { ShardKind::Tile } else { ShardKind::Kmer }
        }
        Field::Np => h.np ^= d32,
        Field::Rank => h.rank ^= d32,
        Field::BodyBytes => h.body_bytes ^= d64,
        Field::Geometry => {
            h.capacity = h.capacity.max(8) * 2;
            h.body_bytes = h.capacity * h.kind.slot_bytes();
        }
        Field::Version => h.version ^= d32,
    }
}

/// Rewrite one header field of the `K` shard, re-seal the shard's own
/// checksum, and load under `Strict`.
fn resealed_header_mutation<K: SpectrumKey>(
    table: FlatTable<K>,
    field: Field,
    d: u64,
) -> Result<(), TestCaseError> {
    let dir = snapshot_with(&table);
    let path = shard_path(&dir, ShardKind::of::<K>());
    let mut bytes = std::fs::read(&path).unwrap();
    let head: &[u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().unwrap();
    let mut header = ShardHeader::decode(head, &path).unwrap();
    mutate(&mut header, field, d);
    header.checksum = 0;
    bytes[..HEADER_BYTES].copy_from_slice(&header.encode());
    header.checksum = fnv1a(&bytes);
    bytes[..HEADER_BYTES].copy_from_slice(&header.encode());
    std::fs::write(&path, &bytes).unwrap();
    let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
    // a typed error is fine; a table is fine only if it is the same table
    if let Ok(loaded) = r.load_shard::<K>(0) {
        probes_identically(&loaded.table, &table)?;
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn field_strategy() -> impl Strategy<Value = Field> {
    prop::sample::select(vec![
        Field::Capacity,
        Field::Entries,
        Field::LoadNum,
        Field::LoadDen,
        Field::SentinelPresence,
        Field::SentinelCount,
        Field::Kind,
        Field::Np,
        Field::Rank,
        Field::BodyBytes,
        Field::Geometry,
        Field::Version,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kmer_shard_roundtrip_bit_identical(spec in entries_strategy(), load in load_strategy()) {
        shard_roundtrip_bit_identical::<u64>(table_of(&spec.0, spec.1, load))?;
    }

    #[test]
    fn tile_shard_roundtrip_bit_identical(spec in entries_strategy(), load in load_strategy()) {
        shard_roundtrip_bit_identical::<u128>(table_of(&spec.0, spec.1, load))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One generator over both kinds: the kind is drawn with the table.
    #[test]
    fn resealed_header_field_is_typed_error_or_identical(
        tile in any::<bool>(),
        spec in entries_strategy(),
        load in load_strategy(),
        field in field_strategy(),
        d in prop_oneof![0u64..4, Just(u64::MAX), any::<u64>()],
    ) {
        if tile {
            resealed_header_mutation::<u128>(table_of(&spec.0, spec.1, load), field, d)?;
        } else {
            resealed_header_mutation::<u64>(table_of(&spec.0, spec.1, load), field, d)?;
        }
    }
}

fn sample_kmer() -> FlatKmerTable {
    let mut table = FlatKmerTable::new();
    for k in 0..40u64 {
        table.add_count(k * 2654435761, (k % 7 + 1) as u32);
    }
    table.add_count(u64::MAX, 2);
    table
}

/// A shard header whose sentinel side field was rewritten and whose own
/// checksum was re-sealed passes every check inside the file — it is
/// the manifest's copy of the checksum that rejects it.
#[test]
fn resealed_sentinel_rewrite_is_caught_by_the_manifest_checksum() {
    let dir = snapshot_with(&sample_kmer());
    let path = shard_path(&dir, ShardKind::Kmer);
    let mut bytes = std::fs::read(&path).unwrap();
    let head: &[u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().unwrap();
    let mut header = ShardHeader::decode(head, &path).unwrap();
    header.sentinel_count = Some(99);
    header.checksum = 0;
    bytes[..HEADER_BYTES].copy_from_slice(&header.encode());
    header.checksum = fnv1a(&bytes);
    bytes[..HEADER_BYTES].copy_from_slice(&header.encode());
    std::fs::write(&path, &bytes).unwrap();
    let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
    assert!(matches!(r.load_kmer(0), Err(specstore::SnapshotError::Checksum { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

/// Exhaustive corruption sweep: flip one byte at every offset of a shard
/// file (two patterns per byte) and require a typed rejection each time.
/// Different offsets trip different guards — magic, version, fingerprint,
/// geometry, checksum — but none may load under `Strict`.
#[test]
fn every_single_byte_flip_is_rejected() {
    let table = sample_kmer();
    let dir = snapshot_of(&table, &FlatTileTable::new(), 0);
    let path = shard_path(&dir, ShardKind::Kmer);
    let pristine = std::fs::read(&path).unwrap();
    // sanity: the pristine file loads
    let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
    assert!(r.load_kmer(0).is_ok());
    for offset in 0..pristine.len() {
        for pattern in [0x01u8, 0xFF] {
            let mut corrupt = pristine.clone();
            corrupt[offset] ^= pattern;
            std::fs::write(&path, &corrupt).unwrap();
            let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
            assert!(
                r.load_kmer(0).is_err(),
                "flip {pattern:#04x} at byte {offset} (of {}) loaded successfully",
                pristine.len()
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same sweep with one parity shard and a `Repair` policy: every
/// flip is now *repaired* — the load succeeds and the table is
/// bit-identical to the original.
#[test]
fn every_single_byte_flip_is_repaired_with_parity() {
    let table = sample_kmer();
    let dir = snapshot_of(&table, &FlatTileTable::new(), 1);
    let path = shard_path(&dir, ShardKind::Kmer);
    let pristine = std::fs::read(&path).unwrap();
    let policy = RecoveryPolicy::Repair { max_lost: 1, rewrite: false };
    for offset in 0..pristine.len() {
        let mut corrupt = pristine.clone();
        corrupt[offset] ^= 0x55;
        std::fs::write(&path, &corrupt).unwrap();
        let mut r = SnapshotReader::open(&dir, &fingerprint(), policy).unwrap();
        let loaded = r.load_kmer(0).unwrap_or_else(|e| {
            panic!("flip at byte {offset} (of {}) not repaired: {e}", pristine.len())
        });
        assert_eq!(r.stats().shards_repaired, 1, "flip at byte {offset}");
        assert_eq!(loaded.table.len(), table.len());
        assert_eq!(sorted(loaded.table.iter()), sorted(table.iter()), "flip at byte {offset}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The tile layout gets the same sweep over its header and body (the
/// three-array body shares the kmer path's checksum plumbing; the full
/// sweep above already proves the streaming hash covers every offset
/// pattern).
#[test]
fn tile_flips_in_header_and_body_are_rejected() {
    let mut table = FlatTileTable::new();
    for k in 0..40u128 {
        table.add_count(k << 21 | 5, (k % 5 + 1) as u32);
    }
    let dir = snapshot_of(&FlatKmerTable::new(), &table, 0);
    let path = shard_path(&dir, ShardKind::Tile);
    let pristine = std::fs::read(&path).unwrap();
    {
        let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
        assert!(r.load_tile(0).is_ok());
    }
    for offset in 0..pristine.len() {
        let mut corrupt = pristine.clone();
        corrupt[offset] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        let mut r = SnapshotReader::open(&dir, &fingerprint(), RecoveryPolicy::Strict).unwrap();
        assert!(r.load_tile(0).is_err(), "flip at byte {offset} loaded successfully");
    }
    std::fs::remove_dir_all(&dir).ok();
}
