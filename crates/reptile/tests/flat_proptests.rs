//! Model-based property tests: the flat open-addressing table must
//! behave exactly like a `FxHashMap` with saturating counts under any
//! interleaving of `add_count` / `prune` / `get` and of the bulk paths
//! that rebuild it — `merge_sorted` into an empty table (the one-sweep
//! bulk load), `bulk_load_sorted_stream`, and a `raw_parts` →
//! `from_parts` remap — including growth boundaries (small key
//! pools force collisions and rehashes), count saturation at `u32::MAX`,
//! the reserved empty-sentinel key (`u64::MAX` / `u128::MAX`, itself a
//! legal code), and, for tiles, keys with exactly one all-ones lane.
//!
//! The table is one type over the key kind, so every property is written
//! once and run for both kinds.

use dnaseq::FxHashMap;
use proptest::prelude::*;
use reptile::{FlatTable, SpectrumKey};

/// One step of the interleaving.
#[derive(Clone, Debug)]
enum Op<K> {
    Add(K, u32),
    Prune(u32),
    Get(K),
    /// Rebuild from the model's entries with `merge_sorted` into an
    /// empty table (the bulk-load path).
    BulkLoad,
    /// Rebuild through `bulk_load_sorted_stream` in chunks of this size.
    Stream(usize),
    /// Dump the slot arrays and adopt them as a new table.
    Remap,
}

/// Keys biased toward collisions (tiny pool), the sentinel neighborhood,
/// and arbitrary values.
fn kmer_key() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..24, Just(u64::MAX), Just(u64::MAX - 1), any::<u64>(),]
}

fn tile_key() -> impl Strategy<Value = u128> {
    prop_oneof![
        0u128..24,
        Just(u128::MAX),
        Just(u128::MAX - 1),
        // one all-ones lane: occupied, not vacant
        Just(u64::MAX as u128),
        Just((u64::MAX as u128) << 64),
        // keys differing only in the high half
        (0u128..24).prop_map(|k| k << 64),
        any::<u128>(),
    ]
}

/// Counts biased toward the saturation boundary.
fn count() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..5, Just(u32::MAX), Just(u32::MAX - 1)]
}

fn ops<K: SpectrumKey, S: Strategy<Value = K> + 'static>(
    key: fn() -> S,
) -> impl Strategy<Value = Vec<Op<K>>> {
    prop::collection::vec(
        prop_oneof![
            (key(), count()).prop_map(|(k, c)| Op::Add(k, c)),
            (key(), count()).prop_map(|(k, c)| Op::Add(k, c)),
            (0u32..6).prop_map(Op::Prune),
            key().prop_map(Op::Get),
            prop::sample::select(vec![
                Op::BulkLoad,
                Op::Stream(1),
                Op::Stream(5),
                Op::Stream(64),
                Op::Remap
            ]),
        ],
        1..120,
    )
}

fn sorted<K: SpectrumKey>(it: impl Iterator<Item = (K, u32)>) -> Vec<(K, u32)> {
    let mut v: Vec<_> = it.collect();
    v.sort_unstable();
    v
}

/// Slots in use: entries minus the side-field sentinel.
fn slot_entries<K: SpectrumKey>(table: &FlatTable<K>) -> usize {
    table.iter().filter(|&(k, _)| k != K::SENTINEL).count()
}

/// Any interleaving agrees with the hash-map model, and the surviving
/// entry sets match exactly at the end.
fn matches_hashmap_model<K: SpectrumKey>(ops: Vec<Op<K>>) -> Result<(), TestCaseError> {
    let mut table = FlatTable::<K>::new();
    let mut model: FxHashMap<K, u32> = FxHashMap::default();
    for op in ops {
        match op {
            Op::Add(key, count) => {
                table.add_count(key, count);
                let e = model.entry(key).or_insert(0);
                *e = e.saturating_add(count);
            }
            Op::Prune(threshold) => {
                table.prune(threshold);
                model.retain(|_, c| *c >= threshold);
            }
            Op::Get(key) => {
                prop_assert_eq!(table.get(key), model.get(&key).copied());
            }
            Op::BulkLoad | Op::Stream(_) | Op::Remap => {
                let entries = sorted(model.iter().map(|(&k, &c)| (k, c)));
                let mut fresh = FlatTable::<K>::new();
                match op {
                    Op::BulkLoad => fresh.merge_sorted(&entries),
                    Op::Stream(chunk) => {
                        fresh.bulk_load_sorted_stream(entries.len(), chunk, entries.iter().copied())
                    }
                    _ => {
                        let p = table.raw_parts();
                        fresh = FlatTable::from_parts(
                            K::lanes_from(|l| p.lanes.as_ref()[l].to_vec()),
                            p.counts.to_vec(),
                            p.sentinel_count,
                        )
                        .map_err(TestCaseError::fail)?;
                        prop_assert_eq!(fresh.memory_bytes(), table.memory_bytes());
                    }
                }
                prop_assert_eq!(sorted(fresh.iter()), entries, "{:?} diverges from model", op);
                for &(k, c) in &entries {
                    prop_assert_eq!(fresh.get(k), Some(c), "{:?} probe", op);
                }
                table = fresh;
            }
        }
        prop_assert_eq!(table.len(), model.len());
    }
    let got = sorted(table.iter());
    let want = sorted(model.into_iter());
    prop_assert_eq!(&got, &want, "iter diverges from model");
    Ok(())
}

/// The measured footprint always equals the static geometry at the
/// table's entry count after a prune or a one-sweep bulk load (the
/// invariant the virtual engine's memory model depends on), and
/// occupancy never exceeds the default 3/4 load bound.
fn geometry_invariants<K: SpectrumKey>(ops: Vec<Op<K>>) -> Result<(), TestCaseError> {
    let mut table = FlatTable::<K>::new();
    for op in ops {
        match op {
            Op::Add(key, count) => table.add_count(key, count),
            Op::Prune(threshold) => {
                table.prune(threshold);
                let exact = FlatTable::<K>::bytes_for_entries(slot_entries(&table));
                prop_assert_eq!(table.memory_bytes(), exact);
            }
            Op::BulkLoad => {
                let entries = sorted(table.iter());
                table = FlatTable::new();
                table.merge_sorted(&entries);
                let exact = FlatTable::<K>::bytes_for_entries(slot_entries(&table));
                prop_assert_eq!(table.memory_bytes(), exact);
            }
            Op::Get(_) | Op::Stream(_) | Op::Remap => {}
        }
        let slots = slot_entries(&table);
        prop_assert!(slots * 4 <= table.capacity().max(1) * 3, "load bound violated");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kmer_table_matches_hashmap_model(ops in ops(kmer_key)) {
        matches_hashmap_model(ops)?;
    }

    #[test]
    fn tile_table_matches_hashmap_model(ops in ops(tile_key)) {
        matches_hashmap_model(ops)?;
    }

    #[test]
    fn kmer_geometry_invariants(ops in ops(kmer_key)) {
        geometry_invariants(ops)?;
    }

    #[test]
    fn tile_geometry_invariants(ops in ops(tile_key)) {
        geometry_invariants(ops)?;
    }
}
