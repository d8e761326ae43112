//! `BlockMap` against a reference model: an ordered map of the same
//! entries. Random inserts, removes, lookups, truncations and ordered
//! iteration interleave with clones; every clone must keep the contents
//! it had when taken (copy-on-write isolation), and the map must hold
//! exactly one leaf per distinct 64-fbn group it maps.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use wafl::inode::BlockPtr;
use wafl::BlockMap;
use wafl_blockdev::Vbn;

#[derive(Debug, Clone, Copy)]
enum MapOp {
    Insert(u64, u16),
    Remove(u64),
    Get(u64),
    SplitOff(u64),
    Iter,
    Clone,
}

/// Fbns clustered near a few far-apart bases (so ops collide) plus
/// uniform draws over the whole range (huge gaps).
fn fbn() -> impl Strategy<Value = u64> {
    const TOP: u64 = u64::MAX >> 1;
    prop_oneof![
        4 => (0usize..4, 0u64..300).prop_map(|(base, off)| {
            [0, 1 << 20, 1 << 40, TOP - 300][base] + off
        }),
        1 => 0u64..TOP,
    ]
}

fn map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            8 => (fbn(), 0u16..u16::MAX).prop_map(|(f, s)| MapOp::Insert(f, s)),
            3 => fbn().prop_map(MapOp::Remove),
            3 => fbn().prop_map(MapOp::Get),
            1 => fbn().prop_map(MapOp::SplitOff),
            1 => Just(MapOp::Iter),
            2 => Just(MapOp::Clone),
        ],
        1..250,
    )
}

fn ptr(fbn: u64, s: u16) -> BlockPtr {
    BlockPtr {
        vvbn: fbn ^ s as u64,
        pvbn: Vbn(fbn.wrapping_add(s as u64)),
        stamp: (fbn as u128) << 16 | s as u128,
    }
}

fn pairs(m: &BlockMap) -> Vec<(u64, BlockPtr)> {
    m.iter().map(|(f, p)| (f, *p)).collect()
}

fn model_pairs(m: &BTreeMap<u64, BlockPtr>) -> Vec<(u64, BlockPtr)> {
    m.iter().map(|(f, p)| (*f, *p)).collect()
}

fn leaves_of(m: &BTreeMap<u64, BlockPtr>) -> usize {
    m.keys().map(|f| f >> 6).collect::<BTreeSet<_>>().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn block_map_matches_model_and_clones_stay_isolated(ops in map_ops()) {
        let mut map = BlockMap::new();
        let mut model: BTreeMap<u64, BlockPtr> = BTreeMap::new();
        let mut clones: Vec<(BlockMap, Vec<(u64, BlockPtr)>)> = Vec::new();
        for op in ops {
            match op {
                MapOp::Insert(f, s) => {
                    prop_assert_eq!(map.insert(f, ptr(f, s)), model.insert(f, ptr(f, s)));
                }
                MapOp::Remove(f) => prop_assert_eq!(map.remove(f), model.remove(&f)),
                MapOp::Get(f) => prop_assert_eq!(map.get(f), model.get(&f)),
                MapOp::SplitOff(f) => {
                    let tail = map.split_off(f);
                    let model_tail = model.split_off(&f);
                    prop_assert_eq!(pairs(&tail), model_pairs(&model_tail));
                    prop_assert_eq!(tail.leaf_count(), leaves_of(&model_tail));
                }
                MapOp::Iter => prop_assert_eq!(pairs(&map), model_pairs(&model)),
                MapOp::Clone => clones.push((map.clone(), model_pairs(&model))),
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.leaf_count(), leaves_of(&model));
            for (c, taken) in &clones {
                prop_assert_eq!(&pairs(c), taken, "a clone changed after the original did");
            }
        }
        prop_assert_eq!(pairs(&map), model_pairs(&model));
    }
}
