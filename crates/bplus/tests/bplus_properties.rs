//! Property-based tests of the B+-tree against `std::collections::BTreeMap`,
//! and of the bottom-up bulk load against the insert loop it replaces.

use std::collections::BTreeMap;

use catfish_bplus::{
    BpChunkStore, BpConfig, BpLayout, BpMemStore, BpNode, BpRefs, BpStore, BpTree,
};
use catfish_rtree::codec::CodecError;
use catfish_rtree::NodeId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..500, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..500).prop_map(Op::Remove),
        (0u64..500).prop_map(Op::Get),
        (0u64..500, 0u64..500).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any op sequence behaves exactly like a BTreeMap, with invariants
    /// intact at the end.
    #[test]
    fn behaves_like_btreemap(
        ops in prop::collection::vec(arb_op(), 1..400),
        order in 3usize..12,
    ) {
        let mut tree = BpTree::new(BpMemStore::new(), BpConfig::with_max_keys(order));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v), "op {}", i);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(&k), "op {}", i);
                }
                Op::Get(k) => {
                    prop_assert_eq!(tree.get(k), model.get(&k).copied(), "op {}", i);
                }
                Op::Range(lo, hi) => {
                    let got = tree.range(lo, hi);
                    let expect: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expect, "op {}", i);
                }
            }
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.len(), model.len() as u64);
    }

    /// Node chunks round-trip for arbitrary contents.
    #[test]
    fn node_codec_round_trips(
        keys in prop::collection::btree_set(any::<u64>(), 0..16),
        leaf in any::<bool>(),
        version in any::<u64>(),
    ) {
        let layout = BpLayout::for_max_keys(16);
        let keys: Vec<u64> = keys.into_iter().collect();
        if !leaf && keys.is_empty() {
            // Internal nodes require at least one key.
            return Ok(());
        }
        let node = if leaf {
            BpNode {
                level: 0,
                refs: BpRefs::Values(keys.iter().map(|k| k ^ 0xFF).collect()),
                next: Some(NodeId(9)),
                keys,
            }
        } else {
            BpNode {
                level: 1,
                refs: BpRefs::Children(
                    (0..=keys.len() as u32).map(NodeId).collect(),
                ),
                next: None,
                keys,
            }
        };
        let chunk = layout.encode_node(&node, version);
        prop_assert_eq!(layout.decode_node(&chunk).unwrap(), (node, version));
    }

    /// Any single corrupted version stamp is detected.
    #[test]
    fn codec_detects_corruption(line_choice in any::<prop::sample::Index>()) {
        let layout = BpLayout::for_max_keys(16);
        let node = BpNode::leaf();
        let mut chunk = layout.encode_node(&node, 41);
        let lines = chunk.len() / 64;
        let line = line_choice.index(lines.max(2) - 1) + 1; // never line 0
        chunk[line * 64..line * 64 + 8].copy_from_slice(&99u64.to_le_bytes());
        let torn = matches!(
            layout.decode_node(&chunk),
            Err(CodecError::TornRead { .. })
        );
        prop_assert!(torn);
    }
}

/// Every node in level order as `(level, keys, leaf values)` — internal
/// nodes carry no values — plus the keys met walking the leaf chain.
type Shape = (Vec<(u32, Vec<u64>, Vec<u64>)>, Vec<u64>);

fn shape<S: BpStore>(tree: &BpTree<S>) -> Shape {
    let store = tree.store();
    let mut nodes = Vec::new();
    let mut frontier: Vec<NodeId> = store.meta().root.into_iter().collect();
    let mut first_leaf = None;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for id in frontier {
            let node = store.read(id);
            match &node.refs {
                BpRefs::Values(vals) => {
                    first_leaf.get_or_insert(id);
                    nodes.push((node.level, node.keys.clone(), vals.clone()));
                }
                BpRefs::Children(kids) => {
                    next.extend(kids.iter().copied());
                    nodes.push((node.level, node.keys.clone(), Vec::new()));
                }
            }
        }
        frontier = next;
    }
    let mut chain = Vec::new();
    let mut cursor = first_leaf;
    while let Some(id) = cursor {
        cursor = store.visit(id, |n| {
            chain.extend(n.keys.iter().copied());
            n.next
        });
    }
    (nodes, chain)
}

/// The tree repeated inserts build from `items`, in the given order.
fn insert_built(config: BpConfig, items: &[(u64, u64)]) -> BpTree<BpMemStore> {
    let mut tree = BpTree::new(BpMemStore::new(), config);
    for &(k, v) in items {
        tree.insert(k, v);
    }
    tree
}

/// Asserts the bulk-loaded tree equals the insert-built one node for node.
fn assert_same_tree<S: BpStore, T: BpStore>(bulk: &BpTree<S>, oracle: &BpTree<T>) {
    bulk.check_invariants().unwrap();
    assert_eq!(bulk.height(), oracle.height());
    assert_eq!(bulk.len(), oracle.len());
    assert_eq!(shape(bulk), shape(oracle));
}

/// `n` strictly increasing keys with gaps drawn from `seed` (xorshift).
fn sorted_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    let mut key = 0u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            key += 1 + x % 5;
            key
        })
        .collect()
}

/// The orders the bulk-load properties run at: 3..=16 and the default 128.
fn order_of(pick: usize) -> usize {
    if pick > 16 {
        128
    } else {
        pick
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sorted distinct input: the bulk-loaded tree is the insert-built
    /// tree — same height, length, level-order node keys and values, and
    /// leaf chain.
    #[test]
    fn bulk_load_matches_sorted_inserts(
        n in 0usize..5_000,
        pick in 3usize..18,
        seed in any::<u64>(),
    ) {
        let config = BpConfig::with_max_keys(order_of(pick));
        let items: Vec<(u64, u64)> = sorted_keys(n, seed).into_iter().map(|k| (k, k ^ seed)).collect();
        let bulk = BpTree::bulk_load(BpMemStore::new(), config, items.clone());
        assert_same_tree(&bulk, &insert_built(config, &items));
    }

    /// Sorted input with repeated keys: the last value of each key wins,
    /// exactly as repeated inserts overwrite.
    #[test]
    fn bulk_load_duplicate_keys_keep_the_last_value(
        n in 1usize..3_000,
        pick in 3usize..18,
        seed in any::<u64>(),
    ) {
        let config = BpConfig::with_max_keys(order_of(pick));
        // Keys with gaps 0..=4: about one in five repeats its predecessor.
        let items: Vec<(u64, u64)> = sorted_keys(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k / 2, i as u64))
            .collect();
        let bulk = BpTree::bulk_load(BpMemStore::new(), config, items.clone());
        assert_same_tree(&bulk, &insert_built(config, &items));
        let last: BTreeMap<u64, u64> = items.iter().copied().collect();
        let got = bulk.range(0, u64::MAX);
        prop_assert_eq!(got, last.into_iter().collect::<Vec<_>>());
    }

    /// Unsorted input (duplicates included) builds the tree the stably
    /// sorted pairs would build by repeated inserts.
    #[test]
    fn bulk_load_sorts_unsorted_input(
        keys in prop::collection::vec(0u64..2_000, 0..3_000),
        pick in 3usize..18,
    ) {
        let config = BpConfig::with_max_keys(order_of(pick));
        let items: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        let mut sorted = items.clone();
        sorted.sort_by_key(|&(k, _)| k);
        let bulk = BpTree::bulk_load(BpMemStore::new(), config, items);
        assert_same_tree(&bulk, &insert_built(config, &sorted));
    }

    /// A bulk-loaded chunk-store tree keeps its invariants and matches a
    /// BTreeMap under a random mix of inserts and removes (splits of
    /// half-full leaves, borrows, merges and root collapses).
    #[test]
    fn bulk_loaded_tree_takes_inserts_and_removes(
        n in 0u64..2_000,
        order in 3usize..12,
        ops in prop::collection::vec((any::<bool>(), 0u64..4_000), 1..600),
    ) {
        let config = BpConfig::with_max_keys(order);
        let items: Vec<(u64, u64)> = (0..n).map(|i| (i * 2, i)).collect();
        let layout = BpLayout::for_max_keys(order);
        let chunks = 2 * (n as u32 + ops.len() as u32) + 16;
        let store = BpChunkStore::new(vec![0u8; layout.arena_bytes(chunks)], layout);
        let mut tree = BpTree::bulk_load(store, config, items.clone());
        let mut model: BTreeMap<u64, u64> = items.into_iter().collect();
        for (i, (insert, k)) in ops.into_iter().enumerate() {
            if insert {
                prop_assert_eq!(tree.insert(k, i as u64), model.insert(k, i as u64), "op {}", i);
            } else {
                prop_assert_eq!(tree.remove(k), model.remove(&k), "op {}", i);
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(tree.range(0, u64::MAX), model.into_iter().collect::<Vec<_>>());
    }
}

#[test]
fn bulk_load_of_nothing_is_the_empty_tree() {
    let config = BpConfig::with_max_keys(4);
    let tree = BpTree::bulk_load(BpMemStore::new(), config, Vec::new());
    tree.check_invariants().unwrap();
    assert!(tree.is_empty());
    assert_eq!(tree.height(), 0);
    assert_eq!(tree.get(0), None);
    assert_same_tree(&tree, &insert_built(config, &[]));
}

#[test]
fn bulk_load_up_to_max_keys_is_a_single_leaf() {
    let config = BpConfig::with_max_keys(8);
    for n in 1..=8u64 {
        let items: Vec<(u64, u64)> = (0..n).map(|k| (k, k + 100)).collect();
        let tree = BpTree::bulk_load(BpMemStore::new(), config, items.clone());
        assert_eq!(tree.height(), 1);
        assert_same_tree(&tree, &insert_built(config, &items));
    }
    // One key more splits into two leaves under a new root.
    let items: Vec<(u64, u64)> = (0..9u64).map(|k| (k, k)).collect();
    let tree = BpTree::bulk_load(BpMemStore::new(), config, items.clone());
    assert_eq!(tree.height(), 2);
    assert_same_tree(&tree, &insert_built(config, &items));
}

/// Large loads at the server's default order, chunk store included.
#[test]
fn bulk_load_matches_inserts_at_scale() {
    for (order, n) in [
        (3, 20_000),
        (4, 20_000),
        (5, 20_000),
        (8, 50_000),
        (32, 50_000),
        (128, 50_000),
    ] {
        let config = BpConfig::with_max_keys(order);
        let items: Vec<(u64, u64)> = sorted_keys(n, order as u64)
            .into_iter()
            .map(|k| (k, k * 2))
            .collect();
        let layout = BpLayout::for_max_keys(order);
        let store = BpChunkStore::new(
            vec![0u8; layout.arena_bytes(2 * n as u32 / (order as u32 / 2) + 16)],
            layout,
        );
        let bulk = BpTree::bulk_load(store, config, items.clone());
        assert_same_tree(&bulk, &insert_built(config, &items));
    }
}
