//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building a 2-million-item tree by repeated insertion is the paper's
//! setup, but the benchmark harness rebuilds trees for many configurations;
//! STR packing gives the same logical content orders of magnitude faster.
//! Leaves are filled to a configurable factor so subsequent inserts do not
//! immediately split every node.

use crate::geom::Rect;
use crate::node::{Entry, Node, RTreeConfig};
use crate::store::{NodeStore, TreeMeta};
use crate::tree::RTree;

/// Bulk-loads `items` into an empty tree over `store` using STR packing,
/// filling nodes to about 80 % of the maximum fanout.
///
/// # Panics
///
/// Panics if `config` is invalid.
///
/// # Examples
///
/// ```
/// use catfish_rtree::{bulk_load, MemStore, Rect};
///
/// let items: Vec<(Rect, u64)> = (0..1000)
///     .map(|i| {
///         let x = (i % 32) as f64;
///         let y = (i / 32) as f64;
///         (Rect::new(x, y, x + 0.5, y + 0.5), i as u64)
///     })
///     .collect();
/// let tree = bulk_load(MemStore::new(), Default::default(), items);
/// assert_eq!(tree.len(), 1000);
/// tree.check_invariants().unwrap();
/// ```
pub fn bulk_load<S: NodeStore>(store: S, config: RTreeConfig, items: Vec<(Rect, u64)>) -> RTree<S> {
    let fill = (config.max_entries * 4 / 5)
        .max(config.min_entries * 2)
        .min(config.max_entries);
    bulk_load_with_fill(store, config, items, fill)
}

/// Bulk-loads with an explicit per-node fill count.
///
/// # Panics
///
/// Panics if `config` is invalid or `fill` is outside
/// `[2 * min_entries, max_entries]` (the lower bound guarantees that group
/// balancing can always satisfy the minimum fanout).
pub fn bulk_load_with_fill<S: NodeStore>(
    store: S,
    config: RTreeConfig,
    items: Vec<(Rect, u64)>,
    fill: usize,
) -> RTree<S> {
    bulk_load_packed(store, config, items, fill, str_pack)
}

/// Groups one level's entries into nodes: `(entries, fill, min_entries)`.
type Packer = fn(Vec<Entry>, usize, usize) -> Vec<Vec<Entry>>;

/// [`bulk_load_with_fill`] with the level packer as a parameter, so tests
/// can build through the reference packer too.
fn bulk_load_packed<S: NodeStore>(
    mut store: S,
    config: RTreeConfig,
    items: Vec<(Rect, u64)>,
    fill: usize,
    pack: Packer,
) -> RTree<S> {
    config.validate();
    assert!(
        fill >= config.min_entries * 2 && fill <= config.max_entries,
        "fill {fill} outside [{}, {}]",
        config.min_entries * 2,
        config.max_entries
    );
    let n = items.len() as u64;
    if items.is_empty() {
        store.set_meta(TreeMeta::default());
        return RTree::open(store, config);
    }

    // Level 0: pack data entries into leaves.
    let entries: Vec<Entry> = items
        .into_iter()
        .map(|(rect, data)| Entry::data(rect, data))
        .collect();
    let mut level = 0u32;
    let mut current = entries;
    loop {
        let nodes = pack(current, fill, config.min_entries);
        let mut next: Vec<Entry> = Vec::with_capacity(nodes.len());
        let single = nodes.len() == 1;
        for group in nodes {
            let id = store.alloc();
            let node = Node {
                level,
                entries: group,
            };
            store.write(id, &node);
            next.push(Entry::node(
                node.mbr().expect("packed groups are non-empty"),
                id,
            ));
        }
        if single {
            let root = next[0].child.node().expect("node entry");
            store.set_meta(TreeMeta {
                root: Some(root),
                height: level + 1,
                len: n,
                structure_version: 0,
            });
            return RTree::open(store, config);
        }
        current = next;
        level += 1;
    }
}

/// A space partition of a bulk-load dataset across cluster shards.
///
/// Produced by [`partition_by_x`]: the unit of scale-out is a contiguous
/// x-slab of the dataset (the same x-center ordering STR packing starts
/// from), so each shard's bulk-loaded tree covers a compact region and the
/// slab boundaries double as the cluster's routing cuts. The `cuts` are
/// **authoritative** for ownership: an item whose center-x `x` belongs to
/// shard `cuts.partition_point(|c| *c <= x)`, and [`partition_by_x`]
/// assigns items by that same rule, so routing a later point operation by
/// center always lands on the shard holding the item.
#[derive(Debug, Clone)]
pub struct SpacePartition {
    /// Per-shard bulk-load items (some slabs may be empty when the data is
    /// narrower than the shard count).
    pub slabs: Vec<Vec<(Rect, u64)>>,
    /// Ascending x cuts between adjacent slabs (`shards - 1` entries).
    pub cuts: Vec<f64>,
    /// Per-shard boundary MBR of the loaded items (`None` for an empty
    /// slab) — what scatter-gather clients prune window queries against.
    pub bounds: Vec<Option<Rect>>,
}

impl SpacePartition {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slabs.len()
    }

    /// The shard owning an item whose rectangle center-x is `x`.
    pub fn shard_of(&self, x: f64) -> usize {
        self.cuts.partition_point(|c| *c <= x)
    }
}

/// Splits `items` into `shards` contiguous x-slabs of near-equal item
/// count, returning each slab with its boundary MBR and the cut positions.
///
/// Cuts fall between distinct center-x values; runs of items sharing one
/// center-x are never split across a cut, so [`SpacePartition::shard_of`]
/// is consistent with the assignment (at the cost of slightly uneven slab
/// sizes on heavily duplicated coordinates). With no items the unit square
/// is cut uniformly so later inserts still spread.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn partition_by_x(items: Vec<(Rect, u64)>, shards: usize) -> SpacePartition {
    assert!(shards > 0, "a cluster needs at least one shard");
    if shards == 1 {
        // One slab is the whole load set: no cut to place, nothing to move.
        let bound = items.iter().map(|(r, _)| *r).reduce(|a, b| a.union(&b));
        return SpacePartition {
            slabs: vec![items],
            cuts: Vec::new(),
            bounds: vec![bound],
        };
    }
    let cuts: Vec<f64> = if items.is_empty() {
        (1..shards).map(|i| i as f64 / shards as f64).collect()
    } else {
        let mut centers: Vec<f64> = items.iter().map(|(r, _)| r.center().0).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
        (1..shards)
            .map(|i| {
                let at = i * centers.len() / shards;
                let right = centers[at.min(centers.len() - 1)];
                let left = centers[at.saturating_sub(1)];
                if left < right {
                    // Midpoint between the slabs; `partition_point(c <= x)`
                    // sends the boundary value itself to the right shard.
                    (left + right) / 2.0
                } else {
                    // A tie run straddles the balanced index: cut at the
                    // value so the whole run lands right of the cut.
                    right
                }
            })
            .collect()
    };
    let mut slabs: Vec<Vec<(Rect, u64)>> = (0..shards).map(|_| Vec::new()).collect();
    let mut bounds: Vec<Option<Rect>> = vec![None; shards];
    for (rect, data) in items {
        let s = cuts.partition_point(|c| *c <= rect.center().0);
        bounds[s] = Some(match bounds[s] {
            Some(b) => b.union(&rect),
            None => rect,
        });
        slabs[s].push((rect, data));
    }
    SpacePartition {
        slabs,
        cuts,
        bounds,
    }
}

/// Partitions entries into groups of about `fill` using Sort-Tile-Recursive
/// tiling; every group has at least `min_entries` entries (except when the
/// whole input is smaller than that, which can only happen for the root).
///
/// Slices and groups are cut by index from the one x-sorted buffer, so
/// packing n entries moves each entry once instead of shifting the
/// unconsumed tail on every cut.
fn str_pack(mut entries: Vec<Entry>, fill: usize, min_entries: usize) -> Vec<Vec<Entry>> {
    let n = entries.len();
    if n <= fill {
        return vec![entries];
    }
    let pages = n.div_ceil(fill);
    let slices = (pages as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slices);

    sort_by_center(&mut entries, 0);
    let mut groups = Vec::with_capacity(pages);
    for slice in entries.chunks_mut(per_slice) {
        sort_by_center(slice, 1);
        let mut rest: &[Entry] = slice;
        while !rest.is_empty() {
            let mut take = fill.min(rest.len());
            let remainder = rest.len() - take;
            if remainder > 0 && remainder < min_entries {
                // Shrink this group so the slice's final group still
                // satisfies the minimum fanout.
                take = rest.len() - min_entries;
            }
            let (group, tail) = rest.split_at(take);
            groups.push(group.to_vec());
            rest = tail;
        }
    }
    balance_tail(&mut groups, fill, min_entries);
    groups
}

/// If the last group (which may come from an undersized final slice) is
/// below the minimum fanout, merge it with its predecessor, re-splitting if
/// the merge would exceed the fill target.
fn balance_tail(groups: &mut Vec<Vec<Entry>>, fill: usize, min_entries: usize) {
    if groups.len() < 2 || groups[groups.len() - 1].len() >= min_entries {
        return;
    }
    let tail = groups.pop().expect("len checked");
    let mut merged = groups.pop().expect("len checked");
    merged.extend(tail);
    if merged.len() <= fill {
        groups.push(merged);
    } else {
        let half = merged.len() / 2;
        debug_assert!(half >= min_entries && merged.len() - half >= min_entries);
        let second = merged.split_off(half);
        groups.push(merged);
        groups.push(second);
    }
}

fn sort_by_center(entries: &mut [Entry], axis: usize) {
    entries.sort_by(|a, b| {
        let ka = center_axis(&a.mbr, axis);
        let kb = center_axis(&b.mbr, axis);
        ka.partial_cmp(&kb).expect("finite coordinates")
    });
}

fn center_axis(r: &Rect, axis: usize) -> f64 {
    let (cx, cy) = r.center();
    if axis == 0 {
        cx
    } else {
        cy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    /// The original packer, which cuts each slice and group off the front
    /// of its buffer with `drain` (O(n·√n) moves): the reference
    /// [`str_pack`] must reproduce group for group.
    fn str_pack_drain(mut entries: Vec<Entry>, fill: usize, min_entries: usize) -> Vec<Vec<Entry>> {
        let n = entries.len();
        if n <= fill {
            return vec![entries];
        }
        let pages = n.div_ceil(fill);
        let slices = (pages as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices);

        sort_by_center(&mut entries, 0);
        let mut groups = Vec::with_capacity(pages);
        let mut rest = entries;
        while !rest.is_empty() {
            let take = per_slice.min(rest.len());
            let mut slice: Vec<Entry> = rest.drain(..take).collect();
            sort_by_center(&mut slice, 1);
            while !slice.is_empty() {
                let mut take = fill.min(slice.len());
                let remainder = slice.len() - take;
                if remainder > 0 && remainder < min_entries {
                    // Shrink this group so the slice's final group still
                    // satisfies the minimum fanout.
                    take = slice.len() - min_entries;
                }
                groups.push(slice.drain(..take).collect::<Vec<_>>());
            }
        }
        balance_tail(&mut groups, fill, min_entries);
        groups
    }

    fn items(n: u64) -> Vec<(Rect, u64)> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.754877) % 100.0;
                let y = (i as f64 * 0.569840) % 100.0;
                (Rect::new(x, y, x + 0.3, y + 0.3), i)
            })
            .collect()
    }

    #[test]
    fn empty_bulk_load() {
        let tree = bulk_load(MemStore::new(), RTreeConfig::default(), Vec::new());
        assert!(tree.is_empty());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn single_item() {
        let tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(1));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_across_sizes() {
        for n in [2u64, 10, 16, 17, 100, 1000, 5000] {
            let tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(n));
            assert_eq!(tree.len(), n, "size {n}");
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("size {n}: {e}"));
        }
    }

    #[test]
    fn bulk_load_matches_incremental_search_results() {
        let data = items(2000);
        let bulk = bulk_load(MemStore::new(), RTreeConfig::default(), data.clone());
        let mut incr = RTree::new(MemStore::new(), RTreeConfig::default());
        for (r, d) in &data {
            incr.insert(*r, *d);
        }
        for q in [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(40.0, 40.0, 60.0, 60.0),
            Rect::new(99.0, 0.0, 100.0, 100.0),
        ] {
            let mut a = bulk.search(&q);
            let mut b = incr.search(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn inserts_after_bulk_load_work() {
        let mut tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(500));
        for i in 500..600u64 {
            tree.insert(Rect::new(0.5, 0.5, 0.6, 0.6), i);
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), 600);
    }

    #[test]
    fn bulk_load_is_much_shallower_than_worst_case() {
        let tree = bulk_load(MemStore::new(), RTreeConfig::default(), items(10_000));
        // fill ~12 per node: height around ceil(log12(10000)) + 1 = 5.
        assert!(tree.height() <= 5, "height {}", tree.height());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_fill_rejected() {
        let _ = bulk_load_with_fill(MemStore::new(), RTreeConfig::default(), items(10), 3);
    }

    #[test]
    fn partition_covers_all_items_and_routes_consistently() {
        let data = items(5_000);
        let part = partition_by_x(data.clone(), 4);
        assert_eq!(part.shards(), 4);
        assert_eq!(part.cuts.len(), 3);
        assert!(part.cuts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(part.slabs.iter().map(Vec::len).sum::<usize>(), data.len());
        for (s, slab) in part.slabs.iter().enumerate() {
            let bound = part.bounds[s].expect("5000 items fill every slab");
            for (rect, _) in slab {
                // Assignment agrees with center routing, and the boundary
                // MBR covers every item entirely.
                assert_eq!(part.shard_of(rect.center().0), s);
                assert_eq!(bound.union(rect), bound);
            }
        }
        // Near-equal slab sizes on distinct coordinates.
        let (min, max) = part.slabs.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.len()), hi.max(s.len()))
        });
        assert!(max - min <= 2, "slab sizes {min}..{max}");
    }

    #[test]
    fn partition_never_splits_duplicate_centers() {
        // All items share one center-x: routing must keep them together.
        let data: Vec<(Rect, u64)> = (0..100)
            .map(|i| (Rect::new(0.4, i as f64, 0.6, i as f64 + 0.5), i))
            .collect();
        let part = partition_by_x(data, 4);
        let populated: Vec<usize> = (0..4).filter(|&s| !part.slabs[s].is_empty()).collect();
        assert_eq!(populated.len(), 1);
        assert_eq!(part.shard_of(0.5), populated[0]);
    }

    #[test]
    fn empty_partition_cuts_the_unit_square() {
        let part = partition_by_x(Vec::new(), 4);
        assert_eq!(part.cuts, vec![0.25, 0.5, 0.75]);
        assert!(part.bounds.iter().all(Option::is_none));
        assert_eq!(part.shard_of(0.1), 0);
        assert_eq!(part.shard_of(0.6), 2);
        assert_eq!(part.shard_of(0.9), 3);
    }

    #[test]
    fn single_shard_partition_is_the_identity() {
        let data = items(50);
        let part = partition_by_x(data.clone(), 1);
        assert!(part.cuts.is_empty());
        assert_eq!(part.slabs[0], data);
        let mbr = data[1..].iter().fold(data[0].0, |b, (r, _)| b.union(r));
        assert_eq!(part.bounds, vec![Some(mbr)]);
        assert_eq!(partition_by_x(Vec::new(), 1).bounds, vec![None]);
    }

    /// Deterministic entries with unique payloads. `ties` 0 draws free
    /// centers; 1 snaps corners to an 8-value dyadic grid, so many centers
    /// tie exactly on each axis; 2 gives every entry the same center.
    fn packing_input(n: usize, seed: u64, ties: u8) -> Vec<Entry> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|i| {
                let rect = match ties {
                    0 => {
                        let x = (next() >> 11) as f64 / (1u64 << 53) as f64;
                        let y = (next() >> 11) as f64 / (1u64 << 53) as f64;
                        Rect::new(x, y, x + 0.001, y + 0.001)
                    }
                    1 => {
                        let x = (next() % 8) as f64 / 8.0;
                        let y = (next() % 8) as f64 / 8.0;
                        Rect::new(x, y, x + 0.125, y + 0.125)
                    }
                    _ => {
                        let w = (next() % 16) as f64 / 64.0;
                        Rect::new(0.5 - w, 0.5 - w, 0.5 + w, 0.5 + w)
                    }
                };
                Entry::data(rect, i as u64)
            })
            .collect()
    }

    /// Every `(min_entries, fill)` pair a valid config with one of these
    /// fanouts accepts.
    fn legal_fills() -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for max in [4usize, 5, 8, 16] {
            for min in 2..=max / 2 {
                for fill in 2 * min..=max {
                    pairs.push((min, fill));
                }
            }
        }
        pairs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Index slicing cuts exactly the groups the drain-based packer
        /// cut: same entries, same order, for every legal fill.
        #[test]
        fn str_pack_matches_drain_oracle(
            n in 0usize..5000,
            seed in proptest::prelude::any::<u64>(),
            ties in 0u8..3,
        ) {
            let entries = packing_input(n, seed, ties);
            for (min, fill) in legal_fills() {
                let got = str_pack(entries.clone(), fill, min);
                let want = str_pack_drain(entries.clone(), fill, min);
                proptest::prop_assert!(
                    got == want,
                    "n {} ties {} min {} fill {}: groups differ",
                    n,
                    ties,
                    min,
                    fill
                );
            }
        }
    }

    #[test]
    fn chunk_store_bulk_load_matches_oracle_bytes() {
        use crate::chunk::ChunkStore;
        use crate::codec::ChunkLayout;

        let config = RTreeConfig::default();
        let layout = ChunkLayout::for_max_entries(config.max_entries);
        let data = items(50_000);
        let fill = (config.max_entries * 4 / 5).max(config.min_entries * 2);
        let arena = || {
            let chunks = data.len().div_ceil(config.min_entries) * 2;
            ChunkStore::new(vec![0u8; layout.arena_bytes(chunks as u32)], layout)
        };
        let new = bulk_load(arena(), config, data.clone());
        let old = bulk_load_packed(arena(), config, data.clone(), fill, str_pack_drain);
        assert_eq!(new.len(), 50_000);
        let (new, old) = (new.into_store().into_mem(), old.into_store().into_mem());
        assert!(new == old, "arena bytes differ");
    }
}
