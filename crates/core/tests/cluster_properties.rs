//! Property tests of the sharded cluster: under arbitrary interleavings
//! of window searches, inserts, deletes, and kNN queries — with query
//! rectangles wide enough to span shard boundaries — the scatter-gather
//! [`CatfishClusterClient`] produces results set-equal to a single
//! authoritative reference model, for every shard count.
//!
//! Ops alternate between two clients of one cluster, so the law also
//! covers visibility: an acked write is seen by every client, not only
//! the writer.
//!
//! This is the correctness law that makes the space partition an
//! implementation detail: no operation may observe which shard owns what.

use catfish_core::client::CatfishClusterClient;
use catfish_core::config::{AccessMode, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::server::CatfishCluster;
use catfish_core::service::ShardMap;
use catfish_rdma::profile::infiniband_100g;
use catfish_rtree::{min_dist_sq, RTreeConfig, Rect};
use catfish_simnet::{Network, Sim};
use catfish_workload::uniform_rects;
use proptest::prelude::*;

/// One step of an interleaved workload, as generated data.
#[derive(Debug, Clone)]
enum Op {
    /// Window query; compared set-wise against the model scan.
    Search(Rect),
    /// Insert at this rectangle (payload id assigned at execution).
    Insert(Rect),
    /// Delete the `i % live`-th live item (no-op while none are live).
    Delete(usize),
    /// k-nearest-neighbour query at (x, y).
    Nearest(f64, f64, u32),
}

/// Rectangles up to 0.5 wide: with 2–4 shards the x-cuts are at most 0.5
/// apart, so a healthy fraction of these straddle at least one boundary.
fn arb_query_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..1.0, 0.0f64..1.0, 1e-4f64..0.5, 1e-4f64..0.2)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, (x + w).min(1.0), (y + h).min(1.0)))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_query_rect().prop_map(Op::Search),
        arb_query_rect().prop_map(Op::Insert),
        any::<u32>().prop_map(|i| Op::Delete(i as usize)),
        (0.0f64..1.0, 0.0f64..1.0, 1u32..6).prop_map(|(x, y, k)| Op::Nearest(x, y, k)),
    ]
}

/// The reference: a flat list of live items, queried by linear scan.
/// Equivalent to (and simpler than) a single-server tree, and obviously
/// correct.
struct Model {
    live: Vec<(Rect, u64)>,
}

impl Model {
    fn search(&self, q: &Rect) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .live
            .iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|&(_, d)| d)
            .collect();
        ids.sort_unstable();
        ids
    }

    fn nearest(&self, x: f64, y: f64, k: u32) -> Vec<(Rect, u64)> {
        let mut all = self.live.clone();
        all.sort_by_key(|(r, d)| (min_dist_sq(r, x, y).to_bits(), *d));
        all.truncate(k as usize);
        all
    }
}

fn build(net: &Network, dataset: Vec<(Rect, u64)>, shards: usize) -> CatfishCluster {
    CatfishCluster::build_replicated(
        net,
        &infiniband_100g(),
        ServerConfig {
            cores: 2,
            mode: ServerMode::EventDriven,
            ..ServerConfig::default()
        },
        RTreeConfig::default(),
        dataset,
        shards,
        1,
        &RkeyAllocator::new(),
    )
}

fn connect(cluster: &CatfishCluster, net: &Network, seed: u64) -> CatfishClusterClient {
    CatfishClusterClient::connect(
        cluster,
        net,
        &infiniband_100g(),
        ClientConfig {
            mode: AccessMode::FastMessaging,
            ..ClientConfig::default()
        },
        seed,
    )
}

/// Runs `ops` against both a `shards`-way cluster and the model, checking
/// set-equality after every operation. Ops alternate between two clients
/// of the one cluster.
fn check_cluster_matches_model(shards: usize, dataset_seed: u64, ops: Vec<Op>) {
    let sim = Sim::new();
    sim.run_until(async move {
        let net = Network::new();
        let dataset = uniform_rects(300, 1e-3, dataset_seed);
        let mut model = Model {
            live: dataset.clone(),
        };
        let cluster = build(&net, dataset, shards);
        let mut clients = [
            connect(&cluster, &net, dataset_seed ^ 0xC1u64),
            connect(&cluster, &net, dataset_seed ^ 0xC2u64),
        ];

        let mut next_id = 1u64 << 40;
        for (step, op) in ops.into_iter().enumerate() {
            // Alternate clients: every op must see what the other client's
            // acked writes left behind.
            let client = &mut clients[step % 2];
            match op {
                Op::Search(q) => {
                    let mut got = client.search(&q).await;
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        model.search(&q),
                        "step {step}: window {q:?} diverged at {shards} shards"
                    );
                }
                Op::Insert(r) => {
                    let id = next_id;
                    next_id += 1;
                    assert!(client.insert(r, id).await, "step {step}: insert refused");
                    model.live.push((r, id));
                }
                Op::Delete(i) => {
                    if model.live.is_empty() {
                        continue;
                    }
                    let (r, id) = model.live.swap_remove(i % model.live.len());
                    assert!(
                        client.delete(r, id).await,
                        "step {step}: delete of live item {id} failed"
                    );
                }
                Op::Nearest(x, y, k) => {
                    let got = client.nearest(x, y, k).await;
                    assert_eq!(
                        got,
                        model.nearest(x, y, k),
                        "step {step}: {k}-NN at ({x}, {y}) diverged at {shards} shards"
                    );
                }
            }
        }

        // The partition must not lose or duplicate anything: a full-window
        // query returns exactly the model's live set.
        let world = Rect::new(0.0, 0.0, 1.0, 1.0);
        for client in &clients {
            let mut got = client.search(&world).await;
            got.sort_unstable();
            assert_eq!(got, model.search(&world), "full-window sweep diverged");
        }
    });
}

/// Boundary-window stress: every query and insert is pinned **exactly to
/// an x-cut** of the live partition — centers on the cut, windows whose
/// min/max edge equals the cut, and windows straddling it by a hair.
/// These are the rectangles where a routing off-by-one (open vs closed
/// slab intervals, `<` vs `<=` in the partition point) silently drops one
/// neighbor from the scatter set, which generic uniform rectangles almost
/// never catch.
fn check_cut_boundary_windows(shards: usize, dataset_seed: u64, picks: Vec<(u8, u8, f64, f64)>) {
    let sim = Sim::new();
    sim.run_until(async move {
        let net = Network::new();
        let dataset = uniform_rects(300, 1e-3, dataset_seed);
        let mut model = Model {
            live: dataset.clone(),
        };
        let cluster = build(&net, dataset, shards);
        let mut clients = [
            connect(&cluster, &net, dataset_seed ^ 0xB0u64),
            connect(&cluster, &net, dataset_seed ^ 0xB1u64),
        ];
        let ShardMap::Region { cuts, .. } = cluster.shard_map() else {
            panic!("r-tree cluster must use a region map");
        };
        assert!(!cuts.is_empty(), "need at least one cut at {shards} shards");

        let mut next_id = 1u64 << 41;
        for (step, (cut_pick, variant, y, w)) in picks.into_iter().enumerate() {
            // One client writes, the other reads the write back.
            let [writer, reader] = &mut clients;
            if step % 2 == 1 {
                std::mem::swap(writer, reader);
            }
            let cut = cuts[cut_pick as usize % cuts.len()];
            let y = y.clamp(0.0, 0.99);
            let w = w.clamp(1e-4, 0.1);
            // Rectangles pinned to the cut: centered on it, ending exactly
            // on it, starting exactly on it, or straddling asymmetrically.
            let rect = match variant % 4 {
                0 => Rect::new(cut - w, y, cut + w, y + 0.05),
                1 => Rect::new((cut - w).max(0.0), y, cut, y + 0.05),
                2 => Rect::new(cut, y, (cut + w).min(1.0), y + 0.05),
                _ => Rect::new((cut - w / 3.0).max(0.0), y, (cut + w).min(1.0), y + 0.05),
            };
            if variant % 2 == 0 {
                // Exercise routing of an *insert* whose center can sit
                // exactly on the cut, then make sure reads find it back.
                let id = next_id;
                next_id += 1;
                assert!(writer.insert(rect, id).await, "step {step}: insert refused");
                model.live.push((rect, id));
            }
            let mut got = reader.search(&rect).await;
            got.sort_unstable();
            assert_eq!(
                got,
                model.search(&rect),
                "step {step}: cut-pinned window {rect:?} diverged at {shards} shards"
            );
        }

        let world = Rect::new(0.0, 0.0, 1.0, 1.0);
        for client in &clients {
            let mut got = client.search(&world).await;
            got.sort_unstable();
            assert_eq!(got, model.search(&world), "full-window sweep diverged");
        }
    });
}

/// An acked insert is visible to every client of the cluster, not only
/// the writer. Client A inserts outside every bulk-load bound (and, with
/// an empty load set, into shards that held nothing); client B's window
/// search and kNN must then find it, at 1, 2 and 4 shards.
#[test]
fn acked_insert_is_visible_to_another_client() {
    for shards in [1, 2, 4] {
        for loaded in [300, 0] {
            let sim = Sim::new();
            sim.run_until(async move {
                let net = Network::new();
                let cluster = build(&net, uniform_rects(loaded, 1e-3, 5), shards);
                let mut a = connect(&cluster, &net, 1);
                let b = connect(&cluster, &net, 2);
                let rect = Rect::new(1.5, 1.5, 1.6, 1.6);
                assert!(a.insert(rect, 777).await);
                let window = Rect::new(1.4, 1.4, 1.7, 1.7);
                assert_eq!(a.search(&window).await, vec![777]);
                assert_eq!(
                    b.search(&window).await,
                    vec![777],
                    "window search, {shards} shards, {loaded} loaded"
                );
                assert_eq!(
                    b.nearest(1.55, 1.55, 1).await,
                    vec![(rect, 777)],
                    "kNN, {shards} shards, {loaded} loaded"
                );
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// The cluster is indistinguishable from the single-index reference
    /// under arbitrary op interleavings, for 2–4 shards.
    #[test]
    fn scatter_gather_matches_single_index_reference(
        shards in 2usize..5,
        dataset_seed in 0u64..1_000,
        ops in prop::collection::vec(arb_op(), 1..30),
    ) {
        check_cluster_matches_model(shards, dataset_seed, ops);
    }

    /// Degenerate but legal: a 1-shard cluster is exactly the single
    /// server, so the same law holds trivially — guarding the bench's
    /// "1-shard cell matches single-server numbers" claim structurally.
    #[test]
    fn one_shard_cluster_matches_reference(
        dataset_seed in 0u64..1_000,
        ops in prop::collection::vec(arb_op(), 1..20),
    ) {
        check_cluster_matches_model(1, dataset_seed, ops);
    }

    /// Windows and inserts pinned exactly onto the partition's x-cuts
    /// route to every neighbor the flat reference says they must — the
    /// off-by-one trap of slab routing.
    #[test]
    fn cut_boundary_windows_match_reference(
        shards in 2usize..5,
        dataset_seed in 0u64..1_000,
        picks in prop::collection::vec(
            (any::<u8>(), any::<u8>(), 0.0f64..1.0, 0.0f64..0.1),
            1..20,
        ),
    ) {
        check_cut_boundary_windows(shards, dataset_seed, picks);
    }
}
