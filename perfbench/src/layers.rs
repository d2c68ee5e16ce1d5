//! Host-time cost of single layers, each timed standalone through the
//! layer's public API on the workload's own inputs.
//!
//! These are replays next to the run, not spans inside it: each figure
//! is what one call of that layer costs on this host, and the report
//! multiplies it by the run's own call counts to see how much of the
//! run's host time the layers explain.

use std::hint::black_box;

use catfish_bplus::{BpChunkStore, BpConfig, BpTree};
use catfish_core::conn::{establish, RkeyAllocator};
use catfish_core::kv::{KvBackend, KvMessage};
use catfish_core::msg::Message;
use catfish_core::{IndexBackend, RtreeBackend};
use catfish_rdma::{Endpoint, RdmaProfile};
use catfish_rtree::chunk::ChunkStore;
use catfish_rtree::codec::ChunkLayout;
use catfish_rtree::{bulk_load, RTreeConfig, Rect};
use catfish_simnet::{sleep, spawn, LinkSpec, Network, Sim, SimDuration};
use catfish_workload::Request;

use crate::run::cpu_seconds;
use crate::workload::{kv_value, Inputs, KvOp, Workload, FANOUT};

/// Per-call host costs of the layers one workload exercises. Layers the
/// workload does not use stay 0.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// One executor timer event (spawned tasks sleeping in a loop).
    pub executor_event_ns: f64,
    /// One ring request/response round trip at the workload's message
    /// sizes, through the simulated fabric.
    pub ring_round_trip_ns: f64,
    /// Encoding one R-tree request plus one response of the mean size.
    pub msg_encode_ns: f64,
    /// Decoding the same pair.
    pub msg_decode_ns: f64,
    /// One window search on a chunk-store tree of the workload's dataset.
    pub rtree_search_ns: f64,
    /// Nodes one such search visits.
    pub rtree_nodes_per_search: f64,
    /// Items one such search returns.
    pub rtree_items_per_search: f64,
    /// One insert of the workload's own insert rectangles.
    pub rtree_insert_ns: f64,
    /// Bulk-loading the dataset into a chunk store, seconds.
    pub rtree_bulk_load_s: f64,
    /// Encoding one KV request plus its one-entry response.
    pub kv_encode_ns: f64,
    /// Decoding the same pair.
    pub kv_decode_ns: f64,
    /// One B+-tree get of the workload's keys.
    pub bplus_get_ns: f64,
    /// One B+-tree put of the workload's keys.
    pub bplus_put_ns: f64,
    /// Loading the workload's keys into a chunk-store B+-tree, seconds.
    pub bplus_build_s: f64,
}

/// Searches replayed per measurement.
const SEARCH_SAMPLE: usize = 20_000;
/// Repetitions of each micro-timing; the median is kept.
const REPEATS: usize = 5;

/// Host nanoseconds per call of `f`, the median over [`REPEATS`] batches
/// of `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = cpu_seconds();
            for i in 0..iters {
                f(i);
            }
            (cpu_seconds() - t0) * 1e9 / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[REPEATS / 2]
}

/// Measures every layer `inputs.workload` exercises.
pub fn measure(inputs: &Inputs) -> LayerCosts {
    let mut costs = LayerCosts {
        executor_event_ns: executor_event_ns(),
        ..LayerCosts::default()
    };
    match inputs.workload {
        Workload::KvRepl => measure_kv(inputs, &mut costs),
        _ => measure_rtree(inputs, &mut costs),
    }
    costs
}

/// Host cost of one executor timer event: 64 tasks each sleeping 1 µs
/// in a loop.
fn executor_event_ns() -> f64 {
    const TASKS: usize = 64;
    const SLEEPS: usize = 2_000;
    ns_per_call(1, |_| {
        let sim = Sim::new();
        sim.run_until(async {
            let handles: Vec<_> = (0..TASKS)
                .map(|_| {
                    spawn(async {
                        for _ in 0..SLEEPS {
                            sleep(SimDuration::from_micros(1)).await;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.await;
            }
        });
    }) / (TASKS * SLEEPS) as f64
}

/// Host cost of one ring round trip: `request` out, `response` back,
/// echoed by a server task over a fresh two-node fabric.
fn ring_round_trip_ns(request: &[u8], response: &[u8]) -> f64 {
    const TRIPS: usize = 2_000;
    let capacity = (4 * (request.len() + response.len())).max(64 * 1024);
    ns_per_call(1, |_| {
        let (request, response) = (request.to_vec(), response.to_vec());
        let sim = Sim::new();
        sim.run_until(async move {
            let net = Network::new();
            let link = LinkSpec::gbps(100.0, SimDuration::from_micros(1));
            let client_ep = Endpoint::new(&net, net.add_node(link), RdmaProfile::default());
            let server_ep = Endpoint::new(&net, net.add_node(link), RdmaProfile::default());
            let rkeys = RkeyAllocator::new();
            let (cc, sc) = establish(&client_ep, &server_ep, capacity, &rkeys);
            let echo = spawn(async move {
                for _ in 0..TRIPS {
                    black_box(sc.rx.wait_message().await);
                    sc.tx.send(&response, 0).await.expect("ring send");
                }
            });
            for _ in 0..TRIPS {
                cc.tx.send(&request, 0).await.expect("ring send");
                black_box(cc.rx.wait_message().await);
            }
            echo.await;
        });
    }) / TRIPS as f64
}

fn measure_rtree(inputs: &Inputs, costs: &mut LayerCosts) {
    let config = RTreeConfig::with_max_entries(FANOUT);
    let layout = ChunkLayout::for_max_entries(FANOUT);
    let mut searches: Vec<Rect> = Vec::new();
    let mut inserts: Vec<(Rect, u64)> = Vec::new();
    for client in 0..inputs.size.clients {
        for req in inputs.client_trace(client) {
            match req {
                Request::Search(r) if searches.len() < SEARCH_SAMPLE => searches.push(r),
                Request::Insert(r, d) if inserts.len() < SEARCH_SAMPLE => inserts.push((r, d)),
                _ => {}
            }
        }
        if searches.len() >= SEARCH_SAMPLE {
            break;
        }
    }
    let chunks =
        RtreeBackend::estimate_chunks(&config, inputs.rects.len()) as usize + inserts.len() + 1024;
    let t0 = cpu_seconds();
    let mut tree = bulk_load(
        ChunkStore::new(vec![0u8; layout.arena_bytes(chunks as u32)], layout),
        config,
        inputs.rects.clone(),
    );
    costs.rtree_bulk_load_s = cpu_seconds() - t0;

    let mut out = Vec::new();
    let (mut nodes, mut items) = (0usize, 0usize);
    let mut largest: Vec<(Rect, u64)> = Vec::new();
    for q in &searches {
        out.clear();
        let st = tree.search_items_into(q, &mut out);
        nodes += st.nodes_visited;
        items += st.results;
        if out.len() > largest.len() {
            largest.clone_from(&out);
        }
    }
    let n = searches.len().max(1) as f64;
    costs.rtree_nodes_per_search = nodes as f64 / n;
    costs.rtree_items_per_search = items as f64 / n;
    costs.rtree_search_ns = ns_per_call(searches.len().max(1), |i| {
        out.clear();
        black_box(tree.search_items_into(&searches[i % searches.len()], &mut out));
    });

    // Messages at the mean response size, filled with real result items.
    let mean_items = costs.rtree_items_per_search.round() as usize;
    let filler = largest
        .first()
        .copied()
        .unwrap_or((Rect::new(0.0, 0.0, 0.0, 0.0), 0));
    let results: Vec<(Rect, u64)> = (0..mean_items)
        .map(|i| largest.get(i).copied().unwrap_or(filler))
        .collect();
    let request = Message::SearchReq {
        seq: 1,
        rect: searches.first().copied().unwrap_or(filler.0),
    };
    let response = Message::ResponseEnd {
        seq: 1,
        results,
        status: 1,
    };
    let (req_bytes, resp_bytes) = (request.encode(), response.encode());
    costs.msg_encode_ns = ns_per_call(2_000, |_| {
        black_box(request.encode());
        black_box(response.encode());
    });
    costs.msg_decode_ns = ns_per_call(2_000, |_| {
        black_box(Message::decode(&req_bytes).expect("valid request"));
        black_box(Message::decode(&resp_bytes).expect("valid response"));
    });
    costs.ring_round_trip_ns = ring_round_trip_ns(&req_bytes, &resp_bytes);

    if !inserts.is_empty() {
        let t0 = cpu_seconds();
        for &(r, d) in &inserts {
            tree.insert(r, d);
        }
        costs.rtree_insert_ns = (cpu_seconds() - t0) * 1e9 / inserts.len() as f64;
    }
}

fn measure_kv(inputs: &Inputs, costs: &mut LayerCosts) {
    let config = BpConfig::default();
    let layout = KvBackend::layout(&config);
    let chunks = KvBackend::estimate_chunks(&config, inputs.pairs.len());
    let t0 = cpu_seconds();
    let mut tree = BpTree::new(
        BpChunkStore::new(vec![0u8; layout.arena_bytes(chunks)], layout),
        config,
    );
    for &(k, v) in &inputs.pairs {
        tree.insert(k, v);
    }
    costs.bplus_build_s = cpu_seconds() - t0;

    let ops: Vec<KvOp> = inputs.kv_traces().into_iter().flatten().collect();
    let gets: Vec<u64> = ops
        .iter()
        .filter_map(|op| match op {
            KvOp::Get(k) => Some(*k),
            KvOp::Put(_) => None,
        })
        .collect();
    let puts: Vec<u64> = ops
        .iter()
        .filter_map(|op| match op {
            KvOp::Put(k) => Some(*k),
            KvOp::Get(_) => None,
        })
        .collect();
    costs.bplus_get_ns = ns_per_call(gets.len().max(1), |i| {
        black_box(tree.get(gets[i % gets.len()]));
    });
    let t0 = cpu_seconds();
    for &k in &puts {
        black_box(tree.insert(k, kv_value(k)));
    }
    costs.bplus_put_ns = (cpu_seconds() - t0) * 1e9 / puts.len().max(1) as f64;

    let key = gets.first().copied().unwrap_or(0);
    let request = KvMessage::GetReq { seq: 1, key };
    let response = KvMessage::RespEnd {
        seq: 1,
        entries: vec![(key, kv_value(key))],
        status: 1,
    };
    let (req_bytes, resp_bytes) = (request.encode(), response.encode());
    costs.kv_encode_ns = ns_per_call(20_000, |_| {
        black_box(request.encode());
        black_box(response.encode());
    });
    costs.kv_decode_ns = ns_per_call(20_000, |_| {
        black_box(KvMessage::decode(&req_bytes).expect("valid request"));
        black_box(KvMessage::decode(&resp_bytes).expect("valid response"));
    });
    costs.ring_round_trip_ns = ring_round_trip_ns(&req_bytes, &resp_bytes);
}
