//! The four benchmark workloads: what they run, at which size, and the
//! inputs each one generates from the seed.

use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, Scheme, ServerConfig};
use catfish_core::harness::ExperimentSpec;
use catfish_rdma::FaultConfig;
use catfish_rtree::{RTreeConfig, Rect};
use catfish_workload::{uniform_rects, Request, ScaleDist, SpatialHotspot, TraceSpec, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Node fanout of every R-tree workload (the paper's 88-entry nodes).
pub const FANOUT: usize = 88;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tiny windows on one 28-core server: the server CPU saturates.
    SearchCpu,
    /// Large windows on a 4-core server: all three transports carry load.
    SearchBw,
    /// 90/10 search/insert on 4 shards with a spatial hotspot.
    HybridHot,
    /// Replicated B+-tree key-value service, 80% get / 20% put.
    KvRepl,
}

/// How big a run is: dataset items, closed-loop clients, and requests
/// each client issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Rectangles (R-tree) or keys (KV) loaded before the run.
    pub items: usize,
    /// Closed-loop clients; each sends its next request only after the
    /// previous one completes.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
}

impl Size {
    /// Requests the whole run attempts.
    pub fn attempted(&self) -> u64 {
        (self.clients * self.requests) as u64
    }
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SearchCpu,
        Workload::SearchBw,
        Workload::HybridHot,
        Workload::KvRepl,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCpu => "search_cpu",
            Workload::SearchBw => "search_bw",
            Workload::HybridHot => "hybrid_hot",
            Workload::KvRepl => "kv_repl",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size. `tiny` is the smoke-test size: same shape, a
    /// few hundred requests.
    pub fn size(self, tiny: bool) -> Size {
        let (items, clients, requests) = match (self, tiny) {
            (Workload::SearchCpu, false) => (1_000_000, 256, 400),
            (Workload::SearchBw, false) => (100_000, 64, 250),
            (Workload::HybridHot, false) => (1_000_000, 256, 300),
            (Workload::KvRepl, false) => (100_000, 64, 1_500),
            (Workload::SearchCpu | Workload::HybridHot, true) => (20_000, 16, 10),
            (Workload::SearchBw, true) => (5_000, 8, 5),
            (Workload::KvRepl, true) => (2_000, 8, 20),
        };
        Size {
            items,
            clients,
            requests,
        }
    }
}

/// Everything a run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// At which size.
    pub size: Size,
    /// The seed everything derives from.
    pub seed: u64,
    /// R-tree dataset (empty for KV).
    pub rects: Vec<(Rect, u64)>,
    /// KV load (`key → 2·key`; empty for R-tree workloads).
    pub pairs: Vec<(u64, u64)>,
}

impl Inputs {
    /// Generates the dataset for `workload` at `size` from `seed`.
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
        let (rects, pairs) = match workload {
            Workload::KvRepl => (
                Vec::new(),
                (0..size.items as u64).map(|k| (k, kv_value(k))).collect(),
            ),
            _ => (uniform_rects(size.items, 1e-4, seed), Vec::new()),
        };
        Inputs {
            workload,
            size,
            seed,
            rects,
            pairs,
        }
    }

    /// The R-tree request trace spec with `requests` per client.
    pub fn trace_spec(&self, requests: usize) -> TraceSpec {
        match self.workload {
            Workload::SearchCpu => TraceSpec::search_only(ScaleDist::small(), requests),
            Workload::SearchBw => {
                TraceSpec::search_only(ScaleDist::Fixed { bound: 0.12 }, requests)
            }
            Workload::HybridHot => TraceSpec::hybrid(ScaleDist::power_law(), requests)
                .with_hotspot(SpatialHotspot::new(Rect::new(0.0, 0.0, 0.2, 1.0), 0.85)),
            Workload::KvRepl => panic!("kv_repl has no R-tree trace"),
        }
    }

    /// One client's R-tree requests, exactly as the harness generates them.
    pub fn client_trace(&self, client: usize) -> Vec<Request> {
        self.trace_spec(self.size.requests)
            .client_trace(client as u64, self.seed)
    }

    /// The harness spec of an R-tree workload with `requests` per client.
    /// Faults are pinned off, so a `CATFISH_FAULTS` variable in the
    /// environment cannot inject anything into a measured run.
    pub fn experiment(&self, requests: usize, traced: bool) -> ExperimentSpec {
        let (scheme, server, client_config, shards) = match self.workload {
            Workload::SearchCpu => (Scheme::Catfish, ServerConfig::default(), None, 1),
            Workload::SearchBw => {
                let server = ServerConfig {
                    cores: 4,
                    mailbox_slots: 4,
                    mailbox_slot_bytes: 768 * 1024,
                    ..ServerConfig::default()
                };
                let client = ClientConfig {
                    mode: AccessMode::Adaptive(AdaptiveParams {
                        heartbeat_interval: server.heartbeat_interval,
                        ..AdaptiveParams::three_way()
                    }),
                    multi_issue: true,
                    ..ClientConfig::default()
                };
                (Scheme::Catfish, server, Some(client), 1)
            }
            Workload::HybridHot => (Scheme::Catfish, ServerConfig::default(), None, 4),
            Workload::KvRepl => panic!("kv_repl does not run through the R-tree harness"),
        };
        ExperimentSpec {
            scheme,
            clients: self.size.clients,
            dataset: self.rects.clone(),
            trace: self.trace_spec(requests),
            server,
            client_config,
            tree_config: RTreeConfig::with_max_entries(FANOUT),
            seed: self.seed,
            shards,
            fault: Some(FaultConfig::off()),
            collect_spans: traced,
            collect_phase_spans: traced,
            collect_adaptive_events: traced,
            ..ExperimentSpec::default()
        }
    }

    /// Every KV client's operations: Zipf(0.99) keys, 20% puts.
    pub fn kv_traces(&self) -> Vec<Vec<KvOp>> {
        let sampler = ZipfSampler::new(self.size.items as u64, 0.99);
        (0..self.size.clients)
            .map(|client| {
                let mut rng = StdRng::seed_from_u64(
                    self.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                (0..self.size.requests)
                    .map(|_| {
                        let key = sampler.sample(&mut rng);
                        if rng.gen::<f64>() < KV_PUT_FRACTION {
                            KvOp::Put(key)
                        } else {
                            KvOp::Get(key)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Fraction of KV operations that are puts.
pub const KV_PUT_FRACTION: f64 = 0.2;

/// The value key `k` holds: the load writes it and every put rewrites it,
/// so every get and every put's previous value must read exactly this.
pub fn kv_value(key: u64) -> u64 {
    key * 2
}

/// One KV client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Look the key up.
    Get(u64),
    /// Rewrite the key with [`kv_value`].
    Put(u64),
}
