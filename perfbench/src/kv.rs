//! The `kv_repl` workload: a replicated B+-tree KV cluster built with
//! `KvCluster::build_replicated` and driven by closed-loop
//! `KvClusterClient`s, the way the `kv_service` bench drives `KvServer`.

use std::cell::RefCell;
use std::rc::Rc;

use catfish_bplus::BpConfig;
use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::kv::{KvCluster, KvClusterClient};
use catfish_core::obs::{AdaptiveEventLog, LatencyHistogram, Phase, SpanLog, TraceSink};
use catfish_core::ServiceStats;
use catfish_rdma::{profile, Endpoint, RdmaProfile};
use catfish_simnet::{now, sleep, spawn, Network, Sim, SimDuration};

use crate::run::Outcome;
use crate::workload::{kv_value, Inputs, KvOp};

/// Shards (replica sets) in the KV cluster.
const KV_SHARDS: usize = 2;
/// Members per replica set.
pub const KV_REPLICAS: usize = 3;
/// Client machines the clients are spread over.
const CLIENT_NODES: usize = 8;

#[derive(Default)]
struct ClientOutcome {
    get: LatencyHistogram,
    put: LatencyHistogram,
    wrong: u64,
    stats: ServiceStats,
    per_shard: Vec<ServiceStats>,
}

/// Runs one KV client's operations and checks every answer: a get must
/// return `kv_value(key)`, and so must a put's previous value, since puts
/// rewrite the value the load wrote.
async fn client_task(client: &mut KvClusterClient, ops: Vec<KvOp>) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    for op in ops {
        let t0 = now();
        match op {
            KvOp::Get(key) => {
                let got = client.get(key).await;
                out.get.record(now() - t0);
                out.wrong += u64::from(got != Some(kv_value(key)));
            }
            KvOp::Put(key) => {
                let prev = client.put(key, kv_value(key)).await;
                out.put.record(now() - t0);
                out.wrong += u64::from(prev != Some(kv_value(key)));
            }
        }
    }
    out.stats = client.stats();
    out.per_shard = client.stats_per_shard();
    out
}

/// Builds the cluster, connects every client, runs `traces` (one per
/// client; empty traces measure set-up alone) and collects the outcome.
pub fn run(inputs: &Inputs, traces: Vec<Vec<KvOp>>, traced: bool) -> Outcome {
    let pairs = inputs.pairs.clone();
    let seed = inputs.seed;
    let sim = Sim::new();
    sim.run_until(async move {
        let net = Network::new();
        let prof = profile::infiniband_100g();
        let rkeys = RkeyAllocator::new();
        let server_cfg = ServerConfig {
            mode: ServerMode::EventDriven,
            ..ServerConfig::default()
        };
        let cluster = KvCluster::build_replicated(
            &net,
            &prof,
            server_cfg,
            BpConfig::default(),
            pairs,
            KV_SHARDS,
            KV_REPLICAS,
            &rkeys,
        );
        cluster.start_heartbeats();
        let sink = traced.then(TraceSink::new);
        let events = traced.then(AdaptiveEventLog::new);
        let spans = traced.then(SpanLog::new);
        for i in 0..cluster.shards() {
            for r in 0..cluster.replicas() {
                if let Some(sink) = &sink {
                    cluster.replica(i, r).set_trace(sink.clone());
                }
            }
        }
        if let Some(log) = &spans {
            cluster.set_span_log(log);
        }
        let eps: Vec<Endpoint> = (0..CLIENT_NODES)
            .map(|_| Endpoint::new(&net, net.add_node(prof.link), RdmaProfile::default()))
            .collect();
        let primaries: Vec<_> = (0..cluster.shards())
            .map(|i| cluster.shard(i).clone())
            .collect();
        let started = now();
        let outcomes: Rc<RefCell<Vec<ClientOutcome>>> = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::with_capacity(traces.len());
        for (c, ops) in traces.into_iter().enumerate() {
            let mut client = KvClusterClient::connect_from(
                &cluster,
                &eps[c % CLIENT_NODES],
                ClientConfig {
                    mode: AccessMode::Adaptive(AdaptiveParams {
                        heartbeat_interval: server_cfg.heartbeat_interval,
                        ..AdaptiveParams::default()
                    }),
                    ..ClientConfig::default()
                },
                seed ^ (c as u64).wrapping_mul(0x5851_F42D_4C95_7F2D),
            );
            if let Some(sink) = &sink {
                client.set_trace(sink);
            }
            if let Some(log) = &events {
                client.set_adaptive_event_log(&log.for_client(c as u32));
            }
            if let Some(log) = &spans {
                client.set_span_log(log.for_node(c as u32));
            }
            client.set_flight_ids(c as u32);
            let outcomes = Rc::clone(&outcomes);
            handles.push(spawn(async move {
                sleep(SimDuration::from_nanos(17_039 * c as u64)).await;
                let out = client_task(&mut client, ops).await;
                outcomes.borrow_mut().push(out);
            }));
        }
        let cpu_starts: Vec<_> = primaries.iter().map(|s| s.cpu().sample()).collect();
        let bw_starts: Vec<_> = primaries
            .iter()
            .map(|s| net.traffic(s.endpoint().node()))
            .collect();
        for h in handles {
            h.await;
        }
        let makespan = now() - started;
        let mut server_cpu = 0.0;
        let mut server_gbps = 0.0;
        for (i, s) in primaries.iter().enumerate() {
            server_cpu += s
                .cpu()
                .utilization_between(&cpu_starts[i], &s.cpu().sample());
            server_gbps += net
                .traffic(s.endpoint().node())
                .throughput_bps_since(&bw_starts[i])
                / 1e9;
        }
        server_cpu /= primaries.len() as f64;

        let outcomes = Rc::try_unwrap(outcomes)
            .unwrap_or_else(|_| panic!("all client tasks joined"))
            .into_inner();
        let mut read = LatencyHistogram::new();
        let mut write = LatencyHistogram::new();
        let mut stats = ServiceStats::default();
        let mut per_shard = vec![ServiceStats::default(); cluster.shards()];
        let mut wrong = 0;
        for o in &outcomes {
            read.merge(&o.get);
            write.merge(&o.put);
            stats.merge(&o.stats);
            wrong += o.wrong;
            for (i, s) in o.per_shard.iter().enumerate() {
                per_shard[i].merge(s);
            }
        }
        // Server-side counters the client cannot see: frame integrity,
        // doorbell merging and the replication pumps.
        for (i, ss) in cluster.stats_per_shard().into_iter().enumerate() {
            for target in [&mut per_shard[i], &mut stats] {
                target.decode_errors += ss.decode_errors;
                target.checksum_failures += ss.checksum_failures;
                target.resyncs += ss.resyncs;
                target.dup_drops += ss.dup_drops;
                target.merged_writes += ss.merged_writes;
                target.repl_forwards += ss.repl_forwards;
                target.repl_fenced += ss.repl_fenced;
                target.repl_dups += ss.repl_dups;
                target.repl_lag_ns += ss.repl_lag_ns;
            }
        }
        let mut all = read.clone();
        all.merge(&write);
        let completed = all.len() as u64;
        Outcome {
            completed,
            wrong,
            makespan_ns: makespan.as_nanos(),
            kops: if makespan.is_zero() {
                0.0
            } else {
                completed as f64 / makespan.as_secs_f64() / 1e3
            },
            all: all.summary(),
            read: read.summary(),
            write: write.summary(),
            stats,
            per_shard,
            server_cpu,
            server_gbps,
            phase_hists: sink
                .map(|sink| {
                    Phase::ALL
                        .iter()
                        .filter_map(|&p| sink.phase_histogram(p).map(|h| (p, h)))
                        .collect()
                })
                .unwrap_or_default(),
            adaptive_events: events.map(|log| log.snapshot()).unwrap_or_default(),
            spans: spans.map(|log| log.snapshot()).unwrap_or_default(),
        }
    })
}
