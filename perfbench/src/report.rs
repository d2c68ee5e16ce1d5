//! Named metrics with units, the output checks, and the result line.

use std::fmt::Write as _;

use catfish_core::obs::{AdaptiveEvent, Phase};
use catfish_core::ServiceStats;

use crate::kv::KV_REPLICAS;
use crate::layers::LayerCosts;
use crate::run::Outcome;
use crate::spans::{SelfTimes, KINDS};
use crate::workload::Workload;

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a report.
    pub name: String,
    /// Unit, e.g. `us`, `s`, `1/kop`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The metrics of one workload, in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every metric.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds one metric.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// True when `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_kop(count: u64, completed: u64) -> f64 {
    ratio(count * 1_000, completed)
}

/// The output checks every run must pass. Returns the violations.
pub fn check_outcome(o: &Outcome, attempted: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect_zero = |what: &str, n: u64| {
        if n != 0 {
            bad.push(format!("{what}: {n}"));
        }
    };
    expect_zero(
        "requests not completed",
        attempted.saturating_sub(o.completed),
    );
    expect_zero("requests out of retries", o.out_of_retries());
    expect_zero("wrong KV answers", o.wrong);
    expect_zero("decode errors", o.stats.decode_errors);
    expect_zero("checksum failures", o.stats.checksum_failures);
    expect_zero("ring resyncs", o.stats.resyncs);
    bad
}

/// End-to-end metrics of the untraced runs, the ones gated.
pub fn end_to_end(o: &Outcome, setup_s: f64, peak_rss_mb: f64) -> Report {
    let mut r = Report::default();
    r.add("kops", "kops", o.kops);
    r.add("mean_us", "us", us(o.all.mean.as_nanos()));
    r.add("setup_s", "s", setup_s);
    r.add("peak_rss_mb", "MiB", peak_rss_mb);
    r
}

/// End-to-end figures that are not gated. Host throughput drifts by more
/// than the largest bound between runs on a shared host; quantiles are
/// histogram bucket edges ~25% apart, so they jump between seeds or stay
/// put; the KV read latency does not vary at all; write latency exists
/// only on workloads that write; and the failure share is 0 on a passing
/// run.
pub fn ungated(o: &Outcome, attempted: u64, host_kops: f64) -> Report {
    let mut r = Report::default();
    r.add("host_kops", "kops", host_kops);
    r.add("read_p50_us", "us", us(o.read.p50.as_nanos()));
    r.add("read_p99_us", "us", us(o.read.p99.as_nanos()));
    r.add("read_mean_us", "us", us(o.read.mean.as_nanos()));
    r.add("write_p50_us", "us", us(o.write.p50.as_nanos()));
    r.add("write_p99_us", "us", us(o.write.p99.as_nanos()));
    r.add("write_mean_us", "us", us(o.write.mean.as_nanos()));
    r.add("failed_frac", "frac", ratio(o.failed(attempted), attempted));
    r
}

/// Offload share of the shard with the most client reads (the hot shard)
/// and the pooled share of all other shards (0 with one shard).
fn hot_cold_offload(per_shard: &[ServiceStats]) -> (f64, f64) {
    let reads = |s: &ServiceStats| s.fast_reads + s.fetched_reads + s.offloaded_reads;
    let Some(hot) = (0..per_shard.len()).max_by_key(|&i| (reads(&per_shard[i]), usize::MAX - i))
    else {
        return (0.0, 0.0);
    };
    let (mut off, mut all) = (0, 0);
    for (i, s) in per_shard.iter().enumerate() {
        if i != hot {
            off += s.offloaded_reads;
            all += reads(s);
        }
    }
    (
        ratio(per_shard[hot].offloaded_reads, reads(&per_shard[hot])),
        ratio(off, all),
    )
}

/// Route changes per virtual second: each time one client's choice of
/// transport for one shard differs from its previous choice.
fn transitions_per_s(o: &Outcome) -> f64 {
    let mut last = std::collections::HashMap::new();
    let mut changes = 0u64;
    for e in &o.adaptive_events {
        if let AdaptiveEvent::Route { route } = e.event {
            if let Some(prev) = last.insert((e.client, e.shard), route) {
                changes += u64::from(prev != route);
            }
        }
    }
    ratio(changes * 1_000_000_000, o.makespan_ns)
}

/// Share of the run's host time (set-up excluded) that the standalone
/// layer costs times the run's own call counts do not explain.
fn unattributed_frac(w: Workload, o: &Outcome, c: &LayerCosts, run_s: f64) -> f64 {
    let s = &o.stats;
    let served = s.fast_reads + s.fetched_reads + s.writes_sent + s.removes_sent;
    let reads = (s.fast_reads + s.fetched_reads + s.offloaded_reads) as f64;
    let attributed_ns = match w {
        Workload::KvRepl => {
            // Every forwarded put is one more ring round trip and one more
            // apply on each backup.
            let backups = (KV_REPLICAS - 1) as f64;
            let messages = served as f64 + s.repl_forwards as f64 * backups;
            messages * (c.ring_round_trip_ns + c.kv_encode_ns + c.kv_decode_ns)
                + reads * c.bplus_get_ns
                + s.writes_sent as f64 * KV_REPLICAS as f64 * c.bplus_put_ns
        }
        _ => {
            served as f64 * (c.ring_round_trip_ns + c.msg_encode_ns + c.msg_decode_ns)
                + reads * c.rtree_search_ns
                + s.writes_sent as f64 * c.rtree_insert_ns
        }
    };
    1.0 - attributed_ns / 1e9 / run_s
}

/// What the per-layer metrics of one workload are computed from.
pub struct LayerInputs<'a> {
    /// Which workload.
    pub workload: Workload,
    /// The untraced run (counters).
    pub untraced: &'a Outcome,
    /// The traced run (spans, phases, Algorithm 1 events).
    pub traced: &'a Outcome,
    /// Self times of the traced run.
    pub self_times: &'a SelfTimes,
    /// Standalone layer costs.
    pub costs: &'a LayerCosts,
    /// Requests attempted per run.
    pub attempted: u64,
    /// Seconds of dataset generation.
    pub gen_s: f64,
    /// Host seconds of the untraced and traced runs, set-up excluded.
    pub run_s: (f64, f64),
}

/// Every per-layer metric.
pub fn per_layer(i: &LayerInputs<'_>) -> Report {
    let o = i.untraced;
    let s = &o.stats;
    let c = i.costs;
    let mut r = Report::default();
    r.add("simnet.cpu.server_util", "frac", o.server_cpu);
    r.add("simnet.net.server_gbps", "Gbps", o.server_gbps);
    let reads = s.fast_reads + s.fetched_reads + s.offloaded_reads;
    r.add(
        "core.adaptive.fast_frac",
        "frac",
        ratio(s.fast_reads, reads),
    );
    r.add(
        "core.adaptive.fetch_frac",
        "frac",
        ratio(s.fetched_reads, reads),
    );
    r.add(
        "core.adaptive.offload_frac",
        "frac",
        ratio(s.offloaded_reads, reads),
    );
    let (hot, cold) = hot_cold_offload(&o.per_shard);
    r.add("core.adaptive.hot_offload_frac", "frac", hot);
    r.add("core.adaptive.cold_offload_frac", "frac", cold);
    r.add(
        "core.adaptive.transitions_per_s",
        "1/s",
        transitions_per_s(i.traced),
    );
    r.add(
        "core.service.client.chunks_per_offload",
        "count",
        ratio(s.chunks_fetched, s.offloaded_reads),
    );
    r.add(
        "core.service.client.torn_retries_per_kop",
        "1/kop",
        per_kop(s.torn_retries, o.completed),
    );
    r.add(
        "core.service.client.offload_restarts_per_kop",
        "1/kop",
        per_kop(s.offload_restarts, o.completed),
    );
    r.add(
        "core.service.client.offload_useful_ratio",
        "frac",
        ratio(s.offloaded_reads, s.offloaded_reads + s.offload_restarts),
    );
    r.add("core.service.client.timeouts", "count", s.timeouts as f64);
    r.add(
        "core.service.client.retransmits",
        "count",
        s.retransmits as f64,
    );
    r.add(
        "core.service.client.decode_errors",
        "count",
        s.decode_errors as f64,
    );
    r.add(
        "core.service.client.checksum_failures",
        "count",
        s.checksum_failures as f64,
    );
    r.add("core.ring.msgs_per_batch", "count", s.msgs_per_batch());
    r.add(
        "core.ring.merged_writes_per_kop",
        "1/kop",
        per_kop(s.merged_writes, o.completed),
    );
    r.add(
        "rdma.mailbox.fallback_frac",
        "frac",
        ratio(s.fetch_fallbacks, s.fetched_responses + s.fetch_fallbacks),
    );
    r.add(
        "rdma.mailbox.reclaims_per_kop",
        "1/kop",
        per_kop(s.mailbox_reclaims, o.completed),
    );
    r.add(
        "core.service.cluster.repl_lag_us",
        "us",
        us(s.mean_repl_lag().as_nanos()),
    );
    r.add(
        "core.service.cluster.repl_forwards_per_put",
        "count",
        ratio(s.repl_forwards, s.writes_sent),
    );

    for (k, h) in KINDS.iter().zip(&i.self_times.by_kind) {
        r.add(
            format!("span.{}.self_mean_us", k.name()),
            "us",
            us(h.mean().as_nanos()),
        );
        r.add(
            format!("span.{}.self_p99_us", k.name()),
            "us",
            us(h.quantile(0.99).as_nanos()),
        );
    }
    r.add("trace.traces", "count", i.self_times.traces as f64);
    r.add(
        "trace.disconnected",
        "count",
        i.self_times.disconnected as f64,
    );
    r.add(
        "trace.self_sum_mismatches",
        "count",
        i.self_times.sum_mismatches as f64,
    );
    for p in Phase::ALL {
        let h = i
            .traced
            .phase_hists
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, h)| h);
        r.add(
            format!("phase.{}.p50_us", p.name()),
            "us",
            h.map_or(0.0, |h| us(h.quantile(0.5).as_nanos())),
        );
        r.add(
            format!("phase.{}.count", p.name()),
            "count",
            h.map_or(0.0, |h| h.len() as f64),
        );
    }
    let host = |run_s: f64| crate::run::host_kops(i.attempted, run_s, 0.0);
    r.add(
        "trace.overhead.kops_delta",
        "kops",
        i.traced.kops - i.untraced.kops,
    );
    r.add(
        "trace.overhead.host_kops_delta",
        "kops",
        host(i.run_s.1) - host(i.run_s.0),
    );

    r.add("simnet.executor.event_ns", "ns", c.executor_event_ns);
    r.add("core.ring.round_trip_ns", "ns", c.ring_round_trip_ns);
    r.add("core.msg.encode_ns", "ns", c.msg_encode_ns);
    r.add("core.msg.decode_ns", "ns", c.msg_decode_ns);
    r.add("rtree.search_ns", "ns", c.rtree_search_ns);
    r.add("rtree.nodes_per_search", "count", c.rtree_nodes_per_search);
    r.add("rtree.items_per_search", "count", c.rtree_items_per_search);
    r.add("rtree.insert_ns", "ns", c.rtree_insert_ns);
    r.add("rtree.bulk_load_s", "s", c.rtree_bulk_load_s);
    r.add("workload.gen_s", "s", i.gen_s);
    r.add("bplus.get_ns", "ns", c.bplus_get_ns);
    r.add("bplus.put_ns", "ns", c.bplus_put_ns);
    r.add("bplus.build_s", "s", c.bplus_build_s);
    r.add("core.kv.encode_ns", "ns", c.kv_encode_ns);
    r.add("core.kv.decode_ns", "ns", c.kv_decode_ns);
    r.add(
        "host.unattributed_frac",
        "frac",
        unattributed_frac(i.workload, o, c, i.run_s.0),
    );
    for m in ungated(o, i.attempted, host(i.run_s.0)).metrics {
        r.metrics.push(m);
    }
    r
}

/// Formats a number as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (n, m) in metrics.iter().enumerate() {
        if n > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}
