//! One run of a workload through the program's public entry points, and
//! the timed loops that turn runs into host-time figures.

use catfish_core::harness::run_experiment;
use catfish_core::obs::{AdaptiveEventRecord, LatencyHistogram, Phase, SpanRecord};
use catfish_core::{LatencySummary, ServiceStats};

use crate::kv;
use crate::workload::{Inputs, KvOp, Workload};

/// What one run of a workload produced, in virtual time.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests whose latency was recorded (they returned).
    pub completed: u64,
    /// KV answers that did not hold the value their key must hold.
    pub wrong: u64,
    /// Virtual time from the first request to the last completion.
    pub makespan_ns: u64,
    /// Completed requests per virtual second, in thousands.
    pub kops: f64,
    /// Latency of every request.
    pub all: LatencySummary,
    /// Latency of reads (searches, gets).
    pub read: LatencySummary,
    /// Latency of writes (inserts, puts).
    pub write: LatencySummary,
    /// Client counters merged over all clients, plus the server-side
    /// integrity counters.
    pub stats: ServiceStats,
    /// The same counters per shard.
    pub per_shard: Vec<ServiceStats>,
    /// Mean server CPU utilization, `[0, 1]`.
    pub server_cpu: f64,
    /// Server NIC throughput, Gbps.
    pub server_gbps: f64,
    /// Per-phase latency histograms (traced runs only).
    pub phase_hists: Vec<(Phase, LatencyHistogram)>,
    /// Algorithm 1 decision events (traced runs only).
    pub adaptive_events: Vec<AdaptiveEventRecord>,
    /// Causal spans (traced runs only).
    pub spans: Vec<SpanRecord>,
}

impl Outcome {
    /// Every virtual-time figure of the run, rendered exactly. Two runs of
    /// the same inputs must give the same string.
    pub fn fingerprint(&self) -> String {
        format!(
            "{} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            self.completed,
            self.wrong,
            self.makespan_ns,
            self.kops,
            self.all,
            self.read,
            self.write,
            self.stats,
            self.per_shard,
            self.server_cpu,
            self.server_gbps,
        )
    }

    /// Requests whose retry budget ran out: every timeout but the last of
    /// an exhausted budget triggers a retransmission.
    pub fn out_of_retries(&self) -> u64 {
        self.stats.timeouts.saturating_sub(self.stats.retransmits)
    }

    /// Attempts that did not complete correctly: requests that never
    /// returned, requests whose retry budget ran out, and wrong KV answers.
    pub fn failed(&self, attempted: u64) -> u64 {
        attempted.saturating_sub(self.completed) + self.out_of_retries() + self.wrong
    }
}

/// Runs `inputs` once with `requests` per client (0 builds, connects and
/// tears down without issuing a request).
pub fn execute(inputs: &Inputs, requests: usize, traced: bool) -> Outcome {
    match inputs.workload {
        Workload::KvRepl => {
            let traces: Vec<Vec<KvOp>> = if requests == 0 {
                vec![Vec::new(); inputs.size.clients]
            } else {
                inputs.kv_traces()
            };
            kv::run(inputs, traces, traced)
        }
        _ => {
            let r = run_experiment(&inputs.experiment(requests, traced));
            Outcome {
                completed: r.completed_requests as u64,
                wrong: 0,
                makespan_ns: r.makespan.as_nanos(),
                kops: r.throughput_kops,
                all: r.latency,
                read: r.search_latency,
                write: r.insert_latency,
                stats: r.stats,
                per_shard: r.per_shard_stats,
                server_cpu: r.server_cpu,
                server_gbps: r.server_bw_gbps,
                phase_hists: r.phase_hists,
                adaptive_events: r.adaptive_events,
                spans: r.spans,
            }
        }
    }
}

/// Runs `f` and returns its result with the host time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = cpu_seconds();
    let out = f();
    (out, cpu_seconds() - t0)
}

/// Simulated requests per host second, in thousands, once set-up is
/// taken out of a run's host time.
pub fn host_kops(completed: u64, run_s: f64, setup_s: f64) -> f64 {
    completed as f64 / (run_s - setup_s).max(1e-9) / 1e3
}

/// Host time: CPU seconds this process has used. The benchmark runs on
/// one thread, so this is its wall time minus any time another process
/// held the core.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value with the layout of `struct
    // timespec` on 64-bit Linux, which is all clock_gettime writes.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (four longs), then
    // fourteen longs starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of `struct rusage` on this target, which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
