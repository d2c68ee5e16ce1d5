//! Measurement: latency recording, summary statistics, and the unified
//! service counters shared by every backend.

use std::fmt;

use catfish_simnet::SimDuration;

/// Unified operation counters for a Catfish service endpoint.
///
/// One struct covers both sides of a connection: servers populate the
/// request-execution counters (`reads`, `writes`, ...), clients populate the
/// path-routing and offload counters (`fast_reads`, `torn_retries`, ...).
/// Keeping a single index-agnostic struct (instead of the drifted per-service
/// `ServerStats`/`ClientStats`/`KvClientStats` copies it replaced) means the
/// harness and figure binaries aggregate every backend the same way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Read requests (searches, gets, ranges, kNN) executed server-side.
    pub reads: u64,
    /// Write requests (inserts, puts) executed server-side.
    pub writes: u64,
    /// Remove requests (deletes) executed server-side.
    pub removes: u64,
    /// Total result items returned by server-side reads.
    pub results_returned: u64,
    /// Total index nodes visited by server-side operations.
    pub nodes_visited: u64,
    /// Client reads served through fast messaging.
    pub fast_reads: u64,
    /// Client reads served through RDMA-offloaded traversal.
    pub offloaded_reads: u64,
    /// Write requests sent by the client (always fast messaging).
    pub writes_sent: u64,
    /// Remove requests sent by the client.
    pub removes_sent: u64,
    /// Chunk reads retried after version-validation failure (torn reads).
    pub torn_retries: u64,
    /// Metadata chunk reads issued by the client.
    pub meta_refreshes: u64,
    /// Offloaded traversals restarted after observing an inconsistency.
    pub offload_restarts: u64,
    /// Chunks fetched over the wire by offloaded traversals.
    pub chunks_fetched: u64,
    /// Chunk reads avoided by the client-side level cache.
    pub cache_hits: u64,
    /// Doorbell batches sent (ring frames carrying ≥ 2 coalesced
    /// messages, on either side of the connection).
    pub batches_sent: u64,
    /// Messages carried inside those batches (so
    /// [`ServiceStats::msgs_per_batch`] is observable).
    pub batched_msgs: u64,
    /// Malformed ring frames dropped by the server's decode step.
    pub decode_errors: u64,
    /// Client request attempts that hit their deadline without a response.
    pub timeouts: u64,
    /// Requests retransmitted after a timeout (≤ `timeouts`: each timeout
    /// triggers at most one retransmission; the final timeout of an
    /// exhausted budget triggers none).
    pub retransmits: u64,
    /// Retried requests the server recognized by sequence number and
    /// answered from its duplicate-detection window instead of
    /// re-executing (keeps retried inserts/deletes idempotent).
    pub dup_drops: u64,
    /// Ring frames dropped because their payload checksum failed.
    pub checksum_failures: u64,
    /// Lost-write holes skipped by ring resync scans.
    pub resyncs: u64,
    /// Windows in which the adaptive failsafe declared the heartbeat
    /// stream stale and failed over to offloading (edge-triggered: one
    /// count per fresh→stale transition).
    pub stale_heartbeat_windows: u64,
    /// Ring writes that piggybacked on an already-in-flight doorbell
    /// (RDMAbox-style merged writes; folded from the response-ring
    /// senders).
    pub merged_writes: u64,
    /// Client reads served through the mailbox-fetch path (one-sided
    /// pulls of a deposited response).
    pub fetched_reads: u64,
    /// Responses the server deposited into mailbox slots instead of
    /// ring-writing them.
    pub fetched_responses: u64,
    /// Fetch-flagged responses that fell back to ring write-back (slot
    /// overflow or no mailbox allocated).
    pub fetch_fallbacks: u64,
    /// Mailbox slot leases reclaimed by the server's heartbeat tick
    /// (acked by the client or expired past the lease TTL).
    pub mailbox_reclaims: u64,
    /// Flight-recorder dumps fired by connection anomalies (timeouts,
    /// checksum failures, resyncs, stale-heartbeat failovers, fetch
    /// fallbacks).
    pub flight_dumps: u64,
    /// Mutations a primary forwarded to its backups (one count per
    /// acknowledged mutation, regardless of backup fan-out).
    pub repl_forwards: u64,
    /// Mutations fenced by a replica: stale epoch, or a client submission
    /// landing on a non-primary after a promotion.
    pub repl_fenced: u64,
    /// Mutations answered from the replica-set applied-operation table —
    /// failover reissues a new primary recognized by `(origin, op_id)`.
    pub repl_dups: u64,
    /// Total nanoseconds primaries spent awaiting backup acknowledgement
    /// (replication lag; divide by `repl_forwards` for the mean).
    pub repl_lag_ns: u64,
}

impl ServiceStats {
    /// Adds every counter of `other` into `self` (harness aggregation).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.removes += other.removes;
        self.results_returned += other.results_returned;
        self.nodes_visited += other.nodes_visited;
        self.fast_reads += other.fast_reads;
        self.offloaded_reads += other.offloaded_reads;
        self.writes_sent += other.writes_sent;
        self.removes_sent += other.removes_sent;
        self.torn_retries += other.torn_retries;
        self.meta_refreshes += other.meta_refreshes;
        self.offload_restarts += other.offload_restarts;
        self.chunks_fetched += other.chunks_fetched;
        self.cache_hits += other.cache_hits;
        self.batches_sent += other.batches_sent;
        self.batched_msgs += other.batched_msgs;
        self.decode_errors += other.decode_errors;
        self.timeouts += other.timeouts;
        self.retransmits += other.retransmits;
        self.dup_drops += other.dup_drops;
        self.checksum_failures += other.checksum_failures;
        self.resyncs += other.resyncs;
        self.stale_heartbeat_windows += other.stale_heartbeat_windows;
        self.merged_writes += other.merged_writes;
        self.fetched_reads += other.fetched_reads;
        self.fetched_responses += other.fetched_responses;
        self.fetch_fallbacks += other.fetch_fallbacks;
        self.mailbox_reclaims += other.mailbox_reclaims;
        self.flight_dumps += other.flight_dumps;
        self.repl_forwards += other.repl_forwards;
        self.repl_fenced += other.repl_fenced;
        self.repl_dups += other.repl_dups;
        self.repl_lag_ns += other.repl_lag_ns;
    }

    /// Mean primary→backup replication lag per forwarded mutation.
    pub fn mean_repl_lag(&self) -> SimDuration {
        self.repl_lag_ns
            .checked_div(self.repl_forwards)
            .map_or(SimDuration::ZERO, SimDuration::from_nanos)
    }

    /// Fraction of client reads that went through the offloaded path,
    /// in `[0, 1]` (0 when no reads were issued).
    pub fn offload_fraction(&self) -> f64 {
        let total = self.fast_reads + self.offloaded_reads;
        if total == 0 {
            0.0
        } else {
            self.offloaded_reads as f64 / total as f64
        }
    }

    /// Mean messages per doorbell batch (0 when no batches were sent).
    pub fn msgs_per_batch(&self) -> f64 {
        if self.batches_sent == 0 {
            0.0
        } else {
            self.batched_msgs as f64 / self.batches_sent as f64
        }
    }

    /// The transport mode that served the plurality of client reads —
    /// `"fast"`, `"fetch"`, `"offload"`, or `"-"` when no reads ran.
    /// Bench rows print this so tables show which path traffic took.
    pub fn dominant_transport(&self) -> &'static str {
        let (f, m, o) = (self.fast_reads, self.fetched_reads, self.offloaded_reads);
        if f == 0 && m == 0 && o == 0 {
            "-"
        } else if f >= m && f >= o {
            "fast"
        } else if m >= o {
            "fetch"
        } else {
            "offload"
        }
    }
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fast {} / fetched {} / offloaded {} ({:.1}% offloaded, dominant {}), torn retries {}, \
             restarts {}, cache hits {}, batches {} ({:.1} msgs/batch), merged writes {}, \
             deposits {} (fallbacks {}, reclaims {}), decode errors {}, timeouts {}, \
             retransmits {}, dup drops {}, checksum failures {}, resyncs {}, stale hb windows {}, \
             flight dumps {}, repl forwards {} (fenced {}, dups {}, mean lag {})",
            self.fast_reads,
            self.fetched_reads,
            self.offloaded_reads,
            self.offload_fraction() * 100.0,
            self.dominant_transport(),
            self.torn_retries,
            self.offload_restarts,
            self.cache_hits,
            self.batches_sent,
            self.msgs_per_batch(),
            self.merged_writes,
            self.fetched_responses,
            self.fetch_fallbacks,
            self.mailbox_reclaims,
            self.decode_errors,
            self.timeouts,
            self.retransmits,
            self.dup_drops,
            self.checksum_failures,
            self.resyncs,
            self.stale_heartbeat_windows,
            self.flight_dumps,
            self.repl_forwards,
            self.repl_fenced,
            self.repl_dups,
            self.mean_repl_lag(),
        )
    }
}

/// Summary statistics over a set of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 90th percentile.
    pub p90: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Minimum.
    pub min: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {} p50 {} p90 {} p95 {} p99 {} p999 {} max {} (n={})",
            self.mean, self.p50, self.p90, self.p95, self.p99, self.p999, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_stats_merge_adds_every_counter() {
        let mut a = ServiceStats {
            reads: 1,
            fast_reads: 3,
            offloaded_reads: 1,
            torn_retries: 2,
            ..ServiceStats::default()
        };
        let b = ServiceStats {
            reads: 2,
            offloaded_reads: 2,
            cache_hits: 5,
            timeouts: 4,
            retransmits: 3,
            dup_drops: 2,
            checksum_failures: 1,
            resyncs: 1,
            stale_heartbeat_windows: 1,
            merged_writes: 6,
            fetched_reads: 2,
            fetched_responses: 2,
            fetch_fallbacks: 1,
            mailbox_reclaims: 2,
            repl_forwards: 4,
            repl_fenced: 2,
            repl_dups: 1,
            repl_lag_ns: 8_000,
            ..ServiceStats::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.merged_writes, 6);
        assert_eq!(a.fetched_reads, 2);
        assert_eq!(a.fetched_responses, 2);
        assert_eq!(a.fetch_fallbacks, 1);
        assert_eq!(a.mailbox_reclaims, 2);
        assert_eq!(a.timeouts, 4);
        assert_eq!(a.retransmits, 3);
        assert_eq!(a.dup_drops, 2);
        assert_eq!(a.checksum_failures, 1);
        assert_eq!(a.resyncs, 1);
        assert_eq!(a.stale_heartbeat_windows, 1);
        assert_eq!(a.fast_reads, 3);
        assert_eq!(a.offloaded_reads, 3);
        assert_eq!(a.torn_retries, 2);
        assert_eq!(a.cache_hits, 5);
        assert!((a.offload_fraction() - 0.5).abs() < 1e-12);
        assert!(a.to_string().contains("50.0% offloaded"));
        assert_eq!(a.repl_forwards, 4);
        assert_eq!(a.repl_fenced, 2);
        assert_eq!(a.repl_dups, 1);
        assert_eq!(a.mean_repl_lag(), SimDuration::from_nanos(2_000));
        assert!(a.to_string().contains("repl forwards 4 (fenced 2, dups 1"));
    }

    #[test]
    fn empty_service_stats_display_is_sane() {
        let s = ServiceStats::default();
        assert_eq!(s.offload_fraction(), 0.0);
        assert!(s.to_string().contains("fast 0"));
        assert_eq!(s.dominant_transport(), "-");
    }

    #[test]
    fn dominant_transport_picks_the_plurality_path() {
        let mut s = ServiceStats {
            fast_reads: 5,
            fetched_reads: 2,
            offloaded_reads: 1,
            ..ServiceStats::default()
        };
        assert_eq!(s.dominant_transport(), "fast");
        s.fetched_reads = 9;
        assert_eq!(s.dominant_transport(), "fetch");
        s.offloaded_reads = 20;
        assert_eq!(s.dominant_transport(), "offload");
        assert!(s.to_string().contains("dominant offload"));
    }
}
