//! The generic Catfish client: fast messaging, RDMA-offloaded traversal
//! with multi-issue, and the adaptive back-off coordination (Algorithm 1),
//! shared by every [`ClientBackend`].

use std::collections::HashMap;

use catfish_rdma::mailbox::{mailbox_crc32, SLOT_HEADER_BYTES};
use catfish_rdma::{QueuePair, SlotHeader};
use catfish_rtree::codec::{CodecError, RemoteLayout};
use catfish_rtree::{NodeId, TreeMeta};
use catfish_simnet::{now, sleep, spawn, CpuPool, SimDuration, SimTime};

use crate::adaptive::AdaptiveState;
use crate::config::{AccessMode, ClientConfig};
use crate::conn::ClientChannel;
use crate::obs::{
    Anomaly, FlightEvent, FlightRecorder, Phase, RouteChoice, SpanKind, SpanLog, TraceContext,
    TraceSink, TRACE_FLAG_BATCHED, TRACE_FLAG_FETCH, TRACE_FLAG_RETRANSMIT,
};
use crate::stats::ServiceStats;

use super::{
    ClientBackend, HeartbeatInfo, Incoming, Inconsistent, LayoutNode, OpKind, RemoteHandle,
    ReplEnvelope, SearchPath, WireCodec, WireItem, WireMessage, FETCH_FLAG, STATUS_UNACKED,
};

/// Why one chunk read gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkReadError {
    /// Retries exhausted on torn reads.
    TooManyRetries,
    /// The chunk no longer decodes to a plausible node (stale pointer).
    Inconsistent,
}

/// The client-side span currently open for the in-flight operation: the
/// tree position every wire envelope and child span of the operation
/// attaches to.
#[derive(Debug, Clone, Copy)]
struct OpenOp {
    trace_id: u64,
    span_id: u64,
    parent: u64,
    start_ns: u64,
}

/// One primary→backup forwarding leg: the bare mutation, its replication
/// envelope, and the `(trace id, parent span)` of the request behind it.
pub(crate) type ForwardLeg<B> = (WireMessage<B>, ReplEnvelope, Option<(u64, u64)>);

/// One request's outcome in [`ServiceClient::exchange`].
struct Reply<B: ClientBackend> {
    /// END status; [`STATUS_UNACKED`] when the retry budget gave up.
    status: u32,
    /// Items of its CONT/END segments (of the last attempt, if unacked).
    items: Vec<WireItem<B>>,
    /// Span clock when its END arrived, or when the exchange gave up.
    at_ns: u64,
}

/// A Catfish client bound to one connection, generic over the index being
/// served. Owns the single implementation of request/response sequencing,
/// heartbeat consumption, Algorithm 1 routing, and the offloaded traversal
/// engine; the backend contributes only [`ClientBackend::read_request`] and
/// [`ClientBackend::expand`].
pub struct ServiceClient<B: ClientBackend> {
    pub(crate) ch: ClientChannel,
    pub(crate) cfg: ClientConfig,
    pub(crate) handle: RemoteHandle<B::Layout>,
    pub(crate) seq: u32,
    pub(crate) adaptive: AdaptiveState,
    pub(crate) meta_cache: Option<(TreeMeta, SimTime)>,
    pub(crate) node_cache: HashMap<NodeId, (LayoutNode<B>, SimTime)>,
    /// When set, responses are detected by busy-polling a core of this
    /// (client-machine) pool, FaRM-style, instead of blocking on the
    /// completion channel — the client-side half of the oversubscription
    /// collapse in paper Fig. 7.
    pub(crate) poll_pool: Option<CpuPool>,
    pub(crate) stats: ServiceStats,
    pub(crate) trace: TraceSink,
    /// Distributed span log (inactive unless the run opted in).
    pub(crate) span: SpanLog,
    /// The operation span currently open (one at a time per client; an
    /// offload→fast fallback nests into the same tree).
    cur_op: Option<OpenOp>,
    /// Set by the cluster layer before a per-shard leg: the next
    /// operation becomes an `Rpc` child of `(trace_id, parent_span)`
    /// instead of a fresh root.
    pub(crate) pending_parent: Option<(u64, u64)>,
    /// Set by the replication layer before a mutation: the next
    /// [`ServiceClient::fast_request`] wraps its request in a
    /// [`ReplEnvelope`] (stable origin/op identity, epoch fence) with
    /// `link_seq` bound to the connection sequence number at send time.
    pub(crate) pending_origin: Option<ReplEnvelope>,
    /// Always-on recorder of recent protocol events, dumped on anomalies.
    pub(crate) flight: FlightRecorder,
    /// Virtual instant of the last heartbeat consumed (for annotating
    /// stale-heartbeat anomalies with the silence length).
    last_heartbeat: Option<SimTime>,
    /// Stale-window count already reported to the flight recorder.
    stale_reported: u64,
}

impl<B: ClientBackend> std::fmt::Debug for ServiceClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("seq", &self.seq)
            .field("adaptive", &self.adaptive)
            .finish()
    }
}

impl<B: ClientBackend> ServiceClient<B> {
    /// Creates a client over an established channel. `seed` drives the
    /// back-off randomization.
    pub fn new(
        ch: ClientChannel,
        handle: RemoteHandle<B::Layout>,
        cfg: ClientConfig,
        seed: u64,
    ) -> Self {
        let params = match cfg.mode {
            AccessMode::Adaptive(p) => p,
            _ => Default::default(),
        };
        let mut adaptive = AdaptiveState::new(params, seed);
        adaptive.set_item_bytes(B::Wire::ITEM_WIRE_BYTES);
        let flight = FlightRecorder::new();
        ch.rx.set_flight(flight.clone());
        ServiceClient {
            ch,
            cfg,
            handle,
            seq: 0,
            adaptive,
            meta_cache: None,
            node_cache: HashMap::new(),
            poll_pool: None,
            stats: ServiceStats::default(),
            trace: TraceSink::default(),
            span: SpanLog::default(),
            cur_op: None,
            pending_parent: None,
            pending_origin: None,
            flight,
            last_heartbeat: None,
            stale_reported: 0,
        }
    }

    /// Routes this client's phase spans into `sink`: the request ring
    /// sender reports [`Phase::RingEnqueue`], and the client itself
    /// reports [`Phase::CqWait`], [`Phase::MetaRead`],
    /// [`Phase::OffloadRead`], and [`Phase::OffloadRetry`]. With the
    /// `trace` feature disabled this wires nothing.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.ch.tx.set_trace(sink.clone(), Phase::RingEnqueue);
        self.trace = sink;
        self
    }

    /// The sink this client's spans go to (a fresh untraced sink unless
    /// [`ServiceClient::with_trace`] was used).
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Emits this client's Algorithm 1 decision steps into `log`
    /// (see [`crate::obs::AdaptiveEventLog`]).
    pub fn set_adaptive_event_log(&mut self, log: crate::obs::AdaptiveEventLog) {
        self.adaptive.set_event_log(log);
    }

    /// Routes this client's distributed spans into `log` (an active log
    /// turns on wire trace envelopes for every request this client sends).
    pub fn set_span_log(&mut self, log: SpanLog) {
        self.span = log;
    }

    /// The span log this client records into.
    pub fn span_log(&self) -> &SpanLog {
        &self.span
    }

    /// This client's flight recorder (always on).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Stamps the connection identity onto flight dumps.
    pub fn set_flight_ids(&self, client: u32, shard: u32) {
        self.flight.set_ids(client, shard);
    }

    /// Opens the operation span: a fresh root, or — when the cluster
    /// layer staged a parent — an `Rpc` child leg. Returns `true` when a
    /// span was opened (`false` nests a fallback path, e.g. offload →
    /// fast, into the already-open tree instead of forking a new one).
    pub(crate) fn op_begin(&mut self) -> bool {
        if !self.span.active() || self.cur_op.is_some() {
            self.pending_parent = None;
            return false;
        }
        let span_id = self.span.next_span_id();
        let (trace_id, parent) = match self.pending_parent.take() {
            Some((tid, parent)) => (tid, parent),
            None => (span_id, 0),
        };
        self.cur_op = Some(OpenOp {
            trace_id,
            span_id,
            parent,
            start_ns: self.span.now_ns(),
        });
        true
    }

    /// Closes the operation span opened by the matching
    /// [`ServiceClient::op_begin`] and records it (`Request` root or
    /// `Rpc` leg).
    pub(crate) fn op_end(&mut self, opened: bool) {
        if !opened {
            return;
        }
        if let Some(op) = self.cur_op.take() {
            let kind = if op.parent == 0 {
                SpanKind::Request
            } else {
                SpanKind::Rpc
            };
            self.span.record(
                op.trace_id,
                op.span_id,
                op.parent,
                kind,
                op.start_ns,
                self.span.now_ns(),
            );
        }
    }

    /// The wire context for the in-flight operation: server-side spans
    /// attach under the open op span. `None` (no envelope) when tracing
    /// is inactive.
    fn wire_ctx(&self, flags: u8) -> Option<TraceContext> {
        self.cur_op.map(|op| TraceContext {
            trace_id: op.trace_id,
            parent_span: op.span_id,
            flags,
        })
    }

    /// Whether this connection's heartbeat-staleness failsafe is engaged
    /// — the promotion trigger the replicated cluster client watches.
    /// Time-aware: drains pending heartbeats first, then advances the
    /// failsafe to the current instant, so a silent primary is detected
    /// even between routing decisions.
    pub fn is_stale(&mut self) -> bool {
        self.drain_pending();
        self.adaptive.probe_stale()
    }

    /// Reports fresh stale-heartbeat failovers (edge-triggered by the
    /// adaptive layer) to the flight recorder, annotated with how long
    /// the heartbeat stream had been silent.
    fn check_stale_heartbeat(&mut self) {
        let windows = self.adaptive.stale_windows();
        if windows > self.stale_reported {
            self.stale_reported = windows;
            let silent_ns = self
                .last_heartbeat
                .map(|at| now().saturating_duration_since(at).as_nanos())
                .unwrap_or(0);
            self.flight.anomaly(Anomaly::StaleHeartbeat { silent_ns });
        }
    }

    /// Switches response detection to busy-polling on a core of `pool`
    /// (the client machine's CPUs). With more client threads per machine
    /// than cores, response pickup waits for the thread's next scheduling
    /// turn — reproducing the client-side half of Fig. 7's collapse.
    pub fn with_response_polling(mut self, pool: CpuPool) -> Self {
        self.poll_pool = Some(pool);
        self
    }

    /// Counters so far, folding in the response-ring integrity counters
    /// and the adaptive staleness-failsafe windows.
    pub fn stats(&self) -> ServiceStats {
        let mut st = self.stats;
        st.checksum_failures += self.ch.rx.checksum_failures();
        st.resyncs += self.ch.rx.resyncs();
        st.stale_heartbeat_windows += self.adaptive.stale_windows();
        st.flight_dumps += self.flight.dump_count();
        st
    }

    /// Receives the next ring message, either event-driven (block on the
    /// completion channel, off-CPU) or by holding a core and polling.
    /// Gives up at `deadline` (the per-attempt request timeout).
    async fn recv_ring_message(&mut self, deadline: SimTime) -> Option<Vec<u8>> {
        match self.poll_pool.clone() {
            None => self.ch.rx.wait_message_until(deadline).await,
            Some(pool) => loop {
                if now() >= deadline {
                    return None;
                }
                let quantum = pool.quantum();
                let core = pool.acquire().await;
                let turn_end = now() + quantum;
                let turn_end = if turn_end < deadline {
                    turn_end
                } else {
                    deadline
                };
                let got = self.ch.rx.wait_message_until(turn_end).await;
                drop(core);
                if got.is_some() {
                    return got;
                }
                // Turn expired without a message: requeue behind the other
                // polling threads on this machine.
                catfish_simnet::yield_now().await;
            },
        }
    }

    /// Doubles a backoff up to the configured ceiling.
    fn next_backoff(&self, backoff: SimDuration) -> SimDuration {
        let doubled = backoff.as_nanos().saturating_mul(2);
        SimDuration::from_nanos(doubled.min(self.cfg.retry_backoff_max.as_nanos()))
    }

    /// Handles one request-attempt timeout: counts it, nudges a possibly
    /// wedged response stream past any lost-write hole, and backs off
    /// (attributed to [`Phase::RetryBackoff`]). Returns `false` when the
    /// retry budget is exhausted.
    async fn timeout_backoff(&mut self, seq: u32, retries: u32, backoff: SimDuration) -> bool {
        self.stats.timeouts += 1;
        self.flight.anomaly(Anomaly::Timeout { seq });
        if retries >= self.cfg.max_retries {
            return false;
        }
        self.ch.rx.resync();
        let span = self.trace.begin();
        sleep(backoff).await;
        self.trace.end(Phase::RetryBackoff, span);
        true
    }

    /// Consumes everything already sitting in the response ring —
    /// primarily heartbeats accumulated while the client was offloading.
    pub(crate) fn drain_pending(&mut self) {
        while let Some(bytes) = self.ch.rx.try_pop() {
            if let Ok(msg) = B::Wire::decode(&bytes) {
                if let Incoming::Heartbeat(p) = B::Wire::classify(msg) {
                    self.note_heartbeat(p);
                }
            }
        }
    }

    fn note_heartbeat(&mut self, info: HeartbeatInfo) {
        self.last_heartbeat = Some(now());
        self.flight.note(FlightEvent::HeartbeatRx {
            util_permille: info.util_permille,
        });
        self.adaptive.note_heartbeat_info(info);
    }

    /// Executes `read`, choosing the execution path per the configured
    /// [`AccessMode`].
    pub async fn read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        self.read_traced(read).await.0
    }

    /// Like [`ServiceClient::read`], also reporting which path ran.
    pub async fn read_traced(&mut self, read: &B::Read) -> (Vec<WireItem<B>>, SearchPath) {
        self.drain_pending();
        let route = match self.cfg.mode {
            AccessMode::FastMessaging => RouteChoice::Fast,
            AccessMode::Offloading => RouteChoice::Offload,
            AccessMode::Fetching => RouteChoice::Fetch,
            AccessMode::Adaptive(_) => self.adaptive.decide_route(),
        };
        self.flight.note(FlightEvent::Route { route });
        self.check_stale_heartbeat();
        let opened = self.op_begin();
        let (items, path) = match route {
            RouteChoice::Offload => {
                self.stats.offloaded_reads += 1;
                (self.offload_read(read).await, SearchPath::Offloaded)
            }
            RouteChoice::Fetch => {
                self.stats.fetched_reads += 1;
                (self.fetch_read(read).await, SearchPath::Fetched)
            }
            RouteChoice::Fast => {
                self.stats.fast_reads += 1;
                (self.fast_read(read).await, SearchPath::FastMessaging)
            }
        };
        // Every observed response feeds the expected-size EWMA the
        // three-way policy compares against the fetch crossover.
        self.adaptive.note_response_items(items.len());
        self.op_end(opened);
        (items, path)
    }

    // ------------------------------------------------------------------
    // Fast messaging
    // ------------------------------------------------------------------

    /// Sends one request over the ring and collects its CONT/END response
    /// segments, returning `(status, items)`. Heartbeats observed while
    /// waiting are recorded; stale or unexpected messages are dropped.
    /// Giving up (retry budget spent, or the ring is closed) returns
    /// [`STATUS_UNACKED`]: the request *may* have executed — only an END
    /// frame proves acknowledgement.
    pub(crate) async fn fast_request(
        &mut self,
        build: impl FnOnce(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        self.seq += 1;
        let seq = self.seq;
        // The envelopes are applied once, so every retransmission
        // re-sends the identical traced bytes.
        let mut msg = build(seq);
        if let Some(mut env) = self.pending_origin.take() {
            env.link_seq = seq;
            msg = B::Wire::replicated(env, msg);
        }
        if let Some(ctx) = self.wire_ctx(0) {
            msg = B::Wire::traced(ctx, msg);
        }
        let reply = self.exchange(seq, 1, |_, _| msg.clone()).await;
        let Reply { status, items, .. } = reply.into_iter().next().expect("one request");
        (status, items)
    }

    /// The one send → collect ENDs → deadline → backoff → retransmit loop
    /// behind fast messaging, read batches and forwarding legs. Sends
    /// requests `0..n`, numbered `first_seq..`, as one ring frame — a
    /// `Batch` frame when `n > 1` — and collects each one's CONT/END
    /// segments by sequence number. On a timeout only the still-pending
    /// requests are retransmitted, with capped exponential backoff, under
    /// their original sequence numbers, so the server's dedup window keeps
    /// retried writes exactly-once.
    ///
    /// `build(i, flags)` makes request `i` for each (re)send; `flags` are
    /// the trace flags the frame warrants ([`TRACE_FLAG_BATCHED`] when the
    /// request shares it, [`TRACE_FLAG_RETRANSMIT`] on a replay). Returns
    /// one [`Reply`] per request, in order.
    async fn exchange(
        &mut self,
        first_seq: u32,
        n: usize,
        mut build: impl FnMut(usize, u8) -> WireMessage<B>,
    ) -> Vec<Reply<B>> {
        let index = |seq: u32| {
            let i = seq.wrapping_sub(first_seq) as usize;
            (i < n).then_some(i)
        };
        let mut replies: Vec<Reply<B>> = (0..n)
            .map(|_| Reply {
                status: STATUS_UNACKED,
                items: Vec::new(),
                at_ns: 0,
            })
            .collect();
        let mut pending = vec![true; n];
        let mut left = n;
        let mut send: Vec<usize> = (0..n).collect();
        // CqWait: request delivered until the last END is in hand —
        // everything the client spends blocked on the response path.
        let mut wait_span = None;
        let mut retries = 0u32;
        let mut backoff = self.cfg.retry_backoff;
        loop {
            let mut flags = if retries > 0 {
                TRACE_FLAG_RETRANSMIT
            } else {
                0
            };
            let frame = if let [i] = send[..] {
                B::Wire::encode(&build(i, flags))
            } else {
                flags |= TRACE_FLAG_BATCHED;
                self.stats.batches_sent += 1;
                self.stats.batched_msgs += send.len() as u64;
                let msgs = send.iter().map(|&i| build(i, flags)).collect();
                B::Wire::encode(&B::Wire::batch(msgs))
            };
            let frame_seq = first_seq.wrapping_add(send[0] as u32);
            if self.ch.tx.send(&frame, frame_seq).await.is_err() {
                break;
            }
            if retries == 0 {
                self.flight.note(FlightEvent::Send {
                    seq: frame_seq,
                    bytes: frame.len() as u32,
                });
                wait_span = Some(self.trace.begin());
            }
            let deadline = now() + self.cfg.request_timeout;
            while left > 0 {
                let Some(bytes) = self.recv_ring_message(deadline).await else {
                    break;
                };
                let Ok(msg) = B::Wire::decode(&bytes) else {
                    continue;
                };
                match B::Wire::classify(msg) {
                    Incoming::Heartbeat(p) => self.note_heartbeat(p),
                    Incoming::Cont { seq, items } => {
                        if let Some(i) = index(seq).filter(|&i| pending[i]) {
                            replies[i].items.extend(items);
                        }
                    }
                    Incoming::End { seq, items, status } => {
                        if let Some(i) = index(seq).filter(|&i| pending[i]) {
                            pending[i] = false;
                            left -= 1;
                            let reply = &mut replies[i];
                            reply.items.extend(items);
                            reply.status = status;
                            reply.at_ns = self.span.now_ns();
                            self.flight.note(FlightEvent::Recv {
                                seq,
                                items: reply.items.len() as u32,
                            });
                        }
                    }
                    _ => {}
                }
            }
            if left == 0 {
                break;
            }
            send = (0..n).filter(|&i| pending[i]).collect();
            let timed_out = first_seq.wrapping_add(send[0] as u32);
            if !self.timeout_backoff(timed_out, retries, backoff).await {
                break;
            }
            backoff = self.next_backoff(backoff);
            retries += 1;
            self.stats.retransmits += send.len() as u64;
            for &i in &send {
                // Partial CONTs of the abandoned attempt are re-sent in full.
                replies[i].items.clear();
                self.flight.note(FlightEvent::Retransmit {
                    seq: first_seq.wrapping_add(i as u32),
                });
            }
        }
        if let Some(span) = wait_span {
            self.trace.end(Phase::CqWait, span);
        }
        let gave_up = self.span.now_ns();
        for (reply, _) in replies.iter_mut().zip(pending).filter(|(_, p)| *p) {
            reply.at_ns = gave_up;
        }
        replies
    }

    /// Ships already-applied mutations down this connection as one
    /// group-committed frame — the primary→backup forwarding leg. Each leg
    /// is `(mutation, envelope, trace parent)`; it gets its own link
    /// sequence number (bound into the envelope) and, when its parent is
    /// given, its own `Rpc` child span under the request that triggered
    /// it, so every forwarded hop stays connected in the trace assembly.
    /// The backup executes the frame in order under one dispatch charge;
    /// timeouts retransmit only the pending legs (see
    /// [`ServiceClient::exchange`]).
    ///
    /// Returns the backup's END status per leg, in order;
    /// [`STATUS_UNACKED`] for a leg the retry budget gave up on.
    pub(crate) async fn forward_batch(&mut self, legs: Vec<ForwardLeg<B>>) -> Vec<u32> {
        self.drain_pending();
        let first_seq = self.seq.wrapping_add(1);
        let flags = if legs.len() > 1 {
            TRACE_FLAG_BATCHED
        } else {
            0
        };
        let mut msgs = Vec::with_capacity(legs.len());
        // Per leg: (trace id, span id, parent span, start) of its Rpc span.
        let mut spans = Vec::with_capacity(legs.len());
        for (inner, mut env, parent) in legs {
            self.seq += 1;
            env.link_seq = self.seq;
            let mut m = B::Wire::replicated(env, inner);
            let mut span = None;
            if let (Some((trace_id, parent)), true) = (parent, self.span.active()) {
                let span_id = self.span.next_span_id();
                let ctx = TraceContext {
                    trace_id,
                    parent_span: span_id,
                    flags,
                };
                m = B::Wire::traced(ctx, m);
                span = Some((trace_id, span_id, parent, self.span.now_ns()));
            }
            spans.push(span);
            msgs.push(m);
        }
        // A retransmitted leg re-sends its original bytes.
        let replies = self
            .exchange(first_seq, msgs.len(), |i, _| msgs[i].clone())
            .await;
        // Legs the backup never acked still close their spans: a backup
        // that applied one late emits its server spans under it.
        for (span, reply) in spans.into_iter().zip(&replies) {
            if let Some((trace_id, span_id, parent, start)) = span {
                self.span
                    .record(trace_id, span_id, parent, SpanKind::Rpc, start, reply.at_ns);
            }
        }
        replies.into_iter().map(|r| r.status).collect()
    }

    /// A read served by the server through fast messaging.
    pub(crate) async fn fast_read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        self.fast_request(|seq| B::read_request(seq, read)).await.1
    }

    // ------------------------------------------------------------------
    // Mailbox fetching (RFP-style remote result fetching)
    // ------------------------------------------------------------------

    /// A read whose response the client **pulls** out of the server's
    /// mailbox with one-sided RDMA Reads instead of having the server
    /// ring-write it: the request goes out flagged with [`FETCH_FLAG`],
    /// the server deposits the encoded END frame into this client's slot,
    /// and the fetch loop polls the slot header (sequence-stamped, CRC'd,
    /// so it sees either the full deposit or retries) with exponential
    /// poll backoff. The PR 5 deadline/retransmit protocol covers lost
    /// fetches: only reads travel this path, so a retransmitted request
    /// simply re-executes and re-deposits — exactly-once by idempotence.
    ///
    /// Responses that overflowed the slot (or raced a missing mailbox)
    /// arrive as ordinary write-back frames, which the loop also drains.
    pub(crate) async fn fetch_read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        let Some(mb) = self.ch.mailbox else {
            // The server allocated no mailbox: serve over the ring.
            self.stats.fetch_fallbacks += 1;
            self.stats.fetched_reads -= 1;
            self.stats.fast_reads += 1;
            self.flight
                .anomaly(Anomaly::FetchFallback { seq: self.seq + 1 });
            return self.fast_read(read).await;
        };
        self.seq += 1;
        let seq = self.seq;
        let wire_seq = seq | FETCH_FLAG;
        let mut msg = B::read_request(wire_seq, read);
        if let Some(ctx) = self.wire_ctx(TRACE_FLAG_FETCH) {
            msg = B::Wire::traced(ctx, msg);
        }
        let encoded = B::Wire::encode(&msg);
        if self.ch.tx.send(&encoded, wire_seq).await.is_err() {
            return Vec::new();
        }
        self.flight.note(FlightEvent::Send {
            seq,
            bytes: encoded.len() as u32,
        });
        let span = self.trace.begin();
        // Write-back fallback accumulation (slot-overflow responses).
        let mut wb_items: Vec<WireItem<B>> = Vec::new();
        let mut retries = 0u32;
        let mut backoff = self.cfg.retry_backoff;
        loop {
            let deadline = now() + self.cfg.request_timeout;
            let mut poll = self.cfg.fetch_poll_initial;
            loop {
                // Drain the response ring opportunistically: heartbeats
                // keep Algorithm 1 fed, and an overflowed response comes
                // back this way under the masked sequence number.
                while let Some(bytes) = self.ch.rx.try_pop() {
                    let Ok(msg) = B::Wire::decode(&bytes) else {
                        continue;
                    };
                    match B::Wire::classify(msg) {
                        Incoming::Heartbeat(p) => self.note_heartbeat(p),
                        Incoming::Cont { seq: s, items } if s == seq => wb_items.extend(items),
                        Incoming::End { seq: s, items, .. } if s == seq => {
                            wb_items.extend(items);
                            self.flight.note(FlightEvent::Recv {
                                seq,
                                items: wb_items.len() as u32,
                            });
                            self.trace.end(Phase::MailboxFetch, span);
                            return wb_items;
                        }
                        _ => {}
                    }
                }
                // One-sided header probe: sees either the full deposit
                // (header is written last, atomically) or stale bytes.
                let hdr_bytes = self
                    .ch
                    .qp
                    .read(mb.rkey, mb.layout.slot_offset(seq), SLOT_HEADER_BYTES)
                    .await
                    .expect("mailbox registered");
                let hdr = SlotHeader::parse(&hdr_bytes);
                if hdr.seq == seq && hdr.len as usize <= mb.layout.payload_capacity() {
                    let body = self
                        .ch
                        .qp
                        .read(mb.rkey, mb.layout.payload_offset(seq), hdr.len as usize)
                        .await
                        .expect("mailbox registered");
                    if mailbox_crc32(&body) == hdr.crc {
                        if let Some(items) = self.decode_deposit(seq, body) {
                            // Ack consumption one-sided so the server can
                            // reclaim the slot lease on its next tick.
                            self.ch
                                .qp
                                .write(mb.ack_rkey, 0, &u64::from(seq).to_le_bytes())
                                .await
                                .expect("ack cell registered");
                            self.flight.note(FlightEvent::Recv {
                                seq,
                                items: items.len() as u32,
                            });
                            self.trace.end(Phase::MailboxFetch, span);
                            return items;
                        }
                    } else {
                        // Torn deposit: the payload raced the fetch.
                        self.stats.torn_retries += 1;
                    }
                }
                let remaining = deadline.saturating_duration_since(now());
                if remaining.is_zero() {
                    break;
                }
                sleep(poll.min(remaining)).await;
                poll = SimDuration::from_nanos(
                    poll.as_nanos()
                        .saturating_mul(2)
                        .min(self.cfg.fetch_poll_max.as_nanos()),
                );
            }
            // Attempt timed out (lost request or lost deposit): retransmit
            // under the same flagged sequence number. Fetch serves reads
            // only, so the server re-executing is exactly-once by
            // idempotence; the redeposit overwrites the same slot.
            if !self.timeout_backoff(seq, retries, backoff).await {
                self.trace.end(Phase::MailboxFetch, span);
                return wb_items;
            }
            backoff = self.next_backoff(backoff);
            retries += 1;
            wb_items.clear();
            self.stats.retransmits += 1;
            self.flight.note(FlightEvent::Retransmit { seq });
            if self.ch.tx.send(&encoded, wire_seq).await.is_err() {
                self.trace.end(Phase::MailboxFetch, span);
                return Vec::new();
            }
        }
    }

    /// Decodes a fetched deposit: must be an END frame for `seq`.
    fn decode_deposit(&mut self, seq: u32, body: Vec<u8>) -> Option<Vec<WireItem<B>>> {
        let msg = B::Wire::decode(&body).ok()?;
        match B::Wire::classify(msg) {
            Incoming::End { seq: s, items, .. } if s == seq => Some(items),
            _ => None,
        }
    }

    /// Executes a window of reads through fast messaging, coalescing the
    /// ones that queue while the ring is busy into doorbell batches — the
    /// client half of adaptive batching, mirroring Algorithm 1's "adapt
    /// only under pressure" rule. The first request goes out alone, so an
    /// idle ring keeps today's single-op latency; while its flush is in
    /// flight the rest of the window queues, and each subsequent flush
    /// packs up to [`crate::config::ClientConfig::max_batch`] queued
    /// requests into one `Batch` frame (one ring write, one CQ event, one
    /// server wakeup). [`crate::config::ClientConfig::batch_window`]
    /// additionally caps a flush so its estimated service time (previous
    /// flush's per-op time × batch size) stays within the window.
    ///
    /// Results are returned per read, in request order. With `max_batch`
    /// = 1 every request is its own frame — exactly the sequential path.
    pub async fn read_batch(&mut self, reads: &[B::Read]) -> Vec<Vec<WireItem<B>>> {
        self.drain_pending();
        let max_batch = self.cfg.max_batch.max(1);
        let mut out: Vec<Vec<WireItem<B>>> = Vec::with_capacity(reads.len());
        // Per-op service-time estimate from the previous flush, feeding
        // the batch_window latency guard.
        let mut est_per_op: Option<SimDuration> = None;
        let mut next = 0usize;
        while next < reads.len() {
            let remaining = reads.len() - next;
            let mut chunk = if next == 0 {
                1 // ring idle: no queue yet, nothing to coalesce
            } else {
                remaining.min(max_batch)
            };
            if chunk > 1 && !self.cfg.batch_window.is_zero() {
                if let Some(est) = est_per_op {
                    if !est.is_zero() {
                        let cap = (self.cfg.batch_window.as_nanos() / est.as_nanos()).max(1);
                        chunk = chunk.min(cap as usize);
                    }
                }
            }
            let started = now();
            let tracing = self.span.active();
            // Per-read root spans `(span id, start_ns)`: each read in the
            // window is its own trace; the envelope rides inside the batch
            // frame, so coalescing preserves identity, and a retransmission
            // re-wraps the same root (trace identity is stable across
            // retries; the flags show the replay).
            let first_seq = self.seq.wrapping_add(1);
            let open: Vec<Option<(u64, u64)>> = (0..chunk)
                .map(|_| {
                    self.seq += 1;
                    tracing.then(|| (self.span.next_span_id(), self.span.now_ns()))
                })
                .collect();
            self.stats.fast_reads += chunk as u64;
            let window = &reads[next..next + chunk];
            let replies = self
                .exchange(first_seq, chunk, |i, flags| {
                    let m = B::read_request(first_seq.wrapping_add(i as u32), &window[i]);
                    match open[i] {
                        Some((span_id, _)) => B::Wire::traced(
                            TraceContext {
                                trace_id: span_id,
                                parent_span: span_id,
                                flags,
                            },
                            m,
                        ),
                        None => m,
                    }
                })
                .await;
            // Abandoned reads still close their root span: a server that
            // executed the request after the client gave up emits child
            // spans under this root, so the tree stays connected.
            for (root, reply) in open.into_iter().zip(&replies) {
                if let Some((span_id, start)) = root {
                    self.span
                        .record(span_id, span_id, 0, SpanKind::Request, start, reply.at_ns);
                }
            }
            est_per_op = Some(now().saturating_duration_since(started) / chunk as u64);
            out.extend(replies.into_iter().map(|r| r.items));
            next += chunk;
        }
        out
    }

    /// A write-class request (insert, put, delete, ...); writes always
    /// travel through the ring and are executed by server threads (paper
    /// §III-B). Returns `(status, items)` from the END frame.
    pub(crate) async fn write_request(
        &mut self,
        kind: OpKind,
        build: impl FnOnce(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        self.drain_pending();
        match kind {
            OpKind::Write => self.stats.writes_sent += 1,
            OpKind::Remove => self.stats.removes_sent += 1,
            OpKind::Read => {}
        }
        let opened = self.op_begin();
        let result = self.fast_request(build).await;
        self.op_end(opened);
        result
    }

    // ------------------------------------------------------------------
    // RDMA offloading
    // ------------------------------------------------------------------

    /// A read traversing the index with one-sided RDMA Reads. After eight
    /// inconsistent attempts the index is churning faster than we can
    /// traverse it; fall back to the server's consistent view.
    pub(crate) async fn offload_read(&mut self, read: &B::Read) -> Vec<WireItem<B>> {
        // OffloadRead spans the whole traversal including restarts;
        // OffloadRetry spans only from the first failure onward, so
        // (OffloadRead − OffloadRetry) is the cost of a clean attempt.
        let total_span = self.trace.begin();
        // Offload leg of the distributed trace: a child span under the
        // open op covering the one-sided traversal (restarts included,
        // the write-back fallback excluded — that leg traces itself).
        let off_start = self.cur_op.map(|_| self.span.now_ns());
        let mut retry_span = total_span;
        let mut attempts = 0u32;
        loop {
            match self.offload_attempt(read).await {
                Ok(items) => {
                    if attempts > 0 {
                        self.trace.end(Phase::OffloadRetry, retry_span);
                    }
                    self.trace.end(Phase::OffloadRead, total_span);
                    self.end_offload_span(off_start);
                    return items;
                }
                Err(Inconsistent) => {
                    self.stats.offload_restarts += 1;
                    self.meta_cache = None;
                    self.node_cache.clear();
                    attempts += 1;
                    if attempts == 1 {
                        retry_span = self.trace.begin();
                    }
                    if attempts >= 8 {
                        self.end_offload_span(off_start);
                        let items = self.fast_read(read).await;
                        self.trace.end(Phase::OffloadRetry, retry_span);
                        self.trace.end(Phase::OffloadRead, total_span);
                        return items;
                    }
                }
            }
        }
    }

    /// Closes the `Offload` child span opened at `start` (if tracing).
    pub(crate) fn end_offload_span(&mut self, start: Option<u64>) {
        if let (Some(start), Some(op)) = (start, self.cur_op) {
            self.span.emit(
                op.trace_id,
                op.span_id,
                SpanKind::Offload,
                start,
                self.span.now_ns(),
            );
        }
    }

    /// One traversal attempt; [`Inconsistent`] means a stale root, level
    /// mismatch, undecodable chunk, or a structural reorganization raced
    /// the traversal.
    async fn offload_attempt(&mut self, read: &B::Read) -> Result<Vec<WireItem<B>>, Inconsistent> {
        let meta = self.read_meta().await;
        let Some(root) = meta.root else {
            return Ok(Vec::new());
        };
        // Nodes at or above this level may be served from the client-side
        // cache (internal top levels only; leaves are never cached).
        let cache_floor = meta.height.saturating_sub(self.cfg.cache_levels).max(1);
        let fetched_before = self.stats.chunks_fetched;
        let items = if self.cfg.multi_issue {
            self.traverse_multi_issue(read, root, meta.height - 1, cache_floor)
                .await?
        } else {
            self.traverse_sequential(read, root, meta.height - 1, cache_floor)
                .await?
        };
        // A single-chunk traversal is made consistent by its line-version
        // stamps alone; anything longer must also confirm that no
        // structural reorganization (split, merge, forced reinsertion)
        // moved entries between the chunks while they were being read —
        // each chunk validates individually, but entries relocated from an
        // already-read node to a not-yet-read sibling would vanish
        // silently. Cache-served nodes are exempt: their staleness is
        // bounded by the cache TTL by design.
        if self.stats.chunks_fetched - fetched_before >= 2 {
            let fresh = self.refresh_meta().await;
            if fresh.structure_version != meta.structure_version {
                return Err(Inconsistent);
            }
        }
        Ok(items)
    }

    /// Consults the level cache for a node at `level`; `cache_floor` is
    /// the lowest cacheable level.
    pub(crate) fn cache_lookup(
        &mut self,
        id: NodeId,
        level: u32,
        cache_floor: u32,
    ) -> Option<LayoutNode<B>> {
        if self.cfg.cache_levels == 0 || level < cache_floor {
            return None;
        }
        let (node, at) = self.node_cache.get(&id)?;
        if now().saturating_duration_since(*at) > self.cfg.node_cache_ttl {
            return None;
        }
        self.stats.cache_hits += 1;
        Some(node.clone())
    }

    pub(crate) fn cache_store(
        &mut self,
        id: NodeId,
        level: u32,
        cache_floor: u32,
        node: &LayoutNode<B>,
    ) {
        if self.cfg.cache_levels == 0 || level < cache_floor || self.cfg.node_cache_capacity == 0 {
            return;
        }
        if self.node_cache.len() >= self.cfg.node_cache_capacity
            && !self.node_cache.contains_key(&id)
        {
            // Evict the stalest entry to stay within capacity.
            if let Some(oldest) = self
                .node_cache
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(id, _)| *id)
            {
                self.node_cache.remove(&oldest);
            }
        }
        self.node_cache.insert(id, (node.clone(), now()));
    }

    /// Sequential offloading (the paper's baseline): one outstanding RDMA
    /// read; every node access is a full round trip.
    async fn traverse_sequential(
        &mut self,
        read: &B::Read,
        root: NodeId,
        root_level: u32,
        cache_floor: u32,
    ) -> Result<Vec<WireItem<B>>, Inconsistent> {
        let mut results = Vec::new();
        let mut queue: Vec<(NodeId, u32)> = vec![(root, root_level)];
        while let Some((id, level)) = queue.pop() {
            let node = match self.cache_lookup(id, level, cache_floor) {
                Some(node) => node,
                None => {
                    let node = self.fetch_node(id).await?;
                    let node_level = <B::Layout as RemoteLayout>::node_level(&node);
                    self.cache_store(id, node_level, cache_floor, &node);
                    node
                }
            };
            if <B::Layout as RemoteLayout>::node_level(&node) != level {
                return Err(Inconsistent);
            }
            sleep(self.cfg.client_node_visit).await;
            B::expand(read, &node, &mut results, &mut queue)?;
        }
        Ok(results)
    }

    /// Multi-issue offloading (§IV-C): all matching children of a
    /// processed node are fetched with concurrently issued reads, hiding
    /// round trips in a pipeline.
    async fn traverse_multi_issue(
        &mut self,
        read: &B::Read,
        root: NodeId,
        root_level: u32,
        cache_floor: u32,
    ) -> Result<Vec<WireItem<B>>, Inconsistent> {
        let (tx, mut rx) = catfish_simnet::sync::channel();
        let mut inflight = 0usize;
        let qp = self.ch.qp.clone();
        let handle = self.handle;
        let retries = self.cfg.max_read_retries;
        let cache_tx = tx.clone();
        let issue = move |id: NodeId, level: u32, inflight: &mut usize| {
            let qp = qp.clone();
            let tx = tx.clone();
            *inflight += 1;
            spawn(async move {
                let got = read_chunk::<B::Layout>(&qp, &handle, id, retries).await;
                tx.send((id, level, got));
            });
        };
        // Dispatches through the cache when possible, else over the wire.
        let dispatch = |this: &mut Self, id: NodeId, level: u32, inflight: &mut usize| match this
            .cache_lookup(id, level, cache_floor)
        {
            Some(node) => {
                *inflight += 1;
                cache_tx.send((id, level, Ok((node, u32::MAX))));
            }
            None => issue(id, level, inflight),
        };
        dispatch(self, root, root_level, &mut inflight);
        let mut results = Vec::new();
        let mut failed = false;
        while inflight > 0 {
            let (id, level, got) = rx.recv().await.expect("sender held locally");
            inflight -= 1;
            if failed {
                continue; // drain remaining reads after failure
            }
            let (node, retries) = match got {
                Ok(v) => v,
                Err(_) => {
                    failed = true;
                    continue;
                }
            };
            // `u32::MAX` marks a cache-served node: no wire fetch happened.
            if retries != u32::MAX {
                self.stats.torn_retries += u64::from(retries);
                self.stats.chunks_fetched += 1;
            }
            let node_level = <B::Layout as RemoteLayout>::node_level(&node);
            if node_level != level {
                failed = true;
                continue;
            }
            self.cache_store(id, node_level, cache_floor, &node);
            sleep(self.cfg.client_node_visit).await;
            let mut children = Vec::new();
            if B::expand(read, &node, &mut results, &mut children).is_err() {
                failed = true;
                continue;
            }
            for (child, child_level) in children {
                dispatch(self, child, child_level, &mut inflight);
            }
        }
        if failed {
            Err(Inconsistent)
        } else {
            Ok(results)
        }
    }

    /// Fetches and validates one chunk, counting retries.
    pub(crate) async fn fetch_node(&mut self, id: NodeId) -> Result<LayoutNode<B>, Inconsistent> {
        match read_chunk::<B::Layout>(&self.ch.qp, &self.handle, id, self.cfg.max_read_retries)
            .await
        {
            Ok((node, retries)) => {
                self.stats.torn_retries += u64::from(retries);
                self.stats.chunks_fetched += 1;
                Ok(node)
            }
            Err(_) => Err(Inconsistent),
        }
    }

    /// Reads (and caches) the index metadata from chunk 0.
    pub(crate) async fn read_meta(&mut self) -> TreeMeta {
        let t = now();
        if let Some((m, at)) = self.meta_cache {
            if t.saturating_duration_since(at) <= self.cfg.meta_cache_ttl {
                return m;
            }
        }
        self.refresh_meta().await
    }

    /// Reads chunk 0 unconditionally (bypassing the cached copy) and
    /// refreshes the cache — the traversal validation path.
    pub(crate) async fn refresh_meta(&mut self) -> TreeMeta {
        let span = self.trace.begin();
        loop {
            let bytes = self
                .ch
                .qp
                .read(self.handle.rkey, 0, self.handle.layout.chunk_bytes())
                .await
                .expect("index arena registered");
            match self.handle.layout.decode_meta(&bytes) {
                Ok((m, _)) => {
                    self.stats.meta_refreshes += 1;
                    self.meta_cache = Some((m, now()));
                    self.trace.end(Phase::MetaRead, span);
                    return m;
                }
                Err(CodecError::TornRead { .. }) => {
                    self.stats.torn_retries += 1;
                }
                Err(CodecError::Malformed(what)) => {
                    panic!("index metadata chunk is corrupt: {what}")
                }
            }
        }
    }
}

/// One validated chunk read with torn-read retries.
pub(crate) async fn read_chunk<L: RemoteLayout>(
    qp: &QueuePair,
    handle: &RemoteHandle<L>,
    id: NodeId,
    max_retries: u32,
) -> Result<(L::Node, u32), ChunkReadError> {
    let mut retries = 0u32;
    loop {
        let bytes = qp
            .read(
                handle.rkey,
                handle.layout.node_offset(id),
                handle.layout.chunk_bytes(),
            )
            .await
            .expect("index arena registered");
        match handle.layout.decode_node(&bytes) {
            Ok((node, _version)) => return Ok((node, retries)),
            Err(CodecError::TornRead { .. }) => {
                retries += 1;
                if retries > max_retries {
                    return Err(ChunkReadError::TooManyRetries);
                }
            }
            Err(CodecError::Malformed(_)) => return Err(ChunkReadError::Inconsistent),
        }
    }
}
