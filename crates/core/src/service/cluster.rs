//! The cluster topology: N service shards behind scatter-gather clients.
//!
//! Everything below the cluster layer is the unchanged single-server
//! engine — a [`ClusterServer`] is N independent [`ServiceServer`]s on
//! their own fabric nodes (own cores, own NIC, own registered arena, own
//! heartbeat stream), and a [`ClusterClient`] is N independent
//! [`ServiceClient`]s plus a [`ShardMap`] that decides which shard(s) an
//! operation touches:
//!
//! * **R-tree shards** are space partitions: [`ShardPartition`] splits the
//!   bulk-load set into contiguous x-slabs (see
//!   [`catfish_rtree::partition_by_x`]), the slab cuts route point
//!   operations by rectangle center, and each shard's **boundary MBR**
//!   (initial slab MBR, grown on every routed insert) prunes window and
//!   kNN queries to the shards whose bound intersects — the scatter set.
//! * **KV shards** are hash partitions: a ring of virtual points maps each
//!   key to one shard; range scans scatter to every shard and merge by
//!   key.
//!
//! Because every shard has its own connection, heartbeat stream, and
//! [`crate::adaptive::AdaptiveState`], Algorithm 1 runs **independently
//! per shard**: a client hammering one hot shard sees only that shard's
//! heartbeats cross the busy threshold and offloads there, while its
//! connections to cold shards keep fast messaging — the paper's
//! adaptivity, generalized to scale-out.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use catfish_rdma::{Endpoint, NetProfile, RdmaProfile};
use catfish_rtree::Rect;
use catfish_simnet::{spawn, CpuPool, Network};

use crate::config::{AccessMode, ClientConfig, ServerConfig};
use crate::conn::RkeyAllocator;
use crate::obs::{AdaptiveEventLog, Anomaly, FlightRecorder, SpanKind, SpanLog, SERVER_NODE_BASE};
use crate::stats::ServiceStats;

use super::{
    ClientBackend, IndexBackend, OpKind, RangeDigest, ReplEnvelope, ServiceClient, ServiceServer,
    WireCodec, WireItem, WireMessage, REPL_FENCED, STATUS_UNACKED,
};

/// SplitMix64 — the hash behind the KV ring's virtual points and the
/// repair keys / fingerprints of hash-range reconciliation.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Virtual ring points per shard: enough that shard loads stay within a
/// few percent of each other without making lookup tables large.
const RING_POINTS_PER_SHARD: usize = 16;

/// The client-side routing table of a cluster.
///
/// Built once by [`ShardPartition::partition`] at bulk-load time and
/// shared by the [`ClusterServer`] and every [`ClusterClient`] (one map
/// per cluster — the simulation stand-in for a replicated routing
/// service, like [`ReplicaCtl`] for membership). The only mutable piece
/// is the per-shard boundary MBR, which [`ShardMap::grow`] widens when an
/// insert routed to a shard pokes past its current bound, so no client's
/// scatter pruning misses an item the cluster accepted.
#[derive(Debug, Clone)]
pub enum ShardMap {
    /// Space partition (R-tree): contiguous x-slabs.
    Region {
        /// Ascending x cuts between adjacent slabs (`shards - 1` entries).
        /// Authoritative for ownership: center-x `x` belongs to shard
        /// `cuts.partition_point(|c| *c <= x)`.
        cuts: Vec<f64>,
        /// Per-shard boundary MBR (`None` while a shard holds nothing).
        bounds: Vec<Option<Rect>>,
    },
    /// Hash partition (KV): a ring of virtual points.
    Hash {
        /// `(point_hash, shard)` sorted by hash.
        points: Vec<(u64, u32)>,
        /// Shard count.
        shards: usize,
    },
}

impl ShardMap {
    /// A hash ring over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn hash_ring(shards: usize) -> ShardMap {
        assert!(shards > 0, "a cluster needs at least one shard");
        let mut points = Vec::with_capacity(shards * RING_POINTS_PER_SHARD);
        for shard in 0..shards {
            for v in 0..RING_POINTS_PER_SHARD {
                points.push((mix64((shard as u64) << 32 | v as u64), shard as u32));
            }
        }
        points.sort_unstable();
        ShardMap::Hash { points, shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        match self {
            ShardMap::Region { bounds, .. } => bounds.len(),
            ShardMap::Hash { shards, .. } => *shards,
        }
    }

    /// The shard owning `rect` — the one point operations (insert, delete)
    /// route to. Ownership follows the rectangle's center-x through the
    /// authoritative cuts, so it never disagrees with bulk-load placement.
    ///
    /// # Panics
    ///
    /// Panics on a hash map (keys route with [`ShardMap::key_shard`]).
    pub fn home_shard(&self, rect: &Rect) -> usize {
        match self {
            ShardMap::Region { cuts, .. } => {
                let x = rect.center().0;
                cuts.partition_point(|c| *c <= x)
            }
            ShardMap::Hash { .. } => panic!("home_shard called on a hash-partitioned map"),
        }
    }

    /// Widens shard `s`'s boundary MBR to cover `rect` (called on every
    /// routed insert, *before* the insert is sent, so a concurrent scatter
    /// can only over-include, never miss).
    ///
    /// # Panics
    ///
    /// Panics on a hash map.
    pub fn grow(&mut self, s: usize, rect: &Rect) {
        match self {
            ShardMap::Region { bounds, .. } => {
                bounds[s] = Some(match bounds[s] {
                    Some(b) => b.union(rect),
                    None => *rect,
                });
            }
            ShardMap::Hash { .. } => panic!("grow called on a hash-partitioned map"),
        }
    }

    /// The scatter set of a window query: every shard whose boundary MBR
    /// intersects `rect`. A shard with no bound holds nothing and is
    /// skipped; items live entirely inside their owner's bound, so this
    /// set is exact (pruned shards cannot contribute results).
    ///
    /// # Panics
    ///
    /// Panics on a hash map.
    pub fn read_targets(&self, rect: &Rect) -> Vec<usize> {
        match self {
            ShardMap::Region { bounds, .. } => bounds
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some_and(|b| b.intersects(rect)))
                .map(|(i, _)| i)
                .collect(),
            ShardMap::Hash { .. } => panic!("read_targets called on a hash-partitioned map"),
        }
    }

    /// Every shard that currently holds data (kNN's scatter set, and range
    /// scans on hash maps where every shard may hold keys).
    pub fn occupied(&self) -> Vec<usize> {
        match self {
            ShardMap::Region { bounds, .. } => bounds
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some())
                .map(|(i, _)| i)
                .collect(),
            ShardMap::Hash { shards, .. } => (0..*shards).collect(),
        }
    }

    /// The shard owning `key` on the hash ring.
    ///
    /// # Panics
    ///
    /// Panics on a region map (rectangles route with
    /// [`ShardMap::home_shard`]).
    pub fn key_shard(&self, key: u64) -> usize {
        match self {
            ShardMap::Hash { points, .. } => {
                let h = mix64(key);
                let i = points.partition_point(|&(p, _)| p < h);
                let (_, shard) = points[i % points.len()];
                shard as usize
            }
            ShardMap::Region { .. } => panic!("key_shard called on a region-partitioned map"),
        }
    }
}

/// How a backend's bulk-load set splits across cluster shards.
///
/// The R-tree splits by space ([`catfish_rtree::partition_by_x`]); the KV
/// service splits by key hash. Implemented next to each backend's
/// [`IndexBackend`] port.
pub trait ShardPartition: IndexBackend {
    /// Splits `items` into one load set per shard plus the routing map
    /// clients use.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    fn partition(items: Vec<Self::LoadItem>, shards: usize)
        -> (Vec<Vec<Self::LoadItem>>, ShardMap);
}

// ---------------------------------------------------------------------
// Replica sets
// ---------------------------------------------------------------------

#[derive(Debug)]
struct CtlState {
    epoch: u64,
    primary: usize,
    alive: Vec<bool>,
    on_promote: Option<PromoteHook>,
}

/// The state transfer a promotion runs (see [`ReplicaCtl::on_promote`]).
#[derive(Clone)]
struct PromoteHook(Rc<dyn Fn(&ReplicaCtl)>);

impl std::fmt::Debug for PromoteHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PromoteHook")
    }
}

/// The shared control block of one shard's replica set: who is primary,
/// the promotion epoch, and per-replica liveness.
///
/// This models the cluster's membership/lease service — the piece a real
/// deployment delegates to a coordination service. Failure reports come
/// in from clients (stale primary heartbeats) and from forwarding pumps
/// (a backup that stopped acking), and the block arbitrates them into a
/// deterministic, epoch-numbered promotion sequence: the epoch advances
/// exactly when the primary role moves, and every mutation carries the
/// epoch its writer believed in, so a deposed primary's in-flight writes
/// are fenced by whichever replica they reach. A promotion also runs the
/// set's state transfer (`ReplicaCtl::on_promote`), so the survivors
/// agree before the new epoch applies its first write.
#[derive(Debug, Clone)]
pub struct ReplicaCtl {
    inner: Rc<RefCell<CtlState>>,
}

impl ReplicaCtl {
    /// A fresh set of `replicas` members: replica 0 primary, epoch 0, all
    /// alive.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> ReplicaCtl {
        assert!(replicas > 0, "a replica set needs at least one member");
        ReplicaCtl {
            inner: Rc::new(RefCell::new(CtlState {
                epoch: 0,
                primary: 0,
                alive: vec![true; replicas],
                on_promote: None,
            })),
        }
    }

    /// Number of members (dead or alive).
    pub fn replicas(&self) -> usize {
        self.inner.borrow().alive.len()
    }

    /// The current promotion epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// The current primary's replica index.
    pub fn primary(&self) -> usize {
        self.inner.borrow().primary
    }

    /// Whether `id` currently holds the primary role.
    pub fn is_primary(&self, id: usize) -> bool {
        self.inner.borrow().primary == id
    }

    /// Whether `id` is currently believed alive.
    pub fn is_alive(&self, id: usize) -> bool {
        self.inner.borrow().alive[id]
    }

    /// Alive members excluding the primary — the forwarding fan-out width.
    pub fn live_backups(&self) -> usize {
        let s = self.inner.borrow();
        s.alive
            .iter()
            .enumerate()
            .filter(|&(i, &a)| a && i != s.primary)
            .count()
    }

    /// Reports `id` suspect under `observed_epoch`. Epoch-gated for
    /// idempotence: a report made under a stale epoch is discarded — its
    /// evidence predates the promotion that already handled the failure.
    /// Suspecting the primary promotes the next alive member in wrapping
    /// index order (deterministic — no election), bumps the epoch and runs
    /// the promotion hook; the last alive member can never be suspected.
    /// Returns whether the report took effect.
    pub fn suspect(&self, id: usize, observed_epoch: u64) -> bool {
        let hook = {
            let mut s = self.inner.borrow_mut();
            if observed_epoch != s.epoch || !s.alive[id] {
                return false;
            }
            s.alive[id] = false;
            if s.primary != id {
                return true;
            }
            let n = s.alive.len();
            let Some(p) = (1..n).map(|k| (id + k) % n).find(|&c| s.alive[c]) else {
                // No successor: refuse to take the last member down.
                s.alive[id] = true;
                return false;
            };
            s.primary = p;
            s.epoch += 1;
            s.on_promote.clone()
        };
        if let Some(hook) = hook {
            (hook.0)(self);
        }
        true
    }

    /// Installs the state transfer every promotion runs, right after the
    /// epoch bump and before the new epoch can apply a write. It gets
    /// this block, already showing the new primary.
    pub(crate) fn on_promote(&self, f: impl Fn(&ReplicaCtl) + 'static) {
        self.inner.borrow_mut().on_promote = Some(PromoteHook(Rc::new(f)));
    }

    /// Marks `id` alive again. Call **after** repairing it — a revived
    /// replica serves forwarded mutations and failover reads immediately.
    /// It rejoins as a backup; the primary role never moves back
    /// implicitly.
    pub fn revive(&self, id: usize) {
        self.inner.borrow_mut().alive[id] = true;
    }
}

/// What one hash-range reconciliation pass did (see
/// [`ClusterServer::repair_replica`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Modeled round trips. Digest comparisons are batched per bisection
    /// level, so this grows with the *depth* of the walk — `O(log n)` —
    /// not with the number of mismatched ranges.
    pub rounds: u64,
    /// Digest pairs compared across the walk.
    pub ranges_compared: u64,
    /// Entries shipped authority → lagging replica.
    pub transferred: u64,
    /// Entries deleted on the lagging replica (present there, absent on
    /// the authority).
    pub removed: u64,
    /// Wire bytes the reconciliation moved (digests + entries + tombstone
    /// keys).
    pub bytes_moved: u64,
    /// Wire bytes a naive full resync would have shipped (every authority
    /// entry) — the denominator of the repair-efficiency claim.
    pub full_resync_bytes: u64,
    /// Whether the replicas' root digests agreed after the walk.
    pub converged: bool,
}

/// One forwarding job queued on a lane: the bare mutation, its envelope,
/// the trace parent of the originating request, and the oneshot the
/// primary's END awaits.
struct ForwardJob<B: ClientBackend> {
    msg: WireMessage<B>,
    env: ReplEnvelope,
    parent: Option<(u64, u64)>,
    done: catfish_simnet::sync::OneshotSender<u32>,
}

/// Forwarding lanes per ordered (member → peer) pair. Each lane is its own
/// ring connection plus pump task, and mutations pick a lane by hashing
/// their key, so a backup applies unrelated keys on up to this many
/// workers at once while same-key mutations stay in order on one lane.
/// Under Zipf-skewed keys the hottest key pins one lane, so more lanes
/// stop paying off quickly while each one costs a connection's memory.
const FORWARD_LANES: usize = 8;

/// One forwarding lane's pump: exclusively owns one ring connection
/// member-node → peer and group-commits whatever is queued on the lane —
/// up to `max_batch` jobs per frame — in order, one frame in flight at a
/// time (the link seqs + dedup window give each job exactly-once). A
/// single borrower per connection cell keeps the borrow discipline
/// trivial, while lanes and peers replicate in parallel.
#[allow(clippy::await_holding_refcell_ref)]
async fn forward_pump<B: ClientBackend>(
    client: Rc<RefCell<ServiceClient<B>>>,
    mut rx: catfish_simnet::sync::Receiver<ForwardJob<B>>,
    ctl: ReplicaCtl,
    peer: usize,
    max_batch: usize,
) {
    while let Some(first) = rx.recv().await {
        let mut jobs = vec![first];
        while jobs.len() < max_batch {
            match rx.try_recv() {
                Some(job) => jobs.push(job),
                None => break,
            }
        }
        if !ctl.is_alive(peer) {
            // The set already gave up on this peer; it re-converges via
            // hash-range repair before revival, not through this queue.
            for job in jobs {
                job.done.send(STATUS_UNACKED);
            }
            continue;
        }
        let (legs, dones): (Vec<_>, Vec<_>) = jobs
            .into_iter()
            .map(|j| ((j.msg, j.env, j.parent), j.done))
            .unzip();
        let status = client.borrow_mut().forward_batch(legs).await;
        // Retry-budget exhaustion is deliberately NOT a suspicion: a
        // primary whose own NIC is partitioned would otherwise declare
        // every healthy backup dead and block its own deposition (no
        // successor left to promote). A missed forward is divergence,
        // and divergence is what hash-range repair reconverges; liveness
        // verdicts stay with the failover path that observes the peer
        // directly.
        for (done, s) in dones.into_iter().zip(status) {
            done.send(s);
        }
    }
}

/// The sending end of one forwarding lane.
type LaneTx<B> = catfish_simnet::sync::Sender<ForwardJob<B>>;

/// A cluster of [`ServiceServer`] shards, each on its own fabric node —
/// own cores, own NIC, own registered arena, own heartbeat stream — and
/// each a k-way replica set ([`ClusterServer::build_replicated`]; k = 1
/// is a single server).
pub struct ClusterServer<B: IndexBackend> {
    /// `sets[shard][replica]`; unreplicated clusters hold one-member sets.
    sets: Vec<Vec<ServiceServer<B>>>,
    ctls: Vec<ReplicaCtl>,
    map: Rc<RefCell<ShardMap>>,
    /// Span-log installers for the forwarding pump clients, type-erased so
    /// the struct carries no `ClientBackend` bound: `(shard, replica, f)`.
    #[allow(clippy::type_complexity)]
    span_hooks: RefCell<Vec<(usize, usize, Box<dyn Fn(SpanLog)>)>>,
    /// Cluster-level span handle for repair traces.
    span: RefCell<SpanLog>,
    /// Failed reconciliations dump here.
    repair_flight: FlightRecorder,
}

impl<B: IndexBackend> std::fmt::Debug for ClusterServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterServer")
            .field("shards", &self.sets.len())
            .field("replicas", &self.replicas())
            .finish()
    }
}

impl<B: IndexBackend + ShardPartition + ClientBackend + RangeDigest> ClusterServer<B>
where
    B::LoadItem: Clone,
{
    /// Builds `shards` replica sets of `replicas` servers each,
    /// partitioning `items` with the backend's [`ShardPartition`] and
    /// bulk-loading every member with its shard's partition. Every server
    /// gets the same `cfg` — each is a full machine, so scaling shards
    /// scales cores and NICs with them.
    ///
    /// Replica 0 of each set starts as primary; the whole set shares one
    /// [`ReplicaCtl`]. With `replicas > 1`, between every ordered pair of
    /// members `FORWARD_LANES` (8) forwarding lanes (each a dedicated ring
    /// connection plus a queue-draining pump task) are strung, and every
    /// member gets the fan-out hook — so whichever member is promoted
    /// later already has its forwarding plumbing in place. A promotion
    /// brings every live backup up to the new primary — index and applied
    /// table, by [`ClusterServer::repair_replica`]'s walk — because the
    /// deposed primary's last forwards may have reached only some of them.
    /// With `replicas == 1` there are no lanes and no envelopes.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `replicas` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn build_replicated(
        net: &Network,
        profile: &NetProfile,
        cfg: ServerConfig,
        index_cfg: B::Config,
        items: Vec<B::LoadItem>,
        shards: usize,
        replicas: usize,
        rkeys: &RkeyAllocator,
    ) -> ClusterServer<B> {
        assert!(shards > 0, "a cluster needs at least one shard");
        assert!(replicas > 0, "a replica set needs at least one member");
        let (parts, map) = B::partition(items, shards);
        let mut sets = Vec::with_capacity(shards);
        let mut ctls = Vec::with_capacity(shards);
        #[allow(clippy::type_complexity)]
        let mut span_hooks: Vec<(usize, usize, Box<dyn Fn(SpanLog)>)> = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            // Backups load copies; the last member takes the partition
            // itself, so an unreplicated shard copies nothing.
            let mut set: Vec<ServiceServer<B>> = (1..replicas)
                .map(|_| {
                    ServiceServer::build(net, profile, cfg, index_cfg.clone(), part.clone(), rkeys)
                })
                .collect();
            set.push(ServiceServer::build(
                net,
                profile,
                cfg,
                index_cfg.clone(),
                part,
                rkeys,
            ));
            let ctl = ReplicaCtl::new(replicas);
            if replicas > 1 {
                for (r, s) in set.iter().enumerate() {
                    s.set_replica_role(ctl.clone(), r);
                }
                // Weak handles: the block lives inside every member.
                let members: Vec<_> = set.iter().map(ServiceServer::downgrade).collect();
                ctl.on_promote(move |ctl| {
                    let Some(primary) = members[ctl.primary()].upgrade() else {
                        return;
                    };
                    for (r, member) in members.iter().enumerate() {
                        if r == ctl.primary() || !ctl.is_alive(r) {
                            continue;
                        }
                        if let Some(backup) = member.upgrade() {
                            reconcile(&primary, &backup);
                        }
                    }
                });
                // Forwarding legs are plain fast-messaging ring traffic:
                // no adaptive policy, no offloading.
                let pump_cfg = ClientConfig {
                    mode: AccessMode::FastMessaging,
                    ..ClientConfig::default()
                };
                for r in 0..replicas {
                    // peers[r2][lane]: the lane queues from member r to r2.
                    let mut peers: Vec<Option<Vec<LaneTx<B>>>> = Vec::with_capacity(replicas);
                    for r2 in 0..replicas {
                        if r2 == r {
                            peers.push(None);
                            continue;
                        }
                        let mut lanes = Vec::with_capacity(FORWARD_LANES);
                        for lane in 0..FORWARD_LANES {
                            let ch = set[r2].accept(set[r].endpoint());
                            let seed = 0xF0F0_F0F0
                                ^ mix64(
                                    ((i as u64) << 30)
                                        | ((lane as u64) << 20)
                                        | ((r as u64) << 10)
                                        | r2 as u64,
                                );
                            let client = Rc::new(RefCell::new(ServiceClient::new(
                                ch,
                                set[r2].remote_handle(),
                                pump_cfg,
                                seed,
                            )));
                            {
                                let c = Rc::clone(&client);
                                span_hooks.push((
                                    i,
                                    r,
                                    Box::new(move |log: SpanLog| c.borrow_mut().set_span_log(log)),
                                ));
                            }
                            let (tx, rx) = catfish_simnet::sync::channel();
                            spawn(forward_pump(
                                client,
                                rx,
                                ctl.clone(),
                                r2,
                                cfg.max_batch.max(1),
                            ));
                            lanes.push(tx);
                        }
                        peers.push(Some(lanes));
                    }
                    let fwd_ctl = ctl.clone();
                    set[r].set_forwarder(move |msg, env, parent| {
                        // Enqueue on every live peer's lane now — the
                        // caller invokes this at apply time, so each lane
                        // carries its keys in apply order — and return
                        // the wait for all acks (synchronous replication
                        // to the live set), noting whether any peer
                        // fenced the forward.
                        let lane = B::Wire::mutation_key(&msg)
                            .map_or(0, |k| (mix64(k) % FORWARD_LANES as u64) as usize);
                        let mut acks = Vec::new();
                        for (peer, lanes) in peers.iter().enumerate() {
                            let Some(lanes) = lanes else { continue };
                            if !fwd_ctl.is_alive(peer) {
                                continue;
                            }
                            let (done, wait) = catfish_simnet::sync::oneshot();
                            lanes[lane].send(ForwardJob {
                                msg: msg.clone(),
                                env,
                                parent,
                                done,
                            });
                            acks.push(wait);
                        }
                        Box::pin(async move {
                            let mut fenced = false;
                            for w in acks {
                                fenced |= matches!(w.await, Ok(REPL_FENCED));
                            }
                            fenced
                        })
                    });
                }
            }
            sets.push(set);
            ctls.push(ctl);
        }
        ClusterServer {
            sets,
            ctls,
            map: Rc::new(RefCell::new(map)),
            span_hooks: RefCell::new(span_hooks),
            span: RefCell::new(SpanLog::default()),
            repair_flight: FlightRecorder::new(),
        }
    }
}

impl<B: IndexBackend> ClusterServer<B> {
    /// Number of shards (replica sets).
    pub fn shards(&self) -> usize {
        self.sets.len()
    }

    /// One shard's **current primary**. With `replicas == 1` this is the
    /// shard's only server — identical to the pre-replication accessor.
    pub fn shard(&self, i: usize) -> &ServiceServer<B> {
        &self.sets[i][self.ctls[i].primary()]
    }

    /// One specific member of a replica set.
    pub fn replica(&self, i: usize, r: usize) -> &ServiceServer<B> {
        &self.sets[i][r]
    }

    /// Replication factor (members per replica set).
    pub fn replicas(&self) -> usize {
        self.sets.first().map_or(1, Vec::len)
    }

    /// Shard `i`'s replica-set control block (epoch, primary, liveness).
    pub fn ctl(&self, i: usize) -> &ReplicaCtl {
        &self.ctls[i]
    }

    /// A snapshot of the routing map every client of this cluster shares.
    pub fn shard_map(&self) -> ShardMap {
        self.map.borrow().clone()
    }

    /// Starts every replica's heartbeat publisher.
    pub fn start_heartbeats(&self) {
        for set in &self.sets {
            for s in set {
                s.start_heartbeats();
            }
        }
    }

    /// Stamps every replica's request spans into `log`, each under its own
    /// node id (`SERVER_NODE_BASE + shard * replicas + replica`) so
    /// assembled traces show which member executed each leg. Forwarding
    /// pump connections are stamped too, so replication legs join the same
    /// trace as the triggering request.
    pub fn set_span_log(&self, log: &SpanLog) {
        let k = self.replicas() as u32;
        for (i, set) in self.sets.iter().enumerate() {
            for (r, s) in set.iter().enumerate() {
                s.set_span_log(log.for_node(SERVER_NODE_BASE + i as u32 * k + r as u32));
            }
        }
        for (i, r, hook) in self.span_hooks.borrow().iter().map(|(i, r, h)| (i, r, h)) {
            hook(log.for_node(SERVER_NODE_BASE + *i as u32 * k + *r as u32));
        }
        *self.span.borrow_mut() = log.clone();
    }

    /// Per-shard server counters, in shard order (replica counters summed
    /// within each set).
    pub fn stats_per_shard(&self) -> Vec<ServiceStats> {
        self.sets
            .iter()
            .map(|set| {
                let mut total = ServiceStats::default();
                for s in set {
                    total.merge(&s.stats());
                }
                total
            })
            .collect()
    }

    /// Cluster-wide server counters (all replicas summed).
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for set in &self.sets {
            for s in set {
                total.merge(&s.stats());
            }
        }
        total
    }

    /// Anomaly dumps from failed reconciliations (see
    /// [`ClusterServer::repair_replica`]).
    pub fn repair_flight_dumps(&self) -> Vec<crate::obs::FlightDump> {
        self.repair_flight.dumps()
    }
}

/// Entries per leaf range in the reconciliation walk: once a range's
/// population on the authority drops to this, members are compared
/// entry-by-entry instead of bisected further.
const REPAIR_LEAF_ENTRIES: u64 = 32;
/// Wire bytes charged per range digest exchanged: `(lo, hi)` bounds plus
/// the `(xor, count)` fingerprint.
const DIGEST_WIRE_BYTES: u64 = 8 + 8 + 16;
/// Wire bytes charged per tombstone (repair key of an entry deleted on the
/// authority).
const KEY_WIRE_BYTES: u64 = 8;

/// Wire bytes charged per applied-table record shipped: origin, op id and
/// END status.
const APPLIED_WIRE_BYTES: u64 = 8 + 8 + 4;

/// One member's index as the repair walk sees it: every entry sorted by
/// repair key (equal keys keep their listing order), with a prefix XOR of
/// the fingerprints, so a range digest is two binary searches and a leaf
/// exchange a subslice — one index scan per member per walk.
#[derive(Debug)]
struct RepairSnapshot<E> {
    entries: Vec<(u64, u64, E)>,
    /// `prefix[i]` is the XOR of the first `i` fingerprints.
    prefix: Vec<u64>,
}

impl<E> RepairSnapshot<E> {
    fn of<B: RangeDigest<Entry = E>>(index: &B) -> Self {
        let mut entries = index.repair_entries();
        entries.sort_by_key(|&(key, _, _)| key);
        let mut prefix = Vec::with_capacity(entries.len() + 1);
        prefix.push(0);
        for &(_, fp, _) in &entries {
            prefix.push(prefix[prefix.len() - 1] ^ fp);
        }
        RepairSnapshot { entries, prefix }
    }

    /// Index bounds of the entries with repair keys in `[lo, hi]`.
    fn bounds(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let start = self.entries.partition_point(|e| e.0 < lo);
        let end = self.entries.partition_point(|e| e.0 <= hi);
        start..end
    }

    /// `(xor_of_fingerprints, entry_count)` over repair keys in `[lo, hi]`.
    fn digest(&self, lo: u64, hi: u64) -> (u64, u64) {
        let r = self.bounds(lo, hi);
        (self.prefix[r.end] ^ self.prefix[r.start], r.len() as u64)
    }

    /// The entries with repair keys in `[lo, hi]`.
    fn range(&self, lo: u64, hi: u64) -> &[(u64, u64, E)] {
        &self.entries[self.bounds(lo, hi)]
    }
}

/// Brings `lag` up to `auth` by recursive hash-range bisection (the HRTree
/// scheme): compare the `(xor-fingerprint, count)` digest of a key range,
/// skip it when equal, bisect when not, and at leaf granularity transfer
/// only the entries that actually differ. Ranges are walked level by
/// level, so the number of rounds is the depth of the divergence —
/// O(log n) — and the bytes moved are proportional to the divergence, not
/// the index size. The applied-operation table is copied along with the
/// index, so `lag` then answers reissues exactly as `auth` would.
///
/// Digests and leaf exchanges read one [`RepairSnapshot`] per member,
/// taken at the start. The lagging snapshot goes stale only inside the
/// leaf ranges already reconciled, and those are never compared again:
/// the ranges of a round are disjoint, later rounds bisect only
/// mismatched non-leaf ranges, and a leaf exchange touches no entry
/// outside its own range. The final root digests read the live indexes.
///
/// Synchronous in simulation time (digests are in-memory reads): no write
/// interleaves. Byte and round counts model the wire cost.
fn reconcile<B: IndexBackend + RangeDigest>(
    auth: &ServiceServer<B>,
    lag: &ServiceServer<B>,
) -> RepairReport {
    let mut report = RepairReport::default();
    let auth_snap = auth.with_index(RepairSnapshot::of);
    let lag_snap = lag.with_index(RepairSnapshot::of);
    let (_, total) = auth_snap.digest(0, u64::MAX);
    report.full_resync_bytes = total * B::entry_wire_bytes() as u64;

    let mut frontier: Vec<(u64, u64)> = vec![(0, u64::MAX)];
    while !frontier.is_empty() {
        report.rounds += 1;
        let mut next = Vec::new();
        for (lo, hi) in frontier {
            report.ranges_compared += 1;
            report.bytes_moved += DIGEST_WIRE_BYTES;
            let (a_xor, a_count) = auth_snap.digest(lo, hi);
            if (a_xor, a_count) == lag_snap.digest(lo, hi) {
                continue;
            }
            if a_count <= REPAIR_LEAF_ENTRIES || lo == hi {
                let (a, l) = (auth_snap.range(lo, hi), lag_snap.range(lo, hi));
                reconcile_leaf(a, l, lag, &mut report);
            } else {
                let mid = lo + (hi - lo) / 2;
                next.push((lo, mid));
                next.push((mid + 1, hi));
            }
        }
        frontier = next;
    }
    report.bytes_moved += lag.adopt_applied(auth) * APPLIED_WIRE_BYTES;

    let root_a = auth.with_index(|ix| ix.root_digest());
    let root_l = lag.with_index(|ix| ix.root_digest());
    report.converged = root_a == root_l;
    report
}

/// Leaf step of [`reconcile`]: full entry exchange over one small range,
/// one repair key at a time — upsert the authority's entries the lagging
/// member lacks (replacing its stale entries under that key), delete the
/// lagging entries under keys the authority no longer has.
fn reconcile_leaf<B: IndexBackend + RangeDigest>(
    mut auth: &[(u64, u64, B::Entry)],
    mut lagging: &[(u64, u64, B::Entry)],
    lag: &ServiceServer<B>,
    report: &mut RepairReport,
) {
    let entry_bytes = B::entry_wire_bytes() as u64;
    while let Some(key) = auth
        .first()
        .into_iter()
        .chain(lagging.first())
        .map(|e| e.0)
        .min()
    {
        let (a_group, a_rest) = auth.split_at(auth.partition_point(|e| e.0 == key));
        let (l_group, l_rest) = lagging.split_at(lagging.partition_point(|e| e.0 == key));
        (auth, lagging) = (a_rest, l_rest);
        let mut stale: Vec<B::Entry> = l_group
            .iter()
            .filter(|l| !a_group.iter().any(|a| a.2 == l.2))
            .map(|l| l.2.clone())
            .collect();
        for (_, _, entry) in a_group {
            if !l_group.iter().any(|l| l.2 == *entry) {
                lag.with_index_mut(|ix| ix.apply_entry(entry, &stale));
                stale.clear();
                report.transferred += 1;
                report.bytes_moved += entry_bytes;
            }
        }
        for entry in &stale {
            lag.with_index_mut(|ix| ix.remove_entry(entry));
            report.removed += 1;
            report.bytes_moved += KEY_WIRE_BYTES;
        }
    }
}

impl<B: IndexBackend + RangeDigest> ClusterServer<B> {
    /// Reconciles a lagging replica against the shard's current primary
    /// (see `reconcile`: hash-range bisection over the index, plus the
    /// applied-operation table). The walk is synchronous in simulation
    /// time, so repair-then-[`ReplicaCtl::revive`] is atomic: no writes
    /// can interleave. A walk that fails to converge leaves a
    /// [`Anomaly::RepairFailed`] dump.
    ///
    /// # Panics
    ///
    /// Panics if `lagging` is the set's current primary.
    pub fn repair_replica(&self, shard: usize, lagging: usize) -> RepairReport {
        let authority = self.ctls[shard].primary();
        assert_ne!(authority, lagging, "cannot repair a primary against itself");
        let auth = &self.sets[shard][authority];
        let lag = &self.sets[shard][lagging];
        let report = reconcile(auth, lag);
        if !report.converged {
            let root_a = auth.with_index(|ix| ix.root_digest());
            let root_l = lag.with_index(|ix| ix.root_digest());
            self.repair_flight.anomaly(Anomaly::RepairFailed {
                residual: root_a.0 ^ root_l.0,
            });
        }

        // Repair shows up in traces like a scattered read: one root with a
        // merge child, stamped under the cluster's own span handle.
        let span = self.span.borrow();
        if span.active() {
            let trace_id = span.next_span_id();
            let t = span.now_ns();
            span.emit(trace_id, trace_id, SpanKind::Merge, t, t);
            span.record(trace_id, trace_id, 0, SpanKind::Request, t, t);
        }
        report
    }

    /// Repairs a lagging replica and, if reconciliation converged, revives
    /// it into the set as a backup. Returns the repair report.
    pub fn heal(&self, shard: usize, lagging: usize) -> RepairReport {
        let report = self.repair_replica(shard, lagging);
        if report.converged {
            self.ctls[shard].revive(lagging);
        }
        report
    }
}

/// A scatter-gather client: one [`ServiceClient`] per shard plus the
/// [`ShardMap`] that routes operations.
///
/// Point operations touch exactly one shard; window and kNN queries fan
/// out to the shards whose boundary MBR intersects (in parallel — each
/// shard connection is independent) and merge the partial results. Each
/// per-shard client runs its own Algorithm 1 against that shard's
/// heartbeat stream.
pub struct ClusterClient<B: ClientBackend> {
    /// Connections to each shard's replica 0 — the pre-replication view.
    /// With `replicas == 1` these are the only connections.
    pub(crate) shards: Vec<Rc<RefCell<ServiceClient<B>>>>,
    /// All connections, `replicas[shard][replica]`. `replicas[i][0]` is
    /// the same `Rc` as `shards[i]`.
    pub(crate) replicas: Vec<Vec<Rc<RefCell<ServiceClient<B>>>>>,
    /// Shared replica-set control blocks (one per shard, shared with the
    /// server side and every other client — the simulation stand-in for a
    /// consensus-backed membership view).
    pub(crate) ctls: Vec<ReplicaCtl>,
    /// The cluster's one routing map, shared with the server side and
    /// every other client: a bound grown by one client's insert is seen by
    /// every client's next scatter.
    pub(crate) map: Rc<RefCell<ShardMap>>,
    /// This client's replication identity: `(origin, op_id)` pairs name
    /// mutations for the servers' applied table (exactly-once dedup across
    /// retries and failovers).
    pub(crate) origin: u64,
    pub(crate) next_op: Cell<u64>,
    /// The cluster's own span handle: roots and merge spans for scattered
    /// reads are stamped here; shard clients share the same log (same id
    /// counter) so every span in a run gets a globally unique id.
    pub(crate) span: SpanLog,
}

impl<B: ClientBackend> std::fmt::Debug for ClusterClient<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<B: ClientBackend> ClusterClient<B> {
    /// Connects one client machine to every shard: a fresh fabric node
    /// carrying `shards` ring connections (Storm-style: many logical
    /// endpoints over one NIC). Per-shard back-off seeds are decorrelated
    /// from `seed` so shards don't draw identical bands; a client of a
    /// 1 shard × 1 replica cluster uses `seed` itself.
    pub fn connect(
        server: &ClusterServer<B>,
        net: &Network,
        profile: &NetProfile,
        cfg: ClientConfig,
        seed: u64,
    ) -> ClusterClient<B> {
        let ep = Endpoint::new(net, net.add_node(profile.link), RdmaProfile::default());
        Self::connect_from(server, &ep, cfg, seed)
    }

    /// Like [`ClusterClient::connect`], over an existing endpoint (shared
    /// client machines in the harness).
    pub fn connect_from(
        server: &ClusterServer<B>,
        client_ep: &Endpoint,
        cfg: ClientConfig,
        seed: u64,
    ) -> ClusterClient<B> {
        let mut shards = Vec::with_capacity(server.sets.len());
        let mut replicas = Vec::with_capacity(server.sets.len());
        // A lone connection has no sibling to decorrelate from: it keeps
        // the caller's seed, so a 1 × 1 cluster client draws exactly what
        // a plain `ServiceClient` with that seed would. Otherwise every
        // connection gets its own stream; replica 0 keeps the formula that
        // predates replication, so unreplicated multi-shard runs stay put.
        let lone = server.sets.len() == 1 && server.replicas() == 1;
        for (i, set) in server.sets.iter().enumerate() {
            let conns: Vec<Rc<RefCell<ServiceClient<B>>>> = set
                .iter()
                .enumerate()
                .map(|(r, s)| {
                    let ch = s.accept(client_ep);
                    let shard_seed = if lone {
                        seed
                    } else if r == 0 {
                        seed ^ mix64(i as u64 + 1)
                    } else {
                        seed ^ mix64(((r as u64) << 32) | (i as u64 + 1))
                    };
                    Rc::new(RefCell::new(ServiceClient::new(
                        ch,
                        s.remote_handle(),
                        cfg,
                        shard_seed,
                    )))
                })
                .collect();
            shards.push(Rc::clone(&conns[0]));
            replicas.push(conns);
        }
        ClusterClient {
            shards,
            replicas,
            ctls: server.ctls.clone(),
            map: Rc::clone(&server.map),
            origin: mix64(seed ^ 0xC1A5),
            next_op: Cell::new(1),
            span: SpanLog::default(),
        }
    }

    /// The connection a **read** for `shard` should use right now: the
    /// primary while its heartbeats are fresh, otherwise a live,
    /// fresh-looking backup (the staleness failsafe generalized into
    /// failover). A stale primary is also reported to the shared control
    /// block, which may promote — the epoch fence on the servers keeps
    /// that safe even when several clients race.
    pub(crate) fn read_conn(&self, shard: usize) -> Rc<RefCell<ServiceClient<B>>> {
        let conns = &self.replicas[shard];
        if conns.len() <= 1 {
            return Rc::clone(&self.shards[shard]);
        }
        let ctl = &self.ctls[shard];
        let primary = ctl.primary();
        if conns[primary].borrow_mut().is_stale() {
            ctl.suspect(primary, ctl.epoch());
        }
        let p = ctl.primary();
        if !conns[p].borrow_mut().is_stale() {
            return Rc::clone(&conns[p]);
        }
        for (r, c) in conns.iter().enumerate() {
            if r != p && ctl.is_alive(r) && !c.borrow_mut().is_stale() {
                return Rc::clone(c);
            }
        }
        Rc::clone(&conns[p])
    }

    /// Sends one mutation to `shard`'s current primary with exactly-once
    /// replication semantics: the message carries a
    /// `(origin, op_id, epoch)` envelope, the primary replicates it to
    /// live backups before acking, and on an unacknowledged send (retry
    /// budget burned, e.g. primary partitioned mid-batch) the client
    /// suspects the primary and **reissues the same op id** to the new
    /// one — the applied table turns the reissue into an idempotent ack if
    /// the first attempt did land. Unreplicated shards skip the envelope
    /// entirely (byte-identical to the pre-replication path).
    ///
    /// Returns the final `(status, items)`; status [`REPL_FENCED`] only
    /// when the view stopped changing while every member kept fencing us
    /// (i.e. the set is wedged).
    // Single-threaded cooperative executor: holding the RefCell across
    // the await is the crate-wide connection-ownership idiom.
    #[allow(clippy::await_holding_refcell_ref)]
    pub(crate) async fn replicated_write(
        &self,
        shard: usize,
        kind: OpKind,
        build: impl Fn(u32) -> WireMessage<B>,
    ) -> (u32, Vec<WireItem<B>>) {
        let conns = &self.replicas[shard];
        if conns.len() <= 1 {
            return self.shards[shard]
                .borrow_mut()
                .write_request(kind, &build)
                .await;
        }
        let ctl = &self.ctls[shard];
        let op_id = self.next_op.get();
        self.next_op.set(op_id + 1);
        let mut last = (STATUS_UNACKED, Vec::new());
        let attempts = 2 * conns.len() + 2;
        for _ in 0..attempts {
            let epoch = ctl.epoch();
            let primary = ctl.primary();
            let (status, items) = {
                let mut c = conns[primary].borrow_mut();
                c.pending_origin = Some(ReplEnvelope {
                    link_seq: 0,
                    origin: self.origin,
                    op_id,
                    epoch,
                    flags: 0,
                });
                c.write_request(kind, &build).await
            };
            if status == STATUS_UNACKED {
                ctl.suspect(primary, epoch);
                last = (status, items);
                continue;
            }
            if status == REPL_FENCED {
                last = (status, items);
                if ctl.epoch() == epoch && ctl.primary() == primary {
                    // Nothing changed our view; retrying would loop.
                    return last;
                }
                continue;
            }
            return (status, items);
        }
        last
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared handle to one shard's client (tests and the harness).
    pub fn shard_client(&self, i: usize) -> Rc<RefCell<ServiceClient<B>>> {
        Rc::clone(&self.shards[i])
    }

    /// Wires every per-shard Algorithm 1 into `log`, stamped with its
    /// shard id — the per-shard timelines the hot/cold demo plots.
    pub fn set_adaptive_event_log(&self, log: &AdaptiveEventLog) {
        for (i, set) in self.replicas.iter().enumerate() {
            for s in set {
                s.borrow_mut()
                    .set_adaptive_event_log(log.for_shard(i as u32));
            }
        }
    }

    /// Stamps this cluster client (roots, merge spans) and every shard
    /// connection (RPC legs, wire contexts) into `log`. All client-side
    /// spans carry the same node id — pass `log.for_node(client_id)`.
    pub fn set_span_log(&mut self, log: SpanLog) {
        for set in &self.replicas {
            for s in set {
                s.borrow_mut().set_span_log(log.clone());
            }
        }
        self.span = log;
    }

    /// The cluster's span log handle.
    pub fn span_log(&self) -> &SpanLog {
        &self.span
    }

    /// Labels every shard connection's flight recorder with this client's
    /// id and the shard it talks to, so anomaly dumps identify the
    /// connection they came from.
    pub fn set_flight_ids(&self, client: u32) {
        for (i, set) in self.replicas.iter().enumerate() {
            for s in set {
                s.borrow().set_flight_ids(client, i as u32);
            }
        }
    }

    /// Snapshots every shard connection's flight-recorder dumps, in shard
    /// order (flattened).
    pub fn flight_dumps(&self) -> Vec<crate::obs::FlightDump> {
        let mut out = Vec::new();
        for set in &self.replicas {
            for s in set {
                out.extend(s.borrow().flight().dumps());
            }
        }
        out
    }

    /// Opens the root span of a scattered read and parks its context on
    /// every target shard's client, so each leg's next operation opens as
    /// an RPC child instead of a fresh root. Returns `(trace_id, start)`
    /// for [`ClusterClient::end_scatter_root`], or `None` when tracing is
    /// off (the common case — one branch, no other cost).
    pub(crate) fn begin_scatter_root(&self, targets: &[usize]) -> Option<(u64, u64)> {
        if !self.span.active() {
            return None;
        }
        let trace_id = self.span.next_span_id();
        let start = self.span.now_ns();
        for &t in targets {
            // read_conn is deterministic within one poll (no awaits since),
            // so scatter() below picks the same connection the parent was
            // parked on.
            self.read_conn(t).borrow_mut().pending_parent = Some((trace_id, trace_id));
        }
        Some((trace_id, start))
    }

    /// Closes a scattered read opened by
    /// [`ClusterClient::begin_scatter_root`]: a merge child covering
    /// `[merge_start, now]`, then the root itself (root span id == trace
    /// id, so assembly's connectedness check anchors on it).
    pub(crate) fn end_scatter_root(&self, root: Option<(u64, u64)>, merge_start: u64) {
        let Some((trace_id, start)) = root else {
            return;
        };
        let merge_end = self.span.now_ns();
        self.span
            .emit(trace_id, trace_id, SpanKind::Merge, merge_start, merge_end);
        self.span.record(
            trace_id,
            trace_id,
            0,
            SpanKind::Request,
            start,
            self.span.now_ns(),
        );
    }

    /// Switches every shard connection to busy-poll response detection on
    /// a core of `pool` (the client machine's CPUs).
    pub fn set_response_polling(&self, pool: &CpuPool) {
        for set in &self.replicas {
            for s in set {
                s.borrow_mut().poll_pool = Some(pool.clone());
            }
        }
    }

    /// Routes every shard connection's phase spans into `sink` (the
    /// cluster analogue of [`ServiceClient::with_trace`]).
    pub fn set_trace(&self, sink: &crate::obs::TraceSink) {
        for set in &self.replicas {
            for s in set {
                let mut c = s.borrow_mut();
                c.ch.tx
                    .set_trace(sink.clone(), crate::obs::Phase::RingEnqueue);
                c.trace = sink.clone();
            }
        }
    }

    /// Per-shard client counters, in shard order.
    pub fn stats_per_shard(&self) -> Vec<ServiceStats> {
        self.replicas
            .iter()
            .map(|set| {
                let mut total = ServiceStats::default();
                for s in set {
                    total.merge(&s.borrow().stats());
                }
                total
            })
            .collect()
    }

    /// Counters summed across all connections.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for set in &self.replicas {
            for s in set {
                total.merge(&s.borrow().stats());
            }
        }
        total
    }

    /// Runs `op` against every shard in `targets` **in parallel** (each
    /// shard connection is independent) and returns the per-shard results
    /// in target order. The per-shard futures are spawned, so a slow shard
    /// overlaps the others instead of serializing the scatter.
    pub(crate) async fn scatter<R: 'static>(
        &self,
        targets: &[usize],
        op: impl Fn(
            Rc<RefCell<ServiceClient<B>>>,
        ) -> std::pin::Pin<Box<dyn std::future::Future<Output = R>>>,
    ) -> Vec<R> {
        let mut handles = Vec::with_capacity(targets.len());
        for &t in targets {
            let shard = self.read_conn(t);
            handles.push(spawn(op(shard)));
        }
        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            out.push(h.await);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ring_covers_every_shard_roughly_evenly() {
        let map = ShardMap::hash_ring(4);
        let mut counts = [0usize; 4];
        for key in 0..40_000u64 {
            counts[map.key_shard(key)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (4_000..=16_000).contains(&c),
                "shard {shard} got {c} of 40000 keys"
            );
        }
    }

    #[test]
    fn hash_ring_is_deterministic() {
        let a = ShardMap::hash_ring(8);
        let b = ShardMap::hash_ring(8);
        for key in 0..1_000u64 {
            assert_eq!(a.key_shard(key), b.key_shard(key));
        }
    }

    #[test]
    fn region_map_routes_and_grows() {
        let mut map = ShardMap::Region {
            cuts: vec![0.5],
            bounds: vec![Some(Rect::new(0.0, 0.0, 0.4, 1.0)), None],
        };
        assert_eq!(map.shards(), 2);
        // Center below the cut → shard 0; above → shard 1.
        assert_eq!(map.home_shard(&Rect::new(0.1, 0.1, 0.2, 0.2)), 0);
        assert_eq!(map.home_shard(&Rect::new(0.8, 0.1, 0.9, 0.2)), 1);
        // Shard 1 is empty: scatter prunes it even right of the cut.
        assert_eq!(map.read_targets(&Rect::new(0.6, 0.0, 0.9, 1.0)), vec![]);
        assert_eq!(map.occupied(), vec![0]);
        // First insert establishes its bound; scatter now reaches it.
        map.grow(1, &Rect::new(0.7, 0.2, 0.75, 0.25));
        assert_eq!(map.read_targets(&Rect::new(0.6, 0.0, 0.9, 1.0)), vec![1]);
        assert_eq!(map.occupied(), vec![0, 1]);
        // A query spanning the cut scatters to both.
        assert_eq!(map.read_targets(&Rect::new(0.3, 0.0, 0.8, 1.0)), vec![0, 1]);
    }

    #[test]
    fn grow_unions_with_the_existing_bound() {
        let mut map = ShardMap::Region {
            cuts: vec![],
            bounds: vec![Some(Rect::new(0.2, 0.2, 0.4, 0.4))],
        };
        map.grow(0, &Rect::new(0.35, 0.1, 0.5, 0.3));
        let ShardMap::Region { bounds, .. } = &map else {
            unreachable!()
        };
        let b = bounds[0].unwrap();
        assert_eq!(
            (b.min_x(), b.min_y(), b.max_x(), b.max_y()),
            (0.2, 0.1, 0.5, 0.4)
        );
    }

    #[test]
    fn replica_ctl_promotes_with_epoch_bump() {
        let ctl = ReplicaCtl::new(3);
        assert_eq!((ctl.primary(), ctl.epoch()), (0, 0));
        // Suspecting a backup changes liveness but not leadership.
        assert!(ctl.suspect(2, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (0, 0));
        assert!(!ctl.is_alive(2));
        // Suspecting the primary promotes the next live member and fences
        // the old epoch.
        assert!(ctl.suspect(0, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
    }

    #[test]
    fn replica_ctl_stale_epoch_suspicions_are_ignored() {
        let ctl = ReplicaCtl::new(3);
        assert!(ctl.suspect(0, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
        // A second client still holding epoch 0 reports the *old* primary:
        // already handled, must not double-promote.
        assert!(!ctl.suspect(0, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
        // Even a stale report against the *new* primary is ignored.
        assert!(!ctl.suspect(1, 0));
        assert_eq!((ctl.primary(), ctl.epoch()), (1, 1));
    }

    #[test]
    fn replica_ctl_refuses_to_kill_the_last_member() {
        let ctl = ReplicaCtl::new(2);
        assert!(ctl.suspect(1, 0));
        assert!(!ctl.suspect(0, 0), "last live member must survive");
        assert!(ctl.is_alive(0));
        assert_eq!(ctl.primary(), 0);
    }

    #[test]
    fn replica_ctl_revive_rejoins_as_backup() {
        let ctl = ReplicaCtl::new(3);
        assert!(ctl.suspect(0, 0));
        let epoch = ctl.epoch();
        ctl.revive(0);
        assert!(ctl.is_alive(0));
        // Rejoining neither reclaims leadership nor bumps the epoch.
        assert_eq!((ctl.primary(), ctl.epoch()), (1, epoch));
        assert_eq!(ctl.live_backups(), 2);
    }

    mod replicated {
        use super::*;
        use crate::config::{AccessMode, ServerMode};
        use crate::kv::{KvCluster, KvClusterClient};
        use catfish_bplus::BpConfig;
        use catfish_rdma::profile::infiniband_100g;
        use catfish_simnet::Sim;

        fn kv_items(n: u64) -> Vec<(u64, u64)> {
            (0..n).map(|i| (i * 11 % (n * 4), i)).collect()
        }

        fn build_kv(shards: usize, replicas: usize, n: u64) -> (Network, KvCluster) {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            let cluster = KvCluster::build_replicated(
                &net,
                &profile,
                ServerConfig {
                    cores: 2,
                    mode: ServerMode::EventDriven,
                    ..ServerConfig::default()
                },
                BpConfig::with_max_keys(32),
                kv_items(n),
                shards,
                replicas,
                &rkeys,
            );
            (net, cluster)
        }

        fn connect(net: &Network, cluster: &KvCluster, seed: u64) -> KvClusterClient {
            KvClusterClient::connect(
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

        fn digest(cluster: &KvCluster, shard: usize, replica: usize) -> (u64, u64) {
            cluster
                .replica(shard, replica)
                .with_index(RangeDigest::root_digest)
        }

        #[test]
        fn acked_writes_reach_every_backup() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(2, 3, 200);
                let mut c = connect(&net, &cluster, 7);
                for i in 0..40u64 {
                    let key = 1_000_000 + i * 13;
                    assert_eq!(c.put(key, i).await, None);
                }
                assert_eq!(c.remove(1_000_000).await, Some(0));
                // Every member of every set converged to the same content.
                for shard in 0..cluster.shards() {
                    let d0 = digest(&cluster, shard, 0);
                    for r in 1..cluster.replicas() {
                        assert_eq!(digest(&cluster, shard, r), d0, "replica {r} diverged");
                    }
                }
                let st = cluster.stats();
                // 41 acked mutations, each forwarded to 2 backups.
                assert_eq!(st.repl_forwards, 41);
                assert_eq!(st.repl_fenced, 0);
                assert_eq!(st.repl_dups, 0);
            });
        }

        #[test]
        fn promotion_keeps_writes_flowing_and_fences_the_old_primary() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 100);
                let mut c = connect(&net, &cluster, 11);
                assert_eq!(c.put(2_000_000, 1).await, None);
                // Fail the primary administratively: epoch 0 → 1, member 1
                // leads. The shared control block is visible to the client.
                assert!(cluster.ctl(0).suspect(0, 0));
                assert_eq!(c.put(2_000_001, 2).await, None);
                assert_eq!(c.get(2_000_001).await, Some(2));
                // The surviving pair converged (the dead member missed it).
                assert_eq!(digest(&cluster, 0, 1), digest(&cluster, 0, 2));
                assert_ne!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
                // Heal: reconcile the crashed ex-primary and rejoin it.
                let report = cluster.heal(0, 0);
                assert!(report.converged, "repair must converge");
                assert!(report.transferred >= 1);
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
                assert!(cluster.ctl(0).is_alive(0));
                // Rejoined as backup: the next write reaches it too.
                assert_eq!(c.put(2_000_002, 3).await, None);
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
            });
        }

        #[test]
        fn repair_moves_less_than_full_resync_and_scales_log_n() {
            let sim = Sim::new();
            sim.run_until(async {
                let n = 4_096u64;
                let (_net, cluster) = build_kv(1, 2, n);
                // Diverge the backup: drop a handful of entries and corrupt
                // one value (1% of n).
                let backup = 1;
                cluster.replica(0, backup).with_index_mut(|ix| {
                    for i in 0..40u64 {
                        ix.remove(i * 11 % (n * 4));
                    }
                    ix.insert(11, 0xDEAD);
                });
                let report = cluster.repair_replica(0, backup);
                assert!(report.converged);
                assert!(report.transferred >= 40);
                assert!(
                    report.bytes_moved * 5 <= report.full_resync_bytes,
                    "repair moved {} of {} full-resync bytes",
                    report.bytes_moved,
                    report.full_resync_bytes
                );
                let bound = 2 * (64 - (n.leading_zeros() as u64)) + 2;
                assert!(
                    report.rounds <= bound,
                    "{} rounds exceeds O(log n) bound {bound}",
                    report.rounds
                );
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
            });
        }

        #[test]
        fn replicated_one_is_plain_cluster() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(2, 1, 100);
                let mut c = connect(&net, &cluster, 3);
                assert_eq!(c.put(5_000, 9).await, None);
                assert_eq!(c.get(5_000).await, Some(9));
                let st = cluster.stats();
                assert_eq!(st.repl_forwards, 0);
                assert_eq!(st.repl_fenced, 0);
                assert_eq!(cluster.replicas(), 1);
            });
        }

        /// Every member's root digest equals the current primary's.
        fn live_replicas_agree<B: IndexBackend + RangeDigest>(cluster: &ClusterServer<B>) {
            for shard in 0..cluster.shards() {
                let ctl = cluster.ctl(shard);
                let want = cluster
                    .replica(shard, ctl.primary())
                    .with_index(|ix| ix.root_digest());
                for r in (0..cluster.replicas()).filter(|&r| ctl.is_alive(r)) {
                    let got = cluster.replica(shard, r).with_index(|ix| ix.root_digest());
                    assert_eq!(got, want, "shard {shard} replica {r} diverged");
                }
            }
        }

        /// The deposed primary's forward reached backup 1 but not backup
        /// 2, and the writer's reissue hits backup 1 — the new primary —
        /// in its applied table. The promotion itself must bring backup 2
        /// up to backup 1, or the two survivors differ for good (heal only
        /// repairs the deposed member).
        #[test]
        fn promotion_resyncs_every_survivor_to_the_new_primary() {
            use catfish_rdma::{FaultConfig, FaultPlan};
            use catfish_simnet::{sleep, SimDuration, SimTime};
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 100);
                // Backup 2 drops every frame for the first 150 µs, so the
                // first forward reaches backup 1 only and the primary's
                // pump to backup 2 waits out its 1 s timeout.
                let cut = FaultConfig {
                    partition_window: Some((SimTime::ZERO, SimDuration::from_micros(150))),
                    ..FaultConfig::off()
                };
                cluster
                    .replica(0, 2)
                    .endpoint()
                    .set_fault_plan(Some(FaultPlan::new(cut, 1)));
                // A writer with a tight budget gives up on the stalled
                // primary, deposes it and reissues the same op id.
                let mut c = KvClusterClient::connect(
                    &cluster,
                    &net,
                    &infiniband_100g(),
                    ClientConfig {
                        mode: AccessMode::FastMessaging,
                        request_timeout: SimDuration::from_micros(100),
                        max_retries: 1,
                        ..ClientConfig::default()
                    },
                    5,
                );
                assert_eq!(c.put(3_000_000, 1).await, None);
                let ctl = cluster.ctl(0);
                assert_eq!((ctl.epoch(), ctl.primary()), (1, 1), "primary not deposed");
                assert_eq!(cluster.replica(0, 1).stats().repl_dups, 1, "no reissue hit");
                // Let the old primary's pump retransmit and be fenced.
                sleep(SimDuration::from_secs(3)).await;
                for r in [1, 2] {
                    let got = cluster.replica(0, r).with_index(|ix| ix.get(3_000_000));
                    assert_eq!(got, Some(1), "replica {r} misses the acked put");
                }
                live_replicas_agree(&cluster);
            });
        }

        /// A stalled writer's reissue must not replay its old mutation over
        /// a later write of the same key: the deposed primary applied
        /// put(k, 1) and reached backup 1 only; after the promotion a
        /// second writer puts (k, 2) through backup 1, and only then does
        /// the first writer reissue put(k, 1), which backup 1 answers from
        /// its applied table. Backup 2 must end with k = 2 like backup 1.
        #[test]
        fn reissue_after_a_later_same_key_write_leaves_survivors_identical() {
            use catfish_rdma::{FaultConfig, FaultPlan};
            use catfish_simnet::{sleep, SimDuration, SimTime};
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 100);
                // Backup 2 is cut off for 150 µs: put(k, 1) reaches backup 1
                // only, and the primary stalls on backup 2's ack.
                let cut = FaultConfig {
                    partition_window: Some((SimTime::ZERO, SimDuration::from_micros(150))),
                    ..FaultConfig::off()
                };
                cluster
                    .replica(0, 2)
                    .endpoint()
                    .set_fault_plan(Some(FaultPlan::new(cut, 1)));
                let key = 3_100_000;
                let mut first = KvClusterClient::connect(
                    &cluster,
                    &net,
                    &infiniband_100g(),
                    ClientConfig {
                        mode: AccessMode::FastMessaging,
                        request_timeout: SimDuration::from_micros(200),
                        max_retries: 1,
                        ..ClientConfig::default()
                    },
                    5,
                );
                let stalled = spawn(async move { first.put(key, 1).await });
                // The membership service deposes the stalled primary, then
                // a second writer overwrites the key through the new one —
                // both before the first writer's budget runs out.
                sleep(SimDuration::from_micros(100)).await;
                assert!(cluster.ctl(0).suspect(0, 0));
                sleep(SimDuration::from_micros(60)).await;
                let mut second = connect(&net, &cluster, 6);
                assert_eq!(second.put(key, 2).await, Some(1));
                let reissues_before = cluster.replica(0, 1).stats().repl_dups;
                assert_eq!(stalled.await, None);
                assert_eq!(
                    cluster.replica(0, 1).stats().repl_dups,
                    reissues_before + 1,
                    "the first writer's reissue did not hit the applied table"
                );
                // Let the old primary's pump retransmit and be fenced.
                sleep(SimDuration::from_secs(3)).await;
                for r in [1, 2] {
                    let got = cluster.replica(0, r).with_index(|ix| ix.get(key));
                    assert_eq!(got, Some(2), "replica {r} replayed the stale put");
                }
                live_replicas_agree(&cluster);
            });
        }

        /// The deposed primary's forward reached backup 2 but not backup 1,
        /// which is promoted: the promotion re-syncs backup 2 to backup 1,
        /// dropping the put. When backup 1 fences the old primary's
        /// retransmitted forward, the old primary must answer the writer
        /// fenced, not acked, so the writer reissues it to backup 1.
        #[test]
        fn deposed_primary_answers_a_fenced_forward_as_fenced() {
            use catfish_rdma::{FaultConfig, FaultPlan};
            use catfish_simnet::{sleep, SimDuration, SimTime};
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 100);
                let cut = FaultConfig {
                    partition_window: Some((SimTime::ZERO, SimDuration::from_micros(150))),
                    ..FaultConfig::off()
                };
                cluster
                    .replica(0, 1)
                    .endpoint()
                    .set_fault_plan(Some(FaultPlan::new(cut, 1)));
                let key = 3_200_000;
                let mut c = KvClusterClient::connect(
                    &cluster,
                    &net,
                    &infiniband_100g(),
                    ClientConfig {
                        mode: AccessMode::FastMessaging,
                        request_timeout: SimDuration::from_secs(5),
                        ..ClientConfig::default()
                    },
                    5,
                );
                let write = spawn(async move { c.put(key, 1).await });
                sleep(SimDuration::from_micros(100)).await;
                assert!(cluster.ctl(0).suspect(0, 0));
                assert_eq!(write.await, None);
                assert!(
                    cluster.replica(0, 1).stats().repl_fenced > 0,
                    "backup 1 never fenced the old primary's forward"
                );
                for r in [1, 2] {
                    let got = cluster.replica(0, r).with_index(|ix| ix.get(key));
                    assert_eq!(got, Some(1), "replica {r} misses the acked put");
                }
                live_replicas_agree(&cluster);
            });
        }

        /// Same-key puts from concurrent writers must reach every backup in
        /// the order the primary applied them: forwarding lanes stripe by
        /// key, so one key's mutations never race each other on two lanes.
        #[test]
        fn concurrent_same_key_puts_leave_replicas_identical() {
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 200);
                let mut handles = Vec::new();
                for c in 0..6u64 {
                    let mut client = connect(&net, &cluster, 100 + c);
                    handles.push(spawn(async move {
                        for i in 0..60u64 {
                            let key = 4_000_000 + i % 3;
                            client.put(key, c * 1_000 + i).await;
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                assert_eq!(cluster.stats().repl_forwards, 360);
                live_replicas_agree(&cluster);
            });
        }

        /// The R-tree analogue: one writer inserts an id while another
        /// deletes it, so the two race through the primary; every backup
        /// must apply them in the primary's order and end with its entries.
        #[test]
        fn concurrent_insert_delete_of_one_id_leave_replicas_identical() {
            use crate::client::CatfishClusterClient;
            use crate::server::CatfishCluster;
            use catfish_rtree::RTreeConfig;
            let sim = Sim::new();
            sim.run_until(async {
                let net = Network::new();
                let profile = infiniband_100g();
                let cluster = CatfishCluster::build_replicated(
                    &net,
                    &profile,
                    ServerConfig {
                        cores: 2,
                        mode: ServerMode::EventDriven,
                        ..ServerConfig::default()
                    },
                    RTreeConfig::with_max_entries(16),
                    catfish_workload::uniform_rects(500, 1e-2, 3),
                    1,
                    3,
                    &RkeyAllocator::new(),
                );
                let mut handles = Vec::new();
                for c in 0..6u64 {
                    let mut client = CatfishClusterClient::connect(
                        &cluster,
                        &net,
                        &profile,
                        ClientConfig {
                            mode: AccessMode::FastMessaging,
                            ..ClientConfig::default()
                        },
                        200 + c,
                    );
                    handles.push(spawn(async move {
                        // Pairs of writers race on one fresh id per
                        // round: which of the insert and the delete lands
                        // first decides whether the id survives.
                        for i in 0..60u64 {
                            let id = 5_000_000 + (c / 2) * 1_000 + i;
                            let x = (i % 8) as f64 / 10.0;
                            let rect = Rect::new(x, 0.5, x + 0.01, 0.51);
                            if c % 2 == 0 {
                                client.insert(rect, id).await;
                            } else {
                                client.delete(rect, id).await;
                            }
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                assert_eq!(cluster.stats().repl_forwards, 360);
                live_replicas_agree(&cluster);
            });
        }

        /// Loss on a backup's link drops acks of batched forwarding legs:
        /// the pump retransmits only the pending legs under their original
        /// link seqs, and the backup's dedup window answers them, so every
        /// acked put is applied exactly once on every backup.
        #[test]
        fn lossy_backup_link_applies_each_batched_forward_once() {
            use catfish_rdma::{FaultConfig, FaultPlan};
            let sim = Sim::new();
            sim.run_until(async {
                let (net, cluster) = build_kv(1, 3, 200);
                let lossy = FaultConfig {
                    drop_write: 0.2,
                    ..FaultConfig::off()
                };
                cluster
                    .replica(0, 2)
                    .endpoint()
                    .set_fault_plan(Some(FaultPlan::new(lossy, 9)));
                let mut handles = Vec::new();
                for c in 0..8u64 {
                    let mut client = connect(&net, &cluster, 300 + c);
                    handles.push(spawn(async move {
                        for i in 0..25u64 {
                            let key = 6_000_000 + c * 100 + i;
                            assert_eq!(client.put(key, i).await, None, "put {key} not acked");
                        }
                    }));
                }
                for h in handles {
                    h.await;
                }
                let primary = cluster.replica(0, 0).stats();
                assert_eq!(primary.repl_forwards, 200, "one forward per mutation");
                for r in [1, 2] {
                    let st = cluster.replica(0, r).stats();
                    assert_eq!(
                        st.writes, 200,
                        "replica {r} applied a forward twice or never"
                    );
                    assert!(st.batches_sent > 0, "replica {r} saw no batched legs");
                }
                let lossy_backup = cluster.replica(0, 2).stats();
                assert!(
                    lossy_backup.dup_drops > 0,
                    "no retransmitted leg reached the backup"
                );
                live_replicas_agree(&cluster);
            });
        }

        /// Adaptive routing with live heartbeats that always read busy, so
        /// the client seed's back-off draws pick each read's route.
        fn adaptive(cfg: &ServerConfig) -> ClientConfig {
            ClientConfig {
                mode: AccessMode::Adaptive(crate::config::AdaptiveParams {
                    heartbeat_interval: cfg.heartbeat_interval,
                    busy_threshold: -1.0,
                    ..crate::config::AdaptiveParams::default()
                }),
                ..ClientConfig::default()
            }
        }

        /// A 1 shard × 1 replica cluster client keeps the caller's seed, so
        /// it draws, routes and times exactly like a plain `ServiceClient`
        /// on the same seed — the rule that keeps the paper's single-server
        /// topology byte-identical when it runs as a 1-shard cluster.
        #[test]
        fn lone_cluster_client_draws_like_a_plain_client() {
            use crate::client::{CatfishClient, CatfishClusterClient};
            use crate::kv::KvClient;
            use crate::server::CatfishCluster;
            use catfish_rtree::RTreeConfig;
            use catfish_simnet::{now, SimDuration};

            // The same script through either client type.
            macro_rules! kv_script {
                ($c:expr) => {{
                    let mut out = Vec::new();
                    for i in 0..50u64 {
                        let t0 = now();
                        let put = $c.put(9_000_000 + i * 3, i).await;
                        let got = $c.get(9_000_000 + i * 3).await;
                        out.push((put, got, now() - t0));
                    }
                    (out, $c.stats(), now())
                }};
            }
            macro_rules! rtree_script {
                ($c:expr) => {{
                    let mut out = Vec::new();
                    for i in 0..60u64 {
                        let t0 = now();
                        let x = (i % 10) as f64 / 10.0;
                        let rect = Rect::new(x, x, x + 0.05, x + 0.05);
                        let ids = if i % 4 == 0 {
                            vec![u64::from($c.insert(rect, 1_000_000 + i).await)]
                        } else {
                            $c.search(&rect).await
                        };
                        out.push((ids, now() - t0));
                    }
                    (out, $c.stats(), now())
                }};
            }

            let cfg = ServerConfig {
                cores: 2,
                mode: ServerMode::EventDriven,
                heartbeat_interval: SimDuration::from_micros(200),
                ..ServerConfig::default()
            };
            let kv = |clustered: bool| {
                Sim::new().run_until(async move {
                    let net = Network::new();
                    let profile = infiniband_100g();
                    let cluster = KvCluster::build_replicated(
                        &net,
                        &profile,
                        cfg,
                        BpConfig::with_max_keys(32),
                        kv_items(500),
                        1,
                        1,
                        &RkeyAllocator::new(),
                    );
                    cluster.start_heartbeats();
                    let ep =
                        Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
                    if clustered {
                        let mut c =
                            KvClusterClient::connect_from(&cluster, &ep, adaptive(&cfg), 42);
                        kv_script!(c)
                    } else {
                        let s = cluster.shard(0);
                        let mut c =
                            KvClient::new(s.accept(&ep), s.remote_handle(), adaptive(&cfg), 42);
                        kv_script!(c)
                    }
                })
            };
            assert_eq!(kv(true), kv(false), "KV");

            let rtree = |clustered: bool| {
                Sim::new().run_until(async move {
                    let net = Network::new();
                    let profile = infiniband_100g();
                    let cluster = CatfishCluster::build_replicated(
                        &net,
                        &profile,
                        cfg,
                        RTreeConfig::with_max_entries(16),
                        catfish_workload::uniform_rects(2_000, 1e-2, 7),
                        1,
                        1,
                        &RkeyAllocator::new(),
                    );
                    cluster.start_heartbeats();
                    let ep =
                        Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
                    if clustered {
                        let mut c =
                            CatfishClusterClient::connect_from(&cluster, &ep, adaptive(&cfg), 42);
                        rtree_script!(c)
                    } else {
                        let s = cluster.shard(0);
                        let mut c = CatfishClient::new(
                            s.accept(&ep),
                            s.remote_handle(),
                            adaptive(&cfg),
                            42,
                        );
                        rtree_script!(c)
                    }
                })
            };
            assert_eq!(rtree(true), rtree(false), "R-tree");
        }

        /// The range digest as the walk computed it before snapshots — a
        /// full scan filtered by repair key — kept as the oracle for
        /// [`RepairSnapshot`].
        fn scan_digest<B: RangeDigest>(ix: &B, lo: u64, hi: u64) -> (u64, u64) {
            ix.repair_entries()
                .into_iter()
                .filter(|&(key, _, _)| (lo..=hi).contains(&key))
                .fold((0, 0), |(xor, n), (_, fp, _)| (xor ^ fp, n + 1))
        }

        fn xorshift(x: &mut u64) -> u64 {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        }

        /// Snapshot digests and ranges equal the scan over `ranges` random
        /// ranges of every width, the whole keyspace and each key alone.
        fn assert_snapshot_matches_scan<B: IndexBackend + RangeDigest>(
            member: &ServiceServer<B>,
            seed: u64,
            ranges: usize,
        ) {
            let snap = member.with_index(RepairSnapshot::of);
            member.with_index(|ix| {
                let mut probes = vec![(0, u64::MAX)];
                let mut x = seed | 1;
                for _ in 0..ranges {
                    let lo = xorshift(&mut x);
                    let width = xorshift(&mut x) >> (xorshift(&mut x) % 64);
                    probes.push((lo, lo.saturating_add(width)));
                }
                probes.extend(ix.repair_entries().iter().map(|&(k, _, _)| (k, k)));
                for (lo, hi) in probes {
                    assert_eq!(snap.digest(lo, hi), scan_digest(ix, lo, hi), "[{lo}, {hi}]");
                    let mut want: Vec<u64> = ix
                        .repair_entries()
                        .into_iter()
                        .map(|(k, _, _)| k)
                        .filter(|k| (lo..=hi).contains(k))
                        .collect();
                    want.sort_unstable();
                    let got: Vec<u64> = snap.range(lo, hi).iter().map(|e| e.0).collect();
                    assert_eq!(got, want, "[{lo}, {hi}]");
                }
                assert_eq!(snap.digest(0, u64::MAX), ix.root_digest());
            });
        }

        #[test]
        fn repair_snapshot_digests_match_a_full_scan() {
            let sim = Sim::new();
            sim.run_until(async {
                let n = 600u64;
                let (_net, cluster) = build_kv(1, 2, n);
                // Diverge the backup: missing keys, stale values, extras.
                cluster.replica(0, 1).with_index_mut(|ix| {
                    for i in (0..n).step_by(17) {
                        ix.remove(i * 11 % (n * 4));
                    }
                    for i in (0..n).step_by(29) {
                        ix.insert(i * 11 % (n * 4), 0xBAD);
                    }
                    for k in 0..40u64 {
                        ix.insert(1_000_000 + k, k);
                    }
                });
                assert_ne!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
                for r in 0..2 {
                    assert_snapshot_matches_scan(cluster.replica(0, r), 7 + r as u64, 300);
                }
                let report = cluster.repair_replica(0, 1);
                assert!(report.converged);
                assert_eq!(report.removed, 40);
                assert_eq!(digest(&cluster, 0, 0), digest(&cluster, 0, 1));
            });
        }

        /// Entries sharing a repair key — one id under two rectangles —
        /// stay distinct in the snapshot, and the walk converges whichever
        /// member holds the extra copy: a backup missing the authority's
        /// second copy gains it, and a backup's stray copy is replaced.
        #[test]
        fn repair_keeps_duplicate_repair_keys() {
            use crate::server::CatfishCluster;
            use catfish_rtree::RTreeConfig;
            let sim = Sim::new();
            sim.run_until(async {
                let net = Network::new();
                let cluster = CatfishCluster::build_replicated(
                    &net,
                    &infiniband_100g(),
                    ServerConfig {
                        cores: 2,
                        mode: ServerMode::EventDriven,
                        ..ServerConfig::default()
                    },
                    RTreeConfig::with_max_entries(16),
                    catfish_workload::uniform_rects(300, 1e-2, 5),
                    1,
                    3,
                    &RkeyAllocator::new(),
                );
                let id = cluster.replica(0, 0).with_index(|ix| ix.items()[0].1);
                cluster
                    .replica(0, 0)
                    .with_index_mut(|ix| ix.insert(Rect::new(0.9, 0.9, 0.91, 0.91), id));
                cluster
                    .replica(0, 2)
                    .with_index_mut(|ix| ix.insert(Rect::new(0.1, 0.9, 0.11, 0.91), id));
                for r in 0..3 {
                    assert_snapshot_matches_scan(cluster.replica(0, r), 11 + r as u64, 100);
                }
                let key = mix64(id);
                let copies = |r: usize| {
                    let snap = cluster.replica(0, r).with_index(RepairSnapshot::of);
                    snap.range(key, key).len()
                };
                assert_eq!((copies(0), copies(1), copies(2)), (2, 1, 2));
                for backup in [1, 2] {
                    let report = cluster.repair_replica(0, backup);
                    assert!(report.converged, "backup {backup}");
                    assert_eq!(report.transferred, 1, "backup {backup}");
                }
                live_replicas_agree(&cluster);
            });
        }
    }
}
