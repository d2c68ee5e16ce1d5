//! Chaos harness: sweeps injected fault rates (RDMA write loss, worker
//! stalls, heartbeat suppression, payload corruption) over an insert-heavy
//! workload and checks the exactly-once contract — every acknowledged
//! insert is in the tree exactly once, no matter how many frames were
//! dropped, duplicated, corrupted, or discarded by a crashing worker.
//!
//! Each client inserts rectangles tagged with globally unique ids, so a
//! duplicated (non-idempotent) retry would be visible as the same id
//! appearing twice in a server-side search. After the workload joins, the
//! harness searches the server's tree for every inserted id and counts
//! occurrences: `lost` (0 hits) and `duplicated` (>1 hits) must both be
//! zero in every cell.
//!
//! Emits `BENCH_faults.json` with the fault-rate → p99 / retransmission
//! curve (see EXPERIMENTS.md). A virtual-time watchdog panics if a cell
//! wedges instead of recovering.

use std::cell::RefCell;
use std::rc::Rc;

use catfish_bench::{banner, timed, BenchArgs};
use catfish_core::client::CatfishClusterClient;
use catfish_core::config::{AccessMode, AdaptiveParams, ClientConfig, ServerConfig, ServerMode};
use catfish_core::conn::RkeyAllocator;
use catfish_core::obs::{Anomaly, FlightDump, LatencyHistogram};
use catfish_core::server::CatfishCluster;
use catfish_core::ServiceStats;
use catfish_rdma::profile::infiniband_100g;
use catfish_rdma::{Endpoint, FaultConfig, FaultCounters, FaultPlan, RdmaProfile};
use catfish_rtree::{RTreeConfig, Rect};
use catfish_simnet::{now, sleep, spawn, Network, Sim, SimDuration};

/// Virtual-time budget per cell: a wedged run (a request loop that stops
/// making progress but keeps arming timers) trips this instead of hanging.
const WATCHDOG: SimDuration = SimDuration::from_secs(300);

const CLIENTS: usize = 4;

/// Ids far above the pre-loaded dataset so occurrence counting is exact.
const ID_BASE: u64 = 10_000_000;

struct Cell {
    label: &'static str,
    fault: FaultConfig,
    /// Serve every read through mailbox fetching ([`AccessMode::Fetching`])
    /// so the one-sided pull path rides the same chaos as the ring.
    fetch: bool,
}

#[derive(Debug)]
struct CellResult {
    label: String,
    fault: FaultConfig,
    ops: usize,
    makespan: SimDuration,
    hist: LatencyHistogram,
    stats: ServiceStats,
    injected: FaultCounters,
    lost: usize,
    duplicated: usize,
    /// Mailbox slot leases still outstanding after the post-run grace
    /// period (every lease must be reclaimed — acked or TTL-swept).
    leaked_slots: usize,
    /// Every flight-recorder dump fired by any client connection.
    flight: Vec<FlightDump>,
    /// CRC failures observed on the *client* side only (the merged
    /// [`ServiceStats`] also fold in server-side failures, but only
    /// client-side ones fire a client flight dump).
    client_crc: u64,
}

fn unique_rect(op: u64) -> Rect {
    // A dense grid disjoint from itself (every op gets its own cell) but
    // freely overlapping the pre-loaded dataset — occurrence counting
    // keys on the unique id, not the rectangle.
    let x = (op % 997) as f64 / 997.0 * 0.9;
    let y = (op / 997) as f64 / 997.0 * 0.9;
    Rect::new(x, y, x + 0.0004, y + 0.0004)
}

fn dataset(n: usize) -> Vec<(Rect, u64)> {
    (0..n as u64)
        .map(|i| {
            let x = (i % 256) as f64 / 256.0;
            let y = (i / 256) as f64 / 256.0 % 1.0;
            (Rect::new(x, y, x + 0.003, y + 0.003), i)
        })
        .collect()
}

/// One chaos cell on a `shards`-way [`CatfishCluster`] with the fault plan
/// attached to **shard 0's NIC**. Client NICs draw from the plan too only
/// when shard 0 is the only shard — then every client-NIC frame is shard
/// 0's traffic; with more shards they carry every shard's traffic and run
/// clean. So ops homed on shard 0 ride the chaos while the rest of the
/// cluster stays healthy; the exactly-once audit then counts each id
/// across *all* shards, so a retry mis-applied to a sibling shard would
/// show up as a duplicate.
fn run_cluster_cell(
    cell: &Cell,
    args: &BenchArgs,
    size: usize,
    ops: usize,
    shards: usize,
) -> CellResult {
    let sim = Sim::new();
    let fault = cell.fault;
    let fetch = cell.fetch;
    let seed = args.seed;
    let timeout = SimDuration::from_micros(args.timeout_us.unwrap_or(500));
    let max_retries = args.max_retries.unwrap_or(64);
    let (makespan, hist, stats, injected, lost, duplicated, leaked, flight, client_crc) = sim
        .run_until(async move {
            let net = Network::new();
            let profile = infiniband_100g();
            let rkeys = RkeyAllocator::new();
            // Fast heartbeats so the staleness failsafe (k intervals of
            // silence) can trip inside a short chaos cell.
            let hb_interval = SimDuration::from_millis(1);
            let cluster = CatfishCluster::build_replicated(
                &net,
                &profile,
                ServerConfig {
                    cores: 4,
                    mode: ServerMode::EventDriven,
                    heartbeat_interval: hb_interval,
                    ..ServerConfig::default()
                },
                RTreeConfig::with_max_entries(88),
                dataset(size),
                shards,
                1,
                &rkeys,
            );
            let plan = fault.is_active().then(|| FaultPlan::new(fault, seed));
            if let Some(plan) = &plan {
                cluster
                    .shard(0)
                    .endpoint()
                    .set_fault_plan(Some(plan.clone()));
            }
            cluster.start_heartbeats();
            // Virtual-time watchdog: recovery must converge, not crawl.
            spawn(async {
                sleep(WATCHDOG).await;
                panic!("fault_sweep cell wedged: no convergence within {WATCHDOG}");
            });
            let started = now();
            let hist: Rc<RefCell<LatencyHistogram>> = Rc::default();
            let stats: Rc<RefCell<ServiceStats>> = Rc::default();
            let lost: Rc<RefCell<Vec<u64>>> = Rc::default();
            let dumps: Rc<RefCell<Vec<FlightDump>>> = Rc::default();
            let mut handles = Vec::new();
            for c in 0..CLIENTS {
                let ep = Endpoint::new(&net, net.add_node(profile.link), RdmaProfile::default());
                if let Some(plan) = plan.as_ref().filter(|_| shards == 1) {
                    ep.set_fault_plan(Some(plan.clone()));
                }
                let mut client = CatfishClusterClient::connect_from(
                    &cluster,
                    &ep,
                    ClientConfig {
                        mode: if fetch {
                            AccessMode::Fetching
                        } else {
                            AccessMode::Adaptive(AdaptiveParams {
                                heartbeat_interval: hb_interval,
                                ..AdaptiveParams::default()
                            })
                        },
                        request_timeout: timeout,
                        max_retries,
                        ..ClientConfig::default()
                    },
                    seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                client.set_flight_ids(c as u32);
                let hist = Rc::clone(&hist);
                let stats = Rc::clone(&stats);
                let lost = Rc::clone(&lost);
                let dumps = Rc::clone(&dumps);
                handles.push(spawn(async move {
                    sleep(SimDuration::from_nanos(13_007 * c as u64)).await;
                    for i in 0..ops as u64 {
                        let op = (c * ops) as u64 + i;
                        let id = ID_BASE + op;
                        let rect = unique_rect(op);
                        let t0 = now();
                        if !client.insert(rect, id).await {
                            lost.borrow_mut().push(id);
                        }
                        hist.borrow_mut().record(now() - t0);
                        // Every few inserts, read back an earlier one through
                        // the ring so the read path rides the same chaos.
                        if i % 8 == 7 {
                            let back = ID_BASE + (c * ops) as u64 + i / 2;
                            let q = unique_rect((c * ops) as u64 + i / 2);
                            let got = client.search(&q).await;
                            assert!(
                                got.contains(&back),
                                "cell read-back lost id {back} (client {c}, op {i})"
                            );
                        }
                    }
                    stats.borrow_mut().merge(&client.stats());
                    dumps.borrow_mut().extend(client.flight_dumps());
                }));
            }
            for h in handles {
                h.await;
            }
            let makespan = now() - started;
            // Slot-leak audit: give every outstanding lease time to be acked
            // or to age past the TTL, let heartbeat ticks run the reclaimer,
            // then demand every shard's mailboxes are empty — a
            // crash-restarted or timed-out fetch must never strand a slot.
            sleep(ServerConfig::default().mailbox_lease_ttl + hb_interval * 4).await;
            let leaked: usize = (0..cluster.shards())
                .map(|s| cluster.shard(s).mailbox_outstanding())
                .sum();
            let mut st = stats.borrow().to_owned();
            let client_crc = st.checksum_failures;
            {
                let ss = cluster.stats();
                st.dup_drops += ss.dup_drops;
                st.checksum_failures += ss.checksum_failures;
                st.resyncs += ss.resyncs;
            }
            // Exactly-once audit, cluster-wide: sum occurrences over shards.
            let mut lost = lost.borrow().to_owned();
            let mut duplicated = Vec::new();
            for op in 0..(CLIENTS * ops) as u64 {
                let id = ID_BASE + op;
                let q = unique_rect(op);
                let hits: usize = (0..cluster.shards())
                    .map(|s| {
                        cluster
                            .shard(s)
                            .with_index(|t| t.search(&q).iter().filter(|d| **d == id).count())
                    })
                    .sum();
                match hits {
                    0 => lost.push(id),
                    1 => {}
                    _ => duplicated.push(id),
                }
            }
            lost.sort_unstable();
            lost.dedup();
            for s in 0..cluster.shards() {
                cluster
                    .shard(s)
                    .with_index(|t| t.check_invariants())
                    .unwrap();
            }
            let injected = plan.map(|p| p.counters()).unwrap_or_default();
            let hist = hist.borrow().to_owned();
            let flight = dumps.borrow().to_owned();
            (
                makespan,
                hist,
                st,
                injected,
                lost.len(),
                duplicated.len(),
                leaked,
                flight,
                client_crc,
            )
        });
    CellResult {
        label: cell.label.to_string(),
        fault: cell.fault,
        ops: CLIENTS * ops,
        makespan,
        hist,
        stats,
        injected,
        lost,
        duplicated,
        leaked_slots: leaked,
        flight,
        client_crc,
    }
}

/// Flight-recorder smoke: every client-side timeout and CRC failure must
/// have produced an annotated dump, and once a connection has warmed up
/// (its event ring reached 32 entries — the ring never shrinks, so
/// per-connection history depth is monotone) every later dump must carry
/// that ≥32-event history. Returns (timeout_dumps, crc_dumps) for the
/// row and the JSON record.
fn check_flight(r: &CellResult) -> (u64, u64) {
    let timeout_dumps = r
        .flight
        .iter()
        .filter(|d| matches!(d.anomaly, Anomaly::Timeout { .. }))
        .count() as u64;
    let crc_dumps = r
        .flight
        .iter()
        .filter(|d| d.anomaly == Anomaly::ChecksumFailure)
        .count() as u64;
    // stats.flight_dumps counts every fired dump (including any dropped
    // past the retention cap); the per-anomaly equalities only hold when
    // nothing was dropped — always the case at sweep scale.
    if r.stats.flight_dumps == r.flight.len() as u64 {
        assert_eq!(
            timeout_dumps, r.stats.timeouts,
            "{}: {} timeouts but {} timeout flight dumps",
            r.label, r.stats.timeouts, timeout_dumps
        );
        assert_eq!(
            crc_dumps, r.client_crc,
            "{}: {} client CRC failures but {} checksum flight dumps",
            r.label, r.client_crc, crc_dumps
        );
    }
    let mut warm: std::collections::HashMap<(u32, u32), bool> = std::collections::HashMap::new();
    for d in &r.flight {
        let w = warm.entry((d.client, d.shard)).or_insert(false);
        if *w {
            assert!(
                d.history.len() >= 32,
                "{}: dump on warm connection ({}, {}) carries only {} events of history",
                r.label,
                d.client,
                d.shard,
                d.history.len()
            );
        }
        *w |= d.history.len() >= 32;
    }
    // A chaos cell with sustained traffic must produce at least one
    // deep-history dump — otherwise the ring is being cleared somewhere.
    if r.stats.timeouts > 16 {
        assert!(
            warm.values().any(|&w| w),
            "{}: {} timeouts yet no flight dump reached 32 events of history",
            r.label,
            r.stats.timeouts
        );
    }
    (timeout_dumps, crc_dumps)
}

fn json_cell(r: &CellResult) -> String {
    let s = r.hist.summary();
    let us = |d: SimDuration| d.as_nanos() as f64 / 1e3;
    format!(
        concat!(
            "{{\"label\":\"{}\",\"loss\":{},\"hb_drop\":{},\"stall\":{},\"corrupt\":{},",
            "\"dupe\":{},\"delay\":{},\"ops\":{},\"makespan_ms\":{:.3},",
            "\"mean_us\":{:.3},\"p50_us\":{:.3},\"p99_us\":{:.3},",
            "\"timeouts\":{},\"retransmits\":{},\"dup_drops\":{},",
            "\"checksum_failures\":{},\"resyncs\":{},\"stale_heartbeat_windows\":{},",
            "\"injected\":{{\"writes_dropped\":{},\"completions_duplicated\":{},",
            "\"writes_delayed\":{},\"frames_corrupted\":{},\"heartbeats_suppressed\":{},",
            "\"stalls\":{}}},\"fetched_reads\":{},\"fetch_fallbacks\":{},",
            "\"leaked_slots\":{},\"lost\":{},\"duplicated\":{},\"exactly_once\":{},",
            "\"flight_dumps\":{},\"timeout_dumps\":{},\"checksum_dumps\":{}}}"
        ),
        r.label,
        r.fault.drop_write,
        r.fault.suppress_heartbeat,
        r.fault.stall,
        r.fault.corrupt,
        r.fault.duplicate,
        r.fault.delay,
        r.ops,
        r.makespan.as_nanos() as f64 / 1e6,
        us(s.mean),
        us(s.p50),
        us(s.p99),
        r.stats.timeouts,
        r.stats.retransmits,
        r.stats.dup_drops,
        r.stats.checksum_failures,
        r.stats.resyncs,
        r.stats.stale_heartbeat_windows,
        r.injected.writes_dropped,
        r.injected.completions_duplicated,
        r.injected.writes_delayed,
        r.injected.frames_corrupted,
        r.injected.heartbeats_suppressed,
        r.injected.stalls,
        r.stats.fetched_reads,
        r.stats.fetch_fallbacks,
        r.leaked_slots,
        r.lost,
        r.duplicated,
        r.lost == 0 && r.duplicated == 0 && r.leaked_slots == 0,
        r.stats.flight_dumps,
        r.flight
            .iter()
            .filter(|d| matches!(d.anomaly, Anomaly::Timeout { .. }))
            .count(),
        r.flight
            .iter()
            .filter(|d| d.anomaly == Anomaly::ChecksumFailure)
            .count(),
    )
}

fn main() {
    let args = BenchArgs::parse();
    let shards = args.shards.as_ref().map_or(1, |v| v[0]);
    banner(
        "Fault sweep",
        "exactly-once under injected loss, stalls, and heartbeat suppression",
    );
    // Chaos cells are dominated by timeout recovery, not index scale;
    // a moderate tree keeps the sweep fast without weakening the check.
    let size = if args.paper {
        args.size
    } else {
        args.size.min(50_000)
    };
    let ops = if args.paper {
        args.requests
    } else {
        args.requests.min(150)
    };
    println!(
        "dataset {size} rects, {shards} shard(s), {CLIENTS} clients x {ops} inserts, timeout {} us, retries {}{}",
        args.timeout_us.unwrap_or(500),
        args.max_retries.unwrap_or(64),
        if shards > 1 {
            " (faults on shard 0 only)"
        } else {
            ""
        },
    );

    let mut cells = vec![
        Cell {
            label: "baseline",
            fault: FaultConfig::off(),
            fetch: false,
        },
        Cell {
            label: "loss_1pct",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.01,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "loss_5pct",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.05,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "loss_10pct",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.10,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "loss5_hb90",
            fetch: false,
            fault: FaultConfig {
                drop_write: 0.05,
                suppress_heartbeat: 0.9,
                ..FaultConfig::off()
            },
        },
        Cell {
            label: "chaos_mix",
            fault: FaultConfig {
                drop_write: 0.05,
                suppress_heartbeat: 0.9,
                stall: 0.01,
                corrupt: 0.02,
                duplicate: 0.02,
                delay: 0.05,
                ..FaultConfig::off()
            },
            fetch: false,
        },
        // The same chaos mix with every read pulled through the mailbox:
        // exactly-once and the slot-leak audit must hold on the fetch
        // transport too.
        Cell {
            label: "chaos_fetch",
            fault: FaultConfig {
                drop_write: 0.05,
                suppress_heartbeat: 0.9,
                stall: 0.01,
                corrupt: 0.02,
                duplicate: 0.02,
                delay: 0.05,
                ..FaultConfig::off()
            },
            fetch: true,
        },
        // Clean-fabric fetch cell: isolates the mailbox protocol itself.
        Cell {
            label: "fetch_clean",
            fault: FaultConfig::off(),
            fetch: true,
        },
    ];
    // Explicit knobs replace the built-in sweep with one custom cell.
    if args.loss > 0.0 || args.stall > 0.0 || args.hb_drop > 0.0 {
        cells = vec![Cell {
            label: "custom",
            fault: FaultConfig {
                drop_write: args.loss,
                stall: args.stall,
                suppress_heartbeat: args.hb_drop,
                ..FaultConfig::off()
            },
            fetch: false,
        }];
    }

    let mut results = Vec::new();
    for cell in &cells {
        let r = timed(cell.label, || {
            run_cluster_cell(cell, &args, size, ops, shards)
        });
        let s = r.hist.summary();
        let (timeout_dumps, crc_dumps) = check_flight(&r);
        println!(
            "{:<12} p50 {:>10} p99 {:>10}  timeouts {:>5}  retransmits {:>5}  dup_drops {:>4}  crc {:>4}  resyncs {:>4}  stale_hb {:>3}  fetched {:>5}  dumps {:>5} (t{} c{})  lost {} dup {} leaked {}",
            r.label,
            s.p50.to_string(),
            s.p99.to_string(),
            r.stats.timeouts,
            r.stats.retransmits,
            r.stats.dup_drops,
            r.stats.checksum_failures,
            r.stats.resyncs,
            r.stats.stale_heartbeat_windows,
            r.stats.fetched_reads,
            r.stats.flight_dumps,
            timeout_dumps,
            crc_dumps,
            r.lost,
            r.duplicated,
            r.leaked_slots,
        );
        assert!(
            r.stats.retransmits <= r.stats.timeouts,
            "{}: every retransmission follows a timeout ({} > {})",
            r.label,
            r.stats.retransmits,
            r.stats.timeouts
        );
        assert_eq!(r.lost, 0, "{}: {} operations lost", r.label, r.lost);
        assert_eq!(
            r.duplicated, 0,
            "{}: {} operations applied twice",
            r.label, r.duplicated
        );
        assert_eq!(
            r.leaked_slots, 0,
            "{}: {} mailbox slots leaked",
            r.label, r.leaked_slots
        );
        results.push(r);
    }

    let body = format!(
        "{{\"harness\":\"fault_sweep\",\"clients\":{CLIENTS},\"shards\":{shards},\"ops_per_client\":{ops},\"dataset\":{size},\"seed\":{},\"cells\":[\n{}\n]}}\n",
        args.seed,
        results
            .iter()
            .map(json_cell)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let out = args
        .metrics_out
        .clone()
        .map(|b| format!("{b}.json"))
        .unwrap_or_else(|| "BENCH_faults.json".to_string());
    std::fs::write(&out, body).expect("write fault sweep results");
    println!("all cells exactly-once: wrote {out}");
}
