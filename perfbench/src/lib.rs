//! End-to-end and per-layer benchmark of the Catfish workspace.
//!
//! Four closed-loop workloads run through the program's public entry
//! points (`harness::run_experiment` for the R-tree, `KvCluster` /
//! `KvClusterClient` for the KV service). An untraced pass reports the
//! end-to-end figures in two clocks: virtual time (the modelled system)
//! and host time (the Rust code running the model). A traced pass
//! reports the per-layer breakdown. See `README.md` for the workloads,
//! the metrics and how they relate.

pub mod kv;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;
