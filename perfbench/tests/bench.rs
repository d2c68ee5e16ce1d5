//! The benchmark's own checks, at the tiny smoke size.

use std::collections::HashSet;
use std::process::Command;

use catfish_perfbench::layers;
use catfish_perfbench::report::{self, valid_name, LayerInputs, Report};
use catfish_perfbench::run::{self, Outcome};
use catfish_perfbench::spans::self_times;
use catfish_perfbench::workload::{Inputs, Workload};

fn tiny_inputs(w: Workload, seed: u64) -> Inputs {
    Inputs::generate(w, w.size(true), seed)
}

#[test]
fn same_seed_gives_identical_virtual_time_metrics() {
    for w in Workload::ALL {
        let a = run::execute(&tiny_inputs(w, 7), w.size(true).requests, false);
        let b = run::execute(&tiny_inputs(w, 7), w.size(true).requests, false);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
    }
}

#[test]
fn different_seed_gives_different_inputs() {
    for w in Workload::ALL {
        let (a, b) = (tiny_inputs(w, 1), tiny_inputs(w, 2));
        match w {
            // The KV load is fixed (key → 2·key); the seed picks the keys.
            Workload::KvRepl => assert_ne!(a.kv_traces(), b.kv_traces()),
            _ => {
                assert_ne!(a.rects, b.rects, "{}", w.name());
                assert_ne!(a.client_trace(0), b.client_trace(0), "{}", w.name());
            }
        }
    }
}

/// Runs the traced pass of `w` at the tiny size and returns both reports.
fn tiny_reports(w: Workload) -> (Report, Report, Outcome) {
    let size = w.size(true);
    let (inputs, gen_s) = run::timed(|| Inputs::generate(w, size, 3));
    let (untraced, untraced_s) = run::timed(|| run::execute(&inputs, size.requests, false));
    let (traced, traced_s) = run::timed(|| run::execute(&inputs, size.requests, true));
    let costs = layers::measure(&inputs);
    let st = self_times(&traced.spans);
    assert!(st.traces > 0, "{}: traced run recorded spans", w.name());
    assert_eq!(st.sum_mismatches, 0, "{}", w.name());
    assert_eq!(st.disconnected, 0, "{}", w.name());
    let layer = report::per_layer(&LayerInputs {
        workload: w,
        untraced: &untraced,
        traced: &traced,
        self_times: &st,
        costs: &costs,
        attempted: size.attempted(),
        gen_s,
        run_s: (untraced_s, traced_s),
    });
    let e2e = report::end_to_end(&untraced, gen_s, 1.0);
    (e2e, layer, untraced)
}

#[test]
fn tiny_runs_of_every_workload_pass_their_checks() {
    for w in Workload::ALL {
        let (e2e, layer, outcome) = tiny_reports(w);
        let attempted = w.size(true).attempted();
        assert_eq!(
            report::check_outcome(&outcome, attempted),
            Vec::<String>::new()
        );
        assert!(e2e.get("kops").is_some_and(|k| k > 0.0), "{}", w.name());
        assert!(layer.get("host.unattributed_frac").is_some());
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn metric_names_are_legal_unique_and_match_the_declaration() {
    let (e2e, layer, _) = tiny_reports(Workload::HybridHot);
    for (report, section) in [(&e2e, "end_to_end"), (&layer, "per_layer")] {
        let mut seen = HashSet::new();
        for m in &report.metrics {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(seen.insert(m.name.clone()), "{} twice", m.name);
        }
        let printed: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, declared(section), "{section}");
    }
}

#[test]
fn command_prints_a_result_line_for_every_workload() {
    for trace in ["0", "1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_catfish-perfbench"))
            .args([
                "--workload",
                "all",
                "--tiny",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .output()
            .expect("benchmark runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        for w in Workload::ALL {
            assert!(last.contains(&format!("\"{}.", w.name())), "{last}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_catfish-perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
