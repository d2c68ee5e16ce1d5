//! `catfish-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` runs the traced pass and prints the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! nonzero when an output check fails. `--job setup|run` is internal: the
//! untraced pass re-runs this executable with it to take one host-time
//! sample in a fresh process.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use catfish_perfbench::layers;
use catfish_perfbench::report::{self, LayerInputs, Metric, Report};
use catfish_perfbench::run::{self, median, peak_rss_mb, timed};
use catfish_perfbench::spans::self_times;
use catfish_perfbench::workload::{Inputs, Workload};

/// Host-time samples of each kind per measurement, at least, whatever
/// `--seconds` says.
const MIN_SAMPLES: usize = 3;

/// One host-time sample, taken in a fresh child process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// Generate the inputs, build, connect, tear down: no request.
    Setup,
    /// Generate the inputs and run the workload.
    Run,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    job: Option<Job>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        tiny: false,
        job: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--job" => {
                args.job = Some(match value.as_str() {
                    "setup" => Job::Setup,
                    "run" => Job::Run,
                    _ => return Err(format!("--job takes setup or run, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One workload's result.
struct Measured {
    report: Report,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

/// Performs `job` and prints `<host seconds>\t<virtual-time fingerprint>`.
/// Runs as the first and only work of a child process, so every sample
/// starts from the same fresh heap.
fn do_job(w: Workload, args: &Args, job: Job) {
    let size = w.size(args.tiny);
    let requests = match job {
        Job::Setup => 0,
        Job::Run => size.requests,
    };
    let (outcome, host_s) = timed(|| {
        let inputs = Inputs::generate(w, size, args.seed);
        run::execute(&inputs, requests, false)
    });
    println!("{host_s}\t{}", outcome.fingerprint());
}

/// Runs `job` in a child process and returns its host seconds and
/// fingerprint.
fn spawn_job(w: Workload, args: &Args, job: Job) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
    cmd.args(["--job", if job == Job::Setup { "setup" } else { "run" }]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child {job:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let (host, fingerprint) = stdout
        .trim_end()
        .split_once('\t')
        .ok_or(format!("child {job:?} printed {stdout:?}"))?;
    let host = host.parse().map_err(|e| format!("child {job:?}: {e}"))?;
    Ok((host, fingerprint.to_string()))
}

/// The untraced pass. Every host-time sample is the first work of a fresh
/// process: child processes alternate set-ups and runs until `seconds`
/// have passed, then this process runs the workload once more for the
/// reported outcome, which every child run must reproduce exactly.
fn measure_end_to_end(w: Workload, args: &Args) -> Result<Measured, String> {
    let size = w.size(args.tiny);
    let attempted = size.attempted();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut setups_s = Vec::new();
    while setups_s.len() < MIN_SAMPLES || runs.len() < MIN_SAMPLES || start.elapsed() < budget {
        setups_s.push(spawn_job(w, args, Job::Setup)?.0);
        runs.push(spawn_job(w, args, Job::Run)?);
    }
    let (o, last_run_s) = timed(|| {
        let inputs = Inputs::generate(w, size, args.seed);
        run::execute(&inputs, size.requests, false)
    });
    let mut violations = report::check_outcome(&o, attempted);
    if runs
        .iter()
        .any(|(_, fingerprint)| *fingerprint != o.fingerprint())
    {
        violations.push("virtual-time outcome differs between identical runs".into());
    }
    let mut runs_s: Vec<f64> = runs.iter().map(|(s, _)| *s).collect();
    runs_s.push(last_run_s);
    // Other processes on the host only ever slow a sample down, so the
    // fastest run and the fastest set-up are the steadiest estimates of
    // what each costs; their difference is the request part.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let host_kops = run::host_kops(o.completed, fastest(&runs_s), fastest(&setups_s));
    let report = report::end_to_end(&o, median(&setups_s), peak_rss_mb());
    println!(
        "# {}: {} runs and {} set-ups, {} requests each, faults off",
        w.name(),
        runs_s.len(),
        setups_s.len(),
        attempted
    );
    for m in report::ungated(&o, attempted, host_kops).metrics {
        print_metric(w, &m);
    }
    report.metrics.iter().for_each(|m| print_metric(w, m));
    Ok(Measured {
        report,
        attempted,
        failed: o.failed(attempted),
        violations,
    })
}

/// The traced pass: one untraced and one traced run on the same inputs,
/// plus the standalone layer costs.
fn measure_layers(w: Workload, args: &Args) -> Measured {
    let size = w.size(args.tiny);
    let attempted = size.attempted();
    let (inputs, gen_s) = timed(|| Inputs::generate(w, size, args.seed));
    let (_, build_s) = timed(|| run::execute(&inputs, 0, false));
    let (untraced, untraced_s) = timed(|| run::execute(&inputs, size.requests, false));
    let (traced, traced_s) = timed(|| run::execute(&inputs, size.requests, true));
    let costs = layers::measure(&inputs);
    let st = self_times(&traced.spans);
    let mut violations = report::check_outcome(&untraced, attempted);
    violations.extend(report::check_outcome(&traced, attempted));
    if st.sum_mismatches > 0 {
        violations.push(format!(
            "{} traces whose self times do not sum to the root",
            st.sum_mismatches
        ));
    }
    let report = report::per_layer(&LayerInputs {
        workload: w,
        untraced: &untraced,
        traced: &traced,
        self_times: &st,
        costs: &costs,
        attempted,
        gen_s,
        run_s: (untraced_s - build_s, traced_s - build_s),
    });
    println!(
        "# {}: traced pass, {} requests, {} traces, faults off",
        w.name(),
        attempted,
        st.traces
    );
    report.metrics.iter().for_each(|m| print_metric(w, m));
    Measured {
        report,
        attempted,
        failed: untraced.failed(attempted),
        violations,
    }
}

fn print_metric(w: Workload, m: &Metric) {
    println!(
        "{:<11} {:<48} {:>16.6} {}",
        w.name(),
        m.name,
        m.value,
        m.unit
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(job) = args.job {
        for &w in &args.workloads {
            do_job(w, &args, job);
        }
        return ExitCode::SUCCESS;
    }
    let single = args.workloads.len() == 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    for &w in &args.workloads {
        let m = if args.trace {
            measure_layers(w, &args)
        } else {
            match measure_end_to_end(w, &args) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        };
        for v in &m.violations {
            eprintln!("{}: output check failed: {v}", w.name());
        }
        correct &= m.violations.is_empty();
        attempted += m.attempted;
        failed += m.failed;
        metrics.extend(m.report.metrics.into_iter().map(|mut metric| {
            if !single {
                metric.name = format!("{}.{}", w.name(), metric.name);
            }
            metric
        }));
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
