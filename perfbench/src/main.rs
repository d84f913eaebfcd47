//! Benchmark of the SeSeMI reproduction: both halves of the system, real
//! trust-path serving and the cluster simulator.
//!
//! ```text
//! sesemi_perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process, so its peak RSS is its own; `all` runs
//! every workload, each in a child process.  The run prints one report line
//! per measurement and, as its last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  The exit code is 1
//! when an output check fails.  See `perfbench/README.md`.

mod hot;
mod ledger;
mod serving;
mod sim;
mod stats;
mod tenant;
mod trace;

use std::collections::HashMap;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = [
    "serve-hot",
    "serve-multitenant",
    "sim-mmpp",
    "sim-saturated",
];

/// Per-layer metrics of the traced run, in output order, with units.  A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("crypto.req_encrypt_us", "us"),
    ("crypto.resp_decrypt_us", "us"),
    ("runtime.handle_p50_us", "us"),
    ("runtime.handle_p99_us", "us"),
    ("runtime.self_us", "us"),
    ("runtime.req_per_s", "1/s"),
    ("runtime.parallel_speedup", "ratio"),
    ("runtime.key_cache_hit_ratio", "ratio"),
    ("runtime.model_cache_hit_ratio", "ratio"),
    ("runtime.path_share.hot", "ratio"),
    ("runtime.path_share.warm", "ratio"),
    ("runtime.path_share.cold", "ratio"),
    ("runtime.path_p50_ms.hot", "ms"),
    ("runtime.path_p50_ms.warm", "ms"),
    ("runtime.path_p50_ms.cold", "ms"),
    ("keyservice.provision_p50_us", "us"),
    ("keyservice.provision_p99_us", "us"),
    ("keyservice.provisions", "count"),
    ("keyservice.refused", "count"),
    ("keyservice.keymgmt_us", "us"),
    ("enclave.launch_ms", "ms"),
    ("enclave.quotes_per_request", "ratio"),
    ("enclave.heap_mib", "MiB"),
    ("storage.model_fetch_us", "us"),
    ("fnpacker.route_us", "us"),
    ("fnpacker.model_switch_share", "ratio"),
    ("fnpacker.endpoints_used", "count"),
    ("workload.generate_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.rss_after_build_mib", "MiB"),
    ("cluster.rss_after_run_mib", "MiB"),
    ("cluster.run_s", "s"),
    ("cluster.events_per_s", "1/s"),
    ("cluster.events", "count"),
    ("cluster.events_per_request", "ratio"),
    ("cluster.dispatched", "count"),
    ("cluster.cold_dispatches", "count"),
    ("cluster.cold_starts", "count"),
    ("metrics.report_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any one makes the run incorrect.
    pub problems: Vec<String>,
    /// Wall time of each measured set-up.
    pub setup_s: Vec<f64>,
    /// The time a caller waits for one unit of work: a request on the
    /// `serve-*` workloads, a simulation job on the `sim-*` ones.  Each
    /// workload prints the series it is taken from.
    pub latency_ms: f64,
    pub layers: HashMap<&'static str, f64>,
}

impl Outcome {
    fn fail(mut self, problem: String) -> Self {
        self.problems.push(problem);
        self
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(parsed)
}

/// Runs every workload, each in a child process, and fails if any fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut out = match args.workload.as_str() {
        "serve-hot" => hot::run(args.seed, args.seconds, args.trace),
        "serve-multitenant" => tenant::run(args.seed, args.seconds, args.trace),
        "sim-mmpp" => sim::simulate(sim::Regime::Mmpp, args.seed, args.seconds, args.trace),
        _ => sim::simulate(sim::Regime::Saturated, args.seed, args.seconds, args.trace),
    };
    let w = args.workload.as_str();
    let peak_rss = stats::peak_rss_mib();
    stats::report_value(w, "peak_rss_mib", peak_rss, "MiB");
    let setup_s = stats::report_timing(w, "setup_s", "s", &mut out.setup_s);
    stats::report_value(w, "latency_ms", out.latency_ms, "ms");
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.layers.get(name).copied().unwrap_or(0.0);
                stats::report_value(w, name, value, unit);
                json_metric(name, value, unit)
            })
            .collect()
    } else {
        vec![
            json_metric("setup_s", setup_s, "s"),
            json_metric("latency_ms", out.latency_ms, "ms"),
            json_metric("peak_rss_mib", peak_rss, "MiB"),
        ]
    };
    for problem in &out.problems {
        println!("{w:<18} CHECK FAILED: {problem}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
