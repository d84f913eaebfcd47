//! The `sim-*` workloads: the discrete-event cluster simulator on the pinned
//! scenario of `BENCH_sim_engine.json`, built directly from the workload
//! generator and the `ClusterSimulation` API.

use crate::stats::{median, report_series, report_value, rss_mib};
use crate::trace::Tracer;
use crate::Outcome;
use sesemi::cluster::{ClusterConfig, ClusterSimulation};
use sesemi_inference::{Framework, ModelId, ModelKind, ModelProfile};
use sesemi_platform::PlatformConfig;
use sesemi_runtime::InvocationPath;
use sesemi_sim::{SimDuration, SimRng, SimTime};
use sesemi_workload::ArrivalProcess;
use std::time::Instant;

/// The scenario's MMPP: 1000 ↔ 2000 requests per second, 30 s mean dwell.
const RATES: [f64; 2] = [1_000.0, 2_000.0];
const DWELL: SimDuration = SimDuration::from_secs(30);
/// Idle single-container warm pools pinned on the saturated cluster, and the
/// hot model's containers in the slots they leave free.
const SATURATED_POOL: usize = 56;
const SATURATED_HOT: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// 64 prewarmed hot containers: the cluster absorbs the peak.
    Mmpp,
    /// 56 pinned pools leave the hot model over capacity all run long.
    Saturated,
}

impl Regime {
    fn name(self) -> &'static str {
        match self {
            Regime::Mmpp => "sim-mmpp",
            Regime::Saturated => "sim-saturated",
        }
    }

    /// Arrivals per simulation job.  The saturated trace must stay under
    /// the 180 s keep-alive, or the pinned pools are reclaimed mid-run:
    /// 150k arrivals span at most 150 s, at the MMPP's lower rate.
    fn requests(self) -> u64 {
        match self {
            Regime::Mmpp => 100_000,
            Regime::Saturated => 150_000,
        }
    }
}

/// Traces per run, simulated in turn, each from its own seed.  A job's
/// cost hangs on its trace: how long the MMPP dwells at the higher rate
/// sets how far the saturated cluster's backlog grows, and one seed's
/// saturated job took 1.5 times as long as another's on the same host.  A
/// run covers several traces so that its timing does not hang on that
/// draw.  Odd, so the traced run's alternation between tracing on and
/// off gives each trace both.
const TRACES: usize = 7;

/// The seed of trace `index` of a run at `seed`.
fn trace_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(TRACES as u64).wrapping_add(index as u64)
}

/// 16 SGX2 nodes, each sized for four 4-TCS TVM-MBNET containers.
fn cluster(seed: u64) -> (ClusterConfig, ModelId, ModelProfile) {
    let profile = ModelProfile::paper(ModelKind::MbNet, Framework::Tvm);
    let budget = PlatformConfig::round_memory_budget(profile.enclave_bytes_for_concurrency(4));
    let config = ClusterConfig {
        nodes: 16,
        tcs_per_container: 4,
        invoker_memory_bytes: budget * 4,
        seed,
        ..ClusterConfig::multi_node_sgx2()
    };
    (config, ModelKind::MbNet.default_id(), profile)
}

/// One simulation job: wall-clock time per layer plus the simulated outcome.
struct Job {
    generate_s: f64,
    build_s: f64,
    run_s: f64,
    report_s: f64,
    rss_after_build_mib: f64,
    rss_after_run_mib: f64,
    requests: u64,
    events: u64,
    dispatched: u64,
    cold_dispatches: u64,
    cold_starts: u64,
    failed: u64,
    sim_p50_ms: f64,
    sim_p99_ms: f64,
    sim_gb_s: f64,
    /// Every simulated output of the job; equal seeds must give equal text.
    deterministic: String,
    /// Conservation violations, empty when the job conserved requests.
    problems: Vec<String>,
}

impl Job {
    fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.run_s + self.report_s
    }
}

fn job(regime: Regime, seed: u64, tracer: &Tracer) -> Job {
    let (config, hot, profile) = cluster(seed);
    let mut models = vec![(hot.clone(), profile)];
    let mut prewarm = Vec::new();
    if regime == Regime::Saturated {
        for index in 0..SATURATED_POOL {
            let model = ModelId::new(format!("bench-pool-{index:02}"));
            models.push((model.clone(), profile));
            prewarm.push((model, 1));
        }
        prewarm.push((hot.clone(), SATURATED_HOT));
    } else {
        prewarm.push((hot.clone(), 64));
    }
    // Every job simulates exactly `requests()` arrivals, whatever the seed:
    // the trace is generated long enough at the lower rate, cut after that
    // many arrivals, and the horizon ends at the last one kept.
    let wanted = regime.requests();
    let span = SimDuration::from_secs_f64(1.1 * wanted as f64 / RATES[0]);
    let process = ArrivalProcess::Mmpp {
        rates_per_sec: RATES.to_vec(),
        mean_dwell: DWELL,
    };

    let started = Instant::now();
    let arrivals = tracer.span("workload.generate", || {
        let mut arrivals = process.generate(&hot, 0, span, &mut SimRng::seed_from_u64(seed));
        arrivals.truncate(wanted as usize);
        arrivals
    });
    let requests = arrivals.len() as u64;
    let horizon = arrivals
        .last()
        .map_or(span, |last| last.at.duration_since(SimTime::ZERO));
    let generated = Instant::now();
    let sim = tracer.span("cluster.build", || {
        let mut sim = ClusterSimulation::new(config, models);
        for (model, count) in &prewarm {
            sim.prewarm(model, 0, *count);
        }
        sim.add_arrivals(arrivals);
        sim
    });
    let built = Instant::now();
    let rss_after_build_mib = rss_mib();
    let result = tracer.span("cluster.run", || sim.run(horizon));
    let ran = Instant::now();
    let rss_after_run_mib = rss_mib();
    let (p50, p99) = tracer.span("metrics.report", || {
        let window = SimDuration::from_secs(10);
        let _ = result.mean_latency();
        let _ = result.p95_latency();
        let _ = result.latency_series.windowed_mean(window);
        let _ = result.sandbox_series.windowed_mean(window);
        let _ = result.memory_series.windowed_mean(window);
        (result.latency.p50(), result.p99_latency())
    });
    let reported = Instant::now();

    let mut problems = Vec::new();
    if requests != result.admitted + result.rejected {
        problems.push(format!(
            "requests {requests} != admitted {} + rejected {}",
            result.admitted, result.rejected
        ));
    }
    if !result.conserves_requests() {
        problems.push(format!(
            "admitted {} != completed {} + dropped {}",
            result.admitted, result.completed, result.dropped
        ));
    }
    if result.shed > result.dropped {
        problems.push(format!("shed {} > dropped {}", result.shed, result.dropped));
    }
    let path = |p| result.path_counts.get(&p).copied().unwrap_or(0);
    let deterministic = format!(
        "requests={requests} admitted={} completed={} dropped={} rejected={} shed={} \
         cold_starts={} events={} dispatched={} cold_dispatches={} hot={} warm={} cold={} \
         p50_ns={} p99_ns={} gb_s={:.6}",
        result.admitted,
        result.completed,
        result.dropped,
        result.rejected,
        result.shed,
        result.cold_starts,
        result.events_processed,
        result.dispatched,
        result.cold_dispatches,
        path(InvocationPath::Hot),
        path(InvocationPath::Warm),
        path(InvocationPath::Cold),
        p50.as_nanos(),
        p99.as_nanos(),
        result.gb_seconds,
    );
    Job {
        generate_s: (generated - started).as_secs_f64(),
        build_s: (built - generated).as_secs_f64(),
        run_s: (ran - built).as_secs_f64(),
        report_s: (reported - ran).as_secs_f64(),
        rss_after_build_mib,
        rss_after_run_mib,
        requests,
        events: result.events_processed,
        dispatched: result.dispatched,
        cold_dispatches: result.cold_dispatches,
        cold_starts: result.cold_starts,
        failed: result.dropped + result.rejected,
        sim_p50_ms: p50.as_secs_f64() * 1e3,
        sim_p99_ms: p99.as_secs_f64() * 1e3,
        sim_gb_s: result.gb_seconds,
        deterministic,
        problems,
    }
}

/// FNV-1a digest of the deterministic outputs, for comparing runs by eye.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub fn simulate(regime: Regime, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let w = regime.name();
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    // Every job with the trace index it simulated.
    let mut jobs: Vec<(usize, Job)> = Vec::new();
    // Event rates of jobs run with tracing off and on.
    let mut rates = [Vec::new(), Vec::new()];
    let started = Instant::now();
    // Job 0 warms the machine up and is not timed.  Every trace then gets
    // at least two timed jobs, so each one's repeatability is always
    // checked.
    while jobs.len() <= 2 * TRACES || started.elapsed().as_secs_f64() < seconds {
        let k = (jobs.len() + TRACES - 1) % TRACES;
        // In the traced run, timed jobs alternate between tracing on and off.
        let tracing = traced && jobs.len() % 2 == 1;
        tracer.set_enabled(tracing);
        let job = job(regime, trace_seed(seed, k), &tracer);
        tracer.set_enabled(false);
        out.attempted += job.requests;
        out.failed += job.failed;
        out.problems
            .extend(job.problems.iter().map(|p| format!("{w}: {p}")));
        if let Some((_, first)) = jobs.iter().find(|(i, _)| *i == k) {
            if first.deterministic != job.deterministic {
                out.problems.push(format!(
                    "{w}: simulated outputs of trace {k} differ between jobs:\n  {}\n  {}",
                    first.deterministic, job.deterministic
                ));
            }
        }
        if !jobs.is_empty() {
            rates[usize::from(tracing)].push(job.events as f64 / job.run_s);
        }
        jobs.push((k, job));
    }
    // The first job of each trace, in trace order.
    let firsts: Vec<&Job> = (0..TRACES)
        .map(|k| {
            &jobs
                .iter()
                .find(|(i, _)| *i == k)
                .expect("every trace ran")
                .1
        })
        .collect();
    let mut outputs = String::new();
    for (k, first) in firsts.iter().enumerate() {
        println!(
            "{w:<18} {:<22} {}",
            format!("simulated trace {k}"),
            first.deterministic
        );
        outputs.push_str(&first.deterministic);
    }
    println!(
        "{w:<18} {:<22} {:016x} (seed {seed}, {TRACES} traces, {} jobs, each trace's identical)",
        "simulated digest",
        digest(&outputs),
        jobs.len()
    );
    // Simulated metrics, per job, averaged over the traces.
    let per_job = |f: fn(&Job) -> f64| firsts.iter().map(|j| f(j)).sum::<f64>() / TRACES as f64;
    report_value(w, "sim_p50_ms", per_job(|j| j.sim_p50_ms), "ms (simulated)");
    report_value(w, "sim_p99_ms", per_job(|j| j.sim_p99_ms), "ms (simulated)");
    report_value(w, "sim_gb_s", per_job(|j| j.sim_gb_s), "GB*s (simulated)");

    let timed = &jobs[1..];
    let collect = |f: fn(&Job) -> f64| timed.iter().map(|(_, j)| f(j)).collect::<Vec<f64>>();
    out.setup_s = collect(|j| j.generate_s + j.build_s);
    let mut job_ms = collect(|j| j.total_s() * 1e3);
    report_series(w, "ms by job", &job_ms);
    out.latency_ms = median(&mut job_ms);
    let mut all_rates = rates.concat();
    report_series(w, "events_per_s by job", &all_rates);
    report_value(w, "sim_events_per_s", median(&mut all_rates), "1/s");
    report_value(
        w,
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "",
    );
    report_value(w, "wall", started.elapsed().as_secs_f64(), "s");
    if traced {
        let [off, on] = rates.map(|mut r| median(&mut r));
        report_value(w, "traced sim_events_per_s", on, "1/s");
        let layers = &mut out.layers;
        layers.insert("trace.overhead_share", 1.0 - on / off);
        layers.insert("cluster.events_per_s", off);
        layers.insert("trace.spans", tracer.spans().len() as f64);
        layers.insert(
            "workload.generate_s",
            median(&mut collect(|j| j.generate_s)),
        );
        layers.insert("cluster.build_s", median(&mut collect(|j| j.build_s)));
        layers.insert("cluster.run_s", median(&mut collect(|j| j.run_s)));
        layers.insert("metrics.report_s", median(&mut collect(|j| j.report_s)));
        layers.insert(
            "cluster.rss_after_build_mib",
            median(&mut collect(|j| j.rss_after_build_mib)),
        );
        layers.insert(
            "cluster.rss_after_run_mib",
            median(&mut collect(|j| j.rss_after_run_mib)),
        );
        let events = per_job(|j| j.events as f64);
        layers.insert("cluster.events", events);
        layers.insert(
            "cluster.events_per_request",
            events / per_job(|j| j.requests as f64),
        );
        layers.insert("cluster.dispatched", per_job(|j| j.dispatched as f64));
        layers.insert(
            "cluster.cold_dispatches",
            per_job(|j| j.cold_dispatches as f64),
        );
        layers.insert("cluster.cold_starts", per_job(|j| j.cold_starts as f64));
        tracer.write_out(w);
    }
    out
}
