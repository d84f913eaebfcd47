//! `serve-multitenant`: several users and small models from two owners on
//! a small pool of functions that FnPacker routes to.  A seeded schedule
//! mixes requests (some on freshly deployed functions), key-management
//! writes and requests from a stranger who was never granted access.

use crate::ledger::{
    make_inputs, path_index, prediction_ok, refused_as_not_authorized, span_metrics, sums_to_one,
    PathLedger, INPUTS_PER_MODEL, PATHS,
};
use crate::serving::{enclave_counters, Serving, Traced};
use crate::stats::{median, ms, report_series, report_timing, report_value};
use crate::trace::Tracer;
use crate::Outcome;
use sesemi::deployment::DeploymentError;
use sesemi::{Deployment, FunctionHandle};
use sesemi_fnpacker::{FnPacker, FnPool};
use sesemi_inference::{Framework, ModelId, ModelKind};
use sesemi_sim::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

const W: &str = "serve-multitenant";
const OWNERS: [&str; 2] = ["clinic-a", "clinic-b"];
/// Each owner publishes one small model of each kind: six models in all.
/// The scales give every model about 175 KB of serialized weights, so a
/// model switch costs about the same whichever model it loads and the
/// latency median does not hop between per-model modes from seed to seed.
const OWNER_MODELS: [(ModelKind, f64); 3] = [
    (ModelKind::MbNet, 0.01),
    (ModelKind::DsNet, 0.0034),
    (ModelKind::RsNet, 0.00095),
];
const INITIAL_USERS: usize = 4;
const ENDPOINTS: usize = 3;
/// Operations per set-up: each set-up replays one seeded schedule.
const OPS_PER_REPLAY: usize = 120;
/// Schedules per run, replayed in turn.  One schedule's traffic mix hangs on
/// which (user, model) pairs its seed makes popular: its model-switch share
/// ranges from 17 % to 32 %.  A run covers several schedules so that its
/// latency does not hang on that draw.  Odd, so the traced run's
/// alternation between tracing on and off gives each schedule both.
const SCHEDULES: usize = 7;
/// Operations of each kind per set-up, at seeded positions.  Fresh
/// requests land on a newly deployed function, emulating keep-alive expiry:
/// they take the cold path.
const FRESH_OPS: usize = 36;
const STRANGER_OPS: usize = 6;
/// Key-management writes.  Every party a `Deployment` registers keeps its
/// KeyService session, and with it one of the KeyService enclave's 16 TCS,
/// for the deployment's lifetime: the handles offer no way to disconnect.
/// Set-up holds 8 sessions and provisioning needs one more, so a set-up has
/// room for 7 late users.
const KEYMGMT_OPS: usize = 6;
/// FnPacker's logical clock follows the repository's `multi-tenant-zipf`
/// scenario (`crates/scenario/src/registry.rs`): popularity is Zipf(1)
/// over the (user, model) pairs, and operations arrive as a Poisson process
/// of 6 per logical second.  A routed request completes after the latency
/// the simulator models for its model and path, `Framework::Tvm`'s
/// `stage_costs` (see [`logical_service`]).
const LOGICAL_RATE_PER_SEC: f64 = 6.0;

#[derive(Clone, Copy, Debug)]
enum Op {
    Infer {
        user: usize,
        model: usize,
        input: usize,
        fresh: bool,
    },
    Stranger {
        model: usize,
        input: usize,
    },
    /// Register a new user, who authorizes and is granted `model`.
    KeyMgmt {
        model: usize,
    },
}

/// The simulator's latency for a `kind` request on `path`.
fn logical_service(kind: ModelKind, path: usize) -> SimDuration {
    let costs = Framework::Tvm.stage_costs(kind);
    [costs.hot_total(), costs.warm_total(), costs.cold_total()][path]
}

fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The `index`th seeded operation schedule, stamped with FnPacker's
/// logical clock.
fn schedule(seed: u64, index: usize, models: usize) -> Vec<(SimTime, Op)> {
    let stream = seed
        .wrapping_mul(SCHEDULES as u64)
        .wrapping_add(index as u64);
    let mut rng = SimRng::seed_from_u64(stream ^ 0x5CED);
    let mut pairs: Vec<(usize, usize)> = (0..INITIAL_USERS)
        .flat_map(|u| (0..models).map(move |m| (u, m)))
        .collect();
    shuffle(&mut rng, &mut pairs);
    let mut kinds: Vec<char> = [
        ('k', KEYMGMT_OPS),
        ('s', STRANGER_OPS),
        ('f', FRESH_OPS),
        ('i', OPS_PER_REPLAY - KEYMGMT_OPS - STRANGER_OPS - FRESH_OPS),
    ]
    .iter()
    .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
    .collect();
    shuffle(&mut rng, &mut kinds);
    let mut users = INITIAL_USERS;
    let mut at = SimTime::ZERO;
    kinds
        .into_iter()
        .map(|kind| {
            at += rng.exponential(LOGICAL_RATE_PER_SEC);
            let op = match kind {
                'k' => {
                    let model = rng.below(models);
                    pairs.insert(rng.below(pairs.len() + 1), (users, model));
                    users += 1;
                    Op::KeyMgmt { model }
                }
                's' => Op::Stranger {
                    model: rng.below(models),
                    input: rng.below(INPUTS_PER_MODEL),
                },
                _ => {
                    let weights: Vec<f64> =
                        (1..=pairs.len()).map(|rank| 1.0 / rank as f64).collect();
                    let (user, model) = pairs[rng.weighted_choice(&weights)];
                    Op::Infer {
                        user,
                        model,
                        input: rng.below(INPUTS_PER_MODEL),
                        fresh: kind == 'f',
                    }
                }
            };
            (at, op)
        })
        .collect()
}

/// One set-up of `serve-multitenant`.
struct TenantRig<S: Serving> {
    stack: S,
    owners: Vec<S::Owner>,
    users: Vec<S::User>,
    stranger: S::User,
    models: Vec<ModelId>,
    inputs: Vec<Vec<Vec<f32>>>,
    references: Vec<Vec<Vec<f32>>>,
    endpoints: Vec<FunctionHandle>,
    /// Every function deployed in this set-up, replaced ones included.
    deployed: Vec<FunctionHandle>,
}

fn setup<S: Serving>(mut stack: S, seed: u64) -> Result<TenantRig<S>, DeploymentError> {
    let mut owners: Vec<S::Owner> = OWNERS.iter().map(|o| stack.register_owner(o)).collect();
    let mut models = Vec::new();
    for owner in &mut owners {
        for (kind, scale) in OWNER_MODELS {
            models.push(stack.publish(owner, kind, scale)?);
        }
    }
    let mut users: Vec<S::User> = (0..INITIAL_USERS)
        .map(|u| stack.register_user(&format!("user-{u}")))
        .collect();
    let mut stranger = stack.register_user("stranger");
    let mut reference_user = stack.register_user("reference");
    let endpoints = (0..ENDPOINTS)
        .map(|_| stack.deploy())
        .collect::<Result<Vec<_>, _>>()?;
    let reference_fn = stack.deploy()?;
    // All functions share one measurement, so one grant and one request key
    // per (user, model) cover every function, replacements included.
    for (m, model) in models.iter().enumerate() {
        let owner = &mut owners[m / OWNER_MODELS.len()];
        for user in users.iter_mut().chain([&mut reference_user]) {
            stack.grant(owner, model, &reference_fn, S::party(user))?;
            stack.authorize(user, model, &reference_fn)?;
        }
        stack.authorize(&mut stranger, model, &reference_fn)?;
    }
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1A7E);
    let inputs: Vec<_> = models
        .iter()
        .map(|m| make_inputs(&mut rng, stack.input_dim(m)))
        .collect();
    let references = models
        .iter()
        .zip(&inputs)
        .map(|(model, xs)| {
            xs.iter()
                .map(|x| {
                    stack
                        .infer(&reference_user, &reference_fn, model, x)
                        .map(|o| o.prediction)
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut deployed = endpoints.clone();
    deployed.push(reference_fn);
    Ok(TenantRig {
        stack,
        owners,
        users,
        stranger,
        models,
        inputs,
        references,
        endpoints,
        deployed,
    })
}

#[derive(Default)]
struct RoundStats {
    ledger: PathLedger,
    /// Latency in ms of each served request.
    latencies: Vec<f64>,
    keymgmt_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// One letter per operation: the path taken (`h`, `w`, `c`), a refused
    /// stranger (`s`), a key-management write (`k`) or a failure (`x`).
    trail: String,
    elapsed_s: f64,
    endpoints_used: usize,
    /// `(model kind, path, latency ms)` of each served request.
    by_kind: Vec<(ModelKind, usize, f64)>,
}

/// Replays the schedule once on a fresh set-up.
fn replay<S: Serving>(
    rig: &mut TenantRig<S>,
    ops: &[(SimTime, Op)],
    tracer: &Tracer,
) -> RoundStats {
    let mut stats = RoundStats::default();
    let pool = FnPool::new("tenants", rig.models.clone(), 256 * 1024 * 1024, ENDPOINTS);
    let mut packer = FnPacker::new(pool);
    // Logical completions: (due, model index, endpoint, path).
    let mut due: BinaryHeap<Reverse<(SimTime, usize, usize, usize)>> = BinaryHeap::new();
    let kind = |m: usize| OWNER_MODELS[m % OWNER_MODELS.len()].0;
    let started = Instant::now();
    for &(at, op) in ops {
        while let Some(&Reverse((when, m, endpoint, path))) = due.peek() {
            if when > at {
                break;
            }
            due.pop();
            let service = logical_service(kind(m), path);
            packer.complete(&rig.models[m], endpoint, when, service, PATHS[path]);
        }
        stats.attempted += 1;
        match op {
            Op::Infer {
                user,
                model: m,
                input,
                fresh,
            } => {
                let model = &rig.models[m];
                let endpoint = tracer.span("fnpacker.route", || packer.route(model, at));
                // A cold request's latency runs from the deploy that
                // replaces the endpoint's function to the decrypted
                // prediction, so it includes the enclave launch.
                let sent = Instant::now();
                let result = tracer.request("serve.request", || {
                    if fresh {
                        let function = tracer.span("enclave.launch", || rig.stack.deploy())?;
                        rig.deployed.push(function.clone());
                        rig.endpoints[endpoint] = function;
                    }
                    rig.stack.infer(
                        &rig.users[user],
                        &rig.endpoints[endpoint],
                        model,
                        &rig.inputs[m][input],
                    )
                });
                let latency_ms = ms(sent.elapsed());
                match result {
                    Ok(outcome) => {
                        if !prediction_ok(&outcome.prediction, &rig.references[m][input]) {
                            stats
                                .problems
                                .push(format!("wrong prediction for {model} input {input}"));
                        }
                        let path = path_index(outcome.report.path);
                        stats.trail.push(['h', 'w', 'c'][path]);
                        stats.ledger.record(&outcome, latency_ms);
                        stats.latencies.push(latency_ms);
                        stats.by_kind.push((kind(m), path, latency_ms));
                        due.push(Reverse((
                            at + logical_service(kind(m), path),
                            m,
                            endpoint,
                            path,
                        )));
                    }
                    Err(_) => {
                        stats.failed += 1;
                        stats.trail.push('x');
                        packer.cancel(model, endpoint);
                    }
                }
            }
            Op::Stranger { model: m, input } => {
                let model = &rig.models[m];
                let endpoint = tracer.span("fnpacker.route", || packer.route(model, at));
                let result = tracer.request("serve.request", || {
                    rig.stack.infer(
                        &rig.stranger,
                        &rig.endpoints[endpoint],
                        model,
                        &rig.inputs[m][input],
                    )
                });
                packer.cancel(model, endpoint);
                match result {
                    Err(err) if refused_as_not_authorized(&err) => stats.trail.push('s'),
                    Err(err) => {
                        stats.trail.push('x');
                        stats
                            .problems
                            .push(format!("stranger refused with {err}, not NotAuthorized"));
                    }
                    Ok(_) => {
                        stats.trail.push('x');
                        stats.problems.push(format!("stranger was served {model}"));
                    }
                }
            }
            Op::KeyMgmt { model: m } => {
                let started = Instant::now();
                let written = tracer.span("keyservice.keymgmt", || {
                    let stack = &mut rig.stack;
                    let mut user = stack.register_user("late-user");
                    let model = &rig.models[m];
                    let function = &rig.endpoints[0];
                    stack.authorize(&mut user, model, function)?;
                    let owner = &mut rig.owners[m / OWNER_MODELS.len()];
                    stack.grant(owner, model, function, S::party(&user))?;
                    Ok::<_, DeploymentError>(user)
                });
                stats.keymgmt_ms.push(ms(started.elapsed()));
                match written {
                    Ok(user) => {
                        rig.users.push(user);
                        stats.trail.push('k');
                    }
                    Err(err) => {
                        // Later operations of this user would fail too.
                        stats.problems.push(format!("key management failed: {err}"));
                        return stats;
                    }
                }
            }
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    stats.endpoints_used = packer.endpoints_used();
    stats
}

/// Prints the measured hot/warm/cold latency ratios next to the ratios of
/// the calibrated stage costs the simulator uses for the same model.
fn calibration_drift(samples: &[(ModelKind, usize, f64)]) {
    println!(
        "{:<18} {:<8} {:>9} {:>9} {:>9} {:>11} {:>11} {:>11} {:>11}",
        "calibration",
        "model",
        "hot ms",
        "warm ms",
        "cold ms",
        "warm/hot",
        "model w/h",
        "cold/hot",
        "model c/h"
    );
    for (kind, _) in OWNER_MODELS {
        let mut by_path: [Vec<f64>; 3] = Default::default();
        for &(k, path, latency) in samples {
            if k == kind {
                by_path[path].push(latency);
            }
        }
        let [hot, warm, cold] = by_path.map(|mut v| median(&mut v));
        let costs = Framework::Tvm.stage_costs(kind);
        let hot_cost = costs.hot_total().as_secs_f64();
        println!(
            "{:<18} {:<8} {hot:>9.4} {warm:>9.4} {cold:>9.4} {:>11.2} {:>11.2} {:>11.2} {:>11.2}",
            "calibration",
            kind.label(),
            warm / hot,
            costs.warm_total().as_secs_f64() / hot_cost,
            cold / hot,
            costs.cold_total().as_secs_f64() / hot_cost,
        );
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let tracer = Arc::new(Tracer::new());
    if traced {
        let build = |seed| Traced::build(seed, Arc::clone(&tracer));
        let mut out = run_with(seed, seconds, &tracer, true, build);
        span_metrics(&tracer, &mut out.layers);
        tracer.write_out(W);
        out
    } else {
        run_with(seed, seconds, &tracer, false, |seed| {
            Deployment::builder().seed(seed).build()
        })
    }
}

fn run_with<S: Serving>(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    traced: bool,
    build: impl Fn(u64) -> S,
) -> Outcome {
    let mut out = Outcome::default();
    let schedules: Vec<_> = (0..SCHEDULES)
        .map(|k| schedule(seed, k, OWNERS.len() * OWNER_MODELS.len()))
        .collect();
    let mut ledger = PathLedger::default();
    let mut keymgmt_ms = Vec::new();
    let mut by_kind = Vec::new();
    // Operation rate of each measured replay, with tracing off and on.
    let mut rates = [Vec::new(), Vec::new()];
    let mut request_rates = Vec::new();
    // Mean request latency of each measured replay.
    let mut means = Vec::new();
    // Per schedule: its path sequence, and the keys provisioned and refused
    // and the endpoints used by one replay of it.
    let mut trails: Vec<Option<String>> = vec![None; SCHEDULES];
    let mut provisions = vec![(0, 0); SCHEDULES];
    let mut endpoints_used = vec![0; SCHEDULES];
    let mut first_references = None;
    let mut quotes_per_request = 0.0;
    let mut heap_mib: f64 = 0.0;
    let started = Instant::now();
    let mut round = 0usize;
    // Round 0 warms the machine up and is not timed.  Every schedule then
    // gets at least two measured replays, so each one's repeatability is
    // always checked.
    while round <= 2 * SCHEDULES || started.elapsed().as_secs_f64() < seconds {
        let measured = round > 0;
        let k = (round + SCHEDULES - 1) % SCHEDULES;
        // In the traced run, measured set-ups alternate between tracing on
        // and off; the difference is the tracing overhead.
        let tracing = traced && round % 2 == 1;
        let setup_started = Instant::now();
        let mut rig = match setup(build(seed), seed) {
            Ok(rig) => rig,
            Err(err) => return out.fail(format!("{W}: set-up failed: {err}")),
        };
        if measured {
            out.setup_s.push(setup_started.elapsed().as_secs_f64());
        }
        if !rig.references.iter().flatten().all(|r| sums_to_one(r)) {
            out.problems
                .push(format!("{W}: a reference prediction is not a distribution"));
        }
        match &first_references {
            None => first_references = Some(rig.references.clone()),
            Some(first) if *first != rig.references => {
                out.problems
                    .push(format!("{W}: references differ between set-ups"));
            }
            Some(_) => {}
        }
        let before = rig.stack.provision_counts();
        tracer.set_enabled(tracing);
        let stats = replay(&mut rig, &schedules[k], tracer);
        tracer.set_enabled(false);
        let after = rig.stack.provision_counts();
        // Every replay of a schedule provisions the same keys.
        provisions[k] = (after.0 - before.0, after.1 - before.1);
        let (quotes, ecalls, heap) = enclave_counters(&rig.stack, &rig.deployed);
        quotes_per_request = quotes as f64 / ecalls.max(1) as f64;
        heap_mib = heap_mib.max(heap as f64 / (1024.0 * 1024.0));
        out.attempted += stats.attempted;
        out.failed += stats.failed;
        out.problems
            .extend(stats.problems.iter().map(|p| format!("{W}: {p}")));
        match &trails[k] {
            None => trails[k] = Some(stats.trail.clone()),
            Some(first) if *first != stats.trail => {
                out.problems.push(format!(
                    "{W}: the path sequence of schedule {k} differs between set-ups"
                ));
            }
            Some(_) => {}
        }
        endpoints_used[k] = stats.endpoints_used;
        if measured {
            rates[usize::from(tracing)].push(stats.attempted as f64 / stats.elapsed_s);
            request_rates.push(stats.latencies.len() as f64 / stats.elapsed_s);
            let served = stats.latencies.len().max(1) as f64;
            means.push(stats.latencies.iter().sum::<f64>() / served);
            ledger.merge(&stats.ledger);
            keymgmt_ms.extend(stats.keymgmt_ms);
            by_kind.extend(stats.by_kind);
        }
        round += 1;
    }
    let trail: String = trails.iter().flatten().map(String::as_str).collect();
    let count = |c: char| trail.chars().filter(|&t| t == c).count();
    println!(
        "{W:<18} {:<22} hot {} warm {} cold {} stranger-refused {} keymgmt {} failed {} \
         (per cycle of {SCHEDULES} schedules, {round} replays, each schedule's identical)",
        "path counts",
        count('h'),
        count('w'),
        count('c'),
        count('s'),
        count('k'),
        count('x'),
    );
    ledger.report(W);
    let cold = &ledger.latency[2];
    report_value(W, "cold_p50_ms", cold.percentile(0.5), "ms");
    report_value(W, "cold_p90_ms", cold.percentile(0.9), "ms");
    report_timing(W, "keymgmt_p50_ms", "ms", &mut keymgmt_ms);
    report_series(W, "ops_per_s by replay", &rates.concat());
    let req_per_s = median(&mut request_rates);
    report_value(W, "req_per_s", req_per_s, "1/s");
    report_value(
        W,
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "",
    );
    report_value(W, "wall", started.elapsed().as_secs_f64(), "s");
    calibration_drift(&by_kind);
    if traced {
        let [off, on] = rates.map(|mut r| median(&mut r));
        report_value(W, "traced ops_per_s", on, "1/s");
        let layers = &mut out.layers;
        layers.insert("trace.overhead_share", 1.0 - on / off);
        layers.insert("runtime.req_per_s", req_per_s);
        let cycle = |f: fn(&(u64, u64)) -> u64| provisions.iter().map(f).sum::<u64>() as f64;
        layers.insert("keyservice.provisions", cycle(|p| p.0));
        layers.insert("keyservice.refused", cycle(|p| p.1));
        layers.insert("enclave.quotes_per_request", quotes_per_request);
        layers.insert("enclave.heap_mib", heap_mib);
        let most_endpoints = endpoints_used.iter().copied().max().unwrap_or(0);
        layers.insert("fnpacker.endpoints_used", most_endpoints as f64);
        ledger.layer_metrics(layers);
    }
    report_series(W, "mean ms by replay", &means);
    out.latency_ms = median(&mut means);
    out
}
