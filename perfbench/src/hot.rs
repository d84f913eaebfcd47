//! `serve-hot`: one user and one model on one two-TCS TVM function, driven
//! by two closed-loop clients.  Nearly every request is hot.

use crate::ledger::{make_inputs, prediction_ok, span_metrics, PathLedger};
use crate::serving::{enclave_counters, Serving, Traced};
use crate::stats::{median, ms, report_series, report_value};
use crate::trace::Tracer;
use crate::Outcome;
use sesemi::deployment::DeploymentError;
use sesemi::{Deployment, FunctionHandle};
use sesemi_inference::{ModelId, ModelKind};
use sesemi_sim::SimRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const W: &str = "serve-hot";
const KIND: ModelKind = ModelKind::MbNet;
const SCALE: f64 = 0.02;
const CLIENTS: usize = 2;
/// Set-ups per run.  Each is followed by one measured phase, cut into
/// windows.
const ROUNDS: u32 = 20;
const WINDOW: Duration = Duration::from_millis(250);
/// Unmeasured load before the first measured set-up.  After an idle spell
/// a host may run the first second or so of load faster than sustained
/// load, so each run burns that off before timing anything.
const WARMUP: Duration = Duration::from_secs(1);

/// One set-up: one owner, one user, one model, one function, warmed on
/// both TCS by the reference requests.
struct Rig<S: Serving> {
    stack: S,
    user: S::User,
    function: FunctionHandle,
    model: ModelId,
    inputs: Vec<Vec<f32>>,
    references: Vec<Vec<f32>>,
}

fn setup<S: Serving>(mut stack: S, seed: u64) -> Result<Rig<S>, DeploymentError> {
    let mut owner = stack.register_owner("owner");
    let mut user = stack.register_user("user");
    let model = stack.publish(&mut owner, KIND, SCALE)?;
    let function = stack.deploy()?;
    stack.grant(&mut owner, &model, &function, S::party(&user))?;
    stack.authorize(&mut user, &model, &function)?;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x1A7E);
    let inputs = make_inputs(&mut rng, stack.input_dim(&model));
    // The reference requests also warm both TCS: requests alternate
    // between a function's workers.
    let references = inputs
        .iter()
        .map(|x| {
            stack
                .infer(&user, &function, &model, x)
                .map(|o| o.prediction)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rig {
        stack,
        user,
        function,
        model,
        inputs,
        references,
    })
}

/// One window of closed-loop load.
#[derive(Default)]
struct Window {
    ledger: PathLedger,
    /// Latency in ms of every request served in the window.
    latencies: Vec<f64>,
    failed: u64,
    wrong: u64,
    elapsed_s: f64,
}

impl Window {
    fn rate(&self) -> f64 {
        (self.latencies.len() as u64 + self.failed) as f64 / self.elapsed_s
    }
}

/// `clients` closed-loop clients, each sending its next request when the
/// previous one returns, for `duration`.
fn closed_loop<S: Serving>(
    rig: &Rig<S>,
    tracer: &Tracer,
    clients: usize,
    duration: Duration,
) -> Window {
    let started = Instant::now();
    let deadline = started + duration;
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut window = Window::default();
                    let mut next = client;
                    while Instant::now() < deadline {
                        let index = next % rig.inputs.len();
                        next += clients;
                        let sent = Instant::now();
                        let result = tracer.request("serve.request", || {
                            rig.stack.infer(
                                &rig.user,
                                &rig.function,
                                &rig.model,
                                &rig.inputs[index],
                            )
                        });
                        let latency_ms = ms(sent.elapsed());
                        match result {
                            Ok(outcome) => {
                                if !prediction_ok(&outcome.prediction, &rig.references[index]) {
                                    window.wrong += 1;
                                }
                                window.ledger.record(&outcome, latency_ms);
                                window.latencies.push(latency_ms);
                            }
                            Err(_) => window.failed += 1,
                        }
                    }
                    window
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Window {
        elapsed_s: started.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for part in parts {
        total.ledger.merge(&part.ledger);
        total.latencies.extend(part.latencies);
        total.failed += part.failed;
        total.wrong += part.wrong;
    }
    total
}

/// What the measured windows of a run add up to.
#[derive(Default)]
struct Totals {
    /// Served requests of the windows that give the end-to-end metrics:
    /// every window of the untraced run, the traced windows of the traced
    /// run.
    ledger: PathLedger,
    /// Request rate and mean request latency of each end-to-end window.
    rates: Vec<f64>,
    means: Vec<f64>,
    /// Two-client and one-client windows of the traced run, on `Deployment`.
    untraced_rates: Vec<f64>,
    one_client_rates: Vec<f64>,
    provisions: (u64, u64),
    enclave: (u64, u64, u64),
}

/// Counts a window's requests and output-check failures into the outcome.
fn absorb(out: &mut Outcome, window: &Window) {
    out.attempted += window.latencies.len() as u64 + window.failed;
    out.failed += window.failed;
    if window.wrong > 0 {
        out.problems.push(format!(
            "{W}: {} predictions differ from their reference",
            window.wrong
        ));
    }
}

impl Totals {
    fn add_measured(&mut self, out: &mut Outcome, window: Window) {
        absorb(out, &window);
        self.rates.push(window.rate());
        let served = window.latencies.len().max(1) as f64;
        self.means
            .push(window.latencies.iter().sum::<f64>() / served);
        self.ledger.merge(&window.ledger);
    }
}

/// Drives one set-up with two clients for `phase`, in windows.
fn drive<S: Serving>(
    rig: &Rig<S>,
    tracer: &Tracer,
    phase: Duration,
    out: &mut Outcome,
    totals: &mut Totals,
) {
    let end = Instant::now() + phase;
    while Instant::now() < end {
        totals.add_measured(out, closed_loop(rig, tracer, CLIENTS, WINDOW));
    }
}

/// The traced run's [`drive`].  It cycles through a two-client and a
/// one-client window on the library's own `Deployment` and a traced
/// two-client window on `Traced`, each a third as long.  The speed-up is
/// thus measured on the library, and the tracing overhead compares
/// neighbouring windows.
fn drive_traced(
    plain: &Rig<Deployment>,
    rig: &Rig<Traced>,
    tracer: &Tracer,
    phase: Duration,
    out: &mut Outcome,
    totals: &mut Totals,
) {
    let end = Instant::now() + phase;
    while Instant::now() < end {
        let window = WINDOW / 3;
        let two = closed_loop(plain, tracer, CLIENTS, window);
        absorb(out, &two);
        totals.untraced_rates.push(two.rate());
        let one = closed_loop(plain, tracer, 1, window);
        absorb(out, &one);
        totals.one_client_rates.push(one.rate());
        let before = rig.stack.provision_counts();
        tracer.set_enabled(true);
        let on = closed_loop(rig, tracer, CLIENTS, window);
        tracer.set_enabled(false);
        let after = rig.stack.provision_counts();
        totals.provisions.0 += after.0 - before.0;
        totals.provisions.1 += after.1 - before.1;
        totals.add_measured(out, on);
    }
    totals.enclave = enclave_counters(&rig.stack, std::slice::from_ref(&rig.function));
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Arc::new(Tracer::new());
    let measured_phase = Duration::from_secs_f64(seconds / f64::from(ROUNDS));
    let mut totals = Totals::default();
    let mut warmup = Totals::default();
    let started = Instant::now();
    // Round 0 is the warm-up.
    for round in 0..=ROUNDS {
        let measured = round > 0;
        let (totals, phase) = if measured {
            (&mut totals, measured_phase)
        } else {
            (&mut warmup, WARMUP)
        };
        let traced = traced && measured;
        let setup_started = Instant::now();
        let setup_s = |out: &mut Outcome| {
            if measured {
                out.setup_s.push(setup_started.elapsed().as_secs_f64());
            }
        };
        let plain = setup(Deployment::builder().seed(seed).build(), seed);
        let done = if traced {
            plain.and_then(|plain| {
                let rig = setup(Traced::build(seed, Arc::clone(&tracer)), seed)?;
                setup_s(&mut out);
                if rig.references != plain.references {
                    out.problems
                        .push(format!("{W}: Traced and Deployment predict differently"));
                }
                drive_traced(&plain, &rig, &tracer, phase, &mut out, totals);
                Ok(())
            })
        } else {
            plain.map(|rig| {
                setup_s(&mut out);
                drive(&rig, &tracer, phase, &mut out, totals);
            })
        };
        if let Err(err) = done {
            return out.fail(format!("{W}: set-up failed: {err}"));
        }
    }
    totals.ledger.report(W);
    report_series(W, "req_per_s by window", &totals.rates);
    let rate = median(&mut totals.rates.clone());
    let rate_name = if traced {
        "traced req_per_s"
    } else {
        "req_per_s"
    };
    report_value(W, rate_name, rate, "1/s");
    report_value(
        W,
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "",
    );
    report_value(W, "wall", started.elapsed().as_secs_f64(), "s");
    if traced {
        let two_clients = median(&mut totals.untraced_rates);
        let one_client = median(&mut totals.one_client_rates);
        report_value(W, "untraced req_per_s", two_clients, "1/s");
        report_value(W, "1-client req_per_s", one_client, "1/s");
        let (quotes, ecalls, heap) = totals.enclave;
        let layers = &mut out.layers;
        layers.insert("runtime.req_per_s", two_clients);
        layers.insert("runtime.parallel_speedup", two_clients / one_client);
        layers.insert("trace.overhead_share", 1.0 - rate / two_clients);
        layers.insert("keyservice.provisions", totals.provisions.0 as f64);
        layers.insert("keyservice.refused", totals.provisions.1 as f64);
        layers.insert(
            "enclave.quotes_per_request",
            quotes as f64 / ecalls.max(1) as f64,
        );
        layers.insert("enclave.heap_mib", heap as f64 / (1024.0 * 1024.0));
        totals.ledger.layer_metrics(layers);
        span_metrics(&tracer, layers);
        tracer.write_out(W);
    }
    report_series(W, "mean ms by window", &totals.means);
    out.latency_ms = median(&mut totals.means);
    out
}
