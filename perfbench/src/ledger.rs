//! What the `serve-*` workloads share: inputs and the output check, the
//! per-path ledger of served requests and the layer metrics read from it
//! and from the spans.

use crate::stats::{median, percentile, report_value, Histogram};
use crate::trace::{durations_us, self_times_us, Tracer};
use sesemi::deployment::{DeploymentError, InferenceOutcome};
use sesemi_keyservice::KeyServiceError;
use sesemi_runtime::{InvocationPath, RuntimeError, ServingStage};
use sesemi_sim::SimRng;
use std::collections::HashMap;

/// Distinct inputs per model; every prediction is checked against the one
/// captured for its (model, input) pair at set-up.
pub const INPUTS_PER_MODEL: usize = 8;

/// Seeded inputs in `[-1, 1)` for a model of input dimension `dim`.
pub fn make_inputs(rng: &mut SimRng, dim: usize) -> Vec<Vec<f32>> {
    (0..INPUTS_PER_MODEL)
        .map(|_| (0..dim).map(|_| rng.uniform(-1.0, 1.0) as f32).collect())
        .collect()
}

/// Whether `prediction` is a probability vector: sums to 1 within 1e-4.
pub fn sums_to_one(prediction: &[f32]) -> bool {
    (prediction.iter().sum::<f32>() - 1.0).abs() <= 1e-4
}

/// The output check: bit-identical to the reference and a probability
/// vector.
pub fn prediction_ok(prediction: &[f32], reference: &[f32]) -> bool {
    let same_bits = prediction.len() == reference.len()
        && prediction
            .iter()
            .zip(reference)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    same_bits && sums_to_one(prediction)
}

/// Whether KeyService refused the provisioning with `NotAuthorized`.
pub fn refused_as_not_authorized(err: &DeploymentError) -> bool {
    matches!(
        err,
        DeploymentError::Runtime(RuntimeError::KeyProvisioning(
            KeyServiceError::NotAuthorized
        ))
    )
}

pub const PATHS: [&str; 3] = ["hot", "warm", "cold"];

pub fn path_index(path: InvocationPath) -> usize {
    match path {
        InvocationPath::Hot => 0,
        InvocationPath::Warm => 1,
        InvocationPath::Cold => 2,
    }
}

/// What served requests did, as their `InvocationReport`s say, with their
/// latencies by path.
#[derive(Default)]
pub struct PathLedger {
    pub latency: [Histogram; 3],
    key_cache_hits: u64,
    model_cache_hits: u64,
    /// Requests that loaded a different model into a running enclave.
    model_switches: u64,
}

impl PathLedger {
    pub fn record(&mut self, outcome: &InferenceOutcome, latency_ms: f64) {
        let report = &outcome.report;
        self.latency[path_index(report.path)].record(latency_ms);
        self.key_cache_hits += u64::from(report.key_cache_hit);
        self.model_cache_hits += u64::from(report.model_cache_hit);
        self.model_switches += u64::from(
            report.path != InvocationPath::Cold && report.performed(ServingStage::ModelLoad),
        );
    }

    pub fn merge(&mut self, other: &PathLedger) {
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.merge(theirs);
        }
        self.key_cache_hits += other.key_cache_hits;
        self.model_cache_hits += other.model_cache_hits;
        self.model_switches += other.model_switches;
    }

    pub fn served(&self) -> u64 {
        self.latency.iter().map(Histogram::count).sum()
    }

    /// Prints the latency of all served requests and of each path taken.
    pub fn report(&self, workload: &str) {
        let mut all = Histogram::default();
        for histogram in &self.latency {
            all.merge(histogram);
        }
        all.report(workload, "request latency");
        report_value(workload, "p50_ms", all.percentile(0.5), "ms");
        report_value(workload, "p99_ms", all.percentile(0.99), "ms");
        for (path, histogram) in PATHS.iter().zip(&self.latency) {
            if histogram.count() > 0 {
                histogram.report(workload, &format!("{path} latency"));
            }
        }
    }

    /// The `runtime.*` cache and path metrics and
    /// `fnpacker.model_switch_share`.
    pub fn layer_metrics(&self, layers: &mut HashMap<&'static str, f64>) {
        let served = self.served().max(1) as f64;
        layers.insert(
            "runtime.key_cache_hit_ratio",
            self.key_cache_hits as f64 / served,
        );
        layers.insert(
            "runtime.model_cache_hit_ratio",
            self.model_cache_hits as f64 / served,
        );
        layers.insert(
            "fnpacker.model_switch_share",
            self.model_switches as f64 / served,
        );
        const SHARE: [&str; 3] = [
            "runtime.path_share.hot",
            "runtime.path_share.warm",
            "runtime.path_share.cold",
        ];
        const P50: [&str; 3] = [
            "runtime.path_p50_ms.hot",
            "runtime.path_p50_ms.warm",
            "runtime.path_p50_ms.cold",
        ];
        for (i, histogram) in self.latency.iter().enumerate() {
            layers.insert(SHARE[i], histogram.count() as f64 / served);
            layers.insert(P50[i], histogram.percentile(0.5));
        }
    }
}

/// Per-layer metrics read from the spans a traced assembly recorded.
pub fn span_metrics(tracer: &Tracer, layers: &mut HashMap<&'static str, f64>) {
    let spans = tracer.spans();
    let p50 = |name: &str| median(&mut durations_us(&spans, name));
    layers.insert("crypto.req_encrypt_us", p50("crypto.req_encrypt"));
    layers.insert("crypto.resp_decrypt_us", p50("crypto.resp_decrypt"));
    layers.insert("storage.model_fetch_us", p50("storage.model_fetch"));
    layers.insert("fnpacker.route_us", p50("fnpacker.route"));
    layers.insert("keyservice.keymgmt_us", p50("keyservice.keymgmt"));
    layers.insert("enclave.launch_ms", p50("enclave.launch") / 1e3);
    let mut handle = durations_us(&spans, "runtime.handle");
    layers.insert("runtime.handle_p50_us", median(&mut handle));
    layers.insert("runtime.handle_p99_us", percentile(&mut handle, 0.99));
    layers.insert(
        "runtime.self_us",
        median(&mut self_times_us(&spans, "runtime.handle")),
    );
    let mut provision = durations_us(&spans, "keyservice.provision");
    layers.insert("keyservice.provision_p50_us", median(&mut provision));
    layers.insert(
        "keyservice.provision_p99_us",
        percentile(&mut provision, 0.99),
    );
    layers.insert("trace.spans", spans.len() as f64);
}
