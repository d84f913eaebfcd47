//! Delivery-order guard for the cluster simulator's arrival traces.
//!
//! `ClusterSimulation::add_arrivals` keeps each trace as a sorted lane
//! beside the event heap and merges the two at delivery time.  The merge
//! must reproduce the order of a queue that holds every arrival in the heap:
//! by time, then by the order of the `add_*` calls, then by input order
//! within one trace.  Each case below drives a run where that order is
//! observable — overlapping traces with same-instant ties across them, an
//! unsorted trace, fault plans registered before and after the arrivals with
//! a crash at the very instant of an arrival, and a closed-loop session —
//! and pins the run's `SimulationResult` to values computed with the engine
//! that preloaded every arrival into the heap.

use sesemi::cluster::{ClusterConfig, ClusterSimulation, FaultPlan, KeyServiceConfig};
use sesemi::SimulationResult;
use sesemi_inference::{Framework, ModelId, ModelKind, ModelProfile};
use sesemi_runtime::InvocationPath;
use sesemi_sim::{SimDuration, SimRng, SimTime};
use sesemi_workload::{ArrivalProcess, InteractiveSession, RequestArrival};

const HORIZON: SimDuration = SimDuration::from_secs(60);

fn models() -> Vec<(ModelId, ModelProfile)> {
    [ModelKind::MbNet, ModelKind::RsNet]
        .into_iter()
        .map(|kind| (kind.default_id(), ModelProfile::paper(kind, Framework::Tvm)))
        .collect()
}

/// Two small nodes with one single-TCS container of either model each, so
/// the traces below keep the cluster saturated: which of two same-instant
/// requests is delivered first decides which one waits, and the order shows
/// in the latencies.
fn config() -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        tcs_per_container: 1,
        invoker_memory_bytes: 1024 * 1024 * 1024,
        seed: 11,
        ..ClusterConfig::multi_node_sgx2()
    }
}

/// A Poisson trace whose instants are snapped to a 50 ms grid, so traces
/// generated from different seeds share instants (same-time ties across
/// lanes and inside one lane).
fn gridded(model: &ModelId, user_index: usize, rate: f64, seed: u64) -> Vec<RequestArrival> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut arrivals = ArrivalProcess::Poisson { rate_per_sec: rate }
        .generate(model, user_index, HORIZON, &mut rng);
    for arrival in &mut arrivals {
        arrival.at = SimTime::from_millis(arrival.at.as_nanos() / 1_000_000 / 50 * 50);
    }
    arrivals
}

/// The fields of a result that the delivery order can move, one per line.
fn summary(result: &SimulationResult) -> String {
    let path = |p| result.path_counts.get(&p).copied().unwrap_or(0);
    let sessions: Vec<String> = result
        .session_latencies
        .iter()
        .map(|(name, model, latency)| format!("{name}/{model}/{}", latency.as_nanos()))
        .collect();
    format!(
        "admitted={} completed={} dropped={} rejected={} shed={}\n\
         cold_starts={} dispatched={} cold_dispatches={} peak_sandboxes={}\n\
         node_crashes={} containers_killed={} requeued_inflight={} requeued_waiting={}\n\
         keyservice_crashes={} keyservice_failovers={} provisioned_keys={}\n\
         events={} hot={} warm={} cold={}\n\
         mean_ns={} p50_ns={} p99_ns={} gb_s={:.6}\n\
         sessions=[{}]",
        result.admitted,
        result.completed,
        result.dropped,
        result.rejected,
        result.shed,
        result.cold_starts,
        result.dispatched,
        result.cold_dispatches,
        result.peak_sandboxes,
        result.node_crashes,
        result.containers_killed,
        result.requeued_inflight,
        result.requeued_waiting,
        result.keyservice_crashes,
        result.keyservice_failovers,
        result.provisioned_keys,
        result.events_processed,
        path(InvocationPath::Hot),
        path(InvocationPath::Warm),
        path(InvocationPath::Cold),
        result.latency.mean().as_nanos(),
        result.latency.p50().as_nanos(),
        result.p99_latency().as_nanos(),
        result.gb_seconds,
        sessions.join(", "),
    )
}

#[test]
fn overlapping_traces_merge_by_time_then_call_order() {
    let models = models();
    let (a, b) = (models[0].0.clone(), models[1].0.clone());
    let mut sim = ClusterSimulation::new(config(), models);
    sim.add_arrivals(gridded(&a, 0, 12.0, 1));
    sim.add_arrivals(gridded(&b, 1, 8.0, 2));
    let result = sim.run(HORIZON);
    assert!(result.conserves_requests());
    assert_eq!(
        summary(&result),
        "admitted=1181 completed=1181 dropped=0 rejected=0 shed=0\n\
         cold_starts=8 dispatched=1181 cold_dispatches=8 peak_sandboxes=8\n\
         node_crashes=0 containers_killed=0 requeued_inflight=0 requeued_waiting=0\n\
         keyservice_crashes=0 keyservice_failovers=0 provisioned_keys=0\n\
         events=2375 hot=1173 warm=0 cold=8\n\
         mean_ns=33291584911 p50_ns=68500000 p99_ns=159639600000 gb_s=480.815898\n\
         sessions=[]"
    );
}

#[test]
fn an_unsorted_trace_is_delivered_in_stable_time_order() {
    let models = models();
    let (a, b) = (models[0].0.clone(), models[1].0.clone());
    // Two users' gridded traces of one model, each shifted by a whole grid
    // step at every third arrival and then interleaved, plus a third trace
    // of the other model appended: the input is out of order, and it
    // carries same-instant ties between the users (whose order decides
    // which request finds its keys cached) that the delivery must keep in
    // input order.
    let shift = |mut trace: Vec<RequestArrival>| {
        for (i, arrival) in trace.iter_mut().enumerate() {
            if i % 3 == 0 {
                arrival.at += SimDuration::from_millis(50);
            }
        }
        trace
    };
    let mut trace: Vec<RequestArrival> = shift(gridded(&a, 0, 6.0, 3))
        .into_iter()
        .zip(shift(gridded(&a, 2, 6.0, 4)))
        .flat_map(|(x, y)| [x, y])
        .collect();
    trace.extend(gridded(&b, 1, 4.0, 9));
    let mut sim = ClusterSimulation::new(config(), models);
    sim.add_arrivals(trace);
    let result = sim.run(HORIZON);
    assert!(result.conserves_requests());
    assert_eq!(
        summary(&result),
        "admitted=894 completed=894 dropped=0 rejected=0 shed=0\n\
         cold_starts=8 dispatched=894 cold_dispatches=8 peak_sandboxes=8\n\
         node_crashes=0 containers_killed=0 requeued_inflight=0 requeued_waiting=0\n\
         keyservice_crashes=0 keyservice_failovers=0 provisioned_keys=0\n\
         events=1801 hot=570 warm=316 cold=8\n\
         mean_ns=15431028389 p50_ns=10112420000 p99_ns=59825600000 gb_s=257.351165\n\
         sessions=[]"
    );
}

#[test]
fn faults_before_and_after_the_trace_keep_their_place_at_shared_instants() {
    let models = models();
    let (a, b) = (models[0].0.clone(), models[1].0.clone());
    let trace = gridded(&a, 0, 15.0, 5);
    // Crash and kill at the exact instants of arrivals, one plan registered
    // before the trace (delivered ahead of the arrival at that instant) and
    // one after it (delivered behind it).
    let early = trace[trace.len() / 4].at;
    let late = trace[trace.len() / 2].at;
    let config = ClusterConfig {
        nodes: 3,
        keyservice: KeyServiceConfig::queued(2, SimDuration::from_millis(40), 1),
        ..config()
    };
    let mut sim = ClusterSimulation::new(config, models);
    sim.add_fault_plan(
        &FaultPlan::new()
            .node_crash(early, 0)
            .keyservice_crash(early, 0),
    );
    sim.add_arrivals(trace);
    sim.add_arrivals(gridded(&b, 1, 5.0, 6));
    sim.add_fault_plan(
        &FaultPlan::new()
            .container_kill(late, a.clone())
            .node_crash(late, 1)
            .node_crash(SimTime::ZERO + HORIZON + SimDuration::from_secs(1), 2),
    );
    let result = sim.run(HORIZON);
    assert!(result.conserves_requests());
    assert_eq!(
        summary(&result),
        "admitted=1206 completed=1206 dropped=0 rejected=0 shed=0\n\
         cold_starts=15 dispatched=1209 cold_dispatches=15 peak_sandboxes=12\n\
         node_crashes=2 containers_killed=6 requeued_inflight=3 requeued_waiting=0\n\
         keyservice_crashes=1 keyservice_failovers=0 provisioned_keys=15\n\
         events=2436 hot=1191 warm=0 cold=15\n\
         mean_ns=21307302404 p50_ns=68500000 p99_ns=185037600000 gb_s=322.770121\n\
         sessions=[]"
    );
}

#[test]
fn a_closed_loop_session_interleaves_with_the_trace() {
    let models = models();
    let (a, b) = (models[0].0.clone(), models[1].0.clone());
    let session_models = vec![a.clone(), b.clone(), a.clone(), b.clone(), a.clone()];
    let trace = gridded(&a, 0, 10.0, 7);
    // One session registered before the trace and one after it, each
    // starting at the instant of a trace arrival.
    let (first, second) = (trace[40].at, trace[200].at);
    let mut sim = ClusterSimulation::new(config(), models);
    sim.add_session(InteractiveSession::new(
        "Session 1",
        first,
        session_models.clone(),
        7,
    ));
    sim.add_arrivals(trace);
    sim.add_arrivals(gridded(&b, 1, 6.0, 8));
    sim.add_session(InteractiveSession::new(
        "Session 2",
        second,
        session_models,
        8,
    ));
    let result = sim.run(HORIZON);
    assert!(result.conserves_requests());
    assert_eq!(
        summary(&result),
        "admitted=923 completed=923 dropped=0 rejected=2 shed=0\n\
         cold_starts=8 dispatched=923 cold_dispatches=8 peak_sandboxes=8\n\
         node_crashes=0 containers_killed=0 requeued_inflight=0 requeued_waiting=0\n\
         keyservice_crashes=0 keyservice_failovers=0 provisioned_keys=0\n\
         events=1861 hot=903 warm=12 cold=8\n\
         mean_ns=22465120715 p50_ns=68500000 p99_ns=109519600000 gb_s=368.970655\n\
         sessions=[Session 1/mbnet/1248500000, Session 1/rsnet/16169100000, Session 2/mbnet/1248500000, Session 1/mbnet/1248500000, Session 2/rsnet/46113100000, Session 1/rsnet/52173500000]"
    );
}
