//! Multi-worker functional serving, end to end through the `Engine`
//! facade: the packed int8 datapath must produce *bit-identical* per-query
//! predictions no matter how many replicas serve the stream — workers
//! change when queries complete, never what they compute — and the
//! backend's memory accounting must count each SubNet's packed panels once,
//! whatever the pool size.

use std::collections::BTreeMap;
use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder};
use sushi::core::serving::{
    ArrivalProcess, BatchPolicy, DropPolicy, RoutingPolicy, SimConfig, SimResult,
};
use sushi::core::stream::{attach_arrivals, uniform_stream};
use sushi::sched::TenantOptions;
use sushi::wsnet::zoo;

/// Serves one fixed toy-zoo stream on `workers` functional replicas and
/// returns `(query id -> prediction, memory stats)`.
fn serve_with_workers(
    workers: usize,
    routing: RoutingPolicy,
) -> (BTreeMap<u64, usize>, sushi::accel::MemoryStats) {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig {
            workers,
            routing,
            queue_capacity: 32,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(3, 0.1),
            ..SimConfig::default()
        })
        .build()
        .expect("functional engine");
    let mut space = engine.constraint_space();
    space.lat_lo *= 4.0;
    space.lat_hi *= 10.0;
    let n = 24;
    let qs = uniform_stream(&space, n, 5);
    let ts = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(n, 5).unwrap();
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).expect("functional serve");
    assert!(result.dropped.is_empty(), "the stream must fit the queue at every pool size");
    let predictions = result
        .served
        .iter()
        .map(|s| (s.query.id, s.prediction.expect("functional prediction")))
        .collect();
    (predictions, engine.memory_stats().expect("functional backend reports memory"))
}

#[test]
fn predictions_are_bit_identical_across_worker_counts() {
    let (base, base_stats) = serve_with_workers(1, RoutingPolicy::LeastLoaded);
    assert_eq!(base.len(), 24, "every query must be served");
    for (workers, routing) in [
        (2, RoutingPolicy::LeastLoaded),
        (4, RoutingPolicy::RoundRobin),
        (4, RoutingPolicy::CacheAffinity),
    ] {
        let (preds, stats) = serve_with_workers(workers, routing);
        assert_eq!(
            preds, base,
            "{workers}-worker ({routing}) predictions drifted from the 1-worker run"
        );
        // The pack-once caches serve every replica: the packed-SubNet
        // count is pool-size-invariant.
        assert_eq!(stats.packed_subnets, base_stats.packed_subnets);
        assert!(stats.arena_reserved_bytes >= base_stats.arena_reserved_bytes / 2);
    }
}

/// Serves a burst-overload toy-zoo stream with the adaptive controller
/// enabled on `workers` functional replicas.
///
/// The knobs conspire to make the *adaptation trajectory itself*
/// pool-size-invariant: arrivals land every 5 µs (200k qps), and the first
/// batch — the same three queries on worker 0 at every pool size, since
/// every run starts on an idle pool — pays a cold install over twice the
/// controller's tail scale. Its latency enters the tail window at
/// dispatch and saturates the pressure, so on every pool size the ladder
/// degrades at the next event and reaches its deepest rung one derived
/// dwell (the toy zoo's mean cold latency, about 0.085 ms) later, within
/// the first quarter of the arrivals. From there the queue stays saturated
/// until the last arrival, so no pool size can upgrade mid-stream and
/// every admission is shaped at the same level everywhere.
fn serve_adaptive_with_workers(workers: usize, routing: RoutingPolicy) -> SimResult {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig {
            workers,
            routing,
            queue_capacity: 120,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(3, 0.1),
            control: Some(TenantOptions::global()),
            ..SimConfig::default()
        })
        .build()
        .expect("adaptive functional engine");
    let mut space = engine.constraint_space();
    space.lat_lo *= 4.0;
    space.lat_hi *= 10.0;
    let n = 96;
    let qs = uniform_stream(&space, n, 5);
    let ts = ArrivalProcess::Poisson { rate_qps: 200_000.0 }.timestamps(n, 5).unwrap();
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).expect("adaptive serve");
    assert!(result.dropped.is_empty(), "the overload stream must still fit the queue");
    result
}

/// The latent gap this suite used to have: adaptation and multi-worker
/// dispatch were never exercised together. The combined contract is the
/// same determinism ladder as the static matrix — shaping changes *which*
/// SubNet serves a query, never *what* that SubNet computes — checked at
/// three strengths:
///
/// 1. every matrix point is run-to-run deterministic,
/// 2. `(subnet row -> prediction)` agreement: any two pool sizes that
///    route a query to the same row produce the same bits,
/// 3. once every pool size has saturated the ladder (sustained overload
///    guarantees it), the trailing queries are shaped identically, so
///    their predictions match across the whole matrix bit for bit.
#[test]
fn adaptive_matrix_is_deterministic_across_workers_and_routing() {
    let matrix = [
        (1, RoutingPolicy::LeastLoaded),
        (2, RoutingPolicy::LeastLoaded),
        (2, RoutingPolicy::RoundRobin),
        (4, RoutingPolicy::RoundRobin),
        (4, RoutingPolicy::CacheAffinity),
    ];
    let runs: Vec<(usize, RoutingPolicy, SimResult)> =
        matrix.iter().map(|&(w, r)| (w, r, serve_adaptive_with_workers(w, r))).collect();

    for (w, r, result) in &runs {
        let trace = result.adaptation.as_ref().expect("adaptive runs carry a trace");
        assert!(trace.degrades > 0, "{w}-worker ({r}) overload never degraded");
        assert!(trace.shaped > 0, "{w}-worker ({r}) overload never shaped a query");
        assert_eq!(result.served.len(), 96, "{w}-worker ({r}) lost queries");

        // Strength 1: replaying the same matrix point is bit-identical.
        let replay = serve_adaptive_with_workers(*w, *r);
        for (a, b) in result.served.iter().zip(replay.served.iter()) {
            assert_eq!((a.query.id, a.subnet_row), (b.query.id, b.subnet_row));
            assert_eq!(a.prediction, b.prediction, "{w}-worker ({r}) replay drifted");
            assert_eq!(a.completion_ms.to_bits(), b.completion_ms.to_bits());
        }
    }

    // Strength 2: the datapath is row-deterministic across the matrix.
    let by_id = |result: &SimResult| -> BTreeMap<u64, (usize, usize)> {
        result
            .served
            .iter()
            .map(|s| (s.query.id, (s.subnet_row, s.prediction.expect("functional prediction"))))
            .collect()
    };
    let base = by_id(&runs[0].2);
    for (w, r, result) in &runs[1..] {
        for (id, (row, pred)) in by_id(result) {
            let (base_row, base_pred) = base[&id];
            if row == base_row {
                assert_eq!(
                    pred, base_pred,
                    "query {id} on row {row}: {w}-worker ({r}) computed different bits"
                );
            }
        }
    }

    // Strength 3: the ladder saturates before the first dispatch (see
    // `serve_adaptive_with_workers`), so the level at every admission —
    // and therefore every row choice and prediction — is pool-size-
    // invariant for the *entire* stream, not just a tail window.
    for (w, r, result) in &runs[1..] {
        assert_eq!(
            by_id(result),
            base,
            "{w}-worker ({r}) adaptive predictions drifted from the 1-worker run"
        );
    }
}

#[test]
fn multi_worker_pools_actually_parallelize_the_schedule() {
    // Guard against the bit-identity above passing vacuously because every
    // batch landed on worker 0: with 4 replicas and round-robin routing,
    // the schedule must spread across workers.
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let mut engine = EngineBuilder::new()
        .workload(net, picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig {
            workers: 4,
            routing: RoutingPolicy::RoundRobin,
            queue_capacity: 32,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(3, 0.1),
            ..SimConfig::default()
        })
        .build()
        .expect("functional engine");
    let mut space = engine.constraint_space();
    space.lat_lo *= 4.0;
    space.lat_hi *= 10.0;
    let qs = uniform_stream(&space, 24, 5);
    let ts = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(24, 5).unwrap();
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).expect("functional serve");
    let workers_used: std::collections::BTreeSet<usize> =
        result.served.iter().map(|s| s.worker).collect();
    assert!(workers_used.len() > 1, "pool never fanned out: {workers_used:?}");
}
