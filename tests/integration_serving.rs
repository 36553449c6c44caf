//! Cross-crate integration tests for the serving runtime: arrival
//! processes → admission queue → scheduler → batched executor pool, end to
//! end through the `sushi` facade and the unified `Engine` API.

use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder};
use sushi::core::experiments::{run, ExpOptions};
use sushi::core::serving::{
    build_scenario, run_scenario, ArrivalProcess, BatchPolicy, DropPolicy, ServePreset, SimConfig,
};
use sushi::core::stream::{attach_arrivals, uniform_stream};
use sushi::tensor::KernelPolicy;
use sushi::wsnet::zoo;

#[test]
fn serve_experiment_is_deterministic_end_to_end() {
    let opts = ExpOptions::quick();
    let a = run("serve", &opts).expect("serve id registered").render();
    let b = run("serve", &opts).expect("serve id registered").render();
    assert_eq!(a, b, "same seed must produce a bit-identical serving report");
    assert!(a.contains("steady") && a.contains("multi_tenant"));
}

#[test]
fn preset_summaries_are_internally_consistent() {
    let opts = ExpOptions::quick();
    for preset in ServePreset::ALL {
        let result = run_scenario(preset, &opts).expect("preset scenario");
        let s = result.summary();
        assert_eq!(s.offered, opts.queries, "{}", preset.name());
        assert_eq!(s.offered, s.completed + s.dropped);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms, "{}", preset.name());
        assert!(s.goodput_qps > 0.0, "{}", preset.name());
        assert!((0.0..=1.0).contains(&s.slo_violation_rate));
        assert!(s.mean_batch >= 1.0);
        // Causality of every served record.
        for q in &result.served {
            assert!(q.start_ms >= q.arrival_ms && q.completion_ms > q.start_ms);
        }
    }
}

#[test]
fn burst_preset_sheds_load_steady_does_not() {
    // Static scheduling: this pins the pre-adaptive drop path. (Under the
    // default adaptive loop the burst preset degrades instead of dropping —
    // that behavior is covered by tests/integration_adaptive.rs.)
    let mut opts = ExpOptions::quick();
    opts.adaptive = false;
    let steady = run_scenario(ServePreset::Steady, &opts).unwrap().summary();
    let burst = run_scenario(ServePreset::Burst, &opts).unwrap().summary();
    assert_eq!(steady.dropped, 0, "steady load must not overflow the queue");
    assert!(burst.dropped > 0, "burst load must exercise the drop path");
    assert!(burst.p99_ms > steady.p99_ms);
}

#[test]
fn worker_override_changes_service_capacity() {
    // The burst scenario as its preset sizes it, then on a pool twice as wide.
    let opts = ExpOptions::quick();
    let base = run_scenario(ServePreset::Burst, &opts).unwrap().summary();
    let mut scenario = build_scenario(ServePreset::Burst, &opts);
    scenario.sim.workers = 4;
    let mut engine = EngineBuilder::new()
        .q_window(scenario.q_window)
        .candidates(opts.candidates)
        .seed(opts.seed)
        .sim_config(scenario.sim)
        .build()
        .unwrap();
    let wider = engine.serve_timed(&scenario.stream).unwrap().summary();
    assert!(
        wider.p99_ms <= base.p99_ms,
        "doubling workers must not worsen the tail: {} vs {}",
        wider.p99_ms,
        base.p99_ms
    );
}

#[test]
fn functional_backend_builds_with_a_multi_worker_pool() {
    // The single-worker restriction is gone: N replicas share one
    // pack-once cache (Arc-shared panels, per-worker scratch arenas).
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let engine = EngineBuilder::new()
        .workload(net, picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig { workers: 4, ..SimConfig::default() })
        .build()
        .expect("functional engine with 4 workers");
    assert!(engine.memory_stats().is_some(), "functional backend");
    assert_eq!(engine.sim_config().workers, 4);
}

#[test]
fn functional_serving_runs_real_forwards_through_the_facade() {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };

    let n = 12;
    let build = |policy: KernelPolicy| {
        let mut engine = EngineBuilder::new()
            .workload(Arc::clone(&net), picks.clone())
            .q_window(4)
            .candidates(3)
            .seed(11)
            .backend(BackendKind::Functional)
            .kernel_policy(policy)
            .sim_config(SimConfig {
                workers: 1,
                queue_capacity: 16,
                drop_policy: DropPolicy::DropNewest,
                batch: BatchPolicy::new(3, 0.1),
                ..SimConfig::default()
            })
            .build()
            .expect("functional toy engine");
        let mut space = engine.constraint_space();
        space.lat_lo *= 4.0;
        space.lat_hi *= 10.0;
        let queries = uniform_stream(&space, n, 5);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(n, 5).unwrap();
        let stream = attach_arrivals(&queries, &arrivals);
        engine.serve_timed(&stream).expect("functional serve")
    };
    let naive = build(KernelPolicy::Naive);
    assert!(!naive.served.is_empty());
    assert!(naive.served.iter().all(|q| q.prediction.is_some()));
    // The executor's kernel policy changes host speed, never results: the
    // whole simulation — timings *and* predictions — is policy-invariant.
    let gemm = build(KernelPolicy::Im2colGemm);
    assert_eq!(naive, gemm);
}
