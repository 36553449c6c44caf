//! Thread budget of functional serving: a multi-replica run must not add
//! more threads than the machine has cores to spare.
//!
//! Replicas are simulated accelerators, so the host runs their batches one
//! after another; the only threads the library owns are the kernel worker
//! pool of the backend's one `Arena`, at most `available_parallelism − 1`
//! of them beside the calling thread. The test counts the process's
//! threads, so it lives in a file of its own: every integration test file
//! runs as its own process, and no other test's threads can be counted.
//! On a 1-core machine the budget is zero and no pool ever starts, so the
//! check passes trivially there.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder};
use sushi::core::serving::{ArrivalProcess, BatchPolicy, DropPolicy, RoutingPolicy, SimConfig};
use sushi::core::stream::{attach_arrivals, uniform_stream};
use sushi::wsnet::zoo;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn functional_replicas_add_at_most_the_spare_cores_in_threads() {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = sushi::wsnet::sampler::ConfigSampler::new(&net, 3).sample_subnets(3);
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig {
            workers: 4,
            routing: RoutingPolicy::RoundRobin,
            queue_capacity: 256,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(3, 0.1),
            ..SimConfig::default()
        })
        .build()
        .expect("functional engine");
    let n = 200;
    let qs = uniform_stream(&engine.constraint_space(), n, 5);
    let ts = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(n, 5).unwrap();

    let before = threads();
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).expect("functional serve");
    let added = threads().saturating_sub(before);

    let served_by = |w: usize| result.served.iter().filter(|s| s.worker == w).count();
    assert!((0..4).all(|w| served_by(w) > 0), "every replica must serve a batch");
    let spare = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) - 1;
    assert!(added <= spare, "serving added {added} threads; the spare cores are {spare}");
}
