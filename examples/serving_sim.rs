//! Bursty multi-tenant serving, end-to-end through the serving runtime.
//!
//! ```text
//! cargo run --release --example serving_sim
//! ```
//!
//! Part 1 replays the `multi_tenant` preset — an autonomous-vehicle tenant
//! (steady Poisson traffic) sharing the stack with an ICU tenant (MMPP
//! admission waves) — and reports tail latency, goodput and SLO violations
//! per tenant. Part 2 re-runs a small bursty scenario on the toy zoo with
//! the **functional** execution backend, so every dispatched batch executes
//! the *real* int8 datapath under the chosen kernel policy — demonstrating
//! that batching changes scheduling, never logits.

use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder};
use sushi::core::experiments::ExpOptions;
use sushi::core::serving::{
    run_scenario, ArrivalProcess, BatchPolicy, DropPolicy, RoutingPolicy, ServePreset, SimConfig,
};
use sushi::core::stream::{attach_arrivals, uniform_stream};
use sushi::wsnet::zoo;

fn main() {
    // ── Part 1: the multi-tenant preset on MobileNetV3 / ZCU104 ─────────
    let opts = ExpOptions::default();
    let result = run_scenario(ServePreset::MultiTenant, &opts).expect("preset scenario");
    let total = result.summary();
    println!(
        "multi_tenant preset: {} offered, {} served in {} batches, {} dropped, \
         {} cache installs ({:.1} ms swap time)\n",
        total.offered,
        total.completed,
        result.batches,
        total.dropped,
        total.cache_installs,
        total.swap_ms
    );
    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "tenant", "offered", "dropped", "p50(ms)", "p95(ms)", "p99(ms)", "goodput", "SLO viol"
    );
    for (tenant, label) in [(0u32, "AV"), (1u32, "ICU")] {
        let s = result.tenant_summary(tenant);
        println!(
            "{label:<8} {:>8} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>8.1} q/s {:>9.1}%",
            s.offered,
            s.dropped,
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.goodput_qps,
            100.0 * s.slo_violation_rate
        );
    }
    println!(
        "\nThe ICU tenant's admission waves transiently exceed capacity: the deadline-aware \
         queue sheds the most hopeless queries while the AV tenant keeps its tail.\n"
    );

    // ── Part 2: real int8 forwards per dispatched batch (toy zoo) ───────
    let net = Arc::new(zoo::toy_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 5);
        s.sample_subnets(4)
    };
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(4)
        .seed(42)
        .backend(BackendKind::Functional)
        // The pack-once weight caches are Arc-shared across replicas, so a
        // multi-worker pool serves real parallel int8 forwards; affinity
        // routing keeps batches on the replica whose PB is already warm.
        .sim_config(SimConfig {
            workers: 2,
            routing: RoutingPolicy::CacheAffinity,
            queue_capacity: 16,
            drop_policy: DropPolicy::DeadlineAware,
            batch: BatchPolicy::new(4, 0.05),
            ..SimConfig::default()
        })
        .build()
        .expect("functional toy engine");

    // Toy SubNets serve in ~0.05 ms; give end-to-end deadlines room for
    // queueing and batching delay (cf. the preset scenarios).
    let mut space = engine.constraint_space();
    space.lat_lo *= 4.0;
    space.lat_hi *= 8.0;

    let n = 24;
    let queries = uniform_stream(&space, n, 7);
    let arrivals = ArrivalProcess::Mmpp {
        calm_qps: 8_000.0,
        burst_qps: 60_000.0,
        mean_calm_ms: 0.8,
        mean_burst_ms: 0.3,
    }
    .timestamps(n, 7)
    .expect("valid MMPP parameters");
    let stream = attach_arrivals(&queries, &arrivals);
    let run = engine.serve_timed(&stream).expect("functional serve");

    println!("functional backend (toy zoo): every batch ran the real int8 datapath");
    for q in run.served.iter().take(8) {
        println!(
            "  query {:>2}  batch of {}  SubNet row {}  latency {:>7.3} ms  prediction {}",
            q.query.id,
            q.batch_size,
            q.subnet_row,
            q.latency_ms(),
            q.prediction.expect("functional mode records predictions")
        );
    }
    let batched = run.served.iter().filter(|q| q.batch_size > 1).count();
    println!(
        "  … {} of {} served queries rode shared-weight batches; logits are identical to \
         unbatched execution by construction (see proptest_batch).",
        batched,
        run.served.len()
    );
}
