//! Property-based tests for the fault-injected serving loop: the hard
//! conservation invariant (every admitted query is served or dropped
//! exactly once — globally, per tenant tier, and per drop reason) and
//! bit-identical determinism of `(stream, config, seed, fault plan)`,
//! under arbitrary crash/straggler/transient schedules, supervised and
//! unsupervised, across every drop policy and pool size — and that the
//! zero-rate fault plan is the fault-free run: `faults: None` is the empty
//! plan, so switching the knob on with every rate at zero moves nothing.

use std::collections::HashSet;

use proptest::prelude::*;

use sushi_core::engine::EngineBuilder;
use sushi_core::serving::{
    ArrivalProcess, BatchPolicy, DropPolicy, DropReason, FaultOptions, RoutingPolicy, SimConfig,
    SimResult,
};
use sushi_core::stream::{attach_arrivals, uniform_stream, TimedQuery};
use sushi_sched::{AdaptiveOptions, TenantOptions, TenantTier};

/// Every randomized fault-run configuration.
#[derive(Debug, Clone, Copy)]
struct FaultCase {
    workers: usize,
    queue_capacity: usize,
    drop_policy: DropPolicy,
    routing: RoutingPolicy,
    n: usize,
    load: f64,
    seed: u64,
    crash: Option<(f64, f64)>, // (mtbf, outage) in mean-cold units; outage 0 = permanent
    straggle: Option<f64>,     // service-time factor
    transient_rate: f64,
    supervised: bool,
    tenants: bool,
}

fn case_strategy() -> impl Strategy<Value = FaultCase> {
    (
        (
            1usize..5,      // workers
            2usize..24,     // queue capacity
            0usize..3,      // drop policy
            0usize..3,      // routing policy
            20usize..56,    // queries
            0.3f64..1.8,    // offered load vs. pool capacity
            0u64..u64::MAX, // seed
        ),
        (
            (0usize..2, 2.0f64..40.0, 0.0f64..20.0), // crash plan (flag, mtbf, outage)
            (0usize..2, 1.5f64..5.0),                // straggler plan (flag, factor)
            0.0f64..0.35,                            // transient rate
            0usize..2,                               // supervised
            0usize..2,                               // tenant tiers
        ),
    )
        .prop_map(
            |(
                (workers, queue_capacity, policy, routing, n, load, seed),
                (
                    (crash_on, mtbf, outage),
                    (straggle_on, factor),
                    transient_rate,
                    supervised,
                    tenants,
                ),
            )| FaultCase {
                workers,
                queue_capacity,
                drop_policy: [
                    DropPolicy::DropNewest,
                    DropPolicy::DropOldest,
                    DropPolicy::DeadlineAware,
                ][policy],
                routing: [
                    RoutingPolicy::LeastLoaded,
                    RoutingPolicy::RoundRobin,
                    RoutingPolicy::CacheAffinity,
                ][routing],
                n,
                load,
                seed,
                crash: (crash_on == 1).then_some((mtbf, outage)),
                straggle: (straggle_on == 1).then_some(factor),
                transient_rate,
                supervised: supervised == 1,
                tenants: tenants == 1,
            },
        )
}

/// The tenant → tier mapping the tenant-tiered cases configure (tierless
/// cases tag everything [`TenantTier::Standard`]).
fn tier_of(tenants: bool, tenant: u32) -> TenantTier {
    if !tenants {
        return TenantTier::Standard;
    }
    match tenant {
        0 => TenantTier::LatencyCritical,
        1 => TenantTier::Standard,
        _ => TenantTier::BestEffort,
    }
}

/// Builds a toy-zoo engine for the case and serves one seeded stream,
/// returning the result and the stream it served.
fn run_case(c: &FaultCase) -> (SimResult, Vec<TimedQuery>) {
    let net = std::sync::Arc::new(sushi_wsnet::zoo::toy_mobilenet_supernet());
    let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(4);

    let control = c.tenants.then(|| {
        TenantOptions::default()
            .with_tier(0, TenantTier::LatencyCritical)
            .with_tier(1, TenantTier::Standard)
            .with_tier(2, TenantTier::BestEffort)
    });
    let sim = SimConfig {
        workers: c.workers,
        routing: c.routing,
        queue_capacity: c.queue_capacity,
        drop_policy: c.drop_policy,
        control,
        ..SimConfig::default()
    };
    let engine = EngineBuilder::new()
        .workload(std::sync::Arc::clone(&net), picks)
        .q_window(4)
        .candidates(5)
        .seed(c.seed)
        .sim_config(sim)
        .build()
        .expect("toy engine builds");

    // Scale the fault plan and the arrival rate to the toy workload's own
    // mean cold service time, exactly like the scenario presets do.
    let table = engine.table();
    let cold: Vec<f64> = (0..table.num_rows()).map(|i| table.latency_ms(i, 0)).collect();
    let mean_cold = cold.iter().sum::<f64>() / cold.len() as f64;
    let mut fo = FaultOptions {
        seed: c.seed ^ 0xF417,
        transient_rate: c.transient_rate,
        supervised: c.supervised,
        ..FaultOptions::default()
    };
    if let Some((mtbf, outage)) = c.crash {
        fo.crash_mtbf_ms = mtbf * mean_cold;
        fo.crash_outage_ms = outage * mean_cold;
    }
    if let Some(factor) = c.straggle {
        fo.straggler_mtbf_ms = 10.0 * mean_cold;
        fo.straggler_duration_ms = 4.0 * mean_cold;
        fo.straggler_factor = factor;
    }
    drop(engine);

    let mut engine = {
        let net2 = std::sync::Arc::new(sushi_wsnet::zoo::toy_mobilenet_supernet());
        let picks2 = sushi_wsnet::sampler::ConfigSampler::new(&net2, 5).sample_subnets(4);
        EngineBuilder::new()
            .workload(std::sync::Arc::clone(&net2), picks2)
            .q_window(4)
            .candidates(5)
            .seed(c.seed)
            .sim_config(SimConfig {
                batch: BatchPolicy::new(4, 0.25 * mean_cold),
                faults: Some(fo),
                ..sim
            })
            .build()
            .expect("toy engine builds")
    };

    // Deadlines span queueing + batching headroom over bare service time.
    let mut space = engine.constraint_space();
    space.lat_lo *= 2.0;
    space.lat_hi *= 4.0;
    let qs = uniform_stream(&space, c.n, c.seed ^ 0x51);
    let rate_qps = c.load * c.workers as f64 * 1e3 / mean_cold;
    let arrivals = ArrivalProcess::Poisson { rate_qps }.timestamps(c.n, c.seed ^ 0x52);
    let mut stream = attach_arrivals(&qs, &arrivals);
    if c.tenants {
        for (i, tq) in stream.iter_mut().enumerate() {
            tq.tenant = (i % 3) as u32;
        }
    }
    let result = engine.serve_timed(&stream).expect("fault run completes");
    (result, stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The hard conservation invariant: under any fault schedule — crashes
    /// (including permanent, whole-pool loss), stragglers, transients,
    /// supervised or not — every admitted query lands in exactly one of
    /// {served, dropped}, with the partition closing globally, per tenant
    /// tier, and per drop reason, and the summary's per-reason counts
    /// agreeing with the raw drop records.
    #[test]
    fn every_admitted_query_is_served_or_dropped_exactly_once(c in case_strategy()) {
        let (result, stream) = run_case(&c);
        prop_assert_eq!(
            result.served.len() + result.dropped.len(),
            stream.len(),
            "conservation leaked: {} served + {} dropped != {} admitted",
            result.served.len(), result.dropped.len(), stream.len()
        );

        // Exactly-once at the identity level: no query is both served and
        // dropped, or counted twice on either side.
        let mut seen: HashSet<(u32, u64)> = HashSet::new();
        for s in &result.served {
            prop_assert!(seen.insert((s.tenant, s.query.id)), "query served twice");
        }
        for d in &result.dropped {
            prop_assert!(
                seen.insert((d.timed.tenant, d.timed.query.id)),
                "query both served and dropped"
            );
        }

        // Per-tier partition: admitted = served + dropped within each tier.
        let mut offered_t = [0usize; 3];
        for tq in &stream {
            offered_t[tier_of(c.tenants, tq.tenant).index()] += 1;
        }
        let mut served_t = [0usize; 3];
        for s in &result.served {
            prop_assert_eq!(s.tier, tier_of(c.tenants, s.tenant), "served tier mismatch");
            served_t[s.tier.index()] += 1;
        }
        let mut dropped_t = [0usize; 3];
        for d in &result.dropped {
            prop_assert_eq!(d.tier, tier_of(c.tenants, d.timed.tenant), "dropped tier mismatch");
            dropped_t[d.tier.index()] += 1;
        }
        for tier in TenantTier::ALL {
            let i = tier.index();
            prop_assert_eq!(
                offered_t[i], served_t[i] + dropped_t[i],
                "tier {} accounting leaked", tier.name()
            );
        }

        // Per-reason partition, cross-checked against the summary.
        let mut by_reason = [0usize; 4];
        for d in &result.dropped {
            by_reason[match d.reason {
                DropReason::QueueFull => 0,
                DropReason::DeadlineLapsed => 1,
                DropReason::RetryBudgetExhausted => 2,
                DropReason::ReplicaLost => 3,
            }] += 1;
        }
        let s = result.summary();
        prop_assert_eq!(s.dropped, result.dropped.len());
        prop_assert_eq!(s.dropped_queue_full, by_reason[0]);
        prop_assert_eq!(s.dropped_deadline, by_reason[1]);
        prop_assert_eq!(s.dropped_retry_budget, by_reason[2]);
        prop_assert_eq!(s.dropped_replica_lost, by_reason[3]);
        prop_assert_eq!(by_reason.iter().sum::<usize>(), result.dropped.len());

        // An unsupervised pool never retries, hedges, or quarantines.
        if !c.supervised {
            let f = result.faults.as_ref().expect("fault runs carry a summary");
            prop_assert_eq!(f.retries, 0);
            prop_assert_eq!(f.hedges, 0);
            prop_assert_eq!(f.quarantines, 0);
        }
    }

    /// Same seed, same stream, same fault plan ⇒ bit-identical
    /// [`SimResult`] — the replayability contract fault injection must not
    /// break.
    #[test]
    fn fault_runs_replay_bit_identically(c in case_strategy()) {
        let (a, stream_a) = run_case(&c);
        let (b, stream_b) = run_case(&c);
        prop_assert_eq!(stream_a, stream_b, "stream generation must be deterministic");
        prop_assert_eq!(a, b, "fault-injected serving must replay bit-identically");
    }

    /// A zero-rate plan is the fault-free run, supervised or not: every
    /// [`SimResult`] field but `faults` matches `faults: None` across pool
    /// sizes, routing, batching, drop policies and controllers, and the
    /// summary reports nothing enacted.
    #[test]
    fn zero_rate_plan_matches_no_faults(
        (workers, routing, policy, batch) in (1usize..5, 0usize..3, 0usize..3, 0usize..3),
        (control, supervised, seed) in (0usize..3, 0usize..2, 0u64..u64::MAX),
    ) {
        let case = format!(
            "seed {seed:#x}: {workers} workers, routing {routing}, drop {policy}, \
             batch {batch}, control {control}, supervised {supervised}"
        );
        let net = std::sync::Arc::new(sushi_wsnet::zoo::toy_mobilenet_supernet());
        let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(4);
        let run = |faults: Option<FaultOptions>| {
            let mut engine = EngineBuilder::new()
                .workload(std::sync::Arc::clone(&net), picks.clone())
                .q_window(4)
                .candidates(5)
                .seed(seed)
                .sim_config(SimConfig {
                    workers,
                    routing: [
                        RoutingPolicy::LeastLoaded,
                        RoutingPolicy::RoundRobin,
                        RoutingPolicy::CacheAffinity,
                    ][routing],
                    queue_capacity: 8,
                    drop_policy: [
                        DropPolicy::DropNewest,
                        DropPolicy::DropOldest,
                        DropPolicy::DeadlineAware,
                    ][policy],
                    batch: [
                        BatchPolicy::no_batching(),
                        BatchPolicy::new(4, 0.05),
                        BatchPolicy::new(2, 0.5),
                    ][batch],
                    control: match control {
                        0 => None,
                        1 => Some(TenantOptions::global(AdaptiveOptions::default())),
                        _ => Some(
                            TenantOptions::default()
                                .with_tier(0, TenantTier::LatencyCritical)
                                .with_tier(1, TenantTier::BestEffort),
                        ),
                    },
                    faults,
                })
                .build()
                .expect("toy engine builds");
            let mut space = engine.constraint_space();
            space.lat_lo *= 2.0;
            space.lat_hi *= 4.0;
            let qs = uniform_stream(&space, 40, seed ^ 0x51);
            let rate_qps = workers as f64 * 1e3 / space.lat_lo;
            let arrivals = ArrivalProcess::Poisson { rate_qps }.timestamps(40, seed ^ 0x52);
            let mut stream = attach_arrivals(&qs, &arrivals);
            for (i, tq) in stream.iter_mut().enumerate() {
                tq.tenant = (i % 2) as u32;
            }
            engine.serve_timed(&stream).expect("run completes")
        };
        let plan = FaultOptions { seed, supervised: supervised == 1, ..FaultOptions::default() };
        let none = run(None);
        let mut zero = run(Some(plan));
        let f = zero.faults.take().expect("a configured plan carries a summary");
        prop_assert_eq!(none.faults.clone(), None, "{}", case);
        prop_assert_eq!(&zero, &none, "{}", case);
        prop_assert_eq!(
            (f.crashes, f.transient_failures, f.retries, f.hedges, f.quarantines),
            (0, 0, 0, 0, 0),
            "{}",
            case
        );
    }
}
