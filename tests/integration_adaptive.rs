//! Cross-crate integration tests for load-adaptive SubNet scheduling:
//! monotone degradation under rising load, recovery after bursts, the
//! bit-identity of the no-adaptation path, and (behind `--ignored`) a
//! 100k-query overload soak with memory-boundedness checks.

use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder};
use sushi::core::experiments::ExpOptions;
use sushi::core::serving::{run_scenario, BatchPolicy, DropPolicy, ServePreset, SimConfig};
use sushi::core::stream::{attach_arrivals, uniform_stream, TimedQuery};
use sushi::sched::{AdaptiveOptions, TenantOptions};
use sushi::wsnet::zoo;

/// Quick sizing with adaptation enabled (the default).
fn quick() -> ExpOptions {
    ExpOptions::quick()
}

/// Quick sizing pinned to the static pre-adaptive runtime.
fn static_quick() -> ExpOptions {
    let mut opts = ExpOptions::quick();
    opts.adaptive = false;
    opts
}

#[test]
fn degradation_is_monotone_under_rising_load() {
    // A stream whose arrival gaps shrink linearly: load only ever rises
    // while arrivals last, so the controller's walk to its deepest level
    // must be a monotone climb — one degrade per dwell window, no
    // oscillation on the way down the ladder. (After the peak it may
    // legitimately step back up: degradation raises service capacity, and
    // discovering that the degraded ladder absorbs the load IS the point.)
    // A probe engine yields the serving set's mean cold latency so the
    // real engine can pin an explicit 4x dwell: long enough that the
    // transient pressure spikes of the early (comfortable) ramp phase
    // never flip the level, keeping the climb itself the only signal.
    let mean_cold_ms = {
        let probe = EngineBuilder::new().q_window(10).candidates(8).seed(7).build().unwrap();
        let t = probe.table();
        (0..t.num_rows()).map(|i| t.latency_ms(i, 0)).sum::<f64>() / t.num_rows() as f64
    };
    let dwell_ms = 4.0 * mean_cold_ms;
    let mut engine = EngineBuilder::new()
        .q_window(10)
        .candidates(8)
        .seed(7)
        .sim_config(SimConfig {
            workers: 1,
            queue_capacity: 32,
            // FIFO so sustained overload pins the queue full (the deadline
            // sweep would empty it and make occupancy oscillate).
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 1.0),
            control: Some(TenantOptions::global(AdaptiveOptions {
                dwell_ms,
                ..AdaptiveOptions::default()
            })),
            ..SimConfig::default()
        })
        .build()
        .expect("adaptive engine");
    let mut space = engine.constraint_space();
    // Uniformly loose deadlines: the ramp must be read through queue
    // occupancy, not through one tight query's head-of-line slack spike.
    space.lat_hi *= 2.5;
    space.lat_lo = 0.9 * space.lat_hi;
    let n = 400;
    let queries = uniform_stream(&space, n, 3);
    // Gaps ramp from comfortable (2x mean service) to crushing (0.05x).
    let mut arrivals = Vec::with_capacity(n);
    let mut t = 0.0;
    for i in 0..n {
        let frac = i as f64 / n as f64;
        t += mean_cold_ms * (2.0 * (1.0 - frac) + 0.05 * frac);
        arrivals.push(t);
    }
    let result = engine.serve_timed(&attach_arrivals(&queries, &arrivals)).expect("serve");

    let trace = result.adaptation.expect("adaptive run records a trace");
    assert!(trace.degrades > 0, "rising load must force degradation");
    let peak = trace.events.iter().map(|e| e.level).max().unwrap();
    assert!(peak >= 2, "the ramp should push through several levels, peaked at {peak}");
    let climb = trace.events.iter().position(|e| e.level == peak).unwrap();
    // Monotone climb: the walk to the peak is all degrades, one level at
    // a time — 1, 2, ..., peak, with no upgrade interleaved.
    for (i, ev) in trace.events[..=climb].iter().enumerate() {
        assert_eq!(
            ev.level,
            i + 1,
            "climb to peak {peak} was not monotone: event {i} sits at level {}",
            ev.level
        );
    }
    // The dwell guard holds over the whole trace: no two level changes
    // within the explicit 4x window.
    let mut prev_level = 0usize;
    let mut prev_at = f64::NEG_INFINITY;
    for ev in &trace.events {
        assert_eq!(
            ev.level.abs_diff(prev_level),
            1,
            "levels move one step at a time ({prev_level} -> {} at {} ms)",
            ev.level,
            ev.at_ms
        );
        assert!(
            ev.at_ms - prev_at >= dwell_ms - 1e-9,
            "changes at {prev_at} and {} ms violate the dwell window",
            ev.at_ms
        );
        prev_level = ev.level;
        prev_at = ev.at_ms;
    }
}

#[test]
fn adaptation_recovers_after_the_failover_burst() {
    // The failover preset ends with calm traffic after its recovery
    // burst: whatever level the burst forced, the controller must walk
    // back up before the run ends.
    let result = run_scenario(ServePreset::Failover, &quick()).expect("failover");
    let trace = result.adaptation.expect("adaptive trace");
    let peak = trace.events.iter().map(|e| e.level).max().unwrap_or(0);
    assert!(trace.degrades > 0, "the recovery burst must trigger degradation");
    assert!(trace.upgrades > 0, "calm traffic after the burst must trigger recovery");
    // Recovery: once the burst backlog clears, the controller walks back
    // below the peak it was forced to. (The run ends at the last
    // completion, so a walk all the way to level 0 is not guaranteed —
    // under marginal load the level legitimately hovers.)
    let peak_idx = trace.events.iter().position(|e| e.level == peak).unwrap();
    let post_min = trace.events[peak_idx..].iter().map(|e| e.level).min().unwrap();
    assert!(post_min < peak, "level never came back below its peak {peak}");
}

#[test]
fn adaptive_beats_static_on_the_burst_preset() {
    // The acceptance criterion, checked end to end through the facade:
    // degradation turns burst SLO violations into accuracy dips at no
    // goodput cost.
    let adaptive = run_scenario(ServePreset::Burst, &quick()).unwrap().summary();
    let fixed = run_scenario(ServePreset::Burst, &static_quick()).unwrap().summary();
    assert!(
        adaptive.slo_violation_rate < fixed.slo_violation_rate,
        "adaptive {} !< static {}",
        adaptive.slo_violation_rate,
        fixed.slo_violation_rate
    );
    assert!(
        adaptive.goodput_qps >= fixed.goodput_qps,
        "adaptive goodput {} regressed below static {}",
        adaptive.goodput_qps,
        fixed.goodput_qps
    );
}

#[test]
fn no_adaptation_is_bit_identical_to_the_pre_adaptive_runtime() {
    // `adaptive: false` must reproduce the static runtime's numbers
    // bit-for-bit (the same pins are enforced crate-side; this checks the
    // facade path end to end). Re-pinned when least-loaded replica routing
    // replaced the lowest-index-free worker pick.
    let opts = static_quick();
    let steady = run_scenario(ServePreset::Steady, &opts).unwrap();
    assert!(steady.adaptation.is_none(), "static runs must not record a trace");
    let s = steady.summary();
    assert!((s.p99_ms - 23.382_301_440).abs() < 1e-6, "steady p99 {}", s.p99_ms);
    assert!((s.goodput_qps - 74.346_097_348).abs() < 1e-6, "steady goodput {}", s.goodput_qps);
    assert_eq!(s.dropped, 0);
    assert_eq!((s.degrades, s.upgrades), (0, 0));

    let b = run_scenario(ServePreset::Burst, &opts).unwrap().summary();
    assert!((b.p99_ms - 96.176_223_914).abs() < 1e-6, "burst p99 {}", b.p99_ms);
    assert!((b.goodput_qps - 47.201_943_536).abs() < 1e-6, "burst goodput {}", b.goodput_qps);
    assert_eq!(b.dropped, 26);
}

/// 100k-query soak at 10x the burst arrival rate (run in CI bench-smoke
/// via `--ignored`): the run must complete without panicking, account for
/// every query, keep the queue inside its cap, and — on the functional
/// companion — hold backend memory flat once every SubNet is packed.
#[test]
#[ignore = "soak: ~100k simulated queries, run explicitly or in bench-smoke"]
fn soak_extreme_overload_drains_and_stays_bounded() {
    let queue_capacity = 32;
    let mut engine = EngineBuilder::new()
        .q_window(10)
        .candidates(8)
        .seed(11)
        .sim_config(SimConfig {
            workers: 2,
            queue_capacity,
            drop_policy: DropPolicy::DeadlineAware,
            batch: BatchPolicy::new(4, 1.0),
            control: Some(TenantOptions::global(AdaptiveOptions::default())),
            ..SimConfig::default()
        })
        .build()
        .expect("soak engine");
    let mean_cold_ms = {
        let t = engine.table();
        (0..t.num_rows()).map(|i| t.latency_ms(i, 0)).sum::<f64>() / t.num_rows() as f64
    };
    let mut space = engine.constraint_space();
    space.lat_lo *= 2.0;
    space.lat_hi *= 2.5;
    // 10x the burst preset's peak (1.8x capacity): deep, sustained overload.
    let capacity_qps = 2.0 * 1e3 / mean_cold_ms;
    let n = 100_000;
    let queries = uniform_stream(&space, n, 13);
    let arrivals = sushi::core::serving::ArrivalProcess::Poisson { rate_qps: 18.0 * capacity_qps }
        .timestamps(n, 17);
    let stream: Vec<TimedQuery> = attach_arrivals(&queries, &arrivals);
    let result = engine.serve_timed(&stream).expect("soak run");

    // Drained: every query is either served or accounted as dropped.
    assert_eq!(result.served.len() + result.dropped.len(), n);
    assert!(result.max_queue_depth <= queue_capacity, "queue escaped its cap");
    let trace = result.adaptation.expect("soak runs adaptive");
    assert_eq!(trace.degrades + trace.upgrades, trace.events.len());
    assert!(trace.degrades > 0, "sustained overload must degrade");
    // Analytical backend holds no execution state.
    assert_eq!(engine.memory_stats(), None);

    // Functional companion (toy zoo): arena + pack-once caches must stop
    // growing once the serving set is packed — the steady state allocates
    // nothing per query.
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let serving_set = picks.len();
    let mut func = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .sim_config(SimConfig {
            workers: 1,
            queue_capacity: 16,
            drop_policy: DropPolicy::DeadlineAware,
            batch: BatchPolicy::new(3, 0.1),
            control: Some(TenantOptions::global(AdaptiveOptions::default())),
            ..SimConfig::default()
        })
        .build()
        .expect("functional soak engine");
    let mut fspace = func.constraint_space();
    fspace.lat_lo *= 4.0;
    fspace.lat_hi *= 10.0;
    let m = 300;
    let fq = uniform_stream(&fspace, m, 5);
    let fa = sushi::core::serving::ArrivalProcess::Poisson { rate_qps: 40_000.0 }.timestamps(m, 5);
    let first = func.serve_timed(&attach_arrivals(&fq, &fa)).expect("functional warmup");
    assert_eq!(first.served.len() + first.dropped.len(), m);
    let warm = func.memory_stats().expect("functional backend reports memory");
    assert!(warm.arena_reserved_bytes > 0);
    assert!(warm.packed_subnets <= serving_set);
    // Second leg, arrivals strictly after the first makespan.
    let offset = first.makespan_ms + 1.0;
    let fa2: Vec<f64> = fa.iter().map(|t| t + offset).collect();
    let fq2 = uniform_stream(&fspace, m, 6);
    let second = func.serve_timed(&attach_arrivals(&fq2, &fa2)).expect("functional steady state");
    assert_eq!(second.served.len() + second.dropped.len(), m);
    let steady = func.memory_stats().expect("stats after steady state");
    assert_eq!(
        steady, warm,
        "backend memory grew after warmup: {warm:?} -> {steady:?} (per-query allocation leak)"
    );
}
