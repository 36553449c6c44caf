//! Property-based tests for the tenant-tiered layer: cross-tier depth
//! ordering, per-tier hysteresis (dwell + single steps), and zero-pressure
//! identity — under arbitrary tables and signal sequences. The property
//! that an unshielded tiered policy tracks the global one step for step
//! sets private thresholds, so it lives in `adaptive.rs`'s unit tests.

use proptest::prelude::*;

use sushi_sched::query::{Policy, Query};
use sushi_sched::scheduler::{CacheSelection, Scheduler};
use sushi_sched::table::LatencyTable;
use sushi_sched::{LoadSignal, TenantOptions, TenantPolicy, TenantTier, TierSignals};
use sushi_wsnet::layer::LayerSlice;
use sushi_wsnet::subnet::SubNetConfig;
use sushi_wsnet::{SubGraph, SubNet};

/// Same synthetic-table shape as `proptest_adaptive.rs`: `n` rows of
/// increasing size/accuracy, `m` candidate columns, latency falling with
/// vector overlap.
fn make_table(n: usize, m: usize) -> LatencyTable {
    let subnets: Vec<SubNet> = (1..=n)
        .map(|i| SubNet {
            name: format!("sn{i}"),
            config: SubNetConfig::new(vec![1], vec![1.0]),
            graph: SubGraph::new(vec![
                LayerSlice::new(8 * i, 4 * i, 3),
                LayerSlice::new(16 * i, 8 * i, 3),
            ]),
            accuracy: 0.70 + 0.02 * i as f64,
            flops: i as u64 * 1_000_000,
            weight_bytes: i as u64 * 10_000,
        })
        .collect();
    let candidates: Vec<SubGraph> = (1..=m)
        .map(|j| {
            SubGraph::new(vec![LayerSlice::new(8 * j, 4 * j, 3), LayerSlice::new(16 * j, 8 * j, 3)])
        })
        .collect();
    LatencyTable::build(&subnets, candidates, |sn, cached| {
        let base = sn.weight_bytes as f64 / 10_000.0;
        let hit = cached.map_or(0.0, |g| sushi_wsnet::encoding::overlap_ratio(&sn.graph, g));
        base * (1.0 - 0.3 * hit)
    })
}

/// A tier map with every tenant `Standard`: three ladders, one traffic
/// class.
fn all_standard() -> TenantOptions {
    TenantOptions::global().with_tier(0, TenantTier::Standard)
}

/// An arbitrary (possibly adversarial) load observation at `now_ms`.
fn signal_at(now_ms: f64, depth: f64, p99_ms: f64, slack_ms: f64, budget_ms: f64) -> LoadSignal {
    LoadSignal {
        now_ms,
        queue_depth: depth,
        queue_capacity: 32,
        p99_ms,
        head_slack_ms: slack_ms,
        head_budget_ms: budget_ms,
        quarantined_frac: 0.0,
    }
}

/// One randomized observation: a shared signal plus optional per-tier
/// overrides and an optional best-effort arrival (predictor food).
type Obs = (f64, f64, f64, Option<(f64, f64)>, bool);

fn obs_strategy() -> impl Strategy<Value = Obs> {
    (
        0.01f64..30.0, // dt
        0.0f64..64.0,  // shared depth
        0.0f64..200.0, // shared p99
        0usize..2,     // whether the BE tier override applies
        0.0f64..64.0,  // BE override depth
        0.0f64..200.0, // BE override p99
        0usize..2,     // whether a BE arrival is fed to the predictor
    )
        .prop_map(|(dt, depth, p99, with_be, be_depth, be_p99, arrival)| {
            (dt, depth, p99, (with_be == 1).then_some((be_depth, be_p99)), arrival == 1)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cross-tier invariant holds after every observation, whatever
    /// the signals or predictor activity: a latency-critical ladder is
    /// never deeper than standard, and standard never deeper than
    /// best-effort.
    #[test]
    fn lc_is_never_deeper_than_be_under_any_signal(
        n in 2usize..8,
        steps in proptest::collection::vec(obs_strategy(), 1..60),
    ) {
        let t = make_table(n, 3);
        let mut p = TenantPolicy::new(&t, Policy::StrictAccuracy, all_standard());
        let mut now = 0.0;
        for (dt, depth, p99, be_override, arrival) in steps {
            now += dt;
            if arrival {
                p.observe_arrival(TenantTier::BestEffort, now);
            }
            let mut signals = TierSignals::uniform(signal_at(now, depth, p99, -1.0, 20.0));
            if let Some((be_depth, be_p99)) = be_override {
                signals = signals
                    .with_tier(TenantTier::BestEffort, signal_at(now, be_depth, be_p99, -1.0, 20.0));
            }
            let _ = p.observe(&signals);
            prop_assert!(
                p.level(TenantTier::LatencyCritical) <= p.level(TenantTier::Standard),
                "LC {} deeper than Std {}",
                p.level(TenantTier::LatencyCritical), p.level(TenantTier::Standard)
            );
            prop_assert!(
                p.level(TenantTier::Standard) <= p.level(TenantTier::BestEffort),
                "Std {} deeper than BE {}",
                p.level(TenantTier::Standard), p.level(TenantTier::BestEffort)
            );
        }
    }

    /// Each tier's ladder keeps the global controller's contract under the
    /// tenant coupling: every enacted change is a single-level step, and
    /// two changes of the *same tier* are separated by at least the
    /// derived dwell.
    #[test]
    fn per_tier_changes_are_single_steps_inside_the_dwell(
        n in 2usize..8,
        steps in proptest::collection::vec(obs_strategy(), 1..60),
    ) {
        let t = make_table(n, 3);
        let mut p = TenantPolicy::new(&t, Policy::StrictAccuracy, all_standard());
        let dwell = p.dwell_ms();
        let mut now = 0.0;
        let mut last_change: [Option<f64>; 3] = [None; 3];
        let mut levels = [0usize; 3];
        for (dt, depth, p99, be_override, _) in steps {
            now += dt;
            let mut signals = TierSignals::uniform(signal_at(now, depth, p99, -1.0, 20.0));
            if let Some((be_depth, be_p99)) = be_override {
                signals = signals
                    .with_tier(TenantTier::BestEffort, signal_at(now, be_depth, be_p99, -1.0, 20.0));
            }
            for te in p.observe(&signals) {
                let i = te.tier.index();
                prop_assert_eq!(te.level, p.level(te.tier));
                prop_assert_eq!(
                    te.level.abs_diff(levels[i]), 1,
                    "tier {} stepped more than one level", te.tier.name()
                );
                if let Some(at) = last_change[i] {
                    prop_assert!(
                        te.at_ms - at >= dwell,
                        "tier {} changed at {at} and {} inside the {dwell} ms dwell",
                        te.tier.name(), te.at_ms
                    );
                }
                last_change[i] = Some(te.at_ms);
                levels[i] = te.level;
            }
            for tier in TenantTier::ALL {
                prop_assert_eq!(levels[tier.index()], p.level(tier), "event stream lost a change");
            }
        }
    }

    /// Zero pressure and no arrivals for the predictor mean zero
    /// interference, for every tier: idle signals never move any ladder,
    /// shaping is the identity, and decisions match the static scheduler
    /// exactly — the tiered analogue of the global controller's
    /// static-equivalence property.
    #[test]
    fn zero_pressure_and_no_predictor_is_identity(
        q_window in 1usize..5,
        constraints in proptest::collection::vec((0.70f64..0.88, 0.5f64..9.0), 1..40),
    ) {
        for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
            let t = make_table(5, 4);
            let mut p = TenantPolicy::new(&t, policy, all_standard());
            let mk = || Scheduler::new(
                make_table(5, 4), policy, CacheSelection::MinDistanceToAvg, q_window,
            );
            let (mut tiered, mut fixed) = (mk(), mk());
            for (i, (a, l)) in constraints.iter().enumerate() {
                let evs = p.observe(&TierSignals::uniform(LoadSignal::idle(i as f64 * 100.0)));
                prop_assert!(evs.is_empty(), "idle signals must never move any tier");
                let q = Query::new(i as u64, *a, *l);
                let tier = TenantTier::ALL[i % 3];
                let shaped = p.shape(tier, &q, &t, tiered.current_cache());
                prop_assert_eq!(shaped, q, "level-0 shaping is the identity for every tier");
                prop_assert_eq!(tiered.decide(&shaped), fixed.decide(&q));
            }
            for s in p.states() {
                prop_assert_eq!(s.degrades + s.upgrades, 0);
            }
        }
    }
}
