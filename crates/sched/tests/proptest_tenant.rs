//! Property-based tests for the tenant-tiered layer: cross-tier depth
//! ordering, per-tier hysteresis (dwell + single steps), equivalence with
//! the global controller, and zero-pressure identity — under arbitrary
//! tables, shields, and signal sequences.

use proptest::prelude::*;

use sushi_sched::query::{Policy, Query};
use sushi_sched::scheduler::{CacheSelection, Scheduler};
use sushi_sched::table::LatencyTable;
use sushi_sched::{
    AdaptiveOptions, AdaptivePolicy, LoadSignal, PredictorOptions, TenantOptions, TenantPolicy,
    TenantTier, TierSignals,
};
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
    /// the signals, shield, or predictor activity: a latency-critical
    /// ladder is never deeper than standard, and standard never deeper
    /// than best-effort.
    #[test]
    fn lc_is_never_deeper_than_be_under_any_signal(
        n in 2usize..8,
        shield in 1.0f64..4.0,
        with_predictor in (0usize..2).prop_map(|b| b == 1),
        steps in proptest::collection::vec(obs_strategy(), 1..60),
    ) {
        let t = make_table(n, 3);
        let opts = TenantOptions::default()
            .with_shield(shield)
            .with_predictor(with_predictor.then(PredictorOptions::default));
        let mut p = TenantPolicy::new(&t, Policy::StrictAccuracy, opts);
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
    /// two changes of the *same tier* are separated by at least the dwell.
    #[test]
    fn per_tier_changes_are_single_steps_inside_the_dwell(
        n in 2usize..8,
        dwell in 1.0f64..50.0,
        shield in 1.0f64..4.0,
        steps in proptest::collection::vec(obs_strategy(), 1..60),
    ) {
        let t = make_table(n, 3);
        let opts = TenantOptions::default()
            .with_base(AdaptiveOptions::default().with_dwell_ms(dwell))
            .with_shield(shield);
        let mut p = TenantPolicy::new(&t, Policy::StrictAccuracy, opts);
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
                prop_assert_eq!(te.event.level, p.level(te.tier));
                prop_assert_eq!(
                    te.event.level.abs_diff(levels[i]), 1,
                    "tier {} stepped more than one level", te.tier.name()
                );
                if let Some(at) = last_change[i] {
                    prop_assert!(
                        te.event.at_ms - at >= dwell,
                        "tier {} changed at {at} and {} inside the {dwell} ms dwell",
                        te.tier.name(), te.event.at_ms
                    );
                }
                last_change[i] = Some(te.event.at_ms);
                levels[i] = te.event.level;
            }
            for tier in TenantTier::ALL {
                prop_assert_eq!(levels[tier.index()], p.level(tier), "event stream lost a change");
            }
        }
    }

    /// With shield 1 (every tier shares the global thresholds), no
    /// predictor, and no per-tier signals, the standard tier's level
    /// trajectory is step-for-step identical to the global controller fed
    /// the same signals — the tenant layer is the global layer, three
    /// times over. The untiered policy (`TenantOptions::global`) *is* the
    /// global controller: same events at the same instants, same batch
    /// cap, and the same shaped query for every tier at every level.
    #[test]
    fn uniform_tenancy_tracks_the_global_controller(
        n in 2usize..8,
        dwell in 1.0f64..50.0,
        steps in proptest::collection::vec(
            (0.01f64..30.0, 0.0f64..64.0, 0.0f64..200.0),
            1..60,
        ),
        constraint in (0.70f64..0.90, 0.5f64..9.0),
    ) {
        for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
            let t = make_table(n, 3);
            let base = AdaptiveOptions::default().with_dwell_ms(dwell);
            let mut tenant = TenantPolicy::new(
                &t,
                policy,
                TenantOptions::default().with_base(base).with_shield(1.0),
            );
            let mut one_ladder = TenantPolicy::new(&t, policy, TenantOptions::global(base));
            prop_assert!(tenant.is_tiered() && !one_ladder.is_tiered());
            prop_assert_eq!(one_ladder.ladder_tiers(), &[TenantTier::Standard][..]);
            let mut global = AdaptivePolicy::new(&t, policy, base);
            prop_assert_eq!(one_ladder.scale_ms(), global.scale_ms());
            prop_assert_eq!(one_ladder.dwell_ms(), global.dwell_ms());
            let q = Query::new(0, constraint.0, constraint.1);
            let mut now = 0.0;
            // The random walk, then a saturated climb and an idle descent
            // one dwell apart so every level of the ladder is compared.
            let climb = (0..n).map(|_| (dwell + 1.0, 64.0, 1e6));
            let descent = (0..n).map(|_| (dwell + 1.0, 0.0, 0.0));
            for (dt, depth, p99) in steps.iter().copied().chain(climb).chain(descent) {
                now += dt;
                // An empty-queue head (infinite slack) leaves depth and
                // tail in charge, so pressure moves both ways.
                let signal = signal_at(now, depth, p99, f64::INFINITY, 0.0);
                let expected = global.observe(&signal);
                let _ = tenant.observe(&TierSignals::uniform(signal));
                let stepped = one_ladder.observe(&TierSignals::uniform(signal));
                prop_assert_eq!(
                    stepped.iter().map(|te| te.event).collect::<Vec<_>>(),
                    expected.into_iter().collect::<Vec<_>>(),
                    "the one-ladder policy enacted a different change"
                );
                prop_assert_eq!(one_ladder.batch_cap(8), global.batch_cap(8));
                for tier in TenantTier::ALL {
                    prop_assert_eq!(
                        tenant.level(tier), global.level(),
                        "tier {} diverged from the global controller", tier.name()
                    );
                    prop_assert_eq!(one_ladder.level(tier), global.level());
                    prop_assert_eq!(one_ladder.tier_of(tier.index() as u32), TenantTier::Standard);
                    for cached in 0..t.num_columns() {
                        prop_assert_eq!(
                            one_ladder.shape(tier, &q, &t, cached),
                            global.shape(&q, &t, cached),
                            "shape differs at level {} under column {}", global.level(), cached
                        );
                    }
                }
            }
            prop_assert_eq!(global.level(), 0, "the descent must walk back to level 0");
            prop_assert!(global.degrades() >= n - 1, "the climb must reach the deepest level");
            prop_assert_eq!(tenant.degrades(TenantTier::Standard), global.degrades());
            prop_assert_eq!(tenant.upgrades(TenantTier::Standard), global.upgrades());
            prop_assert_eq!(one_ladder.degrades(TenantTier::Standard), global.degrades());
            prop_assert_eq!(one_ladder.upgrades(TenantTier::Standard), global.upgrades());
        }
    }

    /// Zero pressure and no predictor mean zero interference, for every
    /// tier: idle signals never move any ladder, shaping is the identity,
    /// and decisions match the static scheduler exactly — the tiered
    /// analogue of the global controller's static-equivalence property.
    #[test]
    fn zero_pressure_and_no_predictor_is_identity(
        q_window in 1usize..5,
        shield in 1.0f64..4.0,
        constraints in proptest::collection::vec((0.70f64..0.88, 0.5f64..9.0), 1..40),
    ) {
        for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
            let t = make_table(5, 4);
            let mut p = TenantPolicy::new(
                &t,
                policy,
                TenantOptions::default().with_shield(shield).with_predictor(None),
            );
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
            for tier in TenantTier::ALL {
                prop_assert_eq!(p.degrades(tier) + p.upgrades(tier), 0);
            }
        }
    }
}
