//! Property-based tests for the load-adaptive layer: hysteresis stability,
//! feasibility of shaped selections, and static-equivalence at zero
//! pressure, under arbitrary tables and signal sequences.

use proptest::prelude::*;

use sushi_sched::query::{Policy, Query};
use sushi_sched::scheduler::{CacheSelection, Scheduler};
use sushi_sched::table::{LatencyTable, EMPTY_COLUMN};
use sushi_sched::{AdaptiveOptions, AdaptivePolicy, LoadSignal};
use sushi_wsnet::layer::LayerSlice;
use sushi_wsnet::subnet::SubNetConfig;
use sushi_wsnet::{SubGraph, SubNet};

/// Same synthetic-table shape as `proptest_sched.rs`: `n` rows of
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hysteresis never oscillates within one dwell window: whatever the
    /// signal sequence, two enacted level changes are separated by at
    /// least `dwell_ms`, and every step moves by exactly one level.
    #[test]
    fn level_changes_respect_the_dwell_window(
        n in 2usize..8,
        dwell in 1.0f64..50.0,
        steps in proptest::collection::vec(
            (0.01f64..30.0, 0.0f64..64.0, 0.0f64..200.0, -5.0f64..50.0),
            1..60,
        ),
    ) {
        let t = make_table(n, 3);
        let mut p = AdaptivePolicy::new(
            &t,
            Policy::StrictAccuracy,
            AdaptiveOptions { dwell_ms: dwell, ..AdaptiveOptions::default() },
        );
        let mut now = 0.0;
        let mut last_change: Option<(f64, usize)> = None;
        for (dt, depth, p99, slack) in steps {
            now += dt;
            let before = p.level();
            let ev = p.observe(&signal_at(now, depth, p99, slack, 20.0));
            if let Some(ev) = ev {
                prop_assert_eq!(ev.level, p.level());
                prop_assert_eq!(
                    ev.level.abs_diff(before), 1,
                    "every enacted change is a single-level step"
                );
                if let Some((at, lvl)) = last_change {
                    prop_assert!(
                        ev.at_ms - at >= dwell,
                        "changes at {at} and {} violate the {dwell} ms dwell", ev.at_ms
                    );
                    // In particular the controller can never flap A→B→A
                    // between adjacent rungs inside one window.
                    prop_assert!(ev.at_ms - at >= dwell || lvl != ev.level);
                }
                last_change = Some((ev.at_ms, ev.level));
            } else {
                prop_assert_eq!(p.level(), before, "no event means the level held");
            }
            prop_assert!(p.level() <= p.max_level());
        }
    }

    /// Whatever the level, the SubNet selected for a shaped query is
    /// feasible: its latency under the *current* cache column fits the cap
    /// rung's cold budget, and shaping never raises either constraint
    /// beyond the query's own ConstraintSpace.
    #[test]
    fn shaped_selection_is_always_feasible(
        n in 2usize..8,
        m in 1usize..5,
        degrades in 0usize..8,
        acc in 0.70f64..0.90,
        lat in 0.5f64..20.0,
        col_pick in 0usize..6,
    ) {
        for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
            let t = make_table(n, m);
            let col = col_pick % t.num_columns();
            let mut p = AdaptivePolicy::new(&t, policy, AdaptiveOptions::default());
            let red = signal_at(0.0, 64.0, 1e6, -1.0, 1.0);
            for i in 0..degrades {
                let _ = p.observe(&signal_at(i as f64 * p.dwell_ms(), 64.0, red.p99_ms, -1.0, 1.0));
            }
            let q = Query::new(1, acc, lat);
            let shaped = p.shape(&q, &t, col);
            // Shaping only ever tightens the query's own ConstraintSpace.
            prop_assert!(shaped.accuracy_constraint <= q.accuracy_constraint);
            prop_assert!(shaped.latency_constraint_ms <= q.latency_constraint_ms);
            if p.level() > 0 {
                // The cap rung's cold latency is the degradation budget; the
                // row `select` lands on must fit it under the current column.
                let ladder_budget = {
                    let mut colds: Vec<f64> =
                        (0..t.num_rows()).map(|i| t.latency_ms(i, EMPTY_COLUMN)).collect();
                    colds.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    colds[t.num_rows() - 1 - p.level()]
                };
                match policy {
                    Policy::StrictAccuracy => {
                        let row = t.select(policy, shaped.accuracy_constraint, f64::MAX, col);
                        prop_assert!(
                            t.latency_ms(row, col) <= ladder_budget + 1e-12,
                            "row {row} at {} ms exceeds level-{} budget {} ms",
                            t.latency_ms(row, col), p.level(), ladder_budget
                        );
                    }
                    Policy::StrictLatency => {
                        let row = t.select(policy, 0.0, shaped.latency_constraint_ms, col);
                        let any_feasible = (0..t.num_rows())
                            .any(|i| t.latency_ms(i, col) <= shaped.latency_constraint_ms);
                        if any_feasible {
                            prop_assert!(
                                t.latency_ms(row, col) <= shaped.latency_constraint_ms + 1e-12
                            );
                        } else {
                            // The query's own budget was below every row to
                            // begin with: the fastest-row fallback is the
                            // same one the static scheduler takes.
                            let fastest = (0..t.num_rows())
                                .min_by(|&a, &b| {
                                    t.latency_ms(a, col)
                                        .partial_cmp(&t.latency_ms(b, col))
                                        .unwrap()
                                })
                                .unwrap();
                            prop_assert_eq!(row, fastest);
                        }
                    }
                }
            }
        }
    }

    /// Zero pressure means zero interference: a stream decided through an
    /// idle adaptive layer is decision-for-decision identical to the
    /// static scheduler.
    #[test]
    fn zero_pressure_is_decision_identical_to_static(
        q_window in 1usize..5,
        constraints in proptest::collection::vec((0.70f64..0.88, 0.5f64..9.0), 1..40),
    ) {
        for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
            let t = make_table(5, 4);
            let mut p = AdaptivePolicy::new(&t, policy, AdaptiveOptions::default());
            let mk = || Scheduler::new(
                make_table(5, 4), policy, CacheSelection::MinDistanceToAvg, q_window,
            );
            let (mut adaptive, mut fixed) = (mk(), mk());
            for (i, (a, l)) in constraints.iter().enumerate() {
                let ev = p.observe(&LoadSignal::idle(i as f64 * 100.0));
                prop_assert!(ev.is_none(), "idle signals must never move the level");
                let q = Query::new(i as u64, *a, *l);
                let shaped = p.shape(&q, &t, adaptive.current_cache());
                prop_assert_eq!(shaped, q, "level 0 shaping is the identity");
                prop_assert_eq!(adaptive.decide(&shaped), fixed.decide(&q));
            }
            prop_assert_eq!(p.degrades() + p.upgrades(), 0);
        }
    }

    /// The batch cap is monotone in the level and never sinks below one
    /// query.
    #[test]
    fn batch_cap_is_monotone_and_floored(
        base in 1usize..64,
        degrades in 0usize..12,
    ) {
        let t = make_table(4, 2);
        let mut p = AdaptivePolicy::new(&t, Policy::StrictAccuracy, AdaptiveOptions::default());
        let mut prev = p.batch_cap(base);
        prop_assert_eq!(prev, base);
        for i in 0..degrades {
            let _ = p.observe(&signal_at(i as f64 * p.dwell_ms(), 64.0, 1e6, -1.0, 1.0));
            let cap = p.batch_cap(base);
            prop_assert!(cap <= prev, "cap must shrink (or hold) as the level rises");
            prop_assert!(cap >= 1);
            prev = cap;
        }
    }
}
