//! Fig. 15 (scheduler functional evaluation) and Fig. 16 (end-to-end
//! latency/accuracy comparison of the three serving variants).

use sushi_accel::config::zcu104;
use sushi_sched::{CacheSelection, Policy};

use crate::engine::EngineBuilder;
use crate::experiments::common::{ExpOptions, Workload};
use crate::metrics::{reduction_pct, summarize};
use crate::report::{fmt_f, fmt_pct, ExpReport, TextTable};
use crate::serving::sim::ServedRecord;

/// Whether `r` met the constraint `policy` holds hard.
fn met_hard_constraint(policy: Policy, r: &ServedRecord) -> bool {
    match policy {
        Policy::StrictLatency => r.served_latency_ms <= r.query.latency_constraint_ms,
        Policy::StrictAccuracy => r.served_accuracy >= r.query.accuracy_constraint,
    }
}

/// One Fig. 15 run of full SUSHI on ZCU104 per hard-constraint policy:
/// the policy, the served records, and how many met the hard constraint.
fn fig15_for(wl: &Workload, opts: &ExpOptions) -> Vec<(Policy, Vec<ServedRecord>, usize)> {
    [Policy::StrictLatency, Policy::StrictAccuracy]
        .into_iter()
        .map(|policy| {
            let records = wl.replay(&zcu104(), 0x15, opts, |b| b.policy(policy));
            let satisfied = records.iter().filter(|r| met_hard_constraint(policy, r)).count();
            (policy, records, satisfied)
        })
        .collect()
}

/// Fig. 15: served-vs-constraint scatter under each hard-constraint policy.
#[must_use]
pub fn fig15(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "fig15",
        "SushiSched serves strictly better accuracy / strictly lesser latency",
    );
    for wl in crate::experiments::common::both_workloads() {
        for (policy, records, satisfied) in fig15_for(&wl, opts) {
            let label = match policy {
                Policy::StrictLatency => "strict latency",
                Policy::StrictAccuracy => "strict accuracy",
            };
            let mut t = TextTable::new(vec!["constraint", "served", "ok"]);
            for r in records.iter().step_by((records.len() / 20).max(1)) {
                let (c, s) = match policy {
                    Policy::StrictLatency => (r.query.latency_constraint_ms, r.served_latency_ms),
                    Policy::StrictAccuracy => {
                        (r.query.accuracy_constraint * 100.0, r.served_accuracy * 100.0)
                    }
                };
                let ok = met_hard_constraint(policy, r).to_string();
                t.push_row(vec![fmt_f(c, 2), fmt_f(s, 2), ok]);
            }
            report.add_note(format!(
                "{} / {label}: {}/{} queries satisfied the hard constraint",
                wl.label,
                satisfied,
                records.len()
            ));
            report.add_section(format!("{} — {label} (sampled scatter)", wl.label), t);
        }
    }
    report.add_note(
        "Paper: blue dots almost always below y=x (latency) / above y=x (accuracy); \
         infeasible constraints are served best-effort.",
    );
    report
}

/// The three §5.7 comparison points, each as its legend label and the
/// builder setting that makes it: No-SUSHI is the board without its PB,
/// SUSHI w/o Sched caches state-unaware, SUSHI is the default.
type Baseline = (&'static str, fn(EngineBuilder) -> EngineBuilder);

const NO_SUSHI: Baseline = ("No-Sushi", |b| b.accel_config(zcu104().without_pb()));
const SUSHI_NO_SCHED: Baseline =
    ("Sushi w/o Sch", |b| b.cache_selection(CacheSelection::FollowLast));
const SUSHI: Baseline = ("Sushi", |b| b);

/// Every run Fig. 16 makes on `wl`, in order: the three baselines under
/// strict accuracy, then No-SUSHI and SUSHI under strict latency, each
/// with its label. All of them serve one stream, drawn from ZCU104 with
/// its PB, so the baselines differ only in how they serve it.
fn fig16_runs(wl: &Workload, opts: &ExpOptions) -> Vec<(&'static str, Policy, Vec<ServedRecord>)> {
    [
        (NO_SUSHI, Policy::StrictAccuracy),
        (SUSHI_NO_SCHED, Policy::StrictAccuracy),
        (SUSHI, Policy::StrictAccuracy),
        (NO_SUSHI, Policy::StrictLatency),
        (SUSHI, Policy::StrictLatency),
    ]
    .into_iter()
    .map(|((label, baseline), policy)| {
        let records = wl.replay(&zcu104(), 0x16, opts, |b| baseline(b).policy(policy));
        (label, policy, records)
    })
    .collect()
}

/// Fig. 16's numbers for one workload: per baseline under strict
/// accuracy, its label, mean latency (ms) and mean accuracy (%); then
/// SUSHI's mean-latency cut over No-SUSHI at equal accuracy (%), and its
/// mean-accuracy gain over No-SUSHI at equal latency budgets (percentage
/// points).
fn fig16_for(wl: &Workload, opts: &ExpOptions) -> (Vec<(&'static str, f64, f64)>, f64, f64) {
    let means: Vec<(&'static str, f64, f64)> = fig16_runs(wl, opts)
        .into_iter()
        .map(|(label, _, records)| {
            let s = summarize(&records);
            (label, s.mean_latency_ms, s.mean_accuracy * 100.0)
        })
        .collect();
    (means[..3].to_vec(), reduction_pct(means[0].1, means[2].1), means[4].2 - means[3].2)
}

/// Fig. 16: No-SUSHI vs SUSHI-w/o-Sched vs SUSHI on random queries.
#[must_use]
pub fn fig16(opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("fig16", "End-to-end latency/accuracy tradeoff across serving variants");
    for wl in crate::experiments::common::both_workloads() {
        let (rows, latency_cut, accuracy_gain) = fig16_for(&wl, opts);
        let mut t = TextTable::new(vec!["variant", "mean latency (ms)", "mean accuracy (%)"]);
        for (label, l, a) in &rows {
            t.push_row(vec![(*label).to_string(), fmt_f(*l, 3), fmt_f(*a, 2)]);
        }
        report.add_note(format!(
            "{}: SUSHI cuts mean latency by {} at equal accuracy; at equal latency budgets it \
             serves +{:.2}% accuracy",
            wl.label,
            fmt_pct(latency_cut),
            accuracy_gain
        ));
        report.add_section(format!("{} variants", wl.label), t);
    }
    report.add_note(
        "Paper: 21% (ResNet50) / 25% (MobV3) average latency reduction at the same accuracy, \
         and up to 0.98% higher served accuracy for the same latency.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::{both_workloads, mobv3_workload};

    fn satisfied_fraction(policy: Policy) -> Vec<(&'static str, f64)> {
        both_workloads()
            .iter()
            .map(|wl| {
                let runs = fig15_for(wl, &ExpOptions::quick());
                let (_, records, satisfied) = runs.iter().find(|(p, _, _)| *p == policy).unwrap();
                (wl.label, *satisfied as f64 / records.len() as f64)
            })
            .collect()
    }

    #[test]
    fn fig15_strict_accuracy_is_always_met() {
        for (model, f) in satisfied_fraction(Policy::StrictAccuracy) {
            assert_eq!(f, 1.0, "{model}");
        }
    }

    #[test]
    fn fig15_strict_latency_mostly_met() {
        for (model, f) in satisfied_fraction(Policy::StrictLatency) {
            assert!(f > 0.85, "{model}: only {f} satisfied");
        }
    }

    #[test]
    fn fig16_sushi_beats_no_sushi() {
        for wl in both_workloads() {
            let (rows, _, _) = fig16_for(&wl, &ExpOptions::quick());
            let (no_sushi, sushi) = (rows[0].1, rows[2].1);
            assert!(sushi < no_sushi, "{}: {sushi} !< {no_sushi}", wl.label);
        }
    }

    #[test]
    fn fig16_full_sushi_at_least_matches_state_unaware() {
        for wl in both_workloads() {
            let (rows, _, _) = fig16_for(&wl, &ExpOptions::quick());
            let (no_sched, sushi) = (rows[1].1, rows[2].1);
            assert!(sushi <= no_sched * 1.02, "{}: {sushi} vs {no_sched}", wl.label);
        }
    }

    /// The latency cut compares variants only if they all serve the same
    /// queries, drawn from the board with its PB even for No-SUSHI.
    #[test]
    fn fig16_every_run_serves_one_stream_from_the_pb_board() {
        let opts = ExpOptions::quick();
        for wl in both_workloads() {
            let expected = wl.stream(&zcu104(), 0x16, &opts);
            assert_ne!(expected, wl.stream(&zcu104().without_pb(), 0x16, &opts), "{}", wl.label);
            let runs = fig16_runs(&wl, &opts);
            assert_eq!(runs.len(), 5);
            for (label, policy, records) in runs {
                let queries: Vec<_> = records.iter().map(|r| r.query).collect();
                assert_eq!(queries, expected, "{} {label} {policy:?}", wl.label);
            }
        }
    }

    /// Fig. 16's rows carry the paper's legend labels, in legend order.
    #[test]
    fn fig16_rows_carry_the_legend_labels() {
        let (rows, _, _) = fig16_for(&mobv3_workload(), &ExpOptions::quick());
        let labels: Vec<_> = rows.iter().map(|r| r.0).collect();
        assert_eq!(labels, ["No-Sushi", "Sushi w/o Sch", "Sushi"]);
    }
}
