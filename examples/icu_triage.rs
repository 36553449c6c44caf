//! ICU patient-triage scenario (§1: "variable number of patients triaged
//! in the ICU or ER", HOLMES-style bedside inference).
//!
//! ```text
//! cargo run --release --example icu_triage
//! ```
//!
//! Stability-score queries arrive in bursts (admission waves). Clinical
//! constraints keep accuracy demands high at all times; during bursts the
//! per-patient latency budget collapses. We compare the three §5.7 serving
//! variants on the same bursty trace and report burst-window SLO
//! attainment. Each variant is a setting of the one builder: No-SUSHI is
//! the board without its PB, SUSHI w/o Sched caches state-unaware, SUSHI
//! is the default.
//!
//! The gain the output shows is the Persistent Buffer's: the No-SUSHI row,
//! the same stack without a PB, meets far fewer in-burst deadlines than
//! the two PB rows. The example also prints how many queries the two
//! caching rules served differently; on this trace that count is 0, so
//! the two PB rows match and the trace shows no gain from state-aware
//! caching.

use sushi::accel::config::zcu104;
use sushi::core::engine::EngineBuilder;
use sushi::core::metrics::summarize;
use sushi::core::stream::icu_burst_stream;
use sushi::sched::{CacheSelection, Policy, Query};

/// A §5.7 variant: its legend label and the builder setting that makes it.
type Baseline = (&'static str, fn(EngineBuilder) -> EngineBuilder);

const VARIANTS: [Baseline; 3] = [
    ("No-Sushi", |b| b.accel_config(zcu104().without_pb())),
    ("Sushi w/o Sch", |b| b.cache_selection(CacheSelection::FollowLast)),
    ("Sushi", |b| b),
];

fn main() {
    // Constraint space from the serving set (a candidate-free PB-less
    // probe, as the comparison baseline sees it).
    let probe = EngineBuilder::new()
        .accel_config(zcu104().without_pb())
        .q_window(10)
        .candidates(0)
        .seed(42)
        .build()
        .expect("probe engine");
    let space = probe.constraint_space();

    // 600 queries; a 12-query burst every 40 queries.
    let trace = icu_burst_stream(&space, 600, 40, 12, 99);
    let queries: Vec<Query> = trace.iter().map(|(_, q)| *q).collect();
    let burst_mask: Vec<bool> = trace.iter().map(|(b, _)| *b).collect();
    println!(
        "ICU trace: {} queries, {} in admission bursts\n",
        queries.len(),
        burst_mask.iter().filter(|&&b| b).count()
    );

    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "variant", "latency(ms)", "accuracy(%)", "SLO all", "SLO in-burst"
    );
    let mut served = Vec::new();
    for (label, setting) in VARIANTS {
        let mut engine = setting(EngineBuilder::new())
            .policy(Policy::StrictLatency)
            .q_window(10)
            .candidates(12)
            .seed(42)
            .build()
            .expect("ICU engine");
        let records = engine.serve_stream(&queries).expect("analytical serve");
        let all = summarize(&records);
        let burst_records: Vec<_> =
            records.iter().zip(&burst_mask).filter(|(_, &b)| b).map(|(r, _)| r.clone()).collect();
        let burst = summarize(&burst_records);
        println!(
            "{:<14} {:>12.3} {:>12.2} {:>13.1}% {:>13.1}%",
            label,
            all.mean_latency_ms,
            all.mean_accuracy * 100.0,
            all.latency_slo_attainment * 100.0,
            burst.latency_slo_attainment * 100.0,
        );
        served.push(records);
    }

    let differing = served[1].iter().zip(&served[2]).filter(|(a, b)| a != b).count();
    println!(
        "\nThe two caching rules served {differing} of {} queries differently.",
        queries.len()
    );
    println!(
        "During bursts every fetched byte counts: the PB keeps a cached SubGraph's \
         weights resident, so more tight per-patient deadlines survive the wave than \
         without it (the No-Sushi row)."
    );
}
