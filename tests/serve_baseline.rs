//! Tier-1 pins against the committed serving baseline.
//!
//! `quick_scenario_metrics_are_pinned` pins the *static* serving path at
//! quick sizing; the committed `BENCH_serve.json` rows were gated only by
//! CI's `serve_bench --check`. This suite rebuilds every analytical preset
//! row — adaptive and static, global ladder, per-tier `multi_tenant`
//! slices, supervised and unsupervised `chaos` — through the same
//! [`preset_bench_rows`] the binary prints, at the baseline's own sizing
//! (`ExpOptions::default()`), and holds them through the same parser and
//! drift gate, so a refactor that moves one simulated number fails
//! `cargo test`. (The wall-clock-heavy `scale_functional` rows stay with
//! the binary.)

use sushi::core::experiments::common::ExpOptions;
use sushi::core::metrics::{serve_bench_from_json, serve_bench_to_json, serve_regressions};
use sushi::core::serving::preset_bench_rows;

/// Same tolerance as `serve_bench`: the `%.6` JSON round-trip, nothing more.
const DRIFT_TOLERANCE: f64 = 1e-6;

fn committed(name: &str) -> String {
    std::fs::read_to_string(format!("{}/{name}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("{name} is committed at the repo root: {e}"))
}

#[test]
fn preset_rows_match_the_committed_baseline() {
    let mut baseline =
        serve_bench_from_json(&committed("BENCH_serve.json")).expect("committed baseline parses");
    baseline.retain(|e| e.scenario != "scale_functional");
    assert!(baseline.iter().any(|e| !e.adaptive), "baseline lost its static rows");
    assert!(baseline.iter().any(|e| e.tier != "all"), "baseline lost its per-tier rows");
    assert!(baseline.iter().any(|e| e.faults == "unsupervised"), "baseline lost its ablation row");

    let current = preset_bench_rows(&ExpOptions::default()).expect("presets run");
    assert_eq!(current.len(), baseline.len(), "every analytical baseline row is rebuilt");
    if let Err(drift) = serve_regressions(&current, &baseline, DRIFT_TOLERANCE) {
        panic!("preset serving drifted from BENCH_serve.json:\n{drift}");
    }
}

/// Parsing and re-serializing the committed baseline must give back the
/// file byte for byte.
#[test]
fn committed_baselines_round_trip_byte_for_byte() {
    let serve = committed("BENCH_serve.json");
    assert_eq!(serve_bench_to_json(&serve_bench_from_json(&serve).unwrap()), serve);
}
