//! Tier-1 pins against the committed serving baseline.
//!
//! `quick_scenario_metrics_are_pinned` pins the *static* serving path; the
//! controller-on rows of `BENCH_serve.json` — global ladder, per-tier
//! `multi_tenant` slices, supervised and unsupervised `chaos` — were gated
//! only by CI's `serve_bench --check`. This suite reruns the analytical
//! presets at the baseline's own sizing (`ExpOptions::default()`) and holds
//! every `"adaptive": true` row through the same parser and drift gate the
//! binary uses, so a controller refactor that moves one simulated number
//! fails `cargo test`. (The wall-clock-heavy `scale_functional` rows are
//! static and stay with the binary.)

use sushi::core::experiments::common::ExpOptions;
use sushi::core::metrics::{
    serve_bench_from_json, serve_bench_to_json, serve_regressions, ServeBenchEntry, ServeSummary,
};
use sushi::core::serving::{run_scenario, run_scenario_unsupervised, ServePreset};

/// Same tolerance as `serve_bench`: the `%.6` JSON round-trip, nothing more.
const DRIFT_TOLERANCE: f64 = 1e-6;

fn committed(name: &str) -> String {
    std::fs::read_to_string(format!("{}/{name}", env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|e| panic!("{name} is committed at the repo root: {e}"))
}

#[test]
fn adaptive_rows_match_the_committed_baseline() {
    let baseline: Vec<ServeBenchEntry> = serve_bench_from_json(&committed("BENCH_serve.json"))
        .expect("committed baseline parses")
        .into_iter()
        .filter(|e| e.adaptive)
        .collect();
    assert!(baseline.iter().any(|e| e.tier != "all"), "baseline lost its per-tier rows");
    assert!(baseline.iter().any(|e| e.faults == "unsupervised"), "baseline lost its ablation row");

    let opts = ExpOptions::default();
    let mut current = Vec::new();
    for preset in ServePreset::ALL {
        let workers = preset.default_workers();
        let routing = preset.default_routing().name();
        let faults = if preset == ServePreset::Chaos { "supervised" } else { "none" };
        let row = |tier: &str, faults: &str, summary: &ServeSummary| {
            ServeBenchEntry::from_summary(
                preset.name(),
                true,
                workers,
                routing,
                tier,
                faults,
                summary,
            )
        };
        let result = run_scenario(preset, &opts).expect("preset runs");
        current.push(row("all", faults, &result.summary()));
        if preset == ServePreset::Chaos {
            let unsup = run_scenario_unsupervised(preset, &opts).expect("ablation runs");
            current.push(row("all", "unsupervised", &unsup.summary()));
        }
        // `tiers` is empty unless the run was tenant-tiered; unoccupied
        // tiers have no baseline row.
        for t in &result.adaptation.as_ref().expect("adaptive run carries a trace").tiers {
            let slice = result.tier_summary(t.tier);
            if slice.offered > 0 {
                current.push(row(t.tier.name(), faults, &slice));
            }
        }
    }
    if let Err(drift) = serve_regressions(&current, &baseline, DRIFT_TOLERANCE) {
        panic!("adaptive serving drifted from BENCH_serve.json:\n{drift}");
    }
}

/// Parsing and re-serializing the committed baseline must give back the
/// file byte for byte.
#[test]
fn committed_baselines_round_trip_byte_for_byte() {
    let serve = committed("BENCH_serve.json");
    assert_eq!(serve_bench_to_json(&serve_bench_from_json(&serve).unwrap()), serve);
}
