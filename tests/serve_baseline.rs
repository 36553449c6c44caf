//! Tier-1 pin against the committed serving baseline.
//!
//! `quick_scenario_metrics_are_pinned` pins the *static* serving path at
//! quick sizing; CI regenerates all of `BENCH_serve.json` and fails on any
//! `git diff`. This suite renders every analytical preset row — adaptive
//! and static, global ladder, per-tier `multi_tenant` slices, supervised
//! and unsupervised `chaos` — through the same [`preset_bench_rows`] and
//! [`serve_bench_to_json`] the binary writes, at the baseline's own sizing
//! (`ExpOptions::default()`), and compares the text line for line with the
//! committed file, so a refactor that moves one simulated number fails
//! `cargo test`. (The wall-clock-heavy `scale_functional` rows stay with
//! the binary.)

use sushi::core::experiments::common::ExpOptions;
use sushi::core::metrics::serve_bench_to_json;
use sushi::core::serving::preset_bench_rows;

/// A row line without the comma that separates it from the next row.
fn without_comma(line: &str) -> &str {
    line.strip_suffix(',').unwrap_or(line)
}

#[test]
fn preset_rows_match_the_committed_baseline() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_serve.json");
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_serve.json is committed at the repo root: {e}"));
    let rows = preset_bench_rows(&ExpOptions::default()).expect("presets run");
    assert!(rows.iter().any(|e| !e.adaptive), "presets lost their static rows");
    assert!(rows.iter().any(|e| e.tier != "all"), "presets lost their per-tier rows");
    assert!(rows.iter().any(|e| e.faults == "unsupervised"), "presets lost their ablation row");

    let rendered = serve_bench_to_json(&rows);
    let expected: Vec<&str> = committed
        .lines()
        .filter(|l| !l.contains("\"scenario\": \"scale_functional\""))
        .map(without_comma)
        .collect();
    let actual: Vec<&str> = rendered.lines().map(without_comma).collect();
    if let Some((i, (a, e))) = actual.iter().zip(&expected).enumerate().find(|(_, (a, e))| a != e) {
        panic!(
            "preset serving drifted from BENCH_serve.json at compared line {}:\n  \
             rendered:  {a}\n  committed: {e}",
            i + 1
        );
    }
    assert_eq!(actual.len(), expected.len(), "every analytical baseline row is rendered");
}
