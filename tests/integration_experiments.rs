//! Smoke-level integration of the experiment regenerators: every paper
//! table/figure id must run end-to-end (quick scale) and produce non-empty,
//! well-formed output.

use sushi::core::experiments::{run, ExpOptions, EXPERIMENTS};

#[test]
fn every_experiment_id_runs_and_renders() {
    let opts = ExpOptions::quick();
    for &(id, regenerate) in EXPERIMENTS {
        let report = regenerate(&opts);
        assert_eq!(report.id, id);
        assert!(!report.sections.is_empty(), "{id} has no sections");
        let text = report.render();
        assert!(text.contains(&format!("=== {id}")), "{id} render header missing");
        assert!(text.len() > 100, "{id} output suspiciously short");
    }
}

#[test]
fn experiment_outputs_are_deterministic() {
    let opts = ExpOptions::quick();
    for id in ["fig10", "fig16", "tab5", "hit_ratio"] {
        let a = run(id, &opts).unwrap().render();
        let b = run(id, &opts).unwrap().render();
        assert_eq!(a, b, "{id} not reproducible");
    }
}

#[test]
fn quick_and_full_options_differ_only_in_scale() {
    let quick = ExpOptions::quick();
    let full = ExpOptions::default();
    assert!(quick.queries < full.queries);
    assert_eq!(quick.seed, full.seed);
}
