//! Shared helpers for the SUSHI criterion benches.
//!
//! The `experiments` target walks every table and figure of the paper
//! (the root README's experiment map). For each id it prints the
//! regenerated rows once — the same series the paper reports — and then
//! times the regeneration itself so performance regressions in the
//! simulator/scheduler surface in CI.

use std::sync::Once;

use sushi_core::experiments::{run, ExpOptions};
use sushi_core::report::ExpReport;

/// Benchmark-scale experiment options (reduced streams).
#[must_use]
pub fn quick_opts() -> ExpOptions {
    ExpOptions::quick()
}

/// Runs experiment `id` at bench scale, printing its report exactly once
/// per process so `cargo bench` output contains the regenerated rows.
///
/// # Panics
/// Panics if `id` is unknown.
pub fn report_once(id: &str, printer: &Once) -> ExpReport {
    let report = run(id, &quick_opts()).unwrap_or_else(|| panic!("unknown experiment id {id}"));
    printer.call_once(|| {
        println!("\n{}", report.render());
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_once_returns_requested_experiment() {
        let once = Once::new();
        let r = report_once("tab4", &once);
        assert_eq!(r.id, "tab4");
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn report_once_rejects_unknown_id() {
        let once = Once::new();
        let _ = report_once("nope", &once);
    }
}
