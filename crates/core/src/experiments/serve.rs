//! `serve`: the event-driven serving runtime under the traffic presets
//! (steady / burst / diurnal / multi-tenant / overload / deadline-mix /
//! failover / scale / chaos).
//!
//! Unlike the §5 replays, this experiment measures *systems* behavior —
//! queueing, batching, drops, tail latency, and (by default) the
//! load-adaptive degradation loop's level walks — on simulated time, so
//! the whole report is deterministic: the same seed produces a
//! bit-identical report on any platform (that invariance is pinned by a
//! test, and the numbers feed the `BENCH_serve.json` regression gate via
//! `serve_bench`).

use crate::experiments::common::ExpOptions;
use crate::metrics::ServeSummary;
use crate::report::{fmt_f, fmt_pct, ExpReport, TextTable};
use crate::serving::{run_scenario, ServePreset};

fn push_summary_row(table: &mut TextTable, label: &str, s: &ServeSummary) {
    table.push_row(vec![
        label.to_string(),
        s.offered.to_string(),
        s.completed.to_string(),
        s.dropped.to_string(),
        fmt_f(s.p50_ms, 3),
        fmt_f(s.p95_ms, 3),
        fmt_f(s.p99_ms, 3),
        fmt_f(s.goodput_qps, 1),
        fmt_pct(100.0 * s.slo_violation_rate),
        fmt_f(s.mean_queue_depth, 2),
        fmt_f(s.mean_batch, 2),
        s.cache_installs.to_string(),
        s.degrades.to_string(),
        s.upgrades.to_string(),
    ]);
}

/// `serve`: scenario presets through the serving runtime.
#[must_use]
pub fn serve(opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("serve", "Serving runtime: traffic presets, SLO and queue accounting");
    let mut table = TextTable::new(vec![
        "scenario", "offered", "done", "drop", "p50ms", "p95ms", "p99ms", "goodput", "SLO viol",
        "q-depth", "batch", "installs", "lvl down", "lvl up",
    ]);
    let mut tenants = TextTable::new(vec![
        "tenant", "tier", "offered", "done", "drop", "p50ms", "p99ms", "goodput", "SLO viol",
    ]);
    for preset in ServePreset::ALL {
        let result = run_scenario(preset, opts)
            .unwrap_or_else(|e| panic!("serving preset {} failed: {e}", preset.name()));
        push_summary_row(&mut table, preset.name(), &result.summary());
        if preset == ServePreset::MultiTenant {
            for (tenant, label) in [(0u32, "AV"), (1u32, "ICU")] {
                let s = result.tenant_summary(tenant);
                // The tier every record of this tenant carries: Standard
                // on a tierless run, the preset mapping on a tiered one.
                let tier = result
                    .served
                    .iter()
                    .find(|q| q.tenant == tenant)
                    .map(|q| q.tier)
                    .or_else(|| {
                        result.dropped.iter().find(|d| d.timed.tenant == tenant).map(|d| d.tier)
                    })
                    .map_or("-", |t| t.name());
                tenants.push_row(vec![
                    label.to_string(),
                    tier.to_string(),
                    s.offered.to_string(),
                    s.completed.to_string(),
                    s.dropped.to_string(),
                    fmt_f(s.p50_ms, 3),
                    fmt_f(s.p99_ms, 3),
                    fmt_f(s.goodput_qps, 1),
                    fmt_pct(100.0 * s.slo_violation_rate),
                ]);
            }
        }
    }
    let sched = if opts.adaptive { "adaptive" } else { "static" };
    report.add_section(
        format!(
            "Traffic presets (MobileNetV3 on ZCU104, {} backend, preset workers, {sched} \
             scheduling)",
            opts.backend
        ),
        table,
    );
    report.add_section("multi_tenant breakdown", tenants);
    report.add_note(
        "Latency is end-to-end (queueing + PB swap + service); drops count as SLO \
         violations. All time is simulated, so this report is bit-identical across \
         runs and platforms for a fixed seed."
            .to_string(),
    );
    report.add_note(
        "Baseline gate: `serve_bench --out BENCH_serve.json` + `git diff` (see docs/SERVING.md)."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_covers_all_presets() {
        let r = serve(&ExpOptions::quick());
        assert_eq!(r.id, "serve");
        let (_, table) = &r.sections[0];
        assert_eq!(table.num_rows(), ServePreset::ALL.len());
        for (i, p) in ServePreset::ALL.iter().enumerate() {
            assert_eq!(table.cell(i, 0), Some(p.name()));
        }
        let (_, tenants) = &r.sections[1];
        assert_eq!(tenants.num_rows(), 2);
    }

    #[test]
    fn serve_report_is_bit_identical_across_runs() {
        let opts = ExpOptions::quick();
        assert_eq!(serve(&opts).render(), serve(&opts).render());
    }
}
