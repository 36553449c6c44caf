//! Table 5 (latency gain vs table size), Table 6 (lookup latency) and the
//! Appendix A.4 cache-hit-ratio measurement.

use std::sync::Arc;
use std::time::Instant;

use sushi_sched::candidates::build_candidate_set;
use sushi_sched::{CacheSelection, Policy};
use sushi_wsnet::{NetVector, SubGraph};

use crate::engine::EngineBuilder;
use crate::experiments::common::{ExpOptions, Workload};
use crate::metrics::{reduction_pct, summarize};
use crate::report::{fmt_f, ExpReport, TextTable};
use crate::stream::uniform_stream;
use crate::variants::{build_table, Variant};

/// Serves a stream on an engine built over the first `n` candidates.
fn run_with_candidates(
    wl: &Workload,
    candidates: &[SubGraph],
    n: usize,
    selection: CacheSelection,
    opts: &ExpOptions,
) -> f64 {
    let zcu = sushi_accel::config::zcu104();
    let space = wl.constraint_space(&zcu, opts);
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&wl.net), wl.picks.clone())
        .candidate_set(candidates[..n.min(candidates.len())].to_vec())
        .cache_selection(selection)
        .q_window(wl.q_window)
        .build()
        .expect("table-sweep configuration is valid");
    let queries = uniform_stream(&space, opts.queries, opts.seed ^ 0x5);
    summarize(&engine.serve_stream(&queries).expect("analytical serve")).mean_latency_ms
}

/// Table 5: average latency improvement (vs SUSHI w/o scheduler) as the
/// candidate-column count grows.
#[must_use]
pub fn tab5(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "tab5",
        "Latency improvement vs Latency-Table size (normalized to SUSHI w/o scheduler)",
    );
    let sizes: &[usize] = if opts.queries <= ExpOptions::quick().queries {
        &[10, 40, 100]
    } else {
        &[10, 40, 80, 100, 500]
    };
    let zcu = sushi_accel::config::zcu104();
    for wl in crate::experiments::common::both_workloads() {
        let max_cols = *sizes.last().unwrap();
        let candidates =
            build_candidate_set(&wl.net, &wl.picks, zcu.buffers.pb_bytes, max_cols, opts.seed);
        let run = |n, selection| run_with_candidates(&wl, &candidates, n, selection, opts);
        // Baseline: state-unaware caching with the small default table.
        let base = run(opts.candidates, CacheSelection::FollowLast);
        let mut t = TextTable::new(vec!["columns", "mean latency (ms)", "improvement"]);
        for &n in sizes {
            let lat = run(n, CacheSelection::MinDistanceToAvg);
            t.push_row(vec![
                n.to_string(),
                fmt_f(lat, 3),
                format!("{:.1}%", reduction_pct(base, lat)),
            ]);
        }
        report.add_section(format!("{} (baseline {:.3} ms)", wl.label, base), t);
    }
    report.add_note(
        "Paper: ResNet50 improves 4% -> 9% and saturates ~100 columns; MobV3 stays ~1% \
         (the PB already covers most of each SubNet).",
    );
    report
}

/// Table 6: wall-clock lookup latency of the scheduler's critical-path
/// operations (SubNet selection + cache-distance scan) vs column count.
#[must_use]
pub fn tab6(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("tab6", "Latency-table lookup time vs column count");
    let wl = crate::experiments::common::resnet50_workload();
    let zcu = sushi_accel::config::zcu104();
    let sizes: &[usize] = if opts.queries <= ExpOptions::quick().queries {
        &[100, 500]
    } else {
        &[100, 200, 500, 1000, 2000]
    };
    let max_cols = *sizes.last().unwrap();
    let full_table = build_table(&wl.net, &wl.picks, &zcu, max_cols, opts.seed);
    let avg = NetVector::encode(&wl.picks[2].graph);
    let mut t = TextTable::new(vec!["columns", "select (us)", "closest-column scan (us)"]);
    for &n in sizes {
        let table = full_table.with_columns(n);
        let iters = 2000u32;
        let start = Instant::now();
        let mut sink = 0usize;
        for i in 0..iters {
            sink = sink.wrapping_add(table.select(
                Policy::StrictAccuracy,
                0.78,
                10.0,
                (i as usize) % table.num_columns(),
            ));
        }
        let select_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
        let start = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(table.closest_column(&avg));
        }
        let scan_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
        std::hint::black_box(sink);
        t.push_row(vec![n.to_string(), fmt_f(select_us, 2), fmt_f(scan_us, 2)]);
    }
    report.add_section("lookup latency", t);
    report.add_note(
        "Paper: 2–17 us for 100–2000 columns — under 1/1000 of inference latency, so lookups \
         do not interfere with the query critical path.",
    );
    report
}

/// Appendix A.4: the average cache-hit ratio ‖SNₜ ∩ Gₜ‖₂ / ‖SNₜ‖₂.
#[must_use]
pub fn hit_ratio(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("hit_ratio", "Cache-hit ratio over the query trace (A.4)");
    let zcu = sushi_accel::config::zcu104();
    let mut t = TextTable::new(vec!["model", "mean hit ratio", "paper"]);
    for wl in crate::experiments::common::both_workloads() {
        let space = wl.constraint_space(&zcu, opts);
        let mut engine = wl.engine(Variant::Sushi, &zcu, Policy::StrictAccuracy, wl.q_window, opts);
        let queries = uniform_stream(&space, opts.queries, opts.seed ^ 0xA4);
        let records = engine.serve_stream(&queries).expect("analytical serve");
        // Skip the cold-start window before the first cache install.
        let warm = &records[wl.q_window.min(records.len() - 1)..];
        let s = summarize(warm);
        let paper = if wl.label == "ResNet50" { "66%" } else { "78%" };
        t.push_row(vec![
            wl.label.to_string(),
            format!("{:.1}%", s.mean_hit_ratio * 100.0),
            paper.to_string(),
        ]);
    }
    report.add_section("hit ratio", t);
    report.add_note(
        "Paper: hit ratio is higher for smaller models — the shared SubGraph is a larger \
         fraction of the served SubNet.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab5_reports_improvements_for_both_models() {
        let r = tab5(&ExpOptions::quick());
        assert_eq!(r.sections.len(), 2);
        assert_eq!(r.sections[0].1.num_rows(), 3);
    }

    #[test]
    fn tab5_more_columns_never_hurt_much() {
        let r = tab5(&ExpOptions::quick());
        for (name, t) in &r.sections {
            let lat = |row: usize| -> f64 { t.cell(row, 1).unwrap().parse().unwrap() };
            let first = lat(0);
            let last = lat(t.num_rows() - 1);
            assert!(last <= first * 1.05, "{name}: {last} vs {first}");
        }
    }

    #[test]
    fn tab6_lookup_is_fast() {
        let r = tab6(&ExpOptions::quick());
        let t = &r.sections[0].1;
        for row in 0..t.num_rows() {
            let select_us: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            assert!(select_us < 1000.0, "lookup too slow: {select_us} us");
        }
    }

    #[test]
    fn hit_ratio_is_substantial_and_higher_for_mobv3() {
        let r = hit_ratio(&ExpOptions::quick());
        let t = &r.sections[0].1;
        let parse =
            |row: usize| -> f64 { t.cell(row, 1).unwrap().trim_end_matches('%').parse().unwrap() };
        let r50 = parse(0);
        let mob = parse(1);
        assert!(r50 > 20.0, "ResNet50 hit ratio {r50}%");
        assert!(mob > r50, "MobV3 {mob}% !> ResNet50 {r50}%");
    }
}
