//! Table 5 (latency gain vs table size), Table 6 (lookup latency) and the
//! Appendix A.4 cache-hit-ratio measurement.

use std::time::Instant;

use sushi_sched::candidates::build_candidate_set;
use sushi_sched::{CacheSelection, Policy};
use sushi_wsnet::NetVector;

use crate::experiments::common::{by_scale, ExpOptions, Workload};
use crate::metrics::{reduction_pct, summarize};
use crate::report::{fmt_f, ExpReport, TextTable};
use crate::variants::build_table;

/// Table 5's numbers for one workload: the baseline mean latency (ms) of
/// state-unaware caching over `opts.candidates` columns, then per table
/// size the mean latency (ms) of full SUSHI over that many columns.
fn tab5_for(wl: &Workload, opts: &ExpOptions) -> (f64, Vec<(usize, f64)>) {
    let sizes: &[usize] = by_scale(opts, &[10, 40, 100], &[10, 40, 80, 100, 500]);
    let zcu = sushi_accel::config::zcu104();
    let max_cols = *sizes.last().unwrap();
    let candidates =
        build_candidate_set(&wl.net, &wl.picks, zcu.buffers.pb_bytes, max_cols, opts.seed);
    let run = |n: usize, selection| {
        let set = candidates[..n.min(candidates.len())].to_vec();
        let records =
            wl.replay(&zcu, 0x5, opts, |b| b.candidate_set(set).cache_selection(selection));
        summarize(&records).mean_latency_ms
    };
    let base = run(opts.candidates, CacheSelection::FollowLast);
    (base, sizes.iter().map(|&n| (n, run(n, CacheSelection::MinDistanceToAvg))).collect())
}

/// Table 5: average latency improvement (vs SUSHI w/o scheduler) as the
/// candidate-column count grows.
#[must_use]
pub fn tab5(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "tab5",
        "Latency improvement vs Latency-Table size (normalized to SUSHI w/o scheduler)",
    );
    for wl in crate::experiments::common::both_workloads() {
        let (base, rows) = tab5_for(&wl, opts);
        let mut t = TextTable::new(vec!["columns", "mean latency (ms)", "improvement"]);
        for (n, lat) in rows {
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

/// Mean wall-clock time (µs) of `op` over 2000 calls.
fn mean_us(mut op: impl FnMut(usize) -> usize) -> f64 {
    let iters = 2000;
    let start = Instant::now();
    let sink = (0..iters).fold(0usize, |sink, i| sink.wrapping_add(op(i)));
    std::hint::black_box(sink);
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Per table size, the mean wall-clock time (µs) of one `select` and of
/// one closest-column scan on a ResNet50 latency table with that many
/// columns.
fn tab6_rows(opts: &ExpOptions) -> Vec<(usize, f64, f64)> {
    let wl = crate::experiments::common::resnet50_workload();
    let zcu = sushi_accel::config::zcu104();
    let sizes: &[usize] = by_scale(opts, &[100, 500], &[100, 200, 500, 1000, 2000]);
    let max_cols = *sizes.last().unwrap();
    let full_table = build_table(&wl.net, &wl.picks, &zcu, max_cols, opts.seed);
    let avg = NetVector::encode(&wl.picks[2].graph);
    sizes
        .iter()
        .map(|&n| {
            let table = full_table.with_columns(n);
            let select_us = mean_us(|i| {
                table.select(Policy::StrictAccuracy, 0.78, 10.0, i % table.num_columns())
            });
            let scan_us = mean_us(|_| table.closest_column(&avg));
            (n, select_us, scan_us)
        })
        .collect()
}

/// Table 6: wall-clock lookup latency of the scheduler's critical-path
/// operations (SubNet selection + cache-distance scan) vs column count.
#[must_use]
pub fn tab6(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("tab6", "Latency-table lookup time vs column count");
    let mut t = TextTable::new(vec!["columns", "select (us)", "closest-column scan (us)"]);
    for (n, select_us, scan_us) in tab6_rows(opts) {
        t.push_row(vec![n.to_string(), fmt_f(select_us, 2), fmt_f(scan_us, 2)]);
    }
    report.add_section("lookup latency", t);
    report.add_note(
        "Paper: 2–17 us for 100–2000 columns — under 1/1000 of inference latency, so lookups \
         do not interfere with the query critical path.",
    );
    report
}

/// Full SUSHI's mean cache-hit ratio on `wl` over ZCU104, past the
/// cold-start window before the first cache install.
fn hit_ratio_for(wl: &Workload, opts: &ExpOptions) -> f64 {
    let records = wl.replay(&sushi_accel::config::zcu104(), 0xA4, opts, |b| b);
    summarize(&records[wl.q_window.min(records.len() - 1)..]).mean_hit_ratio
}

/// Appendix A.4: the average cache-hit ratio ‖SNₜ ∩ Gₜ‖₂ / ‖SNₜ‖₂.
#[must_use]
pub fn hit_ratio(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("hit_ratio", "Cache-hit ratio over the query trace (A.4)");
    let mut t = TextTable::new(vec!["model", "mean hit ratio", "paper"]);
    for wl in crate::experiments::common::both_workloads() {
        let paper = if wl.label == "ResNet50" { "66%" } else { "78%" };
        t.push_row(vec![
            wl.label.to_string(),
            format!("{:.1}%", hit_ratio_for(&wl, opts) * 100.0),
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
    use crate::experiments::common::{mobv3_workload, resnet50_workload};

    #[test]
    fn tab5_reports_improvements_for_both_models() {
        let r = tab5(&ExpOptions::quick());
        assert_eq!(r.sections.len(), 2);
        assert_eq!(r.sections[0].1.num_rows(), 3);
    }

    #[test]
    fn tab5_more_columns_never_hurt_much() {
        for wl in crate::experiments::common::both_workloads() {
            let (_, rows) = tab5_for(&wl, &ExpOptions::quick());
            let (first, last) = (rows[0].1, rows[rows.len() - 1].1);
            assert!(last <= first * 1.05, "{}: {last} vs {first}", wl.label);
        }
    }

    #[test]
    fn tab6_lookup_is_fast() {
        for (n, select_us, _) in tab6_rows(&ExpOptions::quick()) {
            assert!(select_us < 1000.0, "{n} columns: lookup too slow: {select_us} us");
        }
    }

    #[test]
    fn hit_ratio_is_substantial_and_higher_for_mobv3() {
        let opts = ExpOptions::quick();
        let r50 = hit_ratio_for(&resnet50_workload(), &opts);
        let mob = hit_ratio_for(&mobv3_workload(), &opts);
        assert!(r50 > 0.2, "ResNet50 hit ratio {r50}");
        assert!(mob > r50, "MobV3 {mob} !> ResNet50 {r50}");
    }
}
