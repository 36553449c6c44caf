//! Figs. 17–18 (Appendix A.1): temporal analysis of the SubGraph caching
//! window `Q`.
//!
//! Small `Q` reacts fast but pays frequent PB reloads; large `Q` amortizes
//! reloads but works from stale history. The paper finds the sweet spot
//! near Q=4–8 (ResNet50) and Q=10 (MobV3).

use crate::experiments::common::{ExpOptions, Workload};
use crate::metrics::{summarize, StreamSummary};
use crate::report::{fmt_f, ExpReport, TextTable};

/// The windows Fig. 17 sweeps on ResNet50.
const FIG17_WINDOWS: &[usize] = &[1, 2, 4, 8, 10, 20];
/// The windows Fig. 18 sweeps on MobV3.
const FIG18_WINDOWS: &[usize] = &[1, 4, 8, 10, 15];

/// Serves one stream under full SUSHI on ZCU104 once per window: the
/// window, the stream's summary and how many cache updates it enacted.
fn q_sweep(
    wl: &Workload,
    windows: &[usize],
    opts: &ExpOptions,
) -> Vec<(usize, StreamSummary, usize)> {
    let zcu = sushi_accel::config::zcu104();
    windows
        .iter()
        .map(|&q| {
            let records = wl.replay(&zcu, 0x17, opts, |b| b.q_window(q));
            (q, summarize(&records), records.iter().filter(|r| r.cache_updated).count())
        })
        .collect()
}

fn q_table(rows: &[(usize, StreamSummary, usize)]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Q",
        "mean latency (ms)",
        "mean accuracy (%)",
        "hit ratio",
        "cache updates",
    ]);
    for (q, s, updates) in rows {
        t.push_row(vec![
            q.to_string(),
            fmt_f(s.mean_latency_ms, 3),
            fmt_f(s.mean_accuracy * 100.0, 2),
            fmt_f(s.mean_hit_ratio, 3),
            updates.to_string(),
        ]);
    }
    t
}

/// Fig. 17: ResNet50 window sweep (Q ∈ {1, 2, 4, 8, 10, 20}).
#[must_use]
pub fn fig17(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig17", "Temporal analysis of SubGraph caching — ResNet50");
    let wl = crate::experiments::common::resnet50_workload();
    report.add_section("Q sweep", q_table(&q_sweep(&wl, FIG17_WINDOWS, opts)));
    report.add_note(
        "Paper: per-query updates help but cost off-chip fetches; Q=4–8 best; 10+ degrades \
         as temporal locality fades.",
    );
    report
}

/// Fig. 18: MobV3 window sweep (Q ∈ {1, 4, 8, 10, 15}).
#[must_use]
pub fn fig18(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig18", "Temporal analysis of SubGraph caching — MobV3");
    let wl = crate::experiments::common::mobv3_workload();
    report.add_section("Q sweep", q_table(&q_sweep(&wl, FIG18_WINDOWS, opts)));
    report.add_note("Paper: averaging over ~10 queries gives the best tradeoff for MobV3.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::{mobv3_workload, resnet50_workload};

    fn fig17_sweep() -> Vec<(usize, StreamSummary, usize)> {
        q_sweep(&resnet50_workload(), FIG17_WINDOWS, &ExpOptions::quick())
    }

    #[test]
    fn fig17_covers_requested_windows() {
        let r = fig17(&ExpOptions::quick());
        assert_eq!(r.sections[0].1.num_rows(), 6);
    }

    #[test]
    fn fig17_more_frequent_updates_for_smaller_q() {
        let rows = fig17_sweep();
        let updates: Vec<usize> = rows.iter().map(|r| r.2).collect();
        assert!(updates[0] >= updates[updates.len() - 1], "{updates:?}");
    }

    /// Q = 1 reloads the PB after every query and a large Q works from
    /// stale history: on both sweeps the lowest mean latency is at a
    /// window that amortizes reloads.
    #[test]
    fn fig17_fig18_lowest_latency_is_at_some_q_above_1() {
        let opts = ExpOptions::quick();
        for (wl, windows) in
            [(resnet50_workload(), FIG17_WINDOWS), (mobv3_workload(), FIG18_WINDOWS)]
        {
            let rows = q_sweep(&wl, windows, &opts);
            let (best_q, _, _) = rows
                .iter()
                .min_by(|a, b| a.1.mean_latency_ms.total_cmp(&b.1.mean_latency_ms))
                .unwrap();
            let lats: Vec<(usize, f64)> = rows.iter().map(|r| (r.0, r.1.mean_latency_ms)).collect();
            assert!(*best_q > 1, "{}: Q = 1 is fastest: {lats:?}", wl.label);
        }
    }

    #[test]
    fn fig17_accuracy_stays_in_band() {
        for (q, s, _) in fig17_sweep() {
            let acc = s.mean_accuracy * 100.0;
            assert!((75.0..=81.0).contains(&acc), "Q {q}: {acc}%");
        }
    }
}
