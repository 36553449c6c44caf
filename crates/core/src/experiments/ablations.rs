//! Ablations beyond the paper's figures, covering these design choices:
//!
//! * `abl_distance` — Algorithm 1's similarity measure: L2 (the paper's
//!   choice) vs cosine distance vs state-unaware caching.
//! * `abl_pb_split` — §5.3.2's buffer competition: sweep the PB's share of
//!   a *fixed* total on-chip budget and serve a real query stream (unlike
//!   Fig. 12, which probes steady-state latency only).
//! * `abl_candidates` — SushiAbs candidate-set construction: uniform
//!   truncations only vs the shape-diverse tilted set.

use sushi_accel::config::zcu104;
use sushi_accel::BufferConfig;
use sushi_sched::CacheSelection;

use crate::experiments::common::{ExpOptions, Workload};
use crate::metrics::{summarize, StreamSummary};
use crate::report::{fmt_f, ExpReport, TextTable};

/// Per cache-selection measure, full SUSHI's summary on `wl` over ZCU104.
fn abl_distance_for(wl: &Workload, opts: &ExpOptions) -> Vec<(&'static str, StreamSummary)> {
    [
        ("L2 to AvgNet (Alg. 1)", CacheSelection::MinDistanceToAvg),
        ("cosine to AvgNet", CacheSelection::MinCosineToAvg),
        ("follow-last (unaware)", CacheSelection::FollowLast),
        ("frozen first choice", CacheSelection::Frozen),
    ]
    .into_iter()
    .map(|(name, sel)| {
        (name, summarize(&wl.replay(&zcu104(), 0xAB1, opts, |b| b.cache_selection(sel))))
    })
    .collect()
}

/// Distance-measure ablation for the caching decision.
#[must_use]
pub fn abl_distance(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "abl_distance",
        "Ablation: cache-selection similarity measure (L2 vs cosine vs state-unaware)",
    );
    for wl in crate::experiments::common::both_workloads() {
        let mut t = TextTable::new(vec!["selection", "mean latency (ms)", "hit ratio"]);
        for (name, s) in abl_distance_for(&wl, opts) {
            t.push_row(vec![
                name.to_string(),
                fmt_f(s.mean_latency_ms, 3),
                fmt_f(s.mean_hit_ratio, 3),
            ]);
        }
        report.add_section(format!("{} selection ablation", wl.label), t);
    }
    report.add_note(
        "L2 keeps scale information (how *much* of each layer is used); cosine only keeps \
         proportions, which can select an undersized cache column.",
    );
    report
}

/// Per PB share of ZCU104's weight buffers (PB plus both DBs), the
/// resulting buffer split and full SUSHI's summary on `wl` with it.
fn pb_split_for(wl: &Workload, opts: &ExpOptions) -> Vec<(f64, BufferConfig, StreamSummary)> {
    let base = zcu104();
    let weight_pool = base.buffers.pb_bytes + 2 * base.buffers.db_bytes_each; // what PB and DBs split
    [0.0, 0.15, 0.30, 0.45, 0.60]
        .into_iter()
        .map(|share| {
            let cfg = base.with_pb_bytes((weight_pool as f64 * share) as u64);
            let s = summarize(&wl.replay(&cfg, 0xAB2, opts, |b| b));
            (share, cfg.buffers, s)
        })
        .collect()
}

/// PB-vs-DB partition ablation at a fixed total on-chip budget.
#[must_use]
pub fn abl_pb_split(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "abl_pb_split",
        "Ablation: PB share of a fixed on-chip budget (PB competes with the ping-pong DBs)",
    );
    for wl in crate::experiments::common::both_workloads() {
        let mut t = TextTable::new(vec![
            "PB share",
            "PB (KB)",
            "DB each (KB)",
            "mean latency (ms)",
            "hit ratio",
        ]);
        for (share, buffers, s) in pb_split_for(&wl, opts) {
            t.push_row(vec![
                format!("{:.0}%", share * 100.0),
                (buffers.pb_bytes / 1024).to_string(),
                (buffers.db_bytes_each / 1024).to_string(),
                fmt_f(s.mean_latency_ms, 3),
                fmt_f(s.mean_hit_ratio, 3),
            ]);
        }
        report.add_section(format!("{} PB/DB split", wl.label), t);
    }
    report.add_note(
        "Too little PB wastes the SGS opportunity; too much shrinks the DBs, forcing more \
         weight tiles per layer — the §5.3.2 balance.",
    );
    report
}

/// Per candidate set, its column count and full SUSHI's summary on `wl`
/// over ZCU104 with it: each pick truncated to the PB once, then the
/// shape-diverse set (tilts + samples) serving uses.
fn abl_candidates_for(
    wl: &Workload,
    opts: &ExpOptions,
) -> Vec<(&'static str, usize, StreamSummary)> {
    let zcu = zcu104();
    let pb = zcu.buffers.pb_bytes;
    let uniform: Vec<_> =
        wl.picks.iter().map(|sn| wl.net.subgraph_to_budget(&sn.graph, pb)).collect();
    let diverse = sushi_sched::candidates::build_candidate_set(
        &wl.net,
        &wl.picks,
        pb,
        opts.candidates.max(12),
        opts.seed,
    );
    [("uniform picks", uniform), ("shape-diverse", diverse)]
        .into_iter()
        .map(|(name, cands)| {
            let cols = cands.len();
            (name, cols, summarize(&wl.replay(&zcu, 0xAB3, opts, |b| b.candidate_set(cands))))
        })
        .collect()
}

/// Candidate-set construction ablation: uniform truncations vs the
/// shape-diverse tilted set actually used.
#[must_use]
pub fn abl_candidates(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "abl_candidates",
        "Ablation: SushiAbs candidate set — uniform truncations vs shape-diverse tilts",
    );
    for wl in crate::experiments::common::both_workloads() {
        let mut t =
            TextTable::new(vec!["candidate set", "columns", "mean latency (ms)", "hit ratio"]);
        for (name, cols, s) in abl_candidates_for(&wl, opts) {
            t.push_row(vec![
                name.to_string(),
                cols.to_string(),
                fmt_f(s.mean_latency_ms, 3),
                fmt_f(s.mean_hit_ratio, 3),
            ]);
        }
        report.add_section(format!("{} candidate sets", wl.label), t);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::both_workloads;

    #[test]
    fn abl_distance_covers_four_selections() {
        let r = abl_distance(&ExpOptions::quick());
        assert_eq!(r.sections[0].1.num_rows(), 4);
    }

    #[test]
    fn abl_distance_l2_not_worse_than_frozen() {
        for wl in both_workloads() {
            let rows = abl_distance_for(&wl, &ExpOptions::quick());
            let (l2, frozen) = (rows[0].1.mean_latency_ms, rows[3].1.mean_latency_ms);
            assert!(l2 <= frozen * 1.02, "{}: L2 {l2} vs frozen {frozen}", wl.label);
        }
    }

    #[test]
    fn abl_pb_split_zero_share_has_zero_hits() {
        for wl in both_workloads() {
            let (share, _, s) = &pb_split_for(&wl, &ExpOptions::quick())[0];
            assert_eq!((*share, s.mean_hit_ratio), (0.0, 0.0), "{}", wl.label);
        }
    }

    #[test]
    fn abl_pb_split_some_pb_beats_none() {
        for wl in both_workloads() {
            let rows = pb_split_for(&wl, &ExpOptions::quick());
            let lat = |i: usize| rows[i].2.mean_latency_ms;
            let best_with_pb = (1..rows.len()).map(lat).fold(f64::INFINITY, f64::min);
            assert!(best_with_pb < lat(0), "{}: no PB share helps", wl.label);
        }
    }

    #[test]
    fn abl_candidates_diverse_not_worse() {
        for wl in both_workloads() {
            let rows = abl_candidates_for(&wl, &ExpOptions::quick());
            let (uniform, diverse) = (rows[0].2.mean_latency_ms, rows[1].2.mean_latency_ms);
            assert!(
                diverse <= uniform * 1.02,
                "{}: diverse {diverse} vs uniform {uniform}",
                wl.label
            );
        }
    }
}
