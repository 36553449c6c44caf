//! Ablations beyond the paper's figures, covering these design choices:
//!
//! * `abl_distance` — Algorithm 1's similarity measure: L2 (the paper's
//!   choice) vs cosine distance vs state-unaware caching.
//! * `abl_pb_split` — §5.3.2's buffer competition: sweep the PB's share of
//!   a *fixed* total on-chip budget and serve a real query stream (unlike
//!   Fig. 12, which probes steady-state latency only).
//! * `abl_candidates` — SushiAbs candidate-set construction: uniform
//!   truncations only vs the shape-diverse tilted set.

use std::sync::Arc;

use sushi_sched::CacheSelection;

use crate::engine::EngineBuilder;
use crate::experiments::common::{ExpOptions, Workload};
use crate::metrics::summarize;
use crate::report::{fmt_f, ExpReport, TextTable};
use crate::stream::uniform_stream;
use crate::variants::Variant;

fn run_selection(wl: &Workload, selection: CacheSelection, opts: &ExpOptions) -> (f64, f64) {
    let zcu = sushi_accel::config::zcu104();
    let space = wl.constraint_space(&zcu, opts);
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&wl.net), wl.picks.clone())
        .cache_selection(selection)
        .q_window(wl.q_window)
        .candidates(opts.candidates)
        .seed(opts.seed)
        .build()
        .expect("ablation configuration is valid");
    let queries = uniform_stream(&space, opts.queries, opts.seed ^ 0xAB1);
    let records = engine.serve_stream(&queries).expect("analytical serve");
    let s = summarize(&records);
    (s.mean_latency_ms, s.mean_hit_ratio)
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
        for (name, sel) in [
            ("L2 to AvgNet (Alg. 1)", CacheSelection::MinDistanceToAvg),
            ("cosine to AvgNet", CacheSelection::MinCosineToAvg),
            ("follow-last (unaware)", CacheSelection::FollowLast),
            ("frozen first choice", CacheSelection::Frozen),
        ] {
            let (lat, hit) = run_selection(&wl, sel, opts);
            t.push_row(vec![name.to_string(), fmt_f(lat, 3), fmt_f(hit, 3)]);
        }
        report.add_section(format!("{} selection ablation", wl.label), t);
    }
    report.add_note(
        "L2 keeps scale information (how *much* of each layer is used); cosine only keeps \
         proportions, which can select an undersized cache column.",
    );
    report
}

/// PB-vs-DB partition ablation at a fixed total on-chip budget.
#[must_use]
pub fn abl_pb_split(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "abl_pb_split",
        "Ablation: PB share of a fixed on-chip budget (PB competes with the ping-pong DBs)",
    );
    let base = sushi_accel::config::zcu104();
    let shares: &[f64] = &[0.0, 0.15, 0.30, 0.45, 0.60];
    for wl in crate::experiments::common::both_workloads() {
        let mut t = TextTable::new(vec![
            "PB share",
            "PB (KB)",
            "DB each (KB)",
            "mean latency (ms)",
            "hit ratio",
        ]);
        let weight_pool = base.buffers.pb_bytes + 2 * base.buffers.db_bytes_each; // what PB and DBs split
        for &share in shares {
            let pb = (weight_pool as f64 * share) as u64;
            let cfg = base.with_pb_bytes(pb);
            let space = wl.constraint_space(&cfg, opts);
            let mut engine = wl.engine(
                Variant::Sushi,
                &cfg,
                sushi_sched::Policy::StrictAccuracy,
                wl.q_window,
                opts,
            );
            let queries = uniform_stream(&space, opts.queries, opts.seed ^ 0xAB2);
            let records = engine.serve_stream(&queries).expect("analytical serve");
            let s = summarize(&records);
            t.push_row(vec![
                format!("{:.0}%", share * 100.0),
                (cfg.buffers.pb_bytes / 1024).to_string(),
                (cfg.buffers.db_bytes_each / 1024).to_string(),
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

/// Candidate-set construction ablation: uniform truncations vs the
/// shape-diverse tilted set actually used.
#[must_use]
pub fn abl_candidates(opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "abl_candidates",
        "Ablation: SushiAbs candidate set — uniform truncations vs shape-diverse tilts",
    );
    let zcu = sushi_accel::config::zcu104();
    for wl in crate::experiments::common::both_workloads() {
        let space = wl.constraint_space(&zcu, opts);
        let queries = uniform_stream(&space, opts.queries, opts.seed ^ 0xAB3);
        let mut t =
            TextTable::new(vec!["candidate set", "columns", "mean latency (ms)", "hit ratio"]);
        // Uniform-only: each pick truncated once (bias 0).
        let uniform: Vec<_> = wl
            .picks
            .iter()
            .map(|sn| wl.net.subgraph_to_budget(&sn.graph, zcu.buffers.pb_bytes))
            .collect();
        // Diverse: the default construction (tilts + samples).
        let diverse = sushi_sched::candidates::build_candidate_set(
            &wl.net,
            &wl.picks,
            zcu.buffers.pb_bytes,
            opts.candidates.max(12),
            opts.seed,
        );
        for (name, cands) in [("uniform picks", uniform), ("shape-diverse", diverse)] {
            let cols = cands.len();
            let mut engine = EngineBuilder::new()
                .workload(Arc::clone(&wl.net), wl.picks.clone())
                .candidate_set(cands)
                .q_window(wl.q_window)
                .build()
                .expect("ablation configuration is valid");
            let records = engine.serve_stream(&queries).expect("analytical serve");
            let s = summarize(&records);
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

    #[test]
    fn abl_distance_covers_four_selections() {
        let r = abl_distance(&ExpOptions::quick());
        assert_eq!(r.sections[0].1.num_rows(), 4);
    }

    #[test]
    fn abl_distance_l2_not_worse_than_frozen() {
        let r = abl_distance(&ExpOptions::quick());
        for (name, t) in &r.sections {
            let lat = |row: usize| -> f64 { t.cell(row, 1).unwrap().parse().unwrap() };
            assert!(lat(0) <= lat(3) * 1.02, "{name}: L2 {} vs frozen {}", lat(0), lat(3));
        }
    }

    #[test]
    fn abl_pb_split_zero_share_has_zero_hits() {
        let r = abl_pb_split(&ExpOptions::quick());
        for (_, t) in &r.sections {
            let hit: f64 = t.cell(0, 4).unwrap().parse().unwrap();
            assert_eq!(hit, 0.0);
        }
    }

    #[test]
    fn abl_pb_split_some_pb_beats_none() {
        let r = abl_pb_split(&ExpOptions::quick());
        for (name, t) in &r.sections {
            let lat = |row: usize| -> f64 { t.cell(row, 3).unwrap().parse().unwrap() };
            let best_with_pb = (1..t.num_rows()).map(lat).fold(f64::INFINITY, f64::min);
            assert!(best_with_pb < lat(0), "{name}: no PB share helps");
        }
    }

    #[test]
    fn abl_candidates_diverse_not_worse() {
        let r = abl_candidates(&ExpOptions::quick());
        for (name, t) in &r.sections {
            let uniform: f64 = t.cell(0, 2).unwrap().parse().unwrap();
            let diverse: f64 = t.cell(1, 2).unwrap().parse().unwrap();
            assert!(diverse <= uniform * 1.02, "{name}: diverse {diverse} vs uniform {uniform}");
        }
    }
}
