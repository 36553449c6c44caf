//! Fig. 10 (latency breakdown w/ and w/o PB), Fig. 11 (SGS roofline) and
//! Fig. 12 (design-space exploration).

use sushi_accel::dse::{sweep, DseGrid};
use sushi_accel::exec::price_query;
use sushi_accel::roofline::{ridge_point, subnet_roofline};
use sushi_accel::CycleBreakdown;

use crate::experiments::common::{roofline_board, ExpOptions, Workload};
use crate::metrics::reduction_pct;
use crate::report::{fmt_f, ExpReport, TextTable};

fn breakdown_ms(cfg: &sushi_accel::AccelConfig, c: &CycleBreakdown) -> [f64; 6] {
    [
        cfg.cycles_to_ms(c.compute),
        cfg.cycles_to_ms(c.offchip_iact),
        cfg.cycles_to_ms(c.offchip_weights),
        cfg.cycles_to_ms(c.onchip_weights),
        cfg.cycles_to_ms(c.offchip_oact),
        cfg.cycles_to_ms(c.total()),
    ]
}

/// Per-workload Fig. 10 rows: two bars per SubNet (w/o PB, w/ PB with the
/// shared SubGraph cached), decomposed into the five critical-path buckets.
fn fig10_for(wl: &Workload, report: &mut ExpReport) -> (f64, f64) {
    let cfg = roofline_board();
    let shared = wl.net.shared_subgraph(&wl.picks);
    let cached = wl.net.subgraph_to_budget(&shared, cfg.buffers.pb_bytes);
    let mut t = TextTable::new(vec![
        "SubNet",
        "PB",
        "compute",
        "iAct",
        "off-W",
        "on-W",
        "oAct",
        "total(ms)",
        "acc(%)",
    ]);
    let mut min_red = f64::INFINITY;
    let mut max_red = f64::NEG_INFINITY;
    for sn in &wl.picks {
        let cold = price_query(&cfg, &wl.net, sn, None);
        let warm = price_query(&cfg, &wl.net, sn, Some(&cached));
        for (tag, rep) in [("w/o", &cold), ("w/", &warm)] {
            let b = breakdown_ms(&cfg, &rep.cycles);
            t.push_row(vec![
                sn.name.clone(),
                tag.to_string(),
                fmt_f(b[0], 3),
                fmt_f(b[1], 3),
                fmt_f(b[2], 3),
                fmt_f(b[3], 3),
                fmt_f(b[4], 3),
                fmt_f(b[5], 3),
                fmt_f(sn.accuracy_pct(), 2),
            ]);
        }
        let red = reduction_pct(
            cfg.cycles_to_ms(cold.cycles.total()),
            cfg.cycles_to_ms(warm.cycles.total()),
        );
        min_red = min_red.min(red);
        max_red = max_red.max(red);
    }
    report.add_section(format!("{} latency breakdown", wl.label), t);
    (min_red, max_red)
}

/// Fig. 10: potential latency reduction with SGS.
#[must_use]
pub fn fig10(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "fig10",
        "Latency breakdown per SubNet, w/o PB vs w/ PB (shared SubGraph cached)",
    );
    for wl in crate::experiments::common::both_workloads() {
        let (lo, hi) = fig10_for(&wl, &mut report);
        report.add_note(format!(
            "{}: SGS reduces per-query latency by [{:.1}%, {:.1}%] across the Pareto picks",
            wl.label, lo, hi
        ));
    }
    report.add_note("Paper: reductions of [5.7%, 7.92%] for ResNet50 and [6%, 23.6%] for MobV3.");
    report
}

/// Fig. 11: roofline points per SubNet without and with SGS.
#[must_use]
pub fn fig11(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig11", "SGS pushes SubNets toward the compute-bound region");
    let cfg = roofline_board();
    report.add_note(format!("ridge point: {:.1} FLOPs/Byte", ridge_point(&cfg)));
    for wl in crate::experiments::common::both_workloads() {
        let shared = wl.net.shared_subgraph(&wl.picks);
        let cached = wl.net.subgraph_to_budget(&shared, cfg.buffers.pb_bytes);
        let mut t = TextTable::new(vec![
            "SubNet",
            "AI base",
            "AI SGS",
            "TFLOPS base",
            "TFLOPS SGS",
            "bound SGS",
        ]);
        for sn in &wl.picks {
            let base = subnet_roofline(&cfg, &wl.net, sn, None);
            let sgs = subnet_roofline(&cfg, &wl.net, sn, Some(&cached));
            t.push_row(vec![
                sn.name.clone(),
                fmt_f(base.ai, 1),
                fmt_f(sgs.ai, 1),
                fmt_f(base.attainable_tflops, 3),
                fmt_f(sgs.attainable_tflops, 3),
                format!("{:?}", sgs.bound),
            ]);
        }
        report.add_section(format!("{} roofline", wl.label), t);
    }
    report
}

/// Fig. 12: DSE over PB size × bandwidth × throughput; prints Time-Save %.
#[must_use]
pub fn fig12(opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("fig12", "Design-space exploration: latency saved by SGS (Time Save %)");
    let grid = if opts.queries <= ExpOptions::quick().queries {
        DseGrid {
            pb_bytes: vec![512 << 10, 1728 << 10, 4096 << 10],
            bw_gbps: vec![9.6, 19.2],
            geometries: vec![(16, 18), (32, 36)],
        }
    } else {
        DseGrid::paper_grid()
    };
    for wl in crate::experiments::common::both_workloads() {
        let points = sweep(&sushi_accel::config::zcu104(), &wl.net, &wl.picks, &grid);
        let mut t = TextTable::new(vec![
            "PB (MB)",
            "BW (GB/s)",
            "MACs/cy",
            "w/o PB (ms)",
            "w/ PB (ms)",
            "save %",
        ]);
        let mut best = (0.0_f64, String::new());
        for p in &points {
            let save = p.time_save_pct();
            if save > best.0 {
                best = (
                    save,
                    format!("PB={:.2}MB BW={} MACs={}", p.pb_mb, p.bw_gbps, p.macs_per_cycle),
                );
            }
            t.push_row(vec![
                fmt_f(p.pb_mb, 2),
                fmt_f(p.bw_gbps, 1),
                p.macs_per_cycle.to_string(),
                fmt_f(p.latency_wo_pb_ms, 3),
                fmt_f(p.latency_w_pb_ms, 3),
                fmt_f(save, 1),
            ]);
        }
        report.add_note(format!("{}: best point {} saves {:.1}%", wl.label, best.1, best.0));
        report.add_section(format!("{} DSE", wl.label), t);
    }
    report.add_note(
        "Paper: larger PB, more compute and less bandwidth increase the saving; \
         MobV3 improves less than ResNet50 (smaller, depthwise, less reuse).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_reduction_bands_are_positive() {
        let r = fig10(&ExpOptions::quick());
        for wl in ["ResNet50", "MobV3"] {
            let note = r.notes.iter().find(|n| n.starts_with(wl)).unwrap();
            // "...by [lo%, hi%]..." -> lo must be >= 0.
            let lo: f64 = note
                .split('[')
                .nth(1)
                .and_then(|s| s.split('%').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap();
            assert!(lo >= 0.0, "{note}");
        }
    }

    #[test]
    fn fig10_has_two_rows_per_pick() {
        let r = fig10(&ExpOptions::quick());
        assert_eq!(r.sections[0].1.num_rows(), 12); // 6 picks x 2 bars
        assert_eq!(r.sections[1].1.num_rows(), 14); // 7 picks x 2 bars
    }

    #[test]
    fn fig11_ai_increases_with_sgs() {
        let r = fig11(&ExpOptions::quick());
        let t = &r.sections[0].1;
        for row in 0..t.num_rows() {
            let base: f64 = t.cell(row, 1).unwrap().parse().unwrap();
            let sgs: f64 = t.cell(row, 2).unwrap().parse().unwrap();
            assert!(sgs > base, "row {row}: {sgs} !> {base}");
        }
    }

    #[test]
    fn fig12_quick_grid_runs() {
        let r = fig12(&ExpOptions::quick());
        assert_eq!(r.sections.len(), 2);
        assert_eq!(r.sections[0].1.num_rows(), 3 * 2 * 2);
    }
}
