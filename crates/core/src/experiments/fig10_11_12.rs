//! Fig. 10 (latency breakdown w/ and w/o PB), Fig. 11 (SGS roofline) and
//! Fig. 12 (design-space exploration).

use sushi_accel::config::roofline_system;
use sushi_accel::dse::{sweep, DseGrid};
use sushi_accel::exec::price_query;
use sushi_accel::roofline::{ridge_point, subnet_roofline, RooflinePoint};
use sushi_accel::CycleBreakdown;

use crate::experiments::common::{by_scale, span, ExpOptions, Workload};
use crate::metrics::reduction_pct;
use crate::report::{fmt_f, ExpReport, TextTable};

fn breakdown_ms(cfg: &sushi_accel::AccelConfig, c: &CycleBreakdown) -> [f64; 6] {
    [c.compute, c.offchip_iact, c.offchip_weights, c.onchip_weights, c.offchip_oact, c.total()]
        .map(|cycles| cfg.cycles_to_ms(cycles))
}

/// Fig. 10's numbers for one workload: per pick, its latency breakdown
/// (ms, in the [`breakdown_ms`] order) without and with the shared
/// SubGraph in the PB; then the `[lo, hi]` range of the total-latency
/// reduction (%).
fn fig10_for(wl: &Workload) -> (Vec<[[f64; 6]; 2]>, (f64, f64)) {
    let cfg = roofline_system();
    let cached = wl.shared_in_pb(&cfg);
    let bars: Vec<[[f64; 6]; 2]> = wl
        .picks
        .iter()
        .map(|sn| {
            [None, Some(&cached)]
                .map(|pb| breakdown_ms(&cfg, &price_query(&cfg, &wl.net, sn, pb).cycles))
        })
        .collect();
    let reduction = span(bars.iter().map(|[cold, warm]| reduction_pct(cold[5], warm[5])));
    (bars, reduction)
}

/// Fig. 10: potential latency reduction with SGS.
#[must_use]
pub fn fig10(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "fig10",
        "Latency breakdown per SubNet, w/o PB vs w/ PB (shared SubGraph cached)",
    );
    for wl in crate::experiments::common::both_workloads() {
        let (bars, (lo, hi)) = fig10_for(&wl);
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
        for (sn, bars) in wl.picks.iter().zip(&bars) {
            for (tag, b) in ["w/o", "w/"].iter().zip(bars) {
                let mut row = vec![sn.name.clone(), (*tag).to_string()];
                row.extend(b.iter().map(|&ms| fmt_f(ms, 3)));
                row.push(fmt_f(sn.accuracy_pct(), 2));
                t.push_row(row);
            }
        }
        report.add_section(format!("{} latency breakdown", wl.label), t);
        report.add_note(format!(
            "{}: SGS reduces per-query latency by [{:.1}%, {:.1}%] across the Pareto picks",
            wl.label, lo, hi
        ));
    }
    report.add_note("Paper: reductions of [5.7%, 7.92%] for ResNet50 and [6%, 23.6%] for MobV3.");
    report
}

/// Per pick of `wl`, its roofline point without and with the shared
/// SubGraph in the PB.
fn fig11_points(wl: &Workload) -> Vec<[RooflinePoint; 2]> {
    let cfg = roofline_system();
    let cached = wl.shared_in_pb(&cfg);
    wl.picks
        .iter()
        .map(|sn| [None, Some(&cached)].map(|pb| subnet_roofline(&cfg, &wl.net, sn, pb)))
        .collect()
}

/// Fig. 11: roofline points per SubNet without and with SGS.
#[must_use]
pub fn fig11(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig11", "SGS pushes SubNets toward the compute-bound region");
    report.add_note(format!("ridge point: {:.1} FLOPs/Byte", ridge_point(&roofline_system())));
    for wl in crate::experiments::common::both_workloads() {
        let mut t = TextTable::new(vec![
            "SubNet",
            "AI base",
            "AI SGS",
            "TFLOPS base",
            "TFLOPS SGS",
            "bound SGS",
        ]);
        for (sn, [base, sgs]) in wl.picks.iter().zip(fig11_points(&wl)) {
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
    let quick = DseGrid {
        pb_bytes: vec![512 << 10, 1728 << 10, 4096 << 10],
        bw_gbps: vec![9.6, 19.2],
        geometries: vec![(16, 18), (32, 36)],
    };
    let grid = by_scale(opts, quick, DseGrid::paper_grid());
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
        for wl in crate::experiments::common::both_workloads() {
            let (_, (lo, hi)) = fig10_for(&wl);
            assert!(lo >= 0.0 && lo <= hi, "{}: [{lo}%, {hi}%]", wl.label);
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
        for wl in crate::experiments::common::both_workloads() {
            for (sn, [base, sgs]) in wl.picks.iter().zip(fig11_points(&wl)) {
                assert!(sgs.ai > base.ai, "{} {}: {} !> {}", wl.label, sn.name, sgs.ai, base.ai);
            }
        }
    }

    #[test]
    fn fig12_quick_grid_runs() {
        let r = fig12(&ExpOptions::quick());
        assert_eq!(r.sections.len(), 2);
        assert_eq!(r.sections[0].1.num_rows(), 3 * 2 * 2);
    }
}
