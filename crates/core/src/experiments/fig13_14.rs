//! Fig. 13 (real-board latency and energy) and Fig. 14 (layer-wise
//! comparison against the Xilinx DPU).

use sushi_accel::baselines::{CpuModel, DpuModel};
use sushi_accel::exec::price_query;
use sushi_accel::timing::layer_timing;
use sushi_wsnet::layer::LayerSlice;

use crate::experiments::common::{boards, ExpOptions, Workload};
use crate::metrics::{geomean, reduction_pct};
use crate::report::{fmt_f, ExpReport, TextTable};

/// Steady-state latency of each pick on a board, with the shared SubGraph
/// cached when the board has a PB.
fn board_latencies(cfg: &sushi_accel::AccelConfig, wl: &Workload) -> Vec<f64> {
    let cached = cfg.buffers.has_pb().then(|| {
        let shared = wl.net.shared_subgraph(&wl.picks);
        wl.net.subgraph_to_budget(&shared, cfg.buffers.pb_bytes)
    });
    wl.picks.iter().map(|sn| price_query(cfg, &wl.net, sn, cached.as_ref()).latency_ms).collect()
}

/// Fig. 13a: CPU vs ZCU104 / Alveo U50, each w/o and w/ PB, on ResNet50.
#[must_use]
pub fn fig13a(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig13a", "Board latency per ResNet50 SubNet (ms)");
    let wl = crate::experiments::common::resnet50_workload();
    let cpu = CpuModel::default();
    let cpu_lat: Vec<f64> = wl.picks.iter().map(|p| cpu.latency_ms(&wl.net, p)).collect();
    let mut columns: Vec<(String, Vec<f64>)> = vec![("CPU".into(), cpu_lat)];
    for board in boards() {
        let wo = board.without_pb();
        columns.push((format!("{} w/o PB", board.name), board_latencies(&wo, &wl)));
        columns.push((format!("{} w/ PB", board.name), board_latencies(&board, &wl)));
    }
    let mut headers = vec!["SubNet".to_string()];
    headers.extend(columns.iter().map(|(n, _)| n.clone()));
    let mut t = TextTable::new(headers);
    for (i, sn) in wl.picks.iter().enumerate() {
        let mut row = vec![sn.name.clone()];
        row.extend(columns.iter().map(|(_, lats)| fmt_f(lats[i], 2)));
        t.push_row(row);
    }
    // Speedup summaries vs CPU.
    let cpu_col = &columns[0].1;
    for (name, lats) in &columns[1..] {
        let speedups: Vec<f64> = cpu_col.iter().zip(lats).map(|(c, a)| c / a).collect();
        let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        report.add_note(format!("{name}: {lo:.2}x – {hi:.2}x speedup over CPU"));
    }
    report.add_section("latency", t);
    report.add_note(
        "Paper: ZCU104 w/ PB 1.87–3.17x over CPU; U50 w/ PB 1.57–2.61x; the U50 \
         underperforms ZCU104 on small SubNets due to datacenter DRAM contention.",
    );
    report
}

/// Fig. 13b: off-chip/on-chip access energy per SubNet, w/o vs w/ PB.
#[must_use]
pub fn fig13b(_opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("fig13b", "Data-access energy per SubNet (mJ), w/o PB vs w/ PB");
    let zcu = sushi_accel::config::zcu104();
    for wl in crate::experiments::common::both_workloads() {
        let shared = wl.net.shared_subgraph(&wl.picks);
        let cached = wl.net.subgraph_to_budget(&shared, zcu.buffers.pb_bytes);
        let zcu_wo = zcu.without_pb();
        let mut t = TextTable::new(vec![
            "SubNet",
            "off-chip w/o",
            "on-chip w/o",
            "off-chip w/",
            "on-chip w/",
            "off-chip save %",
        ]);
        let mut saves = Vec::new();
        for sn in &wl.picks {
            let wo = price_query(&zcu_wo, &wl.net, sn, None);
            let w = price_query(&zcu, &wl.net, sn, Some(&cached));
            let save = reduction_pct(wo.energy.offchip_mj, w.energy.offchip_mj);
            saves.push(save);
            t.push_row(vec![
                sn.name.clone(),
                fmt_f(wo.energy.offchip_mj, 3),
                fmt_f(wo.energy.onchip_mj, 3),
                fmt_f(w.energy.offchip_mj, 3),
                fmt_f(w.energy.onchip_mj, 3),
                fmt_f(save, 1),
            ]);
        }
        let lo = saves.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = saves.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        report.add_note(format!("{}: off-chip energy saved [{lo:.1}%, {hi:.1}%]", wl.label));
        report.add_section(format!("{} energy", wl.label), t);
    }
    report.add_note(
        "Paper: [14%, 52.6%] off-chip saving for ResNet50 and [43.6%, 78.7%] for MobV3 \
         (MobV3 saves proportionally more: the PB covers a larger fraction of the SubNet).",
    );
    report
}

/// Fig. 14: layer-wise latency of SushiAccel (w/o PB) vs the Xilinx DPU on
/// the 3×3 convolution layers of the ResNet50 min-SubNet (ZCU104).
#[must_use]
pub fn fig14(_opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("fig14", "SushiAccel w/o PB vs Xilinx DPU, per 3x3 conv layer (ms)");
    let wl = crate::experiments::common::resnet50_workload();
    let min_sn = &wl.picks[0];
    let cfg = sushi_accel::config::zcu104().without_pb();
    let dpu = DpuModel::default();
    let empty = LayerSlice::empty();
    let mut t = TextTable::new(vec!["layer", "SushiAccel (ms)", "Xilinx DPU (ms)", "speedup"]);
    let mut speedups = Vec::new();
    for (layer, slice) in wl.net.layers.iter().zip(min_sn.graph.slices()) {
        if slice.is_empty() || slice.kernel_size != 3 {
            continue; // §5.5 considers 3x3 conv layers only
        }
        let ours = cfg.cycles_to_ms(layer_timing(&cfg, layer, slice, &empty).cycles.total());
        let theirs = dpu.layer_latency_ms(layer, slice);
        let speedup = theirs / ours;
        speedups.push(speedup);
        t.push_row(vec![layer.name.clone(), fmt_f(ours, 4), fmt_f(theirs, 4), fmt_f(speedup, 2)]);
    }
    let gm = geomean(&speedups);
    report.add_section("per-layer latency", t);
    report.add_note(format!(
        "Geomean speedup {:.1}% over Xilinx DPU (range {:.2}x – {:.2}x)",
        (gm - 1.0) * 100.0,
        speedups.iter().copied().fold(f64::INFINITY, f64::min),
        speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ));
    report.add_note("Paper: 0.5–1.95x per layer, 25.1% geomean speedup.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13a_accelerators_beat_cpu() {
        let r = fig13a(&ExpOptions::quick());
        for note in r.notes.iter().filter(|n| n.contains("speedup over CPU")) {
            let lo: f64 = note
                .split(": ")
                .nth(1)
                .and_then(|s| s.split('x').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap();
            assert!(lo > 1.0, "{note}");
        }
    }

    #[test]
    fn fig13a_pb_never_slower_steady_state() {
        let r = fig13a(&ExpOptions::quick());
        let t = &r.sections[0].1;
        for row in 0..t.num_rows() {
            // Columns: SubNet, CPU, Z w/o, Z w/, U w/o, U w/.
            let z_wo: f64 = t.cell(row, 2).unwrap().parse().unwrap();
            let z_w: f64 = t.cell(row, 3).unwrap().parse().unwrap();
            assert!(z_w <= z_wo + 1e-9);
        }
    }

    #[test]
    fn fig13b_mobv3_saves_larger_fraction_than_resnet() {
        let r = fig13b(&ExpOptions::quick());
        let span = |label: &str| -> (f64, f64) {
            let note = r.notes.iter().find(|n| n.starts_with(label)).unwrap();
            let inner = note.split('[').nth(1).unwrap();
            let lo: f64 = inner.split('%').next().unwrap().trim().parse().unwrap();
            let hi: f64 = inner
                .split(", ")
                .nth(1)
                .unwrap()
                .split('%')
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            (lo, hi)
        };
        let (r_lo, r_hi) = span("ResNet50");
        let (m_lo, m_hi) = span("MobV3");
        assert!(m_hi > r_hi, "MobV3 max saving {m_hi}% !> ResNet50 {r_hi}%");
        assert!(r_lo >= 0.0 && m_lo >= 0.0);
    }

    #[test]
    fn fig14_geomean_speedup_in_paper_ballpark() {
        let r = fig14(&ExpOptions::quick());
        let note = r.notes.iter().find(|n| n.contains("Geomean")).unwrap();
        let gm: f64 = note
            .split("speedup ")
            .nth(1)
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap();
        // Paper: 25.1%. Accept a generous simulator band.
        assert!(gm > 5.0 && gm < 60.0, "geomean {gm}%");
    }

    #[test]
    fn fig14_only_3x3_layers_listed() {
        let r = fig14(&ExpOptions::quick());
        let t = &r.sections[0].1;
        assert!(t.num_rows() >= 8, "min SubNet has at least 8 3x3 convs");
        for row in 0..t.num_rows() {
            let name = t.cell(row, 0).unwrap();
            assert!(name.contains("conv2"), "unexpected layer {name}");
        }
    }
}
