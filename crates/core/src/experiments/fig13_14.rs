//! Fig. 13 (real-board latency and energy) and Fig. 14 (layer-wise
//! comparison against the Xilinx DPU).

use sushi_accel::baselines::{CpuModel, DpuModel};
use sushi_accel::config::{alveo_u50, zcu104};
use sushi_accel::energy::EnergyReport;
use sushi_accel::exec::price_query;
use sushi_accel::timing::layer_timing;
use sushi_wsnet::layer::LayerSlice;

use crate::experiments::common::{span, ExpOptions, Workload};
use crate::metrics::{geomean, reduction_pct};
use crate::report::{fmt_f, ExpReport, TextTable};

/// Steady-state latency of each pick on a board, with the shared SubGraph
/// cached when the board has a PB.
fn board_latencies(cfg: &sushi_accel::AccelConfig, wl: &Workload) -> Vec<f64> {
    let cached = cfg.buffers.has_pb().then(|| wl.shared_in_pb(cfg));
    wl.picks.iter().map(|sn| price_query(cfg, &wl.net, sn, cached.as_ref()).latency_ms).collect()
}

/// Fig. 13a's columns: the CPU, then each board without and with its PB.
/// Each holds its name, the latency (ms) of each pick, and the `[lo, hi]`
/// range of its speedup over the CPU.
fn fig13a_columns(wl: &Workload) -> Vec<(String, Vec<f64>, (f64, f64))> {
    let cpu = CpuModel::default();
    let cpu_lat: Vec<f64> = wl.picks.iter().map(|p| cpu.latency_ms(&wl.net, p)).collect();
    let column = |name: String, latencies: Vec<f64>| {
        let speedup = span(cpu_lat.iter().zip(&latencies).map(|(c, a)| c / a));
        (name, latencies, speedup)
    };
    let mut columns = vec![column("CPU".into(), cpu_lat.clone())];
    for board in [zcu104(), alveo_u50()] {
        let wo = board.without_pb();
        columns.push(column(format!("{} w/o PB", board.name), board_latencies(&wo, wl)));
        columns.push(column(format!("{} w/ PB", board.name), board_latencies(&board, wl)));
    }
    columns
}

/// Fig. 13a: CPU vs ZCU104 / Alveo U50, each w/o and w/ PB, on ResNet50.
#[must_use]
pub fn fig13a(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig13a", "Board latency per ResNet50 SubNet (ms)");
    let wl = crate::experiments::common::resnet50_workload();
    let columns = fig13a_columns(&wl);
    let mut headers = vec!["SubNet".to_string()];
    headers.extend(columns.iter().map(|c| c.0.clone()));
    let mut t = TextTable::new(headers);
    for (i, sn) in wl.picks.iter().enumerate() {
        let mut row = vec![sn.name.clone()];
        row.extend(columns.iter().map(|c| fmt_f(c.1[i], 2)));
        t.push_row(row);
    }
    for (name, _, (lo, hi)) in &columns[1..] {
        report.add_note(format!("{name}: {lo:.2}x – {hi:.2}x speedup over CPU"));
    }
    report.add_section("latency", t);
    report.add_note(
        "Paper: ZCU104 w/ PB 1.87–3.17x over CPU; U50 w/ PB 1.57–2.61x; the U50 \
         underperforms ZCU104 on small SubNets due to datacenter DRAM contention.",
    );
    report
}

/// Per pick of `wl` on ZCU104, the data-access energy without and with the
/// PB, and the `[lo, hi]` range of the off-chip saving (%).
fn fig13b_for(wl: &Workload) -> (Vec<[EnergyReport; 2]>, (f64, f64)) {
    let zcu = zcu104();
    let cached = wl.shared_in_pb(&zcu);
    let zcu_wo = zcu.without_pb();
    let energy: Vec<[EnergyReport; 2]> = wl
        .picks
        .iter()
        .map(|sn| {
            [
                price_query(&zcu_wo, &wl.net, sn, None).energy,
                price_query(&zcu, &wl.net, sn, Some(&cached)).energy,
            ]
        })
        .collect();
    let saving = span(energy.iter().map(|[wo, w]| reduction_pct(wo.offchip_mj, w.offchip_mj)));
    (energy, saving)
}

/// Fig. 13b: off-chip/on-chip access energy per SubNet, w/o vs w/ PB.
#[must_use]
pub fn fig13b(_opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("fig13b", "Data-access energy per SubNet (mJ), w/o PB vs w/ PB");
    for wl in crate::experiments::common::both_workloads() {
        let (energy, (lo, hi)) = fig13b_for(&wl);
        let mut t = TextTable::new(vec![
            "SubNet",
            "off-chip w/o",
            "on-chip w/o",
            "off-chip w/",
            "on-chip w/",
            "off-chip save %",
        ]);
        for (sn, [wo, w]) in wl.picks.iter().zip(&energy) {
            t.push_row(vec![
                sn.name.clone(),
                fmt_f(wo.offchip_mj, 3),
                fmt_f(wo.onchip_mj, 3),
                fmt_f(w.offchip_mj, 3),
                fmt_f(w.onchip_mj, 3),
                fmt_f(reduction_pct(wo.offchip_mj, w.offchip_mj), 1),
            ]);
        }
        report.add_note(format!("{}: off-chip energy saved [{lo:.1}%, {hi:.1}%]", wl.label));
        report.add_section(format!("{} energy", wl.label), t);
    }
    report.add_note(
        "Paper: [14%, 52.6%] off-chip saving for ResNet50 and [43.6%, 78.7%] for MobV3 \
         (MobV3 saves proportionally more: the PB covers a larger fraction of the SubNet).",
    );
    report
}

/// Per layer: its name and its latency (ms) on SushiAccel w/o PB and on
/// the DPU.
type LayerLatencies = Vec<(String, f64, f64)>;

/// Fig. 14's numbers: the [`LayerLatencies`] of each 3×3 conv layer of the
/// ResNet50 min-SubNet, then the geomean speedup over the DPU and the
/// `[lo, hi]` speedup range.
fn fig14_layers() -> (LayerLatencies, f64, (f64, f64)) {
    let wl = crate::experiments::common::resnet50_workload();
    let min_sn = &wl.picks[0];
    let cfg = zcu104().without_pb();
    let dpu = DpuModel::default();
    let empty = LayerSlice::empty();
    let layers: LayerLatencies = wl
        .net
        .layers
        .iter()
        .zip(min_sn.graph.slices())
        // §5.5 considers 3x3 conv layers only.
        .filter(|(_, slice)| !slice.is_empty() && slice.kernel_size == 3)
        .map(|(layer, slice)| {
            let ours = cfg.cycles_to_ms(layer_timing(&cfg, layer, slice, &empty).cycles.total());
            (layer.name.clone(), ours, dpu.layer_latency_ms(layer, slice))
        })
        .collect();
    let speedups: Vec<f64> = layers.iter().map(|(_, ours, theirs)| theirs / ours).collect();
    (layers, geomean(&speedups), span(speedups))
}

/// Fig. 14: layer-wise latency of SushiAccel (w/o PB) vs the Xilinx DPU on
/// the 3×3 convolution layers of the ResNet50 min-SubNet (ZCU104).
#[must_use]
pub fn fig14(_opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("fig14", "SushiAccel w/o PB vs Xilinx DPU, per 3x3 conv layer (ms)");
    let (layers, gm, (lo, hi)) = fig14_layers();
    let mut t = TextTable::new(vec!["layer", "SushiAccel (ms)", "Xilinx DPU (ms)", "speedup"]);
    for (name, ours, theirs) in layers {
        t.push_row(vec![name, fmt_f(ours, 4), fmt_f(theirs, 4), fmt_f(theirs / ours, 2)]);
    }
    report.add_section("per-layer latency", t);
    report.add_note(format!(
        "Geomean speedup {:.1}% over Xilinx DPU (range {lo:.2}x – {hi:.2}x)",
        (gm - 1.0) * 100.0
    ));
    report.add_note("Paper: 0.5–1.95x per layer, 25.1% geomean speedup.");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13a_accelerators_beat_cpu() {
        let wl = crate::experiments::common::resnet50_workload();
        for (name, _, (lo, hi)) in &fig13a_columns(&wl)[1..] {
            assert!(*lo > 1.0, "{name}: {lo}x – {hi}x");
        }
    }

    #[test]
    fn fig13a_pb_never_slower_steady_state() {
        let wl = crate::experiments::common::resnet50_workload();
        // Columns: CPU, Z w/o, Z w/, U w/o, U w/.
        let columns = fig13a_columns(&wl);
        for (z_wo, z_w) in columns[1].1.iter().zip(&columns[2].1) {
            assert!(z_w <= z_wo, "{z_w} !<= {z_wo}");
        }
    }

    #[test]
    fn fig13b_mobv3_saves_larger_fraction_than_resnet() {
        let (_, (r_lo, r_hi)) = fig13b_for(&crate::experiments::common::resnet50_workload());
        let (_, (m_lo, m_hi)) = fig13b_for(&crate::experiments::common::mobv3_workload());
        assert!(m_hi > r_hi, "MobV3 max saving {m_hi}% !> ResNet50 {r_hi}%");
        assert!(r_lo >= 0.0 && m_lo >= 0.0);
    }

    #[test]
    fn fig14_geomean_speedup_in_paper_ballpark() {
        let (_, gm, _) = fig14_layers();
        let pct = (gm - 1.0) * 100.0;
        // Paper: 25.1%. Accept a generous simulator band.
        assert!(pct > 5.0 && pct < 60.0, "geomean {pct}%");
    }

    #[test]
    fn fig14_only_3x3_layers_listed() {
        let (layers, _, _) = fig14_layers();
        assert!(layers.len() >= 8, "min SubNet has at least 8 3x3 convs");
        for (name, _, _) in &layers {
            assert!(name.contains("conv2"), "unexpected layer {name}");
        }
    }
}
