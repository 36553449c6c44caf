//! Roofline analysis and the SGS-roofline (§5.2, Figs. 2 and 11).
//!
//! SGS "virtually improves the overall off-chip bandwidth by saving
//! off-chip data access": caching a SubGraph in the PB removes its bytes
//! from the denominator of arithmetic intensity, pushing points rightward
//! toward (and past) the ridge into compute-bound territory.

use sushi_wsnet::{SubGraph, SubNet, SuperNet};

use crate::config::AccelConfig;
use crate::exec::price_query;

/// Whether a workload point sits left (memory) or right (compute) of the
/// roofline ridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// Attainable throughput limited by off-chip bandwidth.
    MemoryBound,
    /// Attainable throughput limited by peak compute.
    ComputeBound,
}

/// One point on the roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// SubNet (or layer) label.
    pub name: String,
    /// Arithmetic intensity in FLOPs/byte of off-chip traffic.
    pub ai: f64,
    /// Attainable throughput in TFLOPS under the roofline.
    pub attainable_tflops: f64,
    /// Which side of the ridge the point falls on.
    pub bound: Boundedness,
}

/// The ridge point of a configuration: AI at which bandwidth and compute
/// rooflines intersect (FLOPs/byte).
#[must_use]
pub fn ridge_point(config: &AccelConfig) -> f64 {
    config.peak_tflops() * 1e12 / (config.offchip_gbps * config.effective_bw_fraction * 1e9)
}

/// Attainable TFLOPS at arithmetic intensity `ai` under the roofline.
#[must_use]
pub fn attainable_tflops(config: &AccelConfig, ai: f64) -> f64 {
    (ai * config.offchip_gbps * config.effective_bw_fraction * 1e9 / 1e12).min(config.peak_tflops())
}

/// Classifies an AI value against the ridge.
#[must_use]
pub fn classify(config: &AccelConfig, ai: f64) -> Boundedness {
    if ai < ridge_point(config) {
        Boundedness::MemoryBound
    } else {
        Boundedness::ComputeBound
    }
}

/// Per-layer arithmetic-intensity series for a SubNet (Fig. 2). Returns
/// `(layer index within active layers, AI)` pairs over the standalone
/// per-layer traffic (weights + iActs + oActs, no caching).
#[must_use]
pub fn layer_ai_series(net: &SuperNet, subnet: &SubNet) -> Vec<(usize, f64)> {
    net.layers
        .iter()
        .zip(subnet.graph.slices())
        .filter(|(_, s)| !s.is_empty())
        .enumerate()
        .map(|(i, (l, s))| (i, l.arithmetic_intensity(s)))
        .collect()
}

/// Roofline point of an entire SubNet, optionally under a cached SubGraph
/// (the *SGS roofline*, Fig. 11): AI uses the measured off-chip traffic so
/// PB hits raise it.
#[must_use]
pub fn subnet_roofline(
    config: &AccelConfig,
    net: &SuperNet,
    subnet: &SubNet,
    cached: Option<&SubGraph>,
) -> RooflinePoint {
    let report = price_query(config, net, subnet, cached);
    let offchip = report.traffic.offchip_total().max(1);
    let ai = subnet.flops as f64 / offchip as f64;
    RooflinePoint {
        name: subnet.name.clone(),
        ai,
        attainable_tflops: attainable_tflops(config, ai),
        bound: classify(config, ai),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::roofline_system;
    use sushi_wsnet::zoo;

    #[test]
    fn ridge_point_matches_peak_over_bw() {
        let c = roofline_system();
        // 2 * 12960 ops/cy * 100 MHz = 2.592 TFLOPS over 19.2 GB/s = 135 F/B.
        assert!((ridge_point(&c) - 135.0).abs() < 1.0, "{}", ridge_point(&c));
    }

    #[test]
    fn attainable_saturates_at_peak() {
        let c = roofline_system();
        assert!(attainable_tflops(&c, 1e9) <= c.peak_tflops() + 1e-12);
        let low = attainable_tflops(&c, 1.0);
        assert!((low - 19.2e9 / 1e12).abs() < 1e-12);
    }

    #[test]
    fn classification_flips_at_ridge() {
        let c = roofline_system();
        let r = ridge_point(&c);
        assert_eq!(classify(&c, r * 0.5), Boundedness::MemoryBound);
        assert_eq!(classify(&c, r * 2.0), Boundedness::ComputeBound);
    }

    #[test]
    fn later_resnet_layers_have_lower_ai() {
        // Fig. 2's observation: arithmetic intensity drops in latter layers
        // (smaller spatial dims, weight-heavy 1x1s).
        let net = zoo::resnet50_supernet();
        let max = net.materialize("max", &net.max_config()).unwrap();
        let series = layer_ai_series(&net, &max);
        let n = series.len();
        let early: f64 =
            series[1..n / 4].iter().map(|(_, ai)| ai).sum::<f64>() / (n / 4 - 1) as f64;
        let late: f64 =
            series[3 * n / 4..].iter().map(|(_, ai)| ai).sum::<f64>() / (n - 3 * n / 4) as f64;
        assert!(late < early, "late {late} !< early {early}");
    }

    #[test]
    fn sgs_raises_subnet_ai() {
        // Fig. 11: caching the shared SubGraph pushes points toward
        // compute-bound (higher AI).
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let cfg = roofline_system();
        let shared = net.shared_subgraph(&picks);
        let cached = net.subgraph_to_budget(&shared, cfg.buffers.pb_bytes);
        for sn in &picks {
            let base = subnet_roofline(&cfg, &net, sn, None);
            let sgs = subnet_roofline(&cfg, &net, sn, Some(&cached));
            assert!(sgs.ai > base.ai, "{}: {} !> {}", sn.name, sgs.ai, base.ai);
        }
    }

    #[test]
    fn mobv3_has_lower_ai_than_resnet() {
        // §2.2: recent smaller models have lower arithmetic intensity.
        let r50 = zoo::resnet50_supernet();
        let mob = zoo::mobilenet_v3_supernet();
        let cfg = roofline_system();
        let r = subnet_roofline(&cfg, &r50, &zoo::paper_subnets(&r50)[0], None);
        let m = subnet_roofline(&cfg, &mob, &zoo::paper_subnets(&mob)[0], None);
        assert!(m.ai < r.ai, "MobV3 {} !< R50 {}", m.ai, r.ai);
    }
}
