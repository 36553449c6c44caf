//! Analytic CPU inference-latency model.
//!
//! Substitutes the paper's Intel i7-10750H (45 W) measurement platform. A
//! sustained-GFLOPS roofline with per-layer dispatch overhead reproduces the
//! relevant *shape*: Fig. 13a needs the accelerator to win by 1.4–3.2×
//! depending on SubNet size, with the CPU comparatively better on small
//! SubNets (overhead-bound) than large ones (throughput-bound).

use sushi_wsnet::{SubNet, SuperNet};

/// CPU latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Display name.
    pub name: String,
    /// Sustained conv throughput in GFLOP/s (int8 GEMM via vector units).
    pub sustained_gflops: f64,
    /// Fixed per-layer dispatch/framework overhead in milliseconds.
    pub per_layer_overhead_ms: f64,
}

impl Default for CpuModel {
    /// Calibrated to an i7-10750H-class mobile CPU running an int8 backend.
    fn default() -> Self {
        Self {
            name: "CPU (i7-10750H)".into(),
            sustained_gflops: 100.0,
            per_layer_overhead_ms: 0.08,
        }
    }
}

impl CpuModel {
    /// End-to-end latency for serving `subnet`, in milliseconds.
    #[must_use]
    pub fn latency_ms(&self, net: &SuperNet, subnet: &SubNet) -> f64 {
        let compute_ms = net
            .layers
            .iter()
            .zip(subnet.graph.slices())
            .filter(|(_, s)| !s.is_empty())
            .map(|(l, s)| l.flops(s) as f64 / (self.sustained_gflops * 1e9) * 1e3)
            .sum::<f64>();
        let overhead_ms = subnet.graph.active_layers() as f64 * self.per_layer_overhead_ms;
        compute_ms + overhead_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_wsnet::zoo;

    #[test]
    fn latency_grows_with_subnet_size() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let cpu = CpuModel::default();
        let lats: Vec<f64> = picks.iter().map(|p| cpu.latency_ms(&net, p)).collect();
        for w in lats.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn resnet50_latency_in_tens_of_ms() {
        // Fig. 13a shows CPU latencies up to ~80 ms for ResNet50 SubNets.
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let cpu = CpuModel::default();
        let max = cpu.latency_ms(&net, &picks[5]);
        assert!(max > 10.0 && max < 150.0, "{max} ms");
    }

    #[test]
    fn overhead_dominates_for_tiny_layers() {
        let net = zoo::toy_supernet();
        let sn = net.materialize("min", &net.min_config()).unwrap();
        let cpu = CpuModel::default();
        let lat = cpu.latency_ms(&net, &sn);
        let pure_overhead = sn.graph.active_layers() as f64 * cpu.per_layer_overhead_ms;
        assert!(lat < 2.0 * pure_overhead, "toy net should be overhead-bound");
    }

    #[test]
    fn faster_cpu_is_faster() {
        let net = zoo::resnet50_supernet();
        let sn = &zoo::paper_subnets(&net)[3];
        let slow = CpuModel { sustained_gflops: 100.0, ..CpuModel::default() };
        let fast = CpuModel { sustained_gflops: 400.0, ..CpuModel::default() };
        assert!(fast.latency_ms(&net, sn) < slow.latency_ms(&net, sn));
    }
}
