//! Design-space exploration (§5.3, Fig. 12).
//!
//! Sweeps the three main SushiAccel knobs — Persistent-Buffer size,
//! off-chip bandwidth, and DPE-array throughput — measuring the latency
//! saved by SGS caching ("Time Save %") when serving the paper's Pareto
//! SubNet sequence with the shared SubGraph cached.

use sushi_wsnet::{SubNet, SuperNet};

use crate::config::AccelConfig;
use crate::exec::price_query;

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Persistent-Buffer capacity in MB.
    pub pb_mb: f64,
    /// Off-chip bandwidth in GB/s.
    pub bw_gbps: f64,
    /// DPE-array peak MACs/cycle.
    pub macs_per_cycle: u64,
    /// Mean per-query latency without the PB, in ms.
    pub latency_wo_pb_ms: f64,
    /// Mean per-query latency with the PB (steady-state), in ms.
    pub latency_w_pb_ms: f64,
}

impl DsePoint {
    /// Latency reduction from SGS caching, in percent.
    #[must_use]
    pub fn time_save_pct(&self) -> f64 {
        if self.latency_wo_pb_ms <= 0.0 {
            return 0.0;
        }
        100.0 * (self.latency_wo_pb_ms - self.latency_w_pb_ms) / self.latency_wo_pb_ms
    }
}

/// The swept axes.
#[derive(Debug, Clone, PartialEq)]
pub struct DseGrid {
    /// PB sizes in bytes.
    pub pb_bytes: Vec<u64>,
    /// Off-chip bandwidths in GB/s.
    pub bw_gbps: Vec<f64>,
    /// `(kp, cp)` array geometries.
    pub geometries: Vec<(usize, usize)>,
}

impl DseGrid {
    /// The Fig. 12 exploration grid around the ZCU104 design point.
    #[must_use]
    pub fn paper_grid() -> Self {
        Self {
            pb_bytes: vec![256 << 10, 512 << 10, 1024 << 10, 1728 << 10, 2560 << 10, 4096 << 10],
            bw_gbps: vec![4.8, 9.6, 19.2, 38.4],
            geometries: vec![(8, 9), (16, 18), (32, 18), (32, 36)],
        }
    }
}

/// Steady-state mean latency of serving `subnets` round-robin on `config`
/// with the given cache policy: `cache_shared == true` prices every query
/// with the shared SubGraph (truncated to the PB) resident; reload cost is
/// excluded — it amortizes to zero over a long stream.
fn mean_latency_ms(
    config: &AccelConfig,
    net: &SuperNet,
    subnets: &[SubNet],
    cache_shared: bool,
) -> f64 {
    let cached = (cache_shared && config.buffers.has_pb())
        .then(|| net.subgraph_to_budget(&net.shared_subgraph(subnets), config.buffers.pb_bytes));
    let total: f64 =
        subnets.iter().map(|sn| price_query(config, net, sn, cached.as_ref()).latency_ms).sum();
    total / subnets.len() as f64
}

/// Evaluates one design point.
#[must_use]
pub fn evaluate_point(
    base: &AccelConfig,
    net: &SuperNet,
    subnets: &[SubNet],
    pb_bytes: u64,
    bw_gbps: f64,
    geometry: (usize, usize),
) -> DsePoint {
    let mut cfg = base.with_pb_bytes(pb_bytes);
    cfg.offchip_gbps = bw_gbps;
    cfg.kp = geometry.0;
    cfg.cp = geometry.1;
    let with_pb = mean_latency_ms(&cfg, net, subnets, true);
    let without = mean_latency_ms(&cfg.without_pb(), net, subnets, false);
    DsePoint {
        pb_mb: pb_bytes as f64 / (1024.0 * 1024.0),
        bw_gbps,
        macs_per_cycle: cfg.peak_macs_per_cycle(),
        latency_wo_pb_ms: without,
        latency_w_pb_ms: with_pb,
    }
}

/// Sweeps the full grid serially, PB size outermost and geometry
/// innermost.
#[must_use]
pub fn sweep(
    base: &AccelConfig,
    net: &SuperNet,
    subnets: &[SubNet],
    grid: &DseGrid,
) -> Vec<DsePoint> {
    let mut points = Vec::new();
    for &pb in &grid.pb_bytes {
        for &bw in &grid.bw_gbps {
            for &geo in &grid.geometries {
                points.push(evaluate_point(base, net, subnets, pb, bw, geo));
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::zcu104;
    use sushi_wsnet::zoo;

    fn setup() -> (SuperNet, Vec<SubNet>) {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        (net, picks)
    }

    #[test]
    fn larger_pb_saves_more_time() {
        let (net, picks) = setup();
        let base = zcu104();
        let small = evaluate_point(&base, &net, &picks, 256 << 10, 19.2, (16, 18));
        let large = evaluate_point(&base, &net, &picks, 4096 << 10, 19.2, (16, 18));
        assert!(
            large.time_save_pct() > small.time_save_pct(),
            "large {} !> small {}",
            large.time_save_pct(),
            small.time_save_pct()
        );
    }

    #[test]
    fn time_save_is_nonnegative_across_grid_sample() {
        let (net, picks) = setup();
        let base = zcu104();
        for &pb in &[512u64 << 10, 1728 << 10] {
            for &bw in &[9.6, 19.2] {
                let p = evaluate_point(&base, &net, &picks, pb, bw, (16, 18));
                assert!(p.time_save_pct() >= -0.5, "pb={pb} bw={bw}: {}", p.time_save_pct());
            }
        }
    }

    #[test]
    fn more_compute_increases_relative_benefit_of_caching() {
        // With more on-chip compute, layers become memory-bound, so removing
        // weight traffic matters more (Fig. 12's "more on-chip computation
        // -> latency improved" trend).
        let (net, picks) = setup();
        let base = zcu104();
        let small = evaluate_point(&base, &net, &picks, 1728 << 10, 9.6, (8, 9));
        let big = evaluate_point(&base, &net, &picks, 1728 << 10, 9.6, (32, 36));
        // At very low effective bandwidth both points are memory-bound, so
        // allow a small tolerance rather than strict monotonicity.
        assert!(
            big.time_save_pct() >= small.time_save_pct() - 0.5,
            "big {} vs small {}",
            big.time_save_pct(),
            small.time_save_pct()
        );
    }

    #[test]
    fn sweep_covers_whole_grid() {
        let (net, picks) = setup();
        let grid = DseGrid {
            pb_bytes: vec![512 << 10, 1728 << 10],
            bw_gbps: vec![19.2],
            geometries: vec![(16, 18)],
        };
        let points = sweep(&zcu104(), &net, &picks, &grid);
        assert_eq!(points.len(), 2);
    }

    #[test]
    fn mobv3_gains_less_than_resnet50() {
        // §5.3.4: "the amount of improvement is lesser for MobV3 compared
        // with the ResNet50" at equal configurations.
        let r50 = zoo::resnet50_supernet();
        let r50_picks = zoo::paper_subnets(&r50);
        let mob = zoo::mobilenet_v3_supernet();
        let mob_picks = zoo::paper_subnets(&mob);
        let base = zcu104();
        let r = evaluate_point(&base, &r50, &r50_picks, 1024 << 10, 19.2, (16, 18));
        let m = evaluate_point(&base, &mob, &mob_picks, 1024 << 10, 19.2, (16, 18));
        // Compare absolute saved milliseconds: ResNet50 saves more.
        let r_saved = r.latency_wo_pb_ms - r.latency_w_pb_ms;
        let m_saved = m.latency_wo_pb_ms - m.latency_w_pb_ms;
        assert!(r_saved > m_saved, "R50 saved {r_saved} !> MobV3 saved {m_saved}");
    }
}
