//! The accelerator execution engine: serves SubNets under a cached SubGraph.
//!
//! [`Accelerator`] is the timing/energy simulator of SushiAccel. It holds
//! the Persistent-Buffer state (a [`SubGraph`] or empty) and serves queries
//! in *timing-only* mode (the common case — all §5 experiments) via
//! [`Accelerator::serve`]; the bit-exact functional datapath for small nets
//! lives in [`crate::dpe`].

use serde::{Deserialize, Serialize};

use sushi_wsnet::layer::LayerSlice;
use sushi_wsnet::{SubGraph, SubNet, SuperNet};

use crate::config::AccelConfig;
use crate::energy::{EnergyModel, EnergyReport};
use crate::timing::{layer_timing, CycleBreakdown, LayerTiming, TrafficBytes};

/// Result of serving one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryReport {
    /// Name of the served SubNet.
    pub subnet: String,
    /// Per-layer timings (active layers only).
    pub layers: Vec<LayerTiming>,
    /// Total critical-path attribution.
    pub cycles: CycleBreakdown,
    /// Cycles spent (re)loading the PB before this query, if a cache update
    /// was pending (stage B of Fig. 9a — paid once, then amortized across
    /// the queries that reuse the cached SubGraph).
    pub pb_reload_cycles: u64,
    /// Total byte traffic.
    pub traffic: TrafficBytes,
    /// Data-movement energy.
    pub energy: EnergyReport,
    /// End-to-end latency in milliseconds (including any PB reload).
    pub latency_ms: f64,
}

impl QueryReport {
    /// Fraction of weight bytes served from the Persistent Buffer.
    #[must_use]
    pub fn pb_hit_fraction(&self) -> f64 {
        let total = self.traffic.pb_weights + self.traffic.offchip_weights;
        if total == 0 {
            return 0.0;
        }
        self.traffic.pb_weights as f64 / total as f64
    }
}

/// Result of serving one *batch* of queries that all resolved to the same
/// SubNet (the serving runtime's dynamic batching path).
///
/// Weights are fetched once per batch — the within-batch analogue of the
/// cross-query SubGraph-Stationary reuse of §2.2 — while activations move
/// per item, so the marginal item pays only compute + activation traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Name of the served SubNet.
    pub subnet: String,
    /// Number of queries in the batch.
    pub batch: usize,
    /// Cycles spent (re)loading the PB before this batch, if a cache update
    /// was pending.
    pub pb_reload_cycles: u64,
    /// Total byte traffic for the whole batch (weights once, acts × batch).
    pub traffic: TrafficBytes,
    /// Data-movement energy for the whole batch.
    pub energy: EnergyReport,
    /// End-to-end latency of the whole batch in ms (including any PB
    /// reload). Every query in the batch completes at this point.
    pub total_latency_ms: f64,
    /// Latency the *first* item alone would have seen (weights + one item).
    pub first_item_ms: f64,
}

impl BatchReport {
    /// Mean per-item latency (`total / batch`) — the throughput view.
    ///
    /// # Panics
    /// Panics if the batch is empty (constructed only via
    /// [`Accelerator::serve_batch`], which rejects `batch == 0`).
    #[must_use]
    pub fn per_item_ms(&self) -> f64 {
        assert!(self.batch > 0);
        self.total_latency_ms / self.batch as f64
    }
}

/// The SushiAccel timing/energy simulator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AccelConfig,
    energy_model: EnergyModel,
    cached: Option<SubGraph>,
    pending_reload_cycles: u64,
}

impl Accelerator {
    /// Creates an accelerator with an empty Persistent Buffer.
    #[must_use]
    pub fn new(config: AccelConfig) -> Self {
        Self {
            config,
            energy_model: EnergyModel::default(),
            cached: None,
            pending_reload_cycles: 0,
        }
    }

    /// Overrides the energy model.
    #[must_use]
    pub fn with_energy_model(mut self, m: EnergyModel) -> Self {
        self.energy_model = m;
        self
    }

    /// The accelerator configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The currently cached SubGraph, if any.
    #[must_use]
    pub fn cached(&self) -> Option<&SubGraph> {
        self.cached.as_ref()
    }

    /// Installs a new cached SubGraph (the scheduler's `St+Q` decision).
    ///
    /// The SubGraph is truncated to the PB capacity if needed, and the DRAM
    /// cost of loading it is charged to the next served query. Installing
    /// on a PB-less configuration is a no-op.
    ///
    /// Returns the SubGraph actually installed.
    pub fn install_cache(&mut self, net: &SuperNet, graph: SubGraph) -> Option<&SubGraph> {
        if !self.config.buffers.has_pb() {
            return None;
        }
        let fitted = net.subgraph_to_budget(&graph, self.config.buffers.pb_bytes);
        let bytes = net.subgraph_weight_bytes(&fitted);
        if self.cached.as_ref() == Some(&fitted) {
            return self.cached.as_ref(); // already resident: no reload
        }
        self.pending_reload_cycles += self.config.offchip_cycles(bytes);
        self.cached = Some(fitted);
        self.cached.as_ref()
    }

    /// Clears the Persistent Buffer without charging a reload.
    pub fn clear_cache(&mut self) {
        self.cached = None;
        self.pending_reload_cycles = 0;
    }

    /// Serves one query with the given SubNet (timing-only mode).
    ///
    /// # Panics
    /// Panics if the SubNet does not belong to `net` (layer count mismatch).
    pub fn serve(&mut self, net: &SuperNet, subnet: &SubNet) -> QueryReport {
        assert_eq!(subnet.graph.num_layers(), net.num_layers(), "SubNet does not match SuperNet");
        let empty = LayerSlice::empty();
        let mut layers = Vec::new();
        let mut cycles = CycleBreakdown::default();
        let mut traffic = TrafficBytes::default();
        for (idx, (layer, slice)) in net.layers.iter().zip(subnet.graph.slices()).enumerate() {
            if slice.is_empty() {
                continue;
            }
            let cached_slice = self.cached.as_ref().map_or(&empty, |g| {
                debug_assert_eq!(g.num_layers(), net.num_layers());
                &g.slices()[idx]
            });
            let t = layer_timing(&self.config, layer, slice, cached_slice);
            cycles.add(&t.cycles);
            traffic.add(&t.traffic);
            layers.push(t);
        }
        let pb_reload_cycles = std::mem::take(&mut self.pending_reload_cycles);
        // The PB reload itself is off-chip traffic (energy-wise).
        let mut energy_traffic = traffic;
        if pb_reload_cycles > 0 {
            if let Some(g) = &self.cached {
                energy_traffic.offchip_weights += net.subgraph_weight_bytes(g);
            }
        }
        let energy = self.energy_model.energy(&energy_traffic);
        let total_cycles = cycles.total() + pb_reload_cycles;
        QueryReport {
            subnet: subnet.name.clone(),
            layers,
            cycles,
            pb_reload_cycles,
            traffic,
            energy,
            latency_ms: self.config.cycles_to_ms(total_cycles),
        }
    }

    /// Serves `batch` queries of the same SubNet back-to-back (timing-only
    /// mode), fetching each layer's weights once for the whole batch.
    ///
    /// Per layer, the first item pays the full critical path (weight fetch
    /// overlapped with compute, per [`crate::timing::layer_timing`]); every
    /// additional item re-uses the now-resident weights and pays only its
    /// compute and activation-movement cycles. Weight traffic (off-chip and
    /// PB) is charged once; activation traffic `batch` times. A pending PB
    /// reload is charged once to the whole batch, exactly as
    /// [`Accelerator::serve`] charges it to a single query.
    ///
    /// `serve_batch(net, sn, 1)` agrees with [`Accelerator::serve`] on
    /// latency, traffic and energy.
    ///
    /// # Panics
    /// Panics if `batch == 0` or the SubNet does not belong to `net`.
    pub fn serve_batch(&mut self, net: &SuperNet, subnet: &SubNet, batch: usize) -> BatchReport {
        assert!(batch > 0, "cannot serve an empty batch");
        assert_eq!(subnet.graph.num_layers(), net.num_layers(), "SubNet does not match SuperNet");
        let empty = LayerSlice::empty();
        let mut cycles_first = 0u64;
        let mut cycles_marginal = 0u64;
        let mut traffic = TrafficBytes::default();
        for (idx, (layer, slice)) in net.layers.iter().zip(subnet.graph.slices()).enumerate() {
            if slice.is_empty() {
                continue;
            }
            let cached_slice = self.cached.as_ref().map_or(&empty, |g| {
                debug_assert_eq!(g.num_layers(), net.num_layers());
                &g.slices()[idx]
            });
            let t = layer_timing(&self.config, layer, slice, cached_slice);
            cycles_first += t.cycles.total();
            // Weights resident after item 1: the marginal item's critical
            // path keeps the compute and activation buckets and drops both
            // weight buckets.
            cycles_marginal += t.cycles.compute + t.cycles.offchip_iact + t.cycles.offchip_oact;
            let mut batch_traffic = t.traffic;
            batch_traffic.offchip_iact *= batch as u64;
            batch_traffic.offchip_oact *= batch as u64;
            traffic.add(&batch_traffic);
        }
        let pb_reload_cycles = std::mem::take(&mut self.pending_reload_cycles);
        let mut energy_traffic = traffic;
        if pb_reload_cycles > 0 {
            if let Some(g) = &self.cached {
                energy_traffic.offchip_weights += net.subgraph_weight_bytes(g);
            }
        }
        let energy = self.energy_model.energy(&energy_traffic);
        let total_cycles = pb_reload_cycles + cycles_first + (batch as u64 - 1) * cycles_marginal;
        BatchReport {
            subnet: subnet.name.clone(),
            batch,
            pb_reload_cycles,
            traffic,
            energy,
            total_latency_ms: self.config.cycles_to_ms(total_cycles),
            first_item_ms: self.config.cycles_to_ms(pb_reload_cycles + cycles_first),
        }
    }

    /// Serves a query *as if* the given SubGraph were cached, without
    /// changing accelerator state. Used to build latency tables offline.
    #[must_use]
    pub fn probe(&self, net: &SuperNet, subnet: &SubNet, cached: Option<&SubGraph>) -> QueryReport {
        let mut scratch = Self {
            config: self.config.clone(),
            energy_model: self.energy_model,
            cached: cached.cloned(),
            pending_reload_cycles: 0,
        };
        scratch.serve(net, subnet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::zcu104;
    use sushi_wsnet::zoo;

    fn setup() -> (SuperNet, Vec<SubNet>, Accelerator) {
        let net = zoo::toy_supernet();
        let picks: Vec<SubNet> = {
            let mut s = sushi_wsnet::sampler::ConfigSampler::new(&net, 5);
            s.sample_subnets(4)
        };
        (net.clone(), picks, Accelerator::new(zcu104()))
    }

    #[test]
    fn serve_reports_positive_latency() {
        let (net, picks, mut acc) = setup();
        let r = acc.serve(&net, &picks[0]);
        assert!(r.latency_ms > 0.0);
        assert!(r.cycles.total() > 0);
        assert_eq!(r.subnet, picks[0].name);
    }

    #[test]
    fn active_layer_count_matches_subnet() {
        let (net, picks, mut acc) = setup();
        let r = acc.serve(&net, &picks[0]);
        assert_eq!(r.layers.len(), picks[0].graph.active_layers());
    }

    #[test]
    fn install_cache_charges_reload_once() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[0].graph.clone());
        let r1 = acc.serve(&net, &picks[0]);
        assert!(r1.pb_reload_cycles > 0);
        let r2 = acc.serve(&net, &picks[0]);
        assert_eq!(r2.pb_reload_cycles, 0);
        assert!(r2.latency_ms < r1.latency_ms);
    }

    #[test]
    fn reinstalling_same_subgraph_is_free() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[0].graph.clone());
        let _ = acc.serve(&net, &picks[0]);
        acc.install_cache(&net, picks[0].graph.clone());
        let r = acc.serve(&net, &picks[0]);
        assert_eq!(r.pb_reload_cycles, 0);
    }

    #[test]
    fn cache_hit_reduces_latency_and_offchip_traffic() {
        let (net, picks, mut acc) = setup();
        let cold = acc.serve(&net, &picks[1]);
        acc.install_cache(&net, picks[1].graph.clone());
        let _warmup = acc.serve(&net, &picks[1]); // pays reload
        let warm = acc.serve(&net, &picks[1]);
        assert!(warm.cycles.total() <= cold.cycles.total());
        assert!(warm.traffic.offchip_weights < cold.traffic.offchip_weights);
        assert!(warm.pb_hit_fraction() > 0.5);
    }

    #[test]
    fn pbless_accelerator_never_hits() {
        let (net, picks, _) = setup();
        let mut acc = Accelerator::new(zcu104().without_pb());
        assert!(acc.install_cache(&net, picks[0].graph.clone()).is_none());
        let r = acc.serve(&net, &picks[0]);
        assert_eq!(r.traffic.pb_weights, 0);
        assert_eq!(r.pb_hit_fraction(), 0.0);
    }

    #[test]
    fn oversized_subgraph_is_truncated_to_pb() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut acc = Accelerator::new(zcu104());
        // Largest pick (~28 MB) far exceeds the 1.7 MB PB.
        let installed = acc.install_cache(&net, picks[5].graph.clone()).unwrap().clone();
        assert!(net.subgraph_weight_bytes(&installed) <= acc.config().buffers.pb_bytes);
        assert!(net.subgraph_weight_bytes(&installed) > 0);
    }

    #[test]
    fn probe_does_not_mutate_state() {
        let (net, picks, acc) = setup();
        let before = acc.cached().cloned();
        let _ = acc.probe(&net, &picks[0], Some(&picks[1].graph));
        assert_eq!(acc.cached().cloned(), before);
    }

    #[test]
    fn probe_matches_serve_with_same_cache() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[2].graph.clone());
        let _pay_reload = acc.serve(&net, &picks[0]);
        let served = acc.serve(&net, &picks[0]);
        let probed = acc.probe(&net, &picks[0], acc.cached());
        assert_eq!(served.cycles, probed.cycles);
    }

    #[test]
    fn energy_accounts_pb_reload_traffic() {
        let (net, picks, mut acc) = setup();
        let cold = acc.serve(&net, &picks[0]);
        acc.install_cache(&net, picks[0].graph.clone());
        let with_reload = acc.serve(&net, &picks[0]);
        // Reload adds off-chip energy on the reload query even though
        // steady-state queries save energy.
        assert!(with_reload.energy.offchip_mj > cold.energy.offchip_mj * 0.5);
    }

    #[test]
    fn bigger_subnet_takes_longer() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut acc = Accelerator::new(zcu104());
        let small = acc.serve(&net, &picks[0]);
        let large = acc.serve(&net, &picks[5]);
        assert!(large.latency_ms > small.latency_ms);
    }

    #[test]
    fn batch_of_one_matches_single_serve() {
        let (net, picks, mut acc) = setup();
        let single = acc.serve(&net, &picks[0]);
        let batch = acc.serve_batch(&net, &picks[0], 1);
        assert_eq!(batch.total_latency_ms, single.latency_ms);
        assert_eq!(batch.first_item_ms, single.latency_ms);
        assert_eq!(batch.traffic, single.traffic);
        assert_eq!(batch.energy, single.energy);
    }

    #[test]
    fn batching_amortizes_weight_fetch() {
        let (net, picks, mut acc) = setup();
        let single = acc.serve(&net, &picks[1]);
        let b = 8;
        let batch = acc.serve_batch(&net, &picks[1], b);
        // Cheaper than b independent serves...
        assert!(batch.total_latency_ms < single.latency_ms * b as f64);
        // ...but still at least the first item plus b-1 compute-bound items.
        assert!(batch.total_latency_ms >= single.latency_ms);
        assert!(batch.per_item_ms() < single.latency_ms);
        // Weight bytes unchanged, activation bytes scaled by b.
        assert_eq!(batch.traffic.offchip_weights, single.traffic.offchip_weights);
        assert_eq!(batch.traffic.offchip_iact, single.traffic.offchip_iact * b as u64);
    }

    #[test]
    fn batch_charges_pending_reload_once() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[0].graph.clone());
        let b1 = acc.serve_batch(&net, &picks[0], 4);
        assert!(b1.pb_reload_cycles > 0);
        let b2 = acc.serve_batch(&net, &picks[0], 4);
        assert_eq!(b2.pb_reload_cycles, 0);
        assert!(b2.total_latency_ms < b1.total_latency_ms);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_rejected() {
        let (net, picks, mut acc) = setup();
        let _ = acc.serve_batch(&net, &picks[0], 0);
    }

    #[test]
    fn resnet50_latency_in_plausible_band() {
        // Fig. 13a: ZCU104 serves ResNet50 SubNets in the ~10-50 ms band.
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut acc = Accelerator::new(zcu104());
        let r = acc.serve(&net, &picks[0]);
        assert!(r.latency_ms > 1.0 && r.latency_ms < 100.0, "{} ms", r.latency_ms);
    }
}
