//! The accelerator timing/energy model: prices SubNets under a cached
//! SubGraph.
//!
//! [`price_query`] is the model's one layer walk: the cycles, traffic and
//! energy of one query of a SubNet on an accelerator whose Persistent
//! Buffer holds a given SubGraph (or nothing). Every latency table, figure
//! and roofline point is priced by it; the bit-exact functional datapath
//! for small nets lives in [`crate::dpe`].
//!
//! [`ServiceTable`] is the same model tabulated over a serving set: one
//! [`price_query`] per `(SubNet, cacheable column)` cell at engine build,
//! after which pricing a batch or an install is a lookup. The serving
//! runtime prices every batch from it. [`Accelerator`] is the stateful
//! form — a PB that installs SubGraphs and charges their reload to the
//! next batch — kept as the table's oracle.

use sushi_wsnet::encoding::overlap_ratio;
use sushi_wsnet::layer::LayerSlice;
use sushi_wsnet::{SubGraph, SubNet, SuperNet};

use crate::config::AccelConfig;
use crate::energy::{EnergyModel, EnergyReport};
use crate::timing::{layer_timing, CycleBreakdown, TrafficBytes};

/// The price of one query: what [`price_query`] reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Total critical-path attribution.
    pub cycles: CycleBreakdown,
    /// Total byte traffic.
    pub traffic: TrafficBytes,
    /// Data-movement energy.
    pub energy: EnergyReport,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
}

/// Prices one query of SubNet `sn` on an accelerator configured by `cfg`
/// whose Persistent Buffer holds `cached` (`None` = empty), in
/// timing-only mode. `cached` is taken as resident as given: fit it to the
/// PB budget first ([`SuperNet::subgraph_to_budget`]) to price what an
/// install would make resident. A PB-less configuration never hits.
///
/// # Panics
/// Panics if the SubNet or SubGraph does not belong to `net` (layer count
/// mismatch).
#[must_use]
pub fn price_query(
    cfg: &AccelConfig,
    net: &SuperNet,
    sn: &SubNet,
    cached: Option<&SubGraph>,
) -> QueryReport {
    assert_eq!(sn.graph.num_layers(), net.num_layers(), "SubNet does not match SuperNet");
    if let Some(g) = cached {
        assert_eq!(g.num_layers(), net.num_layers(), "SubGraph does not match SuperNet");
    }
    let empty = LayerSlice::empty();
    let mut cycles = CycleBreakdown::default();
    let mut traffic = TrafficBytes::default();
    for (idx, (layer, slice)) in net.layers.iter().zip(sn.graph.slices()).enumerate() {
        let t = layer_timing(cfg, layer, slice, cached.map_or(&empty, |g| &g.slices()[idx]));
        cycles.add(&t.cycles);
        traffic.add(&t.traffic);
    }
    QueryReport {
        cycles,
        traffic,
        energy: EnergyModel::default().energy(&traffic),
        latency_ms: cfg.cycles_to_ms(cycles.total()),
    }
}

/// Result of serving one *batch* of queries that all resolved to the same
/// SubNet (the serving runtime's dynamic batching path).
///
/// Weights are fetched once per batch — the within-batch analogue of the
/// cross-query SubGraph-Stationary reuse of §2.2 — while activations move
/// per item, so the marginal item pays only compute + activation traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
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

/// One `(SubNet, resident column)` cell of a [`ServiceTable`]: one
/// [`price_query`] reduced to what pricing a batch needs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ServiceCell {
    /// Critical-path cycles of the first item: weight fetch plus one item.
    first_cycles: u64,
    /// Cycles of every further item: compute and activation movement.
    marginal_cycles: u64,
    /// One item's traffic. A batch pays the weight bytes once and the
    /// activation bytes per item.
    traffic: TrafficBytes,
    /// `overlap_ratio(SubNet, column)`: the cache-hit ratio of Appendix A.4.
    overlap: f64,
}

impl ServiceCell {
    /// The cell of one query's price. Splitting the cycle total into the
    /// first item and the marginal one is exact: [`CycleBreakdown::total`]
    /// is a plain sum, so the per-layer sums regroup freely.
    fn new(q: &QueryReport) -> Self {
        let c = &q.cycles;
        Self {
            first_cycles: c.total(),
            marginal_cycles: c.compute + c.offchip_iact + c.offchip_oact,
            traffic: q.traffic,
            overlap: 0.0,
        }
    }

    /// `batch` items of this cell after `reload` cycles of pending PB
    /// install, whose `bytes` are off-chip traffic: weights are fetched once
    /// per batch and activations move per item, so the first item pays the
    /// full critical path and every further item only its compute and
    /// activation cycles.
    ///
    /// # Panics
    /// Panics if `batch == 0`.
    fn price(&self, config: &AccelConfig, batch: usize, reload: u64, bytes: u64) -> BatchReport {
        assert!(batch > 0, "cannot serve an empty batch");
        let items = batch as u64;
        let mut traffic = self.traffic;
        traffic.offchip_iact *= items;
        traffic.offchip_oact *= items;
        // The PB reload itself is off-chip traffic (energy-wise).
        let mut energy_traffic = traffic;
        if reload > 0 {
            energy_traffic.offchip_weights += bytes;
        }
        let first_cycles = reload + self.first_cycles;
        BatchReport {
            batch,
            pb_reload_cycles: reload,
            traffic,
            energy: EnergyModel::default().energy(&energy_traffic),
            total_latency_ms: config
                .cycles_to_ms(first_cycles + (items - 1) * self.marginal_cycles),
            first_item_ms: config.cycles_to_ms(first_cycles),
        }
    }
}

/// SushiAbs for the serving runtime: [`price_query`] tabulated over a
/// serving set and its cacheable SubGraphs (§2.4/§3.2), with
/// [`Accelerator::install_cache`]'s install rule.
///
/// Rows are the serving SubNets; column 0 is the empty SubGraph and the
/// candidates follow, as in the scheduler's latency table. A Persistent
/// Buffer's state is its resident column (`None` = empty). Each cell is
/// filled by one [`price_query`] at build, and pricing a batch afterwards
/// is a lookup plus integer arithmetic, so [`ServiceTable::price`] returns
/// bit for bit what [`Accelerator::serve_batch`] returns on an accelerator
/// holding the same column.
#[derive(Debug, Clone)]
pub struct ServiceTable {
    config: AccelConfig,
    /// Per column: the SubGraph an install makes resident, and its weight
    /// bytes (the reload's off-chip traffic).
    columns: Vec<(SubGraph, u64)>,
    /// Row-major: `cells[row * columns.len() + column]`.
    cells: Vec<ServiceCell>,
}

impl ServiceTable {
    /// Prices every `(SubNet, column)` cell once. Each column holds what
    /// [`Accelerator::install_cache`] makes resident: the empty SubGraph,
    /// then each candidate fitted to the PB budget.
    ///
    /// # Panics
    /// Panics if a SubNet or candidate does not belong to `net`.
    #[must_use]
    pub fn build(
        config: &AccelConfig,
        net: &SuperNet,
        subnets: &[SubNet],
        candidates: &[SubGraph],
    ) -> Self {
        let empty = SubGraph::empty(net.num_layers());
        let columns: Vec<(SubGraph, u64)> = std::iter::once(&empty)
            .chain(candidates)
            .map(|graph| {
                assert_eq!(
                    graph.num_layers(),
                    net.num_layers(),
                    "SubGraph does not match SuperNet"
                );
                let fitted = if config.buffers.has_pb() {
                    net.subgraph_to_budget(graph, config.buffers.pb_bytes)
                } else {
                    graph.clone()
                };
                let bytes = net.subgraph_weight_bytes(&fitted);
                (fitted, bytes)
            })
            .collect();
        let cells = subnets
            .iter()
            .flat_map(|sn| {
                columns.iter().map(move |(g, _)| ServiceCell {
                    overlap: overlap_ratio(&sn.graph, g),
                    ..ServiceCell::new(&price_query(config, net, sn, Some(g)))
                })
            })
            .collect();
        Self { config: config.clone(), columns, cells }
    }

    /// The accelerator configuration the table prices.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// `overlap_ratio` of SubNet `row` with the resident column (`0` when
    /// the PB is empty).
    #[must_use]
    pub fn overlap(&self, row: usize, resident: Option<usize>) -> f64 {
        self.cell(row, resident).overlap
    }

    /// Installs column `col` over `resident` by
    /// [`Accelerator::install_cache`]'s rule. Returns the new resident
    /// column and the reload cycles the next batch pays: none on a PB-less
    /// configuration (nothing becomes resident) or when an equal SubGraph
    /// is already resident.
    #[must_use]
    pub fn install(&self, resident: Option<usize>, col: usize) -> (Option<usize>, u64) {
        let (graph, bytes) = &self.columns[col];
        if !self.config.buffers.has_pb() || resident.is_some_and(|r| self.columns[r].0 == *graph) {
            return (resident, 0);
        }
        (Some(col), self.config.offchip_cycles(*bytes))
    }

    /// Prices `batch` queries of SubNet `row` on a PB holding `pb`, with
    /// `reload` cycles of pending install charged to the batch — what
    /// [`Accelerator::serve_batch`] reports in the same state.
    ///
    /// # Panics
    /// Panics if `batch == 0` or an index is out of range.
    #[must_use]
    pub fn price(&self, row: usize, pb: Option<usize>, batch: usize, reload: u64) -> BatchReport {
        let bytes = pb.map_or(0, |c| self.columns[c].1);
        self.cell(row, pb).price(&self.config, batch, reload, bytes)
    }

    fn cell(&self, row: usize, resident: Option<usize>) -> &ServiceCell {
        // Nothing resident prices as column 0, the empty SubGraph.
        &self.cells[row * self.columns.len() + resident.unwrap_or(0)]
    }
}

/// A SushiAccel with Persistent-Buffer state: [`price_query`] plus the
/// install rule, charging each install's reload to the next batch.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AccelConfig,
    cached: Option<SubGraph>,
    pending_reload_cycles: u64,
}

impl Accelerator {
    /// Creates an accelerator with an empty Persistent Buffer.
    #[must_use]
    pub fn new(config: AccelConfig) -> Self {
        Self { config, cached: None, pending_reload_cycles: 0 }
    }

    /// The currently cached SubGraph, if any.
    #[must_use]
    pub fn cached(&self) -> Option<&SubGraph> {
        self.cached.as_ref()
    }

    /// Installs a new cached SubGraph (the scheduler's `St+Q` decision).
    ///
    /// The SubGraph is truncated to the PB capacity if needed, and the DRAM
    /// cost of loading it is charged to the next served batch. Installing
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

    /// Serves `batch` queries of the same SubNet back-to-back (timing-only
    /// mode), fetching each layer's weights once for the whole batch.
    ///
    /// The first item pays [`price_query`]'s full critical path; every
    /// additional item re-uses the now-resident weights and pays only its
    /// compute and activation-movement cycles. Weight traffic (off-chip and
    /// PB) is charged once; activation traffic `batch` times. A pending PB
    /// reload is charged once to the whole batch, and its bytes to the
    /// batch's off-chip energy.
    ///
    /// # Panics
    /// Panics if `batch == 0` or the SubNet does not belong to `net`.
    pub fn serve_batch(&mut self, net: &SuperNet, subnet: &SubNet, batch: usize) -> BatchReport {
        let cell = ServiceCell::new(&price_query(&self.config, net, subnet, self.cached.as_ref()));
        let reload_cycles = std::mem::take(&mut self.pending_reload_cycles);
        let reload = self.cached.as_ref().filter(|_| reload_cycles > 0);
        let reload_bytes = reload.map_or(0, |g| net.subgraph_weight_bytes(g));
        cell.price(&self.config, batch, reload_cycles, reload_bytes)
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
        let (net, picks, _) = setup();
        let r = price_query(&zcu104(), &net, &picks[0], None);
        assert!(r.latency_ms > 0.0);
        assert!(r.cycles.total() > 0);
    }

    #[test]
    fn install_cache_charges_reload_once() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[0].graph.clone());
        let r1 = acc.serve_batch(&net, &picks[0], 1);
        assert!(r1.pb_reload_cycles > 0);
        let r2 = acc.serve_batch(&net, &picks[0], 1);
        assert_eq!(r2.pb_reload_cycles, 0);
        assert!(r2.total_latency_ms < r1.total_latency_ms);
    }

    #[test]
    fn reinstalling_same_subgraph_is_free() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[0].graph.clone());
        let _ = acc.serve_batch(&net, &picks[0], 1);
        acc.install_cache(&net, picks[0].graph.clone());
        let r = acc.serve_batch(&net, &picks[0], 1);
        assert_eq!(r.pb_reload_cycles, 0);
    }

    #[test]
    fn cache_hit_reduces_latency_and_offchip_traffic() {
        let (net, picks, mut acc) = setup();
        let cold = price_query(&zcu104(), &net, &picks[1], None);
        acc.install_cache(&net, picks[1].graph.clone());
        let warm = price_query(&zcu104(), &net, &picks[1], acc.cached());
        assert!(warm.cycles.total() <= cold.cycles.total());
        assert!(warm.traffic.offchip_weights < cold.traffic.offchip_weights);
        // Most weight bytes come from the PB.
        assert!(warm.traffic.pb_weights > warm.traffic.offchip_weights);
    }

    #[test]
    fn pbless_accelerator_never_hits() {
        let (net, picks, _) = setup();
        let mut acc = Accelerator::new(zcu104().without_pb());
        assert!(acc.install_cache(&net, picks[0].graph.clone()).is_none());
        let r = acc.serve_batch(&net, &picks[0], 1);
        assert_eq!(r.traffic.pb_weights, 0);
        let probed = price_query(&zcu104().without_pb(), &net, &picks[0], Some(&picks[0].graph));
        assert_eq!(probed.traffic.pb_weights, 0);
    }

    #[test]
    fn oversized_subgraph_is_truncated_to_pb() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut acc = Accelerator::new(zcu104());
        // Largest pick (~28 MB) far exceeds the 1.7 MB PB.
        let installed = acc.install_cache(&net, picks[5].graph.clone()).unwrap().clone();
        assert!(net.subgraph_weight_bytes(&installed) <= zcu104().buffers.pb_bytes);
        assert!(net.subgraph_weight_bytes(&installed) > 0);
    }

    #[test]
    fn energy_accounts_pb_reload_traffic() {
        let (net, picks, mut acc) = setup();
        let cold = price_query(&zcu104(), &net, &picks[0], None);
        acc.install_cache(&net, picks[0].graph.clone());
        let with_reload = acc.serve_batch(&net, &picks[0], 1);
        // Reload adds off-chip energy on the reload query even though
        // steady-state queries save energy.
        assert!(with_reload.energy.offchip_mj > cold.energy.offchip_mj * 0.5);
    }

    #[test]
    fn bigger_subnet_takes_longer() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let small = price_query(&zcu104(), &net, &picks[0], None);
        let large = price_query(&zcu104(), &net, &picks[5], None);
        assert!(large.latency_ms > small.latency_ms);
    }

    #[test]
    fn batch_of_one_matches_single_serve() {
        let (net, picks, mut acc) = setup();
        acc.install_cache(&net, picks[2].graph.clone());
        let _pay_reload = acc.serve_batch(&net, &picks[0], 1);
        let single = price_query(&zcu104(), &net, &picks[0], acc.cached());
        let batch = acc.serve_batch(&net, &picks[0], 1);
        assert_eq!(batch.total_latency_ms, single.latency_ms);
        assert_eq!(batch.first_item_ms, single.latency_ms);
        assert_eq!(batch.traffic, single.traffic);
        assert_eq!(batch.energy, single.energy);
    }

    #[test]
    fn batching_amortizes_weight_fetch() {
        let (net, picks, mut acc) = setup();
        let single = price_query(&zcu104(), &net, &picks[1], None);
        let b = 8;
        let batch = acc.serve_batch(&net, &picks[1], b);
        // Cheaper than b independent serves...
        assert!(batch.total_latency_ms < single.latency_ms * b as f64);
        // ...but still at least the first item plus b-1 compute-bound items.
        assert!(batch.total_latency_ms >= single.latency_ms);
        assert!(batch.total_latency_ms / (b as f64) < single.latency_ms);
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

    /// The service table is `price_query` tabulated: on MobV3, ResNet50 and
    /// the toy zoo, with and without a PB, every single query with no
    /// reload pending prices bit for bit what `price_query` reports under
    /// the resident column; every (row, column, batch size, reload pending
    /// or not) prices bit for bit what `install_cache` + `serve_batch`
    /// report; the overlap cells are `overlap_ratio` of the resident
    /// SubGraph; and an install reloads exactly when the accelerator does.
    #[test]
    fn service_table_prices_exactly_what_the_walk_reports() {
        let (toy, toy_picks, _) = setup();
        let mobv3 = zoo::mobilenet_v3_supernet();
        let resnet = zoo::resnet50_supernet();
        let workloads = [
            (zoo::paper_subnets(&mobv3), mobv3),
            (zoo::paper_subnets(&resnet), resnet),
            (toy_picks, toy),
        ];
        for (picks, net) in &workloads {
            // Whole SubNets, which an install fits to the PB, and a repeat
            // of column 1, whose install over column 1 must be free.
            let mut candidates: Vec<SubGraph> = picks.iter().map(|p| p.graph.clone()).collect();
            candidates.push(picks[0].graph.clone());
            let empty = SubGraph::empty(net.num_layers());
            let columns: Vec<&SubGraph> = std::iter::once(&empty).chain(&candidates).collect();
            for config in [zcu104(), zcu104().without_pb()] {
                let table = ServiceTable::build(&config, net, picks, &candidates);
                for (col, &graph) in columns.iter().enumerate() {
                    let mut installed = Accelerator::new(config.clone());
                    installed.install_cache(net, graph.clone());
                    let (resident, reload) = table.install(None, col);
                    for (row, sn) in picks.iter().enumerate() {
                        let case = format!("{} on {}: col {col} row {row}", net.name, config.name);
                        let hit = overlap_ratio(&sn.graph, installed.cached().unwrap_or(&empty));
                        assert_eq!(table.overlap(row, resident).to_bits(), hit.to_bits());
                        let query = price_query(&config, net, sn, installed.cached());
                        let single = table.price(row, resident, 1, 0);
                        assert_eq!(
                            single.total_latency_ms.to_bits(),
                            query.latency_ms.to_bits(),
                            "{case}"
                        );
                        assert_eq!(single.first_item_ms.to_bits(), query.latency_ms.to_bits());
                        assert_eq!(single.traffic, query.traffic, "{case}");
                        assert_eq!(single.energy, query.energy, "{case}");
                        for b in 1..=8 {
                            let mut walk = installed.clone();
                            for pending in [reload, 0] {
                                let want = walk.serve_batch(net, sn, b);
                                let got = table.price(row, resident, b, pending);
                                assert_eq!(
                                    got.total_latency_ms.to_bits(),
                                    want.total_latency_ms.to_bits(),
                                    "{case} b {b}"
                                );
                                assert_eq!(
                                    got.first_item_ms.to_bits(),
                                    want.first_item_ms.to_bits(),
                                    "{case} b {b}"
                                );
                                assert_eq!(got, want, "{case} b {b}");
                            }
                        }
                    }
                    for (next, &next_graph) in columns.iter().enumerate() {
                        let mut walk = installed.clone();
                        let _ = walk.serve_batch(net, &picks[0], 1);
                        walk.install_cache(net, next_graph.clone());
                        let want = walk.serve_batch(net, &picks[0], 1).pb_reload_cycles;
                        assert_eq!(table.install(resident, next).1, want, "col {col} then {next}");
                    }
                }
            }
        }
    }

    #[test]
    fn resnet50_latency_in_plausible_band() {
        // Fig. 13a: ZCU104 serves ResNet50 SubNets in the ~10-50 ms band.
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let r = price_query(&zcu104(), &net, &picks[0], None);
        assert!(r.latency_ms > 1.0 && r.latency_ms < 100.0, "{} ms", r.latency_ms);
    }
}
