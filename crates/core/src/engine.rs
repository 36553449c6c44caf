//! The unified engine API: one builder-driven entry point for the whole
//! serving stack.
//!
//! [`EngineBuilder`] names every knob of the vertically integrated stack —
//! workload, serving [`Variant`], scheduler [`Policy`], caching window `Q`,
//! SushiAbs candidate count, [`AccelConfig`], seed, execution backend and
//! the serving-loop `SimConfig` — all defaulted to the paper's MobileNetV3 /
//! ZCU104 configuration. It produces an [`Engine`] with two run modes:
//!
//! * [`Engine::serve_stream`] — the per-query batch-replay loop of Fig. 4
//!   (the §5.6–5.7 experiments).
//! * [`Engine::serve_timed`] — the event-driven open-loop serving
//!   simulation (arrivals, bounded queue, dynamic batching, worker pool,
//!   SLO accounting).
//!
//! Both dispatch through a pluggable [`ExecutionBackend`]
//! ([`BackendKind::Analytical`] timing model or [`BackendKind::Functional`]
//! packed int8 datapath), so swapping the backend never changes scheduling
//! or simulated timing — only whether real predictions are recorded.
//!
//! # Example
//!
//! ```
//! use sushi_core::engine::EngineBuilder;
//! use sushi_core::stream::uniform_stream;
//!
//! // Paper defaults: MobileNetV3 on ZCU104, full SUSHI, analytical backend.
//! let mut engine = EngineBuilder::new().candidates(4).build()?;
//! let space = engine.constraint_space();
//! let records = engine.serve_stream(&uniform_stream(&space, 10, 7))?;
//! assert!(records.iter().all(|r| r.served_accuracy >= r.query.accuracy_constraint));
//! # Ok::<(), sushi_core::SushiError>(())
//! ```

use std::str::FromStr;
use std::sync::Arc;

use sushi_accel::backend::{Analytical, ExecutionBackend, Functional};
use sushi_accel::dpe::DpeArray;
use sushi_accel::exec::ServiceTable;
use sushi_accel::AccelConfig;
use sushi_sched::{CacheSelection, LatencyTable, Policy, Query};
use sushi_tensor::KernelPolicy;
use sushi_wsnet::{zoo, SubGraph, SubNet, SuperNet};

use crate::error::SushiError;
use crate::serving::sim::{ServingSim, SimConfig, SimResult};
use crate::stack::{ServedRecord, SushiStack};
use crate::stream::{ConstraintSpace, TimedQuery};
use crate::variants::{build_tables, Variant};

/// The built-in model-zoo workloads (SuperNet + the paper's Pareto picks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelZoo {
    /// OFA-MobileNetV3 with its seven Pareto SubNets (default Q = 10).
    MobileNetV3,
    /// OFA-ResNet50 with its six Pareto SubNets (default Q = 8).
    ResNet50,
}

impl ModelZoo {
    fn load(self) -> (Arc<SuperNet>, Vec<SubNet>, usize) {
        match self {
            ModelZoo::MobileNetV3 => {
                let net = Arc::new(zoo::mobilenet_v3_supernet());
                let picks = zoo::paper_subnets(&net);
                (net, picks, 10)
            }
            ModelZoo::ResNet50 => {
                let net = Arc::new(zoo::resnet50_supernet());
                let picks = zoo::paper_subnets(&net);
                (net, picks, 8)
            }
        }
    }
}

/// Which [`ExecutionBackend`] the engine dispatches batches through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Timing/energy model only (full-size nets simulate in microseconds).
    Analytical,
    /// Timing model plus the bit-exact packed int8 datapath (toy-zoo
    /// scale; records per-query predictions). Workers share one pack-once
    /// weight cache per SubNet and execute concurrently, so logits are
    /// bit-identical across worker counts.
    Functional,
}

impl BackendKind {
    /// Stable label, matching the `--backend` CLI flag values.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Analytical => "analytical",
            BackendKind::Functional => "functional",
        }
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytical" => Ok(BackendKind::Analytical),
            "functional" => Ok(BackendKind::Functional),
            other => Err(format!("unknown backend '{other}' (expected analytical|functional)")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// DPE-array geometry `(rows, cols)` of the functional datapath. Simulated
/// time comes from the [`AccelConfig`], never from this array.
const FUNCTIONAL_DPE: (usize, usize) = (4, 4);
/// Seed for the functional backend's synthesized weights and per-query
/// inputs.
const FUNCTIONAL_SEED: u64 = 42;

#[derive(Debug, Clone)]
enum WorkloadSpec {
    Zoo(ModelZoo),
    Custom { net: Arc<SuperNet>, subnets: Vec<SubNet> },
}

/// Builder for [`Engine`]: every knob named, every knob defaulted.
///
/// Defaults reproduce the paper configuration: MobileNetV3 zoo, full
/// [`Variant::Sushi`], [`Policy::StrictAccuracy`], the workload's caching
/// window `Q`, 16 SushiAbs candidates, the ZCU104 board, seed `0xC0FFEE`,
/// the analytical backend, and a single-worker unbatched serving loop.
///
/// ```
/// use sushi_core::engine::{BackendKind, EngineBuilder, ModelZoo};
/// use sushi_sched::Policy;
///
/// let engine = EngineBuilder::new()
///     .zoo(ModelZoo::MobileNetV3)
///     .policy(Policy::StrictAccuracy)
///     .q_window(10)
///     .candidates(4)
///     .backend(BackendKind::Analytical)
///     .build()?;
/// assert_eq!(engine.subnets().len(), 7);
/// # Ok::<(), sushi_core::SushiError>(())
/// ```
#[derive(Debug, Clone)]
#[must_use]
pub struct EngineBuilder {
    workload: WorkloadSpec,
    variant: Variant,
    policy: Policy,
    selection_override: Option<CacheSelection>,
    q_window: Option<usize>,
    candidates: usize,
    accel: AccelConfig,
    seed: u64,
    backend: BackendKind,
    kernel_policy: KernelPolicy,
    fusion: bool,
    table_override: Option<LatencyTable>,
    sim: SimConfig,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Starts from the paper-default configuration.
    pub fn new() -> Self {
        Self {
            workload: WorkloadSpec::Zoo(ModelZoo::MobileNetV3),
            variant: Variant::Sushi,
            policy: Policy::StrictAccuracy,
            selection_override: None,
            q_window: None,
            candidates: 16,
            accel: sushi_accel::config::zcu104(),
            seed: 0xC0FFEE,
            backend: BackendKind::Analytical,
            kernel_policy: KernelPolicy::Auto,
            fusion: true,
            table_override: None,
            sim: SimConfig::default(),
        }
    }

    /// Selects a built-in zoo workload (SuperNet + paper Pareto picks).
    pub fn zoo(mut self, zoo: ModelZoo) -> Self {
        self.workload = WorkloadSpec::Zoo(zoo);
        self
    }

    /// Serves a custom SuperNet with an explicit serving set (e.g. sampled
    /// toy-zoo SubNets for functional runs).
    pub fn workload(mut self, net: Arc<SuperNet>, subnets: Vec<SubNet>) -> Self {
        self.workload = WorkloadSpec::Custom { net, subnets };
        self
    }

    /// Selects the §5.7 serving variant (default: full SUSHI).
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the hard-constraint scheduling policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the cache-selection rule the variant implies (ablations:
    /// cosine distance, frozen first choice, …).
    pub fn cache_selection(mut self, selection: CacheSelection) -> Self {
        self.selection_override = Some(selection);
        self
    }

    /// Sets Algorithm 1's caching window `Q` (default: the workload's
    /// paper value — 10 for MobileNetV3, 8 otherwise).
    pub fn q_window(mut self, q: usize) -> Self {
        self.q_window = Some(q);
        self
    }

    /// Sets the SushiAbs candidate-set size.
    pub fn candidates(mut self, n: usize) -> Self {
        self.candidates = n;
        self
    }

    /// Sets the accelerator configuration (default: ZCU104).
    pub fn accel_config(mut self, config: AccelConfig) -> Self {
        self.accel = config;
        self
    }

    /// Sets the master seed (candidate sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the execution backend (default: analytical).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the functional backend's host-simulation kernel policy
    /// (default [`KernelPolicy::Auto`]; logits are bit-identical under
    /// every policy).
    pub fn kernel_policy(mut self, policy: KernelPolicy) -> Self {
        self.kernel_policy = policy;
        self
    }

    /// Enables or disables the functional backend's IR-lowered epilogue
    /// fusion (default on; logits are bit-identical either way).
    pub fn fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Supplies a pre-built latency table instead of building one from the
    /// accelerator configuration (candidate-set ablations). Its rows must
    /// match the serving set.
    pub fn table(mut self, table: LatencyTable) -> Self {
        self.table_override = Some(table);
        self
    }

    /// Sets the serving loop of [`Engine::serve_timed`]: pool size, queue,
    /// batching, routing, the load-adaptive controller and the fault plan
    /// (default: [`SimConfig::default`], one static unbatched worker). The
    /// one way a serving configuration enters an engine; write it as a
    /// struct literal, `SimConfig { workers: 2, ..SimConfig::default() }`.
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Assembles the engine: loads the workload, derives the
    /// variant-adjusted accelerator configuration and cache-selection
    /// rule, builds (or adopts) the SushiAbs latency table, builds the
    /// service table over the same columns, and instantiates the execution
    /// backend.
    ///
    /// # Errors
    /// Returns [`SushiError::Config`] on an empty serving set, a zero
    /// `Q`/worker/queue/batch knob, a non-physical [`AccelConfig`] (zero
    /// `kp`/`cp`, a zero or non-finite clock or bandwidth, an effective
    /// bandwidth fraction outside `(0, 1]`), or a latency-table/serving-set
    /// mismatch.
    pub fn build(self) -> Result<Engine, SushiError> {
        let (net, subnets, default_q) = match self.workload {
            WorkloadSpec::Zoo(z) => z.load(),
            WorkloadSpec::Custom { net, subnets } => (net, subnets, 8),
        };
        if subnets.is_empty() {
            return Err(SushiError::Config("serving set is empty".into()));
        }
        let q_window = self.q_window.unwrap_or(default_q);
        if q_window == 0 {
            return Err(SushiError::Config("cache window Q must be at least 1".into()));
        }
        if self.sim.workers == 0 {
            return Err(SushiError::Config("worker count must be at least 1".into()));
        }
        if self.sim.queue_capacity == 0 {
            return Err(SushiError::Config("queue capacity must be at least 1".into()));
        }
        if let Some(opts) = &self.sim.control {
            if let Err(e) = opts.validate() {
                return Err(SushiError::Config(e));
            }
        }
        if let Some(opts) = &self.sim.faults {
            if let Err(e) = opts.validate() {
                return Err(SushiError::Config(e));
            }
        }
        if self.sim.batch.max_batch == 0 {
            return Err(SushiError::Config("batch size must be at least 1".into()));
        }
        if !(self.sim.batch.max_wait_ms.is_finite() && self.sim.batch.max_wait_ms >= 0.0) {
            return Err(SushiError::Config("batch wait must be finite and non-negative".into()));
        }
        // The timing model divides by every one of these, so a zero or
        // non-finite value yields a panic or an absurd latency downstream.
        let accel = &self.accel;
        if accel.kp == 0 || accel.cp == 0 {
            return Err(SushiError::Config(
                "DPE array parallelism kp, cp must be at least 1".into(),
            ));
        }
        for (name, v) in [
            ("clock freq_mhz", accel.freq_mhz),
            ("offchip_gbps", accel.offchip_gbps),
            ("onchip_bw_ratio", accel.onchip_bw_ratio),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(SushiError::Config(format!(
                    "accelerator {name} must be finite and positive, got {v}"
                )));
            }
        }
        if !(accel.effective_bw_fraction > 0.0 && accel.effective_bw_fraction <= 1.0) {
            return Err(SushiError::Config(format!(
                "accelerator effective_bw_fraction must be in (0, 1], got {}",
                accel.effective_bw_fraction
            )));
        }
        let (config, derived_selection) = match self.variant {
            Variant::NoSushi => (self.accel.without_pb(), CacheSelection::Disabled),
            Variant::SushiNoSched => (self.accel.clone(), CacheSelection::FollowLast),
            Variant::Sushi => (self.accel.clone(), CacheSelection::MinDistanceToAvg),
        };
        let selection = self.selection_override.unwrap_or(derived_selection);
        let (table, service) = match self.table_override {
            Some(table) => {
                if table.num_rows() != subnets.len() {
                    return Err(SushiError::Config(format!(
                        "latency table has {} rows but the serving set has {} SubNets",
                        table.num_rows(),
                        subnets.len()
                    )));
                }
                let mut layers =
                    (0..table.num_columns()).map(|j| table.column(j).graph.num_layers());
                if let Some(n) = layers.find(|&n| n != net.num_layers()) {
                    return Err(SushiError::Config(format!(
                        "latency table columns cover {n} layers but the SuperNet has {} layers",
                        net.num_layers()
                    )));
                }
                let candidates: Vec<SubGraph> =
                    (1..table.num_columns()).map(|j| table.column(j).graph.clone()).collect();
                (table, ServiceTable::build(&config, &net, &subnets, &candidates))
            }
            None => build_tables(&net, &subnets, &config, self.candidates, self.seed),
        };
        let backend: Box<dyn ExecutionBackend> = match self.backend {
            BackendKind::Analytical => Box::new(Analytical),
            BackendKind::Functional => {
                let (rows, cols) = FUNCTIONAL_DPE;
                let dpe = DpeArray::new(rows, cols).with_policy(self.kernel_policy);
                Box::new(Functional::new(dpe, &net, FUNCTIONAL_SEED).with_fusion(self.fusion))
            }
        };
        Ok(Engine {
            net,
            subnets,
            table,
            service: Arc::new(service),
            policy: self.policy,
            selection,
            q_window,
            sim: self.sim,
            backend,
            stack: None,
            timed: None,
        })
    }
}

/// The assembled serving stack: scheduler, latency table, service table
/// and execution backend behind two run modes.
///
/// Each run mode keeps its own state (scheduler history, Persistent-Buffer
/// contents, worker clocks) across calls, exactly like the pre-builder
/// `SushiStack` / `ServingSim` objects did; build a fresh engine for an
/// independent run.
#[derive(Debug)]
#[must_use]
pub struct Engine {
    net: Arc<SuperNet>,
    subnets: Vec<SubNet>,
    table: LatencyTable,
    service: Arc<ServiceTable>,
    policy: Policy,
    selection: CacheSelection,
    q_window: usize,
    sim: SimConfig,
    backend: Box<dyn ExecutionBackend>,
    stack: Option<SushiStack>,
    timed: Option<ServingSim>,
}

impl Engine {
    /// The SuperNet being served.
    #[must_use]
    pub fn net(&self) -> &SuperNet {
        &self.net
    }

    /// The serving SubNets (latency-table row order).
    #[must_use]
    pub fn subnets(&self) -> &[SubNet] {
        &self.subnets
    }

    /// The SushiAbs latency table.
    #[must_use]
    pub fn table(&self) -> &LatencyTable {
        &self.table
    }

    /// The serving-loop configuration used by [`Engine::serve_timed`].
    #[must_use]
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// Stable label of the active execution backend.
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Memory the execution backend holds across batches (packed panels +
    /// kernel-scratch arena); `None` for the stateless analytical backend.
    /// Soak tests assert this stays flat once every serving SubNet has
    /// been packed.
    #[must_use]
    pub fn memory_stats(&self) -> Option<sushi_accel::MemoryStats> {
        self.backend.memory_stats()
    }

    /// Derives the query-constraint space from the serving set's accuracy
    /// band and cold (uncached) latencies — the standard way to sample
    /// meaningful streams for this engine.
    #[must_use]
    pub fn constraint_space(&self) -> ConstraintSpace {
        let accs: Vec<f64> = self.subnets.iter().map(|p| p.accuracy).collect();
        let lats: Vec<f64> =
            (0..self.table.num_rows()).map(|i| self.table.latency_ms(i, 0)).collect();
        ConstraintSpace::from_serving_set(&accs, &lats)
    }

    /// Serves one query through the batch-replay loop (Fig. 4).
    ///
    /// # Errors
    /// Returns [`SushiError::Backend`] when the execution backend fails.
    pub fn serve(&mut self, query: &Query) -> Result<ServedRecord, SushiError> {
        let Self {
            net, subnets, table, service, policy, selection, q_window, backend, stack, ..
        } = self;
        let stack = stack.get_or_insert_with(|| {
            SushiStack::from_parts(
                Arc::clone(net),
                subnets.clone(),
                table.clone(),
                Arc::clone(service),
                *policy,
                *selection,
                *q_window,
            )
        });
        stack.serve(backend.as_mut(), query)
    }

    /// Serves a whole constraint stream through the batch-replay loop,
    /// continuing from any state earlier calls accumulated.
    ///
    /// # Errors
    /// Returns [`SushiError::Backend`] when the execution backend fails.
    pub fn serve_stream(&mut self, queries: &[Query]) -> Result<Vec<ServedRecord>, SushiError> {
        queries.iter().map(|q| self.serve(q)).collect()
    }

    /// Runs the event-driven serving simulation over an arrival-ordered
    /// [`TimedQuery`] stream to completion (open-loop arrivals, bounded
    /// admission queue, dynamic batching, worker pool, SLO accounting).
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] on an empty or unsorted stream and
    /// [`SushiError::Backend`] when the execution backend fails.
    pub fn serve_timed(&mut self, stream: &[TimedQuery]) -> Result<SimResult, SushiError> {
        let Self {
            net,
            subnets,
            table,
            service,
            policy,
            selection,
            q_window,
            sim,
            backend,
            timed,
            ..
        } = self;
        let runtime = timed.get_or_insert_with(|| {
            ServingSim::from_parts(
                Arc::clone(net),
                subnets.clone(),
                table.clone(),
                Arc::clone(service),
                *policy,
                *selection,
                *q_window,
                *sim,
            )
        });
        runtime.run(backend.as_mut(), stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::fault::FaultOptions;
    use crate::stream::uniform_stream;

    #[test]
    fn defaults_build_the_paper_configuration() {
        let engine = EngineBuilder::new().candidates(4).build().unwrap();
        assert_eq!(engine.subnets().len(), 7, "MobileNetV3 paper picks");
        assert_eq!(engine.backend_name(), "analytical");
        assert_eq!(engine.table().num_columns(), 5, "4 candidates + empty column");
    }

    #[test]
    fn functional_backend_builds_with_multiple_workers() {
        let engine = EngineBuilder::new()
            .backend(BackendKind::Functional)
            .sim_config(SimConfig { workers: 4, ..SimConfig::default() })
            .build()
            .unwrap();
        assert_eq!(engine.backend_name(), "functional");
        assert_eq!(engine.sim_config().workers, 4);
    }

    #[test]
    fn degenerate_knobs_are_config_errors() {
        assert!(EngineBuilder::new().q_window(0).build().is_err());
        let sim = |sim: SimConfig| EngineBuilder::new().sim_config(sim).build();
        assert!(sim(SimConfig { workers: 0, ..SimConfig::default() }).is_err());
        assert!(sim(SimConfig { queue_capacity: 0, ..SimConfig::default() }).is_err());
        let bad_faults = FaultOptions { transient_rate: 2.0, ..FaultOptions::default() };
        assert!(sim(SimConfig { faults: Some(bad_faults), ..SimConfig::default() }).is_err());
    }

    #[test]
    fn non_physical_accel_configs_are_config_errors() {
        use sushi_accel::config::{alveo_u50, roofline_system, zcu104};
        type Breaker = fn(&mut AccelConfig);
        let cases: [(&str, Breaker); 11] = [
            ("kp = 0", |c| c.kp = 0),
            ("cp = 0", |c| c.cp = 0),
            ("freq_mhz = 0", |c| c.freq_mhz = 0.0),
            ("freq_mhz = NaN", |c| c.freq_mhz = f64::NAN),
            ("offchip_gbps = 0", |c| c.offchip_gbps = 0.0),
            ("offchip_gbps = inf", |c| c.offchip_gbps = f64::INFINITY),
            ("onchip_bw_ratio = 0", |c| c.onchip_bw_ratio = 0.0),
            ("onchip_bw_ratio = -1", |c| c.onchip_bw_ratio = -1.0),
            ("effective_bw_fraction = 0", |c| c.effective_bw_fraction = 0.0),
            ("effective_bw_fraction = 1.5", |c| c.effective_bw_fraction = 1.5),
            ("effective_bw_fraction = NaN", |c| c.effective_bw_fraction = f64::NAN),
        ];
        for (what, break_it) in cases {
            let mut config = zcu104();
            break_it(&mut config);
            let built = EngineBuilder::new().candidates(4).accel_config(config).build();
            assert!(matches!(built, Err(SushiError::Config(_))), "{what} was accepted");
        }
        for config in [zcu104(), alveo_u50(), roofline_system()] {
            assert!(EngineBuilder::new().candidates(0).accel_config(config).build().is_ok());
        }
    }

    #[test]
    fn mismatched_table_override_is_a_config_error() {
        let a = EngineBuilder::new().zoo(ModelZoo::ResNet50).candidates(0).build().unwrap();
        let err = EngineBuilder::new()
            .zoo(ModelZoo::MobileNetV3)
            .table(a.table().clone())
            .build()
            .unwrap_err();
        assert!(matches!(&err, SushiError::Config(m) if m.contains("rows")), "{err}");
    }

    #[test]
    fn table_override_over_a_different_supernet_names_the_layers() {
        let toy = |net: SuperNet| {
            let net = Arc::new(net);
            let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(4);
            (net, picks)
        };
        let (mbv3, mbv3_picks) = toy(zoo::toy_mobilenet_supernet());
        let (resnet, resnet_picks) = toy(zoo::toy_supernet());
        assert_ne!(mbv3.num_layers(), resnet.num_layers());
        let a = EngineBuilder::new().workload(mbv3, mbv3_picks).candidates(2).build().unwrap();
        let err = EngineBuilder::new()
            .workload(resnet, resnet_picks)
            .table(a.table().clone())
            .build()
            .unwrap_err();
        assert!(matches!(&err, SushiError::Config(m) if m.contains("layers")), "{err}");
    }

    #[test]
    fn backend_kind_round_trips_through_names() {
        for kind in [BackendKind::Analytical, BackendKind::Functional] {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("fpga".parse::<BackendKind>().is_err());
    }

    #[test]
    fn serve_stream_state_persists_across_calls() {
        let mut split = EngineBuilder::new().candidates(6).seed(3).build().unwrap();
        let mut whole = EngineBuilder::new().candidates(6).seed(3).build().unwrap();
        let space = split.constraint_space();
        let queries = uniform_stream(&space, 30, 5);
        let a = split.serve_stream(&queries[..15]).unwrap();
        let b = split.serve_stream(&queries[15..]).unwrap();
        let all = whole.serve_stream(&queries).unwrap();
        let joined: Vec<_> = a.into_iter().chain(b).collect();
        assert_eq!(joined, all, "two half-streams must equal one whole stream");
    }

    #[test]
    fn variants_map_to_cache_behavior() {
        let no_sushi = EngineBuilder::new().variant(Variant::NoSushi).candidates(4).build();
        let engine = no_sushi.unwrap();
        assert_eq!(engine.table().num_columns(), 1, "PB-less variant has no cached columns");
    }
}
