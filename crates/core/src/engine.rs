//! The unified engine API: one builder-driven entry point for the whole
//! serving stack.
//!
//! [`EngineBuilder`] names every knob of the vertically integrated stack —
//! workload, serving [`Variant`], scheduler [`Policy`], caching window `Q`,
//! SushiAbs candidate count, [`AccelConfig`], seed, execution backend and
//! the serving-loop `SimConfig` — all defaulted to the paper's MobileNetV3 /
//! ZCU104 configuration. It produces an [`Engine`]: one run state (the
//! scheduler and executor pool of the serving simulator) behind two run
//! modes that continue each other's scheduler history and PB contents:
//!
//! * [`Engine::serve_stream`] — the per-query replay loop of Fig. 4 (the
//!   §5.6–5.7 experiments), one query at a time on worker 0.
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
use sushi_accel::AccelConfig;
use sushi_sched::{CacheSelection, LatencyTable, Policy, Query};
use sushi_tensor::KernelPolicy;
use sushi_wsnet::{zoo, SubGraph, SubNet, SuperNet};

use crate::error::SushiError;
use crate::serving::sim::{check_constraints, ServedRecord, ServingSim, SimConfig, SimResult};
use crate::stream::{ConstraintSpace, TimedQuery};
use crate::variants::{build_tables, sample_candidates, Variant};

/// The built-in model-zoo workloads (SuperNet + the paper's Pareto picks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelZoo {
    /// OFA-MobileNetV3 with its seven Pareto SubNets (default Q = 10).
    MobileNetV3,
    /// OFA-ResNet50 with its six Pareto SubNets (default Q = 8).
    ResNet50,
}

impl ModelZoo {
    /// The SuperNet, its paper picks and the paper's best caching window
    /// `Q` (Appendix A.1, Figs. 17–18) — the one definition of the paper
    /// zoo, which the experiments' workloads load too.
    pub(crate) fn load(self) -> (Arc<SuperNet>, Vec<SubNet>, usize) {
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
    candidate_set: Option<Vec<SubGraph>>,
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
            candidate_set: None,
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

    /// Sets the SushiAbs candidate-set size (ignored under
    /// [`EngineBuilder::candidate_set`]).
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

    /// Supplies the SushiAbs candidate SubGraphs instead of sampling
    /// [`EngineBuilder::candidates`] of them from the seed (candidate-set
    /// and table-size ablations). The engine prices its latency table and
    /// its service table over these columns, in this order, each as an
    /// install makes it resident: fitted to the PB budget.
    pub fn candidate_set(mut self, candidates: Vec<SubGraph>) -> Self {
        self.candidate_set = Some(candidates);
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
    /// rule, builds the SushiAbs latency table and the service table over
    /// one candidate list, and instantiates the execution backend.
    ///
    /// # Errors
    /// Returns [`SushiError::Config`] on an empty serving set, a zero
    /// `Q`/worker/queue/batch knob, a non-physical [`AccelConfig`] (zero
    /// `kp`/`cp`, a zero or non-finite clock or bandwidth, an effective
    /// bandwidth fraction outside `(0, 1]`), or a serving SubNet or
    /// candidate SubGraph of a different SuperNet.
    pub fn build(self) -> Result<Engine, SushiError> {
        let (net, subnets, default_q) = match self.workload {
            WorkloadSpec::Zoo(z) => z.load(),
            WorkloadSpec::Custom { net, subnets } => (net, subnets, 8),
        };
        if subnets.is_empty() {
            return Err(SushiError::Config("serving set is empty".into()));
        }
        check_layers(&net, "serving", subnets.iter().map(|s| &s.graph))?;
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
        let candidates = match self.candidate_set {
            Some(candidates) => {
                check_layers(&net, "candidate", &candidates)?;
                candidates
            }
            None => sample_candidates(&net, &subnets, &config, self.candidates, self.seed),
        };
        let (table, service) = build_tables(&net, &subnets, &config, candidates);
        let backend: Box<dyn ExecutionBackend> = match self.backend {
            BackendKind::Analytical => Box::new(Analytical),
            BackendKind::Functional => {
                let (rows, cols) = FUNCTIONAL_DPE;
                let dpe = DpeArray::new(rows, cols).with_policy(self.kernel_policy);
                Box::new(Functional::new(dpe, &net, FUNCTIONAL_SEED).with_fusion(self.fusion))
            }
        };
        let sim = ServingSim::from_parts(
            net,
            subnets,
            table,
            Arc::new(service),
            self.policy,
            selection,
            q_window,
            self.sim,
        );
        Ok(Engine { sim, backend })
    }
}

/// Rejects a `what` SubGraph whose layer count is not `net`'s: it belongs
/// to a different SuperNet.
fn check_layers<'a>(
    net: &SuperNet,
    what: &str,
    graphs: impl IntoIterator<Item = &'a SubGraph>,
) -> Result<(), SushiError> {
    match graphs.into_iter().map(SubGraph::num_layers).find(|&n| n != net.num_layers()) {
        Some(n) => Err(SushiError::Config(format!(
            "{what} SubGraph covers {n} layers but the SuperNet has {} layers",
            net.num_layers()
        ))),
        None => Ok(()),
    }
}

/// The assembled serving stack: one run state — scheduler, latency
/// table, service table and executor pool — and the execution backend,
/// behind two run modes.
///
/// What continues across calls and across modes: the scheduler history,
/// each replica's resident SubGraph, the worker clocks, the pending
/// install and the round-robin routing cursor. So `serve_timed` after
/// `serve_stream` starts from the AvgNet state, resident SubGraphs and
/// worker clocks the replay left. What restarts with each
/// [`Engine::serve_timed`]: the fault plan, the load controller, and every
/// count in [`SimResult`] and its adaptation trace and fault summary.
/// Build a fresh engine for an independent run.
#[derive(Debug)]
#[must_use]
pub struct Engine {
    sim: ServingSim,
    backend: Box<dyn ExecutionBackend>,
}

impl Engine {
    /// The SuperNet being served.
    #[must_use]
    pub fn net(&self) -> &SuperNet {
        self.sim.net()
    }

    /// The serving SubNets (latency-table row order).
    #[must_use]
    pub fn subnets(&self) -> &[SubNet] {
        self.sim.subnets()
    }

    /// The SushiAbs latency table.
    #[must_use]
    pub fn table(&self) -> &LatencyTable {
        self.sim.table()
    }

    /// The serving-loop configuration used by [`Engine::serve_timed`].
    #[must_use]
    pub fn sim_config(&self) -> &SimConfig {
        self.sim.config()
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
        ConstraintSpace::from_table(self.table())
    }

    /// Serves one query through the per-query replay loop (Fig. 4) on
    /// the run state's first worker.
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] when the query's accuracy constraint
    /// is NaN or its latency constraint is NaN or negative, and
    /// [`SushiError::Backend`] when the execution backend fails.
    pub fn serve(&mut self, query: &Query) -> Result<ServedRecord, SushiError> {
        self.sim.replay(self.backend.as_mut(), query)
    }

    /// Serves a whole constraint stream through the per-query replay loop,
    /// continuing from any state earlier calls accumulated.
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] before serving anything when any
    /// query's constraints are refused as by [`Engine::serve`], and
    /// [`SushiError::Backend`] when the execution backend fails.
    pub fn serve_stream(&mut self, queries: &[Query]) -> Result<Vec<ServedRecord>, SushiError> {
        queries.iter().try_for_each(check_constraints)?;
        queries.iter().map(|q| self.serve(q)).collect()
    }

    /// Runs the event-driven serving simulation over an arrival-ordered
    /// [`TimedQuery`] stream to completion (open-loop arrivals, bounded
    /// admission queue, dynamic batching, worker pool, SLO accounting).
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] on an empty or unsorted stream, a
    /// non-finite arrival, or a query [`Engine::serve`] would refuse —
    /// checked before anything is served — and [`SushiError::Backend`] when
    /// the execution backend fails.
    pub fn serve_timed(&mut self, stream: &[TimedQuery]) -> Result<SimResult, SushiError> {
        self.sim.run(self.backend.as_mut(), stream)
    }
}

#[cfg(test)]
mod tests {
    use sushi_sched::TenantOptions;

    use super::*;
    use crate::serving::fault::FaultOptions;
    use crate::serving::{ArrivalProcess, BatchPolicy, DropPolicy};
    use crate::stream::{attach_arrivals, uniform_stream};

    #[test]
    fn defaults_build_the_paper_configuration() {
        let engine = EngineBuilder::new().candidates(4).build().unwrap();
        assert_eq!(engine.subnets().len(), 7, "MobileNetV3 paper picks");
        assert!(engine.memory_stats().is_none(), "analytical backend");
        assert_eq!(engine.table().num_columns(), 5, "4 candidates + empty column");
    }

    #[test]
    fn functional_backend_builds_with_multiple_workers() {
        let engine = EngineBuilder::new()
            .backend(BackendKind::Functional)
            .sim_config(SimConfig { workers: 4, ..SimConfig::default() })
            .build()
            .unwrap();
        assert!(engine.memory_stats().is_some(), "functional backend");
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
        // An incoherent controller is a config error, never a panic in
        // `TenantPolicy::new`.
        let bad_controls = [
            ("empty band", TenantOptions { upgrade_threshold: 0.4, ..TenantOptions::global() }),
            ("NaN dwell", TenantOptions { dwell_ms: f64::NAN, ..TenantOptions::default() }),
            ("shield < 1", TenantOptions { shield: 0.5, ..TenantOptions::default() }),
        ];
        for (what, control) in bad_controls {
            let built = sim(SimConfig { control: Some(control), ..SimConfig::default() });
            assert!(matches!(built, Err(SushiError::Config(_))), "{what} was accepted");
        }
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
    fn candidate_set_over_a_different_supernet_names_the_layers() {
        let toy = |net: SuperNet| {
            let net = Arc::new(net);
            let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(4);
            (net, picks)
        };
        let (mbv3, mbv3_picks) = toy(zoo::toy_mobilenet_supernet());
        let (resnet, resnet_picks) = toy(zoo::toy_supernet());
        assert_ne!(mbv3.num_layers(), resnet.num_layers());
        let a = EngineBuilder::new().workload(mbv3, mbv3_picks).candidates(2).build().unwrap();
        let foreign = (1..a.table().num_columns()).map(|j| a.table().column(j).graph.clone());
        let err = EngineBuilder::new()
            .workload(resnet, resnet_picks)
            .candidate_set(foreign.collect())
            .build()
            .unwrap_err();
        assert!(matches!(&err, SushiError::Config(m) if m.contains("layers")), "{err}");
    }

    #[test]
    fn serving_subnets_of_a_different_supernet_are_a_config_error() {
        let resnet = Arc::new(zoo::toy_supernet());
        let mbv3 = zoo::toy_mobilenet_supernet();
        let foreign = sushi_wsnet::sampler::ConfigSampler::new(&mbv3, 5).sample_subnets(1);
        let err = EngineBuilder::new().workload(resnet, foreign).build().unwrap_err();
        assert!(matches!(&err, SushiError::Config(m) if m.contains("serving")), "{err}");
    }

    #[test]
    fn explicit_default_candidate_set_builds_the_default_engine() {
        let seed = 0xC0FFEE;
        let mut default = EngineBuilder::new().build().unwrap();
        let candidates = sushi_sched::candidates::build_candidate_set(
            default.net(),
            default.subnets(),
            sushi_accel::config::zcu104().buffers.pb_bytes,
            16,
            seed,
        );
        let mut explicit = EngineBuilder::new().candidate_set(candidates).build().unwrap();
        assert_eq!(explicit.table(), default.table());
        let queries = uniform_stream(&default.constraint_space(), 200, 11);
        assert_eq!(
            explicit.serve_stream(&queries).unwrap(),
            default.serve_stream(&queries).unwrap()
        );
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
    fn serve_timed_continues_the_replay_run_state() {
        let sim = SimConfig { workers: 2, batch: BatchPolicy::new(4, 2.0), ..SimConfig::default() };
        let run = || {
            let mut engine =
                EngineBuilder::new().candidates(6).seed(3).sim_config(sim).build().unwrap();
            let space = engine.constraint_space();
            let records = engine.serve_stream(&uniform_stream(&space, 30, 5)).unwrap();
            let queries = uniform_stream(&space, 60, 8);
            let arrivals = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(60, 8).unwrap();
            let result = engine.serve_timed(&attach_arrivals(&queries, &arrivals)).unwrap();
            (records, result)
        };
        let (records, result) = run();
        let mut ids: Vec<u64> = result.served.iter().map(|s| s.query.id).collect();
        ids.extend(result.dropped.iter().map(|d| d.timed.query.id));
        ids.sort_unstable();
        assert_eq!(ids, (0..60).collect::<Vec<u64>>(), "each timed query served or dropped once");
        let replay_end: f64 = records.iter().map(|r| r.served_latency_ms).sum();
        let replay_worker: Vec<_> = result.served.iter().filter(|s| s.worker == 0).collect();
        assert!(!replay_worker.is_empty());
        assert!(
            replay_worker.iter().all(|s| s.start_ms >= replay_end),
            "worker 0 keeps the clock the replay left"
        );
        assert_eq!(run(), (records, result), "identical engines, identical runs");
    }

    /// Each `serve_timed` counts only its own run, also after an earlier
    /// run or a replay on the same engine: in a fault-free run every
    /// committed batch is one `(worker, start_ms)` pair of `served`.
    #[test]
    fn each_sim_result_counts_only_its_own_run() {
        let sim = SimConfig { workers: 2, batch: BatchPolicy::new(4, 2.0), ..SimConfig::default() };
        let build = || EngineBuilder::new().candidates(6).seed(3).sim_config(sim).build().unwrap();
        let (mut twice, mut replayed) = (build(), build());
        let space = twice.constraint_space();
        let queries = uniform_stream(&space, 60, 8);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(60, 8).unwrap();
        let stream = attach_arrivals(&queries, &arrivals);
        replayed.serve_stream(&uniform_stream(&space, 30, 5)).unwrap();
        let runs = [
            twice.serve_timed(&stream).unwrap(),
            twice.serve_timed(&stream).unwrap(),
            replayed.serve_timed(&stream).unwrap(),
        ];
        for (i, result) in runs.iter().enumerate() {
            let mut batches: Vec<(usize, u64)> =
                result.served.iter().map(|s| (s.worker, s.start_ms.to_bits())).collect();
            batches.sort_unstable();
            batches.dedup();
            assert_eq!(result.batches, batches.len(), "run {i} counts its own batches");
            assert!(result.summary().mean_batch >= 1.0, "run {i}: {}", result.summary().mean_batch);
        }
    }

    /// A second adaptive run on one engine starts a fresh controller: its
    /// trace totals are its own events, and run 1's dwell clock does not
    /// block its steps.
    #[test]
    fn a_second_adaptive_run_starts_a_fresh_controller() {
        let sim = SimConfig {
            workers: 1,
            queue_capacity: 16,
            drop_policy: DropPolicy::DeadlineAware,
            batch: BatchPolicy::new(4, 1.0),
            control: Some(TenantOptions::global()),
            ..SimConfig::default()
        };
        let mut engine =
            EngineBuilder::new().candidates(6).seed(3).sim_config(sim).build().unwrap();
        let space = engine.constraint_space();
        let queries = uniform_stream(&space, 400, 8);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 400.0 }.timestamps(400, 8).unwrap();
        let stream = attach_arrivals(&queries, &arrivals);
        for run in 0..2 {
            let trace = engine.serve_timed(&stream).unwrap().adaptation.expect("adaptive run");
            assert_eq!(trace.degrades + trace.upgrades, trace.events.len(), "run {run}: {trace:?}");
            assert!(!trace.events.is_empty(), "run {run}: overload steps the ladder");
        }
    }

    #[test]
    fn variants_map_to_cache_behavior() {
        let no_sushi = EngineBuilder::new().variant(Variant::NoSushi).candidates(4).build();
        let engine = no_sushi.unwrap();
        assert_eq!(engine.table().num_columns(), 1, "PB-less variant has no cached columns");
    }
}
