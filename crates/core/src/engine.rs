//! The unified engine API: one builder-driven entry point for the whole
//! serving stack.
//!
//! [`EngineBuilder`] names every knob of the vertically integrated stack —
//! workload, scheduler [`Policy`], [`CacheSelection`] rule, caching window
//! `Q`, SushiAbs candidate count, [`AccelConfig`], seed, execution backend
//! and the serving-loop `SimConfig` — all defaulted to the paper's
//! MobileNetV3 / ZCU104 configuration. It produces an [`Engine`]: one
//! scheduler and one executor pool behind two run modes that continue
//! each other's scheduler history and PB contents:
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
use sushi_sched::{CacheSelection, LatencyTable, Policy, Query, Scheduler};
use sushi_tensor::KernelPolicy;
use sushi_wsnet::{zoo, SubGraph, SubNet, SuperNet};

use crate::error::SushiError;
use crate::serving::executor::ExecutorPool;
use crate::serving::sim::{check_constraints, ServedRecord, SimConfig};
use crate::stream::ConstraintSpace;
use crate::variants::{build_tables, sample_candidates};

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
/// The paper's SushiAbs candidate-set size.
pub(crate) const PAPER_CANDIDATES: usize = 16;
/// The paper-default master seed (candidate sampling).
pub(crate) const PAPER_SEED: u64 = 0xC0FFEE;

#[derive(Debug, Clone)]
enum WorkloadSpec {
    Zoo(ModelZoo),
    Custom { net: Arc<SuperNet>, subnets: Vec<SubNet> },
}

/// Builder for [`Engine`]: every knob named, every knob defaulted.
///
/// Defaults reproduce the paper configuration: MobileNetV3 zoo, full
/// SUSHI ([`Policy::StrictAccuracy`] under Algorithm 1's
/// [`CacheSelection::MinDistanceToAvg`]), the workload's caching window
/// `Q`, 16 SushiAbs candidates, the ZCU104 board, seed `0xC0FFEE`, the
/// analytical backend, and a single-worker unbatched serving loop.
///
/// The §5.7 baselines are configurations of the same stack: No-SUSHI is
/// `.accel_config(zcu104().without_pb())` (a PB-less board's table holds
/// only the empty column, so nothing is ever cached), and SUSHI without
/// the scheduler is `.cache_selection(CacheSelection::FollowLast)`.
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
    policy: Policy,
    cache_selection: CacheSelection,
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
            policy: Policy::StrictAccuracy,
            cache_selection: CacheSelection::MinDistanceToAvg,
            q_window: None,
            candidates: PAPER_CANDIDATES,
            accel: sushi_accel::config::zcu104(),
            seed: PAPER_SEED,
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

    /// Sets the hard-constraint scheduling policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the rule that picks the cached SubGraph every `Q` queries
    /// (default: Algorithm 1's [`CacheSelection::MinDistanceToAvg`];
    /// [`CacheSelection::FollowLast`] is the §5.7 state-unaware baseline).
    pub fn cache_selection(mut self, selection: CacheSelection) -> Self {
        self.cache_selection = selection;
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

    /// Assembles the engine: loads the workload, builds the SushiAbs
    /// latency table and the service table over one candidate list, and
    /// instantiates the execution backend.
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
        let candidates = match self.candidate_set {
            Some(candidates) => {
                check_layers(&net, "candidate", &candidates)?;
                candidates
            }
            None => sample_candidates(&net, &subnets, accel, self.candidates, self.seed),
        };
        let (table, service) = build_tables(&net, &subnets, accel, candidates);
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
            sched: Scheduler::new(table, self.policy, self.cache_selection, q_window),
            pool: ExecutorPool::new(Arc::new(service), self.sim.workers),
            config: self.sim,
            backend,
        })
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

/// The assembled serving stack: the workload, the scheduler (which holds
/// the latency table), the executor pool (which holds the service table),
/// the serving-loop configuration and the execution backend, behind two
/// run modes. Their bodies, [`Engine::serve`] and [`Engine::serve_timed`],
/// live in [`crate::serving::sim`].
///
/// # What carries across calls
///
/// An engine carries only SubGraph-Stationary state from one call
/// ([`Engine::serve`], [`Engine::serve_stream`], [`Engine::serve_timed`])
/// to the next, in either mode: the scheduler's AvgNet history and cached
/// choice, each replica's resident SubGraph and crash-lost flag, and the
/// pending install. So `serve_timed` after `serve_stream` starts from the
/// AvgNet state and resident SubGraphs the replay left.
///
/// Time does not carry over: no field holds a clock. The replay keeps
/// none, and each [`Engine::serve_timed`] starts its own replica clocks at
/// `t = 0`; a timed stream's arrivals count from that instant, and so does
/// every time in its [`crate::serving::SimResult`]. Each `serve_timed`
/// also builds its own fault plan, load controller and routing cursor, and
/// every count in its result, adaptation trace and fault summary is its
/// own. Build a fresh engine for an independent run.
#[derive(Debug)]
#[must_use]
pub struct Engine {
    pub(crate) net: Arc<SuperNet>,
    /// The serving set, in latency-table row order.
    pub(crate) subnets: Vec<SubNet>,
    pub(crate) sched: Scheduler,
    pub(crate) pool: ExecutorPool,
    pub(crate) config: SimConfig,
    pub(crate) backend: Box<dyn ExecutionBackend>,
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
        self.sched.table()
    }

    /// The serving-loop configuration used by [`Engine::serve_timed`].
    #[must_use]
    pub fn sim_config(&self) -> &SimConfig {
        &self.config
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

    /// Serves a whole constraint stream through the per-query replay loop,
    /// continuing from the state earlier calls left ([`Engine`]).
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] before serving anything when any
    /// query's constraints are refused as by [`Engine::serve`], and
    /// [`SushiError::Backend`] when the execution backend fails.
    pub fn serve_stream(&mut self, queries: &[Query]) -> Result<Vec<ServedRecord>, SushiError> {
        queries.iter().try_for_each(check_constraints)?;
        queries.iter().map(|q| self.serve(q)).collect()
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
        // A batch policy written as a struct literal skips `BatchPolicy::new`'s
        // checks; the builder makes them again.
        let bad_batches = [
            ("max_batch = 0", BatchPolicy { max_batch: 0, max_wait_ms: 1.0 }),
            ("max_wait_ms = NaN", BatchPolicy { max_batch: 4, max_wait_ms: f64::NAN }),
            ("max_wait_ms = -1", BatchPolicy { max_batch: 4, max_wait_ms: -1.0 }),
            ("max_wait_ms = inf", BatchPolicy { max_batch: 4, max_wait_ms: f64::INFINITY }),
        ];
        for (what, batch) in bad_batches {
            let built = sim(SimConfig { batch, ..SimConfig::default() });
            assert!(matches!(built, Err(SushiError::Config(_))), "{what} was accepted");
        }
        let net = Arc::new(zoo::toy_supernet());
        let err = EngineBuilder::new().workload(net, vec![]).build().expect_err("no SubNets");
        assert!(matches!(&err, SushiError::Config(m) if m == "serving set is empty"), "{err}");
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
        let mut default = EngineBuilder::new().build().unwrap();
        let candidates = sushi_sched::candidates::build_candidate_set(
            default.net(),
            default.subnets(),
            sushi_accel::config::zcu104().buffers.pb_bytes,
            PAPER_CANDIDATES,
            PAPER_SEED,
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
        let build = || EngineBuilder::new().candidates(6).seed(3).sim_config(sim).build().unwrap();
        let space = build().constraint_space();
        let queries = uniform_stream(&space, 60, 8);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(60, 8).unwrap();
        let stream = attach_arrivals(&queries, &arrivals);
        let run = || {
            let mut engine = build();
            let records = engine.serve_stream(&uniform_stream(&space, 30, 5)).unwrap();
            (records, engine.serve_timed(&stream).unwrap())
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
            replay_worker.iter().any(|s| s.start_ms < replay_end),
            "worker 0 keeps the replay's SGS state, not its clock"
        );
        let fresh = build().serve_timed(&stream).unwrap();
        assert_ne!(result, fresh, "the replay's AvgNet history and resident SubGraph carry over");
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

    /// No-SUSHI is a PB-less board by construction: an explicit candidate
    /// set prices no cached column on it, so no record or run ever claims
    /// an install.
    #[test]
    fn pb_less_board_never_installs() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let pb_bytes = sushi_accel::config::zcu104().buffers.pb_bytes;
        let candidates =
            sushi_sched::candidates::build_candidate_set(&net, &picks, pb_bytes, 8, 42);
        assert_eq!(candidates.len(), 8);
        let sim = SimConfig { workers: 2, batch: BatchPolicy::new(4, 2.0), ..SimConfig::default() };
        let build = || {
            EngineBuilder::new()
                .accel_config(sushi_accel::config::zcu104().without_pb())
                .candidate_set(candidates.clone())
                .q_window(10)
                .sim_config(sim)
                .build()
                .unwrap()
        };
        let mut engine = build();
        assert_eq!(engine.table().num_columns(), 1, "a PB-less board has no cached column");
        let space = engine.constraint_space();
        let records = engine.serve_stream(&uniform_stream(&space, 300, 42)).unwrap();
        assert!(records.iter().all(|r| !r.cache_updated && r.hit_ratio == 0.0));
        let queries = uniform_stream(&space, 300, 7);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(300, 7).unwrap();
        let result = build().serve_timed(&attach_arrivals(&queries, &arrivals)).unwrap();
        assert_eq!(result.summary().cache_installs, 0);
    }
}
