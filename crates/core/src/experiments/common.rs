//! Shared experiment context: workloads and option knobs.

use std::sync::Arc;

use sushi_accel::AccelConfig;
use sushi_sched::Query;
use sushi_tensor::KernelPolicy;
use sushi_wsnet::{SubGraph, SubNet, SuperNet};

use crate::engine::{BackendKind, EngineBuilder, ModelZoo, PAPER_CANDIDATES, PAPER_SEED};
use crate::serving::sim::ServedRecord;
use crate::stream::{uniform_stream, ConstraintSpace};
use crate::variants::build_table;

/// Experiment sizing knobs. Defaults regenerate the paper-scale runs;
/// [`ExpOptions::quick`] shrinks `queries` for CI-sized runs.
///
/// `#[non_exhaustive]`: construct via [`Default`] / [`ExpOptions::quick`]
/// and adjust fields, so future knobs are non-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExpOptions {
    /// Query-stream length for serving experiments.
    pub queries: usize,
    /// Candidate-set size for the latency table.
    pub candidates: usize,
    /// Master seed.
    pub seed: u64,
    /// Kernel backend for experiments that execute the functional int8
    /// datapath (`repro --kernel-policy naive|gemm|auto`). Experiment
    /// *outputs* are policy-independent by construction; only wall time
    /// changes.
    pub kernel_policy: KernelPolicy,
    /// Execution backend for the serving-runtime experiments
    /// (`repro --backend analytical|functional`). The analytical default
    /// keeps full-size workloads fast; functional runs the real int8
    /// datapath, in parallel across each preset's workers.
    pub backend: BackendKind,
    /// Whether the serving-runtime presets run with load-adaptive
    /// degradation (tenant-tiered on `multi_tenant`). Off, the static path
    /// stays bit-identical to the pre-adaptive runtime; `preset_bench_rows`
    /// turns it off for the static companion rows of `BENCH_serve.json`.
    pub adaptive: bool,
    /// Whether functional-backend cache installs lower SubNets through the
    /// typed IR and fuse bias/requant/activation into the conv epilogue
    /// (`repro --no-fusion` turns it off). Logits are bit-identical either
    /// way; only wall time changes.
    pub fusion: bool,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            queries: 600,
            candidates: PAPER_CANDIDATES,
            seed: PAPER_SEED,
            kernel_policy: KernelPolicy::Auto,
            backend: BackendKind::Analytical,
            adaptive: true,
            fusion: true,
        }
    }
}

impl ExpOptions {
    /// A reduced configuration for quick smoke runs (`repro --quick`).
    #[must_use]
    pub fn quick() -> Self {
        Self { queries: 120, candidates: 8, ..Self::default() }
    }
}

/// One evaluated workload: a SuperNet and its paper Pareto picks.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The SuperNet.
    pub net: Arc<SuperNet>,
    /// The paper's serving SubNets (A.. in size order).
    pub picks: Vec<SubNet>,
    /// Short label (`"ResNet50"` / `"MobV3"`), as in the paper's figures.
    pub label: &'static str,
    /// The paper's best caching window `Q` for this workload (Appendix A.1).
    pub q_window: usize,
}

/// Loads the ResNet50 workload ([`ModelZoo::ResNet50`]: Q = 8 per Fig. 17).
#[must_use]
pub fn resnet50_workload() -> Workload {
    Workload::zoo(ModelZoo::ResNet50, "ResNet50")
}

/// Loads the MobileNetV3 workload ([`ModelZoo::MobileNetV3`]: Q = 10 per
/// Fig. 18 / Appendix A.1).
#[must_use]
pub fn mobv3_workload() -> Workload {
    Workload::zoo(ModelZoo::MobileNetV3, "MobV3")
}

/// Both paper workloads.
#[must_use]
pub fn both_workloads() -> Vec<Workload> {
    vec![resnet50_workload(), mobv3_workload()]
}

impl Workload {
    fn zoo(zoo: ModelZoo, label: &'static str) -> Self {
        let (net, picks, q_window) = zoo.load();
        Workload { net, picks, label, q_window }
    }

    /// Derives the constraint space from cold latencies on `config`.
    fn constraint_space(&self, config: &AccelConfig, opts: &ExpOptions) -> ConstraintSpace {
        ConstraintSpace::from_table(&build_table(&self.net, &self.picks, config, 0, opts.seed))
    }

    /// The shared SubGraph of the picks, cut down to `config`'s PB: what
    /// the PB holds in steady state.
    pub(crate) fn shared_in_pb(&self, config: &AccelConfig) -> SubGraph {
        let shared = self.net.shared_subgraph(&self.picks);
        self.net.subgraph_to_budget(&shared, config.buffers.pb_bytes)
    }

    /// The stream [`Workload::replay`] serves: `opts.queries` queries drawn
    /// uniformly from the constraint space of `board`'s cold latencies,
    /// seeded `opts.seed ^ salt`.
    pub(crate) fn stream(&self, board: &AccelConfig, salt: u64, opts: &ExpOptions) -> Vec<Query> {
        uniform_stream(&self.constraint_space(board, opts), opts.queries, opts.seed ^ salt)
    }

    /// The uniform-stream replay behind the §5.6–5.7 experiments: serves
    /// [`Workload::stream`], one query at a time, on an analytical engine
    /// that `build` finishes. `build` starts from this workload on `board`
    /// with its own `Q`, `opts.candidates` and `opts.seed`.
    ///
    /// # Panics
    /// Panics only on programmer error: every experiment's engine
    /// configuration is valid and its stream well-formed.
    pub(crate) fn replay(
        &self,
        board: &AccelConfig,
        salt: u64,
        opts: &ExpOptions,
        build: impl FnOnce(EngineBuilder) -> EngineBuilder,
    ) -> Vec<ServedRecord> {
        let builder = EngineBuilder::new()
            .workload(Arc::clone(&self.net), self.picks.clone())
            .accel_config(board.clone())
            .q_window(self.q_window)
            .candidates(opts.candidates)
            .seed(opts.seed);
        let mut engine = build(builder).build().expect("experiment engine configuration is valid");
        engine.serve_stream(&self.stream(board, salt, opts)).expect("analytical serve")
    }
}

/// `quick` for a `--quick`-sized run, `full` otherwise.
pub(crate) fn by_scale<T>(opts: &ExpOptions, quick: T, full: T) -> T {
    if opts.queries <= ExpOptions::quick().queries {
        quick
    } else {
        full
    }
}

/// The smallest and largest of `values`.
pub(crate) fn span(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_accel::config::zcu104;

    #[test]
    fn workloads_have_expected_pick_counts() {
        assert_eq!(resnet50_workload().picks.len(), 6);
        assert_eq!(mobv3_workload().picks.len(), 7);
    }

    #[test]
    fn constraint_space_is_sane() {
        let w = mobv3_workload();
        let s = w.constraint_space(&zcu104(), &ExpOptions::quick());
        assert!(s.acc_lo < s.acc_hi);
        assert!(s.lat_lo < s.lat_hi && s.lat_lo > 0.0);
    }

    #[test]
    fn quick_options_are_smaller() {
        assert!(ExpOptions::quick().queries < ExpOptions::default().queries);
    }
}
