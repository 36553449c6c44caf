//! Shared experiment context: workloads, boards, option knobs.

use std::sync::Arc;

use sushi_accel::config::{alveo_u50, roofline_system, zcu104};
use sushi_accel::AccelConfig;
use sushi_sched::Policy;
use sushi_tensor::KernelPolicy;
use sushi_wsnet::{SubNet, SuperNet};

use crate::engine::{BackendKind, Engine, EngineBuilder, ModelZoo};
use crate::stream::ConstraintSpace;
use crate::variants::{build_table, Variant};

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
            candidates: 16,
            seed: 0xC0FFEE,
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

/// The evaluation boards.
#[must_use]
pub fn boards() -> Vec<AccelConfig> {
    vec![zcu104(), alveo_u50()]
}

/// The §5.2 roofline system.
#[must_use]
pub fn roofline_board() -> AccelConfig {
    roofline_system()
}

impl Workload {
    fn zoo(zoo: ModelZoo, label: &'static str) -> Self {
        let (net, picks, q_window) = zoo.load();
        Workload { net, picks, label, q_window }
    }

    /// Derives the constraint space from cold latencies on `config`.
    #[must_use]
    pub fn constraint_space(&self, config: &AccelConfig, opts: &ExpOptions) -> ConstraintSpace {
        ConstraintSpace::from_table(&build_table(&self.net, &self.picks, config, 0, opts.seed))
    }

    /// Builds an analytical serving [`Engine`] for this workload.
    ///
    /// # Panics
    /// Panics only on programmer error: the experiment knobs passed here
    /// are always a valid engine configuration.
    pub fn engine(
        &self,
        variant: Variant,
        config: &AccelConfig,
        policy: Policy,
        q_window: usize,
        opts: &ExpOptions,
    ) -> Engine {
        EngineBuilder::new()
            .workload(Arc::clone(&self.net), self.picks.clone())
            .variant(variant)
            .accel_config(config.clone())
            .policy(policy)
            .q_window(q_window)
            .candidates(opts.candidates)
            .seed(opts.seed)
            .build()
            .expect("experiment workload configuration is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
