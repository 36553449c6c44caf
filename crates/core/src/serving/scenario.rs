//! Scenario presets: canned traffic mixes for the serving runtime.
//!
//! Each preset pairs an arrival process with a constraint stream and a
//! serving-loop configuration, sized relative to the workload's own
//! service capacity (mean cold latency on the board) so the regimes stay
//! meaningful as the simulator or zoo evolves:
//!
//! | Preset | Arrivals | Constraints | Queue policy |
//! |--------|----------|-------------|--------------|
//! | `steady` | Poisson @ 50% capacity | uniform | drop-newest |
//! | `burst` | MMPP, 1.8× capacity bursts | ICU triage | deadline-aware |
//! | `diurnal` | sinusoidal ramp 25%→135% | uniform | drop-oldest |
//! | `multi_tenant` | AV Poisson + ICU MMPP | AV ∪ ICU | deadline-aware |
//! | `overload` | Poisson @ 160% capacity | uniform | deadline-aware |
//! | `deadline_mix` | Poisson @ 90% capacity | tight/loose interleave | deadline-aware |
//! | `failover` | Poisson @ 55%, outage → recovery burst | uniform | deadline-aware |
//! | `scale` | Poisson @ 10× the 2-worker rates, 8 replicas | accuracy-band interleave | deadline-aware |
//! | `chaos` | Poisson @ 1.4× the 2-worker anchor, 4 replicas + fault plan | uniform | deadline-aware |
//!
//! All presets run the full SUSHI stack (state-aware caching, dynamic
//! batching, a replica pool with routed installs) on the MobileNetV3
//! workload over the ZCU104 board model, and are deterministic in
//! `(preset, opts)`. Capacity is always anchored to the historical
//! two-worker pool so arrival rates stay comparable across presets;
//! `scale` is the scale-out regime — eight replicas, ten times the
//! baseline arrival rate, and a cache-swap-heavy accuracy mix routed with
//! [`RoutingPolicy::CacheAffinity`]. `chaos` is the robustness regime — a
//! four-replica pool under a deterministic fault plan (crashes with
//! outages, straggler episodes, transient batch failures) served by the
//! supervised executor pool; [`run_scenario_unsupervised`] is its
//! ablation baseline. With `opts.adaptive` (the default)
//! the serving loop degrades SubNet selection under pressure
//! ([`sushi_sched::AdaptivePolicy`]); `overload`, `deadline_mix` and
//! `failover` exist to exercise exactly that loop — sustained overload, a
//! deadline mix where only the loose half has slack to give, and a
//! recovery burst after an upstream outage.
//!
//! [`run_functional_scaling`] is the worker-scaling companion: one
//! cache-swap-heavy toy-zoo stream served by the *functional* backend at
//! 1/2/4/8 replicas (real parallel int8 forwards), reported as the
//! `scale_functional` rows of `BENCH_serve.json`.

use std::sync::Arc;

use sushi_accel::config::zcu104;
use sushi_sched::{AdaptiveOptions, PredictorOptions, Query, TenantOptions, TenantTier};

use crate::engine::EngineBuilder;
use crate::error::SushiError;
use crate::experiments::common::{mobv3_workload, ExpOptions, Workload};
use crate::metrics::ServeSummary;
use crate::serving::arrivals::ArrivalProcess;
use crate::serving::batch::BatchPolicy;
use crate::serving::fault::FaultOptions;
use crate::serving::queue::DropPolicy;
use crate::serving::routing::RoutingPolicy;
use crate::serving::sim::{SimConfig, SimResult};
use crate::stream::{
    attach_arrivals, av_navigation_stream, icu_burst_stream, merge_tenant_streams, uniform_stream,
    ConstraintSpace, TimedQuery,
};
use crate::variants::build_table;

/// The canned serving scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePreset {
    /// Steady Poisson traffic at comfortable load.
    Steady,
    /// Calm/burst MMPP traffic that transiently exceeds capacity.
    Burst,
    /// Slow sinusoidal load swing crossing capacity at the crest.
    Diurnal,
    /// An AV tenant and an ICU tenant sharing the same serving stack.
    MultiTenant,
    /// Sustained arrivals well above capacity: without degradation the
    /// queue pins at its cap and sheds continuously.
    Overload,
    /// Tight and loose deadlines interleaved near capacity: only the loose
    /// half has slack for the adaptive loop to spend.
    DeadlineMix,
    /// Calm traffic, an upstream outage, then the buffered backlog
    /// arriving as one recovery burst.
    Failover,
    /// The scale-out regime: eight replicas, arrivals at ten times the
    /// two-worker baseline rate, and an accuracy mix that bounces the
    /// scheduler between SubNets — the cache-swap-heavy load where
    /// per-replica cache state and affinity routing matter.
    Scale,
    /// The fault-injection regime: four replicas under moderate load with
    /// a deterministic fault plan — replica crashes with outages,
    /// straggler episodes, and transient batch failures — served by the
    /// supervised executor pool (retry, hedging, quarantine/recovery).
    Chaos,
}

impl ServePreset {
    /// All presets, in report order.
    pub const ALL: [ServePreset; 9] = [
        ServePreset::Steady,
        ServePreset::Burst,
        ServePreset::Diurnal,
        ServePreset::MultiTenant,
        ServePreset::Overload,
        ServePreset::DeadlineMix,
        ServePreset::Failover,
        ServePreset::Scale,
        ServePreset::Chaos,
    ];

    /// Stable scenario label (used in reports and `BENCH_serve.json`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ServePreset::Steady => "steady",
            ServePreset::Burst => "burst",
            ServePreset::Diurnal => "diurnal",
            ServePreset::MultiTenant => "multi_tenant",
            ServePreset::Overload => "overload",
            ServePreset::DeadlineMix => "deadline_mix",
            ServePreset::Failover => "failover",
            ServePreset::Scale => "scale",
            ServePreset::Chaos => "chaos",
        }
    }

    /// Parses a scenario label.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The preset's own pool size (what `BENCH_serve.json` rows record
    /// when `opts.workers` is `None`).
    #[must_use]
    pub fn default_workers(&self) -> usize {
        match self {
            ServePreset::Scale => 8,
            ServePreset::Chaos => 4,
            _ => 2,
        }
    }

    /// The preset's own routing policy (what `BENCH_serve.json` rows
    /// record when `opts.routing` is `None`).
    #[must_use]
    pub fn default_routing(&self) -> RoutingPolicy {
        match self {
            ServePreset::Scale | ServePreset::Chaos => RoutingPolicy::CacheAffinity,
            _ => RoutingPolicy::LeastLoaded,
        }
    }
}

/// A fully materialized scenario: the stream plus every serving knob.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label.
    pub name: &'static str,
    /// Arrival-ordered query stream.
    pub stream: Vec<TimedQuery>,
    /// Serving-loop configuration.
    pub sim: SimConfig,
    /// Scheduler caching window `Q`.
    pub q_window: usize,
}

/// Builds a preset scenario under the given experiment sizing.
///
/// # Panics
/// Panics only on programmer error (empty zoo serving set).
#[must_use]
pub fn build_scenario(preset: ServePreset, opts: &ExpOptions) -> Scenario {
    build_scenario_for(&mobv3_workload(), preset, opts)
}

/// [`build_scenario`] over an already-loaded workload (lets
/// [`run_scenario`] share one workload and probe table per run).
fn build_scenario_for(workload: &Workload, preset: ServePreset, opts: &ExpOptions) -> Scenario {
    let board = zcu104();
    // One candidate-free probe table yields both the constraint space and
    // the capacity anchor (mean cold latency of the serving set).
    let probe = build_table(&workload.net, &workload.picks, &board, 0, opts.seed);
    let accs: Vec<f64> = workload.picks.iter().map(|p| p.accuracy).collect();
    let colds: Vec<f64> = (0..probe.num_rows()).map(|i| probe.latency_ms(i, 0)).collect();
    // The replay experiments' constraint band spans bare *service* latency
    // (0.8×min cold … 1.1×max cold). An open-loop deadline must also cover
    // queueing, batching delay and cache swaps, so serving scenarios widen
    // the band: deadlines from 2× the fastest to 2.5× the slowest cold
    // latency. Accuracy constraints are taken as-is.
    let mut space = ConstraintSpace::from_serving_set(&accs, &colds);
    space.lat_lo *= 2.0;
    space.lat_hi *= 2.5;
    let mean_cold_ms = colds.iter().sum::<f64>() / colds.len() as f64;
    // Capacity is anchored to the historical two-worker pool for *every*
    // preset (including the 8-replica `scale`), so the arrival-rate
    // multipliers below stay comparable across presets.
    let capacity_qps = 2.0 * 1e3 / mean_cold_ms;
    let n = opts.queries;
    let seed = opts.seed ^ 0x5E87;
    let batch = BatchPolicy::new(4, 0.25 * mean_cold_ms);
    // Every preset runs the global ladder and no fault plan unless its arm
    // says otherwise; an arm states only what differs.
    let mut control = opts.adaptive.then(|| TenantOptions::global(AdaptiveOptions::default()));
    let mut faults = None;

    let (stream, queue_capacity, drop_policy) = match preset {
        ServePreset::Steady => {
            let qs = uniform_stream(&space, n, seed);
            let arrivals = ArrivalProcess::Poisson { rate_qps: 0.50 * capacity_qps }
                .timestamps(n, seed ^ 0x01);
            (attach_arrivals(&qs, &arrivals), 64, DropPolicy::DropNewest)
        }
        ServePreset::Burst => {
            let qs: Vec<_> =
                icu_burst_stream(&space, n, 40, 12, seed).into_iter().map(|(_, q)| q).collect();
            let arrivals = ArrivalProcess::Mmpp {
                calm_qps: 0.30 * capacity_qps,
                burst_qps: 1.8 * capacity_qps,
                mean_calm_ms: 40.0 * mean_cold_ms,
                mean_burst_ms: 10.0 * mean_cold_ms,
            }
            .timestamps(n, seed ^ 0x02);
            (attach_arrivals(&qs, &arrivals), 32, DropPolicy::DeadlineAware)
        }
        ServePreset::Diurnal => {
            let qs = uniform_stream(&space, n, seed);
            // Aim for ~3 full day/night cycles across the run.
            let mean_qps = f64::midpoint(0.25, 1.35) * capacity_qps;
            let period_ms = (n as f64 / mean_qps) * 1e3 / 3.0;
            let arrivals = ArrivalProcess::DiurnalRamp {
                base_qps: 0.25 * capacity_qps,
                peak_qps: 1.35 * capacity_qps,
                period_ms,
            }
            .timestamps(n, seed ^ 0x03);
            (attach_arrivals(&qs, &arrivals), 48, DropPolicy::DropOldest)
        }
        ServePreset::MultiTenant => {
            let n_av = n / 2;
            let n_icu = n - n_av;
            let av: Vec<_> = av_navigation_stream(&space, n_av, n_av.max(8) / 4, seed)
                .into_iter()
                .map(|(_, q)| q)
                .collect();
            let av_arrivals = ArrivalProcess::Poisson { rate_qps: 0.25 * capacity_qps }
                .timestamps(n_av, seed ^ 0x04);
            let icu: Vec<_> = icu_burst_stream(&space, n_icu, 30, 10, seed ^ 0x05)
                .into_iter()
                .map(|(_, q)| q)
                .collect();
            let icu_arrivals = ArrivalProcess::Mmpp {
                calm_qps: 0.20 * capacity_qps,
                burst_qps: 1.2 * capacity_qps,
                mean_calm_ms: 50.0 * mean_cold_ms,
                mean_burst_ms: 12.0 * mean_cold_ms,
            }
            .timestamps(n_icu, seed ^ 0x06);
            let merged = merge_tenant_streams(&[
                attach_arrivals(&av, &av_arrivals),
                attach_arrivals(&icu, &icu_arrivals),
            ]);
            // With tiering on, the AV navigation tenant is latency-critical
            // and the bursty ICU tenant runs best-effort with the arrival
            // predictor watching its MMPP inter-arrival statistics; the
            // tierless fallback (opts.tenants = false) keeps the single
            // global ladder for A/B comparison.
            // Shield 4.0 pins the latency-critical ladder above reachable
            // pressure (it simply never degrades) while the best-effort
            // ladder sheds accuracy at the first sign of load — the
            // empirically best point of a shield sweep: beyond ~5 the
            // curves saturate, below ~2.5 the LC ladder starts thrashing
            // with the shared signal and aggregate goodput drops.
            if opts.adaptive && opts.tenants {
                control = Some(
                    TenantOptions::default()
                        .with_tier(0, TenantTier::LatencyCritical)
                        .with_tier(1, TenantTier::BestEffort)
                        .with_shield(4.0)
                        .with_predictor(Some(PredictorOptions::default())),
                );
            }
            (merged, 48, DropPolicy::DeadlineAware)
        }
        ServePreset::Overload => {
            // Sustained 1.6× capacity: there is no calm phase to recover
            // in, so a static policy pins the queue at its cap and sheds
            // for the whole run. Degradation is the only lever.
            let qs = uniform_stream(&space, n, seed);
            let arrivals =
                ArrivalProcess::Poisson { rate_qps: 1.6 * capacity_qps }.timestamps(n, seed ^ 0x07);
            (attach_arrivals(&qs, &arrivals), 32, DropPolicy::DeadlineAware)
        }
        ServePreset::DeadlineMix => {
            // Alternate tight deadlines (just above the fastest SubNet's
            // cold service time) with loose ones near the band's top, at
            // 90% capacity: the adaptive loop must spend the loose half's
            // slack without starving the tight half.
            let tight = ConstraintSpace { lat_hi: (1.4 * space.lat_lo).min(space.lat_hi), ..space };
            let loose = ConstraintSpace { lat_lo: (0.7 * space.lat_hi).max(space.lat_lo), ..space };
            let qs_tight = uniform_stream(&tight, n.div_ceil(2), seed ^ 0x08);
            let qs_loose = uniform_stream(&loose, n / 2, seed ^ 0x09);
            let qs: Vec<Query> = (0..n)
                .map(|i| {
                    let q = if i % 2 == 0 { qs_tight[i / 2] } else { qs_loose[i / 2] };
                    Query::new(i as u64, q.accuracy_constraint, q.latency_constraint_ms)
                })
                .collect();
            let arrivals = ArrivalProcess::Poisson { rate_qps: 0.90 * capacity_qps }
                .timestamps(n, seed ^ 0x0A);
            (attach_arrivals(&qs, &arrivals), 48, DropPolicy::DeadlineAware)
        }
        ServePreset::Failover => {
            // Calm Poisson traffic with an upstream outage one third in:
            // arrivals during the outage are buffered upstream and land as
            // one recovery burst the moment the path heals.
            let qs = uniform_stream(&space, n, seed);
            let mut arrivals = ArrivalProcess::Poisson { rate_qps: 0.55 * capacity_qps }
                .timestamps(n, seed ^ 0x0B);
            let outage_start = arrivals[n / 3];
            let outage_end = outage_start + 25.0 * mean_cold_ms;
            for t in &mut arrivals {
                if (outage_start..outage_end).contains(t) {
                    *t = outage_end;
                }
            }
            (attach_arrivals(&qs, &arrivals), 48, DropPolicy::DeadlineAware)
        }
        ServePreset::Scale => {
            // Scale-out: eight replicas offered 10× the steady preset's
            // arrival rate (5× the two-worker capacity anchor, 1.25× the
            // scaled pool's own capacity). Queries arrive in alternating
            // *blocks* from the low and high halves of the accuracy band —
            // each block is long enough to flip the scheduler's Q-window
            // decision, so cache installs keep happening and per-replica
            // residency diverges: the cache-swap-heavy regime where
            // affinity routing matters.
            let acc_mid = f64::midpoint(space.acc_lo, space.acc_hi);
            let lo_band = ConstraintSpace { acc_hi: acc_mid, ..space };
            let hi_band = ConstraintSpace { acc_lo: acc_mid, ..space };
            let qs_lo = uniform_stream(&lo_band, n, seed ^ 0x0C);
            let qs_hi = uniform_stream(&hi_band, n, seed ^ 0x0D);
            let block = 2 * workload.q_window;
            let qs: Vec<Query> = (0..n)
                .map(|i| {
                    let q = if (i / block) % 2 == 0 { qs_lo[i] } else { qs_hi[i] };
                    Query::new(i as u64, q.accuracy_constraint, q.latency_constraint_ms)
                })
                .collect();
            let arrivals =
                ArrivalProcess::Poisson { rate_qps: 5.0 * capacity_qps }.timestamps(n, seed ^ 0x0E);
            (attach_arrivals(&qs, &arrivals), 256, DropPolicy::DeadlineAware)
        }
        ServePreset::Chaos => {
            // Moderate load on a four-replica pool (1.4× the two-worker
            // capacity anchor, ~70% of the chaos pool) with a
            // deterministic fault plan scaled to the workload's own mean
            // cold service time. The headroom is what the faults eat:
            // straggler episodes quadruple one replica's service time,
            // crashes take a replica out for ~20 service times (losing
            // its resident SubgraphCache), and transient batch failures
            // hit ~8% of dispatches. The supervised pool — retry,
            // hedging, quarantine/recovery, the preset default — must
            // win back the goodput and tail SLOs the unsupervised
            // ablation loses (see [`run_scenario_unsupervised`]).
            let qs = uniform_stream(&space, n, seed ^ 0x0F);
            let arrivals =
                ArrivalProcess::Poisson { rate_qps: 1.4 * capacity_qps }.timestamps(n, seed ^ 0x10);
            faults = Some(
                FaultOptions::default()
                    .with_seed(seed ^ 0x11)
                    .with_crash_mtbf_ms(200.0 * mean_cold_ms)
                    .with_crash_outage_ms(20.0 * mean_cold_ms)
                    .with_straggler_mtbf_ms(40.0 * mean_cold_ms)
                    .with_straggler_duration_ms(12.0 * mean_cold_ms)
                    .with_straggler_factor(4.0)
                    .with_transient_rate(0.08),
            );
            (attach_arrivals(&qs, &arrivals), 48, DropPolicy::DeadlineAware)
        }
    };
    let sim = SimConfig {
        workers: preset.default_workers(),
        routing: preset.default_routing(),
        queue_capacity,
        drop_policy,
        batch,
        control,
        faults,
    };
    Scenario { name: preset.name(), stream, sim, q_window: workload.q_window }
}

/// Builds the serving engine for a scenario and runs it to completion.
///
/// The engine honors `opts.backend`, `opts.workers` and `opts.routing`:
/// the overrides replace the preset's pool size and routing policy
/// (arrival streams stay sized to the preset's nominal capacity, so
/// overriding workers changes service capacity, not the offered load).
/// Any backend runs at any worker count — functional replicas share one
/// pack-once weight cache per SubNet and execute in parallel.
///
/// # Errors
/// Returns [`SushiError::Config`] for invalid overrides (e.g. zero
/// workers) and [`SushiError::Backend`] when execution fails.
pub fn run_scenario(preset: ServePreset, opts: &ExpOptions) -> Result<SimResult, SushiError> {
    run_scenario_inner(preset, opts, false)
}

/// [`run_scenario`] with the preset's fault plan stripped of supervision:
/// same stream, same faults, but no retry, no hedging, no quarantine —
/// the ablation baseline the `chaos` preset's supervised pool is measured
/// against (the `faults = "unsupervised"` rows of `BENCH_serve.json`).
/// For presets without a fault plan this is identical to [`run_scenario`].
///
/// # Errors
/// Same contract as [`run_scenario`].
pub fn run_scenario_unsupervised(
    preset: ServePreset,
    opts: &ExpOptions,
) -> Result<SimResult, SushiError> {
    run_scenario_inner(preset, opts, true)
}

fn run_scenario_inner(
    preset: ServePreset,
    opts: &ExpOptions,
    strip_supervision: bool,
) -> Result<SimResult, SushiError> {
    let workload = mobv3_workload();
    let scenario = build_scenario_for(&workload, preset, opts);
    let mut sim = scenario.sim;
    if strip_supervision {
        sim.faults = sim.faults.map(FaultOptions::without_supervision);
    }
    if let Some(workers) = opts.workers {
        sim.workers = workers;
    }
    if let Some(routing) = opts.routing {
        sim.routing = routing;
    }
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&workload.net), workload.picks)
        .q_window(scenario.q_window)
        .candidates(opts.candidates)
        .seed(opts.seed)
        .backend(opts.backend)
        .kernel_policy(opts.kernel_policy)
        .fusion(opts.fusion)
        .sim_config(sim)
        .build()?;
    engine.serve_timed(&scenario.stream)
}

/// Runs every preset and returns `(label, summary)` rows in report order.
///
/// # Errors
/// Propagates the first [`run_scenario`] failure.
pub fn run_all_presets(opts: &ExpOptions) -> Result<Vec<(&'static str, ServeSummary)>, SushiError> {
    ServePreset::ALL.into_iter().map(|p| Ok((p.name(), run_scenario(p, opts)?.summary()))).collect()
}

/// The `(workers, routing)` points of the functional worker-scaling sweep,
/// in `BENCH_serve.json` row order: cache-affinity at 1/2/4/8 replicas
/// (the speedup curve) plus round-robin at 2/4/8 (the routing ablation).
/// The ablation brackets the regimes where routing can and cannot matter:
/// at 2 replicas the pool is saturated (at most one replica is ever free,
/// so every policy is forced into the same pick) and at 8 there is enough
/// slack that no batch queues behind a cold one; at 4 both contention and
/// choice exist, and cache-affinity's warm picks compound through the
/// queue into strictly fewer SLO violations than round-robin.
pub const FUNCTIONAL_SCALING_POINTS: [(usize, RoutingPolicy); 7] = [
    (1, RoutingPolicy::CacheAffinity),
    (2, RoutingPolicy::CacheAffinity),
    (4, RoutingPolicy::CacheAffinity),
    (8, RoutingPolicy::CacheAffinity),
    (2, RoutingPolicy::RoundRobin),
    (4, RoutingPolicy::RoundRobin),
    (8, RoutingPolicy::RoundRobin),
];

/// Worker-scaling sweep of the **functional** backend: one cache-swap-heavy
/// toy-zoo stream (accuracy-band interleave, offered at ~6× a single
/// replica's capacity) served with real parallel int8 forwards at every
/// [`FUNCTIONAL_SCALING_POINTS`] point. Returns
/// `(workers, routing, summary)` rows — the `scale_functional` rows of
/// `BENCH_serve.json`.
///
/// The stream and sizing are *fixed* — independent of `opts.queries` — so
/// quick and full runs produce identical rows (only `opts.kernel_policy`
/// is honored, and kernel policy never changes logits or simulated
/// timing). The predictions are bit-identical across worker counts; only
/// queueing/timing changes with the pool size.
///
/// # Errors
/// Returns [`SushiError::Backend`] when the functional datapath fails.
pub fn run_functional_scaling(
    opts: &ExpOptions,
) -> Result<Vec<(usize, RoutingPolicy, ServeSummary)>, SushiError> {
    let net = Arc::new(sushi_wsnet::zoo::toy_mobilenet_supernet());
    let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(5);
    let mut rows = Vec::with_capacity(FUNCTIONAL_SCALING_POINTS.len());
    for (workers, routing) in FUNCTIONAL_SCALING_POINTS {
        let mut engine = EngineBuilder::new()
            .workload(Arc::clone(&net), picks.clone())
            .q_window(4)
            .candidates(6)
            .seed(0xF00D)
            .backend(crate::engine::BackendKind::Functional)
            .functional_options(
                crate::engine::FunctionalOptions::default()
                    .with_dpe(8, 8)
                    .with_seed(99)
                    .with_kernel_policy(opts.kernel_policy)
                    .with_fusion(opts.fusion),
            )
            .workers(workers)
            .routing(routing)
            .queue_capacity(64)
            .drop_policy(DropPolicy::DeadlineAware)
            .batch_policy(BatchPolicy::new(4, 0.05))
            .build()?;
        // Deadlines cover queueing + batching on top of bare service time
        // (cf. the preset band widening above) but stay tight enough that
        // a cold replica's extra weight-fetch time can cost the SLO —
        // exactly the margin affinity routing is supposed to win back.
        let mut space = engine.constraint_space();
        space.lat_lo *= 2.0;
        space.lat_hi *= 6.0;
        let n = 480usize;
        // Anchor the bands to the serving set's two lowest accuracy
        // *rungs* so a block's every query resolves to the same SubNet —
        // and the next block's to a different one with a different
        // closest cache column. A midpoint split would leave most
        // constraints satisfiable by one shared row, and the scheduler's
        // windowed cache decision would never flip.
        let mut accs: Vec<f64> =
            (0..engine.table().num_rows()).map(|i| engine.table().row(i).accuracy).collect();
        accs.sort_by(f64::total_cmp);
        accs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert!(accs.len() >= 2, "toy serving set must span at least two accuracy rungs");
        let (a0, a1) = (accs[0], accs[1]);
        let lo_band = ConstraintSpace { acc_lo: space.acc_lo.min(a0), acc_hi: a0, ..space };
        let hi_band = ConstraintSpace { acc_lo: f64::midpoint(a0, a1), acc_hi: a1, ..space };
        let qs_lo = uniform_stream(&lo_band, n, 0x51);
        let qs_hi = uniform_stream(&hi_band, n, 0x52);
        // Blocks of 2×Q flip the scheduler's windowed decision each time,
        // keeping installs frequent and per-replica residency divergent.
        let block = 8usize;
        let qs: Vec<Query> = (0..n)
            .map(|i| {
                let q = if (i / block) % 2 == 0 { qs_lo[i] } else { qs_hi[i] };
                Query::new(i as u64, q.accuracy_constraint, q.latency_constraint_ms)
            })
            .collect();
        // Offered load ~6× one replica's service rate: one worker is
        // throughput-bound (deadline-aware shedding keeps goodput at its
        // service rate), so goodput scales with the pool until arrivals
        // stop being the bottleneck.
        let cold_ms: Vec<f64> =
            (0..engine.table().num_rows()).map(|i| engine.table().latency_ms(i, 0)).collect();
        let mean_cold_ms = cold_ms.iter().sum::<f64>() / cold_ms.len() as f64;
        let rate_qps = 6.0 * 1e3 / mean_cold_ms;
        let arrivals = ArrivalProcess::Poisson { rate_qps }.timestamps(n, 0x53);
        let stream = attach_arrivals(&qs, &arrivals);
        rows.push((workers, routing, engine.serve_timed(&stream)?.summary()));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_round_trip() {
        for p in ServePreset::ALL {
            assert_eq!(ServePreset::from_name(p.name()), Some(p));
        }
        assert_eq!(ServePreset::from_name("nope"), None);
    }

    #[test]
    fn scenarios_build_sorted_streams_of_requested_length() {
        let opts = ExpOptions::quick();
        for p in ServePreset::ALL {
            let s = build_scenario(p, &opts);
            assert_eq!(s.stream.len(), opts.queries, "{}", s.name);
            assert!(s.stream.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        }
    }

    #[test]
    fn multi_tenant_scenario_mixes_tenants() {
        let s = build_scenario(ServePreset::MultiTenant, &ExpOptions::quick());
        assert!(s.stream.iter().any(|tq| tq.tenant == 0));
        assert!(s.stream.iter().any(|tq| tq.tenant == 1));
    }

    fn static_quick() -> ExpOptions {
        let mut opts = ExpOptions::quick();
        opts.adaptive = false;
        opts
    }

    #[test]
    fn burst_scenario_stresses_harder_than_steady() {
        // Under *static* scheduling the burst regime must visibly hurt;
        // the adaptive loop exists precisely to flatten this gap.
        let opts = static_quick();
        let steady = run_scenario(ServePreset::Steady, &opts).unwrap().summary();
        let burst = run_scenario(ServePreset::Burst, &opts).unwrap().summary();
        assert!(
            burst.p99_ms > steady.p99_ms,
            "burst p99 {} !> steady {}",
            burst.p99_ms,
            steady.p99_ms
        );
        assert!(burst.slo_violation_rate >= steady.slo_violation_rate);
    }

    #[test]
    fn adaptive_degrades_under_overload_and_static_does_not() {
        let adaptive = run_scenario(ServePreset::Overload, &ExpOptions::quick()).unwrap();
        let trace = adaptive.adaptation.expect("adaptive run records a trace");
        assert!(trace.degrades > 0, "sustained overload must trigger degradation");
        assert!(trace.shaped > 0, "degradation must shape queries");
        let static_run = run_scenario(ServePreset::Overload, &static_quick()).unwrap();
        assert!(static_run.adaptation.is_none(), "static runs carry no trace");
    }

    #[test]
    fn adaptive_burst_beats_static_burst() {
        let stat = run_scenario(ServePreset::Burst, &static_quick()).unwrap().summary();
        let adap = run_scenario(ServePreset::Burst, &ExpOptions::quick()).unwrap().summary();
        assert!(
            adap.slo_violation_rate < stat.slo_violation_rate,
            "adaptive burst violations {} !< static {}",
            adap.slo_violation_rate,
            stat.slo_violation_rate
        );
        assert!(
            adap.goodput_qps >= stat.goodput_qps,
            "adaptive burst goodput {} < static {}",
            adap.goodput_qps,
            stat.goodput_qps
        );
    }

    #[test]
    fn chaos_scenario_injects_faults() {
        let res = run_scenario(ServePreset::Chaos, &ExpOptions::quick()).unwrap();
        let faults = res.faults.clone().expect("chaos runs carry a fault summary");
        assert!(
            faults.transient_failures + faults.crashes + faults.quarantines > 0,
            "the chaos fault plan must actually fire: {faults:?}"
        );
        let s = res.summary();
        assert_eq!(s.offered, s.completed + s.dropped, "conservation");
    }

    #[test]
    fn supervised_chaos_beats_unsupervised_chaos() {
        // The acceptance gate for the supervised executor pool: on the
        // chaos preset, retry + hedging + quarantine must beat the bare
        // pool on *both* the SLO-violation rate and goodput.
        let opts = ExpOptions::quick();
        let sup = run_scenario(ServePreset::Chaos, &opts).unwrap().summary();
        let unsup = run_scenario_unsupervised(ServePreset::Chaos, &opts).unwrap().summary();
        assert!(
            sup.slo_violation_rate < unsup.slo_violation_rate,
            "supervised violations {} !< unsupervised {}",
            sup.slo_violation_rate,
            unsup.slo_violation_rate
        );
        assert!(
            sup.goodput_qps > unsup.goodput_qps,
            "supervised goodput {} !> unsupervised {}",
            sup.goodput_qps,
            unsup.goodput_qps
        );
        assert_eq!(unsup.retries, 0, "unsupervised pool must not retry");
        assert_eq!(unsup.hedges, 0, "unsupervised pool must not hedge");
    }

    #[test]
    fn unsupervised_is_identity_for_faultless_presets() {
        let opts = static_quick();
        let a = run_scenario(ServePreset::Steady, &opts).unwrap();
        let b = run_scenario_unsupervised(ServePreset::Steady, &opts).unwrap();
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn presets_are_deterministic() {
        let opts = ExpOptions::quick();
        assert_eq!(run_all_presets(&opts).unwrap(), run_all_presets(&opts).unwrap());
    }

    /// Pins the quick-scenario tail metrics to exact values **under static
    /// scheduling** — the no-adaptation bit-identity gate (re-pinned when
    /// least-loaded routing replaced lowest-index worker pick). The serving
    /// simulation runs on simulated time with seeded randomness, so these
    /// figures are reproducible to the last bit on any platform; a change
    /// here means serving *semantics* changed and `BENCH_serve.json` needs
    /// regenerating too (`scripts/bench_baseline.sh --update`).
    #[test]
    fn quick_scenario_metrics_are_pinned() {
        let opts = static_quick();
        let steady = run_scenario(ServePreset::Steady, &opts).unwrap().summary();
        assert!((steady.p99_ms - 23.382_301_440).abs() < 1e-6, "steady p99 {}", steady.p99_ms);
        assert!(
            (steady.goodput_qps - 74.346_097_348).abs() < 1e-6,
            "steady goodput {}",
            steady.goodput_qps
        );
        assert!(
            (steady.slo_violation_rate - 0.175).abs() < 1e-9,
            "steady violation rate {}",
            steady.slo_violation_rate
        );
        assert_eq!(steady.dropped, 0);

        let burst = run_scenario(ServePreset::Burst, &opts).unwrap().summary();
        assert!((burst.p99_ms - 96.176_223_914).abs() < 1e-6, "burst p99 {}", burst.p99_ms);
        assert!(
            (burst.goodput_qps - 47.201_943_536).abs() < 1e-6,
            "burst goodput {}",
            burst.goodput_qps
        );
        assert_eq!(burst.dropped, 26);
    }
}
