//! Tenant-tiered serving: end-to-end wins and backward compatibility.
//!
//! Two gates, mirroring the adaptive-serving suite one level up:
//!
//! 1. **The tiers must pay for themselves.** On the `multi_tenant` preset
//!    the tiered controller (AV tenant latency-critical, ICU tenant
//!    best-effort with the arrival predictor) must beat the tierless
//!    global controller on the latency-critical tenant's SLO violation
//!    rate without giving up aggregate goodput.
//! 2. **Opting out must be free.** With no tenant configuration
//!    (`tenants(None)`, the default) the serving loop must reproduce the
//!    tierless runtime's records bit for bit, on both backends — pinned
//!    with the same FNV digests the API-transition suite uses.

use std::sync::Arc;

use sushi::core::engine::{BackendKind, EngineBuilder, FunctionalOptions};
use sushi::core::experiments::common::ExpOptions;
use sushi::core::serving::{
    run_scenario, ArrivalProcess, BatchPolicy, DropPolicy, ServePreset, SimResult,
};
use sushi::core::stream::{attach_arrivals, uniform_stream};
use sushi::sched::TenantTier;
use sushi::wsnet::zoo;

/// FNV-1a over the little-endian bytes of each 64-bit word (the same
/// digest `engine_equivalence.rs` pins the API transition with).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

fn timed_digest(result: &SimResult) -> u64 {
    let mut h = Fnv::new();
    for s in &result.served {
        h.word(s.query.id);
        h.f(s.arrival_ms);
        h.f(s.start_ms);
        h.f(s.completion_ms);
        h.word(s.subnet_row as u64);
        h.word(s.batch_size as u64);
        h.word(s.worker as u64);
    }
    for d in &result.dropped {
        h.word(d.timed.query.id);
    }
    let sum = result.summary();
    for v in [
        sum.p50_ms,
        sum.p95_ms,
        sum.p99_ms,
        sum.mean_latency_ms,
        sum.goodput_qps,
        sum.slo_violation_rate,
        sum.mean_queue_depth,
        sum.swap_ms,
        sum.makespan_ms,
    ] {
        h.f(v);
    }
    h.word(sum.completed as u64);
    h.word(sum.dropped as u64);
    h.word(sum.cache_installs as u64);
    h.0
}

/// The tierless adaptive `multi_tenant` row this PR must beat (pinned in
/// `BENCH_serve.json` before tiering landed): aggregate SLO violation
/// rate and goodput at full sizing, 2 workers, least-loaded routing.
const TIERLESS_ADAPTIVE_SLO_VIOLATION_RATE: f64 = 0.246_666_666_666_666_67;
const TIERLESS_ADAPTIVE_GOODPUT_QPS: f64 = 79.015_610;

#[test]
fn tiered_multi_tenant_beats_tierless_adaptive_on_lc_slo() {
    let tiered = run_scenario(ServePreset::MultiTenant, &ExpOptions::default()).unwrap();
    let mut tierless_opts = ExpOptions::default();
    tierless_opts.tenants = false;
    let tierless = run_scenario(ServePreset::MultiTenant, &tierless_opts).unwrap();

    // Tenant 0 is the AV navigation stream — latency-critical under
    // tiering, just another flow to the tierless global controller.
    let lc_tiered = tiered.tier_summary(TenantTier::LatencyCritical);
    let av_tierless = tierless.tenant_summary(0);
    let agg_tiered = tiered.summary();
    let agg_tierless = tierless.summary();
    eprintln!(
        "tiered   LC: viol {:.6} p99 {:.3} | aggregate: goodput {:.6} viol {:.6} dropped {}",
        lc_tiered.slo_violation_rate,
        lc_tiered.p99_ms,
        agg_tiered.goodput_qps,
        agg_tiered.slo_violation_rate,
        agg_tiered.dropped,
    );
    eprintln!(
        "tierless AV: viol {:.6} p99 {:.3} | aggregate: goodput {:.6} viol {:.6} dropped {}",
        av_tierless.slo_violation_rate,
        av_tierless.p99_ms,
        agg_tierless.goodput_qps,
        agg_tierless.slo_violation_rate,
        agg_tierless.dropped,
    );
    let be_tiered = tiered.tier_summary(TenantTier::BestEffort);
    eprintln!(
        "tiered   BE: viol {:.6} p99 {:.3} offered {}",
        be_tiered.slo_violation_rate, be_tiered.p99_ms, be_tiered.offered
    );
    if let Some(trace) = &tiered.adaptation {
        for t in &trace.tiers {
            eprintln!(
                "tier {:?}: final {} degrades {} upgrades {}",
                t.tier, t.final_level, t.degrades, t.upgrades
            );
        }
    }

    assert!(
        lc_tiered.slo_violation_rate < av_tierless.slo_violation_rate,
        "tiered LC violations {} !< tierless AV {}",
        lc_tiered.slo_violation_rate,
        av_tierless.slo_violation_rate
    );
    // The ISSUE's absolute acceptance bar: strictly below the pinned
    // tierless adaptive aggregate, at equal-or-better aggregate goodput.
    assert!(
        lc_tiered.slo_violation_rate < TIERLESS_ADAPTIVE_SLO_VIOLATION_RATE,
        "tiered LC violations {} !< pinned tierless aggregate {}",
        lc_tiered.slo_violation_rate,
        TIERLESS_ADAPTIVE_SLO_VIOLATION_RATE
    );
    assert!(
        agg_tiered.goodput_qps >= TIERLESS_ADAPTIVE_GOODPUT_QPS,
        "tiered aggregate goodput {} < pinned tierless {}",
        agg_tiered.goodput_qps,
        TIERLESS_ADAPTIVE_GOODPUT_QPS
    );
}

#[test]
fn tiered_run_records_per_tier_trace_and_partitions_load() {
    let tiered = run_scenario(ServePreset::MultiTenant, &ExpOptions::quick()).unwrap();
    let trace = tiered.adaptation.as_ref().expect("tiered runs carry a trace");
    assert_eq!(trace.tiers.len(), 3, "one ladder trace per tier");
    let lc = tiered.tier_summary(TenantTier::LatencyCritical);
    let std = tiered.tier_summary(TenantTier::Standard);
    let be = tiered.tier_summary(TenantTier::BestEffort);
    assert_eq!(lc.offered + std.offered + be.offered, ExpOptions::quick().queries);
    assert_eq!(std.offered, 0, "no tenant maps to Standard in this preset");
    // Depth ordering carries to the trace: BE never shallower than LC.
    let final_of = |tier| {
        trace.tiers.iter().find(|t| t.tier == tier).map(|t| t.final_level).expect("tier trace")
    };
    assert!(final_of(TenantTier::LatencyCritical) <= final_of(TenantTier::BestEffort));
}

/// `tenants(None)` — explicit or by default — must leave the analytical
/// timed run bit-identical to the pre-tenancy runtime (same pinned digest
/// as `engine_equivalence.rs`).
const EXPECTED_TIMED_DIGEST: u64 = 0x9181_952e_e371_08fd;

#[test]
fn tenants_none_is_bit_identical_analytical() {
    let mut engine = EngineBuilder::new()
        .q_window(8)
        .candidates(8)
        .seed(42)
        .workers(2)
        .queue_capacity(16)
        .drop_policy(DropPolicy::DropNewest)
        .batch_policy(BatchPolicy::new(4, 2.0))
        .tenants(None)
        .build()
        .expect("engine");
    let qs = uniform_stream(&engine.constraint_space(), 150, 9);
    let ts = ArrivalProcess::Poisson { rate_qps: 120.0 }.timestamps(150, 9 ^ 0xD15);
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).unwrap();
    assert_eq!(
        timed_digest(&result),
        EXPECTED_TIMED_DIGEST,
        "tenants(None) drifted from the tierless fixtures"
    );
    assert!(result.served.iter().all(|s| s.tier == TenantTier::Standard));
}

/// Same contract on the functional backend (real int8 forwards).
const EXPECTED_FUNCTIONAL_DIGEST: u64 = 0x2790_0d49_6f89_8acf;

#[test]
fn tenants_none_is_bit_identical_functional() {
    let net = Arc::new(zoo::toy_mobilenet_supernet());
    let picks = {
        let mut s = sushi::wsnet::sampler::ConfigSampler::new(&net, 3);
        s.sample_subnets(3)
    };
    let mut engine = EngineBuilder::new()
        .workload(Arc::clone(&net), picks)
        .q_window(4)
        .candidates(3)
        .seed(11)
        .backend(BackendKind::Functional)
        .functional_options(FunctionalOptions::default().with_dpe(4, 4).with_seed(42))
        .workers(1)
        .queue_capacity(16)
        .drop_policy(DropPolicy::DropNewest)
        .batch_policy(BatchPolicy::new(3, 0.1))
        .tenants(None)
        .build()
        .expect("functional engine");
    let mut space = engine.constraint_space();
    space.lat_lo *= 4.0;
    space.lat_hi *= 10.0;
    let qs = uniform_stream(&space, 12, 5);
    let ts = ArrivalProcess::Poisson { rate_qps: 20_000.0 }.timestamps(12, 5);
    let result = engine.serve_timed(&attach_arrivals(&qs, &ts)).unwrap();
    let mut h = Fnv::new();
    for s in &result.served {
        h.word(s.query.id);
        h.f(s.arrival_ms);
        h.f(s.start_ms);
        h.f(s.completion_ms);
        h.word(s.subnet_row as u64);
        h.word(s.batch_size as u64);
        h.word(s.worker as u64);
        h.word(s.prediction.expect("functional predictions") as u64);
    }
    h.word(result.dropped.len() as u64);
    assert_eq!(
        h.0, EXPECTED_FUNCTIONAL_DIGEST,
        "tenants(None) functional run drifted from the tierless fixtures"
    );
}

/// `.adaptive(..)` and `.tenants(..)` write the one controller knob, so —
/// like every other builder setter — the later call wins, and
/// `.tenants(None)` after `.adaptive(..)` is a static run.
#[test]
fn later_of_adaptive_and_tenants_wins() {
    use sushi::sched::{AdaptiveOptions, TenantOptions};
    let run = |configure: fn(EngineBuilder) -> EngineBuilder| {
        let builder = EngineBuilder::new()
            .q_window(8)
            .candidates(8)
            .seed(42)
            .queue_capacity(16)
            .drop_policy(DropPolicy::DeadlineAware)
            .batch_policy(BatchPolicy::new(4, 2.0));
        let mut engine = configure(builder).build().expect("engine");
        let mut space = engine.constraint_space();
        space.lat_lo *= 2.0;
        space.lat_hi *= 2.5;
        let qs = uniform_stream(&space, 200, 9);
        // Well past one worker's capacity, so any controller must move.
        let ts = ArrivalProcess::Poisson { rate_qps: 400.0 }.timestamps(200, 9 ^ 0xD15);
        engine.serve_timed(&attach_arrivals(&qs, &ts)).unwrap()
    };
    let global = run(|b| b.adaptive(AdaptiveOptions::default()));
    let tiered = run(|b| b.tenants(Some(TenantOptions::default())));
    let fixed = run(|b| b);
    let global_trace = global.adaptation.as_ref().expect("global run carries a trace");
    let tiered_trace = tiered.adaptation.as_ref().expect("tiered run carries a trace");
    assert!(global_trace.degrades > 0 && tiered_trace.degrades > 0, "overload must degrade");
    assert!(global_trace.tiers.is_empty(), "a global run has no per-tier breakdown");
    assert_eq!(tiered_trace.tiers.len(), 3);
    assert!(fixed.adaptation.is_none());

    let tenants_last =
        run(|b| b.adaptive(AdaptiveOptions::default()).tenants(Some(TenantOptions::default())));
    assert_eq!(tenants_last, tiered, "tenants(..) after adaptive(..) runs the tiers");
    let adaptive_last =
        run(|b| b.tenants(Some(TenantOptions::default())).adaptive(AdaptiveOptions::default()));
    assert_eq!(adaptive_last, global, "adaptive(..) after tenants(..) runs the global ladder");
    let cleared = run(|b| b.adaptive(AdaptiveOptions::default()).tenants(None));
    assert_eq!(cleared, fixed, "tenants(None) after adaptive(..) is a static run");
}
