//! The benchmark's contract in one place: end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` says the same; a test fails
//! if they differ.

use Kind::{Exact, Host};

/// How long one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// How two runs of one commit may differ on a metric (`agree`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or memory of this machine: noisy, compared by bound.
    Host,
    /// Simulated by the model or counted by the harness: repeats exactly
    /// for a seed, however many rounds a run got through.
    Exact,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, kind: Kind) -> MetricDef {
    MetricDef { name, unit, bound: Some(bound), kind }
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef { name, unit, bound: None, kind }
}

/// What a user of the serving stack sees. Every workload reports all.
/// Each bound is about three times the widest spread ten runs on ten
/// seeds showed on any workload (README, "Spread on this box"); for the
/// host times that is the 0.25 the driver's contract caps bounds at.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", 0.25, Host),
    e2e("queries_per_s", "1/s", 0.25, Host),
    e2e("op_ms_p50", "ms", 0.25, Host),
    e2e("op_ms_p90", "ms", 0.25, Host),
    e2e("peak_rss_mb", "MB", 0.15, Host),
    e2e("sim_latency_ms_mean", "sim_ms", 0.015, Exact),
    e2e("sim_accuracy_mean", "ratio", 0.001, Exact),
    e2e("sim_slo_violation_rate", "ratio", 0.15, Exact),
];

/// Single layers, from the traced run. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 53] = [
    layer("tensor.conv_fused_ms", "ms", Host),
    layer("tensor.conv_direct_ms", "ms", Host),
    layer("tensor.conv_fused_gmac_per_s", "GMAC/s", Host),
    layer("tensor.conv_direct_gmac_per_s", "GMAC/s", Host),
    layer("tensor.conv_gmac", "GMAC", Exact),
    layer("tensor.conv_mb_moved", "MB", Exact),
    layer("tensor.pack_ms", "ms", Host),
    layer("tensor.pack_mb", "MB", Exact),
    layer("ir.normalize_ms", "ms", Host),
    layer("ir.lower_ms", "ms", Host),
    layer("ir.rewrites_applied", "count", Exact),
    layer("ir.plan_steps", "count", Exact),
    layer("ir.fused_conv_share", "ratio", Exact),
    layer("wsnet.zoo_load_ms", "ms", Host),
    layer("wsnet.weight_synth_ms", "ms", Host),
    layer("wsnet.build_ir_ms", "ms", Host),
    layer("wsnet.overlap_us", "us", Host),
    layer("accel.install_ms", "ms", Host),
    layer("accel.install_self_ms", "ms", Host),
    layer("accel.cold_start_ms", "ms", Host),
    layer("accel.forward_ms", "ms", Host),
    layer("accel.forward_self_ms", "ms", Host),
    layer("accel.input_synth_ms", "ms", Host),
    layer("accel.timing_model_us", "us", Host),
    layer("accel.pb_install_us", "us", Host),
    layer("accel.installs", "count", Exact),
    layer("accel.packed_subnets", "count", Exact),
    layer("accel.arena_mb", "MB", Exact),
    layer("accel.sim_pb_hit_ratio", "ratio", Exact),
    layer("sched.decide_us", "us", Host),
    layer("sched.table_build_ms", "ms", Host),
    layer("sched.cache_updates", "count", Exact),
    layer("sched.degrades", "count", Exact),
    layer("sched.upgrades", "count", Exact),
    layer("sched.shaped_frac", "ratio", Exact),
    layer("core.engine_build_ms", "ms", Host),
    layer("core.serve_self_ms", "ms", Host),
    layer("core.scenario_build_ms", "ms", Host),
    layer("core.serve_timed_ms", "ms", Host),
    layer("core.summary_ms", "ms", Host),
    layer("core.sim_us_per_query", "us", Host),
    layer("core.sim_self_us_per_query", "us", Host),
    layer("core.queue_wait_sim_ms_mean", "sim_ms", Exact),
    layer("core.service_sim_ms_mean", "sim_ms", Exact),
    layer("core.queue_depth_mean", "count", Exact),
    layer("core.batch_size_mean", "count", Exact),
    layer("core.dropped_frac", "ratio", Exact),
    layer("core.retries", "count", Exact),
    layer("core.hedges_won_frac", "ratio", Exact),
    layer("core.cache_installs", "count", Exact),
    layer("core.swap_sim_ms", "sim_ms", Exact),
    layer("trace.overhead_frac", "ratio", Host),
    layer("trace.reenact_gap_frac", "ratio", Host),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` names the same workloads, metrics, units and
    /// bounds, whatever its whitespace. (Directions and the reasons for
    /// the workloads live there only.)
    #[test]
    fn benchmark_json_says_the_same() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\":\"{}\",\"why\":\"", w.name())));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let head = format!("{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"", m.name, m.unit);
            let at = json.find(&head).unwrap_or_else(|| panic!("{} is missing", m.name));
            let rest = &json[at + head.len()..];
            let entry = &rest[..rest.find('}').expect("entry closes")];
            match m.bound {
                Some(b) => assert!(entry.ends_with(&format!("\",\"bound\":{b}")), "{}", m.name),
                None => assert!(!entry.contains("bound"), "{}", m.name),
            }
        }
        let entries = Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(json.matches("\"name\":").count(), entries, "BENCHMARK.json names more");
        assert!(json.contains(&format!("\"run_seconds\":{RUN_SECONDS},")));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
