//! Aggregate serving metrics.

use crate::serving::sim::ServedRecord;

/// Summary statistics over a served stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Number of queries.
    pub queries: usize,
    /// Mean served latency in ms.
    pub mean_latency_ms: f64,
    /// Mean served accuracy (fraction).
    pub mean_accuracy: f64,
    /// Fraction of queries whose latency constraint was met.
    pub latency_slo_attainment: f64,
    /// Fraction of queries whose accuracy constraint was met.
    pub accuracy_attainment: f64,
    /// Mean cache-hit ratio (Appendix A.4).
    pub mean_hit_ratio: f64,
    /// Total off-chip energy, mJ.
    pub total_offchip_mj: f64,
    /// Total on-chip energy, mJ.
    pub total_onchip_mj: f64,
}

/// Summarizes a served stream.
///
/// # Panics
/// Panics if `records` is empty.
#[must_use]
pub fn summarize(records: &[ServedRecord]) -> StreamSummary {
    assert!(!records.is_empty(), "cannot summarize an empty stream");
    let n = records.len() as f64;
    StreamSummary {
        queries: records.len(),
        mean_latency_ms: records.iter().map(|r| r.served_latency_ms).sum::<f64>() / n,
        mean_accuracy: records.iter().map(|r| r.served_accuracy).sum::<f64>() / n,
        latency_slo_attainment: records
            .iter()
            .filter(|r| r.served_latency_ms <= r.query.latency_constraint_ms)
            .count() as f64
            / n,
        accuracy_attainment: records
            .iter()
            .filter(|r| r.served_accuracy >= r.query.accuracy_constraint)
            .count() as f64
            / n,
        mean_hit_ratio: records.iter().map(|r| r.hit_ratio).sum::<f64>() / n,
        total_offchip_mj: records.iter().map(|r| r.offchip_mj).sum(),
        total_onchip_mj: records.iter().map(|r| r.onchip_mj).sum(),
    }
}

/// Geometric mean of positive values (Fig. 14's aggregate).
///
/// # Panics
/// Panics if `values` is empty or any value is non-positive.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    assert!(values.iter().all(|&v| v > 0.0), "geomean needs positive values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Percentage reduction from `base` to `ours` (positive = improvement).
#[must_use]
pub fn reduction_pct(base: f64, ours: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    100.0 * (base - ours) / base
}

/// The schema marker written into `BENCH_serve.json`.
const SERVE_BENCH_SCHEMA: &str = "sushi-serve-bench-v5";

/// Quotes a label for a bench row.
///
/// # Panics
/// Panics if the label contains `"`, `,`, `{` or `}` — the writer does not
/// escape, so such a label would corrupt the one-row-per-line file.
fn quoted(label: &str) -> String {
    assert!(
        !label.contains(['"', ',', '{', '}']),
        "bench label '{label}' contains characters the flat JSON format cannot carry"
    );
    format!("\"{label}\"")
}

/// A streaming log-bucketed latency histogram with percentile queries.
///
/// `push` is O(1) and the memory footprint is a fixed ~1 KB regardless of
/// stream length, so the serving runtime can account millions of queries
/// without retaining them. Buckets grow geometrically by
/// [`Self::GROWTH`] per step from [`Self::MIN_MS`], giving ≤ 2% relative
/// quantile error across nine decades (1 µs … 100 s); exact min/max are
/// tracked separately and clamp the estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Lower edge of the first bucket, ms.
    pub const MIN_MS: f64 = 1e-3;
    /// Geometric bucket growth factor.
    pub const GROWTH: f64 = 1.02;
    /// Number of buckets: covers `MIN_MS .. MIN_MS * GROWTH^N` ≈ 1e5 ms.
    const NUM_BUCKETS: usize = 931;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::NUM_BUCKETS],
            total: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }

    fn bucket(value_ms: f64) -> usize {
        if value_ms <= Self::MIN_MS {
            return 0;
        }
        let idx = (value_ms / Self::MIN_MS).ln() / Self::GROWTH.ln();
        (idx as usize).min(Self::NUM_BUCKETS - 1)
    }

    /// Records one latency sample.
    ///
    /// # Panics
    /// Panics on a negative or non-finite sample — serving latencies are
    /// physical durations.
    pub fn push(&mut self, value_ms: f64) {
        assert!(value_ms.is_finite() && value_ms >= 0.0, "bad latency sample {value_ms}");
        self.counts[Self::bucket(value_ms)] += 1;
        self.total += 1;
        self.sum_ms += value_ms;
        self.min_ms = self.min_ms.min(value_ms);
        self.max_ms = self.max_ms.max(value_ms);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples.
    ///
    /// # Panics
    /// Panics if the histogram is empty.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        assert!(self.total > 0, "mean of empty histogram");
        self.sum_ms / self.total as f64
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of recorded samples: the smallest
    /// bucket boundary below which at least `q · count` samples fall,
    /// clamped to the exact observed min/max.
    ///
    /// # Panics
    /// Panics if the histogram is empty or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of empty histogram");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // Upper edge of bucket i, clamped to the observed range.
                let edge = Self::MIN_MS * Self::GROWTH.powi(i as i32 + 1);
                return edge.clamp(self.min_ms, self.max_ms);
            }
        }
        self.max_ms
    }
}

/// Summary of one serving-simulation run (a [`crate::serving`] scenario).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Queries that arrived (offered load).
    pub offered: usize,
    /// Queries served to completion (late ones included).
    pub completed: usize,
    /// Queries shed by the admission queue.
    pub dropped: usize,
    /// Median end-to-end latency (queueing + service), ms.
    pub p50_ms: f64,
    /// 95th-percentile end-to-end latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// Completed-within-deadline queries per second of simulated time.
    pub goodput_qps: f64,
    /// Fraction of *offered* queries that missed their deadline or were
    /// dropped (a shed query is an SLO violation, not a free pass).
    pub slo_violation_rate: f64,
    /// Time-weighted mean admission-queue depth.
    pub mean_queue_depth: f64,
    /// Maximum admission-queue depth observed.
    pub max_queue_depth: usize,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Scheduler cache decisions enacted.
    pub cache_installs: usize,
    /// Total PB swap time charged to in-flight batches, ms.
    pub swap_ms: f64,
    /// End of the simulation (last completion or drop), ms.
    pub makespan_ms: f64,
    /// Adaptive level changes that degraded (0 on static runs).
    pub degrades: usize,
    /// Adaptive level changes that upgraded (0 on static runs).
    pub upgrades: usize,
}

/// One scenario row of the `BENCH_serve.json` baseline.
///
/// Every field is *simulated* (not wall-clock), so the committed baseline
/// is deterministic: same seed, same binary → identical values on any
/// platform. The committed file is therefore gated as plain text: any
/// changed line means the serving semantics changed, not that the machine
/// was noisy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchEntry {
    /// Scenario label, e.g. `"steady"`.
    pub scenario: String,
    /// Whether load-adaptive degradation was enabled for this row. A
    /// scenario can appear multiple times in the baseline — adaptive and
    /// static, at different pool sizes, aggregate and per-tier, faulted
    /// and fault-free — and the sextuple
    /// `(scenario, adaptive, workers, routing, tier, faults)` is the row
    /// key.
    pub adaptive: bool,
    /// Worker (replica) count the row ran with.
    pub workers: usize,
    /// Routing-policy label (`RoutingPolicy::name`) the row ran with.
    pub routing: String,
    /// Tenant-tier slice the row summarizes: `"all"` for the aggregate
    /// over every tenant (the only value static and tierless rows use),
    /// or a `TenantTier::name` (`"latency_critical"`, `"best_effort"`,
    /// ...) for a per-tier slice of a tenant-tiered run. Part of the row
    /// key: `(scenario, adaptive, workers, routing, tier, faults)`.
    pub tier: String,
    /// Fault mode the row ran under: `"none"` for a fault-free run,
    /// `"supervised"` for injected faults with the supervised pool, or
    /// `"unsupervised"` for the ablation (same fault plan, no
    /// supervision). Part of the row key.
    pub faults: String,
    /// The run's summary; the baseline records its latency percentiles,
    /// goodput, SLO violation rate, drops and ladder steps.
    pub summary: ServeSummary,
}

/// Serializes serve bench entries as the `BENCH_serve.json` baseline:
/// `{schema, entries: [...]}` with one flat object per line, so the
/// committed file diffs (and is gated) line by line as plain text.
///
/// Hand-rolled: the workspace has no serialization dependency.
///
/// # Panics
/// Panics if a scenario, routing, tier, or faults label contains `"`,
/// `,`, `{` or `}`.
#[must_use]
pub fn serve_bench_to_json(entries: &[ServeBenchEntry]) -> String {
    let sim = |v: f64| format!("{v:.6}");
    let mut out = format!("{{\n  \"schema\": \"{SERVE_BENCH_SCHEMA}\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let fields = [
            ("scenario", quoted(&e.scenario)),
            ("adaptive", e.adaptive.to_string()),
            ("workers", e.workers.to_string()),
            ("routing", quoted(&e.routing)),
            ("tier", quoted(&e.tier)),
            ("faults", quoted(&e.faults)),
            ("p50_ms", sim(e.summary.p50_ms)),
            ("p95_ms", sim(e.summary.p95_ms)),
            ("p99_ms", sim(e.summary.p99_ms)),
            ("goodput_qps", sim(e.summary.goodput_qps)),
            ("slo_violation_rate", sim(e.summary.slo_violation_rate)),
            ("dropped", e.summary.dropped.to_string()),
            ("degrades", e.summary.degrades.to_string()),
            ("upgrades", e.summary.upgrades.to_string()),
        ];
        let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&format!("    {{{}}}", fields.join(", ")));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_sched::Query;

    fn record(lat: f64, acc: f64, l_con: f64, a_con: f64, hit: f64) -> ServedRecord {
        ServedRecord {
            query: Query::new(0, a_con, l_con),
            subnet: "X".into(),
            subnet_row: 0,
            served_accuracy: acc,
            served_latency_ms: lat,
            hit_ratio: hit,
            offchip_mj: 1.0,
            onchip_mj: 0.1,
            cache_updated: false,
            prediction: None,
        }
    }

    #[test]
    fn summary_means_are_correct() {
        let rs = vec![record(2.0, 0.76, 3.0, 0.75, 0.5), record(4.0, 0.78, 3.0, 0.80, 1.0)];
        let s = summarize(&rs);
        assert_eq!(s.mean_latency_ms, 3.0);
        assert!((s.mean_accuracy - 0.77).abs() < 1e-12);
        assert_eq!(s.latency_slo_attainment, 0.5);
        assert_eq!(s.accuracy_attainment, 0.5);
        assert_eq!(s.mean_hit_ratio, 0.75);
        assert_eq!(s.total_offchip_mj, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn summarize_rejects_empty() {
        let _ = summarize(&[]);
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_pct_signs() {
        assert_eq!(reduction_pct(10.0, 8.0), 20.0);
        assert_eq!(reduction_pct(10.0, 12.0), -20.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn histogram_quantiles_bound_known_data() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000 {
            h.push(i as f64); // 1..1000 ms uniform
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ms() - 500.5).abs() < 1e-9);
        // Log-bucketing guarantees ≤ ~2% relative error + bucket rounding.
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 {p99}");
        assert!(h.quantile(0.0) >= 1.0 && h.quantile(1.0) <= 1000.0);
        assert!(p50 <= h.quantile(0.95) && h.quantile(0.95) <= p99);
    }

    #[test]
    fn histogram_clamps_to_observed_range() {
        let mut h = LatencyHistogram::new();
        h.push(7.25);
        assert_eq!(h.quantile(0.5), 7.25);
        assert_eq!(h.quantile(0.99), 7.25);
        h.push(0.0); // below MIN_MS: lands in bucket 0.
        assert!(h.quantile(0.0) <= LatencyHistogram::MIN_MS * LatencyHistogram::GROWTH);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn histogram_quantile_rejects_empty() {
        let _ = LatencyHistogram::new().quantile(0.5);
    }
}
