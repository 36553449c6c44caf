//! Aggregate serving metrics.

use serde::{Deserialize, Serialize};

use crate::stack::ServedRecord;

/// Summary statistics over a served stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Wall-clock timing of one workload's forward pass under the kernel
/// backends (see `BENCH_kernels.json`, schema v3):
///
/// * `naive_ms` — the direct-loop tiled schedule (the oracle);
/// * `gemm_ms` — im2col + packed GEMM, packing **both** operands per call;
/// * `packed_ms` — steady-state serving path: weights pre-packed once per
///   SubGraph install, scratch arena reused (pack-amortized);
/// * `fused_ms` — steady-state IR-lowered path: pre-packed weights *plus*
///   bias/requant/activation fused into the conv epilogue at install time;
/// * `cold_pack_ms` — building the weight cache *plus* the first forward,
///   i.e. what the install-bearing query pays before amortization begins.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBenchEntry {
    /// Workload label, e.g. `"ResNet50/max"`.
    pub label: String,
    /// Best-of-N wall time of the naive (tiled-schedule) forward pass, ms.
    pub naive_ms: f64,
    /// Best-of-N wall time of the per-call-packing GEMM forward pass, ms.
    pub gemm_ms: f64,
    /// Best-of-N wall time of the pre-packed (pack-amortized) forward, ms.
    pub packed_ms: f64,
    /// Best-of-N wall time of the IR-lowered fused-epilogue forward, ms.
    pub fused_ms: f64,
    /// Wall time of cache build + first pre-packed forward (cold pack), ms.
    pub cold_pack_ms: f64,
}

impl KernelBenchEntry {
    /// Naive-over-GEMM speedup (`> 1` means the GEMM path is faster).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.gemm_ms > 0.0 {
            self.naive_ms / self.gemm_ms
        } else {
            f64::INFINITY
        }
    }

    /// Naive-over-packed speedup: the pre-IR serving hot path's number.
    #[must_use]
    pub fn packed_speedup(&self) -> f64 {
        if self.packed_ms > 0.0 {
            self.naive_ms / self.packed_ms
        } else {
            f64::INFINITY
        }
    }

    /// Naive-over-fused speedup: the serving hot path's headline number.
    #[must_use]
    pub fn fused_speedup(&self) -> f64 {
        if self.fused_ms > 0.0 {
            self.naive_ms / self.fused_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The schema marker written into (and required from) `BENCH_kernels.json`.
pub const KERNEL_BENCH_SCHEMA: &str = "sushi-kernel-bench-v3";

/// The schema marker written into (and required from) `BENCH_serve.json`.
const SERVE_BENCH_SCHEMA: &str = "sushi-serve-bench-v5";

/// Quotes a label for a flat bench record.
///
/// # Panics
/// Panics if the label contains `"`, `,`, `{` or `}` — the minimal reader
/// does not unescape, so such a label would silently round-trip wrong.
fn quoted(label: &str) -> String {
    assert!(
        !label.contains(['"', ',', '{', '}']),
        "bench label '{label}' contains characters the minimal JSON format cannot carry"
    );
    format!("\"{label}\"")
}

/// Writes `{schema, entries: [flat objects]}`, one object per line, each
/// row a list of `(key, already-formatted value)` pairs — the one format
/// behind both committed baselines.
///
/// Hand-rolled: the vendored `serde` stub does not serialize, and the
/// format is a stable schema consumed by [`flat_records_from_json`] and
/// `scripts/bench_baseline.sh`.
fn flat_records_to_json(schema: &str, rows: &[Vec<(&str, String)>]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{schema}\",\n  \"entries\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&format!("    {{{}}}", fields.join(", ")));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One flat object of a bench baseline, as text between its braces.
struct FlatRecord<'a>(&'a str);

impl FlatRecord<'_> {
    fn raw(&self, key: &str) -> Result<&str, String> {
        let pat = format!("\"{key}\":");
        let start = self.0.find(&pat).ok_or_else(|| format!("missing field '{key}'"))? + pat.len();
        let rest = self.0[start..].trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Ok(rest[..end].trim())
    }

    fn label(&self, key: &str) -> Result<String, String> {
        Ok(self.raw(key)?.trim_matches('"').to_string())
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.raw(key)?.parse().map_err(|e| format!("bad {key}: {e}"))
    }
}

/// Splits a baseline written by [`flat_records_to_json`] into its entry
/// objects, refusing a file without the `schema` marker (an older or
/// foreign baseline), with an unclosed object, or with no entries.
fn flat_records_from_json<'a>(text: &'a str, schema: &str) -> Result<Vec<FlatRecord<'a>>, String> {
    if !text.contains(schema) {
        return Err(format!(
            "missing {schema} schema marker — regenerate the baseline with \
             scripts/bench_baseline.sh --update"
        ));
    }
    // Each entry object lives on its own line; skip the top-level braces.
    let records: Vec<FlatRecord<'a>> = text
        .split('{')
        .skip(2)
        .map(|obj| match obj.find('}') {
            Some(end) => Ok(FlatRecord(&obj[..end + 1])),
            // An opened-but-never-closed object means the file was
            // truncated; dropping it would silently weaken the regression
            // gate, so refuse the whole baseline.
            None => Err(format!("truncated {schema} entry (missing '}}')")),
        })
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err(format!("no {schema} entries found"));
    }
    Ok(records)
}

/// Serializes kernel bench entries as the `BENCH_kernels.json` baseline
/// (schema v3: adds the IR-lowered `fused_ms` column next to the v2
/// naive/gemm/packed/cold columns).
///
/// # Panics
/// Panics if a label contains `"`, `,`, `{` or `}`.
#[must_use]
pub fn kernel_bench_to_json(entries: &[KernelBenchEntry]) -> String {
    let ms = |v: f64| format!("{v:.3}");
    let ratio = |v: f64| format!("{v:.2}");
    let rows: Vec<_> = entries
        .iter()
        .map(|e| {
            vec![
                ("label", quoted(&e.label)),
                ("naive_ms", ms(e.naive_ms)),
                ("gemm_ms", ms(e.gemm_ms)),
                ("packed_ms", ms(e.packed_ms)),
                ("fused_ms", ms(e.fused_ms)),
                ("cold_pack_ms", ms(e.cold_pack_ms)),
                ("speedup", ratio(e.speedup())),
                ("packed_speedup", ratio(e.packed_speedup())),
                ("fused_speedup", ratio(e.fused_speedup())),
            ]
        })
        .collect();
    flat_records_to_json(KERNEL_BENCH_SCHEMA, &rows)
}

/// Parses the `BENCH_kernels.json` format written by
/// [`kernel_bench_to_json`].
///
/// # Errors
/// Returns a description of the first malformed entry, or a schema error
/// for pre-v3 baselines (which lack the fused column the regression gate
/// now protects — regenerate with `scripts/bench_baseline.sh --update`).
pub fn kernel_bench_from_json(text: &str) -> Result<Vec<KernelBenchEntry>, String> {
    flat_records_from_json(text, KERNEL_BENCH_SCHEMA)?
        .iter()
        .map(|r| {
            Ok(KernelBenchEntry {
                label: r.label("label")?,
                naive_ms: r.parse("naive_ms")?,
                gemm_ms: r.parse("gemm_ms")?,
                packed_ms: r.parse("packed_ms")?,
                fused_ms: r.parse("fused_ms")?,
                cold_pack_ms: r.parse("cold_pack_ms")?,
            })
        })
        .collect()
}

/// Compares a fresh measurement against a committed baseline, failing when
/// the GEMM or pack-amortized path regressed by more than `tolerance_pct`
/// on any workload.
///
/// `gemm_ms`, `packed_ms` and `fused_ms` all gate — `fused_ms` is the
/// serving hot path, `packed_ms` its fusion-off fallback, `gemm_ms` the
/// no-cache fallback. Baseline labels absent from `current` fail too (a
/// silently dropped workload is a regression).
///
/// # Errors
/// Returns a human-readable description of every regression found.
pub fn kernel_regressions(
    current: &[KernelBenchEntry],
    baseline: &[KernelBenchEntry],
    tolerance_pct: f64,
) -> Result<(), String> {
    let mut problems = Vec::new();
    for base in baseline {
        match current.iter().find(|c| c.label == base.label) {
            None => problems.push(format!("workload '{}' missing from current run", base.label)),
            Some(cur) => {
                for (what, cur_ms, base_ms) in [
                    ("gemm", cur.gemm_ms, base.gemm_ms),
                    ("packed", cur.packed_ms, base.packed_ms),
                    ("fused", cur.fused_ms, base.fused_ms),
                ] {
                    let limit = base_ms * (1.0 + tolerance_pct / 100.0);
                    if cur_ms > limit {
                        problems.push(format!(
                            "'{}' {what} path regressed: {:.3} ms vs baseline {:.3} ms \
                             (+{:.1}% > {:.0}% tolerance)",
                            base.label,
                            cur_ms,
                            base_ms,
                            100.0 * (cur_ms / base_ms - 1.0),
                            tolerance_pct
                        ));
                    }
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Drops shed by the admission queue for capacity
    /// ([`crate::serving::DropReason::QueueFull`]).
    pub dropped_queue_full: usize,
    /// Drops whose deadline lapsed before dispatch
    /// ([`crate::serving::DropReason::DeadlineLapsed`]).
    pub dropped_deadline: usize,
    /// Drops that exhausted their retry budget after transient failures
    /// ([`crate::serving::DropReason::RetryBudgetExhausted`]; 0 on
    /// fault-free runs).
    pub dropped_retry_budget: usize,
    /// Drops stranded by a permanently lost pool
    /// ([`crate::serving::DropReason::ReplicaLost`]; 0 on fault-free runs).
    pub dropped_replica_lost: usize,
    /// Replica crashes enacted (0 on fault-free runs).
    pub crashes: usize,
    /// Queries re-admitted by the retry policy (0 on fault-free runs).
    pub retries: usize,
    /// Batches duplicated onto a backup replica (0 on fault-free runs).
    pub hedges: usize,
    /// Hedged batches the backup won (0 on fault-free runs).
    pub hedges_won: usize,
    /// Replica quarantines enacted (0 on fault-free runs).
    pub quarantines: usize,
}

/// One scenario row of the `BENCH_serve.json` baseline.
///
/// Every field is *simulated* (not wall-clock), so the committed baseline
/// is deterministic: same seed, same binary → identical values on any
/// platform. The regression gate therefore runs with a near-zero
/// tolerance; a drift means the serving semantics changed, not that the
/// machine was noisy.
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
    /// p50 end-to-end latency, ms.
    pub p50_ms: f64,
    /// p95 end-to-end latency, ms.
    pub p95_ms: f64,
    /// p99 end-to-end latency, ms.
    pub p99_ms: f64,
    /// Goodput, queries/s.
    pub goodput_qps: f64,
    /// SLO violation rate over offered queries.
    pub slo_violation_rate: f64,
    /// Dropped-query count.
    pub dropped: usize,
    /// Adaptive degrade steps (0 on static rows).
    pub degrades: usize,
    /// Adaptive upgrade steps (0 on static rows).
    pub upgrades: usize,
}

impl ServeBenchEntry {
    /// Builds a baseline row from a scenario summary.
    #[must_use]
    pub fn from_summary(
        scenario: impl Into<String>,
        adaptive: bool,
        workers: usize,
        routing: impl Into<String>,
        tier: impl Into<String>,
        faults: impl Into<String>,
        s: &ServeSummary,
    ) -> Self {
        Self {
            scenario: scenario.into(),
            adaptive,
            workers,
            routing: routing.into(),
            tier: tier.into(),
            faults: faults.into(),
            p50_ms: s.p50_ms,
            p95_ms: s.p95_ms,
            p99_ms: s.p99_ms,
            goodput_qps: s.goodput_qps,
            slo_violation_rate: s.slo_violation_rate,
            dropped: s.dropped,
            degrades: s.degrades,
            upgrades: s.upgrades,
        }
    }
}

/// Serializes serve bench entries as the `BENCH_serve.json` baseline.
///
/// # Panics
/// Panics if a scenario, routing, tier, or faults label contains `"`,
/// `,`, `{` or `}`.
#[must_use]
pub fn serve_bench_to_json(entries: &[ServeBenchEntry]) -> String {
    let sim = |v: f64| format!("{v:.6}");
    let rows: Vec<_> = entries
        .iter()
        .map(|e| {
            vec![
                ("scenario", quoted(&e.scenario)),
                ("adaptive", e.adaptive.to_string()),
                ("workers", e.workers.to_string()),
                ("routing", quoted(&e.routing)),
                ("tier", quoted(&e.tier)),
                ("faults", quoted(&e.faults)),
                ("p50_ms", sim(e.p50_ms)),
                ("p95_ms", sim(e.p95_ms)),
                ("p99_ms", sim(e.p99_ms)),
                ("goodput_qps", sim(e.goodput_qps)),
                ("slo_violation_rate", sim(e.slo_violation_rate)),
                ("dropped", e.dropped.to_string()),
                ("degrades", e.degrades.to_string()),
                ("upgrades", e.upgrades.to_string()),
            ]
        })
        .collect();
    flat_records_to_json(SERVE_BENCH_SCHEMA, &rows)
}

/// Parses the `BENCH_serve.json` format written by [`serve_bench_to_json`].
///
/// # Errors
/// Returns a description of the first malformed entry, or a schema error
/// for a baseline written under an older schema.
pub fn serve_bench_from_json(text: &str) -> Result<Vec<ServeBenchEntry>, String> {
    flat_records_from_json(text, SERVE_BENCH_SCHEMA)?
        .iter()
        .map(|r| {
            Ok(ServeBenchEntry {
                scenario: r.label("scenario")?,
                adaptive: r.parse("adaptive")?,
                workers: r.parse("workers")?,
                routing: r.label("routing")?,
                tier: r.label("tier")?,
                faults: r.label("faults")?,
                p50_ms: r.parse("p50_ms")?,
                p95_ms: r.parse("p95_ms")?,
                p99_ms: r.parse("p99_ms")?,
                goodput_qps: r.parse("goodput_qps")?,
                slo_violation_rate: r.parse("slo_violation_rate")?,
                dropped: r.parse("dropped")?,
                degrades: r.parse("degrades")?,
                upgrades: r.parse("upgrades")?,
            })
        })
        .collect()
}

/// Compares a fresh deterministic serve run against the committed baseline.
///
/// Rows are matched by `(scenario, adaptive, workers, routing, tier,
/// faults)`. All
/// percentile/goodput/violation fields must agree within `rel_tol`
/// (relative) and the dropped/degrades/upgrades counts exactly; a row
/// missing from `current` fails, and so does a row present in `current`
/// but absent from the baseline (a newly added preset must enter the
/// baseline via `--update`, not ship ungated). Because the simulation is deterministic, any
/// non-zero difference means serving *semantics* drifted — the gate's
/// tolerance exists only to absorb decimal formatting in the JSON
/// round-trip.
///
/// # Errors
/// Returns a human-readable description of every mismatch found.
pub fn serve_regressions(
    current: &[ServeBenchEntry],
    baseline: &[ServeBenchEntry],
    rel_tol: f64,
) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() <= rel_tol * a.abs().max(b.abs()).max(1.0);
    let label = |e: &ServeBenchEntry| {
        format!(
            "{} ({}, {}w, {}, {}, faults={})",
            e.scenario,
            if e.adaptive { "adaptive" } else { "static" },
            e.workers,
            e.routing,
            e.tier,
            e.faults
        )
    };
    let same_key = |a: &ServeBenchEntry, b: &ServeBenchEntry| {
        a.scenario == b.scenario
            && a.adaptive == b.adaptive
            && a.workers == b.workers
            && a.routing == b.routing
            && a.tier == b.tier
            && a.faults == b.faults
    };
    let mut problems = Vec::new();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| same_key(c, base)) else {
            problems.push(format!("scenario '{}' missing from current run", label(base)));
            continue;
        };
        let checks = [
            ("p50_ms", cur.p50_ms, base.p50_ms),
            ("p95_ms", cur.p95_ms, base.p95_ms),
            ("p99_ms", cur.p99_ms, base.p99_ms),
            ("goodput_qps", cur.goodput_qps, base.goodput_qps),
            ("slo_violation_rate", cur.slo_violation_rate, base.slo_violation_rate),
        ];
        for (name, c, b) in checks {
            if !close(c, b) {
                problems
                    .push(format!("'{}' {name} drifted: {c:.6} vs baseline {b:.6}", label(base)));
            }
        }
        let counts = [
            ("dropped", cur.dropped, base.dropped),
            ("degrades", cur.degrades, base.degrades),
            ("upgrades", cur.upgrades, base.upgrades),
        ];
        for (name, c, b) in counts {
            if c != b {
                problems
                    .push(format!("'{}' {name} count drifted: {c} vs baseline {b}", label(base)));
            }
        }
    }
    for cur in current {
        if !baseline.iter().any(|b| same_key(b, cur)) {
            problems.push(format!(
                "scenario '{}' is not in the baseline — regenerate it with --update",
                label(cur)
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Serializes served records as CSV (header + one row per query), the raw
/// data behind the paper's scatter plots (Figs. 15–16). Plot-friendly:
/// constraints and served values side by side.
#[must_use]
pub fn records_to_csv(records: &[ServedRecord]) -> String {
    let mut out = String::from(
        "query_id,acc_constraint,lat_constraint_ms,subnet,served_accuracy,served_latency_ms,hit_ratio,offchip_mj,cache_updated\n",
    );
    for r in records {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{:.6},{:.6},{},{:.6},{:.6},{:.6},{:.6},{}",
            r.query.id,
            r.query.accuracy_constraint,
            r.query.latency_constraint_ms,
            r.subnet,
            r.served_accuracy,
            r.served_latency_ms,
            r.hit_ratio,
            r.offchip_mj,
            r.cache_updated
        );
    }
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

    fn kb(
        label: &str,
        naive: f64,
        gemm: f64,
        packed: f64,
        fused: f64,
        cold: f64,
    ) -> KernelBenchEntry {
        KernelBenchEntry {
            label: label.into(),
            naive_ms: naive,
            gemm_ms: gemm,
            packed_ms: packed,
            fused_ms: fused,
            cold_pack_ms: cold,
        }
    }

    #[test]
    fn kernel_bench_json_round_trips() {
        let entries = vec![
            kb("ResNet50/max", 1234.5, 98.7, 55.5, 48.8, 140.2),
            kb("MobV3/max", 456.0, 45.6, 30.1, 28.4, 60.9),
        ];
        let json = kernel_bench_to_json(&entries);
        assert!(json.contains(KERNEL_BENCH_SCHEMA));
        let parsed = kernel_bench_from_json(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].label, "ResNet50/max");
        assert!((parsed[0].naive_ms - 1234.5).abs() < 1e-9);
        assert!((parsed[0].packed_ms - 55.5).abs() < 1e-9);
        assert!((parsed[0].fused_ms - 48.8).abs() < 1e-9);
        assert!((parsed[1].gemm_ms - 45.6).abs() < 1e-9);
        assert!((parsed[1].cold_pack_ms - 60.9).abs() < 1e-9);
    }

    #[test]
    fn kernel_bench_rejects_garbage_and_old_schema() {
        assert!(kernel_bench_from_json("not json").is_err());
        assert!(kernel_bench_from_json("{\"entries\": []}").is_err());
        // Pre-v3 baselines (no fused column) must be rejected with a
        // regeneration hint, not silently half-parsed.
        let v1 = "{\n  \"schema\": \"sushi-kernel-bench-v1\",\n  \"entries\": [\n    \
                  {\"label\": \"a\", \"naive_ms\": 1.0, \"gemm_ms\": 0.5, \"speedup\": 2.00}\n  ]\n}\n";
        let err = kernel_bench_from_json(v1).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let v2 = "{\n  \"schema\": \"sushi-kernel-bench-v2\",\n  \"entries\": [\n    \
                  {\"label\": \"a\", \"naive_ms\": 1.0, \"gemm_ms\": 0.5, \"packed_ms\": 0.4, \
                  \"cold_pack_ms\": 0.6, \"speedup\": 2.00, \"packed_speedup\": 2.50}\n  ]\n}\n";
        let err = kernel_bench_from_json(v2).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn kernel_bench_rejects_truncated_baseline() {
        let entries = vec![kb("a", 10.0, 1.0, 0.5, 0.4, 1.5)];
        let json = kernel_bench_to_json(&entries);
        // Chop inside the entry object (before its closing brace): the
        // parse must fail, not return a shorter entry list.
        let truncated = &json[..json.find("speedup").unwrap()];
        assert!(kernel_bench_from_json(truncated).is_err());
    }

    #[test]
    fn kernel_speedups_are_naive_over_backend() {
        let e = kb("x", 100.0, 10.0, 4.0, 2.0, 12.0);
        assert!((e.speedup() - 10.0).abs() < 1e-12);
        assert!((e.packed_speedup() - 25.0).abs() < 1e-12);
        assert!((e.fused_speedup() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_regressions_gate_on_gemm_and_packed_time() {
        let base = vec![kb("a", 50.0, 10.0, 5.0, 4.0, 12.0)];
        // 15% slower across the board: within the 20% tolerance.
        let ok = vec![kb("a", 60.0, 11.5, 5.7, 4.6, 14.0)];
        assert!(kernel_regressions(&ok, &base, 20.0).is_ok());
        // gemm 50% slower: regression.
        let slow_gemm = vec![kb("a", 50.0, 15.0, 5.0, 4.0, 12.0)];
        let err = kernel_regressions(&slow_gemm, &base, 20.0).unwrap_err();
        assert!(err.contains("gemm path regressed"));
        // packed 50% slower (gemm fine): also a regression.
        let slow_packed = vec![kb("a", 50.0, 10.0, 7.5, 4.0, 12.0)];
        let err = kernel_regressions(&slow_packed, &base, 20.0).unwrap_err();
        assert!(err.contains("packed path regressed"));
        // fused 50% slower (rest fine): also a regression — the fused
        // column is the serving hot path the perf trajectory rides on.
        let slow_fused = vec![kb("a", 50.0, 10.0, 5.0, 6.0, 12.0)];
        let err = kernel_regressions(&slow_fused, &base, 20.0).unwrap_err();
        assert!(err.contains("fused path regressed"));
        // Missing workload: regression.
        assert!(kernel_regressions(&[], &base, 20.0).is_err());
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

    fn serve_entry(scenario: &str, p99: f64, dropped: usize) -> ServeBenchEntry {
        ServeBenchEntry {
            scenario: scenario.into(),
            adaptive: false,
            workers: 2,
            routing: "least_loaded".into(),
            tier: "all".into(),
            faults: "none".into(),
            p50_ms: 2.0,
            p95_ms: 5.0,
            p99_ms: p99,
            goodput_qps: 140.0,
            slo_violation_rate: 0.0125,
            dropped,
            degrades: 0,
            upgrades: 0,
        }
    }

    #[test]
    fn serve_bench_json_round_trips() {
        let mut entries = vec![serve_entry("steady", 8.5, 0), serve_entry("burst", 21.25, 17)];
        entries[1].adaptive = true;
        entries[1].degrades = 5;
        entries[1].upgrades = 4;
        entries[1].workers = 8;
        entries[1].routing = "cache_affinity".into();
        entries[1].tier = "latency_critical".into();
        entries[1].faults = "supervised".into();
        let json = serve_bench_to_json(&entries);
        assert!(json.contains("sushi-serve-bench-v5"));
        let parsed = serve_bench_from_json(&json).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn serve_bench_rejects_stale_baselines() {
        for old in ["v1", "v2", "v3", "v4"] {
            let stale = format!(
                "{{\n \"schema\": \"sushi-serve-bench-{old}\",\n \"entries\": [\n \
                 {{\"scenario\": \"steady\", \"p50_ms\": 1.0}}\n ]\n}}\n"
            );
            let err = serve_bench_from_json(&stale).unwrap_err();
            assert!(err.contains("--update"), "{err}");
        }
    }

    #[test]
    fn serve_bench_rejects_garbage_and_truncation() {
        assert!(serve_bench_from_json("not json").is_err());
        let json = serve_bench_to_json(&[serve_entry("steady", 8.5, 0)]);
        let truncated = &json[..json.find("dropped").unwrap()];
        assert!(serve_bench_from_json(truncated).is_err());
    }

    #[test]
    fn serve_regressions_gate_on_drift() {
        let base = vec![serve_entry("steady", 8.5, 3)];
        assert!(serve_regressions(&base.clone(), &base, 1e-9).is_ok());
        let mut drifted = base.clone();
        drifted[0].p99_ms = 9.0;
        assert!(serve_regressions(&drifted, &base, 1e-9).unwrap_err().contains("p99_ms"));
        let mut dropped = base.clone();
        dropped[0].dropped = 4;
        assert!(serve_regressions(&dropped, &base, 1e-9).unwrap_err().contains("dropped"));
        let mut stepped = base.clone();
        stepped[0].degrades = 2;
        assert!(serve_regressions(&stepped, &base, 1e-9).unwrap_err().contains("degrades"));
        assert!(serve_regressions(&[], &base, 1e-9).unwrap_err().contains("missing"));
        // Same scenario under the other adaptation mode is a different row:
        // it is both missing from the baseline and missing from the run.
        let mut flipped = base.clone();
        flipped[0].adaptive = true;
        let err = serve_regressions(&flipped, &base, 1e-9).unwrap_err();
        assert!(err.contains("missing from current run") && err.contains("not in the baseline"));
        // Same scenario at another pool size or routing policy is a
        // different row too.
        let mut resized = base.clone();
        resized[0].workers = 4;
        assert!(serve_regressions(&resized, &base, 1e-9).is_err());
        let mut rerouted = base.clone();
        rerouted[0].routing = "round_robin".into();
        assert!(serve_regressions(&rerouted, &base, 1e-9).is_err());
        // ... and so is a per-tier slice of the same scenario.
        let mut sliced = base.clone();
        sliced[0].tier = "best_effort".into();
        assert!(serve_regressions(&sliced, &base, 1e-9).is_err());
        // ... and the same scenario under a different fault mode.
        let mut refaulted = base.clone();
        refaulted[0].faults = "supervised".into();
        assert!(serve_regressions(&refaulted, &base, 1e-9).is_err());
        // A scenario the baseline has never seen fails too: new presets
        // must enter the baseline explicitly via --update.
        let extra = vec![base[0].clone(), serve_entry("brand_new", 1.0, 0)];
        assert!(serve_regressions(&extra, &base, 1e-9)
            .unwrap_err()
            .contains("not in the baseline"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let rs = vec![record(2.0, 0.76, 3.0, 0.75, 0.5), record(4.0, 0.78, 3.0, 0.80, 1.0)];
        let csv = records_to_csv(&rs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("query_id,"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn csv_of_empty_stream_is_just_header() {
        let csv = records_to_csv(&[]);
        assert_eq!(csv.lines().count(), 1);
    }

    #[test]
    fn csv_round_numbers_are_parseable() {
        let rs = vec![record(2.5, 0.76, 3.0, 0.75, 0.5)];
        let csv = records_to_csv(&rs);
        let row = csv.lines().nth(1).unwrap();
        let lat: f64 = row.split(',').nth(5).unwrap().parse().unwrap();
        assert!((lat - 2.5).abs() < 1e-9);
    }
}
