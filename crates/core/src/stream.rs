//! Query-stream generators.
//!
//! The paper's applications (§1) operate under *dynamically variable
//! deployment conditions*: variable traffic, battery level, and query
//! complexity. These generators produce deterministic constraint streams
//! covering the evaluation's random queries (§5.6–5.7) plus two motivating
//! scenarios: autonomous-vehicle terrain phases and ICU triage bursts.

use sushi_sched::{LatencyTable, Query, EMPTY_COLUMN};
use sushi_tensor::DetRng;

/// Constraint bounds derived from a serving set, used to sample meaningful
/// `(Aₜ, Lₜ)` pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstraintSpace {
    /// Lowest accuracy constraint to issue.
    pub acc_lo: f64,
    /// Highest accuracy constraint to issue.
    pub acc_hi: f64,
    /// Tightest latency constraint to issue (ms).
    pub lat_lo: f64,
    /// Loosest latency constraint to issue (ms).
    pub lat_hi: f64,
}

impl ConstraintSpace {
    /// Minimum half-width of a constraint band. A single-SubNet serving set
    /// (or one where every SubNet reports the same accuracy/latency) would
    /// otherwise collapse a band to a point, making every sampled stream
    /// issue one identical constraint.
    pub const DEGENERATE_BAND_EPS: f64 = 1e-3;

    /// Derives a constraint space from the serving SubNets' accuracy band
    /// and their cold latencies (see [`Self::from_table`]).
    fn from_serving_set(accuracies: &[f64], cold_latencies_ms: &[f64]) -> Self {
        assert!(!accuracies.is_empty() && !cold_latencies_ms.is_empty());
        let acc_lo = accuracies.iter().copied().fold(f64::INFINITY, f64::min);
        let acc_hi = accuracies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lat_min = cold_latencies_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let lat_max = cold_latencies_ms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (acc_lo, acc_hi) = Self::widen_if_degenerate(acc_lo, acc_hi);
        let (lat_lo, lat_hi) = Self::widen_if_degenerate(lat_min * 0.8, lat_max * 1.1);
        Self { acc_lo, acc_hi, lat_lo, lat_hi }
    }

    /// The constraint space of a latency table's rows: their accuracy band,
    /// and their cold (empty-column) latencies widened to
    /// `[0.8·min, 1.1·max]`.
    ///
    /// Degenerate bands (all accuracies equal, or all latencies equal with
    /// a zero-width `[0.8x, 1.1x]` window when `x == 0`) are widened by
    /// [`Self::DEGENERATE_BAND_EPS`] so the space always has positive area.
    ///
    /// # Panics
    /// Panics if the table has no rows.
    #[must_use]
    pub fn from_table(table: &LatencyTable) -> Self {
        let accs: Vec<f64> = table.rows().iter().map(|r| r.accuracy).collect();
        let colds: Vec<f64> = table.rows().iter().map(|r| r.latency_ms[EMPTY_COLUMN]).collect();
        Self::from_serving_set(&accs, &colds)
    }

    fn widen_if_degenerate(lo: f64, hi: f64) -> (f64, f64) {
        if hi - lo >= Self::DEGENERATE_BAND_EPS {
            (lo, hi)
        } else {
            let mid = f64::midpoint(lo, hi);
            (mid - Self::DEGENERATE_BAND_EPS, mid + Self::DEGENERATE_BAND_EPS)
        }
    }
}

/// A [`Query`] annotated with its open-loop arrival time and tenant.
///
/// The batch-replay experiments (§5.6–5.7) consume bare `Vec<Query>`
/// streams; the serving runtime ([`crate::serving`]) needs *when* each
/// query arrives and, for multi-tenant mixes, *who* issued it. One shared
/// wrapper keeps the two views consistent instead of threading parallel
/// `Vec<f64>` timestamp arrays next to every stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedQuery {
    /// Simulated arrival time in milliseconds since the start of the call
    /// that serves it (finite and `>= 0`).
    pub arrival_ms: f64,
    /// Tenant index (0 for single-tenant streams).
    pub tenant: u32,
    /// The constraint query itself.
    pub query: Query,
}

impl TimedQuery {
    /// Wraps a query with an arrival timestamp (tenant 0).
    #[must_use]
    pub fn new(arrival_ms: f64, query: Query) -> Self {
        Self { arrival_ms, tenant: 0, query }
    }

    /// Tags the query with a tenant index.
    #[must_use]
    fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Absolute completion deadline implied by the latency constraint
    /// (arrival + `Lₜ`): the serving runtime's SLO reference point.
    #[must_use]
    pub fn deadline_ms(&self) -> f64 {
        self.arrival_ms + self.query.latency_constraint_ms
    }
}

/// Zips a constraint stream with arrival timestamps into [`TimedQuery`]s.
///
/// Existing `Vec<Query>` consumers are untouched; the serving runtime
/// attaches timestamps produced by a [`crate::serving::ArrivalProcess`].
///
/// # Panics
/// Panics if the two slices differ in length or `arrivals_ms` is not
/// sorted in non-decreasing order.
#[must_use]
pub fn attach_arrivals(queries: &[Query], arrivals_ms: &[f64]) -> Vec<TimedQuery> {
    assert_eq!(queries.len(), arrivals_ms.len(), "queries / arrivals length mismatch");
    assert!(
        arrivals_ms.windows(2).all(|w| w[0] <= w[1]),
        "arrival timestamps must be non-decreasing"
    );
    queries.iter().zip(arrivals_ms).map(|(q, &t)| TimedQuery::new(t, *q)).collect()
}

/// Merges per-tenant timed streams into one arrival-ordered stream.
///
/// The merge is stable: ties in arrival time keep the lower tenant first,
/// so the result is deterministic. Query ids are reassigned to the merged
/// order (`0..n`) so downstream consumers see a single monotone stream.
#[must_use]
pub fn merge_tenant_streams(streams: &[Vec<TimedQuery>]) -> Vec<TimedQuery> {
    let mut merged: Vec<TimedQuery> = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for (tenant, stream) in streams.iter().enumerate() {
        merged.extend(stream.iter().map(|tq| tq.with_tenant(tenant as u32)));
    }
    merged.sort_by(|a, b| {
        a.arrival_ms.total_cmp(&b.arrival_ms).then_with(|| a.tenant.cmp(&b.tenant))
    });
    for (i, tq) in merged.iter_mut().enumerate() {
        tq.query.id = i as u64;
    }
    merged
}

/// Uniform random constraints over the space (§5.6's "random queries").
#[must_use]
pub fn uniform_stream(space: &ConstraintSpace, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = DetRng::new(seed);
    (0..n as u64)
        .map(|id| {
            let a = space.acc_lo + (space.acc_hi - space.acc_lo) * rng.next_f64();
            let l = space.lat_lo + (space.lat_hi - space.lat_lo) * rng.next_f64();
            Query::new(id, a, l)
        })
        .collect()
}

/// Phase of an autonomous-vehicle trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerrainPhase {
    /// Sparse suburban driving: relaxed latency, high accuracy demanded.
    SparseSuburban,
    /// Dense urban driving: tight latency dominates.
    DenseUrban,
}

/// Autonomous-vehicle navigation trace (§1's "sparse suburban vs dense
/// urban terrain"): alternating phases of `phase_len` queries. Urban phases
/// tighten the latency constraint toward the bottom quartile; suburban
/// phases demand top-quartile accuracy with relaxed latency.
#[must_use]
pub fn av_navigation_stream(
    space: &ConstraintSpace,
    n: usize,
    phase_len: usize,
    seed: u64,
) -> Vec<(TerrainPhase, Query)> {
    let mut rng = DetRng::new(seed);
    let phase_len = phase_len.max(1);
    (0..n as u64)
        .map(|id| {
            let phase = if (id as usize / phase_len).is_multiple_of(2) {
                TerrainPhase::SparseSuburban
            } else {
                TerrainPhase::DenseUrban
            };
            let (a, l) = match phase {
                TerrainPhase::SparseSuburban => (
                    space.acc_hi - 0.25 * (space.acc_hi - space.acc_lo) * rng.next_f64(),
                    space.lat_hi - 0.2 * (space.lat_hi - space.lat_lo) * rng.next_f64(),
                ),
                TerrainPhase::DenseUrban => (
                    space.acc_lo + 0.3 * (space.acc_hi - space.acc_lo) * rng.next_f64(),
                    space.lat_lo + 0.25 * (space.lat_hi - space.lat_lo) * rng.next_f64(),
                ),
            };
            (phase, Query::new(id, a, l))
        })
        .collect()
}

/// ICU triage trace (§1's "variable number of patients triaged"): baseline
/// load with deterministic bursts. During a burst, latency constraints
/// tighten (more patients per unit time) while accuracy demands stay high —
/// the regime where a single static model underperforms.
#[must_use]
pub fn icu_burst_stream(
    space: &ConstraintSpace,
    n: usize,
    burst_period: usize,
    burst_len: usize,
    seed: u64,
) -> Vec<(bool, Query)> {
    let mut rng = DetRng::new(seed);
    let period = burst_period.max(1);
    (0..n as u64)
        .map(|id| {
            let in_burst = (id as usize).rem_euclid(period) < burst_len;
            let a = space.acc_hi - 0.2 * (space.acc_hi - space.acc_lo) * rng.next_f64();
            let l = if in_burst {
                space.lat_lo + 0.15 * (space.lat_hi - space.lat_lo) * rng.next_f64()
            } else {
                space.lat_lo + (0.5 + 0.5 * rng.next_f64()) * (space.lat_hi - space.lat_lo)
            };
            (in_burst, Query::new(id, a, l))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ConstraintSpace {
        ConstraintSpace { acc_lo: 0.75, acc_hi: 0.80, lat_lo: 4.0, lat_hi: 20.0 }
    }

    #[test]
    fn from_table_reads_row_accuracies_and_the_cold_column() {
        let net = sushi_wsnet::zoo::toy_supernet();
        let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(3);
        let cold = |sn: &sushi_wsnet::SubNet| sn.gflops() + 1.0;
        // Cached columns are cheaper and must not leak into the band.
        let table = LatencyTable::build(&picks, vec![picks[0].graph.clone()], |sn, cached| {
            cold(sn) * if cached.is_some() { 0.5 } else { 1.0 }
        });
        let accs: Vec<f64> = picks.iter().map(|p| p.accuracy).collect();
        let colds: Vec<f64> = picks.iter().map(cold).collect();
        assert_eq!(
            ConstraintSpace::from_table(&table),
            ConstraintSpace::from_serving_set(&accs, &colds)
        );
    }

    #[test]
    fn from_serving_set_spans_inputs() {
        let s = ConstraintSpace::from_serving_set(&[0.75, 0.80], &[5.0, 18.0]);
        assert_eq!(s.acc_lo, 0.75);
        assert_eq!(s.acc_hi, 0.80);
        assert!(s.lat_lo < 5.0 && s.lat_hi > 18.0);
    }

    #[test]
    fn single_subnet_serving_set_widens_degenerate_bands() {
        // One SubNet => acc_lo == acc_hi before widening; the space must
        // still have positive area so streams sample distinct constraints.
        let s = ConstraintSpace::from_serving_set(&[0.77], &[5.0]);
        assert!(s.acc_lo < 0.77 && 0.77 < s.acc_hi);
        assert!(s.lat_lo < s.lat_hi);
        let qs = uniform_stream(&s, 8, 3);
        assert!(qs.iter().any(|q| q.accuracy_constraint != qs[0].accuracy_constraint));
    }

    #[test]
    fn equal_accuracies_widen_but_latency_band_survives() {
        let s = ConstraintSpace::from_serving_set(&[0.8, 0.8, 0.8], &[4.0, 10.0]);
        assert!(s.acc_hi - s.acc_lo >= 2.0 * ConstraintSpace::DEGENERATE_BAND_EPS - 1e-12);
        // Non-degenerate latency band is untouched.
        assert!((s.lat_lo - 3.2).abs() < 1e-12 && (s.lat_hi - 11.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_stream_stays_in_bounds() {
        let qs = uniform_stream(&space(), 200, 1);
        assert_eq!(qs.len(), 200);
        for q in &qs {
            assert!((0.75..=0.80).contains(&q.accuracy_constraint));
            assert!((4.0..=20.0).contains(&q.latency_constraint_ms));
        }
    }

    #[test]
    fn uniform_stream_is_deterministic() {
        assert_eq!(uniform_stream(&space(), 50, 9), uniform_stream(&space(), 50, 9));
        assert_ne!(uniform_stream(&space(), 50, 9), uniform_stream(&space(), 50, 10));
    }

    #[test]
    fn av_stream_alternates_phases() {
        let qs = av_navigation_stream(&space(), 40, 10, 2);
        assert_eq!(qs[0].0, TerrainPhase::SparseSuburban);
        assert_eq!(qs[10].0, TerrainPhase::DenseUrban);
        assert_eq!(qs[20].0, TerrainPhase::SparseSuburban);
    }

    #[test]
    fn urban_phase_is_latency_tight() {
        let qs = av_navigation_stream(&space(), 200, 10, 3);
        let mean = |phase: TerrainPhase| {
            let v: Vec<f64> = qs
                .iter()
                .filter(|(p, _)| *p == phase)
                .map(|(_, q)| q.latency_constraint_ms)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(TerrainPhase::DenseUrban) < mean(TerrainPhase::SparseSuburban));
    }

    #[test]
    fn icu_bursts_tighten_latency() {
        let qs = icu_burst_stream(&space(), 300, 30, 10, 4);
        let burst: Vec<f64> =
            qs.iter().filter(|(b, _)| *b).map(|(_, q)| q.latency_constraint_ms).collect();
        let calm: Vec<f64> =
            qs.iter().filter(|(b, _)| !*b).map(|(_, q)| q.latency_constraint_ms).collect();
        let mb = burst.iter().sum::<f64>() / burst.len() as f64;
        let mc = calm.iter().sum::<f64>() / calm.len() as f64;
        assert!(mb < mc, "burst {mb} !< calm {mc}");
    }

    #[test]
    fn attach_arrivals_pairs_in_order() {
        let qs = uniform_stream(&space(), 4, 1);
        let ts = vec![0.0, 1.5, 1.5, 9.0];
        let timed = attach_arrivals(&qs, &ts);
        assert_eq!(timed.len(), 4);
        assert_eq!(timed[3].arrival_ms, 9.0);
        assert_eq!(timed[2].query, qs[2]);
        assert_eq!(timed[0].tenant, 0);
        assert!((timed[1].deadline_ms() - (1.5 + qs[1].latency_constraint_ms)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn attach_arrivals_rejects_unsorted_timestamps() {
        let qs = uniform_stream(&space(), 2, 1);
        let _ = attach_arrivals(&qs, &[5.0, 1.0]);
    }

    #[test]
    fn merge_tenant_streams_is_sorted_and_tagged() {
        let qs = uniform_stream(&space(), 3, 1);
        let a = attach_arrivals(&qs, &[0.0, 4.0, 8.0]);
        let b = attach_arrivals(&qs, &[1.0, 4.0, 10.0]);
        let merged = merge_tenant_streams(&[a, b]);
        assert_eq!(merged.len(), 6);
        assert!(merged.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        // Tie at t=4.0 keeps tenant 0 first.
        let tie: Vec<u32> =
            merged.iter().filter(|tq| tq.arrival_ms == 4.0).map(|tq| tq.tenant).collect();
        assert_eq!(tie, vec![0, 1]);
        // Ids are reassigned to the merged order.
        assert_eq!(
            merged.iter().map(|tq| tq.query.id).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn icu_accuracy_demands_stay_high() {
        let qs = icu_burst_stream(&space(), 100, 20, 5, 5);
        for (_, q) in &qs {
            assert!(q.accuracy_constraint >= 0.75 + 0.8 * 0.05 - 1e-9);
        }
    }
}
