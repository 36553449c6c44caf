//! SushiSched: Algorithm 1 — per-query SubNet selection and amortized
//! across-query SubGraph caching.
//!
//! Per query `qₜ = (Aₜ, Lₜ)` the scheduler selects the SubNet to serve from
//! the latency table under the *current* cache state. It maintains a
//! running average (`AvgNet`) of the vectorized SubNets served for the past
//! `Q` queries; every `Q` queries it re-caches the candidate SubGraph
//! closest to that average — frequent kernels/channels survive, infrequent
//! ones age out, and (unlike pure intersection) frequent-but-not-universal
//! structure is preserved (Fig. 6).
//!
//! The scheduler itself is load-oblivious: it prices queries as if the
//! queue were empty. Under pressure the serving loop narrows the
//! constraints it forwards here via [`crate::TenantPolicy`]
//! (query *shaping*), so `decide` keeps full authority over row selection
//! and cache placement — the adaptive layer never overrides a decision,
//! it only changes the question. That split is what lets `AvgNet` and the
//! Q-window cache keep tracking the SubNets *actually served* while
//! degraded.

use sushi_wsnet::RunningAvg;

use crate::query::{Policy, Query};
use crate::table::{LatencyTable, EMPTY_COLUMN};

/// How the cached SubGraph is chosen every `Q` queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSelection {
    /// Algorithm 1: argmin L2 distance between candidate columns and
    /// `AvgNet` (state-aware).
    MinDistanceToAvg,
    /// Ablation: argmin *cosine* distance to `AvgNet` — shape-sensitive but
    /// scale-blind, so it can prefer a similarly-proportioned but smaller
    /// SubGraph.
    MinCosineToAvg,
    /// State-unaware baseline: cache the column matching the most recently
    /// served SubNet (the "SUSHI w/ PB, state-unaware caching" comparison
    /// point of §5.7).
    FollowLast,
    /// Never update the cache after the first installation.
    Frozen,
}

/// One scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Row index of the SubNet to serve.
    pub subnet_row: usize,
    /// `Some(column)` when the scheduler wants a new SubGraph cached
    /// before/while serving this query.
    pub cache_update: Option<usize>,
}

/// The SushiSched query scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    table: LatencyTable,
    policy: Policy,
    cache_selection: CacheSelection,
    q_window: usize,
    avg: RunningAvg,
    current_cache: usize,
    served: u64,
}

impl Scheduler {
    /// Creates a scheduler over a latency table.
    ///
    /// `q_window` is the caching period `Q` (and the averaging window).
    ///
    /// # Panics
    /// Panics if `q_window == 0`.
    #[must_use]
    pub fn new(
        table: LatencyTable,
        policy: Policy,
        cache_selection: CacheSelection,
        q_window: usize,
    ) -> Self {
        assert!(q_window > 0, "Q must be positive");
        let dim = table.row(0).vector.dim();
        Self {
            table,
            policy,
            cache_selection,
            q_window,
            avg: RunningAvg::new(q_window, dim),
            current_cache: EMPTY_COLUMN,
            served: 0,
        }
    }

    /// The underlying latency table.
    #[must_use]
    pub fn table(&self) -> &LatencyTable {
        &self.table
    }

    /// Currently assumed cache column.
    #[must_use]
    pub fn current_cache(&self) -> usize {
        self.current_cache
    }

    /// The selection policy queries are priced under (the adaptive layer
    /// shapes queries against the same policy).
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The caching period `Q`.
    #[must_use]
    pub fn q_window(&self) -> usize {
        self.q_window
    }

    /// Number of queries scheduled so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Schedules one query: SubNet selection now, plus a cache update every
    /// `Q`-th query (Algorithm 1's "for every Q queries" step).
    pub fn decide(&mut self, query: &Query) -> Decision {
        let row = self.table.select(
            self.policy,
            query.accuracy_constraint,
            query.latency_constraint_ms,
            self.current_cache,
        );
        self.avg.push(self.table.row(row).vector.clone());
        self.served += 1;

        let mut cache_update = None;
        if self.served.is_multiple_of(self.q_window as u64) {
            if let Some(next) = self.next_cache(row) {
                if next != self.current_cache {
                    self.current_cache = next;
                    cache_update = Some(next);
                } else if self.served == self.q_window as u64 && next != EMPTY_COLUMN {
                    // First decision epoch: enact even if it equals the
                    // initial assumption so the accelerator actually loads it.
                    cache_update = Some(next);
                }
            }
        }
        Decision { subnet_row: row, cache_update }
    }

    fn next_cache(&self, last_row: usize) -> Option<usize> {
        match self.cache_selection {
            CacheSelection::Frozen => {
                (self.current_cache == EMPTY_COLUMN && self.table.num_columns() > 1).then_some(1)
            }
            CacheSelection::FollowLast => {
                Some(self.table.closest_column(&self.table.row(last_row).vector.clone()))
            }
            CacheSelection::MinDistanceToAvg => {
                let avg = self.avg.mean()?;
                Some(self.table.closest_column(&avg))
            }
            CacheSelection::MinCosineToAvg => {
                let avg = self.avg.mean()?;
                Some(self.table.closest_column_by(&avg, |a, b| a.dist_cosine(b)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::test_support::{subnet, synthetic_latency};

    fn table() -> LatencyTable {
        let subnets = vec![subnet("A", 1, 0.75), subnet("B", 2, 0.77), subnet("C", 3, 0.79)];
        let candidates = vec![
            subnet("gA", 1, 0.0).graph,
            subnet("gB", 2, 0.0).graph,
            subnet("gC", 3, 0.0).graph,
        ];
        LatencyTable::build(&subnets, candidates, synthetic_latency)
    }

    fn query(a: f64, l: f64) -> Query {
        Query::new(0, a, l)
    }

    #[test]
    fn serves_hard_accuracy_constraint() {
        let mut s =
            Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 4);
        let d = s.decide(&query(0.78, 100.0));
        assert!(s.table().row(d.subnet_row).accuracy >= 0.78);
    }

    #[test]
    fn cache_updates_only_every_q_queries() {
        let mut s =
            Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 3);
        let mut updates = Vec::new();
        for i in 0..9 {
            let d = s.decide(&query(0.76, 100.0));
            if d.cache_update.is_some() {
                updates.push(i);
            }
        }
        // Only at query indices 2, 5, 8 may updates occur (steady stream ->
        // the average is constant after the first window, so only index 2).
        assert!(updates.iter().all(|i| (i + 1) % 3 == 0), "{updates:?}");
        assert!(!updates.is_empty());
    }

    #[test]
    fn steady_stream_converges_to_matching_subgraph() {
        let mut s =
            Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 2);
        for _ in 0..6 {
            let _ = s.decide(&query(0.785, 100.0)); // always serves C
        }
        // Cache must be column gC (index 3): the subgraph matching C.
        assert_eq!(s.current_cache(), 3);
    }

    #[test]
    fn mixed_stream_caches_intermediate_shape() {
        // Alternate A-heavy and B queries; the average sits between A and B,
        // and gB (index 2) should win over gC.
        let mut s =
            Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 4);
        for i in 0..8 {
            let a = if i % 2 == 0 { 0.74 } else { 0.76 };
            let _ = s.decide(&query(a, 100.0));
        }
        assert!(s.current_cache() == 1 || s.current_cache() == 2, "cache {}", s.current_cache());
    }

    #[test]
    fn frozen_selection_updates_once() {
        let mut s = Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::Frozen, 2);
        let mut updates = 0;
        for _ in 0..8 {
            if s.decide(&query(0.76, 100.0)).cache_update.is_some() {
                updates += 1;
            }
        }
        assert_eq!(updates, 1);
    }

    #[test]
    fn follow_last_tracks_recent_subnet() {
        let mut s = Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::FollowLast, 1);
        let _ = s.decide(&query(0.785, 100.0)); // serves C
        assert_eq!(s.current_cache(), 3);
        let _ = s.decide(&query(0.0, 100.0)); // serves A (min latency feasible)
        assert_eq!(s.current_cache(), 1);
    }

    #[test]
    fn latency_policy_exploits_cache_state() {
        // After caching gC, C becomes feasible at a constraint that only
        // admitted B when cold.
        let mut s =
            Scheduler::new(table(), Policy::StrictLatency, CacheSelection::MinDistanceToAvg, 1);
        let d1 = s.decide(&query(0.0, 2.5));
        assert_eq!(s.table().row(d1.subnet_row).name, "B");
        // Serving B caches gB; B latency drops to 1.4, still only B feasible
        // at 2.5... now serve with 2.2: C with gC cached is 2.1.
        for _ in 0..4 {
            let _ = s.decide(&query(0.0, 2.5));
        }
        let d = s.decide(&query(0.0, 2.2));
        let name = &s.table().row(d.subnet_row).name;
        assert!(name == "B" || name == "C");
    }

    #[test]
    #[should_panic(expected = "Q must be positive")]
    fn zero_window_rejected() {
        let _ =
            Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 0);
    }

    #[test]
    fn served_counter_increments() {
        let mut s =
            Scheduler::new(table(), Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 2);
        for _ in 0..5 {
            let _ = s.decide(&query(0.75, 10.0));
        }
        assert_eq!(s.served(), 5);
    }
}
