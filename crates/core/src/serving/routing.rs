//! Replica routing: which worker a ready batch is dispatched to.
//!
//! With per-replica cache state (each replica holds its own resident
//! SubGraph, and installs are routed — not broadcast), worker
//! choice becomes a placement decision: dispatching to a replica whose
//! resident SubGraph already covers the batch's SubNet serves from a warm
//! Persistent Buffer, while a mismatched replica pays cold latency. A
//! [`RoutingPolicy`] makes that choice from per-replica [`ReplicaView`]
//! snapshots — a pure function of the views (plus a round-robin cursor),
//! so routing is deterministic, platform-independent, and directly
//! property-testable without a pool in hand.

/// How a ready batch picks among free workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// The free replica that has been idle longest (earliest
    /// `busy_until`), lowest index on ties. Spreads load instead of
    /// hot-spotting worker 0 the way a lowest-index-free rule does.
    LeastLoaded,
    /// Cycle through replicas in index order, skipping busy ones.
    RoundRobin,
    /// Prefer the free replica whose resident SubGraph already covers the
    /// batch's SubNet (warm Persistent Buffer); fall back to
    /// [`RoutingPolicy::LeastLoaded`] order when no free replica is warm.
    CacheAffinity,
}

impl RoutingPolicy {
    /// Stable label (the `routing` key of `BENCH_serve.json` rows).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicy::LeastLoaded => "least_loaded",
            RoutingPolicy::RoundRobin => "round_robin",
            RoutingPolicy::CacheAffinity => "cache_affinity",
        }
    }

    /// Picks a worker for one batch, or `None` when every replica is busy.
    ///
    /// Deterministic in `(self, views, *rr_cursor)`; the cursor is only
    /// read/advanced by [`RoutingPolicy::RoundRobin`]. Starvation-free by
    /// construction: whenever any view is free, a free one is chosen.
    #[must_use]
    pub fn choose(self, views: &[ReplicaView], rr_cursor: &mut usize) -> Option<usize> {
        let least_loaded = |pred: &dyn Fn(&ReplicaView) -> bool| {
            views
                .iter()
                .enumerate()
                .filter(|(_, v)| v.free && pred(v))
                .min_by(|(ai, a), (bi, b)| {
                    a.busy_until_ms.total_cmp(&b.busy_until_ms).then(ai.cmp(bi))
                })
                .map(|(i, _)| i)
        };
        match self {
            RoutingPolicy::LeastLoaded => least_loaded(&|_| true),
            RoutingPolicy::RoundRobin => {
                if views.is_empty() {
                    return None;
                }
                let start = *rr_cursor % views.len();
                let picked =
                    (0..views.len()).map(|k| (start + k) % views.len()).find(|&i| views[i].free)?;
                *rr_cursor = picked + 1;
                Some(picked)
            }
            RoutingPolicy::CacheAffinity => {
                least_loaded(&|v| v.covers).or_else(|| least_loaded(&|_| true))
            }
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One replica, as the routing decision sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaView {
    /// Whether the replica can take a batch right now (idle and not
    /// already claimed by an earlier batch of the same dispatch group).
    pub free: bool,
    /// When the replica last became (or becomes) idle, ms — the
    /// least-loaded order key.
    pub busy_until_ms: f64,
    /// Whether the replica's resident SubGraph covers the batch's SubNet
    /// (a warm dispatch).
    pub covers: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(free: bool, busy_until_ms: f64, covers: bool) -> ReplicaView {
        ReplicaView { free, busy_until_ms, covers }
    }

    #[test]
    fn least_loaded_prefers_longest_idle_then_lowest_index() {
        let views = [view(true, 5.0, false), view(true, 2.0, false), view(true, 2.0, false)];
        let mut rr = 0;
        assert_eq!(RoutingPolicy::LeastLoaded.choose(&views, &mut rr), Some(1));
        assert_eq!(rr, 0, "least-loaded never touches the round-robin cursor");
    }

    #[test]
    fn round_robin_cycles_and_skips_busy() {
        let views = [view(true, 0.0, false), view(false, 9.0, false), view(true, 0.0, false)];
        let mut rr = 0;
        assert_eq!(RoutingPolicy::RoundRobin.choose(&views, &mut rr), Some(0));
        assert_eq!(RoutingPolicy::RoundRobin.choose(&views, &mut rr), Some(2));
        assert_eq!(RoutingPolicy::RoundRobin.choose(&views, &mut rr), Some(0));
    }

    #[test]
    fn cache_affinity_prefers_covering_replica_and_falls_back() {
        let views = [view(true, 0.0, false), view(true, 3.0, true)];
        let mut rr = 0;
        assert_eq!(RoutingPolicy::CacheAffinity.choose(&views, &mut rr), Some(1));
        let cold = [view(true, 0.0, false), view(true, 3.0, false)];
        assert_eq!(RoutingPolicy::CacheAffinity.choose(&cold, &mut rr), Some(0));
        let busy_warm = [view(true, 0.0, false), view(false, 3.0, true)];
        assert_eq!(
            RoutingPolicy::CacheAffinity.choose(&busy_warm, &mut rr),
            Some(0),
            "a busy warm replica never blocks dispatch"
        );
    }

    #[test]
    fn all_busy_yields_none() {
        let views = [view(false, 1.0, true), view(false, 2.0, true)];
        let mut rr = 7;
        for p in
            [RoutingPolicy::LeastLoaded, RoutingPolicy::RoundRobin, RoutingPolicy::CacheAffinity]
        {
            assert_eq!(p.choose(&views, &mut rr), None);
        }
        assert_eq!(RoutingPolicy::RoundRobin.choose(&[], &mut rr), None);
    }

    #[test]
    fn names_round_trip() {
        // Every label names exactly one policy (they key report rows).
        let all =
            [RoutingPolicy::LeastLoaded, RoutingPolicy::RoundRobin, RoutingPolicy::CacheAffinity];
        for p in all {
            let named = all.into_iter().filter(|q| q.name() == p.name());
            assert_eq!(named.collect::<Vec<_>>(), vec![p]);
        }
    }
}
