//! Replica routing: which worker a ready batch is dispatched to.
//!
//! With per-replica cache state (each replica holds its own resident
//! SubGraph, and installs are routed — not broadcast), worker
//! choice becomes a placement decision: dispatching to a replica whose
//! resident SubGraph already covers the batch's SubNet serves from a warm
//! Persistent Buffer, while a mismatched replica pays cold latency. A
//! [`RoutingPolicy`] makes that choice from per-replica `ReplicaView`
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
    pub(crate) fn choose(self, views: &[ReplicaView], rr_cursor: &mut usize) -> Option<usize> {
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
pub(crate) struct ReplicaView {
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

    // Properties: `choose` is a pure function over `ReplicaView` snapshots,
    // so its contract is directly checkable — determinism, free-replica-only
    // picks, starvation freedom under round-robin, and cache affinity never
    // skipping a free replica whose resident SubGraph already covers the
    // query.

    use proptest::prelude::*;

    fn bool_strategy() -> impl Strategy<Value = bool> {
        (0usize..2).prop_map(|b| b == 1)
    }

    fn view_strategy() -> impl Strategy<Value = ReplicaView> {
        (bool_strategy(), 0.0f64..500.0, bool_strategy())
            .prop_map(|(free, busy_until_ms, covers)| ReplicaView { free, busy_until_ms, covers })
    }

    fn policy_strategy() -> impl Strategy<Value = RoutingPolicy> {
        prop_oneof![
            Just(RoutingPolicy::LeastLoaded),
            Just(RoutingPolicy::RoundRobin),
            Just(RoutingPolicy::CacheAffinity),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Same views + same cursor → same pick: routing adds no hidden state
        /// beyond the round-robin cursor, so replays are bit-identical.
        #[test]
        fn routing_is_deterministic(
            policy in policy_strategy(),
            views in proptest::collection::vec(view_strategy(), 1..9),
            cursor in 0usize..32,
        ) {
            let mut c1 = cursor;
            let mut c2 = cursor;
            let a = policy.choose(&views, &mut c1);
            let b = policy.choose(&views, &mut c2);
            prop_assert_eq!(a, b);
            prop_assert_eq!(c1, c2, "cursor evolution must be deterministic too");
        }

        /// A pick is always a free replica; `None` only when none is free.
        #[test]
        fn routing_picks_only_free_replicas(
            policy in policy_strategy(),
            views in proptest::collection::vec(view_strategy(), 1..9),
            cursor in 0usize..32,
        ) {
            let mut c = cursor;
            match policy.choose(&views, &mut c) {
                Some(w) => prop_assert!(views[w].free, "picked busy replica {}", w),
                None => prop_assert!(views.iter().all(|v| !v.free)),
            }
        }

        /// Round-robin is starvation-free: dispatching repeatedly over an
        /// all-free pool visits every replica within one full cycle.
        #[test]
        fn round_robin_never_starves_a_replica(
            n in 1usize..9,
            cursor in 0usize..32,
            busy in proptest::collection::vec(0.0f64..500.0, 8),
        ) {
            let views: Vec<ReplicaView> = (0..n)
                .map(|w| ReplicaView { free: true, busy_until_ms: busy[w], covers: w % 2 == 0 })
                .collect();
            let mut c = cursor;
            let mut visited = vec![false; n];
            for _ in 0..n {
                let w = RoutingPolicy::RoundRobin.choose(&views, &mut c).expect("all free");
                visited[w] = true;
            }
            prop_assert!(visited.iter().all(|&v| v), "cycle skipped a replica: {:?}", visited);
        }

        /// Cache affinity never skips a free replica whose resident SubGraph
        /// covers the query: if any free view has `covers`, the pick does too.
        #[test]
        fn cache_affinity_never_skips_a_free_affine_replica(
            views in proptest::collection::vec(view_strategy(), 1..9),
            cursor in 0usize..32,
        ) {
            let mut c = cursor;
            let affine_free_exists = views.iter().any(|v| v.free && v.covers);
            if let Some(w) = RoutingPolicy::CacheAffinity.choose(&views, &mut c) {
                if affine_free_exists {
                    prop_assert!(
                        views[w].covers,
                        "picked a cold replica {} while a warm one was free", w
                    );
                }
            } else {
                prop_assert!(!affine_free_exists);
            }
        }

        /// Every policy falls back to a deterministic free pick when no replica
        /// covers the query — affinity must not trade starvation for warmth.
        #[test]
        fn routing_with_no_coverage_still_dispatches(
            policy in policy_strategy(),
            busy in proptest::collection::vec((bool_strategy(), 0.0f64..500.0), 1..9),
            cursor in 0usize..32,
        ) {
            let views: Vec<ReplicaView> = busy
                .iter()
                .map(|&(free, b)| ReplicaView { free, busy_until_ms: b, covers: false })
                .collect();
            let mut c = cursor;
            let pick = policy.choose(&views, &mut c);
            prop_assert_eq!(pick.is_some(), views.iter().any(|v| v.free));
        }
    }
}
