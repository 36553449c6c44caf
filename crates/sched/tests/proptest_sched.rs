//! Property-based tests for SushiSched/SushiAbs: feasibility guarantees of
//! Algorithm 1 under arbitrary tables and constraint streams.

use proptest::prelude::*;

use sushi_sched::query::{Policy, Query};
use sushi_sched::scheduler::{CacheSelection, Scheduler};
use sushi_sched::table::{LatencyTable, EMPTY_COLUMN};
use sushi_wsnet::layer::LayerSlice;
use sushi_wsnet::subnet::SubNetConfig;
use sushi_wsnet::{NetVector, SubGraph, SubNet};

/// Builds a synthetic table with `n` rows of increasing size/accuracy and
/// `m` candidate columns; latency falls with vector overlap.
fn make_table(n: usize, m: usize) -> LatencyTable {
    let subnets: Vec<SubNet> = (1..=n)
        .map(|i| SubNet {
            name: format!("sn{i}"),
            config: SubNetConfig::new(vec![1], vec![1.0]),
            graph: SubGraph::new(vec![
                LayerSlice::new(8 * i, 4 * i, 3),
                LayerSlice::new(16 * i, 8 * i, 3),
            ]),
            accuracy: 0.70 + 0.02 * i as f64,
            flops: i as u64 * 1_000_000,
            weight_bytes: i as u64 * 10_000,
        })
        .collect();
    let candidates: Vec<SubGraph> = (1..=m)
        .map(|j| {
            SubGraph::new(vec![LayerSlice::new(8 * j, 4 * j, 3), LayerSlice::new(16 * j, 8 * j, 3)])
        })
        .collect();
    LatencyTable::build(&subnets, candidates, |sn, cached| {
        let base = sn.weight_bytes as f64 / 10_000.0;
        let hit = cached.map_or(0.0, |g| sushi_wsnet::encoding::overlap_ratio(&sn.graph, g));
        base * (1.0 - 0.3 * hit)
    })
}

/// Every cache-selection rule.
const RULES: [CacheSelection; 4] = [
    CacheSelection::MinDistanceToAvg,
    CacheSelection::MinCosineToAvg,
    CacheSelection::FollowLast,
    CacheSelection::Frozen,
];

/// `len` queries whose constraints span `make_table`'s accuracy and
/// latency bands, drawn from `seed` by splitmix64.
fn seeded_stream(seed: u64, len: usize) -> Vec<Query> {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..len as u64).map(|id| Query::new(id, 0.68 + 0.22 * unit(), 0.5 + 8.5 * unit())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Strict-accuracy selection returns a row meeting the constraint
    /// whenever one exists, and the fastest such row under the cache state.
    #[test]
    fn strict_accuracy_selects_fastest_feasible(
        n in 2usize..8,
        m in 1usize..6,
        a_t in 0.70f64..0.90,
        col_pick in 0usize..6,
    ) {
        let t = make_table(n, m);
        let col = col_pick % t.num_columns();
        let row = t.select(Policy::StrictAccuracy, a_t, f64::MAX, col);
        let feasible: Vec<usize> =
            (0..t.num_rows()).filter(|&i| t.row(i).accuracy >= a_t).collect();
        if feasible.is_empty() {
            // Fallback: most accurate row.
            let best = (0..t.num_rows())
                .max_by(|&a, &b| t.row(a).accuracy.partial_cmp(&t.row(b).accuracy).unwrap())
                .unwrap();
            prop_assert_eq!(row, best);
        } else {
            prop_assert!(t.row(row).accuracy >= a_t);
            for i in feasible {
                prop_assert!(t.latency_ms(row, col) <= t.latency_ms(i, col) + 1e-12);
            }
        }
    }

    /// Strict-latency selection never exceeds the constraint when feasible,
    /// and picks the most accurate feasible row.
    #[test]
    fn strict_latency_selects_most_accurate_feasible(
        n in 2usize..8,
        m in 1usize..6,
        l_t in 0.5f64..9.0,
        col_pick in 0usize..6,
    ) {
        let t = make_table(n, m);
        let col = col_pick % t.num_columns();
        let row = t.select(Policy::StrictLatency, 0.0, l_t, col);
        let feasible: Vec<usize> =
            (0..t.num_rows()).filter(|&i| t.latency_ms(i, col) <= l_t).collect();
        if feasible.is_empty() {
            let fastest = (0..t.num_rows())
                .min_by(|&a, &b| t.latency_ms(a, col).partial_cmp(&t.latency_ms(b, col)).unwrap())
                .unwrap();
            prop_assert_eq!(row, fastest);
        } else {
            prop_assert!(t.latency_ms(row, col) <= l_t);
            for i in feasible {
                prop_assert!(t.row(row).accuracy >= t.row(i).accuracy - 1e-12);
            }
        }
    }

    /// `closest_column` is a true argmin over the candidate columns.
    #[test]
    fn closest_column_is_argmin(n in 2usize..6, m in 1usize..8, target in 0usize..8) {
        let t = make_table(n, m);
        let avg = t.row(target % t.num_rows()).vector.clone();
        let best = t.closest_column(&avg);
        prop_assert!(best != EMPTY_COLUMN);
        let d_best = t.column(best).vector.dist_l2(&avg);
        for j in 1..t.num_columns() {
            prop_assert!(d_best <= t.column(j).vector.dist_l2(&avg) + 1e-12);
        }
    }

    /// Scheduler cache updates happen only on Q-boundaries, regardless of
    /// the constraint stream.
    #[test]
    fn cache_updates_on_q_boundaries(
        q in 1usize..7,
        constraints in proptest::collection::vec((0.70f64..0.88, 0.5f64..9.0), 1..40),
    ) {
        let t = make_table(5, 4);
        let mut s = Scheduler::new(t, Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, q);
        for (i, (a, l)) in constraints.iter().enumerate() {
            let d = s.decide(&Query::new(i as u64, *a, *l));
            if d.cache_update.is_some() {
                prop_assert_eq!((i + 1) % q, 0, "update at non-boundary index {}", i);
            }
        }
    }

    /// A one-column table — a PB-less board's, which holds only the empty
    /// column — never installs: under every rule and policy, `decide`
    /// returns no `cache_update` and the cache stays `EMPTY_COLUMN`. "Never
    /// cache" follows from the board, so no rule has to choose it.
    #[test]
    fn one_column_table_never_installs(
        n in 1usize..8,
        q in 1usize..=12,
        len in 1usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let queries = seeded_stream(seed, len);
        for rule in RULES {
            for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
                let mut s = Scheduler::new(make_table(n, 0), policy, rule, q);
                for query in &queries {
                    let d = s.decide(query);
                    prop_assert_eq!(
                        d.cache_update, None,
                        "seed {:#x}: {:?} {:?} Q = {} installed at query {}",
                        seed, rule, policy, q, query.id
                    );
                    prop_assert_eq!(s.current_cache(), EMPTY_COLUMN, "seed {:#x}", seed);
                }
            }
        }
    }

    /// Truncating the table to fewer columns never changes row metadata and
    /// preserves the cold column exactly.
    #[test]
    fn column_truncation_is_stable(n in 2usize..6, m in 2usize..8, keep in 0usize..8) {
        let t = make_table(n, m);
        let small = t.with_columns(keep);
        prop_assert_eq!(small.num_rows(), t.num_rows());
        for i in 0..t.num_rows() {
            prop_assert_eq!(small.row(i).accuracy, t.row(i).accuracy);
            prop_assert_eq!(small.latency_ms(i, EMPTY_COLUMN), t.latency_ms(i, EMPTY_COLUMN));
        }
    }

    /// The scheduler is deterministic: identical streams produce identical
    /// decision sequences.
    #[test]
    fn scheduler_is_deterministic(
        q in 1usize..5,
        constraints in proptest::collection::vec((0.70f64..0.88, 0.5f64..9.0), 1..30),
    ) {
        let mk = || Scheduler::new(make_table(4, 3), Policy::StrictLatency, CacheSelection::MinDistanceToAvg, q);
        let (mut s1, mut s2) = (mk(), mk());
        for (i, (a, l)) in constraints.iter().enumerate() {
            let q1 = Query::new(i as u64, *a, *l);
            prop_assert_eq!(s1.decide(&q1), s2.decide(&q1));
        }
    }

    /// AvgNet-driven caching converges: on a constant stream the cache
    /// stabilizes after at most two windows and stops updating.
    #[test]
    fn constant_stream_converges(q in 1usize..6, a_t in 0.70f64..0.88) {
        let t = make_table(5, 5);
        let mut s = Scheduler::new(t, Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, q);
        let mut updates_after_warmup = 0;
        for i in 0..(q * 6) {
            let d = s.decide(&Query::new(i as u64, a_t, f64::MAX));
            if i >= 2 * q && d.cache_update.is_some() {
                updates_after_warmup += 1;
            }
        }
        prop_assert_eq!(updates_after_warmup, 0);
    }

    /// Vector encodings used by the table agree with re-encoding the graph.
    #[test]
    fn table_vectors_match_graph_encodings(n in 1usize..6, m in 1usize..5) {
        let t = make_table(n, m);
        for j in 0..t.num_columns() {
            let col = t.column(j);
            prop_assert_eq!(col.vector.clone(), NetVector::encode(&col.graph));
        }
    }
}
