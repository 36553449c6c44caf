//! Property-based tests for the serving building blocks: admission-queue
//! depth accounting (conservation, non-negativity, smoothing — globally
//! *and* per tenant tier), best-effort-first shedding under deadline-aware
//! pressure, and dynamic batching (a batch never spans a cache-install
//! boundary).

use proptest::prelude::*;

use sushi_core::serving::queue::QueuedQuery;
use sushi_core::serving::{AdmissionQueue, BatchPolicy, DropPolicy, DropReason};
use sushi_core::stream::TimedQuery;
use sushi_sched::{Query, TenantTier};

fn item(id: u64, arrival_ms: f64, lat_ms: f64, subnet_row: usize, tier: TenantTier) -> QueuedQuery {
    QueuedQuery {
        timed: TimedQuery::new(arrival_ms, Query::new(id, 0.7, lat_ms)),
        subnet_row,
        tier,
    }
}

fn tier_strategy() -> impl Strategy<Value = TenantTier> {
    (0usize..3).prop_map(|i| TenantTier::ALL[i])
}

/// One randomized queue operation (applied at a strictly advancing clock).
#[derive(Debug, Clone, Copy)]
enum Op {
    Offer { lat_ms: f64, row: usize, tier: TenantTier },
    Sweep,
    TakeRow { row: usize, tier: TenantTier, max: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.5f64..40.0, 0usize..3, tier_strategy()).prop_map(|(lat_ms, row, tier)| Op::Offer {
            lat_ms,
            row,
            tier
        }),
        Just(Op::Sweep),
        (0usize..3, tier_strategy(), 1usize..6).prop_map(|(row, tier, max)| Op::TakeRow {
            row,
            tier,
            max
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Depth accounting is conserved and non-negative under arbitrary
    /// admit/drop/pop interleavings, for every drop policy: every offered
    /// query ends up in exactly one of {queued, dropped, taken} — globally
    /// *and within its own tenant tier* — the depth never exceeds
    /// capacity, and both depth aggregates (time-weighted mean, EWMA) stay
    /// within `[0, max_depth]`.
    #[test]
    fn queue_depth_accounting_is_conserved(
        policy_pick in 0usize..3,
        capacity in 1usize..12,
        tau_ms in 0.0f64..20.0,
        ops in proptest::collection::vec((0.01f64..8.0, op_strategy()), 1..80),
    ) {
        let policy = [DropPolicy::DropNewest, DropPolicy::DropOldest, DropPolicy::DeadlineAware]
            [policy_pick];
        let mut q = AdmissionQueue::new(capacity, policy).with_depth_tau(tau_ms);
        let (mut now, mut offered, mut dropped, mut taken) = (0.0f64, 0usize, 0usize, 0usize);
        // The same accounting, partitioned by tenant tier.
        let mut offered_t = [0usize; 3];
        let mut dropped_t = [0usize; 3];
        let mut taken_t = [0usize; 3];
        let mut next_id = 0u64;
        for (dt, op) in ops {
            now += dt;
            match op {
                Op::Offer { lat_ms, row, tier } => {
                    offered += 1;
                    offered_t[tier.index()] += 1;
                    next_id += 1;
                    if let Some(victim) = q.offer(now, item(next_id, now, lat_ms, row, tier)) {
                        dropped += 1;
                        dropped_t[victim.tier.index()] += 1;
                    }
                }
                Op::Sweep => {
                    for victim in q.sweep_lapsed(now) {
                        dropped += 1;
                        dropped_t[victim.tier.index()] += 1;
                    }
                }
                Op::TakeRow { row, tier, max } => {
                    for popped in q.take_row_tier(now, row, tier, max) {
                        prop_assert!(popped.subnet_row == row && popped.tier == tier);
                        taken += 1;
                        taken_t[popped.tier.index()] += 1;
                    }
                }
            }
            // Conservation: nothing is ever double-counted or lost.
            prop_assert_eq!(offered, q.depth() + dropped + taken);
            prop_assert!(q.depth() <= capacity);
            prop_assert!(q.depth() <= q.max_depth());
            // Per-(row, tier) counts partition the queue.
            let by_row_tier: usize = (0..3)
                .flat_map(|r| TenantTier::ALL.map(|t| q.count_row_tier(r, t)))
                .sum();
            prop_assert_eq!(by_row_tier, q.depth());
            // Per-tier counts partition it too, and each tier's own
            // accounting closes: admitted = queued + shed + taken.
            let by_tier: usize = TenantTier::ALL.iter().map(|&t| q.count_tier(t)).sum();
            prop_assert_eq!(by_tier, q.depth());
            for tier in TenantTier::ALL {
                let i = tier.index();
                prop_assert_eq!(
                    offered_t[i], q.count_tier(tier) + dropped_t[i] + taken_t[i],
                    "tier {} accounting leaked", tier.name()
                );
            }
            // Aggregates stay inside the envelope the raw depth traced out.
            let mean = q.mean_depth(now + 1e-9);
            prop_assert!(mean >= 0.0 && mean <= q.max_depth() as f64 + 1e-9);
            let smoothed = q.smoothed_depth(now);
            prop_assert!(
                smoothed >= -1e-9 && smoothed <= q.max_depth() as f64 + 1e-9,
                "smoothed depth {smoothed} escaped [0, {}]", q.max_depth()
            );
            if tau_ms == 0.0 {
                prop_assert_eq!(smoothed, q.depth() as f64);
            }
        }
    }

    /// Deadline-aware shedding is best-effort first: when capacity forces
    /// a drop, the victim always comes from the most-droppable tier
    /// present in the contention set (queue plus the arriving query). In
    /// particular a latency-critical query is never shed while a
    /// best-effort or standard one was available to shed instead. Lapsed
    /// arrivals are exempt — refusing an already-dead query is deadline
    /// semantics, not shedding order.
    #[test]
    fn deadline_aware_sheds_best_effort_first(
        capacity in 1usize..8,
        offers in proptest::collection::vec(
            (0.01f64..5.0, 0.5f64..60.0, 0usize..3, tier_strategy()),
            1..60,
        ),
    ) {
        let mut q = AdmissionQueue::new(capacity, DropPolicy::DeadlineAware);
        let mut now = 0.0f64;
        let mut next_id = 0u64;
        for (dt, lat_ms, row, tier) in offers {
            now += dt;
            next_id += 1;
            let incoming = item(next_id, now, lat_ms, row, tier);
            let lapsed = incoming.timed.deadline_ms() < now;
            // Tier census of the contention set before the offer.
            let mut present = [0usize; 3];
            for t in TenantTier::ALL {
                present[t.index()] = q.count_tier(t);
            }
            present[tier.index()] += 1;
            let at_capacity = q.depth() == capacity;
            let victim = q.offer(now, incoming);
            if lapsed {
                continue;
            }
            if let Some(v) = &victim {
                prop_assert_eq!(v.reason, DropReason::QueueFull);
                prop_assert!(at_capacity, "a non-full queue shed a query");
                let worst_present = TenantTier::ALL
                    .iter()
                    .filter(|t| present[t.index()] > 0)
                    .map(|t| t.shed_precedence())
                    .max()
                    .expect("contention set is non-empty");
                prop_assert_eq!(
                    v.tier.shed_precedence(), worst_present,
                    "shed a {} query while a more droppable tier was present",
                    v.tier.name()
                );
            }
        }
    }

    /// A formed batch never crosses a cache-install boundary: queries
    /// admitted under different resident SubGraphs resolve to different
    /// SubNet rows (their admission-time decision), and `form` only ever
    /// extracts queries sharing the head-of-line row, in FIFO order, at
    /// most `max_batch` of them.
    #[test]
    fn batches_never_cross_a_cache_install_boundary(
        epoch_sizes in proptest::collection::vec(1usize..6, 1..5),
        max_batch in 1usize..8,
    ) {
        // Each epoch models the queries admitted between two cache
        // installs; the install changes the scheduler's decision, so each
        // epoch gets a distinct SubNet row.
        let mut q = AdmissionQueue::new(64, DropPolicy::DropNewest);
        let mut id = 0u64;
        let mut arrival = 0.0;
        for (epoch, &count) in epoch_sizes.iter().enumerate() {
            for _ in 0..count {
                arrival += 1.0;
                id += 1;
                prop_assert!(
                    q.offer(arrival, item(id, arrival, 1e6, epoch, TenantTier::Standard)).is_none()
                );
            }
        }
        let policy = BatchPolicy::new(max_batch, 0.0);
        let mut last_id = 0u64;
        while let Some(head) = q.head().copied() {
            prop_assert!(policy.ready(&q, arrival + 1.0));
            let batch = policy.form(&mut q, arrival + 1.0);
            prop_assert!(!batch.is_empty() && batch.len() <= max_batch);
            for b in &batch {
                prop_assert_eq!(
                    b.subnet_row, head.subnet_row,
                    "a batch mixed rows {} and {}: it crossed an install boundary",
                    head.subnet_row, b.subnet_row
                );
                // FIFO within the batch (ids were assigned in arrival order).
                prop_assert!(b.timed.query.id > last_id);
                last_id = b.timed.query.id;
            }
        }
        // Everything admitted was eventually batched.
        prop_assert_eq!(last_id, id);
    }
}
