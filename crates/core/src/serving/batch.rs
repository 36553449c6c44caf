//! Dynamic batching: size/timeout hybrid over the admission queue.
//!
//! Queries that the scheduler resolved to the *same SubNet* can share one
//! accelerator pass — weights are fetched once per batch (the within-batch
//! analogue of SubGraph-Stationary reuse; see
//! [`sushi_accel::exec::ServiceTable::price`]). The batcher is
//! head-of-line fair: a batch always forms around the oldest queued query's
//! (SubNet row, tenant tier) key, and closes when either `max_batch`
//! same-key queries are waiting or the head query has waited `max_wait_ms`.
//! Tier affinity keeps a latency-critical query from riding — and a
//! best-effort query from delaying — another tier's batch; in a run
//! without tenant configuration every query shares one tier, so the key
//! degenerates to the SubNet row alone.

use crate::serving::queue::{AdmissionQueue, QueuedQuery};

/// Size/timeout hybrid batching policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Close a batch as soon as this many same-SubNet queries are queued.
    pub max_batch: usize,
    /// Close a batch once its oldest query has waited this long (ms).
    pub max_wait_ms: f64,
}

impl BatchPolicy {
    /// Creates a policy.
    ///
    /// # Panics
    /// Panics if `max_batch == 0` or `max_wait_ms` is negative or
    /// non-finite. An infinite wait would let a partial batch linger
    /// forever: the event loop's timeout wake-up would never fire and
    /// tail-of-stream queries would leave the simulation unaccounted.
    #[must_use]
    pub fn new(max_batch: usize, max_wait_ms: f64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(
            max_wait_ms.is_finite() && max_wait_ms >= 0.0,
            "max_wait_ms must be finite and non-negative"
        );
        Self { max_batch, max_wait_ms }
    }

    /// Batching disabled: every query dispatches alone, immediately.
    #[must_use]
    pub fn no_batching() -> Self {
        Self { max_batch: 1, max_wait_ms: 0.0 }
    }

    /// Whether the head-of-line batch is ready to dispatch at `now_ms`.
    pub(crate) fn ready(&self, queue: &AdmissionQueue, now_ms: f64) -> bool {
        // The timeout test must be written exactly as `ready_at` computes
        // it (`arrival + max_wait`), not as `now - arrival >= max_wait`:
        // the two roundings can disagree by one ulp, and the event loop
        // relies on `ready(queue, ready_at(queue))` being true to make
        // progress.
        queue.head().is_some_and(|head| {
            queue.count_row_tier(head.subnet_row, head.tier) >= self.max_batch
                || now_ms >= head.timed.arrival_ms + self.max_wait_ms
        })
    }

    /// The earliest future time the head-of-line batch becomes ready by
    /// timeout (`None` when the queue is empty). If the size trigger has
    /// already fired, this time is in the past and the caller dispatches
    /// immediately.
    pub(crate) fn ready_at(&self, queue: &AdmissionQueue) -> Option<f64> {
        queue.head().map(|head| head.timed.arrival_ms + self.max_wait_ms)
    }

    /// Extracts the head-of-line batch (up to `max_batch` queries sharing
    /// the head's SubNet row and tenant tier, FIFO order). Call only when
    /// [`Self::ready`]; returns an empty vec on an empty queue.
    #[must_use]
    pub(crate) fn form(&self, queue: &mut AdmissionQueue, now_ms: f64) -> Vec<QueuedQuery> {
        let Some(&QueuedQuery { subnet_row, tier, .. }) = queue.head() else {
            return Vec::new();
        };
        queue.take_row_tier(now_ms, subnet_row, tier, self.max_batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::queue::DropPolicy;
    use crate::stream::TimedQuery;
    use sushi_sched::{Query, TenantTier};

    fn offer(q: &mut AdmissionQueue, id: u64, arrival: f64, row: usize) {
        offer_tier(q, id, arrival, row, TenantTier::Standard);
    }

    fn offer_tier(q: &mut AdmissionQueue, id: u64, arrival: f64, row: usize, tier: TenantTier) {
        let timed = TimedQuery::new(arrival, Query::new(id, 0.7, 100.0));
        assert!(q.offer(arrival, QueuedQuery { timed, subnet_row: row, tier }).is_none());
    }

    #[test]
    fn size_trigger_fires_at_max_batch() {
        let policy = BatchPolicy::new(3, 50.0);
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        offer(&mut q, 0, 0.0, 2);
        offer(&mut q, 1, 1.0, 2);
        assert!(!policy.ready(&q, 2.0), "2 of 3 queued, head fresh");
        offer(&mut q, 2, 2.0, 2);
        assert!(policy.ready(&q, 2.0));
        let batch = policy.form(&mut q, 2.0);
        assert_eq!(batch.len(), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn timeout_trigger_fires_on_head_age() {
        let policy = BatchPolicy::new(8, 10.0);
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        offer(&mut q, 0, 5.0, 1);
        assert!(!policy.ready(&q, 14.9));
        assert!(policy.ready(&q, 15.0));
        assert_eq!(policy.ready_at(&q), Some(15.0));
    }

    #[test]
    fn batch_forms_around_head_row_only() {
        let policy = BatchPolicy::new(4, 0.0);
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        offer(&mut q, 0, 0.0, 1);
        offer(&mut q, 1, 1.0, 2);
        offer(&mut q, 2, 2.0, 1);
        let batch = policy.form(&mut q, 2.0);
        assert_eq!(batch.iter().map(|b| b.timed.query.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.head().unwrap().timed.query.id, 1);
    }

    #[test]
    fn batch_never_crosses_a_tier_boundary() {
        let policy = BatchPolicy::new(4, 50.0);
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        offer_tier(&mut q, 0, 0.0, 1, TenantTier::LatencyCritical);
        offer_tier(&mut q, 1, 1.0, 1, TenantTier::BestEffort);
        offer_tier(&mut q, 2, 2.0, 1, TenantTier::LatencyCritical);
        offer_tier(&mut q, 3, 3.0, 1, TenantTier::BestEffort);
        // Same SubNet row throughout, but the size trigger counts only the
        // head's tier: 2 of 4 — not ready until the head times out.
        assert!(!policy.ready(&q, 4.0));
        assert!(policy.ready(&q, 50.0));
        let batch = policy.form(&mut q, 50.0);
        assert_eq!(batch.iter().map(|b| b.timed.query.id).collect::<Vec<_>>(), vec![0, 2]);
        assert!(batch.iter().all(|b| b.tier == TenantTier::LatencyCritical));
        // The best-effort pair is next, batched among themselves.
        let batch = policy.form(&mut q, 51.0);
        assert_eq!(batch.iter().map(|b| b.timed.query.id).collect::<Vec<_>>(), vec![1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn no_batching_dispatches_singletons_immediately() {
        let policy = BatchPolicy::no_batching();
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        offer(&mut q, 0, 0.0, 1);
        offer(&mut q, 1, 0.0, 1);
        assert!(policy.ready(&q, 0.0));
        assert_eq!(policy.form(&mut q, 0.0).len(), 1);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_wait_rejected() {
        // An unbounded wait would strand tail-of-stream queries outside
        // both the served and dropped accounting.
        let _ = BatchPolicy::new(4, f64::INFINITY);
    }

    #[test]
    fn empty_queue_is_never_ready() {
        let policy = BatchPolicy::new(2, 5.0);
        let mut q = AdmissionQueue::new(2, DropPolicy::DropNewest);
        assert!(!policy.ready(&q, 100.0));
        assert_eq!(policy.ready_at(&q), None);
        assert!(policy.form(&mut q, 100.0).is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

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
                    let timed = TimedQuery::new(arrival, Query::new(id, 0.7, 1e6));
                    let item = QueuedQuery { timed, subnet_row: epoch, tier: TenantTier::Standard };
                    prop_assert!(q.offer(arrival, item).is_none());
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
}
