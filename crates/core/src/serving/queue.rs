//! Bounded admission queue with drop and deadline policies.
//!
//! Arriving queries are admitted into a single FIFO of bounded capacity.
//! When the queue is full, the configured [`DropPolicy`] picks a victim;
//! dropped queries count as SLO violations in the serving report (a shed
//! query is a broken promise, not a free pass). Every drop of the serving
//! loop, here or elsewhere, is built by `QueuedQuery::dropped`.
//!
//! The queue integrates its depth over simulated time, so the report can
//! state the *time-weighted* mean depth, not just a per-event average. It
//! also adds up the length of each stay as it ends — at dispatch, at
//! eviction, in the deadline sweep and in the end-of-run drain — so the
//! serving loop can check Little's law on every debug run: the depth
//! integral equals the summed stays.

use std::collections::VecDeque;

use sushi_sched::TenantTier;

use crate::stream::TimedQuery;

/// What to evict when an arrival finds the queue full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Reject the incoming query (tail drop).
    DropNewest,
    /// Evict the oldest queued query and admit the newcomer.
    DropOldest,
    /// Evict whichever query — queued or incoming — has the earliest
    /// deadline, i.e. the one least likely to meet its SLO anyway.
    DeadlineAware,
}

/// A query waiting for dispatch, with its admission-time SubNet decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct QueuedQuery {
    /// The query and its arrival time.
    pub timed: TimedQuery,
    /// SubNet row chosen by the scheduler at admission (the batching key).
    pub subnet_row: usize,
    /// Priority tier of the query's tenant ([`TenantTier::Standard`] when
    /// the run has no tenant configuration).
    pub tier: TenantTier,
}

impl QueuedQuery {
    /// This query, shed for `reason` — the one place a [`DroppedQuery`]
    /// is built.
    pub(crate) fn dropped(self, reason: DropReason) -> DroppedQuery {
        DroppedQuery { timed: self.timed, reason, tier: self.tier }
    }
}

/// Why a query was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Evicted by the queue's overflow policy.
    QueueFull,
    /// Its deadline lapsed while still queued (deadline-aware sweep), or a
    /// retry could not possibly restart before it (deadline-aware
    /// give-up).
    DeadlineLapsed,
    /// A transiently-failed query exhausted its retry attempts or its
    /// tier's retry budget (or failed with retries unsupervised/disabled).
    RetryBudgetExhausted,
    /// Still queued when the run ended with no replica left to serve it
    /// (every replica crashed without restart).
    ReplicaLost,
}

impl DropReason {
    /// Stable snake_case label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::DeadlineLapsed => "deadline_lapsed",
            DropReason::RetryBudgetExhausted => "retry_budget_exhausted",
            DropReason::ReplicaLost => "replica_lost",
        }
    }
}

/// A dropped query and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroppedQuery {
    /// The query that was shed.
    pub timed: TimedQuery,
    /// The reason it was shed.
    pub reason: DropReason,
    /// Priority tier of the shed query's tenant.
    pub tier: TenantTier,
}

/// Bounded FIFO admission queue with time-weighted depth accounting.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionQueue {
    capacity: usize,
    policy: DropPolicy,
    /// Queued queries in FIFO order, each with the instant its stay began.
    items: VecDeque<(QueuedQuery, f64)>,
    depth_integral_ms: f64,
    /// Summed length of every stay that has ended, ms.
    stay_ms: f64,
    last_event_ms: f64,
    max_depth: usize,
    ewma_depth: f64,
    depth_tau_ms: f64,
}

impl AdmissionQueue {
    /// Creates a queue.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize, policy: DropPolicy) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            policy,
            items: VecDeque::with_capacity(capacity),
            depth_integral_ms: 0.0,
            stay_ms: 0.0,
            last_event_ms: 0.0,
            max_depth: 0,
            ewma_depth: 0.0,
            depth_tau_ms: 0.0,
        }
    }

    /// Enables exponentially-smoothed depth tracking with time constant
    /// `tau_ms` (simulated milliseconds). With `tau_ms == 0.0` (the
    /// default) [`Self::smoothed_depth`] degenerates to the raw depth.
    ///
    /// # Panics
    /// Panics if `tau_ms` is negative or not finite.
    #[must_use]
    pub(crate) fn with_depth_tau(mut self, tau_ms: f64) -> Self {
        assert!(tau_ms.is_finite() && tau_ms >= 0.0, "depth tau must be finite and >= 0");
        self.depth_tau_ms = tau_ms;
        self
    }

    /// Current queue depth.
    #[cfg(test)]
    pub(crate) fn depth(&self) -> usize {
        self.items.len()
    }

    /// Deepest the queue has ever been.
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The oldest queued query, if any.
    pub(crate) fn head(&self) -> Option<&QueuedQuery> {
        self.items.front().map(|(q, _)| q)
    }

    /// Queued queries, oldest first.
    fn queued(&self) -> impl Iterator<Item = &QueuedQuery> {
        self.items.iter().map(|(q, _)| q)
    }

    /// Number of queued queries with `subnet_row` *and* `tier` — the
    /// tier-affine batching key.
    pub(crate) fn count_row_tier(&self, subnet_row: usize, tier: TenantTier) -> usize {
        self.queued().filter(|q| q.subnet_row == subnet_row && q.tier == tier).count()
    }

    /// Number of queued queries in `tier`.
    pub(crate) fn count_tier(&self, tier: TenantTier) -> usize {
        self.queued().filter(|q| q.tier == tier).count()
    }

    /// The oldest queued query in `tier`, if any (per-tier head-of-line
    /// signal).
    pub(crate) fn head_tier(&self, tier: TenantTier) -> Option<&QueuedQuery> {
        self.queued().find(|q| q.tier == tier)
    }

    /// Advances the depth integral (and the EWMA, if enabled) to `now`
    /// (call before any mutation).
    fn advance(&mut self, now_ms: f64) {
        debug_assert!(now_ms >= self.last_event_ms, "time must not run backwards");
        let dt = now_ms - self.last_event_ms;
        let depth = self.items.len() as f64;
        self.depth_integral_ms += depth * dt;
        if self.depth_tau_ms > 0.0 {
            // Depth was constant over [last_event, now], so the exact EWMA
            // relaxes toward it: e' = d + (e − d)·exp(−dt/τ).
            self.ewma_depth = depth + (self.ewma_depth - depth) * (-dt / self.depth_tau_ms).exp();
        }
        self.last_event_ms = now_ms;
    }

    /// Removes, in FIFO order, every queued query that `pick` selects,
    /// ending each one's stay at `now_ms`. The depth integral must already
    /// be advanced to `now_ms`.
    fn remove(
        &mut self,
        now_ms: f64,
        mut pick: impl FnMut(&QueuedQuery) -> bool,
    ) -> Vec<QueuedQuery> {
        let (mut removed, mut stays) = (Vec::new(), 0.0);
        self.items.retain(|&(q, since_ms)| {
            let leaves = pick(&q);
            if leaves {
                removed.push(q);
                stays += now_ms - since_ms;
            }
            !leaves
        });
        self.stay_ms += stays;
        removed
    }

    /// Exponentially-smoothed queue depth as of `now_ms`. Read-only: the
    /// stored EWMA state is not advanced. Returns the raw depth when
    /// smoothing is disabled (see [`Self::with_depth_tau`]).
    pub(crate) fn smoothed_depth(&self, now_ms: f64) -> f64 {
        let depth = self.items.len() as f64;
        if self.depth_tau_ms <= 0.0 {
            return depth;
        }
        let dt = (now_ms - self.last_event_ms).max(0.0);
        depth + (self.ewma_depth - depth) * (-dt / self.depth_tau_ms).exp()
    }

    /// Offers an arriving (or re-admitted) query, which starts a stay at
    /// `now_ms` if admitted. Returns the victim if one was shed.
    ///
    /// Under [`DropPolicy::DeadlineAware`] a query whose deadline has
    /// already lapsed at `now_ms` is refused outright — admitting it would
    /// only burn queue capacity and accelerator time on a guaranteed
    /// violation that the dispatch-time sweep would shed anyway.
    pub(crate) fn offer(&mut self, now_ms: f64, item: QueuedQuery) -> Option<DroppedQuery> {
        self.advance(now_ms);
        if self.policy == DropPolicy::DeadlineAware && item.timed.deadline_ms() < now_ms {
            return Some(item.dropped(DropReason::DeadlineLapsed));
        }
        let victim = if self.items.len() < self.capacity {
            None
        } else {
            // The FIFO position to evict; `None` refuses the newcomer.
            let evict = match self.policy {
                DropPolicy::DropNewest => None,
                DropPolicy::DropOldest => Some(0),
                DropPolicy::DeadlineAware => {
                    // Best-effort first: the victim is drawn from the
                    // most-droppable tier present (highest shed
                    // precedence); within that tier, earliest deadline
                    // loses and FIFO position breaks exact ties (oldest
                    // goes first). With a single tier this degenerates to
                    // the plain earliest-deadline rule.
                    let (idx, prec, earliest) = self
                        .queued()
                        .enumerate()
                        .map(|(i, q)| (i, q.tier.shed_precedence(), q.timed.deadline_ms()))
                        .reduce(|best, cand| {
                            let worse_tier = cand.1 > best.1;
                            let same_tier_sooner = cand.1 == best.1 && cand.2 < best.2;
                            if worse_tier || same_tier_sooner {
                                cand
                            } else {
                                best
                            }
                        })
                        .expect("queue is full, hence non-empty");
                    let incoming_loses = item.tier.shed_precedence() > prec
                        || (item.tier.shed_precedence() == prec
                            && item.timed.deadline_ms() < earliest);
                    (!incoming_loses).then_some(idx)
                }
            };
            let Some((victim, since_ms)) = evict.and_then(|idx| self.items.remove(idx)) else {
                return Some(item.dropped(DropReason::QueueFull));
            };
            self.stay_ms += now_ms - since_ms;
            Some(victim.dropped(DropReason::QueueFull))
        };
        self.items.push_back((item, now_ms));
        self.max_depth = self.max_depth.max(self.items.len());
        victim
    }

    /// Removes and returns every queued query whose deadline has already
    /// lapsed at `now_ms`. Only meaningful under
    /// [`DropPolicy::DeadlineAware`]; the FIFO policies let doomed queries
    /// occupy their slot (and later count as served-late violations).
    pub(crate) fn sweep_lapsed(&mut self, now_ms: f64) -> Vec<DroppedQuery> {
        self.advance(now_ms);
        if self.policy != DropPolicy::DeadlineAware {
            return Vec::new();
        }
        let lapsed = self.remove(now_ms, |q| q.timed.deadline_ms() < now_ms);
        lapsed.into_iter().map(|q| q.dropped(DropReason::DeadlineLapsed)).collect()
    }

    /// Removes up to `max` queued queries matching both `subnet_row` and
    /// `tier`, in FIFO order — the dynamic batcher's extraction step. Keeps
    /// batches tier-affine so a latency-critical query never rides (and
    /// waits for) a best-effort batch.
    pub(crate) fn take_row_tier(
        &mut self,
        now_ms: f64,
        subnet_row: usize,
        tier: TenantTier,
        max: usize,
    ) -> Vec<QueuedQuery> {
        self.advance(now_ms);
        let mut taken = 0;
        self.remove(now_ms, |q| {
            let take = taken < max && q.subnet_row == subnet_row && q.tier == tier;
            taken += usize::from(take);
            take
        })
    }

    /// Removes and returns everything still queued, in FIFO order (the
    /// serving loop's end-of-run drain when no replica is left to serve
    /// them).
    pub(crate) fn drain(&mut self, now_ms: f64) -> Vec<QueuedQuery> {
        self.advance(now_ms);
        self.remove(now_ms, |_| true)
    }

    /// Time-weighted mean depth over `[0, end_ms]`.
    ///
    /// # Panics
    /// Panics if `end_ms` is not positive or precedes the last event.
    pub(crate) fn mean_depth(&self, end_ms: f64) -> f64 {
        assert!(end_ms > 0.0 && end_ms >= self.last_event_ms, "bad horizon");
        (self.depth_integral_ms + self.items.len() as f64 * (end_ms - self.last_event_ms)) / end_ms
    }

    /// Summed length of every stay that has ended, ms. Once the queue is
    /// empty, Little's law says this equals the depth integral,
    /// `mean_depth(end) × end`.
    pub(crate) fn stay_ms(&self) -> f64 {
        self.stay_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_sched::Query;

    fn tq(id: u64, arrival: f64, lat_ms: f64) -> TimedQuery {
        TimedQuery::new(arrival, Query::new(id, 0.7, lat_ms))
    }

    fn qq(id: u64, arrival: f64, lat_ms: f64) -> QueuedQuery {
        QueuedQuery {
            timed: tq(id, arrival, lat_ms),
            subnet_row: (id % 3) as usize,
            tier: TenantTier::Standard,
        }
    }

    fn qq_tier(id: u64, arrival: f64, lat_ms: f64, tier: TenantTier) -> QueuedQuery {
        QueuedQuery { tier, ..qq(id, arrival, lat_ms) }
    }

    #[test]
    fn admits_until_capacity() {
        let mut q = AdmissionQueue::new(2, DropPolicy::DropNewest);
        assert!(q.offer(0.0, qq(0, 0.0, 10.0)).is_none());
        assert!(q.offer(1.0, qq(1, 1.0, 10.0)).is_none());
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn drop_newest_rejects_incoming() {
        let mut q = AdmissionQueue::new(1, DropPolicy::DropNewest);
        let _ = q.offer(0.0, qq(0, 0.0, 10.0));
        let victim = q.offer(1.0, qq(1, 1.0, 10.0)).unwrap();
        assert_eq!(victim.timed.query.id, 1);
        assert_eq!(victim.reason, DropReason::QueueFull);
        assert_eq!(q.head().unwrap().timed.query.id, 0);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let mut q = AdmissionQueue::new(1, DropPolicy::DropOldest);
        let _ = q.offer(0.0, qq(0, 0.0, 10.0));
        let victim = q.offer(1.0, qq(1, 1.0, 10.0)).unwrap();
        assert_eq!(victim.timed.query.id, 0);
        assert_eq!(q.head().unwrap().timed.query.id, 1);
    }

    #[test]
    fn deadline_aware_evicts_most_hopeless() {
        let mut q = AdmissionQueue::new(2, DropPolicy::DeadlineAware);
        let _ = q.offer(0.0, qq(0, 0.0, 100.0)); // deadline 100
        let _ = q.offer(1.0, qq(1, 1.0, 3.0)); // deadline 4 — the victim
        let victim = q.offer(2.0, qq(2, 2.0, 50.0)).unwrap();
        assert_eq!(victim.timed.query.id, 1);
        assert_eq!(q.depth(), 2);
        // An incoming query with the earliest deadline loses instead.
        let victim = q.offer(3.0, qq(3, 3.0, 0.5)).unwrap();
        assert_eq!(victim.timed.query.id, 3);
    }

    #[test]
    fn sweep_lapsed_removes_expired_only_when_deadline_aware() {
        let mut q = AdmissionQueue::new(4, DropPolicy::DeadlineAware);
        let _ = q.offer(0.0, qq(0, 0.0, 2.0)); // deadline 2
        let _ = q.offer(0.0, qq(1, 0.0, 50.0)); // deadline 50
        let lapsed = q.sweep_lapsed(10.0);
        assert_eq!(lapsed.len(), 1);
        assert_eq!(lapsed[0].timed.query.id, 0);
        assert_eq!(lapsed[0].reason, DropReason::DeadlineLapsed);
        assert_eq!(q.depth(), 1);

        let mut fifo = AdmissionQueue::new(4, DropPolicy::DropNewest);
        let _ = fifo.offer(0.0, qq(0, 0.0, 2.0));
        assert!(fifo.sweep_lapsed(10.0).is_empty());
        assert_eq!(fifo.depth(), 1);
    }

    #[test]
    fn take_row_extracts_fifo_order_and_respects_max() {
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        for id in 0..6 {
            let _ = q.offer(id as f64, qq(id, id as f64, 100.0)); // rows 0,1,2,0,1,2
        }
        let std = TenantTier::Standard;
        let taken = q.take_row_tier(6.0, 0, std, 1);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].timed.query.id, 0);
        assert_eq!(q.count_row_tier(0, std), 1);
        let taken = q.take_row_tier(6.0, 1, std, 8);
        assert_eq!(taken.iter().map(|t| t.timed.query.id).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn deadline_aware_sheds_best_effort_before_latency_critical() {
        let mut q = AdmissionQueue::new(2, DropPolicy::DeadlineAware);
        // A latency-critical query with the *earliest* deadline and a
        // best-effort one with a comfortable deadline.
        let _ = q.offer(0.0, qq_tier(0, 0.0, 2.0, TenantTier::LatencyCritical)); // deadline 2
        let _ = q.offer(0.0, qq_tier(1, 0.0, 100.0, TenantTier::BestEffort)); // deadline 100
                                                                              // The best-effort query loses despite its later deadline.
        let victim = q.offer(1.0, qq_tier(2, 1.0, 50.0, TenantTier::Standard)).unwrap();
        assert_eq!(victim.timed.query.id, 1);
        assert_eq!(victim.tier, TenantTier::BestEffort);
        // Queue now holds {LC dl 2, Std dl 51}. A best-effort arrival is
        // itself the most droppable thing in sight.
        let victim = q.offer(2.0, qq_tier(3, 2.0, 100.0, TenantTier::BestEffort)).unwrap();
        assert_eq!(victim.timed.query.id, 3);
        // Within one tier, earliest deadline still loses: a second
        // standard query with a sooner deadline displaces nothing — it is
        // refused in favor of keeping the later-deadline standard one.
        let victim = q.offer(3.0, qq_tier(4, 3.0, 1.0, TenantTier::Standard)).unwrap();
        assert_eq!(victim.timed.query.id, 4);
        // An incoming latency-critical query evicts the queued standard
        // one rather than being refused.
        let victim = q.offer(4.0, qq_tier(5, 4.0, 10.0, TenantTier::LatencyCritical)).unwrap();
        assert_eq!(victim.timed.query.id, 2);
        assert_eq!(victim.tier, TenantTier::Standard);
        assert_eq!(q.count_tier(TenantTier::LatencyCritical), 2);
    }

    #[test]
    fn tier_scoped_helpers_filter_by_tier() {
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest);
        let _ = q.offer(0.0, qq_tier(0, 0.0, 100.0, TenantTier::BestEffort)); // row 0
        let _ = q.offer(1.0, qq_tier(1, 1.0, 100.0, TenantTier::Standard)); // row 1
        let _ = q.offer(2.0, qq_tier(3, 2.0, 100.0, TenantTier::BestEffort)); // row 0
        assert_eq!(q.count_row_tier(0, TenantTier::BestEffort), 2);
        assert_eq!(q.count_row_tier(0, TenantTier::Standard), 0);
        assert_eq!(q.count_tier(TenantTier::BestEffort), 2);
        assert_eq!(q.head_tier(TenantTier::Standard).unwrap().timed.query.id, 1);
        assert!(q.head_tier(TenantTier::LatencyCritical).is_none());
        let taken = q.take_row_tier(3.0, 0, TenantTier::BestEffort, 8);
        assert_eq!(taken.iter().map(|t| t.timed.query.id).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn drain_empties_in_fifo_order_and_updates_accounting() {
        let mut q = AdmissionQueue::new(4, DropPolicy::DropNewest);
        for id in 0..3 {
            let _ = q.offer(id as f64, qq(id, id as f64, 100.0));
        }
        let drained = q.drain(10.0);
        assert_eq!(drained.iter().map(|d| d.timed.query.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(q.is_empty());
        // The depth integral covered [0, 10] at the pre-drain depths.
        assert!(q.mean_depth(10.0) > 0.0);
    }

    #[test]
    fn drop_reason_names_are_stable() {
        assert_eq!(DropReason::QueueFull.name(), "queue_full");
        assert_eq!(DropReason::DeadlineLapsed.name(), "deadline_lapsed");
        assert_eq!(DropReason::RetryBudgetExhausted.name(), "retry_budget_exhausted");
        assert_eq!(DropReason::ReplicaLost.name(), "replica_lost");
    }

    #[test]
    fn mean_depth_is_time_weighted() {
        let mut q = AdmissionQueue::new(4, DropPolicy::DropNewest);
        let _ = q.offer(0.0, qq(0, 0.0, 100.0)); // depth 1 from t=0
        let _ = q.offer(5.0, qq(1, 5.0, 100.0)); // depth 2 from t=5
                                                 // Depth 1 from t=10. Integral: 1*5 + 2*5 + 1*10 = 25 over [0, 20].
        let _ = q.take_row_tier(10.0, 0, TenantTier::Standard, 4);
        assert!((q.mean_depth(20.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn already_expired_query_is_refused_at_admission() {
        // Regression: the deadline-aware sweep only ran at dispatch time, so
        // a query whose deadline had lapsed before it reached the queue
        // could still be admitted and occupy a slot.
        let mut q = AdmissionQueue::new(4, DropPolicy::DeadlineAware);
        let victim = q.offer(10.0, qq(0, 0.0, 5.0)).unwrap(); // deadline 5 < now 10
        assert_eq!(victim.timed.query.id, 0);
        assert_eq!(victim.reason, DropReason::DeadlineLapsed);
        assert!(q.is_empty());
        // FIFO policies keep today's behavior: the doomed query is admitted
        // and later counts as a served-late violation.
        let mut fifo = AdmissionQueue::new(4, DropPolicy::DropNewest);
        assert!(fifo.offer(10.0, qq(0, 0.0, 5.0)).is_none());
        assert_eq!(fifo.depth(), 1);
    }

    #[test]
    fn smoothed_depth_defaults_to_raw_depth() {
        let mut q = AdmissionQueue::new(4, DropPolicy::DropNewest);
        let _ = q.offer(0.0, qq(0, 0.0, 100.0));
        let _ = q.offer(1.0, qq(1, 1.0, 100.0));
        assert!((q.smoothed_depth(5.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smoothed_depth_relaxes_toward_current_depth() {
        let mut q = AdmissionQueue::new(8, DropPolicy::DropNewest).with_depth_tau(10.0);
        for id in 0..4 {
            let _ = q.offer(0.0, qq(id, 0.0, 100.0));
        }
        // Immediately after the burst the EWMA still remembers the empty
        // queue; it relaxes toward depth 4 with time constant 10 ms.
        let s0 = q.smoothed_depth(0.0);
        assert!(s0 < 1.0, "fresh burst should not instantly read as depth 4, got {s0}");
        let s1 = q.smoothed_depth(10.0);
        let s2 = q.smoothed_depth(40.0);
        assert!(s0 < s1 && s1 < s2, "EWMA must relax monotonically: {s0} {s1} {s2}");
        assert!((s2 - 4.0).abs() < 0.1, "after 4 tau it should be close to 4, got {s2}");
        // The read-only getter must not advance state.
        assert!((q.smoothed_depth(10.0) - s1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = AdmissionQueue::new(0, DropPolicy::DropNewest);
    }

    #[test]
    fn stays_end_at_every_exit_and_sum_to_the_depth_integral() {
        let mut q = AdmissionQueue::new(2, DropPolicy::DeadlineAware);
        let _ = q.offer(0.0, qq(0, 0.0, 100.0)); // deadline 100
        let _ = q.offer(1.0, qq(1, 1.0, 3.0)); // deadline 4, evicted at 2
        let _ = q.offer(2.0, qq(2, 2.0, 50.0)); // deadline 52, swept at 60
        let _ = q.take_row_tier(5.0, 0, TenantTier::Standard, 1); // query 0 leaves
        assert_eq!(q.stay_ms(), 1.0 + 5.0);
        assert!(q.sweep_lapsed(60.0).len() == 1 && q.is_empty());
        // A re-admission starts a new stay; the drain ends it.
        let _ = q.offer(70.0, qq(0, 0.0, 100.0));
        let _ = q.drain(75.0);
        assert_eq!(q.stay_ms(), 1.0 + 5.0 + 58.0 + 5.0);
        assert!((q.mean_depth(80.0) * 80.0 - q.stay_ms()).abs() < 1e-12);
    }

    // Properties over random operation sequences.

    use proptest::prelude::*;

    fn item(
        id: u64,
        arrival_ms: f64,
        lat_ms: f64,
        subnet_row: usize,
        tier: TenantTier,
    ) -> QueuedQuery {
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

        /// Little's law on the queue alone: whatever the operations, once
        /// the queue is drained the depth integral over `[0, end]` equals
        /// the summed stays, within 1e-9 relative.
        #[test]
        fn stays_sum_to_the_depth_integral(
            policy_pick in 0usize..3,
            capacity in 1usize..12,
            ops in proptest::collection::vec((0.01f64..8.0, op_strategy()), 1..80),
        ) {
            let policy = [DropPolicy::DropNewest, DropPolicy::DropOldest, DropPolicy::DeadlineAware]
                [policy_pick];
            let mut q = AdmissionQueue::new(capacity, policy);
            let mut now = 0.0f64;
            for (id, (dt, op)) in (0u64..).zip(ops) {
                now += dt;
                match op {
                    Op::Offer { lat_ms, row, tier } => {
                        let _ = q.offer(now, item(id, now, lat_ms, row, tier));
                    }
                    Op::Sweep => {
                        let _ = q.sweep_lapsed(now);
                    }
                    Op::TakeRow { row, tier, max } => {
                        let _ = q.take_row_tier(now, row, tier, max);
                    }
                }
            }
            let _ = q.drain(now + 1.0);
            let end = now + 2.0;
            let integral = q.mean_depth(end) * end;
            prop_assert!(
                (integral - q.stay_ms()).abs() <= 1e-9 * integral.max(q.stay_ms()),
                "depth integral {integral} != summed stays {}", q.stay_ms()
            );
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
    }
}
