//! Bounded admission queue with drop and deadline policies.
//!
//! Arriving queries are admitted into a single FIFO of bounded capacity.
//! When the queue is full, the configured [`DropPolicy`] picks a victim;
//! dropped queries count as SLO violations in the serving report (a shed
//! query is a broken promise, not a free pass). The queue also integrates
//! its depth over simulated time so the report can state the *time-weighted*
//! mean depth, not just a per-event average.

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
pub struct QueuedQuery {
    /// The query and its arrival time.
    pub timed: TimedQuery,
    /// SubNet row chosen by the scheduler at admission (the batching key).
    pub subnet_row: usize,
    /// Priority tier of the query's tenant ([`TenantTier::Standard`] when
    /// the run has no tenant configuration).
    pub tier: TenantTier,
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
pub struct AdmissionQueue {
    capacity: usize,
    policy: DropPolicy,
    items: VecDeque<QueuedQuery>,
    depth_integral_ms: f64,
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
    #[must_use]
    pub fn new(capacity: usize, policy: DropPolicy) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            policy,
            items: VecDeque::with_capacity(capacity),
            depth_integral_ms: 0.0,
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
    pub fn with_depth_tau(mut self, tau_ms: f64) -> Self {
        assert!(tau_ms.is_finite() && tau_ms >= 0.0, "depth tau must be finite and >= 0");
        self.depth_tau_ms = tau_ms;
        self
    }

    /// Current queue depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// Deepest the queue has ever been.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The oldest queued query, if any.
    #[must_use]
    pub fn head(&self) -> Option<&QueuedQuery> {
        self.items.front()
    }

    /// Number of queued queries with `subnet_row` *and* `tier` — the
    /// tier-affine batching key.
    #[must_use]
    pub fn count_row_tier(&self, subnet_row: usize, tier: TenantTier) -> usize {
        self.items.iter().filter(|q| q.subnet_row == subnet_row && q.tier == tier).count()
    }

    /// Number of queued queries in `tier`.
    #[must_use]
    pub fn count_tier(&self, tier: TenantTier) -> usize {
        self.items.iter().filter(|q| q.tier == tier).count()
    }

    /// The oldest queued query in `tier`, if any (per-tier head-of-line
    /// signal).
    #[must_use]
    pub fn head_tier(&self, tier: TenantTier) -> Option<&QueuedQuery> {
        self.items.iter().find(|q| q.tier == tier)
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

    /// Exponentially-smoothed queue depth as of `now_ms`. Read-only: the
    /// stored EWMA state is not advanced. Returns the raw depth when
    /// smoothing is disabled (see [`Self::with_depth_tau`]).
    #[must_use]
    pub fn smoothed_depth(&self, now_ms: f64) -> f64 {
        let depth = self.items.len() as f64;
        if self.depth_tau_ms <= 0.0 {
            return depth;
        }
        let dt = (now_ms - self.last_event_ms).max(0.0);
        depth + (self.ewma_depth - depth) * (-dt / self.depth_tau_ms).exp()
    }

    /// Offers an arriving query. Returns the victim if one was shed.
    ///
    /// Under [`DropPolicy::DeadlineAware`] a query whose deadline has
    /// already lapsed at `now_ms` is refused outright — admitting it would
    /// only burn queue capacity and accelerator time on a guaranteed
    /// violation that the dispatch-time sweep would shed anyway.
    pub fn offer(&mut self, now_ms: f64, item: QueuedQuery) -> Option<DroppedQuery> {
        self.advance(now_ms);
        if self.policy == DropPolicy::DeadlineAware && item.timed.deadline_ms() < now_ms {
            return Some(DroppedQuery {
                timed: item.timed,
                reason: DropReason::DeadlineLapsed,
                tier: item.tier,
            });
        }
        let victim = if self.items.len() < self.capacity {
            None
        } else {
            match self.policy {
                DropPolicy::DropNewest => {
                    return Some(DroppedQuery {
                        timed: item.timed,
                        reason: DropReason::QueueFull,
                        tier: item.tier,
                    });
                }
                DropPolicy::DropOldest => self.items.pop_front().map(|q| DroppedQuery {
                    timed: q.timed,
                    reason: DropReason::QueueFull,
                    tier: q.tier,
                }),
                DropPolicy::DeadlineAware => {
                    // Best-effort first: the victim is drawn from the
                    // most-droppable tier present (highest shed
                    // precedence); within that tier, earliest deadline
                    // loses and FIFO position breaks exact ties (oldest
                    // goes first). With a single tier this degenerates to
                    // the plain earliest-deadline rule.
                    let (idx, prec, earliest) = self
                        .items
                        .iter()
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
                    if incoming_loses {
                        return Some(DroppedQuery {
                            timed: item.timed,
                            reason: DropReason::QueueFull,
                            tier: item.tier,
                        });
                    }
                    self.items.remove(idx).map(|q| DroppedQuery {
                        timed: q.timed,
                        reason: DropReason::QueueFull,
                        tier: q.tier,
                    })
                }
            }
        };
        self.items.push_back(item);
        self.max_depth = self.max_depth.max(self.items.len());
        victim
    }

    /// Removes and returns every queued query whose deadline has already
    /// lapsed at `now_ms`. Only meaningful under
    /// [`DropPolicy::DeadlineAware`]; the FIFO policies let doomed queries
    /// occupy their slot (and later count as served-late violations).
    pub fn sweep_lapsed(&mut self, now_ms: f64) -> Vec<DroppedQuery> {
        self.advance(now_ms);
        if self.policy != DropPolicy::DeadlineAware {
            return Vec::new();
        }
        let mut lapsed = Vec::new();
        self.items.retain(|q| {
            if q.timed.deadline_ms() < now_ms {
                lapsed.push(DroppedQuery {
                    timed: q.timed,
                    reason: DropReason::DeadlineLapsed,
                    tier: q.tier,
                });
                false
            } else {
                true
            }
        });
        lapsed
    }

    /// Removes up to `max` queued queries matching both `subnet_row` and
    /// `tier`, in FIFO order — the dynamic batcher's extraction step. Keeps
    /// batches tier-affine so a latency-critical query never rides (and
    /// waits for) a best-effort batch.
    pub fn take_row_tier(
        &mut self,
        now_ms: f64,
        subnet_row: usize,
        tier: TenantTier,
        max: usize,
    ) -> Vec<QueuedQuery> {
        self.advance(now_ms);
        let mut taken = Vec::new();
        self.items.retain(|q| {
            if taken.len() < max && q.subnet_row == subnet_row && q.tier == tier {
                taken.push(*q);
                false
            } else {
                true
            }
        });
        taken
    }

    /// Removes and returns everything still queued, in FIFO order (the
    /// serving loop's end-of-run drain when no replica is left to serve
    /// them).
    pub fn drain(&mut self, now_ms: f64) -> Vec<QueuedQuery> {
        self.advance(now_ms);
        self.items.drain(..).collect()
    }

    /// Time-weighted mean depth over `[0, end_ms]`.
    ///
    /// # Panics
    /// Panics if `end_ms` is not positive or precedes the last event.
    #[must_use]
    pub fn mean_depth(&self, end_ms: f64) -> f64 {
        assert!(end_ms > 0.0 && end_ms >= self.last_event_ms, "bad horizon");
        (self.depth_integral_ms + self.items.len() as f64 * (end_ms - self.last_event_ms)) / end_ms
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
}
