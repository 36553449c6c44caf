//! Load-adaptive SubNet selection: graceful degradation under pressure.
//!
//! The static scheduler ([`crate::scheduler::Scheduler`]) picks SubNets as
//! if the queue were always empty, which is exactly why an open serving
//! loop falls off an SLO cliff under bursts: every query still asks for
//! its full accuracy budget while the queue grows without bound. The
//! adaptive layer closes SUSHI's motivating feedback loop — *degrade to a
//! smaller SubGraph under pressure, upgrade when idle* — without the
//! scheduler ever seeing an accelerator type:
//!
//! * [`LoadSignal`] is plain data sampled from the serving loop each
//!   event: a time-weighted queue depth, the streaming p99 of completed
//!   queries, and the deadline slack of the head-of-line query.
//! * [`AdaptivePolicy`] folds the signal into a scalar *pressure* and
//!   walks a degradation **level** up and down with hysteresis: two
//!   thresholds (enter/exit) separated by a dead band, plus a minimum
//!   dwell time between level changes so the policy never oscillates
//!   between adjacent SubNets within one window.
//! * At level `d` the policy *shapes* queries before they reach the
//!   scheduler: it walks the constraint down the table's latency ladder
//!   (relaxing the accuracy constraint under [`Policy::StrictAccuracy`],
//!   tightening the latency constraint under [`Policy::StrictLatency`]),
//!   so `select` naturally lands on a smaller — faster — SubNet. The walk
//!   is cache-aware: a SubNet whose panels the resident SubGraph covers
//!   is cheaper under the current column and therefore survives more
//!   degradation levels than an uncovered SubNet of equal cold latency.
//!
//! Everything here is deterministic and side-effect free: the same signal
//! sequence always yields the same level trajectory, which is what lets
//! the serving simulation stay bit-reproducible with adaptation enabled.

use crate::query::{Policy, Query};
use crate::table::{LatencyTable, EMPTY_COLUMN};

/// A point-in-time load observation fed from the serving loop.
///
/// All fields are plain numbers so the scheduler crate never depends on
/// the serving runtime or the accelerator (the SushiAbs decoupling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSignal {
    /// Simulated time of the observation, ms.
    pub now_ms: f64,
    /// Time-weighted (smoothed) admission-queue depth.
    pub queue_depth: f64,
    /// Admission-queue capacity (occupancy denominator).
    pub queue_capacity: usize,
    /// Streaming p99 of completed end-to-end latencies, ms (`0.0` before
    /// the first completion).
    pub p99_ms: f64,
    /// Deadline slack of the head-of-line query, ms
    /// ([`f64::INFINITY`] when the queue is empty).
    pub head_slack_ms: f64,
    /// The head-of-line query's full latency budget, ms (`0.0` when the
    /// queue is empty).
    pub head_budget_ms: f64,
    /// Fraction of the worker pool currently out of rotation — down or
    /// quarantined by fault supervision (`0.0` in a fault-free run, which
    /// keeps the pressure fold bit-identical to the pre-fault signal).
    pub quarantined_frac: f64,
}

impl LoadSignal {
    /// The zero-pressure signal at `now_ms` (empty queue, no tail).
    #[must_use]
    pub fn idle(now_ms: f64) -> Self {
        Self {
            now_ms,
            queue_depth: 0.0,
            queue_capacity: 1,
            p99_ms: 0.0,
            head_slack_ms: f64::INFINITY,
            head_budget_ms: 0.0,
            quarantined_frac: 0.0,
        }
    }

    /// Folds the observation into a scalar pressure in `[0, 1]`.
    ///
    /// Four saturating components, combined by `max` (any one red signal
    /// is enough to degrade):
    ///
    /// * **occupancy** — `depth / capacity`, clamped to `[0, 1]`;
    /// * **tail excess** — how far the streaming p99 exceeds the
    ///   reference scale `scale_ms` (p99 at `2 × scale` saturates);
    /// * **slack deficit** — how much of the head-of-line query's own
    ///   latency budget is already gone (`≥ 50%` budget left ⇒ 0,
    ///   none left ⇒ 1);
    /// * **capacity loss** — the fraction of the pool out of rotation,
    ///   so the ladder pre-degrades the moment replicas crash or are
    ///   quarantined instead of waiting for the queue to build up.
    #[must_use]
    pub fn pressure(&self, scale_ms: f64) -> f64 {
        let occ = (self.queue_depth / self.queue_capacity.max(1) as f64).clamp(0.0, 1.0);
        let tail =
            if scale_ms > 0.0 { (self.p99_ms / scale_ms - 1.0).clamp(0.0, 1.0) } else { 0.0 };
        let slack = if self.head_budget_ms > 0.0 && self.head_slack_ms.is_finite() {
            (1.0 - 2.0 * self.head_slack_ms / self.head_budget_ms).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let capacity = self.quarantined_frac.clamp(0.0, 1.0);
        occ.max(tail).max(slack).max(capacity)
    }
}

/// Knobs of the adaptive loop, written as a struct literal over
/// [`Default`]. The tail-pressure reference scale (`2 ×` the mean cold
/// latency), the deepest level (every rung of the ladder) and the
/// batch-cap floor (1) are not knobs: [`AdaptivePolicy::new`] derives the
/// first two from the latency table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Degrade one level when pressure reaches this threshold.
    pub degrade_threshold: f64,
    /// Upgrade one level when pressure falls to this threshold. Must be
    /// strictly below `degrade_threshold`; the gap is the hysteresis dead
    /// band.
    pub upgrade_threshold: f64,
    /// Minimum simulated time between level changes, ms (`0.0` ⇒ derive
    /// the serving set's mean cold latency: one step per service time, so
    /// the controller reacts at the cadence it receives completion
    /// evidence and a burst one dwell long can only move one level).
    pub dwell_ms: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        Self { degrade_threshold: 0.4, upgrade_threshold: 0.15, dwell_ms: 0.0 }
    }
}

impl AdaptiveOptions {
    /// Whether the knob combination is coherent (builder validation).
    ///
    /// # Errors
    /// Returns a description of the first incoherent knob.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |v: f64| v.is_finite() && v >= 0.0;
        if !finite_nonneg(self.degrade_threshold) || !finite_nonneg(self.upgrade_threshold) {
            return Err("adaptive thresholds must be finite and non-negative".into());
        }
        if self.upgrade_threshold >= self.degrade_threshold {
            return Err(format!(
                "adaptive hysteresis band is empty: upgrade threshold {} must be below \
                 degrade threshold {}",
                self.upgrade_threshold, self.degrade_threshold
            ));
        }
        if !finite_nonneg(self.dwell_ms) {
            return Err("adaptive dwell must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// One enacted level change (for the serving runtime's adaptation trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveEvent {
    /// Simulated time of the change, ms.
    pub at_ms: f64,
    /// Pressure that triggered it.
    pub pressure: f64,
    /// Degradation level *after* the change.
    pub level: usize,
}

/// The hysteresis controller: walks a degradation level over the table's
/// latency ladder and shapes queries accordingly.
///
/// Construct one per serving run from the same [`LatencyTable`] the
/// scheduler uses, [`observe`](Self::observe) a [`LoadSignal`] at every
/// event, and [`shape`](Self::shape) each query before handing it to
/// [`crate::scheduler::Scheduler::decide`]. At level 0 shaping is the
/// identity, so a run whose pressure never crosses the degrade threshold
/// is bit-identical to the static policy.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    policy: Policy,
    opts: AdaptiveOptions,
    /// Row indices sorted by cold latency ascending (the ladder: rung 0
    /// is the fastest SubNet, the last rung the slowest).
    ladder: Vec<usize>,
    max_level: usize,
    dwell_ms: f64,
    scale_ms: f64,
    level: usize,
    last_change_ms: f64,
    degrades: usize,
    upgrades: usize,
}

impl AdaptivePolicy {
    /// Builds a controller for `table` under `policy`.
    ///
    /// # Panics
    /// Panics when `opts` fail [`AdaptiveOptions::validate`] — the engine
    /// builder surfaces the same condition as a config error first.
    #[must_use]
    pub fn new(table: &LatencyTable, policy: Policy, opts: AdaptiveOptions) -> Self {
        if let Err(e) = opts.validate() {
            panic!("invalid adaptive options: {e}");
        }
        let mut ladder: Vec<usize> = (0..table.num_rows()).collect();
        ladder.sort_by(|&a, &b| {
            table
                .latency_ms(a, EMPTY_COLUMN)
                .partial_cmp(&table.latency_ms(b, EMPTY_COLUMN))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mean_cold =
            (0..table.num_rows()).map(|i| table.latency_ms(i, EMPTY_COLUMN)).sum::<f64>()
                / table.num_rows() as f64;
        // Every rung is reachable, and the tail scale is the scenario
        // presets' deadline floor.
        let max_level = ladder.len().saturating_sub(1);
        let scale_ms = 2.0 * mean_cold;
        let dwell_ms = if opts.dwell_ms > 0.0 { opts.dwell_ms } else { mean_cold };
        Self {
            policy,
            opts,
            ladder,
            max_level,
            dwell_ms,
            scale_ms,
            level: 0,
            last_change_ms: f64::NEG_INFINITY,
            degrades: 0,
            upgrades: 0,
        }
    }

    /// Current degradation level (0 = no degradation).
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Deepest reachable level.
    #[must_use]
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    /// Level changes that degraded so far.
    #[must_use]
    pub fn degrades(&self) -> usize {
        self.degrades
    }

    /// Level changes that upgraded so far.
    #[must_use]
    pub fn upgrades(&self) -> usize {
        self.upgrades
    }

    /// The resolved minimum time between level changes, ms.
    #[must_use]
    pub fn dwell_ms(&self) -> f64 {
        self.dwell_ms
    }

    /// The resolved tail-pressure reference scale, ms. Doubles as the
    /// natural smoothing constant for the queue-depth signal.
    #[must_use]
    pub fn scale_ms(&self) -> f64 {
        self.scale_ms
    }

    /// Folds one observation into the controller: at most one level step,
    /// and only if at least [`dwell_ms`](Self::dwell_ms) has passed since
    /// the previous step (the oscillation guard). Returns the enacted
    /// change, if any.
    pub fn observe(&mut self, signal: &LoadSignal) -> Option<AdaptiveEvent> {
        let pressure = signal.pressure(self.scale_ms);
        self.observe_pressure(signal.now_ms, pressure)
    }

    /// [`observe`](Self::observe) with an externally computed pressure:
    /// the same one-step-per-dwell hysteresis walk, but the caller owns
    /// the signal-to-pressure fold. This is the entry point of the tenant
    /// layer ([`crate::tenant::TenantPolicy`]), which mixes per-tier
    /// signals and a feed-forward arrival-prediction boost into the
    /// pressure before stepping each tier's ladder.
    pub fn observe_pressure(&mut self, now_ms: f64, pressure: f64) -> Option<AdaptiveEvent> {
        if now_ms - self.last_change_ms < self.dwell_ms {
            return None;
        }
        if pressure >= self.opts.degrade_threshold && self.level < self.max_level {
            self.level += 1;
            self.degrades += 1;
        } else if pressure <= self.opts.upgrade_threshold && self.level > 0 {
            self.level -= 1;
            self.upgrades += 1;
        } else {
            return None;
        }
        self.last_change_ms = now_ms;
        Some(AdaptiveEvent { at_ms: now_ms, pressure, level: self.level })
    }

    /// The ladder rung the current level caps the walk at: with `R` rows
    /// and level `d`, the `d` slowest rungs become unreachable.
    fn cap_rung(&self) -> usize {
        self.ladder[self.ladder.len() - 1 - self.level]
    }

    /// Shapes a query for the current level: walks its constraint down
    /// the ConstraintSpace so the scheduler's `select` lands within the
    /// allowed ladder prefix. At level 0 this is the identity.
    ///
    /// The walk is biased toward SubNets covered by the resident SubGraph
    /// (`cached`): the latency budget implied by the cap rung is its
    /// *cold* latency, but feasibility is measured under the current
    /// column, so a row whose panels are resident — and therefore cheaper
    /// — stays reachable at levels where an uncovered row of equal cold
    /// latency would already have been shed.
    #[must_use]
    pub fn shape(&self, query: &Query, table: &LatencyTable, cached: usize) -> Query {
        if self.level == 0 {
            return *query;
        }
        let budget_ms = table.latency_ms(self.cap_rung(), EMPTY_COLUMN);
        match self.policy {
            Policy::StrictAccuracy => {
                // Highest accuracy still affordable within the cap rung's
                // budget under the *current* cache column.
                let cap_acc = table
                    .rows()
                    .iter()
                    .filter(|r| r.latency_ms[cached] <= budget_ms)
                    .map(|r| r.accuracy)
                    .fold(f64::NEG_INFINITY, f64::max);
                // The cap rung itself always qualifies (cached ≤ cold).
                debug_assert!(cap_acc.is_finite());
                Query::new(
                    query.id,
                    query.accuracy_constraint.min(cap_acc),
                    query.latency_constraint_ms,
                )
            }
            Policy::StrictLatency => Query::new(
                query.id,
                query.accuracy_constraint,
                query.latency_constraint_ms.min(budget_ms),
            ),
        }
    }

    /// The dynamic-batch size cap at the current level: halves per level,
    /// floored at one query (smaller batches dispatch sooner, trading
    /// amortization for head-of-line latency).
    #[must_use]
    pub fn batch_cap(&self, base_max_batch: usize) -> usize {
        (base_max_batch >> self.level.min(usize::BITS as usize - 1)).max(1)
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

    fn policy() -> AdaptivePolicy {
        AdaptivePolicy::new(&table(), Policy::StrictAccuracy, AdaptiveOptions::default())
    }

    fn pressured(now_ms: f64) -> LoadSignal {
        LoadSignal {
            now_ms,
            queue_depth: 30.0,
            queue_capacity: 32,
            p99_ms: 100.0,
            head_slack_ms: 0.5,
            head_budget_ms: 20.0,
            quarantined_frac: 0.0,
        }
    }

    #[test]
    fn idle_signal_has_zero_pressure() {
        assert_eq!(LoadSignal::idle(5.0).pressure(10.0), 0.0);
    }

    #[test]
    fn pressure_components_saturate_at_one() {
        let s = LoadSignal {
            now_ms: 0.0,
            queue_depth: 1e6,
            queue_capacity: 4,
            p99_ms: 1e9,
            head_slack_ms: -500.0,
            head_budget_ms: 1.0,
            quarantined_frac: 5.0,
        };
        assert_eq!(s.pressure(10.0), 1.0);
    }

    #[test]
    fn capacity_loss_alone_raises_pressure() {
        // An otherwise idle pool with half its replicas out of rotation
        // reads as pressure 0.5 — the ladder pre-degrades on capacity
        // loss instead of waiting for queue buildup.
        let s = LoadSignal { quarantined_frac: 0.5, ..LoadSignal::idle(0.0) };
        assert_eq!(s.pressure(10.0), 0.5);
        // And a fault-free signal is bit-identical to the old fold.
        assert_eq!(LoadSignal::idle(0.0).pressure(10.0), 0.0);
    }

    #[test]
    fn degrades_under_pressure_and_upgrades_when_idle() {
        let mut p = policy();
        let dwell = p.dwell_ms();
        assert_eq!(p.level(), 0);
        let ev = p.observe(&pressured(0.0)).expect("first degrade");
        assert_eq!(ev.level, 1);
        let ev = p.observe(&pressured(dwell)).expect("second degrade");
        assert_eq!(ev.level, 2);
        assert_eq!(p.level(), p.max_level(), "3-row ladder caps at level 2");
        assert!(p.observe(&pressured(2.0 * dwell)).is_none(), "already at max level");
        let ev = p.observe(&LoadSignal::idle(3.0 * dwell)).expect("upgrade");
        assert_eq!(ev.level, 1);
        assert_eq!(p.degrades(), 2);
        assert_eq!(p.upgrades(), 1);
    }

    #[test]
    fn dwell_blocks_immediate_reversal() {
        let mut p = policy();
        assert!(p.observe(&pressured(0.0)).is_some());
        // An idle signal right after the degrade must NOT flap back.
        assert!(p.observe(&LoadSignal::idle(0.1)).is_none());
        assert!(p.observe(&LoadSignal::idle(p.dwell_ms() * 0.99)).is_none());
        assert!(p.observe(&LoadSignal::idle(p.dwell_ms() * 1.01)).is_some());
    }

    #[test]
    fn dead_band_holds_level() {
        let mut p = policy();
        assert!(p.observe(&pressured(0.0)).is_some());
        // Pressure between the thresholds: hold, forever.
        let mid = LoadSignal { queue_depth: 10.0, queue_capacity: 32, ..LoadSignal::idle(1e6) };
        let pr = mid.pressure(p.scale_ms());
        assert!(pr > 0.15 && pr < 0.5, "mid pressure {pr}");
        assert!(p.observe(&mid).is_none());
        assert_eq!(p.level(), 1);
    }

    #[test]
    fn shape_is_identity_at_level_zero() {
        let p = policy();
        let q = Query::new(7, 0.785, 12.0);
        assert_eq!(p.shape(&q, &table(), EMPTY_COLUMN), q);
    }

    #[test]
    fn shape_relaxes_accuracy_down_the_ladder() {
        let t = table();
        let mut p = policy();
        let q = Query::new(0, 0.79, 100.0); // wants C (row 2)
        assert!(p.observe(&pressured(0.0)).is_some());
        // Level 1: C (slowest rung) shed; cap accuracy is B's.
        let shaped = p.shape(&q, &t, EMPTY_COLUMN);
        assert!((shaped.accuracy_constraint - 0.77).abs() < 1e-12);
        assert_eq!(t.select(Policy::StrictAccuracy, shaped.accuracy_constraint, 100.0, 0), 1);
        // Level 2: only A remains.
        assert!(p.observe(&pressured(p.dwell_ms())).is_some());
        let shaped = p.shape(&q, &t, EMPTY_COLUMN);
        assert!((shaped.accuracy_constraint - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shape_never_raises_a_constraint() {
        let t = table();
        let mut p = policy();
        assert!(p.observe(&pressured(0.0)).is_some());
        let q = Query::new(0, 0.74, 100.0); // already below every rung
        let shaped = p.shape(&q, &t, EMPTY_COLUMN);
        assert!(shaped.accuracy_constraint <= q.accuracy_constraint);
        assert_eq!(shaped.accuracy_constraint, 0.74, "modest queries are untouched");
    }

    #[test]
    fn cache_residency_keeps_covered_rows_reachable() {
        // With gC resident, C's warm latency (2.1) fits inside B's cold
        // budget (2.0)? No — but it fits at level 1 only if ≤ budget.
        // Construct the comparison explicitly: under the cold column C is
        // shed at level 1; under column gC (index 3) C's latency drops by
        // 30% (to 2.1), still above B's cold 2.0 — but at level 0 nothing
        // is shed. Use a wider table where residency flips the outcome.
        let subnets = vec![subnet("A", 1, 0.75), subnet("B", 3, 0.77), subnet("C", 4, 0.79)];
        let candidates = vec![subnet("gC", 4, 0.0).graph];
        let t = LatencyTable::build(&subnets, candidates, synthetic_latency);
        // Cold: A=1, B=3, C=4. Warm C under gC: 4·(1−0.3)=2.8 ≤ B's cold 3.
        let mut p = AdaptivePolicy::new(&t, Policy::StrictAccuracy, AdaptiveOptions::default());
        assert!(p.observe(&pressured(0.0)).is_some());
        let q = Query::new(0, 0.79, 100.0);
        let cold = p.shape(&q, &t, EMPTY_COLUMN);
        assert!((cold.accuracy_constraint - 0.77).abs() < 1e-12, "C shed when cold");
        let warm = p.shape(&q, &t, 1);
        assert!(
            (warm.accuracy_constraint - 0.79).abs() < 1e-12,
            "resident panels keep C affordable at level 1 (got {})",
            warm.accuracy_constraint
        );
    }

    #[test]
    fn strict_latency_tightens_budget() {
        let t = table();
        let mut p = AdaptivePolicy::new(&t, Policy::StrictLatency, AdaptiveOptions::default());
        assert!(p.observe(&pressured(0.0)).is_some());
        let q = Query::new(0, 0.0, 100.0);
        let shaped = p.shape(&q, &t, EMPTY_COLUMN);
        assert!((shaped.latency_constraint_ms - 2.0).abs() < 1e-12, "capped at B's cold latency");
    }

    #[test]
    fn batch_cap_halves_per_level_with_floor() {
        let mut p = policy();
        assert_eq!(p.batch_cap(4), 4);
        assert!(p.observe(&pressured(0.0)).is_some());
        assert_eq!(p.batch_cap(4), 2);
        assert!(p.observe(&pressured(p.dwell_ms())).is_some());
        assert_eq!(p.batch_cap(4), 1);
        assert_eq!(p.batch_cap(2), 1, "the cap never halves below one query");
    }

    #[test]
    fn invalid_options_are_rejected() {
        let inverted = AdaptiveOptions {
            degrade_threshold: 0.2,
            upgrade_threshold: 0.5,
            ..AdaptiveOptions::default()
        };
        assert!(inverted.validate().is_err());
        assert!(AdaptiveOptions { dwell_ms: f64::NAN, ..AdaptiveOptions::default() }
            .validate()
            .is_err());
        assert!(AdaptiveOptions::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid adaptive options")]
    fn policy_construction_checks_options() {
        let _ = AdaptivePolicy::new(
            &table(),
            Policy::StrictAccuracy,
            AdaptiveOptions {
                degrade_threshold: 0.1,
                upgrade_threshold: 0.9,
                ..AdaptiveOptions::default()
            },
        );
    }
}
