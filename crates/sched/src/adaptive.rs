//! The load controller: graceful degradation under pressure, one
//! hysteresis ladder per tenant tier.
//!
//! The static scheduler ([`crate::scheduler::Scheduler`]) picks SubNets as
//! if the queue were always empty, which is exactly why an open serving
//! loop falls off an SLO cliff under bursts: every query still asks for
//! its full accuracy budget while the queue grows without bound.
//! [`TenantPolicy`] closes SUSHI's motivating feedback loop — *degrade to
//! a smaller SubGraph under pressure, upgrade when idle* — without the
//! scheduler ever seeing an accelerator type:
//!
//! * [`LoadSignal`] is plain data sampled from the serving loop each
//!   event: a time-weighted queue depth, the p99 of the loop's tail
//!   window (entered at dispatch, so it holds queries still in flight —
//!   see [`LoadSignal::p99_ms`]), and the deadline slack of the
//!   head-of-line query.
//!   [`TierSignals`] carries one shared signal plus optional per-tier
//!   refinements.
//! * Each tier's ladder folds its signal into a scalar *pressure* and
//!   walks a degradation **level** up and down with hysteresis: two
//!   thresholds (enter/exit) separated by a dead band, plus a minimum
//!   dwell time between level changes so a ladder never oscillates
//!   between adjacent SubNets within one window.
//! * Thresholds are biased by [`TenantTier`] — best-effort degrades
//!   *early* and upgrades *late*, latency-critical the reverse — and a
//!   coupling rule keeps the ladders ordered (`LatencyCritical ≤ Standard
//!   ≤ BestEffort` degradation level at all times), so shedding accuracy
//!   always starts at the bottom of the priority order. The
//!   [`ArrivalPredictor`] turns detected bursts in the best-effort tier's
//!   arrivals into a feed-forward pressure boost.
//! * At level `d` a ladder *shapes* queries before they reach the
//!   scheduler: it walks the constraint down the table's latency ladder
//!   (relaxing the accuracy constraint under [`Policy::StrictAccuracy`],
//!   tightening the latency constraint under [`Policy::StrictLatency`]),
//!   so `select` naturally lands on a smaller — faster — SubNet. The walk
//!   is cache-aware: a SubNet whose panels the resident SubGraph covers
//!   is cheaper under the current column and therefore survives more
//!   degradation levels than an uncovered SubNet of equal cold latency.
//!
//! The one configuration knob is [`TenantOptions`]' tier map; thresholds,
//! tier bias and dwell are constants or derived from the latency table.
//! The global controller is the untiered case ([`TenantOptions::global`]):
//! one ladder on the base thresholds serves every tenant — no shield, no
//! predictor, no per-tier signals. Everything here is deterministic and
//! side-effect free: the same signal sequence always yields the same level
//! trajectory, and zero pressure leaves every ladder at level 0, where
//! shaping is the identity.

use crate::query::{Policy, Query};
use crate::table::{LatencyTable, EMPTY_COLUMN};
use crate::tenant::{ArrivalPredictor, TenantTier, MAX_TENANT_SLOTS, TIER_COUNT};

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
    /// p99 of the end-to-end latencies in the serving loop's tail window,
    /// ms (`0.0` while the window is empty). The loop enters each served
    /// query when it is *dispatched*, keyed by its future completion time,
    /// and ages the window from the front in dispatch order. So the window
    /// also holds queries still in flight, which the loop could not yet
    /// have observed, and an entry older than the window can stay behind a
    /// fresher head (over 10k-query preset runs, 12.5–18% of the entries
    /// read were in flight, and up to 6.3% were older than the window).
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

/// Load observation handed to [`TenantPolicy::observe`]: the shared
/// (whole-queue) signal plus optional per-tier refinements. A tier's
/// effective pressure is the max of the shared pressure, its own
/// signal's pressure, and (best-effort only) the predictor boost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSignals {
    /// Whole-system signal (total queue depth, aggregate tail, head slack).
    pub shared: LoadSignal,
    /// Optional per-tier signals, indexed by [`TenantTier::index`].
    pub tiers: [Option<LoadSignal>; TIER_COUNT],
}

impl TierSignals {
    /// A shared-only observation (no per-tier refinement).
    pub fn uniform(shared: LoadSignal) -> Self {
        TierSignals { shared, tiers: [None; TIER_COUNT] }
    }

    /// Attaches a per-tier signal.
    #[must_use]
    pub fn with_tier(mut self, tier: TenantTier, signal: LoadSignal) -> Self {
        self.tiers[tier.index()] = Some(signal);
        self
    }
}

/// Pressure at which a `Standard` ladder degrades one level. The outer
/// tiers scale it by their [`tier_factor`].
const DEGRADE_AT: f64 = 0.4;

/// Pressure at which a `Standard` ladder upgrades one level, biased per
/// tier like [`DEGRADE_AT`]. The gap between the two is the hysteresis
/// dead band.
const UPGRADE_AT: f64 = 0.15;

/// Threshold bias between tiers: latency-critical thresholds are the
/// base thresholds × `SHIELD` (degrades late, upgrades early), best-effort
/// ones divide by it (degrades early, upgrades late).
///
/// 4.0 pins the latency-critical degrade threshold (1.6) above reachable
/// pressure, so that ladder never degrades, while the best-effort ladder
/// sheds accuracy at the first sign of load. It is the best point of a
/// shield sweep on the `multi_tenant` preset: beyond ~5 the curves
/// saturate, below ~2.5 the latency-critical ladder starts thrashing with
/// the shared signal and aggregate goodput drops.
const SHIELD: f64 = 4.0;

/// Threshold multiplier for a tier: [`SHIELD`] for latency-critical, 1 for
/// standard, `1 / SHIELD` for best-effort.
fn tier_factor(tier: TenantTier) -> f64 {
    match tier {
        TenantTier::LatencyCritical => SHIELD,
        TenantTier::Standard => 1.0,
        TenantTier::BestEffort => 1.0 / SHIELD,
    }
}

/// How the load controller partitions traffic: the tenant tier map, or
/// none. `Copy`, so it can live inside the serving `SimConfig`.
///
/// Everything else about the controller is fixed or derived from the
/// latency table by [`TenantPolicy::new`]: the base thresholds, the tier
/// bias, the dwell (the serving set's mean cold latency), the
/// tail-pressure reference scale (twice that), the deepest level (every
/// rung of the ladder) and the batch-cap floor (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOptions {
    /// Tier assignment per tenant id (index = tenant id). Ids at or
    /// beyond [`MAX_TENANT_SLOTS`] default to [`TenantTier::Standard`].
    /// `None` is the untiered (global) controller: one ladder on the base
    /// thresholds serves every tenant. A tier map runs one ladder per
    /// tier and the [`ArrivalPredictor`] over best-effort arrivals.
    pub tiers: Option<[TenantTier; MAX_TENANT_SLOTS]>,
}

impl TenantOptions {
    /// The global controller: no tier map, so one ladder on the base
    /// thresholds serves all traffic.
    #[must_use]
    pub fn global() -> Self {
        TenantOptions { tiers: None }
    }

    /// Assigns `tier` to `tenant` (starting a tier map, every other
    /// tenant `Standard`, if the options were untiered). Panics if
    /// `tenant >= MAX_TENANT_SLOTS`.
    #[must_use]
    pub fn with_tier(mut self, tenant: u32, tier: TenantTier) -> Self {
        let slot = tenant as usize;
        assert!(slot < MAX_TENANT_SLOTS, "tenant id {tenant} exceeds MAX_TENANT_SLOTS");
        self.tiers.get_or_insert([TenantTier::Standard; MAX_TENANT_SLOTS])[slot] = tier;
        self
    }

    /// Tier of a tenant id (`Standard` for out-of-range ids and for
    /// every id of an untiered configuration).
    pub fn tier_of(&self, tenant: u32) -> TenantTier {
        let assigned = self.tiers.as_ref().and_then(|t| t.get(tenant as usize));
        assigned.copied().unwrap_or(TenantTier::Standard)
    }
}

/// A level change enacted by one tier's ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantEvent {
    /// The tier that stepped ([`TenantTier::Standard`] for the lone
    /// ladder of an untiered policy).
    pub tier: TenantTier,
    /// Simulated time of the change, ms.
    pub at_ms: f64,
    /// Pressure that triggered it.
    pub pressure: f64,
    /// The tier's degradation level *after* the change.
    pub level: usize,
}

/// Where one tier's ladder stands: its level and the steps it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierState {
    /// The tier this ladder serves ([`TenantTier::Standard`] for the lone
    /// ladder of an untiered policy).
    pub tier: TenantTier,
    /// Current degradation level (0 = no degradation).
    pub level: usize,
    /// Level changes that degraded so far.
    pub degrades: usize,
    /// Level changes that upgraded so far.
    pub upgrades: usize,
}

/// One tier's hysteresis ladder: its walk and its biased thresholds.
#[derive(Debug, Clone, Copy)]
struct Ladder {
    state: TierState,
    last_change_ms: f64,
    /// [`DEGRADE_AT`] × [`tier_factor`].
    degrade_at: f64,
    /// [`UPGRADE_AT`] × [`tier_factor`].
    upgrade_at: f64,
}

/// The serving loop's controller: one hysteresis ladder per tier, coupled
/// so degradation depth is always ordered `LatencyCritical ≤ Standard ≤
/// BestEffort` — or, built from untiered options
/// ([`TenantOptions::global`]), a single ladder serving every tier, which
/// is the global controller.
///
/// Construct one per serving run from the same [`LatencyTable`] the
/// scheduler uses, [`observe`](Self::observe) the load at every event, and
/// [`shape`](Self::shape) each query before handing it to
/// [`crate::scheduler::Scheduler::decide`]. At level 0 shaping is the
/// identity, so a run whose pressure never crosses a degrade threshold is
/// bit-identical to the static policy.
#[derive(Debug)]
pub struct TenantPolicy {
    policy: Policy,
    opts: TenantOptions,
    /// Row indices sorted by cold latency ascending (rung 0 is the
    /// fastest SubNet, the last rung the slowest).
    rungs: Vec<usize>,
    dwell_ms: f64,
    scale_ms: f64,
    /// One per tier in priority order, or the single shared ladder.
    ladders: Vec<Ladder>,
    /// Runs exactly when the policy is tiered.
    predictor: Option<ArrivalPredictor>,
}

impl TenantPolicy {
    /// Builds the ladders from `table` under `policy`.
    pub fn new(table: &LatencyTable, policy: Policy, opts: TenantOptions) -> Self {
        let mut rungs: Vec<usize> = (0..table.num_rows()).collect();
        rungs.sort_by(|&a, &b| {
            table
                .latency_ms(a, EMPTY_COLUMN)
                .partial_cmp(&table.latency_ms(b, EMPTY_COLUMN))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mean_cold =
            (0..table.num_rows()).map(|i| table.latency_ms(i, EMPTY_COLUMN)).sum::<f64>()
                / table.num_rows() as f64;
        let tiers: &[TenantTier] =
            if opts.tiers.is_some() { &TenantTier::ALL } else { &[TenantTier::Standard] };
        let ladder = |&tier: &TenantTier| Ladder {
            state: TierState { tier, level: 0, degrades: 0, upgrades: 0 },
            last_change_ms: f64::NEG_INFINITY,
            degrade_at: DEGRADE_AT * tier_factor(tier),
            upgrade_at: UPGRADE_AT * tier_factor(tier),
        };
        TenantPolicy {
            policy,
            opts,
            rungs,
            // One step per service time: the controller reacts at the
            // cadence it receives completion evidence, and a burst one
            // dwell long can only move one level.
            dwell_ms: mean_cold,
            // The tail scale is the scenario presets' deadline floor.
            scale_ms: 2.0 * mean_cold,
            ladders: tiers.iter().map(ladder).collect(),
            predictor: opts.tiers.is_some().then(ArrivalPredictor::new),
        }
    }

    /// Whether each tier walks its own ladder (`false`: one ladder serves
    /// every tier, and per-tier signals are never read).
    pub fn is_tiered(&self) -> bool {
        self.ladders.len() > 1
    }

    /// Every ladder's state, in priority order: all three tiers when
    /// tiered, otherwise the lone ladder, reported as `Standard` — the
    /// tier every tenant of an untiered run maps to.
    pub fn states(&self) -> impl Iterator<Item = TierState> + '_ {
        self.ladders.iter().map(|l| l.state)
    }

    /// The state of the ladder serving `tier`: its own when tiered, else
    /// the shared one.
    pub fn state(&self, tier: TenantTier) -> TierState {
        self.ladders[if self.is_tiered() { tier.index() } else { 0 }].state
    }

    /// Current degradation level of `tier` (0 = no degradation).
    pub fn level(&self, tier: TenantTier) -> usize {
        self.state(tier).level
    }

    /// Deepest reachable level: every rung but the fastest can be shed.
    pub fn max_level(&self) -> usize {
        self.rungs.len().saturating_sub(1)
    }

    /// The resolved minimum time between level changes of one ladder, ms.
    pub fn dwell_ms(&self) -> f64 {
        self.dwell_ms
    }

    /// The resolved tail-pressure reference scale, ms. Doubles as the
    /// natural smoothing constant for the queue-depth signal.
    pub fn scale_ms(&self) -> f64 {
        self.scale_ms
    }

    /// Effective pressure on `tier`'s ladder under `signals`.
    fn effective_pressure(&self, tier: TenantTier, signals: &TierSignals) -> f64 {
        let mut p = signals.shared.pressure(self.scale_ms);
        if let Some(sig) = &signals.tiers[tier.index()] {
            p = p.max(sig.pressure(self.scale_ms));
        }
        if tier == TenantTier::BestEffort {
            if let Some(pred) = &self.predictor {
                p = p.max(pred.boost_at(signals.shared.now_ms));
            }
        }
        p
    }

    /// Folds one observation into every ladder and returns the enacted
    /// changes (possibly several, one per tier), in a fixed deterministic
    /// order: upgrades in priority order (latency-critical first —
    /// recovery flows top-down), then degrades in reverse priority order
    /// (best-effort first — pain flows bottom-up).
    ///
    /// Each ladder moves at most one level, and only if at least
    /// [`dwell_ms`](Self::dwell_ms) has passed since its previous step
    /// (the oscillation guard). A step is additionally *vetoed* unless the
    /// ordering invariant survives it: a tier may only degrade once every
    /// lower-priority tier is at least as deep as the level it would land
    /// on, and may only upgrade once every higher-priority tier is at
    /// least as shallow. Vetoed steps do not consume the tier's dwell; a
    /// lone ladder has no neighbours to veto it.
    pub fn observe(&mut self, signals: &TierSignals) -> Vec<TenantEvent> {
        let now = signals.shared.now_ms;
        let n = self.ladders.len();
        let max_level = self.max_level();
        let mut events = Vec::new();
        // Pressure depends on the signals alone, never on a level, so one
        // fold per ladder serves both passes.
        let mut pressure = [0.0; TIER_COUNT];
        for (p, l) in pressure.iter_mut().zip(&self.ladders) {
            *p = self.effective_pressure(l.state.tier, signals);
        }
        let upgrades = (0..n).map(|i| (i, true));
        let degrades = (0..n).rev().map(|i| (i, false));
        for (i, upgrading) in upgrades.chain(degrades) {
            let (l, p) = (&self.ladders[i], pressure[i]);
            let level = l.state.level;
            // The dwell guard, then the threshold, then the ordering veto:
            // a tier rises only if every higher-priority tier already sits
            // above its current level, and sinks only if every
            // lower-priority tier is already deeper than it.
            let permitted = now - l.last_change_ms >= self.dwell_ms
                && if upgrading {
                    p <= l.upgrade_at
                        && level > 0
                        && self.ladders[..i].iter().all(|h| h.state.level < level)
                } else {
                    p >= l.degrade_at
                        && level < max_level
                        && self.ladders[i + 1..].iter().all(|lo| lo.state.level > level)
                };
            if !permitted {
                continue;
            }
            let l = &mut self.ladders[i];
            if upgrading {
                l.state.level -= 1;
                l.state.upgrades += 1;
            } else {
                l.state.level += 1;
                l.state.degrades += 1;
            }
            l.last_change_ms = now;
            events.push(TenantEvent {
                tier: l.state.tier,
                at_ms: now,
                pressure: p,
                level: l.state.level,
            });
        }
        events
    }

    /// Feeds one arrival of `tier` to the predictor (best-effort
    /// arrivals only; other tiers are ignored).
    pub fn observe_arrival(&mut self, tier: TenantTier, now_ms: f64) {
        if tier == TenantTier::BestEffort {
            if let Some(pred) = &mut self.predictor {
                pred.observe_arrival(now_ms);
            }
        }
    }

    /// Shapes `query` for its tier's current level: walks its constraint
    /// down the ConstraintSpace so the scheduler's `select` lands within
    /// the allowed ladder prefix. With `R` rows and level `d`, the `d`
    /// slowest rungs become unreachable; at level 0 this is the identity.
    ///
    /// The walk is biased toward SubNets covered by the resident SubGraph
    /// (`cached`, the resident column index): the latency budget implied
    /// by the cap rung is its *cold* latency, but feasibility is measured
    /// under the current column, so a row whose panels are resident — and
    /// therefore cheaper — stays reachable at levels where an uncovered
    /// row of equal cold latency would already have been shed.
    pub fn shape(
        &self,
        tier: TenantTier,
        query: &Query,
        table: &LatencyTable,
        cached: usize,
    ) -> Query {
        let level = self.level(tier);
        if level == 0 {
            return *query;
        }
        let cap_rung = self.rungs[self.rungs.len() - 1 - level];
        let budget_ms = table.latency_ms(cap_rung, EMPTY_COLUMN);
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

    /// The dynamic-batch size cap: halves per level of the *deepest*
    /// ladder — batch sizing follows the most degraded traffic class —
    /// floored at one query (smaller batches dispatch sooner, trading
    /// amortization for head-of-line latency).
    pub fn batch_cap(&self, base_max_batch: usize) -> usize {
        let deepest = self.states().map(|s| s.level).max().unwrap_or(0);
        (base_max_batch >> deepest.min(usize::BITS as usize - 1)).max(1)
    }

    /// Tier of a tenant id.
    pub fn tier_of(&self, tenant: u32) -> TenantTier {
        self.opts.tier_of(tenant)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::table::test_support::{subnet, synthetic_latency};

    /// The lone ladder of an untiered policy serves every tier as `Standard`.
    const TIER: TenantTier = TenantTier::Standard;

    fn table() -> LatencyTable {
        let subnets = vec![subnet("A", 1, 0.75), subnet("B", 2, 0.77), subnet("C", 3, 0.79)];
        let candidates = vec![
            subnet("gA", 1, 0.0).graph,
            subnet("gB", 2, 0.0).graph,
            subnet("gC", 3, 0.0).graph,
        ];
        LatencyTable::build(&subnets, candidates, synthetic_latency)
    }

    fn policy_for(t: &LatencyTable, policy: Policy) -> TenantPolicy {
        TenantPolicy::new(t, policy, TenantOptions::global())
    }

    fn policy() -> TenantPolicy {
        policy_for(&table(), Policy::StrictAccuracy)
    }

    /// Feeds one shared signal; a lone ladder enacts at most one change.
    fn observe(p: &mut TenantPolicy, signal: LoadSignal) -> Option<TenantEvent> {
        let mut events = p.observe(&TierSignals::uniform(signal));
        assert!(events.len() <= 1, "one ladder, one step at most: {events:?}");
        events.pop()
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
        assert_eq!(p.level(TIER), 0);
        let ev = observe(&mut p, pressured(0.0)).expect("first degrade");
        assert_eq!((ev.tier, ev.level), (TIER, 1));
        let ev = observe(&mut p, pressured(dwell)).expect("second degrade");
        assert_eq!(ev.level, 2);
        assert_eq!(p.level(TIER), p.max_level(), "3-row ladder caps at level 2");
        assert!(observe(&mut p, pressured(2.0 * dwell)).is_none(), "already at max level");
        let ev = observe(&mut p, LoadSignal::idle(3.0 * dwell)).expect("upgrade");
        assert_eq!(ev.level, 1);
        assert_eq!(p.state(TIER), TierState { tier: TIER, level: 1, degrades: 2, upgrades: 1 });
    }

    #[test]
    fn dwell_blocks_immediate_reversal() {
        let mut p = policy();
        let dwell = p.dwell_ms();
        assert!(observe(&mut p, pressured(0.0)).is_some());
        // An idle signal right after the degrade must NOT flap back.
        assert!(observe(&mut p, LoadSignal::idle(0.1)).is_none());
        assert!(observe(&mut p, LoadSignal::idle(dwell * 0.99)).is_none());
        assert!(observe(&mut p, LoadSignal::idle(dwell * 1.01)).is_some());
    }

    #[test]
    fn dead_band_holds_level() {
        let mut p = policy();
        assert!(observe(&mut p, pressured(0.0)).is_some());
        // Pressure between the thresholds: hold, forever.
        let mid = LoadSignal { queue_depth: 10.0, queue_capacity: 32, ..LoadSignal::idle(1e6) };
        let pr = mid.pressure(p.scale_ms());
        assert!(pr > 0.15 && pr < 0.5, "mid pressure {pr}");
        assert!(observe(&mut p, mid).is_none());
        assert_eq!(p.level(TIER), 1);
    }

    #[test]
    fn shape_is_identity_at_level_zero() {
        let p = policy();
        let q = Query::new(7, 0.785, 12.0);
        for tier in TenantTier::ALL {
            assert_eq!(p.shape(tier, &q, &table(), EMPTY_COLUMN), q);
        }
    }

    #[test]
    fn shape_relaxes_accuracy_down_the_ladder() {
        let t = table();
        let mut p = policy();
        let dwell = p.dwell_ms();
        let q = Query::new(0, 0.79, 100.0); // wants C (row 2)
        assert!(observe(&mut p, pressured(0.0)).is_some());
        // Level 1: C (slowest rung) shed; cap accuracy is B's.
        let shaped = p.shape(TIER, &q, &t, EMPTY_COLUMN);
        assert!((shaped.accuracy_constraint - 0.77).abs() < 1e-12);
        assert_eq!(t.select(Policy::StrictAccuracy, shaped.accuracy_constraint, 100.0, 0), 1);
        // Level 2: only A remains.
        assert!(observe(&mut p, pressured(dwell)).is_some());
        let shaped = p.shape(TIER, &q, &t, EMPTY_COLUMN);
        assert!((shaped.accuracy_constraint - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shape_never_raises_a_constraint() {
        let t = table();
        let mut p = policy();
        assert!(observe(&mut p, pressured(0.0)).is_some());
        let q = Query::new(0, 0.74, 100.0); // already below every rung
        let shaped = p.shape(TIER, &q, &t, EMPTY_COLUMN);
        assert!(shaped.accuracy_constraint <= q.accuracy_constraint);
        assert_eq!(shaped.accuracy_constraint, 0.74, "modest queries are untouched");
    }

    #[test]
    fn cache_residency_keeps_covered_rows_reachable() {
        // Cold: A=1, B=3, C=4, so level 1 caps the walk at B's cold 3 ms
        // and C is shed. Under column gC, C's warm latency is
        // 4·(1−0.3)=2.8 ≤ 3: residency keeps C affordable at level 1.
        let subnets = vec![subnet("A", 1, 0.75), subnet("B", 3, 0.77), subnet("C", 4, 0.79)];
        let candidates = vec![subnet("gC", 4, 0.0).graph];
        let t = LatencyTable::build(&subnets, candidates, synthetic_latency);
        let mut p = policy_for(&t, Policy::StrictAccuracy);
        assert!(observe(&mut p, pressured(0.0)).is_some());
        let q = Query::new(0, 0.79, 100.0);
        let cold = p.shape(TIER, &q, &t, EMPTY_COLUMN);
        assert!((cold.accuracy_constraint - 0.77).abs() < 1e-12, "C shed when cold");
        let warm = p.shape(TIER, &q, &t, 1);
        assert!(
            (warm.accuracy_constraint - 0.79).abs() < 1e-12,
            "resident panels keep C affordable at level 1 (got {})",
            warm.accuracy_constraint
        );
    }

    #[test]
    fn strict_latency_tightens_budget() {
        let t = table();
        let mut p = policy_for(&t, Policy::StrictLatency);
        assert!(observe(&mut p, pressured(0.0)).is_some());
        let q = Query::new(0, 0.0, 100.0);
        let shaped = p.shape(TIER, &q, &t, EMPTY_COLUMN);
        assert!((shaped.latency_constraint_ms - 2.0).abs() < 1e-12, "capped at B's cold latency");
    }

    #[test]
    fn batch_cap_halves_per_level_with_floor() {
        let mut p = policy();
        let dwell = p.dwell_ms();
        assert_eq!(p.batch_cap(4), 4);
        assert!(observe(&mut p, pressured(0.0)).is_some());
        assert_eq!(p.batch_cap(4), 2);
        assert!(observe(&mut p, pressured(dwell)).is_some());
        assert_eq!(p.batch_cap(4), 1);
        assert_eq!(p.batch_cap(2), 1, "the cap never halves below one query");
    }

    #[test]
    fn predictor_runs_exactly_when_tiered() {
        // The same burst of best-effort arrivals — calm 10 ms gaps, then
        // 1 ms ones — raises best-effort pressure on a tiered policy and
        // leaves an untiered one at zero.
        let t = table();
        let tiered_opts = TenantOptions::global().with_tier(1, TenantTier::BestEffort);
        let mut tiered = TenantPolicy::new(&t, Policy::StrictAccuracy, tiered_opts);
        let mut untiered = policy();
        let mut now = 0.0;
        for gap in std::iter::repeat_n(10.0, 64).chain(std::iter::repeat_n(1.0, 32)) {
            now += gap;
            tiered.observe_arrival(TenantTier::BestEffort, now);
            untiered.observe_arrival(TenantTier::BestEffort, now);
        }
        let idle = TierSignals::uniform(LoadSignal::idle(now));
        assert_eq!(tiered.effective_pressure(TenantTier::BestEffort, &idle), 1.0);
        assert_eq!(untiered.effective_pressure(TenantTier::BestEffort, &idle), 0.0);
        assert_eq!(tiered.effective_pressure(TenantTier::Standard, &idle), 0.0);
        assert!(untiered.observe(&idle).is_empty(), "no pressure, no step");
        let events = tiered.observe(&idle);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].tier, events[0].level), (TenantTier::BestEffort, 1));
    }

    /// `n` rows of increasing size and accuracy over `m` candidate
    /// columns, latency falling with vector overlap.
    fn make_table(n: usize, m: usize) -> LatencyTable {
        let subnets: Vec<_> =
            (1..=n).map(|i| subnet(&format!("sn{i}"), i, 0.70 + 0.02 * i as f64)).collect();
        let candidates = (1..=m).map(|j| subnet(&format!("g{j}"), j, 0.0).graph).collect();
        LatencyTable::build(&subnets, candidates, synthetic_latency)
    }

    /// Sets every ladder of `p` to the base thresholds (tier factor
    /// 1) and its dwell to `dwell_ms`.
    fn unshielded(mut p: TenantPolicy, dwell_ms: f64) -> TenantPolicy {
        for l in &mut p.ladders {
            (l.degrade_at, l.upgrade_at) = (DEGRADE_AT, UPGRADE_AT);
        }
        p.dwell_ms = dwell_ms;
        p
    }

    fn signal_at(now_ms: f64, depth: f64, p99_ms: f64) -> LoadSignal {
        // An empty-queue head (infinite slack) leaves depth and tail
        // in charge, so pressure moves both ways.
        LoadSignal {
            now_ms,
            queue_depth: depth,
            queue_capacity: 32,
            p99_ms,
            head_slack_ms: f64::INFINITY,
            head_budget_ms: 0.0,
            quarantined_frac: 0.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// With every tier on the base thresholds (tier factor 1), no
        /// best-effort arrivals for the predictor, and no per-tier
        /// signals, every tier's level trajectory is step-for-step
        /// identical to the untiered policy (`TenantOptions::global`,
        /// one ladder) fed the same signals — the tiered controller is
        /// the global one, three times over. Both shape every tier's
        /// query identically at every level, under every cache column,
        /// and agree on the batch cap.
        #[test]
        fn uniform_tenancy_tracks_the_global_controller(
            n in 2usize..8,
            dwell in 1.0f64..50.0,
            steps in proptest::collection::vec(
                (0.01f64..30.0, 0.0f64..64.0, 0.0f64..200.0),
                1..60,
            ),
            constraint in (0.70f64..0.90, 0.5f64..9.0),
        ) {
            for policy in [Policy::StrictAccuracy, Policy::StrictLatency] {
                let t = make_table(n, 3);
                let global = TenantOptions::global();
                let tiered = global.with_tier(0, TenantTier::Standard);
                let mut tenant = unshielded(TenantPolicy::new(&t, policy, tiered), dwell);
                let mut one_ladder = unshielded(TenantPolicy::new(&t, policy, global), dwell);
                prop_assert!(tenant.is_tiered() && !one_ladder.is_tiered());
                prop_assert_eq!(
                    one_ladder.states().map(|s| s.tier).collect::<Vec<_>>(),
                    vec![TenantTier::Standard]
                );
                prop_assert_eq!(tenant.scale_ms(), one_ladder.scale_ms());
                let q = Query::new(0, constraint.0, constraint.1);
                let mut now = 0.0;
                // The random walk, then a saturated climb and an idle
                // descent one dwell apart so every level of the ladder
                // is compared.
                let climb = (0..n).map(|_| (dwell + 1.0, 64.0, 1e6));
                let descent = (0..n).map(|_| (dwell + 1.0, 0.0, 0.0));
                for (dt, depth, p99) in steps.iter().copied().chain(climb).chain(descent) {
                    now += dt;
                    let signal = TierSignals::uniform(signal_at(now, depth, p99));
                    let _ = tenant.observe(&signal);
                    let stepped = one_ladder.observe(&signal);
                    prop_assert!(stepped.len() <= 1, "one ladder, one step at most");
                    prop_assert_eq!(one_ladder.batch_cap(8), tenant.batch_cap(8));
                    let level = one_ladder.level(TenantTier::Standard);
                    for tier in TenantTier::ALL {
                        prop_assert_eq!(
                            tenant.level(tier), level,
                            "tier {} diverged from the global controller", tier.name()
                        );
                        prop_assert_eq!(one_ladder.level(tier), level);
                        prop_assert_eq!(
                            one_ladder.tier_of(tier.index() as u32),
                            TenantTier::Standard
                        );
                        for cached in 0..t.num_columns() {
                            prop_assert_eq!(
                                tenant.shape(tier, &q, &t, cached),
                                one_ladder.shape(tier, &q, &t, cached),
                                "shape differs at level {} under column {}", level, cached
                            );
                        }
                    }
                }
                let global_state = one_ladder.state(TenantTier::Standard);
                prop_assert_eq!(global_state.level, 0, "the descent must walk back to level 0");
                prop_assert!(
                    global_state.degrades >= n - 1,
                    "the climb must reach the deepest level"
                );
                for tier in TenantTier::ALL {
                    let s = tenant.state(tier);
                    prop_assert_eq!(
                        (s.degrades, s.upgrades),
                        (global_state.degrades, global_state.upgrades)
                    );
                }
            }
        }
    }
}
