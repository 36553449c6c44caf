//! Tenant-aware adaptation: per-tier degradation ladders plus a
//! feed-forward arrival predictor.
//!
//! The global controller in [`crate::adaptive`] applies one degradation
//! level to *all* traffic: when the queue hurts, a latency-critical
//! navigation query is shaped exactly as hard as a best-effort batch
//! analytics query. This module differentiates traffic classes:
//!
//! * every tenant is assigned a [`TenantTier`]
//!   (`LatencyCritical | Standard | BestEffort`);
//! * each tier owns an independent [`AdaptivePolicy`] ladder whose
//!   thresholds are biased by the tier — best-effort degrades *early*
//!   and upgrades *late*, latency-critical the reverse;
//! * a structural coupling rule keeps the ladders ordered
//!   (`LatencyCritical ≤ Standard ≤ BestEffort` degradation level at all
//!   times), so shedding accuracy always starts at the bottom of the
//!   priority order;
//! * an [`ArrivalPredictor`] watches the best-effort tier's inter-arrival
//!   statistics and converts detected MMPP burst states / diurnal crests
//!   into a feed-forward pressure boost, pre-degrading best-effort
//!   traffic *before* the queue builds.
//!
//! [`TenantPolicy`] is the one controller the serving runtime talks to.
//! The global controller is its untiered case
//! ([`TenantOptions::global`]): a single ladder on the base thresholds
//! serves every tenant — no shield, no predictor, no per-tier signals —
//! and steps exactly as a bare [`AdaptivePolicy`] fed the shared signal
//! would. Tiered or not, zero pressure leaves every ladder at level 0 and
//! shaping is the identity.

use crate::adaptive::{AdaptiveEvent, AdaptiveOptions, AdaptivePolicy, LoadSignal};
use crate::query::{Policy, Query};
use crate::table::LatencyTable;

/// Number of tenant slots with an explicit tier assignment in
/// [`TenantOptions`]. Tenant ids at or beyond this fall back to
/// [`TenantTier::Standard`]. A fixed-size array keeps the options (and
/// everything embedding them, e.g. the serving `SimConfig`) `Copy`.
pub const MAX_TENANT_SLOTS: usize = 8;

/// Priority tier of a tenant. Order is priority order: earlier variants
/// are shielded longer (degrade last, upgrade first) and shed last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum TenantTier {
    /// Shielded traffic: degrades only under severe pressure, recovers
    /// first, and is never shed while lower-priority work is droppable.
    LatencyCritical,
    /// The neutral tier — thresholds exactly match the configured base
    /// [`AdaptiveOptions`]. Tenants without an assignment land here.
    #[default]
    Standard,
    /// Deferrable traffic: degrades first (including pre-emptively, via
    /// the arrival predictor), upgrades last, and is shed first.
    BestEffort,
}

/// Number of distinct tiers.
pub const TIER_COUNT: usize = 3;

impl TenantTier {
    /// All tiers, in priority order (highest first).
    pub const ALL: [TenantTier; TIER_COUNT] =
        [TenantTier::LatencyCritical, TenantTier::Standard, TenantTier::BestEffort];

    /// Dense index of the tier: 0 = latency-critical … 2 = best-effort.
    pub fn index(self) -> usize {
        match self {
            TenantTier::LatencyCritical => 0,
            TenantTier::Standard => 1,
            TenantTier::BestEffort => 2,
        }
    }

    /// Shedding precedence: higher values are dropped first under
    /// admission pressure. Latency-critical is 0 (shed last).
    pub fn shed_precedence(self) -> u8 {
        self.index() as u8
    }

    /// Stable snake_case label used in reports and the serve-bench schema.
    pub fn name(self) -> &'static str {
        match self {
            TenantTier::LatencyCritical => "latency_critical",
            TenantTier::Standard => "standard",
            TenantTier::BestEffort => "best_effort",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<TenantTier> {
        TenantTier::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// Knobs of the [`ArrivalPredictor`]. The two detectors compare arrival
/// rates at different horizons: the *burst* ratio divides the trend
/// window's mean gap by the burst window's (a sharp rate jump relative
/// to the recent past — an MMPP sojourn flip), while the *trend* ratio
/// divides the long-run baseline gap by the trend window's (a slow drift
/// above the long-run rate — a diurnal crest). `2.0` means "twice the
/// reference rate".
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PredictorOptions {
    /// Sliding window (in arrivals) for burst detection. Short, so an
    /// MMPP burst onset is seen within roughly one window.
    pub burst_window: usize,
    /// Sliding window (in arrivals) for trend detection — diurnal ramps
    /// move slowly, so this is several times `burst_window`.
    pub trend_window: usize,
    /// Arrivals observed before any state transition is allowed; keeps
    /// the long-run baseline from being a handful of samples.
    pub warmup: usize,
    /// Rate ratio at or above which the predictor enters [`ArrivalState::Burst`].
    pub burst_enter: f64,
    /// Rate ratio below which it leaves `Burst` (hysteresis: < `burst_enter`).
    pub burst_exit: f64,
    /// Trend-window rate ratio at or above which it enters
    /// [`ArrivalState::Elevated`] (a diurnal crest).
    pub trend_enter: f64,
    /// Trend-window rate ratio below which it leaves `Elevated`.
    pub trend_exit: f64,
}

impl Default for PredictorOptions {
    fn default() -> Self {
        PredictorOptions {
            burst_window: 16,
            trend_window: 64,
            warmup: 32,
            burst_enter: 3.0,
            burst_exit: 2.0,
            trend_enter: 1.8,
            trend_exit: 1.4,
        }
    }
}

impl PredictorOptions {
    /// Checks internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.burst_window < 2 || self.trend_window < 2 {
            return Err("predictor windows must hold at least 2 gaps".into());
        }
        if self.trend_window < self.burst_window {
            return Err("trend_window must be at least burst_window".into());
        }
        if self.warmup < self.burst_window {
            return Err("warmup must cover at least one burst_window".into());
        }
        for (name, v) in [
            ("burst_enter", self.burst_enter),
            ("burst_exit", self.burst_exit),
            ("trend_enter", self.trend_enter),
            ("trend_exit", self.trend_exit),
        ] {
            if !v.is_finite() || v <= 1.0 {
                return Err(format!("predictor {name} must be a finite ratio > 1"));
            }
        }
        if self.burst_exit >= self.burst_enter {
            return Err("burst_exit must be below burst_enter (hysteresis)".into());
        }
        if self.trend_exit >= self.trend_enter {
            return Err("trend_exit must be below trend_enter (hysteresis)".into());
        }
        Ok(())
    }
}

/// Arrival-process state detected by the [`ArrivalPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArrivalState {
    /// Recent rate is consistent with the long-run baseline.
    #[default]
    Calm,
    /// A sustained, moderate rate increase over the trend window — the
    /// crest of a diurnal ramp.
    Elevated,
    /// A sharp rate increase over the burst window — an MMPP burst
    /// sojourn.
    Burst,
}

impl ArrivalState {
    /// Feed-forward pressure contributed by the state.
    fn boost(self) -> f64 {
        match self {
            ArrivalState::Calm => 0.0,
            ArrivalState::Elevated => 0.6,
            ArrivalState::Burst => 1.0,
        }
    }
}

/// Feed-forward detector over inter-arrival gaps.
///
/// Maintains the cumulative mean gap (the long-run baseline) and two
/// sliding windows of recent gaps. Two rate ratios drive a three-state
/// machine with hysteresis:
///
/// * **burst ratio** `trend_mean_gap / burst_mean_gap` — the short
///   window against the recent past. An MMPP sojourn flip spikes it
///   within one burst window; a diurnal crest, which moves both windows
///   together, leaves it near 1, so a crest can never masquerade as a
///   burst.
/// * **trend ratio** `baseline_mean_gap / trend_mean_gap` — the recent
///   past against the long run. A diurnal ramp raises it slowly toward
///   the crest.
///
/// The detected [`ArrivalState`] maps to a pressure
/// [`boost_at`](Self::boost_at) that the tenant layer mixes into the
/// best-effort tier's pressure — degradation starts when the *arrival
/// process* turns hostile, not when the queue finally reflects it.
///
/// The reference horizons adapt: a burst that outlives the trend window
/// stops reading as a burst (decaying to `Elevated` while the long-run
/// baseline still lags), and one that becomes the cumulative baseline
/// decays to `Calm` — a sustained new normal is capacity planning's
/// problem, not admission control's.
#[derive(Debug, Clone)]
pub struct ArrivalPredictor {
    opts: PredictorOptions,
    last_arrival_ms: Option<f64>,
    gap_sum: f64,
    gap_count: usize,
    burst_ring: Vec<f64>,
    trend_ring: Vec<f64>,
    burst_sum: f64,
    trend_sum: f64,
    next_burst: usize,
    next_trend: usize,
    state: ArrivalState,
    transitions: usize,
}

impl ArrivalPredictor {
    /// Builds a predictor. Panics if `opts` fails
    /// [`PredictorOptions::validate`].
    pub fn new(opts: PredictorOptions) -> Self {
        if let Err(e) = opts.validate() {
            panic!("invalid PredictorOptions: {e}");
        }
        ArrivalPredictor {
            opts,
            last_arrival_ms: None,
            gap_sum: 0.0,
            gap_count: 0,
            burst_ring: Vec::with_capacity(opts.burst_window),
            trend_ring: Vec::with_capacity(opts.trend_window),
            burst_sum: 0.0,
            trend_sum: 0.0,
            next_burst: 0,
            next_trend: 0,
            state: ArrivalState::Calm,
            transitions: 0,
        }
    }

    /// Folds one arrival timestamp (milliseconds, non-decreasing) into
    /// the detector and returns the state *after* the observation.
    pub fn observe_arrival(&mut self, now_ms: f64) -> ArrivalState {
        let gap = match self.last_arrival_ms {
            None => {
                self.last_arrival_ms = Some(now_ms);
                return self.state;
            }
            Some(prev) => (now_ms - prev).max(0.0),
        };
        self.last_arrival_ms = Some(now_ms);
        self.gap_sum += gap;
        self.gap_count += 1;
        push_ring(
            &mut self.burst_ring,
            &mut self.burst_sum,
            &mut self.next_burst,
            self.opts.burst_window,
            gap,
        );
        push_ring(
            &mut self.trend_ring,
            &mut self.trend_sum,
            &mut self.next_trend,
            self.opts.trend_window,
            gap,
        );
        if self.gap_count < self.opts.warmup {
            return self.state;
        }
        let baseline = self.gap_sum / self.gap_count as f64;
        let trend_full = self.trend_ring.len() == self.opts.trend_window;
        let trend_mean =
            if trend_full { Some(self.trend_sum / self.opts.trend_window as f64) } else { None };
        let r_burst = trend_mean
            .and_then(|t| rate_ratio(t, &self.burst_ring, self.burst_sum, self.opts.burst_window));
        let r_trend =
            rate_ratio(baseline, &self.trend_ring, self.trend_sum, self.opts.trend_window);
        let next = match self.state {
            ArrivalState::Burst => {
                if let Some(r) = r_burst {
                    if r < self.opts.burst_exit {
                        match r_trend {
                            Some(rt) if rt >= self.opts.trend_enter => ArrivalState::Elevated,
                            _ => ArrivalState::Calm,
                        }
                    } else {
                        ArrivalState::Burst
                    }
                } else {
                    ArrivalState::Burst
                }
            }
            ArrivalState::Elevated => {
                if matches!(r_burst, Some(r) if r >= self.opts.burst_enter) {
                    ArrivalState::Burst
                } else if matches!(r_trend, Some(r) if r < self.opts.trend_exit) {
                    ArrivalState::Calm
                } else {
                    ArrivalState::Elevated
                }
            }
            ArrivalState::Calm => {
                if matches!(r_burst, Some(r) if r >= self.opts.burst_enter) {
                    ArrivalState::Burst
                } else if matches!(r_trend, Some(r) if r >= self.opts.trend_enter) {
                    ArrivalState::Elevated
                } else {
                    ArrivalState::Calm
                }
            }
        };
        if next != self.state {
            self.state = next;
            self.transitions += 1;
        }
        self.state
    }

    /// Current detected state.
    pub fn state(&self) -> ArrivalState {
        self.state
    }

    /// Total state transitions so far (any direction).
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    /// Arrivals observed so far.
    pub fn arrivals(&self) -> usize {
        self.gap_count + usize::from(self.last_arrival_ms.is_some())
    }

    /// Feed-forward pressure boost at `now_ms`: 1.0 in `Burst`, 0.6 in
    /// `Elevated`, 0.0 in `Calm`. If the *open* gap (time since the last
    /// arrival) already exceeds the long-run mean gap, the boost decays
    /// to zero regardless of state — silence is its own all-clear, and
    /// the state machine only advances on arrivals.
    pub fn boost_at(&self, now_ms: f64) -> f64 {
        let boost = self.state.boost();
        if boost == 0.0 {
            return 0.0;
        }
        if self.gap_count > 0 {
            let baseline = self.gap_sum / self.gap_count as f64;
            if let Some(last) = self.last_arrival_ms {
                if now_ms - last > baseline {
                    return 0.0;
                }
            }
        }
        boost
    }
}

/// Ring-buffer push: grows until `cap`, then overwrites round-robin,
/// keeping `sum` in sync.
fn push_ring(ring: &mut Vec<f64>, sum: &mut f64, next: &mut usize, cap: usize, gap: f64) {
    if ring.len() < cap {
        ring.push(gap);
        *sum += gap;
    } else {
        *sum += gap - ring[*next];
        ring[*next] = gap;
        *next = (*next + 1) % cap;
    }
}

/// `baseline_gap / window_mean_gap`, only once the window is full (a
/// partially filled window is too noisy to act on). A zero window mean
/// (simultaneous arrivals) reads as an unbounded rate ratio.
fn rate_ratio(baseline: f64, ring: &[f64], sum: f64, cap: usize) -> Option<f64> {
    if ring.len() < cap || baseline <= 0.0 {
        return None;
    }
    let mean = sum / cap as f64;
    if mean <= 0.0 {
        return Some(f64::INFINITY);
    }
    Some(baseline / mean)
}

/// Configuration of the tenant layer. `Copy`, so it can live inside the
/// serving `SimConfig` without breaking by-value plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct TenantOptions {
    /// Base controller knobs. The `Standard` tier uses these verbatim;
    /// the outer tiers scale the thresholds by [`shield`](Self::shield).
    pub base: AdaptiveOptions,
    /// Tier assignment per tenant id (index = tenant id). Ids at or
    /// beyond [`MAX_TENANT_SLOTS`] default to [`TenantTier::Standard`].
    /// `None` is the untiered (global) controller: one ladder on the
    /// `base` thresholds serves every tenant, and `predictor` and
    /// `shield` — which only differentiate tiers — are not consulted.
    pub tiers: Option<[TenantTier; MAX_TENANT_SLOTS]>,
    /// Feed-forward arrival predictor over the best-effort tier's
    /// arrivals; `None` disables prediction (purely reactive tiers).
    pub predictor: Option<PredictorOptions>,
    /// Threshold bias between tiers (≥ 1). Latency-critical thresholds
    /// are the base thresholds × `shield` (degrades late, upgrades
    /// early); best-effort divides by it (degrades early, upgrades
    /// late). `1.0` makes all tiers share the base thresholds — priority
    /// then only affects shedding order, batch affinity and the ladder
    /// ordering rule.
    pub shield: f64,
}

impl Default for TenantOptions {
    fn default() -> Self {
        TenantOptions {
            base: AdaptiveOptions::default(),
            tiers: Some([TenantTier::Standard; MAX_TENANT_SLOTS]),
            predictor: None,
            shield: 1.5,
        }
    }
}

impl TenantOptions {
    /// The global controller as a tenant configuration: no tier map, so
    /// one ladder on `base` serves all traffic.
    #[must_use]
    pub fn global(base: AdaptiveOptions) -> Self {
        TenantOptions { base, tiers: None, predictor: None, shield: 1.0 }
    }

    /// Assigns `tier` to `tenant` (starting a tier map if the options
    /// were untiered). Panics if `tenant >= MAX_TENANT_SLOTS`.
    #[must_use]
    pub fn with_tier(mut self, tenant: u32, tier: TenantTier) -> Self {
        let slot = tenant as usize;
        assert!(slot < MAX_TENANT_SLOTS, "tenant id {tenant} exceeds MAX_TENANT_SLOTS");
        self.tiers.get_or_insert([TenantTier::Standard; MAX_TENANT_SLOTS])[slot] = tier;
        self
    }

    /// Replaces the base controller knobs.
    #[must_use]
    pub fn with_base(mut self, base: AdaptiveOptions) -> Self {
        self.base = base;
        self
    }

    /// Enables (Some) or disables (None) the arrival predictor.
    #[must_use]
    pub fn with_predictor(mut self, predictor: Option<PredictorOptions>) -> Self {
        self.predictor = predictor;
        self
    }

    /// Sets the inter-tier threshold bias (≥ 1).
    #[must_use]
    pub fn with_shield(mut self, shield: f64) -> Self {
        self.shield = shield;
        self
    }

    /// Threshold multiplier for a tier: `shield` for latency-critical,
    /// 1 for standard, `1 / shield` for best-effort.
    fn tier_factor(&self, tier: TenantTier) -> f64 {
        match tier {
            TenantTier::LatencyCritical => self.shield,
            TenantTier::Standard => 1.0,
            TenantTier::BestEffort => 1.0 / self.shield,
        }
    }

    /// Tier of a tenant id (`Standard` for out-of-range ids and for
    /// every id of an untiered configuration).
    pub fn tier_of(&self, tenant: u32) -> TenantTier {
        let assigned = self.tiers.as_ref().and_then(|t| t.get(tenant as usize));
        assigned.copied().unwrap_or(TenantTier::Standard)
    }

    /// Checks internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if !self.shield.is_finite() || self.shield < 1.0 {
            return Err("tenant shield must be a finite factor >= 1".into());
        }
        if let Some(p) = &self.predictor {
            p.validate()?;
        }
        Ok(())
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

/// A level change enacted by one tier's ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantEvent {
    /// The tier that stepped.
    pub tier: TenantTier,
    /// The underlying controller event (time, pressure, new level).
    pub event: AdaptiveEvent,
}

/// See [`TenantPolicy::ladder_tiers`].
fn ladder_tiers(tiered: bool) -> &'static [TenantTier] {
    if tiered {
        &TenantTier::ALL
    } else {
        &[TenantTier::Standard]
    }
}

/// The serving loop's controller: one [`AdaptivePolicy`] ladder per tier,
/// coupled so degradation depth is always ordered
/// `LatencyCritical ≤ Standard ≤ BestEffort` — or, built from untiered
/// options ([`TenantOptions::global`]), a single ladder serving every
/// tier, which is the global controller.
///
/// Per [`observe`](Self::observe) each ladder obeys the
/// [`AdaptivePolicy`] contract — at most a ±1 step, one step per dwell —
/// but a step is additionally *vetoed* unless the ordering invariant
/// survives it: a tier may only degrade once every lower-priority tier is
/// at least as deep as the level it would land on, and may only upgrade
/// once every higher-priority tier is at least as shallow. Vetoed steps
/// do not consume the tier's dwell. A lone ladder has no neighbours to
/// veto it, so it steps exactly as [`AdaptivePolicy::observe`] would.
#[derive(Debug)]
pub struct TenantPolicy {
    opts: TenantOptions,
    /// Indexed like [`ladder_tiers`](Self::ladder_tiers): one per tier in
    /// priority order, or the single shared ladder.
    ladders: Vec<AdaptivePolicy>,
    predictor: Option<ArrivalPredictor>,
}

impl TenantPolicy {
    /// Builds the ladders from `table`. Panics if `opts` fails
    /// [`TenantOptions::validate`] or the table is empty (mirroring
    /// [`AdaptivePolicy::new`]); the engine builder validates first and
    /// reports errors gracefully.
    pub fn new(table: &LatencyTable, policy: Policy, opts: TenantOptions) -> Self {
        if let Err(e) = opts.validate() {
            panic!("invalid TenantOptions: {e}");
        }
        let ladder = |&tier: &TenantTier| {
            let f = opts.tier_factor(tier);
            let biased = opts
                .base
                .with_thresholds(opts.base.degrade_threshold * f, opts.base.upgrade_threshold * f);
            AdaptivePolicy::new(table, policy, biased)
        };
        TenantPolicy {
            opts,
            ladders: ladder_tiers(opts.tiers.is_some()).iter().map(ladder).collect(),
            predictor: opts.predictor.map(ArrivalPredictor::new),
        }
    }

    /// Whether each tier walks its own ladder (`false`: one ladder serves
    /// every tier, and per-tier signals are never read).
    pub fn is_tiered(&self) -> bool {
        self.ladders.len() > 1
    }

    /// The tiers that own a ladder, in priority order: all three when
    /// tiered, otherwise just `Standard` — the tier every tenant of an
    /// untiered run maps to, and the one whose thresholds are unbiased.
    pub fn ladder_tiers(&self) -> &'static [TenantTier] {
        ladder_tiers(self.is_tiered())
    }

    /// The ladder serving `tier`: its own when tiered, else the shared one.
    fn ladder(&self, tier: TenantTier) -> &AdaptivePolicy {
        &self.ladders[if self.is_tiered() { tier.index() } else { 0 }]
    }

    /// Effective pressure on ladder `i` (serving `tier`) under `signals`,
    /// at the ladder's own scale.
    fn effective_pressure(&self, i: usize, tier: TenantTier, signals: &TierSignals) -> f64 {
        let scale = self.ladders[i].scale_ms();
        let mut p = signals.shared.pressure(scale);
        if let Some(sig) = &signals.tiers[tier.index()] {
            p = p.max(sig.pressure(scale));
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
    pub fn observe(&mut self, signals: &TierSignals) -> Vec<TenantEvent> {
        let now = signals.shared.now_ms;
        let tiers = self.ladder_tiers();
        let mut events = Vec::new();
        // Pressure depends on the signals alone, never on a level, so one
        // fold per ladder serves both passes.
        let mut pressure = [0.0; TIER_COUNT];
        for (i, &tier) in tiers.iter().enumerate() {
            pressure[i] = self.effective_pressure(i, tier, signals);
        }
        let upgrades = (0..tiers.len()).map(|i| (i, true));
        let degrades = (0..tiers.len()).rev().map(|i| (i, false));
        for (i, upgrading) in upgrades.chain(degrades) {
            let (tier, p) = (tiers[i], pressure[i]);
            let f = self.opts.tier_factor(tier);
            let level = self.ladders[i].level();
            // A tier rises only if every higher-priority tier already sits
            // at or above the target level, and sinks only if every
            // lower-priority tier is already at least as deep as it.
            let permitted = if upgrading {
                p <= self.opts.base.upgrade_threshold * f
                    && level > 0
                    && self.ladders[..i].iter().all(|h| h.level() < level)
            } else {
                p >= self.opts.base.degrade_threshold * f
                    && level < self.ladders[i].max_level()
                    && self.ladders[i + 1..].iter().all(|l| l.level() > level)
            };
            if permitted {
                if let Some(event) = self.ladders[i].observe_pressure(now, p) {
                    events.push(TenantEvent { tier, event });
                }
            }
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

    /// Shapes `query` through its tier's ladder (identity at level 0).
    /// `cached` is the resident cache column index, as in
    /// [`AdaptivePolicy::shape`].
    pub fn shape(
        &self,
        tier: TenantTier,
        query: &Query,
        table: &LatencyTable,
        cached: usize,
    ) -> Query {
        self.ladder(tier).shape(query, table, cached)
    }

    /// Dynamic batch cap: the *deepest* ladder's cap, so batch sizing
    /// follows the most degraded traffic class.
    pub fn batch_cap(&self, base: usize) -> usize {
        let deepest = self.ladders.iter().max_by_key(|t| t.level()).expect("at least one ladder");
        deepest.batch_cap(base)
    }

    /// Tier of a tenant id.
    pub fn tier_of(&self, tenant: u32) -> TenantTier {
        self.opts.tier_of(tenant)
    }

    /// Current degradation level of a tier.
    pub fn level(&self, tier: TenantTier) -> usize {
        self.ladder(tier).level()
    }

    /// Degrade steps taken by a tier's ladder so far.
    pub fn degrades(&self, tier: TenantTier) -> usize {
        self.ladder(tier).degrades()
    }

    /// Upgrade steps taken by a tier's ladder so far.
    pub fn upgrades(&self, tier: TenantTier) -> usize {
        self.ladder(tier).upgrades()
    }

    /// Pressure scale (shared by all ladders — derived from the table).
    pub fn scale_ms(&self) -> f64 {
        self.ladders[0].scale_ms()
    }

    /// Dwell (shared by all ladders — derived from the base options).
    pub fn dwell_ms(&self) -> f64 {
        self.ladders[0].dwell_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::test_support::{subnet, synthetic_latency};
    use crate::table::EMPTY_COLUMN;

    fn make_table(n: usize) -> LatencyTable {
        let subnets: Vec<_> =
            (0..n).map(|i| subnet(&format!("s{i}"), i + 1, 0.70 + 0.02 * i as f64)).collect();
        let candidates = vec![subnets[0].graph.clone(), subnets[n - 1].graph.clone()];
        LatencyTable::build(&subnets, candidates, synthetic_latency)
    }

    fn signal_at(now: f64, depth: f64, p99: f64) -> LoadSignal {
        LoadSignal {
            now_ms: now,
            queue_depth: depth,
            queue_capacity: 32,
            p99_ms: p99,
            head_slack_ms: f64::INFINITY,
            head_budget_ms: f64::INFINITY,
            quarantined_frac: 0.0,
        }
    }

    fn hot(now: f64) -> TierSignals {
        TierSignals::uniform(signal_at(now, 32.0, 1.0e6))
    }

    fn cold(now: f64) -> TierSignals {
        TierSignals::uniform(LoadSignal::idle(now))
    }

    fn policy(opts: TenantOptions) -> TenantPolicy {
        TenantPolicy::new(&make_table(5), Policy::StrictAccuracy, opts)
    }

    // ---- deterministic pseudo-random gap generation (tests only) ----

    struct SplitMix(u64);

    impl SplitMix {
        fn next_f64(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // (0, 1]: never exactly zero so ln() is finite.
            ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        }

        fn exp_gap(&mut self, mean: f64) -> f64 {
            -mean * self.next_f64().ln()
        }
    }

    #[test]
    fn predictor_stays_calm_on_steady_poisson() {
        // Seeded, deterministic: a homogeneous Poisson process must never
        // trip a state transition, across several seeds.
        for seed in 1u64..=8 {
            let mut rng = SplitMix(seed);
            let mut pred = ArrivalPredictor::new(PredictorOptions::default());
            let mut now = 0.0;
            for _ in 0..1500 {
                now += rng.exp_gap(10.0);
                pred.observe_arrival(now);
            }
            assert_eq!(pred.transitions(), 0, "false transition on steady Poisson, seed {seed}");
            assert_eq!(pred.state(), ArrivalState::Calm);
        }
    }

    #[test]
    fn predictor_detects_mmpp_burst_within_bounded_lag() {
        let opts = PredictorOptions::default();
        for seed in 1u64..=4 {
            let mut rng = SplitMix(0xB00 + seed);
            let mut pred = ArrivalPredictor::new(opts);
            let mut now = 0.0;
            // Calm sojourn: 200 arrivals at mean gap 10 ms.
            for _ in 0..200 {
                now += rng.exp_gap(10.0);
                pred.observe_arrival(now);
                assert_ne!(pred.state(), ArrivalState::Burst, "burst before onset, seed {seed}");
            }
            // Burst sojourn: 5x the rate. Detection lag must be bounded
            // by ~2 burst windows of arrivals.
            let mut lag = None;
            for k in 0..200 {
                now += rng.exp_gap(2.0);
                if pred.observe_arrival(now) == ArrivalState::Burst {
                    lag = Some(k + 1);
                    break;
                }
            }
            let lag = lag.expect("burst never detected");
            assert!(lag <= 2 * opts.burst_window, "lag {lag} too large, seed {seed}");
            // Back to calm: once the windows flush the sojourn, the
            // state must fully decay (the baseline is still near 10).
            for _ in 0..200 {
                now += rng.exp_gap(10.0);
                pred.observe_arrival(now);
            }
            assert_eq!(pred.state(), ArrivalState::Calm, "burst never cleared, seed {seed}");
        }
    }

    #[test]
    fn predictor_flags_diurnal_crest_as_elevated_not_burst() {
        // Seeded diurnal ramp: gaps modulated by a slow sinusoid, crest
        // rate ~2.2x the long-run (harmonic-mean) rate. The trend window
        // must read the crest as Elevated; the burst detector — which
        // compares the short window against the *trend* window, both of
        // which ride the ramp together — must stay quiet throughout.
        let opts = PredictorOptions::default();
        let mut pred = ArrivalPredictor::new(opts);
        let mut rng = SplitMix(0xD1);
        let mut now = 0.0;
        let period = 600;
        let mut saw_elevated = false;
        for i in 0..3 * period {
            let phase = 2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64;
            // Rate swings between 0.5x and 2.5x the midpoint rate.
            let rate_scale = 1.5 - phase.cos();
            let mean_gap = 10.0 / rate_scale;
            now += rng.exp_gap(mean_gap);
            let state = pred.observe_arrival(now);
            assert_ne!(state, ArrivalState::Burst, "diurnal crest misread as burst at {i}");
            if state == ArrivalState::Elevated {
                saw_elevated = true;
            }
        }
        assert!(saw_elevated, "diurnal crest never detected");
    }

    #[test]
    fn predictor_is_deterministic_and_boost_is_monotone() {
        let run = || {
            let mut rng = SplitMix(7);
            let mut pred = ArrivalPredictor::new(PredictorOptions::default());
            let mut now = 0.0;
            let mut states = Vec::new();
            for i in 0..400 {
                let mean = if (100..180).contains(&i) { 2.0 } else { 10.0 };
                now += rng.exp_gap(mean);
                states.push(pred.observe_arrival(now));
            }
            (states, pred.transitions())
        };
        assert_eq!(run(), run(), "predictor is not deterministic");
        assert!(ArrivalState::Calm.boost() < ArrivalState::Elevated.boost());
        assert!(ArrivalState::Elevated.boost() < ArrivalState::Burst.boost());
    }

    #[test]
    fn predictor_boost_decays_on_silence() {
        let mut pred = ArrivalPredictor::new(PredictorOptions::default());
        let mut now = 0.0;
        for _ in 0..64 {
            now += 10.0;
            pred.observe_arrival(now);
        }
        for _ in 0..32 {
            now += 1.0;
            pred.observe_arrival(now);
        }
        assert_eq!(pred.state(), ArrivalState::Burst);
        assert_eq!(pred.boost_at(now), 1.0);
        // One long-run mean gap of silence zeroes the feed-forward even
        // though no arrival has advanced the state machine.
        assert_eq!(pred.boost_at(now + 100.0), 0.0);
        assert_eq!(pred.state(), ArrivalState::Burst);
    }

    #[test]
    fn degradation_depth_is_ordered_across_tiers() {
        let mut pol = policy(TenantOptions::default());
        let mut now = 0.0;
        for step in 0..40 {
            now += pol.dwell_ms().max(1.0) + 1.0;
            let signals = if step % 7 < 5 { hot(now) } else { cold(now) };
            pol.observe(&signals);
            let lc = pol.level(TenantTier::LatencyCritical);
            let st = pol.level(TenantTier::Standard);
            let be = pol.level(TenantTier::BestEffort);
            assert!(lc <= st && st <= be, "ordering violated: {lc} {st} {be}");
        }
    }

    #[test]
    fn best_effort_degrades_first_and_recovers_last() {
        // Default shield 1.5 biases the base 0.4/0.15 band per tier:
        // degrade at 0.267 (BE) / 0.4 (Std) / 0.6 (LC), upgrade at
        // 0.1 / 0.15 / 0.225. Pressures *between* tier thresholds move
        // only the outer tiers.
        let mut pol = policy(TenantOptions::default());
        let dwell = pol.dwell_ms().max(1.0);
        let mut now = 0.0;
        // Mild pressure (0.3): above BE's degrade threshold only.
        now += dwell + 1.0;
        let events = pol.observe(&TierSignals::uniform(signal_at(now, 9.6, 0.0)));
        assert_eq!(events.len(), 1);
        assert_eq!(pol.level(TenantTier::BestEffort), 1);
        assert_eq!(pol.level(TenantTier::Standard), 0, "mild pressure spares standard");
        assert_eq!(pol.level(TenantTier::LatencyCritical), 0);
        // Saturated pressure pins everyone at max (ordering preserved).
        for _ in 0..20 {
            now += dwell + 1.0;
            pol.observe(&hot(now));
        }
        let max = pol.level(TenantTier::BestEffort);
        assert!(max > 0);
        assert_eq!(pol.level(TenantTier::LatencyCritical), max);
        // Partial recovery (0.2): below LC's upgrade threshold only —
        // latency-critical rises first, best-effort recovers last.
        now += dwell + 1.0;
        pol.observe(&TierSignals::uniform(signal_at(now, 6.4, 0.0)));
        assert_eq!(pol.level(TenantTier::LatencyCritical), max - 1);
        assert_eq!(pol.level(TenantTier::Standard), max);
        assert_eq!(pol.level(TenantTier::BestEffort), max, "best-effort must recover last");
    }

    #[test]
    fn zero_pressure_and_no_predictor_is_identity() {
        let table = make_table(5);
        let mut pol = TenantPolicy::new(&table, Policy::StrictAccuracy, TenantOptions::default());
        let mut now = 0.0;
        for _ in 0..10 {
            now += pol.dwell_ms().max(1.0) + 1.0;
            assert!(pol.observe(&cold(now)).is_empty());
        }
        for tier in TenantTier::ALL {
            assert_eq!(pol.level(tier), 0);
        }
        let q = Query::new(1, 0.77, 100.0);
        for tier in TenantTier::ALL {
            assert_eq!(pol.shape(tier, &q, &table, EMPTY_COLUMN), q);
        }
    }

    #[test]
    fn predictor_pre_degrades_best_effort_before_queue_builds() {
        let opts = TenantOptions::default()
            .with_predictor(Some(PredictorOptions::default()))
            .with_tier(1, TenantTier::BestEffort);
        let mut pol = policy(opts);
        let dwell = pol.dwell_ms().max(1.0);
        // Calm arrivals establish the baseline.
        let mut now = 0.0;
        for _ in 0..64 {
            now += 10.0;
            pol.observe_arrival(TenantTier::BestEffort, now);
        }
        // Burst onset: queue still empty (idle signal) but the predictor
        // sees the rate jump and pre-degrades best-effort.
        for _ in 0..32 {
            now += 1.0;
            pol.observe_arrival(TenantTier::BestEffort, now);
        }
        now += dwell + 1.0;
        let events = pol.observe(&cold(now));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tier, TenantTier::BestEffort);
        assert_eq!(pol.level(TenantTier::BestEffort), 1);
        assert_eq!(pol.level(TenantTier::LatencyCritical), 0);
    }

    #[test]
    fn batch_cap_follows_deepest_tier() {
        let mut pol = policy(TenantOptions::default());
        assert_eq!(pol.batch_cap(8), 8);
        let mut now = pol.dwell_ms().max(1.0) + 1.0;
        pol.observe(&hot(now));
        assert_eq!(pol.level(TenantTier::BestEffort), 1);
        assert_eq!(pol.batch_cap(8), 4);
        now += pol.dwell_ms().max(1.0) + 1.0;
        pol.observe(&cold(now));
        assert_eq!(pol.batch_cap(8), 8);
    }

    #[test]
    fn tier_names_round_trip_and_tenancy_defaults_to_standard() {
        for tier in TenantTier::ALL {
            assert_eq!(TenantTier::from_name(tier.name()), Some(tier));
        }
        assert_eq!(TenantTier::from_name("premium"), None);
        let opts = TenantOptions::default().with_tier(0, TenantTier::LatencyCritical);
        assert_eq!(opts.tier_of(0), TenantTier::LatencyCritical);
        assert_eq!(opts.tier_of(7), TenantTier::Standard);
        assert_eq!(opts.tier_of(999), TenantTier::Standard);
        // Untiered options map everyone to Standard until a tier is named.
        let global = TenantOptions::global(AdaptiveOptions::default());
        assert_eq!(global.tier_of(0), TenantTier::Standard);
        assert!(!policy(global).is_tiered());
        let named = global.with_tier(1, TenantTier::BestEffort);
        assert_eq!(named.tier_of(1), TenantTier::BestEffort);
        assert!(policy(named).is_tiered());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(TenantOptions::default().validate().is_ok());
        assert!(TenantOptions::default().with_shield(0.5).validate().is_err());
        assert!(TenantOptions::default().with_shield(f64::NAN).validate().is_err());
        let mut p = PredictorOptions::default();
        p.burst_exit = 3.5; // above burst_enter: no hysteresis band
        assert!(TenantOptions::default().with_predictor(Some(p)).validate().is_err());
        let mut p = PredictorOptions::default();
        p.trend_enter = 0.9; // a ratio <= 1 can never mean "load is up"
        assert!(p.validate().is_err());
        let mut p = PredictorOptions::default();
        p.warmup = 4; // shorter than the burst window
        assert!(p.validate().is_err());
    }
}
