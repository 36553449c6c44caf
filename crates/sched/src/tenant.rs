//! Tenancy: the priority tiers the load controller differentiates, and
//! the feed-forward arrival predictor it runs over best-effort traffic.
//!
//! * every tenant is assigned a [`TenantTier`]
//!   (`LatencyCritical | Standard | BestEffort`); the controller
//!   ([`crate::TenantPolicy`]) biases each tier's ladder thresholds by it
//!   and keeps the ladders ordered, so shedding accuracy always starts at
//!   the bottom of the priority order;
//! * an [`ArrivalPredictor`], run by every tiered controller, watches the
//!   best-effort tier's inter-arrival statistics and converts detected
//!   MMPP burst states / diurnal crests into a feed-forward pressure
//!   boost, pre-degrading best-effort traffic *before* the queue builds.

/// Number of tenant slots with an explicit tier assignment in
/// [`crate::TenantOptions`]. Tenant ids at or beyond this fall back to
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
    /// The neutral tier — its thresholds are the base thresholds.
    /// Tenants without an assignment land here.
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
}

// The `ArrivalPredictor`'s two detectors compare arrival rates at
// different horizons: the *burst* ratio divides the trend window's mean
// gap by the burst window's (a sharp rate jump relative to the recent
// past — an MMPP sojourn flip), while the *trend* ratio divides the
// long-run baseline gap by the trend window's (a slow drift above the
// long-run rate — a diurnal crest). `2.0` means "twice the reference
// rate". Each `*_EXIT` sits below its `*_ENTER`: the gap is the
// hysteresis band.

/// Sliding window (in arrivals) for burst detection. Short, so an MMPP
/// burst onset is seen within roughly one window.
const BURST_WINDOW: usize = 16;
/// Sliding window (in arrivals) for trend detection — diurnal ramps move
/// slowly, so this is several times `BURST_WINDOW`.
const TREND_WINDOW: usize = 64;
/// Arrivals observed before any state transition is allowed; keeps the
/// long-run baseline from being a handful of samples.
const WARMUP: usize = 32;
/// Rate ratio at or above which the predictor enters [`ArrivalState::Burst`].
const BURST_ENTER: f64 = 3.0;
/// Rate ratio below which it leaves `Burst`.
const BURST_EXIT: f64 = 2.0;
/// Trend-window rate ratio at or above which it enters
/// [`ArrivalState::Elevated`] (a diurnal crest).
const TREND_ENTER: f64 = 1.8;
/// Trend-window rate ratio below which it leaves `Elevated`.
const TREND_EXIT: f64 = 1.4;

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
#[derive(Debug, Clone, Default)]
pub struct ArrivalPredictor {
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
    /// Builds a predictor that has seen no arrivals.
    pub fn new() -> Self {
        Self::default()
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
            BURST_WINDOW,
            gap,
        );
        push_ring(
            &mut self.trend_ring,
            &mut self.trend_sum,
            &mut self.next_trend,
            TREND_WINDOW,
            gap,
        );
        if self.gap_count < WARMUP {
            return self.state;
        }
        let baseline = self.gap_sum / self.gap_count as f64;
        let trend_full = self.trend_ring.len() == TREND_WINDOW;
        let trend_mean = if trend_full { Some(self.trend_sum / TREND_WINDOW as f64) } else { None };
        let r_burst =
            trend_mean.and_then(|t| rate_ratio(t, &self.burst_ring, self.burst_sum, BURST_WINDOW));
        let r_trend = rate_ratio(baseline, &self.trend_ring, self.trend_sum, TREND_WINDOW);
        let next = match self.state {
            ArrivalState::Burst => {
                if let Some(r) = r_burst {
                    if r < BURST_EXIT {
                        match r_trend {
                            Some(rt) if rt >= TREND_ENTER => ArrivalState::Elevated,
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
                if matches!(r_burst, Some(r) if r >= BURST_ENTER) {
                    ArrivalState::Burst
                } else if matches!(r_trend, Some(r) if r < TREND_EXIT) {
                    ArrivalState::Calm
                } else {
                    ArrivalState::Elevated
                }
            }
            ArrivalState::Calm => {
                if matches!(r_burst, Some(r) if r >= BURST_ENTER) {
                    ArrivalState::Burst
                } else if matches!(r_trend, Some(r) if r >= TREND_ENTER) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::test_support::{subnet, synthetic_latency};
    use crate::table::{LatencyTable, EMPTY_COLUMN};
    use crate::{LoadSignal, Policy, Query, TenantOptions, TenantPolicy, TierSignals};

    /// A tier map with every tenant `Standard`: three ladders, one
    /// traffic class.
    fn all_standard() -> TenantOptions {
        TenantOptions::global().with_tier(0, TenantTier::Standard)
    }

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
            let mut pred = ArrivalPredictor::new();
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
        for seed in 1u64..=4 {
            let mut rng = SplitMix(0xB00 + seed);
            let mut pred = ArrivalPredictor::new();
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
            assert!(lag <= 2 * BURST_WINDOW, "lag {lag} too large, seed {seed}");
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
        let mut pred = ArrivalPredictor::new();
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
            let mut pred = ArrivalPredictor::new();
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
        let mut pred = ArrivalPredictor::new();
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
        let mut pol = policy(all_standard());
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
        // Shield 4 biases the base 0.4/0.15 band per tier: degrade at
        // 0.1 (BE) / 0.4 (Std) / 1.6 (LC, above any reachable pressure),
        // upgrade at 0.0375 / 0.15 / 0.6. Pressures *between* tier
        // thresholds move only the outer tiers.
        let mut pol = policy(all_standard());
        let dwell = pol.dwell_ms().max(1.0);
        let mut now = 0.0;
        // Mild pressure (0.3): above BE's degrade threshold only.
        now += dwell + 1.0;
        let events = pol.observe(&TierSignals::uniform(signal_at(now, 9.6, 0.0)));
        assert_eq!(events.len(), 1);
        assert_eq!(pol.level(TenantTier::BestEffort), 1);
        assert_eq!(pol.level(TenantTier::Standard), 0, "mild pressure spares standard");
        assert_eq!(pol.level(TenantTier::LatencyCritical), 0);
        // Saturated pressure pins best-effort and standard at max; the
        // latency-critical ladder never degrades.
        for _ in 0..20 {
            now += dwell + 1.0;
            pol.observe(&hot(now));
        }
        let max = pol.level(TenantTier::BestEffort);
        assert!(max > 0);
        assert_eq!(pol.level(TenantTier::Standard), max);
        assert_eq!(pol.level(TenantTier::LatencyCritical), 0, "shield 4 spares latency-critical");
        // Partial recovery (0.1): below Std's upgrade threshold only —
        // standard rises first, best-effort recovers last.
        now += dwell + 1.0;
        pol.observe(&TierSignals::uniform(signal_at(now, 3.2, 0.0)));
        assert_eq!(pol.level(TenantTier::Standard), max - 1);
        assert_eq!(pol.level(TenantTier::BestEffort), max, "best-effort must recover last");
    }

    #[test]
    fn zero_pressure_and_no_predictor_is_identity() {
        // Tiered, so the predictor runs, but it is fed no arrivals.
        let table = make_table(5);
        let mut pol = TenantPolicy::new(&table, Policy::StrictAccuracy, all_standard());
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
        let mut pol = policy(TenantOptions::global().with_tier(1, TenantTier::BestEffort));
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
        let mut pol = policy(all_standard());
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
        // Every label names exactly one tier (they key report rows).
        for tier in TenantTier::ALL {
            let named = TenantTier::ALL.into_iter().filter(|t| t.name() == tier.name());
            assert_eq!(named.collect::<Vec<_>>(), vec![tier]);
        }
        let opts = TenantOptions::global().with_tier(0, TenantTier::LatencyCritical);
        assert_eq!(opts.tier_of(0), TenantTier::LatencyCritical);
        assert_eq!(opts.tier_of(7), TenantTier::Standard);
        assert_eq!(opts.tier_of(999), TenantTier::Standard);
        // Untiered options map everyone to Standard until a tier is named.
        let global = TenantOptions::global();
        assert_eq!(global.tier_of(0), TenantTier::Standard);
        assert!(!policy(global).is_tiered());
        let named = global.with_tier(1, TenantTier::BestEffort);
        assert_eq!(named.tier_of(1), TenantTier::BestEffort);
        assert!(policy(named).is_tiered());
    }
}
