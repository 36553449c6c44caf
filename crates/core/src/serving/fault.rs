//! Deterministic fault injection for the serving simulator, and each
//! serving call's replica clocks.
//!
//! [`FaultOptions`] seeds a per-replica fault plan — everything is drawn
//! from [`sushi_tensor::DetRng`] streams derived from one seed, so a
//! `(stream, config, seed)` triple replays the exact same crashes,
//! straggler episodes, and transient errors on every platform:
//!
//! * **Crash** — a replica fail-stops at a drawn instant (enacted at the
//!   next batch boundary: an in-flight batch completes, then the replica
//!   dies), losing its Persistent-Buffer resident SubGraph
//!   (`ExecutorPool::crash_worker`). With a
//!   non-zero outage mean it restarts after a drawn outage window and
//!   re-enters cold (`Warming` under supervision); with a zero mean the
//!   crash is permanent.
//! * **Straggler** — a replica's service time is multiplied by
//!   [`FaultOptions::straggler_factor`] over a drawn episode window (the
//!   runtime answers each dispatch's scale; the pool keeps none).
//! * **Transient** — a dispatched batch fails with a retryable error after
//!   burning its service time; supervision re-admits the batch's queries
//!   with backoff, an unsupervised pool drops them.
//!
//! Replica health is a supervised-only state machine
//! `Healthy → Suspect → Quarantined → Warming → Healthy`, driven by
//! consecutive failures and straggler detection (per-replica EWMA service
//! time vs. the pool median). The serving loop asks the runtime whether a
//! replica is free and how warm its cache is: it never routes to a
//! `Quarantined` (or down) replica, and treats a `Warming` replica's cache
//! as cold until a re-install completes (a `Suspect` replica's cache
//! still counts as warm).
//!
//! Supervision ([`FaultOptions::supervised`]) is one switch. Its retry,
//! hedge and quarantine thresholds are this module's private constants,
//! so every supervised run enacts the same policy.
//!
//! [`crate::serving::sim::SimConfig::faults`] `None` is not a separate
//! path: the serving loop runs the *empty plan* — every rate zero, no
//! supervisor — which draws no RNG by construction (a zero MTBF never
//! schedules an event and a zero transient rate returns before rolling),
//! so a fault-free run is the same loop with nothing to enact.
//!
//! The runtime is also where a call's time lives. Each replica's busy
//! clock starts at `0.0` when [`crate::engine::Engine::serve_timed`] builds
//! the runtime and goes when the call returns, so no call can inherit
//! another's clock; the executor pool keeps only the SubGraph-Stationary
//! state an engine carries across calls.

use std::collections::{HashMap, VecDeque};

use sushi_sched::TIER_COUNT;
use sushi_tensor::DetRng;

use crate::error::SushiError;
use crate::serving::executor::{DispatchReport, Dispatched, ExecutorPool, PlannedBatch};
use crate::serving::queue::{AdmissionQueue, DropPolicy, DropReason, DroppedQuery, QueuedQuery};
use crate::serving::sim::p99;

/// Hedge service-time window: bounded count (not time) — service times are
/// level-independent, so aging by count is enough and keeps the fault path
/// allocation-free in steady state.
const HEDGE_WINDOW: usize = 64;
/// Completions observed before hedging arms: an empty/noisy p99 estimate
/// must not fire duplicates at the start of a run.
const HEDGE_WARMUP: usize = 16;
/// Hedge a batch whose service time exceeds this multiple of the recent
/// p99 service time.
const HEDGE_P99_FACTOR: f64 = 2.0;
/// Never hedge a batch faster than this, ms (keeps hedging off the fast
/// path even when the p99 window is tiny).
const HEDGE_MIN_MS: f64 = 1.0;

/// Total attempts per query, the initial dispatch included.
const RETRY_MAX_ATTEMPTS: u32 = 3;
/// Backoff before attempt `n + 1` is `RETRY_BASE_BACKOFF_MS * 2^(n-1)`,
/// scaled by a seeded jitter factor in `[1 - RETRY_JITTER, 1 + RETRY_JITTER]`.
const RETRY_BASE_BACKOFF_MS: f64 = 1.0;
/// Jitter fraction of each backoff (see [`RETRY_BASE_BACKOFF_MS`]).
const RETRY_JITTER: f64 = 0.25;
/// Run-long retry budget per tenant tier, indexed by
/// [`sushi_sched::TenantTier::index`]. A tier whose budget is spent drops
/// further failed queries instead of retrying, so best-effort retries
/// never starve latency-critical capacity.
const RETRY_TIER_BUDGETS: [usize; TIER_COUNT] = [usize::MAX, 256, 64];

/// Consecutive batch failures that quarantine a replica.
const QUARANTINE_FAILURES: u32 = 2;
/// A completion is a straggler strike when the replica's EWMA service
/// time exceeds this multiple of the pool median.
const STRAGGLER_RATIO: f64 = 2.5;
/// Straggler strikes that quarantine a replica.
const STRAGGLER_STRIKES: u32 = 3;
/// How long a quarantined replica sits out before re-entering as
/// `Warming`, ms.
const PROBATION_MS: f64 = 50.0;
/// Smoothing factor of the per-replica service-time EWMA.
const EWMA_ALPHA: f64 = 0.3;

/// Backoff before attempt `attempt + 1` (so `attempt >= 1`), ms:
/// exponential in the attempt number with deterministic jitter keyed by
/// `salt` (the serving loop salts with the query identity, so every query
/// jitters differently but reproducibly).
fn backoff_ms(attempt: u32, salt: u64) -> f64 {
    debug_assert!(attempt >= 1, "backoff follows a completed attempt");
    let exp = 2.0f64.powi(attempt.saturating_sub(1).min(30) as i32);
    let unit = DetRng::new(salt).next_f64();
    RETRY_BASE_BACKOFF_MS * exp * (1.0 - RETRY_JITTER + 2.0 * RETRY_JITTER * unit)
}

/// Fault-injection knobs, written as a struct literal over [`Default`]
/// and set through [`crate::serving::sim::SimConfig::faults`]. All
/// processes are off by default; supervision defaults to on, so enabling
/// a fault process exercises the supervised pool unless the plan sets
/// `supervised: false` (the ablation baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultOptions {
    /// Seed for every fault-plan RNG stream (independent of the arrival
    /// and query seeds). Default `0xFA17`.
    pub seed: u64,
    /// Mean time between crashes per replica, ms (exponential inter-event
    /// times; `0.0` disables crashes). Default `0.0`.
    pub crash_mtbf_ms: f64,
    /// Mean outage before a crashed replica restarts, ms (`0.0` makes
    /// crashes permanent). Default `0.0`.
    pub crash_outage_ms: f64,
    /// Mean time between straggler episodes per replica, ms (`0.0`
    /// disables). Default `0.0`.
    pub straggler_mtbf_ms: f64,
    /// Mean straggler episode duration, ms. Default `0.0`.
    pub straggler_duration_ms: f64,
    /// Service-time multiplier during a straggler episode (`>= 1`).
    /// Default `1.0`.
    pub straggler_factor: f64,
    /// Probability that a dispatched batch fails with a retryable error,
    /// in `[0, 1)`. Default `0.0`.
    pub transient_rate: f64,
    /// Whether the serving loop supervises the pool: retries transient
    /// failures with backoff under per-tier budgets, hedges slow batches,
    /// and quarantines failing or straggling replicas. `false` leaves
    /// faults injected but unsupervised. Default `true`.
    pub supervised: bool,
}

impl Default for FaultOptions {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            crash_mtbf_ms: 0.0,
            crash_outage_ms: 0.0,
            straggler_mtbf_ms: 0.0,
            straggler_duration_ms: 0.0,
            straggler_factor: 1.0,
            transient_rate: 0.0,
            supervised: true,
        }
    }
}

impl FaultOptions {
    /// Validates the options.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("crash mtbf", self.crash_mtbf_ms),
            ("crash outage", self.crash_outage_ms),
            ("straggler mtbf", self.straggler_mtbf_ms),
            ("straggler duration", self.straggler_duration_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("fault {name} must be finite and >= 0 ms, got {v}"));
            }
        }
        if !self.straggler_factor.is_finite() || self.straggler_factor < 1.0 {
            return Err(format!(
                "straggler factor must be finite and >= 1, got {}",
                self.straggler_factor
            ));
        }
        if self.straggler_mtbf_ms > 0.0 && self.straggler_duration_ms <= 0.0 {
            return Err("straggler episodes need a positive mean duration".into());
        }
        if !self.transient_rate.is_finite() || !(0.0..1.0).contains(&self.transient_rate) {
            return Err(format!("transient rate must be in [0, 1), got {}", self.transient_rate));
        }
        Ok(())
    }
}

/// Replica health as the supervisor sees it.
///
/// `Healthy → Suspect` on a first failure or straggler strike;
/// `Suspect → Quarantined` when consecutive failures or strikes cross
/// their thresholds; `Quarantined → Warming` after probation;
/// `Warming → Healthy` on the first clean completion (a failure while
/// warming re-quarantines). A crashed replica sits out via its up/down
/// state; it re-enters as `Warming` (cold cache) when it restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ReplicaHealth {
    /// In rotation, no strikes outstanding.
    #[default]
    Healthy,
    /// In rotation, but its last completion failed or straggled.
    Suspect,
    /// Out of rotation until probation expires.
    Quarantined,
    /// Back in rotation after quarantine or a restart; its cache is
    /// treated as cold until a re-install completes, and its first
    /// completion decides whether it returns to `Healthy`.
    Warming,
}

/// What fault injection and supervision did over one run (in
/// [`crate::serving::sim::SimResult::faults`], present exactly when
/// [`crate::serving::sim::SimConfig::faults`] is set).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSummary {
    /// Crashes enacted.
    pub crashes: usize,
    /// Per-replica downtime, ms (indexed by worker; still-down replicas
    /// are accounted up to the makespan).
    pub downtime_ms: Vec<f64>,
    /// Dispatched batches that failed with an injected transient error.
    pub transient_failures: usize,
    /// Queries re-admitted by the retry policy.
    pub retries: usize,
    /// Batches duplicated onto a backup replica.
    pub hedges: usize,
    /// Hedged batches where the backup finished first.
    pub hedges_won: usize,
    /// Transitions into quarantine (crash downtime is tracked separately
    /// in `downtime_ms`).
    pub quarantines: usize,
    /// Pending cache installs applied to a replica that had lost its PB
    /// state to a crash (re-packs, accounted separately from the
    /// pack-once install count).
    pub cache_reinstalls: usize,
}

impl FaultSummary {
    /// Total downtime across the pool, ms.
    #[must_use]
    pub fn total_downtime_ms(&self) -> f64 {
        self.downtime_ms.iter().sum()
    }
}

/// Exponential draw with mean `mean_ms`, floored away from zero so
/// back-to-back events can never stall the event loop.
fn exp_draw(rng: &mut DetRng, mean_ms: f64) -> f64 {
    let u = rng.next_f64();
    (-mean_ms * (1.0 - u).ln()).max(mean_ms * 1e-6)
}

/// Per-replica run state: the busy clock and the fault plan.
#[derive(Debug, Clone)]
struct ReplicaFaults {
    /// When the replica's last dispatched batch completes, ms (`0.0`
    /// until its first dispatch of the run).
    busy_until_ms: f64,
    crash_rng: DetRng,
    straggle_rng: DetRng,
    /// Whether the replica is up (dispatchable, health permitting).
    up: bool,
    /// Next drawn crash instant (`INFINITY` when crashes are off).
    next_crash_ms: f64,
    /// Restart instant while down (`INFINITY` = permanent).
    down_until_ms: f64,
    /// When the current outage began (accounting).
    down_since_ms: f64,
    /// Next drawn straggler-episode start (`INFINITY` when off).
    next_straggle_ms: f64,
    /// End of the active straggler episode (`NEG_INFINITY` when idle).
    straggle_until_ms: f64,
    /// Supervised health state.
    health: ReplicaHealth,
    /// Probation end while quarantined.
    quarantine_until_ms: f64,
    /// Consecutive failed completions.
    consecutive_failures: u32,
    /// Consecutive straggling completions.
    straggler_strikes: u32,
    /// EWMA of per-batch service time, ms (`None` until the first
    /// completion).
    ewma_service_ms: Option<f64>,
}

/// One serving call's replica clocks, the run state enacting a
/// [`FaultOptions`] plan over an [`ExecutorPool`], and the supervisor's
/// own run state: retry attempts, per-tier retry budgets, backoff buffer
/// and hedge window. Built fresh by every
/// [`crate::engine::Engine::serve_timed`] call, so every run starts with
/// each replica free at `0.0` and replays the identical plan. Every run
/// has one; a fault-free run holds the empty plan, whose methods enact
/// nothing and draw nothing. Every clock write goes through
/// [`Self::occupy`] (a dispatch runs the clock to the batch's completion)
/// or [`Self::settle_hedge`] (a hedge's loser stops at the winner's
/// completion). It is also where the serving loop asks a replica the
/// questions that mix clocks and the pool's caches with up/down and
/// health: [`Self::free`], [`Self::free_warmth`], [`Self::release_ms`] and
/// [`Self::straggler_scale`].
#[derive(Debug, Clone)]
pub(crate) struct FaultRuntime {
    opts: FaultOptions,
    replicas: Vec<ReplicaFaults>,
    transient_rng: DetRng,
    pub(crate) summary: FaultSummary,
    /// Attempts so far per retried query, keyed by `(tenant, id)` because
    /// ids are only unique per tenant in a merged stream.
    attempts: HashMap<(u32, u64), u32>,
    tier_retry_budget: [usize; TIER_COUNT],
    /// Retried queries waiting out their backoff, with re-admission times.
    retry_buf: Vec<(QueuedQuery, f64)>,
    /// Recent committed service times (the hedge trigger's p99).
    hedge_window: VecDeque<f64>,
}

impl FaultRuntime {
    pub(crate) fn new(opts: FaultOptions, workers: usize) -> Self {
        let replicas = (0..workers as u64)
            .map(|w| {
                let mut crash_rng = DetRng::new(opts.seed ^ (w.wrapping_mul(0x9E37_79B9) | 1));
                let mut straggle_rng =
                    DetRng::new(opts.seed ^ 0x5742_6717 ^ (w.wrapping_mul(0x85EB_CA6B) | 1));
                let next_crash_ms = if opts.crash_mtbf_ms > 0.0 {
                    exp_draw(&mut crash_rng, opts.crash_mtbf_ms)
                } else {
                    f64::INFINITY
                };
                let next_straggle_ms = if opts.straggler_mtbf_ms > 0.0 {
                    exp_draw(&mut straggle_rng, opts.straggler_mtbf_ms)
                } else {
                    f64::INFINITY
                };
                ReplicaFaults {
                    busy_until_ms: 0.0,
                    crash_rng,
                    straggle_rng,
                    up: true,
                    next_crash_ms,
                    down_until_ms: f64::INFINITY,
                    down_since_ms: 0.0,
                    next_straggle_ms,
                    straggle_until_ms: f64::NEG_INFINITY,
                    health: ReplicaHealth::Healthy,
                    quarantine_until_ms: f64::NEG_INFINITY,
                    consecutive_failures: 0,
                    straggler_strikes: 0,
                    ewma_service_ms: None,
                }
            })
            .collect();
        Self {
            opts,
            replicas,
            transient_rng: DetRng::new(opts.seed ^ 0x7417_5EED),
            summary: FaultSummary { downtime_ms: vec![0.0; workers], ..FaultSummary::default() },
            attempts: HashMap::new(),
            tier_retry_budget: RETRY_TIER_BUDGETS,
            retry_buf: Vec::new(),
            hedge_window: VecDeque::new(),
        }
    }

    /// Enacts every fault event due at or before `now_ms`: crashes (at
    /// batch boundaries — an in-flight batch completes first), restarts,
    /// straggler episode starts/ends, and quarantine expiries. Call at the
    /// top of every event-loop step, before admissions and dispatch.
    pub(crate) fn advance(&mut self, now_ms: f64, pool: &mut ExecutorPool) {
        for w in 0..self.replicas.len() {
            // Crash / restart catch-up.
            loop {
                let r = &mut self.replicas[w];
                if !r.up {
                    if now_ms < r.down_until_ms {
                        break;
                    }
                    // Restart: account the outage, come back cold.
                    self.summary.downtime_ms[w] += r.down_until_ms - r.down_since_ms;
                    r.up = true;
                    if self.opts.supervised {
                        r.health = ReplicaHealth::Warming;
                        r.consecutive_failures = 0;
                        r.straggler_strikes = 0;
                    }
                    r.next_crash_ms =
                        r.down_until_ms + exp_draw(&mut r.crash_rng, self.opts.crash_mtbf_ms);
                    r.down_until_ms = f64::INFINITY;
                } else if now_ms >= r.next_crash_ms && r.busy_until_ms <= now_ms {
                    // Fail-stop at the batch boundary: the replica dies at
                    // its drawn instant, or when its in-flight batch
                    // completed — whichever is later.
                    let down_from = r.next_crash_ms.max(r.busy_until_ms);
                    r.up = false;
                    r.down_since_ms = down_from;
                    r.down_until_ms = if self.opts.crash_outage_ms > 0.0 {
                        down_from + exp_draw(&mut r.crash_rng, self.opts.crash_outage_ms)
                    } else {
                        f64::INFINITY
                    };
                    self.summary.crashes += 1;
                    pool.crash_worker(w);
                } else {
                    break;
                }
            }
            // Straggler episode catch-up.
            loop {
                let r = &mut self.replicas[w];
                if r.straggle_until_ms > f64::NEG_INFINITY && now_ms >= r.straggle_until_ms {
                    r.straggle_until_ms = f64::NEG_INFINITY;
                } else if r.straggle_until_ms == f64::NEG_INFINITY && now_ms >= r.next_straggle_ms {
                    let dur = exp_draw(&mut r.straggle_rng, self.opts.straggler_duration_ms);
                    r.straggle_until_ms = r.next_straggle_ms + dur;
                    r.next_straggle_ms = r.straggle_until_ms
                        + exp_draw(&mut r.straggle_rng, self.opts.straggler_mtbf_ms);
                } else {
                    break;
                }
            }
            // Quarantine expiry: probation served, re-enter warming.
            let r = &mut self.replicas[w];
            if r.up && r.health == ReplicaHealth::Quarantined && now_ms >= r.quarantine_until_ms {
                r.health = ReplicaHealth::Warming;
                r.consecutive_failures = 0;
                r.straggler_strikes = 0;
            }
        }
    }

    /// Whether replica `w` is up and not quarantined.
    fn dispatchable(&self, w: usize) -> bool {
        let r = &self.replicas[w];
        r.up && r.health != ReplicaHealth::Quarantined
    }

    /// Whether replica `w`'s resident cache may count as warm (a `Warming`
    /// replica is treated cold until its re-install completes).
    fn cache_warm(&self, w: usize) -> bool {
        self.dispatchable(w) && self.replicas[w].health != ReplicaHealth::Warming
    }

    /// Whether the serving loop may dispatch a batch to replica `w` at
    /// `now_ms`: up, not quarantined, and past its busy-until clock.
    pub(crate) fn free(&self, w: usize, now_ms: f64) -> bool {
        self.dispatchable(w) && self.busy_until_ms(w) <= now_ms
    }

    /// When replica `w` last became (or next becomes) idle, ms.
    pub(crate) fn busy_until_ms(&self, w: usize) -> f64 {
        self.replicas[w].busy_until_ms
    }

    /// Time the last replica finishes (the run's drain point).
    pub(crate) fn drain_ms(&self) -> f64 {
        self.replicas.iter().map(|r| r.busy_until_ms).fold(0.0, f64::max)
    }

    /// Runs `dispatch` on `plan`, a dispatch group starting at `now_ms`,
    /// then runs each planned replica's clock to its batch's completion,
    /// in plan order. A plan that names a replica still busy at `now_ms`
    /// is refused before `dispatch` runs, and a failed `dispatch` moves no
    /// clock.
    ///
    /// # Errors
    /// Returns [`SushiError::Internal`] for a busy replica, and whatever
    /// `dispatch` returns.
    pub(crate) fn occupy(
        &mut self,
        now_ms: f64,
        plan: &[PlannedBatch],
        dispatch: impl FnOnce(&[PlannedBatch]) -> Result<Vec<Dispatched>, SushiError>,
    ) -> Result<Vec<Dispatched>, SushiError> {
        if let Some(b) = plan.iter().find(|b| self.busy_until_ms(b.worker) > now_ms) {
            return Err(SushiError::Internal(format!("dispatch to busy worker {}", b.worker)));
        }
        let results = dispatch(plan)?;
        for (report, _) in &results {
            self.replicas[report.worker].busy_until_ms = report.completion_ms;
        }
        Ok(results)
    }

    /// Clamps replica `w`'s busy clock to at most `until_ms` (hedge
    /// cancellation: the losing replica abandons its duplicate batch the
    /// instant the winner's result lands).
    fn clamp_busy(&mut self, w: usize, until_ms: f64) {
        let r = &mut self.replicas[w];
        r.busy_until_ms = r.busy_until_ms.min(until_ms);
    }

    /// How warm each replica is for serving-set row `row` at `now_ms`:
    /// `None` for a replica that `skip` excludes or that is not
    /// [`Self::free`], else how much of the row's weights its resident
    /// SubGraph holds — `0` when its cache does not count as warm
    /// (`Warming`). The routing views and the hedge's backup pick both
    /// rank replicas by it.
    pub(crate) fn free_warmth(
        &self,
        pool: &ExecutorPool,
        now_ms: f64,
        row: usize,
        skip: impl Fn(usize) -> bool,
    ) -> Vec<Option<f64>> {
        (0..self.replicas.len())
            .map(|w| {
                let free = !skip(w) && self.free(w, now_ms);
                free.then(|| if self.cache_warm(w) { pool.overlap(w, row) } else { 0.0 })
            })
            .collect()
    }

    /// Service-time multiplier of a batch dispatched to replica `w` now:
    /// the straggler factor inside an episode, else `1.0`.
    pub(crate) fn straggler_scale(&self, w: usize) -> f64 {
        if self.replicas[w].straggle_until_ms > f64::NEG_INFINITY {
            self.opts.straggler_factor
        } else {
            1.0
        }
    }

    /// Replica `w`'s health state.
    #[cfg(test)]
    pub(crate) fn health(&self, w: usize) -> ReplicaHealth {
        self.replicas[w].health
    }

    /// Fraction of the pool that is down or quarantined — the capacity
    /// term of the adaptive pressure signal (`Warming` replicas count as
    /// available).
    pub(crate) fn unavailable_frac(&self) -> f64 {
        let n = self.replicas.len();
        let out = (0..n).filter(|&w| !self.dispatchable(w)).count();
        out as f64 / n.max(1) as f64
    }

    /// When replica `w` can next accept a batch: its busy-until clock
    /// while dispatchable, its restart (or never, if the crash is
    /// permanent) while down, and its probation end while quarantined.
    pub(crate) fn release_ms(&self, w: usize) -> f64 {
        let r = &self.replicas[w];
        if !r.up {
            return r.down_until_ms;
        }
        if r.health == ReplicaHealth::Quarantined {
            return r.quarantine_until_ms.max(r.busy_until_ms);
        }
        r.busy_until_ms
    }

    /// Rolls the per-batch transient-failure coin (one draw per primary
    /// dispatch, in dispatch order — deterministic).
    pub(crate) fn roll_transient(&mut self) -> bool {
        if self.opts.transient_rate <= 0.0 {
            return false;
        }
        let failed = self.transient_rng.next_f64() < self.opts.transient_rate;
        if failed {
            self.summary.transient_failures += 1;
        }
        failed
    }

    /// Records a failed completion on replica `w` at `at_ms` and steps the
    /// health machine (supervised runs only).
    pub(crate) fn note_failure(&mut self, w: usize, at_ms: f64) {
        if !self.opts.supervised {
            return;
        }
        let r = &mut self.replicas[w];
        r.consecutive_failures += 1;
        if r.health == ReplicaHealth::Warming || r.consecutive_failures >= QUARANTINE_FAILURES {
            Self::quarantine_replica(r, at_ms, &mut self.summary);
        } else {
            r.health = ReplicaHealth::Suspect;
        }
    }

    /// Records a successful completion of `service_ms` on replica `w` at
    /// `at_ms`: feeds the straggler detector (EWMA vs. pool median) and
    /// steps the health machine (supervised runs only).
    pub(crate) fn note_success(&mut self, w: usize, service_ms: f64, at_ms: f64) {
        if !self.opts.supervised {
            return;
        }
        {
            let r = &mut self.replicas[w];
            r.consecutive_failures = 0;
            r.ewma_service_ms = Some(match r.ewma_service_ms {
                None => service_ms,
                Some(prev) => EWMA_ALPHA * service_ms + (1.0 - EWMA_ALPHA) * prev,
            });
        }
        let median = self.pool_median_service_ms();
        let r = &mut self.replicas[w];
        let straggling = median
            .is_some_and(|m| m > 0.0 && r.ewma_service_ms.unwrap_or(0.0) > STRAGGLER_RATIO * m);
        if straggling {
            r.straggler_strikes += 1;
            if r.straggler_strikes >= STRAGGLER_STRIKES {
                Self::quarantine_replica(r, at_ms, &mut self.summary);
                // A quarantined straggler re-enters with a clean slate:
                // its stale EWMA would instantly re-strike it otherwise.
                r.ewma_service_ms = None;
            } else if r.health == ReplicaHealth::Healthy {
                r.health = ReplicaHealth::Suspect;
            }
        } else {
            r.straggler_strikes = 0;
            if matches!(r.health, ReplicaHealth::Suspect | ReplicaHealth::Warming) {
                r.health = ReplicaHealth::Healthy;
            }
        }
    }

    /// Settles a batch that failed transiently on `worker` at `at_ms`: the
    /// health machine takes the failure, and each query is re-queued after
    /// its backoff under its tier's budget — or dropped, as
    /// `DeadlineLapsed` when a deadline-aware queue could not even restart
    /// it in time, else as `RetryBudgetExhausted` (always, unsupervised).
    pub(crate) fn retry_or_drop(
        &mut self,
        worker: usize,
        at_ms: f64,
        batch: &[QueuedQuery],
        drop_policy: DropPolicy,
        dropped: &mut Vec<DroppedQuery>,
    ) {
        self.note_failure(worker, at_ms);
        for q in batch {
            let key = (q.timed.tenant, q.timed.query.id);
            let attempt = self.attempts.get(&key).copied().unwrap_or(1);
            let budget = &mut self.tier_retry_budget[q.tier.index()];
            let retry_at = (self.opts.supervised && attempt < RETRY_MAX_ATTEMPTS && *budget > 0)
                .then(|| {
                    let salt = q.timed.query.id
                        ^ (u64::from(q.timed.tenant) << 32)
                        ^ (u64::from(attempt) << 48);
                    at_ms + backoff_ms(attempt, salt)
                });
            let reason = match retry_at {
                Some(ready_ms)
                    if drop_policy == DropPolicy::DeadlineAware
                        && ready_ms > q.timed.deadline_ms() =>
                {
                    DropReason::DeadlineLapsed
                }
                Some(ready_ms) => {
                    *budget = budget.saturating_sub(1);
                    self.attempts.insert(key, attempt + 1);
                    self.summary.retries += 1;
                    self.retry_buf.push((*q, ready_ms));
                    continue;
                }
                None => DropReason::RetryBudgetExhausted,
            };
            dropped.push(q.dropped(reason));
        }
    }

    /// Re-offers every retry whose backoff has elapsed by `now_ms` to the
    /// shared queue, where it competes for capacity like any arrival (and
    /// can itself be shed).
    pub(crate) fn readmit_due(
        &mut self,
        now_ms: f64,
        queue: &mut AdmissionQueue,
        dropped: &mut Vec<DroppedQuery>,
    ) {
        let (due, waiting): (Vec<_>, Vec<_>) =
            self.retry_buf.drain(..).partition(|&(_, ready_ms)| ready_ms <= now_ms);
        self.retry_buf = waiting;
        for (qq, _) in due {
            dropped.extend(queue.offer(now_ms, qq));
        }
    }

    /// When the next waiting retry's backoff elapses (`INFINITY` if none).
    pub(crate) fn next_retry_ms(&self) -> f64 {
        self.retry_buf.iter().map(|&(_, ready_ms)| ready_ms).fold(f64::INFINITY, f64::min)
    }

    /// Empties the backoff buffer (queries a dead pool can never serve).
    pub(crate) fn take_retries(&mut self) -> impl Iterator<Item = QueuedQuery> + '_ {
        self.retry_buf.drain(..).map(|(qq, _)| qq)
    }

    /// Whether a batch that took `service_ms` ran far enough past the
    /// recent p99 service time to race a duplicate (never unsupervised,
    /// and never before the window has warmed up).
    pub(crate) fn should_hedge(&self, service_ms: f64) -> bool {
        self.opts.supervised
            && self.hedge_window.len() >= HEDGE_WARMUP
            && service_ms > HEDGE_MIN_MS
            && service_ms > HEDGE_P99_FACTOR * p99(self.hedge_window.iter().copied())
    }

    /// Settles a hedged race: first result wins, the loser's slot is
    /// reclaimed at that instant, and the loser's would-be service time
    /// still feeds the straggler detector. Returns whether the backup won.
    pub(crate) fn settle_hedge(
        &mut self,
        primary: &DispatchReport,
        backup: &DispatchReport,
    ) -> bool {
        let won = backup.completion_ms < primary.completion_ms;
        let (winner, loser) = if won { (backup, primary) } else { (primary, backup) };
        self.clamp_busy(loser.worker, winner.completion_ms);
        self.note_success(loser.worker, loser.completion_ms - loser.start_ms, winner.completion_ms);
        self.summary.hedges += 1;
        self.summary.hedges_won += usize::from(won);
        won
    }

    /// Records a committed batch: the health machine takes the success
    /// and its service time enters the hedge window.
    pub(crate) fn note_committed(&mut self, report: &DispatchReport) {
        let service_ms = report.completion_ms - report.start_ms;
        self.note_success(report.worker, service_ms, report.completion_ms);
        self.hedge_window.push_back(service_ms);
        if self.hedge_window.len() > HEDGE_WINDOW {
            self.hedge_window.pop_front();
        }
    }

    fn quarantine_replica(r: &mut ReplicaFaults, at_ms: f64, summary: &mut FaultSummary) {
        r.health = ReplicaHealth::Quarantined;
        r.quarantine_until_ms = at_ms + PROBATION_MS;
        r.straggler_strikes = 0;
        summary.quarantines += 1;
    }

    /// Median EWMA service time over up replicas with at least one sample
    /// (`None` until two replicas have history — one sample is its own
    /// median, which would self-diagnose the only active replica).
    fn pool_median_service_ms(&self) -> Option<f64> {
        let mut v: Vec<f64> =
            self.replicas.iter().filter(|r| r.up).filter_map(|r| r.ewma_service_ms).collect();
        if v.len() < 2 {
            return None;
        }
        v.sort_by(f64::total_cmp);
        Some(v[v.len() / 2])
    }

    /// Finalizes accounting at the simulation horizon and returns the
    /// run's fault summary (replicas still down at `makespan_ms` are
    /// charged up to it).
    pub(crate) fn finish(mut self, makespan_ms: f64) -> FaultSummary {
        for (w, r) in self.replicas.iter().enumerate() {
            if !r.up && makespan_ms > r.down_since_ms {
                self.summary.downtime_ms[w] += makespan_ms - r.down_since_ms;
            }
        }
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::executor::tests::{planned, toy_pool, Failing, Fixture};
    use crate::stream::TimedQuery;
    use sushi_accel::backend::{Analytical, ExecutionBackend};
    use sushi_sched::{Query, TenantTier};

    fn chaosy() -> FaultOptions {
        FaultOptions {
            crash_mtbf_ms: 100.0,
            crash_outage_ms: 50.0,
            straggler_mtbf_ms: 80.0,
            straggler_duration_ms: 40.0,
            straggler_factor: 3.0,
            transient_rate: 0.1,
            ..FaultOptions::default()
        }
    }

    /// Dispatches `plan` at `now_ms` on `f`'s pool through `rt`'s clocks,
    /// as the serving loop does.
    fn occupy(
        rt: &mut FaultRuntime,
        f: &mut Fixture,
        now_ms: f64,
        backend: &mut dyn ExecutionBackend,
        plan: &[PlannedBatch],
    ) -> Result<Vec<Dispatched>, SushiError> {
        rt.occupy(now_ms, plan, |plan| f.group(now_ms, backend, plan))
    }

    /// A fault-free run's runtime over `workers` replicas.
    fn clocks(workers: usize) -> FaultRuntime {
        FaultRuntime::new(FaultOptions::default(), workers)
    }

    #[test]
    fn free_worker_query_reports_availability() {
        let rt = clocks(3);
        assert!((0..3).all(|w| rt.busy_until_ms(w) == 0.0), "fresh replicas are free at 0");
        assert!((0..3).all(|w| rt.free(w, 0.0)));
        assert_eq!(rt.drain_ms(), 0.0);
    }

    #[test]
    fn dispatch_advances_worker_clock() {
        let (mut rt, mut f) = (clocks(2), Fixture::new(2));
        let plan = [planned(0, 0, &[0, 1, 2, 3])];
        let (d, outputs) = occupy(&mut rt, &mut f, 5.0, &mut Analytical, &plan).unwrap().remove(0);
        assert!(outputs.is_none(), "analytical backend produces no outputs");
        assert_eq!(d.start_ms, 5.0);
        assert!(d.completion_ms > 5.0);
        assert_eq!(rt.busy_until_ms(0), d.completion_ms);
        assert_eq!(rt.busy_until_ms(1), 0.0, "the other replica stays free");
        assert_eq!((d.worker, d.swap_ms, d.reinstall), (0, 0.0, false), "no install, no swap");
        assert_eq!(rt.drain_ms(), d.completion_ms);
        assert!(!rt.free(0, 5.0) && rt.free(0, d.completion_ms));
    }

    #[test]
    fn clamp_busy_only_moves_the_clock_earlier() {
        let (mut rt, mut f) = (clocks(1), Fixture::new(1));
        let plan = [planned(0, 0, &[0])];
        let (d, _) = occupy(&mut rt, &mut f, 0.0, &mut Analytical, &plan).unwrap().remove(0);
        rt.clamp_busy(0, d.completion_ms + 100.0);
        assert_eq!(rt.busy_until_ms(0), d.completion_ms, "clamp never extends");
        rt.clamp_busy(0, d.completion_ms / 2.0);
        assert_eq!(rt.busy_until_ms(0), d.completion_ms / 2.0);
    }

    #[test]
    fn dispatch_to_a_busy_or_repeated_worker_is_an_error() {
        let (mut rt, mut f) = (clocks(2), Fixture::new(2));
        let b = &mut Analytical;
        let (d, _) = occupy(&mut rt, &mut f, 0.0, b, &[planned(0, 0, &[0])]).unwrap().remove(0);
        let err = occupy(&mut rt, &mut f, 0.0, b, &[planned(0, 0, &[1])]).unwrap_err();
        assert!(matches!(err, SushiError::Internal(_)), "{err}");
        let twice = [planned(1, 0, &[2]), planned(1, 1, &[3])];
        let err = occupy(&mut rt, &mut f, 0.0, b, &twice).unwrap_err();
        assert!(matches!(err, SushiError::Internal(_)), "{err}");
        // A rejected plan dispatches nothing: no clock moves.
        assert_eq!(rt.busy_until_ms(0), d.completion_ms);
        assert_eq!(rt.busy_until_ms(1), 0.0);
    }

    #[test]
    fn a_failed_dispatch_moves_no_clock() {
        let (mut failed, mut clean) = (clocks(2), clocks(2));
        let (mut failed_pool, mut clean_pool) = (Fixture::new(2), Fixture::new(2));
        let plan = [planned(0, 0, &[0]), planned(1, 1, &[1])];
        let err = occupy(&mut failed, &mut failed_pool, 0.0, &mut Failing, &plan).unwrap_err();
        assert!(matches!(err, SushiError::Backend(_)), "{err}");
        for w in 0..2 {
            assert_eq!(failed.busy_until_ms(w), clean.busy_until_ms(w));
        }
        let after_failure = occupy(&mut failed, &mut failed_pool, 0.0, &mut Analytical, &plan);
        let never_failed = occupy(&mut clean, &mut clean_pool, 0.0, &mut Analytical, &plan);
        assert_eq!(after_failure.unwrap(), never_failed.unwrap(), "the plan still dispatches");
        for w in 0..2 {
            assert_eq!(failed.busy_until_ms(w), clean.busy_until_ms(w), "same clocks");
        }
    }

    #[test]
    fn defaults_validate_and_inject_nothing() {
        let opts = FaultOptions::default();
        assert_eq!(opts.validate(), Ok(()));
        let mut rt = FaultRuntime::new(opts, 2);
        let mut pool = toy_pool(2);
        rt.advance(1e6, &mut pool);
        assert!(rt.dispatchable(0) && rt.dispatchable(1));
        assert!(!rt.roll_transient());
        let s = rt.finish(1e6);
        assert_eq!(s, FaultSummary { downtime_ms: vec![0.0, 0.0], ..FaultSummary::default() });
    }

    #[test]
    fn invalid_knobs_are_rejected_with_context() {
        let complaint = |opts: FaultOptions| opts.validate().unwrap_err();
        assert!(complaint(FaultOptions { crash_mtbf_ms: -1.0, ..chaosy() }).contains("crash mtbf"));
        assert!(complaint(FaultOptions { straggler_factor: 0.5, ..chaosy() }).contains("factor"));
        assert!(complaint(FaultOptions { transient_rate: 1.0, ..chaosy() }).contains("transient"));
        let no_duration = FaultOptions { straggler_mtbf_ms: 10.0, ..FaultOptions::default() };
        assert!(complaint(no_duration).contains("duration"));
    }

    #[test]
    fn backoff_grows_exponentially_and_jitter_is_deterministic_and_bounded() {
        for salt in 0..64u64 {
            let b = backoff_ms(1, salt);
            assert!((0.75..=1.25).contains(&b), "jittered backoff {b} escaped its band");
            assert_eq!(b, backoff_ms(1, salt), "jitter must be pure in its salt");
            // The jitter factor is keyed by the salt alone, so each further
            // attempt doubles the backoff exactly.
            assert_eq!(backoff_ms(2, salt), 2.0 * b);
            assert_eq!(backoff_ms(3, salt), 4.0 * b);
        }
        // Distinct salts actually spread (not a constant function).
        assert_ne!(backoff_ms(1, 1), backoff_ms(1, 2));
    }

    #[test]
    fn tier_budgets_shield_latency_critical() {
        // One first-attempt failure per query, so only the tier budgets
        // stop retries: best-effort runs dry first, then standard, and
        // latency-critical never does.
        let mut rt = FaultRuntime::new(chaosy(), 1);
        let mut dropped = Vec::new();
        let mut retried = [0usize; TIER_COUNT];
        for (i, tier) in (0..300u64).flat_map(|i| TenantTier::ALL.map(|t| (i, t))) {
            let id = 3 * i + tier.index() as u64;
            let q = QueuedQuery {
                timed: TimedQuery::new(0.0, Query::new(id, 0.7, 1e9)),
                subnet_row: 0,
                tier,
            };
            let before = rt.summary.retries;
            rt.retry_or_drop(0, 0.0, &[q], DropPolicy::DropNewest, &mut dropped);
            retried[tier.index()] += rt.summary.retries - before;
        }
        assert_eq!(retried, [300, 256, 64]);
        assert!(dropped.iter().all(|d| d.reason == DropReason::RetryBudgetExhausted));
        assert_eq!(dropped.len(), (300 - 256) + (300 - 64));
    }

    #[test]
    fn fault_plan_is_deterministic_in_its_seed() {
        let opts = chaosy();
        let mut a = FaultRuntime::new(opts, 3);
        let mut b = FaultRuntime::new(opts, 3);
        let mut pa = toy_pool(3);
        let mut pb = toy_pool(3);
        for step in 0..200 {
            let now = step as f64 * 7.0;
            a.advance(now, &mut pa);
            b.advance(now, &mut pb);
            for w in 0..3 {
                assert_eq!(a.dispatchable(w), b.dispatchable(w), "t={now} w={w}");
                assert_eq!(a.health(w), b.health(w));
            }
            assert_eq!(a.roll_transient(), b.roll_transient());
        }
        assert_eq!(a.finish(1400.0), b.finish(1400.0));
        // A different seed yields a different plan.
        let mut c = FaultRuntime::new(FaultOptions { seed: 0xDEAD, ..opts }, 3);
        let mut pc = toy_pool(3);
        let mut diverged = false;
        let mut a2 = FaultRuntime::new(opts, 3);
        let mut pa2 = toy_pool(3);
        for step in 0..200 {
            let now = step as f64 * 7.0;
            c.advance(now, &mut pc);
            a2.advance(now, &mut pa2);
            diverged |= (0..3).any(|w| c.dispatchable(w) != a2.dispatchable(w));
        }
        assert!(diverged, "re-seeding the plan must change it");
    }

    #[test]
    fn crashes_enact_downtime_and_permanent_without_outage() {
        let opts =
            FaultOptions { crash_mtbf_ms: 20.0, crash_outage_ms: 30.0, ..FaultOptions::default() };
        let mut rt = FaultRuntime::new(opts, 1);
        let mut pool = toy_pool(1);
        let mut saw_down = false;
        let mut saw_restart = false;
        for step in 0..500 {
            rt.advance(step as f64, &mut pool);
            if !rt.dispatchable(0) {
                saw_down = true;
            } else if saw_down {
                saw_restart = true;
            }
        }
        assert!(saw_down && saw_restart, "crash/restart cycle should occur within 500 ms");
        let s = rt.finish(500.0);
        assert!(s.crashes >= 1);
        assert!(s.downtime_ms[0] > 0.0);

        // Zero outage mean: the first crash is forever.
        let mut perm =
            FaultRuntime::new(FaultOptions { crash_mtbf_ms: 20.0, ..FaultOptions::default() }, 1);
        let mut pool = toy_pool(1);
        for step in 0..500 {
            perm.advance(step as f64, &mut pool);
        }
        assert!(!perm.dispatchable(0));
        assert_eq!(perm.release_ms(0), f64::INFINITY);
        let s = perm.finish(500.0);
        assert_eq!(s.crashes, 1);
        assert!(s.downtime_ms[0] > 0.0 && s.downtime_ms[0] <= 500.0);
    }

    #[test]
    fn crash_waits_for_the_inflight_batch() {
        let opts = FaultOptions { crash_mtbf_ms: 10.0, ..FaultOptions::default() };
        let mut rt = FaultRuntime::new(opts, 1);
        let mut pool = toy_pool(1);
        // Find the drawn crash instant by probing a parallel runtime.
        let mut probe = FaultRuntime::new(opts, 1);
        let mut probe_pool = toy_pool(1);
        let mut crash_t = 0.0;
        for step in 0..10_000 {
            let now = step as f64 * 0.01;
            probe.advance(now, &mut probe_pool);
            if !probe.dispatchable(0) {
                crash_t = now;
                break;
            }
        }
        assert!(crash_t > 0.0, "crash should fire");
        // Simulate a batch in flight across the crash instant: the replica
        // survives until the batch boundary.
        let busy_until = crash_t + 5.0;
        rt.replicas[0].busy_until_ms = busy_until;
        rt.advance(crash_t + 1.0, &mut pool);
        assert!(rt.dispatchable(0), "fail-stop must wait for the batch boundary");
        rt.advance(busy_until, &mut pool);
        assert!(!rt.dispatchable(0), "replica dies once the batch completes");
    }

    #[test]
    fn straggler_episodes_set_and_clear_the_multiplier() {
        let opts = FaultOptions {
            straggler_mtbf_ms: 30.0,
            straggler_duration_ms: 20.0,
            straggler_factor: 4.0,
            ..FaultOptions::default()
        };
        let mut rt = FaultRuntime::new(opts, 1);
        let mut pool = toy_pool(1);
        let (mut saw_slow, mut saw_recover) = (false, false);
        for step in 0..1000 {
            rt.advance(step as f64, &mut pool);
            if rt.straggler_scale(0) > 1.0 {
                assert_eq!(rt.straggler_scale(0), 4.0, "the episode applies the plan's factor");
                saw_slow = true;
            } else if saw_slow {
                saw_recover = true;
            }
        }
        assert!(saw_slow && saw_recover, "episode should start and end within 1000 ms");
    }

    #[test]
    fn health_machine_walks_healthy_suspect_quarantined_warming_healthy() {
        // No injected crashes or stragglers: the walk below drives the
        // machine purely through note_failure/note_success, and a random
        // crash would pin a replica down (quarantine expiry requires an
        // up replica).
        let opts = FaultOptions { transient_rate: 0.1, ..FaultOptions::default() };
        let mut rt = FaultRuntime::new(opts, 2);
        let mut pool = toy_pool(2);
        assert_eq!(rt.health(0), ReplicaHealth::Healthy);
        rt.note_failure(0, 10.0);
        assert_eq!(rt.health(0), ReplicaHealth::Suspect);
        rt.note_failure(0, 12.0); // consecutive_failures hits the default threshold (2)
        assert_eq!(rt.health(0), ReplicaHealth::Quarantined);
        assert!(!rt.dispatchable(0));
        assert_eq!(rt.summary.quarantines, 1);
        // Probation (default 50 ms) expires → Warming, treated cold.
        rt.advance(12.0 + 50.0, &mut pool);
        assert_eq!(rt.health(0), ReplicaHealth::Warming);
        assert!(rt.dispatchable(0) && !rt.cache_warm(0));
        // A clean completion returns it to Healthy.
        rt.note_success(0, 5.0, 70.0);
        assert_eq!(rt.health(0), ReplicaHealth::Healthy);
        assert!(rt.cache_warm(0));
        // A failure while warming re-quarantines immediately.
        rt.note_failure(1, 5.0);
        rt.note_failure(1, 6.0);
        rt.advance(6.0 + 50.0, &mut pool);
        assert_eq!(rt.health(1), ReplicaHealth::Warming);
        rt.note_failure(1, 60.0);
        assert_eq!(rt.health(1), ReplicaHealth::Quarantined);
    }

    #[test]
    fn straggler_detection_quarantines_the_slow_replica() {
        let mut rt = FaultRuntime::new(chaosy(), 3);
        // Replicas 1 and 2 serve at ~5 ms; replica 0 at 10x the median.
        for round in 0..5 {
            let t = round as f64 * 10.0;
            rt.note_success(1, 5.0, t);
            rt.note_success(2, 5.0, t);
            rt.note_success(0, 50.0, t);
        }
        assert_eq!(rt.health(0), ReplicaHealth::Quarantined, "EWMA 10x the median must strike out");
        assert!(rt.summary.quarantines >= 1);
        assert_eq!(rt.health(1), ReplicaHealth::Healthy);
        assert_eq!(rt.health(2), ReplicaHealth::Healthy);
    }

    #[test]
    fn unsupervised_runs_have_no_health_machine() {
        let mut rt = FaultRuntime::new(FaultOptions { supervised: false, ..chaosy() }, 2);
        for _ in 0..10 {
            rt.note_failure(0, 1.0);
            rt.note_success(1, 100.0, 1.0);
            rt.note_success(0, 1.0, 1.0);
        }
        assert_eq!(rt.health(0), ReplicaHealth::Healthy);
        assert_eq!(rt.health(1), ReplicaHealth::Healthy);
        assert_eq!(rt.summary.quarantines, 0);
    }

    #[test]
    fn unavailable_frac_counts_down_and_quarantined() {
        let mut rt = FaultRuntime::new(chaosy(), 4);
        assert_eq!(rt.unavailable_frac(), 0.0);
        rt.note_failure(0, 1.0);
        rt.note_failure(0, 2.0);
        assert_eq!(rt.unavailable_frac(), 0.25);
    }
}
