//! The deterministic discrete-event serving simulator.
//!
//! [`ServingSim`] wraps the SUSHI stack — `SushiSched` decisions enacted on
//! an [`ExecutorPool`] of accelerator replicas — in an open-loop event
//! loop over a [`TimedQuery`] stream. It is the run state behind
//! [`crate::engine::Engine::serve_timed`]:
//!
//! 1. **Admission.** Each arrival is scheduled immediately
//!    (`Scheduler::decide`, in arrival order, so the AvgNet state stream is
//!    reproducible) and enqueued tagged with its SubNet row; the bounded
//!    [`AdmissionQueue`] sheds load per its [`DropPolicy`]. Cache decisions
//!    are *routed*: the next dispatched batch's worker installs the new
//!    SubGraph and its swap time lands on that batch — charged against the
//!    deadlines then in flight — while other replicas keep their resident
//!    state (which is what cache-affinity routing exploits).
//! 2. **Dispatch.** At each instant the loop forms one ready head-of-line
//!    batch ([`BatchPolicy`]) per free worker, routes each batch to a
//!    replica via the configured [`RoutingPolicy`] (claiming it for this
//!    group), and executes the whole group concurrently through the
//!    backend; every query in a batch completes at its batch end.
//! 3. **Accounting.** End-to-end latency (queueing + swap + service) feeds
//!    a streaming [`LatencyHistogram`]; drops and deadline misses both
//!    count against SLO attainment.
//!
//! Time is simulated milliseconds; nothing here reads a wall clock, so a
//! `(stream, config, seed)` triple reproduces bit-identical results on any
//! platform.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use sushi_accel::backend::ExecutionBackend;
use sushi_accel::AccelConfig;
use sushi_sched::{
    AdaptiveEvent, CacheSelection, LatencyTable, LoadSignal, Policy, Query, Scheduler,
    TenantOptions, TenantPolicy, TenantTier, TierSignals, TIER_COUNT,
};
use sushi_wsnet::encoding::overlap_ratio;
use sushi_wsnet::{SubNet, SuperNet};

use crate::error::SushiError;
use crate::metrics::{LatencyHistogram, ServeSummary};
use crate::serving::batch::BatchPolicy;
use crate::serving::executor::{ExecutorPool, PlannedBatch};
use crate::serving::fault::{FaultOptions, FaultRuntime, FaultSummary};
use crate::serving::queue::{AdmissionQueue, DropPolicy, DropReason, DroppedQuery, QueuedQuery};
use crate::serving::routing::{ReplicaView, RoutingPolicy};
use crate::stream::TimedQuery;

/// Serving-loop knobs (everything except the stack itself).
///
/// `#[non_exhaustive]`: construct via [`Default`] and adjust with the
/// `with_*` setters (or the corresponding
/// [`crate::engine::EngineBuilder`] knobs) so future fields are
/// non-breaking.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SimConfig {
    /// Number of accelerator workers.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Overflow/deadline policy.
    pub drop_policy: DropPolicy,
    /// Dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Which free replica a ready batch is dispatched to (irrelevant with
    /// one worker — every policy picks worker 0).
    pub routing: RoutingPolicy,
    /// The load-adaptive degradation controller (`None` = static
    /// scheduling; the loop then behaves bit-identically to the
    /// pre-adaptive runtime). Untiered options
    /// ([`TenantOptions::global`]) run one global ladder with every query
    /// tagged [`TenantTier::Standard`] and no tier machinery; options
    /// with a tier map run one ladder per tier.
    pub control: Option<TenantOptions>,
    /// Deterministic fault injection and supervision (`None` = the
    /// fault-free runtime; the loop is then bit-identical to a build
    /// without this field — no fault RNG is drawn and no event order
    /// changes).
    pub faults: Option<FaultOptions>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::no_batching(),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        }
    }
}

impl SimConfig {
    /// Sets the number of accelerator workers.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the overflow/deadline policy.
    #[must_use]
    pub fn with_drop_policy(mut self, policy: DropPolicy) -> Self {
        self.drop_policy = policy;
        self
    }

    /// Sets the dynamic-batching policy.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the replica routing policy.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Enables (`Some`) or disables (`None`) load-adaptive degradation,
    /// global or tenant-tiered as the options say.
    #[must_use]
    pub fn with_control(mut self, control: Option<TenantOptions>) -> Self {
        self.control = control;
        self
    }

    /// Enables (`Some`) or disables (`None`) deterministic fault
    /// injection and the supervised executor pool.
    #[must_use]
    pub fn with_faults(mut self, faults: Option<FaultOptions>) -> Self {
        self.faults = faults;
        self
    }
}

/// One query served to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct ServedQuery {
    /// The query as issued.
    pub query: Query,
    /// Tenant that issued it.
    pub tenant: u32,
    /// Priority tier the tenant maps to ([`TenantTier::Standard`] in a
    /// run without tenant configuration).
    pub tier: TenantTier,
    /// Arrival time, ms.
    pub arrival_ms: f64,
    /// Dispatch (service start) time, ms.
    pub start_ms: f64,
    /// Completion time, ms (shared by the whole batch).
    pub completion_ms: f64,
    /// SubNet row served.
    pub subnet_row: usize,
    /// Size of the batch it rode in.
    pub batch_size: usize,
    /// Worker that executed it.
    pub worker: usize,
    /// Functional-mode prediction (`None` in timing mode).
    pub prediction: Option<usize>,
}

impl ServedQuery {
    /// End-to-end latency: queueing + cache swap + service, ms.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.completion_ms - self.arrival_ms
    }

    /// Whether the query completed within its latency constraint.
    #[must_use]
    pub fn met_slo(&self) -> bool {
        self.latency_ms() <= self.query.latency_constraint_ms
    }
}

/// What one tenant tier's degradation ladder did over a tenant-tiered
/// run (one entry per tier in [`AdaptationTrace::tiers`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierAdaptation {
    /// Which tier this ladder serves.
    pub tier: TenantTier,
    /// The tier's degradation level when the run ended.
    pub final_level: usize,
    /// Level changes that degraded this tier.
    pub degrades: usize,
    /// Level changes that upgraded this tier.
    pub upgrades: usize,
}

/// What the adaptive controller did over one run (`None` in
/// [`SimResult::adaptation`] when adaptation was disabled).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptationTrace {
    /// Every enacted level change, in simulated-time order (for a
    /// tenant-tiered run, the merged event stream across all tiers).
    pub events: Vec<AdaptiveEvent>,
    /// Degradation level when the run ended (for a tenant-tiered run,
    /// the deepest tier's level).
    pub final_level: usize,
    /// Level changes that degraded.
    pub degrades: usize,
    /// Level changes that upgraded.
    pub upgrades: usize,
    /// Queries whose constraints were shaped before scheduling.
    pub shaped: usize,
    /// Per-tier ladder traces (empty unless the run was tenant-tiered).
    pub tiers: Vec<TierAdaptation>,
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct SimResult {
    /// Queries served to completion, in dispatch order.
    pub served: Vec<ServedQuery>,
    /// Queries shed by the admission queue.
    pub dropped: Vec<DroppedQuery>,
    /// Time-weighted mean queue depth over the run.
    pub mean_queue_depth: f64,
    /// Maximum queue depth observed.
    pub max_queue_depth: usize,
    /// Batches whose results were committed. Equal to total dispatches on
    /// a faultless run; under fault injection, transiently-failed batches
    /// and hedge duplicates burned a service slot without committing, so
    /// they are excluded (keeping `mean_batch >= 1` whenever anything
    /// completed).
    pub batches: usize,
    /// Cache decisions enacted.
    pub cache_installs: usize,
    /// Total PB swap time charged to batches, ms.
    pub swap_ms: f64,
    /// Simulation horizon: last completion (or arrival, if later), ms.
    pub makespan_ms: f64,
    /// Adaptation trace (`None` when the run was static).
    pub adaptation: Option<AdaptationTrace>,
    /// Fault-injection accounting (`None` when the run was fault-free).
    pub faults: Option<FaultSummary>,
}

impl SimResult {
    /// Aggregates the run into a [`ServeSummary`]. Percentile fields are
    /// `0.0` when nothing completed (a fully-shed run).
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        let offered = self.served.len() + self.dropped.len();
        let mut hist = LatencyHistogram::new();
        let mut met = 0usize;
        for s in &self.served {
            hist.push(s.latency_ms());
            if s.met_slo() {
                met += 1;
            }
        }
        let (p50_ms, p95_ms, p99_ms, mean_latency_ms) = if hist.count() > 0 {
            (hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99), hist.mean_ms())
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        let violations = (self.served.len() - met) + self.dropped.len();
        let mut by_reason = [0usize; 4];
        for d in &self.dropped {
            by_reason[match d.reason {
                DropReason::QueueFull => 0,
                DropReason::DeadlineLapsed => 1,
                DropReason::RetryBudgetExhausted => 2,
                DropReason::ReplicaLost => 3,
            }] += 1;
        }
        let f = self.faults.as_ref();
        ServeSummary {
            offered,
            completed: self.served.len(),
            dropped: self.dropped.len(),
            p50_ms,
            p95_ms,
            p99_ms,
            mean_latency_ms,
            goodput_qps: if self.makespan_ms > 0.0 {
                met as f64 / (self.makespan_ms / 1e3)
            } else {
                0.0
            },
            slo_violation_rate: if offered > 0 { violations as f64 / offered as f64 } else { 0.0 },
            mean_queue_depth: self.mean_queue_depth,
            max_queue_depth: self.max_queue_depth,
            mean_batch: if self.batches > 0 {
                self.served.len() as f64 / self.batches as f64
            } else {
                0.0
            },
            cache_installs: self.cache_installs,
            swap_ms: self.swap_ms,
            makespan_ms: self.makespan_ms,
            degrades: self.adaptation.as_ref().map_or(0, |a| a.degrades),
            upgrades: self.adaptation.as_ref().map_or(0, |a| a.upgrades),
            dropped_queue_full: by_reason[0],
            dropped_deadline: by_reason[1],
            dropped_retry_budget: by_reason[2],
            dropped_replica_lost: by_reason[3],
            crashes: f.map_or(0, |s| s.crashes),
            retries: f.map_or(0, |s| s.retries),
            hedges: f.map_or(0, |s| s.hedges),
            hedges_won: f.map_or(0, |s| s.hedges_won),
            quarantines: f.map_or(0, |s| s.quarantines),
        }
    }

    /// Summary of the queries (drops included) whose `(tenant, tier)`
    /// tag `keep` selects. Per-query fields cover only the slice and
    /// `mean_batch` is the batch size its served queries actually rode in
    /// — `summary()` would divide by the run-global dispatch count, which
    /// means nothing for a slice. Shared-infrastructure fields (queue
    /// depths, cache installs, swap time, makespan) pass through by value:
    /// tenants share one queue and one worker pool, so those have no
    /// per-slice decomposition.
    fn slice_summary(&self, keep: impl Fn(u32, TenantTier) -> bool) -> ServeSummary {
        let slice = SimResult {
            served: self.served.iter().copied().filter(|s| keep(s.tenant, s.tier)).collect(),
            dropped: self
                .dropped
                .iter()
                .copied()
                .filter(|d| keep(d.timed.tenant, d.tier))
                .collect(),
            mean_queue_depth: self.mean_queue_depth,
            max_queue_depth: self.max_queue_depth,
            batches: self.batches,
            cache_installs: self.cache_installs,
            swap_ms: self.swap_ms,
            makespan_ms: self.makespan_ms,
            adaptation: self.adaptation.clone(),
            faults: self.faults.clone(),
        };
        let mut summary = slice.summary();
        summary.mean_batch = if slice.served.is_empty() {
            0.0
        } else {
            slice.served.iter().map(|s| s.batch_size as f64).sum::<f64>()
                / slice.served.len() as f64
        };
        summary
    }

    /// Summary restricted to one tenant's queries (drops included).
    ///
    /// Per-query fields (offered/completed/dropped, percentiles, goodput,
    /// SLO violations) cover only this tenant; `mean_batch` is the mean
    /// batch size the tenant's served queries actually rode in (≥ 1 when
    /// any completed). Shared-infrastructure fields — queue depths, cache
    /// installs, swap time, makespan — describe the whole run.
    #[must_use]
    pub fn tenant_summary(&self, tenant: u32) -> ServeSummary {
        self.slice_summary(|t, _| t == tenant)
    }

    /// Summary restricted to one priority tier's queries (drops
    /// included), with the same shared-field semantics as
    /// [`Self::tenant_summary`]. `degrades`/`upgrades` come from the
    /// tier's own ladder trace (zero for an untiered run, where every
    /// query is [`TenantTier::Standard`] and only the global ladder — if
    /// any — moved).
    #[must_use]
    pub fn tier_summary(&self, tier: TenantTier) -> ServeSummary {
        let mut summary = self.slice_summary(|_, t| t == tier);
        let ladder =
            self.adaptation.as_ref().and_then(|a| a.tiers.iter().find(|t| t.tier == tier).copied());
        summary.degrades = ladder.map_or(0, |t| t.degrades);
        summary.upgrades = ladder.map_or(0, |t| t.upgrades);
        summary
    }
}

/// Exact p99 order statistic of `samples` (`0.0` when there are none) —
/// the windows it serves only ever hold a couple of dwell periods' worth
/// of completions, or [`HEDGE_WINDOW`] service times.
///
/// The controller's tail signal feeds it a *sliding time window* of
/// end-to-end latencies, not the run-long histogram the summary uses: a
/// cumulative p99 never decays, so one burst would pin tail pressure above
/// the degrade threshold for the rest of the run and permanently block
/// recovery. A count-based window has the same failure in miniature (at CI
/// sizing, 64 completions can be half the run), so entries age out by
/// simulated time instead — the window is `2 x` the controller's reference
/// scale (two dwell periods by default): within a couple of permitted
/// level changes, stale-level latencies have fully aged out. The hedge
/// threshold feeds it recent batch *service* times (dispatch →
/// completion), which is what a straggling replica inflates.
fn p99(samples: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.collect();
    if v.is_empty() {
        return 0.0;
    }
    // total_cmp: a NaN smuggled in by a hostile backend must not panic the
    // dispatch path — it sorts to the end and at worst skews the signal.
    v.sort_by(f64::total_cmp);
    v[(0.99 * (v.len() - 1) as f64).ceil() as usize]
}

/// Hedge service-time window: bounded count (not time) — service times are
/// level-independent, so aging by count is enough and keeps the fault path
/// allocation-free in steady state.
const HEDGE_WINDOW: usize = 64;
/// Completions observed before hedging arms: an empty/noisy p99 estimate
/// must not fire duplicates at the start of a run.
const HEDGE_WARMUP: usize = 16;

/// The SLO-aware serving loop: scheduler + executor pool + queue + batcher.
#[derive(Debug)]
pub struct ServingSim {
    net: Arc<SuperNet>,
    subnets: Vec<SubNet>,
    sched: Scheduler,
    pool: ExecutorPool,
    config: SimConfig,
    control: Option<TenantPolicy>,
    /// Round-robin routing cursor (persists across dispatch groups).
    rr_cursor: usize,
}

impl ServingSim {
    /// Assembles a serving simulation from engine-validated parts.
    /// `subnets` must be the serving set (row order) the `table` was built
    /// from — [`crate::engine::EngineBuilder::build`] enforces this along
    /// with the sim-config invariants.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        net: Arc<SuperNet>,
        subnets: Vec<SubNet>,
        table: LatencyTable,
        accel_config: &AccelConfig,
        policy: Policy,
        cache_selection: CacheSelection,
        q_window: usize,
        config: SimConfig,
    ) -> Self {
        debug_assert_eq!(subnets.len(), table.num_rows(), "serving set / table mismatch");
        let control = config.control.map(|opts| TenantPolicy::new(&table, policy, opts));
        Self {
            net,
            subnets,
            sched: Scheduler::new(table, policy, cache_selection, q_window),
            pool: ExecutorPool::new(accel_config, config.workers),
            config,
            control,
            rr_cursor: 0,
        }
    }

    /// The scheduler (for inspection).
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// The serving SubNets (row order).
    #[must_use]
    pub fn subnets(&self) -> &[SubNet] {
        &self.subnets
    }

    /// Runs the event loop over an arrival-ordered stream to completion,
    /// dispatching every batch through `backend`.
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] if the stream is empty or not sorted
    /// by arrival time, and [`SushiError::Backend`] when the backend fails.
    pub fn run(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        stream: &[TimedQuery],
    ) -> Result<SimResult, SushiError> {
        if stream.is_empty() {
            return Err(SushiError::Stream("cannot simulate an empty stream".into()));
        }
        if !stream.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms) {
            return Err(SushiError::Stream("stream must be sorted by arrival time".into()));
        }
        let queue_capacity = self.config.queue_capacity;
        let mut queue = AdmissionQueue::new(queue_capacity, self.config.drop_policy);
        let base_batch = self.config.batch;
        // The dynamic batch shrinks (and re-grows) with the degradation
        // level: smaller batches dispatch sooner under pressure.
        let batch_at = |pol: &TenantPolicy| {
            BatchPolicy::new(pol.batch_cap(base_batch.max_batch), base_batch.max_wait_ms)
        };
        let mut batch_policy = base_batch;
        // Tail-signal window (see `p99`): two SLO time scales of
        // completions, tagged with their completion time for aging — a
        // couple of dwell periods, so latencies observed at a stale level
        // age out within a few permitted level changes.
        let mut tail_window_ms = 0.0;
        if let Some(pol) = &self.control {
            // Smooth the depth signal on the controller's own time scale so
            // a single momentary spike cannot trigger a degrade.
            queue = queue.with_depth_tau(pol.scale_ms());
            batch_policy = batch_at(pol);
            tail_window_ms = 2.0 * pol.scale_ms();
        }
        // Tiered runs refine the shared signal per tier; an untiered
        // controller does no per-tier work at all.
        let tiered = self.control.as_ref().is_some_and(TenantPolicy::is_tiered);
        let mut recent: VecDeque<(f64, f64)> = VecDeque::new();
        // Per-tier completion windows (tiered runs only): each tier's
        // ladder reacts to its *own* tail, so one tenant's burst cannot
        // read as tail pressure on another tier's signal.
        let mut recent_tier: [VecDeque<(f64, f64)>; TIER_COUNT] = Default::default();
        // Fault injection: a fresh runtime per run — the fault plan is a
        // pure function of the options' seed, so a rerun replays the same
        // schedule. All of this state is inert when `faults: None`; the
        // fault-free loop never touches it.
        let mut fault = self.config.faults.map(|opts| FaultRuntime::new(opts, self.config.workers));
        let mut tier_retry_budget = [usize::MAX; TIER_COUNT];
        if let Some(sup) = fault.as_ref().and_then(FaultRuntime::supervise) {
            tier_retry_budget = sup.retry.tier_budgets;
        }
        // Retried queries waiting out their backoff (re-admission times);
        // attempt counts are keyed by (tenant, id) because ids are only
        // unique per tenant in a merged stream.
        let mut retry_buf: Vec<(QueuedQuery, f64)> = Vec::new();
        let mut attempts: HashMap<(u32, u64), u32> = HashMap::new();
        let mut hedge_window: VecDeque<f64> = VecDeque::new();
        // Dispatches that committed no results: transiently-failed batches
        // and hedge duplicates (exactly one of a hedged pair commits).
        // Excluded from `SimResult::batches` so `mean_batch` keeps meaning
        // "served queries per useful batch"; zero when faultless.
        let mut wasted_batches = 0usize;
        let mut events: Vec<AdaptiveEvent> = Vec::new();
        let mut shaped_count = 0usize;
        let mut served: Vec<ServedQuery> = Vec::with_capacity(stream.len());
        let mut dropped: Vec<DroppedQuery> = Vec::new();
        let mut next = 0usize; // index of the next arrival to admit
        let mut now = 0.0f64;

        loop {
            // Enact fault events due at this instant first: a replica whose
            // crash is due must be gone before this step's admissions or
            // dispatch can see it, and restarts / probation expiries come
            // back the same way. Retries whose backoff has elapsed re-enter
            // through the shared queue, competing for capacity like any
            // arrival (and can themselves be shed).
            if let Some(f) = fault.as_mut() {
                f.advance(now, &mut self.pool);
                if !retry_buf.is_empty() {
                    let mut still_waiting = Vec::with_capacity(retry_buf.len());
                    for (qq, ready_ms) in retry_buf.drain(..) {
                        if ready_ms <= now {
                            if let Some(victim) = queue.offer(now, qq) {
                                dropped.push(victim);
                            }
                        } else {
                            still_waiting.push((qq, ready_ms));
                        }
                    }
                    retry_buf = still_waiting;
                }
            }

            // Observe load and (maybe) step the degradation level. Sampled
            // once per event — before admissions — so the controller sees
            // the queue as the arriving queries will find it, and recovery
            // happens while the queue drains, not only on new arrivals.
            if let Some(pol) = self.control.as_mut() {
                let quarantined_frac = fault.as_ref().map_or(0.0, FaultRuntime::unavailable_frac);
                // One signal shape for the whole queue and for each tier's
                // slice of it: a depth, the head-of-line query's slack, and
                // the tail of a completion window aged to the last
                // `tail_window_ms`.
                let signal = |queue_depth: f64,
                              head: Option<&QueuedQuery>,
                              window: &mut VecDeque<(f64, f64)>| {
                    while window.front().is_some_and(|&(t, _)| t < now - tail_window_ms) {
                        window.pop_front();
                    }
                    let (head_slack_ms, head_budget_ms) = head.map_or((f64::INFINITY, 0.0), |h| {
                        (h.timed.deadline_ms() - now, h.timed.query.latency_constraint_ms)
                    });
                    LoadSignal {
                        now_ms: now,
                        queue_depth,
                        queue_capacity,
                        p99_ms: p99(window.iter().map(|&(_, lat)| lat)),
                        head_slack_ms,
                        head_budget_ms,
                        quarantined_frac,
                    }
                };
                let shared = signal(queue.smoothed_depth(now), queue.head(), &mut recent);
                let mut signals = TierSignals::uniform(shared);
                if tiered {
                    // Raw tier occupancy of the shared queue, the tier's
                    // own head-of-line slack, and its own completion tail.
                    for tier in TenantTier::ALL {
                        let window = &mut recent_tier[tier.index()];
                        let depth = queue.count_tier(tier) as f64;
                        signals =
                            signals.with_tier(tier, signal(depth, queue.head_tier(tier), window));
                    }
                }
                let stepped = pol.observe(&signals);
                if !stepped.is_empty() {
                    batch_policy = batch_at(pol);
                    events.extend(stepped.iter().map(|te| te.event));
                }
            }

            // Admit every arrival due at (or before) the current instant.
            while next < stream.len() && stream[next].arrival_ms <= now {
                let timed = stream[next];
                next += 1;
                let mut tier = TenantTier::Standard;
                let mut scheduled = timed.query;
                if let Some(pol) = self.control.as_mut() {
                    tier = pol.tier_of(timed.tenant);
                    // Feed the arrival predictor at the query's true
                    // arrival instant (≤ now when several arrivals are
                    // admitted in one event step).
                    pol.observe_arrival(tier, timed.arrival_ms);
                    // Shape the query for its ladder's current level before
                    // the scheduler sees it; the queued copy keeps the
                    // original constraints, so SLO accounting never moves
                    // the goalposts.
                    scheduled = pol.shape(
                        tier,
                        &timed.query,
                        self.sched.table(),
                        self.sched.current_cache(),
                    );
                    shaped_count += usize::from(scheduled != timed.query);
                }
                let decision = self.sched.decide(&scheduled);
                if let Some(col) = decision.cache_update {
                    let graph = self.sched.table().column(col).graph.clone();
                    self.pool.route_install(&graph);
                }
                if let Some(victim) =
                    queue.offer(now, QueuedQuery { timed, subnet_row: decision.subnet_row, tier })
                {
                    dropped.push(victim);
                }
            }

            // Dispatch: form one ready batch per free worker at this
            // instant, route each to a replica ([`RoutingPolicy`]) — a
            // chosen replica is claimed so later batches of the group see
            // it busy — and execute the whole group concurrently.
            loop {
                dropped.extend(queue.sweep_lapsed(now));
                let mut claimed = vec![false; self.pool.num_workers()];
                let mut plan: Vec<PlannedBatch<'_>> = Vec::new();
                let mut pending: Vec<(usize, Vec<QueuedQuery>)> = Vec::new();
                loop {
                    // A replica is routable only while up and not
                    // quarantined; the fault-free closure is unchanged.
                    let free = |w: usize| {
                        !claimed[w]
                            && self.pool.busy_until_ms(w) <= now
                            && fault.as_ref().map_or(true, |f| f.dispatchable(w))
                    };
                    if !(0..claimed.len()).any(free) || !batch_policy.ready(&queue, now) {
                        break;
                    }
                    let batch = batch_policy.form(&mut queue, now);
                    debug_assert!(!batch.is_empty());
                    let row = batch[0].subnet_row;
                    // Warmth per free replica: how much of this SubNet's
                    // weight state its resident SubGraph already holds
                    // (the same PB-overlap metric behind `hit_ratio`).
                    // `covers` marks the warmest free replica(s) — routed
                    // installs make residency heterogeneous, so under
                    // cache-affinity routing a swap-heavy mix keeps each
                    // band on the replica already holding its weights.
                    // A Warming replica's cache counts as cold until the
                    // next install lands on it: the crash wiped its PB.
                    let warmth: Vec<f64> = (0..claimed.len())
                        .map(|w| {
                            let warm = fault.as_ref().map_or(true, |f| f.cache_warm(w));
                            match (free(w) && warm, self.pool.resident(w)) {
                                (true, Some(g)) => overlap_ratio(&self.subnets[row].graph, g),
                                _ => 0.0,
                            }
                        })
                        .collect();
                    let warmest = warmth.iter().copied().fold(0.0, f64::max);
                    let views: Vec<ReplicaView> = (0..claimed.len())
                        .map(|w| ReplicaView {
                            free: free(w),
                            busy_until_ms: self.pool.busy_until_ms(w),
                            covers: warmest > 0.0 && warmth[w] == warmest,
                        })
                        .collect();
                    let worker =
                        self.config.routing.choose(&views, &mut self.rr_cursor).ok_or_else(
                            || {
                                SushiError::Internal(
                                    "routing declined every replica for a ready batch".into(),
                                )
                            },
                        )?;
                    claimed[worker] = true;
                    plan.push(PlannedBatch {
                        worker,
                        subnet: &self.subnets[row],
                        query_ids: batch.iter().map(|q| q.timed.query.id).collect(),
                    });
                    pending.push((row, batch));
                }
                if plan.is_empty() {
                    break;
                }
                let results = self.pool.dispatch_group(now, &self.net, backend, &plan)?;
                for ((row, batch), (mut report, mut outputs)) in pending.into_iter().zip(results) {
                    if let Some(f) = fault.as_mut() {
                        if f.roll_transient() {
                            // The batch burned its service slot and failed
                            // retryably at completion. Supervision retries
                            // each query under its tier budget; an
                            // unsupervised pool just loses them.
                            f.note_failure(report.worker, report.completion_ms);
                            let sup = f.supervise().copied();
                            for q in &batch {
                                let key = (q.timed.tenant, q.timed.query.id);
                                let attempt = attempts.get(&key).copied().unwrap_or(1);
                                let retry_at = sup.and_then(|sup| {
                                    if attempt >= sup.retry.max_attempts
                                        || tier_retry_budget[q.tier.index()] == 0
                                    {
                                        return None;
                                    }
                                    let salt = q.timed.query.id
                                        ^ (u64::from(q.timed.tenant) << 32)
                                        ^ (u64::from(attempt) << 48);
                                    Some(report.completion_ms + sup.retry.backoff_ms(attempt, salt))
                                });
                                match retry_at {
                                    Some(ready_ms)
                                        if self.config.drop_policy == DropPolicy::DeadlineAware
                                            && ready_ms > q.timed.deadline_ms() =>
                                    {
                                        // Deadline-aware give-up: the retry
                                        // could not even restart in time.
                                        dropped.push(DroppedQuery {
                                            timed: q.timed,
                                            reason: DropReason::DeadlineLapsed,
                                            tier: q.tier,
                                        });
                                    }
                                    Some(ready_ms) => {
                                        tier_retry_budget[q.tier.index()] =
                                            tier_retry_budget[q.tier.index()].saturating_sub(1);
                                        attempts.insert(key, attempt + 1);
                                        f.summary.retries += 1;
                                        retry_buf.push((*q, ready_ms));
                                    }
                                    None => dropped.push(DroppedQuery {
                                        timed: q.timed,
                                        reason: DropReason::RetryBudgetExhausted,
                                        tier: q.tier,
                                    }),
                                }
                            }
                            wasted_batches += 1;
                            continue;
                        }
                        // Tail hedge: when this batch ran far past the
                        // recent p99 service time, race a duplicate on the
                        // warmest free healthy replica — first result wins,
                        // the loser's slot is reclaimed at that instant.
                        let service_ms = report.completion_ms - report.start_ms;
                        let hedge = f.supervise().and_then(|s| s.hedge);
                        if let Some(hp) = hedge {
                            let service_p99 = p99(hedge_window.iter().copied());
                            if hedge_window.len() >= HEDGE_WARMUP
                                && service_ms > hp.min_threshold_ms
                                && service_ms > hp.p99_factor * service_p99
                            {
                                let mut backup: Option<(usize, f64)> = None;
                                for w in 0..self.pool.num_workers() {
                                    if w == report.worker
                                        || self.pool.busy_until_ms(w) > now
                                        || !f.dispatchable(w)
                                    {
                                        continue;
                                    }
                                    let warm = if f.cache_warm(w) {
                                        self.pool.resident(w).map_or(0.0, |g| {
                                            overlap_ratio(&self.subnets[row].graph, g)
                                        })
                                    } else {
                                        0.0
                                    };
                                    if backup.map_or(true, |(_, best)| warm > best) {
                                        backup = Some((w, warm));
                                    }
                                }
                                if let Some((bw, _)) = backup {
                                    let hedge_plan = [PlannedBatch {
                                        worker: bw,
                                        subnet: &self.subnets[row],
                                        query_ids: batch.iter().map(|q| q.timed.query.id).collect(),
                                    }];
                                    let mut hres = self.pool.dispatch_group(
                                        now,
                                        &self.net,
                                        backend,
                                        &hedge_plan,
                                    )?;
                                    let (hreport, houts) =
                                        hres.pop().expect("one planned batch, one result");
                                    f.summary.hedges += 1;
                                    wasted_batches += 1;
                                    if hreport.completion_ms < report.completion_ms {
                                        // Backup won: cancel the primary at
                                        // the winner's completion, but keep
                                        // feeding its would-be service time
                                        // to the straggler detector.
                                        f.summary.hedges_won += 1;
                                        self.pool.clamp_busy(report.worker, hreport.completion_ms);
                                        f.note_success(
                                            report.worker,
                                            service_ms,
                                            hreport.completion_ms,
                                        );
                                        report = hreport;
                                        outputs = houts;
                                    } else {
                                        self.pool.clamp_busy(bw, report.completion_ms);
                                        f.note_success(
                                            bw,
                                            hreport.completion_ms - hreport.start_ms,
                                            report.completion_ms,
                                        );
                                    }
                                }
                            }
                        }
                        let final_service = report.completion_ms - report.start_ms;
                        f.note_success(report.worker, final_service, report.completion_ms);
                        if hedge.is_some() {
                            hedge_window.push_back(final_service);
                            if hedge_window.len() > HEDGE_WINDOW {
                                hedge_window.pop_front();
                            }
                        }
                    }
                    for (i, q) in batch.iter().enumerate() {
                        let done = ServedQuery {
                            query: q.timed.query,
                            tenant: q.timed.tenant,
                            tier: q.tier,
                            arrival_ms: q.timed.arrival_ms,
                            start_ms: report.start_ms,
                            completion_ms: report.completion_ms,
                            subnet_row: row,
                            batch_size: batch.len(),
                            worker: report.worker,
                            prediction: outputs.as_ref().map(|o| o[i].prediction),
                        };
                        if self.control.is_some() {
                            recent.push_back((done.completion_ms, done.latency_ms()));
                        }
                        if tiered {
                            recent_tier[done.tier.index()]
                                .push_back((done.completion_ms, done.latency_ms()));
                        }
                        served.push(done);
                    }
                }
            }

            // Advance to the next event: an arrival, a worker becoming
            // free (which under faults means *available* — restarted or
            // released from probation, not merely past its busy clock), a
            // retry's backoff elapsing, or the head-of-line batch timing
            // out.
            let mut next_event = f64::INFINITY;
            if next < stream.len() {
                next_event = next_event.min(stream[next].arrival_ms);
            }
            for &(_, ready_ms) in &retry_buf {
                next_event = next_event.min(ready_ms);
            }
            if !queue.is_empty() {
                match fault.as_ref() {
                    None => {
                        if self.pool.free_worker_at(now).is_none() {
                            next_event = next_event.min(self.pool.next_free_ms());
                        } else if let Some(t) = batch_policy.ready_at(&queue) {
                            next_event = next_event.min(t);
                        }
                    }
                    Some(f) => {
                        let dispatchable_free = (0..self.pool.num_workers())
                            .any(|w| f.dispatchable(w) && self.pool.busy_until_ms(w) <= now);
                        if !dispatchable_free {
                            let release = (0..self.pool.num_workers())
                                .map(|w| f.release_ms(w, self.pool.busy_until_ms(w)))
                                .fold(f64::INFINITY, f64::min);
                            next_event = next_event.min(release);
                        } else if let Some(t) = batch_policy.ready_at(&queue) {
                            next_event = next_event.min(t);
                        }
                    }
                }
            }
            if !next_event.is_finite() {
                break;
            }
            debug_assert!(next_event > now, "event loop must make progress");
            now = next_event;
        }

        // With the pool permanently lost, whatever is still queued (or
        // waiting out a retry backoff) can never be served: account every
        // survivor as dropped so conservation holds. The fault-free loop
        // always drains its queue, so this is gated to keep its
        // accounting (and depth integral) bit-identical.
        if fault.is_some() {
            for q in queue.drain(now) {
                dropped.push(DroppedQuery {
                    timed: q.timed,
                    reason: DropReason::ReplicaLost,
                    tier: q.tier,
                });
            }
            for (q, _) in retry_buf.drain(..) {
                dropped.push(DroppedQuery {
                    timed: q.timed,
                    reason: DropReason::ReplicaLost,
                    tier: q.tier,
                });
            }
        }
        assert_eq!(
            served.len() + dropped.len(),
            stream.len(),
            "conservation: every admitted query must be served or dropped exactly once"
        );
        let makespan_ms =
            self.pool.drain_ms().max(stream.last().map_or(0.0, |tq| tq.arrival_ms)).max(now);
        let fault_summary = fault.map(|mut f| {
            f.summary.cache_reinstalls = self.pool.reinstalls();
            f.finish(makespan_ms)
        });
        Ok(SimResult {
            served,
            dropped,
            mean_queue_depth: queue.mean_depth(makespan_ms.max(f64::MIN_POSITIVE)),
            max_queue_depth: queue.max_depth(),
            batches: self.pool.batches() - wasted_batches,
            cache_installs: self.pool.cache_installs(),
            swap_ms: self.pool.total_swap_ms(),
            makespan_ms,
            // One trace shape: totals over the policy's ladders, with the
            // per-tier breakdown only when there is more than one.
            adaptation: self.control.as_ref().map(|pol| {
                let ladders: Vec<TierAdaptation> = pol
                    .ladder_tiers()
                    .iter()
                    .map(|&tier| TierAdaptation {
                        tier,
                        final_level: pol.level(tier),
                        degrades: pol.degrades(tier),
                        upgrades: pol.upgrades(tier),
                    })
                    .collect();
                AdaptationTrace {
                    events,
                    final_level: ladders.iter().map(|t| t.final_level).max().unwrap_or(0),
                    degrades: ladders.iter().map(|t| t.degrades).sum(),
                    upgrades: ladders.iter().map(|t| t.upgrades).sum(),
                    shaped: shaped_count,
                    tiers: if tiered { ladders } else { Vec::new() },
                }
            }),
            faults: fault_summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineBuilder};
    use crate::serving::arrivals::ArrivalProcess;
    use crate::stream::{attach_arrivals, uniform_stream, ConstraintSpace};

    fn sim(config: SimConfig) -> (Engine, ConstraintSpace) {
        let engine = EngineBuilder::new()
            .q_window(8)
            .candidates(8)
            .seed(42)
            .sim_config(config)
            .build()
            .expect("valid test configuration");
        let space = engine.constraint_space();
        (engine, space)
    }

    fn stream(space: &ConstraintSpace, n: usize, rate_qps: f64, seed: u64) -> Vec<TimedQuery> {
        let qs = uniform_stream(space, n, seed);
        let ts = ArrivalProcess::Poisson { rate_qps }.timestamps(n, seed ^ 0xD15);
        attach_arrivals(&qs, &ts)
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = SimConfig {
            workers: 2,
            queue_capacity: 16,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let (mut a, space) = sim(cfg);
        let (mut b, _) = sim(cfg);
        let st = stream(&space, 150, 120.0, 9);
        assert_eq!(a.serve_timed(&st).unwrap(), b.serve_timed(&st).unwrap());
    }

    #[test]
    fn every_query_is_accounted_exactly_once() {
        let cfg = SimConfig {
            workers: 1,
            queue_capacity: 4,
            drop_policy: DropPolicy::DropOldest,
            batch: BatchPolicy::new(4, 1.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let (mut s, space) = sim(cfg);
        let st = stream(&space, 200, 400.0, 3); // overload: drops expected
        let r = s.serve_timed(&st).unwrap();
        assert_eq!(r.served.len() + r.dropped.len(), 200);
        assert!(!r.dropped.is_empty(), "overload should shed load");
        let mut ids: Vec<u64> = r
            .served
            .iter()
            .map(|q| q.query.id)
            .chain(r.dropped.iter().map(|d| d.timed.query.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn latencies_are_causal_and_fifo_within_row() {
        let cfg = SimConfig {
            workers: 2,
            queue_capacity: 32,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let (mut s, space) = sim(cfg);
        let r = s.serve_timed(&stream(&space, 150, 150.0, 4)).unwrap();
        for q in &r.served {
            assert!(q.start_ms >= q.arrival_ms, "service before arrival");
            assert!(q.completion_ms > q.start_ms);
            assert!(q.batch_size >= 1 && q.worker < 2);
        }
    }

    #[test]
    fn light_load_meets_slo_overload_violates() {
        let light_cfg = SimConfig {
            workers: 2,
            queue_capacity: 64,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 1.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let (mut light, space) = sim(light_cfg);
        let lr = light.serve_timed(&stream(&space, 150, 40.0, 5)).unwrap().summary();
        let (mut heavy, _) = sim(SimConfig { workers: 1, ..light_cfg });
        let hr = heavy.serve_timed(&stream(&space, 150, 900.0, 5)).unwrap().summary();
        assert!(lr.slo_violation_rate < hr.slo_violation_rate);
        assert!(lr.p99_ms < hr.p99_ms);
        assert!(hr.mean_queue_depth > lr.mean_queue_depth);
    }

    #[test]
    fn batching_improves_throughput_under_pressure() {
        let no_batch = SimConfig {
            workers: 1,
            queue_capacity: 64,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::no_batching(),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let batched = SimConfig { batch: BatchPolicy::new(8, 4.0), ..no_batch };
        let (mut a, space) = sim(no_batch);
        let (mut b, _) = sim(batched);
        let st = stream(&space, 200, 500.0, 6);
        let ra = a.serve_timed(&st).unwrap();
        let rb = b.serve_timed(&st).unwrap();
        let drained_a = ra.served.last().unwrap().completion_ms;
        let drained_b = rb.served.last().unwrap().completion_ms;
        assert!(drained_b < drained_a, "batching should drain faster: {drained_b} vs {drained_a}");
        assert!(rb.summary().mean_batch > 1.2);
    }

    #[test]
    fn cache_installs_happen_and_charge_swap_time() {
        let cfg = SimConfig {
            workers: 1,
            queue_capacity: 64,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(2, 1.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let (mut s, space) = sim(cfg);
        let r = s.serve_timed(&stream(&space, 120, 150.0, 7)).unwrap();
        assert!(r.cache_installs > 0);
        assert!(r.swap_ms > 0.0);
    }

    #[test]
    fn tenant_summary_partitions_offered_load() {
        let cfg = SimConfig {
            workers: 2,
            queue_capacity: 32,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: None,
        };
        let (mut s, space) = sim(cfg);
        let qs = uniform_stream(&space, 100, 8);
        let ts = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(100, 77);
        let a = attach_arrivals(&qs[..50], &ts[..50]);
        let b = attach_arrivals(&qs[50..], &ts[..50]);
        let merged = crate::stream::merge_tenant_streams(&[a, b]);
        let r = s.serve_timed(&merged).unwrap();
        let t0 = r.tenant_summary(0);
        let t1 = r.tenant_summary(1);
        assert_eq!(t0.offered + t1.offered, 100);
        assert_eq!(t0.offered, 50);
        // Per-tenant batch size is the batch the tenant's queries rode in,
        // not tenant-served over run-global dispatches — it can never be
        // an impossible sub-1 "mean batch".
        for t in [&t0, &t1] {
            if t.completed > 0 {
                assert!(t.mean_batch >= 1.0, "tenant mean_batch {}", t.mean_batch);
            }
        }
    }

    #[test]
    fn empty_stream_is_a_stream_error() {
        let cfg = SimConfig::default();
        let (mut s, _) = sim(cfg);
        let err = s.serve_timed(&[]).unwrap_err();
        assert!(matches!(err, SushiError::Stream(_)), "{err}");
    }

    #[test]
    fn unsorted_stream_is_a_stream_error() {
        let cfg = SimConfig::default();
        let (mut s, space) = sim(cfg);
        let qs = uniform_stream(&space, 2, 1);
        let st = vec![TimedQuery::new(5.0, qs[0]), TimedQuery::new(1.0, qs[1])];
        let err = s.serve_timed(&st).unwrap_err();
        assert!(matches!(err, SushiError::Stream(_)), "{err}");
    }

    #[test]
    fn faultless_some_zero_rates_matches_none() {
        // `faults: Some(..)` with every rate zeroed injects nothing: the
        // run must produce the same served/dropped trace as `faults: None`
        // (the summaries differ only in the `faults` accounting field).
        let cfg = SimConfig {
            workers: 2,
            queue_capacity: 16,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::CacheAffinity,
            control: None,
            faults: None,
        };
        let injected = SimConfig { faults: Some(FaultOptions::default()), ..cfg };
        let (mut a, space) = sim(cfg);
        let (mut b, _) = sim(injected);
        let st = stream(&space, 150, 120.0, 9);
        let ra = a.serve_timed(&st).unwrap();
        let rb = b.serve_timed(&st).unwrap();
        assert_eq!(ra.served, rb.served);
        assert_eq!(ra.dropped, rb.dropped);
        assert_eq!(ra.faults, None);
        let fs = rb.faults.expect("fault accounting present when faults are configured");
        assert_eq!((fs.crashes, fs.transient_failures, fs.retries, fs.hedges), (0, 0, 0, 0));
    }

    #[test]
    fn losing_every_replica_is_accounted_not_a_panic() {
        // A permanent crash (no outage window) of the whole pool must end
        // the run cleanly: whatever could not be served is dropped as
        // `ReplicaLost`, and conservation still holds.
        let cfg = SimConfig {
            workers: 1,
            queue_capacity: 64,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 1.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: Some(FaultOptions::default().with_crash_mtbf_ms(0.5).without_supervision()),
        };
        let (mut s, space) = sim(cfg);
        let st = stream(&space, 100, 200.0, 11);
        let r = s.serve_timed(&st).unwrap();
        assert_eq!(r.served.len() + r.dropped.len(), 100);
        let fs = r.faults.as_ref().expect("fault accounting");
        assert!(fs.crashes >= 1, "the tiny MTBF must crash the only replica");
        assert!(
            r.dropped.iter().any(|d| d.reason == DropReason::ReplicaLost),
            "queries stranded by the dead pool are ReplicaLost drops"
        );
        assert!(fs.total_downtime_ms() > 0.0);
    }

    #[test]
    fn supervised_transients_retry_and_unsupervised_drop() {
        let base = SimConfig {
            workers: 2,
            queue_capacity: 64,
            drop_policy: DropPolicy::DropNewest,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::LeastLoaded,
            control: None,
            faults: Some(FaultOptions::default().with_transient_rate(0.2)),
        };
        let (mut sup, space) = sim(base);
        let st = stream(&space, 200, 100.0, 13);
        let rs = sup.serve_timed(&st).unwrap();
        let fs = rs.faults.as_ref().expect("fault accounting");
        assert!(fs.transient_failures > 0, "a 20% transient rate must fire");
        assert!(fs.retries > 0, "supervision retries transient failures");
        assert!(
            rs.served.len() > 150,
            "retries recover most transient losses: served {}",
            rs.served.len()
        );

        let unsup = SimConfig {
            faults: Some(FaultOptions::default().with_transient_rate(0.2).without_supervision()),
            ..base
        };
        let (mut u, _) = sim(unsup);
        let ru = u.serve_timed(&st).unwrap();
        let fu = ru.faults.as_ref().expect("fault accounting");
        assert_eq!(fu.retries, 0, "no supervision, no retries");
        assert!(
            ru.dropped.iter().any(|d| d.reason == DropReason::RetryBudgetExhausted),
            "unsupervised transient losses drop with an exhausted (zero) budget"
        );
        assert!(rs.served.len() > ru.served.len(), "supervision must out-serve ablation");
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let cfg = SimConfig {
            workers: 3,
            queue_capacity: 32,
            drop_policy: DropPolicy::DeadlineAware,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::CacheAffinity,
            control: None,
            faults: Some(
                FaultOptions::default()
                    .with_crash_mtbf_ms(400.0)
                    .with_crash_outage_ms(60.0)
                    .with_straggler_mtbf_ms(300.0)
                    .with_straggler_duration_ms(50.0)
                    .with_straggler_factor(3.0)
                    .with_transient_rate(0.05),
            ),
        };
        let (mut a, space) = sim(cfg);
        let (mut b, _) = sim(cfg);
        let st = stream(&space, 250, 180.0, 17);
        assert_eq!(a.serve_timed(&st).unwrap(), b.serve_timed(&st).unwrap());
    }
}
