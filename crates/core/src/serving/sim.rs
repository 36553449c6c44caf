//! The deterministic discrete-event serving simulator.
//!
//! This module holds the bodies of [`Engine::serve_timed`] and
//! [`Engine::serve`] as an `impl Engine` block: the SUSHI stack —
//! `SushiSched` decisions enacted on the engine's pool of accelerator
//! replicas — driven by an open-loop event loop over a [`TimedQuery`]
//! stream, or by the per-query replay. The event loop is configured by one
//! [`SimConfig`]:
//!
//! 1. **Admission.** Each arrival is scheduled immediately
//!    (`Scheduler::decide`, in arrival order, so the AvgNet state stream is
//!    reproducible) and enqueued tagged with its SubNet row; the bounded
//!    admission queue sheds load per its [`DropPolicy`]. Every drop, there
//!    or in the fault runtime, is built by `QueuedQuery::dropped`. Cache
//!    decisions are *routed*: the next dispatched batch's worker installs
//!    the new SubGraph and its swap time lands on that batch — charged
//!    against the deadlines then in flight — while other replicas keep
//!    their resident state (which is what cache-affinity routing exploits).
//! 2. **Dispatch.** At each instant the loop forms one ready head-of-line
//!    batch ([`BatchPolicy`]) per free worker, routes each batch to a
//!    replica via the configured [`RoutingPolicy`] (claiming it for this
//!    group), and executes the whole group concurrently through the
//!    backend; every query in a batch completes at its batch end. The
//!    routing views and a tail hedge's backup rank replicas by one
//!    warmth (`FaultRuntime::free_warmth`), and the group and each hedge
//!    go through one helper (`Engine::dispatch`) that plans, dispatches
//!    and charges swap time and crash re-installs.
//! 3. **Accounting.** End-to-end latency (queueing + swap + service) feeds
//!    a streaming [`LatencyHistogram`]; drops and deadline misses both
//!    count against SLO attainment. Every debug run checks conservation
//!    per tier (each admitted query is served or dropped exactly once,
//!    under its tier) and Little's law: the time-weighted mean depth
//!    times the makespan equals the queue's summed stays.
//!
//! The per-query replay ([`Engine::serve`], behind
//! [`Engine::serve_stream`]) drives the same scheduler and pool, one query
//! at a time on worker 0, and differs from the event loop in one ordering
//! only: it routes a query's cache decision *after* dispatching that
//! query, so the next query's dispatch applies the install and pays its PB
//! reload (stage B of Fig. 9a, as the §5.6–5.7 replays charge it). The
//! event loop routes at admission, so the triggering query's own batch may
//! pay.
//!
//! Time is simulated milliseconds, and each call has its own. The replay
//! keeps no clock at all. Each [`Engine::serve_timed`] keeps its replica
//! clocks in the fault runtime it builds, starting at `t = 0`, the instant
//! the stream's arrivals count from, and drops them when it returns. Only
//! the engine's fields carry from one call to the next, and they hold only
//! SubGraph-Stationary state ([`Engine`] states the contract). Nothing here
//! reads a wall clock, so a `(stream, config, seed)` triple reproduces
//! bit-identical results on any platform.

use std::collections::VecDeque;

use sushi_sched::{
    LoadSignal, Query, TenantEvent, TenantOptions, TenantPolicy, TenantTier, TierSignals,
    TierState, TIER_COUNT,
};

use crate::engine::Engine;
use crate::error::SushiError;
use crate::metrics::{LatencyHistogram, ServeSummary};
use crate::serving::batch::BatchPolicy;
use crate::serving::executor::{Dispatched, PlannedBatch};
use crate::serving::fault::{FaultOptions, FaultRuntime, FaultSummary};
use crate::serving::queue::{AdmissionQueue, DropPolicy, DropReason, DroppedQuery, QueuedQuery};
use crate::serving::routing::{ReplicaView, RoutingPolicy};
use crate::stream::TimedQuery;

/// Serving-loop knobs (everything except the stack itself; the per-query
/// replay ignores them), written as a
/// struct literal over [`Default`] and handed to
/// [`crate::engine::EngineBuilder::sim_config`].
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// pre-adaptive runtime), built afresh by every serving run. Untiered options
    /// ([`TenantOptions::global`]) run one global ladder with every query
    /// tagged [`TenantTier::Standard`] and no tier machinery; options
    /// with a tier map run one ladder per tier and the arrival predictor
    /// over best-effort arrivals.
    pub control: Option<TenantOptions>,
    /// Deterministic fault injection and supervision. `None` is the empty
    /// plan — every rate zero, no supervisor — run by the same loop; it
    /// draws no fault RNG by construction, so nothing is injected and
    /// [`SimResult::faults`] stays `None`.
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

/// Everything recorded about one query served by the per-query replay
/// ([`crate::engine::Engine::serve`]).
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct ServedRecord {
    /// The query as issued.
    pub query: Query,
    /// Name of the SubNet served.
    pub subnet: String,
    /// Row index of the SubNet in the latency table.
    pub subnet_row: usize,
    /// Accuracy delivered (fixed per SubNet).
    pub served_accuracy: f64,
    /// End-to-end latency delivered, in ms (includes any PB reload).
    pub served_latency_ms: f64,
    /// Cache-hit ratio ‖SNₜ ∩ Gₜ‖₂ / ‖SNₜ‖₂ at serve time (Appendix A.4).
    pub hit_ratio: f64,
    /// Off-chip energy for this query, mJ.
    pub offchip_mj: f64,
    /// On-chip energy for this query, mJ.
    pub onchip_mj: f64,
    /// Whether a cache update was enacted after this query.
    pub cache_updated: bool,
    /// Functional-backend prediction (`None` under the analytical backend).
    pub prediction: Option<usize>,
}

/// What the adaptive controller did over one run (`None` in
/// [`SimResult::adaptation`] when adaptation was disabled).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptationTrace {
    /// Every enacted level change, in simulated-time order (for a
    /// tenant-tiered run, the merged event stream across all tiers; the
    /// untiered ladder reports as [`TenantTier::Standard`]).
    pub events: Vec<TenantEvent>,
    /// Level changes that degraded.
    pub degrades: usize,
    /// Level changes that upgraded.
    pub upgrades: usize,
    /// Queries whose constraints were shaped before scheduling.
    pub shaped: usize,
    /// Each tier's ladder as the run left it (empty unless the run was
    /// tenant-tiered).
    pub tiers: Vec<TierState>,
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
    /// Batches of this run whose results were committed. Equal to the
    /// run's dispatches on a faultless run; under fault injection,
    /// transiently-failed batches and hedge duplicates burned a service
    /// slot without committing, so they are excluded (keeping
    /// `mean_batch >= 1` whenever anything completed).
    pub batches: usize,
    /// Cache decisions this run routed.
    pub cache_installs: usize,
    /// Total PB swap time charged to this run's batches, ms.
    pub swap_ms: f64,
    /// Simulation horizon: last completion (or arrival, if later), ms.
    pub makespan_ms: f64,
    /// Adaptation trace (`None` when the run was static).
    pub adaptation: Option<AdaptationTrace>,
    /// Fault-injection accounting (`Some` exactly when
    /// [`SimConfig::faults`] was set).
    pub faults: Option<FaultSummary>,
}

impl SimResult {
    /// Aggregates the run into a [`ServeSummary`]. Percentile fields are
    /// `0.0` when nothing completed (a fully-shed run).
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        let mut summary = self.fold(|_, _| true);
        summary.mean_batch =
            if self.batches > 0 { self.served.len() as f64 / self.batches as f64 } else { 0.0 };
        summary
    }

    /// One fold over the served and dropped queries whose `(tenant, tier)`
    /// tag `keep` selects. Per-query fields cover only the selection, and
    /// `mean_batch` is the batch size its served queries actually rode in
    /// ([`Self::summary`] divides by the run's committed batches instead).
    /// Shared-infrastructure fields (queue depths, cache installs, swap
    /// time, makespan, ladder totals) pass through by value: tenants share
    /// one queue and one worker pool, so those have no per-slice
    /// decomposition.
    fn fold(&self, keep: impl Fn(u32, TenantTier) -> bool) -> ServeSummary {
        let dropped = self.dropped.iter().filter(|d| keep(d.timed.tenant, d.tier)).count();
        let mut hist = LatencyHistogram::new();
        let (mut completed, mut met, mut rode) = (0usize, 0usize, 0.0f64);
        for s in self.served.iter().filter(|s| keep(s.tenant, s.tier)) {
            hist.push(s.latency_ms());
            met += usize::from(s.met_slo());
            rode += s.batch_size as f64;
            completed += 1;
        }
        let (p50_ms, p95_ms, p99_ms, mean_latency_ms) = if completed > 0 {
            (hist.quantile(0.50), hist.quantile(0.95), hist.quantile(0.99), hist.mean_ms())
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        let offered = completed + dropped;
        let violations = (completed - met) + dropped;
        ServeSummary {
            offered,
            completed,
            dropped,
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
            mean_batch: if completed > 0 { rode / completed as f64 } else { 0.0 },
            cache_installs: self.cache_installs,
            swap_ms: self.swap_ms,
            makespan_ms: self.makespan_ms,
            degrades: self.adaptation.as_ref().map_or(0, |a| a.degrades),
            upgrades: self.adaptation.as_ref().map_or(0, |a| a.upgrades),
        }
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
        self.fold(|t, _| t == tenant)
    }

    /// Summary restricted to one priority tier's queries (drops
    /// included), with the same shared-field semantics as
    /// [`Self::tenant_summary`]. `degrades`/`upgrades` come from the
    /// tier's own ladder trace (zero for an untiered run, where every
    /// query is [`TenantTier::Standard`] and only the global ladder — if
    /// any — moved).
    #[must_use]
    pub fn tier_summary(&self, tier: TenantTier) -> ServeSummary {
        let mut summary = self.fold(|_, t| t == tier);
        let ladder =
            self.adaptation.as_ref().and_then(|a| a.tiers.iter().find(|t| t.tier == tier).copied());
        summary.degrades = ladder.map_or(0, |t| t.degrades);
        summary.upgrades = ladder.map_or(0, |t| t.upgrades);
        summary
    }
}

/// Refuses a query whose constraints no comparison can order: a NaN
/// accuracy constraint, or a NaN or negative latency constraint. Every
/// comparison with NaN is false, so such a query would get the best-effort
/// row and could never meet its deadline or lapse it. An infinite latency
/// constraint (or `f64::MAX`) means "no deadline" and passes.
///
/// # Errors
/// Returns [`SushiError::Stream`] naming the query and its constraints.
pub(crate) fn check_constraints(q: &Query) -> Result<(), SushiError> {
    let lat = q.latency_constraint_ms;
    if q.accuracy_constraint.is_nan() || lat.is_nan() || lat < 0.0 {
        return Err(SushiError::Stream(format!(
            "query {} has accuracy constraint {} and latency constraint {lat} ms; \
             want a number and a non-negative number",
            q.id, q.accuracy_constraint
        )));
    }
    Ok(())
}

/// Exact p99 order statistic of `samples` (`0.0` when there are none) —
/// the windows it serves only ever hold a couple of dwell periods' worth
/// of dispatches, or the fault runtime's bounded hedge window.
///
/// The controller's tail signal feeds it a *sliding time window* of
/// end-to-end latencies, not the run-long histogram the summary uses: a
/// cumulative p99 never decays, so one burst would pin tail pressure above
/// the degrade threshold for the rest of the run and permanently block
/// recovery. A count-based window has the same failure in miniature (at CI
/// sizing, 64 completions can be half the run), so entries age out by
/// simulated time instead — the window is `2 x` the controller's reference
/// scale (two dwell periods). What the window holds is not "the recent
/// completions": each served query enters when its batch is dispatched,
/// tagged with its future completion time, and aging pops from the front,
/// which is dispatch order. So the p99 also reads queries still in flight,
/// and an entry whose completion is older than the window stays while a
/// fresher one is ahead of it ([`LoadSignal::p99_ms`] gives the measured
/// shares). The hedge threshold feeds it recent batch *service* times
/// (dispatch → completion), which is what a straggling replica inflates.
pub(crate) fn p99(samples: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = samples.collect();
    if v.is_empty() {
        return 0.0;
    }
    // total_cmp: a NaN smuggled in by a hostile backend must not panic the
    // dispatch path — it sorts to the end and at worst skews the signal.
    v.sort_by(f64::total_cmp);
    v[(0.99 * (v.len() - 1) as f64).ceil() as usize]
}

impl Engine {
    /// Serves one query through the per-query replay loop (Fig. 4) on
    /// worker 0: schedule it, dispatch it alone (applying and paying for
    /// any install an earlier query routed), read the hit ratio, and only
    /// then route this query's own cache decision. The replay keeps no
    /// clock: the query starts at `t = 0` and its latency is its service
    /// time. The serving config's batching, routing, control and faults
    /// play no part.
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] when the query's accuracy constraint
    /// is NaN or its latency constraint is NaN or negative, and
    /// [`SushiError::Backend`] when the execution backend fails; no
    /// install is routed then.
    pub fn serve(&mut self, query: &Query) -> Result<ServedRecord, SushiError> {
        check_constraints(query)?;
        let decision = self.sched.decide(query);
        let row = decision.subnet_row;
        let plan = [PlannedBatch { worker: 0, row, query_ids: vec![query.id], scale: 1.0 }];
        let (dispatch, outputs) = self
            .pool
            .dispatch_group(0.0, &self.net, &self.subnets, self.backend.as_mut(), &plan)?
            .pop()
            .expect("one planned batch, one result");
        let hit_ratio = self.pool.overlap(0, row);
        if let Some(col) = decision.cache_update {
            self.pool.route_install(col);
        }
        let subnet = &self.subnets[row];
        Ok(ServedRecord {
            query: *query,
            subnet: subnet.name.clone(),
            subnet_row: row,
            served_accuracy: subnet.accuracy,
            served_latency_ms: dispatch.report.total_latency_ms,
            hit_ratio,
            offchip_mj: dispatch.report.energy.offchip_mj,
            onchip_mj: dispatch.report.energy.onchip_mj,
            cache_updated: decision.cache_update.is_some(),
            prediction: outputs.as_ref().and_then(|o| o.first()).map(|o| o.prediction),
        })
    }

    /// Runs the event-driven serving simulation over an arrival-ordered
    /// [`TimedQuery`] stream to completion (open-loop arrivals, bounded
    /// admission queue, dynamic batching, worker pool, SLO accounting).
    /// The run's replica clocks are its own and start at `t = 0`, the time
    /// the stream's arrivals count from ([`Engine`]).
    ///
    /// # Errors
    /// Returns [`SushiError::Stream`] on an empty or unsorted stream, an
    /// arrival that is negative or not finite, or a query [`Engine::serve`]
    /// would refuse — checked before anything is served — and
    /// [`SushiError::Backend`] when the execution backend fails.
    pub fn serve_timed(&mut self, stream: &[TimedQuery]) -> Result<SimResult, SushiError> {
        if stream.is_empty() {
            return Err(SushiError::Stream("cannot simulate an empty stream".into()));
        }
        if let Some(tq) = stream.iter().find(|tq| !(0.0..f64::INFINITY).contains(&tq.arrival_ms)) {
            return Err(SushiError::Stream(format!(
                "arrival times must be finite and >= 0 ms, got {} (query {})",
                tq.arrival_ms, tq.query.id
            )));
        }
        stream.iter().try_for_each(|tq| check_constraints(&tq.query))?;
        if !stream.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms) {
            return Err(SushiError::Stream("stream must be sorted by arrival time".into()));
        }
        let queue_capacity = self.config.queue_capacity;
        let mut queue = AdmissionQueue::new(queue_capacity, self.config.drop_policy);
        // Everything this run injects, controls, counts or times is built
        // here and dropped when it returns; only the scheduler and the
        // pool's resident state carry on.
        let mut control = self
            .config
            .control
            .map(|opts| TenantPolicy::new(self.sched.table(), self.sched.policy(), opts));
        let base_batch = self.config.batch;
        // The dynamic batch shrinks (and re-grows) with the degradation
        // level: smaller batches dispatch sooner under pressure.
        let batch_at = |pol: &TenantPolicy| {
            BatchPolicy::new(pol.batch_cap(base_batch.max_batch), base_batch.max_wait_ms)
        };
        let mut batch_policy = base_batch;
        // Tail-signal window (see `p99`): two SLO time scales of served
        // queries, entered at dispatch in dispatch order and tagged with
        // their future completion time, which the aging below compares
        // against `now - tail_window_ms` from the front only.
        let mut tail_window_ms = 0.0;
        if let Some(pol) = &control {
            // Smooth the depth signal on the controller's own time scale so
            // a single momentary spike cannot trigger a degrade.
            queue = queue.with_depth_tau(pol.scale_ms());
            batch_policy = batch_at(pol);
            tail_window_ms = 2.0 * pol.scale_ms();
        }
        // Tiered runs refine the shared signal per tier; an untiered
        // controller does no per-tier work at all.
        let tiered = control.as_ref().is_some_and(TenantPolicy::is_tiered);
        let mut recent: VecDeque<(f64, f64)> = VecDeque::new();
        // Per-tier tail windows (tiered runs only): each tier's
        // ladder reacts to its *own* tail, so one tenant's burst cannot
        // read as tail pressure on another tier's signal.
        let mut recent_tier: [VecDeque<(f64, f64)>; TIER_COUNT] = Default::default();
        // A fresh fault runtime per run — it holds the run's replica clocks,
        // all free at 0, and its plan is a pure function of the options'
        // seed, so a rerun replays the same schedule; with `faults: None` it
        // is the empty plan.
        let empty_plan = FaultOptions { supervised: false, ..FaultOptions::default() };
        let mut fault =
            FaultRuntime::new(self.config.faults.unwrap_or(empty_plan), self.config.workers);
        let mut events: Vec<TenantEvent> = Vec::new();
        let mut shaped_count = 0usize;
        let (mut batches, mut cache_installs, mut swap_ms) = (0usize, 0usize, 0.0f64);
        let mut served: Vec<ServedQuery> = Vec::with_capacity(stream.len());
        let mut dropped: Vec<DroppedQuery> = Vec::new();
        let mut rr_cursor = 0usize; // round-robin routing cursor
        let mut next = 0usize; // index of the next arrival to admit
        let mut now = 0.0f64;

        loop {
            // Enact fault events due at this instant first: a replica whose
            // crash is due must be gone before this step's admissions or
            // dispatch can see it, and restarts / probation expiries come
            // back the same way; then retries whose backoff has elapsed
            // re-enter through the shared queue.
            fault.advance(now, &mut self.pool);
            fault.readmit_due(now, &mut queue, &mut dropped);

            // Observe load and (maybe) step the degradation level. Sampled
            // once per event — before admissions — so the controller sees
            // the queue as the arriving queries will find it, and recovery
            // happens while the queue drains, not only on new arrivals.
            if let Some(pol) = control.as_mut() {
                let quarantined_frac = fault.unavailable_frac();
                // One signal shape for the whole queue and for each tier's
                // slice of it: a depth, the head-of-line query's slack, and
                // the p99 of a tail window, popped from the front while the
                // front entry's completion is older than `tail_window_ms`.
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
                    events.extend(stepped);
                }
            }

            // Admit every arrival due at (or before) the current instant.
            while next < stream.len() && stream[next].arrival_ms <= now {
                let timed = stream[next];
                next += 1;
                let mut tier = TenantTier::Standard;
                let mut scheduled = timed.query;
                if let Some(pol) = control.as_mut() {
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
                    self.pool.route_install(col);
                    cache_installs += 1;
                }
                let offered = QueuedQuery { timed, subnet_row: decision.subnet_row, tier };
                dropped.extend(queue.offer(now, offered));
            }

            // Dispatch: form one ready batch per free worker at this
            // instant, route each to a replica ([`RoutingPolicy`]) — a
            // chosen replica is claimed so later batches of the group see
            // it busy — and execute the whole group concurrently.
            loop {
                dropped.extend(queue.sweep_lapsed(now));
                let mut claimed = vec![false; self.pool.num_workers()];
                let mut group: Vec<(usize, Vec<QueuedQuery>)> = Vec::new();
                loop {
                    let free = |w: usize| !claimed[w] && fault.free(w, now);
                    if !(0..claimed.len()).any(free) || !batch_policy.ready(&queue, now) {
                        break;
                    }
                    let batch = batch_policy.form(&mut queue, now);
                    debug_assert!(!batch.is_empty());
                    let row = batch[0].subnet_row;
                    // `covers` marks the warmest free replica(s) — routed
                    // installs make residency heterogeneous, so under
                    // cache-affinity routing a swap-heavy mix keeps each
                    // band on the replica already holding its weights.
                    let warm = fault.free_warmth(&self.pool, now, row, |w| claimed[w]);
                    let warmest = warm.iter().flatten().copied().fold(0.0, f64::max);
                    let views: Vec<ReplicaView> = (0..claimed.len())
                        .map(|w| ReplicaView {
                            free: warm[w].is_some(),
                            busy_until_ms: fault.busy_until_ms(w),
                            covers: warmest > 0.0 && warm[w] == Some(warmest),
                        })
                        .collect();
                    let worker =
                        self.config.routing.choose(&views, &mut rr_cursor).ok_or_else(|| {
                            SushiError::Internal(
                                "routing declined every replica for a ready batch".into(),
                            )
                        })?;
                    claimed[worker] = true;
                    group.push((worker, batch));
                }
                if group.is_empty() {
                    break;
                }
                let planned = group.iter().map(|(worker, batch)| (*worker, &batch[..]));
                let results = self.dispatch(now, &mut fault, &mut swap_ms, planned)?;
                for ((_, batch), (mut report, mut outputs)) in group.into_iter().zip(results) {
                    if fault.roll_transient() {
                        // The batch burned its service slot and failed
                        // retryably at completion.
                        fault.retry_or_drop(
                            report.worker,
                            report.completion_ms,
                            &batch,
                            self.config.drop_policy,
                            &mut dropped,
                        );
                        continue;
                    }
                    // Tail hedge: race a straggling batch's duplicate on the
                    // warmest free healthy replica, lowest index on ties.
                    let row = batch[0].subnet_row;
                    if fault.should_hedge(report.completion_ms - report.start_ms) {
                        let warm = fault.free_warmth(&self.pool, now, row, |w| w == report.worker);
                        let warmest =
                            warm.iter().flatten().copied().fold(f64::NEG_INFINITY, f64::max);
                        if let Some(backup) = warm.iter().position(|&x| x == Some(warmest)) {
                            let hedge = [(backup, &batch[..])];
                            let (hreport, houts) = self
                                .dispatch(now, &mut fault, &mut swap_ms, hedge)?
                                .pop()
                                .expect("one planned batch, one result");
                            if fault.settle_hedge(&report, &hreport) {
                                report = hreport;
                                outputs = houts;
                            }
                        }
                    }
                    // Only committed batches count: a failed batch or a
                    // hedge's loser served nothing.
                    fault.note_committed(&report);
                    batches += 1;
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
                        if control.is_some() {
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
            let mut next_event = fault.next_retry_ms();
            if next < stream.len() {
                next_event = next_event.min(stream[next].arrival_ms);
            }
            if !queue.is_empty() {
                let workers = 0..self.pool.num_workers();
                if workers.clone().any(|w| fault.free(w, now)) {
                    if let Some(t) = batch_policy.ready_at(&queue) {
                        next_event = next_event.min(t);
                    }
                } else {
                    next_event = workers.map(|w| fault.release_ms(w)).fold(next_event, f64::min);
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
        // survivor as dropped so conservation holds.
        let stranded = queue.drain(now).into_iter().chain(fault.take_retries());
        dropped.extend(stranded.map(|q| q.dropped(DropReason::ReplicaLost)));
        assert_eq!(
            served.len() + dropped.len(),
            stream.len(),
            "conservation: every admitted query must be served or dropped exactly once"
        );
        debug_assert!(
            conserved_per_tier(stream, self.config.control, &served, &dropped),
            "conservation: per tier, the admitted (tenant, id)s must be the served and dropped ones"
        );
        let makespan_ms =
            fault.drain_ms().max(stream.last().map_or(0.0, |tq| tq.arrival_ms)).max(now);
        let mean_queue_depth = queue.mean_depth(makespan_ms.max(f64::MIN_POSITIVE));
        // Little's law: the queue is empty now, so the depth integral over
        // the run equals the summed stays of every admission.
        let (integral, stays) = (mean_queue_depth * makespan_ms, queue.stay_ms());
        debug_assert!(
            (integral - stays).abs() <= 1e-9 * integral.max(stays),
            "Little's law: mean depth x makespan {integral} != summed queue stays {stays} ms"
        );
        let fault_summary = fault.finish(makespan_ms);
        Ok(SimResult {
            served,
            dropped,
            mean_queue_depth,
            max_queue_depth: queue.max_depth(),
            batches,
            cache_installs,
            swap_ms,
            makespan_ms,
            // One trace shape: totals over the policy's ladders, with the
            // per-tier breakdown only when there is more than one.
            adaptation: control.map(|pol| {
                let ladders: Vec<TierState> = pol.states().collect();
                AdaptationTrace {
                    events,
                    degrades: ladders.iter().map(|t| t.degrades).sum(),
                    upgrades: ladders.iter().map(|t| t.upgrades).sum(),
                    shaped: shaped_count,
                    tiers: if tiered { ladders } else { Vec::new() },
                }
            }),
            faults: self.config.faults.map(|_| fault_summary),
        })
    }

    /// Plans one batch per `(worker, batch)` pair, dispatches them at `now`
    /// as one group on the run's clocks ([`FaultRuntime::occupy`]), and
    /// charges each its PB swap time and any crash re-install, in plan
    /// order. Every dispatch of [`Self::serve_timed`] — a routed group, or
    /// one hedge — goes through here; the group goes first and its hedges
    /// after, and that order of summation and of clock writes keeps
    /// `swap_ms` and every completion time bit-identical.
    fn dispatch<'q>(
        &mut self,
        now: f64,
        fault: &mut FaultRuntime,
        swap_ms: &mut f64,
        batches: impl IntoIterator<Item = (usize, &'q [QueuedQuery])>,
    ) -> Result<Vec<Dispatched>, SushiError> {
        let plan: Vec<PlannedBatch> = batches
            .into_iter()
            .map(|(worker, batch)| PlannedBatch {
                worker,
                row: batch[0].subnet_row,
                query_ids: batch.iter().map(|q| q.timed.query.id).collect(),
                scale: fault.straggler_scale(worker),
            })
            .collect();
        let results = fault.occupy(now, &plan, |plan| {
            self.pool.dispatch_group(now, &self.net, &self.subnets, self.backend.as_mut(), plan)
        })?;
        for (report, _) in &results {
            *swap_ms += report.swap_ms;
            fault.summary.cache_reinstalls += usize::from(report.reinstall);
        }
        Ok(results)
    }
}

/// Whether every query of `stream` left the run exactly once — served or
/// dropped — under the tier its tenant maps to: the admitted and the
/// departed `(tier, tenant, id)` multisets agree, so per tier, admitted =
/// served + dropped. A debug-run check of [`Engine::serve_timed`].
fn conserved_per_tier(
    stream: &[TimedQuery],
    control: Option<TenantOptions>,
    served: &[ServedQuery],
    dropped: &[DroppedQuery],
) -> bool {
    let tier_of = |tenant| control.map_or(TenantTier::Standard, |opts| opts.tier_of(tenant));
    let mut admitted: Vec<_> =
        stream.iter().map(|tq| (tier_of(tq.tenant).index(), tq.tenant, tq.query.id)).collect();
    let mut departed: Vec<_> = served
        .iter()
        .map(|s| (s.tier.index(), s.tenant, s.query.id))
        .chain(dropped.iter().map(|d| (d.tier.index(), d.timed.tenant, d.timed.query.id)))
        .collect();
    admitted.sort_unstable();
    departed.sort_unstable();
    admitted == departed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use crate::serving::arrivals::ArrivalProcess;
    use crate::stream::{attach_arrivals, uniform_stream, ConstraintSpace};
    use sushi_accel::config::zcu104;
    use sushi_sched::CacheSelection;

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
        let ts = ArrivalProcess::Poisson { rate_qps }.timestamps(n, seed ^ 0xD15).unwrap();
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
        let ts = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(100, 77).unwrap();
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
    fn non_finite_arrival_is_a_stream_error() {
        // A query whose arrival is never reached can never be admitted:
        // the loop must refuse the stream, not trip conservation. One that
        // arrives before the call starts at 0 would wait uncounted.
        let (mut s, space) = sim(SimConfig::default());
        let qs = uniform_stream(&space, 2, 1);
        for arrivals in
            [vec![f64::INFINITY], vec![f64::NAN], vec![0.0, f64::INFINITY], vec![-50.0, 1.0]]
        {
            let st: Vec<TimedQuery> =
                arrivals.iter().zip(&qs).map(|(&t, &q)| TimedQuery::new(t, q)).collect();
            let err = s.serve_timed(&st).unwrap_err();
            assert!(matches!(err, SushiError::Stream(_)), "{arrivals:?}: {err}");
        }
    }

    /// A NaN accuracy constraint, or a NaN or negative latency one, is a
    /// stream error on every serving entry point, and a stream holding one
    /// serves nothing. Unbounded latency constraints stay valid.
    #[test]
    fn hostile_constraints_are_stream_errors() {
        let (mut s, space) = sim(SimConfig::default());
        let good = uniform_stream(&space, 1, 1)[0];
        let hostile = [
            Query { accuracy_constraint: f64::NAN, ..good },
            Query { latency_constraint_ms: f64::NAN, ..good },
            Query { latency_constraint_ms: -1.0, ..good },
            Query { latency_constraint_ms: f64::NEG_INFINITY, ..good },
        ];
        for bad in hostile {
            let timed = [TimedQuery::new(0.0, good), TimedQuery::new(1.0, bad)];
            for err in [
                s.serve(&bad).unwrap_err(),
                s.serve_stream(&[good, bad]).unwrap_err(),
                s.serve_timed(&timed).unwrap_err(),
            ] {
                assert!(matches!(err, SushiError::Stream(_)), "{bad:?}: {err}");
            }
        }
        let (mut fresh, _) = sim(SimConfig::default());
        assert_eq!(s.serve(&good).unwrap(), fresh.serve(&good).unwrap(), "nothing was served");
        for ms in [f64::MAX, f64::INFINITY] {
            let q = Query { latency_constraint_ms: ms, ..good };
            assert!(s.serve(&q).unwrap().served_latency_ms <= ms, "{ms}");
            let result = s.serve_timed(&[TimedQuery::new(0.0, q)]).unwrap();
            assert!(result.served.iter().all(ServedQuery::met_slo), "{ms}");
        }
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
            faults: Some(FaultOptions {
                crash_mtbf_ms: 0.5,
                supervised: false,
                ..FaultOptions::default()
            }),
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
            faults: Some(FaultOptions { transient_rate: 0.2, ..FaultOptions::default() }),
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
            faults: base.faults.map(|f| FaultOptions { supervised: false, ..f }),
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

    /// Three replicas under crashes, stragglers and transient failures.
    fn faulty() -> SimConfig {
        SimConfig {
            workers: 3,
            queue_capacity: 32,
            drop_policy: DropPolicy::DeadlineAware,
            batch: BatchPolicy::new(4, 2.0),
            routing: RoutingPolicy::CacheAffinity,
            control: None,
            faults: Some(FaultOptions {
                crash_mtbf_ms: 400.0,
                crash_outage_ms: 60.0,
                straggler_mtbf_ms: 300.0,
                straggler_duration_ms: 50.0,
                straggler_factor: 3.0,
                transient_rate: 0.05,
                ..FaultOptions::default()
            }),
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let (mut a, space) = sim(faulty());
        let (mut b, _) = sim(faulty());
        let st = stream(&space, 250, 180.0, 17);
        assert_eq!(a.serve_timed(&st).unwrap(), b.serve_timed(&st).unwrap());
    }

    /// Two batching replicas and a 60-query stream at 150 qps.
    fn two_workers() -> (Engine, Vec<TimedQuery>) {
        let cfg = SimConfig { workers: 2, batch: BatchPolicy::new(4, 2.0), ..SimConfig::default() };
        let engine = EngineBuilder::new().candidates(6).seed(3).sim_config(cfg).build().unwrap();
        let queries = uniform_stream(&engine.constraint_space(), 60, 8);
        let arrivals = ArrivalProcess::Poisson { rate_qps: 150.0 }.timestamps(60, 8).unwrap();
        (engine, attach_arrivals(&queries, &arrivals))
    }

    /// [`faulty`] serving 250 queries at 180 qps.
    fn faulty_workers() -> (Engine, Vec<TimedQuery>) {
        let (engine, space) = sim(faulty());
        (engine, stream(&space, 250, 180.0, 17))
    }

    /// Each of `workers` workers' first dispatch of a run (`INFINITY` if it
    /// ran none).
    fn first_starts(r: &SimResult, workers: usize) -> Vec<f64> {
        let mut first = vec![f64::INFINITY; workers];
        for q in &r.served {
            first[q.worker] = first[q.worker].min(q.start_ms);
        }
        first
    }

    /// A call that follows earlier calls on one engine starts on an idle
    /// pool at `t = 0`, like a fresh engine's first call: every worker takes
    /// its first batch at the instant a fresh engine's does, so no query
    /// waits on an earlier call's clock. What carries over is the
    /// SubGraph-Stationary state — AvgNet history and resident SubGraphs —
    /// so the result differs from a fresh engine's, and it misses no more
    /// SLOs than a fresh engine does.
    #[test]
    fn a_continuing_call_starts_on_an_idle_pool() {
        type Setup = fn() -> (Engine, Vec<TimedQuery>);
        type Prefix = fn(&mut Engine, &[TimedQuery]);
        let timed: Prefix = |e, st| {
            let _ = e.serve_timed(st).unwrap();
        };
        let replay: Prefix = |e, _| {
            let _ = e.serve_stream(&uniform_stream(&e.constraint_space(), 30, 5)).unwrap();
        };
        let rows: [(&str, Setup, Prefix); 3] = [
            ("(a) the same stream twice", two_workers, timed),
            ("(b) a 30-query replay, then the stream", two_workers, replay),
            ("(c) a fault-injected stream twice", faulty_workers, timed),
        ];
        for (row, setup, prefix) in rows {
            let ((mut engine, stream), (mut fresh, _)) = (setup(), setup());
            prefix(&mut engine, &stream);
            let (continued, fresh) =
                (engine.serve_timed(&stream).unwrap(), fresh.serve_timed(&stream).unwrap());
            let workers = engine.sim_config().workers;
            let first = (first_starts(&continued, workers), first_starts(&fresh, workers));
            assert_eq!(first.0, first.1, "{row}: first dispatches");
            assert_ne!(continued, fresh, "{row}: the SubGraph-Stationary state carried over");
            let (c, f) = (continued.summary(), fresh.summary());
            assert!(c.slo_violation_rate <= f.slo_violation_rate, "{row}: {c:?} vs fresh {f:?}");
        }
    }

    // The per-query replay (`Engine::serve_stream`).

    fn builder() -> EngineBuilder {
        EngineBuilder::new().q_window(8).candidates(12).seed(42)
    }

    fn engine() -> Engine {
        builder().build().expect("valid test configuration")
    }

    #[test]
    fn strict_accuracy_is_always_satisfied() {
        let mut e = engine();
        let qs = uniform_stream(&e.constraint_space(), 100, 1);
        for r in e.serve_stream(&qs).unwrap() {
            assert!(
                r.served_accuracy >= r.query.accuracy_constraint - 1e-12,
                "query {} violated accuracy",
                r.query.id
            );
        }
    }

    #[test]
    fn hit_ratio_is_zero_before_first_cache_install() {
        let mut e = engine();
        let qs = uniform_stream(&e.constraint_space(), 4, 2);
        let records = e.serve_stream(&qs).unwrap();
        assert_eq!(records[0].hit_ratio, 0.0);
    }

    #[test]
    fn hit_ratio_becomes_positive_after_warmup() {
        let mut e = engine();
        let qs = uniform_stream(&e.constraint_space(), 60, 3);
        let records = e.serve_stream(&qs).unwrap();
        let tail_mean: f64 =
            records[20..].iter().map(|r| r.hit_ratio).sum::<f64>() / (records.len() - 20) as f64;
        assert!(tail_mean > 0.3, "tail hit ratio {tail_mean}");
    }

    #[test]
    fn no_sushi_never_caches() {
        let mut e = builder().accel_config(zcu104().without_pb()).build().unwrap();
        let qs = uniform_stream(&e.constraint_space(), 40, 4);
        for r in e.serve_stream(&qs).unwrap() {
            assert_eq!(r.hit_ratio, 0.0);
            assert!(!r.cache_updated);
        }
    }

    #[test]
    fn analytical_records_carry_no_predictions() {
        let mut e = engine();
        let qs = uniform_stream(&e.constraint_space(), 5, 9);
        for r in e.serve_stream(&qs).unwrap() {
            assert_eq!(r.prediction, None);
        }
    }

    #[test]
    fn sushi_beats_no_sushi_on_mean_latency() {
        let mk = || EngineBuilder::new().q_window(10).candidates(12).seed(42);
        let mut no_sushi = mk().accel_config(zcu104().without_pb()).build().unwrap();
        let mut sushi = mk().build().unwrap();
        let qs = uniform_stream(&sushi.constraint_space(), 200, 5);
        let mean = |rs: &[ServedRecord]| {
            rs.iter().map(|r| r.served_latency_ms).sum::<f64>() / rs.len() as f64
        };
        let base = mean(&no_sushi.serve_stream(&qs).unwrap());
        let ours = mean(&sushi.serve_stream(&qs).unwrap());
        assert!(ours < base, "SUSHI {ours} !< No-SUSHI {base}");
    }

    #[test]
    fn serve_stream_length_matches_queries() {
        let mut e = builder().cache_selection(CacheSelection::FollowLast).build().unwrap();
        let qs = uniform_stream(&e.constraint_space(), 17, 6);
        assert_eq!(e.serve_stream(&qs).unwrap().len(), 17);
    }
}
