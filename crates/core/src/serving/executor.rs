//! Multi-worker executor pool.
//!
//! Each worker owns an [`Accelerator`] replica (its own Persistent-Buffer
//! state) and a monotone `busy_until` clock; batches run to completion
//! without preemption. Scheduler cache decisions are *routed*, not
//! broadcast: a decision becomes one pool-level pending install
//! ([`ExecutorPool::route_install`], newest overwrites an unapplied one)
//! that the next dispatched batch's worker applies lazily — so the PB swap
//! cost lands on the replica and batch that first benefit from the new
//! SubGraph, charging cache-swap time against the deadlines of the queries
//! actually in flight (stage B of Fig. 9a, now under load). Replicas
//! therefore hold *different* resident SubGraphs over time, which is what
//! cache-affinity routing ([`crate::serving::routing::RoutingPolicy`])
//! exploits: the serving loop inspects [`ExecutorPool::resident`] and
//! steers each batch to a warm replica when one is free.
//!
//! Execution is delegated to the engine's [`ExecutionBackend`]: the
//! analytical backend advances simulated time only, while the functional
//! backend additionally runs the real packed int8 datapath per dispatched
//! batch and returns per-query predictions. Batches bound for distinct
//! workers at the same simulated instant go down as one *dispatch group*
//! ([`ExecutorPool::dispatch_group`] →
//! [`ExecutionBackend::execute_concurrent`]), which the functional backend
//! executes as genuinely parallel int8 forwards. Timing is identical
//! across backends, so the serving layer never changes *what* is computed
//! — only *when*.

use sushi_accel::backend::{Execution, ExecutionBackend, ExecutionJob};
use sushi_accel::exec::{Accelerator, BatchReport};
use sushi_accel::functional::FunctionalOutput;
use sushi_accel::AccelConfig;
use sushi_wsnet::{SubGraph, SubNet, SuperNet};

use crate::error::SushiError;

/// One simulated worker.
#[derive(Debug, Clone)]
struct Worker {
    accel: Accelerator,
    busy_until_ms: f64,
    /// Service-time multiplier applied to dispatched batches (fault
    /// injection's straggler episodes; `1.0` = nominal, and the nominal
    /// path never multiplies, so faultless timing is bit-identical).
    service_multiplier: f64,
    /// Set by a crash (the replica lost its PB-resident SubGraph);
    /// cleared when the next install lands, which counts as a re-install.
    lost_cache: bool,
}

/// One batch of a dispatch group: which worker runs which SubNet's queries.
#[derive(Debug, Clone)]
pub struct PlannedBatch<'a> {
    /// Worker (replica) index chosen by the routing policy.
    pub worker: usize,
    /// The SubNet every query in the batch resolved to.
    pub subnet: &'a SubNet,
    /// The batched query ids.
    pub query_ids: Vec<u64>,
}

/// What one dispatch did.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct DispatchReport {
    /// Worker index that executed the batch.
    pub worker: usize,
    /// Dispatch (service start) time, ms.
    pub start_ms: f64,
    /// Completion time of every query in the batch, ms.
    pub completion_ms: f64,
    /// The accelerator's batched timing/energy report.
    pub report: BatchReport,
}

/// A pool of accelerator workers with simulated availability clocks.
#[derive(Debug, Clone)]
pub struct ExecutorPool {
    workers: Vec<Worker>,
    /// The newest unapplied cache decision; applied by (and charged to)
    /// the next dispatched batch's worker.
    pending_install: Option<SubGraph>,
    cache_installs: usize,
    swap_ms: f64,
    batches: usize,
    reinstalls: usize,
}

impl ExecutorPool {
    /// Creates `workers` accelerator replicas of `config`.
    ///
    /// # Panics
    /// Panics if `workers == 0` (the engine builder rejects this earlier).
    #[must_use]
    pub fn new(config: &AccelConfig, workers: usize) -> Self {
        assert!(workers > 0, "executor pool needs at least one worker");
        let worker = Worker {
            accel: Accelerator::new(config.clone()),
            busy_until_ms: 0.0,
            service_multiplier: 1.0,
            lost_cache: false,
        };
        Self {
            workers: vec![worker; workers],
            pending_install: None,
            cache_installs: 0,
            swap_ms: 0.0,
            batches: 0,
            reinstalls: 0,
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// When worker `worker` last became (or next becomes) idle, ms.
    #[must_use]
    pub fn busy_until_ms(&self, worker: usize) -> f64 {
        self.workers[worker].busy_until_ms
    }

    /// The SubGraph resident in worker `worker`'s Persistent Buffer
    /// (`None` before its first applied install, or on PB-less configs).
    #[must_use]
    pub fn resident(&self, worker: usize) -> Option<&SubGraph> {
        self.workers[worker].accel.cached()
    }

    /// Time the last worker finishes (the pool's drain point).
    #[must_use]
    pub fn drain_ms(&self) -> f64 {
        self.workers.iter().map(|w| w.busy_until_ms).fold(0.0, f64::max)
    }

    /// Fail-stops worker `worker` (fault injection): its Persistent
    /// Buffer — the resident SubGraph — is lost, so it re-enters cold and
    /// the next install it applies counts as a re-install. The simulated
    /// availability clock is left alone; the serving loop's fault runtime
    /// gates dispatchability while the replica is down.
    pub fn crash_worker(&mut self, worker: usize) {
        self.workers[worker].accel.clear_cache();
        self.workers[worker].lost_cache = true;
    }

    /// Sets worker `worker`'s service-time multiplier (straggler
    /// episodes; `1.0` restores nominal service).
    ///
    /// # Panics
    /// Panics unless `multiplier >= 1` and finite.
    pub fn set_service_multiplier(&mut self, worker: usize, multiplier: f64) {
        assert!(multiplier.is_finite() && multiplier >= 1.0, "service multiplier must be >= 1");
        self.workers[worker].service_multiplier = multiplier;
    }

    /// Worker `worker`'s current service-time multiplier.
    #[must_use]
    pub fn service_multiplier(&self, worker: usize) -> f64 {
        self.workers[worker].service_multiplier
    }

    /// Clamps worker `worker`'s availability clock to at most `until_ms`
    /// (hedge cancellation: the losing replica abandons its duplicate
    /// batch the instant the winner's result lands).
    pub fn clamp_busy(&mut self, worker: usize, until_ms: f64) {
        let w = &mut self.workers[worker];
        w.busy_until_ms = w.busy_until_ms.min(until_ms);
    }

    /// Test hook: pins worker `worker`'s availability clock.
    #[cfg(test)]
    pub(crate) fn force_busy_until(&mut self, worker: usize, until_ms: f64) {
        self.workers[worker].busy_until_ms = until_ms;
    }

    /// Routes a cache decision: the *next dispatched batch's* worker
    /// installs `graph` before executing (the newest decision overwrites
    /// an unapplied one). Other replicas keep their resident SubGraphs —
    /// installs accrete across the pool instead of thrashing every PB.
    pub fn route_install(&mut self, graph: &SubGraph) {
        self.cache_installs += 1;
        self.pending_install = Some(graph.clone());
    }

    /// Dispatches a group of batches — one per distinct free worker — at
    /// the same simulated instant, executing them through
    /// [`ExecutionBackend::execute_concurrent`]. Any pending cache install
    /// is applied by the first batch's worker (its PB reload time is
    /// charged to that batch by the accelerator). Results come back in
    /// plan order.
    ///
    /// # Errors
    /// Returns [`SushiError::Backend`] when the backend fails.
    ///
    /// # Panics
    /// Panics if a planned worker is still busy at `now_ms` or the plan
    /// names the same worker twice (event-loop programming errors).
    pub fn dispatch_group(
        &mut self,
        now_ms: f64,
        net: &SuperNet,
        backend: &mut dyn ExecutionBackend,
        plan: &[PlannedBatch<'_>],
    ) -> Result<Vec<(DispatchReport, Option<Vec<FunctionalOutput>>)>, SushiError> {
        if let (Some(graph), Some(first)) = (self.pending_install.take(), plan.first()) {
            let w = &mut self.workers[first.worker];
            if w.lost_cache {
                // The replica lost its PB state to a crash: this install
                // is a re-pack of state it already paid for once.
                self.reinstalls += 1;
                w.lost_cache = false;
            }
            let _ = w.accel.install_cache(net, graph);
        }
        let mut accels: Vec<Option<&mut Accelerator>> =
            self.workers.iter_mut().map(|w| Some(&mut w.accel)).collect();
        let mut jobs: Vec<ExecutionJob<'_>> = plan
            .iter()
            .map(|b| ExecutionJob {
                worker: b.worker,
                accel: accels[b.worker].take().expect("dispatch group reuses a worker"),
                subnet: b.subnet,
                query_ids: &b.query_ids,
            })
            .collect();
        drop(accels);
        let executions = backend.execute_concurrent(net, &mut jobs)?;
        plan.iter()
            .zip(executions)
            .map(|(b, Execution { report, outputs })| {
                let w = &mut self.workers[b.worker];
                assert!(w.busy_until_ms <= now_ms, "dispatch to a busy worker");
                self.swap_ms += w.accel.config().cycles_to_ms(report.pb_reload_cycles);
                self.batches += 1;
                // The straggler multiplier stretches simulated service
                // time; the nominal path keeps the exact original value.
                let service_ms = if w.service_multiplier == 1.0 {
                    report.total_latency_ms
                } else {
                    report.total_latency_ms * w.service_multiplier
                };
                let completion_ms = now_ms + service_ms;
                w.busy_until_ms = completion_ms;
                Ok((
                    DispatchReport { worker: b.worker, start_ms: now_ms, completion_ms, report },
                    outputs,
                ))
            })
            .collect()
    }

    /// Number of cache decisions routed so far.
    #[must_use]
    pub fn cache_installs(&self) -> usize {
        self.cache_installs
    }

    /// Total PB swap (reload) time actually charged to batches, ms.
    #[must_use]
    pub fn total_swap_ms(&self) -> f64 {
        self.swap_ms
    }

    /// Number of batches dispatched.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Number of applied installs that re-packed a crash-lost PB (a
    /// subset of [`Self::cache_installs`]'s applied decisions).
    #[must_use]
    pub fn reinstalls(&self) -> usize {
        self.reinstalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_accel::backend::Analytical;
    use sushi_accel::config::zcu104;
    use sushi_wsnet::zoo;

    /// Runs `query_ids` as a one-batch dispatch group on `worker`.
    fn dispatch(
        pool: &mut ExecutorPool,
        worker: usize,
        now_ms: f64,
        net: &SuperNet,
        subnet: &SubNet,
        backend: &mut dyn ExecutionBackend,
        query_ids: &[u64],
    ) -> Result<(DispatchReport, Option<Vec<FunctionalOutput>>), SushiError> {
        let plan = [PlannedBatch { worker, subnet, query_ids: query_ids.to_vec() }];
        let mut results = pool.dispatch_group(now_ms, net, backend, &plan)?;
        Ok(results.pop().expect("one batch in, one result out"))
    }

    #[test]
    fn free_worker_query_reports_availability() {
        let pool = ExecutorPool::new(&zcu104(), 3);
        assert!((0..3).all(|w| pool.busy_until_ms(w) == 0.0), "fresh replicas are free at 0");
        assert_eq!(pool.drain_ms(), 0.0);
        assert!(pool.resident(0).is_none(), "fresh replicas hold no resident SubGraph");
    }

    #[test]
    fn dispatch_advances_worker_clock() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 2);
        let (d, outputs) =
            dispatch(&mut pool, 0, 5.0, &net, &picks[0], &mut Analytical, &[0, 1, 2, 3]).unwrap();
        assert!(outputs.is_none(), "analytical backend produces no outputs");
        assert_eq!(d.start_ms, 5.0);
        assert!(d.completion_ms > 5.0);
        assert_eq!(pool.busy_until_ms(0), d.completion_ms);
        assert_eq!(pool.busy_until_ms(1), 0.0, "the other replica stays free");
        assert_eq!(pool.batches(), 1);
    }

    #[test]
    fn pending_install_charges_swap_to_next_batch() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 1);
        let b = &mut Analytical;
        let (cold, _) = dispatch(&mut pool, 0, 0.0, &net, &picks[0], b, &[0, 1]).unwrap();
        assert_eq!(cold.report.pb_reload_cycles, 0);
        pool.route_install(&picks[0].graph);
        let t = cold.completion_ms;
        let (warmup, _) = dispatch(&mut pool, 0, t, &net, &picks[0], b, &[2, 3]).unwrap();
        assert!(warmup.report.pb_reload_cycles > 0, "swap charged to in-flight batch");
        assert!(pool.total_swap_ms() > 0.0);
        let (steady, _) =
            dispatch(&mut pool, 0, warmup.completion_ms, &net, &picks[0], b, &[4, 5]).unwrap();
        assert_eq!(steady.report.pb_reload_cycles, 0);
        assert!(steady.report.total_latency_ms < cold.report.total_latency_ms);
        assert_eq!(pool.cache_installs(), 1);
    }

    #[test]
    fn installs_are_routed_to_one_replica_not_broadcast() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 2);
        pool.route_install(&picks[0].graph);
        let plan = [
            PlannedBatch { worker: 1, subnet: &picks[0], query_ids: vec![0, 1] },
            PlannedBatch { worker: 0, subnet: &picks[0], query_ids: vec![2] },
        ];
        let results = pool.dispatch_group(0.0, &net, &mut Analytical, &plan).unwrap();
        assert_eq!(results.len(), 2);
        assert!(pool.resident(1).is_some(), "install applied by the first planned worker");
        assert!(pool.resident(0).is_none(), "other replicas keep their PB state");
        assert!(results[0].0.report.pb_reload_cycles > 0, "swap charged to the installing batch");
        assert_eq!(results[1].0.report.pb_reload_cycles, 0);
        assert_eq!(pool.batches(), 2);
    }

    #[test]
    fn group_results_match_sequential_dispatches() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut grouped = ExecutorPool::new(&zcu104(), 2);
        let plan = [
            PlannedBatch { worker: 0, subnet: &picks[0], query_ids: vec![0, 1] },
            PlannedBatch { worker: 1, subnet: &picks[1], query_ids: vec![2] },
        ];
        let group = grouped.dispatch_group(1.0, &net, &mut Analytical, &plan).unwrap();
        let mut seq = ExecutorPool::new(&zcu104(), 2);
        let (a, _) = dispatch(&mut seq, 0, 1.0, &net, &picks[0], &mut Analytical, &[0, 1]).unwrap();
        let (b, _) = dispatch(&mut seq, 1, 1.0, &net, &picks[1], &mut Analytical, &[2]).unwrap();
        assert_eq!(group[0].0, a, "group timing is identical to lone dispatches");
        assert_eq!(group[1].0, b);
    }

    #[test]
    fn empty_batch_surfaces_as_a_backend_error() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 1);
        let err = dispatch(&mut pool, 0, 0.0, &net, &picks[0], &mut Analytical, &[]).unwrap_err();
        assert!(matches!(err, SushiError::Backend(_)));
    }

    #[test]
    fn crash_loses_the_resident_cache_and_next_install_is_a_reinstall() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 1);
        pool.route_install(&picks[0].graph);
        let (d, _) = dispatch(&mut pool, 0, 0.0, &net, &picks[0], &mut Analytical, &[0]).unwrap();
        assert!(pool.resident(0).is_some());
        assert_eq!(pool.reinstalls(), 0);
        pool.crash_worker(0);
        assert!(pool.resident(0).is_none(), "a crash loses the PB-resident SubGraph");
        pool.route_install(&picks[0].graph);
        let _ = dispatch(&mut pool, 0, d.completion_ms, &net, &picks[0], &mut Analytical, &[1])
            .unwrap();
        assert_eq!(pool.reinstalls(), 1, "re-packing crash-lost state is accounted separately");
        assert_eq!(pool.cache_installs(), 2);
    }

    #[test]
    fn straggler_multiplier_stretches_service_time() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut nominal = ExecutorPool::new(&zcu104(), 1);
        let (base, _) =
            dispatch(&mut nominal, 0, 0.0, &net, &picks[0], &mut Analytical, &[0]).unwrap();
        let mut slow = ExecutorPool::new(&zcu104(), 1);
        slow.set_service_multiplier(0, 3.0);
        let (stretched, _) =
            dispatch(&mut slow, 0, 0.0, &net, &picks[0], &mut Analytical, &[0]).unwrap();
        let base_ms = base.completion_ms - base.start_ms;
        let slow_ms = stretched.completion_ms - stretched.start_ms;
        assert!((slow_ms - 3.0 * base_ms).abs() < 1e-9, "{slow_ms} vs 3x{base_ms}");
        assert_eq!(stretched.report, base.report, "the nominal report is unchanged");
        slow.set_service_multiplier(0, 1.0);
        let (recovered, _) =
            dispatch(&mut slow, 0, stretched.completion_ms, &net, &picks[0], &mut Analytical, &[1])
                .unwrap();
        assert_eq!(recovered.completion_ms - recovered.start_ms, base_ms);
    }

    #[test]
    fn clamp_busy_only_moves_the_clock_earlier() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 1);
        let (d, _) = dispatch(&mut pool, 0, 0.0, &net, &picks[0], &mut Analytical, &[0]).unwrap();
        pool.clamp_busy(0, d.completion_ms + 100.0);
        assert_eq!(pool.busy_until_ms(0), d.completion_ms, "clamp never extends");
        pool.clamp_busy(0, d.completion_ms / 2.0);
        assert_eq!(pool.busy_until_ms(0), d.completion_ms / 2.0);
    }

    #[test]
    #[should_panic(expected = "busy worker")]
    fn dispatch_to_busy_worker_panics() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let mut pool = ExecutorPool::new(&zcu104(), 1);
        let _ = dispatch(&mut pool, 0, 0.0, &net, &picks[0], &mut Analytical, &[0]);
        let _ = dispatch(&mut pool, 0, 0.0, &net, &picks[0], &mut Analytical, &[1]);
    }
}
