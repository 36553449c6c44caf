//! Multi-worker executor pool.
//!
//! Each worker is an accelerator replica: the column of the engine's
//! [`ServiceTable`] resident in its Persistent Buffer. The pool holds only
//! what an engine carries from one serving call to the next — the service
//! table, each replica's resident column and crash-lost flag, and the
//! pending install. It has no clock: a serving call's replica clocks are
//! the call's own (`FaultRuntime` in `serving::fault`), and batches run to
//! completion without preemption.
//! Scheduler cache decisions are *routed*, not broadcast: a decision
//! becomes one pool-level pending install
//! ([`ExecutorPool::route_install`], newest overwrites an unapplied one)
//! that the next dispatched batch's worker applies lazily — so the PB swap
//! cost lands on the replica and batch that first benefit from the new
//! SubGraph, charging cache-swap time against the deadlines of the queries
//! actually in flight (stage B of Fig. 9a, now under load). Replicas
//! therefore hold *different* resident SubGraphs over time, which is what
//! cache-affinity routing ([`crate::serving::routing::RoutingPolicy`])
//! exploits: the serving loop reads how much of a batch's SubNet each
//! replica's resident column holds ([`ExecutorPool::overlap`]) and steers
//! each batch to a warm replica when one is free.
//!
//! Every batch is priced from the [`ServiceTable`]: service time, traffic
//! and energy are lookups, whichever backend runs the batch. The engine's
//! [`ExecutionBackend`] only produces outputs — none from the analytical
//! backend, per-query predictions from the functional backend's packed
//! int8 datapath. Batches bound for distinct workers at the same simulated
//! instant go down as one *dispatch group* ([`ExecutorPool::dispatch_group`]),
//! whose batches the backend executes one call each
//! ([`ExecutionBackend::execute`]): replicas are simulated, so running
//! them one after another on the host changes no simulated value. The
//! serving layer never changes *what* is computed — only *when*.

use std::sync::Arc;

use sushi_accel::backend::ExecutionBackend;
use sushi_accel::exec::{BatchReport, ServiceTable};
use sushi_accel::functional::FunctionalOutput;
use sushi_wsnet::{SubNet, SuperNet};

use crate::error::SushiError;

/// One simulated worker's SubGraph-Stationary state, which an engine
/// carries from one serving call to the next.
#[derive(Debug, Clone)]
struct Worker {
    /// Service-table column resident in the replica's Persistent Buffer.
    resident: Option<usize>,
    /// Set by a crash (the replica lost its PB-resident SubGraph);
    /// cleared when the next install lands, which is then a re-install.
    lost_cache: bool,
}

/// One batch of a dispatch group: which worker runs which SubNet's queries.
#[derive(Debug, Clone)]
pub(crate) struct PlannedBatch {
    /// Worker (replica) index chosen by the routing policy.
    pub worker: usize,
    /// Serving-set row every query in the batch resolved to.
    pub row: usize,
    /// The batched query ids.
    pub query_ids: Vec<u64>,
    /// Service-time multiplier of the worker's straggler episode (`1.0`
    /// nominal; `x * 1.0 == x`, so nominal timing is exact).
    pub scale: f64,
}

/// What one dispatch did.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub(crate) struct DispatchReport {
    /// Worker index that executed the batch.
    pub worker: usize,
    /// Dispatch (service start) time, ms.
    pub start_ms: f64,
    /// Completion time of every query in the batch, ms.
    pub completion_ms: f64,
    /// The batch's timing/energy report, priced from the service table.
    pub report: BatchReport,
    /// PB swap (reload) time charged to this batch, ms.
    pub swap_ms: f64,
    /// Whether this batch's install re-packed a PB a crash had emptied.
    pub reinstall: bool,
}

/// One dispatched batch: its report, and the backend's outputs when it
/// computes any.
pub(crate) type Dispatched = (DispatchReport, Option<Vec<FunctionalOutput>>);

/// A pool of accelerator workers and their resident SubGraphs. It keeps
/// no clocks and no running totals: each [`DispatchReport`] says what its batch
/// cost, and a serving run counts what it needs.
#[derive(Debug, Clone)]
pub(crate) struct ExecutorPool {
    service: Arc<ServiceTable>,
    workers: Vec<Worker>,
    /// The newest unapplied cache decision (a service-table column);
    /// applied by (and charged to) the next dispatched batch's worker.
    pending_install: Option<usize>,
}

impl ExecutorPool {
    /// Creates `workers` accelerator replicas priced by `service`.
    ///
    /// # Panics
    /// Panics if `workers == 0` (the engine builder rejects this earlier).
    #[must_use]
    pub(crate) fn new(service: Arc<ServiceTable>, workers: usize) -> Self {
        assert!(workers > 0, "executor pool needs at least one worker");
        let worker = Worker { resident: None, lost_cache: false };
        Self { service, workers: vec![worker; workers], pending_install: None }
    }

    /// Number of workers.
    #[must_use]
    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The service-table column resident in worker `worker`'s Persistent
    /// Buffer (`None` before its first applied install, after a crash, or
    /// on PB-less configs).
    #[cfg(test)]
    pub(crate) fn resident(&self, worker: usize) -> Option<usize> {
        self.workers[worker].resident
    }

    /// How much of serving-set row `row`'s weights worker `worker`'s
    /// resident SubGraph holds (`overlap_ratio`; `0` with an empty PB).
    pub(crate) fn overlap(&self, worker: usize, row: usize) -> f64 {
        self.service.overlap(row, self.workers[worker].resident)
    }

    /// Fail-stops worker `worker` (fault injection): its Persistent
    /// Buffer — the resident SubGraph — is lost, so it re-enters cold and
    /// the next install it applies is a re-install. The serving loop's
    /// fault runtime gates dispatchability while the replica is down.
    pub(crate) fn crash_worker(&mut self, worker: usize) {
        self.workers[worker].resident = None;
        self.workers[worker].lost_cache = true;
    }

    /// Routes a cache decision: the *next dispatched batch's* worker
    /// installs service-table column `col` before executing (the newest
    /// decision overwrites an unapplied one). Other replicas keep their
    /// resident SubGraphs — installs accrete across the pool instead of
    /// thrashing every PB.
    pub(crate) fn route_install(&mut self, col: usize) {
        self.pending_install = Some(col);
    }

    /// Dispatches a group of batches — one per distinct worker — at the
    /// same simulated instant `now_ms` (whether each worker is free then is
    /// the caller's clock to keep). The plan is checked first and the
    /// backend executes its batches in plan order, one
    /// [`ExecutionBackend::execute`] call each; only after every batch has
    /// returned does the first batch's worker apply any pending cache
    /// install and every batch get priced from the service table, the
    /// install's PB reload charged to the first batch. A failed dispatch
    /// leaves the pool as it found it. Results come back in plan order.
    ///
    /// # Errors
    /// Returns [`SushiError::Internal`] when the plan names a worker twice,
    /// and [`SushiError::Backend`] when the backend fails.
    pub(crate) fn dispatch_group(
        &mut self,
        now_ms: f64,
        net: &SuperNet,
        subnets: &[SubNet],
        backend: &mut dyn ExecutionBackend,
        plan: &[PlannedBatch],
    ) -> Result<Vec<Dispatched>, SushiError> {
        for (i, b) in plan.iter().enumerate() {
            if plan[..i].iter().any(|o| o.worker == b.worker) {
                return Err(SushiError::Internal(format!(
                    "dispatch to repeated worker {}",
                    b.worker
                )));
            }
        }
        let outputs = plan
            .iter()
            .map(|b| backend.execute(net, &subnets[b.row], &b.query_ids))
            .collect::<Result<Vec<_>, _>>()?;
        let (mut reload_cycles, mut reinstall) = (0, false);
        if let (Some(first), Some(col)) = (plan.first(), self.pending_install) {
            self.pending_install = None;
            let w = &mut self.workers[first.worker];
            // A replica that lost its PB state to a crash re-packs state it
            // already paid for once.
            reinstall = std::mem::take(&mut w.lost_cache);
            (w.resident, reload_cycles) = self.service.install(w.resident, col);
        }
        let results = plan
            .iter()
            .zip(outputs)
            .map(|(b, outputs)| {
                let resident = self.workers[b.worker].resident;
                let reload = std::mem::take(&mut reload_cycles);
                let report = self.service.price(b.row, resident, b.query_ids.len(), reload);
                let dispatch = DispatchReport {
                    worker: b.worker,
                    start_ms: now_ms,
                    completion_ms: now_ms + report.total_latency_ms * b.scale,
                    swap_ms: self.service.config().cycles_to_ms(report.pb_reload_cycles),
                    reinstall: std::mem::take(&mut reinstall),
                    report,
                };
                (dispatch, outputs)
            })
            .collect();
        Ok(results)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sushi_accel::backend::{Analytical, BackendError, Functional};
    use sushi_accel::config::zcu104;
    use sushi_accel::dpe::DpeArray;
    use sushi_wsnet::zoo;

    /// A pool over the toy SuperNet's largest SubNet, for tests that drive
    /// crashes and stragglers rather than pricing.
    pub(crate) fn toy_pool(workers: usize) -> ExecutorPool {
        let net = zoo::toy_supernet();
        let max = net.materialize("max", &net.max_config()).expect("the max config is valid");
        ExecutorPool::new(Arc::new(ServiceTable::build(&zcu104(), &net, &[max], &[])), workers)
    }

    /// A nominal-speed batch of `query_ids` of row `row` on `worker`.
    pub(crate) fn planned(worker: usize, row: usize, query_ids: &[u64]) -> PlannedBatch {
        PlannedBatch { worker, row, query_ids: query_ids.to_vec(), scale: 1.0 }
    }

    /// MobileNetV3's paper picks on a ZCU104 pool whose service table's
    /// column 1 is pick 0's SubGraph.
    pub(crate) struct Fixture {
        net: SuperNet,
        picks: Vec<SubNet>,
        pool: ExecutorPool,
    }

    impl Fixture {
        pub(crate) fn new(workers: usize) -> Self {
            let net = zoo::mobilenet_v3_supernet();
            let picks = zoo::paper_subnets(&net);
            let service = ServiceTable::build(&zcu104(), &net, &picks, &[picks[0].graph.clone()]);
            Self { net, picks, pool: ExecutorPool::new(Arc::new(service), workers) }
        }

        pub(crate) fn group(
            &mut self,
            now_ms: f64,
            backend: &mut dyn ExecutionBackend,
            plan: &[PlannedBatch],
        ) -> Result<Vec<Dispatched>, SushiError> {
            self.pool.dispatch_group(now_ms, &self.net, &self.picks, backend, plan)
        }

        /// Runs `query_ids` of row `row` as a one-batch group on `worker`.
        fn dispatch(
            &mut self,
            worker: usize,
            now_ms: f64,
            row: usize,
            backend: &mut dyn ExecutionBackend,
            query_ids: &[u64],
        ) -> Result<Dispatched, SushiError> {
            let plan = [planned(worker, row, query_ids)];
            Ok(self.group(now_ms, backend, &plan)?.pop().expect("one batch in, one result out"))
        }
    }

    /// Fails every batch.
    #[derive(Debug)]
    pub(crate) struct Failing;

    impl ExecutionBackend for Failing {
        fn execute(
            &mut self,
            _: &SuperNet,
            _: &SubNet,
            _: &[u64],
        ) -> Result<Option<Vec<FunctionalOutput>>, BackendError> {
            Err(BackendError::EmptyBatch)
        }
    }

    #[test]
    fn fresh_replicas_hold_no_resident_subgraph() {
        let pool = toy_pool(3);
        assert!((0..3).all(|w| pool.resident(w).is_none()), "no install has been applied");
    }

    #[test]
    fn pending_install_charges_swap_to_next_batch() {
        let mut f = Fixture::new(1);
        let b = &mut Analytical;
        let (cold, _) = f.dispatch(0, 0.0, 0, b, &[0, 1]).unwrap();
        assert_eq!((cold.report.pb_reload_cycles, cold.swap_ms), (0, 0.0));
        f.pool.route_install(1);
        let (warmup, _) = f.dispatch(0, cold.completion_ms, 0, b, &[2, 3]).unwrap();
        assert!(warmup.report.pb_reload_cycles > 0, "swap charged to in-flight batch");
        let cycles_ms = f.pool.service.config().cycles_to_ms(warmup.report.pb_reload_cycles);
        assert!(warmup.swap_ms > 0.0 && warmup.swap_ms == cycles_ms);
        let (steady, _) = f.dispatch(0, warmup.completion_ms, 0, b, &[4, 5]).unwrap();
        assert_eq!((steady.report.pb_reload_cycles, steady.swap_ms), (0, 0.0), "applied once");
        assert!(steady.report.total_latency_ms < cold.report.total_latency_ms);
    }

    #[test]
    fn installs_are_routed_to_one_replica_not_broadcast() {
        let mut f = Fixture::new(2);
        f.pool.route_install(1);
        let plan = [planned(1, 0, &[0, 1]), planned(0, 0, &[2])];
        let results = f.group(0.0, &mut Analytical, &plan).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(f.pool.resident(1), Some(1), "install applied by the first planned worker");
        assert!(f.pool.resident(0).is_none(), "other replicas keep their PB state");
        assert!(results[0].0.swap_ms > 0.0, "swap charged to the installing batch");
        assert_eq!((results[1].0.report.pb_reload_cycles, results[1].0.swap_ms), (0, 0.0));
    }

    #[test]
    fn group_results_match_sequential_dispatches() {
        let mut grouped = Fixture::new(2);
        let plan = [planned(0, 0, &[0, 1]), planned(1, 1, &[2])];
        let group = grouped.group(1.0, &mut Analytical, &plan).unwrap();
        let mut seq = Fixture::new(2);
        let (a, _) = seq.dispatch(0, 1.0, 0, &mut Analytical, &[0, 1]).unwrap();
        let (b, _) = seq.dispatch(1, 1.0, 1, &mut Analytical, &[2]).unwrap();
        assert_eq!(group[0].0, a, "group timing is identical to lone dispatches");
        assert_eq!(group[1].0, b);
    }

    #[test]
    fn empty_batch_surfaces_as_a_backend_error() {
        let mut f = Fixture::new(1);
        let err = f.dispatch(0, 0.0, 0, &mut Analytical, &[]).unwrap_err();
        assert!(matches!(err, SushiError::Backend(_)));
    }

    #[test]
    fn crash_loses_the_resident_cache_and_next_install_is_a_reinstall() {
        let mut f = Fixture::new(1);
        f.pool.route_install(1);
        let (d, _) = f.dispatch(0, 0.0, 0, &mut Analytical, &[0]).unwrap();
        assert!(f.pool.resident(0).is_some());
        assert!(d.swap_ms > 0.0 && !d.reinstall, "a first install is not a re-install");
        f.pool.crash_worker(0);
        assert!(f.pool.resident(0).is_none(), "a crash loses the PB-resident SubGraph");
        f.pool.route_install(1);
        let (again, _) = f.dispatch(0, d.completion_ms, 0, &mut Analytical, &[1]).unwrap();
        assert!(again.report.pb_reload_cycles > 0, "the lost SubGraph is reloaded");
        assert_eq!(again.swap_ms, d.swap_ms, "the re-pack costs what the first pack did");
        assert!(again.reinstall, "re-packing crash-lost state is reported separately");
        f.pool.route_install(1);
        let (later, _) = f.dispatch(0, again.completion_ms, 0, &mut Analytical, &[2]).unwrap();
        assert!(!later.reinstall, "the next install finds the PB intact");
    }

    #[test]
    fn straggler_multiplier_stretches_service_time() {
        let mut nominal = Fixture::new(1);
        let (base, _) = nominal.dispatch(0, 0.0, 0, &mut Analytical, &[0]).unwrap();
        let mut slow = Fixture::new(1);
        let plan = [PlannedBatch { scale: 3.0, ..planned(0, 0, &[0]) }];
        let (stretched, _) = slow.group(0.0, &mut Analytical, &plan).unwrap().pop().unwrap();
        let base_ms = base.completion_ms - base.start_ms;
        let slow_ms = stretched.completion_ms - stretched.start_ms;
        assert!((slow_ms - 3.0 * base_ms).abs() < 1e-9, "{slow_ms} vs 3x{base_ms}");
        assert_eq!(stretched.report, base.report, "the nominal report is unchanged");
        let (recovered, _) =
            slow.dispatch(0, stretched.completion_ms, 0, &mut Analytical, &[1]).unwrap();
        assert_eq!(recovered.completion_ms - recovered.start_ms, base_ms);
    }

    #[test]
    fn dispatch_to_a_repeated_worker_is_an_error() {
        let mut f = Fixture::new(2);
        f.pool.route_install(1);
        let twice = [planned(1, 0, &[2]), planned(1, 1, &[3])];
        let err = f.group(0.0, &mut Analytical, &twice).unwrap_err();
        assert!(matches!(err, SushiError::Internal(_)), "{err}");
        // A rejected plan dispatches nothing: the install is still pending.
        assert!(f.pool.resident(1).is_none());
        let (d, _) = f.dispatch(1, 0.0, 0, &mut Analytical, &[2]).unwrap();
        assert!(d.swap_ms > 0.0 && f.pool.resident(1).is_some());
    }

    #[test]
    fn a_failed_dispatch_leaves_the_pool_as_it_found_it() {
        let (mut failed, mut clean) = (Fixture::new(2), Fixture::new(2));
        for f in [&mut failed, &mut clean] {
            f.pool.crash_worker(0);
            f.pool.route_install(1);
        }
        let plan = [planned(0, 0, &[0]), planned(1, 1, &[1])];
        let err = failed.group(0.0, &mut Failing, &plan).unwrap_err();
        assert!(matches!(err, SushiError::Backend(_)), "{err}");
        // The first batch executes before the second one fails.
        let second_empty = [planned(0, 0, &[0]), planned(1, 1, &[])];
        let err = failed.group(0.0, &mut Analytical, &second_empty).unwrap_err();
        assert!(matches!(err, SushiError::Backend(BackendError::EmptyBatch)), "{err}");
        for w in 0..2 {
            assert_eq!(failed.pool.resident(w), clean.pool.resident(w));
        }
        let after_failure = failed.group(0.0, &mut Analytical, &plan).unwrap();
        let never_failed = clean.group(0.0, &mut Analytical, &plan).unwrap();
        assert!(never_failed[0].0.swap_ms > 0.0, "the install is still pending");
        assert!(after_failure[0].0.reinstall, "and the crash-lost PB still counts as lost");
        assert_eq!(after_failure, never_failed, "same completions, swap and re-install flags");
    }

    #[test]
    fn backends_agree_on_timing() {
        let net = zoo::toy_supernet();
        let picks = sushi_wsnet::sampler::ConfigSampler::new(&net, 5).sample_subnets(3);
        let service = Arc::new(ServiceTable::build(&zcu104(), &net, &picks, &[]));
        let plan = [planned(0, 1, &[4, 5])];
        let mut analytical = ExecutorPool::new(Arc::clone(&service), 1);
        let mut functional = ExecutorPool::new(service, 1);
        let ana = analytical.dispatch_group(0.0, &net, &picks, &mut Analytical, &plan).unwrap();
        let mut backend = Functional::new(DpeArray::new(2, 2), &net, 9);
        let fun = functional.dispatch_group(0.0, &net, &picks, &mut backend, &plan).unwrap();
        assert_eq!(ana[0].0, fun[0].0, "backends must agree on simulated timing");
        assert!(ana[0].1.is_none() && fun[0].1.as_ref().is_some_and(|o| o.len() == 2));
    }
}
