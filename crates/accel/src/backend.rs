//! Pluggable execution backends: the seam between *what* the serving stack
//! decides and *how* a dispatched batch is executed.
//!
//! The SUSHI stack makes one kind of decision (which SubNet serves which
//! query, and which SubGraph the Persistent Buffer holds) but has two ways
//! of executing it:
//!
//! * [`Analytical`] — the cycle-approximate timing/energy model
//!   ([`Accelerator::serve_batch`]) behind every §5 experiment. Nothing
//!   numeric runs; full-size SuperNets simulate in microseconds.
//! * [`Functional`] — the same timing model *plus* the bit-exact packed
//!   int8 datapath ([`crate::functional::forward_batch_cached`]): every
//!   dispatched batch executes for real and records per-query predictions.
//!   Each SubNet is installed once — weights sliced, IR lowered to a plan,
//!   panels packed (the subgraph-stationary state, shared across workers
//!   behind `Arc`; it is immutable after the install) — while kernel scratch
//!   stays private: one reused [`Arena`] per worker. Intended for the toy
//!   zoo; full-size nets take seconds per forward.
//!
//! Both implement [`ExecutionBackend`], which the `sushi-core` engine
//! dispatches through — per serving-stack worker, against that worker's own
//! [`Accelerator`] replica (its Persistent-Buffer state), so the timing
//! semantics are identical across backends and only the presence of real
//! outputs differs. Batches dispatched to *different* workers at the same
//! simulated instant go through [`ExecutionBackend::execute_concurrent`];
//! the functional backend runs them as real parallel int8 forwards under
//! [`std::thread::scope`], all reading the same pack-once caches.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, Shape4, Tensor, TensorError};
use sushi_wsnet::{SubNet, SuperNet, WeightStore};

use crate::dpe::DpeArray;
use crate::exec::{Accelerator, BatchReport};
use crate::functional::{act_quant, forward_batch_cached, FunctionalOutput, SubgraphCache};

/// Failures raised by an [`ExecutionBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendError {
    /// A batch with zero queries was dispatched.
    EmptyBatch,
    /// The SubNet does not belong to the SuperNet being served.
    SubnetMismatch {
        /// Layer count of the offending SubNet.
        subnet_layers: usize,
        /// Layer count of the SuperNet.
        net_layers: usize,
    },
    /// The functional datapath failed (weight packing or layer execution).
    Execution(TensorError),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::EmptyBatch => write!(f, "cannot execute an empty batch"),
            BackendError::SubnetMismatch { subnet_layers, net_layers } => {
                write!(f, "SubNet has {subnet_layers} layers but the SuperNet has {net_layers}")
            }
            BackendError::Execution(e) => write!(f, "functional datapath failed: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<TensorError> for BackendError {
    fn from(e: TensorError) -> Self {
        BackendError::Execution(e)
    }
}

/// What executing one batch produced: the accelerator's timing/energy
/// report, plus real per-query outputs when the backend runs the datapath.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct Execution {
    /// Batched timing/energy report (identical across backends).
    pub report: BatchReport,
    /// Per-query functional outputs, in query order (`None` for the
    /// analytical backend).
    pub outputs: Option<Vec<FunctionalOutput>>,
}

/// Execution-state memory footprint of a backend: the pack-once weight
/// caches plus reusable kernel scratch. The serving soak tests assert this
/// stays bounded over long runs (steady state allocates nothing per query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes reserved by the per-worker kernel-scratch [`Arena`]s, summed
    /// over workers (each arena holds the high-water mark of one batch,
    /// reused by all later batches on that worker).
    pub arena_reserved_bytes: usize,
    /// SubNets whose weights have been sliced and panel-packed (each at
    /// most once, on first dispatch — bounded by the serving-set size).
    /// Packed panels are shared by every worker, so they are counted once
    /// here no matter how many replicas read them.
    pub packed_subnets: usize,
    /// Workers that have materialized a private scratch arena (grown
    /// lazily on first dispatch to that worker index).
    pub arena_workers: usize,
    /// Layers holding install-time weight panels, summed over the packed
    /// SubNets: each was packed exactly once, in one layout, at its
    /// SubNet's install — whatever the worker count.
    pub packed_layers: usize,
    /// Conv calls that packed weights per call instead of reading the
    /// install-time panels ([`Arena::weight_packs`]), summed over workers.
    pub per_call_weight_packs: usize,
}

/// One worker's slice of a concurrent dispatch group: a same-SubNet batch
/// bound to the worker's own [`Accelerator`] replica.
///
/// Worker indices within one group must be distinct — each names the
/// private scratch arena the batch executes with.
#[derive(Debug)]
pub struct ExecutionJob<'a> {
    /// Worker (replica) index executing this batch.
    pub worker: usize,
    /// That worker's accelerator (Persistent-Buffer + timing state).
    pub accel: &'a mut Accelerator,
    /// The SubNet every query in the batch resolved to.
    pub subnet: &'a SubNet,
    /// The batched query ids.
    pub query_ids: &'a [u64],
}

/// How a dispatched batch of same-SubNet queries is executed.
///
/// The caller owns the [`Accelerator`] (one replica per serving worker, so
/// Persistent-Buffer state stays per-worker); the backend owns whatever
/// execution state it needs across batches (e.g. the functional backend's
/// pack-once weight caches). Timing flows through the accelerator either
/// way, so swapping backends never changes *when* things complete — only
/// whether real outputs exist.
pub trait ExecutionBackend: fmt::Debug {
    /// Stable backend label (used in reports and CLI flags).
    fn name(&self) -> &'static str;

    /// Executes `query_ids` (one batch, all resolved to `subnet`) on
    /// `accel`, advancing its timing state.
    ///
    /// # Errors
    /// Returns an error on an empty batch, a SubNet/SuperNet mismatch, or
    /// a functional datapath failure.
    fn execute_batch(
        &mut self,
        accel: &mut Accelerator,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Execution, BackendError>;

    /// Executes a group of batches dispatched to distinct workers at the
    /// same simulated instant, returning one [`Execution`] per job in job
    /// order.
    ///
    /// The default runs the jobs sequentially through
    /// [`ExecutionBackend::execute_batch`] — correct for any backend, and
    /// all the timing-only [`Analytical`] backend needs (simulated time is
    /// advanced per-worker either way). [`Functional`] overrides it to run
    /// the real int8 forwards concurrently. Results are independent of the
    /// execution interleaving by construction, so both paths produce
    /// bit-identical outputs.
    ///
    /// # Errors
    /// Returns the first per-batch failure (empty batch, SubNet mismatch,
    /// datapath error), checked in job order.
    fn execute_concurrent(
        &mut self,
        net: &SuperNet,
        jobs: &mut [ExecutionJob<'_>],
    ) -> Result<Vec<Execution>, BackendError> {
        jobs.iter_mut()
            .map(|job| self.execute_batch(job.accel, net, job.subnet, job.query_ids))
            .collect()
    }

    /// Memory held as execution state across batches (`None` for stateless
    /// backends like [`Analytical`]).
    fn memory_stats(&self) -> Option<MemoryStats> {
        None
    }
}

/// Checks the invariants shared by every backend before touching the
/// accelerator (whose own entry points panic on programmer error).
fn validate_batch(net: &SuperNet, subnet: &SubNet, query_ids: &[u64]) -> Result<(), BackendError> {
    if query_ids.is_empty() {
        return Err(BackendError::EmptyBatch);
    }
    if subnet.graph.num_layers() != net.num_layers() {
        return Err(BackendError::SubnetMismatch {
            subnet_layers: subnet.graph.num_layers(),
            net_layers: net.num_layers(),
        });
    }
    Ok(())
}

/// Timing-only execution through the analytic latency/energy model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analytical;

impl ExecutionBackend for Analytical {
    fn name(&self) -> &'static str {
        "analytical"
    }

    fn execute_batch(
        &mut self,
        accel: &mut Accelerator,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Execution, BackendError> {
        validate_batch(net, subnet, query_ids)?;
        Ok(Execution { report: accel.serve_batch(net, subnet, query_ids.len()), outputs: None })
    }
}

/// Real-datapath execution: the analytic timing model *plus* bit-exact
/// packed int8 forwards for every dispatched batch.
///
/// Synthesizes a deterministic input per query id and executes whole
/// batches through [`forward_batch_cached`] under the backend's `DpeArray`
/// kernel policy. The backend is the serving stack's *subgraph-stationary*
/// software state: the first batch served under a SubNet builds its
/// [`SubgraphCache`] (sliced weights + packed GEMM panels) exactly once;
/// every later batch under that SubNet reads the panels in place. The
/// caches are `Arc`-shared — panels are immutable after the build, so any
/// number of workers read one pack-once copy concurrently
/// ([`ExecutionBackend::execute_concurrent`]) while each worker owns a
/// private scratch [`Arena`] reused across its queries — the steady state
/// allocates nothing per query, and [`MemoryStats::packed_layers`] is
/// independent of worker count.
#[derive(Debug)]
pub struct Functional {
    dpe: DpeArray,
    store: WeightStore,
    input_seed: u64,
    /// Whether cache installs lower the SubNet IR under the full rewrite
    /// catalog, fusing conv epilogues onto the k-pair datapath (on by
    /// default; logits are bit-identical either way).
    fusion: bool,
    caches: HashMap<String, Arc<SubgraphCache>>,
    /// Per-worker scratch, grown lazily to the highest worker index seen
    /// (`arenas[w]` is worker `w`'s private arena).
    arenas: Vec<Arena>,
    /// Times an existing cache entry was rebuilt because the same SubNet
    /// name arrived with a different SubGraph (first-time packs excluded).
    repacks: usize,
}

impl Functional {
    /// Creates a backend with synthesized weights for `net`. IR fusion is
    /// on by default; see [`Functional::with_fusion`].
    #[must_use]
    pub fn new(dpe: DpeArray, net: &SuperNet, seed: u64) -> Self {
        Self {
            dpe,
            store: WeightStore::synthesize(net, seed),
            input_seed: seed ^ 0x1A7E,
            fusion: true,
            caches: HashMap::new(),
            arenas: Vec::new(),
            repacks: 0,
        }
    }

    /// Enables or disables install-time IR fusion. With fusion off, cache
    /// installs lower the plan without the layout annotation
    /// ([`SubgraphCache::build`]), so every conv runs conv, bias,
    /// requantize, activation — the pre-IR arithmetic, bit for bit.
    #[must_use]
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Builds (or reuses) the shared pack-once cache for `subnet`.
    ///
    /// Packing happens here, on the dispatching thread, *before* any
    /// worker fans out — so the pack count depends only on the set of
    /// SubNets served, never on how many workers serve them.
    fn ensure_cache(
        &mut self,
        net: &SuperNet,
        subnet: &SubNet,
    ) -> Result<Arc<SubgraphCache>, BackendError> {
        if !self.caches.get(&subnet.name).is_some_and(|c| c.matches(&subnet.graph)) {
            // First dispatch under this SubNet (or same name, different
            // SubGraph — defensive): slice, lower and pack once.
            let cache = SubgraphCache::install(net, &self.store, subnet, self.fusion)?;
            if self.caches.insert(subnet.name.clone(), Arc::new(cache)).is_some() {
                self.repacks += 1;
            }
        }
        Ok(Arc::clone(&self.caches[&subnet.name]))
    }

    /// The private scratch arena for worker `worker`, growing the
    /// per-worker set if this index has not executed before.
    fn arena_for(&mut self, worker: usize) -> &mut Arena {
        if self.arenas.len() <= worker {
            self.arenas.resize_with(worker + 1, Arena::new);
        }
        &mut self.arenas[worker]
    }

    /// The synthesized weight store (shared across all SubNets).
    #[must_use]
    pub fn store(&self) -> &WeightStore {
        &self.store
    }

    /// Number of SubNets whose weights have been packed so far (each packed
    /// exactly once, on first dispatch).
    #[must_use]
    pub fn packed_subnets(&self) -> usize {
        self.caches.len()
    }

    /// Times a cache entry was *re*built — the same SubNet name served
    /// with a different SubGraph after its first pack. Zero in healthy
    /// serving (names are stable); nonzero flags a zoo whose SubNet
    /// identities churn, each churn paying a full slice + pack.
    #[must_use]
    pub fn repacks(&self) -> usize {
        self.repacks
    }

    /// The deterministic input tensor for a query id.
    #[must_use]
    pub fn input_for(&self, net: &SuperNet, query_id: u64) -> Tensor<i8> {
        let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
        let mut rng = DetRng::new(self.input_seed ^ query_id.wrapping_mul(0x9E37_79B9));
        let f = Tensor::from_vec(
            shape,
            (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect(),
        )
        .expect("shape matches");
        quantize_tensor(&f, act_quant())
    }
}

impl ExecutionBackend for Functional {
    fn name(&self) -> &'static str {
        "functional"
    }

    fn execute_batch(
        &mut self,
        accel: &mut Accelerator,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Execution, BackendError> {
        validate_batch(net, subnet, query_ids)?;
        let inputs: Vec<Tensor<i8>> = query_ids.iter().map(|&id| self.input_for(net, id)).collect();
        let cache = self.ensure_cache(net, subnet)?;
        // A lone batch executes on the dispatching thread with worker 0's
        // scratch; only concurrent groups fan out to per-worker arenas.
        let _ = self.arena_for(0);
        let Self { dpe, store, arenas, .. } = self;
        let outputs =
            forward_batch_cached(dpe, net, store, subnet, Some(&cache), &mut arenas[0], &inputs)?;
        Ok(Execution {
            report: accel.serve_batch(net, subnet, query_ids.len()),
            outputs: Some(outputs),
        })
    }

    fn execute_concurrent(
        &mut self,
        net: &SuperNet,
        jobs: &mut [ExecutionJob<'_>],
    ) -> Result<Vec<Execution>, BackendError> {
        // Validate, synthesize inputs, and build any missing caches
        // *serially* before fanning out: packing stays deterministic and
        // provably worker-count-independent, and every error surfaces in
        // job order.
        let mut prepared: Vec<(Arc<SubgraphCache>, Vec<Tensor<i8>>)> = Vec::new();
        for job in jobs.iter() {
            validate_batch(net, job.subnet, job.query_ids)?;
            let cache = self.ensure_cache(net, job.subnet)?;
            let inputs = job.query_ids.iter().map(|&id| self.input_for(net, id)).collect();
            prepared.push((cache, inputs));
        }
        let max_worker = jobs.iter().map(|j| j.worker).max().unwrap_or(0);
        let _ = self.arena_for(max_worker); // grow the per-worker set
        let mut arenas: Vec<Option<&mut Arena>> = self.arenas.iter_mut().map(Some).collect();
        let dpe = self.dpe;
        let store = &self.store;
        // One thread per job, each forwarding with its worker's private
        // arena; the shared caches are read-only behind Arc. Outputs are
        // per-query deterministic, so thread scheduling cannot change them.
        let forwards: Vec<Result<Vec<FunctionalOutput>, TensorError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .zip(&prepared)
                    .map(|(job, (cache, inputs))| {
                        let arena = arenas[job.worker]
                            .take()
                            .expect("dispatch group reuses a worker index");
                        let subnet = job.subnet;
                        scope.spawn(move || {
                            forward_batch_cached(
                                &dpe,
                                net,
                                store,
                                subnet,
                                Some(cache.as_ref()),
                                arena,
                                inputs,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("forward thread panicked")).collect()
            });
        jobs.iter_mut()
            .zip(forwards)
            .map(|(job, outputs)| {
                Ok(Execution {
                    report: job.accel.serve_batch(net, job.subnet, job.query_ids.len()),
                    outputs: Some(outputs?),
                })
            })
            .collect()
    }

    fn memory_stats(&self) -> Option<MemoryStats> {
        Some(MemoryStats {
            arena_reserved_bytes: self.arenas.iter().map(Arena::reserved_bytes).sum(),
            packed_subnets: self.caches.len(),
            arena_workers: self.arenas.len(),
            packed_layers: self.caches.values().map(|c| c.packed_layers() + c.fused_layers()).sum(),
            per_call_weight_packs: self.arenas.iter().map(Arena::weight_packs).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::zcu104;
    use crate::functional::forward;
    use sushi_wsnet::zoo;

    fn toy_setup() -> (SuperNet, Vec<SubNet>) {
        let net = zoo::toy_supernet();
        let picks = {
            let mut s = sushi_wsnet::sampler::ConfigSampler::new(&net, 5);
            s.sample_subnets(3)
        };
        (net, picks)
    }

    #[test]
    fn analytical_matches_serve_batch_and_has_no_outputs() {
        let (net, picks) = toy_setup();
        let mut a = Accelerator::new(zcu104());
        let mut b = Accelerator::new(zcu104());
        let expect = a.serve_batch(&net, &picks[0], 3);
        let exec = Analytical.execute_batch(&mut b, &net, &picks[0], &[0, 1, 2]).unwrap();
        assert_eq!(exec.report, expect);
        assert!(exec.outputs.is_none());
        assert_eq!(Analytical.name(), "analytical");
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let (net, picks) = toy_setup();
        let mut accel = Accelerator::new(zcu104());
        let err = Analytical.execute_batch(&mut accel, &net, &picks[0], &[]).unwrap_err();
        assert_eq!(err, BackendError::EmptyBatch);
        let mut func = Functional::new(DpeArray::new(2, 2), &net, 7);
        let err = func.execute_batch(&mut accel, &net, &picks[0], &[]).unwrap_err();
        assert_eq!(err, BackendError::EmptyBatch);
    }

    #[test]
    fn subnet_mismatch_is_an_error() {
        let (net, _) = toy_setup();
        let other = zoo::toy_mobilenet_supernet();
        let foreign = other.materialize("max", &other.max_config()).unwrap();
        let mut accel = Accelerator::new(zcu104());
        let err = Analytical.execute_batch(&mut accel, &net, &foreign, &[0]).unwrap_err();
        assert!(matches!(err, BackendError::SubnetMismatch { .. }));
    }

    #[test]
    fn functional_outputs_match_single_query_forwards_and_pack_once() {
        let (net, picks) = toy_setup();
        let mut accel = Accelerator::new(zcu104());
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 77);
        let exec = backend.execute_batch(&mut accel, &net, &picks[0], &[0, 1, 2]).unwrap();
        let outs = exec.outputs.expect("functional outputs");
        assert_eq!(outs.len(), 3);
        assert_eq!(backend.packed_subnets(), 1, "first dispatch packs the SubNet once");
        let again = backend.execute_batch(&mut accel, &net, &picks[0], &[0, 1, 2]).unwrap();
        assert_eq!(again.outputs.as_deref(), Some(&outs[..]));
        assert_eq!(backend.packed_subnets(), 1);
        for (&id, out) in [0u64, 1, 2].iter().zip(&outs) {
            let single = forward(
                &DpeArray::new(4, 4),
                &net,
                backend.store(),
                &picks[0],
                &backend.input_for(&net, id),
            )
            .unwrap();
            assert_eq!(&single, out);
        }
    }

    #[test]
    fn same_name_different_graph_counts_a_repack() {
        let (net, picks) = toy_setup();
        let mut accel = Accelerator::new(zcu104());
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 77);
        let _ = backend.execute_batch(&mut accel, &net, &picks[0], &[0]).unwrap();
        let _ = backend.execute_batch(&mut accel, &net, &picks[0], &[1]).unwrap();
        assert_eq!(backend.repacks(), 0, "stable identity never repacks");
        // Same name, a different SubGraph: the defensive rebuild path.
        let mut churned = picks[1].clone();
        churned.name = picks[0].name.clone();
        let _ = backend.execute_batch(&mut accel, &net, &churned, &[2]).unwrap();
        assert_eq!(backend.repacks(), 1, "identity churn pays a repack");
        assert_eq!(backend.packed_subnets(), 1, "the churned entry replaces, not adds");
    }

    #[test]
    fn memory_stats_are_bounded_and_absent_for_analytical() {
        let (net, picks) = toy_setup();
        assert_eq!(Analytical.memory_stats(), None);
        let mut accel = Accelerator::new(zcu104());
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 3);
        assert_eq!(backend.memory_stats(), Some(MemoryStats::default()));
        let _ = backend.execute_batch(&mut accel, &net, &picks[0], &[0, 1]).unwrap();
        let after_first = backend.memory_stats().unwrap();
        assert!(after_first.arena_reserved_bytes > 0);
        assert_eq!(after_first.packed_subnets, 1);
        // Steady state: re-dispatching the same SubNet grows nothing.
        for _ in 0..4 {
            let _ = backend.execute_batch(&mut accel, &net, &picks[0], &[2, 3]).unwrap();
        }
        assert_eq!(backend.memory_stats(), Some(after_first));
    }

    #[test]
    fn concurrent_group_matches_sequential_outputs_and_packs_once() {
        let (net, picks) = toy_setup();
        // Sequential oracle: the same batches, one at a time.
        let mut seq = Functional::new(DpeArray::new(4, 4), &net, 21);
        let mut oracle_accel = Accelerator::new(zcu104());
        let s0 = seq.execute_batch(&mut oracle_accel, &net, &picks[0], &[0, 1]).unwrap();
        let s1 = seq.execute_batch(&mut oracle_accel, &net, &picks[1], &[2, 3, 4]).unwrap();

        let mut par = Functional::new(DpeArray::new(4, 4), &net, 21);
        let mut accels = vec![Accelerator::new(zcu104()); 3];
        let mut it = accels.iter_mut();
        let (a0, a1, a2) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
        let mut jobs = vec![
            ExecutionJob { worker: 0, accel: a0, subnet: &picks[0], query_ids: &[0, 1] },
            ExecutionJob { worker: 1, accel: a1, subnet: &picks[1], query_ids: &[2, 3, 4] },
            ExecutionJob { worker: 2, accel: a2, subnet: &picks[0], query_ids: &[0, 1] },
        ];
        let execs = par.execute_concurrent(&net, &mut jobs).unwrap();
        assert_eq!(execs.len(), 3);
        assert_eq!(execs[0].outputs, s0.outputs, "worker 0 logits match sequential");
        assert_eq!(execs[1].outputs, s1.outputs, "worker 1 logits match sequential");
        assert_eq!(execs[2].outputs, s0.outputs, "two workers on one SubNet agree");
        assert_eq!(par.packed_subnets(), 2, "one shared pack per SubNet, not per worker");
        let stats = par.memory_stats().unwrap();
        assert_eq!(stats.arena_workers, 3, "each worker owns a private arena");
        assert_eq!(stats.packed_subnets, 2);
        assert!(stats.arena_reserved_bytes > 0);
    }

    #[test]
    fn backends_agree_on_timing() {
        let (net, picks) = toy_setup();
        let mut a = Accelerator::new(zcu104());
        let mut f = Accelerator::new(zcu104());
        let ana = Analytical.execute_batch(&mut a, &net, &picks[1], &[4, 5]).unwrap();
        let mut backend = Functional::new(DpeArray::new(2, 2), &net, 9);
        let fun = backend.execute_batch(&mut f, &net, &picks[1], &[4, 5]).unwrap();
        assert_eq!(ana.report, fun.report, "backends must agree on simulated timing");
    }
}
