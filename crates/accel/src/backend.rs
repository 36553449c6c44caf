//! Pluggable execution backends: the seam between *what* the serving stack
//! decides and *how* a dispatched batch is executed.
//!
//! The SUSHI stack makes one kind of decision (which SubNet serves which
//! query, and which SubGraph the Persistent Buffer holds) and prices it in
//! one place, the engine's [`ServiceTable`](crate::exec::ServiceTable). A
//! backend decides only whether the batch also runs for real:
//!
//! * [`Analytical`] — nothing numeric runs: the batch is validated and
//!   produces no outputs, so full-size SuperNets simulate in microseconds.
//! * [`Functional`] — the bit-exact packed int8 datapath
//!   ([`crate::functional::forward_batch_cached`]): every
//!   dispatched batch executes for real and records per-query predictions.
//!   Each SubNet is installed once — weights sliced, IR lowered to a plan,
//!   panels packed (the subgraph-stationary state, shared across workers
//!   behind `Arc`; it is immutable after the install) — while kernel scratch
//!   stays private: one reused [`Arena`] per worker. Intended for the toy
//!   zoo; full-size nets take seconds per forward.
//!
//! Both implement [`ExecutionBackend`], which the `sushi-core` engine
//! dispatches through. No timing flows through a backend, so swapping
//! backends never changes *when* things complete — only whether real
//! outputs exist. Batches dispatched to *different* workers at the same
//! simulated instant go through [`ExecutionBackend::execute_concurrent`];
//! the functional backend runs them as real parallel int8 forwards under
//! [`std::thread::scope`], all reading the same pack-once caches. Each
//! forward splits its large kernels across the worker pool of its own
//! worker's [`Arena`]; nothing yet budgets the jobs' threads and the pools'
//! together.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, Shape4, Tensor, TensorError};
use sushi_wsnet::{SubNet, SuperNet, WeightStore};

use crate::dpe::DpeArray;
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

/// One worker's slice of a concurrent dispatch group: a same-SubNet batch.
///
/// Worker indices within one group must be distinct — each names the
/// private scratch arena the batch executes with.
#[derive(Debug)]
pub struct ExecutionJob<'a> {
    /// Worker (replica) index executing this batch.
    pub worker: usize,
    /// The SubNet every query in the batch resolved to.
    pub subnet: &'a SubNet,
    /// The batched query ids.
    pub query_ids: &'a [u64],
}

/// How a dispatched batch of same-SubNet queries is executed.
///
/// The backend owns whatever execution state it needs across batches (e.g.
/// the functional backend's pack-once weight caches) and returns the
/// batch's per-query outputs in query order, or `None` when it runs no
/// datapath. Pricing the batch is the caller's: the serving stack reads it
/// from its service table, whichever backend executes.
pub trait ExecutionBackend: fmt::Debug {
    /// Executes a group of batches dispatched to distinct workers at the
    /// same simulated instant, returning each job's outputs in job order.
    /// A lone batch is a group of one job.
    ///
    /// [`Functional`] runs the real int8 forwards of a group concurrently.
    /// Results are independent of the execution interleaving by
    /// construction, so any group size produces bit-identical outputs.
    ///
    /// # Errors
    /// Returns the first per-batch failure (empty batch, SubNet mismatch,
    /// datapath error), checked in job order.
    fn execute_concurrent(
        &mut self,
        net: &SuperNet,
        jobs: &[ExecutionJob<'_>],
    ) -> Result<Vec<Option<Vec<FunctionalOutput>>>, BackendError>;

    /// Memory held as execution state across batches (`None` for stateless
    /// backends like [`Analytical`]).
    fn memory_stats(&self) -> Option<MemoryStats> {
        None
    }
}

/// Checks the invariants shared by every backend before executing.
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

/// Executes nothing: validates the batch and returns no outputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analytical;

impl ExecutionBackend for Analytical {
    fn execute_concurrent(
        &mut self,
        net: &SuperNet,
        jobs: &[ExecutionJob<'_>],
    ) -> Result<Vec<Option<Vec<FunctionalOutput>>>, BackendError> {
        jobs.iter()
            .map(|job| validate_batch(net, job.subnet, job.query_ids).map(|()| None))
            .collect()
    }
}

/// One job's pack-once cache and synthesized inputs, ready to forward.
type Prepared = (Arc<SubgraphCache>, Vec<Tensor<i8>>);

/// Real-datapath execution: bit-exact packed int8 forwards for every
/// dispatched batch.
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
    /// Whether cache installs lower the SubNet IR with fusion on, routing
    /// GEMM-bound convs onto the fused k-pair datapath (on by default;
    /// logits are bit-identical either way).
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
    fn execute_concurrent(
        &mut self,
        net: &SuperNet,
        jobs: &[ExecutionJob<'_>],
    ) -> Result<Vec<Option<Vec<FunctionalOutput>>>, BackendError> {
        // Validate, synthesize inputs, and build any missing caches
        // *serially* before fanning out: packing stays deterministic and
        // provably worker-count-independent, and every error surfaces in
        // job order.
        let mut prepared: Vec<Prepared> = Vec::new();
        for job in jobs.iter() {
            validate_batch(net, job.subnet, job.query_ids)?;
            let cache = self.ensure_cache(net, job.subnet)?;
            let inputs = job.query_ids.iter().map(|&id| self.input_for(net, id)).collect();
            prepared.push((cache, inputs));
        }
        // Grow the per-worker scratch set to the highest worker index.
        let workers = jobs.iter().map(|j| j.worker + 1).max().unwrap_or(0);
        self.arenas.resize_with(workers.max(self.arenas.len()), Arena::new);
        let mut arenas: Vec<Option<&mut Arena>> = self.arenas.iter_mut().map(Some).collect();
        let dpe = self.dpe;
        let store = &self.store;
        let mut arena_of = |job: &ExecutionJob<'_>| {
            arenas[job.worker].take().expect("dispatch group reuses a worker index")
        };
        let forward = |job: &ExecutionJob<'_>, (cache, inputs): &Prepared, arena| {
            forward_batch_cached(&dpe, net, store, job.subnet, Some(cache.as_ref()), arena, inputs)
        };
        // A lone batch runs on the dispatching thread. A group runs one
        // thread per job, each forwarding with its worker's private arena;
        // the shared caches are read-only behind Arc. Outputs are per-query
        // deterministic, so thread scheduling cannot change them.
        let forwards: Vec<Result<Vec<FunctionalOutput>, TensorError>> = if let ([job], [lone]) =
            (jobs, &prepared[..])
        {
            vec![forward(job, lone, arena_of(job))]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .zip(&prepared)
                    .map(|(job, p)| {
                        let arena = arena_of(job);
                        scope.spawn(move || forward(job, p, arena))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("forward thread panicked")).collect()
            })
        };
        forwards.into_iter().map(|outputs| Ok(Some(outputs?))).collect()
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
    use crate::functional::forward_cached;
    use sushi_wsnet::zoo;

    /// One batch on worker 0: a dispatch group of one job.
    fn execute(
        backend: &mut dyn ExecutionBackend,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Option<Vec<FunctionalOutput>>, BackendError> {
        let job = ExecutionJob { worker: 0, subnet, query_ids };
        Ok(backend.execute_concurrent(net, &[job])?.pop().flatten())
    }

    fn toy_setup() -> (SuperNet, Vec<SubNet>) {
        let net = zoo::toy_supernet();
        let picks = {
            let mut s = sushi_wsnet::sampler::ConfigSampler::new(&net, 5);
            s.sample_subnets(3)
        };
        (net, picks)
    }

    #[test]
    fn analytical_validates_and_has_no_outputs() {
        let (net, picks) = toy_setup();
        assert_eq!(execute(&mut Analytical, &net, &picks[0], &[0, 1, 2]), Ok(None));
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let (net, picks) = toy_setup();
        let err = execute(&mut Analytical, &net, &picks[0], &[]).unwrap_err();
        assert_eq!(err, BackendError::EmptyBatch);
        let mut func = Functional::new(DpeArray::new(2, 2), &net, 7);
        let err = execute(&mut func, &net, &picks[0], &[]).unwrap_err();
        assert_eq!(err, BackendError::EmptyBatch);
    }

    #[test]
    fn subnet_mismatch_is_an_error() {
        let (net, _) = toy_setup();
        let other = zoo::toy_mobilenet_supernet();
        let foreign = other.materialize("max", &other.max_config()).unwrap();
        let err = execute(&mut Analytical, &net, &foreign, &[0]).unwrap_err();
        assert!(matches!(err, BackendError::SubnetMismatch { .. }));
    }

    #[test]
    fn functional_outputs_match_single_query_forwards_and_pack_once() {
        let (net, picks) = toy_setup();
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 77);
        let outs = execute(&mut backend, &net, &picks[0], &[0, 1, 2]).unwrap();
        let outs = outs.expect("functional outputs");
        assert_eq!(outs.len(), 3);
        assert_eq!(backend.packed_subnets(), 1, "first dispatch packs the SubNet once");
        let again = execute(&mut backend, &net, &picks[0], &[0, 1, 2]).unwrap();
        assert_eq!(again.as_deref(), Some(&outs[..]));
        assert_eq!(backend.packed_subnets(), 1);
        for (&id, out) in [0u64, 1, 2].iter().zip(&outs) {
            let single = forward_cached(
                &DpeArray::new(4, 4),
                &net,
                backend.store(),
                &picks[0],
                None,
                &mut Arena::new(),
                &backend.input_for(&net, id),
            )
            .unwrap();
            assert_eq!(&single, out);
        }
    }

    #[test]
    fn same_name_different_graph_counts_a_repack() {
        let (net, picks) = toy_setup();
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 77);
        let _ = execute(&mut backend, &net, &picks[0], &[0]).unwrap();
        let _ = execute(&mut backend, &net, &picks[0], &[1]).unwrap();
        assert_eq!(backend.repacks(), 0, "stable identity never repacks");
        // Same name, a different SubGraph: the defensive rebuild path.
        let mut churned = picks[1].clone();
        churned.name = picks[0].name.clone();
        let _ = execute(&mut backend, &net, &churned, &[2]).unwrap();
        assert_eq!(backend.repacks(), 1, "identity churn pays a repack");
        assert_eq!(backend.packed_subnets(), 1, "the churned entry replaces, not adds");
    }

    #[test]
    fn memory_stats_are_bounded_and_absent_for_analytical() {
        let (net, picks) = toy_setup();
        assert_eq!(Analytical.memory_stats(), None);
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 3);
        assert_eq!(backend.memory_stats(), Some(MemoryStats::default()));
        let _ = execute(&mut backend, &net, &picks[0], &[0, 1]).unwrap();
        let after_first = backend.memory_stats().unwrap();
        assert!(after_first.arena_reserved_bytes > 0);
        assert_eq!(after_first.packed_subnets, 1);
        // Steady state: re-dispatching the same SubNet grows nothing.
        for _ in 0..4 {
            let _ = execute(&mut backend, &net, &picks[0], &[2, 3]).unwrap();
        }
        assert_eq!(backend.memory_stats(), Some(after_first));
    }

    #[test]
    fn concurrent_group_matches_sequential_outputs_and_packs_once() {
        let (net, picks) = toy_setup();
        // Sequential oracle: the same batches, one at a time.
        let mut seq = Functional::new(DpeArray::new(4, 4), &net, 21);
        let s0 = execute(&mut seq, &net, &picks[0], &[0, 1]).unwrap();
        let s1 = execute(&mut seq, &net, &picks[1], &[2, 3, 4]).unwrap();

        let mut par = Functional::new(DpeArray::new(4, 4), &net, 21);
        let jobs = [
            ExecutionJob { worker: 0, subnet: &picks[0], query_ids: &[0, 1] },
            ExecutionJob { worker: 1, subnet: &picks[1], query_ids: &[2, 3, 4] },
            ExecutionJob { worker: 2, subnet: &picks[0], query_ids: &[0, 1] },
        ];
        let execs = par.execute_concurrent(&net, &jobs).unwrap();
        assert_eq!(execs.len(), 3);
        assert_eq!(execs[0], s0, "worker 0 logits match sequential");
        assert_eq!(execs[1], s1, "worker 1 logits match sequential");
        assert_eq!(execs[2], s0, "two workers on one SubNet agree");
        assert_eq!(par.packed_subnets(), 2, "one shared pack per SubNet, not per worker");
        let stats = par.memory_stats().unwrap();
        assert_eq!(stats.arena_workers, 3, "each worker owns a private arena");
        assert_eq!(stats.packed_subnets, 2);
        assert!(stats.arena_reserved_bytes > 0);
    }
}
