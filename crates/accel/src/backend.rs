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
//!   panels packed (the subgraph-stationary state) — and every batch runs
//!   on the backend's one reused [`Arena`].
//!
//! Both implement [`ExecutionBackend`], which the `sushi-core` engine
//! dispatches through one batch per call. No timing flows through a
//! backend, so swapping backends never changes *when* things complete —
//! only whether real outputs exist. A replica is a simulated accelerator
//! priced by the service table, so batches bound for different replicas at
//! the same simulated instant still run one after another on the host.
//! Each forward splits its large kernels across the arena's worker pool,
//! the only threads the backend owns.

use std::collections::HashMap;
use std::fmt;

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
    /// Bytes reserved by the kernel-scratch [`Arena`]: the high-water mark
    /// of one batch, reused by every later batch.
    pub arena_reserved_bytes: usize,
    /// SubNets whose weights have been sliced and panel-packed (each at
    /// most once, on first dispatch — bounded by the serving-set size,
    /// whatever the replica count).
    pub packed_subnets: usize,
    /// Layers holding install-time weight panels, summed over the packed
    /// SubNets: each was packed exactly once, in one layout, at its
    /// SubNet's install.
    pub packed_layers: usize,
    /// Conv calls that packed weights per call instead of reading the
    /// install-time panels ([`Arena::weight_packs`]).
    pub per_call_weight_packs: usize,
}

/// How a dispatched batch of same-SubNet queries is executed.
///
/// The backend owns whatever execution state it needs across batches (e.g.
/// the functional backend's pack-once weight caches) and returns the
/// batch's per-query outputs in query order, or `None` when it runs no
/// datapath. Pricing the batch is the caller's: the serving stack reads it
/// from its service table, whichever backend executes.
pub trait ExecutionBackend: fmt::Debug {
    /// Executes one batch: every query in `query_ids` resolved to `subnet`.
    ///
    /// # Errors
    /// Returns [`BackendError::EmptyBatch`] for an empty batch,
    /// [`BackendError::SubnetMismatch`] for a SubNet of another SuperNet,
    /// and [`BackendError::Execution`] when the datapath fails.
    fn execute(
        &mut self,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Option<Vec<FunctionalOutput>>, BackendError>;

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
    fn execute(
        &mut self,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Option<Vec<FunctionalOutput>>, BackendError> {
        validate_batch(net, subnet, query_ids).map(|()| None)
    }
}

/// Real-datapath execution: bit-exact packed int8 forwards for every
/// dispatched batch.
///
/// Synthesizes a deterministic input per query id and executes whole
/// batches through [`forward_batch_cached`] under the backend's `DpeArray`
/// kernel policy. The backend is the serving stack's *subgraph-stationary*
/// software state: the first batch served under a SubNet builds its
/// [`SubgraphCache`] (sliced weights + packed GEMM panels) exactly once;
/// every later batch under that SubNet reads the panels in place, whichever
/// replica it was dispatched to. Every batch runs on one scratch [`Arena`]
/// reused across queries, whose worker pool splits each forward's large
/// kernels — the steady state allocates nothing per query, and
/// [`MemoryStats::packed_layers`] is independent of the replica count.
#[derive(Debug)]
pub struct Functional {
    dpe: DpeArray,
    store: WeightStore,
    input_seed: u64,
    /// Whether cache installs lower the SubNet IR with fusion on, routing
    /// GEMM-bound convs onto the fused k-pair datapath (on by default;
    /// logits are bit-identical either way).
    fusion: bool,
    caches: HashMap<String, SubgraphCache>,
    /// Kernel scratch and worker pool for every batch.
    arena: Arena,
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
            arena: Arena::new(),
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
    fn execute(
        &mut self,
        net: &SuperNet,
        subnet: &SubNet,
        query_ids: &[u64],
    ) -> Result<Option<Vec<FunctionalOutput>>, BackendError> {
        validate_batch(net, subnet, query_ids)?;
        if !self.caches.get(&subnet.name).is_some_and(|c| c.matches(&subnet.graph)) {
            // First dispatch under this SubNet (or same name, different
            // SubGraph — defensive): slice, lower and pack once.
            let cache = SubgraphCache::install(net, &self.store, subnet, self.fusion)?;
            if self.caches.insert(subnet.name.clone(), cache).is_some() {
                self.repacks += 1;
            }
        }
        let inputs: Vec<Tensor<i8>> = query_ids.iter().map(|&id| self.input_for(net, id)).collect();
        let cache = &self.caches[&subnet.name];
        let outputs = forward_batch_cached(
            &self.dpe,
            net,
            &self.store,
            subnet,
            Some(cache),
            &mut self.arena,
            &inputs,
        )?;
        Ok(Some(outputs))
    }

    fn memory_stats(&self) -> Option<MemoryStats> {
        Some(MemoryStats {
            arena_reserved_bytes: self.arena.reserved_bytes(),
            packed_subnets: self.caches.len(),
            packed_layers: self.caches.values().map(|c| c.packed_layers() + c.fused_layers()).sum(),
            per_call_weight_packs: self.arena.weight_packs(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::forward_cached;
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
    fn analytical_validates_and_has_no_outputs() {
        let (net, picks) = toy_setup();
        assert_eq!(Analytical.execute(&net, &picks[0], &[0, 1, 2]), Ok(None));
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let (net, picks) = toy_setup();
        let err = Analytical.execute(&net, &picks[0], &[]).unwrap_err();
        assert_eq!(err, BackendError::EmptyBatch);
        let mut func = Functional::new(DpeArray::new(2, 2), &net, 7);
        let err = func.execute(&net, &picks[0], &[]).unwrap_err();
        assert_eq!(err, BackendError::EmptyBatch);
    }

    #[test]
    fn subnet_mismatch_is_an_error() {
        let (net, _) = toy_setup();
        let other = zoo::toy_mobilenet_supernet();
        let foreign = other.materialize("max", &other.max_config()).unwrap();
        let err = Analytical.execute(&net, &foreign, &[0]).unwrap_err();
        assert!(matches!(err, BackendError::SubnetMismatch { .. }));
    }

    #[test]
    fn functional_outputs_match_single_query_forwards_and_pack_once() {
        let (net, picks) = toy_setup();
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 77);
        let outs = backend.execute(&net, &picks[0], &[0, 1, 2]).unwrap();
        let outs = outs.expect("functional outputs");
        assert_eq!(outs.len(), 3);
        assert_eq!(backend.packed_subnets(), 1, "first dispatch packs the SubNet once");
        let again = backend.execute(&net, &picks[0], &[0, 1, 2]).unwrap();
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
        let _ = backend.execute(&net, &picks[0], &[0]).unwrap();
        let _ = backend.execute(&net, &picks[0], &[1]).unwrap();
        assert_eq!(backend.repacks(), 0, "stable identity never repacks");
        // Same name, a different SubGraph: the defensive rebuild path.
        let mut churned = picks[1].clone();
        churned.name = picks[0].name.clone();
        let _ = backend.execute(&net, &churned, &[2]).unwrap();
        assert_eq!(backend.repacks(), 1, "identity churn pays a repack");
        assert_eq!(backend.packed_subnets(), 1, "the churned entry replaces, not adds");
    }

    #[test]
    fn memory_stats_are_bounded_and_absent_for_analytical() {
        let (net, picks) = toy_setup();
        assert_eq!(Analytical.memory_stats(), None);
        let mut backend = Functional::new(DpeArray::new(4, 4), &net, 3);
        assert_eq!(backend.memory_stats(), Some(MemoryStats::default()));
        let _ = backend.execute(&net, &picks[0], &[0, 1]).unwrap();
        let after_first = backend.memory_stats().unwrap();
        assert!(after_first.arena_reserved_bytes > 0);
        assert_eq!(after_first.packed_subnets, 1);
        // Steady state: re-dispatching the same SubNet grows nothing.
        for _ in 0..4 {
            let _ = backend.execute(&net, &picks[0], &[2, 3]).unwrap();
        }
        assert_eq!(backend.memory_stats(), Some(after_first));
    }

    #[test]
    fn interleaved_subnets_match_fresh_backends_and_pack_once() {
        let (net, picks) = toy_setup();
        // Oracle: each batch on a backend of its own.
        let fresh = |subnet: &SubNet, ids: &[u64]| {
            Functional::new(DpeArray::new(4, 4), &net, 21).execute(&net, subnet, ids).unwrap()
        };
        let (s0, s1) = (fresh(&picks[0], &[0, 1]), fresh(&picks[1], &[2, 3, 4]));

        // One backend, SubNets interleaved on its one arena and cache set.
        let mut shared = Functional::new(DpeArray::new(4, 4), &net, 21);
        assert_eq!(shared.execute(&net, &picks[0], &[0, 1]).unwrap(), s0);
        assert_eq!(shared.execute(&net, &picks[1], &[2, 3, 4]).unwrap(), s1);
        assert_eq!(shared.execute(&net, &picks[0], &[0, 1]).unwrap(), s0, "a revisit agrees");
        assert_eq!(shared.packed_subnets(), 2, "one pack per SubNet, not per batch");
        let stats = shared.memory_stats().unwrap();
        assert_eq!(stats.packed_subnets, 2);
        assert_eq!(stats.per_call_weight_packs, 0, "batches read the install-time panels");
        assert!(stats.arena_reserved_bytes > 0);
    }
}
