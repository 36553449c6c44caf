//! `sushi-ir`: a typed op-graph IR with one fold pass, lowering SubNets
//! onto the fused serving datapath at cache-install time.
//!
//! SUSHI's core bet is that SubGraph-stationary serving lets install-time
//! work amortize across every query that hits the cached SubGraph. This
//! crate is where that install-time work happens for the *compute plan*
//! (the weight bytes are handled by `sushi-accel`'s `SubgraphCache`):
//!
//! 1. **Build** — `sushi-wsnet` translates a SubNet into a [`Graph`]: one
//!    node per op (`Conv`, `Bias`, `Requant`, `Act`, `Add`, …), every edge
//!    carrying an inferred [`Fact`] (NCHW shape + dtype). Validation runs
//!    once here, not per query.
//! 2. **Fold** — [`normalize`] sweeps the graph once, front to back: bias,
//!    requant and activation fold into the epilogue of the conv (or the
//!    activation into the residual add) they follow, and dense GEMM-bound
//!    convs are annotated with the k-pair pack layout that selects the
//!    fused `pmaddwd` microkernel. [`normalize_unfused`] is the same sweep
//!    without that annotation (fusion off).
//! 3. **Lower** — [`Plan::lower`] flattens the normal form into a slot
//!    machine ([`Step`] list + lifetime table) that the accelerator executes
//!    per query with zero graph interpretation overhead.
//!
//! The pass is deterministic and idempotent — both pinned by tests, so a
//! cached plan is a pure function of the SubNet.

pub mod error;
pub mod graph;
pub mod plan;
mod rewrites;

pub use error::IrError;
pub use graph::{DType, EpilogueSpec, Fact, Graph, Node, NodeId, Op};
pub use plan::{Plan, Step};
pub use rewrites::{normalize, normalize_unfused, RewriteLog};
