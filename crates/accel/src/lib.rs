//! # sushi-accel
//!
//! **SushiAccel**: a cycle-approximate simulator of the SGS-aware DNN
//! accelerator from the SUSHI paper (MLSys'23, §4), substituting for the
//! authors' FPGA implementation (see `docs/ARCHITECTURE.md`).
//!
//! The accelerator is a 2-D array of 9-multiplier Dot-Product Engines with
//! a split on-chip buffer hierarchy. Its novel component is the
//! **Persistent Buffer (PB)**: a dedicated cache holding a SubGraph of the
//! weight-shared SuperNet so that consecutive queries activating
//! overlapping SubNets skip the off-chip fetch of shared weights —
//! *SubGraph-Stationary* (SGS) reuse, the first cross-query dataflow
//! optimization.
//!
//! Two execution modes:
//!
//! * **Timing-only** ([`exec::price_query`]) — the analytic
//!   tile-pipelined latency/energy model behind every §5 experiment.
//! * **Functional** ([`functional::forward_cached`]) — bit-exact int8
//!   execution of the DPE schedule, validated against `sushi-tensor`'s
//!   reference ops.
//!
//! Supporting tools mirror the paper's evaluation apparatus: a roofline
//! analyzer with the SGS-roofline ([`roofline`]), a design-space explorer
//! ([`dse`]), an FPGA resource estimator ([`resources`]), buffer bandwidth
//! rules ([`buffers`]), and CPU/Xilinx-DPU baselines ([`baselines`]).
//!
//! # Example
//!
//! ```
//! use sushi_accel::config::zcu104;
//! use sushi_accel::exec::price_query;
//! use sushi_wsnet::zoo;
//!
//! let net = zoo::resnet50_supernet();
//! let picks = zoo::paper_subnets(&net);
//! let config = zcu104();
//!
//! // Cold query: every weight streams from DRAM.
//! let cold = price_query(&config, &net, &picks[2], None);
//!
//! // Cache the weights shared by the Pareto picks (fitted to the PB).
//! let shared = net.shared_subgraph(&picks);
//! let cached = net.subgraph_to_budget(&shared, config.buffers.pb_bytes);
//! let warm = price_query(&config, &net, &picks[2], Some(&cached));
//! assert!(warm.latency_ms < cold.latency_ms);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod baselines;
pub mod buffers;
pub mod config;
pub mod dpe;
pub mod dse;
pub mod energy;
pub mod exec;
pub mod functional;
pub mod resources;
pub mod reuse;
pub mod roofline;
pub mod timing;

pub use backend::{Analytical, BackendError, ExecutionBackend, Functional, MemoryStats};
pub use config::{AccelConfig, BufferConfig};
pub use exec::{Accelerator, QueryReport, ServiceTable};
pub use timing::{CycleBreakdown, LayerTiming, TrafficBytes};
