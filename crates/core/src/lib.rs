//! # sushi-core
//!
//! **SUSHI**: the vertically integrated inference-serving stack of the
//! MLSys'23 paper, wiring [`sushi_sched`] (SushiSched + SushiAbs) to
//! [`sushi_accel`] (SushiAccel) over weight-shared SuperNets from
//! [`sushi_wsnet`].
//!
//! * [`engine`] — **the** public entry point: [`engine::EngineBuilder`]
//!   (every knob named and defaulted) builds an [`engine::Engine`] with two
//!   run modes — `serve_stream` (the per-query replay loop of Fig. 4) and
//!   `serve_timed` (the event-driven serving simulation) — dispatching
//!   through a pluggable analytical or functional
//!   [`sushi_accel::backend::ExecutionBackend`].
//! * [`variants`] — the §5.7 comparison points (No-SUSHI, SUSHI w/o Sched,
//!   SUSHI).
//! * [`stream`] — deterministic query-constraint generators (random,
//!   AV-navigation phases, ICU bursts).
//! * [`metrics`] — served latency/accuracy, SLO attainment, cache-hit
//!   ratio, streaming latency percentiles.
//! * [`serving`] — the event-driven serving runtime: open-loop arrivals,
//!   bounded admission queue, dynamic batching, a multi-worker executor
//!   pool, and SLO accounting (`repro --serve`).
//! * [`experiments`] — a regenerator for **every** table and figure in the
//!   paper's evaluation (run them all via the `repro` binary:
//!   `cargo run -p sushi-core --release --bin repro -- all`).
//!
//! # Example
//!
//! ```
//! use sushi_core::engine::EngineBuilder;
//! use sushi_core::stream::{uniform_stream, ConstraintSpace};
//!
//! let mut engine = EngineBuilder::new()
//!     .q_window(10) // cache window Q
//!     .candidates(8) // SubGraph candidates
//!     .seed(42)
//!     .build()?;
//! let space = ConstraintSpace { acc_lo: 0.76, acc_hi: 0.79, lat_lo: 2.0, lat_hi: 30.0 };
//! let records = engine.serve_stream(&uniform_stream(&space, 50, 7))?;
//! assert!(records.iter().all(|r| r.served_accuracy >= r.query.accuracy_constraint));
//! # Ok::<(), sushi_core::SushiError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod error;
pub mod experiments;
pub mod metrics;
pub mod report;
pub mod serving;
pub mod stack;
pub mod stream;
pub mod variants;

pub use engine::{BackendKind, Engine, EngineBuilder, ModelZoo};
pub use error::SushiError;
pub use stack::ServedRecord;
pub use variants::Variant;
