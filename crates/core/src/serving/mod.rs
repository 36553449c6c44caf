//! The SUSHI serving runtime: an event-driven traffic simulator.
//!
//! The batch-replay experiments (§5.6–5.7) answer *which SubNet should
//! serve each query*; this module answers the systems question the paper's
//! premise raises but its evaluation replays offline: **what happens under
//! real traffic** — arrival processes, bounded queues, dynamic batching,
//! multi-worker concurrency, and tail-latency SLOs. It is a deterministic
//! discrete-event simulation: simulated milliseconds, seeded randomness,
//! bit-identical results across runs and platforms.
//!
//! The pieces compose bottom-up:
//!
//! * [`arrivals::ArrivalProcess`] — open-loop Poisson / MMPP / diurnal
//!   arrival-time generators, attached to constraint streams via
//!   [`crate::stream::attach_arrivals`] ([`crate::stream::TimedQuery`]).
//! * [`queue`] — the bounded admission queue (crate-private), shedding
//!   per a [`queue::DropPolicy`], with time-weighted depth accounting.
//! * [`batch::BatchPolicy`] — size/timeout hybrid batching keyed on the
//!   scheduler's SubNet decision.
//! * [`routing::RoutingPolicy`] — which free replica a ready batch is
//!   dispatched to (least-loaded, round-robin, or cache-affinity over
//!   per-replica resident SubGraphs).
//! * [`fault::FaultOptions`] — deterministic, replayable fault injection
//!   (replica crashes, straggler episodes, transient batch errors) and
//!   the one supervision switch: retry with exponential backoff and
//!   per-tier budgets, tail hedging, and a per-replica health
//!   (quarantine/recovery) machine, all on fixed thresholds.
//! * `executor::ExecutorPool` (crate-private) — accelerator-replica
//!   workers with per-replica cache state and routed (not broadcast)
//!   installs, dispatching batch groups through the engine's
//!   [`sushi_accel::backend::ExecutionBackend`] (analytical timing, or
//!   real parallel int8 forwards with per-query predictions). It holds
//!   only what an engine carries across calls and keeps no clock: each
//!   serving call's replica clocks live in the fault runtime it builds.
//! * [`sim`] — the bodies of [`crate::engine::Engine::serve_timed`] (the
//!   SLO-aware event loop tying scheduler, queue, batcher, router and pool
//!   together) and [`crate::engine::Engine::serve`] (the per-query replay
//!   on the same scheduler and pool, behind
//!   [`crate::engine::Engine::serve_stream`]), configured by one
//!   [`sim::SimConfig`] handed to
//!   [`crate::engine::EngineBuilder::sim_config`].
//! * [`scenario`] — canned presets (`steady`, `burst`, `diurnal`,
//!   `multi_tenant`, …, `scale`) behind `repro serve` and the
//!   `BENCH_serve.json` baseline.
//!
//! The queue, the batcher's triggers and the router's views are the
//! loop's mechanism and stay crate-private: configuration goes in through
//! [`SimConfig`] and its parts, and results come out as [`SimResult`],
//! [`ServedQuery`] and [`DroppedQuery`].
//!
//! See `docs/SERVING.md` for the queueing model and SLO semantics.
//!
//! # Example
//!
//! ```
//! use sushi_core::engine::EngineBuilder;
//! use sushi_core::serving::{ArrivalProcess, BatchPolicy, DropPolicy, SimConfig};
//! use sushi_core::stream::{attach_arrivals, uniform_stream, ConstraintSpace};
//!
//! let mut engine = EngineBuilder::new()
//!     .q_window(10)
//!     .candidates(8)
//!     .seed(42)
//!     .sim_config(SimConfig {
//!         workers: 2,
//!         queue_capacity: 32,
//!         drop_policy: DropPolicy::DropNewest,
//!         batch: BatchPolicy::new(4, 2.0),
//!         ..SimConfig::default()
//!     })
//!     .build()?;
//!
//! // 50 uniform queries arriving as 120 qps Poisson traffic.
//! let space = ConstraintSpace { acc_lo: 0.76, acc_hi: 0.79, lat_lo: 2.0, lat_hi: 30.0 };
//! let queries = uniform_stream(&space, 50, 7);
//! let arrivals = ArrivalProcess::Poisson { rate_qps: 120.0 }.timestamps(50, 7)?;
//! let stream = attach_arrivals(&queries, &arrivals);
//!
//! let summary = engine.serve_timed(&stream)?.summary();
//! assert_eq!(summary.offered, 50);
//! assert!(summary.p50_ms <= summary.p99_ms);
//! # Ok::<(), sushi_core::SushiError>(())
//! ```

pub mod arrivals;
pub mod batch;
pub(crate) mod executor;
pub mod fault;
pub mod queue;
pub mod routing;
pub mod scenario;
pub mod sim;

pub use arrivals::ArrivalProcess;
pub use batch::BatchPolicy;
pub use fault::{FaultOptions, FaultSummary};
pub use queue::{DropPolicy, DropReason, DroppedQuery};
pub use routing::RoutingPolicy;
pub use scenario::{
    build_scenario, preset_bench_rows, run_functional_scaling, run_scenario,
    run_scenario_unsupervised, Scenario, ServePreset, FUNCTIONAL_SCALING_POINTS,
};
pub use sim::{AdaptationTrace, ServedQuery, SimConfig, SimResult};
