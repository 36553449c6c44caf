//! # sushi-sched
//!
//! **SushiSched + SushiAbs**: the software half of the SUSHI co-design
//! (MLSys'23, §3).
//!
//! * [`table::LatencyTable`] — SushiAbs: a SubNet × cached-SubGraph latency
//!   lookup table. It is the *only* interface between the scheduler and any
//!   accelerator; this crate deliberately does **not** depend on
//!   `sushi-accel`, reproducing the paper's claim that the scheduler
//!   policy "could then generalize to any hardware that is able to support
//!   WS-DNN inference".
//! * [`scheduler::Scheduler`] — Algorithm 1: per-query SubNet selection
//!   under a strict-accuracy or strict-latency policy, and an amortized
//!   cache decision every `Q` queries via the `AvgNet` running average.
//! * [`candidates`] — construction of the bounded SubGraph candidate set
//!   `S` (§3.2's requirement R1).
//! * [`TenantPolicy`] — the one load controller: per-tier hysteresis
//!   ladders that shape queries toward smaller SubNets under pressure
//!   ([`TenantOptions`] configures it, [`TenantEvent`] records each level
//!   change, and [`TenantOptions::global`] is the untiered, one-ladder
//!   case). The tiers and the arrival predictor live in [`tenant`].
//!
//! Everything that needs a scheduler *and* an accelerator — the serving
//! stack, the event-driven serving runtime, experiment regenerators —
//! lives in `sushi-core`, never here (see the paper-to-code map in
//! `docs/ARCHITECTURE.md`). Under the serving runtime, `decide` is called
//! once per *arrival* (in arrival order) and its cache decisions are
//! enacted lazily on a worker pool; nothing about that loop leaks back
//! into this crate.
//!
//! # Example
//!
//! ```
//! use sushi_sched::query::{Policy, Query};
//! use sushi_sched::scheduler::{CacheSelection, Scheduler};
//! use sushi_sched::table::LatencyTable;
//! use sushi_sched::candidates::build_candidate_set;
//! use sushi_wsnet::zoo;
//!
//! let net = zoo::mobilenet_v3_supernet();
//! let picks = zoo::paper_subnets(&net);
//! let cands = build_candidate_set(&net, &picks, 1_700_000, 8, 42);
//!
//! // Any latency oracle works — here, a crude FLOPs-proportional one.
//! let table = LatencyTable::build(&picks, cands, |sn, cached| {
//!     let hit = cached.map_or(0.0, |g| sushi_wsnet::encoding::overlap_ratio(&sn.graph, g));
//!     sn.gflops() * 10.0 * (1.0 - 0.25 * hit)
//! });
//!
//! let mut sched = Scheduler::new(table, Policy::StrictAccuracy, CacheSelection::MinDistanceToAvg, 8);
//! let decision = sched.decide(&Query::new(0, 0.78, 10.0));
//! assert!(sched.table().row(decision.subnet_row).accuracy >= 0.78);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
pub mod candidates;
pub mod query;
pub mod scheduler;
pub mod table;
pub mod tenant;

pub use adaptive::{LoadSignal, TenantEvent, TenantOptions, TenantPolicy, TierSignals, TierState};
pub use query::{Policy, Query};
pub use scheduler::{CacheSelection, Decision, Scheduler};
pub use table::{LatencyTable, EMPTY_COLUMN};
pub use tenant::{ArrivalPredictor, ArrivalState, TenantTier, MAX_TENANT_SLOTS, TIER_COUNT};
