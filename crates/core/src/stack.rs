//! The vertically integrated SUSHI serving stack (§3.1, Fig. 4).
//!
//! Wires `SushiSched` to `SushiAccel` through SushiAbs: per query, the
//! scheduler selects the SubNet from the latency table under the current
//! cache state; the engine's [`ExecutionBackend`] executes it and the
//! [`ServiceTable`] prices it under the column resident in the Persistent
//! Buffer; every `Q` queries the scheduler's caching decision installs a
//! new column (reload charged to the following query, stage B of
//! Fig. 9a).
//!
//! Constructed exclusively by [`crate::engine::EngineBuilder`]; use
//! [`crate::engine::Engine::serve_stream`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sushi_accel::backend::ExecutionBackend;
use sushi_accel::exec::ServiceTable;
use sushi_sched::{CacheSelection, LatencyTable, Policy, Query, Scheduler};
use sushi_wsnet::{SubNet, SuperNet};

use crate::error::SushiError;

/// Everything recorded about one served query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[must_use]
pub struct ServedRecord {
    /// The query as issued.
    pub query: Query,
    /// Name of the SubNet served.
    pub subnet: String,
    /// Row index of the SubNet in the latency table.
    pub subnet_row: usize,
    /// Accuracy delivered (fixed per SubNet).
    pub served_accuracy: f64,
    /// End-to-end latency delivered, in ms (includes any PB reload).
    pub served_latency_ms: f64,
    /// Cache-hit ratio ‖SNₜ ∩ Gₜ‖₂ / ‖SNₜ‖₂ at serve time (Appendix A.4).
    pub hit_ratio: f64,
    /// Off-chip energy for this query, mJ.
    pub offchip_mj: f64,
    /// On-chip energy for this query, mJ.
    pub onchip_mj: f64,
    /// Whether a cache update was enacted after this query.
    pub cache_updated: bool,
    /// Functional-backend prediction (`None` under the analytical backend).
    pub prediction: Option<usize>,
}

/// The integrated serving stack (the engine's batch-replay run state).
#[derive(Debug)]
pub(crate) struct SushiStack {
    net: Arc<SuperNet>,
    subnets: Vec<SubNet>,
    service: Arc<ServiceTable>,
    /// Service-table column resident in the Persistent Buffer.
    resident: Option<usize>,
    /// PB reload cycles charged to the next query.
    pending_reload_cycles: u64,
    sched: Scheduler,
}

impl SushiStack {
    /// Assembles a stack from engine-validated parts. `subnets` must be
    /// the serving set (in row order) the `table` rows were built from —
    /// [`crate::engine::EngineBuilder::build`] enforces this.
    pub(crate) fn from_parts(
        net: Arc<SuperNet>,
        subnets: Vec<SubNet>,
        table: LatencyTable,
        service: Arc<ServiceTable>,
        policy: Policy,
        cache_selection: CacheSelection,
        q_window: usize,
    ) -> Self {
        debug_assert_eq!(subnets.len(), table.num_rows(), "serving set / table mismatch");
        Self {
            net,
            subnets,
            service,
            resident: None,
            pending_reload_cycles: 0,
            sched: Scheduler::new(table, policy, cache_selection, q_window),
        }
    }

    /// Serves one query end-to-end through `backend`.
    ///
    /// # Errors
    /// Returns [`SushiError::Backend`] when the backend fails.
    pub(crate) fn serve(
        &mut self,
        backend: &mut dyn ExecutionBackend,
        query: &Query,
    ) -> Result<ServedRecord, SushiError> {
        let decision = self.sched.decide(query);
        let row = decision.subnet_row;
        let subnet = &self.subnets[row];
        let outputs = backend.execute_batch(&self.net, subnet, &[query.id])?;
        let reload_cycles = std::mem::take(&mut self.pending_reload_cycles);
        let report = self.service.price(row, self.resident, 1, reload_cycles);
        let hit_ratio = self.service.overlap(row, self.resident);
        // Enact the caching decision after serving (Algorithm 1: the cache
        // update takes effect for subsequent queries; its reload cost is
        // charged to the next serve).
        if let Some(col) = decision.cache_update {
            let (resident, reload_cycles) = self.service.install(self.resident, col);
            self.resident = resident;
            self.pending_reload_cycles += reload_cycles;
        }
        Ok(ServedRecord {
            query: *query,
            subnet: subnet.name.clone(),
            subnet_row: row,
            served_accuracy: subnet.accuracy,
            served_latency_ms: report.total_latency_ms,
            hit_ratio,
            offchip_mj: report.energy.offchip_mj,
            onchip_mj: report.energy.onchip_mj,
            cache_updated: decision.cache_update.is_some(),
            prediction: outputs.as_ref().and_then(|o| o.first()).map(|o| o.prediction),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineBuilder};
    use crate::stream::uniform_stream;
    use crate::variants::Variant;

    fn engine(variant: Variant) -> Engine {
        EngineBuilder::new()
            .variant(variant)
            .q_window(8)
            .candidates(12)
            .seed(42)
            .build()
            .expect("valid test configuration")
    }

    #[test]
    fn strict_accuracy_is_always_satisfied() {
        let mut e = engine(Variant::Sushi);
        let qs = uniform_stream(&e.constraint_space(), 100, 1);
        for r in e.serve_stream(&qs).unwrap() {
            assert!(
                r.served_accuracy >= r.query.accuracy_constraint - 1e-12,
                "query {} violated accuracy",
                r.query.id
            );
        }
    }

    #[test]
    fn hit_ratio_is_zero_before_first_cache_install() {
        let mut e = engine(Variant::Sushi);
        let qs = uniform_stream(&e.constraint_space(), 4, 2);
        let records = e.serve_stream(&qs).unwrap();
        assert_eq!(records[0].hit_ratio, 0.0);
    }

    #[test]
    fn hit_ratio_becomes_positive_after_warmup() {
        let mut e = engine(Variant::Sushi);
        let qs = uniform_stream(&e.constraint_space(), 60, 3);
        let records = e.serve_stream(&qs).unwrap();
        let tail_mean: f64 =
            records[20..].iter().map(|r| r.hit_ratio).sum::<f64>() / (records.len() - 20) as f64;
        assert!(tail_mean > 0.3, "tail hit ratio {tail_mean}");
    }

    #[test]
    fn no_sushi_never_caches() {
        let mut e = engine(Variant::NoSushi);
        let qs = uniform_stream(&e.constraint_space(), 40, 4);
        for r in e.serve_stream(&qs).unwrap() {
            assert_eq!(r.hit_ratio, 0.0);
            assert!(!r.cache_updated);
        }
    }

    #[test]
    fn analytical_records_carry_no_predictions() {
        let mut e = engine(Variant::Sushi);
        let qs = uniform_stream(&e.constraint_space(), 5, 9);
        for r in e.serve_stream(&qs).unwrap() {
            assert_eq!(r.prediction, None);
        }
    }

    #[test]
    fn sushi_beats_no_sushi_on_mean_latency() {
        let mk = |v| {
            EngineBuilder::new().variant(v).q_window(10).candidates(12).seed(42).build().unwrap()
        };
        let mut no_sushi = mk(Variant::NoSushi);
        let mut sushi = mk(Variant::Sushi);
        let qs = uniform_stream(&sushi.constraint_space(), 200, 5);
        let mean = |rs: &[ServedRecord]| {
            rs.iter().map(|r| r.served_latency_ms).sum::<f64>() / rs.len() as f64
        };
        let base = mean(&no_sushi.serve_stream(&qs).unwrap());
        let ours = mean(&sushi.serve_stream(&qs).unwrap());
        assert!(ours < base, "SUSHI {ours} !< No-SUSHI {base}");
    }

    #[test]
    fn serve_stream_length_matches_queries() {
        let mut e = engine(Variant::SushiNoSched);
        let qs = uniform_stream(&e.constraint_space(), 17, 6);
        assert_eq!(e.serve_stream(&qs).unwrap().len(), 17);
    }
}
