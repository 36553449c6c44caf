//! The latency tables every engine prices its queries from.
//!
//! The three §5.7 comparison points are configurations of one stack, not
//! code paths:
//!
//! * **No-SUSHI** — a board without its Persistent Buffer (its capacity
//!   returned to the dynamic buffers):
//!   `.accel_config(zcu104().without_pb())`. Its tables hold only the empty
//!   column, so no caching rule ever installs anything.
//! * **SUSHI w/o Sched** — the PB exists but caching is *state-unaware*:
//!   `.cache_selection(CacheSelection::FollowLast)`.
//! * **SUSHI** — the full co-design (Algorithm 1), the
//!   [`crate::engine::EngineBuilder`] default.
//!
//! The module keeps its name because downstream harnesses bind
//! [`build_table`] at this path.

use sushi_accel::exec::ServiceTable;
use sushi_accel::AccelConfig;
use sushi_sched::candidates::build_candidate_set;
use sushi_sched::LatencyTable;
use sushi_wsnet::{SubGraph, SubNet, SuperNet};

/// Builds the latency table for a serving set on a given accelerator
/// configuration, with `num_candidates` cacheable SubGraphs truncated to
/// the PB budget.
#[must_use]
pub fn build_table(
    net: &SuperNet,
    subnets: &[SubNet],
    config: &AccelConfig,
    num_candidates: usize,
    seed: u64,
) -> LatencyTable {
    let candidates = sample_candidates(net, subnets, config, num_candidates, seed);
    build_tables(net, subnets, config, candidates).0
}

/// The SushiAbs candidate set of `num_candidates` SubGraphs fitted to the
/// PB budget, sampled from `seed` — none on a PB-less configuration.
pub(crate) fn sample_candidates(
    net: &SuperNet,
    subnets: &[SubNet],
    config: &AccelConfig,
    num_candidates: usize,
    seed: u64,
) -> Vec<SubGraph> {
    if config.buffers.has_pb() {
        build_candidate_set(net, subnets, config.buffers.pb_bytes, num_candidates, seed)
    } else {
        Vec::new()
    }
}

/// The latency table and the [`ServiceTable`] over one candidate list —
/// the only place either is built, so the two agree by construction: a
/// latency-table cell is its service cell's cold single-query price, one
/// [`sushi_accel::exec::price_query`] under the column an install makes
/// resident. A PB-less `config` holds no SubGraph, so its tables keep only
/// the empty column whatever `candidates` holds.
pub(crate) fn build_tables(
    net: &SuperNet,
    subnets: &[SubNet],
    config: &AccelConfig,
    mut candidates: Vec<SubGraph>,
) -> (LatencyTable, ServiceTable) {
    if !config.buffers.has_pb() {
        candidates.clear();
    }
    let service = ServiceTable::build(config, net, subnets, &candidates);
    let columns = candidates.len() + 1;
    let mut cells = 0..;
    let table = LatencyTable::build(subnets, candidates, |_, _| {
        let i = cells.next().expect("an unbounded range");
        service.price(i / columns, Some(i % columns), 1, 0).total_latency_ms
    });
    (table, service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use sushi_accel::config::zcu104;
    use sushi_accel::exec::price_query;
    use sushi_sched::CacheSelection;
    use sushi_wsnet::zoo;

    #[test]
    fn table_cells_equal_probe_built_cells_bit_for_bit() {
        for net in [zoo::mobilenet_v3_supernet(), zoo::resnet50_supernet()] {
            let picks = zoo::paper_subnets(&net);
            for config in [zcu104(), zcu104().without_pb()] {
                let table = build_table(&net, &picks, &config, 10, 1);
                let candidates =
                    (1..table.num_columns()).map(|j| table.column(j).graph.clone()).collect();
                let oracle = LatencyTable::build(&picks, candidates, |sn, cached| {
                    price_query(&config, &net, sn, cached).latency_ms
                });
                for (got, want) in table.rows().iter().zip(oracle.rows()) {
                    let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got.latency_ms), bits(&want.latency_ms), "{}", got.name);
                }
            }
        }
    }

    #[test]
    fn no_pb_table_has_only_empty_column() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let t = build_table(&net, &picks, &zcu104().without_pb(), 10, 1);
        assert_eq!(t.num_columns(), 1);
    }

    #[test]
    fn pb_table_has_requested_candidates() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let t = build_table(&net, &picks, &zcu104(), 10, 1);
        assert_eq!(t.num_columns(), 11);
        assert_eq!(t.num_rows(), picks.len());
    }

    #[test]
    fn cached_columns_reduce_table_latency() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let t = build_table(&net, &picks, &zcu104(), 8, 2);
        for i in 0..t.num_rows() {
            let cold = t.latency_ms(i, 0);
            let best_warm =
                (1..t.num_columns()).map(|j| t.latency_ms(i, j)).fold(f64::INFINITY, f64::min);
            assert!(best_warm < cold, "row {i}: no column helps");
        }
    }

    #[test]
    fn builder_produces_all_variants() {
        let picks = zoo::paper_subnets(&zoo::mobilenet_v3_supernet());
        let baselines = [
            EngineBuilder::new().accel_config(zcu104().without_pb()),
            EngineBuilder::new().cache_selection(CacheSelection::FollowLast),
            EngineBuilder::new(),
        ];
        for (i, builder) in baselines.into_iter().enumerate() {
            let e = builder.q_window(8).candidates(6).seed(3).build().unwrap();
            assert_eq!(e.subnets().len(), picks.len());
            assert_eq!(e.table().num_columns() == 1, i == 0, "only No-SUSHI is PB-less");
        }
    }
}
