//! Pins the multi-replica packing contract: weight packing is driven by the
//! set of SubNets served — never by how many replicas serve them or in
//! which order a dispatch group's batches run — and the logits are
//! bit-identical to the schedule run in order, at every group size.
//!
//! Like `pack_once.rs`, this counts packs on their owners: the backend's
//! [`sushi_accel::MemoryStats`] sums the panels its caches hold and the
//! per-call packs its arena saw.

use sushi_accel::backend::{ExecutionBackend, Functional};
use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::FunctionalOutput;
use sushi_wsnet::{zoo, SubNet, SuperNet};

/// A fixed dispatch schedule: batches (subnet row, query ids) replayed
/// identically at every worker count — only the grouping changes.
fn schedule() -> Vec<(usize, Vec<u64>)> {
    vec![
        (0, vec![0, 1, 2]),
        (1, vec![3, 4]),
        (2, vec![5, 6, 7]),
        (0, vec![8]),
        (2, vec![9, 10]),
        (1, vec![11, 12, 13]),
        (0, vec![14, 15]),
        (1, vec![16]),
    ]
}

/// Replays the schedule in groups of up to `workers` batches, each group's
/// batches executed last first (the order a pool's replicas run them in
/// is not the schedule's), returning the flattened per-query outputs in
/// schedule order plus the layers packed.
fn run_with_workers(
    net: &SuperNet,
    picks: &[SubNet],
    workers: usize,
) -> (Vec<FunctionalOutput>, usize) {
    let mut backend = Functional::new(DpeArray::new(4, 4), net, 99);
    let mut outputs = Vec::new();
    for group in schedule().chunks(workers) {
        let mut group_outputs: Vec<Vec<FunctionalOutput>> = group
            .iter()
            .rev()
            .map(|(row, ids)| {
                let outs = backend.execute(net, &picks[*row], ids).expect("batch executes");
                outs.expect("functional outputs")
            })
            .collect();
        group_outputs.reverse();
        outputs.extend(group_outputs.into_iter().flatten());
    }
    let stats = backend.memory_stats().expect("functional backend reports memory");
    assert_eq!(stats.packed_subnets, picks.len(), "every served SubNet packed exactly once");
    assert_eq!(
        stats.per_call_weight_packs, 0,
        "batches read the install-time panels, never repack"
    );
    (outputs, stats.packed_layers)
}

#[test]
fn pack_count_is_worker_count_independent_and_logits_are_bit_identical() {
    let net = zoo::toy_supernet();
    let picks = {
        let mut s = sushi_wsnet::sampler::ConfigSampler::new(&net, 5);
        s.sample_subnets(3)
    };

    let (base_outputs, base_packs) = run_with_workers(&net, &picks, 1);
    assert!(base_packs > 0, "the schedule must exercise the packing path");
    assert_eq!(base_outputs.len(), schedule().iter().map(|(_, ids)| ids.len()).sum::<usize>());

    for workers in [2, 4] {
        let (outputs, packs) = run_with_workers(&net, &picks, workers);
        assert_eq!(
            packs, base_packs,
            "{workers}-batch groups packed differently than one at a time"
        );
        assert_eq!(outputs, base_outputs, "{workers}-batch groups drifted from the in-order run");
    }
}
