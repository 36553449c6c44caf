//! Candidate-set construction for SushiAbs (§3.2).
//!
//! The set of all possible cached SubGraphs is astronomically large
//! (≫ 10¹⁹ for OFA SuperNets), so the abstraction restricts caching to a
//! small set `S` of SubGraphs "selected to be close to the cache size".
//! We build `S` from the serving SubNets themselves (each truncated to the
//! PB budget) plus uniformly sampled SubNets — matching how the paper
//! scales the table's column count from 10 to 2000 (Tables 5–6).

use sushi_wsnet::sampler::ConfigSampler;
use sushi_wsnet::{SubGraph, SubNet, SuperNet};

/// Builds a candidate set of at most `count` SubGraphs, each truncated to
/// `pb_budget_bytes`.
///
/// The first candidates come from `serving_set` (in order); the remainder
/// are sampled deterministically from the SuperNet's configuration space
/// with `seed`. Duplicates are removed while preserving order.
///
/// The serving-set-first ordering is load-bearing for the adaptive layer
/// ([`crate::TenantPolicy`]): whenever `count ≥
/// serving_set.len()`, every serving SubNet's budget truncation is present
/// as a column, so each rung of the degradation ladder has a resident
/// SubGraph that covers it — the cache-affinity bias can always find a
/// warm column for whatever rung the current level caps the walk at.
#[must_use]
pub fn build_candidate_set(
    net: &SuperNet,
    serving_set: &[SubNet],
    pb_budget_bytes: u64,
    count: usize,
    seed: u64,
) -> Vec<SubGraph> {
    let mut out: Vec<SubGraph> = Vec::with_capacity(count);
    let push = |g: SubGraph, out: &mut Vec<SubGraph>| {
        if !g.is_empty() && !out.contains(&g) {
            out.push(g);
        }
    };
    for sn in serving_set {
        if out.len() >= count {
            break;
        }
        push(net.subgraph_to_budget(&sn.graph, pb_budget_bytes), &mut out);
    }
    // Shape diversity: tilted truncations of the serving set (front-heavy
    // and back-heavy variants of the same SubNets are different SubGraphs
    // with different serving affinities — Fig. 3).
    const BIASES: [f64; 4] = [3.0, -3.0, 6.0, -6.0];
    'outer: for &bias in &BIASES {
        for sn in serving_set {
            if out.len() >= count {
                break 'outer;
            }
            push(net.subgraph_to_budget_biased(&sn.graph, pb_budget_bytes, bias), &mut out);
        }
    }
    let mut sampler = ConfigSampler::new(net, seed);
    let mut attempts = 0;
    while out.len() < count && attempts < count * 20 {
        attempts += 1;
        let sn = sampler.sample_subnets(1).pop().expect("one subnet");
        let bias = match attempts % 3 {
            0 => 0.0,
            1 => BIASES[attempts % 4],
            _ => -BIASES[attempts % 4],
        };
        push(net.subgraph_to_budget_biased(&sn.graph, pb_budget_bytes, bias), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sushi_wsnet::zoo;

    #[test]
    fn candidates_fit_budget() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let budget = 1728 * 1024;
        let set = build_candidate_set(&net, &picks, budget, 20, 7);
        assert!(!set.is_empty());
        for g in &set {
            assert!(net.subgraph_weight_bytes(g) <= budget);
        }
    }

    #[test]
    fn candidates_are_unique() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let set = build_candidate_set(&net, &picks, 1_000_000, 30, 3);
        for (i, a) in set.iter().enumerate() {
            for b in &set[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn serving_set_candidates_come_first() {
        let net = zoo::resnet50_supernet();
        let picks = zoo::paper_subnets(&net);
        let budget = 1728 * 1024;
        let set = build_candidate_set(&net, &picks, budget, 10, 7);
        let first = net.subgraph_to_budget(&picks[0].graph, budget);
        assert_eq!(set[0], first);
    }

    #[test]
    fn every_serving_subnet_is_covered_when_count_allows() {
        // The degradation ladder's cache-affinity bias relies on this:
        // with count >= serving_set.len(), each serving SubNet's budget
        // truncation appears as a candidate column (in serving-set order),
        // so no rung of the ladder is left without a coverable SubGraph.
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let budget = 2_000_000;
        let set = build_candidate_set(&net, &picks, budget, picks.len() + 4, 7);
        for sn in &picks {
            let truncated = net.subgraph_to_budget(&sn.graph, budget);
            assert!(
                truncated.is_empty() || set.contains(&truncated),
                "serving SubNet {} has no covering candidate",
                sn.name
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let a = build_candidate_set(&net, &picks, 2_000_000, 15, 9);
        let b = build_candidate_set(&net, &picks, 2_000_000, 15, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn can_build_large_sets_for_table6() {
        let net = zoo::mobilenet_v3_supernet();
        let picks = zoo::paper_subnets(&net);
        let set = build_candidate_set(&net, &picks, 2_000_000, 100, 11);
        assert!(set.len() >= 80, "only {} candidates", set.len());
    }
}
