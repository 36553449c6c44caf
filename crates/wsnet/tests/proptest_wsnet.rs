//! Property-based tests for the WS-DNN substrate: the SubGraph lattice,
//! size accounting, materialization nesting, encodings and weight slicing.

use std::sync::OnceLock;

use proptest::prelude::*;

use sushi_tensor::{Shape4, Tensor};
use sushi_wsnet::layer::{ConvKind, LayerSlice};
use sushi_wsnet::sampler::ConfigSampler;
use sushi_wsnet::{zoo, NetVector, SubGraph, SuperNet, WeightStore};

fn slice_strategy() -> impl Strategy<Value = LayerSlice> {
    (0usize..32, 0usize..32, prop_oneof![Just(0usize), Just(1usize), Just(3usize), Just(5usize)])
        .prop_map(|(k, c, ks)| LayerSlice::new(k, c, ks))
}

fn subgraph_strategy(layers: usize) -> impl Strategy<Value = SubGraph> {
    proptest::collection::vec(slice_strategy(), layers).prop_map(SubGraph::new)
}

/// The toy, ResNet50 and MobileNetV3 SuperNets, built once.
fn slicing_nets() -> &'static [SuperNet; 3] {
    static NETS: OnceLock<[SuperNet; 3]> = OnceLock::new();
    NETS.get_or_init(|| {
        [zoo::toy_supernet(), zoo::resnet50_supernet(), zoo::mobilenet_v3_supernet()]
    })
}

/// The per-element reference of [`WeightStore::slice_tensor`]: top
/// kernels, top channels and the centre `kernel_size` window of the stored
/// maximal kernels, one `get`/`set` per weight.
fn reference_slice(stored: &Tensor<i8>, s: &LayerSlice) -> Tensor<i8> {
    let full = stored.shape();
    let (c, ks) = (s.channels.min(full.c), s.kernel_size);
    let crop = (full.h - ks) / 2;
    let mut out = Tensor::zeros(Shape4::new(s.kernels, c, ks, ks));
    for k in 0..s.kernels {
        for ch in 0..c {
            for y in 0..ks {
                for x in 0..ks {
                    out.set(k, ch, y, x, stored.get(k, ch, y + crop, x + crop));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `slice_tensor` equals the per-element reference on random layers of
    /// the three SuperNets — dense and depthwise, uncropped and centre-
    /// cropped 7→5→3→1, any top kernels and channels. Each case
    /// synthesizes weights for the drawn layer alone, which keeps it cheap
    /// on the full-size zoo; slicing reads no other layer.
    #[test]
    fn slice_tensor_matches_per_element_reference(
        family in 0usize..3,
        depthwise in 0usize..2,
        pick in 0usize..1000,
        (kernel_16ths, channel_16ths) in (1usize..=16, 1usize..=16),
        shrink in 0usize..4,
        seed in 0u64..1000,
    ) {
        let net = &slicing_nets()[family];
        let want = if depthwise == 1 { ConvKind::Depthwise } else { ConvKind::Dense };
        let of_kind: Vec<_> = net.layers.iter().filter(|l| l.kind == want).collect();
        let pool = if of_kind.is_empty() { net.layers.iter().collect() } else { of_kind };
        let layer = pool[pick % pool.len()];
        let one = SuperNet { layers: vec![layer.clone()], ..net.clone() };
        let store = WeightStore::synthesize(&one, seed);
        let slice = LayerSlice::new(
            (layer.max_kernels * kernel_16ths).div_ceil(16),
            (layer.max_channels * channel_16ths).div_ceil(16),
            layer.max_kernel_size.saturating_sub(2 * shrink).max(1),
        );
        let got = store.slice_tensor(0, &slice).expect("non-empty slice");
        let case = format!("{} {} {:?}", net.name, layer.name, slice);
        prop_assert_eq!(got, reference_slice(&store.layer(0).kernels, &slice), "{}", case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Meet/join satisfy the lattice axioms.
    #[test]
    fn lattice_laws(a in subgraph_strategy(4), b in subgraph_strategy(4), c in subgraph_strategy(4)) {
        // Commutativity.
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&b), b.union(&a));
        // Associativity.
        prop_assert_eq!(a.intersect(&b).intersect(&c), a.intersect(&b.intersect(&c)));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        // Absorption.
        prop_assert_eq!(a.union(&a.intersect(&b)), a.clone());
        prop_assert_eq!(a.intersect(&a.union(&b)), a.clone());
        // Idempotence.
        prop_assert_eq!(a.intersect(&a), a.clone());
    }

    /// Subset ordering is consistent with meet/join.
    #[test]
    fn subset_consistent_with_lattice(a in subgraph_strategy(4), b in subgraph_strategy(4)) {
        let i = a.intersect(&b);
        let u = a.union(&b);
        prop_assert!(i.is_subset_of(&a) && i.is_subset_of(&b));
        prop_assert!(a.is_subset_of(&u) && b.is_subset_of(&u));
        prop_assert!(i.is_subset_of(&u));
    }

    /// Weight bytes are monotone under the subset order (computed against
    /// the toy SuperNet, clamped to its maxima).
    #[test]
    fn weight_bytes_monotone(a in subgraph_strategy(16), b in subgraph_strategy(16)) {
        let net = zoo::toy_supernet();
        prop_assume!(net.num_layers() == 16);
        let clamp = |g: &SubGraph| {
            SubGraph::new(
                net.layers.iter().zip(g.slices()).map(|(l, s)| l.clamp_slice(*s)).collect(),
            )
        };
        let a = clamp(&a);
        let b = clamp(&b);
        let i = a.intersect(&b);
        prop_assert!(net.subgraph_weight_bytes(&i) <= net.subgraph_weight_bytes(&a));
        prop_assert!(net.subgraph_weight_bytes(&i) <= net.subgraph_weight_bytes(&b));
    }

    /// Intersection bytes are bounded by the smaller operand. Note the join
    /// has no such sum bound: slices are top-left *rectangles* of the
    /// kernel×channel grid, so the union of a tall and a wide slice is the
    /// smallest covering rectangle, which can exceed the operands' sum —
    /// the test pins the correct direction (union ≥ both operands).
    #[test]
    fn byte_inclusion_exclusion_bounds(a in subgraph_strategy(16), b in subgraph_strategy(16)) {
        let net = zoo::toy_supernet();
        let clamp = |g: &SubGraph| {
            SubGraph::new(
                net.layers.iter().zip(g.slices()).map(|(l, s)| l.clamp_slice(*s)).collect(),
            )
        };
        let a = clamp(&a);
        let b = clamp(&b);
        let ba = net.subgraph_weight_bytes(&a);
        let bb = net.subgraph_weight_bytes(&b);
        prop_assert!(net.subgraph_weight_bytes(&a.intersect(&b)) <= ba.min(bb));
        prop_assert!(net.subgraph_weight_bytes(&a.union(&b)) >= ba.max(bb));
    }

    /// Budget truncation produces a subset within budget (or the original
    /// if it already fits).
    #[test]
    fn budget_truncation_respects_budget(seed in 0u64..500, budget_kb in 1u64..64) {
        let net = zoo::toy_supernet();
        let sn = ConfigSampler::new(&net, seed).sample_subnets(1).pop().unwrap();
        let budget = budget_kb * 1024;
        let g = net.subgraph_to_budget(&sn.graph, budget);
        prop_assert!(g.is_subset_of(&sn.graph));
        prop_assert!(
            net.subgraph_weight_bytes(&g) <= budget.max(net.subgraph_weight_bytes(&sn.graph))
        );
        if net.subgraph_weight_bytes(&sn.graph) > budget {
            prop_assert!(net.subgraph_weight_bytes(&g) <= budget);
        }
    }

    /// Dominated configurations materialize to nested SubGraphs, and
    /// accuracy/FLOPs are monotone along the order (the OFA property §2.1).
    /// The dominated config is derived from the sampled one by shrinking
    /// each elastic dimension independently.
    #[test]
    fn dominated_configs_nest(
        seed_b in 0u64..200,
        shrink_d in proptest::collection::vec(0usize..3, 5),
        shrink_e in proptest::collection::vec(0usize..3, 5),
        shrink_k in proptest::collection::vec(0usize..3, 5),
    ) {
        let net = zoo::mobilenet_v3_supernet();
        let b = ConfigSampler::new(&net, seed_b).sample_config();
        let lower = |choices: &[f64], v: f64, steps: usize| -> f64 {
            let mut sorted = choices.to_vec();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let pos = sorted.iter().position(|&c| c >= v).unwrap_or(0);
            sorted[pos.saturating_sub(steps)]
        };
        let mut a = b.clone();
        for s in 0..a.depths.len() {
            let dmin = *net.elastic.depth_choices.iter().min().unwrap();
            a.depths[s] = a.depths[s].saturating_sub(shrink_d[s]).max(dmin);
            a.expands[s] = lower(&net.elastic.expand_choices, a.expands[s], shrink_e[s]);
            if !a.kernels.is_empty() {
                let kmin = *net.elastic.kernel_choices.iter().min().unwrap();
                a.kernels[s] = a.kernels[s].saturating_sub(2 * shrink_k[s]).max(kmin);
            }
        }
        prop_assume!(a.dominated_by(&b));
        let sa = net.materialize("a", &a).unwrap();
        let sb = net.materialize("b", &b).unwrap();
        prop_assert!(sa.graph.is_subset_of(&sb.graph));
        prop_assert!(sa.flops <= sb.flops);
        prop_assert!(sa.accuracy <= sb.accuracy);
        prop_assert!(sa.weight_bytes <= sb.weight_bytes);
    }

    /// Every sampled SubNet lives inside the SuperNet and its byte count
    /// matches an independent recomputation.
    #[test]
    fn sampled_subnets_account_correctly(seed in 0u64..300) {
        let net = zoo::toy_mobilenet_supernet();
        let sn = ConfigSampler::new(&net, seed).sample_subnets(1).pop().unwrap();
        prop_assert!(sn.graph.is_subset_of(&net.full_graph()));
        let manual: u64 = net
            .layers
            .iter()
            .zip(sn.graph.slices())
            .map(|(l, s)| l.weight_bytes(s))
            .sum();
        prop_assert_eq!(manual, sn.weight_bytes);
        prop_assert_eq!(net.subgraph_flops(&sn.graph), sn.flops);
    }

    /// L2 distance satisfies the triangle inequality and identity laws on
    /// encoded SubGraphs.
    #[test]
    fn encoding_distance_is_a_metric(
        a in subgraph_strategy(4),
        b in subgraph_strategy(4),
        c in subgraph_strategy(4),
    ) {
        let (va, vb, vc) = (NetVector::encode(&a), NetVector::encode(&b), NetVector::encode(&c));
        prop_assert!(va.dist_l2(&va) == 0.0);
        prop_assert!((va.dist_l2(&vb) - vb.dist_l2(&va)).abs() < 1e-9);
        prop_assert!(va.dist_l2(&vc) <= va.dist_l2(&vb) + vb.dist_l2(&vc) + 1e-9);
    }

    /// The overlap ratio is in [0, 1], equals 1 for a superset cache, and is
    /// monotone in the cache.
    #[test]
    fn overlap_ratio_properties(sn in subgraph_strategy(4), g1 in subgraph_strategy(4), g2 in subgraph_strategy(4)) {
        use sushi_wsnet::encoding::overlap_ratio;
        prop_assume!(!sn.is_empty());
        let r1 = overlap_ratio(&sn, &g1);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r1));
        prop_assert!((overlap_ratio(&sn, &sn.union(&g1)) - 1.0).abs() < 1e-9);
        // Growing the cache never reduces overlap.
        let grown = g1.union(&g2);
        prop_assert!(overlap_ratio(&sn, &grown) >= r1 - 1e-9);
    }
}
