//! Pins the subgraph-stationary packing contract: installing a SubNet
//! packs each dense active layer exactly once, in the one layout its plan
//! step reads, and no amount of serving under that cache ever packs again —
//! while logits stay bit-identical to the naive (direct-loop) datapath.
//!
//! Both counts are scoped to the objects that own the packs: install-time
//! packs are the panels a [`SubgraphCache`] holds, per-call packs are
//! counted by the [`Arena`] they are packed into. Nothing here reads
//! process-global state, so tests cannot race.

use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::{act_quant, forward, forward_cached, SubgraphCache};
use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, KernelPolicy, Shape4, Tensor};
use sushi_wsnet::layer::ConvKind;
use sushi_wsnet::{zoo, SuperNet, WeightStore};

fn rand_input(net: &SuperNet, seed: u64) -> Tensor<i8> {
    let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut rng = DetRng::new(seed);
    let f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .unwrap();
    quantize_tensor(&f, act_quant())
}

#[test]
fn install_packs_each_dense_layer_once_and_serving_never_repacks() {
    for (net, seed) in [(zoo::toy_supernet(), 404), (zoo::toy_mobilenet_supernet(), 406)] {
        let store = WeightStore::synthesize(&net, seed);
        let sn = net.materialize("max", &net.max_config()).unwrap();
        let dense_active = net
            .layers
            .iter()
            .enumerate()
            .filter(|(i, l)| l.kind == ConvKind::Dense && !sn.graph.slice(*i).is_empty())
            .count();
        let dpe = DpeArray::new(8, 8);
        let x = rand_input(&net, 7);
        let naive =
            forward(&dpe.with_policy(KernelPolicy::Naive), &net, &store, &sn, &x).expect("naive");

        for fusion in [false, true] {
            let what = format!("{} (fusion {fusion})", net.name);
            let cache = if fusion {
                SubgraphCache::build_fused(&net, &store, &sn)
            } else {
                SubgraphCache::build(&net, &store, &sn)
            }
            .expect("install");
            // Install: one pack per dense active layer, in one layout.
            assert_eq!(cache.packed_layers() + cache.fused_layers(), dense_active, "{what}");
            for idx in 0..net.num_layers() {
                let both =
                    cache.layer(idx).is_some_and(|l| l.packed.is_some() && l.fused.is_some());
                assert!(!both, "{what}: layer {idx} packed in two layouts");
            }
            assert_eq!(cache.fused_layers() > 0, fusion, "{what}");

            // Steady state: forwards read the installed panels in place.
            // Zero per-call weight packs; logits bit-identical to naive.
            let mut arena = Arena::new();
            for round in 0..4 {
                let out = forward_cached(&dpe, &net, &store, &sn, Some(&cache), &mut arena, &x)
                    .expect("cached forward");
                assert_eq!(out, naive, "{what}, round {round}: cached serving changed the logits");
            }
            assert_eq!(arena.weight_packs(), 0, "{what}: serving must never repack weights");

            // The count is live: the same conv on raw weights, without the
            // installed panels, packs per call and is counted.
            let cl = cache.layer(0).expect("stem is active");
            let q = act_quant();
            dpe.with_policy(KernelPolicy::Im2colGemm)
                .conv2d_i8_in(&mut arena, &x, q, &cl.weights, cl.w_q, None, None, q, &cl.params)
                .expect("stem conv");
            assert_eq!(arena.weight_packs(), 1, "{what}");
        }
    }
}

/// A forced-GEMM policy reads the panel of every dense layer, fused or not.
#[test]
fn forced_gemm_serving_never_repacks_either() {
    let net = zoo::toy_supernet();
    let store = WeightStore::synthesize(&net, 407);
    let sn = net.materialize("min", &net.min_config()).unwrap();
    let dpe = DpeArray::new(4, 4).with_policy(KernelPolicy::Im2colGemm);
    let x = rand_input(&net, 8);
    let mut arena = Arena::new();
    for cache in [
        SubgraphCache::build(&net, &store, &sn).unwrap(),
        SubgraphCache::build_fused(&net, &store, &sn).unwrap(),
    ] {
        forward_cached(&dpe, &net, &store, &sn, Some(&cache), &mut arena, &x).unwrap();
    }
    assert_eq!(arena.weight_packs(), 0);
}

#[test]
fn cached_forward_rejects_mismatched_subgraph() {
    let net = zoo::toy_supernet();
    let store = WeightStore::synthesize(&net, 405);
    let max_sn = net.materialize("max", &net.max_config()).unwrap();
    let min_sn = net.materialize("min", &net.min_config()).unwrap();
    for cache in [
        SubgraphCache::build(&net, &store, &min_sn).unwrap(),
        SubgraphCache::build_fused(&net, &store, &min_sn).unwrap(),
    ] {
        let err = forward_cached(
            &DpeArray::new(4, 4),
            &net,
            &store,
            &max_sn,
            Some(&cache),
            &mut Arena::new(),
            &rand_input(&net, 9),
        )
        .unwrap_err();
        assert!(format!("{err:?}").contains("different SubGraph"));
    }
}
