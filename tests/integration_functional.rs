//! Cross-crate functional-mode integration: the bit-exact DPE datapath
//! executing whole weight-shared SubNets.

use sushi::accel::dpe::DpeArray;
use sushi::accel::functional::{act_quant, forward_cached};
use sushi::tensor::quant::quantize_tensor;
use sushi::tensor::{Arena, DetRng, Shape4, Tensor};
use sushi::wsnet::sampler::ConfigSampler;
use sushi::wsnet::{zoo, WeightStore};

fn rand_image(hw: usize, seed: u64) -> Tensor<i8> {
    let shape = Shape4::new(1, 3, hw, hw);
    let mut rng = DetRng::new(seed);
    let f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .unwrap();
    quantize_tensor(&f, act_quant())
}

#[test]
fn every_sampled_toy_subnet_executes() {
    for net in [zoo::toy_supernet(), zoo::toy_mobilenet_supernet()] {
        let store = WeightStore::synthesize(&net, 5);
        let image = rand_image(net.input_hw, 1);
        let dpe = DpeArray::new(4, 4);
        for sn in ConfigSampler::new(&net, 9).sample_subnets(6) {
            let out = forward_cached(&dpe, &net, &store, &sn, None, &mut Arena::new(), &image)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", net.name, sn.name));
            assert!(!out.logits.is_empty());
            assert!(out.logits.iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn shared_prefix_of_weights_drives_both_subnets() {
    // Weight sharing end-to-end: zeroing a weight INSIDE the shared slice
    // changes both SubNets' outputs.
    let net = zoo::toy_supernet();
    let store_a = WeightStore::synthesize(&net, 6);
    let mut store_b = store_a.clone();
    {
        // Shift every weight of the first block conv — its top-left slice
        // is inside every SubNet. A bulk shift survives int8 requantization
        // where a single-weight flip would be rounded away.
        let t = store_b.layer_mut_for_tests(1);
        for v in t.as_mut_slice() {
            *v = v.wrapping_add(64);
        }
    }
    let image = rand_image(net.input_hw, 2);
    let dpe = DpeArray::new(2, 2);
    let small = net.materialize("min", &net.min_config()).unwrap();
    let large = net.materialize("max", &net.max_config()).unwrap();
    for sn in [&small, &large] {
        let a = forward_cached(&dpe, &net, &store_a, sn, None, &mut Arena::new(), &image).unwrap();
        let b = forward_cached(&dpe, &net, &store_b, sn, None, &mut Arena::new(), &image).unwrap();
        assert_ne!(a.logits, b.logits, "{} unaffected by shared-weight change", sn.name);
    }
}

#[test]
fn functional_and_timing_modes_agree_on_workload_ordering() {
    // The timing model and the functional model describe the same machine:
    // a strictly larger SubNet must cost more simulated cycles (timing
    // mode). Functional mode has no timing, but its FLOPs proxy must order
    // the same way — tying the two views together.
    let net = zoo::toy_supernet();
    let small = net.materialize("min", &net.min_config()).unwrap();
    let large = net.materialize("max", &net.max_config()).unwrap();
    let config = sushi::accel::config::zcu104();
    let price = |sn| sushi::accel::exec::price_query(&config, &net, sn, None).cycles.total();
    let (t_small, t_large) = (price(&small), price(&large));
    assert!(t_small < t_large);
    assert!(small.flops < large.flops);
}

#[test]
fn dpe_geometry_never_changes_results_end_to_end() {
    let net = zoo::toy_mobilenet_supernet();
    let store = WeightStore::synthesize(&net, 8);
    let image = rand_image(net.input_hw, 3);
    let sn = net.materialize("max", &net.max_config()).unwrap();
    let reference =
        forward_cached(&DpeArray::new(1, 1), &net, &store, &sn, None, &mut Arena::new(), &image)
            .unwrap();
    for (kp, cp) in [(2, 3), (5, 7), (16, 18), (32, 32)] {
        let dpe = DpeArray::new(kp, cp);
        let out = forward_cached(&dpe, &net, &store, &sn, None, &mut Arena::new(), &image).unwrap();
        assert_eq!(out.logits, reference.logits, "geometry {kp}x{cp} diverged");
    }
}
