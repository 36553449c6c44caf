//! Bit-exact functional execution of the DPE-array datapath (§4.2).
//!
//! ```text
//! cargo run --release --example functional_inference
//! ```
//!
//! Runs real int8 forward passes of two weight-sharing SubNets through the
//! simulated Dot-Product-Engine array — including the Zero-Subtraction
//! stage, residual adds and squeeze-excite gating — and demonstrates the
//! weight-sharing property numerically: the SubNets disagree on outputs
//! while physically sharing the smaller SubNet's weights.

use sushi::accel::dpe::DpeArray;
use sushi::accel::functional::{act_quant, forward_cached};
use sushi::tensor::quant::quantize_tensor;
use sushi::tensor::{Arena, DetRng, Shape4, Tensor};
use sushi::wsnet::{zoo, WeightStore};

fn main() {
    for net in [zoo::toy_supernet(), zoo::toy_mobilenet_supernet()] {
        println!("=== {} (input {0}x{1}x{1})", net.name, net.input_hw);
        let store = WeightStore::synthesize(&net, 2024);
        println!(
            "  SuperNet weights: {} KB across {} layers",
            store.stored_bytes() / 1024,
            store.num_layers()
        );

        let small = net.materialize("small", &net.min_config()).expect("min config");
        let large = net.materialize("large", &net.max_config()).expect("max config");
        assert!(small.graph.is_subset_of(&large.graph));
        println!(
            "  small SubNet: {} KB | large SubNet: {} KB | small ⊆ large: {}",
            small.weight_bytes / 1024,
            large.weight_bytes / 1024,
            small.graph.is_subset_of(&large.graph),
        );

        // A deterministic synthetic image, quantized to the datapath's int8.
        let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
        let mut rng = DetRng::new(7);
        let image_f = Tensor::from_vec(
            shape,
            (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect(),
        )
        .expect("shape matches");
        let image = quantize_tensor(&image_f, act_quant());

        // ZCU104-geometry DPE array; results are geometry-independent.
        let dpe = DpeArray::new(16, 18);
        // Scratch reused across every forward below (no cache: each call
        // installs the SubNet for itself).
        let mut arena = Arena::new();
        for sn in [&small, &large] {
            let out = forward_cached(&dpe, &net, &store, sn, None, &mut arena, &image)
                .expect("forward pass");
            let top: Vec<String> = {
                let mut idx: Vec<usize> = (0..out.logits.len()).collect();
                idx.sort_by(|&a, &b| out.logits[b].partial_cmp(&out.logits[a]).unwrap());
                idx.iter().take(3).map(|&i| format!("{}:{:.3}", i, out.logits[i])).collect()
            };
            println!(
                "  {} SubNet prediction: class {} | top-3 logits {}",
                sn.name,
                out.prediction,
                top.join(", ")
            );
        }

        // Geometry independence: a 1x1 "array" computes the same numbers.
        let tiny = DpeArray::new(1, 1);
        let a =
            forward_cached(&dpe, &net, &store, &small, None, &mut arena, &image).expect("forward");
        let b =
            forward_cached(&tiny, &net, &store, &small, None, &mut arena, &image).expect("forward");
        assert_eq!(a.logits, b.logits);
        println!("  DPE-geometry independence verified (16x18 == 1x1 array results)\n");
    }

    println!(
        "The same schedule is validated bit-exactly against the reference convolution in \
         sushi-accel's test suite; full-size workloads use the timing-only mode."
    );
}
