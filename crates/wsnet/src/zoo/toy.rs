//! Tiny SuperNets for functional (bit-exact) validation of the accelerator.
//!
//! Full-size workloads run in timing-only mode; these toys are small enough
//! to execute numerically in tests, while sharing the paper families' block
//! layout and materialization rules with the full zoo entries.

use crate::accuracy::AccuracyModel;
use crate::arch::{ElasticSpace, Family, StageSpec, Stem, SuperNet};

/// The toys' 3×3 stride-1 stem with no max-pool.
const STEM: Stem = Stem { kernel: 3, stride: 1, pool: 1 };

/// Two stages of ≤2 blocks: 16 channels at stride 1, then 24 at stride 2.
fn toy_stages(se: [bool; 2], default_kernel: usize) -> Vec<StageSpec> {
    [(16, 1), (24, 2)]
        .iter()
        .zip(se)
        .map(|(&(base_out, stride), se)| StageSpec {
            max_blocks: 2,
            base_out,
            stride,
            se,
            default_kernel,
        })
        .collect()
}

/// A miniature ResNet-style SuperNet: 16×16 input, two stages of ≤2
/// bottleneck blocks.
#[must_use]
pub fn toy_supernet() -> SuperNet {
    SuperNet {
        name: "Toy-ResNet".into(),
        family: Family::OfaResNet50,
        input_hw: 16,
        stem_base: 8,
        head_channels: vec![32],
        stages: toy_stages([false, false], 3),
        layers: Vec::new(),
        elastic: ElasticSpace {
            depth_choices: vec![1, 2],
            expand_choices: vec![0.25, 0.5],
            kernel_choices: vec![],
            width_choices: vec![0.5, 1.0],
        },
        accuracy: AccuracyModel::uncalibrated(),
    }
    .finish(STEM, 0.70, 0.80, 3.0)
}

/// A miniature MobileNetV3-style SuperNet with one SE stage and elastic
/// 3/5 kernels, for depthwise + SE functional coverage.
#[must_use]
pub fn toy_mobilenet_supernet() -> SuperNet {
    SuperNet {
        name: "Toy-MobileNet".into(),
        family: Family::OfaMobileNetV3,
        input_hw: 16,
        stem_base: 8,
        head_channels: vec![64, 96, 32],
        stages: toy_stages([false, true], 5),
        layers: Vec::new(),
        elastic: ElasticSpace {
            depth_choices: vec![1, 2],
            expand_choices: vec![2.0, 3.0],
            kernel_choices: vec![3, 5],
            width_choices: vec![1.0],
        },
        accuracy: AccuracyModel::uncalibrated(),
    }
    .finish(STEM, 0.70, 0.80, 3.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_nets_materialize_min_and_max() {
        for net in [toy_supernet(), toy_mobilenet_supernet()] {
            let min = net.materialize("min", &net.min_config()).unwrap();
            let max = net.materialize("max", &net.max_config()).unwrap();
            assert!(min.flops < max.flops, "{}", net.name);
            assert!(min.graph.is_subset_of(&max.graph));
            assert_eq!(max.graph, net.full_graph());
        }
    }

    #[test]
    fn toy_nets_are_small_enough_for_functional_tests() {
        for net in [toy_supernet(), toy_mobilenet_supernet()] {
            let max = net.materialize("max", &net.max_config()).unwrap();
            assert!(max.weight_bytes < 200_000, "{}: {} bytes", net.name, max.weight_bytes);
            assert!(max.flops < 20_000_000, "{}: {} flops", net.name, max.flops);
        }
    }

    #[test]
    fn toy_accuracy_band_is_calibrated() {
        let net = toy_supernet();
        let min = net.materialize("min", &net.min_config()).unwrap();
        let max = net.materialize("max", &net.max_config()).unwrap();
        assert!((min.accuracy - 0.70).abs() < 1e-9);
        assert!((max.accuracy - 0.80).abs() < 1e-9);
    }
}
