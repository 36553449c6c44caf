//! OFA-ResNet50: elastic-depth/expand/width bottleneck SuperNet.
//!
//! Calibrated so the six paper picks (A–F) span the §5.1 size band
//! (7.58 MB … 27.47 MB int8, ~7.55 MB shared) and the 75–80% top-1 band.

use crate::accuracy::AccuracyModel;
use crate::arch::{ElasticSpace, Family, StageSpec, Stem, SuperNet};
use crate::subnet::{SubNet, SubNetConfig};

/// Stage output channels at width 1.0 (vanilla ResNet50).
const BASE_OUT: [usize; 4] = [256, 512, 1024, 2048];
/// First-block stride per stage.
const STRIDES: [usize; 4] = [1, 2, 2, 2];
/// Maximum blocks per stage (elastic depth upper bound).
const MAX_BLOCKS: usize = 4;

/// Builds the OFA-ResNet50 SuperNet.
///
/// Elastic space: depth ∈ {2, 3, 4} blocks/stage (§2.1: "top k ∈ [2; 4]
/// blocks per-stage"), expand ratio ∈ {0.2, 0.25, 0.35}, width multiplier
/// ∈ {0.65, 0.8, 1.0} — the OFA-ResNet50 search space.
#[must_use]
pub fn resnet50_supernet() -> SuperNet {
    SuperNet {
        name: "OFA-ResNet50".into(),
        family: Family::OfaResNet50,
        input_hw: 224,
        stem_base: 64,
        head_channels: vec![1000],
        stages: BASE_OUT
            .iter()
            .zip(STRIDES.iter())
            .map(|(&base_out, &stride)| StageSpec {
                max_blocks: MAX_BLOCKS,
                base_out,
                stride,
                se: false,
                default_kernel: 3,
            })
            .collect(),
        layers: Vec::new(),
        elastic: ElasticSpace {
            depth_choices: vec![2, 3, 4],
            expand_choices: vec![0.2, 0.25, 0.35],
            kernel_choices: vec![],
            width_choices: vec![0.65, 0.8, 1.0],
        },
        accuracy: AccuracyModel::uncalibrated(),
    }
    // 7×7 stride-2 stem, then a 3×3 stride-2 max-pool; the 75.2%..80.3%
    // top-1 band of the paper's Figs. 10a/15b.
    .finish(Stem { kernel: 7, stride: 2, pool: 2 }, 0.752, 0.803, 3.0)
}

/// The six Pareto SubNets A (smallest) … F (largest) used throughout §5.
///
/// A is dominated by every other pick, so the shared SubGraph of the set is
/// A's graph — reproducing the paper's "shared weights take up 7.55 MB"
/// against a 7.58 MB smallest SubNet.
///
/// # Panics
/// Panics if `net` is not the OFA-ResNet50 SuperNet from this module.
#[must_use]
pub fn resnet50_paper_subnets(net: &SuperNet) -> Vec<SubNet> {
    assert_eq!(net.family, Family::OfaResNet50, "expects the OFA-ResNet50 SuperNet");
    let picks: [(&str, [usize; 4], f64, f64); 6] = [
        ("A", [2, 2, 2, 2], 0.25, 0.65),
        ("B", [2, 2, 2, 2], 0.25, 0.80),
        ("C", [3, 3, 3, 3], 0.25, 0.80),
        ("D", [3, 3, 3, 3], 0.25, 1.00),
        ("E", [3, 4, 4, 3], 0.25, 1.00),
        ("F", [4, 4, 4, 4], 0.25, 1.00),
    ];
    picks
        .iter()
        .map(|(name, depths, expand, width)| {
            let cfg = SubNetConfig::new(depths.to_vec(), vec![*expand; 4]).with_width(*width);
            net.materialize(*name, &cfg).expect("paper pick must be valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::NO_STAGE;
    use crate::layer::LayerRole;

    #[test]
    fn layer_count_matches_structure() {
        // 1 stem + 4 stages * (4 blocks * 3 convs + 1 downsample) + 1 head = 54.
        let net = resnet50_supernet();
        assert_eq!(net.num_layers(), 1 + 4 * (4 * 3 + 1) + 1);
    }

    #[test]
    fn stem_sees_full_resolution_and_stage0_sees_56() {
        let net = resnet50_supernet();
        assert_eq!(net.layers[0].in_h, 224);
        let s0 = net.layers.iter().find(|l| l.stage == 0).unwrap();
        assert_eq!(s0.in_h, 56);
    }

    #[test]
    fn final_stage_runs_at_7x7() {
        let net = resnet50_supernet();
        let last_conv =
            net.layers.iter().rfind(|l| l.stage == 3 && l.role == LayerRole::Project).unwrap();
        assert_eq!(last_conv.in_h, 7);
    }

    #[test]
    fn max_subnet_has_vanilla_resnet50_dims() {
        let net = resnet50_supernet();
        // conv2 of stage 3 at width 1.0, expand 0.35: rc(2048*0.35) = 720.
        let l = net.layers.iter().find(|l| l.stage == 3 && l.role == LayerRole::Spatial).unwrap();
        assert_eq!(l.max_kernels, 720);
        assert_eq!(l.max_channels, 720);
    }

    #[test]
    fn paper_picks_span_expected_size_band() {
        let net = resnet50_supernet();
        let picks = resnet50_paper_subnets(&net);
        let a = &picks[0];
        let f = &picks[5];
        // §5.1: sizes in [7.58, 27.47] MB. Synthetic arch must land within 25%.
        assert!((a.weight_mb() - 7.58).abs() / 7.58 < 0.25, "A = {:.2} MB", a.weight_mb());
        assert!((f.weight_mb() - 27.47).abs() / 27.47 < 0.25, "F = {:.2} MB", f.weight_mb());
    }

    #[test]
    fn paper_picks_sizes_and_accuracy_are_monotone() {
        let net = resnet50_supernet();
        let picks = resnet50_paper_subnets(&net);
        for w in picks.windows(2) {
            assert!(w[0].weight_bytes < w[1].weight_bytes, "{} !< {}", w[0].name, w[1].name);
            assert!(w[0].accuracy <= w[1].accuracy);
            assert!(w[0].flops < w[1].flops);
        }
    }

    #[test]
    fn accuracy_band_matches_paper() {
        let net = resnet50_supernet();
        let picks = resnet50_paper_subnets(&net);
        assert!(picks[0].accuracy_pct() >= 75.0 && picks[0].accuracy_pct() <= 76.5);
        assert!(picks[5].accuracy_pct() >= 79.0 && picks[5].accuracy_pct() <= 80.5);
    }

    #[test]
    fn smallest_pick_is_shared_subgraph() {
        let net = resnet50_supernet();
        let picks = resnet50_paper_subnets(&net);
        let shared = net.shared_subgraph(&picks);
        // A is dominated by all others, so shared == A's graph.
        assert_eq!(shared, picks[0].graph);
        let shared_mb = net.subgraph_weight_bytes(&shared) as f64 / 1e6;
        assert!(shared_mb > 5.0, "shared = {shared_mb:.2} MB");
    }

    #[test]
    fn nested_configs_produce_nested_graphs() {
        let net = resnet50_supernet();
        let small = net
            .materialize("s", &SubNetConfig::new(vec![2; 4], vec![0.2; 4]).with_width(0.65))
            .unwrap();
        let big = net
            .materialize("b", &SubNetConfig::new(vec![4; 4], vec![0.35; 4]).with_width(1.0))
            .unwrap();
        assert!(small.graph.is_subset_of(&big.graph));
    }

    #[test]
    fn dropped_blocks_are_trailing_ones() {
        let net = resnet50_supernet();
        let sn = net.materialize("d2", &SubNetConfig::new(vec![2; 4], vec![0.25; 4])).unwrap();
        for (layer, slice) in net.layers.iter().zip(sn.graph.slices()) {
            if layer.stage != NO_STAGE {
                let active = layer.block < 2;
                assert_eq!(!slice.is_empty(), active, "layer {}", layer.name);
            }
        }
    }

    #[test]
    fn flops_of_max_config_in_resnet_ballpark() {
        // Vanilla ResNet50 is ~4.1 GFLOPs; the elastic max (wider mids, 16
        // blocks) must exceed it but stay within an order of magnitude.
        let net = resnet50_supernet();
        let max = net.materialize("max", &net.max_config()).unwrap();
        assert!(max.gflops() > 4.0 && max.gflops() < 20.0, "{} GFLOPs", max.gflops());
    }

    #[test]
    fn rejects_depth_outside_choices_range() {
        let net = resnet50_supernet();
        let bad = SubNetConfig::new(vec![5, 2, 2, 2], vec![0.25; 4]);
        assert!(net.validate_config(&bad).is_err());
    }
}
