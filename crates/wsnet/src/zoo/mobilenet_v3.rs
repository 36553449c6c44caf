//! OFA-MobileNetV3: elastic-depth/expand/kernel MBConv SuperNet with
//! squeeze-and-excite.
//!
//! Calibrated so the seven paper picks (A–G) span the §5.1 size band
//! (2.97 MB … 4.74 MB int8, ~2.90 MB shared) and the ~76–80% top-1 band.

use crate::accuracy::AccuracyModel;
use crate::arch::{ElasticSpace, Family, StageSpec, Stem, SuperNet};
use crate::subnet::{SubNet, SubNetConfig};

/// Stage output channels (MobileNetV3-Large-style widths).
const BASE_OUT: [usize; 5] = [24, 40, 80, 112, 160];
/// First-block stride per stage.
const STRIDES: [usize; 5] = [2, 2, 2, 1, 2];
/// Which stages carry squeeze-and-excite modules.
const SE: [bool; 5] = [false, true, false, true, true];
/// Maximum blocks per stage.
const MAX_BLOCKS: usize = 4;

/// Builds the OFA-MobileNetV3 SuperNet.
///
/// Elastic space: depth ∈ {2, 3, 4}, expand ratio ∈ {3, 4, 6}, kernel size
/// ∈ {3, 5, 7} — the OFA-MobileNetV3 search space (width fixed at 1.0, as
/// in OFA). The head is a final 1×1 expand and two classifier layers, all
/// on pooled features.
#[must_use]
pub fn mobilenet_v3_supernet() -> SuperNet {
    SuperNet {
        name: "OFA-MobileNetV3".into(),
        family: Family::OfaMobileNetV3,
        input_hw: 224,
        stem_base: 16,
        head_channels: vec![960, 1280, 1000],
        stages: BASE_OUT
            .iter()
            .zip(STRIDES.iter())
            .zip(SE.iter())
            .map(|((&base_out, &stride), &se)| StageSpec {
                max_blocks: MAX_BLOCKS,
                base_out,
                stride,
                se,
                default_kernel: 7,
            })
            .collect(),
        layers: Vec::new(),
        elastic: ElasticSpace {
            depth_choices: vec![2, 3, 4],
            expand_choices: vec![3.0, 4.0, 6.0],
            kernel_choices: vec![3, 5, 7],
            width_choices: vec![1.0],
        },
        accuracy: AccuracyModel::uncalibrated(),
    }
    // 3×3 stride-2 stem, no max-pool; the ~75.9%..80.1% top-1 band of the
    // paper's Figs. 10b/15d.
    .finish(Stem { kernel: 3, stride: 2, pool: 1 }, 0.759, 0.801, 3.5)
}

/// The seven Pareto SubNets A (smallest) … G (largest) used throughout §5.
///
/// A is dominated by every other pick, making it the shared SubGraph —
/// reproducing §5.1's "shared weights take up 2.90 MB" against a 2.97 MB
/// smallest SubNet.
///
/// # Panics
/// Panics if `net` is not the OFA-MobileNetV3 SuperNet from this module.
#[must_use]
pub fn mobilenet_v3_paper_subnets(net: &SuperNet) -> Vec<SubNet> {
    assert_eq!(net.family, Family::OfaMobileNetV3, "expects the OFA-MobileNetV3 SuperNet");
    let picks: [(&str, [usize; 5], f64, [usize; 5]); 7] = [
        ("A", [2, 2, 2, 2, 2], 3.0, [3, 3, 3, 3, 3]),
        ("B", [2, 2, 2, 2, 2], 3.0, [5, 5, 5, 5, 5]),
        ("C", [2, 2, 2, 2, 2], 4.0, [5, 5, 5, 5, 5]),
        ("D", [3, 3, 3, 3, 3], 3.0, [5, 5, 5, 5, 5]),
        ("E", [3, 3, 3, 3, 3], 4.0, [5, 5, 5, 5, 5]),
        ("F", [3, 3, 3, 3, 3], 4.0, [5, 5, 5, 7, 7]),
        ("G", [3, 3, 3, 3, 3], 4.0, [7, 7, 7, 7, 7]),
    ];
    picks
        .iter()
        .map(|(name, depths, expand, kernels)| {
            let cfg =
                SubNetConfig::new(depths.to_vec(), vec![*expand; 5]).with_kernels(kernels.to_vec());
            net.materialize(*name, &cfg).expect("paper pick must be valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvKind, LayerRole, LayerSlice};

    #[test]
    fn layer_count_matches_structure() {
        // 1 stem + per stage: 4 blocks * (3 convs + 2 SE if se) + 3 head layers.
        let per_stage: usize = SE.iter().map(|&se| 4 * (3 + if se { 2 } else { 0 })).sum();
        let net = mobilenet_v3_supernet();
        assert_eq!(net.num_layers(), 1 + per_stage + 3);
    }

    #[test]
    fn depthwise_layers_have_unit_channel_dim() {
        let net = mobilenet_v3_supernet();
        for l in net.layers.iter().filter(|l| l.kind == ConvKind::Depthwise) {
            assert_eq!(l.max_channels, 1, "layer {}", l.name);
            assert_eq!(l.max_kernel_size, 7);
            assert!(l.elastic_kernel);
        }
    }

    #[test]
    fn elastic_kernel_shrinks_weight_bytes() {
        let net = mobilenet_v3_supernet();
        let k7 = net
            .materialize(
                "k7",
                &SubNetConfig::new(vec![2; 5], vec![3.0; 5]).with_kernels(vec![7; 5]),
            )
            .unwrap();
        let k3 = net
            .materialize(
                "k3",
                &SubNetConfig::new(vec![2; 5], vec![3.0; 5]).with_kernels(vec![3; 5]),
            )
            .unwrap();
        assert!(k3.weight_bytes < k7.weight_bytes);
        assert!(k3.graph.is_subset_of(&k7.graph));
    }

    #[test]
    fn se_layers_exist_only_in_se_stages() {
        let net = mobilenet_v3_supernet();
        for l in &net.layers {
            if l.role == LayerRole::SeReduce || l.role == LayerRole::SeExpand {
                assert!(SE[l.stage], "SE layer in non-SE stage: {}", l.name);
            }
        }
    }

    #[test]
    fn paper_picks_span_expected_size_band() {
        let net = mobilenet_v3_supernet();
        let picks = mobilenet_v3_paper_subnets(&net);
        let a = &picks[0];
        let g = &picks[6];
        // §5.1: sizes in [2.97, 4.74] MB; synthetic arch within 30%.
        assert!((a.weight_mb() - 2.97).abs() / 2.97 < 0.30, "A = {:.2} MB", a.weight_mb());
        assert!((g.weight_mb() - 4.74).abs() / 4.74 < 0.30, "G = {:.2} MB", g.weight_mb());
    }

    #[test]
    fn paper_picks_are_monotone_in_flops_and_accuracy() {
        let net = mobilenet_v3_supernet();
        let picks = mobilenet_v3_paper_subnets(&net);
        for w in picks.windows(2) {
            assert!(w[0].flops < w[1].flops, "{} !< {}", w[0].name, w[1].name);
            assert!(w[0].accuracy <= w[1].accuracy);
        }
    }

    #[test]
    fn smallest_pick_is_shared_subgraph() {
        let net = mobilenet_v3_supernet();
        let picks = mobilenet_v3_paper_subnets(&net);
        assert_eq!(net.shared_subgraph(&picks), picks[0].graph);
    }

    #[test]
    fn mobv3_is_much_smaller_than_resnet50() {
        let m = mobilenet_v3_supernet();
        let r = super::super::resnet50::resnet50_supernet();
        let m_max = m.materialize("max", &m.max_config()).unwrap();
        let r_max = r.materialize("max", &r.max_config()).unwrap();
        assert!(m_max.weight_bytes * 3 < r_max.weight_bytes);
    }

    #[test]
    fn mobv3_flops_in_expected_ballpark() {
        // MobileNetV3-Large is ~0.44 GFLOPs; OFA max should be a small multiple.
        let net = mobilenet_v3_supernet();
        let max = net.materialize("max", &net.max_config()).unwrap();
        assert!(max.gflops() > 0.4 && max.gflops() < 5.0, "{} GFLOPs", max.gflops());
    }

    #[test]
    fn se_slices_track_expanded_mid_channels() {
        let net = mobilenet_v3_supernet();
        let sn = net
            .materialize("t", &SubNetConfig::new(vec![2; 5], vec![4.0; 5]).with_kernels(vec![5; 5]))
            .unwrap();
        for (l, s) in net.layers.iter().zip(sn.graph.slices()) {
            if l.role == LayerRole::SeReduce && !s.is_empty() {
                // Reduce maps mid -> ~mid/4.
                assert!(s.channels >= s.kernels * 3, "layer {} slice {s:?}", l.name);
            }
        }
        let _ = LayerSlice::empty();
    }
}
