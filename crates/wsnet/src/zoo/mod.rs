//! The SuperNet model zoo: the paper's two workloads plus small synthetic
//! nets for functional validation.
//!
//! §5.1: "We choose weight shared version of ResNet50 and MobV3 as two
//! SuperNets. To evaluate SUSHI with full range on the pareto-frontier, we
//! pick a sequence of 6 and 7 SubNets from ResNet50 and MobV3."

mod mobilenet_v3;
mod resnet50;
mod toy;

pub use mobilenet_v3::{mobilenet_v3_paper_subnets, mobilenet_v3_supernet};
pub use resnet50::{resnet50_paper_subnets, resnet50_supernet};
pub use toy::{toy_mobilenet_supernet, toy_supernet};

use crate::arch::{Family, SuperNet};
use crate::subnet::SubNet;

/// The paper's Pareto-frontier SubNet picks for a SuperNet (6 for ResNet50,
/// 7 for MobV3), named `"A"` (smallest) onward.
///
/// # Panics
/// Panics unless `net` is one of the two full-size zoo entries: picks are
/// defined only for them. A toy net shares its family but not its stage
/// count, so `paper_subnets(&toy_supernet())` panics with
/// `paper pick must be valid: "config has 4 stage depths, SuperNet has 2 stages"`.
#[must_use]
pub fn paper_subnets(net: &SuperNet) -> Vec<SubNet> {
    match net.family {
        Family::OfaResNet50 => resnet50_paper_subnets(net),
        Family::OfaMobileNetV3 => mobilenet_v3_paper_subnets(net),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_supernets_have_distinct_families() {
        assert_eq!(resnet50_supernet().family, Family::OfaResNet50);
        assert_eq!(mobilenet_v3_supernet().family, Family::OfaMobileNetV3);
    }

    #[test]
    fn paper_subnets_dispatches_on_family() {
        assert_eq!(paper_subnets(&resnet50_supernet()).len(), 6);
        assert_eq!(paper_subnets(&mobilenet_v3_supernet()).len(), 7);
    }
}
