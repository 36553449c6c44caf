//! Install-time determinism of the IR pipeline — the contract CI's
//! `ir-smoke` step rides on: lowering the same SubNet twice (graph build →
//! layout pass → plan) must yield byte-identical plans, and building
//! the fused cache twice must fuse the same layers. Nondeterminism here
//! would make cache installs unreproducible across replicas, breaking the
//! shared-cache serving model. Also pins what an install holds: one weight
//! layout per layer, the one its plan step reads, and resident-byte
//! accounting that sees it.

use sushi_accel::functional::SubgraphCache;
use sushi_wsnet::ir_build::build_plan;
use sushi_wsnet::{zoo, WeightStore};

/// The full zoo (paper-scale + toy): graph construction, the layout pass and
/// slot allocation are all deterministic.
#[test]
fn lowering_the_full_zoo_twice_yields_identical_plans() {
    let nets = [
        zoo::toy_supernet(),
        zoo::toy_mobilenet_supernet(),
        zoo::resnet50_supernet(),
        zoo::mobilenet_v3_supernet(),
    ];
    for net in &nets {
        for (label, cfg) in [("max", net.max_config()), ("min", net.min_config())] {
            let sn = net.materialize(label, &cfg).expect("zoo config");
            let a = build_plan(net, &sn, true).expect("first lowering");
            let b = build_plan(net, &sn, true).expect("second lowering");
            assert_eq!(a, b, "{}/{label}: lowering is nondeterministic", net.name);
            assert!(!a.steps.is_empty());
        }
    }
}

/// Fused cache installs are reproducible: same net, same weights → the
/// same layers fused, the same plan driving the executor.
#[test]
fn building_the_fused_cache_twice_fuses_identically() {
    for (net, seed) in [(zoo::toy_supernet(), 7u64), (zoo::toy_mobilenet_supernet(), 8u64)] {
        let store = WeightStore::synthesize(&net, seed);
        let sn = net.materialize("max", &net.max_config()).expect("max config");
        let a = SubgraphCache::build_fused(&net, &store, &sn).expect("first install");
        let b = SubgraphCache::build_fused(&net, &store, &sn).expect("second install");
        assert_eq!(a.fused_layers(), b.fused_layers(), "{}: fusion set drifted", net.name);
        assert!(a.fused_layers() > 0, "{}: nothing fused on the max config", net.name);
        assert_eq!(a.plan(), b.plan(), "{}: installed plans differ", net.name);
    }
}

/// The paper zoo, both families, fusion on: every layer holds at most one
/// weight layout, the fused layers are exactly the plan's fused steps, and
/// the cache's resident bytes are the sum of the panels its layers hold.
#[test]
fn paper_zoo_installs_hold_one_layout_per_layer_and_account_for_it() {
    for net in [zoo::resnet50_supernet(), zoo::mobilenet_v3_supernet()] {
        let store = WeightStore::synthesize(&net, 9);
        for sn in zoo::paper_subnets(&net) {
            let what = format!("{}/{}", net.name, sn.name);
            let cache = SubgraphCache::build_fused(&net, &store, &sn).expect("install");
            let plan = cache.plan().expect("every install carries a plan");
            assert_eq!(cache.fused_layers(), plan.fused_conv_count(), "{what}");
            let mut bytes = 0;
            for cl in (0..net.num_layers()).filter_map(|idx| cache.layer(idx)) {
                assert!(cl.packed.is_none() || cl.fused.is_none(), "{what}: two layouts");
                bytes += cl.packed.as_ref().map_or(0, |p| p.packed_bytes());
                bytes += cl.fused.as_ref().map_or(0, |f| f.packed.packed_bytes());
            }
            assert!(bytes > 0, "{what}");
            assert_eq!(cache.packed_bytes(), bytes, "{what}");
        }
    }
}
