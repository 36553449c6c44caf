//! Fig. 2 (arithmetic intensity per layer) and Fig. 3 (latency of two
//! SubNet shapes as a function of the cached SubGraph's shape).

use sushi_accel::config::roofline_system;
use sushi_accel::exec::price_query;
use sushi_accel::roofline::{classify, layer_ai_series, Boundedness};
use sushi_wsnet::SubNetConfig;

use crate::experiments::common::ExpOptions;
use crate::report::{fmt_f, ExpReport, TextTable};

/// Fig. 2: per-layer arithmetic intensity of the two SuperNets' maximal
/// SubNets; lower AI in latter layers ⇒ memory-bound on the edge system.
#[must_use]
pub fn fig2(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new("fig2", "Arithmetic intensity per conv layer (FLOPs/Byte)");
    let cfg = roofline_system();
    for wl in crate::experiments::common::both_workloads() {
        let max = wl.net.materialize("max", &wl.net.max_config()).expect("max config");
        let series = layer_ai_series(&wl.net, &max);
        let mut t = TextTable::new(vec!["layer", "AI (F/B)", "bound"]);
        let mut memory_bound = 0usize;
        for (i, ai) in &series {
            let bound = classify(&cfg, *ai);
            if bound == Boundedness::MemoryBound {
                memory_bound += 1;
            }
            t.push_row(vec![i.to_string(), fmt_f(*ai, 1), format!("{bound:?}")]);
        }
        report.add_note(format!(
            "{}: {}/{} conv layers are memory-bound on the 19.2 GB/s / 1.296 TFLOPS system",
            wl.label,
            memory_bound,
            series.len()
        ));
        report.add_section(format!("{} (max SubNet)", wl.label), t);
    }
    report.add_note(
        "Paper: 'a large fraction of convolution layers running on a canonical edge \
         accelerator are memory-bound', with MobV3 lower-AI than ResNet50.",
    );
    report
}

/// Fig. 3: a deep-and-thin SubNet vs a shallow-and-wide SubNet, served
/// under cached SubGraphs of different shapes at a fixed PB budget. Each
/// SubNet prefers the cache matching its own shape.
#[must_use]
pub fn fig3(_opts: &ExpOptions) -> ExpReport {
    let mut report = ExpReport::new(
        "fig3",
        "SubNet latency as a function of cached-SubGraph shape (fixed budget)",
    );
    let wl = crate::experiments::common::resnet50_workload();
    let net = &wl.net;
    let deep_thin = net
        .materialize("deep&thin", &SubNetConfig::new(vec![4; 4], vec![0.2; 4]).with_width(0.65))
        .expect("valid");
    let wide_shallow = net
        .materialize("wide&shallow", &SubNetConfig::new(vec![2; 4], vec![0.35; 4]).with_width(1.0))
        .expect("valid");
    let cfg = sushi_accel::config::zcu104();
    let budget = cfg.buffers.pb_bytes;
    let caches = [
        ("more-layers cache", net.subgraph_to_budget(&deep_thin.graph, budget)),
        ("more-width cache", net.subgraph_to_budget(&wide_shallow.graph, budget)),
    ];
    let mut t = TextTable::new(vec!["served SubNet", "cached SubGraph", "latency (ms)"]);
    let mut best: Vec<(String, String)> = Vec::new();
    for sn in [&deep_thin, &wide_shallow] {
        let mut best_name = String::new();
        let mut best_lat = f64::INFINITY;
        for (cname, cache) in &caches {
            let lat = price_query(&cfg, net, sn, Some(cache)).latency_ms;
            if lat < best_lat {
                best_lat = lat;
                best_name = (*cname).to_string();
            }
            t.push_row(vec![sn.name.clone(), (*cname).to_string(), fmt_f(lat, 3)]);
        }
        best.push((sn.name.clone(), best_name));
    }
    report.add_section("latency matrix", t);
    for (sn, cache) in &best {
        report.add_note(format!("{sn} is fastest under the {cache}"));
    }
    report.add_note(
        "Paper: 'different cached SubGraphs are optimal for different served SubNets \
         with a non-trivial relationship based on the similarity of NN architecture parameters'.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reports_both_models() {
        let r = fig2(&ExpOptions::quick());
        assert_eq!(r.sections.len(), 2);
        assert!(r.sections[0].1.num_rows() > 30, "ResNet50 has >30 conv layers");
    }

    #[test]
    fn fig2_finds_memory_bound_layers() {
        let r = fig2(&ExpOptions::quick());
        // At least one note reports a nonzero memory-bound count.
        assert!(r.notes.iter().any(|n| n.contains("memory-bound") && !n.contains(" 0/")));
    }

    #[test]
    fn fig3_shape_affinity_holds() {
        // The headline claim: each SubNet is fastest under the cache shaped
        // like itself.
        let r = fig3(&ExpOptions::quick());
        let notes: Vec<&String> = r.notes.iter().filter(|n| n.contains("fastest")).collect();
        assert_eq!(notes.len(), 2);
        assert!(notes[0].contains("deep&thin") && notes[0].contains("more-layers"));
        assert!(notes[1].contains("wide&shallow") && notes[1].contains("more-width"));
    }
}
