//! Kernel-backend equivalence: the functional int8 datapath must compute
//! the same function under every [`KernelPolicy`].
//!
//! Runs real forward passes of the toy zoo SubNets under each backend and
//! fingerprints the logits. The report is deterministic and identical for
//! every `repro --kernel-policy` setting — that invariance *is* the
//! property being demonstrated. Wall-clock comparisons (which do vary run
//! to run) live in the `kernel_bench` binary and `BENCHMARK.json`.

use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::{act_quant, forward_cached, FunctionalOutput};
use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, KernelPolicy, Shape4, Tensor};
use sushi_wsnet::zoo;
use sushi_wsnet::{SuperNet, WeightStore};

use crate::experiments::common::ExpOptions;
use crate::report::{ExpReport, TextTable};

fn toy_input(net: &SuperNet, seed: u64) -> Tensor<i8> {
    let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut rng = DetRng::new(seed);
    let f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .expect("shape matches");
    quantize_tensor(&f, act_quant())
}

/// A compact deterministic fingerprint of a forward pass.
fn fingerprint(out: &FunctionalOutput) -> String {
    let sum: f32 = out.logits.iter().map(|v| v.abs()).sum();
    let peak = out.logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    format!("{sum:.4}/{peak:.4}")
}

/// `kernels`: functional-datapath equivalence across kernel backends.
#[must_use]
pub fn kernels(opts: &ExpOptions) -> ExpReport {
    let mut report =
        ExpReport::new("kernels", "Kernel backend equivalence on the functional datapath");
    for net in [zoo::toy_supernet(), zoo::toy_mobilenet_supernet()] {
        let store = WeightStore::synthesize(&net, opts.seed ^ 0x5EED);
        let input = toy_input(&net, opts.seed);
        let mut table =
            TextTable::new(vec!["subnet", "policy", "prediction", "logits |Σ|/max", "== naive"]);
        for (cfg_name, cfg) in [("min", net.min_config()), ("max", net.max_config())] {
            let sn = net.materialize(cfg_name, &cfg).expect("zoo config");
            let forward = |policy| {
                let dpe = DpeArray::new(16, 18).with_policy(policy);
                forward_cached(&dpe, &net, &store, &sn, None, &mut Arena::new(), &input)
                    .expect("forward pass")
            };
            let naive = forward(KernelPolicy::Naive);
            // `selected` exercises whatever --kernel-policy chose; its row
            // must be byte-identical across policies.
            let runs = [
                ("naive", KernelPolicy::Naive),
                ("gemm", KernelPolicy::Im2colGemm),
                ("auto", KernelPolicy::Auto),
                ("selected", opts.kernel_policy),
            ];
            let mut computed: Vec<(KernelPolicy, FunctionalOutput)> =
                vec![(KernelPolicy::Naive, naive.clone())];
            for (label, policy) in runs {
                // Each policy's forward pass runs once; later rows with the
                // same policy (`naive`, and `selected` under any setting)
                // reuse the cached output.
                let out = match computed.iter().find(|(p, _)| *p == policy) {
                    Some((_, out)) => out.clone(),
                    None => {
                        let out = forward(policy);
                        computed.push((policy, out.clone()));
                        out
                    }
                };
                table.push_row(vec![
                    cfg_name.to_string(),
                    label.to_string(),
                    out.prediction.to_string(),
                    fingerprint(&out),
                    if out == naive { "yes".to_string() } else { "DIVERGED".to_string() },
                ]);
            }
        }
        report.add_section(net.name.clone(), table);
    }
    report.add_note(
        "int8 accumulation is associative, so every backend computes identical logits; \
         wall-clock comparisons live in `kernel_bench` / BENCHMARK.json."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_report_shows_no_divergence() {
        let r = kernels(&ExpOptions::quick());
        assert_eq!(r.id, "kernels");
        assert_eq!(r.sections.len(), 2);
        for (_, table) in &r.sections {
            assert_eq!(table.num_rows(), 8); // 2 subnets x 4 policies
            for row in 0..table.num_rows() {
                assert_eq!(table.cell(row, 4), Some("yes"));
            }
        }
    }

    #[test]
    fn kernels_report_is_policy_invariant() {
        let mut a_opts = ExpOptions::quick();
        a_opts.kernel_policy = KernelPolicy::Naive;
        let mut b_opts = ExpOptions::quick();
        b_opts.kernel_policy = KernelPolicy::Im2colGemm;
        assert_eq!(kernels(&a_opts).render(), kernels(&b_opts).render());
    }
}
