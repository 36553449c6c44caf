//! Regenerates the SUSHI paper's tables and figures.
//!
//! ```text
//! repro -- all                          # every experiment, paper-scale
//! repro -- fig10 fig16                  # specific experiments
//! repro -- all --quick                  # reduced streams (CI-sized)
//! repro -- all --save results           # also write results/<id>.txt
//! repro -- kernels --kernel-policy gemm # pin the functional kernel backend
//! repro -- --serve                      # the serving runtime presets
//! repro -- --serve --workers 4          # override the preset worker pools
//! repro -- --serve --routing round_robin # override the routing policy
//! repro -- --serve --no-adaptive        # static scheduling (pre-adaptive)
//! repro -- --serve --no-tenants         # tierless global controller (pre-tenant)
//! repro -- --serve --backend functional --workers 4
//! repro -- --serve --backend functional --no-fusion  # unfused cache installs
//! ```
//!
//! `--serve` is shorthand for the `serve` experiment id: it runs the
//! traffic presets (steady / burst / diurnal / multi-tenant / overload /
//! deadline-mix / failover / scale / chaos) through the event-driven
//! serving runtime (deterministic: same seed, same report). Load-adaptive
//! degradation is on by default; `--no-adaptive` pins the presets to the
//! static pre-adaptive scheduling path bit-for-bit. Tenant tiering (the
//! `multi_tenant` preset's per-tier controllers) is on by default too;
//! `--no-tenants` falls back to the tierless global controller.
//!
//! `--backend analytical|functional` selects the serving runtime's
//! execution backend (`EngineBuilder::backend`): `analytical` (default)
//! runs the timing model only; `functional` additionally executes the real
//! int8 datapath per batch — concurrently across however many workers are
//! configured, reading one shared pack-once weight cache per SubNet
//! (full-size zoo forwards take seconds each — expect long runs).
//!
//! `--workers N` overrides the serving presets' worker-pool size
//! (`EngineBuilder::workers`); offered load keeps the presets' sizing.
//!
//! `--routing least_loaded|round_robin|cache_affinity` overrides the
//! presets' replica routing policy (`EngineBuilder::routing`).
//!
//! `--kernel-policy naive|gemm|auto` selects the kernel backend used by
//! experiments that execute the functional int8 datapath. Experiment
//! outputs are identical across policies (the backends compute the same
//! function); only wall time changes.
//!
//! `--no-fusion` makes functional cache installs lower their plan without
//! the layout annotation, so every conv step runs conv, bias, requantize,
//! activation against panel-packed weights instead of a fused conv
//! epilogue. Logits are bit-identical with fusion on or off; the flag
//! exists to time and bisect the fused path.

use std::io::Write as _;

use sushi_core::engine::BackendKind;
use sushi_core::experiments::{run, ExpOptions, ALL_IDS};
use sushi_core::serving::RoutingPolicy;
use sushi_tensor::KernelPolicy;

fn flag_operand<'a>(args: &'a [String], flag: &str) -> (Option<usize>, Option<&'a String>) {
    let pos = args.iter().position(|a| a == flag);
    (pos, pos.and_then(|i| args.get(i + 1)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (save_pos, save_dir) = flag_operand(&args, "--save");
    let save_dir = save_dir.cloned();
    let (policy_pos, policy_arg) = flag_operand(&args, "--kernel-policy");
    let kernel_policy = match (policy_pos, policy_arg) {
        (None, _) => KernelPolicy::Auto,
        (Some(_), Some(v)) => match v.parse::<KernelPolicy>() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        (Some(_), None) => {
            eprintln!("--kernel-policy requires a value (naive|gemm|auto)");
            std::process::exit(2);
        }
    };
    let (backend_pos, backend_arg) = flag_operand(&args, "--backend");
    let backend = match (backend_pos, backend_arg) {
        (None, _) => BackendKind::Analytical,
        (Some(_), Some(v)) => match v.parse::<BackendKind>() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        (Some(_), None) => {
            eprintln!("--backend requires a value (analytical|functional)");
            std::process::exit(2);
        }
    };
    let (workers_pos, workers_arg) = flag_operand(&args, "--workers");
    let workers = match (workers_pos, workers_arg) {
        (None, _) => None,
        (Some(_), Some(v)) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => {
                eprintln!("--workers requires a positive integer, got '{v}'");
                std::process::exit(2);
            }
        },
        (Some(_), None) => {
            eprintln!("--workers requires a value");
            std::process::exit(2);
        }
    };
    let (routing_pos, routing_arg) = flag_operand(&args, "--routing");
    let routing = match (routing_pos, routing_arg) {
        (None, _) => None,
        (Some(_), Some(v)) => match v.parse::<RoutingPolicy>() {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
        (Some(_), None) => {
            eprintln!("--routing requires a value (least_loaded|round_robin|cache_affinity)");
            std::process::exit(2);
        }
    };
    // Skip flag *operands by position*, not by value, so an id that happens
    // to equal an operand (e.g. a directory named "fig10") is still run.
    let operand_pos: Vec<usize> = [save_pos, policy_pos, backend_pos, workers_pos, routing_pos]
        .iter()
        .flatten()
        .map(|i| i + 1)
        .collect();
    let mut ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !operand_pos.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    // `--serve` selects the serving-runtime experiment (alongside any ids).
    if args.iter().any(|a| a == "--serve") && !ids.iter().any(|i| i == "serve") {
        ids.push("serve".to_string());
    }
    let mut opts = if quick { ExpOptions::quick() } else { ExpOptions::default() };
    opts.kernel_policy = kernel_policy;
    opts.backend = backend;
    opts.workers = workers;
    opts.routing = routing;
    // `--no-adaptive` pins the serving presets to static scheduling (the
    // pre-adaptive runtime, bit-for-bit); `--no-tenants` keeps adaptation
    // but drops the multi_tenant preset back to the global controller.
    opts.adaptive = !args.iter().any(|a| a == "--no-adaptive");
    opts.tenants = !args.iter().any(|a| a == "--no-tenants");
    // `--no-fusion` lowers functional installs under the rewrite catalog
    // without `annotate-layout` (bit-identical logits; a bisection aid).
    opts.fusion = !args.iter().any(|a| a == "--no-fusion");

    let selected: Vec<&str> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ALL_IDS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    let mut failures = Vec::new();
    for id in selected {
        match run(id, &opts) {
            Some(report) => {
                let text = report.render();
                println!("{text}");
                if let Some(dir) = &save_dir {
                    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                        let mut f = std::fs::File::create(format!("{dir}/{id}.txt"))?;
                        f.write_all(text.as_bytes())
                    }) {
                        eprintln!("warning: could not save {id}: {e}");
                    }
                }
            }
            None => failures.push(id),
        }
    }
    if !failures.is_empty() {
        eprintln!("unknown experiment id(s): {failures:?}");
        eprintln!("available: {ALL_IDS:?}");
        std::process::exit(2);
    }
}
