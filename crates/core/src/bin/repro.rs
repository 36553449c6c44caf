//! Regenerates the SUSHI paper's tables and figures.
//!
//! ```text
//! repro -- all                          # every experiment, paper-scale
//! repro -- fig10 fig16                  # specific experiments
//! repro -- all --quick                  # reduced streams (CI-sized)
//! repro -- all --save results           # also write results/<id>.txt
//! repro -- kernels --kernel-policy gemm # pin the functional kernel backend
//! repro -- serve                        # the serving runtime presets
//! repro -- serve --backend functional --no-fusion  # unfused cache installs
//! ```
//!
//! Any other `--` flag, or an unknown id, exits 2 before anything runs
//! and lists the accepted ones. A failed `--save` write exits 1 after
//! every selected experiment has run, naming the ids it could not save.
//!
//! The `serve` experiment runs the traffic presets (steady / burst /
//! diurnal / multi-tenant / overload / deadline-mix / failover / scale /
//! chaos) through the event-driven serving runtime (deterministic: same
//! seed, same report), each on its own pool size and routing policy, with
//! load-adaptive degradation — tenant-tiered on `multi_tenant`.
//!
//! `--backend analytical|functional` selects the serving runtime's
//! execution backend (`EngineBuilder::backend`): `analytical` (default)
//! runs the timing model only; `functional` additionally executes the real
//! int8 datapath per batch — one batch per backend call on one arena,
//! reading one pack-once weight cache per SubNet (a full-size zoo forward
//! takes tens of milliseconds, so full presets run for minutes).
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
use sushi_core::experiments::{run, ExpOptions, EXPERIMENTS};
use sushi_tensor::KernelPolicy;

const ACCEPTED: &str = "--quick, --no-fusion, --save <dir>, \
                        --kernel-policy <naive|gemm|auto>, --backend <analytical|functional>";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("accepted flags: {ACCEPTED}");
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut fusion) = (false, true);
    let (mut save_dir, mut kernel_policy, mut backend) =
        (None, KernelPolicy::Auto, BackendKind::Analytical);
    let mut ids: Vec<String> = Vec::new();
    // A flag's operand is consumed with the flag, so an id that happens to
    // equal an operand (e.g. a directory named "fig10") is still run.
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_error(&format!("{arg} requires a value")));
        match arg.as_str() {
            "--quick" => quick = true,
            "--no-fusion" => fusion = false,
            "--save" => save_dir = Some(value()),
            "--kernel-policy" => {
                kernel_policy = value().parse().unwrap_or_else(|e: String| usage_error(&e))
            }
            "--backend" => backend = value().parse().unwrap_or_else(|e: String| usage_error(&e)),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag '{flag}'")),
            _ => ids.push(arg.clone()),
        }
    }
    let mut opts = if quick { ExpOptions::quick() } else { ExpOptions::default() };
    opts.kernel_policy = kernel_policy;
    opts.backend = backend;
    // `--no-fusion` lowers functional installs without the layout pass
    // (bit-identical logits; a bisection aid).
    opts.fusion = fusion;

    let all: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
    let selected: Vec<&str> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
        all.clone()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    // Reject unknown ids before running anything, so stdout stays empty.
    let unknown: Vec<&str> = selected.iter().copied().filter(|id| !all.contains(id)).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {unknown:?}");
        eprintln!("available: {all:?}");
        std::process::exit(2);
    }

    let mut unsaved = Vec::new();
    for id in selected {
        let text = run(id, &opts).expect("id is in the registry").render();
        println!("{text}");
        if let Some(dir) = &save_dir {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                let mut f = std::fs::File::create(format!("{dir}/{id}.txt"))?;
                f.write_all(text.as_bytes())
            }) {
                eprintln!("could not save {id}: {e}");
                unsaved.push(id);
            }
        }
    }
    if !unsaved.is_empty() {
        eprintln!("not saved to {}: {unsaved:?}", save_dir.unwrap_or_default());
        std::process::exit(1);
    }
}
