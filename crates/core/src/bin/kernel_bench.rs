//! Wall-clock benchmark of the functional int8 forward pass across kernel
//! backends: naive tiled schedule, per-call-packing GEMM, and the serving
//! hot path (weights pre-packed once per install, arena scratch reused).
//!
//! Times the largest ("max") SubNet of each zoo SuperNet through the full
//! DPE datapath, verifying on the way that every backend produces identical
//! logits. Reports five columns (BENCH_kernels.json schema v3):
//!
//! * `naive`  — [`KernelPolicy::Naive`], the cycle-faithful tiled schedule;
//! * `gemm`   — [`KernelPolicy::Im2colGemm`], installing (slice, lower,
//!              pack) per call;
//! * `packed` — fusion-off [`SubgraphCache::build`] + reused [`Arena`],
//!              steady state (pack-amortized: what every query after the
//!              install pays);
//! * `fused`  — [`SubgraphCache::build_fused`] steady state:
//!              bias/requant/activation run inside the conv epilogue of the
//!              k-pair microkernel instead of as separate passes;
//! * `cold`   — cache build + first packed forward (what the install-bearing
//!              query pays before amortization begins).
//!
//! ```text
//! kernel_bench                        # paper zoo (ResNet50 + MobileNetV3)
//! kernel_bench --quick                # toy zoo (CI-sized, seconds)
//! kernel_bench --runs 3               # best-of-3 timing
//! kernel_bench --out BENCH_kernels.json
//! kernel_bench --check BENCH_kernels.json   # fail if gemm/packed/fused regressed >20%
//! kernel_bench --check-schema BENCH_kernels.json  # machine-independent v3 gate
//! kernel_bench --min-speedup 8.0      # gate the largest workload's fused speedup
//! ```
//!
//! `scripts/bench_baseline.sh` combines `--check` (against the committed
//! baseline) and `--out` (regenerating it) in one measured run; CI's
//! bench-smoke job runs `--quick` (correctness + relative sanity) and
//! `--check-schema` (the committed baseline's v3 invariants), which do not
//! depend on the runner's absolute speed.

use std::time::Instant;

use sushi_accel::dpe::DpeArray;
use sushi_accel::functional::{act_quant, forward, forward_cached, SubgraphCache};
use sushi_core::metrics::{
    kernel_bench_from_json, kernel_bench_to_json, kernel_regressions, KernelBenchEntry,
};
use sushi_tensor::quant::quantize_tensor;
use sushi_tensor::{Arena, DetRng, KernelPolicy, Shape4, Tensor};
use sushi_wsnet::{zoo, SuperNet, WeightStore};

/// Allowed slowdown of the gemm/packed paths vs the committed baseline.
const REGRESSION_TOLERANCE_PCT: f64 = 20.0;

fn die(msg: &str) -> ! {
    eprintln!("kernel_bench: {msg}");
    std::process::exit(1);
}

fn parse_flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let pos = args.iter().position(|a| a == flag)?;
    let raw = args.get(pos + 1).unwrap_or_else(|| die(&format!("{flag} requires a value")));
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => die(&format!("invalid value '{raw}' for {flag}")),
    }
}

fn bench_net(net: &SuperNet, runs: usize, seed: u64) -> KernelBenchEntry {
    let store = WeightStore::synthesize(net, seed);
    let sn = net.materialize("max", &net.max_config()).expect("max config");
    let shape = Shape4::new(1, 3, net.input_hw, net.input_hw);
    let mut rng = DetRng::new(seed ^ 0xBEEF);
    let input_f =
        Tensor::from_vec(shape, (0..shape.volume()).map(|_| rng.uniform_f32(-1.0, 1.0)).collect())
            .expect("shape matches");
    let input = quantize_tensor(&input_f, act_quant());
    // ZCU104 geometry; the policy/caching is the only variable.
    let naive_dpe = DpeArray::new(16, 18).with_policy(KernelPolicy::Naive);
    let gemm_dpe = DpeArray::new(16, 18).with_policy(KernelPolicy::Im2colGemm);

    // Cold pack: build the install-time cache and run the first packed
    // forward — the cost the install-bearing query pays, exactly once.
    let mut arena = Arena::new();
    let t = Instant::now();
    let cache = SubgraphCache::build(net, &store, &sn).expect("SubNet installs");
    let packed_out = forward_cached(&gemm_dpe, net, &store, &sn, Some(&cache), &mut arena, &input)
        .expect("packed forward");
    let cold_pack_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut packed_out = Some(packed_out);

    // The serving path: same weights, bias/requant/activation fused into
    // the conv epilogue at install.
    let fused_cache =
        SubgraphCache::build_fused(net, &store, &sn).expect("SubNet lowers to a fused plan");

    let mut naive_ms = f64::INFINITY;
    let mut gemm_ms = f64::INFINITY;
    let mut packed_ms = f64::INFINITY;
    let mut fused_ms = f64::INFINITY;
    let mut naive_out = None;
    let mut gemm_out = None;
    let mut fused_out = None;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let out = forward_cached(&gemm_dpe, net, &store, &sn, Some(&cache), &mut arena, &input)
            .expect("packed forward");
        packed_ms = packed_ms.min(t.elapsed().as_secs_f64() * 1e3);
        packed_out = Some(out);

        let t = Instant::now();
        let out =
            forward_cached(&gemm_dpe, net, &store, &sn, Some(&fused_cache), &mut arena, &input)
                .expect("fused forward");
        fused_ms = fused_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fused_out = Some(out);

        let t = Instant::now();
        let out = forward(&gemm_dpe, net, &store, &sn, &input).expect("gemm forward");
        gemm_ms = gemm_ms.min(t.elapsed().as_secs_f64() * 1e3);
        gemm_out = Some(out);

        let t = Instant::now();
        let out = forward(&naive_dpe, net, &store, &sn, &input).expect("naive forward");
        naive_ms = naive_ms.min(t.elapsed().as_secs_f64() * 1e3);
        naive_out = Some(out);
    }
    assert_eq!(
        naive_out, gemm_out,
        "{}: naive and gemm backends diverged — benchmark numbers would be meaningless",
        net.name
    );
    assert_eq!(
        naive_out, packed_out,
        "{}: pre-packed serving path diverged from the naive oracle",
        net.name
    );
    assert_eq!(
        naive_out, fused_out,
        "{}: IR-lowered fused path diverged from the naive oracle",
        net.name
    );
    KernelBenchEntry {
        label: format!("{}/max", net.name),
        naive_ms,
        gemm_ms,
        packed_ms,
        fused_ms,
        cold_pack_ms,
    }
}

/// Machine-independent gate over a committed v3 baseline: schema parses,
/// every column is positive, and the within-file invariants hold (packed
/// not meaningfully slower than per-call packing; fused not meaningfully
/// slower than packed; cold pack at least one packed run). The ordering
/// bounds carry a small tolerance: depthwise-dominated workloads amortize
/// only a sliver of packing/fusion, so best-of-N scheduling noise at
/// baseline regeneration time must not be able to commit a file that CI
/// then rejects.
const SCHEMA_PACKED_SLACK: f64 = 1.10;

fn check_schema(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = kernel_bench_from_json(&text)?;
    for e in &entries {
        if e.label.is_empty() {
            return Err("entry with empty label".to_string());
        }
        for (what, v) in [
            ("naive_ms", e.naive_ms),
            ("gemm_ms", e.gemm_ms),
            ("packed_ms", e.packed_ms),
            ("fused_ms", e.fused_ms),
            ("cold_pack_ms", e.cold_pack_ms),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("'{}': {what} must be positive, got {v}", e.label));
            }
        }
        if e.packed_ms > e.gemm_ms * SCHEMA_PACKED_SLACK {
            return Err(format!(
                "'{}': packed_ms {:.3} exceeds gemm_ms {:.3} by more than {:.0}% — pre-packing \
                 must not lose to per-call packing in the committed baseline",
                e.label,
                e.packed_ms,
                e.gemm_ms,
                (SCHEMA_PACKED_SLACK - 1.0) * 100.0
            ));
        }
        if e.fused_ms > e.packed_ms * SCHEMA_PACKED_SLACK {
            return Err(format!(
                "'{}': fused_ms {:.3} exceeds packed_ms {:.3} by more than {:.0}% — epilogue \
                 fusion must not lose to the unfused cache in the committed baseline",
                e.label,
                e.fused_ms,
                e.packed_ms,
                (SCHEMA_PACKED_SLACK - 1.0) * 100.0
            ));
        }
        if e.cold_pack_ms < e.packed_ms {
            return Err(format!(
                "'{}': cold_pack_ms {:.3} below packed_ms {:.3} — the cold pass includes a \
                 packed forward, so this baseline is inconsistent",
                e.label, e.cold_pack_ms, e.packed_ms
            ));
        }
    }
    println!("{path}: schema v3 OK ({} entries)", entries.len());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runs: usize = parse_flag_value(&args, "--runs").unwrap_or(1);
    let out_path: Option<String> = parse_flag_value(&args, "--out");
    let check_path: Option<String> = parse_flag_value(&args, "--check");
    let schema_path: Option<String> = parse_flag_value(&args, "--check-schema");
    let min_speedup: Option<f64> = parse_flag_value(&args, "--min-speedup");

    if let Some(path) = &schema_path {
        if let Err(msg) = check_schema(path) {
            die(&format!("schema gate failed for {path}: {msg}"));
        }
        // Schema-only invocation: no measurement requested.
        if out_path.is_none() && check_path.is_none() && min_speedup.is_none() && !quick {
            return;
        }
    }

    let nets: Vec<SuperNet> = if quick {
        vec![zoo::toy_supernet(), zoo::toy_mobilenet_supernet()]
    } else {
        vec![zoo::resnet50_supernet(), zoo::mobilenet_v3_supernet()]
    };

    println!("timing largest SubNet forward pass, best of {runs} run(s) per backend\n");
    let mut entries = Vec::new();
    for net in &nets {
        let entry = bench_net(net, runs, 2024);
        println!(
            "{:<24} naive {:>10.2} ms   gemm {:>9.2} ms   packed {:>9.2} ms   fused {:>9.2} ms   \
             cold {:>9.2} ms   speedup {:>6.2}x (packed {:>6.2}x, fused {:>6.2}x)",
            entry.label,
            entry.naive_ms,
            entry.gemm_ms,
            entry.packed_ms,
            entry.fused_ms,
            entry.cold_pack_ms,
            entry.speedup(),
            entry.packed_speedup(),
            entry.fused_speedup()
        );
        entries.push(entry);
    }

    let mut failed = false;
    if let Some(path) = &check_path {
        match std::fs::read_to_string(path) {
            Err(e) => die(&format!("cannot read baseline {path}: {e}")),
            Ok(text) => match kernel_bench_from_json(&text) {
                Err(e) => die(&format!("malformed baseline {path}: {e}")),
                Ok(baseline) => {
                    match kernel_regressions(&entries, &baseline, REGRESSION_TOLERANCE_PCT) {
                        Ok(()) => println!(
                            "\nno regression vs {path} (tolerance {REGRESSION_TOLERANCE_PCT}%)"
                        ),
                        Err(msg) => {
                            eprintln!("\nREGRESSION vs {path}:\n{msg}");
                            failed = true;
                        }
                    }
                }
            },
        }
    }
    if let Some(min) = min_speedup {
        // The headline target applies to the largest workload (the one the
        // perf trajectory is anchored on) and to the serving hot path —
        // the fused (IR-lowered, pack-amortized) column; depthwise-dominated
        // nets win less because depthwise stays on the direct schedule.
        if let Some(largest) = entries.iter().max_by(|a, b| a.naive_ms.total_cmp(&b.naive_ms)) {
            if largest.fused_speedup() < min {
                eprintln!(
                    "{}: fused speedup {:.2}x below target {min}x",
                    largest.label,
                    largest.fused_speedup()
                );
                failed = true;
            }
        }
    }
    if let Some(path) = &out_path {
        if failed {
            eprintln!("not writing {path}: a failing run must not become the baseline");
        } else {
            if let Err(e) = std::fs::write(path, kernel_bench_to_json(&entries)) {
                die(&format!("cannot write {path}: {e}"));
            }
            println!("wrote {path}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}
