//! Deterministic serving-runtime baseline: measures the traffic presets
//! and regenerates `BENCH_serve.json`.
//!
//! ```text
//! serve_bench                          # run presets, print summaries
//! serve_bench --quick                  # CI-sized streams
//! serve_bench --out BENCH_serve.json   # (re)write the baseline
//! serve_bench --workers 4              # override the preset worker pools
//! serve_bench --routing round_robin    # override the routing policy
//! serve_bench --no-adaptive            # static scheduling everywhere
//! serve_bench --no-tenants             # tierless global controller everywhere
//! serve_bench --backend functional     # real int8 forwards, any pool size
//! ```
//!
//! The default run records every preset twice — with load-adaptive
//! degradation and as a static (`adaptive: false`) companion row — plus
//! the `scale_functional` worker-scaling sweep: one cache-swap-heavy
//! toy-zoo stream served by the functional backend at 1/2/4/8 replicas
//! under cache-affinity routing (with a 4-replica round-robin ablation),
//! printed as a goodput speedup table. The tenant-tiered `multi_tenant`
//! adaptive run additionally records one row per occupied tenant tier
//! (`tier: "latency_critical"` / `"best_effort"`) next to its `"all"`
//! aggregate. The fault-injected `chaos` preset records its supervised
//! run (`faults: "supervised"`) plus an unsupervised ablation row
//! (`faults: "unsupervised"` — same fault plan, no retry/hedge/
//! quarantine); every other row carries `faults: "none"`. Rows are keyed
//! `(scenario, adaptive, workers, routing, tier, faults)` — schema v5.
//! `--backend` / `--workers` / `--routing` / `--no-adaptive` /
//! `--no-tenants` map onto the engine knobs; the committed baseline
//! records the default configuration, so overridden runs cannot be
//! combined with `--out`.
//!
//! Every recorded figure (p50/p95/p99, goodput, SLO-violation rate, drop
//! and degrade/upgrade counts) is *simulated* — no wall clock — so the
//! committed baseline is a golden file: `--out` rewrites it byte for byte
//! unless serving semantics changed, and the gate is a plain text diff
//! (`serve_bench --out BENCH_serve.json && git diff --exit-code --
//! BENCH_serve.json`). Wall-clock throughput of the simulator itself is
//! tracked separately by the `serve_sim` criterion bench.

use sushi_core::engine::BackendKind;
use sushi_core::experiments::ExpOptions;
use sushi_core::metrics::{serve_bench_to_json, ServeBenchEntry};
use sushi_core::serving::{preset_bench_rows, run_functional_scaling, RoutingPolicy};

fn die(msg: &str) -> ! {
    eprintln!("serve_bench: {msg}");
    std::process::exit(1);
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    let pos = args.iter().position(|a| a == flag)?;
    Some(args.get(pos + 1).unwrap_or_else(|| die(&format!("{flag} requires a value"))))
}

fn print_row(label: &str, s: &ServeBenchEntry) {
    println!(
        "{label:<26} p50 {:>8.3} ms   p95 {:>8.3} ms   p99 {:>8.3} ms   goodput {:>7.1} q/s   SLO viol {:>6.2}%   dropped {:>3}   lvl\u{2193}{} \u{2191}{}",
        s.p50_ms,
        s.p95_ms,
        s.p99_ms,
        s.goodput_qps,
        100.0 * s.slo_violation_rate,
        s.dropped,
        s.degrades,
        s.upgrades
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_adaptive = args.iter().any(|a| a == "--no-adaptive");
    let no_tenants = args.iter().any(|a| a == "--no-tenants");
    let out_path = flag_value(&args, "--out").cloned();
    let backend = match flag_value(&args, "--backend") {
        None => BackendKind::Analytical,
        Some(v) => v.parse::<BackendKind>().unwrap_or_else(|e| die(&e)),
    };
    let workers = flag_value(&args, "--workers")
        .map(|v| v.parse::<usize>().unwrap_or_else(|_| die("--workers requires an integer")));
    let routing = flag_value(&args, "--routing")
        .map(|v| v.parse::<RoutingPolicy>().unwrap_or_else(|e| die(&e)));
    // The committed baseline records the default configuration; an
    // overridden run must never rewrite it.
    let overridden = backend != BackendKind::Analytical
        || workers.is_some()
        || routing.is_some()
        || no_adaptive
        || no_tenants;
    if overridden && out_path.is_some() {
        die("--backend/--workers/--routing/--no-adaptive/--no-tenants overrides cannot be \
             combined with --out");
    }

    let mut opts = if quick { ExpOptions::quick() } else { ExpOptions::default() };
    opts.backend = backend;
    opts.workers = workers;
    opts.routing = routing;
    opts.adaptive = !no_adaptive;
    opts.tenants = !no_tenants;
    println!(
        "serving presets, {} queries each, {} backend, {} scheduling (simulated time — deterministic)\n",
        opts.queries,
        opts.backend,
        if opts.adaptive { "adaptive" } else { "static" }
    );
    // Every preset, adaptive (unless --no-adaptive) plus its static
    // companion row — both keyed by the effective (workers, routing).
    let mut entries = preset_bench_rows(&opts).unwrap_or_else(|e| die(&e.to_string()));
    for e in &entries {
        let tier = if e.tier == "all" { String::new() } else { format!(" [{}]", e.tier) };
        let mode = match (e.adaptive, e.faults.as_str()) {
            (false, _) => " (static)",
            (true, "unsupervised") => " (unsupervised)",
            _ => "",
        };
        print_row(&format!("{}{tier}{mode}", e.scenario), e);
    }

    // The functional worker-scaling sweep. Its sizing is fixed
    // (quick-independent) and it ignores the overrides above, so it only
    // runs in default configurations — exactly the ones that may rewrite
    // the baseline.
    if !overridden {
        println!("\nfunctional worker scaling (toy zoo, cache-swap-heavy stream):");
        let sweep = run_functional_scaling(&opts).unwrap_or_else(|e| die(&e.to_string()));
        let base_goodput = sweep
            .iter()
            .find(|(w, r, _)| *w == 1 && *r == RoutingPolicy::CacheAffinity)
            .map(|(_, _, s)| s.goodput_qps)
            .unwrap_or_else(|| die("scaling sweep is missing its 1-worker anchor"));
        for (w, r, summary) in &sweep {
            let e = ServeBenchEntry::from_summary(
                "scale_functional",
                false,
                *w,
                r.name(),
                "all",
                "none",
                summary,
            );
            print_row(&format!("scale_functional ({w}w, {r})"), &e);
            entries.push(e);
        }
        println!("\n{:<10} {:>14} {:>10}", "workers", "goodput (q/s)", "speedup");
        for (w, r, summary) in &sweep {
            if *r == RoutingPolicy::CacheAffinity {
                println!(
                    "{:<10} {:>14.1} {:>9.2}x",
                    w,
                    summary.goodput_qps,
                    summary.goodput_qps / base_goodput
                );
            }
        }
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, serve_bench_to_json(&entries)) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
}
