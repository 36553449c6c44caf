//! Deterministic serving-runtime baseline: measures the traffic presets
//! and regenerates `BENCH_serve.json`.
//!
//! ```text
//! serve_bench                          # run presets, print summaries
//! serve_bench --quick                  # CI-sized streams
//! serve_bench --out BENCH_serve.json   # (re)write the baseline
//! ```
//!
//! Any other argument exits 2 and lists the accepted flags.
//!
//! Every preset runs on its own pool size and routing policy. The run
//! records every preset twice — with load-adaptive degradation and as a
//! static (`adaptive: false`) companion row — plus the `scale_functional`
//! worker-scaling sweep: one cache-swap-heavy toy-zoo stream served by
//! the functional backend at 1/2/4/8 replicas under cache-affinity routing
//! (with a round-robin ablation at 2/4/8), printed as a goodput speedup
//! table. The tenant-tiered `multi_tenant` adaptive run additionally
//! records one row per occupied tenant tier (`tier: "latency_critical"` /
//! `"best_effort"`) next to its `"all"` aggregate. The fault-injected
//! `chaos` preset records its supervised run (`faults: "supervised"`) plus
//! an unsupervised ablation row (`faults: "unsupervised"` — same fault
//! plan, no retry/hedge/quarantine); every other row carries
//! `faults: "none"`. Rows are keyed
//! `(scenario, adaptive, workers, routing, tier, faults)` — schema v5.
//!
//! Every recorded figure (p50/p95/p99, goodput, SLO-violation rate, drop
//! and degrade/upgrade counts) is *simulated* — no wall clock — so the
//! committed baseline is a golden file: `--out` rewrites it byte for byte
//! unless serving semantics changed, and the gate is a plain text diff
//! (`serve_bench --out BENCH_serve.json && git diff --exit-code --
//! BENCH_serve.json`). Wall-clock throughput of the simulator itself is
//! measured separately by the `pool_sim` workload of `BENCHMARK.json`.

use sushi_core::experiments::ExpOptions;
use sushi_core::metrics::{serve_bench_to_json, ServeBenchEntry, ServeSummary};
use sushi_core::serving::{preset_bench_rows, run_functional_scaling, RoutingPolicy};

fn die(msg: &str) -> ! {
    eprintln!("serve_bench: {msg}");
    std::process::exit(1);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("serve_bench: {msg} (accepted: --quick, --out <path>)");
    std::process::exit(2);
}

/// Parses `--quick` and `--out <path>`; anything else exits 2.
fn parse_args(mut args: impl Iterator<Item = String>) -> (bool, Option<String>) {
    let (mut quick, mut out) = (false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| usage_error("--out requires a value")))
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    (quick, out)
}

fn print_row(label: &str, s: &ServeSummary) {
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
    let (quick, out_path) = parse_args(std::env::args().skip(1));
    let opts = if quick { ExpOptions::quick() } else { ExpOptions::default() };
    println!(
        "serving presets, {} queries each, {} backend, {} scheduling (simulated time — deterministic)\n",
        opts.queries,
        opts.backend,
        if opts.adaptive { "adaptive" } else { "static" }
    );
    // Every preset, adaptive plus its static companion row.
    let mut entries = preset_bench_rows(&opts).unwrap_or_else(|e| die(&e.to_string()));
    for e in &entries {
        let tier = if e.tier == "all" { String::new() } else { format!(" [{}]", e.tier) };
        let mode = match (e.adaptive, e.faults.as_str()) {
            (false, _) => " (static)",
            (true, "unsupervised") => " (unsupervised)",
            _ => "",
        };
        print_row(&format!("{}{tier}{mode}", e.scenario), &e.summary);
    }

    // The functional worker-scaling sweep. Its sizing is fixed
    // (quick-independent).
    println!("\nfunctional worker scaling (toy zoo, cache-swap-heavy stream):");
    let sweep = run_functional_scaling(&opts).unwrap_or_else(|e| die(&e.to_string()));
    let base_goodput = sweep
        .iter()
        .find(|(w, r, _)| *w == 1 && *r == RoutingPolicy::CacheAffinity)
        .map(|(_, _, s)| s.goodput_qps)
        .unwrap_or_else(|| die("scaling sweep is missing its 1-worker anchor"));
    for (w, r, summary) in &sweep {
        print_row(&format!("scale_functional ({w}w, {r})"), summary);
        entries.push(ServeBenchEntry {
            scenario: "scale_functional".into(),
            adaptive: false,
            workers: *w,
            routing: r.name().into(),
            tier: "all".into(),
            faults: "none".into(),
            summary: summary.clone(),
        });
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

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, serve_bench_to_json(&entries)) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("wrote {path}");
    }
}
