//! One benchmark for the whole SUSHI stack.
//!
//! ```text
//! sushi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! sushi-benchmark run   --seed <n> [--seconds <s>] [--smoke]   every workload, untraced
//! sushi-benchmark trace --seed <n> [--seconds <s>] [--smoke]   every workload, traced
//! sushi-benchmark agree <A> <B>                                compare two result sets
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs. It prints every
//! metric as `workload metric value unit` and, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `run` and
//! `trace` start one such process per workload (so `peak_rss_mb` is per
//! workload) and pass the metric lines through — a *result set*. Every
//! form exits non-zero when a check failed.

mod agree;
mod metrics;
mod stats;
mod stream;
mod sut;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Report, RunConfig, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("agree") if args.len() == 3 => agree::agree(Path::new(&args[1]), Path::new(&args[2])),
        Some(mode @ ("run" | "trace")) => all_workloads(mode == "trace", &args[1..]),
        _ => one_workload(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sushi-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--smoke`, in any order.
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags { workload: None, seed: None, seconds: None, trace: None, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            f.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn one_workload(args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    let name = f.workload.ok_or("--workload is required (or: run, trace, agree)")?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let cfg = RunConfig {
        seed: f.seed.ok_or("--seed is required")?,
        seconds: f.seconds.ok_or("--seconds is required")?,
        trace: f.trace.ok_or("--trace is required")?,
        smoke: f.smoke,
    };
    let report = workloads::run(workload, &cfg)?;
    let defs: &[MetricDef] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    print_report(workload.name(), defs, &report)?;
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    for (file, contents) in &report.files {
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(out.join(file), contents))
            .map_err(|e| format!("cannot write {file} under {}: {e}", out.display()))?;
    }
    Ok(report.failed == 0)
}

/// Metric lines, note lines, the checks line, then the result object.
fn print_report(workload: &str, defs: &[MetricDef], report: &Report) -> Result<(), String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = report
            .metrics
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{workload} did not report {}", def.name))?;
        if !value.is_finite() {
            return Err(format!("{workload} reported {} = {value}", def.name));
        }
        println!("{workload} {} {value} {}", def.name, def.unit);
        fields
            .push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", def.name, def.unit));
    }
    for (name, value) in &report.notes {
        println!("{workload} {name} {value} -");
    }
    println!("{workload} checks attempted {} failed {}", report.attempted, report.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    Ok(())
}

/// Runs every workload in a process of its own and passes its result-set
/// lines through. `Ok(false)` when any check failed.
fn all_workloads(trace: bool, args: &[String]) -> Result<bool, String> {
    let f = parse_flags(args)?;
    let seed = f.seed.ok_or("--seed is required")?;
    let seconds = f.seconds.unwrap_or(if f.smoke { 1.0 } else { RUN_SECONDS as f64 });
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &seed.to_string()]);
        cmd.args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
        if f.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end.
        let out = cmd.output().map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
        // Exit code 1 is a failed check, reported in the block; anything
        // else printed no block at all.
        match out.status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            _ => {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!("{} exited with {}", w.name(), out.status));
            }
        }
    }
    Ok(all_correct)
}
