//! Every binary refuses a flag it does not accept: exit status 2, the
//! accepted flags on stderr, and nothing run on stdout.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("--quick"), "{bin} {args:?} must list the accepted flags: {stderr}");
    assert!(!stdout.contains("steady"), "{bin} {args:?} ran a preset: {stdout}");
    assert!(!stdout.contains("timing"), "{bin} {args:?} ran a benchmark: {stdout}");
}

#[test]
fn serve_bench_rejects_an_unknown_flag() {
    assert_rejected(env!("CARGO_BIN_EXE_serve_bench"), &["--no-tenants"]);
}

#[test]
fn repro_rejects_an_unknown_flag() {
    assert_rejected(env!("CARGO_BIN_EXE_repro"), &["--no-tenants", "serve"]);
}

#[test]
fn kernel_bench_rejects_an_unknown_flag_and_zero_runs() {
    let bin = env!("CARGO_BIN_EXE_kernel_bench");
    assert_rejected(bin, &["--quik", "--runs", "1"]);
    assert_rejected(bin, &["--quick", "--runs", "0"]);
}
