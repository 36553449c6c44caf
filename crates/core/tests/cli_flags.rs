//! Every binary refuses a flag it does not accept: exit status 2, the
//! accepted flags on stderr, and nothing run on stdout. `repro` also
//! refuses an unknown experiment id the same way, and exits non-zero when
//! it cannot save a report.

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

#[test]
fn repro_rejects_an_unknown_id_before_running_anything() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tab4", "fig99", "--quick"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "repro ran an experiment: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("fig99") && stderr.contains("tab4"),
        "must name the id and list the valid ones: {stderr}"
    );
}

#[test]
fn repro_fails_when_it_cannot_save_a_report() {
    // A save directory below a regular file can never be created.
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_save_blocker");
    std::fs::write(&file, b"").expect("temp file");
    let dir = file.join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tab4", "--quick", "--save"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a failed save must not exit 0: {stderr}");
    assert!(stderr.contains("[\"tab4\"]"), "must list the unsaved ids: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("tab4"), "the report still prints");
}
