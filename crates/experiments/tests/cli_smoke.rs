//! Smoke tests of the `experiments` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn usage_on_no_args() {
    let out = bin().output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_artefact_is_usage_error() {
    let out = bin().arg("fig99").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn scenario_inspector_succeeds() {
    let out = bin()
        .args(["scenario", "--seed", "5"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Scenario inspection"), "{stdout}");
    assert!(stdout.contains("Berlin"), "{stdout}");
}

#[test]
fn fig1_passes_and_writes_csv() {
    let dir = std::env::temp_dir().join(format!("ir_cli_smoke_{}", std::process::id()));
    let out = bin()
        .args(["fig1", "--seed", "2007", "--csv"])
        .arg(&dir)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("fig1_histogram.csv").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_cal_file_is_rejected_with_line_number() {
    let path = std::env::temp_dir().join(format!("ir_bad_cal_{}.txt", std::process::id()));
    std::fs::write(&path, "frac_high = banana\n").unwrap();
    let out = bin()
        .args(["fig1", "--cal"])
        .arg(&path)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_loss_is_reported() {
    // A quick measurement study records more events than the trace ring
    // holds; the loss must show up in `--metrics` and as a warning.
    let path = std::env::temp_dir().join(format!("ir_trace_loss_{}.json", std::process::id()));
    let out = bin()
        .args(["fig1", "--seed", "2007", "--metrics", "--trace"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let telemetry = &stdout[stdout.find("== telemetry ==").expect("telemetry section")..];
    let dropped: u64 = telemetry
        .lines()
        .find_map(|l| l.strip_prefix("trace_events_dropped"))
        .expect("dropped-event row")
        .trim()
        .parse()
        .unwrap();
    assert!(dropped > 0, "{telemetry}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("{dropped} oldest events were dropped")),
        "{err}"
    );
    std::fs::remove_file(&path).ok();
}
