//! Smoke tests for the `fig*`, `ablation` and `kv` binaries: run each compiled binary with a tiny
//! configuration (1 thread, small key range, millisecond points) and check
//! that it exits cleanly and emits well-formed rows.  This keeps the figure
//! pipeline from rotting silently: any driver that panics, hangs or stops
//! printing rows fails here in a few hundred milliseconds.
//!
//! Two tests pin the usage errors: an unknown flag, a malformed value or a
//! bad list item exits with status 2 before anything runs.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Hard ceiling on one binary's runtime; a deadlocked sweep fails here
/// instead of hanging the whole suite.
const DEADLINE: Duration = Duration::from_secs(60);

/// Arguments that shrink a sweep to a near-instant single-threaded run.
const TINY: &[&str] = &[
    "--threads",
    "1",
    "--duration-ms",
    "5",
    "--runs",
    "1",
    "--key-range",
    "512",
];

/// The data rows of one run, as `(panel, series, x, y)` tuples.
type Rows = Vec<(String, String, f64, f64)>;

/// Runs one binary under a watchdog and validates its TSV output shape,
/// returning the data rows.
fn run_fig(exe: &str, args: &[&str]) -> Rows {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    let deadline = Instant::now() + DEADLINE;
    let status = loop {
        match child.try_wait().expect("wait on fig binary") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                child.kill().ok();
                child.wait().ok();
                panic!("{exe} still running after {DEADLINE:?}; killed");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let output = child
        .wait_with_output()
        .unwrap_or_else(|e| panic!("failed to collect {exe} output: {e}"));
    assert!(
        status.success(),
        "{exe} exited with {status:?}; stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("fig output must be UTF-8");
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some("figure\tpanel\tseries\tx\ty\thit_rate"),
        "missing TSV header in {exe} output"
    );
    let mut rows = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 6, "malformed row from {exe}: {line:?}");
        let x = fields[3].parse::<f64>().expect("x must be numeric");
        let y = fields[4].parse::<f64>().expect("y must be numeric");
        if fields[5] != "-" {
            let rate = fields[5].parse::<f64>().expect("hit_rate must be numeric");
            assert!((0.0..=1.0).contains(&rate), "hit_rate out of range: {rate}");
        }
        rows.push((fields[1].to_string(), fields[2].to_string(), x, y));
    }
    assert!(!rows.is_empty(), "{exe} produced a header but no data rows");
    rows
}

#[test]
fn fig1_smoke() {
    run_fig(env!("CARGO_BIN_EXE_fig1"), TINY);
}

/// A malformed value, one bad item in a list, or a deleted flag is a usage
/// error: exit status 2 and no row.
#[test]
fn malformed_values_exit_2_before_anything_runs() {
    let cases: [(&str, &[&str]); 5] = [
        (env!("CARGO_BIN_EXE_fig1"), &["--runs", "0"]),
        (env!("CARGO_BIN_EXE_kv"), &["--threads", "2,0"]),
        (env!("CARGO_BIN_EXE_kv"), &["--workload", "a,q"]),
        (env!("CARGO_BIN_EXE_kv"), &["--dist", "uniform,nope"]),
        (
            env!("CARGO_BIN_EXE_kv-loadgen"),
            &["--sweep-connections", "2,32", "--addr", "127.0.0.1:1"],
        ),
    ];
    for (exe, bad) in cases {
        let mut args = if exe.ends_with("kv-loadgen") {
            Vec::new()
        } else {
            TINY.to_vec()
        };
        args.extend_from_slice(bad);
        let out = Command::new(exe).args(&args).output().expect("run binary");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{exe} {args:?}: stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout.is_empty(),
            "{exe} {args:?} printed before failing"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains(bad[0]));
    }
}

#[test]
fn fig5_smoke() {
    // fig5 is single-threaded; it now accepts the common flags and derives
    // its iteration count from the per-point duration.
    run_fig(env!("CARGO_BIN_EXE_fig5"), TINY);
}

#[test]
fn fig5_smoke_quick_flag() {
    run_fig(
        env!("CARGO_BIN_EXE_fig5"),
        &["--quick", "--duration-ms", "5"],
    );
}

#[test]
fn fig6_smoke() {
    run_fig(env!("CARGO_BIN_EXE_fig6"), TINY);
}

#[test]
fn fig7_smoke() {
    run_fig(env!("CARGO_BIN_EXE_fig7"), TINY);
}

#[test]
fn fig8_smoke() {
    run_fig(env!("CARGO_BIN_EXE_fig8"), TINY);
}

#[test]
fn fig9_smoke() {
    run_fig(env!("CARGO_BIN_EXE_fig9"), TINY);
}

#[test]
fn fig10_smoke() {
    run_fig(env!("CARGO_BIN_EXE_fig10"), TINY);
}

/// The §4.4.2 ablations: all four panels, every point a positive finite
/// nanosecond count.
#[test]
fn ablation_smoke() {
    let rows = run_fig(env!("CARGO_BIN_EXE_ablation"), TINY);
    for panel in [
        "write set",
        "short-rw locking",
        "orec table size",
        "backoff",
    ] {
        assert!(
            rows.iter().any(|(p, _, _, _)| p == panel),
            "missing panel {panel:?}"
        );
    }
    assert_eq!(rows.len(), 6 + 2 + 4 + 2);
    for (panel, series, x, y) in &rows {
        assert!(
            y.is_finite() && *y > 0.0,
            "{series} at {x} in {panel:?}: y = {y}"
        );
    }
}

/// A verified variable-size run: byte payloads drawn uniformly from
/// 64..=256 bytes (out-of-line value cells), with per-read checksum
/// verification and the post-run oracle sweep enabled — the driver panics
/// (failing the smoke) on any corrupt payload.  The panel label carries the
/// value-size distribution.
#[test]
fn kv_value_size_smoke() {
    let mut args = vec![
        "--workload",
        "a",
        "--dist",
        "zipfian",
        "--value-size",
        "uniform:64..256",
        "--verify",
    ];
    args.extend_from_slice(TINY);
    let rows = run_fig(env!("CARGO_BIN_EXE_kv"), &args);
    for (panel, series, _x, y) in &rows {
        assert_eq!(panel, "update-50/50 / zipfian / uniform:64..256");
        assert!(*y > 0.0, "zero throughput for {series}");
    }
}

/// The KV-store sweep must cover every mix × distribution panel with the
/// short-transaction, BaseTM and lock-free variants, and every data point
/// must report positive throughput (the store really served the workload).
#[test]
fn kv_smoke() {
    let rows = run_fig(env!("CARGO_BIN_EXE_kv"), TINY);
    for (panel, series, _x, y) in &rows {
        assert!(*y > 0.0, "zero throughput for {series} in panel {panel:?}");
    }
    for series in ["val-short", "orec-full-g", "lock-free"] {
        assert!(
            rows.iter().any(|(_, s, _, _)| s == series),
            "missing series {series}"
        );
    }
    for mix in ["read-heavy-95/5", "update-50/50", "rmw-50/50"] {
        for dist in ["uniform", "zipfian", "latest"] {
            let panel = format!("{mix} / {dist}");
            assert!(
                rows.iter().any(|(p, _, _, _)| *p == panel),
                "missing panel {panel:?}"
            );
        }
    }
}

/// Flags of the deleted client paths (`kv --batch`, `kv-loadgen --mode`)
/// are usage errors: exit status 2 before any measurement runs, instead of
/// a warning followed by a sweep of something else.
#[test]
fn stale_client_flags_exit_2() {
    let kv = Command::new(env!("CARGO_BIN_EXE_kv"))
        .args([
            "--batch",
            "16",
            "--workload",
            "c",
            "--threads",
            "1",
            "--duration-ms",
            "1",
            "--runs",
            "1",
            "--key-range",
            "64",
        ])
        .output()
        .expect("run kv");
    assert_eq!(
        kv.status.code(),
        Some(2),
        "kv --batch: stdout:\n{}",
        String::from_utf8_lossy(&kv.stdout)
    );
    assert!(kv.stdout.is_empty(), "no rows before the usage error");
    assert!(String::from_utf8_lossy(&kv.stderr).contains("usage: kv"));

    let loadgen = Command::new(env!("CARGO_BIN_EXE_kv-loadgen"))
        .args(["--mode", "open", "--addr", "127.0.0.1:1"])
        .output()
        .expect("run kv-loadgen");
    assert_eq!(loadgen.status.code(), Some(2), "kv-loadgen --mode");
}
