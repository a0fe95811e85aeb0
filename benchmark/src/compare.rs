//! `compare`: two sets of result files against the bounds `BENCHMARK.json`
//! fixes, one row per workload × end-to-end metric — and `--repeat N`, which
//! produces two such sets from the current build and compares them (the
//! benchmark's own agreement check).
//!
//! A row reads *unresolved*, not *ok*, when the run-to-run spread of either
//! set (interquartile range over median, as Python's
//! `statistics.quantiles(values, n=4)` gives it) is wider than the metric's
//! bound: such a pair of medians cannot show a change of that size.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::stats::median;
use crate::workload::WORKLOADS;

/// One end-to-end metric's rule from `BENCHMARK.json`.
struct Rule {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load_rules(path: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let metrics = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .items()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {key}"))
            };
            Ok(Rule {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload → metric → one value per run.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads every end-to-end result file (`<workload>.json`, at any depth)
/// under `dir`.  Files stamped non-comparable (`--quick`) are refused.
fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                pending.push(path);
            } else if name.ends_with(".json") && !name.starts_with("trace-") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
                if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
                    return Err(format!(
                        "{} is stamped non-comparable (--quick)",
                        path.display()
                    ));
                }
                let workload = doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("result without workload")?;
                let by_metric = set.entry(workload.to_string()).or_default();
                for (metric, value) in doc.get("metrics").map(Json::fields).unwrap_or_default() {
                    if let Some(v) = value.get("value").and_then(Json::as_f64) {
                        by_metric.entry(metric.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    if set.is_empty() {
        return Err(format!("no result files under {}", dir.display()));
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) computes them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, data.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0 for a single run).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

/// How much worse `new` is than `base`, as a share of `base` (negative when
/// better), and what that means against `bound` given the sets' spreads.
pub fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse_by = if b == 0.0 {
        0.0
    } else if higher_is_better {
        (b - n) / b.abs()
    } else {
        (n - b) / b.abs()
    };
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread(base).max(spread(new)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares the result sets under `base_dir` and `new_dir`; prints the
/// table; returns the process exit code: 0 all within bounds, 1 something
/// regressed, 3 nothing regressed but something is unresolved.
pub fn compare(base_dir: &Path, new_dir: &Path) -> Result<u8, String> {
    let rules = load_rules(Path::new("BENCHMARK.json"))?;
    let (base, new) = (load_set(base_dir)?, load_set(new_dir)?);
    let mut regressed = 0;
    let mut unresolved = 0;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "base median",
        "new median",
        "worse by",
        "bound",
        "spread b",
        "spread n"
    );
    for spec in &WORKLOADS {
        let (Some(b), Some(n)) = (base.get(spec.name), new.get(spec.name)) else {
            println!("{:<12} missing from one of the sets", spec.name);
            unresolved += 1;
            continue;
        };
        for rule in &rules {
            let (Some(bv), Some(nv)) = (b.get(&rule.name), n.get(&rule.name)) else {
                continue;
            };
            let (worse_by, verdict) = judge(bv, nv, rule.higher_is_better, rule.bound);
            match verdict {
                Verdict::Ok => {}
                Verdict::Unresolved => unresolved += 1,
                Verdict::Regressed => regressed += 1,
            }
            println!(
                "{:<12} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                spec.name,
                rule.name,
                median(bv),
                median(nv),
                100.0 * worse_by,
                100.0 * rule.bound,
                100.0 * spread(bv),
                100.0 * spread(nv),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                    Verdict::Regressed => "REGRESSED",
                }
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(if regressed > 0 {
        1
    } else if unresolved > 0 {
        3
    } else {
        0
    })
}

/// Runs the suite `n` times for each of two sets, alternating between them
/// so that drift on the box lands on both, each run a fresh process with its
/// own seed; then compares the sets.
pub fn repeat(n: usize, seconds: u64, out_root: &Path) -> Result<u8, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dirs: [PathBuf; 2] = [out_root.join("repeat-a"), out_root.join("repeat-b")];
    for dir in &dirs {
        // Stale files from an earlier repeat would join this one's sets.
        let _ = std::fs::remove_dir_all(dir);
    }
    for run in 0..n {
        for (set, dir) in dirs.iter().enumerate() {
            for spec in &WORKLOADS {
                let seed = 1 + run as u64 + 1000 * set as u64;
                let out = dir.join(format!("run{run}"));
                eprintln!("repeat: set {} run {run} {}", ["a", "b"][set], spec.name);
                let status = Command::new(&exe)
                    .args(["--workload", spec.name, "--trace", "0"])
                    .args([
                        "--seed",
                        &seed.to_string(),
                        "--seconds",
                        &seconds.to_string(),
                    ])
                    .arg("--out")
                    .arg(&out)
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{} seed {seed} failed: {status}", spec.name));
                }
            }
        }
    }
    compare(&dirs[0], &dirs[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0, 4.0, 1.5, 9.0], n=4)
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.5, 9.0]),
            Some([1.25, 3.0, 6.5])
        );
        // statistics.quantiles([10, 20], n=4)
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |centre: f64| -> Vec<f64> {
            (0..10)
                .map(|i| centre * (1.0 + 0.001 * f64::from(i)))
                .collect()
        };
        // Lower is better: 4% slower inside a 5% bound, 6% outside it.
        assert_eq!(
            judge(&steady(100.0), &steady(104.0), false, 0.05).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady(100.0), &steady(106.0), false, 0.05).1,
            Verdict::Regressed
        );
        // Getting better is never a regression, in either direction.
        assert_eq!(
            judge(&steady(100.0), &steady(50.0), false, 0.05).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady(100.0), &steady(200.0), true, 0.05).1,
            Verdict::Ok
        );
        let (worse_by, verdict) = judge(&steady(100.0), &steady(90.0), true, 0.05);
        assert!((worse_by - 0.1).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // Equal medians but runs all over the place: cannot tell.
        let wild = [
            60.0, 80.0, 100.0, 100.0, 100.0, 120.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            judge(&steady(100.0), &wild, false, 0.05).1,
            Verdict::Unresolved
        );
        // A metric that is identically 1.0 (hit_rate where nothing may miss).
        assert_eq!(judge(&[1.0; 5], &[1.0; 5], true, 0.01).1, Verdict::Ok);
        assert_eq!(
            judge(&[1.0; 5], &[0.98; 5], true, 0.01).1,
            Verdict::Regressed
        );
    }
}
