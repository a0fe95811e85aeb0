//! The metric tables and the run report.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names and units (a unit test holds the two together),
//! and every run prints exactly one table — end-to-end with `--trace 0`,
//! per-layer with `--trace 1` — so results from different PRs always line
//! up.  A per-layer metric that does not apply to the workload that ran is
//! printed as 0 with 0 samples (README.md lists which apply where).

use std::fmt::Write as _;

use crate::json::{number, quote};
use crate::stats::Stat;

/// `(name, unit)`: what a user of the system sees, and what the calibration
/// box can resolve — the latency percentiles a user also sees could not be
/// held within any bound the contract allows and are `loadgen.lat_*` below
/// (README.md, "Bounds").
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("hit_rate", "frac"),
    ("mem_bytes_per_key", "bytes"),
];

/// `(name, unit)`: one layer each, prefix = module.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spectm.single_read_ns", "ns"),
    ("spectm.short_ro2_ns", "ns"),
    ("spectm.short_rw2_ns", "ns"),
    ("spectm.full_rw2_ns", "ns"),
    ("spectm.abort_ratio", "frac"),
    ("spectm.full_fallbacks_per_kop", "count"),
    ("spectm.full_vs_short_ops_ratio", "frac"),
    ("txepoch.pin_ns", "ns"),
    ("txepoch.backlog", "count"),
    ("spectm-ds.skiplist_get_ns", "ns"),
    ("spectm-ds.skiplist_insert_remove_ns", "ns"),
    ("spectm-ds.skiplist_range16_ns", "ns"),
    ("lockfree.kv_get_ns", "ns"),
    ("lockfree.kv_put_ns", "ns"),
    ("map.get_hit_ns", "ns"),
    ("map.get_miss_ns", "ns"),
    ("map.put_overwrite_ns", "ns"),
    ("map.insert_del_ns", "ns"),
    ("map.probe_within1_frac", "frac"),
    ("map.load_factor", "frac"),
    ("store.get_ns", "ns"),
    ("store.put_overwrite_ns", "ns"),
    ("store.insert_del_ns", "ns"),
    ("store.put_ttl_ns", "ns"),
    ("store.scan16_ns", "ns"),
    ("store.rmw2_ns", "ns"),
    ("store.live_bytes_per_key", "bytes"),
    ("store.accounting_error_frac", "frac"),
    ("batch.exec_ns_per_op", "ns"),
    ("batch.exec1_ns_per_op", "ns"),
    ("batch.exec128_ns_per_op", "ns"),
    ("batch.multi2_ns_per_op", "ns"),
    ("wire.encode_req_ns_per_op", "ns"),
    ("wire.decode_req_ns_per_op", "ns"),
    ("wire.encode_resp_ns_per_op", "ns"),
    ("wire.decode_resp_ns_per_op", "ns"),
    ("wire.frame_read_ns", "ns"),
    ("wire.req_bytes_per_op", "bytes"),
    ("wire.resp_bytes_per_op", "bytes"),
    ("ttl.sweep_ns_per_bucket", "ns"),
    ("ttl.evicted_per_kop", "count"),
    ("ttl.expired_per_kop", "count"),
    ("ttl.budget_overshoot_frac", "frac"),
    ("server.rtt1_p50_us", "us"),
    ("server.unattributed_us", "us"),
    ("server.frames_per_dispatch", "count"),
    ("server.worker_cpu_us_per_frame", "us"),
    ("server.worker_cpu_frac_lo", "frac"),
    ("server.wire_errors", "count"),
    ("server.io_errors", "count"),
    ("server.conns_rejected", "count"),
    ("loadgen.lat_p50_us", "us"),
    ("loadgen.lat_p99_us", "us"),
    ("loadgen.lat_load_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_hi_p99_us", "us"),
    ("loadgen.work_us_per_frame", "us"),
    ("loadgen.over_limit_frac_hi", "frac"),
    ("loadgen.trace_overhead_frac", "frac"),
    ("loadgen.samples", "count"),
    ("loadgen.fail_frac", "frac"),
];

/// What one run measured, keyed by metric name, plus the output-check
/// counts the contract's result line carries.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, Stat)>,
    pub attempted: u64,
    pub failed: u64,
    /// First few output-check failures, for the human reading the log.
    pub failure_notes: Vec<String>,
    /// Readings that are not metrics but explain them (e.g. the closed
    /// loop's frames/s, which the open-loop rates were centred on).
    pub diagnostics: Vec<(&'static str, f64)>,
}

/// The latency metrics, as a `--trace 0` run's diagnostics name them and as
/// the per-layer table does.
pub const LATENCIES: [(&str, &str); 3] = [
    ("lat_p50_us", "loadgen.lat_p50_us"),
    ("lat_p99_us", "loadgen.lat_p99_us"),
    ("lat_load_p99_us", "loadgen.lat_load_p99_us"),
];

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, Stat { value, samples }));
    }

    pub fn set_stat(&mut self, name: &'static str, stat: Stat) {
        self.set(name, stat.value, stat.samples);
    }

    pub fn get(&self, name: &str) -> Option<Stat> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    pub fn diagnose(&mut self, name: &'static str, value: f64) {
        self.diagnostics.push((name, value));
    }

    /// Records a yes/no fact about the run as a 1/0 diagnostic.
    pub fn diagnose_flag(&mut self, name: &'static str, yes: bool) {
        self.diagnose(name, f64::from(u8::from(yes)));
    }

    pub fn note_failure(&mut self, note: String) {
        if self.failure_notes.len() < 8 {
            self.failure_notes.push(note);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn stat_or_zero(&self, name: &str) -> Stat {
        self.get(name).unwrap_or(Stat {
            value: 0.0,
            samples: 0,
        })
    }

    /// One line per metric of `table`: name, value, unit, sample count.
    pub fn human(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            let stat = self.stat_or_zero(name);
            let _ = writeln!(
                out,
                "{name:<38} {:>16.4} {unit:<6} n={}",
                stat.value, stat.samples
            );
        }
        for (name, value) in &self.diagnostics {
            let _ = writeln!(out, "{name:<38} {value:>16.4} (diagnostic)");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<38} {fail_frac:>16.4} {:<6} failed={} attempted={}",
            "fail_frac", "frac", self.failed, self.attempted
        );
        out
    }

    /// `{"name": {"value": v, "unit": u, "samples": n}, …}` over `table`,
    /// the entries joined by `separator`; `with_samples` is off for the
    /// contract's result line, whose metric objects carry exactly `value`
    /// and `unit`.
    pub fn metrics_json(
        &self,
        table: &[(&str, &str)],
        with_samples: bool,
        separator: &str,
    ) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let stat = self.stat_or_zero(name);
                let samples = if with_samples {
                    format!(", \"samples\": {}", stat.samples)
                } else {
                    String::new()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                    quote(name),
                    number(stat.value),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(separator))
    }

    /// The contract's last stdout line.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(table, false, ", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
    }

    /// `BENCHMARK.json` at the repo root and the tables here must name the
    /// same metrics with the same units, and the same four workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut report = Report::default();
        report.set("ops_per_s", 1234.5678, 6);
        report.attempted = 10;
        let doc = Json::parse(&report.result_line(END_TO_END)).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let ops = metrics.get("ops_per_s").unwrap();
        assert_eq!(ops.fields().len(), 2, "exactly value and unit");
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("1/s"));
        report.failed = 1;
        assert!(report
            .result_line(END_TO_END)
            .starts_with("{\"correct\": false"));
    }
}
