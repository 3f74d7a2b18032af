//! The metric tables and the one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("servers_used", "servers"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by every traced run, on every workload; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cubefit.place_us_p50", "us"),
    ("cubefit.place_us_p99", "us"),
    ("cubefit.stage1_count", "count"),
    ("cubefit.bins_opened", "count"),
    ("placement.remove_us_p50", "us"),
    ("placement.remove_us_p99", "us"),
    ("placement.update_us_p50", "us"),
    ("placement.migrate_us_p50", "us"),
    ("recovery.recover_ms_p50", "ms"),
    ("recovery.replicas_moved", "count"),
    ("recovery.bins_opened", "count"),
    ("defrag.plan_ms_p50", "ms"),
    ("defrag.apply_ms_p50", "ms"),
    ("defrag.moves", "count"),
    ("defrag.servers_closed", "count"),
    ("oracle.audit_ms_p50", "ms"),
    ("oracle.audits", "count"),
    ("oracle.bins_walked", "count"),
    ("journal.append_us_p50", "us"),
    ("journal.append_us_p99", "us"),
    ("journal.bytes_per_op", "B/op"),
    ("journal.checkpoint_ms_p50", "ms"),
    ("restart.restart_ms", "ms"),
    ("restart.frames_replayed", "count"),
    ("service.batch_ms_p50", "ms"),
    ("service.batch_ms_p99", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.batch_size_mean", "op/batch"),
    ("service.ladder_moves", "count"),
    ("generator.late_ms_p99", "ms"),
    ("workload.gen_s", "s"),
    ("workload.prefill_s", "s"),
    ("cubefit.self_s", "s"),
    ("placement.self_s", "s"),
    ("recovery.self_s", "s"),
    ("defrag.self_s", "s"),
    ("oracle.self_s", "s"),
    ("journal.self_s", "s"),
    ("restart.self_s", "s"),
    ("service.self_s", "s"),
    ("generator.self_s", "s"),
    ("workload.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Layers whose self time the traced run reports.
pub const LAYERS: &[&str] = &[
    "cubefit",
    "placement",
    "recovery",
    "defrag",
    "oracle",
    "journal",
    "restart",
    "service",
    "generator",
    "workload",
    "bench",
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: `table`'s metrics (missing ones read 0).
    pub fn json(&self, correct: bool, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The `(name, unit)` pairs BENCHMARK.json lists under `key`.
    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Object(doc) = doc else { panic!("BENCHMARK.json is not an object") };
        let Some(Value::Array(items)) = doc.get(key) else { panic!("no {key} list") };
        items
            .iter()
            .map(|item| {
                let Value::Object(item) = item else { panic!("{key} entry is not an object") };
                let text = |field: &str| match item.get(field) {
                    Some(Value::String(s)) => s.clone(),
                    other => panic!("{key} entry has {field} {other:?}"),
                };
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
            assert_eq!(listed(&doc, key), ours, "{key}");
        }
    }

    #[test]
    fn json_lists_every_metric_of_the_table() {
        let mut report = Report { attempted: 3, failed: 0, ..Report::default() };
        report.set("setup_s", 0.5);
        let line = report.json(true, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        let names: std::collections::BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), PER_LAYER.len());
        for layer in LAYERS {
            assert!(names.contains(format!("{layer}.self_s").as_str()), "{layer}");
        }
    }
}
