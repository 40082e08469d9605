//! Metric catalogue and the result line. The catalogue mirrors
//! `BENCHMARK.json` (a test keeps the two in step).

use std::collections::BTreeMap;

use crate::stats::valid_metric_name;

/// End-to-end metrics, reported with `--trace 0`. `replays_per_s` is not
/// among them: it is undefined where a campaign has one interleaving, so
/// it is printed beside them only where it is defined.
pub const END_TO_END: &[(&str, &str)] =
    &[("campaign_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mpi.empty_run_ms", "ms"),
    ("mpi.empty_run_ms.np4", "ms"),
    ("mpi.empty_run_ms.np16", "ms"),
    ("mpi.empty_run_ms.np64", "ms"),
    ("mpi.empty_run_ms.np256", "ms"),
    ("mpi.empty_run_ms.np1024", "ms"),
    ("mpi.native_run_ms", "ms"),
    ("mpi.native_run_ms.np4", "ms"),
    ("mpi.native_run_ms.np16", "ms"),
    ("mpi.native_run_ms.np64", "ms"),
    ("mpi.native_run_ms.np256", "ms"),
    ("mpi.native_run_ms.np1024", "ms"),
    ("tool.self_run_ms", "ms"),
    ("tool.overhead_ms", "ms"),
    ("tool.slowdown_x", "x"),
    ("tool.pb_wire_bytes", "bytes"),
    ("tool.pb_messages", "count"),
    ("tool.messages_analyzed", "count"),
    ("tool.late_messages", "count"),
    ("scheduler.replay_ms.p50", "ms"),
    ("scheduler.replay_ms.p99", "ms"),
    ("scheduler.replay_ms.p99_pct", "%"),
    ("scheduler.run_calls", "count"),
    ("scheduler.self_s", "s"),
    ("scheduler.worker_util", "ratio"),
    ("scheduler.useful_ratio", "ratio"),
    ("scheduler.interleavings", "count"),
    ("scheduler.divergences", "count"),
    ("scheduler.retries", "count"),
    ("prune.alternates_pruned", "count"),
    ("prune.wildcards_deterministic", "count"),
    ("analysis.traced_run_ms", "ms"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.plan_facts", "count"),
    ("cache.warm_self_s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("isp.verify_ms", "ms"),
    ("clocks.vector_verify_ms", "ms"),
    ("clocks.lamport_verify_ms", "ms"),
    ("trace_overhead_x", "x"),
];

/// Named metric values with units.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Every metric of `catalogue`, at 0.
    #[must_use]
    pub fn zeroed(catalogue: &'static [(&'static str, &'static str)]) -> Self {
        Self(catalogue.iter().map(|&(n, u)| (n, (0.0, u))).collect())
    }

    /// Set a catalogued metric.
    ///
    /// # Panics
    /// On a name outside the catalogue or a non-finite value: both are
    /// bugs in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} = {value}");
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        slot.0 = value;
    }

    /// Read a metric (0 when unset).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    /// `(name, value, unit)` rows in name order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0.iter().map(|(&n, &(v, u))| (n, v, u))
    }
}

/// The result object the benchmark prints as its last line.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .rows()
        .map(|(n, v, u)| {
            assert!(valid_metric_name(n), "invalid metric name {n:?}");
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` declares under `key`, read
    /// with a plain scan (the file's layout is fixed by its schema).
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("list closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
            let rest = &obj[at..];
            let q = rest.find('"').expect("value quoted") + 1;
            rest[q..q + rest[q..].find('"').expect("value closes")].to_owned()
        };
        section
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = cat
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(declared(json, key), want, "{key}");
        }
    }

    #[test]
    fn every_catalogued_name_is_valid() {
        for &(n, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(n), "{n}");
        }
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::zeroed(END_TO_END);
        m.set("campaign_s", 1.25);
        let line = result_line(true, 3, 0, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"campaign_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
    }
}
