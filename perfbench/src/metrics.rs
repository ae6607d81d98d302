//! The metric registry, summary statistics, and the result line.
//!
//! Every metric the benchmark can print is named here, and the test at
//! the bottom holds this registry equal to `BENCHMARK.json`, so a metric
//! cannot be printed without being declared (or declared without being
//! printed).

use std::collections::BTreeMap;
use treegion_eval::CELL_NAMES;

/// End-to-end metrics: printed on every workload by the untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("compile_ops_per_s", "ops/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("est_cycles", "cycles/kop"),
    ("code_ops", "ops/kop"),
    ("peak_rss_mb", "MB"),
];

/// Pipeline stages as the benchmark names them (`Stage::name` with `-`
/// mapped to `_`), in dataflow order.
pub const CORE_STAGES: [&str; 5] = ["formation", "lowering", "ddg", "list_sched", "verify"];

/// Per-layer metrics with a fixed name, printed by the traced run.
const FIXED_PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_ns_per_op", "ns/op"),
    ("core.formation_ns_per_op", "ns/op"),
    ("core.lowering_ns_per_op", "ns/op"),
    ("core.ddg_ns_per_op", "ns/op"),
    ("core.list_sched_ns_per_op", "ns/op"),
    ("core.list_sched_ns_per_op.small", "ns/op"),
    ("core.list_sched_ns_per_op.large", "ns/op"),
    ("core.verify_ns_per_op", "ns/op"),
    ("core.render_ns_per_op", "ns/op"),
    ("bench.unattributed_frac", "ratio"),
    ("core.regions", "count"),
    ("core.lowered_ops", "count"),
    ("core.ddg_edges", "count"),
    ("core.hazard_hits", "count"),
    ("core.deferral_parks", "count"),
    ("core.pressure_parks", "count"),
    ("core.spills", "count"),
    ("core.degraded_regions", "count"),
    ("core.pressure_peak", "count"),
    ("core.pressure_livelocks", "count"),
    ("eval.suite_load_s", "s"),
    ("eval.formation_hit_rate", "ratio"),
    ("eval.time_hit_rate", "ratio"),
    ("par.efficiency", "ratio"),
    ("serve.connect_us", "us"),
    ("serve.write_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.read_us", "us"),
    ("serve.server_latency_p50_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.cache_warm_rate", "ratio"),
    ("serve.disk_contention", "count"),
    ("serve.quarantine_contention", "count"),
    ("serve.high_water", "count"),
    ("serve.engine_us_per_module", "us"),
    ("serve.open_fds", "count"),
    ("serve.threads", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The metric name of one eval cell's wall time (`@` is not a legal
/// metric character, so `fig6@4u` becomes `eval.cell_ms.fig6-4u`).
pub fn cell_metric(cell: &str) -> String {
    format!("eval.cell_ms.{}", cell.replace('@', "-"))
}

/// The metric name of one serve-side stage's time per call.
pub fn stage_metric(stage: &str) -> String {
    format!("serve.stage_ns_per_call.{stage}")
}

/// Every per-layer metric, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    all.extend(CELL_NAMES.iter().map(|c| (cell_metric(c), "ms")));
    all.extend(CORE_STAGES.iter().map(|s| (stage_metric(s), "ns")));
    all
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `n=… p50=… p90=… p99=… p999=… max=…` of a latency sample, for the
/// run metadata.
pub fn latency_summary(xs: &[f64]) -> String {
    format!(
        "n={} p50={:.4} p90={:.4} p99={:.4} p999={:.4} max={:.4}",
        xs.len(),
        quantile(xs, 0.5),
        quantile(xs, 0.9),
        quantile(xs, 0.99),
        quantile(xs, 0.999),
        quantile(xs, 1.0)
    )
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number, with every digit Rust keeps.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// What one run measured: the result line's fields.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (functions, cells or requests).
    pub attempted: u64,
    /// Operations that failed: errors, sheds, connection errors and
    /// failed cells.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Fills every metric of `names` that the workload left unset with
    /// 0: the layer did no work on this workload.
    pub fn default_zero(&mut self, names: impl IntoIterator<Item = String>) {
        for n in names {
            self.metrics.entry(n).or_insert(0.0);
        }
    }

    /// The result line: one JSON object with the metrics of `declared`
    /// (name, unit), each of which must have been set.
    pub fn render(&self, declared: &[(String, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in declared {
            if !valid_name(name) {
                return Err(format!("metric name `{name}` is not legal"));
            }
            let v = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite ({v})"));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            ));
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !declared.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric `{extra}` is not declared"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`/`unit` pairs of one top-level array of BENCHMARK.json.
    /// A scan, not a JSON parser: the file is written by hand with one
    /// metric object per line.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let rest = &line[at..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
            .collect()
    }

    fn owned(xs: &[(String, &str)]) -> Vec<(String, String)> {
        xs.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let e2e: Vec<(String, &str)> = END_TO_END.iter().map(|&(n, u)| (n.into(), u)).collect();
        assert_eq!(owned(&e2e), declared("end_to_end"));
        assert_eq!(owned(&per_layer()), declared("per_layer"));
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "illegal metric name `{n}`");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("eval.cell_ms.fig6@4u"));
        assert!(!valid_name(".leading-dot"));
    }

    #[test]
    fn render_refuses_undeclared_and_missing_metrics() {
        let declared = vec![("a".to_string(), "s")];
        let mut o = Outcome::default();
        assert!(o.render(&declared).is_err());
        o.set("a", 1.5);
        let line = o.render(&declared).unwrap();
        assert!(
            line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"),
            "{line}"
        );
        o.set("b", 2.0);
        assert!(o.render(&declared).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
