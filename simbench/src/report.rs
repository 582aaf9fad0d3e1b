//! Metric definitions and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

/// The nine benchmark families, in the paper's figure order.
pub const FAMILIES: [&str; 9] = [
    "spmv", "vecop", "hist", "3dstc", "red", "amcd", "nbody", "2dcon", "dmmm",
];

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// Direction of improvement, as listed in `BENCHMARK.json` (the tests
    /// check that the two agree).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.to_string(),
        unit,
        better,
    }
}

/// End-to-end metrics: every workload reports every one of them.
pub fn end_to_end() -> Vec<Def> {
    vec![
        def("setup_s", "s", "lower"),
        def("wall_s", "s", "lower"),
        def("cpu_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("cells_per_s", "1/s", "higher"),
        def("req_per_s", "1/s", "higher"),
        def("p50_ms", "ms", "lower"),
    ]
}

/// Per-layer metrics of the probe (name, unit, better), reported in total
/// and per family.
pub const PROBE: [(&str, &str, &str); 8] = [
    ("kernel-ir.decode_s", "s", "lower"),
    ("kernel-ir.interp_s.columnar", "s", "lower"),
    ("kernel-ir.interp_s.scalar", "s", "lower"),
    ("kernel-ir.ops_per_us", "1/us", "higher"),
    ("mali-gpu.model_s", "s", "lower"),
    ("memsim.replay_s", "s", "lower"),
    ("memsim.ns_per_access", "ns", "lower"),
    ("cpu-sim.model_s", "s", "lower"),
];

/// Per-layer metrics of the traced run. Every traced run prints all of
/// them; a metric whose layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<Def> {
    let mut out = Vec::new();
    // paper-grid
    for f in FAMILIES {
        out.push(def(&format!("hpc-kernels.host_s.{f}"), "s", "lower"));
    }
    out.push(def("hpc-kernels.gpu_host_s", "s", "lower"));
    out.push(def("hpc-kernels.cpu_host_s", "s", "lower"));
    out.push(def("powersim.meter_s", "s", "lower"));
    out.push(def("harness.export_s", "s", "lower"));
    out.push(def("sim-pool.busy_frac", "ratio", "higher"));
    for (name, unit, better) in PROBE {
        out.push(def(name, unit, better));
        for f in FAMILIES {
            out.push(def(&format!("{name}.{f}"), unit, better));
        }
    }
    out.push(def("kernel-ir.ops_executed", "count", "lower"));
    out.push(def("memsim.l2_accesses", "count", "lower"));
    out.push(def("memsim.dram_lines", "count", "lower"));
    // serve-hot (the cache hit ratio is shared with autotune-fleet)
    for stage in [
        "parse_us",
        "admit_us",
        "cache_lookup_us",
        "format_us",
        "sweep_us",
        "lane_wait_interactive_us",
        "lane_wait_bulk_us",
    ] {
        out.push(def(&format!("sim-server.{stage}"), "us", "lower"));
    }
    out.push(def("sim-server.cache.hit_ratio", "ratio", "higher"));
    out.push(def("sim-server.http.connect_us", "us", "lower"));
    out.push(def("sim-server.http.outside_us", "us", "lower"));
    out.push(def("harness.checkpoint.decode_us", "us", "lower"));
    // autotune-fleet
    out.push(def("kernel-ir.opt_s", "s", "lower"));
    out.push(def("harness.runner.run_one_ms", "ms", "lower"));
    out.push(def("sim-server.scheduler.batches", "count", "lower"));
    out.push(def(
        "sim-server.scheduler.cells_per_batch",
        "count",
        "higher",
    ));
    out.push(def("sim-server.scheduler.queue_wait_us", "us", "lower"));
    out.push(def("sim-server.cache.insertions", "count", "lower"));
    out.push(def("sim-server.cache.evictions", "count", "lower"));
    out.push(def("route.fanout_us", "us", "lower"));
    out.push(def("route.retries", "count", "lower"));
    out.push(def("route.shard_errors", "count", "lower"));
    out
}

/// What one run found and measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed correctness check, one line each.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Metrics that only some workloads define (printed on their own line,
    /// not part of the gated set): name, value, unit.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(items: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::quote(n),
                num(*v),
                crate::json::quote(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The run's last stdout line: `correct`, `attempted`, `failed` and every
/// metric of `defs` (missing ones read 0, non-finite ones null).
pub fn result_line(o: &Outcome, defs: &[Def]) -> String {
    let items: Vec<(String, f64, &str)> = defs
        .iter()
        .map(|d| {
            (
                d.name.clone(),
                o.metrics.get(&d.name).copied().unwrap_or(0.0),
                d.unit,
            )
        })
        .collect();
    let correct = o.problems.is_empty() && items.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.attempted,
        o.failed,
        metrics_json(&items)
    )
}

/// The line of workload-specific metrics printed before the result line.
pub fn extra_line(o: &Outcome) -> Option<String> {
    if o.extra.is_empty() {
        return None;
    }
    let items: Vec<(String, f64, &str)> = o
        .extra
        .iter()
        .map(|(n, v, u)| (n.to_string(), *v, *u))
        .collect();
    Some(format!("workload-metrics: {}", metrics_json(&items)))
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names_in(doc: &Value, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{section}' list"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn as_triples(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(names_in(&doc, "end_to_end"), as_triples(&end_to_end()));
        assert_eq!(names_in(&doc, "per_layer"), as_triples(&per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_prints_exactly_the_defined_metrics() {
        for defs in [end_to_end(), per_layer()] {
            let mut o = Outcome {
                attempted: 3,
                ..Outcome::default()
            };
            o.set(&defs[0].name, 1.25);
            let line = json::parse(&result_line(&o, &defs)).unwrap();
            let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let printed: Vec<&String> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .keys()
                .collect();
            let mut want: Vec<&String> = defs.iter().map(|d| &d.name).collect();
            want.sort();
            assert_eq!(printed, want);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|d| d.name).collect();
        all.extend(per_layer().into_iter().map(|d| d.name));
        let n = all.len();
        assert!(per_layer().len() <= 128);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        for name in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99), 4.96);
        assert_eq!(median(&[]), 0.0);
    }
}
