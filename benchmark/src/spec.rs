//! `BENCHMARK.json`, compiled in: the one definition of which metrics
//! exist, their units, which direction is better and how far each
//! end-to-end metric may worsen. The binaries print exactly these names
//! in exactly this order, and `--compare` judges against these bounds.

use crate::json::{self, Value};

const TEXT: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: u32,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    let field = |m: &Value, k: &str| {
        m.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    doc.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| Metric {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

pub fn spec() -> Spec {
    let doc = json::parse(TEXT).expect("BENCHMARK.json is valid JSON");
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u32,
        workloads: doc
            .get("workloads")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect(),
        end_to_end: metrics(&doc, "end_to_end"),
        per_layer: metrics(&doc, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_definition_is_what_the_code_runs() {
        let s = spec();
        assert_eq!(s.workloads, crate::gen::WORKLOADS);
        assert_eq!(s.run_seconds, crate::gen::NOMINAL_SECONDS);
        let gated: Vec<&str> = s.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(gated, ["setup_s", "ops_per_s", "peak_rss_mb"]);
        // The contract's ceiling; what each bound is and why is README's
        // "How the bounds were measured".
        assert!(s
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut names: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}
