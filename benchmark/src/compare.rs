//! `--compare a.json b.json`: the tool for the two-set acceptance check
//! and, later, for parent-vs-change runs. Per workload × end-to-end
//! metric it prints both medians and quartiles, the relative gap, the
//! bound, and one of
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — a set's own spread (IQR / median) is wider than the
//!   bound, so the sets cannot tell either way.
//!
//! Two sets compare only if they ran the same inputs for the same length
//! and every operation did what the generator expected; anything else is
//! reported as invalid, not as `ok`.

use crate::json::Value;
use crate::spec::{Metric, Spec};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// By how much of A's median B is *worse* (negative: better).
    pub worse_by: f64,
    /// The wider of the two sets' IQR / median.
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Option<Row> {
    let (median_a, median_b) = (stats::median(a)?, stats::median(b)?);
    if median_a == 0.0 {
        return None;
    }
    let change = (median_b - median_a) / median_a.abs();
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Row {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    })
}

/// One workload's runs in a set file written by `--repeat`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Runs {
    pub runs: usize,
    /// Runs whose result line is not `correct` or counts failed ops.
    pub bad_runs: usize,
    /// The distinct `input_digest`s the runs recorded.
    pub inputs: BTreeSet<String>,
    pub metrics: BTreeMap<String, Vec<f64>>,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Set {
    pub seconds: Option<f64>,
    pub workloads: BTreeMap<String, Runs>,
}

pub fn read_set(doc: &Value) -> Set {
    let mut set = Set {
        seconds: doc.get("seconds").and_then(Value::as_f64),
        ..Set::default()
    };
    for run in doc.get("runs").map(Value::as_arr).unwrap_or_default() {
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let entry = set.workloads.entry(workload.to_string()).or_default();
        entry.runs += 1;
        let result = run.get("result");
        let field = |k: &str| result.and_then(|r| r.get(k));
        if field("correct") != Some(&Value::Bool(true)) || field("failed") != Some(&Value::Num(0.0))
        {
            entry.bad_runs += 1;
        }
        let digest = run.get("info").and_then(|i| i.get("input_digest"));
        if let Some(d) = digest.and_then(Value::as_str) {
            entry.inputs.insert(d.to_string());
        }
        for (name, m) in field("metrics").map(Value::as_obj).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                entry.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    set
}

/// What a comparison found besides the table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Findings {
    pub regressed: bool,
    /// Why the two sets cannot be compared at all: a workload or metric
    /// one side lacks, different inputs or lengths, failed operations.
    pub invalid: Vec<String>,
}

/// The table, and what it means for the exit code.
pub fn report(spec: &Spec, a: &Set, b: &Set) -> (String, Findings) {
    let mut out = String::new();
    let mut found = Findings::default();
    if a.seconds != b.seconds {
        found.invalid.push(format!(
            "the sets ran different lengths: --seconds {:?} against {:?}",
            a.seconds, b.seconds
        ));
    }
    let _ = writeln!(
        out,
        "{:<17} {:<20} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread", "bound"
    );
    let nothing = Runs::default();
    for workload in &spec.workloads {
        let runs = |s: &Set| s.workloads.get(workload).cloned();
        let (ra, rb) = match (runs(a), runs(b)) {
            (None, None) => continue,
            (ra, rb) => (ra.unwrap_or_default(), rb.unwrap_or_default()),
        };
        for (label, r) in [("A", &ra), ("B", &rb)] {
            if r == &nothing {
                found
                    .invalid
                    .push(format!("{workload}: set {label} has no runs"));
            }
            if r.bad_runs > 0 {
                found.invalid.push(format!(
                    "{workload}: {} of set {label}'s {} runs failed operations",
                    r.bad_runs, r.runs
                ));
            }
        }
        if ra.inputs != rb.inputs {
            found.invalid.push(format!(
                "{workload}: the sets ran different inputs ({:?} against {:?})",
                ra.inputs, rb.inputs
            ));
        }
        for metric in &spec.end_to_end {
            let values = |r: &Runs| r.metrics.get(&metric.name).cloned().unwrap_or_default();
            let (va, vb) = (values(&ra), values(&rb));
            let Some(row) = judge(metric, &va, &vb) else {
                found.invalid.push(format!(
                    "{workload} {}: no usable values on one side ({} against {})",
                    metric.name,
                    va.len(),
                    vb.len()
                ));
                continue;
            };
            found.regressed |= row.verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<17} {:<20} {:>13.4} {:>13.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {}",
                workload,
                metric.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            for (label, v) in [("A", &va), ("B", &vb)] {
                if let Some([q1, q2, q3]) = stats::quartiles(v) {
                    let _ = writeln!(
                        out,
                        "{:<38} {label}: n={} q1={q1:.4} q2={q2:.4} q3={q3:.4}",
                        "",
                        v.len()
                    );
                }
            }
        }
    }
    if a.workloads.is_empty() && b.workloads.is_empty() {
        found.invalid.push("neither set holds a run".to_string());
    }
    (out, found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "us".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_logic() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = metric(false, 0.05);
        // 3 % slower: inside the bound.
        let b: Vec<f64> = base.iter().map(|v| v * 1.03).collect();
        assert_eq!(judge(&lower, &base, &b).unwrap().verdict, Verdict::Ok);
        // 8 % slower: regressed.
        let b: Vec<f64> = base.iter().map(|v| v * 1.08).collect();
        let row = judge(&lower, &base, &b).unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!((row.worse_by - 0.08).abs() < 1e-9);
        // 8 % faster is never a regression.
        let b: Vec<f64> = base.iter().map(|v| v * 0.92).collect();
        assert_eq!(judge(&lower, &base, &b).unwrap().verdict, Verdict::Ok);
    }

    #[test]
    fn direction_follows_the_metric() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let higher = metric(true, 0.05);
        let down: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        let up: Vec<f64> = base.iter().map(|v| v * 1.1).collect();
        assert_eq!(
            judge(&higher, &base, &down).unwrap().verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(&higher, &base, &up).unwrap().verdict, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let lower = metric(false, 0.05);
        let row = judge(&lower, &noisy, &noisy).unwrap();
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread > 0.05);
        assert!(judge(&lower, &[], &noisy).is_none());
    }

    /// `(workload, input digest, correct, metrics)` of one run.
    type RunSpec<'a> = (&'a str, &'a str, bool, &'a [(&'a str, f64)]);

    fn set(runs: &[RunSpec]) -> Set {
        use crate::json::obj;
        let runs = runs
            .iter()
            .map(|&(workload, digest, correct, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|&(n, v)| (n.to_string(), obj([("value", Value::Num(v))])))
                    .collect();
                obj([
                    ("workload", Value::Str(workload.to_string())),
                    (
                        "info",
                        obj([("input_digest", Value::Str(digest.to_string()))]),
                    ),
                    (
                        "result",
                        obj([
                            ("correct", Value::Bool(correct)),
                            ("failed", Value::Num(if correct { 0.0 } else { 3.0 })),
                            ("metrics", Value::Obj(metrics)),
                        ]),
                    ),
                ])
            })
            .collect();
        read_set(&obj([
            ("seconds", Value::Num(20.0)),
            ("runs", Value::Arr(runs)),
        ]))
    }

    fn spec() -> Spec {
        Spec {
            run_seconds: 20,
            workloads: vec!["w1".into(), "w2".into()],
            end_to_end: vec![metric(false, 0.05)],
            per_layer: vec![],
        }
    }

    const GOOD: &[RunSpec] = &[
        ("w1", "d1", true, &[("m", 100.0)]),
        ("w1", "d1", true, &[("m", 101.0)]),
        ("w2", "d2", true, &[("m", 50.0)]),
        ("w2", "d2", true, &[("m", 50.5)]),
    ];

    #[test]
    fn equal_sets_compare_clean() {
        let (table, found) = report(&spec(), &set(GOOD), &set(GOOD));
        assert_eq!(found, Findings::default(), "{table}");
        assert_eq!(table.matches(" ok").count(), 2, "{table}");
    }

    #[test]
    fn a_missing_workload_or_metric_is_invalid_not_ok() {
        let only_w1 = set(&GOOD[..2]);
        let (_, found) = report(&spec(), &set(GOOD), &only_w1);
        assert!(found
            .invalid
            .iter()
            .any(|m| m.contains("w2: set B has no runs")));
        let mut renamed = set(GOOD);
        let runs = renamed.workloads.get_mut("w1").unwrap();
        let values = runs.metrics.remove("m").unwrap();
        runs.metrics.insert("other".into(), values);
        let (_, found) = report(&spec(), &set(GOOD), &renamed);
        assert!(found.invalid.iter().any(|m| m.starts_with("w1 m:")));
        let (_, found) = report(&spec(), &Set::default(), &Set::default());
        assert!(!found.invalid.is_empty(), "two empty sets prove nothing");
    }

    #[test]
    fn different_inputs_or_lengths_are_invalid() {
        let mut other = GOOD.to_vec();
        other[0].1 = "dX";
        let (_, found) = report(&spec(), &set(GOOD), &set(&other));
        assert!(found.invalid.iter().any(|m| m.contains("different inputs")));
        let mut shorter = set(GOOD);
        shorter.seconds = Some(10.0);
        let (_, found) = report(&spec(), &set(GOOD), &shorter);
        assert!(found
            .invalid
            .iter()
            .any(|m| m.contains("different lengths")));
    }

    #[test]
    fn failed_operations_are_invalid() {
        let mut bad = GOOD.to_vec();
        bad[3].2 = false;
        let (_, found) = report(&spec(), &set(GOOD), &set(&bad));
        assert!(found
            .invalid
            .iter()
            .any(|m| m.contains("w2: 1 of set B's 2 runs failed")));
    }
}
