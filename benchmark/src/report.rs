//! One run, start to finish: set up, execute the plan, verify, and turn
//! the records into named metrics. Both binaries share it; they differ
//! only in the probe they pass and the metrics they print.

use crate::digest::Digest;
use crate::driver::{self, Built, Clock, Environment, ObsMode, Probe, Record};
use crate::json::{obj, Value};
use crate::ops::{Class, Op, Plan};
use crate::spec::Spec;
use crate::stats::{self, Sample, Summary};
use std::collections::BTreeMap;

/// Set-ups per end-to-end run: at least `min`, then more until a second
/// has gone into them, at most `max`. `setup_s` is their median: one
/// set-up takes 0.03 s to 0.8 s, too short to compare on its own.
#[derive(Clone, Copy, Debug)]
pub struct Setups {
    pub min: usize,
    pub max: usize,
}

pub const SETUPS: Setups = Setups { min: 3, max: 40 };

/// Which part of the plan an executed operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Measured,
}

pub struct Run {
    /// Every set-up's time.
    pub setup_s: Vec<f64>,
    /// Time spent inside the list's operations.
    pub busy_seconds: f64,
    /// Caller-visible operations in the list (a burst counts its reads).
    pub items: u64,
    /// Wall time of the whole measured list, first call to last return,
    /// probes and harness included.
    pub measured_wall_s: f64,
    pub samples: BTreeMap<Class, Vec<Sample>>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub input_digest: String,
    pub outcome_digest: String,
    pub timer_ns: f64,
    pub environment: Environment,
    pub peak_rss_mb: f64,
    /// The last set-up's databases, for counters read after the run.
    pub built: Built,
}

/// A [`Probe`] that is told which phase the next operations belong to.
pub trait PhasedProbe: Probe {
    fn enter(&mut self, _phase: Phase, _built: &Built, _clock: &Clock) {}
}

impl PhasedProbe for driver::NoProbe {}

/// Execute `plan` once. Full set-ups (load + warm-up) are timed as
/// `setups` says; the measured phase runs on the last.
pub fn run(plan: &Plan, obs: ObsMode, setups: Setups, probe: &mut impl PhasedProbe) -> Run {
    let clock = Clock::start();
    let timer_ns = clock.pair_cost_ns();
    let mut outcome_digest = Digest::new();
    let (mut attempted, mut failed, mut mismatches) = (0, 0, Vec::new());
    let mut check = |ops: &[Op], records: &[Record], digest: &mut Digest| {
        let v = driver::verify(ops, records, digest);
        attempted += v.attempted;
        failed += v.failed;
        mismatches.extend(v.mismatches);
    };

    let mut setup_s = Vec::new();
    let mut built = None;
    let warm_ready = driver::ready(plan, &plan.warmup);
    while setup_s.len() < setups.min.max(1)
        || (setup_s.len() < setups.max && setup_s.iter().sum::<f64>() < 1.0)
    {
        // Free the previous set-up first: peak RSS is one database's.
        drop(built.take());
        let t0 = clock.now_ns();
        let b = driver::load(plan, obs);
        probe.enter(Phase::Warmup, &b, &clock);
        let records = driver::execute(&b, &plan.warmup, &warm_ready, &clock, probe);
        setup_s.push((clock.now_ns() - t0) as f64 / 1e9);
        // Every set-up must behave; only the last one's outcomes are
        // digested, so the digest does not depend on `setups`.
        check(&plan.warmup, &records, &mut Digest::new());
        built = Some(b);
    }
    let built = built.expect("at least one set-up ran");

    let ready = driver::ready(plan, &plan.ops);
    probe.enter(Phase::Measured, &built, &clock);
    let records = driver::execute(&built, &plan.ops, &ready, &clock, probe);
    check(&plan.ops, &records, &mut outcome_digest);

    let mut samples: BTreeMap<Class, Vec<Sample>> = BTreeMap::new();
    let (mut items, mut busy_ns) = (0u64, 0u64);
    for (op, r) in plan.ops.iter().zip(&records) {
        let sample = Sample {
            ns: r.end_ns - r.start_ns,
            items: op.items(),
        };
        samples.entry(op.class).or_default().push(sample);
        items += sample.items as u64;
        busy_ns += sample.ns;
    }
    let busy_seconds = busy_ns as f64 / 1e9;
    let measured_wall_s = match (records.first(), records.last()) {
        (Some(first), Some(last)) => (last.end_ns - first.start_ns) as f64 / 1e9,
        _ => 0.0,
    };
    Run {
        setup_s,
        measured_wall_s,
        busy_seconds,
        items,
        samples,
        attempted,
        failed,
        mismatches,
        input_digest: plan.input_digest(),
        outcome_digest: outcome_digest.hex(),
        timer_ns,
        environment: driver::environment(),
        peak_rss_mb: driver::peak_rss_mb().unwrap_or(0.0),
        built,
    }
}

impl Run {
    pub fn summary(&self, class: Class) -> Summary {
        self.samples
            .get(&class)
            .map(|s| stats::summarize(s))
            .unwrap_or_default()
    }

    /// Per-item median of the class a role names, 0 where the workload
    /// does not list that latency.
    pub fn role_p50_us(&self, role: Option<Class>) -> f64 {
        role.map_or(0.0, |class| self.summary(class).p50_us)
    }

    /// Operations of the list per second spent inside them. The whole
    /// list, not a median of slices: the lists are not stationary (pages
    /// fill, the database grows), so slices differ by design, and over
    /// eight identical runs the total repeated within 3 % where the median
    /// of eight slices moved by 7 %.
    pub fn ops_per_s(&self) -> f64 {
        if self.busy_seconds > 0.0 {
            self.items as f64 / self.busy_seconds
        } else {
            0.0
        }
    }

    /// The end-to-end metrics by name: the three every workload has.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", stats::median(&self.setup_s).unwrap_or(0.0)),
            ("ops_per_s", self.ops_per_s()),
            ("peak_rss_mb", self.peak_rss_mb),
        ])
    }

    /// Everything about the run that is not a gated metric: printed as
    /// its own line before the result.
    pub fn info(&self, plan: &Plan) -> Value {
        let classes = self
            .samples
            .iter()
            .map(|(class, samples)| {
                let s = stats::summarize(samples);
                (
                    class.name().to_string(),
                    obj([
                        ("samples", Value::Num(s.samples as f64)),
                        ("items", Value::Num(s.items as f64)),
                        ("p50_us", Value::Num(s.p50_us)),
                        ("p99_us", Value::Num(s.p99_us)),
                    ]),
                )
            })
            .collect();
        let r = plan.roles;
        let latencies = [
            ("commit_p50_us", r.commit),
            ("reject_p50_us", r.reject),
            ("read_latest_p50_us", r.read_latest),
            ("read_certain_p50_us", r.read_certain),
            ("schema_p50_us", r.schema),
            ("repair_p50_us", r.repair),
        ]
        .into_iter()
        .filter(|(_, role)| role.is_some())
        .map(|(name, role)| (name.to_string(), Value::Num(self.role_p50_us(role))))
        .collect();
        let env = &self.environment;
        let var = |v: &Option<String>| v.clone().map_or(Value::Null, Value::Str);
        obj([
            ("workload", Value::Str(plan.workload.to_string())),
            ("seed", Value::Num(plan.seed as f64)),
            ("seconds", Value::Num(plan.seconds as f64)),
            ("input_digest", Value::Str(self.input_digest.clone())),
            ("outcome_digest", Value::Str(self.outcome_digest.clone())),
            ("clients", Value::Num(1.0)),
            ("loop", Value::Str("closed".to_string())),
            ("env_uniform_threads", var(&env.uniform_threads)),
            ("env_uniform_obs", var(&env.uniform_obs)),
            ("cores", Value::Num(env.cores as f64)),
            ("timer_pair_ns", Value::Num(self.timer_ns)),
            (
                "setup_s_all",
                Value::Arr(self.setup_s.iter().map(|&s| Value::Num(s)).collect()),
            ),
            ("ops", Value::Num(self.items as f64)),
            ("busy_seconds", Value::Num(self.busy_seconds)),
            ("latencies", Value::Obj(latencies)),
            ("classes", Value::Obj(classes)),
            (
                "mismatches",
                Value::Arr(self.mismatches.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}

/// The contract's result line: `correct`, `attempted`, `failed`,
/// `metrics`, the metrics being exactly `defined`, in that order. A
/// metric nobody produced, or a zero, makes the run incorrect.
pub fn result_line(
    defined: &[crate::spec::Metric],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
    require_nonzero: bool,
) -> Value {
    let mut correct = failed == 0 && attempted > 0;
    let metrics = defined
        .iter()
        .map(|m| {
            let value = values.get(m.name.as_str()).copied();
            if value.is_none() || (require_nonzero && value == Some(0.0)) {
                correct = false;
            }
            (
                m.name.clone(),
                obj([
                    ("value", Value::Num(value.unwrap_or(0.0))),
                    ("unit", Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

pub fn end_to_end_line(spec: &Spec, run: &Run) -> Value {
    result_line(
        &spec.end_to_end,
        &run.end_to_end(),
        run.attempted,
        run.failed,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Metric;

    fn metric(name: &str) -> Metric {
        Metric {
            name: name.to_string(),
            unit: "us".to_string(),
            higher_is_better: false,
            bound: Some(0.07),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defined = [metric("a_us"), metric("b_us")];
        let values = BTreeMap::from([("a_us", 1.5), ("b_us", 2.0), ("extra", 9.0)]);
        let line = result_line(&defined, &values, 10, 0, true);
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj();
        assert_eq!(metrics.len(), 2, "undefined metrics are not printed");
        assert_eq!(metrics[0].1.get("value"), Some(&Value::Num(1.5)));
    }

    #[test]
    fn missing_or_zero_metrics_and_failures_are_incorrect() {
        let defined = [metric("a_us"), metric("b_us")];
        let ok = BTreeMap::from([("a_us", 1.0), ("b_us", 2.0)]);
        let missing = BTreeMap::from([("a_us", 1.0)]);
        let zero = BTreeMap::from([("a_us", 1.0), ("b_us", 0.0)]);
        let correct = |v: &BTreeMap<&str, f64>, failed, nonzero| {
            result_line(&defined, v, 10, failed, nonzero).get("correct") == Some(&Value::Bool(true))
        };
        assert!(correct(&ok, 0, true));
        assert!(!correct(&ok, 1, true));
        assert!(!correct(&missing, 0, true));
        assert!(!correct(&zero, 0, true));
        assert!(correct(&zero, 0, false), "per-layer metrics may be zero");
    }
}
