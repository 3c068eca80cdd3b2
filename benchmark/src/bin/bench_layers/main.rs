//! The traced run: the same generator and driver as `bench-e2e`, at a
//! quarter of the list's length, executed three times —
//!
//! 1. plain (the reference `ops_per_s`, the counters of `obs_report()`,
//!    every class's latency and the tails);
//! 2. with `from_database_with_obs(WallClock)` (what turning timing on
//!    costs);
//! 3. with the probes of `layers.rs` around every operation (the spans).
//!
//! Prints an info line, then the contract's result line with every
//! per-layer metric; writes the spans next to the binaries. End-to-end
//! metrics never come from here.

mod layers;

use layers::LayerProbe;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use ubench::driver::{NoProbe, ObsMode};
use ubench::json::{obj, Value};
use ubench::ops::{Class, Plan};
use ubench::report::{self, Run, Setups};
use ubench::{cli, gen, spec};

/// The traced run executes the list three times, one of them with
/// probes that cost once or twice as much again as the operations they
/// replicate; at a quarter of the length the three passes together take
/// about as long as one end-to-end run, and every listed class keeps
/// ≥ 500 samples.
const LENGTH_DIVISOR: u32 = 4;
const ONCE: Setups = Setups { min: 1, max: 1 };

/// Sum of a counter over every database of the run.
fn counter(run: &Run, name: &str) -> f64 {
    run.built
        .dbs
        .iter()
        .filter_map(|db| db.handle.obs_report().counter(name))
        .sum::<u64>() as f64
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn per_layer(
    plan: &Plan,
    plain: &Run,
    wall: &Run,
    traced: &Run,
    probe: &LayerProbe,
) -> BTreeMap<&'static str, f64> {
    let s = probe.stats();
    let c = &probe.counts;
    let r = plan.roles;
    let admitted = counter(plain, "txn.commits.admitted");
    let hit_frac = |hits: &str, misses: &str| {
        let h = counter(plain, hits);
        ratio(h, h + counter(plain, misses))
    };
    let class_p50 = |class: Class| plain.summary(class).p50_us;
    let role_p99 = |role: Option<Class>| role.map_or(0.0, |c| plain.summary(c).p99_us);
    let first_of = |classes: &[Class]| {
        classes
            .iter()
            .map(|&c| class_p50(c))
            .find(|&v| v > 0.0)
            .unwrap_or(0.0)
    };
    let repair_runs = counter(plain, "repair.runs.search")
        + counter(plain, "repair.runs.sat")
        + counter(plain, "repair.runs.auto");
    let spans_recorded = wall
        .built
        .dbs
        .iter()
        .map(|db| db.handle.recent_events().len() as u64 + db.handle.obs().dropped_events())
        .sum::<u64>();
    BTreeMap::from([
        (
            "logic.parse_program_us_per_kfact",
            probe.parse_program_us_per_kfact,
        ),
        ("logic.parse_query_p50_us", s.p50_us("logic.parse_query")),
        ("datalog.snapshot_p50_ns", s.p50_ns("datalog.snapshot")),
        (
            "datalog.queue_commit_p50_us",
            s.p50_us("datalog.queue_commit"),
        ),
        (
            "datalog.maintain_apply_p50_us",
            s.p50_us("datalog.maintain_apply"),
        ),
        (
            "datalog.maintained_frac",
            hit_frac(
                "maintain.commits.maintained",
                "maintain.commits.rematerialized",
            ),
        ),
        ("datalog.model_compute_ms", probe.model_compute_ms),
        ("datalog.eval_join_p50_us", s.p50_us("datalog.eval_join")),
        ("datalog.eval_magic_p50_us", s.p50_us("datalog.eval_magic")),
        (
            "datalog.cow_bytes_per_commit",
            ratio(counter(plain, "store.cow.bytes_cloned"), admitted),
        ),
        (
            "datalog.cow_pages_per_commit",
            ratio(counter(plain, "store.cow.pages_cloned"), admitted),
        ),
        (
            "datalog.whole_relation_fallbacks_per_commit",
            ratio(
                counter(plain, "txn.conflicts.whole_relation_fallbacks"),
                admitted,
            ),
        ),
        (
            "datalog.conflicts",
            counter(plain, "txn.conflicts.key") + counter(plain, "txn.conflicts.relation"),
        ),
        (
            "integrity.check_accept_p50_us",
            s.p50_us("integrity.check_accept"),
        ),
        (
            "integrity.check_reject_p50_us",
            s.p50_us("integrity.check_reject"),
        ),
        ("integrity.compile_p50_us", s.p50_us("integrity.compile")),
        ("integrity.evaluate_p50_us", s.p50_us("integrity.evaluate")),
        (
            "integrity.instances_evaluated_per_check",
            ratio(c.instances_evaluated as f64, c.checks as f64),
        ),
        (
            "integrity.new_materializations_per_check",
            ratio(c.new_materializations as f64, c.checks as f64),
        ),
        (
            "integrity.memo_hit_frac",
            ratio(
                (c.instances_shared + c.memo_hits) as f64,
                (c.instances_shared + c.memo_hits + c.instances_evaluated) as f64,
            ),
        ),
        (
            "satisfiability.check_p50_us",
            s.p50_us("satisfiability.check"),
        ),
        (
            "satisfiability.nodes_per_check",
            ratio(c.sat_steps as f64, c.sat_checks as f64),
        ),
        ("analyze.analyze_p50_us", s.p50_us("analyze.analyze")),
        ("analyze.classify_p50_us", s.p50_us("analyze.classify")),
        (
            "analyze.cache_hit_frac",
            hit_frac("analyze.cache.hits", "analyze.cache.misses"),
        ),
        (
            "repair.repairs_search_p50_us",
            s.p50_us("repair.repairs_search"),
        ),
        ("repair.repairs_sat_p50_us", s.p50_us("repair.repairs_sat")),
        (
            "repair.search_explored_per_run",
            ratio(counter(plain, "repair.search.explored"), repair_runs),
        ),
        (
            "repair.sat_conflicts_per_run",
            ratio(counter(plain, "repair.sat.conflicts"), repair_runs),
        ),
        (
            "repair.repairs_per_run",
            ratio(c.repairs_found as f64, c.repair_runs as f64),
        ),
        ("core.commit_p50_us", plain.role_p50_us(r.commit)),
        ("core.reject_p50_us", plain.role_p50_us(r.reject)),
        ("core.read_latest_p50_us", plain.role_p50_us(r.read_latest)),
        (
            "core.read_certain_p50_us",
            plain.role_p50_us(r.read_certain),
        ),
        ("core.schema_p50_us", plain.role_p50_us(r.schema)),
        ("core.repair_p50_us", plain.role_p50_us(r.repair)),
        ("core.commit_self_p50_us", s.self_p50_us(r.commit)),
        ("core.execute_self_p50_us", s.self_p50_us(r.read_latest)),
        (
            "core.plan_cache_hit_frac",
            hit_frac("cache.plan.hits", "cache.plan.misses"),
        ),
        (
            "core.certain_hit_frac",
            hit_frac("cache.certain.hits", "cache.certain.misses"),
        ),
        (
            "core.certain_carried_per_commit",
            ratio(counter(plain, "cache.certain.carried_forward"), admitted),
        ),
        (
            "core.certain_invalidated_per_commit",
            ratio(counter(plain, "cache.certain.invalidated"), admitted),
        ),
        ("core.certain_miss_p50_us", class_p50(Class::CertainCold)),
        (
            "core.delete_p50_us",
            first_of(&[Class::Delete3, Class::DeleteLeaf]),
        ),
        (
            "core.commit_invalidating_p50_us",
            class_p50(Class::CommitEnrol),
        ),
        (
            "core.schema_refuse_unsat_p50_us",
            class_p50(Class::SchemaRefuseUnsat),
        ),
        (
            "core.schema_refuse_violated_p50_us",
            class_p50(Class::SchemaRefuseViolated),
        ),
        ("core.schema_reset_p50_us", class_p50(Class::SchemaReset)),
        ("core.add_rule_p50_us", class_p50(Class::AddRule)),
        ("core.explain_p50_us", class_p50(Class::Explain)),
        (
            "core.auto_repair_wide_p50_us",
            class_p50(Class::AutoRepairWide),
        ),
        (
            "core.auto_repair_dense_p50_us",
            class_p50(Class::AutoRepairDense),
        ),
        ("core.commit_p99_us", role_p99(r.commit)),
        ("core.read_latest_p99_us", role_p99(r.read_latest)),
        ("core.read_certain_p99_us", role_p99(r.read_certain)),
        (
            "share.integrity_of_commit_frac",
            s.share(r.commit, "integrity."),
        ),
        (
            "share.datalog_of_commit_frac",
            s.share(r.commit, "datalog."),
        ),
        (
            "share.datalog_of_read_frac",
            s.share(r.read_latest, "datalog."),
        ),
        (
            "share.enforcement_of_schema_frac",
            s.share(r.schema, "analyze.") + s.share(r.schema, "satisfiability."),
        ),
        ("share.repair_of_repair_frac", s.share(r.repair, "repair.")),
        (
            "obs.wallclock_overhead_frac",
            1.0 - ratio(wall.ops_per_s(), plain.ops_per_s()),
        ),
        ("obs.spans_recorded", spans_recorded as f64),
        ("harness.timer_ns", plain.timer_ns),
        (
            "harness.trace_overhead_frac",
            1.0 - ratio(plain.measured_wall_s, traced.measured_wall_s),
        ),
        ("harness.unattributed_frac", s.unattributed_frac()),
    ])
}

/// Spans go next to the binaries (`<target>/trace/`), inside the
/// checkout and outside every source directory.
fn write_spans(probe: &LayerProbe, workload: &str) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .and_then(|release| release.parent())
        .map(|target| target.join("trace"))
        .ok_or_else(|| std::io::Error::other("binary has no target directory"))?;
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    probe.spans.write_jsonl(&mut out)?;
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let spec = spec::spec();
    let outcome = cli::parse(std::env::args().skip(1)).and_then(|args| {
        if let Some(n) = args.repeat {
            return cli::repeat(
                &spec,
                &cli::Args {
                    trace: true,
                    ..args.clone()
                },
                n,
            );
        }
        let workload = args.workload.as_deref().ok_or("--workload is required")?;
        let seconds = args
            .seconds
            .unwrap_or(spec.run_seconds)
            .div_ceil(LENGTH_DIVISOR);
        let plan = gen::plan(workload, args.seed, seconds)
            .ok_or(format!("unknown workload `{workload}`"))?;

        let plain = report::run(&plan, ObsMode::FromEnv, ONCE, &mut NoProbe);
        let wall = report::run(&plan, ObsMode::WallClock, ONCE, &mut NoProbe);
        let mut probe = LayerProbe::new(&plan);
        let traced = report::run(&plan, ObsMode::FromEnv, ONCE, &mut probe);

        let values = per_layer(&plan, &plain, &wall, &traced, &probe);
        let spans_file =
            write_spans(&probe, workload).map_err(|e| format!("writing spans: {e}"))?;
        for m in plain
            .mismatches
            .iter()
            .chain(&wall.mismatches)
            .chain(&traced.mismatches)
        {
            eprintln!("{m}");
        }
        let same_outcomes = plain.outcome_digest == wall.outcome_digest
            && plain.outcome_digest == traced.outcome_digest;
        if !same_outcomes {
            eprintln!("the three passes disagree on outcomes");
        }
        let mut info = plain.info(&plan);
        if let Value::Obj(fields) = &mut info {
            fields.push((
                "uniform_threads".to_string(),
                Value::Num(layers::resolved_threads() as f64),
            ));
            fields.push((
                "uniform_obs_clock".to_string(),
                Value::Bool(layers::obs_clock_enabled(&plain.built)),
            ));
            fields.push(("spans_file".to_string(), Value::Str(spans_file)));
            fields.push((
                "spans".to_string(),
                Value::Num(probe.spans.spans().len() as f64),
            ));
            fields.push((
                "ops_per_s".to_string(),
                obj([
                    ("plain", Value::Num(plain.ops_per_s())),
                    ("wallclock", Value::Num(wall.ops_per_s())),
                    ("traced", Value::Num(traced.ops_per_s())),
                ]),
            ));
        }
        println!("{info}");
        let failed = plain.failed + wall.failed + traced.failed + u64::from(!same_outcomes);
        let attempted = plain.attempted + wall.attempted + traced.attempted;
        println!(
            "{}",
            report::result_line(&spec.per_layer, &values, attempted, failed, false)
        );
        Ok(ExitCode::SUCCESS)
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("bench-layers: {e}");
        ExitCode::FAILURE
    })
}
