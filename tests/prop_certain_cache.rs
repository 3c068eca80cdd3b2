//! The shared certain-answer cache's differential proof: across
//! randomized schedules of guarded commits, raw fact edits,
//! constraint-only schema swaps and `Certain` reads, every answer
//! served through the shared cache — cold, or warm from an entry of the
//! same exact state — must be **bit-identical** to a fresh
//! `RepairEngine` enumeration of the same committed state.
//!
//! The reference shares nothing with the cache: it re-enumerates the
//! minimal repairs from the live database on every comparison. The
//! cached path goes through `ConcurrentDatabase::session()` (the
//! shared `certain_cache`), with each query executed twice per state so
//! both the install path and the row-hit path are compared. Schedules
//! deliberately interleave:
//!
//! * commits *inside* the constraint closure (`p`/`q`) — these must
//!   invalidate, never serve the dead state;
//! * commits *outside* every closure (`noise`) — these move the state
//!   key too, so the next reads re-enumerate and are re-compared;
//! * constraint-only `update_schema` swaps (facts and rules untouched —
//!   the PR 6 session fence would not catch a stale report keyed on
//!   `(rule_rev, constraint_rev)` alone if `fact_rev` were missing);
//! * raw fact edits through `update_schema` (wholesale invalidation),
//!   which also drive the state inconsistent so the repairs are real.

use rand::{rngs::StdRng, Rng, SeedableRng};
use uniform::logic::{normalize, parse_formula, parse_query, Sym};
use uniform::repair::{RepairEngine, RepairOptions};
use uniform::{
    ConcurrentDatabase, Consistency, Database, ObsReport, Params, QueryError, Rows, UniformOptions,
    Update,
};

/// ≥256 randomized schedules; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo (CI's release pass runs
/// 1024).
fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

fn repair_options() -> RepairOptions {
    RepairOptions {
        max_changes: 3,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        ..RepairOptions::default()
    }
}

const QUERIES: &[&str] = &["p(X)", "q(X)", "s(X)", "noise(X)"];
const FORMULA: &str = "forall X: p(X) -> q(X)";

/// The rows as `(column, value)` bindings, the reference's shape.
fn bindings(rows: &Rows) -> Vec<Vec<(Sym, Sym)>> {
    let row = |r: &uniform::Row| r.iter().map(|(c, v)| (c, v.sym())).collect();
    rows.iter().map(row).collect()
}

/// Fresh reference enumeration on the live database — shares nothing
/// with the cache under test.
fn fresh_certain(db: &Database, src: &str) -> Result<Vec<Vec<(Sym, Sym)>>, ()> {
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(repair_options())
    .consistent_answers(&parse_query(src).expect("query parses"))
    .map_err(|_| ())
}

fn fresh_certainly_satisfies(db: &Database, src: &str) -> Result<bool, ()> {
    let rq = normalize(&parse_formula(src).expect("formula parses")).expect("formula normalizes");
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(repair_options())
    .certainly_satisfies(&rq)
    .map_err(|_| ())
}

/// Compare every query, twice each (install path, then row-hit path),
/// against the fresh enumeration of the same state.
fn check_state(cdb: &ConcurrentDatabase, ctx: &str) {
    // The cache install paths serve the constraint closure from the
    // shared `AnalyzedProgram` (keyed on schema revisions) instead of
    // re-walking the dependency graph per state; the served closure
    // must equal the per-state recompute, including right after the
    // schedule's constraint-only schema swaps.
    let static_closure = cdb.analyze().closure_union().to_vec();
    let fresh_closure: Vec<Sym> = cdb.with_database(|d| {
        let graph = d.rules().graph();
        let mut set: std::collections::BTreeSet<Sym> = std::collections::BTreeSet::new();
        for c in d.constraints() {
            for occ in c.rq.literals() {
                set.extend(graph.reachable(occ.literal.atom.pred));
            }
        }
        set.into_iter().collect()
    });
    assert_eq!(
        static_closure, fresh_closure,
        "analyzed closure must equal the per-state recompute on {ctx}"
    );

    let session = cdb.session();
    for src in QUERIES {
        let q = cdb.prepare(src).expect("query prepares");
        let fresh = cdb.with_database(|d| fresh_certain(d, src));
        for pass in ["install", "row-hit"] {
            // A fresh session per pass: the second one must hit the
            // shared cache.
            let s = cdb.session();
            match (s.execute(&q, &Params::new(), Consistency::Certain), &fresh) {
                (Ok(rows), Ok(want)) => assert_eq!(
                    &bindings(&rows),
                    want,
                    "Certain mismatch for `{src}` ({pass}) on {ctx}"
                ),
                (Err(QueryError::Budget(_)), Err(())) => {}
                (got, want) => {
                    panic!("Certain divergence for `{src}` ({pass}) on {ctx}: {got:?} vs {want:?}")
                }
            }
        }
        // And through one long-lived session, which has read before.
        match (
            session.execute(&q, &Params::new(), Consistency::Certain),
            &fresh,
        ) {
            (Ok(rows), Ok(want)) => assert_eq!(
                &bindings(&rows),
                want,
                "Certain mismatch for `{src}` (long-lived session) on {ctx}"
            ),
            (Err(QueryError::Budget(_)), Err(())) => {}
            (got, want) => {
                panic!("Certain divergence for `{src}` (long-lived session) on {ctx}: {got:?} vs {want:?}")
            }
        }
    }
    let f = cdb.prepare_formula(FORMULA).expect("formula prepares");
    let fresh = cdb.with_database(|d| fresh_certainly_satisfies(d, FORMULA));
    match (
        session.execute(&f, &Params::new(), Consistency::Certain),
        fresh,
    ) {
        (Ok(rows), Ok(want)) => {
            assert_eq!(rows.is_true(), want, "Certain formula mismatch on {ctx}")
        }
        (Err(QueryError::Budget(_)), Err(())) => {}
        (got, want) => panic!("Certain formula divergence on {ctx}: {got:?} vs {want:?}"),
    }
}

fn ins(p: &str, k: &str) -> Update {
    Update::insert(uniform::Fact::parse_like(p, &[k]))
}

fn del(p: &str, k: &str) -> Update {
    Update::delete(uniform::Fact::parse_like(p, &[k]))
}

/// One randomized schedule: build a violation-bearing state, then
/// interleave commits, schema swaps and cached reads, comparing after
/// every step. Returns this schedule's closing metrics report.
fn run_schedule(seed: u64) -> ObsReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcc_cafe);
    let cdb = ConcurrentDatabase::from_database(
        Database::parse(
            "s(X) :- p(X).\n\
             constraint c: forall X: p(X) -> q(X).\n\
             q(k0). q(k1). p(k1).",
        )
        .expect("base parses"),
        UniformOptions {
            repair: repair_options(),
            ..UniformOptions::default()
        },
    );
    // Seed 0–2 raw violations so repairs are non-trivial from the start.
    cdb.update_schema(|d| {
        for i in 0..rng.gen_range(0..3usize) {
            d.insert_fact(&uniform::Fact::parse_like("p", &[&format!("v{i}")]));
        }
    });
    check_state(&cdb, &format!("seed {seed} initial"));
    let keys = ["k0", "k1", "k2", "k3", "v0", "v1"];
    let extra = uniform::Constraint::new(
        "noq2",
        normalize(&parse_formula("forall X: q2(X) -> false").expect("parses")).expect("normalizes"),
    );
    for step in 0..rng.gen_range(4..9usize) {
        let k = keys[rng.gen_range(0..keys.len())];
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0..8u8) {
            // Guarded commits inside the constraint closure: insertions
            // of q are always admissible; deletions of p likewise.
            0 => drop(cdb.commit_updates_with_retry(&[ins("q", k)], 4)),
            1 => drop(cdb.commit_updates_with_retry(&[del("p", k)], 4)),
            2 => drop(cdb.commit_updates_with_retry(&[ins("p", k), ins("q", k)], 4)),
            // Deleting q may be rejected while some p needs it — either
            // outcome is fine, the state just must stay comparable.
            3 => drop(cdb.commit_updates_with_retry(&[del("q", k)], 4)),
            // Commits outside every closure: they still move the key.
            4 => drop(cdb.commit_updates_with_retry(&[ins("noise", k)], 4)),
            5 => drop(cdb.commit_updates_with_retry(&[del("noise", k)], 4)),
            // Constraint-only schema swap: toggle an extra constraint
            // over a relation that is never populated — the *answers*
            // of QUERIES are unchanged, but serving them from a stale
            // RepairReport keyed without `fact_rev`/`constraint_rev`
            // would be unsound; the comparison keeps both honest.
            6 => cdb.update_schema(|d| {
                let mut cs = d.constraints().to_vec();
                match cs.iter().position(|c| c.name == "noq2") {
                    Some(i) => drop(cs.remove(i)),
                    None => cs.push(extra.clone()),
                }
                d.set_constraints(cs);
            }),
            // Raw fact edits: drive violations in (or out) bypassing
            // the guard, as an external loader would.
            _ => cdb.update_schema(|d| {
                let fact = uniform::Fact::parse_like("p", &[k]);
                let update = if rng.gen_bool(0.5) {
                    Update::insert(fact)
                } else {
                    Update::delete(fact)
                };
                d.apply(&update).expect("arity is fixed in this universe");
            }),
        }
        check_state(&cdb, &ctx);
    }
    cdb.obs_report()
}

#[test]
fn cached_certain_answers_equal_fresh_enumeration_across_schedules() {
    const COUNTERS: [&str; 3] = ["hits", "repair_hits", "invalidated"];
    let mut totals = [0u64; COUNTERS.len()];
    for seed in 0..cases() {
        let report = run_schedule(seed);
        for (total, name) in totals.iter_mut().zip(COUNTERS) {
            *total += report
                .counter(&format!("cache.certain.{name}"))
                .expect("the cache registers its counters");
        }
    }
    let [hits, repair_hits, invalidated] = totals;
    // The differential pass is only meaningful if the cache actually
    // served answers: every interesting path must have fired across
    // the run — row hits, repair reuse and invalidation alike.
    assert!(hits > 0, "no cached row was ever served: {totals:?}");
    assert!(repair_hits > 0, "repair cache never hit: {totals:?}");
    assert!(invalidated > 0, "nothing ever invalidated: {totals:?}");
}
