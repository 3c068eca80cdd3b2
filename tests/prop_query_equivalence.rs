//! The prepared read path's differential proof: prepared-query results
//! must be bit-identical to the legacy one-shot evaluation at **both**
//! consistency levels, across randomized databases — and plans cached
//! before a schema change must be invalidated, never serving stale
//! answers.
//!
//! The references are independent reimplementations of what the
//! pre-session façade methods did inline: `all_solutions` over the
//! canonical model for `Latest`, `RepairEngine::consistent_answers`
//! for `Certain`. The prepared path goes through
//! `ConcurrentDatabase::prepare` (the sharded plan cache), `Session`
//! (pinned snapshot, session-level repair cache) and the per-revision
//! plan store — none of which the references share.

use rand::{rngs::StdRng, Rng, SeedableRng};
use uniform::datalog::{all_solutions, Database, RuleSet};
use uniform::logic::{parse_query, parse_rule, Subst, Sym, Term};
use uniform::repair::{RepairEngine, RepairError, RepairOptions};
use uniform::workload;
use uniform::{ConcurrentDatabase, Consistency, Params, QueryError, Rows, UniformOptions};

/// ≥256 randomized databases; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo.
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

fn concurrent(db: &Database) -> ConcurrentDatabase {
    ConcurrentDatabase::from_database(
        db.clone(),
        UniformOptions {
            repair: repair_options(),
            ..UniformOptions::default()
        },
    )
}

/// The rows as `(column, value)` bindings, the references' shape.
fn bindings(rows: &Rows) -> Vec<Vec<(Sym, Sym)>> {
    let row = |r: &uniform::Row| r.iter().map(|(c, v)| (c, v.sym())).collect();
    rows.iter().map(row).collect()
}

/// The canonical result order the typed read path guarantees: sorted by
/// rendered values, column by column.
fn canonical(mut bindings: Vec<Vec<(Sym, Sym)>>) -> Vec<Vec<(Sym, Sym)>> {
    bindings.sort_by(|a, b| {
        a.iter()
            .map(|(_, c)| c.as_str())
            .cmp(b.iter().map(|(_, c)| c.as_str()))
    });
    bindings.dedup();
    bindings
}

/// The legacy `Latest` path, verbatim: parse per call, enumerate over
/// the canonical model with the runtime-greedy join order.
fn legacy_latest(db: &Database, src: &str) -> Vec<Vec<(Sym, Sym)>> {
    let literals = parse_query(src).expect("query parses");
    let mut vars: Vec<Sym> = Vec::new();
    for l in &literals {
        for v in l.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let model = db.model();
    let sols = all_solutions(model.as_ref(), &literals, &mut Subst::new(), &vars);
    canonical(
        sols.into_iter()
            .map(|s| {
                vars.iter()
                    .filter_map(|&v| match s.walk(Term::Var(v)) {
                        Term::Const(c) => Some((v, c)),
                        Term::Var(_) => None,
                    })
                    .collect()
            })
            .collect(),
    )
}

/// The legacy `Certain` path, verbatim: a fresh repair enumeration and
/// overlay intersection per call.
fn legacy_certain(db: &Database, src: &str) -> Result<Vec<Vec<(Sym, Sym)>>, RepairError> {
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(repair_options())
    .consistent_answers(&parse_query(src).expect("query parses"))
}

/// Prepared == legacy on one database, every query, both levels.
fn check_db(db: &Database, queries: &[&str], ctx: &str) {
    let cdb = concurrent(db);
    let session = cdb.session();
    for src in queries {
        let q = cdb.prepare(src).expect("query prepares");
        let rows = session
            .execute(&q, &Params::new(), Consistency::Latest)
            .expect("latest executes");
        assert_eq!(
            bindings(&rows),
            legacy_latest(db, src),
            "Latest mismatch for `{src}` on {ctx}"
        );
        match (
            session.execute(&q, &Params::new(), Consistency::Certain),
            legacy_certain(db, src),
        ) {
            (Ok(rows), Ok(want)) => assert_eq!(
                bindings(&rows),
                want,
                "Certain mismatch for `{src}` on {ctx}"
            ),
            (Err(QueryError::Budget(_)), Err(_)) => {} // both refused
            (got, want) => panic!("Certain divergence for `{src}` on {ctx}: {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn prepared_equals_legacy_on_randomized_databases_both_levels() {
    for seed in 0..cases() {
        // Inconsistent (violation-churned) states: the Certain level
        // intersects over real repairs here.
        let churn = (seed % 6) as usize;
        let db = workload::violation_state(churn, seed);
        check_db(
            &db,
            workload::violation_read_queries(),
            &format!("violation_state({churn}, {seed})"),
        );
        // Consistent deductive states: Certain must coincide with
        // Latest through the single empty repair.
        let n = 3 + (seed % 5) as usize;
        let db = workload::deductive_university(n, seed);
        check_db(
            &db,
            workload::university_read_queries(),
            &format!("deductive_university({n}, {seed})"),
        );
    }
}

/// A recursive state whose constraints reach the recursion's EDB:
/// `edge` tuples may dangle (missing `node`), so minimal repairs
/// insert `node` facts or delete `edge` facts — certain `tc` answers
/// genuinely differ from latest ones. A `Certain` read of the
/// recursion-reaching goal reads each repair's propagation over the
/// state's model.
fn tc_state(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7c_57a7e);
    let nodes = ["a", "b", "c", "d", "e"];
    let mut src = String::from(
        "tc(X, Y) :- edge(X, Y).\n\
         tc(X, Z) :- edge(X, Y), tc(Y, Z).\n\
         constraint edom: forall X, Y: edge(X, Y) -> node(X).\n",
    );
    for node in nodes {
        if rng.gen_range(0..4u8) > 0 {
            src.push_str(&format!("node({node}).\n"));
        }
    }
    for _ in 0..rng.gen_range(2..7usize) {
        let from = nodes[rng.gen_range(0..nodes.len())];
        let to = nodes[rng.gen_range(0..nodes.len())];
        src.push_str(&format!("edge({from}, {to}).\n"));
    }
    Database::parse(&src).expect("tc state parses")
}

#[test]
fn prepared_params_equal_substituted_one_shots_incl_recursive_goals() {
    for seed in 0..cases() {
        let db = tc_state(seed);
        let cdb = concurrent(&db);
        let q = cdb
            .prepare_with_params("tc(S, X)", &["S"])
            .expect("parameterized query prepares");
        let session = cdb.session();
        for start in ["a", "c", "e"] {
            let params = Params::new().bind("S", start);
            let substituted = format!("tc({start}, X)");
            let rows = session
                .execute(&q, &params, Consistency::Latest)
                .expect("latest executes");
            assert_eq!(
                bindings(&rows),
                legacy_latest(&db, &substituted),
                "Latest mismatch for S={start}, seed {seed}"
            );
            match (
                session.execute(&q, &params, Consistency::Certain),
                legacy_certain(&db, &substituted),
            ) {
                (Ok(rows), Ok(want)) => assert_eq!(
                    bindings(&rows),
                    want,
                    "Certain mismatch for S={start}, seed {seed}"
                ),
                (Err(QueryError::Budget(_)), Err(_)) => {}
                (got, want) => panic!("Certain divergence seed {seed}: {got:?} vs {want:?}"),
            }
        }
    }
}

#[test]
fn cached_plans_invalidate_on_rule_updates_and_schema_changes() {
    for seed in 0..cases().min(128) {
        let n = 3 + (seed % 4) as usize;
        let db = workload::deductive_university(n, seed);
        let cdb = concurrent(&db);
        let q = cdb.prepare("enrolled(X, C)").expect("query prepares");
        let before = cdb
            .session()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(
            bindings(&before),
            cdb.with_database(|d| legacy_latest(d, "enrolled(X, C)"))
        );
        let (_, misses0) = q.plan_counters();

        // Guarded rule addition: the rule revision moves; the cached
        // plan must be rebuilt and the new derivations served.
        assert!(cdb
            .try_add_rule("enrolled(X, ml) :- attends(X, ddb).")
            .unwrap());
        let q_again = cdb.prepare("enrolled(X, C)").expect("cache still serves");
        let after_rule = cdb
            .session()
            .execute(&q_again, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(
            bindings(&after_rule),
            cdb.with_database(|d| legacy_latest(d, "enrolled(X, C)")),
            "stale plan served after try_add_rule (seed {seed})"
        );
        assert!(
            after_rule.len() > before.len(),
            "the added rule's derivations must be visible (seed {seed})"
        );
        let (_, misses1) = q.plan_counters();
        assert_eq!(misses1, misses0 + 1, "exactly one re-plan per revision");

        // Raw schema mutation through the queue: same guarantee.
        cdb.update_schema(|d| {
            let mut rules = d.rules().rules().to_vec();
            rules.push(parse_rule("senior(X) :- student(X), attends(X, ddb).").unwrap());
            d.set_rules(RuleSet::new(rules).unwrap());
        });
        let after_schema = cdb
            .session()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(
            bindings(&after_schema),
            cdb.with_database(|d| legacy_latest(d, "enrolled(X, C)")),
            "stale plan served after update_schema (seed {seed})"
        );
        let (_, misses2) = q.plan_counters();
        assert_eq!(misses2, misses1 + 1);
    }
}
