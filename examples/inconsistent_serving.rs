//! Inconsistency-tolerant serving: minimal repairs, certain answers
//! through the prepared read path, and the violation policies of the
//! commit pipeline.
//!
//! ```sh
//! cargo run --example inconsistent_serving
//! ```

use uniform::{
    ConcurrentDatabase, Consistency, Fact, Params, PreparedQuery, UniformOptions, Update,
    ViolationPolicy,
};

fn main() {
    // An external load left the data inconsistent: jack and jill are
    // enrolled, but only jill attends the mandatory course.
    let db = ConcurrentDatabase::parse_tolerant(
        "
        enrolled(X, cs) :- student(X).
        constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
        student(jack). student(jill).
        attends(jill, ddb).
    ",
    )
    .unwrap();

    println!("minimal repairs of the loaded state:");
    for repair in db.minimal_repairs().unwrap() {
        println!("  {repair}");
    }

    // One prepared query, two consistency levels — the read path the
    // paper's uniform treatment suggests. `Latest` answers against the
    // canonical model as loaded; `Certain` serves only what is true in
    // EVERY minimal repair: jill is certainly enrolled; jack's
    // enrollment depends on which repair you pick (expelling him vs.
    // marking him as attending), so it is not certain. The session
    // enumerates the repairs once and reuses them per execute.
    let enrolled = PreparedQuery::prepare_with_params("enrolled(X, C)", &["C"]).unwrap();
    let session = db.session();
    let course = Params::new().bind("C", "cs");
    for level in [Consistency::Latest, Consistency::Certain] {
        let rows = session.execute(&enrolled, &course, level).unwrap();
        println!("{level:?} enrolled(X, cs): {rows}");
    }

    // The commit pipeline can explain or auto-repair violations.
    let cdb = ConcurrentDatabase::parse(
        "
        enrolled(X, cs) :- student(X).
        constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
        student(jill). attends(jill, ddb).
    ",
    )
    .unwrap();

    // Explain: rejected, but the error names the minimal repair.
    let mut txn = cdb.begin();
    txn.stage(Update::insert(Fact::parse_like("student", &["zoe"])));
    let err = cdb
        .commit_with_policy(&txn, ViolationPolicy::Explain)
        .unwrap_err();
    println!("explain: {err}");

    // AutoRepair: the repair delta is folded into the commit itself.
    let auto = ConcurrentDatabase::from_database(
        uniform::Database::parse(
            "
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
            student(jill). attends(jill, ddb).
        ",
        )
        .unwrap(),
        UniformOptions {
            violation_policy: ViolationPolicy::AutoRepair,
            ..UniformOptions::default()
        },
    );
    let mut txn = auto.begin();
    txn.stage(Update::insert(Fact::parse_like("student", &["zoe"])));
    let outcome = auto.commit(&txn).unwrap();
    println!(
        "auto-repaired commit at v{} with delta {}",
        outcome.version,
        outcome.repair.expect("a repair was folded in")
    );
    assert!(auto.with_database(|d| d.is_consistent()));
}
