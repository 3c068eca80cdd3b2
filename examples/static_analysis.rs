//! Static analysis: lint a schema and refuse the unusable ones — all
//! before a single fact is stored.
//!
//! ```sh
//! cargo run --example static_analysis
//! ```
//!
//! The paper's satisfiability half (§4) is a *schema-time* property:
//! whether a constraint set admits any database state does not depend
//! on the facts. `uniform::analyze` pushes the whole class of
//! schema-time questions to registration time — stable `UAxxxx` lints
//! over rules and constraints, precomputed dependency artifacts, and a
//! bounded satisfiability classification whose `UA0301` verdict the
//! façade turns into a typed refusal.

use uniform::analyze::analyze_source;
use uniform::{ConcurrentDatabase, UniformError};

fn main() {
    // 1. Lint a schema from source: findings carry stable codes and
    //    line:column spans.
    println!("== linting a schema ==\n");
    let report = analyze_source(
        "
        boss(X) :- leads(X, Y).
        review(X, Y) :- employee(X), auditor(Y).

        constraint led: forall X: department(X) -> (exists Y: leads(Y, X)).

        employee(ann). department(sales). leads(ann, sales).
        ",
    )
    .expect("the schema is well-formed");
    for d in report.lint_diagnostics() {
        println!("  {d}");
    }

    // 2. The precomputed artifacts: per-constraint predicate closures —
    //    what commits must intersect to invalidate cached verdicts.
    println!("\n== constraint closures ==\n");
    for (i, c) in report.constraints().iter().enumerate() {
        let mut preds: Vec<&str> = report.closure_of(i).iter().map(|p| p.as_str()).collect();
        preds.sort_unstable();
        println!("  {}: {}", c.name, preds.join(", "));
    }
    println!("  set classifies as: {}", report.set_class());

    // 3. The database consults the same analysis when the schema changes:
    //    an unsatisfiable candidate set is refused with UA0301 — no
    //    database state could ever satisfy it, so no repair is offered.
    println!("\n== guarded schema change ==\n");
    let db = ConcurrentDatabase::parse(
        "
        constraint some_dept: exists X: department(X).
        constraint led: forall X: department(X) -> (exists Y: leads(Y, X)).
        department(sales). leads(ann, sales).
        ",
    )
    .expect("initially consistent");
    match db.try_add_constraint("no_leads", "forall X, Y: leads(X, Y) -> false") {
        Err(UniformError::Analyze(e)) => {
            let code = e.primary().map(|d| d.code.as_str()).unwrap_or("?");
            println!("  no_leads rejected [{code}]: {e}");
        }
        other => panic!("expected a static refusal, got {other:?}"),
    }

    // A satisfiable-but-violated constraint takes the other path: the
    // engine proposes the repair instead of refusing the schema.
    match db.try_add_constraint("audited", "forall X: department(X) -> audited(X)") {
        Err(UniformError::CurrentlyViolated { constraint, repair }) => {
            println!("  {constraint} is violated right now; suggested repair: {repair:?}");
        }
        other => panic!("expected CurrentlyViolated, got {other:?}"),
    }
}
