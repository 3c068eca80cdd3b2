//! Conditional (bulk) updates — §3.2's closing generalization.
//!
//! ```sh
//! cargo run --example bulk_updates
//! ```
//!
//! A registrar's database: students enroll in courses; failing the exam
//! of a course voids its prerequisites downstream. End-of-term
//! housekeeping is naturally expressed as *conditional updates* — one
//! update pattern plus a query that says where it applies — instead of
//! hand-written loops. Each conditional update is compiled to update
//! constraints **once**, from its pattern alone (no fact access), and
//! then checked against the expansion the way any transaction is.

use uniform::integrity::{Checker, ConditionalUpdate};
use uniform::{ConcurrentDatabase, Database};

fn main() {
    let db = ConcurrentDatabase::parse(
        "
        % Derived: a student in good standing attends and has not failed.
        standing(S) :- enrolled(S, C), not failed(S).

        % Constraints.
        constraint enrolled_students: forall S, C: enrolled(S, C) -> student(S).
        constraint honored_standing:  forall S: honors(S) -> standing(S).
        constraint no_failed_honors:  forall S: honors(S) & failed(S) -> false.

        % Term data.
        student(ada).    enrolled(ada, databases).  enrolled(ada, logic).
        student(berta).  enrolled(berta, databases).
        student(carl).   enrolled(carl, logic).     failed(carl).
        ",
    )
    .expect("well-formed and consistent");

    println!("== end-of-term housekeeping with conditional updates ==\n");

    // 1. Award honors to every student in good standing.
    let award = "honors(S) where student(S), standing(S)";
    match db.try_apply_where(award) {
        Ok(outcome) => println!(
            "apply `{award}`\n  -> ok ({} instances evaluated, {} shared)\n",
            outcome.report.stats.instances_evaluated, outcome.report.stats.instances_shared
        ),
        Err(e) => println!("apply `{award}`\n  -> rejected: {e}\n"),
    }
    println!("honors(ada)?   {}", db.query("honors(ada)").unwrap());
    println!("honors(carl)?  {}\n", db.query("honors(carl)").unwrap());

    // 2. A careless bulk award — every *student* — would honor carl, who
    //    failed. The guard rejects the whole expansion atomically.
    let careless = "honors(S) where student(S)";
    match db.try_apply_where(careless) {
        Ok(_) => unreachable!("must be rejected"),
        Err(e) => println!("apply `{careless}`\n  -> rejected: {e}\n"),
    }

    // 3. Unenroll failed students from everything they took.
    let unenroll = "not enrolled(S, C) where enrolled(S, C), failed(S)";
    match db.try_apply_where(unenroll) {
        Ok(_) => println!("apply `{unenroll}`\n  -> ok\n"),
        Err(e) => println!("apply `{unenroll}`\n  -> rejected: {e}\n"),
    }
    println!(
        "carl still enrolled somewhere?  {}",
        db.query("exists C: enrolled(carl, C)").unwrap()
    );

    // 4. The compile-once property: the same conditional shape, compiled
    //    against an empty database, evaluates correctly on any state.
    println!("\n== compile once, evaluate anywhere ==\n");
    let schema_only = Database::parse(
        "
        constraint no_failed_honors: forall S: honors(S) & failed(S) -> false.
        ",
    )
    .unwrap();
    let checker = Checker::new(&schema_only);
    let cu = ConditionalUpdate::parse("honors(S) where student(S)").unwrap();
    let compiled = checker.compile_conditional(&cu);
    println!(
        "compiled `{cu}` fact-free: {} potential update(s), {} update constraint(s)",
        compiled.potential.len(),
        compiled.update_constraints.len()
    );

    for facts in ["student(x).", "student(x). failed(x)."] {
        let mut src = String::from(
            "constraint no_failed_honors: forall S: honors(S) & failed(S) -> false.\n",
        );
        src.push_str(facts);
        let state = Database::parse(&src).unwrap();
        let checker = Checker::new(&state);
        let tx = checker.expand_conditional(&cu);
        let report = checker.evaluate(&compiled, &tx);
        println!(
            "  on state {{{facts}}} -> {}",
            if report.satisfied {
                "accepted"
            } else {
                "rejected"
            }
        );
    }
}
