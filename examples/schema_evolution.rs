//! Schema evolution: constraint and rule updates, guarded the paper's way.
//!
//! ```sh
//! cargo run --example schema_evolution
//! ```
//!
//! The second half of the paper (§4) exists for exactly this workflow:
//! constraints and rules change over a system's life, and three distinct
//! failure modes must be told apart —
//!
//! 1. the new schema is **unsatisfiable** (no database state could ever
//!    satisfy it): reject outright, no facts can fix it;
//! 2. the new constraint is satisfiable but **violated right now**:
//!    reject, and *suggest the repair* the model-generation search found;
//! 3. a new or removed **rule** changes derived facts so that existing
//!    constraints break: checked *incrementally* — rule updates act like
//!    conditional updates (§3.2), so only constraints relevant to what
//!    the rule can derive are evaluated.

use uniform::integrity::{check_rule_update, RuleUpdate};
use uniform::logic::parse_rule;
use uniform::{ConcurrentDatabase, Database, UniformError};

fn main() {
    let db = ConcurrentDatabase::parse(
        "
        member(X, Y) :- leads(X, Y).

        constraint led:        forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
        constraint emp_member: forall X: employee(X) -> (exists Y: member(X, Y)).

        employee(ann).   department(sales).  leads(ann, sales).
        employee(bob).   department(dev).    leads(bob, dev).
        ",
    )
    .expect("initially consistent");

    println!("== adding constraints ==\n");

    // Accepted: satisfiable and already satisfied.
    let dom = "forall X, Y: leads(X, Y) -> employee(X)";
    match db.try_add_constraint("leader_dom", dom) {
        Ok(_) => println!("add leader_dom: `{dom}`\n  -> accepted\n"),
        Err(e) => println!("add leader_dom -> {e}\n"),
    }

    // Violated now, but satisfiable: the error carries the smallest
    // minimal repair of the would-be state (the RepairEngine's, so it
    // never disagrees with `minimal_repairs`).
    let audited = "forall X, Y: leads(X, Y) -> audited(X)";
    match db.try_add_constraint("audited_leads", audited) {
        Err(UniformError::CurrentlyViolated { constraint, repair }) => {
            println!("add {constraint}: `{audited}`\n  -> violated by the current state");
            if let Some(repair) = &repair {
                println!("  -> suggested repair: {repair}");
                // Take the suggestion, then retry.
                for op in repair.ops() {
                    if op.insert {
                        db.try_insert(&op.fact.to_string())
                            .expect("repair insertions are safe");
                    } else {
                        db.try_delete(&op.fact.to_string())
                            .expect("repair deletions are safe");
                    }
                }
                db.try_add_constraint("audited_leads", audited)
                    .expect("accepted after repair");
                println!("  -> applied repair; constraint accepted\n");
            }
        }
        other => println!("unexpected: {other:?}\n"),
    }

    // Unsatisfiable with what is already there: once some department
    // must exist, `led` forces a leader — forbidding leaders leaves no
    // model at all. The satisfiability check (§4) fires before any fact
    // is consulted; no update could ever repair this.
    db.try_add_constraint("some_dept", "exists X: department(X)")
        .expect("satisfied: sales exists");
    let nobody = "forall X, Y: leads(X, Y) -> false";
    match db.try_add_constraint("nobody_leads", nobody) {
        Err(UniformError::Analyze(e)) => {
            println!("add nobody_leads: `{nobody}`\n  -> rejected [{}]: unsatisfiable with `led` + `some_dept`; no repair can exist\n",
                e.primary().map(|d| d.code.as_str()).unwrap_or("?"))
        }
        other => println!("unexpected: {other:?}\n"),
    }

    println!("== rule updates, checked incrementally ==\n");

    // A benign derived predicate.
    match db.try_add_rule("boss(X) :- leads(X, Y).") {
        Ok(_) => println!("add rule boss/1      -> accepted (no constraint mentions boss)"),
        Err(e) => println!("add rule boss/1      -> {e}"),
    }

    // A rule whose derivations violate a constraint. With `some_dept`
    // and `led` in scope every model must contain a leading employee,
    // so the rule makes the *schema* unsatisfiable under `no_self_sub`
    // and the §4 guard fires before any fact is consulted; without
    // those constraints the incremental state check would reject it
    // with the culprit derivation instead. Both guards are shown.
    db.try_add_constraint("no_self_sub", "forall X: subordinate(X, X) -> false")
        .expect("satisfiable and satisfied");
    match db.try_add_rule("subordinate(X, X) :- employee(X).") {
        Err(UniformError::Analyze(_)) => println!(
            "add rule subordinate -> rejected by the satisfiability guard: every model of \
             `some_dept` + `led` contains a leading employee, whom the rule would make their \
             own subordinate — no database state could satisfy the schema"
        ),
        Err(UniformError::UpdateRejected(report)) => {
            let v = &report.violations[0];
            println!(
                "add rule subordinate -> rejected: {} (culprit {}; {} instance(s) evaluated, not the whole constraint set)",
                v.constraint,
                v.culprit.as_ref().map(|c| c.to_string()).unwrap_or_default(),
                report.stats.instances_evaluated,
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    // Removing a load-bearing rule: ann and bob are members only through
    // the rule; dropping it would violate emp_member.
    match db.try_remove_rule("member(X, Y) :- leads(X, Y).") {
        Err(UniformError::UpdateRejected(report)) => println!(
            "remove rule member   -> rejected: {} (via {})",
            report.violations[0].constraint,
            report.violations[0]
                .culprit
                .as_ref()
                .map(|c| c.to_string())
                .unwrap_or_default(),
        ),
        other => println!("unexpected: {other:?}"),
    }

    // Materialize the memberships, then removal goes through.
    db.try_update_all(&["member(ann, sales)", "member(bob, dev)"])
        .expect("explicit members are fine");
    match db.try_remove_rule("member(X, Y) :- leads(X, Y).") {
        Ok(true) => println!("remove rule member   -> accepted once memberships are explicit"),
        other => println!("unexpected: {other:?}"),
    }

    println!("\n== what the incremental check saves ==\n");

    // Compare the work of the incremental rule-update check against the
    // full re-check a naive system performs, on a database where only
    // one of many constraints is relevant to the rule.
    let big = Database::parse(
        "
        constraint c_loud: forall X: loud(X) -> warned(X).
        constraint c_a: forall X: pa(X) -> qa(X).
        constraint c_b: forall X: pb(X) -> qb(X).
        constraint c_c: forall X: pc(X) -> qc(X).
        constraint c_d: forall X: pd(X) -> qd(X).
        speaker(s1). speaker(s2). warned(s1). warned(s2).
        ",
    )
    .unwrap();
    let update = RuleUpdate::Add(parse_rule("loud(X) :- speaker(X).").unwrap());
    let report = check_rule_update(&big, &update).unwrap();
    println!(
        "incremental: {} of 5 constraints compiled into update constraints, {} instance(s) evaluated -> {}",
        report.stats.update_constraints,
        report.stats.instances_evaluated,
        if report.satisfied { "accepted" } else { "rejected" },
    );
    println!("full re-check would evaluate all 5 constraints over the whole state.");
}
