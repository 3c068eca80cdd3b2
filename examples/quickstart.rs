//! Quickstart: a guarded deductive database in ten minutes.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Shows the two halves of the uniform approach on a tiny personnel
//! database: updates checked with the integrity-maintenance method, and
//! schema changes checked with the finite-satisfiability method — plus
//! the typed read path: prepared queries executed through a session.

use uniform::{ConcurrentDatabase, Consistency, Params, PreparedQuery};

fn main() {
    let db = ConcurrentDatabase::parse(
        "
        % Deduction rule: whoever leads a department is a member of it.
        member(X, Y) :- leads(X, Y).

        % Integrity constraints.
        constraint led:        forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
        constraint emp_member: forall X: employee(X) -> (exists Y: member(X, Y)).
        constraint member_dom: forall X, Y: member(X, Y) -> department(Y).

        % Initial facts.
        employee(ann).
        department(sales).
        leads(ann, sales).
        ",
    )
    .expect("program is well-formed and initially consistent");

    println!("== queries: prepare once, execute many ==");
    // Parse + plan happen here, once; `execute` only evaluates. The
    // `D` variable is a named parameter bound per call.
    let members = PreparedQuery::prepare_with_params("member(X, D)", &["D"]).unwrap();
    let led = PreparedQuery::prepare_formula("exists X: member(ann, X)").unwrap();
    let session = db.session(); // pins a snapshot of the current state
    let rows = session
        .execute(
            &members,
            &Params::new().bind("D", "sales"),
            Consistency::Latest,
        )
        .unwrap();
    println!("member(X, sales)?              {rows}");
    println!(
        "exists X: member(ann, X)?      {}",
        session
            .execute(&led, &Params::new(), Consistency::Latest)
            .unwrap()
            .is_true()
    );

    println!("\n== guarded updates ==");
    // Inserting a dangling department violates `led`.
    match db.try_insert("department(hr).") {
        Ok(_) => unreachable!(),
        Err(e) => println!("insert department(hr)          -> {e}"),
    }
    // The same change as a transaction with a leader is fine.
    let report = db
        .try_update_all(&["department(hr)", "employee(bob)", "leads(bob, hr)"])
        .expect("transaction preserves integrity")
        .report;
    println!(
        "tx {{department(hr), employee(bob), leads(bob, hr)}} accepted \
         ({} instances evaluated, {} potential updates)",
        report.stats.instances_evaluated, report.stats.potential_updates
    );
    // Sessions pin their snapshot; a fresh one sees the commit —
    // through the same prepared plan.
    println!(
        "member(X, hr)? (new session)   {}",
        db.session()
            .execute(
                &members,
                &Params::new().bind("D", "hr"),
                Consistency::Latest
            )
            .unwrap()
    );

    // Deleting ann's leadership would leave sales unled.
    match db.try_delete("leads(ann, sales).") {
        Ok(_) => unreachable!(),
        Err(e) => println!("delete leads(ann, sales)       -> {e}"),
    }

    println!("\n== guarded schema changes ==");
    // A constraint that is satisfiable but currently violated: the error
    // suggests a repair (computed by the model-generation search seeded
    // with the current facts).
    match db.try_add_constraint("audited", "forall X, Y: leads(X, Y) -> audited(X)") {
        Ok(_) => unreachable!(),
        Err(e) => println!("add `audited`                  -> {e}"),
    }

    // Apply the repair and retry.
    db.try_update_all(&["audited(ann)", "audited(bob)"])
        .unwrap();
    db.try_add_constraint("audited", "forall X, Y: leads(X, Y) -> audited(X)")
        .unwrap();
    println!("add `audited` after repair     -> accepted");

    // A constraint making the whole schema unsatisfiable is rejected
    // outright, no matter the facts.
    db.try_add_constraint("some_dept", "exists X: department(X)")
        .unwrap();
    match db.try_add_constraint("nobody", "forall X, Y: leads(X, Y) -> false") {
        Ok(_) => unreachable!(),
        Err(e) => println!("add `nobody`                   -> {e}"),
    }

    println!("\n== final state ==");
    let mut facts: Vec<String> = db
        .snapshot()
        .facts()
        .iter()
        .map(|f| f.to_string())
        .collect();
    facts.sort();
    println!("{}", facts.join("\n"));
}
