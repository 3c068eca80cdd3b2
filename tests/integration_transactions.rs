//! Transaction semantics end to end: Def. 1 edge cases, net-effect
//! cancellation, atomicity of the guarded path, and interaction with
//! derived predicates.

use uniform::datalog::{CommitQueue, Transaction, Update};
use uniform::integrity::Checker;
use uniform::logic::parse_literal;
use uniform::ConcurrentDatabase;
use uniform_workload as workload;

fn upd(src: &str) -> Update {
    Update::from_literal(&parse_literal(src).unwrap()).unwrap()
}

#[test]
fn swap_requires_transaction() {
    // Swapping the leader of a department: neither single step is legal,
    // the transaction is.
    let db = ConcurrentDatabase::parse(
        "
        member(X, Y) :- leads(X, Y).
        constraint led: forall X: department(X) -> (exists Y: leads(Y, X)).
        constraint one_lead: forall X, Y, Z: leads(X, Z) & leads(Y, Z) -> same(X, Y).
        same(ann, ann). same(bob, bob).
        department(sales).
        leads(ann, sales).
        ",
    )
    .unwrap();
    assert!(
        db.try_delete("leads(ann, sales).").is_err(),
        "sales would be unled"
    );
    assert!(db.try_insert("leads(bob, sales).").is_err(), "two leaders");
    db.try_update_all(&["not leads(ann, sales)", "leads(bob, sales)"])
        .unwrap();
    assert!(db.query("member(bob, sales)").unwrap());
    assert!(!db.query("member(ann, sales)").unwrap());
}

#[test]
fn cancelling_transaction_is_noop() {
    let db = workload::university(20, 0);
    let checker = Checker::new(&db);
    let tx = Transaction::new(vec![
        upd("student(ghost)"),
        upd("enrolled(ghost, cs)"),
        upd("not enrolled(ghost, cs)"),
        upd("not student(ghost)"),
    ]);
    let rep = checker.check(&tx);
    assert!(rep.satisfied);
    assert_eq!(rep.stats.instances_evaluated, 0, "net effect is empty");
}

#[test]
fn last_write_wins_inside_transaction() {
    let db = ConcurrentDatabase::parse("constraint c: forall X: p(X) -> q(X). q(a).").unwrap();
    // insert p(b) (bad), then delete it again, then insert p(a) (fine).
    let tx = Transaction::new(vec![upd("p(b)"), upd("not p(b)"), upd("p(a)")]);
    let rep = db.check(&tx);
    assert!(rep.satisfied, "{:?}", rep.violations);
}

#[test]
fn transaction_atomicity_on_rejection() {
    let db = ConcurrentDatabase::parse("constraint c: forall X: p(X) -> q(X). q(a).").unwrap();
    let before: Vec<String> = db
        .snapshot()
        .facts()
        .iter()
        .map(|f| f.to_string())
        .collect();
    let err = db.try_update_all(&["p(a)", "p(b)"]).unwrap_err();
    assert!(err.to_string().contains('c'));
    let after: Vec<String> = db
        .snapshot()
        .facts()
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert_eq!(
        before, after,
        "rejected transaction must not change the database"
    );
}

#[test]
fn mixed_insert_delete_with_derived_effects() {
    let db = uniform::Database::parse(
        "
        present(X) :- emp(X), not away(X).
        constraint coverage: exists X: present(X).
        emp(a). emp(b). away(b).
        ",
    )
    .unwrap();
    assert!(db.is_consistent());
    let checker = Checker::new(&db);
    // Sending a away while bringing b back keeps coverage.
    let ok = Transaction::new(vec![upd("away(a)"), upd("not away(b)")]);
    assert!(checker.check(&ok).satisfied);
    // Sending a away alone empties the office.
    let bad = Transaction::single(upd("away(a)"));
    assert!(!checker.check(&bad).satisfied);
}

#[test]
fn bulk_transaction_scales() {
    let db = workload::university(200, 0);
    let checker = Checker::new(&db);
    // 50 new students, all correctly enrolled and attending.
    let mut updates = Vec::new();
    for i in 0..50 {
        updates.push(upd(&format!("student(bulk{i})")));
        updates.push(upd(&format!("enrolled(bulk{i}, cs)")));
        updates.push(upd(&format!("attends(bulk{i}, ddb)")));
    }
    let rep = checker.check(&Transaction::new(updates));
    assert!(rep.satisfied, "{:?}", rep.violations.first());

    // Same bulk, one attendance missing: rejected with the right culprit.
    let mut updates = Vec::new();
    for i in 0..50 {
        updates.push(upd(&format!("student(bulk{i})")));
        updates.push(upd(&format!("enrolled(bulk{i}, cs)")));
        if i != 31 {
            updates.push(upd(&format!("attends(bulk{i}, ddb)")));
        }
    }
    let rep = checker.check(&Transaction::new(updates));
    assert!(!rep.satisfied);
    assert!(rep.violations.iter().all(|v| v
        .culprit
        .as_ref()
        .unwrap()
        .to_string()
        .contains("bulk31")));
}

#[test]
fn facade_transaction_report_statistics() {
    let db = ConcurrentDatabase::parse(
        "
        member(X, Y) :- leads(X, Y).
        constraint dom: forall X, Y: member(X, Y) -> department(Y).
        department(sales).
        ",
    )
    .unwrap();
    let report = db.try_update_all(&["leads(ann, sales)"]).unwrap().report;
    assert!(
        report.stats.potential_updates >= 2,
        "leads + derived member patterns"
    );
    assert!(report.satisfied);
}

/// How many pages a flat commit copies, as an exact count. With a
/// snapshot pinned by `begin()` (as every guarded commit holds one), an
/// accepted three-relation insert unshares each written relation's tail
/// page once, in the database's explicit facts. Nothing else is
/// written: no rule defines the three relations, so the advanced model
/// takes the database's relations themselves, and there is no second
/// copy of the explicit facts to keep in step.
#[test]
fn flat_commits_copy_one_page_per_written_relation() {
    let queue = CommitQueue::new(workload::university(3_000, 1));
    let pages = || queue.with_db(|db| db.facts().cow_stats().pages_cloned);
    let mut cloned = Vec::new();
    for k in 0..5 {
        let mut txn = queue.begin();
        for u in workload::university_good_tx(k).updates {
            txn.stage(u);
        }
        let before = pages();
        queue
            .commit_checked(&txn)
            .expect("one writer never conflicts");
        cloned.push(pages() - before);
    }
    assert_eq!(cloned, [3, 3, 3, 3, 3]);
}
