//! Integration tests for integrity maintenance across the whole stack:
//! the two-phase checker against realistic workloads, agreement of all
//! four methods, and the façade's guarded updates.

use uniform::datalog::{Transaction, Update};
use uniform::integrity::{verdicts_agree, Checker};
use uniform::logic::parse_literal;
use uniform::ConcurrentDatabase;
use uniform_workload as workload;

fn upd(src: &str) -> Update {
    Update::from_literal(&parse_literal(src).unwrap()).unwrap()
}

#[test]
fn university_workload_good_and_bad_transactions() {
    let db = workload::university(100, 0);
    let checker = Checker::new(&db);
    assert!(checker.check(&workload::university_good_tx(1)).satisfied);
    let rep = checker.check(&workload::university_bad_tx(1));
    assert!(!rep.satisfied);
    assert!(rep.violations.iter().any(|v| v.constraint == "cdb"));
}

#[test]
fn methods_agree_on_org_update_stream() {
    let db = workload::org(4, 3, 0);
    for u in workload::org_updates(4, 3, 30, 0xBEEF) {
        let tx = Transaction::single(u);
        verdicts_agree(&db, &tx).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn methods_agree_on_tc_updates() {
    let db = workload::tc_chain(12, 0);
    for u in workload::tc_updates(12, 20, 99) {
        let tx = Transaction::single(u);
        verdicts_agree(&db, &tx).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn recursive_cycle_detection_via_constraints() {
    let db = workload::tc_chain(50, 0);
    let checker = Checker::new(&db);
    // Forward edge: fine. Back edge: closes a cycle.
    assert!(checker.check_update(&upd("edge(n10, n30)")).satisfied);
    assert!(!checker.check_update(&upd("edge(n30, n10)")).satisfied);
    assert!(!checker.check_update(&upd("edge(n49, n0)")).satisfied);
    // Self loop.
    assert!(!checker.check_update(&upd("edge(n5, n5)")).satisfied);
}

#[test]
fn compiled_checks_are_reusable_across_states() {
    // Phase 1 output depends only on rules and constraints: reuse one
    // compiled check against many database states.
    let mut db = workload::university(10, 0);
    let checker = Checker::new(&db);
    let compiled = checker.compile(&[parse_literal("student(probe)").unwrap()]);
    let rejected = checker.evaluate(&compiled, &Transaction::single(upd("student(probe)")));
    assert!(!rejected.satisfied, "new student lacks a course");
    // Give probe a course and attendance; the same compiled object now
    // accepts the insertion.
    db.apply(&upd("enrolled(probe, math)")).unwrap();
    let checker2 = Checker::new(&db);
    let accepted = checker2.evaluate(&compiled, &Transaction::single(upd("student(probe)")));
    assert!(accepted.satisfied, "{:?}", accepted.violations);
}

#[test]
fn facade_applies_only_consistent_transactions() {
    let db = ConcurrentDatabase::parse(
        "
        stock(widget, 5).
        constraint positive: forall I, N: stock(I, N) -> known_quantity(N).
        known_quantity(0). known_quantity(5). known_quantity(10).
        ",
    )
    .unwrap();
    assert!(db.try_insert("stock(gadget, 10).").is_ok());
    assert!(
        db.try_insert("stock(gizmo, 7).").is_err(),
        "7 is not a known quantity"
    );
    let facts: Vec<String> = db
        .snapshot()
        .facts()
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert!(!facts.iter().any(|f| f.contains("gizmo")));
}

#[test]
fn deep_induced_chain_is_tracked() {
    // A 6-deep derivation chain: the violation surfaces at the end.
    let db = uniform::Database::parse(
        "
        l1(X) :- l0(X).
        l2(X) :- l1(X).
        l3(X) :- l2(X).
        l4(X) :- l3(X).
        l5(X) :- l4(X).
        constraint top: forall X: l5(X) -> blessed(X).
        blessed(ok).
        l0(ok).
        ",
    )
    .unwrap();
    assert!(db.is_consistent());
    let checker = Checker::new(&db);
    let rep = checker.check_update(&upd("l0(bad)"));
    assert!(!rep.satisfied);
    assert_eq!(
        rep.violations[0].culprit.as_ref().unwrap().to_string(),
        "l5(bad)",
        "the culprit is the induced update at the end of the chain"
    );
    assert!(checker.check_update(&upd("l0(ok)")).satisfied);
}

#[test]
fn mixed_polarity_cascades() {
    // Deletion propagating through negation: removing a guard *adds* a
    // derived fact which violates a constraint.
    let db = uniform::Database::parse(
        "
        emp(a). guard(a).
        exposed(X) :- emp(X), not guard(X).
        constraint safe: forall X: exposed(X) -> false.
        ",
    )
    .unwrap();
    assert!(db.is_consistent());
    let checker = Checker::new(&db);
    let rep = checker.check_update(&upd("not guard(a)"));
    assert!(!rep.satisfied);
    assert_eq!(
        rep.violations[0].culprit.as_ref().unwrap().to_string(),
        "exposed(a)"
    );
    // And insertion of a guard for a new exposed employee, in one tx.
    let tx = Transaction::new(vec![upd("emp(b)"), upd("guard(b)")]);
    assert!(checker.check(&tx).satisfied);
    assert!(!checker.check_update(&upd("emp(b)")).satisfied);
}

#[test]
fn scaling_sanity_two_phase_faster_than_full_on_big_relations() {
    // Not a benchmark — just a sanity assertion that the asymmetry of
    // §3 (simplified instances vs. a full re-check) exists at moderate
    // scale.
    let db = workload::university(2000, 0);
    let checker = Checker::new(&db);
    db.model(); // warm the shared current-state materialization
    let tx = workload::university_good_tx(7);

    let t0 = std::time::Instant::now();
    for _ in 0..5 {
        assert!(checker.check(&tx).satisfied);
    }
    let two_phase = t0.elapsed();

    let t0 = std::time::Instant::now();
    for _ in 0..5 {
        assert!(uniform::integrity::full_recheck(&db, &tx).satisfied);
    }
    let full = t0.elapsed();
    assert!(
        two_phase < full,
        "two-phase ({two_phase:?}) should beat full re-check ({full:?}) at n=2000"
    );
}
