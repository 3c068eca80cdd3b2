//! Cross-crate integration tests for the deductive-database substrate:
//! parsing, stratified evaluation, the overlay engine and formula
//! evaluation working together through the public API.

use uniform::datalog::{
    satisfies_closed, Database, FactSet, Interp, Model, OverlayEngine, RuleSet, Update,
};
use uniform::logic::{normalize, parse_fact, parse_formula, parse_rule, Fact, Rule};

fn fact(src: &str) -> Fact {
    parse_fact(src).unwrap()
}

#[test]
fn ancestor_database_end_to_end() {
    let db = Database::parse(
        "
        parent(adam, beth). parent(beth, carl). parent(carl, dina).
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
        constraint no_self_ancestor: forall X: ancestor(X, X) -> false.
        ",
    )
    .unwrap();
    assert!(db.is_consistent());
    assert!(db.holds(&fact("ancestor(adam, dina).")));
    assert!(!db.holds(&fact("ancestor(dina, adam).")));
    // 3 parent + 6 ancestor facts.
    assert_eq!(db.model().len(), 9);
}

#[test]
fn four_strata_program() {
    let db = Database::parse(
        "
        item(a). item(b). item(c).
        broken(a).
        usable(X) :- item(X), not broken(X).
        missing_spares(X) :- broken(X), not spare(X).
        sellable(X) :- usable(X), not reserved(X).
        reserved(b).
        ",
    )
    .unwrap();
    assert!(db.holds(&fact("usable(b).")));
    assert!(db.holds(&fact("usable(c).")));
    assert!(!db.holds(&fact("usable(a).")));
    assert!(db.holds(&fact("missing_spares(a).")));
    assert!(db.holds(&fact("sellable(c).")));
    assert!(!db.holds(&fact("sellable(b).")), "b is reserved");
}

#[test]
fn overlay_engine_simulates_before_commit() {
    let db = Database::parse(
        "
        edge(a, b). edge(b, c).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        ",
    )
    .unwrap();
    // Simulate inserting edge(c,a): tc becomes cyclic in the simulation…
    let model = Model::compute(db.facts(), db.rules());
    let engine = OverlayEngine::over_model(
        &model,
        db.facts(),
        db.rules(),
        vec![fact("edge(c, a).")],
        vec![],
    );
    assert!(engine.holds(&fact("tc(a, a).")));
    // …but the database itself is untouched.
    assert!(!db.holds(&fact("tc(a, a).")));
}

#[test]
fn formula_evaluation_against_models() {
    let edb = FactSet::from_facts([
        fact("account(acme, 100)."),
        fact("account(zeta, 0)."),
        fact("flagged(zeta)."),
    ]);
    let rules = RuleSet::new(vec![parse_rule("dormant(X) :- account(X, 0).").unwrap()]).unwrap();
    let model = Model::compute(&edb, &rules);
    let ok = normalize(&parse_formula("forall X: dormant(X) -> flagged(X)").unwrap()).unwrap();
    assert!(satisfies_closed(&model, &ok));
    let bad =
        normalize(&parse_formula("forall X: flagged(X) -> account(X, 100)").unwrap()).unwrap();
    assert!(!satisfies_closed(&model, &bad));
}

#[test]
fn update_round_trip_preserves_model_cache_coherence() {
    let mut db = Database::parse(
        "
        p(a).
        q(X) :- p(X).
        ",
    )
    .unwrap();
    assert!(db.holds(&fact("q(a).")));
    db.apply(&Update::insert(fact("p(b)."))).unwrap();
    assert!(db.holds(&fact("q(b).")));
    db.apply(&Update::delete(fact("p(b)."))).unwrap();
    assert!(!db.holds(&fact("q(b).")));
    assert!(db.holds(&fact("q(a).")));
}

#[test]
fn large_chain_materializes_quickly() {
    // 2000-node chain: linear tc is 2000×~… too big; use reach from a
    // source only.
    let mut src = String::from("reach(n0).\n");
    src.push_str("reach(Y) :- reach(X), edge(X, Y).\n");
    for i in 0..2000 {
        src.push_str(&format!("edge(n{i}, n{}).\n", i + 1));
    }
    let db = Database::parse(&src).unwrap();
    assert!(db.holds(&fact("reach(n2000).")));
    assert_eq!(db.model().len(), 2000 /* edges */ + 2001 /* reach */);
}

#[test]
fn rules_singleton() {
    // A rule whose head predicate also has explicit facts, queried
    // through every path.
    let db = Database::parse(
        "
        member(bob, hr).
        leads(ann, sales).
        member(X, Y) :- leads(X, Y).
        ",
    )
    .unwrap();
    let model = Model::compute(db.facts(), db.rules());
    let engine = OverlayEngine::over_model(&model, db.facts(), db.rules(), vec![], vec![]);
    assert!(engine.holds(&fact("member(bob, hr).")));
    assert!(engine.holds(&fact("member(ann, sales).")));
    let rule: &Rule = &db.rules().rules()[0];
    assert_eq!(rule.head.pred.as_str(), "member");
}
