//! Integration tests for the satisfiability checker: the problem suite
//! through the public API, model verification, option interplay, and the
//! uniform façade's schema guards.

use uniform::datalog::{FactSet, Model, RuleSet};
use uniform::logic::Fact;
use uniform::satisfiability::problems;
use uniform::{ConcurrentDatabase, SatChecker, SatOptions, SatOutcome};

/// Any model returned by the checker must actually satisfy every
/// constraint — verified independently through the datalog evaluator.
#[test]
fn returned_models_verify_against_constraints() {
    for p in problems::suite() {
        if p.expected != problems::Expectation::Satisfiable {
            continue;
        }
        let checker = p.checker();
        let report = checker.check();
        let SatOutcome::Satisfiable { explicit, .. } = &report.outcome else {
            panic!("{} expected satisfiable, got {:?}", p.name, report.outcome);
        };
        let edb = FactSet::from_facts(explicit.iter().cloned());
        let rules = RuleSet::new(p.rules.clone()).unwrap();
        let model = Model::compute(&edb, &rules);
        for c in checker.constraints() {
            assert!(
                uniform::datalog::satisfies_closed(&model, &c.rq),
                "{}: witness model violates {}",
                p.name,
                c.name
            );
        }
    }
}

#[test]
fn unsat_verdicts_stable_across_option_profiles() {
    let profiles: Vec<(&str, SatOptions)> = vec![
        ("default", SatOptions::default()),
        ("paper", SatOptions::paper()),
        (
            "non-incremental",
            SatOptions {
                incremental_checking: false,
                ..SatOptions::default()
            },
        ),
        (
            "no-deepening",
            SatOptions {
                iterative_deepening: false,
                ..SatOptions::default()
            },
        ),
    ];
    for p in problems::suite() {
        if p.expected != problems::Expectation::Unsatisfiable {
            continue;
        }
        for (name, opts) in &profiles {
            let report = p.checker_with(opts.clone()).check();
            assert_eq!(
                report.outcome,
                SatOutcome::Unsatisfiable,
                "{} under profile {name}",
                p.name
            );
        }
    }
}

#[test]
fn sat_problems_found_by_every_complete_profile() {
    // tableaux() is deliberately incomplete; every other profile must
    // find the finite models.
    let profiles: Vec<(&str, SatOptions)> = vec![
        ("default", SatOptions::default()),
        (
            "non-incremental",
            SatOptions {
                incremental_checking: false,
                ..SatOptions::default()
            },
        ),
    ];
    for p in problems::suite() {
        if p.expected != problems::Expectation::Satisfiable {
            continue;
        }
        for (name, opts) in &profiles {
            let report = p.checker_with(opts.clone()).check();
            assert!(
                report.outcome.is_satisfiable(),
                "{} under profile {name}: {:?}",
                p.name,
                report.outcome
            );
        }
    }
}

#[test]
fn budget_zero_handles_propositional_problems() {
    // Propositional problems need no fresh constants at all.
    for p in problems::pelletier_propositional() {
        let report = p
            .checker_with(SatOptions {
                max_fresh_constants: 0,
                ..SatOptions::default()
            })
            .check();
        assert_eq!(report.outcome, SatOutcome::Unsatisfiable, "{}", p.name);
    }
}

#[test]
fn seeded_search_respects_existing_facts() {
    let rules = RuleSet::empty();
    let constraints = vec![uniform::Constraint::new(
        "cover",
        uniform::logic::normalize(
            &uniform::logic::parse_formula("forall X: item(X) -> boxed(X)").unwrap(),
        )
        .unwrap(),
    )];
    let report = SatChecker::new(rules, constraints)
        .with_seed(vec![
            Fact::parse_like("item", &["i1"]),
            Fact::parse_like("item", &["i2"]),
        ])
        .check();
    match report.outcome {
        SatOutcome::Satisfiable { model, .. } => {
            assert!(model.contains(&Fact::parse_like("boxed", &["i1"])));
            assert!(model.contains(&Fact::parse_like("boxed", &["i2"])));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn facade_schema_guard_detects_incompatibility_added_in_any_order() {
    // Regardless of insertion order, the third constraint clashes.
    let schema = [
        ("a", "exists X: resource(X)"),
        (
            "b",
            "forall X: resource(X) -> (exists Y: owner(Y) & owns(Y, X))",
        ),
        ("c", "forall X, Y: owns(X, Y) -> false"),
    ];
    for rotation in 0..3 {
        let db = ConcurrentDatabase::parse("").unwrap();
        let mut rejected = false;
        for k in 0..3 {
            let (name, f) = schema[(rotation + k) % 3];
            match db.try_add_constraint(name, f) {
                Ok(_) => {}
                Err(e) => {
                    rejected = true;
                    let msg = e.to_string();
                    assert!(
                        msg.contains("unsatisfiable") || msg.contains("violated"),
                        "unexpected error: {msg}"
                    );
                    break;
                }
            }
        }
        assert!(
            rejected,
            "rotation {rotation} accepted an unsatisfiable trio"
        );
    }
}

#[test]
fn stats_reflect_the_search_shape() {
    let report = problems::paper_example().checker().check();
    assert!(report.stats.attempts >= 2, "needs deepening past budget 0");
    assert!(report.stats.undo_events > 0, "the §5 search backtracks");
    assert!(report.stats.max_level >= 3, "the §5 trace reaches level 3+");
    assert!(report.stats.incremental_checks > 0);
}

#[test]
fn completion_constraints_visible_through_checker() {
    let db = uniform::Database::parse(
        "
        visible(X) :- page(X), not hidden(X).
        constraint some: exists X: page(X).
        ",
    )
    .unwrap();
    let checker = SatChecker::from_database(&db);
    assert!(
        checker
            .constraints()
            .iter()
            .any(|c| c.name.starts_with("completion(")),
        "completion constraint for the negative rule must be added"
    );
    let report = checker.check();
    assert!(report.outcome.is_satisfiable());
}
