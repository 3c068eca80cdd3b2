//! Option-matrix tests for the satisfiability checker: every problem of
//! the suite under every meaningful option combination, asserting the
//! soundness contract of each profile.

use uniform_satisfiability::problems::{self, Expectation};
use uniform_satisfiability::{SatOptions, SatOutcome};

/// All profiles that are refutation-complete (every option combination
/// is — the budget only prunes *fresh-constant* branches and that is
/// tracked).
fn profiles() -> Vec<(&'static str, SatOptions)> {
    vec![
        ("default", SatOptions::default()),
        ("paper", SatOptions::paper()),
        ("tableaux", SatOptions::tableaux()),
        (
            "no-deepening",
            SatOptions {
                iterative_deepening: false,
                ..SatOptions::default()
            },
        ),
        (
            "full-check",
            SatOptions {
                incremental_checking: false,
                ..SatOptions::default()
            },
        ),
        (
            "no-range-reuse",
            SatOptions {
                range_reuse: false,
                ..SatOptions::default()
            },
        ),
        (
            "paper-no-deepening",
            SatOptions {
                iterative_deepening: false,
                ..SatOptions::paper()
            },
        ),
    ]
}

#[test]
fn unsat_problems_refuted_under_every_profile() {
    for p in problems::suite() {
        if p.expected != Expectation::Unsatisfiable {
            continue;
        }
        // The steamroller is slow under some ablations; keep the grid to
        // the fast problems and spot-check it separately below.
        if p.name == "steamroller" {
            continue;
        }
        for (name, opts) in profiles() {
            let rep = p.checker_with(opts).check();
            assert_eq!(
                rep.outcome,
                SatOutcome::Unsatisfiable,
                "{} under {name}",
                p.name
            );
        }
    }
}

#[test]
fn steamroller_under_paper_profile() {
    let p = problems::steamroller();
    let rep = p.checker_with(SatOptions::paper()).check();
    assert_eq!(rep.outcome, SatOutcome::Unsatisfiable);
}

#[test]
fn sat_problems_found_by_complete_profiles() {
    // Only the profiles with the domain-enumeration alternative are
    // complete for finite satisfiability *independently of range
    // selection*: our normalizer extracts maximal
    // ranges, so the as-published range-reuse alternative can miss
    // models whose witnesses never satisfy the full range conjunction
    // (household-cycle is the concrete case: `∃X person(X) ∧
    // head_of(X, Y)` has no range solutions before head_of facts
    // exist). tableaux and no-range-reuse are incomplete outright.
    let complete = ["default", "no-deepening", "full-check"];
    for p in problems::suite() {
        if p.expected != Expectation::Satisfiable {
            continue;
        }
        for (name, opts) in profiles() {
            if !complete.contains(&name) {
                continue;
            }
            let rep = p.checker_with(opts).check();
            assert!(
                rep.outcome.is_satisfiable(),
                "{} under {name}: {:?}",
                p.name,
                rep.outcome
            );
        }
    }
}

#[test]
fn paper_profile_sound_on_satisfiable_problems() {
    // The as-published profile may fail to find a model (its reuse
    // alternative is range-selection dependent) but must never claim
    // unsatisfiability of a satisfiable set.
    for p in problems::suite() {
        if p.expected != Expectation::Satisfiable {
            continue;
        }
        for opts in [
            SatOptions::paper(),
            SatOptions {
                iterative_deepening: false,
                ..SatOptions::paper()
            },
        ] {
            let rep = p.checker_with(opts).check();
            assert_ne!(
                rep.outcome,
                SatOutcome::Unsatisfiable,
                "{}: paper profile refuted a satisfiable problem",
                p.name
            );
        }
    }
}

#[test]
fn unknown_never_lies() {
    // Profiles may fail to classify (Unknown) but must never return a
    // wrong definite answer on the axiom of infinity.
    let p = problems::axiom_of_infinity();
    for (name, opts) in profiles() {
        let rep = p.checker_with(opts).check();
        assert!(
            matches!(rep.outcome, SatOutcome::Unknown { .. }),
            "{name} returned a definite answer on an infinity axiom: {:?}",
            rep.outcome
        );
    }
}

#[test]
fn budget_monotonicity() {
    // If a model is found at budget b, it is found at every budget ≥ b.
    let p = problems::dependency_mix();
    let mut found_at = None;
    for budget in 0..=4 {
        let rep = p
            .checker_with(SatOptions {
                max_fresh_constants: budget,
                ..SatOptions::default()
            })
            .check();
        if rep.outcome.is_satisfiable() {
            found_at.get_or_insert(budget);
        } else if let Some(b) = found_at {
            panic!("model found at budget {b} but lost at {budget}");
        }
    }
    assert!(found_at.is_some(), "dependency-mix has a small model");
}

#[test]
fn trace_only_produced_when_requested() {
    let p = problems::paper_example_repaired();
    let silent = p.checker().check();
    assert!(silent.trace.is_empty());
    let traced = p
        .checker_with(SatOptions {
            trace: true,
            ..SatOptions::default()
        })
        .check();
    assert!(!traced.trace.is_empty());
}

#[test]
fn step_limit_degrades_to_unknown() {
    let p = problems::steamroller();
    let rep = p
        .checker_with(SatOptions {
            max_steps: 50,
            ..SatOptions::default()
        })
        .check();
    assert!(
        matches!(rep.outcome, SatOutcome::Unknown { ref reason } if reason.contains("step limit")),
        "{:?}",
        rep.outcome
    );
}

#[test]
fn domain_cap_zero_still_sound() {
    // With the domain-enumeration alternative effectively disabled by a
    // zero cap, the checker falls back to range reuse + fresh constants.
    // That sacrifices finite-sat completeness (it may answer Unknown on
    // a satisfiable problem — household-cycle does) but never soundness:
    // refutations stay refutations, and no satisfiable problem is ever
    // reported unsatisfiable.
    for p in problems::suite() {
        if p.name == "steamroller" || p.name == "axiom-of-infinity" {
            continue;
        }
        let rep = p
            .checker_with(SatOptions {
                domain_cap: 0,
                ..SatOptions::default()
            })
            .check();
        match p.expected {
            Expectation::Unsatisfiable => {
                assert_eq!(rep.outcome, SatOutcome::Unsatisfiable, "{}", p.name)
            }
            Expectation::Satisfiable => {
                assert_ne!(
                    rep.outcome,
                    SatOutcome::Unsatisfiable,
                    "{}: wrong refutation under domain_cap 0",
                    p.name
                );
            }
            Expectation::Infinite => {}
        }
    }
}
