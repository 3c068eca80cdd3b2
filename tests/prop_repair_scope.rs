//! The repair scope's differential proof: a repair enumeration over the
//! affected closure is the enumeration over the whole state.
//!
//! `RepairEngine` runs its search on a scope — the relations and
//! constraints of the affected closure, over the whole state's active
//! domain. The oracle is the public enforcement kernel run directly on
//! the whole state (every fact, every constraint) with the repair move
//! set and the same limits, collected and minimality-filtered the way
//! the engine does. On every input the two must agree on the minimal
//! repairs, on every search counter (`explored`, `models_computed`,
//! `max_level`, `candidates`) and on the `complete` / `budget_clipped`
//! flags — the same search tree, not merely the same answer:
//!
//! * randomized `violation_state`s under a generous and a tight budget
//!   (the tight one trips the node limit, the repair cap and the domain
//!   cap);
//! * starved `violation_dense_db`s, whose `noise` relation lies outside
//!   the closure;
//! * consistent `violation_mix_db`s (empty closure, the empty repair);
//! * a violated constraint refused on a ~1 000-constant university: the
//!   closure is three relations of eleven.

use std::collections::BTreeSet;
use std::ops::ControlFlow;
use uniform::repair::{RepairBackend, RepairEngine, RepairError, RepairOptions, RepairSet};
use uniform::satisfiability::enforce::{self, Enforcer, Limits, Moves};
use uniform::{workload, ConcurrentDatabase, Database, UniformError, UniformOptions};

/// Randomized states per budget; `PROPTEST_CASES` scales the effort
/// like every other property suite in the repo.
fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

/// An enumeration's result with everything the scope must not change.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Repairs {
        repairs: Vec<String>,
        explored: usize,
        models_computed: usize,
        max_level: usize,
        candidates: usize,
        complete: bool,
        budget_clipped: bool,
    },
    Exhausted {
        explored: usize,
        budget_clipped: bool,
    },
    Unrepairable {
        budget_clipped: bool,
    },
}

fn engine(db: &Database, options: RepairOptions) -> RepairEngine {
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(RepairOptions {
        backend: RepairBackend::Search,
        ..options
    })
}

/// The engine's search, on its scope.
fn scoped(db: &Database, options: RepairOptions) -> Outcome {
    match engine(db, options).repairs() {
        Ok(report) => Outcome::Repairs {
            repairs: report.repairs.iter().map(|r| r.to_string()).collect(),
            explored: report.stats.explored,
            models_computed: report.stats.models_computed,
            max_level: report.stats.max_level,
            candidates: report.stats.candidates,
            complete: report.complete,
            budget_clipped: report.budget_clipped,
        },
        Err(RepairError::BudgetExhausted {
            explored,
            budget_clipped,
            ..
        }) => Outcome::Exhausted {
            explored,
            budget_clipped,
        },
        Err(RepairError::Unrepairable { budget_clipped, .. }) => {
            Outcome::Unrepairable { budget_clipped }
        }
    }
}

/// The oracle: the kernel on the whole state, every leaf's delta
/// collected up to the repair cap, then the subset-minimal ones.
fn whole_state(db: &Database, o: RepairOptions) -> Outcome {
    let domain = enforce::domain(db.facts(), db.rules(), db.constraints());
    let limits = Limits {
        max_nodes: o.max_branches,
        max_changes: o.max_changes,
        domain_cap: o.domain_cap,
    };
    let mut kernel = Enforcer::new(
        db.rules(),
        db.constraints(),
        db.facts().clone(),
        domain,
        Moves::repair(),
        limits,
    );
    let mut found: BTreeSet<RepairSet> = BTreeSet::new();
    let mut capped = false;
    let _ = kernel.run(&mut |_, delta| {
        found.insert(RepairSet::from_ops(delta.iter().cloned()));
        capped = found.len() >= o.max_repairs;
        if capped {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    let tally = kernel.tally;
    let complete = !tally.node_limit_hit && !capped && !tally.domain_clipped;
    let mut minimal: Vec<&RepairSet> = Vec::new();
    for cand in &found {
        if !minimal.iter().any(|kept| kept.is_subset_of(cand)) {
            minimal.push(cand);
        }
    }
    let budget_clipped = tally.change_budget_hit;
    if minimal.is_empty() {
        return if complete {
            Outcome::Unrepairable { budget_clipped }
        } else {
            Outcome::Exhausted {
                explored: tally.nodes,
                budget_clipped,
            }
        };
    }
    Outcome::Repairs {
        repairs: minimal.iter().map(|r| r.to_string()).collect(),
        explored: tally.nodes,
        models_computed: tally.models_computed,
        max_level: tally.max_level,
        candidates: found.len(),
        complete,
        budget_clipped,
    }
}

fn generous() -> RepairOptions {
    RepairOptions {
        max_changes: 3,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        ..RepairOptions::default()
    }
}

/// Small enough that every cap trips on some seed.
fn tight() -> RepairOptions {
    RepairOptions {
        max_changes: 2,
        max_branches: 40,
        max_repairs: 3,
        domain_cap: 2,
        ..RepairOptions::default()
    }
}

#[test]
fn scoped_search_is_the_whole_state_search_on_violation_states() {
    let mut incomplete = 0;
    for seed in 0..cases() {
        let db = workload::violation_state(2 + (seed % 5) as usize, seed);
        for options in [generous(), tight()] {
            let got = scoped(&db, options);
            assert_eq!(got, whole_state(&db, options), "seed {seed}: {options:?}");
            incomplete += usize::from(!matches!(got, Outcome::Repairs { complete: true, .. }));
        }
    }
    assert!(incomplete > 0, "the tight budget never cut a search short");
}

#[test]
fn scoped_search_is_the_whole_state_search_on_starved_dense_states() {
    for n in 4..10 {
        let db = workload::violation_dense_db(n, n as u64);
        let options = RepairOptions {
            max_changes: n,
            max_branches: 200,
            ..RepairOptions::default()
        };
        let closure = engine(&db, options).affected_closure();
        assert!(!closure.contains(&"noise".into()), "n = {n}: {closure:?}");
        assert_eq!(scoped(&db, options), whole_state(&db, options), "n = {n}");
    }
}

#[test]
fn consistent_states_have_an_empty_scope_and_the_empty_repair() {
    for seed in 0..8 {
        let db = workload::violation_mix_db(seed);
        assert!(engine(&db, generous()).affected_closure().is_empty());
        let got = scoped(&db, generous());
        assert!(
            matches!(&got, Outcome::Repairs { repairs, .. } if repairs == &["{}"]),
            "seed {seed}: {got:?}"
        );
        assert_eq!(got, whole_state(&db, generous()), "seed {seed}");
    }
}

/// A university of `students` with a dean: eleven relations and ~1 000
/// constants, so the dean existential's witness space is past the
/// default domain cap.
fn dean_university(students: usize) -> String {
    let mut src = String::from(
        "honours(X) :- student(X), award(X).
         constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
         constraint dom_enrolled: forall X, C: enrolled(X, C) -> student(X).
         constraint dom_attends: forall X, C: attends(X, C) -> student(X).
         constraint has_course: forall X: student(X) -> (exists C: enrolled(X, C)).
         constraint hon_ok: forall X: honours(X) -> attends(X, sem).
         constraint has_dean: exists X: dean(X).
         constraint dean_staff: forall X: dean(X) -> staff(X).
         dean(d0). staff(d0).\n",
    );
    let depts = ["cs", "math", "phys", "bio"];
    for i in 0..students {
        let s = format!("s{i}");
        src.push_str(&format!("student({s}). group_of({s}, g{}).\n", i / 8));
        src.push_str(&format!("enrolled({s}, {}).\n", depts[i % 4]));
        if i % 4 == 1 {
            src.push_str(&format!("enrolled({s}, {}).\n", depts[(i + 1) % 4]));
        }
        src.push_str(&format!("attends({s}, ddb). attends({s}, c{}).\n", i % 39));
        if i % 20 == 7 {
            src.push_str(&format!("award({s}). attends({s}, sem).\n"));
        }
        src.push_str(&format!("note({s}, n{}).\n", i % 90));
    }
    src
}

#[test]
fn a_refused_constraint_is_repaired_inside_three_relations() {
    const VI: &str = "forall X: dean(X) -> emeritus(X)";
    let src = dean_university(768);
    let options = RepairOptions {
        max_changes: 4,
        backend: RepairBackend::Auto,
        ..RepairOptions::default()
    };

    // The guarded schema change refuses and suggests the one repair.
    let cdb = ConcurrentDatabase::from_database(
        Database::parse(&src).unwrap(),
        UniformOptions {
            repair: options,
            ..UniformOptions::default()
        },
    );
    match cdb.try_add_constraint("vi", VI) {
        Err(UniformError::CurrentlyViolated { constraint, repair }) => {
            assert_eq!(constraint, "vi");
            assert_eq!(
                repair.map(|r| r.to_string()).as_deref(),
                Some("{+emeritus(d0)}")
            );
        }
        other => panic!("expected a refusal, got {other:?}"),
    }

    // The would-be state: its closure, and a search over it that is the
    // whole-state search.
    let db = Database::parse(&format!("{src}constraint vi: {VI}.")).unwrap();
    let mut closure: Vec<&str> = engine(&db, options)
        .affected_closure()
        .iter()
        .map(|s| s.as_str())
        .collect();
    closure.sort_unstable();
    assert_eq!(closure, ["dean", "emeritus", "staff"]);
    let got = scoped(&db, options);
    assert_eq!(got, whole_state(&db, options));
    assert_eq!(
        got,
        Outcome::Repairs {
            repairs: vec!["{+emeritus(d0)}".to_string()],
            explored: 5,
            models_computed: 4,
            max_level: 1,
            candidates: 1,
            // `has_dean`'s witnesses are past the domain cap.
            complete: false,
            budget_clipped: false,
        }
    );
}
