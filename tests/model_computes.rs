//! Where whole-state models are computed, as exact counts.
//!
//! A what-if state on the repair path — the would-be state of a
//! transaction, a repaired state being verified, a SAT candidate, the
//! state a refused constraint is repaired in — is a
//! [`uniform::datalog::Hypothetical`]: the base state's model with the
//! propagation kernel's flips on top. None of them computes a
//! [`Model`]. The only computes left on these paths are the enforcement
//! kernel's per-node ones, which the repair report counts
//! (`RepairStats::models_computed`), and the §4 gate's, which depend on
//! the schema alone.
//!
//! A database computes its own model once. A commit, a raw write, a
//! rule change and the snapshot after each advance the cached model
//! through the propagation kernel and compute none; a guarded rule
//! change's §4 gate computes only its own search's models.
//!
//! A guarded rule change runs the propagation kernel once at most: its
//! check's propagation, when a constraint is relevant to the change, is
//! the one the accepted change installs.
//!
//! Each path runs on `tc_forest(64)` and on `tc_forest(2048)` (recursive
//! `tc` over an `edge` forest, plus `forall X: p(X) -> q(X)`), and the
//! counts ([`Model::computes_on_this_thread`],
//! [`Model::kernel_runs_on_this_thread`]) are the same at both sizes.

use uniform::datalog::{Hypothetical, Propagation, RuleSet};
use uniform::logic::parse_rule;
use uniform::{
    workload, AnalyzeOptions, Analyzer, ConcurrentDatabase, Database, Fact, Model, RepairBackend,
    RepairEngine, RepairOptions, SatChecker, Transaction, UniformError, UniformOptions, Update,
};

const SIZES: [usize; 2] = [64, 2048];

/// `tc_forest(n)`, with `forall X: p(X) -> q(X)` and `p(a)`, `q(a)`.
fn forest(n: usize) -> Database {
    let mut db = workload::tc_forest(n, 7);
    let imp = uniform::logic::parse_formula("forall X: p(X) -> q(X)").unwrap();
    let imp = uniform::logic::normalize(&imp).unwrap();
    db.add_constraint(uniform::Constraint::new("imp", imp));
    for f in ["p", "q"] {
        db.insert_fact(&Fact::parse_like(f, &["a"]));
    }
    assert!(db.is_consistent());
    db
}

/// An edge closing a cycle in the first tree: `t0_3`'s ancestors are
/// `t0_1` and `t0_0`.
fn cycle() -> Transaction {
    Transaction::new(vec![Update::insert(Fact::parse_like(
        "edge",
        &["t0_3", "t0_0"],
    ))])
}

/// `Model::compute` calls made on this thread while `f` runs.
fn computes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = Model::computes_on_this_thread();
    let out = f();
    (out, Model::computes_on_this_thread() - before)
}

fn search() -> RepairOptions {
    RepairOptions {
        backend: RepairBackend::Search,
        ..RepairOptions::default()
    }
}

#[test]
fn a_would_be_state_computes_no_model() {
    for n in SIZES {
        let snap = forest(n).snapshot();
        let (violations, count) =
            computes(|| RepairEngine::for_update(&snap, &cycle()).violations());
        assert_eq!(violations, ["acyclic"], "tc_forest({n})");
        assert_eq!(count, 0, "tc_forest({n}): for_update(..).violations()");
    }
}

#[test]
fn verification_computes_no_model() {
    let mut stats = Vec::new();
    for n in SIZES {
        let snap = forest(n).snapshot();
        let engine = RepairEngine::for_update(&snap, &cycle()).with_options(search());
        let (report, count) = computes(|| engine.repairs().unwrap());
        // Three one-edge deletions break the cycle.
        assert_eq!(report.repairs.len(), 3, "tc_forest({n})");
        assert_eq!(
            count as usize, report.stats.models_computed,
            "tc_forest({n}): the search computes only the kernel's per-node models"
        );
        for repair in &report.repairs {
            let (sound, count) = computes(|| engine.repair_restores_consistency(repair));
            assert!(sound, "tc_forest({n}): {repair}");
            assert_eq!(count, 0, "tc_forest({n}): verifying {repair}");
        }
        stats.push(report.stats);
    }
    assert_eq!(
        stats[0], stats[1],
        "the search does not grow with the forest"
    );
}

#[test]
fn sat_candidates_are_checked_without_a_model() {
    for n in SIZES {
        let snap = forest(n).snapshot();
        let tx = Transaction::new(vec![Update::insert(Fact::parse_like("p", &["b"]))]);
        let engine = RepairEngine::for_update(&snap, &tx).with_options(RepairOptions {
            backend: RepairBackend::Sat,
            ..RepairOptions::default()
        });
        let (report, count) = computes(|| engine.repairs().unwrap());
        assert_eq!(report.best().to_string(), "{-p(b)}", "tc_forest({n})");
        assert!(report.stats.models_computed > 0, "tc_forest({n})");
        assert_eq!(
            count, 0,
            "tc_forest({n}): {} genuine() checks",
            report.stats.models_computed
        );
    }
}

#[test]
fn a_refused_constraint_is_repaired_without_a_model() {
    let options = UniformOptions::default();
    let mut counts = Vec::new();
    for n in SIZES {
        let db = forest(n);
        // The §4 gate's own search (its verdict is computed on first
        // ask), run alone on the same candidate set.
        let mut candidate = db.constraints().to_vec();
        let formula = uniform::logic::parse_formula("forall X: q(X) -> r(X)").unwrap();
        let rq = uniform::logic::normalize(&formula).unwrap();
        candidate.push(uniform::Constraint::new("cover", rq));
        let (_, gate) = computes(|| {
            Analyzer::new(db.rules().clone(), candidate)
                .with_options(AnalyzeOptions::gate(options.sat.clone()))
                .analyze()
                .set_class()
        });
        let cdb = ConcurrentDatabase::from_database(db, options.clone());
        // The head state's model exists before the request.
        drop(cdb.snapshot());
        let kernel = || {
            let report = cdb.obs_report();
            report.counter("repair.search.models_computed").unwrap_or(0)
        };
        let before = kernel();
        let (refused, count) =
            computes(|| cdb.try_add_constraint("cover", "forall X: q(X) -> r(X)"));
        let Err(UniformError::CurrentlyViolated { repair, .. }) = refused else {
            panic!("tc_forest({n}): {refused:?}");
        };
        assert_eq!(repair.unwrap().to_string(), "{+r(a)}", "tc_forest({n})");
        let kernel = kernel() - before;
        assert_eq!(
            count,
            gate + kernel,
            "tc_forest({n}): the gate's {gate} and the kernel's {kernel} computes only"
        );
        counts.push(count);
    }
    assert_eq!(counts[0], counts[1], "no compute grows with the forest");
}

#[test]
fn hypotheticals_share_the_base_model() {
    let db = forest(64);
    let snap = db.snapshot();
    let base = Hypothetical::new(
        snap.model_arc(),
        snap.facts().clone(),
        std::sync::Arc::new(snap.rules().clone()),
    );
    let cow = snap.facts().cow_stats();
    let (state, count) = computes(|| base.then(&cycle().updates));
    assert_eq!(count, 0);
    assert_eq!(state.net().0.len(), 1);
    assert_eq!(
        snap.facts().cow_stats(),
        cow,
        "no page of the base is copied"
    );
}

/// `rules` with `rule` added.
fn with_rule(rules: &RuleSet, rule: &str) -> RuleSet {
    let mut all = rules.rules().to_vec();
    all.push(parse_rule(rule).unwrap());
    RuleSet::new(all).unwrap()
}

/// The models the §4 gate of a guarded rule change computes: its search
/// over the candidate rules and the database's constraints, run alone.
fn gate(cdb: &ConcurrentDatabase, candidate: RuleSet) -> u64 {
    let snap = cdb.snapshot();
    let search = SatChecker::new(candidate, snap.constraints().to_vec())
        .with_options(UniformOptions::default().sat);
    computes(|| search.check()).1
}

/// Apart from a database's first model, no commit, raw write or rule
/// change computes one, nor does the snapshot after it; a guarded rule
/// change computes its gate's models only. The rules' derivations stay
/// inside the first tree, so nothing here grows with the forest.
#[test]
fn changes_advance_the_model_and_compute_none() {
    const BELOW: &str = "below(X) :- tc(t0_1, X).";
    for n in SIZES {
        let cdb = ConcurrentDatabase::from_database(forest(n), UniformOptions::default());
        drop(cdb.snapshot());
        let mut rows = Vec::new();
        let mut row = |name: &str, gate: u64, f: &dyn Fn()| {
            let ((), count) = computes(|| {
                f();
                drop(cdb.snapshot());
            });
            rows.push((name.to_string(), count - gate));
        };

        let maintained = || {
            let report = cdb.obs_report();
            report.counter("maintain.commits.maintained").unwrap_or(0)
        };
        let before = maintained();
        row("guarded commit", 0, &|| {
            let outcome = cdb.try_insert("edge(t0_9, t0_new)").unwrap();
            assert_eq!(outcome.effective.len(), 1);
        });
        assert_eq!(maintained() - before, 1, "tc_forest({n}): one kernel run");

        let rules = cdb.snapshot().rules().clone();
        let add_gate = gate(&cdb, with_rule(&rules, BELOW));
        row("accepted try_add_rule", add_gate, &|| {
            assert!(cdb.try_add_rule(BELOW).unwrap());
        });
        assert!(cdb
            .snapshot()
            .holds(&Fact::parse_like("below", &["t0_new"])));
        let remove_gate = gate(&cdb, rules.clone());
        row("try_remove_rule", remove_gate, &|| {
            assert!(cdb.try_remove_rule(BELOW).unwrap());
        });
        row("update_schema(set_rules(..))", 0, &|| {
            let swapped = with_rule(&rules, "reach(X) :- edge(t0_0, X).");
            cdb.update_schema(|d| d.set_rules(swapped));
        });
        row("raw update_schema fact writes", 0, &|| {
            cdb.update_schema(|d| {
                d.apply(&Update::insert(Fact::parse_like(
                    "edge",
                    &["t0_9", "t0_raw"],
                )))
                .unwrap();
                d.apply(&Update::delete(Fact::parse_like(
                    "edge",
                    &["t0_9", "t0_new"],
                )))
                .unwrap();
            });
        });
        assert!(cdb
            .snapshot()
            .holds(&Fact::parse_like("tc", &["t0_0", "t0_raw"])));
        for (name, count) in rows {
            assert_eq!(count, 0, "tc_forest({n}): {name}");
        }
    }
}

/// Adding and removing a recursive rule propagates the same work at
/// both sizes: its derivations stay inside the first tree.
#[test]
fn recursive_rule_changes_propagate_per_tree() {
    let mut stats = Vec::new();
    for n in SIZES {
        let db = forest(n);
        let base = with_rule(db.rules(), "reach(X) :- edge(t0_0, X).");
        let recursive = with_rule(&base, "reach(Y) :- reach(X), edge(X, Y).");
        let before = Model::compute(db.facts(), &base);
        let after = Model::compute(db.facts(), &recursive);
        let added = Propagation::of_rule_change(&before, db.facts(), &base, &recursive);
        let removed = Propagation::of_rule_change(&after, db.facts(), &recursive, &base);
        // t0_0's children are reached directly; the other 12 nodes of
        // the tree only through the recursive rule.
        assert_eq!(added.flips().len(), 12, "tc_forest({n})");
        assert_eq!(removed.flips().len(), 12, "tc_forest({n})");
        stats.push((added.stats(), removed.stats()));
    }
    assert_eq!(stats[0], stats[1], "the work does not grow with the forest");
}

/// Kernel runs of each guarded rule change, the snapshot after it
/// included: an accepted change runs one whether or not a constraint is
/// relevant to it (the check's propagation is installed, or the install
/// propagates the change), a refused one runs its check's and installs
/// nothing, and a no-op runs none.
#[test]
fn a_guarded_rule_change_runs_the_kernel_once() {
    for n in SIZES {
        let cdb = ConcurrentDatabase::from_database(forest(n), UniformOptions::default());
        drop(cdb.snapshot());
        let runs = |f: &dyn Fn()| {
            let before = Model::kernel_runs_on_this_thread();
            f();
            drop(cdb.snapshot());
            Model::kernel_runs_on_this_thread() - before
        };
        let rows = [
            // `imp` is relevant to a new `p`; `q(a)` gives `p(a)`, which
            // is explicit already.
            (
                "accepted, relevant constraint",
                runs(&|| {
                    assert!(cdb.try_add_rule("p(X) :- q(X).").unwrap());
                }),
            ),
            (
                "accepted, no relevant constraint",
                runs(&|| {
                    assert!(cdb.try_add_rule("below(X) :- tc(t0_1, X).").unwrap());
                }),
            ),
            (
                "refused",
                runs(&|| {
                    let version = cdb.version();
                    let refused = cdb.try_add_rule("p(X) :- edge(X, Y).");
                    assert!(
                        matches!(refused, Err(UniformError::UpdateRejected(_))),
                        "{refused:?}"
                    );
                    assert_eq!(cdb.version(), version, "a refused change installs nothing");
                }),
            ),
            (
                "no-op",
                runs(&|| {
                    assert!(!cdb.try_add_rule("p(X) :- q(X).").unwrap());
                    assert!(!cdb.try_remove_rule("absent(X) :- q(X).").unwrap());
                }),
            ),
        ];
        assert_eq!(
            rows,
            [
                ("accepted, relevant constraint", 1),
                ("accepted, no relevant constraint", 1),
                ("refused", 1),
                ("no-op", 0),
            ],
            "tc_forest({n})"
        );
        let snap = cdb.snapshot();
        assert!(snap.holds(&Fact::parse_like("below", &["t0_3"])));
        assert!(!snap.holds(&Fact::parse_like("p", &["t0_0"])));
        assert!(snap.is_consistent());
    }
}
