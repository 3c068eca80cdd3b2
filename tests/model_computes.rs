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
//! Each path runs on `tc_forest(64)` and on `tc_forest(2048)` (recursive
//! `tc` over an `edge` forest, plus `forall X: p(X) -> q(X)`), and the
//! counts ([`Model::computes_on_this_thread`]) are the same at both
//! sizes.

use uniform::datalog::Hypothetical;
use uniform::{
    workload, AnalyzeOptions, Analyzer, ConcurrentDatabase, Database, Fact, Model, RepairBackend,
    RepairEngine, RepairOptions, Transaction, UniformError, UniformOptions, Update,
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
