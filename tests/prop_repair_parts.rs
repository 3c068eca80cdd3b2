//! `RepairBackend::Auto`'s split search against the whole-scope search.
//!
//! When the repair scope has a part key — one argument position per
//! predicate that every scope constraint's outer `∀` variable and every
//! reached rule's head variable occupies — `Auto` runs the enforcement
//! kernel once per violated part and reports the product of the parts'
//! minimal repairs. The oracle is `RepairBackend::Search`, which always
//! searches the scope whole. Under a generous budget, on every state:
//!
//! * a complete `Search` and `Auto` report the same minimal repairs, in
//!   order;
//! * `Auto` escalates to SAT no state the whole search covers, and an
//!   escalated report is `Sat`'s field for field;
//! * otherwise `Auto` is as complete as a complete `Search`, and clips
//!   the fact budget where it does — except where only the whole
//!   search's path ran over the budget, and there SAT's exact verdict
//!   must agree that nothing was clipped;
//! * no reported repair exceeds `max_changes`;
//! * a split search explores no more nodes than the whole one;
//! * with no part key (no part searched, no solver effort), `Auto`'s
//!   report is `Search`'s field for field.
//!
//! Under a tight budget every repair `Auto` reports verifies, and a
//! report covering all minimal repairs is the generous one. The states
//! are `violation_state`s, `violation_dense_db`s, and random schemas
//! that mix keyed constraints with constraints that break the key.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniform::repair::{RepairBackend, RepairEngine, RepairError, RepairOptions, RepairReport};
use uniform::satisfiability::SolverStats;
use uniform::{workload, Database};

/// Randomized states per kind; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo.
fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

fn engine(db: &Database, options: RepairOptions) -> RepairEngine {
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(options)
}

fn run(
    db: &Database,
    backend: RepairBackend,
    options: RepairOptions,
) -> Result<RepairReport, RepairError> {
    engine(db, RepairOptions { backend, ..options }).repairs()
}

fn generous(max_changes: usize) -> RepairOptions {
    RepairOptions {
        max_changes,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        ..RepairOptions::default()
    }
}

/// Small enough that every cap trips on some state.
fn tight() -> RepairOptions {
    RepairOptions {
        max_changes: 2,
        max_branches: 40,
        max_repairs: 3,
        domain_cap: 2,
        ..RepairOptions::default()
    }
}

fn rendered(report: &RepairReport) -> Vec<String> {
    report.repairs.iter().map(|r| r.to_string()).collect()
}

/// Every field of two reports.
fn assert_same(got: &RepairReport, want: &RepairReport, what: &str) {
    assert_eq!(rendered(got), rendered(want), "{what}");
    assert_eq!(got.stats, want.stats, "{what}");
    assert_eq!(
        (got.complete, got.budget_clipped),
        (want.complete, want.budget_clipped),
        "{what}"
    );
}

/// `Auto` against `Search` under a generous budget of `max_changes`;
/// returns `Auto`'s report (when it has one) for the tight check.
fn agree(db: &Database, max_changes: usize, what: &str) -> Option<RepairReport> {
    let options = generous(max_changes);
    let whole = run(db, RepairBackend::Search, options);
    let auto = run(db, RepairBackend::Auto, options);
    let (whole, auto) = match (whole, auto) {
        (Ok(whole), Ok(auto)) => (whole, auto),
        (Err(RepairError::Unrepairable { .. }), got) => {
            assert!(
                matches!(got, Err(RepairError::Unrepairable { .. })),
                "{what}: {got:?}"
            );
            return None;
        }
        (Ok(whole), Err(err)) => panic!("{what}: Search found {whole:?}, Auto {err}"),
        (Err(err), got) => panic!("{what}: Search refused a generous budget: {err}; Auto {got:?}"),
    };
    for r in &auto.repairs {
        assert!(
            r.len() <= max_changes,
            "{what}: {r} is over the fact budget"
        );
    }
    let by_sat = auto.stats.solver != SolverStats::default();
    assert!(
        !(by_sat && whole.covers_all_minimal_repairs()),
        "{what}: Auto escalated a state the whole search covers"
    );
    if whole.complete {
        assert_eq!(rendered(&auto), rendered(&whole), "{what}");
    }
    if by_sat {
        let sat = run(db, RepairBackend::Sat, options).expect("SAT served Auto");
        assert_same(&auto, &sat, what);
        return Some(auto);
    }
    if auto.stats.parts == 0 {
        assert_same(&auto, &whole, what);
    }
    assert!(
        auto.stats.explored <= whole.stats.explored,
        "{what}: split {} nodes, whole {}",
        auto.stats.explored,
        whole.stats.explored
    );
    if whole.complete {
        assert!(auto.complete, "{what}");
        if auto.budget_clipped != whole.budget_clipped {
            // The whole search clips a branch wherever the changes of all
            // the parts on its path overrun the budget together; the
            // split only where a part, or a union of minimal ones, does.
            // Where they differ the split is the exact answer.
            assert!(whole.budget_clipped, "{what}: only the split clipped");
            let sat = run(db, RepairBackend::Sat, options).expect("SAT repairs what Search does");
            assert!(!sat.budget_clipped, "{what}: the split missed a clip");
        }
    }
    Some(auto)
}

/// `Auto` under the tight budget: every repair it reports verifies, and
/// one covering all minimal repairs reports the generous set.
fn tight_is_sound(db: &Database, generous: Option<&RepairReport>, what: &str) {
    let eng = engine(
        db,
        RepairOptions {
            backend: RepairBackend::Auto,
            ..tight()
        },
    );
    let Ok(report) = eng.repairs() else {
        return;
    };
    for r in &report.repairs {
        assert!(
            eng.repair_restores_consistency(r),
            "{what}: {r} does not repair"
        );
    }
    if report.covers_all_minimal_repairs() {
        let generous = generous.unwrap_or_else(|| panic!("{what}: only the tight budget repaired"));
        assert_eq!(rendered(&report), rendered(generous), "{what}");
    }
}

#[test]
fn split_search_is_the_whole_search_on_violation_states() {
    let mut split = 0;
    for seed in 0..cases() {
        let db = workload::violation_state(2 + (seed % 5) as usize, seed);
        let what = format!("violation_state seed {seed}");
        let report = agree(&db, 3, &what);
        split += usize::from(report.as_ref().is_some_and(|r| r.stats.parts > 1));
        tight_is_sound(&db, report.as_ref(), &what);
    }
    assert!(split > 0, "no violation state split into parts");
}

#[test]
fn split_search_settles_dense_states_in_parts() {
    for n in 1..=10 {
        let db = workload::violation_dense_db(n, n as u64);
        let what = format!("violation_dense_db({n})");
        let report = agree(&db, n, &what).expect("the dense state is repairable");
        assert_eq!(report.stats.parts, n, "{what}");
        assert_eq!(rendered(&report).len(), 1, "{what}");
        tight_is_sound(&db, Some(&report), &what);
    }
}

/// Constraints whose atoms all hold the outer `∀` variable at one
/// position per predicate: alone, they keep the part key.
const KEYED: &[&str] = &[
    "constraint imp: forall X: p(X) -> q(X).",
    "constraint excl: forall X: q(X) & r(X) -> false.",
    "constraint dom_s: forall X, Y: s(X, Y) -> r(X).",
    "constraint span: forall X: r(X) -> (exists Y: s(X, Y)).",
    "constraint flag_ok: forall X: flagged(X) -> ok(X).",
    "constraint either: forall X: p(X) -> q(X) | ok(X).",
    "constraint clean: forall X: ok(X) -> not bad(X).",
];

/// Constraints that break the key of any scope holding them.
const BREAKING: &[&str] = &[
    // An outer `∃`.
    "constraint some_ok: exists X: ok(X).",
    // A constant at the key position `dom_s` and `span` give `s`.
    "constraint pinned: forall X: q(X) -> s(a, X).",
    // A join across two key variables.
    "constraint join: forall X, Y: s(X, Y) & q(Y) -> r(X).",
    // A recursive rule under the constraint.
    "constraint acyclic: forall X: reach(X, X) -> false.",
    // A 0-ary predicate.
    "constraint zero: forall X: p(X) & z -> false.",
];

const RULES: &str = "flagged(X) :- p(X), bad(X).
    reach(X, Y) :- s(X, Y).
    reach(X, Z) :- s(X, Y), reach(Y, Z).\n";

/// A random schema: some of `KEYED`, half the time one of `BREAKING`,
/// and a few random facts over three constants.
fn random_state(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::from(RULES);
    for c in KEYED {
        if rng.gen_range(0..2u8) == 0 {
            src.push_str(c);
        }
    }
    if rng.gen_range(0..2u8) == 0 {
        src.push_str(BREAKING[rng.gen_range(0..BREAKING.len())]);
    }
    let consts = ["a", "b", "c"];
    for _ in 0..rng.gen_range(2..7usize) {
        let x = consts[rng.gen_range(0..consts.len())];
        let y = consts[rng.gen_range(0..consts.len())];
        let fact = match rng.gen_range(0..7u8) {
            0 => format!("p({x})."),
            1 => format!("q({x})."),
            2 => format!("r({x})."),
            3 => format!("s({x}, {y})."),
            4 => format!("ok({x})."),
            5 => format!("bad({x})."),
            _ => "z.".to_string(),
        };
        src.push_str(&fact);
    }
    Database::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

#[test]
fn split_search_is_the_whole_search_on_mixed_schemas() {
    let (mut split, mut whole) = (0, 0);
    for seed in 0..cases() {
        let db = random_state(seed);
        let what = format!("random schema seed {seed}");
        let report = agree(&db, 4, &what);
        if let Some(r) = &report {
            split += usize::from(r.stats.parts > 0);
            whole += usize::from(r.stats.parts == 0 && !r.repairs[0].is_empty());
        }
        tight_is_sound(&db, report.as_ref(), &what);
    }
    assert!(split > 0 && whole > 0, "split {split}, whole {whole}");
}
