//! Hypothetical states against materialization: a differential oracle.
//!
//! A [`Hypothetical`] reads a would-be state `U(D)` as the canonical
//! model of `D` with the propagation kernel's flips on top, and composes
//! what-ifs by composing their net updates. The oracle is
//! [`Model::compute`] of the explicit facts with the updates applied.
//! On every state, for a random transaction, a second random update
//! after it, and every minimal repair of the transaction's would-be
//! state (as [`RepairEngine::for_update`] composes them):
//!
//! * `holds` agrees on every tuple over the states' constants (one more
//!   constant that occurs nowhere included), for every predicate;
//! * `scan` of every predicate returns the same tuples, unbound and with
//!   each argument position bound to each constant;
//! * every constraint has the same verdict, and so do
//!   `repair_restores_consistency` and the oracle's consistency.
//!
//! States are random schemas — recursion (`tc`, `reach`), stratified
//! negation, derived predicates that reach no recursion, a predicate
//! with both explicit facts and a rule — over `workload::random_facts`,
//! and the `tc_chain`, `org` and `violation_state` workloads with their
//! own update streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use uniform::datalog::{satisfies_closed, Hypothetical, Interp};
use uniform::logic::Sym;
use uniform::{
    workload, Database, Fact, Model, RepairBackend, RepairEngine, RepairOptions, Transaction,
    Update,
};

/// Randomized states per kind; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo.
fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

/// Rule groups, each kept or dropped as a whole. Together they stratify:
/// `reach` and `tc` recurse, `lonely`, `nf` and `odd` negate, `fg`,
/// `both` and `nf` reach no recursion, and `g` has explicit facts and a
/// rule.
const RULES: &[&str] = &[
    "tc(X, Y) :- e(X, Y). tc(X, Z) :- tc(X, Y), e(Y, Z).",
    "reach(X) :- f(X). reach(Y) :- reach(X), e(X, Y).",
    "lonely(X) :- g(X), not reach(X).",
    "fg(X) :- f(X), g(X).",
    "nf(X) :- g(X), not f(X).",
    "both(X) :- fg(X), h(X).",
    "cyc(X) :- tc(X, X).",
    "odd(X) :- h(X), not fg(X).",
    "g(X) :- h(X), f(X).",
];

const CONSTRAINTS: &[&str] = &[
    "constraint c1: forall X: fg(X) -> h(X).",
    "constraint c2: forall X, Y: e(X, Y) -> f(X) | g(Y).",
    "constraint c3: forall X: cyc(X) -> false.",
    "constraint c4: forall X: g(X) -> (exists Y: e(X, Y)).",
    "constraint c5: forall X: lonely(X) -> not h(X).",
    "constraint c6: exists X: reach(X).",
    "constraint c7: forall X: nf(X) -> odd(X) | both(X).",
];

const EDB: &[(&str, usize)] = &[("e", 2), ("f", 1), ("g", 1), ("h", 1)];
const CONSTS: &[&str] = &["a", "b", "c", "d"];

fn random_schema(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = String::new();
    for group in RULES.iter().chain(CONSTRAINTS) {
        if rng.gen_range(0..3u8) > 0 {
            src.push_str(group);
            src.push('\n');
        }
    }
    let facts = workload::random_facts(EDB, CONSTS, rng.gen_range(3..12usize), seed);
    for f in facts {
        src.push_str(&format!("{f}.\n"));
    }
    Database::parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// Up to five writes: insertions of random facts, deletions of stored
/// ones and of random (maybe absent) ones, and now and then the reverse
/// of an earlier write, which cancels in the net effect.
fn random_updates(db: &Database, rng: &mut StdRng) -> Vec<Update> {
    let stored: Vec<Fact> = db.facts().iter().collect();
    let mut out: Vec<Update> = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        let fresh = workload::random_facts(EDB, CONSTS, 1, rng.gen_range(0..u64::MAX))
            .pop()
            .unwrap();
        let u = match rng.gen_range(0..5u8) {
            0 | 1 => Update::insert(fresh),
            2 if !stored.is_empty() => {
                Update::delete(stored[rng.gen_range(0..stored.len())].clone())
            }
            3 if !out.is_empty() => {
                let earlier = &out[rng.gen_range(0..out.len())];
                Update {
                    insert: !earlier.insert,
                    fact: earlier.fact.clone(),
                }
            }
            _ => Update::delete(fresh),
        };
        out.push(u);
    }
    out
}

/// The oracle: the canonical model of `db`'s facts after `writes`.
fn applied(db: &Database, writes: &[&[Update]]) -> Model {
    let mut edb = db.facts().clone();
    for updates in writes {
        Transaction::new(updates.to_vec()).apply(&mut edb);
    }
    Model::compute(&edb, db.rules())
}

/// Every predicate with its arity, and every constant, of `db`'s schema
/// and of the models compared on it.
fn vocabulary(db: &Database, models: &[&Model]) -> (BTreeMap<Sym, usize>, Vec<Sym>) {
    let mut arity: BTreeMap<Sym, usize> = BTreeMap::new();
    let mut consts: BTreeSet<Sym> = BTreeSet::new();
    for fact in models
        .iter()
        .flat_map(|m| m.iter())
        .chain(db.facts().iter())
    {
        arity.insert(fact.pred, fact.args.len());
        consts.extend(fact.args);
    }
    for rule in db.rules().rules() {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter().map(|l| &l.atom)) {
            arity.insert(atom.pred, atom.args.len());
        }
    }
    for c in db.constraints() {
        for occ in c.rq.literals() {
            arity.insert(occ.literal.atom.pred, occ.literal.atom.args.len());
        }
    }
    consts.extend(CONSTS.iter().map(|&c| Sym::new(c)));
    consts.insert(Sym::new("nowhere"));
    (arity, consts.into_iter().collect())
}

fn scanned(state: &dyn Interp, pred: Sym, pattern: &[Option<Sym>]) -> Vec<Vec<Sym>> {
    let mut out = Vec::new();
    state.scan(pred, pattern, &mut |args| {
        out.push(args.to_vec());
        true
    });
    out.sort_by(|a, b| {
        let [a, b] = [a, b].map(|t| t.iter().map(|s| s.as_str()).collect::<Vec<_>>());
        a.cmp(&b)
    });
    out
}

/// `got` reads exactly as `want` on `db`'s vocabulary and constraints.
fn assert_reads_as(got: &Hypothetical, want: &Model, db: &Database, what: &str) {
    let (arity, consts) = vocabulary(db, &[want]);
    for (&pred, &n) in &arity {
        let unbound = vec![None; n];
        assert_eq!(
            scanned(got, pred, &unbound),
            scanned(want, pred, &unbound),
            "{what}: scan {pred}"
        );
        for i in 0..n {
            for &c in &consts {
                let mut pattern = unbound.clone();
                pattern[i] = Some(c);
                assert_eq!(
                    scanned(got, pred, &pattern),
                    scanned(want, pred, &pattern),
                    "{what}: scan {pred} with {c} at {i}"
                );
            }
        }
        let mut tuples: Vec<Vec<Sym>> = vec![Vec::new()];
        for _ in 0..n {
            tuples = tuples
                .iter()
                .flat_map(|t| consts.iter().map(move |&c| [t.clone(), vec![c]].concat()))
                .collect();
        }
        for args in tuples {
            let fact = Fact::new(pred, args);
            assert_eq!(got.holds(&fact), want.holds(&fact), "{what}: {fact}");
        }
    }
    for c in db.constraints() {
        assert_eq!(
            satisfies_closed(got, &c.rq),
            satisfies_closed(want, &c.rq),
            "{what}: constraint {}",
            c.name
        );
    }
}

/// The transaction, an update after it, and every minimal repair of the
/// transaction's would-be state, each as a hypothetical over `db`'s
/// model against the oracle.
fn check(db: &Database, tx: &[Update], then: &[Update], what: &str) {
    let snap = db.snapshot();
    let base = Hypothetical::new(
        snap.model_arc(),
        snap.facts().clone(),
        Arc::new(snap.rules().clone()),
    );
    let after_tx = base.then(tx);
    assert_reads_as(&after_tx, &applied(db, &[tx]), db, &format!("{what}: tx"));
    let composed = after_tx.then(then);
    let want = applied(db, &[tx, then]);
    assert_reads_as(&composed, &want, db, &format!("{what}: tx, then"));

    let engine = RepairEngine::for_update(&snap, &Transaction::new(tx.to_vec())).with_options(
        RepairOptions {
            max_changes: 2,
            max_branches: 2_000,
            backend: RepairBackend::Search,
            ..RepairOptions::default()
        },
    );
    assert_reads_as(
        engine.state(),
        &applied(db, &[tx]),
        db,
        &format!("{what}: for_update"),
    );
    let Ok(report) = engine.repairs() else {
        return;
    };
    for repair in &report.repairs {
        let what = format!("{what}: repair {repair}");
        let want = applied(db, &[tx, repair.ops()]);
        assert_reads_as(&engine.state().then(repair.ops()), &want, db, &what);
        let consistent = db
            .constraints()
            .iter()
            .all(|c| satisfies_closed(&want, &c.rq));
        assert!(
            consistent,
            "{what}: reported, yet the oracle finds it violated"
        );
        assert!(engine.repair_restores_consistency(repair), "{what}");
    }
}

#[test]
fn hypotheticals_read_as_materialized_models_on_random_schemas() {
    let mut recursive = 0;
    for seed in 0..cases() {
        let db = random_schema(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let tx = random_updates(&db, &mut rng);
        let then = random_updates(&db, &mut rng);
        let graph = db.rules().graph();
        recursive += usize::from(
            db.rules()
                .rules()
                .iter()
                .any(|r| graph.reaches_recursion(r.head.pred)),
        );
        check(&db, &tx, &then, &format!("random schema seed {seed}"));
    }
    assert!(recursive > 0, "no random schema recursed");
}

#[test]
fn hypotheticals_read_as_materialized_models_on_workload_states() {
    for seed in 0..cases() {
        let updates = |all: Vec<Update>, at: usize| all[at..].to_vec();
        let (db, stream) = match seed % 3 {
            0 => (
                workload::tc_chain(6, seed),
                workload::tc_updates(6, 6, seed),
            ),
            1 => (
                workload::org(2, 2, seed),
                workload::org_updates(2, 2, 6, seed),
            ),
            _ => (
                workload::violation_state(3, seed),
                workload::violation_updates(6, seed),
            ),
        };
        let split = 1 + (seed as usize % 4);
        let tx = stream[..split].to_vec();
        check(
            &db,
            &tx,
            &updates(stream, split),
            &format!("workload {} seed {seed}", seed % 3),
        );
    }
}
