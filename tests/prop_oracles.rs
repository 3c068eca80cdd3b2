//! Property-based oracles over the whole stack.
//!
//! * normalization to restricted-quantification form preserves truth
//!   (checked against the naive quantify-over-the-domain semantics);
//! * the descendant-driven `delta` equals the brute-force model diff;
//! * the two-phase checker agrees with the full re-check (and with the
//!   interleaved and Lloyd–Topor baselines) on random databases and
//!   updates, including transactions whose verdicts come from its
//!   verdict cache;
//! * satisfiability verdicts are sound: returned models satisfy the
//!   constraints, and `Unsatisfiable` survives exhaustive small-model
//!   search.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;
use uniform::datalog::{
    satisfies_closed, Database, FactSet, MaintainedModel, Model, OverlayEngine, RuleSet,
    Transaction, Update,
};
use uniform::integrity::{induced_updates_by_diff, verdicts_agree, Checker, DeltaEngine};
use uniform::logic::semantics::{eval_closed, FiniteInterp};
use uniform::logic::{
    normalize, parse_fact, parse_formula, parse_rule, Atom, Fact, Formula, Literal, Sym,
};
use uniform::satisfiability::{SatChecker, SatOptions, SatOutcome};

// ---------- generators -----------------------------------------------------

/// Random ground facts over a small fixed schema.
fn arb_facts() -> impl Strategy<Value = Vec<Fact>> {
    let consts = ["a", "b", "c"];
    let unary = ["p", "q", "s"];
    let binary = ["l", "r"];
    let one = (0..unary.len(), 0..consts.len())
        .prop_map(move |(p, c)| Fact::parse_like(unary[p], &[consts[c]]));
    let two = (0..binary.len(), 0..consts.len(), 0..consts.len())
        .prop_map(move |(p, c1, c2)| Fact::parse_like(binary[p], &[consts[c1], consts[c2]]));
    prop::collection::vec(prop_oneof![one, two], 0..12)
}

/// Random update literal over the same schema.
fn arb_update() -> impl Strategy<Value = Update> {
    (arb_facts(), any::<bool>(), 0..64usize).prop_map(|(facts, insert, pick)| {
        let fact = if facts.is_empty() {
            Fact::parse_like("p", &["a"])
        } else {
            facts[pick % facts.len()].clone()
        };
        if insert {
            Update::insert(fact)
        } else {
            Update::delete(fact)
        }
    })
}

/// The pool of (stratified, range-restricted) rules. The recursive
/// schema covers linear and non-linear closure (`tc`), mutual recursion
/// (`ev`/`od`) and recursion under negation in a higher stratum
/// (`unreached`); with three constants, cyclic graphs — where a deletion
/// leaves an alternative derivation — are common.
const RULE_POOL: [&str; 11] = [
    "m(X,Y) :- l(X,Y).",
    "t(X) :- p(X), q(X).",
    "u(X) :- p(X), not q(X).",
    "tc(X,Y) :- r(X,Y).",
    "tc(X,Z) :- tc(X,Y), r(Y,Z).",
    "w(X) :- m(X,Y), s(Y).",
    "tc(X,Z) :- tc(X,Y), tc(Y,Z).",
    "od(X,Y) :- l(X,Y).",
    "ev(X,Z) :- od(X,Y), l(Y,Z).",
    "od(X,Z) :- ev(X,Y), l(Y,Z).",
    "unreached(X) :- p(X), not tc(a,X).",
];

/// A random subset of [`RULE_POOL`].
fn arb_rules() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::sample::subsequence(RULE_POOL.to_vec(), 0..=5)
}

/// A random subset of a pool of constraints (all domain independent).
fn arb_constraints() -> impl Strategy<Value = Vec<&'static str>> {
    let pool: Vec<&'static str> = vec![
        "forall X: t(X) -> s(X)",
        "forall X, Y: m(X,Y) -> p(X)",
        "forall X: u(X) -> s(X)",
        "forall X: p(X) -> q(X) | s(X)",
        "forall X, Y: l(X,Y) -> (exists Z: r(Y,Z))",
        "forall X: tc(X,X) -> false",
        "forall X, Y, Z: l(X,Y) & l(X,Z) -> r(Y,Z)",
        "forall X: unreached(X) -> s(X)",
        "forall X, Y: ev(X,Y) -> r(X,Y)",
    ];
    proptest::sample::subsequence(pool, 0..=4)
}

/// Random general formulas for the normalization oracle.
fn arb_formula() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        (0..3usize, 0..4usize).prop_map(|(p, t)| {
            let preds = ["p", "q", "s"];
            let terms = ["X", "Y", "a", "b"];
            Formula::Atom(Atom::parse_like(preds[p], &[terms[t]]))
        }),
        (0..2usize, 0..4usize, 0..4usize).prop_map(|(p, t1, t2)| {
            let preds = ["l", "r"];
            let terms = ["X", "Y", "a", "b"];
            Formula::Atom(Atom::parse_like(preds[p], &[terms[t1], terms[t2]]))
        }),
    ];
    atom.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::Or(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), any::<bool>(), any::<bool>()).prop_map(|(f, forall, on_x)| {
                let v = Sym::new(if on_x { "X" } else { "Y" });
                if forall {
                    Formula::forall(vec![v], f)
                } else {
                    Formula::exists(vec![v], f)
                }
            }),
        ]
    })
}

fn close_universally(f: Formula) -> Formula {
    let free = f.free_vars();
    if free.is_empty() {
        // Already closed.
        return f;
    }
    // Close with a range over a catch-all predicate so the result stays
    // domain independent: ∀X [¬dom(X) ∨ …].
    let mut parts: Vec<Formula> = free
        .iter()
        .map(|&v| {
            Formula::not(Formula::Atom(Atom::new(
                "dom",
                vec![uniform::logic::Term::Var(v)],
            )))
        })
        .collect();
    parts.push(f);
    Formula::forall(free, Formula::Or(parts))
}

fn build_db(facts: &[Fact], rules: &[&str], constraints: &[&str]) -> Option<Database> {
    let mut src = String::new();
    for r in rules {
        src.push_str(r);
        src.push('\n');
    }
    for (i, c) in constraints.iter().enumerate() {
        src.push_str(&format!("constraint k{i}: {c}.\n"));
    }
    let mut db = Database::parse(&src).ok()?;
    for f in facts {
        db.insert_fact(f);
    }
    Some(db)
}

// ---------- properties ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Normalization preserves truth w.r.t. the naive semantics, on every
    /// interpretation whose domain covers the active constants.
    #[test]
    fn normalization_preserves_semantics(f in arb_formula(), facts in arb_facts()) {
        let closed = close_universally(f);
        let Ok(rq) = normalize(&closed) else {
            // Not domain independent — correctly rejected.
            return Ok(());
        };
        // Interpretation: random facts plus dom() covering all constants.
        let mut all = facts.clone();
        for c in ["a", "b", "c"] {
            all.push(Fact::parse_like("dom", &[c]));
        }
        let interp = FiniteInterp::from_facts(all.clone());
        let naive = eval_closed(&closed, &interp);
        let fs = FactSet::from_facts(all);
        let range_driven = satisfies_closed(&fs, &rq);
        prop_assert_eq!(
            naive, range_driven,
            "normalize changed the meaning of {} (rq: {})", closed, rq
        );
    }

    /// The descendant-driven delta equals the brute-force model diff, for
    /// every pattern over the schema.
    #[test]
    fn delta_matches_model_diff(facts in arb_facts(), rules in arb_rules(), update in arb_update()) {
        let Some(db) = build_db(&facts, &rules, &[]) else { return Ok(()) };
        let before = db.model();
        let mut after_edb = db.facts().clone();
        update.apply(&mut after_edb);
        let after = Model::compute(&after_edb, db.rules());

        let mut expected: Vec<String> = induced_updates_by_diff(&before, &after)
            .iter().map(|l| l.to_string()).collect();
        expected.sort();

        let adds: Vec<Fact> = update.added().cloned().into_iter().collect();
        let dels: Vec<Fact> = update.removed().cloned().into_iter().collect();
        let engine = OverlayEngine::over_model(&before, db.facts(), db.rules(), adds, dels);
        let updates = [update.clone()];
        let delta = DeltaEngine::new(&before, &engine, db.rules(), &updates);

        let mut got: HashSet<String> = HashSet::new();
        for (pred, arity) in [
            ("p", 1), ("q", 1), ("s", 1), ("l", 2), ("r", 2),
            ("m", 2), ("t", 1), ("u", 1), ("tc", 2), ("w", 1),
            ("od", 2), ("ev", 2), ("unreached", 1),
        ] {
            let args: Vec<&str> = ["V1", "V2"][..arity].to_vec();
            for positive in [true, false] {
                let pattern = Literal::new(positive, Atom::parse_like(pred, &args));
                for answer in delta.delta(&pattern) {
                    got.insert(answer.to_string());
                }
            }
        }
        let mut got: Vec<String> = got.into_iter().collect();
        got.sort();
        prop_assert_eq!(got, expected, "update {:?} on {:?} with rules {:?}", update, facts, rules);
    }

    /// All four checking methods agree with each other (and hence with
    /// the ground truth) whenever the starting database is consistent.
    #[test]
    fn checker_agrees_with_baselines(
        facts in arb_facts(),
        rules in arb_rules(),
        constraints in arb_constraints(),
        update in arb_update(),
    ) {
        let Some(db) = build_db(&facts, &rules, &constraints) else { return Ok(()) };
        if !db.is_consistent() {
            // The method's precondition (Prop. 1-3: "satisfied in D").
            return Ok(());
        }
        let tx = Transaction::single(update);
        if let Err(e) = verdicts_agree(&db, &tx) {
            prop_assert!(false, "{} (facts {:?}, rules {:?}, constraints {:?})", e, facts, rules, constraints);
        }
    }
}

/// The recursive schema alone: every recursive shape of [`RULE_POOL`]
/// at once, with linear or non-linear closure.
fn recursive_rules(nonlinear: bool) -> Vec<&'static str> {
    vec![
        "tc(X,Y) :- r(X,Y).",
        if nonlinear {
            "tc(X,Z) :- tc(X,Y), tc(Y,Z)."
        } else {
            "tc(X,Z) :- tc(X,Y), r(Y,Z)."
        },
        "od(X,Y) :- l(X,Y).",
        "ev(X,Z) :- od(X,Y), l(Y,Z).",
        "od(X,Z) :- ev(X,Y), l(Y,Z).",
        "unreached(X) :- p(X), not tc(a,X).",
    ]
}

/// Fact `i` of the 21-fact universe of `r`, `l` (binary) and `p` over
/// three constants.
fn universe_fact(i: usize) -> Fact {
    let consts = ["a", "b", "c"];
    match i {
        0..=8 => Fact::parse_like("r", &[consts[i / 3], consts[i % 3]]),
        9..=17 => Fact::parse_like("l", &[consts[(i - 9) / 3], consts[(i - 9) % 3]]),
        _ => Fact::parse_like("p", &[consts[i - 18]]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The propagation kernel on dense recursive states, through both
    /// of its callers: the `delta` of every pattern and the maintained
    /// model's flips equal the model diff of transactions of up to four
    /// updates. Over three constants most states have cycles, so most
    /// deletions over-delete facts another path re-derives; the
    /// checker agrees with the baselines wherever the state is
    /// consistent.
    #[test]
    fn recursive_propagation_matches_model_diff(
        facts in prop::collection::vec(0..21usize, 3..14),
        nonlinear in any::<bool>(),
        updates in prop::collection::vec((0..21usize, any::<bool>()), 1..5),
    ) {
        let facts: Vec<Fact> = facts.into_iter().map(universe_fact).collect();
        let constraints = ["forall X: tc(X,X) -> p(X)", "forall X, Y: ev(X,Y) -> tc(X,Y) | p(Y)"];
        let db = build_db(&facts, &recursive_rules(nonlinear), &constraints).unwrap();
        let tx = Transaction::new(
            updates
                .into_iter()
                .map(|(i, insert)| {
                    let f = universe_fact(i);
                    if insert { Update::insert(f) } else { Update::delete(f) }
                })
                .collect(),
        );
        let before = db.model();
        let mut after_edb = db.facts().clone();
        for u in &tx.updates {
            u.apply(&mut after_edb);
        }
        let after = Model::compute(&after_edb, db.rules());
        let mut expected: Vec<String> = induced_updates_by_diff(&before, &after)
            .iter().map(|l| l.to_string()).collect();
        expected.sort();

        let (adds, dels) = tx.net_effect(db.facts());
        let net: Vec<Update> = adds.iter().cloned().map(Update::insert)
            .chain(dels.iter().cloned().map(Update::delete)).collect();
        let engine = OverlayEngine::over_model(&before, db.facts(), db.rules(), adds, dels);
        let delta = DeltaEngine::new(&before, &engine, db.rules(), &net);
        let mut got: Vec<String> = Vec::new();
        for (pred, arity) in [("r", 2), ("l", 2), ("p", 1), ("tc", 2), ("od", 2), ("ev", 2), ("unreached", 1)] {
            let args: Vec<&str> = ["V1", "V2"][..arity].to_vec();
            for positive in [true, false] {
                let pattern = Literal::new(positive, Atom::parse_like(pred, &args));
                got.extend(delta.delta(&pattern).iter().map(|l| l.to_string()));
            }
        }
        got.sort();
        prop_assert_eq!(&got, &expected, "delta of {:?} on {:?}", tx, facts);

        let mut maintained = MaintainedModel::with_model(
            db.facts().clone(), db.rules().clone(), before.facts().clone());
        let mut flips: Vec<String> = maintained.apply_transaction(&tx)
            .iter().map(|l| l.to_string()).collect();
        flips.sort();
        prop_assert_eq!(&flips, &expected, "maintained flips of {:?} on {:?}", tx, facts);

        if db.is_consistent() {
            if let Err(e) = verdicts_agree(&db, &tx) {
                prop_assert!(false, "{} ({:?} on {:?})", e, tx, facts);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satisfiability soundness: models verify; refutations survive
    /// exhaustive search over 1- and 2-element interpretations.
    #[test]
    fn satisfiability_verdicts_sound(constraints in arb_constraints(), extra in prop_oneof![
        Just("exists X: p(X)"),
        Just("exists X, Y: l(X,Y)"),
        Just("forall X: s(X) -> false"),
        Just("exists X: u(X)"),
    ]) {
        let mut all: Vec<&str> = constraints.clone();
        all.push(extra);
        let mut src = String::new();
        src.push_str("u(X) :- p(X), not q(X).\n");
        for (i, c) in all.iter().enumerate() {
            src.push_str(&format!("constraint k{i}: {c}.\n"));
        }
        let Ok(db) = Database::parse(&src) else { return Ok(()) };
        let checker = SatChecker::from_database(&db)
            .with_options(SatOptions { max_fresh_constants: 3, ..SatOptions::default() });
        let report = checker.check();
        match report.outcome {
            SatOutcome::Satisfiable { explicit, .. } => {
                let edb = FactSet::from_facts(explicit);
                let model = Model::compute(&edb, db.rules());
                for c in db.constraints() {
                    prop_assert!(
                        satisfies_closed(&model, &c.rq),
                        "witness violates {} for {:?}", c.name, all
                    );
                }
            }
            SatOutcome::Unsatisfiable => {
                // Exhaustive check: no model over 1 or 2 constants.
                prop_assert!(
                    !small_model_exists(&db, 2),
                    "refuted set has a small model: {:?}", all
                );
            }
            SatOutcome::Unknown { .. } => {
                // Inconclusive is always sound.
            }
        }
    }
}

/// Brute-force: does any interpretation over `n` constants satisfy the
/// database's constraints (under its rules' canonical semantics, with
/// every subset of base facts tried as the EDB)?
fn small_model_exists(db: &Database, n: usize) -> bool {
    let consts: Vec<&str> = ["e1", "e2"][..n].to_vec();
    // All possible base facts over EDB predicates.
    let mut universe: Vec<Fact> = Vec::new();
    for p in ["p", "q", "s"] {
        for c in &consts {
            universe.push(Fact::parse_like(p, &[c]));
        }
    }
    for p in ["l", "r"] {
        for c1 in &consts {
            for c2 in &consts {
                universe.push(Fact::parse_like(p, &[c1, c2]));
            }
        }
    }
    let m = universe.len();
    assert!(m <= 20, "universe too large for brute force");
    for mask in 0u32..(1 << m) {
        let facts = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| f.clone());
        let edb = FactSet::from_facts(facts);
        let model = Model::compute(&edb, db.rules());
        if db
            .constraints()
            .iter()
            .all(|c| satisfies_closed(&model, &c.rq))
        {
            return true;
        }
    }
    false
}

// ---------- deterministic regression companions -----------------------------

#[test]
fn normalization_oracle_smoke() {
    // One fixed instance of the property, as a fast regression.
    let f = parse_formula("forall X: p(X) -> (exists Y: l(X,Y) & ~r(Y,Y))").unwrap();
    let rq = normalize(&f).unwrap();
    let facts = vec![parse_fact("p(a).").unwrap(), parse_fact("l(a,b).").unwrap()];
    let interp = FiniteInterp::from_facts(facts.clone());
    let fs = FactSet::from_facts(facts);
    assert_eq!(eval_closed(&f, &interp), satisfies_closed(&fs, &rq));
}

#[test]
fn delta_oracle_smoke() {
    let db = build_db(
        &[parse_fact("l(a,b).").unwrap()],
        &["m(X,Y) :- l(X,Y)."],
        &[],
    )
    .unwrap();
    let before = db.model();
    let update = Update::delete(parse_fact("l(a,b).").unwrap());
    let mut after_edb = db.facts().clone();
    update.apply(&mut after_edb);
    let after = Model::compute(&after_edb, db.rules());
    assert_eq!(induced_updates_by_diff(&before, &after).len(), 2);
}

#[test]
fn small_model_search_is_exhaustive() {
    // Sanity for the brute-force oracle itself.
    let db =
        Database::parse("constraint a: exists X: p(X).\nconstraint b: forall X: p(X) -> q(X).\n")
            .unwrap();
    assert!(small_model_exists(&db, 1));
    let db2 =
        Database::parse("constraint a: exists X: p(X).\nconstraint b: forall X: p(X) -> false.\n")
            .unwrap();
    assert!(!small_model_exists(&db2, 2));
}

/// The verdict cache, differentially. On the §3.2 schema a new student
/// reaches the ground instance `attends(x, ddb)` twice — through `a`'s
/// explicit `student` trigger and `b`'s induced `enrolled` one — so the
/// two-phase checker answers the repeat from its verdict cache. The
/// random generators above almost never produce such a repeat; here
/// every cached verdict must still agree with the cache-free baselines.
#[test]
fn verdict_cache_hits_agree_with_baselines() {
    let cases = ProptestConfig::with_cases(192).effective_cases();
    let mut rng = StdRng::seed_from_u64(0x5eed_cac4e);
    let mut shared = 0;
    for case in 0..cases {
        let mut src = String::from(
            "enrolled(X, cs) :- student(X).\n\
             constraint a: forall X: student(X) -> attends(X, ddb).\n\
             constraint b: forall X: enrolled(X, cs) -> attends(X, ddb).\n",
        );
        for i in 0..rng.gen_range(0..4) {
            src.push_str(&format!("student(s{i}). attends(s{i}, ddb).\n"));
        }
        let db = Database::parse(&src).unwrap();
        let updates = (0..rng.gen_range(1..5))
            .map(|_| {
                let who = ["s0", "s1", "n0", "n1"][rng.gen_range(0..4usize)];
                let fact = if rng.gen_bool(0.5) {
                    Fact::parse_like("student", &[who])
                } else {
                    Fact::parse_like("attends", &[who, "ddb"])
                };
                if rng.gen_bool(0.7) {
                    Update::insert(fact)
                } else {
                    Update::delete(fact)
                }
            })
            .collect();
        let tx = Transaction::new(updates);
        verdicts_agree(&db, &tx).unwrap_or_else(|e| panic!("case {case}: {e}"));
        shared += Checker::new(&db).check(&tx).stats.instances_shared;
    }
    assert!(shared > 0, "no verdict was ever served from the cache");
}

#[test]
fn rules_parse_pool_is_valid() {
    for r in [
        "m(X,Y) :- l(X,Y).",
        "t(X) :- p(X), q(X).",
        "u(X) :- p(X), not q(X).",
        "tc(X,Y) :- r(X,Y).",
        "tc(X,Z) :- tc(X,Y), r(Y,Z).",
        "w(X) :- m(X,Y), s(Y).",
    ] {
        parse_rule(r).unwrap();
    }
    RuleSet::new(vec![
        parse_rule("tc(X,Y) :- r(X,Y).").unwrap(),
        parse_rule("tc(X,Z) :- tc(X,Y), r(Y,Z).").unwrap(),
    ])
    .unwrap();
    // The whole pool stratifies together.
    RuleSet::new(RULE_POOL.iter().map(|r| parse_rule(r).unwrap()).collect()).unwrap();
}

/// The recursive delta and checker on fixed cyclic graphs, every
/// single-fact update and one transaction that inserts into and deletes
/// from the recursive stratum at once: on a cycle most deletions
/// over-delete facts that another path re-derives.
#[test]
fn recursive_propagation_on_cycles_matches_model_diff() {
    let rules = [
        "tc(X,Y) :- r(X,Y).",
        "tc(X,Z) :- tc(X,Y), tc(Y,Z).",
        "od(X,Y) :- l(X,Y).",
        "ev(X,Z) :- od(X,Y), l(Y,Z).",
        "od(X,Z) :- ev(X,Y), l(Y,Z).",
        "unreached(X) :- p(X), not tc(a,X).",
    ];
    let constraints = [
        "forall X: unreached(X) -> s(X)",
        "forall X, Y: ev(X,Y) -> tc(X,Y)",
    ];
    let facts: Vec<Fact> = [
        "r(a,b).", "r(b,c).", "r(a,c).", "r(c,a).", "l(a,b).", "l(b,a).", "l(b,c).", "p(a).",
        "p(b).", "p(c).", "s(a).", "s(b).", "s(c).",
    ]
    .iter()
    .map(|f| parse_fact(f).unwrap())
    .collect();
    let db = build_db(&facts, &rules, &[]).unwrap();
    let checked = build_db(&facts, &rules, &constraints).unwrap();
    assert!(checked.is_consistent());
    let patterns = [
        ("r", 2),
        ("l", 2),
        ("p", 1),
        ("tc", 2),
        ("od", 2),
        ("ev", 2),
        ("unreached", 1),
    ];
    let mut txs: Vec<Transaction> = Vec::new();
    for c1 in ["a", "b", "c"] {
        for c2 in ["a", "b", "c"] {
            for pred in ["r", "l"] {
                let f = Fact::parse_like(pred, &[c1, c2]);
                txs.push(Transaction::single(Update::insert(f.clone())));
                txs.push(Transaction::single(Update::delete(f)));
            }
        }
        txs.push(Transaction::single(Update::delete(Fact::parse_like(
            "p",
            &[c1],
        ))));
    }
    txs.push(Transaction::new(vec![
        Update::delete(parse_fact("r(a,b).").unwrap()),
        Update::delete(parse_fact("r(c,a).").unwrap()),
        Update::insert(parse_fact("r(b,a).").unwrap()),
        Update::insert(parse_fact("l(c,a).").unwrap()),
    ]));
    for tx in &txs {
        let before = db.model();
        let mut after_edb = db.facts().clone();
        for u in &tx.updates {
            u.apply(&mut after_edb);
        }
        let after = Model::compute(&after_edb, db.rules());
        let mut expected: Vec<String> = induced_updates_by_diff(&before, &after)
            .iter()
            .map(|l| l.to_string())
            .collect();
        expected.sort();

        let (adds, dels) = tx.net_effect(db.facts());
        let net: Vec<Update> = adds
            .iter()
            .cloned()
            .map(Update::insert)
            .chain(dels.iter().cloned().map(Update::delete))
            .collect();
        let engine = OverlayEngine::over_model(&before, db.facts(), db.rules(), adds, dels);
        let delta = DeltaEngine::new(&before, &engine, db.rules(), &net);
        let mut got: Vec<String> = Vec::new();
        for (pred, arity) in patterns {
            let args: Vec<&str> = ["V1", "V2"][..arity].to_vec();
            for positive in [true, false] {
                let pattern = Literal::new(positive, Atom::parse_like(pred, &args));
                got.extend(delta.delta(&pattern).iter().map(|l| l.to_string()));
            }
        }
        got.sort();
        assert_eq!(got, expected, "{tx:?}");
        verdicts_agree(&checked, tx).unwrap_or_else(|e| panic!("{tx:?}: {e}"));
    }
}
