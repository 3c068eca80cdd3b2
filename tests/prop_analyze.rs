//! Properties of the static analyzer (`uniform::analyze`) against the
//! runtime layers it precomputes for, over randomized workload schemas.
//!
//! * **Closures** — the per-constraint predicate closures and their
//!   union in [`AnalyzedProgram`] are bit-identical to what
//!   `RepairEngine::report_closure` derives per state: the static
//!   closure plus the predicates of the report's own repair operations
//!   (on a consistent state the sole repair is empty, so the two
//!   coincide exactly).
//! * **Read patterns** — the precompiled pattern templates specialize
//!   to exactly the binding-level read set `CheckReport::read_patterns`
//!   emits, proven against a naive oracle reimplemented here straight
//!   from the `Rule` structures (no shared code with
//!   `uniform_datalog::patterns`).
//! * **Refusal** — a candidate constraint the analyzer proves
//!   unsatisfiable is refused by `try_add_constraint` on *every* EDB —
//!   the verdict is a property of the schema, not the facts — with a
//!   typed `UniformError::Analyze` carrying UA0301, distinct from the
//!   repairable `CurrentlyViolated` path.
//!
//! Scaled by `PROPTEST_CASES` (13 schemas per seed, ≥256 schemas at
//! the default).

use std::collections::{BTreeSet, HashMap, HashSet};
use uniform::logic::{normalize, parse_formula, Rule, Sym, Term};
use uniform::workload;
use uniform::{
    AnalyzeCode, Analyzer, Checker, ConcurrentDatabase, Constraint, Database, ReadPattern,
    RepairEngine, SatClass, Transaction, UniformError, UniformOptions, Update,
};

fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

/// Seeds to run: 13 schemas each, covering at least `cases()` schemas.
fn seeds() -> u64 {
    cases().div_ceil(13).max(4)
}

/// Every workload schema shape at one seed — consistent and violating
/// states, recursive and non-recursive rule sets, dense and sparse
/// constraint coverage.
fn schemas(seed: u64) -> Vec<(&'static str, Database)> {
    vec![
        ("university", workload::university(4, seed)),
        (
            "deductive_university",
            workload::deductive_university(4, seed),
        ),
        (
            "irrelevant_induction",
            workload::irrelevant_induction(4, seed).0,
        ),
        (
            "unchanged_rule_instances",
            workload::unchanged_rule_instances(3, seed).0,
        ),
        (
            "shared_subquery",
            workload::shared_subquery_university(3, 2, seed),
        ),
        ("tc_chain", workload::tc_chain(5, seed)),
        ("org", workload::org(2, 2, seed)),
        ("rule_update", workload::rule_update_workload(4, 2, 2, seed)),
        ("optimizer", workload::optimizer_workload(6, seed)),
        ("commit_mix", workload::commit_mix_db(2, seed)),
        ("violation_mix", workload::violation_mix_db(seed)),
        ("violation_state", workload::violation_state(3, seed)),
        ("violation_dense", workload::violation_dense_db(4, seed)),
    ]
}

// ---------------------------------------------------------------------------
// Property 1: static closures ≡ RepairEngine::report_closure.
// ---------------------------------------------------------------------------

/// `report_closure` = constraint closure ∪ repair-op predicates. The
/// static side of that union must be exactly `closure_union` (or
/// `closure_of(i)` for a single-constraint engine), in the same `Sym`
/// order.
fn assert_report_closure(label: &str, engine: &RepairEngine, static_closure: &[Sym]) {
    let Ok(report) = engine.repairs() else {
        // Repair budget exhausted — nothing to compare on this state.
        return;
    };
    let mut expect: BTreeSet<Sym> = static_closure.iter().copied().collect();
    for set in &report.repairs {
        for op in set.ops() {
            expect.insert(op.fact.pred);
        }
    }
    assert_eq!(
        expect.into_iter().collect::<Vec<Sym>>(),
        engine.report_closure(&report),
        "{label}: static closure ∪ repair ops must equal report_closure"
    );
}

#[test]
fn static_closures_match_repair_engine() {
    for seed in 0..seeds() {
        for (name, db) in schemas(seed) {
            let label = format!("{name}/{seed}");
            let analyzed = Analyzer::of_database(&db).analyze();

            // Whole constraint set.
            let engine = RepairEngine::new(
                db.facts().clone(),
                db.rules().clone(),
                db.constraints().to_vec(),
            );
            assert_report_closure(&label, &engine, analyzed.closure_union());

            // Each constraint on its own, plus the indexing invariants.
            let names: HashSet<&str> = db.constraints().iter().map(|c| c.name.as_str()).collect();
            let mut union: BTreeSet<Sym> = BTreeSet::new();
            for (i, c) in db.constraints().iter().enumerate() {
                let one = analyzed.closure_of(i);
                assert!(
                    one.windows(2).all(|w| w[0] < w[1]),
                    "{label}: closure_of({i}) must be sorted and deduped"
                );
                union.extend(one.iter().copied());
                if names.len() == db.constraints().len() {
                    assert_eq!(
                        analyzed.constraint_closure(&c.name),
                        Some(one),
                        "{label}: name lookup must agree with positional"
                    );
                }
                let single =
                    RepairEngine::new(db.facts().clone(), db.rules().clone(), vec![c.clone()]);
                assert_report_closure(&format!("{label}:{}", c.name), &single, one);
            }
            assert_eq!(
                union.into_iter().collect::<Vec<Sym>>(),
                analyzed.closure_union(),
                "{label}: closure_union must be the union of the parts"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property 2: read-pattern templates ≡ a naive closure over the rules.
// ---------------------------------------------------------------------------

type Pattern = (Sym, Vec<Option<Sym>>);

/// The uncompiled pattern closure, written directly against the `Rule`
/// structures with none of `uniform_datalog::patterns`' machinery: same
/// widening (all-unbound seeds and per-predicate overflow at the
/// documented cap), same head unification, same final order.
struct NaiveCloser<'a> {
    rules: &'a [Rule],
    seen: BTreeSet<Pattern>,
    counts: HashMap<Sym, usize>,
    widened: BTreeSet<Sym>,
    frontier: Vec<Pattern>,
}

impl<'a> NaiveCloser<'a> {
    fn new(rules: &'a [Rule]) -> NaiveCloser<'a> {
        NaiveCloser {
            rules,
            seen: BTreeSet::new(),
            counts: HashMap::new(),
            widened: BTreeSet::new(),
            frontier: Vec::new(),
        }
    }

    fn add(&mut self, pred: Sym, args: Vec<Option<Sym>>) {
        if self.widened.contains(&pred) {
            return;
        }
        if args.iter().all(|a| a.is_none()) {
            self.widen(pred, args.len());
            return;
        }
        if !self.seen.insert((pred, args.clone())) {
            return;
        }
        let count = self.counts.entry(pred).or_insert(0);
        *count += 1;
        if *count > uniform::datalog::MAX_PATTERNS_PER_PRED {
            self.widen(pred, args.len());
            return;
        }
        self.frontier.push((pred, args));
    }

    fn widen(&mut self, pred: Sym, arity: usize) {
        self.widened.insert(pred);
        self.seen.retain(|(p, _)| *p != pred);
        let whole = vec![None; arity];
        self.seen.insert((pred, whole.clone()));
        self.frontier.push((pred, whole));
    }

    /// Unify `args` with the head of `rule`: `None` when a head
    /// constant or a repeated head variable contradicts the pattern,
    /// else the child pattern of every body literal.
    fn through_rule(rule: &Rule, args: &[Option<Sym>]) -> Option<Vec<Pattern>> {
        let mut bindings: HashMap<Sym, Sym> = HashMap::new();
        for (i, term) in rule.head.args.iter().enumerate() {
            let Some(bound) = args.get(i).copied().flatten() else {
                continue;
            };
            match term {
                Term::Const(c) => {
                    if *c != bound {
                        return None;
                    }
                }
                Term::Var(v) => match bindings.get(v) {
                    Some(&prev) if prev != bound => return None,
                    _ => {
                        bindings.insert(*v, bound);
                    }
                },
            }
        }
        Some(
            rule.body
                .iter()
                .map(|lit| {
                    let child = lit
                        .atom
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => Some(*c),
                            Term::Var(v) => bindings.get(v).copied(),
                        })
                        .collect();
                    (lit.atom.pred, child)
                })
                .collect(),
        )
    }

    fn close(mut self) -> Vec<Pattern> {
        while let Some((pred, args)) = self.frontier.pop() {
            let children: Vec<Pattern> = self
                .rules
                .iter()
                .filter(|r| r.head.pred == pred)
                .filter_map(|r| Self::through_rule(r, &args))
                .flatten()
                .collect();
            for (child_pred, child_args) in children {
                self.add(child_pred, child_args);
            }
        }
        let mut patterns: Vec<Pattern> = self.seen.into_iter().collect();
        patterns.sort_by(|a, b| {
            let key = |p: &Pattern| {
                (
                    p.0.as_str(),
                    p.1.iter()
                        .map(|a| a.map(|c| c.as_str()))
                        .collect::<Vec<_>>(),
                )
            };
            key(a).cmp(&key(b))
        });
        patterns
    }
}

/// A seeded transaction over a schema's declared relations: a few
/// inserts and deletes of random (not necessarily existing) tuples.
fn sample_tx(db: &Database, seed: u64) -> Transaction {
    let mut preds: Vec<(String, usize)> = db
        .facts()
        .predicates()
        .filter_map(|p| {
            db.facts()
                .relation(p)
                .map(|r| (p.as_str().to_string(), r.arity()))
        })
        .collect();
    preds.sort();
    let pred_refs: Vec<(&str, usize)> = preds.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    let consts = ["a", "b", "c", "s1", "d1", "m0", "x"];
    let updates: Vec<Update> = workload::random_facts(&pred_refs, &consts, 4, seed)
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            if i % 3 == 2 {
                Update::delete(f)
            } else {
                Update::insert(f)
            }
        })
        .collect();
    Transaction::new(updates)
}

#[test]
fn read_patterns_match_naive_oracle() {
    for seed in 0..seeds() {
        for (name, db) in schemas(seed) {
            if db.facts().predicates().next().is_none() {
                continue;
            }
            let checker = Checker::new(&db);
            for round in 0..2u64 {
                let tx = sample_tx(&db, seed.wrapping_mul(2).wrapping_add(round));
                let label = format!("{name}/{seed}/{round}");

                // The runtime side: the checker's reported read set.
                let got: Vec<Pattern> = checker
                    .check(&tx)
                    .read_patterns
                    .iter()
                    .map(|p: &ReadPattern| (p.pred, p.args.clone()))
                    .collect();

                // The oracle: re-derive the seeds exactly as documented
                // — the transaction's own tuples fully bound, plus
                // every trigger and instance literal of the compiled
                // update constraints — and close them through the raw
                // rules.
                let literals: Vec<_> = tx.updates.iter().map(|u| u.to_literal()).collect();
                let compiled = checker.compile(&literals);
                let mut naive = NaiveCloser::new(db.rules().rules());
                for u in &tx.updates {
                    naive.add(u.fact.pred, u.fact.args.iter().map(|&c| Some(c)).collect());
                }
                for uc in &compiled.update_constraints {
                    naive.add(
                        uc.trigger.atom.pred,
                        uc.trigger.atom.args.iter().map(|t| t.as_const()).collect(),
                    );
                    for occ in uc.instance.literals() {
                        naive.add(
                            occ.literal.atom.pred,
                            occ.literal.atom.args.iter().map(|t| t.as_const()).collect(),
                        );
                    }
                }
                assert_eq!(
                    got,
                    naive.close(),
                    "{label}: template specialization must equal the naive closure"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property 3: proven unsatisfiability is EDB-independent and typed.
// ---------------------------------------------------------------------------

/// `(label, base program, candidate name, candidate formula)` — each
/// base is consistent on its own; adding the candidate makes the
/// constraint set unsatisfiable *as a set*, whatever the facts.
const UNSAT_BASES: &[(&str, &str, &str, &str)] = &[
    (
        "direct",
        "p(a).\nconstraint some_p: exists X: p(X).",
        "no_p",
        "forall X: p(X) -> false",
    ),
    (
        "derived",
        "q(X) :- p(X).\np(a).\nconstraint some_p: exists X: p(X).",
        "no_q",
        "forall X: q(X) -> false",
    ),
    (
        "chained",
        "leads(ann, sales).\ndepartment(sales).\n\
         constraint some_dept: exists X: department(X).\n\
         constraint led: forall X: department(X) -> (exists Y: leads(Y, X)).",
        "no_leads",
        "forall X, Y: leads(X, Y) -> false",
    ),
];

/// The base program with a seeded EDB bolted on: extra tuples over
/// unconstrained relations (and `p`, harmless in every base).
fn noisy_source(base: &str, seed: u64) -> String {
    let consts = ["a", "b", "c", "d", "e"];
    let mut src = base.to_string();
    for f in workload::random_facts(&[("noise", 1), ("other", 2), ("p", 1)], &consts, 5, seed) {
        src.push_str(&format!("{f}.\n"));
    }
    src
}

#[test]
fn unsatisfiable_candidates_are_refused_on_every_edb() {
    for seed in 0..seeds().min(16) {
        for (idx, (label, base, name, formula)) in UNSAT_BASES.iter().enumerate() {
            let src = noisy_source(base, seed.wrapping_mul(31).wrapping_add(idx as u64));
            let db = ConcurrentDatabase::parse(&src).unwrap();

            // The analyzer proves the candidate set unsatisfiable from
            // rules and constraints alone — it never reads the facts.
            let mut candidate = db.snapshot().constraints().to_vec();
            candidate.push(Constraint::new(
                name.to_string(),
                normalize(&parse_formula(formula).unwrap()).unwrap(),
            ));
            let analyzed = Analyzer::new(db.snapshot().rules().clone(), candidate).analyze();
            assert_eq!(
                analyzed.set_class(),
                SatClass::Unsatisfiable,
                "{label}/{seed}: the candidate set must classify as unsatisfiable"
            );
            let refusal = analyzed.refusal().expect("unsatisfiable set must refuse");
            assert!(refusal
                .diagnostics
                .iter()
                .any(|d| d.code == AnalyzeCode::UnsatisfiableSet && d.is_error()));

            // And the database refuses it with the typed UA0301 error on
            // this EDB — never the repairable CurrentlyViolated path.
            let before = db.snapshot().constraints().len();
            match db.try_add_constraint(name, formula).unwrap_err() {
                UniformError::Analyze(e) => {
                    let d = e.primary().expect("refusal carries a diagnostic");
                    assert_eq!(d.code.as_str(), "UA0301", "{label}/{seed}");
                    assert!(d.is_error());
                }
                other => panic!("{label}/{seed}: expected a static Analyze refusal, got {other}"),
            }
            assert_eq!(
                db.snapshot().constraints().len(),
                before,
                "{label}/{seed}: a refused constraint must not be registered"
            );

            // An unchecked load takes the same typed path.
            let cdb = ConcurrentDatabase::from_database(
                Database::parse(&src).unwrap(),
                UniformOptions::default(),
            );
            match cdb.try_add_constraint(name, formula).unwrap_err() {
                UniformError::Analyze(e) => {
                    assert_eq!(e.primary().unwrap().code, AnalyzeCode::UnsatisfiableSet);
                }
                other => panic!("{label}/{seed} (unchecked load): got {other}"),
            }
        }

        // Contrast: a satisfiable-but-currently-violated candidate is a
        // different refusal entirely — repairable, with the repair.
        let src = noisy_source(UNSAT_BASES[0].1, seed);
        let db = ConcurrentDatabase::parse(&src).unwrap();
        match db
            .try_add_constraint("p_has_q2", "forall X: p(X) -> q2(X)")
            .unwrap_err()
        {
            UniformError::CurrentlyViolated { constraint, .. } => {
                assert_eq!(constraint, "p_has_q2");
            }
            other => panic!("violated/{seed}: expected CurrentlyViolated, got {other}"),
        }
    }
}
