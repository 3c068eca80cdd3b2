//! The repair engine's differential proof: brute force on small
//! domains.
//!
//! Over ≥256 randomized inconsistent states (the `violation_mix`
//! workload: four constraint classes — implication, domain,
//! existential, derived-trigger — over a 3-constant active domain,
//! churned by raw unguarded updates), the suite checks:
//!
//! * **soundness** — every repair the engine emits, applied to the
//!   state, leaves zero violations (full recomputation, not the
//!   engine's own verifier);
//! * **minimality & completeness** — the engine's repair list equals,
//!   set for set, the brute-force enumeration of all subset-minimal
//!   repairs over the *full operation universe* (every deletion of a
//!   current fact, every insertion of a known-predicate fact over the
//!   active domain) up to the shared fact budget;
//! * **certain answers** — `consistent_answers` equals the
//!   intersection of the query's answers over all brute-forced minimal
//!   repairs, each evaluated on a *materialized* repaired database
//!   (the oracle shares nothing with the engine's overlay path);
//! * **AutoRepair maintenance** — committing violation-heavy streams
//!   under `ViolationPolicy::AutoRepair` keeps every post-commit
//!   maintained model bit-identical to `Model::compute` on the
//!   repaired EDB, and the final state consistent.

use std::collections::{BTreeMap, BTreeSet};
use uniform::datalog::satisfies_closed;
use uniform::logic::{parse_query, Literal, Subst, Sym, Term};
use uniform::repair::{RepairEngine, RepairError, RepairOptions, RepairSet, ViolationPolicy};
use uniform::workload;
use uniform::{ConcurrentDatabase, Database, Fact, Model, TxnError, UniformOptions, Update};

/// The shared fact budget: both the engine and the brute-force oracle
/// enumerate repairs of at most this many operations.
const MAX_CHANGES: usize = 3;

fn options() -> RepairOptions {
    RepairOptions {
        max_changes: MAX_CHANGES,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        ..RepairOptions::default()
    }
}

/// ≥256 randomized states; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo.
fn schedules() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

/// Does applying `repair` to `db` leave every constraint satisfied?
/// Independent of the engine: materialize and recompute.
fn consistent_after(db: &Database, repair: &RepairSet) -> bool {
    let edb = repair.apply_to(db.facts());
    let model = Model::compute(&edb, db.rules());
    db.constraints()
        .iter()
        .all(|c| satisfies_closed(&model, &c.rq))
}

/// The full operation universe of `db`: deletions of every current
/// fact, insertions of every absent fact over known predicates × the
/// active domain (constants of facts, rules and constraints).
fn op_universe(db: &Database) -> Vec<Update> {
    let mut domain: BTreeSet<String> = db
        .facts()
        .active_domain()
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    let mut preds: BTreeMap<String, usize> = BTreeMap::new();
    for p in db.facts().predicates() {
        preds.insert(
            p.as_str().to_string(),
            db.arity_of(p).expect("fact predicates have arities"),
        );
    }
    for r in db.rules().rules() {
        for atom in std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom)) {
            preds.insert(atom.pred.as_str().to_string(), atom.args.len());
            for t in &atom.args {
                if let Some(c) = t.as_const() {
                    domain.insert(c.as_str().to_string());
                }
            }
        }
    }
    for c in db.constraints() {
        for occ in c.rq.literals() {
            let atom = &occ.literal.atom;
            preds.insert(atom.pred.as_str().to_string(), atom.args.len());
            for t in &atom.args {
                if let Some(s) = t.as_const() {
                    domain.insert(s.as_str().to_string());
                }
            }
        }
    }
    let domain: Vec<String> = domain.into_iter().collect();

    let mut ops: Vec<Update> = Vec::new();
    let mut facts: Vec<Fact> = db.facts().iter().collect();
    facts.sort();
    for f in facts {
        ops.push(Update::delete(f));
    }
    for (pred, arity) in &preds {
        let mut idx = vec![0usize; *arity];
        if domain.is_empty() && *arity > 0 {
            continue;
        }
        'tuples: loop {
            let args: Vec<&str> = idx.iter().map(|&i| domain[i].as_str()).collect();
            let fact = Fact::parse_like(pred, &args);
            if !db.facts().contains(&fact) {
                ops.push(Update::insert(fact));
            }
            if *arity == 0 {
                break;
            }
            for slot in idx.iter_mut() {
                *slot += 1;
                if *slot < domain.len() {
                    continue 'tuples;
                }
                *slot = 0;
            }
            break;
        }
    }
    ops
}

/// Brute force: every subset of the operation universe up to
/// `MAX_CHANGES` ops, smallest first, keeping the consistent ones that
/// have no smaller consistent subset — i.e. all subset-minimal repairs
/// within the budget.
fn brute_force_minimal(db: &Database) -> Vec<RepairSet> {
    let ops = op_universe(db);
    let mut minimal: Vec<RepairSet> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    fn enumerate(
        db: &Database,
        ops: &[Update],
        start: usize,
        stack: &mut Vec<usize>,
        size: usize,
        minimal: &mut Vec<RepairSet>,
    ) {
        if stack.len() == size {
            let rs = RepairSet::from_ops(stack.iter().map(|&i| ops[i].clone()));
            if minimal.iter().any(|m| m.is_subset_of(&rs)) {
                return;
            }
            if consistent_after(db, &rs) {
                minimal.push(rs);
            }
            return;
        }
        for i in start..ops.len() {
            stack.push(i);
            enumerate(db, ops, i + 1, stack, size, minimal);
            stack.pop();
        }
    }
    for size in 0..=MAX_CHANGES {
        enumerate(db, &ops, 0, &mut stack, size, &mut minimal);
    }
    minimal.sort();
    minimal
}

/// Oracle-side certain answers: intersect the query's answers over all
/// `repairs`, each applied to a **materialized** copy of the database
/// (nothing shared with the engine's overlay evaluation).
fn brute_certain_answers(
    db: &Database,
    repairs: &[RepairSet],
    query: &[Literal],
) -> BTreeSet<String> {
    let mut vars: Vec<Sym> = Vec::new();
    for l in query {
        for v in l.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let mut certain: Option<BTreeSet<String>> = None;
    for repair in repairs {
        let edb = repair.apply_to(db.facts());
        let model = Model::compute(&edb, db.rules());
        let answers: BTreeSet<String> =
            uniform::datalog::all_solutions(&model, query, &mut Subst::new(), &vars)
                .iter()
                .map(|s| render_binding(&vars, s))
                .collect();
        certain = Some(match certain {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        });
    }
    certain.unwrap_or_default()
}

fn render_binding(vars: &[Sym], s: &Subst) -> String {
    vars.iter()
        .filter_map(|&v| match s.walk(Term::Var(v)) {
            Term::Const(c) => Some(format!("{}={}", v.as_str(), c.as_str())),
            Term::Var(_) => None,
        })
        .collect::<Vec<_>>()
        .join(",")
}

const QUERIES: &[&str] = &["p(X)", "q(X)", "flagged(X)", "s(X, Y)", "ok(X)"];

#[test]
fn repairs_match_brute_force_over_randomized_states() {
    let mut certain_checked = 0u64;
    for seed in 0..schedules() {
        let churn = 2 + (seed % 5) as usize;
        let db = workload::violation_state(churn, seed);
        let engine = RepairEngine::new(
            db.facts().clone(),
            db.rules().clone(),
            db.constraints().to_vec(),
        )
        .with_options(options());
        let oracle = brute_force_minimal(&db);
        match engine.repairs() {
            Ok(report) => {
                assert!(
                    report.complete,
                    "seed {seed}: enumeration must be exhaustive"
                );
                // (a) Soundness: applied repairs leave zero violations.
                for r in &report.repairs {
                    assert!(
                        consistent_after(&db, r),
                        "seed {seed}: repair {r} does not restore consistency"
                    );
                }
                // (b) Exactly the brute-forced subset-minimal repairs.
                let got: Vec<String> = report.repairs.iter().map(|r| r.to_string()).collect();
                let want: Vec<String> = oracle.iter().map(|r| r.to_string()).collect();
                assert_eq!(
                    got, want,
                    "seed {seed}: repair sets diverge from brute force"
                );
                // (c) Certain answers = intersection over the
                // brute-forced repairs on materialized databases. Only
                // claimable when the fact budget never clipped a branch
                // (then the within-budget repairs are provably ALL
                // minimal repairs); on clipped seeds the API must
                // refuse instead of answering unsoundly.
                if !report.covers_all_minimal_repairs() {
                    let err = engine
                        .consistent_answers(&parse_query(QUERIES[0]).unwrap())
                        .unwrap_err();
                    assert!(
                        matches!(
                            err,
                            RepairError::BudgetExhausted {
                                budget_clipped: true,
                                ..
                            }
                        ),
                        "seed {seed}: clipped enumeration must refuse certainty: {err}"
                    );
                    continue;
                }
                certain_checked += 1;
                for query in QUERIES {
                    let lits = parse_query(query).unwrap();
                    let got: BTreeSet<String> = engine
                        .consistent_answers(&lits)
                        .unwrap()
                        .iter()
                        .map(|binding| {
                            binding
                                .iter()
                                .map(|(v, c)| format!("{}={}", v.as_str(), c.as_str()))
                                .collect::<Vec<_>>()
                                .join(",")
                        })
                        .collect();
                    let want = brute_certain_answers(&db, &oracle, &lits);
                    assert_eq!(got, want, "seed {seed} query {query}");
                }
            }
            Err(RepairError::Unrepairable { .. }) => {
                assert!(
                    oracle.is_empty(),
                    "seed {seed}: engine found nothing, brute force found {oracle:?}"
                );
            }
            Err(e) => panic!("seed {seed}: unexpected repair failure: {e}"),
        }
    }
    assert!(
        certain_checked * 2 >= schedules(),
        "certain-answer oracle must cover most seeds, got {certain_checked}/{}",
        schedules()
    );
}

/// The consistent state must report exactly the empty repair, making
/// `consistent_answer` coincide with plain answering.
#[test]
fn consistent_states_get_the_empty_repair() {
    let db = workload::violation_mix_db(7);
    assert!(db.is_consistent());
    let engine = RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(options());
    let report = engine.repairs().unwrap();
    assert_eq!(report.repairs.len(), 1);
    assert!(report.repairs[0].is_empty());
    let brute = brute_force_minimal(&db);
    assert_eq!(brute.len(), 1);
    assert!(brute[0].is_empty());
}

/// AutoRepair under multi-writer churn: every admitted commit (repaired
/// or not) leaves the maintained model bit-identical to a from-scratch
/// `Model::compute` of the same snapshot, and the end state consistent.
#[test]
fn auto_repair_commits_keep_the_maintained_model_exact() {
    const WRITERS: usize = 2;
    const TXNS_PER_WRITER: usize = 4;
    const MAX_RETRIES: usize = 64;
    for seed in 0..schedules() {
        let (db, streams) = workload::violation_mix(WRITERS, TXNS_PER_WRITER, seed);
        let cdb = ConcurrentDatabase::from_database(
            db,
            UniformOptions {
                violation_policy: ViolationPolicy::AutoRepair,
                ..UniformOptions::default()
            },
        );
        std::thread::scope(|scope| {
            for stream in &streams {
                let cdb = cdb.clone();
                scope.spawn(move || {
                    for tx in stream {
                        let mut attempts = 0;
                        loop {
                            attempts += 1;
                            let mut txn = cdb.begin();
                            for u in &tx.updates {
                                txn.stage(u.clone());
                            }
                            match cdb.commit(&txn) {
                                Ok(outcome) => {
                                    if let Some(repair) = &outcome.repair {
                                        assert!(
                                            !repair.is_empty(),
                                            "seed {seed}: applied repairs are non-trivial"
                                        );
                                    }
                                    let snap = cdb.snapshot();
                                    let fresh = Model::compute(snap.facts(), snap.rules());
                                    let mut got: Vec<String> =
                                        snap.model().iter().map(|f| f.to_string()).collect();
                                    let mut want: Vec<String> =
                                        fresh.iter().map(|f| f.to_string()).collect();
                                    got.sort();
                                    want.sort();
                                    assert_eq!(
                                        got, want,
                                        "seed {seed}: maintained model != rematerialization"
                                    );
                                    break;
                                }
                                Err(e @ TxnError::RepairFailed { .. }) => {
                                    panic!("seed {seed}: {e}")
                                }
                                Err(e) if e.is_retriable() && attempts <= MAX_RETRIES => continue,
                                Err(e) => panic!("seed {seed}: unexpected commit failure: {e}"),
                            }
                        }
                    }
                });
            }
        });
        assert!(
            cdb.with_database(|d| d.is_consistent()),
            "seed {seed}: AutoRepair must land every stream consistently"
        );
    }
}
