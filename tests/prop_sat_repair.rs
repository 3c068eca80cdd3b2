//! The SAT backend's differential proof: the bounded enforcement
//! search as oracle.
//!
//! Over ≥256 randomized inconsistent states the suite checks:
//!
//! * **backend agreement** — on every `violation_state` seed where the
//!   search answers, `RepairBackend::Sat` reports the *identical*
//!   minimal-repair list (rendered set for set) and identical certain
//!   answers, and never claims less coverage than the search proved;
//! * **crossover** — on `violation_dense` states starved of branch
//!   budget the search must refuse with `BudgetExhausted` while the
//!   SAT backend (and `RepairBackend::Auto`, escalating) still answers
//!   with the unique covered repair, verified consistent by full
//!   materialized recomputation;
//! * **preference order** — `preferred_repair` under seeded weights
//!   and protections returns a subset-minimal repair that never
//!   touches a protected relation and whose cost equals the
//!   brute-forced weight minimum over *all* protection-respecting
//!   subset-minimal repairs;
//! * **UNSAT-core sanity** — every `Unrepairable` classification from
//!   the SAT backend agrees with [`SatChecker`]'s bounded §4
//!   classification on states where both are defined, and a repair
//!   found by the clause encoding never coexists with an
//!   `Unsatisfiable` verdict from the enforcement search.

use std::collections::{BTreeMap, BTreeSet};
use uniform::datalog::satisfies_closed;
use uniform::logic::{parse_query, Sym};
use uniform::repair::{
    RepairBackend, RepairChooser, RepairEngine, RepairError, RepairOptions, RepairSet,
};
use uniform::workload;
use uniform::{Database, Fact, Model, SatChecker, SatOptions, SatOutcome, Update};

/// The shared fact budget on the `violation_state` seeds (the dense
/// crossover states use their own, sized to the violation count).
const MAX_CHANGES: usize = 3;

fn options(backend: RepairBackend) -> RepairOptions {
    RepairOptions {
        max_changes: MAX_CHANGES,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        backend,
    }
}

fn engine(db: &Database, opts: RepairOptions) -> RepairEngine {
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(opts)
}

/// ≥256 randomized states; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo.
fn schedules() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

/// Does applying `repair` to `db` leave every constraint satisfied?
/// Independent of both backends: materialize and recompute.
fn consistent_after(db: &Database, repair: &RepairSet) -> bool {
    let edb = repair.apply_to(db.facts());
    let model = Model::compute(&edb, db.rules());
    db.constraints()
        .iter()
        .all(|c| satisfies_closed(&model, &c.rq))
}

fn render(repairs: &[RepairSet]) -> Vec<String> {
    repairs.iter().map(|r| r.to_string()).collect()
}

fn render_answers(answers: &[Vec<(Sym, Sym)>]) -> BTreeSet<String> {
    answers
        .iter()
        .map(|binding| {
            binding
                .iter()
                .map(|(v, c)| format!("{}={}", v.as_str(), c.as_str()))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

const QUERIES: &[&str] = &["p(X)", "q(X)", "flagged(X)", "s(X, Y)", "ok(X)"];

/// Both backends on the same randomized states: identical repair
/// lists, identical certain answers, coverage never weaker than the
/// search's own proof.
#[test]
fn sat_backend_matches_the_search_oracle() {
    let mut answers_checked = 0u64;
    for seed in 0..schedules() {
        let churn = 2 + (seed % 5) as usize;
        let db = workload::violation_state(churn, seed);
        let search = engine(&db, options(RepairBackend::Search));
        let sat = engine(&db, options(RepairBackend::Sat));
        match search.repairs() {
            Ok(found) => {
                let clause = sat
                    .repairs()
                    .unwrap_or_else(|e| panic!("seed {seed}: SAT refused a searchable state: {e}"));
                assert_eq!(
                    render(&clause.repairs),
                    render(&found.repairs),
                    "seed {seed}: backend repair lists diverge"
                );
                if found.covers_all_minimal_repairs() {
                    // The search *proved* coverage; the exact SAT
                    // probe must reach the same conclusion, and the
                    // certain answers must agree query for query.
                    assert!(
                        clause.covers_all_minimal_repairs(),
                        "seed {seed}: SAT probe lost coverage the search proved"
                    );
                    answers_checked += 1;
                    for query in QUERIES {
                        let lits = parse_query(query).unwrap();
                        let got = render_answers(&sat.consistent_answers(&lits).unwrap());
                        let want = render_answers(&search.consistent_answers(&lits).unwrap());
                        assert_eq!(got, want, "seed {seed} query {query}");
                    }
                }
            }
            Err(RepairError::Unrepairable { .. }) => {
                let err = sat
                    .repairs()
                    .expect_err("seed {seed}: SAT repaired an unrepairable state");
                assert!(
                    matches!(err, RepairError::Unrepairable { .. }),
                    "seed {seed}: SAT must classify unrepairable states too: {err}"
                );
            }
            Err(e) => panic!("seed {seed}: unexpected search failure: {e}"),
        }
    }
    assert!(
        answers_checked * 2 >= schedules(),
        "certain-answer agreement must cover most seeds, got {answers_checked}/{}",
        schedules()
    );
}

/// Starved of branch budget on violation-dense states, the search
/// refuses; the SAT backend and the Auto escalation both still answer,
/// and the answer is genuinely a repair.
#[test]
fn sat_answers_states_the_search_refuses() {
    for seed in 0..schedules() {
        let n = 10 + (seed % 7) as usize;
        let db = workload::violation_dense_db(n, seed);
        let starved = |backend| RepairOptions {
            max_changes: 24,
            max_branches: 3_000,
            backend,
            ..RepairOptions::default()
        };
        let err = engine(&db, starved(RepairBackend::Search))
            .repairs()
            .expect_err("the dense state exceeds the starved branch budget");
        assert!(
            matches!(err, RepairError::BudgetExhausted { .. }),
            "seed {seed}: the search must refuse, not misclassify: {err}"
        );
        let clause = engine(&db, starved(RepairBackend::Sat))
            .repairs()
            .unwrap_or_else(|e| panic!("seed {seed}: SAT must answer the dense state: {e}"));
        assert_eq!(
            clause.repairs.len(),
            1,
            "seed {seed}: the dense minimal repair is unique"
        );
        assert_eq!(clause.repairs[0].len(), n, "seed {seed}: n deletions");
        assert!(
            clause.covers_all_minimal_repairs(),
            "seed {seed}: the exact probe covers the unique repair"
        );
        assert!(
            consistent_after(&db, &clause.repairs[0]),
            "seed {seed}: the SAT repair must restore consistency"
        );
        let auto = engine(&db, starved(RepairBackend::Auto))
            .repairs()
            .unwrap_or_else(|e| panic!("seed {seed}: Auto must escalate past the refusal: {e}"));
        assert_eq!(
            render(&auto.repairs),
            render(&clause.repairs),
            "seed {seed}: Auto escalation must land on the SAT answer"
        );
    }
}

/// Seeded per-relation weights, pseudo-random protections.
struct SeededPrefs {
    weights: BTreeMap<Sym, u64>,
    protected: BTreeSet<Sym>,
}

impl SeededPrefs {
    /// Weights in 1..=4 (strictly positive, so the weight minimum over
    /// subset-minimal repairs is the minimum over all repairs) keyed
    /// off the state's own predicates; every third seed protects one.
    fn for_db(db: &Database, seed: u64) -> SeededPrefs {
        let mut preds: BTreeSet<Sym> = db.facts().predicates().collect();
        for c in db.constraints() {
            for occ in c.rq.literals() {
                preds.insert(occ.literal.atom.pred);
            }
        }
        let preds: Vec<Sym> = preds.into_iter().collect();
        let weights = preds
            .iter()
            .map(|&p| (p, 1 + (fnv(p.as_str()) ^ seed) % 4))
            .collect();
        let mut protected = BTreeSet::new();
        if seed % 3 == 0 && !preds.is_empty() {
            protected.insert(preds[(seed / 3) as usize % preds.len()]);
        }
        SeededPrefs { weights, protected }
    }

    fn cost(&self, repair: &RepairSet) -> u64 {
        repair.ops().iter().map(|op| self.op_weight(op)).sum()
    }
}

impl RepairChooser for SeededPrefs {
    fn op_weight(&self, op: &Update) -> u64 {
        self.weights.get(&op.fact.pred).copied().unwrap_or(1)
    }

    fn is_protected(&self, op: &Update) -> bool {
        self.protected.contains(&op.fact.pred)
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The full operation universe of `db` minus protected relations:
/// deletions of every current fact, insertions of every absent fact
/// over known predicates × the active domain.
fn respecting_ops(db: &Database, prefs: &SeededPrefs) -> Vec<Update> {
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
        if domain.is_empty() && *arity > 0 {
            continue;
        }
        let mut idx = vec![0usize; *arity];
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
    ops.retain(|op| !prefs.is_protected(op));
    ops
}

/// Brute force over the protection-respecting operation universe: all
/// subset-minimal repairs of at most `MAX_CHANGES` ops.
fn brute_respecting_minimal(db: &Database, prefs: &SeededPrefs) -> Vec<RepairSet> {
    let ops = respecting_ops(db, prefs);
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
    minimal
}

/// The MaxSAT preference order against brute force: the returned
/// repair respects every protection, its cost is the brute-forced
/// weight minimum, and it is one of the min-cost subset-minimal
/// repairs.
#[test]
fn preferred_repairs_respect_protection_and_weight_order() {
    let mut optimized = 0u64;
    for seed in 0..schedules() {
        let churn = 2 + (seed % 5) as usize;
        let db = workload::violation_state(churn, seed);
        let prefs = SeededPrefs::for_db(&db, seed);
        let eng = engine(&db, options(RepairBackend::Sat));
        let oracle = brute_respecting_minimal(&db, &prefs);
        match eng.preferred_repair(&prefs) {
            Ok(best) => {
                assert!(
                    best.repair.ops().iter().all(|op| !prefs.is_protected(op)),
                    "seed {seed}: preferred repair touches a protected relation: {}",
                    best.repair
                );
                assert!(
                    consistent_after(&db, &best.repair),
                    "seed {seed}: preferred repair must restore consistency"
                );
                assert_eq!(
                    best.cost,
                    prefs.cost(&best.repair),
                    "seed {seed}: reported cost must be the chooser sum"
                );
                let min = oracle
                    .iter()
                    .map(|r| prefs.cost(r))
                    .min()
                    .unwrap_or_else(|| {
                        panic!("seed {seed}: engine repaired, brute force found nothing")
                    });
                assert_eq!(
                    best.cost, min,
                    "seed {seed}: cost must be the weight minimum"
                );
                let winners: BTreeSet<String> = oracle
                    .iter()
                    .filter(|r| prefs.cost(r) == min)
                    .map(|r| r.to_string())
                    .collect();
                assert!(
                    winners.contains(&best.repair.to_string()),
                    "seed {seed}: {} is not a min-cost subset-minimal repair",
                    best.repair
                );
                optimized += 1;
            }
            Err(_) => {
                assert!(
                    oracle.is_empty(),
                    "seed {seed}: engine refused, brute force found {oracle:?}"
                );
            }
        }
    }
    assert!(
        optimized * 2 >= schedules(),
        "the preference oracle must cover most seeds, got {optimized}/{}",
        schedules()
    );
}

/// A seeded pool of schemas spanning repairable, unrepairable-in-domain
/// and schema-unsatisfiable states for the classification property.
fn classification_db(seed: u64) -> Database {
    let src = match seed % 6 {
        // Denial plus existence: no database state at all.
        0 => {
            "constraint no_p: forall X: p(X) -> false.\n\
              constraint some_p: exists X: p(X).\n\
              p(a).\n"
        }
        // A plain repairable violation.
        1 => {
            "constraint imp: forall X: p(X) -> q(X).\n\
              p(a).\n\
              p(b).\n"
        }
        // Unsatisfiable through a rule: the derived q is denied.
        2 => {
            "q(X) :- p(X).\n\
              constraint no_q: forall X: q(X) -> false.\n\
              constraint some_p: exists X: p(X).\n\
              p(a).\n"
        }
        // Repairable only by insertion over the active domain.
        3 => {
            "constraint some: exists X: p(X) & q(X).\n\
              r(c).\n"
        }
        // Already consistent: the empty repair.
        4 => {
            "constraint ok: forall X: p(X) -> q(X).\n\
              p(a).\n\
              q(a).\n"
        }
        // Unsatisfiable through a constraint chain.
        _ => {
            "constraint step: forall X: p(X) -> q(X).\n\
              constraint stop: forall X: q(X) -> false.\n\
              constraint some_p: exists X: p(X).\n\
              p(a).\n"
        }
    };
    Database::parse(src).expect("classification schemas parse")
}

/// Satellite: the SAT backend's `Unrepairable` classification versus
/// the §4 enforcement search, two fully independent procedures. A
/// clause-encoded repair is a finite witness, so it must never coexist
/// with an `Unsatisfiable` verdict; and when the bounded checker *is*
/// decisive, `schema_unsatisfiable` must match it exactly.
#[test]
fn unrepairable_classification_agrees_with_the_satisfiability_checker() {
    let mut unsat_seen = 0u64;
    let mut repaired_seen = 0u64;
    for seed in 0..schedules() {
        let db = classification_db(seed);
        let verdict = SatChecker::from_database(&db)
            .with_options(SatOptions::classification())
            .check()
            .outcome;
        match engine(&db, options(RepairBackend::Sat)).repairs() {
            Ok(report) => {
                repaired_seen += 1;
                assert!(
                    !matches!(verdict, SatOutcome::Unsatisfiable),
                    "seed {seed}: a repaired state is a witness, yet the checker proved UNSAT"
                );
                for r in &report.repairs {
                    assert!(
                        consistent_after(&db, r),
                        "seed {seed}: repair {r} does not restore consistency"
                    );
                }
            }
            Err(RepairError::Unrepairable {
                schema_unsatisfiable,
                ..
            }) => {
                match &verdict {
                    SatOutcome::Unsatisfiable => {
                        unsat_seen += 1;
                        assert!(
                            schema_unsatisfiable,
                            "seed {seed}: the checker proved UNSAT, the backend must say so"
                        );
                    }
                    SatOutcome::Satisfiable { .. } => {
                        assert!(
                            !schema_unsatisfiable,
                            "seed {seed}: the checker built a model, the backend claims UNSAT"
                        );
                    }
                    // Both semi-decidable: no verdict, nothing to agree on.
                    SatOutcome::Unknown { .. } => {}
                }
            }
            Err(e) => panic!("seed {seed}: unexpected SAT-backend failure: {e}"),
        }
    }
    assert!(
        unsat_seen > 0 && repaired_seen > 0,
        "the pool must exercise both verdicts, got {unsat_seen} UNSAT / {repaired_seen} repaired"
    );
}
