//! Every change moves the cached model through the propagation kernel:
//! a differential oracle.
//!
//! A database computes its canonical model once. From then on a guarded
//! rule addition or removal, a raw rule-set swap, a raw fact write and a
//! guarded commit each advance the cached model — a rule change by the
//! kernel seeded with the rules it adds (their bodies' instances) and
//! removes (the facts with a one-step derivation through them). This
//! suite drives ≥256 randomized schedules that mix all five over a pool
//! of rules with negation and recursion, in which a change can move a
//! predicate to another stratum (`q` gaining or losing a rule over
//! negation moves `r`, `s`, `u` and `v` with it), remove a predicate's
//! last rule (`q`, `p`, `r`, …, which then hold their explicit facts
//! only) or make the program unstratifiable (refused or skipped), and
//! checks after most steps (writes left unread are advanced past
//! together with the next change) that
//!
//! * the snapshot's model equals `Model::compute(facts, rules)` of the
//!   same snapshot;
//! * taking that snapshot computed no model.
//!
//! `PROPTEST_CASES` scales the number of schedules the way it scales
//! every property test.

use rand::{rngs::StdRng, Rng, SeedableRng};
use uniform::datalog::RuleSet;
use uniform::logic::parse_rule;
use uniform::{ConcurrentDatabase, Database, Fact, Model, Snapshot, UniformOptions, Update};

/// The rules a schedule adds, removes and swaps in.
const POOL: [&str; 12] = [
    "t(X, Y) :- e(X, Y).",
    "t(X, Z) :- t(X, Y), e(Y, Z).",
    "r(X) :- p(X), not q(X).",
    "q(X) :- e(X, X).",
    "q(X) :- e(X, Y), not t(Y, X).",
    "s(X) :- p(X), not r(X).",
    "u(X) :- r(X).",
    "u(X) :- t(X, X).",
    "p(X) :- u(X), q(X).",
    "q(X) :- s(X).",
    "v(X) :- u(X), not t(X, b).",
    "t(X, Y) :- e(Y, X), p(Y).",
];

/// Explicit facts of base and derived predicates alike.
const PREDS: [(&str, usize); 6] = [("e", 2), ("e", 2), ("p", 1), ("q", 1), ("t", 2), ("u", 1)];

const STEPS: usize = 14;

fn schedules() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

fn program() -> String {
    format!(
        "{} {} {} e(a, b). e(b, c). p(a). p(c). q(b).
        constraint nv: forall X: v(X) -> p(X).
        constraint ns: forall X: s(X) -> (exists Y: e(X, Y)).",
        POOL[0], POOL[1], POOL[2]
    )
}

fn random_update(rng: &mut StdRng) -> Update {
    let consts = ["a", "b", "c"];
    let (pred, arity) = PREDS[rng.gen_range(0..PREDS.len())];
    let args: Vec<&str> = (0..arity)
        .map(|_| consts[rng.gen_range(0..consts.len())])
        .collect();
    let fact = Fact::parse_like(pred, &args);
    if rng.gen_bool(0.6) {
        Update::insert(fact)
    } else {
        Update::delete(fact)
    }
}

/// The snapshot's model is the recomputed one, and taking the snapshot
/// computed nothing.
fn verify(db: &ConcurrentDatabase, ctx: &str) {
    let before = Model::computes_on_this_thread();
    let snap: Snapshot = db.snapshot();
    assert_eq!(
        Model::computes_on_this_thread(),
        before,
        "{ctx}: the snapshot computed a model"
    );
    let fresh = Model::compute(snap.facts(), snap.rules());
    let mut got: Vec<String> = snap.model().iter().map(|f| f.to_string()).collect();
    let mut want: Vec<String> = fresh.iter().map(|f| f.to_string()).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "{ctx}: cached model != Model::compute");
}

fn run_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0007_e1e5);
    let db = Database::parse(&program()).unwrap();
    let db = ConcurrentDatabase::from_database(db, UniformOptions::default());
    // The database's first model.
    drop(db.snapshot());
    for step in 0..STEPS {
        let ctx = format!("seed {seed} step {step}");
        let what = match rng.gen_range(0..6) {
            0 | 1 => {
                let rule = POOL[rng.gen_range(0..POOL.len())];
                let outcome = db.try_add_rule(rule);
                format!("guarded add {rule}: {outcome:?}")
            }
            2 => {
                let rules = db.snapshot().rules().rules().to_vec();
                let rule = if !rules.is_empty() && rng.gen_bool(0.8) {
                    rules[rng.gen_range(0..rules.len())].to_string()
                } else {
                    POOL[rng.gen_range(0..POOL.len())].to_string()
                };
                let outcome = db.try_remove_rule(&rule);
                format!("guarded remove {rule}: {outcome:?}")
            }
            3 => {
                let rules = POOL
                    .iter()
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|src| parse_rule(src).unwrap())
                    .collect();
                match RuleSet::new(rules) {
                    Ok(rules) => {
                        let shown = format!("{:?}", rules.rules());
                        db.update_schema(|d| d.set_rules(rules));
                        format!("raw swap to {shown}")
                    }
                    Err(e) => format!("skipped unstratifiable swap: {e}"),
                }
            }
            4 => {
                let updates: Vec<Update> = (0..rng.gen_range(1..4))
                    .map(|_| random_update(&mut rng))
                    .collect();
                let effective = db.update_schema(|d| d.apply_all(&updates)).unwrap();
                format!("raw writes {updates:?}: {} effective", effective.len())
            }
            _ => {
                let mut txn = db.begin();
                for _ in 0..rng.gen_range(1..4) {
                    txn.stage(random_update(&mut rng));
                }
                let outcome = db.commit(&txn).map(|o| o.effective.len());
                format!("guarded commit {:?}: {outcome:?}", txn.updates())
            }
        };
        // Unread, raw writes wait for the next read or rule change,
        // which advances the model past them in the same kernel run.
        if rng.gen_bool(0.7) {
            verify(&db, &format!("{ctx} after {what}"));
        }
    }
    verify(&db, &format!("seed {seed} at the end"));
}

#[test]
fn cached_models_equal_recomputation_over_mixed_schedules() {
    for seed in 0..schedules() {
        run_schedule(seed);
    }
}

/// The pool's shapes each happen, so the schedules above are not
/// vacuous: a rule change that moves a predicate's stratum, one that
/// removes a predicate's last rule, and a refused unstratifiable one.
#[test]
fn the_pool_moves_strata_and_removes_last_rules() {
    let db = ConcurrentDatabase::parse(&program()).unwrap();
    let sym = uniform::logic::Sym::new;
    let stratum = |pred: &str| db.snapshot().rules().graph().stratum(sym(pred));
    let holds = |fact: &str| {
        db.snapshot()
            .holds(&uniform::logic::parse_fact(fact).unwrap())
    };
    let r = stratum("r");
    assert!(holds("r(a)"));
    assert!(db.try_add_rule(POOL[4]).unwrap());
    assert!(
        stratum("r") > r,
        "q gained a rule over negation: r moves up"
    );
    assert!(!holds("r(a)"), "q(a) holds now");
    verify(&db, "q's first rule added");
    assert!(db.try_remove_rule(POOL[4]).unwrap());
    assert_eq!(stratum("r"), r, "q lost its last rule: r moves back");
    assert!(holds("r(a)") && holds("q(b)") && !holds("q(a)"));
    verify(&db, "q's last rule removed");
    assert!(db.try_add_rule(POOL[5]).unwrap());
    assert!(
        db.try_add_rule(POOL[9]).is_err(),
        "r, q and s would cycle through negation"
    );
    assert!(db.try_remove_rule(POOL[5]).unwrap());
    assert!(db.try_remove_rule(POOL[2]).unwrap());
    assert!(!db.snapshot().rules().graph().is_idb(sym("r")));
    assert!(!holds("r(a)"), "r lost its last rule");
    verify(&db, "r's last rule removed");
}
