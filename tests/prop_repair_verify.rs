//! The repair engine's verification against the whole-state oracle.
//!
//! A search verifies each minimal candidate where it can matter
//! (`RepairEngine::verifies`): a whole-scope search on the affected
//! closure's constraints, a split search per violated part, the part's
//! key constant bound. The oracle is `repair_restores_consistency`,
//! which evaluates every constraint on the whole repaired state. On
//! `violation_state`s, `violation_dense_db`s and random keyed schemas
//! (the mix `prop_repair_parts` draws), for every reported repair and
//! for random op sets drawn from the scope, sound and unsound alike:
//!
//! * the scope verdict of a candidate whose ops lie in the affected
//!   closure's relations is the oracle's, and a candidate with an op
//!   outside them fails it;
//! * the part verdict at key constant `k` of a candidate whose ops all
//!   hold `k` at their key position is the oracle's on the candidate
//!   joined with the other parts' ops of the best reported repair; a
//!   candidate with an op at another key fails it.
//!
//! Key positions are the engine's part key (`RepairEngine::part_key`);
//! every op of every reported repair lies at a violated part's constant.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniform::logic::{sort_by_name, Sym};
use uniform::repair::{RepairBackend, RepairEngine, RepairOptions, RepairSet};
use uniform::satisfiability::enforce;
use uniform::{workload, Database, Fact, Update};

/// Randomized states per kind; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo.
fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

fn engine(db: &Database, backend: RepairBackend) -> RepairEngine {
    RepairEngine::new(
        db.facts().clone(),
        db.rules().clone(),
        db.constraints().to_vec(),
    )
    .with_options(RepairOptions {
        max_changes: 4,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        backend,
    })
}

/// Random ops over some relations and the state's active domain.
struct Draw {
    rng: StdRng,
    /// `(predicate, arity, key position)`, name-sorted.
    relations: Vec<(Sym, usize, Option<usize>)>,
    domain: Vec<Sym>,
}

impl Draw {
    /// An insertion or deletion of a fact of one of the relations; with
    /// `key`, of a relation with a key position, `key` there.
    fn op(&mut self, key: Option<Sym>) -> Option<Update> {
        let relations: Vec<(Sym, usize, Option<usize>)> = self
            .relations
            .iter()
            .copied()
            .filter(|&(_, _, at)| key.is_none() || at.is_some())
            .collect();
        if relations.is_empty() || self.domain.is_empty() {
            return None;
        }
        let (pred, arity, at) = relations[self.rng.gen_range(0..relations.len())];
        let mut args: Vec<Sym> = (0..arity)
            .map(|_| self.domain[self.rng.gen_range(0..self.domain.len())])
            .collect();
        if let (Some(k), Some(i)) = (key, at) {
            args[i] = k;
        }
        let fact = Fact::new(pred, args);
        Some(if self.rng.gen_range(0..2u8) == 0 {
            Update::insert(fact)
        } else {
            Update::delete(fact)
        })
    }

    /// A constant of the domain other than `key`.
    fn other_than(&mut self, key: Sym) -> Option<Sym> {
        let others: Vec<Sym> = self.domain.iter().copied().filter(|&c| c != key).collect();
        (!others.is_empty()).then(|| others[self.rng.gen_range(0..others.len())])
    }
}

/// `repair` with `op` added (when there is one).
fn with(repair: &RepairSet, op: Option<Update>) -> RepairSet {
    RepairSet::from_ops(repair.ops().iter().cloned().chain(op))
}

/// `repair` without one of its ops, chosen by `rng`.
fn without(repair: &RepairSet, rng: &mut StdRng) -> Option<RepairSet> {
    let ops = repair.ops();
    if ops.is_empty() {
        return None;
    }
    let drop = rng.gen_range(0..ops.len());
    let kept = ops.iter().enumerate().filter(|&(i, _)| i != drop);
    Some(RepairSet::from_ops(kept.map(|(_, op)| op.clone())))
}

/// Every relation of the schema with its arity, name-sorted.
fn schema_relations(db: &Database) -> Vec<(Sym, usize)> {
    let mut atoms: Vec<(Sym, usize)> = Vec::new();
    for c in db.constraints() {
        for occ in c.rq.literals() {
            atoms.push((occ.literal.atom.pred, occ.literal.atom.args.len()));
        }
    }
    for rule in db.rules().rules() {
        atoms.push((rule.head.pred, rule.head.args.len()));
        for l in &rule.body {
            atoms.push((l.atom.pred, l.atom.args.len()));
        }
    }
    for pred in db.facts().predicates() {
        if let Some(rel) = db.facts().relation(pred) {
            atoms.push((pred, rel.arity()));
        }
    }
    let mut preds: Vec<Sym> = atoms.iter().map(|&(p, _)| p).collect();
    sort_by_name(&mut preds);
    let arity = |p: Sym| atoms.iter().find(|&&(q, _)| q == p).map(|&(_, a)| a);
    preds
        .into_iter()
        .map(|p| (p, arity(p).unwrap_or(0)))
        .collect()
}

/// What the suite saw, so it can require that both kinds of candidate
/// came up.
#[derive(Default)]
struct Seen {
    /// Candidates the oracle refused.
    unsound: usize,
    /// Candidates the oracle accepted.
    sound: usize,
    /// Off-key candidates whose join the oracle refuses.
    off_key_unsound: usize,
    /// States that split into parts.
    split: usize,
}

/// The scope verdict against the oracle on the reported repairs of a
/// whole-scope search, their one-op variations and random op sets.
fn check_scope(db: &Database, seed: u64, seen: &mut Seen, what: &str) {
    let eng = engine(db, RepairBackend::Search);
    let closure = eng.affected_closure();
    let all = schema_relations(db);
    let (inside, outside): (Vec<_>, Vec<_>) = all
        .into_iter()
        .map(|(p, arity)| (p, arity, None))
        .partition(|(p, _, _)| closure.contains(p));
    let domain = enforce::domain(db.facts(), db.rules(), db.constraints());
    let mut draw = Draw {
        rng: StdRng::seed_from_u64(seed),
        relations: inside,
        domain: domain.clone(),
    };
    let reported: Vec<RepairSet> = match eng.repairs() {
        Ok(report) => report.repairs.into_iter().take(8).collect(),
        Err(_) => Vec::new(),
    };
    let mut candidates: Vec<RepairSet> = Vec::new();
    for r in &reported {
        candidates.push(r.clone());
        candidates.push(with(r, draw.op(None)));
        candidates.push(with(r, draw.op(None)));
        candidates.extend(without(r, &mut draw.rng));
    }
    for _ in 0..8 {
        let n = draw.rng.gen_range(1..4usize);
        candidates.push(RepairSet::from_ops((0..n).filter_map(|_| draw.op(None))));
    }
    for c in &candidates {
        let oracle = eng.repair_restores_consistency(c);
        assert_eq!(
            eng.verifies(c, None),
            oracle,
            "{what}: scope verdict on {c}"
        );
        if oracle {
            seen.sound += 1;
        } else {
            seen.unsound += 1;
        }
    }
    for r in &reported {
        assert!(
            eng.verifies(r, None),
            "{what}: reported {r} fails the scope"
        );
    }
    // An op outside the closure fails the scope verdict, whatever the
    // oracle says of it.
    let mut outer = Draw {
        rng: StdRng::seed_from_u64(seed ^ 0x5c09e),
        relations: outside,
        domain,
    };
    for r in reported.iter().take(2) {
        if let Some(op) = outer.op(None) {
            let c = with(r, Some(op));
            assert!(!eng.verifies(&c, None), "{what}: {c} leaves the scope");
        }
    }
}

/// The part verdict against the oracle on the parts of `Auto`'s reported
/// repairs, their one-op variations, random op sets at the part's key,
/// and the reported parts with an op at another key.
fn check_parts(db: &Database, seed: u64, seen: &mut Seen, what: &str) {
    let eng = engine(db, RepairBackend::Auto);
    let Some(positions) = eng.part_key() else {
        // Without a part key there is no part to verify for.
        let domain = enforce::domain(db.facts(), db.rules(), db.constraints());
        if let Some(&k) = domain.first() {
            let none = RepairSet::empty();
            assert!(!eng.verifies(&none, Some(k)), "{what}: no part key");
        }
        return;
    };
    let keys = eng.violated_parts().expect("a keyed scope has parts");
    let Ok(report) = eng.repairs() else {
        return;
    };
    seen.split += usize::from(keys.len() > 1);
    let key_at = |pred: Sym| positions.iter().find(|&&(p, _)| p == pred).map(|&(_, i)| i);
    let key_of = |op: &Update| key_at(op.fact.pred).map(|i| op.fact.args[i]);
    for r in &report.repairs {
        for op in r.ops() {
            assert!(
                key_of(op).is_some_and(|k| keys.contains(&k)),
                "{what}: {op} of {r} lies in no violated part of {keys:?}"
            );
        }
    }
    let relations = schema_relations(db)
        .into_iter()
        .filter_map(|(p, arity)| key_at(p).map(|i| (p, arity, Some(i))))
        .collect();
    let mut draw = Draw {
        rng: StdRng::seed_from_u64(seed ^ 0x9a27),
        relations,
        domain: enforce::domain(db.facts(), db.rules(), db.constraints()),
    };
    let best = &report.repairs[0];
    for &k in &keys {
        let at_k = |r: &RepairSet| {
            RepairSet::from_ops(r.ops().iter().filter(|op| key_of(op) == Some(k)).cloned())
        };
        let rest: Vec<Update> = best
            .ops()
            .iter()
            .filter(|op| key_of(op) != Some(k))
            .cloned()
            .collect();
        let joined = |c: &RepairSet| RepairSet::from_ops(c.ops().iter().chain(&rest).cloned());
        let parts: Vec<RepairSet> = report.repairs.iter().take(8).map(at_k).collect();
        let mut candidates: Vec<RepairSet> = Vec::new();
        for part in &parts {
            assert!(
                eng.verifies(part, Some(k)),
                "{what}: reported part {part} at {k}"
            );
            candidates.push(part.clone());
            candidates.push(with(part, draw.op(Some(k))));
            candidates.extend(without(part, &mut draw.rng));
        }
        for _ in 0..4 {
            let n = draw.rng.gen_range(1..3usize);
            candidates.push(RepairSet::from_ops((0..n).filter_map(|_| draw.op(Some(k)))));
        }
        for c in &candidates {
            let oracle = eng.repair_restores_consistency(&joined(c));
            assert_eq!(
                eng.verifies(c, Some(k)),
                oracle,
                "{what}: part verdict on {c} at {k}, joined with {rest:?}"
            );
            if oracle {
                seen.sound += 1;
            } else {
                seen.unsound += 1;
            }
        }
        for part in parts.iter().take(2) {
            let Some(other) = draw.other_than(k) else {
                continue;
            };
            let c = with(part, draw.op(Some(other)));
            if c == *part {
                continue;
            }
            let (passes, sound) = (
                eng.verifies(&c, Some(k)),
                eng.repair_restores_consistency(&joined(&c)),
            );
            assert!(
                sound || !passes,
                "{what}: {c} passes at {k} and does not repair"
            );
            assert!(!passes, "{what}: {c} leaves the part at {k}");
            seen.off_key_unsound += usize::from(!sound);
        }
    }
}

fn check(db: &Database, seed: u64, seen: &mut Seen, what: &str) {
    check_scope(db, seed, seen, what);
    check_parts(db, seed, seen, what);
}

fn assert_seen(seen: &Seen) {
    assert!(
        seen.sound > 0 && seen.unsound > 0 && seen.off_key_unsound > 0 && seen.split > 0,
        "sound {}, unsound {}, off-key unsound {}, split {}",
        seen.sound,
        seen.unsound,
        seen.off_key_unsound,
        seen.split
    );
}

#[test]
fn verification_is_the_oracle_on_violation_states() {
    let mut seen = Seen::default();
    for seed in 0..cases() {
        let db = workload::violation_state(2 + (seed % 5) as usize, seed);
        check(
            &db,
            seed,
            &mut seen,
            &format!("violation_state seed {seed}"),
        );
    }
    assert_seen(&seen);
}

#[test]
fn verification_is_the_oracle_on_dense_states() {
    let mut seen = Seen::default();
    for n in 1..=6 {
        let db = workload::violation_dense_db(n, n as u64);
        check(
            &db,
            n as u64,
            &mut seen,
            &format!("violation_dense_db({n})"),
        );
    }
    assert_seen(&seen);
}

/// Constraints that keep the part key, and constraints that break it:
/// the random schemas of `prop_repair_parts`.
const KEYED: &[&str] = &[
    "constraint imp: forall X: p(X) -> q(X).",
    "constraint excl: forall X: q(X) & r(X) -> false.",
    "constraint dom_s: forall X, Y: s(X, Y) -> r(X).",
    "constraint span: forall X: r(X) -> (exists Y: s(X, Y)).",
    "constraint flag_ok: forall X: flagged(X) -> ok(X).",
    "constraint either: forall X: p(X) -> q(X) | ok(X).",
    "constraint clean: forall X: ok(X) -> not bad(X).",
];

const BREAKING: &[&str] = &[
    "constraint some_ok: exists X: ok(X).",
    "constraint pinned: forall X: q(X) -> s(a, X).",
    "constraint join: forall X, Y: s(X, Y) & q(Y) -> r(X).",
    "constraint acyclic: forall X: reach(X, X) -> false.",
    "constraint zero: forall X: p(X) & z -> false.",
];

const RULES: &str = "flagged(X) :- p(X), bad(X).
    reach(X, Y) :- s(X, Y).
    reach(X, Z) :- s(X, Y), reach(Y, Z).\n";

/// Some of `KEYED`, half the time one of `BREAKING`, and a few random
/// facts over three constants.
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
fn verification_is_the_oracle_on_mixed_schemas() {
    let mut seen = Seen::default();
    for seed in 0..cases() {
        let db = random_state(seed);
        check(&db, seed, &mut seen, &format!("random schema seed {seed}"));
    }
    assert_seen(&seen);
}
