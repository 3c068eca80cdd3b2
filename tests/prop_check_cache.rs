//! Differential suite for the check cache (`uniform::integrity::CheckCache`):
//! a check whose compile comes from the cache — on the miss that fills
//! an entry, on a hit, and on a hit for other constants of the same
//! abstract transaction — reports exactly what the uncached
//! `Checker::check` reports on the same snapshot: the violations in
//! order, the read patterns in order, the read relations, every work
//! counter and the truncation flag. The commit path's cache
//! (`ConcurrentDatabase::check`) must also follow schema changes.

use proptest::prelude::*;
use uniform::datalog::{Database, Snapshot, Transaction, Update};
use uniform::integrity::{CheckCache, CheckOptions, CheckReport, Checker};
use uniform::logic::{parse_literal, Fact, Sym};
use uniform::{ConcurrentDatabase, UniformOptions};

// ---------- generators ------------------------------------------------------

/// Rules with constants in heads and bodies, repeated variables and
/// recursion.
fn arb_rules() -> impl Strategy<Value = Vec<&'static str>> {
    let pool: Vec<&'static str> = vec![
        "m(X,Y) :- l(X,Y).",
        "m(X,X) :- p(X).",
        "t(X) :- p(X), q(X).",
        "k(X, a) :- p(X).",
        "u(X) :- l(X, b), not q(X).",
        "tc(X,Y) :- r(X,Y).",
        "tc(X,Z) :- tc(X,Y), r(Y,Z).",
        "w(X) :- m(X,Y), s(Y).",
        "v(X) :- r(X, X).",
    ];
    proptest::sample::subsequence(pool, 0..=5)
}

/// Constraints with constants and repeated variables.
fn arb_constraints() -> impl Strategy<Value = Vec<&'static str>> {
    let pool: Vec<&'static str> = vec![
        "forall X: t(X) -> s(X)",
        "forall X, Y: m(X,Y) -> p(X)",
        "forall X: u(X) -> s(X)",
        "forall X: p(X) -> q(X) | s(X)",
        "forall X: tc(X,X) -> false",
        "forall X: k(X, a) -> s(X)",
        "forall X: l(X, c) -> q(X)",
        "forall X: w(X) -> (exists Y: l(X,Y))",
        "forall X: l(X, X) -> false",
        "forall X: v(X) -> q(X)",
        "exists X: p(X)",
    ];
    proptest::sample::subsequence(pool, 0..=5)
}

/// Base predicates and their arities.
const BASE: [(&str, usize); 5] = [("p", 1), ("q", 1), ("s", 1), ("l", 2), ("r", 2)];

/// `a`–`c` occur in the schema; `d`–`g` do not; `_C$0` is the first
/// placeholder of the cache's pool.
const CONSTS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "_C$0"];

/// The fresh constants `d`–`g` renamed one-to-one.
fn renamed(c: &str) -> &str {
    match c {
        "d" => "h",
        "e" => "i",
        "f" => "j",
        "g" => "d",
        other => other,
    }
}

fn fact(pred: usize, args: &[usize], name: impl Fn(&'static str) -> &'static str) -> Fact {
    let (p, arity) = BASE[pred];
    Fact {
        pred: Sym::new(p),
        args: args[..arity]
            .iter()
            .map(|&c| Sym::new(name(CONSTS[c])))
            .collect(),
    }
}

/// `(insert, predicate, constant indices)`; the pool name is drawn
/// rarely.
type Staged = (bool, usize, [usize; 2]);

fn arb_staged() -> impl Strategy<Value = Staged> {
    let constant = prop_oneof![0..7usize, 0..8usize];
    (any::<bool>(), 0..BASE.len(), constant.clone(), constant)
        .prop_map(|(insert, pred, c1, c2)| (insert, pred, [c1, c2]))
}

fn transaction(
    staged: &[Staged],
    name: impl Fn(&'static str) -> &'static str + Copy,
) -> Transaction {
    Transaction::new(
        staged
            .iter()
            .map(|&(insert, pred, args)| {
                let f = fact(pred, &args, name);
                if insert {
                    Update::insert(f)
                } else {
                    Update::delete(f)
                }
            })
            .collect(),
    )
}

fn arb_facts() -> impl Strategy<Value = Vec<(usize, [usize; 2])>> {
    prop::collection::vec((0..BASE.len(), 0..5usize, 0..5usize), 0..12)
        .prop_map(|fs| fs.into_iter().map(|(p, a, b)| (p, [a, b])).collect())
}

fn arb_options() -> impl Strategy<Value = CheckOptions> {
    proptest::sample::select(vec![0usize, 2, 10_000])
        .prop_map(|potential_limit| CheckOptions { potential_limit })
}

fn build_db(facts: &[(usize, [usize; 2])], rules: &[&str], constraints: &[&str]) -> Database {
    let mut src = String::new();
    for r in rules {
        src.push_str(r);
        src.push('\n');
    }
    for (i, c) in constraints.iter().enumerate() {
        src.push_str(&format!("constraint k{i}: {c}.\n"));
    }
    let mut db = Database::parse(&src).expect("the pools parse and stratify");
    for (pred, args) in facts {
        db.insert_fact(&fact(*pred, args, |c| c));
    }
    db
}

// ---------- comparison --------------------------------------------------------

/// Every field of a report, rendered in order.
fn fields(r: &CheckReport) -> String {
    let violations: Vec<String> = r
        .violations
        .iter()
        .map(|v| format!("{} {:?} {}", v.constraint, v.culprit, v.instance))
        .collect();
    format!(
        "satisfied {}\nviolations {violations:?}\nreads {:?}\nread_patterns {:?}\nstats {:?}\ntruncated {}",
        r.satisfied, r.reads, r.read_patterns, r.stats, r.truncated
    )
}

/// Can `tx` be cached at all (no pool name among its constants)?
fn cacheable(tx: &Transaction) -> bool {
    !tx.updates
        .iter()
        .any(|u| u.fact.args.iter().any(|c| c.as_str() == "_C$0"))
}

/// The cached check of `tx` equals the oracle's, and hits exactly when
/// expected.
fn assert_agrees(
    cache: &CheckCache,
    snap: &Snapshot,
    options: CheckOptions,
    tx: &Transaction,
    hit: bool,
) -> Result<(), TestCaseError> {
    let (cached, was_hit) = cache.check(snap, tx);
    let oracle = Checker::for_snapshot(snap).with_options(options).check(tx);
    prop_assert_eq!(fields(&cached), fields(&oracle), "on {:?}", tx);
    prop_assert_eq!(was_hit, hit, "hit on {:?}", tx);
    Ok(())
}

// ---------- properties ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Miss, hit, and hit with other fresh constants: each equals the
    /// uncached check field for field.
    #[test]
    fn cached_checks_equal_the_uncached_check(
        facts in arb_facts(),
        rules in arb_rules(),
        constraints in arb_constraints(),
        staged in prop::collection::vec(arb_staged(), 1..4),
        options in arb_options(),
    ) {
        let snap = build_db(&facts, &rules, &constraints).snapshot();
        let cache = CheckCache::for_snapshot(&snap, options);
        let tx = transaction(&staged, |c| c);
        let again = cacheable(&tx);
        assert_agrees(&cache, &snap, options, &tx, false)?;
        assert_agrees(&cache, &snap, options, &tx, again)?;
        assert_agrees(&cache, &snap, options, &transaction(&staged, renamed), again)?;
    }

    /// The commit path's cache follows schema changes: interleaving
    /// constraint and rule additions with checks never serves a compile
    /// of an earlier schema.
    #[test]
    fn the_commit_path_cache_follows_schema_changes(
        facts in arb_facts(),
        rules in arb_rules(),
        steps in prop::collection::vec(
            (0..3usize, arb_constraints(), arb_rules(), prop::collection::vec(arb_staged(), 1..3)),
            1..6,
        ),
    ) {
        let db = ConcurrentDatabase::from_database(
            build_db(&facts, &rules, &[]),
            UniformOptions::default(),
        );
        for (i, (kind, constraints, added_rules, staged)) in steps.iter().enumerate() {
            match kind {
                0 => {
                    for (j, c) in constraints.iter().enumerate() {
                        let _ = db.try_add_constraint(&format!("s{i}_{j}"), c);
                    }
                }
                1 => {
                    for r in added_rules {
                        let _ = db.try_add_rule(r);
                    }
                }
                _ => {}
            }
            let tx = transaction(staged, |c| c);
            let oracle = Checker::for_snapshot(&db.snapshot()).check(&tx);
            prop_assert_eq!(fields(&db.check(&tx)), fields(&oracle), "step {}", i);
            prop_assert_eq!(fields(&db.check(&tx)), fields(&oracle), "step {} again", i);
        }
    }
}

// ---------- fixtures ------------------------------------------------------------

fn upd(src: &str) -> Update {
    Update::from_literal(&parse_literal(src).unwrap()).unwrap()
}

fn tx(srcs: &[&str]) -> Transaction {
    Transaction::new(srcs.iter().map(|s| upd(s)).collect())
}

const UNIVERSITY: &str = "
    honours(X) :- student(X), award(X).
    constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
    constraint dom_enrolled: forall X, C: enrolled(X, C) -> student(X).
    constraint dom_attends: forall X, C: attends(X, C) -> student(X).
    constraint has_course: forall X: student(X) -> (exists C: enrolled(X, C)).
    constraint hon_ok: forall X: honours(X) -> attends(X, sem).
    student(w4). enrolled(w4, cs). attends(w4, ddb). attends(w4, sem). award(w4).
    student(w5). enrolled(w5, cs). attends(w5, ddb). attends(w5, sem). award(w5).
    student(s1). enrolled(s1, math). attends(s1, c1).
";

/// `ddb` and `sem` are schema constants: dropping either course is its
/// own abstract transaction, reads `attends` at the student's key only,
/// and violates its own constraint. Another student's drop hits.
#[test]
fn university_course_drops_keep_their_schema_constants() {
    let snap = Database::parse(UNIVERSITY).unwrap().snapshot();
    let options = CheckOptions::default();
    let cache = CheckCache::for_snapshot(&snap, options);
    for (student, hit) in [("w4", false), ("w5", true)] {
        for (course, violated) in [("ddb", "cdb"), ("sem", "hon_ok")] {
            let t = tx(&[&format!("not attends({student}, {course})")]);
            assert_agrees(&cache, &snap, options, &t, hit).unwrap();
            let (report, _) = cache.check(&snap, &t);
            let names: Vec<&str> = report
                .violations
                .iter()
                .map(|v| v.constraint.as_str())
                .collect();
            assert_eq!(names, [violated], "{t:?}");
            assert!(
                report
                    .read_patterns
                    .iter()
                    .filter(|p| p.pred.as_str() == "attends")
                    .all(|p| p.is_bounded()),
                "{:?}",
                report.read_patterns
            );
        }
    }
    assert_eq!(cache.len(), 2);
}

/// A handle whose potential-update closure is cut at once: every check,
/// cached or not, reports the truncation the uncached check reports.
#[test]
fn a_zero_potential_limit_handle_caches_truncated_checks() {
    let options = CheckOptions { potential_limit: 0 };
    let db = ConcurrentDatabase::from_database(
        Database::parse(UNIVERSITY).unwrap(),
        UniformOptions {
            check: options,
            ..UniformOptions::default()
        },
    );
    for name in ["n1", "n2", "n3"] {
        let t = tx(&[
            &format!("student({name})"),
            &format!("enrolled({name}, cs)"),
            &format!("attends({name}, ddb)"),
            &format!("award({name})"),
        ]);
        let oracle = Checker::for_snapshot(&db.snapshot())
            .with_options(options)
            .check(&t);
        assert!(oracle.truncated);
        assert_eq!(fields(&db.check(&t)), fields(&oracle), "{name}");
    }
    let report = db.obs_report();
    assert_eq!(report.counter("check.cache.misses"), Some(1));
    assert_eq!(report.counter("check.cache.hits"), Some(2));
}

/// A constraint added after a shape was cached governs that shape's
/// next check.
#[test]
fn a_constraint_addition_reaches_cached_shapes() {
    let db = ConcurrentDatabase::parse("p(a). q(a).").unwrap();
    assert!(db.check(&tx(&["p(b)"])).satisfied);
    assert!(db.check(&tx(&["p(c)"])).satisfied);
    assert!(db
        .try_add_constraint("pq", "forall X: p(X) -> q(X)")
        .unwrap());
    let report = db.check(&tx(&["p(d)"]));
    assert!(!report.satisfied, "{}", fields(&report));
    assert_eq!(
        fields(&report),
        fields(&Checker::for_snapshot(&db.snapshot()).check(&tx(&["p(d)"])))
    );
}
