//! The consistency latch's proof of soundness: across randomized
//! schedules of everything that can move a state, the *verified
//! consistent* bit is never set on a state with a violated constraint.
//!
//! The latch (see `Database::verified_consistent`) is established only
//! by observation, preserved only by steps that prove the paper's
//! induction, and cleared by everything else; with it set,
//! `Session::execute(.., Certain)` answers as `Latest` without touching
//! the certain cache or the repair engine. So after **every** step of
//! every schedule this suite asserts, against references that share
//! nothing with the latch (a fresh `Database` built from the state's
//! parts, a fresh `RepairEngine` enumeration):
//!
//! * **soundness** — bit set ⇒ the full constraint check finds no
//!   violation, in both schedule styles, on the head and on every session
//!   pinned earlier (whose bit is also monotone: once set, it stays);
//! * **equivalence** — bit set ⇒ `Certain` ≡ `Latest` ≡ the fresh
//!   enumeration, with not one certain-cache counter moving;
//! * **clearing** — every effective raw edit leaves the head unset (in
//!   particular every one that introduces a violation), as does every
//!   raw schema swap;
//! * **preservation** — guarded commits (`Reject` and `AutoRepair`) and
//!   accepted `try_add_constraint` / `try_add_rule` on a verified head
//!   leave the head verified.
//!
//! Schedules interleave guarded commits under both policies, raw fact
//! edits, constraint-only and rule schema swaps through
//! `update_schema`, guarded schema additions, `Certain` reads (which
//! establish the bit on states nobody has looked at) and reads through
//! sessions pinned at earlier steps; a 3-writer threaded mode checks
//! the same soundness on every snapshot the writers take while raw
//! edits race their guarded commits.

use rand::{rngs::StdRng, Rng, SeedableRng};
use uniform::datalog::RuleSet;
use uniform::logic::{normalize, parse_formula, parse_query, parse_rule, Sym};
use uniform::repair::{RepairEngine, RepairOptions};
use uniform::{
    CheckOptions, ConcurrentDatabase, Consistency, Constraint, Database, Fact, Params,
    PreparedQuery, QueryError, Rows, Session, Snapshot, UniformOptions, Update, ViolationPolicy,
};

/// ≥256 randomized schedules; `PROPTEST_CASES` scales the effort like
/// every other property suite in the repo (CI's release pass runs
/// 1024).
fn cases() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

fn repair_options() -> RepairOptions {
    RepairOptions {
        max_changes: 3,
        max_branches: 500_000,
        max_repairs: 4096,
        domain_cap: 512,
        ..RepairOptions::default()
    }
}

fn options() -> UniformOptions {
    UniformOptions {
        repair: repair_options(),
        ..UniformOptions::default()
    }
}

const BASE: &str = "s(X) :- p(X).\n\
                    constraint c: forall X: p(X) -> q(X).\n\
                    q(k0). q(k1). p(k1).";
const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "v0", "v1"];
const QUERIES: [&str; 4] = ["p(X)", "q(X)", "s(X)", "noise(X)"];

fn fact(p: &str, k: &str) -> Fact {
    Fact::parse_like(p, &[k])
}

fn constraint(name: &str, formula: &str) -> Constraint {
    Constraint::new(
        name,
        normalize(&parse_formula(formula).expect("parses")).expect("normalizes"),
    )
}

/// The reference constraint check: a fresh `Database` built from the
/// state's parts — its own model, its own latch, nothing shared with
/// the handle under test.
fn fresh_violations(snapshot: &Snapshot) -> Vec<String> {
    Database::with(
        snapshot.facts().clone(),
        snapshot.rules().clone(),
        snapshot.constraints().to_vec(),
    )
    .violated_constraints()
}

/// The rows as `(column, value)` bindings, the reference's shape.
fn bindings(rows: &Rows) -> Vec<Vec<(Sym, Sym)>> {
    let row = |r: &uniform::Row| r.iter().map(|(c, v)| (c, v.sym())).collect();
    rows.iter().map(row).collect()
}

/// The certain cache's counters and gauge (`cache.certain.*`) as of now.
fn certain_cache(cdb: &ConcurrentDatabase) -> Vec<(String, u64)> {
    let mut counters = cdb.obs_report().counters;
    counters.retain(|(name, _)| name.starts_with("cache.certain."));
    counters
}

/// The reference certain answers: a fresh enumeration of the state's
/// minimal repairs (`None` when it refuses within its budgets).
fn fresh_certain(snapshot: &Snapshot, src: &str) -> Option<Vec<Vec<(Sym, Sym)>>> {
    RepairEngine::new(
        snapshot.facts().clone(),
        snapshot.rules().clone(),
        snapshot.constraints().to_vec(),
    )
    .with_options(repair_options())
    .consistent_answers(&parse_query(src).expect("query parses"))
    .ok()
}

/// A `Certain` read of any state — verified, violated or not looked at
/// yet — must agree with the fresh enumeration, refusals included.
fn assert_certain_matches_fresh(session: &Session, src: &str, ctx: &str) {
    let q = PreparedQuery::prepare(src).expect("query prepares");
    match (
        session.execute(&q, &Params::new(), Consistency::Certain),
        fresh_certain(session.snapshot(), src),
    ) {
        (Ok(rows), Some(want)) => {
            assert_eq!(bindings(&rows), want, "Certain diverged for `{src}`: {ctx}")
        }
        (Err(QueryError::Budget(_)), None) => {}
        (got, want) => panic!("Certain diverged for `{src}`: {ctx}: {got:?} vs {want:?}"),
    }
}

/// Soundness of one handle on one state. The bit is read *before* the
/// reference runs, and the reference never touches the handle.
fn assert_sound(snapshot: &Snapshot, ctx: &str) -> bool {
    let bit = snapshot.verified_consistent();
    if bit {
        assert_eq!(
            fresh_violations(snapshot),
            Vec::<String>::new(),
            "latch set on a violated state: {ctx}"
        );
    }
    bit
}

/// On a verified session: `Certain` ≡ `Latest` ≡ fresh enumeration.
fn assert_certain_is_latest(session: &Session, ctx: &str) {
    for src in QUERIES {
        let q = PreparedQuery::prepare(src).expect("query prepares");
        let certain = session
            .execute(&q, &Params::new(), Consistency::Certain)
            .expect("Certain on a verified state cannot refuse");
        let latest = session
            .execute(&q, &Params::new(), Consistency::Latest)
            .expect("Latest executes");
        assert_eq!(certain, latest, "Certain != Latest for `{src}` on {ctx}");
        assert_eq!(
            Some(bindings(&certain)),
            fresh_certain(session.snapshot(), src),
            "Certain != fresh enumeration for `{src}` on {ctx}"
        );
    }
}

/// Everything asserted about the head of a `ConcurrentDatabase` after a
/// step.
fn check_head(cdb: &ConcurrentDatabase, ctx: &str) -> bool {
    let session = cdb.session();
    let bit = assert_sound(session.snapshot(), ctx);
    if bit {
        let before = certain_cache(cdb);
        assert_certain_is_latest(&session, ctx);
        assert_eq!(
            certain_cache(cdb),
            before,
            "a verified state must cause no certain-cache traffic: {ctx}"
        );
    }
    bit
}

/// A session pinned at an earlier step, with what was known then.
struct Pinned {
    session: Session,
    was_set: bool,
    at: String,
}

fn check_pinned(pinned: &mut [Pinned], ctx: &str) {
    for p in pinned {
        let at = format!("session pinned at {} read at {ctx}", p.at);
        let bit = assert_sound(p.session.snapshot(), &at);
        assert!(
            bit || !p.was_set,
            "a pinned state's latch went from set to unset: {at}"
        );
        p.was_set = bit;
        if bit {
            assert_certain_is_latest(&p.session, &at);
        }
    }
}

fn toggle_constraint(d: &mut Database, extra: &Constraint) {
    let mut cs = d.constraints().to_vec();
    match cs.iter().position(|c| c.name == extra.name) {
        Some(i) => drop(cs.remove(i)),
        None => cs.push(extra.clone()),
    }
    d.set_constraints(cs);
}

fn toggle_rule(d: &mut Database, src: &str) {
    let rule = parse_rule(src).expect("rule parses");
    let mut rules = d.rules().rules().to_vec();
    match rules.iter().position(|r| *r == rule) {
        Some(i) => drop(rules.remove(i)),
        None => rules.push(rule),
    }
    d.set_rules(RuleSet::new(rules).expect("stays stratified"));
}

#[derive(Default)]
struct Totals {
    set_heads: u64,
    unset_heads: u64,
    preserved: u64,
    established: u64,
    cleared: u64,
    bypassed: u64,
}

fn counter(cdb: &ConcurrentDatabase, name: &str) -> u64 {
    cdb.obs_report().counter(name).unwrap_or(0)
}

/// One randomized schedule through `ConcurrentDatabase`.
fn run_concurrent_schedule(seed: u64, totals: &mut Totals) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7c4);
    // Half the schedules start verified (the checked `parse`), half
    // from a raw load nobody has looked at — possibly violated.
    let cdb = if rng.gen_bool(0.5) {
        ConcurrentDatabase::parse_with_options(BASE, options()).expect("base is consistent")
    } else {
        let cdb = ConcurrentDatabase::from_database(
            Database::parse(BASE).expect("base parses"),
            options(),
        );
        cdb.update_schema(|d| {
            for i in 0..rng.gen_range(0..3usize) {
                d.insert_fact(&fact("p", &format!("v{i}")));
            }
        });
        assert!(
            !cdb.snapshot().verified_consistent(),
            "seed {seed}: raw loads start unverified"
        );
        cdb
    };
    let noq2 = constraint("noq2", "forall X: q2(X) -> false");
    let mut pinned: Vec<Pinned> = Vec::new();
    check_head(&cdb, &format!("seed {seed} initial"));

    for step in 0..rng.gen_range(5..11usize) {
        let k = KEYS[rng.gen_range(0..KEYS.len())];
        let ctx = format!("seed {seed} step {step}");
        let was = cdb.snapshot().verified_consistent();
        match rng.gen_range(0..12u8) {
            // Guarded commits, `Reject`: admissible ones land, violating
            // ones are refused — either way a verified head stays so.
            0..=2 => {
                let updates = match rng.gen_range(0..6u8) {
                    0 => vec![Update::insert(fact("q", k))],
                    1 => vec![Update::delete(fact("p", k))],
                    2 => vec![Update::insert(fact("p", k)), Update::insert(fact("q", k))],
                    3 => vec![Update::delete(fact("q", k))],
                    4 => vec![Update::insert(fact("p", k))],
                    _ => vec![Update::insert(fact("noise", k))],
                };
                drop(cdb.commit_updates_with_retry(&updates, 4));
                assert!(
                    !was || cdb.snapshot().verified_consistent(),
                    "a guarded commit dropped the latch: {ctx}"
                );
            }
            // Guarded commits, `AutoRepair`: the repair delta is folded
            // in and re-checked, which is the induction step too.
            3 | 4 => {
                let mut txn = cdb.begin();
                if rng.gen_bool(0.5) {
                    txn.insert(fact("p", k));
                } else {
                    txn.delete(fact("q", k));
                }
                drop(cdb.commit_with_policy(&txn, ViolationPolicy::AutoRepair));
                assert!(
                    !was || cdb.snapshot().verified_consistent(),
                    "an auto-repaired commit dropped the latch: {ctx}"
                );
            }
            // Raw fact edits: may drive a violation in (or out); an
            // effective one always leaves a state nobody has looked at.
            5 | 6 => {
                let target = fact(if rng.gen_bool(0.7) { "p" } else { "q" }, k);
                let update = if rng.gen_bool(0.5) {
                    Update::insert(target)
                } else {
                    Update::delete(target)
                };
                let changed = cdb.update_schema(|d| d.apply(&update).expect("arity is fixed"));
                let snapshot = cdb.snapshot();
                if changed {
                    assert!(
                        !snapshot.verified_consistent(),
                        "an effective raw edit left the latch set: {ctx}"
                    );
                } else {
                    assert_eq!(snapshot.verified_consistent(), was, "{ctx}");
                }
            }
            // Raw schema swaps: constraint-only, then rules.
            7 => {
                cdb.update_schema(|d| toggle_constraint(d, &noq2));
                assert!(!cdb.snapshot().verified_consistent(), "{ctx}");
            }
            8 => {
                cdb.update_schema(|d| toggle_rule(d, "t(X) :- q(X)."));
                assert!(!cdb.snapshot().verified_consistent(), "{ctx}");
            }
            // Guarded schema additions: accepted ones preserve, refused
            // ones (currently violated, already present) change nothing.
            9 => {
                let (name, formula) = match rng.gen_range(0..3u8) {
                    0 => ("sq", "forall X: s(X) -> q(X)"),
                    1 => ("some_q", "exists X: q(X)"),
                    _ => ("qp", "forall X: q(X) -> p(X)"),
                };
                drop(cdb.try_add_constraint(name, formula));
                assert!(
                    !was || cdb.snapshot().verified_consistent(),
                    "try_add_constraint dropped the latch: {ctx}"
                );
            }
            10 => {
                let rule = match rng.gen_range(0..2u8) {
                    0 => "u(X) :- q(X), p(X).",
                    // Refused while `noq2` is registered and some p exists.
                    _ => "q2(X) :- p(X).",
                };
                drop(cdb.try_add_rule(rule));
                assert!(
                    !was || cdb.snapshot().verified_consistent(),
                    "try_add_rule dropped the latch: {ctx}"
                );
            }
            // Pin a session on the current head for later reads.
            _ => pinned.push(Pinned {
                was_set: was,
                session: cdb.session(),
                at: ctx.clone(),
            }),
        }
        // Half the time somebody reads the head at `Certain`: on a state
        // nobody has looked at this is what establishes the bit.
        if rng.gen_bool(0.5) {
            let session = cdb.session();
            let src = QUERIES[rng.gen_range(0..QUERIES.len())];
            assert_certain_matches_fresh(&session, src, &ctx);
            assert_eq!(
                session.snapshot().verified_consistent(),
                fresh_violations(session.snapshot()).is_empty(),
                "a Certain read must leave exactly the consistent states latched: {ctx}"
            );
        }
        if check_head(&cdb, &ctx) {
            totals.set_heads += 1;
        } else {
            totals.unset_heads += 1;
        }
        check_pinned(&mut pinned, &ctx);
    }
    totals.preserved += counter(&cdb, "consistency.preserved");
    totals.established += counter(&cdb, "consistency.established");
    totals.cleared += counter(&cdb, "consistency.cleared");
    totals.bypassed += counter(&cdb, "query.certain.consistent");
}

#[test]
fn latch_is_sound_across_concurrent_database_schedules() {
    let mut totals = Totals::default();
    for seed in 0..cases() {
        run_concurrent_schedule(seed, &mut totals);
    }
    // The pass is only meaningful if every rule of the latch fired and
    // both kinds of head were met.
    assert!(totals.set_heads > 0 && totals.unset_heads > 0);
    assert!(totals.preserved > 0, "no step ever preserved the latch");
    assert!(totals.established > 0, "no read ever established the latch");
    assert!(totals.cleared > 0, "no step ever cleared the latch");
    assert!(totals.bypassed > 0, "no Certain read ever took the bypass");
}

/// One randomized single-owner schedule driven through the parsed
/// one-shot sugar (`try_*`, `remove_constraint`): every mutation it
/// uses is guarded, so the only unverified states are tolerant loads —
/// and those stay unverified until a read looks.
fn run_facade_schedule(seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00fa_cade);
    let tolerant = rng.gen_bool(0.5);
    let db = if tolerant {
        let mut src = BASE.to_string();
        for i in 0..rng.gen_range(0..3usize) {
            src.push_str(&format!(" p(v{i})."));
        }
        ConcurrentDatabase::from_database(Database::parse(&src).expect("parses"), options())
    } else {
        ConcurrentDatabase::parse_with_options(BASE, options()).expect("base is consistent")
    };
    assert_eq!(db.snapshot().verified_consistent(), !tolerant);
    let (mut set, mut unset) = (0, 0);

    for step in 0..rng.gen_range(4..9usize) {
        let k = KEYS[rng.gen_range(0..KEYS.len())];
        let ctx = format!("facade seed {seed} step {step}");
        let was = db.snapshot().verified_consistent();
        match rng.gen_range(0..10u8) {
            0 => drop(db.try_insert(&format!("q({k})."))),
            1 => drop(db.try_insert(&format!("p({k})."))),
            2 => drop(db.try_delete(&format!("q({k})."))),
            3 => drop(db.try_delete(&format!("p({k})."))),
            4 => drop(db.try_update_all(&[&format!("p({k})"), &format!("q({k})")])),
            5 => {
                let mut txn = db.begin();
                txn.insert(fact("noise", k));
                txn.delete(fact("p", k));
                // Sometimes stale: admitted or conflicted by the queue.
                if rng.gen_bool(0.3) {
                    drop(db.try_insert("noise(stale)."));
                }
                drop(db.commit(&txn));
            }
            6 => drop(db.try_apply_where("not p(X) where p(X), noise(X)")),
            7 => match rng.gen_range(0..3u8) {
                0 => drop(db.try_add_constraint("some_q", "exists X: q(X)")),
                1 => drop(db.try_add_constraint("qp", "forall X: q(X) -> p(X)")),
                _ => drop(db.remove_constraint("some_q")),
            },
            8 => match rng.gen_range(0..2u8) {
                0 => drop(db.try_add_rule("u(X) :- q(X), p(X).")),
                _ => drop(db.try_remove_rule("u(X) :- q(X), p(X).")),
            },
            // A `Certain` read: establishes the bit on a consistent
            // state nobody has looked at.
            _ => assert_certain_matches_fresh(&db.session(), "p(X)", &ctx),
        }
        // Every one of these mutations is guarded: a verified state
        // stays so.
        assert!(
            !was || db.snapshot().verified_consistent(),
            "a guarded step dropped the latch: {ctx}"
        );
        let session = db.session();
        if assert_sound(session.snapshot(), &ctx) {
            assert_certain_is_latest(&session, &ctx);
            set += 1;
        } else {
            unset += 1;
        }
    }
    (set, unset)
}

#[test]
fn latch_is_sound_across_facade_schedules() {
    let (mut set, mut unset) = (0, 0);
    for seed in 0..cases() {
        let (s, u) = run_facade_schedule(seed);
        set += s;
        unset += u;
    }
    assert!(set > 0 && unset > 0, "set {set} unset {unset}");
}

/// Three writers push guarded commits (both policies) through one
/// handle while one of them also lands raw edits — violating ones
/// included — between its commits. Every snapshot any writer takes must
/// be sound; in-flight transactions checked before a raw edit are
/// fenced by the queue, so none of them can carry a stale latch over it.
fn run_threaded_schedule(seed: u64) {
    const WRITERS: u64 = 3;
    const STEPS: usize = 6;
    let cdb = ConcurrentDatabase::parse_with_options(BASE, options()).expect("base is consistent");
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let cdb = cdb.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(WRITERS) + w);
                for step in 0..STEPS {
                    let k = KEYS[rng.gen_range(0..KEYS.len())];
                    let ctx = format!("threaded seed {seed} writer {w} step {step}");
                    match rng.gen_range(0..6u8) {
                        0 => {
                            drop(cdb.commit_updates_with_retry(&[Update::insert(fact("q", k))], 8))
                        }
                        1 => {
                            drop(cdb.commit_updates_with_retry(&[Update::delete(fact("q", k))], 8))
                        }
                        2 => drop(cdb.commit_updates_with_retry(
                            &[Update::insert(fact("p", k)), Update::insert(fact("q", k))],
                            8,
                        )),
                        3 => {
                            let mut txn = cdb.begin();
                            txn.insert(fact("p", k));
                            drop(cdb.commit_with_policy(&txn, ViolationPolicy::AutoRepair));
                        }
                        // Writer 0 doubles as the external loader.
                        4 if w == 0 => {
                            let update = if rng.gen_bool(0.6) {
                                Update::insert(fact("p", k))
                            } else {
                                Update::delete(fact("q", k))
                            };
                            cdb.update_schema(|d| drop(d.apply(&update)));
                        }
                        _ => {
                            let q = cdb.prepare("p(X)").unwrap();
                            drop(
                                cdb.session()
                                    .execute(&q, &Params::new(), Consistency::Certain),
                            );
                        }
                    }
                    assert_sound(&cdb.snapshot(), &ctx);
                }
            });
        }
    });
    check_head(&cdb, &format!("threaded seed {seed} final"));
}

#[test]
fn latch_is_sound_under_three_racing_writers() {
    for seed in 0..cases() {
        run_threaded_schedule(seed);
    }
}

/// A check whose potential-update closure hit `potential_limit` can
/// report `satisfied` on a transaction that violates a constraint it
/// never reached. Such a report proves nothing, so — via `commit` and via
/// the sugar alike — the commit goes through as a raw edit: the latch is cleared, and
/// `Certain` keeps repairing the violation instead of serving it.
#[test]
fn a_truncated_check_never_carries_the_latch() {
    // `c` is only reachable from `+p(..)` through the rule for `s`.
    const SRC: &str = "s(X) :- p(X).\n\
                       constraint c: forall X: s(X) -> q(X).\n\
                       q(k0). p(k0).";
    let truncating = UniformOptions {
        check: CheckOptions { potential_limit: 0 },
        ..options()
    };

    let cdb = ConcurrentDatabase::parse_with_options(SRC, truncating.clone())
        .expect("base is consistent");
    assert!(cdb.snapshot().verified_consistent());
    let mut txn = cdb.begin();
    txn.stage(Update::insert(fact("p", "k1")));
    let outcome = cdb
        .commit_with_policy(&txn, ViolationPolicy::Reject)
        .expect("the truncated check misses `c`");
    assert!(outcome.report.satisfied && outcome.report.truncated);
    let session = cdb.session();
    assert!(!session.snapshot().verified_consistent());
    assert_eq!(fresh_violations(session.snapshot()), ["c"]);
    assert_certain_matches_fresh(&session, "p(X)", "after a truncated commit");

    let db = ConcurrentDatabase::parse_with_options(SRC, truncating).expect("base is consistent");
    assert!(db.snapshot().verified_consistent());
    let report = db
        .try_insert("p(k1)")
        .expect("the truncated check misses `c`")
        .report;
    assert!(report.satisfied && report.truncated);
    assert!(!db.snapshot().verified_consistent());
    assert_eq!(db.snapshot().violated_constraints(), ["c"]);
}
