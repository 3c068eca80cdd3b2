//! The commit pipeline's model-maintenance proof: a differential oracle.
//!
//! Since the queue owns the canonical model's lifetime (PR 3), every
//! admitted commit flips a [`MaintainedModel`] forward instead of
//! invalidating the cache — so the one invariant everything rests on is
//! that the maintained model is **bit-identical to a from-scratch
//! rematerialization after every admitted commit**. This suite drives
//! ≥256 randomized multi-writer schedules (the `commit_mix` workload,
//! extended with stratified rules so induced updates actually flow) and
//! checks, after every commit and from every writer thread:
//!
//! * the snapshot's model equals `Model::compute(facts, rules)` of the
//!   same snapshot — contents, not provenance;
//! * the violation list evaluated over the maintained model equals the
//!   one evaluated over a freshly recomputed model.
//!
//! Schedules rotate through three modes: threaded guarded writers
//! (twice) and a sequential raw-queue schedule with a mid-stream rule
//! update the kernel advances the model across (and admitting
//! integrity-violating transactions, so violation lists are
//! non-trivially compared).
//!
//! [`MaintainedModel`]: uniform::datalog::MaintainedModel

use uniform::datalog::RuleSet;
use uniform::logic::parse_rule;
use uniform::workload;
use uniform::{
    CommitQueue, ConcurrentDatabase, Database, Fact, Model, Rule, Snapshot, Transaction, TxnError,
    UniformOptions, Update,
};

const WRITERS: usize = 3;
const TXNS_PER_WRITER: usize = 4;
const MAX_RETRIES: usize = 64;

/// ≥256 randomized schedules; `PROPTEST_CASES` scales this suite's
/// effort with the same parsing the proptest shim applies to every
/// property test (one implementation, no drift).
fn schedules() -> u64 {
    u64::from(proptest::ProptestConfig::with_cases(256).effective_cases())
}

/// The commit-mix base, extended with stratified rules (including
/// negation) over the shared `vip`/`audit` pair so commits induce
/// derived-fact flips for the maintained model to track.
fn base_with_rules(seed: u64) -> (Database, Vec<Vec<Transaction>>) {
    let (mut db, streams) = workload::commit_mix(WRITERS, TXNS_PER_WRITER, seed);
    let mut rules: Vec<Rule> = db.rules().rules().to_vec();
    for src in [
        "vip_flag(X) :- vip(X).",
        "unaudited_vip(X) :- vip(X), not audit(X).",
        "cleared(X) :- vip_flag(X), audit(X).",
    ] {
        rules.push(parse_rule(src).unwrap());
    }
    db.set_rules(RuleSet::new(rules).unwrap());
    (db, streams)
}

/// The differential oracle: the snapshot's (possibly maintained) model
/// must be bit-identical to a from-scratch rematerialization of the
/// same state, and the violation list evaluated over it must equal the
/// freshly recomputed one.
fn verify_snapshot(snap: &Snapshot, ctx: &str) {
    let fresh = Model::compute(snap.facts(), snap.rules());
    let mut got: Vec<String> = snap.model().iter().map(|f| f.to_string()).collect();
    let mut want: Vec<String> = fresh.iter().map(|f| f.to_string()).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "{ctx}: maintained model != rematerialization");

    let oracle = Database::with(
        snap.facts().clone(),
        snap.rules().clone(),
        snap.constraints().to_vec(),
    );
    assert_eq!(
        snap.violated_constraints(),
        oracle.violated_constraints(),
        "{ctx}: violation lists diverged"
    );
}

/// The queue's registry counter `name`.
fn counter(q: &CommitQueue, name: &str) -> u64 {
    q.obs().report().counter(name).unwrap()
}

/// Threaded guarded writers over a maintained queue: every admitted
/// effective commit must take the incremental path and leave a snapshot
/// identical to the oracle.
fn run_guarded_schedule(seed: u64) {
    let (db, streams) = base_with_rules(seed);
    let cdb = ConcurrentDatabase::from_database(db, UniformOptions::default());
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
                            Ok(_) => {
                                verify_snapshot(&cdb.snapshot(), &format!("seed {seed} guarded"));
                                break;
                            }
                            Err(TxnError::Rejected(_)) => break,
                            Err(e) if e.is_retriable() && attempts <= MAX_RETRIES => continue,
                            Err(e) => panic!("seed {seed}: unexpected commit failure: {e}"),
                        }
                    }
                }
            });
        }
    });
    verify_snapshot(&cdb.snapshot(), &format!("seed {seed} guarded final"));
    assert!(cdb.with_database(|d| d.is_consistent()));
}

/// Sequential raw-queue schedule (no integrity guard, so violating
/// transactions are admitted and violation lists are non-trivial), with
/// a mid-stream rule update the kernel advances the model across.
fn run_schema_update_schedule(seed: u64) {
    let (db, streams) = base_with_rules(seed);
    let q = CommitQueue::new(db);
    let mut commits = 0usize;
    for i in 0..TXNS_PER_WRITER {
        for stream in &streams {
            let mut t = q.begin();
            for u in &stream[i].updates {
                t.stage(u.clone());
            }
            q.commit(&t).expect("sequential raw commits admit");
            verify_snapshot(&q.snapshot(), &format!("seed {seed} raw commit {commits}"));
            commits += 1;

            if commits == WRITERS + 1 {
                // A rule update: the kernel advances the model.
                q.update_schema(|db| {
                    let mut rules = db.rules().rules().to_vec();
                    rules.push(parse_rule("audited_pair(X) :- vip(X), audit(X).").unwrap());
                    db.set_rules(RuleSet::new(rules).unwrap());
                });
                verify_snapshot(&q.snapshot(), &format!("seed {seed} post-schema"));
            }
        }
    }
    assert!(
        counter(&q, "maintain.commits.maintained") > 0,
        "seed {seed}: the incremental path must actually run"
    );
}

#[test]
fn maintained_model_equals_rematerialization_over_randomized_schedules() {
    for seed in 0..schedules() {
        match seed % 3 {
            0 | 1 => run_guarded_schedule(seed),
            _ => run_schema_update_schedule(seed),
        }
    }
}

/// Recursive rules route maintenance through the propagation kernel
/// inside `MaintainedModel`; the commit pipeline must stay bit-identical
/// to the oracle through insert *and* delete churn — on linear and
/// non-linear closure, mutual recursion and recursion under negation,
/// over a graph that grows cycles (so deletions leave alternative
/// derivations), and through transactions that insert into and delete
/// from the recursive stratum at once.
#[test]
fn recursive_rules_maintained_through_commit_churn() {
    let db = Database::parse(
        "
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        reach(X) :- tc(n0, X).
        nl(X, Y) :- edge(X, Y).
        nl(X, Z) :- nl(X, Y), nl(Y, Z).
        od(X, Y) :- edge(X, Y).
        ev(X, Z) :- od(X, Y), edge(Y, Z).
        od(X, Z) :- ev(X, Y), edge(Y, Z).
        unreached(X) :- node(X), not tc(n0, X).
        node(n0). node(n1). node(n2). node(n3). node(n4). node(n5).
        ",
    )
    .unwrap();
    let q = CommitQueue::new(db);
    let edge = |a: usize, b: usize| {
        Fact::parse_like("edge", &[&format!("n{}", a % 6), &format!("n{}", b % 6)])
    };
    for step in 0..150usize {
        let mut t = q.begin();
        if step < 60 {
            let fact = edge(step * 7, step * 5 + 1);
            t.stage(if step % 3 == 2 {
                Update::delete(fact)
            } else {
                Update::insert(fact)
            });
        } else {
            // The steps above only ever delete absent edges. From here
            // on every commit inserts an edge, and two in three also
            // delete a present one — on a graph full of cycles — so the
            // same commit inserts into and deletes from the recursive
            // strata.
            let present: Vec<Fact> = q
                .snapshot()
                .facts()
                .iter()
                .filter(|f| f.pred.as_str() == "edge")
                .collect();
            if step % 3 != 0 && !present.is_empty() {
                t.stage(Update::delete(present[(step * 11) % present.len()].clone()));
            }
            t.stage(Update::insert(edge(step * 7, step + step / 6)));
        }
        q.commit(&t).unwrap();
        verify_snapshot(&q.snapshot(), &format!("tc churn step {step}"));
    }
    assert!(counter(&q, "maintain.commits.maintained") > 0);
}

/// ROADMAP follow-up from PR 3: a *constraint-only* registry change
/// must not reset the maintained model — constraints never contribute
/// to the canonical model — while still fencing in-flight transactions
/// (their pinned integrity verdicts predate the new constraint set).
/// A rule update in the same schedule advances the model too.
#[test]
fn constraint_only_registry_changes_keep_the_maintained_model() {
    use uniform::logic::{normalize, parse_formula, Constraint};
    for seed in 0..16u64 {
        let (db, streams) = base_with_rules(seed);
        let q = CommitQueue::new(db);
        // Warm the maintained model with one commit per writer.
        for stream in &streams {
            let mut t = q.begin();
            for u in &stream[0].updates {
                t.stage(u.clone());
            }
            q.commit(&t).unwrap();
            verify_snapshot(&q.snapshot(), &format!("seed {seed} warmup"));
        }
        let maintained_before = counter(&q, "maintain.commits.maintained");

        // In flight across the constraint change: must be fenced.
        let mut inflight = q.begin();
        inflight.stage(Update::insert(Fact::parse_like("vip", &["fence_probe"])));

        q.update_schema(|db| {
            db.add_constraint(Constraint::new(
                format!("extra{seed}"),
                normalize(&parse_formula("forall X: never(X) -> false").unwrap()).unwrap(),
            ));
        });
        verify_snapshot(&q.snapshot(), &format!("seed {seed} post-constraint"));
        assert!(
            matches!(
                q.commit(&inflight),
                Err(uniform::CommitError::SnapshotTooOld { .. })
            ),
            "seed {seed}: constraint changes still fence pinned checks"
        );

        // Maintenance continues on the very same model instance.
        for stream in &streams {
            let mut t = q.begin();
            for u in &stream[1].updates {
                t.stage(u.clone());
            }
            q.commit(&t).unwrap();
            verify_snapshot(
                &q.snapshot(),
                &format!("seed {seed} post-constraint commit"),
            );
        }
        assert!(
            counter(&q, "maintain.commits.maintained") > maintained_before,
            "seed {seed}: the incremental path must keep running"
        );

        // A rule update afterwards advances the model too.
        q.update_schema(|db| {
            let mut rules = db.rules().rules().to_vec();
            rules.push(parse_rule("late(X) :- vip(X).").unwrap());
            db.set_rules(RuleSet::new(rules).unwrap());
        });
        verify_snapshot(&q.snapshot(), &format!("seed {seed} post-rule"));
    }
}

/// The pipeline survives relations appearing for the first time *after*
/// maintenance started, and model-order determinism holds: replaying
/// the same schedule yields the same maintained iteration order.
#[test]
fn fresh_relations_and_replay_determinism() {
    let steps: [(&str, &[&str]); 4] = [
        ("a", &["x"]),
        ("zzz", &["1"]),
        ("a", &["y"]),
        ("fresh", &["k", "v"]),
    ];
    let run = || -> Vec<String> {
        let q = CommitQueue::new(Database::parse("b(X) :- a(X).").unwrap());
        for (i, (pred, args)) in steps.iter().enumerate() {
            let mut t = q.begin();
            t.insert(Fact::parse_like(pred, args));
            let r = q.commit(&t).unwrap();
            assert!(r.changed(), "step {i}");
            verify_snapshot(&q.snapshot(), &format!("fresh rel step {i}"));
        }
        q.snapshot().model().iter().map(|f| f.to_string()).collect()
    };
    let first = run();
    assert_eq!(first, run(), "maintained model order must be reproducible");
    assert!(first.contains(&"b(y)".to_string()));
}
