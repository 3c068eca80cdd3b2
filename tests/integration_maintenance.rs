//! Cross-crate integration: a maintained materialized model mirroring a
//! guarded database stays equal to the database's canonical model across
//! accepted updates, and the maintenance flip lists agree with the
//! checker's view of induced updates.

use uniform::datalog::{MaintainedModel, Transaction, Update};
use uniform::integrity::Checker;
use uniform::logic::parse_literal;
use uniform::{ConcurrentDatabase, Database};

fn upd(src: &str) -> Update {
    Update::from_literal(&parse_literal(src).unwrap()).unwrap()
}

const ORG: &str = "
    member(X, Y) :- leads(X, Y).
    boss(X) :- leads(X, Y).
    idle(X) :- employee(X), not busy(X).
    constraint led: forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
    constraint member_dom: forall X, Y: member(X, Y) -> department(Y).
    employee(ann).
    department(sales).
    leads(ann, sales).
    busy(ann).
";

#[test]
fn maintained_model_mirrors_guarded_database() {
    let db = ConcurrentDatabase::parse(ORG).unwrap();
    let mut mirror =
        MaintainedModel::new(db.snapshot().facts().clone(), db.snapshot().rules().clone());

    let updates: Vec<(&str, &[&str])> = vec![
        ("hire bob", &["employee(bob)"]),
        (
            "open hr",
            &["department(hr)", "employee(carol)", "leads(carol, hr)"],
        ),
        ("bob busy", &["busy(bob)"]),
        ("bob free", &["not busy(bob)"]),
        ("carol second hat", &["leads(carol, sales)"]),
    ];
    for (what, literals) in updates {
        let report = db
            .try_update_all(literals)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(report.report.satisfied);
        for &l in literals {
            mirror.apply(&upd(l));
        }
        // Mirror equals the canonical model after every step.
        let canonical = db.snapshot().model_arc();
        let mut a: Vec<String> = mirror.model().iter().map(|f| f.to_string()).collect();
        let mut b: Vec<String> = canonical.iter().map(|f| f.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "mirror diverged after: {what}");
    }

    // Rejected updates are not applied to either side. (Deleting ann's
    // sales leadership would be *accepted* here — carol picked up a
    // second hat above — but hr has no stand-in leader.)
    assert!(db.try_delete("leads(carol, hr)").is_err());
    assert!(mirror.holds(&uniform::logic::Fact::parse_like(
        "member",
        &["carol", "hr"]
    )));
}

#[test]
fn maintenance_flips_match_checker_culprits() {
    // The checker reports a violation "via" an induced update; applying
    // the same update to a maintained model must list the culprit among
    // its flips.
    let db = Database::parse(
        "
        enrolled(X, cs) :- student(X).
        constraint cdb: forall X: enrolled(X, cs) -> attends(X, ddb).
        ",
    )
    .unwrap();
    let checker = Checker::new(&db);
    let update = upd("student(jack)");
    let report = checker.check(&Transaction::single(update.clone()));
    assert!(!report.satisfied);
    let culprit = report.violations[0].culprit.clone().expect("culprit");

    let mut m = MaintainedModel::new(db.facts().clone(), db.rules().clone());
    let flips = m.apply(&update);
    assert!(
        flips.iter().any(|f| f.to_string() == culprit.to_string()),
        "culprit {culprit} not among flips {flips:?}"
    );
}

#[test]
fn maintained_model_handles_rule_heavy_churn() {
    // A longer mixed stream over a program with recursion and negation;
    // the maintained model must match recomputation at the end (the
    // per-step oracle lives in the datalog crate's tests).
    let db = Database::parse(
        "
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- tc(X, Y), edge(Y, Z).
        isolated(X) :- node(X), not linked(X).
        linked(X) :- edge(X, Y).
        linked(Y) :- edge(X, Y).
        node(a). node(b). node(c). node(d).
        ",
    )
    .unwrap();
    let mut m = MaintainedModel::new(db.facts().clone(), db.rules().clone());
    let stream = [
        "edge(a, b)",
        "edge(b, c)",
        "edge(c, d)",
        "not edge(b, c)",
        "edge(b, a)",
        "edge(c, a)",
        "not edge(a, b)",
        "edge(d, a)",
    ];
    for s in stream {
        m.apply(&upd(s));
    }
    let fresh = uniform::datalog::Model::compute(m.edb(), db.rules());
    let mut a: Vec<String> = m.model().iter().map(|f| f.to_string()).collect();
    let mut b: Vec<String> = fresh.iter().map(|f| f.to_string()).collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
    assert!(
        m.stats().propagation.overdeleted > 0,
        "tc churn exercises the recursive path"
    );
}

#[test]
fn provenance_explains_checker_culprits() {
    // End-to-end: the rejected update's culprit is explainable in the
    // would-be updated state.
    let mut db = Database::parse(
        "
        enrolled(X, cs) :- student(X).
        constraint cdb: forall X: enrolled(X, cs) -> attends(X, ddb).
        ",
    )
    .unwrap();
    db.apply(&upd("student(jack)")).unwrap(); // unguarded, to build the bad state
    let prov = uniform::datalog::Provenance::build(db.facts(), db.rules());
    let tree = prov
        .explain(&uniform::logic::Fact::parse_like(
            "enrolled",
            &["jack", "cs"],
        ))
        .expect("derived");
    let rendered = tree.to_string();
    assert!(rendered.contains("student(jack)"), "{rendered}");
    assert!(rendered.contains("[explicit]"), "{rendered}");
}

/// Recursive commits cost O(Δ), as exact counts: the same leaf insert,
/// leaf delete and cycle-closing reject, applied to a 64- and a
/// 2 048-node `tc` forest, do the same propagation work in the
/// maintained model and in the checker, evaluate the same instances
/// and `delta` patterns, and never materialize a model.
#[test]
fn recursive_commit_work_is_independent_of_database_size() {
    use uniform::datalog::{MaintainStats, PropagationStats};
    use uniform::CommitQueue;

    type Work = (MaintainStats, PropagationStats, usize, usize);
    let work = |nodes: usize| -> Vec<Work> {
        let db = uniform::workload::tc_forest(nodes, 11);
        let mut model = MaintainedModel::new(db.facts().clone(), db.rules().clone());
        let queue = CommitQueue::new(db);
        // A leaf under the depth-2 node `t0_3`, then gone again; then
        // the reverse of `t0_1 → t0_3`, closing a two-cycle.
        let steps = [
            ("edge(t0_3, leaf)", true),
            ("not edge(t0_3, leaf)", true),
            ("edge(t0_3, t0_1)", false),
        ];
        steps
            .iter()
            .map(|&(update, accepted)| {
                let tx = Transaction::single(upd(update));
                let report = Checker::for_snapshot(&queue.snapshot()).check(&tx);
                assert_eq!(report.satisfied, accepted, "{update} on {nodes} nodes");
                assert_eq!(report.stats.new_materializations, 0, "{update}");
                if accepted {
                    model.apply_transaction(&tx);
                    let mut txn = queue.begin();
                    txn.stage(tx.updates[0].clone());
                    queue.commit(&txn).unwrap();
                }
                (
                    model.stats(),
                    report.stats.delta.propagation,
                    report.stats.instances_evaluated,
                    report.stats.delta.patterns_evaluated,
                )
            })
            .collect()
    };
    let small = work(64);
    assert_eq!(small, work(2048));
    // Not vacuous: the maintained model ran the kernel both ways, and
    // the checker did for both insertions (a deletion cannot violate
    // `acyclic`, so its check never asks for recursive flips).
    let (maintained, _, _, _) = small[1];
    assert!(maintained.propagation.derived > 0 && maintained.propagation.overdeleted > 0);
    assert!(small[0].1.derived > 0 && small[2].1.derived > 0);
    // Only the cycle triggers `acyclic`: `tc(t0_1, t0_1)` and
    // `tc(t0_3, t0_3)` share one ground instance.
    assert_eq!((small[0].2, small[2].2), (0, 1));
}

/// A `Certain` read's per-repair unit costs O(Δ) as well, as exact
/// counts: the overlay of one repair-shaped update (an insertion plus a
/// deletion) over a `tc` forest's model, asked `tc(t0_1, Y)`, does the
/// same propagation work and finds the same answers on a 64- and a
/// 2 048-node forest.
#[test]
fn certain_read_work_is_independent_of_database_size() {
    use uniform::datalog::{all_solutions, OverlayEngine, PropagationStats};
    use uniform::logic::{Subst, Sym, Term};

    let goal = [parse_literal("tc(t0_1, Y)").unwrap()];
    let y = Sym::new("Y");
    let work = |nodes: usize| -> (PropagationStats, Vec<&'static str>) {
        let db = uniform::workload::tc_forest(nodes, 11);
        let model = db.model();
        let insert = vec![upd("edge(t0_3, leaf)").fact];
        let delete = vec![upd("not edge(t0_1, t0_4)").fact];
        let engine = OverlayEngine::over_model(&model, db.facts(), db.rules(), insert, delete);
        let mut answers: Vec<&str> = all_solutions(&engine, &goal, &mut Subst::new(), &[y])
            .iter()
            .filter_map(|s| s.walk(Term::Var(y)).as_const())
            .map(|c| c.as_str())
            .collect();
        answers.sort();
        (engine.propagation_stats(), answers)
    };
    let small = work(64);
    assert_eq!(small, work(2048));
    let (kernel, answers) = small;
    assert!(kernel.derived > 0 && kernel.overdeleted > 0, "{kernel:?}");
    assert_eq!(answers, ["leaf", "t0_3", "t0_7", "t0_8"]);
}

/// Flat commits cost O(Δ) as well, as exact counts: inserting one
/// student and deleting another does the same maintenance work on a 64-
/// and a 2 048-student university. Its one rule is non-recursive, and
/// the propagation kernel settles it like any other stratum.
#[test]
fn flat_commit_work_is_independent_of_database_size() {
    let work = |students: usize| -> Vec<uniform::datalog::MaintainStats> {
        let db = uniform::workload::deductive_university(students, 11);
        let mut model = MaintainedModel::new(db.facts().clone(), db.rules().clone());
        ["student(fresh)", "not student(s0)"]
            .iter()
            .map(|update| {
                model.apply(&upd(update));
                model.stats()
            })
            .collect()
    };
    let small = work(64);
    assert_eq!(small, work(2048));
    let kernel = small[1].propagation;
    assert!(kernel.derived > 0 && kernel.overdeleted > 0, "{kernel:?}");
}

/// Guarded requests intern no symbols. The interner is append-only, so
/// a name minted per request is memory the process never gets back.
/// Every fact and rule text is built before counting, and every request
/// has run once on a twin database: then 64 accepted recursive commits
/// on a `tc` forest, a recursion-reaching prepared query planned and
/// read at `Latest` and `Certain` on it, one `AutoRepair` commit that
/// falsifies a derived fact through its rule, and one guarded rule
/// addition leave the interner's length where it was. The count runs in a child process,
/// where no other test of this binary interns concurrently.
#[test]
fn guarded_work_interns_no_symbols() {
    const CHILD: &str = "UNIFORM_INTERN_CHILD";
    if std::env::var(CHILD).is_err() {
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args(["guarded_work_interns_no_symbols", "--exact", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("spawn child test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "child failed: {out:?}");
        assert!(
            stdout.contains("1 passed"),
            "the child ran nothing: {stdout}"
        );
        return;
    }

    use uniform::logic::{parse_rule, Sym};
    use uniform::repair::ViolationPolicy;
    use uniform::{Consistency, Params, UniformOptions};

    const FLAG: &str = "flagged(X) :- p(X), bad(X).
        constraint flag_ok: forall X: flagged(X) -> ok(X).
        p(a). p(b). ok(c).";
    const RULE: &str = "seen(X) :- p(X), ok(X).";
    let edges: Vec<Update> = (0..64)
        .map(|i| upd(&format!("edge(t{}_{}, x{i})", i % 4, 7 + i % 8)))
        .collect();
    let bad = upd("bad(a)");
    parse_rule(RULE).unwrap();
    let open = |db: Database| ConcurrentDatabase::from_database(db, UniformOptions::default());
    let twins = [0, 1].map(|_| {
        let forest = open(uniform::workload::tc_forest(64, 11));
        let flag = open(Database::parse(FLAG).unwrap());
        (forest, flag)
    });

    let mut interned = Vec::new();
    for (forest, flag) in &twins {
        let before = Sym::interned();
        for edge in &edges {
            let mut txn = forest.begin();
            txn.stage(edge.clone());
            let outcome = forest.commit(&txn).unwrap();
            assert!(outcome.report.satisfied, "{edge}");
        }
        let tc = forest.prepare_with_params("tc(S, X)", &["S"]).unwrap();
        let params = Params::new().bind("S", "t0_1");
        let session = forest.session();
        for level in [Consistency::Latest, Consistency::Certain] {
            assert!(!session.execute(&tc, &params, level).unwrap().is_empty());
        }
        let mut txn = flag.begin();
        txn.stage(bad.clone());
        let outcome = flag
            .commit_with_policy(&txn, ViolationPolicy::AutoRepair)
            .unwrap();
        assert!(outcome.repair.is_some());
        assert!(flag.try_add_rule(RULE).unwrap());
        interned.push(Sym::interned() - before);
    }
    assert_eq!(interned[1], 0, "interned by the warm-up: {}", interned[0]);
}
