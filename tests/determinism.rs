//! Output determinism within a process and across processes.
//!
//! The cross-process comparison re-executes this test binary as a child
//! process and compares digests of everything user-visible a workload
//! produces: guarded-update violation lists (in order),
//! maintained-model flip lists (in order), checker read sets,
//! satisfiability outcomes, prepared-query `Rows` iteration order and
//! plan-cache counters, and final fact/model iteration order.
//!
//! This is the regression net for the ROADMAP's `net_effect`-style bug
//! class: any `HashMap`/`HashSet` iteration leaking into user-visible
//! order shows up as a digest mismatch — across two runs in one
//! process, or across processes (each draws its own hash seeds).

use std::fmt::Write as _;
use uniform::datalog::{Database, MaintainedModel, RuleSet};
use uniform::integrity::Checker;
use uniform::logic::{parse_query, parse_rule};
use uniform::workload;
use uniform::{
    CommitQueue, ConcurrentDatabase, Consistency, Fact, Obs, ObsReport, Params, RepairBackend,
    RepairEngine, RepairOptions, RepairPreferences, SatChecker, Transaction, UniformOptions,
    Update, ViolationPolicy,
};

/// FNV-1a over the rendered observation log (no external deps).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One log line: `label`, then every counter and gauge of `report`
/// under `family` as `name=value`, in name order.
fn log_family(log: &mut String, label: &str, report: &ObsReport, family: &str) {
    let _ = write!(log, "{label}");
    for (name, value) in &report.counters {
        if name.starts_with(family) {
            let _ = write!(log, " {name}={value}");
        }
    }
    let _ = writeln!(log);
}

/// Everything user-visible from a mixed workload, rendered in the order
/// the APIs produce it (no sorting — order is what's under test).
fn observation_log() -> String {
    let mut log = String::new();

    // 1. Guarded updates over the org workload: violation lists and
    //    culprits in report order, read sets, acceptance outcomes.
    let mut db = workload::org(3, 2, 11);
    for update in workload::org_updates(3, 2, 40, 17) {
        let tx = Transaction::single(update.clone());
        let report = Checker::new(&db).check(&tx);
        let _ = write!(log, "upd {update} -> {}", report.satisfied);
        for v in &report.violations {
            let _ = write!(log, " viol {} via {:?}", v.constraint, v.culprit);
        }
        let _ = write!(
            log,
            " reads {:?}",
            report.reads.iter().map(|s| s.as_str()).collect::<Vec<_>>()
        );
        // Binding-level read patterns, rendered name-wise (`_` for an
        // unbound position): the conflict fingerprints fed to the
        // commit queue must not depend on interner or thread order.
        let _ = write!(
            log,
            " patterns {:?}",
            report
                .read_patterns
                .iter()
                .map(|p| {
                    let args: Vec<&str> = p
                        .args
                        .iter()
                        .map(|a| a.map_or("_", |s| s.as_str()))
                        .collect();
                    format!("{}({})", p.pred.as_str(), args.join(","))
                })
                .collect::<Vec<_>>()
        );
        if report.satisfied {
            for u in &tx.updates {
                db.apply(u).unwrap();
            }
        }
        log.push('\n');
    }
    for f in db.facts().iter() {
        let _ = writeln!(log, "fact {f}");
    }
    for f in db.model().iter() {
        let _ = writeln!(log, "model {f}");
    }
    let _ = writeln!(log, "violated {:?}", db.violated_constraints());
    // The chunked page tables themselves: page count, per-page arena
    // size and live count, tombstone totals. Chunk boundaries are a
    // function of the operation sequence alone, so they must digest
    // identically across runs and processes.
    for pred in db.facts().predicates() {
        let rel = db.facts().relation(pred).unwrap();
        let _ = writeln!(
            log,
            "shape {} {:?} stale {}",
            pred.as_str(),
            rel.page_shape(),
            rel.stale_slots()
        );
    }

    // 2. Maintained-model flip lists, in emission order.
    let seed_db = workload::deductive_university(12, 5);
    let mut maintained = MaintainedModel::new(seed_db.facts().clone(), seed_db.rules().clone());
    for update in workload::tc_updates(6, 25, 23) {
        // tc_updates emits edge facts; reuse them as generic churn.
        let flips = maintained.apply(&update);
        let _ = writeln!(
            log,
            "flips {:?}",
            flips.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        );
    }

    // 3. The commit-mix streams and their sequential outcome.
    let (mix_db, streams) = workload::commit_mix(3, 6, 29);
    let mut seq = mix_db;
    for stream in &streams {
        for tx in stream {
            let report = Checker::new(&seq).check(tx);
            let _ = write!(log, "mix {}", report.satisfied);
            for v in &report.violations {
                let _ = write!(log, " {} via {:?}", v.constraint, v.culprit);
            }
            log.push('\n');
            if report.satisfied {
                for u in &tx.updates {
                    seq.apply(u).unwrap();
                }
            }
        }
    }
    for f in seq.facts().iter() {
        let _ = writeln!(log, "mixfact {f}");
    }

    // 4. Commit-pipeline model maintenance: the maintenance counters,
    //    and the post-commit maintained model's *iteration order*
    //    (user-visible through snapshots) — including a mid-stream rule
    //    change that the kernel advances the model across.
    let (mut mdb, mstreams) = workload::commit_mix(2, 5, 37);
    {
        let mut rules = mdb.rules().rules().to_vec();
        rules.push(parse_rule("vip_flag(X) :- vip(X).").unwrap());
        mdb.set_rules(RuleSet::new(rules).unwrap());
    }
    let queue = CommitQueue::new(mdb);
    let mut committed = 0usize;
    for i in 0..5 {
        for stream in &mstreams {
            let mut t = queue.begin();
            for u in &stream[i].updates {
                t.stage(u.clone());
            }
            let r = queue.commit(&t).unwrap();
            let _ = writeln!(log, "commit v{} effective {}", r.version, r.effective.len());
            committed += 1;
            if committed == 4 {
                queue.update_schema(|db| {
                    let mut rules = db.rules().rules().to_vec();
                    rules.push(parse_rule("audited_vip(X) :- vip(X), audit(X).").unwrap());
                    db.set_rules(RuleSet::new(rules).unwrap());
                });
            }
        }
    }
    for f in queue.snapshot().model().iter() {
        let _ = writeln!(log, "maintained {f}");
    }
    log_family(&mut log, "maintenance", &queue.obs().report(), "maintain.");
    // A forced key overlap: the conflict log line (granularity, relation
    // names, version) and the queue's running conflict counters are
    // user-visible and must be order-stable.
    {
        let fact = Fact::parse_like("vip", &["dcheck"]);
        let mut first = queue.begin();
        first.stage(Update::insert(fact.clone()));
        let mut second = queue.begin();
        second.stage(Update::insert(fact));
        queue.commit(&first).unwrap();
        let err = queue.commit(&second).unwrap_err();
        let _ = writeln!(log, "conflict {err}");
        log_family(&mut log, "conflictstats", &queue.obs().report(), "txn.");
    }

    // 5. Repair sets and certain-answer lists over an inconsistent
    //    state — both user-visible and order-sensitive (repairs in
    //    (size, name) order, answers in rendered-binding order) — plus
    //    the repair deltas AutoRepair folds into a violation-heavy
    //    stream.
    let rdb = workload::violation_state(5, 41);
    let engine = RepairEngine::new(
        rdb.facts().clone(),
        rdb.rules().clone(),
        rdb.constraints().to_vec(),
    );
    match engine.repairs() {
        Ok(report) => {
            for r in &report.repairs {
                let _ = writeln!(log, "repair {r}");
            }
            for q in ["p(X)", "q(X)", "flagged(X)", "s(X, Y)"] {
                let answers = engine.consistent_answers(&parse_query(q).unwrap()).unwrap();
                let rendered: Vec<String> = answers
                    .iter()
                    .map(|b| {
                        b.iter()
                            .map(|(v, c)| format!("{}={}", v.as_str(), c.as_str()))
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect();
                let _ = writeln!(log, "certain {q} {rendered:?}");
            }
        }
        Err(e) => {
            let _ = writeln!(log, "repair error {e}");
        }
    }
    // 5b. The SAT backend and `Auto`'s split search on the same state
    //     plus a violation-dense one: the clause encoding's variable
    //     order, the blocking-clause enumeration order, the CDCL effort
    //     counters and the order the parts run in are all deterministic
    //     by construction, and all user-visible (repairs, coverage,
    //     `RepairStats::solver`, `explored`, `parts`). Any
    //     nondeterminism in the encoder's candidate order would show up
    //     here first.
    for (name, sdb) in [
        ("mix", workload::violation_state(5, 41)),
        ("dense", workload::violation_dense_db(12, 41)),
    ] {
        let sat_engine = RepairEngine::new(
            sdb.facts().clone(),
            sdb.rules().clone(),
            sdb.constraints().to_vec(),
        )
        .with_options(RepairOptions {
            max_changes: 12,
            backend: RepairBackend::Sat,
            ..RepairOptions::default()
        });
        match sat_engine.repairs() {
            Ok(report) => {
                for r in &report.repairs {
                    let _ = writeln!(log, "satrepair {name} {r}");
                }
                let _ = writeln!(
                    log,
                    "satrepair {name} covers {} solver {:?}",
                    report.covers_all_minimal_repairs(),
                    report.stats.solver
                );
            }
            Err(e) => {
                let _ = writeln!(log, "satrepair {name} error {e}");
            }
        }
        // `Auto` splits both states into parts and runs them in
        // key-constant name order, so its repairs and effort are as
        // stable as the whole search's.
        let auto_engine = RepairEngine::new(
            sdb.facts().clone(),
            sdb.rules().clone(),
            sdb.constraints().to_vec(),
        )
        .with_options(RepairOptions {
            max_changes: 12,
            backend: RepairBackend::Auto,
            ..RepairOptions::default()
        });
        match auto_engine.repairs() {
            Ok(report) => {
                for r in &report.repairs {
                    let _ = writeln!(log, "autorepair {name} {r}");
                }
                let _ = writeln!(
                    log,
                    "autorepair {name} explored {} parts {}",
                    report.stats.explored, report.stats.parts
                );
            }
            Err(e) => {
                let _ = writeln!(log, "autorepair {name} error {e}");
            }
        }
        let prefs = RepairPreferences::new().weight("p", 2).weight("q", 3);
        match sat_engine.preferred_repair(&prefs) {
            Ok(best) => {
                let _ = writeln!(log, "preferred {name} {} cost {}", best.repair, best.cost);
            }
            Err(e) => {
                let _ = writeln!(log, "preferred {name} error {e}");
            }
        }
    }

    let auto = ConcurrentDatabase::from_database(
        workload::violation_mix_db(43),
        UniformOptions {
            violation_policy: ViolationPolicy::AutoRepair,
            ..UniformOptions::default()
        },
    );
    for tx in workload::violation_mix_stream(0, 6, 43) {
        match auto.commit_transaction(&tx) {
            Ok(outcome) => {
                let _ = writeln!(
                    log,
                    "auto v{} repair {:?}",
                    outcome.version,
                    outcome.repair.map(|r| r.to_string())
                );
            }
            Err(e) => {
                let _ = writeln!(log, "auto err {e}");
            }
        }
    }

    // 6. The prepared read path: Rows iteration order (the typed
    //    result set's deterministic order is user-visible), per-query
    //    plan counters and the shared plan-cache stats, at both
    //    consistency levels and across a schema change (stale-rev
    //    re-planning included).
    // Pinned to the `NullClock` obs domain (not `from_env`) so the
    // observability digest below stays bit-identical even when the
    // environment sets `UNIFORM_OBS=1`: counters don't read clocks, and
    // every histogram recording lands in bucket 0.
    let qdb = ConcurrentDatabase::from_database_with_obs(
        workload::violation_state(4, 47),
        UniformOptions::default(),
        std::sync::Arc::new(Obs::null()),
    );
    for src in ["p(X)", "s(X, Y)", "flagged(X)", "r(X), s(X, Y)"] {
        let q = qdb.prepare(src).unwrap();
        let session = qdb.session();
        for level in [Consistency::Latest, Consistency::Certain] {
            match session.execute(&q, &Params::new(), level) {
                Ok(rows) => {
                    let _ = writeln!(log, "rows {src} {level:?} {rows}");
                }
                Err(e) => {
                    let _ = writeln!(log, "rows {src} {level:?} err {e}");
                }
            }
        }
        let _ = writeln!(log, "plan {src} {:?}", q.plan_counters());
    }
    {
        // A rule update moves the revision: the re-planned execution's
        // rows and the plan-miss counter both enter the digest.
        let q = qdb.prepare("flagged(X)").unwrap();
        qdb.try_add_rule("flagged(X) :- r(X), bad(X).").unwrap();
        let rows = qdb
            .session()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        let _ = writeln!(log, "replanned {rows} plan {:?}", q.plan_counters());
    }
    log_family(&mut log, "plancache", &qdb.obs_report(), "cache.plan.");
    // The shared certain-answer cache: one append outside every
    // constraint closure, then re-reads through fresh sessions — the
    // re-enumerated rows and the hit/miss/invalidation counters are
    // user-visible and must digest identically across runs and
    // processes (all reads here are sequential, so the counters are
    // exact).
    {
        // Prime the cache post-rule-update (the `try_add_rule` above
        // invalidated it), so the audit append below exercises the
        // invalidation path, not a cold install.
        for src in ["p(X)", "flagged(X)"] {
            let q = qdb.prepare(src).unwrap();
            let _ = qdb
                .session()
                .execute(&q, &Params::new(), Consistency::Certain);
        }
        let audit = Update::insert(Fact::parse_like("audit", &["determinism"]));
        qdb.commit_updates_with_retry(&[audit], 4).unwrap();
        for src in ["p(X)", "flagged(X)"] {
            let q = qdb.prepare(src).unwrap();
            match qdb
                .session()
                .execute(&q, &Params::new(), Consistency::Certain)
            {
                Ok(rows) => {
                    let _ = writeln!(log, "carried {src} {rows}");
                }
                Err(e) => {
                    let _ = writeln!(log, "carried {src} err {e}");
                }
            }
        }
        log_family(
            &mut log,
            "certaincache",
            &qdb.obs_report(),
            "cache.certain.",
        );
    }
    // 6b. The unified observability export over the same query
    //     database: sorted counter names and values, plus histogram
    //     bucket counts — never wall-clock values. All reads above are
    //     sequential, so every counter total is exact, and under the
    //     pinned NullClock each histogram is `count` recordings in
    //     bucket 0: the report digests identically across thread
    //     counts, processes, and `UNIFORM_OBS` settings.
    {
        let report = qdb.obs_report();
        for (name, value) in &report.counters {
            let _ = writeln!(log, "obs {name} {value}");
        }
        for (name, snap) in &report.histograms {
            let _ = writeln!(log, "obs {name} buckets {:?}", snap.nonzero());
        }
    }

    // 6c. The consistency latch: the bit after every step of a mixed
    //     schedule — a generated state and a raw load nobody has looked
    //     at (in any build profile: the generators' sanity checks do not
    //     latch), the `Certain` read that establishes it, guarded
    //     commits under both policies that carry it, a guarded rule
    //     addition, the raw edit that clears it — plus the close path of
    //     every read and the latch counters. A pure function of the
    //     operation sequence.
    {
        let ldb = ConcurrentDatabase::from_database_with_obs(
            workload::violation_mix_db(53),
            UniformOptions::default(),
            std::sync::Arc::new(Obs::null()),
        );
        let q = ldb.prepare("p(X)").unwrap();
        let certain = |log: &mut String, step: &str| {
            let rows = ldb
                .session()
                .execute(&q, &Params::new(), Consistency::Certain)
                .map(|rows| rows.to_string())
                .unwrap_or_else(|e| format!("err {e}"));
            let _ = writeln!(log, "latch {step} certain {rows}");
        };
        let bit = |log: &mut String, step: &str| {
            let _ = writeln!(
                log,
                "latch {step} verified {}",
                ldb.snapshot().verified_consistent()
            );
        };
        bit(&mut log, "generated");
        // A harmless raw load: still a state nobody has looked at.
        ldb.update_schema(|d| d.insert_fact(&Fact::parse_like("latch_noise", &["n"])));
        bit(&mut log, "loaded");
        certain(&mut log, "first");
        bit(&mut log, "looked");
        for (i, tx) in workload::violation_mix_stream(0, 6, 53).iter().enumerate() {
            let policy = if i % 2 == 0 {
                ViolationPolicy::Reject
            } else {
                ViolationPolicy::AutoRepair
            };
            let mut txn = ldb.begin();
            for u in &tx.updates {
                txn.stage(u.clone());
            }
            let outcome = match ldb.commit_with_policy(&txn, policy) {
                Ok(outcome) => format!("v{}", outcome.version),
                Err(e) => format!("err {e}"),
            };
            let _ = writeln!(log, "latch commit {i} {outcome}");
            bit(&mut log, &format!("commit {i}"));
        }
        certain(&mut log, "carried");
        let added = ldb.try_add_rule("watched(X) :- p(X), q(X).").is_ok();
        bit(&mut log, &format!("rule {added}"));
        ldb.update_schema(|d| d.insert_fact(&Fact::parse_like("p", &["latch_raw"])));
        bit(&mut log, "raw");
        certain(&mut log, "violated");
        bit(&mut log, "end");
        for ev in ldb.recent_events() {
            if ev.close && ev.name == "query.execute" {
                let _ = writeln!(log, "latch path {:?}", ev.tag);
            }
        }
        let report = ldb.obs_report();
        for name in [
            "consistency.established",
            "consistency.preserved",
            "consistency.cleared",
            "query.certain.consistent",
        ] {
            let _ = writeln!(log, "latch {name} {:?}", report.counter(name));
        }
    }

    // 7. Satisfiability search outcome (frontier order feeds the found
    //    model's explicit facts).
    let schema = Database::parse(
        "
        member(X, Y) :- leads(X, Y).
        constraint c1: forall X: department(X) -> (exists Y: member(Y, X)).
        constraint c2: forall X, Y: leads(X, Y) -> employee(X).
        constraint seeded: exists X: department(X).
        ",
    )
    .unwrap();
    let report = SatChecker::from_database(&schema).check();
    let _ = writeln!(log, "sat {:?}", report.outcome);

    // 8. The static analyzer: diagnostics, per-constraint closures and
    //    the satisfiability classification over two workload schemas —
    //    all rendered through predicate *names* (closures are kept in
    //    `Sym` order internally, which is interning order and must
    //    never reach a digest).
    for (name, adb) in [
        ("org", workload::org(2, 1, 13)),
        ("violation", workload::violation_state(3, 13)),
    ] {
        let analyzed = uniform::Analyzer::of_database(&adb).analyze();
        for d in analyzed.diagnostics() {
            let _ = writeln!(log, "analyze {name} diag {d}");
        }
        for (i, c) in adb.constraints().iter().enumerate() {
            let mut preds: Vec<&str> = analyzed.closure_of(i).iter().map(|p| p.as_str()).collect();
            preds.sort_unstable();
            let _ = writeln!(log, "analyze {name} closure {} {preds:?}", c.name);
        }
        let schema: Vec<&str> = analyzed
            .schema_predicates()
            .iter()
            .map(|p| p.as_str())
            .collect();
        let _ = writeln!(
            log,
            "analyze {name} schema {schema:?} set {}",
            analyzed.set_class()
        );
    }

    log
}

/// Child mode: print the digest and nothing else of substance. Inert
/// unless the driver below sets `UNIFORM_DETERMINISM_CHILD`.
#[test]
fn determinism_digest_child() {
    if std::env::var("UNIFORM_DETERMINISM_CHILD").is_err() {
        return;
    }
    println!("DIGEST={:016x}", fnv1a(&observation_log()));
}

fn child_digest() -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["determinism_digest_child", "--exact", "--nocapture"])
        .env("UNIFORM_DETERMINISM_CHILD", "1")
        .output()
        .expect("spawn child test binary");
    assert!(out.status.success(), "child failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // With --nocapture the digest may share a line with libtest chatter.
    let at = stdout
        .find("DIGEST=")
        .unwrap_or_else(|| panic!("no digest in child output: {stdout}"));
    stdout[at + "DIGEST=".len()..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect()
}

#[test]
fn identical_output_within_one_process() {
    assert_eq!(
        fnv1a(&observation_log()),
        fnv1a(&observation_log()),
        "same workload, same process, different output"
    );
}

#[test]
fn identical_output_across_processes() {
    assert_eq!(
        child_digest(),
        child_digest(),
        "independent processes (own hash seeds) must produce identical user-visible output"
    );
}
