//! # uniform-workload
//!
//! Deterministic synthetic workload generators for the paper's claims,
//! the integration and property tests, and the examples. Every generator
//! takes explicit size parameters **and a seed**: the seed drives both
//! any sampled content (update streams, random fact pools) and the
//! insertion order of the generated population, so runs are reproducible
//! seed-for-seed while different seeds exercise different store layouts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniform_datalog::{Database, Transaction, Update};
use uniform_logic::{parse_literal, Fact, Literal};

/// Append `lines` to `src` in a seed-determined order. Fact insertion
/// order shapes relation slot layout and iteration order downstream;
/// shuffling under an explicit seed makes that layout a reproducible
/// input of the workload instead of an accident of generation order.
fn push_shuffled(src: &mut String, mut lines: Vec<String>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..lines.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        lines.swap(i, j);
    }
    for line in lines {
        src.push_str(&line);
    }
}

/// The generators' own sanity check. It evaluates the constraints
/// directly instead of through [`Database::is_consistent`], which would
/// establish the consistency latch — inside a `debug_assert!` that
/// makes the generated state depend on the build profile.
fn starts_consistent(db: &Database) -> bool {
    db.constraints().iter().all(|c| db.satisfies(&c.rq))
}

/// The §3 university workload: `student`, `enrolled`, `attends`
/// relations with `n` students, constraints requiring every cs-enrolled
/// student to attend `ddb`, plus domain constraints so the full re-check
/// has a realistic constraint set to chew through.
pub fn university(n: usize, seed: u64) -> Database {
    let mut src = String::new();
    src.push_str(
        "constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).\n\
         constraint dom_enrolled: forall X, C: enrolled(X, C) -> student(X).\n\
         constraint dom_attends: forall X, C: attends(X, C) -> student(X).\n\
         constraint has_course: forall X: student(X) -> (exists C: enrolled(X, C)).\n",
    );
    let mut lines = Vec::with_capacity(3 * n);
    for i in 0..n {
        lines.push(format!("student(s{i}).\n"));
        lines.push(format!("enrolled(s{i}, cs).\n"));
        lines.push(format!("attends(s{i}, ddb).\n"));
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("university workload parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// An accepted update for [`university`]: a new student with enrollment
/// and attendance, as one transaction. (`n` names the new student; no
/// sampling is involved, so there is nothing to seed.)
pub fn university_good_tx(n: usize) -> Transaction {
    Transaction::new(vec![
        upd(&format!("student(new{n})")),
        upd(&format!("enrolled(new{n}, cs)")),
        upd(&format!("attends(new{n}, ddb)")),
    ])
}

/// A rejected update for [`university`]: a student enrolled in cs who
/// does not attend ddb.
pub fn university_bad_tx(n: usize) -> Transaction {
    Transaction::new(vec![
        upd(&format!("student(bad{n})")),
        upd(&format!("enrolled(bad{n}, cs)")),
    ])
}

/// The §3.2 deductive workload: `enrolled` derived from
/// `student` by rule, constraint on both base and derived relations, `n`
/// existing students.
pub fn deductive_university(n: usize, seed: u64) -> Database {
    let mut src = String::from(
        "enrolled(X, cs) :- student(X).\n\
         constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).\n\
         constraint attends_dom: forall X, C: attends(X, C) -> student(X).\n",
    );
    let mut lines = Vec::with_capacity(2 * n);
    for i in 0..n {
        lines.push(format!("student(s{i}).\n"));
        lines.push(format!("attends(s{i}, ddb).\n"));
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("deductive university parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// §3.2 drawback 1, straight from the paper: rule
/// `r(X) ← q(X,Y) ∧ p(Y,Z)` with **no constraint mentioning `r`**, and
/// `q_count` facts `q(xi, a)` so that inserting `p(a,b)` induces
/// `q_count` irrelevant updates.
pub fn irrelevant_induction(q_count: usize, seed: u64) -> (Database, Transaction) {
    let mut src = String::from(
        "r(X) :- q(X,Y), p(Y,Z).\n\
         constraint pdom: forall X, Y: p(X,Y) -> pkey(X).\n\
         pkey(a).\n",
    );
    let lines = (0..q_count).map(|i| format!("q(x{i}, a).\n")).collect();
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("irrelevant-induction workload parses");
    debug_assert!(starts_consistent(&db));
    (db, Transaction::single(upd("p(a,b)")))
}

/// The nonground trigger `r(X)` of the constraint is *affected but
/// unchanged* by the update — `delta` enumerates nothing, `new`
/// enumerates all `n` pre-existing instances (the Lloyd–Topor
/// comparison of §3.2).
pub fn unchanged_rule_instances(n: usize, seed: u64) -> (Database, Transaction) {
    let mut src = String::from(
        "r(X) :- q(X,Y), p(Y,Z).\n\
         constraint c: forall X: r(X) -> rbase(X).\n\
         p(a,c0).\n",
    );
    let mut lines = Vec::with_capacity(2 * n);
    for i in 0..n {
        lines.push(format!("q(x{i}, a).\n"));
        lines.push(format!("rbase(x{i}).\n"));
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("unchanged-rule-instances workload parses");
    debug_assert!(starts_consistent(&db));
    (db, Transaction::single(upd("p(a,b)")))
}

/// The §3.2 redundant-subquery scenario with the shared subquery made
/// *derived* (1988's expensive fact access translates to rule evaluation
/// in an in-memory engine). Constraint `cdb` fires twice per new student
/// — once through the explicit `student` trigger (S₂) and once through
/// the induced `enrolled` trigger (S₁) — and both instances share the
/// derived subquery `covered(x)`, which joins the student's `attends`
/// rows against `core`.
pub fn shared_subquery_university(n: usize, courses_per_student: usize, seed: u64) -> Database {
    let mut src = String::from(
        "enrolled(X, cs) :- student(X).\n\
         covered(X) :- attends(X, C), core(C).\n\
         constraint cdb: forall X: student(X) & enrolled(X, cs) -> covered(X).\n\
         core(ddb).\n",
    );
    let mut lines = Vec::new();
    for i in 0..n {
        lines.push(format!("student(s{i}).\n"));
        lines.push(format!("attends(s{i}, ddb).\n"));
        for c in 0..courses_per_student {
            lines.push(format!("attends(s{i}, other{c}).\n"));
        }
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("shared-subquery university parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// The `tc` rules and acyclicity constraint of the transitive-closure
/// workloads.
const TC_SCHEMA: &str = "tc(X,Y) :- edge(X,Y).\n\
                         tc(X,Z) :- tc(X,Y), edge(Y,Z).\n\
                         constraint acyclic: forall X: tc(X,X) -> false.\n";

/// Transitive-closure workload: a path graph of `n` nodes with `tc`
/// rules and an acyclicity constraint. Used for recursion benchmarks.
pub fn tc_chain(n: usize, seed: u64) -> Database {
    let mut src = String::from(TC_SCHEMA);
    let lines = (0..n.saturating_sub(1))
        .map(|i| format!("edge(n{i}, n{}).\n", i + 1))
        .collect();
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("tc chain parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// Transitive-closure workload on a forest: `n` nodes in complete binary
/// trees of depth 3, 15 nodes each (the last one possibly partial),
/// under the rules and constraint of [`tc_chain`]. Node `t{k}_{i}` is
/// the `i`-th node of tree `k` in breadth-first order (its parent is
/// node `(i - 1) / 2`), so a node's ancestors and descendants have the
/// same shape whatever `n` is — only the number of trees grows.
pub fn tc_forest(n: usize, seed: u64) -> Database {
    let per_tree = 15;
    let mut src = String::from(TC_SCHEMA);
    let lines = (0..n)
        .filter(|node| node % per_tree != 0)
        .map(|node| {
            let (tree, i) = (node / per_tree, node % per_tree);
            format!("edge(t{tree}_{}, t{tree}_{i}).\n", (i - 1) / 2)
        })
        .collect();
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("tc forest parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// Random edge insertions for [`tc_chain`]; some close a cycle
/// (rejected), some extend the dag (accepted).
pub fn tc_updates(n: usize, count: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            upd(&format!("edge(n{a}, n{b})"))
        })
        .collect()
}

/// Employee/department instance of the §5 schema (with the repaired
/// constraint set so instances are consistent): `n` departments, each
/// led by its own manager, `per_dept` members each.
pub fn org(n: usize, per_dept: usize, seed: u64) -> Database {
    let mut src = String::from(
        "member(X,Y) :- leads(X,Y).\n\
         constraint c1: forall X: employee(X) -> (exists Y: department(Y) & member(X,Y)).\n\
         constraint c2: forall X: department(X) -> (exists Y: employee(Y) & leads(Y,X)).\n\
         constraint c3: forall X, Y: member(X,Y) -> leads(X,Y) | (forall Z: leads(Z,Y) -> subordinate(X,Z)).\n\
         constraint c4: forall X: ~subordinate(X,X).\n",
    );
    let mut lines = Vec::new();
    for d in 0..n {
        lines.push(format!("department(d{d}).\n"));
        lines.push(format!("employee(m{d}).\n"));
        lines.push(format!("leads(m{d}, d{d}).\n"));
        for e in 0..per_dept {
            lines.push(format!("employee(e{d}_{e}).\n"));
            lines.push(format!("member(e{d}_{e}, d{d}).\n"));
            lines.push(format!("subordinate(e{d}_{e}, m{d}).\n"));
        }
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("org workload parses");
    debug_assert!(starts_consistent(&db), "org workload starts consistent");
    db
}

/// A mixed stream of single-fact updates against [`org`], seeded.
pub fn org_updates(n: usize, per_dept: usize, count: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            match rng.gen_range(0..4u8) {
                // New employee with no department (violates c1).
                0 => upd(&format!("employee(x{i})")),
                // Membership without subordination (violates c3 unless
                // the member is the leader).
                1 => {
                    let d = rng.gen_range(0..n);
                    upd(&format!("member(x{i}, d{d})"))
                }
                // Remove a leader (violates c2 for the department).
                2 => {
                    let d = rng.gen_range(0..n);
                    upd(&format!("not leads(m{d}, d{d})"))
                }
                // Harmless subordinate fact.
                _ => {
                    let d = rng.gen_range(0..n);
                    let e = rng.gen_range(0..per_dept.max(1));
                    upd(&format!("subordinate(e{d}_{e}, m{d})"))
                }
            }
        })
        .collect()
}

/// Rule-update workload: a database where only *one* of `k + 1`
/// constraints is relevant to the rule update `loud(X) :- speaker(X)`.
/// The other `k` constraints range over an `n`-row assignment relation,
/// so a full re-check pays `k × n` while the incremental rule-update
/// check compiles exactly one update constraint and evaluates per
/// speaker.
pub fn rule_update_workload(n: usize, k: usize, speakers: usize, seed: u64) -> Database {
    let mut src = String::new();
    src.push_str("constraint loud_warned: forall X: loud(X) -> warned(X).\n");
    for i in 0..k {
        src.push_str(&format!(
            "constraint c{i}: forall X, Y: assign(X, Y) -> emp(X).\n"
        ));
    }
    let mut lines = Vec::new();
    for i in 0..n {
        lines.push(format!("emp(e{i}).\n"));
        lines.push(format!("assign(e{i}, d{}).\n", i % 8));
    }
    for j in 0..speakers {
        lines.push(format!("speaker(s{j}).\n"));
        lines.push(format!("warned(s{j}).\n"));
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("rule-update workload parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// Workload for the general-formula optimizer: the constraint on
/// `p` disjoins an expensive existential over an `n`-row relation with
/// a cheap ground lookup that is always true. Written in the
/// pessimistic order, so only reordering saves the join.
pub fn optimizer_workload(n: usize, seed: u64) -> Database {
    let mut src = String::from(
        "constraint guarded: forall X: p(X) ->
             (exists Y, Z: big(Y, Z) & big(Z, Y)) | ok(X).\n",
    );
    // A chain: no symmetric pair exists, so the existential always
    // fails after scanning the join.
    let mut lines: Vec<String> = (0..n)
        .map(|i| format!("big(b{i}, b{}).\n", i + 1))
        .collect();
    lines.push("ok(a0). ok(a1). ok(a2). ok(a3).\n".to_string());
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("optimizer workload parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// Schema for the multi-writer commit-pipeline workload: each writer
/// owns a `roster{w}`/`badge{w}` relation pair guarded by a per-writer
/// constraint, plus a *shared* `vip`/`audit` pair every writer touches
/// occasionally. Private transactions from different writers have
/// disjoint read/write sets (they commit without conflicting); shared
/// ones contend and exercise first-committer-wins retries.
pub fn commit_mix_db(writers: usize, seed: u64) -> Database {
    let mut src = String::from("constraint shared: forall X: vip(X) -> audit(X).\n");
    for w in 0..writers {
        src.push_str(&format!(
            "constraint own{w}: forall X: badge{w}(X) -> roster{w}(X).\n"
        ));
    }
    let mut lines = Vec::new();
    lines.push("audit(seed).\n".to_string());
    lines.push("vip(seed).\n".to_string());
    for w in 0..writers {
        lines.push(format!("roster{w}(r{w}_seed).\n"));
        lines.push(format!("badge{w}(r{w}_seed).\n"));
    }
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("commit-mix schema parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// One writer's transaction stream for [`commit_mix_db`]. A seeded mix
/// of: private inserts (disjoint across writers, should always admit),
/// private churn (delete badge+roster pairs), shared `vip`/`audit`
/// writes (conflict across writers), and deliberately bad transactions
/// (a badge without its roster row, a vip without audit) the integrity
/// checker must reject. Deterministic per `(writer, per_writer, seed)`.
pub fn commit_mix_stream(
    writer: usize,
    writers: usize,
    per_writer: usize,
    seed: u64,
) -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(seed ^ (writer as u64).wrapping_mul(0x9e37_79b9));
    let w = writer % writers.max(1);
    (0..per_writer)
        .map(|i| match rng.gen_range(0..8u8) {
            // Private good transaction: roster row + badge together.
            0..=3 => Transaction::new(vec![
                upd(&format!("roster{w}(p{w}_{i})")),
                upd(&format!("badge{w}(p{w}_{i})")),
            ]),
            // Private churn: retire the seed pair (badge first) or a row
            // inserted earlier; a no-op when already gone.
            4 => Transaction::new(vec![
                upd(&format!("not badge{w}(p{w}_{})", i.saturating_sub(1))),
                upd(&format!("not roster{w}(p{w}_{})", i.saturating_sub(1))),
            ]),
            // Shared transaction: everyone reads/writes vip and audit.
            5 => Transaction::new(vec![
                upd(&format!("audit(v{i}_{w})")),
                upd(&format!("vip(v{i}_{w})")),
            ]),
            // Bad private: badge without roster — must be rejected.
            6 => Transaction::new(vec![upd(&format!("badge{w}(ghost{w}_{i})"))]),
            // Bad shared: vip without audit — must be rejected.
            _ => Transaction::new(vec![upd(&format!("vip(ghost{w}_{i})"))]),
        })
        .collect()
}

/// The full multi-writer mix: base database plus one stream per writer.
pub fn commit_mix(
    writers: usize,
    per_writer: usize,
    seed: u64,
) -> (Database, Vec<Vec<Transaction>>) {
    let db = commit_mix_db(writers, seed);
    let streams = (0..writers)
        .map(|w| commit_mix_stream(w, writers, per_writer, seed))
        .collect();
    (db, streams)
}

/// Base database for the hot-relation workload: a single
/// constraint-free `ledger(key, value)` relation pre-grown to
/// `rows` tuples, so it spans many store pages. Every writer then
/// appends to *this one relation* — the worst case for relation-level
/// conflict detection (every commit invalidates every reader) and the
/// showcase for key-level detection plus chunked copy-on-write (a
/// commit clones only the pages it touches, never the pre-grown bulk).
/// Insertion order is seed-shuffled like every other generator.
pub fn hot_relation_db(rows: usize, seed: u64) -> Database {
    let mut db = Database::parse("ledger(seed_key, seed_val).").expect("hot-relation schema");
    let mut keys: Vec<usize> = (0..rows).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        keys.swap(i, j);
    }
    for k in keys {
        db.insert_fact(&Fact::parse_like(
            "ledger",
            &[&format!("base{k}"), &format!("v{}", k % 7)],
        ));
    }
    db
}

/// Schema for the repair / consistent-query-answering workload: a tiny
/// active domain (`a`, `b`, `c`) under four violation classes —
/// implication (`imp`), domain (`dom_s`), existential (`span`) and a
/// *derived*-trigger constraint (`flag_ok`, through the `flagged`
/// rule). The base instance is consistent; the update streams are
/// violation-heavy. Small on purpose: brute-force repair enumeration
/// over the full operation universe stays affordable, which is what
/// `tests/prop_repair.rs` needs from its oracle.
pub fn violation_mix_db(seed: u64) -> Database {
    let mut src = String::from(
        "flagged(X) :- p(X), bad(X).\n\
         constraint imp: forall X: p(X) -> q(X).\n\
         constraint dom_s: forall X, Y: s(X, Y) -> r(X).\n\
         constraint span: forall X: r(X) -> (exists Y: s(X, Y)).\n\
         constraint flag_ok: forall X: flagged(X) -> ok(X).\n",
    );
    let lines = vec![
        "p(a).\n".to_string(),
        "q(a).\n".to_string(),
        "r(b).\n".to_string(),
        "s(b, a).\n".to_string(),
        "ok(c).\n".to_string(),
    ];
    push_shuffled(&mut src, lines, seed);
    let db = Database::parse(&src).expect("violation-mix schema parses");
    debug_assert!(starts_consistent(&db));
    db
}

/// A violation-heavy stream of single-fact updates for
/// [`violation_mix_db`]: most entries break one of the four constraint
/// classes (missing implication targets, dangling tuples, widowed
/// existentials, derived violations via `bad`), a minority are
/// harmless. Deterministic per `(count, seed)`.
pub fn violation_updates(count: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let consts = ["a", "b", "c"];
    (0..count)
        .map(|_| {
            let x = consts[rng.gen_range(0..consts.len())];
            let y = consts[rng.gen_range(0..consts.len())];
            match rng.gen_range(0..8u8) {
                // Implication violation: p without q.
                0 => upd(&format!("p({x})")),
                // Deletion side of the implication.
                1 => upd(&format!("not q({x})")),
                // Derived violation: bad makes flagged true, ok missing.
                2 => upd(&format!("bad({x})")),
                // Existential violation: r without s.
                3 => upd(&format!("r({x})")),
                // Domain violation: s without r.
                4 => upd(&format!("s({x}, {y})")),
                // Deleting support of the existential.
                5 => upd(&format!("not s({x}, {y})")),
                // Harmless.
                6 => upd(&format!("ok({x})")),
                _ => upd(&format!("q({x})")),
            }
        })
        .collect()
}

/// A possibly-inconsistent small state: the consistent
/// [`violation_mix_db`] base with `churn` raw (unguarded) updates from
/// [`violation_updates`] applied — what an external loader or a
/// privileged raw writer leaves behind. This is the input shape of the
/// repair engine's differential oracle suite.
pub fn violation_state(churn: usize, seed: u64) -> Database {
    let mut db = violation_mix_db(seed);
    for u in violation_updates(churn, seed ^ 0xda7a_5eed) {
        db.apply(&u).expect("violation updates are arity-correct");
    }
    db
}

/// A violation-*dense* state: `n` independent violations of a
/// two-constraint chain (`p(X) -> q(X)` and `q(X) -> false`), so the
/// **unique** minimal repair deletes all `n` `p` facts at once. The
/// whole-scope enforcement search (`RepairBackend::Search`) must
/// thread all `n` enforcement chains within one branch budget (~3ⁿ
/// nodes) and refuses with `BudgetExhausted` once `n` outgrows it,
/// while the SAT backend settles the whole clause set by unit
/// propagation, and `RepairBackend::Auto` splits the state into its
/// `n` independent parts (one per constant) at a few nodes each. A
/// disjoint `noise`
/// relation rides along for affected-closure scoping tests. Fact order
/// is shuffled per `seed`; the semantic state is the same for every
/// seed.
pub fn violation_dense_db(n: usize, seed: u64) -> Database {
    let mut src = String::from(
        "constraint step: forall X: p(X) -> q(X).\n\
         constraint stop: forall X: q(X) -> false.\n",
    );
    let mut lines: Vec<String> = (0..n).map(|i| format!("p(c{i}).\n")).collect();
    lines.push("noise(n0).\n".to_string());
    push_shuffled(&mut src, lines, seed);
    Database::parse(&src).expect("violation-dense schema parses")
}

/// One writer's violation-heavy transaction stream for the multi-writer
/// repair workload: mostly 1–2-update transactions that violate some
/// constraint (exercising `Explain` / `AutoRepair` policies), a
/// minority self-contained good ones. Deterministic per
/// `(writer, per_writer, seed)`.
pub fn violation_mix_stream(writer: usize, per_writer: usize, seed: u64) -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(seed ^ (writer as u64).wrapping_mul(0x9e37_79b9));
    let consts = ["a", "b", "c"];
    (0..per_writer)
        .map(|i| {
            let x = consts[rng.gen_range(0..consts.len())];
            let y = consts[rng.gen_range(0..consts.len())];
            match rng.gen_range(0..6u8) {
                // Violating: p without its q.
                0 => Transaction::new(vec![upd(&format!("p({x})"))]),
                // Violating: a bad flag without the ok cover.
                1 => Transaction::new(vec![upd(&format!("bad({x})"))]),
                // Violating: dangling tuple + widowed existential.
                2 => Transaction::new(vec![upd(&format!("s({x}, {y})"))]),
                // Violating: delete an implication target.
                3 => Transaction::new(vec![upd(&format!("not q({x})"))]),
                // Good: implication pair inserted together.
                4 => Transaction::new(vec![upd(&format!("p({x})")), upd(&format!("q({x})"))]),
                // Good: fresh ok cover (distinct per writer/step).
                _ => Transaction::new(vec![upd(&format!("ok(w{writer}_{i})"))]),
            }
        })
        .collect()
}

/// The full violation-heavy multi-writer mix: base database plus one
/// stream per writer.
pub fn violation_mix(
    writers: usize,
    per_writer: usize,
    seed: u64,
) -> (Database, Vec<Vec<Transaction>>) {
    let db = violation_mix_db(seed);
    let streams = (0..writers)
        .map(|w| violation_mix_stream(w, per_writer, seed))
        .collect();
    (db, streams)
}

/// The hot-query list a serving tier would pin against
/// [`deductive_university`] databases: joins through the derived
/// predicate, bound and free literals, and a negation. Consumed by the
/// prepared-vs-legacy equivalence property suite.
pub fn university_read_queries() -> &'static [&'static str] {
    &[
        "enrolled(X, C)",
        "student(X), attends(X, C)",
        "enrolled(X, cs), attends(X, ddb)",
        "student(X), not attends(X, ddb)",
        "attends(s0, C)",
    ]
}

/// The hot-query list for [`violation_mix_db`] / [`violation_state`]
/// databases (one per constraint class, plus a join), for exercising
/// the `Certain` consistency level over inconsistent states.
pub fn violation_read_queries() -> &'static [&'static str] {
    &[
        "p(X)",
        "q(X)",
        "flagged(X)",
        "s(X, Y)",
        "r(X), s(X, Y)",
        "p(X), not q(X)",
    ]
}

/// Random ground facts over a fixed schema — fodder for property tests.
pub fn random_facts(
    preds: &[(&str, usize)],
    constants: &[&str],
    count: usize,
    seed: u64,
) -> Vec<Fact> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let (p, arity) = preds[rng.gen_range(0..preds.len())];
            let args: Vec<&str> = (0..arity)
                .map(|_| constants[rng.gen_range(0..constants.len())])
                .collect();
            Fact::parse_like(p, &args)
        })
        .collect()
}

fn upd(src: &str) -> Update {
    let lit: Literal = parse_literal(src).expect(src);
    Update::from_literal(&lit).expect("workload updates are ground")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_update_workload_shape() {
        for (n, k, s) in [(4, 1, 2), (64, 8, 8), (256, 0, 1)] {
            let db = rule_update_workload(n, k, s, 0);
            assert!(db.is_consistent());
            assert_eq!(db.constraints().len(), k + 1);
            assert_eq!(db.facts().len(), 2 * n + 2 * s);
        }
    }

    #[test]
    fn optimizer_workload_shape() {
        let db = optimizer_workload(32, 0);
        assert!(db.is_consistent());
        assert_eq!(db.constraints().len(), 1);
        // The chain has no symmetric pair: the existential disjunct is
        // unsatisfiable, so the constraint leans entirely on ok(X).
        assert!(!db.satisfies(
            &uniform_logic::normalize(
                &uniform_logic::parse_formula("exists Y, Z: big(Y, Z) & big(Z, Y)").unwrap()
            )
            .unwrap()
        ));
    }

    #[test]
    fn university_scales_and_is_consistent() {
        for n in [0, 1, 10, 50] {
            let db = university(n, 0);
            assert!(db.is_consistent());
            assert_eq!(db.facts().len(), 3 * n);
        }
    }

    #[test]
    fn seeds_are_reproducible_and_vary_layout() {
        // Same seed: identical fact iteration order. Different seed: same
        // content (as a set), typically a different order.
        let a: Vec<String> = university(30, 7)
            .facts()
            .iter()
            .map(|f| f.to_string())
            .collect();
        let b: Vec<String> = university(30, 7)
            .facts()
            .iter()
            .map(|f| f.to_string())
            .collect();
        assert_eq!(a, b, "same seed must reproduce the same layout");
        let c: Vec<String> = university(30, 8)
            .facts()
            .iter()
            .map(|f| f.to_string())
            .collect();
        assert_ne!(a, c, "different seeds should vary insertion order");
        let (mut sa, mut sc) = (a.clone(), c.clone());
        sa.sort();
        sc.sort();
        assert_eq!(sa, sc, "content is seed-independent");
    }

    #[test]
    fn irrelevant_induction_shape() {
        let (db, tx) = irrelevant_induction(5, 0);
        assert_eq!(tx.len(), 1);
        assert_eq!(db.rules().len(), 1);
    }

    #[test]
    fn org_consistent_and_updates_deterministic() {
        let db = org(3, 2, 0);
        assert!(db.is_consistent());
        let a = org_updates(3, 2, 10, 42);
        let b = org_updates(3, 2, 10, 42);
        assert_eq!(a, b, "same seed, same stream");
    }

    #[test]
    fn tc_forest_is_a_forest_of_fixed_depth_trees() {
        let db = tc_forest(20, 3);
        assert!(db.is_consistent());
        // 15 nodes in tree 0, 5 in tree 1: 14 + 4 edges.
        assert_eq!(db.facts().len(), 18);
        assert!(db.holds(&Fact::parse_like("tc", &["t0_0", "t0_14"])));
        assert!(db.holds(&Fact::parse_like("tc", &["t1_1", "t1_4"])));
        assert!(!db.holds(&Fact::parse_like("tc", &["t0_0", "t1_1"])));
    }

    #[test]
    fn tc_chain_consistent() {
        let db = tc_chain(10, 0);
        assert!(db.is_consistent());
        assert!(db.holds(&Fact::parse_like("tc", &["n0", "n9"])));
    }

    #[test]
    fn commit_mix_shape_and_determinism() {
        let (db, streams) = commit_mix(3, 10, 7);
        assert!(db.is_consistent());
        assert_eq!(db.constraints().len(), 4, "shared + one per writer");
        assert_eq!(streams.len(), 3);
        assert!(streams.iter().all(|s| s.len() == 10));
        // Same seed reproduces byte-identical streams; writers differ.
        let (_, again) = commit_mix(3, 10, 7);
        assert_eq!(streams, again);
        assert_ne!(streams[0], streams[1]);
        // Private transactions of different writers touch disjoint
        // relations.
        let preds = |w: usize| -> std::collections::BTreeSet<String> {
            streams[w]
                .iter()
                .flat_map(|t| t.updates.iter().map(|u| u.fact.pred.to_string()))
                .filter(|p| p.starts_with("roster") || p.starts_with("badge"))
                .collect()
        };
        assert!(preds(0).is_disjoint(&preds(1)));
    }

    #[test]
    fn violation_mix_shape_and_determinism() {
        let db = violation_mix_db(3);
        assert!(db.is_consistent());
        assert_eq!(db.constraints().len(), 4);
        assert_eq!(db.rules().len(), 1);
        // Streams are violation-heavy and reproducible.
        let (base, streams) = violation_mix(2, 12, 9);
        assert!(base.is_consistent());
        let (_, again) = violation_mix(2, 12, 9);
        assert_eq!(streams, again);
        assert_ne!(streams[0], streams[1]);
        // Raw churn produces inconsistent states often enough to matter.
        let mut inconsistent = 0;
        for seed in 0..16 {
            if !violation_state(4, seed).is_consistent() {
                inconsistent += 1;
            }
        }
        assert!(inconsistent >= 8, "only {inconsistent}/16 inconsistent");
        assert_eq!(
            violation_updates(20, 5),
            violation_updates(20, 5),
            "same seed, same stream"
        );
    }

    #[test]
    fn random_facts_deterministic() {
        let a = random_facts(&[("p", 2), ("q", 1)], &["a", "b"], 20, 7);
        let b = random_facts(&[("p", 2), ("q", 1)], &["a", "b"], 20, 7);
        assert_eq!(a, b);
    }
}
