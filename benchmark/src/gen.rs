//! The benchmark's own generators: program texts and operation lists as
//! a pure function of `(workload, seed, seconds)`. Nothing here calls
//! into the program under test (in particular not `uniform::workload`,
//! which later changes may reshape), so two commits given one seed run
//! byte-identical inputs — `Plan::input_digest` proves it.
//!
//! Op counts are fixed by `seconds`, not by a clock: the nominal counts
//! below are sized for `NOMINAL_SECONDS` of measured work at the speed of
//! the commit that defined the benchmark, and scale linearly with
//! `--seconds`. A faster program finishes the same list sooner.

use crate::ops::{
    fact, Action, Class, DbSpec, Expect, FactSpec, Level, Op, Plan, Policy, QuerySpec, Read, Roles,
};
use crate::rng::{Rng, Zipf};

pub const NOMINAL_SECONDS: u32 = 20;
pub const WORKLOADS: [&str; 4] = [
    "commit_flat",
    "commit_recursive",
    "read_serving",
    "enforcement",
];

/// Reads per burst: prepared reads cost a few µs, far below what one
/// `Instant` pair resolves, so they are timed 64 at a time.
pub const BURST: usize = 64;

/// `read_serving` and `enforcement` lay their lists out in this many
/// equal rounds, which spreads their rare expensive operations (a cold
/// `Certain` miss, the dense block) evenly over the run.
const ROUNDS: usize = 8;

/// Students of the flat university database: 20 store pages of 1 024
/// slots per single-fact-per-student relation.
pub const STUDENTS: usize = 20 * 1024;
/// Students of the schema-evolution database of `enforcement`.
pub const STUDENTS_SMALL: usize = 768;
/// Employees of the org forest: the largest at which 2 000 samples of
/// every class of the mix still fit the run (a commit costs in
/// proportion to the forest, ~20 µs per employee at the defining commit).
pub const EMPLOYEES: usize = 192;

/// Operations of each list at nominal length, sized so the measured
/// phase takes 15–25 s at the defining commit's speed.
const COMMIT_FLAT_OPS: usize = 20_000;
const COMMIT_RECURSIVE_OPS: usize = 8_320;
/// `read_serving`: carry-forward commits, each followed by four bursts.
const READ_SERVING_COMMITS: usize = 2_816;
/// `enforcement`: cycles of Phase S and of Phase R.
const ENFORCEMENT_CYCLES: usize = 4_096;
const GROUP: usize = 8;
/// Depth of the base nodes that host inserted leaves.
const HOST_DEPTH: u8 = 3;
/// Inserted leaves alive at any time (the 8 of the warm-up included).
const LEAVES: usize = 16;
const ROOTS: usize = 4;

fn scaled(nominal: usize, seconds: u32) -> usize {
    (nominal * seconds as usize)
        .div_ceil(NOMINAL_SECONDS as usize)
        .max(1)
}

/// One round's share of a per-run nominal count.
fn per_round(nominal: usize, seconds: u32) -> usize {
    scaled(nominal, seconds).div_ceil(ROUNDS)
}

/// A list of `n` slots holding each `(kind, percent)` in exactly its
/// share (the first kind takes the rounding), shuffled under the seed:
/// every seed runs the same number of operations of every class.
fn mix<K: Copy>(n: usize, shares: &[(K, usize)], rng: &mut Rng) -> Vec<K> {
    let mut slots = Vec::with_capacity(n);
    for &(kind, percent) in &shares[1..] {
        slots.extend(std::iter::repeat_n(kind, n * percent / 100));
    }
    slots.extend(std::iter::repeat_n(shares[0].0, n - slots.len()));
    rng.shuffle(&mut slots);
    slots
}

pub fn plan(workload: &str, seed: u64, seconds: u32) -> Option<Plan> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ workload.len() as u64);
    Some(match workload {
        "commit_flat" => commit_flat(seed, seconds, &mut rng),
        "commit_recursive" => commit_recursive(seed, seconds, &mut rng),
        "read_serving" => read_serving(seed, seconds, &mut rng),
        "enforcement" => enforcement(seed, seconds, &mut rng),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// The flat university database
// ---------------------------------------------------------------------------

/// Per-student fact counts, all the generator needs to predict the row
/// count of every read.
#[derive(Clone, Copy)]
struct Student {
    enrolled: u8,
    attends: u8,
    notes: u8,
    award: bool,
}

struct University {
    program: String,
    students: Vec<Student>,
    /// Zipf rank → student, so hot students are spread over the pages.
    by_rank: Vec<u32>,
    zipf: Zipf,
}

const UNI_SCHEMA: &str = "\
honours(X) :- student(X), award(X).
constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
constraint dom_enrolled: forall X, C: enrolled(X, C) -> student(X).
constraint dom_attends: forall X, C: attends(X, C) -> student(X).
constraint has_course: forall X: student(X) -> (exists C: enrolled(X, C)).
constraint hon_ok: forall X: honours(X) -> attends(X, sem).
";

/// Only the schema-evolution database needs a constraint that forces a
/// fact to exist: without one every candidate set has the empty model
/// and nothing is ever statically unsatisfiable.
const DEAN_SCHEMA: &str = "\
constraint has_dean: exists X: dean(X).
constraint dean_staff: forall X: dean(X) -> staff(X).
dean(d0).
staff(d0).
";

const DEPTS: [&str; 4] = ["cs", "math", "phys", "bio"];

fn university(n: usize, with_dean: bool, rng: &mut Rng) -> University {
    assert!(n.is_multiple_of(GROUP));
    let mut lines: Vec<String> = Vec::with_capacity(n * 8);
    let mut students = Vec::with_capacity(n);
    for i in 0..n {
        // How many facts a student has is a function of `i`, so every
        // relation has the same size — the same number of store pages —
        // for every seed; which departments, courses and notes is drawn.
        let s = format!("s{i}");
        lines.push(format!("student({s}).\n"));
        lines.push(format!("group_of({s}, g{}).\n", i / GROUP));
        let first = rng.below(DEPTS.len());
        let mut depts = vec![first];
        if i % 4 == 1 {
            depts.push((first + 1 + rng.below(DEPTS.len() - 1)) % DEPTS.len());
        }
        for &d in &depts {
            lines.push(format!("enrolled({s}, {}).\n", DEPTS[d]));
        }
        // The first member of every group never holds an award, so the
        // `not award(X)` reads always return a row.
        let award = i % 20 == 7;
        if award {
            lines.push(format!("award({s}).\n"));
        }
        // One or two elective courses, plus `ddb` for every student (cs
        // or not, so `cdb` holds whatever was drawn) and `sem` with an
        // award (`hon_ok`).
        let mut courses = vec!["ddb".to_string()];
        if award {
            courses.push("sem".to_string());
        }
        let base = rng.below(39);
        for k in 0..1 + i % 2 {
            courses.push(format!("c{}", base + k));
        }
        for c in &courses {
            lines.push(format!("attends({s}, {c}).\n"));
        }
        let notes = 1 + (i / 2) % 2;
        let base = rng.below(90);
        for k in 0..notes {
            lines.push(format!("note({s}, n{}).\n", base + k));
        }
        students.push(Student {
            enrolled: depts.len() as u8,
            attends: courses.len() as u8,
            notes: notes as u8,
            award,
        });
    }
    // Insertion order shapes page layout and iteration order downstream;
    // shuffling under the seed makes the layout an input, not an accident.
    rng.shuffle(&mut lines);
    let mut program = String::from(UNI_SCHEMA);
    if with_dean {
        program.push_str(DEAN_SCHEMA);
    }
    for line in &lines {
        program.push_str(line);
    }
    let mut by_rank: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut by_rank);
    University {
        program,
        students,
        by_rank,
        zipf: Zipf::new(n),
    }
}

/// What a read's parameter ranges over and which members it joins.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// Parameter `S` is a student; rows are that student's facts.
    Student,
    /// Parameter `G` is a group; rows range over its members `X`.
    Group,
    /// Parameter `S` is a student; rows range over its group peers `X`.
    Peers,
}

#[derive(Clone, Copy)]
struct Template {
    scope: Scope,
    enrolled: bool,
    attends: bool,
    notes: bool,
    /// `not award(X)` on the member variable.
    unawarded: bool,
}

/// The 32 prepared query texts of the university databases. 32 distinct
/// `(text, params)` keys fit the 16-shard × 64-entry plan cache many
/// times over: after warm-up every `prepare_with_params` is a hit.
fn uni_templates() -> Vec<(QuerySpec, Template)> {
    let mut out = Vec::new();
    let facets = |v: &str, t: &Template| {
        let mut lits = Vec::new();
        if t.enrolled {
            lits.push(format!("enrolled({v}, C)"));
        }
        if t.attends {
            lits.push(format!("attends({v}, D)"));
        }
        if t.notes {
            lits.push(format!("note({v}, M)"));
        }
        lits
    };
    for prefix in [false, true] {
        for bits in 1..8u8 {
            let t = Template {
                scope: Scope::Student,
                enrolled: bits & 1 != 0,
                attends: bits & 2 != 0,
                notes: bits & 4 != 0,
                unawarded: false,
            };
            let mut lits = facets("S", &t);
            if prefix {
                lits.insert(0, "student(S)".to_string());
            }
            out.push((lits.join(", "), "S", t));
        }
    }
    for (enrolled, attends) in [(true, false), (false, true)] {
        let t = Template {
            scope: Scope::Student,
            enrolled,
            attends,
            notes: false,
            unawarded: false,
        };
        let mut lits = facets("S", &t);
        lits.push("group_of(S, G)".to_string());
        out.push((lits.join(", "), "S", t));
    }
    for scope in [Scope::Group, Scope::Peers] {
        for unawarded in [false, true] {
            for facet in 0..4u8 {
                let t = Template {
                    scope,
                    enrolled: facet == 1,
                    attends: facet == 2,
                    notes: facet == 3,
                    unawarded,
                };
                let mut lits = match scope {
                    Scope::Group => vec!["group_of(X, G)".to_string()],
                    _ => vec!["group_of(S, G)".to_string(), "group_of(X, G)".to_string()],
                };
                lits.extend(facets("X", &t));
                if unawarded {
                    lits.push("not award(X)".to_string());
                }
                let param = if scope == Scope::Group { "G" } else { "S" };
                out.push((lits.join(", "), param, t));
            }
        }
    }
    assert_eq!(out.len(), 32);
    out.into_iter()
        .map(|(text, param, t)| (QuerySpec { text, param }, t))
        .collect()
}

impl University {
    fn rows(&self, t: &Template, student: usize) -> u64 {
        let per = |s: &Student| {
            let mut r = 1u64;
            if t.enrolled {
                r *= s.enrolled as u64;
            }
            if t.attends {
                r *= s.attends as u64;
            }
            if t.notes {
                r *= s.notes as u64;
            }
            r
        };
        match t.scope {
            Scope::Student => per(&self.students[student]),
            Scope::Group | Scope::Peers => {
                let g = student / GROUP * GROUP;
                self.students[g..g + GROUP]
                    .iter()
                    .filter(|s| !(t.unawarded && s.award))
                    .map(per)
                    .sum()
            }
        }
    }

    /// The `query`-th text bound to `student` (or to its group), and the
    /// rows it returns.
    fn read(
        &self,
        templates: &[(QuerySpec, Template)],
        query: usize,
        student: usize,
    ) -> (Read, u64) {
        let t = &templates[query].1;
        let param = match t.scope {
            Scope::Group => format!("g{}", student / GROUP),
            _ => format!("s{student}"),
        };
        let read = Read {
            query: query as u16,
            param,
        };
        (read, self.rows(t, student))
    }

    /// One burst of Zipf-distributed reads over the 32 templates. Base
    /// students are never written by any op, so the expected row total
    /// holds wherever in the list the burst runs.
    fn burst(
        &self,
        templates: &[(QuerySpec, Template)],
        class: Class,
        level: Level,
        len: usize,
        rng: &mut Rng,
    ) -> Op {
        let mut total = 0;
        let reads = (0..len)
            .map(|_| {
                let student = self.by_rank[self.zipf.sample(rng)] as usize;
                let (read, rows) = self.read(templates, rng.below(templates.len()), student);
                total += rows;
                read
            })
            .collect();
        Op {
            db: 0,
            class,
            action: Action::Reads { level, reads },
            expect: Expect::Rows(Some(total)),
        }
    }
}

fn commit(db: u8, class: Class, inserts: Vec<FactSpec>, deletes: Vec<FactSpec>) -> Op {
    Op {
        db,
        class,
        action: Action::Commit {
            inserts,
            deletes,
            policy: Policy::Reject,
        },
        expect: Expect::Accepted,
    }
}

fn student3(name: &str) -> Vec<FactSpec> {
    vec![
        fact("student", &[name]),
        fact("enrolled", &[name, "cs"]),
        fact("attends", &[name, "ddb"]),
    ]
}

fn insert3(class: Class, name: &str) -> Op {
    commit(0, class, student3(name), vec![])
}

fn delete3(name: &str) -> Op {
    commit(0, Class::Delete3, vec![], student3(name))
}

/// The paper's own example: enrolled in cs without attending `ddb`.
fn reject_cs(name: &str) -> Op {
    Op {
        expect: Expect::Rejected,
        ..commit(
            0,
            Class::RejectCs,
            vec![fact("student", &[name]), fact("enrolled", &[name, "cs"])],
            vec![],
        )
    }
}

fn schema_add(db: u8, name: String, formula: &str) -> Op {
    Op {
        db,
        class: Class::SchemaAdd,
        action: Action::AddConstraint {
            name,
            formula: formula.to_string(),
        },
        expect: Expect::SchemaAdded,
    }
}

fn schema_reset(db: u8, rules: bool) -> Op {
    Op {
        db,
        class: Class::SchemaReset,
        action: Action::ResetSchema { rules },
        expect: Expect::Done,
    }
}

/// Accepted constraint of Phase S: true in every generated state, one
/// fixed shape, a fresh name each time.
const UNI_ACCEPTED: &str = "forall X: award(X) -> student(X)";

/// Students `w0..` the warm-up of a university database inserts.
const WARM_INSERTS: usize = 8;

/// Warm-up of a university database: a few commits so the queue builds
/// its maintained model, then every query once at each level so plan,
/// analysis and certain caches are filled before anything is timed.
fn uni_warmup(uni: &University, templates: &[(QuerySpec, Template)], rng: &mut Rng) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..WARM_INSERTS)
        .map(|k| insert3(Class::Insert3, &format!("w{k}")))
        .collect();
    for level in [Level::Latest, Level::Certain] {
        for q in 0..templates.len() {
            let student = uni.by_rank[uni.zipf.sample(rng)] as usize;
            let (read, rows) = uni.read(templates, q, student);
            ops.push(Op {
                db: 0,
                class: Class::ReadLatest,
                action: Action::Reads {
                    level,
                    reads: vec![read],
                },
                expect: Expect::Rows(Some(rows)),
            });
        }
    }
    ops
}

fn uni_db(label: &'static str, uni: &University, templates: &[(QuerySpec, Template)]) -> DbSpec {
    DbSpec {
        label,
        program: uni.program.clone(),
        queries: templates.iter().map(|(q, _)| q.clone()).collect(),
        repair_max_changes: 4,
    }
}

/// The one `Certain` burst that pays for re-enumerating the repairs
/// after a commit or schema change invalidated them.
fn cold_burst(uni: &University, templates: &[(QuerySpec, Template)], rng: &mut Rng) -> Op {
    uni.burst(templates, Class::CertainCold, Level::Certain, BURST, rng)
}

// ---------------------------------------------------------------------------
// The violation-bearing repair database
// ---------------------------------------------------------------------------

const REPAIR_SCHEMA: &str = "\
flagged(X) :- p(X), bad(X).
constraint imp: forall X: p(X) -> q(X).
constraint dom_s: forall X, Y: s(X, Y) -> r(X).
constraint span: forall X: r(X) -> (exists Y: s(X, Y)).
constraint flag_ok: forall X: flagged(X) -> ok(X).
constraint step: forall X: dp(X) -> dq(X).
constraint stop: forall X: dq(X) -> false.
";

/// Dense block size: the unique minimal repair deletes all 16 `dp`
/// facts, which the bounded search refuses and only the SAT backend
/// answers.
const DENSE: usize = 16;

fn repair_db(rng: &mut Rng) -> DbSpec {
    let mut lines = Vec::new();
    for i in 0..4 {
        lines.push(format!("p(a{i}).\n"));
        lines.push(format!("q(a{i}).\n"));
    }
    for i in 4..8 {
        lines.push(format!("r(a{i}).\n"));
        lines.push(format!("s(a{i}, a{}).\n", (i + 1) % 12));
    }
    for i in 8..12 {
        lines.push(format!("ok(a{i}).\n"));
    }
    for i in 0..8 {
        lines.push(format!("noise(n{i}).\n"));
    }
    rng.shuffle(&mut lines);
    let mut program = String::from(REPAIR_SCHEMA);
    for line in &lines {
        program.push_str(line);
    }
    DbSpec {
        label: "repair",
        program,
        queries: ["s(K, Y)", "p(K), q(K)", "ok(K)", "r(K), s(K, Y)"]
            .iter()
            .map(|t| QuerySpec {
                text: t.to_string(),
                param: "K",
            })
            .collect(),
        repair_max_changes: 24,
    }
}

/// One raw-injected live violation, by slot: four `flag_ok` (a `bad`
/// mark on a `p` without `ok`), two `dom_s` (an `s` tuple without its
/// `r`), two `span` (an `r` without any `s`). Slots use disjoint
/// constants, so any subset is that many independent violations.
fn live_violation(slot: usize, rng: &mut Rng) -> FactSpec {
    match slot {
        0..=3 => fact("bad", &[&format!("a{slot}")]),
        4 | 5 => fact(
            "s",
            &[&format!("a{}", slot + 4), &format!("a{}", rng.below(12))],
        ),
        _ => fact("r", &[&format!("a{}", slot + 4)]),
    }
}

fn raw(db: u8, inserts: Vec<FactSpec>) -> Op {
    Op {
        db,
        class: Class::Raw,
        action: Action::RawApply {
            inserts,
            deletes: vec![],
        },
        expect: Expect::Done,
    }
}

fn violating(db: u8, class: Class, policy: Policy, rng: &mut Rng) -> Op {
    // `p` on a constant without `q`: one more `imp` violation, the
    // transaction's own.
    let own = fact("p", &[&format!("a{}", 4 + rng.below(4))]);
    Op {
        db,
        class,
        action: Action::Commit {
            inserts: vec![own],
            deletes: vec![],
            policy,
        },
        expect: match policy {
            Policy::Explain => Expect::Explained,
            _ => Expect::Repaired,
        },
    }
}

/// Cycles `from..from + cycles` on the repair database `db`. Every cycle
/// restores the base facts, raw-loads live violations and lands a
/// violating transaction under `AutoRepair`; the measured class always
/// meets the same shape (one `flag_ok` + one `dom_s` live, `imp` its
/// own). Every 8th cycle first has the transaction refused under
/// `Explain` and a cold `Certain` burst answered on the inconsistent
/// state, every 32nd cycle carries 3–4 live violations, and every 512th
/// the dense block.
fn repair_cycles(db: u8, from: usize, cycles: usize, rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    let restore = Op {
        db,
        class: Class::Raw,
        action: Action::RawRestore,
        expect: Expect::Done,
    };
    for c in from..from + cycles {
        ops.push(restore.clone());
        let (class, live) = if c % 512 == 511 {
            let block = (0..DENSE)
                .map(|i| fact("dp", &[&format!("c{i}")]))
                .collect();
            (Class::AutoRepairDense, block)
        } else if c % 32 == 31 {
            let mut slots: Vec<usize> = (0..6).collect();
            rng.shuffle(&mut slots);
            slots.truncate(3 + rng.below(2));
            let live = slots.into_iter().map(|s| live_violation(s, rng)).collect();
            (Class::AutoRepairWide, live)
        } else {
            let live = vec![
                live_violation(rng.below(4), rng),
                live_violation(4 + rng.below(2), rng),
            ];
            (Class::AutoRepair, live)
        };
        ops.push(raw(db, live));
        if c % 8 == 7 && class == Class::AutoRepair {
            ops.push(violating(db, Class::Explain, Policy::Explain, rng));
            let reads = (0..8)
                .map(|_| Read {
                    query: rng.below(4) as u16,
                    param: format!("a{}", rng.below(12)),
                })
                .collect();
            ops.push(Op {
                db,
                class: Class::CertainCold,
                action: Action::Reads {
                    level: Level::Certain,
                    reads,
                },
                expect: Expect::Rows(None),
            });
        }
        ops.push(violating(db, class, Policy::AutoRepair, rng));
    }
    ops.push(restore);
    ops
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Flat {
    Insert,
    Delete,
    Reject,
}

/// 100 % writes on the flat schema: the two-phase `delta`/`new` check
/// does most of the work.
fn commit_flat(seed: u64, seconds: u32, rng: &mut Rng) -> Plan {
    let uni = university(STUDENTS, false, rng);
    let templates = uni_templates();
    let warmup = uni_warmup(&uni, &templates, rng);

    // insert3 55 % / delete3 20 % / reject 25 %. Deletes retire earlier
    // inserts (the warm-up's eight to begin with), anywhere in the
    // inserted range: they leave holes in full pages.
    let shares = [(Flat::Insert, 55), (Flat::Delete, 20), (Flat::Reject, 25)];
    let mut alive: Vec<usize> = (0..WARM_INSERTS).collect();
    let (mut next, mut bad) = (WARM_INSERTS, 0usize);
    let ops = mix(scaled(COMMIT_FLAT_OPS, seconds), &shares, rng)
        .into_iter()
        .map(|kind| match kind {
            Flat::Delete if !alive.is_empty() => {
                let k = alive.swap_remove(rng.below(alive.len()));
                delete3(&format!("w{k}"))
            }
            Flat::Reject => {
                bad += 1;
                reject_cs(&format!("b{bad}"))
            }
            _ => {
                alive.push(next);
                next += 1;
                insert3(Class::Insert3, &format!("w{}", next - 1))
            }
        })
        .collect();

    Plan {
        workload: "commit_flat",
        seed,
        seconds,
        dbs: vec![uni_db("university", &uni, &templates)],
        warmup,
        ops,
        roles: Roles {
            commit: Some(Class::Insert3),
            reject: Some(Class::RejectCs),
            ..Roles::default()
        },
    }
}

/// Reads beside commits on the same database: plan cache, certain
/// cache, session path and planned joins do the work.
fn read_serving(seed: u64, seconds: u32, rng: &mut Rng) -> Plan {
    let uni = university(STUDENTS, false, rng);
    let templates = uni_templates();
    let warmup = uni_warmup(&uni, &templates, rng);

    // Four bursts (256 reads) per commit: 99.6 % reads by operation. The
    // commits are `note` inserts, outside every constraint closure, so
    // cached certain answers are carried forward. Once per round a commit
    // lands inside the closures instead and the next `Certain` burst pays
    // the cold miss; rare because one cold miss costs ~2·10⁴ warm reads
    // at this size.
    let commits = per_round(READ_SERVING_COMMITS, seconds);
    let mut ops = Vec::new();
    let mut c = 0usize;
    for round in 0..ROUNDS {
        for _ in 0..commits {
            for b in 0..4 {
                let (class, level) = if b % 2 == 0 {
                    (Class::ReadLatest, Level::Latest)
                } else {
                    (Class::ReadCertain, Level::Certain)
                };
                ops.push(uni.burst(&templates, class, level, BURST, rng));
            }
            c += 1;
            let note = fact("note", &[&format!("v{c}"), &format!("n{}", c % 90)]);
            ops.push(commit(0, Class::CommitNote, vec![note], vec![]));
        }
        let name = format!("w{}", WARM_INSERTS + round);
        ops.push(insert3(Class::CommitEnrol, &name));
        ops.push(cold_burst(&uni, &templates, rng));
    }

    Plan {
        workload: "read_serving",
        seed,
        seconds,
        dbs: vec![uni_db("university", &uni, &templates)],
        warmup,
        ops,
        roles: Roles {
            commit: Some(Class::CommitNote),
            read_latest: Some(Class::ReadLatest),
            read_certain: Some(Class::ReadCertain),
            ..Roles::default()
        },
    }
}

const ORG_SCHEMA: &str = "\
above(X, Y) :- boss(X, Y).
above(X, Z) :- boss(X, Y), above(Y, Z).
constraint acyclic: forall X: ~above(X, X).
constraint boss_emp: forall X, Y: boss(X, Y) -> emp(X).
constraint sub_emp: forall X, Y: boss(X, Y) -> emp(Y).
constraint has_unit: forall X: emp(X) -> (exists U: unit_of(X, U)).
";

/// The generator's mirror of the org forest: enough to pick hosts,
/// leaves to retire and cycle-closing edges, and to predict how many
/// descendants `above(E, Y)` returns.
///
/// The base shape is the same for every seed — `ROOTS` roots, two
/// children per node — and leaves are only ever inserted under the
/// depth-`HOST_DEPTH` base nodes, so every insert adds the same number
/// of `above` tuples and seeds differ in choices, not in shape.
struct Forest {
    name: Vec<String>,
    parent: Vec<Option<u32>>,
    depth: Vec<u8>,
    descendants: Vec<u32>,
    alive: Vec<bool>,
    /// Base nodes that take the inserted leaves.
    hosts: Vec<u32>,
    /// Alive leaves inserted by the op list (the only nodes ever deleted).
    inserted: Vec<u32>,
}

impl Forest {
    fn add(&mut self, name: String, parent: Option<u32>) -> u32 {
        let id = self.name.len() as u32;
        self.name.push(name);
        self.parent.push(parent);
        self.depth
            .push(parent.map_or(0, |p| self.depth[p as usize] + 1));
        self.descendants.push(0);
        self.alive.push(true);
        self.count_below_ancestors(id, 1);
        id
    }

    fn remove(&mut self, id: u32) {
        self.alive[id as usize] = false;
        self.inserted.retain(|&n| n != id);
        self.count_below_ancestors(id, -1);
    }

    fn count_below_ancestors(&mut self, id: u32, by: i32) {
        let mut up = self.parent[id as usize];
        while let Some(a) = up {
            self.descendants[a as usize] = self.descendants[a as usize].wrapping_add_signed(by);
            up = self.parent[a as usize];
        }
    }

    fn facts(&self, id: u32) -> Vec<FactSpec> {
        let name = &self.name[id as usize];
        let mut facts = vec![
            fact("emp", &[name]),
            fact("unit_of", &[name, &format!("u{}", id % 32)]),
        ];
        if let Some(p) = self.parent[id as usize] {
            facts.push(fact("boss", &[&self.name[p as usize], name]));
        }
        facts
    }

    /// A random alive non-root with its parent.
    fn edge(&self, rng: &mut Rng) -> (usize, usize) {
        loop {
            let n = rng.below(self.name.len());
            match self.parent[n] {
                Some(p) if self.alive[n] => return (n, p as usize),
                _ => {}
            }
        }
    }
}

fn forest(n: usize, rng: &mut Rng) -> (Forest, String) {
    let mut f = Forest {
        name: vec![],
        parent: vec![],
        depth: vec![],
        descendants: vec![],
        alive: vec![],
        hosts: vec![],
        inserted: vec![],
    };
    for i in 0..n {
        let parent = (i >= ROOTS).then(|| ((i - ROOTS) / 2) as u32);
        let id = f.add(format!("e{i}"), parent);
        if f.depth[id as usize] == HOST_DEPTH {
            f.hosts.push(id);
        }
    }
    let mut lines: Vec<String> = (0..n as u32)
        .flat_map(|id| f.facts(id))
        .map(|s| format!("{}({}).\n", s.pred, s.args.join(", ")))
        .collect();
    rng.shuffle(&mut lines);
    let mut program = String::from(ORG_SCHEMA);
    for line in &lines {
        program.push_str(line);
    }
    (f, program)
}

#[derive(Clone, Copy)]
enum Org {
    Write,
    Reject,
    Read,
}

/// The same commit API over a recursive schema: model maintenance and
/// the recursive evaluators dominate the commit.
fn commit_recursive(seed: u64, seconds: u32, rng: &mut Rng) -> Plan {
    let (mut f, program) = forest(EMPLOYEES, rng);
    let above = |f: &Forest, class: Class, level: Level, len: usize, rng: &mut Rng| {
        let mut rows = 0u64;
        let reads = (0..len)
            .map(|_| {
                // The parent of a random non-root: at least one row.
                let (_, e) = f.edge(rng);
                rows += f.descendants[e] as u64;
                Read {
                    query: 0,
                    param: f.name[e].clone(),
                }
            })
            .collect();
        Op {
            db: 0,
            class,
            action: Action::Reads { level, reads },
            expect: Expect::Rows(Some(rows)),
        }
    };
    let insert_leaf = |f: &mut Forest, name: String, rng: &mut Rng| {
        let host = f.hosts[rng.below(f.hosts.len())];
        let id = f.add(name, Some(host));
        f.inserted.push(id);
        commit(0, Class::InsertLeaf, f.facts(id), vec![])
    };

    let mut warmup: Vec<Op> = (0..8)
        .map(|k| insert_leaf(&mut f, format!("warm{k}"), rng))
        .collect();
    for level in [Level::Latest, Level::Certain] {
        warmup.push(above(&f, Class::ReadAbove, level, 8, rng));
    }

    // Half the mix writes: an insert while fewer than `LEAVES` inserted
    // leaves are alive, else a delete. A commit here costs in proportion to the
    // forest, so its size is held within one node; a growing or randomly
    // walking forest would make the median depend on the run's length and
    // on the seed.
    let shares = [(Org::Write, 50), (Org::Reject, 25), (Org::Read, 25)];
    let mut next = 0usize;
    let ops = mix(scaled(COMMIT_RECURSIVE_OPS, seconds), &shares, rng)
        .into_iter()
        .map(|kind| match kind {
            Org::Write if f.inserted.len() >= LEAVES => {
                let id = f.inserted[rng.below(f.inserted.len())];
                let facts = f.facts(id);
                f.remove(id);
                commit(0, Class::DeleteLeaf, vec![], facts)
            }
            Org::Write => {
                next += 1;
                insert_leaf(&mut f, format!("x{next}"), rng)
            }
            Org::Reject => {
                // The reverse of an existing edge closes a two-cycle.
                let (child, parent) = f.edge(rng);
                let edge = fact("boss", &[&f.name[child], &f.name[parent]]);
                Op {
                    expect: Expect::Rejected,
                    ..commit(0, Class::RejectCycle, vec![edge], vec![])
                }
            }
            Org::Read => above(&f, Class::ReadAbove, Level::Latest, BURST, rng),
        })
        .collect();

    Plan {
        workload: "commit_recursive",
        seed,
        seconds,
        dbs: vec![DbSpec {
            label: "org",
            program,
            queries: vec![QuerySpec {
                text: "above(E, Y)".to_string(),
                param: "E",
            }],
            repair_max_changes: 4,
        }],
        warmup,
        ops,
        roles: Roles {
            commit: Some(Class::InsertLeaf),
            reject: Some(Class::RejectCycle),
            read_latest: Some(Class::ReadAbove),
            ..Roles::default()
        },
    }
}

/// The paper's second half plus its repair dual: Phase S evolves a
/// schema through the satisfiability gate, Phase R serves a
/// violation-bearing state; a slice of each per round. Every cache is
/// bypassed.
fn enforcement(seed: u64, seconds: u32, rng: &mut Rng) -> Plan {
    let uni = university(STUDENTS_SMALL, true, rng);
    let templates = uni_templates();
    let mut warmup = uni_warmup(&uni, &templates, rng);
    warmup.extend(repair_cycles(1, 0, 4, rng));

    let cycles = per_round(ENFORCEMENT_CYCLES, seconds);
    let mut ops = Vec::new();
    let mut k = 0usize;
    for round in 0..ROUNDS {
        // Phase S. Each cycle leaves through `update_schema`, so every
        // accepted change meets the base schema under fresh revisions:
        // more distinct schema states than the one-entry analysis cache
        // and the 4-generation certain ring hold.
        for _ in 0..cycles {
            k += 1;
            ops.push(schema_add(0, format!("ok{k}"), UNI_ACCEPTED));
            ops.push(Op {
                class: Class::SchemaRefuseUnsat,
                expect: Expect::RefusedUnsat,
                ..schema_add(0, format!("un{k}"), "forall X: staff(X) -> false")
            });
            let heavy = k.is_multiple_of(32);
            if heavy {
                ops.push(Op {
                    class: Class::SchemaRefuseViolated,
                    expect: Expect::RefusedViolated,
                    ..schema_add(0, format!("vi{k}"), "forall X: dean(X) -> emeritus(X)")
                });
                ops.push(Op {
                    db: 0,
                    class: Class::AddRule,
                    action: Action::AddRule {
                        rule: "senior(X) :- student(X), award(X).".to_string(),
                    },
                    expect: Expect::SchemaAdded,
                });
                ops.push(cold_burst(&uni, &templates, rng));
            }
            ops.push(schema_reset(0, heavy));
        }
        // Phase R.
        ops.extend(repair_cycles(1, round * cycles, cycles, rng));
    }

    Plan {
        workload: "enforcement",
        seed,
        seconds,
        dbs: vec![uni_db("university_small", &uni, &templates), repair_db(rng)],
        warmup,
        ops,
        roles: Roles {
            schema: Some(Class::SchemaAdd),
            repair: Some(Class::AutoRepair),
            ..Roles::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_and_seeds_differ() {
        for w in WORKLOADS {
            let a = plan(w, 1, 1).unwrap();
            let b = plan(w, 1, 1).unwrap();
            let c = plan(w, 2, 1).unwrap();
            assert_eq!(a.input_digest(), b.input_digest(), "{w}");
            assert_ne!(a.input_digest(), c.input_digest(), "{w}");
            assert_ne!(
                a.input_digest(),
                plan(w, 1, 2).unwrap().input_digest(),
                "{w}: the list grows with --seconds"
            );
        }
        assert!(plan("nope", 1, 1).is_none());
    }

    #[test]
    fn every_listed_class_has_its_samples_at_nominal_length() {
        for w in WORKLOADS {
            let p = plan(w, 3, NOMINAL_SECONDS).unwrap();
            let r = p.roles;
            let listed = [
                r.commit,
                r.reject,
                r.read_latest,
                r.read_certain,
                r.schema,
                r.repair,
            ];
            assert!(listed.iter().any(Option::is_some), "{w}");
            for class in listed.into_iter().flatten() {
                let n = p.ops.iter().filter(|op| op.class == class).count();
                assert!(n >= 2_000, "{w}: {} has {n} samples", class.name());
            }
        }
    }

    #[test]
    fn every_seed_runs_the_same_number_of_operations_of_every_class() {
        let counts = |w: &str, seed: u64| {
            let mut by_class = std::collections::BTreeMap::new();
            for op in plan(w, seed, NOMINAL_SECONDS).unwrap().ops {
                *by_class.entry(op.class).or_insert(0usize) += 1;
            }
            by_class
        };
        for w in WORKLOADS {
            assert_eq!(counts(w, 1), counts(w, 2), "{w}");
        }
        let flat = counts("commit_flat", 1);
        assert_eq!(
            (
                flat[&Class::Insert3],
                flat[&Class::Delete3],
                flat[&Class::RejectCs]
            ),
            (11_000, 4_000, 5_000),
            "55 / 20 / 25 of 20 000"
        );
    }

    #[test]
    fn university_reads_return_one_to_fifty_rows() {
        let mut rng = Rng::new(5);
        let uni = university(STUDENTS_SMALL, false, &mut rng);
        let templates = uni_templates();
        let texts: std::collections::BTreeSet<&str> =
            templates.iter().map(|(q, _)| q.text.as_str()).collect();
        assert_eq!(texts.len(), 32, "query texts are distinct");
        for (_, t) in &templates {
            for s in 0..STUDENTS_SMALL {
                let rows = uni.rows(t, s);
                assert!((1..=50).contains(&rows), "{rows}");
            }
        }
    }

    #[test]
    fn forest_mirror_counts_descendants() {
        let mut rng = Rng::new(9);
        let (mut f, _) = forest(EMPLOYEES, &mut rng);
        assert_eq!(f.hosts.len(), 32, "depth-3 base nodes");
        assert!(f.depth.iter().all(|&d| d <= 5));
        let below_roots: u32 = (0..ROOTS).map(|r| f.descendants[r]).sum();
        assert_eq!(
            below_roots,
            (EMPLOYEES - ROOTS) as u32,
            "every non-root is below exactly one root"
        );
        let host = f.hosts[5];
        let root = (0..ROOTS as u32)
            .find(|&r| {
                let mut up = Some(host);
                while let Some(a) = up {
                    if a == r {
                        return true;
                    }
                    up = f.parent[a as usize];
                }
                false
            })
            .unwrap() as usize;
        let before = (f.descendants[host as usize], f.descendants[root]);
        let leaf = f.add("x".into(), Some(host));
        assert_eq!(f.depth[leaf as usize], HOST_DEPTH + 1);
        assert_eq!(
            (f.descendants[host as usize], f.descendants[root]),
            (before.0 + 1, before.1 + 1)
        );
        f.remove(leaf);
        assert_eq!((f.descendants[host as usize], f.descendants[root]), before);
    }
}
