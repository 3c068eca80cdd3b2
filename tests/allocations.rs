//! Heap allocations per request, as exact counts.
//!
//! A counting global allocator tallies, per thread, every call that
//! obtains memory (`alloc`, `alloc_zeroed`, `realloc`), so tests running
//! in parallel do not see each other's counts. Every handle is built
//! over an explicit null observability domain: `UNIFORM_OBS=1` switches
//! only the clock of a domain built from the environment, and timing must
//! not move a count.
//!
//! Two kinds of pin:
//! - In every profile, the conjunction solver and the formula evaluator
//!   allocate nothing of their own once their substitution has grown
//!   (one warm-up call): `satisfies`, `solve_conjunction` and `provable`
//!   over a `FactSet`, a `Model` and a `Hypothetical`, for a `∀` with a
//!   two-atom range and a negative literal. A second lookup of a
//!   registered metric name allocates nothing either.
//! - In release builds only (debug assertions allocate), the exact count
//!   of four enforcement requests on the benchmark's shapes, each on the
//!   second run of its shape: an `AutoRepair` commit on the violation-
//!   bearing repair database, and an accepted, a UA0301-refused and a
//!   refused-as-violated `try_add_constraint` on a university with a
//!   dean. A change that moves one of these counts says why and updates
//!   the pin.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;
use uniform::datalog::{provable, satisfies, solve_conjunction, FactSet, Hypothetical, Interp};
use uniform::logic::{normalize, parse_formula, parse_literal, Subst};
use uniform::{
    AnalyzeCode, ConcurrentDatabase, Database, Fact, Literal, Model, Obs, RepairBackend,
    RepairOptions, Rq, UniformError, UniformOptions, Update, ViolationPolicy,
};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System` upholds the allocator contract; counting touches
// only a thread-local `Cell` and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s
        // requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s requirements,
        // and `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

// ---------------------------------------------------------------------------
// The evaluators, in every profile
// ---------------------------------------------------------------------------

const EVAL_SRC: &str = "\
r(X, Y) :- e(X, Y).
p(a). p(b). p(c).
e(a, b). e(b, c). e(c, d). e(a, d).
bad(z).
";

/// A `∀` whose range is two atoms (one derived) and whose body is a
/// negative literal; it holds, so every evaluation enumerates the whole
/// range.
fn constraint() -> Rq {
    normalize(&parse_formula("forall X, Y: p(X) & r(X, Y) -> ~bad(Y)").unwrap()).unwrap()
}

/// The same conjunction as a query.
fn conjunction() -> Vec<Literal> {
    ["p(X)", "r(X, Y)", "not bad(Y)"]
        .iter()
        .map(|l| parse_literal(l).unwrap())
        .collect()
}

/// Run every evaluator over `interp` once to warm `subst` up, then
/// return the allocations of a second round.
fn second_round(interp: &dyn Interp, subst: &mut Subst) -> u64 {
    let rq = constraint();
    let lits = conjunction();
    let round = |subst: &mut Subst| {
        assert!(satisfies(interp, &rq, subst));
        let mut answers = 0;
        solve_conjunction(interp, &lits, subst, &mut |_| {
            answers += 1;
            true
        });
        assert_eq!(answers, 4);
        assert!(provable(interp, &lits, subst));
        assert!(subst.is_empty(), "the working substitution is unwound");
    };
    round(subst);
    counted(|| round(subst)).1
}

#[test]
fn the_solver_allocates_nothing_per_call() {
    let db = Database::parse(EVAL_SRC).unwrap();
    let model = Model::compute(db.facts(), db.rules());
    let facts: &FactSet = model.facts();
    let rules = Arc::new(db.rules().clone());
    // A would-be state that flips derived facts both ways.
    let hypothetical =
        Hypothetical::new(Arc::new(model.clone()), db.facts().clone(), rules).then(&[
            Update::insert(Fact::parse_like("e", &["b", "a"])),
            Update::delete(Fact::parse_like("e", &["c", "d"])),
        ]);
    let mut subst = Subst::new();
    let interps: [(&str, &dyn Interp); 3] = [
        ("FactSet", facts),
        ("Model", &model),
        ("Hypothetical", &hypothetical),
    ];
    for (name, interp) in interps {
        assert_eq!(second_round(interp, &mut subst), 0, "{name}");
    }
}

#[test]
fn a_second_metric_lookup_allocates_nothing() {
    let obs = Obs::null();
    drop((
        obs.counter("x.count"),
        obs.gauge("x.gauge"),
        obs.histogram("x.hist"),
    ));
    let (handles, n) = counted(|| {
        (
            obs.counter("x.count"),
            obs.gauge("x.gauge"),
            obs.histogram("x.hist"),
        )
    });
    drop(handles);
    assert_eq!(n, 0);
}

// ---------------------------------------------------------------------------
// Enforcement requests, in release builds
// ---------------------------------------------------------------------------

/// A handle over `src` with the benchmark's repair options and a null
/// observability domain, its model materialised.
fn handle(src: &str, max_changes: usize) -> ConcurrentDatabase {
    let db = Database::parse(src).unwrap();
    let options = UniformOptions {
        repair: RepairOptions {
            max_changes,
            backend: RepairBackend::Auto,
            ..RepairOptions::default()
        },
        ..UniformOptions::default()
    };
    let db = ConcurrentDatabase::from_database_with_obs(db, options, Arc::new(Obs::null()));
    drop(db.session());
    db
}

/// Put the explicit facts back to `base`, as the benchmark's loader does
/// between cycles.
fn restore(db: &ConcurrentDatabase, base: &BTreeSet<Fact>) {
    db.update_schema(|d| {
        let now: BTreeSet<Fact> = d.facts().iter().collect();
        let undo = now.difference(base).cloned().map(Update::delete);
        let redo = base.difference(&now).cloned().map(Update::insert);
        for u in undo.chain(redo) {
            d.apply(&u).unwrap();
        }
    });
}

/// The benchmark's violation-bearing repair database, its facts in a
/// fixed order.
fn repair_program() -> String {
    let mut program = String::from(
        "flagged(X) :- p(X), bad(X).
constraint imp: forall X: p(X) -> q(X).
constraint dom_s: forall X, Y: s(X, Y) -> r(X).
constraint span: forall X: r(X) -> (exists Y: s(X, Y)).
constraint flag_ok: forall X: flagged(X) -> ok(X).
constraint step: forall X: dp(X) -> dq(X).
constraint stop: forall X: dq(X) -> false.
",
    );
    for i in 0..4 {
        program.push_str(&format!("p(a{i}). q(a{i}).\n"));
    }
    for i in 4..8 {
        program.push_str(&format!("r(a{i}). s(a{i}, a{}).\n", (i + 1) % 12));
    }
    for i in 8..12 {
        program.push_str(&format!("ok(a{i}).\n"));
    }
    for i in 0..8 {
        program.push_str(&format!("noise(n{i}).\n"));
    }
    program
}

/// One cycle of the benchmark's measured `auto_repair` class: one
/// `flag_ok` and one `dom_s` violation loaded raw, then `p(a5)` (an
/// `imp` violation of its own) committed under `AutoRepair`. Returns
/// the commit's allocations, from `begin` to the receipt.
fn auto_repair_cycle(db: &ConcurrentDatabase, base: &BTreeSet<Fact>) -> u64 {
    db.update_schema(|d| {
        d.apply(&Update::insert(Fact::parse_like("bad", &["a0"])))
            .unwrap();
        d.apply(&Update::insert(Fact::parse_like("s", &["a8", "a3"])))
            .unwrap();
    });
    let own = Fact::parse_like("p", &["a5"]);
    let (outcome, n) = counted(|| {
        let mut txn = db.begin();
        txn.insert(own.clone());
        db.commit_with_policy(&txn, ViolationPolicy::AutoRepair)
    });
    let repair = outcome.unwrap().repair.expect("the commit was repaired");
    assert_eq!(repair.len(), 3, "{repair}");
    restore(db, base);
    n
}

const DEPTS: [&str; 4] = ["cs", "math", "phys", "bio"];

/// The benchmark's `enforcement` university (768 students, with a dean),
/// its choices made by the student's number instead of a seed.
fn dean_university() -> String {
    let mut program = String::from(
        "honours(X) :- student(X), award(X).
constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
constraint dom_enrolled: forall X, C: enrolled(X, C) -> student(X).
constraint dom_attends: forall X, C: attends(X, C) -> student(X).
constraint has_course: forall X: student(X) -> (exists C: enrolled(X, C)).
constraint hon_ok: forall X: honours(X) -> attends(X, sem).
constraint has_dean: exists X: dean(X).
constraint dean_staff: forall X: dean(X) -> staff(X).
dean(d0).
staff(d0).
",
    );
    for i in 0..768 {
        let s = format!("s{i}");
        program.push_str(&format!("student({s}). group_of({s}, g{}).\n", i / 8));
        program.push_str(&format!("enrolled({s}, {}).\n", DEPTS[i % 4]));
        if i % 4 == 1 {
            program.push_str(&format!("enrolled({s}, {}).\n", DEPTS[(i + 1) % 4]));
        }
        let award = i % 20 == 7;
        if award {
            program.push_str(&format!("award({s}). attends({s}, sem).\n"));
        }
        program.push_str(&format!("attends({s}, ddb).\n"));
        for k in 0..1 + i % 2 {
            program.push_str(&format!("attends({s}, c{}).\n", (i * 7) % 39 + k));
        }
        for k in 0..1 + (i / 2) % 2 {
            program.push_str(&format!("note({s}, n{}).\n", (i * 13) % 90 + k));
        }
    }
    program
}

/// Allocations of the three `try_add_constraint` classes in one cycle of
/// the benchmark's schema phase: accepted, refused as unsatisfiable
/// (UA0301) and refused as violated; the schema is reset after.
struct SchemaCycle {
    add: u64,
    refuse_unsat: u64,
    refuse_violated: u64,
}

fn schema_cycle(db: &ConcurrentDatabase, k: usize) -> SchemaCycle {
    let base = db.snapshot().constraints().to_vec();
    let (added, add) =
        counted(|| db.try_add_constraint(&format!("ok{k}"), "forall X: award(X) -> student(X)"));
    assert!(added.unwrap());
    let (refused, refuse_unsat) =
        counted(|| db.try_add_constraint(&format!("un{k}"), "forall X: staff(X) -> false"));
    match refused {
        Err(UniformError::Analyze(e)) => {
            assert_eq!(
                e.primary().map(|d| d.code),
                Some(AnalyzeCode::UnsatisfiableSet)
            );
        }
        other => panic!("expected UA0301, got {other:?}"),
    }
    let (refused, refuse_violated) =
        counted(|| db.try_add_constraint(&format!("vi{k}"), "forall X: dean(X) -> emeritus(X)"));
    match refused {
        Err(UniformError::CurrentlyViolated { repair, .. }) => {
            assert_eq!(repair.unwrap().to_string(), "{+emeritus(d0)}");
        }
        other => panic!("expected a violated refusal, got {other:?}"),
    }
    db.update_schema(|d| d.set_constraints(base));
    SchemaCycle {
        add,
        refuse_unsat,
        refuse_violated,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug assertions allocate")]
fn enforcement_requests_allocate_as_pinned() {
    let repair = handle(&repair_program(), 24);
    let base: BTreeSet<Fact> = repair.snapshot().facts().iter().collect();
    auto_repair_cycle(&repair, &base);
    let auto_repair = auto_repair_cycle(&repair, &base);

    let university = handle(&dean_university(), 4);
    schema_cycle(&university, 1);
    let schema = schema_cycle(&university, 2);

    let got = [
        ("auto_repair", auto_repair),
        ("schema_add", schema.add),
        ("schema_refuse_unsat", schema.refuse_unsat),
        ("schema_refuse_violated", schema.refuse_violated),
    ];
    eprintln!("allocations per request: {got:?}");
    assert_eq!(
        got,
        [
            ("auto_repair", 1275),
            ("schema_add", 383),
            ("schema_refuse_unsat", 872),
            ("schema_refuse_violated", 762),
        ]
    );
}
