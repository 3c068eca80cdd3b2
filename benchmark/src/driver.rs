//! The one place the end-to-end binary touches the program under test.
//!
//! Everything goes through `uniform::ConcurrentDatabase` as an embedded
//! library's caller would use it: one client thread, closed loop (the
//! next operation starts when the previous one has returned). A later
//! refactor below this surface can break at most the traced binary's
//! `layers.rs`, never the gate.

use crate::digest::Digest;
use crate::ops::{Action, DbSpec, FactSpec, Level, Op, Outcome, Plan, Policy};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use uniform::{
    AnalyzeCode, ConcurrentDatabase, Consistency, Constraint, Database, Fact, Obs, Params,
    RepairBackend, RepairOptions, TxnError, UniformError, UniformOptions, Update, ViolationPolicy,
    WallClock,
};

/// Nanoseconds since the run's origin.
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// What one `now_ns` pair costs: the mean gap of back-to-back
    /// readings, the slowest 1 % (interrupts) left out. Recorded with
    /// every run so a reader can see how far below it no single-op timing
    /// can be trusted.
    pub fn pair_cost_ns(&self) -> f64 {
        let mut gaps: Vec<u64> = (0..10_000)
            .map(|_| {
                let a = self.now_ns();
                self.now_ns() - a
            })
            .collect();
        gaps.sort_unstable();
        gaps.truncate(9_900);
        gaps.iter().sum::<u64>() as f64 / gaps.len() as f64
    }
}

/// Which observability domain the databases are opened with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsMode {
    /// `from_database`: `UNIFORM_OBS` decides (unset: `NullClock`).
    FromEnv,
    /// `from_database_with_obs(WallClock)`: timing on.
    WallClock,
}

/// One loaded database of a plan.
pub struct Db {
    pub handle: ConcurrentDatabase,
    spec: DbSpec,
    base_constraints: Vec<Constraint>,
    base_rules: uniform::datalog::RuleSet,
    base_facts: BTreeSet<Fact>,
}

pub struct Built {
    pub dbs: Vec<Db>,
}

/// An operation with its facts and parameters built ahead of the timed
/// region: a caller holds values, not text to format.
pub enum ReadyOp {
    Commit {
        inserts: Vec<Fact>,
        deletes: Vec<Fact>,
        policy: ViolationPolicy,
    },
    Reads {
        level: Consistency,
        reads: Vec<(usize, Params)>,
    },
    AddConstraint,
    AddRule,
    ResetSchema,
    RawApply(Vec<Update>),
    RawRestore,
}

fn to_fact(spec: &FactSpec) -> Fact {
    let args: Vec<&str> = spec.args.iter().map(String::as_str).collect();
    Fact::parse_like(spec.pred, &args)
}

pub fn ready(plan: &Plan, ops: &[Op]) -> Vec<ReadyOp> {
    ops.iter()
        .map(|op| match &op.action {
            Action::Commit {
                inserts,
                deletes,
                policy,
            } => ReadyOp::Commit {
                inserts: inserts.iter().map(to_fact).collect(),
                deletes: deletes.iter().map(to_fact).collect(),
                policy: match policy {
                    Policy::Reject => ViolationPolicy::Reject,
                    Policy::Explain => ViolationPolicy::Explain,
                    Policy::AutoRepair => ViolationPolicy::AutoRepair,
                },
            },
            Action::Reads { level, reads } => ReadyOp::Reads {
                level: match level {
                    Level::Latest => Consistency::Latest,
                    Level::Certain => Consistency::Certain,
                },
                reads: reads
                    .iter()
                    .map(|r| {
                        let q = &plan.dbs[op.db as usize].queries[r.query as usize];
                        (
                            r.query as usize,
                            Params::new().bind(q.param, r.param.as_str()),
                        )
                    })
                    .collect(),
            },
            Action::AddConstraint { .. } => ReadyOp::AddConstraint,
            Action::AddRule { .. } => ReadyOp::AddRule,
            Action::ResetSchema { .. } => ReadyOp::ResetSchema,
            Action::RawApply { inserts, deletes } => ReadyOp::RawApply(
                inserts
                    .iter()
                    .map(|f| Update::insert(to_fact(f)))
                    .chain(deletes.iter().map(|f| Update::delete(to_fact(f))))
                    .collect(),
            ),
            Action::RawRestore => ReadyOp::RawRestore,
        })
        .collect()
}

/// Parse + load + first model + prepare, for every database of the plan.
/// Panics on a program the generator got wrong: that is a bug in the
/// benchmark, not an outcome to count.
pub fn load(plan: &Plan, obs: ObsMode) -> Built {
    let dbs = plan
        .dbs
        .iter()
        .map(|spec| {
            let db = Database::parse(&spec.program).unwrap_or_else(|e| {
                panic!("{}: generated program does not parse: {e}", spec.label)
            });
            let base_constraints = db.constraints().to_vec();
            let base_rules = db.rules().clone();
            let base_facts = db.facts().iter().collect();
            let options = UniformOptions {
                repair: RepairOptions {
                    max_changes: spec.repair_max_changes,
                    backend: RepairBackend::Auto,
                    ..RepairOptions::default()
                },
                ..UniformOptions::default()
            };
            let handle = match obs {
                ObsMode::FromEnv => ConcurrentDatabase::from_database(db, options),
                ObsMode::WallClock => ConcurrentDatabase::from_database_with_obs(
                    db,
                    options,
                    Arc::new(Obs::with_clock(WallClock::new())),
                ),
            };
            // The first session materialises the canonical model.
            drop(handle.session());
            for q in &spec.queries {
                handle
                    .prepare_with_params(&q.text, &[q.param])
                    .unwrap_or_else(|e| {
                        panic!("{}: `{}` does not prepare: {e}", spec.label, q.text)
                    });
            }
            Db {
                handle,
                spec: spec.clone(),
                base_constraints,
                base_rules,
                base_facts,
            }
        })
        .collect();
    Built { dbs }
}

/// Hooks around every executed operation; the traced binary hangs its
/// probes here, the end-to-end binary passes [`NoProbe`].
pub trait Probe {
    /// Just before `op` runs against `db`; `clock` is the one the
    /// operation's own interval will be read from.
    fn before(
        &mut self,
        _index: usize,
        _op: &Op,
        _ready: &ReadyOp,
        _db: &ConcurrentDatabase,
        _clock: &Clock,
    ) {
    }
    /// Just after, with the operation's own interval.
    fn after(
        &mut self,
        _index: usize,
        _op: &Op,
        _ready: &ReadyOp,
        _record: &Record,
        _clock: &Clock,
    ) {
    }
}

pub struct NoProbe;
impl Probe for NoProbe {}

/// What one executed operation left behind.
#[derive(Clone, Debug)]
pub struct Record {
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
}

fn other(e: impl std::fmt::Display) -> Outcome {
    Outcome::Other(e.to_string())
}

impl Db {
    fn run(&self, op: &Op, ready: &ReadyOp) -> Outcome {
        let db = &self.handle;
        match (ready, &op.action) {
            (
                ReadyOp::Commit {
                    inserts,
                    deletes,
                    policy,
                },
                _,
            ) => {
                let mut txn = db.begin();
                for f in inserts {
                    txn.insert(f.clone());
                }
                for f in deletes {
                    txn.delete(f.clone());
                }
                let result = match policy {
                    ViolationPolicy::Reject => db.commit(&txn),
                    policy => db.commit_with_policy(&txn, *policy),
                };
                match result {
                    Ok(outcome) => match outcome.repair {
                        None => Outcome::Accepted,
                        Some(repair) => Outcome::Repaired { ops: repair.len() },
                    },
                    Err(TxnError::Rejected(_)) => Outcome::Rejected,
                    Err(TxnError::RejectedWithRepair { .. }) => Outcome::Explained,
                    Err(e) => other(e),
                }
            }
            (ReadyOp::Reads { level, reads }, _) => {
                // One pinned session per burst; every read pays the whole
                // request path: plan-cache lookup by text, then execute.
                let session = db.session();
                let mut rows = 0u64;
                for (query, params) in reads {
                    let q = &self.spec.queries[*query];
                    let prepared = match db.prepare_with_params(&q.text, &[q.param]) {
                        Ok(p) => p,
                        Err(e) => return other(e),
                    };
                    match session.execute(&prepared, params, *level) {
                        Ok(r) => rows += r.len() as u64,
                        Err(e) => return other(e),
                    }
                }
                Outcome::Rows(rows)
            }
            (ReadyOp::AddConstraint, Action::AddConstraint { name, formula }) => {
                match db.try_add_constraint(name, formula) {
                    Ok(true) => Outcome::SchemaAdded,
                    Ok(false) => other("constraint already present"),
                    Err(UniformError::CurrentlyViolated { .. }) => Outcome::RefusedViolated,
                    Err(UniformError::Analyze(e))
                        if e.primary().map(|d| d.code) == Some(AnalyzeCode::UnsatisfiableSet) =>
                    {
                        Outcome::RefusedUnsat
                    }
                    Err(e) => other(e),
                }
            }
            (ReadyOp::AddRule, Action::AddRule { rule }) => match db.try_add_rule(rule) {
                Ok(true) => Outcome::SchemaAdded,
                Ok(false) => other("rule already present"),
                Err(e) => other(e),
            },
            (ReadyOp::ResetSchema, Action::ResetSchema { rules }) => {
                db.update_schema(|d| {
                    d.set_constraints(self.base_constraints.clone());
                    if *rules {
                        d.set_rules(self.base_rules.clone());
                    }
                });
                Outcome::Done
            }
            (ReadyOp::RawApply(updates), _) => db.update_schema(|d| {
                for u in updates {
                    if let Err(e) = d.apply(u) {
                        return other(e);
                    }
                }
                Outcome::Done
            }),
            (ReadyOp::RawRestore, _) => db.update_schema(|d| {
                let now: BTreeSet<Fact> = d.facts().iter().collect();
                let undo = now
                    .difference(&self.base_facts)
                    .cloned()
                    .map(Update::delete);
                let redo = self
                    .base_facts
                    .difference(&now)
                    .cloned()
                    .map(Update::insert);
                for u in undo.chain(redo) {
                    if let Err(e) = d.apply(&u) {
                        return other(e);
                    }
                }
                Outcome::Done
            }),
            _ => other("operation and its prepared form disagree"),
        }
    }
}

/// Run `ops` in order, one at a time, timing each from just before the
/// call to just after it returned. Outcomes are stored, not checked:
/// verification happens after the timed region.
pub fn execute(
    built: &Built,
    ops: &[Op],
    ready: &[ReadyOp],
    clock: &Clock,
    probe: &mut impl Probe,
) -> Vec<Record> {
    let mut records = Vec::with_capacity(ops.len());
    for (index, (op, ready)) in ops.iter().zip(ready).enumerate() {
        let db = &built.dbs[op.db as usize];
        probe.before(index, op, ready, &db.handle, clock);
        let start_ns = clock.now_ns();
        let outcome = std::hint::black_box(db.run(op, ready));
        let end_ns = clock.now_ns();
        let record = Record {
            start_ns,
            end_ns,
            outcome,
        };
        probe.after(index, op, ready, &record, clock);
        records.push(record);
    }
    records
}

/// `(attempted, failed)` in caller-visible operations (a burst counts
/// its reads; a failed burst fails all of them), the first few
/// mismatches rendered, and the digest of every outcome in order.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

pub fn verify(ops: &[Op], records: &[Record], digest: &mut Digest) -> Verdict {
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
    };
    for (i, (op, record)) in ops.iter().zip(records).enumerate() {
        let _ = write!(digest, "{i}:{:?};", record.outcome);
        v.attempted += op.items() as u64;
        if !op.expect.met_by(&record.outcome) {
            v.failed += op.items() as u64;
            if v.mismatches.len() < 8 {
                v.mismatches.push(format!(
                    "op {i} ({}): expected {:?}, got {:?}",
                    op.class.name(),
                    op.expect,
                    record.outcome
                ));
            }
        }
    }
    v
}

/// What the program will resolve its two environment switches from,
/// recorded with every run. The benchmark sets neither: `UNIFORM_THREADS`
/// unset means the parallel loops use every core the box reports,
/// `UNIFORM_OBS` unset means the observability clock reads no timer.
pub struct Environment {
    pub uniform_threads: Option<String>,
    pub uniform_obs: Option<String>,
    pub cores: usize,
}

pub fn environment() -> Environment {
    let var = |name: &str| std::env::var(name).ok();
    Environment {
        uniform_threads: var("UNIFORM_THREADS"),
        uniform_obs: var("UNIFORM_OBS"),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Peak resident set of this process in MB (`VmHWM`), `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
