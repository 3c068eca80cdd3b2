//! The database: [`ConcurrentDatabase`], a deductive database whose
//! every mutation is guarded by the appropriate checker of the paper.
//!
//! A cheaply clonable (`Arc`-shared) handle that any number of writer
//! threads commit through — a single owner is simply the one-writer
//! case. Each transaction:
//!
//! 1. **begins** against a pinned MVCC snapshot
//!    ([`ConcurrentDatabase::begin`] → [`TxnBuilder`]);
//! 2. is **checked** by the paper's incremental integrity method
//!    *against that snapshot* — the expensive phase, running outside
//!    any lock, recording the binding-level read patterns the verdict
//!    depends on (`CheckReport::read_patterns`);
//! 3. is **submitted** to the shared
//!    [`CommitQueue`], which admits
//!    it with first-committer-wins conflict detection at key
//!    granularity: writers over disjoint relations — or disjoint keys
//!    of the *same* relation — commit without invalidating each other,
//!    while a transaction whose read patterns cover a later commit's
//!    written tuples is refused with a typed, retriable
//!    [`TxnError::Conflict`] naming the granularity that refused it.
//!
//! Admitted schedules are serializable: replaying the admitted
//! transactions sequentially in commit order reproduces the same EDB,
//! canonical model and (empty) violation lists — the property
//! `tests/prop_commit_serializability.rs` asserts over randomized
//! multi-writer schedules.

use crate::certain_cache::{CertainCache, StateKey};
use crate::guard::{sat_search, SchemaChange, UniformError, UniformOptions};
use crate::query::{Consistency, Params, PlanCache, PreparedQuery, QueryError, Session};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use uniform_analyze::{AnalyzeOptions, AnalyzedProgram, Analyzer};
use uniform_datalog::txn::{CommitError, CommitQueue, CommitReceipt};
use uniform_datalog::{
    ConflictGranularity, Database, Provenance, RuleSet, Schema, Snapshot, Transaction, TxnBuilder,
    Update,
};
use uniform_integrity::{CheckCache, CheckReport, Checker, ConditionalUpdate, RuleUpdate};
use uniform_logic::{
    normalize, parse_fact, parse_formula, parse_literal, parse_rule, Constraint, LogicError,
    ParseError, Sym,
};
use uniform_obs::{Counter, Gauge, Hist, Obs, ObsReport, SpanEvent};
use uniform_repair::{RepairEngine, RepairError, RepairOptions, RepairSet, ViolationPolicy};
use uniform_satisfiability::SatReport;

/// A guarded schema change's candidate rules and §4 verdict
/// ([`SchemaChange::gate`]), and the schema they were built from.
type Gated = (Arc<Schema>, Result<Option<Arc<RuleSet>>, UniformError>);

/// Why a guarded concurrent commit failed.
#[derive(Debug)]
pub enum TxnError {
    /// The transaction would violate integrity, checked on a snapshot
    /// that was still fresh for the check's read set at rejection time
    /// (stale rejections surface as [`TxnError::Conflict`] instead).
    /// Not retriable: the same updates against the same state fail the
    /// same way.
    Rejected(Box<CheckReport>),
    /// [`ViolationPolicy::Explain`]: rejected like [`TxnError::Rejected`],
    /// with the minimal repair of the would-be state attached — the
    /// delta the writer could fold in to make the transaction
    /// admissible. Not retriable.
    RejectedWithRepair {
        report: Box<CheckReport>,
        repair: Box<RepairSet>,
    },
    /// [`ViolationPolicy::Explain`] / [`ViolationPolicy::AutoRepair`]:
    /// the transaction violates integrity and the repair engine could
    /// not produce a repair within its budgets. Not retriable.
    RepairFailed {
        report: Box<CheckReport>,
        error: RepairError,
    },
    /// A first-committer won a tuple (or relation) this transaction
    /// depends on. `granularity` says what refused it: `Key` — a
    /// committed tuple matched one of this transaction's key-level
    /// read fingerprints; `Relation` — an unbounded read overlapped a
    /// written relation outright. Retriable: re-begin against a fresh
    /// snapshot.
    Conflict {
        relations: Vec<uniform_logic::Sym>,
        committed_version: u64,
        granularity: ConflictGranularity,
    },
    /// The transaction out-lived the commit queue's conflict log.
    /// Retriable: re-begin against a fresh snapshot.
    SnapshotTooOld { begin_version: u64, horizon: u64 },
    /// An update misuses a predicate's arity (typed, from
    /// [`uniform_datalog::ApplyError`]). Not retriable.
    Apply(uniform_datalog::ApplyError),
    /// `commit_with_retry` gave up; `last` is the final refusal.
    RetriesExhausted {
        attempts: usize,
        last: Box<TxnError>,
    },
}

impl TxnError {
    /// Would re-beginning against a fresh snapshot possibly succeed?
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            TxnError::Conflict { .. } | TxnError::SnapshotTooOld { .. }
        )
    }

    fn from_commit(e: CommitError) -> TxnError {
        match e {
            CommitError::Conflict {
                relations,
                committed_version,
                granularity,
            } => TxnError::Conflict {
                relations,
                committed_version,
                granularity,
            },
            CommitError::SnapshotTooOld {
                begin_version,
                horizon,
            } => TxnError::SnapshotTooOld {
                begin_version,
                horizon,
            },
            CommitError::Apply(e) => TxnError::Apply(e),
        }
    }
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn violations(f: &mut fmt::Formatter<'_>, report: &CheckReport) -> fmt::Result {
            for (i, v) in report.violations.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", v.constraint)?;
                if let Some(culprit) = &v.culprit {
                    write!(f, " (via {culprit})")?;
                }
            }
            Ok(())
        }
        match self {
            TxnError::Rejected(report) => {
                write!(f, "transaction rejected; violated: ")?;
                violations(f, report)
            }
            TxnError::RejectedWithRepair { report, repair } => {
                write!(f, "transaction rejected; violated: ")?;
                violations(f, report)?;
                write!(f, "; minimal repair: {repair}")
            }
            TxnError::RepairFailed { report, error } => {
                write!(f, "transaction rejected; violated: ")?;
                violations(f, report)?;
                write!(f, "; no repair: {error}")
            }
            TxnError::Conflict {
                relations,
                committed_version,
                granularity,
            } => write!(
                f,
                "commit conflict ({}) on {} (first committer won at version {committed_version})",
                match granularity {
                    ConflictGranularity::Relation => "relation-level",
                    ConflictGranularity::Key => "key-level",
                },
                relations
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            TxnError::SnapshotTooOld {
                begin_version,
                horizon,
            } => write!(
                f,
                "snapshot too old: began at version {begin_version}, conflict log starts at {horizon}"
            ),
            TxnError::Apply(e) => write!(f, "{e}"),
            TxnError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for TxnError {}

/// An admitted guarded commit.
#[derive(Debug)]
pub struct CommitOutcome {
    /// The database version after the commit.
    pub version: u64,
    /// The integrity report of the snapshot-time check (satisfied).
    pub report: CheckReport,
    /// Conflict-retries spent before admission (0 on the direct path).
    pub retries: usize,
    /// The Def. 1 effective updates, in staging order.
    pub effective: Vec<Update>,
    /// The repair delta folded into this commit by
    /// [`ViolationPolicy::AutoRepair`] (`None` on the ordinary path).
    pub repair: Option<RepairSet>,
}

/// Pre-resolved registry handles for the core pipeline, looked up once
/// at construction so the hot read/commit paths never take the registry
/// lock (see [`uniform_obs::MetricsRegistry`]).
pub(crate) struct CoreMetrics {
    /// `query.executes.latest` / `query.executes.certain`.
    pub(crate) executes_latest: Counter,
    pub(crate) executes_certain: Counter,
    /// `query.certain.consistent`: `Certain` executes served as
    /// `Latest` because the pinned state is verified consistent.
    pub(crate) certain_consistent: Counter,
    /// `consistency.established`: unverified states a `Certain` read
    /// found violation-free (the queue counts `preserved`/`cleared`).
    pub(crate) consistency_established: Counter,
    /// `query.latency.latest` / `query.latency.certain` (log₂-ns
    /// buckets; all recordings land in bucket 0 under a
    /// [`uniform_obs::NullClock`]).
    pub(crate) latency_latest: Hist,
    pub(crate) latency_certain: Hist,
    /// `commit.latency`, recorded by the root `commit` span.
    commit_latency: Hist,
    /// `store.cow.*` / `cache.*.entries` gauges, sampled point-in-time
    /// by [`ConcurrentDatabase::obs_report`] — not maintained live.
    cow_pages: Gauge,
    cow_tuples: Gauge,
    cow_bytes: Gauge,
    plan_entries: Gauge,
    certain_entries: Gauge,
    /// `analyze.cache.hits` / `analyze.cache.misses`, recorded by
    /// [`Shared::analyzed_for_snapshot`].
    analyze_hits: Counter,
    analyze_misses: Counter,
    /// `check.cache.hits` / `check.cache.misses`, recorded by
    /// [`Shared::check`].
    check_hits: Counter,
    check_misses: Counter,
}

impl CoreMetrics {
    fn register(obs: &Obs) -> CoreMetrics {
        CoreMetrics {
            executes_latest: obs.counter("query.executes.latest"),
            executes_certain: obs.counter("query.executes.certain"),
            certain_consistent: obs.counter("query.certain.consistent"),
            consistency_established: obs.counter("consistency.established"),
            latency_latest: obs.histogram("query.latency.latest"),
            latency_certain: obs.histogram("query.latency.certain"),
            commit_latency: obs.histogram("commit.latency"),
            cow_pages: obs.gauge("store.cow.pages_cloned"),
            cow_tuples: obs.gauge("store.cow.tuples_cloned"),
            cow_bytes: obs.gauge("store.cow.bytes_cloned"),
            plan_entries: obs.gauge("cache.plan.entries"),
            certain_entries: obs.gauge("cache.certain.entries"),
            analyze_hits: obs.counter("analyze.cache.hits"),
            analyze_misses: obs.counter("analyze.cache.misses"),
            check_hits: obs.counter("check.cache.hits"),
            check_misses: obs.counter("check.cache.misses"),
        }
    }
}

pub(crate) struct Shared {
    queue: CommitQueue,
    options: UniformOptions,
    /// The database-wide observability domain (see [`uniform_obs`]):
    /// one registry + span ring shared by the commit queue, the plan
    /// and certain-answer caches, the query path and the repair engine,
    /// so [`ConcurrentDatabase::obs_report`] covers the whole pipeline.
    obs: Arc<Obs>,
    /// Hot-path registry handles, resolved once (see [`CoreMetrics`]).
    metrics: CoreMetrics,
    /// The sharded prepared-plan cache behind
    /// [`ConcurrentDatabase::prepare`]: source → [`PreparedQuery`],
    /// so hot queries stop paying parse + plan per request. Plans
    /// inside each entry are keyed by rule revision and rebuilt when a
    /// schema change lands (see [`crate::PreparedQuery`]).
    plans: PlanCache,
    /// The head schema and the version it landed at, published by
    /// [`ConcurrentDatabase::update_schema`] under the queue lock.
    /// Fenced sessions compare their snapshot's schema with it by
    /// identity instead of taking the queue lock per execute — the read
    /// path must not convoy behind committing writers. Commits never
    /// change the schema, so only `update_schema` writes it.
    head: RwLock<(Arc<Schema>, u64)>,
    /// The shared certain-answer cache (see [`crate::certain_cache`]):
    /// repair lists and `Certain` row sets keyed by the exact semantic
    /// state — `(db_id, fact_rev, rule_rev, constraint_rev)` — shared
    /// across every session pinned to it, advanced delta-style after
    /// each admitted commit and invalidated wholesale by schema
    /// updates and `AutoRepair` commits.
    certain: CertainCache,
    /// The cached static analysis of the registered program (see
    /// [`ConcurrentDatabase::analyze`]): one entry, keyed by the schema
    /// it analyzed. A schema change publishes a new schema, so a stale
    /// entry is simply never served again; it is replaced on the next
    /// miss. It stays per handle: it carries the handle's `Obs` and SAT
    /// options.
    analyzed: Mutex<Option<(Arc<Schema>, Arc<AnalyzedProgram>)>>,
}

impl Shared {
    /// The version of the schema change that replaced `snapshot`'s
    /// schema, if one has — for fenced sessions (see
    /// [`crate::Session`] and [`crate::QueryError::SnapshotTooOld`]).
    /// A fence racing an in-flight schema change may see the schema
    /// before it, which is indistinguishable from executing just before
    /// the change: the snapshot it serves predates it either way.
    pub(crate) fn schema_replaced(&self, snapshot: &Snapshot) -> Option<u64> {
        let head = self.head.read();
        (!Arc::ptr_eq(&head.0, snapshot.schema())).then_some(head.1)
    }

    /// The shared certain-answer cache, for sessions opened through
    /// this handle (see [`crate::Session`]).
    pub(crate) fn certain(&self) -> &CertainCache {
        &self.certain
    }

    /// The database-wide observability domain.
    pub(crate) fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Pre-resolved handles for the query path (see [`CoreMetrics`]).
    pub(crate) fn query_metrics(&self) -> &CoreMetrics {
        &self.metrics
    }

    /// The repair engine's cost bounds ([`UniformOptions::repair`]).
    pub(crate) fn repair_options(&self) -> RepairOptions {
        self.options.repair
    }

    /// The static analysis of the schema as of `snapshot`, served from
    /// the shared single-entry cache when the snapshot holds the cached
    /// schema (`analyze.cache.hits`), rebuilt from the snapshot and
    /// cached otherwise (`analyze.cache.misses`). Every pass inside the
    /// returned program is lazy (lints, closures, the satisfiability
    /// classification), so a cache miss costs the copy of the
    /// snapshot's program and the passes its callers read.
    pub(crate) fn analyzed_for_snapshot(&self, snapshot: &Snapshot) -> Arc<AnalyzedProgram> {
        let mut slot = self.analyzed.lock();
        if let Some((schema, analyzed)) = slot.as_ref() {
            if Arc::ptr_eq(schema, snapshot.schema()) {
                self.metrics.analyze_hits.incr();
                return analyzed.clone();
            }
        }
        self.metrics.analyze_misses.incr();
        let analyzed = Arc::new(
            Analyzer::of_snapshot(snapshot)
                .with_options(AnalyzeOptions {
                    sat: self.options.sat.clone(),
                    ..AnalyzeOptions::default()
                })
                .with_obs(self.obs.clone())
                .analyze(),
        );
        *slot = Some((snapshot.schema().clone(), analyzed.clone()));
        analyzed
    }

    /// The integrity check of `tx` against `snapshot`, with the
    /// database's [`UniformOptions::check`]: its compile is read from
    /// (`check.cache.hits`) or added to (`check.cache.misses`) the
    /// [`CheckCache`] of the snapshot's own schema. Either way the
    /// report equals [`uniform_integrity::Checker::check`]'s.
    pub(crate) fn check(&self, snapshot: &Snapshot, tx: &Transaction) -> CheckReport {
        let cache = CheckCache::for_snapshot(snapshot, self.options.check);
        let (report, hit) = cache.check(snapshot, tx);
        if hit {
            self.metrics.check_hits.incr();
        } else {
            self.metrics.check_misses.incr();
        }
        report
    }
}

/// See the module docs.
#[derive(Clone)]
pub struct ConcurrentDatabase {
    shared: Arc<Shared>,
}

impl ConcurrentDatabase {
    /// Share a bare [`Database`] with explicit options, as loaded: the
    /// state is not checked, so it starts unverified (see
    /// [`Database::verified_consistent`]) unless the caller looked
    /// already. The observability domain comes from the environment:
    /// [`uniform_obs::Obs::from_env`] — wall-clock timing when
    /// `UNIFORM_OBS=1`, the zero-cost [`uniform_obs::NullClock`]
    /// otherwise (counters and spans are recorded either way).
    pub fn from_database(db: Database, options: UniformOptions) -> ConcurrentDatabase {
        ConcurrentDatabase::from_database_with_obs(db, options, Arc::new(Obs::from_env()))
    }

    /// [`ConcurrentDatabase::from_database`] with an explicit
    /// observability domain — the deterministic-test entry point: an
    /// `Obs` built over a [`uniform_obs::NullClock`] keeps every
    /// counter, span and histogram a pure function of the operation
    /// sequence, independent of wall time and thread interleaving
    /// within one serialized schedule.
    pub fn from_database_with_obs(
        db: Database,
        options: UniformOptions,
        obs: Arc<Obs>,
    ) -> ConcurrentDatabase {
        let head = RwLock::new((db.schema().clone(), db.version()));
        let queue = CommitQueue::with_obs(db, obs.clone());
        let metrics = CoreMetrics::register(&obs);
        ConcurrentDatabase {
            shared: Arc::new(Shared {
                queue,
                options,
                plans: PlanCache::new(&obs),
                head,
                certain: CertainCache::new(&obs),
                analyzed: Mutex::new(None),
                metrics,
                obs,
            }),
        }
    }

    /// Parse a program (facts, rules, constraints). Fails if the initial
    /// facts violate the constraints — the integrity-maintenance method
    /// requires a consistent starting point.
    pub fn parse(src: &str) -> Result<ConcurrentDatabase, UniformError> {
        ConcurrentDatabase::parse_with_options(src, UniformOptions::default())
    }

    /// [`ConcurrentDatabase::parse`] with explicit options.
    pub fn parse_with_options(
        src: &str,
        options: UniformOptions,
    ) -> Result<ConcurrentDatabase, UniformError> {
        let db = Database::parse(src)?;
        let violated = db.violated_constraints();
        if !violated.is_empty() {
            return Err(UniformError::InitialViolation(violated));
        }
        Ok(ConcurrentDatabase::from_database(db, options))
    }

    /// Parse a program *without* requiring the initial facts to satisfy
    /// the constraints — the entry point for inconsistency-tolerant
    /// serving (with explicit options: [`Database::parse`] +
    /// [`ConcurrentDatabase::from_database`]). Guarded updates assume a
    /// consistent starting state (the incremental method's
    /// precondition), so on a tolerant database the intended operations
    /// are [`ConcurrentDatabase::minimal_repairs`] and `Certain` reads.
    /// To *write* the state back to consistency, apply a chosen repair
    /// explicitly (e.g. `minimal_repairs()?[0].to_transaction()` through
    /// [`ConcurrentDatabase::update_schema`]) — note that
    /// [`ViolationPolicy::AutoRepair`] repairs only transactions whose
    /// own check fails, not pre-existing inconsistency that a
    /// non-violating commit leaves untouched.
    pub fn parse_tolerant(src: &str) -> Result<ConcurrentDatabase, UniformError> {
        Ok(ConcurrentDatabase::from_database(
            Database::parse(src)?,
            UniformOptions::default(),
        ))
    }

    /// Pin a snapshot and open a transaction. A transaction whose
    /// snapshot went stale before [`ConcurrentDatabase::commit`] is
    /// still admitted when the intervening commits wrote nothing its
    /// check read; otherwise it is refused with the retriable
    /// [`TxnError::Conflict`].
    pub fn begin(&self) -> TxnBuilder {
        self.shared.queue.begin()
    }

    /// A read snapshot of the latest committed state.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.queue.snapshot()
    }

    /// The latest committed version.
    pub fn version(&self) -> u64 {
        self.shared.queue.version()
    }

    /// Run `f` on the live database under the queue lock (reads only).
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.shared.queue.with_db(f)
    }

    /// Check `txn` against its pinned snapshot and, if integrity is
    /// preserved, submit it for first-committer-wins admission. The
    /// check runs entirely on the snapshot — concurrent callers only
    /// serialize on the final admission step. Violations are handled by
    /// the configured [`UniformOptions::violation_policy`]
    /// (`Reject` by default); see
    /// [`ConcurrentDatabase::commit_with_policy`] to override per
    /// commit.
    pub fn commit(&self, txn: &TxnBuilder) -> Result<CommitOutcome, TxnError> {
        self.commit_with_policy(txn, self.shared.options.violation_policy)
    }

    /// [`ConcurrentDatabase::commit`] with an explicit per-commit
    /// [`ViolationPolicy`]:
    ///
    /// * `Reject` — violating transactions fail with
    ///   [`TxnError::Rejected`] (the classical behavior);
    /// * `Explain` — they fail with [`TxnError::RejectedWithRepair`],
    ///   carrying the minimal repair of the would-be state as a
    ///   diagnostic;
    /// * `AutoRepair` — the minimal repair's delta is folded into the
    ///   transaction and the combination commits, fenced by the usual
    ///   conflict detection and flowing through incremental model
    ///   maintenance like any other commit; the outcome records the
    ///   applied repair in [`CommitOutcome::repair`].
    pub fn commit_with_policy(
        &self,
        txn: &TxnBuilder,
        policy: ViolationPolicy,
    ) -> Result<CommitOutcome, TxnError> {
        // The root commit span, tagged with the policy; the queue's
        // `commit.admit`/`commit.apply` spans and the
        // repair engine's `repair.run` nest under it (same obs domain,
        // same thread). Its close feeds the `commit.latency` histogram.
        let _commit = self.shared.obs.span_timed(
            "commit",
            Some(match policy {
                ViolationPolicy::Reject => "reject",
                ViolationPolicy::Explain => "explain",
                ViolationPolicy::AutoRepair => "auto_repair",
            }),
            self.shared.metrics.commit_latency.clone(),
        );
        let mut txn = txn.clone();
        {
            let _stage = self.shared.obs.span("commit.stage");
            if let Err(e) = txn.validate_arities() {
                return Err(TxnError::Apply(e));
            }
        }
        let tx = txn.transaction();
        let report = {
            let _check = self.shared.obs.span("commit.check");
            self.shared.check(txn.snapshot(), &tx)
        };
        // The admission decision needs every access pattern the verdict
        // read — and so does deciding whether a *rejection* is still
        // current. Patterns with bound constants become key-level
        // fingerprints; only genuinely unbounded scans pin the whole
        // relation.
        txn.record_read_patterns(&report.read_patterns);
        if !report.satisfied {
            // A rejection is only final if its snapshot is still fresh
            // for the read set; if a later commit wrote into it, the
            // verdict may be outdated — surface a retriable conflict so
            // the caller re-checks against a fresh snapshot.
            if let Err(e) = self.shared.queue.check_freshness(&txn) {
                return Err(TxnError::from_commit(e));
            }
            return match policy {
                ViolationPolicy::Reject => Err(TxnError::Rejected(Box::new(report))),
                ViolationPolicy::Explain => Err(match self.repair_for(&txn, &tx, report) {
                    Ok((report, repair)) => TxnError::RejectedWithRepair {
                        report,
                        repair: Box::new(repair),
                    },
                    Err(e) => e,
                }),
                ViolationPolicy::AutoRepair => self.commit_auto_repaired(txn, tx, report),
            };
        }
        match self.submit_checked(&txn, &report) {
            Ok(CommitReceipt {
                version,
                fact_rev,
                effective,
            }) => {
                // The certain cache keeps only the new head's state
                // (outside the queue lock: a racing hook drops entries,
                // never serves a stale one). Commits never move the
                // schema revisions.
                let _invalidate = self.shared.obs.span("commit.invalidate");
                let head = StateKey {
                    fact_rev,
                    ..StateKey::of(txn.snapshot())
                };
                self.shared.certain.advance(head);
                Ok(CommitOutcome {
                    version,
                    report,
                    retries: 0,
                    effective,
                    repair: None,
                })
            }
            Err(e) => Err(TxnError::from_commit(e)),
        }
    }

    /// Submit a transaction whose check `report` was satisfied. Only a
    /// complete check proves the induction step the consistency latch
    /// rides on; one whose potential-update closure was truncated goes
    /// through the plain entry point, which clears the latch.
    fn submit_checked(
        &self,
        txn: &TxnBuilder,
        report: &CheckReport,
    ) -> Result<CommitReceipt, CommitError> {
        if report.proves_consistency() {
            self.shared.queue.commit_checked(txn)
        } else {
            self.shared.queue.commit(txn)
        }
    }

    /// The `AutoRepair` tail of [`ConcurrentDatabase::commit_with_policy`]:
    /// compute the minimal repair of the would-be state, fold its delta
    /// into the transaction, re-check the combination on the same
    /// snapshot (recomputing the read set), and submit. The repair
    /// *choice* depended on a full consistency determination, so the
    /// read set is widened to every relation any constraint can reach —
    /// a concurrent commit into any of them retriably conflicts this
    /// one instead of admitting a stale repair.
    fn commit_auto_repaired(
        &self,
        mut txn: TxnBuilder,
        tx: Transaction,
        report: CheckReport,
    ) -> Result<CommitOutcome, TxnError> {
        let (_, repair) = self.repair_for(&txn, &tx, report)?;
        for op in repair.ops() {
            txn.stage(op.clone());
        }
        let combined = txn.transaction();
        let combined_report = {
            let _check = self.shared.obs.span("commit.check");
            self.shared.check(txn.snapshot(), &combined)
        };
        if !combined_report.satisfied {
            debug_assert!(false, "repair delta failed to restore consistency");
            return Err(TxnError::Rejected(Box::new(combined_report)));
        }
        txn.record_read_patterns(&combined_report.read_patterns);
        // The closure reads are deliberately unbounded (whole-relation):
        // the repair choice surveyed those relations without any key to
        // pin, so any write into them must conflict. The closure itself
        // is a pure function of the schema, served precomputed from the
        // shared static analysis.
        txn.record_reads(
            self.shared
                .analyzed_for_snapshot(txn.snapshot())
                .closure_union()
                .to_vec(),
        );
        match self.submit_checked(&txn, &combined_report) {
            Ok(CommitReceipt {
                version,
                fact_rev,
                effective,
            }) => {
                let _invalidate = self.shared.obs.span("commit.invalidate");
                let head = StateKey {
                    fact_rev,
                    ..StateKey::of(txn.snapshot())
                };
                self.shared.certain.advance(head);
                Ok(CommitOutcome {
                    version,
                    report: combined_report,
                    retries: 0,
                    effective,
                    repair: Some(repair),
                })
            }
            Err(e) => Err(TxnError::from_commit(e)),
        }
    }

    /// The repair a violating transaction gets under `Explain` /
    /// `AutoRepair` (one implementation so the diagnostic and the
    /// applied delta cannot drift apart): run the bounded repair search
    /// on the would-be state, then pick deterministically — the
    /// smallest minimal repair that leaves the transaction's own net
    /// effect intact, because a repair that silently undoes the write
    /// it was asked to land (or advises "don't do that") would be
    /// minimal but useless. Only when every minimal repair touches the
    /// transaction's own facts does the overall best apply. Engine
    /// failures become the typed [`TxnError::RepairFailed`].
    #[allow(clippy::type_complexity)]
    fn repair_for(
        &self,
        txn: &TxnBuilder,
        tx: &Transaction,
        report: CheckReport,
    ) -> Result<(Box<CheckReport>, RepairSet), TxnError> {
        let _repair = self.shared.obs.span("commit.repair");
        let engine = RepairEngine::for_update(txn.snapshot(), tx)
            .with_options(self.shared.options.repair)
            .with_obs(self.shared.obs.clone());
        let repairs = match engine.repairs() {
            Ok(repairs) => repairs,
            Err(error) => {
                return Err(TxnError::RepairFailed {
                    report: Box::new(report),
                    error,
                })
            }
        };
        let (net_adds, net_dels) = engine.state().net();
        let own: BTreeSet<&uniform_logic::Fact> = net_adds.iter().chain(net_dels).collect();
        let repair = repairs
            .repairs
            .iter()
            .find(|r| r.ops().iter().all(|op| !own.contains(&op.fact)))
            .unwrap_or(repairs.best())
            .clone();
        Ok((Box::new(report), repair))
    }

    /// The subset-minimal repairs of the latest committed state (a
    /// consistent state reports the single empty repair), computed on a
    /// snapshot — writers keep committing meanwhile.
    pub fn minimal_repairs(&self) -> Result<Vec<RepairSet>, UniformError> {
        let engine = RepairEngine::for_snapshot(&self.snapshot())
            .with_options(self.shared.options.repair)
            .with_obs(self.shared.obs.clone());
        Ok(engine.repairs().map_err(UniformError::Repair)?.repairs)
    }

    // ---- the prepared read path -----------------------------------------

    /// Prepare a conjunctive query through the shared sharded plan
    /// cache: the first caller parses and plans, every later caller —
    /// on any thread — reuses the cached [`PreparedQuery`] (and its
    /// revision-keyed plans). See [`crate::PreparedQuery::prepare`].
    pub fn prepare(&self, src: &str) -> Result<PreparedQuery, QueryError> {
        self.shared
            .plans
            .get_or_prepare("cq", src, &[], || PreparedQuery::prepare(src))
    }

    /// [`ConcurrentDatabase::prepare`] with declared parameters (the
    /// cache key includes them).
    pub fn prepare_with_params(
        &self,
        src: &str,
        params: &[&str],
    ) -> Result<PreparedQuery, QueryError> {
        self.shared.plans.get_or_prepare("cq", src, params, || {
            PreparedQuery::prepare_with_params(src, params)
        })
    }

    /// Prepare a formula (boolean) query through the shared plan cache.
    pub fn prepare_formula(&self, src: &str) -> Result<PreparedQuery, QueryError> {
        self.shared
            .plans
            .get_or_prepare("rq", src, &[], || PreparedQuery::prepare_formula(src))
    }

    /// Open a read session pinned to the latest committed state. Any
    /// number of [`Session::execute`] calls see that one state while
    /// writers keep committing; take a fresh session to observe later
    /// commits.
    /// On a state verified consistent (see
    /// [`Database::verified_consistent`]) `Certain` reads are served as
    /// `Latest`. Otherwise sessions opened here share the
    /// database-level certain-answer cache: `Certain` reads pinned to
    /// the same `(db_id, fact_rev, rule_rev, constraint_rev)` state
    /// reuse one repair enumeration and cached row sets (see
    /// [`crate::certain_cache`]).
    pub fn session(&self) -> Session {
        Session::open(self.snapshot(), self.shared.clone(), false)
    }

    /// A *fenced* session: like [`ConcurrentDatabase::session`], but
    /// executes fail with [`QueryError::SnapshotTooOld`] once a schema
    /// change (a new schema value) lands after the pin —
    /// mirroring how the commit pipeline fences in-flight transactions
    /// whose pinned verdicts predate the new schema. Use for long-lived
    /// sessions that must not serve answers across schema epochs.
    pub fn session_fenced(&self) -> Session {
        Session::open(self.snapshot(), self.shared.clone(), true)
    }

    /// The database-wide observability domain: the metrics registry,
    /// span recorder and clock every pipeline stage of this handle
    /// reports into. Useful to share one domain across several
    /// databases, or to register application metrics alongside the
    /// built-in `txn.*`/`query.*`/`cache.*`/`repair.*` families.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// The most recent structured span events (bounded ring; oldest
    /// evicted first — see [`uniform_obs::SpanRecorder`]). Each commit,
    /// query execute and repair run contributes a small span tree:
    /// `commit` (tagged by policy) over `commit.stage` / `commit.check`
    /// (the integrity check, its compile read from or added to the head
    /// schema's check cache) / `commit.admit` / `commit.apply` (the
    /// write and the model's advance) / `commit.repair` /
    /// `commit.invalidate`;
    /// `query.execute` (tagged `latest`/`certain`, closed with its
    /// outcome path `eval` / `consistent` / `cache_hit` / `repair`);
    /// `repair.run` (tagged by backend).
    pub fn recent_events(&self) -> Vec<SpanEvent> {
        self.shared.obs.recent_events()
    }

    /// One deterministic report over every metric of this database's
    /// pipeline: counters and gauges sorted by name, histograms as
    /// log₂-ns bucket counts. Point-in-time gauges (`store.cow.*`,
    /// `cache.plan.entries`, `cache.certain.entries`) are sampled here,
    /// at report time. See [`uniform_obs::ObsReport`] for the Display
    /// and JSON renderings.
    pub fn obs_report(&self) -> ObsReport {
        let m = &self.shared.metrics;
        let cow = self.with_database(|d| d.facts().cow_stats());
        m.cow_pages.set(cow.pages_cloned);
        m.cow_tuples.set(cow.tuples_cloned);
        m.cow_bytes.set(cow.bytes_cloned);
        m.plan_entries.set(self.shared.plans.len() as u64);
        m.certain_entries.set(self.shared.certain.len() as u64);
        self.shared.obs.report()
    }

    /// Evaluate a closed formula against the latest committed state —
    /// sugar over the prepared path (cached parse + plan, fresh
    /// session, [`Consistency::Latest`]).
    pub fn query(&self, formula: &str) -> Result<bool, UniformError> {
        let prepared = self.prepare_formula(formula)?;
        Ok(self
            .session()
            .execute(&prepared, &Params::new(), Consistency::Latest)?
            .is_true())
    }

    /// Run a raw schema mutation under the queue lock (see
    /// [`CommitQueue::update_schema`]): the database's model moves with
    /// whatever `f` changes, and in-flight transactions are fenced with a retriable
    /// [`TxnError::SnapshotTooOld`]. Prefer the guarded
    /// `try_add_*` / `try_remove_rule` / `remove_constraint` entry
    /// points for schema changes.
    /// Fenced read sessions observe the change through the published
    /// head schema (see [`ConcurrentDatabase::session_fenced`]).
    /// A closure that leaves the database untouched (a refused or no-op
    /// change) fences nothing and keeps the certain-answer cache.
    pub fn update_schema<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let (result, moved) = self.shared.queue.update_schema(|db| {
            let before = StateKey::of_db(db);
            let result = f(db);
            // Published while the queue lock still serializes schema
            // changes: racing updates must publish in order, or the
            // head could stick at an older schema and fenced sessions
            // would keep serving across the newer one.
            let mut head = self.shared.head.write();
            if !Arc::ptr_eq(&head.0, db.schema()) {
                *head = (db.schema().clone(), db.version());
            }
            let after = StateKey::of_db(db);
            (result, (after != before).then_some(after))
        });
        if let Some(head) = moved {
            self.shared.certain.advance(head);
        }
        result
    }

    /// Add a rule, guarded three ways: stratification, schema
    /// satisfiability with the new rule, and the *incremental*
    /// integrity check of a rule update treated like a conditional
    /// update (§3.2) — only constraints relevant to literals the new
    /// rule can reach are evaluated, never the full constraint set.
    /// Atomic with respect to concurrent writers; in-flight
    /// transactions and fenced sessions are fenced when the rule lands.
    /// Returns `false` when the rule was already present.
    pub fn try_add_rule(&self, rule: &str) -> Result<bool, UniformError> {
        let change = SchemaChange::Rule(RuleUpdate::Add(parse_rule(rule)?));
        self.land(&change, self.gate(&change))
    }

    /// Remove a rule (given in source syntax), guarded and fenced like
    /// [`ConcurrentDatabase::try_add_rule`]: dropping a rule removes
    /// derived facts, which can violate constraints with positive
    /// occurrences of the derived predicate. Checked incrementally like
    /// a conditional deletion of the rule's head (§3.2). Returns `false`
    /// if no such rule exists.
    pub fn try_remove_rule(&self, rule: &str) -> Result<bool, UniformError> {
        let change = SchemaChange::Rule(RuleUpdate::Remove(parse_rule(rule)?));
        self.land(&change, self.gate(&change))
    }

    /// The first half of the one guarded schema change, behind
    /// `try_add_rule`, `try_remove_rule` and `try_add_constraint`: the
    /// change's candidate and §4 gate ([`SchemaChange::gate`]), built
    /// *optimistically outside the queue lock* from the head's schema,
    /// so writers never stall for the search; and that schema.
    fn gate(&self, change: &SchemaChange) -> Gated {
        let pinned = self.snapshot().schema().clone();
        let verdict = change.gate(&pinned, &self.shared.options.sat);
        (pinned, verdict)
    }

    /// The second half: land a gated schema change under the queue lock,
    /// through `Self::update_schema` so the head schema is re-published.
    /// The candidate and its verdict are reused whole if the schema is
    /// still the one they were built from, and rebuilt from the current
    /// schema otherwise. Then the change's own check runs: a rule
    /// change's incremental check (§3.2), whose propagation an accepted
    /// change installs, or the new constraint evaluated on the current
    /// state; a violated constraint's repair is computed on the would-be
    /// state once the lock is released.
    fn land(&self, change: &SchemaChange, (pinned, verdict): Gated) -> Result<bool, UniformError> {
        let options = &self.shared.options;
        let mut refused = None;
        let changed = self.update_schema(|db| {
            let verdict = if Arc::ptr_eq(db.schema(), &pinned) {
                verdict
            } else {
                change.gate(db.schema(), &options.sat)
            };
            let Some(rules) = verdict? else {
                return Ok(false);
            };
            match change {
                SchemaChange::Rule(update) => {
                    let checker = Checker::new(db).with_options(options.check);
                    let check = checker.compile_rule_update(update, &rules);
                    let (report, propagation) = checker.evaluate_rule_update(&check, &rules);
                    // Its model handle goes first: the install writes the
                    // flips in place where no one else shares a relation.
                    drop(checker);
                    if !report.satisfied {
                        return Err(UniformError::UpdateRejected(Box::new(report)));
                    }
                    // Stratification, satisfiability and a complete
                    // incremental check all passed: the induction step
                    // that carries the consistency latch.
                    let install = |db: &mut Database| db.set_rules_propagated(rules, propagation);
                    if report.proves_consistency() {
                        db.preserving_consistency(install);
                    } else {
                        install(db);
                    }
                }
                SchemaChange::Constraint(new) if !db.satisfies(&new.rq) => {
                    // The repair suggestion is an enumeration: pin the
                    // would-be state (a constraint-only change keeps the
                    // model) and compute it once the lock is gone.
                    let mut would_be = db.clone();
                    would_be.add_constraint(new.clone());
                    refused = Some((new.name.clone(), would_be.snapshot()));
                    return Ok(false);
                }
                // The old constraints held if the latch says so, the new
                // one was just evaluated: the step preserves the latch.
                SchemaChange::Constraint(new) => {
                    db.preserving_consistency(|db| db.add_constraint(new.clone()));
                }
            }
            Ok(true)
        })?;
        let Some((constraint, refused)) = refused else {
            return Ok(changed);
        };
        let engine = RepairEngine::for_snapshot(&refused)
            .with_options(options.repair)
            .with_obs(self.shared.obs.clone());
        Err(UniformError::CurrentlyViolated {
            constraint,
            repair: engine.repairs().ok().map(|report| report.best().clone()),
        })
    }

    /// The cached static analysis of the registered program (see
    /// [`uniform_analyze`]): lints, per-constraint closures,
    /// read-pattern templates and — computed lazily on first demand —
    /// the §4 satisfiability classification. One entry keyed by the
    /// schema: the first caller after a schema change rebuilds it,
    /// every later caller on any thread shares the same `Arc`
    /// (`analyze.cache.hits` / `analyze.cache.misses`).
    pub fn analyze(&self) -> Arc<AnalyzedProgram> {
        self.shared.analyzed_for_snapshot(&self.snapshot())
    }

    /// Add a constraint, guarded twice: first the §4 gate — one bounded
    /// search over the schema's shared rules and the candidate set, with
    /// no analyzer run and no lints — refuses candidate sets proven
    /// unsatisfiable with a typed [`UniformError::Analyze`] (UA0301; no
    /// state could ever satisfy them, whatever the facts say), or UA0304
    /// when its search ran out of budget before it could tell; then the
    /// *current* state is checked and a violated-but-satisfiable
    /// constraint is refused with [`UniformError::CurrentlyViolated`]
    /// carrying the smallest minimal repair of the would-be state —
    /// computed by the [`RepairEngine`] behind
    /// [`ConcurrentDatabase::minimal_repairs`], on a snapshot pinned at
    /// the refusal, after the queue lock is released. Atomic with
    /// respect to concurrent writers; the search runs optimistically
    /// outside the queue lock, as for
    /// [`ConcurrentDatabase::try_add_rule`]. Returns `false` when an
    /// identical constraint (same name and normalized formula, compared
    /// structurally) is already registered.
    pub fn try_add_constraint(&self, name: &str, formula: &str) -> Result<bool, UniformError> {
        let f = parse_formula(formula)?;
        let rq = normalize(&f).map_err(LogicError::Normalize)?;
        let change = SchemaChange::Constraint(Constraint::new(name, rq));
        self.land(&change, self.gate(&change))
    }

    /// Remove a constraint by name. Always safe (removing a constraint
    /// can only enlarge the set of acceptable states), and fenced like
    /// every schema change. Returns `false` if no constraint with that
    /// name exists.
    pub fn remove_constraint(&self, name: &str) -> bool {
        self.update_schema(|db| {
            let remaining: Vec<Constraint> = db
                .constraints()
                .iter()
                .filter(|c| c.name != name)
                .cloned()
                .collect();
            let removed = remaining.len() < db.constraints().len();
            if removed {
                // Fewer constraints cannot un-satisfy a state.
                db.preserving_consistency(|db| db.set_constraints(remaining));
            }
            removed
        })
    }

    /// Satisfiability of the current rules + constraints (§4).
    pub fn check_satisfiability(&self) -> SatReport {
        let snapshot = self.snapshot();
        sat_search(
            snapshot.schema().rules_arc().clone(),
            snapshot.constraints().to_vec(),
            &self.shared.options.sat,
        )
    }

    /// Commit `updates` as one transaction, re-beginning against a
    /// fresh snapshot after each conflict, up to `max_attempts` times.
    /// Integrity rejections are returned immediately (they are
    /// state-dependent, not race-dependent).
    pub fn commit_updates_with_retry(
        &self,
        updates: &[Update],
        max_attempts: usize,
    ) -> Result<CommitOutcome, TxnError> {
        let mut last: Option<TxnError> = None;
        for attempt in 0..max_attempts.max(1) {
            let mut txn = self.begin();
            for u in updates {
                txn.stage(u.clone());
            }
            match self.commit(&txn) {
                Ok(mut outcome) => {
                    outcome.retries = attempt;
                    return Ok(outcome);
                }
                Err(e) if e.is_retriable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(TxnError::RetriesExhausted {
            attempts: max_attempts.max(1),
            last: Box::new(last.expect("at least one attempt ran")),
        })
    }

    /// Commit a [`Transaction`] once (no retry), from a fresh snapshot.
    pub fn commit_transaction(&self, tx: &Transaction) -> Result<CommitOutcome, TxnError> {
        let mut txn = self.begin();
        for u in &tx.updates {
            txn.stage(u.clone());
        }
        self.commit(&txn)
    }

    // ---- parsed one-shot updates ----------------------------------------
    //
    // Sugar over `commit_transaction`: same check, same admission, same
    // violation policy; integrity rejections come back as
    // `UniformError::UpdateRejected`.

    /// Check a transaction against the latest committed state without
    /// applying it.
    pub fn check(&self, tx: &Transaction) -> CheckReport {
        self.shared.check(&self.snapshot(), tx)
    }

    /// Insert one fact (parsed), guarded.
    pub fn try_insert(&self, fact: &str) -> Result<CommitOutcome, UniformError> {
        let tx = Transaction::single(Update::insert(parse_fact(fact)?));
        Ok(self.commit_transaction(&tx)?)
    }

    /// Delete one fact (parsed), guarded.
    pub fn try_delete(&self, fact: &str) -> Result<CommitOutcome, UniformError> {
        let tx = Transaction::single(Update::delete(parse_fact(fact)?));
        Ok(self.commit_transaction(&tx)?)
    }

    /// Apply a transaction given as a list of literal sources, e.g.
    /// `["student(jack)", "not enrolled(jack, cs)"]`.
    pub fn try_update_all(&self, literals: &[&str]) -> Result<CommitOutcome, UniformError> {
        let mut updates = Vec::with_capacity(literals.len());
        for l in literals {
            let upd = Update::from_literal(&parse_literal(l)?).ok_or_else(|| {
                UniformError::Language(LogicError::Parse(ParseError {
                    line: 1,
                    col: 1,
                    message: format!("update `{l}` is not ground"),
                }))
            })?;
            updates.push(upd);
        }
        Ok(self.commit_transaction(&Transaction::new(updates))?)
    }

    /// Apply a conditional update (BRY 87; §3.2), e.g.
    /// `"not enrolled(X, cs) where enrolled(X, cs), failed(X)"`: the
    /// condition is evaluated against the canonical model of a pinned
    /// snapshot, the update pattern is instantiated per answer, and the
    /// resulting transaction commits iff it preserves integrity. The
    /// relations the condition read join the transaction's read set, so
    /// a concurrent commit into any of them conflicts this one instead
    /// of admitting a stale expansion.
    pub fn try_apply_where(&self, src: &str) -> Result<CommitOutcome, UniformError> {
        let cu = ConditionalUpdate::parse(src)?;
        let mut txn = self.begin();
        let expanded = cu.expand(txn.snapshot().model());
        for update in expanded.updates {
            txn.stage(update);
        }
        let graph = txn.snapshot().rules().graph();
        let reads: BTreeSet<Sym> = cu
            .condition()
            .iter()
            .flat_map(|l| graph.reachable(l.atom.pred))
            .collect();
        txn.record_reads(reads);
        Ok(self.commit(&txn)?)
    }

    // ---- tooling ----------------------------------------------------------

    /// Why is `fact` true? Renders a well-founded derivation tree
    /// (explicit facts, rule applications, absences justifying negative
    /// premises), or `None` when the fact is not in the canonical model.
    pub fn explain(&self, fact: &str) -> Result<Option<String>, UniformError> {
        let f = parse_fact(fact)?;
        let snapshot = self.snapshot();
        let prov = Provenance::build(snapshot.facts(), snapshot.rules());
        Ok(prov.explain(&f).map(|d| d.to_string()))
    }

    /// Serialize the database back to its surface syntax (round-trips
    /// through [`ConcurrentDatabase::parse`]).
    pub fn to_program_source(&self) -> String {
        self.with_database(uniform_datalog::to_program_source)
    }
}

impl fmt::Debug for ConcurrentDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConcurrentDatabase({:?})", self.shared.queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rows;
    use uniform_integrity::CheckOptions;
    use uniform_logic::Fact;

    const ORG: &str = "
        member(X, Y) :- leads(X, Y).
        constraint led: forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
        employee(ann).
        department(sales).
        leads(ann, sales).
    ";

    /// [`ORG`] where every employee must also be a member somewhere.
    const ORG_MEMBERS: &str = "
        member(X, Y) :- leads(X, Y).
        constraint led: forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
        constraint emp_member: forall X: employee(X) -> (exists Y: member(X, Y)).
        employee(ann).
        department(sales).
        leads(ann, sales).
    ";

    fn upd(insert: bool, p: &str, args: &[&str]) -> Update {
        let fact = Fact::parse_like(p, args);
        if insert {
            Update::insert(fact)
        } else {
            Update::delete(fact)
        }
    }

    /// The registry counter or gauge `name` (gauges sampled now).
    fn counter(db: &ConcurrentDatabase, name: &str) -> u64 {
        db.obs_report().counter(name).unwrap_or(0)
    }

    /// The registry's `family.*` counters and gauges as of now, read by
    /// the rest of their name.
    fn metrics(db: &ConcurrentDatabase, family: &'static str) -> impl Fn(&str) -> u64 {
        let report = db.obs_report();
        move |name| report.counter(&format!("{family}.{name}")).unwrap()
    }

    /// `src`'s rows at `level`, read through a fresh session.
    fn read(db: &ConcurrentDatabase, src: &str, level: Consistency) -> Rows {
        let q = db.prepare(src).unwrap();
        db.session().execute(&q, &Params::new(), level).unwrap()
    }

    #[test]
    fn guarded_commit_accepts_and_rejects() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        // A full department with its leader: accepted.
        let mut good = db.begin();
        good.stage(upd(true, "department", &["hr"]));
        good.stage(upd(true, "employee", &["bob"]));
        good.stage(upd(true, "leads", &["bob", "hr"]));
        let outcome = db.commit(&good).unwrap();
        assert!(outcome.report.satisfied);
        assert_eq!(outcome.effective.len(), 3);
        // A dangling department: rejected with the violating constraint.
        let mut bad = db.begin();
        bad.stage(upd(true, "department", &["void"]));
        match db.commit(&bad).unwrap_err() {
            TxnError::Rejected(report) => {
                assert_eq!(report.violations[0].constraint, "led");
            }
            other => panic!("expected rejection, got {other}"),
        }
        assert!(db.with_database(|d| d.is_consistent()));
    }

    #[test]
    fn conflicting_writers_get_typed_conflicts_and_retries_succeed() {
        let db = ConcurrentDatabase::parse("seat(a).").unwrap();
        let mut t1 = db.begin();
        t1.stage(upd(false, "seat", &["a"]));
        let mut t2 = db.begin();
        t2.stage(upd(true, "seat", &["a"]));
        db.commit(&t1).unwrap();
        // t2 touches the tuple t1 just deleted: first committer wins,
        // and the refusal names the key granularity that caught it.
        let err = db.commit(&t2).unwrap_err();
        assert!(err.is_retriable(), "{err}");
        match &err {
            TxnError::Conflict {
                relations,
                granularity,
                ..
            } => {
                assert_eq!(relations.len(), 1);
                assert_eq!(relations[0].as_str(), "seat");
                assert_eq!(*granularity, ConflictGranularity::Key);
            }
            other => panic!("expected a conflict, got {other}"),
        }
        // The retry path re-begins and lands it.
        let outcome = db
            .commit_updates_with_retry(&[upd(true, "seat", &["a"])], 4)
            .unwrap();
        assert!(outcome.report.satisfied);
        assert!(db.with_database(|d| d.facts().contains(&Fact::parse_like("seat", &["a"]))));
        assert_eq!(counter(&db, "txn.conflicts.key"), 1);
        assert_eq!(counter(&db, "txn.conflicts.relation"), 0);
    }

    #[test]
    fn writers_to_disjoint_keys_of_one_relation_admit_concurrently() {
        // Two writers append different keys to the same hot relation
        // from the same snapshot version; neither invalidates the
        // other.
        let db = ConcurrentDatabase::parse("seat(a).").unwrap();
        let mut t1 = db.begin();
        t1.stage(upd(false, "seat", &["a"]));
        let mut t2 = db.begin();
        t2.stage(upd(true, "seat", &["b"]));
        db.commit(&t1).unwrap();
        let outcome = db.commit(&t2).unwrap();
        assert!(outcome.report.satisfied);
        assert!(db.with_database(|d| d.facts().contains(&Fact::parse_like("seat", &["b"]))));
        let stats = metrics(&db, "txn");
        assert_eq!(stats("commits.admitted"), 2);
        assert_eq!(stats("conflicts.key") + stats("conflicts.relation"), 0);
        assert_eq!(
            stats("conflicts.whole_relation_fallbacks"),
            0,
            "blind appends must stay key-bounded"
        );
    }

    #[test]
    fn rejections_are_not_retried() {
        let db = ConcurrentDatabase::parse("q(a). constraint c: forall X: p(X) -> q(X).").unwrap();
        let err = db
            .commit_updates_with_retry(&[upd(true, "p", &["zzz"])], 8)
            .unwrap_err();
        assert!(matches!(err, TxnError::Rejected(_)), "{err}");
    }

    #[test]
    fn snapshot_isolated_check_ignores_later_commits_to_unrelated_relations() {
        let db = ConcurrentDatabase::parse("q(a). constraint c: forall X: p(X) -> q(X).").unwrap();
        let mut t = db.begin();
        t.stage(upd(true, "p", &["a"]));
        // An unrelated commit lands in between.
        db.commit_updates_with_retry(&[upd(true, "noise", &["n1"])], 1)
            .unwrap();
        // The pinned check still admits: `noise` is outside its read set.
        let outcome = db.commit(&t).unwrap();
        assert!(outcome.report.satisfied);
    }

    #[test]
    fn dependent_read_conflicts_abort_stale_checks() {
        let db = ConcurrentDatabase::parse("q(a). constraint c: forall X: p(X) -> q(X).").unwrap();
        // t's admissibility depends on q(a) existing at its snapshot.
        let mut t = db.begin();
        t.stage(upd(true, "p", &["a"]));
        // Another writer deletes q(a) and commits first.
        db.commit_updates_with_retry(&[upd(false, "q", &["a"])], 1)
            .unwrap();
        let err = db.commit(&t).unwrap_err();
        match err {
            TxnError::Conflict { relations, .. } => {
                assert!(relations.iter().any(|s| s.as_str() == "q"), "{relations:?}");
            }
            other => panic!("stale check must conflict, got {other}"),
        }
        // And the retry correctly *rejects* now that q(a) is gone.
        let err = db
            .commit_updates_with_retry(&[upd(true, "p", &["a"])], 4)
            .unwrap_err();
        assert!(matches!(err, TxnError::Rejected(_)), "{err}");
        assert!(db.with_database(|d| d.is_consistent()));
    }

    #[test]
    fn stale_rejections_surface_as_retriable_conflicts() {
        let db = ConcurrentDatabase::parse("constraint c: forall X: p(X) -> q(X).").unwrap();
        // At t's snapshot q(a) is absent, so p(a) would be rejected…
        let mut t = db.begin();
        t.stage(upd(true, "p", &["a"]));
        // …but another writer commits q(a) first: the rejection verdict
        // is stale and must come back retriable, not final.
        db.commit_updates_with_retry(&[upd(true, "q", &["a"])], 1)
            .unwrap();
        let err = db.commit(&t).unwrap_err();
        assert!(
            err.is_retriable(),
            "stale rejection must be retriable: {err}"
        );
        // The retry path re-checks on a fresh snapshot and admits.
        let outcome = db
            .commit_updates_with_retry(&[upd(true, "p", &["a"])], 4)
            .unwrap();
        assert!(outcome.report.satisfied);
        assert!(db.with_database(|d| d.is_consistent()));
    }

    #[test]
    fn guarded_commits_maintain_the_model() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let outcome = db
            .commit_updates_with_retry(
                &[
                    upd(true, "department", &["hr"]),
                    upd(true, "employee", &["bob"]),
                    upd(true, "leads", &["bob", "hr"]),
                ],
                4,
            )
            .unwrap();
        assert_eq!(outcome.effective.len(), 3);
        // The induced member(bob, hr) is in the maintained model.
        let snap = db.snapshot();
        assert!(snap.holds(&Fact::parse_like("member", &["bob", "hr"])));
        assert!(counter(&db, "maintain.commits.maintained") >= 1);
    }

    #[test]
    fn rule_additions_are_guarded_and_advance_the_model() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        db.commit_updates_with_retry(&[upd(true, "veteran", &["ann"])], 1)
            .unwrap();

        // An in-flight transaction is fenced by the schema change.
        let mut inflight = db.begin();
        inflight.stage(upd(true, "veteran", &["zed"]));

        assert!(db.try_add_rule("boss(X) :- leads(X, Y).").unwrap());
        let err = db.commit(&inflight).unwrap_err();
        assert!(
            matches!(err, TxnError::SnapshotTooOld { .. }),
            "schema change must fence pinned checks: {err}"
        );
        // The rule change advanced the model: the snapshot computes none.
        let computes = uniform_datalog::Model::computes_on_this_thread();
        assert!(db.snapshot().holds(&Fact::parse_like("boss", &["ann"])));
        assert_eq!(uniform_datalog::Model::computes_on_this_thread(), computes);

        // Re-adding is a no-op; unstratifiable and violating rules are
        // refused.
        assert!(!db.try_add_rule("boss(X) :- leads(X, Y).").unwrap());
        assert!(db
            .try_add_rule("absent(X) :- employee(X), not absent(X).")
            .is_err());

        // Commits keep maintaining the model.
        db.commit_updates_with_retry(&[upd(true, "veteran", &["zed"])], 4)
            .unwrap();
        let snap = db.snapshot();
        assert!(snap.holds(&Fact::parse_like("boss", &["ann"])));
        let fresh = uniform_datalog::Model::compute(snap.facts(), snap.rules());
        assert_eq!(snap.model().len(), fresh.len());
        assert!(fresh.iter().all(|f| snap.holds(&f)));
    }

    #[test]
    fn explain_policy_attaches_the_minimal_repair() {
        let db = ConcurrentDatabase::parse("q(a). constraint c: forall X: p(X) -> q(X).").unwrap();
        let mut t = db.begin();
        t.stage(upd(true, "p", &["b"]));
        let err = db
            .commit_with_policy(&t, uniform_repair::ViolationPolicy::Explain)
            .unwrap_err();
        match err {
            TxnError::RejectedWithRepair { report, repair } => {
                assert_eq!(report.violations[0].constraint, "c");
                // Two size-1 repairs exist ({-p(b)} and {+q(b)}); the
                // diagnostic prefers the one that keeps the writer's
                // own update intact.
                assert_eq!(repair.to_string(), "{+q(b)}");
            }
            other => panic!("expected RejectedWithRepair, got {other}"),
        }
        // Nothing was applied.
        assert!(!db.with_database(|d| d.facts().contains(&Fact::parse_like("p", &["b"]))));
    }

    #[test]
    fn auto_repair_folds_the_delta_into_the_commit() {
        let db = ConcurrentDatabase::parse("q(a). constraint c: forall X: p(X) -> q(X).").unwrap();
        let mut t = db.begin();
        t.stage(upd(true, "p", &["b"]));
        let outcome = db
            .commit_with_policy(&t, uniform_repair::ViolationPolicy::AutoRepair)
            .unwrap();
        let repair = outcome.repair.expect("repair applied");
        // {-p(b)} would also be minimal, but undoing the writer's own
        // update is never preferred: the justification q(b) is added.
        assert_eq!(repair.to_string(), "{+q(b)}");
        assert!(outcome.report.satisfied);
        assert!(db.with_database(|d| d.is_consistent()));
        assert!(db.snapshot().holds(&Fact::parse_like("p", &["b"])));
        assert!(db.snapshot().holds(&Fact::parse_like("q", &["b"])));

        // A transaction whose cheapest repair *adds* a fact: deleting
        // q(a) violates c for the pre-existing p(a)…
        let db = ConcurrentDatabase::parse(
            "p(a). q(a). extra(x). constraint c: forall X: p(X) -> q(X).",
        )
        .unwrap();
        let mut t = db.begin();
        t.stage(upd(false, "q", &["a"]));
        let outcome = db
            .commit_with_policy(&t, uniform_repair::ViolationPolicy::AutoRepair)
            .unwrap();
        let repair = outcome.repair.expect("repair applied");
        assert_eq!(repair.to_string(), "{-p(a)}", "delete the dangling p(a)");
        assert!(db.with_database(|d| d.is_consistent()));
        assert!(!db.snapshot().holds(&Fact::parse_like("p", &["a"])));
    }

    #[test]
    fn auto_repaired_commits_flow_through_model_maintenance() {
        // The repair delta must flip the maintained model exactly like
        // hand-written updates: model ≡ recomputation afterwards.
        let db = ConcurrentDatabase::parse(
            "
            member(X, Y) :- leads(X, Y).
            constraint led: forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
            employee(ann).
            department(sales).
            leads(ann, sales).
        ",
        )
        .unwrap();
        let mut t = db.begin();
        t.stage(upd(true, "department", &["hr"]));
        let outcome = db
            .commit_with_policy(&t, uniform_repair::ViolationPolicy::AutoRepair)
            .unwrap();
        // {-department(hr)} is the overall smallest, but it would undo
        // the write; the preferred same-size repair promotes the
        // existing employee ann to lead the new department.
        assert_eq!(
            outcome.repair.expect("repair applied").to_string(),
            "{+leads(ann,hr)}"
        );
        let snap = db.snapshot();
        let fresh = uniform_datalog::Model::compute(snap.facts(), snap.rules());
        let mut got: Vec<String> = snap.model().iter().map(|f| f.to_string()).collect();
        let mut want: Vec<String> = fresh.iter().map(|f| f.to_string()).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "maintained model != rematerialization");
    }

    #[test]
    fn auto_repair_read_set_fences_concurrent_constraint_writes() {
        let db = ConcurrentDatabase::parse("q(a). constraint c: forall X: p(X) -> q(X).").unwrap();
        // t pins a snapshot; its eventual repair choice reads q.
        let mut t = db.begin();
        t.stage(upd(true, "p", &["b"]));
        // A concurrent writer lands in q first.
        db.commit_updates_with_retry(&[upd(true, "q", &["zz"]), upd(true, "p", &["zz"])], 1)
            .unwrap();
        // The stale auto-repair must conflict retriably, not admit a
        // repair chosen against outdated contents of q.
        let err = db
            .commit_with_policy(&t, uniform_repair::ViolationPolicy::AutoRepair)
            .unwrap_err();
        assert!(err.is_retriable(), "{err}");
    }

    #[test]
    fn consistent_answers_over_an_inconsistent_committed_state() {
        let db = ConcurrentDatabase::parse("q(b). constraint c: forall X: p(X) -> q(X).").unwrap();
        // Drive the shared state inconsistent through the raw schema
        // path (bypassing the guard, as an external loader would).
        db.update_schema(|d| {
            d.insert_fact(&Fact::parse_like("p", &["a"]));
            d.insert_fact(&Fact::parse_like("p", &["b"]));
        });
        assert!(!db.with_database(|d| d.is_consistent()));
        let repairs = db.minimal_repairs().unwrap();
        assert_eq!(repairs.len(), 2, "{repairs:?}");
        // p(b) holds in every repair; p(a) only in one.
        let answers = read(&db, "p(X)", Consistency::Certain);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].value(0).unwrap().as_str(), "b");
        // The engine never mutated the shared state.
        assert!(!db.with_database(|d| d.is_consistent()));
    }

    #[test]
    fn concurrent_rule_additions_with_optimistic_sat_install_correctly() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let db = db.clone();
                scope.spawn(move || {
                    let rule = format!("derived{w}(X) :- employee(X).");
                    assert!(db.try_add_rule(&rule).unwrap());
                });
            }
        });
        // All four landed, each advancing the model.
        let snap = db.snapshot();
        for w in 0..4 {
            assert!(snap.holds(&Fact::parse_like(&format!("derived{w}"), &["ann"])));
        }
        // Unsatisfiable additions are still refused by the (optimistic)
        // search, and re-adding is still a no-op.
        assert!(!db.try_add_rule("derived0(X) :- employee(X).").unwrap());
        db.update_schema(|d| {
            d.add_constraint(uniform_logic::Constraint::new(
                "no_ghost",
                uniform_logic::normalize(
                    &uniform_logic::parse_formula("forall X: ghost(X) -> false").unwrap(),
                )
                .unwrap(),
            ));
            d.insert_fact(&Fact::parse_like("spirit", &["s"]));
        });
        let err = db.try_add_rule("ghost(X) :- spirit(X).").unwrap_err();
        assert!(matches!(err, UniformError::UpdateRejected(_)), "{err}");
    }

    #[test]
    fn guarded_constraint_addition_refuses_by_kind() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        // Satisfiable and satisfied: accepted.
        assert!(db
            .try_add_constraint("some_dept", "exists X: department(X)")
            .unwrap());
        // Identical duplicate: a no-op.
        assert!(!db
            .try_add_constraint("some_dept", "exists X: department(X)")
            .unwrap());
        // Unsatisfiable with what is already registered: refused with
        // the typed analyzer error before any fact is consulted.
        let err = db
            .try_add_constraint("nobody_leads", "forall X, Y: leads(X, Y) -> false")
            .unwrap_err();
        match err {
            UniformError::Analyze(e) => assert!(
                e.diagnostics
                    .iter()
                    .any(|d| d.code == uniform_analyze::Code::UnsatisfiableSet),
                "{e}"
            ),
            other => panic!("unexpected: {other}"),
        }
        // Satisfiable, but violated by the current state: refused with
        // the repairable error — the distinction UA0301 is about.
        let err = db
            .try_add_constraint("managed", "forall X: employee(X) -> manager(X)")
            .unwrap_err();
        assert!(
            matches!(err, UniformError::CurrentlyViolated { .. }),
            "{err}"
        );
        // Refusals left the schema at the accepted two constraints.
        assert_eq!(db.with_database(|d| d.constraints().len()), 2);
    }

    /// A §4 search that runs out of budget proves nothing either way:
    /// both gates refuse with UA0304, carrying the search's reason, and
    /// leave the database as it was.
    #[test]
    fn budget_exhausted_schema_searches_refuse_with_ua0304() {
        use uniform_satisfiability::{SatOptions, SatOutcome};
        // No fresh constant: even `exists X: p(X)` has no model in reach.
        let sat = SatOptions {
            max_fresh_constants: 0,
            ..SatOptions::default()
        };
        let options = UniformOptions {
            sat: sat.clone(),
            ..UniformOptions::default()
        };
        let db = ConcurrentDatabase::parse_with_options(
            "p(a). constraint some_p: exists X: p(X).",
            options,
        )
        .unwrap();
        let SatOutcome::Unknown { reason } = db.check_satisfiability().outcome else {
            panic!("the search must run out of budget");
        };
        let before = db.to_program_source();
        let additions: [&dyn Fn() -> Result<bool, UniformError>; 2] = [
            &|| db.try_add_constraint("q_p", "forall X: q(X) -> p(X)"),
            &|| db.try_add_rule("r(X) :- p(X)."),
        ];
        for add in additions {
            let UniformError::Analyze(e) = add().unwrap_err() else {
                panic!("expected an analyzer refusal");
            };
            let primary = e.primary().expect("a refusal carries a diagnostic");
            assert_eq!(primary.code, uniform_analyze::Code::SatisfiabilityUnknown);
            assert!(primary.message.contains(&reason), "{e}");
            assert_eq!(db.to_program_source(), before);
        }
    }

    /// A verdict reached on a schema that another change superseded
    /// before the lock is not reused: the candidate is built and gated
    /// again on the current schema. Each time, the second change makes
    /// the first one's candidate unsatisfiable, which only the second
    /// search sees: reusing the stale verdict would let the change past
    /// the gate, to be refused by its own check instead.
    #[test]
    fn a_superseded_verdict_is_gated_again() {
        const SRC: &str = "p(a). constraint some_p: exists X: p(X).";
        let no_s = || {
            let rq = normalize(&parse_formula("forall X: s(X) -> false").unwrap()).unwrap();
            Constraint::new("no_s", rq)
        };
        let s_rule = || parse_rule("s(X) :- p(X).").unwrap();
        let unsatisfiable = |landed: &Result<bool, UniformError>| match landed {
            Err(UniformError::Analyze(e)) => {
                e.primary().map(|d| d.code) == Some(uniform_analyze::Code::UnsatisfiableSet)
            }
            _ => false,
        };

        // (a) A rule addition, gated satisfiable; then a constraint lands.
        let db = ConcurrentDatabase::parse(SRC).unwrap();
        let change = SchemaChange::Rule(RuleUpdate::Add(s_rule()));
        let gated = db.gate(&change);
        assert!(matches!(gated.1, Ok(Some(_))), "satisfiable as pinned");
        db.update_schema(|d| d.add_constraint(no_s()));
        let landed = db.land(&change, gated);
        assert!(unsatisfiable(&landed), "{landed:?}");
        assert!(db.with_database(|d| d.rules().is_empty()));

        // (b) A constraint addition, gated satisfiable; then a rule lands.
        let db = ConcurrentDatabase::parse(SRC).unwrap();
        let change = SchemaChange::Constraint(no_s());
        let gated = db.gate(&change);
        assert!(matches!(gated.1, Ok(Some(_))), "satisfiable as pinned");
        db.update_schema(|d| d.set_rules(RuleSet::new(vec![s_rule()]).unwrap()));
        let landed = db.land(&change, gated);
        assert!(unsatisfiable(&landed), "{landed:?}");
        assert_eq!(db.with_database(|d| d.constraints().len()), 1);
    }

    #[test]
    fn analysis_is_cached_per_schema_revision() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let a1 = db.analyze();
        let a2 = db.analyze();
        assert!(Arc::ptr_eq(&a1, &a2), "same schema, one analysis");
        assert!(!a1.closure_union().is_empty());
        // A schema change moves the key: the next call rebuilds.
        assert!(db.try_add_rule("boss(X) :- leads(X, Y).").unwrap());
        let a3 = db.analyze();
        assert!(!Arc::ptr_eq(&a1, &a3), "schema moved, analysis rebuilt");
        let report = db.obs_report();
        let get = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(get("analyze.cache.misses"), 2);
        assert!(get("analyze.cache.hits") >= 1);
    }

    /// `commit_flat`'s three shapes (insert three facts of a student,
    /// delete them, a rejected enrolment) compile once each per schema:
    /// after a constraint addition each compiles once more.
    #[test]
    fn guarded_commits_compile_each_shape_once_per_schema() {
        let db = ConcurrentDatabase::from_database(
            uniform_workload::university(32, 1),
            UniformOptions::default(),
        );
        let commit = |i: usize| {
            let (insert, name, staged) = match i % 3 {
                0 => (true, format!("w{i}"), 3),
                1 => (false, format!("w{}", i - 1), 3),
                _ => (true, format!("b{i}"), 2),
            };
            let facts = [
                ("student", vec![name.as_str()]),
                ("enrolled", vec![name.as_str(), "cs"]),
                ("attends", vec![name.as_str(), "ddb"]),
            ];
            let mut txn = db.begin();
            for (p, args) in &facts[..staged] {
                txn.stage(upd(insert, p, args));
            }
            assert_eq!(db.commit(&txn).is_ok(), i % 3 != 2, "commit {i}");
        };
        let counts = || {
            let report = db.obs_report();
            let get = |name| report.counter(name).unwrap();
            (get("check.cache.misses"), get("check.cache.hits"))
        };
        (0..64).for_each(commit);
        assert_eq!(counts(), (3, 61));
        assert!(db
            .try_add_constraint("award_student", "forall X: award(X) -> student(X)")
            .unwrap());
        commit(64);
        assert_eq!(counts(), (4, 61));
        (65..70).for_each(commit);
        assert_eq!(counts(), (6, 64));
    }

    #[test]
    fn plan_cache_shares_prepared_queries_across_callers() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q1 = db.prepare("member(X, Y)").unwrap();
        let q2 = db.prepare("member(X, Y)").unwrap();
        let stats = metrics(&db, "cache.plan");
        assert_eq!(
            (stats("hits"), stats("misses"), stats("entries")),
            (1, 1, 1)
        );
        // Both handles share one plan: the second execute hits it.
        let s = db.session();
        s.execute(&q1, &Params::new(), Consistency::Latest).unwrap();
        s.execute(&q2, &Params::new(), Consistency::Latest).unwrap();
        assert_eq!(q1.plan_counters(), (1, 1));
        // Formula and conjunctive entries never collide on one source.
        db.prepare_formula("exists X: employee(X)").unwrap();
        db.prepare("employee(X)").unwrap();
        assert_eq!(counter(&db, "cache.plan.entries"), 3);
        // Concurrent preparers all resolve to the shared entry.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let db = db.clone();
                scope.spawn(move || {
                    let q = db.prepare("member(X, Y)").unwrap();
                    let rows = db
                        .session()
                        .execute(&q, &Params::new(), Consistency::Latest)
                        .unwrap();
                    assert_eq!(rows.len(), 1);
                });
            }
        });
        let stats = metrics(&db, "cache.plan");
        assert_eq!(stats("entries"), 3);
        assert_eq!(stats("hits") + stats("misses"), 8);
    }

    #[test]
    fn cached_plans_are_invalidated_by_rule_updates() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = db.prepare("member(X, Y)").unwrap();
        let before = db
            .session()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(before.len(), 1);
        assert!(db.try_add_rule("member(X, club) :- employee(X).").unwrap());
        // Same cached PreparedQuery, new rule revision: re-planned, and
        // the answers reflect the new rule — never the stale plan.
        let q2 = db.prepare("member(X, Y)").unwrap();
        let after = db
            .session()
            .execute(&q2, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(after.len(), 2, "{after}");
        let (_, misses) = q.plan_counters();
        assert_eq!(misses, 2, "one plan per rule revision");
    }

    #[test]
    fn fenced_sessions_refuse_after_schema_changes() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = db.prepare("employee(X)").unwrap();
        let fenced = db.session_fenced();
        let plain = db.session();
        fenced
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        // Fact commits do not fence…
        db.commit_updates_with_retry(&[upd(true, "veteran", &["ann"])], 4)
            .unwrap();
        fenced
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        // …schema changes do.
        db.try_add_rule("boss(X) :- leads(X, Y).").unwrap();
        let err = fenced
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap_err();
        assert!(
            matches!(err, crate::QueryError::SnapshotTooOld { .. }),
            "{err}"
        );
        // An unfenced session keeps serving its pinned state.
        assert_eq!(
            plain
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap()
                .len(),
            1
        );
        // Racing schema changes publish the head schema under the
        // queue lock, in order: once they settle, a fresh fenced
        // session pins the latest schema and must execute cleanly — a
        // stale head would refuse it spuriously (or let an old session
        // through).
        std::thread::scope(|scope| {
            for w in 0..4 {
                let db = db.clone();
                scope.spawn(move || {
                    db.try_add_rule(&format!("fence_d{w}(X) :- employee(X)."))
                        .unwrap();
                });
            }
        });
        db.session_fenced()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
    }

    /// Two databases at equal revisions hold two schemas: swapping one
    /// for the other inside `update_schema` reaches the check, the
    /// analysis and the fence.
    #[test]
    fn an_equal_revision_swap_replaces_the_schema() {
        let pq = Database::parse("q(a). constraint pq: forall X: p(X) -> q(X).").unwrap();
        let qp = Database::parse("q(a). p(a). constraint qp: forall X: q(X) -> p(X).").unwrap();
        assert_eq!(
            (pq.rule_rev(), pq.constraint_rev()),
            (qp.rule_rev(), qp.constraint_rev())
        );
        let db = ConcurrentDatabase::from_database(pq, UniformOptions::default());
        let tx = Transaction::single(upd(true, "p", &["b"]));
        assert!(!db.check(&tx).satisfied);
        db.analyze();
        let q = db.prepare("q(X)").unwrap();
        let fenced = db.session_fenced();
        fenced
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        db.update_schema(|d| *d = qp);
        let oracle = Checker::for_snapshot(&db.snapshot()).check(&tx);
        assert!(oracle.satisfied);
        assert_eq!(format!("{:?}", db.check(&tx)), format!("{oracle:?}"));
        let analyzed = db.analyze();
        let names: Vec<&str> = analyzed
            .constraints()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["qp"]);
        let err = fenced
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap_err();
        assert!(
            matches!(err, crate::QueryError::SnapshotTooOld { .. }),
            "{err}"
        );
    }

    /// A transaction pinned before a schema change is checked through
    /// its own snapshot's schema: a shape compiled there hits.
    #[test]
    fn a_pinned_snapshot_checks_through_its_own_schema() {
        let db = ConcurrentDatabase::parse("q(a). constraint pq: forall X: p(X) -> q(X).").unwrap();
        let counts = || {
            let report = db.obs_report();
            let get = |name| report.counter(name).unwrap();
            (get("check.cache.misses"), get("check.cache.hits"))
        };
        let txn = |name: &str| {
            let mut txn = db.begin();
            txn.stage(upd(true, "p", &[name]));
            txn.stage(upd(true, "q", &[name]));
            txn
        };
        db.commit(&txn("b")).unwrap();
        assert_eq!(counts(), (1, 0));
        let pinned = txn("c");
        assert!(db
            .try_add_constraint("rs", "forall X: r(X) -> s(X)")
            .unwrap());
        let err = db.commit(&pinned).unwrap_err();
        assert!(matches!(err, TxnError::SnapshotTooOld { .. }), "{err}");
        assert_eq!(counts(), (1, 1));
        // The head schema compiles the shape once more.
        db.commit(&txn("c")).unwrap();
        assert_eq!(counts(), (2, 1));
    }

    /// Handles over clones of one database share its schema, and with
    /// it the compiled checks, yet each compiles and hits under its own
    /// options, exactly as it would alone.
    #[test]
    fn handles_sharing_a_schema_keep_their_own_options() {
        let db = Database::parse(
            "
            honours(X) :- student(X), award(X).
            constraint hon_ok: forall X: honours(X) -> attends(X, sem).
            student(w4). award(w4). attends(w4, sem).
            ",
        )
        .unwrap();
        let handles = [CheckOptions::default(), CheckOptions { potential_limit: 0 }].map(|check| {
            let options = UniformOptions {
                check,
                ..UniformOptions::default()
            };
            (
                check,
                ConcurrentDatabase::from_database(db.clone(), options),
            )
        });
        assert!(Arc::ptr_eq(
            handles[0].1.snapshot().schema(),
            handles[1].1.snapshot().schema()
        ));
        for name in ["n1", "n2", "n3"] {
            let tx = Transaction::new(vec![
                upd(true, "student", &[name]),
                upd(true, "award", &[name]),
            ]);
            for (options, handle) in &handles {
                let oracle = Checker::for_snapshot(&handle.snapshot())
                    .with_options(*options)
                    .check(&tx);
                assert_eq!(oracle.truncated, options.potential_limit == 0);
                assert_eq!(format!("{:?}", handle.check(&tx)), format!("{oracle:?}"));
            }
        }
        for (_, handle) in &handles {
            let report = handle.obs_report();
            let get = |name| report.counter(name).unwrap();
            assert_eq!((get("check.cache.misses"), get("check.cache.hits")), (1, 2));
        }
    }

    #[test]
    fn read_shims_flow_through_the_prepared_path() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        assert!(db.query("member(ann, sales)").unwrap());
        assert!(!db.query("member(ann, hr)").unwrap());
        let sols = read(&db, "member(X, sales)", Consistency::Latest);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].value(0).unwrap().sym(), Sym::new("ann"));
        // Each call hit the shared cache after its first parse.
        assert!(db.query("member(ann, sales)").unwrap());
        let stats = metrics(&db, "cache.plan");
        assert_eq!(stats("misses"), 3, "two formula + one conjunctive entry");
        assert_eq!(stats("hits"), 1, "the repeated formula was served cached");
        // A formula that does not parse is still a `Language` refusal.
        let err = db.query("member(ann,").unwrap_err();
        assert!(
            matches!(err, UniformError::Language(LogicError::Parse(_))),
            "{err}"
        );
    }

    #[test]
    fn multi_writer_threads_preserve_integrity() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let db = db.clone();
                scope.spawn(move || {
                    for i in 0..8 {
                        let name = format!("d{w}_{i}");
                        let mgr = format!("m{w}_{i}");
                        let updates = [
                            upd(true, "department", &[&name]),
                            upd(true, "employee", &[&mgr]),
                            upd(true, "leads", &[&mgr, &name]),
                        ];
                        db.commit_updates_with_retry(&updates, 16).unwrap();
                    }
                });
            }
        });
        assert!(db.with_database(|d| d.is_consistent()));
        // 3 seed facts + 3 per committed department.
        assert_eq!(db.with_database(|d| d.facts().len()), 3 + 4 * 8 * 3);
    }

    /// The canonical certain-cache fixture: `p(a)`/`p(b)` with `q(b)`
    /// only, so `p(a)` violates `c` and the two minimal repairs are
    /// {delete p(a)} and {insert q(a)} — `p(b)` is the single certain
    /// answer of `p(X)`.
    fn inconsistent_pq() -> ConcurrentDatabase {
        let db = ConcurrentDatabase::parse("q(b). constraint c: forall X: p(X) -> q(X).").unwrap();
        db.update_schema(|d| {
            d.insert_fact(&Fact::parse_like("p", &["a"]));
            d.insert_fact(&Fact::parse_like("p", &["b"]));
        });
        assert!(!db.with_database(|d| d.is_consistent()));
        db
    }

    #[test]
    fn certain_cache_shares_one_enumeration_across_sessions() {
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        let first = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(first.len(), 1, "{first}");
        // A *different* session pinned to the same state: the row set
        // comes straight from the shared cache — no repair enumeration,
        // not even a repair-cache lookup.
        let second = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(first, second);
        let stats = metrics(&db, "cache.certain");
        assert_eq!(stats("repair_misses"), 1, "one enumeration total");
        assert_eq!((stats("hits"), stats("misses")), (1, 1));
        assert_eq!(stats("entries"), 1);
        // A third session asking a different Certain query reuses the
        // cached *repairs* even though its row set is new.
        let f = db.prepare_formula("p(b)").unwrap();
        assert!(db
            .session()
            .execute(&f, &Params::new(), Consistency::Certain)
            .unwrap()
            .is_true());
        let stats = metrics(&db, "cache.certain");
        assert_eq!(stats("repair_misses"), 1);
        assert_eq!(stats("repair_hits"), 1);
        assert_eq!(stats("entries"), 2);
    }

    #[test]
    fn one_session_enumerates_once_across_certain_queries() {
        // A session keeps no repair memo of its own: its second
        // `Certain` query finds the repairs in the shared cache.
        let db = inconsistent_pq();
        let session = db.session();
        for src in ["p(X)", "q(X)"] {
            let q = db.prepare(src).unwrap();
            session
                .execute(&q, &Params::new(), Consistency::Certain)
                .unwrap();
        }
        let stats = metrics(&db, "cache.certain");
        assert_eq!(stats("repair_misses"), 1, "one enumeration");
        assert_eq!(stats("repair_hits"), 1);
        assert_eq!(stats("entries"), 2);
    }

    #[test]
    fn every_admitted_commit_drops_the_certain_cache() {
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        let warm = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        // `noise` is outside every constraint closure, so the answers
        // cannot change; the cache keys by exact state all the same,
        // and the commit drops the entry.
        db.commit_updates_with_retry(&[upd(true, "noise", &["n1"])], 4)
            .unwrap();
        let stats = metrics(&db, "cache.certain");
        assert_eq!((stats("entries"), stats("invalidated")), (0, 1));
        let after = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(warm, after);
        let stats = metrics(&db, "cache.certain");
        assert_eq!(
            stats("repair_misses"),
            2,
            "the new state re-enumerates once"
        );
        assert_eq!(stats("hits"), 0);
    }

    #[test]
    fn fact_only_commits_inside_the_closure_invalidate_the_certain_cache() {
        // Satellite of the PR 6 fence gap: sessions only compare
        // rule/constraint revisions, so a *fact*-level staleness hole in
        // the cache would serve answers of a dead state. The cache key
        // carries `fact_rev`, and the advance hook drops the entries of
        // every other state — both asserted here.
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        let stale = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(stale.len(), 1, "only p(b) is certain before the fix");
        // A fact-only commit (rule_rev/constraint_rev unchanged) that
        // repairs the violation: with q(a) in place the state is
        // consistent and p(a) is certain too.
        db.commit_updates_with_retry(&[upd(true, "q", &["a"])], 4)
            .unwrap();
        let fresh = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(fresh.len(), 2, "{fresh}");
        let stats = metrics(&db, "cache.certain");
        assert_eq!(stats("invalidated"), 1);
        // The repaired head was looked at, found violation-free, and
        // latched: no second enumeration, no entry for it.
        assert_eq!(stats("repair_misses"), 1);
        assert_eq!(stats("entries"), 0);
        assert!(db.snapshot().verified_consistent());
    }

    #[test]
    fn constraint_only_schema_updates_never_serve_a_stale_repair_report() {
        // The other satellite hole: a schema update that moves *only*
        // the constraint revision (facts and rules untouched) must not
        // serve the old revision's RepairReport to new sessions.
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        let narrow = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(narrow.len(), 1);
        let (fact_rev_before, rule_rev_before) = db.with_database(|d| (d.fact_rev(), d.rule_rev()));
        // Drop the constraint: a constraint-only change.
        db.update_schema(|d| d.set_constraints(Vec::new()));
        assert_eq!(
            db.with_database(|d| (d.fact_rev(), d.rule_rev())),
            (fact_rev_before, rule_rev_before),
            "the update must move only constraint_rev for this test to bite"
        );
        // Without `c` the state is consistent: both p-facts are certain.
        let wide = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(wide.len(), 2, "{wide}");
        let stats = metrics(&db, "cache.certain");
        assert_eq!(stats("invalidated"), 1);
        // Nothing to repair under the empty constraint set: the plain
        // check latched the state instead of a second enumeration.
        assert_eq!(stats("repair_misses"), 1);
        assert!(db.snapshot().verified_consistent());
    }

    #[test]
    fn auto_repaired_commits_invalidate_the_certain_cache_wholesale() {
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        db.session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        // An auto-repaired commit folds a repair delta in: its effect
        // is the widened constraint closure, so the cache drops
        // everything rather than reasoning about the delta.
        let mut t = db.begin();
        t.stage(upd(true, "p", &["z"]));
        let outcome = db
            .commit_with_policy(&t, ViolationPolicy::AutoRepair)
            .unwrap();
        assert!(outcome.repair.is_some());
        let stats = metrics(&db, "cache.certain");
        assert_eq!(stats("invalidated"), 1);
        assert_eq!(stats("entries"), 0);
        // And fresh sessions compute fresh, correct answers. The repair
        // delta covered the whole would-be state — the pre-existing
        // violation included — so the head is consistent now: the first
        // read looks, latches, and never enumerates.
        let fresh = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert!(!fresh.is_empty(), "{fresh}");
        assert_eq!(counter(&db, "cache.certain.repair_misses"), 1);
        assert!(db.snapshot().verified_consistent());
    }

    #[test]
    fn pinned_old_sessions_do_not_thrash_the_certain_cache() {
        // Churn survival: one session stays pinned to the pre-commit
        // state while fresh sessions read the head. With a single-state
        // cache the two sides evict each other every pass (the PR 7
        // follow-up thrash); with the generation ring each state keeps
        // its own entries, so after the first compute per state every
        // execute is a row hit.
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        let old = db.session();
        old.execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        // A fact commit inside the closure: invalidates the cache and
        // moves the head while `old` stays pinned behind it. `q(c)`
        // repairs nothing — the head stays inconsistent, so both states
        // keep going through the cache (a consistent head would bypass
        // it; see `certain_reads_of_a_verified_state_bypass_the_cache`).
        db.commit_updates_with_retry(&[upd(true, "q", &["c"])], 4)
            .unwrap();
        for _ in 0..4 {
            old.execute(&q, &Params::new(), Consistency::Certain)
                .unwrap();
            db.session()
                .execute(&q, &Params::new(), Consistency::Certain)
                .unwrap();
        }
        let stats = metrics(&db, "cache.certain");
        // One row-set compute per state post-commit (plus the
        // pre-commit warm-up); the remaining six alternating executes
        // all hit. Before the ring, the pinned session missed every
        // pass and its installs were refused.
        assert_eq!((stats("hits"), stats("misses")), (6, 3));
        assert_eq!(stats("entries"), 2, "one row set per cached state");
        // The commit dropped the pinned state's generation, repairs
        // included: the warm-up, then one enumeration per state after
        // the commit, churn notwithstanding.
        assert_eq!(stats("repair_misses"), 3);
    }

    /// The outcome paths of the recorded `query.execute` spans, in order.
    fn execute_closes(db: &ConcurrentDatabase) -> Vec<Option<&'static str>> {
        let events = db.recent_events().into_iter();
        let closes = events.filter(|e| e.close && e.name == "query.execute");
        closes.map(|e| e.tag).collect()
    }

    #[test]
    fn certain_reads_of_a_verified_state_bypass_the_cache() {
        // `parse` checked the initial state: the latch starts set.
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        assert!(db.snapshot().verified_consistent());
        let q = db.prepare("member(X, Y)").unwrap();
        let read = |level| db.session().execute(&q, &Params::new(), level).unwrap();
        assert_eq!(read(Consistency::Certain), read(Consistency::Latest));
        // A guarded commit carries the latch to the post-commit state…
        db.commit_updates_with_retry(
            &[
                upd(true, "department", &["hr"]),
                upd(true, "employee", &["bob"]),
                upd(true, "leads", &["bob", "hr"]),
            ],
            4,
        )
        .unwrap();
        assert!(db.snapshot().verified_consistent());
        // …and so do accepted schema additions.
        assert!(db.try_add_rule("boss(X) :- leads(X, Y).").unwrap());
        assert!(db
            .try_add_constraint("some_dept", "exists X: department(X)")
            .unwrap());
        assert!(db.snapshot().verified_consistent());
        assert_eq!(read(Consistency::Certain).len(), 2);
        // Not one of those reads touched the certain cache or the
        // repair engine.
        let stats = metrics(&db, "cache.certain");
        assert_eq!(
            (stats("hits"), stats("misses"), stats("entries")),
            (0, 0, 0)
        );
        assert_eq!(stats("repair_misses") + stats("repair_hits"), 0);
        assert_eq!(counter(&db, "query.certain.consistent"), 2);
        assert_eq!(counter(&db, "consistency.preserved"), 3);
        assert_eq!(counter(&db, "consistency.established"), 0);
        assert_eq!(counter(&db, "consistency.cleared"), 0);
        assert_eq!(
            execute_closes(&db),
            [Some("consistent"), Some("eval"), Some("consistent")]
        );
    }

    #[test]
    fn raw_edits_clear_the_latch_and_the_first_certain_read_re_establishes_it() {
        let db = ConcurrentDatabase::parse("q(b). constraint c: forall X: p(X) -> q(X).").unwrap();
        let pinned = db.session();
        // A raw edit — even a harmless one — leaves a state nobody has
        // looked at.
        db.update_schema(|d| d.insert_fact(&Fact::parse_like("p", &["b"])));
        assert!(!db.snapshot().verified_consistent());
        assert_eq!(counter(&db, "consistency.cleared"), 1);
        // A session pinned before the edit keeps the bit of its state.
        assert!(pinned.snapshot().verified_consistent());
        // The first `Certain` read looks (plain constraint evaluation,
        // no enumeration) and latches the state for everyone on it.
        let q = db.prepare("p(X)").unwrap();
        let rows = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(db.snapshot().verified_consistent());
        assert_eq!(counter(&db, "consistency.established"), 1);
        assert!(db.recent_events().iter().all(|e| e.name != "repair.run"));
        assert_eq!(counter(&db, "cache.certain.entries"), 0);
        // A violating raw edit clears it again, and the cache path takes
        // over unchanged.
        db.update_schema(|d| d.insert_fact(&Fact::parse_like("p", &["a"])));
        assert!(!db.snapshot().verified_consistent());
        let rows = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(rows.len(), 1, "only p(b) is certain");
        assert!(!db.snapshot().verified_consistent());
        let stats = metrics(&db, "cache.certain");
        assert_eq!((stats("repair_misses"), stats("entries")), (1, 1));
        // Guarded commits on an unverified head prove the step, not the
        // base case: the latch stays unset.
        db.commit_updates_with_retry(&[upd(true, "noise", &["n"])], 4)
            .unwrap();
        assert!(!db.snapshot().verified_consistent());
        assert_eq!(counter(&db, "consistency.preserved"), 0);
    }

    #[test]
    fn plan_cache_shards_are_bounded_with_lru_eviction() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let hot = "member(X, Y)";
        db.prepare(hot).unwrap();
        // Churn far more distinct keys than the cache may hold,
        // re-touching the hot entry throughout so its stamps stay fresh.
        let churn = 16 * 64 * 2;
        for i in 0..churn {
            db.prepare(&format!("extra{i}(X)")).unwrap();
            if i % 16 == 0 {
                db.prepare(hot).unwrap();
            }
        }
        let entries = counter(&db, "cache.plan.entries");
        assert!(
            entries <= 16 * 64,
            "shards must stay bounded, got {entries} entries"
        );
        // The hot key survived the churn: one more lookup is a hit.
        let misses_before = counter(&db, "cache.plan.misses");
        db.prepare(hot).unwrap();
        let after = counter(&db, "cache.plan.misses");
        assert_eq!(after, misses_before, "hot entry was evicted");
    }

    // ---- the parsed one-shot surface -------------------------------------

    #[test]
    fn parse_rejects_inconsistent_start() {
        let err = ConcurrentDatabase::parse("p(a). constraint c: forall X: p(X) -> q(X).");
        assert!(
            matches!(err, Err(UniformError::InitialViolation(ref v)) if v == &vec!["c".to_string()])
        );
    }

    #[test]
    fn guarded_inserts_and_deletes() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        // Dangling department rejected.
        assert!(db.try_insert("department(hr).").is_err());
        // With a leader in the same transaction it goes through.
        db.try_update_all(&["department(hr)", "employee(bob)", "leads(bob, hr)"])
            .unwrap();
        assert!(db.query("member(bob, hr)").unwrap());
        // Removing ann's leadership would orphan sales.
        assert!(db.try_delete("leads(ann, sales)").is_err());
    }

    #[test]
    fn stale_begins_commit_unless_an_intervening_write_hit_their_read_set() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let open_dept = |dept: &str| {
            let mut txn = db.begin();
            txn.insert(Fact::parse_like("department", &[dept]));
            txn.insert(Fact::parse_like("leads", &["ann", dept]));
            txn
        };
        // This handle commits in between, outside the check's read set:
        // the stale transaction is admitted as it stands.
        let stale = open_dept("ops");
        db.try_insert("veteran(v).").unwrap();
        assert!(stale.begin_version() < db.version());
        assert!(db.commit(&stale).unwrap().report.satisfied);
        assert!(db.query("member(ann, ops)").unwrap());

        // An intervening write into a relation the verdict read (`led`
        // scanned `employee` for a leader) is a typed retriable
        // conflict, and the retry loop lands the same updates.
        let stale = open_dept("hr");
        db.try_insert("employee(dan).").unwrap();
        let err = db.commit(&stale).unwrap_err();
        assert!(
            matches!(err, TxnError::Conflict { .. }) && err.is_retriable(),
            "{err}"
        );
        assert!(!db.query("department(hr)").unwrap());
        let outcome = db.commit_updates_with_retry(stale.updates(), 4).unwrap();
        assert!(outcome.report.satisfied);
        assert!(db.query("member(ann, hr)").unwrap());

        // Rejections carry the usual typed report.
        let mut bad = db.begin();
        bad.insert(Fact::parse_like("department", &["void"]));
        let err = db.commit(&bad).unwrap_err();
        assert!(matches!(err, TxnError::Rejected(_)), "{err}");
        assert!(!db.query("department(void)").unwrap());
    }

    #[test]
    fn violated_but_satisfiable_constraint_suggests_repair() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        let err = db
            .try_add_constraint("audited", "forall X, Y: leads(X, Y) -> audited(X)")
            .unwrap_err();
        match err {
            UniformError::CurrentlyViolated { constraint, repair } => {
                assert_eq!(constraint, "audited");
                // The suggestion is the RepairEngine's smallest minimal
                // repair of the would-be state — here inserting the
                // missing audit record (deleting leads(ann, sales)
                // would cascade into `led` and `emp_member`).
                let repair = repair.expect("repair expected");
                assert_eq!(repair.to_string(), "{+audited(ann)}");
                assert_eq!(
                    repair.ops(),
                    &[Update::insert(Fact::parse_like("audited", &["ann"]))]
                );
            }
            other => panic!("unexpected {other}"),
        }
    }

    /// Hostile nesting reaches the formula parser through every text
    /// entry point; each must answer with a parse error, not abort the
    /// process on a stack overflow.
    #[test]
    fn hostile_nesting_is_refused_at_every_text_entry_point() {
        let db = ConcurrentDatabase::parse("p(a).").unwrap();
        for open in ["(", "~"] {
            let text = format!("{}p(a)", open.repeat(100_000));
            let err = db.try_add_constraint("deep", &text).unwrap_err();
            assert!(
                matches!(err, UniformError::Language(LogicError::Parse(_))),
                "{open:?}: {err}"
            );
            assert!(db.prepare_formula(&text).is_err(), "{open:?}");
            let program = format!("p(a). constraint deep: {text}.");
            assert!(ConcurrentDatabase::parse(&program).is_err(), "{open:?}");
        }
        assert!(db.snapshot().constraints().is_empty());
    }

    /// The suggestion *is* a minimal repair of the would-be state, so
    /// it cannot disagree with `minimal_repairs`.
    #[test]
    fn constraint_repair_suggestion_agrees_with_minimal_repairs() {
        let db = ConcurrentDatabase::parse("p(a). p(b). q(b).").unwrap();
        let err = db
            .try_add_constraint("c", "forall X: p(X) -> q(X)")
            .unwrap_err();
        let UniformError::CurrentlyViolated { repair, .. } = err else {
            panic!("expected CurrentlyViolated");
        };
        let suggested = repair.expect("repairable state");
        // Independently enumerate the minimal repairs of the would-be
        // state (current facts + candidate constraint).
        let tolerant = ConcurrentDatabase::parse_tolerant(
            "p(a). p(b). q(b). constraint c: forall X: p(X) -> q(X).",
        )
        .unwrap();
        let minimal = tolerant.minimal_repairs().unwrap();
        assert!(
            minimal.contains(&suggested),
            "suggestion {suggested} not among the minimal repairs {minimal:?}"
        );
        // And it is the smallest one (the engine's (size, name) order).
        assert_eq!(&suggested, &minimal[0]);
        // Applying it makes the constraint addition succeed.
        for op in suggested.ops() {
            if op.insert {
                db.try_insert(&format!("{}.", op.fact)).unwrap();
            } else {
                db.try_delete(&format!("{}.", op.fact)).unwrap();
            }
        }
        assert!(db
            .try_add_constraint("c", "forall X: p(X) -> q(X)")
            .unwrap());
    }

    #[test]
    fn refused_schema_changes_keep_the_certain_cache() {
        let db = inconsistent_pq();
        let q = db.prepare("p(X)").unwrap();
        let read = || {
            db.session()
                .execute(&q, &Params::new(), Consistency::Certain)
                .unwrap()
        };
        let warm = read();
        assert_eq!(execute_closes(&db), [Some("repair")]);
        // Refused as unsatisfiable (UA0301), refused as currently
        // violated, a duplicate, removals that find nothing: none of
        // them changed the database, so none may cost the cached repair
        // list of this inconsistent state.
        let err = db
            .try_add_constraint("void", "(exists X: r(X)) & (forall X: r(X) -> false)")
            .unwrap_err();
        assert!(matches!(err, UniformError::Analyze(_)), "{err}");
        let err = db
            .try_add_constraint("no_q", "forall X: q(X) -> false")
            .unwrap_err();
        assert!(
            matches!(err, UniformError::CurrentlyViolated { .. }),
            "{err}"
        );
        assert!(!db
            .try_add_constraint("c", "forall X: p(X) -> q(X)")
            .unwrap());
        assert!(!db.remove_constraint("ghost"));
        assert!(!db.try_remove_rule("ghost(X) :- p(X).").unwrap());
        assert_eq!(read(), warm);
        assert_eq!(execute_closes(&db), [Some("repair"), Some("cache_hit")]);
        let stats = metrics(&db, "cache.certain");
        assert_eq!((stats("invalidated"), stats("hits")), (0, 1));
        assert_eq!(stats("repair_misses"), 1);
        assert_eq!(counter(&db, "cache.certain.invalidated"), 0);
    }

    #[test]
    fn satisfiable_and_satisfied_constraint_accepted() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        db.try_add_constraint("dom", "forall X, Y: leads(X, Y) -> employee(X)")
            .unwrap();
        assert_eq!(db.snapshot().constraints().last().unwrap().name, "dom");
        // And it now guards updates.
        assert!(db.try_insert("leads(ghost, sales).").is_err());
    }

    #[test]
    fn rule_updates_guarded() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        // Unstratifiable addition rejected.
        assert!(db
            .try_add_rule("absent(X) :- employee(X), not absent(X).")
            .is_err());
        // A benign rule is accepted.
        db.try_add_rule("boss(X) :- leads(X, Y).").unwrap();
        assert!(db.query("boss(ann)").unwrap());
        // A rule that derives facts violating a constraint is rejected
        // by the incremental path with an UpdateRejected report (not a
        // full re-check), carrying the culprit.
        db.try_add_constraint("noselfsub", "forall X: subordinate(X, X) -> false")
            .unwrap();
        let err = db
            .try_add_rule("subordinate(X, X) :- employee(X).")
            .unwrap_err();
        match err {
            UniformError::UpdateRejected(report) => {
                assert_eq!(report.violations[0].constraint, "noselfsub");
                assert!(report.violations[0].culprit.is_some());
            }
            other => panic!("expected UpdateRejected, got {other}"),
        }
    }

    #[test]
    fn conditional_updates_guarded() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        db.try_update_all(&["employee(bob)", "department(hr)", "leads(bob, hr)"])
            .unwrap();
        // Mark every leader as a veteran: fine.
        let outcome = db.try_apply_where("veteran(X) where leads(X, Y)").unwrap();
        assert!(outcome.report.satisfied);
        assert!(db.query("veteran(ann)").unwrap());
        assert!(db.query("veteran(bob)").unwrap());
        // Fire every veteran: would orphan both departments.
        let err = db.try_apply_where("not leads(X, Y) where veteran(X), leads(X, Y)");
        assert!(err.is_err(), "conditional deletion must be guarded");
        assert!(
            db.query("leads(ann, sales)").unwrap(),
            "rejected update not applied"
        );
        // Empty expansion is a no-op.
        let outcome = db.try_apply_where("audit(X) where intern(X)").unwrap();
        assert!(outcome.report.satisfied && outcome.effective.is_empty());
    }

    #[test]
    fn conditional_updates_read_what_their_condition_read() {
        // The expansion is pinned like any check, so the relations the
        // condition read (here `member`, and `leads` through its rule)
        // are whole-relation reads of the submission: a concurrent
        // write into either conflicts it. The same ground insert on
        // its own reads one key.
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        db.try_insert("veteran(zed).").unwrap();
        assert_eq!(counter(&db, "txn.conflicts.whole_relation_fallbacks"), 0);
        let outcome = db.try_apply_where("veteran(X) where member(X, Y)").unwrap();
        assert_eq!(outcome.effective, [upd(true, "veteran", &["ann"])]);
        assert_eq!(counter(&db, "txn.conflicts.whole_relation_fallbacks"), 1);
    }

    #[test]
    fn conditional_update_parse_errors_surface() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        assert!(
            db.try_apply_where("veteran(X)").is_err(),
            "unbound pattern variable"
        );
        assert!(db.try_apply_where("veteran(X) where ???").is_err());
    }

    #[test]
    fn arity_mismatched_updates_rejected_politely() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        let err = db.try_insert("employee(x, y).").unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        let err = db.try_delete("leads(ann).").unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        // Fresh predicates are unconstrained…
        assert!(db.try_insert("brand_new(a, b, c).").is_ok());
        // …but one transaction cannot use a fresh predicate with two
        // different arities: refused up front, nothing applied.
        let err = db.try_update_all(&["fresh(a, b)", "fresh(c)"]).unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        assert!(db.snapshot().facts().relation(Sym::new("fresh")).is_none());
    }

    #[test]
    fn explanations_render_derivations() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        let tree = db
            .explain("member(ann, sales)")
            .unwrap()
            .expect("derived fact");
        assert!(tree.contains("leads(ann,sales)"), "{tree}");
        assert!(tree.contains("[explicit]"), "{tree}");
        assert!(db.explain("member(ann, hr)").unwrap().is_none());
        let explicit = db.explain("employee(ann)").unwrap().unwrap();
        assert!(explicit.contains("[explicit]"));
    }

    #[test]
    fn constraint_removal_is_unconditional() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        assert!(db.remove_constraint("led"));
        assert!(!db.remove_constraint("led"), "already gone");
        // With `led` gone, a dangling department is fine.
        db.try_insert("department(hr).").unwrap();
        assert!(db.snapshot().verified_consistent());
    }

    #[test]
    fn rule_removal_guarded_by_recheck() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        // Removing the member rule would strip ann's membership and
        // violate emp_member.
        let err = db
            .try_remove_rule("member(X, Y) :- leads(X, Y).")
            .unwrap_err();
        assert!(err.to_string().contains("emp_member"), "{err}");
        // Make the membership explicit first; then removal goes through.
        db.try_insert("member(ann, sales).").unwrap();
        assert!(db.try_remove_rule("member(X, Y) :- leads(X, Y).").unwrap());
        assert!(db.query("member(ann, sales)").unwrap());
        assert!(db.snapshot().verified_consistent());
        // Removing a rule that does not exist reports false.
        assert!(!db.try_remove_rule("ghost(X) :- leads(X, Y).").unwrap());
    }

    #[test]
    fn removals_fence_like_rule_additions() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = db.prepare("employee(X)").unwrap();
        let pin = || {
            let mut inflight = db.begin();
            inflight.stage(upd(true, "veteran", &["zed"]));
            let fenced = db.session_fenced();
            fenced
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap();
            (inflight, fenced)
        };
        let assert_fenced = |(inflight, fenced): (TxnBuilder, Session), what: &str| {
            let err = db.commit(&inflight).unwrap_err();
            assert!(
                matches!(err, TxnError::SnapshotTooOld { .. }),
                "{what}: {err}"
            );
            let err = fenced
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap_err();
            assert!(
                matches!(err, QueryError::SnapshotTooOld { .. }),
                "{what}: {err}"
            );
        };

        let pinned = pin();
        assert!(db.try_remove_rule("member(X, Y) :- leads(X, Y).").unwrap());
        assert_fenced(pinned, "rule removal");

        let pinned = pin();
        assert!(db.remove_constraint("led"));
        assert_fenced(pinned, "constraint removal");

        // A removal that finds nothing fences nothing.
        let (inflight, fenced) = pin();
        assert!(!db.remove_constraint("led"));
        assert!(!db.try_remove_rule("member(X, Y) :- leads(X, Y).").unwrap());
        db.commit(&inflight).unwrap();
        fenced
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
    }

    #[test]
    fn serialization_round_trips() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        let printed = db.to_program_source();
        let db2 = ConcurrentDatabase::parse(&printed).unwrap();
        assert_eq!(
            db.query("member(ann, sales)").unwrap(),
            db2.query("member(ann, sales)").unwrap()
        );
        assert_eq!(
            db.snapshot().constraints().len(),
            db2.snapshot().constraints().len()
        );
    }

    #[test]
    fn tolerant_parse_serves_certain_answers() {
        // Inconsistent start: p(a) lacks q(a). The strict parser
        // refuses it; the tolerant one serves repairs and certain
        // answers instead.
        let src = "p(a). p(b). q(b). constraint c: forall X: p(X) -> q(X).";
        assert!(ConcurrentDatabase::parse(src).is_err());
        let db = ConcurrentDatabase::parse_tolerant(src).unwrap();
        assert!(!db.snapshot().verified_consistent());
        let repairs = db.minimal_repairs().unwrap();
        assert_eq!(repairs.len(), 2, "{repairs:?}");
        let answers = read(&db, "p(X)", Consistency::Certain);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].value(0).unwrap().sym(), Sym::new("b"));
        // Derived predicates answer consistently too.
        let db = ConcurrentDatabase::parse_tolerant(
            "r(X) :- p(X). p(a). p(b). q(b). constraint c: forall X: p(X) -> q(X).",
        )
        .unwrap();
        let answers = read(&db, "r(X)", Consistency::Certain);
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].value(0).unwrap().sym(), Sym::new("b"));
    }

    #[test]
    fn consistent_answer_on_a_consistent_database_is_plain_answering() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        assert_eq!(db.minimal_repairs().unwrap().len(), 1);
        assert!(db.minimal_repairs().unwrap()[0].is_empty());
        assert_eq!(
            read(&db, "member(X, sales)", Consistency::Certain),
            read(&db, "member(X, sales)", Consistency::Latest)
        );
    }

    #[test]
    fn check_satisfiability_of_schema() {
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        assert!(db.check_satisfiability().outcome.is_satisfiable());
    }

    #[test]
    fn every_session_reports_into_the_obs_domain() {
        // Opened the way `examples/quickstart.rs` opens its reads: a
        // parsed database, queries prepared on their own (not through
        // the plan cache), a plain session.
        let db = ConcurrentDatabase::parse(ORG_MEMBERS).unwrap();
        let members = PreparedQuery::prepare_with_params("member(X, D)", &["D"]).unwrap();
        let session = db.session();
        let params = Params::new().bind("D", "sales");
        session
            .execute(&members, &params, Consistency::Latest)
            .unwrap();
        session
            .execute(&members, &params, Consistency::Certain)
            .unwrap();
        assert_eq!(counter(&db, "query.executes.latest"), 1);
        assert_eq!(counter(&db, "query.executes.certain"), 1);
        assert_eq!(execute_closes(&db), [Some("eval"), Some("consistent")]);
    }
}
