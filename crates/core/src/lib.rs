//! # uniform
//!
//! The *uniform approach to constraint satisfaction and constraint
//! satisfiability in deductive databases* (Bry, Decker & Manthey, EDBT
//! 1988) as a library: one database type, [`ConcurrentDatabase`] — a
//! cheaply clonable handle over one commit queue, shared by any number
//! of readers and writers — that guards
//!
//! * **fact and rule updates** with the two-phase integrity-maintenance
//!   method (simplified instances of constraints relevant to the update
//!   and its potential consequences — never a full re-check; a rule
//!   change runs the same [`Checker`] phases, seeded from its head), and
//! * **constraint and rule updates** with the finite-satisfiability
//!   checker (model generation by constraint enforcement) — detecting
//!   schema changes that no database state could ever satisfy *before*
//!   they are admitted.
//!
//! ```
//! use uniform::ConcurrentDatabase;
//!
//! let db = ConcurrentDatabase::parse("
//!     member(X, Y) :- leads(X, Y).
//!     constraint led: forall X: department(X) ->
//!         (exists Y: employee(Y) & leads(Y, X)).
//!     employee(ann).
//!     department(sales).
//!     leads(ann, sales).
//! ").unwrap();
//!
//! // Guarded updates: this one removes the only leader of sales.
//! let err = db.try_delete("leads(ann, sales)").unwrap_err();
//! println!("rejected: {err}");
//! assert!(db.query("member(ann, sales)").unwrap());
//!
//! // Guarded constraint updates: this one is unsatisfiable together
//! // with `led` — every department needs a leader, yet leaders are
//! // forbidden.
//! let err = db
//!     .try_add_constraint("nobody", "forall X, Y: leads(X, Y) -> false")
//!     .unwrap_err();
//! println!("rejected: {err}");
//! ```
//!
//! Reads have one path: [`ConcurrentDatabase::prepare`] (or
//! `prepare_with_params` / `prepare_formula`) and [`Session::execute`]
//! at [`Consistency::Latest`] or [`Consistency::Certain`], answering
//! [`Rows`]; [`ConcurrentDatabase::query`] is sugar for a closed
//! formula. Counters are read by their registry names from
//! [`ConcurrentDatabase::obs_report`]. A §4 gate refuses a schema change
//! with [`UniformError::Analyze`]: UA0301 when the candidate is proven
//! unsatisfiable, UA0304 when its search ran out of budget.

pub mod certain_cache;
pub mod concurrent;
pub mod guard;
pub mod query;

pub use concurrent::{CommitOutcome, ConcurrentDatabase, TxnError};
pub use guard::{UniformError, UniformOptions};
pub use query::{Consistency, Params, PreparedQuery, QueryError, Row, Rows, Session, Value};

// Re-export the full stack for advanced use.
pub use uniform_analyze as analyze;
pub use uniform_datalog as datalog;
pub use uniform_integrity as integrity;
pub use uniform_logic as logic;
// The unified observability layer: metrics registry, structured spans
// and latency histograms shared by the whole commit/query/repair
// pipeline (see the README's "Observability" section).
pub use uniform_obs as obs;
pub use uniform_repair as repair;
pub use uniform_satisfiability as satisfiability;
// Seeded synthetic workload generators, so examples and downstream
// benchmarks need only the façade crate.
pub use uniform_workload as workload;

pub use uniform_analyze::{
    AnalyzeError, AnalyzeOptions, AnalyzedProgram, Analyzer, Code as AnalyzeCode, Diagnostic,
    SatAnalysis, SatClass, Severity,
};
pub use uniform_datalog::{
    ApplyError, CommitError, CommitQueue, CommitReceipt, ConflictGranularity, Database, FactSet,
    Model, ReadPattern, Snapshot, Transaction, TxnBuilder, Update,
};
pub use uniform_integrity::{
    CheckOptions, CheckReport, Checker, ConditionalUpdate, RuleUpdate, Violation,
};
pub use uniform_logic::{Constraint, Fact, Formula, Literal, Rq, Rule};
pub use uniform_obs::{
    Clock, Counter, Gauge, Hist, HistogramSnapshot, MetricsRegistry, NullClock, Obs, ObsReport,
    SpanEvent, SpanRecorder, WallClock, OBS_ENV,
};
pub use uniform_repair::{
    PreferredRepair, RepairBackend, RepairChooser, RepairEngine, RepairError, RepairOptions,
    RepairPreferences, RepairReport, RepairSet, ViolationPolicy,
};
pub use uniform_satisfiability::{SatChecker, SatOptions, SatOutcome, SatReport};
