//! # uniform-satisfiability
//!
//! Constraint *satisfiability* checking — part 2 of Bry, Decker & Manthey
//! (EDBT 1988): given rules and constraints, decide whether a **finite
//! model** exists at all, by constructing a sample fact base through
//! constraint enforcement, with the violated-constraint determination
//! powered by the integrity-maintenance machinery of `uniform-integrity`.
//!
//! * [`enforce`] — the one enforcement kernel: violation determination
//!   and enforcement over every alternative, level by level, with the
//!   moves on offer, the limits and the leaf callback left to the
//!   caller. Two callers, two move sets (the table in the module docs):
//!   the §4 search here, and the repair search of `uniform-repair`;
//! * [`search`] — [`SatChecker`]: the kernel with the §4 move set under
//!   iterative deepening over fresh-constant budgets, stopped at its
//!   first leaf;
//! * [`completion`] — the §4 rule-completion transform;
//! * [`solver`] — a bundled propositional CDCL solver behind a
//!   pluggable [`Solver`] trait (the engine of the SAT-backed repair
//!   path in `uniform-repair`);
//! * [`problems`] — the worked example of §5 and a benchmark library
//!   (Schubert's steamroller, pigeonhole, graph coloring, dependency
//!   sets, axioms of infinity).
//!
//! ```
//! use uniform_satisfiability::{SatChecker, SatOutcome};
//! use uniform_datalog::Database;
//!
//! let db = Database::parse("
//!     constraint some: exists X: employee(X).
//!     constraint sane: forall X: employee(X) -> person(X).
//! ").unwrap();
//! let report = SatChecker::from_database(&db).check();
//! assert!(report.outcome.is_satisfiable());
//! ```

pub mod completion;
pub mod enforce;
pub mod problems;
pub mod search;
pub mod solver;

pub use completion::{completion_constraint, completion_constraints};
pub use problems::{Expectation, Problem};
pub use search::{SatChecker, SatOptions, SatOutcome, SatReport, SatStats};
pub use solver::{
    Assignment, CdclSolver, Cnf, Lit, SanityCheckingSolver, SolveResult, Solver, SolverStats,
};
