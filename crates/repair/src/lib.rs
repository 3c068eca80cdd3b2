//! # uniform-repair
//!
//! Minimal repairs and consistent query answering — the *constructive*
//! use of the uniform approach (Bry, Decker & Manthey, EDBT 1988).
//!
//! The integrity-maintenance method of `uniform-integrity` tells a
//! writer *that* an update violates constraints; the satisfiability
//! search of `uniform-satisfiability` shows that the very same
//! enforcement machinery can *construct* states in which constraints
//! hold. This crate closes the loop for inconsistent states: given a
//! database whose constraints are violated, [`RepairEngine`] runs that
//! very procedure — the one kernel,
//! [`uniform_satisfiability::enforce`] — from the stored facts with a
//! second move set and keeps every leaf instead of the first. Beside the
//! insertions of the §4 model generation it may make a false atom true
//! through a rule body, delete a true one and falsify its remaining
//! derivations literal by literal (the completion semantics' only-if
//! direction), and falsify a range atom of a violating `∀`-instance; it
//! is offered no fresh constants (the move table is in the kernel's
//! module docs). The leaves are deltas restoring every constraint; the
//! **subset-minimal repair sets** among them are reported.
//!
//! On top of the repair enumeration sits consistent query answering in
//! the sense of Arenas–Bertossi–Chomicki (and the SAT-based CAvSAT
//! system of Dixit & Kolaitis): an answer is *certain* iff it holds in
//! **every** minimal repair. Candidate repairs are evaluated through
//! [`OverlayEngine`](uniform_datalog::OverlayEngine) overlays over the
//! state's model — the paper's `new(U, ·)` simulation — so no repaired
//! database is ever materialized.
//!
//! Repairs stay within the *active domain* (constants of the facts,
//! rules and constraints): no fresh constants are invented, matching
//! the convention of the CQA literature and making the search space
//! finite. The search is bounded by a fact budget
//! ([`RepairOptions::max_changes`]) and a branch limit
//! ([`RepairOptions::max_branches`]); blowing the branch limit is the
//! typed [`RepairError::BudgetExhausted`].
//!
//! The enforcement search is one of two backends. [`RepairBackend`]
//! selects between it and the CAvSAT-style SAT reduction of [`sat`] —
//! the repair space encoded as clauses over a bundled CDCL solver,
//! minimal repairs enumerated by iterated SAT with blocking clauses,
//! and *preference orders* (per-relation weights, protected relations,
//! any [`RepairChooser`]) answered as branch-and-bound weighted MaxSAT
//! via [`RepairEngine::preferred_repair`]. `RepairBackend::Auto` runs
//! the search and escalates to SAT exactly when the search cannot prove
//! it covered every minimal repair.
//!
//! `Auto`'s search splits the state into its independent parts when the
//! repair scope has a *part key*: one argument position per predicate
//! that every scope constraint's outermost `∀` variable occupies in each
//! of its atoms, and that every rule defining a reached predicate keeps
//! one variable at, head and body alike. No ground instance then mixes
//! two key constants, so the kernel runs once per violated part (in
//! key-constant name order, on that constant's facts over the whole
//! state's domain, the node budget shared) and the minimal repairs are
//! the product of the parts' ([`RepairStats::parts`] counts them).
//! `n` independent violations cost `n` small searches instead of one
//! tree over all of them. `RepairBackend::Search` always searches the
//! scope whole; it is the reference the split is tested against.
//!
//! Each repair is verified where it can matter
//! ([`RepairEngine::verifies`]): a whole-scope search's candidates on
//! the scope's constraints, a split search's per part, with the part's
//! key constant bound, before they enter the product — `n` parts cost
//! the sum of their repairs in verifications, not the product's size
//! ([`RepairStats::verified`]). The constraints left out hold by the
//! affected-closure partition and the part key, so nothing is verified
//! on the whole state but SAT's candidates;
//! [`RepairEngine::repair_restores_consistency`] is the whole-state
//! oracle the verdicts are tested against, and debug builds assert it
//! on every repair a search reports.
//!
//! ```
//! use uniform_datalog::Database;
//! use uniform_repair::RepairEngine;
//!
//! // p(a) holds but q(a) does not: the constraint is violated.
//! let db = Database::parse("
//!     p(a).
//!     constraint c: forall X: p(X) -> q(X).
//! ").unwrap();
//! let engine = RepairEngine::new(
//!     db.facts().clone(),
//!     db.rules().clone(),
//!     db.constraints().to_vec(),
//! );
//! let report = engine.repairs().unwrap();
//! // Two minimal repairs: insert q(a), or delete p(a).
//! assert_eq!(report.repairs.len(), 2);
//! assert!(report.complete);
//! ```

pub mod cqa;
pub mod engine;
pub mod sat;

pub use cqa::{certain_answers_bound, certainly_satisfies_bound};
pub use engine::{
    RepairBackend, RepairEngine, RepairError, RepairOptions, RepairReport, RepairSet, RepairStats,
};
pub use sat::{PreferredRepair, RepairChooser, RepairPreferences};

/// What a guarded commit pipeline does when a transaction's integrity
/// check fails. Consumed by `uniform::ConcurrentDatabase`; defined here
/// so every layer speaks the same policy language.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ViolationPolicy {
    /// Refuse the transaction (the classical guarded-update behavior).
    #[default]
    Reject,
    /// Refuse the transaction, but attach the minimal repair of the
    /// would-be state as a diagnostic: what the writer could have
    /// submitted instead.
    Explain,
    /// Fold the minimal repair's delta into the transaction and commit
    /// the combination: the repaired commit flows through conflict
    /// detection and incremental model maintenance like any other.
    AutoRepair,
}
