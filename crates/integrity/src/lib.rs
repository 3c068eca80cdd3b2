//! # uniform-integrity
//!
//! Integrity maintenance for deductive databases — part 1 of Bry, Decker &
//! Manthey, *A Uniform Approach to Constraint Satisfaction and Constraint
//! Satisfiability in Deductive Databases* (EDBT 1988).
//!
//! Given a database whose constraints hold and an update (single fact or
//! transaction), decide whether the constraints still hold afterwards —
//! evaluating only *simplified instances* of constraints *relevant* to the
//! update and to its *potential* consequences, never the full constraint
//! set:
//!
//! * [`relevance`] — Def. 2 and the precomputed occurrence index;
//! * [`simplify`] — Def. 3 simplified instances;
//! * [`potential`] — Def. 5 potential updates (fact-free closure);
//! * [`delta`] — §3.3.3 descendant-driven enumeration of induced updates
//!   (Def. 4);
//! * [`checker`] — Def. 6 update constraints and the two-phase method of
//!   Prop. 3: one compile phase and one evaluation loop, which every
//!   update kind below runs;
//! * [`cache`] — §3.3.1's precompilation: the compile phase memoised per
//!   schema over abstract transactions (constants the schema does not
//!   mention become placeholders), exact to the ground compile;
//! * [`conditional`] — conditional updates (update patterns guarded by a
//!   query; the BRY 87 generalization §3.2 closes with);
//! * [`rule_update`] — rule additions/removals checked incrementally,
//!   "treated like conditional updates" (§3.2), as
//!   [`Checker::check_rule_update`];
//! * [`baselines`] — full re-check, interleaved (Decker/Kowalski-style)
//!   and Lloyd–Topor-style methods the paper compares against; the
//!   Lloyd–Topor check is the checker's loop with another trigger
//!   source.
//!
//! ```
//! use uniform_datalog::{Database, Transaction, Update};
//! use uniform_integrity::Checker;
//! use uniform_logic::parse_literal;
//!
//! let mut db = Database::parse("
//!     q(a).
//!     constraint c1: forall X: p(X) -> q(X).
//! ").unwrap();
//! let ok = Update::from_literal(&parse_literal("p(a)").unwrap()).unwrap();
//! assert!(Checker::new(&db).check(&Transaction::single(ok.clone())).satisfied);
//! db.apply(&ok).unwrap();
//! let bad = Update::from_literal(&parse_literal("p(zzz)").unwrap()).unwrap();
//! let report = Checker::new(&db).check(&Transaction::single(bad));
//! assert!(!report.satisfied);
//! println!("rejected: {}", report.violations[0].constraint);
//! ```

pub mod baselines;
pub mod cache;
pub mod checker;
pub mod conditional;
pub mod delta;
pub mod potential;
pub mod relevance;
pub mod rule_update;
pub mod simplify;

pub use baselines::{full_recheck, interleaved_check, lloyd_topor_check, verdicts_agree};
pub use cache::CheckCache;
pub use checker::{
    CheckOptions, CheckReport, CheckStats, Checker, CompiledCheck, UpdateConstraint, Violation,
};
pub use conditional::ConditionalUpdate;
pub use delta::{induced_updates_by_diff, DeltaEngine, DeltaStats};
pub use potential::{direct_dependents, potential_updates, PotentialUpdates};
pub use relevance::{RelevanceIndex, RelevantOccurrence};
pub use rule_update::{check_rule_update, RuleUpdate};
pub use simplify::{simplified_instances, SimplifiedInstance};
