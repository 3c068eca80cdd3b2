//! # uniform-datalog
//!
//! Deductive-database substrate for the *uniform approach* (Bry, Decker &
//! Manthey, EDBT 1988): everything below the integrity and satisfiability
//! layers.
//!
//! * [`store`] — per-predicate relations as chunked copy-on-write page
//!   tables ([`PAGE_CAP`]-slot leaves behind `Arc`s, routed by the
//!   persistent trie in [`pagemap`], which stores hashes and slots,
//!   not tuples) with per-column hash indexes from arity 2: snapshot
//!   clones bump refcounts, mutation copies one page;
//! * [`program`] — indexed rule sets with [`depgraph`] stratification;
//! * [`model`] — stratified semi-naive materialization of the canonical
//!   model (§2 semantics);
//! * [`cq`] / [`eval`] — conjunctive-query and restricted-quantification
//!   formula evaluation over any [`Interp`];
//! * [`magic`] — goal-directed bottom-up evaluation via magic-sets
//!   rewriting (the compilation counterpart of [`topdown`]; no query,
//!   commit or repair path reaches it);
//! * [`maintain`] — incremental maintenance of the materialized
//!   canonical model (induced updates as view deltas): one propagation
//!   kernel (semi-naive insertion, delete-and-rederive) settles every
//!   stratum, for the maintained model and for the checker's view of
//!   the updated state;
//! * [`planner`] — cost-based optimization of general formulas (§6
//!   future work: reordering and simplifying whole constraints, not
//!   just conjunctive queries);
//! * [`provenance`] — well-founded derivation trees answering *why* a
//!   fact is in the canonical model;
//! * [`topdown`] — the overlay engine simulating the updated database
//!   (`new`, §3.3.2), goal-directed for non-recursive predicates and
//!   reading recursion-reaching ones from the update's propagation
//!   over the model of the old state;
//! * [`update`] — single-fact updates (Def. 1) and transactions;
//! * [`txn`] — the concurrent commit pipeline: transactions staged
//!   against MVCC snapshots, admitted by a [`txn::CommitQueue`] with
//!   first-committer-wins conflict detection over key-fingerprint
//!   read/write footprints ([`footprint`]), falling back to
//!   whole-relation conflicts only for genuinely unbounded reads;
//! * [`database`] — the `D = (F, R, I)` triple with a cached model.

pub mod cq;
pub mod database;
pub mod depgraph;
pub mod eval;
pub mod footprint;
pub mod interp;
pub mod magic;
pub mod maintain;
pub mod model;
pub mod pagemap;
pub mod par;
pub mod patterns;
pub mod planner;
pub mod program;
pub mod provenance;
pub mod serialize;
pub mod store;
pub mod topdown;
pub mod txn;
pub mod update;

pub use cq::{
    all_solutions, extend_match, provable, solve_conjunction, solve_conjunction_without,
    solve_planned,
};
pub use database::{validate_transaction_arities, ApplyError, Database, Schema, Snapshot};
pub use depgraph::{DepGraph, StratificationError};
pub use eval::{satisfies, satisfies_closed, Lowered};
pub use footprint::{ConflictGranularity, KeyFp, ReadFootprint, ReadPattern, RelAccess};
pub use interp::{Interp, Overlay};
pub use magic::{answer_goal_magic, MagicAnswers, MagicError};
pub use maintain::{Hypothetical, MaintainStats, MaintainedModel, Propagation, PropagationStats};
pub use model::Model;
pub use patterns::{
    sort_read_patterns, PatternSpecializer, PatternTemplates, MAX_PATTERNS_PER_PRED,
};
pub use planner::{optimize_rq, Cardinality, ConjunctionPlan, FixedStats, Planner};
pub use program::{BodyOccurrence, RuleSet};
pub use provenance::{Derivation, Provenance};
pub use serialize::to_program_source;
pub use store::{CowStats, FactSet, Relation, COMPACT_FLOOR, PAGE_CAP};
pub use topdown::OverlayEngine;
pub use txn::{CommitError, CommitQueue, CommitReceipt, TxnBuilder};
pub use update::{Transaction, Update};
