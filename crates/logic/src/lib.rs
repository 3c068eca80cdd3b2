//! # uniform-logic
//!
//! First-order logic kernel for the *uniform approach to constraint
//! satisfaction and constraint satisfiability in deductive databases*
//! (Bry, Decker & Manthey, EDBT 1988).
//!
//! This crate provides the language layer the whole system is built on:
//!
//! * interned [`Sym`]bols, function-free [`Term`]s, [`Atom`]s,
//!   [`Literal`]s and ground [`Fact`]s;
//! * [`Rule`]s with range-restriction validation and safe body ordering;
//! * general first-order [`Formula`]s with a Prolog-flavoured
//!   [`parser`] and the normalized restricted-quantification form
//!   [`Rq`] used for integrity constraints (§2 of the paper);
//! * [substitutions](Subst), [unification](unify), matching and
//!   [subsumption](subsume);
//! * a [naive semantics oracle](semantics) for cross-checking evaluators.
//!
//! Higher layers: `uniform-datalog` (storage and query evaluation),
//! `uniform-integrity` (constraint *satisfaction* checking),
//! `uniform-satisfiability` (constraint *satisfiability* checking) and
//! `uniform-core` (the user-facing façade).

pub mod error;
pub mod formula;
pub mod normalize;
pub mod parser;
pub mod rule;
pub mod semantics;
pub mod subst;
pub mod subsume;
pub mod symbol;
pub mod term;
pub mod unify;

pub use error::{LogicError, NormalizeError, ParseError, RuleError};
pub use formula::{Constraint, Formula, Rq, RqLiteral, RqPath, RqStep};
pub use normalize::{normalize, normalize_open, rq_to_formula};
pub use parser::{
    parse_fact, parse_formula, parse_literal, parse_program, parse_query, parse_rule,
    ProgramSource, Span,
};
pub use rule::Rule;
pub use subst::{Subst, SymHasher, SymState};
pub use subsume::{atom_subsumes, literal_subsumes, MinimalLiteralSet, PatternKey};
pub use symbol::{sort_by_name, Sym};
pub use term::{Atom, Fact, Literal, Term};
pub use unify::{
    match_atom, unify_atoms, unify_atoms_under, unify_literals, unify_terms, Renaming,
};
