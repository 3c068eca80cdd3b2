//! What every guarded entry point of [`crate::ConcurrentDatabase`]
//! shares: its options, its error taxonomy, and the candidate and §4
//! gate of a guarded schema change, whichever part of the schema moves.

use crate::concurrent::TxnError;
use crate::query::QueryError;
use std::fmt;
use std::sync::Arc;
use uniform_analyze::{AnalyzeError, AnalyzeErrorKind, Diagnostic};
use uniform_datalog::{RuleSet, Schema};
use uniform_integrity::{CheckOptions, CheckReport, RuleUpdate};
use uniform_logic::{Constraint, LogicError};
use uniform_repair::{RepairError, RepairOptions, RepairSet, ViolationPolicy};
use uniform_satisfiability::{SatChecker, SatOptions, SatOutcome, SatReport};

/// Configuration of a [`crate::ConcurrentDatabase`].
#[derive(Clone, Debug, Default)]
pub struct UniformOptions {
    /// Options for update checking.
    pub check: CheckOptions,
    /// Options for satisfiability checking of schema changes.
    pub sat: SatOptions,
    /// Cost bounds for the repair engine behind `Certain` reads,
    /// [`crate::ConcurrentDatabase::minimal_repairs`] and the
    /// `Explain`/`AutoRepair` violation policies.
    pub repair: RepairOptions,
    /// What the commit pipeline does when a transaction's integrity
    /// check fails (see [`ViolationPolicy`]); overridable per commit
    /// via [`crate::ConcurrentDatabase::commit_with_policy`].
    pub violation_policy: ViolationPolicy,
}

/// Everything that can go wrong when talking to a
/// [`crate::ConcurrentDatabase`] outside the bare `begin`/`commit` pair
/// (which reports [`TxnError`]).
#[derive(Debug)]
pub enum UniformError {
    /// Parse / normalization / rule-safety error.
    Language(LogicError),
    /// The rule set stopped being stratifiable.
    Stratification(String),
    /// A fact update would violate constraints; the report lists them.
    UpdateRejected(Box<CheckReport>),
    /// The program's initial facts violate its constraints.
    InitialViolation(Vec<String>),
    /// The static analyzer refused the schema: at least one
    /// error-severity diagnostic (stable `UAxxxx` codes — an
    /// unsatisfiable constraint *set* above all, UA0301, or a §4 search
    /// that ran out of budget before it could tell, UA0304). Distinct from
    /// [`UniformError::CurrentlyViolated`]: a violated-but-satisfiable
    /// constraint is repairable, an analyzer-refused one admits no
    /// state at all, whatever the facts.
    Analyze(AnalyzeError),
    /// The new constraint is satisfiable but violated by the current
    /// database; `repair` carries the smallest minimal repair of the
    /// would-be state (insertions *and* deletions, found by the
    /// [`uniform_repair::RepairEngine`] — the same engine behind
    /// `minimal_repairs` and the `Explain`/`AutoRepair` policies), when
    /// one exists within the configured budgets.
    CurrentlyViolated {
        constraint: String,
        repair: Option<RepairSet>,
    },
    /// The repair engine could not produce a repair set (budget
    /// exhausted, or the state is unrepairable).
    Repair(RepairError),
    /// The typed read path refused (see [`QueryError`]); parse refusals
    /// are mapped onto [`UniformError::Language`] instead.
    Query(QueryError),
    /// A guarded fact update (`try_insert` and friends) failed in the
    /// commit pipeline for a reason other than a plain integrity
    /// rejection, which stays [`UniformError::UpdateRejected`]: a
    /// conflict with a concurrent writer, an arity misuse, a
    /// policy-driven repair refusal.
    Txn(TxnError),
}

impl fmt::Display for UniformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniformError::Language(e) => write!(f, "{e}"),
            UniformError::Stratification(e) => write!(f, "{e}"),
            UniformError::UpdateRejected(report) => {
                write!(f, "update rejected; violated: ")?;
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
            UniformError::InitialViolation(names) => {
                write!(f, "initial facts violate constraints: {}", names.join(", "))
            }
            UniformError::Analyze(e) => write!(f, "{e}"),
            UniformError::CurrentlyViolated { constraint, repair } => {
                write!(
                    f,
                    "constraint {constraint} is violated by the current database"
                )?;
                if let Some(repair) = repair {
                    write!(f, "; applying {repair} would enforce it")?;
                }
                Ok(())
            }
            UniformError::Repair(e) => write!(f, "{e}"),
            UniformError::Query(e) => write!(f, "{e}"),
            UniformError::Txn(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UniformError {}

impl From<LogicError> for UniformError {
    fn from(e: LogicError) -> Self {
        UniformError::Language(e)
    }
}

impl From<uniform_logic::ParseError> for UniformError {
    fn from(e: uniform_logic::ParseError) -> Self {
        UniformError::Language(LogicError::Parse(e))
    }
}

impl From<AnalyzeError> for UniformError {
    fn from(e: AnalyzeError) -> Self {
        UniformError::Analyze(e)
    }
}

impl From<TxnError> for UniformError {
    fn from(e: TxnError) -> Self {
        match e {
            TxnError::Rejected(report) => UniformError::UpdateRejected(report),
            other => UniformError::Txn(other),
        }
    }
}

/// One bounded §4 search over a schema's `rules` and `constraints`:
/// the gate of every guarded schema change, and
/// [`crate::ConcurrentDatabase::check_satisfiability`].
pub(crate) fn sat_search(
    rules: Arc<RuleSet>,
    constraints: Vec<Constraint>,
    sat: &SatOptions,
) -> SatReport {
    SatChecker::new(rules, constraints)
        .with_options(sat.clone())
        .check()
}

/// A guarded schema change: a rule added or removed (§3.2), or a
/// constraint added.
pub(crate) enum SchemaChange {
    Rule(RuleUpdate),
    Constraint(Constraint),
}

impl SchemaChange {
    /// This change's candidate over `schema`, through the §4 gate: the
    /// candidate schema's rules, or `Ok(None)` for a no-op (adding a
    /// present rule, removing an absent one, adding a constraint of the
    /// same name and normalized formula). Candidate rules that do not
    /// stratify are refused with [`UniformError::Stratification`], and a
    /// candidate schema in which one bounded search finds no model is
    /// refused as [`sat_refusal`] says. No analyzer runs and no lint is
    /// computed.
    pub(crate) fn gate(
        &self,
        schema: &Schema,
        sat: &SatOptions,
    ) -> Result<Option<Arc<RuleSet>>, UniformError> {
        let (rules, new) = match self {
            SchemaChange::Rule(update) => {
                let rules = (update.rules_after(schema.rules()))
                    .map_err(|e| UniformError::Stratification(e.to_string()))?;
                let Some(rules) = rules else { return Ok(None) };
                (Arc::new(rules), None)
            }
            SchemaChange::Constraint(new) => {
                let present = schema.constraints();
                if present.iter().any(|c| c.name == new.name && c.rq == new.rq) {
                    return Ok(None);
                }
                (Arc::clone(schema.rules_arc()), Some(new))
            }
        };
        let constraints: Vec<Constraint> =
            schema.constraints().iter().chain(new).cloned().collect();
        let n_constraints = constraints.len();
        sat_refusal(
            &sat_search(Arc::clone(&rules), constraints, sat).outcome,
            n_constraints,
        )?;
        Ok(Some(rules))
    }
}

/// The refusal of a §4 gate whose search over `n_constraints`
/// constraints ended in `outcome`: none when it found a model,
/// UA0301 ([`AnalyzeError::unsatisfiable_set`]) when it proved the set
/// unsatisfiable, UA0304 ([`budget_refusal`]) when it ran out of budget.
fn sat_refusal(outcome: &SatOutcome, n_constraints: usize) -> Result<(), UniformError> {
    match outcome {
        SatOutcome::Satisfiable { .. } => Ok(()),
        SatOutcome::Unsatisfiable => Err(UniformError::Analyze(AnalyzeError::unsatisfiable_set(
            n_constraints,
        ))),
        SatOutcome::Unknown { reason } => Err(budget_refusal(reason)),
    }
}

/// The refusal of a §4 gate whose bounded search ran out of budget:
/// [`UniformError::Analyze`] whose primary diagnostic is UA0304,
/// carrying the search's `Unknown` reason.
fn budget_refusal(reason: &str) -> UniformError {
    UniformError::Analyze(AnalyzeError::new(
        AnalyzeErrorKind::Rejected,
        vec![Diagnostic::satisfiability_unknown(reason)],
    ))
}

/// The typed read path's [`QueryError`] folded into this error
/// taxonomy: parse errors keep [`UniformError::Language`] (callers
/// match on it); everything else rides in [`UniformError::Query`].
impl From<QueryError> for UniformError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Parse(e) => UniformError::Language(LogicError::Parse(e)),
            QueryError::Normalize(e) => UniformError::Language(LogicError::Normalize(e)),
            other => UniformError::Query(other),
        }
    }
}
