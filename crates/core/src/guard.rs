//! What every guarded entry point of [`crate::ConcurrentDatabase`]
//! shares: its options, its error taxonomy and the two schema-change
//! gates of the paper's §4.

use crate::concurrent::TxnError;
use crate::query::QueryError;
use std::fmt;
use uniform_analyze::{
    AnalyzeError, AnalyzeErrorKind, AnalyzeOptions, Analyzer, Diagnostic, SatClass,
};
use uniform_datalog::{Database, RuleSet};
use uniform_integrity::{CheckOptions, CheckReport, Checker, RuleUpdate};
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

/// The schema-satisfiability gate of
/// [`crate::ConcurrentDatabase::try_add_constraint`]: classify the candidate constraint set
/// against `rules` with the analyzer in gate mode (one bounded search —
/// the cost of the pre-analyzer `SatChecker` call). A proven-impossible
/// set is refused with the typed [`AnalyzeError`] (UA0301), an
/// exhausted search with UA0304 (see [`budget_refusal`]).
pub(crate) fn refuse_unsatisfiable_candidate(
    rules: &RuleSet,
    candidate: Vec<Constraint>,
    sat: &SatOptions,
) -> Result<(), UniformError> {
    let analyzed = Analyzer::new(rules.clone(), candidate)
        .with_options(AnalyzeOptions::gate(sat.clone()))
        .analyze();
    match analyzed.set_class() {
        SatClass::Unsatisfiable => {
            Err(UniformError::Analyze(analyzed.refusal().expect(
                "an unsatisfiable set always carries an error diagnostic",
            )))
        }
        SatClass::Unknown => {
            let report = analyzed.sat().set_report.as_ref();
            let Some(SatOutcome::Unknown { reason }) = report.map(|r| &r.outcome) else {
                unreachable!("unknown class comes from the set search")
            };
            Err(budget_refusal(reason))
        }
        SatClass::Tautological | SatClass::Contingent => Ok(()),
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

/// The guarded rule-update protocol, run under the commit-queue lock by
/// [`crate::ConcurrentDatabase::try_add_rule`] / `try_remove_rule`:
/// compile the update (stratification), check schema satisfiability
/// with the candidate rule set, evaluate the incremental integrity
/// check, and only then install. Returns whether the rule set actually
/// changed.
///
/// `presat` is a satisfiability verdict computed *optimistically
/// outside the caller's lock* for exactly this update's candidate rule
/// set and the database's current constraints; the caller revalidates
/// that the schema has not changed since. With `None` the search runs
/// here.
pub(crate) fn guarded_rule_update(
    db: &mut Database,
    options: &UniformOptions,
    update: RuleUpdate,
    presat: Option<&SatReport>,
) -> Result<bool, UniformError> {
    let checker = Checker::new(db).with_options(options.check);
    let compiled = checker
        .compile_rule_update(&update)
        .map_err(|e| UniformError::Stratification(e.to_string()))?;
    let Some(rule_set) = compiled.rules_after.clone() else {
        return Ok(false); // no-op: rule already present / absent
    };

    let computed;
    let sat = match presat {
        Some(report) => report,
        None => {
            computed = SatChecker::new(rule_set.clone(), db.constraints().to_vec())
                .with_options(options.sat.clone())
                .check();
            &computed
        }
    };
    // A *proven* unsatisfiable candidate schema is a static refusal —
    // the same UA0301 verdict the analyzer reaches — and an exhausted
    // search is refused with UA0304, as the constraint gate does.
    match &sat.outcome {
        SatOutcome::Satisfiable { .. } => {}
        SatOutcome::Unsatisfiable => {
            return Err(UniformError::Analyze(AnalyzeError::unsatisfiable_set(
                db.constraints().len(),
            )))
        }
        SatOutcome::Unknown { reason } => return Err(budget_refusal(reason)),
    }

    let report = checker.evaluate_rule_update(&compiled);
    if !report.satisfied {
        return Err(UniformError::UpdateRejected(Box::new(report)));
    }
    // Stratification, satisfiability and a complete incremental check
    // all passed: the induction step that carries the consistency latch.
    if report.proves_consistency() {
        db.preserving_consistency(|db| db.set_rules(rule_set));
    } else {
        db.set_rules(rule_set);
    }
    Ok(true)
}
