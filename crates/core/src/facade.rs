//! The high-level façade: a deductive database whose every mutation is
//! guarded by the appropriate checker of the paper.

use crate::query::{Consistency, Params, PreparedQuery, QueryError, Session};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use uniform_analyze::{AnalyzeError, AnalyzeOptions, AnalyzedProgram, Analyzer, SatClass};
use uniform_datalog::{Database, Model, RuleSet, Transaction, TxnBuilder, Update};
use uniform_integrity::{
    CheckOptions, CheckReport, Checker, ConditionalUpdate, RuleUpdate, RuleUpdateChecker,
};
use uniform_logic::{
    normalize, parse_fact, parse_formula, parse_literal, parse_rule, Constraint, Fact, LogicError,
    Rule, Sym,
};
use uniform_repair::{RepairEngine, RepairError, RepairOptions, RepairSet, ViolationPolicy};
use uniform_satisfiability::{SatChecker, SatOptions, SatOutcome, SatReport};

/// Configuration of the façade.
#[derive(Clone, Debug)]
pub struct UniformOptions {
    /// Options for update checking.
    pub check: CheckOptions,
    /// Options for satisfiability checking of schema changes.
    pub sat: SatOptions,
    /// Skip the satisfiability check when adding constraints/rules
    /// (current-state checking still applies).
    pub skip_satisfiability: bool,
    /// Maintain the canonical model incrementally through the concurrent
    /// commit pipeline (see [`crate::ConcurrentDatabase`]): each admitted
    /// commit's net effect flips the queue's maintained model forward, so
    /// post-commit snapshots never rematerialize. Disable to reproduce
    /// the invalidate-on-commit behavior (every post-commit snapshot
    /// recomputes the model from scratch).
    pub maintain_model: bool,
    /// Cost bounds for the repair engine behind
    /// [`UniformDatabase::consistent_answer`] / `minimal_repairs` and
    /// the `Explain`/`AutoRepair` violation policies.
    pub repair: RepairOptions,
    /// What the concurrent commit pipeline does when a transaction's
    /// integrity check fails (see [`ViolationPolicy`]); overridable
    /// per commit via [`crate::ConcurrentDatabase::commit_with_policy`].
    pub violation_policy: ViolationPolicy,
}

impl Default for UniformOptions {
    fn default() -> UniformOptions {
        UniformOptions {
            check: CheckOptions::default(),
            sat: SatOptions::default(),
            skip_satisfiability: false,
            maintain_model: true,
            repair: RepairOptions::default(),
            violation_policy: ViolationPolicy::Reject,
        }
    }
}

/// Everything that can go wrong when talking to a [`UniformDatabase`].
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
    /// A new constraint or rule makes the schema unsatisfiable (or the
    /// checker could not find a model within its budget).
    Unsatisfiable(Box<SatReport>),
    /// The static analyzer refused the schema: at least one
    /// error-severity diagnostic (stable `UAxxxx` codes — an
    /// unsatisfiable constraint *set* above all, UA0301). Distinct from
    /// [`UniformError::CurrentlyViolated`]: a violated-but-satisfiable
    /// constraint is repairable, an analyzer-refused one admits no
    /// state at all, whatever the facts.
    Analyze(AnalyzeError),
    /// The new constraint is satisfiable but violated by the current
    /// database; `repair` carries the smallest minimal repair of the
    /// would-be state (insertions *and* deletions, found by the
    /// [`RepairEngine`] — the same engine behind `minimal_repairs` and
    /// the `Explain`/`AutoRepair` policies), when one exists within the
    /// configured budgets.
    CurrentlyViolated {
        constraint: String,
        repair: Option<RepairSet>,
    },
    /// The repair engine could not produce a repair set (budget
    /// exhausted, or the state is unrepairable).
    Repair(RepairError),
    /// The typed read path refused (see [`QueryError`]); parse and
    /// repair-budget refusals are mapped onto the older
    /// [`UniformError::Language`] / [`UniformError::Repair`] variants
    /// instead, so this carries only the genuinely new cases.
    Query(QueryError),
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
            UniformError::Unsatisfiable(report) => match &report.outcome {
                SatOutcome::Unsatisfiable => write!(
                    f,
                    "constraints and rules are unsatisfiable: no database state could ever satisfy them"
                ),
                SatOutcome::Unknown { reason } => {
                    write!(f, "satisfiability could not be established: {reason}")
                }
                SatOutcome::Satisfiable { .. } => write!(f, "internal: satisfiable reported as error"),
            },
            UniformError::Analyze(e) => write!(f, "{e}"),
            UniformError::CurrentlyViolated { constraint, repair } => {
                write!(f, "constraint {constraint} is violated by the current database")?;
                if let Some(repair) = repair {
                    write!(f, "; applying {repair} would enforce it")?;
                }
                Ok(())
            }
            UniformError::Repair(e) => write!(f, "{e}"),
            UniformError::Query(e) => write!(f, "{e}"),
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

/// The schema-satisfiability gate shared by [`UniformDatabase`] and
/// [`crate::ConcurrentDatabase`]: classify the candidate constraint set
/// against `rules` with the analyzer in gate mode (one bounded search —
/// the cost of the pre-analyzer `SatChecker` call). A proven-impossible
/// set is refused with the typed [`AnalyzeError`] (UA0301); an
/// exhausted search keeps the legacy [`UniformError::Unsatisfiable`]
/// refusal, whose report carries the search's reason and stats.
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
            let report = analyzed
                .sat()
                .set_report
                .clone()
                .expect("unknown class comes from the set search");
            Err(UniformError::Unsatisfiable(Box::new(report)))
        }
        SatClass::Tautological | SatClass::Contingent => Ok(()),
    }
}

/// The shim mapping: the typed read path's [`QueryError`] folded into
/// the façade's error taxonomy. Parse errors and repair-budget
/// refusals keep their historical variants (callers match on them);
/// everything genuinely new rides in [`UniformError::Query`].
impl From<QueryError> for UniformError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Parse(e) => UniformError::Language(LogicError::Parse(e)),
            QueryError::Normalize(e) => UniformError::Language(LogicError::Normalize(e)),
            QueryError::Budget(e) => UniformError::Repair(e),
            other => UniformError::Query(other),
        }
    }
}

/// The guarded rule-update protocol shared by the single-owner façade
/// and the concurrent pipeline ([`crate::ConcurrentDatabase`], which
/// runs it under the commit-queue lock): compile the update
/// (stratification), check schema satisfiability with the candidate
/// rule set, evaluate the incremental integrity check, and only then
/// install. One implementation so the two paths cannot drift apart.
/// Returns whether the rule set actually changed.
pub(crate) fn guarded_rule_update(
    db: &mut Database,
    options: &UniformOptions,
    update: RuleUpdate,
) -> Result<bool, UniformError> {
    guarded_rule_update_presat(db, options, update, None)
}

/// Like [`guarded_rule_update`], but accepting a satisfiability verdict
/// computed *optimistically outside the caller's lock* for exactly this
/// update's candidate rule set and the database's current constraints.
/// The caller is responsible for revalidating that rules and
/// constraints have not moved since the verdict was computed (see
/// [`crate::ConcurrentDatabase::try_add_rule`]); with `None`, the
/// search runs here as before.
pub(crate) fn guarded_rule_update_presat(
    db: &mut Database,
    options: &UniformOptions,
    update: RuleUpdate,
    presat: Option<&SatReport>,
) -> Result<bool, UniformError> {
    let checker = RuleUpdateChecker::with_options(db, options.check);
    let compiled = checker
        .compile(&update)
        .map_err(|e| UniformError::Stratification(e.to_string()))?;
    let Some(rule_set) = compiled.rules_after.clone() else {
        return Ok(false); // no-op: rule already present / absent
    };

    if !options.skip_satisfiability {
        let computed;
        let report = match presat {
            Some(report) => report,
            None => {
                computed = SatChecker::new(rule_set.clone(), db.constraints().to_vec())
                    .with_options(options.sat.clone())
                    .check();
                &computed
            }
        };
        if !report.outcome.is_satisfiable() {
            // A *proven* unsatisfiable candidate schema is a static
            // refusal — the same UA0301 verdict the analyzer reaches —
            // while an exhausted search keeps the legacy report-carrying
            // error so callers can inspect the budget that ran out.
            return Err(match report.outcome {
                SatOutcome::Unsatisfiable => {
                    UniformError::Analyze(AnalyzeError::unsatisfiable_set(db.constraints().len()))
                }
                _ => UniformError::Unsatisfiable(Box::new(report.clone())),
            });
        }
    }

    let report = checker.evaluate(&compiled);
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

/// One cached [`AnalyzedProgram`] keyed by `(rule_rev, constraint_rev)`
/// — the single-entry schema-analysis cache shared in shape by
/// [`UniformDatabase`] and [`crate::ConcurrentDatabase`].
pub(crate) type AnalyzedSlot = Mutex<Option<((u64, u64), Arc<AnalyzedProgram>)>>;

/// A deductive database with guarded updates — the paper's two methods
/// behind one API.
pub struct UniformDatabase {
    db: Database,
    options: UniformOptions,
    /// The cached static analysis of the registered program, keyed by
    /// `(rule_rev, constraint_rev)` — schema mutations change the key,
    /// so stale entries are simply never served (see
    /// [`UniformDatabase::analyze`]).
    analyzed: AnalyzedSlot,
}

impl UniformDatabase {
    /// An empty database.
    pub fn new() -> UniformDatabase {
        UniformDatabase {
            db: Database::new(),
            options: UniformOptions::default(),
            analyzed: Mutex::new(None),
        }
    }

    /// Parse a program (facts, rules, constraints). Fails if the initial
    /// facts violate the constraints — the integrity-maintenance method
    /// requires a consistent starting point.
    pub fn parse(src: &str) -> Result<UniformDatabase, UniformError> {
        let db = Database::parse(src)?;
        let violated = db.violated_constraints();
        if !violated.is_empty() {
            return Err(UniformError::InitialViolation(violated));
        }
        Ok(UniformDatabase {
            db,
            options: UniformOptions::default(),
            analyzed: Mutex::new(None),
        })
    }

    /// Parse a program *without* requiring the initial facts to satisfy
    /// the constraints — the entry point for inconsistency-tolerant
    /// serving. Guarded updates assume a consistent starting state (the
    /// incremental method's precondition), so on a tolerant database
    /// the intended operations are [`UniformDatabase::minimal_repairs`]
    /// and [`UniformDatabase::consistent_answer`]. To *write* the state
    /// back to consistency, apply a chosen repair explicitly (e.g.
    /// `minimal_repairs()?[0].to_transaction()` through the raw
    /// database) — note that [`ViolationPolicy::AutoRepair`] repairs
    /// only transactions whose own check fails, not pre-existing
    /// inconsistency that a non-violating commit leaves untouched.
    pub fn parse_tolerant(src: &str) -> Result<UniformDatabase, UniformError> {
        Ok(UniformDatabase {
            db: Database::parse(src)?,
            options: UniformOptions::default(),
            analyzed: Mutex::new(None),
        })
    }

    pub fn with_options(mut self, options: UniformOptions) -> UniformDatabase {
        self.options = options;
        self
    }

    fn repair_engine(&self) -> RepairEngine {
        RepairEngine::new(
            self.db.facts().clone(),
            self.db.rules().clone(),
            self.db.constraints().to_vec(),
        )
        .with_options(self.options.repair)
    }

    /// The subset-minimal repairs of the current state: smallest EDB
    /// insert/delete sets whose application satisfies every constraint.
    /// A consistent state reports the single empty repair. Bounded by
    /// [`UniformOptions::repair`].
    pub fn minimal_repairs(&self) -> Result<Vec<RepairSet>, UniformError> {
        Ok(self
            .repair_engine()
            .repairs()
            .map_err(UniformError::Repair)?
            .repairs)
    }

    /// Consistent (certain) answers of a conjunctive query: the answers
    /// true in **every** minimal repair of the current state, evaluated
    /// via overlay simulation — no repaired database is materialized.
    /// On a consistent database this coincides with
    /// [`UniformDatabase::solutions`]. A thin shim over the prepared
    /// read path ([`UniformDatabase::session`] at
    /// [`Consistency::Certain`]); prepare the query yourself to stop
    /// paying parse + plan per call.
    pub fn consistent_answer(&self, query: &str) -> Result<Vec<Vec<(Sym, Sym)>>, UniformError> {
        let prepared = PreparedQuery::prepare(query)?;
        Ok(self
            .session()
            .execute(&prepared, &Params::new(), Consistency::Certain)?
            .bindings())
    }

    /// Open a read session pinned to a snapshot of the current state —
    /// the entry point of the typed read path (see [`Session`] and
    /// [`PreparedQuery`]). Guarded updates through `self` keep
    /// committing; the session's answers stay put.
    pub fn session(&self) -> Session {
        Session::new(self.db.snapshot(), self.options.repair)
    }

    /// The underlying database (read-only).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The static analysis of the registered program (see
    /// [`uniform_analyze`]): lints with stable `UAxxxx` codes,
    /// per-constraint predicate closures, the dependency graph and
    /// read-pattern templates, plus the lazy UA03xx satisfiability
    /// classification. Cached keyed by `(rule_rev, constraint_rev)` —
    /// repeated calls between schema changes are free. Declared
    /// relations are sampled when the entry is built, so fact-dependent
    /// lints (UA0101 against relations, UA0201) reflect the relations
    /// existing at that moment; the closure/template/satisfiability
    /// artifacts depend only on the schema and are always exact.
    pub fn analyze(&self) -> Arc<AnalyzedProgram> {
        let key = (self.db.rule_rev(), self.db.constraint_rev());
        let mut cached = self.analyzed.lock();
        if let Some((k, analyzed)) = cached.as_ref() {
            if *k == key {
                return analyzed.clone();
            }
        }
        let analyzed = Arc::new(
            Analyzer::of_database(&self.db)
                .with_options(AnalyzeOptions {
                    sat: self.options.sat.clone(),
                    ..AnalyzeOptions::default()
                })
                .analyze(),
        );
        *cached = Some((key, analyzed.clone()));
        analyzed
    }

    /// Tear down the façade into its parts (used by
    /// [`crate::ConcurrentDatabase`] to move the database behind a
    /// shared commit queue).
    pub(crate) fn into_parts(self) -> (Database, UniformOptions) {
        (self.db, self.options)
    }

    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.db.facts().iter()
    }

    pub fn constraints(&self) -> &[Constraint] {
        self.db.constraints()
    }

    pub fn model(&self) -> std::sync::Arc<Model> {
        self.db.model()
    }

    /// An immutable, `Send + Sync` read handle on the current state (see
    /// [`uniform_datalog::Snapshot`]): O(#relations) to take, stable
    /// answers while guarded updates keep committing to `self`. Hand one
    /// to each concurrent reader; take a fresh one to observe later
    /// commits.
    pub fn snapshot(&self) -> uniform_datalog::Snapshot {
        self.db.snapshot()
    }

    // ---- guarded fact updates -------------------------------------------

    /// Check a transaction without applying it.
    pub fn check(&self, tx: &Transaction) -> CheckReport {
        Checker::with_options(&self.db, self.options.check).check(tx)
    }

    /// Typed arity validation shared by every guarded fact-update path
    /// (delegates to the single datalog-level rule set, which also
    /// catches intra-transaction mismatches on fresh predicates).
    fn validate_arities(&self, tx: &Transaction) -> Result<(), UniformError> {
        uniform_datalog::database::validate_transaction_arities(
            |pred| self.db.arity_of(pred),
            &tx.updates,
        )
        .map_err(|e| {
            UniformError::Language(LogicError::Parse(uniform_logic::ParseError {
                line: 1,
                col: 1,
                message: e.to_string(),
            }))
        })
    }

    /// Apply a transaction iff it preserves integrity.
    pub fn try_apply(&mut self, tx: &Transaction) -> Result<CheckReport, UniformError> {
        self.validate_arities(tx)?;
        let report = self.check(tx);
        self.apply_checked(tx, report)
    }

    /// The tail of every guarded fact-update path: apply `tx` iff its
    /// check was satisfied. A complete satisfied check is the induction
    /// step, so the consistency latch is carried across; a truncated one
    /// ([`CheckReport::truncated`]) applies as a raw edit.
    fn apply_checked(
        &mut self,
        tx: &Transaction,
        report: CheckReport,
    ) -> Result<CheckReport, UniformError> {
        if !report.satisfied {
            return Err(UniformError::UpdateRejected(Box::new(report)));
        }
        let apply = |db: &mut Database| {
            for u in &tx.updates {
                db.apply(u).expect("arities validated above");
            }
        };
        if report.proves_consistency() {
            self.db.preserving_consistency(apply);
        } else {
            apply(&mut self.db);
        }
        Ok(report)
    }

    // ---- optimistic transactions ----------------------------------------

    /// Open a transaction: a [`TxnBuilder`] staging updates against a
    /// snapshot of the current state. Check-and-commit it later with
    /// [`UniformDatabase::commit`]; for multi-writer pipelines see
    /// [`crate::ConcurrentDatabase`].
    pub fn begin(&self) -> TxnBuilder {
        self.db.begin()
    }

    /// Commit a transaction opened with [`UniformDatabase::begin`],
    /// guarded by the integrity checker. When the database is unchanged
    /// since `begin` the check runs against the pinned snapshot (the
    /// concurrent pipeline's path); if this handle committed something
    /// in between, the transaction is transparently re-checked against
    /// the current state — with `&mut self` there are no other writers,
    /// so a conflict abort would be pure friction.
    pub fn commit(&mut self, txn: &TxnBuilder) -> Result<CheckReport, UniformError> {
        let tx = txn.transaction();
        self.validate_arities(&tx)?;
        if txn.begin_version() != self.db.version() {
            return self.try_apply(&tx);
        }
        let report =
            Checker::for_snapshot_with_options(txn.snapshot(), self.options.check).check(&tx);
        self.apply_checked(&tx, report)
    }

    /// Insert one fact (parsed), guarded.
    pub fn try_insert(&mut self, fact: &str) -> Result<CheckReport, UniformError> {
        let f = parse_fact(fact)?;
        self.try_apply(&Transaction::single(Update::insert(f)))
    }

    /// Delete one fact (parsed), guarded.
    pub fn try_delete(&mut self, fact: &str) -> Result<CheckReport, UniformError> {
        let f = parse_fact(fact)?;
        self.try_apply(&Transaction::single(Update::delete(f)))
    }

    /// Apply a conditional update (BRY 87; §3.2), e.g.
    /// `"not enrolled(X, cs) where enrolled(X, cs), failed(X)"`: the
    /// condition is evaluated against the canonical model, the update
    /// pattern is instantiated per answer, and the resulting transaction
    /// is applied iff it preserves integrity.
    pub fn try_apply_where(&mut self, src: &str) -> Result<CheckReport, UniformError> {
        let cu = ConditionalUpdate::parse(src).map_err(UniformError::Language)?;
        let (report, tx) = {
            let checker = Checker::with_options(&self.db, self.options.check);
            let compiled = checker.compile_conditional(&cu);
            let tx = checker.expand_conditional(&cu);
            (checker.evaluate(&compiled, &tx), tx)
        };
        if report.satisfied {
            self.validate_arities(&tx)?;
        }
        self.apply_checked(&tx, report)
    }

    /// Apply a transaction given as `;`-free list of literal sources,
    /// e.g. `["student(jack)", "not enrolled(jack, cs)"]`.
    pub fn try_update_all(&mut self, literals: &[&str]) -> Result<CheckReport, UniformError> {
        let mut updates = Vec::with_capacity(literals.len());
        for l in literals {
            let lit = parse_literal(l)?;
            let upd = Update::from_literal(&lit).ok_or_else(|| {
                UniformError::Language(LogicError::Parse(uniform_logic::ParseError {
                    line: 1,
                    col: 1,
                    message: format!("update `{l}` is not ground"),
                }))
            })?;
            updates.push(upd);
        }
        self.try_apply(&Transaction::new(updates))
    }

    // ---- guarded schema updates ------------------------------------------

    /// Satisfiability of the current rules + constraints (+ an optional
    /// extra constraint).
    fn satisfiability_with(&self, extra: Option<&Constraint>) -> SatReport {
        let mut constraints = self.db.constraints().to_vec();
        if let Some(c) = extra {
            constraints.push(c.clone());
        }
        SatChecker::new(self.db.rules().clone(), constraints)
            .with_options(self.options.sat.clone())
            .check()
    }

    /// Check finite satisfiability of the current schema.
    pub fn check_satisfiability(&self) -> SatReport {
        self.satisfiability_with(None)
    }

    /// Add a constraint, guarded twice: first the schema-level
    /// satisfiability check (§4 — incompatible constraints are rejected
    /// no matter what the facts say, through the static analyzer's gate
    /// mode: a proven-impossible set is refused with the typed
    /// [`AnalyzeError`] and its UA0301 diagnostic), then the
    /// current-state check. When
    /// the current state violates the new constraint, the error carries
    /// the smallest minimal repair of the would-be state, computed by
    /// the [`RepairEngine`] — the same engine behind
    /// [`UniformDatabase::minimal_repairs`], so the suggestion never
    /// disagrees with the repair surface.
    pub fn try_add_constraint(&mut self, name: &str, formula: &str) -> Result<(), UniformError> {
        let f = parse_formula(formula)?;
        let rq = normalize(&f).map_err(LogicError::Normalize)?;
        let constraint = Constraint::new(name, rq);

        if !self.options.skip_satisfiability {
            let mut candidate = self.db.constraints().to_vec();
            candidate.push(constraint.clone());
            refuse_unsatisfiable_candidate(self.db.rules(), candidate, &self.options.sat)?;
        }

        if !self.db.satisfies(&constraint.rq) {
            let mut constraints = self.db.constraints().to_vec();
            constraints.push(constraint);
            let engine = RepairEngine::new(
                self.db.facts().clone(),
                self.db.rules().clone(),
                constraints,
            )
            .with_options(self.options.repair);
            let repair = engine.repairs().ok().map(|report| report.best().clone());
            return Err(UniformError::CurrentlyViolated {
                constraint: name.to_string(),
                repair,
            });
        }

        // The old constraints held if the latch says so, the new one
        // was just evaluated: the step preserves the latch.
        self.db
            .preserving_consistency(|db| db.add_constraint(constraint));
        Ok(())
    }

    /// Add a rule, guarded three ways: stratification, schema
    /// satisfiability with the new rule, and the *incremental*
    /// integrity check of a rule update treated like a conditional
    /// update (§3.2) — only constraints relevant to literals the new
    /// rule can reach are evaluated, never the full constraint set.
    pub fn try_add_rule(&mut self, rule: &str) -> Result<(), UniformError> {
        let r: Rule = parse_rule(rule)?;
        self.apply_rule_update(RuleUpdate::Add(r)).map(|_| ())
    }

    /// Remove a constraint by name. Always safe (removing a constraint
    /// can only enlarge the set of acceptable states). Returns `false`
    /// if no constraint with that name exists.
    pub fn remove_constraint(&mut self, name: &str) -> bool {
        let before = self.db.constraints().len();
        let remaining: Vec<Constraint> = self
            .db
            .constraints()
            .iter()
            .filter(|c| c.name != name)
            .cloned()
            .collect();
        let removed = remaining.len() < before;
        if removed {
            // Fewer constraints cannot un-satisfy a state.
            self.db
                .preserving_consistency(|db| db.set_constraints(remaining));
        }
        removed
    }

    /// Remove a rule (given in source syntax), guarded: dropping a rule
    /// removes derived facts, which can violate constraints with positive
    /// occurrences of the derived predicate. Checked incrementally like
    /// a conditional deletion of the rule's head (§3.2). Returns `false`
    /// if no such rule exists.
    pub fn try_remove_rule(&mut self, rule: &str) -> Result<bool, UniformError> {
        let target: Rule = parse_rule(rule)?;
        self.apply_rule_update(RuleUpdate::Remove(target))
    }

    /// Shared implementation of guarded rule addition/removal. Returns
    /// whether the rule set actually changed.
    fn apply_rule_update(&mut self, update: RuleUpdate) -> Result<bool, UniformError> {
        guarded_rule_update(&mut self.db, &self.options, update)
    }

    /// Serialize the database back to its surface syntax (round-trips
    /// through [`UniformDatabase::parse`]).
    pub fn to_program_source(&self) -> String {
        uniform_datalog::to_program_source(&self.db)
    }

    // ---- queries -----------------------------------------------------------

    /// Why is `fact` true? Renders a well-founded derivation tree
    /// (explicit facts, rule applications, absences justifying negative
    /// premises), or `None` when the fact is not in the canonical model.
    pub fn explain(&self, fact: &str) -> Result<Option<String>, UniformError> {
        let f = parse_fact(fact)?;
        let prov = uniform_datalog::Provenance::build(self.db.facts(), self.db.rules());
        Ok(prov.explain(&f).map(|d| d.to_string()))
    }

    /// Evaluate a closed formula against the canonical model — a shim
    /// over the prepared read path (parse + plan per call; prepare the
    /// formula yourself via [`PreparedQuery::prepare_formula`] for hot
    /// queries).
    pub fn query(&self, formula: &str) -> Result<bool, UniformError> {
        let prepared = PreparedQuery::prepare_formula(formula)?;
        Ok(self
            .session()
            .execute(&prepared, &Params::new(), Consistency::Latest)?
            .is_true())
    }

    /// Enumerate the answers of a conjunctive query, as bindings of its
    /// variables in first-occurrence order — a shim over the prepared
    /// read path.
    pub fn solutions(&self, query: &str) -> Result<Vec<Vec<(Sym, Sym)>>, UniformError> {
        let prepared = PreparedQuery::prepare(query)?;
        Ok(self
            .session()
            .execute(&prepared, &Params::new(), Consistency::Latest)?
            .bindings())
    }
}

impl Default for UniformDatabase {
    fn default() -> Self {
        UniformDatabase::new()
    }
}

impl fmt::Debug for UniformDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UniformDatabase({:?})", self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORG: &str = "
        member(X, Y) :- leads(X, Y).
        constraint led: forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
        constraint emp_member: forall X: employee(X) -> (exists Y: member(X, Y)).
        employee(ann).
        department(sales).
        leads(ann, sales).
    ";

    #[test]
    fn parse_rejects_inconsistent_start() {
        let err = UniformDatabase::parse("p(a). constraint c: forall X: p(X) -> q(X).");
        assert!(
            matches!(err, Err(UniformError::InitialViolation(ref v)) if v == &vec!["c".to_string()])
        );
    }

    #[test]
    fn guarded_inserts_and_deletes() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
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
    fn begin_commit_guards_like_try_apply() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        let mut txn = db.begin();
        txn.insert(Fact::parse_like("department", &["hr"]));
        txn.insert(Fact::parse_like("employee", &["bob"]));
        txn.insert(Fact::parse_like("leads", &["bob", "hr"]));
        let report = db.commit(&txn).unwrap();
        assert!(report.satisfied);
        assert!(db.query("member(bob, hr)").unwrap());

        // A transaction whose snapshot went stale (this handle committed
        // in between) is transparently re-checked against current state.
        let mut stale = db.begin();
        stale.insert(Fact::parse_like("department", &["ops"]));
        stale.insert(Fact::parse_like("employee", &["cal"]));
        stale.insert(Fact::parse_like("leads", &["cal", "ops"]));
        db.try_insert("veteran(v).").unwrap();
        assert!(db.commit(&stale).unwrap().satisfied);
        assert!(db.query("member(cal, ops)").unwrap());

        // Rejections carry the usual typed report.
        let mut bad = db.begin();
        bad.insert(Fact::parse_like("department", &["void"]));
        let err = db.commit(&bad).unwrap_err();
        assert!(matches!(err, UniformError::UpdateRejected(_)), "{err}");
        assert!(!db.query("department(void)").unwrap());
    }

    #[test]
    fn unsatisfiable_constraint_rejected_before_fact_check() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        // On its own, forbidding leaders is satisfiable (by databases
        // without departments), so it is rejected by the *state* check.
        // Once a department is required to exist, the combination has no
        // model at all and the satisfiability check fires first.
        db.try_add_constraint("some_dept", "exists X: department(X)")
            .unwrap();
        let err = db
            .try_add_constraint("nobody", "forall X, Y: leads(X, Y) -> false")
            .unwrap_err();
        // A *proven* impossible set is the analyzer's typed refusal,
        // with the stable UA0301 code — not the CurrentlyViolated (=
        // repairable) shape, and not the legacy Unsatisfiable (which
        // now only carries budget-exhausted searches).
        let UniformError::Analyze(e) = err else {
            panic!("expected analyzer refusal");
        };
        assert!(e
            .diagnostics
            .iter()
            .any(|d| d.code == uniform_analyze::Code::UnsatisfiableSet));
    }

    #[test]
    fn violated_but_satisfiable_constraint_suggests_repair() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
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

    /// The pre-repair-engine `suggest_repair` (a satisfiability search
    /// seeded with the current facts) could disagree with
    /// `minimal_repairs`; the folded path cannot — the suggestion *is*
    /// a minimal repair of the would-be state.
    #[test]
    fn constraint_repair_suggestion_agrees_with_minimal_repairs() {
        let mut db = UniformDatabase::parse("p(a). p(b). q(b).").unwrap();
        let err = db
            .try_add_constraint("c", "forall X: p(X) -> q(X)")
            .unwrap_err();
        let UniformError::CurrentlyViolated { repair, .. } = err else {
            panic!("expected CurrentlyViolated");
        };
        let suggested = repair.expect("repairable state");
        // Independently enumerate the minimal repairs of the would-be
        // state (current facts + candidate constraint).
        let tolerant = UniformDatabase::parse_tolerant(
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
        db.try_add_constraint("c", "forall X: p(X) -> q(X)")
            .unwrap();
    }

    #[test]
    fn satisfiable_and_satisfied_constraint_accepted() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        db.try_add_constraint("dom", "forall X, Y: leads(X, Y) -> employee(X)")
            .unwrap();
        assert_eq!(db.constraints().last().unwrap().name, "dom");
        // And it now guards updates.
        assert!(db.try_insert("leads(ghost, sales).").is_err());
    }

    #[test]
    fn rule_updates_guarded() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        // Unstratifiable addition rejected.
        assert!(db
            .try_add_rule("absent(X) :- employee(X), not absent(X).")
            .is_err());
        // A benign rule is accepted.
        db.try_add_rule("boss(X) :- leads(X, Y).").unwrap();
        assert!(db.query("boss(ann)").unwrap());
        // A rule that derives facts violating a constraint is rejected:
        // derive subordinate(ann, ann) violating a fresh constraint.
        db.try_add_constraint("noselfsub", "forall X: subordinate(X, X) -> false")
            .unwrap();
        let err = db.try_add_rule("subordinate(X, X) :- employee(X).");
        assert!(err.is_err(), "rule deriving violations must be rejected");
    }

    #[test]
    fn conditional_updates_guarded() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        db.try_update_all(&["employee(bob)", "department(hr)", "leads(bob, hr)"])
            .unwrap();
        // Mark every leader as a veteran: fine.
        let report = db.try_apply_where("veteran(X) where leads(X, Y)").unwrap();
        assert!(report.satisfied);
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
        let report = db.try_apply_where("audit(X) where intern(X)").unwrap();
        assert!(report.satisfied);
    }

    #[test]
    fn conditional_update_parse_errors_surface() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        assert!(
            db.try_apply_where("veteran(X)").is_err(),
            "unbound pattern variable"
        );
        assert!(db.try_apply_where("veteran(X) where ???").is_err());
    }

    #[test]
    fn incremental_rule_update_reports_stats() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        // The incremental path rejects with an UpdateRejected report (not
        // the full-recheck InitialViolation), carrying the culprit.
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
    fn arity_mismatched_updates_rejected_politely() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
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
        assert!(db.database().facts().relation(Sym::new("fresh")).is_none());
    }

    #[test]
    fn explanations_render_derivations() {
        let db = UniformDatabase::parse(ORG).unwrap();
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
    fn queries_and_solutions() {
        let db = UniformDatabase::parse(ORG).unwrap();
        assert!(db.query("exists X: member(ann, X)").unwrap());
        assert!(!db.query("member(ann, hr)").unwrap());
        let sols = db.solutions("member(X, sales)").unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0][0].1, Sym::new("ann"));
    }

    #[test]
    fn constraint_removal_is_unconditional() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
        assert!(db.remove_constraint("led"));
        assert!(!db.remove_constraint("led"), "already gone");
        // With `led` gone, a dangling department is fine.
        db.try_insert("department(hr).").unwrap();
    }

    #[test]
    fn rule_removal_guarded_by_recheck() {
        let mut db = UniformDatabase::parse(ORG).unwrap();
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
        // Removing a rule that does not exist reports false.
        assert!(!db.try_remove_rule("ghost(X) :- leads(X, Y).").unwrap());
    }

    #[test]
    fn serialization_round_trip_through_facade() {
        let db = UniformDatabase::parse(ORG).unwrap();
        let printed = db.to_program_source();
        let db2 = UniformDatabase::parse(&printed).unwrap();
        assert_eq!(
            db.query("member(ann, sales)").unwrap(),
            db2.query("member(ann, sales)").unwrap()
        );
        assert_eq!(db.constraints().len(), db2.constraints().len());
    }

    #[test]
    fn tolerant_parse_serves_certain_answers() {
        // Inconsistent start: p(a) lacks q(a). The strict parser
        // refuses it; the tolerant one serves repairs and certain
        // answers instead.
        let src = "p(a). p(b). q(b). constraint c: forall X: p(X) -> q(X).";
        assert!(UniformDatabase::parse(src).is_err());
        let db = UniformDatabase::parse_tolerant(src).unwrap();
        let repairs = db.minimal_repairs().unwrap();
        assert_eq!(repairs.len(), 2, "{repairs:?}");
        let answers = db.consistent_answer("p(X)").unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0].1, Sym::new("b"));
        // Derived predicates answer consistently too.
        let db = UniformDatabase::parse_tolerant(
            "r(X) :- p(X). p(a). p(b). q(b). constraint c: forall X: p(X) -> q(X).",
        )
        .unwrap();
        let answers = db.consistent_answer("r(X)").unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0][0].1, Sym::new("b"));
    }

    #[test]
    fn consistent_answer_on_a_consistent_database_is_plain_answering() {
        let db = UniformDatabase::parse(ORG).unwrap();
        assert_eq!(db.minimal_repairs().unwrap().len(), 1);
        assert!(db.minimal_repairs().unwrap()[0].is_empty());
        assert_eq!(
            db.consistent_answer("member(X, sales)").unwrap(),
            db.solutions("member(X, sales)").unwrap()
        );
    }

    #[test]
    fn check_satisfiability_of_schema() {
        let db = UniformDatabase::parse(ORG).unwrap();
        assert!(db.check_satisfiability().outcome.is_satisfiable());
    }

    #[test]
    fn skip_satisfiability_option() {
        let mut db = UniformDatabase::parse("employee(a).")
            .unwrap()
            .with_options(UniformOptions {
                skip_satisfiability: true,
                ..UniformOptions::default()
            });
        // Without the sat check, an unsatisfiable pair can be added one at
        // a time (first is fine, second is caught by the current-state
        // check instead).
        db.try_add_constraint("must", "forall X: employee(X) -> good(X)")
            .map(|_| ())
            .unwrap_err(); // violated now, still rejected by state check
    }
}
