//! The analyzer entry point and its product, [`AnalyzedProgram`].
//!
//! [`Analyzer`] is a builder over the three components of a schema —
//! rules, constraints, declared relations — plus optional source spans
//! and observability. [`Analyzer::analyze`] packages them and runs no
//! pass: the UA01xx/UA02xx lints, the schema's predicate list and the
//! per-constraint closures are each built on first use, and the
//! satisfiability classification (UA03xx) on the first call of
//! [`AnalyzedProgram::sat`]. A schema gate that accepts its candidate
//! reads the classification alone and never lints; classifying runs
//! bounded model searches, which integration layers only need on schema
//! mutation, not on every cache hit.

use crate::diag::{AnalyzeError, AnalyzeErrorKind, Code, Diagnostic};
use crate::lint::{self, LintInput};
use crate::sat::{self, SatAnalysis, SatClass};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};
use uniform_datalog::{Database, DepGraph, PatternTemplates, RuleSet, Snapshot};
use uniform_logic::{normalize, parse_program, Constraint, LogicError, ProgramSource, Span, Sym};
use uniform_obs::Obs;
use uniform_satisfiability::SatOptions;

/// Analyzer knobs.
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Budget for each satisfiability search (default:
    /// [`SatOptions::classification`] — tight, so prepare-time analysis
    /// cannot stall for seconds).
    pub sat: SatOptions,
    /// Probe each satisfiable constraint's negation to detect
    /// tautologies (UA0303). Doubles the per-constraint searches;
    /// default on.
    pub probe_tautologies: bool,
    /// Classify each constraint on its own (UA0302/UA0303/UA0304) in
    /// addition to the whole set. Off, only the set-level search runs —
    /// the single-search gate mode `try_add_constraint` uses. Default
    /// on.
    pub classify_each: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            sat: SatOptions::classification(),
            probe_tautologies: true,
            classify_each: true,
        }
    }
}

impl AnalyzeOptions {
    /// The schema-gate preset: one satisfiability search over the whole
    /// candidate set with the given budget, no per-constraint
    /// classification and no tautology probes — the same cost as a bare
    /// `SatChecker` run.
    pub fn gate(sat: SatOptions) -> AnalyzeOptions {
        AnalyzeOptions {
            sat,
            probe_tautologies: false,
            classify_each: false,
        }
    }
}

/// Builder for a static analysis run.
pub struct Analyzer {
    rules: RuleSet,
    constraints: Vec<Constraint>,
    declared: Vec<(Sym, usize)>,
    rule_spans: Vec<Span>,
    constraint_spans: Vec<Span>,
    options: AnalyzeOptions,
    obs: Arc<Obs>,
}

impl Analyzer {
    pub fn new(rules: RuleSet, constraints: Vec<Constraint>) -> Analyzer {
        Analyzer {
            rules,
            constraints,
            declared: Vec::new(),
            rule_spans: Vec::new(),
            constraint_spans: Vec::new(),
            options: AnalyzeOptions::default(),
            obs: Arc::new(Obs::null()),
        }
    }

    /// Analyze a database's registered program: its rules and
    /// constraints, with the stored relations as declared EDB.
    pub fn of_database(db: &Database) -> Analyzer {
        let declared = db
            .facts()
            .predicates()
            .filter_map(|p| db.facts().relation(p).map(|r| (p, r.arity())))
            .collect::<Vec<_>>();
        Analyzer::new(db.rules().clone(), db.constraints().to_vec()).with_declared(declared)
    }

    /// Analyze a snapshot's registered program (same shape as
    /// [`Analyzer::of_database`]).
    pub fn of_snapshot(snap: &Snapshot) -> Analyzer {
        let declared = snap
            .facts()
            .predicates()
            .filter_map(|p| snap.facts().relation(p).map(|r| (p, r.arity())))
            .collect::<Vec<_>>();
        Analyzer::new(snap.rules().clone(), snap.constraints().to_vec()).with_declared(declared)
    }

    /// Declare EDB relations `(predicate, arity)`. Sorted internally;
    /// enables the lints that need to know the EDB universe (UA0201) and
    /// sharpens UA0101.
    pub fn with_declared(mut self, mut declared: Vec<(Sym, usize)>) -> Analyzer {
        declared.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        declared.dedup();
        self.declared = declared;
        self
    }

    /// Attach source spans (parallel to the rule / constraint lists).
    pub fn with_spans(mut self, rule_spans: Vec<Span>, constraint_spans: Vec<Span>) -> Analyzer {
        self.rule_spans = rule_spans;
        self.constraint_spans = constraint_spans;
        self
    }

    pub fn with_options(mut self, options: AnalyzeOptions) -> Analyzer {
        self.options = options;
        self
    }

    pub fn with_obs(mut self, obs: Arc<Obs>) -> Analyzer {
        self.obs = obs;
        self
    }

    /// Package the program for analysis; every pass runs on first use.
    /// Never fails: a constructed `RuleSet` is already stratified and
    /// range-restricted, so everything else is a diagnostic, not an
    /// error.
    pub fn analyze(self) -> AnalyzedProgram {
        let obs = self.obs.clone();
        let _span = obs.span("analyze.run");
        obs.counter("analyze.runs").incr();
        AnalyzedProgram {
            rules: self.rules,
            constraints: self.constraints,
            declared: self.declared,
            rule_spans: self.rule_spans,
            constraint_spans: self.constraint_spans,
            lint: OnceLock::new(),
            schema_preds: OnceLock::new(),
            closures: OnceLock::new(),
            options: self.options,
            obs: self.obs,
            sat: OnceLock::new(),
        }
    }
}

/// Per-constraint predicate closures and their union.
struct Closures {
    /// Parallel to the constraints, each in `Sym` order (matching
    /// `report_closure`).
    each: Vec<Vec<Sym>>,
    /// Union of `each`, in `Sym` order.
    union: Vec<Sym>,
}

/// The product of a static analysis run: lint findings plus the
/// precomputed artifacts the runtime layers would otherwise re-derive
/// per state — the dependency graph, per-constraint predicate closures
/// (what `RepairEngine::report_closure` computes for cache
/// invalidation), and the shared read-pattern templates.
pub struct AnalyzedProgram {
    rules: RuleSet,
    constraints: Vec<Constraint>,
    declared: Vec<(Sym, usize)>,
    rule_spans: Vec<Span>,
    constraint_spans: Vec<Span>,
    lint: OnceLock<Vec<Diagnostic>>,
    /// Every predicate of the schema, sorted by name.
    schema_preds: OnceLock<Vec<Sym>>,
    closures: OnceLock<Closures>,
    options: AnalyzeOptions,
    obs: Arc<Obs>,
    sat: OnceLock<SatAnalysis>,
}

impl std::fmt::Debug for AnalyzedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyzedProgram")
            .field("rules", &self.rules.len())
            .field("constraints", &self.constraints.len())
            .field("lint", &self.lint.get())
            .field("sat", &self.sat.get())
            .finish_non_exhaustive()
    }
}

impl AnalyzedProgram {
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Declared EDB relations, name-sorted.
    pub fn declared(&self) -> &[(Sym, usize)] {
        &self.declared
    }

    /// The predicate dependency graph (shared with the rule set).
    pub fn graph(&self) -> &DepGraph {
        self.rules.graph()
    }

    /// The precompiled read-pattern templates (shared with the rule
    /// set): specialize with a check's constants to get exactly the
    /// patterns `CheckReport::read_patterns` reports.
    pub fn templates(&self) -> &Arc<PatternTemplates> {
        self.rules.templates()
    }

    fn lint_input(&self) -> LintInput<'_> {
        LintInput {
            rules: &self.rules,
            constraints: &self.constraints,
            declared: &self.declared,
            rule_spans: &self.rule_spans,
            constraint_spans: &self.constraint_spans,
        }
    }

    /// The lint findings (UA01xx/UA02xx), deterministic order; linted on
    /// first call.
    pub fn lint_diagnostics(&self) -> &[Diagnostic] {
        self.lint.get_or_init(|| {
            let diagnostics = lint::run(&self.lint_input());
            self.obs
                .counter("analyze.diagnostics")
                .add(diagnostics.len() as u64);
            diagnostics
        })
    }

    /// Every predicate of the schema, sorted by name.
    pub fn schema_predicates(&self) -> &[Sym] {
        self.schema_preds
            .get_or_init(|| lint::schema_predicates(&self.lint_input()))
    }

    /// Per-constraint closures: exactly the static portion of
    /// `RepairEngine::report_closure` — every predicate reachable
    /// through rule bodies from any literal of the constraint, in `Sym`
    /// order. Built on first call.
    fn closures(&self) -> &Closures {
        self.closures.get_or_init(|| {
            let graph = self.rules.graph();
            let mut each = Vec::with_capacity(self.constraints.len());
            let mut union: BTreeSet<Sym> = BTreeSet::new();
            for c in &self.constraints {
                let mut one: BTreeSet<Sym> = BTreeSet::new();
                for occ in c.rq.literals() {
                    one.extend(graph.reachable(occ.literal.atom.pred));
                }
                union.extend(one.iter().copied());
                each.push(one.into_iter().collect::<Vec<Sym>>());
            }
            Closures {
                each,
                union: union.into_iter().collect(),
            }
        })
    }

    /// The closure of the `idx`-th constraint: every predicate whose
    /// facts can influence its truth, in `Sym` order.
    pub fn closure_of(&self, idx: usize) -> &[Sym] {
        &self.closures().each[idx]
    }

    /// The closure of the named constraint, if it exists.
    pub fn constraint_closure(&self, name: &str) -> Option<&[Sym]> {
        self.constraints
            .iter()
            .position(|c| c.name == name)
            .map(|i| self.closure_of(i))
    }

    /// Union of all constraint closures, in `Sym` order: the static part
    /// of `RepairEngine::report_closure`, and the set a commit must
    /// intersect to invalidate cached certain-answer verdicts.
    pub fn closure_union(&self) -> &[Sym] {
        &self.closures().union
    }

    /// The UA03xx classification, computed on first call and cached.
    pub fn sat(&self) -> &SatAnalysis {
        self.sat.get_or_init(|| {
            let _span = self.obs.span("analyze.classify");
            let analysis = sat::classify(
                &self.rules,
                &self.constraints,
                &self.options.sat,
                self.options.probe_tautologies,
                self.options.classify_each,
            );
            self.obs
                .counter("analyze.sat.classifications")
                .add(1 + analysis.per_constraint.len() as u64);
            if analysis.set_class == SatClass::Unsatisfiable {
                self.obs.counter("analyze.sat.unsat").incr();
            }
            self.obs
                .counter("analyze.diagnostics")
                .add(analysis.diagnostics.len() as u64);
            analysis
        })
    }

    /// The classification if it already ran (never forces it).
    pub fn sat_if_classified(&self) -> Option<&SatAnalysis> {
        self.sat.get()
    }

    /// Class of the whole constraint set (forces classification).
    pub fn set_class(&self) -> SatClass {
        self.sat().set_class
    }

    /// All findings: lints plus the UA03xx classification (both forced).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = self.lint_diagnostics().to_vec();
        out.extend(self.sat().diagnostics.iter().cloned());
        out
    }

    /// The static refusal verdict: `Some` when the program carries at
    /// least one error-severity diagnostic (an unsatisfiable constraint
    /// set being the canonical case — forced here). Integration layers
    /// call this before registering a schema.
    pub fn refusal(&self) -> Option<AnalyzeError> {
        let errors: Vec<Diagnostic> = self
            .diagnostics()
            .into_iter()
            .filter(|d| d.is_error())
            .collect();
        if errors.is_empty() {
            return None;
        }
        self.obs.counter("analyze.refusals").incr();
        Some(AnalyzeError::new(AnalyzeErrorKind::Rejected, errors))
    }
}

/// Analyze a textual program (facts, rules, constraints) without
/// building a database. Findings carry source spans. `Err` means the
/// program cannot even be constructed — parse failure, an unsafe rule
/// (UA0103), unstratified recursion (UA0104), or a constraint outside
/// the closed RQ fragment (UA0103) — with the diagnostics that say why.
pub fn analyze_source(src: &str) -> Result<AnalyzedProgram, AnalyzeError> {
    let prog: ProgramSource = parse_program(src).map_err(|e| {
        AnalyzeError::new(
            AnalyzeErrorKind::Source,
            vec![
                Diagnostic::new(Code::UnsafeItem, e.message.clone()).with_span(Some(Span {
                    line: e.line,
                    col: e.col,
                })),
            ],
        )
    })?;

    let rules = RuleSet::new(prog.rules.clone()).map_err(|e| {
        // Anchor the cycle report at the first rule whose head is the
        // predicate the stratification error names.
        let span = prog
            .rules
            .iter()
            .position(|r| r.head.pred == e.head)
            .and_then(|i| prog.rule_spans.get(i).copied())
            .or_else(|| prog.rule_spans.first().copied());
        AnalyzeError::new(
            AnalyzeErrorKind::Source,
            vec![Diagnostic::new(Code::Unstratified, e.to_string()).with_span(span)],
        )
    })?;

    let mut constraints = Vec::with_capacity(prog.constraints.len());
    let mut bad = Vec::new();
    for (i, (name, f)) in prog.constraints.iter().enumerate() {
        match normalize(f) {
            Ok(rq) => {
                let name = name.clone().unwrap_or_else(|| format!("ic{}", i + 1));
                constraints.push(Constraint::new(name, rq));
            }
            Err(e) => bad.push(
                Diagnostic::new(Code::UnsafeItem, LogicError::Normalize(e).to_string())
                    .with_span(prog.constraint_span(i)),
            ),
        }
    }
    if !bad.is_empty() {
        return Err(AnalyzeError::new(AnalyzeErrorKind::Source, bad));
    }

    let mut declared: Vec<(Sym, usize)> =
        prog.facts.iter().map(|f| (f.pred, f.args.len())).collect();
    declared.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()).then(a.1.cmp(&b.1)));
    declared.dedup();

    Ok(Analyzer::new(rules, constraints)
        .with_declared(declared)
        .with_spans(prog.rule_spans, prog.constraint_spans)
        .analyze())
}
