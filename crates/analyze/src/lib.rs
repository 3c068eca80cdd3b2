//! # uniform-analyze
//!
//! Static analysis of a registered deductive-database program — rules,
//! integrity constraints, declared relations — at schema registration
//! time, before any fact is consulted.
//!
//! The paper's central duality is *satisfaction* (do the current facts
//! satisfy the constraints?) versus *satisfiability* (does any state at
//! all?). Satisfaction is a runtime question; satisfiability — and a
//! surprising amount of the machinery built around satisfaction — is a
//! pure function of the schema. This crate moves that schema-only work
//! to a single prepare-time pass with three layers:
//!
//! 1. **Lints** ([`Diagnostic`], stable `UAxxxx` [`Code`]s with source
//!    [`Span`](uniform_logic::Span)s when the program came from text):
//!    UA01xx structural (arity mismatches, singleton variables, unsafe
//!    items, unstratified recursion), UA02xx flow (dead rules,
//!    predicates unreachable from constraints, empty-by-construction
//!    bodies, constraint closures covering the whole schema), UA03xx
//!    satisfiability (per-constraint and whole-set classification into
//!    [`SatClass`]).
//! 2. **Artifacts** ([`AnalyzedProgram`]): the predicate dependency
//!    graph, per-constraint predicate closures (exactly what
//!    `RepairEngine::report_closure` re-derives per repair report), and
//!    the shared read-pattern templates that `CheckReport::read_patterns`
//!    specializes with constants.
//! 3. **Refusal** ([`AnalyzedProgram::refusal`]): error-severity
//!    findings — an unsatisfiable constraint set above all — turn into a
//!    typed [`AnalyzeError`] so integration layers reject impossible
//!    schemas *before* touching the commit queue, distinct from a
//!    merely-violated (repairable) constraint.
//!
//! ```
//! use uniform_analyze::{analyze_source, Code, SatClass};
//!
//! let program = r#"
//!     emp(ann, sales).
//!     dept(sales).
//!     works(X) :- emp(X, D), dept(D).
//!     constraint staffed: forall D: dept(D) -> exists X: emp(X, D).
//! "#;
//! let analyzed = analyze_source(program).unwrap();
//! assert!(analyzed.refusal().is_none());
//! assert_eq!(analyzed.set_class(), SatClass::Contingent);
//!
//! // An impossible schema is refused statically, facts notwithstanding.
//! let impossible = r#"
//!     p(a).
//!     constraint some: exists X: p(X).
//!     constraint none: forall X: p(X) -> q(X) & ~q(X).
//! "#;
//! let analyzed = analyze_source(impossible).unwrap();
//! let err = analyzed.refusal().unwrap();
//! assert!(err.diagnostics.iter().any(|d| d.code == Code::UnsatisfiableSet));
//! ```

pub mod diag;
mod lint;
pub mod program;
pub mod sat;

pub use diag::{AnalyzeError, AnalyzeErrorKind, Code, Diagnostic, Severity};
pub use program::{analyze_source, AnalyzeOptions, AnalyzedProgram, Analyzer};
pub use sat::{SatAnalysis, SatClass};

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::RuleSet;
    use uniform_logic::{normalize, parse_formula, parse_rule, Constraint, Sym};

    fn rules(srcs: &[&str]) -> RuleSet {
        RuleSet::new(srcs.iter().map(|s| parse_rule(s).unwrap()).collect()).unwrap()
    }

    fn ic(name: &str, src: &str) -> Constraint {
        Constraint::new(name, normalize(&parse_formula(src).unwrap()).unwrap())
    }

    #[test]
    fn clean_schema_has_no_findings() {
        let ap = Analyzer::new(
            rules(&["works(X,D) :- emp(X,D), dept(D)."]),
            vec![ic("staffed", "forall D: dept(D) -> exists X: works(X, D)")],
        )
        .with_declared(vec![(Sym::new("emp"), 2), (Sym::new("dept"), 1)])
        .analyze();
        let lint_codes: Vec<Code> = ap.lint_diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(lint_codes, vec![]);
        assert!(ap.refusal().is_none());
        assert_eq!(ap.set_class(), SatClass::Contingent);
    }

    #[test]
    fn arity_mismatch_reported_against_first_use() {
        let ap = Analyzer::new(
            rules(&["p(X) :- q(X, Y), r(Y)."]),
            vec![ic("c", "forall X: q(X) -> r(X)")],
        )
        .analyze();
        let d = ap
            .lint_diagnostics()
            .iter()
            .find(|d| d.code == Code::ArityMismatch)
            .expect("arity mismatch");
        assert!(d.message.contains("arity 1"), "{}", d.message);
        assert!(d.message.contains("arity 2"), "{}", d.message);
        assert_eq!(d.item.as_deref(), Some("c"));
    }

    #[test]
    fn singleton_variable_flagged_underscore_exempt() {
        let ap = Analyzer::new(
            rules(&["boss(X) :- leads(X, Y).", "p(X) :- q(X, _Z)."]),
            vec![],
        )
        .analyze();
        let singles: Vec<&Diagnostic> = ap
            .lint_diagnostics()
            .iter()
            .filter(|d| d.code == Code::SingletonVariable)
            .collect();
        assert_eq!(singles.len(), 1);
        assert!(singles[0].message.contains('Y'), "{}", singles[0].message);
    }

    #[test]
    fn dead_rule_needs_declared_edb() {
        let rs = rules(&["p(X) :- ghost(X)."]);
        let quiet = Analyzer::new(rs.clone(), vec![]).analyze();
        assert!(quiet
            .lint_diagnostics()
            .iter()
            .all(|d| d.code != Code::DeadRule));
        let loud = Analyzer::new(rs, vec![])
            .with_declared(vec![(Sym::new("q"), 1)])
            .analyze();
        let d = loud
            .lint_diagnostics()
            .iter()
            .find(|d| d.code == Code::DeadRule)
            .expect("dead rule");
        assert!(d.message.contains("ghost"), "{}", d.message);
    }

    #[test]
    fn unreachable_predicate_reported_per_pred() {
        let ap = Analyzer::new(
            rules(&["a(X) :- e(X).", "b(X) :- e(X)."]),
            vec![ic("c", "forall X: a(X) -> a(X)")],
        )
        .analyze();
        let unreachable: Vec<&Diagnostic> = ap
            .lint_diagnostics()
            .iter()
            .filter(|d| d.code == Code::UnreachableFromConstraints)
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert!(unreachable[0].message.contains("predicate b"));
    }

    #[test]
    fn contradictory_body_is_empty_by_construction() {
        let ap = Analyzer::new(rules(&["p(X) :- q(X), not q(X)."]), vec![]).analyze();
        assert!(ap
            .lint_diagnostics()
            .iter()
            .any(|d| d.code == Code::EmptyByConstruction));
    }

    #[test]
    fn closures_and_union_follow_reachability() {
        let ap = Analyzer::new(
            rules(&["works(X,D) :- emp(X,D), dept(D)."]),
            vec![
                ic("w", "forall X: forall D: works(X, D) -> dept(D)"),
                ic("d", "forall D: dept(D) -> dept(D)"),
            ],
        )
        .analyze();
        let names = |syms: &[Sym]| {
            let mut v: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            names(ap.constraint_closure("w").unwrap()),
            vec!["dept", "emp", "works"]
        );
        assert_eq!(names(ap.constraint_closure("d").unwrap()), vec!["dept"]);
        assert_eq!(names(ap.closure_union()), vec!["dept", "emp", "works"]);
        assert_eq!(names(ap.schema_predicates()), vec!["dept", "emp", "works"]);
        assert!(ap.constraint_closure("nope").is_none());
    }

    #[test]
    fn unsatisfiable_set_is_refused_tautology_warned() {
        let ap = Analyzer::new(
            RuleSet::empty(),
            vec![
                ic("some", "exists X: p(X)"),
                ic("none", "forall X: p(X) -> q(X) & ~q(X)"),
                ic("triv", "forall X: p(X) -> p(X)"),
            ],
        )
        .analyze();
        let sat = ap.sat();
        assert_eq!(sat.set_class, SatClass::Unsatisfiable);
        assert_eq!(
            sat.per_constraint,
            vec![
                SatClass::Contingent,
                SatClass::Contingent,
                SatClass::Tautological
            ]
        );
        let err = ap.refusal().expect("refused");
        assert_eq!(err.kind, AnalyzeErrorKind::Rejected);
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnsatisfiableSet));
        assert!(ap
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::TautologicalConstraint && d.item.as_deref() == Some("triv")));
    }

    #[test]
    fn single_unsatisfiable_constraint_classified_without_set_search() {
        let ap = Analyzer::new(
            RuleSet::empty(),
            vec![ic("never", "exists X: p(X) & ~p(X)")],
        )
        .analyze();
        assert_eq!(ap.sat().per_constraint, vec![SatClass::Unsatisfiable]);
        assert_eq!(ap.set_class(), SatClass::Unsatisfiable);
        let err = ap.refusal().unwrap();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnsatisfiableConstraint));
    }

    #[test]
    fn source_analysis_carries_spans() {
        let src = "emp(ann, sales).\nworks(X) :- emp(X, D).\nconstraint c: forall X: works(X) -> works(X).\n";
        let ap = analyze_source(src).unwrap();
        let single = ap
            .lint_diagnostics()
            .iter()
            .find(|d| d.code == Code::SingletonVariable)
            .expect("singleton D");
        assert_eq!(single.span.map(|s| s.line), Some(2));
        assert!(ap
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::TautologicalConstraint));
    }

    #[test]
    fn source_analysis_rejects_unstratified_and_unsafe() {
        let err = analyze_source("win(X) :- move(X,Y), not win(Y).").unwrap_err();
        assert_eq!(err.kind, AnalyzeErrorKind::Source);
        assert_eq!(err.primary().unwrap().code, Code::Unstratified);

        let err =
            analyze_source("constraint c: forall X: p(X) -> q(X) | forall Y: r(Y).").unwrap_err();
        assert_eq!(err.kind, AnalyzeErrorKind::Source);
        assert_eq!(err.primary().unwrap().code, Code::UnsafeItem);
    }

    #[test]
    fn sat_classification_is_lazy() {
        let ap = Analyzer::new(RuleSet::empty(), vec![ic("some", "exists X: p(X)")]).analyze();
        assert!(ap.sat_if_classified().is_none());
        let _ = ap.set_class();
        assert!(ap.sat_if_classified().is_some());
    }
}
