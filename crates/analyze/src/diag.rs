//! Diagnostics: stable lint codes, severities, and the analyzer's error
//! type.
//!
//! Every finding the analyzer can produce carries a stable `UAxxxx` code
//! (UA01xx structural, UA02xx flow, UA03xx satisfiability), a severity,
//! a human-readable message, and — when the program was parsed from text
//! — the source span of the offending item. Codes are part of the public
//! interface: allowlists, CI gates and tests match on them, so a code is
//! never reused for a different finding.

use std::fmt;
use uniform_logic::Span;

/// How serious a diagnostic is.
///
/// `Error` diagnostics make the schema unusable (the analyzer's
/// [`refusal`](crate::AnalyzedProgram::refusal) surfaces them and
/// integration layers refuse the schema); warnings and infos are
/// advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable lint codes.
///
/// | Code   | Name                        | Default severity |
/// |--------|-----------------------------|------------------|
/// | UA0101 | arity mismatch              | warning          |
/// | UA0102 | singleton variable          | warning          |
/// | UA0103 | unsafe item                 | error            |
/// | UA0104 | unstratified recursion      | error            |
/// | UA0201 | dead rule                   | warning          |
/// | UA0202 | unreachable from constraints| info             |
/// | UA0203 | empty by construction       | warning          |
/// | UA0204 | *retired; never reused*     | —                |
/// | UA0301 | unsatisfiable constraint set| error            |
/// | UA0302 | unsatisfiable constraint    | error            |
/// | UA0303 | tautological constraint     | warning          |
/// | UA0304 | satisfiability unknown      | info             |
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// UA0101: a predicate is used with two different arities.
    ArityMismatch,
    /// UA0102: a variable occurs exactly once in a rule (likely a typo;
    /// prefix with `_` to silence).
    SingletonVariable,
    /// UA0103: an item is not range-restricted / cannot be normalized
    /// into a closed RQ formula (source-level analysis only — the
    /// constructors reject these before a program exists).
    UnsafeItem,
    /// UA0104: recursion through negation (source-level analysis only).
    Unstratified,
    /// UA0201: a rule body consults a predicate that has no rules and no
    /// declared relation — the rule can never fire.
    DeadRule,
    /// UA0202: an IDB predicate is not reachable from any constraint;
    /// integrity checking never consults it (queries still may).
    UnreachableFromConstraints,
    /// UA0203: a rule body contains complementary literals and is
    /// unsatisfiable by construction.
    EmptyByConstruction,
    /// UA0301: the constraint set as a whole admits no database state at
    /// all — the schema is unusable regardless of the facts.
    UnsatisfiableSet,
    /// UA0302: a single constraint admits no database state on its own.
    UnsatisfiableConstraint,
    /// UA0303: a constraint holds in every database state — it never
    /// rejects anything and only costs checking time.
    TautologicalConstraint,
    /// UA0304: the bounded satisfiability search exhausted its budget
    /// before classifying (the property is only semi-decidable, §4). A
    /// schema gate refuses on it at error severity
    /// ([`Diagnostic::satisfiability_unknown`]).
    SatisfiabilityUnknown,
}

impl Code {
    /// The stable `UAxxxx` string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::ArityMismatch => "UA0101",
            Code::SingletonVariable => "UA0102",
            Code::UnsafeItem => "UA0103",
            Code::Unstratified => "UA0104",
            Code::DeadRule => "UA0201",
            Code::UnreachableFromConstraints => "UA0202",
            Code::EmptyByConstruction => "UA0203",
            Code::UnsatisfiableSet => "UA0301",
            Code::UnsatisfiableConstraint => "UA0302",
            Code::TautologicalConstraint => "UA0303",
            Code::SatisfiabilityUnknown => "UA0304",
        }
    }

    /// The severity this code is reported with.
    pub fn severity(self) -> Severity {
        match self {
            Code::UnsafeItem
            | Code::Unstratified
            | Code::UnsatisfiableSet
            | Code::UnsatisfiableConstraint => Severity::Error,
            Code::ArityMismatch
            | Code::SingletonVariable
            | Code::DeadRule
            | Code::EmptyByConstruction
            | Code::TautologicalConstraint => Severity::Warning,
            Code::UnreachableFromConstraints | Code::SatisfiabilityUnknown => Severity::Info,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    /// What is wrong, in one sentence.
    pub message: String,
    /// Source position of the offending item, when the program was
    /// parsed from text (programmatically built schemas have no spans).
    pub span: Option<Span>,
    /// The item the finding is about: a constraint name or a rendered
    /// rule, when one applies.
    pub item: Option<String>,
}

impl Diagnostic {
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            span: None,
            item: None,
        }
    }

    pub fn with_span(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }

    pub fn with_item(mut self, item: impl Into<String>) -> Diagnostic {
        self.item = Some(item.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// The UA0301 finding for a constraint set proven unsatisfiable —
    /// one constructor so the analyzer's classification pass and the
    /// schema gates that refuse on a raw `SatChecker` verdict emit the
    /// same diagnostic.
    pub fn unsatisfiable_set(n_constraints: usize) -> Diagnostic {
        Diagnostic::new(
            Code::UnsatisfiableSet,
            format!(
                "the {n_constraints} constraints are jointly unsatisfiable: no database \
                 state satisfies them together, so the schema admits no consistent state"
            ),
        )
    }

    /// The UA0304 finding a schema gate refuses with when its bounded
    /// search ran out of budget; `reason` is the search's `Unknown`
    /// reason. A gate admits only what it proves satisfiable, so here
    /// the finding is an error.
    pub fn satisfiability_unknown(reason: &str) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            ..Diagnostic::new(
                Code::SatisfiabilityUnknown,
                format!("satisfiability could not be established: {reason}"),
            )
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(span) = self.span {
            write!(f, " at {span}")?;
        }
        if let Some(item) = &self.item {
            write!(f, " `{item}`")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Why an [`AnalyzeError`] was raised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalyzeErrorKind {
    /// The program could not even be constructed from source (parse
    /// error, unsafe rule, unstratified recursion, open constraint).
    Source,
    /// The program is well-formed but statically rejected: at least one
    /// error-severity diagnostic (an unsatisfiable constraint set is the
    /// canonical case).
    Rejected,
}

/// Analysis failure: the schema is unusable, with the diagnostics that
/// prove it. At least one diagnostic has [`Severity::Error`].
#[derive(Clone, Debug)]
pub struct AnalyzeError {
    pub kind: AnalyzeErrorKind,
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalyzeError {
    pub fn new(kind: AnalyzeErrorKind, diagnostics: Vec<Diagnostic>) -> AnalyzeError {
        AnalyzeError { kind, diagnostics }
    }

    /// The refusal for a constraint set proven unsatisfiable (UA0301).
    pub fn unsatisfiable_set(n_constraints: usize) -> AnalyzeError {
        AnalyzeError::new(
            AnalyzeErrorKind::Rejected,
            vec![Diagnostic::unsatisfiable_set(n_constraints)],
        )
    }

    /// The first error-severity diagnostic (the headline).
    pub fn primary(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.is_error())
            .or(self.diagnostics.first())
    }
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AnalyzeErrorKind::Source => write!(f, "program rejected at source level")?,
            AnalyzeErrorKind::Rejected => write!(f, "schema statically rejected")?,
        }
        for d in &self.diagnostics {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalyzeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::ArityMismatch,
            Code::SingletonVariable,
            Code::UnsafeItem,
            Code::Unstratified,
            Code::DeadRule,
            Code::UnreachableFromConstraints,
            Code::EmptyByConstruction,
            Code::UnsatisfiableSet,
            Code::UnsatisfiableConstraint,
            Code::TautologicalConstraint,
            Code::SatisfiabilityUnknown,
        ];
        let mut seen: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len());
        for c in all {
            assert!(c.as_str().starts_with("UA0"), "{c}");
            assert_eq!(c.as_str().len(), 6);
        }
    }

    #[test]
    fn display_carries_code_span_and_item() {
        let d = Diagnostic::new(Code::SingletonVariable, "singleton variable Y")
            .with_span(Some(Span { line: 3, col: 7 }))
            .with_item("boss(X) :- leads(X,Y)");
        assert_eq!(
            d.to_string(),
            "warning[UA0102] at 3:7 `boss(X) :- leads(X,Y)`: singleton variable Y"
        );
    }
}
