//! Conditional updates — the generalization §3.2 closes with ("The method
//! described here for single-fact Updates has been defined for more
//! general Updates, such as transactions and conditional Updates",
//! worked out in BRY 87).
//!
//! A conditional update `Lθ for every answer θ of Q` pairs an update
//! *pattern* `L` (a literal, possibly with variables) with a conjunctive
//! *condition* `Q` that binds them: inserting `audit(X) where emp(X),
//! not cleared(X)` inserts one `audit` fact per uncleared employee.
//!
//! The two-phase architecture extends unchanged: Def. 5 never looks at
//! answer substitutions, so the potential updates of the *pattern* cover
//! the potential updates of every ground instance the condition can
//! produce. Update constraints are therefore compiled from the pattern
//! alone, before any fact is read, and only the expansion into a
//! concrete [`Transaction`] touches the database.

use crate::checker::{CheckReport, Checker, CompiledCheck};
use std::collections::HashSet;
use std::fmt;
use uniform_datalog::{solve_conjunction, Interp, Transaction, Update};
use uniform_logic::{
    parse_literal, parse_query, Literal, LogicError, Renaming, RuleError, Subst, Sym,
};

/// An update pattern guarded by a conjunctive condition.
///
/// Safety mirrors the range restriction of §2: every variable of the
/// pattern, and every variable of a negative condition literal, must
/// occur in a positive condition literal. This guarantees the expansion
/// is a finite set of ground updates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConditionalUpdate {
    literal: Literal,
    condition: Vec<Literal>,
}

impl ConditionalUpdate {
    /// Build a conditional update, validating safety.
    pub fn new(literal: Literal, condition: Vec<Literal>) -> Result<ConditionalUpdate, LogicError> {
        let bound: HashSet<Sym> = condition
            .iter()
            .filter(|l| l.positive)
            .flat_map(|l| l.vars().collect::<Vec<_>>())
            .collect();
        let check = |vars: Vec<Sym>| -> Result<(), LogicError> {
            for v in vars {
                if !bound.contains(&v) {
                    return Err(LogicError::Rule(RuleError {
                        var: v,
                        rule: display(&literal, &condition),
                    }));
                }
            }
            Ok(())
        };
        check(literal.vars().collect())?;
        for l in condition.iter().filter(|l| !l.positive) {
            check(l.vars().collect())?;
        }
        Ok(ConditionalUpdate { literal, condition })
    }

    /// Parse from `"<literal> where <cond1>, <cond2>, ..."`; the `where`
    /// clause may be omitted when the literal is ground.
    ///
    /// ```
    /// use uniform_integrity::ConditionalUpdate;
    /// let cu = ConditionalUpdate::parse("not enrolled(X, cs) where failed(X)").unwrap();
    /// assert_eq!(cu.to_string(), "not enrolled(X,cs) where failed(X)");
    /// ```
    pub fn parse(src: &str) -> Result<ConditionalUpdate, LogicError> {
        let (head, cond) = match find_where(src) {
            Some(at) => (&src[..at], Some(&src[at + WHERE.len()..])),
            None => (src, None),
        };
        let literal = parse_literal(head.trim().trim_end_matches('.'))?;
        let condition = match cond {
            Some(q) => parse_query(q.trim())?,
            None => Vec::new(),
        };
        ConditionalUpdate::new(literal, condition)
    }

    /// The update pattern.
    pub fn literal(&self) -> &Literal {
        &self.literal
    }

    /// The conjunctive condition.
    pub fn condition(&self) -> &[Literal] {
        &self.condition
    }

    /// Expand into a concrete transaction by evaluating the condition
    /// against `interp` (the canonical model of the current state):
    /// one ground update per distinct answer.
    pub fn expand(&self, interp: &dyn Interp) -> Transaction {
        let mut updates = Vec::new();
        let mut seen: HashSet<uniform_logic::Fact> = HashSet::new();
        let mut subst = Subst::new();
        solve_conjunction(interp, &self.condition, &mut subst, &mut |s| {
            if let Some(fact) = s.ground_atom(&self.literal.atom) {
                if seen.insert(fact.clone()) {
                    updates.push(if self.literal.positive {
                        Update::insert(fact)
                    } else {
                        Update::delete(fact)
                    });
                }
            }
            true
        });
        Transaction::new(updates)
    }
}

impl fmt::Display for ConditionalUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&display(&self.literal, &self.condition))
    }
}

const WHERE: &str = " where ";

/// Position of the top-level ` where ` keyword, if any. The surface
/// syntax has no string literals and `where` is not a legal predicate
/// position followed by a space-separated literal, so a plain substring
/// scan suffices.
fn find_where(src: &str) -> Option<usize> {
    src.find(WHERE)
}

fn display(literal: &Literal, condition: &[Literal]) -> String {
    use std::fmt::Write;
    let mut out = literal.to_string();
    if !condition.is_empty() {
        out.push_str(" where ");
        for (i, l) in condition.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{l}");
        }
    }
    out
}

impl Checker<'_> {
    /// Compile the update constraints of a conditional update from its
    /// pattern alone — no fact access (§3.3.1). The compile depends on
    /// the pattern's constants only up to a one-to-one renaming of those
    /// no rule or constraint mentions (see [`crate::cache`]); the
    /// schema's own constants are part of its shape. The pattern is
    /// renamed apart so its variables cannot be captured by constraint
    /// variables during relevance unification: pool names never occur in
    /// a parsed constraint.
    pub fn compile_conditional(&self, cu: &ConditionalUpdate) -> CompiledCheck {
        let renamed = Renaming::default().literal(cu.literal());
        self.compile(std::slice::from_ref(&renamed))
    }

    /// Check a conditional update: compile from the pattern, expand the
    /// condition against the current canonical model, evaluate.
    pub fn check_conditional(&self, cu: &ConditionalUpdate) -> CheckReport {
        let compiled = self.compile_conditional(cu);
        let tx = self.expand_conditional(cu);
        self.evaluate(&compiled, &tx)
    }

    /// The concrete transaction a conditional update denotes on the
    /// current state.
    pub fn expand_conditional(&self, cu: &ConditionalUpdate) -> Transaction {
        let model = self.model();
        cu.expand(model.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::Database;

    fn db(src: &str) -> Database {
        let db = Database::parse(src).unwrap();
        assert!(db.is_consistent(), "fixtures must start consistent");
        db
    }

    #[test]
    fn parse_round_trip() {
        let cu = ConditionalUpdate::parse("audit(X) where emp(X), not cleared(X)").unwrap();
        assert_eq!(cu.to_string(), "audit(X) where emp(X), not cleared(X)");
        assert!(cu.literal().positive);
        assert_eq!(cu.condition().len(), 2);
    }

    #[test]
    fn parse_ground_without_condition() {
        let cu = ConditionalUpdate::parse("p(a)").unwrap();
        assert!(cu.condition().is_empty());
        let cu2 = ConditionalUpdate::parse("not p(a).").unwrap();
        assert!(!cu2.literal().positive);
    }

    #[test]
    fn unsafe_pattern_rejected() {
        // X unbound by any positive condition literal.
        let err = ConditionalUpdate::parse("p(X)").unwrap_err();
        assert!(err.to_string().contains("range-restricted"), "{err}");
        let err2 = ConditionalUpdate::parse("p(X) where not q(X)").unwrap_err();
        assert!(err2.to_string().contains("range-restricted"), "{err2}");
        // Negative condition literal with an unbound variable.
        let err3 = ConditionalUpdate::parse("p(a) where q(X), not r(Y)").unwrap_err();
        assert!(err3.to_string().contains('Y'), "{err3}");
    }

    #[test]
    fn expansion_enumerates_answers() {
        let d = db("emp(a). emp(b). cleared(b).");
        let cu = ConditionalUpdate::parse("audit(X) where emp(X), not cleared(X)").unwrap();
        let tx = cu.expand(d.model().as_ref());
        assert_eq!(tx.updates.len(), 1);
        assert_eq!(tx.updates[0].to_literal().to_string(), "audit(a)");
    }

    #[test]
    fn expansion_deduplicates() {
        // Two condition answers projecting onto the same update.
        let d = db("assign(a, d1). assign(a, d2).");
        let cu = ConditionalUpdate::parse("busy(X) where assign(X, Y)").unwrap();
        let tx = cu.expand(d.model().as_ref());
        assert_eq!(tx.updates.len(), 1);
    }

    #[test]
    fn expansion_over_derived_predicates() {
        let d = db("leads(a, sales). member(X, Y) :- leads(X, Y).");
        let cu = ConditionalUpdate::parse("veteran(X) where member(X, Y)").unwrap();
        let tx = cu.expand(d.model().as_ref());
        assert_eq!(tx.updates.len(), 1);
        assert_eq!(tx.updates[0].fact.to_string(), "veteran(a)");
    }

    #[test]
    fn ground_update_without_condition_expands_to_itself() {
        let d = db("");
        let cu = ConditionalUpdate::parse("p(a)").unwrap();
        let tx = cu.expand(d.model().as_ref());
        assert_eq!(tx.updates.len(), 1);
    }

    #[test]
    fn empty_condition_answers_yield_empty_transaction() {
        let d = db("constraint c: forall X: audit(X) -> false.");
        let cu = ConditionalUpdate::parse("audit(X) where emp(X)").unwrap();
        let checker = Checker::new(&d);
        let report = checker.check_conditional(&cu);
        assert!(report.satisfied, "no emp facts, nothing to insert");
    }

    #[test]
    fn conditional_check_accepts_and_rejects() {
        let d = db("
            emp(a). emp(b). senior(b).
            constraint only_seniors: forall X: bonus(X) -> senior(X).
        ");
        let checker = Checker::new(&d);
        let ok = ConditionalUpdate::parse("bonus(X) where senior(X)").unwrap();
        assert!(checker.check_conditional(&ok).satisfied);
        let bad = ConditionalUpdate::parse("bonus(X) where emp(X)").unwrap();
        let report = checker.check_conditional(&bad);
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "only_seniors");
    }

    #[test]
    fn conditional_deletion_checked() {
        let d = db("
            emp(a). badge(a).
            constraint badged: forall X: emp(X) -> badge(X).
        ");
        let checker = Checker::new(&d);
        let bad = ConditionalUpdate::parse("not badge(X) where emp(X)").unwrap();
        assert!(!checker.check_conditional(&bad).satisfied);
        // Deleting the employee first (same conditional shape) is fine
        // when done together in one expanded transaction semantics is not
        // expressible here; deleting badges of *former* employees is.
        let d2 = db("badge(a). badge(b). emp(b). constraint badged: forall X: emp(X) -> badge(X).");
        let checker2 = Checker::new(&d2);
        let ok = ConditionalUpdate::parse("not badge(X) where badge(X), not emp(X)").unwrap();
        assert!(checker2.check_conditional(&ok).satisfied);
    }

    #[test]
    fn compile_is_fact_free_and_reusable() {
        // Compile once against an empty fact base; evaluate twice against
        // different states.
        let mut d = db("constraint c: forall X: audit(X) -> logged(X).");
        let cu = ConditionalUpdate::parse("audit(X) where emp(X)").unwrap();
        let compiled = Checker::new(&d).compile_conditional(&cu);
        assert_eq!(compiled.update_constraints.len(), 1);

        d.insert_fact(&uniform_logic::Fact::parse_like("emp", &["a"]));
        let checker = Checker::new(&d);
        let tx = checker.expand_conditional(&cu);
        assert!(
            !checker.evaluate(&compiled, &tx).satisfied,
            "audit(a) lacks logged(a)"
        );

        d.insert_fact(&uniform_logic::Fact::parse_like("logged", &["a"]));
        let checker = Checker::new(&d);
        let tx = checker.expand_conditional(&cu);
        assert!(checker.evaluate(&compiled, &tx).satisfied);
    }

    #[test]
    fn induced_updates_of_expanded_instances_checked() {
        // The condition produces student insertions; the rule induces
        // enrolled insertions which violate the constraint (§3.2 example
        // reached through a conditional update).
        let d = db("
            applicant(jack).
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: enrolled(X, cs) -> attends(X, ddb).
        ");
        let checker = Checker::new(&d);
        let cu = ConditionalUpdate::parse("student(X) where applicant(X)").unwrap();
        let report = checker.check_conditional(&cu);
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "cdb");
    }

    #[test]
    fn verdict_matches_oracle_on_examples() {
        let d = db("
            emp(a). emp(b). cleared(b). badge(a). badge(b).
            vetted(X) :- emp(X), cleared(X).
            constraint badged: forall X: emp(X) -> badge(X).
            constraint audited_cleared: forall X: audit(X) -> cleared(X).
        ");
        let checker = Checker::new(&d);
        for src in [
            "audit(X) where emp(X)",
            "audit(X) where vetted(X)",
            "not badge(X) where cleared(X)",
            "not emp(X) where emp(X), not cleared(X)",
            "emp(c)",
        ] {
            let cu = ConditionalUpdate::parse(src).unwrap();
            let fast = checker.check_conditional(&cu).satisfied;
            let tx = checker.expand_conditional(&cu);
            let mut copy = d.clone();
            for u in &tx.updates {
                copy.apply(u).unwrap();
            }
            assert_eq!(fast, copy.is_consistent(), "divergence on `{src}`");
        }
    }
}
