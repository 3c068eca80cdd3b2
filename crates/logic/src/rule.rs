//! Deduction rules `H ← B`.
//!
//! A rule has a positive-literal head and a body of positive or negative
//! literals (§2). Rules must be *range-restricted*: every variable of the
//! head or of a negative body literal also occurs in a positive body
//! literal. Bodies are kept in *safe order* (positive literals first, in
//! source order), so that left-to-right evaluation reaches every negative
//! literal fully instantiated.

use crate::error::RuleError;
use crate::symbol::Sym;
use crate::term::{Atom, Literal};
use std::collections::BTreeSet;
use std::fmt;

/// A deduction rule `head :- body`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build a rule, validating range restriction and reordering the body
    /// into safe order.
    pub fn new(head: Atom, body: Vec<Literal>) -> Result<Rule, RuleError> {
        let mut rule = Rule { head, body };
        rule.check_range_restricted()?;
        rule.reorder_safe();
        Ok(rule)
    }

    /// A fact-like rule with an empty body (only valid for ground heads).
    pub fn is_bodyless(&self) -> bool {
        self.body.is_empty()
    }

    fn check_range_restricted(&self) -> Result<(), RuleError> {
        let positive: BTreeSet<Sym> = self
            .body
            .iter()
            .filter(|l| l.positive)
            .flat_map(|l| l.vars().collect::<Vec<_>>())
            .collect();
        let needs: Vec<Sym> = self
            .head
            .vars()
            .chain(
                self.body
                    .iter()
                    .filter(|l| !l.positive)
                    .flat_map(|l| l.vars().collect::<Vec<_>>()),
            )
            .collect();
        for v in needs {
            if !positive.contains(&v) {
                return Err(RuleError {
                    var: v,
                    rule: format!("{self}"),
                });
            }
        }
        Ok(())
    }

    /// Stable partition: positive body literals first. Range restriction
    /// guarantees that by the time a negative literal is evaluated
    /// left-to-right, all of its variables are bound.
    fn reorder_safe(&mut self) {
        let (pos, neg): (Vec<_>, Vec<_>) = self.body.drain(..).partition(|l| l.positive);
        self.body = pos;
        self.body.extend(neg);
    }

    /// Positive body literals (in safe order they form the body prefix).
    pub fn positive_body(&self) -> impl Iterator<Item = &Literal> {
        self.body.iter().filter(|l| l.positive)
    }

    /// Negative body literals.
    pub fn negative_body(&self) -> impl Iterator<Item = &Literal> {
        self.body.iter().filter(|l| !l.positive)
    }

    /// All variables occurring in the rule.
    pub fn vars(&self) -> BTreeSet<Sym> {
        let mut out: BTreeSet<Sym> = self.head.vars().collect();
        for l in &self.body {
            out.extend(l.vars());
        }
        out
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(p: &str, args: &[&str], positive: bool) -> Literal {
        Literal::new(positive, Atom::parse_like(p, args))
    }

    #[test]
    fn accepts_range_restricted_rule() {
        let r = Rule::new(
            Atom::parse_like("member", &["X", "Y"]),
            vec![lit("leads", &["X", "Y"], true)],
        )
        .unwrap();
        assert_eq!(r.to_string(), "member(X,Y) :- leads(X,Y)");
    }

    #[test]
    fn rejects_unsafe_head_variable() {
        let err = Rule::new(
            Atom::parse_like("r", &["X", "Z"]),
            vec![lit("q", &["X"], true)],
        )
        .unwrap_err();
        assert_eq!(err.var, Sym::new("Z"));
    }

    #[test]
    fn rejects_unsafe_negative_variable() {
        let err = Rule::new(
            Atom::parse_like("r", &["X"]),
            vec![lit("q", &["X"], true), lit("s", &["Y"], false)],
        )
        .unwrap_err();
        assert_eq!(err.var, Sym::new("Y"));
    }

    #[test]
    fn body_reordered_positives_first() {
        let r = Rule::new(
            Atom::parse_like("r", &["X"]),
            vec![
                lit("a", &["X"], true),
                lit("b", &["X"], false),
                lit("c", &["X"], true),
            ],
        )
        .unwrap();
        let signs: Vec<bool> = r.body.iter().map(|l| l.positive).collect();
        assert_eq!(signs, vec![true, true, false]);
        // Source order among positives preserved.
        assert_eq!(r.body[0].atom.pred, Sym::new("a"));
        assert_eq!(r.body[1].atom.pred, Sym::new("c"));
    }

    #[test]
    fn rename_apart_keeps_shape_and_sharing() {
        let r = Rule::new(
            Atom::parse_like("tc", &["X", "Z"]),
            vec![lit("edge", &["X", "Y"], true), lit("tc", &["Y", "Z"], true)],
        )
        .unwrap();
        let rn = crate::Renaming::apart_from(&r.head).rule(&r);
        assert_eq!(rn.head.pred, r.head.pred);
        // Sharing: Y in both body literals maps to the same pool name.
        assert_eq!(rn.body[0].atom.args[1], rn.body[1].atom.args[0]);
        // And apart from the partner, the rule's own head: no variable
        // of the rule survives.
        assert!(rn.vars().is_disjoint(&r.vars()));
    }

    #[test]
    fn ground_rule_with_empty_body_allowed() {
        let r = Rule::new(Atom::parse_like("p", &["a"]), vec![]).unwrap();
        assert!(r.is_bodyless());
    }

    #[test]
    fn nonground_bodyless_rule_rejected() {
        assert!(Rule::new(Atom::parse_like("p", &["X"]), vec![]).is_err());
    }
}
