//! Relevance of constraints to updates (Def. 2).
//!
//! "A constraint C is relevant to an update U iff the complement of U is
//! unifiable with a literal in C." The index below is the precomputed
//! `relevant(Id, L)` relation of §3.1: constraint literal occurrences
//! keyed by predicate and polarity, so that relevance resolution for an
//! update literal is a hash lookup plus unification attempts — with no
//! access to the fact base, as the two-phase architecture requires.

use std::collections::HashMap;
use uniform_logic::{unify_atoms, Constraint, Literal, RqLiteral, Subst, Sym};

/// One relevant constraint occurrence for an update literal.
#[derive(Clone, Debug)]
pub struct RelevantOccurrence<'a> {
    /// Index of the constraint in the indexed slice.
    pub constraint: usize,
    /// The literal occurrence of the constraint the update unifies with.
    pub occurrence: &'a RqLiteral,
    /// mgu of the occurrence literal and the complement of the update.
    pub mgu: Subst,
}

/// Precomputed literal-occurrence index over a constraint set.
#[derive(Clone, Debug, Default)]
pub struct RelevanceIndex {
    /// (predicate, polarity of the occurrence) → (constraint, occurrence).
    by_pred: HashMap<(Sym, bool), Vec<(usize, usize)>>,
    /// Per constraint: all literal occurrences (with paths).
    occurrences: Vec<Vec<RqLiteral>>,
    /// Per constraint: the universally quantified variables not governed
    /// by an existential quantifier (domain of τ, Def. 3).
    universals: Vec<Vec<Sym>>,
}

impl RelevanceIndex {
    pub fn build(constraints: &[Constraint]) -> RelevanceIndex {
        let mut by_pred: HashMap<(Sym, bool), Vec<(usize, usize)>> = HashMap::new();
        let mut occurrences = Vec::with_capacity(constraints.len());
        let mut universals = Vec::with_capacity(constraints.len());
        for (ci, c) in constraints.iter().enumerate() {
            let occs = c.rq.literals();
            for (oi, occ) in occs.iter().enumerate() {
                by_pred
                    .entry((occ.literal.atom.pred, occ.literal.positive))
                    .or_default()
                    .push((ci, oi));
            }
            occurrences.push(occs);
            universals.push(c.rq.instantiable_universals());
        }
        RelevanceIndex {
            by_pred,
            occurrences,
            universals,
        }
    }

    /// All occurrences making a constraint relevant to `update` (Def. 2):
    /// occurrences unifying with the complement of the update literal.
    pub fn relevant(&self, update: &Literal) -> Vec<RelevantOccurrence<'_>> {
        let complement = update.complement();
        let key = (complement.atom.pred, complement.positive);
        let mut out = Vec::new();
        if let Some(entries) = self.by_pred.get(&key) {
            for &(ci, oi) in entries {
                let occ = &self.occurrences[ci][oi];
                if let Some(mgu) = unify_atoms(&occ.literal.atom, &complement.atom) {
                    out.push(RelevantOccurrence {
                        constraint: ci,
                        occurrence: occ,
                        mgu,
                    });
                }
            }
        }
        out
    }

    /// Is any constraint relevant to `update`?
    pub fn any_relevant(&self, update: &Literal) -> bool {
        let complement = update.complement();
        let key = (complement.atom.pred, complement.positive);
        self.by_pred.get(&key).is_some_and(|entries| {
            entries.iter().any(|&(ci, oi)| {
                unify_atoms(&self.occurrences[ci][oi].literal.atom, &complement.atom).is_some()
            })
        })
    }

    /// τ-domain of a constraint: its instantiable universal variables.
    pub fn universals(&self, constraint: usize) -> &[Sym] {
        &self.universals[constraint]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::{normalize, parse_formula, parse_literal};

    fn constraints(srcs: &[&str]) -> Vec<Constraint> {
        srcs.iter()
            .enumerate()
            .map(|(i, s)| {
                Constraint::new(
                    format!("c{}", i + 1),
                    normalize(&parse_formula(s).unwrap()).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn insertion_relevant_to_negative_occurrence() {
        // C1: ∀X ¬p(X) ∨ q(X). Insert p(a): complement ¬p(a) unifies with
        // the (negative) range occurrence of p.
        let cs = constraints(&["forall X: p(X) -> q(X)"]);
        let idx = RelevanceIndex::build(&cs);
        let rel = idx.relevant(&parse_literal("p(a)").unwrap());
        assert_eq!(rel.len(), 1);
        assert!(!rel[0].occurrence.literal.positive);
        // Deleting p(a) is not relevant to C1 (no positive p in C1).
        assert!(idx.relevant(&parse_literal("not p(a)").unwrap()).is_empty());
    }

    #[test]
    fn deletion_relevant_to_positive_occurrence() {
        // C2 of §3: ∀XY ¬p(X,Y) ∨ [∃Z q(X,Z) ∧ ¬s(Y,Z,a)].
        let cs = constraints(&["forall X, Y: p(X,Y) -> (exists Z: q(X,Z) & ~s(Y,Z,a))"]);
        let idx = RelevanceIndex::build(&cs);
        // Deleting q(c1,c2): complement q(c1,c2) unifies with q(X,Z).
        let rel = idx.relevant(&parse_literal("not q(c1,c2)").unwrap());
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].occurrence.literal.atom.pred, Sym::new("q"));
        // Inserting s(...) is relevant via the negative occurrence.
        assert_eq!(idx.relevant(&parse_literal("s(a,b,a)").unwrap()).len(), 1);
        // Inserting s with a clashing constant is not.
        assert!(idx.relevant(&parse_literal("s(a,b,c)").unwrap()).is_empty());
        // Inserting q is not relevant (q occurs positively only).
        assert!(idx.relevant(&parse_literal("q(c1,c2)").unwrap()).is_empty());
    }

    #[test]
    fn multiple_occurrences_yield_multiple_entries() {
        // p occurs negatively twice.
        let cs = constraints(&["forall X: p(X) -> q(X)", "forall Y: p(Y) & r(Y) -> t(Y)"]);
        let idx = RelevanceIndex::build(&cs);
        let rel = idx.relevant(&parse_literal("p(a)").unwrap());
        assert_eq!(rel.len(), 2);
        let cons: Vec<usize> = rel.iter().map(|r| r.constraint).collect();
        assert!(cons.contains(&0) && cons.contains(&1));
        assert!(idx.any_relevant(&parse_literal("p(a)").unwrap()));
        assert!(!idx.any_relevant(&parse_literal("zzz(a)").unwrap()));
    }

    #[test]
    fn nonground_update_patterns_unify() {
        // Potential updates are patterns: member(V, W).
        let cs = constraints(&[
            "forall X, Y: member(X,Y) -> (forall Z: leads(Z,Y) -> subordinate(X,Z))",
        ]);
        let idx = RelevanceIndex::build(&cs);
        let rel = idx.relevant(&Literal::new(
            true,
            uniform_logic::Atom::parse_like("member", &["V", "W"]),
        ));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn universals_follow_existential_governance() {
        let cs =
            constraints(&["forall X: p(X) -> (exists Y: q(X,Y) & (forall Z: r(Y,Z) -> t(Z)))"]);
        let idx = RelevanceIndex::build(&cs);
        // X is instantiable; Z (inside ∃Y's scope) is not.
        let u: Vec<&str> = idx.universals(0).iter().map(|s| s.as_str()).collect();
        assert_eq!(u, vec!["X"]);
    }
}
