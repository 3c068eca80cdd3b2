//! Literal subsumption.
//!
//! The paper (§3.3.1) requires discarding subsumed literals while
//! constructing the set of potential updates: "In order to stop the
//! generation of potential updates in presence of recursive rules, it is
//! necessary to discard subsumed literals while constructing the set."
//!
//! `L` subsumes `L'` iff they have the same sign and there is a
//! substitution θ with `Lθ = L'` — i.e. every instance of `L'` is an
//! instance of `L`.

use crate::symbol::Sym;
use crate::term::{Atom, Literal, Term};

/// Does `general` subsume `specific` (is there θ with `general`·θ =
/// `specific`)? One-way: only variables of `general` are bound, and they
/// may be bound to variables of `specific`. The two atoms' variables are
/// apart even where their names agree — each literal of a set is
/// quantified on its own, and renamings draw from one pool of names —
/// so a term of `specific` is never looked up in θ.
pub fn atom_subsumes(general: &Atom, specific: &Atom) -> bool {
    if general.pred != specific.pred || general.args.len() != specific.args.len() {
        return false;
    }
    let mut theta: Vec<(Sym, Term)> = Vec::new();
    general
        .args
        .iter()
        .zip(&specific.args)
        .all(|(&g, &sp)| match g {
            Term::Const(_) => g == sp,
            Term::Var(v) => match theta.iter().find(|&&(x, _)| x == v) {
                Some(&(_, bound)) => bound == sp,
                None => {
                    theta.push((v, sp));
                    true
                }
            },
        })
}

/// Literal subsumption: same sign plus atom subsumption.
pub fn literal_subsumes(general: &Literal, specific: &Literal) -> bool {
    general.positive == specific.positive && atom_subsumes(&general.atom, &specific.atom)
}

/// A set of literals kept minimal under subsumption: inserting a literal
/// that is subsumed by an existing member is a no-op; inserting one that
/// subsumes existing members evicts them.
///
/// This is the data structure behind the potential-update computation
/// (Def. 5) — without it, recursive rules make the set infinite.
#[derive(Clone, Debug, Default)]
pub struct MinimalLiteralSet {
    items: Vec<Literal>,
}

impl MinimalLiteralSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `lit`; returns `true` if it was added (i.e. not already
    /// subsumed by a member).
    pub fn insert(&mut self, lit: Literal) -> bool {
        if self.items.iter().any(|have| literal_subsumes(have, &lit)) {
            return false;
        }
        self.items.retain(|have| !literal_subsumes(&lit, have));
        self.items.push(lit);
        true
    }

    pub fn contains_subsumer_of(&self, lit: &Literal) -> bool {
        self.items.iter().any(|have| literal_subsumes(have, lit))
    }

    pub fn iter(&self) -> impl Iterator<Item = &Literal> {
        self.items.iter()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn into_vec(self) -> Vec<Literal> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(p: &str, args: &[&str], positive: bool) -> Literal {
        Literal::new(positive, Atom::parse_like(p, args))
    }

    #[test]
    fn variable_subsumes_constant() {
        assert!(atom_subsumes(
            &Atom::parse_like("p", &["X"]),
            &Atom::parse_like("p", &["a"])
        ));
        assert!(!atom_subsumes(
            &Atom::parse_like("p", &["a"]),
            &Atom::parse_like("p", &["X"])
        ));
    }

    #[test]
    fn repeated_variables_constrain() {
        // p(X, X) does not subsume p(a, b), but p(X, Y) does.
        assert!(!atom_subsumes(
            &Atom::parse_like("p", &["X", "X"]),
            &Atom::parse_like("p", &["a", "b"])
        ));
        assert!(atom_subsumes(
            &Atom::parse_like("p", &["X", "Y"]),
            &Atom::parse_like("p", &["a", "b"])
        ));
        assert!(atom_subsumes(
            &Atom::parse_like("p", &["X", "Y"]),
            &Atom::parse_like("p", &["Z", "Z"])
        ));
    }

    #[test]
    fn shared_names_are_distinct_variables() {
        // p(X, X) is not more general than p(X', b), whatever the name
        // of X' is; p(X, Y, X) is not more general than p(Y', a, a).
        assert!(!atom_subsumes(
            &Atom::parse_like("p", &["X", "X"]),
            &Atom::parse_like("p", &["X", "b"])
        ));
        assert!(!atom_subsumes(
            &Atom::parse_like("p", &["X", "Y", "X"]),
            &Atom::parse_like("p", &["Y", "a", "a"])
        ));
        assert!(atom_subsumes(
            &Atom::parse_like("p", &["X", "Y"]),
            &Atom::parse_like("p", &["Y", "X"])
        ));
    }

    #[test]
    fn sign_matters() {
        assert!(!literal_subsumes(
            &lit("p", &["X"], true),
            &lit("p", &["a"], false)
        ));
        assert!(literal_subsumes(
            &lit("p", &["X"], false),
            &lit("p", &["a"], false)
        ));
    }

    #[test]
    fn minimal_set_discards_subsumed() {
        let mut set = MinimalLiteralSet::new();
        assert!(set.insert(lit("p", &["a", "Y"], true)));
        // Subsumed by the first: not added.
        assert!(!set.insert(lit("p", &["a", "b"], true)));
        assert_eq!(set.len(), 1);
        // More general: evicts the first.
        assert!(set.insert(lit("p", &["X", "Y"], true)));
        assert_eq!(set.len(), 1);
        assert!(set.contains_subsumer_of(&lit("p", &["c", "d"], true)));
        // Different predicate coexists.
        assert!(set.insert(lit("q", &["X"], true)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn variant_literals_subsume_each_other() {
        let mut set = MinimalLiteralSet::new();
        assert!(set.insert(lit("p", &["X", "Y"], true)));
        assert!(!set.insert(lit("p", &["U", "V"], true)));
        assert_eq!(set.len(), 1);
    }
}
