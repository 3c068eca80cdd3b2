//! Substitutions: finite maps from variables to terms.
//!
//! Bindings may be triangular (variable-to-variable chains), so lookups
//! `walk` to a fixed point. Application never captures: the language is
//! function-free, so a resolved binding is either a constant or an unbound
//! variable.

use crate::symbol::Sym;
use crate::term::{Atom, Fact, Literal, Term};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A substitution σ. Empty means identity.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: HashMap<Sym, Term, SymState>,
}

/// Hashes interned symbols — `u32`s, not outside input — with one
/// multiply per symbol: a [`Sym`], a tuple of them (`[Sym]`, whose
/// length goes through [`Hasher::write_usize`] as one more step) or a
/// [`Fact`]. The evaluators walk a substitution at every argument they
/// touch and the store hashes a tuple per lookup, so SipHash would be
/// most of their cost. Use it only for maps whose order no output
/// observes: the hash is fixed, and its low bits mix less than its
/// high ones.
#[derive(Default)]
pub struct SymHasher(u64);

/// The [`SymHasher`] builder, for `HashMap<K, V, SymState>`.
pub type SymState = BuildHasherDefault<SymHasher>;

impl Hasher for SymHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u32(n as u32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Subst {
    pub fn new() -> Subst {
        Subst::default()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Bind variable `v` to `t`. Panics in debug builds when rebinding a
    /// variable to a conflicting term — callers are expected to bind each
    /// variable once (unification walks before binding).
    pub fn bind(&mut self, v: Sym, t: Term) {
        debug_assert!(
            self.map.get(&v).is_none_or(|prev| *prev == t),
            "rebinding {v} (was {:?}, now {t:?})",
            self.map[&v]
        );
        self.map.insert(v, t);
    }

    /// Raw binding of `v`, without walking chains.
    pub fn get(&self, v: Sym) -> Option<Term> {
        self.map.get(&v).copied()
    }

    /// Remove the binding of `v` (trail-based undo in backtracking
    /// evaluators).
    pub fn unbind(&mut self, v: Sym) {
        self.map.remove(&v);
    }

    /// Resolve `t` through variable-to-variable chains until a constant or
    /// an unbound variable is reached.
    pub fn walk(&self, mut t: Term) -> Term {
        loop {
            match t {
                Term::Var(v) => match self.map.get(&v) {
                    Some(&next) => {
                        debug_assert!(next != t, "self-binding {v}");
                        t = next;
                    }
                    None => return t,
                },
                Term::Const(_) => return t,
            }
        }
    }

    /// Apply to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred,
            args: a.args.iter().map(|&t| self.walk(t)).collect(),
        }
    }

    /// Apply to a literal.
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        Literal {
            positive: l.positive,
            atom: self.apply_atom(&l.atom),
        }
    }

    /// Ground an atom to a fact; `None` if a variable stays unresolved.
    pub fn ground_atom(&self, a: &Atom) -> Option<Fact> {
        self.apply_atom(a).to_fact()
    }

    /// Restrict to the variables in `keep`, resolving chains so that the
    /// result is a flat map. This is the paper's τ construction (Def. 3):
    /// "the restriction of σ to those universally quantified variables that
    /// are not governed by an existentially quantified variable".
    pub fn restrict(&self, keep: &[Sym]) -> Subst {
        let mut out = Subst::new();
        for &v in keep {
            let resolved = self.walk(Term::Var(v));
            if resolved != Term::Var(v) {
                out.bind(v, resolved);
            }
        }
        out
    }

    /// Variables bound by this substitution, in name order — callers
    /// render and compare domains, so the backing map's iteration order
    /// must not leak.
    pub fn domain(&self) -> impl Iterator<Item = Sym> + '_ {
        let mut vars: Vec<Sym> = self.map.keys().copied().collect();
        vars.sort_by_key(|v| v.as_str());
        vars.into_iter()
    }

    /// Merge `other` into `self`; bindings must agree on shared variables.
    /// Returns `false` (leaving `self` in an unspecified but valid state
    /// for discarding) when they conflict.
    pub fn try_union(&mut self, other: &Subst) -> bool {
        for (&v, &t) in &other.map {
            let lhs = self.walk(Term::Var(v));
            let rhs = self.walk(t);
            match (lhs, rhs) {
                (a, b) if a == b => {}
                (Term::Var(v), t) | (t, Term::Var(v)) => self.bind(v, t),
                _ => return false,
            }
        }
        true
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by_key(|(v, _)| v.as_str());
        write!(f, "{{")?;
        for (i, (v, t)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}/{t:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Term {
        Term::Var(Sym::new(s))
    }
    fn c(s: &str) -> Term {
        Term::Const(Sym::new(s))
    }

    #[test]
    fn walk_follows_chains() {
        let mut s = Subst::new();
        s.bind(Sym::new("X"), v("Y"));
        s.bind(Sym::new("Y"), c("a"));
        assert_eq!(s.walk(v("X")), c("a"));
        assert_eq!(s.walk(v("Z")), v("Z"));
        assert_eq!(s.walk(c("b")), c("b"));
    }

    #[test]
    fn apply_atom_substitutes_all_positions() {
        let mut s = Subst::new();
        s.bind(Sym::new("X"), c("jack"));
        let a = Atom::parse_like("enrolled", &["X", "cs"]);
        assert_eq!(
            s.apply_atom(&a),
            Atom::parse_like("enrolled", &["jack", "cs"])
        );
    }

    #[test]
    fn restrict_resolves_and_drops_identity() {
        let mut s = Subst::new();
        s.bind(Sym::new("X"), v("Y"));
        s.bind(Sym::new("Y"), c("a"));
        s.bind(Sym::new("Z"), c("b"));
        let r = s.restrict(&[Sym::new("X"), Sym::new("W")]);
        assert_eq!(r.get(Sym::new("X")), Some(c("a")));
        assert_eq!(r.get(Sym::new("Z")), None);
        assert_eq!(r.get(Sym::new("W")), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn union_detects_conflicts() {
        let mut a = Subst::new();
        a.bind(Sym::new("X"), c("a"));
        let mut b = Subst::new();
        b.bind(Sym::new("X"), c("b"));
        assert!(!a.clone().try_union(&b));
        let mut ok = Subst::new();
        ok.bind(Sym::new("X"), c("a"));
        assert!(a.try_union(&ok));
    }

    #[test]
    fn ground_atom_needs_full_bindings() {
        let mut s = Subst::new();
        s.bind(Sym::new("X"), c("a"));
        let open = Atom::parse_like("p", &["X", "Y"]);
        assert!(s.ground_atom(&open).is_none());
        s.bind(Sym::new("Y"), c("b"));
        assert_eq!(
            s.ground_atom(&open),
            Some(Fact::parse_like("p", &["a", "b"]))
        );
    }
}
