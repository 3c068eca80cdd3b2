//! Unification, matching and renaming for the function-free language.
//!
//! Without function symbols there is no occurs-check to worry about:
//! bindings map variables to constants or to other variables, and
//! unification is linear in the number of argument positions. Renaming
//! apart ([`Renaming`]) draws its names from a fixed pool, so resolving
//! a rule against a goal interns no symbol.

use crate::rule::Rule;
use crate::subst::Subst;
use crate::symbol::Sym;
use crate::term::{Atom, Fact, Literal, Term};
use parking_lot::RwLock;
use std::sync::OnceLock;

/// Unify two terms under an accumulating substitution. Returns `false` on
/// clash (two distinct constants).
pub fn unify_terms(s: &mut Subst, a: Term, b: Term) -> bool {
    let a = s.walk(a);
    let b = s.walk(b);
    match (a, b) {
        (x, y) if x == y => true,
        (Term::Var(v), t) | (t, Term::Var(v)) => {
            s.bind(v, t);
            true
        }
        (Term::Const(_), Term::Const(_)) => false,
    }
}

/// Most general unifier of two atoms, or `None` if they do not unify.
pub fn unify_atoms(a: &Atom, b: &Atom) -> Option<Subst> {
    unify_atoms_under(&Subst::new(), a, b)
}

/// Unify two atoms extending an existing substitution.
pub fn unify_atoms_under(base: &Subst, a: &Atom, b: &Atom) -> Option<Subst> {
    if a.pred != b.pred || a.args.len() != b.args.len() {
        return None;
    }
    let mut s = base.clone();
    for (&x, &y) in a.args.iter().zip(&b.args) {
        if !unify_terms(&mut s, x, y) {
            return None;
        }
    }
    Some(s)
}

/// Most general unifier of two literals of the same sign.
pub fn unify_literals(a: &Literal, b: &Literal) -> Option<Subst> {
    if a.positive != b.positive {
        return None;
    }
    unify_atoms(&a.atom, &b.atom)
}

/// One-way matching: find σ with `pattern`σ = `ground`. Only variables of
/// the pattern are bound. Used for fact lookups and induced-update
/// instantiation.
pub fn match_atom(pattern: &Atom, ground: &Fact) -> Option<Subst> {
    if pattern.pred != ground.pred || pattern.args.len() != ground.args.len() {
        return None;
    }
    let mut s = Subst::new();
    for (&p, &g) in pattern.args.iter().zip(&ground.args) {
        match s.walk(p) {
            Term::Const(c) if c == g => {}
            Term::Const(_) => return None,
            Term::Var(v) => s.bind(v, Term::Const(g)),
        }
    }
    Some(s)
}

/// The `k`-th name of the renaming pool, `_R$k`. The lexer rejects `$`,
/// so no parsed program holds one. Each name is interned on its first
/// use in the process, so the pool is as large as the most variables one
/// renaming has needed.
fn pool_var(k: usize) -> Sym {
    static NAMES: OnceLock<RwLock<Vec<Sym>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| RwLock::new(Vec::new()));
    if let Some(&name) = names.read().get(k) {
        return name;
    }
    let mut names = names.write();
    while names.len() <= k {
        let name = Sym::new(&format!("_R${}", names.len()));
        names.push(name);
    }
    names[k]
}

/// Renaming apart without minting symbols. Renaming a rule apart
/// before resolving it against a non-ground partner only has to keep
/// the two variable sets disjoint, so the `i`-th distinct variable met
/// takes the `i`-th name of the fixed pool `_R$0, _R$1, …` that the
/// partner does not hold. However many requests rename, the pool holds
/// no more names than the largest renaming needed. (A ground partner
/// needs no renaming at all: match the rule as written.)
///
/// Variables shared by the atoms one `Renaming` renames stay shared.
///
/// ```
/// use uniform_logic::{Atom, Renaming, Term};
/// let goal = Atom::parse_like("tc", &["X", "b"]);
/// let head = Atom::parse_like("tc", &["X", "Z"]);
/// let renamed = Renaming::apart_from(&goal).atom(&head);
/// assert_eq!(renamed.to_string(), "tc(_R$0,_R$1)");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Renaming {
    /// The partner's variables, which no renamed variable may take.
    avoid: Vec<Sym>,
    /// Variable → its pool name, in order of first occurrence.
    map: Vec<(Sym, Sym)>,
    /// The next pool index to try.
    next: usize,
}

impl Renaming {
    /// A renaming whose names avoid the variables of `partner`.
    pub fn apart_from(partner: &Atom) -> Renaming {
        Renaming {
            avoid: partner.vars().collect(),
            ..Renaming::default()
        }
    }

    /// The pool name of `v`, chosen on its first occurrence.
    fn var(&mut self, v: Sym) -> Sym {
        if let Some(&(_, name)) = self.map.iter().find(|&&(from, _)| from == v) {
            return name;
        }
        let name = loop {
            let name = pool_var(self.next);
            self.next += 1;
            if !self.avoid.contains(&name) {
                break name;
            }
        };
        self.map.push((v, name));
        name
    }

    /// `a` with its variables renamed.
    pub fn atom(&mut self, a: &Atom) -> Atom {
        Atom {
            pred: a.pred,
            args: a
                .args
                .iter()
                .map(|&t| match t {
                    Term::Const(_) => t,
                    Term::Var(v) => Term::Var(self.var(v)),
                })
                .collect(),
        }
    }

    /// `l` with its variables renamed.
    pub fn literal(&mut self, l: &Literal) -> Literal {
        Literal {
            positive: l.positive,
            atom: self.atom(&l.atom),
        }
    }

    /// `r` with its variables renamed, head first. Range restriction and
    /// safe order survive a renaming, so the rule is not re-validated.
    pub fn rule(&mut self, r: &Rule) -> Rule {
        Rule {
            head: self.atom(&r.head),
            body: r.body.iter().map(|l| self.literal(l)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: &str, args: &[&str]) -> Atom {
        Atom::parse_like(p, args)
    }

    #[test]
    fn unifies_var_with_const() {
        let s = unify_atoms(&atom("p", &["X", "b"]), &atom("p", &["a", "Y"])).unwrap();
        assert_eq!(s.walk(Term::from_name("X")), Term::from_name("a"));
        assert_eq!(s.walk(Term::from_name("Y")), Term::from_name("b"));
    }

    #[test]
    fn clash_on_distinct_constants() {
        assert!(unify_atoms(&atom("p", &["a"]), &atom("p", &["b"])).is_none());
        assert!(unify_atoms(&atom("p", &["a"]), &atom("q", &["a"])).is_none());
        assert!(unify_atoms(&atom("p", &["a"]), &atom("p", &["a", "b"])).is_none());
    }

    #[test]
    fn var_var_sharing_propagates() {
        // p(X, X) with p(Y, a) must drive X (and Y) to a.
        let s = unify_atoms(&atom("p", &["X", "X"]), &atom("p", &["Y", "a"])).unwrap();
        assert_eq!(s.walk(Term::from_name("X")), Term::from_name("a"));
        assert_eq!(s.walk(Term::from_name("Y")), Term::from_name("a"));
    }

    #[test]
    fn repeated_var_clash() {
        assert!(unify_atoms(&atom("p", &["X", "X"]), &atom("p", &["a", "b"])).is_none());
    }

    #[test]
    fn literal_signs_must_agree() {
        let pos = atom("p", &["X"]).pos();
        let neg = atom("p", &["a"]).neg();
        assert!(unify_literals(&pos, &neg).is_none());
        assert!(unify_literals(&pos, &neg.complement()).is_some());
    }

    #[test]
    fn matching_is_one_way() {
        let f = Fact::parse_like("p", &["a", "a"]);
        assert!(match_atom(&atom("p", &["X", "X"]), &f).is_some());
        assert!(match_atom(&atom("p", &["X", "b"]), &f).is_none());
        let f2 = Fact::parse_like("p", &["a", "b"]);
        assert!(match_atom(&atom("p", &["X", "X"]), &f2).is_none());
    }

    #[test]
    fn renaming_preserves_sharing() {
        let mut ren = Renaming::default();
        let a = ren.atom(&atom("p", &["X", "Y"]));
        let b = ren.atom(&atom("q", &["X"]));
        assert_eq!(a.args[0], b.args[0]);
        assert_ne!(a.args[0], a.args[1]);
        assert_ne!(a.args[0], Term::from_name("X"));
        assert!(a.args[0].is_var());
    }

    #[test]
    fn renaming_skips_the_partners_pool_names() {
        let partner = Atom::new("p", vec![Term::Var(pool_var(0)), Term::Var(pool_var(1))]);
        let renamed = Renaming::apart_from(&partner).atom(&atom("q", &["X", "Y", "a"]));
        let args = [
            Term::Var(pool_var(2)),
            Term::Var(pool_var(3)),
            Term::from_name("a"),
        ];
        assert_eq!(renamed.args, args);
    }

    #[test]
    fn renamings_against_disjoint_partners_reuse_names() {
        let rule = "tc(X, Z) :- tc(X, Y), edge(Y, Z).";
        let rule = crate::parser::parse_rule(rule).unwrap();
        let one = Renaming::apart_from(&atom("tc", &["A", "b"])).rule(&rule);
        let two = Renaming::apart_from(&atom("tc", &["a", "B"])).rule(&rule);
        assert_eq!(one, two);
        assert_eq!(
            one.to_string(),
            "tc(_R$0,_R$1) :- tc(_R$0,_R$2), edge(_R$2,_R$1)"
        );
    }
}
