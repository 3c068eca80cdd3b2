//! Literal subsumption.
//!
//! The paper (§3.3.1) requires discarding subsumed literals while
//! constructing the set of potential updates: "In order to stop the
//! generation of potential updates in presence of recursive rules, it is
//! necessary to discard subsumed literals while constructing the set."
//!
//! `L` subsumes `L'` iff they have the same sign and there is a
//! substitution θ with `Lθ = L'` — i.e. every instance of `L'` is an
//! instance of `L`. Two literals that subsume each other are variants:
//! equal up to renaming, and equal in their [`PatternKey`].

use crate::symbol::Sym;
use crate::term::{Atom, Literal, Term};
use std::cmp::Ordering;
use std::fmt;

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

/// A literal up to variable renaming: sign, predicate and arguments,
/// with variables numbered by first occurrence. Two literals have equal
/// keys iff they are variants of each other.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PatternKey {
    positive: bool,
    pred: Sym,
    args: Vec<KeyArg>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum KeyArg {
    Const(Sym),
    Var(usize),
}

impl PatternKey {
    pub fn of(lit: &Literal) -> PatternKey {
        let terms = &lit.atom.args;
        let mut vars = 0;
        let mut args: Vec<KeyArg> = Vec::with_capacity(terms.len());
        for (i, &t) in terms.iter().enumerate() {
            args.push(match (t, terms[..i].iter().position(|&u| u == t)) {
                (Term::Const(c), _) => KeyArg::Const(c),
                (Term::Var(_), Some(j)) => args[j],
                (Term::Var(_), None) => {
                    vars += 1;
                    KeyArg::Var(vars - 1)
                }
            });
        }
        PatternKey {
            positive: lit.positive,
            pred: lit.atom.pred,
            args,
        }
    }

    /// The key rendered as `+pred,c:a,v0`, byte by byte, every constant
    /// first mapped through `constant`; `None` stands for the bytes of a
    /// constant it does not know.
    fn rendered<'a>(
        &'a self,
        constant: &'a impl Fn(Sym) -> Option<Sym>,
    ) -> impl Iterator<Item = Option<u8>> + 'a {
        let head = [if self.positive { b'+' } else { b'-' }];
        let head = head.into_iter().chain(self.pred.as_str().bytes());
        let args = self.args.iter().flat_map(move |&arg| {
            let (tag, name, number, digits) = match arg {
                KeyArg::Const(c) => (",c:", constant(c).map(Sym::as_str), 0, 0),
                KeyArg::Var(n) => (",v", Some(""), n, n.checked_ilog10().unwrap_or(0) + 1),
            };
            let number = (0..digits)
                .rev()
                .map(move |i| b'0' + (number / 10usize.pow(i) % 10) as u8);
            let known = tag.bytes().chain(name.unwrap_or("").bytes()).chain(number);
            known.map(Some).chain(name.is_none().then_some(None))
        });
        head.map(Some).chain(args)
    }

    /// Order as the rendered keys order, every constant mapped through
    /// `constant`; `None` when they first differ at or after a constant
    /// it does not know.
    pub fn cmp_rendered(
        &self,
        other: &PatternKey,
        constant: impl Fn(Sym) -> Option<Sym>,
    ) -> Option<Ordering> {
        let (mut a, mut b) = (self.rendered(&constant), other.rendered(&constant));
        loop {
            match (a.next(), b.next()) {
                (None, None) => return Some(Ordering::Equal),
                (None, Some(_)) => return Some(Ordering::Less),
                (Some(_), None) => return Some(Ordering::Greater),
                (Some(Some(x)), Some(Some(y))) if x == y => {}
                (Some(Some(x)), Some(Some(y))) => return Some(x.cmp(&y)),
                _ => return None,
            }
        }
    }
}

impl fmt::Display for PatternKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bytes = self
            .rendered(&Some)
            .map(|b| b.expect("every constant known"));
        let bytes: Vec<u8> = bytes.collect();
        f.write_str(&String::from_utf8(bytes).expect("names are UTF-8"))
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

    /// Keys order as their rendered strings do, whichever constants
    /// take the place of the unknown ones, and report an order that
    /// depends on those only when one exists.
    #[test]
    fn keys_order_as_rendered_strings() {
        let names = ["a", "ab", "b", "_C$0", "v", "c", "p"];
        let mut lits = Vec::new();
        for pred in ["p", "pq", "q"] {
            for positive in [true, false] {
                for x in names.iter().chain(&["X", "Y"]) {
                    for y in names.iter().chain(&["X", "Y", "Z"]).step_by(2) {
                        lits.push(Literal::new(positive, Atom::parse_like(pred, &[x, y])));
                    }
                }
            }
        }
        let vars: Vec<String> = (0..12).map(|i| format!("V{i}")).collect();
        let vars: Vec<&str> = vars.iter().map(String::as_str).collect();
        lits.push(Literal::new(true, Atom::parse_like("p", &vars)));
        lits.push(Literal::new(true, Atom::parse_like("p", &vars[..11])));
        let unknown = ["ab", "v"].map(Sym::new);
        for (i, a) in lits.iter().enumerate() {
            for b in &lits[i..] {
                let (ka, kb) = (PatternKey::of(a), PatternKey::of(b));
                let want = ka.to_string().cmp(&kb.to_string());
                assert_eq!(ka.cmp_rendered(&kb, Some), Some(want), "{ka} {kb}");
                let fixed = ka.cmp_rendered(&kb, |c| (!unknown.contains(&c)).then_some(c));
                for constants in [["ab", "v"], ["zz", "a"], ["a", "ab"]] {
                    let constants = constants.map(Sym::new);
                    let map = |c: Sym| {
                        unknown
                            .iter()
                            .position(|&u| u == c)
                            .map_or(c, |k| constants[k])
                    };
                    let ground = |l: &Literal| {
                        let args = l.atom.args.iter().map(|&t| match t {
                            Term::Const(c) => Term::Const(map(c)),
                            Term::Var(_) => t,
                        });
                        let atom = Atom::new(l.atom.pred, args.collect());
                        PatternKey::of(&Literal::new(l.positive, atom)).to_string()
                    };
                    let want = ground(a).cmp(&ground(b));
                    assert_eq!(
                        ka.cmp_rendered(&kb, |c| Some(map(c))),
                        Some(want),
                        "{ka} {kb}"
                    );
                    assert!(
                        fixed.is_none_or(|o| o == want),
                        "{ka} {kb} fixed while unknown"
                    );
                }
            }
        }
    }
}
