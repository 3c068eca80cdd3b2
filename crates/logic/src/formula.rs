//! Formula ASTs.
//!
//! Two levels are distinguished:
//!
//! * [`Formula`] — the general first-order surface syntax produced by the
//!   parser: arbitrary connectives, unrestricted quantifiers.
//! * [`Rq`] — the normalized *restricted quantification* form the paper
//!   assumes for integrity constraints (§2): rectified, miniscoped,
//!   negation normal form, ∨ distributed over ∧, and every quantifier of
//!   one of the shapes
//!
//!   ```text
//!   ∃X1..Xn [ A1 ∧ .. ∧ Am ∧ Q ]
//!   ∀X1..Xn [ ¬A1 ∨ .. ∨ ¬Am ∨ Q ]
//!   ```
//!
//!   where every `Xi` occurs in at least one `Aj` (the *range*). The range
//!   makes constraints domain independent, which is what allows integrity
//!   checking to evaluate only constraints mentioning updated relations.
//!
//! The conversion lives in [`crate::normalize()`].

use crate::subst::Subst;
use crate::symbol::Sym;
use crate::term::{Atom, Literal};
use std::collections::BTreeSet;
use std::fmt;

/// General first-order formula over function-free atoms.
#[derive(Clone, PartialEq, Eq)]
pub enum Formula {
    True,
    False,
    Atom(Atom),
    Not(Box<Formula>),
    And(Vec<Formula>),
    Or(Vec<Formula>),
    Implies(Box<Formula>, Box<Formula>),
    Iff(Box<Formula>, Box<Formula>),
    Forall(Vec<Sym>, Box<Formula>),
    Exists(Vec<Sym>, Box<Formula>),
}

impl Formula {
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    pub fn implies(a: Formula, b: Formula) -> Formula {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    pub fn iff(a: Formula, b: Formula) -> Formula {
        Formula::Iff(Box::new(a), Box::new(b))
    }

    pub fn forall(vars: Vec<Sym>, f: Formula) -> Formula {
        Formula::Forall(vars, Box::new(f))
    }

    pub fn exists(vars: Vec<Sym>, f: Formula) -> Formula {
        Formula::Exists(vars, Box::new(f))
    }

    /// Free variables, in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Sym> {
        fn go(f: &Formula, bound: &mut Vec<Sym>, out: &mut Vec<Sym>, seen: &mut BTreeSet<Sym>) {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom(a) => {
                    for v in a.vars() {
                        if !bound.contains(&v) && seen.insert(v) {
                            out.push(v);
                        }
                    }
                }
                Formula::Not(g) => go(g, bound, out, seen),
                Formula::And(gs) | Formula::Or(gs) => {
                    for g in gs {
                        go(g, bound, out, seen);
                    }
                }
                Formula::Implies(a, b) | Formula::Iff(a, b) => {
                    go(a, bound, out, seen);
                    go(b, bound, out, seen);
                }
                Formula::Forall(vs, g) | Formula::Exists(vs, g) => {
                    let n = bound.len();
                    bound.extend(vs.iter().copied());
                    go(g, bound, out, seen);
                    bound.truncate(n);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out, &mut BTreeSet::new());
        out
    }

    /// True if the formula has no free variables.
    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Not(g) => write!(f, "~({g:?})"),
            Formula::And(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{g:?}")?;
                }
                write!(f, ")")
            }
            Formula::Or(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{g:?}")?;
                }
                write!(f, ")")
            }
            Formula::Implies(a, b) => write!(f, "({a:?} -> {b:?})"),
            Formula::Iff(a, b) => write!(f, "({a:?} <-> {b:?})"),
            // Quantifiers print parenthesized: their scope extends
            // maximally right in the grammar, so an unparenthesized
            // rendering inside a larger formula would re-parse with a
            // wider scope.
            Formula::Forall(vs, g) => {
                write!(f, "(forall ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ": {g:?})")
            }
            Formula::Exists(vs, g) => {
                write!(f, "(exists ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ": {g:?})")
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Normalized restricted-quantification formula (negation normal form;
/// negation only on literals; quantifiers carry their range).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Rq {
    True,
    False,
    Lit(Literal),
    And(Vec<Rq>),
    Or(Vec<Rq>),
    /// `∀ vars [ ¬range1 ∨ … ∨ ¬rangem ∨ body ]`
    Forall {
        vars: Vec<Sym>,
        range: Vec<Atom>,
        body: Box<Rq>,
    },
    /// `∃ vars [ range1 ∧ … ∧ rangem ∧ body ]`
    Exists {
        vars: Vec<Sym>,
        range: Vec<Atom>,
        body: Box<Rq>,
    },
}

/// One step of a path into an [`Rq`] tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RqStep {
    /// i-th child of an `And`/`Or`.
    Child(usize),
    /// i-th range atom of a quantifier.
    Range(usize),
    /// Body of a quantifier.
    Body,
}

/// Path from the root of an [`Rq`] to a literal occurrence.
pub type RqPath = Vec<RqStep>;

/// A literal occurrence in an [`Rq`]: its path and the literal *as it
/// occurs* (range atoms of a `∀` occur negatively, of an `∃` positively).
#[derive(Clone, Debug)]
pub struct RqLiteral {
    pub path: RqPath,
    pub literal: Literal,
}

impl Rq {
    /// Smart conjunction: flattens, drops `True`, collapses on `False`.
    pub fn and(parts: Vec<Rq>) -> Rq {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Rq::True => {}
                Rq::False => return Rq::False,
                Rq::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Rq::True,
            1 => out.pop().unwrap(),
            _ => Rq::And(out),
        }
    }

    /// Smart disjunction: flattens, drops `False`, collapses on `True`.
    pub fn or(parts: Vec<Rq>) -> Rq {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Rq::False => {}
                Rq::True => return Rq::True,
                Rq::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Rq::False,
            1 => out.pop().unwrap(),
            _ => Rq::Or(out),
        }
    }

    /// All literal occurrences, with paths. Range atoms are reported with
    /// the polarity they carry in the logical reading of the node.
    pub fn literals(&self) -> Vec<RqLiteral> {
        let mut out = Vec::new();
        self.collect_literals(&mut Vec::new(), &mut out);
        out
    }

    /// Call `f` on every atom of the formula, literal and range atoms
    /// alike, in the order of [`Rq::literals`], without copying one:
    /// the walk for callers that read only atoms or predicates.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a Atom)) {
        match self {
            Rq::True | Rq::False => {}
            Rq::Lit(l) => f(&l.atom),
            Rq::And(gs) | Rq::Or(gs) => {
                for g in gs {
                    g.for_each_atom(f);
                }
            }
            Rq::Forall { range, body, .. } | Rq::Exists { range, body, .. } => {
                for a in range {
                    f(a);
                }
                body.for_each_atom(f);
            }
        }
    }

    fn collect_literals(&self, path: &mut RqPath, out: &mut Vec<RqLiteral>) {
        match self {
            Rq::True | Rq::False => {}
            Rq::Lit(l) => out.push(RqLiteral {
                path: path.clone(),
                literal: l.clone(),
            }),
            Rq::And(gs) | Rq::Or(gs) => {
                for (i, g) in gs.iter().enumerate() {
                    path.push(RqStep::Child(i));
                    g.collect_literals(path, out);
                    path.pop();
                }
            }
            Rq::Forall { range, body, .. } => {
                for (i, a) in range.iter().enumerate() {
                    path.push(RqStep::Range(i));
                    out.push(RqLiteral {
                        path: path.clone(),
                        literal: a.clone().neg(),
                    });
                    path.pop();
                }
                path.push(RqStep::Body);
                body.collect_literals(path, out);
                path.pop();
            }
            Rq::Exists { range, body, .. } => {
                for (i, a) in range.iter().enumerate() {
                    path.push(RqStep::Range(i));
                    out.push(RqLiteral {
                        path: path.clone(),
                        literal: a.clone().pos(),
                    });
                    path.pop();
                }
                path.push(RqStep::Body);
                body.collect_literals(path, out);
                path.pop();
            }
        }
    }

    /// Free variables in first-occurrence order.
    pub fn free_vars(&self) -> Vec<Sym> {
        fn go(f: &Rq, bound: &mut Vec<Sym>, out: &mut Vec<Sym>, seen: &mut BTreeSet<Sym>) {
            match f {
                Rq::True | Rq::False => {}
                Rq::Lit(l) => {
                    for v in l.vars() {
                        if !bound.contains(&v) && seen.insert(v) {
                            out.push(v);
                        }
                    }
                }
                Rq::And(gs) | Rq::Or(gs) => {
                    for g in gs {
                        go(g, bound, out, seen);
                    }
                }
                Rq::Forall { vars, range, body } | Rq::Exists { vars, range, body } => {
                    let n = bound.len();
                    bound.extend(vars.iter().copied());
                    for a in range {
                        for v in a.vars() {
                            if !bound.contains(&v) && seen.insert(v) {
                                out.push(v);
                            }
                        }
                    }
                    go(body, bound, out, seen);
                    bound.truncate(n);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out, &mut BTreeSet::new());
        out
    }

    pub fn is_closed(&self) -> bool {
        self.free_vars().is_empty()
    }

    /// Universally quantified variables **not governed by an existential
    /// quantifier** — the domain of the defining substitution τ of Def. 3.
    pub fn instantiable_universals(&self) -> Vec<Sym> {
        fn go(f: &Rq, under_exists: bool, out: &mut Vec<Sym>) {
            match f {
                Rq::True | Rq::False | Rq::Lit(_) => {}
                Rq::And(gs) | Rq::Or(gs) => {
                    for g in gs {
                        go(g, under_exists, out);
                    }
                }
                Rq::Forall { vars, body, .. } => {
                    if !under_exists {
                        out.extend(vars.iter().copied());
                    }
                    go(body, under_exists, out);
                }
                Rq::Exists { body, .. } => go(body, true, out),
            }
        }
        let mut out = Vec::new();
        go(self, false, &mut out);
        out
    }

    /// Apply a substitution. Variables bound by quantifiers inside `self`
    /// are removed from their quantifier lists when the substitution binds
    /// them (Def. 3: "dropping quantifiers for variables grounded by τ"),
    /// and the binding is applied throughout their scope.
    ///
    /// Rectification guarantees quantified names are globally unique, so a
    /// binding can never capture.
    pub fn apply(&self, s: &Subst) -> Rq {
        match self {
            Rq::True => Rq::True,
            Rq::False => Rq::False,
            Rq::Lit(l) => Rq::Lit(s.apply_literal(l)),
            Rq::And(gs) => Rq::and(gs.iter().map(|g| g.apply(s)).collect()),
            Rq::Or(gs) => Rq::or(gs.iter().map(|g| g.apply(s)).collect()),
            Rq::Forall { vars, range, body } => {
                let remaining: Vec<Sym> = vars
                    .iter()
                    .copied()
                    .filter(|&v| s.get(v).is_none())
                    .collect();
                let range: Vec<Atom> = range.iter().map(|a| s.apply_atom(a)).collect();
                let body = body.apply(s);
                Rq::forall_node(remaining, range, body)
            }
            Rq::Exists { vars, range, body } => {
                let remaining: Vec<Sym> = vars
                    .iter()
                    .copied()
                    .filter(|&v| s.get(v).is_none())
                    .collect();
                let range: Vec<Atom> = range.iter().map(|a| s.apply_atom(a)).collect();
                let body = body.apply(s);
                Rq::exists_node(remaining, range, body)
            }
        }
    }

    /// `self` with every atom mapped through `f`, in the order
    /// [`Rq::literals`] lists them, node for node: no smart constructor
    /// runs, so the shape is kept.
    pub fn map_atoms(&self, f: &mut impl FnMut(&Atom) -> Atom) -> Rq {
        let mut quantified = |vars: &[Sym], range: &[Atom], body: &Rq| {
            let range = range.iter().map(&mut *f).collect();
            (vars.to_vec(), range, Box::new(body.map_atoms(f)))
        };
        match self {
            Rq::True => Rq::True,
            Rq::False => Rq::False,
            Rq::Lit(l) => Rq::Lit(Literal::new(l.positive, f(&l.atom))),
            Rq::And(gs) => Rq::And(gs.iter().map(|g| g.map_atoms(f)).collect()),
            Rq::Or(gs) => Rq::Or(gs.iter().map(|g| g.map_atoms(f)).collect()),
            Rq::Forall { vars, range, body } => {
                let (vars, range, body) = quantified(vars, range, body);
                Rq::Forall { vars, range, body }
            }
            Rq::Exists { vars, range, body } => {
                let (vars, range, body) = quantified(vars, range, body);
                Rq::Exists { vars, range, body }
            }
        }
    }

    /// Build a `∀` node, degrading to a plain disjunction when no
    /// variables remain quantified (absorption of Def. 3 step b).
    pub fn forall_node(vars: Vec<Sym>, range: Vec<Atom>, body: Rq) -> Rq {
        if vars.is_empty() {
            let mut parts: Vec<Rq> = range.into_iter().map(|a| Rq::Lit(a.neg())).collect();
            parts.push(body);
            Rq::or(parts)
        } else if matches!(body, Rq::True) {
            Rq::True
        } else {
            Rq::Forall {
                vars,
                range,
                body: Box::new(body),
            }
        }
    }

    /// Build an `∃` node, degrading to a plain conjunction when no
    /// variables remain quantified.
    pub fn exists_node(vars: Vec<Sym>, range: Vec<Atom>, body: Rq) -> Rq {
        if vars.is_empty() {
            let mut parts: Vec<Rq> = range.into_iter().map(|a| Rq::Lit(a.pos())).collect();
            parts.push(body);
            Rq::and(parts)
        } else if matches!(body, Rq::False) {
            Rq::False
        } else {
            Rq::Exists {
                vars,
                range,
                body: Box::new(body),
            }
        }
    }

    /// Replace the literal occurrence at `path` by `false`, applying the
    /// absorption laws on the way out (Def. 3 step b: "replacing Lτ by
    /// false … and eventually applying absorption laws").
    ///
    /// A range atom of a `∀` reads as a negative disjunct, so replacing it
    /// with `false` simply removes it from the range; a range atom of an
    /// `∃` is a conjunct, so the quantified matrix — hence the whole `∃` —
    /// collapses to `false`.
    pub fn replace_with_false(&self, path: &[RqStep]) -> Rq {
        match (self, path.split_first()) {
            (Rq::Lit(_), None) => Rq::False,
            (Rq::And(gs), Some((RqStep::Child(i), rest))) => {
                let mut parts = gs.clone();
                parts[*i] = parts[*i].replace_with_false(rest);
                Rq::and(parts)
            }
            (Rq::Or(gs), Some((RqStep::Child(i), rest))) => {
                let mut parts = gs.clone();
                parts[*i] = parts[*i].replace_with_false(rest);
                Rq::or(parts)
            }
            (Rq::Forall { vars, range, body }, Some((RqStep::Range(i), rest))) => {
                debug_assert!(rest.is_empty());
                let mut range = range.clone();
                range.remove(*i);
                Rq::forall_node(vars.clone(), range, (**body).clone())
            }
            (Rq::Exists { .. }, Some((RqStep::Range(_), rest))) => {
                debug_assert!(rest.is_empty());
                Rq::False
            }
            (Rq::Forall { vars, range, body }, Some((RqStep::Body, rest))) => {
                Rq::forall_node(vars.clone(), range.clone(), body.replace_with_false(rest))
            }
            (Rq::Exists { vars, range, body }, Some((RqStep::Body, rest))) => {
                Rq::exists_node(vars.clone(), range.clone(), body.replace_with_false(rest))
            }
            _ => panic!("replace_with_false: path does not match formula shape"),
        }
    }

    /// Is the outermost structure universal? A constraint set whose members
    /// are all universal is satisfied in the empty database (§4: "each
    /// constraint is a universal formula, i.e., its outermost quantifier is
    /// ∀" — every instance then contains a negative literal).
    pub fn is_universal(&self) -> bool {
        match self {
            Rq::True => true,
            Rq::False => false,
            Rq::Lit(l) => !l.positive,
            Rq::And(gs) | Rq::Or(gs) => gs.iter().all(|g| g.is_universal()),
            Rq::Forall { .. } => true,
            Rq::Exists { .. } => false,
        }
    }

    /// All predicate symbols occurring in the formula.
    pub fn predicates(&self) -> BTreeSet<Sym> {
        self.literals()
            .into_iter()
            .map(|o| o.literal.atom.pred)
            .collect()
    }
}

impl fmt::Debug for Rq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn vars_list(f: &mut fmt::Formatter<'_>, vars: &[Sym]) -> fmt::Result {
            for (i, v) in vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
        match self {
            Rq::True => write!(f, "true"),
            Rq::False => write!(f, "false"),
            Rq::Lit(l) => write!(f, "{l}"),
            Rq::And(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{g:?}")?;
                }
                write!(f, ")")
            }
            Rq::Or(gs) => {
                write!(f, "(")?;
                for (i, g) in gs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{g:?}")?;
                }
                write!(f, ")")
            }
            Rq::Forall { vars, range, body } => {
                write!(f, "forall [")?;
                vars_list(f, vars)?;
                write!(f, "] (")?;
                for (i, a) in range.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") => {body:?}")
            }
            Rq::Exists { vars, range, body } => {
                write!(f, "exists [")?;
                vars_list(f, vars)?;
                write!(f, "] (")?;
                for (i, a) in range.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") with {body:?}")
            }
        }
    }
}

impl fmt::Display for Rq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A named, normalized integrity constraint.
#[derive(Clone, Debug)]
pub struct Constraint {
    pub name: String,
    pub rq: Rq,
}

impl Constraint {
    pub fn new(name: impl Into<String>, rq: Rq) -> Constraint {
        Constraint {
            name: name.into(),
            rq,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.rq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn sym(s: &str) -> Sym {
        Sym::new(s)
    }

    /// C2 from the paper: ∀XY ¬p(X,Y) ∨ [∃Z q(X,Z) ∧ ¬s(Y,Z,a)]
    fn c2() -> Rq {
        Rq::Forall {
            vars: vec![sym("X"), sym("Y")],
            range: vec![Atom::parse_like("p", &["X", "Y"])],
            body: Box::new(Rq::Exists {
                vars: vec![sym("Z")],
                range: vec![Atom::parse_like("q", &["X", "Z"])],
                body: Box::new(Rq::Lit(Atom::parse_like("s", &["Y", "Z", "a"]).neg())),
            }),
        }
    }

    #[test]
    fn literal_occurrences_carry_polarity() {
        let lits = c2().literals();
        let rendered: Vec<String> = lits.iter().map(|o| o.literal.to_string()).collect();
        assert_eq!(rendered, vec!["not p(X,Y)", "q(X,Z)", "not s(Y,Z,a)"]);
    }

    #[test]
    fn atom_walk_follows_the_literal_order() {
        let mut atoms = Vec::new();
        c2().for_each_atom(&mut |a| atoms.push(a.to_string()));
        let lits: Vec<String> = c2()
            .literals()
            .iter()
            .map(|o| o.literal.atom.to_string())
            .collect();
        assert_eq!(atoms, lits);
    }

    #[test]
    fn instantiable_universals_exclude_existential_scope() {
        // X, Y are top-level universals; Z is existential. A universal
        // nested under the existential would be excluded too.
        assert_eq!(c2().instantiable_universals(), vec![sym("X"), sym("Y")]);

        let nested = Rq::Exists {
            vars: vec![sym("Z")],
            range: vec![Atom::parse_like("q", &["Z"])],
            body: Box::new(Rq::Forall {
                vars: vec![sym("W")],
                range: vec![Atom::parse_like("r", &["Z", "W"])],
                body: Box::new(Rq::Lit(Atom::parse_like("t", &["W"]).pos())),
            }),
        };
        assert!(nested.instantiable_universals().is_empty());
    }

    #[test]
    fn apply_drops_bound_quantified_vars() {
        let mut tau = Subst::new();
        tau.bind(sym("X"), Term::from_name("c1"));
        let inst = c2().apply(&tau);
        match &inst {
            Rq::Forall { vars, range, .. } => {
                assert_eq!(vars, &vec![sym("Y")]);
                assert_eq!(range[0], Atom::parse_like("p", &["c1", "Y"]));
            }
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn apply_grounding_all_vars_degrades_quantifier() {
        let c1 = Rq::Forall {
            vars: vec![sym("X")],
            range: vec![Atom::parse_like("p", &["X"])],
            body: Box::new(Rq::Lit(Atom::parse_like("q", &["X"]).pos())),
        };
        let mut tau = Subst::new();
        tau.bind(sym("X"), Term::from_name("a"));
        let inst = c1.apply(&tau);
        // ∀ collapses to ¬p(a) ∨ q(a).
        assert_eq!(
            inst,
            Rq::Or(vec![
                Rq::Lit(Atom::parse_like("p", &["a"]).neg()),
                Rq::Lit(Atom::parse_like("q", &["a"]).pos()),
            ])
        );
    }

    #[test]
    fn replace_range_atom_of_forall_removes_it() {
        let c1 = Rq::Forall {
            vars: vec![],
            range: vec![Atom::parse_like("p", &["a"])],
            body: Box::new(Rq::Lit(Atom::parse_like("q", &["a"]).pos())),
        };
        // Note: empty vars is already degenerate via forall_node, but the
        // raw node is still navigable.
        let out = c1.replace_with_false(&[RqStep::Range(0)]);
        assert_eq!(out, Rq::Lit(Atom::parse_like("q", &["a"]).pos()));
    }

    #[test]
    fn replace_in_exists_range_collapses() {
        let e = Rq::Exists {
            vars: vec![sym("Z")],
            range: vec![Atom::parse_like("q", &["Z"])],
            body: Box::new(Rq::True),
        };
        assert_eq!(e.replace_with_false(&[RqStep::Range(0)]), Rq::False);
    }

    #[test]
    fn or_and_smart_constructors_absorb() {
        assert_eq!(Rq::or(vec![Rq::False, Rq::False]), Rq::False);
        assert_eq!(Rq::or(vec![Rq::False, Rq::True]), Rq::True);
        assert_eq!(Rq::and(vec![Rq::True, Rq::True]), Rq::True);
        assert_eq!(Rq::and(vec![Rq::True, Rq::False]), Rq::False);
        let l = Rq::Lit(Atom::parse_like("p", &[]).pos());
        assert_eq!(Rq::or(vec![Rq::False, l.clone()]), l);
        assert_eq!(Rq::and(vec![l.clone(), Rq::True]), l);
        // Nested flattening.
        let m = Rq::Lit(Atom::parse_like("q", &[]).pos());
        assert_eq!(
            Rq::or(vec![Rq::Or(vec![l.clone(), m.clone()]), Rq::False]),
            Rq::Or(vec![l, m])
        );
    }

    #[test]
    fn universality_check() {
        assert!(c2().is_universal());
        let e = Rq::Exists {
            vars: vec![sym("X")],
            range: vec![Atom::parse_like("employee", &["X"])],
            body: Box::new(Rq::True),
        };
        assert!(!e.is_universal());
        assert!(Rq::Lit(Atom::parse_like("p", &["a"]).neg()).is_universal());
        assert!(!Rq::Lit(Atom::parse_like("p", &["a"]).pos()).is_universal());
    }

    #[test]
    fn free_vars_of_open_instance() {
        let mut tau = Subst::new();
        tau.bind(sym("X"), Term::Var(sym("V"))); // potential-update binding
        let inst = c2().apply(&tau);
        assert_eq!(inst.free_vars(), vec![sym("V")]);
    }

    #[test]
    fn predicates_collected() {
        let preds = c2().predicates();
        let names: Vec<&str> = preds.iter().map(|p| p.as_str()).collect();
        assert_eq!(names, vec!["p", "q", "s"]);
    }
}
