//! Conjunctive-query evaluation over an [`Interp`].
//!
//! Evaluates a conjunction of literals with trail-based backtracking:
//! positive literals scan the interpretation with the pattern induced by
//! the bindings accumulated so far; negative literals are checked by
//! negation as failure once ground. This single evaluator serves rule
//! bodies, the ranges of restricted quantifiers, and the `B\L'` residue
//! queries of induced-update computation (Def. 4).
//!
//! Literals are dispatched in an order fixed once per call rather than
//! strictly left to right: fully bound literals (membership tests and
//! ground negations) first, then the positive literal with the most bound
//! argument positions. This is the standard bound-is-easier heuristic;
//! range restriction guarantees a safe order always exists, and the
//! answer set is order independent. Which positions are bound at each
//! step depends only on the bindings on entry — a dispatched positive
//! literal binds all of its variables — so `greedy_order` computes the
//! whole order before the first scan, and [`solve_conjunction`] runs it
//! through the same loop as a prepared [`solve_planned`].

use crate::interp::Interp;
use uniform_logic::{Atom, Fact, Literal, Subst, Sym, Term};

/// One conjunct of a conjunction: a literal, or a quantifier's range
/// atom, which is always positive.
pub(crate) trait Conjunct {
    fn positive(&self) -> bool;
    fn atom(&self) -> &Atom;
}

impl Conjunct for Literal {
    fn positive(&self) -> bool {
        self.positive
    }
    fn atom(&self) -> &Atom {
        &self.atom
    }
}

impl Conjunct for Atom {
    fn positive(&self) -> bool {
        true
    }
    fn atom(&self) -> &Atom {
        self
    }
}

/// Bind pattern of `atom` under `subst`: `Some(c)` for positions resolved
/// to a constant.
pub fn bind_pattern(subst: &Subst, atom: &Atom) -> Vec<Option<Sym>> {
    atom.args
        .iter()
        .map(|&t| subst.walk(t).as_const())
        .collect()
}

/// `atom` under `subst` as a fact; `None` if a variable stays unbound.
pub(crate) fn ground_fact(subst: &Subst, atom: &Atom) -> Option<Fact> {
    let args = atom
        .args
        .iter()
        .map(|&t| subst.walk(t).as_const())
        .collect::<Option<Vec<Sym>>>()?;
    Some(Fact {
        pred: atom.pred,
        args,
    })
}

/// Extend `subst` so that `atom`σ = `tuple`; records newly bound
/// variables on `trail` for undo. Returns `false` (with a clean trail
/// rollback left to the caller) on mismatch.
pub fn extend_match(subst: &mut Subst, atom: &Atom, tuple: &[Sym], trail: &mut Vec<Sym>) -> bool {
    for (&t, &v) in atom.args.iter().zip(tuple) {
        match subst.walk(t) {
            Term::Const(c) => {
                if c != v {
                    return false;
                }
            }
            Term::Var(var) => {
                subst.bind(var, Term::Const(v));
                trail.push(var);
            }
        }
    }
    true
}

fn unwind(subst: &mut Subst, trail: &mut Vec<Sym>, mark: usize) {
    while trail.len() > mark {
        let v = trail.pop().unwrap();
        subst.unbind(v);
    }
}

/// Enumerate all substitutions extending `subst` that satisfy the
/// conjunction of `literals` in `interp`. Calls `each` for every answer;
/// `each` returns `false` to stop. Returns `false` iff enumeration was
/// aborted.
///
/// `subst` is used as working state and restored before returning.
pub fn solve_conjunction(
    interp: &dyn Interp,
    literals: &[Literal],
    subst: &mut Subst,
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    let order = greedy_order(literals, |t| subst.walk(t));
    solve_planned(interp, literals, &order, subst, each)
}

/// The order in which the greedy heuristic dispatches `conjuncts`, as
/// indices, given `walk`, which resolves a term under the bindings on
/// entry (a constant is bound; an unbound variable resolves to itself,
/// or to the variable it is aliased to). At each step the first fully
/// bound conjunct in slot order goes next, whatever its sign; otherwise
/// the first positive conjunct with the most bound positions, which then
/// binds every variable it holds. When only non-ground negative
/// conjuncts remain the rest follow in slot order, so the first of them
/// panics when dispatched, as an unsafe conjunction must.
pub(crate) fn greedy_order<C: Conjunct>(
    conjuncts: &[C],
    walk: impl Fn(Term) -> Term,
) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..conjuncts.len()).collect();
    let mut order = Vec::with_capacity(conjuncts.len());
    // Variables (after walking) bound by the positives dispatched so far.
    let mut bound: Vec<Sym> = Vec::new();
    while !remaining.is_empty() {
        let is_bound = |t: Term| match walk(t) {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(&v),
        };
        let mut best = None;
        let mut best_score = -1isize;
        for (slot, &idx) in remaining.iter().enumerate() {
            let c = &conjuncts[idx];
            let args = &c.atom().args;
            let score = args.iter().filter(|&&t| is_bound(t)).count();
            if score == args.len() {
                best = Some(slot);
                break;
            }
            if c.positive() && score as isize > best_score {
                best_score = score as isize;
                best = Some(slot);
            }
        }
        let Some(slot) = best else {
            order.append(&mut remaining);
            break;
        };
        let idx = remaining.remove(slot);
        if conjuncts[idx].positive() {
            for &t in &conjuncts[idx].atom().args {
                if let Term::Var(v) = walk(t) {
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                }
            }
        }
        order.push(idx);
    }
    order
}

/// The conjuncts to dispatch, in turn.
#[derive(Clone, Copy)]
pub(crate) enum Steps<'o> {
    /// The listed indices.
    Listed(&'o [usize]),
    /// Every index from the given one on: the conjuncts are stored in
    /// dispatch order.
    Stored(usize),
}

impl Steps<'_> {
    fn split(self, len: usize) -> Option<(usize, Self)> {
        match self {
            Steps::Listed(order) => order
                .split_first()
                .map(|(&idx, rest)| (idx, Steps::Listed(rest))),
            Steps::Stored(from) => (from < len).then_some((from, Steps::Stored(from + 1))),
        }
    }
}

/// Dispatch `conjuncts` in the order `steps` gives, enumerating every
/// extension of `subst` that satisfies them all.
pub(crate) fn solve_steps<C: Conjunct>(
    interp: &dyn Interp,
    conjuncts: &[C],
    steps: Steps<'_>,
    subst: &mut Subst,
    trail: &mut Vec<Sym>,
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    let Some((idx, rest)) = steps.split(conjuncts.len()) else {
        return each(subst);
    };
    let atom = conjuncts[idx].atom();
    if conjuncts[idx].positive() {
        let pattern = bind_pattern(subst, atom);
        let mut keep_going = true;
        interp.scan(atom.pred, &pattern, &mut |tuple| {
            let mark = trail.len();
            if extend_match(subst, atom, tuple, trail) {
                keep_going = solve_steps(interp, conjuncts, rest, subst, trail, each);
            }
            unwind(subst, trail, mark);
            keep_going
        });
        keep_going
    } else {
        let fact = ground_fact(subst, atom).unwrap_or_else(|| {
            panic!(
                "negative literal not ground when evaluated: not {} (unsafe plan?)",
                subst.apply_atom(atom)
            )
        });
        if interp.holds(&fact) {
            true // this branch fails, enumeration continues elsewhere
        } else {
            solve_steps(interp, conjuncts, rest, subst, trail, each)
        }
    }
}

/// Enumerate all substitutions satisfying the conjunction, dispatching
/// literals in the fixed `order` (indices into `literals`) instead of
/// the greedy order — the execution half of a prepared
/// [`crate::planner::ConjunctionPlan`]. `order` must be a permutation
/// of `0..literals.len()`; the answer set is identical to
/// [`solve_conjunction`]'s (conjunction is order independent), only the
/// join order — and thus the cost — differs.
///
/// # Panics
/// Like [`solve_conjunction`], on a negative literal that is not ground
/// when dispatched (the planner orders negatives after their binders
/// whenever the query is safe).
pub fn solve_planned(
    interp: &dyn Interp,
    literals: &[Literal],
    order: &[usize],
    subst: &mut Subst,
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    debug_assert_eq!(order.len(), literals.len(), "order must cover the query");
    solve_steps(
        interp,
        literals,
        Steps::Listed(order),
        subst,
        &mut Vec::new(),
        each,
    )
}

/// Does the conjunction have at least one solution extending `subst`?
pub fn provable(interp: &dyn Interp, literals: &[Literal], subst: &mut Subst) -> bool {
    !solve_conjunction(interp, literals, subst, &mut |_| false)
}

/// Collect all solutions as substitutions restricted to `keep`.
pub fn all_solutions(
    interp: &dyn Interp,
    literals: &[Literal],
    subst: &mut Subst,
    keep: &[Sym],
) -> Vec<Subst> {
    let mut out = Vec::new();
    solve_conjunction(interp, literals, subst, &mut |s| {
        out.push(s.restrict(keep));
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FactSet;
    use uniform_logic::Fact;

    fn db() -> FactSet {
        FactSet::from_facts([
            Fact::parse_like("edge", &["a", "b"]),
            Fact::parse_like("edge", &["b", "c"]),
            Fact::parse_like("edge", &["c", "d"]),
            Fact::parse_like("red", &["b"]),
        ])
    }

    fn lits(spec: &[(&str, &[&str], bool)]) -> Vec<Literal> {
        spec.iter()
            .map(|(p, args, pos)| Literal::new(*pos, Atom::parse_like(p, args)))
            .collect()
    }

    #[test]
    fn single_positive_literal_enumerates() {
        let fs = db();
        let q = lits(&[("edge", &["X", "Y"], true)]);
        let sols = all_solutions(&fs, &q, &mut Subst::new(), &[Sym::new("X"), Sym::new("Y")]);
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn join_through_shared_variable() {
        let fs = db();
        // edge(X,Y), edge(Y,Z)
        let q = lits(&[("edge", &["X", "Y"], true), ("edge", &["Y", "Z"], true)]);
        let keep = [Sym::new("X"), Sym::new("Z")];
        let mut pairs: Vec<(String, String)> = all_solutions(&fs, &q, &mut Subst::new(), &keep)
            .iter()
            .map(|s| {
                (
                    format!("{:?}", s.walk(Term::from_name("X"))),
                    format!("{:?}", s.walk(Term::from_name("Z"))),
                )
            })
            .collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![("a".into(), "c".into()), ("b".into(), "d".into())]
        );
    }

    #[test]
    fn negative_literal_filters() {
        let fs = db();
        // edge(X,Y), not red(Y)
        let q = lits(&[("edge", &["X", "Y"], true), ("red", &["Y"], false)]);
        let sols = all_solutions(&fs, &q, &mut Subst::new(), &[Sym::new("Y")]);
        let mut names: Vec<String> = sols
            .iter()
            .map(|s| format!("{:?}", s.walk(Term::from_name("Y"))))
            .collect();
        names.sort();
        assert_eq!(names, vec!["c", "d"]);
    }

    #[test]
    fn initial_bindings_restrict_scan() {
        let fs = db();
        let q = lits(&[("edge", &["X", "Y"], true)]);
        let mut init = Subst::new();
        init.bind(Sym::new("X"), Term::from_name("b"));
        let sols = all_solutions(&fs, &q, &mut init, &[Sym::new("Y")]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].walk(Term::from_name("Y")), Term::from_name("c"));
    }

    #[test]
    fn provable_and_early_stop() {
        let fs = db();
        let q = lits(&[("edge", &["X", "Y"], true)]);
        assert!(provable(&fs, &q, &mut Subst::new()));
        let no = lits(&[("edge", &["d", "X"], true)]);
        assert!(!provable(&fs, &no, &mut Subst::new()));
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut fs = db();
        fs.insert(&Fact::parse_like("edge", &["e", "e"]));
        let q = lits(&[("edge", &["X", "X"], true)]);
        let sols = all_solutions(&fs, &q, &mut Subst::new(), &[Sym::new("X")]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].walk(Term::from_name("X")), Term::from_name("e"));
    }

    #[test]
    fn empty_conjunction_yields_identity() {
        let fs = db();
        let sols = all_solutions(&fs, &[], &mut Subst::new(), &[]);
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
    }

    #[test]
    fn working_subst_restored() {
        let fs = db();
        let q = lits(&[("edge", &["X", "Y"], true)]);
        let mut s = Subst::new();
        solve_conjunction(&fs, &q, &mut s, &mut |_| true);
        assert!(s.is_empty(), "working substitution must be unwound");
    }

    #[test]
    #[should_panic(expected = "not ground")]
    fn unsafe_negative_literal_panics() {
        let fs = db();
        let q = lits(&[("red", &["X"], false)]);
        provable(&fs, &q, &mut Subst::new());
    }

    /// The planned evaluator must produce the same answer set as the
    /// runtime-greedy one for every dispatch order (conjunction is
    /// order independent) — here checked over all permutations of a
    /// join with negation.
    #[test]
    fn solve_planned_matches_greedy_for_every_safe_order() {
        let fs = db();
        let q = lits(&[
            ("edge", &["X", "Y"], true),
            ("edge", &["Y", "Z"], true),
            ("red", &["Y"], false),
        ]);
        let keep = [Sym::new("X"), Sym::new("Z")];
        let render = |sols: Vec<Subst>| {
            let mut out: Vec<String> = sols
                .iter()
                .map(|s| {
                    format!(
                        "{:?}{:?}",
                        s.walk(Term::from_name("X")),
                        s.walk(Term::from_name("Z"))
                    )
                })
                .collect();
            out.sort();
            out
        };
        let want = render(all_solutions(&fs, &q, &mut Subst::new(), &keep));
        // All safe orders: the negation (slot 2) needs Y, bound by
        // either positive literal.
        for order in [[0, 1, 2], [1, 0, 2], [0, 2, 1], [1, 2, 0]] {
            let mut got = Vec::new();
            let mut s = Subst::new();
            solve_planned(&fs, &q, &order, &mut s, &mut |s| {
                got.push(s.restrict(&keep));
                true
            });
            assert!(s.is_empty(), "working substitution unwound");
            assert_eq!(render(got), want, "order {order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "unsafe plan")]
    fn solve_planned_rejects_unsafe_orders() {
        let fs = db();
        let q = lits(&[("edge", &["X", "Y"], true), ("red", &["Y"], false)]);
        // Dispatching the negation first is unsafe: Y is unbound.
        solve_planned(&fs, &q, &[1, 0], &mut Subst::new(), &mut |_| true);
    }
}
