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
//! literal binds all of its variables — so the greedy order is computed
//! whole before the first scan, and [`solve_conjunction`] runs it
//! through the same loop as a prepared [`solve_planned`].
//!
//! # Allocations
//!
//! The solver allocates nothing of its own per call. The greedy order,
//! each step's bind pattern, the undo list of the variables a matched
//! tuple binds and the arguments of a ground-literal test live in
//! stack buffers of [`INLINE`] items; a conjunction of more conjuncts,
//! or an atom of more arguments, spills that buffer to the heap. Ground
//! literals are tested with [`Interp::holds_tuple`], which the store's
//! interpretations answer from the borrowed tuple. What remains is the
//! caller's: the [`Subst`] (its map keeps its capacity, so a reused
//! substitution stops growing after its first call), the answer
//! callback, and whatever the interpretation's own `scan` and `holds`
//! do.

use crate::interp::Interp;
use std::ops::{Deref, DerefMut};
use uniform_logic::{Atom, Literal, Subst, Sym, Term};

/// How many conjuncts, or arguments of one atom, the solver handles
/// with every buffer on the stack (see the module docs).
pub const INLINE: usize = 16;

/// Up to [`INLINE`] items on the stack; pushing one more moves them
/// all to the heap.
struct StackVec<T> {
    len: usize,
    inline: [T; INLINE],
    spill: Vec<T>,
}

impl<T: Copy> StackVec<T> {
    /// An empty buffer; `fill` only initializes the unused slots.
    fn new(fill: T) -> Self {
        StackVec {
            len: 0,
            inline: [fill; INLINE],
            spill: Vec::new(),
        }
    }

    fn push(&mut self, item: T) {
        if self.len < INLINE {
            self.inline[self.len] = item;
        } else {
            if self.len == INLINE {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(item);
        }
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

impl<T> Deref for StackVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T> DerefMut for StackVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= INLINE {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl<T: Copy> Extend<T> for StackVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

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

/// Is `atom` under `subst` true in `interp`? `None` if a variable stays
/// unbound.
pub(crate) fn holds_ground(interp: &dyn Interp, subst: &Subst, atom: &Atom) -> Option<bool> {
    let mut args = StackVec::new(atom.pred);
    for &t in &atom.args {
        args.push(subst.walk(t).as_const()?);
    }
    Some(interp.holds_tuple(atom.pred, &args))
}

/// Extend `subst` so that `atom`σ = `tuple`; records newly bound
/// variables on `trail` for undo. Returns `false` (with a clean trail
/// rollback left to the caller) on mismatch.
pub fn extend_match(
    subst: &mut Subst,
    atom: &Atom,
    tuple: &[Sym],
    trail: &mut impl Extend<Sym>,
) -> bool {
    for (&t, &v) in atom.args.iter().zip(tuple) {
        match subst.walk(t) {
            Term::Const(c) => {
                if c != v {
                    return false;
                }
            }
            Term::Var(var) => {
                subst.bind(var, Term::Const(v));
                trail.extend(Some(var));
            }
        }
    }
    true
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
    solve_greedy(interp, literals, None, subst, each)
}

/// [`solve_conjunction`] of every literal but `literals[skip]`: a rule
/// body with one literal already bound to a delta fact, solved in place
/// rather than over a copy of the rest.
pub fn solve_conjunction_without(
    interp: &dyn Interp,
    literals: &[Literal],
    skip: usize,
    subst: &mut Subst,
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    solve_greedy(interp, literals, Some(skip), subst, each)
}

/// Dispatch every conjunct but `skip` in the greedy order under the
/// bindings on entry.
pub(crate) fn solve_greedy<C: Conjunct>(
    interp: &dyn Interp,
    conjuncts: &[C],
    skip: Option<usize>,
    subst: &mut Subst,
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    let mut order = StackVec::new(0);
    greedy_into(conjuncts, skip, |t| subst.walk(t), &mut order);
    solve_steps(interp, conjuncts, Steps::Listed(&order), subst, each)
}

/// The order in which the greedy heuristic dispatches `conjuncts`, as
/// indices: [`greedy_into`] with nothing skipped, into a `Vec`.
pub(crate) fn greedy_order<C: Conjunct>(
    conjuncts: &[C],
    walk: impl Fn(Term) -> Term,
) -> Vec<usize> {
    let mut order = StackVec::new(0);
    greedy_into(conjuncts, None, walk, &mut order);
    order.to_vec()
}

/// Append to `order` the order in which the greedy heuristic dispatches
/// every conjunct but `skip`, as indices into `conjuncts`, given `walk`,
/// which resolves a term under the bindings on entry (a constant is
/// bound; an unbound variable resolves to itself, or to the variable it
/// is aliased to). At each step the first fully bound conjunct in slot
/// order goes next, whatever its sign; otherwise the first positive
/// conjunct with the most bound positions, which then binds every
/// variable it holds. When only non-ground negative conjuncts remain
/// the rest follow in slot order, so the first of them panics when
/// dispatched, as an unsafe conjunction must.
fn greedy_into<C: Conjunct>(
    conjuncts: &[C],
    skip: Option<usize>,
    walk: impl Fn(Term) -> Term,
    order: &mut StackVec<usize>,
) {
    let mut taken = StackVec::new(false);
    taken.extend((0..conjuncts.len()).map(|idx| Some(idx) == skip));
    let mut left = conjuncts.len() - usize::from(skip.is_some());
    // Variables (after walking) bound by the positives dispatched so far.
    let mut bound = StackVec::new(None);
    while left > 0 {
        let is_bound = |t: Term| match walk(t) {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(&Some(v)),
        };
        let mut best = None;
        let mut best_score = -1isize;
        for (idx, c) in conjuncts.iter().enumerate().filter(|&(i, _)| !taken[i]) {
            let args = &c.atom().args;
            let score = args.iter().filter(|&&t| is_bound(t)).count();
            if score == args.len() {
                best = Some(idx);
                break;
            }
            if c.positive() && score as isize > best_score {
                best_score = score as isize;
                best = Some(idx);
            }
        }
        let Some(idx) = best else {
            order.extend((0..conjuncts.len()).filter(|&i| !taken[i]));
            return;
        };
        if conjuncts[idx].positive() {
            for &t in &conjuncts[idx].atom().args {
                if let Term::Var(v) = walk(t) {
                    if !bound.contains(&Some(v)) {
                        bound.push(Some(v));
                    }
                }
            }
        }
        taken[idx] = true;
        order.push(idx);
        left -= 1;
    }
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
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    let Some((idx, rest)) = steps.split(conjuncts.len()) else {
        return each(subst);
    };
    let atom = conjuncts[idx].atom();
    if conjuncts[idx].positive() {
        let mut pattern = StackVec::new(None);
        pattern.extend(atom.args.iter().map(|&t| subst.walk(t).as_const()));
        let mut undo = StackVec::new(atom.pred);
        let mut keep_going = true;
        interp.scan(atom.pred, &pattern, &mut |tuple| {
            if extend_match(subst, atom, tuple, &mut undo) {
                keep_going = solve_steps(interp, conjuncts, rest, subst, each);
            }
            for &v in undo.iter().rev() {
                subst.unbind(v);
            }
            undo.clear();
            keep_going
        });
        keep_going
    } else {
        let holds = holds_ground(interp, subst, atom).unwrap_or_else(|| {
            panic!(
                "negative literal not ground when evaluated: not {} (unsafe plan?)",
                subst.apply_atom(atom)
            )
        });
        // A true atom fails this branch; enumeration continues elsewhere.
        holds || solve_steps(interp, conjuncts, rest, subst, each)
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
    solve_steps(interp, literals, Steps::Listed(order), subst, each)
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

    /// The paper's `B \ L'` (Def. 4): a rule body without the literal a
    /// delta fact is bound to, solved in place.
    #[test]
    fn solving_without_one_literal_skips_exactly_it() {
        let fs = db();
        // edge(X,Y), edge(Y,Z), not red(Y) without slot 1.
        let q = lits(&[
            ("edge", &["X", "Y"], true),
            ("edge", &["Y", "Z"], true),
            ("red", &["Y"], false),
        ]);
        let keep = [Sym::new("X"), Sym::new("Y")];
        let mut got: Vec<String> = Vec::new();
        let mut s = Subst::new();
        solve_conjunction_without(&fs, &q, 1, &mut s, &mut |s| {
            got.push(format!("{:?}", s.restrict(&keep)));
            true
        });
        let rest = [q[0].clone(), q[2].clone()];
        let want: Vec<String> = all_solutions(&fs, &rest, &mut Subst::new(), &keep)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        assert_eq!(got, want, "same answers in the same order");
        assert_eq!(got.len(), 2, "edge(b, c) is dropped: red(b)");
        assert!(s.is_empty(), "working substitution unwound");
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
    fn stack_buffers_spill_past_the_inline_bound() {
        let mut buf = StackVec::new(0);
        buf.extend(0..INLINE);
        assert_eq!(&buf[..], (0..INLINE).collect::<Vec<_>>());
        buf.extend(INLINE..3 * INLINE);
        assert_eq!(&buf[..], (0..3 * INLINE).collect::<Vec<_>>());
        buf[0] = 7;
        assert_eq!(buf[0], 7);
        buf.clear();
        assert!(buf.is_empty());
        buf.push(1);
        assert_eq!(&buf[..], [1]);
    }

    /// A conjunction of more than [`INLINE`] literals and an atom of
    /// more than [`INLINE`] arguments spill to the heap and answer the
    /// same.
    #[test]
    fn long_conjunctions_and_wide_atoms_spill() {
        let mut fs = db();
        let wide: Vec<String> = (0..INLINE + 2).map(|i| format!("c{i}")).collect();
        let wide: Vec<&str> = wide.iter().map(String::as_str).collect();
        fs.insert(&Fact::parse_like("w", &wide));
        let mut spec: Vec<(&str, &[&str], bool)> = vec![("edge", &["X", "Y"], true)];
        spec.extend((0..INLINE).map(|_| ("red", &["Y"][..], true)));
        spec.push(("red", &["X"], false));
        let q = lits(&spec);
        let sols = all_solutions(&fs, &q, &mut Subst::new(), &[Sym::new("X")]);
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].walk(Term::from_name("X")), Term::from_name("a"));

        let mut args: Vec<String> = (0..INLINE + 2).map(|i| format!("V{i}")).collect();
        args[3] = "c3".to_string();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let q = lits(&[("w", &args, true), ("w", &wide, true), ("w", &args, false)]);
        let (last_var, last_const) = (args[INLINE + 1], wide[INLINE + 1]);
        let mut answers = 0;
        solve_conjunction(&fs, &q[..2], &mut Subst::new(), &mut |s| {
            assert_eq!(
                s.walk(Term::from_name(last_var)),
                Term::from_name(last_const)
            );
            answers += 1;
            true
        });
        assert_eq!(answers, 1);
        assert!(!provable(&fs, &q, &mut Subst::new()));
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
