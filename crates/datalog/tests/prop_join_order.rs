//! Differential test of the join order: the order `solve_conjunction`
//! fixes once per call, and the order a [`Lowered`] formula stores, must
//! be the order the per-step greedy selection dispatches in. The
//! reference below is a test-only copy of that per-step loop: before
//! each dispatch it re-scores every remaining literal under the current
//! substitution.
//!
//! Both sides run over a recording interpretation, and the recorded
//! sequences of `holds` and `scan` calls must be equal — not only the
//! answers — because the evaluator's memo counters depend on the exact
//! calls. Conjunctions mix positive and negative literals, repeated
//! variables and constants; substitutions start with variables bound to
//! constants and aliased to other variables. Unsafe conjunctions must
//! panic on both sides, after the same calls.

use proptest::prelude::*;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use uniform_datalog::{satisfies, solve_conjunction, FactSet, Interp, Lowered};
use uniform_logic::{Atom, Fact, Literal, Rq, Subst, Sym, Term};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Call {
    Holds(Fact),
    Scan(Sym, Vec<Option<Sym>>),
}

/// A fact set that records every call made on it.
struct Recording {
    facts: FactSet,
    calls: RefCell<Vec<Call>>,
}

impl Interp for Recording {
    fn holds(&self, fact: &Fact) -> bool {
        self.calls.borrow_mut().push(Call::Holds(fact.clone()));
        self.facts.holds(fact)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        self.calls
            .borrow_mut()
            .push(Call::Scan(pred, pattern.to_vec()));
        self.facts.scan(pred, pattern, each)
    }
}

/// The per-step greedy loop the fixed order must reproduce.
mod reference {
    use super::*;

    pub fn solve_conjunction(
        interp: &dyn Interp,
        literals: &[Literal],
        subst: &mut Subst,
        each: &mut dyn FnMut(&mut Subst) -> bool,
    ) -> bool {
        let mut trail = Vec::new();
        let mut remaining: Vec<usize> = (0..literals.len()).collect();
        solve_rec(interp, literals, &mut remaining, subst, &mut trail, each)
    }

    fn select_literal(literals: &[Literal], remaining: &[usize], subst: &Subst) -> usize {
        let mut best_slot = 0;
        let mut best_score = -1isize;
        for (slot, &idx) in remaining.iter().enumerate() {
            let lit = &literals[idx];
            let bound = lit
                .atom
                .args
                .iter()
                .filter(|&&t| matches!(subst.walk(t), Term::Const(_)))
                .count();
            if bound == lit.atom.args.len() {
                return slot;
            }
            if lit.positive && bound as isize > best_score {
                best_score = bound as isize;
                best_slot = slot;
            }
        }
        if best_score < 0 {
            panic!(
                "negative literal not ground when evaluated: {}",
                literals[remaining[0]]
            );
        }
        best_slot
    }

    fn solve_rec(
        interp: &dyn Interp,
        literals: &[Literal],
        remaining: &mut Vec<usize>,
        subst: &mut Subst,
        trail: &mut Vec<Sym>,
        each: &mut dyn FnMut(&mut Subst) -> bool,
    ) -> bool {
        if remaining.is_empty() {
            return each(subst);
        }
        let slot = select_literal(literals, remaining, subst);
        let idx = remaining.remove(slot);
        let lit = &literals[idx];
        let keep_going = if lit.positive {
            let pattern: Vec<Option<Sym>> = lit
                .atom
                .args
                .iter()
                .map(|&t| subst.walk(t).as_const())
                .collect();
            let mut keep_going = true;
            interp.scan(lit.atom.pred, &pattern, &mut |tuple| {
                let mark = trail.len();
                let mut ok = true;
                for (&t, &v) in lit.atom.args.iter().zip(tuple) {
                    match subst.walk(t) {
                        Term::Const(c) => ok &= c == v,
                        Term::Var(var) if ok => {
                            subst.bind(var, Term::Const(v));
                            trail.push(var);
                        }
                        Term::Var(_) => {}
                    }
                }
                if ok {
                    keep_going = solve_rec(interp, literals, remaining, subst, trail, each);
                }
                while trail.len() > mark {
                    subst.unbind(trail.pop().unwrap());
                }
                keep_going
            });
            keep_going
        } else {
            let fact = subst
                .apply_atom(&lit.atom)
                .to_fact()
                .expect("negative literal not ground when evaluated");
            if interp.holds(&fact) {
                true
            } else {
                solve_rec(interp, literals, remaining, subst, trail, each)
            }
        };
        remaining.insert(slot, idx);
        keep_going
    }

    pub fn satisfies(interp: &dyn Interp, rq: &Rq, subst: &mut Subst) -> bool {
        match rq {
            Rq::True => true,
            Rq::False => false,
            Rq::Lit(l) => {
                let fact = subst
                    .apply_atom(&l.atom)
                    .to_fact()
                    .expect("literal not ground during evaluation");
                interp.holds(&fact) == l.positive
            }
            Rq::And(gs) => gs.iter().all(|g| satisfies(interp, g, subst)),
            Rq::Or(gs) => gs.iter().any(|g| satisfies(interp, g, subst)),
            Rq::Forall { range, body, .. } => {
                let lits: Vec<Literal> = range.iter().map(|a| a.clone().pos()).collect();
                solve_conjunction(interp, &lits, subst, &mut |s| satisfies(interp, body, s))
            }
            Rq::Exists { range, body, .. } => {
                let lits: Vec<Literal> = range.iter().map(|a| a.clone().pos()).collect();
                !solve_conjunction(interp, &lits, subst, &mut |s| !satisfies(interp, body, s))
            }
        }
    }
}

const VARS: [&str; 5] = ["X", "Y", "Z", "W", "V"];
const CONSTS: [&str; 3] = ["a", "b", "c"];
const PREDS: [(&str, usize); 5] = [("p", 1), ("q", 2), ("r", 2), ("s", 3), ("t", 0)];

/// An atom from its code: a predicate and up to three argument codes,
/// 0–4 naming a variable and 5–7 a constant.
fn atom((pred, a0, a1, a2): (usize, usize, usize, usize)) -> Atom {
    let (name, arity) = PREDS[pred];
    let args: Vec<&str> = [a0, a1, a2][..arity]
        .iter()
        .map(|&a| {
            if a < VARS.len() {
                VARS[a]
            } else {
                CONSTS[a - VARS.len()]
            }
        })
        .collect();
    Atom::parse_like(name, &args)
}

type AtomCode = (usize, usize, usize, usize);

fn arb_atom() -> impl Strategy<Value = AtomCode> {
    (0..PREDS.len(), 0..8usize, 0..8usize, 0..8usize)
}

fn arb_literals() -> impl Strategy<Value = Vec<(AtomCode, bool)>> {
    prop::collection::vec((arb_atom(), 0..10u8), 0..6).prop_map(|lits| {
        lits.into_iter()
            .map(|(code, sign)| (code, sign >= 3))
            .collect()
    })
}

fn literals(codes: &[(AtomCode, bool)]) -> Vec<Literal> {
    codes
        .iter()
        .map(|&(code, positive)| Literal::new(positive, atom(code)))
        .collect()
}

/// Facts over the three constants, from `(pred, c0, c1, c2)` codes.
fn facts(codes: &[(usize, usize, usize, usize)]) -> FactSet {
    FactSet::from_facts(codes.iter().map(|&(pred, c0, c1, c2)| {
        atom((pred, c0 + VARS.len(), c1 + VARS.len(), c2 + VARS.len()))
            .to_fact()
            .unwrap()
    }))
}

fn arb_facts() -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
    prop::collection::vec((0..PREDS.len(), 0..3usize, 0..3usize, 0..3usize), 0..30)
}

/// One `(kind, target)` per variable: kind 0 leaves it unbound, 1 binds
/// it to a constant, 2 aliases it to a later variable (never a cycle).
fn arb_binding() -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0..3u8, 0..VARS.len()), VARS.len())
}

fn binding(codes: &[(u8, usize)], aliases: bool) -> Subst {
    let mut s = Subst::new();
    for (i, &(kind, target)) in codes.iter().enumerate() {
        match kind {
            1 => s.bind(Sym::new(VARS[i]), Term::from_name(CONSTS[target % 3])),
            2 if aliases && target > i => s.bind(Sym::new(VARS[i]), Term::from_name(VARS[target])),
            _ => {}
        }
    }
    s
}

/// Run `f` over a fresh recording of `facts`: its result (`None` on a
/// panic) and the calls it made.
fn record<T>(facts: &FactSet, f: impl FnOnce(&Recording) -> T) -> (Option<T>, Vec<Call>) {
    let interp = Recording {
        facts: facts.clone(),
        calls: RefCell::new(Vec::new()),
    };
    let out = catch_unwind(AssertUnwindSafe(|| f(&interp))).ok();
    (out, interp.calls.into_inner())
}

/// `solve_conjunction`'s signature.
type Solver = fn(&dyn Interp, &[Literal], &mut Subst, &mut dyn FnMut(&mut Subst) -> bool) -> bool;

/// Every answer, rendered over all five variables.
fn answers(
    solve: Solver,
    interp: &dyn Interp,
    lits: &[Literal],
    subst: &Subst,
) -> (bool, Vec<String>) {
    let mut subst = subst.clone();
    let before = subst.clone();
    let mut out = Vec::new();
    let completed = solve(interp, lits, &mut subst, &mut |s| {
        out.push(format!("{:?}", VARS.map(|v| s.walk(Term::from_name(v)))));
        out.len() < 12
    });
    assert_eq!(subst, before, "the working substitution is restored");
    (completed, out)
}

/// The variables of `atoms` that walk to a variable under `outer` and
/// are not in `bound`: what a quantifier over `atoms` quantifies.
fn quantified(atoms: &[Atom], outer: &Subst, bound: &[Sym]) -> Vec<Sym> {
    let mut vars = Vec::new();
    for t in atoms.iter().flat_map(|a| a.args.iter()) {
        if let Term::Var(v) = *t {
            if outer.walk(*t).as_const().is_none() && !bound.contains(&v) && !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars
}

/// `∀ range1: body1 ∨ ∃ range2: body2`, quantifying every range variable
/// that `outer` leaves unbound.
fn formula(
    range1: &[AtomCode],
    body1: &[(AtomCode, bool)],
    range2: &[AtomCode],
    body2: &[(AtomCode, bool)],
    outer: &Subst,
) -> Rq {
    let range1: Vec<Atom> = range1.iter().map(|&c| atom(c)).collect();
    let range2: Vec<Atom> = range2.iter().map(|&c| atom(c)).collect();
    let vars1 = quantified(&range1, outer, &[]);
    let vars2 = quantified(&range2, outer, &vars1);
    let mut disjuncts: Vec<Rq> = literals(body1).into_iter().map(Rq::Lit).collect();
    disjuncts.push(Rq::Exists {
        vars: vars2,
        range: range2,
        body: Box::new(Rq::And(literals(body2).into_iter().map(Rq::Lit).collect())),
    });
    Rq::Forall {
        vars: vars1,
        range: range1,
        body: Box::new(Rq::Or(disjuncts)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solve_conjunction_dispatches_in_the_greedy_order(
        lits in arb_literals(),
        fact_codes in arb_facts(),
        bind in arb_binding(),
    ) {
        let facts = facts(&fact_codes);
        let lits = literals(&lits);
        let subst = binding(&bind, true);
        let (want, want_calls) =
            record(&facts, |i| answers(reference::solve_conjunction, i, &lits, &subst));
        let (got, got_calls) = record(&facts, |i| answers(solve_conjunction, i, &lits, &subst));
        prop_assert_eq!(got_calls, want_calls);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn satisfies_dispatches_ranges_in_the_greedy_order(
        range1 in prop::collection::vec(arb_atom(), 1..4),
        body1 in arb_literals(),
        range2 in prop::collection::vec(arb_atom(), 0..3),
        body2 in arb_literals(),
        fact_codes in arb_facts(),
        bind in arb_binding(),
    ) {
        let facts = facts(&fact_codes);
        // Aliased bindings through the per-call order.
        let outer = binding(&bind, true);
        let rq = formula(&range1, &body1, &range2, &body2, &outer);
        let (want, want_calls) =
            record(&facts, |i| reference::satisfies(i, &rq, &mut outer.clone()));
        let (got, got_calls) = record(&facts, |i| satisfies(i, &rq, &mut outer.clone()));
        prop_assert_eq!(got_calls, want_calls);
        prop_assert_eq!(got, want);

        // Constant bindings through the order stored at lowering.
        let outer = binding(&bind, false);
        let rq = formula(&range1, &body1, &range2, &body2, &outer);
        let lowered = Lowered::new(&rq);
        let (want, want_calls) =
            record(&facts, |i| reference::satisfies(i, &rq, &mut outer.clone()));
        let (got, got_calls) = record(&facts, |i| lowered.satisfies(i, &mut outer.clone()));
        prop_assert_eq!(got_calls, want_calls);
        prop_assert_eq!(got, want);
    }
}

#[test]
fn unsafe_conjunctions_panic_after_the_same_calls() {
    let facts = facts(&[(1, 0, 1, 0), (1, 1, 2, 0)]);
    // q(X, Y), not r(Y, Z): Z is never bound.
    let lits = literals(&[((1, 0, 1, 0), true), ((2, 1, 2, 0), false)]);
    let subst = Subst::new();
    let (want, want_calls) = record(&facts, |i| {
        answers(reference::solve_conjunction, i, &lits, &subst)
    });
    let (got, got_calls) = record(&facts, |i| answers(solve_conjunction, i, &lits, &subst));
    assert!(want.is_none() && got.is_none());
    assert_eq!(got_calls, want_calls);
    assert_eq!(got_calls.len(), 1, "the scan of q ran before the panic");
}
