//! Evaluation of restricted-quantification formulas over an
//! interpretation.
//!
//! This is the evaluator behind `evaluate` (queries against the current
//! database) and — composed with the overlay engine — behind `new`
//! (queries against the simulated updated database, §3.3.2). Restricted
//! quantification is what makes it domain independent: a `∀`/`∃` only
//! enumerates the solutions of its range conjunction, never the whole
//! domain.
//!
//! A range is dispatched in the greedy order of [`crate::cq`], which
//! [`satisfies`] computes once per quantifier call from the bindings on
//! entry. A formula evaluated many times under bindings of the same free
//! variables — a compiled integrity check — is [`Lowered`] once instead:
//! its ranges are stored in that order, so each evaluation computes
//! none.

use crate::cq::{greedy_order, ground_fact, solve_steps, Steps};
use crate::interp::Interp;
use uniform_logic::{Atom, Rq, Subst, Sym, Term};

/// Does `interp ⊨ rq·subst`? All free variables of `rq` must be bound by
/// `subst`; quantified variables are bound by range enumeration.
///
/// # Panics
/// On literals that are not ground when reached. Constraints validated by
/// [`uniform_logic::normalize()`] (closed + range-restricted) never trigger
/// this.
pub fn satisfies(interp: &dyn Interp, rq: &Rq, subst: &mut Subst) -> bool {
    eval(interp, rq, subst, false)
}

/// Evaluate a closed formula.
pub fn satisfies_closed(interp: &dyn Interp, rq: &Rq) -> bool {
    satisfies(interp, rq, &mut Subst::new())
}

/// A formula lowered for repeated evaluation: every quantifier range is
/// stored in the order the greedy heuristic dispatches it once the
/// formula's free variables are bound. That order depends only on which
/// variables are bound, so [`Lowered::satisfies`] makes exactly the
/// interpretation calls [`satisfies`] makes under the same binding.
#[derive(Clone, Debug)]
pub struct Lowered(Rq);

impl Lowered {
    /// `rq`, its free variables taken as bound on entry.
    pub fn new(rq: &Rq) -> Lowered {
        Lowered(lower(rq))
    }

    /// Does `interp ⊨ rq·subst`? `subst` must bind every free variable
    /// of `rq` to a constant.
    pub fn satisfies(&self, interp: &dyn Interp, subst: &mut Subst) -> bool {
        eval(interp, &self.0, subst, true)
    }
}

fn lower(rq: &Rq) -> Rq {
    match rq {
        Rq::True | Rq::False | Rq::Lit(_) => rq.clone(),
        Rq::And(gs) => Rq::And(gs.iter().map(lower).collect()),
        Rq::Or(gs) => Rq::Or(gs.iter().map(lower).collect()),
        Rq::Forall { vars, range, body } => Rq::Forall {
            vars: vars.clone(),
            range: lower_range(vars, range),
            body: Box::new(lower(body)),
        },
        Rq::Exists { vars, range, body } => Rq::Exists {
            vars: vars.clone(),
            range: lower_range(vars, range),
            body: Box::new(lower(body)),
        },
    }
}

/// `range` in dispatch order. On entry every variable but the quantified
/// `vars` is bound: a free one by the binding, an outer one by its range.
fn lower_range(vars: &[Sym], range: &[Atom]) -> Vec<Atom> {
    let walk = |t: Term| match t {
        Term::Var(v) if !vars.contains(&v) => Term::Const(v),
        _ => t,
    };
    greedy_order(range, walk)
        .into_iter()
        .map(|i| range[i].clone())
        .collect()
}

/// [`satisfies`]; with `lowered`, every range is already in dispatch
/// order.
fn eval(interp: &dyn Interp, rq: &Rq, subst: &mut Subst, lowered: bool) -> bool {
    match rq {
        Rq::True => true,
        Rq::False => false,
        Rq::Lit(l) => {
            let fact = ground_fact(subst, &l.atom).unwrap_or_else(|| {
                panic!(
                    "literal {} not ground during evaluation (unrestricted variable?)",
                    subst.apply_atom(&l.atom)
                )
            });
            interp.holds(&fact) == l.positive
        }
        Rq::And(gs) => gs.iter().all(|g| eval(interp, g, subst, lowered)),
        Rq::Or(gs) => gs.iter().any(|g| eval(interp, g, subst, lowered)),
        Rq::Forall { range, body, .. } => {
            // Completed enumeration == no counterexample found.
            solve_range(interp, range, subst, lowered, &mut |s| {
                eval(interp, body, s, lowered)
            })
        }
        Rq::Exists { range, body, .. } => {
            // Aborted enumeration == witness found.
            !solve_range(interp, range, subst, lowered, &mut |s| {
                !eval(interp, body, s, lowered)
            })
        }
    }
}

fn solve_range(
    interp: &dyn Interp,
    range: &[Atom],
    subst: &mut Subst,
    lowered: bool,
    each: &mut dyn FnMut(&mut Subst) -> bool,
) -> bool {
    let order;
    let steps = if lowered {
        Steps::Stored(0)
    } else {
        order = greedy_order(range, |t| subst.walk(t));
        Steps::Listed(&order)
    };
    solve_steps(interp, range, steps, subst, &mut Vec::new(), each)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FactSet;
    use uniform_logic::{normalize, parse_fact, parse_formula, Fact, Sym, Term};

    fn db(facts: &[&str]) -> FactSet {
        FactSet::from_facts(facts.iter().map(|f| parse_fact(f).unwrap()))
    }

    fn rq(src: &str) -> Rq {
        normalize(&parse_formula(src).unwrap()).unwrap()
    }

    #[test]
    fn ground_literals() {
        let fs = db(&["p(a)."]);
        assert!(satisfies_closed(&fs, &rq("p(a)")));
        assert!(!satisfies_closed(&fs, &rq("p(b)")));
        assert!(satisfies_closed(&fs, &rq("~p(b)")));
    }

    #[test]
    fn universal_with_range() {
        let fs = db(&["student(jack).", "enrolled(jack, cs)."]);
        assert!(satisfies_closed(
            &fs,
            &rq("forall X: student(X) -> enrolled(X, cs)")
        ));
        let fs2 = db(&["student(jack).", "student(jill).", "enrolled(jack, cs)."]);
        assert!(!satisfies_closed(
            &fs2,
            &rq("forall X: student(X) -> enrolled(X, cs)")
        ));
    }

    #[test]
    fn existential_with_range() {
        let fs = db(&["employee(a)."]);
        assert!(satisfies_closed(&fs, &rq("exists X: employee(X)")));
        assert!(!satisfies_closed(&db(&[]), &rq("exists X: employee(X)")));
    }

    #[test]
    fn nested_quantifiers_paper_c1() {
        // §5 constraint (1): every employee is member of some department.
        let c = rq("forall X: employee(X) -> (exists Y: department(Y) & member(X,Y))");
        let ok = db(&["employee(a).", "department(b).", "member(a,b)."]);
        assert!(satisfies_closed(&ok, &c));
        let missing_dept = db(&["employee(a).", "member(a,b)."]);
        assert!(!satisfies_closed(&missing_dept, &c));
        let empty = db(&[]);
        assert!(satisfies_closed(&empty, &c), "universal holds vacuously");
    }

    #[test]
    fn negative_body_literal() {
        let c = rq("forall X: subordinate(X, X) -> false");
        assert!(satisfies_closed(&db(&[]), &c));
        assert!(!satisfies_closed(&db(&["subordinate(a,a)."]), &c));
        assert!(satisfies_closed(&db(&["subordinate(a,b)."]), &c));
    }

    #[test]
    fn free_variables_from_outer_subst() {
        let fs = db(&["enrolled(jack, cs).", "attends(jack, ddb)."]);
        // Open instance: enrolled(X, cs) -> attends(X, ddb) with X bound
        // externally, as happens when evaluating simplified instances.
        let c = rq("forall X: enrolled(X, cs) -> attends(X, ddb)");
        // Strip the quantifier by binding X via the range; instead check
        // the closed form both ways.
        assert!(satisfies_closed(&fs, &c));
        let mut s = Subst::new();
        s.bind(Sym::new("V"), Term::from_name("jack"));
        let open = Rq::Lit(uniform_logic::Atom::parse_like("attends", &["V", "ddb"]).pos());
        assert!(satisfies(&fs, &open, &mut s));
    }

    #[test]
    fn conjunction_and_disjunction() {
        let fs = db(&["p(a).", "q(b)."]);
        assert!(satisfies_closed(&fs, &rq("p(a) & q(b)")));
        assert!(!satisfies_closed(&fs, &rq("p(a) & q(a)")));
        assert!(satisfies_closed(&fs, &rq("p(x) | q(b)")));
    }

    #[test]
    fn forall_nested_under_exists() {
        // There is a department all of whose members lead it.
        let c = rq("exists Y: department(Y) & (forall X: member(X,Y) -> leads(X,Y))");
        let ok = db(&["department(d).", "member(a,d).", "leads(a,d)."]);
        assert!(satisfies_closed(&ok, &c));
        let no = db(&["department(d).", "member(a,d)."]);
        assert!(!satisfies_closed(&no, &c));
        // Vacuous inner forall: department with no members qualifies.
        let vac = db(&["department(d)."]);
        assert!(satisfies_closed(&vac, &c));
    }

    #[test]
    fn agreement_with_naive_semantics() {
        use uniform_logic::semantics::{eval_closed, FiniteInterp};
        let sources = [
            "forall X: employee(X) -> (exists Y: department(Y) & member(X,Y))",
            "forall X, Y: member(X,Y) -> (forall Z: leads(Z,Y) -> subordinate(X,Z))",
            "exists X: employee(X)",
            "forall X: ~subordinate(X,X)",
        ];
        let dbs: Vec<FactSet> = vec![
            db(&[]),
            db(&["employee(a)."]),
            db(&["employee(a).", "department(b).", "member(a,b)."]),
            db(&["member(a,b).", "leads(c,b).", "subordinate(a,c)."]),
            db(&["member(a,b).", "leads(c,b)."]),
            db(&["subordinate(a,a)."]),
        ];
        for src in sources {
            let f = parse_formula(src).unwrap();
            let r = rq(src);
            for fs in &dbs {
                let facts: Vec<Fact> = fs.iter().collect();
                let naive = FiniteInterp::from_facts(facts);
                assert_eq!(
                    satisfies_closed(fs, &r),
                    eval_closed(&f, &naive),
                    "mismatch for {src} on {naive:?}"
                );
            }
        }
    }
}
