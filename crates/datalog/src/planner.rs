//! Query planning for general formulas.
//!
//! §6 of the paper closes with: "Most of the optimization techniques
//! proposed till now are concerned with conjunctive queries. Since
//! constraints have often a more general syntax, optimization methods
//! for general formulas seem to be desirable." This module provides
//! that layer for restricted-quantification formulas ([`Rq`]):
//!
//! * a **cost model** driven by relation cardinalities (the statistics
//!   any fact store can supply);
//! * semantics-preserving **rewrites**: duplicate elimination and
//!   complementary-literal collapse inside `∧`/`∨`, lattice absorption
//!   (`X ∧ (X ∨ Y) ≡ X`), and cheapest-first reordering of `∧`/`∨`
//!   children so short-circuit evaluation meets a verdict early.
//!
//! Reordering is sound because `∧`/`∨` children of an [`Rq`] never bind
//! variables — bindings flow only through quantifier ranges — so every
//! child sees the same substitution regardless of order.
//!
//! The conjunctive level (rule bodies and quantifier ranges) already
//! self-optimizes at runtime: [`crate::cq`] selects the most-bound
//! literal per step. This module adds the formula level on top; the
//! core crate's prepared formula queries run through
//! [`Planner::optimize`] when their plan is built.

use crate::model::Model;
use crate::store::FactSet;
use std::collections::HashSet;
use uniform_logic::{Literal, Rq, Sym, Term};

/// Source of relation cardinalities for the cost model.
pub trait Cardinality {
    /// Number of tuples stored for `pred` (0 for unknown predicates).
    fn cardinality(&self, pred: Sym) -> usize;
}

impl Cardinality for FactSet {
    fn cardinality(&self, pred: Sym) -> usize {
        self.relation(pred).map_or(0, |r| r.len())
    }
}

impl Cardinality for Model {
    fn cardinality(&self, pred: Sym) -> usize {
        self.facts().cardinality(pred)
    }
}

/// Fixed statistics (for tests and for planning against hypothetical
/// states).
#[derive(Clone, Debug, Default)]
pub struct FixedStats(pub std::collections::HashMap<Sym, usize>);

impl Cardinality for FixedStats {
    fn cardinality(&self, pred: Sym) -> usize {
        self.0.get(&pred).copied().unwrap_or(0)
    }
}

/// Counters describing what [`Planner::optimize`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct PlanReport {
    /// Children removed by idempotence (`X ∧ X`), absorption or
    /// complement collapse.
    pruned: usize,
    /// `∧`/`∨` nodes whose children were permuted.
    reordered: usize,
}

/// A cost-based optimizer for restricted-quantification formulas.
pub struct Planner<'a> {
    stats: &'a dyn Cardinality,
}

/// Per-position selectivity of a bound argument: each bound column is
/// assumed to cut the scanned tuples by this factor.
const BOUND_SELECTIVITY: f64 = 4.0;
const COST_CAP: f64 = 1e18;

impl<'a> Planner<'a> {
    pub fn new(stats: &'a dyn Cardinality) -> Planner<'a> {
        Planner { stats }
    }

    /// Optimize a formula. Free variables are treated as bound (they
    /// are parameters, bound by the time the formula is evaluated).
    pub fn optimize(&self, rq: &Rq) -> Rq {
        self.optimize_with_report(rq).0
    }

    /// Optimize and report the rewrite counts.
    fn optimize_with_report(&self, rq: &Rq) -> (Rq, PlanReport) {
        let bound: HashSet<Sym> = rq.free_vars().into_iter().collect();
        let mut report = PlanReport::default();
        let optimized = self.opt(rq, &bound, &mut report);
        (optimized, report)
    }

    /// Estimated evaluation cost with the given bound variables.
    pub fn estimate(&self, rq: &Rq) -> f64 {
        let bound: HashSet<Sym> = rq.free_vars().into_iter().collect();
        self.cost(rq, &bound)
    }

    fn literal_cost(&self, lit: &Literal, bound: &HashSet<Sym>) -> f64 {
        let card = self.stats.cardinality(lit.atom.pred) as f64;
        let bound_positions = lit
            .atom
            .args
            .iter()
            .filter(|t| match t {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            })
            .count();
        if bound_positions == lit.atom.args.len() {
            return 1.0; // ground membership test
        }
        (card / BOUND_SELECTIVITY.powi(bound_positions as i32)).max(1.0)
    }

    /// Estimated number of solutions and cost of enumerating a
    /// quantifier range (a join of positive atoms).
    fn range_cost(&self, range: &[uniform_logic::Atom], bound: &HashSet<Sym>) -> (f64, f64) {
        let mut inner = bound.clone();
        let mut fanout = 1.0f64;
        let mut cost = 0.0f64;
        // The runtime join is greedy most-bound-first; mirror that.
        let mut remaining: Vec<&uniform_logic::Atom> = range.iter().collect();
        while !remaining.is_empty() {
            let (slot, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, a)| (i, self.literal_cost(&(*a).clone().pos(), &inner)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty");
            let atom = remaining.swap_remove(slot);
            let step = self.literal_cost(&atom.clone().pos(), &inner);
            cost = (cost + fanout * step).min(COST_CAP);
            fanout = (fanout * step).min(COST_CAP);
            inner.extend(atom.vars());
        }
        (fanout, cost)
    }

    fn cost(&self, rq: &Rq, bound: &HashSet<Sym>) -> f64 {
        match rq {
            Rq::True | Rq::False => 0.0,
            Rq::Lit(l) => self.literal_cost(l, bound),
            Rq::And(gs) | Rq::Or(gs) => gs
                .iter()
                .map(|g| self.cost(g, bound))
                .fold(0.0, |a, b| (a + b).min(COST_CAP)),
            Rq::Forall { vars, range, body } | Rq::Exists { vars, range, body } => {
                let (fanout, range_cost) = self.range_cost(range, bound);
                let mut inner = bound.clone();
                inner.extend(vars.iter().copied());
                (range_cost + fanout * self.cost(body, &inner)).min(COST_CAP)
            }
        }
    }

    fn opt(&self, rq: &Rq, bound: &HashSet<Sym>, report: &mut PlanReport) -> Rq {
        match rq {
            Rq::True | Rq::False | Rq::Lit(_) => rq.clone(),
            Rq::And(gs) => {
                let children: Vec<Rq> = gs.iter().map(|g| self.opt(g, bound, report)).collect();
                self.junction(children, bound, report, /*conjunction=*/ true)
            }
            Rq::Or(gs) => {
                let children: Vec<Rq> = gs.iter().map(|g| self.opt(g, bound, report)).collect();
                self.junction(children, bound, report, /*conjunction=*/ false)
            }
            Rq::Forall { vars, range, body } => {
                let mut inner = bound.clone();
                inner.extend(vars.iter().copied());
                Rq::Forall {
                    vars: vars.clone(),
                    range: range.clone(),
                    body: Box::new(self.opt(body, &inner, report)),
                }
            }
            Rq::Exists { vars, range, body } => {
                let mut inner = bound.clone();
                inner.extend(vars.iter().copied());
                Rq::Exists {
                    vars: vars.clone(),
                    range: range.clone(),
                    body: Box::new(self.opt(body, &inner, report)),
                }
            }
        }
    }

    /// Simplify and reorder the children of one `∧` (`conjunction`) or
    /// `∨` node.
    fn junction(
        &self,
        children: Vec<Rq>,
        bound: &HashSet<Sym>,
        report: &mut PlanReport,
        conjunction: bool,
    ) -> Rq {
        // Idempotence: drop structural duplicates.
        let mut kept: Vec<Rq> = Vec::with_capacity(children.len());
        for c in children {
            if kept.contains(&c) {
                report.pruned += 1;
            } else {
                kept.push(c);
            }
        }

        // Complement collapse: X ∧ ¬X ≡ false, X ∨ ¬X ≡ true (on
        // literal children with identical atoms).
        let lits: Vec<&Literal> = kept
            .iter()
            .filter_map(|c| match c {
                Rq::Lit(l) => Some(l),
                _ => None,
            })
            .collect();
        let clash = lits.iter().any(|l| {
            lits.iter()
                .any(|m| l.atom == m.atom && l.positive != m.positive)
        });
        if clash {
            report.pruned += kept.len();
            return if conjunction { Rq::False } else { Rq::True };
        }

        // Absorption: in a conjunction, X absorbs any ∨-sibling that
        // contains X (X ∧ (X ∨ Y) ≡ X); dually for disjunctions.
        let singles: Vec<Rq> = kept
            .iter()
            .filter(|c| !matches!(c, Rq::And(_) | Rq::Or(_)))
            .cloned()
            .collect();
        let before = kept.len();
        kept.retain(|c| {
            let inner = match (conjunction, c) {
                (true, Rq::Or(inner)) | (false, Rq::And(inner)) => inner,
                _ => return true,
            };
            !singles.iter().any(|s| inner.contains(s))
        });
        report.pruned += before - kept.len();

        // Cheapest-first ordering for short-circuit evaluation.
        let mut keyed: Vec<(f64, Rq)> = kept
            .into_iter()
            .map(|c| (self.cost(&c, bound), c))
            .collect();
        let already_sorted = keyed.windows(2).all(|w| w[0].0 <= w[1].0);
        if !already_sorted {
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            report.reordered += 1;
        }
        let ordered: Vec<Rq> = keyed.into_iter().map(|(_, c)| c).collect();
        if conjunction {
            Rq::and(ordered)
        } else {
            Rq::or(ordered)
        }
    }
}

/// One-shot convenience over [`Planner`].
pub fn optimize_rq(rq: &Rq, stats: &dyn Cardinality) -> Rq {
    Planner::new(stats).optimize(rq)
}

/// A precomputed static evaluation order for a conjunctive query — the
/// prepared-query, cost-based counterpart of the greedy order
/// [`crate::cq::solve_conjunction`] fixes per call. Computed once (per
/// rule revision) by [`Planner::plan_conjunction`] and replayed by
/// [`crate::cq::solve_planned`], so hot queries stop paying for the
/// order on every call.
#[derive(Clone, Debug, PartialEq)]
pub struct ConjunctionPlan {
    /// Indices into the query's literal list, in dispatch order.
    pub order: Vec<usize>,
    /// Estimated cost of the planned order under the statistics the
    /// plan was built with (diagnostics only — never affects answers).
    pub estimated_cost: f64,
}

impl Planner<'_> {
    /// Choose a static dispatch order for the conjunction `literals`,
    /// with the variables in `bound` treated as already bound (query
    /// parameters are, by the time the query executes). Mirrors the
    /// runtime heuristic — fully bound literals first, then the
    /// cheapest positive literal — but decided once against the cost
    /// model instead of per backtracking step. Negative literals are
    /// dispatched as soon as their variables are covered by earlier
    /// positive literals; the answer set is order independent, so the
    /// plan only affects cost, never results.
    pub fn plan_conjunction(&self, literals: &[Literal], bound: &HashSet<Sym>) -> ConjunctionPlan {
        let mut bound = bound.clone();
        let mut remaining: Vec<usize> = (0..literals.len()).collect();
        let mut order = Vec::with_capacity(literals.len());
        let mut estimated_cost = 0.0f64;
        let mut fanout = 1.0f64;
        while !remaining.is_empty() {
            let ground_of = |lit: &Literal, bound: &HashSet<Sym>| {
                lit.atom.args.iter().all(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
            };
            // Fully bound literal (membership / ground negation test):
            // dispatch immediately, it can only shrink the search.
            let slot = remaining
                .iter()
                .position(|&i| ground_of(&literals[i], &bound))
                .or_else(|| {
                    // Otherwise the cheapest *positive* literal under the
                    // current binding set.
                    remaining
                        .iter()
                        .enumerate()
                        .filter(|&(_, &i)| literals[i].positive)
                        .map(|(slot, &i)| (slot, self.literal_cost(&literals[i], &bound)))
                        .min_by(|a, b| a.1.total_cmp(&b.1))
                        .map(|(slot, _)| slot)
                })
                // Only non-ground negative literals left: emit them in
                // query order; the runtime reports the safety violation
                // exactly like the unplanned path.
                .unwrap_or(0);
            let idx = remaining.remove(slot);
            let lit = &literals[idx];
            let step = self.literal_cost(lit, &bound);
            estimated_cost = (estimated_cost + fanout * step).min(COST_CAP);
            if lit.positive {
                fanout = (fanout * step).min(COST_CAP);
                bound.extend(lit.atom.vars());
            }
            order.push(idx);
        }
        ConjunctionPlan {
            order,
            estimated_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::satisfies_closed;
    use uniform_logic::{normalize, parse_fact, parse_formula};

    fn rq(src: &str) -> Rq {
        normalize(&parse_formula(src).unwrap()).unwrap()
    }

    fn facts(srcs: &[&str]) -> FactSet {
        FactSet::from_facts(srcs.iter().map(|f| parse_fact(f).unwrap()))
    }

    fn stats(pairs: &[(&str, usize)]) -> FixedStats {
        FixedStats(pairs.iter().map(|&(p, n)| (Sym::new(p), n)).collect())
    }

    #[test]
    fn literal_cost_prefers_bound_positions() {
        let s = stats(&[("big", 10_000)]);
        let p = Planner::new(&s);
        let free = rq("exists X, Y: big(X, Y)");
        let half = rq("exists X: big(X, c)");
        assert!(p.estimate(&free) > p.estimate(&half));
        assert_eq!(
            p.estimate(&rq("big(a, b)")),
            1.0,
            "ground literal is a lookup"
        );
    }

    #[test]
    fn disjunction_reordered_cheapest_first() {
        let s = stats(&[("huge", 1_000_000), ("tiny", 2)]);
        let p = Planner::new(&s);
        let f = rq("(exists X, Y: huge(X, Y)) | (exists X: tiny(X))");
        let (optimized, report) = p.optimize_with_report(&f);
        assert_eq!(report.reordered, 1);
        match optimized {
            Rq::Or(children) => match &children[0] {
                Rq::Exists { range, .. } => assert_eq!(range[0].pred, Sym::new("tiny")),
                other => panic!("unexpected first child {other}"),
            },
            other => panic!("not a disjunction: {other}"),
        }
    }

    #[test]
    fn already_ordered_left_alone() {
        let s = stats(&[("a", 1), ("b", 100)]);
        let p = Planner::new(&s);
        let f = rq("(exists X: a(X)) | (exists X: b(X))");
        let (_, report) = p.optimize_with_report(&f);
        assert_eq!(report.reordered, 0);
    }

    #[test]
    fn idempotent_duplicates_pruned() {
        let s = stats(&[]);
        let p = Planner::new(&s);
        let f = Rq::and(vec![rq("p(a)"), rq("p(a)"), rq("q(b)")]);
        let (optimized, report) = p.optimize_with_report(&f);
        assert_eq!(report.pruned, 1);
        assert_eq!(optimized, Rq::and(vec![rq("p(a)"), rq("q(b)")]));
    }

    #[test]
    fn complementary_literals_collapse() {
        let s = stats(&[]);
        let p = Planner::new(&s);
        assert_eq!(
            p.optimize(&Rq::and(vec![rq("p(a)"), rq("~p(a)")])),
            Rq::False
        );
        assert_eq!(p.optimize(&Rq::or(vec![rq("p(a)"), rq("~p(a)")])), Rq::True);
    }

    #[test]
    fn absorption_laws() {
        let s = stats(&[]);
        let p = Planner::new(&s);
        // p(a) ∧ (p(a) ∨ q(b)) ≡ p(a)
        let f = Rq::And(vec![rq("p(a)"), Rq::Or(vec![rq("p(a)"), rq("q(b)")])]);
        assert_eq!(p.optimize(&f), rq("p(a)"));
        // p(a) ∨ (p(a) ∧ q(b)) ≡ p(a)
        let g = Rq::Or(vec![rq("p(a)"), Rq::And(vec![rq("p(a)"), rq("q(b)")])]);
        assert_eq!(p.optimize(&g), rq("p(a)"));
    }

    #[test]
    fn quantifier_fanout_scales_cost() {
        let s = stats(&[("emp", 1000), ("dept", 10), ("member", 5000)]);
        let p = Planner::new(&s);
        let narrow = rq("forall X: dept(X) -> (exists Y: member(Y, X))");
        let wide = rq("forall X: emp(X) -> (exists Y: member(X, Y))");
        assert!(p.estimate(&wide) > p.estimate(&narrow));
    }

    /// The load-bearing property: optimization never changes the verdict.
    #[test]
    fn optimization_preserves_semantics_on_fixtures() {
        let dbs = [
            facts(&[]),
            facts(&["p(a).", "q(a)."]),
            facts(&["p(a).", "p(b).", "q(b).", "r(a, b)."]),
            facts(&["emp(a).", "emp(b).", "dept(d).", "member(a, d)."]),
        ];
        let formulas = [
            "forall X: p(X) -> q(X)",
            "(exists X: p(X)) | (exists X: q(X))",
            "(exists X: p(X) & q(X)) & (exists Y: p(Y))",
            "forall X: emp(X) -> (exists Y: dept(Y) & member(X, Y))",
            "forall X, Y: r(X, Y) -> (p(X) | q(Y))",
            "p(a) | ~p(a)",
            "(p(a) & q(a)) | (p(b) & q(b))",
        ];
        for db in &dbs {
            let planner = Planner::new(db);
            for src in formulas {
                let f = rq(src);
                let o = planner.optimize(&f);
                assert_eq!(
                    satisfies_closed(db, &f),
                    satisfies_closed(db, &o),
                    "verdict changed for `{src}`: optimized to `{o}`"
                );
            }
        }
    }

    #[test]
    fn conjunction_plans_are_safe_and_selective() {
        use uniform_logic::parse_query;
        let s = stats(&[("huge", 100_000), ("tiny", 2), ("mid", 500)]);
        let p = Planner::new(&s);
        // Cheapest positive first; the negative literal is dispatched
        // only once its variable is bound.
        let q = parse_query("huge(X, Y), tiny(X), not mid(Y)").unwrap();
        let plan = p.plan_conjunction(&q, &HashSet::new());
        assert_eq!(plan.order[0], 1, "tiny leads");
        assert!(
            plan.order.iter().position(|&i| i == 2).unwrap()
                > plan.order.iter().position(|&i| i == 0).unwrap(),
            "negation after its binder: {:?}",
            plan.order
        );
        // Parameters count as bound: with Y a parameter, the ground
        // negation can lead.
        let bound: HashSet<Sym> = [Sym::new("Y")].into();
        let q = parse_query("huge(X, Y), not mid(Y)").unwrap();
        let plan = p.plan_conjunction(&q, &bound);
        assert_eq!(plan.order, vec![1, 0]);
        // The order is always a permutation.
        let q = parse_query("mid(A, B), huge(B, C), tiny(C)").unwrap();
        let plan = p.plan_conjunction(&q, &HashSet::new());
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        assert!(plan.estimated_cost.is_finite());
    }

    #[test]
    fn cost_cap_prevents_overflow() {
        let s = stats(&[("x", usize::MAX / 2)]);
        let p = Planner::new(&s);
        let f = rq("forall A, A2: x(A, A2) -> (forall B, B2: x(B, B2) -> (forall C, C2: x(C, C2) -> (exists D, D2: x(D, D2))))");
        assert!(p.estimate(&f).is_finite());
    }
}
