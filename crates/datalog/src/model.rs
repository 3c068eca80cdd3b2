//! Canonical-model materialization: stratified semi-naive evaluation.
//!
//! §2: "The semantics of integrity constraints — as of queries in general
//! — are defined according to a canonical interpretation in which the true
//! atoms are exactly those that are explicit in F or derivable from F and
//! R", with R stratified in the sense of Apt–Blair–Walker. This module
//! computes that interpretation bottom-up, stratum by stratum, with
//! semi-naive differentiation inside each stratum.

use crate::cq::{solve_conjunction, solve_conjunction_without};
use crate::interp::Interp;
use crate::program::RuleSet;
use crate::store::FactSet;
use std::cell::Cell;
use std::collections::HashSet;
use uniform_logic::{Fact, Rule, Subst, Sym};

/// A materialized canonical model. Wraps a [`FactSet`] holding explicit
/// and derived facts together.
#[derive(Clone, Debug, Default)]
pub struct Model {
    facts: FactSet,
}

thread_local! {
    static COMPUTES: Cell<u64> = const { Cell::new(0) };
    pub(crate) static KERNEL_RUNS: Cell<u64> = const { Cell::new(0) };
}

impl Model {
    /// Compute the canonical model of `edb` under `rules`. Its relations
    /// for predicates no rule defines are `edb`'s own, shared.
    pub fn compute(edb: &FactSet, rules: &RuleSet) -> Model {
        COMPUTES.with(|n| n.set(n.get() + 1));
        let mut facts = edb.clone();
        let graph = rules.graph();
        let height = graph.height();

        for stratum in 0..height {
            // Rules of this stratum (by head predicate).
            let layer: Vec<&Rule> = rules
                .rules()
                .iter()
                .filter(|r| graph.stratum(r.head.pred) == stratum)
                .collect();
            if layer.is_empty() {
                continue;
            }

            // Naive first round: derive from everything present. Every
            // rule of the stratum sees the fixed pre-round state; new
            // facts join in rule order, then emission order (iteration
            // order is load-bearing, see `store`).
            let mut delta: Vec<Fact> = Vec::new();
            let mut delta_set: HashSet<Fact> = HashSet::new();
            for rule in &layer {
                derive_all(&facts, rule, &mut |f| {
                    if !facts.contains(&f) && delta_set.insert(f.clone()) {
                        delta.push(f);
                    }
                });
            }
            for f in &delta {
                facts.insert(f);
            }

            // Only differentiate on literals of this stratum's IDB
            // predicates: lower-stratum and EDB relations cannot have
            // grown during this stratum.
            saturate(
                &mut facts,
                &layer,
                |pred| graph.stratum(pred) == stratum && graph.is_idb(pred),
                delta,
            );
        }
        Model { facts }
    }

    /// How many times [`Model::compute`] has run on the calling thread:
    /// an exact count, with no lock, for tests that pin where whole-state
    /// models are computed.
    pub fn computes_on_this_thread() -> u64 {
        COMPUTES.with(Cell::get)
    }

    /// How many times the propagation kernel ([`crate::Propagation`])
    /// has run on the calling thread, counted as computes are.
    pub fn kernel_runs_on_this_thread() -> u64 {
        KERNEL_RUNS.with(Cell::get)
    }

    /// Wrap an already-materialized canonical model. The caller asserts
    /// that `facts` *is* the canonical model of some `(edb, rules)` pair,
    /// as one the kernel advanced ([`crate::maintain`]) is.
    pub fn from_facts(facts: FactSet) -> Model {
        Model { facts }
    }

    pub fn facts(&self) -> &FactSet {
        &self.facts
    }

    pub fn len(&self) -> usize {
        self.facts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    pub fn contains(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }

    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.facts.iter()
    }
}

impl Interp for Model {
    fn holds(&self, fact: &Fact) -> bool {
        self.facts.contains(fact)
    }

    fn holds_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        self.facts.contains_tuple(pred, args)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        self.facts.scan(pred, pattern, each)
    }
}

/// Fire `rule` in `interp`, emitting every (possibly already known) head
/// fact.
pub(crate) fn derive_all(interp: &dyn Interp, rule: &Rule, emit: &mut dyn FnMut(Fact)) {
    let mut subst = Subst::new();
    solve_conjunction(interp, &rule.body, &mut subst, &mut |s| {
        if let Some(f) = s.ground_atom(&rule.head) {
            emit(f);
        }
        true
    });
}

/// A fact store that semi-naive rounds grow: rule bodies are evaluated
/// in [`Frontier::view`], and a derived fact joins it through
/// [`Frontier::admit`] when [`Frontier::admits`] says it is new.
pub(crate) trait Frontier {
    fn view(&self) -> &dyn Interp;
    fn admits(&self, fact: &Fact) -> bool;
    fn admit(&mut self, fact: &Fact);
}

impl Frontier for FactSet {
    fn view(&self) -> &dyn Interp {
        self
    }

    fn admits(&self, fact: &Fact) -> bool {
        !self.contains(fact)
    }

    fn admit(&mut self, fact: &Fact) {
        self.insert(fact);
    }
}

/// Semi-naive rounds over `layer`, starting from `delta` (already
/// admitted): each round only fires rules through a positive body
/// literal on a `grows` predicate bound to a fact of the previous
/// round's delta, the rest evaluated against the fixed pre-round state;
/// the round's new facts are admitted in rule order, then emission order.
pub(crate) fn saturate<S: Frontier + ?Sized>(
    state: &mut S,
    layer: &[&Rule],
    grows: impl Fn(Sym) -> bool,
    mut delta: Vec<Fact>,
) {
    while !delta.is_empty() {
        let mut next: Vec<Fact> = Vec::new();
        let mut next_set: HashSet<Fact> = HashSet::new();
        for rule in layer {
            for (pos, lit) in rule.body.iter().enumerate() {
                if !lit.positive || !grows(lit.atom.pred) {
                    continue;
                }
                for d in &delta {
                    derive_through(state.view(), rule, pos, d, &mut |f| {
                        if state.admits(&f) && next_set.insert(f.clone()) {
                            next.push(f);
                        }
                    });
                }
            }
        }
        for f in &next {
            state.admit(f);
        }
        delta = next;
    }
}

/// Fire `rule` with body literal `pos` bound to the delta fact `d` and the
/// remaining literals evaluated in `interp`.
pub(crate) fn derive_through(
    interp: &dyn Interp,
    rule: &Rule,
    pos: usize,
    d: &Fact,
    emit: &mut dyn FnMut(Fact),
) {
    let lit = &rule.body[pos];
    let Some(mut subst) = uniform_logic::match_atom(&lit.atom, d) else {
        return;
    };
    solve_conjunction_without(interp, &rule.body, pos, &mut subst, &mut |s| {
        if let Some(f) = s.ground_atom(&rule.head) {
            emit(f);
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::{parse_fact, parse_rule};

    fn edb(facts: &[&str]) -> FactSet {
        FactSet::from_facts(facts.iter().map(|f| parse_fact(f).unwrap()))
    }

    fn rules(srcs: &[&str]) -> RuleSet {
        RuleSet::new(srcs.iter().map(|s| parse_rule(s).unwrap()).collect()).unwrap()
    }

    #[test]
    fn flat_rule_derivation() {
        let m = Model::compute(
            &edb(&["leads(ann, sales)."]),
            &rules(&["member(X,Y) :- leads(X,Y)."]),
        );
        assert!(m.contains(&parse_fact("member(ann, sales).").unwrap()));
        assert!(m.contains(&parse_fact("leads(ann, sales).").unwrap()));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn transitive_closure_linear() {
        let m = Model::compute(
            &edb(&["edge(a,b).", "edge(b,c).", "edge(c,d)."]),
            &rules(&["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), edge(Y,Z)."]),
        );
        for (x, y) in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")] {
            assert!(
                m.contains(&Fact::parse_like("tc", &[x, y])),
                "missing tc({x},{y})"
            );
        }
        assert_eq!(m.iter().filter(|f| f.pred == Sym::new("tc")).count(), 6);
    }

    #[test]
    fn transitive_closure_nonlinear() {
        let m = Model::compute(
            &edb(&["edge(a,b).", "edge(b,c).", "edge(c,a)."]),
            &rules(&["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), tc(Y,Z)."]),
        );
        // Cycle: everything reaches everything.
        assert_eq!(m.iter().filter(|f| f.pred == Sym::new("tc")).count(), 9);
    }

    #[test]
    fn stratified_negation() {
        let m = Model::compute(
            &edb(&["node(a).", "node(b).", "node(c).", "edge(a,b)."]),
            &rules(&[
                "reach(X,Y) :- edge(X,Y).",
                "reach(X,Z) :- reach(X,Y), edge(Y,Z).",
                "unreach(X,Y) :- node(X), node(Y), not reach(X,Y).",
            ]),
        );
        assert!(m.contains(&Fact::parse_like("unreach", &["b", "a"])));
        assert!(m.contains(&Fact::parse_like("unreach", &["a", "c"])));
        assert!(!m.contains(&Fact::parse_like("unreach", &["a", "b"])));
        // a cannot reach a (no self loop).
        assert!(m.contains(&Fact::parse_like("unreach", &["a", "a"])));
    }

    #[test]
    fn mutual_recursion_even_odd() {
        let m = Model::compute(
            &edb(&["zero(n0).", "succ(n0,n1).", "succ(n1,n2).", "succ(n2,n3)."]),
            &rules(&[
                "even(X) :- zero(X).",
                "even(X) :- succ(Y,X), odd(Y).",
                "odd(X) :- succ(Y,X), even(Y).",
            ]),
        );
        assert!(m.contains(&Fact::parse_like("even", &["n0"])));
        assert!(m.contains(&Fact::parse_like("odd", &["n1"])));
        assert!(m.contains(&Fact::parse_like("even", &["n2"])));
        assert!(m.contains(&Fact::parse_like("odd", &["n3"])));
        assert!(!m.contains(&Fact::parse_like("odd", &["n0"])));
        assert!(!m.contains(&Fact::parse_like("even", &["n1"])));
    }

    #[test]
    fn idb_predicates_can_have_edb_facts() {
        let m = Model::compute(
            &edb(&["member(bob, hr).", "leads(ann, sales)."]),
            &rules(&["member(X,Y) :- leads(X,Y)."]),
        );
        assert!(m.contains(&Fact::parse_like("member", &["bob", "hr"])));
        assert!(m.contains(&Fact::parse_like("member", &["ann", "sales"])));
    }

    #[test]
    fn same_generation() {
        let m = Model::compute(
            &edb(&[
                "parent(a, b).",
                "parent(a, c).",
                "parent(b, d).",
                "parent(c, e).",
            ]),
            &rules(&[
                "sg(X,X) :- person(X).",
                "person(X) :- parent(X, Y).",
                "person(Y) :- parent(X, Y).",
                "sg(X,Y) :- parent(PX, X), sg(PX, PY), parent(PY, Y).",
            ]),
        );
        assert!(m.contains(&Fact::parse_like("sg", &["b", "c"])));
        assert!(m.contains(&Fact::parse_like("sg", &["d", "e"])));
        assert!(!m.contains(&Fact::parse_like("sg", &["b", "e"])));
    }
}
