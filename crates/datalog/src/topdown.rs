//! The overlay query engine: the evaluator `new(U, ·)` relies on.
//!
//! §3.3.2 simulates the updated database with a meta-interpreter instead
//! of applying the update: an atom holds in `U(D)` if it is explicit and
//! not deleted, or is the inserted fact, or follows from a rule whose body
//! holds in `U(D)`. The paper notes that the interpreter "is not
//! recursive as long as no deduction rules of the database are recursive",
//! and that recursive rules require a query evaluator able to handle
//! recursion (Vieille 87).
//!
//! This engine follows the same split:
//!
//! * predicates whose reachable subprogram is non-recursive are solved by
//!   goal-directed SLD-style resolution over the overlaid EDB — zero
//!   materialization, bindings pushed into scans;
//! * predicates that reach recursion are read from the update's
//!   [`Propagation`]: the canonical model of `D` the engine is built
//!   over, overlaid with the induced flips of the subprogram below
//!   recursion, which the propagation kernel computes in time that
//!   follows the flips (once per engine, on the first such query).

use crate::cq::solve_conjunction;
use crate::interp::{Interp, Overlay};
use crate::maintain::{Propagation, PropagationStats};
use crate::model::Model;
use crate::program::RuleSet;
use crate::store::FactSet;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use uniform_logic::{Fact, Subst, Sym, SymState, Term};

/// A virtual interpretation of the canonical model of `U(D)`, where the
/// update is *not* applied to `edb`.
///
/// Single-threaded: an engine is a local of one check or one read, so
/// the lazily computed propagation and the shared-subquery memo are
/// plain cells, and the engine is not `Sync`.
pub struct OverlayEngine<'a> {
    edb: &'a FactSet,
    rules: &'a RuleSet,
    added: Vec<Fact>,
    removed: Vec<Fact>,
    /// The canonical model of the unupdated database.
    model: &'a Model,
    /// The update's propagation over `model`, computed when a
    /// recursion-reaching predicate is first queried.
    propagation: OnceCell<Propagation<&'a FactSet>>,
    /// Memo for ground IDB goals solved through the SLD path. This is the
    /// engine-level realization of §3.2's "global evaluation": when many
    /// simplified instances are evaluated against one simulated state,
    /// shared subqueries (the paper's `attends(jack, ddb)` example) are
    /// answered once.
    goal_memo: RefCell<HashMap<Fact, bool, SymState>>,
    memo_hits: Cell<usize>,
}

impl<'a> OverlayEngine<'a> {
    /// Engine for the updated state `U(D)` — this is `new` — where
    /// `model` is the canonical model of `edb` under `rules`. Positive
    /// update literals are insertions, negative ones deletions (§3); a
    /// transaction passes its net effect. An empty update gives the
    /// current state — this is `evaluate`.
    pub fn over_model(
        model: &'a Model,
        edb: &'a FactSet,
        rules: &'a RuleSet,
        insert: Vec<Fact>,
        delete: Vec<Fact>,
    ) -> Self {
        OverlayEngine {
            edb,
            rules,
            added: insert,
            removed: delete,
            model,
            propagation: OnceCell::new(),
            goal_memo: RefCell::new(HashMap::default()),
            memo_hits: Cell::new(0),
        }
    }

    fn overlay(&self) -> Overlay<'_, FactSet> {
        Overlay::new(self.edb, &self.added, &self.removed)
    }

    /// The canonical model of the unupdated database the engine was
    /// built over.
    pub fn model(&self) -> &'a Model {
        self.model
    }

    /// The update's propagation over [`OverlayEngine::model`] — the
    /// induced flips below recursion, and the updated state as that
    /// model overlaid with them — computed once per engine.
    pub fn propagation(&self) -> &Propagation<&'a FactSet> {
        self.propagation.get_or_init(|| {
            Propagation::new(
                self.model.facts(),
                self.rules,
                self.rules.recursion_layers(),
                &self.overlay(),
                &self.added,
                &self.removed,
                &[],
            )
        })
    }

    /// The propagation kernel's work so far (zero until a
    /// recursion-reaching predicate was queried).
    pub fn propagation_stats(&self) -> PropagationStats {
        self.propagation
            .get()
            .map(Propagation::stats)
            .unwrap_or_default()
    }

    /// Ground-subquery memo hits (the redundant subqueries of §3.2).
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.get()
    }

    /// Resolve a ground goal by scanning with every position bound
    /// (the uncached slow path behind [`Interp::holds`]).
    fn resolve(&self, fact: &Fact) -> bool {
        let pattern: Vec<Option<Sym>> = fact.args.iter().map(|&c| Some(c)).collect();
        let mut found = false;
        self.scan(fact.pred, &pattern, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Solve an IDB goal by SLD resolution (non-recursive path).
    fn solve_rules(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        emitted: &mut HashSet<Vec<Sym>, SymState>,
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        // The call pattern is ground where bound, so the rule is matched
        // as written: its variables meet only constants.
        for (_, rule) in self.rules.rules_for(pred) {
            // Unify the head with the call pattern.
            let mut subst = Subst::new();
            let mut ok = true;
            for (&arg, pat) in rule.head.args.iter().zip(pattern) {
                if let Some(c) = pat {
                    if !uniform_logic::unify_terms(&mut subst, arg, Term::Const(*c)) {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let mut keep_going = true;
            solve_conjunction(self, &rule.body, &mut subst, &mut |s| {
                let Some(fact) = s.ground_atom(&rule.head) else {
                    return true;
                };
                if emitted.insert(fact.args.clone()) {
                    keep_going = each(&fact.args);
                }
                keep_going
            });
            if !keep_going {
                return false;
            }
        }
        true
    }
}

impl Interp for OverlayEngine<'_> {
    fn holds(&self, fact: &Fact) -> bool {
        // Memoize ground IDB goals on the SLD path; EDB lookups and
        // propagated (recursive) predicates are O(1) already. A
        // non-recursive goal cannot re-ask itself while it resolves, so
        // each goal is resolved once and every re-ask is a hit.
        let graph = self.rules.graph();
        if !graph.is_idb(fact.pred) {
            return self.overlay().holds(fact);
        }
        if graph.reaches_recursion(fact.pred) {
            return self.resolve(fact);
        }
        if let Some(&verdict) = self.goal_memo.borrow().get(fact) {
            self.memo_hits.set(self.memo_hits.get() + 1);
            return verdict;
        }
        let verdict = self.resolve(fact);
        self.goal_memo.borrow_mut().insert(fact.clone(), verdict);
        verdict
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        let graph = self.rules.graph();
        if !graph.is_idb(pred) {
            // Pure EDB predicate: overlaid base facts only.
            return self.overlay().scan(pred, pattern, each);
        }
        if graph.reaches_recursion(pred) {
            return self.propagation().state.scan(pred, pattern, each);
        }
        // Non-recursive IDB: explicit facts first, then SLD over rules,
        // deduplicating across both sources.
        let mut emitted: HashSet<Vec<Sym>, SymState> = HashSet::default();
        let completed = self.overlay().scan(pred, pattern, &mut |args| {
            if emitted.insert(args.to_vec()) {
                each(args)
            } else {
                true
            }
        });
        if !completed {
            return false;
        }
        self.solve_rules(pred, pattern, &mut emitted, each)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::{parse_fact, parse_rule, Rule};

    fn edb(facts: &[&str]) -> FactSet {
        FactSet::from_facts(facts.iter().map(|f| parse_fact(f).unwrap()))
    }

    fn rules(srcs: &[&str]) -> RuleSet {
        RuleSet::new(
            srcs.iter()
                .map(|s| parse_rule(s).unwrap())
                .collect::<Vec<Rule>>(),
        )
        .unwrap()
    }

    fn fact(src: &str) -> Fact {
        parse_fact(src).unwrap()
    }

    #[test]
    fn edb_queries_see_overlay() {
        let e = edb(&["p(a)."]);
        let r = rules(&[]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![fact("p(b).")], vec![]);
        assert!(engine.holds(&fact("p(a).")));
        assert!(engine.holds(&fact("p(b).")));
        let engine2 = OverlayEngine::over_model(&m, &e, &r, vec![], vec![fact("p(a).")]);
        assert!(!engine2.holds(&fact("p(a).")));
    }

    #[test]
    fn derived_facts_follow_insertion() {
        // §5 rule: member(X,Y) :- leads(X,Y). Inserting leads(c,b) makes
        // member(c,b) true in the simulated state.
        let e = edb(&[]);
        let r = rules(&["member(X,Y) :- leads(X,Y)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![fact("leads(c,b).")], vec![]);
        assert!(engine.holds(&fact("member(c,b).")));
        assert!(!engine.holds(&fact("member(b,c).")));
        assert_eq!(
            engine.propagation_stats(),
            PropagationStats::default(),
            "non-recursive: pure SLD"
        );
    }

    #[test]
    fn derived_facts_follow_deletion() {
        let e = edb(&["leads(c,b)."]);
        let r = rules(&["member(X,Y) :- leads(X,Y)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![], vec![fact("leads(c,b).")]);
        assert!(!engine.holds(&fact("member(c,b).")));
        // And the current-state engine still sees it.
        let now = OverlayEngine::over_model(&m, &e, &r, vec![], vec![]);
        assert!(now.holds(&fact("member(c,b).")));
    }

    #[test]
    fn explicit_and_derived_deduplicated() {
        let e = edb(&["member(a,b).", "leads(a,b)."]);
        let r = rules(&["member(X,Y) :- leads(X,Y)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![], vec![]);
        let mut n = 0;
        engine.scan(Sym::new("member"), &[None, None], &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn negation_in_rule_bodies() {
        let e = edb(&["emp(a).", "emp(b).", "absent(b)."]);
        let r = rules(&["present(X) :- emp(X), not absent(X)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![], vec![]);
        assert!(engine.holds(&fact("present(a).")));
        assert!(!engine.holds(&fact("present(b).")));
        // Simulate inserting absent(a): present(a) flips off.
        let upd = OverlayEngine::over_model(&m, &e, &r, vec![fact("absent(a).")], vec![]);
        assert!(!upd.holds(&fact("present(a).")));
    }

    #[test]
    fn recursive_predicates_read_one_propagation() {
        let e = edb(&["edge(a,b).", "edge(b,c)."]);
        let r = rules(&["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), edge(Y,Z)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![fact("edge(c,d).")], vec![]);
        assert_eq!(engine.propagation_stats(), PropagationStats::default());
        assert!(engine.holds(&fact("tc(a,d).")));
        let first = engine.propagation_stats();
        assert_ne!(first, PropagationStats::default());
        // Later recursive queries read the same propagation.
        assert!(engine.holds(&fact("tc(b,d).")));
        assert!(!engine.holds(&fact("tc(d,a).")));
        assert_eq!(engine.propagation_stats(), first);
        assert!(engine
            .propagation()
            .flips()
            .contains(&(fact("tc(a,d)."), true)));
    }

    #[test]
    fn recursive_predicates_read_the_propagation_over_a_model() {
        let e = edb(&["edge(a,b).", "edge(b,c)."]);
        let r = rules(&[
            "tc(X,Y) :- edge(X,Y).",
            "tc(X,Z) :- tc(X,Y), edge(Y,Z).",
            "connected(X,Y) :- tc(X,Y).",
            "member(X,Y) :- leads(X,Y).",
        ]);
        let model = Model::compute(&e, &r);
        let insert = vec![fact("edge(c,d)."), fact("leads(c,b).")];
        let engine = OverlayEngine::over_model(&model, &e, &r, insert, vec![]);
        assert!(engine.holds(&fact("connected(a,d).")));
        assert!(engine.holds(&fact("member(c,b).")));
        // Only the subprogram below recursion is propagated; `member`
        // is left to SLD resolution.
        let flips = engine.propagation().flips();
        assert!(flips.contains(&(fact("connected(a,d)."), true)));
        assert!(flips.iter().all(|(f, _)| f.pred != Sym::new("member")));
    }

    #[test]
    fn recursion_behind_nonrecursive_wrapper() {
        let e = edb(&["edge(a,b)."]);
        let r = rules(&[
            "tc(X,Y) :- edge(X,Y).",
            "tc(X,Z) :- tc(X,Y), edge(Y,Z).",
            "connected(X,Y) :- tc(X,Y).",
        ]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![fact("edge(b,c).")], vec![]);
        assert!(engine.holds(&fact("connected(a,c).")));
    }

    #[test]
    fn scan_with_pattern_over_rules() {
        let e = edb(&["leads(ann,sales).", "leads(bob,hr)."]);
        let r = rules(&["member(X,Y) :- leads(X,Y)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![], vec![]);
        let mut seen = Vec::new();
        engine.scan(
            Sym::new("member"),
            &[None, Some(Sym::new("hr"))],
            &mut |t| {
                seen.push(t[0].as_str());
                true
            },
        );
        assert_eq!(seen, vec!["bob"]);
    }

    #[test]
    fn goal_memo_counts_reasks() {
        let e = edb(&["leads(ann,sales).", "leads(bob,hr)."]);
        let r = rules(&["member(X,Y) :- leads(X,Y)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![], vec![]);
        // Each goal is resolved on its first ask; every re-ask is a hit.
        assert!(engine.holds(&fact("member(ann,sales).")));
        assert!(engine.holds(&fact("member(bob,hr).")));
        assert_eq!(engine.memo_hits(), 0);
        for _ in 0..4 {
            assert!(engine.holds(&fact("member(ann,sales).")));
            assert!(!engine.holds(&fact("member(ann,hr).")));
        }
        // 4 re-asks of the warm goal; the cold goal was resolved on the
        // first round and re-asked on the other 3.
        assert_eq!(engine.memo_hits(), 7);
    }

    #[test]
    fn inserting_explicitly_present_fact_changes_nothing() {
        let e = edb(&["p(a)."]);
        let r = rules(&["q(X) :- p(X)."]);
        let m = Model::compute(&e, &r);
        let engine = OverlayEngine::over_model(&m, &e, &r, vec![fact("p(a).")], vec![]);
        let mut n = 0;
        engine.scan(Sym::new("q"), &[None], &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
    }
}
