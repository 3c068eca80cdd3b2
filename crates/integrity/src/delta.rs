//! The `delta` evaluator (§3.3.3): ground literals true in `U(D)` but not
//! in `D`, enumerated as *descendants of the update*.
//!
//! The naive implementation `delta(U,F) :- new(U,F), evaluate(not F)`
//! would "in general be extremely inefficient" (§3.3.3): it enumerates
//! everything true in the updated state. The paper instead "exploits that
//! any induced update is necessarily a descendent of the update literal":
//! candidates are generated by following `directly_dependent` edges from
//! the update, evaluating rule-body residues, and verifying the truth
//! flip.
//!
//! ## Deviation from the published Prolog
//!
//! The paper evaluates the residue `B\L'` in `U(D)` (`new(U,R)`) for both
//! polarities. For induced *deletions* this misses updates when two body
//! literals of one rule flip together (e.g. `a ← b ∧ c` with `b ← d`,
//! `c ← d`, deleting `d`: the residue `{c}` is already false in `U(D)`
//! when candidate `¬a` is generated through `b`). The correct candidate
//! state is the one in which the derivation *existed*: residues are
//! evaluated in `U(D)` for induced insertions and in `D` for induced
//! deletions. The final verification step is as published.
//!
//! Recursive predicates: the descent does not terminate on patterns whose
//! predicate reaches a recursive cycle (the paper defers to a
//! recursion-capable evaluator). For those patterns delta is a filter of
//! the update's induced flips, which the propagation kernel
//! (`uniform_datalog::Propagation`) computes once per overlay engine
//! over the model of `D` — the same flips the engine answers `new` from.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use uniform_datalog::{
    solve_conjunction_without, Interp, Model, OverlayEngine, PropagationStats, RuleSet, Update,
};
use uniform_logic::{match_atom, unify_atoms, Fact, Literal, PatternKey, Renaming};

/// Statistics collected during delta evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// delta pattern evaluations (memo misses).
    pub patterns_evaluated: usize,
    /// Ground induced updates emitted (over all patterns, with
    /// multiplicity per pattern).
    pub answers: usize,
    /// Work of the propagation kernel behind recursion-reaching patterns
    /// (and the overlay engine's `new` for them).
    pub propagation: PropagationStats,
}

/// Evaluator for `delta(U, ·)` against a fixed update.
///
/// Single-threaded, like the [`OverlayEngine`] it reads: each check
/// builds its own engine and evaluates on one thread, so the memo and
/// the counters are plain cells.
pub struct DeltaEngine<'a> {
    /// Canonical model of `D` — the paper's `evaluate`.
    current: &'a Model,
    /// Simulated `U(D)` — the paper's `new`.
    updated: &'a OverlayEngine<'a>,
    rules: &'a RuleSet,
    /// The (net) update literals themselves — roots of the descent.
    updates: &'a [Update],
    /// Canonical pattern → its delta answers, evaluated once.
    memo: RefCell<HashMap<PatternKey, Rc<Vec<Literal>>>>,
    stats: Cell<DeltaStats>,
}

impl<'a> DeltaEngine<'a> {
    /// `updated` must be built [`OverlayEngine::over_model`] over
    /// `current`: recursion-reaching patterns filter its propagation.
    pub fn new(
        current: &'a Model,
        updated: &'a OverlayEngine<'a>,
        rules: &'a RuleSet,
        updates: &'a [Update],
    ) -> Self {
        assert!(
            std::ptr::eq(updated.model(), current),
            "DeltaEngine: the overlay engine must be built over `current`"
        );
        DeltaEngine {
            current,
            updated,
            rules,
            updates,
            memo: RefCell::new(HashMap::new()),
            stats: Cell::new(DeltaStats::default()),
        }
    }

    pub fn stats(&self) -> DeltaStats {
        DeltaStats {
            propagation: self.updated.propagation_stats(),
            ..self.stats.get()
        }
    }

    /// All ground instances of `pattern` whose truth value flips from `D`
    /// to `U(D)` (insertions for positive patterns, deletions for
    /// negative ones).
    pub fn delta(&self, pattern: &Literal) -> Vec<Literal> {
        self.answers(pattern).to_vec()
    }

    /// [`DeltaEngine::delta`], shared with the memo.
    pub(crate) fn answers(&self, pattern: &Literal) -> Rc<Vec<Literal>> {
        let key = PatternKey::of(pattern);
        if let Some(answers) = self.memo.borrow().get(&key) {
            return answers.clone();
        }
        // The recursive descent below only ever asks for patterns of
        // strictly lower predicates (recursion-reaching patterns filter
        // the propagation instead), so no pattern is computed twice.
        let mut out: Vec<Literal> = Vec::new();
        let mut seen: HashSet<Fact> = HashSet::new();
        self.compute(pattern, &mut |fact| {
            if seen.insert(fact.clone()) {
                out.push(Literal::new(pattern.positive, fact.to_atom()));
            }
        });
        let mut stats = self.stats.get();
        stats.patterns_evaluated += 1;
        stats.answers += out.len();
        self.stats.set(stats);
        let out = Rc::new(out);
        self.memo.borrow_mut().insert(key, out.clone());
        out
    }

    fn compute(&self, pattern: &Literal, emit: &mut dyn FnMut(&Fact)) {
        let graph = self.rules.graph();
        if graph.is_idb(pattern.atom.pred) && graph.reaches_recursion(pattern.atom.pred) {
            for (fact, now) in self.updated.propagation().flips() {
                if *now == pattern.positive && match_atom(&pattern.atom, fact).is_some() {
                    emit(fact);
                }
            }
            return;
        }

        // Base case: the update literals themselves (delta(U, U)).
        for u in self.updates {
            if u.insert == pattern.positive && match_atom(&pattern.atom, &u.fact).is_some() {
                let effective = if u.insert {
                    // Inserted fact was false in D.
                    !self.current.contains(&u.fact)
                } else {
                    // Deleted fact was true in D and is not rederivable.
                    self.current.contains(&u.fact) && !self.updated.holds(&u.fact)
                };
                if effective {
                    emit(&u.fact);
                }
            }
        }

        // Inductive case: one rule application away from a smaller delta.
        // The pattern need not be ground, so each rule is renamed apart
        // from it.
        for (_, rule) in self.rules.rules_for(pattern.atom.pred) {
            let rule = Renaming::apart_from(&pattern.atom).rule(rule);
            let Some(head_subst) = unify_atoms(&rule.head, &pattern.atom) else {
                continue;
            };
            for pos in 0..rule.body.len() {
                let body_lit = head_subst.apply_literal(&rule.body[pos]);
                // Positive target: body literal flips the same way; a rule
                // instance newly fires. Negative target: the body literal
                // is falsified, i.e. its complement is a delta literal.
                let sub_pattern = if pattern.positive {
                    body_lit.clone()
                } else {
                    body_lit.complement()
                };
                for d in self.answers(&sub_pattern).iter() {
                    let d_fact = d.atom.to_fact().expect("delta answers are ground");
                    let Some(theta) = match_atom(&sub_pattern.atom, &d_fact) else {
                        continue;
                    };
                    let mut binding = head_subst.clone();
                    if !binding.try_union(&theta) {
                        continue;
                    }
                    // Residue state: U(D) for insertions, D for deletions
                    // (see module docs). The residue is the body without
                    // `pos`, solved in place: `binding` extends
                    // `head_subst`, so it walks each literal as far as
                    // the substituted copy would.
                    let residue_interp: &dyn Interp = if pattern.positive {
                        self.updated
                    } else {
                        self.current
                    };
                    solve_conjunction_without(
                        residue_interp,
                        &rule.body,
                        pos,
                        &mut binding,
                        &mut |s| {
                            if let Some(head) = s.ground_atom(&rule.head) {
                                let flipped = if pattern.positive {
                                    !self.current.contains(&head)
                                } else {
                                    self.current.contains(&head) && !self.updated.holds(&head)
                                };
                                if flipped {
                                    emit(&head);
                                }
                            }
                            true
                        },
                    );
                }
            }
        }
    }
}

/// Convenience: all induced updates of `updates` over the given state
/// pair, computed by diffing full canonical models (the specification the
/// descendant-driven `delta` is tested against).
pub fn induced_updates_by_diff(before: &Model, after: &Model) -> Vec<Literal> {
    let mut out: Vec<Literal> = Vec::new();
    for f in after.iter() {
        if !before.contains(&f) {
            out.push(Literal::new(true, f.to_atom()));
        }
    }
    for f in before.iter() {
        if !after.contains(&f) {
            out.push(Literal::new(false, f.to_atom()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::FactSet;
    use uniform_logic::{parse_fact, parse_literal, parse_rule, Atom};

    struct Fixture {
        edb: FactSet,
        rules: RuleSet,
        updates: Vec<Update>,
    }

    impl Fixture {
        fn new(facts: &[&str], rules: &[&str], update: &str) -> Fixture {
            let lit = parse_literal(update).unwrap();
            Fixture {
                edb: FactSet::from_facts(facts.iter().map(|f| parse_fact(f).unwrap())),
                rules: RuleSet::new(rules.iter().map(|r| parse_rule(r).unwrap()).collect())
                    .unwrap(),
                updates: vec![Update::from_literal(&lit).unwrap()],
            }
        }

        fn delta(&self, pattern: &str) -> Vec<String> {
            let current = Model::compute(&self.edb, &self.rules);
            let adds: Vec<Fact> = self
                .updates
                .iter()
                .filter_map(|u| u.added().cloned())
                .collect();
            let dels: Vec<Fact> = self
                .updates
                .iter()
                .filter_map(|u| u.removed().cloned())
                .collect();
            let updated = OverlayEngine::over_model(&current, &self.edb, &self.rules, adds, dels);
            let engine = DeltaEngine::new(&current, &updated, &self.rules, &self.updates);
            let mut out: Vec<String> = engine
                .delta(&parse_literal(pattern).unwrap())
                .iter()
                .map(|l| l.to_string())
                .collect();
            out.sort();
            out
        }
    }

    #[test]
    fn base_case_effective_insertion() {
        let fx = Fixture::new(&[], &[], "p(a)");
        assert_eq!(fx.delta("p(X)"), vec!["p(a)"]);
        // Already present: not a delta.
        let fx2 = Fixture::new(&["p(a)."], &[], "p(a)");
        assert!(fx2.delta("p(X)").is_empty());
    }

    #[test]
    fn base_case_effective_deletion() {
        let fx = Fixture::new(&["p(a)."], &[], "not p(a)");
        assert_eq!(fx.delta("not p(X)"), vec!["not p(a)"]);
        // Absent: not a delta.
        let fx2 = Fixture::new(&[], &[], "not p(a)");
        assert!(fx2.delta("not p(X)").is_empty());
    }

    #[test]
    fn deletion_masked_by_rederivation() {
        // member explicit AND derivable: deleting the explicit fact does
        // not change the canonical model.
        let fx = Fixture::new(
            &["member(a,b).", "leads(a,b)."],
            &["member(X,Y) :- leads(X,Y)."],
            "not member(a,b)",
        );
        assert!(fx.delta("not member(X,Y)").is_empty());
    }

    #[test]
    fn paper_member_example() {
        // §5: inserting leads(c,b) induces member(c,b).
        let fx = Fixture::new(&[], &["member(X,Y) :- leads(X,Y)."], "leads(c,b)");
        assert_eq!(fx.delta("member(X,Y)"), vec!["member(c,b)"]);
        assert_eq!(fx.delta("leads(X,Y)"), vec!["leads(c,b)"]);
        // Irrelevant pattern: nothing.
        assert!(fx.delta("member(x,X)").is_empty());
    }

    #[test]
    fn chained_induced_updates() {
        let fx = Fixture::new(
            &["q(a,b)."],
            &["r(X) :- q(X,Y), p(Y).", "s(X) :- r(X)."],
            "p(b)",
        );
        assert_eq!(fx.delta("r(X)"), vec!["r(a)"]);
        assert_eq!(fx.delta("s(X)"), vec!["s(a)"]);
    }

    #[test]
    fn induced_deletion_through_negation() {
        // present(X) :- emp(X), not absent(X). Inserting absent(a)
        // *deletes* present(a): the negative body literal's complement
        // (absent) is the delta root.
        let fx = Fixture::new(
            &["emp(a)."],
            &["present(X) :- emp(X), not absent(X)."],
            "absent(a)",
        );
        assert_eq!(fx.delta("not present(X)"), vec!["not present(a)"]);
        assert!(fx.delta("present(X)").is_empty());
    }

    #[test]
    fn induced_insertion_through_negation() {
        let fx = Fixture::new(
            &["emp(a).", "absent(a)."],
            &["present(X) :- emp(X), not absent(X)."],
            "not absent(a)",
        );
        assert_eq!(fx.delta("present(X)"), vec!["present(a)"]);
    }

    #[test]
    fn simultaneous_flip_regression() {
        // The Def. 4 residue-state fix: b and c both flip when d is
        // deleted; ¬a must still be found.
        let fx = Fixture::new(
            &["d(k)."],
            &["b(X) :- d(X).", "c(X) :- d(X).", "a(X) :- b(X), c(X)."],
            "not d(k)",
        );
        assert_eq!(fx.delta("not a(X)"), vec!["not a(k)"]);
        assert_eq!(fx.delta("not b(X)"), vec!["not b(k)"]);
        assert_eq!(fx.delta("not c(X)"), vec!["not c(k)"]);
    }

    #[test]
    fn simultaneous_flip_insertion() {
        let fx = Fixture::new(
            &[],
            &["b(X) :- d(X).", "c(X) :- d(X).", "a(X) :- b(X), c(X)."],
            "d(k)",
        );
        assert_eq!(fx.delta("a(X)"), vec!["a(k)"]);
    }

    #[test]
    fn recursive_insertion_matches_diff() {
        let fx = Fixture::new(
            &["edge(a,b).", "edge(b,c)."],
            &["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), edge(Y,Z)."],
            "edge(c,d)",
        );
        assert_eq!(fx.delta("tc(X,Y)"), vec!["tc(a,d)", "tc(b,d)", "tc(c,d)"]);
    }

    #[test]
    fn recursive_deletion_matches_diff() {
        let fx = Fixture::new(
            &["edge(a,b).", "edge(b,c)."],
            &["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), edge(Y,Z)."],
            "not edge(b,c)",
        );
        assert_eq!(fx.delta("not tc(X,Y)"), vec!["not tc(a,c)", "not tc(b,c)"]);
    }

    #[test]
    fn pattern_constants_restrict_answers() {
        let fx = Fixture::new(&["q(a,b).", "q(c,b)."], &["r(X) :- q(X,Y), p(Y)."], "p(b)");
        assert_eq!(fx.delta("r(a)"), vec!["r(a)"]);
        assert_eq!(fx.delta("r(X)"), vec!["r(a)", "r(c)"]);
        assert!(fx.delta("r(z)").is_empty());
    }

    #[test]
    fn memoization_shares_pattern_variants() {
        let fx = Fixture::new(&[], &["member(X,Y) :- leads(X,Y)."], "leads(c,b)");
        let current = Model::compute(&fx.edb, &fx.rules);
        let updated = OverlayEngine::over_model(
            &current,
            &fx.edb,
            &fx.rules,
            vec![Fact::parse_like("leads", &["c", "b"])],
            vec![],
        );
        let engine = DeltaEngine::new(&current, &updated, &fx.rules, &fx.updates);
        let p1 = Literal::new(true, Atom::parse_like("member", &["U", "V"]));
        let p2 = Literal::new(true, Atom::parse_like("member", &["A", "B"]));
        engine.delta(&p1);
        let before = engine.stats().patterns_evaluated;
        engine.delta(&p2); // variant pattern: memo hit
        assert_eq!(engine.stats().patterns_evaluated, before);
    }

    #[test]
    fn pattern_key_canonicalization() {
        let a = Literal::new(true, Atom::parse_like("p", &["X", "Y", "X", "a"]));
        let b = Literal::new(true, Atom::parse_like("p", &["U", "W", "U", "a"]));
        let c = Literal::new(true, Atom::parse_like("p", &["U", "U", "W", "a"]));
        assert_eq!(PatternKey::of(&a), PatternKey::of(&b));
        assert_ne!(PatternKey::of(&a), PatternKey::of(&c));
        assert_eq!(PatternKey::of(&a).to_string(), "+p,v0,v1,v0,c:a");
        assert_ne!(
            PatternKey::of(&Literal::new(true, Atom::parse_like("p", &["X"]))),
            PatternKey::of(&Literal::new(false, Atom::parse_like("p", &["X"])))
        );
    }

    #[test]
    fn repeated_pattern_probes_stay_consistent() {
        // Repeated and distinct patterns in an interleaved order: answers
        // must equal the first ones and each distinct pattern must be
        // evaluated exactly once.
        let fx = Fixture::new(
            &["q(a,b).", "q(c,b).", "emp(a).", "emp(c)."],
            &[
                "r(X) :- q(X,Y), p(Y).",
                "s(X) :- r(X).",
                "idle(X) :- emp(X), not r(X).",
            ],
            "p(b)",
        );
        let current = Model::compute(&fx.edb, &fx.rules);
        let updated = OverlayEngine::over_model(
            &current,
            &fx.edb,
            &fx.rules,
            vec![Fact::parse_like("p", &["b"])],
            vec![],
        );
        let engine = DeltaEngine::new(&current, &updated, &fx.rules, &fx.updates);
        let patterns = [
            "r(X)",
            "r(a)",
            "s(X)",
            "not idle(X)",
            "p(X)",
            "q(X,Y)",
            "not r(X)",
        ];
        let answers = |p: &str| {
            let mut v: Vec<String> = engine
                .delta(&parse_literal(p).unwrap())
                .iter()
                .map(|l| l.to_string())
                .collect();
            v.sort();
            v
        };
        let expected: Vec<Vec<String>> = patterns.iter().map(|p| answers(p)).collect();
        let evaluated_once = engine.stats().patterns_evaluated;

        for t in 0..8 {
            for round in 0..20 {
                let i = (t + round) % patterns.len();
                assert_eq!(answers(patterns[i]), expected[i], "pattern {}", patterns[i]);
            }
        }
        // Every probe above was a memo hit: evaluate-once held.
        assert_eq!(engine.stats().patterns_evaluated, evaluated_once);
    }

    #[test]
    fn agrees_with_model_diff_specification() {
        // Cross-check the descendant-driven delta against the brute-force
        // diff on a mixed stratified program.
        let facts = &["emp(a).", "emp(b).", "dept(d).", "assign(a,d)."];
        let rules = &[
            "works(X) :- assign(X,Y), dept(Y).",
            "idle(X) :- emp(X), not works(X).",
        ];
        for update in ["assign(b,d)", "not assign(a,d)", "emp(c)", "not dept(d)"] {
            let fx = Fixture::new(facts, rules, update);
            let before = Model::compute(&fx.edb, &fx.rules);
            let mut after_edb = fx.edb.clone();
            fx.updates[0].apply(&mut after_edb);
            let after = Model::compute(&after_edb, &fx.rules);
            let mut expected: Vec<String> = induced_updates_by_diff(&before, &after)
                .iter()
                .map(|l| l.to_string())
                .collect();
            expected.sort();
            let mut got: Vec<String> = Vec::new();
            for pred in ["emp", "dept", "assign", "works", "idle"] {
                for sign in [true, false] {
                    let pat =
                        Literal::new(sign, Atom::parse_like(pred, &["V1", "V2"][..arity(pred)]));
                    got.extend(fx.delta(&pat.to_string()));
                }
            }
            got.sort();
            got.dedup();
            assert_eq!(got, expected, "mismatch for update {update}");
        }

        fn arity(pred: &str) -> usize {
            match pred {
                "assign" => 2,
                _ => 1,
            }
        }
    }
}
