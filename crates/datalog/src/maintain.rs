//! Incremental maintenance of the materialized canonical model.
//!
//! Induced updates (Def. 4) are exactly the *view deltas* of the
//! canonical model across an EDB change. The paper's checkers consume
//! them transiently — `delta` enumerates descendants of the update, the
//! overlay engine simulates the new state without materializing it.
//! This module provides the complementary systems piece a resident
//! deductive database needs: a [`MaintainedModel`] that keeps the
//! canonical model materialized and applies updates *incrementally*
//! instead of recomputing from scratch.
//!
//! Method: the classic counting algorithm over delta rules. Each
//! derived fact of a **non-recursive stratum** carries the number of
//! rule instantiations deriving it; a batch of truth flips Δ is pushed
//! through every rule body position `i` with the telescoping join
//!
//! ```text
//! Δ(body) = Σᵢ  new(b₁ … bᵢ₋₁) ⋈ Δ(bᵢ) ⋈ old(bᵢ₊₁ … bₙ)
//! ```
//!
//! (negative literals contribute with flipped sign), so simultaneous
//! insertions and deletions net out exactly. Counting is sound only
//! without recursion; **recursive strata** go through the propagation
//! kernel below. Flips propagate upward stratum by stratum; the
//! returned flip list equals the brute-force model diff
//! (property-tested).
//!
//! ## The propagation kernel
//!
//! One procedure computes a stratum's induced flips from the flips of
//! its inputs, over a canonical model of the old state: deletions by
//! delete-and-rederive — over-delete every fact with a derivation
//! through something that stopped holding (semi-naive, against the old
//! state), then keep those with a derivation left in the new state —
//! and insertions by semi-naive rounds seeded with the inputs that
//! started holding and the re-derived facts. Its work follows the facts
//! that change, never the model's size ([`PropagationStats`] counts
//! it). Two callers share it: [`MaintainedModel`] for its recursive
//! strata, and [`Propagation`] — the update's flips over every stratum
//! of the subprogram below recursion, which the integrity checker reads
//! as `delta` and `new` for predicates that reach recursion.

use crate::cq::provable;
use crate::interp::{Flipped, Interp, Overlay};
use crate::model::{derive_through, saturate, Frontier, Model};
use crate::program::{Layer, RuleSet};
use crate::store::FactSet;
use crate::update::{Transaction, Update};
use std::collections::{HashMap, HashSet};
use uniform_logic::{match_atom, Fact, Literal, Rule, Subst, Sym};

/// Work of the propagation kernel, in facts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// Facts over-deleted: each had a derivation through a fact that
    /// stopped holding.
    pub overdeleted: usize,
    /// Over-deleted facts that still hold in the new state.
    pub rederived: usize,
    /// Facts the semi-naive rounds newly derived.
    pub derived: usize,
}

/// Counters exposed for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Batches of flips pushed through a stratum's rules.
    pub batches: usize,
    /// Signed count contributions computed by delta joins.
    pub contributions: usize,
    /// Visible truth flips (the induced updates), EDB level included.
    pub flips: usize,
    /// Work of the propagation kernel on recursive strata.
    pub propagation: PropagationStats,
}

/// A materialized canonical model maintained across updates.
pub struct MaintainedModel {
    rules: RuleSet,
    edb: FactSet,
    /// Current canonical model (EDB facts plus supported IDB facts).
    model: FactSet,
    /// Rule-instantiation counts of derived facts in non-recursive
    /// strata (facts of recursive strata are tracked by `model` alone).
    counts: HashMap<Fact, i64>,
    /// Set when a counting invariant broke (a derivation count went
    /// negative): the maintained contents can no longer be trusted and
    /// the owner must fall back to full rematerialization.
    poisoned: bool,
    stats: MaintainStats,
}

impl MaintainedModel {
    /// Materialize `(edb, rules)` and prepare the counting state.
    pub fn new(edb: FactSet, rules: RuleSet) -> MaintainedModel {
        let model = Model::compute(&edb, &rules).facts().clone();
        MaintainedModel::with_model(edb, rules, model)
    }

    /// Adopt an already-materialized canonical model of `(edb, rules)` —
    /// e.g. a database's cached model — and prepare the counting state
    /// without recomputing the fixpoint. The caller asserts `model` *is*
    /// the canonical model; handing in anything else silently corrupts
    /// maintenance.
    pub fn with_model(edb: FactSet, rules: RuleSet, model: FactSet) -> MaintainedModel {
        // Counts: number of body instantiations per derived fact, for
        // rules in non-recursive strata, evaluated over the fixpoint.
        let mut counts: HashMap<Fact, i64> = HashMap::new();
        for layer in rules.layers() {
            if layer.recursive {
                continue;
            }
            for &idx in &layer.rules {
                let rule = rules.rule(idx);
                crate::cq::solve_conjunction(&model, &rule.body, &mut Subst::new(), &mut |sub| {
                    if let Some(head) = sub.ground_atom(&rule.head) {
                        *counts.entry(head).or_insert(0) += 1;
                    }
                    true
                });
            }
        }

        MaintainedModel {
            rules,
            edb,
            model,
            counts,
            poisoned: false,
            stats: MaintainStats::default(),
        }
    }

    /// Did a counting invariant break? A poisoned model's contents can
    /// no longer be trusted; owners (the commit queue) drop it and fall
    /// back to rematerialization.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The maintained model.
    pub fn model(&self) -> &FactSet {
        &self.model
    }

    /// The extensional facts.
    pub fn edb(&self) -> &FactSet {
        &self.edb
    }

    pub fn stats(&self) -> MaintainStats {
        self.stats
    }

    /// Is `fact` true in the maintained model?
    pub fn holds(&self, fact: &Fact) -> bool {
        self.model.contains(fact)
    }

    /// Apply one update; returns the visible truth flips (the update
    /// itself when effective, plus every induced update, Def. 4).
    pub fn apply(&mut self, update: &Update) -> Vec<Literal> {
        self.apply_transaction(&Transaction::single(update.clone()))
    }

    /// Apply a transaction atomically; returns the visible truth flips.
    pub fn apply_transaction(&mut self, tx: &Transaction) -> Vec<Literal> {
        // Def. 1 net effect at the EDB level.
        let mut seed: Vec<(Fact, i64)> = Vec::new();
        for u in &tx.updates {
            let effective = u.apply(&mut self.edb);
            if effective {
                seed.push((u.fact.clone(), if u.insert { 1 } else { -1 }));
            }
        }
        // Net out insert-then-delete pairs inside the transaction.
        let mut net: HashMap<&Fact, i64> = HashMap::new();
        for (f, s) in &seed {
            *net.entry(f).or_insert(0) += s;
        }

        let strata = self.rules.layers().len();
        // Per-stratum inbox of truth flips to push through that
        // stratum's rules.
        let mut inbox: Vec<Vec<(Fact, i64)>> = vec![Vec::new(); strata];
        // Explicit changes of a recursive stratum's own predicates: the
        // kernel decides whether they flip visible truth.
        let mut explicit: Vec<Vec<(Fact, bool)>> = vec![Vec::new(); strata];
        let mut flips: Vec<Literal> = Vec::new();

        // Apply the EDB-level flips, walking the effective-update list
        // rather than the net map: HashMap iteration order is
        // per-instance random, and the returned flip list (and every
        // downstream consumer of it) must be identical run to run.
        let mut emitted: HashSet<&Fact> = HashSet::new();
        for (fact, _) in &seed {
            if !emitted.insert(fact) {
                continue;
            }
            let (fact, sign) = (fact.clone(), net[fact]);
            if sign == 0 {
                continue;
            }
            if let Some(s) = self.recursive_stratum(fact.pred) {
                explicit[s].push((fact, sign > 0));
                continue;
            }
            // EDB presence changed; visible truth changes unless the
            // fact stays derived (deletion masked by a derivation) or
            // was already derived (insertion of a derived fact).
            let now = sign > 0 || self.counts.get(&fact).copied().unwrap_or(0) > 0;
            let was = self.model.contains(&fact);
            if now != was {
                self.record_flip(&fact, now, &mut inbox, &mut flips);
            }
        }

        // Push flips upward, stratum by stratum. Within a non-recursive
        // stratum, batches repeat until quiescent (positive same-stratum
        // chains); the kernel settles a recursive one in one call.
        for s in 0..strata {
            if self.rules.layers()[s].recursive {
                let batch = std::mem::take(&mut inbox[s]);
                if !batch.is_empty() || !explicit[s].is_empty() {
                    self.stats.batches += 1;
                    self.propagate(s, &batch, &explicit[s], &mut inbox, &mut flips);
                }
                continue;
            }
            loop {
                let batch: Vec<(Fact, i64)> = std::mem::take(&mut inbox[s]);
                if batch.is_empty() {
                    break;
                }
                self.stats.batches += 1;
                self.push_batch(s, &batch, &mut inbox, &mut flips);
            }
        }
        flips
    }

    /// The stratum of `pred` when it is defined by rules in a recursive
    /// stratum.
    fn recursive_stratum(&self, pred: Sym) -> Option<usize> {
        let graph = self.rules.graph();
        let s = graph.stratum(pred);
        (graph.is_idb(pred) && self.rules.layers()[s].recursive).then_some(s)
    }

    /// Record a visible truth flip: update the model, the output list
    /// and the inboxes of every stratum consuming the predicate.
    fn record_flip(
        &mut self,
        fact: &Fact,
        now: bool,
        inbox: &mut [Vec<(Fact, i64)>],
        flips: &mut Vec<Literal>,
    ) {
        if now {
            self.model.insert(fact);
        } else {
            self.model.remove(fact);
        }
        self.stats.flips += 1;
        flips.push(Literal::new(now, fact.to_atom()));
        let sign = if now { 1 } else { -1 };
        for (s, layer) in self.rules.layers().iter().enumerate() {
            let consumes = layer.rules.iter().any(|&idx| {
                self.rules
                    .rule(idx)
                    .body
                    .iter()
                    .any(|l| l.atom.pred == fact.pred)
            });
            if consumes {
                inbox[s].push((fact.clone(), sign));
            }
        }
    }

    /// Delta-join one batch of flips through the rules of a
    /// non-recursive stratum (the telescoping sum over body positions).
    fn push_batch(
        &mut self,
        s: usize,
        batch: &[(Fact, i64)],
        inbox: &mut [Vec<(Fact, i64)>],
        flips: &mut Vec<Literal>,
    ) {
        // Old state = current model with this batch undone.
        let (inserted, deleted): (Vec<_>, Vec<_>) = batch.iter().partition(|&&(_, sign)| sign > 0);
        let inserted: Vec<Fact> = inserted.into_iter().map(|(f, _)| f.clone()).collect();
        let deleted: Vec<Fact> = deleted.into_iter().map(|(f, _)| f.clone()).collect();

        // First-contribution order, not map order: the resulting flips
        // are user-visible, so their order must not depend on HashMap
        // iteration.
        let mut head_order: Vec<Fact> = Vec::new();
        let mut contributions: HashMap<Fact, i64> = HashMap::new();
        {
            let new_view = &self.model;
            let old_view = Overlay::new(&self.model, &deleted, &inserted);
            for &idx in &self.rules.layers()[s].rules {
                let rule = self.rules.rule(idx);
                for (pos, lit) in rule.body.iter().enumerate() {
                    for (fact, sign) in batch {
                        if lit.atom.pred != fact.pred {
                            continue;
                        }
                        let Some(binding) = match_atom(&lit.atom, fact) else {
                            continue;
                        };
                        // A flip of `fact` changes the truth of this
                        // body literal: same direction for positive
                        // occurrences, inverted for negative ones.
                        let contribution = if lit.positive { *sign } else { -sign };
                        let prefix = &rule.body[..pos];
                        let suffix = &rule.body[pos + 1..];
                        let mut sub = binding.clone();
                        crate::cq::solve_conjunction(new_view, prefix, &mut sub, &mut |s1| {
                            crate::cq::solve_conjunction(&old_view, suffix, s1, &mut |s2| {
                                if let Some(head) = s2.ground_atom(&rule.head) {
                                    match contributions.entry(head) {
                                        std::collections::hash_map::Entry::Occupied(mut e) => {
                                            *e.get_mut() += contribution;
                                        }
                                        std::collections::hash_map::Entry::Vacant(e) => {
                                            head_order.push(e.key().clone());
                                            e.insert(contribution);
                                        }
                                    }
                                }
                                true
                            });
                            true
                        });
                    }
                }
            }
        }

        for head in head_order {
            let delta = contributions[&head];
            if delta == 0 {
                continue;
            }
            self.stats.contributions += 1;
            let count = self.counts.entry(head.clone()).or_insert(0);
            *count += delta;
            if *count < 0 {
                // A broken counting invariant. Never panic here (a panic
                // would unwind out of the commit queue's critical section
                // with the store already mutated): mark the model
                // untrustworthy so the owner drops it and rematerializes.
                self.poisoned = true;
                *count = 0;
            }
            let now = *count > 0 || self.edb.contains(&head);
            let was = self.model.contains(&head);
            if now != was {
                self.record_flip(&head, now, inbox, flips);
            }
        }
    }

    /// Settle a recursive stratum with the propagation kernel: `batch`
    /// are the flips of its (lower) input predicates, already applied to
    /// the model, `explicit` the effective changes of its own
    /// predicates, not yet applied.
    fn propagate(
        &mut self,
        s: usize,
        batch: &[(Fact, i64)],
        explicit: &[(Fact, bool)],
        inbox: &mut [Vec<(Fact, i64)>],
        flips: &mut Vec<Literal>,
    ) {
        // The old state is the model with the batch undone (below a
        // stratum each fact flips at most once per transaction, as in
        // `push_batch`).
        let inputs: Vec<(Fact, bool)> = batch
            .iter()
            .map(|(fact, sign)| (fact.clone(), *sign > 0))
            .collect();
        let mut old = Flipped::new(&self.model);
        for (fact, now) in &inputs {
            old.set(fact, !now);
        }
        let changes = Stratum::new(&self.rules, &self.rules.layers()[s]).propagate(
            &old,
            &self.model,
            &self.edb,
            explicit,
            &inputs,
            &mut self.stats.propagation,
        );
        for (fact, now) in changes {
            self.record_flip(&fact, now, inbox, flips);
        }
        // Flips of this stratum's own predicates were just settled by
        // the kernel; drop the self-notifications.
        let heads = &self.rules.layers()[s].heads;
        inbox[s].retain(|(f, _)| !heads.contains(&f.pred));
    }
}

/// One stratum as the propagation kernel sees it: its rules and their
/// head predicates.
struct Stratum<'r> {
    layer: Vec<&'r Rule>,
    heads: &'r [Sym],
}

impl<'r> Stratum<'r> {
    fn new(rules: &'r RuleSet, layer: &'r Layer) -> Self {
        Stratum {
            layer: layer.rules.iter().map(|&idx| rules.rule(idx)).collect(),
            heads: &layer.heads,
        }
    }

    fn is_head(&self, pred: Sym) -> bool {
        self.heads.contains(&pred)
    }

    /// The propagation kernel: this stratum's induced flips — facts of
    /// its head predicates whose truth differs between `old` and the
    /// new state, deletions first.
    ///
    /// * `old` — a canonical model of the state before the update;
    /// * `new` — the state after it for every lower predicate, with
    ///   this stratum's predicates still as in `old`;
    /// * `edb` — the explicit facts after the update;
    /// * `explicit` — effective explicit changes (only those of this
    ///   stratum's predicates are read);
    /// * `inputs` — truth flips of lower predicates.
    fn propagate(
        &self,
        old: &dyn Interp,
        new: &dyn Interp,
        edb: &dyn Interp,
        explicit: &[(Fact, bool)],
        inputs: &[(Fact, bool)],
        stats: &mut PropagationStats,
    ) -> Vec<(Fact, bool)> {
        // Over-delete, against the old state: every fact with a
        // derivation through a fact that stopped holding, closed upward.
        // A fact that stays explicit keeps holding whatever happens to
        // its derivations.
        let mut doomed = Doomed {
            old,
            edb,
            facts: Vec::new(),
            set: HashSet::new(),
        };
        let mut delta: Vec<Fact> = Vec::new();
        for (fact, now) in explicit {
            if !now && self.is_head(fact.pred) && doomed.admits(fact) {
                doomed.admit(fact);
                delta.push(fact.clone());
            }
        }
        self.seed(&mut doomed, inputs, false, &mut delta);
        saturate(&mut doomed, &self.layer, |p| self.is_head(p), delta);

        // Re-derive, against the new state without the over-deleted
        // facts: those with a derivation left (one rule step; chains
        // through other re-derived facts come back in the rounds below).
        let mut state = Flipped::new(new);
        for fact in &doomed.facts {
            state.set(fact, false);
        }
        let survivors: Vec<Fact> = doomed
            .facts
            .iter()
            .filter(|fact| {
                self.layer.iter().any(|rule| {
                    match_atom(&rule.head, fact)
                        .is_some_and(|mut subst| provable(&state, &rule.body, &mut subst))
                })
            })
            .cloned()
            .collect();
        let mut delta: Vec<Fact> = Vec::new();
        for fact in survivors {
            state.admit(&fact);
            delta.push(fact);
        }

        // Insert, against the new state: semi-naive rounds seeded with
        // the re-derived facts, the explicit insertions and everything
        // derivable through an input that started holding.
        for (fact, now) in explicit {
            if *now && self.is_head(fact.pred) && state.admits(fact) {
                state.admit(fact);
                delta.push(fact.clone());
            }
        }
        self.seed(&mut state, inputs, true, &mut delta);
        saturate(&mut state, &self.layer, |p| self.is_head(p), delta);

        let mut changes: Vec<(Fact, bool)> = doomed
            .facts
            .iter()
            .filter(|fact| !state.holds(fact))
            .map(|fact| (fact.clone(), false))
            .collect();
        stats.overdeleted += doomed.facts.len();
        stats.rederived += doomed.facts.len() - changes.len();
        stats.derived += state.added().len();
        changes.extend(state.added().iter().map(|fact| (fact, true)));
        changes
    }

    /// The first semi-naive delta from the inputs: fire every rule
    /// through each body literal an input made `now` (true or false),
    /// the rest evaluated in `state`, and admit the new heads.
    fn seed(
        &self,
        state: &mut impl Frontier,
        inputs: &[(Fact, bool)],
        now: bool,
        delta: &mut Vec<Fact>,
    ) {
        let mut fresh: Vec<Fact> = Vec::new();
        let mut fresh_set: HashSet<Fact> = HashSet::new();
        for rule in &self.layer {
            for (pos, lit) in rule.body.iter().enumerate() {
                for (fact, holds) in inputs {
                    if fact.pred != lit.atom.pred || (lit.positive == *holds) != now {
                        continue;
                    }
                    derive_through(state.view(), rule, pos, fact, &mut |head| {
                        if state.admits(&head) && fresh_set.insert(head.clone()) {
                            fresh.push(head);
                        }
                    });
                }
            }
        }
        for fact in &fresh {
            state.admit(fact);
        }
        delta.extend(fresh);
    }
}

/// The over-deletion frontier: facts true in `old`, not explicit after
/// the update, collected in derivation order.
struct Doomed<'a> {
    old: &'a dyn Interp,
    edb: &'a dyn Interp,
    facts: Vec<Fact>,
    set: HashSet<Fact>,
}

impl Frontier for Doomed<'_> {
    fn view(&self) -> &dyn Interp {
        self.old
    }

    fn admits(&self, fact: &Fact) -> bool {
        !self.set.contains(fact) && self.old.holds(fact) && !self.edb.holds(fact)
    }

    fn admit(&mut self, fact: &Fact) {
        self.set.insert(fact.clone());
        self.facts.push(fact.clone());
    }
}

impl<I: Interp + ?Sized> Frontier for Flipped<'_, I> {
    fn view(&self) -> &dyn Interp {
        self
    }

    fn admits(&self, fact: &Fact) -> bool {
        !self.holds(fact)
    }

    fn admit(&mut self, fact: &Fact) {
        self.set(fact, true);
    }
}

/// An update's propagation over a canonical model of the old state `D`,
/// through the kernel stratum by stratum: the induced flips, and that
/// model overlaid with them — the canonical model of `U(D)` (`new`,
/// §3.3.2) without materializing it. Only the subprogram below
/// recursion is propagated (the predicates that reach recursion and
/// those they depend on): its flips are exact, every other derived
/// predicate reads as in `D`.
pub struct Propagation<'a> {
    state: Flipped<'a, FactSet>,
    flips: Vec<(Fact, bool)>,
    stats: PropagationStats,
}

impl<'a> Propagation<'a> {
    /// Propagate the `explicit` changes (insertions `true`, deletions
    /// `false`; no-ops allowed) of an update whose explicit facts
    /// afterwards are `edb`, over `model`, the canonical model of the
    /// state before it.
    pub(crate) fn new(
        model: &'a FactSet,
        rules: &RuleSet,
        edb: &dyn Interp,
        explicit: &[(Fact, bool)],
    ) -> Propagation<'a> {
        let graph = rules.graph();
        let mut state = Flipped::new(model);
        let mut flips: Vec<(Fact, bool)> = Vec::new();
        let mut stats = PropagationStats::default();
        for (fact, now) in explicit {
            if !graph.is_idb(fact.pred) && state.holds(fact) != *now {
                state.set(fact, *now);
                flips.push((fact.clone(), *now));
            }
        }
        for layer in rules.recursion_layers() {
            if layer.rules.is_empty() {
                continue;
            }
            let changes = Stratum::new(rules, layer)
                .propagate(model, &state, edb, explicit, &flips, &mut stats);
            for (fact, now) in &changes {
                state.set(fact, *now);
            }
            flips.extend(changes);
        }
        Propagation {
            state,
            flips,
            stats,
        }
    }

    /// Every visible truth flip of an explicit predicate or one below
    /// recursion: `(fact, true)` for an insertion, `(fact, false)` for a
    /// deletion.
    pub fn flips(&self) -> &[(Fact, bool)] {
        &self.flips
    }

    pub fn stats(&self) -> PropagationStats {
        self.stats
    }
}

impl Interp for Propagation<'_> {
    fn holds(&self, fact: &Fact) -> bool {
        self.state.holds(fact)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        self.state.scan(pred, pattern, each)
    }
}

impl Interp for MaintainedModel {
    fn holds(&self, fact: &Fact) -> bool {
        self.model.contains(fact)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        self.model.scan(pred, pattern, each)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use uniform_logic::{parse_fact, parse_literal};

    fn setup(src: &str) -> MaintainedModel {
        let db = Database::parse(src).unwrap();
        MaintainedModel::new(db.facts().clone(), db.rules().clone())
    }

    fn upd(src: &str) -> Update {
        Update::from_literal(&parse_literal(src).unwrap()).unwrap()
    }

    fn sorted(mut v: Vec<Literal>) -> Vec<String> {
        let mut out: Vec<String> = v.drain(..).map(|l| l.to_string()).collect();
        out.sort();
        out
    }

    /// Oracle: recompute from scratch and compare contents.
    fn assert_matches_recompute(m: &MaintainedModel) {
        let fresh = Model::compute(m.edb(), &m.rules);
        let mut a: Vec<String> = m.model().iter().map(|f| f.to_string()).collect();
        let mut b: Vec<String> = fresh.iter().map(|f| f.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "maintained model diverged from recomputation");
    }

    #[test]
    fn chain_insert_and_delete() {
        let mut m = setup("b(X) :- a(X). c(X) :- b(X).");
        let flips = m.apply(&upd("a(x)"));
        assert_eq!(sorted(flips), vec!["a(x)", "b(x)", "c(x)"]);
        assert_matches_recompute(&m);
        let flips = m.apply(&upd("not a(x)"));
        assert_eq!(sorted(flips), vec!["not a(x)", "not b(x)", "not c(x)"]);
        assert_matches_recompute(&m);
        assert!(m.model().is_empty());
    }

    #[test]
    fn double_derivation_survives_single_deletion() {
        let mut m = setup(
            "
            w(X) :- l(X, Y).
            l(a, d1). l(a, d2).
        ",
        );
        assert!(m.holds(&parse_fact("w(a)").unwrap()));
        let flips = m.apply(&upd("not l(a, d1)"));
        assert_eq!(sorted(flips), vec!["not l(a,d1)"], "w(a) still supported");
        assert!(m.holds(&parse_fact("w(a)").unwrap()));
        let flips = m.apply(&upd("not l(a, d2)"));
        assert_eq!(sorted(flips), vec!["not l(a,d2)", "not w(a)"]);
        assert_matches_recompute(&m);
    }

    #[test]
    fn explicit_fact_masks_derived_deletion() {
        let mut m = setup(
            "
            member(X, Y) :- leads(X, Y).
            member(a, s). leads(a, s).
        ",
        );
        let flips = m.apply(&upd("not member(a, s)"));
        assert!(flips.is_empty(), "still derived: {flips:?}");
        assert!(m.holds(&parse_fact("member(a,s)").unwrap()));
        let flips = m.apply(&upd("not leads(a, s)"));
        assert_eq!(sorted(flips), vec!["not leads(a,s)", "not member(a,s)"]);
        assert_matches_recompute(&m);
    }

    #[test]
    fn negation_flips_both_ways() {
        let mut m = setup(
            "
            idle(X) :- emp(X), not works(X).
            emp(a).
        ",
        );
        assert!(m.holds(&parse_fact("idle(a)").unwrap()));
        let flips = m.apply(&upd("works(a)"));
        assert_eq!(sorted(flips), vec!["not idle(a)", "works(a)"]);
        let flips = m.apply(&upd("not works(a)"));
        assert_eq!(sorted(flips), vec!["idle(a)", "not works(a)"]);
        assert_matches_recompute(&m);
    }

    #[test]
    fn recursive_stratum_propagated() {
        let mut m = setup(
            "
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            e(a, b). e(b, c).
        ",
        );
        let flips = m.apply(&upd("e(c, d)"));
        assert_eq!(
            sorted(flips),
            vec!["e(c,d)", "tc(a,d)", "tc(b,d)", "tc(c,d)"]
        );
        let work = m.stats().propagation;
        assert_eq!((work.overdeleted, work.derived), (0, 3), "{work:?}");
        let flips = m.apply(&upd("not e(b, c)"));
        assert_eq!(
            sorted(flips),
            vec![
                "not e(b,c)",
                "not tc(a,c)",
                "not tc(a,d)",
                "not tc(b,c)",
                "not tc(b,d)"
            ]
        );
        // tc(a,c) and tc(b,c) lose their derivations, and with them
        // tc(a,d) and tc(b,d); nothing comes back.
        let work = m.stats().propagation;
        assert_eq!((work.overdeleted, work.rederived), (4, 0), "{work:?}");
        assert_matches_recompute(&m);
    }

    #[test]
    fn downstream_of_recursion_maintained() {
        let mut m = setup(
            "
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            reach(X) :- tc(src, X).
            e(src, a).
        ",
        );
        let flips = m.apply(&upd("e(a, b)"));
        assert_eq!(
            sorted(flips),
            vec!["e(a,b)", "reach(b)", "tc(a,b)", "tc(src,b)"]
        );
        assert_matches_recompute(&m);
    }

    #[test]
    fn deletion_with_an_alternative_derivation_is_rederived() {
        // On a cycle every tc fact has two derivations; cutting one edge
        // over-deletes through it and delete-and-rederive must restore
        // what the rest of the cycle still derives.
        let mut m = setup(
            "
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            e(a, b). e(b, c). e(a, c). e(c, a).
        ",
        );
        let flips = m.apply(&upd("not e(a, b)"));
        assert_eq!(
            sorted(flips),
            vec!["not e(a,b)", "not tc(a,b)", "not tc(b,b)", "not tc(c,b)"]
        );
        let work = m.stats().propagation;
        assert!(work.rederived > 0, "{work:?}");
        assert!(m.holds(&parse_fact("tc(a,c)").unwrap()), "via e(a,c)");
        assert_matches_recompute(&m);
        // An explicit fact of the recursive predicate keeps holding when
        // its derivations go, and stops holding only once both are gone.
        let mut m = setup(
            "
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            e(a, b). e(b, c). tc(a, c).
        ",
        );
        let flips = m.apply(&upd("not e(b, c)"));
        assert_eq!(sorted(flips), vec!["not e(b,c)", "not tc(b,c)"]);
        assert!(m.holds(&parse_fact("tc(a,c)").unwrap()));
        assert_eq!(sorted(m.apply(&upd("not tc(a, c)"))), vec!["not tc(a,c)"]);
        assert_matches_recompute(&m);
    }

    #[test]
    fn one_transaction_inserts_into_and_deletes_from_a_recursive_stratum() {
        let mut m = setup(
            "
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), tc(Y, Z).
            e(a, b). e(b, c). e(c, d).
        ",
        );
        // Reroute b → c through x: tc(a,c), tc(b,c), tc(a,d), tc(b,d)
        // are over-deleted and re-derived through the new edges.
        let tx = Transaction::new(vec![upd("not e(b, c)"), upd("e(b, x)"), upd("e(x, c)")]);
        let flips = m.apply_transaction(&tx);
        assert_eq!(
            sorted(flips),
            vec![
                "e(b,x)",
                "e(x,c)",
                "not e(b,c)",
                "tc(a,x)",
                "tc(b,x)",
                "tc(x,c)",
                "tc(x,d)"
            ]
        );
        let work = m.stats().propagation;
        assert_eq!((work.overdeleted, work.rederived), (4, 4), "{work:?}");
        assert_matches_recompute(&m);
    }

    #[test]
    fn transaction_nets_out() {
        let mut m = setup("b(X) :- a(X).");
        let tx = Transaction::new(vec![upd("a(x)"), upd("not a(x)")]);
        let flips = m.apply_transaction(&tx);
        assert!(flips.is_empty(), "{flips:?}");
        assert_matches_recompute(&m);
    }

    #[test]
    fn simultaneous_flip_of_two_body_literals() {
        // The Def. 4 regression shape: both supports flip in one batch.
        let mut m = setup(
            "
            b(X) :- d(X). c(X) :- d(X).
            a(X) :- b(X), c(X).
            d(k).
        ",
        );
        let flips = m.apply(&upd("not d(k)"));
        assert_eq!(
            sorted(flips),
            vec!["not a(k)", "not b(k)", "not c(k)", "not d(k)"]
        );
        assert_matches_recompute(&m);
        let flips = m.apply(&upd("d(k)"));
        assert_eq!(sorted(flips), vec!["a(k)", "b(k)", "c(k)", "d(k)"]);
        assert_matches_recompute(&m);
    }

    #[test]
    fn noop_updates_produce_no_flips() {
        let mut m = setup("b(X) :- a(X). a(x).");
        assert!(m.apply(&upd("a(x)")).is_empty(), "re-insertion");
        assert!(m.apply(&upd("not a(zzz)")).is_empty(), "absent deletion");
        assert_matches_recompute(&m);
    }

    #[test]
    fn flips_equal_model_diff_on_random_sequences() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Recursion of every shape the kernel meets: linear (tc),
        // non-linear (nl), mutual (ev/od), and under negation in a
        // higher stratum (unreached); three constants make cycles — and
        // deletions that leave an alternative derivation — common.
        let src = "
            m(X,Y) :- l(X,Y).
            t(X) :- p(X), q(X).
            u(X) :- p(X), not q(X).
            tc(X,Y) :- r(X,Y).
            tc(X,Z) :- tc(X,Y), r(Y,Z).
            w(X) :- m(X,Y), s(Y).
            nl(X,Y) :- r(X,Y).
            nl(X,Z) :- nl(X,Y), nl(Y,Z).
            od(X,Y) :- l(X,Y).
            ev(X,Z) :- od(X,Y), l(Y,Z).
            od(X,Z) :- ev(X,Y), l(Y,Z).
            unreached(X) :- p(X), not tc(a, X).
        ";
        let db = Database::parse(src).unwrap();
        let mut m = MaintainedModel::new(db.facts().clone(), db.rules().clone());
        let consts = ["a", "b", "c"];
        let mut rng = StdRng::seed_from_u64(7);
        let random_update = |rng: &mut StdRng, preds: &[(&str, usize)]| {
            let (pred, arity) = preds[rng.gen_range(0..preds.len())];
            let args: Vec<&str> = (0..arity)
                .map(|_| consts[rng.gen_range(0..consts.len())])
                .collect();
            let fact = Fact::parse_like(pred, &args);
            if rng.gen_bool(0.5) {
                Update::insert(fact)
            } else {
                Update::delete(fact)
            }
        };
        let edb_preds = [("p", 1), ("q", 1), ("s", 1), ("l", 2), ("r", 2)];
        // Explicit facts of recursive predicates, too.
        let all_preds = [
            ("p", 1),
            ("q", 1),
            ("s", 1),
            ("l", 2),
            ("r", 2),
            ("tc", 2),
            ("ev", 2),
        ];
        for step in 0..600 {
            // Single updates first, then transactions of up to four.
            let tx = if step < 300 {
                Transaction::single(random_update(&mut rng, &edb_preds))
            } else {
                let n = rng.gen_range(1..5);
                Transaction::new(
                    (0..n)
                        .map(|_| random_update(&mut rng, &all_preds))
                        .collect(),
                )
            };
            let update: String = tx.updates.iter().map(|u| format!("{u}; ")).collect();

            let before = Model::compute(m.edb(), &db.rules().clone());
            let flips = m.apply_transaction(&tx);
            let after = Model::compute(m.edb(), &db.rules().clone());

            // Contents match recomputation…
            let mut got: Vec<String> = m.model().iter().map(|f| f.to_string()).collect();
            let mut want: Vec<String> = after.iter().map(|f| f.to_string()).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "step {step}: contents diverged on {update}");

            // …and the flip list equals the model diff.
            let mut expected: Vec<String> = Vec::new();
            for f in after.iter() {
                if !before.contains(&f) {
                    expected.push(format!("{f}"));
                }
            }
            for f in before.iter() {
                if !after.contains(&f) {
                    expected.push(format!("not {f}"));
                }
            }
            expected.sort();
            let got = sorted(flips);
            assert_eq!(got, expected, "step {step}: flips diverged on {update}");
        }
    }
}
