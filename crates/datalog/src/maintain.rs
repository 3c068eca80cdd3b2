//! Incremental maintenance of the materialized canonical model.
//!
//! Induced updates (Def. 4) are exactly the *view deltas* of the
//! canonical model across an update. The paper's checkers consume them
//! transiently — `delta` enumerates descendants of the update, the
//! overlay engine simulates the new state without materializing it.
//! This module advances a materialized canonical model across an update
//! *incrementally*: a database computes its model once and advances it
//! across every later change; [`MaintainedModel`] is the standalone
//! form. Both views of the induced updates come from one algorithm.
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
//! it). It is sound for any stratum, recursive or not.
//!
//! A rule change ("treated like conditional updates", §3.2) runs it
//! under the new rules with rule seeds: an added rule seeds its
//! stratum's insertions with its body's instances over the new state, a
//! removed rule the over-deletion with the facts of a one-step
//! derivation through it in the old one (read whole, so a head may move
//! to another stratum). A predicate that loses its last rule keeps its
//! explicit facts only; the rest flips first.
//!
//! One stratum loop, [`Propagation`], runs the kernel lowest stratum
//! first, skipping a stratum with no rule seed, no flipped input and no
//! explicit change of its heads. The integrity checker walks the
//! subprogram below recursion and reads `delta` and `new` off it for
//! predicates that reach recursion. A database walks every stratum and
//! commits the flips into its cached model, as [`MaintainedModel`]
//! does: at the first read after fact writes, and at a rule change.
//! Running the kernel and writing its flips in are separate steps, so a
//! rule-update check that reads its triggers off a rule change's flips
//! ([`Propagation::of_rule_change`]) hands that propagation to the
//! database to install; a [`Hypothetical`] keeps the flips as a view
//! over the model. Over the same old model, checker and
//! maintenance agree flip for flip, in order, on every predicate both
//! walk; the maintained flip list equals the brute-force model diff,
//! and an advanced model or a hypothetical reads as the recomputed one
//! (all property-tested). A predicate no rule defines holds exactly its
//! explicit facts, so the model takes their relation itself: each
//! explicit tuple is written once.

use crate::cq::provable;
use crate::interp::{Flipped, Interp, Overlay};
use crate::model::{derive_all, derive_through, saturate, Frontier, Model, KERNEL_RUNS};
use crate::program::{Layer, RuleSet};
use crate::store::FactSet;
use crate::update::{net_effect, Transaction, Update};
use std::collections::HashSet;
use std::ops::{AddAssign, Deref};
use std::sync::Arc;
use uniform_logic::{match_atom, Fact, Literal, Rule, Sym, SymState};

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

impl AddAssign for PropagationStats {
    fn add_assign(&mut self, other: PropagationStats) {
        self.overdeleted += other.overdeleted;
        self.rederived += other.rederived;
        self.derived += other.derived;
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Visible truth flips (the induced updates), EDB level included.
    pub flips: usize,
    /// Work of the propagation kernel.
    pub propagation: PropagationStats,
}

/// A materialized canonical model maintained across updates, standing
/// alone: it owns its explicit facts beside the model.
pub struct MaintainedModel {
    rules: RuleSet,
    edb: FactSet,
    /// Current canonical model (EDB facts plus supported IDB facts).
    model: FactSet,
    stats: MaintainStats,
}

impl MaintainedModel {
    /// Materialize `(edb, rules)`.
    pub fn new(edb: FactSet, rules: RuleSet) -> MaintainedModel {
        let model = Model::compute(&edb, &rules).facts().clone();
        MaintainedModel::with_model(edb, rules, model)
    }

    /// Adopt an already-materialized canonical model of `(edb, rules)` —
    /// e.g. a database's cached model — in O(1): nothing is recomputed
    /// or counted. The caller asserts `model` *is* the canonical model;
    /// handing in anything else silently corrupts maintenance.
    pub fn with_model(edb: FactSet, rules: RuleSet, model: FactSet) -> MaintainedModel {
        MaintainedModel {
            rules,
            edb,
            model,
            stats: MaintainStats::default(),
        }
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

    /// Apply a transaction atomically; returns the visible truth flips:
    /// the EDB level first, then each stratum's, lowest first.
    pub fn apply_transaction(&mut self, tx: &Transaction) -> Vec<Literal> {
        let net = tx.net_effect(&self.edb);
        for u in &tx.updates {
            u.apply(&mut self.edb);
        }
        let (rules, edb) = (&self.rules, &self.edb);
        let Propagation { flips, stats, .. } =
            Propagation::new(&self.model, rules, rules.layers(), edb, &net.0, &net.1, &[]);
        install_flips(&mut self.model, rules, edb, &flips);
        self.stats.propagation += stats;
        self.stats.flips += flips.len();
        flips
            .into_iter()
            .map(|(fact, now)| Literal::new(now, fact.to_atom()))
            .collect()
    }
}

/// A Def. 1 net effect on explicit facts: `(insertions, deletions)`.
pub(crate) type Net = (Vec<Fact>, Vec<Fact>);

/// Write the kernel's `flips` of an update into `model`, the model they
/// were propagated over, under `rules`, the rules after the update:
/// the one place flips enter a materialized model. A flipped predicate
/// no rule defines takes `edb`'s relation itself.
pub(crate) fn install_flips(
    model: &mut FactSet,
    rules: &RuleSet,
    edb: &FactSet,
    flips: &[(Fact, bool)],
) {
    for (fact, now) in flips {
        if !rules.graph().is_idb(fact.pred) && edb.relation(fact.pred).is_some() {
            model.adopt(fact.pred, edb);
        } else if *now {
            model.insert(fact);
        } else {
            model.remove(fact);
        }
    }
}

/// One stratum as the propagation kernel sees it: its rules, their head
/// predicates and the rule change (`true` added, `false` removed).
struct Stratum<'r> {
    layer: Vec<&'r Rule>,
    heads: &'r [Sym],
    changed: &'r [(&'r Rule, bool)],
}

impl<'r> Stratum<'r> {
    fn new(rules: &'r RuleSet, layer: &'r Layer, changed: &'r [(&'r Rule, bool)]) -> Self {
        Stratum {
            layer: layer.rules.iter().map(|&idx| rules.rule(idx)).collect(),
            heads: &layer.heads,
            changed,
        }
    }

    fn is_head(&self, pred: Sym) -> bool {
        self.heads.contains(&pred)
    }

    /// The propagation kernel: this stratum's induced flips — facts of
    /// its head predicates whose truth differs between `old` and the
    /// new state, deletions first.
    ///
    /// * `old` — a canonical model of the state (and rules) before it;
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
            set: HashSet::default(),
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

    /// The first semi-naive delta: fire every rule through each body
    /// literal an input made `now` (true or false), the rest evaluated
    /// in `state`, and in full each of its heads' rules the change added
    /// (`now` true) or removed (false); admit the new heads.
    fn seed(
        &self,
        state: &mut impl Frontier,
        inputs: &[(Fact, bool)],
        now: bool,
        delta: &mut Vec<Fact>,
    ) {
        let mut fresh: Vec<Fact> = Vec::new();
        let mut fresh_set: HashSet<Fact, SymState> = HashSet::default();
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
        for &(rule, added) in self.changed {
            if added != now || !self.is_head(rule.head.pred) {
                continue;
            }
            derive_all(state.view(), rule, &mut |head| {
                if state.admits(&head) && fresh_set.insert(head.clone()) {
                    fresh.push(head);
                }
            });
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
    set: HashSet<Fact, SymState>,
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

impl<B: Deref<Target: Interp>> Frontier for Flipped<B> {
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
/// §3.3.2) without materializing it, for every predicate the given
/// layers define or read; any other reads as in `D`. The flip list
/// covers every explicit predicate too. The checker passes the
/// subprogram below recursion (the predicates that reach recursion and
/// those they depend on); maintenance passes every layer. `B` points at
/// the model: a reference, or the `Arc` a [`Hypothetical`] owns.
pub struct Propagation<B> {
    pub(crate) state: Flipped<B>,
    pub(crate) flips: Vec<(Fact, bool)>,
    stats: PropagationStats,
}

impl<B: Deref<Target = Model> + Clone> Propagation<B> {
    /// A change of rules from `old` to `new` over `model`, the canonical
    /// model of `edb` under `old`; its state reads as the one under `new`.
    /// Over a database's own model (an `Arc`), the database can install
    /// it as it is (`Database::set_rules_propagated`).
    pub fn of_rule_change(model: B, edb: &FactSet, old: &RuleSet, new: &RuleSet) -> Propagation<B> {
        Propagation::new(model, new, new.layers(), edb, &[], &[], &old.diff(new))
    }
}

impl<B: Deref<Target: Interp + Sized> + Clone> Propagation<B> {
    /// Propagate the explicit insertions `added` and deletions `removed`
    /// (no-ops allowed) of an update whose explicit facts afterwards are
    /// `edb`, and its change of rules to `rules` by `changed`
    /// ([`RuleSet::diff`]), over `model`, the canonical model of the
    /// state before it, through `layers` (one per stratum of `rules`).
    pub(crate) fn new(
        model: B,
        rules: &RuleSet,
        layers: &[Layer],
        edb: &dyn Interp,
        added: &[Fact],
        removed: &[Fact],
        changed: &[(&Rule, bool)],
    ) -> Propagation<B> {
        KERNEL_RUNS.with(|n| n.set(n.get() + 1));
        let explicit: Vec<(Fact, bool)> = added
            .iter()
            .map(|fact| (fact.clone(), true))
            .chain(removed.iter().map(|fact| (fact.clone(), false)))
            .collect();
        let graph = rules.graph();
        let mut state = Flipped::new(model.clone());
        let mut flips: Vec<(Fact, bool)> = Vec::new();
        let mut stats = PropagationStats::default();
        for (fact, now) in &explicit {
            if !graph.is_idb(fact.pred) && state.holds(fact) != *now {
                // Only a stratum's rules read `state`: an explicit
                // predicate none of them reads stays as in `D` there.
                if layers.iter().any(|layer| layer.reads(fact.pred)) {
                    state.set(fact, *now);
                }
                flips.push((fact.clone(), *now));
            }
        }
        // A predicate whose last rule went holds its explicit facts only:
        // whatever else its removed rules derived stops holding.
        for &(rule, _) in changed.iter().filter(|(_, added)| !added) {
            if !graph.is_idb(rule.head.pred) {
                derive_all(&*model, rule, &mut |fact| {
                    if state.holds(&fact) && !edb.holds(&fact) {
                        state.set(&fact, false);
                        flips.push((fact, false));
                    }
                });
            }
        }
        for layer in layers {
            let touched = changed
                .iter()
                .any(|(rule, _)| layer.defines(rule.head.pred))
                || flips.iter().any(|(fact, _)| layer.reads(fact.pred))
                || explicit.iter().any(|(fact, _)| layer.defines(fact.pred));
            if !touched {
                continue;
            }
            let changes = Stratum::new(rules, layer, changed)
                .propagate(&*model, &state, edb, &explicit, &flips, &mut stats);
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

    /// Every visible truth flip of an explicit predicate or one the
    /// layers define: `(fact, true)` for an insertion, `(fact, false)`
    /// for a deletion.
    pub fn flips(&self) -> &[(Fact, bool)] {
        &self.flips
    }

    pub fn stats(&self) -> PropagationStats {
        self.stats
    }

    /// The state after the update (see [`Propagation`]).
    pub fn state(&self) -> &dyn Interp {
        &self.state
    }
}

/// A state `U(D)` never materialized: a base state `D` (its canonical
/// model, explicit facts and rules) and one Def. 1 net update `U` of
/// `D`'s facts. It reads through [`Interp`] as the canonical model of
/// `U(D)`: `D`'s model, shared, with the net on top for explicit
/// predicates and the kernel's flips of `U` over every stratum, computed
/// once, for derived ones. What-ifs over one base compose by composing
/// net updates ([`Hypothetical::then`]).
pub struct Hypothetical {
    base: Arc<Base>,
    added: Vec<Fact>,
    removed: Vec<Fact>,
    state: Flipped<Arc<Model>>,
}

/// What every hypothetical over a base shares.
struct Base {
    model: Arc<Model>,
    edb: FactSet,
    rules: Arc<RuleSet>,
}

impl Hypothetical {
    /// The base state itself (the empty update), where `model` is the
    /// canonical model of `edb` under `rules`.
    pub fn new(model: Arc<Model>, edb: FactSet, rules: Arc<RuleSet>) -> Hypothetical {
        Hypothetical {
            state: Flipped::new(model.clone()),
            base: Arc::new(Base { model, edb, rules }),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// This state with `updates` applied in order: one net update over
    /// the same base, propagated once.
    pub fn then(&self, updates: &[Update]) -> Hypothetical {
        let (added, removed) = self.compose(updates);
        let Base { model, edb, rules } = &*self.base;
        let edb = Overlay::new(edb, &added, &removed);
        let Propagation { state, .. } = Propagation::new(
            model.clone(),
            rules,
            rules.layers(),
            &edb,
            &added,
            &removed,
            &[],
        );
        Hypothetical {
            base: self.base.clone(),
            added,
            removed,
            state,
        }
    }

    /// The net update of the base's facts that makes this state and
    /// then applies `updates` in order: `(insertions, deletions)`.
    pub fn compose(&self, updates: &[Update]) -> (Vec<Fact>, Vec<Fact>) {
        let net = self.added.iter().map(|f| (f, true));
        let net = net.chain(self.removed.iter().map(|f| (f, false)));
        let writes = net.chain(updates.iter().map(|u| (&u.fact, u.insert)));
        net_effect(writes, &self.base.edb)
    }

    /// The net update of the base's facts: `(insertions, deletions)`.
    pub fn net(&self) -> (&[Fact], &[Fact]) {
        (&self.added, &self.removed)
    }

    /// The explicit facts of this state: a copy of the base's (sharing
    /// every page the net update leaves alone) with the net applied.
    pub fn edb(&self) -> FactSet {
        let mut edb = self.base.edb.clone();
        for fact in &self.added {
            edb.insert(fact);
        }
        for fact in &self.removed {
            edb.remove(fact);
        }
        edb
    }

    /// The base state: its canonical model, explicit facts and rules.
    pub fn base(&self) -> (&Model, &FactSet, &RuleSet) {
        let Base { model, edb, rules } = &*self.base;
        (model, edb, rules)
    }
}

/// A derived predicate reads the kernel's state. An explicit one reads
/// the base model, which holds exactly its explicit facts, with the net
/// on top: the overlay engine reads explicit predicates the same way.
impl Interp for Hypothetical {
    fn holds(&self, fact: &Fact) -> bool {
        self.holds_tuple(fact.pred, &fact.args)
    }

    fn holds_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        if self.base.rules.graph().is_idb(pred) {
            return self.state.holds_tuple(pred, args);
        }
        Overlay::new(&*self.base.model, &self.added, &self.removed).holds_tuple(pred, args)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        if self.base.rules.graph().is_idb(pred) {
            return self.state.scan(pred, pattern, each);
        }
        let explicit = Overlay::new(&*self.base.model, &self.added, &self.removed);
        explicit.scan(pred, pattern, each)
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

    /// A program with recursion of every shape the kernel meets —
    /// linear (tc), non-linear (nl), mutual (ev/od), and under negation
    /// in a higher stratum (unreached) — beside non-recursive strata
    /// (m, t, u, w), and a random sequence of transactions over it: single
    /// EDB updates first, then transactions of up to four that also
    /// write explicit facts of derived predicates. Three constants make
    /// cycles — and deletions that leave an alternative derivation —
    /// common. 600 steps by default; `PROPTEST_CASES` scales them the
    /// way it scales every property test (256 cases ↔ 600 steps).
    fn random_sequence() -> (Database, Vec<Transaction>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
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
        let steps =
            600 * proptest::ProptestConfig::with_cases(256).effective_cases() as usize / 256;
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
        // Explicit facts of derived predicates, recursive or not, too.
        let all_preds = [
            ("p", 1),
            ("q", 1),
            ("s", 1),
            ("l", 2),
            ("r", 2),
            ("tc", 2),
            ("ev", 2),
            ("m", 2),
            ("t", 1),
            ("u", 1),
            ("w", 1),
        ];
        let txs = (0..steps)
            .map(|step| {
                if step < steps / 2 {
                    Transaction::single(random_update(&mut rng, &edb_preds))
                } else {
                    let n = rng.gen_range(1..5);
                    Transaction::new(
                        (0..n)
                            .map(|_| random_update(&mut rng, &all_preds))
                            .collect(),
                    )
                }
            })
            .collect();
        (Database::parse(src).unwrap(), txs)
    }

    #[test]
    fn flips_equal_model_diff_on_random_sequences() {
        let (db, txs) = random_sequence();
        let mut m = MaintainedModel::new(db.facts().clone(), db.rules().clone());
        for (step, tx) in txs.iter().enumerate() {
            let update: String = tx.updates.iter().map(|u| format!("{u}; ")).collect();

            let before = Model::compute(m.edb(), db.rules());
            let flips = m.apply_transaction(tx);
            let after = Model::compute(m.edb(), db.rules());

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

    /// The checker's propagation (the subprogram below recursion) and the
    /// maintained model's (every stratum) run one loop over the same old
    /// model, so on explicit predicates and those below recursion their
    /// flips agree one for one, in order.
    #[test]
    fn maintained_flips_equal_checker_flips_on_random_sequences() {
        use crate::topdown::OverlayEngine;
        let (db, txs) = random_sequence();
        let rules = db.rules();
        let below: HashSet<Sym> = rules
            .recursion_layers()
            .iter()
            .flat_map(|layer| layer.heads.iter().copied())
            .collect();
        let checked = |pred: Sym| !rules.graph().is_idb(pred) || below.contains(&pred);
        let mut m = MaintainedModel::new(db.facts().clone(), rules.clone());
        let mut compared = 0;
        for (step, tx) in txs.iter().enumerate() {
            let model = Model::from_facts(m.model().clone());
            let edb = m.edb().clone();
            let (adds, dels) = tx.net_effect(&edb);
            let engine = OverlayEngine::over_model(&model, &edb, rules, adds, dels);
            let checker: Vec<String> = engine
                .propagation()
                .flips()
                .iter()
                .map(|(fact, now)| Literal::new(*now, fact.to_atom()).to_string())
                .collect();
            let maintained: Vec<String> = m
                .apply_transaction(tx)
                .into_iter()
                .filter(|l| checked(l.atom.pred))
                .map(|l| l.to_string())
                .collect();
            assert_eq!(maintained, checker, "step {step}: {:?}", tx.updates);
            compared += checker.len();
        }
        // Not vacuous: many flips compared, and the maintained model also
        // flipped predicates the checker leaves alone.
        let all = m.stats().flips;
        assert!(compared > 100 && all > compared, "{compared} of {all}");
    }
}
