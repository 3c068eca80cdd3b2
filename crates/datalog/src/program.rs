//! Rule sets with the two indexes integrity checking needs.
//!
//! * by head predicate — resolution of goals against rule heads
//!   (top-down evaluation, `new`);
//! * by body literal — the paper's `directly_dependent(L, A, R)` relation
//!   (§3.3.1): for every rule `A ← B` and every literal `L'` in `B`, an
//!   entry keyed by `L'`'s predicate and sign, carrying the head and the
//!   residue `B \ L'`. Both the induced-update (Def. 4) and the
//!   potential-update (Def. 5) computations walk this index.
//!
//! A third, by head stratum, serves incremental maintenance
//! ([`crate::maintain`]).

use crate::depgraph::{DepGraph, StratificationError};
use crate::patterns::PatternTemplates;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use uniform_logic::{Literal, Rule, Sym};

/// One `directly_dependent` entry: the body literal `L'` at `position` of
/// `rule` (`rules[rule_idx]`), whose head may change when a literal
/// unifying with `L'` (same sign) or its complement (opposite sign)
/// changes.
#[derive(Clone, Debug)]
pub struct BodyOccurrence {
    pub rule_idx: usize,
    pub position: usize,
}

/// The rules of one stratum: the unit in which incremental maintenance
/// settles the program.
#[derive(Clone, Debug, Default)]
pub(crate) struct Layer {
    /// Indices into [`RuleSet::rules`], in rule order.
    pub(crate) rules: Vec<usize>,
    /// Their head predicates, sorted, without duplicates.
    pub(crate) heads: Vec<Sym>,
    /// The predicates their bodies read, sorted, without duplicates.
    pub(crate) reads: Vec<Sym>,
}

/// A rule set's layers: all of them, and those of the subprogram below
/// recursion.
#[derive(Debug)]
struct Layering {
    all: Vec<Layer>,
    below_recursion: Vec<Layer>,
}

impl Layering {
    fn build(rules: &[Rule], graph: &DepGraph) -> Layering {
        let mut below_recursion: HashSet<Sym> = HashSet::new();
        for &pred in graph.idb_predicates() {
            if !below_recursion.contains(&pred) && graph.reaches_recursion(pred) {
                below_recursion.extend(graph.reachable(pred));
            }
        }
        Layering {
            all: Layer::group(rules, graph, |_| true),
            below_recursion: Layer::group(rules, graph, |head| below_recursion.contains(&head)),
        }
    }
}

impl Layer {
    /// One layer per stratum of `graph`, lowest first, holding the rules
    /// whose head satisfies `keep`.
    fn group(rules: &[Rule], graph: &DepGraph, keep: impl Fn(Sym) -> bool) -> Vec<Layer> {
        let mut layers = vec![Layer::default(); graph.height()];
        for (idx, rule) in rules.iter().enumerate() {
            let head = rule.head.pred;
            if !keep(head) {
                continue;
            }
            let layer = &mut layers[graph.stratum(head)];
            layer.rules.push(idx);
            insert_sorted(&mut layer.heads, head);
            for lit in &rule.body {
                insert_sorted(&mut layer.reads, lit.atom.pred);
            }
        }
        layers
    }

    /// Does a rule of this layer read `pred`?
    pub(crate) fn reads(&self, pred: Sym) -> bool {
        self.reads.binary_search(&pred).is_ok()
    }

    /// Is `pred` the head of a rule of this layer?
    pub(crate) fn defines(&self, pred: Sym) -> bool {
        self.heads.binary_search(&pred).is_ok()
    }
}

fn insert_sorted(set: &mut Vec<Sym>, pred: Sym) {
    if let Err(at) = set.binary_search(&pred) {
        set.insert(at, pred);
    }
}

/// An immutable, indexed rule set with its stratification.
#[derive(Clone, Debug)]
pub struct RuleSet {
    rules: Vec<Rule>,
    by_head: HashMap<Sym, Vec<usize>>,
    /// (body predicate, body-literal positivity) → occurrences.
    by_body: HashMap<(Sym, bool), Vec<BodyOccurrence>>,
    graph: DepGraph,
    /// Rules grouped by head stratum, built on first use and shared by
    /// every clone: only incremental maintenance reads them, while the
    /// satisfiability search and magic rewriting build rule sets per
    /// query.
    layering: Arc<OnceLock<Layering>>,
    /// Precompiled read-pattern templates (see [`crate::patterns`]):
    /// built once here, shared by every clone, specialized per check
    /// instead of re-walking `rules` on every commit.
    templates: Arc<PatternTemplates>,
}

impl RuleSet {
    pub fn new(rules: Vec<Rule>) -> Result<RuleSet, StratificationError> {
        let graph = DepGraph::build(&rules)?;
        let mut by_head: HashMap<Sym, Vec<usize>> = HashMap::new();
        let mut by_body: HashMap<(Sym, bool), Vec<BodyOccurrence>> = HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            by_head.entry(rule.head.pred).or_default().push(i);
            for (pos, lit) in rule.body.iter().enumerate() {
                by_body
                    .entry((lit.atom.pred, lit.positive))
                    .or_default()
                    .push(BodyOccurrence {
                        rule_idx: i,
                        position: pos,
                    });
            }
        }
        let templates = Arc::new(PatternTemplates::build(&rules));
        Ok(RuleSet {
            rules,
            by_head,
            by_body,
            graph,
            layering: Arc::default(),
            templates,
        })
    }

    pub fn empty() -> RuleSet {
        RuleSet::new(Vec::new()).expect("empty rule set is trivially stratified")
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn len(&self) -> usize {
        self.rules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The rules grouped by head stratum, one [`Layer`] per stratum,
    /// lowest first.
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layering().all
    }

    /// [`RuleSet::layers`] restricted to the subprogram below recursion:
    /// the rules of every predicate that reaches recursion or that such
    /// a predicate depends on. Empty layers throughout for a
    /// non-recursive program.
    pub(crate) fn recursion_layers(&self) -> &[Layer] {
        &self.layering().below_recursion
    }

    fn layering(&self) -> &Layering {
        self.layering
            .get_or_init(|| Layering::build(&self.rules, &self.graph))
    }

    /// The precompiled read-pattern templates of this rule set.
    pub fn templates(&self) -> &Arc<PatternTemplates> {
        &self.templates
    }

    /// Rules whose head predicate is `pred`.
    pub fn rules_for(&self, pred: Sym) -> impl Iterator<Item = (usize, &Rule)> {
        self.by_head
            .get(&pred)
            .into_iter()
            .flatten()
            .map(move |&i| (i, &self.rules[i]))
    }

    /// Body occurrences of literals with predicate `pred` and the given
    /// positivity.
    pub fn body_occurrences(
        &self,
        pred: Sym,
        positive: bool,
    ) -> impl Iterator<Item = (&Rule, &Literal, &BodyOccurrence)> {
        self.by_body
            .get(&(pred, positive))
            .into_iter()
            .flatten()
            .map(move |occ| {
                let rule = &self.rules[occ.rule_idx];
                (rule, &rule.body[occ.position], occ)
            })
    }

    pub fn rule(&self, idx: usize) -> &Rule {
        &self.rules[idx]
    }

    /// Does this set hold `rule`? Rules compare structurally.
    pub fn contains(&self, rule: &Rule) -> bool {
        self.rules_for(rule.head.pred).any(|(_, r)| r == rule)
    }

    /// The rules `new` has and `self` lacks, `(rule, true)`, and those
    /// `self` has and `new` lacks, `(rule, false)`.
    pub(crate) fn diff<'r>(&'r self, new: &'r RuleSet) -> Vec<(&'r Rule, bool)> {
        let added = new.rules.iter().filter(|r| !self.contains(r));
        let removed = self.rules.iter().filter(|r| !new.contains(r));
        added
            .map(|r| (r, true))
            .chain(removed.map(|r| (r, false)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::parse_rule;

    fn rs(srcs: &[&str]) -> RuleSet {
        RuleSet::new(srcs.iter().map(|s| parse_rule(s).unwrap()).collect()).unwrap()
    }

    #[test]
    fn head_index() {
        let set = rs(&[
            "member(X,Y) :- leads(X,Y).",
            "member(X,Y) :- assigned(X,Y).",
            "boss(X) :- leads(X,Y).",
        ]);
        assert_eq!(set.rules_for(Sym::new("member")).count(), 2);
        assert_eq!(set.rules_for(Sym::new("boss")).count(), 1);
        assert_eq!(set.rules_for(Sym::new("leads")).count(), 0);
    }

    #[test]
    fn body_index_distinguishes_sign() {
        let set = rs(&["p(X) :- q(X), not r(X)."]);
        assert_eq!(set.body_occurrences(Sym::new("q"), true).count(), 1);
        assert_eq!(set.body_occurrences(Sym::new("q"), false).count(), 0);
        assert_eq!(set.body_occurrences(Sym::new("r"), false).count(), 1);
        let (rule, lit, occ) = set.body_occurrences(Sym::new("r"), false).next().unwrap();
        assert!(!lit.positive);
        assert_eq!(rule.head.pred, Sym::new("p"));
        assert_eq!(occ.position, 1);
    }

    #[test]
    fn layers_group_rules_by_stratum() {
        let set = rs(&[
            "tc(X,Y) :- e(X,Y).",
            "tc(X,Z) :- tc(X,Y), e(Y,Z).",
            "m(X) :- l(X).",
            "far(X) :- n(X), not tc(a,X).",
            "near(X) :- tc(a,X), k(X).",
        ]);
        let layers = set.layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].rules, vec![0, 1, 2, 4]);
        assert_eq!(layers[0].heads.len(), 3);
        assert_eq!(layers[0].reads.len(), 4);
        assert!(layers[0].defines(Sym::new("near")) && !layers[0].defines(Sym::new("far")));
        assert_eq!(layers[1].rules, vec![3]);
        assert!(layers[1].reads(Sym::new("n")) && layers[1].reads(Sym::new("tc")));
        assert!(!layers[1].reads(Sym::new("e")));
        // `m` neither reaches recursion nor lies below a predicate that
        // does.
        let below = set.recursion_layers();
        assert_eq!(below[0].rules, vec![0, 1, 4]);
        assert!(!below[0].heads.contains(&Sym::new("m")));
        assert_eq!(below[1].rules, vec![3]);
        let flat = rs(&["member(X,Y) :- leads(X,Y)."]);
        assert!(flat.recursion_layers().iter().all(|l| l.rules.is_empty()));
    }

    #[test]
    fn unstratified_rejected() {
        let rules: Vec<Rule> = ["win(X) :- move(X,Y), not win(Y)."]
            .iter()
            .map(|s| parse_rule(s).unwrap())
            .collect();
        assert!(RuleSet::new(rules).is_err());
    }

    #[test]
    fn empty_set() {
        let set = RuleSet::empty();
        assert!(set.is_empty());
        assert_eq!(set.graph().height(), 1);
    }
}
