//! Precompiled read-pattern templates.
//!
//! The integrity checker's binding-level read set (PR 6,
//! `uniform_integrity::CheckReport::read_patterns`) closes trigger and
//! instance patterns downward through rule bodies, propagating the
//! update's constants. The *shape* of that closure — which rules apply
//! to a predicate, which head positions must agree with the pattern,
//! and where each head binding lands in each body literal — is a pure
//! function of the rule set, yet it used to be re-derived from the
//! `Rule` structures on every commit. This module compiles it once per
//! [`RuleSet`](crate::RuleSet): a [`PatternTemplates`] table, built at
//! rule-set construction, that a [`PatternSpecializer`] instantiates
//! with the concrete constants of one check. The output is bit-
//! identical to the uncompiled closure (the analyzer's property suite
//! proves this against a naive oracle on randomized schemas).

use crate::footprint::ReadPattern;
use std::collections::{BTreeSet, HashMap};
use uniform_logic::{Atom, Rule, Sym, Term};

/// Distinct binding patterns a predicate may accumulate during one
/// closure before its entry widens to the all-unbound pattern (which
/// subsumes every bounded one — sound, monotonic widening).
pub const MAX_PATTERNS_PER_PRED: usize = 64;

/// How one argument position of a body literal obtains its binding
/// when a head pattern is specialized through the rule.
#[derive(Clone, Copy, Debug)]
enum TemplateArg {
    /// A constant written in the rule body: always bound.
    Const(Sym),
    /// A head variable: bound to whatever constant the head pattern
    /// pins at (any of) that variable's head positions. Index into
    /// [`RuleTemplate::head_var_positions`].
    HeadVar(usize),
    /// A variable not occurring in the head (join-derived): never
    /// bound by the pattern — unbounded in the child.
    Unbound,
}

/// One rule, compiled for pattern specialization.
#[derive(Clone, Debug)]
struct RuleTemplate {
    /// Head positions occupied by constants: a pattern binding one of
    /// these to a *different* constant rules the rule out (it cannot
    /// derive any tuple the pattern covers).
    head_consts: Vec<(usize, Sym)>,
    /// Per distinct head variable, every head position it occupies. A
    /// pattern binding two positions of one variable to different
    /// constants rules the rule out.
    head_var_positions: Vec<Vec<usize>>,
    /// Body literals: predicate + per-position binding source.
    body: Vec<(Sym, Vec<TemplateArg>)>,
}

impl RuleTemplate {
    fn compile(rule: &Rule) -> RuleTemplate {
        let mut head_consts = Vec::new();
        let mut var_index: HashMap<Sym, usize> = HashMap::new();
        let mut head_var_positions: Vec<Vec<usize>> = Vec::new();
        for (i, term) in rule.head.args.iter().enumerate() {
            match term {
                Term::Const(c) => head_consts.push((i, *c)),
                Term::Var(v) => {
                    let idx = *var_index.entry(*v).or_insert_with(|| {
                        head_var_positions.push(Vec::new());
                        head_var_positions.len() - 1
                    });
                    head_var_positions[idx].push(i);
                }
            }
        }
        let body = rule
            .body
            .iter()
            .map(|lit| {
                let args = lit
                    .atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => TemplateArg::Const(*c),
                        Term::Var(v) => match var_index.get(v) {
                            Some(&idx) => TemplateArg::HeadVar(idx),
                            None => TemplateArg::Unbound,
                        },
                    })
                    .collect();
                (lit.atom.pred, args)
            })
            .collect();
        RuleTemplate {
            head_consts,
            head_var_positions,
            body,
        }
    }

    /// Specialize a head pattern through this rule: `None` when the
    /// rule is inapplicable (a head constant or a shared head variable
    /// contradicts the pattern), else the child pattern of every body
    /// literal. Mirrors head unification in the uncompiled closure:
    /// only positions the pattern actually binds are consulted, via
    /// `get` so arity mismatches degrade to "unbound" rather than
    /// panicking (the analyzer lints those separately).
    fn specialize(&self, args: &[Option<Sym>]) -> Option<Vec<(Sym, Vec<Option<Sym>>)>> {
        for &(i, c) in &self.head_consts {
            if let Some(bound) = args.get(i).copied().flatten() {
                if bound != c {
                    return None;
                }
            }
        }
        let mut bindings: Vec<Option<Sym>> = Vec::with_capacity(self.head_var_positions.len());
        for positions in &self.head_var_positions {
            let mut value: Option<Sym> = None;
            for &i in positions {
                if let Some(bound) = args.get(i).copied().flatten() {
                    match value {
                        Some(prev) if prev != bound => return None,
                        _ => value = Some(bound),
                    }
                }
            }
            bindings.push(value);
        }
        Some(
            self.body
                .iter()
                .map(|(pred, template)| {
                    let child = template
                        .iter()
                        .map(|arg| match arg {
                            TemplateArg::Const(c) => Some(*c),
                            TemplateArg::HeadVar(idx) => bindings[*idx],
                            TemplateArg::Unbound => None,
                        })
                        .collect();
                    (*pred, child)
                })
                .collect(),
        )
    }
}

/// The compiled pattern-closure shape of one rule set: per head
/// predicate, the templates of its rules in rule-set order. Built once
/// by [`RuleSet::new`](crate::RuleSet::new) and shared by every
/// specialization (commit checks, the static analyzer, the certain-
/// answer cache's footprints).
#[derive(Clone, Debug, Default)]
pub struct PatternTemplates {
    by_head: HashMap<Sym, Vec<RuleTemplate>>,
}

impl PatternTemplates {
    pub fn build(rules: &[Rule]) -> PatternTemplates {
        let mut by_head: HashMap<Sym, Vec<RuleTemplate>> = HashMap::new();
        for rule in rules {
            by_head
                .entry(rule.head.pred)
                .or_default()
                .push(RuleTemplate::compile(rule));
        }
        PatternTemplates { by_head }
    }

    /// Start a specialization run (one integrity check's worth of seed
    /// patterns).
    pub fn specializer(&self) -> PatternSpecializer<'_> {
        PatternSpecializer {
            templates: self,
            seen: BTreeSet::new(),
            counts: HashMap::new(),
            widened: BTreeSet::new(),
            frontier: Vec::new(),
        }
    }

    /// One-shot convenience: seed with `seeds` and close.
    pub fn specialize(
        &self,
        seeds: impl IntoIterator<Item = (Sym, Vec<Option<Sym>>)>,
    ) -> Vec<ReadPattern> {
        let mut s = self.specializer();
        for (pred, args) in seeds {
            s.add(pred, args);
        }
        s.close()
    }
}

/// Worklist closure over binding patterns, driven by precompiled
/// [`PatternTemplates`]: propagates pattern constants through rule
/// heads into rule bodies, skipping rules whose head constants
/// contradict the pattern. Widening to an all-unbound pattern (on
/// overflow, or when a pattern arrives with no bound position) is
/// monotonic: the unbounded pattern subsumes every bounded one and
/// still participates in the closure.
pub struct PatternSpecializer<'a> {
    templates: &'a PatternTemplates,
    seen: BTreeSet<(Sym, Vec<Option<Sym>>)>,
    counts: HashMap<Sym, usize>,
    widened: BTreeSet<Sym>,
    frontier: Vec<(Sym, Vec<Option<Sym>>)>,
}

impl PatternSpecializer<'_> {
    /// Seed (or propagate) one binding pattern.
    pub fn add(&mut self, pred: Sym, args: Vec<Option<Sym>>) {
        if self.widened.contains(&pred) {
            return;
        }
        if args.iter().all(|a| a.is_none()) {
            self.widen(pred, args.len());
            return;
        }
        if !self.seen.insert((pred, args.clone())) {
            return;
        }
        let count = self.counts.entry(pred).or_insert(0);
        *count += 1;
        if *count > MAX_PATTERNS_PER_PRED {
            self.widen(pred, args.len());
            return;
        }
        self.frontier.push((pred, args));
    }

    fn widen(&mut self, pred: Sym, arity: usize) {
        self.widened.insert(pred);
        self.seen.retain(|(p, _)| *p != pred);
        let whole = vec![None; arity];
        self.seen.insert((pred, whole.clone()));
        self.frontier.push((pred, whole));
    }

    /// Seed with an atom's constants (`None` at variable positions).
    pub fn add_atom(&mut self, atom: &Atom) {
        self.add(atom.pred, atom.args.iter().map(|t| t.as_const()).collect());
    }

    /// Close the collected patterns through the templates and return
    /// them sorted by predicate name, then argument names (a stable,
    /// interning-order-free order for reporting).
    pub fn close(mut self) -> Vec<ReadPattern> {
        while let Some((pred, args)) = self.frontier.pop() {
            let Some(templates) = self.templates.by_head.get(&pred) else {
                continue;
            };
            let children: Vec<(Sym, Vec<Option<Sym>>)> = templates
                .iter()
                .filter_map(|t| t.specialize(&args))
                .flatten()
                .collect();
            for (child_pred, child_args) in children {
                self.add(child_pred, child_args);
            }
        }
        let mut patterns: Vec<ReadPattern> = self
            .seen
            .into_iter()
            .map(|(pred, args)| ReadPattern { pred, args })
            .collect();
        sort_read_patterns(&mut patterns);
        patterns
    }
}

/// Sort distinct read patterns by predicate name, then argument names
/// (`None` first): the order [`PatternSpecializer::close`] reports in.
pub fn sort_read_patterns(patterns: &mut [ReadPattern]) {
    patterns.sort_by_cached_key(|p| {
        (
            p.pred.as_str(),
            p.args
                .iter()
                .map(|a| a.map(|c| c.as_str()))
                .collect::<Vec<_>>(),
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::parse_rule;

    fn templates(srcs: &[&str]) -> PatternTemplates {
        let rules: Vec<Rule> = srcs.iter().map(|s| parse_rule(s).unwrap()).collect();
        PatternTemplates::build(&rules)
    }

    fn pat(parts: &[Option<&str>]) -> Vec<Option<Sym>> {
        parts.iter().map(|p| p.map(Sym::new)).collect()
    }

    fn render(patterns: &[ReadPattern]) -> Vec<String> {
        patterns
            .iter()
            .map(|p| {
                let args: Vec<&str> = p
                    .args
                    .iter()
                    .map(|a| a.map_or("_", |s| s.as_str()))
                    .collect();
                format!("{}({})", p.pred.as_str(), args.join(","))
            })
            .collect()
    }

    #[test]
    fn constants_propagate_through_heads_into_bodies() {
        let t = templates(&["enrolled(X, cs) :- student(X)."]);
        let out = t.specialize([(Sym::new("enrolled"), pat(&[Some("jack"), Some("cs")]))]);
        assert_eq!(render(&out), vec!["enrolled(jack,cs)", "student(jack)"]);
    }

    #[test]
    fn contradicting_head_constant_rules_the_rule_out() {
        let t = templates(&["enrolled(X, cs) :- student(X)."]);
        let out = t.specialize([(Sym::new("enrolled"), pat(&[Some("jack"), Some("math")]))]);
        assert_eq!(render(&out), vec!["enrolled(jack,math)"]);
    }

    #[test]
    fn join_variables_stay_unbound() {
        let t = templates(&["works(X) :- assign(X,Y), dept(Y)."]);
        let out = t.specialize([(Sym::new("works"), pat(&[Some("jack")]))]);
        assert_eq!(
            render(&out),
            vec!["assign(jack,_)", "dept(_)", "works(jack)"]
        );
    }

    #[test]
    fn repeated_head_variable_requires_agreement() {
        let t = templates(&["same(X, X) :- thing(X)."]);
        // Agreeing bindings specialize; disagreeing ones drop the rule.
        let out = t.specialize([(Sym::new("same"), pat(&[Some("a"), Some("a")]))]);
        assert_eq!(render(&out), vec!["same(a,a)", "thing(a)"]);
        let out = t.specialize([(Sym::new("same"), pat(&[Some("a"), Some("b")]))]);
        assert_eq!(render(&out), vec!["same(a,b)"]);
        // A half-bound pattern binds the variable from either side.
        let out = t.specialize([(Sym::new("same"), pat(&[None, Some("b")]))]);
        assert_eq!(render(&out), vec!["same(_,b)", "thing(b)"]);
    }

    #[test]
    fn all_unbound_seeds_widen_and_subsume() {
        let t = templates(&["p(X) :- q(X)."]);
        let p = Sym::new("p");
        let mut s = t.specializer();
        s.add(p, pat(&[Some("a")]));
        s.add(p, pat(&[None]));
        let out = s.close();
        assert_eq!(render(&out), vec!["p(_)", "q(_)"]);
    }

    #[test]
    fn overflow_widens_to_the_whole_relation() {
        let t = templates(&["p(X) :- q(X)."]);
        let p = Sym::new("p");
        let mut s = t.specializer();
        for i in 0..(MAX_PATTERNS_PER_PRED + 1) {
            s.add(p, pat(&[Some(&format!("c{i}"))]));
        }
        let out = s.close();
        assert!(render(&out).contains(&"p(_)".to_string()));
        assert!(render(&out).contains(&"q(_)".to_string()));
    }

    #[test]
    fn recursive_rules_terminate() {
        let t = templates(&["tc(X,Z) :- tc(X,Y), edge(Y,Z).", "tc(X,Y) :- edge(X,Y)."]);
        let out = t.specialize([(Sym::new("tc"), pat(&[Some("a"), None]))]);
        // The recursive body literal re-derives tc(a,_) — already seen —
        // and edge goes data-dependent (whole).
        assert_eq!(render(&out), vec!["edge(_,_)", "tc(a,_)"]);
    }
}
