//! Structural (UA01xx) and flow (UA02xx) lints.
//!
//! All lints here are cheap, purely syntactic/graph-based passes over the
//! registered program — no fact base is consulted and no search runs.
//! Diagnostics are emitted in a deterministic order: rules in
//! registration order, then constraints in registration order, then
//! schema-level findings; within one item, findings are ordered by code.

use crate::diag::{Code, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};
use uniform_datalog::RuleSet;
use uniform_logic::{Constraint, Span, Sym, Term};

/// Everything the lint passes look at. Spans are optional parallel
/// vectors (empty when the program was built programmatically).
pub(crate) struct LintInput<'a> {
    pub rules: &'a RuleSet,
    pub constraints: &'a [Constraint],
    /// Declared EDB relations `(predicate, arity)`. Empty means the EDB
    /// universe is unknown, which disables the lints that need it
    /// (UA0201).
    pub declared: &'a [(Sym, usize)],
    pub rule_spans: &'a [Span],
    pub constraint_spans: &'a [Span],
}

impl LintInput<'_> {
    fn rule_span(&self, i: usize) -> Option<Span> {
        self.rule_spans.get(i).copied()
    }

    fn constraint_span(&self, i: usize) -> Option<Span> {
        self.constraint_spans.get(i).copied()
    }
}

/// Run every UA01xx/UA02xx lint and return the findings.
pub(crate) fn run(input: &LintInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    arity_mismatches(input, &mut out);
    singleton_variables(input, &mut out);
    dead_rules(input, &mut out);
    unreachable_from_constraints(input, &mut out);
    empty_by_construction(input, &mut out);
    out
}

/// Name-sorted predicate set of the whole program: rule heads and
/// bodies, constraint literals, declared EDB relations.
pub(crate) fn schema_predicates(input: &LintInput<'_>) -> Vec<Sym> {
    let mut set: BTreeSet<&str> = BTreeSet::new();
    let mut syms: BTreeMap<&str, Sym> = BTreeMap::new();
    let mut add = |p: Sym| {
        set.insert(p.as_str());
        syms.insert(p.as_str(), p);
    };
    for rule in input.rules.rules() {
        add(rule.head.pred);
        for lit in &rule.body {
            add(lit.atom.pred);
        }
    }
    for c in input.constraints {
        for occ in c.rq.literals() {
            add(occ.literal.atom.pred);
        }
    }
    for &(p, _) in input.declared {
        add(p);
    }
    set.iter().map(|s| syms[s]).collect()
}

/// UA0101: one predicate, two arities. The first use (declared
/// relations, then rules, then constraints) wins; later conflicting uses
/// are reported.
fn arity_mismatches(input: &LintInput<'_>, out: &mut Vec<Diagnostic>) {
    struct FirstUse {
        arity: usize,
        at: String,
    }
    let mut first: BTreeMap<&str, FirstUse> = BTreeMap::new();
    let mut check = |pred: Sym,
                     arity: usize,
                     at: &dyn Fn() -> String,
                     span: Option<Span>,
                     item: Option<String>,
                     out: &mut Vec<Diagnostic>| {
        match first.get(pred.as_str()) {
            None => {
                first.insert(pred.as_str(), FirstUse { arity, at: at() });
            }
            Some(f) if f.arity != arity => {
                let mut d = Diagnostic::new(
                    Code::ArityMismatch,
                    format!(
                        "predicate {pred} used with arity {arity}, but {} uses arity {}",
                        f.at, f.arity
                    ),
                )
                .with_span(span);
                if let Some(item) = item {
                    d = d.with_item(item);
                }
                out.push(d);
            }
            Some(_) => {}
        }
    };

    for &(pred, arity) in input.declared {
        check(
            pred,
            arity,
            &|| format!("the declared relation {pred}/{arity}"),
            None,
            None,
            out,
        );
    }
    for (i, rule) in input.rules.rules().iter().enumerate() {
        let span = input.rule_span(i);
        let item = format!("{rule}");
        let at = || format!("rule {rule}");
        check(
            rule.head.pred,
            rule.head.args.len(),
            &at,
            span,
            Some(item.clone()),
            out,
        );
        for lit in &rule.body {
            check(
                lit.atom.pred,
                lit.atom.args.len(),
                &at,
                span,
                Some(item.clone()),
                out,
            );
        }
    }
    for (i, c) in input.constraints.iter().enumerate() {
        let span = input.constraint_span(i);
        let at = || format!("constraint {}", c.name);
        for occ in c.rq.literals() {
            check(
                occ.literal.atom.pred,
                occ.literal.atom.args.len(),
                &at,
                span,
                Some(c.name.clone()),
                out,
            );
        }
    }
}

/// UA0102: a variable occurring exactly once in a rule. Almost always a
/// typo (`parenl(X,Y)`) or an unused binding; `_`-prefixed names are the
/// conventional opt-out and are skipped.
fn singleton_variables(input: &LintInput<'_>, out: &mut Vec<Diagnostic>) {
    for (i, rule) in input.rules.rules().iter().enumerate() {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        let mut bump = |t: &Term| {
            if let Some(v) = t.as_var() {
                *counts.entry(v.as_str()).or_insert(0) += 1;
            }
        };
        for t in &rule.head.args {
            bump(t);
        }
        for lit in &rule.body {
            for t in &lit.atom.args {
                bump(t);
            }
        }
        let singles: Vec<&str> = counts
            .iter()
            .filter(|(name, &n)| n == 1 && !name.starts_with('_'))
            .map(|(&name, _)| name)
            .collect();
        if !singles.is_empty() {
            out.push(
                Diagnostic::new(
                    Code::SingletonVariable,
                    format!(
                        "variable{} {} occur{} only once (prefix with _ if intentional)",
                        if singles.len() == 1 { "" } else { "s" },
                        singles.join(", "),
                        if singles.len() == 1 { "s" } else { "" },
                    ),
                )
                .with_span(input.rule_span(i))
                .with_item(format!("{rule}")),
            );
        }
    }
}

/// UA0201: a rule whose body consults a predicate that is neither any
/// rule's head nor a declared relation — with the EDB universe known,
/// such a rule can never fire. Needs `declared` to be meaningful, so it
/// is skipped when no relations were declared.
fn dead_rules(input: &LintInput<'_>, out: &mut Vec<Diagnostic>) {
    if input.declared.is_empty() {
        return;
    }
    let mut defined: BTreeSet<&str> = input.declared.iter().map(|&(p, _)| p.as_str()).collect();
    for rule in input.rules.rules() {
        defined.insert(rule.head.pred.as_str());
    }
    for (i, rule) in input.rules.rules().iter().enumerate() {
        let mut missing: Vec<&str> = rule
            .body
            .iter()
            .filter(|l| l.positive)
            .map(|l| l.atom.pred.as_str())
            .filter(|p| !defined.contains(p))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            out.push(
                Diagnostic::new(
                    Code::DeadRule,
                    format!(
                        "body consults {}, which no rule derives and no relation declares; \
                         the rule can never fire",
                        missing.join(", "),
                    ),
                )
                .with_span(input.rule_span(i))
                .with_item(format!("{rule}")),
            );
        }
    }
}

/// UA0202: IDB predicates the constraints never reach. Integrity
/// checking will never evaluate their rules (ad-hoc queries still may),
/// reported per predicate, name-sorted. Skipped when there are no
/// constraints — then nothing is reachable and the lint is noise.
fn unreachable_from_constraints(input: &LintInput<'_>, out: &mut Vec<Diagnostic>) {
    if input.constraints.is_empty() {
        return;
    }
    let graph = input.rules.graph();
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    for c in input.constraints {
        for occ in c.rq.literals() {
            for p in graph.reachable(occ.literal.atom.pred) {
                reached.insert(p.as_str());
            }
        }
    }
    let mut unreachable: Vec<&str> = graph
        .idb_predicates()
        .iter()
        .map(|p| p.as_str())
        .filter(|p| !reached.contains(p))
        .collect();
    unreachable.sort_unstable();
    for pred in unreachable {
        out.push(Diagnostic::new(
            Code::UnreachableFromConstraints,
            format!(
                "derived predicate {pred} is not reachable from any constraint; \
                 integrity checking never consults its rules"
            ),
        ));
    }
}

/// UA0203: a rule body containing a literal and its exact complement is
/// unsatisfiable — the rule contributes nothing, ever.
fn empty_by_construction(input: &LintInput<'_>, out: &mut Vec<Diagnostic>) {
    for (i, rule) in input.rules.rules().iter().enumerate() {
        let contradiction = rule
            .body
            .iter()
            .any(|l| !l.positive && rule.body.iter().any(|m| m.positive && m.atom == l.atom));
        if contradiction {
            out.push(
                Diagnostic::new(
                    Code::EmptyByConstruction,
                    "body contains a literal and its complement; the rule can never fire"
                        .to_string(),
                )
                .with_span(input.rule_span(i))
                .with_item(format!("{rule}")),
            );
        }
    }
}
