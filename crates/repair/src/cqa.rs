//! Consistent query answering over minimal repairs.
//!
//! The certain answers of a query over an inconsistent database are the
//! answers true in **every** minimal repair (Arenas–Bertossi–Chomicki).
//! Each repair candidate is evaluated through an
//! [`OverlayEngine`] overlay — the §3.3.2 simulation of the updated
//! state — so no repaired database is ever materialized: the base EDB
//! stays shared, the repair's insertions and deletions ride on top.

use std::collections::BTreeMap;
use uniform_datalog::{all_solutions, satisfies, FactSet, OverlayEngine, RuleSet};
use uniform_logic::{Literal, Rq, Subst, Sym, Term};

use crate::engine::RepairSet;

/// Variables of a conjunctive query, in first-occurrence order (the
/// binding order answers are reported in).
pub(crate) fn query_vars(query: &[Literal]) -> Vec<Sym> {
    let mut vars: Vec<Sym> = Vec::new();
    for l in query {
        for v in l.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    vars
}

/// The answers of the conjunctive query `query` that hold in every one
/// of `repairs` applied (as an overlay) to `edb` under `rules`.
/// Answers come back sorted by their rendered bindings, so the output
/// is deterministic across runs and processes.
///
/// `repairs` must be non-empty — a consistent state contributes the
/// single empty repair, under which this is ordinary query answering.
pub fn certain_answers(
    edb: &FactSet,
    rules: &RuleSet,
    repairs: &[RepairSet],
    query: &[Literal],
) -> Vec<Vec<(Sym, Sym)>> {
    certain_answers_bound(
        edb,
        rules,
        repairs,
        query,
        &Subst::new(),
        &query_vars(query),
    )
}

/// [`certain_answers`] parameterized for prepared queries: `init`
/// pre-binds query parameters (evaluation extends it per repair) and
/// `vars` names the output columns explicitly, so a prepared query's
/// column schema — variables minus parameters, in first-occurrence
/// order — is honored instead of being re-derived per call.
pub fn certain_answers_bound(
    edb: &FactSet,
    rules: &RuleSet,
    repairs: &[RepairSet],
    query: &[Literal],
    init: &Subst,
    vars: &[Sym],
) -> Vec<Vec<(Sym, Sym)>> {
    intersect_over_repairs(repairs, |repair| {
        let (adds, dels) = repair.overlay();
        let engine = OverlayEngine::updated(edb, rules, adds, dels);
        let mut answers = BTreeMap::new();
        for s in all_solutions(&engine, query, &mut init.clone(), vars) {
            let binding: Vec<(Sym, Sym)> = vars
                .iter()
                .filter_map(|&v| match s.walk(Term::Var(v)) {
                    Term::Const(c) => Some((v, c)),
                    Term::Var(_) => None,
                })
                .collect();
            let key: Vec<String> = binding
                .iter()
                .map(|(v, c)| format!("{}={}", v.as_str(), c.as_str()))
                .collect();
            answers.insert(key, binding);
        }
        answers
    })
}

/// The certain-answer intersection, parameterized by how one repair
/// candidate's answers are enumerated: `answers_for` returns a repair's
/// answer set keyed by a rendered (name-deterministic, hence
/// order-deterministic) form; an answer is certain iff its key appears
/// for **every** repair, and the survivors come back in key order. The
/// overlay path above and the prepared magic path (`uniform::Session`)
/// both delegate here, so the intersection semantics — including the
/// empty-intersection early exit — exist exactly once.
///
/// `repairs` must be non-empty — a consistent state contributes the
/// single empty repair, under which this is ordinary query answering.
pub fn intersect_over_repairs<K: Ord, T>(
    repairs: &[RepairSet],
    mut answers_for: impl FnMut(&RepairSet) -> BTreeMap<K, T>,
) -> Vec<T> {
    assert!(
        !repairs.is_empty(),
        "certain answers need at least one repair (the empty repair of a consistent state)"
    );
    let mut certain: Option<BTreeMap<K, T>> = None;
    for repair in repairs {
        let answers = answers_for(repair);
        certain = Some(match certain {
            None => answers,
            Some(prev) => prev
                .into_iter()
                .filter(|(k, _)| answers.contains_key(k))
                .collect(),
        });
        if certain.as_ref().is_some_and(|m| m.is_empty()) {
            break;
        }
    }
    certain.unwrap_or_default().into_values().collect()
}

/// Is the closed formula true in every repair?
pub fn certainly_satisfies(edb: &FactSet, rules: &RuleSet, repairs: &[RepairSet], rq: &Rq) -> bool {
    certainly_satisfies_bound(edb, rules, repairs, rq, &Subst::new())
}

/// [`certainly_satisfies`] with the formula's free variables pre-bound
/// by `init` (prepared formula queries bind parameters this way).
pub fn certainly_satisfies_bound(
    edb: &FactSet,
    rules: &RuleSet,
    repairs: &[RepairSet],
    rq: &Rq,
    init: &Subst,
) -> bool {
    assert!(!repairs.is_empty(), "see certain_answers");
    repairs.iter().all(|repair| {
        let (adds, dels) = repair.overlay();
        let engine = OverlayEngine::updated(edb, rules, adds, dels);
        satisfies(&engine, rq, &mut init.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::{Database, Update};
    use uniform_logic::{parse_literal, Fact};

    #[test]
    fn empty_repair_is_plain_answering() {
        let db = Database::parse("p(a). p(b). q(X) :- p(X).").unwrap();
        let ans = certain_answers(
            db.facts(),
            db.rules(),
            &[RepairSet::empty()],
            &[parse_literal("q(X)").unwrap()],
        );
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn intersection_drops_uncertain_answers() {
        let db = Database::parse("p(a). p(b).").unwrap();
        let keep_a = RepairSet::from_ops(vec![Update::delete(Fact::parse_like("p", &["b"]))]);
        let keep_b = RepairSet::from_ops(vec![Update::delete(Fact::parse_like("p", &["a"]))]);
        let ans = certain_answers(
            db.facts(),
            db.rules(),
            &[keep_a, keep_b],
            &[parse_literal("p(X)").unwrap()],
        );
        assert!(ans.is_empty(), "{ans:?}");
    }

    #[test]
    fn overlay_insertions_count() {
        let db = Database::parse("q(X) :- p(X).").unwrap();
        let r = RepairSet::from_ops(vec![Update::insert(Fact::parse_like("p", &["z"]))]);
        let ans = certain_answers(
            db.facts(),
            db.rules(),
            &[r],
            &[parse_literal("q(X)").unwrap()],
        );
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0][0].1.as_str(), "z");
    }
}
