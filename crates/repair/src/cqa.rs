//! Consistent query answering over minimal repairs.
//!
//! The certain answers of a query over an inconsistent database are the
//! answers true in **every** minimal repair (Arenas–Bertossi–Chomicki).
//! Each repair candidate is evaluated through an
//! [`OverlayEngine`] overlay over the state's own model — the §3.3.2
//! simulation of the updated state — so no repaired database is ever
//! materialized: the base EDB and its model stay shared, the repair's
//! insertions and deletions ride on top, and recursion-reaching
//! predicates read the propagation kernel's flips.

use std::collections::BTreeMap;
use uniform_datalog::{all_solutions, satisfies, FactSet, Model, OverlayEngine, RuleSet};
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
/// of `repairs` applied (as an overlay) to `edb` under `rules`, whose
/// canonical model is `model`, as bindings of `vars`. `init` pre-binds
/// query parameters (evaluation extends it per repair) and `vars` names
/// the output columns explicitly, so a prepared query's column schema —
/// variables minus parameters, in first-occurrence order — is honored
/// instead of being re-derived per call. Answers come back sorted by
/// their rendered bindings, so the output is deterministic across runs
/// and processes.
///
/// `repairs` must be non-empty — a consistent state contributes the
/// single empty repair, under which this is ordinary query answering.
pub fn certain_answers_bound(
    model: &Model,
    edb: &FactSet,
    rules: &RuleSet,
    repairs: &[RepairSet],
    query: &[Literal],
    init: &Subst,
    vars: &[Sym],
) -> Vec<Vec<(Sym, Sym)>> {
    assert!(
        !repairs.is_empty(),
        "certain answers need at least one repair (the empty repair of a consistent state)"
    );
    // Answers are keyed by their rendered bindings (name-deterministic,
    // hence order-deterministic): one is certain iff its key appears
    // for every repair, and the survivors come back in key order.
    let mut certain = None;
    for repair in repairs {
        let (adds, dels) = repair.overlay();
        let engine = OverlayEngine::over_model(model, edb, rules, adds, dels);
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
            if certain
                .as_ref()
                .is_none_or(|kept: &BTreeMap<_, _>| kept.contains_key(&key))
            {
                answers.insert(key, binding);
            }
        }
        let none_left = answers.is_empty();
        certain = Some(answers);
        if none_left {
            break;
        }
    }
    certain.unwrap_or_default().into_values().collect()
}

/// Is the formula true in every repair, with its free variables
/// pre-bound by `init` (prepared formula queries bind parameters this
/// way; a closed formula takes the empty substitution)?
pub fn certainly_satisfies_bound(
    model: &Model,
    edb: &FactSet,
    rules: &RuleSet,
    repairs: &[RepairSet],
    rq: &Rq,
    init: &Subst,
) -> bool {
    assert!(!repairs.is_empty(), "see certain_answers_bound");
    repairs.iter().all(|repair| {
        let (adds, dels) = repair.overlay();
        let engine = OverlayEngine::over_model(model, edb, rules, adds, dels);
        satisfies(&engine, rq, &mut init.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::{Database, Update};
    use uniform_logic::{parse_literal, Fact};

    /// Certain answers of `query` over `db`'s state, every query
    /// variable an output column.
    fn certain_answers(db: &Database, repairs: &[RepairSet], query: &str) -> Vec<Vec<(Sym, Sym)>> {
        let query = [parse_literal(query).unwrap()];
        certain_answers_bound(
            &db.model(),
            db.facts(),
            db.rules(),
            repairs,
            &query,
            &Subst::new(),
            &query_vars(&query),
        )
    }

    #[test]
    fn empty_repair_is_plain_answering() {
        let db = Database::parse("p(a). p(b). q(X) :- p(X).").unwrap();
        let ans = certain_answers(&db, &[RepairSet::empty()], "q(X)");
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn intersection_drops_uncertain_answers() {
        let db = Database::parse("p(a). p(b).").unwrap();
        let keep_a = RepairSet::from_ops(vec![Update::delete(Fact::parse_like("p", &["b"]))]);
        let keep_b = RepairSet::from_ops(vec![Update::delete(Fact::parse_like("p", &["a"]))]);
        let ans = certain_answers(&db, &[keep_a, keep_b], "p(X)");
        assert!(ans.is_empty(), "{ans:?}");
    }

    #[test]
    fn overlay_insertions_count() {
        let db = Database::parse("q(X) :- p(X).").unwrap();
        let r = RepairSet::from_ops(vec![Update::insert(Fact::parse_like("p", &["z"]))]);
        let ans = certain_answers(&db, &[r], "q(X)");
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0][0].1.as_str(), "z");
    }
}
