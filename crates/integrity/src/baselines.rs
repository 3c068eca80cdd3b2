//! Baseline integrity-checking methods the paper positions itself
//! against. All three return the same verdict as [`crate::Checker`]
//! (property-tested); the differences are in what work they do, which
//! their `CheckStats` counters expose.
//!
//! * [`full_recheck`] — apply the update and evaluate every constraint
//!   from scratch (the method Nicolas 1979 improves upon; Prop. 1/2 used
//!   naively).
//! * [`interleaved_check`] — the Decker 86 / Kowalski–Sadri–Soper 87
//!   architecture: compute *actual* induced updates eagerly (even those no
//!   constraint cares about) and evaluate each simplified instance
//!   immediately and independently.
//! * [`lloyd_topor_check`] — the Lloyd–Topor 86 variant: the checker's
//!   two phases, but triggers are enumerated with `new` instead of
//!   `delta` ("Instead of evaluating expressions of the form
//!   ¬delta(U,L) ∨ new(U,s(C)), they evaluate formulas corresponding to
//!   ¬new(U,L) ∨ new(U,s(C))" — §3.2), so instances are also evaluated
//!   for trigger instances whose truth did not change.

use crate::cache::Precompiled;
use crate::checker::{scan_triggers, CheckReport, CheckStats, Checker, Program, Violation};
use crate::simplify::simplified_instances;
use std::collections::{HashSet, VecDeque};
use uniform_datalog::{
    satisfies_closed, solve_conjunction_without, Database, Interp, Model, OverlayEngine,
    Transaction,
};
use uniform_logic::{match_atom, Fact, Literal, Subst};

/// Baseline A: apply the update to a copy and evaluate the full
/// constraint set over the recomputed canonical model.
pub fn full_recheck(db: &Database, tx: &Transaction) -> CheckReport {
    let mut edb = db.facts().clone();
    tx.apply(&mut edb);
    let model = Model::compute(&edb, db.rules());
    let mut violations = Vec::new();
    let mut stats = CheckStats {
        new_materializations: 1,
        ..CheckStats::default()
    };
    for c in db.constraints() {
        stats.instances_evaluated += 1;
        if !satisfies_closed(&model, &c.rq) {
            violations.push(Violation {
                constraint: c.name.clone(),
                culprit: None,
                instance: c.rq.clone(),
            });
        }
    }
    CheckReport::new(violations, Vec::new(), stats, false)
}

/// Baseline B: interleaved induced-update checking.
///
/// Forward-chains **all** ground induced updates from the transaction
/// (§3.2 drawback 1: "all induced updates are computed, even those for
/// which no constraint is relevant"), and evaluates every simplified
/// instance the moment its inducing update is discovered, each evaluation
/// independent of the others (§3.2 drawback 2).
pub fn interleaved_check(db: &Database, tx: &Transaction) -> CheckReport {
    let mut stats = CheckStats::default();
    let (adds, dels) = tx.net_effect(db.facts());
    if adds.is_empty() && dels.is_empty() {
        return CheckReport::new(Vec::new(), Vec::new(), stats, false);
    }
    let current = db.model();
    let index = &Precompiled::of(db.schema()).index;

    // One overlay engine for generating induced updates; instance
    // evaluations use fresh engines below (independent evaluation).
    let generator =
        OverlayEngine::over_model(&current, db.facts(), db.rules(), adds.clone(), dels.clone());

    let mut queue: VecDeque<Literal> = VecDeque::new();
    let mut known: HashSet<Literal> = HashSet::new();
    for f in &adds {
        if !current.contains(f) {
            let lit = Literal::new(true, f.to_atom());
            if known.insert(lit.clone()) {
                queue.push_back(lit);
            }
        }
    }
    for f in &dels {
        if current.contains(f) && !generator.holds(f) {
            let lit = Literal::new(false, f.to_atom());
            if known.insert(lit.clone()) {
                queue.push_back(lit);
            }
        }
    }

    let mut violations = Vec::new();
    while let Some(delta_lit) = queue.pop_front() {
        stats.delta.answers += 1;

        // Check simplified instances of constraints relevant to this
        // ground induced update — immediately and independently.
        for si in simplified_instances(index, db.constraints(), &delta_lit) {
            debug_assert!(si.instance.is_closed());
            stats.instances_evaluated += 1;
            // Fresh engine per evaluation: no sharing of any kind.
            let engine = OverlayEngine::over_model(
                &current,
                db.facts(),
                db.rules(),
                adds.clone(),
                dels.clone(),
            );
            let ok = satisfies_closed(&engine, &si.instance);
            if !ok {
                violations.push(Violation {
                    constraint: db.constraints()[si.constraint].name.clone(),
                    culprit: Some(delta_lit.clone()),
                    instance: si.instance,
                });
            }
        }

        // Generate successors through every rule body occurrence.
        let delta_fact = delta_lit
            .atom
            .to_fact()
            .expect("induced updates are ground");
        for positive_head in [true, false] {
            // positive head ⇐ same-sign body occurrence; negative head ⇐
            // opposite sign (Def. 4 / Def. 5 polarity rules).
            let occ_sign = if positive_head {
                delta_lit.positive
            } else {
                !delta_lit.positive
            };
            // The delta fact is ground: each rule is matched as written.
            for (rule, _, occ) in db.rules().body_occurrences(delta_lit.atom.pred, occ_sign) {
                let body_atom = &rule.body[occ.position].atom;
                let Some(mut binding) = match_atom(body_atom, &delta_fact).map(|s| {
                    let mut b = Subst::new();
                    b.try_union(&s);
                    b
                }) else {
                    continue;
                };
                let residue_interp: &dyn Interp = if positive_head {
                    &generator
                } else {
                    current.as_ref()
                };
                let mut produced: Vec<Fact> = Vec::new();
                solve_conjunction_without(
                    residue_interp,
                    &rule.body,
                    occ.position,
                    &mut binding,
                    &mut |s| {
                        if let Some(head) = s.ground_atom(&rule.head) {
                            produced.push(head);
                        }
                        true
                    },
                );
                for head in produced {
                    let flipped = if positive_head {
                        !current.contains(&head)
                    } else {
                        current.contains(&head) && !generator.holds(&head)
                    };
                    if flipped {
                        let lit = Literal::new(positive_head, head.to_atom());
                        if known.insert(lit.clone()) {
                            queue.push_back(lit);
                        }
                    }
                }
            }
        }
    }

    CheckReport::new(violations, Vec::new(), stats, false)
}

/// Baseline C: Lloyd–Topor-style trigger enumeration.
///
/// Identical compile phase to the main checker, but a positive trigger
/// of an update constraint is enumerated over the whole *updated state*
/// without filtering for actual change — `¬new(U,L) ∨ new(U,s(C))`.
/// "The resulting loss in efficiency is often considerable" (§3.2). A
/// negative trigger is enumerated as the current atoms the update made
/// false: an atom the transaction deletes and re-inserts is no trigger.
pub fn lloyd_topor_check(db: &Database, tx: &Transaction) -> CheckReport {
    let checker = Checker::new(db);
    let literals: Vec<Literal> = tx.updates.iter().map(|u| u.to_literal()).collect();
    let compiled = checker.compile(&literals);
    let mut stats = compiled.stats();

    let (adds, dels) = tx.net_effect(db.facts());
    if adds.is_empty() && dels.is_empty() {
        return CheckReport::new(Vec::new(), Vec::new(), stats, false);
    }
    let current = db.model();
    let updated = OverlayEngine::over_model(&current, db.facts(), db.rules(), adds, dels);
    let mut answers = 0;
    let violations = Program::new(&compiled, &[]).run(
        Subst::new(),
        db.constraints(),
        &updated,
        |pattern| {
            // A negative pattern cannot scan the absent atoms: it scans
            // the current ones and keeps those the update made false.
            let found = match pattern.positive {
                true => scan_triggers(pattern, &updated, |_| true),
                false => scan_triggers(pattern, &*current, |f| !updated.holds(f)),
            };
            answers += found.len();
            found
        },
        &mut stats,
    );
    stats.delta.answers = answers;
    CheckReport::new(violations, Vec::new(), stats, compiled.truncated)
}

/// Run every method on the same input and assert verdict agreement —
/// used by tests and the property suite.
pub fn verdicts_agree(db: &Database, tx: &Transaction) -> Result<bool, String> {
    let main = Checker::new(db).check(tx).satisfied;
    let full = full_recheck(db, tx).satisfied;
    let inter = interleaved_check(db, tx).satisfied;
    let lt = lloyd_topor_check(db, tx).satisfied;
    if main == full && main == inter && main == lt {
        Ok(main)
    } else {
        Err(format!(
            "verdicts diverge on {tx:?}: two-phase={main} full={full} interleaved={inter} lloyd-topor={lt}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::Update;
    use uniform_logic::parse_literal;

    fn upd(src: &str) -> Update {
        Update::from_literal(&parse_literal(src).unwrap()).unwrap()
    }

    fn db(src: &str) -> Database {
        let d = Database::parse(src).unwrap();
        assert!(d.is_consistent());
        d
    }

    const UNIVERSITY: &str = "
        emp(a). emp(b). dept(d). assign(a,d). assign(b,d).
        works(X) :- assign(X,Y), dept(Y).
        idle(X) :- emp(X), not works(X).
        constraint busy: forall X: idle(X) -> false.
        constraint assigned_depts: forall X, Y: assign(X,Y) -> dept(Y).
    ";

    #[test]
    fn all_methods_agree_on_university() {
        let d = db(UNIVERSITY);
        for update in [
            "assign(c,d)",     // violates nothing? c not emp; assigned_depts ok
            "emp(c)",          // c becomes idle → violation
            "not assign(a,d)", // a becomes idle → violation
            "not dept(d)",     // everyone idle + dangling assigns → violation
            "assign(a,e)",     // e is not a dept → violation
            "not emp(b)",      // fine
        ] {
            let tx = Transaction::single(upd(update));
            verdicts_agree(&d, &tx).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn all_methods_agree_on_transactions() {
        let d = db(UNIVERSITY);
        let txs = vec![
            Transaction::new(vec![upd("emp(c)"), upd("assign(c,d)")]),
            Transaction::new(vec![upd("not dept(d)"), upd("dept(e)")]),
            Transaction::new(vec![upd("emp(c)")]),
            Transaction::new(vec![upd("emp(c)"), upd("not emp(c)")]),
        ];
        for tx in txs {
            verdicts_agree(&d, &tx).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn interleaved_computes_irrelevant_induced_updates() {
        // §3.2 drawback 1: rule r(X) ← q(X,Y) ∧ p(Y,Z) with no constraint
        // on r. The interleaved method still derives every r(X).
        let mut src = String::from(
            "r(X) :- q(X,Y), p(Y,Z).\nconstraint c: forall X, Y: p(X,Y) -> pbase(X).\npbase(a).\n",
        );
        for i in 0..20 {
            src.push_str(&format!("q(x{i}, a).\n"));
        }
        let d = db(&src);
        let tx = Transaction::single(upd("p(a,b)"));
        let inter = interleaved_check(&d, &tx);
        assert!(inter.satisfied);
        // 1 (p-insertion) + 20 induced r-facts.
        assert_eq!(inter.stats.delta.answers, 21);
        // The two-phase checker never enumerates them: no constraint
        // mentions r, so no update constraint has an r trigger.
        let rep = Checker::new(&d).check(&tx);
        assert!(rep.satisfied);
        assert_eq!(rep.stats.delta.answers, 1, "stats: {:?}", rep.stats);
    }

    #[test]
    fn lloyd_topor_evaluates_unchanged_triggers() {
        // The potential update r(X) is a nonground trigger. All ten r
        // instances already hold in D; inserting p(a,b) changes none of
        // them. `delta` enumerates nothing, `new` enumerates all ten
        // (§3.2: "The resulting loss in efficiency is often considerable").
        let mut src = String::from(
            "r(X) :- q(X,Y), p(Y,Z).\nconstraint c: forall X: r(X) -> rbase(X).\np(a,c).\n",
        );
        for i in 0..10 {
            src.push_str(&format!("q(x{i}, a). rbase(x{i}).\n"));
        }
        let d = db(&src);
        let tx = Transaction::single(upd("p(a,b)"));
        let lt = lloyd_topor_check(&d, &tx);
        assert!(lt.satisfied);
        assert_eq!(lt.stats.delta.answers, 10, "stats: {:?}", lt.stats);
        assert_eq!(lt.stats.instances_evaluated, 10);
        let main = Checker::new(&d).check(&tx);
        assert!(main.satisfied);
        // delta finds the base p-insertion while descending but no changed
        // r instance — so no simplified instance is evaluated at all.
        assert_eq!(main.stats.instances_evaluated, 0, "stats: {:?}", main.stats);
    }

    #[test]
    fn full_recheck_evaluates_everything() {
        let d = db(UNIVERSITY);
        let rep = full_recheck(&d, &Transaction::single(upd("emp(c)")));
        assert!(!rep.satisfied);
        assert_eq!(
            rep.stats.instances_evaluated, 2,
            "both constraints evaluated"
        );
    }

    #[test]
    fn deletion_cascades_agree() {
        let d = db("
            d(k). other(z).
            b(X) :- d(X).
            c(X) :- d(X).
            a(X) :- b(X), c(X).
            constraint keep: forall X: other(X) -> true.
            constraint needs_a: forall X: d(X) -> a(X).
            constraint a_support: forall X: a(X) -> d(X).
        ");
        for update in ["not d(k)", "d(j)"] {
            let tx = Transaction::single(upd(update));
            verdicts_agree(&d, &tx).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}
