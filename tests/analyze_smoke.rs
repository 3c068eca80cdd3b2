//! Smoke: the static analyzer accepts every shipped workload schema.
//!
//! Every `uniform::workload` generator must produce a schema the
//! analyzer is happy with — no error-severity diagnostics, no refusal,
//! and every advisory finding drawn from a small allowlist that this
//! test pins down. A new lint that starts firing on the workloads (or
//! a workload change that trips an existing lint) fails here with the
//! full diagnostic text, which is exactly the review prompt we want.

use std::collections::BTreeSet;
use uniform::{AnalyzeCode, Analyzer, Database, SatClass};

fn schemas(seed: u64) -> Vec<(&'static str, Database)> {
    use uniform::workload as w;
    vec![
        ("university", w::university(4, seed)),
        ("deductive_university", w::deductive_university(4, seed)),
        ("irrelevant_induction", w::irrelevant_induction(4, seed).0),
        (
            "unchanged_rule_instances",
            w::unchanged_rule_instances(3, seed).0,
        ),
        ("shared_subquery", w::shared_subquery_university(3, 2, seed)),
        ("tc_chain", w::tc_chain(5, seed)),
        ("tc_forest", w::tc_forest(20, seed)),
        ("org", w::org(2, 2, seed)),
        ("rule_update", w::rule_update_workload(4, 2, 2, seed)),
        ("optimizer", w::optimizer_workload(6, seed)),
        ("commit_mix", w::commit_mix_db(2, seed)),
        ("hot_relation", w::hot_relation_db(8, seed)),
        ("violation_mix", w::violation_mix_db(seed)),
        ("violation_state", w::violation_state(3, seed)),
        ("violation_dense", w::violation_dense_db(4, seed)),
    ]
}

/// Advisory codes the workloads are allowed to trip. Everything else —
/// and any error-severity finding — fails the smoke test.
const ALLOWED: &[AnalyzeCode] = &[
    AnalyzeCode::SingletonVariable,
    // `irrelevant_induction` stores no `p` facts until its transaction
    // runs, so its induction rule is statically dead on the base state.
    AnalyzeCode::DeadRule,
    AnalyzeCode::UnreachableFromConstraints,
    AnalyzeCode::TautologicalConstraint,
    AnalyzeCode::SatisfiabilityUnknown,
];

#[test]
fn every_workload_schema_passes_analysis() {
    for seed in [1, 7] {
        for (name, db) in schemas(seed) {
            let analyzed = Analyzer::of_database(&db).analyze();
            let diagnostics = analyzed.diagnostics();
            for d in &diagnostics {
                assert!(
                    !d.is_error(),
                    "{name}/{seed}: workload schema must not error: {d}"
                );
                assert!(
                    ALLOWED.contains(&d.code),
                    "{name}/{seed}: diagnostic outside the smoke allowlist: {d}"
                );
            }
            assert!(
                analyzed.refusal().is_none(),
                "{name}/{seed}: workload schema must not be refused"
            );
            assert_ne!(
                analyzed.set_class(),
                SatClass::Unsatisfiable,
                "{name}/{seed}: workload constraint sets are satisfiable"
            );

            // The precomputed artifacts are coherent: closures cover
            // only schema predicates, and declared relations are
            // name-sorted (the digest surfaces depend on it).
            let schema: BTreeSet<_> = analyzed.schema_predicates().iter().copied().collect();
            assert!(analyzed.closure_union().iter().all(|p| schema.contains(p)));
            assert!(analyzed
                .declared()
                .windows(2)
                .all(|w| w[0].0.as_str() <= w[1].0.as_str()));
        }
    }
}
