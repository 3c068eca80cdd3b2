//! Finite-satisfiability checking by constraint enforcement (§4).
//!
//! The procedure "systematically attempts to construct a finite set of
//! facts such that all constraints are satisfied in the resulting
//! database". The construction itself — enforcement of violated
//! instances by insertion with backtracking, and the determination of
//! the constraints violated by the most recent insertions (Prop. 2) in
//! level-saturation order — is the kernel of [`crate::enforce`], run
//! here with the §4 move set: existential enforcement by reuse of range
//! solutions (the extension over classical tableaux that targets finite
//! models), by the constants in use (a third, configurable alternative)
//! and by fresh constants.
//!
//! [`SatChecker::check`] wraps that in iterative deepening over the
//! number of fresh constants and stops each attempt at its first leaf: a
//! failed attempt that never hit the budget is a proof of
//! unsatisfiability, a successful one yields a finite model, and
//! budget-limited failures deepen. This makes the completeness claims of
//! §4 rigorous under depth-first search.

use crate::completion::completion_constraints;
use crate::enforce::{domain, Enforcer, Limits, Moves};
use std::ops::ControlFlow;
use uniform_datalog::{Database, FactSet, Model, RuleSet};
use uniform_integrity::RelevanceIndex;
use uniform_logic::{Constraint, Fact};

/// Tunable knobs; the defaults implement the paper's method plus the
/// rigorous completeness extensions.
#[derive(Clone, Debug)]
pub struct SatOptions {
    /// Ceiling for the fresh-constant budget (iterative deepening).
    pub max_fresh_constants: usize,
    /// Deepen budgets 0,1,…,max instead of jumping straight to max.
    pub iterative_deepening: bool,
    /// §4 alternative 1: instantiate existentials from the solutions of
    /// their restricting literals.
    pub range_reuse: bool,
    /// Extension: also try every known constant for existential
    /// variables (guarantees finite-satisfiability completeness even when
    /// the range has no solution yet).
    pub domain_reuse: bool,
    /// Cap on domain-enumeration combinations per existential node.
    pub domain_cap: usize,
    /// §4 point 3: determine violated constraints from the most recent
    /// insertions only (via simplified instances). Disabling re-checks
    /// every constraint at every level (ablation baseline).
    pub incremental_checking: bool,
    /// Per-attempt enforcement step bound (resource safety net).
    pub max_steps: usize,
    /// Record a human-readable trace of the search.
    pub trace: bool,
}

impl Default for SatOptions {
    fn default() -> Self {
        SatOptions {
            max_fresh_constants: 8,
            iterative_deepening: true,
            range_reuse: true,
            domain_reuse: true,
            domain_cap: 256,
            incremental_checking: true,
            max_steps: 2_000_000,
            trace: false,
        }
    }
}

impl SatOptions {
    /// The paper's procedure as published: range reuse, no domain
    /// enumeration.
    pub fn paper() -> Self {
        SatOptions {
            domain_reuse: false,
            ..SatOptions::default()
        }
    }

    /// Classical tableaux / SATCHMO-style baseline: fresh constants only
    /// (§4 point 2 calls this incomplete for finite satisfiability).
    pub fn tableaux() -> Self {
        SatOptions {
            range_reuse: false,
            domain_reuse: false,
            ..SatOptions::default()
        }
    }

    /// A tightly bounded preset for yes/no classification on hot paths
    /// — e.g. the repair engine deciding whether a repairless schema is
    /// unsatisfiable outright. Small fresh-constant and step budgets,
    /// so an axiom-of-infinity schema answers `Unknown` quickly instead
    /// of deepening for seconds.
    pub fn classification() -> Self {
        SatOptions {
            max_fresh_constants: 3,
            max_steps: 100_000,
            ..SatOptions::default()
        }
    }
}

/// Search outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// A finite model exists; `explicit` is the constructed sample fact
    /// base, `model` its canonical model under the rules.
    Satisfiable {
        explicit: Vec<Fact>,
        model: Vec<Fact>,
    },
    /// No model at all (finite or infinite).
    Unsatisfiable,
    /// Resources exhausted (axiom-of-infinity behaviour, §4: such cases
    /// "cannot be avoided" — both properties are only semi-decidable).
    Unknown { reason: String },
}

impl SatOutcome {
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, SatOutcome::Satisfiable { .. })
    }
}

/// Search statistics (summed over deepening attempts).
#[derive(Clone, Copy, Debug, Default)]
pub struct SatStats {
    pub attempts: usize,
    pub enforcement_steps: usize,
    pub assertions: usize,
    pub undo_events: usize,
    pub max_level: usize,
    pub fresh_constants: usize,
    /// Violated-instance determinations via simplified instances.
    pub incremental_checks: usize,
    /// Full constraint-set evaluations.
    pub full_checks: usize,
}

/// Result of a satisfiability check.
#[derive(Clone, Debug)]
pub struct SatReport {
    pub outcome: SatOutcome,
    pub stats: SatStats,
    pub trace: Vec<String>,
}

/// Satisfiability checker for a set of rules and constraints.
pub struct SatChecker {
    /// The full rule set (reported models are canonical under these).
    rules: RuleSet,
    /// Rules used for derivation *during the search*: the positive ones
    /// only. Rules with negative body literals participate through their
    /// §4 completion constraints instead — letting them fire as
    /// negation-as-failure derivations would hide exactly the
    /// alternatives the completion constraints exist to expose (a
    /// negative rule `p ← d ∧ ¬q` must offer the choice of satisfying
    /// `q` instead of accepting the derived `p`). When every completion
    /// constraint holds in the positive-rules canonical model, that model
    /// provably coincides with the full stratified canonical model, so
    /// sample databases accepted by the search are genuine witnesses.
    search_rules: RuleSet,
    constraints: Vec<Constraint>,
    index: RelevanceIndex,
    seed: Vec<Fact>,
    options: SatOptions,
}

impl SatChecker {
    /// Build a checker; the §4 completion constraints for rules with
    /// negative body literals are added automatically.
    pub fn new(rules: RuleSet, mut constraints: Vec<Constraint>) -> SatChecker {
        constraints.extend(completion_constraints(rules.rules()));
        let index = RelevanceIndex::build(&constraints);
        let positive: Vec<_> = rules
            .rules()
            .iter()
            .filter(|r| r.negative_body().count() == 0)
            .cloned()
            .collect();
        let search_rules =
            RuleSet::new(positive).expect("a subset of a stratified rule set is stratified");
        SatChecker {
            rules,
            search_rules,
            constraints,
            index,
            seed: Vec::new(),
            options: SatOptions::default(),
        }
    }

    /// Check the rules and constraints of a database (the fact base is
    /// deliberately ignored: §4 — "This sample database is temporary and
    /// independent from the set of facts held on secondary storage").
    pub fn from_database(db: &Database) -> SatChecker {
        SatChecker::new(db.rules().clone(), db.constraints().to_vec())
    }

    pub fn with_options(mut self, options: SatOptions) -> SatChecker {
        self.options = options;
        self
    }

    /// Start the construction from the given facts instead of the empty
    /// set (useful for "can this database be consistently extended?").
    pub fn with_seed(mut self, seed: Vec<Fact>) -> SatChecker {
        self.seed = seed;
        self
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The kernel configured for one attempt within `budget` fresh
    /// constants.
    pub(crate) fn attempt(&self, budget: usize) -> Enforcer<'_> {
        let o = &self.options;
        let seed = FactSet::from_facts(self.seed.iter().cloned());
        let domain = domain(&seed, &self.search_rules, &self.constraints);
        Enforcer::new(
            &self.search_rules,
            &self.constraints,
            seed,
            domain,
            Moves::satisfiability(o.range_reuse, o.domain_reuse, budget),
            Limits {
                max_nodes: o.max_steps,
                max_changes: usize::MAX,
                domain_cap: o.domain_cap,
            },
        )
        .incremental(o.incremental_checking.then_some(&self.index))
        .traced(o.trace)
    }

    /// Run the search: one [`Enforcer`] run per fresh-constant budget,
    /// stopped at its first leaf.
    pub fn check(&self) -> SatReport {
        let o = &self.options;
        let budgets = if o.iterative_deepening {
            0..=o.max_fresh_constants
        } else {
            o.max_fresh_constants..=o.max_fresh_constants
        };
        let mut stats = SatStats::default();
        let mut trace = Vec::new();
        let report = |outcome, stats, trace| SatReport {
            outcome,
            stats,
            trace,
        };
        for budget in budgets {
            let mut kernel = self.attempt(budget);
            let mut sample: Option<FactSet> = None;
            let _ = kernel.run(&mut |facts, _| {
                sample = Some(facts.clone());
                ControlFlow::Break(())
            });
            let tally = kernel.tally;
            stats.attempts += 1;
            stats.enforcement_steps += tally.nodes;
            stats.assertions += tally.assertions;
            stats.undo_events += tally.undo_events;
            stats.max_level = stats.max_level.max(tally.max_level);
            stats.fresh_constants += tally.fresh_generated;
            stats.incremental_checks += tally.incremental_checks;
            stats.full_checks += tally.full_checks;
            trace = kernel.trace;
            if let Some(facts) = sample {
                let mut explicit: Vec<Fact> = facts.iter().collect();
                explicit.sort();
                let mut model: Vec<Fact> = Model::compute(&facts, &self.rules).iter().collect();
                model.sort();
                return report(SatOutcome::Satisfiable { explicit, model }, stats, trace);
            }
            if tally.node_limit_hit {
                let reason = format!("step limit {} exhausted", o.max_steps);
                return report(SatOutcome::Unknown { reason }, stats, trace);
            }
            if !tally.fresh_budget_hit {
                // The search tree was explored exhaustively without ever
                // being pruned by the budget: refutation.
                return report(SatOutcome::Unsatisfiable, stats, trace);
            }
        }
        let reason = format!(
            "no model within {} fresh constants (possible axiom of infinity)",
            o.max_fresh_constants
        );
        report(SatOutcome::Unknown { reason }, stats, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::{normalize, parse_formula, parse_rule, Rule, Sym};

    fn checker(rules: &[&str], constraints: &[&str]) -> SatChecker {
        let rules = RuleSet::new(
            rules
                .iter()
                .map(|r| parse_rule(r).unwrap())
                .collect::<Vec<Rule>>(),
        )
        .unwrap();
        let cs: Vec<Constraint> = constraints
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Constraint::new(
                    format!("c{}", i + 1),
                    normalize(&parse_formula(s).unwrap()).unwrap(),
                )
            })
            .collect();
        SatChecker::new(rules, cs)
    }

    #[test]
    fn empty_constraint_set_trivially_satisfiable() {
        let rep = checker(&[], &[]).check();
        assert_eq!(
            rep.outcome,
            SatOutcome::Satisfiable {
                explicit: vec![],
                model: vec![]
            }
        );
    }

    #[test]
    fn universal_constraints_satisfied_by_empty_db() {
        // §4: "It is well possible that all constraints are already
        // satisfied in a database without facts… e.g., when all
        // constraints are functional or multi-valued dependencies."
        let rep = checker(
            &[],
            &[
                "forall X, Y, Z: leads(X,Y) & leads(Z,Y) -> same(X,Z)",
                "forall X: p(X) -> q(X)",
            ],
        )
        .check();
        assert!(rep.outcome.is_satisfiable());
        assert_eq!(rep.stats.assertions, 0);
    }

    #[test]
    fn single_existential_enforced() {
        let rep = checker(&[], &["exists X: employee(X)"]).check();
        match rep.outcome {
            SatOutcome::Satisfiable { explicit, .. } => {
                assert_eq!(explicit.len(), 1);
                assert_eq!(explicit[0].pred, Sym::new("employee"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn propositional_contradiction_unsat() {
        let rep = checker(&[], &["rain", "rain -> wet", "~wet"]).check();
        assert_eq!(rep.outcome, SatOutcome::Unsatisfiable);
    }

    #[test]
    fn propositional_disjunction_backtracks() {
        // a ∨ b, ¬a: must pick b after failing on a.
        let rep = checker(&[], &["a | b", "~a"]).check();
        match rep.outcome {
            SatOutcome::Satisfiable { explicit, .. } => {
                assert_eq!(explicit.len(), 1);
                assert_eq!(explicit[0].pred, Sym::new("b"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn existential_reuse_finds_small_model() {
        // ∃X p(X); ∀X p(X) → ∃Y p(Y)∧r(X,Y). Finite model {p(c),r(c,c)}
        // requires reusing c for Y.
        let rep = checker(
            &[],
            &[
                "exists X: p(X)",
                "forall X: p(X) -> (exists Y: p(Y) & r(X,Y))",
            ],
        )
        .check();
        match &rep.outcome {
            SatOutcome::Satisfiable { model, .. } => {
                assert!(model.len() <= 3, "expected a small model, got {model:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tableaux_baseline_diverges_where_reuse_terminates() {
        // Same problem, fresh-constants-only: every p(c) spawns a new
        // constant — the budget is exhausted and the result is Unknown
        // (§4 point 2: classical tableaux is incomplete for finite
        // satisfiability).
        let rep = checker(
            &[],
            &[
                "exists X: p(X)",
                "forall X: p(X) -> (exists Y: p(Y) & r(X,Y))",
            ],
        )
        .with_options(SatOptions {
            max_fresh_constants: 4,
            ..SatOptions::tableaux()
        })
        .check();
        assert!(
            matches!(rep.outcome, SatOutcome::Unknown { .. }),
            "{:?}",
            rep.outcome
        );
    }

    #[test]
    fn axiom_of_infinity_reports_unknown() {
        // Strict order with a successor for every element: only infinite
        // models.
        let rep = checker(
            &[],
            &[
                "exists X: elem(X)",
                "forall X: elem(X) -> (exists Y: elem(Y) & succ(X,Y))",
                "forall X, Y: succ(X,Y) -> less(X,Y)",
                "forall X, Y, Z: less(X,Y) & less(Y,Z) -> less(X,Z)",
                "forall X: less(X,X) -> false",
            ],
        )
        .with_options(SatOptions {
            max_fresh_constants: 5,
            ..SatOptions::default()
        })
        .check();
        assert!(
            matches!(rep.outcome, SatOutcome::Unknown { .. }),
            "{:?}",
            rep.outcome
        );
    }

    #[test]
    fn rules_participate_in_derivation() {
        // member derivable via leads: enforcing "some member" can be
        // satisfied through the rule after asserting leads.
        let rep = checker(
            &["member(X,Y) :- leads(X,Y)."],
            &[
                "exists X, Y: leads(X,Y)",
                "forall X, Y: leads(X,Y) -> member(X,Y)",
            ],
        )
        .check();
        assert!(rep.outcome.is_satisfiable(), "{:?}", rep.outcome);
    }

    #[test]
    fn completion_constraint_enables_model() {
        // Rule p(X) ← d(X) ∧ ¬q(X), constraints ∃X d(X) and ∀X ¬p(X).
        // Without the completion constraint the procedure would assert
        // d(c) and fail on derived p(c) with no alternative; the
        // completion ∀X ¬d(X)∨q(X)∨p(X) exposes the q(c) branch.
        let rep = checker(
            &["p(X) :- d(X), not q(X)."],
            &["exists X: d(X)", "forall X: p(X) -> false"],
        )
        .check();
        match &rep.outcome {
            SatOutcome::Satisfiable { model, .. } => {
                let names: Vec<String> = model.iter().map(|f| f.to_string()).collect();
                assert!(
                    names.iter().any(|n| n.starts_with("q(")),
                    "model: {names:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn graph_coloring_satisfiable() {
        // Two adjacent nodes, two colors: ∀ node has a color, adjacent
        // nodes differ. Finite model generation with case analysis.
        let rep = checker(
            &[],
            &[
                "node(n1) & node(n2) & adj(n1,n2)",
                "forall X: node(X) -> color(X, red) | color(X, green)",
                "forall X, Y, C: adj(X,Y) & color(X,C) & color(Y,C) -> false",
            ],
        )
        .check();
        assert!(rep.outcome.is_satisfiable(), "{:?}", rep.outcome);
    }

    #[test]
    fn uncolorable_graph_unsat() {
        // Triangle with two colors: unsatisfiable.
        let rep = checker(
            &[],
            &[
                "node(n1) & node(n2) & node(n3) & adj(n1,n2) & adj(n2,n3) & adj(n1,n3)",
                "forall X: node(X) -> color(X, red) | color(X, green)",
                "forall X, Y, C: adj(X,Y) & color(X,C) & color(Y,C) -> false",
            ],
        )
        .check();
        assert_eq!(rep.outcome, SatOutcomeKind::unsat(), "{:?}", rep.outcome);
    }

    // Small helper so the assert above reads naturally.
    struct SatOutcomeKind;
    impl SatOutcomeKind {
        fn unsat() -> SatOutcome {
            SatOutcome::Unsatisfiable
        }
    }

    #[test]
    fn seeded_search_extends_existing_facts() {
        let rep = checker(&[], &["forall X: p(X) -> q(X)"])
            .with_seed(vec![Fact::parse_like("p", &["a"])])
            .check();
        match &rep.outcome {
            SatOutcome::Satisfiable { model, .. } => {
                assert!(model.contains(&Fact::parse_like("q", &["a"])));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incremental_and_full_checking_agree() {
        let problems: Vec<(&[&str], &[&str])> = vec![
            (&[], &["exists X: p(X)", "forall X: p(X) -> q(X)"]),
            (&[], &["rain", "rain -> wet", "~wet"]),
            (
                &["member(X,Y) :- leads(X,Y)."],
                &[
                    "exists X, Y: leads(X,Y)",
                    "forall X, Y: member(X,Y) -> good(X)",
                ],
            ),
        ];
        for (rules, cs) in problems {
            let inc = checker(rules, cs).check();
            let full = checker(rules, cs)
                .with_options(SatOptions {
                    incremental_checking: false,
                    ..SatOptions::default()
                })
                .check();
            assert_eq!(
                inc.outcome.is_satisfiable(),
                full.outcome.is_satisfiable(),
                "divergence on {cs:?}"
            );
        }
    }

    #[test]
    fn trace_records_assertions() {
        let rep = checker(&[], &["exists X: employee(X)"])
            .with_options(SatOptions {
                trace: true,
                ..SatOptions::default()
            })
            .check();
        assert!(
            rep.trace.iter().any(|l| l.contains("assert employee(")),
            "{:?}",
            rep.trace
        );
    }
}
