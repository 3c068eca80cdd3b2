//! Problem library: the paper's §5 worked example and benchmark problems
//! from the theorem-proving literature (§6 reports "promising efficiency
//! … on well-known benchmark examples from the theorem-proving
//! literature"; the companion SATCHMO paper used Schubert's steamroller
//! and similar model-generation benchmarks).

use crate::search::{SatChecker, SatOptions};
use uniform_datalog::RuleSet;
use uniform_logic::{normalize, parse_formula, parse_rule, Constraint, Rule};

/// Expected outcome of a problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// A finite model exists.
    Satisfiable,
    /// No model at all.
    Unsatisfiable,
    /// All models are infinite: the checker must give up (Unknown).
    Infinite,
}

/// A named rules-plus-constraints problem.
#[derive(Clone, Debug)]
pub struct Problem {
    pub name: &'static str,
    pub rules: Vec<Rule>,
    pub constraints: Vec<Constraint>,
    pub expected: Expectation,
    /// Fresh-constant ceiling adequate for the problem.
    pub budget: usize,
}

impl Problem {
    fn build(
        name: &'static str,
        rules: &[&str],
        constraints: &[&str],
        expected: Expectation,
        budget: usize,
    ) -> Problem {
        Problem {
            name,
            rules: rules.iter().map(|r| parse_rule(r).expect(r)).collect(),
            constraints: constraints
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    Constraint::new(
                        format!("{name}#{}", i + 1),
                        normalize(&parse_formula(c).expect(c)).expect(c),
                    )
                })
                .collect(),
            expected,
            budget,
        }
    }

    /// A checker for this problem with an adequate budget.
    pub fn checker(&self) -> SatChecker {
        self.checker_with(SatOptions::default())
    }

    pub fn checker_with(&self, options: SatOptions) -> SatChecker {
        let rules = RuleSet::new(self.rules.clone()).expect("problem rules stratified");
        SatChecker::new(rules, self.constraints.clone()).with_options(SatOptions {
            max_fresh_constants: self.budget,
            ..options
        })
    }
}

/// §5 of the paper, exactly as printed. Unsatisfiable: every attempt to
/// lead a department ends in `subordinate(x,x)`.
pub fn paper_example() -> Problem {
    Problem::build(
        "paper-example",
        &["member(X,Y) :- leads(X,Y)."],
        &[
            "forall X: employee(X) -> (exists Y: department(Y) & member(X,Y))",
            "forall X: department(X) -> (exists Y: employee(Y) & leads(Y,X))",
            "forall X, Y: member(X,Y) -> (forall Z: leads(Z,Y) -> subordinate(X,Z))",
            "forall X: ~subordinate(X,X)",
            "exists X: employee(X)",
        ],
        Expectation::Unsatisfiable,
        4,
    )
}

/// The repair suggested at the end of §5: weaken constraint (3) to
/// `∀XY ¬member(X,Y) ∨ leads(X,Y) ∨ ∀Z(…)` — leaders are exempt from the
/// subordination requirement. Finitely satisfiable.
pub fn paper_example_repaired() -> Problem {
    Problem::build(
        "paper-example-repaired",
        &["member(X,Y) :- leads(X,Y)."],
        &[
            "forall X: employee(X) -> (exists Y: department(Y) & member(X,Y))",
            "forall X: department(X) -> (exists Y: employee(Y) & leads(Y,X))",
            "forall X, Y: member(X,Y) -> leads(X,Y) | (forall Z: leads(Z,Y) -> subordinate(X,Z))",
            "forall X: ~subordinate(X,X)",
            "exists X: employee(X)",
        ],
        Expectation::Satisfiable,
        4,
    )
}

/// Schubert's steamroller (Pelletier 47), the canonical 1980s
/// model-generation benchmark, in its function-free formulation with
/// named individuals. The axioms plus the *negated* conclusion are
/// unsatisfiable.
pub fn steamroller() -> Problem {
    Problem::build(
        "steamroller",
        &[],
        &[
            // The individuals.
            "wolf(w) & fox(f) & bird(b) & caterpillar(ca) & snail(sn) & grain(g)",
            // Taxonomy.
            "forall X: wolf(X) -> animal(X)",
            "forall X: fox(X) -> animal(X)",
            "forall X: bird(X) -> animal(X)",
            "forall X: caterpillar(X) -> animal(X)",
            "forall X: snail(X) -> animal(X)",
            "forall X: grain(X) -> plant(X)",
            // Size axioms.
            "forall X, Y: caterpillar(X) & bird(Y) -> smaller(X,Y)",
            "forall X, Y: snail(X) & bird(Y) -> smaller(X,Y)",
            "forall X, Y: bird(X) & fox(Y) -> smaller(X,Y)",
            "forall X, Y: fox(X) & wolf(Y) -> smaller(X,Y)",
            // Dietary facts.
            "forall X, Y: wolf(X) & fox(Y) -> ~eats(X,Y)",
            "forall X, Y: wolf(X) & grain(Y) -> ~eats(X,Y)",
            "forall X, Y: bird(X) & caterpillar(Y) -> eats(X,Y)",
            "forall X, Y: bird(X) & snail(Y) -> ~eats(X,Y)",
            "forall X: caterpillar(X) -> (exists P: plant(P) & eats(X,P))",
            "forall X: snail(X) -> (exists P: plant(P) & eats(X,P))",
            // The key axiom: every animal eats all plants or eats all
            // much-smaller plant-eating animals.
            "forall A: animal(A) -> (forall P: plant(P) -> eats(A,P)) | \
             (forall B: animal(B) & smaller(B,A) & (exists P2: plant(P2) & eats(B,P2)) -> eats(A,B))",
            // Negated conclusion: no animal eats a grain-eating animal.
            "forall A, B, G: animal(A) & animal(B) & grain(G) & eats(B,G) -> ~eats(A,B)",
        ],
        Expectation::Unsatisfiable,
        3,
    )
}

/// Pigeonhole principle: `n+1` pigeons into `n` holes, unsatisfiable.
/// Classic propositional refutation benchmark; sizes 2 and 3 are used in
/// the suite.
pub fn pigeonhole(n: usize) -> Problem {
    let mut constraints: Vec<String> = Vec::new();
    // Every pigeon is in some hole.
    for p in 0..=n {
        let alts: Vec<String> = (0..n).map(|h| format!("in(p{p}, h{h})")).collect();
        constraints.push(alts.join(" | "));
    }
    // No two pigeons share a hole.
    for p1 in 0..=n {
        for p2 in (p1 + 1)..=n {
            for h in 0..n {
                constraints.push(format!("~(in(p{p1}, h{h}) & in(p{p2}, h{h}))"));
            }
        }
    }
    let leaked: Vec<&'static str> = constraints
        .into_iter()
        .map(|s| &*Box::leak(s.into_boxed_str()))
        .collect();
    let name: &'static str = Box::leak(format!("pigeonhole-{n}").into_boxed_str());
    Problem::build(name, &[], &leaked, Expectation::Unsatisfiable, 0)
}

/// Graph 3-coloring of a cycle of length `n` — always satisfiable with 3
/// colors, and a representative finite-model-generation workload with
/// heavy case analysis.
pub fn cycle_coloring(n: usize) -> Problem {
    let mut constraints: Vec<String> = Vec::new();
    let nodes: Vec<String> = (0..n).map(|i| format!("node(v{i})")).collect();
    constraints.push(nodes.join(" & "));
    let edges: Vec<String> = (0..n)
        .map(|i| format!("adj(v{i}, v{})", (i + 1) % n))
        .collect();
    constraints.push(edges.join(" & "));
    constraints.push("forall X: node(X) -> color(X, r) | color(X, g) | color(X, b)".to_string());
    constraints.push("forall X, Y, C: adj(X,Y) & color(X,C) & color(Y,C) -> false".to_string());
    let leaked: Vec<&'static str> = constraints
        .into_iter()
        .map(|s| &*Box::leak(s.into_boxed_str()))
        .collect();
    let name: &'static str = Box::leak(format!("cycle-3coloring-{n}").into_boxed_str());
    Problem::build(name, &[], &leaked, Expectation::Satisfiable, 0)
}

/// A functional-dependency / inclusion-dependency mix over an
/// employee–department schema; a small finite model exists.
pub fn dependency_mix() -> Problem {
    Problem::build(
        "dependency-mix",
        &[],
        &[
            // Inclusion dependencies.
            "forall X, Y: works_in(X,Y) -> dept(Y)",
            "forall X, Y: works_in(X,Y) -> emp(X)",
            // Key-style dependency via a same-value predicate.
            "forall X, Y, Z: works_in(X,Y) & works_in(X,Z) -> eq(Y,Z)",
            "forall X, Y: eq(X,Y) -> eq(Y,X)",
            // Totality.
            "forall X: emp(X) -> (exists Y: works_in(X,Y))",
            "exists X: emp(X)",
            // eq only relates departments here.
            "forall X, Y: eq(X,Y) -> dept(X)",
        ],
        Expectation::Satisfiable,
        3,
    )
}

/// An axiom of infinity: an irreflexive transitive successor chain. Only
/// infinite models; the checker must return Unknown (§4: both properties
/// are only semi-decidable — here the budget runs out instead of running
/// forever).
pub fn axiom_of_infinity() -> Problem {
    Problem::build(
        "axiom-of-infinity",
        &[],
        &[
            "exists X: elem(X)",
            "forall X: elem(X) -> (exists Y: elem(Y) & succ(X,Y))",
            "forall X, Y: succ(X,Y) -> less(X,Y)",
            "forall X, Y, Z: less(X,Y) & less(Y,Z) -> less(X,Z)",
            "forall X: less(X,X) -> false",
        ],
        Expectation::Infinite,
        4,
    )
}

/// The full run of propositional Pelletier problems 1–17, encoded as
/// satisfiability problems of the *negated* theorem — all unsatisfiable.
pub fn pelletier_propositional() -> Vec<Problem> {
    let negated_theorems: &[(&'static str, &'static str)] = &[
        // P1: (p → q) ↔ (¬q → ¬p)
        ("pelletier-1", "~((p -> q) <-> (~q -> ~p))"),
        // P2: ¬¬p ↔ p
        ("pelletier-2", "~(~ ~p <-> p)"),
        // P3: ¬(p → q) → (q → p)
        ("pelletier-3", "~(~(p -> q) -> (q -> p))"),
        // P4: (¬p → q) ↔ (¬q → p)
        ("pelletier-4", "~((~p -> q) <-> (~q -> p))"),
        // P5: ((p ∨ q) → (p ∨ r)) → (p ∨ (q → r))
        ("pelletier-5", "~(((p | q) -> (p | r)) -> (p | (q -> r)))"),
        // P6: tertium non datur
        ("pelletier-6", "~(p | ~p)"),
        // P7: p ∨ ¬¬¬p
        ("pelletier-7", "~(p | ~ ~ ~p)"),
        // P8: Peirce's law ((p → q) → p) → p
        ("pelletier-8", "~(((p -> q) -> p) -> p)"),
        // P9: ((p∨q) ∧ (¬p∨q) ∧ (p∨¬q)) → ¬(¬p∨¬q)
        (
            "pelletier-9",
            "~(((p | q) & (~p | q) & (p | ~q)) -> ~(~p | ~q))",
        ),
        // P10: with premises q→r, r→p∧q, p→q∨r: p ↔ q
        (
            "pelletier-10",
            "~(((q -> r) & (r -> (p & q)) & (p -> (q | r))) -> (p <-> q))",
        ),
        // P11: p ↔ p
        ("pelletier-11", "~(p <-> p)"),
        // P12: ((p ↔ q) ↔ r) ↔ (p ↔ (q ↔ r))
        ("pelletier-12", "~(((p <-> q) <-> r) <-> (p <-> (q <-> r)))"),
        // P13: ∨ distributes over ∧
        ("pelletier-13", "~((p | (q & r)) <-> ((p | q) & (p | r)))"),
        // P14: (p ↔ q) ↔ ((q ∨ ¬p) ∧ (¬q ∨ p))
        ("pelletier-14", "~((p <-> q) <-> ((q | ~p) & (~q | p)))"),
        // P15: (p → q) ↔ (¬p ∨ q)
        ("pelletier-15", "~((p -> q) <-> (~p | q))"),
        // P16: (p → q) ∨ (q → p)
        ("pelletier-16", "~((p -> q) | (q -> p))"),
        // P17: ((p ∧ (q → r)) → s) ↔ ((¬p ∨ q ∨ s) ∧ (¬p ∨ ¬r ∨ s))
        (
            "pelletier-17",
            "~(((p & (q -> r)) -> s) <-> ((~p | q | s) & (~p | ~r | s)))",
        ),
    ];
    negated_theorems
        .iter()
        .map(|(name, f)| Problem::build(name, &[], &[f], Expectation::Unsatisfiable, 0))
        .collect()
}

/// Latin-square existence of order `n`: an `n × n` grid over `n`
/// symbols, each row and column a permutation. Satisfiable for every
/// `n ≥ 1`; the case analysis grows steeply with `n` — a finite-model
/// workload in the spirit of the era's quasigroup benchmarks.
pub fn latin_square(n: usize) -> Problem {
    let mut constraints: Vec<String> = Vec::new();
    constraints.push(
        (0..n)
            .map(|i| format!("row(r{i})"))
            .collect::<Vec<_>>()
            .join(" & "),
    );
    constraints.push(
        (0..n)
            .map(|i| format!("col(c{i})"))
            .collect::<Vec<_>>()
            .join(" & "),
    );
    let mut diffs: Vec<String> = Vec::new();
    for kind in ["r", "c", "s"] {
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    diffs.push(format!("diff({kind}{i}, {kind}{j})"));
                }
            }
        }
    }
    if !diffs.is_empty() {
        constraints.push(diffs.join(" & "));
    }
    // Each cell holds at least one symbol …
    let symbols: Vec<String> = (0..n).map(|s| format!("entry(R, C, s{s})")).collect();
    constraints.push(format!(
        "forall R, C: row(R) & col(C) -> {}",
        symbols.join(" | ")
    ));
    // … and at most one; rows and columns never repeat a symbol.
    constraints
        .push("forall R, C, S, T: entry(R, C, S) & entry(R, C, T) & diff(S, T) -> false".into());
    constraints
        .push("forall R, C, D, S: entry(R, C, S) & entry(R, D, S) & diff(C, D) -> false".into());
    constraints
        .push("forall R, Q, C, S: entry(R, C, S) & entry(Q, C, S) & diff(R, Q) -> false".into());
    let leaked: Vec<&'static str> = constraints
        .into_iter()
        .map(|s| &*Box::leak(s.into_boxed_str()))
        .collect();
    let name: &'static str = Box::leak(format!("latin-square-{n}").into_boxed_str());
    Problem::build(name, &[], &leaked, Expectation::Satisfiable, 0)
}

/// `n`-queens as a constraint-satisfiability problem over named squares
/// (one disjunctive placement constraint per row; column and diagonal
/// attacks precomputed as facts, so the encoding is domain-closed
/// without equality axioms). Unsatisfiable for `n ∈ {2, 3}`,
/// satisfiable from `n = 4` — one generator exercising both outcomes.
pub fn queens(n: usize) -> Problem {
    let expected = if n == 1 || n >= 4 {
        Expectation::Satisfiable
    } else {
        Expectation::Unsatisfiable
    };
    let mut constraints: Vec<String> = Vec::new();
    // Row inequalities (for the shared-column constraint).
    let mut diffs: Vec<String> = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                diffs.push(format!("diff(r{i}, r{j})"));
            }
        }
    }
    if !diffs.is_empty() {
        constraints.push(diffs.join(" & "));
    }
    // Diagonal attacks between distinct squares.
    let mut diag: Vec<String> = Vec::new();
    for r1 in 0..n {
        for c1 in 0..n {
            for r2 in 0..n {
                for c2 in 0..n {
                    if r1 != r2 && r1.abs_diff(r2) == c1.abs_diff(c2) {
                        diag.push(format!("dattack(r{r1}, c{c1}, r{r2}, c{c2})"));
                    }
                }
            }
        }
    }
    if !diag.is_empty() {
        constraints.push(diag.join(" & "));
    }
    // One queen somewhere in each row …
    for r in 0..n {
        let alts: Vec<String> = (0..n).map(|c| format!("queen(r{r}, c{c})")).collect();
        constraints.push(alts.join(" | "));
    }
    // … no shared columns, no diagonal attacks.
    constraints.push("forall R, Q, C: queen(R, C) & queen(Q, C) & diff(R, Q) -> false".into());
    constraints
        .push("forall R, C, Q, D: queen(R, C) & queen(Q, D) & dattack(R, C, Q, D) -> false".into());
    let leaked: Vec<&'static str> = constraints
        .into_iter()
        .map(|s| &*Box::leak(s.into_boxed_str()))
        .collect();
    let name: &'static str = Box::leak(format!("queens-{n}").into_boxed_str());
    Problem::build(name, &[], &leaked, expected, 0)
}

/// A database schema whose constraints admit no state at all: managers
/// must be employees, managers and employees are disjoint, and a manager
/// must exist. The kind of contradiction §4 exists to catch when a
/// constraint set is edited.
pub fn disjoint_hierarchy() -> Problem {
    Problem::build(
        "disjoint-hierarchy",
        &[],
        &[
            "forall X: manager(X) -> emp(X)",
            "forall X: manager(X) & emp(X) -> false",
            "exists X: manager(X)",
        ],
        Expectation::Unsatisfiable,
        1,
    )
}

/// A cyclic inclusion-dependency schema (persons ↔ households) with
/// totality on both sides; a two-fact model closes the cycle.
pub fn household_cycle() -> Problem {
    Problem::build(
        "household-cycle",
        &[],
        &[
            "forall X, Y: member_of(X, Y) -> person(X)",
            "forall X, Y: member_of(X, Y) -> household(Y)",
            "forall X: person(X) -> (exists Y: member_of(X, Y))",
            "forall Y: household(Y) -> (exists X: person(X) & head_of(X, Y))",
            "forall X, Y: head_of(X, Y) -> member_of(X, Y)",
            "exists X: person(X)",
        ],
        Expectation::Satisfiable,
        3,
    )
}

/// The whole suite (used by tests and the `steamroller` example).
pub fn suite() -> Vec<Problem> {
    let mut out = vec![
        paper_example(),
        paper_example_repaired(),
        steamroller(),
        pigeonhole(2),
        pigeonhole(3),
        cycle_coloring(3),
        cycle_coloring(4),
        dependency_mix(),
        disjoint_hierarchy(),
        household_cycle(),
        latin_square(2),
        latin_square(3),
        queens(3),
        queens(4),
        axiom_of_infinity(),
    ];
    out.extend(pelletier_propositional());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SatOutcome;

    fn outcome_matches(p: &Problem) -> Result<(), String> {
        let report = p.checker().check();
        let ok = match p.expected {
            Expectation::Satisfiable => report.outcome.is_satisfiable(),
            Expectation::Unsatisfiable => report.outcome == SatOutcome::Unsatisfiable,
            Expectation::Infinite => matches!(report.outcome, SatOutcome::Unknown { .. }),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: expected {:?}, got {:?}",
                p.name, p.expected, report.outcome
            ))
        }
    }

    #[test]
    fn paper_example_is_unsatisfiable() {
        outcome_matches(&paper_example()).unwrap();
    }

    #[test]
    fn repaired_example_has_finite_model() {
        let p = paper_example_repaired();
        let report = p.checker().check();
        match &report.outcome {
            SatOutcome::Satisfiable { model, .. } => {
                assert!(model
                    .iter()
                    .any(|f| f.pred == uniform_logic::Sym::new("leads")));
            }
            other => panic!("expected model, got {other:?}"),
        }
    }

    #[test]
    fn paper_mode_also_solves_both_examples() {
        // The as-published options (no domain enumeration) handle §5.
        let rep = paper_example().checker_with(SatOptions::paper()).check();
        assert_eq!(rep.outcome, SatOutcome::Unsatisfiable);
        let rep2 = paper_example_repaired()
            .checker_with(SatOptions::paper())
            .check();
        assert!(rep2.outcome.is_satisfiable(), "{:?}", rep2.outcome);
    }

    #[test]
    fn steamroller_refuted() {
        outcome_matches(&steamroller()).unwrap();
    }

    #[test]
    fn pigeonhole_small_sizes() {
        outcome_matches(&pigeonhole(2)).unwrap();
        outcome_matches(&pigeonhole(3)).unwrap();
    }

    #[test]
    fn colorings_satisfiable() {
        outcome_matches(&cycle_coloring(3)).unwrap();
        outcome_matches(&cycle_coloring(5)).unwrap();
    }

    #[test]
    fn dependency_mix_small_model() {
        let p = dependency_mix();
        let report = p.checker().check();
        match &report.outcome {
            SatOutcome::Satisfiable { explicit, .. } => {
                assert!(
                    explicit.len() <= 6,
                    "model unexpectedly large: {explicit:?}"
                );
            }
            other => panic!("expected model, got {other:?}"),
        }
    }

    #[test]
    fn infinity_detected_as_unknown() {
        outcome_matches(&axiom_of_infinity()).unwrap();
    }

    #[test]
    fn pelletier_propositional_all_refuted() {
        for p in pelletier_propositional() {
            outcome_matches(&p).unwrap();
        }
    }

    #[test]
    fn latin_squares_exist() {
        outcome_matches(&latin_square(1)).unwrap();
        outcome_matches(&latin_square(2)).unwrap();
        outcome_matches(&latin_square(3)).unwrap();
    }

    #[test]
    fn latin_square_model_is_a_latin_square() {
        let p = latin_square(2);
        let report = p.checker().check();
        match &report.outcome {
            SatOutcome::Satisfiable { model, .. } => {
                let entries: Vec<_> = model
                    .iter()
                    .filter(|f| f.pred == uniform_logic::Sym::new("entry"))
                    .collect();
                assert_eq!(entries.len(), 4, "2x2 grid fully filled: {entries:?}");
            }
            other => panic!("expected model, got {other:?}"),
        }
    }

    #[test]
    fn queens_small_boards() {
        outcome_matches(&queens(1)).unwrap();
        outcome_matches(&queens(2)).unwrap();
        outcome_matches(&queens(3)).unwrap();
        outcome_matches(&queens(4)).unwrap();
    }

    #[test]
    fn queens_4_model_has_four_queens() {
        let report = queens(4).checker().check();
        match &report.outcome {
            SatOutcome::Satisfiable { model, .. } => {
                let queens: Vec<_> = model
                    .iter()
                    .filter(|f| f.pred == uniform_logic::Sym::new("queen"))
                    .collect();
                assert_eq!(queens.len(), 4, "{queens:?}");
            }
            other => panic!("expected model, got {other:?}"),
        }
    }

    #[test]
    fn schema_problems() {
        outcome_matches(&disjoint_hierarchy()).unwrap();
        outcome_matches(&household_cycle()).unwrap();
    }

    #[test]
    fn household_cycle_model_is_small() {
        let report = household_cycle().checker().check();
        match &report.outcome {
            SatOutcome::Satisfiable { explicit, .. } => {
                assert!(explicit.len() <= 4, "{explicit:?}");
            }
            other => panic!("expected model, got {other:?}"),
        }
    }

    #[test]
    fn suite_runs_clean() {
        for p in suite() {
            outcome_matches(&p).unwrap();
        }
    }
}
