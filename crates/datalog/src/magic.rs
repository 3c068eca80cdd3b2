//! Magic-sets rewriting: goal-directed bottom-up evaluation.
//!
//! The paper's meta-evaluators (`new`, `delta`) assume "a database
//! query-answering system" able to answer goals over recursive rules
//! (§1, citing VIEI 87). The [`crate::topdown`] overlay engine fills
//! that role operationally; this module provides the classical
//! *compilation* alternative: rewrite the program so that bottom-up
//! materialization only derives facts relevant to a given goal.
//!
//! For a goal `p(c, X)` the rewrite specializes every reachable rule by
//! *adornment* (which argument positions are bound) using left-to-right
//! sideways information passing, and guards each adorned rule with a
//! `magic` predicate that collects the bindings actually demanded.
//! Materializing the rewritten program from the EDB plus the single
//! magic seed fact derives the goal's answers — and, on selective
//! goals, a small fraction of the full canonical model.
//!
//! Scope: the subprogram reachable from the goal must be free of
//! negation on derived predicates (negative literals on base relations
//! are kept verbatim). This matches the module's role here — the goals
//! `new`/`delta` issue during integrity checking are against positive
//! residues; general stratified evaluation stays with [`crate::model`].

use crate::depgraph::DepGraph;
use crate::model::Model;
use crate::program::RuleSet;
use crate::store::FactSet;
use std::collections::HashSet;
use std::fmt;
use uniform_logic::{match_atom, Atom, Fact, Literal, Rule, Sym, Term};

/// Why a program cannot be magic-rewritten for a goal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MagicError {
    /// A rule reachable from the goal negates a derived predicate.
    NegationReachable { rule: String, pred: Sym },
}

impl fmt::Display for MagicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MagicError::NegationReachable { rule, pred } => write!(
                f,
                "magic rewriting requires a negation-free reachable subprogram; \
                 rule `{rule}` negates derived predicate {pred}"
            ),
        }
    }
}

impl std::error::Error for MagicError {}

/// A magic-rewritten program for one goal.
///
/// The rewrite depends only on the goal's *adornment* (which argument
/// positions are bound), never on the bound constants themselves —
/// those flow in through the magic seed. A `MagicProgram` is therefore
/// reusable across every goal with the same binding shape, re-seeded
/// per goal by [`answer_prepared`].
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten rules (adorned + magic); empty for goals over base
    /// relations.
    pub rules: RuleSet,
    /// Magic seed facts (one, for derived goals) — for the goal the
    /// program was rewritten from. [`answer_prepared`] recomputes the
    /// seed from the actual goal instead.
    pub seeds: Vec<Fact>,
    /// The goal re-targeted at its adorned predicate (equal to the
    /// original goal when the goal predicate is a base relation).
    pub answer_goal: Atom,
    /// The goal as given.
    pub original_goal: Atom,
    /// The goal's adornment: `true` at argument positions that were
    /// bound (constants) in the rewritten-for goal. A later goal is
    /// compatible iff it is ground exactly at these positions.
    pub adornment: Vec<bool>,
    /// Number of distinct (predicate, adornment) pairs specialized.
    pub adorned_predicates: usize,
    /// Number of magic guard rules generated.
    pub magic_rules: usize,
}

impl MagicProgram {
    /// Is `goal` answerable through this program — same predicate,
    /// constants exactly at the adornment's bound positions?
    pub fn compatible_with(&self, goal: &Atom) -> bool {
        goal.pred == self.original_goal.pred
            && goal.args.len() == self.adornment.len()
            && goal
                .args
                .iter()
                .zip(&self.adornment)
                .all(|(t, &b)| t.is_const() == b)
    }
}

/// Result of answering a goal through the rewrite, with the derivation
/// volume exposed.
#[derive(Clone, Debug)]
pub struct MagicAnswers {
    /// Ground instances of the original goal.
    pub answers: Vec<Fact>,
    /// Facts materialized by the rewritten program (magic + adorned),
    /// not counting the EDB.
    pub derived_facts: usize,
}

fn adorn_string(ad: &[bool]) -> String {
    ad.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

fn adorned_sym(pred: Sym, ad: &[bool]) -> Sym {
    Sym::new(&format!("{pred}#{}", adorn_string(ad)))
}

fn magic_sym(pred: Sym, ad: &[bool]) -> Sym {
    Sym::new(&format!("m#{pred}#{}", adorn_string(ad)))
}

/// Argument terms at the bound positions of `ad`.
fn bound_args(atom: &Atom, ad: &[bool]) -> Vec<Term> {
    atom.args
        .iter()
        .zip(ad)
        .filter_map(|(&t, &b)| b.then_some(t))
        .collect()
}

/// Rewrite `rules` for `goal`.
///
/// Bound positions of the goal are those holding constants. The rewrite
/// follows the textbook generalized-magic-sets construction with a
/// left-to-right sideways-information-passing strategy over the safe
/// body order (positives first) the rules are already kept in.
pub fn magic_rewrite(rules: &RuleSet, goal: &Atom) -> Result<MagicProgram, MagicError> {
    let graph = rules.graph();
    let goal_ad: Vec<bool> = goal.args.iter().map(|t| t.is_const()).collect();
    if !graph.is_idb(goal.pred) {
        return Ok(MagicProgram {
            rules: RuleSet::empty(),
            seeds: Vec::new(),
            answer_goal: goal.clone(),
            original_goal: goal.clone(),
            adornment: goal_ad,
            adorned_predicates: 0,
            magic_rules: 0,
        });
    }
    check_negation_free(rules, graph, goal.pred)?;

    let mut out: Vec<Rule> = Vec::new();
    let mut magic_rules = 0usize;
    let mut seen: HashSet<(Sym, Vec<bool>)> = HashSet::new();
    let mut work: Vec<(Sym, Vec<bool>)> = Vec::new();
    seen.insert((goal.pred, goal_ad.clone()));
    work.push((goal.pred, goal_ad.clone()));

    while let Some((pred, ad)) = work.pop() {
        // Derived predicates may also hold explicit facts (§2 allows a
        // predicate to be both stored and derived); import them under
        // the adornment. In the rewritten program the *original*
        // predicate has no rules, so this body literal reads the EDB.
        let vars: Vec<Term> = (0..ad.len()).map(|_| Term::Var(Sym::fresh("_M"))).collect();
        let import_head = Atom::new(adorned_sym(pred, &ad), vars.clone());
        let import_guard = Literal::new(
            true,
            Atom::new(magic_sym(pred, &ad), bound_args(&import_head, &ad)),
        );
        let import_body = vec![import_guard, Literal::new(true, Atom::new(pred, vars))];
        out.push(
            Rule::new(import_head, import_body)
                .expect("import rule is range-restricted by construction"),
        );
        for (_, rule) in rules.rules_for(pred) {
            let mut bound: HashSet<Sym> = rule
                .head
                .args
                .iter()
                .zip(&ad)
                .filter(|&(_, &b)| b)
                .filter_map(|(&t, _)| t.as_var())
                .collect();
            let guard = Literal::new(
                true,
                Atom::new(magic_sym(pred, &ad), bound_args(&rule.head, &ad)),
            );
            let mut new_body: Vec<Literal> = vec![guard];
            for lit in &rule.body {
                if lit.positive && graph.is_idb(lit.atom.pred) {
                    let sub_ad: Vec<bool> = lit
                        .atom
                        .args
                        .iter()
                        .map(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                        })
                        .collect();
                    // Demand: whenever the prefix holds, the subgoal is
                    // asked with these bindings.
                    let magic_head = Atom::new(
                        magic_sym(lit.atom.pred, &sub_ad),
                        bound_args(&lit.atom, &sub_ad),
                    );
                    out.push(
                        Rule::new(magic_head, new_body.clone())
                            .expect("magic rule is range-restricted by construction"),
                    );
                    magic_rules += 1;
                    if seen.insert((lit.atom.pred, sub_ad.clone())) {
                        work.push((lit.atom.pred, sub_ad.clone()));
                    }
                    new_body.push(Literal::new(
                        true,
                        Atom::new(adorned_sym(lit.atom.pred, &sub_ad), lit.atom.args.clone()),
                    ));
                    bound.extend(lit.atom.vars());
                } else {
                    new_body.push(lit.clone());
                    if lit.positive {
                        bound.extend(lit.atom.vars());
                    }
                }
            }
            let head = Atom::new(adorned_sym(pred, &ad), rule.head.args.clone());
            out.push(Rule::new(head, new_body).expect("adorned rule is range-restricted"));
        }
    }

    let seed = Fact {
        pred: magic_sym(goal.pred, &goal_ad),
        args: goal.args.iter().filter_map(|t| t.as_const()).collect(),
    };
    Ok(MagicProgram {
        rules: RuleSet::new(out).expect("rewritten program is positive hence stratified"),
        seeds: vec![seed],
        answer_goal: Atom::new(adorned_sym(goal.pred, &goal_ad), goal.args.clone()),
        original_goal: goal.clone(),
        adornment: goal_ad,
        adorned_predicates: seen.len(),
        magic_rules,
    })
}

/// Answer `goal` against `edb` through an already-rewritten
/// [`MagicProgram`] — the execution half of a magic plan. The
/// rewrite is constant-free (see [`MagicProgram`]), so the same program
/// answers every goal with its binding shape; only the seed fact and
/// the answer filter depend on the actual constants.
///
/// # Panics
/// When `goal` is not [`MagicProgram::compatible_with`] the program
/// (different predicate, arity, or binding shape).
pub fn answer_prepared(edb: &FactSet, mp: &MagicProgram, goal: &Atom) -> MagicAnswers {
    assert!(
        mp.compatible_with(goal),
        "goal {goal} incompatible with magic program for {}",
        mp.original_goal
    );
    let mut answers = Vec::new();
    if mp.rules.is_empty() {
        // Base-relation goal: scan the EDB directly.
        let bound: Vec<Option<Sym>> = goal.args.iter().map(|t| t.as_const()).collect();
        if let Some(rel) = edb.relation(goal.pred) {
            rel.scan(&bound, &mut |args| {
                let f = Fact {
                    pred: goal.pred,
                    args: args.to_vec(),
                };
                if match_atom(goal, &f).is_some() {
                    answers.push(f);
                }
                true
            });
        }
        return MagicAnswers {
            answers,
            derived_facts: 0,
        };
    }

    let mut seeded = edb.clone();
    seeded.insert(&Fact {
        pred: magic_sym(goal.pred, &mp.adornment),
        args: goal.args.iter().filter_map(|t| t.as_const()).collect(),
    });
    let model = Model::compute(&seeded, &mp.rules);
    let derived_facts = model.len().saturating_sub(seeded.len());
    let answer_goal = Atom::new(adorned_sym(goal.pred, &mp.adornment), goal.args.clone());
    let bound: Vec<Option<Sym>> = answer_goal.args.iter().map(|t| t.as_const()).collect();
    use crate::interp::Interp as _;
    model.scan(answer_goal.pred, &bound, &mut |args| {
        let f = Fact {
            pred: answer_goal.pred,
            args: args.to_vec(),
        };
        if match_atom(&answer_goal, &f).is_some() {
            answers.push(Fact {
                pred: goal.pred,
                args: f.args,
            });
        }
        true
    });
    MagicAnswers {
        answers,
        derived_facts,
    }
}

fn check_negation_free(rules: &RuleSet, graph: &DepGraph, from: Sym) -> Result<(), MagicError> {
    for pred in graph.reachable(from) {
        for (_, rule) in rules.rules_for(pred) {
            for lit in &rule.body {
                if !lit.positive && graph.is_idb(lit.atom.pred) {
                    return Err(MagicError::NegationReachable {
                        rule: rule.to_string(),
                        pred: lit.atom.pred,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Answer `goal` against `(edb, rules)` by magic rewriting +
/// materialization of the rewritten program.
pub fn answer_goal_magic(
    edb: &FactSet,
    rules: &RuleSet,
    goal: &Atom,
) -> Result<MagicAnswers, MagicError> {
    let mp = magic_rewrite(rules, goal)?;
    Ok(answer_prepared(edb, &mp, goal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn setup(src: &str) -> (FactSet, RuleSet) {
        let db = Database::parse(src).unwrap();
        (db.facts().clone(), db.rules().clone())
    }

    /// Oracle: answers by scanning the full canonical model.
    fn naive(edb: &FactSet, rules: &RuleSet, goal: &Atom) -> Vec<String> {
        let model = Model::compute(edb, rules);
        let mut out: Vec<String> = model
            .iter()
            .filter(|f| f.pred == goal.pred && match_atom(goal, f).is_some())
            .map(|f| f.to_string())
            .collect();
        out.sort();
        out
    }

    fn magic(edb: &FactSet, rules: &RuleSet, goal: &Atom) -> Vec<String> {
        let mut out: Vec<String> = answer_goal_magic(edb, rules, goal)
            .unwrap()
            .answers
            .iter()
            .map(|f| f.to_string())
            .collect();
        out.sort();
        out
    }

    const TC: &str = "
        edge(a, b). edge(b, c). edge(c, d). edge(x, y).
        tc(X, Y) :- edge(X, Y).
        tc(X, Z) :- edge(X, Y), tc(Y, Z).
    ";

    #[test]
    fn bound_free_goal_on_transitive_closure() {
        let (edb, rules) = setup(TC);
        let goal = Atom::parse_like("tc", &["a", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
        assert_eq!(
            magic(&edb, &rules, &goal),
            vec!["tc(a,b)", "tc(a,c)", "tc(a,d)"]
        );
    }

    #[test]
    fn magic_derives_less_than_full_materialization() {
        let (edb, rules) = setup(TC);
        let goal = Atom::parse_like("tc", &["x", "V"]);
        let result = answer_goal_magic(&edb, &rules, &goal).unwrap();
        assert_eq!(result.answers.len(), 1, "only tc(x,y)");
        let full = Model::compute(&edb, &rules).len() - edb.len();
        assert!(
            result.derived_facts < full,
            "magic {} >= full {full}",
            result.derived_facts
        );
    }

    #[test]
    fn free_free_goal_still_correct() {
        let (edb, rules) = setup(TC);
        let goal = Atom::parse_like("tc", &["U", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
    }

    #[test]
    fn fully_bound_goal() {
        let (edb, rules) = setup(TC);
        let yes = Atom::parse_like("tc", &["a", "d"]);
        assert_eq!(magic(&edb, &rules, &yes).len(), 1);
        let no = Atom::parse_like("tc", &["d", "a"]);
        assert!(magic(&edb, &rules, &no).is_empty());
    }

    #[test]
    fn cyclic_graph_terminates() {
        let (edb, rules) = setup(
            "
            edge(a, b). edge(b, a). edge(b, c).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
        ",
        );
        let goal = Atom::parse_like("tc", &["a", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
    }

    #[test]
    fn same_generation_bound_goal() {
        let (edb, rules) = setup(
            "
            parent(a, b). parent(a, c). parent(b, d). parent(c, e).
            sg(X, X) :- person(X).
            sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).
            person(a). person(b). person(c). person(d). person(e).
        ",
        );
        let goal = Atom::parse_like("sg", &["d", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
    }

    #[test]
    fn second_argument_bound() {
        let (edb, rules) = setup(TC);
        let goal = Atom::parse_like("tc", &["V", "d"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
    }

    #[test]
    fn repeated_variable_goal() {
        let (edb, rules) = setup(
            "
            edge(a, b). edge(b, a).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
        ",
        );
        // tc(V, V): loops a→b→a and b→a→b.
        let goal = Atom::parse_like("tc", &["V", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
        assert_eq!(magic(&edb, &rules, &goal), vec!["tc(a,a)", "tc(b,b)"]);
    }

    #[test]
    fn goal_over_base_relation() {
        let (edb, rules) = setup(TC);
        let goal = Atom::parse_like("edge", &["a", "V"]);
        let result = answer_goal_magic(&edb, &rules, &goal).unwrap();
        assert_eq!(result.answers.len(), 1);
        assert_eq!(result.derived_facts, 0);
    }

    #[test]
    fn goal_over_unknown_predicate_is_empty() {
        let (edb, rules) = setup(TC);
        let goal = Atom::parse_like("ghost", &["V"]);
        assert!(answer_goal_magic(&edb, &rules, &goal)
            .unwrap()
            .answers
            .is_empty());
    }

    #[test]
    fn negation_on_base_relations_allowed() {
        let (edb, rules) = setup(
            "
            emp(a). emp(b). absent(b).
            present(X) :- emp(X), not absent(X).
            senior_present(X) :- present(X), senior(X).
            senior(a).
        ",
        );
        let goal = Atom::parse_like("senior_present", &["V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
        assert_eq!(magic(&edb, &rules, &goal), vec!["senior_present(a)"]);
    }

    #[test]
    fn negation_on_derived_predicates_rejected() {
        let (edb, rules) = setup(
            "
            emp(a).
            works(X) :- contract(X).
            idle(X) :- emp(X), not works(X).
        ",
        );
        let goal = Atom::parse_like("idle", &["V"]);
        let err = answer_goal_magic(&edb, &rules, &goal).unwrap_err();
        assert!(matches!(err, MagicError::NegationReachable { .. }), "{err}");
        // But a goal that does not reach the negation is fine.
        let ok = Atom::parse_like("works", &["V"]);
        assert!(answer_goal_magic(&edb, &rules, &ok).is_ok());
    }

    #[test]
    fn nonlinear_recursion() {
        let (edb, rules) = setup(
            "
            edge(a, b). edge(b, c). edge(c, d).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), path(Y, Z).
        ",
        );
        let goal = Atom::parse_like("path", &["a", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
    }

    #[test]
    fn constants_inside_rule_bodies() {
        let (edb, rules) = setup(
            "
            likes(a, wine). likes(b, beer).
            winelover(X) :- likes(X, wine).
        ",
        );
        let goal = Atom::parse_like("winelover", &["V"]);
        assert_eq!(magic(&edb, &rules, &goal), vec!["winelover(a)"]);
    }

    #[test]
    fn constants_in_rule_heads() {
        let (edb, rules) = setup(
            "
            dept(d1). dept(d2).
            member(ghost, X) :- dept(X).
        ",
        );
        let goal = Atom::parse_like("member", &["ghost", "V"]);
        assert_eq!(magic(&edb, &rules, &goal), naive(&edb, &rules, &goal));
        let other = Atom::parse_like("member", &["real", "V"]);
        assert!(magic(&edb, &rules, &other).is_empty());
    }

    #[test]
    fn mutual_recursion() {
        let (edb, rules) = setup(
            "
            succ(z, one). succ(one, two). succ(two, three). succ(three, four).
            even(z).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
        ",
        );
        for pred in ["even", "odd"] {
            let goal = Atom::parse_like(pred, &["V"]);
            assert_eq!(
                magic(&edb, &rules, &goal),
                naive(&edb, &rules, &goal),
                "{pred}"
            );
        }
        let bound = Atom::parse_like("even", &["two"]);
        assert_eq!(magic(&edb, &rules, &bound).len(), 1);
    }

    #[test]
    fn prepared_program_reusable_across_constants() {
        let (edb, rules) = setup(TC);
        // Rewrite once for the `bf` shape, answer for several constants.
        let mp = magic_rewrite(&rules, &Atom::parse_like("tc", &["a", "V"])).unwrap();
        for start in ["a", "b", "x", "nowhere"] {
            let goal = Atom::parse_like("tc", &[start, "V"]);
            assert!(mp.compatible_with(&goal));
            let mut got: Vec<String> = answer_prepared(&edb, &mp, &goal)
                .answers
                .iter()
                .map(|f| f.to_string())
                .collect();
            got.sort();
            assert_eq!(got, naive(&edb, &rules, &goal), "start {start}");
        }
        // A differently-shaped goal is refused.
        assert!(!mp.compatible_with(&Atom::parse_like("tc", &["V", "d"])));
        assert!(!mp.compatible_with(&Atom::parse_like("edge", &["a", "V"])));
    }

    #[test]
    fn rewrite_shape_counters() {
        let (_, rules) = setup(TC);
        let goal = Atom::parse_like("tc", &["a", "V"]);
        let mp = magic_rewrite(&rules, &goal).unwrap();
        // tc^bf only: edge is EDB, and the recursive call re-binds the
        // first argument.
        assert_eq!(mp.adorned_predicates, 1);
        assert_eq!(mp.magic_rules, 1);
        assert_eq!(mp.seeds.len(), 1);
        assert_eq!(mp.seeds[0].to_string(), "m#tc#bf(a)");
    }
}
