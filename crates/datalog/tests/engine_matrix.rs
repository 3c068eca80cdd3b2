//! Engine-agreement matrix: for a catalogue of programs, the overlay
//! engine (goal-directed `new` simulation over the model of the old
//! state) must agree with brute-force recomputation of the canonical
//! model for every single-fact update, every repair-shaped two-fact
//! update (one insertion plus one deletion) and every ground goal over
//! a small constant grid.

use uniform_datalog::{FactSet, Interp, Model, OverlayEngine, RuleSet};
use uniform_logic::{parse_fact, parse_rule, Fact, Rule};

struct Program {
    name: &'static str,
    facts: Vec<Fact>,
    rules: RuleSet,
    preds: Vec<(&'static str, usize)>,
}

fn program(
    name: &'static str,
    facts: &[&str],
    rules: &[&str],
    preds: &[(&'static str, usize)],
) -> Program {
    Program {
        name,
        facts: facts.iter().map(|f| parse_fact(f).unwrap()).collect(),
        rules: RuleSet::new(
            rules
                .iter()
                .map(|r| parse_rule(r).unwrap())
                .collect::<Vec<Rule>>(),
        )
        .unwrap(),
        preds: preds.to_vec(),
    }
}

fn catalogue() -> Vec<Program> {
    vec![
        program(
            "flat",
            &["l(a,b)."],
            &["m(X,Y) :- l(X,Y)."],
            &[("l", 2), ("m", 2)],
        ),
        program(
            "join",
            &["q(a,b).", "p(b,c)."],
            &["r(X) :- q(X,Y), p(Y,Z)."],
            &[("q", 2), ("p", 2), ("r", 1)],
        ),
        program(
            "negation",
            &["e(a).", "e(b).", "g(b)."],
            &["u(X) :- e(X), not g(X)."],
            &[("e", 1), ("g", 1), ("u", 1)],
        ),
        program(
            "two-strata",
            &["e(a).", "g(a).", "h(b)."],
            &["u(X) :- e(X), not g(X).", "v(X) :- h(X), not u(X)."],
            &[("e", 1), ("g", 1), ("h", 1), ("u", 1), ("v", 1)],
        ),
        program(
            "recursive",
            &["edge(a,b).", "edge(b,c)."],
            &["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), edge(Y,Z)."],
            &[("edge", 2), ("tc", 2)],
        ),
        program(
            "mixed-explicit-derived",
            &["m(a,b).", "l(c,d)."],
            &["m(X,Y) :- l(X,Y)."],
            &[("l", 2), ("m", 2)],
        ),
    ]
}

fn ground_goals(preds: &[(&str, usize)]) -> Vec<Fact> {
    let consts = ["a", "b", "c", "d"];
    let mut out = Vec::new();
    for &(p, arity) in preds {
        match arity {
            1 => {
                for c in consts {
                    out.push(Fact::parse_like(p, &[c]));
                }
            }
            2 => {
                for c1 in consts {
                    for c2 in consts {
                        out.push(Fact::parse_like(p, &[c1, c2]));
                    }
                }
            }
            _ => unreachable!(),
        }
    }
    out
}

/// Every probe holds in the overlay of `(adds, dels)` over `model` iff
/// it holds in the recomputed model of the applied EDB.
fn assert_overlay_agrees(
    prog: &Program,
    edb: &FactSet,
    model: &Model,
    probes: &[Fact],
    adds: &[Fact],
    dels: &[Fact],
) {
    // Ground truth: apply and recompute.
    let mut applied = edb.clone();
    for f in adds {
        applied.insert(f);
    }
    for f in dels {
        applied.remove(f);
    }
    let truth = Model::compute(&applied, &prog.rules);
    // Simulation: overlay engine over the old state's model.
    let engine = OverlayEngine::over_model(model, edb, &prog.rules, adds.to_vec(), dels.to_vec());
    for probe in probes {
        assert_eq!(
            engine.holds(probe),
            truth.contains(probe),
            "{}: insert {adds:?}, delete {dels:?}, probe {probe}",
            prog.name,
        );
    }
}

#[test]
fn overlay_engine_agrees_with_recomputation_everywhere() {
    for prog in catalogue() {
        let edb = FactSet::from_facts(prog.facts.iter().cloned());
        let model = Model::compute(&edb, &prog.rules);
        let goals = ground_goals(&prog.preds);
        // Updates: insert/delete every EDB-shaped goal.
        for goal in &goals {
            let one = std::slice::from_ref(goal);
            assert_overlay_agrees(&prog, &edb, &model, &goals, one, &[]);
            assert_overlay_agrees(&prog, &edb, &model, &goals, &[], one);
        }
        // Repair-shaped updates: one insertion plus one deletion.
        for added in &goals {
            for removed in goals.iter().filter(|g| *g != added) {
                let (adds, dels) = (std::slice::from_ref(added), std::slice::from_ref(removed));
                assert_overlay_agrees(&prog, &edb, &model, &goals, adds, dels);
            }
        }
    }
}

#[test]
fn overlay_scans_agree_with_recomputation() {
    for prog in catalogue() {
        let edb = FactSet::from_facts(prog.facts.iter().cloned());
        let new_fact = {
            // One representative insertion per program: the first goal.
            let goals = ground_goals(&prog.preds);
            goals.into_iter().next().unwrap()
        };
        let model = Model::compute(&edb, &prog.rules);
        let engine =
            OverlayEngine::over_model(&model, &edb, &prog.rules, vec![new_fact.clone()], vec![]);
        let mut applied = edb.clone();
        applied.insert(&new_fact);
        let truth = Model::compute(&applied, &prog.rules);
        for &(pred, arity) in &prog.preds {
            let pattern = vec![None; arity];
            let mut from_engine: Vec<Vec<uniform_logic::Sym>> = Vec::new();
            engine.scan(uniform_logic::Sym::new(pred), &pattern, &mut |t| {
                from_engine.push(t.to_vec());
                true
            });
            let mut from_truth: Vec<Vec<uniform_logic::Sym>> = Vec::new();
            truth.scan(uniform_logic::Sym::new(pred), &pattern, &mut |t| {
                from_truth.push(t.to_vec());
                true
            });
            from_engine.sort();
            from_truth.sort();
            assert_eq!(from_engine, from_truth, "{}: scan of {pred}", prog.name);
        }
    }
}

#[test]
fn model_recomputation_is_idempotent() {
    for prog in catalogue() {
        let edb = FactSet::from_facts(prog.facts.iter().cloned());
        let m1 = Model::compute(&edb, &prog.rules);
        let m2 = Model::compute(&edb, &prog.rules);
        let mut f1: Vec<Fact> = m1.iter().collect();
        let mut f2: Vec<Fact> = m2.iter().collect();
        f1.sort();
        f2.sort();
        assert_eq!(f1, f2, "{}", prog.name);
    }
}
