//! Why-provenance: derivation trees for facts of the canonical model.
//!
//! When the checker rejects an update "via an induced update", the
//! natural follow-up question is *why that fact is derived at all*. This
//! module reconstructs a well-founded derivation tree: every internal
//! node is a rule application whose positive premises appeared strictly
//! earlier in the stratified fixpoint (so recursive programs yield
//! finite, non-circular explanations), and negative premises are
//! justified by absence (stratification guarantees the negated
//! predicate is settled in a lower stratum).

use crate::cq::solve_conjunction;
use crate::program::RuleSet;
use crate::store::FactSet;
use std::collections::HashMap;
use std::fmt;
use uniform_logic::{match_atom, Fact, Subst};

/// A well-founded justification of a model fact.
#[derive(Clone, Debug)]
pub enum Derivation {
    /// Stored in the EDB.
    Explicit(Fact),
    /// Derived by a rule application.
    Rule {
        /// The derived fact.
        fact: Fact,
        /// The rule, as printed.
        rule: String,
        /// Justifications of the positive body literals.
        premises: Vec<Derivation>,
        /// Negative body literals, true by absence.
        absent: Vec<Fact>,
    },
}

impl Derivation {
    /// The fact this derivation justifies.
    pub fn fact(&self) -> &Fact {
        match self {
            Derivation::Explicit(f) => f,
            Derivation::Rule { fact, .. } => fact,
        }
    }

    /// Number of rule applications in the tree.
    pub fn rule_applications(&self) -> usize {
        match self {
            Derivation::Explicit(_) => 0,
            Derivation::Rule { premises, .. } => {
                1 + premises
                    .iter()
                    .map(|p| p.rule_applications())
                    .sum::<usize>()
            }
        }
    }

    fn render(&self, indent: usize, out: &mut String) {
        use fmt::Write;
        let pad = "  ".repeat(indent);
        match self {
            Derivation::Explicit(f) => {
                let _ = writeln!(out, "{pad}{f}  [explicit]");
            }
            Derivation::Rule {
                fact,
                rule,
                premises,
                absent,
            } => {
                let _ = writeln!(out, "{pad}{fact}  [via {rule}]");
                for p in premises {
                    p.render(indent + 1, out);
                }
                for a in absent {
                    let _ = writeln!(out, "{}not {a}  [absent]", "  ".repeat(indent + 1));
                }
            }
        }
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(out.trim_end())
    }
}

/// Rank of a fact in the stratified fixpoint: `(stratum, iteration)`.
/// Positive premises of a valid derivation step have strictly smaller
/// rank, which is what makes explanations well-founded.
type Rank = (u32, u32);

/// Provenance index over one database state.
pub struct Provenance<'a> {
    edb: &'a FactSet,
    rules: &'a RuleSet,
    model: FactSet,
    ranks: HashMap<Fact, Rank>,
}

impl<'a> Provenance<'a> {
    /// Build the index by re-running the naive stratified fixpoint and
    /// recording each fact's first appearance.
    pub fn build(edb: &'a FactSet, rules: &'a RuleSet) -> Provenance<'a> {
        let graph = rules.graph();
        let mut model = edb.clone();
        let mut ranks: HashMap<Fact, Rank> = HashMap::new();
        for f in edb.iter() {
            ranks.insert(f, (0, 0));
        }
        let height = graph.height().max(1);
        for s in 0..height {
            let stratum_rules: Vec<_> = rules
                .rules()
                .iter()
                .filter(|r| graph.stratum(r.head.pred) == s)
                .collect();
            if stratum_rules.is_empty() {
                continue;
            }
            let mut round: u32 = 0;
            loop {
                round += 1;
                let mut fresh: Vec<Fact> = Vec::new();
                for rule in &stratum_rules {
                    solve_conjunction(&model, &rule.body, &mut Subst::new(), &mut |sub| {
                        if let Some(head) = sub.ground_atom(&rule.head) {
                            if !model.contains(&head) {
                                fresh.push(head);
                            }
                        }
                        true
                    });
                }
                if fresh.is_empty() {
                    break;
                }
                for f in fresh {
                    if model.insert(&f) {
                        ranks.insert(f, (s as u32 + 1, round));
                    }
                }
            }
        }
        Provenance {
            edb,
            rules,
            model,
            ranks,
        }
    }

    /// The materialized model the index was built over.
    pub fn model(&self) -> &FactSet {
        &self.model
    }

    /// A well-founded derivation of `fact`, or `None` if the fact is not
    /// in the canonical model.
    pub fn explain(&self, fact: &Fact) -> Option<Derivation> {
        if self.edb.contains(fact) {
            return Some(Derivation::Explicit(fact.clone()));
        }
        let &rank = self.ranks.get(fact)?;
        // `fact` is ground: each rule is matched as written.
        for (_, rule) in self.rules.rules_for(fact.pred) {
            let Some(binding) = match_atom(&rule.head, fact) else {
                continue;
            };
            let mut found: Option<(Vec<Fact>, Vec<Fact>)> = None;
            let mut sub = binding.clone();
            solve_conjunction(&self.model, &rule.body, &mut sub, &mut |s| {
                let mut premises = Vec::new();
                let mut absent = Vec::new();
                for lit in &rule.body {
                    let Some(ground) = s.ground_atom(&lit.atom) else {
                        return true; // not a usable solution
                    };
                    if lit.positive {
                        premises.push(ground);
                    } else {
                        absent.push(ground);
                    }
                }
                // Well-foundedness: every positive premise must appear
                // strictly earlier in the fixpoint.
                let well_founded = premises
                    .iter()
                    .all(|p| self.ranks.get(p).is_some_and(|&r| r < rank));
                if well_founded {
                    found = Some((premises, absent));
                    false // stop at the first valid support
                } else {
                    true
                }
            });
            if let Some((premises, absent)) = found {
                let sub_derivations: Option<Vec<Derivation>> =
                    premises.iter().map(|p| self.explain(p)).collect();
                // Premise ranks are strictly decreasing, so recursion
                // terminates; premises are model facts, so they explain.
                let premises = sub_derivations?;
                return Some(Derivation::Rule {
                    fact: fact.clone(),
                    rule: rule.to_string(),
                    premises,
                    absent,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use uniform_logic::parse_fact;

    fn prov(src: &str) -> (Database, ()) {
        (Database::parse(src).unwrap(), ())
    }

    fn explain(db: &Database, fact: &str) -> Option<Derivation> {
        let p = Provenance::build(db.facts(), db.rules());
        p.explain(&parse_fact(fact).unwrap())
    }

    #[test]
    fn explicit_facts_are_their_own_explanation() {
        let (db, _) = prov("p(a).");
        let d = explain(&db, "p(a)").unwrap();
        assert!(matches!(d, Derivation::Explicit(_)));
        assert_eq!(d.rule_applications(), 0);
    }

    #[test]
    fn chain_derivation() {
        let (db, _) = prov("b(X) :- a(X). c(X) :- b(X). a(x).");
        let d = explain(&db, "c(x)").unwrap();
        assert_eq!(d.rule_applications(), 2);
        let printed = d.to_string();
        assert!(printed.contains("c(x)"), "{printed}");
        assert!(printed.contains("[explicit]"), "{printed}");
    }

    #[test]
    fn negative_premises_reported_absent() {
        let (db, _) = prov("idle(X) :- emp(X), not works(X). emp(a).");
        let d = explain(&db, "idle(a)").unwrap();
        match &d {
            Derivation::Rule {
                premises, absent, ..
            } => {
                assert_eq!(premises.len(), 1);
                assert_eq!(absent.len(), 1);
                assert_eq!(absent[0].to_string(), "works(a)");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.to_string().contains("not works(a)  [absent]"));
    }

    #[test]
    fn recursive_derivations_are_finite() {
        let (db, _) = prov(
            "
            tc(X, Y) :- e(X, Y).
            tc(X, Z) :- tc(X, Y), e(Y, Z).
            e(a, b). e(b, c). e(c, a).
        ",
        );
        // tc(a,a) goes around the whole cycle; the tree must be finite
        // and well-founded.
        let d = explain(&db, "tc(a, a)").unwrap();
        assert!(d.rule_applications() >= 3, "{d}");
        // Every leaf is explicit.
        fn leaves_explicit(d: &Derivation) -> bool {
            match d {
                Derivation::Explicit(_) => true,
                Derivation::Rule { premises, .. } => premises.iter().all(leaves_explicit),
            }
        }
        assert!(leaves_explicit(&d), "{d}");
    }

    #[test]
    fn diamond_picks_a_valid_support() {
        let (db, _) = prov("w(X) :- l(X, Y). l(a, d1). l(a, d2).");
        let d = explain(&db, "w(a)").unwrap();
        assert_eq!(d.rule_applications(), 1);
    }

    #[test]
    fn untrue_facts_have_no_explanation() {
        let (db, _) = prov("b(X) :- a(X). a(x).");
        assert!(explain(&db, "b(zzz)").is_none());
        assert!(explain(&db, "ghost(x)").is_none());
    }

    #[test]
    fn explicit_and_derived_prefers_explicit() {
        let (db, _) = prov("member(X,Y) :- leads(X,Y). member(a,s). leads(a,s).");
        let d = explain(&db, "member(a, s)").unwrap();
        assert!(matches!(d, Derivation::Explicit(_)));
    }

    #[test]
    fn provenance_model_matches_canonical_model() {
        let db = Database::parse(
            "
            m(X,Y) :- l(X,Y).
            u(X) :- p(X), not q(X).
            tc(X,Y) :- r(X,Y).
            tc(X,Z) :- tc(X,Y), r(Y,Z).
            l(a,b). p(a). p(b). q(b). r(a,b). r(b,c).
        ",
        )
        .unwrap();
        let p = Provenance::build(db.facts(), db.rules());
        let canonical = db.model();
        let mut a: Vec<String> = p.model().iter().map(|f| f.to_string()).collect();
        let mut b: Vec<String> = canonical.iter().map(|f| f.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Every model fact explains.
        for f in p.model().iter() {
            assert!(p.explain(&f).is_some(), "no derivation for {f}");
        }
    }
}
