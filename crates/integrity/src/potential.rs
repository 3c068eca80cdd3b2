//! Potential updates (Def. 5): the compile-time approximation of induced
//! updates.
//!
//! "A depends on L if and only if A directly depends on L or on a literal
//! that depends on L. Every literal which depends on U is a potential
//! update induced by U." Potential updates are computed **without
//! considering any answer substitution** — i.e. without touching the fact
//! base — which is what allows the whole first phase of the method to run
//! at compile time (§3.2). Subsumed literals are discarded during the
//! closure; §3.3.1 notes this is *necessary* for termination on recursive
//! rules and desirable otherwise.

use uniform_datalog::RuleSet;
use uniform_logic::{unify_atoms, Literal, MinimalLiteralSet, Renaming};

/// Result of the potential-update computation.
#[derive(Clone, Debug)]
pub struct PotentialUpdates {
    /// Subsumption-minimal set of potential update literals, including
    /// the seed update itself (the paper's `{U} ∪ {L | dependent(L, U)}`).
    pub literals: Vec<Literal>,
    /// Number of direct-dependent derivation steps performed.
    pub steps: usize,
    /// Whether the safety bound was hit (should never happen: the pattern
    /// space modulo renaming is finite).
    pub truncated: bool,
}

/// Literals directly depending on `lit` (one rule application, Def. 5).
/// Each rule is renamed apart from `lit`, whose variables may be those
/// of an earlier renaming.
pub fn direct_dependents(rules: &RuleSet, lit: &Literal) -> Vec<Literal> {
    let mut out = Vec::new();
    // Same-sign body occurrence L' unifiable with L: the head may become
    // true (potential insertion A).
    for (rule, _, occ) in rules.body_occurrences(lit.atom.pred, lit.positive) {
        let renamed = Renaming::apart_from(&lit.atom).rule(rule);
        let body_atom = &renamed.body[occ.position].atom;
        if let Some(mgu) = unify_atoms(body_atom, &lit.atom) {
            out.push(Literal::new(true, mgu.apply_atom(&renamed.head)));
        }
    }
    // Opposite-sign occurrence L' unifiable with the complement of L: a
    // derivation may break (potential deletion ¬A).
    for (rule, _, occ) in rules.body_occurrences(lit.atom.pred, !lit.positive) {
        let renamed = Renaming::apart_from(&lit.atom).rule(rule);
        let body_atom = &renamed.body[occ.position].atom;
        if let Some(mgu) = unify_atoms(body_atom, &lit.atom) {
            out.push(Literal::new(false, mgu.apply_atom(&renamed.head)));
        }
    }
    out
}

/// Transitive closure of [`direct_dependents`] from `seed`, minimal under
/// subsumption. `limit` bounds the number of worklist expansions as a
/// safety net.
pub fn potential_updates(rules: &RuleSet, seed: &Literal, limit: usize) -> PotentialUpdates {
    let mut set = MinimalLiteralSet::new();
    set.insert(seed.clone());
    let mut queue: Vec<Literal> = vec![seed.clone()];
    let mut steps = 0;
    let mut truncated = false;
    while let Some(lit) = queue.pop() {
        if steps >= limit {
            truncated = true;
            break;
        }
        steps += 1;
        // Skip literals that have been evicted by a more general one in
        // the meantime; the general literal covers their dependents.
        if !set.contains_subsumer_of(&lit) {
            continue;
        }
        for dep in direct_dependents(rules, &lit) {
            if set.insert(dep.clone()) {
                queue.push(dep);
            }
        }
    }
    PotentialUpdates {
        literals: set.into_vec(),
        steps,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::{literal_subsumes, parse_literal, parse_rule, Sym};

    fn rules(srcs: &[&str]) -> RuleSet {
        RuleSet::new(srcs.iter().map(|s| parse_rule(s).unwrap()).collect()).unwrap()
    }

    fn potentials(rule_srcs: &[&str], seed: &str) -> Vec<String> {
        let rs = rules(rule_srcs);
        let p = potential_updates(&rs, &parse_literal(seed).unwrap(), 10_000);
        assert!(!p.truncated);
        let mut out: Vec<String> = p.literals.iter().map(canonical).collect();
        out.sort();
        out
    }

    /// Render with variables canonicalized for stable assertions.
    fn canonical(l: &Literal) -> String {
        uniform_logic::PatternKey::of(l).to_string()
    }

    #[test]
    fn paper_example_positive_dependency() {
        // §3.2: with r(X) ← q(X,Y) ∧ p(Y,Z), the update p(a,b) has
        // potential update r(X).
        let out = potentials(&["r(X) :- q(X,Y), p(Y,Z)."], "p(a,b)");
        assert_eq!(out, vec!["+p,c:a,c:b", "+r,v0"]);
    }

    #[test]
    fn deletion_produces_negative_dependents() {
        let out = potentials(&["r(X) :- q(X,Y), p(Y,Z)."], "not p(a,b)");
        assert_eq!(out, vec!["-p,c:a,c:b", "-r,v0"]);
    }

    #[test]
    fn negative_body_literal_flips_polarity() {
        // present(X) ← emp(X) ∧ ¬absent(X): inserting absent(a) may
        // delete present instances; deleting absent(a) may insert them.
        // The negative body literal shares the head variable, so the
        // constant propagates into the dependent pattern.
        let out = potentials(&["present(X) :- emp(X), not absent(X)."], "absent(a)");
        assert_eq!(out, vec!["+absent,c:a", "-present,c:a"]);
        let out2 = potentials(&["present(X) :- emp(X), not absent(X)."], "not absent(a)");
        assert_eq!(out2, vec!["+present,c:a", "-absent,c:a"]);
    }

    #[test]
    fn chains_propagate() {
        let out = potentials(&["b(X) :- a(X).", "c(X) :- b(X).", "d(X) :- c(X)."], "a(k)");
        assert_eq!(out, vec!["+a,c:k", "+b,c:k", "+c,c:k", "+d,c:k"]);
    }

    #[test]
    fn recursion_terminates_via_subsumption() {
        // §3.3.1: "In order to stop the generation of potential updates in
        // presence of recursive rules, it is necessary to discard subsumed
        // literals while constructing the set."
        let out = potentials(
            &["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), edge(Y,Z)."],
            "edge(a,b)",
        );
        // tc(a,b) from the base rule, then tc(a,Z), then tc(X,Z) — each
        // generation subsumes the previous; the fixpoint is tc(X,Z).
        assert_eq!(out, vec!["+edge,c:a,c:b", "+tc,v0,v1"]);
    }

    #[test]
    fn nonlinear_recursion_terminates() {
        let out = potentials(
            &["tc(X,Y) :- edge(X,Y).", "tc(X,Z) :- tc(X,Y), tc(Y,Z)."],
            "edge(a,b)",
        );
        assert_eq!(out, vec!["+edge,c:a,c:b", "+tc,v0,v1"]);
    }

    #[test]
    fn mutual_recursion_terminates() {
        let out = potentials(
            &[
                "even(X) :- zero(X).",
                "even(X) :- succ(Y,X), odd(Y).",
                "odd(X) :- succ(Y,X), even(Y).",
            ],
            "succ(n0,n1)",
        );
        assert_eq!(out, vec!["+even,v0", "+odd,v0", "+succ,c:n0,c:n1"]);
    }

    #[test]
    fn constants_propagate_when_possible() {
        // Head reuses the matched variable: the constant flows through.
        let out = potentials(&["boss(X) :- leads(X,Y)."], "leads(ann,sales)");
        assert_eq!(out, vec!["+boss,c:ann", "+leads,c:ann,c:sales"]);
    }

    #[test]
    fn irrelevant_rules_ignored() {
        let out = potentials(&["r(X) :- q(X)."], "p(a)");
        assert_eq!(out, vec!["+p,c:a"]);
    }

    #[test]
    fn direct_dependents_fresh_variables() {
        let rs = rules(&["r(X) :- q(X,Y), p(Y,Z)."]);
        let deps = direct_dependents(&rs, &parse_literal("p(a,b)").unwrap());
        assert_eq!(deps.len(), 1);
        let dep = &deps[0];
        assert_eq!(dep.atom.pred, Sym::new("r"));
        // The head variable is renamed apart, not literally `X`.
        assert!(dep.atom.args[0].is_var());
        assert_ne!(dep.atom.args[0], uniform_logic::Term::from_name("X"));
        // And the generalization subsumes any ground instance.
        assert!(literal_subsumes(dep, &parse_literal("r(zzz)").unwrap()));
    }

    #[test]
    fn sibling_dependents_sharing_a_variable_name_both_stay() {
        // Both heads carry the seed's variable X. p(X, X) is not more
        // general than p(X, b): the second is kept, or an insertion of
        // p(c, b) would go unchecked.
        let out = potentials(&["p(Y, Y) :- s(Y).", "p(Y, b) :- s(Y)."], "s(X)");
        assert_eq!(out, vec!["+p,v0,c:b", "+p,v0,v0", "+s,v0"]);
    }

    #[test]
    fn seed_always_included() {
        let out = potentials(&[], "p(a)");
        assert_eq!(out, vec!["+p,c:a"]);
    }
}
