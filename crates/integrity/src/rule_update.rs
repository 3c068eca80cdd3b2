//! Rule updates, "treated like conditional updates" (§3.2).
//!
//! Adding a rule `H ← B` acts like the conditional insertion of every
//! instance of `H` whose body newly holds; removing it like the
//! conditional deletion of the instances it alone derived. The two-phase
//! architecture carries over:
//!
//! * **Compile** (fact-free): the direct change is confined to instances
//!   of the head — insertions for an addition, deletions for a removal
//!   (stratification forbids the negative self-dependencies that could
//!   flip the head the other way). Seeding the Def. 5 closure with `+H`
//!   (resp. `¬H`) over the *post-update* rule set covers every literal
//!   the change can reach, and Def. 3/6 turn those into update
//!   constraints exactly as for fact updates. "When defining induced or
//!   potential updates one has to respect modifications to the rule set
//!   as well" (§3.2) — hence the post-update set: insertions propagate
//!   through rules present afterwards, and a deletion propagating
//!   through the removed rule itself is already an instance of the seed.
//! * **Evaluate**: the checker's one evaluation loop. The propagation
//!   kernel advances the checked state's model across the rule change
//!   (seeded with the rules it adds and removes), as a database's
//!   `set_rules` does; the induced updates of each trigger pattern are
//!   that propagation's flips, filtered as `delta` filters them for
//!   recursive patterns. Only the relevant simplified instances are
//!   evaluated, against the state the propagation reaches — never the
//!   full constraint set, and no model is computed. The propagation is
//!   handed back with the report: an accepted change installs it
//!   (`Database::set_rules_propagated`) instead of running the kernel
//!   again.
//!
//! Both phases are [`Checker`] methods: [`Checker::compile_rule_update`]
//! (over the rule set after the change, [`RuleUpdate::rules_after`]),
//! [`Checker::evaluate_rule_update`] and [`Checker::check_rule_update`].
//! The full re-check of every constraint on the candidate state is what
//! a system without this method must do; `tests/prop_schema_updates.rs`
//! keeps it as the oracle the incremental verdict must match.

use crate::checker::{CheckReport, Checker, CompiledCheck, Program};
use crate::delta::DeltaStats;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use uniform_datalog::{Database, Model, Propagation, RuleSet, StratificationError};
use uniform_logic::{match_atom, Literal, Renaming, Rule, Subst};

/// A change to the rule set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleUpdate {
    /// Add a deduction rule.
    Add(Rule),
    /// Remove a deduction rule (matched structurally).
    Remove(Rule),
}

impl RuleUpdate {
    /// The rule being added or removed.
    pub fn rule(&self) -> &Rule {
        match self {
            RuleUpdate::Add(r) | RuleUpdate::Remove(r) => r,
        }
    }

    /// Is this an addition?
    pub fn is_addition(&self) -> bool {
        matches!(self, RuleUpdate::Add(_))
    }

    /// The seed literal of the potential-update closure: `+H` for an
    /// addition, `¬H` for a removal. Renamed apart so the head's
    /// variables cannot be captured by constraint variables during
    /// relevance unification: pool names never occur in a parsed
    /// constraint.
    pub fn seed(&self) -> Literal {
        let head = Renaming::default().atom(&self.rule().head);
        Literal::new(self.is_addition(), head)
    }

    /// The rule set after applying this update to `rules` (rules compare
    /// structurally). `None` when it changes nothing — adding a present
    /// rule, removing an absent one — and an error when an addition
    /// breaks stratification.
    pub fn rules_after(&self, rules: &RuleSet) -> Result<Option<RuleSet>, StratificationError> {
        let rule = self.rule();
        if rules.contains(rule) == self.is_addition() {
            return Ok(None);
        }
        let mut after: Vec<Rule> = rules
            .rules()
            .iter()
            .filter(|&r| r != rule)
            .cloned()
            .collect();
        if self.is_addition() {
            after.push(rule.clone());
        }
        RuleSet::new(after).map(Some)
    }
}

impl fmt::Display for RuleUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleUpdate::Add(r) => write!(f, "+[{r}]"),
            RuleUpdate::Remove(r) => write!(f, "-[{r}]"),
        }
    }
}

impl Checker<'_> {
    /// Phase 1 of a rule update that changes the rules to `rules_after`
    /// ([`RuleUpdate::rules_after`]): the update constraints seeded from
    /// the head over them. Touches rules and constraints only.
    pub fn compile_rule_update(&self, update: &RuleUpdate, rules_after: &RuleSet) -> CompiledCheck {
        self.compile_over(rules_after, &[update.seed()])
    }

    /// Phase 2 of a rule update: the induced updates of each trigger
    /// pattern are the flips of the rule change's propagation over the
    /// checked state's model, and the relevant simplified instances are
    /// evaluated against the state it reaches. Returns the report and
    /// that propagation, for the checked database to install; none runs
    /// when no constraint is relevant to anything the change can reach.
    pub fn evaluate_rule_update(
        &self,
        check: &CompiledCheck,
        rules_after: &RuleSet,
    ) -> (CheckReport, Option<Propagation<Arc<Model>>>) {
        let mut stats = check.stats();
        if check.update_constraints.is_empty() {
            let report = CheckReport::new(Vec::new(), Vec::new(), stats, check.truncated);
            return (report, None);
        }
        let propagation =
            Propagation::of_rule_change(self.model(), self.facts, self.rules(), rules_after);
        let mut delta = DeltaStats {
            propagation: propagation.stats(),
            ..DeltaStats::default()
        };
        let violations = Program::new(check, &[]).run(
            Subst::new(),
            self.constraints(),
            propagation.state(),
            |pattern| {
                // The instances that flip across the rule change.
                let answers: Vec<Literal> = (propagation.flips().iter())
                    .filter(|(fact, now)| {
                        *now == pattern.positive && match_atom(&pattern.atom, fact).is_some()
                    })
                    .map(|(fact, _)| Literal::new(pattern.positive, fact.to_atom()))
                    .collect();
                delta.patterns_evaluated += 1;
                delta.answers += answers.len();
                Rc::new(answers)
            },
            &mut stats,
        );
        stats.delta = delta;
        let report = CheckReport::new(violations, Vec::new(), stats, check.truncated);
        (report, Some(propagation))
    }

    /// Both phases of a rule update. A no-op (adding a present rule,
    /// removing an absent one) is accepted without work.
    pub fn check_rule_update(
        &self,
        update: &RuleUpdate,
    ) -> Result<CheckReport, StratificationError> {
        let Some(rules_after) = update.rules_after(self.rules())? else {
            return Ok(self
                .evaluate_rule_update(&CompiledCheck::default(), self.rules())
                .0);
        };
        let check = self.compile_rule_update(update, &rules_after);
        Ok(self.evaluate_rule_update(&check, &rules_after).0)
    }
}

/// Convenience: compile and evaluate a rule update against `db` with
/// default options.
pub fn check_rule_update(
    db: &Database,
    update: &RuleUpdate,
) -> Result<CheckReport, StratificationError> {
    Checker::new(db).check_rule_update(update)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::{parse_rule, Fact};

    fn db(src: &str) -> Database {
        let db = Database::parse(src).unwrap();
        assert!(db.is_consistent(), "fixtures must start consistent");
        db
    }

    fn add(src: &str) -> RuleUpdate {
        RuleUpdate::Add(parse_rule(src).unwrap())
    }

    fn remove(src: &str) -> RuleUpdate {
        RuleUpdate::Remove(parse_rule(src).unwrap())
    }

    #[test]
    fn addition_deriving_violation_rejected() {
        let d = db("
            employee(ann).
            constraint nss: forall X: subordinate(X, X) -> false.
        ");
        let report = check_rule_update(&d, &add("subordinate(X, X) :- employee(X).")).unwrap();
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "nss");
    }

    #[test]
    fn benign_addition_accepted() {
        let d = db("
            leads(ann, sales).
            constraint nss: forall X: subordinate(X, X) -> false.
        ");
        let report = check_rule_update(&d, &add("boss(X) :- leads(X, Y).")).unwrap();
        assert!(report.satisfied);
        // No constraint mentions boss: accepted without materializing.
        assert_eq!(report.stats.new_materializations, 0);
    }

    #[test]
    fn removal_stripping_support_rejected() {
        let d = db("
            leads(ann, sales). employee(ann).
            member(X, Y) :- leads(X, Y).
            constraint emp_member: forall X: employee(X) -> (exists Y: member(X, Y)).
        ");
        let report = check_rule_update(&d, &remove("member(X, Y) :- leads(X, Y).")).unwrap();
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "emp_member");
        assert_eq!(
            report.violations[0].culprit.as_ref().unwrap().to_string(),
            "not member(ann,sales)"
        );
    }

    #[test]
    fn removal_with_explicit_backup_accepted() {
        let d = db("
            leads(ann, sales). employee(ann). member(ann, sales).
            member(X, Y) :- leads(X, Y).
            constraint emp_member: forall X: employee(X) -> (exists Y: member(X, Y)).
        ");
        let report = check_rule_update(&d, &remove("member(X, Y) :- leads(X, Y).")).unwrap();
        assert!(report.satisfied, "{:?}", report.violations);
    }

    #[test]
    fn addition_through_negation_deletes_downstream() {
        // Adding a works rule *removes* idle facts (idle is defined by
        // negation over works); the constraint requires idlers to exist.
        let d = db("
            emp(a).
            idle(X) :- emp(X), not works(X).
            constraint someone_idle: exists X: idle(X).
        ");
        let report = check_rule_update(&d, &add("works(X) :- emp(X).")).unwrap();
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "someone_idle");
    }

    #[test]
    fn removal_through_negation_inserts_downstream() {
        // Removing the works rule makes everyone idle; the constraint
        // forbids idle employees.
        let d = db("
            emp(a). contract(a).
            works(X) :- contract(X).
            idle(X) :- emp(X), not works(X).
            constraint no_idlers: forall X: idle(X) -> false.
        ");
        let report = check_rule_update(&d, &remove("works(X) :- contract(X).")).unwrap();
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "no_idlers");
    }

    #[test]
    fn unstratifiable_addition_is_an_error() {
        let d = db("emp(a).");
        let err = check_rule_update(&d, &add("odd(X) :- emp(X), not odd(X)."));
        assert!(err.is_err());
    }

    #[test]
    fn noop_updates_accepted_without_work() {
        let d = db("
            leads(a, b).
            member(X, Y) :- leads(X, Y).
            constraint c: forall X, Y: member(X, Y) -> leads(X, Y).
        ");
        // Adding a rule that is already present.
        let report = check_rule_update(&d, &add("member(X, Y) :- leads(X, Y).")).unwrap();
        assert!(report.satisfied);
        assert_eq!(report.stats.update_constraints, 0);
        // Removing a rule that does not exist.
        let report = check_rule_update(&d, &remove("ghost(X) :- leads(X, Y).")).unwrap();
        assert!(report.satisfied);
        assert_eq!(report.stats.update_constraints, 0);
    }

    #[test]
    fn recursive_rule_addition_checked() {
        let d = db("
            edge(a, b). edge(b, c). edge(c, a).
            tc(X, Y) :- edge(X, Y).
            constraint noloop: forall X: tc(X, X) -> false.
        ");
        // Adding the transitive rule closes the cycle: tc(a,a) appears.
        let report = check_rule_update(&d, &add("tc(X, Z) :- tc(X, Y), edge(Y, Z).")).unwrap();
        assert!(!report.satisfied);
        assert_eq!(report.violations[0].constraint, "noloop");
    }

    #[test]
    fn compile_is_fact_free() {
        let d = db("constraint c: forall X: loud(X) -> warned(X).");
        let checker = Checker::new(&d);
        let update = add("loud(X) :- speaker(X).");
        let rules = update.rules_after(d.rules()).unwrap().unwrap();
        let compiled = checker.compile_rule_update(&update, &rules);
        assert_eq!(compiled.update_constraints.len(), 1);
        // Facts appear only at evaluation time.
        let mut d2 = d.clone();
        d2.insert_fact(&Fact::parse_like("speaker", &["s"]));
        let checker2 = Checker::new(&d2);
        assert!(!checker2.evaluate_rule_update(&compiled, &rules).0.satisfied);
        d2.insert_fact(&Fact::parse_like("warned", &["s"]));
        let checker3 = Checker::new(&d2);
        assert!(checker3.evaluate_rule_update(&compiled, &rules).0.satisfied);
    }

    #[test]
    fn agrees_with_full_recheck_oracle() {
        let base = "
            emp(a). emp(b). dept(d). assign(a, d). contract(a).
            works(X) :- contract(X).
            member(X, Y) :- assign(X, Y), dept(Y).
            idle(X) :- emp(X), not works(X).
            constraint busy: forall X, Y: member(X, Y) -> emp(X).
            constraint lazy_bound: forall X: idle(X) -> emp(X).
            constraint someone_works: exists X: works(X).
        ";
        let d = db(base);
        let updates = vec![
            add("works(X) :- assign(X, Y)."),
            add("member(X, d) :- contract(X)."),
            add("member(ghost, X) :- dept(X)."),
            remove("works(X) :- contract(X)."),
            remove("member(X, Y) :- assign(X, Y), dept(Y)."),
            remove("idle(X) :- emp(X), not works(X)."),
        ];
        for u in updates {
            let fast = check_rule_update(&d, &u).unwrap().satisfied;
            let rules_after = u.rules_after(d.rules()).unwrap();
            // The candidate computes its own model: the oracle does not
            // run the propagation kernel it judges.
            let slow = match rules_after {
                None => true,
                Some(rs) => {
                    Database::with(d.facts().clone(), rs, d.constraints().to_vec()).is_consistent()
                }
            };
            assert_eq!(fast, slow, "divergence on {u}");
        }
    }
}
