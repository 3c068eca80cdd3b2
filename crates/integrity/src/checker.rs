//! The integrity maintenance method (§3.2–3.3, Proposition 3).
//!
//! Two strictly separated phases:
//!
//! * **Compile** — from the update literals alone (no fact access):
//!   potential updates (Def. 5), then for every potential update the
//!   simplified instances of relevant constraints, packaged as *update
//!   constraints* `¬delta(U, Lτ) ∨ new(U, s(C))` (Def. 6).
//! * **Evaluate** — batch evaluation of all update constraints: group by
//!   trigger pattern, enumerate `delta` once per group, bind and evaluate
//!   every `s(C)` against the simulated updated state (`new`),
//!   deduplicating ground instances so shared subqueries are not
//!   re-evaluated (§3.2's "global evaluation"). The evaluation runs a
//!   program lowered from the compile: groups, their order and every
//!   join order are fixed before the first trigger is enumerated.
//!
//! All constraints are satisfied in `U(D)` iff they were satisfied in `D`
//! and no evaluated instance is violated (Prop. 3).
//!
//! Every update kind runs these two phases: fact updates and
//! transactions here, conditional updates (from their pattern) and rule
//! updates (from the rule's head, over the rules after the change) in
//! their modules, and the Lloyd–Topor baseline, which only swaps the
//! source of the ground triggers.

use crate::cache::Precompiled;
use crate::delta::{DeltaEngine, DeltaStats};
use crate::potential::potential_updates;
use crate::simplify::{simplified_instances, SimplifiedInstance};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use uniform_datalog::{
    extend_match, Database, FactSet, Interp, Lowered, Model, OverlayEngine, ReadPattern, RuleSet,
    Schema, Snapshot, Transaction, Update,
};
use uniform_logic::{
    match_atom, Atom, Constraint, Fact, Literal, PatternKey, Rq, Subst, Sym, Term,
};

/// Options controlling the compile phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CheckOptions {
    /// Safety bound on the potential-update closure.
    pub potential_limit: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            potential_limit: 10_000,
        }
    }
}

/// An update constraint (Def. 6): evaluate `instance` for every ground
/// answer of `delta(U, trigger)`.
#[derive(Clone, Debug)]
pub struct UpdateConstraint {
    pub constraint: usize,
    pub trigger: Literal,
    pub instance: Rq,
}

/// Output of the compile phase — computable without any fact access
/// (§3.3.1: "this set can be precompiled as well"). It is a function of
/// the rules, the constraints and the *abstract* transaction: the seed
/// literals with every constant that occurs in no rule and no
/// constraint renamed one-to-one. Constants the schema mentions must be
/// kept; [`crate::CheckCache`] compiles each abstract transaction once
/// and lowers it to a program whose placeholders a check binds to its
/// own constants, exactly.
#[derive(Clone, Debug, Default)]
pub struct CompiledCheck {
    pub potential: Vec<Literal>,
    pub update_constraints: Vec<UpdateConstraint>,
    pub truncated: bool,
}

impl CompiledCheck {
    /// The compile phase's counters, the start of every check's stats.
    pub(crate) fn stats(&self) -> CheckStats {
        CheckStats {
            potential_updates: self.potential.len(),
            update_constraints: self.update_constraints.len(),
            ..CheckStats::default()
        }
    }
}

/// A violated constraint instance.
#[derive(Clone, Debug)]
pub struct Violation {
    pub constraint: String,
    /// The ground induced update that triggered the violated instance
    /// (`None` for full-recheck reports).
    pub culprit: Option<Literal>,
    /// The violated ground instance.
    pub instance: Rq,
}

/// Work counters of one check (the benchmark's per-layer probes read
/// them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    pub potential_updates: usize,
    pub update_constraints: usize,
    pub trigger_groups: usize,
    pub delta: DeltaStats,
    /// Ground instances whose evaluation was actually run.
    pub instances_evaluated: usize,
    /// Ground instances skipped by the shared-evaluation cache.
    pub instances_shared: usize,
    /// Ground subqueries answered from the shared engine's memo — the
    /// "redundant subqueries" a global evaluation avoids (§3.2).
    pub subquery_memo_hits: usize,
    /// Canonical-model materializations of the simulated updated state.
    pub new_materializations: usize,
}

/// Result of an integrity check.
#[derive(Clone, Debug)]
pub struct CheckReport {
    pub satisfied: bool,
    pub violations: Vec<Violation>,
    /// Relation-level read set of the check, sorted by predicate name:
    /// the distinct predicates of [`CheckReport::read_patterns`]. Kept as
    /// the coarse projection for display and for consumers that only
    /// care *which* relations a verdict depends on.
    pub reads: Vec<Sym>,
    /// Binding-level read set of the check: one [`ReadPattern`] per
    /// access shape the verdict depends on, each argument position bound
    /// to the constant the check probed it with (`None` = unbounded).
    /// Seeded from the net update's own tuples (fully bound — Def. 1
    /// effectiveness is a membership test) and the constants of the
    /// simplified instances (Def. 6 pins them down), then closed through
    /// rule bodies propagating those constants; rules whose head
    /// constants contradict a pattern are skipped — they cannot derive
    /// any tuple the check probed. A commit pipeline admits a checked
    /// transaction while no tuple *covered by these patterns* has been
    /// written since the checked snapshot — see `uniform_datalog::txn`.
    pub read_patterns: Vec<ReadPattern>,
    pub stats: CheckStats,
    /// The potential-update closure hit [`CheckOptions::potential_limit`]
    /// ([`CompiledCheck::truncated`]): update constraints may be missing,
    /// so a `satisfied` verdict is best effort, not a proof.
    pub truncated: bool,
}

impl CheckReport {
    /// Does this report *prove* the paper's induction step — every
    /// simplified instance the update can reach was evaluated and holds?
    /// Only such a report may carry the consistency latch across its
    /// transaction (see `Database::preserving_consistency`).
    pub fn proves_consistency(&self) -> bool {
        self.satisfied && !self.truncated
    }

    /// The report of a check that found `violations`: satisfied iff
    /// there are none, and reading the distinct predicates of
    /// `read_patterns`, sorted by name.
    pub(crate) fn new(
        violations: Vec<Violation>,
        read_patterns: Vec<ReadPattern>,
        stats: CheckStats,
        truncated: bool,
    ) -> CheckReport {
        let mut reads: Vec<Sym> = read_patterns
            .iter()
            .map(|p| p.pred)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        reads.sort_by_key(|s| s.as_str());
        CheckReport {
            satisfied: violations.is_empty(),
            violations,
            reads,
            read_patterns,
            stats,
            truncated,
        }
    }
}

/// The two-phase integrity checker, bound to a database or a snapshot:
/// fact updates and transactions here, conditional updates
/// ([`Checker::check_conditional`]) and rule updates
/// ([`Checker::check_rule_update`]) in their modules.
pub struct Checker<'a> {
    pub(crate) facts: &'a FactSet,
    schema: &'a Schema,
    model: Arc<Model>,
    options: CheckOptions,
}

impl<'a> Checker<'a> {
    /// A checker evaluating against `db`'s current state, whose model
    /// it materializes if the database has none cached.
    pub fn new(db: &'a Database) -> Checker<'a> {
        Checker {
            facts: db.facts(),
            schema: db.schema(),
            model: db.model(),
            options: CheckOptions::default(),
        }
    }

    /// A checker evaluating against a pinned snapshot: same verdicts as
    /// a checker on the originating database at snapshot time, but
    /// usable from any thread while writers keep committing. This is
    /// the checking mode of the concurrent commit pipeline — and the
    /// point where that pipeline's incremental model maintenance pays
    /// off twice: the snapshot's pinned model *is* the database's
    /// maintained model, so the `evaluate` phase's `current`
    /// interpretation is shared by reference, never rematerialized per
    /// check.
    pub fn for_snapshot(snapshot: &'a Snapshot) -> Checker<'a> {
        Checker {
            facts: snapshot.facts(),
            schema: snapshot.schema(),
            model: snapshot.model_arc(),
            options: CheckOptions::default(),
        }
    }

    /// The same checker, compiling with `options`.
    pub fn with_options(self, options: CheckOptions) -> Checker<'a> {
        Checker { options, ..self }
    }

    pub(crate) fn rules(&self) -> &'a RuleSet {
        self.schema.rules()
    }

    pub(crate) fn constraints(&self) -> &'a [Constraint] {
        self.schema.constraints()
    }

    /// The schema's relevance index and compiled checks.
    pub(crate) fn precompiled(&self) -> &'a Precompiled {
        Precompiled::of(self.schema)
    }

    /// The canonical model of the checked state.
    pub fn model(&self) -> Arc<Model> {
        self.model.clone()
    }

    /// Phase 1: compile update constraints for the given update literals.
    /// Touches rules and constraints only — never the fact base.
    pub fn compile(&self, updates: &[Literal]) -> CompiledCheck {
        self.compile_over(self.rules(), updates)
    }

    /// Phase 1 of every update kind: the potential updates of `seeds`
    /// under `rules` (Def. 5), one per pattern, and the update
    /// constraints of each (Def. 6). A rule update passes the rules
    /// after the change.
    pub(crate) fn compile_over(&self, rules: &RuleSet, seeds: &[Literal]) -> CompiledCheck {
        let mut potential: Vec<Literal> = Vec::new();
        let mut truncated = false;
        let mut seen_patterns: HashSet<PatternKey> = HashSet::new();
        for u in seeds {
            let p = potential_updates(rules, u, self.options.potential_limit);
            truncated |= p.truncated;
            for lit in p.literals {
                if seen_patterns.insert(PatternKey::of(&lit)) {
                    potential.push(lit);
                }
            }
        }
        let mut update_constraints = Vec::new();
        for lit in &potential {
            for SimplifiedInstance {
                constraint,
                trigger,
                instance,
            } in simplified_instances(&self.precompiled().index, self.constraints(), lit)
            {
                update_constraints.push(UpdateConstraint {
                    constraint,
                    trigger,
                    instance,
                });
            }
        }
        CompiledCheck {
            potential,
            update_constraints,
            truncated,
        }
    }

    /// The binding-level read set of evaluating `compiled` for `tx`:
    /// the net update's own tuples (fully bound), every trigger and
    /// instance literal of the update constraints with its constants
    /// bound, closed downward through rule bodies propagating those
    /// constants (delta descent and overlay evaluation read exactly
    /// through rules). A deliberate over-approximation — sound for
    /// conflict detection, deterministic, and computable without fact
    /// access.
    pub(crate) fn read_patterns(
        &self,
        compiled: &CompiledCheck,
        tx: &Transaction,
    ) -> Vec<ReadPattern> {
        let mut closure = self.rules().templates().specializer();
        for u in &tx.updates {
            closure.add(u.fact.pred, u.fact.args.iter().map(|&c| Some(c)).collect());
        }
        for uc in &compiled.update_constraints {
            closure.add_atom(&uc.trigger.atom);
            for occ in uc.instance.literals() {
                closure.add_atom(&occ.literal.atom);
            }
        }
        closure.close()
    }

    /// Phase 2: evaluate a compiled check against the database and the
    /// transaction (Def. 1 net effect).
    pub fn evaluate(&self, compiled: &CompiledCheck, tx: &Transaction) -> CheckReport {
        let program = Program::new(compiled, &[]);
        self.run(&program, Subst::new(), tx, self.read_patterns(compiled, tx))
    }

    /// [`Checker::evaluate`] of a lowered check, its placeholders bound
    /// by `binding`, with the read set already computed.
    pub(crate) fn run(
        &self,
        program: &Program,
        binding: Subst,
        tx: &Transaction,
        read_patterns: Vec<ReadPattern>,
    ) -> CheckReport {
        let mut stats = program.stats;

        let (adds, dels) = tx.net_effect(self.facts);
        if adds.is_empty() && dels.is_empty() {
            return CheckReport::new(Vec::new(), read_patterns, stats, false);
        }
        let net_updates: Vec<Update> = adds
            .iter()
            .cloned()
            .map(Update::insert)
            .chain(dels.iter().cloned().map(Update::delete))
            .collect();

        // `new`: goal-directed over the overlaid facts for non-recursive
        // predicates; recursion-reaching ones read the model of `D`
        // overlaid with the update's propagation (computed once, shared
        // with `delta`).
        let current = self.model();
        let updated = OverlayEngine::over_model(&current, self.facts, self.rules(), adds, dels);
        let delta = DeltaEngine::new(&current, &updated, self.rules(), &net_updates);
        let violations = program.run(
            binding,
            self.constraints(),
            &updated,
            |pattern| delta.answers(pattern),
            &mut stats,
        );
        stats.delta = delta.stats();
        stats.subquery_memo_hits = updated.memo_hits();
        CheckReport::new(violations, read_patterns, stats, program.truncated)
    }

    /// Both phases for a transaction.
    pub fn check(&self, tx: &Transaction) -> CheckReport {
        let literals: Vec<Literal> = tx.updates.iter().map(|u| u.to_literal()).collect();
        let compiled = self.compile(&literals);
        self.evaluate(&compiled, tx)
    }

    /// Both phases for a single-fact update.
    pub fn check_update(&self, update: &Update) -> CheckReport {
        self.check(&Transaction::single(update.clone()))
    }
}

/// A compiled check lowered for evaluation: its update constraints
/// grouped by trigger pattern, in the order the groups are walked, and
/// every instance [`Lowered`]. A cached check keeps its placeholders as
/// variables, so one program serves every transaction of its shape: a
/// check binds them to its own constants and builds no formula.
pub(crate) struct Program {
    stats: CheckStats,
    truncated: bool,
    groups: Vec<Group>,
    /// `groups` are in walking order, unless that order depends on the
    /// constants a check binds the placeholders to.
    fixed_order: bool,
}

struct Group {
    key: PatternKey,
    /// The first member's trigger, whose ground answers the group walks.
    trigger: Literal,
    members: Vec<Member>,
}

struct Member {
    constraint: usize,
    trigger: Atom,
    instance: Rq,
    lowered: Lowered,
    /// Two ground instances are equal iff their skeletons are — the
    /// instance with each term but a quantified variable made a hole —
    /// and so are the constants that fill their holes.
    skeleton: usize,
    holes: Vec<Term>,
}

impl Program {
    /// Lower `compiled`, in which constant `placeholders[k]` stands for a
    /// check's `k`-th constant. Groups are walked in the order of their
    /// trigger's [`PatternKey`] as rendered with a check's constants, so
    /// the violation list is deterministic; when that order cannot
    /// depend on them, it is fixed here.
    pub(crate) fn new(compiled: &CompiledCheck, placeholders: &[Sym]) -> Program {
        let mut var = |a: &Atom| {
            let var = |t| match t {
                Term::Const(c) if placeholders.contains(&c) => Term::Var(c),
                _ => t,
            };
            Atom::new(a.pred, a.args.iter().map(|&t| var(t)).collect())
        };
        let mut skeletons: Vec<Rq> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        for uc in &compiled.update_constraints {
            let instance = uc.instance.map_atoms(&mut var);
            let free = instance.free_vars();
            let mut holes = Vec::new();
            // A hole is marked with its atom's predicate.
            let skeleton = instance.map_atoms(&mut |a| {
                let mut hole = |t| match t {
                    Term::Var(v) if !free.contains(&v) => t,
                    _ => {
                        holes.push(t);
                        Term::Const(a.pred)
                    }
                };
                Atom::new(a.pred, a.args.iter().map(|&t| hole(t)).collect())
            });
            let known = skeletons.iter().position(|s| *s == skeleton);
            let skeleton = known.unwrap_or_else(|| {
                skeletons.push(skeleton);
                skeletons.len() - 1
            });
            let member = Member {
                constraint: uc.constraint,
                trigger: var(&uc.trigger.atom),
                lowered: Lowered::new(&instance),
                instance,
                skeleton,
                holes,
            };
            let key = PatternKey::of(&uc.trigger);
            match groups.iter_mut().find(|g| g.key == key) {
                Some(g) => g.members.push(member),
                None => groups.push(Group {
                    key,
                    trigger: Literal::new(uc.trigger.positive, member.trigger.clone()),
                    members: vec![member],
                }),
            }
        }
        let known = |c: Sym| (!placeholders.contains(&c)).then_some(c);
        let fixed_order = groups.iter().enumerate().all(|(i, a)| {
            (groups[i + 1..].iter()).all(|b| a.key.cmp_rendered(&b.key, known).is_some())
        });
        if fixed_order {
            groups.sort_by(|a, b| a.key.cmp_rendered(&b.key, known).expect("fixed"));
        }
        Program {
            stats: compiled.stats(),
            truncated: compiled.truncated,
            groups,
            fixed_order,
        }
    }

    /// Phase 2 of every update kind (Prop. 3), with the placeholders
    /// bound by `binding`: enumerate each group's ground triggers once
    /// through `triggers` (a rule update filters its propagation's flips, the Lloyd–Topor
    /// baseline scans `new`, the checker asks `delta`), and evaluate every
    /// instance they bind against `updated`, each distinct ground
    /// instance once (§3.2's global evaluation). A ground formula is
    /// built only for a violation. Counts groups and instances into
    /// `stats`; the trigger source counts its own [`DeltaStats`].
    pub(crate) fn run<F>(
        &self,
        mut binding: Subst,
        constraints: &[Constraint],
        updated: &dyn Interp,
        mut triggers: F,
        stats: &mut CheckStats,
    ) -> Vec<Violation>
    where
        F: FnMut(&Literal) -> Rc<Vec<Literal>>,
    {
        let mut order: Vec<&Group> = self.groups.iter().collect();
        if !self.fixed_order {
            let constant = |c| Some(binding.get(c).and_then(Term::as_const).unwrap_or(c));
            order.sort_by(|a, b| a.key.cmp_rendered(&b.key, constant).expect("all known"));
        }
        stats.trigger_groups = order.len();

        // Verdicts are cached across groups, so `instances_evaluated` =
        // distinct ground instances and `instances_shared` = re-occurrences.
        let mut verdicts: HashMap<(usize, Vec<Sym>), bool> = HashMap::new();
        let mut violations = Vec::new();
        let mut trail = Vec::new();
        for group in order {
            for answer in triggers(&binding.apply_literal(&group.trigger)).iter() {
                let fact = answer.atom.to_fact().expect("triggers are ground");
                for member in &group.members {
                    if extend_match(&mut binding, &member.trigger, &fact.args, &mut trail) {
                        debug_assert!(
                            member.instance.apply(&binding)
                                == member.instance.map_atoms(&mut |a| binding.apply_atom(a)),
                            "a ground instance is its skeleton filled"
                        );
                        let hole = |&t| binding.walk(t).as_const().expect("holes are bound");
                        let key = (member.skeleton, member.holes.iter().map(hole).collect());
                        let holds = match verdicts.get(&key) {
                            Some(&v) => {
                                stats.instances_shared += 1;
                                v
                            }
                            None => {
                                stats.instances_evaluated += 1;
                                let v = member.lowered.satisfies(updated, &mut binding);
                                verdicts.insert(key, v);
                                v
                            }
                        };
                        if !holds {
                            violations.push(Violation {
                                constraint: constraints[member.constraint].name.clone(),
                                culprit: Some(answer.clone()),
                                instance: member.instance.apply(&binding),
                            });
                        }
                    }
                    for v in trail.drain(..) {
                        binding.unbind(v);
                    }
                }
            }
        }
        violations
    }
}

/// The ground instances of `pattern` that `state` holds and `keep`
/// accepts: the trigger source of the checks that scan a whole state.
pub(crate) fn scan_triggers(
    pattern: &Literal,
    state: &dyn Interp,
    keep: impl Fn(&Fact) -> bool,
) -> Rc<Vec<Literal>> {
    let bound: Vec<Option<Sym>> = pattern.atom.args.iter().map(|t| t.as_const()).collect();
    let mut out = Vec::new();
    state.scan(pattern.atom.pred, &bound, &mut |args| {
        let f = Fact::new(pattern.atom.pred, args.to_vec());
        if match_atom(&pattern.atom, &f).is_some() && keep(&f) {
            out.push(Literal::new(pattern.positive, f.to_atom()));
        }
        true
    });
    Rc::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::parse_literal;

    fn upd(src: &str) -> Update {
        Update::from_literal(&parse_literal(src).unwrap()).unwrap()
    }

    fn db(src: &str) -> Database {
        let db = Database::parse(src).unwrap();
        assert!(db.is_consistent(), "fixtures must start consistent");
        db
    }

    #[test]
    fn relational_accept_and_reject() {
        // C1: ∀X ¬p(X) ∨ q(X).
        let d = db("q(a). constraint c1: forall X: p(X) -> q(X).");
        let checker = Checker::new(&d);
        assert!(checker.check_update(&upd("p(a)")).satisfied);
        let rep = checker.check_update(&upd("p(b)"));
        assert!(!rep.satisfied);
        assert_eq!(rep.violations[0].constraint, "c1");
        assert_eq!(
            rep.violations[0].culprit,
            Some(parse_literal("p(b)").unwrap())
        );
    }

    #[test]
    fn deletion_violates_existential() {
        let d = db("employee(a). constraint lively: exists X: employee(X).");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("not employee(a)"));
        assert!(!rep.satisfied);
        // Deleting when another employee remains is fine.
        let d2 = db("employee(a). employee(b). constraint lively: exists X: employee(X).");
        assert!(
            Checker::new(&d2)
                .check_update(&upd("not employee(a)"))
                .satisfied
        );
    }

    #[test]
    fn induced_update_triggers_constraint() {
        // §3.2 running example: enrolled derived from student; the
        // constraint is violated through the *induced* insertion.
        let d = db("
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
        ");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("student(jack)"));
        assert!(!rep.satisfied);
        // With the attends fact present the same update is accepted.
        let d2 = db("
            attends(jack, ddb).
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
        ");
        assert!(
            Checker::new(&d2)
                .check_update(&upd("student(jack)"))
                .satisfied
        );
    }

    #[test]
    fn noop_updates_are_always_safe() {
        let d = db("p(a). constraint c: forall X: p(X) -> q(X). q(a).");
        let checker = Checker::new(&d);
        // Re-inserting an existing fact: Def. 1 no-op; no evaluation.
        let rep = checker.check_update(&upd("p(a)"));
        assert!(rep.satisfied);
        assert_eq!(rep.stats.instances_evaluated, 0);
        // Deleting an absent fact likewise.
        assert!(checker.check_update(&upd("not p(zzz)")).satisfied);
    }

    #[test]
    fn irrelevant_updates_cheap() {
        let d = db("q(a). constraint c1: forall X: p(X) -> q(X).");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("r(zzz)"));
        assert!(rep.satisfied);
        assert_eq!(rep.stats.update_constraints, 0);
        assert_eq!(rep.stats.instances_evaluated, 0);
    }

    #[test]
    fn deletion_restores_consistency_direction() {
        // Deleting p(b) from an inconsistent state is outside the method's
        // contract (precondition: D consistent), but deleting q(a) from a
        // consistent one must be caught.
        let d = db("p(a). q(a). constraint c1: forall X: p(X) -> q(X).");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("not q(a)"));
        assert!(!rep.satisfied);
        assert!(checker.check_update(&upd("not p(a)")).satisfied);
    }

    #[test]
    fn transaction_net_effect_checked_atomically() {
        let d = db("q(a). constraint c1: forall X: p(X) -> q(X).");
        let checker = Checker::new(&d);
        // Insert p(b) and its justification q(b) together: fine.
        let tx = Transaction::new(vec![upd("p(b)"), upd("q(b)")]);
        assert!(checker.check(&tx).satisfied);
        // Insert p(b) but also delete q(a): two independent violations…
        let tx2 = Transaction::new(vec![upd("p(b)")]);
        assert!(!checker.check(&tx2).satisfied);
        // Cancel inside the transaction: no net change, satisfied.
        let tx3 = Transaction::new(vec![upd("p(b)"), upd("not p(b)")]);
        let rep = checker.check(&tx3).satisfied;
        assert!(rep);
    }

    #[test]
    fn recursive_rules_supported() {
        let d = db("
            edge(a,b). edge(b,c).
            tc(X,Y) :- edge(X,Y).
            tc(X,Z) :- tc(X,Y), edge(Y,Z).
            constraint noloop: forall X: tc(X,X) -> false.
        ");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("edge(c,d)"));
        assert!(rep.satisfied);
        assert_eq!(rep.stats.new_materializations, 0);
        let rep = checker.check_update(&upd("edge(c,a)"));
        assert!(!rep.satisfied, "closing the cycle creates tc(a,a)");
        assert!(rep.stats.delta.propagation.derived > 0, "{:?}", rep.stats);
        assert_eq!(rep.stats.new_materializations, 0);
    }

    #[test]
    fn agrees_with_full_recheck_on_examples() {
        let d = db("
            emp(a). emp(b). dept(d). assign(a,d). assign(b,d).
            works(X) :- assign(X,Y), dept(Y).
            constraint busy: forall X: emp(X) -> (exists Y: assign(X,Y)).
        ");
        let checker = Checker::new(&d);
        for update in [
            "assign(b,e)",
            "not assign(a,d)",
            "emp(c)",
            "not emp(b)",
            "dept(e)",
        ] {
            let u = upd(update);
            let fast = checker.check_update(&u).satisfied;
            // Oracle: apply on a copy and fully re-check.
            let mut copy = d.clone();
            copy.apply(&u).unwrap();
            let slow = copy.is_consistent();
            assert_eq!(fast, slow, "divergence on {update}");
        }
    }

    #[test]
    fn shared_evaluation_reduces_work() {
        // Two constraints relevant to the same update with the same
        // simplified instance body.
        let d = db("
            enrolled(X, cs) :- student(X).
            constraint a: forall X: student(X) -> attends(X, ddb).
            constraint b: forall X: enrolled(X, cs) -> attends(X, ddb).
        ");
        let tx = Transaction::single(upd("student(jack)"));
        let rep = Checker::new(&d).check(&tx);
        assert!(!rep.satisfied);
        assert!(rep.stats.instances_shared > 0, "stats: {:?}", rep.stats);
        // §3.2 drawback 2: the interleaved method evaluates every
        // instance independently, so it pays for the duplicate.
        let independent = crate::interleaved_check(&d, &tx);
        assert!(!independent.satisfied);
        assert!(independent.stats.instances_evaluated > rep.stats.instances_evaluated);
    }

    /// The work of one check, not just its verdict, on fixed fixtures:
    /// the two-phase check, a rule update and the Lloyd–Topor baseline
    /// all run the one evaluation loop. In both `SCHOOL` checks the
    /// violations of constraints `a` and `b` fall in two trigger groups
    /// (`+enrolled`, `+student`) and share the ground instance
    /// `qualified(jack)`, and the three `noloop` violations share
    /// `false`: the verdict cache and the group order both show. The
    /// values were recorded before the loops were merged.
    #[test]
    fn check_work_is_pinned() {
        use crate::delta::DeltaStats;
        use crate::rule_update::RuleUpdate;
        use uniform_datalog::PropagationStats;
        use uniform_logic::parse_rule;

        const SCHOOL: &str = "
            student(amy). attends(amy, ddb). mentor(bob, amy). tutor(bob).
            course(ai). attends(amy, ai). edge(a, b). edge(b, c).
            enrolled(X, cs) :- student(X).
            qualified(X) :- attends(X, ddb).
            guided(X) :- mentor(Y, X), tutor(Y).
            active(Y) :- tutor(Y).
            taught(X) :- attends(X, C), course(C).
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            constraint a: forall X: student(X) -> qualified(X).
            constraint b: forall X: enrolled(X, cs) -> qualified(X).
            constraint g: forall X, Y: mentor(Y, X) -> guided(X) & active(Y).
            constraint t: forall X: taught(X) -> qualified(X).
            constraint noloop: forall X: tc(X, X) -> false.
        ";
        fn rendered(report: &CheckReport) -> Vec<String> {
            report
                .violations
                .iter()
                .map(|v| {
                    let culprit = v.culprit.as_ref().expect("incremental checks name one");
                    format!("{} {culprit} {}", v.constraint, v.instance)
                })
                .collect()
        }
        let school_violations = [
            "b enrolled(jack,cs) qualified(jack)",
            "a student(jack) qualified(jack)",
            "noloop tc(a,a) false",
            "noloop tc(b,b) false",
            "noloop tc(c,c) false",
        ];

        let d = db(SCHOOL);
        let tx = Transaction::new(
            [
                "student(jack)",
                "mentor(bob, jack)",
                "mentor(bob, jill)",
                "edge(c, a)",
                "course(ddb)",
            ]
            .map(upd)
            .to_vec(),
        );
        let report = Checker::new(&d).check(&tx);
        let expected = CheckStats {
            potential_updates: 10,
            update_constraints: 8,
            trigger_groups: 6,
            delta: DeltaStats {
                patterns_evaluated: 8,
                answers: 8,
                propagation: PropagationStats {
                    derived: 6,
                    ..PropagationStats::default()
                },
            },
            instances_evaluated: 6,
            instances_shared: 3,
            subquery_memo_hits: 5,
            new_materializations: 0,
        };
        assert_eq!(report.stats, expected);
        assert_eq!(rendered(&report), school_violations);

        // `new` also enumerates `taught(amy)`, which held before the
        // update: one more instance evaluated.
        let report = crate::lloyd_topor_check(&d, &tx);
        let expected = CheckStats {
            potential_updates: 10,
            update_constraints: 8,
            trigger_groups: 6,
            delta: DeltaStats {
                answers: 8,
                ..DeltaStats::default()
            },
            instances_evaluated: 7,
            instances_shared: 3,
            ..CheckStats::default()
        };
        assert_eq!(report.stats, expected);
        assert_eq!(rendered(&report), school_violations);

        let d = db("
            person(jack). student(amy). attends(amy, ddb).
            enrolled(X, cs) :- student(X).
            qualified(X) :- attends(X, ddb).
            constraint a: forall X: student(X) -> qualified(X).
            constraint b: forall X: enrolled(X, cs) -> qualified(X).
        ");
        let update = RuleUpdate::Add(parse_rule("student(X) :- person(X).").unwrap());
        let report = Checker::new(&d).check_rule_update(&update).unwrap();
        let expected = CheckStats {
            potential_updates: 2,
            update_constraints: 2,
            trigger_groups: 2,
            delta: DeltaStats {
                patterns_evaluated: 2,
                answers: 2,
                propagation: PropagationStats {
                    derived: 2,
                    ..PropagationStats::default()
                },
            },
            instances_evaluated: 1,
            instances_shared: 1,
            subquery_memo_hits: 0,
            new_materializations: 0,
        };
        assert_eq!(report.stats, expected);
        assert_eq!(rendered(&report), school_violations[..2]);
    }

    #[test]
    fn snapshot_checker_shares_the_pinned_model_by_reference() {
        // The `current` interpretation of the evaluation phase must be
        // the snapshot's pinned model Arc — with the commit pipeline's
        // maintained model installed, a per-check rematerialization here
        // would silently undo the whole maintenance win.
        let d = db("q(a). constraint c1: forall X: p(X) -> q(X).");
        let snap = d.snapshot();
        let checker = Checker::for_snapshot(&snap);
        assert!(Arc::ptr_eq(&checker.model(), &snap.model_arc()));
        // And checking does not clone it either: still the same Arc.
        let _ = checker.check_update(&upd("p(a)"));
        assert!(Arc::ptr_eq(&checker.model(), &snap.model_arc()));
    }

    #[test]
    fn snapshot_checker_agrees_and_survives_later_commits() {
        let mut d = db("q(a). constraint c1: forall X: p(X) -> q(X).");
        let snap = d.snapshot();
        // The live database moves on; the snapshot checker must not care.
        d.apply(&upd("not q(a)")).unwrap();
        let checker = Checker::for_snapshot(&snap);
        assert!(
            checker.check_update(&upd("p(a)")).satisfied,
            "q(a) holds at snapshot time"
        );
        assert!(!checker.check_update(&upd("p(b)")).satisfied);
        // Same update against the live state is now rejected.
        assert!(!Checker::new(&d).check_update(&upd("p(a)")).satisfied);
    }

    #[test]
    fn read_sets_cover_checked_relations_and_close_over_rules() {
        let d = db("
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
        ");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("student(jack)"));
        let reads: Vec<&str> = rep.reads.iter().map(|s| s.as_str()).collect();
        for needed in ["student", "enrolled", "attends"] {
            assert!(reads.contains(&needed), "missing {needed}: {reads:?}");
        }
        let mut sorted = reads.clone();
        sorted.sort();
        assert_eq!(reads, sorted, "read set must be name-sorted");
        // Irrelevant updates read only their own relation.
        let rep2 = checker.check_update(&upd("zzz(a)"));
        assert_eq!(
            rep2.reads.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            vec!["zzz"]
        );
        // No-op transactions still report the relations they probed.
        let rep3 = checker.check(&Transaction::new(vec![]));
        assert!(rep3.satisfied && rep3.reads.is_empty() && rep3.read_patterns.is_empty());
    }

    #[test]
    fn read_patterns_pin_the_updates_constants() {
        // The defining substitution (Def. 3) propagates `jack` into every
        // trigger and instance literal, and the closure propagates it
        // through the rule body — so every pattern of this check is fully
        // bound, and a concurrent write about `jill` is disjoint from all
        // of them.
        let d = db("
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
        ");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("student(jack)"));
        assert!(!rep.read_patterns.is_empty());
        let jack = Sym::new("jack");
        let jill = Sym::new("jill");
        for p in &rep.read_patterns {
            assert!(
                p.args.iter().all(|a| a.is_some()),
                "pattern not fully bound: {p:?}"
            );
            assert!(!p.args.contains(&Some(jill)));
        }
        // The rule-closure pattern student(jack) is present (reached from
        // the enrolled(jack, cs) trigger through the rule head).
        assert!(rep
            .read_patterns
            .iter()
            .any(|p| p.pred.as_str() == "student" && p.args == vec![Some(jack)]));
        // The relation-level projection matches the patterns.
        let from_patterns: BTreeSet<Sym> = rep.read_patterns.iter().map(|p| p.pred).collect();
        let reads: BTreeSet<Sym> = rep.reads.iter().copied().collect();
        assert_eq!(from_patterns, reads);
    }

    #[test]
    fn read_patterns_widen_only_genuinely_unbounded_accesses() {
        // An existential over assign leaves Y unbound: the check scans
        // assign at X=jack with the second position open, and dept at a
        // data-dependent key — unbounded. Both shapes must be reported
        // honestly: the former key-bound on position 0, the latter whole.
        let d = db("
            works(X) :- assign(X,Y), dept(Y).
            constraint busy: forall X: emp(X) -> works(X).
            dept(d). assign(a,d). emp(a).
        ");
        let checker = Checker::new(&d);
        let rep = checker.check_update(&upd("emp(jack)"));
        let jack = Sym::new("jack");
        let assign = rep
            .read_patterns
            .iter()
            .find(|p| p.pred.as_str() == "assign")
            .expect("assign is read through the works rule");
        assert_eq!(assign.args, vec![Some(jack), None]);
        let dept = rep
            .read_patterns
            .iter()
            .find(|p| p.pred.as_str() == "dept")
            .expect("dept is read through the works rule");
        assert_eq!(dept.args, vec![None], "join key is data-dependent");
    }

    #[test]
    fn compile_phase_is_fact_free() {
        // Compiling against a database whose EDB changes afterwards still
        // evaluates correctly: the compiled object depends only on rules
        // and constraints.
        let mut d = db("constraint c1: forall X: p(X) -> q(X).");
        let checker = Checker::new(&d);
        let compiled = checker.compile(&[parse_literal("p(a)").unwrap()]);
        assert_eq!(compiled.update_constraints.len(), 1);
        // Make q(a) true, then evaluate: satisfied.
        d.insert_fact(&uniform_logic::Fact::parse_like("q", &["a"]));
        let checker2 = Checker::new(&d);
        let rep = checker2.evaluate(&compiled, &Transaction::single(upd("p(a)")));
        assert!(rep.satisfied);
    }
}
