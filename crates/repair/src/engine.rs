//! The bounded repair search: subset-minimal EDB deltas restoring
//! consistency.
//!
//! The search is the §4 enforcement procedure — the kernel of
//! [`uniform_satisfiability::enforce`] — started from the stored facts
//! with the repair move set (the table in that module's docs): beside
//! insertion, a false atom may be made true through a rule body, a true
//! one false by deleting it and falsifying every remaining derivation,
//! a violating `∀`-instance by falsifying one of its range atoms; no
//! fresh constants, so repairs stay within the active domain, the space
//! is finite and matches the CQA convention.
//!
//! Both backends run on the state's *affected closure*
//! ([`RepairEngine::affected_closure`]): the relations and constraints
//! a subset-minimal repair can touch, with the whole state's active
//! domain. Their cost therefore tracks the inconsistent part, not the
//! database. Within it, violations are determined against the
//! *recomputed canonical model* of each candidate state, in full, at
//! every level (a delta is only recorded once a full determination of
//! the affected constraints finds nothing violated). Under
//! [`RepairBackend::Auto`] the search splits the scope further, into
//! the independent parts of its part key, one kernel run each.
//!
//! Every path from one level to the next applies at least one effective
//! EDB operation and no branch ever touches the same fact twice, so the
//! depth is bounded by the fact budget and the enumeration — unless the
//! branch limit cuts it — is exhaustive over repairs of at most
//! [`RepairOptions::max_changes`] operations. Candidates are collected,
//! filtered to the subset-minimal ones, verified, and reported in
//! deterministic (size, then name) order. Each minimal candidate is
//! verified where it can matter ([`RepairEngine::verifies`]): the
//! repaired state is one [`Hypothetical`] over the engine's base model,
//! evaluated on the scope's constraints for a whole-scope search, and
//! per part — the key variable bound to the part's constant — before
//! the part's repairs enter the product of a split one. The constraints
//! left out hold in the repaired state by the affected-closure
//! partition and the part-key theorem, so the search evaluates no
//! repair on the whole state (SAT still does, see `crate::sat`);
//! [`RepairEngine::repair_restores_consistency`] is that whole-state
//! oracle, which debug builds assert on every repair a search reports.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;
use uniform_datalog::{
    satisfies, satisfies_closed, solve_conjunction, FactSet, Hypothetical, Interp, Model, RuleSet,
    Snapshot, Transaction, Update,
};
use uniform_logic::{sort_by_name, Atom, Constraint, Fact, Literal, Rq, Subst, Sym, Term};
use uniform_obs::Obs;
use uniform_satisfiability::enforce::{self, consistent, violated, Enforcer, Limits, Moves, Tally};
use uniform_satisfiability::{SatChecker, SatOptions, SatOutcome, SolverStats};

use crate::sat::{self, PreferredRepair, RepairChooser};

/// Which enumeration engine [`RepairEngine::repairs`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairBackend {
    /// The bounded enforcement search (PR 4): goal-directed and
    /// exhaustive within its budgets, but exponential in the violation
    /// count — violation-dense states trip the branch limit.
    #[default]
    Search,
    /// The CAvSAT-style reduction: encode the active-domain repair
    /// space as clauses and enumerate subset-minimal repairs by
    /// iterated SAT with blocking clauses over the bundled CDCL solver
    /// (see `crate::sat`).
    Sat,
    /// Run the search first; if it cannot prove coverage of all minimal
    /// repairs (budget trip, repair cap or domain clip), escalate to
    /// the SAT backend. A SAT failure other than a proven
    /// `Unrepairable` falls back to whatever the search produced.
    ///
    /// When the scope has a part key (see [`RepairStats::parts`]), the
    /// search runs the kernel once per violated part — the facts of one
    /// key constant, over the whole state's domain — and reports the
    /// product of the parts' minimal repairs: `n` independent violations
    /// cost `n` small searches instead of one tree over all of them.
    Auto,
}

/// Cost bounds of the repair search. They bound the search only: every
/// reported repair (and every SAT candidate) is verified, whatever the
/// options (see [`RepairEngine::verifies`]).
#[derive(Clone, Copy, Debug)]
pub struct RepairOptions {
    /// Fact budget: the maximum number of EDB operations per repair.
    /// The enumeration is exhaustive over repairs of at most this many
    /// operations; larger repairs are never explored.
    pub max_changes: usize,
    /// Branch limit: the maximum number of enforcement nodes explored
    /// before the search gives up with
    /// [`RepairError::BudgetExhausted`]. A search split into parts
    /// (under [`RepairBackend::Auto`]) shares it across the parts, while
    /// `max_changes` bounds each part and each union of them.
    pub max_branches: usize,
    /// Cap on distinct candidate repairs collected; hitting it marks
    /// the report incomplete.
    pub max_repairs: usize,
    /// Cap on active-domain instantiations per existential node or rule
    /// body; exceeding it skips the alternative and marks the report
    /// incomplete.
    pub domain_cap: usize,
    /// Which enumeration engine to run. For the SAT backend,
    /// `max_branches` bounds solver *conflicts* instead of enforcement
    /// nodes — the same "give up, typed" contract at the same order of
    /// magnitude of work.
    pub backend: RepairBackend,
}

impl Default for RepairOptions {
    fn default() -> RepairOptions {
        RepairOptions {
            max_changes: 4,
            max_branches: 100_000,
            max_repairs: 256,
            domain_cap: 256,
            backend: RepairBackend::Search,
        }
    }
}

/// Why no repair set could be reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The bounded search was cut short — branch limit, repair cap or
    /// domain cap — before any repair could be established. Raising
    /// the limits in [`RepairOptions`] may help.
    BudgetExhausted {
        /// Enforcement nodes explored when the search stopped.
        explored: usize,
        /// The configured branch limit.
        max_branches: usize,
        /// Whether the fact budget also pruned branches (a hint that
        /// `max_changes` is too small as well).
        budget_clipped: bool,
    },
    /// The exhaustive search (within the fact budget and the active
    /// domain) found no repair.
    Unrepairable {
        /// The satisfiability search proved that *no* database state at
        /// all satisfies the constraints — repairing is hopeless no
        /// matter the budget.
        schema_unsatisfiable: bool,
        /// Branches were pruned by the fact budget: a repair larger
        /// than `max_changes` may still exist.
        budget_clipped: bool,
    },
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::BudgetExhausted {
                explored,
                max_branches,
                budget_clipped,
            } => {
                write!(
                    f,
                    "repair search budget exhausted after {explored} nodes (branch limit {max_branches}{})",
                    if *budget_clipped {
                        ", fact budget also clipped branches"
                    } else {
                        ""
                    }
                )
            }
            RepairError::Unrepairable {
                schema_unsatisfiable,
                budget_clipped,
            } => {
                if *schema_unsatisfiable {
                    write!(
                        f,
                        "unrepairable: the constraints and rules admit no database state at all"
                    )
                } else if *budget_clipped {
                    write!(
                        f,
                        "no repair within the fact budget (a larger repair may exist)"
                    )
                } else {
                    write!(f, "no repair within the active domain")
                }
            }
        }
    }
}

impl std::error::Error for RepairError {}

/// One repair: a set of EDB operations (insertions and deletions) whose
/// application restores every constraint. Canonically ordered by
/// (predicate name, argument names, deletion-before-insertion), so two
/// equal repairs compare and hash equal regardless of discovery order.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RepairSet {
    ops: Vec<Update>,
}

/// The canonical operation order: predicate name, then argument names
/// (lexicographically), then deletion before insertion. Compares the
/// interned names in place.
pub(crate) fn op_cmp(a: &Update, b: &Update) -> Ordering {
    let [x, y] = [a, b].map(|u| u.fact.args.iter().map(|s| s.as_str()));
    a.fact
        .pred
        .as_str()
        .cmp(b.fact.pred.as_str())
        .then_with(|| x.cmp(y))
        .then(a.insert.cmp(&b.insert))
}

impl RepairSet {
    /// The empty repair (of an already-consistent state).
    pub fn empty() -> RepairSet {
        RepairSet { ops: Vec::new() }
    }

    /// Build from operations; canonicalizes the order.
    pub fn from_ops(ops: impl IntoIterator<Item = Update>) -> RepairSet {
        let mut ops: Vec<Update> = ops.into_iter().collect();
        ops.sort_by(op_cmp);
        ops.dedup();
        RepairSet { ops }
    }

    /// The operations, canonically ordered.
    pub fn ops(&self) -> &[Update] {
        &self.ops
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Is every operation of `self` also in `other`?
    pub fn is_subset_of(&self, other: &RepairSet) -> bool {
        self.ops.iter().all(|op| other.ops.contains(op))
    }

    /// Both repairs' operations together.
    pub(crate) fn union(&self, other: &RepairSet) -> RepairSet {
        RepairSet::from_ops(self.ops.iter().chain(&other.ops).cloned())
    }

    /// The repair as an overlay delta `(insertions, deletions)` for
    /// [`uniform_datalog::OverlayEngine::over_model`].
    pub fn overlay(&self) -> (Vec<Fact>, Vec<Fact>) {
        let mut adds = Vec::new();
        let mut dels = Vec::new();
        for op in &self.ops {
            if op.insert {
                adds.push(op.fact.clone());
            } else {
                dels.push(op.fact.clone());
            }
        }
        (adds, dels)
    }

    /// The repair as a transaction (for folding into a commit).
    pub fn to_transaction(&self) -> Transaction {
        Transaction::new(self.ops.clone())
    }

    /// Apply to a copy of `edb`.
    pub fn apply_to(&self, edb: &FactSet) -> FactSet {
        let mut out = edb.clone();
        for op in &self.ops {
            op.apply(&mut out);
        }
        out
    }
}

impl PartialOrd for RepairSet {
    fn partial_cmp(&self, other: &RepairSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Size first, then the canonical op order, operation by operation.
impl Ord for RepairSet {
    fn cmp(&self, other: &RepairSet) -> Ordering {
        self.ops.len().cmp(&other.ops.len()).then_with(|| {
            let pairs = self.ops.iter().zip(&other.ops);
            pairs
                .map(|(a, b)| op_cmp(a, b))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    }
}

impl fmt::Display for RepairSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "}}")
    }
}

/// Search counters, for tests, the benchmark and receipts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Enforcement nodes explored.
    pub explored: usize,
    /// Candidate states evaluated: the kernel's canonical-model
    /// computations under the search, the verified candidate change sets
    /// under SAT.
    pub models_computed: usize,
    /// Candidate repairs recorded before minimality filtering.
    pub candidates: usize,
    /// Deepest enforcement level reached.
    pub max_level: usize,
    /// Violated parts searched one by one: under
    /// [`RepairBackend::Auto`], a scope with a *part key* splits by key
    /// constant into independent parts (see the crate docs), and the
    /// other counters sum over the parts' kernel runs (`max_level` is
    /// their maximum). Zero when the scope was searched whole.
    pub parts: usize,
    /// Candidate repairs verified: each part's minimal repairs under a
    /// split search (their sum, not their product), the minimal
    /// candidates of a whole-scope search, the change sets SAT checked
    /// (see [`RepairEngine::verifies`]).
    pub verified: usize,
    /// SAT-solver effort counters; all zero under the search backend.
    pub solver: SolverStats,
}

/// Result of a successful repair enumeration.
#[derive(Clone, Debug)]
pub struct RepairReport {
    /// The subset-minimal repairs, in (size, name) order. Never empty:
    /// a consistent state reports the single empty repair.
    pub repairs: Vec<RepairSet>,
    pub stats: RepairStats,
    /// `true` iff the enumeration was exhaustive over repairs of at
    /// most [`RepairOptions::max_changes`] operations within the active
    /// domain. Branch or repair caps and domain-cap skips clear it.
    pub complete: bool,
    /// `true` iff the fact budget pruned at least one branch — a
    /// minimal repair *larger* than `max_changes` may exist and be
    /// missing from `repairs`. Certain-answer semantics need
    /// `complete && !budget_clipped` (see
    /// [`RepairReport::covers_all_minimal_repairs`]): intersecting over
    /// a strict subset of the minimal repairs would claim uncertain
    /// answers certain.
    pub budget_clipped: bool,
}

impl RepairReport {
    /// The preferred repair: smallest, ties broken by name order.
    pub fn best(&self) -> &RepairSet {
        &self.repairs[0]
    }

    /// Is `repairs` provably the set of **all** minimal repairs — not
    /// just those within the fact budget? True exactly when the search
    /// was exhaustive and no branch was ever cut by the budget (then
    /// every minimal repair, of any size, was realized by some branch).
    /// This is the precondition for certain-answer semantics.
    pub fn covers_all_minimal_repairs(&self) -> bool {
        self.complete && !self.budget_clipped
    }
}

/// What both backends enumerate over: the part of the engine's state a
/// subset-minimal repair can touch (see
/// [`RepairEngine::affected_closure`]). Built once per enumeration.
pub(crate) struct Scope {
    /// The facts of the affected relations, sharing the engine's
    /// relations in the engine's order.
    pub(crate) facts: FactSet,
    /// The relations of the closure.
    relations: BTreeSet<Sym>,
    /// The constraints inside the closure, in registration order.
    pub(crate) constraints: Vec<Constraint>,
    /// The whole state's active domain, name-sorted: repairs stay
    /// within the constants of the state they repair.
    pub(crate) domain: Vec<Sym>,
}

impl Scope {
    /// Does `repair` repair the scope? Its ops lie in the scope's
    /// relations, and every scope constraint holds in `state` with
    /// `repair` composed in. The constraints outside the scope read none
    /// of those relations and hold in `state` (see
    /// [`RepairEngine::affected_closure`]), so they hold after it too.
    fn verifies(&self, state: &Hypothetical, repair: &RepairSet) -> bool {
        let inside = |op: &Update| self.relations.contains(&op.fact.pred);
        repair.ops().iter().all(inside) && consistent(&state.then(repair.ops()), &self.constraints)
    }
}

/// The leaves of one kernel run.
struct KernelRun {
    /// Every leaf delta, as a repair set, in (size, name) order.
    found: BTreeSet<RepairSet>,
    tally: Tally,
    /// The repair cap stopped the run.
    capped: bool,
}

impl KernelRun {
    /// Was the run exhaustive over repairs within the fact budget?
    fn complete(&self) -> bool {
        !self.tally.node_limit_hit && !self.capped && !self.tally.domain_clipped
    }
}

/// Placements a part-key derivation may try before it gives up and the
/// scope is searched whole.
const KEY_STEPS: usize = 4096;

/// A scope's *part key*: one argument position per predicate, such that
///
/// * every scope constraint binds, in its outermost `∀`, a variable
///   that sits at the key position of each of its atoms (nested
///   quantifiers and negated atoms included), and
/// * every rule defining a predicate the constraints reach has one
///   variable at the key position of its head and of every body atom.
///
/// Then no ground rule or constraint instance mixes two key constants:
/// the canonical model splits by the constant at the key position, a
/// constraint holds exactly when it holds on each key constant's facts
/// alone, and a repair is minimal exactly when its operations on each
/// key constant are a minimal repair of that constant's facts. The
/// minimal repairs of the scope are the product of its violated parts'.
struct PartKey {
    /// The key position of every predicate of the scope.
    position: HashMap<Sym, usize>,
    /// Per scope constraint, the outer `∀` variable at the key position.
    vars: Vec<Sym>,
}

/// A variable to choose for some atoms: one of `vars` must sit at the
/// key position of every atom of the list.
type Duty<'r> = (Vec<Sym>, Vec<&'r Atom>);

impl PartKey {
    /// The key of the scope of `constraints` under `rules`, if it has
    /// one. The first key found in a fixed order — constraints, then
    /// rules, each in order, variables in binding order, positions
    /// ascending — is taken.
    fn of(rules: &RuleSet, constraints: &[Constraint]) -> Option<PartKey> {
        if constraints.is_empty() {
            return None;
        }
        let mut duties: Vec<Duty> = Vec::new();
        for c in constraints {
            let Rq::Forall { vars, range, body } = &c.rq else {
                return None;
            };
            let mut atoms: Vec<&Atom> = range.iter().collect();
            let mut rebound: Vec<Sym> = Vec::new();
            inner_atoms(body, &mut atoms, &mut rebound);
            let outer = vars.iter().filter(|v| !rebound.contains(v));
            duties.push((outer.copied().collect(), atoms));
        }
        let graph = rules.graph();
        let reached: BTreeSet<Sym> = constraints
            .iter()
            .flat_map(|c| c.rq.literals())
            .flat_map(|occ| graph.reachable(occ.literal.atom.pred))
            .collect();
        for rule in rules.rules() {
            if reached.contains(&rule.head.pred) {
                let body = rule.body.iter().map(|l| &l.atom);
                let atoms = std::iter::once(&rule.head).chain(body).collect();
                duties.push((rule.head.vars().collect(), atoms));
            }
        }
        let mut key = PartKey {
            position: HashMap::new(),
            vars: Vec::new(),
        };
        let mut steps = KEY_STEPS;
        if !key.choose(&duties, &mut steps) {
            return None;
        }
        key.vars.truncate(constraints.len());
        Some(key)
    }

    /// Choose a variable for each duty in order, fixing the key position
    /// of every predicate where it is first met; `false` when no choice
    /// fits (or the steps ran out), with nothing left fixed.
    fn choose(&mut self, duties: &[Duty], steps: &mut usize) -> bool {
        let Some(((vars, atoms), rest)) = duties.split_first() else {
            return true;
        };
        for &var in vars {
            self.vars.push(var);
            if self.place(atoms, var, steps, &mut |key, steps| key.choose(rest, steps)) {
                return true;
            }
            self.vars.pop();
        }
        false
    }

    /// Put `var` at the key position of every atom of `atoms`, then run
    /// `k`; undo on failure.
    fn place(
        &mut self,
        atoms: &[&Atom],
        var: Sym,
        steps: &mut usize,
        k: &mut dyn FnMut(&mut PartKey, &mut usize) -> bool,
    ) -> bool {
        let Some((atom, rest)) = atoms.split_first() else {
            return k(self, steps);
        };
        if *steps == 0 {
            return false;
        }
        *steps -= 1;
        let holds_var = |i: usize| atom.args[i] == Term::Var(var);
        if let Some(&i) = self.position.get(&atom.pred) {
            return holds_var(i) && self.place(rest, var, steps, k);
        }
        for i in (0..atom.args.len()).filter(|&i| holds_var(i)) {
            self.position.insert(atom.pred, i);
            if self.place(rest, var, steps, k) {
                return true;
            }
        }
        self.position.remove(&atom.pred);
        false
    }

    /// Does `repair` repair the violated part at `key`? Every op holds
    /// `key` at its predicate's key position, and every scope
    /// constraint, its key variable bound to `key`, holds in `state` with
    /// `repair` composed in. The other parts' instances see none of
    /// those ops, so a union of such repairs, one per violated part, is
    /// a repair of the scope.
    fn verifies(&self, state: &Hypothetical, scope: &Scope, key: Sym, repair: &RepairSet) -> bool {
        let at_key = |op: &Update| {
            let at = self.position.get(&op.fact.pred);
            at.is_some_and(|&i| op.fact.args[i] == key)
        };
        if !repair.ops().iter().all(at_key) {
            return false;
        }
        let repaired = state.then(repair.ops());
        scope.constraints.iter().zip(&self.vars).all(|(c, &var)| {
            let mut at = Subst::new();
            at.bind(var, Term::Const(key));
            satisfies(&repaired, &c.rq, &mut at)
        })
    }

    /// The scope's facts of every key constant with a violated instance
    /// in `model` — derived facts included, as the model holds them —
    /// one fact set per constant, with the constant, in name order.
    fn violated_parts(&self, model: &dyn Interp, scope: &Scope) -> Vec<(Sym, FactSet)> {
        let mut keys: Vec<Sym> = Vec::new();
        for (c, &var) in scope.constraints.iter().zip(&self.vars) {
            let Rq::Forall { range, body, .. } = &c.rq else {
                unreachable!("a keyed constraint is a ∀");
            };
            let lits: Vec<Literal> = range.iter().map(|a| a.clone().pos()).collect();
            solve_conjunction(model, &lits, &mut Subst::new(), &mut |s| {
                if !satisfies_closed(model, &body.apply(s)) {
                    keys.extend(s.walk(Term::Var(var)).as_const());
                }
                true
            });
        }
        sort_by_name(&mut keys);
        let slot: HashMap<Sym, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut parts: Vec<(Sym, FactSet)> = keys.iter().map(|&k| (k, FactSet::new())).collect();
        for fact in scope.facts.iter() {
            let at = self.position.get(&fact.pred);
            let key = fact.args[*at.expect("every relation of the scope has a key position")];
            if let Some(&i) = slot.get(&key) {
                parts[i].1.insert(&fact);
            }
        }
        parts
    }
}

/// The subset-minimal candidates of a run that verify under `sound`, in
/// (size, name) order: `found` is ordered smallest-first, so every
/// proper subset of a candidate precedes it. Each minimal candidate is
/// verified once and counted in `stats.verified`; one that fails is a
/// kernel fault (debug builds panic) and is dropped.
fn minimal_verified(
    run: &KernelRun,
    stats: &mut RepairStats,
    sound: impl Fn(&RepairSet) -> bool,
) -> Vec<RepairSet> {
    let mut minimal: Vec<RepairSet> = Vec::new();
    for cand in &run.found {
        if minimal.iter().any(|kept| kept.is_subset_of(cand)) {
            continue;
        }
        stats.verified += 1;
        if !sound(cand) {
            debug_assert!(false, "unsound candidate repair: {cand}");
            continue;
        }
        minimal.push(cand.clone());
    }
    minimal
}

/// Every atom below a constraint's outer `∀`, and the variables the
/// quantifiers there bind.
fn inner_atoms<'r>(rq: &'r Rq, atoms: &mut Vec<&'r Atom>, bound: &mut Vec<Sym>) {
    match rq {
        Rq::True | Rq::False => {}
        Rq::Lit(l) => atoms.push(&l.atom),
        Rq::And(gs) | Rq::Or(gs) => {
            for g in gs {
                inner_atoms(g, atoms, bound);
            }
        }
        Rq::Forall { vars, range, body } | Rq::Exists { vars, range, body } => {
            bound.extend(vars);
            atoms.extend(range);
            inner_atoms(body, atoms, bound);
        }
    }
}

/// The repair engine for one (inconsistent) database state. See the
/// crate docs.
pub struct RepairEngine {
    /// The engine's state as a hypothetical over a base state's model: a
    /// snapshot's model with a transaction's net update for
    /// [`RepairEngine::for_update`], a snapshot's model alone for
    /// [`RepairEngine::for_snapshot`], and a model computed from loose
    /// parts for [`RepairEngine::new`].
    state: Hypothetical,
    constraints: Vec<Constraint>,
    options: RepairOptions,
    /// Observability domain for `repair.run` spans, `repair.latency.*`
    /// histograms and `repair.*` effort counters; `None` runs silent.
    obs: Option<Arc<Obs>>,
}

impl RepairEngine {
    pub fn new(
        edb: FactSet,
        rules: impl Into<Arc<RuleSet>>,
        constraints: Vec<Constraint>,
    ) -> RepairEngine {
        let rules = rules.into();
        let model = Arc::new(Model::compute(&edb, &rules));
        RepairEngine::over(Hypothetical::new(model, edb, rules), constraints)
    }

    fn over(state: Hypothetical, constraints: Vec<Constraint>) -> RepairEngine {
        RepairEngine {
            state,
            constraints,
            options: RepairOptions::default(),
            obs: None,
        }
    }

    /// The state a snapshot pins, as a hypothetical with no update.
    fn pinned(snapshot: &Snapshot) -> Hypothetical {
        let rules = snapshot.schema().rules_arc().clone();
        Hypothetical::new(snapshot.model_arc(), snapshot.facts().clone(), rules)
    }

    /// Repair the state a snapshot pins, reading the snapshot's model.
    pub fn for_snapshot(snapshot: &Snapshot) -> RepairEngine {
        let constraints = snapshot.constraints().to_vec();
        RepairEngine::over(RepairEngine::pinned(snapshot), constraints)
    }

    /// Repair the *would-be* state `U(D)`: the snapshot's model with the
    /// transaction's net effect propagated on top. This is how a commit
    /// pipeline turns a violating transaction's [`CheckReport`] into a
    /// repair — the reported violations are exactly the violations of
    /// this state.
    ///
    /// [`CheckReport`]: uniform_integrity::CheckReport
    pub fn for_update(snapshot: &Snapshot, tx: &Transaction) -> RepairEngine {
        let state = RepairEngine::pinned(snapshot).then(&tx.updates);
        RepairEngine::over(state, snapshot.constraints().to_vec())
    }

    pub fn with_options(mut self, options: RepairOptions) -> RepairEngine {
        self.options = options;
        self
    }

    /// Report runs into an observability domain: every
    /// [`RepairEngine::repairs`] call records a `repair.run` span
    /// (tagged with the backend), its latency into
    /// `repair.latency.<backend>`, and the search/solver effort
    /// counters under `repair.search.*` / `repair.sat.*`.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> RepairEngine {
        self.obs = Some(obs);
        self
    }

    pub fn options(&self) -> &RepairOptions {
        &self.options
    }

    pub fn rules(&self) -> &RuleSet {
        self.state.base().2
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The engine's state as a [`Hypothetical`] over its base state's
    /// model (see [`RepairEngine::for_update`]); for an engine built by
    /// [`RepairEngine::new`], the base is the state itself.
    pub fn state(&self) -> &Hypothetical {
        &self.state
    }

    /// Names of the constraints violated in the engine's state.
    pub fn violations(&self) -> Vec<String> {
        violated(self.state(), &self.constraints)
            .map(|c| c.name.clone())
            .collect()
    }

    /// Enumerate the subset-minimal repairs with the configured
    /// backend. A consistent state yields the single empty repair.
    pub fn repairs(&self) -> Result<RepairReport, RepairError> {
        let [tag, latency, runs] = match self.options.backend {
            RepairBackend::Search => ["search", "repair.latency.search", "repair.runs.search"],
            RepairBackend::Sat => ["sat", "repair.latency.sat", "repair.runs.sat"],
            RepairBackend::Auto => ["auto", "repair.latency.auto", "repair.runs.auto"],
        };
        let _span = self
            .obs
            .as_ref()
            .map(|obs| obs.span_timed("repair.run", Some(tag), obs.histogram(latency)));
        let result = self.dispatch_backend();
        if let (Some(obs), Ok(report)) = (self.obs.as_ref(), &result) {
            obs.counter(runs).incr();
            let stats = &report.stats;
            obs.counter("repair.search.explored")
                .add(stats.explored as u64);
            obs.counter("repair.search.models_computed")
                .add(stats.models_computed as u64);
            obs.counter("repair.search.parts").add(stats.parts as u64);
            obs.counter("repair.search.verified")
                .add(stats.verified as u64);
            if stats.parts > 0 {
                obs.counter("repair.runs.split").incr();
            }
            obs.counter("repair.sat.decisions")
                .add(stats.solver.decisions);
            obs.counter("repair.sat.propagations")
                .add(stats.solver.propagations);
            obs.counter("repair.sat.conflicts")
                .add(stats.solver.conflicts);
            obs.counter("repair.sat.learned").add(stats.solver.learned);
            obs.counter("repair.sat.restarts")
                .add(stats.solver.restarts);
        }
        result
    }

    fn dispatch_backend(&self) -> Result<RepairReport, RepairError> {
        let scope = self.scope();
        match self.options.backend {
            RepairBackend::Search => self.search_repairs(&scope),
            RepairBackend::Sat => sat::sat_repairs(self, &scope),
            RepairBackend::Auto => match self.auto_search(&scope) {
                Ok(report) if report.covers_all_minimal_repairs() => Ok(report),
                outcome => match sat::sat_repairs(self, &scope) {
                    Ok(report) => Ok(report),
                    // A SAT-proven dead end beats a search "gave up".
                    Err(err @ RepairError::Unrepairable { .. }) => Err(err),
                    Err(_) => outcome,
                },
            },
        }
    }

    /// `Auto`'s search: split into the scope's parts when it has a part
    /// key, whole otherwise.
    fn auto_search(&self, scope: &Scope) -> Result<RepairReport, RepairError> {
        match PartKey::of(self.rules(), &scope.constraints) {
            Some(key) => self.split_repairs(scope, &key),
            None => self.search_repairs(scope),
        }
    }

    /// The bounded enforcement search (always available as the
    /// differential oracle for the SAT backend): the kernel with the
    /// repair move set on the scope, every leaf's delta collected.
    fn search_repairs(&self, scope: &Scope) -> Result<RepairReport, RepairError> {
        let o = &self.options;
        let run = self.kernel_run(scope, scope.facts.clone(), o.max_branches);
        let tally = run.tally;
        let mut stats = RepairStats {
            explored: tally.nodes,
            models_computed: tally.models_computed,
            candidates: run.found.len(),
            max_level: tally.max_level,
            ..RepairStats::default()
        };
        let minimal = minimal_verified(&run, &mut stats, |r| scope.verifies(self.state(), r));
        self.report(minimal, stats, run.complete(), tally.change_budget_hit)
    }

    /// The search split into the scope's parts (see [`PartKey`]): one
    /// kernel run per violated part, in key-constant name order, on the
    /// part's facts over the whole state's domain, the node budget
    /// shared and `max_changes` per part. The minimal repairs are the
    /// product of the parts': a union over `max_changes` is dropped
    /// (and clips the budget), and the product is capped at
    /// `max_repairs` in (size, name) order. That order is monotone
    /// under a union with ops of other parts, so keeping the
    /// `max_repairs` smallest partial products after each part keeps
    /// the smallest products overall. Each part's minimal repairs are
    /// verified for that part alone (see [`PartKey::verifies`]), so the
    /// product needs no verification of its own.
    fn split_repairs(&self, scope: &Scope, key: &PartKey) -> Result<RepairReport, RepairError> {
        let o = &self.options;
        let parts = key.violated_parts(self.state(), scope);
        let mut stats = RepairStats {
            parts: parts.len(),
            ..RepairStats::default()
        };
        let (mut complete, mut clipped) = (true, false);
        let mut product = vec![RepairSet::empty()];
        let last = parts.len().saturating_sub(1);
        for (i, (part, facts)) in parts.into_iter().enumerate() {
            let run = self.kernel_run(scope, facts, o.max_branches.saturating_sub(stats.explored));
            stats.explored += run.tally.nodes;
            stats.models_computed += run.tally.models_computed;
            stats.candidates += run.found.len();
            stats.max_level = stats.max_level.max(run.tally.max_level);
            complete &= run.complete();
            clipped |= run.tally.change_budget_hit;
            let minimal = minimal_verified(&run, &mut stats, |r| {
                key.verifies(self.state(), scope, part, r)
            });
            let mut next: Vec<RepairSet> = Vec::new();
            for partial in &product {
                for repair in &minimal {
                    if partial.len() + repair.len() > o.max_changes {
                        clipped = true;
                    } else {
                        next.push(partial.union(repair));
                    }
                }
            }
            next.sort();
            if next.len() > o.max_repairs {
                next.truncate(o.max_repairs);
                complete = false;
            }
            product = next;
            // A part the node budget cut off leaves the later ones
            // unsearched: no union of the parts so far is a repair.
            if run.tally.node_limit_hit && i < last {
                product.clear();
            }
            if product.is_empty() {
                break;
            }
        }
        self.report(product, stats, complete, clipped)
    }

    /// One kernel run with the repair move set from `facts`, inside the
    /// scope's constraints and domain: every leaf's delta, up to the
    /// repair cap.
    fn kernel_run(&self, scope: &Scope, facts: FactSet, max_nodes: usize) -> KernelRun {
        let o = &self.options;
        let mut found: BTreeSet<RepairSet> = BTreeSet::new();
        let mut capped = false;
        let mut kernel = Enforcer::new(
            self.rules(),
            &scope.constraints,
            facts,
            scope.domain.clone(),
            Moves::repair(),
            Limits {
                max_nodes,
                max_changes: o.max_changes,
                domain_cap: o.domain_cap,
            },
        );
        let _ = kernel.run(&mut |_, delta| {
            found.insert(RepairSet::from_ops(delta.iter().cloned()));
            capped = found.len() >= o.max_repairs;
            if capped {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        KernelRun {
            found,
            tally: kernel.tally,
            capped,
        }
    }

    /// The report of a search that found `repairs` (minimal and
    /// verified), or why it has none.
    fn report(
        &self,
        repairs: Vec<RepairSet>,
        stats: RepairStats,
        complete: bool,
        budget_clipped: bool,
    ) -> Result<RepairReport, RepairError> {
        debug_assert!(
            repairs.iter().all(|r| self.repair_restores_consistency(r)),
            "an unsound repair in {repairs:?}"
        );
        if repairs.is_empty() {
            if !complete {
                return Err(RepairError::BudgetExhausted {
                    explored: stats.explored,
                    max_branches: self.options.max_branches,
                    budget_clipped,
                });
            }
            return Err(RepairError::Unrepairable {
                schema_unsatisfiable: self.schema_unsatisfiable(),
                budget_clipped,
            });
        }
        Ok(RepairReport {
            repairs,
            stats,
            complete,
            budget_clipped,
        })
    }

    /// Does applying `repair` leave a state in which every constraint
    /// holds? The whole-state oracle: the repaired state is the engine's
    /// state with `repair` composed in, one hypothetical over the base
    /// model, and every constraint is evaluated on it, whatever the
    /// scope. The backends verify less (see [`RepairEngine::verifies`]);
    /// debug builds assert this on every repair a search reports, and
    /// SAT checks every candidate with it.
    pub fn repair_restores_consistency(&self, repair: &RepairSet) -> bool {
        consistent(&self.state().then(repair.ops()), &self.constraints)
    }

    /// The part key of the engine's repair scope (see the crate docs):
    /// the key position of every predicate of the scope, in name order;
    /// `None` when the scope has none and `Auto` searches it whole.
    pub fn part_key(&self) -> Option<Vec<(Sym, usize)>> {
        let scope = self.scope();
        let key = PartKey::of(self.rules(), &scope.constraints)?;
        let mut positions: Vec<(Sym, usize)> = key.position.into_iter().collect();
        positions.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        Some(positions)
    }

    /// The key constants of the violated parts of the engine's state, in
    /// name order, when its repair scope has a part key (see
    /// [`RepairStats::parts`]); `None` when it has none.
    pub fn violated_parts(&self) -> Option<Vec<Sym>> {
        let scope = self.scope();
        let key = PartKey::of(self.rules(), &scope.constraints)?;
        let parts = key.violated_parts(self.state(), &scope);
        Some(parts.into_iter().map(|(k, _)| k).collect())
    }

    /// The verification a search gives a minimal candidate before it
    /// reports it. With `part: None`, as a repair of the whole scope:
    /// every op lies in the affected closure's relations and every
    /// scope constraint holds in the repaired state. With `Some(key)`,
    /// as a split search's repair of the violated part at `key`: every
    /// op holds `key` at its predicate's key position and every scope
    /// constraint, its outer `∀` key variable bound to `key`, holds in
    /// the repaired state (`false` when the scope has no part key).
    ///
    /// For a repair whose ops lie in the scope, the scope verdict is
    /// [`RepairEngine::repair_restores_consistency`]'s; for one whose
    /// ops all lie at `key`, the part verdict is the oracle's on the
    /// repair joined with sound repairs of the other violated parts.
    pub fn verifies(&self, repair: &RepairSet, part: Option<Sym>) -> bool {
        let scope = self.scope();
        match part {
            None => scope.verifies(self.state(), repair),
            Some(k) => PartKey::of(self.rules(), &scope.constraints)
                .is_some_and(|key| key.verifies(self.state(), &scope, k, repair)),
        }
    }

    /// Each of `repairs` composed into the engine's state: the net
    /// update of the base state that reaches the repaired state.
    fn over_base(&self, repairs: &[RepairSet]) -> Vec<RepairSet> {
        let net = |r: &RepairSet| {
            let (adds, dels) = self.state().compose(r.ops());
            let dels = dels.into_iter().map(Update::delete);
            RepairSet::from_ops(adds.into_iter().map(Update::insert).chain(dels))
        };
        repairs.iter().map(net).collect()
    }

    /// Certain answers of a conjunctive query: the answers true in
    /// **every** minimal repair. Refuses (typed
    /// [`RepairError::BudgetExhausted`]) unless the enumeration
    /// provably covered all minimal repairs — in particular, when the
    /// fact budget clipped a branch, a minimal repair larger than
    /// `max_changes` may exist, and intersecting without it would claim
    /// uncertain answers certain.
    pub fn consistent_answers(
        &self,
        query: &[Literal],
    ) -> Result<Vec<Vec<(Sym, Sym)>>, RepairError> {
        let vars = crate::cqa::query_vars(query);
        let answers = |repairs: &[RepairSet]| {
            let (model, edb, rules) = self.state().base();
            let repairs = self.over_base(repairs);
            crate::cqa::certain_answers_bound(
                model,
                edb,
                rules,
                &repairs,
                query,
                &Subst::new(),
                &vars,
            )
        };
        match self.repairs_covering_all_minimal() {
            Ok(report) => Ok(answers(&report.repairs)),
            // The query cannot observe any relation a repair may touch:
            // its answers agree across all repairs (and with the
            // unrepaired state), clipped budget or not.
            Err(RepairError::BudgetExhausted { .. })
                if self.reads_outside_affected(query.iter().map(|l| l.atom.pred)) =>
            {
                Ok(answers(&[RepairSet::empty()]))
            }
            Err(err) => Err(err),
        }
    }

    /// Is the closed formula true in every minimal repair? Same
    /// coverage requirement as [`RepairEngine::consistent_answers`],
    /// with the same affected-closure exemption for formulas that read
    /// only unaffected relations.
    pub fn certainly_satisfies(&self, rq: &Rq) -> Result<bool, RepairError> {
        let holds = |repairs: &[RepairSet]| {
            let (model, edb, rules) = self.state().base();
            let repairs = self.over_base(repairs);
            let init = Subst::new();
            crate::cqa::certainly_satisfies_bound(model, edb, rules, &repairs, rq, &init)
        };
        match self.repairs_covering_all_minimal() {
            Ok(report) => Ok(holds(&report.repairs)),
            Err(RepairError::BudgetExhausted { .. })
                if self
                    .reads_outside_affected(rq.literals().iter().map(|o| o.literal.atom.pred)) =>
            {
                Ok(holds(&[RepairSet::empty()]))
            }
            Err(err) => Err(err),
        }
    }

    /// The *affected closure* of the engine's state: the least union of
    /// whole constraint verdict closures that contains every violated
    /// constraint's closure. Constraints partition around it — each has
    /// its closure inside the set or disjoint from it — so any
    /// subset-minimal repair operates entirely inside it: splitting a
    /// repair `R` into `R_A` (ops inside) and `R_out` leaves `R_A`
    /// alone already a repair (it fixes every affected constraint, and
    /// unaffected constraints hold in the original state and cannot see
    /// `R_A`), hence minimality forces `R_out = ∅`. Returned sorted, in
    /// `Sym` order.
    pub fn affected_closure(&self) -> Vec<Sym> {
        self.affected().0.into_iter().collect()
    }

    /// The affected closure, and per constraint whether it lies inside
    /// (violated, or coupled in by an overlapping closure).
    fn affected(&self) -> (BTreeSet<Sym>, Vec<bool>) {
        let graph = self.rules().graph();
        let closure_of = |c: &Constraint| -> BTreeSet<Sym> {
            let preds = c.rq.literals().into_iter().map(|occ| occ.literal.atom.pred);
            preds.flat_map(|p| graph.reachable(p)).collect()
        };
        let closures: Vec<BTreeSet<Sym>> = self.constraints.iter().map(closure_of).collect();
        let model = self.state();
        // Every violated constraint is inside, even one whose closure is
        // empty (a bare `false`).
        let mut included: Vec<bool> = self
            .constraints
            .iter()
            .map(|c| !satisfies_closed(model, &c.rq))
            .collect();
        let mut affected: BTreeSet<Sym> = closures
            .iter()
            .zip(&included)
            .filter(|(_, &violated)| violated)
            .flat_map(|(closure, _)| closure.iter().copied())
            .collect();
        // Couple in every constraint whose closure overlaps the set so
        // far, to fixpoint: a repair of an affected constraint may
        // violate an overlapping one and force further ops, but it can
        // never jump across disjoint closures.
        loop {
            let mut changed = false;
            for (i, closure) in closures.iter().enumerate() {
                if !included[i] && !closure.is_disjoint(&affected) {
                    included[i] = true;
                    affected.extend(closure.iter().copied());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (affected, included)
    }

    /// The [`Scope`] of one enumeration. Moves touch only atoms of
    /// violated instances and the rule bodies below them, all inside
    /// the closure, so the constraints outside it hold throughout and a
    /// search over the scope visits exactly the nodes a search over the
    /// whole state would. A consistent state has an empty scope.
    pub(crate) fn scope(&self) -> Scope {
        let (relations, inside) = self.affected();
        let constraints = self.constraints.iter().zip(inside);
        let edb = self.state.edb();
        Scope {
            facts: edb.restricted_to(|p| relations.contains(&p)),
            relations,
            constraints: constraints
                .filter(|(_, i)| *i)
                .map(|(c, _)| c.clone())
                .collect(),
            domain: enforce::domain(&edb, self.rules(), &self.constraints),
        }
    }

    /// Is every relation reachable from `preds` (closed down through
    /// rule bodies) outside the [`RepairEngine::affected_closure`]?
    /// Such a read cannot distinguish minimal repairs from each other
    /// or from the unrepaired state — the exemption that lets certain
    /// answers be served even when the repair enumeration refuses.
    pub fn reads_outside_affected(&self, preds: impl IntoIterator<Item = Sym>) -> bool {
        let affected: BTreeSet<Sym> = self.affected_closure().into_iter().collect();
        let graph = self.rules().graph();
        preds
            .into_iter()
            .all(|p| graph.reachable(p).iter().all(|r| !affected.contains(r)))
    }

    /// The weight-minimal repair among the subset-minimal ones under a
    /// preference order — per-relation weights and protected relations
    /// via [`crate::sat::RepairPreferences`], or any custom
    /// [`RepairChooser`]. Always SAT-backed (branch-and-bound weighted
    /// MaxSAT over cardinality layers), regardless of
    /// [`RepairOptions::backend`].
    pub fn preferred_repair(
        &self,
        chooser: &dyn RepairChooser,
    ) -> Result<PreferredRepair, RepairError> {
        sat::sat_preferred(self, &self.scope(), chooser)
    }

    /// `repairs()`, additionally demanding
    /// [`RepairReport::covers_all_minimal_repairs`] — the precondition
    /// for serving certain answers. Public so prepared-query sessions
    /// can enumerate once per pinned snapshot and intersect many
    /// queries over the same repair list (see `uniform::Session`).
    pub fn repairs_covering_all_minimal(&self) -> Result<RepairReport, RepairError> {
        let report = self.repairs()?;
        if !report.covers_all_minimal_repairs() {
            return Err(RepairError::BudgetExhausted {
                explored: report.stats.explored,
                max_branches: self.options.max_branches,
                budget_clipped: report.budget_clipped,
            });
        }
        Ok(report)
    }

    /// The *verdict closure* of a repair enumeration: every relation
    /// the report's verdict — the violation set, the minimal repairs,
    /// and therefore any certain answer intersected over them — can
    /// depend on. Per constraint literal, the predicate is closed
    /// downward through rule bodies (a constraint over a derived
    /// predicate reads every relation its rules reach); the relations
    /// the reported repairs themselves touch are unioned in for good
    /// measure (they are EDB predicates of the same constraints, so
    /// this is a no-op unless a rule set makes it otherwise).
    ///
    /// A write entirely outside this set cannot change any
    /// constraint's truth in any candidate state, hence neither the
    /// violation set nor the subset-minimal repairs. Its static part is
    /// the schema analyzer's closure union, which `AutoRepair` reads
    /// whole. Returned sorted, in `Sym` order.
    pub fn report_closure(&self, report: &RepairReport) -> Vec<Sym> {
        let graph = self.rules().graph();
        let mut closure: BTreeSet<Sym> = BTreeSet::new();
        for c in &self.constraints {
            for occ in c.rq.literals() {
                closure.extend(graph.reachable(occ.literal.atom.pred));
            }
        }
        for repair in &report.repairs {
            for op in repair.ops() {
                closure.insert(op.fact.pred);
            }
        }
        closure.into_iter().collect()
    }

    /// Classify a repairless outcome with the satisfiability search of
    /// §4 (bounded tightly — see [`SatOptions::classification`]): if no
    /// database state at all satisfies the constraints, no budget will
    /// ever find a repair.
    pub(crate) fn schema_unsatisfiable(&self) -> bool {
        let report = SatChecker::new(self.rules().clone(), self.constraints.clone())
            .with_options(SatOptions::classification())
            .check();
        matches!(report.outcome, SatOutcome::Unsatisfiable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_datalog::Database;

    fn engine(src: &str) -> RepairEngine {
        let db = Database::parse(src).unwrap();
        RepairEngine::new(
            db.facts().clone(),
            db.rules().clone(),
            db.constraints().to_vec(),
        )
    }

    fn rendered(report: &RepairReport) -> Vec<String> {
        report.repairs.iter().map(|r| r.to_string()).collect()
    }

    #[test]
    fn snapshot_engines_read_the_snapshots_model() {
        let db = Database::parse(
            "p(a). p(b). q(a). r(X) :- p(X). constraint c: forall X: r(X) -> q(X).",
        )
        .unwrap();
        let s = db.snapshot();
        // Both answers come from the snapshot's model: none is computed.
        let computes = Model::computes_on_this_thread();
        let eng = RepairEngine::for_snapshot(&s);
        let mut closure: Vec<&str> = eng.affected_closure().iter().map(|p| p.as_str()).collect();
        closure.sort_unstable();
        assert_eq!(closure, ["p", "q", "r"]);
        assert_eq!(eng.violations(), ["c"]);
        assert_eq!(Model::computes_on_this_thread(), computes);
    }

    #[test]
    fn consistent_state_yields_the_empty_repair() {
        let report = engine("q(a). p(a). constraint c: forall X: p(X) -> q(X).")
            .repairs()
            .unwrap();
        assert_eq!(report.repairs, vec![RepairSet::empty()]);
        assert!(report.complete);
    }

    #[test]
    fn implication_offers_insert_and_delete() {
        let report = engine("p(a). constraint c: forall X: p(X) -> q(X).")
            .repairs()
            .unwrap();
        assert_eq!(rendered(&report), vec!["{-p(a)}", "{+q(a)}"]);
        assert!(report.complete);
    }

    #[test]
    fn denial_offers_each_deletion() {
        let report = engine("p(a). q(a). constraint c: forall X: p(X) & q(X) -> false.")
            .repairs()
            .unwrap();
        assert_eq!(rendered(&report), vec!["{-p(a)}", "{-q(a)}"]);
    }

    #[test]
    fn existential_witnesses_from_the_active_domain() {
        let report = engine("seen(a). seen(b). constraint c: exists X: emp(X).")
            .repairs()
            .unwrap();
        assert_eq!(rendered(&report), vec!["{+emp(a)}", "{+emp(b)}"]);
    }

    #[test]
    fn derived_violations_repaired_through_rule_bodies() {
        // flagged is derived; falsifying it means deleting a body fact.
        let report = engine(
            "
            flagged(X) :- p(X), bad(X).
            p(a). bad(a).
            constraint c: forall X: flagged(X) -> ok(X).
        ",
        )
        .repairs()
        .unwrap();
        assert_eq!(rendered(&report), vec!["{-bad(a)}", "{+ok(a)}", "{-p(a)}"]);
    }

    #[test]
    fn positive_goals_satisfiable_through_rules() {
        // Enforcing emp(b) can insert emp(b) explicitly or insert the
        // rule's body fact boss(b).
        let report = engine(
            "
            emp(X) :- boss(X).
            seen(b).
            constraint c: forall X: seen(X) -> emp(X).
        ",
        )
        .repairs()
        .unwrap();
        assert_eq!(
            rendered(&report),
            vec!["{+boss(b)}", "{+emp(b)}", "{-seen(b)}"]
        );
    }

    #[test]
    fn multi_violation_repairs_compose() {
        let report = engine(
            "
            p(a). p(b).
            constraint c: forall X: p(X) -> q(X).
        ",
        )
        .repairs()
        .unwrap();
        // Each violation independently: {−p(a)}×{−p(b)} etc → 4 minimal.
        assert_eq!(report.repairs.len(), 4);
        assert!(report.repairs.iter().all(|r| r.len() == 2));
        for r in &report.repairs {
            assert!(engine("p(a). p(b). constraint c: forall X: p(X) -> q(X).")
                .repair_restores_consistency(r));
        }
    }

    #[test]
    fn stratified_negation_respected() {
        // present is derived with negation: the repairs are deleting
        // the blocker absent(a), asserting present(a) explicitly (the
        // store supports explicit facts on derived predicates), or
        // deleting the trigger seen(a).
        let report = engine(
            "
            present(X) :- emp(X), not absent(X).
            emp(a). absent(a). seen(a).
            constraint c: forall X: seen(X) -> present(X).
        ",
        )
        .repairs()
        .unwrap();
        assert_eq!(
            rendered(&report),
            vec!["{-absent(a)}", "{+present(a)}", "{-seen(a)}"]
        );
    }

    #[test]
    fn unsatisfiable_schema_classified() {
        let err = engine(
            "
            d(x).
            constraint want: exists X: d(X).
            constraint deny: forall X: d(X) -> false.
        ",
        )
        .repairs()
        .unwrap_err();
        assert!(
            matches!(
                err,
                RepairError::Unrepairable {
                    schema_unsatisfiable: true,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_violated_constraint_over_no_relation_stays_in_scope() {
        // `never` observes no relation, so no closure overlaps it; the
        // scope must still hold it, or the search would report `{}`.
        let err = engine("p(a). constraint never: false.")
            .repairs()
            .unwrap_err();
        assert!(
            matches!(
                err,
                RepairError::Unrepairable {
                    schema_unsatisfiable: true,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn branch_limit_is_a_typed_error() {
        let eng =
            engine("p(a). constraint c: forall X: p(X) -> q(X).").with_options(RepairOptions {
                max_branches: 1,
                ..RepairOptions::default()
            });
        let err = eng.repairs().unwrap_err();
        assert!(matches!(err, RepairError::BudgetExhausted { .. }), "{err}");
    }

    #[test]
    fn fact_budget_bounds_repair_size() {
        // Fixing all three violations needs 3 ops; a budget of 2 finds
        // nothing and says so.
        let eng = engine(
            "
            p(a). p(b). p(c).
            constraint c: forall X: p(X) -> q(X).
        ",
        )
        .with_options(RepairOptions {
            max_changes: 2,
            ..RepairOptions::default()
        });
        let err = eng.repairs().unwrap_err();
        assert!(
            matches!(
                err,
                RepairError::Unrepairable {
                    schema_unsatisfiable: false,
                    budget_clipped: true,
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn clipped_budgets_refuse_certain_answers() {
        // Two minimal repairs: {-p(a)} (size 1) and
        // {+q(a), -t1(a), …, -t4(a)} (size 5). With the default budget
        // of 4 the size-5 repair is clipped; intersecting over the
        // remaining repair alone would wrongly certify t1(a).
        let src = "
            p(a). t1(a). t2(a). t3(a). t4(a).
            constraint c: forall X: p(X) -> q(X).
            constraint d1: forall X: q(X) & t1(X) -> false.
            constraint d2: forall X: q(X) & t2(X) -> false.
            constraint d3: forall X: q(X) & t3(X) -> false.
            constraint d4: forall X: q(X) & t4(X) -> false.
        ";
        let eng = engine(src);
        let report = eng.repairs().unwrap();
        assert!(report.budget_clipped);
        assert!(!report.covers_all_minimal_repairs());
        assert_eq!(rendered(&report), vec!["{-p(a)}"]);
        let err = eng
            .consistent_answers(&[uniform_logic::parse_literal("t1(X)").unwrap()])
            .unwrap_err();
        assert!(
            matches!(
                err,
                RepairError::BudgetExhausted {
                    budget_clipped: true,
                    ..
                }
            ),
            "{err}"
        );
        // A budget admitting the size-5 repair restores certainty.
        let eng = engine(src).with_options(RepairOptions {
            max_changes: 5,
            ..RepairOptions::default()
        });
        let report = eng.repairs().unwrap();
        assert!(report.covers_all_minimal_repairs(), "{report:?}");
        assert_eq!(report.repairs.len(), 2);
        let answers = eng
            .consistent_answers(&[uniform_logic::parse_literal("t1(X)").unwrap()])
            .unwrap();
        assert!(answers.is_empty(), "t1(a) is not certain: {answers:?}");
    }

    #[test]
    fn clipped_budgets_still_answer_outside_the_affected_closure() {
        // Same clipped fixture as above, plus a relation no constraint
        // (and no rule) can observe. The refusal must scope to the
        // affected closure: z's answers agree across every repair —
        // found or clipped — so they are certain regardless.
        let src = "
            p(a). t1(a). t2(a). t3(a). t4(a). z(a).
            constraint c: forall X: p(X) -> q(X).
            constraint d1: forall X: q(X) & t1(X) -> false.
            constraint d2: forall X: q(X) & t2(X) -> false.
            constraint d3: forall X: q(X) & t3(X) -> false.
            constraint d4: forall X: q(X) & t4(X) -> false.
        ";
        let eng = engine(src);
        assert!(!eng.repairs().unwrap().covers_all_minimal_repairs());
        let affected = eng.affected_closure();
        assert!(affected.contains(&Sym::new("t1")));
        assert!(!affected.contains(&Sym::new("z")));

        let rows = eng
            .consistent_answers(&[uniform_logic::parse_literal("z(X)").unwrap()])
            .unwrap();
        assert_eq!(rows.len(), 1, "z(a) is certain under a clipped budget");

        // Queries inside the closure still refuse.
        let err = eng
            .consistent_answers(&[uniform_logic::parse_literal("t1(X)").unwrap()])
            .unwrap_err();
        assert!(matches!(err, RepairError::BudgetExhausted { .. }));

        // Closed-formula certainty gets the same exemption.
        let rq = uniform_logic::normalize(&uniform_logic::parse_formula("exists X: z(X)").unwrap())
            .unwrap();
        assert!(eng.certainly_satisfies(&rq).unwrap());
    }

    #[test]
    fn certain_answers_intersect_repairs() {
        // Repairs of the violated state: {−p(a)} or {+q(a)}. p(b),q(b)
        // is untouched by both → certain; p(a) only survives in one.
        let eng = engine(
            "
            p(a). p(b). q(b).
            constraint c: forall X: p(X) -> q(X).
        ",
        );
        let answers = eng
            .consistent_answers(&[uniform_logic::parse_literal("p(X)").unwrap()])
            .unwrap();
        let names: Vec<String> = answers
            .iter()
            .map(|b| b[0].1.as_str().to_string())
            .collect();
        assert_eq!(names, vec!["b"]);
        // Closed-formula certainty.
        let holds = |s: &str| {
            eng.certainly_satisfies(
                &uniform_logic::normalize(&uniform_logic::parse_formula(s).unwrap()).unwrap(),
            )
            .unwrap()
        };
        assert!(holds("p(b)"));
        assert!(!holds("p(a)"));
        assert!(!holds("q(a)"));
    }

    /// The benchmark's repair database: its schema and base facts, and
    /// `extra` raw-loaded on top.
    fn repair_db(extra: &str) -> RepairEngine {
        let mut src = String::from(
            "flagged(X) :- p(X), bad(X).
             constraint imp: forall X: p(X) -> q(X).
             constraint dom_s: forall X, Y: s(X, Y) -> r(X).
             constraint span: forall X: r(X) -> (exists Y: s(X, Y)).
             constraint flag_ok: forall X: flagged(X) -> ok(X).
             constraint step: forall X: dp(X) -> dq(X).
             constraint stop: forall X: dq(X) -> false.\n",
        );
        for i in 0..4 {
            src.push_str(&format!("p(a{i}). q(a{i}).\n"));
        }
        for i in 4..8 {
            src.push_str(&format!("r(a{i}). s(a{i}, a{}).\n", (i + 1) % 12));
        }
        for i in 8..12 {
            src.push_str(&format!("ok(a{i}). noise(n{i}).\n"));
        }
        src.push_str(extra);
        engine(&src).with_options(RepairOptions {
            max_changes: 24,
            backend: RepairBackend::Auto,
            ..RepairOptions::default()
        })
    }

    /// The benchmark's two `AutoRepair` shapes, split into parts. The
    /// dense block (16 `dp` chains the whole-scope search cannot finish
    /// within its 100 000 nodes) is 17 small searches and no SAT call;
    /// the common shape (one `flag_ok`, one `dom_s`, one `imp`
    /// violation) is three, with fewer nodes than the whole scope's 36.
    /// Each part's minimal repairs are verified once: the verifications
    /// are their sum (16 × 1 + 2 = 18, and 3 + 2 + 2 = 7), not the
    /// product's size.
    #[test]
    fn auto_splits_the_benchmark_repair_shapes() {
        let mut dense = String::from("p(a5).");
        for i in 0..16 {
            dense.push_str(&format!(" dp(c{i})."));
        }
        let report = repair_db(&dense).repairs().unwrap();
        assert_eq!(report.repairs.len(), 2);
        assert!(report.repairs.iter().all(|r| r.len() == 17));
        assert_eq!(report.repairs[0].ops()[16].to_string(), "-p(a5)");
        assert!(report.covers_all_minimal_repairs());
        assert_eq!(report.stats.solver, SolverStats::default());
        assert_eq!((report.stats.parts, report.stats.explored), (17, 100));
        assert_eq!(report.stats.verified, 18);

        let common = repair_db("bad(a1). s(a8, a3). p(a5).");
        let report = common.repairs().unwrap();
        let search = RepairOptions {
            backend: RepairBackend::Search,
            ..*common.options()
        };
        let whole = common.with_options(search).repairs().unwrap();
        assert_eq!(report.repairs.len(), 12);
        assert_eq!(report.repairs, whole.repairs);
        assert!(report.covers_all_minimal_repairs());
        assert_eq!(report.stats.solver, SolverStats::default());
        assert_eq!((whole.stats.parts, whole.stats.explored), (0, 36));
        assert_eq!((report.stats.parts, report.stats.explored), (3, 14));
        assert_eq!(report.stats.verified, 7);
        assert_eq!(whole.stats.verified, 12);
    }

    #[test]
    fn repair_sets_are_canonical_and_ordered() {
        let a = RepairSet::from_ops(vec![
            Update::insert(Fact::parse_like("q", &["a"])),
            Update::delete(Fact::parse_like("p", &["a"])),
        ]);
        let b = RepairSet::from_ops(vec![
            Update::delete(Fact::parse_like("p", &["a"])),
            Update::insert(Fact::parse_like("q", &["a"])),
        ]);
        assert_eq!(a, b);
        let small = RepairSet::from_ops(vec![Update::insert(Fact::parse_like("q", &["a"]))]);
        assert!(small < a, "size-first ordering");
        assert!(small.is_subset_of(&a));
        assert!(!a.is_subset_of(&small));
    }

    /// The order the in-place comparator must reproduce: owned names.
    fn op_key(u: &Update) -> (String, Vec<String>, bool) {
        (
            u.fact.pred.as_str().to_string(),
            u.fact.args.iter().map(|a| a.as_str().to_string()).collect(),
            u.insert,
        )
    }

    #[test]
    fn op_order_is_name_order_not_interning_order() {
        // Interned in descending name order, so id order and name order
        // disagree; prefixes ("k", "kk") test the length tie-break.
        let names: Vec<Sym> = ["opz", "opk", "opkk", "opb", "opa"]
            .iter()
            .map(|n| Sym::new(n))
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let ops: Vec<Update> = (0..200)
            .map(|_| {
                let pred = names[next(names.len())];
                let args = (0..next(3)).map(|_| names[next(names.len())]).collect();
                let fact = Fact::new(pred, args);
                if next(2) == 0 {
                    Update::insert(fact)
                } else {
                    Update::delete(fact)
                }
            })
            .collect();
        for a in &ops {
            for b in &ops {
                assert_eq!(op_cmp(a, b), op_key(a).cmp(&op_key(b)), "{a} vs {b}");
            }
        }
        let sets: Vec<RepairSet> = ops
            .chunks(3)
            .map(|c| RepairSet::from_ops(c[..1 + next(c.len())].iter().cloned()))
            .collect();
        let key = |r: &RepairSet| (r.len(), r.ops().iter().map(op_key).collect::<Vec<_>>());
        for r in &sets {
            let mut sorted_by_key = r.ops().to_vec();
            sorted_by_key.sort_by_key(op_key);
            assert_eq!(r.ops(), sorted_by_key.as_slice());
            for s in &sets {
                assert_eq!(r.cmp(s), key(r).cmp(&key(s)), "{r} vs {s}");
            }
        }
    }
}
