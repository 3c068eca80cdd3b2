//! The enforcement kernel: one procedure, two move sets.
//!
//! §4 builds the satisfiability checker out of the enforcement and
//! violation-determination machinery of §3; a repair search is the same
//! procedure started from the stored facts with the dual (deletion)
//! moves switched on. [`Enforcer`] owns that procedure once. It
//! alternates two steps in level-saturation order:
//!
//! 1. **determine** the constraint instances violated in the canonical
//!    model of the current facts — every constraint outright, or (§4
//!    point 3) only the simplified instances relevant to the changes
//!    since the level above, confirmed by one full check before a leaf;
//! 2. **enforce** each violated instance, depth-first over every
//!    alternative, in continuation-passing style so that backtracking
//!    runs through whole levels.
//!
//! A state with nothing violated is a **leaf**, handed to the caller's
//! callback. Continuations return [`ControlFlow`]: a decision procedure
//! is an enumeration whose callback breaks at the first leaf. Every
//! change is undone on the way up, break or not, so the callback
//! snapshots what it needs and the kernel ends on its seed.
//!
//! What varies between the callers is only the [`Moves`], the
//! [`Limits`] and the leaf callback:
//!
//! | move | §4 satisfiability | repair |
//! |---|---|---|
//! | insert a false ground atom | yes | yes, within the change budget |
//! | make it true through a rule body over the active domain | no (rules only derive) | yes |
//! | delete a true atom and falsify its remaining derivations | no | yes |
//! | `∀`: enforce the body of a violating instance | yes | yes, or falsify one of its range atoms |
//! | `∃`: reuse a solution of the range | `range_reuse` | yes |
//! | `∃`: a witness from the constants in use | `domain_reuse` | yes |
//! | `∃`: fresh constants | within the budget | no |
//! | prune a delta already settled | no | yes |
//!
//! Alternatives are tried in a fixed order — constraints in
//! registration order, rules in rule order, constants in name order —
//! so a search visits the same nodes on every run.

use std::collections::{HashMap, HashSet};
use std::ops::{ControlFlow, Deref};
use std::sync::Arc;
use uniform_datalog::{
    all_solutions, provable, satisfies_closed, solve_conjunction, FactSet, Interp, Model, RuleSet,
    Update,
};
use uniform_integrity::{simplified_instances, RelevanceIndex};
use uniform_logic::{
    match_atom, sort_by_name, Atom, Constraint, Fact, Literal, Rq, Rule, Subst, Sym, Term,
};

/// `Break` abandons the whole search (a limit tripped, or the leaf
/// callback has what it wanted); `Continue` asks for the next
/// alternative.
pub type Flow = ControlFlow<()>;

/// Called on every state in which no constraint is violated, with the
/// facts of that state and the changes that lead to it from the seed.
pub type Leaf<'l> = &'l mut dyn FnMut(&FactSet, &[Update]) -> Flow;

/// The moves a search may make (see the module table).
#[derive(Clone, Copy, Debug)]
pub struct Moves {
    range_reuse: bool,
    domain_reuse: bool,
    /// Fresh-constant budget; `None` offers no fresh constants at all.
    fresh: Option<usize>,
    derive: bool,
    delete: bool,
    prune_settled: bool,
}

impl Moves {
    /// §4 model generation: insertions only, `∃` witnesses by the chosen
    /// reuse alternatives and at most `fresh_budget` new constants.
    pub fn satisfiability(range_reuse: bool, domain_reuse: bool, fresh_budget: usize) -> Moves {
        Moves {
            range_reuse,
            domain_reuse,
            fresh: Some(fresh_budget),
            derive: false,
            delete: false,
            prune_settled: false,
        }
    }

    /// Repair enumeration: every move inside the active domain, in both
    /// directions.
    pub fn repair() -> Moves {
        Moves {
            range_reuse: true,
            domain_reuse: true,
            fresh: None,
            derive: true,
            delete: true,
            prune_settled: true,
        }
    }

    /// The same move set without its deletions.
    pub fn insertions_only(self) -> Moves {
        Moves {
            delete: false,
            ..self
        }
    }
}

/// Resource bounds of one run.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Enforcement nodes; one more abandons the search.
    pub max_nodes: usize,
    /// Changes on one path (the repair fact budget).
    pub max_changes: usize,
    /// Active-domain instantiations per `∃` node or rule body; a larger
    /// space is skipped as a whole.
    pub domain_cap: usize,
}

/// Effort counters and the reasons a run was not exhaustive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub nodes: usize,
    pub assertions: usize,
    /// Insertions and fresh-constant choices taken back after failing.
    pub undo_events: usize,
    pub max_level: usize,
    pub models_computed: usize,
    pub fresh_generated: usize,
    pub incremental_checks: usize,
    pub full_checks: usize,
    pub node_limit_hit: bool,
    /// An `∃` node was refused fresh constants by the budget.
    pub fresh_budget_hit: bool,
    /// A change was refused by [`Limits::max_changes`].
    pub change_budget_hit: bool,
    /// An instantiation space was skipped by [`Limits::domain_cap`].
    pub domain_clipped: bool,
}

/// The constants of rules and constraints, with repetitions.
fn schema_constants(rules: &RuleSet, constraints: &[Constraint]) -> Vec<Sym> {
    let mut out = Vec::new();
    let mut take = |atom: &Atom| out.extend(atom.args.iter().filter_map(|t| t.as_const()));
    for c in constraints {
        for occ in c.rq.literals() {
            take(&occ.literal.atom);
        }
    }
    for r in rules.rules() {
        take(&r.head);
        for l in &r.body {
            take(&l.atom);
        }
    }
    out
}

/// Every constant in use — of the facts, the rules and the constraints —
/// in name order (interner-id order would depend on what happened to be
/// interned earlier in the process).
pub fn domain(facts: &FactSet, rules: &RuleSet, constraints: &[Constraint]) -> Vec<Sym> {
    let mut out = facts.active_domain();
    out.extend(schema_constants(rules, constraints));
    sort_by_name(&mut out);
    out
}

/// The domain odometer: every tuple of `domain^arity`, first slot
/// fastest. `None` when that is more than `cap` tuples. The domain may
/// be borrowed or owned (an iterator that outlives its source).
pub fn tuples<D: Deref<Target = [Sym]>>(
    domain: D,
    arity: usize,
    cap: usize,
) -> Option<impl Iterator<Item = Vec<Sym>>> {
    let mut left = domain.len().checked_pow(arity as u32).unwrap_or(usize::MAX);
    if arity > 0 && left > cap {
        return None;
    }
    let mut slots = vec![0usize; arity];
    Some(std::iter::from_fn(move || {
        left = left.checked_sub(1)?;
        let tuple = slots.iter().map(|&i| domain[i]).collect();
        for slot in slots.iter_mut() {
            *slot += 1;
            if *slot < domain.len() {
                break;
            }
            *slot = 0;
        }
        Some(tuple)
    }))
}

/// Every extension of `base` binding `vars` over the domain, in
/// [`tuples`] order (and under its cap).
pub fn assignments<'v, D: Deref<Target = [Sym]> + 'v>(
    domain: D,
    vars: &'v [Sym],
    base: &'v Subst,
    cap: usize,
) -> Option<impl Iterator<Item = Subst> + 'v> {
    Some(tuples(domain, vars.len(), cap)?.map(move |tuple| {
        let mut sigma = base.clone();
        for (&v, c) in vars.iter().zip(tuple) {
            sigma.bind(v, Term::Const(c));
        }
        sigma
    }))
}

/// `rule`'s head matched against `fact`, and the body variables the head
/// leaves free, in first-occurrence order. `fact` is ground, so the rule
/// is matched as written: the match binds only the rule's variables, and
/// nothing needs renaming apart.
pub fn rule_for_fact(rule: &Rule, fact: &Fact) -> Option<(Subst, Vec<Sym>)> {
    let subst = match_atom(&rule.head, fact)?;
    let mut free: Vec<Sym> = Vec::new();
    for v in rule.body.iter().flat_map(|l| l.vars()) {
        if matches!(subst.walk(Term::Var(v)), Term::Var(_)) && !free.contains(&v) {
            free.push(v);
        }
    }
    Some((subst, free))
}

/// Violation determination: the constraints false in `state` — a
/// materialized model or any other interpretation of a whole state.
pub fn violated<'c>(
    state: &'c dyn Interp,
    constraints: &'c [Constraint],
) -> impl Iterator<Item = &'c Constraint> {
    constraints
        .iter()
        .filter(move |c| !satisfies_closed(state, &c.rq))
}

/// Does every constraint hold in `state`?
pub fn consistent(state: &dyn Interp, constraints: &[Constraint]) -> bool {
    violated(state, constraints).next().is_none()
}

/// One run of the enforcement procedure from a seed fact set.
pub struct Enforcer<'a> {
    rules: &'a RuleSet,
    constraints: &'a [Constraint],
    /// `Some`: determine violations from the changes of the last level
    /// (§4 point 3); `None`: evaluate every constraint at every level.
    index: Option<&'a RelevanceIndex>,
    moves: Moves,
    limits: Limits,
    tracing: bool,
    facts: FactSet,
    /// The changes applied on the current path, oldest first.
    trail: Vec<Update>,
    /// Run-local ids: every fact the run has touched or set as a goal,
    /// numbered in the order first met. The sets below hold ids, so a
    /// node clones no fact.
    ids: HashMap<Fact, u32>,
    /// `id << 1 | insert` of each change on `trail`, in the same order.
    trail_keys: Vec<u32>,
    fresh_in_use: usize,
    fresh_counter: usize,
    /// Every constant in use, name-sorted; fresh constants join it for
    /// the rest of the run.
    domain: Vec<Sym>,
    model_cache: Option<Arc<Model>>,
    /// Model at the level above (diff base of the incremental check).
    checkpoint: Option<Arc<Model>>,
    /// Ids of the facts the trail changed; of the goals being derived;
    /// of the goals being falsified — a branch touches no fact twice and
    /// follows no goal into itself.
    touched: HashSet<u32>,
    pos_active: HashSet<u32>,
    neg_active: HashSet<u32>,
    /// The deltas already settled, each as its sorted `trail_keys`: a
    /// branch touches no fact twice, so two keys are equal exactly when
    /// the two deltas are the same set of changes.
    settled: HashSet<Box<[u32]>>,
    level: usize,
    pub tally: Tally,
    pub trace: Vec<String>,
}

impl<'a> Enforcer<'a> {
    /// A run from `seed` whose `∃` witnesses and rule bodies range over
    /// `domain`, name-sorted: the [`domain`] of the seed, or of a larger
    /// state the seed is the relevant part of (a repair scope keeps the
    /// whole state's constants).
    pub fn new(
        rules: &'a RuleSet,
        constraints: &'a [Constraint],
        seed: FactSet,
        domain: Vec<Sym>,
        moves: Moves,
        limits: Limits,
    ) -> Enforcer<'a> {
        Enforcer {
            rules,
            constraints,
            index: None,
            moves,
            limits,
            tracing: false,
            domain,
            facts: seed,
            trail: Vec::new(),
            ids: HashMap::new(),
            trail_keys: Vec::new(),
            fresh_in_use: 0,
            fresh_counter: 0,
            model_cache: None,
            checkpoint: None,
            touched: HashSet::new(),
            pos_active: HashSet::new(),
            neg_active: HashSet::new(),
            settled: HashSet::new(),
            level: 0,
            tally: Tally::default(),
            trace: Vec::new(),
        }
    }

    /// With the relevance index of the same constraints: determine
    /// violations below the first level incrementally.
    pub(crate) fn incremental(mut self, index: Option<&'a RelevanceIndex>) -> Enforcer<'a> {
        self.index = index;
        self
    }

    /// Record a human-readable trace of the search.
    pub(crate) fn traced(mut self, on: bool) -> Enforcer<'a> {
        self.tracing = on;
        self
    }

    /// The current facts: the seed, outside [`Enforcer::run`].
    pub fn facts(&self) -> &FactSet {
        &self.facts
    }

    /// Enumerate the leaves until the callback or a limit breaks.
    pub fn run(&mut self, leaf: Leaf<'_>) -> Flow {
        self.settle(leaf)
    }

    fn note(&mut self, msg: impl FnOnce() -> String) {
        if self.tracing {
            let indent = "  ".repeat(self.level.min(12));
            self.trace.push(format!("{indent}{}", msg()));
        }
    }

    fn model(&mut self) -> Arc<Model> {
        if self.model_cache.is_none() {
            self.tally.models_computed += 1;
            self.model_cache = Some(Arc::new(Model::compute(&self.facts, self.rules)));
        }
        self.model_cache.clone().expect("just computed")
    }

    fn can_change(&mut self) -> bool {
        if self.trail.len() >= self.limits.max_changes {
            self.tally.change_budget_hit = true;
            return false;
        }
        true
    }

    /// The run-local id of `fact`, numbering it if it is new.
    fn id(&mut self, fact: &Fact) -> u32 {
        if let Some(&id) = self.ids.get(fact) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(fact.clone(), id);
        id
    }

    /// Is `fact` in the id set `set`? A fact without an id is in none.
    fn holds_id(&self, set: &HashSet<u32>, fact: &Fact) -> bool {
        self.ids.get(fact).is_some_and(|id| set.contains(id))
    }

    fn push(&mut self, op: Update) {
        debug_assert!(op.is_effective(&self.facts), "ineffective change {op}");
        op.apply(&mut self.facts);
        let id = self.id(&op.fact);
        self.touched.insert(id);
        self.trail_keys.push(id << 1 | op.insert as u32);
        self.trail.push(op);
        self.model_cache = None;
    }

    fn pop(&mut self) {
        let op = self.trail.pop().expect("pop without push");
        op.undo(&mut self.facts);
        let key = self.trail_keys.pop().expect("one key per change");
        self.touched.remove(&(key >> 1));
        self.model_cache = None;
    }

    /// The assignments of `vars` over the constants in use right now;
    /// none (and the clip recorded) past the domain cap.
    fn combos<'v>(&mut self, vars: &'v [Sym], base: &'v Subst) -> impl Iterator<Item = Subst> + 'v {
        let all = assignments(self.domain.clone(), vars, base, self.limits.domain_cap);
        self.tally.domain_clipped |= all.is_none();
        all.into_iter().flatten()
    }

    fn fresh_constant(&mut self) -> Sym {
        loop {
            self.fresh_counter += 1;
            let c = Sym::new(&format!("c{}", self.fresh_counter));
            if let Err(at) = self.domain.binary_search_by(|d| d.as_str().cmp(c.as_str())) {
                self.domain.insert(at, c);
                self.tally.fresh_generated += 1;
                return c;
            }
        }
    }

    /// One saturation level: determine the violated instances; none is a
    /// leaf, otherwise enforce them all and settle the next level.
    fn settle(&mut self, leaf: Leaf<'_>) -> Flow {
        if self.moves.prune_settled {
            let mut key: Box<[u32]> = self.trail_keys.as_slice().into();
            key.sort_unstable();
            if !self.settled.insert(key) {
                return Flow::Continue(());
            }
        }
        self.tally.max_level = self.tally.max_level.max(self.level);
        let current = self.model();
        let mut agenda = match self.index {
            Some(index) if self.level > 0 => self.violated_by_changes(index, &current),
            _ => Vec::new(),
        };
        if agenda.is_empty() {
            // Also the confirmation of an incremental "nothing violated":
            // a leaf is only ever reported after a full determination.
            self.tally.full_checks += 1;
            agenda = violated(&*current, self.constraints)
                .map(|c| c.rq.clone())
                .collect();
        }
        if agenda.is_empty() {
            self.note(|| "all constraints satisfied".to_string());
            return leaf(&self.facts, &self.trail);
        }
        let level = self.level;
        self.note(|| format!("level {level}: {} violated instance(s)", agenda.len()));
        let saved = self.checkpoint.replace(current);
        let flow = self.enforce_seq(&agenda, &mut |s| {
            s.level += 1;
            let flow = s.settle(leaf);
            s.level -= 1;
            flow
        });
        self.checkpoint = saved;
        flow
    }

    /// Violated simplified instances of the constraints relevant to the
    /// model changes since the checkpoint (Prop. 2 on the level batch).
    fn violated_by_changes(&mut self, index: &RelevanceIndex, current: &Model) -> Vec<Rq> {
        self.tally.incremental_checks += 1;
        let base = self.checkpoint.as_deref().expect("set by the level above");
        let added = current.iter().filter(|f| !base.contains(f));
        let removed = base.iter().filter(|f| !current.contains(f));
        let changes: Vec<Literal> = added
            .map(|f| Literal::new(true, f.to_atom()))
            .chain(removed.map(|f| Literal::new(false, f.to_atom())))
            .collect();
        let mut out: Vec<Rq> = Vec::new();
        let mut seen: HashSet<Rq> = HashSet::new();
        for delta in &changes {
            for si in simplified_instances(index, self.constraints, delta) {
                debug_assert!(si.instance.is_closed());
                if !satisfies_closed(current, &si.instance) && seen.insert(si.instance.clone()) {
                    out.push(si.instance);
                }
            }
        }
        out
    }

    /// Enforce every formula of `agenda` in order, then run `k` (the
    /// `enforce_set` of the paper's Prolog).
    fn enforce_seq(&mut self, agenda: &[Rq], k: &mut dyn FnMut(&mut Self) -> Flow) -> Flow {
        match agenda.split_first() {
            None => k(self),
            Some((f, rest)) => self.enforce_one(f, &mut |s| s.enforce_seq(rest, k)),
        }
    }

    /// Enforce one closed formula (the paper's `enforce/2`): run `k` in
    /// every way of making it true that the move set offers.
    fn enforce_one(&mut self, f: &Rq, k: &mut dyn FnMut(&mut Self) -> Flow) -> Flow {
        self.tally.nodes += 1;
        if self.tally.nodes > self.limits.max_nodes {
            self.tally.node_limit_hit = true;
            return Flow::Break(());
        }
        // `enforce_set`'s first clause: what already holds needs no
        // enforcement.
        if satisfies_closed(self.model().as_ref(), f) {
            return k(self);
        }
        match f {
            Rq::True => unreachable!("true is always satisfied"),
            Rq::False => Flow::Continue(()),
            Rq::Lit(l) => {
                let fact = l.atom.to_fact().expect("enforced literals are ground");
                if l.positive {
                    self.make_true(fact, k)
                } else {
                    self.make_false(fact, k)
                }
            }
            Rq::And(gs) => self.enforce_seq(gs, k),
            Rq::Or(gs) => gs.iter().try_for_each(|g| self.enforce_one(g, k)),
            Rq::Forall { range, body, .. } => {
                // Every instance whose range holds and whose body does
                // not; instances arising later are caught a level down.
                // With deletions, falsifying a range atom is the dual way
                // out of each.
                let model = self.model();
                let delete = self.moves.delete;
                let lits: Vec<Literal> = range.iter().map(|a| a.clone().pos()).collect();
                let mut agenda: Vec<Rq> = Vec::new();
                let mut seen: HashSet<Rq> = HashSet::new();
                solve_conjunction(model.as_ref(), &lits, &mut Subst::new(), &mut |s| {
                    let mut node = body.apply(s);
                    if satisfies_closed(model.as_ref(), &node) {
                        return true;
                    }
                    if delete {
                        let out = range.iter().map(|a| Rq::Lit(s.apply_atom(a).neg()));
                        node = Rq::or(std::iter::once(node).chain(out).collect());
                    }
                    if seen.insert(node.clone()) {
                        agenda.push(node);
                    }
                    true
                });
                self.enforce_seq(&agenda, k)
            }
            Rq::Exists { vars, range, body } => self.enforce_exists(vars, range, body, k),
        }
    }

    fn enforce_exists(
        &mut self,
        vars: &[Sym],
        range: &[Atom],
        body: &Rq,
        k: &mut dyn FnMut(&mut Self) -> Flow,
    ) -> Flow {
        let lits: Vec<Literal> = range.iter().map(|a| a.clone().pos()).collect();
        // A witness whose range does not hold yet: range and body are
        // enforced together.
        let with_range = |sigma: &Subst| -> Vec<Rq> {
            let range = lits.iter().map(|l| Rq::Lit(sigma.apply_literal(l)));
            range.chain([body.apply(sigma)]).collect()
        };

        // Alternative 1 (§4): a σ whose range already holds; only the
        // body needs enforcement.
        if self.moves.range_reuse {
            let sols = all_solutions(self.model().as_ref(), &lits, &mut Subst::new(), vars);
            for sigma in sols {
                self.enforce_one(&body.apply(&sigma), k)?;
            }
        }

        // Extension: the constants in use as witnesses, skipping those
        // alternative 1 covered.
        if self.moves.domain_reuse && !vars.is_empty() {
            for sigma in self.combos(vars, &Subst::new()) {
                if !provable(self.model().as_ref(), &lits, &mut sigma.clone()) {
                    self.enforce_seq(&with_range(&sigma), k)?;
                }
            }
        }

        // Alternative 2 (§4): new constants.
        match self.moves.fresh {
            Some(budget) if self.fresh_in_use + vars.len() <= budget => {
                let fresh: Vec<Sym> = vars.iter().map(|_| self.fresh_constant()).collect();
                let mut sigma = Subst::new();
                for (&v, &c) in vars.iter().zip(&fresh) {
                    sigma.bind(v, Term::Const(c));
                }
                self.note(|| {
                    let names: Vec<&str> = fresh.iter().map(|c| c.as_str()).collect();
                    format!("new constant(s): {}", names.join(", "))
                });
                self.fresh_in_use += fresh.len();
                let flow = self.enforce_seq(&with_range(&sigma), k);
                self.fresh_in_use -= fresh.len();
                if flow.is_continue() && !fresh.is_empty() {
                    self.tally.undo_events += 1;
                }
                flow
            }
            Some(_) => {
                self.tally.fresh_budget_hit = true;
                Flow::Continue(())
            }
            None => Flow::Continue(()),
        }
    }

    /// Make a false ground atom true: insert it, or (repair) make some
    /// rule body for it true over the active domain.
    fn make_true(&mut self, fact: Fact, k: &mut dyn FnMut(&mut Self) -> Flow) -> Flow {
        if self.holds_id(&self.touched, &fact) {
            // Deleted earlier on this path: re-establishing it would make
            // that deletion a no-op — never minimal.
            return Flow::Continue(());
        }
        if self.can_change() {
            self.note(|| format!("assert {fact}"));
            self.tally.assertions += 1;
            self.push(Update::insert(fact.clone()));
            let flow = k(self);
            self.pop();
            flow?;
            self.note(|| "backtrack".to_string());
            self.tally.undo_events += 1;
        }
        if !self.moves.derive {
            return Flow::Continue(());
        }
        // A goal already being derived further up makes no progress here.
        let id = self.id(&fact);
        if !self.pos_active.insert(id) {
            return Flow::Continue(());
        }
        let rules = self.rules;
        let flow = rules.rules_for(fact.pred).try_for_each(|(_, rule)| {
            let Some((base, free)) = rule_for_fact(rule, &fact) else {
                return Flow::Continue(());
            };
            for sigma in self.combos(&free, &base) {
                let body: Vec<Rq> = rule
                    .body
                    .iter()
                    .map(|l| Rq::Lit(sigma.apply_literal(l)))
                    .collect();
                self.enforce_seq(&body, k)?;
            }
            Flow::Continue(())
        });
        self.pos_active.remove(&id);
        flow
    }

    /// Make a true ground atom false (repair only): delete the explicit
    /// fact if there is one, then falsify every remaining derivation.
    fn make_false(&mut self, fact: Fact, k: &mut dyn FnMut(&mut Self) -> Flow) -> Flow {
        // "Negative literals that are complementary to a fact in F cannot
        // be satisfied without undoing choices made previously" — and a
        // goal already being falsified further up is left to that call.
        if !self.moves.delete || self.holds_id(&self.neg_active, &fact) {
            return Flow::Continue(());
        }
        let explicit = self.facts.contains(&fact);
        // Inserted earlier on this path: contradictory.
        if explicit && (self.holds_id(&self.touched, &fact) || !self.can_change()) {
            return Flow::Continue(());
        }
        if explicit {
            self.push(Update::delete(fact.clone()));
        }
        let id = self.id(&fact);
        self.neg_active.insert(id);
        let flow = self.falsify_derivations(&fact, k);
        self.neg_active.remove(&id);
        if explicit {
            self.pop();
        }
        flow
    }

    /// The only-if direction of the rules' completion: a derived fact is
    /// false exactly when every body that could produce it is. Takes the
    /// first rule instance still deriving `fact`, falsifies one of its
    /// body literals, and looks again.
    fn falsify_derivations(&mut self, fact: &Fact, k: &mut dyn FnMut(&mut Self) -> Flow) -> Flow {
        let model = self.model();
        let mut live: Option<Vec<Literal>> = None;
        for (_, rule) in self.rules.rules_for(fact.pred) {
            let Some((mut subst, _)) = rule_for_fact(rule, fact) else {
                continue;
            };
            solve_conjunction(model.as_ref(), &rule.body, &mut subst, &mut |s| {
                let ground: Vec<Literal> = rule.body.iter().map(|l| s.apply_literal(l)).collect();
                // An instance leaning on a goal already being falsified
                // collapses once that goal completes.
                let self_supported = ground.iter().any(|l| {
                    l.positive
                        && l.atom
                            .to_fact()
                            .is_some_and(|f| self.holds_id(&self.neg_active, &f))
                });
                if !self_supported {
                    live = Some(ground);
                }
                self_supported
            });
            if live.is_some() {
                break;
            }
        }
        let Some(body) = live else {
            return k(self);
        };
        for lit in &body {
            let goal = lit.complement();
            if goal.atom.to_fact().is_some() {
                self.enforce_one(&Rq::Lit(goal), &mut |s| s.falsify_derivations(fact, k))?;
            }
        }
        Flow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use crate::search::{SatChecker, SatOptions, SatOutcome};
    use uniform_datalog::Database;

    fn sorted(facts: &FactSet) -> Vec<Fact> {
        let mut out: Vec<Fact> = facts.iter().collect();
        out.sort();
        out
    }

    /// A decision is the enumeration stopped at its first leaf: letting
    /// the same kernel run on past it finds the decision's sample first,
    /// and other states after it.
    #[test]
    fn the_decision_is_the_first_leaf_of_the_enumeration() {
        for p in problems::suite() {
            let checker = p.checker();
            let report = checker.check();
            // Deepening stops at the first budget that decides.
            let mut kernel = checker.attempt(report.stats.attempts - 1);
            let mut leaves: Vec<Vec<Fact>> = Vec::new();
            let _ = kernel.run(&mut |facts, delta| {
                assert_eq!(facts.len(), delta.len(), "{}: the seed is empty", p.name);
                leaves.push(sorted(facts));
                if leaves.len() < 2 {
                    Flow::Continue(())
                } else {
                    Flow::Break(())
                }
            });
            assert!(kernel.facts().is_empty(), "{}: not undone", p.name);
            match report.outcome {
                SatOutcome::Satisfiable { explicit, .. } => {
                    assert_eq!(leaves[0], explicit, "{}", p.name);
                    assert_ne!(leaves.get(1), Some(&explicit), "{}", p.name);
                }
                _ => assert!(leaves.is_empty(), "{}: {leaves:?}", p.name),
            }
        }
    }

    /// On negation-free programs the §4 search seeded with the stored
    /// facts and denied fresh constants is the repair search denied its
    /// deletions: one finds a consistent extension exactly when the
    /// other does, and the extension found contains one of the repairs.
    #[test]
    fn seeded_satisfiability_is_insertion_only_repair() {
        let programs = [
            "p(a). constraint c: forall X: p(X) -> q(X).",
            "seen(a). seen(b). constraint c: exists X: emp(X).",
            "emp(X) :- boss(X). seen(b). constraint c: forall X: seen(X) -> emp(X).",
            "p(a). q(a). constraint c: forall X: p(X) & q(X) -> false.",
            "p(a). s(a).
             constraint c1: forall X: p(X) -> q(X).
             constraint c2: forall X: q(X) -> r(X).
             constraint c3: forall X: r(X) & s(X) -> false.",
            "p(a). p(b). s(b).
             constraint c1: forall X: p(X) -> q(X) | r(X).
             constraint c2: forall X: q(X) -> false.
             constraint c3: forall X: r(X) & s(X) -> t(X).",
            "dept(d1). emp(e1). emp(e2).
             constraint c: forall X: emp(X) -> (exists Y: dept(Y) & works(X, Y)).",
            "above(X, Y) :- boss(X, Y). above(X, Z) :- boss(X, Y), above(Y, Z).
             boss(a, b). boss(b, c).
             constraint c: forall X, Y: above(X, Y) -> senior(X).
             constraint d: forall X: senior(X) & junior(X) -> false.",
            "constraint c: exists X: p(X).",
            "constraint c: forall X: p(X) -> q(X).",
        ];
        for src in programs {
            let db = Database::parse(src).unwrap();
            let seed = db.facts().clone();
            let report = SatChecker::from_database(&db)
                .with_seed(seed.iter().collect())
                .with_options(SatOptions {
                    max_fresh_constants: 0,
                    ..SatOptions::default()
                })
                .check();

            let limits = Limits {
                max_nodes: 100_000,
                max_changes: 16,
                domain_cap: 256,
            };
            let moves = Moves::repair().insertions_only();
            let dom = domain(&seed, db.rules(), db.constraints());
            let mut kernel = Enforcer::new(
                db.rules(),
                db.constraints(),
                seed.clone(),
                dom,
                moves,
                limits,
            );
            let mut repairs: Vec<Vec<Fact>> = Vec::new();
            let _ = kernel.run(&mut |_, delta| {
                assert!(delta.iter().all(|op| op.insert), "{src}: {delta:?}");
                repairs.push(delta.iter().map(|op| op.fact.clone()).collect());
                Flow::Continue(())
            });
            let tally = kernel.tally;
            assert!(
                !tally.node_limit_hit && !tally.change_budget_hit && !tally.domain_clipped,
                "{src}: a cap clipped the enumeration: {tally:?}"
            );

            match report.outcome {
                SatOutcome::Satisfiable { explicit, .. } => {
                    let added: Vec<&Fact> = explicit.iter().filter(|f| !seed.contains(f)).collect();
                    assert!(
                        repairs.iter().any(|r| r.iter().all(|f| added.contains(&f))),
                        "{src}: {added:?} contains none of {repairs:?}"
                    );
                }
                other => assert!(repairs.is_empty(), "{src}: {other:?} but {repairs:?}"),
            }
        }
    }

    /// Undo is unconditional: whichever way a run ends, the kernel is
    /// back on its seed.
    #[test]
    fn a_breaking_leaf_leaves_the_seed() {
        let db = Database::parse(
            "emp(X) :- boss(X).
             seen(a). seen(b). boss(c).
             constraint c: forall X: seen(X) -> emp(X).",
        )
        .unwrap();
        let limits = Limits {
            max_nodes: 1_000,
            max_changes: 4,
            domain_cap: 256,
        };
        let runs = [
            (Moves::repair(), limits),
            (Moves::repair().insertions_only(), limits),
            (Moves::satisfiability(true, true, 2), limits),
            // Cut short by the node limit instead of the callback.
            (
                Moves::repair(),
                Limits {
                    max_nodes: 3,
                    ..limits
                },
            ),
        ];
        for (moves, limits) in runs {
            let seed = db.facts().clone();
            let dom = domain(&seed, db.rules(), db.constraints());
            let mut kernel = Enforcer::new(db.rules(), db.constraints(), seed, dom, moves, limits);
            let mut leaf: Option<(Vec<Fact>, Vec<Update>)> = None;
            let flow = kernel.run(&mut |facts, delta| {
                leaf = Some((sorted(facts), delta.to_vec()));
                Flow::Break(())
            });
            assert!(flow.is_break(), "{moves:?}");
            assert_eq!(sorted(kernel.facts()), sorted(db.facts()), "{moves:?}");
            assert_eq!(kernel.tally.node_limit_hit, leaf.is_none(), "{moves:?}");
            if let Some((facts, delta)) = leaf {
                // What the callback saw was the seed with the delta applied.
                let mut replayed = db.facts().clone();
                for op in &delta {
                    assert!(op.apply(&mut replayed), "{moves:?}: {op} ineffective");
                }
                assert_eq!(facts, sorted(&replayed), "{moves:?}");
            }
        }
    }

    /// A ground fact is matched against the rule as written: the match
    /// binds the rule's own head variables, and the free body variables
    /// are the rule's own names.
    #[test]
    fn rule_for_fact_keeps_the_rules_variables() {
        let rule = uniform_logic::parse_rule("above(X, Z) :- boss(X, Y), above(Y, Z).").unwrap();
        let (subst, free) = rule_for_fact(&rule, &Fact::parse_like("above", &["a", "c"])).unwrap();
        let [x, y, z] = ["X", "Y", "Z"].map(Sym::new);
        assert_eq!(subst.walk(Term::Var(x)), Term::Const(Sym::new("a")));
        assert_eq!(subst.walk(Term::Var(z)), Term::Const(Sym::new("c")));
        assert_eq!(free, [y]);
        assert!(rule_for_fact(&rule, &Fact::parse_like("boss", &["a", "c"])).is_none());
    }

    /// Every leaf delta of a repair run, in order, and its tally.
    fn repair_run(src: &str, limits: Limits) -> (Tally, Vec<String>) {
        let db = Database::parse(src).unwrap();
        let seed = db.facts().clone();
        let dom = domain(&seed, db.rules(), db.constraints());
        let mut kernel = Enforcer::new(
            db.rules(),
            db.constraints(),
            seed,
            dom,
            Moves::repair(),
            limits,
        );
        let mut leaves: Vec<String> = Vec::new();
        let _ = kernel.run(&mut |_, delta| {
            let ops: Vec<String> = delta.iter().map(|op| op.to_string()).collect();
            leaves.push(ops.join(" "));
            Flow::Continue(())
        });
        (kernel.tally, leaves)
    }

    /// The search tree of three repair shapes, counter by counter and
    /// leaf by leaf: how the kernel keys its state must not change which
    /// nodes it visits. The dense block (16 independent `step`/`stop`
    /// chains and one `imp` violation) runs into the node limit; the
    /// `flag_ok` shape falsifies a derived fact through its rule; the
    /// `q`/`r` cycle reaches one delta in two orders, and the second
    /// is pruned as settled.
    #[test]
    fn repair_tallies_are_pinned() {
        let mut dense = String::from(
            "constraint imp: forall X: p(X) -> q(X).
             constraint step: forall X: dp(X) -> dq(X).
             constraint stop: forall X: dq(X) -> false.
             p(a).",
        );
        for i in 0..16 {
            dense.push_str(&format!(" dp(c{i})."));
        }
        let limits = Limits {
            max_nodes: 100_000,
            max_changes: 24,
            domain_cap: 256,
        };
        let (tally, leaves) = repair_run(&dense, limits);
        let expected = Tally {
            nodes: 100_001,
            assertions: 20_005,
            undo_events: 19_996,
            max_level: 1,
            models_computed: 59_997,
            full_checks: 19_997,
            node_limit_hit: true,
            ..Tally::default()
        };
        assert_eq!(tally, expected);
        assert!(leaves.is_empty(), "{leaves:?}");

        let limits = Limits {
            max_nodes: 10_000,
            max_changes: 8,
            domain_cap: 256,
        };
        let (tally, leaves) = repair_run(
            "flagged(X) :- p(X), bad(X).
             constraint flag_ok: forall X: flagged(X) -> ok(X).
             p(a). bad(a). p(b). bad(b). ok(c).",
            limits,
        );
        let expected = Tally {
            nodes: 21,
            assertions: 4,
            undo_events: 4,
            max_level: 1,
            models_computed: 21,
            full_checks: 10,
            ..Tally::default()
        };
        assert_eq!(tally, expected);
        let expected = [
            "+ok(a) +ok(b)",
            "+ok(a) -p(b)",
            "+ok(a) -bad(b)",
            "-p(a) +ok(b)",
            "-p(a) -p(b)",
            "-p(a) -bad(b)",
            "-bad(a) +ok(b)",
            "-bad(a) -p(b)",
            "-bad(a) -bad(b)",
        ];
        assert_eq!(leaves, expected);

        let (tally, leaves) = repair_run(
            "constraint c1: forall X: p(X) -> q(X) | r(X).
             constraint c2: forall X: q(X) -> r(X).
             constraint c3: forall X: r(X) -> q(X).
             p(a).",
            limits,
        );
        let expected = Tally {
            nodes: 13,
            assertions: 4,
            undo_events: 4,
            max_level: 2,
            models_computed: 9,
            full_checks: 5,
            ..Tally::default()
        };
        assert_eq!(tally, expected);
        assert_eq!(leaves, ["+q(a) +r(a)", "-p(a)"]);
    }

    #[test]
    fn the_odometer_runs_its_first_slot_fastest() {
        let [a, b] = [Sym::new("a"), Sym::new("b")];
        let (ab, none) = (vec![a, b], Vec::new());
        let all: Vec<Vec<Sym>> = tuples(ab.as_slice(), 2, 4).unwrap().collect();
        assert_eq!(all, [[a, a], [b, a], [a, b], [b, b]]);
        assert!(tuples(ab.as_slice(), 2, 3).is_none(), "past the cap");
        assert_eq!(tuples(none.as_slice(), 2, 4).unwrap().count(), 0);
        // The empty tuple exists over any domain and under any cap.
        assert_eq!(tuples(none, 0, 0).unwrap().count(), 1);
    }
}
