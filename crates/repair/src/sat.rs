//! The SAT-backed repair backend: CAvSAT-style enumeration of
//! subset-minimal repairs, and preferred repairs as weighted MaxSAT.
//!
//! The bounded search of [`crate::engine`] is goal-directed but
//! exponential in the violation count: a state with `n` independent
//! violations explores `Θ(aᶰ)` branches and gives up with
//! [`RepairError::BudgetExhausted`] long before `n` reaches workload
//! scale. Following Dixit & Kolaitis's CAvSAT reduction, this module
//! instead *encodes* the active-domain repair space as one clause set
//! and lets conflict-driven clause learning do the pruning. Like
//! CAvSAT, it encodes only the part of the database a repair can touch:
//! the engine's scope, whose relations and constraints are the
//! affected closure ([`RepairEngine::affected_closure`]) — every
//! subset-minimal repair lies inside it. The clause set holds
//!
//! * one **change variable** per candidate EDB operation — deleting an
//!   explicit fact of a relevant relation, or inserting an absent
//!   active-domain tuple into one (relevance = the rule-graph closure
//!   of the affected constraints' literals: a repair touching anything
//!   else could never change a constraint verdict);
//! * **completion clauses** per referenced ground atom, `t ↔ e ∨ ⋁
//!   bodies` — the propositional image of the §4 completion transform,
//!   with `e` tied to the atom's change variable and each body a
//!   Tseitin conjunction over the rule's active-domain instances;
//! * **constraint clauses** from grounding each affected
//!   range-restricted constraint over the whole state's active domain;
//! * a **sequential-counter cardinality layer** `Σ change ≤
//!   max_changes`, guarded by an activator literal so the same clause
//!   set can also be asked "is there anything *beyond* the budget?";
//! * **blocking clauses**: after reporting a minimal repair `M`, the
//!   clause `⋁_{op ∈ M} ¬change(op)` permanently excludes every
//!   superset of `M`, so iterated solving walks the subset-minimal
//!   repairs one by one.
//!
//! The propositional completion is a *relaxation*: under recursion it
//! admits unfounded self-supporting models the stratified semantics
//! rejects. Every SAT model is therefore **verified** against the real
//! semantics on the whole state (the change set composed into the
//! engine's state as one hypothetical over its base model, every
//! constraint checked, in or out of the scope); a
//! spurious model is excluded by a clause pinning its exact change set
//! (sound: the change set determines the real model, so no genuine
//! repair is lost). A genuine model is shrunk to a
//! subset-minimal repair by destructive SAT-guided deletion before
//! being reported. Termination with UNSAT then proves the enumeration
//! complete, and one extra solve with the cardinality activator negated
//! decides `budget_clipped` *exactly* — which is how this backend
//! serves certain answers on violation-dense states the search refuses.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use uniform_datalog::Update;
use uniform_logic::{Atom, Fact, Rq, Subst, Sym};
use uniform_satisfiability::{
    enforce, Assignment, CdclSolver, Cnf, Lit, SanityCheckingSolver, SolveResult, Solver,
};

use crate::engine::{
    op_cmp, RepairEngine, RepairError, RepairOptions, RepairReport, RepairSet, RepairStats, Scope,
};

/// CNF encoding of the active-domain repair space of one engine state,
/// over its [`Scope`]: the scope's facts and constraints, grounded over
/// the scope's domain — the search's, so both backends ground over the
/// same space.
struct Encoder<'a> {
    eng: &'a RepairEngine,
    scope: &'a Scope,
    cnf: Cnf,
    /// Candidate EDB operations in canonical [`op_cmp`] order.
    candidates: Vec<Update>,
    /// `change[i]` holds iff candidate `i` is applied.
    change: Vec<Lit>,
    /// Fact → index of its unique candidate (deletion if explicit,
    /// insertion if absent).
    candidate_of: HashMap<Fact, usize>,
    /// Truth literal per referenced ground atom.
    truth: HashMap<Fact, Lit>,
    /// A variable pinned true by a unit clause (`!true_lit` is false).
    true_lit: Lit,
    /// Some cardinality activator actually constrains the change set.
    has_cardinality: bool,
    /// The grounding or the insertion universe was clipped by
    /// `domain_cap`: the encoding over-constrains and completeness is
    /// forfeited (mirrors the search's flag).
    domain_clipped: bool,
    /// Known arities (facts ∪ constraint literals ∪ rule atoms).
    arity: BTreeMap<Sym, usize>,
}

impl<'a> Encoder<'a> {
    fn build(eng: &'a RepairEngine, scope: &'a Scope) -> Encoder<'a> {
        let mut cnf = Cnf::new();
        let true_lit = Lit::pos(cnf.fresh_var());
        cnf.add_clause([true_lit]);

        // Relations a repair may usefully touch: everything some
        // constraint of the scope can observe, closed through the rule
        // graph.
        let graph = eng.rules().graph();
        let mut relevant: BTreeSet<Sym> = BTreeSet::new();
        for c in &scope.constraints {
            c.rq.for_each_atom(&mut |a| relevant.extend(graph.reachable(a.pred)));
        }

        let mut arity: BTreeMap<Sym, usize> = BTreeMap::new();
        for f in scope.facts.iter() {
            arity.insert(f.pred, f.args.len());
        }
        for c in &scope.constraints {
            c.rq.for_each_atom(&mut |a| {
                arity.entry(a.pred).or_insert(a.args.len());
            });
        }
        for r in eng.rules().rules() {
            arity.entry(r.head.pred).or_insert(r.head.args.len());
            for l in &r.body {
                arity.entry(l.atom.pred).or_insert(l.atom.args.len());
            }
        }

        let mut enc = Encoder {
            eng,
            scope,
            cnf,
            candidates: Vec::new(),
            change: Vec::new(),
            candidate_of: HashMap::new(),
            truth: HashMap::new(),
            true_lit,
            has_cardinality: false,
            domain_clipped: false,
            arity,
        };
        enc.build_candidates(&relevant);
        enc.encode_constraints();
        enc
    }

    fn build_candidates(&mut self, relevant: &BTreeSet<Sym>) {
        let cap = self.eng.options().domain_cap;
        let mut cands: Vec<Update> = Vec::new();
        // Deletions: every explicit fact of a relevant relation (also
        // explicit facts on derived predicates — the store allows them
        // and the search deletes them too).
        for f in self.scope.facts.iter() {
            if relevant.contains(&f.pred) {
                cands.push(Update::delete(f));
            }
        }
        // Insertions: every absent active-domain tuple of a relevant
        // relation — unless the tuple space blows the domain cap, which
        // clips the repair space and forfeits completeness.
        let mut preds: Vec<Sym> = relevant.iter().copied().collect();
        preds.sort_by_key(|s| s.as_str());
        for pred in preds {
            let Some(&ar) = self.arity.get(&pred) else {
                continue;
            };
            let Some(tuples) = enforce::tuples(self.scope.domain.as_slice(), ar, cap) else {
                self.domain_clipped = true;
                continue;
            };
            let absent = tuples
                .map(|args| Fact::new(pred, args))
                .filter(|f| !self.scope.facts.contains(f));
            cands.extend(absent.map(Update::insert));
        }
        cands.sort_by(op_cmp);
        self.change = (0..cands.len())
            .map(|_| Lit::pos(self.cnf.fresh_var()))
            .collect();
        for (i, c) in cands.iter().enumerate() {
            self.candidate_of.insert(c.fact.clone(), i);
        }
        self.candidates = cands;
    }

    fn encode_constraints(&mut self) {
        let scope = self.scope;
        for c in &scope.constraints {
            let l = self.formula_lit(&c.rq, &Subst::new());
            self.cnf.add_clause([l]);
        }
    }

    /// Tseitin literal of a (σ-instantiated) reduced formula, with full
    /// equivalences so a real repair's induced assignment always
    /// extends to the auxiliary variables.
    fn formula_lit(&mut self, rq: &Rq, sigma: &Subst) -> Lit {
        match rq {
            Rq::True => self.true_lit,
            Rq::False => !self.true_lit,
            Rq::Lit(l) => {
                let t = self.atom_lit(&l.atom, sigma);
                if l.positive {
                    t
                } else {
                    !t
                }
            }
            Rq::And(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.formula_lit(p, sigma)).collect();
                self.and_lit(lits)
            }
            Rq::Or(parts) => {
                let lits: Vec<Lit> = parts.iter().map(|p| self.formula_lit(p, sigma)).collect();
                self.or_lit(lits)
            }
            Rq::Forall { vars, range, body } => {
                let mut insts: Vec<Lit> = Vec::new();
                for s in self.combos(vars, sigma) {
                    let mut alts: Vec<Lit> = range.iter().map(|a| !self.atom_lit(a, &s)).collect();
                    alts.push(self.formula_lit(body, &s));
                    insts.push(self.or_lit(alts));
                }
                self.and_lit(insts)
            }
            Rq::Exists { vars, range, body } => {
                let mut insts: Vec<Lit> = Vec::new();
                for s in self.combos(vars, sigma) {
                    let mut parts: Vec<Lit> = range.iter().map(|a| self.atom_lit(a, &s)).collect();
                    parts.push(self.formula_lit(body, &s));
                    insts.push(self.and_lit(parts));
                }
                self.or_lit(insts)
            }
        }
    }

    fn atom_lit(&mut self, atom: &Atom, sigma: &Subst) -> Lit {
        match sigma.ground_atom(atom) {
            Some(f) => self.truth_lit(&f),
            None => {
                // Closed constraints ground under their quantifier
                // bindings; a leftover variable means a malformed nest.
                // Leave the instance unconstrained and flag the clip.
                self.domain_clipped = true;
                self.true_lit
            }
        }
    }

    /// Truth literal of a ground atom in the repaired model, installing
    /// its completion clauses on first reference.
    fn truth_lit(&mut self, fact: &Fact) -> Lit {
        if let Some(&l) = self.truth.get(fact) {
            return l;
        }
        let has_rules = self.eng.rules().rules_for(fact.pred).next().is_some();
        let e = self.explicit_lit(fact);
        if !has_rules {
            self.truth.insert(fact.clone(), e);
            return e;
        }
        let t = Lit::pos(self.cnf.fresh_var());
        // Install before grounding the bodies: recursive rules reach
        // this very atom again and must see the variable.
        self.truth.insert(fact.clone(), t);
        let mut supports = vec![e];
        let rules: Vec<_> = self
            .eng
            .rules()
            .rules_for(fact.pred)
            .filter_map(|(_, r)| {
                let (subst, free) = enforce::rule_for_fact(r, fact)?;
                Some((r, subst, free))
            })
            .collect();
        for (rule, subst, free) in rules {
            'combos: for s in self.combos(&free, &subst) {
                let mut parts: Vec<Lit> = Vec::new();
                for l in &rule.body {
                    let Some(f) = s.ground_atom(&l.atom) else {
                        self.domain_clipped = true;
                        continue 'combos;
                    };
                    let tl = self.truth_lit(&f);
                    parts.push(if l.positive { tl } else { !tl });
                }
                let b = self.and_lit(parts);
                supports.push(b);
            }
        }
        // t ↔ e ∨ ⋁ bodies (the completion, both directions).
        for &s in &supports {
            self.cnf.add_clause([!s, t]);
        }
        let mut any = vec![!t];
        any.extend(supports);
        self.cnf.add_clause(any);
        t
    }

    /// Explicit-membership literal of a ground atom after the change
    /// set is applied.
    fn explicit_lit(&mut self, fact: &Fact) -> Lit {
        if let Some(&i) = self.candidate_of.get(fact) {
            let c = self.change[i];
            if self.candidates[i].insert {
                c
            } else {
                !c
            }
        } else {
            // Every relation of the scope is relevant, so every explicit
            // fact it holds has a delete candidate: this atom is absent
            // and uninsertable (clipped insertion universe or
            // out-of-domain constants), and stays false.
            debug_assert!(!self.scope.facts.contains(fact), "{fact} has no candidate");
            !self.true_lit
        }
    }

    /// The assignments of `vars` over the active domain extending `base`
    /// — none, flagging `domain_clipped`, past the domain cap (the same
    /// skip the search makes). Clause and variable numbering, and with
    /// them the solver's effort counters, follow this order: last
    /// variable fastest, the reverse of the kernel's odometer.
    fn combos(&mut self, vars: &[Sym], base: &Subst) -> Vec<Subst> {
        let vars: Vec<Sym> = vars.iter().rev().copied().collect();
        let cap = self.eng.options().domain_cap;
        let all: Option<Vec<Subst>> =
            enforce::assignments(self.scope.domain.as_slice(), &vars, base, cap)
                .map(Iterator::collect);
        self.domain_clipped |= all.is_none();
        all.unwrap_or_default()
    }

    fn and_lit(&mut self, lits: Vec<Lit>) -> Lit {
        if lits.is_empty() {
            return self.true_lit;
        }
        if lits.len() == 1 {
            return lits[0];
        }
        let a = Lit::pos(self.cnf.fresh_var());
        for &l in &lits {
            self.cnf.add_clause([!a, l]);
        }
        let mut back = vec![a];
        back.extend(lits.iter().map(|&l| !l));
        self.cnf.add_clause(back);
        a
    }

    fn or_lit(&mut self, lits: Vec<Lit>) -> Lit {
        if lits.is_empty() {
            return !self.true_lit;
        }
        if lits.len() == 1 {
            return lits[0];
        }
        let a = Lit::pos(self.cnf.fresh_var());
        for &l in &lits {
            self.cnf.add_clause([!l, a]);
        }
        let mut back = vec![!a];
        back.extend(lits.iter().copied());
        self.cnf.add_clause(back);
        a
    }

    /// Install one sequential counter (Sinz LT-SEQ) over the change
    /// variables and, per requested bound `b`, overflow clauses guarded
    /// by a fresh activator: assuming the activator enforces
    /// `Σ change ≤ b`; negating it relaxes the bound entirely. Bounds
    /// at or above the candidate count get an unconstrained activator.
    /// Call at most once per encoder.
    fn cardinality_activators(&mut self, bounds: &[usize]) -> BTreeMap<usize, Lit> {
        let n = self.change.len();
        let mut out: BTreeMap<usize, Lit> = BTreeMap::new();
        let kmax = bounds
            .iter()
            .copied()
            .filter(|&b| b > 0 && b < n)
            .max()
            .unwrap_or(0);
        // rows[i][j] ⇐ "at least j+1 of the first i+1 change vars
        // hold" (one-directional: only ever forced true). Prefixes
        // 1..n-1 suffice — the overflow clause at element i consults
        // row i-1.
        let mut rows: Vec<Vec<Lit>> = Vec::new();
        for i in 0..n.saturating_sub(1) {
            if kmax == 0 {
                break;
            }
            let row: Vec<Lit> = (0..kmax).map(|_| Lit::pos(self.cnf.fresh_var())).collect();
            self.cnf.add_clause([!self.change[i], row[0]]);
            if i > 0 {
                let prev = rows[i - 1].clone();
                self.cnf.add_clause([!prev[0], row[0]]);
                for j in 1..kmax {
                    self.cnf.add_clause([!prev[j], row[j]]);
                    self.cnf.add_clause([!self.change[i], !prev[j - 1], row[j]]);
                }
            }
            rows.push(row);
        }
        for &b in bounds {
            if out.contains_key(&b) {
                continue;
            }
            let g = Lit::pos(self.cnf.fresh_var());
            if b >= n {
                // Nothing to enforce: every change set fits.
            } else if b == 0 {
                for i in 0..n {
                    self.cnf.add_clause([!self.change[i], !g]);
                }
                self.has_cardinality = true;
            } else {
                for i in 1..n {
                    // change_i ∧ (≥ b among the first i) → ¬g
                    self.cnf
                        .add_clause([!self.change[i], !rows[i - 1][b - 1], !g]);
                }
                self.has_cardinality = true;
            }
            out.insert(b, g);
        }
        out
    }
}

/// Iterated solve / verify / block loop shared by plain enumeration and
/// the MaxSAT layers.
struct Enumerator<'a> {
    enc: Encoder<'a>,
    solver: SanityCheckingSolver<CdclSolver>,
    /// Remaining conflict budget, from [`RepairOptions::max_branches`].
    remaining: u64,
    branch_limit_hit: bool,
    models_computed: usize,
    models_seen: usize,
}

impl<'a> Enumerator<'a> {
    fn new(eng: &'a RepairEngine, scope: &'a Scope) -> Enumerator<'a> {
        Enumerator {
            enc: Encoder::build(eng, scope),
            solver: SanityCheckingSolver::new(CdclSolver::new()),
            remaining: eng.options().max_branches as u64,
            branch_limit_hit: false,
            models_computed: 0,
            models_seen: 0,
        }
    }

    fn solve(&mut self, assumptions: &[Lit]) -> Option<SolveResult> {
        if self.branch_limit_hit {
            return None;
        }
        let before = self.solver.stats().conflicts;
        let res =
            self.solver
                .solve_limited(&self.enc.cnf, assumptions, Some(self.remaining.max(1)));
        let used = self.solver.stats().conflicts.saturating_sub(before);
        self.remaining = self.remaining.saturating_sub(used);
        if res.is_none() {
            self.branch_limit_hit = true;
        }
        res
    }

    fn change_set(&self, a: &Assignment) -> Vec<usize> {
        (0..self.enc.change.len())
            .filter(|&i| a.lit_true(self.enc.change[i]))
            .collect()
    }

    /// Apply a candidate change set to the whole state and check the
    /// repaired canonical model against every constraint — the
    /// lazy-encoding soundness gate (unfounded recursive support in the
    /// propositional completion cannot survive it), independent of the
    /// scope.
    fn genuine(&mut self, set: &[usize]) -> bool {
        self.models_computed += 1;
        let ops: Vec<Update> = set
            .iter()
            .map(|&i| self.enc.candidates[i].clone())
            .collect();
        let repaired = self.enc.eng.state().then(&ops);
        enforce::consistent(&repaired, self.enc.eng.constraints())
    }

    /// Exclude exactly this assignment's change set (sound for spurious
    /// models: the change set determines the real repaired model, so an
    /// identical set can never become genuine).
    fn block_exact(&mut self, a: &Assignment) {
        let lits: Vec<Lit> = self
            .enc
            .change
            .iter()
            .map(|&c| if a.lit_true(c) { !c } else { c })
            .collect();
        self.enc.cnf.add_clause(lits);
    }

    /// Permanently exclude every superset of a reported minimal repair.
    /// (For the empty repair of a consistent state this is the empty
    /// clause — enumeration is done.)
    fn block_supersets(&mut self, set: &[usize]) {
        let lits: Vec<Lit> = set.iter().map(|&i| !self.enc.change[i]).collect();
        self.enc.cnf.add_clause(lits);
    }

    /// Next change set that survives real-model verification, blocking
    /// spurious models as they appear. `None` on UNSAT or an exhausted
    /// conflict budget (check `branch_limit_hit` to tell them apart).
    fn next_genuine(&mut self, assumptions: &[Lit]) -> Option<Vec<usize>> {
        loop {
            match self.solve(assumptions)? {
                SolveResult::Unsat => return None,
                SolveResult::Sat(a) => {
                    self.models_seen += 1;
                    let set = self.change_set(&a);
                    if self.genuine(&set) {
                        return Some(set);
                    }
                    self.block_exact(&a);
                }
            }
        }
    }

    /// Shrink a genuine change set to a subset-minimal repair by
    /// destructive SAT-guided deletion: per op (canonical order), ask
    /// for a genuine repair within the current set minus that op;
    /// success replaces the current set, proven failure pins the op.
    /// Earlier blocking clauses cannot interfere — the current set is
    /// never a superset of a previously reported minimal repair, so
    /// neither is any of its subsets.
    fn minimize(&mut self, mut current: Vec<usize>, base: &[Lit]) -> Vec<usize> {
        let order = current.clone();
        let n = self.enc.change.len();
        for &drop in &order {
            if self.branch_limit_hit {
                break;
            }
            if !current.contains(&drop) {
                continue;
            }
            let allowed: BTreeSet<usize> = current.iter().copied().filter(|&i| i != drop).collect();
            let mut assumptions: Vec<Lit> = base.to_vec();
            for i in 0..n {
                if !allowed.contains(&i) {
                    assumptions.push(!self.enc.change[i]);
                }
            }
            if let Some(sub) = self.next_genuine(&assumptions) {
                current = sub;
            }
        }
        current
    }

    fn repair_set(&self, set: &[usize]) -> RepairSet {
        RepairSet::from_ops(set.iter().map(|&i| self.enc.candidates[i].clone()))
    }

    fn explored(&self, options: &RepairOptions) -> usize {
        (options.max_branches as u64).saturating_sub(self.remaining) as usize + self.models_seen
    }
}

/// Enumerate the subset-minimal repairs by iterated SAT with blocking
/// clauses — the engine of [`crate::engine::RepairBackend::Sat`].
pub(crate) fn sat_repairs(eng: &RepairEngine, scope: &Scope) -> Result<RepairReport, RepairError> {
    let options = *eng.options();
    let mut en = Enumerator::new(eng, scope);
    let acts = en.enc.cardinality_activators(&[options.max_changes]);
    let g = acts[&options.max_changes];
    let mut found: Vec<RepairSet> = Vec::new();
    let mut repair_cap_hit = false;
    while let Some(set) = en.next_genuine(&[g]) {
        let min = en.minimize(set, &[g]);
        en.block_supersets(&min);
        found.push(en.repair_set(&min));
        if found.len() >= options.max_repairs {
            repair_cap_hit = true;
            break;
        }
    }

    let clean = !en.branch_limit_hit && !repair_cap_hit;
    // Exact `budget_clipped`: with the activator negated the counter is
    // off; UNSAT then proves even unboundedly large change sets are all
    // supersets of reported repairs (or spurious, or inconsistent) — no
    // minimal repair beyond the budget exists.
    let budget_clipped = if !en.enc.has_cardinality {
        false
    } else if !clean {
        true
    } else {
        !matches!(en.solve(&[!g]), Some(SolveResult::Unsat))
    };

    found.sort();
    // Subset filter, load-bearing only when the conflict budget cut a
    // minimization short (then a later, smaller repair can subsume an
    // earlier unminimized one).
    let mut repairs: Vec<RepairSet> = Vec::new();
    for cand in found {
        if !repairs.iter().any(|kept| kept.is_subset_of(&cand)) {
            repairs.push(cand);
        }
    }

    let explored = en.explored(&options);
    if repairs.is_empty() {
        if en.branch_limit_hit || repair_cap_hit || en.enc.domain_clipped {
            return Err(RepairError::BudgetExhausted {
                explored,
                max_branches: options.max_branches,
                budget_clipped,
            });
        }
        return Err(RepairError::Unrepairable {
            schema_unsatisfiable: eng.schema_unsatisfiable(),
            budget_clipped,
        });
    }
    let max_level = repairs.iter().map(|r| r.len()).max().unwrap_or(0);
    Ok(RepairReport {
        repairs,
        stats: RepairStats {
            explored,
            models_computed: en.models_computed,
            candidates: en.models_seen,
            max_level,
            parts: 0,
            verified: en.models_computed,
            solver: en.solver.stats(),
        },
        complete: clean && !en.enc.domain_clipped,
        budget_clipped,
    })
}

/// Preference order over repairs: per-relation operation weights
/// (default 1) and protected relations whose facts no repair may touch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairPreferences {
    weights: BTreeMap<Sym, u64>,
    protected: BTreeSet<Sym>,
}

impl RepairPreferences {
    pub fn new() -> RepairPreferences {
        RepairPreferences::default()
    }

    /// Cost of touching one fact of `pred` (higher = less preferred).
    pub fn weight(mut self, pred: impl Into<Sym>, weight: u64) -> RepairPreferences {
        self.weights.insert(pred.into(), weight);
        self
    }

    /// Exclude every operation on `pred` from the repair space.
    pub fn protect(mut self, pred: impl Into<Sym>) -> RepairPreferences {
        self.protected.insert(pred.into());
        self
    }
}

/// A pluggable preference order — the chooser hook PR 4 left open.
/// Implemented by [`RepairPreferences`]; implement it directly for
/// domain-specific policies (e.g. "deletes cost double").
pub trait RepairChooser {
    /// Cost of one EDB operation; repairs compare by total cost.
    fn op_weight(&self, op: &Update) -> u64;

    /// Protected operations are excluded from the repair space outright.
    fn is_protected(&self, op: &Update) -> bool {
        let _ = op;
        false
    }
}

impl RepairChooser for RepairPreferences {
    fn op_weight(&self, op: &Update) -> u64 {
        self.weights.get(&op.fact.pred).copied().unwrap_or(1)
    }

    fn is_protected(&self, op: &Update) -> bool {
        self.protected.contains(&op.fact.pred)
    }
}

/// A weight-minimal repair among the subset-minimal ones (ties broken
/// by the canonical [`RepairSet`] order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreferredRepair {
    pub repair: RepairSet,
    /// Sum of the chooser's op weights over the repair.
    pub cost: u64,
}

/// Branch-and-bound weighted MaxSAT over cardinality layers: enumerate
/// minimal repairs of size ≤ b for b = 0, 1, …, `max_changes`, keeping
/// the cheapest; once `b · min_weight` can no longer beat the
/// incumbent, stop. Protected relations become hard unit clauses. Since
/// every weight is nonnegative and the optimum over *minimal* repairs
/// is the optimum over all repairs (dropping ops never raises cost),
/// the incumbent at exit is the weight-minimal repair within the fact
/// budget.
pub(crate) fn sat_preferred(
    eng: &RepairEngine,
    scope: &Scope,
    chooser: &dyn RepairChooser,
) -> Result<PreferredRepair, RepairError> {
    let options = *eng.options();
    let mut en = Enumerator::new(eng, scope);
    let weights: Vec<u64> = en
        .enc
        .candidates
        .iter()
        .map(|c| chooser.op_weight(c))
        .collect();
    let protected: BTreeSet<usize> = en
        .enc
        .candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| chooser.is_protected(c))
        .map(|(i, _)| i)
        .collect();
    for &i in &protected {
        let unit = !en.enc.change[i];
        en.enc.cnf.add_clause([unit]);
    }
    let min_weight = weights
        .iter()
        .enumerate()
        .filter(|(i, _)| !protected.contains(i))
        .map(|(_, &w)| w)
        .min()
        .unwrap_or(0);

    let bounds: Vec<usize> = (0..=options.max_changes).collect();
    let acts = en.enc.cardinality_activators(&bounds);
    let mut best: Option<PreferredRepair> = None;
    let mut found_count = 0usize;
    let mut repair_cap_hit = false;
    'layers: for b in 0..=options.max_changes {
        if let Some(p) = &best {
            // Any repair still unseen needs ≥ b ops, so costs ≥ b·min.
            if min_weight > 0 && (b as u64).saturating_mul(min_weight) >= p.cost {
                break;
            }
        }
        let gb = acts[&b];
        while let Some(set) = en.next_genuine(&[gb]) {
            let min = en.minimize(set, &[gb]);
            en.block_supersets(&min);
            found_count += 1;
            let cost: u64 = min.iter().map(|&i| weights[i]).sum();
            let repair = en.repair_set(&min);
            let better = match &best {
                None => true,
                Some(p) => cost < p.cost || (cost == p.cost && repair < p.repair),
            };
            if better {
                best = Some(PreferredRepair { repair, cost });
            }
            if found_count >= options.max_repairs {
                repair_cap_hit = true;
                break 'layers;
            }
        }
        if en.branch_limit_hit {
            break;
        }
    }

    let explored = en.explored(&options);
    match best {
        Some(p) => Ok(p),
        None => {
            if en.branch_limit_hit || repair_cap_hit || en.enc.domain_clipped {
                Err(RepairError::BudgetExhausted {
                    explored,
                    max_branches: options.max_branches,
                    budget_clipped: en.enc.has_cardinality,
                })
            } else {
                // Clean exhaustion under protections and budget. Beyond
                // them, something might still exist: probe with every
                // activator relaxed.
                let relax: Vec<Lit> = acts.values().map(|&g| !g).collect();
                let budget_clipped =
                    en.enc.has_cardinality && !matches!(en.solve(&relax), Some(SolveResult::Unsat));
                Err(RepairError::Unrepairable {
                    schema_unsatisfiable: eng.schema_unsatisfiable(),
                    budget_clipped,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RepairBackend;
    use uniform_datalog::Database;

    fn engine(src: &str) -> RepairEngine {
        let db = Database::parse(src).unwrap();
        RepairEngine::new(
            db.facts().clone(),
            db.rules().clone(),
            db.constraints().to_vec(),
        )
    }

    fn sat_options() -> RepairOptions {
        RepairOptions {
            backend: RepairBackend::Sat,
            ..RepairOptions::default()
        }
    }

    fn rendered(report: &RepairReport) -> Vec<String> {
        report.repairs.iter().map(|r| r.to_string()).collect()
    }

    #[test]
    fn consistent_state_yields_the_empty_repair() {
        let eng = engine(
            "p(a). q(a).
             constraint c: forall X: p(X) -> q(X).",
        )
        .with_options(sat_options());
        let report = eng.repairs().unwrap();
        assert_eq!(rendered(&report), vec!["{}"]);
        assert!(report.complete);
        assert!(!report.budget_clipped);
        assert!(report.covers_all_minimal_repairs());
    }

    #[test]
    fn implication_offers_insert_and_delete() {
        let eng = engine(
            "p(a).
             constraint c: forall X: p(X) -> q(X).",
        )
        .with_options(sat_options());
        let report = eng.repairs().unwrap();
        assert_eq!(rendered(&report), vec!["{-p(a)}", "{+q(a)}"]);
        assert!(report.covers_all_minimal_repairs());
        assert!(report.stats.solver.decisions + report.stats.solver.propagations > 0);
    }

    #[test]
    fn sat_and_search_agree_through_rule_bodies() {
        let src = "p(a).
             bad(X) :- p(X), absent_ok(X).
             absent_ok(X) :- p(X), not ok(X).
             constraint c: forall X: bad(X) -> false.";
        let sat = engine(src).with_options(sat_options()).repairs().unwrap();
        let search = engine(src).repairs().unwrap();
        assert_eq!(rendered(&sat), rendered(&search));
        assert!(sat.covers_all_minimal_repairs());
        assert!(search.covers_all_minimal_repairs());
    }

    #[test]
    fn stratified_negation_respected() {
        let src = "seen(a).
             present(X) :- seen(X), not absent(X).
             constraint c: forall X: present(X) -> false.";
        let sat = engine(src).with_options(sat_options()).repairs().unwrap();
        let search = engine(src).repairs().unwrap();
        assert_eq!(rendered(&sat), rendered(&search));
    }

    #[test]
    fn fact_budget_bounds_repair_size_exactly_like_search() {
        let src = "p(a). p(b). p(c).
             constraint c: forall X: p(X) -> q(X).";
        let opts = RepairOptions {
            max_changes: 2,
            backend: RepairBackend::Sat,
            ..RepairOptions::default()
        };
        let err = engine(src).with_options(opts).repairs().unwrap_err();
        assert_eq!(
            err,
            RepairError::Unrepairable {
                schema_unsatisfiable: false,
                budget_clipped: true,
            }
        );
    }

    /// A violation-dense state: one constraint chain per fact, so every
    /// minimal repair deletes all `n` facts and the search must explore
    /// ~3ⁿ enforcement nodes while unit propagation settles the clause
    /// set without a single conflict.
    fn dense(n: usize) -> String {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("p(c{i}). "));
        }
        src.push_str(
            "constraint step: forall X: p(X) -> q(X).
             constraint stop: forall X: q(X) -> false.",
        );
        src
    }

    #[test]
    fn sat_answers_where_the_search_refuses() {
        let opts = RepairOptions {
            max_changes: 8,
            max_branches: 200,
            ..RepairOptions::default()
        };
        let search_err = engine(&dense(8)).with_options(opts).repairs().unwrap_err();
        assert!(matches!(search_err, RepairError::BudgetExhausted { .. }));

        let sat_opts = RepairOptions {
            backend: RepairBackend::Sat,
            ..opts
        };
        let report = engine(&dense(8)).with_options(sat_opts).repairs().unwrap();
        assert_eq!(report.repairs.len(), 1);
        assert_eq!(report.repairs[0].len(), 8);
        assert!(report.covers_all_minimal_repairs());
    }

    /// `Auto` settles `dense(8)` by splitting it into its eight parts;
    /// one vacuous constraint joining `p` and `q` on two variables takes
    /// the part key away, and the whole-scope search, starved, escalates
    /// to SAT.
    #[test]
    fn auto_escalates_past_the_search_budget() {
        let opts = RepairOptions {
            max_changes: 8,
            max_branches: 200,
            backend: RepairBackend::Auto,
            ..RepairOptions::default()
        };
        let unkeyed = format!(
            "{} constraint link_pq: forall X, Y: p(X) & q(Y) & link(X, Y) -> false.",
            dense(8)
        );
        for (src, parts, escalates) in [(dense(8), 8, false), (unkeyed, 0, true)] {
            let report = engine(&src).with_options(opts).repairs().unwrap();
            assert_eq!(report.repairs.len(), 1);
            assert_eq!(report.repairs[0].len(), 8);
            assert!(report.covers_all_minimal_repairs());
            assert_eq!(report.stats.parts, parts);
            assert_eq!(report.stats.solver.propagations > 0, escalates, "{src}");
            // Certain answers flow through the same escalation.
            let eng = engine(&src).with_options(opts);
            let query = [uniform_logic::Atom::parse_like("p", &["X"]).pos()];
            let rows = eng.consistent_answers(&query).unwrap();
            assert!(rows.is_empty(), "every repair deletes all p facts");
        }
    }

    #[test]
    fn auto_keeps_search_results_when_coverage_holds() {
        let eng = engine(
            "p(a).
             constraint c: forall X: p(X) -> q(X).",
        )
        .with_options(RepairOptions {
            backend: RepairBackend::Auto,
            ..RepairOptions::default()
        });
        let report = eng.repairs().unwrap();
        assert_eq!(rendered(&report), vec!["{-p(a)}", "{+q(a)}"]);
        // Search served it: no solver effort was spent.
        assert_eq!(report.stats.solver.decisions, 0);
        assert_eq!(report.stats.solver.conflicts, 0);
    }

    #[test]
    fn preferred_repair_follows_weights() {
        let src = "p(a).
             constraint c: forall X: p(X) -> q(X).";
        let eng = engine(src).with_options(sat_options());
        let cheap_delete = RepairPreferences::new().weight("p", 1).weight("q", 5);
        let p = eng.preferred_repair(&cheap_delete).unwrap();
        assert_eq!(p.repair.to_string(), "{-p(a)}");
        assert_eq!(p.cost, 1);

        let cheap_insert = RepairPreferences::new().weight("p", 5).weight("q", 1);
        let p = eng.preferred_repair(&cheap_insert).unwrap();
        assert_eq!(p.repair.to_string(), "{+q(a)}");
        assert_eq!(p.cost, 1);
    }

    #[test]
    fn preferred_repair_honors_protected_relations() {
        let src = "p(a).
             constraint c: forall X: p(X) -> q(X).";
        let eng = engine(src).with_options(sat_options());
        // Even though q is expensive, protecting p leaves no choice.
        let prefs = RepairPreferences::new().protect("p").weight("q", 100);
        let p = eng.preferred_repair(&prefs).unwrap();
        assert_eq!(p.repair.to_string(), "{+q(a)}");
        assert_eq!(p.cost, 100);

        // Protecting everything makes the state unrepairable.
        let all = RepairPreferences::new().protect("p").protect("q");
        let err = eng.preferred_repair(&all).unwrap_err();
        assert!(matches!(err, RepairError::Unrepairable { .. }), "{err:?}");
    }

    #[test]
    fn preferred_repair_breaks_ties_canonically() {
        let src = "p(a).
             constraint c: forall X: p(X) -> q(X).";
        let eng = engine(src).with_options(sat_options());
        let p = eng.preferred_repair(&RepairPreferences::new()).unwrap();
        // Equal weights: {-p(a)} precedes {+q(a)} in canonical order.
        assert_eq!(p.repair.to_string(), "{-p(a)}");
        assert_eq!(p.cost, 1);
    }

    #[test]
    fn preferred_repair_of_a_consistent_state_is_empty() {
        let eng = engine(
            "p(a). q(a).
             constraint c: forall X: p(X) -> q(X).",
        )
        .with_options(sat_options());
        let p = eng.preferred_repair(&RepairPreferences::new()).unwrap();
        assert!(p.repair.is_empty());
        assert_eq!(p.cost, 0);
    }

    #[test]
    fn existential_constraints_are_repaired() {
        let src = "employee(e1).
             constraint someone: exists X: manager(X).";
        let sat = engine(src).with_options(sat_options()).repairs().unwrap();
        let search = engine(src).repairs().unwrap();
        assert_eq!(rendered(&sat), rendered(&search));
        assert!(sat.covers_all_minimal_repairs());
    }

    #[test]
    fn recursive_rules_do_not_admit_unfounded_support() {
        // reach is recursive; the propositional completion alone would
        // accept the self-supporting model {reach(a,a)} without any
        // edge. Verification must force a real derivation.
        let src = "node(a).
             reach(X, X) :- node(X).
             reach(X, Y) :- reach(X, Z), edge(Z, Y).
             constraint c: forall X: goal(X) -> false.
             constraint g: exists X: reach(X, X).";
        let sat = engine(src).with_options(sat_options()).repairs().unwrap();
        // node(a) already yields reach(a,a): consistent, empty repair.
        assert_eq!(rendered(&sat), vec!["{}"]);
    }
}
