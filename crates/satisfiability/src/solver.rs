//! A bundled propositional CDCL solver behind a pluggable [`Solver`]
//! trait.
//!
//! PR 4's repair engine enumerates subset-minimal repairs by bounded
//! enforcement search — exhaustive but exponential in the violation
//! count. The CAvSAT line of work (Dixit & Kolaitis, PAPERS.md) shows
//! the scalable formulation: encode the repair space as clauses and
//! drive enumeration by repeated SAT calls. This module supplies the
//! propositional core for that reduction: a [`Cnf`] builder, a
//! [`Solver`] trait with incremental assumptions and conflict budgets,
//! a deterministic conflict-driven clause-learning implementation
//! ([`CdclSolver`]: two-watched-literal propagation, first-UIP clause
//! learning, VSIDS-lite decision ordering, Luby restarts, false-first
//! phase saving), and a [`SanityCheckingSolver`] wrapper that
//! re-verifies every model — and, on small instances, every UNSAT
//! verdict — against the clause set in debug builds.
//!
//! The solver is bundled in-repo, mirroring the shim discipline
//! (`crates/shims/`): no registry access is available, so there is no
//! external SAT dependency to bind to. Everything here is fully
//! deterministic — ties in the decision order break toward the lowest
//! variable index, and no randomization or wall-clock input exists —
//! so repair enumeration stays digest-stable across runs and processes
//! (`tests/determinism.rs`).

use std::fmt;

/// A propositional literal: variable index plus sign, packed into one
/// word (`2·var` positive, `2·var + 1` negated).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    /// The negated literal of `var`.
    pub fn neg(var: u32) -> Lit {
        Lit(var << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// Is this the positive literal?
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index for watch lists (`2·var + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var())
        } else {
            write!(f, "!x{}", self.var())
        }
    }
}

/// A formula in conjunctive normal form, grown monotonically: callers
/// mint variables with [`Cnf::fresh_var`] and append clauses with
/// [`Cnf::add_clause`]. Tautological clauses are dropped and duplicate
/// literals merged at insertion, so the stored clause set is exactly
/// what the solver loads.
#[derive(Clone, Debug, Default)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Mint a fresh variable and return its index.
    pub fn fresh_var(&mut self) -> u32 {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Append a clause (a disjunction of literals). An empty clause
    /// makes the formula unsatisfiable; a tautology is dropped.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        clause.sort();
        clause.dedup();
        // Positive and negative literals of one variable sort adjacent,
        // so a single windows pass detects tautologies.
        if clause.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        self.clauses.push(clause);
    }

    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }
}

/// A total assignment over the formula's variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    pub fn value(&self, var: u32) -> bool {
        self.values[var as usize]
    }

    pub fn lit_true(&self, lit: Lit) -> bool {
        self.value(lit.var()) == lit.is_pos()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Outcome of a solve call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A model of the clauses (and assumptions, if any).
    Sat(Assignment),
    /// No model exists under the given assumptions.
    Unsat,
}

/// Cumulative search-effort counters of a solver instance. Everything
/// here is deterministic and folded into the determinism digests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    pub decisions: u64,
    pub propagations: u64,
    pub conflicts: u64,
    pub learned: u64,
    pub restarts: u64,
}

/// A pluggable SAT backend. Implementations may keep learned state
/// across calls as long as the caller only *adds* clauses to the same
/// [`Cnf`] between calls (learned clauses are consequences of the
/// clause set alone, so they stay valid under monotone growth); a call
/// with a shrunk clause list resets the solver.
pub trait Solver {
    /// Solve under `assumptions`, giving up after `max_conflicts`
    /// conflicts when a budget is given. `None` means the budget ran
    /// out before a verdict.
    fn solve_limited(
        &mut self,
        cnf: &Cnf,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Option<SolveResult>;

    /// Solve under `assumptions` with no conflict budget.
    fn solve_with_assumptions(&mut self, cnf: &Cnf, assumptions: &[Lit]) -> SolveResult {
        self.solve_limited(cnf, assumptions, None)
            .expect("unbudgeted solve cannot run out")
    }

    /// Solve the bare formula.
    fn solve(&mut self, cnf: &Cnf) -> SolveResult {
        self.solve_with_assumptions(cnf, &[])
    }

    /// Cumulative effort counters.
    fn stats(&self) -> SolverStats;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LBool {
    Undef,
    True,
    False,
}

/// The `i`-th term (1-based) of the Luby restart sequence
/// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

const RESTART_UNIT: u64 = 64;
const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;

/// The bundled conflict-driven clause-learning solver. Deterministic by
/// construction: decisions follow VSIDS-lite activity with ties broken
/// toward the lowest variable index, phases default to `false` (which
/// biases repair models toward small change sets), and restarts follow
/// the Luby sequence.
///
/// An instance is tied to one monotonically growing [`Cnf`]: each call
/// loads the clauses appended since the last call and keeps its learned
/// clauses. Passing a formula with *fewer* clauses than previously seen
/// resets the instance wholesale.
pub struct CdclSolver {
    num_vars: usize,
    /// Problem clauses (prefix) followed by learned clauses.
    clauses: Vec<Vec<Lit>>,
    /// How many of the caller's clauses have been loaded.
    loaded: usize,
    /// Clause indices watched per literal index.
    watches: Vec<Vec<usize>>,
    assigns: Vec<LBool>,
    phase: Vec<bool>,
    reason: Vec<Option<usize>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    seen: Vec<bool>,
    stats: SolverStats,
    /// A level-0 contradiction was derived: the formula is permanently
    /// unsatisfiable (monotone growth cannot undo it).
    unsat: bool,
}

impl Default for CdclSolver {
    fn default() -> CdclSolver {
        CdclSolver::new()
    }
}

impl CdclSolver {
    pub fn new() -> CdclSolver {
        CdclSolver {
            num_vars: 0,
            clauses: Vec::new(),
            loaded: 0,
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            seen: Vec::new(),
            stats: SolverStats::default(),
            unsat: false,
        }
    }

    fn reset(&mut self) {
        let stats = self.stats;
        *self = CdclSolver::new();
        self.stats = stats;
    }

    fn grow_to(&mut self, num_vars: usize) {
        if num_vars <= self.num_vars {
            return;
        }
        self.num_vars = num_vars;
        self.watches.resize(2 * num_vars, Vec::new());
        self.assigns.resize(num_vars, LBool::Undef);
        self.phase.resize(num_vars, false);
        self.reason.resize(num_vars, None);
        self.level.resize(num_vars, 0);
        self.activity.resize(num_vars, 0.0);
        self.seen.resize(num_vars, false);
    }

    fn lit_value(&self, l: Lit) -> LBool {
        match self.assigns[l.var() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_pos() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_pos() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        let v = l.var() as usize;
        debug_assert_eq!(self.assigns[v], LBool::Undef);
        self.assigns[v] = if l.is_pos() {
            LBool::True
        } else {
            LBool::False
        };
        self.phase[v] = l.is_pos();
        self.reason[v] = reason;
        self.level[v] = self.decision_level() as u32;
        self.trail.push(l);
    }

    /// Load clauses appended to the caller's formula since the last
    /// call. Runs at decision level 0, so any falsified literal seen
    /// here is permanently false.
    fn sync(&mut self, cnf: &Cnf) {
        if cnf.num_clauses() < self.loaded {
            self.reset();
        }
        self.grow_to(cnf.num_vars() as usize);
        debug_assert_eq!(self.decision_level(), 0);
        for clause in &cnf.clauses()[self.loaded..] {
            self.attach(clause.clone());
        }
        self.loaded = cnf.num_clauses();
    }

    /// Attach a clause at decision level 0, choosing watches that are
    /// not yet false. Unit clauses are enqueued rather than stored; an
    /// all-false clause marks the formula unsatisfiable.
    fn attach(&mut self, mut clause: Vec<Lit>) {
        // Move non-false literals to the front.
        let mut front = 0;
        for k in 0..clause.len() {
            if front >= 2 {
                break;
            }
            if self.lit_value(clause[k]) != LBool::False {
                clause.swap(front, k);
                front += 1;
            }
        }
        match front {
            0 => self.unsat = true,
            1 => {
                if self.lit_value(clause[0]) == LBool::Undef {
                    self.enqueue(clause[0], None);
                }
            }
            _ => {
                let ci = self.clauses.len();
                self.watches[clause[0].index()].push(ci);
                self.watches[clause[1].index()].push(ci);
                self.clauses.push(clause);
            }
        }
    }

    /// Two-watched-literal unit propagation. Returns a conflicting
    /// clause index, or `None` at fixpoint.
    fn propagate(&mut self) -> Option<usize> {
        let mut conflict = None;
        while conflict.is_none() && self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.stats.propagations += 1;
            let not_p = !p;
            let watch_idx = not_p.index();
            let ws = std::mem::take(&mut self.watches[watch_idx]);
            let mut keep = Vec::with_capacity(ws.len());
            let mut it = ws.into_iter();
            'clauses: for ci in it.by_ref() {
                if self.clauses[ci][0] == not_p {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], not_p);
                let first = self.clauses[ci][0];
                if self.lit_value(first) == LBool::True {
                    keep.push(ci);
                    continue;
                }
                for k in 2..self.clauses[ci].len() {
                    let lk = self.clauses[ci][k];
                    if self.lit_value(lk) != LBool::False {
                        self.clauses[ci].swap(1, k);
                        self.watches[lk.index()].push(ci);
                        continue 'clauses;
                    }
                }
                // No replacement watch: the clause is unit or false.
                keep.push(ci);
                if self.lit_value(first) == LBool::False {
                    conflict = Some(ci);
                    break;
                }
                self.enqueue(first, Some(ci));
            }
            keep.extend(it);
            self.watches[watch_idx] = keep;
        }
        if conflict.is_some() {
            // Flush the queue; analysis restarts propagation anyway.
            self.prop_head = self.trail.len();
        }
        conflict
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= ACTIVITY_DECAY;
    }

    /// First-UIP conflict analysis: returns the learned clause (the
    /// asserting literal first, a literal of the backjump level second)
    /// and the level to backtrack to.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, usize) {
        let current = self.decision_level() as u32;
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0: asserting literal
        let mut counter = 0usize;
        let mut confl = conflict;
        let mut skip_first = false;
        let mut idx = self.trail.len();
        let p;
        loop {
            let start = usize::from(skip_first);
            for k in start..self.clauses[confl].len() {
                let q = self.clauses[confl][k];
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked trail literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let l = self.trail[idx];
            self.seen[l.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                p = l;
                break;
            }
            confl = self.reason[l.var() as usize].expect("non-UIP trail literal has a reason");
            skip_first = true; // position 0 of a reason clause is the implied literal
        }
        learnt[0] = !p;
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backjump to the second-highest level in the clause.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_k = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var() as usize] > self.level[learnt[max_k].var() as usize] {
                    max_k = k;
                }
            }
            learnt.swap(1, max_k);
            self.level[learnt[1].var() as usize] as usize
        };
        (learnt, backtrack)
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail underflow");
            let v = l.var() as usize;
            self.assigns[v] = LBool::Undef;
            self.reason[v] = None;
        }
        self.trail_lim.truncate(target);
        self.prop_head = self.trail.len();
    }

    /// Record a learned clause after backjumping: enqueue the asserting
    /// literal with the clause as its reason.
    fn record_learned(&mut self, learnt: Vec<Lit>) {
        self.stats.learned += 1;
        if learnt.len() == 1 {
            self.enqueue(learnt[0], None);
        } else {
            let ci = self.clauses.len();
            self.watches[learnt[0].index()].push(ci);
            self.watches[learnt[1].index()].push(ci);
            let asserting = learnt[0];
            self.clauses.push(learnt);
            self.enqueue(asserting, Some(ci));
        }
    }

    /// Highest-activity unassigned variable, ties toward the lowest
    /// index; `None` when the assignment is total.
    fn pick_branch_var(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars {
            if self.assigns[v] == LBool::Undef {
                match best {
                    None => best = Some(v),
                    Some(b) => {
                        if self.activity[v] > self.activity[b] {
                            best = Some(v);
                        }
                    }
                }
            }
        }
        best
    }

    fn extract(&self, num_vars: u32) -> Assignment {
        let values = (0..num_vars as usize)
            .map(|v| self.assigns[v] == LBool::True)
            .collect();
        Assignment { values }
    }
}

impl Solver for CdclSolver {
    fn solve_limited(
        &mut self,
        cnf: &Cnf,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Option<SolveResult> {
        self.sync(cnf);
        if self.unsat {
            return Some(SolveResult::Unsat);
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return Some(SolveResult::Unsat);
        }
        let mut conflicts_here: u64 = 0;
        let mut since_restart: u64 = 0;
        let mut restart_seq: u64 = 1;
        let mut restart_limit = RESTART_UNIT * luby(restart_seq);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                since_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return Some(SolveResult::Unsat);
                }
                let (learnt, backtrack) = self.analyze(confl);
                self.cancel_until(backtrack);
                self.record_learned(learnt);
                self.decay();
                if let Some(max) = max_conflicts {
                    if conflicts_here >= max {
                        self.cancel_until(0);
                        return None;
                    }
                }
            } else {
                if since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    since_restart = 0;
                    restart_seq += 1;
                    restart_limit = RESTART_UNIT * luby(restart_seq);
                    self.cancel_until(0);
                    continue;
                }
                // Re-establish assumptions as forced decisions, then
                // branch freely.
                let mut next_assumption = None;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.lit_value(p) {
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        LBool::False => {
                            self.cancel_until(0);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next_assumption = Some(p);
                            break;
                        }
                    }
                }
                if let Some(p) = next_assumption {
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(p, None);
                } else {
                    match self.pick_branch_var() {
                        Some(v) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = if self.phase[v] {
                                Lit::pos(v as u32)
                            } else {
                                Lit::neg(v as u32)
                            };
                            self.enqueue(lit, None);
                        }
                        None => {
                            let assignment = self.extract(cnf.num_vars());
                            self.cancel_until(0);
                            return Some(SolveResult::Sat(assignment));
                        }
                    }
                }
            }
        }
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// Does `assignment` satisfy every clause of `cnf` and every literal of
/// `assumptions`?
pub fn satisfies(cnf: &Cnf, assumptions: &[Lit], assignment: &Assignment) -> bool {
    assumptions.iter().all(|&l| assignment.lit_true(l))
        && cnf
            .clauses()
            .iter()
            .all(|c| c.iter().any(|&l| assignment.lit_true(l)))
}

/// Variable-count ceiling for the exhaustive UNSAT cross-check in
/// [`SanityCheckingSolver`] (2^12 candidate assignments).
const EXHAUSTIVE_CHECK_VARS: u32 = 12;

/// A wrapper that re-verifies solver verdicts in debug builds: every
/// model is checked against the clause set and assumptions, and UNSAT
/// verdicts on instances of at most `EXHAUSTIVE_CHECK_VARS` variables
/// are cross-checked by exhaustive enumeration. Release builds pass
/// through untouched.
pub struct SanityCheckingSolver<S> {
    inner: S,
}

impl<S: Solver> SanityCheckingSolver<S> {
    pub fn new(inner: S) -> SanityCheckingSolver<S> {
        SanityCheckingSolver { inner }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl Default for SanityCheckingSolver<CdclSolver> {
    fn default() -> Self {
        SanityCheckingSolver::new(CdclSolver::new())
    }
}

impl<S: Solver> Solver for SanityCheckingSolver<S> {
    fn solve_limited(
        &mut self,
        cnf: &Cnf,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Option<SolveResult> {
        let result = self.inner.solve_limited(cnf, assumptions, max_conflicts);
        if cfg!(debug_assertions) {
            match &result {
                Some(SolveResult::Sat(assignment)) => {
                    assert_eq!(assignment.len(), cnf.num_vars() as usize);
                    assert!(
                        satisfies(cnf, assumptions, assignment),
                        "solver returned a non-model"
                    );
                }
                Some(SolveResult::Unsat) if cnf.num_vars() <= EXHAUSTIVE_CHECK_VARS => {
                    let n = cnf.num_vars();
                    for bits in 0u64..(1u64 << n) {
                        let assignment = Assignment {
                            values: (0..n).map(|v| bits >> v & 1 == 1).collect(),
                        };
                        assert!(
                            !satisfies(cnf, assumptions, &assignment),
                            "solver claimed UNSAT but {assignment:?} is a model"
                        );
                    }
                }
                _ => {}
            }
        }
        result
    }

    fn stats(&self) -> SolverStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver() -> SanityCheckingSolver<CdclSolver> {
        SanityCheckingSolver::default()
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = Cnf::new();
        assert!(matches!(solver().solve(&cnf), SolveResult::Sat(_)));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause([]);
        assert_eq!(solver().solve(&cnf), SolveResult::Unsat);
    }

    #[test]
    fn unit_contradiction_is_unsat() {
        let mut cnf = Cnf::new();
        let x = cnf.fresh_var();
        cnf.add_clause([Lit::pos(x)]);
        cnf.add_clause([Lit::neg(x)]);
        assert_eq!(solver().solve(&cnf), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut cnf = Cnf::new();
        let x = cnf.fresh_var();
        cnf.add_clause([Lit::pos(x), Lit::neg(x)]);
        assert_eq!(cnf.num_clauses(), 0);
        cnf.add_clause([Lit::pos(x), Lit::pos(x)]);
        assert_eq!(cnf.clauses()[0].len(), 1);
    }

    #[test]
    fn simple_implication_chain_propagates() {
        // x0 & (x0 -> x1) & (x1 -> x2): model must set all three.
        let mut cnf = Cnf::new();
        let x0 = cnf.fresh_var();
        let x1 = cnf.fresh_var();
        let x2 = cnf.fresh_var();
        cnf.add_clause([Lit::pos(x0)]);
        cnf.add_clause([Lit::neg(x0), Lit::pos(x1)]);
        cnf.add_clause([Lit::neg(x1), Lit::pos(x2)]);
        match solver().solve(&cnf) {
            SolveResult::Sat(a) => {
                assert!(a.value(x0) && a.value(x1) && a.value(x2));
            }
            SolveResult::Unsat => panic!("chain is satisfiable"),
        }
    }

    #[test]
    fn phase_default_biases_toward_false() {
        // A free variable with no constraints stays false: the repair
        // encoding relies on this to find small change sets quickly.
        let mut cnf = Cnf::new();
        let x = cnf.fresh_var();
        let y = cnf.fresh_var();
        cnf.add_clause([Lit::pos(x), Lit::pos(y)]);
        match solver().solve(&cnf) {
            SolveResult::Sat(a) => {
                assert!(!(a.value(x) && a.value(y)), "only one should flip true");
            }
            SolveResult::Unsat => panic!("satisfiable"),
        }
    }

    fn pigeonhole_cnf(holes: u32) -> Cnf {
        // holes+1 pigeons into `holes` holes: unsatisfiable.
        let mut cnf = Cnf::new();
        let var = |p: u32, h: u32| p * holes + h;
        for _ in 0..(holes + 1) * holes {
            cnf.fresh_var();
        }
        for p in 0..=holes {
            cnf.add_clause((0..holes).map(|h| Lit::pos(var(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..=holes {
                for p2 in (p1 + 1)..=holes {
                    cnf.add_clause([Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_refuted() {
        for holes in 2..=5 {
            let cnf = pigeonhole_cnf(holes);
            let mut s = solver();
            assert_eq!(s.solve(&cnf), SolveResult::Unsat, "php({holes})");
            assert!(s.stats().conflicts > 0);
        }
    }

    #[test]
    fn assumptions_flip_verdicts_incrementally() {
        let mut cnf = Cnf::new();
        let x = cnf.fresh_var();
        let y = cnf.fresh_var();
        cnf.add_clause([Lit::pos(x), Lit::pos(y)]);
        let mut s = solver();
        // Assuming both false contradicts the clause …
        assert_eq!(
            s.solve_with_assumptions(&cnf, &[Lit::neg(x), Lit::neg(y)]),
            SolveResult::Unsat
        );
        // … but the formula itself stays satisfiable on the same instance.
        match s.solve_with_assumptions(&cnf, &[Lit::neg(x)]) {
            SolveResult::Sat(a) => assert!(!a.value(x) && a.value(y)),
            SolveResult::Unsat => panic!("satisfiable under !x"),
        }
        match s.solve(&cnf) {
            SolveResult::Sat(_) => {}
            SolveResult::Unsat => panic!("satisfiable outright"),
        }
    }

    #[test]
    fn monotone_clause_additions_reuse_the_instance() {
        let mut cnf = Cnf::new();
        let vars: Vec<u32> = (0..6).map(|_| cnf.fresh_var()).collect();
        cnf.add_clause(vars.iter().map(|&v| Lit::pos(v)));
        let mut s = solver();
        // Block each returned model until the formula runs dry.
        let mut models = 0;
        while let SolveResult::Sat(a) = s.solve(&cnf) {
            models += 1;
            cnf.add_clause(vars.iter().map(
                |&v| {
                    if a.value(v) {
                        Lit::neg(v)
                    } else {
                        Lit::pos(v)
                    }
                },
            ));
            assert!(models <= 64, "2^6 models at most");
        }
        assert_eq!(models, 63, "all assignments except all-false");
    }

    #[test]
    fn conflict_budget_reports_exhaustion() {
        let cnf = pigeonhole_cnf(6);
        let mut s = CdclSolver::new();
        match s.solve_limited(&cnf, &[], Some(1)) {
            None => {}
            Some(SolveResult::Unsat) => {
                panic!("php(6) cannot be refuted within one conflict")
            }
            Some(SolveResult::Sat(_)) => panic!("php(6) is unsatisfiable"),
        }
        // An unbudgeted retry on the same instance still concludes.
        assert_eq!(s.solve(&cnf), SolveResult::Unsat);
    }

    #[test]
    fn shrunk_formula_resets_the_instance() {
        let mut cnf = Cnf::new();
        let x = cnf.fresh_var();
        cnf.add_clause([Lit::pos(x)]);
        cnf.add_clause([Lit::neg(x)]);
        let mut s = solver();
        assert_eq!(s.solve(&cnf), SolveResult::Unsat);
        let mut fresh = Cnf::new();
        let y = fresh.fresh_var();
        fresh.add_clause([Lit::pos(y)]);
        match s.solve(&fresh) {
            SolveResult::Sat(a) => assert!(a.value(y)),
            SolveResult::Unsat => panic!("fresh formula is satisfiable"),
        }
    }

    #[test]
    fn solver_is_deterministic() {
        let run = || {
            let mut s = CdclSolver::new();
            let cnf = pigeonhole_cnf(5);
            let verdict = s.solve(&cnf);
            (verdict, s.stats())
        };
        let (v1, s1) = run();
        let (v2, s2) = run();
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
    }
}
