//! The deductive database `D = (F, R, I)` (§2): explicit facts, stratified
//! rules, and normalized integrity constraints, with a cached canonical
//! model. The model is computed once, on first use; every later change —
//! fact writes, a rule change — advances it through the propagation
//! kernel ([`crate::maintain`]) instead of dropping it.
//!
//! The database is `Send + Sync`: the model cache sits behind a lock and
//! every shared component (the [`Schema`], relations) is `Arc`ed.
//! [`Database::snapshot`] hands out a [`Snapshot`] — an immutable,
//! `Send + Sync` read handle whose construction clones no tuple data
//! (O(#relations), see [`crate::store::FactSet`]) and whose answers stay
//! stable while writers keep committing to the originating database.

use crate::eval::satisfies_closed;
use crate::maintain::{install_flips, Net, Propagation};
use crate::model::Model;
use crate::program::RuleSet;
use crate::store::FactSet;
use crate::txn::TxnBuilder;
use crate::update::Update;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use uniform_logic::{
    normalize, parse_program, Constraint, Fact, LogicError, ParseError, Rq, Rule, Sym, SymState,
};

/// Why [`Database::apply`] refused to touch the store. Arity misuse is a
/// caller error distinct from a constraint rejection (which never reaches
/// this layer — guarded updates are checked in `uniform-integrity` /
/// `uniform-core` before `apply` is called) and from a Def. 1 no-op
/// (which is `Ok(false)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// The update uses a predicate with a different arity than the rest
    /// of the database (facts, rule heads/bodies, constraint literals).
    ArityMismatch {
        pred: Sym,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "predicate {pred} used with arity {got} but the database uses arity {expected}"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

/// The arity `pred` is used with anywhere in `facts` and `schema`;
/// `None` for unknown predicates. Single source of truth behind
/// [`Database::arity_of`] and [`Snapshot::arity_of`].
fn arity_in(facts: &FactSet, schema: &Schema, pred: Sym) -> Option<usize> {
    if let Some(rel) = facts.relation(pred) {
        return Some(rel.arity());
    }
    for r in schema.rules.rules() {
        if r.head.pred == pred {
            return Some(r.head.args.len());
        }
        for l in &r.body {
            if l.atom.pred == pred {
                return Some(l.atom.args.len());
            }
        }
    }
    for c in schema.constraints.iter() {
        for occ in c.rq.literals() {
            if occ.literal.atom.pred == pred {
                return Some(occ.literal.atom.args.len());
            }
        }
    }
    None
}

/// The full constraint check behind [`Database::violated_constraints`]
/// and [`Snapshot::violated_constraints`]: evaluate every constraint in
/// `model`, and — this being an observation of exactly the state
/// `latch` belongs to — establish the latch when none is violated.
fn violated_in(model: &Model, constraints: &[Constraint], latch: &Latch) -> Vec<String> {
    let violated: Vec<String> = constraints
        .iter()
        .filter(|c| !satisfies_closed(model, &c.rq))
        .map(|c| c.name.clone())
        .collect();
    if violated.is_empty() {
        latch.set();
    }
    violated
}

/// Validate a whole transaction's arities against a schema lookup,
/// *including* arities introduced by earlier updates in the same
/// transaction: `[+fresh(a,b), +fresh(c)]` must be refused up front,
/// not panic halfway through application. Every pre-apply validation
/// path ([`Database::apply_all`], [`crate::txn::TxnBuilder`]) goes
/// through here so the rules cannot drift apart.
pub fn validate_transaction_arities<'a>(
    arity_of: impl Fn(Sym) -> Option<usize>,
    updates: impl IntoIterator<Item = &'a Update>,
) -> Result<(), ApplyError> {
    let mut introduced: HashMap<Sym, usize> = HashMap::new();
    for u in updates {
        let expected = introduced
            .get(&u.fact.pred)
            .copied()
            .or_else(|| arity_of(u.fact.pred));
        match expected {
            Some(a) if a != u.fact.args.len() => {
                return Err(ApplyError::ArityMismatch {
                    pred: u.fact.pred,
                    expected: a,
                    got: u.fact.args.len(),
                });
            }
            Some(_) => {}
            None => {
                introduced.insert(u.fact.pred, u.fact.args.len());
            }
        }
    }
    Ok(())
}

/// Check that every predicate is used with a single arity across facts,
/// rules and constraints — mismatches must surface as errors at the
/// parse boundary, not as store invariant violations later.
fn validate_arities(
    facts: &[Fact],
    rules: &RuleSet,
    constraints: &[Constraint],
) -> Result<(), LogicError> {
    let mut seen: HashMap<Sym, (usize, String)> = HashMap::new();
    let mut record = |pred: Sym, arity: usize, at: String| -> Result<(), LogicError> {
        match seen.get(&pred) {
            Some((prev, first)) if *prev != arity => Err(LogicError::Parse(ParseError {
                line: 1,
                col: 1,
                message: format!(
                    "predicate {pred} used with arity {arity} in {at} but with arity {prev} in {first}"
                ),
            })),
            Some(_) => Ok(()),
            None => {
                seen.insert(pred, (arity, at));
                Ok(())
            }
        }
    };
    for f in facts {
        record(f.pred, f.args.len(), format!("fact {f}"))?;
    }
    for r in rules.rules() {
        record(r.head.pred, r.head.args.len(), format!("rule {r}"))?;
        for l in &r.body {
            record(l.atom.pred, l.atom.args.len(), format!("rule {r}"))?;
        }
    }
    for c in constraints {
        for occ in c.rq.literals() {
            record(
                occ.literal.atom.pred,
                occ.literal.atom.args.len(),
                format!("constraint {}", c.name),
            )?;
        }
    }
    Ok(())
}

/// Source of process-unique database identities (see [`Database::db_id`]).
static NEXT_DB_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_db_id() -> u64 {
    NEXT_DB_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The schema of a database state: the rules (with their layers), the
/// constraints and their revisions. A [`Database`] and its snapshots
/// share one value by `Arc`; a schema change publishes a new one.
///
/// One write-once slot holds what is derived from the schema "without
/// querying the facts" (§3.3.1): `uniform-integrity` fills it with its
/// relevance index and compiled checks on first use.
#[derive(Clone)]
pub struct Schema {
    /// Behind their own `Arc`s: a shared schema is copied to change it,
    /// and the copy shares the part that does not change.
    rules: Arc<RuleSet>,
    constraints: Arc<Vec<Constraint>>,
    /// Which *kind* of schema moved (prepared plans key on the rules',
    /// certain answers on both).
    rule_rev: u64,
    constraint_rev: u64,
    derived: Derived,
}

/// The schema's write-once slot. A copy starts empty: a schema is
/// copied only to be changed.
#[derive(Default)]
struct Derived(OnceLock<Box<dyn Any + Send + Sync>>);

impl Clone for Derived {
    fn clone(&self) -> Derived {
        Derived::default()
    }
}

impl Schema {
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The rules as the shared handle every copy of this schema holds.
    pub fn rules_arc(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The data derived from this schema, built by `build` on first
    /// use. The slot holds one type, which only `uniform-integrity`
    /// fills.
    ///
    /// # Panics
    ///
    /// If the slot already holds a value of another type.
    pub fn derived<T: Any + Send + Sync>(&self, build: impl FnOnce(&Schema) -> T) -> &T {
        self.derived
            .0
            .get_or_init(|| Box::new(build(self)))
            .downcast_ref()
            .expect("a schema's derived-data slot holds one type")
    }
}

/// A deductive database: facts `F`, rules `R`, constraints `I`.
pub struct Database {
    edb: FactSet,
    schema: Arc<Schema>,
    model: RwLock<ModelCache>,
    /// Process-unique identity, never shared between two instances —
    /// even clones get a fresh one, because clones evolve (and bump
    /// their revisions) independently, so `(db_id, rule_rev)` globally
    /// identifies one rule set. Prepared-query plans key on that pair.
    db_id: u64,
    /// Monotonic state version: bumped on every effective mutation (fact
    /// or schema). Snapshots pin it; the commit pipeline's first-
    /// committer-wins conflict detection compares against it.
    version: u64,
    /// Revision of the fact base alone; the schema carries the other two.
    fact_rev: u64,
    /// The consistency latch of the *current* state (see
    /// [`Database::verified_consistent`]).
    consistent: Latch,
}

/// A database's canonical model, once there is one: the model of its
/// explicit facts before `written`, the effective writes since. Reading
/// it advances it past them.
#[derive(Clone, Default)]
struct ModelCache {
    model: Option<Arc<Model>>,
    written: Vec<Update>,
}

impl ModelCache {
    /// The model, if it describes the explicit facts as they are.
    fn current(&self) -> Option<&Arc<Model>> {
        self.model.as_ref().filter(|_| self.written.is_empty())
    }

    /// The model of `edb` under `rules`: computed if there is none yet,
    /// else advanced past the writes since and a change of the rules to
    /// `rules` by `changed` ([`RuleSet::diff`]) in one kernel run — the
    /// `propagated` one, when a check already ran it over this model.
    fn update(
        &mut self,
        edb: &FactSet,
        rules: &RuleSet,
        changed: &[(&Rule, bool)],
        propagated: Option<Propagation<Arc<Model>>>,
    ) -> Arc<Model> {
        let Some(model) = self.model.take() else {
            let model = Arc::new(Model::compute(edb, rules));
            return self.model.insert(model).clone();
        };
        // A fact's first write says what it was before, `edb` what it is
        // now: the writes' Def. 1 net effect.
        let (mut net, mut seen) = (Net::default(), HashSet::<_, SymState>::default());
        let written = std::mem::take(&mut self.written);
        for u in written.iter().filter(|u| seen.insert(&u.fact)) {
            if u.insert == edb.contains(&u.fact) {
                let side = if u.insert { &mut net.0 } else { &mut net.1 };
                side.push(u.fact.clone());
            }
        }
        debug_assert!(propagated
            .as_ref()
            .is_none_or(|p| written.is_empty() && Arc::ptr_eq(&model, &p.state.base)));
        let Propagation { state, flips, .. } = propagated.unwrap_or_else(|| {
            Propagation::new(
                model.clone(),
                rules,
                rules.layers(),
                edb,
                &net.0,
                &net.1,
                changed,
            )
        });
        // Letting go of the old model first lets derived relations no
        // snapshot shares take their flips in place.
        let mut facts = model.facts().clone();
        drop((model, state));
        install_flips(&mut facts, rules, edb, &flips);
        self.model
            .insert(Arc::new(Model::from_facts(facts)))
            .clone()
    }
}

/// Which component revision a mutation moves (see [`Database::bump`]).
enum Moved {
    Facts,
    Rules,
    Constraints,
}

/// The consistency latch: one bit, *verified consistent*, carried with
/// the state it describes. Each state owns its own cell — every
/// revision bump swaps in a fresh one, unless the old one is unset and
/// unshared — and a [`Snapshot`] shares the
/// cell of the state it pinned, so an observation made through any
/// handle on a state is seen by every other handle on *that* state and
/// by none on a later one. A cell only ever goes from unset to set: the
/// state behind it is immutable, so a zero-violation observation stays
/// true for as long as the cell is reachable.
///
/// The bit publishes no data (readers already hold the immutable state
/// it talks about); `Release`/`Acquire` pair the store in
/// [`Latch::set`] with the load in [`Latch::get`] all the same.
#[derive(Clone, Default)]
struct Latch(Arc<AtomicBool>);

impl Latch {
    fn get(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    fn set(&self) {
        self.0.store(true, Ordering::Release);
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            edb: self.edb.clone(),
            schema: self.schema.clone(),
            model: RwLock::new(self.model.read().clone()),
            // Fresh identity: the clone's revisions advance on their
            // own from here, so sharing the id would let two different
            // rule sets collide on one (db_id, rule_rev) plan key.
            db_id: fresh_db_id(),
            version: self.version,
            fact_rev: self.fact_rev,
            // Same state, same cell; the first mutation on either side
            // swaps in its own.
            consistent: self.consistent.clone(),
        }
    }
}

impl Database {
    pub fn new() -> Database {
        Database::with(FactSet::new(), RuleSet::empty(), Vec::new())
    }

    /// Build from parts.
    pub fn with(edb: FactSet, rules: RuleSet, constraints: Vec<Constraint>) -> Database {
        Database {
            edb,
            schema: Arc::new(Schema {
                rules: Arc::new(rules),
                constraints: Arc::new(constraints),
                rule_rev: 0,
                constraint_rev: 0,
                derived: Derived::default(),
            }),
            model: RwLock::default(),
            db_id: fresh_db_id(),
            version: 0,
            fact_rev: 0,
            consistent: Latch::default(),
        }
    }

    /// Parse a full program: facts, rules and constraints. Constraints are
    /// normalized to restricted-quantification form; anonymous ones are
    /// named `ic1`, `ic2`, … in source order. Every predicate must be
    /// used with one arity throughout; mismatches are parse errors.
    pub fn parse(src: &str) -> Result<Database, LogicError> {
        let prog = parse_program(src)?;
        let rules = RuleSet::new(prog.rules).map_err(|e| {
            LogicError::Rule(uniform_logic::RuleError {
                var: uniform_logic::Sym::new("_"),
                rule: e.to_string(),
            })
        })?;
        let mut constraints = Vec::new();
        for (i, (name, f)) in prog.constraints.iter().enumerate() {
            let rq = normalize(f)?;
            let name = name.clone().unwrap_or_else(|| format!("ic{}", i + 1));
            constraints.push(Constraint::new(name, rq));
        }
        validate_arities(&prog.facts, &rules, &constraints)?;
        Ok(Database::with(
            FactSet::from_facts(prog.facts),
            rules,
            constraints,
        ))
    }

    /// The arity `pred` is used with anywhere in this database (facts,
    /// rule heads or bodies, constraint literals); `None` for unknown
    /// predicates.
    pub fn arity_of(&self, pred: Sym) -> Option<usize> {
        arity_in(&self.edb, &self.schema, pred)
    }

    pub fn facts(&self) -> &FactSet {
        &self.edb
    }

    /// The schema of the current state.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn rules(&self) -> &RuleSet {
        &self.schema.rules
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.schema.constraints
    }

    pub fn constraint(&self, name: &str) -> Option<&Constraint> {
        self.constraints().iter().find(|c| c.name == name)
    }

    /// Replace the constraint set (satisfiability checking before doing
    /// this is the subject of §4).
    pub fn set_constraints(&mut self, constraints: Vec<Constraint>) {
        self.schema_mut().constraints = Arc::new(constraints);
        self.bump(Moved::Constraints);
    }

    pub fn add_constraint(&mut self, c: Constraint) {
        Arc::make_mut(&mut self.schema_mut().constraints).push(c);
        self.bump(Moved::Constraints);
    }

    /// Replace the rule set. A cached model is advanced to the canonical
    /// model under `rules` by the propagation kernel, seeded with the
    /// rules the change adds and removes (rules compare structurally).
    pub fn set_rules(&mut self, rules: RuleSet) {
        self.set_rules_propagated(Arc::new(rules), None);
    }

    /// [`Database::set_rules`], given the change's `propagation` when a
    /// check already ran the kernel over the current model
    /// ([`Propagation::of_rule_change`]): the model takes its flips.
    pub fn set_rules_propagated(
        &mut self,
        rules: Arc<RuleSet>,
        propagation: Option<Propagation<Arc<Model>>>,
    ) {
        let cache = self.model.get_mut();
        if cache.model.is_some() {
            let changed = propagation
                .is_none()
                .then(|| self.schema.rules.diff(&rules));
            let changed = changed.as_deref().unwrap_or_default();
            cache.update(&self.edb, &rules, changed, propagation);
        }
        self.schema_mut().rules = rules;
        self.bump(Moved::Rules);
    }

    /// The schema, to change: in place while nothing else holds it (a
    /// bulk load copies nothing), as a copy otherwise; its derived data
    /// go either way.
    fn schema_mut(&mut self) -> &mut Schema {
        let schema = Arc::make_mut(&mut self.schema);
        schema.derived = Derived::default();
        schema
    }

    /// The one place a state becomes another: move the version and the
    /// component revision, and give the new state a fresh, unset
    /// consistency latch — nothing is known about it until someone looks
    /// (or [`Database::preserving_consistency`] vouches for the step).
    /// The cached model is the caller's to advance.
    fn bump(&mut self, moved: Moved) {
        self.version += 1;
        match moved {
            Moved::Facts => self.fact_rev += 1,
            Moved::Rules => self.schema_mut().rule_rev += 1,
            Moved::Constraints => self.schema_mut().constraint_rev += 1,
        }
        // Bulk loads bump once per fact: keep the cell while nobody
        // else can see it and there is nothing to forget.
        let reusable = Arc::get_mut(&mut self.consistent.0).is_some_and(|bit| !*bit.get_mut());
        if !reusable {
            self.consistent = Latch::default();
        }
    }

    /// The consistency latch: is the current state *known* to satisfy
    /// every constraint? Three rules govern the bit.
    ///
    /// * **Established** only by observation: a zero-violation
    ///   [`Database::violated_constraints`] /
    ///   [`Snapshot::violated_constraints`] of exactly this state.
    /// * **Preserved** only through
    ///   [`Database::preserving_consistency`], by steps that prove the
    ///   paper's induction (consistent before ∧ every simplified
    ///   instance holds ⇒ consistent after).
    /// * **Cleared** by every other mutation — raw
    ///   [`Database::apply`] / [`Database::insert_fact`],
    ///   [`Database::set_rules`], [`Database::set_constraints`],
    ///   [`Database::add_constraint`].
    ///
    /// `false` means *unknown*, not *violated*.
    pub fn verified_consistent(&self) -> bool {
        self.consistent.get()
    }

    /// Run a mutation the caller has **proven** consistency-preserving
    /// — a transaction whose incremental integrity check was satisfied
    /// against this state, a guarded rule update, a constraint that
    /// holds in this state, the removal of a constraint — and carry the
    /// latch across it: if the state was verified consistent before
    /// `f`, the state after `f` is marked so too. An unverified state
    /// stays unverified (the check proves the step, not the base case).
    pub fn preserving_consistency<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        let was = self.verified_consistent();
        let out = f(self);
        if was {
            self.consistent.set();
        }
        out
    }

    /// The monotonic state version: distinct whenever the database state
    /// (facts or schema) is distinct. [`Snapshot`]s pin the version they
    /// were taken at; the commit pipeline ([`crate::txn`]) uses it for
    /// first-committer-wins conflict detection.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// This instance's process-unique identity. Never equal for two
    /// `Database` values — clones included — so `(db_id, rule_rev)`
    /// identifies one rule set globally; prepared-query plans are
    /// keyed by the pair (a plan built against one database is never
    /// served against another, whatever their revision counters say).
    pub fn db_id(&self) -> u64 {
        self.db_id
    }

    /// Revision of the fact base alone (bumped on every effective fact
    /// mutation, never on schema changes).
    pub fn fact_rev(&self) -> u64 {
        self.fact_rev
    }

    /// Revision of the rule set alone.
    pub fn rule_rev(&self) -> u64 {
        self.schema.rule_rev
    }

    /// Revision of the constraint set alone.
    pub fn constraint_rev(&self) -> u64 {
        self.schema.constraint_rev
    }

    /// Apply `updates` to the fact base in order, as one batch (no
    /// integrity checking here — the guarded path lives in
    /// `uniform-integrity`/`uniform-core`). Every arity is validated
    /// first, against the database and the batch's own earlier updates:
    /// on a typed [`ApplyError`] nothing is applied. Returns the Def. 1
    /// effective updates, in order; each moves the version. A cached
    /// model is advanced past them, and past every write since it was
    /// last read, by one kernel run when it is next read.
    pub fn apply_all(&mut self, updates: &[Update]) -> Result<Vec<Update>, ApplyError> {
        validate_transaction_arities(|pred| self.arity_of(pred), updates)?;
        let effective: Vec<Update> = (updates.iter())
            .filter(|u| u.apply(&mut self.edb))
            .cloned()
            .collect();
        for _ in &effective {
            self.bump(Moved::Facts);
        }
        let cache = self.model.get_mut();
        if cache.model.is_some() {
            cache.written.extend_from_slice(&effective);
        }
        Ok(effective)
    }

    /// Apply one update (see [`Database::apply_all`]): `Ok(true)` if the
    /// database changed, `Ok(false)` for a Def. 1 no-op, and a typed
    /// [`ApplyError`] — not a silent `false` or a store panic — when the
    /// update misuses a predicate's arity.
    pub fn apply(&mut self, update: &Update) -> Result<bool, ApplyError> {
        let effective = self.apply_all(std::slice::from_ref(update))?;
        Ok(!effective.is_empty())
    }

    /// Direct fact insertion (convenience for loading). Panics on arity
    /// misuse — use [`Database::apply`] for a typed error.
    pub fn insert_fact(&mut self, fact: &Fact) -> bool {
        self.apply(&Update::insert(fact.clone()))
            .unwrap_or_else(|e| panic!("insert_fact({fact}): {e}"))
    }

    /// The canonical model. Computed here only while the database has
    /// none: once cached, every change advances it (see
    /// [`Database::apply_all`] and [`Database::set_rules`]). Concurrent
    /// callers share one materialization or advance: the first to take
    /// the write lock does it, everyone else reuses the `Arc`.
    pub fn model(&self) -> Arc<Model> {
        if let Some(model) = self.model.read().current() {
            return model.clone();
        }
        let mut cache = self.model.write();
        match cache.current() {
            Some(model) => model.clone(),
            None => cache.update(&self.edb, self.rules(), &[], None),
        }
    }

    /// An immutable, `Send + Sync` read handle on the current state:
    /// facts, rules, constraints and the canonical model, all behind
    /// `Arc`s. Construction clones no tuple data — O(#relations), plus
    /// the database's first model if it has none yet, or the model's
    /// advance past the writes since it was last read — and the handle's
    /// answers are unaffected by later commits to `self`.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            edb: self.edb.clone(),
            schema: self.schema.clone(),
            model: self.model(),
            db_id: self.db_id,
            version: self.version,
            fact_rev: self.fact_rev,
            consistent: self.consistent.clone(),
        }
    }

    /// Open a transaction: a [`TxnBuilder`] staging updates against a
    /// snapshot of the current state. Commit it through a
    /// [`crate::txn::CommitQueue`] (multi-writer, conflict-detected) or
    /// the guarded `uniform::ConcurrentDatabase::commit` on top of it.
    pub fn begin(&self) -> TxnBuilder {
        TxnBuilder::new(self.snapshot())
    }

    /// Truth of a ground atom in the canonical model.
    pub fn holds(&self, fact: &Fact) -> bool {
        self.model().contains(fact)
    }

    /// Evaluate a closed RQ formula in the canonical model.
    pub fn satisfies(&self, rq: &Rq) -> bool {
        satisfies_closed(self.model().as_ref(), rq)
    }

    /// Names of constraints violated in the current state (full check —
    /// the expensive operation integrity maintenance exists to avoid).
    /// A zero-violation answer establishes the consistency latch (see
    /// [`Database::verified_consistent`]).
    pub fn violated_constraints(&self) -> Vec<String> {
        violated_in(&self.model(), self.constraints(), &self.consistent)
    }

    /// Do all constraints hold in the current state?
    pub fn is_consistent(&self) -> bool {
        self.violated_constraints().is_empty()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("facts", &self.edb.len())
            .field("rules", &self.rules().len())
            .field("constraints", &self.constraints().len())
            .finish()
    }
}

/// An immutable read view of one database state.
///
/// Cheap to take (no tuple data is cloned), cheap to clone, `Send +
/// Sync`, and stable: answers reflect the state at snapshot time no
/// matter how many transactions commit afterwards. This is the handle
/// concurrent readers evaluate constraints and queries against while a
/// writer keeps the authoritative [`Database`] moving.
#[derive(Clone)]
pub struct Snapshot {
    edb: FactSet,
    schema: Arc<Schema>,
    model: Arc<Model>,
    db_id: u64,
    version: u64,
    fact_rev: u64,
    consistent: Latch,
}

impl Snapshot {
    /// Explicit facts at snapshot time.
    pub fn facts(&self) -> &FactSet {
        &self.edb
    }

    /// The originating database's [`Database::db_id`].
    pub fn db_id(&self) -> u64 {
        self.db_id
    }

    /// The originating database's [`Database::version`] at snapshot time.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The originating database's [`Database::fact_rev`] at snapshot
    /// time. Together with `rule_rev` and `constraint_rev` it pins the
    /// exact semantic state a certain-answer cache entry was computed
    /// against (`version` also counts no-op schema bumps, which cannot
    /// change answers).
    pub fn fact_rev(&self) -> u64 {
        self.fact_rev
    }

    /// The originating database's [`Database::rule_rev`] at snapshot
    /// time. Prepared-query plans are keyed by this revision: a plan
    /// built under one rule revision is never served against another.
    pub fn rule_rev(&self) -> u64 {
        self.schema.rule_rev
    }

    /// The originating database's [`Database::constraint_rev`] at
    /// snapshot time (certain answers depend on the constraint set).
    pub fn constraint_rev(&self) -> u64 {
        self.schema.constraint_rev
    }

    /// The arity `pred` is used with anywhere in the snapshotted state;
    /// `None` for unknown predicates (see [`Database::arity_of`]).
    pub fn arity_of(&self, pred: Sym) -> Option<usize> {
        arity_in(&self.edb, &self.schema, pred)
    }

    /// The originating database's [`Database::schema`] at snapshot time.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn rules(&self) -> &RuleSet {
        &self.schema.rules
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.schema.constraints
    }

    /// The canonical model at snapshot time.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The canonical model as a shared handle.
    pub fn model_arc(&self) -> Arc<Model> {
        self.model.clone()
    }

    /// Truth of a ground atom in the snapshot's canonical model.
    pub fn holds(&self, fact: &Fact) -> bool {
        self.model.contains(fact)
    }

    /// Evaluate a closed RQ formula in the snapshot's canonical model.
    pub fn satisfies(&self, rq: &Rq) -> bool {
        satisfies_closed(self.model.as_ref(), rq)
    }

    /// Names of constraints violated at snapshot time. A zero-violation
    /// answer establishes the consistency latch of the pinned state
    /// (see [`Snapshot::verified_consistent`]).
    pub fn violated_constraints(&self) -> Vec<String> {
        violated_in(&self.model, self.constraints(), &self.consistent)
    }

    /// The consistency latch of the pinned state (see
    /// [`Database::verified_consistent`]): shared with the originating
    /// database for as long as it stays on this state, and with every
    /// other snapshot of it — whoever observes zero violations first
    /// establishes the bit for all of them. Later mutations of the
    /// database never touch it: a session pinned before a raw edit
    /// keeps the bit of *its* snapshot.
    pub fn verified_consistent(&self) -> bool {
        self.consistent.get()
    }

    pub fn is_consistent(&self) -> bool {
        self.violated_constraints().is_empty()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("facts", &self.edb.len())
            .field("model", &self.model.len())
            .field("rules", &self.rules().len())
            .field("constraints", &self.constraints().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::parse_fact;

    const UNIVERSITY: &str = "
        % §3.2 running example
        student(jack).
        enrolled(X, cs) :- student(X).
        constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
    ";

    #[test]
    fn parse_and_query() {
        let db = Database::parse(UNIVERSITY).unwrap();
        assert_eq!(db.facts().len(), 1);
        assert_eq!(db.rules().len(), 1);
        assert_eq!(db.constraints().len(), 1);
        assert!(db.holds(&parse_fact("enrolled(jack, cs).").unwrap()));
        assert!(!db.holds(&parse_fact("attends(jack, ddb).").unwrap()));
        assert_eq!(db.violated_constraints(), vec!["cdb".to_string()]);
    }

    #[test]
    fn updates_invalidate_model() {
        let mut db = Database::parse(UNIVERSITY).unwrap();
        assert!(!db.is_consistent());
        db.apply(&Update::insert(Fact::parse_like(
            "attends",
            &["jack", "ddb"],
        )))
        .unwrap();
        assert!(db.is_consistent());
        db.apply(&Update::delete(Fact::parse_like(
            "attends",
            &["jack", "ddb"],
        )))
        .unwrap();
        assert!(!db.is_consistent());
    }

    #[test]
    fn apply_distinguishes_noops_effects_and_arity_errors() {
        let mut db = Database::parse(UNIVERSITY).unwrap();
        let v0 = db.version();
        // Effective insertion: Ok(true), version moves.
        assert_eq!(
            db.apply(&Update::insert(Fact::parse_like("student", &["jill"]))),
            Ok(true)
        );
        assert!(db.version() > v0);
        // Def. 1 no-op: Ok(false), version unchanged.
        let v1 = db.version();
        assert_eq!(
            db.apply(&Update::insert(Fact::parse_like("student", &["jill"]))),
            Ok(false)
        );
        assert_eq!(db.version(), v1);
        // Arity misuse: typed error, nothing applied, version unchanged.
        let err = db
            .apply(&Update::insert(Fact::parse_like("student", &["a", "b"])))
            .unwrap_err();
        assert_eq!(
            err,
            ApplyError::ArityMismatch {
                pred: Sym::new("student"),
                expected: 1,
                got: 2,
            }
        );
        assert!(err.to_string().contains("arity"), "{err}");
        assert_eq!(db.version(), v1);
        // Deletions with the wrong arity are caught too, including for
        // predicates only known through rules or constraints.
        assert!(db
            .apply(&Update::delete(Fact::parse_like("enrolled", &["jack"])))
            .is_err());
        // Unknown predicates are unconstrained.
        assert_eq!(
            db.apply(&Update::insert(Fact::parse_like("fresh", &["a", "b"]))),
            Ok(true)
        );
    }

    #[test]
    fn anonymous_constraints_get_names() {
        let db =
            Database::parse("constraint: exists X: p(X). constraint: exists X: q(X).").unwrap();
        assert_eq!(db.constraints()[0].name, "ic1");
        assert_eq!(db.constraints()[1].name, "ic2");
        assert!(db.constraint("ic2").is_some());
    }

    #[test]
    fn unstratified_program_rejected() {
        let err = Database::parse("p(X) :- base(X), not q(X). q(X) :- base(X), not p(X).");
        assert!(err.is_err());
    }

    #[test]
    fn non_domain_independent_constraint_rejected() {
        assert!(Database::parse("constraint: forall X: p(X).").is_err());
    }

    #[test]
    fn arity_mismatches_rejected_at_parse() {
        // Fact vs fact.
        let err = Database::parse("p(a). p(a, b).").unwrap_err();
        assert!(err.to_string().contains("arity"), "{err}");
        // Fact vs rule body.
        assert!(Database::parse("r(a). s(X) :- r(X, Y).").is_err());
        // Rule head vs fact.
        assert!(Database::parse("q(X, Y) :- r(X, Y). q(a).").is_err());
        // Constraint literal vs fact.
        assert!(Database::parse("p(a). constraint c: forall X, Y: p(X, Y) -> false.").is_err());
        // Consistent arities parse fine, including zero-arity.
        assert!(Database::parse("flag. p(a). q(X) :- p(X), flag.").is_ok());
    }

    #[test]
    fn database_model_and_snapshot_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Model>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<FactSet>();
    }

    #[test]
    fn snapshot_answers_survive_later_commits() {
        let mut db = Database::parse(UNIVERSITY).unwrap();
        let before = db.snapshot();
        assert!(before.holds(&parse_fact("enrolled(jack, cs).").unwrap()));
        assert_eq!(before.violated_constraints(), vec!["cdb".to_string()]);

        db.apply(&Update::insert(Fact::parse_like(
            "attends",
            &["jack", "ddb"],
        )))
        .unwrap();
        db.apply(&Update::insert(Fact::parse_like("student", &["jill"])))
            .unwrap();
        db.apply(&Update::insert(Fact::parse_like(
            "attends",
            &["jill", "ddb"],
        )))
        .unwrap();
        let after = db.snapshot();

        // The live database moved on…
        assert!(db.is_consistent());
        assert!(after.holds(&parse_fact("enrolled(jill, cs).").unwrap()));
        // …but the old snapshot still answers from its own state.
        assert!(!before.holds(&parse_fact("attends(jack, ddb).").unwrap()));
        assert!(!before.holds(&parse_fact("student(jill).").unwrap()));
        assert_eq!(before.violated_constraints(), vec!["cdb".to_string()]);
        assert_eq!(before.facts().len(), 1);
    }

    #[test]
    fn snapshots_are_queryable_from_other_threads() {
        let db = Database::parse(UNIVERSITY).unwrap();
        let snap = db.snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = snap.clone();
                std::thread::spawn(move || {
                    assert!(snap.holds(&parse_fact("enrolled(jack, cs).").unwrap()));
                    snap.violated_constraints().len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1);
        }
    }

    #[test]
    fn latch_is_established_by_observation_preserved_by_vouched_steps_cleared_otherwise() {
        let attends = |who: &str| Update::insert(Fact::parse_like("attends", &[who, "ddb"]));
        let mut db = Database::parse(UNIVERSITY).unwrap();
        // Nobody has looked yet; looking at a violated state sets nothing.
        assert!(!db.verified_consistent());
        assert!(!db.is_consistent());
        assert!(!db.verified_consistent());
        // A raw edit repairs it — still a state nobody has looked at.
        db.apply(&attends("jack")).unwrap();
        assert!(!db.verified_consistent());
        // Any handle on the state establishes the bit for all of them.
        let before = db.snapshot();
        assert!(db.snapshot().is_consistent());
        assert!(db.verified_consistent() && before.verified_consistent());
        assert!(db.clone().verified_consistent());
        // A vouched step carries it; Def. 1 no-ops change nothing.
        db.preserving_consistency(|db| {
            db.apply(&Update::insert(Fact::parse_like("student", &["jill"])))
                .unwrap();
            db.apply(&attends("jill")).unwrap();
        });
        assert!(db.verified_consistent());
        assert_eq!(db.apply(&attends("jill")), Ok(false));
        assert!(db.verified_consistent());
        // Every other mutation clears it — on the database, never on a
        // snapshot pinned before.
        let pinned = db.snapshot();
        db.apply(&Update::insert(Fact::parse_like("student", &["joe"])))
            .unwrap();
        assert!(!db.verified_consistent());
        assert!(pinned.verified_consistent());
        assert!(!db.snapshot().verified_consistent());
        for schema_edit in [
            (|db: &mut Database| db.set_constraints(Vec::new())) as fn(&mut Database),
            |db| db.set_rules(RuleSet::empty()),
        ] {
            let mut copy = pinned_copy(&pinned);
            assert!(copy.is_consistent() && copy.verified_consistent());
            schema_edit(&mut copy);
            assert!(!copy.verified_consistent());
        }
        // A vouched step on an unverified state proves nothing about it.
        assert!(!db.verified_consistent());
        db.preserving_consistency(|db| db.apply(&attends("nobody")).unwrap());
        assert!(!db.verified_consistent());
    }

    fn pinned_copy(snapshot: &Snapshot) -> Database {
        Database::with(
            snapshot.facts().clone(),
            snapshot.rules().clone(),
            snapshot.constraints().to_vec(),
        )
    }

    #[test]
    fn arity_of_consults_all_sources() {
        let db =
            Database::parse("p(a). q(X, Y) :- r(X, Y). constraint c: forall X: s(X) -> false.")
                .unwrap();
        assert_eq!(db.arity_of(Sym::new("p")), Some(1));
        assert_eq!(db.arity_of(Sym::new("q")), Some(2));
        assert_eq!(db.arity_of(Sym::new("r")), Some(2));
        assert_eq!(db.arity_of(Sym::new("s")), Some(1));
        assert_eq!(db.arity_of(Sym::new("ghost")), None);
    }
}
