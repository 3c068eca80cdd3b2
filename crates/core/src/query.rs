//! The unified typed read path: prepared queries, sessions, and typed
//! result sets.
//!
//! The paper treats constraint *satisfaction* (ordinary answering) and
//! constraint *satisfiability* (what could hold) with one evaluation
//! core; CAvSAT (Dixit & Kolaitis, see `PAPERS.md`) unifies ordinary
//! and *consistent* query answering the same way. This module gives the
//! serving surface that shape: one entry point,
//! [`Session::execute`], through which every read flows —
//!
//! * a [`PreparedQuery`] is parsed and planned **once** (join order via
//!   the cost-based [`Planner`]) and is `Arc`-shared,
//!   reusable across snapshots, threads and even databases; plans are
//!   keyed by the originating database's *identity and rule revision*
//!   and transparently rebuilt when a rule update lands (or the query
//!   is executed against a different database) — a stale or foreign
//!   plan is never served;
//! * a [`Session`] pins one [`Snapshot`], so any number of executes see
//!   one immutable state while writers keep committing;
//! * [`Params`] bind a query's declared parameters by name — the same
//!   prepared plan serves `enrolled(X, $course)` for every course;
//! * every execute names its [`Consistency`] level: `Latest` answers
//!   against the snapshot's canonical model, `Certain` answers with the
//!   repair-aware certain semantics (true in **every** minimal repair),
//!   both through the same prepared plan;
//! * results come back as [`Rows`] — a typed result set with a named
//!   column schema, owned [`Value`]s and a deterministic order.
//!
//! ```
//! use uniform::{ConcurrentDatabase, Consistency, Params, PreparedQuery};
//!
//! let db = ConcurrentDatabase::parse("
//!     enrolled(X, cs) :- student(X).
//!     student(jack). student(jill).
//! ").unwrap();
//!
//! let q = PreparedQuery::prepare_with_params("enrolled(X, C)", &["C"]).unwrap();
//! let session = db.session();
//! let rows = session
//!     .execute(&q, &Params::new().bind("C", "cs"), Consistency::Latest)
//!     .unwrap();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows.iter().next().unwrap().get("X").unwrap().as_str(), "jack");
//! ```

use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uniform_datalog::{satisfies, solve_planned, Planner, Snapshot};
use uniform_logic::{
    normalize, normalize_open, parse_formula, parse_query, Literal, ParseError, Rq, Subst, Sym,
    Term,
};
use uniform_obs::{Counter, Obs};
use uniform_repair::{RepairEngine, RepairError, RepairSet};

// ---------------------------------------------------------------------------
// Values, params, consistency
// ---------------------------------------------------------------------------

/// An owned constant in a query answer or parameter binding. Backed by
/// the interned [`Sym`] table, so values are `Copy` and comparisons are
/// pointer-cheap.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value(Sym);

impl Value {
    /// Intern (or reuse) a constant.
    pub fn new(s: &str) -> Value {
        Value(Sym::new(s))
    }

    /// The underlying interned symbol.
    pub fn sym(self) -> Sym {
        self.0
    }

    /// The constant's text.
    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::new(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::new(&s)
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Value {
        Value(s)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// Named parameter bindings for one [`Session::execute`] call. Built
/// fluently:
///
/// ```
/// use uniform::Params;
/// let params = Params::new().bind("C", "cs").bind("S", "jack");
/// assert_eq!(params.get("C").unwrap().as_str(), "cs");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Params {
    bound: BTreeMap<Sym, Value>,
}

impl Params {
    /// No bindings (queries without declared parameters).
    pub fn new() -> Params {
        Params::default()
    }

    /// Bind `name` to `value` (builder style).
    pub fn bind(mut self, name: &str, value: impl Into<Value>) -> Params {
        self.set(name, value);
        self
    }

    /// Bind `name` to `value` in place.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        self.bound.insert(Sym::new(name), value.into());
    }

    /// The binding of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.bound.get(&Sym::new(name)).copied()
    }

    /// All bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, Value)> + '_ {
        self.bound.iter().map(|(&k, &v)| (k, v))
    }

    pub fn len(&self) -> usize {
        self.bound.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bound.is_empty()
    }

    fn subst(&self) -> Subst {
        let mut s = Subst::new();
        for (name, value) in self.iter() {
            s.bind(name, Term::Const(value.sym()));
        }
        s
    }
}

/// The consistency level of one execute — the unification this module
/// exists for: ordinary and repair-aware answering through one entry
/// point and one prepared plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Answers true in the snapshot's canonical model (ordinary query
    /// answering; assumes nothing about constraint satisfaction).
    #[default]
    Latest,
    /// Certain answers: true in **every** subset-minimal repair of the
    /// snapshot (Arenas–Bertossi–Chomicki semantics). On a consistent
    /// snapshot this coincides with `Latest` — and is served as
    /// `Latest`, at `Latest`'s cost, once the snapshot is *verified*
    /// consistent (see [`Snapshot::verified_consistent`]). Bounded by
    /// the database's [`uniform_repair::RepairOptions`]; refusals surface
    /// as [`QueryError::Budget`].
    Certain,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// The one error type of the typed read path.
/// [`crate::ConcurrentDatabase::query`] maps it into
/// [`crate::UniformError`] at the crate boundary.
#[derive(Debug)]
pub enum QueryError {
    /// The query source does not parse.
    Parse(ParseError),
    /// The formula parses but does not normalize to restricted
    /// quantification (free variables, non-restrictable quantifiers —
    /// the domain-independence conditions). Kept structured so
    /// [`crate::ConcurrentDatabase::query`] can map it onto
    /// `UniformError::Language(LogicError::Normalize(..))`.
    Normalize(uniform_logic::NormalizeError),
    /// The query parses but cannot be planned: a free variable that is
    /// neither a column nor a declared parameter, a parameter that
    /// never occurs, …
    Plan { reason: String },
    /// A declared parameter was not bound at execute time.
    UnboundParam(Sym),
    /// A parameter was bound that the query never declared.
    UnknownParam(Sym),
    /// The `Certain` path's repair enumeration refused within its
    /// budgets (or proved the state unrepairable) — see [`RepairError`].
    Budget(RepairError),
    /// A fenced session outlived a schema change: rules or constraints
    /// moved since the snapshot was pinned, so its answers would
    /// predate the current schema. Re-open the session.
    SnapshotTooOld { pinned: u64, current: u64 },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Normalize(e) => write!(f, "{e}"),
            QueryError::Plan { reason } => write!(f, "cannot plan query: {reason}"),
            QueryError::UnboundParam(name) => write!(f, "parameter {name} is not bound"),
            QueryError::UnknownParam(name) => {
                write!(f, "parameter {name} is not declared by the query")
            }
            QueryError::Budget(e) => write!(f, "{e}"),
            QueryError::SnapshotTooOld { pinned, current } => write!(
                f,
                "session snapshot (version {pinned}) predates a schema change (version {current})"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> QueryError {
        QueryError::Parse(e)
    }
}

// ---------------------------------------------------------------------------
// Typed result sets
// ---------------------------------------------------------------------------

/// One answer of a query: the values of the result columns, in schema
/// order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    columns: Arc<[Sym]>,
    values: Vec<Value>,
}

impl Row {
    /// The column schema (shared with the owning [`Rows`]).
    pub fn columns(&self) -> &[Sym] {
        &self.columns
    }

    /// Value of the column named `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        let name = Sym::new(name);
        self.columns
            .iter()
            .position(|&c| c == name)
            .map(|i| self.values[i])
    }

    /// Value at column position `i`.
    pub fn value(&self, i: usize) -> Option<Value> {
        self.values.get(i).copied()
    }

    /// All `(column, value)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, Value)> + '_ {
        self.columns
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The values alone, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (c, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}={v}")?;
        }
        Ok(())
    }
}

/// A typed result set: a named column schema plus zero or more [`Row`]s
/// in a deterministic order (sorted by rendered values, column by
/// column — independent of join order and process, and
/// digested by `tests/determinism.rs`).
///
/// Boolean queries (prepared formulas) report zero columns and either
/// zero rows (`false`) or one empty row (`true`); see [`Rows::is_true`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rows {
    columns: Arc<[Sym]>,
    rows: Vec<Row>,
}

impl Rows {
    fn from_rows(columns: Arc<[Sym]>, mut rows: Vec<Row>) -> Rows {
        rows.sort_by(|a, b| {
            a.values
                .iter()
                .map(|v| v.as_str())
                .cmp(b.values.iter().map(|v| v.as_str()))
        });
        rows.dedup();
        Rows { columns, rows }
    }

    fn boolean(truth: bool) -> Rows {
        let columns: Arc<[Sym]> = Arc::from(Vec::new());
        let rows = if truth {
            vec![Row {
                columns: columns.clone(),
                values: Vec::new(),
            }]
        } else {
            Vec::new()
        };
        Rows { columns, rows }
    }

    /// The column schema, in query first-occurrence order (declared
    /// parameters are bound inputs, not columns).
    pub fn columns(&self) -> &[Sym] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Boolean reading: did the query have at least one answer? For
    /// prepared formulas this is *the* result.
    pub fn is_true(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Row at position `i` (rows are in the deterministic order).
    pub fn get(&self, i: usize) -> Option<&Row> {
        self.rows.get(i)
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows.iter()
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

impl IntoIterator for Rows {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.into_iter()
    }
}

impl std::ops::Index<usize> for Rows {
    type Output = Row;
    fn index(&self, i: usize) -> &Row {
        &self.rows[i]
    }
}

impl fmt::Display for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.columns.is_empty() {
            return write!(f, "{}", self.is_true());
        }
        write!(f, "[")?;
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{row}")?;
        }
        write!(f, "]")
    }
}

// ---------------------------------------------------------------------------
// Prepared queries
// ---------------------------------------------------------------------------

/// How the query text parsed.
enum Kind {
    /// A conjunctive query — a list of literals, answered by
    /// enumeration.
    Conjunctive { literals: Vec<Literal> },
    /// A general (restricted-quantification) formula — answered by a
    /// truth value.
    Formula { rq: Rq },
}

/// A per-rule-revision execution plan.
struct Plan {
    kind: PlanKind,
}

enum PlanKind {
    Conjunctive {
        /// Static dispatch order over the query's literals (see
        /// [`uniform_datalog::Planner::plan_conjunction`]).
        order: Vec<usize>,
    },
    Formula {
        /// The formula after cost-based optimization (reordering and
        /// simplification preserve semantics; see
        /// [`uniform_datalog::Planner`]).
        optimized: Rq,
    },
}

/// A plan-store key: the originating database's identity and its rule
/// revision at plan time.
type PlanKey = (u64, u64);

struct PreparedInner {
    source: String,
    kind: Kind,
    params: Vec<Sym>,
    columns: Arc<[Sym]>,
    /// Plans keyed by `(db_id, rule_rev)` — the database identity they
    /// were built against *and* its rule revision — bounded at
    /// [`PLAN_SLOTS`] with least-recently-*used* eviction (each hit
    /// stamps its entry from `plan_clock`, so a hot plan survives any
    /// amount of churn by other keys; insertion-order eviction would
    /// evict it first). One prepared query used against several
    /// databases (or a session pinned to an older revision) plans into
    /// its own slot; another database's plan — built from that
    /// database's rules and statistics — is never served, whatever the
    /// revision counters say.
    plans: RwLock<Vec<(PlanKey, Arc<Plan>, AtomicU64)>>,
    /// Monotonic use counter feeding the plan entries' LRU stamps.
    plan_clock: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

/// How many rule revisions' plans one prepared query keeps around
/// (long-lived sessions pinned to an older revision re-plan into their
/// own slot instead of thrashing the hot one).
const PLAN_SLOTS: usize = 4;

/// A query parsed and planned once, executable any number of times —
/// across snapshots, sessions, threads and consistency levels. Cheap to
/// clone (`Arc`-shared); the per-revision plan cache inside is shared
/// by all clones, so a query prepared through
/// [`crate::ConcurrentDatabase::prepare`] amortizes planning across
/// every caller.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

impl PreparedQuery {
    /// Prepare a conjunctive query, e.g. `"member(X, Y), not leads(X, Y)"`.
    /// Every variable becomes a result column.
    pub fn prepare(src: &str) -> Result<PreparedQuery, QueryError> {
        PreparedQuery::prepare_with_params(src, &[])
    }

    /// Prepare a conjunctive query with declared parameters: the named
    /// variables are bound per execute via [`Params`] and excluded from
    /// the result columns. Each parameter must occur in the query.
    pub fn prepare_with_params(src: &str, params: &[&str]) -> Result<PreparedQuery, QueryError> {
        let literals = parse_query(src)?;
        let mut vars: Vec<Sym> = Vec::new();
        for l in &literals {
            for v in l.vars() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let params = declared_params(params, &vars)?;
        // §2's range restriction, as rules obey it: a negative literal
        // is evaluated ground, so a positive literal or a parameter
        // must bind each of its variables.
        let bound = |v: &Sym| {
            params.contains(v)
                || literals
                    .iter()
                    .any(|l| l.positive && l.vars().any(|w| w == *v))
        };
        for l in literals.iter().filter(|l| !l.positive) {
            if let Some(v) = l.vars().find(|v| !bound(v)) {
                return Err(QueryError::Plan {
                    reason: format!(
                        "variable {v} of `{l}` occurs in no positive literal and is not a declared parameter"
                    ),
                });
            }
        }
        let columns: Vec<Sym> = vars.into_iter().filter(|v| !params.contains(v)).collect();
        Ok(PreparedQuery::from_kind(
            src,
            Kind::Conjunctive { literals },
            params,
            columns,
        ))
    }

    /// Prepare a closed formula, e.g.
    /// `"forall X: department(X) -> (exists Y: leads(Y, X))"`. Executing
    /// yields a boolean result set (see [`Rows::is_true`]).
    pub fn prepare_formula(src: &str) -> Result<PreparedQuery, QueryError> {
        PreparedQuery::prepare_formula_with_params(src, &[])
    }

    /// Prepare a formula whose free variables are exactly the declared
    /// parameters — the prepared form of point queries like
    /// `"attends(S, ddb)"` with `S` bound per execute.
    pub fn prepare_formula_with_params(
        src: &str,
        params: &[&str],
    ) -> Result<PreparedQuery, QueryError> {
        let formula = parse_formula(src)?;
        let free = formula.free_vars();
        let params = declared_params(params, &free)?;
        let rq = if params.is_empty() {
            normalize(&formula)
        } else {
            normalize_open(&formula)
        }
        .map_err(QueryError::Normalize)?;
        if let Some(stray) = rq.free_vars().iter().find(|v| !params.contains(v)) {
            return Err(QueryError::Plan {
                reason: format!("free variable {stray} is not a declared parameter"),
            });
        }
        Ok(PreparedQuery::from_kind(
            src,
            Kind::Formula { rq },
            params,
            Vec::new(),
        ))
    }

    fn from_kind(src: &str, kind: Kind, params: Vec<Sym>, columns: Vec<Sym>) -> PreparedQuery {
        PreparedQuery {
            inner: Arc::new(PreparedInner {
                source: src.to_string(),
                kind,
                params,
                columns: Arc::from(columns),
                plans: RwLock::new(Vec::new()),
                plan_clock: AtomicU64::new(0),
                plan_hits: AtomicU64::new(0),
                plan_misses: AtomicU64::new(0),
            }),
        }
    }

    /// The query text as prepared.
    pub fn source(&self) -> &str {
        &self.inner.source
    }

    /// The result columns, in first-occurrence order.
    pub fn columns(&self) -> &[Sym] {
        &self.inner.columns
    }

    /// The declared parameters.
    pub fn params(&self) -> &[Sym] {
        &self.inner.params
    }

    /// Is this a formula (boolean) query?
    pub fn is_formula(&self) -> bool {
        matches!(self.inner.kind, Kind::Formula { .. })
    }

    /// `(hits, misses)` of this query's per-revision plan cache: a miss
    /// is a (re)planning — the first execute, or the first execute
    /// after a rule update invalidated the previous plan.
    pub fn plan_counters(&self) -> (u64, u64) {
        (
            self.inner.plan_hits.load(Ordering::Relaxed),
            self.inner.plan_misses.load(Ordering::Relaxed),
        )
    }

    /// The plan for `snapshot`'s `(db_id, rule_rev)`, building (and
    /// caching) it on first use. Identity- and revision-checked: a plan
    /// built against another database, or under another rule set, is
    /// never returned.
    fn plan_for(&self, snapshot: &Snapshot) -> Arc<Plan> {
        let key = (snapshot.db_id(), snapshot.rule_rev());
        let stamp = || self.inner.plan_clock.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let plans = self.inner.plans.read();
            if let Some((_, plan, used)) = plans.iter().find(|(k, _, _)| *k == key) {
                // LRU bookkeeping under the read lock: stamps are
                // atomic, so hits never serialize on the write lock.
                used.store(stamp(), Ordering::Relaxed);
                self.inner.plan_hits.fetch_add(1, Ordering::Relaxed);
                return plan.clone();
            }
        }
        self.inner.plan_misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(self.build_plan(snapshot));
        let mut plans = self.inner.plans.write();
        if let Some((_, existing, used)) = plans.iter().find(|(k, _, _)| *k == key) {
            used.store(stamp(), Ordering::Relaxed);
            return existing.clone(); // lost a benign race; reuse theirs
        }
        plans.push((key, plan.clone(), AtomicU64::new(stamp())));
        if plans.len() > PLAN_SLOTS {
            if let Some(lru) = plans
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, used))| used.load(Ordering::Relaxed))
                .map(|(i, _)| i)
            {
                plans.swap_remove(lru);
            }
        }
        plan
    }

    fn build_plan(&self, snapshot: &Snapshot) -> Plan {
        let bound: HashSet<Sym> = self.inner.params.iter().copied().collect();
        let planner = Planner::new(snapshot.model());
        let kind = match &self.inner.kind {
            Kind::Conjunctive { literals } => PlanKind::Conjunctive {
                order: planner.plan_conjunction(literals, &bound).order,
            },
            Kind::Formula { rq } => PlanKind::Formula {
                optimized: planner.optimize(rq),
            },
        };
        Plan { kind }
    }
}

impl fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("source", &self.inner.source)
            .field("columns", &self.inner.columns)
            .field("params", &self.inner.params)
            .finish()
    }
}

/// Validate declared parameter names against the query's variables.
fn declared_params(params: &[&str], vars: &[Sym]) -> Result<Vec<Sym>, QueryError> {
    let mut out = Vec::with_capacity(params.len());
    for &p in params {
        let name = Sym::new(p);
        if !vars.contains(&name) {
            return Err(QueryError::Plan {
                reason: format!("declared parameter {name} does not occur in the query"),
            });
        }
        if !out.contains(&name) {
            out.push(name);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// A read session: one pinned [`Snapshot`], any number of executes.
///
/// Sessions are cheap (the snapshot clone copies no tuple data), are
/// `Send + Sync`, and keep serving stable answers while writers commit
/// to the originating database. A session holds no cache of its own:
/// the `Certain` path reads the snapshot's minimal repairs and row sets
/// from the database's shared certain-answer cache, so every session
/// pinned to one state shares one enumeration.
pub struct Session {
    snapshot: Snapshot,
    /// The owning database's shared state: options, observability
    /// domain, the commit-invalidated certain-answer cache (see
    /// [`crate::certain_cache`]), the cached static analysis and, when
    /// `fenced`, the published head schema to revalidate against (see
    /// [`QueryError::SnapshotTooOld`]).
    shared: Arc<crate::concurrent::Shared>,
    /// Refuse executes once a schema change lands after the pin.
    fenced: bool,
}

impl Session {
    pub(crate) fn open(
        snapshot: Snapshot,
        shared: Arc<crate::concurrent::Shared>,
        fenced: bool,
    ) -> Session {
        Session {
            snapshot,
            shared,
            fenced,
        }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The database version this session reads at.
    pub fn version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Execute a prepared query at the given consistency level.
    ///
    /// * Declared parameters must all be bound
    ///   ([`QueryError::UnboundParam`]); undeclared bindings are
    ///   refused ([`QueryError::UnknownParam`]).
    /// * The plan is fetched (or built) for the snapshot's rule
    ///   revision — never a stale one.
    /// * `Certain` on a snapshot verified consistent is `Latest`; on
    ///   any other it takes the state's minimal repairs from the shared
    ///   cache, or enumerates them once for every session (after
    ///   looking whether there is anything to repair), and serves the
    ///   intersection semantics through the same prepared plan; budget
    ///   refusals are [`QueryError::Budget`].
    pub fn execute(
        &self,
        query: &PreparedQuery,
        params: &Params,
        consistency: Consistency,
    ) -> Result<Rows, QueryError> {
        for &declared in query.params() {
            if !params.bound.contains_key(&declared) {
                return Err(QueryError::UnboundParam(declared));
            }
        }
        for (name, _) in params.iter() {
            if !query.params().contains(&name) {
                return Err(QueryError::UnknownParam(name));
            }
        }
        if self.fenced {
            if let Some(current) = self.shared.schema_replaced(&self.snapshot) {
                return Err(QueryError::SnapshotTooOld {
                    pinned: self.snapshot.version(),
                    current,
                });
            }
        }

        // One root span per execute, tagged with the consistency level;
        // the close tag is overridden by the outcome path — `eval`,
        // `consistent` (a `Certain` read of a state verified consistent,
        // served as `Latest`), `cache_hit` (served from the shared
        // certain-answer cache), or `repair` (the repair enumeration
        // actually ran). The repair engine's own `repair.run` span nests
        // under this one. Kept to a single span (no per-phase children)
        // so the hot read path pays one ring push; under a `NullClock`
        // no timer is read at all.
        let path = Cell::new("eval");
        let m = self.shared.query_metrics();
        let (tag, counter, hist) = match consistency {
            Consistency::Latest => ("latest", &m.executes_latest, &m.latency_latest),
            Consistency::Certain => ("certain", &m.executes_certain, &m.latency_certain),
        };
        counter.incr();
        let mut span = self
            .shared
            .obs()
            .span_timed("query.execute", Some(tag), hist.clone());

        let plan = query.plan_for(&self.snapshot);
        let init = params.subst();
        let result = match (&query.inner.kind, &plan.kind) {
            (Kind::Conjunctive { literals }, PlanKind::Conjunctive { order }) => {
                let latest = || self.latest_rows(query, literals, order, &init);
                match consistency {
                    Consistency::Latest => Ok(latest()),
                    Consistency::Certain => self.certain(
                        query,
                        params,
                        &path,
                        || literals.iter().map(|l| l.atom.pred).collect(),
                        latest,
                        |repairs| self.certain_rows(query, literals, &init, repairs),
                    ),
                }
            }
            (Kind::Formula { .. }, PlanKind::Formula { optimized }) => {
                let latest = || {
                    Rows::boolean(satisfies(
                        self.snapshot.model(),
                        optimized,
                        &mut init.clone(),
                    ))
                };
                match consistency {
                    Consistency::Latest => Ok(latest()),
                    Consistency::Certain => self.certain(
                        query,
                        params,
                        &path,
                        || {
                            let occs = optimized.literals();
                            occs.iter().map(|occ| occ.literal.atom.pred).collect()
                        },
                        latest,
                        |repairs| {
                            Rows::boolean(uniform_repair::certainly_satisfies_bound(
                                self.snapshot.model(),
                                self.snapshot.facts(),
                                self.snapshot.rules(),
                                repairs,
                                optimized,
                                &init,
                            ))
                        },
                    ),
                }
            }
            _ => unreachable!("plan kind always matches query kind"),
        };
        span.set_path(path.get());
        result
    }

    /// One `Certain` evaluation. The consistency latch comes first: on
    /// a state verified consistent the only minimal repair is the empty
    /// one, so `Certain` *is* `Latest` — `latest` answers, and nothing
    /// below (fingerprint, shared cache, repair engine) is touched.
    ///
    /// Otherwise the state is inconsistent or simply not looked at yet.
    /// The row set is served from the database-level cache when one is
    /// pinned to the same `(db_id, fact_rev, rule_rev, constraint_rev)`
    /// state; on a miss the state's minimal repairs are fetched (which, for a
    /// state nobody has looked at, starts with the plain constraint
    /// evaluation — see [`Session::certain_repairs`] — and may end
    /// right there, back on the `latest` path), `over_repairs`
    /// intersects over them, and the result is installed under the
    /// state's key. `preds` — the relations the query reads — is only
    /// called past the latch.
    fn certain(
        &self,
        query: &PreparedQuery,
        params: &Params,
        path: &Cell<&'static str>,
        preds: impl FnOnce() -> Vec<Sym>,
        latest: impl FnOnce() -> Rows,
        over_repairs: impl FnOnce(&[RepairSet]) -> Rows,
    ) -> Result<Rows, QueryError> {
        if !self.snapshot.verified_consistent() {
            let cache = self.shared.certain();
            let key = crate::certain_cache::StateKey::of(&self.snapshot);
            let fingerprint = Self::fingerprint(query, params);
            if let Some(rows) = cache.lookup_rows(&key, &fingerprint) {
                path.set("cache_hit");
                return Ok(rows);
            }
            let preds = preds();
            if let Some(repairs) = self.certain_repairs_scoped(&preds, path)? {
                let rows = over_repairs(&repairs);
                cache.install_rows(key, fingerprint, rows.clone());
                return Ok(rows);
            }
        }
        path.set("consistent");
        self.shared.query_metrics().certain_consistent.incr();
        Ok(latest())
    }

    /// The cache identity of one `Certain` evaluation under one state:
    /// query kind + declared params + source, then the bound parameter
    /// values in name order ([`Params`] iterates sorted).
    fn fingerprint(query: &PreparedQuery, params: &Params) -> String {
        use fmt::Write as _;
        let mut fp = String::new();
        let kind = if query.is_formula() { "rq" } else { "cq" };
        let _ = write!(fp, "{kind}\u{1}{}", query.inner.source);
        for (name, value) in params.iter() {
            let _ = write!(fp, "\u{1}{name}={value}");
        }
        fp
    }

    /// `Latest`: enumerate over the snapshot's canonical model in the
    /// planned join order.
    fn latest_rows(
        &self,
        query: &PreparedQuery,
        literals: &[Literal],
        order: &[usize],
        init: &Subst,
    ) -> Rows {
        let columns = query.inner.columns.clone();
        let mut rows = Vec::new();
        solve_planned(
            self.snapshot.model(),
            literals,
            order,
            &mut init.clone(),
            &mut |s| {
                rows.push(row_of(&columns, |v| s.walk(Term::Var(v))));
                true
            },
        );
        Rows::from_rows(columns, rows)
    }

    /// `Certain`: intersect answers over every minimal repair, each
    /// simulated over the snapshot's model
    /// ([`uniform_repair::certain_answers_bound`]).
    fn certain_rows(
        &self,
        query: &PreparedQuery,
        literals: &[Literal],
        init: &Subst,
        repairs: &[RepairSet],
    ) -> Rows {
        let columns = query.inner.columns.clone();
        let bindings = uniform_repair::certain_answers_bound(
            self.snapshot.model(),
            self.snapshot.facts(),
            self.snapshot.rules(),
            repairs,
            literals,
            init,
            &columns,
        );
        let rows = bindings
            .into_iter()
            .map(|binding| {
                row_of(&columns, |v| {
                    binding
                        .iter()
                        .find(|(var, _)| *var == v)
                        .map(|&(_, c)| Term::Const(c))
                        .unwrap_or(Term::Var(v))
                })
            })
            .collect();
        Rows::from_rows(columns, rows)
    }

    /// The snapshot's minimal repairs, from the shared certain-answer
    /// cache when any session pinned to the same state has enumerated
    /// them. A state the cache does not know has not been looked at
    /// yet, so look before searching: the plain constraint evaluation
    /// on the snapshot's already-materialised model. Zero violations
    /// establishes the consistency latch and yields `None` — there is
    /// nothing to repair and nothing to cache. Only an actually
    /// inconsistent state reaches the bounded repair search, whose
    /// result is installed shared under the state's key.
    ///
    /// The refusal is scoped to the affected closure: when the
    /// enumeration was cut short (`BudgetExhausted`) but the query reads
    /// only relations `preds` disjoint from every violated constraint's
    /// closure, its answers agree across all minimal repairs — found or
    /// clipped — and across the unrepaired state, so the singleton empty
    /// repair serves them soundly. The enumerating engine decides that,
    /// from the closure it has already computed. The substitute is *not*
    /// installed shared: it is correct only for queries outside the
    /// closure, while the cache is state-scoped.
    fn certain_repairs_scoped(
        &self,
        preds: &[Sym],
        path: &Cell<&'static str>,
    ) -> Result<Option<Arc<Vec<RepairSet>>>, QueryError> {
        let shared = &self.shared;
        let key = crate::certain_cache::StateKey::of(&self.snapshot);
        if let Some(repairs) = shared.certain().lookup_repairs(&key) {
            return Ok(Some(repairs));
        }
        if self.snapshot.is_consistent() {
            shared.query_metrics().consistency_established.incr();
            return Ok(None);
        }
        // The enumeration actually runs: record it in the execute
        // span's close path, and hand the engine the database's obs so
        // its `repair.run` span and `repair.*` counters nest here.
        path.set("repair");
        let engine = RepairEngine::for_snapshot(&self.snapshot)
            .with_options(shared.repair_options())
            .with_obs(shared.obs().clone());
        let report = match engine.repairs_covering_all_minimal() {
            Ok(report) => report,
            Err(RepairError::BudgetExhausted { .. })
                if engine.reads_outside_affected(preds.iter().copied()) =>
            {
                return Ok(Some(Arc::new(vec![RepairSet::empty()])));
            }
            Err(err) => return Err(QueryError::Budget(err)),
        };
        let repairs = Arc::new(report.repairs);
        shared.certain().install_repairs(key, repairs.clone());
        Ok(Some(repairs))
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("version", &self.snapshot.version())
            .field("fenced", &self.fenced)
            .finish()
    }
}

/// Resolve every column through `walk`; columns of a safe query are
/// always bound by the time an answer is emitted.
fn row_of(columns: &Arc<[Sym]>, walk: impl Fn(Sym) -> Term) -> Row {
    let values = columns
        .iter()
        .map(|&c| match walk(c) {
            Term::Const(v) => Value(v),
            Term::Var(_) => unreachable!("column {c} unbound in an answer (unsafe query?)"),
        })
        .collect();
    Row {
        columns: columns.clone(),
        values,
    }
}

// ---------------------------------------------------------------------------
// The shared prepared-plan cache
// ---------------------------------------------------------------------------

const CACHE_SHARDS: usize = 16;

/// Prepared queries one shard keeps (the whole cache holds at most
/// `CACHE_SHARDS * SHARD_CAP`); past the cap the least-recently-used
/// entry of that shard is evicted.
const SHARD_CAP: usize = 64;

/// One cached prepared query with the parts it was prepared from —
/// compared part by part against the borrowed arguments of a lookup, so
/// a hit builds no key.
struct Entry {
    /// Hash of `(kind, params, src)`: picks the shard and pre-filters
    /// the scan.
    hash: u64,
    kind: &'static str,
    params: Box<[Box<str>]>,
    src: Box<str>,
    query: PreparedQuery,
    used: u64,
}

/// One shard of the prepared-query cache: at most [`SHARD_CAP`]
/// entries, scanned linearly (the eviction pass is linear anyway), each
/// carrying an LRU stamp from the shard-local `clock` (everything
/// already runs under the shard mutex, so plain `u64`s suffice).
#[derive(Default)]
struct Shard {
    entries: Vec<Entry>,
    clock: u64,
}

/// A sharded source → [`PreparedQuery`] cache, bounded by genuine LRU
/// eviction ([`SHARD_CAP`] entries per shard; a hit refreshes its
/// entry's stamp, so hot queries survive any amount of churn by
/// distinct keys). Keys carry the query kind and declared parameters,
/// so `"p(X)"` as a conjunctive query and as a formula never collide.
/// Entries stay valid across rule updates — parsing is
/// schema-independent; the *plans* inside each entry are revision-keyed
/// and rebuilt on demand (see [`PreparedQuery`]).
pub(crate) struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Registry-backed (`cache.plan.hits` / `cache.plan.misses`).
    hits: Counter,
    misses: Counter,
}

impl PlanCache {
    pub(crate) fn new(obs: &Obs) -> PlanCache {
        PlanCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: obs.counter("cache.plan.hits"),
            misses: obs.counter("cache.plan.misses"),
        }
    }

    pub(crate) fn get_or_prepare(
        &self,
        kind: &'static str,
        src: &str,
        params: &[&str],
        build: impl FnOnce() -> Result<PreparedQuery, QueryError>,
    ) -> Result<PreparedQuery, QueryError> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (kind, params, src).hash(&mut hasher);
        let hash = hasher.finish();
        let shard = &self.shards[(hash as usize) % CACHE_SHARDS];
        let mut shard = shard.lock();
        shard.clock += 1;
        let clock = shard.clock;
        let hit = shard.entries.iter_mut().find(|e| {
            e.hash == hash
                && e.kind == kind
                && *e.src == *src
                && e.params.iter().map(|p| &**p).eq(params.iter().copied())
        });
        if let Some(entry) = hit {
            entry.used = clock;
            self.hits.incr();
            return Ok(entry.query.clone());
        }
        self.misses.incr();
        let query = build()?;
        shard.entries.push(Entry {
            hash,
            kind,
            params: params.iter().map(|&p| p.into()).collect(),
            src: src.into(),
            query: query.clone(),
            used: clock,
        });
        if shard.entries.len() > SHARD_CAP {
            if let Some(lru) = (0..shard.entries.len()).min_by_key(|&i| shard.entries[i].used) {
                shard.entries.swap_remove(lru);
            }
        }
        Ok(query)
    }

    /// Prepared queries currently cached (the `cache.plan.entries`
    /// gauge), summed one shard lock at a time.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentDatabase;
    use std::collections::BTreeSet;

    const ORG: &str = "
        member(X, Y) :- leads(X, Y).
        constraint led: forall X: department(X) -> (exists Y: employee(Y) & leads(Y, X)).
        employee(ann).
        department(sales).
        leads(ann, sales).
    ";

    #[test]
    fn prepared_conjunctive_query_round_trips() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = PreparedQuery::prepare("member(X, Y)").unwrap();
        assert_eq!(q.columns(), &[Sym::new("X"), Sym::new("Y")]);
        let session = db.session();
        let rows = session
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("X").unwrap().as_str(), "ann");
        assert_eq!(rows[0].get("Y").unwrap().as_str(), "sales");
        assert_eq!(rows[0].value(0).unwrap(), Value::new("ann"));
        assert_eq!(rows.to_string(), "[X=ann, Y=sales]");
    }

    #[test]
    fn unsafe_negative_literals_are_refused_at_prepare() {
        for src in ["not p(X)", "q(Y), not p(X)"] {
            let err = PreparedQuery::prepare(src).unwrap_err();
            assert!(matches!(err, QueryError::Plan { .. }), "{src}: {err}");
            assert!(err.to_string().starts_with("cannot plan query"), "{err}");
        }
        // A declared parameter binds the negative literal's variable.
        let db = ConcurrentDatabase::parse("q(b). constraint c: forall X: p(X) -> q(X).").unwrap();
        db.update_schema(|d| {
            d.insert_fact(&crate::Fact::parse_like("p", &["a"]));
            d.insert_fact(&crate::Fact::parse_like("p", &["b"]));
        });
        let q = PreparedQuery::prepare_with_params("not q(X)", &["X"]).unwrap();
        let session = db.session();
        for consistency in [Consistency::Latest, Consistency::Certain] {
            for (x, want) in [("b", 0), ("c", 1)] {
                let rows = session
                    .execute(&q, &Params::new().bind("X", x), consistency)
                    .unwrap();
                assert_eq!(rows.len(), want, "{x} at {consistency:?}");
            }
        }
    }

    #[test]
    fn params_bind_and_validate() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = PreparedQuery::prepare_with_params("leads(X, D)", &["D"]).unwrap();
        assert_eq!(q.columns(), &[Sym::new("X")]);
        assert_eq!(q.params(), &[Sym::new("D")]);
        let session = db.session();
        let rows = session
            .execute(&q, &Params::new().bind("D", "sales"), Consistency::Latest)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("X").unwrap().as_str(), "ann");
        // Unbound and unknown parameters are typed errors.
        let err = session
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap_err();
        assert!(matches!(err, QueryError::UnboundParam(_)), "{err}");
        let err = session
            .execute(
                &q,
                &Params::new().bind("D", "sales").bind("Z", "x"),
                Consistency::Latest,
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::UnknownParam(_)), "{err}");
        // Declaring a parameter that never occurs is a plan error.
        let err = PreparedQuery::prepare_with_params("leads(X, D)", &["Q"]).unwrap_err();
        assert!(matches!(err, QueryError::Plan { .. }), "{err}");
    }

    #[test]
    fn formula_queries_are_boolean_row_sets() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let session = db.session();
        let yes = PreparedQuery::prepare_formula("exists X: member(ann, X)").unwrap();
        let no = PreparedQuery::prepare_formula("member(ann, hr)").unwrap();
        assert!(yes.is_formula());
        let rows = session
            .execute(&yes, &Params::new(), Consistency::Latest)
            .unwrap();
        assert!(rows.is_true());
        assert_eq!(rows.len(), 1);
        assert!(rows.columns().is_empty());
        assert!(!session
            .execute(&no, &Params::new(), Consistency::Latest)
            .unwrap()
            .is_true());
        // Parameterized point query.
        let point = PreparedQuery::prepare_formula_with_params("member(W, sales)", &["W"]).unwrap();
        assert!(session
            .execute(&point, &Params::new().bind("W", "ann"), Consistency::Latest)
            .unwrap()
            .is_true());
        // A free variable that is not a parameter fails normalization,
        // structured (`UniformError` maps it onto the historical
        // `UniformError::Language(LogicError::Normalize(..))`).
        let err = PreparedQuery::prepare_formula("member(W, sales)").unwrap_err();
        assert!(matches!(err, QueryError::Normalize(_)), "{err}");
        assert!(matches!(
            crate::UniformError::from(err),
            crate::UniformError::Language(uniform_logic::LogicError::Normalize(_))
        ));
    }

    #[test]
    fn certain_and_latest_agree_on_consistent_states() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = PreparedQuery::prepare("member(X, Y)").unwrap();
        let session = db.session();
        let latest = session
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        let certain = session
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(latest, certain);
    }

    #[test]
    fn certain_drops_uncertain_answers() {
        let db = ConcurrentDatabase::parse_tolerant(
            "p(a). p(b). q(b). constraint c: forall X: p(X) -> q(X).",
        )
        .unwrap();
        let session = db.session();
        let q = PreparedQuery::prepare("p(X)").unwrap();
        let latest = session
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(latest.len(), 2);
        let certain = session
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(certain.len(), 1);
        assert_eq!(certain[0].get("X").unwrap().as_str(), "b");
    }

    #[test]
    fn certain_recursive_goals_intersect_the_repaired_models() {
        use uniform_datalog::{all_solutions, Model};
        // `edge(b, c)` dangles: one repair inserts `node(b)`, the other
        // deletes the edge, so `tc` differs between them.
        let db = ConcurrentDatabase::parse_tolerant(
            "
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
            constraint edom: forall X, Y: edge(X, Y) -> node(X).
            node(a). node(c). edge(a, b). edge(b, c). edge(c, d).
        ",
        )
        .unwrap();
        let q = PreparedQuery::prepare_with_params("tc(S, X)", &["S"]).unwrap();
        let session = db.session();
        let snap = session.snapshot();
        let repairs = RepairEngine::for_snapshot(snap)
            .repairs_covering_all_minimal()
            .unwrap()
            .repairs;
        assert_eq!(repairs.len(), 2, "{repairs:?}");
        let x = Sym::new("X");
        for start in ["a", "b", "c", "d"] {
            let goal = parse_query(&format!("tc({start}, X)")).unwrap();
            let per_repair: Vec<BTreeSet<&str>> = repairs
                .iter()
                .map(|repair| {
                    let model = Model::compute(&repair.apply_to(snap.facts()), snap.rules());
                    all_solutions(&model, &goal, &mut Subst::new(), &[x])
                        .iter()
                        .filter_map(|s| s.walk(Term::Var(x)).as_const())
                        .map(|c| c.as_str())
                        .collect()
                })
                .collect();
            let want: Vec<&str> = per_repair[0]
                .iter()
                .filter(|v| per_repair.iter().all(|answers| answers.contains(*v)))
                .copied()
                .collect();
            let params = Params::new().bind("S", start);
            let certain = session.execute(&q, &params, Consistency::Certain).unwrap();
            let got: Vec<&str> = certain
                .iter()
                .map(|r| r.get("X").unwrap().as_str())
                .collect();
            assert_eq!(got, want, "S={start}");
        }
        // The state is inconsistent, so `a`'s answers differ by level.
        let params = Params::new().bind("S", "a");
        let latest = session.execute(&q, &params, Consistency::Latest).unwrap();
        let certain = session.execute(&q, &params, Consistency::Certain).unwrap();
        assert_eq!((latest.len(), certain.len()), (3, 1));
    }

    #[test]
    fn rows_order_is_deterministic_and_sorted() {
        let db = ConcurrentDatabase::parse("edge(c, d). edge(a, b). edge(b, c).").unwrap();
        let q = PreparedQuery::prepare("edge(X, Y)").unwrap();
        let rows = db
            .session()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        let xs: Vec<&str> = rows.iter().map(|r| r.get("X").unwrap().as_str()).collect();
        assert_eq!(xs, vec!["a", "b", "c"]);
    }

    #[test]
    fn sessions_pin_their_snapshot() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = PreparedQuery::prepare("employee(X)").unwrap();
        let session = db.session();
        db.try_update_all(&["employee(bob)", "department(hr)", "leads(bob, hr)"])
            .unwrap();
        // The old session still answers from its pinned state…
        assert_eq!(
            session
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap()
                .len(),
            1
        );
        // …a fresh one observes the commit — through the same plan.
        assert_eq!(
            db.session()
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap()
                .len(),
            2
        );
        let (hits, misses) = q.plan_counters();
        assert_eq!((hits, misses), (1, 1), "one plan, reused across sessions");
    }

    #[test]
    fn plans_are_rebuilt_after_rule_updates() {
        let db = ConcurrentDatabase::parse(ORG).unwrap();
        let q = PreparedQuery::prepare("member(X, Y)").unwrap();
        assert_eq!(
            db.session()
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap()
                .len(),
            1
        );
        db.try_add_rule("member(X, ann_club) :- employee(X).")
            .unwrap();
        // The rule revision moved: the stale plan is not served.
        let rows = db
            .session()
            .execute(&q, &Params::new(), Consistency::Latest)
            .unwrap();
        assert_eq!(rows.len(), 2, "{rows}");
        let (_, misses) = q.plan_counters();
        assert_eq!(misses, 2, "re-planned once after the rule update");
    }

    /// Regression: plans are keyed by `(db_id, rule_rev)`, not rule
    /// revision alone. Two databases can agree on every revision
    /// counter while holding different rules — a shared prepared query
    /// must plan per database, or a plan built from the first
    /// database's rules and statistics serves the second.
    #[test]
    fn plans_never_cross_databases_with_equal_revisions() {
        let db1 = ConcurrentDatabase::parse_tolerant(
            "
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- edge(X, Y), tc(Y, Z).
            edge(a, b). edge(b, c).
            constraint m: forall X: marked(X) -> hub(X).
            marked(q).
        ",
        )
        .unwrap();
        let db2 = ConcurrentDatabase::parse_tolerant(
            "
            tc(X, Y) :- link(X, Y).
            tc(X, Z) :- link(X, Y), tc(Y, Z).
            link(a, z).
            constraint m: forall X: marked(X) -> hub(X).
            marked(q).
        ",
        )
        .unwrap();
        assert_eq!(
            db1.snapshot().rule_rev(),
            db2.snapshot().rule_rev(),
            "the collision precondition: equal revision counters"
        );
        let q = PreparedQuery::prepare_with_params("tc(S, X)", &["S"]).unwrap();
        let params = Params::new().bind("S", "a");
        for (db, expect) in [(&db1, vec!["b", "c"]), (&db2, vec!["z"])] {
            let session = db.session();
            for level in [Consistency::Latest, Consistency::Certain] {
                let rows = session.execute(&q, &params, level).unwrap();
                let got: Vec<&str> = rows.iter().map(|r| r.get("X").unwrap().as_str()).collect();
                assert_eq!(got, expect, "{level:?}");
            }
        }
        let (_, misses) = q.plan_counters();
        assert_eq!(misses, 2, "one plan per database identity");
    }

    #[test]
    fn plan_slots_evict_least_recently_used_not_oldest() {
        // Regression: the plan store used to claim "bounded: old keys
        // are evicted" but evicted in *insertion* order, so a hot
        // database's plan died to churn by other databases even while
        // being hit constantly. Six databases churn one PreparedQuery's
        // PLAN_SLOTS=4 store; the hot one is re-hit between insertions
        // and must never re-plan.
        let dbs: Vec<ConcurrentDatabase> = (0..6)
            .map(|_| ConcurrentDatabase::parse("employee(ann).").unwrap())
            .collect();
        let q = PreparedQuery::prepare("employee(X)").unwrap();
        let run = |db: &ConcurrentDatabase| {
            db.session()
                .execute(&q, &Params::new(), Consistency::Latest)
                .unwrap()
        };
        run(&dbs[0]); // the hot database plans first
        for cold in &dbs[1..] {
            run(cold); // one plan per database identity
            run(&dbs[0]); // ...with the hot plan re-hit in between
        }
        run(&dbs[0]);
        let (hits, misses) = q.plan_counters();
        assert_eq!(misses, 6, "one plan per database, hot never re-planned");
        assert_eq!(hits, 6, "every hot re-execute was served cached");
    }

    #[test]
    fn budget_refusals_are_typed() {
        let db = ConcurrentDatabase::from_database(
            uniform_datalog::Database::parse("p(a). constraint c: forall X: p(X) -> q(X).")
                .unwrap(),
            crate::UniformOptions {
                repair: uniform_repair::RepairOptions {
                    max_branches: 1,
                    ..uniform_repair::RepairOptions::default()
                },
                ..crate::UniformOptions::default()
            },
        );
        let q = PreparedQuery::prepare("p(X)").unwrap();
        let err = db
            .session()
            .execute(&q, &Params::new(), Consistency::Certain)
            .unwrap_err();
        assert!(matches!(err, QueryError::Budget(_)), "{err}");
    }

    #[test]
    fn budget_refusals_scope_to_the_affected_closure() {
        // The size-5 repair {+q(a), -t1..-t4} is clipped by the default
        // fact budget of 4, so queries touching the violated closure
        // refuse — but z is disjoint from every constraint's closure
        // and its certain answers must still be served.
        let db = ConcurrentDatabase::parse_tolerant(
            "
            p(a). t1(a). t2(a). t3(a). t4(a). z(a).
            constraint c: forall X: p(X) -> q(X).
            constraint d1: forall X: q(X) & t1(X) -> false.
            constraint d2: forall X: q(X) & t2(X) -> false.
            constraint d3: forall X: q(X) & t3(X) -> false.
            constraint d4: forall X: q(X) & t4(X) -> false.
        ",
        )
        .unwrap();
        let session = db.session();

        let inside = PreparedQuery::prepare("t1(X)").unwrap();
        let err = session
            .execute(&inside, &Params::new(), Consistency::Certain)
            .unwrap_err();
        assert!(matches!(err, QueryError::Budget(_)), "{err}");

        let outside = PreparedQuery::prepare("z(X)").unwrap();
        let rows = session
            .execute(&outside, &Params::new(), Consistency::Certain)
            .unwrap();
        assert_eq!(rows.len(), 1, "z(a) is certain under a clipped budget");

        // The formula path gets the same scoping.
        let holds = PreparedQuery::prepare_formula("exists X: z(X)").unwrap();
        let rows = session
            .execute(&holds, &Params::new(), Consistency::Certain)
            .unwrap();
        assert!(rows.is_true());
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(
            PreparedQuery::prepare("p(X"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            PreparedQuery::prepare_formula("forall X:"),
            Err(QueryError::Parse(_))
        ));
    }
}
