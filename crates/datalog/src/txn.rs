//! The concurrent commit pipeline: optimistic transactions over MVCC
//! snapshots with first-committer-wins conflict detection.
//!
//! PR 1 made reads snapshot-isolated; this module does the same for
//! writers. A [`TxnBuilder`] (from [`Database::begin`] or
//! [`CommitQueue::begin`]) stages updates against a pinned [`Snapshot`]
//! and accumulates the [`ReadFootprint`] its guarded-update check
//! touched: per relation, either a set of key fingerprints (the bound
//! argument positions the check actually probed) or a whole-relation
//! access when a read is genuinely unbounded. All expensive work —
//! integrity checking, delta enumeration, model queries — happens
//! against the snapshot, outside any lock, so writers over disjoint
//! relations — and disjoint *keys of the same relation* — proceed
//! concurrently. Only the admission decision and the (cheap, Def. 1)
//! application of the net delta serialize behind the [`CommitQueue`]'s
//! mutex.
//!
//! Admission is first-committer-wins at key granularity: a transaction
//! that began at version `v` is admitted iff no transaction committed
//! after `v` wrote a tuple matching one of the candidate's key
//! fingerprints (or any tuple of a relation it read unbounded). A
//! conflicting candidate is rejected with a typed
//! [`CommitError::Conflict`] naming the relations and the granularity
//! that refused it, so callers can re-begin against a fresh snapshot
//! and retry; the `txn.conflicts.*` counters of [`CommitQueue::obs`]
//! count refusals at each granularity. This is sound for the paper's incremental checking
//! because Bry/Decker/Manthey's method makes a check a function of
//! (snapshot state restricted to the tuples the read patterns cover,
//! net delta): if no admitted writer touched those tuples since `v`,
//! re-running the check at commit time would read the very same tuples
//! and reach the very same verdict — which is exactly what
//! `tests/prop_commit_serializability` replays sequentially and
//! asserts. Fingerprint collisions only ever produce spurious
//! conflicts (a safe retry), never admissions.
//!
//! An admitted commit writes through [`Database::apply_all`]; the next
//! snapshot advances the database's own model by the commit's net
//! effect (the paper's induced-update view, Def. 4, as maintenance)
//! instead of paying a rematerialization. There is one set of explicit
//! facts, the database's: the model's relations for predicates no rule
//! defines *are* the database's, so each committed tuple is written
//! once. `tests/prop_model_maintenance` proves the
//! maintained model bit-identical to a from-scratch recomputation after
//! every admitted commit.

use crate::database::{ApplyError, Database, Snapshot};
use crate::footprint::{ConflictGranularity, ReadFootprint, ReadPattern};
use crate::update::{Transaction, Update};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use uniform_logic::{Fact, Sym};
use uniform_obs::{Counter, Obs};

/// A transaction under construction: updates staged against a pinned
/// snapshot, plus the key-fingerprint read footprint recorded while
/// checking them.
#[derive(Clone)]
pub struct TxnBuilder {
    snapshot: Snapshot,
    updates: Vec<Update>,
    reads: ReadFootprint,
}

impl TxnBuilder {
    pub(crate) fn new(snapshot: Snapshot) -> TxnBuilder {
        TxnBuilder {
            snapshot,
            updates: Vec::new(),
            reads: ReadFootprint::default(),
        }
    }

    /// The pinned snapshot every staged update and every check runs
    /// against.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The database version this transaction began at.
    pub fn begin_version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Stage an update. A staged write implies a read of its own tuple
    /// (Def. 1 effectiveness is a membership test of one ground fact) —
    /// a *key-level* read, never a whole-relation one, so blind
    /// appenders to disjoint keys of the same relation do not conflict
    /// each other.
    pub fn stage(&mut self, update: Update) -> &mut TxnBuilder {
        self.reads.record_tuple(update.fact.pred, &update.fact.args);
        self.updates.push(update);
        self
    }

    /// Stage an insertion.
    pub fn insert(&mut self, fact: Fact) -> &mut TxnBuilder {
        self.stage(Update::insert(fact))
    }

    /// Stage a deletion.
    pub fn delete(&mut self, fact: Fact) -> &mut TxnBuilder {
        self.stage(Update::delete(fact))
    }

    /// Record that checking this transaction read each of `preds`
    /// *unbounded*: any later write into one of them conflicts. This is
    /// deliberate widening (e.g. the constraint-closure footprint of an
    /// auto-repair decision); prefer [`TxnBuilder::record_read_patterns`]
    /// when binding information is available.
    pub fn record_reads(&mut self, preds: impl IntoIterator<Item = Sym>) -> &mut TxnBuilder {
        for pred in preds {
            self.reads.record_whole(pred);
        }
        self
    }

    /// Record a batch of binding-pattern reads (e.g. a `CheckReport`'s
    /// `read_patterns`).
    pub fn record_read_patterns<'p>(
        &mut self,
        patterns: impl IntoIterator<Item = &'p ReadPattern>,
    ) -> &mut TxnBuilder {
        for p in patterns {
            self.reads.record_pattern(p);
        }
        self
    }

    /// The staged updates, in staging order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The staged updates as a [`Transaction`].
    pub fn transaction(&self) -> Transaction {
        Transaction::new(self.updates.clone())
    }

    /// Relations this transaction writes.
    pub fn write_set(&self) -> BTreeSet<Sym> {
        self.updates.iter().map(|u| u.fact.pred).collect()
    }

    /// Relations this transaction's checks read (a superset of the
    /// write set once updates are staged), at relation granularity.
    pub fn read_set(&self) -> BTreeSet<Sym> {
        self.reads.relations().collect()
    }

    /// The net effect of the staged updates on the pinned snapshot
    /// (see [`Transaction::net_effect`]).
    pub fn net_effect(&self) -> (Vec<Fact>, Vec<Fact>) {
        self.transaction().net_effect(self.snapshot.facts())
    }

    /// Validate staged arities against the snapshot's schema (including
    /// arities introduced by earlier staged updates) — the same typed
    /// error the commit queue would raise at admission time, but
    /// catchable before submission.
    pub fn validate_arities(&self) -> Result<(), ApplyError> {
        crate::database::validate_transaction_arities(
            |pred| self.snapshot.arity_of(pred),
            &self.updates,
        )
    }
}

impl fmt::Debug for TxnBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnBuilder")
            .field("begin_version", &self.begin_version())
            .field("updates", &self.updates)
            .field("reads", &self.reads)
            .finish()
    }
}

/// Why a commit was refused. `Conflict` and `SnapshotTooOld` are
/// retriable by re-beginning against a fresh snapshot; `Apply` is a
/// caller error (arity misuse) that no retry will fix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Another transaction committed first and wrote into this one's
    /// read footprint (first-committer-wins). `relations` is sorted by
    /// name; `committed_version` is the earliest conflicting commit;
    /// `granularity` reports whether an unbounded relation read or a
    /// key fingerprint caught the overlap.
    Conflict {
        relations: Vec<Sym>,
        committed_version: u64,
        granularity: ConflictGranularity,
    },
    /// The transaction began before the queue's conflict-log horizon, so
    /// admission can no longer be decided. Re-begin and retry.
    SnapshotTooOld { begin_version: u64, horizon: u64 },
    /// An update misused a predicate's arity. Nothing was applied.
    Apply(ApplyError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Conflict {
                relations,
                committed_version,
                granularity,
            } => {
                let how = match granularity {
                    ConflictGranularity::Relation => "relation-level",
                    ConflictGranularity::Key => "key-level",
                };
                write!(
                    f,
                    "commit conflict ({how}): relation(s) {} written by commit {} after this transaction began",
                    relations
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    committed_version
                )
            }
            CommitError::SnapshotTooOld {
                begin_version,
                horizon,
            } => write!(
                f,
                "snapshot too old: began at version {begin_version}, conflict log starts at {horizon}"
            ),
            CommitError::Apply(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CommitError {}

impl From<ApplyError> for CommitError {
    fn from(e: ApplyError) -> CommitError {
        CommitError::Apply(e)
    }
}

/// Proof of an admitted commit.
#[derive(Clone, Debug)]
pub struct CommitReceipt {
    /// The database version after this commit.
    pub version: u64,
    /// The database's fact revision after this commit — the post-state
    /// half of the key a commit-invalidated certain-answer cache
    /// advances its entries to (see `uniform::ConcurrentDatabase`).
    pub fact_rev: u64,
    /// The updates that actually changed the store (Def. 1 effective
    /// subset, in staging order).
    pub effective: Vec<Update>,
}

impl CommitReceipt {
    /// Did the commit change the database at all?
    pub fn changed(&self) -> bool {
        !self.effective.is_empty()
    }
}

/// One committed transaction's write footprint — the *effective*
/// tuples it changed, per relation — kept for conflict detection
/// against still-open transactions (their key fingerprints are matched
/// against these tuples).
#[derive(Clone, Debug)]
struct CommitRecord {
    version: u64,
    writes: BTreeMap<Sym, Vec<Box<[Sym]>>>,
}

/// Registry-backed counter handles (`txn.*`, `maintain.*`,
/// `consistency.*`), read by name through [`CommitQueue::obs`]. Every
/// bump happens while the queue mutex is held.
struct QueueMetrics {
    admitted: Counter,
    relation_conflicts: Counter,
    key_conflicts: Counter,
    whole_relation_fallbacks: Counter,
    maintained: Counter,
    /// The head state's consistency latch (see
    /// [`Database::verified_consistent`]): steps that carried a set bit
    /// across a mutation, and steps that dropped one.
    consistency_preserved: Counter,
    consistency_cleared: Counter,
}

impl QueueMetrics {
    fn register(obs: &Obs) -> QueueMetrics {
        QueueMetrics {
            admitted: obs.counter("txn.commits.admitted"),
            relation_conflicts: obs.counter("txn.conflicts.relation"),
            key_conflicts: obs.counter("txn.conflicts.key"),
            whole_relation_fallbacks: obs.counter("txn.conflicts.whole_relation_fallbacks"),
            maintained: obs.counter("maintain.commits.maintained"),
            consistency_preserved: obs.counter("consistency.preserved"),
            consistency_cleared: obs.counter("consistency.cleared"),
        }
    }

    /// Account for one effective mutation of the head state: a latch
    /// that was set before it either survived (`preserved`) or did not
    /// (`cleared`); an unset one has nothing to lose.
    fn latch_moved(&self, was: bool, is: bool) {
        match (was, is) {
            (true, true) => self.consistency_preserved.incr(),
            (true, false) => self.consistency_cleared.incr(),
            (false, _) => {}
        }
    }
}

struct QueueState {
    /// The one state: its explicit facts, and its cached canonical model,
    /// which the next read advances past every effective commit.
    db: Database,
    log: VecDeque<CommitRecord>,
    /// Begin-versions older than this can no longer be conflict-checked
    /// (their overlapping commit records were pruned).
    horizon: u64,
}

/// The serialization point of the commit pipeline. Shares one
/// [`Database`] among any number of writers: `begin` pins a snapshot,
/// `commit` admits with first-committer-wins conflict detection.
///
/// Wrap it in an `Arc` to share across threads; everything except the
/// admission critical section runs lock-free on snapshots.
pub struct CommitQueue {
    state: Mutex<QueueState>,
    log_capacity: usize,
    /// The observability domain this queue reports into (a private
    /// `NullClock` one unless injected via [`CommitQueue::with_obs`]).
    obs: Arc<Obs>,
    metrics: QueueMetrics,
}

/// Commit records retained for conflict detection. A transaction must
/// begin and commit within this many commits of each other or be told
/// [`CommitError::SnapshotTooOld`].
const DEFAULT_LOG_CAPACITY: usize = 1024;

impl CommitQueue {
    pub fn new(db: Database) -> CommitQueue {
        CommitQueue::with_log_capacity(db, DEFAULT_LOG_CAPACITY)
    }

    pub fn with_log_capacity(db: Database, log_capacity: usize) -> CommitQueue {
        CommitQueue::with_log_capacity_and_obs(db, log_capacity, Arc::new(Obs::null()))
    }

    /// A queue reporting into an injected observability domain — the
    /// constructor `uniform::ConcurrentDatabase` uses so queue metrics
    /// land in the database-wide registry.
    pub fn with_obs(db: Database, obs: Arc<Obs>) -> CommitQueue {
        CommitQueue::with_log_capacity_and_obs(db, DEFAULT_LOG_CAPACITY, obs)
    }

    pub fn with_log_capacity_and_obs(
        db: Database,
        log_capacity: usize,
        obs: Arc<Obs>,
    ) -> CommitQueue {
        let horizon = db.version();
        let metrics = QueueMetrics::register(&obs);
        CommitQueue {
            state: Mutex::new(QueueState {
                db,
                log: VecDeque::new(),
                horizon,
            }),
            log_capacity: log_capacity.max(1),
            obs,
            metrics,
        }
    }

    /// The observability domain this queue reports into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Pin a snapshot and open a transaction against it.
    pub fn begin(&self) -> TxnBuilder {
        TxnBuilder::new(self.snapshot())
    }

    /// A snapshot of the current committed state.
    pub fn snapshot(&self) -> Snapshot {
        self.state.lock().db.snapshot()
    }

    /// The current committed version.
    pub fn version(&self) -> u64 {
        self.state.lock().db.version()
    }

    /// Run `f` against the live database under the queue lock (reads
    /// only — mutation goes through [`CommitQueue::commit`]).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.state.lock().db)
    }

    /// Tear down the queue and recover the database.
    pub fn into_inner(self) -> Database {
        self.state.into_inner().db
    }

    /// The shared first-committer-wins scan: `Err` if `txn`'s snapshot
    /// can no longer be trusted for its read footprint — either a later
    /// commit wrote a tuple the footprint covers (`Conflict`) or the log
    /// no longer reaches back that far (`SnapshotTooOld`). A snapshot
    /// of another database (one swapped out by
    /// [`CommitQueue::update_schema`]) is `SnapshotTooOld` too: versions
    /// of two databases cannot be compared. Key-level reads match
    /// written tuples by fingerprint projection; unbounded reads match
    /// any write to the relation.
    fn freshness_in(state: &QueueState, txn: &TxnBuilder) -> Result<(), CommitError> {
        let (begin, reads) = (txn.begin_version(), &txn.reads);
        if begin < state.horizon || txn.snapshot.db_id() != state.db.db_id() {
            return Err(CommitError::SnapshotTooOld {
                begin_version: begin,
                horizon: state.horizon,
            });
        }
        let mut conflicting: BTreeSet<Sym> = BTreeSet::new();
        let mut first_winner = None;
        let mut granularity = ConflictGranularity::Key;
        for record in state.log.iter().filter(|r| r.version > begin) {
            for (&pred, tuples) in &record.writes {
                let hit = tuples
                    .iter()
                    .find_map(|t| reads.conflicts_with_write(pred, t));
                if let Some(g) = hit {
                    if first_winner.is_none() {
                        first_winner = Some(record.version);
                    }
                    if g == ConflictGranularity::Relation {
                        granularity = ConflictGranularity::Relation;
                    }
                    conflicting.insert(pred);
                }
            }
        }
        if let Some(committed_version) = first_winner {
            let mut relations: Vec<Sym> = conflicting.into_iter().collect();
            relations.sort_by_key(|s| s.as_str());
            return Err(CommitError::Conflict {
                relations,
                committed_version,
                granularity,
            });
        }
        Ok(())
    }

    /// Is `txn`'s snapshot still authoritative for its read set — i.e.
    /// would it be admitted right now as far as conflicts go? Callers
    /// use this to distinguish a *final* integrity rejection (checked
    /// on a still-fresh snapshot) from a stale one worth re-checking.
    pub fn check_freshness(&self, txn: &TxnBuilder) -> Result<(), CommitError> {
        Self::freshness_in(&self.state.lock(), txn)
    }

    /// Admit or refuse `txn` (first-committer-wins). On admission the
    /// staged updates are applied in staging order and the commit's
    /// *effective* write footprint is logged for later conflict checks
    /// (a Def. 1 no-op commit changes nothing, so it must not conflict
    /// anyone). On refusal the database is untouched.
    ///
    /// Nothing here checks integrity, so an effective commit through
    /// this entry point clears the head state's consistency latch; a
    /// caller that *did* check goes through
    /// [`CommitQueue::commit_checked`].
    pub fn commit(&self, txn: &TxnBuilder) -> Result<CommitReceipt, CommitError> {
        self.commit_inner(txn, false)
    }

    /// [`CommitQueue::commit`] for a transaction whose incremental
    /// integrity check was **satisfied and complete** (its
    /// potential-update closure not truncated) on its pinned snapshot,
    /// with every access pattern of that check recorded in the
    /// transaction's read footprint. Admission then proves the verdict still holds
    /// against the head state (no admitted writer touched what the
    /// check read), which is the induction step the consistency latch
    /// rides on: if the head was verified consistent, so is the
    /// post-commit state (see [`Database::preserving_consistency`]).
    pub fn commit_checked(&self, txn: &TxnBuilder) -> Result<CommitReceipt, CommitError> {
        self.commit_inner(txn, true)
    }

    fn commit_inner(&self, txn: &TxnBuilder, checked: bool) -> Result<CommitReceipt, CommitError> {
        let mut state = self.state.lock();
        {
            let _admit = self.obs.span("commit.admit");
            if txn.reads.has_unbounded() {
                self.metrics.whole_relation_fallbacks.incr();
            }
            if let Err(e) = Self::freshness_in(&state, txn) {
                if let CommitError::Conflict { granularity, .. } = &e {
                    match granularity {
                        ConflictGranularity::Relation => self.metrics.relation_conflicts.incr(),
                        ConflictGranularity::Key => self.metrics.key_conflicts.incr(),
                    }
                }
                return Err(e);
            }
        }

        let effective = {
            // One batch: an arity error leaves the store untouched and
            // admits nothing.
            let _apply = self.obs.span("commit.apply");
            let was = state.db.verified_consistent();
            let apply = |db: &mut Database| db.apply_all(&txn.updates);
            let effective = if checked {
                state.db.preserving_consistency(apply)
            } else {
                apply(&mut state.db)
            }?;
            self.metrics.admitted.incr();
            if !effective.is_empty() {
                self.metrics
                    .latch_moved(was, state.db.verified_consistent());
                self.metrics.maintained.incr();
            }
            effective
        };

        let version = state.db.version();
        if !effective.is_empty() {
            let mut writes: BTreeMap<Sym, Vec<Box<[Sym]>>> = BTreeMap::new();
            for u in &effective {
                writes
                    .entry(u.fact.pred)
                    .or_default()
                    .push(u.fact.args.as_slice().into());
            }
            state.log.push_back(CommitRecord { version, writes });
            while state.log.len() > self.log_capacity {
                let dropped = state.log.pop_front().expect("len > capacity >= 1");
                state.horizon = dropped.version;
            }
        }
        Ok(CommitReceipt {
            version,
            fact_rev: state.db.fact_rev(),
            effective,
        })
    }

    /// Run a schema mutation (rule or constraint changes) under the
    /// queue lock. When `f` mutated the database (its version moved, or
    /// `f` swapped in another database) the conflict log is reset:
    /// every in-flight transaction began behind
    /// the new horizon and is refused with
    /// [`CommitError::SnapshotTooOld`], because a schema change
    /// invalidates any pinned check. The database's model moves with
    /// whatever `f` changes (see [`Database::apply_all`] and
    /// [`Database::set_rules`]); constraints never contribute to it.
    /// Fact updates belong in [`CommitQueue::commit`], not here.
    /// Whatever `f` mutates clears the consistency latch, unless `f`
    /// itself vouches for the step through
    /// [`Database::preserving_consistency`].
    pub fn update_schema<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut state = self.state.lock();
        let (before_id, before) = (state.db.db_id(), state.db.version());
        let was_consistent = state.db.verified_consistent();
        let out = f(&mut state.db);
        if state.db.db_id() != before_id || state.db.version() != before {
            self.metrics
                .latch_moved(was_consistent, state.db.verified_consistent());
            state.log.clear();
            state.horizon = state.db.version();
        }
        out
    }
}

impl fmt::Debug for CommitQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("CommitQueue")
            .field("version", &state.db.version())
            .field("log_len", &state.log.len())
            .field("horizon", &state.horizon)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn fact(p: &str, args: &[&str]) -> Fact {
        Fact::parse_like(p, args)
    }

    fn queue(src: &str) -> CommitQueue {
        CommitQueue::new(Database::parse(src).unwrap())
    }

    /// The queue's registry counter `name`.
    fn counter(q: &CommitQueue, name: &str) -> u64 {
        q.obs().report().counter(name).unwrap()
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let q = queue("seed_a(x). seed_b(y).");
        let mut t1 = q.begin();
        t1.insert(fact("a", &["1"]));
        let mut t2 = q.begin();
        t2.insert(fact("b", &["1"]));
        let r1 = q.commit(&t1).unwrap();
        let r2 = q.commit(&t2).unwrap();
        assert!(r1.changed() && r2.changed());
        assert!(r2.version > r1.version);
        assert!(q
            .with_db(|db| db.facts().contains(&fact("a", &["1"]))
                && db.facts().contains(&fact("b", &["1"]))));
    }

    #[test]
    fn write_write_conflict_first_committer_wins() {
        // Both transactions touch the *same tuple*: the second one's
        // staged read (Def. 1 membership) is invalidated by the first
        // one's write, at key granularity.
        let q = queue("");
        let mut t1 = q.begin();
        t1.insert(fact("acct", &["k", "v1"]));
        let mut t2 = q.begin();
        t2.delete(fact("acct", &["k", "v1"]));
        let r1 = q.commit(&t1).unwrap();
        let err = q.commit(&t2).unwrap_err();
        match err {
            CommitError::Conflict {
                relations,
                committed_version,
                granularity,
            } => {
                assert_eq!(relations, vec![Sym::new("acct")]);
                assert_eq!(committed_version, r1.version);
                assert_eq!(granularity, ConflictGranularity::Key);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(counter(&q, "txn.conflicts.key"), 1);
        // Loser retries against a fresh snapshot and succeeds.
        let mut t3 = q.begin();
        t3.delete(fact("acct", &["k", "v1"]));
        assert!(q.commit(&t3).unwrap().changed());
    }

    #[test]
    fn blind_appenders_to_disjoint_keys_of_one_relation_both_commit() {
        // Regression for the pre-fingerprint `stage()`: staging a write
        // used to widen the read set with the whole predicate, so two
        // blind appenders to the same hot relation always conflicted.
        // With key-level staged reads they are admitted concurrently.
        let q = queue("");
        let mut t1 = q.begin();
        t1.insert(fact("events", &["k1", "v1"]));
        let mut t2 = q.begin();
        t2.insert(fact("events", &["k2", "v2"]));
        let r1 = q.commit(&t1).unwrap();
        let r2 = q.commit(&t2).expect("disjoint keys must not conflict");
        assert!(r1.changed() && r2.changed());
        assert!(r2.version > r1.version);
        assert_eq!(counter(&q, "txn.commits.admitted"), 2);
        assert_eq!(counter(&q, "txn.conflicts.key"), 0);
        assert_eq!(counter(&q, "txn.conflicts.relation"), 0);
        assert_eq!(
            counter(&q, "txn.conflicts.whole_relation_fallbacks"),
            0,
            "blind appends must not fall back to relation granularity"
        );
        assert!(
            q.with_db(|db| db.facts().contains(&fact("events", &["k1", "v1"]))
                && db.facts().contains(&fact("events", &["k2", "v2"])))
        );
    }

    #[test]
    fn unbounded_read_still_conflicts_with_any_write() {
        // A whole-relation read (no binding information) keeps the old
        // relation-granularity behavior — the sound fallback.
        let q = queue("");
        let mut t1 = q.begin();
        t1.insert(fact("log", &["e1"]));
        t1.record_reads([Sym::new("events")]);
        let mut t2 = q.begin();
        t2.insert(fact("events", &["k9", "v9"]));
        q.commit(&t2).unwrap();
        let err = q.commit(&t1).unwrap_err();
        assert!(
            matches!(
                err,
                CommitError::Conflict {
                    granularity: ConflictGranularity::Relation,
                    ..
                }
            ),
            "{err:?}"
        );
        assert_eq!(counter(&q, "txn.conflicts.relation"), 1);
        assert_eq!(counter(&q, "txn.conflicts.whole_relation_fallbacks"), 1);
    }

    #[test]
    fn read_write_conflict_detected() {
        let q = queue("watched(a).");
        // t1 only *reads* `watched` (its check depended on it) and
        // writes `log`.
        let mut t1 = q.begin();
        t1.insert(fact("log", &["e1"]));
        t1.record_reads([Sym::new("watched")]);
        // t2 deletes from `watched` and commits first.
        let mut t2 = q.begin();
        t2.delete(fact("watched", &["a"]));
        q.commit(&t2).unwrap();
        let err = q.commit(&t1).unwrap_err();
        assert!(
            matches!(err, CommitError::Conflict { ref relations, .. }
                if relations == &vec![Sym::new("watched")]),
            "{err:?}"
        );
    }

    #[test]
    fn blind_disjoint_writes_after_other_commits_admit() {
        let q = queue("");
        let t_old = {
            let mut t = q.begin();
            t.insert(fact("mine", &["1"]));
            t
        };
        // Ten other commits to unrelated relations in between.
        for i in 0..10 {
            let mut t = q.begin();
            t.insert(fact("theirs", &[&format!("{i}")]));
            q.commit(&t).unwrap();
        }
        assert!(q.commit(&t_old).is_ok(), "disjoint writers never block");
    }

    #[test]
    fn noop_commit_is_admitted_and_changes_nothing() {
        let q = queue("p(a).");
        let mut t = q.begin();
        t.insert(fact("p", &["a"]));
        let v0 = q.version();
        let r = q.commit(&t).unwrap();
        assert!(!r.changed());
        assert_eq!(q.version(), v0, "Def. 1 no-op: no version bump");
    }

    #[test]
    fn snapshot_too_old_when_log_pruned() {
        let q = CommitQueue::with_log_capacity(Database::new(), 2);
        let stale = q.begin();
        for i in 0..5 {
            let mut t = q.begin();
            t.insert(fact("x", &[&format!("{i}")]));
            q.commit(&t).unwrap();
        }
        // `stale` doesn't even touch `x`, but the log no longer reaches
        // back to its begin version, so admission must refuse.
        let mut stale = stale;
        stale.insert(fact("y", &["1"]));
        let err = q.commit(&stale).unwrap_err();
        assert!(matches!(err, CommitError::SnapshotTooOld { .. }), "{err:?}");
    }

    #[test]
    fn arity_misuse_is_typed_and_atomic() {
        let q = queue("p(a).");
        let mut t = q.begin();
        t.insert(fact("q", &["1"]));
        t.insert(fact("p", &["a", "b"])); // wrong arity
        let err = q.commit(&t).unwrap_err();
        assert!(matches!(
            err,
            CommitError::Apply(ApplyError::ArityMismatch { .. })
        ));
        assert!(
            !q.with_db(|db| db.facts().contains(&fact("q", &["1"]))),
            "nothing from the failed transaction may be applied"
        );
        // And the builder-side validation catches it before submission.
        assert!(t.validate_arities().is_err());
        assert_eq!(
            counter(&q, "txn.commits.admitted"),
            0,
            "a refused commit is not admitted"
        );
    }

    #[test]
    fn intra_transaction_arity_mismatch_refused_up_front() {
        // A fresh predicate's arity is fixed by the transaction's own
        // first update; a later mismatch must be refused atomically,
        // never half-applied.
        let q = queue("");
        let mut t = q.begin();
        t.insert(fact("fresh", &["a", "b"]));
        t.insert(fact("fresh", &["c"]));
        assert!(t.validate_arities().is_err());
        let err = q.commit(&t).unwrap_err();
        assert!(matches!(
            err,
            CommitError::Apply(ApplyError::ArityMismatch { .. })
        ));
        assert_eq!(q.with_db(|db| db.facts().len()), 0, "nothing applied");
        assert_eq!(
            counter(&q, "txn.commits.admitted"),
            0,
            "a refused commit is not admitted"
        );
    }

    #[test]
    fn noop_commits_do_not_conflict_anyone() {
        let q = queue("s(a).");
        let t0 = {
            let mut t = q.begin();
            t.insert(fact("log", &["e"]));
            t.record_reads([Sym::new("s")]);
            t
        };
        // An effective write to r, then a Def. 1 no-op "write" to s.
        let mut c1 = q.begin();
        c1.insert(fact("r", &["1"]));
        q.commit(&c1).unwrap();
        let mut c2 = q.begin();
        c2.insert(fact("s", &["a"]));
        q.commit(&c2).unwrap();
        // t0 reads s, and s is bit-identical to its snapshot: admitted.
        q.commit(&t0).expect("no-op writes must not win conflicts");
    }

    #[test]
    fn staged_updates_see_snapshot_net_effect() {
        let q = queue("p(a).");
        let mut t = q.begin();
        t.insert(fact("p", &["a"])); // no-op vs snapshot
        t.insert(fact("p", &["b"]));
        t.delete(fact("p", &["b"])); // cancels
        t.delete(fact("p", &["a"]));
        let (added, removed) = t.net_effect();
        assert!(added.is_empty());
        assert_eq!(removed, vec![fact("p", &["a"])]);
        assert_eq!(t.write_set().len(), 1);
        assert!(t.read_set().contains(&Sym::new("p")));
    }

    fn sorted_model(snapshot: &Snapshot) -> Vec<String> {
        let mut out: Vec<String> = snapshot.model().iter().map(|f| f.to_string()).collect();
        out.sort();
        out
    }

    fn sorted_fresh(snapshot: &Snapshot) -> Vec<String> {
        let fresh = Model::compute(snapshot.facts(), snapshot.rules());
        let mut out: Vec<String> = fresh.iter().map(|f| f.to_string()).collect();
        out.sort();
        out
    }

    #[test]
    fn commits_maintain_the_model_incrementally() {
        let q = queue("b(X) :- a(X). a(seed).");
        let mut t = q.begin();
        t.insert(fact("a", &["x"]));
        q.commit(&t).unwrap();
        let snap = q.snapshot();
        assert!(snap.holds(&fact("b", &["x"])), "induced fact maintained");
        assert_eq!(sorted_model(&snap), sorted_fresh(&snap));
        // Deletions flip back through the same path.
        let mut t = q.begin();
        t.delete(fact("a", &["x"]));
        q.commit(&t).unwrap();
        let snap = q.snapshot();
        assert!(!snap.holds(&fact("b", &["x"])));
        assert_eq!(sorted_model(&snap), sorted_fresh(&snap));
        assert_eq!(counter(&q, "maintain.commits.maintained"), 2);
    }

    /// The model's relation for a predicate no rule defines *is* the
    /// database's: it shares every page and iterates in the order a
    /// recomputation gives, also after a revival, which reuses the slot
    /// a cancelled insertion tombstoned where a separate copy appends.
    #[test]
    fn the_models_base_relations_are_the_databases() {
        let q = queue("b(X) :- a(X).");
        let commit = |updates: &[Update]| {
            let mut t = q.begin();
            for u in updates {
                t.stage(u.clone());
            }
            assert!(q.commit(&t).unwrap().changed());
        };
        let a = |arg: &str| fact("a", &[arg]);
        commit(&[Update::insert(a("z")), Update::delete(a("z"))]);
        commit(&[Update::insert(a("w"))]);
        commit(&[Update::insert(a("z"))]);

        let snap = q.snapshot();
        let pred = Sym::new("a");
        let relation = |facts: &crate::store::FactSet| facts.relation(pred).unwrap().clone();
        let (model, edb) = (relation(snap.model().facts()), relation(snap.facts()));
        assert_eq!(model.shared_pages_with(&edb), edb.page_shape().len());
        let order = |rel: &crate::store::Relation| -> Vec<String> {
            rel.iter().map(|t| t[0].as_str().to_string()).collect()
        };
        let fresh = Model::compute(snap.facts(), snap.rules());
        assert_eq!(order(&model), order(&relation(fresh.facts())));
        assert_eq!(order(&model), ["z", "w"]);
    }

    #[test]
    fn noop_commits_maintain_nothing() {
        let q = queue("p(a).");
        let mut t = q.begin();
        t.insert(fact("p", &["b"]));
        assert!(q.commit(&t).unwrap().changed());
        let model = q.snapshot().model_arc();
        let mut noop = q.begin();
        noop.insert(fact("p", &["b"]));
        let r = q.commit(&noop).unwrap();
        assert!(!r.changed());
        assert!(Arc::ptr_eq(&model, &q.snapshot().model_arc()));
        assert_eq!(
            counter(&q, "maintain.commits.maintained"),
            1,
            "no-ops maintain nothing"
        );
    }

    #[test]
    fn rule_changes_advance_the_model_and_fence_inflight_txns() {
        let q = queue("b(X) :- a(X). a(seed).");
        let mut warm = q.begin();
        warm.insert(fact("a", &["x"]));
        q.commit(&warm).unwrap();

        // A transaction in flight across the schema change.
        let mut inflight = q.begin();
        inflight.insert(fact("a", &["y"]));

        let computes = Model::computes_on_this_thread();
        q.update_schema(|db| {
            let mut rules: Vec<uniform_logic::Rule> = db.rules().rules().to_vec();
            rules.push(uniform_logic::parse_rule("c(X) :- b(X).").unwrap());
            db.set_rules(crate::program::RuleSet::new(rules).unwrap());
        });
        // The pinned check predates the schema: refused, retriably.
        let err = q.commit(&inflight).unwrap_err();
        assert!(matches!(err, CommitError::SnapshotTooOld { .. }), "{err:?}");
        // The advanced model reflects the new rule…
        let snap = q.snapshot();
        assert_eq!(Model::computes_on_this_thread(), computes);
        assert!(snap.holds(&fact("c", &["x"])));
        assert_eq!(sorted_model(&snap), sorted_fresh(&snap));
        // …and commits keep maintaining it.
        let mut t = q.begin();
        t.insert(fact("a", &["y"]));
        q.commit(&t).unwrap();
        let snap = q.snapshot();
        assert!(snap.holds(&fact("c", &["y"])));
        assert_eq!(sorted_model(&snap), sorted_fresh(&snap));
    }

    #[test]
    fn constraint_only_schema_update_keeps_the_maintained_model() {
        let q = queue("b(X) :- a(X). a(seed).");
        let mut warm = q.begin();
        warm.insert(fact("a", &["x"]));
        q.commit(&warm).unwrap();
        let model = q.snapshot().model_arc();

        // In-flight across the constraint change: still fenced (its
        // pinned integrity verdict predates the new constraint set).
        let mut inflight = q.begin();
        inflight.insert(fact("a", &["y"]));

        q.update_schema(|db| {
            db.add_constraint(uniform_logic::Constraint::new(
                "fresh",
                uniform_logic::normalize(
                    &uniform_logic::parse_formula("forall X: never(X) -> false").unwrap(),
                )
                .unwrap(),
            ));
        });
        // The maintained model survived: constraints never affect it.
        assert!(Arc::ptr_eq(&model, &q.snapshot().model_arc()));
        let err = q.commit(&inflight).unwrap_err();
        assert!(matches!(err, CommitError::SnapshotTooOld { .. }), "{err:?}");
        // The next commit keeps maintaining the same model.
        let mut t = q.begin();
        t.insert(fact("a", &["y"]));
        q.commit(&t).unwrap();
        let snap = q.snapshot();
        assert!(snap.holds(&fact("b", &["y"])));
        assert_eq!(sorted_model(&snap), sorted_fresh(&snap));
        assert_eq!(counter(&q, "maintain.commits.maintained"), 2);
    }

    #[test]
    fn readonly_schema_closure_resets_nothing() {
        let q = queue("p(a).");
        let mut t = q.begin();
        t.insert(fact("p", &["b"]));
        q.commit(&t).unwrap();
        let mut pinned = q.begin();
        pinned.insert(fact("p", &["c"]));
        let model = q.snapshot().model_arc();
        let n = q.update_schema(|db| db.facts().len());
        assert_eq!(n, 2);
        assert!(Arc::ptr_eq(&model, &q.snapshot().model_arc()));
        assert!(q.commit(&pinned).unwrap().changed(), "nothing was fenced");
    }

    #[test]
    fn checked_commits_carry_the_latch_unchecked_ones_clear_it() {
        let q = queue("p(a). q(a). constraint c: forall X: p(X) -> q(X).");
        let commit = |checked: bool, pred: &str, arg: &str| {
            let mut t = q.begin();
            t.insert(fact(pred, &[arg]));
            if checked {
                q.commit_checked(&t).unwrap()
            } else {
                q.commit(&t).unwrap()
            }
        };
        // Unverified head: a vouched step proves the step, not the base.
        commit(true, "q", "b");
        assert!(!q.snapshot().verified_consistent());
        // Somebody looks; from here checked commits carry the bit…
        assert!(q.snapshot().is_consistent());
        commit(true, "q", "c");
        assert!(q.snapshot().verified_consistent());
        // …a Def. 1 no-op leaves it alone whoever submits it…
        assert!(!commit(false, "q", "c").changed());
        assert!(q.snapshot().verified_consistent());
        // …an unchecked effective commit drops it (rightly: c is violated)…
        let pinned = q.snapshot();
        commit(false, "p", "z");
        assert!(!q.snapshot().verified_consistent());
        assert!(
            pinned.verified_consistent(),
            "the pinned state is still what it was"
        );
        // …and so does anything a schema closure mutates, unless the
        // closure vouches for it.
        q.update_schema(|db| db.apply(&Update::insert(fact("q", &["z"]))).unwrap());
        assert!(q.snapshot().is_consistent());
        q.update_schema(|db| db.preserving_consistency(|db| db.set_constraints(Vec::new())));
        assert!(q.snapshot().verified_consistent());
        q.update_schema(|db| db.set_rules(crate::program::RuleSet::empty()));
        assert!(!q.snapshot().verified_consistent());
        let count = |name: &str| q.obs().report().counter(name).unwrap();
        assert_eq!(count("consistency.preserved"), 2);
        assert_eq!(count("consistency.cleared"), 2);
    }

    /// Versions of two databases cannot be compared: a transaction
    /// pinned on a database that `update_schema` swapped out for another
    /// at the same version is refused, and its checked verdict does not
    /// carry the other database's latch.
    #[test]
    fn a_swap_at_an_equal_version_fences_inflight_txns() {
        let src = |c: &str| format!("p({c}). q({c}). constraint c: forall X: p(X) -> q(X).");
        let q = queue(&src("a"));
        let mut pinned = q.begin();
        pinned.insert(fact("p", &["b"]));
        let other = Database::parse(&src("c")).unwrap();
        assert_eq!(other.version(), q.version());
        assert!(other.snapshot().is_consistent());
        q.update_schema(|db| *db = other);
        let err = q.commit_checked(&pinned).unwrap_err();
        assert!(matches!(err, CommitError::SnapshotTooOld { .. }), "{err:?}");
        let head = q.snapshot();
        assert!(!head.holds(&fact("p", &["b"])));
        assert!(head.verified_consistent());
    }

    /// A swap to a database at a lower version lowers the horizon, yet a
    /// transaction pinned on the swapped-out database stays refused.
    #[test]
    fn a_swap_to_a_lower_version_fences_inflight_txns() {
        let q = queue("p(a).");
        for arg in ["b", "c"] {
            let mut t = q.begin();
            t.insert(fact("p", &[arg]));
            q.commit(&t).unwrap();
        }
        let mut pinned = q.begin();
        pinned.insert(fact("p", &["z"]));
        let other = Database::parse("p(a).").unwrap();
        assert!(other.version() < q.version());
        q.update_schema(|db| *db = other);
        let err = q.commit(&pinned).unwrap_err();
        assert!(matches!(err, CommitError::SnapshotTooOld { .. }), "{err:?}");
        assert!(!q.snapshot().holds(&fact("p", &["z"])));
        assert_eq!(counter(&q, "txn.commits.admitted"), 2);
    }

    #[test]
    fn concurrent_commits_from_threads_serialize() {
        let q = std::sync::Arc::new(queue(""));
        std::thread::scope(|scope| {
            for w in 0..4 {
                let q = q.clone();
                scope.spawn(move || {
                    for i in 0..25 {
                        // Each writer owns its relation: no conflicts.
                        let mut t = q.begin();
                        t.insert(fact(&format!("rel{w}"), &[&format!("v{i}")]));
                        q.commit(&t).unwrap();
                    }
                });
            }
        });
        assert_eq!(q.with_db(|db| db.facts().len()), 100);
    }
}
