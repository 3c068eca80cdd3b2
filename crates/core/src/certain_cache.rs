//! The database-level certain-answer cache.
//!
//! A `Certain` read of an inconsistent state intersects its answers
//! over the state's minimal repairs, and enumerating those repairs is
//! the expensive part. This cache, owned by the database handle
//! (alongside the `CommitQueue` in the shared state behind
//! [`crate::ConcurrentDatabase`]), holds repair lists and
//! certain-answer row sets keyed by the exact state they were computed
//! against — `(db_id, fact_rev, rule_rev, constraint_rev)` — plus, for
//! row sets, the query fingerprint. Every session pinned to that state,
//! present or future, shares the entries; it is the one memo of a
//! state's repairs.
//!
//! Entries live in a small ring of per-state **generations** (LRU over
//! `GENERATION_SLOTS` state keys). Between two head moves, sessions
//! pinned to older states and the head-state readers each populate
//! their own slot instead of evicting each other every pass; a head
//! move drops them all but the head's (below), so a session pinned
//! behind the head re-enumerates its repairs after every commit.
//!
//! Every commit and schema change that moves the head calls
//! `CertainCache::advance` with the new head's key, which drops every
//! generation but the head's own. Entries are never re-keyed, so a hit
//! always means an exact state match. The hook runs outside the queue
//! lock, so two hooks can race; a generation one of them drops is a
//! re-enumeration on the next read, never a stale answer.

use crate::query::Rows;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use uniform_datalog::{Database, Snapshot};
use uniform_obs::{Counter, Obs};
use uniform_repair::RepairSet;

/// Row-set entries kept per generation (bounded LRU; repair lists are
/// one per state by construction).
const MAX_ROW_ENTRIES: usize = 256;

/// Distinct states cached at once (LRU over generations). One slot
/// would thrash: a session pinned to an older state alternating with
/// head-state readers would evict the hot entries every pass. Two
/// slots break that cycle until the head next moves, when
/// `CertainCache::advance` drops every slot but the head's; a couple
/// more absorb several pinned readers cheaply.
const GENERATION_SLOTS: usize = 4;

/// The exact state a cache entry was computed against. `db_id` keeps
/// two databases that agree on every revision apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StateKey {
    pub db_id: u64,
    pub fact_rev: u64,
    pub rule_rev: u64,
    pub constraint_rev: u64,
}

impl StateKey {
    pub fn of(snapshot: &Snapshot) -> StateKey {
        StateKey {
            db_id: snapshot.db_id(),
            fact_rev: snapshot.fact_rev(),
            rule_rev: snapshot.rule_rev(),
            constraint_rev: snapshot.constraint_rev(),
        }
    }

    pub fn of_db(db: &Database) -> StateKey {
        StateKey {
            db_id: db.db_id(),
            fact_rev: db.fact_rev(),
            rule_rev: db.rule_rev(),
            constraint_rev: db.constraint_rev(),
        }
    }
}

/// One cached certain-answer row set.
struct RowsEntry {
    rows: Rows,
    used: u64,
}

/// All entries of one state: its repair list and its certain-answer
/// row sets.
struct Generation {
    key: StateKey,
    repairs: Option<Arc<Vec<RepairSet>>>,
    rows: HashMap<String, RowsEntry>,
    /// LRU stamp of the generation itself (bumped on every hit and
    /// install against it).
    used: u64,
}

#[derive(Default)]
struct Inner {
    /// At most [`GENERATION_SLOTS`] generations, one per state, evicted
    /// least-recently-used.
    gens: Vec<Generation>,
    /// LRU clock, shared by generations and their row entries.
    clock: u64,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The generation of `key`, if cached, with its LRU stamp bumped.
    fn find(&mut self, key: &StateKey) -> Option<&mut Generation> {
        let i = self.gens.iter().position(|g| g.key == *key)?;
        let stamp = self.tick();
        let gen = &mut self.gens[i];
        gen.used = stamp;
        Some(gen)
    }

    /// The generation to install `key`'s entries into, creating it (and
    /// evicting the least-recently-used generation at capacity) when
    /// the state is not yet cached.
    fn adopt(&mut self, key: StateKey) -> &mut Generation {
        if self.gens.iter().all(|g| g.key != key) {
            if self.gens.len() >= GENERATION_SLOTS {
                if let Some(lru) = self
                    .gens
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, g)| g.used)
                    .map(|(i, _)| i)
                {
                    self.gens.swap_remove(lru);
                }
            }
            self.gens.push(Generation {
                key,
                repairs: None,
                rows: HashMap::new(),
                used: 0,
            });
        }
        self.find(&key).expect("adopted above")
    }
}

/// See the module docs. Owned by the shared state behind
/// [`crate::ConcurrentDatabase`]; sessions reach it through their
/// database handle.
pub(crate) struct CertainCache {
    inner: Mutex<Inner>,
    /// Registry-backed counters (`cache.certain.*`), bumped while
    /// `inner` is held.
    hits: Counter,
    misses: Counter,
    repair_hits: Counter,
    repair_misses: Counter,
    invalidated: Counter,
}

impl CertainCache {
    pub fn new(obs: &Obs) -> CertainCache {
        CertainCache {
            inner: Mutex::new(Inner::default()),
            hits: obs.counter("cache.certain.hits"),
            misses: obs.counter("cache.certain.misses"),
            repair_hits: obs.counter("cache.certain.repair_hits"),
            repair_misses: obs.counter("cache.certain.repair_misses"),
            invalidated: obs.counter("cache.certain.invalidated"),
        }
    }

    /// The cached repair list for `key`, if the cache holds that exact
    /// state. Counts a repair hit; the caller counts the miss when it
    /// falls through to the engine (see
    /// [`CertainCache::install_repairs`]).
    pub fn lookup_repairs(&self, key: &StateKey) -> Option<Arc<Vec<RepairSet>>> {
        let mut inner = self.inner.lock();
        let repairs = inner.find(key)?.repairs.clone()?;
        self.repair_hits.incr();
        Some(repairs)
    }

    /// Install a freshly enumerated repair list for `key`, counting the
    /// repair miss that led here. Lands in `key`'s own generation, so a
    /// session pinned behind the head never displaces the entries live
    /// readers are hitting.
    pub fn install_repairs(&self, key: StateKey, repairs: Arc<Vec<RepairSet>>) {
        let mut inner = self.inner.lock();
        // Counted under the lock (not before taking it) so the miss and
        // the install land in the same snapshot window.
        self.repair_misses.incr();
        inner.adopt(key).repairs = Some(repairs);
    }

    /// The cached certain-answer row set for `(key, fingerprint)`.
    pub fn lookup_rows(&self, key: &StateKey, fingerprint: &str) -> Option<Rows> {
        let mut inner = self.inner.lock();
        let rows = inner.find(key).and_then(|gen| {
            let used = gen.used;
            let entry = gen.rows.get_mut(fingerprint)?;
            entry.used = used;
            Some(entry.rows.clone())
        });
        match rows {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        rows
    }

    /// Install a certain-answer row set. Bounded: past
    /// [`MAX_ROW_ENTRIES`] the least-recently-used entry is evicted.
    pub fn install_rows(&self, key: StateKey, fingerprint: String, rows: Rows) {
        let mut inner = self.inner.lock();
        let gen = inner.adopt(key);
        let used = gen.used;
        gen.rows.insert(fingerprint, RowsEntry { rows, used });
        if gen.rows.len() > MAX_ROW_ENTRIES {
            if let Some(lru) = gen
                .rows
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone())
            {
                gen.rows.remove(&lru);
            }
        }
    }

    /// The head moved to `head` (an admitted commit or a schema
    /// change): drop every generation of another state. Counts one
    /// invalidation when anything was dropped.
    pub fn advance(&self, head: StateKey) {
        let mut inner = self.inner.lock();
        let before = inner.gens.len();
        inner.gens.retain(|g| g.key == head);
        if inner.gens.len() < before {
            self.invalidated.incr();
        }
    }

    /// Certain-answer row sets currently cached (the
    /// `cache.certain.entries` gauge).
    pub fn len(&self) -> usize {
        self.inner.lock().gens.iter().map(|g| g.rows.len()).sum()
    }
}
