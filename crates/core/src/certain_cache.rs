//! The database-level, commit-invalidated certain-answer cache.
//!
//! PR 5 left "shared commit-invalidated certain-answer cache" as a
//! follow-up: every [`crate::Session`] enumerated the minimal repairs
//! of its pinned snapshot from scratch, so a read-heavy stream of
//! `Certain` queries over a slowly-moving (or violation-stable)
//! database re-ran the bounded enforcement search per session. This
//! module promotes that per-session cache to one owned by the
//! database handle (alongside the `CommitQueue` in the shared state
//! behind [`crate::ConcurrentDatabase`]): repair lists and certain-answer row
//! sets keyed by the exact semantic state they were computed against —
//! `(db_id, fact_rev, rule_rev, constraint_rev)` — plus, for row sets,
//! the query fingerprint. Every session pinned to that state, present
//! or future, shares the entries.
//!
//! **Invalidation is delta-driven, not wholesale.** Each admitted
//! commit intersects its effective write footprint with the *verdict
//! closure* of the cached repair list
//! ([`uniform_repair::RepairEngine::report_closure`]): the relations
//! the violation set — and hence the minimal repairs — can depend on,
//! recorded as whole-relation reads in the PR 6
//! [`ReadFootprint`] machinery. A commit writing only outside that
//! closure *carries the entries forward* to the post-commit revisions
//! instead of dropping them (the paper's delta-driven stance applied
//! to CQA: an update irrelevant to every constraint cannot change any
//! repair). Row sets carry an additional closure — the query's own
//! reachable relations — checked the same way. Schema updates and
//! `AutoRepair` commits invalidate wholesale: their effect is the
//! widened constraint closure, which the cached verdicts always
//! intersect.
//!
//! Entries live in a small ring of per-state **generations** (LRU over
//! `GENERATION_SLOTS` state keys): a long-pinned old session and the
//! head-state readers each populate their own slot instead of evicting
//! each other every pass — the PR 7 follow-up single-state thrash.
//!
//! Advance ordering is version-fenced rather than lock-coupled: the
//! post-commit hook runs outside the queue lock, so two hooks can
//! race. A generation valid at version `v` only carries forward under
//! a receipt for version `v + 1` (same database, same schema
//! revisions); any other receipt drops that generation. Losing a
//! carry-forward opportunity to that fence is a cache miss, never an
//! unsound hit — hits still require an exact state-key match.

use crate::query::Rows;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use uniform_datalog::{ReadFootprint, Snapshot, Update};
use uniform_logic::Sym;
use uniform_obs::{Counter, Obs};
use uniform_repair::RepairSet;

/// Row-set entries kept per generation (bounded LRU; repair lists are
/// one per state by construction).
const MAX_ROW_ENTRIES: usize = 256;

/// Distinct semantic states cached at once (LRU over generations). One
/// slot per state reintroduces the PR 7 follow-up thrash: a long-pinned
/// old session alternating with head-state readers would evict the hot
/// entries every pass. Two slots break that cycle; a couple more absorb
/// several pinned readers cheaply.
const GENERATION_SLOTS: usize = 4;

/// The exact semantic state a cache entry was computed against.
/// `fact_rev`/`rule_rev`/`constraint_rev` pin the answers; `version`
/// fences the advance ordering (see the module docs); `db_id` keeps
/// two databases that agree on every counter apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StateKey {
    pub db_id: u64,
    pub version: u64,
    pub fact_rev: u64,
    pub rule_rev: u64,
    pub constraint_rev: u64,
}

impl StateKey {
    pub fn of(snapshot: &Snapshot) -> StateKey {
        StateKey {
            db_id: snapshot.db_id(),
            version: snapshot.version(),
            fact_rev: snapshot.fact_rev(),
            rule_rev: snapshot.rule_rev(),
            constraint_rev: snapshot.constraint_rev(),
        }
    }

    /// Do `self`'s entries semantically apply to `other`? Everything
    /// but `version` must match — `version` also counts no-op schema
    /// bumps, which cannot change answers.
    fn serves(&self, other: &StateKey) -> bool {
        self.db_id == other.db_id
            && self.fact_rev == other.fact_rev
            && self.rule_rev == other.rule_rev
            && self.constraint_rev == other.constraint_rev
    }
}

/// The cached repair list of one state, with the closure that guards
/// its carry-forward.
struct RepairsEntry {
    repairs: Arc<Vec<RepairSet>>,
    closure: ReadFootprint,
}

/// One cached certain-answer row set.
struct RowsEntry {
    rows: Rows,
    closure: ReadFootprint,
    used: u64,
}

/// All entries of one semantic state: its repair list and its
/// certain-answer row sets.
struct Generation {
    key: StateKey,
    repairs: Option<RepairsEntry>,
    rows: HashMap<String, RowsEntry>,
    /// LRU stamp of the generation itself (bumped on every hit and
    /// install against it).
    used: u64,
}

impl Generation {
    fn is_empty(&self) -> bool {
        self.repairs.is_none() && self.rows.is_empty()
    }
}

#[derive(Default)]
struct Inner {
    /// At most [`GENERATION_SLOTS`] generations, one per semantic
    /// state, evicted least-recently-used. A session pinned behind the
    /// head populates its own generation instead of displacing the
    /// entries live readers are hitting — and vice versa.
    gens: Vec<Generation>,
    /// LRU clock, shared by generations and their row entries.
    clock: u64,
}

impl Inner {
    fn is_empty(&self) -> bool {
        self.gens.iter().all(Generation::is_empty)
    }

    fn clear(&mut self) {
        self.gens.clear();
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The generation serving `key`, if cached.
    fn find(&self, key: &StateKey) -> Option<usize> {
        self.gens.iter().position(|g| g.key.serves(key))
    }

    /// The generation to install `key`'s entries into, creating it (and
    /// evicting the least-recently-used generation at capacity) when
    /// the state is not yet cached.
    fn adopt(&mut self, key: StateKey) -> &mut Generation {
        let idx = match self.find(&key) {
            Some(i) => i,
            None => {
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
                self.gens.len() - 1
            }
        };
        let stamp = self.tick();
        let gen = &mut self.gens[idx];
        gen.used = stamp;
        gen
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
    carried_forward: Counter,
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
            carried_forward: obs.counter("cache.certain.carried_forward"),
            invalidated: obs.counter("cache.certain.invalidated"),
        }
    }

    /// The cached repair list for `key`, if the cache holds that exact
    /// semantic state. Counts a repair hit; the caller counts the miss
    /// when it falls through to the engine (see
    /// [`CertainCache::install_repairs`]).
    pub fn lookup_repairs(&self, key: &StateKey) -> Option<Arc<Vec<RepairSet>>> {
        let mut inner = self.inner.lock();
        let i = inner.find(key)?;
        let stamp = inner.tick();
        let gen = &mut inner.gens[i];
        gen.used = stamp;
        let repairs = gen.repairs.as_ref()?.repairs.clone();
        self.repair_hits.incr();
        Some(repairs)
    }

    /// Install a freshly enumerated repair list for `key`, guarded by
    /// its verdict closure (relations, recorded whole — the repair
    /// search surveys them without any key to pin). Counts the repair
    /// miss that led here. Lands in `key`'s own generation, so a
    /// session pinned behind the head never displaces the entries live
    /// readers are hitting.
    pub fn install_repairs(&self, key: StateKey, repairs: Arc<Vec<RepairSet>>, closure: &[Sym]) {
        let mut fp = ReadFootprint::default();
        for &pred in closure {
            fp.record_whole(pred);
        }
        let mut inner = self.inner.lock();
        // Counted under the lock (not before taking it) so the miss and
        // the install land in the same snapshot window.
        self.repair_misses.incr();
        inner.adopt(key).repairs = Some(RepairsEntry {
            repairs,
            closure: fp,
        });
    }

    /// The cached certain-answer row set for `(key, fingerprint)`.
    pub fn lookup_rows(&self, key: &StateKey, fingerprint: &str) -> Option<Rows> {
        let mut inner = self.inner.lock();
        let Some(i) = inner.find(key) else {
            self.misses.incr();
            return None;
        };
        let stamp = inner.tick();
        let gen = &mut inner.gens[i];
        gen.used = stamp;
        match gen.rows.get_mut(fingerprint) {
            Some(entry) => {
                entry.used = stamp;
                self.hits.incr();
                Some(entry.rows.clone())
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Install a certain-answer row set, guarded by the union of the
    /// query's reachable relations and the constraint closure (the
    /// rows depend on the repairs too). Bounded: past
    /// [`MAX_ROW_ENTRIES`] the least-recently-used entry is evicted.
    pub fn install_rows(&self, key: StateKey, fingerprint: String, rows: Rows, closure: &[Sym]) {
        let mut fp = ReadFootprint::default();
        for &pred in closure {
            fp.record_whole(pred);
        }
        let mut inner = self.inner.lock();
        let gen = inner.adopt(key);
        let used = gen.used;
        gen.rows.insert(
            fingerprint,
            RowsEntry {
                rows,
                closure: fp,
                used,
            },
        );
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

    /// The post-commit advance hook: re-key entries whose closures the
    /// commit's effective writes missed, drop the rest. `new_key` is
    /// the post-commit state; `effective` its Def. 1 effective updates.
    pub fn advance_commit(&self, new_key: StateKey, effective: &[Update]) {
        let mut inner = self.inner.lock();
        if inner.gens.is_empty() {
            return; // empty cache: nothing to advance or drop
        }
        let conflicts = |fp: &ReadFootprint| {
            effective
                .iter()
                .any(|u| fp.conflicts_with_write(u.fact.pred, &u.fact.args).is_some())
        };
        let mut dropped = false;
        let mut carried = false;
        let mut survivors: Vec<Generation> = Vec::new();
        for mut gen in std::mem::take(&mut inner.gens) {
            if gen.key.serves(&new_key) {
                // Def. 1 no-op commit relative to this generation: its
                // entries stay as they are.
                survivors.push(gen);
                continue;
            }
            // The version fence: only the immediate predecessor of the
            // committed state (same database, same schema revisions)
            // may carry entries forward. A generation the head has
            // moved past by more than one version — or of a foreign
            // database — drops; pinned sessions behind the head simply
            // repopulate their own slot on the next miss.
            let successor = gen.key.db_id == new_key.db_id
                && gen.key.version + 1 == new_key.version
                && gen.key.rule_rev == new_key.rule_rev
                && gen.key.constraint_rev == new_key.constraint_rev;
            if !successor {
                dropped |= !gen.is_empty();
                continue;
            }
            // The repair list guards everything: certain rows are
            // intersections over it, so once the repairs are stale,
            // every row set of the generation is too.
            if gen
                .repairs
                .as_ref()
                .is_some_and(|entry| conflicts(&entry.closure))
            {
                dropped = true;
                continue;
            }
            gen.rows.retain(|_, entry| !conflicts(&entry.closure));
            if gen.is_empty() {
                continue;
            }
            gen.key = new_key;
            carried = true;
            survivors.push(gen);
        }
        // A carried-forward predecessor can collide with a generation
        // already populated under the new state (the hook runs outside
        // the queue lock): merge rather than hold two slots on one key.
        let mut merged: Vec<Generation> = Vec::new();
        for gen in survivors {
            match merged.iter_mut().find(|m| m.key.serves(&gen.key)) {
                Some(m) => {
                    if m.repairs.is_none() {
                        m.repairs = gen.repairs;
                    }
                    for (fp, entry) in gen.rows {
                        m.rows.entry(fp).or_insert(entry);
                    }
                    m.used = m.used.max(gen.used);
                }
                None => merged.push(gen),
            }
        }
        inner.gens = merged;
        if dropped {
            self.invalidated.incr();
        }
        if carried {
            self.carried_forward.incr();
        }
    }

    /// Wholesale invalidation: schema updates and `AutoRepair` commits,
    /// whose effect is the widened constraint closure — which every
    /// cached verdict intersects by construction.
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock();
        if !inner.is_empty() {
            self.invalidated.incr();
        }
        inner.clear();
    }

    /// Certain-answer row sets currently cached (the
    /// `cache.certain.entries` gauge).
    pub fn len(&self) -> usize {
        self.inner.lock().gens.iter().map(|g| g.rows.len()).sum()
    }
}
