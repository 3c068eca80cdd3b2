//! The fact store: chunked copy-on-write relations with per-column
//! hash indexes.
//!
//! A [`Relation`] is a table of immutable-ish leaf *pages* of at most
//! [`PAGE_CAP`] slots each, every page behind its own [`Arc`]. Tuples
//! append to the tail page; deletion tombstones a slot in place
//! (re-insertion revives it, preserving its position and therefore
//! iteration order). A persistent `SlotMap` routes every tuple —
//! live or tombstoned — to its `(page, offset)` slot; it stores only
//! the tuple's hash and slot, and compares keys against the page. A
//! fully bound scan is one router lookup. A page of arity 2 or more
//! also carries per-column hash indexes, so a scan with some bound
//! position is a chain walk per page rather than a full pass — this is
//! what makes simplified-instance evaluation O(matching tuples) instead
//! of O(relation). An arity-1 page carries none: every bound scan of
//! its relation is fully bound.
//!
//! A page is flat: one `Vec<Sym>` of `arity × slots` tuple values, one
//! `Vec<bool>` of live flags, and (from arity 2) per column a map from
//! a value to the *chain* of slots holding it (first, last, length),
//! the chains linked in ascending offset order through one
//! `arity × slots` array of `u16` successors. Nothing in a page owns a
//! further allocation, so copying one costs at most `arity + 4`
//! allocations and memcpys of plain data, however many tuples and
//! distinct values it holds. Every map of the store hashes interned
//! symbols with [`SymState`], one multiply per symbol.
//!
//! The chunking exists for the commit pipeline's copy-on-write
//! economics: cloning a relation bumps one refcount per page (plus the
//! router root), and mutating a clone copies only the touched pages
//! and the router path to them — O(delta), not O(relation). A snapshot
//! holder therefore keeps a bit-identical view while a writer lands a
//! commit whose storage cost is proportional to the delta the paper's
//! method already computes, never to the relation it lands in.
//! [`FactSet::cow_stats`] counts the pages, tuples and approximate
//! bytes those clones copy (the benchmark reports them per commit).
//! The counters are scoped to a *relation family* — a
//! relation and every clone/snapshot descended from it share one
//! counter set — so concurrent tests in the same process
//! never bleed into each other's before/after deltas.
//!
//! Tombstone accounting is per page, replacing the old global
//! `stale_slots`/`compact` pass: the tail page compacts once more than
//! half of a non-trivial arena is dead (the [`COMPACT_FLOOR`] keeps
//! small relations from re-indexing on every delete), while sealed
//! (non-tail) pages — which never grow again — compact as soon as
//! tombstones dominate, whatever their size. Page compaction rebuilds
//! one page and re-routes only that page's tuples; live-tuple order is
//! preserved. An explicit [`Relation::compact`] still rebuilds the
//! whole relation, dropping empty pages.
//!
//! [`FactSet`] holds each relation behind an [`Arc`] with copy-on-write
//! mutation: cloning a fact set is O(#relations) regardless of how many
//! tuples it holds, which is what makes database snapshots cheap enough
//! to hand to every reader (see `database::Snapshot`). A writer mutating
//! a shared relation clones just that relation — and with chunked
//! relations, "cloning" copies page refcounts, not tuple data.

use crate::pagemap::{hash_tuple, SlotMap, SlotRef};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uniform_logic::{sort_by_name, Fact, Sym, SymState};

/// Maximum slots per leaf page.
pub const PAGE_CAP: usize = 1024;
/// Tail pages below this many slots never auto-compact.
pub const COMPACT_FLOOR: usize = 32;

/// Counters of copy-on-write page clones: how many shared pages
/// writers have had to copy before mutating, how many tuple slots
/// those pages held, and approximately how many bytes that copied.
/// Monotonic; read a delta around an operation to get its COW cost
/// (`tests/prop_chunked_store.rs` does this per commit).
///
/// `bytes_cloned` counts a copied page's flat arrays: per slot, its
/// tuple values, its live flag and, on a page with chains (arity 2 or
/// more), one chain link per column, i.e.
/// `slots × (arity × (size_of::<Sym>() + 2) + 1)` there and
/// `slots × (arity × size_of::<Sym>() + 1)` below. The per-column maps
/// from a value to its chain (one entry per distinct value) are copied
/// too but not counted, so the figure depends on the page's shape
/// alone, never on how many distinct values it happens to hold.
///
/// Counters are *scoped*, not process-global: each relation family (a
/// relation plus every clone and snapshot descended from it) shares
/// one counter set, read via [`Relation::cow_stats`] and aggregated
/// per database via [`FactSet::cow_stats`]. Two databases built
/// independently therefore never see each other's clone traffic, even
/// when their tests run concurrently in one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CowStats {
    pub pages_cloned: u64,
    pub tuples_cloned: u64,
    pub bytes_cloned: u64,
}

impl std::ops::Add for CowStats {
    type Output = CowStats;
    fn add(self, rhs: CowStats) -> CowStats {
        CowStats {
            pages_cloned: self.pages_cloned + rhs.pages_cloned,
            tuples_cloned: self.tuples_cloned + rhs.tuples_cloned,
            bytes_cloned: self.bytes_cloned + rhs.bytes_cloned,
        }
    }
}

/// One relation family's shared COW counters. The handle is cloned
/// (not reset) along with the relation, so a writer and the snapshots
/// it unshares pages from all account into the same scope.
#[derive(Debug, Default)]
struct CowCounters {
    pages: AtomicU64,
    tuples: AtomicU64,
    bytes: AtomicU64,
}

impl CowCounters {
    /// Relaxed loads: each counter is individually monotonic, but the
    /// three fields of one snapshot may straddle a concurrent clone (a
    /// writer bumps pages/tuples/bytes as three separate relaxed adds).
    /// Exact cross-field arithmetic requires external quiescence —
    /// which is how every test and the benchmark use it: measure while no
    /// writer is mid-clone. The `store.cow.*` gauges exported through
    /// `uniform-obs` are sampled from this same snapshot at report
    /// time and inherit the same semantics.
    fn snapshot(&self) -> CowStats {
        CowStats {
            pages_cloned: self.pages.load(Ordering::Relaxed),
            tuples_cloned: self.tuples.load(Ordering::Relaxed),
            bytes_cloned: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// End of a same-value chain: no slot has this offset.
const NIL: u16 = u16::MAX;
const _: () = assert!(PAGE_CAP < u16::MAX as usize);

/// The slots of one page holding one value in one column: a list
/// threaded through [`Page::next`] in ascending offset order. `len`
/// counts tombstoned slots too (they are filtered on read), so it is
/// the number of entries a bound scan walks.
#[derive(Clone, Copy, Debug)]
struct Chain {
    first: u16,
    last: u16,
    len: u16,
}

/// One leaf page, stored flat: slot `o` holds the tuple
/// `tuples[o * arity..(o + 1) * arity]` and the live flag `flags[o]`.
/// From arity 2, per column, `chains[col]` maps a value to the chain of
/// slots ever inserted with it, and `next[o * arity + col]` is the slot
/// after `o` on that chain ([`NIL`] at its end); below arity 2 both are
/// empty, since no scan of such a page has a bound column left to
/// chain-walk. Tombstoned slots keep their tuple and chain links so
/// revival preserves slot position and page compaction can fix the
/// router.
///
/// Every field is `Copy` data in a `Vec` or a map, so a page clone is
/// at most `arity + 4` allocations and memcpys, whatever the slot count.
#[derive(Clone, Debug)]
struct Page {
    arity: usize,
    tuples: Vec<Sym>,
    flags: Vec<bool>,
    next: Vec<u16>,
    live: u32,
    chains: Vec<HashMap<Sym, Chain, SymState>>,
}

impl Page {
    fn new(arity: usize) -> Page {
        let chained = if arity >= 2 { arity } else { 0 };
        Page {
            arity,
            tuples: Vec::new(),
            flags: Vec::new(),
            next: Vec::new(),
            live: 0,
            chains: (0..chained).map(|_| HashMap::default()).collect(),
        }
    }

    fn arity(&self) -> usize {
        self.arity
    }

    /// Slots in the arena, live or tombstoned.
    fn slots(&self) -> usize {
        self.flags.len()
    }

    fn tuple(&self, offset: usize) -> &[Sym] {
        let arity = self.arity();
        &self.tuples[offset * arity..(offset + 1) * arity]
    }

    /// Every slot in offset order, with its live flag.
    fn all_slots(&self) -> impl Iterator<Item = (&[Sym], bool)> {
        (0..self.slots()).map(|o| (self.tuple(o), self.flags[o]))
    }

    fn live_tuples(&self) -> impl Iterator<Item = &[Sym]> {
        (0..self.slots())
            .filter(|&o| self.flags[o])
            .map(|o| self.tuple(o))
    }

    /// Append a live tuple, linking it onto every column's chain (if
    /// the page keeps chains); returns its offset.
    fn push(&mut self, args: &[Sym]) -> u16 {
        let offset = self.slots() as u16;
        let arity = args.len();
        for (col, index) in self.chains.iter_mut().enumerate() {
            index
                .entry(args[col])
                .and_modify(|chain| {
                    self.next[chain.last as usize * arity + col] = offset;
                    chain.last = offset;
                    chain.len += 1;
                })
                .or_insert(Chain {
                    first: offset,
                    last: offset,
                    len: 1,
                });
        }
        self.tuples.extend_from_slice(args);
        self.next.resize(self.next.len() + self.chains.len(), NIL);
        self.flags.push(true);
        self.live += 1;
        offset
    }

    fn stale(&self) -> usize {
        self.slots() - self.live as usize
    }

    /// Bytes of the flat arrays a clone of this page copies (see
    /// [`CowStats`] for what is left out).
    fn approx_bytes(&self) -> u64 {
        let bytes = self.tuples.len() * size_of::<Sym>()
            + self.flags.len() * size_of::<bool>()
            + self.next.len() * size_of::<u16>();
        bytes as u64
    }
}

/// One stored relation (all facts of one predicate), chunked into
/// `Arc`-shared pages.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    /// The page table, in append order. Cloning the relation bumps one
    /// refcount per page; mutation copies only the touched page.
    pages: Vec<Arc<Page>>,
    /// Tuple → slot router, including tombstoned slots (for revival).
    /// Persistent: cloning is O(1), updates copy O(log n) trie nodes.
    slots: SlotMap,
    live: usize,
    /// COW counters shared by this relation's whole clone family.
    counters: Arc<CowCounters>,
}

impl Relation {
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            pages: Vec::new(),
            slots: SlotMap::default(),
            live: 0,
            counters: Arc::new(CowCounters::default()),
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// This relation family's accumulated COW counters (see
    /// [`CowStats`] for the scoping rules).
    pub fn cow_stats(&self) -> CowStats {
        self.counters.snapshot()
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn contains(&self, args: &[Sym]) -> bool {
        self.route(hash_tuple(args), args)
            .is_some_and(|sr| self.pages[sr.page as usize].flags[sr.offset as usize])
    }

    /// The slot routed to `args` (of router hash `hash`), live or
    /// tombstoned.
    fn route(&self, hash: u64, args: &[Sym]) -> Option<SlotRef> {
        self.slots.get(hash, |sr| tuple_at(&self.pages, sr) == args)
    }

    /// Mutable access to page `p`, counting the copy-on-write clone if
    /// the page is shared with another relation handle.
    fn page_mut(&mut self, p: usize) -> &mut Page {
        if Arc::get_mut(&mut self.pages[p]).is_none() {
            let page = &self.pages[p];
            self.counters.pages.fetch_add(1, Ordering::Relaxed);
            self.counters
                .tuples
                .fetch_add(page.slots() as u64, Ordering::Relaxed);
            self.counters
                .bytes
                .fetch_add(page.approx_bytes(), Ordering::Relaxed);
        }
        Arc::make_mut(&mut self.pages[p])
    }

    /// Insert a tuple; returns `true` if it was not present.
    pub fn insert(&mut self, args: &[Sym]) -> bool {
        debug_assert_eq!(args.len(), self.arity);
        let hash = hash_tuple(args);
        if let Some(sr) = self.route(hash, args) {
            let (p, o) = (sr.page as usize, sr.offset as usize);
            if self.pages[p].flags[o] {
                return false;
            }
            // Revival: flip the tombstoned slot back to live in place,
            // preserving its position (and thus iteration order). A
            // revival only improves the page's staleness, so no
            // compaction check is needed.
            let page = self.page_mut(p);
            page.flags[o] = true;
            page.live += 1;
            self.live += 1;
            return true;
        }
        // Fresh tuple: append to the tail page, opening a new one when
        // the tail is full (or the relation has no pages yet).
        let p = match self.pages.last() {
            Some(page) if page.slots() < PAGE_CAP => self.pages.len() - 1,
            _ => {
                self.pages.push(Arc::new(Page::new(self.arity)));
                self.pages.len() - 1
            }
        };
        let offset = self.page_mut(p).push(args);
        self.live += 1;
        let pages = &self.pages;
        self.slots.insert(
            hash,
            SlotRef {
                page: p as u32,
                offset,
            },
            |sr| tuple_at(pages, sr) == args,
        );
        // Growing the arena can carry a small, tombstone-heavy tail
        // page across the compaction floor (removes below the floor
        // never compact), so the dominance invariant must be re-checked
        // on insertion too — found by the 1024-case property pass over
        // `prop_store`.
        self.maybe_compact_page(p);
        true
    }

    /// Delete a tuple; returns `true` if it was present. Triggers a
    /// page compaction when tombstones come to dominate that page.
    pub fn remove(&mut self, args: &[Sym]) -> bool {
        let Some(sr) = self.route(hash_tuple(args), args) else {
            return false;
        };
        let (p, o) = (sr.page as usize, sr.offset as usize);
        if !self.pages[p].flags[o] {
            return false;
        }
        let page = self.page_mut(p);
        page.flags[o] = false;
        page.live -= 1;
        self.live -= 1;
        self.maybe_compact_page(p);
        true
    }

    /// Enumerate live tuples matching `pattern` (`Some(c)` pins a column).
    /// `each` returns `false` to stop early; `scan` reports whether the
    /// enumeration ran to completion. Enumeration order is insertion
    /// order (pages in order, offsets in order within each page). A fully
    /// bound pattern names at most one tuple, which the router finds
    /// without probing any page's index; that covers every bound scan
    /// of an arity-1 relation, whose pages keep no chains.
    pub fn scan(&self, pattern: &[Option<Sym>], each: &mut dyn FnMut(&[Sym]) -> bool) -> bool {
        debug_assert_eq!(pattern.len(), self.arity);
        let has_bound = pattern.iter().any(|p| p.is_some());
        if has_bound && pattern.iter().all(|p| p.is_some()) {
            let hash = hash_tuple(pattern.iter().flatten());
            let routed = self.slots.get(hash, |sr| {
                pattern
                    .iter()
                    .copied()
                    .eq(tuple_at(&self.pages, sr).iter().copied().map(Some))
            });
            return match routed {
                Some(sr) if self.pages[sr.page as usize].flags[sr.offset as usize] => {
                    each(tuple_at(&self.pages, sr))
                }
                _ => true,
            };
        }
        let matches = |tuple: &[Sym]| {
            pattern
                .iter()
                .zip(tuple)
                .all(|(p, &v)| p.is_none_or(|c| c == v))
        };
        'pages: for page in &self.pages {
            if !has_bound {
                for tuple in page.live_tuples() {
                    if !each(tuple) {
                        return false;
                    }
                }
                continue;
            }
            // Pick this page's most selective bound column; a bound
            // value absent from a page's index skips the page.
            let mut best: Option<(usize, Chain)> = None;
            for (col, p) in pattern.iter().enumerate() {
                if let Some(value) = p {
                    match page.chains[col].get(value) {
                        None => continue 'pages,
                        Some(&chain) => {
                            if best.is_none_or(|(_, b)| chain.len < b.len) {
                                best = Some((col, chain));
                            }
                        }
                    }
                }
            }
            let (col, chain) = best.expect("pattern has a bound column");
            let mut off = chain.first;
            while off != NIL {
                let o = off as usize;
                let tuple = page.tuple(o);
                if page.flags[o] && matches(tuple) && !each(tuple) {
                    return false;
                }
                off = page.next[o * self.arity + col];
            }
        }
        true
    }

    /// Iterate all live tuples, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[Sym]> {
        self.pages.iter().flat_map(|page| page.live_tuples())
    }

    /// Tombstoned slots currently held across all pages (each also pins
    /// stale per-page chain entries).
    pub fn stale_slots(&self) -> usize {
        let stale = self.pages.iter().map(|p| p.slots()).sum::<usize>() - self.live;
        // The router tracks every slot, live or tombstoned.
        debug_assert_eq!(self.slots.len(), self.live + stale);
        stale
    }

    /// The chunked layout, one `(slots, live)` pair per page in page
    /// order: page count, per-page arena size and tombstone count.
    /// Feeds the determinism digest (`tests/determinism.rs`) — chunk
    /// boundaries must be identical across runs — and the
    /// differential store tests.
    pub fn page_shape(&self) -> Vec<(usize, usize)> {
        self.pages
            .iter()
            .map(|p| (p.slots(), p.live as usize))
            .collect()
    }

    /// How many leaf pages this relation physically shares (same `Arc`)
    /// with `other`, comparing page tables positionally — the aliasing
    /// tests' witness that cloning shares all pages and mutation
    /// unshares only the touched ones.
    pub fn shared_pages_with(&self, other: &Relation) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Rebuild the whole relation with only live tuples, dropping
    /// tombstones, revival bookkeeping, stale index entries and empty
    /// pages. Live tuple order (and thus iteration order) is preserved.
    pub fn compact(&mut self) {
        if self.stale_slots() == 0 {
            return;
        }
        let mut rebuilt = Relation::new(self.arity);
        // The rebuild stays in the same counter scope: compaction
        // replaces the relation's storage, not its clone family.
        rebuilt.counters = self.counters.clone();
        for tuple in self.iter() {
            rebuilt.insert(tuple);
        }
        *self = rebuilt;
    }

    /// Rebuild page `p` with only its live tuples (preserving their
    /// order) and re-route them; router entries of its tombstones are
    /// dropped. Cost is bounded by the page, never the relation.
    ///
    /// Every route into `p` is dropped first, by slot, while the old
    /// page still backs it; only then are the live tuples routed into
    /// the rebuilt page. Mixing the two in one pass would let a route
    /// that already points into the new page be compared against the
    /// old one.
    fn compact_page(&mut self, p: usize) {
        let page = p as u32;
        let old = &self.pages[p];
        for (offset, (tuple, _)) in old.all_slots().enumerate() {
            let at = SlotRef {
                page,
                offset: offset as u16,
            };
            let dropped = self.slots.remove(hash_tuple(tuple), |sr| sr == at);
            debug_assert_eq!(dropped, Some(at), "every slot is routed");
        }
        let mut fresh = Page::new(self.arity);
        for tuple in old.live_tuples() {
            fresh.push(tuple);
        }
        self.pages[p] = Arc::new(fresh);
        let pages = &self.pages;
        for offset in 0..pages[p].slots() {
            let tuple = pages[p].tuple(offset);
            let at = SlotRef {
                page,
                offset: offset as u16,
            };
            let prev = self
                .slots
                .insert(hash_tuple(tuple), at, |sr| tuple_at(pages, sr) == tuple);
            debug_assert_eq!(prev, None, "a tuple holds one slot");
        }
    }

    /// Per-page compaction policy. The size floor keeps a small tail
    /// page from re-indexing on every delete; sealed (non-tail) pages
    /// never grow again, so a tombstone majority there is permanent and
    /// compacts immediately, whatever the page size.
    fn maybe_compact_page(&mut self, p: usize) {
        let page = &self.pages[p];
        let slots = page.slots();
        let floor = if p + 1 == self.pages.len() {
            COMPACT_FLOOR
        } else {
            1
        };
        if slots >= floor && page.stale() * 2 > slots {
            self.compact_page(p);
        }
    }
}

/// The tuple in slot `sr` of a relation whose page table is `pages`.
fn tuple_at(pages: &[Arc<Page>], sr: SlotRef) -> &[Sym] {
    pages[sr.page as usize].tuple(sr.offset as usize)
}

/// All extensional facts of a database, keyed by predicate.
///
/// Relations are kept in predicate-first-insertion order and all
/// iteration follows it: identical operation sequences produce
/// identical iteration orders. This determinism is load-bearing — the
/// satisfiability search enforces violated instances in
/// model-iteration order, and a randomized order (as with a plain
/// `HashMap` and its per-instance random keys) makes search outcomes
/// within a fresh-constant budget irreproducible.
///
/// Each relation sits behind an [`Arc`] with copy-on-write mutation:
/// `clone()` is O(#relations) (it copies the predicate index and bumps
/// one refcount per relation, never tuple data), and mutating a shared
/// relation clones only that relation's page table — the pages
/// themselves stay shared except the one the mutation lands in.
/// Snapshot readers therefore keep a stable view while writers proceed
/// at O(delta) copy cost.
#[derive(Clone, Debug, Default)]
pub struct FactSet {
    index: HashMap<Sym, u32, SymState>,
    relations: Vec<(Sym, Arc<Relation>)>,
    len: usize,
}

impl FactSet {
    pub fn new() -> FactSet {
        FactSet::default()
    }

    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> FactSet {
        let mut out = FactSet::new();
        for f in facts {
            out.insert(&f);
        }
        out
    }

    /// Total number of stored facts.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, fact: &Fact) -> bool {
        self.contains_tuple(fact.pred, &fact.args)
    }

    /// Is `pred(args)` stored? [`FactSet::contains`] on a borrowed
    /// tuple.
    pub fn contains_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        self.index.get(&pred).is_some_and(|&slot| {
            let r = &self.relations[slot as usize].1;
            r.arity() == args.len() && r.contains(args)
        })
    }

    /// Insert; returns `true` if the fact was new (Def. 1: inserting an
    /// explicit fact leaves the database unchanged). Copy-on-write: a
    /// relation shared with a snapshot clones its page table before
    /// mutation (the pages stay shared).
    pub fn insert(&mut self, fact: &Fact) -> bool {
        let slot = *self.index.entry(fact.pred).or_insert_with(|| {
            let slot = self.relations.len() as u32;
            self.relations
                .push((fact.pred, Arc::new(Relation::new(fact.args.len()))));
            slot
        });
        let rel = &self.relations[slot as usize].1;
        assert_eq!(
            rel.arity(),
            fact.args.len(),
            "predicate {} used with arities {} and {}",
            fact.pred,
            rel.arity(),
            fact.args.len()
        );
        // Only pre-check membership when the relation is shared (with a
        // snapshot or clone): that is the one case where a no-op insert
        // would otherwise pay a COW clone. Uniquely owned relations
        // go straight to the arena (the hot path of materialization).
        let arc = &mut self.relations[slot as usize].1;
        if Arc::get_mut(arc).is_none() && arc.contains(&fact.args) {
            return false;
        }
        let added = Arc::make_mut(arc).insert(&fact.args);
        if added {
            self.len += 1;
        }
        added
    }

    /// Delete; returns `true` if the fact was present (Def. 1: deleting an
    /// absent fact leaves the database unchanged). Copy-on-write, like
    /// [`FactSet::insert`].
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(&slot) = self.index.get(&fact.pred) else {
            return false;
        };
        // Same shared-only pre-check as `insert`.
        let arc = &mut self.relations[slot as usize].1;
        if Arc::get_mut(arc).is_none() && !arc.contains(&fact.args) {
            return false;
        }
        let removed = Arc::make_mut(arc).remove(&fact.args);
        if removed {
            self.len -= 1;
        }
        removed
    }

    pub fn relation(&self, pred: Sym) -> Option<&Relation> {
        self.index
            .get(&pred)
            .map(|&slot| &*self.relations[slot as usize].1)
    }

    /// Aggregate COW counters over every relation family reachable
    /// from this fact set (see [`CowStats`]). Snapshots and clones of
    /// the same database read the same counters; unrelated databases
    /// read disjoint ones.
    pub fn cow_stats(&self) -> CowStats {
        self.relations
            .iter()
            .fold(CowStats::default(), |acc, (_, r)| acc + r.cow_stats())
    }

    /// Predicates with at least one stored (possibly tombstoned)
    /// relation, in first-insertion order.
    pub fn predicates(&self) -> impl Iterator<Item = Sym> + '_ {
        self.relations.iter().map(|&(pred, _)| pred)
    }

    /// Iterate all facts, in predicate-then-tuple insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.relations.iter().flat_map(|(pred, rel)| {
            rel.iter().map(move |args| Fact {
                pred: *pred,
                args: args.to_vec(),
            })
        })
    }

    /// All constants appearing in stored facts (the active domain), in
    /// name order (stable across processes; interner-id order is not).
    pub fn active_domain(&self) -> Vec<Sym> {
        let mut out: Vec<Sym> = self
            .relations
            .iter()
            .flat_map(|(_, r)| r.iter().flatten().copied())
            .collect();
        sort_by_name(&mut out);
        out
    }

    /// The relations of the predicates `keep` accepts, in their order
    /// here and sharing their storage with `self`: one refcount per
    /// kept relation, no tuple copied.
    pub fn restricted_to(&self, keep: impl Fn(Sym) -> bool) -> FactSet {
        let mut out = FactSet::new();
        for pred in self.predicates().filter(|&pred| keep(pred)) {
            out.adopt(pred, self);
        }
        out
    }

    /// Make `pred`'s relation here the very one `from` holds (one
    /// refcount, no tuple copied), appended if this set has none yet.
    /// `from` must hold a relation for `pred`.
    pub(crate) fn adopt(&mut self, pred: Sym, from: &FactSet) {
        let at = *from.index.get(&pred).expect("`from` holds the relation");
        let rel = from.relations[at as usize].1.clone();
        self.len += rel.len();
        if let Some(&slot) = self.index.get(&pred) {
            self.len -= self.relations[slot as usize].1.len();
            self.relations[slot as usize].1 = rel;
        } else {
            self.index.insert(pred, self.relations.len() as u32);
            self.relations.push((pred, rel));
        }
    }
}

impl FromIterator<Fact> for FactSet {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> FactSet {
        FactSet::from_facts(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(p: &str, args: &[&str]) -> Fact {
        Fact::parse_like(p, args)
    }

    #[test]
    fn insert_remove_contains() {
        let mut fs = FactSet::new();
        assert!(fs.insert(&fact("p", &["a", "b"])));
        assert!(
            !fs.insert(&fact("p", &["a", "b"])),
            "duplicate insert is a no-op"
        );
        assert!(fs.contains(&fact("p", &["a", "b"])));
        assert_eq!(fs.len(), 1);
        assert!(fs.remove(&fact("p", &["a", "b"])));
        assert!(
            !fs.remove(&fact("p", &["a", "b"])),
            "absent delete is a no-op"
        );
        assert!(!fs.contains(&fact("p", &["a", "b"])));
        assert_eq!(fs.len(), 0);
    }

    #[test]
    fn reinsertion_after_delete_revives_slot() {
        let mut fs = FactSet::new();
        fs.insert(&fact("p", &["a"]));
        fs.remove(&fact("p", &["a"]));
        assert!(fs.insert(&fact("p", &["a"])));
        assert!(fs.contains(&fact("p", &["a"])));
        assert_eq!(fs.relation(Sym::new("p")).unwrap().len(), 1);
    }

    #[test]
    fn scan_with_bound_column_uses_index() {
        let mut fs = FactSet::new();
        for i in 0..100 {
            fs.insert(&fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]));
        }
        let rel = fs.relation(Sym::new("edge")).unwrap();
        let mut seen = Vec::new();
        rel.scan(&[Some(Sym::new("n5")), None], &mut |t| {
            seen.push(t.to_vec());
            true
        });
        assert_eq!(seen, vec![vec![Sym::new("n5"), Sym::new("n6")]]);
    }

    #[test]
    fn scan_early_termination() {
        let mut fs = FactSet::new();
        for i in 0..10 {
            fs.insert(&fact("p", &[&format!("c{i}")]));
        }
        let rel = fs.relation(Sym::new("p")).unwrap();
        let mut count = 0;
        let completed = rel.scan(&[None], &mut |_| {
            count += 1;
            count < 3
        });
        assert!(!completed);
        assert_eq!(count, 3);
    }

    #[test]
    fn scan_skips_tombstones() {
        let mut fs = FactSet::new();
        fs.insert(&fact("p", &["a"]));
        fs.insert(&fact("p", &["b"]));
        fs.remove(&fact("p", &["a"]));
        let rel = fs.relation(Sym::new("p")).unwrap();
        let mut seen = Vec::new();
        rel.scan(&[None], &mut |t| {
            seen.push(t[0]);
            true
        });
        assert_eq!(seen, vec![Sym::new("b")]);
        // Bound scan on the tombstoned value finds nothing.
        let mut hit = false;
        rel.scan(&[Some(Sym::new("a"))], &mut |_| {
            hit = true;
            true
        });
        assert!(!hit);
    }

    #[test]
    fn unknown_value_short_circuits() {
        let mut fs = FactSet::new();
        fs.insert(&fact("p", &["a"]));
        let rel = fs.relation(Sym::new("p")).unwrap();
        let mut hit = false;
        assert!(rel.scan(&[Some(Sym::new("zzz"))], &mut |_| {
            hit = true;
            true
        }));
        assert!(!hit);
    }

    #[test]
    fn active_domain_collects_constants() {
        let mut fs = FactSet::new();
        fs.insert(&fact("p", &["a", "b"]));
        fs.insert(&fact("q", &["b", "c"]));
        let dom: Vec<&str> = fs.active_domain().iter().map(|s| s.as_str()).collect();
        assert_eq!(dom, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "arities")]
    fn arity_mismatch_panics() {
        let mut fs = FactSet::new();
        fs.insert(&fact("p", &["a"]));
        fs.insert(&fact("p", &["a", "b"]));
    }

    #[test]
    fn churn_triggers_compaction_and_preserves_contents() {
        // Insert/delete/revive churn: without compaction the arena and
        // its chains grow with every distinct tombstoned tuple forever.
        let mut fs = FactSet::new();
        for round in 0..10 {
            for i in 0..100 {
                fs.insert(&fact("p", &[&format!("r{round}_v{i}"), "k"]));
            }
            for i in 0..100 {
                if i % 10 != 0 {
                    fs.remove(&fact("p", &[&format!("r{round}_v{i}"), "k"]));
                }
            }
            // Revive a handful of this round's deletions.
            for i in [1usize, 11, 21] {
                fs.insert(&fact("p", &[&format!("r{round}_v{i}"), "k"]));
            }
        }
        let rel = fs.relation(Sym::new("p")).unwrap();
        // 13 survivors per round; staleness is bounded by the compaction
        // threshold instead of accumulating 870 tombstones.
        assert_eq!(rel.len(), 130);
        assert_eq!(fs.len(), 130);
        assert!(
            rel.stale_slots() * 2 <= rel.len() + rel.stale_slots() + 1,
            "stale fraction unbounded: {} stale vs {} live",
            rel.stale_slots(),
            rel.len()
        );
        // Contents and index behavior survive compaction.
        assert!(fs.contains(&fact("p", &["r9_v0", "k"])));
        assert!(fs.contains(&fact("p", &["r0_v21", "k"])));
        assert!(!fs.contains(&fact("p", &["r9_v2", "k"])));
        let mut seen = 0;
        rel.scan(&[None, Some(Sym::new("k"))], &mut |_| {
            seen += 1;
            true
        });
        assert_eq!(seen, 130, "indexed scan must see exactly the live tuples");
    }

    #[test]
    fn explicit_compact_drops_all_tombstones() {
        let mut fs = FactSet::new();
        for i in 0..10 {
            fs.insert(&fact("q", &[&format!("c{i}")]));
        }
        for i in 0..5 {
            fs.remove(&fact("q", &[&format!("c{i}")]));
        }
        let rel = fs.relation(Sym::new("q")).unwrap();
        assert_eq!(rel.stale_slots(), 5, "below the auto-compaction floor");
        let mut rel = rel.clone();
        rel.compact();
        assert_eq!(rel.stale_slots(), 0);
        assert_eq!(rel.len(), 5);
        let order: Vec<&str> = rel.iter().map(|t| t[0].as_str()).collect();
        assert_eq!(
            order,
            vec!["c5", "c6", "c7", "c8", "c9"],
            "live order preserved"
        );
    }

    #[test]
    fn clones_share_relations_until_mutation() {
        let mut a = FactSet::new();
        for i in 0..50 {
            a.insert(&fact("p", &[&format!("v{i}")]));
            a.insert(&fact("q", &[&format!("v{i}"), "x"]));
        }
        let b = a.clone();
        // Writer mutates p; the reader's view of both relations is stable.
        a.insert(&fact("p", &["new"]));
        a.remove(&fact("q", &["v0", "x"]));
        assert!(a.contains(&fact("p", &["new"])));
        assert!(!b.contains(&fact("p", &["new"])));
        assert!(!a.contains(&fact("q", &["v0", "x"])));
        assert!(b.contains(&fact("q", &["v0", "x"])));
        assert_eq!(b.len(), 100);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn iter_yields_all_live_facts() {
        let mut fs = FactSet::new();
        fs.insert(&fact("p", &["a"]));
        fs.insert(&fact("q", &["b", "c"]));
        fs.insert(&fact("p", &["d"]));
        fs.remove(&fact("p", &["a"]));
        let mut all: Vec<String> = fs.iter().map(|f| f.to_string()).collect();
        all.sort();
        assert_eq!(all, vec!["p(d)", "q(b,c)"]);
    }

    #[test]
    fn large_relations_spill_across_pages_in_order() {
        let mut fs = FactSet::new();
        let n = PAGE_CAP * 2 + 500;
        for i in 0..n {
            fs.insert(&fact("big", &[&format!("v{i:05}")]));
        }
        let rel = fs.relation(Sym::new("big")).unwrap();
        assert_eq!(rel.len(), n);
        assert_eq!(
            rel.page_shape(),
            vec![(PAGE_CAP, PAGE_CAP), (PAGE_CAP, PAGE_CAP), (500, 500)]
        );
        // Iteration order is insertion order across page boundaries.
        let order: Vec<String> = rel.iter().map(|t| t[0].as_str().to_string()).collect();
        let expect: Vec<String> = (0..n).map(|i| format!("v{i:05}")).collect();
        assert_eq!(order, expect);
        assert!(
            rel.pages
                .iter()
                .all(|p| p.chains.is_empty() && p.next.is_empty()),
            "arity-1 pages keep no chains"
        );
        // Bound scans find tuples in any page.
        for probe in [0, PAGE_CAP - 1, PAGE_CAP, n - 1] {
            let mut hits = 0;
            rel.scan(&[Some(Sym::new(&format!("v{probe:05}")))], &mut |_| {
                hits += 1;
                true
            });
            assert_eq!(hits, 1, "probe {probe}");
        }
    }

    #[test]
    fn sealed_pages_compact_as_soon_as_tombstones_dominate() {
        let mut fs = FactSet::new();
        let n = PAGE_CAP + 100; // two pages: sealed full page + tail
        for i in 0..n {
            fs.insert(&fact("p", &[&format!("v{i}")]));
        }
        // Tombstone most of the sealed page; it must compact on its own
        // (the tail page is untouched and keeps its slots).
        for i in 0..(PAGE_CAP / 2 + 1) {
            fs.remove(&fact("p", &[&format!("v{i}")]));
        }
        let rel = fs.relation(Sym::new("p")).unwrap();
        let shape = rel.page_shape();
        assert_eq!(shape.len(), 2);
        assert_eq!(
            shape[0],
            (PAGE_CAP - (PAGE_CAP / 2 + 1), PAGE_CAP - (PAGE_CAP / 2 + 1)),
            "sealed page rebuilt with live tuples only"
        );
        assert_eq!(shape[1], (100, 100));
        // Contents and lookups survive the sealed-page rebuild.
        assert!(!fs.contains(&fact("p", &["v0"])));
        assert!(fs.contains(&fact("p", &[&format!("v{}", PAGE_CAP / 2 + 1)])));
        assert!(fs.contains(&fact("p", &[&format!("v{}", n - 1)])));
        // And a revival of a compacted-away tuple re-appends cleanly.
        assert!(fs.insert(&fact("p", &["v0"])));
        assert!(fs.contains(&fact("p", &["v0"])));
    }

    fn collect(rel: &Relation, pattern: &[Option<Sym>]) -> Vec<Vec<Sym>> {
        let mut out = Vec::new();
        rel.scan(pattern, &mut |t| {
            out.push(t.to_vec());
            true
        });
        out
    }

    #[test]
    fn bound_scans_walk_chains_through_tombstones_revivals_and_compaction() {
        let t = |i: usize| {
            [
                Sym::new(&format!("x{}", i % 4)),
                Sym::new(&format!("y{}", (i / 2) % 4)),
                Sym::new(&format!("z{i}")),
            ]
        };
        let mut rel = Relation::new(3);
        for i in 0..40 {
            rel.insert(&t(i));
        }
        // The 21st tombstone of 40 slots compacts the page; the last
        // three land on the rebuilt one.
        for i in (0..30).filter(|i| i % 5 != 4) {
            rel.remove(&t(i));
        }
        assert_eq!(
            rel.page_shape(),
            vec![(19, 16)],
            "compacted, then tombstoned"
        );
        for i in 40..56 {
            rel.insert(&t(i));
        }
        for i in [40, 43, 47, 50] {
            rel.remove(&t(i));
        }
        // Revive two tombstones in place and re-append two tuples the
        // compaction dropped.
        for i in [26, 43, 0, 5] {
            assert!(rel.insert(&t(i)));
        }
        assert_eq!(rel.page_shape(), vec![(37, 32)]);
        let page = &rel.pages[0];
        let ties = page.chains[0]
            .values()
            .filter(|a| page.chains[1].values().any(|b| a.len == b.len))
            .count();
        assert!(ties > 0, "two columns' chains must tie in length");

        let all = collect(&rel, &[None, None, None]);
        assert_eq!(all.len(), rel.len());
        let mut values: Vec<Vec<Option<Sym>>> = vec![vec![None]; 3];
        for (col, column) in values.iter_mut().enumerate() {
            for (tuple, _) in page.all_slots() {
                column.push(Some(tuple[col]));
            }
            column.push(Some(Sym::new("absent")));
            column.sort();
            column.dedup();
        }
        for &a in &values[0] {
            for &b in &values[1] {
                for &c in &values[2] {
                    let pattern = [a, b, c];
                    let expect: Vec<Vec<Sym>> = all
                        .iter()
                        .filter(|t| {
                            pattern
                                .iter()
                                .zip(*t)
                                .all(|(p, v)| p.is_none_or(|p| p == *v))
                        })
                        .cloned()
                        .collect();
                    assert_eq!(collect(&rel, &pattern), expect, "pattern {pattern:?}");
                }
            }
        }
    }

    #[test]
    fn fully_bound_scans_find_the_one_live_tuple_across_pages() {
        let t = |i: usize| [Sym::new(&format!("k{}", i % 7)), Sym::new(&format!("n{i}"))];
        let n = 2 * PAGE_CAP + 50;
        let mut rel = Relation::new(2);
        for i in 0..n {
            rel.insert(&t(i));
        }
        // Tombstone most of the first page (it compacts), a few tuples of
        // the second (they stay tombstoned), then revive one tombstone in
        // place and re-append one tuple the compaction dropped.
        for i in (0..PAGE_CAP / 2 + 1).chain([PAGE_CAP + 3, PAGE_CAP + 9, PAGE_CAP + 11]) {
            rel.remove(&t(i));
        }
        assert!(rel.insert(&t(PAGE_CAP + 9)));
        assert!(rel.insert(&t(2)));
        assert_eq!(rel.page_shape().len(), 3);
        assert!(rel.stale_slots() > 0);
        let all = collect(&rel, &[None, None]);
        let mut probes: Vec<[Sym; 2]> = (0..n).map(t).collect();
        probes.push([Sym::new("k1"), Sym::new("absent")]);
        for probe in probes {
            let pattern = [Some(probe[0]), Some(probe[1])];
            let expect: Vec<Vec<Sym>> = all.iter().filter(|v| **v == probe).cloned().collect();
            assert_eq!(collect(&rel, &pattern), expect, "probe {probe:?}");
            assert_eq!(rel.contains(&probe), !expect.is_empty());
            assert_eq!(rel.scan(&pattern, &mut |_| false), !rel.contains(&probe));
        }
    }

    /// Compacting a tombstone-heavy sealed page drops its routes and
    /// re-routes its live tuples into the rebuilt page: afterwards every
    /// membership test, fully bound scan and column-bound scan agrees
    /// with a mirror, before and after the dropped tuples come back.
    #[test]
    fn sealed_page_compaction_keeps_every_lookup_exact() {
        use std::collections::BTreeSet;
        let t = |i: usize| {
            vec![
                Sym::new(&format!("k{}", i % 13)),
                Sym::new(&format!("v{i}")),
            ]
        };
        let n = 2 * PAGE_CAP + 100;
        let mut rel = Relation::new(2);
        let mut mirror: BTreeSet<Vec<Sym>> = BTreeSet::new();
        for i in 0..n {
            rel.insert(&t(i));
            mirror.insert(t(i));
        }
        // Two of three tuples of the middle (sealed) page go.
        for i in (PAGE_CAP..2 * PAGE_CAP).filter(|i| i % 3 != 0) {
            assert!(rel.remove(&t(i)));
            mirror.remove(&t(i));
        }
        let shape = rel.page_shape();
        assert_eq!(shape.len(), 3);
        assert!(
            shape[1].0 < PAGE_CAP,
            "the sealed page compacted: {shape:?}"
        );
        let check = |rel: &Relation, mirror: &BTreeSet<Vec<Sym>>| {
            for i in 0..n + 1 {
                let probe = t(i);
                let bound: Vec<Option<Sym>> = probe.iter().copied().map(Some).collect();
                let expect: Vec<Vec<Sym>> = mirror.get(&probe).into_iter().cloned().collect();
                assert_eq!(
                    rel.contains(&probe),
                    !expect.is_empty(),
                    "contains {probe:?}"
                );
                assert_eq!(collect(rel, &bound), expect, "fully bound {probe:?}");
                let by_value = collect(rel, &[None, Some(probe[1])]);
                assert_eq!(by_value, expect, "column 1 bound to {}", probe[1]);
            }
            for k in 0..14 {
                let key = Sym::new(&format!("k{k}"));
                let seen = collect(rel, &[Some(key), None]);
                let expect: BTreeSet<Vec<Sym>> =
                    mirror.iter().filter(|v| v[0] == key).cloned().collect();
                assert_eq!(seen.len(), expect.len(), "column 0 bound to {key}");
                assert_eq!(seen.into_iter().collect::<BTreeSet<_>>(), expect);
            }
        };
        check(&rel, &mirror);
        // Tuples the compaction dropped come back on the tail page.
        for i in (PAGE_CAP..PAGE_CAP + 60).filter(|i| i % 3 != 0) {
            assert!(rel.insert(&t(i)));
            mirror.insert(t(i));
        }
        check(&rel, &mirror);
    }

    #[test]
    fn arity_zero_relations_round_trip() {
        let halts = fact("halts", &[]);
        let mut fs = FactSet::new();
        assert!(fs.insert(&halts));
        assert!(!fs.insert(&halts));
        let rel = fs.relation(Sym::new("halts")).unwrap();
        assert!(rel.contains(&[]));
        assert_eq!(rel.iter().collect::<Vec<_>>(), vec![&[] as &[Sym]]);
        assert_eq!(collect(rel, &[]), vec![Vec::<Sym>::new()]);
        assert!(fs.remove(&halts));
        let rel = fs.relation(Sym::new("halts")).unwrap();
        assert!(!rel.contains(&[]));
        assert_eq!(rel.iter().count(), 0);
        assert!(collect(rel, &[]).is_empty());
        assert_eq!(rel.page_shape(), vec![(1, 0)]);
        assert!(fs.insert(&halts), "revival");
        let rel = fs.relation(Sym::new("halts")).unwrap();
        assert!(fs.contains(&halts));
        assert_eq!(collect(rel, &[]), vec![Vec::<Sym>::new()]);
        assert_eq!(rel.page_shape(), vec![(1, 1)]);
        assert_eq!(fs.iter().collect::<Vec<_>>(), vec![halts]);
    }

    #[test]
    fn cloned_factsets_share_pages_and_unshare_only_touched_ones() {
        let mut a = FactSet::new();
        let n = PAGE_CAP * 2 + 500; // three pages, tail half-full
        for i in 0..n {
            a.insert(&fact("hot", &[&format!("k{i}"), "v"]));
        }
        let b = a.clone();
        {
            let ra = a.relation(Sym::new("hot")).unwrap();
            let rb = b.relation(Sym::new("hot")).unwrap();
            assert_eq!(ra.shared_pages_with(rb), 3, "clone shares every page");
        }
        let before = a.cow_stats();
        // One insert lands in the tail page only.
        a.insert(&fact("hot", &["fresh", "v"]));
        let after = a.cow_stats();
        let ra = a.relation(Sym::new("hot")).unwrap();
        let rb = b.relation(Sym::new("hot")).unwrap();
        assert_eq!(
            ra.shared_pages_with(rb),
            2,
            "only the written page unshares"
        );
        assert_eq!(
            after.pages_cloned - before.pages_cloned,
            1,
            "exactly one COW page clone"
        );
        assert!(after.bytes_cloned > before.bytes_cloned);
        // The reader's view is bit-identical to pre-mutation.
        assert_eq!(rb.len(), n);
        assert!(!rb.contains(&fact("hot", &["fresh", "v"]).args));
        // Counter scoping: the snapshot reads the same family counters
        // as the writer, while an unrelated fact set sees none of this
        // traffic (no process-global bleed).
        assert_eq!(b.cow_stats(), after);
        let mut cold = FactSet::new();
        cold.insert(&fact("cold", &["x"]));
        cold.insert(&fact("cold", &["y"]));
        assert_eq!(cold.cow_stats(), CowStats::default());
    }
}
