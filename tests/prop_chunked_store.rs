//! Differential proof of the chunked copy-on-write store: a naive
//! `Vec`-of-pages oracle implements the *same published policy*
//! ([`PAGE_CAP`]-slot leaf pages, tombstoning with in-place revival,
//! the [`COMPACT_FLOOR`]/sealed-page compaction rule) with none of the
//! machinery under test — no `Arc` sharing, no persistent slot router,
//! no per-column indexes. For hundreds of randomized
//! insert/delete/revive/compact/snapshot schedules, [`Relation`] and
//! [`FactSet`] must stay **bit-identical** to the oracle: live counts,
//! membership, full and index-driven scan order, page shapes and
//! tombstone accounting — and every snapshot taken mid-schedule must
//! still replay its frozen oracle verbatim after the live side moved
//! on, which is the copy-on-write contract itself.
//!
//! The aliasing tests then witness the mechanism directly via
//! [`Relation::shared_pages_with`]: cloning shares every page,
//! mutating unshares exactly the touched one. The last test drives it
//! through the commit pipeline: writers appending disjoint keys to one
//! hot relation all admit conflict-free, and the bytes their commits
//! clone do not grow with the relation.

use proptest::prelude::*;
use std::collections::HashMap;
use uniform::datalog::{FactSet, Relation, COMPACT_FLOOR, PAGE_CAP};
use uniform::logic::{Fact, Sym};
use uniform::{workload, ConcurrentDatabase, UniformOptions, Update};

// ---------------------------------------------------------------------------
// The oracle: same policy, naive representation.
// ---------------------------------------------------------------------------

#[derive(Clone, Default)]
struct NaivePage {
    slots: Vec<(Vec<Sym>, bool)>,
}

impl NaivePage {
    fn live(&self) -> usize {
        self.slots.iter().filter(|(_, live)| *live).count()
    }
}

/// A flat re-statement of the chunking policy: pages are plain vectors,
/// the router is a [`HashMap`] that (like the real one) keeps
/// tombstoned tuples routed for revival.
#[derive(Clone, Default)]
struct NaiveRelation {
    pages: Vec<NaivePage>,
    route: HashMap<Vec<Sym>, (usize, usize)>,
}

impl NaiveRelation {
    fn len(&self) -> usize {
        self.pages.iter().map(NaivePage::live).sum()
    }

    fn stale_slots(&self) -> usize {
        self.pages.iter().map(|p| p.slots.len()).sum::<usize>() - self.len()
    }

    fn page_shape(&self) -> Vec<(usize, usize)> {
        self.pages
            .iter()
            .map(|p| (p.slots.len(), p.live()))
            .collect()
    }

    fn contains(&self, args: &[Sym]) -> bool {
        self.route
            .get(args)
            .is_some_and(|&(p, o)| self.pages[p].slots[o].1)
    }

    fn live_tuples(&self) -> Vec<Vec<Sym>> {
        self.pages
            .iter()
            .flat_map(|p| p.slots.iter().filter(|(_, l)| *l).map(|(t, _)| t.clone()))
            .collect()
    }

    fn matching(&self, pattern: &[Option<Sym>]) -> Vec<Vec<Sym>> {
        self.live_tuples()
            .into_iter()
            .filter(|t| {
                pattern
                    .iter()
                    .zip(t)
                    .all(|(p, v)| p.is_none_or(|c| c == *v))
            })
            .collect()
    }

    fn insert(&mut self, args: &[Sym]) -> bool {
        if let Some(&(p, o)) = self.route.get(args) {
            if self.pages[p].slots[o].1 {
                return false;
            }
            // Revival flips the tombstone in place; never compacts.
            self.pages[p].slots[o].1 = true;
            return true;
        }
        let p = match self.pages.last() {
            Some(page) if page.slots.len() < PAGE_CAP => self.pages.len() - 1,
            _ => {
                self.pages.push(NaivePage::default());
                self.pages.len() - 1
            }
        };
        self.pages[p].slots.push((args.to_vec(), true));
        self.route
            .insert(args.to_vec(), (p, self.pages[p].slots.len() - 1));
        self.maybe_compact_page(p);
        true
    }

    fn remove(&mut self, args: &[Sym]) -> bool {
        let Some(&(p, o)) = self.route.get(args) else {
            return false;
        };
        if !self.pages[p].slots[o].1 {
            return false;
        }
        self.pages[p].slots[o].1 = false;
        self.maybe_compact_page(p);
        true
    }

    fn maybe_compact_page(&mut self, p: usize) {
        let slots = self.pages[p].slots.len();
        let stale = slots - self.pages[p].live();
        let floor = if p + 1 == self.pages.len() {
            COMPACT_FLOOR
        } else {
            1
        };
        if slots >= floor && stale * 2 > slots {
            self.compact_page(p);
        }
    }

    fn compact_page(&mut self, p: usize) {
        let old = std::mem::take(&mut self.pages[p].slots);
        for (tuple, live) in old {
            if live {
                let offset = self.pages[p].slots.len();
                self.route.insert(tuple.clone(), (p, offset));
                self.pages[p].slots.push((tuple, true));
            } else {
                self.route.remove(&tuple);
            }
        }
    }

    fn compact(&mut self) {
        if self.stale_slots() == 0 {
            return;
        }
        let live = self.live_tuples();
        *self = NaiveRelation::default();
        for tuple in live {
            self.insert(&tuple);
        }
    }
}

// ---------------------------------------------------------------------------
// Relation ⇔ oracle differential.
// ---------------------------------------------------------------------------

fn tuple(k: usize) -> Vec<Sym> {
    vec![Sym::new(&format!("k{k}")), Sym::new(&format!("t{}", k % 7))]
}

/// Every observable of the chunked relation, compared bit-for-bit.
fn assert_matches(rel: &Relation, oracle: &NaiveRelation, keyspace: usize, ctx: &str) {
    assert_eq!(rel.len(), oracle.len(), "{ctx}: live count");
    assert_eq!(rel.page_shape(), oracle.page_shape(), "{ctx}: page shape");
    assert_eq!(
        rel.stale_slots(),
        oracle.stale_slots(),
        "{ctx}: stale slots"
    );
    let tuples: Vec<Vec<Sym>> = rel.iter().map(<[Sym]>::to_vec).collect();
    assert_eq!(tuples, oracle.live_tuples(), "{ctx}: iteration order");
    for k in (0..keyspace).step_by(7) {
        assert_eq!(
            rel.contains(&tuple(k)),
            oracle.contains(&tuple(k)),
            "{ctx}: contains(k{k})"
        );
    }
    // Index-driven scans agree with oracle filtering, order included:
    // a bound first column (unique key) and a bound second column
    // (shared tag — many hits per page).
    for pattern in [
        vec![Some(Sym::new("k3")), None],
        vec![None, Some(Sym::new("t2"))],
    ] {
        let mut got: Vec<Vec<Sym>> = Vec::new();
        rel.scan(&pattern, &mut |args| {
            got.push(args.to_vec());
            true
        });
        assert_eq!(got, oracle.matching(&pattern), "{ctx}: scan {pattern:?}");
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Delete(usize),
    Revive(usize),
    Compact,
    Snapshot,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Weighted mix: mutations dominate, with occasional full compacts
    // and snapshot pins.
    let op = (0u8..12, 0usize..1600).prop_map(|(sel, k)| match sel {
        0..=3 => Op::Insert(k),
        4..=7 => Op::Delete(k),
        8..=9 => Op::Revive(k),
        10 => Op::Compact,
        _ => Op::Snapshot,
    });
    prop::collection::vec(op, 1..250)
}

/// Base sizes straddle the interesting boundaries: empty, one small
/// tail page (under the compaction floor's reach), and multi-page with
/// a sealed full page plus a partial tail.
fn arb_base() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(40), Just(PAGE_CAP + 177)]
}

proptest! {
    #[test]
    fn chunked_relation_matches_naive_oracle(base in arb_base(), ops in arb_ops()) {
        let keyspace = base + 300;
        let mut rel = Relation::new(2);
        let mut oracle = NaiveRelation::default();
        for k in 0..base {
            rel.insert(&tuple(k));
            oracle.insert(&tuple(k));
        }
        // Snapshots pin (chunked clone, frozen oracle) pairs; the clone
        // must keep answering from the pinned state while the live
        // relation mutates through shared pages.
        let mut snapshots: Vec<(Relation, NaiveRelation)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    let (a, b) = (rel.insert(&tuple(*k)), oracle.insert(&tuple(*k)));
                    prop_assert_eq!(a, b, "op {}: insert verdict", i);
                }
                Op::Delete(k) => {
                    let (a, b) = (rel.remove(&tuple(*k)), oracle.remove(&tuple(*k)));
                    prop_assert_eq!(a, b, "op {}: delete verdict", i);
                }
                Op::Revive(k) => {
                    rel.remove(&tuple(*k));
                    oracle.remove(&tuple(*k));
                    let (a, b) = (rel.insert(&tuple(*k)), oracle.insert(&tuple(*k)));
                    prop_assert_eq!(a, b, "op {}: revive verdict", i);
                }
                Op::Compact => {
                    rel.compact();
                    oracle.compact();
                }
                Op::Snapshot => {
                    if snapshots.len() < 4 {
                        snapshots.push((rel.clone(), oracle.clone()));
                    }
                }
            }
            prop_assert_eq!(rel.len(), oracle.len(), "op {}: live count", i);
        }
        assert_matches(&rel, &oracle, keyspace, "final");
        for (i, (snap, frozen)) in snapshots.iter().enumerate() {
            assert_matches(snap, frozen, keyspace, &format!("snapshot {i}"));
        }
    }
}

// ---------------------------------------------------------------------------
// FactSet ⇔ oracle differential (predicate routing + COW relations).
// ---------------------------------------------------------------------------

/// Predicates of distinct arities; the oracle keeps them in
/// first-insertion order, exactly like [`FactSet::predicates`].
const PREDS: [(&str, usize); 3] = [("p", 2), ("q", 1), ("r", 3)];

fn fact(pred: usize, k: usize) -> Fact {
    let (name, arity) = PREDS[pred];
    let args: Vec<String> = (0..arity).map(|c| format!("c{}", k % (11 - c))).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    Fact::parse_like(name, &refs)
}

proptest! {
    #[test]
    fn chunked_factset_matches_naive_oracle(
        ops in prop::collection::vec((0usize..3, 0usize..60, 0u8..2), 1..200),
    ) {
        let mut set = FactSet::new();
        let mut oracle: Vec<(Sym, NaiveRelation)> = Vec::new();
        for (pred, k, is_insert) in ops {
            let f = fact(pred, k);
            if is_insert == 1 {
                let slot = oracle.iter().position(|(p, _)| *p == f.pred).unwrap_or_else(|| {
                    oracle.push((f.pred, NaiveRelation::default()));
                    oracle.len() - 1
                });
                prop_assert_eq!(set.insert(&f), oracle[slot].1.insert(&f.args));
            } else {
                let removed = oracle
                    .iter_mut()
                    .find(|(p, _)| *p == f.pred)
                    .is_some_and(|(_, rel)| rel.remove(&f.args));
                prop_assert_eq!(set.remove(&f), removed);
            }
        }
        prop_assert_eq!(set.len(), oracle.iter().map(|(_, r)| r.len()).sum::<usize>());
        let preds: Vec<Sym> = set.predicates().collect();
        let oracle_preds: Vec<Sym> = oracle.iter().map(|(p, _)| *p).collect();
        prop_assert_eq!(preds, oracle_preds, "predicate first-insertion order");
        // Full iteration: predicate-then-tuple insertion order.
        let facts: Vec<Fact> = set.iter().collect();
        let expect: Vec<Fact> = oracle
            .iter()
            .flat_map(|(p, rel)| {
                rel.live_tuples()
                    .into_iter()
                    .map(|args| Fact { pred: *p, args })
            })
            .collect();
        prop_assert_eq!(facts, expect, "fact iteration order");
        for (p, rel) in &oracle {
            let chunked = set.relation(*p).expect("touched predicate is routed");
            prop_assert_eq!(chunked.page_shape(), rel.page_shape());
            prop_assert_eq!(chunked.stale_slots(), rel.stale_slots());
        }
    }
}

// ---------------------------------------------------------------------------
// Page aliasing: the mechanism itself.
// ---------------------------------------------------------------------------

#[test]
fn cloning_shares_all_pages_and_mutation_unshares_only_the_touched_one() {
    let mut rel = Relation::new(2);
    let n = PAGE_CAP * 3 + 10;
    for k in 0..n {
        rel.insert(&tuple(k));
    }
    assert_eq!(rel.page_shape().len(), 4);

    let snap = rel.clone();
    assert_eq!(rel.shared_pages_with(&snap), 4, "clone shares every page");

    // Appending lands in the tail page: 3 of 4 stay physically shared.
    let before = rel.cow_stats();
    rel.insert(&tuple(n));
    assert_eq!(rel.shared_pages_with(&snap), 3);

    // Deleting from the first (sealed) page unshares exactly it.
    rel.remove(&tuple(0));
    assert_eq!(rel.shared_pages_with(&snap), 2);
    let after = rel.cow_stats();
    assert_eq!(
        after.pages_cloned,
        before.pages_cloned + 2,
        "both mutations paid exactly one page COW each"
    );

    // The snapshot still answers from the pinned state...
    assert!(snap.contains(&tuple(0)));
    assert!(!snap.contains(&tuple(n)));
    assert_eq!(snap.len(), n);
    // ...and the live side from the new one.
    assert!(!rel.contains(&tuple(0)));
    assert!(rel.contains(&tuple(n)));
    assert_eq!(rel.len(), n);
}

#[test]
fn factset_clones_share_pages_per_relation() {
    let mut set = FactSet::new();
    for k in 0..(PAGE_CAP + 50) {
        set.insert(&Fact::parse_like("p", &[&format!("a{k}"), "x"]));
        set.insert(&Fact::parse_like("q", &[&format!("b{k}")]));
    }
    let snap = set.clone();
    let shared = |set: &FactSet, pred: &str| {
        let p = Sym::new(pred);
        set.relation(p)
            .unwrap()
            .shared_pages_with(snap.relation(p).unwrap())
    };
    assert_eq!(shared(&set, "p"), 2);
    assert_eq!(shared(&set, "q"), 2);

    // Mutating one predicate's tail page leaves the sealed page and the
    // entire sibling relation untouched.
    set.insert(&Fact::parse_like("p", &["fresh", "x"]));
    assert_eq!(shared(&set, "p"), 1);
    assert_eq!(shared(&set, "q"), 2);
    assert_eq!(snap.len(), 2 * (PAGE_CAP + 50));
    assert_eq!(set.len(), 2 * (PAGE_CAP + 50) + 1);
}

// ---------------------------------------------------------------------------
// Through the commit pipeline: one hot relation, many writers.
// ---------------------------------------------------------------------------

/// Rounds of writers that all begin at one version and append disjoint
/// keys to `ledger`, committing in writer order. Returns the COW bytes
/// the appends cloned from the database's relation family.
fn hot_relation_rounds(db: &ConcurrentDatabase, rounds: usize, writers: usize) -> u64 {
    let before = db.with_database(|d| d.facts().cow_stats());
    for round in 0..rounds {
        let txns: Vec<_> = (0..writers)
            .map(|w| {
                let mut txn = db.begin();
                txn.stage(Update::insert(Fact::parse_like(
                    "ledger",
                    &[&format!("w{w}_k{round}"), &format!("w{w}_v{round}")],
                )));
                txn
            })
            .collect();
        for txn in &txns {
            db.commit(txn).expect("disjoint-key appends admit");
        }
    }
    db.with_database(|d| d.facts().cow_stats()).bytes_cloned - before.bytes_cloned
}

#[test]
fn disjoint_key_writers_admit_and_clone_only_touched_pages() {
    const ROUNDS: usize = 4;
    const WRITERS: usize = 8;
    // Same tail-page fill, 4 vs 16 pages of bulk: what a commit clones
    // must not depend on the bulk.
    let cloned: Vec<u64> = [4 * PAGE_CAP + 7, 16 * PAGE_CAP + 7]
        .into_iter()
        .map(|rows| {
            let db = ConcurrentDatabase::from_database(
                workload::hot_relation_db(rows, 42),
                UniformOptions::default(),
            );
            let bytes = hot_relation_rounds(&db, ROUNDS, WRITERS);
            let report = db.obs_report();
            let stats = |name| report.counter(name).unwrap();
            assert_eq!(
                stats("txn.commits.admitted"),
                (ROUNDS * WRITERS) as u64,
                "{report}"
            );
            assert_eq!(
                stats("txn.conflicts.key") + stats("txn.conflicts.relation"),
                0
            );
            assert_eq!(stats("txn.conflicts.whole_relation_fallbacks"), 0);
            assert_eq!(
                db.with_database(|d| d.facts().len()),
                rows + 1 + ROUNDS * WRITERS
            );

            // A writer staging past the per-relation key cap latches
            // its footprint to a whole-relation read: one fallback.
            let mut wide = db.begin();
            for i in 0..80 {
                wide.stage(Update::insert(Fact::parse_like(
                    "ledger",
                    &[&format!("wide{i}"), &format!("wv{i}")],
                )));
            }
            db.commit(&wide).expect("widened append admits unopposed");
            assert_eq!(
                db.obs_report()
                    .counter("txn.conflicts.whole_relation_fallbacks"),
                Some(1)
            );
            bytes
        })
        .collect();
    assert!(cloned[0] > 0, "pinned pages must be copied, not mutated");
    assert_eq!(
        cloned[0], cloned[1],
        "per-commit COW cost tracks touched pages, not relation size"
    );
}
