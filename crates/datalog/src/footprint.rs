//! Key-fingerprint read footprints for sub-relation conflict detection.
//!
//! PR 2's commit pipeline detected conflicts over *relation-level*
//! read/write sets: any write into a relation a transaction read
//! refused that transaction, so a single hot relation serialized every
//! writer. But the paper's checking method is delta-driven — a check's
//! verdict depends on the tuples its simplified instances actually
//! probed, which are pinned down by the constants in those instances.
//! This module narrows the read set accordingly: a read is either
//! [`RelAccess::Whole`] (genuinely unbounded — any later write
//! conflicts) or a set of [`KeyFp`] *key fingerprints*, each the hash
//! of the bound argument positions of one access pattern. A committed
//! write conflicts with a key-level read only when the written tuple's
//! projection onto the read's bound positions matches the fingerprint
//! — so writers appending disjoint keys to the same relation admit
//! concurrently (`tests/prop_chunked_store.rs` asserts exactly this).
//!
//! Fingerprints compare by hash, so a collision can only produce a
//! *spurious* conflict (the loser retries against a fresh snapshot —
//! safe), never a missed one: soundness of admission does not depend
//! on the hash. Hashing uses [`DefaultHasher`], whose keys are fixed
//! per build, and nothing here exposes an iteration order that could
//! leak hash-dependence into user-visible output.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use uniform_logic::Sym;

/// One access pattern of an integrity check: the predicate it probed
/// and, per argument position, the constant that position was bound to
/// (`None` = unbounded). The integrity checker derives these from the
/// constants of its simplified instances (see
/// `uniform_integrity::CheckReport::read_patterns`); the commit
/// pipeline records them via `TxnBuilder::record_read_patterns`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadPattern {
    pub pred: Sym,
    pub args: Vec<Option<Sym>>,
}

impl ReadPattern {
    /// A fully unbounded pattern (reads the whole relation).
    pub fn whole(pred: Sym, arity: usize) -> ReadPattern {
        ReadPattern {
            pred,
            args: vec![None; arity],
        }
    }

    /// Is any argument position bound?
    pub fn is_bounded(&self) -> bool {
        self.args.iter().any(|a| a.is_some())
    }
}

/// Fingerprint of a bounded access: a bitmask of the bound argument
/// positions plus a hash of the bound constants in position order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyFp {
    mask: u32,
    hash: u64,
}

impl KeyFp {
    /// Fingerprint of a binding pattern; `None` when no position is
    /// bound or the arity exceeds the 32-position mask (both mean the
    /// access must be recorded as [`RelAccess::Whole`]).
    pub fn of_pattern(args: &[Option<Sym>]) -> Option<KeyFp> {
        let mut mask = 0u32;
        let mut h = DefaultHasher::new();
        for (i, a) in args.iter().enumerate() {
            if let Some(c) = a {
                if i >= 32 {
                    return None;
                }
                mask |= 1 << i;
                i.hash(&mut h);
                c.hash(&mut h);
            }
        }
        (mask != 0).then(|| KeyFp {
            mask,
            hash: h.finish(),
        })
    }

    /// Fingerprint of a ground tuple (every position bound) — what a
    /// staged write reads under Def. 1's effectiveness membership test.
    pub fn of_tuple(args: &[Sym]) -> Option<KeyFp> {
        if args.is_empty() || args.len() > 32 {
            return None;
        }
        let mut mask = 0u32;
        let mut h = DefaultHasher::new();
        for (i, c) in args.iter().enumerate() {
            mask |= 1 << i;
            i.hash(&mut h);
            c.hash(&mut h);
        }
        Some(KeyFp {
            mask,
            hash: h.finish(),
        })
    }

    /// Does a written ground tuple fall under this key? Projects the
    /// tuple onto the key's bound positions and compares fingerprints.
    pub fn covers(&self, tuple: &[Sym]) -> bool {
        let mut h = DefaultHasher::new();
        for (i, c) in tuple.iter().enumerate() {
            if i < 32 && self.mask & (1 << i) != 0 {
                i.hash(&mut h);
                c.hash(&mut h);
            }
        }
        h.finish() == self.hash
    }
}

/// Which granularity refused a conflicting commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictGranularity {
    /// An unbounded ([`RelAccess::Whole`]) read overlapped a write.
    Relation,
    /// A key fingerprint matched a written tuple.
    Key,
}

/// One relation's entry in a read footprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelAccess {
    /// Unbounded: the verdict depended on the relation as a whole; any
    /// later write into it conflicts.
    Whole,
    /// Bounded: only writes whose tuples match one of these key
    /// fingerprints conflict.
    Keys(BTreeSet<KeyFp>),
}

/// Distinct key fingerprints a relation may accumulate before its
/// entry widens to [`RelAccess::Whole`] (bounding both memory and the
/// per-write conflict scan).
const MAX_KEYS_PER_RELATION: usize = 64;

/// The read footprint of a transaction: per relation, an unbounded
/// access or a set of key fingerprints. Merging is monotonic — `Whole`
/// absorbs keys, and overflowing `MAX_KEYS_PER_RELATION` widens to
/// `Whole` (sound: widening can only add conflicts, never hide one).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadFootprint {
    map: BTreeMap<Sym, RelAccess>,
    /// Relations whose key set overflowed [`MAX_KEYS_PER_RELATION`]: an
    /// explicit sticky latch, consulted before every key-level record,
    /// so the widening to `Whole` can never be reverted — not even by a
    /// code path that rebuilds or replaces the relation's entry. Kept
    /// separate from `map` so overflow-widening stays distinguishable
    /// from a deliberate [`ReadFootprint::record_whole`]
    /// (`txn.conflicts.whole_relation_fallbacks` counts the former).
    widened: BTreeSet<Sym>,
}

impl ReadFootprint {
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Relations read, in `Sym` order.
    pub fn relations(&self) -> impl Iterator<Item = Sym> + '_ {
        self.map.keys().copied()
    }

    pub fn get(&self, pred: Sym) -> Option<&RelAccess> {
        self.map.get(&pred)
    }

    /// Does any relation carry an unbounded (`Whole`) access?
    pub fn has_unbounded(&self) -> bool {
        self.map.values().any(|a| matches!(a, RelAccess::Whole))
    }

    /// Record an unbounded read of `pred`.
    pub fn record_whole(&mut self, pred: Sym) {
        self.map.insert(pred, RelAccess::Whole);
    }

    /// Record a key-level read of `pred`. Once the relation's key set
    /// has overflowed, every further key-level read stays a
    /// whole-relation one (the latch, not the entry, is authoritative).
    pub fn record_key(&mut self, pred: Sym, fp: KeyFp) {
        if self.widened.contains(&pred) {
            self.map.insert(pred, RelAccess::Whole);
            return;
        }
        let entry = self
            .map
            .entry(pred)
            .or_insert_with(|| RelAccess::Keys(BTreeSet::new()));
        if let RelAccess::Keys(keys) = entry {
            keys.insert(fp);
            if keys.len() > MAX_KEYS_PER_RELATION {
                *entry = RelAccess::Whole;
                self.widened.insert(pred);
            }
        }
    }

    /// Did `pred` widen to an unbounded read by key overflow (as
    /// opposed to a deliberate [`ReadFootprint::record_whole`])?
    pub fn overflowed(&self, pred: Sym) -> bool {
        self.widened.contains(&pred)
    }

    /// Record a binding-pattern read: key-level when the pattern pins
    /// at least one position, unbounded otherwise.
    pub fn record_pattern(&mut self, pattern: &ReadPattern) {
        match KeyFp::of_pattern(&pattern.args) {
            Some(fp) => self.record_key(pattern.pred, fp),
            None => self.record_whole(pattern.pred),
        }
    }

    /// Record the read a staged write implies: Def. 1 effectiveness is
    /// a membership test of one ground tuple — a key-level read, never
    /// a whole-relation one.
    pub fn record_tuple(&mut self, pred: Sym, args: &[Sym]) {
        match KeyFp::of_tuple(args) {
            Some(fp) => self.record_key(pred, fp),
            None => self.record_whole(pred),
        }
    }

    /// Would a committed write of `tuple` into `pred` invalidate this
    /// footprint, and at which granularity?
    pub fn conflicts_with_write(&self, pred: Sym, tuple: &[Sym]) -> Option<ConflictGranularity> {
        match self.map.get(&pred)? {
            RelAccess::Whole => Some(ConflictGranularity::Relation),
            RelAccess::Keys(keys) => keys
                .iter()
                .any(|fp| fp.covers(tuple))
                .then_some(ConflictGranularity::Key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(parts: &[&str]) -> Vec<Sym> {
        parts.iter().map(|s| Sym::new(s)).collect()
    }

    #[test]
    fn tuple_fingerprints_cover_exactly_their_tuple_modulo_hash() {
        let fp = KeyFp::of_tuple(&syms(&["k1", "v1"])).unwrap();
        assert!(fp.covers(&syms(&["k1", "v1"])));
        assert!(!fp.covers(&syms(&["k1", "v2"])));
        assert!(!fp.covers(&syms(&["k2", "v1"])));
    }

    #[test]
    fn pattern_fingerprints_project_bound_positions() {
        // Bound first position only: covers any tuple with that key.
        let fp = KeyFp::of_pattern(&[Some(Sym::new("k1")), None]).unwrap();
        assert!(fp.covers(&syms(&["k1", "v1"])));
        assert!(fp.covers(&syms(&["k1", "v2"])));
        assert!(!fp.covers(&syms(&["k2", "v1"])));
        // An all-unbound pattern has no key.
        assert_eq!(KeyFp::of_pattern(&[None, None]), None);
        // Zero-arity tuples have no key either (the relation is the key).
        assert_eq!(KeyFp::of_tuple(&[]), None);
    }

    #[test]
    fn footprint_conflicts_at_the_right_granularity() {
        let p = Sym::new("p");
        let q = Sym::new("q");
        let mut fp = ReadFootprint::default();
        fp.record_tuple(p, &syms(&["a", "1"]));
        fp.record_whole(q);
        assert_eq!(
            fp.conflicts_with_write(p, &syms(&["a", "1"])),
            Some(ConflictGranularity::Key)
        );
        assert_eq!(fp.conflicts_with_write(p, &syms(&["b", "1"])), None);
        assert_eq!(
            fp.conflicts_with_write(q, &syms(&["anything"])),
            Some(ConflictGranularity::Relation)
        );
        assert_eq!(fp.conflicts_with_write(Sym::new("r"), &syms(&["x"])), None);
        assert!(fp.has_unbounded());
    }

    #[test]
    fn whole_absorbs_keys_and_overflow_widens() {
        let p = Sym::new("p");
        let mut fp = ReadFootprint::default();
        fp.record_whole(p);
        fp.record_tuple(p, &syms(&["a"]));
        assert!(matches!(fp.get(p), Some(RelAccess::Whole)));

        let mut fp = ReadFootprint::default();
        for i in 0..(MAX_KEYS_PER_RELATION + 1) {
            fp.record_tuple(p, &syms(&[&format!("k{i}")]));
        }
        assert!(
            matches!(fp.get(p), Some(RelAccess::Whole)),
            "past the cap the entry widens to a whole-relation read"
        );
        assert_eq!(
            fp.conflicts_with_write(p, &syms(&["never-recorded"])),
            Some(ConflictGranularity::Relation)
        );
    }

    #[test]
    fn overflow_widening_latches_and_never_reverts() {
        let p = Sym::new("p");
        let q = Sym::new("q");
        let mut fp = ReadFootprint::default();
        for i in 0..(MAX_KEYS_PER_RELATION + 1) {
            fp.record_tuple(p, &syms(&[&format!("k{i}")]));
        }
        assert!(fp.overflowed(p), "the overflow sets the latch");
        assert!(fp.has_unbounded());

        // Any further key-level read of the latched relation stays a
        // whole-relation read — it must never rebuild a `Keys` entry
        // that would hide the earlier unbounded dependence.
        fp.record_tuple(p, &syms(&["later"]));
        assert!(matches!(fp.get(p), Some(RelAccess::Whole)));
        assert_eq!(
            fp.conflicts_with_write(p, &syms(&["unrelated"])),
            Some(ConflictGranularity::Relation),
            "latched relations conflict at relation granularity"
        );

        // A deliberate whole-relation read is *not* an overflow: the
        // latch keeps the two distinguishable for the conflict counters.
        fp.record_whole(q);
        assert!(!fp.overflowed(q));
        assert!(fp.overflowed(p));
    }
}
