//! The interpretation interface shared by every evaluator.
//!
//! Constraint evaluation, rule bodies, ranges of restricted quantifiers —
//! everything queries the database through [`Interp`]: membership tests
//! and indexed scans. Implementors include the raw [`FactSet`]
//! (relational case), the materialized canonical [`Model`]
//! (deductive case), and the overlay engine that simulates the updated
//! database for `new` (§3.3.2) without applying the update.
//!
//! [`FactSet`]: crate::store::FactSet
//! [`Model`]: crate::model::Model

use crate::store::FactSet;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use uniform_logic::{Fact, Sym, SymState};

/// A (possibly virtual) interpretation: the set of true ground atoms.
pub trait Interp {
    /// Is `fact` true?
    fn holds(&self, fact: &Fact) -> bool;

    /// Is `pred(args)` true? The evaluators' ground-literal test, asked
    /// with a borrowed tuple. The default builds the fact and asks
    /// [`Interp::holds`]; the store's interpretations ([`FactSet`],
    /// [`crate::Model`], [`Overlay`], [`crate::Hypothetical`] and the
    /// kernel's flipped views)
    /// answer from the tuple itself and allocate nothing. An override
    /// must agree with `holds`.
    fn holds_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        self.holds(&Fact {
            pred,
            args: args.to_vec(),
        })
    }

    /// Enumerate true facts of `pred` whose argument at position `i`
    /// equals `pattern[i]` wherever it is `Some`. `each` returns `false`
    /// to abort; the return value reports whether the scan completed.
    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool;
}

impl Interp for FactSet {
    fn holds(&self, fact: &Fact) -> bool {
        self.contains(fact)
    }

    fn holds_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        self.contains_tuple(pred, args)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        match self.relation(pred) {
            Some(rel) if rel.arity() == pattern.len() => rel.scan(pattern, each),
            _ => true,
        }
    }
}

/// An interpretation shifted by an update: `base` with the facts in
/// `added` treated as true and those in `removed` as false (a single-fact
/// update uses one-element slices; a transaction its net effect).
/// Zero-copy view used by both the relational checker and as the EDB
/// layer of the deductive overlay engine.
pub struct Overlay<'a, I: ?Sized> {
    pub base: &'a I,
    pub added: &'a [Fact],
    pub removed: &'a [Fact],
}

impl<'a, I: Interp + ?Sized> Overlay<'a, I> {
    pub fn new(base: &'a I, added: &'a [Fact], removed: &'a [Fact]) -> Self {
        Overlay {
            base,
            added,
            removed,
        }
    }
}

impl<I: Interp + ?Sized> Interp for Overlay<'_, I> {
    fn holds(&self, fact: &Fact) -> bool {
        self.holds_tuple(fact.pred, &fact.args)
    }

    fn holds_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        let is = |f: &Fact| f.pred == pred && f.args == args;
        if self.added.iter().any(is) {
            return true;
        }
        if self.removed.iter().any(is) {
            return false;
        }
        self.base.holds_tuple(pred, args)
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        let matches = |f: &Fact| {
            f.pred == pred
                && f.args.len() == pattern.len()
                && pattern
                    .iter()
                    .zip(&f.args)
                    .all(|(p, &v)| p.is_none_or(|c| c == v))
        };
        for add in self.added {
            if matches(add) && !self.base.holds(add) && !each(&add.args) {
                return false;
            }
        }
        let removed = self.removed;
        self.base.scan(pred, pattern, &mut |args| {
            if removed.iter().any(|f| f.pred == pred && f.args == args) {
                return true;
            }
            each(args)
        })
    }
}

/// `base` with a set of truth flips applied, grown one flip at a time.
/// Unlike [`Overlay`]'s slices both sides are hashed (the true side is
/// an indexed [`FactSet`]), so a probe costs the same however many facts
/// have flipped — the view the propagation kernel
/// ([`crate::maintain`]) builds its states from. `base` is a reference,
/// or an owning pointer (a hypothetical state holds its base model's
/// `Arc`).
pub(crate) struct Flipped<B> {
    pub(crate) base: B,
    added: FactSet,
    removed: HashMap<Sym, HashSet<Vec<Sym>, SymState>, SymState>,
}

impl<B> Flipped<B> {
    pub(crate) fn new(base: B) -> Self {
        Flipped {
            base,
            added: FactSet::new(),
            removed: HashMap::default(),
        }
    }

    /// Record that `fact` now has truth value `now` (it must have had
    /// the other one in this view).
    pub(crate) fn set(&mut self, fact: &Fact, now: bool) {
        if now {
            let restored = self
                .removed
                .get_mut(&fact.pred)
                .is_some_and(|rel| rel.remove(&fact.args));
            if !restored {
                self.added.insert(fact);
            }
        } else if !self.added.remove(fact) {
            self.removed
                .entry(fact.pred)
                .or_default()
                .insert(fact.args.clone());
        }
    }

    /// The facts true here but not in `base`, in insertion order.
    pub(crate) fn added(&self) -> &FactSet {
        &self.added
    }
}

impl<B: Deref<Target: Interp>> Interp for Flipped<B> {
    fn holds(&self, fact: &Fact) -> bool {
        self.holds_tuple(fact.pred, &fact.args)
    }

    fn holds_tuple(&self, pred: Sym, args: &[Sym]) -> bool {
        self.added.contains_tuple(pred, args)
            || (!self
                .removed
                .get(&pred)
                .is_some_and(|rel| rel.contains(args))
                && self.base.holds_tuple(pred, args))
    }

    fn scan(
        &self,
        pred: Sym,
        pattern: &[Option<Sym>],
        each: &mut dyn FnMut(&[Sym]) -> bool,
    ) -> bool {
        if !self.added.scan(pred, pattern, each) {
            return false;
        }
        match self.removed.get(&pred).filter(|rel| !rel.is_empty()) {
            None => self.base.scan(pred, pattern, each),
            Some(removed) => self.base.scan(pred, pattern, &mut |args| {
                removed.contains(args) || each(args)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact(p: &str, args: &[&str]) -> Fact {
        Fact::parse_like(p, args)
    }

    #[test]
    fn factset_is_an_interp() {
        let fs = FactSet::from_facts([fact("p", &["a"]), fact("p", &["b"])]);
        assert!(fs.holds(&fact("p", &["a"])));
        assert!(!fs.holds(&fact("p", &["c"])));
        let mut n = 0;
        fs.scan(Sym::new("p"), &[None], &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 2);
        // Unknown predicate scans empty.
        assert!(fs.scan(Sym::new("zzz"), &[None], &mut |_| false));
    }

    #[test]
    fn overlay_insertion_visible() {
        let fs = FactSet::from_facts([fact("p", &["a"])]);
        let add = fact("p", &["b"]);
        let ov = Overlay::new(&fs, std::slice::from_ref(&add), &[]);
        assert!(ov.holds(&fact("p", &["b"])));
        assert!(ov.holds(&fact("p", &["a"])));
        let mut seen = Vec::new();
        ov.scan(Sym::new("p"), &[None], &mut |t| {
            seen.push(t[0].as_str());
            true
        });
        seen.sort();
        assert_eq!(seen, vec!["a", "b"]);
    }

    #[test]
    fn overlay_deletion_hidden() {
        let fs = FactSet::from_facts([fact("p", &["a"]), fact("p", &["b"])]);
        let del = fact("p", &["a"]);
        let ov = Overlay::new(&fs, &[], std::slice::from_ref(&del));
        assert!(!ov.holds(&fact("p", &["a"])));
        assert!(ov.holds(&fact("p", &["b"])));
        let mut seen = Vec::new();
        ov.scan(Sym::new("p"), &[None], &mut |t| {
            seen.push(t[0].as_str());
            true
        });
        assert_eq!(seen, vec!["b"]);
    }

    #[test]
    fn overlay_insert_existing_fact_not_duplicated() {
        let fs = FactSet::from_facts([fact("p", &["a"])]);
        let add = fact("p", &["a"]);
        let ov = Overlay::new(&fs, std::slice::from_ref(&add), &[]);
        let mut n = 0;
        ov.scan(Sym::new("p"), &[None], &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn overlay_scan_respects_pattern() {
        let fs = FactSet::from_facts([fact("q", &["a", "x"])]);
        let add = fact("q", &["b", "y"]);
        let ov = Overlay::new(&fs, std::slice::from_ref(&add), &[]);
        let mut seen = Vec::new();
        ov.scan(Sym::new("q"), &[Some(Sym::new("b")), None], &mut |t| {
            seen.push(t.to_vec());
            true
        });
        assert_eq!(seen, vec![vec![Sym::new("b"), Sym::new("y")]]);
    }
}
