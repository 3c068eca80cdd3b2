//! Updates: ground literals (Def. 1) and transactions.
//!
//! "Let single-fact updates be represented by literals, a positive literal
//! indicating insertion, a negative literal indicating deletion." The
//! update semantics of Def. 1 make re-insertion and absent-deletion
//! no-ops.

use crate::store::FactSet;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use uniform_logic::{Fact, Literal, SymState};

/// A ground single-fact update.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Update {
    pub insert: bool,
    pub fact: Fact,
}

impl Update {
    pub fn insert(fact: Fact) -> Update {
        Update { insert: true, fact }
    }

    pub fn delete(fact: Fact) -> Update {
        Update {
            insert: false,
            fact,
        }
    }

    /// From a ground literal; `None` if the literal has variables.
    pub fn from_literal(lit: &Literal) -> Option<Update> {
        Some(Update {
            insert: lit.positive,
            fact: lit.atom.to_fact()?,
        })
    }

    /// The update as a literal (the representation Definitions 2–6 use).
    pub fn to_literal(&self) -> Literal {
        Literal::new(self.insert, self.fact.to_atom())
    }

    /// The complement literal (what constraint literals must unify with
    /// for the constraint to be relevant, Def. 2).
    pub fn complement(&self) -> Literal {
        Literal::new(!self.insert, self.fact.to_atom())
    }

    /// The inserted fact, if this is an insertion.
    pub fn added(&self) -> Option<&Fact> {
        self.insert.then_some(&self.fact)
    }

    /// The deleted fact, if this is a deletion.
    pub fn removed(&self) -> Option<&Fact> {
        (!self.insert).then_some(&self.fact)
    }

    /// Apply to a fact base per Def. 1. Returns `true` if the database
    /// changed.
    pub fn apply(&self, edb: &mut FactSet) -> bool {
        if self.insert {
            edb.insert(&self.fact)
        } else {
            edb.remove(&self.fact)
        }
    }

    /// Undo a previously applied update (only meaningful if `apply`
    /// returned `true`).
    pub fn undo(&self, edb: &mut FactSet) {
        if self.insert {
            edb.remove(&self.fact);
        } else {
            edb.insert(&self.fact);
        }
    }

    /// Is this update effective on `edb` (would `apply` change it)?
    pub fn is_effective(&self, edb: &FactSet) -> bool {
        self.insert != edb.contains(&self.fact)
    }
}

impl fmt::Debug for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.insert {
            write!(f, "+{}", self.fact)
        } else {
            write!(f, "-{}", self.fact)
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A transaction: a sequence of single-fact updates applied atomically
/// (§3.2 mentions the extension to transactions, worked out in BRY 87).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transaction {
    pub updates: Vec<Update>,
}

impl Transaction {
    pub fn new(updates: Vec<Update>) -> Transaction {
        Transaction { updates }
    }

    pub fn single(update: Update) -> Transaction {
        Transaction {
            updates: vec![update],
        }
    }

    pub fn len(&self) -> usize {
        self.updates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Apply all updates in order; returns the ones that were effective
    /// (needed for precise undo).
    pub fn apply(&self, edb: &mut FactSet) -> Vec<Update> {
        let mut effective = Vec::new();
        for u in &self.updates {
            if u.apply(edb) {
                effective.push(u.clone());
            }
        }
        effective
    }

    /// Undo a set of effective updates (in reverse order).
    pub fn undo(effective: &[Update], edb: &mut FactSet) {
        for u in effective.iter().rev() {
            u.undo(edb);
        }
    }

    /// The net effect of the transaction on `edb` under Def. 1 semantics:
    /// the facts that end up inserted and deleted once intermediate
    /// insert-then-delete (and vice versa) pairs cancel out. Integrity
    /// checking only ever needs the net effect.
    pub fn net_effect(&self, edb: &FactSet) -> (Vec<Fact>, Vec<Fact>) {
        net_effect(self.updates.iter().map(|u| (&u.fact, u.insert)), edb)
    }
}

/// The net effect on `edb` of the writes `(fact, insert)` in order: a
/// fact's last write decides it; facts come out in first-write order.
pub(crate) fn net_effect<'f>(
    writes: impl IntoIterator<Item = (&'f Fact, bool)>,
    edb: &FactSet,
) -> (Vec<Fact>, Vec<Fact>) {
    let mut at: HashMap<&Fact, usize, SymState> = HashMap::default();
    let mut last: Vec<(&Fact, bool)> = Vec::new();
    for (fact, insert) in writes {
        match at.entry(fact) {
            Entry::Occupied(slot) => last[*slot.get()].1 = insert,
            Entry::Vacant(slot) => {
                slot.insert(last.len());
                last.push((fact, insert));
            }
        }
    }
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (fact, want) in last {
        match (edb.contains(fact), want) {
            (false, true) => added.push(fact.clone()),
            (true, false) => removed.push(fact.clone()),
            _ => {}
        }
    }
    (added, removed)
}

impl FromIterator<Update> for Transaction {
    fn from_iter<I: IntoIterator<Item = Update>>(iter: I) -> Transaction {
        Transaction {
            updates: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniform_logic::parse_literal;

    fn fact(p: &str, args: &[&str]) -> Fact {
        Fact::parse_like(p, args)
    }

    #[test]
    fn literal_round_trip() {
        let u = Update::from_literal(&parse_literal("not q(c1,c2)").unwrap()).unwrap();
        assert!(!u.insert);
        assert_eq!(u.to_literal().to_string(), "not q(c1,c2)");
        assert_eq!(u.complement().to_string(), "q(c1,c2)");
        assert!(Update::from_literal(&parse_literal("q(X)").unwrap()).is_none());
    }

    #[test]
    fn apply_and_undo() {
        let mut edb = FactSet::new();
        let ins = Update::insert(fact("p", &["a"]));
        assert!(ins.apply(&mut edb));
        assert!(edb.contains(&fact("p", &["a"])));
        assert!(!ins.apply(&mut edb), "re-insert is a no-op (Def. 1)");
        ins.undo(&mut edb);
        assert!(!edb.contains(&fact("p", &["a"])));

        let del = Update::delete(fact("p", &["a"]));
        assert!(!del.apply(&mut edb), "absent delete is a no-op (Def. 1)");
        edb.insert(&fact("p", &["a"]));
        assert!(del.apply(&mut edb));
        del.undo(&mut edb);
        assert!(edb.contains(&fact("p", &["a"])));
    }

    #[test]
    fn effectiveness() {
        let mut edb = FactSet::new();
        edb.insert(&fact("p", &["a"]));
        assert!(!Update::insert(fact("p", &["a"])).is_effective(&edb));
        assert!(Update::insert(fact("p", &["b"])).is_effective(&edb));
        assert!(Update::delete(fact("p", &["a"])).is_effective(&edb));
        assert!(!Update::delete(fact("p", &["b"])).is_effective(&edb));
    }

    #[test]
    fn net_effect_cancels_and_filters_noops() {
        let mut edb = FactSet::new();
        edb.insert(&fact("p", &["a"]));
        let tx = Transaction::new(vec![
            Update::insert(fact("q", &["b"])), // real insertion
            Update::insert(fact("p", &["a"])), // no-op: already present
            Update::insert(fact("r", &["c"])),
            Update::delete(fact("r", &["c"])), // cancels the previous insert
            Update::delete(fact("p", &["a"])), // supersedes the no-op insert
        ]);
        let (mut added, removed) = tx.net_effect(&edb);
        added.sort();
        assert_eq!(added, vec![fact("q", &["b"])]);
        assert_eq!(removed, vec![fact("p", &["a"])]);
    }

    #[test]
    fn transaction_apply_undo_round_trip() {
        let mut edb = FactSet::new();
        edb.insert(&fact("p", &["a"]));
        let tx = Transaction::new(vec![
            Update::delete(fact("p", &["a"])),
            Update::insert(fact("q", &["b"])),
            Update::insert(fact("p", &["a"])), // re-inserts what we deleted
        ]);
        let snapshot: Vec<Fact> = {
            let mut v: Vec<Fact> = edb.iter().collect();
            v.sort();
            v
        };
        let effective = tx.apply(&mut edb);
        assert_eq!(effective.len(), 3);
        assert!(edb.contains(&fact("q", &["b"])));
        Transaction::undo(&effective, &mut edb);
        let mut after: Vec<Fact> = edb.iter().collect();
        after.sort();
        assert_eq!(snapshot, after);
    }
}
