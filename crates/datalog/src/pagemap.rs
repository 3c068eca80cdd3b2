//! A persistent (path-copying) hash trie from tuples to page slots.
//!
//! `SlotMap` is the router of the chunked fact store
//! ([`crate::store`]): it maps every tuple a relation has ever held —
//! live or tombstoned — to the page and offset of its slot. The trie is
//! built from `Arc`-shared nodes, so cloning a map is one refcount bump
//! and an insert or remove copies only the O(log n) nodes on the path
//! to the touched leaf. That is what keeps a whole-`Relation` clone
//! O(#pages) and a commit-time mutation O(delta): snapshot holders keep
//! the old root, the writer re-links a handful of fresh nodes.
//!
//! The trie stores no tuple. A leaf entry is a key's 64-bit hash and
//! its slot, and every operation takes the key's hash (`hash_tuple`)
//! with an `eq` that says whether a slot holds the key — the store
//! compares against the page's flat tuple. A fresh insert therefore
//! allocates no key, and a path copy memcpys plain data.
//!
//! Keys are hashed with [`SymHasher`], one multiply per interned
//! symbol, and its high half is folded into the low half because the
//! trie branches on the low nibbles first. The hash is fixed (not
//! per-process randomized), and no iteration order is ever exposed —
//! lookups, inserts and removes are the entire API — so the trie
//! cannot leak hash-dependent order into user-visible output (the
//! determinism-digest discipline of `tests/determinism.rs`).

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use uniform_logic::{Sym, SymHasher};

/// Location of a tuple inside a chunked relation: the page ordinal in
/// the relation's page table and the slot offset within that page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotRef {
    pub page: u32,
    pub offset: u16,
}

const BITS: u32 = 4;
const FANOUT: usize = 1 << BITS; // 16-way branching
const MAX_DEPTH: u32 = 64 / BITS; // past this, leaves are pure collision buckets
const LEAF_MAX: usize = 8;

#[derive(Clone, Debug)]
enum Node {
    /// Bucket of `(hash, slot)`; order is never observed.
    Leaf(Vec<(u64, SlotRef)>),
    Branch(Box<[Option<Arc<Node>>; FANOUT]>),
}

/// The router hash of a tuple, given as its values in column order.
pub(crate) fn hash_tuple<'a>(key: impl IntoIterator<Item = &'a Sym>) -> u64 {
    let mut h = SymHasher::default();
    for value in key {
        value.hash(&mut h);
    }
    let x = h.finish();
    x ^ x >> 32
}

fn branch_index(hash: u64, depth: u32) -> usize {
    ((hash >> (depth * BITS)) & (FANOUT as u64 - 1)) as usize
}

/// Persistent tuple → [`SlotRef`] map with O(1) clone. Each operation
/// takes the key's `hash_tuple` and an `eq` telling whether a slot
/// holds the key; `eq` is asked only about slots of equal hash.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotMap {
    root: Option<Arc<Node>>,
    len: usize,
}

impl SlotMap {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, hash: u64, eq: impl Fn(SlotRef) -> bool) -> Option<SlotRef> {
        let mut node = self.root.as_deref()?;
        let mut depth = 0;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return entries
                        .iter()
                        .find(|&&(h, slot)| h == hash && eq(slot))
                        .map(|&(_, slot)| slot);
                }
                Node::Branch(children) => {
                    node = children[branch_index(hash, depth)].as_deref()?;
                    depth += 1;
                }
            }
        }
    }

    /// Insert or replace; returns the previous slot if the key was
    /// present. Copies only the path from the root to the touched leaf.
    pub fn insert(
        &mut self,
        hash: u64,
        slot: SlotRef,
        eq: impl Fn(SlotRef) -> bool,
    ) -> Option<SlotRef> {
        let root = self
            .root
            .get_or_insert_with(|| Arc::new(Node::Leaf(Vec::new())));
        let prev = insert_rec(root, 0, hash, slot, &eq);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Remove; returns the slot the key mapped to, if any.
    pub fn remove(&mut self, hash: u64, eq: impl Fn(SlotRef) -> bool) -> Option<SlotRef> {
        let root = self.root.as_mut()?;
        let prev = remove_rec(root, 0, hash, &eq);
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }
}

fn insert_rec(
    node: &mut Arc<Node>,
    depth: u32,
    hash: u64,
    slot: SlotRef,
    eq: &impl Fn(SlotRef) -> bool,
) -> Option<SlotRef> {
    let n = Arc::make_mut(node);
    match n {
        Node::Leaf(entries) => {
            if let Some(e) = entries.iter_mut().find(|(h, s)| *h == hash && eq(*s)) {
                return Some(std::mem::replace(&mut e.1, slot));
            }
            entries.push((hash, slot));
            if entries.len() > LEAF_MAX && depth < MAX_DEPTH {
                let drained = std::mem::take(entries);
                let mut children: [Option<Arc<Node>>; FANOUT] = std::array::from_fn(|_| None);
                for entry in drained {
                    let idx = branch_index(entry.0, depth);
                    let child =
                        children[idx].get_or_insert_with(|| Arc::new(Node::Leaf(Vec::new())));
                    match Arc::get_mut(child).expect("freshly built child") {
                        Node::Leaf(bucket) => bucket.push(entry),
                        Node::Branch(_) => unreachable!("split builds leaves only"),
                    }
                }
                *n = Node::Branch(Box::new(children));
            }
            None
        }
        Node::Branch(children) => {
            let child = children[branch_index(hash, depth)]
                .get_or_insert_with(|| Arc::new(Node::Leaf(Vec::new())));
            insert_rec(child, depth + 1, hash, slot, eq)
        }
    }
}

fn remove_rec(
    node: &mut Arc<Node>,
    depth: u32,
    hash: u64,
    eq: &impl Fn(SlotRef) -> bool,
) -> Option<SlotRef> {
    // Probe before copying: a miss must not clone the path.
    match &**node {
        Node::Leaf(entries) => {
            let at = entries.iter().position(|&(h, s)| h == hash && eq(s))?;
            match Arc::make_mut(node) {
                Node::Leaf(entries) => Some(entries.swap_remove(at).1),
                Node::Branch(_) => unreachable!("node kind is stable across make_mut"),
            }
        }
        Node::Branch(_) => {
            let idx = branch_index(hash, depth);
            // Check the child exists without cloning this branch first.
            match &**node {
                Node::Branch(children) if children[idx].is_some() => {}
                _ => return None,
            }
            match Arc::make_mut(node) {
                Node::Branch(children) => {
                    let child = children[idx].as_mut().expect("checked above");
                    remove_rec(child, depth + 1, hash, eq)
                }
                Node::Leaf(_) => unreachable!("node kind is stable across make_mut"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(parts: &[&str]) -> Box<[Sym]> {
        parts.iter().map(|s| Sym::new(s)).collect()
    }

    fn slot(page: u32, offset: u16) -> SlotRef {
        SlotRef { page, offset }
    }

    /// The tuples the test's slots hold: the role the store's pages play.
    #[derive(Default)]
    struct Pages(BTreeMap<(u32, u16), Box<[Sym]>>);

    impl Pages {
        fn holds(&self, s: SlotRef, key: &[Sym]) -> bool {
            self.0.get(&(s.page, s.offset)).is_some_and(|k| **k == *key)
        }
    }

    fn hash(key: &[Sym]) -> u64 {
        hash_tuple(key)
    }

    fn get(m: &SlotMap, pages: &Pages, key: &[Sym]) -> Option<SlotRef> {
        m.get(hash(key), |s| pages.holds(s, key))
    }

    fn insert(m: &mut SlotMap, pages: &mut Pages, key: &[Sym], s: SlotRef) -> Option<SlotRef> {
        pages.0.insert((s.page, s.offset), key.into());
        m.insert(hash(key), s, |t| pages.holds(t, key))
    }

    fn remove(m: &mut SlotMap, pages: &Pages, key: &[Sym]) -> Option<SlotRef> {
        m.remove(hash(key), |s| pages.holds(s, key))
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let (mut m, mut pages) = (SlotMap::default(), Pages::default());
        let k = |i: u32| key(&[&format!("a{i}"), &format!("b{}", i % 7)]);
        for i in 0..500u32 {
            assert_eq!(insert(&mut m, &mut pages, &k(i), slot(i, 0)), None);
        }
        assert_eq!(m.len(), 500);
        for i in 0..500u32 {
            assert_eq!(get(&m, &pages, &k(i)), Some(slot(i, 0)));
        }
        assert_eq!(get(&m, &pages, &key(&["zzz", "b0"])), None);
        for i in 0..250u32 {
            assert_eq!(remove(&mut m, &pages, &k(i)), Some(slot(i, 0)));
            assert_eq!(remove(&mut m, &pages, &k(i)), None, "double remove");
        }
        assert_eq!(m.len(), 250);
        for i in 250..500u32 {
            assert_eq!(get(&m, &pages, &k(i)), Some(slot(i, 0)));
        }
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let (mut m, mut pages) = (SlotMap::default(), Pages::default());
        let k = key(&["x"]);
        assert_eq!(insert(&mut m, &mut pages, &k, slot(0, 3)), None);
        assert_eq!(insert(&mut m, &mut pages, &k, slot(1, 4)), Some(slot(0, 3)));
        assert_eq!(m.len(), 1);
        assert_eq!(get(&m, &pages, &k), Some(slot(1, 4)));
    }

    #[test]
    fn clones_are_independent_and_share_structure() {
        let (mut a, mut pages) = (SlotMap::default(), Pages::default());
        for i in 0..200u32 {
            insert(
                &mut a,
                &mut pages,
                &key(&[&format!("k{i}")]),
                slot(0, i as u16),
            );
        }
        let b = a.clone();
        // Mutate the original; the clone's view is stable.
        remove(&mut a, &pages, &key(&["k0"]));
        insert(&mut a, &mut pages, &key(&["k1"]), slot(9, 9));
        insert(&mut a, &mut pages, &key(&["fresh"]), slot(7, 7));
        assert_eq!(get(&b, &pages, &key(&["k0"])), Some(slot(0, 0)));
        assert_eq!(get(&b, &pages, &key(&["k1"])), Some(slot(0, 1)));
        assert_eq!(get(&b, &pages, &key(&["fresh"])), None);
        assert_eq!(b.len(), 200);
        assert_eq!(a.len(), 200);
    }

    /// Keys sharing one 64-bit hash are told apart by `eq` alone, in a
    /// small leaf and in the collision bucket past the last level.
    #[test]
    fn eq_tells_apart_keys_of_one_hash() {
        const H: u64 = 0x0123_4567_89ab_cdef;
        for n in [2u16, 3 * LEAF_MAX as u16] {
            let (mut m, mut pages) = (SlotMap::default(), Pages::default());
            let keys: Vec<Box<[Sym]>> = (0..n).map(|i| key(&[&format!("c{i}")])).collect();
            for (i, k) in keys.iter().enumerate() {
                pages.0.insert((0, i as u16), k.clone());
                assert_eq!(m.insert(H, slot(0, i as u16), |s| pages.holds(s, k)), None);
            }
            assert_eq!(m.len(), n as usize);
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(m.get(H, |s| pages.holds(s, k)), Some(slot(0, i as u16)));
            }
            // Re-route the first key; every other key keeps its slot.
            pages.0.insert((1, 0), keys[0].clone());
            let first = |s| pages.holds(s, &keys[0]);
            assert_eq!(m.insert(H, slot(1, 0), first), Some(slot(0, 0)));
            assert_eq!(m.get(H, first), Some(slot(1, 0)));
            let last = &keys[n as usize - 1];
            assert_eq!(m.remove(H, |s| pages.holds(s, last)), Some(slot(0, n - 1)));
            assert_eq!(m.get(H, |s| pages.holds(s, last)), None);
            for (i, k) in keys.iter().enumerate().skip(1).take(n as usize - 2) {
                assert_eq!(m.get(H, |s| pages.holds(s, k)), Some(slot(0, i as u16)));
            }
            assert_eq!(m.get(H, first), Some(slot(1, 0)));
            assert_eq!(m.len(), n as usize - 1);
        }
    }
}
