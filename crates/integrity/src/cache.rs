//! The compile phase, memoised per schema.
//!
//! §3.3.1 closes with: the update constraints "can be determined without
//! querying the facts", so they "can be precompiled as well". The
//! compile phase ([`Checker::compile`]) and the check's read-pattern
//! closure read only the rules, the constraints and the seed literals,
//! and they compare constants only for equality. Renaming one-to-one the
//! constants that occur in no rule and no constraint therefore commutes
//! with both.
//!
//! The entries live on the schema ([`Schema::derived`]), keyed by
//! [`CheckOptions`] and *abstract transaction*: the staged updates in
//! order, each argument that the schema mentions kept as itself, and
//! every other constant replaced by placeholder *k*, numbered by first
//! occurrence across the whole transaction, so equal constants share a
//! placeholder. A miss runs the ordinary compile and closure on the
//! placeholder transaction and lowers the compile to a program whose
//! placeholders are variables: trigger groups and their order, and each
//! instance's join orders, are fixed then. Every check binds the
//! placeholders to its own constants and runs that program; only the
//! read patterns are instantiated per check. The result is the ground
//! compile exactly: the same potential updates and update constraints in
//! the same order and the same read patterns, hence the same verdict,
//! violations and work counts as [`Checker::check`].
//!
//! Generalising constants to *variables* instead would not be exact: the
//! read set of `not attends(w4, ddb)` would widen from `attends(w4, _)`
//! to the whole relation, and its compile would gain the update
//! constraint of `hon_ok: forall X: honours(X) -> attends(X, sem)`,
//! which the constant `ddb` rules out.
//!
//! Placeholders are the fixed, process-wide pool `_C$0 … _C$63`, interned
//! once, so a check interns nothing. A transaction holding a pool name
//! or more distinct constants than the pool compiles uncached, as does a
//! transaction of a new shape once [`MAX_ENTRIES`] shapes are cached
//! for its options.

use crate::checker::{CheckOptions, CheckReport, Checker, Program};
use crate::relevance::RelevanceIndex;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use uniform_datalog::{sort_read_patterns, ReadPattern, Schema, Snapshot, Transaction, Update};
use uniform_logic::{Fact, Literal, Subst, Sym, Term};

/// Most abstract transactions one schema holds per [`CheckOptions`].
pub const MAX_ENTRIES: usize = 256;

/// Size of the placeholder pool: the most distinct non-schema constants
/// a cached transaction may hold.
pub const PLACEHOLDERS: usize = 64;

/// The placeholder pool `_C$0, _C$1, …`. The lexer rejects `$`, so no
/// parsed program holds one.
fn pool() -> &'static [Sym] {
    static POOL: OnceLock<Vec<Sym>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..PLACEHOLDERS)
            .map(|k| Sym::new(&format!("_C${k}")))
            .collect()
    })
}

/// An abstract transaction and the options it compiles under.
type Shape = (CheckOptions, Vec<Update>);

/// One compiled abstract transaction.
struct Entry {
    program: Program,
    read_patterns: Vec<ReadPattern>,
}

/// What checks read of one schema: its relevance index and compiled
/// checks, built on first use into the schema's derived-data slot.
pub(crate) struct Precompiled {
    pub(crate) index: RelevanceIndex,
    /// Every constant of the rules and the constraints.
    schema_constants: HashSet<Sym>,
    /// A rule or constraint holds a placeholder: nothing is cached.
    holds_placeholder: bool,
    /// Compiled abstract transactions, keyed with their options:
    /// handles with different options can share one schema.
    entries: Mutex<HashMap<Shape, Arc<Entry>>>,
}

impl Precompiled {
    /// The precompiled data of `schema`, built on first use.
    pub(crate) fn of(schema: &Schema) -> &Precompiled {
        schema.derived(|schema| {
            let mut schema_constants = HashSet::new();
            for rule in schema.rules().rules() {
                let body = rule.body.iter().map(|l| &l.atom);
                for atom in std::iter::once(&rule.head).chain(body) {
                    schema_constants.extend(atom.args.iter().filter_map(|t| t.as_const()));
                }
            }
            for c in schema.constraints() {
                for occ in c.rq.literals() {
                    let args = occ.literal.atom.args.iter();
                    schema_constants.extend(args.filter_map(|t| t.as_const()));
                }
            }
            Precompiled {
                index: RelevanceIndex::build(schema.constraints()),
                holds_placeholder: pool().iter().any(|p| schema_constants.contains(p)),
                schema_constants,
                entries: Mutex::new(HashMap::new()),
            }
        })
    }

    /// The abstract transaction of `tx` and the constants its
    /// placeholders stand for, in placeholder order; `None` when `tx`
    /// must compile uncached.
    fn abstract_transaction(&self, tx: &Transaction) -> Option<(Vec<Update>, Vec<Sym>)> {
        if self.holds_placeholder {
            return None;
        }
        let pool = pool();
        let mut constants: Vec<Sym> = Vec::new();
        let mut placeholder = |c: Sym| -> Option<Sym> {
            if self.schema_constants.contains(&c) {
                return Some(c);
            }
            if pool.contains(&c) {
                return None;
            }
            let k = match constants.iter().position(|&seen| seen == c) {
                Some(k) => k,
                None => {
                    constants.push(c);
                    constants.len() - 1
                }
            };
            pool.get(k).copied()
        };
        let updates = tx
            .updates
            .iter()
            .map(|u| {
                let args = u
                    .fact
                    .args
                    .iter()
                    .map(|&c| placeholder(c))
                    .collect::<Option<Vec<Sym>>>()?;
                Some(Update {
                    insert: u.insert,
                    fact: Fact {
                        pred: u.fact.pred,
                        args,
                    },
                })
            })
            .collect::<Option<Vec<Update>>>()?;
        Some((updates, constants))
    }
}

/// The compiled checks of one schema under one [`CheckOptions`] (see
/// the module docs). The entries live on the schema, so every cache of
/// one schema and options shares them.
pub struct CheckCache {
    schema: Arc<Schema>,
    options: CheckOptions,
}

impl CheckCache {
    /// The cache of `snapshot`'s schema, compiling with `options`.
    pub fn for_snapshot(snapshot: &Snapshot, options: CheckOptions) -> CheckCache {
        CheckCache {
            schema: snapshot.schema().clone(),
            options,
        }
    }

    /// Number of cached abstract transactions.
    pub fn len(&self) -> usize {
        let entries = Precompiled::of(&self.schema).entries.lock();
        entries.keys().filter(|(o, _)| *o == self.options).count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check `tx` against `snapshot`, which must hold the schema the
    /// cache was built from. Returns the report — equal in every field
    /// to [`Checker::check`] with the cache's options — and whether the
    /// compile came from the cache.
    pub fn check(&self, snapshot: &Snapshot, tx: &Transaction) -> (CheckReport, bool) {
        let checker = Checker::for_snapshot(snapshot).with_options(self.options);
        let precompiled = checker.precompiled();
        let Some((shape, constants)) = precompiled.abstract_transaction(tx) else {
            return (checker.check(tx), false);
        };
        let placeholders = &pool()[..constants.len()];
        let key = (self.options, shape);
        let cached = precompiled.entries.lock().get(&key).cloned();
        let hit = cached.is_some();
        let entry = cached.unwrap_or_else(|| {
            let abstract_tx = Transaction::new(key.1.clone());
            let literals: Vec<Literal> = key.1.iter().map(Update::to_literal).collect();
            let compiled = checker.compile(&literals);
            let entry = Arc::new(Entry {
                read_patterns: checker.read_patterns(&compiled, &abstract_tx),
                program: Program::new(&compiled, placeholders),
            });
            let mut entries = precompiled.entries.lock();
            if entries.keys().filter(|(o, _)| *o == self.options).count() < MAX_ENTRIES {
                entries.insert(key, entry.clone());
            }
            entry
        });
        let mut binding = Subst::new();
        for (&p, &c) in placeholders.iter().zip(&constants) {
            binding.bind(p, Term::Const(c));
        }
        let constant = |c| binding.get(c).and_then(Term::as_const).unwrap_or(c);
        let mut read_patterns: Vec<ReadPattern> = entry
            .read_patterns
            .iter()
            .map(|p| ReadPattern {
                pred: p.pred,
                args: p.args.iter().map(|a| a.map(constant)).collect(),
            })
            .collect();
        sort_read_patterns(&mut read_patterns);
        let report = checker.run(&entry.program, binding, tx, read_patterns);
        (report, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Violation;
    use uniform_datalog::Database;
    use uniform_logic::parse_literal;

    fn upd(src: &str) -> Update {
        Update::from_literal(&parse_literal(src).unwrap()).unwrap()
    }

    fn tx(srcs: &[&str]) -> Transaction {
        Transaction::new(srcs.iter().map(|s| upd(s)).collect())
    }

    fn snapshot() -> Snapshot {
        Database::parse(
            "
            enrolled(X, cs) :- student(X).
            constraint cdb: forall X: student(X) & enrolled(X, cs) -> attends(X, ddb).
            student(s1). attends(s1, ddb).
            ",
        )
        .unwrap()
        .snapshot()
    }

    /// Every field of the two reports, rendered.
    fn fields(r: &CheckReport) -> String {
        let violations: Vec<String> = r
            .violations
            .iter()
            .map(|v| format!("{} {:?} {}", v.constraint, v.culprit, v.instance))
            .collect();
        format!(
            "{} {violations:?} {:?} {:?} {:?} {}",
            r.satisfied, r.reads, r.read_patterns, r.stats, r.truncated
        )
    }

    #[test]
    fn cached_checks_equal_the_ground_check() {
        let snap = snapshot();
        let cache = CheckCache::for_snapshot(&snap, CheckOptions::default());
        let oracle = Checker::for_snapshot(&snap);
        for round in 0..2 {
            for t in [
                tx(&["student(jack)"]),
                tx(&["student(jill)"]),
                tx(&["not student(s1)"]),
                tx(&["attends(s1, ddb)"]),
                tx(&["not attends(s1, ddb)"]),
                tx(&["unrelated(z)"]),
                tx(&["student(n1)", "attends(n1, ddb)"]),
                tx(&["student(n1)", "attends(n2, ddb)"]),
            ] {
                let (cached, hit) = cache.check(&snap, &t);
                assert_eq!(fields(&cached), fields(&oracle.check(&t)), "on {t:?}");
                assert_eq!(
                    hit,
                    round == 1 || t.updates[0].fact.args[0].as_str() == "jill"
                );
            }
        }
    }

    /// Two trigger keys of these shapes first differ at a placeholder,
    /// and `zed` takes the lower placeholder but sorts after `amy`: the
    /// groups must be walked in the order of the check's own constants.
    #[test]
    fn violation_order_follows_the_constants_not_the_placeholders() {
        let snap = snapshot();
        let cache = CheckCache::for_snapshot(&snap, CheckOptions::default());
        let oracle = Checker::for_snapshot(&snap);
        let culprits = |r: &CheckReport| -> Vec<String> {
            let culprit = |v: &Violation| v.culprit.as_ref().unwrap().to_string();
            r.violations.iter().map(culprit).collect()
        };
        // One shape, compiled on its first check and hit by the second,
        // whose constants sort the other way; then a second shape.
        for round in 0..2 {
            for (i, t) in [
                tx(&["student(zed)", "student(amy)"]),
                tx(&["student(amy)", "student(zed)"]),
                tx(&["student(zed)", "student(bob)", "attends(amy, ddb)"]),
            ]
            .iter()
            .enumerate()
            {
                let (cached, hit) = cache.check(&snap, t);
                let want = oracle.check(t);
                assert_eq!(hit, round == 1 || i == 1, "on {t:?}");
                assert_eq!(fields(&cached), fields(&want), "on {t:?}");
                let mut sorted = culprits(&want);
                sorted.sort();
                assert_eq!(culprits(&want), sorted, "on {t:?}");
            }
        }
        let (report, _) = cache.check(&snap, &tx(&["student(zed)", "student(amy)"]));
        assert_eq!(
            culprits(&report),
            [
                "enrolled(amy,cs)",
                "enrolled(zed,cs)",
                "student(amy)",
                "student(zed)"
            ]
        );
    }

    #[test]
    fn repeated_abstract_transactions_hit() {
        let snap = snapshot();
        let cache = CheckCache::for_snapshot(&snap, CheckOptions::default());
        let hits = (0..10)
            .filter(|i| {
                let t = tx(&[&format!("student(n{i})"), &format!("attends(n{i}, ddb)")]);
                cache.check(&snap, &t).1
            })
            .count();
        assert_eq!((hits, cache.len()), (9, 1));
    }

    #[test]
    fn distinct_abstract_transactions_get_distinct_entries() {
        let snap = snapshot();
        let cache = CheckCache::for_snapshot(&snap, CheckOptions::default());
        for t in [
            tx(&["student(a)"]),
            tx(&["not student(a)"]),
            // A schema constant stays itself: two shapes.
            tx(&["attends(a, ddb)"]),
            tx(&["attends(a, sem)"]),
            // Equal constants share a placeholder: two shapes.
            tx(&["attends(a, a)"]),
            // Order is part of the key.
            tx(&["student(a)", "attends(a, ddb)"]),
            tx(&["attends(a, ddb)", "student(a)"]),
        ] {
            assert!(!cache.check(&snap, &t).1, "{t:?}");
        }
        assert_eq!(cache.len(), 7);
    }

    #[test]
    fn pool_names_and_full_caches_compile_uncached() {
        let snap = snapshot();
        let cache = CheckCache::for_snapshot(&snap, CheckOptions::default());
        let pooled = Transaction::single(Update::insert(Fact {
            pred: Sym::new("student"),
            args: vec![pool()[0]],
        }));
        for _ in 0..2 {
            assert!(!cache.check(&snap, &pooled).1);
        }
        assert!(cache.is_empty());
        let wide: Vec<String> = (0..=PLACEHOLDERS)
            .map(|i| format!("student(w{i})"))
            .collect();
        let wide = tx(&wide.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(!cache.check(&snap, &wide).1);
        assert!(cache.is_empty());
        for arity in 1..=MAX_ENTRIES + 1 {
            let args = vec![Sym::new("a"); arity];
            let t = Transaction::single(Update::insert(Fact {
                pred: Sym::new("wide"),
                args,
            }));
            cache.check(&snap, &t);
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
    }
}
