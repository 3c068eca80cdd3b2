//! Interned symbols.
//!
//! Every identifier in the system — predicate names, constants, variable
//! names — is interned into a global table and represented by a [`Sym`]: a
//! `Copy` 4-byte handle with O(1) equality, hashing and `as_str` access.
//! The paper's language is function-free, so symbols and variables are the
//! only term constituents; interning makes unification, fact storage and
//! join evaluation cheap.
//!
//! The interner is append-only: every string it holds is leaked and
//! lives as long as the process. So a request path — a commit, a check,
//! a repair, a search — must not intern names of its own. Renaming
//! apart takes its names from a fixed pool ([`crate::Renaming`]), and
//! [`Sym::interned`] is the gauge that tests hold such paths to.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// An interned string. Cheap to copy, compare and hash.
///
/// ```
/// use uniform_logic::Sym;
/// let a = Sym::new("employee");
/// let b = Sym::new("employee");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "employee");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(NonZeroU32);

struct Interner {
    map: RwLock<HashMap<&'static str, NonZeroU32>>,
    strings: RwLock<Vec<&'static str>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        map: RwLock::new(HashMap::new()),
        strings: RwLock::new(Vec::new()),
    })
}

/// Monotone counter backing [`Sym::fresh`]. Global so that fresh names are
/// unique within the process.
static FRESH: AtomicU64 = AtomicU64::new(0);

impl Sym {
    /// Intern `s` and return its handle.
    pub fn new(s: &str) -> Sym {
        let int = interner();
        if let Some(&id) = int.map.read().get(s) {
            return Sym(id);
        }
        let mut map = int.map.write();
        // Re-check under the write lock: another thread may have interned it.
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        let mut strings = int.strings.write();
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        strings.push(leaked);
        // Length is never 0 here, so the id (the new length) is nonzero.
        let id = NonZeroU32::new(strings.len() as u32).expect("interner overflow");
        map.insert(leaked, id);
        Sym(id)
    }

    /// How many symbols the process has interned so far. The interner
    /// never shrinks, so a path that interns nothing leaves this gauge
    /// where it was.
    pub fn interned() -> usize {
        interner().strings.read().len()
    }

    /// The interned string. Lives for the whole process.
    pub fn as_str(self) -> &'static str {
        let strings = interner().strings.read();
        strings[(self.0.get() - 1) as usize]
    }

    /// A fresh symbol that cannot collide with parsed identifiers
    /// (contains `$`, which the lexer rejects). Every call interns one
    /// more string for good, so no request path may call it: its one
    /// caller is the magic-sets rewrite behind
    /// `uniform_datalog::answer_goal_magic`, which no query, commit or
    /// repair reaches.
    pub fn fresh(prefix: &str) -> Sym {
        let n = FRESH.fetch_add(1, Ordering::Relaxed);
        Sym::new(&format!("{prefix}${n}"))
    }

    /// True if this symbol denotes a variable under the surface-syntax
    /// convention: leading uppercase letter or `_`.
    pub fn is_var_name(self) -> bool {
        self.as_str()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase() || c == '_')
    }
}

/// Deduplicate `syms` and order them by name. Names are unique per
/// [`Sym`], so deduplicating by id first reads each distinct name once
/// (every read takes the interner's lock) instead of twice per
/// comparison of any two occurrences.
pub fn sort_by_name(syms: &mut Vec<Sym>) {
    syms.sort_unstable();
    syms.dedup();
    syms.sort_by_cached_key(|s| s.as_str());
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("p");
        let b = Sym::new("p");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "p");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        assert_ne!(Sym::new("p"), Sym::new("q"));
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let a = Sym::fresh("c");
        let b = Sym::fresh("c");
        assert_ne!(a, b);
        assert!(a.as_str().contains('$'));
    }

    #[test]
    fn var_name_convention() {
        assert!(Sym::new("X").is_var_name());
        assert!(Sym::new("_g1").is_var_name());
        assert!(!Sym::new("x").is_var_name());
        assert!(!Sym::new("employee").is_var_name());
    }

    #[test]
    fn interner_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for j in 0..200 {
                        let s = Sym::new(&format!("t{}", (i * j) % 50));
                        assert_eq!(s, Sym::new(s.as_str()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
