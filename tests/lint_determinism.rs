//! Repo-level determinism lint: no unordered hash iteration feeding
//! user-visible output.
//!
//! Everything the engine renders, digests, or returns as a `Vec` must
//! not depend on `HashMap`/`HashSet` iteration order — the determinism
//! suite (`determinism.rs`, `prop_obs.rs`) catches such bugs only when
//! a schedule happens to expose them, so this test attacks the source:
//! it scans every crate for iteration over identifiers declared with a
//! hash-table type and requires each site to either be order-
//! insensitive on its face (membership tests, counting, folding into
//! another unordered structure), sort within a few lines, or appear in
//! the audited allowlist below with a reason.
//!
//! The scanner is a deliberately simple line-based heuristic — it
//! over-approximates, and the allowlist is the pressure valve. What it
//! must never do is miss a new `for x in hash_map` that pushes into a
//! rendered `Vec`: the self-check at the bottom pins that down.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Audited sites: `(file suffix, identifier, why the order cannot
/// leak)`. Every entry must still match a flagged site — stale entries
/// fail the test so the list cannot rot.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "core/src/query.rs",
        "bound",
        "Params::iter walks Params.bound, a BTreeMap (name order); the hash-typed \
         `bound` in this file is a plan-time local used only for membership",
    ),
    (
        "logic/src/semantics.rs",
        "facts",
        "test-helper iteration over a slice parameter feeding a set-semantics \
         interpretation; the hash-typed `facts` elsewhere is membership-only",
    ),
    (
        "datalog/src/depgraph.rs",
        "scc_of",
        "folds into another unordered map plus a running max — both order-free",
    ),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Identifiers bound to a hash-table type anywhere in the file: struct
/// fields and lets (`name: HashMap<...>`), plus direct constructions
/// (`name = HashMap::new()` / `HashSet::new()`, and the `default()`,
/// `with_hasher(..)` and `with_capacity_and_hasher(..)` forms a
/// non-default hasher such as `SymState` is built with).
fn hash_idents(content: &str) -> BTreeSet<String> {
    let mut idents = BTreeSet::new();
    for line in content.lines() {
        for marker in [
            "HashMap<",
            "HashSet<",
            "HashMap::new",
            "HashSet::new",
            "HashMap::default",
            "HashSet::default",
            "HashMap::with_hasher",
            "HashSet::with_hasher",
            "HashMap::with_capacity_and_hasher",
            "HashSet::with_capacity_and_hasher",
        ] {
            for (at, _) in line.match_indices(marker) {
                let head = line[..at].trim_end();
                let head = head
                    .strip_suffix(':')
                    .or_else(|| head.strip_suffix('='))
                    .unwrap_or(head)
                    .trim_end();
                let ident: String = head
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !ident.is_empty() && !ident.chars().next().unwrap().is_numeric() {
                    idents.insert(ident);
                }
            }
        }
    }
    idents
}

/// Does `line` iterate `ident` (declared hash-typed in this file)?
fn iterates(line: &str, ident: &str) -> bool {
    for method in [
        ".iter()",
        ".keys()",
        ".values()",
        ".values_mut()",
        ".drain()",
    ] {
        for prefix in ["", "self."] {
            if line.contains(&format!("{prefix}{ident}{method}")) {
                return true;
            }
        }
    }
    if let Some(at) = line.find(" in ") {
        let rest = line[at + 4..].trim_start_matches(['&', ' ']).trim_start();
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let rest = rest.strip_prefix("self.").unwrap_or(rest);
        if let Some(tail) = rest.strip_prefix(ident) {
            // `for x in map.get(..)` and friends are lookups, not walks.
            let walks = [".iter()", ".keys()", ".values()", ".drain", ".into_iter()"]
                .iter()
                .any(|m| tail.starts_with(m));
            return tail.is_empty() || tail.starts_with(' ') || tail.starts_with('{') || walks;
        }
    }
    false
}

/// Order-insensitive on the same line: membership, counting, aggregate
/// reductions, or folding straight into another unordered structure.
fn insensitive(line: &str) -> bool {
    [
        ".any(",
        ".all(",
        ".count()",
        ".sum()",
        ".sum::<",
        ".len()",
        ".min()",
        ".max()",
        ".min_by",
        ".max_by",
        ".is_empty()",
        "collect::<HashSet",
        "collect::<HashMap",
        "collect::<BTreeSet",
        "collect::<BTreeMap",
        "collect::<std::collections::BTree",
        // Type-ascribed collects into a set/map are order-free too.
        ": HashSet<",
        ": HashMap<",
        ": BTreeSet<",
        ": BTreeMap<",
    ]
    .iter()
    .any(|p| line.contains(p))
}

/// Sorted (or poured into an ordered structure) within the window after
/// the site — the common `collect` + `sort` idiom.
fn sorted_nearby(lines: &[&str], at: usize) -> bool {
    lines[at..(at + 10).min(lines.len())]
        .iter()
        .any(|l| l.contains(".sort") || l.contains("BTree"))
}

fn scan(path_label: &str, content: &str) -> Vec<String> {
    let idents = hash_idents(content);
    let lines: Vec<&str> = content.lines().collect();
    let mut findings = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        for ident in &idents {
            if iterates(code, ident) && !insensitive(code) && !sorted_nearby(&lines, i) {
                findings.push(format!("{path_label}:{}:{ident}", i + 1));
            }
        }
    }
    findings
}

#[test]
fn no_unordered_iteration_feeds_output() {
    let root = repo_root();
    let mut files = Vec::new();
    for crate_dir in [
        "analyze",
        "core",
        "datalog",
        "integrity",
        "logic",
        "obs",
        "repair",
        "satisfiability",
        "workload",
    ] {
        rust_sources(&root.join("crates").join(crate_dir).join("src"), &mut files);
    }
    files.sort();

    let mut findings: Vec<String> = Vec::new();
    for path in &files {
        let content = std::fs::read_to_string(path).expect("readable source");
        let label = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan(&label, &content));
    }

    let allowed = |finding: &str| {
        ALLOWLIST.iter().any(|(suffix, ident, _)| {
            let (site, id) = finding.rsplit_once(':').unwrap();
            let (file, _line) = site.rsplit_once(':').unwrap();
            file.ends_with(suffix) && id == *ident
        })
    };
    let unexpected: Vec<&String> = findings.iter().filter(|f| !allowed(f)).collect();
    assert!(
        unexpected.is_empty(),
        "unordered hash iteration may feed user-visible output — sort it, \
         use a BTree collection, or add an audited allowlist entry:\n{unexpected:#?}"
    );

    // The allowlist cannot rot: every entry must still match a site.
    for (suffix, ident, _) in ALLOWLIST {
        assert!(
            findings.iter().any(|f| {
                let (site, id) = f.rsplit_once(':').unwrap();
                site.rsplit_once(':').unwrap().0.ends_with(suffix) && id == *ident
            }),
            "stale allowlist entry {suffix}:{ident} — the site no longer exists"
        );
    }
}

/// The scanner itself must keep catching the bug class it exists for.
#[test]
fn scanner_flags_the_canonical_bug() {
    let bad = r#"
        let mut by_pred: HashMap<Sym, usize> = HashMap::new();
        let mut out = String::new();
        for (pred, n) in &by_pred {
            writeln!(out, "{pred}: {n}").unwrap();
        }
    "#;
    assert_eq!(scan("synthetic.rs", bad).len(), 1);

    let fixed = r#"
        let mut by_pred: HashMap<Sym, usize> = HashMap::new();
        let mut rows: Vec<_> = by_pred.iter().collect();
        rows.sort();
    "#;
    assert!(scan("synthetic.rs", fixed).is_empty());

    // Untyped tables built for a custom hasher are hash tables too.
    let hashed = r#"
        let mut by_pred = HashMap::default();
        let mut seen = HashSet::with_hasher(SymState::default());
        for (pred, n) in &by_pred {
            writeln!(out, "{pred}: {n}").unwrap();
        }
        rendered.extend(seen.iter().map(|s| s.to_string()));
    "#;
    assert_eq!(scan("synthetic.rs", hashed).len(), 2);

    let membership = r#"
        let seen: HashSet<Sym> = HashSet::new();
        let dead = preds.iter().filter(|p| !seen.iter().any(|s| s == *p));
    "#;
    assert!(scan("synthetic.rs", membership).is_empty());
}
