//! Properties of the unified observability layer (`uniform::obs`).
//!
//! * Counter totals and histogram bucket counts are identical across
//!   processes on seeded randomized commit/query schedules — per-process
//!   hash seeds must never leak into metrics. Like `determinism.rs`,
//!   the comparison re-executes this binary as a child.
//! * The span ring is well-formed: every close pairs with its open,
//!   parentage nests per thread, and the close tags of `query.execute`
//!   spans name real outcome paths (`eval`, `consistent`, `cache_hit`,
//!   `repair`).
//! * The `store.cow.*` gauges sample the store's own copy-on-write
//!   totals (`FactSet::cow_stats`) exactly.
//! * Under the pinned `NullClock` every histogram recording lands in
//!   bucket 0, and the JSON export round-trips losslessly and carries
//!   the metric names dashboards key on.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;
use uniform::workload;
use uniform::{
    ConcurrentDatabase, Consistency, Obs, ObsReport, Params, UniformOptions, ViolationPolicy,
};

/// FNV-1a over the rendered report (no external deps).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A seeded commit/query schedule over one database pinned to the
/// `NullClock` obs domain. Everything the driver does is sequential,
/// so every counter total is exact.
fn run_schedule(seed: u64) -> ConcurrentDatabase {
    let db = ConcurrentDatabase::from_database_with_obs(
        workload::violation_mix_db(seed),
        UniformOptions {
            violation_policy: ViolationPolicy::AutoRepair,
            ..UniformOptions::default()
        },
        Arc::new(Obs::null()),
    );
    let stream = workload::violation_mix_stream(0, 10, seed);
    let queries = workload::violation_read_queries();
    // Seeded LCG interleaving of reads between the commits: the
    // "randomized schedule" is a pure function of `seed`, identical in
    // every child process.
    let mut lcg = seed.wrapping_mul(2).wrapping_add(1);
    for tx in &stream {
        let _ = db.commit_transaction(tx);
        for _ in 0..2 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let q = queries[(lcg >> 33) as usize % queries.len()];
            let prepared = db.prepare(q).expect("hot query prepares");
            let level = if (lcg >> 17) & 1 == 0 {
                Consistency::Latest
            } else {
                Consistency::Certain
            };
            let _ = db.session().execute(&prepared, &Params::new(), level);
        }
    }
    db
}

/// Render the metric surface of a report: sorted counter names and
/// values plus per-histogram non-empty bucket counts (never wall-clock
/// readings — under `NullClock` they are all zero anyway).
fn render(report: &ObsReport) -> String {
    let mut out = String::new();
    for (name, value) in &report.counters {
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, snap) in &report.histograms {
        let _ = writeln!(out, "{name} {:?}", snap.nonzero());
    }
    out
}

const SEEDS: &[u64] = &[3, 17, 59];

/// Child mode: print the digest over every seeded schedule. Inert
/// unless the driver below sets `UNIFORM_PROP_OBS_CHILD`.
#[test]
fn obs_digest_child() {
    if std::env::var("UNIFORM_PROP_OBS_CHILD").is_err() {
        return;
    }
    let mut log = String::new();
    for &seed in SEEDS {
        let db = run_schedule(seed);
        let _ = writeln!(log, "seed {seed}\n{}", render(&db.obs_report()));
    }
    println!("OBSDIGEST={:016x}", fnv1a(&log));
}

fn child_digest() -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["obs_digest_child", "--exact", "--nocapture"])
        .env("UNIFORM_PROP_OBS_CHILD", "1")
        .output()
        .expect("spawn child test binary");
    assert!(out.status.success(), "child failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = stdout
        .find("OBSDIGEST=")
        .unwrap_or_else(|| panic!("no digest in child output: {stdout}"));
    stdout[at + "OBSDIGEST=".len()..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect()
}

#[test]
fn metrics_identical_across_processes() {
    assert_eq!(
        child_digest(),
        child_digest(),
        "per-process state must not leak into counter totals or bucket counts"
    );
}

#[test]
fn span_ring_is_well_formed() {
    let db = run_schedule(23);
    let events = db.recent_events();
    assert!(!events.is_empty(), "the schedule must have recorded spans");

    // Replay the ring: per-thread stacks of live spans. Every close
    // must match an open with the same id/name; an open's parent must
    // be live on the same thread at open time. (The driver is
    // single-threaded, but repair internals may record from workers —
    // the invariant is per-thread, as documented on `SpanEvent`.)
    let mut live: HashMap<u64, Vec<(u64, &'static str)>> = HashMap::new();
    let mut opened = 0usize;
    for ev in &events {
        let stack = live.entry(ev.thread).or_default();
        if ev.close {
            let top = stack.pop().unwrap_or_else(|| {
                panic!("close of span {} ({}) with no live span", ev.id, ev.name)
            });
            assert_eq!(
                (top.0, top.1),
                (ev.id, ev.name),
                "spans must close in LIFO order per thread"
            );
        } else {
            opened += 1;
            if let Some(parent) = ev.parent {
                assert!(
                    stack.iter().any(|(id, _)| *id == parent),
                    "span {}'s parent {parent} is not live on its thread",
                    ev.id
                );
            } else {
                assert!(
                    stack.is_empty(),
                    "span {} has no parent but thread {} has live spans",
                    ev.id,
                    ev.thread
                );
            }
            stack.push((ev.id, ev.name));
        }
    }
    assert!(
        live.values().all(|s| s.is_empty()),
        "every opened span must have closed by the end of the schedule"
    );
    assert_eq!(db.obs().dropped_events(), 0, "ring must not have wrapped");

    // The taxonomy: commit and query roots exist; their names are from
    // the documented set; query.execute closes name real outcome paths.
    let names: HashSet<&'static str> = events.iter().map(|e| e.name).collect();
    assert!(names.contains("commit"), "commit roots: {names:?}");
    assert!(names.contains("query.execute"), "query roots: {names:?}");
    let known = [
        "commit",
        "commit.stage",
        "commit.check",
        "commit.admit",
        "commit.apply",
        "commit.maintain",
        "commit.repair",
        "commit.invalidate",
        "query.execute",
        "repair.run",
        "analyze.run",
        "analyze.classify",
    ];
    for name in &names {
        assert!(known.contains(name), "undocumented span name {name}");
    }
    let mut consistent_closes = 0u64;
    for ev in events.iter().filter(|e| e.close) {
        if ev.name == "query.execute" {
            assert!(
                matches!(ev.tag, Some("eval" | "consistent" | "cache_hit" | "repair")),
                "query.execute closed with unknown path {:?}",
                ev.tag
            );
            consistent_closes += u64::from(ev.tag == Some("consistent"));
        }
        assert_eq!(ev.nanos, 0, "NullClock spans must never carry durations");
    }
    assert!(opened * 2 >= events.len(), "opens and closes must pair");

    // The consistency-latch family is registered whether or not the
    // schedule moved it, and the bypass counter is exactly the number
    // of `consistent` closes (the ring did not wrap).
    let report = db.obs_report();
    for name in [
        "consistency.established",
        "consistency.preserved",
        "consistency.cleared",
    ] {
        assert!(report.counter(name).is_some(), "{name} not registered");
    }
    assert_eq!(
        report.counter("query.certain.consistent"),
        Some(consistent_closes)
    );
}

#[test]
fn cow_gauges_sample_the_store() {
    let db = run_schedule(41);
    let report = db.obs_report();
    let counter = |name: &str| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("metric {name} not registered"))
    };
    let cow = db.with_database(|d| d.facts().cow_stats());
    assert_eq!(counter("store.cow.pages_cloned"), cow.pages_cloned);
    assert_eq!(counter("store.cow.tuples_cloned"), cow.tuples_cloned);
    assert_eq!(counter("store.cow.bytes_cloned"), cow.bytes_cloned);
}

#[test]
fn null_clock_keeps_every_recording_in_bucket_zero() {
    let db = run_schedule(7);
    let report = db.obs_report();
    let mut recorded = 0u64;
    for (name, snap) in &report.histograms {
        for (bucket, count) in snap.nonzero() {
            assert_eq!(bucket, 0, "{name}: NullClock recording left bucket 0");
            recorded += count;
        }
    }
    assert!(recorded > 0, "the schedule must have recorded latencies");
}

#[test]
fn json_export_round_trips() {
    let db = run_schedule(11);
    let report = db.obs_report();
    let parsed = ObsReport::parse_json(&report.to_json()).expect("export parses");
    assert_eq!(parsed, report.clone().sorted());
    // The names dashboards key on survive the export.
    for name in [
        "txn.commits.admitted",
        "txn.conflicts.relation",
        "txn.conflicts.key",
        "maintain.commits.maintained",
        "commit.latency",
        "store.cow.bytes_cloned",
        "cache.certain.invalidated",
    ] {
        assert!(
            parsed.counter(name).is_some() || parsed.histogram(name).is_some(),
            "{name} missing from the JSON export"
        );
    }
    // And on an empty registry.
    let empty = Obs::null().report();
    assert_eq!(ObsReport::parse_json(&empty.to_json()).unwrap(), empty);
}
