//! B5: one-shot vs prepared vs cached read-path latency.
//!
//! Three tiers over the same hot-query lists, violation-free
//! (`deductive_university`) and violation-heavy (`violation_state`)
//! states, at both consistency levels:
//!
//! * `one_shot` — the legacy serving shape: every call re-parses,
//!   re-plans and (for `Certain`) re-enumerates repairs (a fresh
//!   `PreparedQuery::prepare` and a fresh session per call, past the
//!   plan cache);
//! * `cached` — `ConcurrentDatabase::solutions` /
//!   `consistent_answer`: parse and plan amortized by the shared
//!   sharded plan cache, but a fresh session (fresh snapshot) per
//!   call;
//! * `prepared` — the full prepared shape: `PreparedQuery` + pinned
//!   `Session` reused across calls, so execution is all that remains.
//!
//! Since the shared certain-answer cache landed
//! (`uniform::certain_cache`, measured on its own in
//! `b7_certain_cache`), fresh sessions over one database share the
//! `Certain` repair enumeration too — only the one-shot tier's fresh
//! database per iteration still pays it per pass.
//!
//! The `one_shot / prepared` ratio is the headline number the README
//! reports: what hot-query serving stops paying per request.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};
use uniform::workload;
use uniform::{ConcurrentDatabase, Consistency, Params, PreparedQuery, UniformOptions};
use uniform_bench::{obs_footer, shared_obs};

const UNIVERSITY_SIZES: &[usize] = &[32, 128];

fn university(n: usize) -> uniform::Database {
    workload::deductive_university(n, 11)
}

fn bench_latest(c: &mut Criterion) {
    let obs = shared_obs();
    let mut group = c.benchmark_group("b5_latest");
    let queries = workload::university_read_queries();

    for &n in UNIVERSITY_SIZES {
        group.bench_with_input(BenchmarkId::new("one_shot", n), &n, |b, &n| {
            let db = ConcurrentDatabase::from_database_with_obs(
                university(n),
                UniformOptions::default(),
                obs.clone(),
            );
            b.iter(|| {
                let mut answers = 0usize;
                for q in queries {
                    let prepared = PreparedQuery::prepare(q).unwrap();
                    answers += db
                        .session()
                        .execute(&prepared, &Params::new(), Consistency::Latest)
                        .unwrap()
                        .len();
                }
                assert!(answers > 0);
                answers
            });
        });

        group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, &n| {
            let db = ConcurrentDatabase::from_database_with_obs(
                university(n),
                UniformOptions::default(),
                obs.clone(),
            );
            b.iter(|| {
                let mut answers = 0usize;
                for q in queries {
                    answers += db.solutions(q).unwrap().len();
                }
                assert!(answers > 0);
                answers
            });
        });

        group.bench_with_input(BenchmarkId::new("prepared", n), &n, |b, &n| {
            let db = ConcurrentDatabase::from_database_with_obs(
                university(n),
                UniformOptions::default(),
                obs.clone(),
            );
            let prepared: Vec<_> = queries.iter().map(|q| db.prepare(q).unwrap()).collect();
            let session = db.session();
            b.iter(|| {
                let mut answers = 0usize;
                for q in &prepared {
                    answers += session
                        .execute(q, &Params::new(), Consistency::Latest)
                        .unwrap()
                        .len();
                }
                assert!(answers > 0);
                answers
            });
        });
    }

    group.finish();
    obs_footer("b5_latest", &obs.report());
}

fn bench_certain(c: &mut Criterion) {
    let obs = shared_obs();
    let mut group = c.benchmark_group("b5_certain");
    group.sample_size(10);
    // Violation-free and violation-heavy committed states.
    for (label, churn) in [("clean", 0usize), ("violated", 4usize)] {
        let queries = workload::violation_read_queries();

        group.bench_with_input(BenchmarkId::new("one_shot", label), &churn, |b, &churn| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for i in 0..iters {
                    let db = ConcurrentDatabase::from_database_with_obs(
                        workload::violation_state(churn, i),
                        UniformOptions::default(),
                        obs.clone(),
                    );
                    let t0 = Instant::now();
                    for q in queries {
                        // Defeat the plan cache: fresh prepare each
                        // call, fresh session — with the fresh
                        // database per iteration above, the first
                        // `Certain` read also pays the repair
                        // enumeration, the legacy one-shot cost.
                        let prepared = PreparedQuery::prepare(q).unwrap();
                        let _ = db
                            .session()
                            .execute(&prepared, &Params::new(), Consistency::Certain)
                            .unwrap();
                    }
                    total += t0.elapsed();
                }
                total
            });
        });

        group.bench_with_input(BenchmarkId::new("prepared", label), &churn, |b, &churn| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for i in 0..iters {
                    let db = ConcurrentDatabase::from_database_with_obs(
                        workload::violation_state(churn, i),
                        UniformOptions::default(),
                        obs.clone(),
                    );
                    let prepared: Vec<_> = queries.iter().map(|q| db.prepare(q).unwrap()).collect();
                    let session = db.session();
                    let t0 = Instant::now();
                    for q in &prepared {
                        let _ = session
                            .execute(q, &Params::new(), Consistency::Certain)
                            .unwrap();
                    }
                    total += t0.elapsed();
                }
                total
            });
        });
    }
    group.finish();
    obs_footer("b5_certain", &obs.report());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_latest, bench_certain
}
criterion_main!(benches);
