//! Evaluation threading: every evaluation — a model materialization, an
//! integrity check — runs on the calling thread. Concurrency lives
//! between callers (snapshots, the commit queue), not inside one.

/// Worker threads one evaluation uses. Recorded by the benchmark's
/// info line.
pub fn max_threads() -> usize {
    1
}
