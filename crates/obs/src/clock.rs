//! The pluggable time source behind every span duration and latency
//! histogram.
//!
//! Everything in `uniform-obs` that *times* an operation goes through a
//! [`Clock`], and the clock is chosen once per [`crate::Obs`] instance.
//! Two implementations ship:
//!
//! * [`WallClock`] — monotonic wall time ([`std::time::Instant`]),
//!   the operational configuration;
//! * [`NullClock`] — timing off. No timer is ever read (the cost of a
//!   span shrinks to the ring-buffer push, and a histogram `record`
//!   to one relaxed increment of bucket 0), and **no wall-clock value
//!   can reach any user-visible output**. This is the contract
//!   `tests/determinism.rs` relies on: under a `NullClock`, counter
//!   values and histogram bucket counts are pure functions of the
//!   operation sequence, so digests stay bit-identical across runs
//!   and processes.

use std::time::Instant;

/// A monotonic nanosecond source, or the deliberate absence of one.
///
/// # Contract
///
/// * `now_nanos` returns `None` when timing is disabled. Callers must
///   degrade to a zero duration (never sample a fallback timer): the
///   [`NullClock`] guarantee is that *no* nondeterministic value enters
///   any metric.
/// * When `Some`, values are monotonic non-decreasing within one clock
///   instance and measured from an arbitrary epoch; only differences
///   are meaningful.
pub trait Clock: Send + Sync + 'static {
    /// Monotonic nanoseconds since an arbitrary epoch, or `None` when
    /// timing is off.
    fn now_nanos(&self) -> Option<u64>;

    /// Does this clock produce timestamps at all? `false` lets hot
    /// paths skip both timer reads entirely.
    fn is_enabled(&self) -> bool {
        self.now_nanos().is_some()
    }
}

/// Timing disabled: [`Clock::now_nanos`] is always `None` and no timer
/// is read. Span events still record (with zero timestamps and zero
/// durations) and histograms still count (every recording lands in
/// bucket 0), so *counts* remain fully observable and fully
/// deterministic — see the module docs for the determinism contract.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullClock;

impl Clock for NullClock {
    #[inline]
    fn now_nanos(&self) -> Option<u64> {
        None
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Monotonic wall time, measured from the clock's construction.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    pub fn new() -> WallClock {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    #[inline]
    fn now_nanos(&self) -> Option<u64> {
        Some(self.epoch.elapsed().as_nanos() as u64)
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_never_ticks() {
        assert_eq!(NullClock.now_nanos(), None);
        assert!(!NullClock.is_enabled());
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_nanos().unwrap();
        let b = c.now_nanos().unwrap();
        assert!(b >= a);
        assert!(c.is_enabled());
    }
}
