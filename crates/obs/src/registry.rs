//! The metrics registry: named atomic counters, gauges and histograms.
//!
//! Registration (creating or looking up a metric by name) takes a
//! `Mutex<BTreeMap>`; it happens once per metric per subsystem, at
//! construction time. The *hot* operations — `Counter::add`,
//! `Gauge::set`, `Hist::record` — are clones of `Arc<AtomicU64>` (or
//! the histogram's atomic array) and never touch the map.
//!
//! # Ordering semantics
//!
//! All atomic operations are `Ordering::Relaxed`. Each metric is
//! individually monotonic (counters) or last-write-wins (gauges), but a
//! registry export is **not** a cross-metric atomic snapshot: two
//! counters bumped together on another thread may be exported with only
//! one increment visible. Subsystems that assert cross-counter
//! invariants (e.g. `admitted + conflicts == submitted`) keep their
//! bumps under the subsystem's own lock and expose a locked `*_stats()`
//! snapshot accessor; the registry view is for rates and totals.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::{Hist, Histogram, HistogramSnapshot};

/// A named monotonic counter handle. Cloning is cheap (one `Arc`).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (a "null" sink, useful
    /// for default-constructed subsystems before obs is threaded in).
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named last-write-wins gauge handle (absolute values, e.g. cache
/// entry counts or CoW byte totals sampled at export time).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<Histogram>),
}

/// The registry proper: a name → slot map guarded by a mutex, with all
/// hot-path access going through pre-resolved handles.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Create or look up the counter `name`. Panics if `name` is
    /// already registered as a different metric kind — dotted names are
    /// a global namespace and kind mismatches are programming errors.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Arc::new(AtomicU64::new(0)))) {
            Slot::Counter(c) => Counter(c),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Create or look up the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Arc::new(AtomicU64::new(0)))) {
            Slot::Gauge(g) => Gauge(g),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Create or look up the histogram `name`.
    pub fn histogram(&self, name: &str) -> Hist {
        match self.slot(name, || Slot::Hist(Arc::new(Histogram::new()))) {
            Slot::Hist(h) => Hist(h),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// A handle on the slot `name`, registered as `make()` on first
    /// use. Only a first registration allocates the name: a lookup
    /// probes with the borrowed one.
    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get(name) {
            return slot.clone();
        }
        slots.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Sorted `(name, value)` export of every counter and gauge.
    /// Per-metric monotonic reads; see the module docs for why this is
    /// not a cross-metric atomic snapshot.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let slots = self.slots.lock();
        slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Counter(c) | Slot::Gauge(c) => {
                    Some((name.clone(), c.load(Ordering::Relaxed)))
                }
                Slot::Hist(_) => None,
            })
            .collect()
    }

    /// Sorted `(name, snapshot)` export of every histogram.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let slots = self.slots.lock();
        slots
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Hist(h) => Some((name.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.slots.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_storage_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.y");
        let b = reg.counter("x.y");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.counters(), vec![("x.y".to_string(), 4)]);
    }

    #[test]
    fn export_is_sorted_and_merges_gauges() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.gauge("a.level").set(7);
        reg.histogram("c.lat").record(100);
        let names: Vec<String> = reg.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.level", "b.count"]);
        let hists = reg.histograms();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "c.lat");
        assert_eq!(hists[0].1.count(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("dual");
        reg.histogram("dual");
    }

    #[test]
    fn detached_handles_count_but_export_nothing() {
        let reg = MetricsRegistry::new();
        let c = Counter::detached();
        c.add(5);
        assert_eq!(c.get(), 5);
        assert!(reg.counters().is_empty());
    }
}
