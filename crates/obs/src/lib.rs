//! `uniform-obs`: the unified observability layer for the uniform
//! pipeline — one [`MetricsRegistry`] of named counters/gauges/
//! histograms, one structured-span ring, one [`ObsReport`] export.
//!
//! An [`Obs`] instance bundles the three together with a pluggable
//! [`Clock`]. Subsystems resolve their metric handles once at
//! construction ([`Obs::counter`] etc.) and then bump lock-free
//! atomics on the hot path; spans open with [`Obs::span`] and close on
//! drop. With the [`NullClock`] (the default — see [`Obs::from_env`])
//! no timer is ever read, so every exported value is a pure function of
//! the operation sequence and determinism digests stay bit-identical
//! across runs and processes.
//!
//! Metric names are dotted paths in a single global namespace per
//! `Obs`, e.g. `txn.conflicts.key`, `cache.certain.invalidated`,
//! `repair.sat.conflicts`. The full table lives in the repository
//! README under "Observability".

mod clock;
mod hist;
mod registry;
mod report;
mod span;

pub use clock::{Clock, NullClock, WallClock};
pub use hist::{
    bucket_floor, bucket_of, fmt_nanos, Hist, Histogram, HistogramSnapshot, HIST_BUCKETS,
};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use report::ObsReport;
pub use span::{SpanEvent, SpanGuard, SpanRecorder, DEFAULT_RING_CAPACITY};

/// Environment variable gating wall-clock timing: `UNIFORM_OBS=1`
/// selects [`WallClock`], anything else [`NullClock`].
pub const OBS_ENV: &str = "UNIFORM_OBS";

/// One observability domain: registry + span ring + clock. Create one
/// per database instance and share it (`Arc<Obs>`) with every
/// subsystem that reports into it.
pub struct Obs {
    registry: MetricsRegistry,
    spans: SpanRecorder,
    clock: Box<dyn Clock>,
    clock_enabled: bool,
}

impl Obs {
    /// An `Obs` with the given clock.
    pub fn with_clock<C: Clock>(clock: C) -> Obs {
        let clock_enabled = clock.is_enabled();
        Obs {
            registry: MetricsRegistry::new(),
            spans: SpanRecorder::new(),
            clock: Box::new(clock),
            clock_enabled,
        }
    }

    /// An `Obs` with timing off ([`NullClock`]): counts only, fully
    /// deterministic.
    pub fn null() -> Obs {
        Obs::with_clock(NullClock)
    }

    /// [`WallClock`] iff the environment has `UNIFORM_OBS=1`, else
    /// [`NullClock`]. Counts and spans are recorded either way; only
    /// timing (histogram buckets > 0, span durations) needs the env
    /// opt-in.
    pub fn from_env() -> Obs {
        match std::env::var(OBS_ENV) {
            Ok(v) if v == "1" => Obs::with_clock(WallClock::new()),
            _ => Obs::null(),
        }
    }

    /// Is the clock producing timestamps? (`false` under [`NullClock`].)
    pub fn clock_enabled(&self) -> bool {
        self.clock_enabled
    }

    /// Resolve (create or look up) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Resolve the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Resolve the histogram `name`.
    pub fn histogram(&self, name: &str) -> Hist {
        self.registry.histogram(name)
    }

    /// Open an untagged span; it closes (and records) when the guard
    /// drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard::open(&self.spans, &*self.clock, name, None, None)
    }

    /// Open a tagged span whose duration is also recorded into `hist`
    /// on close.
    pub fn span_timed(
        &self,
        name: &'static str,
        tag: Option<&'static str>,
        hist: Hist,
    ) -> SpanGuard<'_> {
        SpanGuard::open(&self.spans, &*self.clock, name, tag, Some(hist))
    }

    /// A copy of the span ring, oldest first.
    pub fn recent_events(&self) -> Vec<SpanEvent> {
        self.spans.recent()
    }

    /// Span events evicted from the ring so far.
    pub fn dropped_events(&self) -> u64 {
        self.spans.dropped()
    }

    /// Export every registered metric as a sorted [`ObsReport`].
    pub fn report(&self) -> ObsReport {
        ObsReport {
            counters: self.registry.counters(),
            histograms: self.registry.histograms(),
        }
        .sorted()
    }

    /// Direct registry access (rarely needed; prefer the typed
    /// resolvers above).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::null()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("registry", &self.registry)
            .field("spans", &self.spans)
            .field("clock_enabled", &self.clock_enabled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_obs_is_deterministic_end_to_end() {
        let run = || {
            let obs = Obs::null();
            let commits = obs.counter("txn.commits.admitted");
            let lat = obs.histogram("commit.latency");
            for _ in 0..5 {
                let _sp = obs.span_timed("commit", Some("queued"), lat.clone());
                commits.incr();
            }
            obs.report().to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn report_covers_counters_gauges_histograms() {
        let obs = Obs::null();
        obs.counter("a.count").add(2);
        obs.gauge("b.level").set(9);
        obs.histogram("c.lat").record(0);
        let report = obs.report();
        assert_eq!(report.counter("a.count"), Some(2));
        assert_eq!(report.counter("b.level"), Some(9));
        assert_eq!(report.histogram("c.lat").unwrap().count(), 1);
        let parsed = ObsReport::parse_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn spans_nest_through_obs() {
        let obs = Obs::null();
        {
            let _commit = obs.span("commit");
            let _check = obs.span("commit.check");
        }
        let events = obs.recent_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].parent, Some(events[0].id));
    }

    #[test]
    fn null_clock_keeps_histograms_in_bucket_zero() {
        let obs = Obs::null();
        let lat = obs.histogram("x.lat");
        {
            let _sp = obs.span_timed("x", None, lat.clone());
            std::thread::yield_now();
        }
        let snap = lat.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.buckets[0], 1);
        assert!(!obs.clock_enabled());
    }

    #[test]
    fn wall_clock_obs_times_spans() {
        let obs = Obs::with_clock(WallClock::new());
        assert!(obs.clock_enabled());
        let lat = obs.histogram("x.lat");
        {
            let _sp = obs.span_timed("x", None, lat.clone());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = lat.snapshot();
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.buckets[0], 0, "2ms must not land in the zero bucket");
    }
}
