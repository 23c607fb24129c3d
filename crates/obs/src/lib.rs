//! Observability for the key-graph stack.
//!
//! The paper's evaluation (§6) is built entirely on measurements —
//! server processing time, message counts, encryption counts — and the
//! reproduction grew batching (PR 1) and persistence (PR 2) layers
//! whose behaviour is invisible to the post-hoc `ServerStats` vector.
//! This crate supplies the telemetry layer those subsystems hang their
//! measurements on:
//!
//! * a **metrics registry** ([`Obs::counter`], [`Obs::gauge`],
//!   [`Obs::histogram`]) whose handles are `Arc`s over atomics — the
//!   hot path is a relaxed atomic op, the registry lock is only taken
//!   when a handle is first resolved;
//! * an RAII **span API** ([`Obs::span`]) recording nested phase
//!   timings under dotted paths (`op.join.encrypt`), timestamped by a
//!   pluggable [`Clock`] so simulated time stays deterministic;
//! * a bounded **event timeline** ([`Obs::event`]) of typed
//!   [`ObsEvent`]s with gap-free sequence numbers for causal ordering,
//!   whose per-kind counts survive ring eviction;
//! * **exporters**: Prometheus-style text ([`Obs::render_prometheus`]),
//!   a JSON dump ([`Obs::render_json`]), and a human-readable timeline
//!   pretty-printer ([`Obs::render_timeline`]).
//!
//! An [`Obs`] handle is cheap to clone and thread through constructors.
//! The [`Obs::disabled`] handle (or [`ObsConfig::disabled`]) makes
//! every operation a no-op, so instrumented code pays almost nothing
//! when observability is off; the canonical benchmark's
//! `bench.trace_overhead_pct` measures what an enabled handle costs.

#![deny(missing_docs)]

mod clock;
mod export;
mod metrics;
mod span;
mod timeline;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram};
use span::SpanScope;
pub use span::{Span, TraceGuard};
pub use timeline::{ObsEvent, TimelineEntry};
pub use trace::{Trace, TraceContext, TraceSpan};

use metrics::Registry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use timeline::Timeline;

/// Which clock an [`Obs`] handle timestamps with.
#[derive(Debug, Clone, Default)]
pub enum ClockSource {
    /// Real time, measured from handle construction.
    #[default]
    Wall,
    /// A hand-driven clock; the caller keeps a clone and advances it
    /// (typically from the simulated network's virtual microseconds).
    Manual(ManualClock),
}

/// Configuration for [`Obs::new`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Whether the handle records anything at all. A disabled config
    /// yields the same no-op handle as [`Obs::disabled`].
    pub enabled: bool,
    /// Time source for spans and timeline entries.
    pub clock: ClockSource,
    /// Ring-buffer capacity of the event timeline.
    pub timeline_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { enabled: true, clock: ClockSource::Wall, timeline_capacity: 4096 }
    }
}

impl ObsConfig {
    /// A config whose handle records nothing — the baseline for
    /// overhead measurements.
    pub fn disabled() -> Self {
        ObsConfig { enabled: false, ..ObsConfig::default() }
    }

    /// An enabled config timestamped by `clock` (deterministic under
    /// simulated time).
    pub fn manual(clock: ManualClock) -> Self {
        ObsConfig { clock: ClockSource::Manual(clock), ..ObsConfig::default() }
    }
}

/// Shared state behind an enabled [`Obs`] handle.
#[derive(Debug)]
pub(crate) struct ObsInner {
    pub(crate) registry: Registry,
    pub(crate) clock: Box<dyn ClockDebug>,
    pub(crate) spans: Mutex<SpanScope>,
    pub(crate) timeline: Timeline,
    /// Per-process salt mixed into span ids (see [`Obs::set_trace_salt`]).
    trace_salt: AtomicU64,
    /// Monotone sequence behind span-id allocation.
    span_seq: AtomicU64,
}

impl ObsInner {
    /// Allocate a process-unique, salted, nonzero span id.
    pub(crate) fn next_span_id(&self) -> u64 {
        let n = self.span_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let salt = self.trace_salt.load(Ordering::Relaxed);
        // splitmix64 is a bijection, so for a fixed salt ids never
        // collide; distinct salts give disjoint-in-practice streams.
        let id = trace::splitmix64(trace::splitmix64(salt) ^ n);
        if id == 0 {
            1
        } else {
            id
        }
    }
}

/// [`Clock`] + `Debug`, so `ObsInner` can derive `Debug`.
pub(crate) trait ClockDebug: Clock + std::fmt::Debug {}
impl<T: Clock + std::fmt::Debug> ClockDebug for T {}

/// A cloneable observability handle.
///
/// All clones share one registry, one span stack, and one timeline.
/// The [`Default`]/[`Obs::disabled`] handle is a no-op everywhere:
/// counters don't count, spans don't record, events vanish, and every
/// exporter renders empty.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle per `config` (or a disabled one if
    /// `config.enabled` is false).
    pub fn new(config: ObsConfig) -> Self {
        if !config.enabled {
            return Obs::disabled();
        }
        let clock: Box<dyn ClockDebug> = match config.clock {
            ClockSource::Wall => Box::new(WallClock::new()),
            ClockSource::Manual(c) => Box::new(c),
        };
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::default(),
                clock,
                spans: Mutex::new(SpanScope::default()),
                timeline: Timeline::new(config.timeline_capacity),
                trace_salt: AtomicU64::new(0),
                span_seq: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current time per the handle's clock (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_us())
    }

    /// A counter handle for `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.registry.counter(name, None)))
    }

    /// A counter handle for `name{key="value"}` — one member of a
    /// labeled family (per-op-kind, per-fault-mode, ...).
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.registry.counter(name, Some((key, value)))))
    }

    /// A gauge handle for `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.registry.gauge(name, None)))
    }

    /// A gauge handle for `name{key="value"}`.
    pub fn gauge_with(&self, name: &str, key: &str, value: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.registry.gauge(name, Some((key, value)))))
    }

    /// A histogram handle for `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| i.registry.histogram(name, None)))
    }

    /// A histogram handle for `name{key="value"}`.
    pub fn histogram_with(&self, name: &str, key: &str, value: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| i.registry.histogram(name, Some((key, value)))))
    }

    /// Open a span named `name`; it records its duration (µs) into
    /// `kg_span_us{span="<dotted path>"}` when dropped. Nesting is by
    /// dynamic scope: a span opened while another is open records
    /// under `parent.name`.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            Some(inner) => Span::enter(inner, name),
            None => Span::noop(),
        }
    }

    /// Set the per-process salt mixed into distributed-trace span ids.
    ///
    /// Every process contributing spans to the same trace must use a
    /// distinct salt (convention: its transport endpoint id) so span
    /// ids stay unique across the cluster.
    pub fn set_trace_salt(&self, salt: u64) {
        if let Some(i) = &self.inner {
            i.trace_salt.store(salt, Ordering::Relaxed);
        }
    }

    /// Activate distributed tracing for the guard's lifetime.
    ///
    /// While active, every [`Obs::span`] allocates a span id under
    /// `ctx` and appends an [`ObsEvent::Span`] record to the timeline
    /// when it closes. Dropping the guard restores the previously
    /// active trace (if any). No-op on a disabled handle.
    pub fn trace_scope(&self, ctx: TraceContext) -> TraceGuard {
        match &self.inner {
            Some(inner) => TraceGuard::enter(inner, ctx),
            None => TraceGuard::noop(),
        }
    }

    /// Append a zero-duration traced span record directly to the
    /// timeline: one clock read, no scope entry, no histogram. The
    /// cheap marker for relay hops whose own work is sub-microsecond
    /// but whose causal link (`ctx.parent_span` → this record) must
    /// survive reassembly. No-op on a disabled handle.
    pub fn record_hop_span(&self, ctx: TraceContext, path: &str) {
        let Some(inner) = &self.inner else { return };
        let now = inner.clock.now_us();
        inner.timeline.push(
            now,
            ObsEvent::Span(trace::TraceSpan {
                trace_id: ctx.trace_id,
                span_id: inner.next_span_id(),
                parent_span: ctx.parent_span,
                hop: ctx.hop,
                path: path.to_string(),
                start_us: now,
                end_us: now,
            }),
        );
    }

    /// The active trace context, with `parent_span` set to the
    /// innermost open traced span — i.e. exactly what an outgoing
    /// frame should carry (after [`TraceContext::next_hop`]).
    pub fn current_trace(&self) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        inner.spans.lock().expect("span scope poisoned").trace.as_ref().map(|f| f.context())
    }

    /// Read the distribution recorded for a full dotted span path.
    pub fn span_snapshot(&self, path: &str) -> HistogramSnapshot {
        Histogram(
            self.inner.as_ref().map(|i| i.registry.histogram("kg_span_us", Some(("span", path)))),
        )
        .snapshot()
    }

    /// Append `event` to the timeline; returns its sequence number
    /// (0 when disabled).
    pub fn event(&self, event: ObsEvent) -> u64 {
        match &self.inner {
            Some(i) => i.timeline.push(i.clock.now_us(), event),
            None => 0,
        }
    }

    /// Copy of the retained timeline entries, oldest first.
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.timeline.entries())
    }

    /// Retained timeline entries with `seq > after`, oldest first —
    /// the increment a periodic harvester hasn't consumed yet, cloned
    /// without copying the whole ring.
    pub fn timeline_since(&self, after: u64) -> Vec<TimelineEntry> {
        self.inner.as_ref().map_or_else(Vec::new, |i| i.timeline.entries_since(after))
    }

    /// Cumulative number of events ever recorded (incl. evicted).
    pub fn timeline_total(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.timeline.total())
    }

    /// Entries lost to the ring bound so far.
    pub fn timeline_evicted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.timeline.evicted())
    }

    /// Cumulative per-kind event counts; unlike the ring itself these
    /// survive eviction, so they reconcile against WAL record counts.
    pub fn event_kind_counts(&self) -> BTreeMap<&'static str, u64> {
        self.inner.as_ref().map_or_else(BTreeMap::new, |i| i.timeline.kind_counts())
    }

    /// Structured snapshot of every registered counter as sorted
    /// `(rendered name, value)` pairs, the name in exposition form
    /// (`name` or `name{key="value"}`). This is the aggregation surface:
    /// a cluster router merges the snapshots of N per-shard registries
    /// into one exported view by summing values under equal names.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.registry.counters().iter().map(|(k, v)| (metrics::render_key(k), *v)).collect()
        })
    }

    /// Structured snapshot of every registered gauge, as
    /// [`counter_values`](Obs::counter_values).
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.registry.gauges().iter().map(|(k, v)| (metrics::render_key(k), *v)).collect()
        })
    }

    /// Structured snapshot of every registered histogram, as
    /// [`counter_values`](Obs::counter_values) — the summary feeds
    /// telemetry snapshots, which ship quantile digests rather than
    /// raw buckets.
    pub fn histogram_values(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.registry.histograms().iter().map(|(k, v)| (metrics::render_key(k), *v)).collect()
        })
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn render_prometheus(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| export::render_prometheus(i))
    }

    /// JSON dump of metrics, cumulative event counts, and the retained
    /// timeline.
    pub fn render_json(&self) -> String {
        self.inner.as_ref().map_or_else(|| "{}".to_string(), |i| export::render_json(i))
    }

    /// Human-readable, causally ordered timeline.
    pub fn render_timeline(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |i| export::render_timeline(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter("c").inc();
        obs.gauge("g").set(9);
        obs.histogram("h").record(9);
        assert_eq!(obs.event(ObsEvent::Refresh), 0);
        assert_eq!(obs.counter("c").get(), 0);
        assert!(obs.timeline().is_empty());
        assert_eq!(obs.timeline_total(), 0);
        assert!(obs.event_kind_counts().is_empty());
        assert!(obs.render_prometheus().is_empty());
        assert_eq!(obs.render_json(), "{}");
        assert!(obs.render_timeline().is_empty());
        // ObsConfig::disabled() yields the same inert handle.
        assert!(!Obs::new(ObsConfig::disabled()).is_enabled());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(ObsConfig::default());
        let c1 = obs.counter("kg_requests_total");
        let other = obs.clone();
        other.counter("kg_requests_total").add(4);
        c1.inc();
        assert_eq!(other.counter("kg_requests_total").get(), 5);
        obs.event(ObsEvent::Join { user: 7 });
        assert_eq!(other.timeline_total(), 1);
    }

    #[test]
    fn events_are_stamped_with_the_manual_clock() {
        let clock = ManualClock::new();
        let obs = Obs::new(ObsConfig::manual(clock.clone()));
        clock.set_us(40);
        let s1 = obs.event(ObsEvent::Join { user: 1 });
        clock.set_us(90);
        let s2 = obs.event(ObsEvent::Leave { user: 1 });
        assert_eq!((s1, s2), (1, 2));
        let tl = obs.timeline();
        assert_eq!(tl[0].at_us, 40);
        assert_eq!(tl[1].at_us, 90);
        assert_eq!(obs.now_us(), 90);
    }

    #[test]
    fn counter_and_gauge_snapshots_render_names() {
        let obs = Obs::new(ObsConfig::default());
        obs.counter("kg_requests_total").add(2);
        obs.counter_with("kg_requests_total", "kind", "join").add(5);
        obs.gauge("kg_group_size").set(-3);
        assert_eq!(
            obs.counter_values(),
            vec![
                ("kg_requests_total".to_string(), 2),
                ("kg_requests_total{kind=\"join\"}".to_string(), 5),
            ]
        );
        assert_eq!(obs.gauge_values(), vec![("kg_group_size".to_string(), -3)]);
        assert!(Obs::disabled().counter_values().is_empty());
        assert!(Obs::disabled().gauge_values().is_empty());
    }

    #[test]
    fn labeled_families_are_distinct_metrics() {
        let obs = Obs::new(ObsConfig::default());
        obs.counter_with("kg_requests_total", "kind", "join").add(3);
        obs.counter_with("kg_requests_total", "kind", "leave").add(1);
        assert_eq!(obs.counter_with("kg_requests_total", "kind", "join").get(), 3);
        assert_eq!(obs.counter_with("kg_requests_total", "kind", "leave").get(), 1);
        assert_eq!(obs.counter("kg_requests_total").get(), 0);
    }
}
