//! Router-side telemetry plane: merging per-shard snapshot streams into
//! one cluster-wide metrics view, storing cross-process trace spans for
//! reassembly, and keeping a flight-recorder ring for post-mortems.
//!
//! Shard nodes push bounded [`TelemetrySnapshot`]s over the existing
//! cluster plane (see `kg_wire::telemetry` for the delta/absolute
//! encoding rules). The [`TelemetryMerger`] is the receiving half:
//!
//! * counter **deltas** are summed per shard (a seq gap means lost
//!   pushes; the merger surfaces the under-count as a per-shard
//!   `missed` figure instead of silently absorbing it),
//! * gauges and histogram digests are **absolute** and last-write-wins
//!   per shard, then combined across shards (sums for gauges and
//!   histogram counts, per-shard maxima for quantiles — quantile
//!   digests do not merge exactly),
//! * span records feed a bounded [`TraceStore`] keyed by trace id,
//!   which [`kg_obs::trace::reassemble`] turns back into causally
//!   linked cross-process traces on demand.

use kg_obs::trace::reassemble;
use kg_obs::{HistogramSnapshot, Obs, Trace, TraceSpan};
use kg_wire::{ShardId, TelemetrySnapshot};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Most traces retained by the router; older traces are evicted in
/// arrival order.
pub const TRACE_STORE_CAPACITY: usize = 256;

/// Snapshots retained in the flight-recorder ring (across all shards).
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Splice a suffix into a rendered metric name, before the label block
/// if one is present (`kg_span_us{span="x"}` + `_count` →
/// `kg_span_us_count{span="x"}`).
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(i) => format!("{}{}{}", &name[..i], suffix, &name[i..]),
        None => format!("{name}{suffix}"),
    }
}

/// The per-shard half of the merged view.
#[derive(Debug, Default, Clone)]
struct ShardView {
    /// Highest snapshot seq ingested.
    last_seq: u64,
    /// Pushes lost between ingested snapshots (seq gaps). The counter
    /// sums below under-count by whatever those snapshots carried.
    missed: u64,
    /// Node-local timestamp of the last snapshot.
    last_at_us: u64,
    /// Snapshots ingested.
    snapshots: u64,
    /// Summed counter deltas (≈ the node's absolute counters, modulo
    /// missed pushes).
    counters: BTreeMap<String, u64>,
    /// Last-write-wins absolute gauges.
    gauges: BTreeMap<String, i64>,
    /// Last-write-wins histogram digests.
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl ShardView {
    /// The shard's request total, the load figure behind the skew
    /// gauges (joins + leaves + refreshes + batch flushes).
    fn requests(&self) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with("kg_requests_total"))
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Bounded store of trace-span records, keyed by trace id, evicting
/// whole traces oldest-first.
#[derive(Debug, Default)]
pub struct TraceStore {
    by_trace: BTreeMap<u64, Vec<TraceSpan>>,
    /// Trace ids in first-seen order, for eviction.
    order: VecDeque<u64>,
    capacity: usize,
    /// Traces dropped to stay within `capacity`.
    evicted: u64,
}

impl TraceStore {
    /// An empty store retaining at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TraceStore { by_trace: BTreeMap::new(), order: VecDeque::new(), capacity, evicted: 0 }
    }

    /// Traces currently retained.
    pub fn len(&self) -> usize {
        self.by_trace.len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.by_trace.is_empty()
    }

    /// Traces evicted, oldest first, to stay within the capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Add span records (from any process; duplicates collapse).
    ///
    /// Only a hop-0 span — the router's own ingress record, the trace's
    /// root side — may *create* an entry; fragments for unknown trace
    /// ids are dropped. Requests and their fan-out/node spans arrive in
    /// separated bursts (the router drains every pending request before
    /// the first reply comes back, and shards push their span windows
    /// whenever their timers fire), so under any create-on-sight policy
    /// a burst of stragglers for already-evicted traces would push out
    /// every trace still accumulating its other side. A rootless
    /// fragment can never reassemble stitched, so dropping it loses
    /// nothing.
    pub fn ingest(&mut self, spans: impl IntoIterator<Item = TraceSpan>) {
        for s in spans {
            match self.by_trace.entry(s.trace_id) {
                Entry::Occupied(mut e) => {
                    let spans = e.get_mut();
                    if !spans.contains(&s) {
                        spans.push(s);
                    }
                }
                Entry::Vacant(e) => {
                    if s.hop != 0 {
                        continue;
                    }
                    self.order.push_back(s.trace_id);
                    e.insert(vec![s]);
                }
            }
        }
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.by_trace.remove(&old);
                self.evicted += 1;
            }
        }
    }

    /// Reassemble the trace with this id, if any of its spans are held.
    pub fn get(&self, trace_id: u64) -> Option<Trace> {
        let spans = self.by_trace.get(&trace_id)?;
        reassemble(spans.iter().cloned()).pop()
    }

    /// Retained trace ids, first-seen order (oldest first).
    pub fn trace_ids(&self) -> Vec<u64> {
        self.order.iter().copied().collect()
    }

    /// The most recently started trace that reassembles fully stitched
    /// (root present, ≥ 2 hops, every parent link resolved).
    pub fn latest_stitched(&self) -> Option<Trace> {
        self.order.iter().rev().filter_map(|id| self.get(*id)).find(|t| t.is_stitched())
    }
}

/// One flight-recorder entry: where a snapshot came from and what it
/// carried.
#[derive(Debug, Clone)]
struct Recorded {
    shard: ShardId,
    snapshot: TelemetrySnapshot,
}

/// The router's merged view of every shard's telemetry stream.
#[derive(Debug)]
pub struct TelemetryMerger {
    shards: BTreeMap<ShardId, ShardView>,
    traces: TraceStore,
    recorder: VecDeque<Recorded>,
}

impl Default for TelemetryMerger {
    fn default() -> Self {
        TelemetryMerger {
            shards: BTreeMap::new(),
            traces: TraceStore::new(TRACE_STORE_CAPACITY),
            recorder: VecDeque::new(),
        }
    }
}

impl TelemetryMerger {
    /// Merge one snapshot pushed by `shard`. Returns false if the
    /// snapshot was stale (seq ≤ the last ingested one, e.g. a
    /// duplicated datagram) and was dropped.
    pub fn ingest(&mut self, shard: ShardId, snapshot: TelemetrySnapshot) -> bool {
        let view = self.shards.entry(shard).or_default();
        if snapshot.seq <= view.last_seq {
            return false;
        }
        view.missed += snapshot.seq - view.last_seq - 1;
        view.last_seq = snapshot.seq;
        view.last_at_us = snapshot.at_us;
        view.snapshots += 1;
        for (name, delta) in &snapshot.counters {
            *view.counters.entry(name.clone()).or_insert(0) += delta;
        }
        for (name, v) in &snapshot.gauges {
            view.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &snapshot.hists {
            view.hists.insert(name.clone(), *h);
        }
        self.traces.ingest(snapshot.spans.iter().cloned());
        self.recorder.push_back(Recorded { shard, snapshot });
        while self.recorder.len() > FLIGHT_RECORDER_CAPACITY {
            self.recorder.pop_front();
        }
        true
    }

    /// Add span records that did not arrive via a snapshot (the
    /// router's own timeline).
    pub fn ingest_spans(&mut self, spans: impl IntoIterator<Item = TraceSpan>) {
        self.traces.ingest(spans);
    }

    /// The cross-process trace store.
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// Per-shard stream health: `(shard, last_seq, missed)`.
    pub fn shard_health(&self) -> Vec<(ShardId, u64, u64)> {
        self.shards.iter().map(|(s, v)| (*s, v.last_seq, v.missed)).collect()
    }

    /// Counters summed across every shard (and the router's own
    /// registry), keyed by rendered exposition name.
    pub fn merged_counters(&self, router: &Obs) -> BTreeMap<String, u64> {
        let mut sums: BTreeMap<String, u64> = BTreeMap::new();
        for (name, v) in router.counter_values() {
            *sums.entry(name).or_insert(0) += v;
        }
        for view in self.shards.values() {
            for (name, v) in &view.counters {
                *sums.entry(name.clone()).or_insert(0) += v;
            }
        }
        sums
    }

    fn merged_gauges(&self, router: &Obs) -> BTreeMap<String, i64> {
        let mut sums: BTreeMap<String, i64> = BTreeMap::new();
        for (name, v) in router.gauge_values() {
            *sums.entry(name).or_insert(0) += v;
        }
        for view in self.shards.values() {
            for (name, v) in &view.gauges {
                *sums.entry(name.clone()).or_insert(0) += v;
            }
        }
        sums
    }

    /// Histogram digests combined across shards: counts and sums add,
    /// min/max widen, quantiles take the per-shard maximum (an upper
    /// bound — exact quantile merge needs the raw buckets).
    fn merged_hists(&self, router: &Obs) -> BTreeMap<String, HistogramSnapshot> {
        let mut merged: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let router_hists = router.histogram_values();
        let shard_hists =
            self.shards.values().flat_map(|v| v.hists.iter().map(|(n, h)| (n.clone(), *h)));
        for (name, h) in router_hists.into_iter().chain(shard_hists) {
            if h.count == 0 {
                continue;
            }
            let m = merged.entry(name).or_default();
            if m.count == 0 {
                *m = h;
            } else {
                m.count += h.count;
                m.sum += h.sum;
                m.min = m.min.min(h.min);
                m.max = m.max.max(h.max);
                m.p50 = m.p50.max(h.p50);
                m.p90 = m.p90.max(h.p90);
                m.p99 = m.p99.max(h.p99);
            }
        }
        merged
    }

    /// Load skew across shards, percent: `(max − min) * 100 / max` of
    /// the per-shard request totals. 0 when balanced or unmeasurable.
    pub fn skew_pct(&self) -> u64 {
        let loads: Vec<u64> = self.shards.values().map(ShardView::requests).collect();
        let (max, min) =
            (loads.iter().copied().max().unwrap_or(0), loads.iter().copied().min().unwrap_or(0));
        ((max - min) * 100).checked_div(max).unwrap_or(0)
    }

    /// Prometheus-style text exposition of the merged cluster view:
    /// summed counters and gauges, combined histogram summaries, and
    /// the synthesized per-shard stream-health and skew gauges.
    pub fn render_prometheus(&self, router: &Obs) -> String {
        let mut out = String::new();
        for (name, v) in self.merged_counters(router) {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in self.merged_gauges(router) {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in self.merged_hists(router) {
            let _ = writeln!(out, "{} {}", suffixed(&name, "_count"), h.count);
            let _ = writeln!(out, "{} {}", suffixed(&name, "_sum"), h.sum);
            let _ = writeln!(out, "{} {}", suffixed(&name, "_p50"), h.p50);
            let _ = writeln!(out, "{} {}", suffixed(&name, "_p99"), h.p99);
        }
        for (shard, view) in &self.shards {
            let s = shard.0;
            let _ = writeln!(
                out,
                "kg_cluster_telemetry_snapshots_total{{shard=\"{s}\"}} {}",
                view.snapshots
            );
            let _ =
                writeln!(out, "kg_cluster_telemetry_missed_total{{shard=\"{s}\"}} {}", view.missed);
            let _ = writeln!(
                out,
                "kg_cluster_shard_requests_total{{shard=\"{s}\"}} {}",
                view.requests()
            );
        }
        let _ = writeln!(out, "kg_cluster_shard_skew_pct {}", self.skew_pct());
        let _ = writeln!(out, "kg_cluster_traces_stored {}", self.traces.len());
        let _ = writeln!(out, "kg_cluster_traces_evicted_total {}", self.traces.evicted());
        out
    }

    /// JSON dump of the same merged view, for machine consumers.
    pub fn render_json(&self, router: &Obs) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.merged_counters(router);
        for (i, (name, v)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let gauges = self.merged_gauges(router);
        for (i, (name, v)) in gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", json_escape(name));
        }
        out.push_str("\n  },\n  \"hists\": {");
        for (i, (name, h)) in self.merged_hists(router).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.p50,
                h.p99
            );
        }
        out.push_str("\n  },\n  \"shards\": [");
        for (i, (shard, view)) in self.shards.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"shard\": {}, \"seq\": {}, \"missed\": {}, \"requests\": {}, \
                 \"at_us\": {}}}",
                shard.0,
                view.last_seq,
                view.missed,
                view.requests(),
                view.last_at_us
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"skew_pct\": {},\n  \"traces_stored\": {}\n}}\n",
            self.skew_pct(),
            self.traces.len()
        );
        out
    }

    /// The flight-recorder dump: the merged view plus the last
    /// [`FLIGHT_RECORDER_CAPACITY`] raw snapshots and the tail of the
    /// router's own timeline. Written on shutdown or crash so the final
    /// moments of a cluster survive the process.
    pub fn render_flight_recorder(&self, router: &Obs) -> String {
        let mut out = String::from("{\n  \"merged\": ");
        // Indent the nested document one level so the dump stays
        // readable; it is already valid JSON.
        out.push_str(&self.render_json(router).trim_end().replace('\n', "\n  "));
        out.push_str(",\n  \"snapshots\": [");
        for (i, rec) in self.recorder.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"shard\": {}, \"seq\": {}, \"at_us\": {}, \"counters\": [",
                rec.shard.0, rec.snapshot.seq, rec.snapshot.at_us
            );
            for (j, (name, v)) in rec.snapshot.counters.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[\"{}\", {v}]", json_escape(name));
            }
            let _ = write!(out, "], \"spans\": {}}}", rec.snapshot.spans.len());
        }
        out.push_str("\n  ],\n  \"timeline\": [");
        let timeline = router.render_timeline();
        for (i, line) in
            timeline.lines().rev().take(100).collect::<Vec<_>>().iter().rev().enumerate()
        {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\"", json_escape(line));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_obs::{Obs, ObsConfig};

    fn snap(seq: u64, counters: &[(&str, u64)]) -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq,
            at_us: seq * 1000,
            counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            ..TelemetrySnapshot::default()
        }
    }

    fn span(trace: u64, id: u64, parent: u64, hop: u8, path: &str) -> TraceSpan {
        TraceSpan {
            trace_id: trace,
            span_id: id,
            parent_span: parent,
            hop,
            path: path.to_string(),
            start_us: id,
            end_us: id + 10,
        }
    }

    #[test]
    fn deltas_sum_and_gaps_are_counted() {
        let mut m = TelemetryMerger::default();
        let s0 = ShardId(0);
        assert!(m.ingest(s0, snap(1, &[("kg_requests_total{kind=\"join\"}", 3)])));
        // seq 2 and 3 lost in flight; the gap is surfaced, not hidden.
        assert!(m.ingest(s0, snap(4, &[("kg_requests_total{kind=\"join\"}", 2)])));
        // A duplicated datagram is stale and dropped.
        assert!(!m.ingest(s0, snap(4, &[("kg_requests_total{kind=\"join\"}", 2)])));
        m.ingest(ShardId(1), snap(1, &[("kg_requests_total{kind=\"join\"}", 10)]));

        let router = Obs::new(ObsConfig::default());
        router.counter("kg_cluster_routed_total").add(7);
        let merged = m.merged_counters(&router);
        assert_eq!(merged.get("kg_requests_total{kind=\"join\"}"), Some(&15));
        assert_eq!(merged.get("kg_cluster_routed_total"), Some(&7));
        assert_eq!(m.shard_health(), vec![(ShardId(0), 4, 2), (ShardId(1), 1, 0)]);
        // Skew: shard 1 at 10 requests, shard 0 at 5 → (10-5)*100/10.
        assert_eq!(m.skew_pct(), 50);

        let prom = m.render_prometheus(&router);
        assert!(prom.contains("kg_cluster_telemetry_missed_total{shard=\"0\"} 2"));
        assert!(prom.contains("kg_cluster_shard_skew_pct 50"));
        let json = m.render_json(&router);
        assert!(json.contains("\"missed\": 2"));
        assert!(json.contains("kg_requests_total{kind=\\\"join\\\"}"));
    }

    #[test]
    fn gauges_and_hists_are_absolute() {
        let mut m = TelemetryMerger::default();
        let mut s = snap(1, &[]);
        s.gauges = vec![("kg_group_size".into(), 5)];
        m.ingest(ShardId(0), s);
        let mut s = snap(2, &[]);
        s.gauges = vec![("kg_group_size".into(), 3)];
        s.hists = vec![(
            "kg_span_us{span=\"op.join\"}".into(),
            HistogramSnapshot { count: 4, sum: 40, min: 5, max: 20, p50: 9, p90: 18, p99: 20 },
        )];
        m.ingest(ShardId(0), s);
        let router = Obs::new(ObsConfig::default());
        // Last write wins, not 5 + 3.
        assert_eq!(m.merged_gauges(&router).get("kg_group_size"), Some(&3));
        let prom = m.render_prometheus(&router);
        assert!(prom.contains("kg_span_us_count{span=\"op.join\"} 4"));
        assert!(prom.contains("kg_span_us_p99{span=\"op.join\"} 20"));
    }

    #[test]
    fn trace_store_stitches_and_evicts() {
        let mut store = TraceStore::new(2);
        store.ingest([
            span(1, 10, 0, 0, "router.recv"),
            span(1, 20, 10, 1, "node.parse"),
            // Duplicate collapses.
            span(1, 20, 10, 1, "node.parse"),
        ]);
        assert_eq!(store.get(1).unwrap().spans.len(), 2);
        assert_eq!(store.latest_stitched().unwrap().trace_id, 1);
        // A later, unstitched trace does not shadow the stitched one.
        store.ingest([span(2, 30, 0, 0, "router.recv")]);
        assert_eq!(store.latest_stitched().unwrap().trace_id, 1);
        // Capacity 2: a third trace evicts the oldest.
        store.ingest([span(3, 40, 0, 0, "router.recv")]);
        assert_eq!((store.len(), store.evicted()), (2, 1));
        assert!(store.get(1).is_none());
        assert!(store.latest_stitched().is_none());
        // A rootless fragment (no hop-0 span held) neither creates an
        // entry nor evicts one; a late fragment for a held trace lands.
        store.ingest([span(4, 50, 0, 1, "node.parse")]);
        assert_eq!((store.len(), store.evicted()), (2, 1));
        assert!(store.get(4).is_none());
        store.ingest([span(3, 41, 40, 1, "node.parse")]);
        assert_eq!(store.latest_stitched().unwrap().trace_id, 3);
    }

    #[test]
    fn flight_recorder_holds_the_tail() {
        let mut m = TelemetryMerger::default();
        for seq in 1..=(FLIGHT_RECORDER_CAPACITY as u64 + 5) {
            m.ingest(ShardId(0), snap(seq, &[("kg_requests_total", 1)]));
        }
        assert_eq!(m.recorder.len(), FLIGHT_RECORDER_CAPACITY);
        let router = Obs::new(ObsConfig::default());
        router.event(kg_obs::ObsEvent::Refresh);
        let dump = m.render_flight_recorder(&router);
        assert!(dump.contains("\"snapshots\": ["));
        assert!(dump.contains("\"seq\": 69"));
        assert!(dump.contains("\"timeline\": ["));
    }
}
