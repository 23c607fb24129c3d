//! Telemetry-plane payloads: the periodic node → router metrics push
//! and the span records that stitch cross-process traces together.
//!
//! A [`TelemetrySnapshot`] is the bounded unit a shard node ships to
//! the router every telemetry interval. Counters are *delta-encoded*
//! (the change since the previous acked-by-construction snapshot —
//! UDP loss is detected by the receiver via the gap-free `seq` and
//! surfaced as a staleness count rather than silently double-counted
//! absolute values). Gauges and histogram summaries are absolute:
//! last-write-wins is the correct merge for them. The span tail
//! carries the [`TraceSpan`] records appended to the node's timeline
//! since the previous push, which is what lets the router reassemble
//! multi-process traces.
//!
//! Everything uses the same strict length-prefixed codec as the rest
//! of the crate: hostile input produces typed errors, never panics or
//! unbounded allocation.

use crate::codec::{get_count, get_str, get_u64, get_u8, put_bytes};
use crate::WireError;
use bytes::BufMut;
use kg_obs::{HistogramSnapshot, TraceSpan};

/// One bounded telemetry push from a shard node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Gap-free per-node snapshot sequence number (1-based). A gap at
    /// the receiver means pushes were lost and the delta-encoded
    /// counters under-count; the merger tracks this per shard.
    pub seq: u64,
    /// Node-local timestamp of the snapshot, microseconds.
    pub at_us: u64,
    /// Counter *deltas* since the previous snapshot, keyed by rendered
    /// exposition name (`name{label="value"}`).
    pub counters: Vec<(String, u64)>,
    /// Absolute gauge values.
    pub gauges: Vec<(String, i64)>,
    /// Absolute histogram summaries (quantile digests, not buckets).
    pub hists: Vec<(String, HistogramSnapshot)>,
    /// Trace-span records appended to the node timeline since the
    /// previous push.
    pub spans: Vec<TraceSpan>,
}

/// Error context for a name or span path that is not UTF-8.
const UTF8: &str = "telemetry utf-8 string";

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Append one encoded [`TraceSpan`].
pub(crate) fn put_span(out: &mut Vec<u8>, s: &TraceSpan) {
    out.put_u64(s.trace_id);
    out.put_u64(s.span_id);
    out.put_u64(s.parent_span);
    out.put_u8(s.hop);
    put_str(out, &s.path);
    out.put_u64(s.start_us);
    out.put_u64(s.end_us);
}

/// Read one encoded [`TraceSpan`].
pub(crate) fn get_span(buf: &mut &[u8]) -> Result<TraceSpan, WireError> {
    Ok(TraceSpan {
        trace_id: get_u64(buf)?,
        span_id: get_u64(buf)?,
        parent_span: get_u64(buf)?,
        hop: get_u8(buf)?,
        path: get_str(buf, UTF8)?,
        start_us: get_u64(buf)?,
        end_us: get_u64(buf)?,
    })
}

fn put_hist(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    for v in [h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99] {
        out.put_u64(v);
    }
}

fn get_hist(buf: &mut &[u8]) -> Result<HistogramSnapshot, WireError> {
    Ok(HistogramSnapshot {
        count: get_u64(buf)?,
        sum: get_u64(buf)?,
        min: get_u64(buf)?,
        max: get_u64(buf)?,
        p50: get_u64(buf)?,
        p90: get_u64(buf)?,
        p99: get_u64(buf)?,
    })
}

impl TelemetrySnapshot {
    /// Append the encoded snapshot to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u64(self.seq);
        out.put_u64(self.at_us);
        out.put_u32(self.counters.len() as u32);
        for (name, v) in &self.counters {
            put_str(out, name);
            out.put_u64(*v);
        }
        out.put_u32(self.gauges.len() as u32);
        for (name, v) in &self.gauges {
            put_str(out, name);
            out.put_u64(*v as u64);
        }
        out.put_u32(self.hists.len() as u32);
        for (name, h) in &self.hists {
            put_str(out, name);
            put_hist(out, h);
        }
        out.put_u32(self.spans.len() as u32);
        for s in &self.spans {
            put_span(out, s);
        }
    }

    /// Read one snapshot from `buf`, consuming exactly its bytes.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, WireError> {
        let seq = get_u64(buf)?;
        let at_us = get_u64(buf)?;
        let n = get_count(buf)?;
        let mut counters = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            counters.push((get_str(buf, UTF8)?, get_u64(buf)?));
        }
        let n = get_count(buf)?;
        let mut gauges = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            gauges.push((get_str(buf, UTF8)?, get_u64(buf)? as i64));
        }
        let n = get_count(buf)?;
        let mut hists = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            hists.push((get_str(buf, UTF8)?, get_hist(buf)?));
        }
        let n = get_count(buf)?;
        let mut spans = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            spans.push(get_span(buf)?);
        }
        Ok(TelemetrySnapshot { seq, at_us, counters, gauges, hists, spans })
    }

    /// Encoded size in bytes — senders use this to stay inside the
    /// transport datagram budget.
    pub fn wire_len(&self) -> usize {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq: 3,
            at_us: 1_234_567,
            counters: vec![
                ("kg_requests_total{kind=\"join\"}".into(), 17),
                ("kg_encryptions_total".into(), 420),
            ],
            gauges: vec![("kg_batch_queue_depth".into(), -2)],
            hists: vec![(
                "kg_span_us{span=\"op.join\"}".into(),
                HistogramSnapshot { count: 5, sum: 50, min: 2, max: 30, p50: 8, p90: 28, p99: 30 },
            )],
            spans: vec![TraceSpan {
                trace_id: 0xAB,
                span_id: 0xCD,
                parent_span: 0x12,
                hop: 1,
                path: "node.parse.op.join".into(),
                start_us: 100,
                end_us: 250,
            }],
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample_snapshot();
        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        assert_eq!(bytes.len(), snap.wire_len());
        let mut buf = bytes.as_slice();
        let decoded = TelemetrySnapshot::decode_from(&mut buf).unwrap();
        assert!(buf.is_empty());
        assert_eq!(decoded, snap);
        // Empty snapshot too.
        let empty = TelemetrySnapshot::default();
        let mut bytes = Vec::new();
        empty.encode_into(&mut bytes);
        let mut buf = bytes.as_slice();
        assert_eq!(TelemetrySnapshot::decode_from(&mut buf).unwrap(), empty);
    }

    #[test]
    fn negative_gauges_survive() {
        let snap = TelemetrySnapshot {
            gauges: vec![("g".into(), i64::MIN), ("h".into(), -1)],
            ..TelemetrySnapshot::default()
        };
        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        let decoded = TelemetrySnapshot::decode_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(decoded.gauges, snap.gauges);
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let snap = TelemetrySnapshot {
            counters: vec![("name".into(), 1)],
            ..TelemetrySnapshot::default()
        };
        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        // Corrupt the first byte of the counter name ("name" starts
        // after seq + at_us + count = 8 + 8 + 4 bytes + 4-byte length).
        bytes[24] = 0xFF;
        let err = TelemetrySnapshot::decode_from(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadTag { context: "telemetry utf-8 string", .. }));
    }

    #[test]
    fn truncation_never_panics() {
        let snap = sample_snapshot();
        let mut bytes = Vec::new();
        snap.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(TelemetrySnapshot::decode_from(&mut &bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
