//! Per-request server statistics.
//!
//! Everything the paper's evaluation tables need: processing time per
//! request (Figures 10/11, Table 4), number and size of rekey messages
//! sent (Tables 4/5), and encryption counts (validating Table 2/3).
//! Records are kept per operation so min/ave/max columns can be derived.
//!
//! Aggregates are **streaming**: every [`push`](ServerStats::push)
//! folds the record into running totals (per kind and overall), so
//! [`aggregate`](ServerStats::aggregate) is O(1) in the number of
//! records and covers every record pushed, while the records themselves
//! are a bounded window of the newest
//! ([`DEFAULT_RECORD_CAP`](ServerStats::DEFAULT_RECORD_CAP) unless
//! [`ServerStats::with_record_cap`] says otherwise) — a server's memory
//! must not grow with the requests it has served. The floating-point sums
//! are accumulated in insertion order, so the derived means equal a
//! sequential walk over every record bit for bit.

use kg_obs::LocalHistogram;
use kg_wire::OpKind;

/// One processed join/leave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Join, leave, or batched interval.
    pub kind: OpKind,
    /// Membership requests covered by this record: 1 for an immediate
    /// join/leave, joins + leaves for a batched interval.
    pub requests: u32,
    /// Wire size of every rekey message sent for this operation.
    pub msg_sizes: Vec<u32>,
    /// Server processing time in nanoseconds (parse → update tree →
    /// encrypt → digest/sign → encode).
    pub proc_ns: u64,
    /// Keys encrypted (the paper's cost unit).
    pub encryptions: u64,
    /// Digital signature operations performed.
    pub signatures: u64,
}

impl OpRecord {
    /// Total bytes sent for this operation.
    pub fn total_bytes(&self) -> u64 {
        self.msg_sizes.iter().map(|&s| s as u64).sum()
    }
}

/// Aggregated view over a set of records (one Table 5-style row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of operations aggregated (batched intervals count once).
    pub ops: u64,
    /// Total membership requests covered by those operations.
    pub requests: u64,
    /// Mean rekey-message size in bytes.
    pub msg_size_ave: f64,
    /// Smallest rekey message seen.
    pub msg_size_min: u32,
    /// Largest rekey message seen.
    pub msg_size_max: u32,
    /// Mean number of rekey messages per operation.
    pub msgs_per_op: f64,
    /// Mean processing time per operation, in milliseconds.
    pub proc_ms_ave: f64,
    /// Median processing time per operation, in milliseconds
    /// (log-bucketed histogram estimate, ≤12.5% relative error).
    pub proc_ms_p50: f64,
    /// 99th-percentile processing time per operation, in milliseconds
    /// (same histogram estimate).
    pub proc_ms_p99: f64,
    /// Mean keys-encrypted per operation.
    pub encryptions_ave: f64,
    /// Mean signature operations per operation.
    pub signatures_ave: f64,
}

/// Streaming totals for one record population (a kind, or all kinds).
#[derive(Debug, Clone)]
struct Totals {
    ops: u64,
    requests: u64,
    msgs: u64,
    bytes: u64,
    size_min: u32,
    size_max: u32,
    // f64 running sums, accumulated in insertion order so the derived
    // means match a sequential records walk bit-for-bit.
    proc_ns_sum: f64,
    encryptions_sum: f64,
    signatures_sum: f64,
    proc_us: LocalHistogram,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            ops: 0,
            requests: 0,
            msgs: 0,
            bytes: 0,
            size_min: u32::MAX,
            size_max: 0,
            proc_ns_sum: 0.0,
            encryptions_sum: 0.0,
            signatures_sum: 0.0,
            proc_us: LocalHistogram::new(),
        }
    }
}

impl Totals {
    fn fold(&mut self, rec: &OpRecord) {
        self.ops += 1;
        self.requests += rec.requests as u64;
        self.msgs += rec.msg_sizes.len() as u64;
        for &s in &rec.msg_sizes {
            self.bytes += s as u64;
            self.size_min = self.size_min.min(s);
            self.size_max = self.size_max.max(s);
        }
        self.proc_ns_sum += rec.proc_ns as f64;
        self.encryptions_sum += rec.encryptions as f64;
        self.signatures_sum += rec.signatures as f64;
        self.proc_us.record(rec.proc_ns / 1_000);
    }

    fn aggregate(&self) -> Option<Aggregate> {
        if self.ops == 0 {
            return None;
        }
        let ops = self.ops;
        let total_msgs = self.msgs as f64;
        let proc = self.proc_us.snapshot();
        Some(Aggregate {
            ops,
            requests: self.requests,
            msg_size_ave: if total_msgs > 0.0 { self.bytes as f64 / total_msgs } else { 0.0 },
            msg_size_min: if self.msgs == 0 { 0 } else { self.size_min },
            msg_size_max: self.size_max,
            msgs_per_op: total_msgs / ops as f64,
            proc_ms_ave: self.proc_ns_sum / ops as f64 / 1e6,
            proc_ms_p50: proc.p50 as f64 / 1e3,
            proc_ms_p99: proc.p99 as f64 / 1e3,
            encryptions_ave: self.encryptions_sum / ops as f64,
            signatures_ave: self.signatures_sum / ops as f64,
        })
    }
}

const KINDS: usize = 4;

/// Statistics sink held by the server.
///
/// Retains the newest [`record_cap`](Self::record_cap) [`OpRecord`]s
/// (snapshots checkpoint them, and per-record views like Figure 10's
/// scatter read them); older ones are evicted while the streaming totals
/// — and therefore [`aggregate`](Self::aggregate) — continue to cover
/// every record pushed since the last [`reset`](Self::reset).
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// The window is the tail of this vector. It grows to twice the cap
    /// and then drops its older half in one move, so eviction is amortised
    /// O(1) per push and the window is always one contiguous slice.
    records: Vec<OpRecord>,
    record_cap: usize,
    by_kind: [Totals; KINDS],
    overall: Totals,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::with_record_cap(Self::DEFAULT_RECORD_CAP)
    }
}

impl ServerStats {
    /// Records retained unless the configuration's `stats-record-cap`
    /// overrides it.
    pub const DEFAULT_RECORD_CAP: usize = 1024;

    /// A sink that retains at most `cap` records (0 retains none).
    /// Aggregates still cover every pushed record.
    pub fn with_record_cap(cap: usize) -> Self {
        ServerStats {
            records: Vec::new(),
            record_cap: cap,
            by_kind: Default::default(),
            overall: Totals::default(),
        }
    }

    /// The retention cap.
    pub fn record_cap(&self) -> usize {
        self.record_cap
    }

    /// Append a record.
    pub fn push(&mut self, rec: OpRecord) {
        self.by_kind[rec.kind.tag() as usize].fold(&rec);
        self.overall.fold(&rec);
        if self.record_cap == 0 {
            return;
        }
        if self.records.len() == 2 * self.record_cap {
            self.records.drain(..self.record_cap);
        }
        self.records.push(rec);
    }

    /// The retained records: the newest `record_cap` pushed, oldest first.
    pub fn records(&self) -> &[OpRecord] {
        &self.records[self.records.len().saturating_sub(self.record_cap)..]
    }

    /// Records evicted by the cap so far.
    pub fn records_evicted(&self) -> u64 {
        self.overall.ops - self.records().len() as u64
    }

    /// Total records ever pushed since the last reset (retained +
    /// evicted) — what the aggregates cover.
    pub fn records_pushed(&self) -> u64 {
        self.overall.ops
    }

    /// Drop everything (e.g. after the initial-population phase, which the
    /// paper excludes from its tables). Totals reset too.
    pub fn reset(&mut self) {
        *self = ServerStats::with_record_cap(self.record_cap);
    }

    /// Aggregate over all records of the given kind (`None` = every kind),
    /// including records evicted by the cap. O(1) in record count.
    pub fn aggregate(&self, kind: Option<OpKind>) -> Option<Aggregate> {
        match kind {
            None => self.overall.aggregate(),
            Some(k) => self.by_kind[k.tag() as usize].aggregate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: OpKind, sizes: &[u32], ns: u64, enc: u64) -> OpRecord {
        OpRecord {
            kind,
            requests: 1,
            msg_sizes: sizes.to_vec(),
            proc_ns: ns,
            encryptions: enc,
            signatures: 0,
        }
    }

    #[test]
    fn empty_stats_aggregate_to_none() {
        let s = ServerStats::default();
        assert!(s.aggregate(None).is_none());
        assert!(s.aggregate(Some(OpKind::Join)).is_none());
    }

    #[test]
    fn aggregate_by_kind() {
        let mut s = ServerStats::default();
        s.push(rec(OpKind::Join, &[100, 200], 2_000_000, 4));
        s.push(rec(OpKind::Leave, &[300], 4_000_000, 8));
        let j = s.aggregate(Some(OpKind::Join)).unwrap();
        assert_eq!(j.ops, 1);
        assert_eq!(j.msg_size_ave, 150.0);
        assert_eq!(j.msg_size_min, 100);
        assert_eq!(j.msg_size_max, 200);
        assert_eq!(j.msgs_per_op, 2.0);
        assert_eq!(j.proc_ms_ave, 2.0);
        assert_eq!(j.encryptions_ave, 4.0);
        let both = s.aggregate(None).unwrap();
        assert_eq!(both.ops, 2);
        assert_eq!(both.msg_size_ave, 200.0);
        assert_eq!(both.proc_ms_ave, 3.0);
    }

    #[test]
    fn total_bytes() {
        let r = rec(OpKind::Join, &[10, 20, 30], 0, 0);
        assert_eq!(r.total_bytes(), 60);
    }

    #[test]
    fn reset_clears() {
        let mut s = ServerStats::default();
        s.push(rec(OpKind::Join, &[1], 1, 1));
        s.reset();
        assert!(s.records().is_empty());
        assert!(s.aggregate(None).is_none());
        assert_eq!(s.records_pushed(), 0);
    }

    #[test]
    fn op_with_no_messages_is_representable() {
        // A leave that empties the group sends nothing.
        let mut s = ServerStats::default();
        s.push(rec(OpKind::Leave, &[], 500, 0));
        let a = s.aggregate(None).unwrap();
        assert_eq!(a.msgs_per_op, 0.0);
        assert_eq!(a.msg_size_ave, 0.0);
        assert_eq!(a.msg_size_min, 0);
    }

    #[test]
    fn streaming_matches_records_walk_bit_for_bit() {
        // Re-derive the aggregate the way the pre-streaming code did —
        // a sequential walk over the records — and require exact f64
        // equality with the running-total version.
        let mut s = ServerStats::default();
        let data = [
            rec(OpKind::Join, &[137, 991, 23], 1_234_567, 3),
            rec(OpKind::Leave, &[777], 9_999_999, 11),
            rec(OpKind::Join, &[12], 37, 1),
            rec(OpKind::Batch, &[50_000, 60_000], 123_456_789, 200),
            rec(OpKind::Leave, &[], 55_555, 7),
        ];
        for r in &data {
            s.push(r.clone());
        }
        for kind in [None, Some(OpKind::Join), Some(OpKind::Leave), Some(OpKind::Batch)] {
            let recs: Vec<&OpRecord> =
                data.iter().filter(|r| kind.is_none_or(|k| r.kind == k)).collect();
            let a = s.aggregate(kind).unwrap();
            let ops = recs.len() as f64;
            let walk_proc = recs.iter().map(|r| r.proc_ns as f64).sum::<f64>() / ops / 1e6;
            let walk_enc = recs.iter().map(|r| r.encryptions as f64).sum::<f64>() / ops;
            assert_eq!(a.proc_ms_ave.to_bits(), walk_proc.to_bits());
            assert_eq!(a.encryptions_ave.to_bits(), walk_enc.to_bits());
        }
        assert!(s.aggregate(Some(OpKind::Refresh)).is_none());
    }

    #[test]
    fn record_cap_evicts_fifo_but_aggregate_covers_everything() {
        // Re-derive the means the way an unbounded sink would — a walk over
        // every record ever pushed — and require exact f64 equality.
        for cap in [0usize, 1, 2, 7] {
            let mut capped = ServerStats::with_record_cap(cap);
            let pushed: Vec<OpRecord> = (1..=3 * cap.max(4) as u64 + 1)
                .map(|i| rec(OpKind::Join, &[i as u32 * 10], i * 1_000_003, i))
                .collect();
            for (i, r) in pushed.iter().enumerate() {
                capped.push(r.clone());
                let kept = capped.records();
                assert_eq!(kept.len(), (i + 1).min(cap), "cap {cap} after {} pushes", i + 1);
                // The window is the newest records, oldest first.
                assert_eq!(kept, &pushed[i + 1 - kept.len()..=i]);
            }
            let n = pushed.len() as u64;
            assert_eq!(capped.records_pushed(), n);
            assert_eq!(capped.records_evicted(), n - cap as u64);
            let a = capped.aggregate(None).unwrap();
            let walk_proc = pushed.iter().map(|r| r.proc_ns as f64).sum::<f64>() / n as f64 / 1e6;
            let walk_enc = pushed.iter().map(|r| r.encryptions as f64).sum::<f64>() / n as f64;
            assert_eq!((a.ops, a.msg_size_min, a.msg_size_max), (n, 10, n as u32 * 10));
            assert_eq!(a.proc_ms_ave.to_bits(), walk_proc.to_bits());
            assert_eq!(a.encryptions_ave.to_bits(), walk_enc.to_bits());
        }
        assert_eq!(ServerStats::default().record_cap(), ServerStats::DEFAULT_RECORD_CAP);
    }

    #[test]
    fn percentiles_are_within_bucket_error() {
        let mut s = ServerStats::default();
        // 99 ops at 1ms, one at 100ms: p50 ≈ 1ms, p99 ≈ 1ms, max pulls ave up.
        for _ in 0..99 {
            s.push(rec(OpKind::Join, &[10], 1_000_000, 1));
        }
        s.push(rec(OpKind::Join, &[10], 100_000_000, 1));
        let a = s.aggregate(None).unwrap();
        assert!((a.proc_ms_p50 - 1.0).abs() / 1.0 < 0.125, "p50 {}", a.proc_ms_p50);
        assert!((a.proc_ms_p99 - 1.0).abs() / 1.0 < 0.125, "p99 {}", a.proc_ms_p99);
        assert!(a.proc_ms_ave > a.proc_ms_p50);
    }
}
