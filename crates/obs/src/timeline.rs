//! A bounded, causally ordered event timeline.
//!
//! Every subsystem pushes typed [`ObsEvent`]s through its
//! [`crate::Obs`] handle; the timeline stamps each with a global
//! sequence number (causal order) and the observability clock
//! (deterministic under simulated time). Storage is a ring buffer:
//! old entries are evicted, but per-kind *counts* are cumulative and
//! survive eviction so they can be reconciled against WAL record
//! counts and registry counters.

use crate::trace::TraceSpan;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// A typed event on the observability timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// A join request was served (immediate mode) or replayed.
    Join {
        /// Joining user id.
        user: u64,
    },
    /// A leave request was served (immediate mode) or replayed.
    Leave {
        /// Leaving user id.
        user: u64,
    },
    /// A join was queued for the next batch interval.
    EnqueueJoin {
        /// Joining user id.
        user: u64,
    },
    /// A leave was queued for the next batch interval.
    EnqueueLeave {
        /// Leaving user id.
        user: u64,
    },
    /// A queued leave cancelled a not-yet-flushed join for the same
    /// user (the scheduler's join/leave collapse).
    CollapsedJoin {
        /// User whose pending join was cancelled.
        user: u64,
    },
    /// A batch interval was flushed.
    Flush {
        /// Rekey interval number.
        interval: u64,
        /// Joins included in the batch.
        joins: u64,
        /// Leaves included in the batch.
        leaves: u64,
    },
    /// The group key was refreshed (periodic rotation).
    Refresh,
    /// One record was appended to the write-ahead log.
    WalAppend {
        /// Wire tag of the logged operation ("join", "flush", ...).
        op: &'static str,
    },
    /// A snapshot install rotated to a fresh write-ahead log.
    WalRotated {
        /// New epoch number.
        epoch: u64,
    },
    /// A full-state snapshot was written and installed.
    SnapshotInstalled {
        /// Epoch the snapshot begins.
        epoch: u64,
        /// Serialized snapshot size in bytes.
        bytes: u64,
        /// Time spent writing + installing, in microseconds.
        duration_us: u64,
    },
    /// A server recovered from disk.
    Recovered {
        /// Epoch recovered into.
        epoch: u64,
        /// WAL records replayed on top of the snapshot.
        records_replayed: u64,
        /// Whether a torn final WAL record was discarded.
        torn_tail: bool,
    },
    /// A simulated endpoint crashed (stops receiving).
    Crash {
        /// Endpoint id.
        endpoint: u64,
    },
    /// A crashed endpoint came back.
    Restart {
        /// Endpoint id.
        endpoint: u64,
    },
    /// The simulated network dropped a datagram.
    PacketDropped {
        /// Sender endpoint id.
        from: u64,
        /// Intended receiver endpoint id.
        to: u64,
        /// Fault mode responsible ("loss", "down", "closed").
        mode: &'static str,
    },
    /// The simulated network duplicated a datagram.
    PacketDuplicated {
        /// Sender endpoint id.
        from: u64,
        /// Receiver endpoint id.
        to: u64,
    },
    /// The reliable layer retransmitted an unacked frame.
    Retransmit {
        /// Sender endpoint id.
        from: u64,
        /// Retry number for that frame (1 = first retransmit).
        attempt: u64,
    },
    /// A datagram failed to decode as a control message.
    BadDatagram {
        /// Sender endpoint id.
        from: u64,
        /// Decode error description.
        error: String,
    },
    /// A scheduled batch flush failed inside the network server.
    FlushFailed {
        /// Failure description.
        error: String,
    },
    /// A client rejected a batch packet older than one already applied.
    StaleInterval {
        /// Interval carried by the rejected packet.
        packet: u64,
        /// Interval the client had already applied.
        current: u64,
    },
    /// A span closed while a distributed trace was active (see
    /// [`crate::Obs::trace_scope`]). These records are what the
    /// cross-process trace reassembly consumes.
    Span(TraceSpan),
}

impl ObsEvent {
    /// Stable short name for this event's kind, used for cumulative
    /// counts and the pretty-printer.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Join { .. } => "join",
            ObsEvent::Leave { .. } => "leave",
            ObsEvent::EnqueueJoin { .. } => "enqueue_join",
            ObsEvent::EnqueueLeave { .. } => "enqueue_leave",
            ObsEvent::CollapsedJoin { .. } => "collapsed_join",
            ObsEvent::Flush { .. } => "flush",
            ObsEvent::Refresh => "refresh",
            ObsEvent::WalAppend { .. } => "wal_append",
            ObsEvent::WalRotated { .. } => "wal_rotated",
            ObsEvent::SnapshotInstalled { .. } => "snapshot_installed",
            ObsEvent::Recovered { .. } => "recovered",
            ObsEvent::Crash { .. } => "crash",
            ObsEvent::Restart { .. } => "restart",
            ObsEvent::PacketDropped { .. } => "packet_dropped",
            ObsEvent::PacketDuplicated { .. } => "packet_duplicated",
            ObsEvent::Retransmit { .. } => "retransmit",
            ObsEvent::BadDatagram { .. } => "bad_datagram",
            ObsEvent::FlushFailed { .. } => "flush_failed",
            ObsEvent::StaleInterval { .. } => "stale_interval",
            ObsEvent::Span(_) => "span",
        }
    }
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsEvent::Join { user } => write!(f, "join user={user}"),
            ObsEvent::Leave { user } => write!(f, "leave user={user}"),
            ObsEvent::EnqueueJoin { user } => write!(f, "enqueue-join user={user}"),
            ObsEvent::EnqueueLeave { user } => write!(f, "enqueue-leave user={user}"),
            ObsEvent::CollapsedJoin { user } => {
                write!(f, "collapsed pending join user={user}")
            }
            ObsEvent::Flush { interval, joins, leaves } => {
                write!(f, "flush interval={interval} joins={joins} leaves={leaves}")
            }
            ObsEvent::Refresh => write!(f, "group key refresh"),
            ObsEvent::WalAppend { op } => write!(f, "wal append op={op}"),
            ObsEvent::WalRotated { epoch } => write!(f, "wal rotated epoch={epoch}"),
            ObsEvent::SnapshotInstalled { epoch, bytes, duration_us } => {
                write!(f, "snapshot installed epoch={epoch} bytes={bytes} took={duration_us}us")
            }
            ObsEvent::Recovered { epoch, records_replayed, torn_tail } => {
                write!(
                    f,
                    "recovered epoch={epoch} replayed={records_replayed} torn_tail={torn_tail}"
                )
            }
            ObsEvent::Crash { endpoint } => write!(f, "crash endpoint={endpoint}"),
            ObsEvent::Restart { endpoint } => write!(f, "restart endpoint={endpoint}"),
            ObsEvent::PacketDropped { from, to, mode } => {
                write!(f, "packet dropped {from}->{to} mode={mode}")
            }
            ObsEvent::PacketDuplicated { from, to } => {
                write!(f, "packet duplicated {from}->{to}")
            }
            ObsEvent::Retransmit { from, attempt } => {
                write!(f, "retransmit from={from} attempt={attempt}")
            }
            ObsEvent::BadDatagram { from, error } => {
                write!(f, "bad datagram from={from}: {error}")
            }
            ObsEvent::FlushFailed { error } => write!(f, "flush failed: {error}"),
            ObsEvent::StaleInterval { packet, current } => {
                write!(f, "stale interval packet={packet} current={current}")
            }
            ObsEvent::Span(s) => {
                write!(
                    f,
                    "span trace={:#x} id={:#x} parent={:#x} hop={} path={} {}us",
                    s.trace_id,
                    s.span_id,
                    s.parent_span,
                    s.hop,
                    s.path,
                    s.duration_us()
                )
            }
        }
    }
}

/// One timeline slot: a sequence number, a timestamp, and the event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Global sequence number (1-based, gap-free, causal order).
    pub seq: u64,
    /// Timestamp from the observability clock, microseconds.
    pub at_us: u64,
    /// The event itself.
    pub event: ObsEvent,
}

#[derive(Debug)]
struct Ring {
    entries: VecDeque<TimelineEntry>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
    kind_counts: BTreeMap<&'static str, u64>,
}

/// Bounded event store shared by all clones of an [`crate::Obs`]
/// handle.
#[derive(Debug)]
pub(crate) struct Timeline {
    ring: Mutex<Ring>,
}

impl Timeline {
    pub(crate) fn new(capacity: usize) -> Self {
        Timeline {
            ring: Mutex::new(Ring {
                entries: VecDeque::with_capacity(capacity.min(4096)),
                capacity: capacity.max(1),
                next_seq: 1,
                evicted: 0,
                kind_counts: BTreeMap::new(),
            }),
        }
    }

    /// Append an event; returns its sequence number.
    pub(crate) fn push(&self, at_us: u64, event: ObsEvent) -> u64 {
        let mut ring = self.ring.lock().expect("timeline poisoned");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        *ring.kind_counts.entry(event.kind()).or_insert(0) += 1;
        if ring.entries.len() == ring.capacity {
            ring.entries.pop_front();
            ring.evicted += 1;
        }
        ring.entries.push_back(TimelineEntry { seq, at_us, event });
        seq
    }

    /// Copy of the retained entries, oldest first.
    pub(crate) fn entries(&self) -> Vec<TimelineEntry> {
        self.ring.lock().expect("timeline poisoned").entries.iter().cloned().collect()
    }

    /// Copy of the retained entries with `seq > after`, oldest first.
    /// Entries sit in the ring in seq order, so this clones only the
    /// tail a periodic harvester hasn't consumed yet.
    pub(crate) fn entries_since(&self, after: u64) -> Vec<TimelineEntry> {
        let ring = self.ring.lock().expect("timeline poisoned");
        let skip = ring.entries.partition_point(|e| e.seq <= after);
        ring.entries.iter().skip(skip).cloned().collect()
    }

    /// Cumulative number of events ever pushed (including evicted).
    pub(crate) fn total(&self) -> u64 {
        self.ring.lock().expect("timeline poisoned").next_seq - 1
    }

    /// Entries evicted by the ring bound.
    pub(crate) fn evicted(&self) -> u64 {
        self.ring.lock().expect("timeline poisoned").evicted
    }

    /// Cumulative per-kind event counts (survive eviction).
    pub(crate) fn kind_counts(&self) -> BTreeMap<&'static str, u64> {
        self.ring.lock().expect("timeline poisoned").kind_counts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_gap_free() {
        let t = Timeline::new(16);
        for u in 0..5 {
            t.push(u * 10, ObsEvent::Join { user: u });
        }
        let entries = t.entries();
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
            assert_eq!(e.at_us, i as u64 * 10);
        }
    }

    #[test]
    fn entries_since_returns_only_the_unconsumed_tail() {
        let t = Timeline::new(4);
        for u in 0..6 {
            t.push(u * 10, ObsEvent::Join { user: u });
        }
        // Ring retains seqs 3..=6; a harvester at seq 4 gets 5 and 6.
        let tail = t.entries_since(4);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
        // A harvester behind the eviction horizon gets everything retained.
        assert_eq!(t.entries_since(0).len(), 4);
        assert_eq!(t.entries_since(6), Vec::new());
    }

    #[test]
    fn ring_evicts_but_counts_survive() {
        let t = Timeline::new(3);
        for u in 0..10 {
            t.push(0, ObsEvent::Leave { user: u });
        }
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.entries()[0].seq, 8); // oldest retained
        assert_eq!(t.total(), 10);
        assert_eq!(t.evicted(), 7);
        assert_eq!(t.kind_counts().get("leave"), Some(&10));
    }

    #[test]
    fn every_event_kind_is_distinct_and_displays() {
        let events = [
            ObsEvent::Join { user: 1 },
            ObsEvent::Leave { user: 1 },
            ObsEvent::EnqueueJoin { user: 1 },
            ObsEvent::EnqueueLeave { user: 1 },
            ObsEvent::CollapsedJoin { user: 1 },
            ObsEvent::Flush { interval: 1, joins: 2, leaves: 3 },
            ObsEvent::Refresh,
            ObsEvent::WalAppend { op: "join" },
            ObsEvent::WalRotated { epoch: 2 },
            ObsEvent::SnapshotInstalled { epoch: 2, bytes: 100, duration_us: 5 },
            ObsEvent::Recovered { epoch: 2, records_replayed: 7, torn_tail: true },
            ObsEvent::Crash { endpoint: 0 },
            ObsEvent::Restart { endpoint: 0 },
            ObsEvent::PacketDropped { from: 0, to: 1, mode: "loss" },
            ObsEvent::PacketDuplicated { from: 0, to: 1 },
            ObsEvent::Retransmit { from: 0, attempt: 1 },
            ObsEvent::BadDatagram { from: 0, error: "truncated".into() },
            ObsEvent::FlushFailed { error: "acl".into() },
            ObsEvent::StaleInterval { packet: 1, current: 2 },
            ObsEvent::Span(TraceSpan {
                trace_id: 1,
                span_id: 2,
                parent_span: 0,
                hop: 0,
                path: "op.join".into(),
                start_us: 10,
                end_us: 25,
            }),
        ];
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "kind() collision");
        for e in &events {
            assert!(!e.to_string().is_empty());
        }
    }
}
