//! Cluster-plane messages: the envelope spoken between shard nodes, the
//! router, and the admin tool.
//!
//! A sharded deployment (see `kg-cluster`) splits the single key server of
//! the paper into N `GroupKeyServer` shard instances behind a router. The
//! router speaks the ordinary client protocol ([`ControlMessage`], rekey
//! packets) towards members, and this envelope towards shards and
//! administrators. Every envelope carries:
//!
//! * a **magic** byte ([`CLUSTER_MAGIC`]) so envelopes can never be
//!   confused with client-plane traffic (control tags are ≤ 5, the rekey
//!   magic is `0xB5`),
//! * a **version** byte ([`CLUSTER_VERSION`]) so heterogeneous nodes fail
//!   closed with a typed error instead of misparsing,
//! * the **shard id** the message concerns and the **group id** it applies
//!   to — the routing key of the whole cluster layer.
//!
//! Rekey payloads ride inside [`ClusterBody::RekeyGroup`] /
//! [`ClusterBody::RekeyUsers`] as opaque trailing bytes: the router relays
//! them to members verbatim, so the client-side packet formats (and their
//! authenticity tags) are untouched by sharding.

use crate::codec::{get_bytes, get_count, get_str, get_u32, get_u64, get_u8, put_bytes};
use crate::message::ControlMessage;
use crate::telemetry::{get_span, put_span, TelemetrySnapshot};
use crate::WireError;
use bytes::BufMut;
use kg_core::ids::{KeyLabel, UserId};
use kg_obs::{TraceContext, TraceSpan};

/// Identifies a shard (one `GroupKeyServer` instance) within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardId(pub u16);

/// Identifies a key-graph group hosted by the cluster. The single-server
/// deployments of earlier layers implicitly served one group; the cluster
/// routes many, each sharded independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Pseudo shard id addressing the router itself (admin shutdown).
pub const ROUTER_SHARD: ShardId = ShardId(u16::MAX);

/// First byte of every encoded [`ClusterEnvelope`].
pub const CLUSTER_MAGIC: u8 = 0xC7;

/// Cluster protocol version; receivers reject every other value.
///
/// Version history: 1 = PR 5's original envelope; 2 added the flags
/// byte (optional trace context) and the telemetry-plane bodies.
/// Version-1 frames are rejected closed, like any other mismatch.
pub const CLUSTER_VERSION: u8 = 2;

/// Header flag bit: a trace context follows the group id.
const FLAG_TRACE: u8 = 0x01;

/// The payload of a [`ClusterEnvelope`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterBody {
    /// A client-plane control message tunnelled through the router: a
    /// join/leave request on the way in, or the grant/deny ack on the way
    /// back out.
    Control(ControlMessage),
    /// Shard → router → member: the out-of-band half of a join grant (the
    /// member's individual key and key-tree position). In the paper this
    /// rides the authenticated unicast join exchange; the demo cluster
    /// relays it in the clear over loopback.
    Grant {
        /// The admitted member.
        user: UserId,
        /// The member's individual key material.
        key: Vec<u8>,
        /// Label of the member's leaf k-node.
        leaf_label: KeyLabel,
        /// Labels of the path keys, root-first.
        path_labels: Vec<KeyLabel>,
    },
    /// Shard → router: relay an encoded rekey packet to this shard
    /// subtree's entire membership (subgroup multicast). The payload is
    /// the trailing bytes of the datagram — opaque here, decoded by
    /// members as a `RekeyPacket`.
    RekeyGroup {
        /// Encoded client-plane rekey packet.
        payload: Vec<u8>,
    },
    /// Shard → router: relay an encoded rekey packet to an explicit set
    /// of members (the §7 "subgroup multicast via unicast" fallback).
    RekeyUsers {
        /// The members addressed.
        users: Vec<UserId>,
        /// Encoded client-plane rekey packet (trailing bytes).
        payload: Vec<u8>,
    },
    /// Admin → shard: rotate the group key (a no-membership-change
    /// refresh, as after suspected compromise or on a timer).
    Refresh,
    /// Admin → shard or router: flush the batch queue, write a final
    /// snapshot, fsync, acknowledge, exit.
    Shutdown,
    /// Shard/router → admin: clean-shutdown confirmation.
    ShutdownAck {
        /// Members still in this shard's slice of the group at shutdown.
        members: u64,
        /// WAL records a restart would replay; 0 proves the final
        /// snapshot landed.
        wal_tail: u64,
    },
    /// Admin → shard: report the counters below.
    StatsRequest,
    /// Shard → admin: a point-in-time summary of one shard's slice.
    StatsReport {
        /// Current member count.
        members: u64,
        /// Batch intervals flushed.
        intervals: u64,
        /// Control requests processed (joins + leaves + refreshes).
        requests: u64,
        /// Key encryptions performed (the paper's server-cost unit).
        encryptions: u64,
        /// Requests queued awaiting the next batch flush.
        pending: u64,
    },
    /// Node → router: the periodic telemetry push (delta counters,
    /// absolute gauges/histogram digests, trace-span tail).
    Telemetry {
        /// The snapshot itself.
        snapshot: TelemetrySnapshot,
    },
    /// Admin → router: render the merged cluster-wide metrics view.
    MetricsRequest {
        /// 0 = Prometheus text exposition, 1 = JSON.
        format: u8,
    },
    /// Router → admin: the rendered merged view (truncated to the
    /// transport datagram budget if necessary).
    MetricsReport {
        /// Rendered text in the requested format.
        text: String,
    },
    /// Admin → router: fetch a reassembled trace.
    TraceRequest {
        /// Trace id to fetch; 0 means "the latest fully stitched one".
        trace_id: u64,
    },
    /// Router → admin: the span records of one trace.
    TraceReport {
        /// The trace the spans belong to (0 = nothing matched).
        trace_id: u64,
        /// All recorded spans, across processes.
        spans: Vec<TraceSpan>,
    },
}

/// The versioned, shard-addressed datagram wrapper of the cluster plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEnvelope {
    /// The shard this message concerns: the addressee for requests, the
    /// originator for replies and rekey relays.
    pub shard: ShardId,
    /// The group the message applies to (ignored for node-level bodies
    /// like [`ClusterBody::Shutdown`]; 0 by convention there).
    pub group: GroupId,
    /// Distributed-trace context, when this frame belongs to a traced
    /// request (see `kg_obs::trace`). Absent on untraced traffic, so
    /// tracing costs zero header bytes when disabled.
    pub trace: Option<TraceContext>,
    /// The payload.
    pub body: ClusterBody,
}

impl ClusterEnvelope {
    /// An untraced envelope (the common case for admin and telemetry
    /// traffic).
    pub fn new(shard: ShardId, group: GroupId, body: ClusterBody) -> Self {
        ClusterEnvelope { shard, group, trace: None, body }
    }

    /// Whether `bytes` leads with the cluster magic byte.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.first() == Some(&CLUSTER_MAGIC)
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.put_u8(CLUSTER_MAGIC);
        out.put_u8(CLUSTER_VERSION);
        out.put_u16(self.shard.0);
        out.put_u32(self.group.0);
        match &self.trace {
            None => out.put_u8(0),
            Some(t) => {
                out.put_u8(FLAG_TRACE);
                out.put_u64(t.trace_id);
                out.put_u64(t.parent_span);
                out.put_u8(t.hop);
            }
        }
        match &self.body {
            ClusterBody::Control(msg) => {
                out.put_u8(0);
                put_bytes(&mut out, &msg.encode());
            }
            ClusterBody::Grant { user, key, leaf_label, path_labels } => {
                out.put_u8(1);
                out.put_u64(user.0);
                put_bytes(&mut out, key);
                out.put_u64(leaf_label.0);
                out.put_u32(path_labels.len() as u32);
                for l in path_labels {
                    out.put_u64(l.0);
                }
            }
            ClusterBody::RekeyGroup { payload } => {
                out.put_u8(2);
                out.put_slice(payload);
            }
            ClusterBody::RekeyUsers { users, payload } => {
                out.put_u8(3);
                out.put_u32(users.len() as u32);
                for u in users {
                    out.put_u64(u.0);
                }
                out.put_slice(payload);
            }
            ClusterBody::Refresh => out.put_u8(4),
            ClusterBody::Shutdown => out.put_u8(5),
            ClusterBody::ShutdownAck { members, wal_tail } => {
                out.put_u8(6);
                out.put_u64(*members);
                out.put_u64(*wal_tail);
            }
            ClusterBody::StatsRequest => out.put_u8(7),
            ClusterBody::StatsReport { members, intervals, requests, encryptions, pending } => {
                out.put_u8(8);
                out.put_u64(*members);
                out.put_u64(*intervals);
                out.put_u64(*requests);
                out.put_u64(*encryptions);
                out.put_u64(*pending);
            }
            ClusterBody::Telemetry { snapshot } => {
                out.put_u8(9);
                snapshot.encode_into(&mut out);
            }
            ClusterBody::MetricsRequest { format } => {
                out.put_u8(10);
                out.put_u8(*format);
            }
            ClusterBody::MetricsReport { text } => {
                out.put_u8(11);
                put_bytes(&mut out, text.as_bytes());
            }
            ClusterBody::TraceRequest { trace_id } => {
                out.put_u8(12);
                out.put_u64(*trace_id);
            }
            ClusterBody::TraceReport { trace_id, spans } => {
                out.put_u8(13);
                out.put_u64(*trace_id);
                out.put_u32(spans.len() as u32);
                for s in spans {
                    put_span(&mut out, s);
                }
            }
        }
        out
    }

    /// Deserialize. Never panics; unknown magic/version/tag bytes come
    /// back as [`WireError::BadTag`] with the offending context.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut buf = bytes;
        match get_u8(&mut buf)? {
            CLUSTER_MAGIC => {}
            t => return Err(WireError::BadTag { context: "cluster magic", tag: t }),
        }
        match get_u8(&mut buf)? {
            CLUSTER_VERSION => {}
            t => return Err(WireError::BadTag { context: "cluster version", tag: t }),
        }
        let shard = ShardId(get_u16(&mut buf)?);
        let group = GroupId(get_u32(&mut buf)?);
        let flags = get_u8(&mut buf)?;
        if flags & !FLAG_TRACE != 0 {
            // Unknown flag bits fail closed: a future sender that set
            // them meant something this decoder cannot honor.
            return Err(WireError::BadTag { context: "cluster flags", tag: flags });
        }
        let trace = if flags & FLAG_TRACE != 0 {
            Some(TraceContext {
                trace_id: get_u64(&mut buf)?,
                parent_span: get_u64(&mut buf)?,
                hop: get_u8(&mut buf)?,
            })
        } else {
            None
        };
        let body = match get_u8(&mut buf)? {
            0 => {
                let inner = get_bytes(&mut buf)?;
                ClusterBody::Control(ControlMessage::decode(&inner)?)
            }
            1 => {
                let user = UserId(get_u64(&mut buf)?);
                let key = get_bytes(&mut buf)?;
                let leaf_label = KeyLabel(get_u64(&mut buf)?);
                let n = get_count(&mut buf)?;
                let mut path_labels = Vec::with_capacity(n);
                for _ in 0..n {
                    path_labels.push(KeyLabel(get_u64(&mut buf)?));
                }
                ClusterBody::Grant { user, key, leaf_label, path_labels }
            }
            2 => {
                // The payload is the remainder of the datagram: rekey
                // bundles for large batch intervals exceed the bounded
                // byte-string field limit by design.
                let payload = buf.to_vec();
                buf = &[];
                ClusterBody::RekeyGroup { payload }
            }
            3 => {
                let n = get_count(&mut buf)?;
                let mut users = Vec::with_capacity(n);
                for _ in 0..n {
                    users.push(UserId(get_u64(&mut buf)?));
                }
                let payload = buf.to_vec();
                buf = &[];
                ClusterBody::RekeyUsers { users, payload }
            }
            4 => ClusterBody::Refresh,
            5 => ClusterBody::Shutdown,
            6 => ClusterBody::ShutdownAck {
                members: get_u64(&mut buf)?,
                wal_tail: get_u64(&mut buf)?,
            },
            7 => ClusterBody::StatsRequest,
            8 => ClusterBody::StatsReport {
                members: get_u64(&mut buf)?,
                intervals: get_u64(&mut buf)?,
                requests: get_u64(&mut buf)?,
                encryptions: get_u64(&mut buf)?,
                pending: get_u64(&mut buf)?,
            },
            9 => ClusterBody::Telemetry { snapshot: TelemetrySnapshot::decode_from(&mut buf)? },
            10 => ClusterBody::MetricsRequest { format: get_u8(&mut buf)? },
            11 => ClusterBody::MetricsReport { text: get_str(&mut buf, "metrics report utf-8")? },
            12 => ClusterBody::TraceRequest { trace_id: get_u64(&mut buf)? },
            13 => {
                let trace_id = get_u64(&mut buf)?;
                let n = get_count(&mut buf)?;
                let mut spans = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    spans.push(get_span(&mut buf)?);
                }
                ClusterBody::TraceReport { trace_id, spans }
            }
            t => return Err(WireError::BadTag { context: "cluster body", tag: t }),
        };
        if !buf.is_empty() {
            return Err(WireError::TrailingBytes(buf.len()));
        }
        Ok(ClusterEnvelope { shard, group, trace, body })
    }
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    let hi = get_u8(buf)?;
    let lo = get_u8(buf)?;
    Ok(u16::from_be_bytes([hi, lo]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bodies() -> Vec<ClusterBody> {
        vec![
            ClusterBody::Control(ControlMessage::JoinRequest { user: UserId(7) }),
            ClusterBody::Control(ControlMessage::LeaveRequest {
                user: UserId(9),
                auth: vec![1, 2, 3, 4],
            }),
            ClusterBody::Grant {
                user: UserId(12),
                key: vec![0xAA; 16],
                leaf_label: KeyLabel(31),
                path_labels: vec![KeyLabel(0), KeyLabel(3), KeyLabel(15)],
            },
            ClusterBody::RekeyGroup { payload: vec![0xB5; 40] },
            ClusterBody::RekeyUsers {
                users: vec![UserId(1), UserId(2), UserId(3)],
                payload: vec![0x01; 20],
            },
            ClusterBody::Refresh,
            ClusterBody::Shutdown,
            ClusterBody::ShutdownAck { members: 42, wal_tail: 0 },
            ClusterBody::StatsRequest,
            ClusterBody::StatsReport {
                members: 1000,
                intervals: 4,
                requests: 1010,
                encryptions: 20_000,
                pending: 3,
            },
            ClusterBody::Telemetry {
                snapshot: TelemetrySnapshot {
                    seq: 2,
                    at_us: 500,
                    counters: vec![("kg_requests_total".into(), 9)],
                    gauges: vec![("kg_batch_queue_depth".into(), -1)],
                    hists: Vec::new(),
                    spans: vec![sample_span()],
                },
            },
            ClusterBody::MetricsRequest { format: 0 },
            ClusterBody::MetricsReport { text: "kg_requests_total 9\n".into() },
            ClusterBody::TraceRequest { trace_id: 0 },
            ClusterBody::TraceReport { trace_id: 7, spans: vec![sample_span()] },
        ]
    }

    fn sample_span() -> TraceSpan {
        TraceSpan {
            trace_id: 7,
            span_id: 0xA1,
            parent_span: 0x99,
            hop: 1,
            path: "node.parse.op.leave".into(),
            start_us: 10,
            end_us: 35,
        }
    }

    #[test]
    fn roundtrip_all_bodies() {
        for body in sample_bodies() {
            let env = ClusterEnvelope::new(ShardId(3), GroupId(77), body);
            let bytes = env.encode();
            assert!(ClusterEnvelope::sniff(&bytes));
            assert_eq!(ClusterEnvelope::decode(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn trace_context_roundtrips_on_every_body() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 0x1234, hop: 2 };
        for body in sample_bodies() {
            let env = ClusterEnvelope {
                trace: Some(ctx),
                ..ClusterEnvelope::new(ShardId(1), GroupId(2), body)
            };
            let decoded = ClusterEnvelope::decode(&env.encode()).unwrap();
            assert_eq!(decoded.trace, Some(ctx));
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn header_carries_version_and_shard() {
        let env = ClusterEnvelope::new(ShardId(0xBEEF), GroupId(5), ClusterBody::Shutdown);
        let bytes = env.encode();
        assert_eq!(bytes[0], CLUSTER_MAGIC);
        assert_eq!(bytes[1], CLUSTER_VERSION);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 0xBEEF);
    }

    #[test]
    fn foreign_version_fails_closed() {
        let mut bytes =
            ClusterEnvelope::new(ShardId(0), GroupId(0), ClusterBody::StatsRequest).encode();
        bytes[1] = CLUSTER_VERSION + 1;
        assert_eq!(
            ClusterEnvelope::decode(&bytes),
            Err(WireError::BadTag { context: "cluster version", tag: CLUSTER_VERSION + 1 })
        );
    }

    #[test]
    fn version_one_frames_are_rejected_closed() {
        // A well-formed frame from a PR-5 (version 1) peer: no flags
        // byte, body tag directly after the group id. The v2 decoder
        // must reject it on the version byte alone — body tag 7
        // (StatsRequest) would otherwise misparse as a flags byte.
        let v1_stats_request = [CLUSTER_MAGIC, 1, 0, 3, 0, 0, 0, 9, 7];
        assert_eq!(
            ClusterEnvelope::decode(&v1_stats_request),
            Err(WireError::BadTag { context: "cluster version", tag: 1 })
        );
        // Same for a v1 Shutdown aimed at the router.
        let v1_shutdown = [CLUSTER_MAGIC, 1, 0xFF, 0xFF, 0, 0, 0, 0, 5];
        assert_eq!(
            ClusterEnvelope::decode(&v1_shutdown),
            Err(WireError::BadTag { context: "cluster version", tag: 1 })
        );
    }

    #[test]
    fn unknown_flag_bits_fail_closed() {
        let mut bytes =
            ClusterEnvelope::new(ShardId(0), GroupId(0), ClusterBody::StatsRequest).encode();
        bytes[8] |= 0x80; // flags byte sits after magic+version+shard+group
        assert_eq!(
            ClusterEnvelope::decode(&bytes),
            Err(WireError::BadTag { context: "cluster flags", tag: 0x80 })
        );
    }

    #[test]
    fn magic_separates_planes() {
        // Envelopes are never valid control messages and vice versa.
        let env = ClusterEnvelope::new(ShardId(1), GroupId(1), ClusterBody::Refresh);
        assert!(ControlMessage::decode(&env.encode()).is_err());
        let ctl = ControlMessage::JoinRequest { user: UserId(4) }.encode();
        assert!(!ClusterEnvelope::sniff(&ctl));
        assert!(ClusterEnvelope::decode(&ctl).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for traced in [false, true] {
            for body in sample_bodies() {
                let mut env = ClusterEnvelope::new(ShardId(2), GroupId(9), body);
                if traced {
                    env.trace = Some(TraceContext { trace_id: 5, parent_span: 6, hop: 1 });
                }
                let bytes = env.encode();
                for cut in 0..bytes.len() {
                    let r = ClusterEnvelope::decode(&bytes[..cut]);
                    // Trailing-payload bodies accept any suffix, so a prefix
                    // that still contains the full fixed part may decode — but
                    // it must then re-encode to exactly that prefix.
                    if let Ok(decoded) = r {
                        assert_eq!(decoded.encode(), &bytes[..cut]);
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected_for_fixed_bodies() {
        let mut bytes = ClusterEnvelope::new(
            ShardId(0),
            GroupId(0),
            ClusterBody::ShutdownAck { members: 1, wal_tail: 2 },
        )
        .encode();
        bytes.push(0);
        assert_eq!(ClusterEnvelope::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn tunnelled_control_is_validated() {
        // A Control body whose inner bytes are not a valid control
        // message must fail, not smuggle garbage.
        let mut out = vec![CLUSTER_MAGIC, CLUSTER_VERSION, 0, 0, 0, 0, 0, 1, 0, 0];
        put_bytes(&mut out, &[200, 1, 2]);
        assert!(matches!(
            ClusterEnvelope::decode(&out),
            Err(WireError::BadTag { context: "control message", .. })
        ));
    }

    proptest::proptest! {
        /// Random garbage either fails to decode or re-encodes to itself.
        #[test]
        fn garbage_never_misparses(data in proptest::collection::vec(0u8.., 0..160)) {
            if let Ok(env) = ClusterEnvelope::decode(&data) {
                proptest::prop_assert_eq!(env.encode(), data);
            }
        }

        #[test]
        fn rekey_users_roundtrip_random(
            shard: u16,
            group: u32,
            trace_id: u64,
            users in proptest::collection::vec(0u64.., 0..50),
            payload in proptest::collection::vec(0u8.., 0..200),
        ) {
            let env = ClusterEnvelope {
                shard: ShardId(shard),
                group: GroupId(group),
                trace: if trace_id.is_multiple_of(2) {
                    None
                } else {
                    Some(TraceContext { trace_id, parent_span: trace_id ^ 0xFF, hop: trace_id as u8 })
                },
                body: ClusterBody::RekeyUsers {
                    users: users.into_iter().map(UserId).collect(),
                    payload,
                },
            };
            proptest::prop_assert_eq!(ClusterEnvelope::decode(&env.encode()).unwrap(), env);
        }
    }
}
