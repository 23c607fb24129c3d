//! The router/relay front-end of a sharded deployment.
//!
//! Members speak the ordinary client protocol from the single-server
//! layers — raw [`ControlMessage`] requests in, raw acks and rekey
//! packets out — so client code is untouched by sharding. The router:
//!
//! * computes the owning shard of every request from the [`ShardMap`]
//!   (home shard, or the member's slice of a spanned group) and tunnels
//!   the request to it in a [`ClusterEnvelope`],
//! * keeps the `(group, user) → endpoint` directory the shards do not
//!   have, subscribing members to a per-`(group, shard)` **slice
//!   multicast address** on admission and unsubscribing them on
//!   departure,
//! * fans shard rekey bundles back out: [`ClusterBody::RekeyGroup`]
//!   becomes one multicast on the slice address,
//!   [`ClusterBody::RekeyUsers`] a unicast set resolved through the
//!   directory — the §7 "multicast via unicast" fallback,
//! * serves the admin plane: a [`ClusterBody::Shutdown`] addressed to
//!   [`ROUTER_SHARD`] is broadcast to every shard and the per-shard
//!   acknowledgements are aggregated into one summary ack,
//! * runs the telemetry plane: allocates a distributed trace per client
//!   request (stamped into the tunnelled envelope, so the shard's spans
//!   link under the router's), merges the periodic
//!   [`ClusterBody::Telemetry`] pushes into one cluster-wide view, and
//!   answers [`ClusterBody::MetricsRequest`] /
//!   [`ClusterBody::TraceRequest`] lookups from admins.
//!
//! Members may also address a group explicitly by sending the envelope
//! form themselves ([`ClusterBody::Control`] with the group id filled
//! in); raw control messages are routed to the router's configured
//! default group. Grants ([`ClusterBody::Grant`]) are relayed verbatim
//! to the member's endpoint: in the paper this half of the join runs
//! over the authenticated unicast admission exchange, and the loopback
//! demo relays it in the clear (see DESIGN.md §4e for the caveat).

// Everything here runs on datagrams off the network, so nothing outside
// the tests may panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
use bytes::Bytes;
use kg_core::ids::UserId;
use kg_net::{EndpointId, MulticastAddr, Transport, MAX_UDP_PAYLOAD};
use kg_obs::trace::splitmix64;
use kg_obs::{Obs, ObsEvent, TraceContext};
use kg_wire::{ClusterBody, ClusterEnvelope, ControlMessage, GroupId, ShardId, ROUTER_SHARD};
use std::collections::BTreeMap;

use crate::map::ShardMap;
use crate::telemetry::TelemetryMerger;

/// Most span records returned in one [`ClusterBody::TraceReport`], so
/// the reply stays inside the transport frame budget.
const TRACE_REPORT_SPAN_CAP: usize = 512;

/// Events surfaced to the router's driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterEvent {
    /// A client request was forwarded to its owning shard.
    Routed {
        /// The group addressed.
        group: GroupId,
        /// The requesting member.
        user: UserId,
        /// The shard the request was tunnelled to.
        shard: ShardId,
    },
    /// A control ack (grant/deny) was relayed to a member.
    AckRelayed {
        /// The group concerned.
        group: GroupId,
        /// The member addressed.
        user: UserId,
    },
    /// A join grant (individual key + tree position) was relayed.
    GrantRelayed {
        /// The group concerned.
        group: GroupId,
        /// The admitted member.
        user: UserId,
    },
    /// A shard rekey bundle was multicast on a slice address.
    RekeyMulticast {
        /// The group concerned.
        group: GroupId,
        /// The originating shard.
        shard: ShardId,
        /// Encoded packet size.
        bytes: usize,
    },
    /// A shard rekey bundle was unicast to an explicit member set.
    RekeyUnicast {
        /// The group concerned.
        group: GroupId,
        /// Members resolved through the directory.
        targets: usize,
        /// Encoded packet size.
        bytes: usize,
    },
    /// An admin refresh was forwarded to every shard hosting the group.
    RefreshForwarded {
        /// The group whose key rotates.
        group: GroupId,
        /// Shards addressed.
        shards: usize,
    },
    /// An admin shutdown was broadcast to the shards.
    ShutdownStarted,
    /// Every shard acknowledged; the summary ack went to the admin and
    /// the router's driver should exit once this appears.
    ShutdownComplete {
        /// Members across all shards at shutdown.
        members: u64,
        /// Summed WAL tails (0 proves every final snapshot landed).
        wal_tail: u64,
    },
    /// A shard stats report was relayed to the admin.
    StatsRelayed {
        /// The reporting shard.
        shard: ShardId,
    },
    /// A node telemetry snapshot was merged into the cluster view.
    TelemetryMerged {
        /// The pushing shard.
        shard: ShardId,
        /// The snapshot's gap-free sequence number.
        seq: u64,
    },
    /// A merged metrics view was rendered and sent to an admin.
    MetricsServed {
        /// Requested format (0 = Prometheus text, 1 = JSON).
        format: u8,
    },
    /// A trace lookup was answered.
    TraceServed {
        /// The trace returned (0 = nothing matched).
        trace_id: u64,
        /// Span records in the reply.
        spans: usize,
    },
    /// An inbound datagram was neither a control message nor an envelope,
    /// or it carried shard-plane traffic from an endpoint other than the
    /// one registered for the shard it names.
    BadDatagram {
        /// Claimed sender.
        from: EndpointId,
    },
}

/// Per-shard shutdown acks collected so far: `(shard, members, wal_tail)`.
type ShutdownAcks = Vec<(ShardId, u64, u64)>;

/// The relay front-end. One per cluster.
pub struct Router {
    map: ShardMap,
    endpoint: EndpointId,
    /// Cluster-plane peers, one per shard id.
    shards: BTreeMap<ShardId, EndpointId>,
    /// Group assumed when a member sends a raw (non-envelope) request.
    default_group: GroupId,
    /// Member directory: where acks, grants, and unicast rekeys go.
    directory: BTreeMap<(GroupId, UserId), EndpointId>,
    /// Lazily allocated slice multicast addresses.
    slice_addrs: BTreeMap<(GroupId, ShardId), MulticastAddr>,
    obs: Obs,
    /// Monotone counter behind trace-id allocation.
    next_trace: u64,
    /// Merged node telemetry and the cross-process trace store.
    merger: TelemetryMerger,
    /// Highest own-timeline seq already harvested into the trace store.
    harvested_seq: u64,
    /// In-flight admin shutdown: the admin's endpoint and the per-shard
    /// acks collected so far.
    shutdown: Option<(EndpointId, ShutdownAcks)>,
    /// Admin endpoint for stats relays (last requester).
    admin: Option<EndpointId>,
    running: bool,
}

impl Router {
    /// Attach a router to the transport. Shards are registered separately
    /// (their endpoints may not exist yet).
    pub fn new<T: Transport>(map: ShardMap, net: &mut T, obs: Obs) -> Self {
        let endpoint = net.endpoint();
        // Per-process span-id salt, so router span ids never collide
        // with node span ids inside one trace.
        obs.set_trace_salt(endpoint.0 as u64);
        Router {
            map,
            endpoint,
            shards: BTreeMap::new(),
            default_group: GroupId(0),
            directory: BTreeMap::new(),
            slice_addrs: BTreeMap::new(),
            obs,
            next_trace: 0,
            merger: TelemetryMerger::default(),
            harvested_seq: 0,
            shutdown: None,
            admin: None,
            running: true,
        }
    }

    /// Register (or re-register, after a shard restart) the cluster-plane
    /// endpoint serving `shard`.
    pub fn register_shard(&mut self, shard: ShardId, ep: EndpointId) {
        self.shards.insert(shard, ep);
    }

    /// The client- and shard-facing endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The shard map routing this cluster.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The router's observability handle (routed/relayed counters).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Whether the router is still serving (false once an admin shutdown
    /// completes).
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// The group raw (non-envelope) client requests are routed to.
    pub fn set_default_group(&mut self, group: GroupId) {
        self.default_group = group;
    }

    /// The merged telemetry view (for in-process drivers; remote admins
    /// use [`ClusterBody::MetricsRequest`]).
    pub fn merger(&self) -> &TelemetryMerger {
        &self.merger
    }

    /// Current member directory size (admitted and in-flight members).
    pub fn directory_len(&self) -> usize {
        self.directory.len()
    }

    /// The multicast address carrying `(group, shard)` slice traffic,
    /// allocated on first use.
    pub fn slice_addr<T: Transport>(
        &mut self,
        net: &mut T,
        group: GroupId,
        shard: ShardId,
    ) -> MulticastAddr {
        *self.slice_addrs.entry((group, shard)).or_insert_with(|| net.multicast_group())
    }

    /// A fresh nonzero trace id, deterministic per router instance.
    fn alloc_trace_id(&mut self) -> u64 {
        self.next_trace += 1;
        let id = splitmix64(splitmix64(self.endpoint.0 as u64) ^ self.next_trace);
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Pull span records the router's own traced spans appended to its
    /// timeline since the last harvest into the trace store, so lookups
    /// see all three hops, not just the node-pushed middle one.
    fn harvest_own_spans(&mut self) {
        for entry in self.obs.timeline_since(self.harvested_seq) {
            self.harvested_seq = entry.seq;
            if let ObsEvent::Span(s) = entry.event {
                self.merger.ingest_spans([s]);
            }
        }
    }

    /// The flight-recorder dump: merged view, recent raw snapshots, and
    /// the router timeline tail. Binaries write this on shutdown/panic.
    pub fn flight_recorder_dump(&mut self) -> String {
        self.harvest_own_spans();
        self.merger.render_flight_recorder(&self.obs)
    }

    fn forward_request<T: Transport>(
        &mut self,
        net: &mut T,
        group: GroupId,
        msg: ControlMessage,
        from: EndpointId,
        inbound: Option<TraceContext>,
    ) -> RouterEvent {
        // Adopt the sender's trace if the envelope carried one;
        // otherwise this is the ingress, so allocate a fresh root.
        let ctx = inbound.unwrap_or_else(|| TraceContext::root(self.alloc_trace_id()));
        let _trace = self.obs.trace_scope(ctx);
        let _recv = self.obs.span("router.recv");
        let _relay = self.obs.span("relay");
        let user = match &msg {
            ControlMessage::JoinRequest { user } => *user,
            ControlMessage::LeaveRequest { user, .. } => *user,
            // Filtered by the caller.
            _ => unreachable!("only requests are forwarded"),
        };
        // The directory entry is written at request time, not ack time, so
        // replies (and the joiner's unicast rekey packet) always resolve.
        self.directory.insert((group, user), from);
        let shard = self.map.owner(group, user);
        let trace = self.obs.current_trace().map(TraceContext::next_hop);
        let env = ClusterEnvelope { shard, group, trace, body: ClusterBody::Control(msg) };
        if let Some(&ep) = self.shards.get(&shard) {
            net.send_unicast(self.endpoint, ep, Bytes::from(env.encode()));
        }
        self.obs.counter_with("kg_cluster_routed_total", "shard", &shard.0.to_string()).inc();
        RouterEvent::Routed { group, user, shard }
    }

    /// Process one envelope that came back from a shard (or in from an
    /// envelope-speaking client / the admin).
    fn handle_envelope<T: Transport>(
        &mut self,
        net: &mut T,
        env: ClusterEnvelope,
        from: EndpointId,
    ) -> Option<RouterEvent> {
        let group = env.group;
        let shard = env.shard;
        let ctx = env.trace;
        match env.body {
            // Client plane, inbound: requests tunnelled with an explicit
            // group id.
            ClusterBody::Control(
                msg @ (ControlMessage::JoinRequest { .. } | ControlMessage::LeaveRequest { .. }),
            ) => Some(self.forward_request(net, group, msg, from, ctx)),

            // Shard-plane traffic is acted on only from the endpoint
            // registered for the shard it names, so a datagram from
            // anywhere else adds no per-shard state.
            body if is_shard_plane(&body) && self.shards.get(&shard) != Some(&from) => {
                self.obs.counter("kg_cluster_unregistered_total").inc();
                Some(RouterEvent::BadDatagram { from })
            }

            body => {
                // Mark this hop of the trace (if the frame carried one)
                // with a single zero-duration record parented under the
                // sender's span: the relay's own work is sub-microsecond,
                // so the full span machinery would cost more than the
                // thing it measures.
                if let Some(c) = ctx {
                    self.obs.record_hop_span(c, "router.fanout");
                }
                self.handle_relay(net, group, shard, body, from, ctx)
            }
        }
    }

    /// The non-request arms of [`Self::handle_envelope`]. `ctx` is the
    /// frame's trace context, already recorded as a fan-out hop.
    fn handle_relay<T: Transport>(
        &mut self,
        net: &mut T,
        group: GroupId,
        shard: ShardId,
        body: ClusterBody,
        from: EndpointId,
        ctx: Option<TraceContext>,
    ) -> Option<RouterEvent> {
        match body {
            // Client plane, outbound: acks from a shard, relayed raw so
            // the member's protocol is the single-server one.
            ClusterBody::Control(msg) => {
                let (user, admitted, departed) = match &msg {
                    ControlMessage::JoinGranted { user, .. } => (*user, true, false),
                    ControlMessage::LeaveGranted { user } => (*user, false, true),
                    ControlMessage::JoinDenied { user } | ControlMessage::LeaveDenied { user } => {
                        (*user, false, false)
                    }
                    _ => unreachable!("requests matched by the caller"),
                };
                let &ep = self.directory.get(&(group, user))?;
                if admitted {
                    let addr = self.slice_addr(net, group, shard);
                    net.join_group(addr, ep);
                }
                if departed {
                    let addr = self.slice_addr(net, group, shard);
                    net.leave_group(addr, ep);
                    self.directory.remove(&(group, user));
                }
                net.send_unicast(self.endpoint, ep, Bytes::from(msg.encode()));
                Some(RouterEvent::AckRelayed { group, user })
            }

            // The out-of-band half of the admission exchange, relayed
            // verbatim (the member-side driver decodes the envelope).
            ClusterBody::Grant { user, key, leaf_label, path_labels } => {
                let &ep = self.directory.get(&(group, user))?;
                let env = ClusterEnvelope::new(
                    shard,
                    group,
                    ClusterBody::Grant { user, key, leaf_label, path_labels },
                );
                net.send_unicast(self.endpoint, ep, Bytes::from(env.encode()));
                Some(RouterEvent::GrantRelayed { group, user })
            }

            ClusterBody::RekeyGroup { payload } => {
                let bytes = payload.len();
                let addr = self.slice_addr(net, group, shard);
                net.send_multicast(self.endpoint, addr, Bytes::from(payload));
                self.obs.counter("kg_cluster_rekey_multicast_total").inc();
                Some(RouterEvent::RekeyMulticast { group, shard, bytes })
            }

            ClusterBody::RekeyUsers { users, payload } => {
                let bytes = payload.len();
                let eps: Vec<EndpointId> = users
                    .iter()
                    .filter_map(|u| self.directory.get(&(group, *u)).copied())
                    .collect();
                let targets = eps.len();
                net.send_to_set(self.endpoint, &eps, Bytes::from(payload));
                self.obs.counter("kg_cluster_rekey_unicast_total").inc();
                Some(RouterEvent::RekeyUnicast { group, targets, bytes })
            }

            // Admin plane.
            ClusterBody::Refresh => {
                let shards = self.map.shards_of(group);
                let count = shards.len();
                let trace = ctx.map(TraceContext::next_hop);
                for shard in shards {
                    if let Some(&ep) = self.shards.get(&shard) {
                        let env =
                            ClusterEnvelope { shard, group, trace, body: ClusterBody::Refresh };
                        net.send_unicast(self.endpoint, ep, Bytes::from(env.encode()));
                    }
                }
                Some(RouterEvent::RefreshForwarded { group, shards: count })
            }

            ClusterBody::Shutdown if shard == ROUTER_SHARD => {
                self.shutdown = Some((from, Vec::new()));
                for (&shard, &ep) in &self.shards {
                    let env = ClusterEnvelope::new(shard, GroupId(0), ClusterBody::Shutdown);
                    net.send_unicast(self.endpoint, ep, Bytes::from(env.encode()));
                }
                Some(RouterEvent::ShutdownStarted)
            }

            ClusterBody::ShutdownAck { members, wal_tail } => {
                let (admin, mut acks) = self.shutdown.take()?;
                acks.push((shard, members, wal_tail));
                if acks.len() < self.shards.len() {
                    self.shutdown = Some((admin, acks));
                    return None;
                }
                let members: u64 = acks.iter().map(|(_, m, _)| m).sum();
                let wal_tail: u64 = acks.iter().map(|(_, _, w)| w).sum();
                let summary = ClusterEnvelope::new(
                    ROUTER_SHARD,
                    GroupId(0),
                    ClusterBody::ShutdownAck { members, wal_tail },
                );
                net.send_unicast(self.endpoint, admin, Bytes::from(summary.encode()));
                self.running = false;
                Some(RouterEvent::ShutdownComplete { members, wal_tail })
            }

            ClusterBody::StatsRequest => {
                self.admin = Some(from);
                for (&shard, &ep) in &self.shards {
                    let env = ClusterEnvelope::new(shard, GroupId(0), ClusterBody::StatsRequest);
                    net.send_unicast(self.endpoint, ep, Bytes::from(env.encode()));
                }
                None
            }

            body @ ClusterBody::StatsReport { .. } => {
                let admin = self.admin?;
                let env = ClusterEnvelope::new(shard, group, body);
                net.send_unicast(self.endpoint, admin, Bytes::from(env.encode()));
                Some(RouterEvent::StatsRelayed { shard })
            }

            // Telemetry plane. Harvesting the router's own spans on
            // every push keeps the trace store populated in time order:
            // a node's spans land next to the router spans for the same
            // window, so capacity eviction drops whole old traces
            // instead of splitting recent ones (a single bulk harvest
            // at lookup time would re-insert long-evicted trace ids and
            // push out every stitched entry).
            ClusterBody::Telemetry { snapshot } => {
                self.harvest_own_spans();
                let seq = snapshot.seq;
                self.obs
                    .counter_with("kg_cluster_telemetry_total", "shard", &shard.0.to_string())
                    .inc();
                if self.merger.ingest(shard, snapshot) {
                    Some(RouterEvent::TelemetryMerged { shard, seq })
                } else {
                    None
                }
            }

            ClusterBody::MetricsRequest { format } => {
                self.harvest_own_spans();
                let text = match format {
                    1 => self.merger.render_json(&self.obs),
                    _ => self.merger.render_prometheus(&self.obs),
                };
                let reply = ClusterEnvelope::new(
                    ROUTER_SHARD,
                    GroupId(0),
                    ClusterBody::MetricsReport { text: clip_to_frame(text) },
                );
                net.send_unicast(self.endpoint, from, Bytes::from(reply.encode()));
                Some(RouterEvent::MetricsServed { format })
            }

            ClusterBody::TraceRequest { trace_id } => {
                self.harvest_own_spans();
                let found = if trace_id == 0 {
                    self.merger.traces().latest_stitched()
                } else {
                    self.merger.traces().get(trace_id)
                };
                let (trace_id, mut spans) =
                    found.map_or((0, Vec::new()), |t| (t.trace_id, t.spans));
                spans.truncate(TRACE_REPORT_SPAN_CAP);
                let count = spans.len();
                let reply = ClusterEnvelope::new(
                    ROUTER_SHARD,
                    GroupId(0),
                    ClusterBody::TraceReport { trace_id, spans },
                );
                net.send_unicast(self.endpoint, from, Bytes::from(reply.encode()));
                Some(RouterEvent::TraceServed { trace_id, spans: count })
            }

            // Reports echoed back at the router are not ours to act on.
            ClusterBody::MetricsReport { .. } | ClusterBody::TraceReport { .. } => None,

            ClusterBody::Shutdown => None, // shard-addressed; not ours to act on
        }
    }

    /// Drain the inbox: route client requests, relay shard traffic, run
    /// the admin plane. Returns events in processing order.
    pub fn poll<T: Transport>(&mut self, net: &mut T) -> Vec<RouterEvent> {
        let mut events = Vec::new();
        while let Some(dg) = net.recv(self.endpoint) {
            if ClusterEnvelope::sniff(&dg.payload) {
                match ClusterEnvelope::decode(&dg.payload) {
                    Ok(env) => events.extend(self.handle_envelope(net, env, dg.from)),
                    Err(error) => {
                        self.obs.event(ObsEvent::BadDatagram {
                            from: dg.from.0 as u64,
                            error: error.to_string(),
                        });
                        events.push(RouterEvent::BadDatagram { from: dg.from });
                    }
                }
                continue;
            }
            match ControlMessage::decode(&dg.payload) {
                Ok(
                    msg
                    @ (ControlMessage::JoinRequest { .. } | ControlMessage::LeaveRequest { .. }),
                ) => {
                    let group = self.default_group;
                    events.push(self.forward_request(net, group, msg, dg.from, None));
                }
                Ok(_) => {} // stray acks echoed back at the router
                Err(error) => {
                    self.obs.event(ObsEvent::BadDatagram {
                        from: dg.from.0 as u64,
                        error: error.to_string(),
                    });
                    events.push(RouterEvent::BadDatagram { from: dg.from });
                }
            }
        }
        events
    }
}

/// Whether only a shard node sends `body`: an ack, a grant, a rekey
/// bundle, a shutdown ack, a stats report or a telemetry push. (Requests
/// are matched before this is asked.)
fn is_shard_plane(body: &ClusterBody) -> bool {
    matches!(
        body,
        ClusterBody::Control(_)
            | ClusterBody::Grant { .. }
            | ClusterBody::RekeyGroup { .. }
            | ClusterBody::RekeyUsers { .. }
            | ClusterBody::ShutdownAck { .. }
            | ClusterBody::StatsReport { .. }
            | ClusterBody::Telemetry { .. }
    )
}

/// Truncate rendered report text to the transport frame budget (UTF-8
/// safe), leaving room for the envelope header.
fn clip_to_frame(mut text: String) -> String {
    const BUDGET: usize = MAX_UDP_PAYLOAD - 256;
    if text.len() > BUDGET {
        let mut cut = BUDGET;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    }
    text
}
