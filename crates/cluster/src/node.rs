//! A shard node: one process hosting the key-server slices assigned to
//! one [`ShardId`].
//!
//! The node speaks only the cluster plane ([`ClusterEnvelope`]) with the
//! router — it never sees client endpoints. Each group slice is a full
//! [`GroupKeyServer`] (own key tree, DRBG streams, batch scheduler, and —
//! when a persistence root is configured — own WAL/snapshot directory
//! under `<root>/group-<id>`), so everything the single-server layers
//! guarantee (durable recovery, deterministic rekeying, batch signing)
//! holds per slice without modification. Rekey packets leave the node as
//! opaque payloads inside [`ClusterBody::RekeyGroup`] /
//! [`ClusterBody::RekeyUsers`]; the router resolves them to member
//! endpoints, so the node needs no membership directory at all.

// Everything here runs on datagrams off the network, so nothing outside
// the tests may panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
use crate::map::group_seed;
use bytes::Bytes;
use kg_core::ids::UserId;
use kg_core::rekey::Recipients;
use kg_core::tree::TreeError;
use kg_net::{EndpointId, Transport};
use kg_obs::{Obs, ObsEvent, TraceContext};
use kg_persist::PersistConfig;
use kg_server::{
    AccessControl, Delivery, GroupKeyServer, ProcessedOp, RecoverError, RequestError, ServerConfig,
};
use kg_wire::{ClusterBody, ClusterEnvelope, ControlMessage, GroupId, ShardId, TelemetrySnapshot};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Most users listed in one [`ClusterBody::RekeyUsers`] envelope. Bounded
/// both by the wire codec's count limit (65 536) and the UDP frame budget;
/// 4 096 ids is 32 KiB of header, leaving room for the packet payload.
pub const REKEY_USERS_CHUNK: usize = 4096;

/// Most trace-span records carried in one telemetry snapshot; older
/// spans are dropped first (the counters still count them).
pub const TELEMETRY_SPAN_TAIL: usize = 256;

/// Encoded-size ceiling for one telemetry snapshot, under the transport
/// frame budget with room for the envelope header.
const TELEMETRY_FRAME_BUDGET: usize = 60_000;

/// Configuration for one shard node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Which shard this node serves.
    pub shard: ShardId,
    /// Template server configuration for every group slice. The slice's
    /// actual seed is derived via [`group_seed`], so co-hosted groups and
    /// sibling slices never share a key stream.
    pub template: ServerConfig,
    /// Access control, applied identically by every slice.
    pub acl: AccessControl,
    /// Durability root; each group slice persists under
    /// `<root>/group-<id>`. `None` runs in-memory.
    pub persist_root: Option<PathBuf>,
    /// WAL/snapshot thresholds for persistent slices.
    pub persist: PersistConfig,
    /// When set, the node pushes a [`TelemetrySnapshot`] to the router
    /// every this many milliseconds (checked at [`ShardNode::tick`]).
    /// `None` disables the stream.
    pub telemetry_interval_ms: Option<u64>,
}

impl NodeConfig {
    /// An in-memory node for `shard` from a template config.
    pub fn in_memory(shard: ShardId, template: ServerConfig, acl: AccessControl) -> Self {
        NodeConfig {
            shard,
            template,
            acl,
            persist_root: None,
            persist: PersistConfig::default(),
            telemetry_interval_ms: None,
        }
    }

    /// The server config a slice of `group` runs with.
    fn slice_config(&self, group: GroupId) -> ServerConfig {
        ServerConfig {
            seed: group_seed(self.template.seed, self.shard, group),
            ..self.template.clone()
        }
    }

    fn slice_dir(&self, group: GroupId) -> Option<PathBuf> {
        self.persist_root.as_ref().map(|r| r.join(format!("group-{}", group.0)))
    }
}

/// Events surfaced to the node's driver (the binaries' main loop, the
/// in-process harness, tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// A member joined `group`'s slice (immediate mode or interval flush).
    Joined(GroupId, UserId),
    /// A member left `group`'s slice.
    Left(GroupId, UserId),
    /// A request was rejected; the deny ack went back via the router.
    Rejected(GroupId, UserId, RequestError),
    /// Batched mode: the request is queued for the next interval.
    Queued(GroupId, UserId),
    /// Batched mode: an interval flushed.
    Flushed {
        /// The group whose slice flushed.
        group: GroupId,
        /// Interval sequence number.
        interval: u64,
        /// Members admitted.
        joined: usize,
        /// Members removed.
        left: usize,
    },
    /// The group key of `group`'s slice was rotated on admin request.
    Refreshed(GroupId),
    /// An inbound datagram was not a valid envelope and was dropped.
    BadDatagram(EndpointId),
    /// A flush or refresh failed (WAL append error); the node keeps
    /// running and the driver decides.
    Failed(GroupId, RequestError),
    /// The node acknowledged an admin shutdown; the driver should exit
    /// its loop once this appears.
    ShutdownComplete {
        /// Members across all slices at shutdown.
        members: u64,
        /// WAL records a restart would replay, summed over slices — 0
        /// proves every final snapshot landed.
        wal_tail: u64,
    },
    /// A telemetry snapshot was pushed to the router.
    TelemetryPushed {
        /// The snapshot's gap-free sequence number.
        seq: u64,
        /// Trace-span records carried in the tail.
        spans: usize,
    },
}

/// One shard's key servers behind a cluster-plane endpoint.
pub struct ShardNode {
    config: NodeConfig,
    endpoint: EndpointId,
    router: EndpointId,
    groups: BTreeMap<GroupId, GroupKeyServer>,
    obs: Obs,
    running: bool,
    /// Control requests processed (joins + leaves + refreshes), for the
    /// admin stats report.
    requests: u64,
    /// Intervals flushed, for the admin stats report.
    intervals: u64,
    /// Gap-free sequence of the telemetry snapshots pushed so far.
    telemetry_seq: u64,
    /// Absolute counter values as of the last push, for delta encoding.
    pushed_counters: BTreeMap<String, u64>,
    /// Highest timeline seq whose span records were already exported.
    exported_seq: u64,
    /// Next telemetry push is due at this tick time.
    next_push_ms: u64,
}

impl ShardNode {
    /// Attach a fresh node to the transport. `router` is the cluster-plane
    /// peer every outbound envelope goes to.
    pub fn new<T: Transport>(
        config: NodeConfig,
        net: &mut T,
        router: EndpointId,
        obs: Obs,
    ) -> Self {
        let endpoint = net.endpoint();
        Self::attach(config, endpoint, router, obs, BTreeMap::new())
    }

    fn attach(
        config: NodeConfig,
        endpoint: EndpointId,
        router: EndpointId,
        obs: Obs,
        groups: BTreeMap<GroupId, GroupKeyServer>,
    ) -> Self {
        obs.set_trace_salt(endpoint.0 as u64);
        ShardNode {
            config,
            endpoint,
            router,
            groups,
            obs,
            running: true,
            requests: 0,
            intervals: 0,
            telemetry_seq: 0,
            pushed_counters: BTreeMap::new(),
            exported_seq: 0,
            next_push_ms: 0,
        }
    }

    /// Rebuild a node after a crash: every `group-<id>` directory under
    /// the persistence root is recovered through
    /// [`GroupKeyServer::recover`] (snapshot + WAL-tail replay, digest
    /// verified), and the node re-attaches to its existing `endpoint` —
    /// the network identity survives the process, as with
    /// [`resume`](kg_server::net::NetServer::resume) on the single-server
    /// path.
    pub fn resume(
        config: NodeConfig,
        endpoint: EndpointId,
        router: EndpointId,
        obs: Obs,
    ) -> Result<Self, RecoverError> {
        let mut groups = BTreeMap::new();
        if let Some(root) = &config.persist_root {
            if let Ok(entries) = std::fs::read_dir(root) {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let Some(id) = name.to_str().and_then(|n| n.strip_prefix("group-")) else {
                        continue;
                    };
                    let Ok(id) = id.parse::<u32>() else { continue };
                    let group = GroupId(id);
                    let server = GroupKeyServer::recover_observed(
                        config.slice_config(group),
                        config.acl.clone(),
                        entry.path(),
                        config.persist,
                        obs.clone(),
                    )?;
                    groups.insert(group, server);
                }
            }
        }
        Ok(Self::attach(config, endpoint, router, obs, groups))
    }

    /// Turn the periodic telemetry stream on (or retime it) after
    /// construction; the in-process harness uses this.
    pub fn set_telemetry_interval(&mut self, interval_ms: u64) {
        self.config.telemetry_interval_ms = Some(interval_ms);
    }

    /// The node's cluster-plane endpoint.
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The shard this node serves.
    pub fn shard(&self) -> ShardId {
        self.config.shard
    }

    /// The node's observability handle (shared by every slice).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Whether the node is still serving (false after a clean shutdown).
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// The key server for `group`'s slice, if this node hosts one.
    pub fn group(&self, group: GroupId) -> Option<&GroupKeyServer> {
        self.groups.get(&group)
    }

    /// Every hosted `(group, server)` slice.
    pub fn slices(&self) -> impl Iterator<Item = (GroupId, &GroupKeyServer)> {
        self.groups.iter().map(|(g, s)| (*g, s))
    }

    /// Members across all slices.
    pub fn member_total(&self) -> u64 {
        self.groups.values().map(|s| s.group_size() as u64).sum()
    }

    /// WAL records a restart would replay, summed over slices.
    pub fn wal_tail_total(&self) -> u64 {
        self.groups.values().map(|s| s.wal_tail().unwrap_or(0)).sum()
    }

    fn ensure_group(&mut self, group: GroupId) -> Result<&mut GroupKeyServer, RequestError> {
        let slot = match self.groups.entry(group) {
            Entry::Occupied(hosted) => return Ok(hosted.into_mut()),
            Entry::Vacant(slot) => slot,
        };
        let cfg = self.config.slice_config(group);
        let mut server = match self.config.slice_dir(group) {
            None => GroupKeyServer::new(cfg, self.config.acl.clone()),
            Some(dir) => GroupKeyServer::with_persistence(
                cfg,
                self.config.acl.clone(),
                dir,
                self.config.persist,
            )
            .map_err(|e| RequestError::Persist(e.to_string()))?,
        };
        server.attach_obs(self.obs.clone());
        Ok(slot.insert(server))
    }

    fn send<T: Transport>(&self, net: &mut T, group: GroupId, body: ClusterBody) {
        // Inside a traced request every outbound frame (ack, grant,
        // rekey bundle) carries the context one hop further, parented
        // under the node's innermost open span.
        let trace = self.obs.current_trace().map(TraceContext::next_hop);
        let env = ClusterEnvelope { shard: self.config.shard, group, trace, body };
        net.send_unicast(self.endpoint, self.router, Bytes::from(env.encode()));
    }

    /// Carry out one operation's [`delivery`](ProcessedOp::delivery) — a
    /// request's, an interval's or a refresh's alike — as relay envelopes;
    /// the only place acks, grants and rekey frames leave the node from.
    /// Leave acks go first, so the router unsubscribes the departed from the
    /// slice multicast before any of the operation's traffic is relayed.
    /// The node resolves tree-structural recipients (subtrees) to explicit
    /// user lists against its own slice; the router maps users to
    /// endpoints.
    fn deliver<T: Transport>(
        &self,
        net: &mut T,
        group: GroupId,
        op: &ProcessedOp,
        events: &mut Vec<NodeEvent>,
    ) {
        for step in op.delivery() {
            match step {
                Delivery::Evict(user) => {
                    let ack = ControlMessage::LeaveGranted { user };
                    self.send(net, group, ClusterBody::Control(ack));
                    events.push(NodeEvent::Left(group, user));
                }
                Delivery::Admit(grant) => {
                    let (user, leaf_label) = (grant.user, grant.leaf_label);
                    let path_labels = grant.path_labels.clone();
                    let ack = ControlMessage::JoinGranted {
                        user,
                        leaf_label,
                        path_labels: path_labels.clone(),
                    };
                    self.send(net, group, ClusterBody::Control(ack));
                    let key = grant.individual_key.material().to_vec();
                    self.send(
                        net,
                        group,
                        ClusterBody::Grant { user, key, leaf_label, path_labels },
                    );
                    events.push(NodeEvent::Joined(group, user));
                }
                Delivery::Frame(Recipients::Group, bytes) => {
                    self.send(net, group, ClusterBody::RekeyGroup { payload: bytes.to_vec() });
                }
                Delivery::Frame(to, bytes) => {
                    let Some(server) = self.groups.get(&group) else { continue };
                    for chunk in server.tree().resolve(to).chunks(REKEY_USERS_CHUNK) {
                        let body = ClusterBody::RekeyUsers {
                            users: chunk.to_vec(),
                            payload: bytes.to_vec(),
                        };
                        self.send(net, group, body);
                    }
                }
            }
        }
    }

    /// Deliver what `group`'s slice flushed, if anything.
    fn deliver_interval<T: Transport>(
        &mut self,
        net: &mut T,
        group: GroupId,
        flushed: Result<Option<ProcessedOp>, RequestError>,
        events: &mut Vec<NodeEvent>,
    ) {
        match flushed {
            Ok(None) => {}
            Ok(Some(op)) => {
                self.intervals += 1;
                self.deliver(net, group, &op, events);
                events.push(NodeEvent::Flushed {
                    group,
                    interval: op.seq + 1,
                    joined: op.grants.len(),
                    left: op.departed.len(),
                });
            }
            Err(e) => {
                self.obs.event(ObsEvent::FlushFailed { error: e.to_string() });
                events.push(NodeEvent::Failed(group, e));
            }
        }
    }

    fn join(&mut self, group: GroupId, user: UserId) -> Result<ProcessedOp, RequestError> {
        // Admission control comes before the slice: a join the ACL denies
        // must not create a key server (an RSA keypair, and with persistence
        // a directory and a synced log) for a group the node does not host.
        if !self.config.acl.permits(user) {
            return Err(RequestError::JoinDenied(user));
        }
        self.ensure_group(group)?.handle_join(user)
    }

    fn leave(
        &mut self,
        group: GroupId,
        user: UserId,
        auth: &[u8],
    ) -> Result<ProcessedOp, RequestError> {
        match self.groups.get_mut(&group) {
            Some(server) if server.leave_is_authentic(user, auth) => server.handle_leave(user),
            _ => Err(RequestError::Tree(TreeError::NotAMember(user))),
        }
    }

    /// Answer `user`'s request: deny it, or deliver what it produced — which
    /// is nothing yet when the slice queued it for a later interval.
    fn answer<T: Transport>(
        &mut self,
        net: &mut T,
        group: GroupId,
        user: UserId,
        result: Result<ProcessedOp, RequestError>,
        deny: ControlMessage,
        events: &mut Vec<NodeEvent>,
    ) {
        self.requests += 1;
        match result {
            Err(e) => {
                self.send(net, group, ClusterBody::Control(deny));
                events.push(NodeEvent::Rejected(group, user, e));
            }
            Ok(op) => {
                self.deliver(net, group, &op, events);
                if op.delivery().next().is_none() {
                    events.push(NodeEvent::Queued(group, user));
                }
            }
        }
    }

    fn handle_refresh<T: Transport>(
        &mut self,
        net: &mut T,
        group: GroupId,
        events: &mut Vec<NodeEvent>,
    ) {
        self.requests += 1;
        // Nothing hosted here yet: rotating a nonexistent tree is a no-op,
        // not an error (the admin broadcasts to the span).
        let refreshed = self.groups.get_mut(&group).map(GroupKeyServer::refresh_group_key);
        match refreshed {
            Some(Err(e)) => return events.push(NodeEvent::Failed(group, e)),
            Some(Ok(op)) => self.deliver(net, group, &op, events),
            None => {}
        }
        events.push(NodeEvent::Refreshed(group));
    }

    fn handle_shutdown<T: Transport>(
        &mut self,
        net: &mut T,
        now_ms: u64,
        events: &mut Vec<NodeEvent>,
    ) {
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            let Some(server) = self.groups.get_mut(&group) else { continue };
            let flushed = server.shutdown(now_ms);
            self.deliver_interval(net, group, flushed, events);
        }
        let members = self.member_total();
        let wal_tail = self.wal_tail_total();
        // Final telemetry push before the ack, so the router's flight
        // recorder holds this node's last moments.
        if self.config.telemetry_interval_ms.is_some() {
            self.push_telemetry(net);
        }
        self.send(net, GroupId(0), ClusterBody::ShutdownAck { members, wal_tail });
        self.running = false;
        events.push(NodeEvent::ShutdownComplete { members, wal_tail });
    }

    /// Build and push one bounded telemetry snapshot: counter deltas
    /// since the last push, absolute gauges and histogram digests, and
    /// the trace-span records appended to the timeline since then.
    fn push_telemetry<T: Transport>(&mut self, net: &mut T) -> NodeEvent {
        self.telemetry_seq += 1;
        let mut counters = Vec::new();
        for (name, v) in self.obs.counter_values() {
            let prev = self.pushed_counters.insert(name.clone(), v).unwrap_or(0);
            let delta = v.saturating_sub(prev);
            if delta > 0 {
                counters.push((name, delta));
            }
        }
        let mut spans = Vec::new();
        for entry in self.obs.timeline_since(self.exported_seq) {
            self.exported_seq = entry.seq;
            if let ObsEvent::Span(s) = entry.event {
                spans.push(s);
            }
        }
        if spans.len() > TELEMETRY_SPAN_TAIL {
            spans.drain(..spans.len() - TELEMETRY_SPAN_TAIL);
        }
        let mut snapshot = TelemetrySnapshot {
            seq: self.telemetry_seq,
            at_us: self.obs.now_us(),
            counters,
            gauges: self.obs.gauge_values(),
            hists: self.obs.histogram_values(),
            spans,
        };
        // Stay inside the datagram budget: spans are the bulk, so shed
        // oldest-first, then histogram digests if that still overflows.
        while snapshot.wire_len() > TELEMETRY_FRAME_BUDGET && !snapshot.spans.is_empty() {
            snapshot.spans.remove(0);
        }
        while snapshot.wire_len() > TELEMETRY_FRAME_BUDGET && !snapshot.hists.is_empty() {
            snapshot.hists.pop();
        }
        let spans = snapshot.spans.len();
        let seq = snapshot.seq;
        self.send(net, GroupId(0), ClusterBody::Telemetry { snapshot });
        NodeEvent::TelemetryPushed { seq, spans }
    }

    fn stats_report(&self) -> ClusterBody {
        let encryptions = self
            .obs
            .counter_values()
            .into_iter()
            .filter(|(name, _)| name.starts_with("kg_encryptions_total"))
            .map(|(_, v)| v)
            .sum();
        ClusterBody::StatsReport {
            members: self.member_total(),
            intervals: self.intervals,
            requests: self.requests,
            encryptions,
            pending: self.groups.values().map(|s| s.pending_requests() as u64).sum(),
        }
    }

    /// Drain the inbox and process every envelope. Returns events in
    /// processing order.
    pub fn poll<T: Transport>(&mut self, net: &mut T) -> Vec<NodeEvent> {
        let mut events = Vec::new();
        while let Some(dg) = net.recv(self.endpoint) {
            let env = match ClusterEnvelope::decode(&dg.payload) {
                Ok(env) => env,
                Err(error) => {
                    self.obs.event(kg_obs::ObsEvent::BadDatagram {
                        from: dg.from.0 as u64,
                        error: error.to_string(),
                    });
                    events.push(NodeEvent::BadDatagram(dg.from));
                    continue;
                }
            };
            let group = env.group;
            // A traced envelope re-enters its trace for the duration of
            // the handling: the `node.parse` span (and every server span
            // nested in it — tree surgery, encryption, encoding) records
            // into the timeline, linked under the router's relay span.
            let _trace = env.trace.map(|ctx| self.obs.trace_scope(ctx));
            let _span = env.trace.map(|_| self.obs.span("node.parse"));
            match env.body {
                ClusterBody::Control(ControlMessage::JoinRequest { user }) => {
                    let result = self.join(group, user);
                    let deny = ControlMessage::JoinDenied { user };
                    self.answer(net, group, user, result, deny, &mut events);
                }
                ClusterBody::Control(ControlMessage::LeaveRequest { user, auth }) => {
                    let result = self.leave(group, user, &auth);
                    let deny = ControlMessage::LeaveDenied { user };
                    self.answer(net, group, user, result, deny, &mut events);
                }
                ClusterBody::Refresh => self.handle_refresh(net, group, &mut events),
                ClusterBody::Shutdown => {
                    // now_ms from the transport clock: the shard has no
                    // driver-supplied deadline during an admin shutdown.
                    let now_ms = net.now_us() / 1000;
                    self.handle_shutdown(net, now_ms, &mut events);
                }
                ClusterBody::StatsRequest => {
                    let report = self.stats_report();
                    self.send(net, GroupId(0), report);
                }
                // Server-to-client bodies echoed back are dropped, as the
                // single server drops its own acks.
                _ => {}
            }
        }
        events
    }

    /// Drain the inbox, then flush any group slice whose interval is
    /// due, then push a telemetry snapshot if the stream is on and one
    /// is due.
    pub fn tick<T: Transport>(&mut self, net: &mut T, now_ms: u64) -> Vec<NodeEvent> {
        let mut events = self.poll(net);
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for group in groups {
            let Some(server) = self.groups.get_mut(&group) else { continue };
            let flushed = server.tick(now_ms);
            self.deliver_interval(net, group, flushed, &mut events);
        }
        if let Some(interval) = self.config.telemetry_interval_ms {
            if self.running && now_ms >= self.next_push_ms {
                self.next_push_ms = now_ms + interval;
                events.push(self.push_telemetry(net));
            }
        }
        events
    }
}
