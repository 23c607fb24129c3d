//! An in-process cluster on the deterministic simulator: router + N shard
//! nodes + per-member client endpoints, driven from one thread.
//!
//! This is the harness behind the equivalence/crash tests and the
//! `report cluster` benchmark. It plays the roles the binaries split
//! across processes: it owns the [`SimNetwork`], pumps the router and
//! every node until the cluster goes quiet, drains member inboxes
//! (recording grants, counting acks and rekey deliveries), and drives the
//! admin plane (refresh, stats, shutdown) from a driver endpoint.

use bytes::Bytes;
use kg_core::ids::UserId;
use kg_net::{EndpointId, NetConfig, SimNetwork};
use kg_obs::{Obs, ObsConfig};
use kg_persist::PersistConfig;
use kg_server::net::leave_authenticator;
use kg_server::{AccessControl, GroupKeyServer, RecoverError, ServerConfig};
use kg_wire::{ClusterBody, ClusterEnvelope, ControlMessage, GroupId, ShardId, ROUTER_SHARD};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::map::ShardMap;
use crate::node::{NodeConfig, NodeEvent, ShardNode};
use crate::router::{Router, RouterEvent};

/// What a member received out-of-band at admission: the envelope form of
/// [`kg_server::JoinGrant`], as relayed through the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantInfo {
    /// The member's individual key material.
    pub key: Vec<u8>,
    /// The shard serving the member's slice.
    pub shard: ShardId,
}

/// Per-member delivery counters, kept by the harness as it drains client
/// inboxes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemberTraffic {
    /// Control acks received (grants and denies).
    pub acks: u64,
    /// Rekey packets received (unicast or slice multicast).
    pub rekeys: u64,
    /// Total rekey bytes received.
    pub rekey_bytes: u64,
}

/// The complete in-process cluster.
pub struct SimCluster {
    /// The simulated network (public: tests inject faults directly).
    pub net: SimNetwork,
    /// The relay front-end.
    pub router: Router,
    /// One node per shard, indexed by shard id.
    pub nodes: Vec<ShardNode>,
    driver: EndpointId,
    /// Kept to rebuild a [`NodeConfig`] when recovering a crashed node.
    template: ServerConfig,
    acl: AccessControl,
    persist_root: Option<PathBuf>,
    clients: BTreeMap<(GroupId, UserId), EndpointId>,
    grants: BTreeMap<(GroupId, UserId), GrantInfo>,
    traffic: BTreeMap<(GroupId, UserId), MemberTraffic>,
    /// Admin-plane replies collected at the driver endpoint.
    admin_inbox: Vec<ClusterEnvelope>,
    node_events: Vec<NodeEvent>,
    router_events: Vec<RouterEvent>,
    /// When set, every member shares the driver endpoint — the bench
    /// mode, where per-member inboxes would only be drained and dropped.
    shared_client_endpoint: bool,
    /// Telemetry push interval handed to recovered nodes (see
    /// [`Self::enable_telemetry`]).
    telemetry_interval_ms: Option<u64>,
}

impl SimCluster {
    /// Build a cluster of `map.shards()` nodes. Each node gets its own
    /// enabled [`Obs`] registry (per-shard view; aggregate with
    /// [`crate::aggregate_counter_values`]); pass a persistence root to
    /// give every slice a WAL/snapshot directory under
    /// `<root>/shard-<id>/group-<id>`.
    pub fn new(
        map: ShardMap,
        template: ServerConfig,
        acl: AccessControl,
        net_config: NetConfig,
        persist_root: Option<&Path>,
    ) -> Self {
        let mut net = SimNetwork::new(net_config);
        let mut router = Router::new(map, &mut net, Obs::new(ObsConfig::default()));
        let mut nodes = Vec::new();
        for shard in router.map().all_shards().collect::<Vec<_>>() {
            let config = NodeConfig {
                shard,
                template: template.clone(),
                acl: acl.clone(),
                persist_root: persist_root.map(|r| r.join(format!("shard-{}", shard.0))),
                persist: PersistConfig::default(),
                telemetry_interval_ms: None,
            };
            let node =
                ShardNode::new(config, &mut net, router.endpoint(), Obs::new(ObsConfig::default()));
            router.register_shard(shard, node.endpoint());
            nodes.push(node);
        }
        let driver = net.endpoint();
        SimCluster {
            net,
            router,
            nodes,
            driver,
            template,
            acl,
            persist_root: persist_root.map(Path::to_path_buf),
            clients: BTreeMap::new(),
            grants: BTreeMap::new(),
            traffic: BTreeMap::new(),
            admin_inbox: Vec::new(),
            node_events: Vec::new(),
            router_events: Vec::new(),
            shared_client_endpoint: false,
            telemetry_interval_ms: None,
        }
    }

    /// Turn on the periodic node → router telemetry stream for every
    /// node (pushes happen at [`Self::tick`] times).
    pub fn enable_telemetry(&mut self, interval_ms: u64) {
        self.telemetry_interval_ms = Some(interval_ms);
        for node in &mut self.nodes {
            node.set_telemetry_interval(interval_ms);
        }
    }

    /// Ask the router for the merged cluster-wide metrics view
    /// (0 = Prometheus text, 1 = JSON); the [`ClusterBody::MetricsReport`]
    /// reply lands in [`Self::take_admin_replies`] after a settle.
    pub fn request_metrics(&mut self, format: u8) {
        let env =
            ClusterEnvelope::new(ROUTER_SHARD, GroupId(0), ClusterBody::MetricsRequest { format });
        let (driver, router) = (self.driver, self.router.endpoint());
        self.net.send_unicast(driver, router, Bytes::from(env.encode()));
    }

    /// Ask the router for a reassembled trace (0 = the latest fully
    /// stitched one); the reply lands in [`Self::take_admin_replies`].
    pub fn request_trace(&mut self, trace_id: u64) {
        let env =
            ClusterEnvelope::new(ROUTER_SHARD, GroupId(0), ClusterBody::TraceRequest { trace_id });
        let (driver, router) = (self.driver, self.router.endpoint());
        self.net.send_unicast(driver, router, Bytes::from(env.encode()));
    }

    /// Route every member through the driver endpoint instead of one
    /// endpoint per member. Used by the benchmark, where a million
    /// per-member inboxes would measure the harness, not the cluster.
    pub fn use_shared_client_endpoint(&mut self) {
        self.shared_client_endpoint = true;
    }

    /// The admin/driver endpoint.
    pub fn driver(&self) -> EndpointId {
        self.driver
    }

    /// The endpoint serving `(group, user)`, allocating one if needed.
    pub fn client_endpoint(&mut self, group: GroupId, user: UserId) -> EndpointId {
        if self.shared_client_endpoint {
            return self.driver;
        }
        if let Some(&ep) = self.clients.get(&(group, user)) {
            return ep;
        }
        let ep = self.net.endpoint();
        self.clients.insert((group, user), ep);
        ep
    }

    /// The grant `(group, user)` received at admission, if any.
    pub fn grant(&self, group: GroupId, user: UserId) -> Option<&GrantInfo> {
        self.grants.get(&(group, user))
    }

    /// Delivery counters for `(group, user)`.
    pub fn traffic(&self, group: GroupId, user: UserId) -> MemberTraffic {
        self.traffic.get(&(group, user)).copied().unwrap_or_default()
    }

    /// Node events accumulated since the last [`Self::take_events`].
    pub fn take_events(&mut self) -> (Vec<NodeEvent>, Vec<RouterEvent>) {
        (std::mem::take(&mut self.node_events), std::mem::take(&mut self.router_events))
    }

    /// Admin-plane replies accumulated at the driver endpoint.
    pub fn take_admin_replies(&mut self) -> Vec<ClusterEnvelope> {
        std::mem::take(&mut self.admin_inbox)
    }

    /// Send a join request for `(group, user)` from its client endpoint.
    pub fn join(&mut self, group: GroupId, user: UserId) {
        let ep = self.client_endpoint(group, user);
        // The router rewrites the shard to the owner.
        let env = ClusterEnvelope::new(
            ROUTER_SHARD,
            group,
            ClusterBody::Control(ControlMessage::JoinRequest { user }),
        );
        let router = self.router.endpoint();
        self.net.send_unicast(ep, router, Bytes::from(env.encode()));
    }

    /// Send an authenticated leave request for `(group, user)`, using the
    /// individual key recorded from the member's grant. The authenticator
    /// is the grant's last use, so the grant is dropped here: kept, the
    /// grants of departed members grow without bound under churn.
    ///
    /// # Panics
    ///
    /// Panics if the member holds no grant (never admitted, or already
    /// sent its leave).
    pub fn leave(&mut self, group: GroupId, user: UserId) {
        let key = self.grants.remove(&(group, user)).expect("leave without a grant").key;
        let auth = leave_authenticator(user, &key);
        let ep = self.client_endpoint(group, user);
        let env = ClusterEnvelope::new(
            ROUTER_SHARD,
            group,
            ClusterBody::Control(ControlMessage::LeaveRequest { user, auth }),
        );
        let router = self.router.endpoint();
        self.net.send_unicast(ep, router, Bytes::from(env.encode()));
    }

    /// Ask every shard hosting `group` to rotate its slice's group key.
    pub fn refresh(&mut self, group: GroupId) {
        let env = ClusterEnvelope::new(ROUTER_SHARD, group, ClusterBody::Refresh);
        let (driver, router) = (self.driver, self.router.endpoint());
        self.net.send_unicast(driver, router, Bytes::from(env.encode()));
    }

    /// Ask every shard for a stats report (collect the replies from
    /// [`Self::take_admin_replies`] after a [`Self::settle`]).
    pub fn request_stats(&mut self) {
        let env = ClusterEnvelope::new(ROUTER_SHARD, GroupId(0), ClusterBody::StatsRequest);
        let (driver, router) = (self.driver, self.router.endpoint());
        self.net.send_unicast(driver, router, Bytes::from(env.encode()));
    }

    fn pump_members(&mut self) {
        let eps: Vec<((GroupId, UserId), EndpointId)> =
            self.clients.iter().map(|(&k, &ep)| (k, ep)).collect();
        for (key, ep) in eps {
            while let Some(dg) = self.net.recv(ep) {
                self.record_member_datagram(key, &dg.payload);
            }
        }
        // The driver doubles as the shared client endpoint in bench mode,
        // and always receives the admin-plane replies.
        while let Some(dg) = self.net.recv(self.driver) {
            if let Ok(env) = ClusterEnvelope::decode(&dg.payload) {
                match env.body {
                    ClusterBody::Grant { user, ref key, .. } => {
                        self.grants.insert(
                            (env.group, user),
                            GrantInfo { key: key.clone(), shard: env.shard },
                        );
                    }
                    ClusterBody::ShutdownAck { .. }
                    | ClusterBody::StatsReport { .. }
                    | ClusterBody::MetricsReport { .. }
                    | ClusterBody::TraceReport { .. } => {
                        self.admin_inbox.push(env);
                    }
                    _ => {}
                }
            }
            // Raw acks/rekeys on the shared endpoint are dropped
            // uncounted: bench mode measures the cluster, not clients.
        }
    }

    fn record_member_datagram(&mut self, key: (GroupId, UserId), payload: &[u8]) {
        if ClusterEnvelope::sniff(payload) {
            if let Ok(env) = ClusterEnvelope::decode(payload) {
                if let ClusterBody::Grant { user, key: ik, .. } = env.body {
                    self.grants.insert((env.group, user), GrantInfo { key: ik, shard: env.shard });
                }
            }
            return;
        }
        let t = self.traffic.entry(key).or_default();
        match ControlMessage::decode(payload) {
            Ok(_) => t.acks += 1,
            Err(_) => {
                // Not a control message: a rekey packet (single or batch).
                t.rekeys += 1;
                t.rekey_bytes += payload.len() as u64;
            }
        }
    }

    /// Pump router, nodes, and member inboxes until the network goes
    /// quiet and nobody has anything left to say.
    pub fn settle(&mut self) {
        loop {
            self.net.run_until_quiet();
            let mut progress = false;
            let r = self.router.poll(&mut self.net);
            progress |= !r.is_empty();
            self.router_events.extend(r);
            for node in &mut self.nodes {
                let evs = node.poll(&mut self.net);
                progress |= !evs.is_empty();
                self.node_events.extend(evs);
            }
            self.net.run_until_quiet();
            self.pump_members();
            if !progress && self.net.pending_total() == 0 {
                return;
            }
        }
    }

    /// [`Self::settle`], then flush any due batch intervals at `now_ms`,
    /// then settle again so the interval traffic is fully delivered.
    pub fn tick(&mut self, now_ms: u64) {
        self.settle();
        for node in &mut self.nodes {
            let evs = node.tick(&mut self.net, now_ms);
            self.node_events.extend(evs);
        }
        self.settle();
    }

    /// Run the admin shutdown handshake to completion. Returns the
    /// aggregated `(members, wal_tail)` summary the admin received.
    pub fn shutdown(&mut self) -> (u64, u64) {
        let env = ClusterEnvelope::new(ROUTER_SHARD, GroupId(0), ClusterBody::Shutdown);
        let (driver, router) = (self.driver, self.router.endpoint());
        self.net.send_unicast(driver, router, Bytes::from(env.encode()));
        self.settle();
        let summary = self
            .admin_inbox
            .iter()
            .rev()
            .find_map(|env| match env.body {
                ClusterBody::ShutdownAck { members, wal_tail } if env.shard == ROUTER_SHARD => {
                    Some((members, wal_tail))
                }
                _ => None,
            })
            .expect("shutdown handshake completed");
        assert!(!self.router.is_running(), "router exits after the summary ack");
        assert!(self.nodes.iter().all(|n| !n.is_running()), "every node acknowledged");
        summary
    }

    fn node_config(&self, shard: ShardId) -> NodeConfig {
        NodeConfig {
            shard,
            template: self.template.clone(),
            acl: self.acl.clone(),
            persist_root: self.persist_root.as_ref().map(|r| r.join(format!("shard-{}", shard.0))),
            persist: PersistConfig::default(),
            telemetry_interval_ms: self.telemetry_interval_ms,
        }
    }

    /// Crash `shard`'s node: its endpoint goes down (inbound traffic is
    /// dropped, like a host that lost power) and all in-memory state is
    /// lost. Pair with [`Self::recover_node`].
    pub fn crash_node(&mut self, shard: ShardId) {
        let node = self.nodes.iter().find(|n| n.shard() == shard).expect("known shard");
        self.net.crash(node.endpoint());
    }

    /// Restart a crashed node from its persistence directories, reusing
    /// its endpoint (the network identity survives the process). The
    /// node's obs registry starts fresh, as a real restart's would.
    pub fn recover_node(&mut self, shard: ShardId) -> Result<(), RecoverError> {
        let idx = self.nodes.iter().position(|n| n.shard() == shard).expect("known shard");
        let ep = self.nodes[idx].endpoint();
        self.net.restart(ep);
        let node = ShardNode::resume(
            self.node_config(shard),
            ep,
            self.router.endpoint(),
            Obs::new(ObsConfig::default()),
        )?;
        self.router.register_shard(shard, node.endpoint());
        self.nodes[idx] = node;
        Ok(())
    }

    /// The key server for `(group, user)`'s slice.
    pub fn slice_server(&self, group: GroupId, user: UserId) -> Option<&GroupKeyServer> {
        let shard = self.router.map().owner(group, user);
        self.nodes.iter().find(|n| n.shard() == shard)?.group(group)
    }

    /// Members currently admitted to `group` across all slices.
    pub fn group_size(&self, group: GroupId) -> usize {
        self.nodes.iter().filter_map(|n| n.group(group)).map(|s| s.group_size()).sum()
    }

    /// Per-shard counter snapshots, for export and aggregation.
    pub fn shard_counters(&self) -> Vec<(ShardId, Vec<(String, u64)>)> {
        self.nodes.iter().map(|n| (n.shard(), n.obs().counter_values())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_server::RekeyPolicy;

    /// The benchmark's configuration in small: batched, spanned, shared
    /// client endpoint, churn for many intervals. What the harness and the
    /// router keep per member must track the membership, not the history.
    #[test]
    fn per_member_state_tracks_the_membership_under_churn() {
        let (g, n) = (GroupId(1), 32u64);
        let template = ServerConfig {
            rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: usize::MAX },
            ..ServerConfig::default()
        };
        let map = ShardMap::new(4).with_span(g, 4);
        let mut cluster =
            SimCluster::new(map, template, AccessControl::AllowAll, NetConfig::default(), None);
        cluster.use_shared_client_endpoint();
        let mut members: Vec<UserId> = (1..=n).map(UserId).collect();
        for &u in &members {
            cluster.join(g, u);
        }
        let mut now_ms = 100;
        cluster.tick(now_ms);

        let mut departed = Vec::new();
        for interval in 0..25 {
            for _ in 0..4 {
                let u = members.remove(0);
                cluster.leave(g, u);
                departed.push(u);
            }
            for i in 0..4 {
                let u = UserId(n + 1 + 4 * interval + i);
                cluster.join(g, u);
                members.push(u);
            }
            now_ms += 100;
            cluster.tick(now_ms);
        }

        assert_eq!(cluster.group_size(g), n as usize);
        assert!(departed.iter().all(|&u| cluster.grant(g, u).is_none()), "a departed grant kept");
        assert!(members.iter().all(|&u| cluster.grant(g, u).is_some()), "a member lost its grant");
        assert_eq!(cluster.grants.len(), n as usize);
        assert_eq!(cluster.router.directory_len(), n as usize);
    }
}
