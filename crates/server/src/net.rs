//! The group key server attached to the simulated network.
//!
//! [`NetServer`] owns a [`GroupKeyServer`] plus an endpoint on any
//! [`Transport`] (the deterministic simulator in tests, real UDP in the
//! cluster binaries): it parses inbound `join`/`leave` control datagrams,
//! authenticates leave requests (HMAC under the member's individual key,
//! standing in for the paper's `{leave-request}_{k_u}`), runs the key
//! management, and dispatches the resulting rekey packets — group
//! multicast for `Recipients::Group`, subgroup delivery for the
//! subtree-scoped messages, unicast for the joiner.

// Everything here runs on datagrams off the network, so nothing outside
// the tests may panic on them.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
use crate::{Delivery, GroupKeyServer, JoinGrant, ProcessedOp, RequestError};
use bytes::Bytes;
use kg_core::ids::UserId;
use kg_core::rekey::Recipients;
use kg_core::tree::TreeError;
use kg_crypto::hmac::hmac;
use kg_crypto::md5::Md5;
use kg_net::{EndpointId, MulticastAddr, Transport};
use kg_wire::ControlMessage;
use std::collections::BTreeMap;

/// Events surfaced to the driver after a poll step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// A join was granted; the grant carries the individual key that the
    /// (simulated) authentication exchange delivers to the new member.
    Joined(JoinGrant),
    /// A leave was granted.
    Left(UserId),
    /// A request was rejected.
    Rejected(UserId, RequestError),
    /// A request passed validation and waits for the next rekey interval
    /// (the grant/ack follows when it flushes).
    Queued(UserId),
    /// A rekey interval flushed and its traffic was sent.
    Flushed {
        /// The interval number its packets carry.
        interval: u64,
        /// Users admitted by this interval.
        joined: usize,
        /// Users removed by this interval.
        left: usize,
    },
    /// An inbound datagram failed to decode as a control message and was
    /// dropped (stray traffic, corruption). The server keeps running.
    BadDatagram {
        /// Claimed sender endpoint.
        from: EndpointId,
        /// Why decoding failed.
        error: kg_wire::WireError,
    },
    /// The interval flush failed. With persistence attached this means the
    /// write-ahead log could not be appended — see
    /// [`RequestError::Persist`] for the contract.
    FlushFailed(RequestError),
}

/// The networked server.
pub struct NetServer {
    inner: GroupKeyServer,
    endpoint: EndpointId,
    group_addr: MulticastAddr,
    members: BTreeMap<UserId, EndpointId>,
    /// Endpoints of users whose join was accepted but who are not admitted
    /// yet (they enter `members` when an operation grants their join).
    pending_eps: BTreeMap<UserId, EndpointId>,
}

impl NetServer {
    /// Attach `server` to the network.
    pub fn new<T: Transport>(server: GroupKeyServer, net: &mut T) -> Self {
        let (endpoint, group_addr) = (net.endpoint(), net.multicast_group());
        Self::resume(server, net, endpoint, group_addr, [])
    }

    /// Re-attach a server to an existing endpoint and multicast address —
    /// crash recovery: the process restarts (typically via
    /// [`GroupKeyServer::recover`]) and the host keeps its network
    /// identity. `directory` re-supplies the user-to-endpoint map the dead
    /// process lost; entries are sorted into admitted members and
    /// still-queued joiners against the recovered state, and anything the
    /// server does not know is ignored.
    pub fn resume<T: Transport>(
        server: GroupKeyServer,
        net: &mut T,
        endpoint: EndpointId,
        group_addr: MulticastAddr,
        directory: impl IntoIterator<Item = (UserId, EndpointId)>,
    ) -> Self {
        let mut members = BTreeMap::new();
        let mut pending_eps = BTreeMap::new();
        for (user, ep) in directory {
            if server.is_member(user) {
                // Idempotent: the routers kept the subscription across
                // the crash, but a rebuilt network would not have.
                net.join_group(group_addr, ep);
                members.insert(user, ep);
            } else if server.has_pending_join(user) {
                pending_eps.insert(user, ep);
            }
        }
        NetServer { inner: server, endpoint, group_addr, members, pending_eps }
    }

    /// The server's network endpoint (clients send requests here).
    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The current user-to-endpoint directory: admitted members plus users
    /// whose join is queued for the next interval. Drivers snapshot this
    /// to re-seed [`NetServer::resume`] after a crash.
    pub fn directory(&self) -> Vec<(UserId, EndpointId)> {
        self.members.iter().chain(self.pending_eps.iter()).map(|(&u, &ep)| (u, ep)).collect()
    }

    /// The all-members multicast address.
    pub fn group_addr(&self) -> MulticastAddr {
        self.group_addr
    }

    /// The wrapped server.
    pub fn inner(&self) -> &GroupKeyServer {
        &self.inner
    }

    /// Mutable access (stats reset between experiment phases).
    pub fn inner_mut(&mut self) -> &mut GroupKeyServer {
        &mut self.inner
    }

    /// Drain the server's inbox, process every request, send responses and
    /// rekey traffic. Returns the processed events in order.
    pub fn poll<T: Transport>(&mut self, net: &mut T) -> Vec<ServerEvent> {
        let mut events = Vec::new();
        while let Some(dg) = net.recv(self.endpoint) {
            let decoded = {
                let _s = self.inner.obs().span("parse");
                ControlMessage::decode(&dg.payload)
            };
            match decoded {
                Ok(ControlMessage::JoinRequest { user }) => {
                    let result = self.inner.handle_join(user);
                    if result.is_ok() {
                        self.pending_eps.insert(user, dg.from);
                    }
                    let deny = ControlMessage::JoinDenied { user };
                    self.answer(net, (user, dg.from), result, deny, &mut events);
                }
                Ok(ControlMessage::LeaveRequest { user, auth }) => {
                    let result = if self.inner.leave_is_authentic(user, &auth) {
                        self.inner.handle_leave(user)
                    } else {
                        Err(RequestError::Tree(TreeError::NotAMember(user)))
                    };
                    let deny = ControlMessage::LeaveDenied { user };
                    self.answer(net, (user, dg.from), result, deny, &mut events);
                }
                Ok(_) => {} // server-to-client messages are ignored if echoed back
                Err(error) => {
                    // Garbage datagram: drop it as a UDP server must, but
                    // surface the typed decode error to the driver.
                    self.inner.obs().event(kg_obs::ObsEvent::BadDatagram {
                        from: dg.from.0 as u64,
                        error: error.to_string(),
                    });
                    events.push(ServerEvent::BadDatagram { from: dg.from, error });
                }
            }
        }
        events
    }

    /// [`Self::poll`], then flush the rekey interval if the server's
    /// schedule says so (never, on a server that rekeys per request) and
    /// deliver it. Drivers call it from their clock loop.
    pub fn tick<T: Transport>(&mut self, net: &mut T, now_ms: u64) -> Vec<ServerEvent> {
        let mut events = self.poll(net);
        let flushed = self.inner.tick(now_ms);
        self.deliver_interval(net, flushed, &mut events);
        events
    }

    /// Graceful shutdown: flush the pending interval via
    /// [`GroupKeyServer::shutdown`] (final snapshot + fsync) and deliver
    /// the closing interval's acks and rekey traffic, so nothing queued is
    /// lost when the process exits. A restart via
    /// [`NetServer::resume`] then recovers with zero WAL replay.
    pub fn shutdown<T: Transport>(&mut self, net: &mut T, now_ms: u64) -> Vec<ServerEvent> {
        let mut events = self.poll(net);
        let flushed = self.inner.shutdown(now_ms);
        self.deliver_interval(net, flushed, &mut events);
        events
    }

    /// [`GroupKeyServer::refresh_group_key`], delivered like an interval
    /// (a failed WAL append surfaces as [`ServerEvent::FlushFailed`]).
    pub fn refresh<T: Transport>(&mut self, net: &mut T) -> Vec<ServerEvent> {
        let mut events = Vec::new();
        let refreshed = self.inner.refresh_group_key().map(Some);
        self.deliver_interval(net, refreshed, &mut events);
        events
    }

    fn deliver_interval<T: Transport>(
        &mut self,
        net: &mut T,
        flushed: Result<Option<ProcessedOp>, RequestError>,
        events: &mut Vec<ServerEvent>,
    ) {
        match flushed {
            Ok(None) => {}
            Ok(Some(op)) => {
                self.deliver(net, &op, events);
                events.push(ServerEvent::Flushed {
                    interval: op.seq + 1,
                    joined: op.grants.len(),
                    left: op.departed.len(),
                });
            }
            // Request-time validation makes tree errors unreachable here,
            // but the write-ahead log can genuinely fail; either way the
            // driver decides, the server does not crash.
            Err(e) => {
                self.inner.obs().event(kg_obs::ObsEvent::FlushFailed { error: e.to_string() });
                events.push(ServerEvent::FlushFailed(e));
            }
        }
    }

    /// Answer `user`'s request from endpoint `from`: deny it, or deliver
    /// what it produced — which is nothing yet when the server queued it for
    /// a later interval.
    fn answer<T: Transport>(
        &mut self,
        net: &mut T,
        (user, from): (UserId, EndpointId),
        result: Result<ProcessedOp, RequestError>,
        deny: ControlMessage,
        events: &mut Vec<ServerEvent>,
    ) {
        match result {
            Err(e) => {
                net.send_unicast(self.endpoint, from, Bytes::from(deny.encode()));
                events.push(ServerEvent::Rejected(user, e));
            }
            Ok(op) => {
                self.deliver(net, &op, events);
                if op.delivery().next().is_none() {
                    events.push(ServerEvent::Queued(user));
                }
            }
        }
    }

    /// Carry out one operation's [`delivery`](ProcessedOp::delivery) —
    /// a request's, an interval's or a refresh's alike. The only place
    /// acks and rekey frames are sent from.
    fn deliver<T: Transport>(
        &mut self,
        net: &mut T,
        op: &ProcessedOp,
        events: &mut Vec<ServerEvent>,
    ) {
        for step in op.delivery() {
            match step {
                Delivery::Evict(user) => {
                    if let Some(ep) = self.members.remove(&user) {
                        net.leave_group(self.group_addr, ep);
                        let ack = ControlMessage::LeaveGranted { user }.encode();
                        net.send_unicast(self.endpoint, ep, Bytes::from(ack));
                    }
                    events.push(ServerEvent::Left(user));
                }
                // A rejoiner's entry is overwritten with its new endpoint.
                Delivery::Admit(grant) => {
                    let Some(ep) = self.pending_eps.remove(&grant.user) else { continue };
                    self.members.insert(grant.user, ep);
                    net.join_group(self.group_addr, ep);
                    let ack = ControlMessage::JoinGranted {
                        user: grant.user,
                        leaf_label: grant.leaf_label,
                        path_labels: grant.path_labels.clone(),
                    }
                    .encode();
                    net.send_unicast(self.endpoint, ep, Bytes::from(ack));
                    events.push(ServerEvent::Joined(grant.clone()));
                }
                Delivery::Frame(to, bytes) => {
                    let _s = self.inner.obs().span("send");
                    let payload = Bytes::copy_from_slice(bytes);
                    if *to == Recipients::Group {
                        net.send_multicast(self.endpoint, self.group_addr, payload);
                    } else {
                        let users = self.inner.tree().resolve(to);
                        let eps: Vec<EndpointId> =
                            users.iter().filter_map(|u| self.members.get(u).copied()).collect();
                        net.send_to_set(self.endpoint, &eps, payload);
                    }
                }
            }
        }
    }
}

/// Compute the leave-request authenticator a member sends: HMAC-MD5 of its
/// user id under its individual key (client side of
/// `{leave-request}_{k_u}`; the server side is
/// [`GroupKeyServer::leave_is_authentic`]).
pub fn leave_authenticator(user: UserId, individual_key: &[u8]) -> Vec<u8> {
    hmac::<Md5>(individual_key, &user.0.to_be_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessControl, ServerConfig};
    use kg_net::{NetConfig, SimNetwork};

    fn setup() -> (SimNetwork, NetServer) {
        let mut net = SimNetwork::new(NetConfig::default());
        let server = GroupKeyServer::new(ServerConfig::default(), AccessControl::AllowAll);
        let ns = NetServer::new(server, &mut net);
        (net, ns)
    }

    fn join(net: &mut SimNetwork, ns: &mut NetServer, user: UserId) -> (EndpointId, JoinGrant) {
        let ep = net.endpoint();
        let req = ControlMessage::JoinRequest { user }.encode();
        net.send_unicast(ep, ns.endpoint(), Bytes::from(req));
        net.run_until_quiet();
        let events = ns.poll(net);
        net.run_until_quiet();
        match events.into_iter().next().expect("one event") {
            ServerEvent::Joined(grant) => (ep, grant),
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn join_over_network_delivers_ack_and_rekeys() {
        let (mut net, mut ns) = setup();
        let (ep1, _) = join(&mut net, &mut ns, UserId(1));
        // Client 1 got: JoinGranted + its unicast rekey packet.
        assert!(net.pending(ep1) >= 2);
        let (ep2, _) = join(&mut net, &mut ns, UserId(2));
        // Client 1 additionally got the group rekey for user 2's join.
        assert!(net.pending(ep1) >= 3);
        assert!(net.pending(ep2) >= 2);
        assert_eq!(ns.inner().group_size(), 2);
    }

    #[test]
    fn leave_with_valid_authenticator() {
        let (mut net, mut ns) = setup();
        let (ep1, grant1) = join(&mut net, &mut ns, UserId(1));
        let (_ep2, _) = join(&mut net, &mut ns, UserId(2));
        let auth = leave_authenticator(UserId(1), grant1.individual_key.material());
        let req = ControlMessage::LeaveRequest { user: UserId(1), auth }.encode();
        net.send_unicast(ep1, ns.endpoint(), Bytes::from(req));
        net.run_until_quiet();
        let events = ns.poll(&mut net);
        assert!(matches!(events[0], ServerEvent::Left(UserId(1))));
        assert_eq!(ns.inner().group_size(), 1);
    }

    #[test]
    fn leave_with_bad_authenticator_denied() {
        let (mut net, mut ns) = setup();
        let (ep1, _) = join(&mut net, &mut ns, UserId(1));
        let req = ControlMessage::LeaveRequest { user: UserId(1), auth: vec![0; 16] }.encode();
        net.send_unicast(ep1, ns.endpoint(), Bytes::from(req));
        net.run_until_quiet();
        let events = ns.poll(&mut net);
        assert!(matches!(events[0], ServerEvent::Rejected(UserId(1), _)));
        assert_eq!(ns.inner().group_size(), 1, "member not evicted");
    }

    #[test]
    fn garbage_datagrams_surface_typed_error_and_are_dropped() {
        let (mut net, mut ns) = setup();
        let ep = net.endpoint();
        net.send_unicast(ep, ns.endpoint(), Bytes::from_static(b"\xff\xff\xff"));
        net.run_until_quiet();
        let events = ns.poll(&mut net);
        assert_eq!(events.len(), 1);
        assert!(
            matches!(events[0], ServerEvent::BadDatagram { from, .. } if from == ep),
            "got {events:?}"
        );
        assert_eq!(ns.inner().group_size(), 0, "server state untouched");
    }

    fn batched_setup(interval_ms: u64, max_pending: usize) -> (SimNetwork, NetServer) {
        let mut net = SimNetwork::new(NetConfig::default());
        let config = ServerConfig {
            rekey: crate::RekeyPolicy::Batched { interval_ms, max_pending },
            ..ServerConfig::default()
        };
        let server = GroupKeyServer::new(config, AccessControl::AllowAll);
        let ns = NetServer::new(server, &mut net);
        (net, ns)
    }

    #[test]
    fn batched_join_queues_then_flushes_at_interval() {
        let (mut net, mut ns) = batched_setup(100, 1000);
        let ep1 = net.endpoint();
        let ep2 = net.endpoint();
        for (ep, u) in [(ep1, 1u64), (ep2, 2)] {
            let req = ControlMessage::JoinRequest { user: UserId(u) }.encode();
            net.send_unicast(ep, ns.endpoint(), Bytes::from(req));
        }
        net.run_until_quiet();
        // Before the interval elapses the requests are only queued.
        let events = ns.tick(&mut net, 50);
        assert_eq!(events, vec![ServerEvent::Queued(UserId(1)), ServerEvent::Queued(UserId(2))]);
        assert_eq!(ns.inner().group_size(), 0);
        assert_eq!(ns.inner().pending_requests(), 2);
        net.run_until_quiet();
        assert_eq!(net.pending(ep1), 0, "no ack before the flush");

        // At the interval boundary the batch flushes: members admitted,
        // acks + rekey traffic delivered.
        let events = ns.tick(&mut net, 100);
        assert_eq!(events.iter().filter(|e| matches!(e, ServerEvent::Joined(_))).count(), 2);
        assert!(events
            .iter()
            .any(|e| matches!(e, ServerEvent::Flushed { interval: 1, joined: 2, left: 0 })));
        assert_eq!(ns.inner().group_size(), 2);
        net.run_until_quiet();
        // Each joiner received a JoinGranted ack plus at least its unicast
        // path packet.
        assert!(net.pending(ep1) >= 2);
        assert!(net.pending(ep2) >= 2);
    }

    #[test]
    fn batched_queue_depth_flushes_without_tick_deadline() {
        let (mut net, mut ns) = batched_setup(1_000_000, 3);
        let eps: Vec<EndpointId> = (0..3u64)
            .map(|u| {
                let ep = net.endpoint();
                let req = ControlMessage::JoinRequest { user: UserId(u) }.encode();
                net.send_unicast(ep, ns.endpoint(), Bytes::from(req));
                ep
            })
            .collect();
        net.run_until_quiet();
        // now_ms is far before the deadline; depth (3 >= max_pending)
        // forces the flush.
        let events = ns.tick(&mut net, 1);
        assert!(events
            .iter()
            .any(|e| matches!(e, ServerEvent::Flushed { interval: 1, joined: 3, left: 0 })));
        assert_eq!(ns.inner().group_size(), 3);
        net.run_until_quiet();
        for ep in eps {
            assert!(net.pending(ep) >= 1);
        }
    }

    /// A refresh through the networked server reaches every member: each
    /// one's endpoint gets a frame that opens, under the old group key it
    /// holds, to the server's new group key, under every strategy.
    #[test]
    fn refresh_delivers_the_new_group_key_to_every_member() {
        for strategy in kg_core::rekey::Strategy::EVERY {
            let mut net = SimNetwork::new(NetConfig::default());
            let config = ServerConfig { strategy, ..ServerConfig::default() };
            let server = GroupKeyServer::new(config, AccessControl::AllowAll);
            let mut ns = NetServer::new(server, &mut net);
            let eps: Vec<EndpointId> =
                (0..6).map(|u| join(&mut net, &mut ns, UserId(u)).0).collect();
            for &ep in &eps {
                while net.recv(ep).is_some() {}
            }
            let (_, old_key) = ns.inner().tree().group_key();
            let events = ns.refresh(&mut net);
            assert!(matches!(events[..], [ServerEvent::Flushed { joined: 0, left: 0, .. }]));
            net.run_until_quiet();
            let (new_ref, new_key) = ns.inner().tree().group_key();
            let cipher = ns.inner().config().cipher;
            for &ep in &eps {
                let dg = net.recv(ep).expect("the refresh reached the member");
                let (packet, _) = kg_wire::RekeyPacket::decode(&dg.payload).unwrap();
                assert_eq!(packet.op, kg_wire::OpKind::Refresh);
                let opened = match packet.bundles.first() {
                    Some(b) => {
                        let nonce = kg_core::rekey::bundle_nonce(
                            packet.interval,
                            b.targets.iter().copied(),
                        );
                        cipher.open(&old_key, &nonce, &b.ciphertext).unwrap()
                    }
                    None => {
                        let (label, version) = (new_ref.label, new_ref.version);
                        let derived = kg_core::derive::derive_key(
                            &old_key,
                            &packet.code,
                            label,
                            version,
                            old_key.len(),
                        );
                        derived.material().to_vec()
                    }
                };
                assert_eq!(opened, new_key.material(), "{strategy:?}");
                assert!(net.recv(ep).is_none(), "{strategy:?}: one frame per member");
            }
        }
    }

    #[test]
    fn denied_join_gets_deny_message() {
        let mut net = SimNetwork::new(NetConfig::default());
        let server =
            GroupKeyServer::new(ServerConfig::default(), AccessControl::allow_list([UserId(42)]));
        let mut ns = NetServer::new(server, &mut net);
        let ep = net.endpoint();
        let req = ControlMessage::JoinRequest { user: UserId(7) }.encode();
        net.send_unicast(ep, ns.endpoint(), Bytes::from(req));
        net.run_until_quiet();
        let events = ns.poll(&mut net);
        assert!(matches!(events[0], ServerEvent::Rejected(UserId(7), _)));
        net.run_until_quiet();
        let dg = net.recv(ep).unwrap();
        assert!(matches!(
            ControlMessage::decode(&dg.payload),
            Ok(ControlMessage::JoinDenied { user: UserId(7) })
        ));
    }
}
