//! A fleet of networked clients — the paper's "client-simulator".
//!
//! §5: "A client-simulator runs on the other SGI simulating a large number
//! of clients. Actual rekey messages, as well as join, join-ack, leave,
//! leave-ack messages, are sent between individual clients and the server."
//! [`ClientFleet`] is that simulator: it owns one endpoint + [`Client`]
//! state machine per member, issues join/leave requests, applies the
//! out-of-band join grants (the authentication exchange), and pumps every
//! inbox, processing rekey packets as they arrive.

use crate::{Client, ClientError, ProcessSummary, VerifyPolicy};
use bytes::Bytes;
use kg_core::ids::{KeyLabel, UserId};
use kg_core::rekey::KeyCipher;
use kg_crypto::hmac::hmac;
use kg_crypto::md5::Md5;
use kg_crypto::SymmetricKey;
use kg_net::{EndpointId, Transport};
use kg_wire::{ControlMessage, RekeyPacket};
use std::collections::BTreeMap;

/// Events a fleet observes while pumping inboxes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    /// The server granted this member's join (ack received).
    JoinAcked(UserId),
    /// The server denied a join.
    JoinDenied(UserId),
    /// The server granted a leave.
    LeaveAcked(UserId),
    /// The server denied a leave.
    LeaveDenied(UserId),
    /// A rekey packet was processed.
    Rekeyed(UserId, ProcessSummary),
    /// A rekey packet failed to process.
    RekeyFailed(UserId, ClientError),
}

struct Member {
    client: Client,
    endpoint: EndpointId,
}

/// The client-simulator.
pub struct ClientFleet {
    cipher: KeyCipher,
    verify: VerifyPolicy,
    members: BTreeMap<UserId, Member>,
    obs: kg_obs::Obs,
}

impl ClientFleet {
    /// Create an empty fleet whose clients use `cipher` and `verify`.
    pub fn new(cipher: KeyCipher, verify: VerifyPolicy) -> Self {
        ClientFleet { cipher, verify, members: BTreeMap::new(), obs: kg_obs::Obs::disabled() }
    }

    /// Attach an observability handle to the fleet: every current and
    /// future member records into the shared `kg_client_*` metrics (see
    /// [`Client::attach_obs`]).
    pub fn attach_obs(&mut self, obs: kg_obs::Obs) {
        for m in self.members.values_mut() {
            m.client.attach_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Number of members being simulated.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Access a member's client state.
    pub fn client(&self, user: UserId) -> Option<&Client> {
        self.members.get(&user).map(|m| &m.client)
    }

    /// Iterate over member clients.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.members.values().map(|m| &m.client)
    }

    /// A member's network endpoint.
    pub fn endpoint(&self, user: UserId) -> Option<EndpointId> {
        self.members.get(&user).map(|m| m.endpoint)
    }

    /// Create the member's endpoint and send its join request.
    pub fn send_join_request<T: Transport>(
        &mut self,
        net: &mut T,
        server: EndpointId,
        user: UserId,
    ) -> EndpointId {
        let endpoint = net.endpoint();
        let mut client = Client::new(user, self.cipher, self.verify.clone());
        client.attach_obs(self.obs.clone());
        self.members.insert(user, Member { client, endpoint });
        let req = ControlMessage::JoinRequest { user }.encode();
        net.send_unicast(endpoint, server, Bytes::from(req));
        endpoint
    }

    /// Apply a join grant (the individual key arrives via the simulated
    /// authentication exchange, not the datagram network).
    pub fn apply_grant(
        &mut self,
        user: UserId,
        individual_key: SymmetricKey,
        leaf_label: KeyLabel,
        path_labels: &[KeyLabel],
    ) {
        if let Some(m) = self.members.get_mut(&user) {
            m.client.install_grant(individual_key, leaf_label, path_labels);
        }
    }

    /// Send a leave request authenticated under the member's individual
    /// key (`{leave-request}_{k_u}`).
    pub fn send_leave_request<T: Transport>(
        &mut self,
        net: &mut T,
        server: EndpointId,
        user: UserId,
    ) {
        let Some(m) = self.members.get(&user) else { return };
        let Some(ik) = m.client.individual_key() else { return };
        let auth = hmac::<Md5>(ik.material(), &user.0.to_be_bytes());
        let req = ControlMessage::LeaveRequest { user, auth }.encode();
        net.send_unicast(m.endpoint, server, Bytes::from(req));
    }

    /// Drop a departed member and close its endpoint.
    pub fn remove<T: Transport>(&mut self, net: &mut T, user: UserId) -> Option<Client> {
        let m = self.members.remove(&user)?;
        net.close(m.endpoint);
        Some(m.client)
    }

    /// Drain every member's inbox, processing control acks and rekey
    /// packets. Returns the observed events.
    pub fn pump<T: Transport>(&mut self, net: &mut T) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        for (&user, m) in self.members.iter_mut() {
            while let Some(dg) = net.recv(m.endpoint) {
                // The first byte says which plane a datagram belongs to:
                // the rekey magic, or a control tag.
                if RekeyPacket::sniff(&dg.payload) {
                    events.push(match m.client.apply(&dg.payload) {
                        Ok(s) => FleetEvent::Rekeyed(user, s),
                        Err(e) => FleetEvent::RekeyFailed(user, e),
                    });
                    continue;
                }
                match ControlMessage::decode(&dg.payload) {
                    Ok(ControlMessage::JoinGranted { user: u, .. }) => {
                        events.push(FleetEvent::JoinAcked(u))
                    }
                    Ok(ControlMessage::JoinDenied { user: u }) => {
                        events.push(FleetEvent::JoinDenied(u))
                    }
                    Ok(ControlMessage::LeaveGranted { user: u }) => {
                        events.push(FleetEvent::LeaveAcked(u))
                    }
                    Ok(ControlMessage::LeaveDenied { user: u }) => {
                        events.push(FleetEvent::LeaveDenied(u))
                    }
                    // Requests echoed back and undecodable strays are
                    // dropped, as a UDP client must.
                    Ok(_) | Err(_) => {}
                }
            }
        }
        events
    }

    /// Check that every member agrees on one group key; returns it.
    /// `None` if the fleet is empty or members disagree (a protocol bug or
    /// in-flight rekey).
    pub fn group_key_consensus(&self) -> Option<SymmetricKey> {
        let mut iter = self.members.values();
        let first = iter.next()?.client.group_key()?.1;
        for m in iter {
            if m.client.group_key()?.1 != first {
                return None;
            }
        }
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_net::{NetConfig, SimNetwork};
    use kg_server::net::{NetServer, ServerEvent};
    use kg_server::{AccessControl, GroupKeyServer, ServerConfig};

    /// Full end-to-end pump: fleet requests → server poll → grants → fleet
    /// pump, until quiescent.
    fn settle(
        net: &mut SimNetwork,
        ns: &mut NetServer,
        fleet: &mut ClientFleet,
    ) -> Vec<FleetEvent> {
        let mut all = Vec::new();
        for _ in 0..10 {
            net.run_until_quiet();
            let server_events = ns.poll(net);
            for ev in server_events {
                if let ServerEvent::Joined(grant) = ev {
                    fleet.apply_grant(
                        grant.user,
                        grant.individual_key.clone(),
                        grant.leaf_label,
                        &grant.path_labels,
                    );
                }
            }
            net.run_until_quiet();
            let evs = fleet.pump(net);
            let quiet = evs.is_empty() && net.pending_total() == 0;
            all.extend(evs);
            if quiet {
                break;
            }
        }
        all
    }

    #[test]
    fn end_to_end_joins_and_leaves() {
        let mut net = SimNetwork::new(NetConfig::default());
        let server = GroupKeyServer::new(ServerConfig::default(), AccessControl::AllowAll);
        let mut ns = NetServer::new(server, &mut net);
        let mut fleet = ClientFleet::new(KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);

        for i in 0..12 {
            fleet.send_join_request(&mut net, ns.endpoint(), UserId(i));
            settle(&mut net, &mut ns, &mut fleet);
        }
        assert_eq!(ns.inner().group_size(), 12);
        let (_, server_gk) = ns.inner().tree().group_key();
        assert_eq!(fleet.group_key_consensus().unwrap(), server_gk);

        // Three members leave.
        for i in [2u64, 7, 11] {
            fleet.send_leave_request(&mut net, ns.endpoint(), UserId(i));
            settle(&mut net, &mut ns, &mut fleet);
            fleet.remove(&mut net, UserId(i));
        }
        assert_eq!(ns.inner().group_size(), 9);
        let (_, server_gk) = ns.inner().tree().group_key();
        assert_eq!(fleet.group_key_consensus().unwrap(), server_gk);
    }

    #[test]
    fn interleaved_churn_keeps_consensus() {
        let mut net = SimNetwork::new(NetConfig::default());
        let server = GroupKeyServer::new(ServerConfig::default(), AccessControl::AllowAll);
        let mut ns = NetServer::new(server, &mut net);
        let mut fleet = ClientFleet::new(KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);

        let mut present: Vec<u64> = Vec::new();
        for step in 0..60u64 {
            if step % 3 == 2 && present.len() > 1 {
                let u = present.remove((step as usize * 13) % present.len());
                fleet.send_leave_request(&mut net, ns.endpoint(), UserId(u));
                settle(&mut net, &mut ns, &mut fleet);
                fleet.remove(&mut net, UserId(u));
            } else {
                fleet.send_join_request(&mut net, ns.endpoint(), UserId(step));
                settle(&mut net, &mut ns, &mut fleet);
                present.push(step);
            }
            let (_, server_gk) = ns.inner().tree().group_key();
            assert_eq!(
                fleet.group_key_consensus().unwrap(),
                server_gk,
                "divergence at step {step}"
            );
        }
    }

    /// Batched-mode analogue of `settle`: requests queue server-side and
    /// only take effect when the clock reaches a rekey interval.
    fn tick_settle(
        net: &mut SimNetwork,
        ns: &mut NetServer,
        fleet: &mut ClientFleet,
        now_ms: u64,
    ) -> Vec<FleetEvent> {
        let mut all = Vec::new();
        for _ in 0..10 {
            net.run_until_quiet();
            let server_events = ns.tick(net, now_ms);
            for ev in server_events {
                if let ServerEvent::Joined(grant) = ev {
                    fleet.apply_grant(
                        grant.user,
                        grant.individual_key.clone(),
                        grant.leaf_label,
                        &grant.path_labels,
                    );
                }
            }
            net.run_until_quiet();
            let evs = fleet.pump(net);
            let quiet = evs.is_empty() && net.pending_total() == 0;
            all.extend(evs);
            if quiet {
                break;
            }
        }
        all
    }

    #[test]
    fn batched_churn_converges_at_each_interval() {
        let mut net = SimNetwork::new(NetConfig::default());
        let config = ServerConfig {
            rekey: kg_server::RekeyPolicy::Batched { interval_ms: 100, max_pending: 1000 },
            ..ServerConfig::default()
        };
        let server = GroupKeyServer::new(config, AccessControl::AllowAll);
        let mut ns = NetServer::new(server, &mut net);
        let mut fleet = ClientFleet::new(KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);

        // Interval 1: twelve joins accumulate, nothing happens mid-interval.
        for i in 0..12 {
            fleet.send_join_request(&mut net, ns.endpoint(), UserId(i));
        }
        net.run_until_quiet();
        ns.tick(&mut net, 50);
        assert_eq!(ns.inner().group_size(), 0);
        assert_eq!(ns.inner().pending_requests(), 12);
        let evs = tick_settle(&mut net, &mut ns, &mut fleet, 100);
        assert!(evs.iter().any(|e| matches!(e, FleetEvent::JoinAcked(_))));
        assert_eq!(ns.inner().group_size(), 12);
        let (_, server_gk) = ns.inner().tree().group_key();
        assert_eq!(fleet.group_key_consensus().unwrap(), server_gk);

        // Interval 2: mixed churn — three leaves and two joins collapse
        // into one flush.
        for u in [2u64, 7, 11] {
            fleet.send_leave_request(&mut net, ns.endpoint(), UserId(u));
        }
        for u in [20u64, 21] {
            fleet.send_join_request(&mut net, ns.endpoint(), UserId(u));
        }
        let evs = tick_settle(&mut net, &mut ns, &mut fleet, 200);
        for u in [2u64, 7, 11] {
            assert!(evs.contains(&FleetEvent::LeaveAcked(UserId(u))));
            fleet.remove(&mut net, UserId(u));
        }
        assert_eq!(ns.inner().group_size(), 11);
        let (_, server_gk) = ns.inner().tree().group_key();
        assert_eq!(fleet.group_key_consensus().unwrap(), server_gk);
        for c in fleet.clients() {
            assert_eq!(c.last_interval(), 2, "user {:?}", c.user());
        }

        // Departed members never learned the post-eviction group key.
        for u in [2u64, 7, 11] {
            assert!(fleet.client(UserId(u)).is_none());
        }
    }

    #[test]
    fn fleet_accessors() {
        let mut net = SimNetwork::new(NetConfig::default());
        let mut fleet = ClientFleet::new(KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
        assert!(fleet.is_empty());
        let server_ep = net.endpoint();
        let ep = fleet.send_join_request(&mut net, server_ep, UserId(3));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.endpoint(UserId(3)), Some(ep));
        assert!(fleet.client(UserId(3)).is_some());
        assert!(fleet.client(UserId(9)).is_none());
        assert!(fleet.remove(&mut net, UserId(3)).is_some());
        assert!(fleet.is_empty());
    }
}
