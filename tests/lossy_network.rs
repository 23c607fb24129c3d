//! Failure injection: rekeying over a lossy network, carried by the
//! reliable delivery layer the paper assumes.
//!
//! §3: "A reliable message delivery system, for both unicast and
//! multicast, is assumed." Here we *earn* that assumption: the server's
//! rekey packets cross a network that drops 30–50% of datagrams and
//! duplicates others, the [`ReliableMailbox`] layer retransmits until
//! acked, and every client still converges on the correct keyset.

use bytes::Bytes;
use keygraphs::client::{Client, VerifyPolicy};
use keygraphs::core::ids::UserId;
use keygraphs::core::rekey::KeyCipher;
use keygraphs::core::rekey::Strategy;
use keygraphs::net::reliable::{ReliableMailbox, RTO_US};
use keygraphs::net::{NetConfig, SimNetwork};
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use std::collections::BTreeMap;

struct ReliableWorld {
    net: SimNetwork,
    server: GroupKeyServer,
    server_mb: ReliableMailbox,
    clients: BTreeMap<UserId, (Client, ReliableMailbox)>,
}

impl ReliableWorld {
    fn new(loss: f64, seed: u64, strategy: Strategy) -> Self {
        let mut net = SimNetwork::new(NetConfig {
            loss_probability: loss,
            duplicate_probability: 0.1,
            seed,
            ..NetConfig::default()
        });
        let server_ep = net.endpoint();
        let config =
            ServerConfig { strategy, auth: AuthPolicy::Digest, seed, ..ServerConfig::default() };
        ReliableWorld {
            net,
            server: GroupKeyServer::new(config, AccessControl::AllowAll),
            server_mb: ReliableMailbox::new(server_ep),
            clients: BTreeMap::new(),
        }
    }

    fn join(&mut self, u: UserId) {
        let op = self.server.handle_join(u).unwrap();
        let grant = op.grants[0].clone();
        let ep = self.net.endpoint();
        let mut c = Client::new(u, KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
        c.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
        self.clients.insert(u, (c, ReliableMailbox::new(ep)));
        self.broadcast(&op.encoded);
    }

    fn leave(&mut self, u: UserId) -> Client {
        let op = self.server.handle_leave(u).unwrap();
        let (ghost, mb) = self.clients.remove(&u).unwrap();
        self.net.close(mb.endpoint());
        self.broadcast(&op.encoded);
        ghost
    }

    /// Reliably send every rekey packet to every current client
    /// (over-delivery is harmless; clients skip foreign bundles).
    fn broadcast(&mut self, encoded: &[Vec<u8>]) {
        let targets: Vec<_> = self.clients.values().map(|(_, mb)| mb.endpoint()).collect();
        if targets.is_empty() {
            return;
        }
        for bytes in encoded {
            self.server_mb.send(&mut self.net, &targets, Bytes::copy_from_slice(bytes));
        }
        self.pump();
    }

    fn pump(&mut self) {
        for _ in 0..200 {
            self.net.advance(RTO_US);
            self.server_mb.poll(&mut self.net);
            for (c, mb) in self.clients.values_mut() {
                mb.poll(&mut self.net);
                while let Some((_, payload)) = mb.recv() {
                    c.apply(&payload).unwrap();
                }
            }
            if self.server_mb.unacked() == 0 && self.net.pending_total() == 0 {
                break;
            }
        }
        assert_eq!(self.server_mb.unacked(), 0, "reliable layer failed to converge");
        assert!(self.server_mb.failed().is_empty());
    }

    fn assert_converged(&self) {
        let (gk_ref, gk) = self.server.tree().group_key();
        for (u, (c, _)) in &self.clients {
            let (r, k) = c.group_key().unwrap_or_else(|| panic!("{u} has no group key"));
            assert_eq!(r, gk_ref, "{u}");
            assert_eq!(k, gk, "{u}");
        }
    }
}

#[test]
fn converges_at_30_percent_loss() {
    let mut w = ReliableWorld::new(0.3, 1, Strategy::GroupOriented);
    for i in 0..12u64 {
        w.join(UserId(i));
        w.assert_converged();
    }
    for i in [3u64, 7, 9] {
        w.leave(UserId(i));
        w.assert_converged();
    }
    assert_eq!(w.server.group_size(), 9);
}

#[test]
fn converges_at_50_percent_loss_key_oriented() {
    let mut w = ReliableWorld::new(0.5, 2, Strategy::KeyOriented);
    for i in 0..8u64 {
        w.join(UserId(i));
    }
    w.assert_converged();
    for i in 0..4u64 {
        w.leave(UserId(i));
        w.assert_converged();
    }
}

#[test]
fn duplicates_do_not_corrupt_state() {
    // 100% duplication: every datagram delivered twice; dedup at the
    // reliable layer keeps key state exactly-once.
    let mut net = SimNetwork::new(NetConfig { duplicate_probability: 1.0, ..NetConfig::default() });
    let server_ep = net.endpoint();
    let client_ep = net.endpoint();
    let mut server_mb = ReliableMailbox::new(server_ep);
    let mut client_mb = ReliableMailbox::new(client_ep);

    let config = ServerConfig::default();
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    let op = server.handle_join(UserId(1)).unwrap();
    let grant = op.grants[0].clone();
    let mut client = Client::new(UserId(1), KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
    client.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);

    for bytes in &op.encoded {
        server_mb.send(&mut net, &[client_ep], Bytes::copy_from_slice(bytes));
    }
    let mut processed = 0;
    for _ in 0..20 {
        net.advance(RTO_US);
        server_mb.poll(&mut net);
        client_mb.poll(&mut net);
        while let Some((_, payload)) = client_mb.recv() {
            client.apply(&payload).unwrap();
            processed += 1;
        }
        if server_mb.unacked() == 0 {
            break;
        }
    }
    assert_eq!(processed, op.encoded.len(), "each packet processed exactly once");
    let (_, gk) = server.tree().group_key();
    assert_eq!(client.group_key().unwrap().1, gk);
}

/// Satellite check: the fault counters and timeline events the
/// simulated network reports through `kg-obs` must reconcile with the
/// network's own per-endpoint traffic accounting, and the timeline must
/// be stamped in deterministic virtual time.
#[test]
fn obs_counters_reconcile_with_network_accounting() {
    use keygraphs::obs::{ManualClock, Obs, ObsConfig};

    let clock = ManualClock::new();
    let obs = Obs::new(ObsConfig::manual(clock.clone()));
    let mut net = SimNetwork::new(NetConfig {
        loss_probability: 0.4,
        duplicate_probability: 0.2,
        seed: 11,
        ..NetConfig::default()
    });
    net.attach_obs(obs.clone());
    net.drive_obs_clock(clock.clone());
    let a = net.endpoint();
    let b = net.endpoint();
    let mut mb_a = ReliableMailbox::new(a);
    mb_a.attach_obs(obs.clone());
    let mut mb_b = ReliableMailbox::new(b);

    for i in 0..40u8 {
        mb_a.send(&mut net, &[b], Bytes::copy_from_slice(&[i]));
    }
    for _ in 0..200 {
        net.advance(RTO_US);
        mb_a.poll(&mut net);
        mb_b.poll(&mut net);
        while mb_b.recv().is_some() {}
        if mb_a.unacked() == 0 && net.pending_total() == 0 {
            break;
        }
    }
    assert_eq!(mb_a.unacked(), 0, "reliable layer failed to converge");

    // Every datagram the endpoints saw arrive is on the delivered
    // counter; nothing else is.
    let delivered = obs.counter("kg_net_delivered_total").get();
    assert_eq!(
        delivered,
        net.stats(a).datagrams_received + net.stats(b).datagrams_received,
        "delivered counter vs per-endpoint traffic stats"
    );

    // At 40% loss the fault counters must have fired, and each fault
    // counter increment must have a matching timeline event (cumulative
    // kind counts survive ring eviction, so this holds at any capacity).
    let dropped = obs.counter_with("kg_net_dropped_total", "mode", "loss").get()
        + obs.counter_with("kg_net_dropped_total", "mode", "down").get()
        + obs.counter_with("kg_net_dropped_total", "mode", "closed").get();
    let duplicated = obs.counter("kg_net_duplicated_total").get();
    let retransmits = obs.counter("kg_net_retransmits_total").get();
    assert!(dropped > 0, "40% loss produced no drops?");
    assert!(duplicated > 0, "20% duplication produced no duplicates?");
    assert!(retransmits > 0, "drops without retransmits?");

    let kinds = obs.event_kind_counts();
    assert_eq!(kinds.get("packet_dropped").copied().unwrap_or(0), dropped);
    assert_eq!(kinds.get("packet_duplicated").copied().unwrap_or(0), duplicated);
    assert_eq!(kinds.get("retransmit").copied().unwrap_or(0), retransmits);

    // Crash/restart fault injection lands on the timeline too.
    net.crash(b);
    net.restart(b);
    let kinds = obs.event_kind_counts();
    assert_eq!(kinds.get("crash").copied().unwrap_or(0), 1);
    assert_eq!(kinds.get("restart").copied().unwrap_or(0), 1);

    // Timeline timestamps are virtual-network microseconds, not wall
    // time: the last event cannot postdate the network clock, and the
    // obs clock tracks it exactly.
    assert_eq!(obs.now_us(), net.now_us());
    let tl = obs.timeline();
    assert!(!tl.is_empty());
    assert!(tl.last().unwrap().at_us <= net.now_us());
    assert!(tl.windows(2).all(|w| w[0].at_us <= w[1].at_us), "timeline causally ordered");
}

#[test]
fn ghost_still_locked_out_despite_loss() {
    let mut w = ReliableWorld::new(0.4, 3, Strategy::GroupOriented);
    for i in 0..10u64 {
        w.join(UserId(i));
    }
    let ghost = w.leave(UserId(4));
    w.assert_converged();
    let (_, gk) = w.server.tree().group_key();
    for (_, k) in ghost.keyset() {
        assert_ne!(k, gk);
    }
}
