//! Duplication and reordering through the real front-end: `NetServer` and
//! a `ClientFleet` over a simulated network that duplicates one datagram
//! copy in five and delivers each copy after 50–500 µs of jitter, so
//! copies overtake each other and a late duplicate can land after the
//! next request's rekey.
//!
//! The paper assumes reliable delivery (§3) and names no defence against
//! duplicates; the client's interval check is ours. After every request
//! settles, each member must hold exactly its path in the key graph — the
//! paper's §2 definition, `KeyTree::to_key_graph().keyset(u)` — with the
//! server's key versions and values. A late duplicate is refused as a
//! `StaleInterval` and changes nothing; those refusals are counted. And a
//! departed member that replays every packet it could have wiretapped
//! reaches no key a live member holds.

use bytes::Bytes;
use keygraphs::client::fleet::{ClientFleet, FleetEvent};
use keygraphs::client::{Client, ClientError, VerifyPolicy};
use keygraphs::core::ids::{KeyRef, UserId};
use keygraphs::core::rekey::Strategy;
use keygraphs::crypto::SymmetricKey;
use keygraphs::net::{Datagram, EndpointId, MulticastAddr, NetConfig, SimNetwork, Transport};
use keygraphs::server::net::{NetServer, ServerEvent};
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use keygraphs::wire::RekeyPacket;
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: [u64; 6] = [5, 29, 101, 202, 303, 404];

/// Virtual time each step of the request loop lets pass.
const STEP_US: u64 = 25;

/// A simulated network with a wiretap on every rekey datagram sent.
struct Tapped {
    net: SimNetwork,
    tap: Vec<Bytes>,
}

impl Tapped {
    fn record(&mut self, payload: &Bytes) {
        if RekeyPacket::sniff(payload) {
            self.tap.push(payload.clone());
        }
    }
}

impl Transport for Tapped {
    fn endpoint(&mut self) -> EndpointId {
        self.net.endpoint()
    }
    fn close(&mut self, ep: EndpointId) {
        self.net.close(ep)
    }
    fn multicast_group(&mut self) -> MulticastAddr {
        self.net.multicast_group()
    }
    fn join_group(&mut self, group: MulticastAddr, ep: EndpointId) {
        self.net.join_group(group, ep)
    }
    fn leave_group(&mut self, group: MulticastAddr, ep: EndpointId) {
        self.net.leave_group(group, ep)
    }
    fn send_unicast(&mut self, from: EndpointId, to: EndpointId, payload: Bytes) {
        self.record(&payload);
        self.net.send_unicast(from, to, payload)
    }
    fn send_multicast(&mut self, from: EndpointId, group: MulticastAddr, payload: Bytes) {
        self.record(&payload);
        self.net.send_multicast(from, group, payload)
    }
    fn send_to_set(&mut self, from: EndpointId, targets: &[EndpointId], payload: Bytes) {
        self.record(&payload);
        self.net.send_to_set(from, targets, payload)
    }
    fn recv(&mut self, ep: EndpointId) -> Option<Datagram> {
        self.net.recv(ep)
    }
    fn now_us(&self) -> u64 {
        self.net.now_us()
    }
}

/// A keyset keyed by reference, for order-free comparison.
fn by_ref(keys: Vec<(KeyRef, SymmetricKey)>) -> BTreeMap<KeyRef, Vec<u8>> {
    keys.into_iter().map(|(r, k)| (r, k.material().to_vec())).collect()
}

struct World {
    net: Tapped,
    server: NetServer,
    fleet: ClientFleet,
    departed: Vec<Client>,
    /// Late duplicates refused as stale.
    stale: u64,
    /// Members holding a pruned k-node's key, at the last check.
    lingering: u64,
}

impl World {
    fn new(strategy: Strategy, batched: bool, seed: u64) -> Self {
        let mut net = Tapped {
            net: SimNetwork::new(NetConfig {
                latency_min_us: 50,
                latency_max_us: 500,
                loss_probability: 0.0,
                duplicate_probability: 0.2,
                seed,
            }),
            tap: Vec::new(),
        };
        let mut config = ServerConfig::builder().strategy(strategy).auth(AuthPolicy::SignBatch);
        if batched {
            config = config.batched(1, 64);
        }
        let server =
            GroupKeyServer::new(config.build().expect("valid config"), AccessControl::AllowAll);
        let verify = VerifyPolicy::RequireSignature {
            alg: server.config().digest,
            key: server.public_key().expect("signing server").clone(),
        };
        let fleet = ClientFleet::new(server.config().cipher, verify);
        let server = NetServer::new(server, &mut net);
        World { net, server, fleet, departed: Vec::new(), stale: 0, lingering: 0 }
    }

    /// Whether every member holds its path in the key graph — each label
    /// of `KeyGraph::keyset(u)` at the server's version with the server's
    /// key — and no other live label.
    ///
    /// A member also keeps the key of a k-node that a leave pruned from
    /// its path: no packet names the pruned node, so the member cannot
    /// know. Labels are never reused, so such a key is dead; the members
    /// holding one are counted in `lingering`, not failed.
    fn consistent(&mut self) -> bool {
        let tree = self.server.inner().tree();
        let graph = tree.to_key_graph();
        let live: BTreeSet<_> = graph.keys().collect();
        let mut lingering = 0;
        let all = self.fleet.clients().all(|c| {
            let mut held = by_ref(c.keyset());
            let dead = held.len();
            held.retain(|r, _| live.contains(&r.label));
            lingering += u64::from(held.len() < dead);
            held.keys().map(|r| r.label).collect::<BTreeSet<_>>() == graph.keyset(c.user())
                && tree.keyset(c.user()).map(by_ref) == Some(held)
        });
        self.lingering = lingering;
        all
    }

    /// Send `user`'s request and step the network until it is acked and
    /// every member is consistent again; stragglers stay in flight.
    fn request(&mut self, user: UserId, join: bool) {
        let to = self.server.endpoint();
        if join {
            self.fleet.send_join_request(&mut self.net, to, user);
        } else {
            self.fleet.send_leave_request(&mut self.net, to, user);
        }
        let mut acked = false;
        for _ in 0..2_000 {
            self.net.net.advance(STEP_US);
            let now_ms = self.net.now_us() / 1_000;
            for ev in self.server.tick(&mut self.net, now_ms) {
                if let ServerEvent::Joined(g) = ev {
                    self.fleet.apply_grant(g.user, g.individual_key, g.leaf_label, &g.path_labels);
                }
            }
            for ev in self.fleet.pump(&mut self.net) {
                match ev {
                    // A late duplicate of an earlier ack is not this one.
                    FleetEvent::JoinAcked(u) if u == user && join => acked = true,
                    FleetEvent::LeaveAcked(u) if u == user && !join => acked = true,
                    FleetEvent::RekeyFailed(_, ClientError::StaleInterval { .. }) => {
                        self.stale += 1
                    }
                    FleetEvent::RekeyFailed(u, e) => panic!("{u:?} failed a rekey: {e}"),
                    _ => {}
                }
            }
            if acked && !join && self.fleet.client(user).is_some() {
                let ghost = self.fleet.remove(&mut self.net, user).expect("departing member");
                self.departed.push(ghost);
            }
            if acked && self.consistent() {
                return;
            }
        }
        panic!("{user:?}'s {} never settled", if join { "join" } else { "leave" });
    }

    /// Departed members the server counts as members again.
    fn departed_members(&self) -> usize {
        self.departed.iter().filter(|g| self.server.inner().is_member(g.user())).count()
    }

    /// Replay every wiretapped packet to every departed member, one at a
    /// time and all in order: none may reach a key the tree now holds.
    fn assert_departed_learn_nothing(&self) {
        let tree = self.server.inner().tree();
        let live: BTreeSet<Vec<u8>> = tree
            .to_key_graph()
            .users()
            .flat_map(|u| tree.keyset(u).unwrap_or_default())
            .map(|(_, k)| k.material().to_vec())
            .collect();
        for ghost in &self.departed {
            let mut in_order = ghost.clone();
            for bytes in &self.net.tap {
                let _ = in_order.apply(bytes);
                let mut alone = ghost.clone();
                let _ = alone.apply(bytes);
                for c in [&alone, &in_order] {
                    for (r, k) in c.keyset() {
                        assert!(
                            !live.contains(k.material()),
                            "{:?} reached live key {r:?}",
                            ghost.user()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_strategy_settles_to_the_key_graph_under_duplication_and_jitter() {
    let (mut stale, mut phantoms, mut lingering) = (0, 0, 0);
    for strategy in Strategy::ALL {
        for batched in [false, true] {
            for seed in SEEDS {
                let mut w = World::new(strategy, batched, seed);
                let mut next = 0u64;
                let mut present: Vec<UserId> = Vec::new();
                for step in 0..40u64 {
                    let mix = seed.wrapping_mul(step + 7) % 5;
                    if present.len() > 3 && mix < 2 {
                        let u = present.remove((seed.wrapping_add(step) as usize) % present.len());
                        w.request(u, false);
                    } else {
                        let u = UserId(next);
                        next += 1;
                        w.request(u, true);
                        present.push(u);
                    }
                    assert!(w.consistent());
                    // A departed member whose join request was duplicated
                    // past its leave is admitted again by the late copy:
                    // the simulated authentication exchange always passes.
                    let readmitted = w.departed_members();
                    assert_eq!(w.server.inner().group_size(), present.len() + readmitted);
                }
                w.assert_departed_learn_nothing();
                stale += w.stale;
                phantoms += w.departed_members();
                lingering += w.lingering;
            }
        }
    }
    eprintln!(
        "late duplicates refused as stale: {stale}; departed members readmitted: {phantoms}; \
         members left holding a pruned k-node's key: {lingering}"
    );
}
