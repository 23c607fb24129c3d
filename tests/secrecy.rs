//! Security-invariant integration tests: forward secrecy, backward
//! secrecy, and completeness of rekeying, across strategies and random
//! churn (property-based).
//!
//! These drive the server and real decrypting clients directly (no
//! network) so the invariants are checked against actual ciphertext, not
//! bookkeeping.

use keygraphs::client::{Client, VerifyPolicy};
use keygraphs::core::ids::UserId;
use keygraphs::core::rekey::{KeyCipher, Strategy};
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, RekeyPolicy, ServerConfig};
use keygraphs::wire::RekeyPacket;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A wiretapped packet as an adversary would replay it: the interval
/// check is a freshness guard, not a secrecy mechanism, so the adversary
/// re-stamps the (here unauthenticated) header to get every recorded
/// packet past it, in any order and any number of times. Whatever a keyset
/// can decrypt, this lets it decrypt.
fn restamped(bytes: &[u8]) -> Vec<u8> {
    let (mut packet, _) = RekeyPacket::decode(bytes).expect("wiretapped packet decodes");
    packet.interval = u64::MAX;
    packet.encode()
}

struct World {
    server: GroupKeyServer,
    clients: BTreeMap<UserId, Client>,
    /// Full rekey traffic log (what a wiretapper records).
    traffic: Vec<Vec<u8>>,
    /// Keysets of departed members at the moment they left.
    ghosts: Vec<(UserId, Client)>,
}

impl World {
    fn new(strategy: Strategy, seed: u64) -> World {
        let config =
            ServerConfig { strategy, auth: AuthPolicy::None, seed, ..ServerConfig::default() };
        World {
            server: GroupKeyServer::new(config, AccessControl::AllowAll),
            clients: BTreeMap::new(),
            traffic: Vec::new(),
            ghosts: Vec::new(),
        }
    }

    fn join(&mut self, u: UserId) {
        let op = self.server.handle_join(u).unwrap();
        let grant = op.grants[0].clone();
        let mut c = Client::new(u, KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
        c.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
        self.clients.insert(u, c);
        self.deliver(&op.encoded);
    }

    fn leave(&mut self, u: UserId) {
        let op = self.server.handle_leave(u).unwrap();
        let ghost = self.clients.remove(&u).unwrap();
        self.ghosts.push((u, ghost));
        self.deliver(&op.encoded);
    }

    fn deliver(&mut self, encoded: &[Vec<u8>]) {
        for bytes in encoded {
            self.traffic.push(bytes.clone());
            for c in self.clients.values_mut() {
                c.apply(bytes).unwrap();
            }
        }
    }

    /// Completeness: every member tracks the server's group key.
    fn assert_completeness(&self) {
        let (gk_ref, gk) = self.server.tree().group_key();
        for (u, c) in &self.clients {
            let (r, k) = c.group_key().unwrap_or_else(|| panic!("{u} lost the group key"));
            assert_eq!(r, gk_ref, "{u} stale ref");
            assert_eq!(k, gk, "{u} stale key");
        }
    }

    /// Forward secrecy: no ghost's final keyset contains the current group
    /// key, and replaying all recorded traffic into a ghost installs
    /// nothing it didn't already have.
    fn assert_forward_secrecy(&self) {
        let (_, gk) = self.server.tree().group_key();
        for (u, ghost) in &self.ghosts {
            for (_, k) in ghost.keyset() {
                assert_ne!(k, gk, "{u} retains the live group key");
            }
            // A ghost may decrypt traffic from *before* it left (it was
            // entitled to those keys). What it must never obtain is the
            // current group key.
            let mut replay = ghost.clone();
            for bytes in &self.traffic {
                let _ = replay.apply(&restamped(bytes));
            }
            if let Some((_, k)) = replay.group_key() {
                assert_ne!(k, gk, "{u} recovered the live group key by replay");
            }
        }
    }
}

fn churn(strategy: Strategy, ops: &[(u8, u64)]) {
    let mut w = World::new(strategy, 1234);
    for i in 0..6u64 {
        w.join(UserId(1_000 + i));
    }
    for &(kind, uid) in ops {
        let u = UserId(uid);
        if kind == 0 {
            if !w.server.is_member(u) {
                w.join(u);
            }
        } else if w.server.is_member(u) && w.server.group_size() > 1 {
            w.leave(u);
        }
        w.assert_completeness();
    }
    w.assert_forward_secrecy();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn user_oriented_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        churn(Strategy::UserOriented, &ops);
    }

    #[test]
    fn key_oriented_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        churn(Strategy::KeyOriented, &ops);
    }

    #[test]
    fn group_oriented_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        churn(Strategy::GroupOriented, &ops);
    }

    /// Client-derived rekeying: joins/refreshes publish derivation codes
    /// instead of shipping keys, yet departed members still cannot reach
    /// the live group key (leaves ship fresh keys their stale keyset
    /// cannot decrypt, and later codes derive from those).
    #[test]
    fn derived_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        churn(Strategy::Derived, &ops);
    }
}

/// Batched-rekeying analogue of [`World`]: requests queue on the server
/// and take effect only when an interval is flushed; clients consume
/// one consolidated packet set per interval.
struct BatchWorld {
    server: GroupKeyServer,
    clients: BTreeMap<UserId, Client>,
    traffic: Vec<Vec<u8>>,
    ghosts: Vec<(UserId, Client)>,
    now_ms: u64,
}

impl BatchWorld {
    fn new(strategy: Strategy, seed: u64) -> BatchWorld {
        let config = ServerConfig {
            strategy,
            auth: AuthPolicy::None,
            seed,
            rekey: RekeyPolicy::Batched { interval_ms: 1_000, max_pending: usize::MAX },
            ..ServerConfig::default()
        };
        BatchWorld {
            server: GroupKeyServer::new(config, AccessControl::AllowAll),
            clients: BTreeMap::new(),
            traffic: Vec::new(),
            ghosts: Vec::new(),
            now_ms: 0,
        }
    }

    /// Flush the pending interval: evict the departed, admit the joiners,
    /// deliver the consolidated packets to every current member.
    fn flush(&mut self) {
        self.now_ms += 1_000;
        let Some(batch) = self.server.flush(self.now_ms).unwrap() else { return };
        for u in &batch.departed {
            let ghost = self.clients.remove(u).expect("departed user had a client");
            self.ghosts.push((*u, ghost));
        }
        for g in &batch.grants {
            let mut c = Client::new(g.user, KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
            c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
            self.clients.insert(g.user, c);
        }
        for bytes in &batch.encoded {
            self.traffic.push(bytes.clone());
            for c in self.clients.values_mut() {
                c.apply(bytes).unwrap();
            }
        }
    }

    fn assert_completeness(&self) {
        let (gk_ref, gk) = self.server.tree().group_key();
        for (u, c) in &self.clients {
            let (r, k) = c.group_key().unwrap_or_else(|| panic!("{u} lost the group key"));
            assert_eq!(r, gk_ref, "{u} stale ref");
            assert_eq!(k, gk, "{u} stale key");
        }
    }

    /// Forward secrecy across intervals: no ghost holds the current group
    /// key, and replaying the full batch-packet wiretap never yields it.
    fn assert_forward_secrecy(&self) {
        let (_, gk) = self.server.tree().group_key();
        for (u, ghost) in &self.ghosts {
            for (_, k) in ghost.keyset() {
                assert_ne!(k, gk, "{u} retains the live group key");
            }
            let mut replay = ghost.clone();
            for bytes in &self.traffic {
                let _ = replay.apply(&restamped(bytes));
            }
            if let Some((_, k)) = replay.group_key() {
                assert_ne!(k, gk, "{u} recovered the live group key by replay");
            }
        }
    }
}

/// Random churn, flushed in intervals of a few requests each.
fn batched_churn(strategy: Strategy, ops: &[(u8, u64)]) {
    let mut w = BatchWorld::new(strategy, 4321);
    for i in 0..6u64 {
        w.server.handle_join(UserId(1_000 + i)).unwrap();
    }
    w.flush();
    // Mirror the scheduler's collapse rules so every enqueue is valid.
    let mut members: BTreeSet<u64> = (1_000..1_006).collect();
    let mut pending_join: BTreeSet<u64> = BTreeSet::new();
    let mut pending_leave: BTreeSet<u64> = BTreeSet::new();
    for (i, &(kind, uid)) in ops.iter().enumerate() {
        let u = UserId(uid);
        if kind == 0 {
            if !members.contains(&uid) && !pending_join.contains(&uid) {
                w.server.handle_join(u).unwrap();
                pending_join.insert(uid);
            }
        } else {
            let future_size = members.len() + pending_join.len() - pending_leave.len();
            if pending_join.contains(&uid) {
                // Join and leave collapse to a no-op inside one interval.
                if future_size > 1 {
                    w.server.handle_leave(u).unwrap();
                    pending_join.remove(&uid);
                }
            } else if members.contains(&uid) && !pending_leave.contains(&uid) && future_size > 1 {
                w.server.handle_leave(u).unwrap();
                pending_leave.insert(uid);
            }
        }
        // Flush every few requests, and once more at the end.
        if i % 4 == 3 || i + 1 == ops.len() {
            w.flush();
            for j in &pending_join {
                members.insert(*j);
            }
            for l in &pending_leave {
                members.remove(l);
            }
            pending_join.clear();
            pending_leave.clear();
            w.assert_completeness();
        }
    }
    w.assert_forward_secrecy();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_user_oriented_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        batched_churn(Strategy::UserOriented, &ops);
    }

    #[test]
    fn batched_key_oriented_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        batched_churn(Strategy::KeyOriented, &ops);
    }

    #[test]
    fn batched_group_oriented_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        batched_churn(Strategy::GroupOriented, &ops);
    }

    #[test]
    fn batched_derived_secrecy(ops in proptest::collection::vec((0u8..2, 0u64..24), 1..40)) {
        batched_churn(Strategy::Derived, &ops);
    }
}

#[test]
fn batched_interval_departures_learn_no_new_key() {
    // All users leaving in one interval: none of the interval's marked
    // (replaced) keys is recoverable by any of them, even pooling the
    // interval's entire traffic.
    for strategy in Strategy::EVERY {
        let mut w = BatchWorld::new(strategy, 77);
        for i in 0..16u64 {
            w.server.handle_join(UserId(i)).unwrap();
        }
        w.flush();
        for u in [1u64, 6, 11] {
            w.server.handle_leave(UserId(u)).unwrap();
        }
        for u in [100u64, 101] {
            w.server.handle_join(UserId(u)).unwrap();
        }
        let pre_traffic = w.traffic.len();
        w.flush();
        w.assert_completeness();
        let (_, gk) = w.server.tree().group_key();
        for (u, ghost) in &w.ghosts {
            let mut replay = ghost.clone();
            // Replay only the interval that evicted them, several times
            // for a fixed point.
            for _ in 0..3 {
                for bytes in &w.traffic[pre_traffic..] {
                    let _ = replay.apply(&restamped(bytes));
                }
            }
            for (_, k) in replay.keyset() {
                assert_ne!(k, gk, "{strategy:?}: departed {u} recovered the new group key");
            }
        }
    }
}

#[test]
fn batched_backward_secrecy_joiner_cannot_read_history() {
    for strategy in Strategy::EVERY {
        let mut w = BatchWorld::new(strategy, 55);
        for i in 0..12u64 {
            w.server.handle_join(UserId(i)).unwrap();
        }
        w.flush();
        let (_, old_gk) = w.server.tree().group_key();
        let secret = KeyCipher::des_cbc().encrypt(&old_gk, &[0u8; 8], b"before the interval");
        // A mixed interval admits a newcomer.
        w.server.handle_leave(UserId(4)).unwrap();
        w.server.handle_join(UserId(200)).unwrap();
        w.flush();
        w.assert_completeness();
        let mut newcomer = w.clients.get(&UserId(200)).unwrap().clone();
        for bytes in &w.traffic {
            let _ = newcomer.apply(&restamped(bytes));
        }
        for (_, k) in newcomer.keyset() {
            assert_ne!(k, old_gk, "{strategy:?}: joiner holds the previous group key");
            if let Ok(pt) = KeyCipher::des_cbc().decrypt(&k, &[0u8; 8], &secret) {
                assert_ne!(pt, b"before the interval", "{strategy:?}: backward secrecy broken");
            }
        }
    }
}

#[test]
fn backward_secrecy_newcomer_cannot_read_history() {
    for strategy in Strategy::EVERY {
        let mut w = World::new(strategy, 99);
        for i in 0..9u64 {
            w.join(UserId(i));
        }
        // Record an epoch's group key and some churn traffic.
        let (_, old_gk) = w.server.tree().group_key();
        let secret = KeyCipher::des_cbc().encrypt(&old_gk, &[0u8; 8], b"before the join");
        w.leave(UserId(2));
        w.join(UserId(50));
        // The newcomer replays the wiretap: must not recover old_gk nor
        // decrypt the old epoch's traffic.
        let newcomer = w.clients.get(&UserId(50)).unwrap().clone();
        for (_, k) in newcomer.keyset() {
            assert_ne!(k, old_gk, "{strategy:?}: newcomer holds an old group key");
            if let Ok(pt) = KeyCipher::des_cbc().decrypt(&k, &[0u8; 8], &secret) {
                assert_ne!(pt, b"before the join", "{strategy:?}: backward secrecy broken");
            }
        }
        let mut replayer = newcomer;
        for bytes in &w.traffic {
            let _ = replayer.apply(&restamped(bytes));
        }
        for (_, k) in replayer.keyset() {
            if let Ok(pt) = KeyCipher::des_cbc().decrypt(&k, &[0u8; 8], &secret) {
                assert_ne!(pt, b"before the join", "{strategy:?}: replay broke backward secrecy");
            }
        }
    }
}

#[test]
fn eviction_is_immediate() {
    // The very first rekey after a leave already locks the leaver out.
    let mut w = World::new(Strategy::GroupOriented, 7);
    for i in 0..16u64 {
        w.join(UserId(i));
    }
    let victim = UserId(5);
    let ghost_keys: Vec<_> =
        w.server.tree().keyset(victim).unwrap().into_iter().map(|(_, k)| k).collect();
    w.leave(victim);
    let (_, gk) = w.server.tree().group_key();
    for k in ghost_keys {
        assert_ne!(k, gk);
    }
    w.assert_completeness();
}

#[test]
fn two_departures_cannot_collude() {
    // Two leavers pooling their stale keysets still cannot reach the
    // current group key (their shared ancestors were rekeyed after each
    // departure).
    let mut w = World::new(Strategy::KeyOriented, 11);
    for i in 0..12u64 {
        w.join(UserId(i));
    }
    w.leave(UserId(3));
    w.leave(UserId(4));
    let (_, gk) = w.server.tree().group_key();
    let mut pooled: Vec<_> = Vec::new();
    for (_, ghost) in &w.ghosts {
        pooled.extend(ghost.keyset().into_iter().map(|(_, k)| k));
    }
    for k in &pooled {
        assert_ne!(*k, gk);
    }
    // Pooled replay of all traffic (fixed point over both keysets) — model
    // by running both ghosts' clients over traffic repeatedly.
    for _ in 0..3 {
        for (_, ghost) in w.ghosts.iter_mut() {
            for bytes in &w.traffic {
                let _ = ghost.apply(&restamped(bytes));
            }
        }
    }
    for (_, ghost) in &w.ghosts {
        if let Some((_, k)) = ghost.group_key() {
            assert_ne!(k, gk, "collusion recovered the group key");
        }
    }
}

/// The ghost attack on client-derived rekeying: a departed member keeps
/// every key it ever held *and* the full wiretap — every derivation code
/// and every (from → new) link the server ever published. Closing that
/// keyset under the published derivation relation (and, more generously,
/// applying every code to every held key for every published target ref)
/// must never produce a key the server currently holds. This is the
/// forward-secrecy argument for why leaves ship instead of derive: the
/// closure below WOULD reach the post-leave keys if they were derived
/// from keys on the evicted path.
#[test]
fn departed_member_derivation_closure_reaches_no_live_key() {
    use keygraphs::core::derive::derive_key;
    use keygraphs::core::ids::KeyRef;

    let mut w = World::new(Strategy::Derived, 31);
    for i in 0..16u64 {
        w.join(UserId(i));
    }
    let victim = UserId(5);
    let held: Vec<(KeyRef, _)> = w.server.tree().keyset(victim).unwrap();
    w.leave(victim);
    // Post-leave churn: joins and a refresh, each publishing a code.
    for i in 100..104u64 {
        w.join(UserId(i));
    }
    let op = w.server.refresh_group_key().unwrap();
    w.deliver(&op.encoded);

    // The wiretap, as the ghost sees it: every (code, links) publication.
    let published: Vec<(Vec<u8>, Vec<keygraphs::core::derive::DerivedLink>)> = w
        .traffic
        .iter()
        .map(|b| {
            let (p, _) = RekeyPacket::decode(b).expect("wiretapped packet decodes");
            (p.code, p.changed)
        })
        .filter(|(code, _)| !code.is_empty())
        .collect();
    assert!(published.len() >= 5, "the churn published codes to attack with");
    let targets: BTreeSet<KeyRef> =
        published.iter().flat_map(|(_, links)| links.iter().map(|l| l.new_ref)).collect();

    // Close the ghost's keyset under derivation: every held key × every
    // published code × every published target ref, to a (bounded) fixed
    // point. Two rounds cover every chain the wiretap could express.
    let mut arsenal: BTreeSet<Vec<u8>> = held.iter().map(|(_, k)| k.material().to_vec()).collect();
    for _ in 0..2 {
        let snapshot: Vec<Vec<u8>> = arsenal.iter().cloned().collect();
        for material in &snapshot {
            let old = keygraphs::crypto::SymmetricKey::from_bytes(material);
            for (code, _) in &published {
                for r in &targets {
                    let d = derive_key(&old, code, r.label, r.version, material.len());
                    arsenal.insert(d.material().to_vec());
                }
            }
        }
    }

    // Every key the server currently holds, over all members' paths.
    let live: BTreeSet<Vec<u8>> = w
        .clients
        .keys()
        .flat_map(|&u| w.server.tree().keyset(u).expect("member keyset"))
        .map(|(_, k)| k.material().to_vec())
        .collect();
    let (_, gk) = w.server.tree().group_key();
    assert!(live.contains(gk.material()), "sanity: the live set covers the group key");
    for k in &live {
        assert!(!arsenal.contains(k), "ghost derived a live key");
    }
}
