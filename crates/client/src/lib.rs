//! # kg-client — the client layer
//!
//! Each group member runs this state machine: it holds the member's keyset
//! (individual key, subgroup keys, group key — the keys on its key-tree
//! path), applies rekey packets from the server under any strategy,
//! verifies digests / signatures / Merkle authentication paths,
//! and counts the client-side quantities of the paper's evaluation
//! (Table 6 message sizes, Figure 12 key changes per request).
//!
//! A client doesn't know the tree shape — only labels. Rekey bundles name
//! the (label, version) they are encrypted under and the (label, version)s
//! they deliver; the client decrypts what it can, looping to a fixed point
//! because group-oriented leave messages chain new keys under newer keys.
//!
//! ```
//! use kg_client::{Client, VerifyPolicy};
//! use kg_server::{GroupKeyServer, ServerConfig, AccessControl};
//! use kg_core::ids::UserId;
//!
//! let mut server = GroupKeyServer::new(ServerConfig::default(), AccessControl::AllowAll);
//! let op = server.handle_join(UserId(1)).unwrap();
//! let grant = op.grants[0].clone();
//!
//! let mut client = Client::new(UserId(1), server.config().cipher, VerifyPolicy::Opportunistic);
//! client.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
//! for bytes in &op.encoded {
//!     client.apply(bytes).unwrap();
//! }
//! assert_eq!(client.group_key().unwrap().1, server.tree().group_key().1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
pub mod fleet;
#[cfg(test)]
mod reference;

use kg_core::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
use kg_core::rekey::KeyCipher;
use kg_crypto::rsa::{HashAlg, RsaPublicKey};
use kg_crypto::SymmetricKey;
use kg_obs::{Counter, Histogram, Obs};
use kg_wire::WireError;
use std::collections::BTreeMap;

/// How strictly the client checks rekey message authenticity.
#[derive(Debug, Clone)]
pub enum VerifyPolicy {
    /// Verify whatever tag is present, require none (experiment mode
    /// matching the paper's "encryption only" runs).
    Opportunistic,
    /// Require at least a digest.
    RequireDigest(HashAlg),
    /// Require a signature (per-message or Merkle) from this server key —
    /// "if users cannot be trusted, then each rekey message should be
    /// digitally signed by the server" (§4).
    RequireSignature {
        /// Digest algorithm used by the server.
        alg: HashAlg,
        /// The server's public key.
        key: RsaPublicKey,
    },
}

/// Client-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The packet failed to decode.
    Wire(WireError),
    /// The packet's authenticity tag was missing or invalid.
    AuthFailed,
    /// A bundle addressed to us failed to decrypt (stale keyset — should
    /// not happen under reliable delivery).
    DecryptFailed(KeyRef),
    /// A rekey packet from an interval older than one already applied;
    /// applying it would roll keys back.
    StaleInterval {
        /// The interval the packet carries.
        packet: u64,
        /// The newest interval this client has applied.
        current: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::AuthFailed => write!(f, "rekey message failed authenticity check"),
            ClientError::DecryptFailed(r) => write!(f, "could not decrypt bundle under {r:?}"),
            ClientError::StaleInterval { packet, current } => {
                write!(f, "stale rekey interval {packet} (already at {current})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// What one rekey packet did to this client's keyset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessSummary {
    /// Keys installed or replaced (Figure 12's "key changes").
    pub keys_installed: u64,
    /// Bundles this client decrypted.
    pub bundles_decrypted: u64,
    /// Bundles not addressed to this client (normal in group-oriented
    /// rekeying, where one packet carries every subgroup's keys).
    pub bundles_skipped: u64,
}

/// Lifetime counters for Table 6 / Figure 12.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Rekey packets processed.
    pub rekey_msgs: u64,
    /// Total bytes of those packets.
    pub rekey_bytes: u64,
    /// Total keys installed (= keys decrypted).
    pub key_changes: u64,
    /// Signature / Merkle-path verifications performed.
    pub verifications: u64,
}

/// A group member's key state machine.
#[derive(Debug, Clone)]
pub struct Client {
    user: UserId,
    cipher: KeyCipher,
    verify: VerifyPolicy,
    /// label → (version, key); the member's current keyset.
    keys: BTreeMap<KeyLabel, (KeyVersion, SymmetricKey)>,
    /// The root (group key) label, learned from the join grant.
    root_label: Option<KeyLabel>,
    /// Our individual-key leaf label.
    leaf_label: Option<KeyLabel>,
    /// Newest rekey interval applied (0 = none yet).
    last_interval: u64,
    stats: ClientStats,
    /// Observability (disabled by default): apply-latency histogram,
    /// stale-interval counter, timeline events. Shared across every
    /// client attached to the same handle — fleet-wide distributions.
    obs: Obs,
    apply_us: Histogram,
    stale_rejections: Counter,
}

impl Client {
    /// Create a client for `user`.
    pub fn new(user: UserId, cipher: KeyCipher, verify: VerifyPolicy) -> Self {
        Client {
            user,
            cipher,
            verify,
            keys: BTreeMap::new(),
            root_label: None,
            leaf_label: None,
            last_interval: 0,
            stats: ClientStats::default(),
            obs: Obs::disabled(),
            apply_us: Histogram::default(),
            stale_rejections: Counter::default(),
        }
    }

    /// Attach an observability handle: rekey-apply latency flows to the
    /// `kg_client_apply_us` histogram, stale-interval rejections to
    /// `kg_client_stale_total` and the timeline. Handles are shared, so
    /// attaching one `Obs` to a whole fleet yields fleet-wide metrics.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.apply_us = obs.histogram("kg_client_apply_us");
        self.stale_rejections = obs.counter("kg_client_stale_total");
        self.obs = obs;
    }

    /// This client's user id.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Install the outcome of the (simulated) authentication exchange plus
    /// the join-ack: our individual key, our leaf label, and the root
    /// label.
    pub fn install_grant(
        &mut self,
        individual_key: SymmetricKey,
        leaf_label: KeyLabel,
        path_labels: &[KeyLabel],
    ) {
        self.keys.insert(leaf_label, (KeyVersion::default(), individual_key));
        self.leaf_label = Some(leaf_label);
        self.root_label = path_labels.first().copied();
    }

    /// The current group key, if known.
    pub fn group_key(&self) -> Option<(KeyRef, SymmetricKey)> {
        let root = self.root_label?;
        let (v, k) = self.keys.get(&root)?;
        Some((KeyRef::new(root, *v), k.clone()))
    }

    /// The member's individual key.
    pub fn individual_key(&self) -> Option<SymmetricKey> {
        let leaf = self.leaf_label?;
        self.keys.get(&leaf).map(|(_, k)| k.clone())
    }

    /// Number of keys currently held (≈ tree height, Table 1's `h`).
    pub fn keys_held(&self) -> usize {
        self.keys.len()
    }

    /// A snapshot of the full keyset (secrecy audits in tests).
    pub fn keyset(&self) -> Vec<(KeyRef, SymmetricKey)> {
        self.keys.iter().map(|(&l, (v, k))| (KeyRef::new(l, *v), k.clone())).collect()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Newest rekey interval applied (0 before any rekey).
    pub fn last_interval(&self) -> u64 {
        self.last_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::rekey::Strategy;
    use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
    use kg_wire::{AuthTag, RekeyPacket};

    /// Build a server + synchronized clients, delivering every packet to
    /// every client (group-oriented style over-delivery is harmless: a
    /// client skips bundles it cannot open).
    fn build(strategy: Strategy, auth: AuthPolicy, n: u64) -> (GroupKeyServer, Vec<Client>) {
        let config = ServerConfig { strategy, auth, ..ServerConfig::default() };
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        let mut clients = Vec::new();
        for i in 0..n {
            join_one(&mut server, &mut clients, UserId(i));
        }
        (server, clients)
    }

    fn verify_policy(server: &GroupKeyServer) -> VerifyPolicy {
        match server.public_key() {
            Some(pk) => {
                VerifyPolicy::RequireSignature { alg: server.config().digest, key: pk.clone() }
            }
            None => VerifyPolicy::Opportunistic,
        }
    }

    fn join_one(server: &mut GroupKeyServer, clients: &mut Vec<Client>, user: UserId) {
        let op = server.handle_join(user).unwrap();
        let grant = op.grants[0].clone();
        let mut c = Client::new(user, server.config().cipher, verify_policy(server));
        c.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
        clients.push(c);
        deliver_all(server, clients, &op.encoded);
    }

    fn deliver_all(server: &GroupKeyServer, clients: &mut [Client], encoded: &[Vec<u8>]) -> u64 {
        let _ = server;
        let mut installed = 0;
        for bytes in encoded {
            for c in clients.iter_mut() {
                installed += c.apply(bytes).unwrap().keys_installed;
            }
        }
        installed
    }

    #[test]
    fn all_members_track_the_group_key() {
        for strategy in Strategy::ALL {
            let (server, clients) = build(strategy, AuthPolicy::None, 17);
            let (gk_ref, gk) = server.tree().group_key();
            for c in &clients {
                let (r, k) = c.group_key().expect("client knows group key");
                assert_eq!(r, gk_ref, "strategy {strategy:?} user {:?}", c.user());
                assert_eq!(k, gk);
            }
        }
    }

    #[test]
    fn leave_rotates_key_for_survivors_only() {
        for strategy in Strategy::ALL {
            let (mut server, mut clients) = build(strategy, AuthPolicy::None, 9);
            let op = server.handle_leave(UserId(4)).unwrap();
            let leaver = clients.remove(4);
            deliver_all(&server, &mut clients, &op.encoded);
            let (gk_ref, gk) = server.tree().group_key();
            for c in &clients {
                let (r, k) = c.group_key().unwrap();
                assert_eq!(r, gk_ref, "strategy {strategy:?}");
                assert_eq!(k, gk);
            }
            // The leaver's stale keyset must not contain the new group key.
            for (_, k) in leaver.keyset() {
                assert_ne!(k, gk, "strategy {strategy:?}: leaver holds new group key");
            }
        }
    }

    #[test]
    fn leaver_cannot_decrypt_rekey_traffic() {
        for strategy in Strategy::ALL {
            let (mut server, mut clients) = build(strategy, AuthPolicy::None, 9);
            let op = server.handle_leave(UserId(4)).unwrap();
            let mut leaver = clients.remove(4);
            // Even if the leaver intercepts every packet, it installs no
            // new keys: every bundle is under a key it lacks or a replaced
            // version.
            for bytes in &op.encoded {
                let s = leaver.apply(bytes).unwrap();
                assert_eq!(s.keys_installed, 0, "strategy {strategy:?}");
            }
        }
    }

    #[test]
    fn joiner_cannot_read_pre_join_traffic() {
        let (mut server, mut clients) = build(Strategy::GroupOriented, AuthPolicy::None, 8);
        // Capture pre-join rekey traffic (from user 7's leave).
        let old_op = server.handle_leave(UserId(7)).unwrap();
        clients.remove(7);
        deliver_all(&server, &mut clients, &old_op.encoded);
        let (_, old_gk) = server.tree().group_key();
        // New member joins.
        join_one(&mut server, &mut clients, UserId(100));
        let newcomer = clients.last().unwrap().clone();
        // The newcomer holds the *new* group key, not the old one, and
        // replaying old packets installs nothing.
        let (_, new_gk) = server.tree().group_key();
        assert_eq!(newcomer.group_key().unwrap().1, new_gk);
        for (_, k) in newcomer.keyset() {
            assert_ne!(k, old_gk);
        }
        // The interval check refuses the replay outright; re-stamped to
        // the newcomer's own interval (the packets are unauthenticated
        // here) it is applied, and still installs nothing.
        let mut replayer = newcomer.clone();
        for bytes in &old_op.encoded {
            assert!(matches!(replayer.apply(bytes), Err(ClientError::StaleInterval { .. })));
            let (mut pkt, _) = RekeyPacket::decode(bytes).unwrap();
            pkt.interval = replayer.last_interval();
            assert_eq!(replayer.apply(&pkt.encode()).unwrap().keys_installed, 0);
        }
    }

    #[test]
    fn key_changes_match_paper_average() {
        // Figure 12: average key changes per request ≈ d/(d−1) for
        // non-requesting users.
        let (mut server, mut clients) = build(Strategy::GroupOriented, AuthPolicy::None, 64);
        let requests = 40u64;
        let mut installed = 0u64;
        for i in 0..requests {
            let op = server.handle_leave(UserId(i)).unwrap();
            clients.retain(|c| c.user() != UserId(i));
            installed += deliver_all(&server, &mut clients, &op.encoded);
            // Count the join's rekey installs too (join_one delivers
            // internally, so replicate its steps here to capture the tally).
            let op = server.handle_join(UserId(1000 + i)).unwrap();
            let grant = op.grants[0].clone();
            let mut c =
                Client::new(UserId(1000 + i), server.config().cipher, verify_policy(&server));
            c.install_grant(grant.individual_key, grant.leaf_label, &grant.path_labels);
            clients.push(c);
            installed += deliver_all(&server, &mut clients, &op.encoded);
        }
        // 2 requests per iteration; ~64 clients.
        let per_client_per_request =
            installed as f64 / (2.0 * requests as f64) / clients.len() as f64;
        let expected = 4.0 / 3.0; // d/(d−1) at d=4
        assert!(
            (per_client_per_request - expected).abs() < 0.5,
            "measured {per_client_per_request}, expected ≈ {expected}"
        );
    }

    #[test]
    fn signed_packets_verify_and_tampering_detected() {
        let (mut server, mut clients) = build(Strategy::KeyOriented, AuthPolicy::SignBatch, 16);
        let op = server.handle_leave(UserId(3)).unwrap();
        clients.remove(3);
        // Valid packets process fine.
        for bytes in &op.encoded {
            for c in clients.iter_mut() {
                c.apply(bytes).unwrap();
            }
        }
        // A tampered body fails verification.
        let mut bad = op.encoded[0].clone();
        bad[10] ^= 1;
        assert_eq!(clients[0].apply(&bad).unwrap_err(), ClientError::AuthFailed);
    }

    #[test]
    fn require_signature_rejects_unsigned() {
        let (server, _) = build(Strategy::GroupOriented, AuthPolicy::SignBatch, 2);
        let mut strict = Client::new(
            UserId(50),
            server.config().cipher,
            VerifyPolicy::RequireSignature {
                alg: server.config().digest,
                key: server.public_key().unwrap().clone(),
            },
        );
        // Forge an unsigned packet.
        let pkt = packet(1, &[], vec![], vec![]);
        assert_eq!(strict.apply(&pkt).unwrap_err(), ClientError::AuthFailed);
    }

    #[test]
    fn digest_mismatch_detected() {
        let (mut server, mut clients) = build(Strategy::GroupOriented, AuthPolicy::Digest, 4);
        let op = server.handle_join(UserId(99)).unwrap();
        let mut bytes = op.encoded[0].clone();
        // Flip a bit of the body's last ciphertext byte; the digest no
        // longer matches.
        let body_len = kg_wire::RekeyView::parse(&bytes).unwrap().body.len();
        bytes[body_len - 1] ^= 0x80;
        assert_eq!(clients[0].apply(&bytes).unwrap_err(), ClientError::AuthFailed);
    }

    #[test]
    fn stats_accumulate() {
        let (mut server, mut clients) = build(Strategy::GroupOriented, AuthPolicy::None, 8);
        let op = server.handle_join(UserId(50)).unwrap();
        deliver_all(&server, &mut clients, &op.encoded[..1]); // group packet only
        let st = clients[0].stats();
        assert!(st.rekey_msgs >= 1);
        assert!(st.rekey_bytes > 0);
        assert!(st.key_changes >= 1);
    }

    #[test]
    fn garbage_packet_is_wire_error() {
        let mut c = Client::new(UserId(1), KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
        assert!(matches!(c.apply(&[1, 2, 3]), Err(ClientError::Wire(_))));
        assert!(matches!(c.apply(&[kg_wire::REKEY_MAGIC, 0, 1]), Err(ClientError::Wire(_))));
    }

    /// A per-operation packet is applied all-or-nothing, like an interval:
    /// a bundle that fails to decrypt leaves the keyset *and* the rekey
    /// counters exactly as they were, even when an earlier bundle of the
    /// same packet had already decrypted.
    #[test]
    fn corrupt_per_op_packet_rejected_atomically() {
        let (mut server, mut clients) = build(Strategy::GroupOriented, AuthPolicy::None, 9);
        let op = server.handle_leave(UserId(4)).unwrap();
        clients.remove(4);
        let (pkt, _) = RekeyPacket::decode(&op.encoded[0]).unwrap();
        // Pick a survivor that opens at least two bundles: it sits under the
        // changed path, so it reaches the new group key last, through keys
        // this same packet delivered. Corrupting every bundle that carries
        // the group key makes its failure come mid-packet.
        let (victim_idx, opened) = clients
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.clone().apply(&op.encoded[0]).unwrap().bundles_decrypted))
            .max_by_key(|&(_, opened)| opened)
            .expect("survivors exist");
        assert!(opened >= 2, "a group-oriented leave chains bundles for some survivor");
        let victim = &mut clients[victim_idx];
        let root = victim.group_key().unwrap().0.label;
        let mut bad = pkt;
        for b in bad.bundles.iter_mut().filter(|b| b.targets[0].label == root) {
            b.ciphertext.push(0xEE); // no longer whole cipher blocks
        }
        let (before_keys, before_stats) = (victim.keyset(), victim.stats());
        let err = victim.apply(&bad.encode()).unwrap_err();
        assert!(matches!(err, ClientError::DecryptFailed(_)));
        assert_eq!(victim.keyset(), before_keys);
        assert_eq!(victim.stats(), before_stats);
        // The intact packet still applies cleanly afterwards.
        assert!(victim.apply(&op.encoded[0]).unwrap().keys_installed >= 2);
        assert_eq!(victim.group_key().unwrap().1, server.tree().group_key().1);
    }

    #[test]
    fn stale_per_op_packet_refused_and_redelivery_installs_nothing() {
        let (mut server, mut clients) = build(Strategy::KeyOriented, AuthPolicy::None, 9);
        let first = server.handle_leave(UserId(4)).unwrap();
        clients.remove(4);
        deliver_all(&server, &mut clients, &first.encoded);
        let second = server.handle_leave(UserId(5)).unwrap();
        clients.remove(4);
        deliver_all(&server, &mut clients, &second.encoded);
        let c = &mut clients[0];
        let current = c.last_interval();
        let (before_keys, before_stats) = (c.keyset(), c.stats());
        // Every packet of the older operation is refused untouched.
        for bytes in &first.encoded {
            let stale = RekeyPacket::decode(bytes).unwrap().0.interval;
            assert!(stale < current);
            assert_eq!(
                c.apply(bytes).unwrap_err(),
                ClientError::StaleInterval { packet: stale, current }
            );
        }
        assert_eq!(c.keyset(), before_keys);
        assert_eq!(c.stats(), before_stats);
        // Redelivery of the current operation's packets is accepted (they
        // share one interval) and finds nothing newer to install.
        for bytes in &second.encoded {
            assert_eq!(c.apply(bytes).unwrap().keys_installed, 0);
        }
        assert_eq!(c.keyset(), before_keys);
        assert_eq!(c.last_interval(), current);
    }

    /// Build a *batched* server with `n` members admitted in one seed
    /// interval, all clients synchronized through batch packets.
    fn build_batched(
        strategy: Strategy,
        auth: AuthPolicy,
        n: u64,
    ) -> (GroupKeyServer, Vec<Client>, Vec<Vec<u8>>) {
        let config = ServerConfig {
            strategy,
            auth,
            rekey: kg_server::RekeyPolicy::Batched { interval_ms: 10, max_pending: 100_000 },
            ..ServerConfig::default()
        };
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        for i in 0..n {
            server.handle_join(UserId(i)).unwrap();
        }
        let batch = server.flush(0).unwrap().unwrap();
        let mut clients = Vec::new();
        for g in &batch.grants {
            let mut c = Client::new(g.user, server.config().cipher, verify_policy(&server));
            c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
            clients.push(c);
        }
        for bytes in &batch.encoded {
            for c in clients.iter_mut() {
                c.apply(bytes).unwrap();
            }
        }
        (server, clients, batch.encoded)
    }

    #[test]
    fn batched_interval_synchronizes_all_strategies() {
        for strategy in Strategy::ALL {
            let (mut server, mut clients, _) = build_batched(strategy, AuthPolicy::None, 20);
            for u in [1u64, 5, 9] {
                server.handle_leave(UserId(u)).unwrap();
            }
            for u in 100..104u64 {
                server.handle_join(UserId(u)).unwrap();
            }
            let batch = server.tick(10).unwrap().expect("interval elapsed");
            assert_eq!(batch.packets[0].interval, 2);
            // Separate the departed; admit the joiners.
            let mut departed: Vec<Client> = Vec::new();
            clients.retain_mut(|c| {
                if batch.departed.contains(&c.user()) {
                    departed.push(c.clone());
                    false
                } else {
                    true
                }
            });
            for g in &batch.grants {
                let mut c = Client::new(g.user, server.config().cipher, verify_policy(&server));
                c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
                clients.push(c);
            }
            // Over-deliver every packet to every member (clients skip what
            // they cannot open).
            for bytes in &batch.encoded {
                for c in clients.iter_mut() {
                    c.apply(bytes).unwrap();
                }
            }
            let (gk_ref, gk) = server.tree().group_key();
            for c in &clients {
                let (r, k) = c.group_key().expect("member has group key");
                assert_eq!(r, gk_ref, "{strategy:?} user {:?}", c.user());
                assert_eq!(k, gk);
                assert_eq!(c.last_interval(), 2);
            }
            // Departed members, replaying the whole interval, install
            // nothing and never learn the new group key.
            for d in departed.iter_mut() {
                for bytes in &batch.encoded {
                    let s = d.apply(bytes).unwrap();
                    assert_eq!(s.keys_installed, 0, "{strategy:?}");
                }
                for (_, k) in d.keyset() {
                    assert_ne!(k, gk, "{strategy:?}: departed holds new group key");
                }
            }
        }
    }

    #[test]
    fn stale_batch_interval_rejected() {
        let (mut server, mut clients, seed_encoded) =
            build_batched(Strategy::GroupOriented, AuthPolicy::None, 8);
        server.handle_leave(UserId(0)).unwrap();
        let batch = server.flush(10).unwrap().unwrap();
        clients.retain(|c| c.user() != UserId(0));
        for bytes in &batch.encoded {
            for c in clients.iter_mut() {
                c.apply(bytes).unwrap();
            }
        }
        assert_eq!(clients[0].last_interval(), 2);
        let before = clients[0].keyset();
        // Replaying the seed interval (1 < 2) must be refused untouched.
        let err = clients[0].apply(&seed_encoded[0]).unwrap_err();
        assert_eq!(err, ClientError::StaleInterval { packet: 1, current: 2 });
        assert_eq!(clients[0].keyset(), before);
        // Re-delivery of the *current* interval is an idempotent no-op.
        let s = clients[0].apply(&batch.encoded[0]).unwrap();
        assert_eq!(s.keys_installed, 0);
    }

    #[test]
    fn corrupt_batch_packet_rejected_atomically() {
        let (mut server, mut clients, _) =
            build_batched(Strategy::GroupOriented, AuthPolicy::None, 9);
        server.handle_leave(UserId(4)).unwrap();
        let batch = server.flush(10).unwrap().unwrap();
        clients.retain(|c| c.user() != UserId(4));
        // Corrupt a bundle some survivor can open directly (bundles under
        // other *new* keys would just be skipped) so its ciphertext is no
        // longer a whole number of cipher blocks: decryption fails
        // mid-interval.
        let (mut pkt, _) = RekeyPacket::decode(&batch.encoded[0]).unwrap();
        let (bundle_idx, victim_idx) = pkt
            .bundles
            .iter()
            .enumerate()
            .find_map(|(bi, b)| {
                clients
                    .iter()
                    .position(|c| c.keyset().iter().any(|(r, _)| *r == b.encrypted_with))
                    .map(|ci| (bi, ci))
            })
            .expect("some survivor holds some encrypting key");
        pkt.bundles[bundle_idx].ciphertext.push(0xEE);
        let bad = pkt.encode();
        let victim = &mut clients[victim_idx];
        let before_keys = victim.keyset();
        let before_stats = victim.stats();
        let err = victim.apply(&bad).unwrap_err();
        assert!(matches!(err, ClientError::DecryptFailed(_)));
        // All-or-nothing: nothing was committed, counters unchanged.
        assert_eq!(victim.keyset(), before_keys);
        assert_eq!(victim.stats(), before_stats);
        assert_eq!(victim.last_interval(), 1);
        // The intact packet still applies cleanly afterwards.
        victim.apply(&batch.encoded[0]).unwrap();
        assert_eq!(victim.last_interval(), 2);
    }

    /// A client holding only its individual key (leaf label 5), as after
    /// `install_grant` but before any rekey traffic.
    fn derived_fixture() -> (Client, SymmetricKey) {
        let ik = SymmetricKey::from_bytes(&[0x11; 8]);
        let mut c = Client::new(UserId(1), KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
        c.install_grant(ik.clone(), KeyLabel(5), &[KeyLabel(0), KeyLabel(5)]);
        (c, ik)
    }

    fn packet(
        interval: u64,
        code: &[u8],
        changed: Vec<kg_core::derive::DerivedLink>,
        bundles: Vec<kg_core::rekey::KeyBundle>,
    ) -> Vec<u8> {
        RekeyPacket {
            interval,
            op: kg_wire::OpKind::Join,
            timestamp_ms: 0,
            recipients: kg_core::rekey::Recipients::Group,
            code: code.to_vec(),
            changed,
            bundles,
            auth: AuthTag::None,
        }
        .encode()
    }

    #[test]
    fn derived_links_recompute_exactly_the_kdf() {
        let (mut c, ik) = derived_fixture();
        let code = [0xC0u8; 16];
        // Root v1 derives from our leaf key (the split case: a different
        // label); a link from a key we lack is silently skipped.
        let links = vec![
            kg_core::derive::DerivedLink {
                new_ref: KeyRef::new(KeyLabel(0), KeyVersion(1)),
                from: KeyRef::new(KeyLabel(5), KeyVersion(0)),
            },
            kg_core::derive::DerivedLink {
                new_ref: KeyRef::new(KeyLabel(9), KeyVersion(3)),
                from: KeyRef::new(KeyLabel(9), KeyVersion(2)),
            },
        ];
        let s = c.apply(&packet(1, &code, links, vec![])).unwrap();
        assert_eq!(s.keys_installed, 1);
        let want = kg_core::derive::derive_key(&ik, &code, KeyLabel(0), KeyVersion(1), 8);
        let (gk_ref, gk) = c.group_key().expect("derived the group key");
        assert_eq!(gk_ref, KeyRef::new(KeyLabel(0), KeyVersion(1)));
        assert_eq!(gk, want);
        assert_eq!(c.last_interval(), 1);
    }

    #[test]
    fn derived_links_require_exact_from_version() {
        let (mut c, _) = derived_fixture();
        // Wrong version of a held label: no derivation, but the interval
        // still commits (the client is simply not a holder of that key).
        let links = vec![kg_core::derive::DerivedLink {
            new_ref: KeyRef::new(KeyLabel(0), KeyVersion(2)),
            from: KeyRef::new(KeyLabel(5), KeyVersion(7)),
        }];
        let s = c.apply(&packet(1, &[0xC0; 16], links, vec![])).unwrap();
        assert_eq!(s.keys_installed, 0);
        assert!(c.group_key().is_none());
        assert_eq!(c.last_interval(), 1);
    }

    #[test]
    fn derived_stale_interval_rejected_and_equal_is_idempotent() {
        let (mut c, _) = derived_fixture();
        let link = |v: u64| {
            vec![kg_core::derive::DerivedLink {
                new_ref: KeyRef::new(KeyLabel(0), KeyVersion(v)),
                from: KeyRef::new(KeyLabel(5), KeyVersion(0)),
            }]
        };
        c.apply(&packet(3, &[1; 16], link(1), vec![])).unwrap();
        let before = c.keyset();
        let err = c.apply(&packet(2, &[2; 16], link(2), vec![])).unwrap_err();
        assert_eq!(err, ClientError::StaleInterval { packet: 2, current: 3 });
        assert_eq!(c.keyset(), before);
        // Redelivery of the same interval: accepted, nothing newer to do.
        let s = c.apply(&packet(3, &[1; 16], link(1), vec![])).unwrap();
        assert_eq!(s.keys_installed, 0);
        assert_eq!(c.keyset(), before);
    }

    #[test]
    fn derived_apply_is_atomic_on_bad_bundle() {
        let (mut c, _) = derived_fixture();
        let links = vec![kg_core::derive::DerivedLink {
            new_ref: KeyRef::new(KeyLabel(0), KeyVersion(1)),
            from: KeyRef::new(KeyLabel(5), KeyVersion(0)),
        }];
        // A bundle under our individual key whose ciphertext is not a
        // whole number of blocks: decryption fails mid-apply.
        let bad = kg_core::rekey::KeyBundle {
            targets: vec![KeyRef::new(KeyLabel(2), KeyVersion(1))],
            encrypted_with: KeyRef::new(KeyLabel(5), KeyVersion(0)),
            ciphertext: vec![0xEE; 9],
        };
        let before = c.keyset();
        let err = c.apply(&packet(1, &[7; 16], links, vec![bad])).unwrap_err();
        assert!(matches!(err, ClientError::DecryptFailed(_)));
        // All-or-nothing: the derivation above was rolled back with it.
        assert_eq!(c.keyset(), before);
        assert_eq!(c.last_interval(), 0);
    }

    #[test]
    fn derived_shipped_bundle_decrypts_under_derived_key() {
        let (mut c, ik) = derived_fixture();
        let code = [0x5Au8; 16];
        let cipher = KeyCipher::des_cbc();
        // The packet both derives root v1 and ships a bundle *under* root
        // v1 — the fixed point must see the staged derived key.
        let root1 = kg_core::derive::derive_key(&ik, &code, KeyLabel(0), KeyVersion(1), 8);
        let payload = SymmetricKey::from_bytes(&[0x77; 8]);
        let target = KeyRef::new(KeyLabel(3), KeyVersion(1));
        // Sealed for interval 1, the packet's.
        let nonce = kg_core::rekey::bundle_nonce(1, [target]);
        let msg = kg_core::rekey::KeyBundle {
            targets: vec![target],
            encrypted_with: KeyRef::new(KeyLabel(0), KeyVersion(1)),
            ciphertext: cipher.seal(&root1, &nonce, payload.material()),
        };
        let links = vec![kg_core::derive::DerivedLink {
            new_ref: KeyRef::new(KeyLabel(0), KeyVersion(1)),
            from: KeyRef::new(KeyLabel(5), KeyVersion(0)),
        }];
        let s = c.apply(&packet(1, &code, links, vec![msg])).unwrap();
        assert_eq!(s.keys_installed, 2);
        assert_eq!(s.bundles_decrypted, 1);
        let keyset = c.keyset();
        assert!(keyset
            .iter()
            .any(|(r, k)| { *r == KeyRef::new(KeyLabel(3), KeyVersion(1)) && *k == payload }));
    }

    #[test]
    fn batch_auth_is_verified() {
        let (mut server, mut clients, _) =
            build_batched(Strategy::GroupOriented, AuthPolicy::SignBatch, 8);
        server.handle_leave(UserId(2)).unwrap();
        let batch = server.flush(10).unwrap().unwrap();
        clients.retain(|c| c.user() != UserId(2));
        for bytes in &batch.encoded {
            for c in clients.iter_mut() {
                c.apply(bytes).unwrap();
            }
        }
        assert_eq!(clients[0].group_key().unwrap().1, server.tree().group_key().1);
        // Tampering with the body breaks the Merkle-signed tag.
        let mut bad = batch.encoded[0].clone();
        bad[12] ^= 1;
        assert_eq!(clients[0].apply(&bad).unwrap_err(), ClientError::AuthFailed);
    }
}
