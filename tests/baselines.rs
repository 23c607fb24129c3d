//! Baseline structures through the umbrella API: the star's Θ(n) wall,
//! the complete graph's exponential wall, and the Iolus trade-off —
//! the design space the key tree sits in the middle of.
//!
//! The star is a key tree whose degree no group reaches, so every member's
//! leaf hangs off the root and the paper's Figures 2 and 4 are the tree's
//! own join and leave protocols at h = 2.

use keygraphs::core::ids::{KeyLabel, KeyRef, UserId};
use keygraphs::core::keygraph::KeyGraph;
use keygraphs::core::rekey::{bundle_nonce, KeyBundle, KeyCipher, Recipients, Rekeyer, Strategy};
use keygraphs::core::tree::{KeyTree, TreeError};
use keygraphs::crypto::drbg::HmacDrbg;
use keygraphs::crypto::{CryptoError, KeySource, SymmetricKey};
use keygraphs::iolus::IolusSystem;
use std::collections::BTreeSet;

/// A member's opening of `b`, sealed in the operation numbered `interval`.
fn open(key: &SymmetricKey, interval: u64, b: &KeyBundle) -> Result<Vec<u8>, CryptoError> {
    let nonce = bundle_nonce(interval, b.targets.iter().copied());
    KeyCipher::des_cbc().open(key, &nonce, &b.ciphertext)
}

/// A degree no group reaches: the key tree is a star.
const STAR: usize = u32::MAX as usize;

/// A star of members `0..n`.
fn star_of(n: u64, src: &mut HmacDrbg) -> KeyTree {
    let mut tree = KeyTree::new(STAR, 8, src);
    for i in 0..n {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, src).unwrap();
    }
    tree
}

#[test]
fn design_space_orderings_hold() {
    // For the same membership change at n = 128, the three structures'
    // leave costs order: tree << star; complete = 0 but with 2^n keys.
    let n = 128u64;
    let mut src = HmacDrbg::from_seed(1);
    let interval = 2;

    // Star.
    let mut star = star_of(n, &mut src);
    let ev = star.leave(UserId(0), &mut src).unwrap();
    let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
    let star_cost = rk.batch(&ev, Strategy::GroupOriented).ops.key_encryptions;
    assert_eq!(star_cost, n - 1);

    // Tree.
    let mut tree = KeyTree::new(4, 8, &mut src);
    for i in 0..n {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, &mut src).unwrap();
    }
    let ev = tree.leave(UserId(0), &mut src).unwrap();
    let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
    let tree_cost = rk.batch(&ev, Strategy::GroupOriented).ops.key_encryptions;

    assert!(tree_cost < star_cost / 4, "tree {tree_cost} vs star {star_cost}");

    // Complete (small n only — that's the point). Leaving needs no new
    // key: the survivors' graph is a subgraph of the one before.
    let complete = KeyGraph::complete((0..10).map(UserId));
    assert_eq!(complete.key_count(), (1 << 10) - 1);
    assert_eq!(complete.keyset(UserId(0)).len(), 1 << 9);
    let before: BTreeSet<KeyLabel> = complete.keys().collect();
    let after = KeyGraph::complete((1..10).map(UserId));
    assert!(after.keys().all(|k| before.contains(&k)), "leaves cost nothing…");
    assert_eq!(after.key_count(), (1 << 9) - 1, "…but the key count is exponential");
}

#[test]
fn iolus_and_tree_secure_the_same_workload() {
    // Same churn against both systems; both must keep evicted members out,
    // by their respective mechanisms.
    let mut src = HmacDrbg::from_seed(3);
    let interval = 4;

    let mut tree = KeyTree::new(4, 8, &mut src);
    let mut iolus = IolusSystem::new(2, 4, 16, KeyCipher::des_cbc(), &mut src);
    for i in 0..32u64 {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, &mut src).unwrap();
        iolus.join(UserId(i), &mut src).unwrap();
    }

    // Evict user 5 from both.
    let victim = UserId(5);
    let victim_tree_keys: Vec<_> =
        tree.keyset(victim).unwrap().into_iter().map(|(_, k)| k).collect();
    let victim_home = iolus.home_agent(victim).unwrap();
    let victim_subgroup_key = iolus.subgroup_key(victim_home);

    let ev = tree.leave(victim, &mut src).unwrap();
    let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
    let _ = rk.batch(&ev, Strategy::GroupOriented);
    iolus.leave(victim, &mut src).unwrap();

    // Tree side: the new group key is not derivable from the victim's keys.
    let (_, gk) = tree.group_key();
    for k in &victim_tree_keys {
        assert_ne!(*k, gk);
    }

    // Iolus side: a fresh message is unreadable with the stale subgroup key.
    let msg = iolus.send_to_group(UserId(1), b"post-eviction", &mut src).unwrap();
    let leak = iolus.receive_with_stale_key(victim_home, &victim_subgroup_key, &msg);
    assert_ne!(leak.as_deref(), Some(b"post-eviction".as_slice()));
    // And current members still read it.
    assert_eq!(iolus.receive(UserId(1), &msg).as_deref(), Some(b"post-eviction".as_slice()));
}

/// Figure 4 under every shipped strategy: n−1 encryptions, each under one
/// survivor's individual key; n−1 unicasts, or one group-oriented multicast.
#[test]
fn star_recipients_are_exactly_the_survivors() {
    for n in [10u64, 128] {
        let survivors: Vec<UserId> = (0..n).filter(|&i| i != 4).map(UserId).collect();
        for strategy in Strategy::ALL {
            let mut src = HmacDrbg::from_seed(5);
            let interval = 6;
            let mut star = star_of(n, &mut src);
            let ev = star.leave(UserId(4), &mut src).unwrap();
            let out = Rekeyer::new(KeyCipher::des_cbc(), interval).batch(&ev, strategy);
            assert_eq!(out.ops.key_encryptions, n - 1, "{strategy:?} n={n}");
            let mut recipients: Vec<UserId> = if strategy == Strategy::GroupOriented {
                // One multicast; each survivor opens its own bundle.
                assert_eq!(out.messages.len(), 1);
                assert_eq!(out.messages[0].bundles.len(), survivors.len());
                star.resolve(&out.messages[0].recipients)
            } else {
                // Unicasts: each message reaches exactly one survivor.
                (out.messages.iter())
                    .map(|m| match star.resolve(&m.recipients)[..] {
                        [u] => u,
                        ref users => panic!("{strategy:?}: a star leave message reached {users:?}"),
                    })
                    .collect()
            };
            recipients.sort();
            assert_eq!(recipients, survivors, "{strategy:?} n={n}");
        }
    }
}

#[test]
fn tree_scales_where_complete_cannot() {
    // 2^n keys make the complete graph unusable beyond toy sizes; the tree
    // handles the same membership with ~n·d/(d−1) keys.
    let mut src = HmacDrbg::from_seed(7);
    let n = 512u64;
    let mut tree = KeyTree::new(4, 8, &mut src);
    for i in 0..n {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, &mut src).unwrap();
    }
    let tree_keys = tree.key_count() as u64;
    assert!(tree_keys < 2 * n, "tree: {tree_keys} keys for {n} users");
    // The complete graph for the same n would need 2^512 − 1 keys; its
    // constructor refuses anything beyond 12 users.
    assert!(std::panic::catch_unwind(|| KeyGraph::complete((0..13).map(UserId))).is_err());
}

/// Figure 2 under every shipped strategy: 2 encryptions, 2 messages — the
/// new group key under the old one for the members, and under the joiner's
/// individual key for the joiner.
#[test]
fn star_join_is_figure_2() {
    for strategy in Strategy::ALL {
        for n in [8u64, 128] {
            let mut src = HmacDrbg::from_seed(21);
            let interval = 22;
            let mut star = star_of(n, &mut src);
            let (old_ref, old_gk) = star.group_key();
            let ik = src.generate_key(8);
            let ev = star.join(UserId(n), ik.clone(), &mut src).unwrap();
            let out = Rekeyer::new(KeyCipher::des_cbc(), interval).join(&ev, strategy);
            assert_eq!(out.ops.key_encryptions, 2, "{strategy:?} n={n}");
            assert_eq!(out.messages.len(), 2, "{strategy:?} n={n}");
            assert_eq!(star.height(), 2);
            let (new_ref, new_gk) = star.group_key();
            let opens = |key: &SymmetricKey, under: KeyRef| {
                let b = (out.messages.iter().flat_map(|m| &m.bundles))
                    .find(|b| b.encrypted_with == under)
                    .expect("a bundle under that key");
                assert_eq!(b.targets, vec![new_ref]);
                open(key, interval, b).unwrap()
            };
            // Old members open it with the old group key…
            assert_eq!(opens(&old_gk, old_ref), new_gk.material());
            // …and the joiner with its individual key, in its own unicast.
            let (leaf_ref, _) = star.keyset(UserId(n)).unwrap()[0].clone();
            assert_eq!(opens(&ik, leaf_ref), new_gk.material());
            let to_joiner = out.messages.last().unwrap();
            assert_eq!(to_joiner.recipients, Recipients::User(UserId(n)));
            // Everyone else is reached by the first message.
            let mut others = star.resolve(&out.messages[0].recipients);
            others.retain(|&u| u != UserId(n));
            assert_eq!(others.len() as u64, n, "{strategy:?} n={n}");
        }
    }
}

#[test]
fn star_leaver_opens_nothing_and_survivors_open_their_own() {
    let mut src = HmacDrbg::from_seed(26);
    let interval = 27;
    let mut star = star_of(4, &mut src);
    let before: Vec<_> = (0..4).map(|i| star.keyset(UserId(i)).unwrap()).collect();
    let ev = star.leave(UserId(0), &mut src).unwrap();
    let out = Rekeyer::new(KeyCipher::des_cbc(), interval).batch(&ev, Strategy::UserOriented);
    let (_, new_gk) = star.group_key();
    let bundles: Vec<_> = out.messages.iter().flat_map(|m| &m.bundles).collect();
    // The leaver holds its individual key and the old group key; neither
    // seals anything, and neither opens any bundle to the new group key.
    for (held_ref, held) in &before[0] {
        for b in &bundles {
            assert_ne!(b.encrypted_with, *held_ref);
            if let Ok(plain) = open(held, interval, b) {
                assert_ne!(plain, new_gk.material());
            }
        }
    }
    // Each survivor opens the one message addressed to it.
    for (i, keys) in before.iter().enumerate().skip(1) {
        let (leaf_ref, leaf_key) = &keys[0];
        let msg = (out.messages.iter())
            .find(|m| star.resolve(&m.recipients) == [UserId(i as u64)])
            .unwrap();
        assert_eq!(msg.bundles[0].encrypted_with, *leaf_ref);
        let b = &msg.bundles[0];
        let plain = open(leaf_key, interval, b).unwrap();
        assert_eq!(plain, new_gk.material());
    }
}

#[test]
fn star_group_key_rotates_every_operation() {
    let mut src = HmacDrbg::from_seed(30);
    let mut star = star_of(3, &mut src);
    let (r0, k0) = star.group_key();
    let ik = src.generate_key(8);
    star.join(UserId(50), ik, &mut src).unwrap();
    let (r1, k1) = star.group_key();
    assert!(r1.version > r0.version);
    assert_ne!(k0, k1);
    star.leave(UserId(50), &mut src).unwrap();
    let (r2, k2) = star.group_key();
    assert!(r2.version > r1.version);
    assert_ne!(k1, k2);
}

#[test]
fn star_membership_errors() {
    let mut src = HmacDrbg::from_seed(29);
    let mut star = star_of(2, &mut src);
    let ik = src.generate_key(8);
    assert_eq!(
        star.join(UserId(0), ik, &mut src).unwrap_err(),
        TreeError::AlreadyMember(UserId(0))
    );
    assert_eq!(star.leave(UserId(42), &mut src).unwrap_err(), TreeError::NotAMember(UserId(42)));
    assert_eq!(star.user_count(), 2);
    assert!(star.is_member(UserId(1)));
    assert!(star.keyset(UserId(1)).is_some());
    assert!(star.keyset(UserId(42)).is_none());
}

/// Figure 2: the first join into an empty group sends the new group key
/// to the joiner alone, one encryption, under every shipped strategy, at
/// the star and in trees of degree 2 and 4. Nobody held the old root key,
/// so nothing is sealed under it. The first interval into an empty group
/// (as many joiners as the root takes) likewise sends only the joiners'
/// unicasts.
#[test]
fn first_join_into_an_empty_group_is_figure_2() {
    for degree in [STAR, 2, 4] {
        for strategy in Strategy::ALL {
            let cell = format!("degree {degree}, {strategy:?}");
            let mut src = HmacDrbg::from_seed(27);
            let interval = 28;
            let mut tree = KeyTree::new(degree, 8, &mut src);
            let ik = src.generate_key(8);
            let ev = tree.join(UserId(1), ik, &mut src).unwrap();
            let out = Rekeyer::new(KeyCipher::des_cbc(), interval).join(&ev, strategy);
            assert_eq!(out.ops.key_encryptions, 1, "{cell}");
            assert_eq!(out.messages.len(), 1, "{cell}");
            assert_eq!(out.messages[0].recipients, Recipients::User(UserId(1)), "{cell}");

            let mut tree = KeyTree::new(degree, 8, &mut src);
            let joins: Vec<(UserId, SymmetricKey)> =
                (0..degree.min(3) as u64).map(|i| (UserId(i), src.generate_key(8))).collect();
            let ev = tree.apply_batch(&joins, &[], &mut src).unwrap();
            let out = Rekeyer::new(KeyCipher::des_cbc(), interval).batch(&ev, strategy);
            let to: Vec<&Recipients> = out.messages.iter().map(|m| &m.recipients).collect();
            let unicasts: Vec<Recipients> =
                joins.iter().map(|&(u, _)| Recipients::User(u)).collect();
            assert_eq!(to, unicasts.iter().collect::<Vec<_>>(), "{cell}");
            assert_eq!(out.ops.key_encryptions, joins.len() as u64, "{cell}");
        }
    }
}
