//! Baseline structures through the umbrella API: the star's Θ(n) wall,
//! the complete graph's exponential wall, and the Iolus trade-off —
//! the design space the key tree sits in the middle of.

use keygraphs::core::complete::CompleteGroup;
use keygraphs::core::ids::UserId;
use keygraphs::core::rekey::{KeyCipher, Recipients, Rekeyer, Strategy};
use keygraphs::core::star::StarGroup;
use keygraphs::core::tree::KeyTree;
use keygraphs::crypto::drbg::HmacDrbg;
use keygraphs::crypto::KeySource;
use keygraphs::iolus::IolusSystem;

#[test]
fn design_space_orderings_hold() {
    // For the same membership change at n = 128, the three structures'
    // leave costs order: tree << star; complete = 0 but with 2^n keys.
    let n = 128u64;
    let mut src = HmacDrbg::from_seed(1);
    let mut ivs = HmacDrbg::from_seed(2);

    // Star.
    let mut star = StarGroup::new(8, KeyCipher::des_cbc(), &mut src);
    for i in 0..n {
        let ik = src.generate_key(8);
        star.join(UserId(i), ik, &mut src, &mut ivs).unwrap();
    }
    let star_cost = star.leave(UserId(0), &mut src, &mut ivs).unwrap().ops.key_encryptions;

    // Tree.
    let mut tree = KeyTree::new(4, 8, &mut src);
    for i in 0..n {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, &mut src).unwrap();
    }
    let ev = tree.leave(UserId(0), &mut src).unwrap();
    let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
    let tree_cost = rk.batch(&ev, Strategy::GroupOriented).ops.key_encryptions;

    assert!(tree_cost < star_cost / 4, "tree {tree_cost} vs star {star_cost}");

    // Complete (small n only — that's the point).
    let mut complete = CompleteGroup::new(8);
    for i in 0..10u64 {
        complete.join(UserId(i), &mut src).unwrap();
    }
    assert_eq!(complete.key_count(), (1 << 10) - 1);
    let ops = complete.leave(UserId(0)).unwrap();
    assert_eq!(ops.keys_generated, 0, "complete-graph leaves cost nothing…");
    assert_eq!(complete.key_count(), (1 << 9) - 1, "…but the key count is exponential");
}

#[test]
fn iolus_and_tree_secure_the_same_workload() {
    // Same churn against both systems; both must keep evicted members out,
    // by their respective mechanisms.
    let mut src = HmacDrbg::from_seed(3);
    let mut ivs = HmacDrbg::from_seed(4);

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
    let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
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

#[test]
fn star_recipients_are_exactly_the_survivors() {
    let mut src = HmacDrbg::from_seed(5);
    let mut ivs = HmacDrbg::from_seed(6);
    let mut star = StarGroup::new(8, KeyCipher::des_cbc(), &mut src);
    for i in 0..10u64 {
        let ik = src.generate_key(8);
        star.join(UserId(i), ik, &mut src, &mut ivs).unwrap();
    }
    let out = star.leave(UserId(4), &mut src, &mut ivs).unwrap();
    let mut recipients: Vec<UserId> = out
        .messages
        .iter()
        .map(|m| match m.recipients {
            Recipients::User(u) => u,
            ref other => panic!("star leave must unicast, got {other:?}"),
        })
        .collect();
    recipients.sort();
    let expected: Vec<UserId> = (0..10).filter(|&i| i != 4).map(UserId).collect();
    assert_eq!(recipients, expected);
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
    // implementation refuses anything beyond MAX_USERS.
    const { assert!(keygraphs::core::complete::MAX_USERS < 16) };
}
