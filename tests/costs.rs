//! Measured costs vs the paper's analytical model (Tables 1–3), across a
//! grid of group sizes and degrees.

use keygraphs::core::cost::{self, GraphClass};
use keygraphs::core::ids::{KeyLabel, UserId};
use keygraphs::core::keygraph::KeyGraph;
use keygraphs::core::rekey::{KeyCipher, Rekeyer, Strategy};
use keygraphs::core::tree::KeyTree;
use keygraphs::crypto::drbg::HmacDrbg;
use keygraphs::crypto::KeySource;
use std::collections::BTreeSet;

fn full_tree(n: u64, d: usize) -> (KeyTree, HmacDrbg) {
    let mut src = HmacDrbg::from_seed(42);
    let mut tree = KeyTree::new(d, 8, &mut src);
    for i in 0..n {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, &mut src).unwrap();
    }
    (tree, src)
}

#[test]
fn table1_key_counts_over_grid() {
    for d in [2usize, 4, 8] {
        for exp in 1..=3u32 {
            let n = (d as u64).pow(exp);
            let (tree, _) = full_tree(n, d);
            // Exactly full & balanced: geometric sum of k-nodes.
            let expected = cost::server_total_keys(GraphClass::Tree, n, d as u64);
            assert_eq!(
                tree.key_count() as u64,
                expected,
                "n={n}, d={d}: key count vs (d^h - 1)/(d - 1)"
            );
            assert_eq!(tree.height() as u64, cost::tree_height(n, d as u64));
        }
    }
}

#[test]
fn table2_server_join_cost_exact_on_full_trees() {
    // On a perfectly full, balanced tree, measured encryptions equal the
    // formulas exactly.
    for d in [2usize, 3, 4] {
        let n = (d as u64).pow(3);
        let (mut tree, mut src) = full_tree(n, d);
        let h = cost::tree_height(n, d as u64); // tree is full: h = 4
                                                // Join: the tree is full, so the join splits a leaf; height grows.
                                                // Use a tree with one slot free instead: remove one user first.
        tree.leave(UserId(0), &mut src).unwrap();
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(999), ik, &mut src).unwrap();
        let interval = 1;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let out = rk.join(&ev, Strategy::KeyOriented);
        assert_eq!(out.ops.key_encryptions, 2 * (h - 1), "d={d}: join cost 2(h-1)");
    }
}

#[test]
fn table2_server_leave_cost_exact_on_full_trees() {
    for d in [2usize, 3, 4] {
        let n = (d as u64).pow(3);
        let (mut tree, mut src) = full_tree(n, d);
        let h = cost::tree_height(n, d as u64);
        let ev = tree.leave(UserId(n - 1), &mut src).unwrap();
        let interval = 2;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let out = rk.batch(&ev, Strategy::GroupOriented);
        // Leaving point drops to d−1 children and contracts only at d=2;
        // at d≥3 cost is exactly d(h−1) − 1 + ... : the leaving level has
        // d−1 survivors, others d−1 siblings + 1 path child = d.
        // Fig 8/9 cost: d(h−1) assumes the leaving level also has d
        // children pre-departure → d−1 after. Measured:
        let expected = if d == 2 {
            // Contraction: the unary leaving point is spliced away, so the
            // path has h−2 nodes and every level encrypts for d children.
            (d as u64) * (h - 2)
        } else {
            // Leaving level keeps d−1 survivors; each higher level has d−1
            // sibling children plus the path child's fresh key.
            (d as u64 - 1) + (d as u64) * (h - 2)
        };
        assert_eq!(out.ops.key_encryptions, expected, "d={d}");
        // The paper's d(h−1) is the upper bound; we're within d of it.
        assert!(out.ops.key_encryptions <= d as u64 * (h - 1));
        assert!(out.ops.key_encryptions + d as u64 > d as u64 * (h - 1) - d as u64);
    }
}

#[test]
fn star_costs_scale_linearly() {
    // The star is a key tree whose degree no group reaches.
    let mut src = HmacDrbg::from_seed(3);
    let interval = 4;
    for n in [8u64, 32, 128] {
        let mut star = KeyTree::new(u32::MAX as usize, 8, &mut src);
        for i in 0..n {
            let ik = src.generate_key(8);
            star.join(UserId(i), ik, &mut src).unwrap();
        }
        assert_eq!(star.key_count() as u64, cost::server_total_keys(GraphClass::Star, n, 0));
        assert_eq!(star.height() as u64, cost::keys_per_user(GraphClass::Star, n, 0));
        let ev = star.leave(UserId(0), &mut src).unwrap();
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let out = rk.batch(&ev, Strategy::GroupOriented);
        assert_eq!(out.ops.key_encryptions, n - 1, "star leave is Θ(n)");
    }
}

#[test]
fn tree_beats_star_beyond_small_n() {
    // The paper's motivating claim, measured: for n ≥ 32 the tree's leave
    // cost d(h−1) is far below the star's n−1.
    for n in [32u64, 256, 1024] {
        let (mut tree, mut src) = full_tree(n, 4);
        let ev = tree.leave(UserId(n / 2), &mut src).unwrap();
        let interval = 5;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let tree_cost = rk.batch(&ev, Strategy::GroupOriented).ops.key_encryptions;
        let star_cost = n - 1;
        assert!(tree_cost * 2 < star_cost, "n={n}: tree {tree_cost} vs star {star_cost}");
        if n >= 1024 {
            // At scale the gap is an order of magnitude and more.
            assert!(tree_cost * 10 < star_cost);
        }
    }
}

#[test]
fn average_cost_tracks_table3_under_churn() {
    // Run mixed churn and verify the running average sits near
    // (d+2)(h−1)/2 for the tree.
    let d = 4usize;
    let n = 256u64;
    let (mut tree, mut src) = full_tree(n, d);
    let interval = 6;
    let mut total_enc = 0u64;
    let ops = 100u64;
    let mut next = n;
    for i in 0..ops {
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        if i % 2 == 0 {
            let ik = src.generate_key(8);
            let ev = tree.join(UserId(next), ik, &mut src).unwrap();
            next += 1;
            total_enc += rk.join(&ev, Strategy::GroupOriented).ops.key_encryptions;
        } else {
            let victim = tree.members().next().unwrap();
            let ev = tree.leave(victim, &mut src).unwrap();
            total_enc += rk.batch(&ev, Strategy::GroupOriented).ops.key_encryptions;
        }
    }
    let measured = total_enc as f64 / ops as f64;
    let formula = cost::avg_cost_server(GraphClass::Tree, n, d as u64);
    let ratio = measured / formula;
    assert!((0.5..=1.5).contains(&ratio), "measured {measured:.2} vs formula {formula:.2}");
}

#[test]
fn complete_graph_bracket() {
    let g = KeyGraph::complete((0..6).map(UserId));
    // Table 1 and Table 2 complete-column behaviour.
    assert_eq!(g.key_count() as u64, cost::server_total_keys(GraphClass::Complete, 6, 0));
    assert_eq!(g.keyset(UserId(3)).len() as u64, cost::keys_per_user(GraphClass::Complete, 6, 0));
    // A leave generates nothing: every survivor subset already has its key,
    // and only the leaver's 2^5 subsets go.
    let before: BTreeSet<KeyLabel> = g.keys().collect();
    let after: BTreeSet<KeyLabel> = KeyGraph::complete((1..6).map(UserId)).keys().collect();
    assert!(after.is_subset(&before), "complete-graph leaves are free");
    assert_eq!(before.len() - after.len(), 1 << 5);
}

#[test]
fn message_count_formulas_hold_on_full_trees() {
    let d = 4usize;
    let n = (d as u64).pow(3);
    let (mut tree, mut src) = full_tree(n, d);
    let h = cost::tree_height(n, d as u64);
    // Leave from a full tree.
    let ev = tree.leave(UserId(n - 1), &mut src).unwrap();
    let interval = 8;
    let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
    let user_msgs = rk.batch(&ev, Strategy::UserOriented).messages.len() as u64;
    let key_msgs = rk.batch(&ev, Strategy::KeyOriented).messages.len() as u64;
    let group_msgs = rk.batch(&ev, Strategy::GroupOriented).messages.len() as u64;
    // (d−1)(h−1) with the leaving level one short: exact count is
    // (d−1)(h−2) + (d−1) = (d−1)(h−1).
    assert_eq!(user_msgs, (d as u64 - 1) * (h - 1));
    assert_eq!(key_msgs, user_msgs);
    assert_eq!(group_msgs, 1);
}
