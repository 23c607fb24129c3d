//! The §7 hybrid rekeying strategy (the paper's future-work proposal,
//! implemented).
//!
//! "A more practical approach, however, is to allocate just a small number
//! of multicast addresses (e.g., one for each child of the key tree's root
//! node) and use a rekeying strategy that is a hybrid of group-oriented
//! and key-oriented rekeying."
//!
//! Concretely: one rekey message per *top-level subtree* (child of the
//! root), multicast on that subtree's address. The message carries every
//! new key any member of that subtree needs — group-oriented *within* the
//! subtree — while subtrees that only need the new group key receive a
//! single small message — key-oriented *across* subtrees. The joiner still
//! gets its unicast bundle.
//!
//! Properties (verified by the tests below and `report hybrid`):
//!
//! * messages per request = (number of root children) + 1 for a join /
//!   + 0 for a leave — independent of group size, like group-oriented;
//! * off-path subtrees receive O(1)-size messages, like key-oriented —
//!   the big leave message travels only on the affected subtree's address;
//! * multicast addresses required: one per root child (≤ d), instead of
//!   one per k-node (key-oriented) or one group-wide flood of full-size
//!   messages (group-oriented).

use crate::batch::BatchEvent;
use crate::rekey::{unicast_joiners, OpCounts, Recipients, RekeyMessage, RekeyOutput, Rekeyer};

impl Rekeyer<'_> {
    /// Hybrid rekeying for the event of a single join. The top-level
    /// subtrees are the root's children as the event records them.
    pub fn join_hybrid(&mut self, ev: &BatchEvent) -> RekeyOutput {
        let mut sealer = self.sealer();
        let path = &ev.marked; // root-first
        let mut ops = OpCounts { keys_generated: path.len() as u64, ..OpCounts::default() };
        let mut messages = Vec::new();

        // One ciphertext per changed key, each under its old key (as in
        // key-oriented joins); built once, shared across messages.
        let singles: Vec<_> = path
            .iter()
            .map(|p| sealer.bundle(&mut ops, p.old_ref, &p.old_key, &[(p.new_ref, &p.new_key)]))
            .collect();

        // When the joining point *is* the root, no child of the root is
        // marked and every top-level subtree is off-path.
        for child in &path[0].children {
            if child.joiner.is_some() {
                continue; // the joiner's own leaf: served by the unicast below
            }
            let bundles = if child.marked {
                singles.clone() // needs every changed key on the path
            } else {
                vec![singles[0].clone()] // needs only the new group key
            };
            messages.push(RekeyMessage { recipients: Recipients::Subgroup(child.label), bundles });
        }

        unicast_joiners(&mut sealer, &mut ops, ev, &mut messages);
        RekeyOutput { messages, ops }
    }

    /// Hybrid rekeying for the event of a single leave.
    pub fn leave_hybrid(&mut self, ev: &BatchEvent) -> RekeyOutput {
        let mut sealer = self.sealer();
        let mut ops = OpCounts { keys_generated: ev.marked.len() as u64, ..OpCounts::default() };
        let mut messages = Vec::new();
        let Some((root, below)) = ev.marked.split_first() else {
            return RekeyOutput { messages, ops }; // the group became empty
        };

        // Group-oriented levels for the path's subtree: each new key below
        // the root under each of its node's child keys, the child on the
        // path holding its fresh key.
        let mut inner = Vec::new();
        for m in below {
            for c in &m.children {
                inner.push(sealer.bundle(&mut ops, c.key_ref, &c.key, &[(m.new_ref, &m.new_key)]));
            }
        }

        // Every top-level subtree gets the new group key under its own key
        // (fresh, for the affected subtree, which also gets all inner
        // levels).
        for child in &root.children {
            let mut bundles = vec![sealer.bundle(
                &mut ops,
                child.key_ref,
                &child.key,
                &[(root.new_ref, &root.new_key)],
            )];
            if child.marked {
                bundles.extend(inner.iter().cloned());
            }
            messages.push(RekeyMessage { recipients: Recipients::Subgroup(child.label), bundles });
        }
        RekeyOutput { messages, ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::rekey::KeyCipher;
    use crate::tree::KeyTree;
    use kg_crypto::drbg::HmacDrbg;
    use kg_crypto::{KeySource, SymmetricKey};
    use std::collections::BTreeMap;

    fn tree_of(n: u64, d: usize) -> (KeyTree, HmacDrbg, BTreeMap<UserId, SymmetricKey>) {
        let mut src = HmacDrbg::from_seed(0xC0FFEE);
        let mut tree = KeyTree::new(d, 8, &mut src);
        let mut iks = BTreeMap::new();
        for i in 0..n {
            let ik = src.generate_key(8);
            iks.insert(UserId(i), ik.clone());
            tree.join(UserId(i), ik, &mut src).unwrap();
        }
        (tree, src, iks)
    }

    /// Simulate a member's decryption: walk its path keys and fixed-point
    /// decrypt the bundles it can open; return the group key it ends with.
    fn recover_group_key(
        tree_keyset: &[(crate::ids::KeyRef, SymmetricKey)],
        messages: &[RekeyMessage],
        root_label: crate::ids::KeyLabel,
    ) -> Option<SymmetricKey> {
        let mut held: BTreeMap<_, _> =
            tree_keyset.iter().map(|(r, k)| (r.label, (r.version, k.clone()))).collect();
        loop {
            let mut progress = false;
            for m in messages {
                for b in m.bundles.iter() {
                    let Some((v, key)) = held.get(&b.encrypted_with.label) else { continue };
                    if *v != b.encrypted_with.version {
                        continue;
                    }
                    let key = key.clone();
                    let plain = KeyCipher::des_cbc().decrypt(&key, &b.iv, &b.ciphertext).ok()?;
                    for (i, t) in b.targets.iter().enumerate() {
                        let material = &plain[i * 8..(i + 1) * 8];
                        let newer = held.get(&t.label).is_none_or(|(v, _)| t.version > *v);
                        if newer {
                            held.insert(t.label, (t.version, SymmetricKey::from_bytes(material)));
                            progress = true;
                        }
                    }
                }
            }
            if !progress {
                break;
            }
        }
        held.get(&root_label).map(|(_, k)| k.clone())
    }

    #[test]
    fn hybrid_leave_message_count_is_root_fanout() {
        let (mut tree, mut src, _) = tree_of(64, 4);
        let ev = tree.leave(UserId(17), &mut src).unwrap();
        let roots = &ev.marked[0].children;
        let mut ivs = HmacDrbg::from_seed(1);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let out = rk.leave_hybrid(&ev);
        assert_eq!(out.messages.len(), roots.len());
        // Off-path messages carry exactly one key; the path message many.
        let sizes: Vec<usize> = out.messages.iter().map(|m| m.key_count()).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), roots.len() - 1);
        assert!(sizes.iter().any(|&s| s > 1));
    }

    #[test]
    fn hybrid_join_message_count() {
        let (mut tree, mut src, _) = tree_of(64, 4);
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(1000), ik, &mut src).unwrap();
        let roots = &ev.marked[0].children;
        let mut ivs = HmacDrbg::from_seed(2);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let out = rk.join_hybrid(&ev);
        // One per top-level subtree plus the joiner unicast.
        assert_eq!(out.messages.len(), roots.len() + 1);
    }

    #[test]
    fn hybrid_leave_lets_every_survivor_recover_the_group_key() {
        let (mut tree, mut src, _) = tree_of(48, 3);
        // Capture each member's keyset before the leave.
        let keysets: BTreeMap<UserId, _> =
            tree.members().map(|u| (u, tree.keyset(u).unwrap())).collect();
        let victim = UserId(20);
        let ev = tree.leave(victim, &mut src).unwrap();
        let mut ivs = HmacDrbg::from_seed(3);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let out = rk.leave_hybrid(&ev);
        let (gk_ref, gk) = tree.group_key();
        for (u, ks) in &keysets {
            if *u == victim {
                continue;
            }
            let got = recover_group_key(ks, &out.messages, gk_ref.label)
                .unwrap_or_else(|| panic!("{u} failed to recover"));
            assert_eq!(got, gk, "{u}");
        }
        // The victim cannot.
        let got = recover_group_key(&keysets[&victim], &out.messages, gk_ref.label);
        assert_ne!(got.as_ref(), Some(&gk), "victim recovered the new group key");
    }

    #[test]
    fn hybrid_join_lets_everyone_track_the_group_key() {
        let (mut tree, mut src, _) = tree_of(27, 3);
        let keysets: BTreeMap<UserId, _> =
            tree.members().map(|u| (u, tree.keyset(u).unwrap())).collect();
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(500), ik.clone(), &mut src).unwrap();
        let mut ivs = HmacDrbg::from_seed(4);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let out = rk.join_hybrid(&ev);
        let (gk_ref, gk) = tree.group_key();
        for (u, ks) in &keysets {
            let got = recover_group_key(ks, &out.messages, gk_ref.label)
                .unwrap_or_else(|| panic!("{u} failed"));
            assert_eq!(got, gk, "{u}");
        }
        // The joiner recovers from its unicast.
        let joiner_ks = vec![(ev.joins[0].leaf_ref, ik)];
        let got = recover_group_key(&joiner_ks, &out.messages, gk_ref.label).unwrap();
        assert_eq!(got, gk);
    }

    #[test]
    fn hybrid_join_at_root_attach() {
        // A join whose joining point is the root itself (small group).
        let (mut tree, mut src, _) = tree_of(2, 4);
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(99), ik, &mut src).unwrap();
        assert_eq!(ev.marked.len(), 1, "only the root changed");
        let roots = &ev.marked[0].children;
        let mut ivs = HmacDrbg::from_seed(5);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let out = rk.join_hybrid(&ev);
        // Every pre-existing leaf gets a one-key message; joiner unicast.
        assert_eq!(out.messages.len(), roots.len()); // (roots includes joiner leaf, skipped) + unicast
        let (gk_ref, gk) = tree.group_key();
        // Each pre-existing member can recover via its individual key.
        for m in tree.members().collect::<Vec<_>>() {
            if m == UserId(99) {
                continue;
            }
            let ks = tree.keyset(m).unwrap();
            // Use only the individual key + old knowledge: recover via msgs.
            let got = recover_group_key(&ks[..1], &out.messages, gk_ref.label);
            // ks[..1] is the individual key; for an attach-at-root join the
            // group key bundle is under the OLD root key which the member
            // held — but we only gave it the individual key, so fall back
            // to the full pre-state path below.
            let _ = got;
            let full = recover_group_key(&ks, &out.messages, gk_ref.label).unwrap();
            assert_eq!(full, gk);
        }
    }

    #[test]
    fn hybrid_empty_leave_is_empty() {
        let (mut tree, mut src, _) = tree_of(1, 4);
        let ev = tree.leave(UserId(0), &mut src).unwrap();
        let mut ivs = HmacDrbg::from_seed(6);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let out = rk.leave_hybrid(&ev);
        assert!(out.messages.is_empty());
    }

    #[test]
    fn hybrid_encryption_cost_between_key_and_group() {
        // Cost sanity: hybrid pays ~d(h-1) like key/group-oriented, plus at
        // most deg(root) extra root-key wrappings.
        let (mut tree, mut src, _) = tree_of(256, 4);
        let ev = tree.leave(UserId(100), &mut src).unwrap();
        let d = tree.degree() as u64;
        let h = tree.height() as u64;
        let mut ivs = HmacDrbg::from_seed(7);
        let mut rk = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
        let hybrid = rk.leave_hybrid(&ev).ops.key_encryptions;
        let group = rk.batch(&ev, crate::rekey::Strategy::GroupOriented).ops.key_encryptions;
        assert!(hybrid <= group + d, "hybrid {hybrid} vs group {group} (d={d}, h={h})");
        assert!(hybrid >= group.saturating_sub(d));
    }
}
