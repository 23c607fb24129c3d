//! The one tree mutation — the marking algorithm over a rekey interval.
//!
//! The paper's join (§3.3) and leave (§3.4) are the same tree operation:
//! change the membership at one leaf, then *replace every key on the path
//! from the changed node to the root*. The follow-on literature (CKCS;
//! Chan et al.'s approximation algorithms for batched key management) makes
//! the *rekey interval* the unit: all membership changes of an interval
//! become one tree update in which departed users' leaf slots are refilled
//! by joiners first, the tree then grows or shrinks, and every key on the
//! union of the changed paths is replaced **once**, no matter how many
//! operations touched it. A single request is the interval of size one,
//! and a group-key refresh is the interval of size zero.
//!
//! [`KeyTree::apply_interval`] is that update, and the only code that
//! links or unlinks nodes of a live tree or replaces a key;
//! [`KeyTree::join`], [`KeyTree::leave`], [`KeyTree::refresh_group_key`]
//! and [`KeyTree::apply_batch`] are its callers:
//!
//! 1. **Detach** all departing leaves, remembering each vacated parent.
//! 2. **Attach** joiners, preferring vacated interior slots (shallowest
//!    first) before falling back to the tree's join heuristic (which may
//!    split a leaf: a fresh interior node takes the leaf's place and adopts
//!    both the displaced leaf and the newcomer).
//! 3. **Contract** degenerate structure left behind: interior nodes that
//!    lost all users are removed; unary non-root interiors are spliced
//!    into their grandparent.
//! 4. **Mark** the ancestor closure of every node touched above, and of
//!    the root. The marked set is the minimal set of keys to replace: it
//!    contains the group key, every key a departed user held and every key
//!    on a joiner's path, and each marked node's version is bumped exactly
//!    once for the interval. For a single join or leave it is the paper's
//!    path x_0 … x_j from the root to the joining or leaving point.
//!
//! The returned [`BatchEvent`] is the one event the rekey constructions
//! read. For every marked node it carries the key it replaces (what
//! [`Rekeyer::join`](crate::rekey::Rekeyer::join), §3.3, encrypts the new
//! key under) and the post-interval keys of all its children (what
//! [`Rekeyer::batch`](crate::rekey::Rekeyer::batch), §3.4 generalised to
//! any interval, encrypts it under: the child's *new* key if the child is
//! itself marked); joiners receive their whole path in one unicast under
//! their individual key.

use crate::derive::DerivedLink;
use crate::ids::{KeyLabel, KeyRef, UserId};
use crate::tree::{JoinSlot, KeyTree, NodeId, TreeError};
use kg_crypto::{KeySource, SymmetricKey};
use std::collections::{BTreeMap, BTreeSet};

/// One child of a marked node, as seen *after* the interval was applied.
#[derive(Debug, Clone)]
pub struct BatchChild {
    /// The child k-node's label (or a user leaf's label).
    pub label: KeyLabel,
    /// Whether the child itself is marked (its `key` below is new).
    pub marked: bool,
    /// The child's current key reference (post-interval).
    pub key_ref: KeyRef,
    /// The child's current key material (post-interval).
    pub key: SymmetricKey,
    /// `Some(u)` iff this child is the individual-key leaf of a user who
    /// joined in this interval (such children are served by unicast, not by
    /// a ciphertext under their individual key).
    pub joiner: Option<UserId>,
}

/// One key replaced by the interval, with everything needed to distribute
/// it.
#[derive(Debug, Clone)]
pub struct MarkedNode {
    /// The k-node's stable label.
    pub label: KeyLabel,
    /// Reference of the replacement key (version bumped once per interval).
    pub new_ref: KeyRef,
    /// The replacement key material.
    pub new_key: SymmetricKey,
    /// Reference of the key the node's previous holders know it by: the
    /// node's own key one version earlier — or, for a node created by a
    /// leaf split, the displaced member's individual key (its holders, just
    /// the displaced member, are exactly the new node's previous userset).
    /// A replacement may be encrypted under, or derived from, this key only
    /// when nobody left in the interval.
    pub old_ref: KeyRef,
    /// The key material at `old_ref`.
    pub old_key: SymmetricKey,
    /// All children with their post-interval keys.
    pub children: Vec<BatchChild>,
}

/// A user admitted by the interval.
#[derive(Debug, Clone)]
pub struct BatchJoin {
    /// The joining user.
    pub user: UserId,
    /// Label of the new individual-key leaf.
    pub leaf_label: KeyLabel,
    /// Reference of the joiner's individual key.
    pub leaf_ref: KeyRef,
    /// The joiner's individual key (from the authentication exchange).
    pub leaf_key: SymmetricKey,
    /// The joiner's new key path, root-first (group key … joining point);
    /// every entry is a *marked* node, so all of these are interval-fresh.
    pub path: Vec<(KeyRef, SymmetricKey)>,
}

/// Result of applying one interval's worth of membership changes.
#[derive(Debug, Clone, Default)]
pub struct BatchEvent {
    /// Replaced keys, root-first: the root is always first, and for a
    /// single join or leave the rest is the path down to the joining or
    /// leaving point. Empty when the interval left the group without
    /// members: the root key is still rotated, but there is nobody to tell.
    pub marked: Vec<MarkedNode>,
    /// Users admitted this interval, with their unicast key paths.
    pub joins: Vec<BatchJoin>,
    /// Users removed this interval.
    pub departed: Vec<UserId>,
}

impl BatchEvent {
    /// Labels of the replaced keys (the "marked set"), root-first.
    pub fn marked_labels(&self) -> Vec<KeyLabel> {
        self.marked.iter().map(|m| m.label).collect()
    }

    /// One derivation link per replaced key, in `marked` order: what a
    /// derived rekey packet publishes beside the code when the interval's
    /// keys were replaced under [`NewKeyMode::Derived`].
    pub fn derived_links(&self) -> Vec<DerivedLink> {
        self.marked.iter().map(|m| DerivedLink { new_ref: m.new_ref, from: m.old_ref }).collect()
    }

    /// The interval's **key cover** as a flat work list: every
    /// `(marked node, child)` edge whose ciphertext `{K'_x}_{K_y}` a
    /// rekey strategy may need.
    ///
    /// # Iteration order (stable, documented, relied upon)
    ///
    /// Edges are yielded in *cover order*: marked nodes root-first in
    /// the breadth-first order `apply_interval` replaced them (`marked` is
    /// built from an explicit BFS over `BTreeMap`-backed structures —
    /// no hash-map iteration anywhere), and within each node its
    /// children in the recorded child order (the order the arena stores
    /// them — insertion order, maintained across splices). Two
    /// `BatchEvent`s with equal contents therefore yield identical
    /// sequences, on every platform and run.
    ///
    /// The rekey builders consume the cover in exactly this order, so
    /// the order fixes the order of seals within a packet. Crash-recovery
    /// replay and the pinned bundle-digest test both depend on this being
    /// a total order, not an implementation accident.
    pub fn key_cover(&self) -> impl Iterator<Item = (&MarkedNode, &BatchChild)> {
        self.marked.iter().flat_map(|m| m.children.iter().map(move |c| (m, c)))
    }
}

/// How an interval obtains the replacement keys of its marked nodes.
#[derive(Debug, Clone, Copy)]
pub enum NewKeyMode<'a> {
    /// Drawn from the key source, root-first in `marked` order — what the
    /// paper's strategies ship.
    Fresh,
    /// [`crate::derive::derive_key`]`(old_key, code, label, new_version)`
    /// per marked node, `old_key` being [`MarkedNode::old_key`] — what
    /// [`crate::rekey::Strategy::Derived`] publishes a code for. Only a
    /// leave-free interval may derive: a departed member holds the old keys
    /// and could run the public derivation too.
    Derived(&'a [u8]),
}

impl KeyTree {
    /// Admit `u` with the given individual key (from the authentication
    /// exchange) and replace every key from the joining point to the root:
    /// the interval of one join.
    pub fn join(
        &mut self,
        u: UserId,
        individual_key: SymmetricKey,
        source: &mut dyn KeySource,
    ) -> Result<BatchEvent, TreeError> {
        self.apply_interval(&[(u, individual_key)], &[], source, NewKeyMode::Fresh)
    }

    /// Remove `u` and replace every key from the leaving point to the root:
    /// the interval of one leave.
    pub fn leave(
        &mut self,
        u: UserId,
        source: &mut dyn KeySource,
    ) -> Result<BatchEvent, TreeError> {
        self.apply_interval(&[], &[u], source, NewKeyMode::Fresh)
    }

    /// Replace the group key without any membership change — periodic
    /// rotation, or fencing off a key that may have leaked with a crashed
    /// process: the interval of no requests, which marks the root alone.
    pub fn refresh_group_key(&mut self, source: &mut dyn KeySource) -> BatchEvent {
        self.apply_interval(&[], &[], source, NewKeyMode::Fresh)
            .expect("an interval without requests has none to reject")
    }

    /// Apply one rekey interval's joins and leaves with fresh replacement
    /// keys.
    pub fn apply_batch(
        &mut self,
        joins: &[(UserId, SymmetricKey)],
        leaves: &[UserId],
        source: &mut dyn KeySource,
    ) -> Result<BatchEvent, TreeError> {
        self.apply_interval(joins, leaves, source, NewKeyMode::Fresh)
    }

    /// Apply one rekey interval's joins and leaves as a single tree
    /// update, replacing the group key and each key on the union of the
    /// changed paths exactly once.
    ///
    /// Validation is all-or-nothing: every leaver must be a current
    /// member (listed once), every joiner must be a non-member after the
    /// leaves are accounted for (so a user may leave and rejoin in one
    /// interval), and on any validation error the tree is unchanged.
    ///
    /// Under [`NewKeyMode::Fresh`] `source` supplies the replacement keys,
    /// one per marked node, root-first; a derived interval draws nothing
    /// from it. A created node holds a key that is already known, never a
    /// drawn one: a joiner's leaf its individual key, a split-created
    /// interior the displaced member's individual key.
    ///
    /// # Panics
    /// Panics on a derived interval that contains a leave (forward
    /// secrecy; the caller ships such an interval's keys instead).
    pub fn apply_interval(
        &mut self,
        joins: &[(UserId, SymmetricKey)],
        leaves: &[UserId],
        source: &mut dyn KeySource,
        mode: NewKeyMode<'_>,
    ) -> Result<BatchEvent, TreeError> {
        // The server alone picks the mode, and it derives only an operation
        // without a leave (any other takes the shipped fallback); no
        // datagram reaches this with a derived mode and a leave.
        assert!(
            matches!(mode, NewKeyMode::Fresh) || leaves.is_empty(),
            "derived intervals must be leave-free (forward secrecy)"
        );
        // ---- Validate up front (tree untouched on error). ----
        let mut leaving = BTreeSet::new();
        for &u in leaves {
            if !self.users.contains_key(&u) || !leaving.insert(u) {
                return Err(TreeError::NotAMember(u));
            }
        }
        let mut joining = BTreeSet::new();
        for &(u, _) in joins {
            if (self.users.contains_key(&u) && !leaving.contains(&u)) || !joining.insert(u) {
                return Err(TreeError::AlreadyMember(u));
            }
        }

        // Every interval replaces the group key.
        let mut touched: BTreeSet<NodeId> = BTreeSet::from([self.root]);
        let mut vacated: Vec<NodeId> = Vec::new();
        // For nodes created by leaf splits: the reference of the displaced
        // member's individual key, which the node holds until it is
        // rekeyed below (its one previous holder knows it by that name).
        let mut fresh_from: BTreeMap<NodeId, KeyRef> = BTreeMap::new();

        // ---- 1. Detach departing leaves. ----
        for &u in leaves {
            let leaf = self.users.remove(&u).expect("validated member");
            let parent = self.node(leaf).parent.expect("user leaf has a parent");
            let pos =
                self.node(parent).children.iter().position(|&c| c == leaf).expect("child link");
            self.node_mut(parent).children.remove(pos);
            self.dealloc(leaf);
            self.refresh_summaries(parent);
            touched.insert(parent);
            vacated.push(parent);
        }

        // ---- 2. Attach joiners, refilling vacated slots first. ----
        for &(u, ref individual_key) in joins {
            let refill = vacated
                .iter()
                .copied()
                .filter(|&id| {
                    self.nodes[id].is_some() && self.node(id).children.len() < self.degree
                })
                .min_by_key(|&id| (self.depth_knodes(id), self.node(id).sum.size, id));
            let joining_point = match refill {
                Some(id) => id,
                None => match self.find_join_slot() {
                    JoinSlot::Interior(id) => id,
                    JoinSlot::SplitLeaf(leaf_id) => {
                        // A fresh interior node takes the leaf's position
                        // and adopts the displaced leaf.
                        let (displaced_ref, displaced_key, parent) = {
                            let l = self.node(leaf_id);
                            let parent = l.parent.expect("leaf has a parent");
                            (KeyRef::new(l.label, l.version), l.key.clone(), parent)
                        };
                        let fresh = self.alloc(displaced_key, Some(parent), None);
                        let pos = self
                            .node(parent)
                            .children
                            .iter()
                            .position(|&c| c == leaf_id)
                            .expect("child link");
                        self.node_mut(parent).children[pos] = fresh;
                        self.node_mut(fresh).children.push(leaf_id);
                        self.node_mut(leaf_id).parent = Some(fresh);
                        fresh_from.insert(fresh, displaced_ref);
                        fresh
                    }
                },
            };
            let leaf = self.alloc(individual_key.clone(), Some(joining_point), Some(u));
            self.node_mut(joining_point).children.push(leaf);
            self.users.insert(u, leaf);
            self.refresh_summaries(joining_point);
            touched.insert(joining_point);
        }

        // ---- 3. Contract degenerate structure. ----
        // Interior nodes left with no users are removed; unary non-root
        // interiors are spliced into the grandparent (the survivors below
        // keep their keys — the departed never held them). Each action
        // moves the "touched" obligation up to the surviving parent.
        //
        // Only a node that lost a child can be degenerate: the vacated
        // parents now, a removed node's parent later. Lowest id first: the
        // order nodes are freed in is the order later joins reuse them.
        let mut candidates: BTreeSet<NodeId> = vacated.iter().copied().collect();
        while let Some(id) = candidates.pop_first() {
            let degenerate = id != self.root
                && self.nodes[id]
                    .as_ref()
                    .is_some_and(|n| n.user.is_none() && n.children.len() < 2);
            if !degenerate {
                continue;
            }
            let parent = self.node(id).parent.expect("non-root");
            let pos = self.node(parent).children.iter().position(|&c| c == id).expect("child link");
            if let Some(&only_child) = self.node(id).children.first() {
                self.node_mut(parent).children[pos] = only_child;
                self.node_mut(only_child).parent = Some(parent);
            } else {
                self.node_mut(parent).children.remove(pos);
                candidates.insert(parent);
            }
            self.dealloc(id);
            self.refresh_summaries(parent);
            touched.remove(&id);
            touched.insert(parent);
        }

        // ---- 4. Mark: ancestor closure of every touched node. ----
        let mut marked_set: BTreeSet<NodeId> = BTreeSet::new();
        for &t in &touched {
            for anc in self.ancestors_inclusive(t) {
                if !marked_set.insert(anc) {
                    break; // closure already contains the rest of this path
                }
            }
        }

        // Replace each marked key once, root-first in breadth-first order.
        // The marked set is ancestor-closed, so walking only marked
        // children visits it in the order a walk of the whole tree would.
        let mut order: Vec<NodeId> = vec![self.root];
        let mut next = 0;
        while let Some(&id) = order.get(next) {
            next += 1;
            order.extend(self.node(id).children.iter().filter(|&c| marked_set.contains(c)));
        }
        debug_assert_eq!(order.len(), marked_set.len());
        let mut marked: Vec<MarkedNode> = Vec::with_capacity(order.len());
        for &id in &order {
            let key_len = self.key_len;
            let split_from = fresh_from.remove(&id);
            let node = self.node_mut(id);
            let old_ref = split_from.unwrap_or(KeyRef::new(node.label, node.version));
            let new_ref = KeyRef::new(node.label, node.version.next());
            let new_key = match mode {
                NewKeyMode::Fresh => source.generate_key(key_len),
                NewKeyMode::Derived(code) => crate::derive::derive_key(
                    &node.key,
                    code,
                    new_ref.label,
                    new_ref.version,
                    key_len,
                ),
            };
            let old_key = std::mem::replace(&mut node.key, new_key.clone());
            node.version = new_ref.version;
            // Children are filled in once every marked child holds its new key.
            let children = Vec::new();
            marked.push(MarkedNode {
                label: new_ref.label,
                new_ref,
                new_key,
                old_ref,
                old_key,
                children,
            });
        }

        let departed: Vec<UserId> = leaves.to_vec();
        if self.users.is_empty() {
            // The root key has been rotated; there is nobody to tell.
            return Ok(BatchEvent { marked: Vec::new(), joins: Vec::new(), departed });
        }

        // ---- Assemble the event: children carry post-interval keys. ----
        for (m, &id) in marked.iter_mut().zip(&order) {
            m.children = self
                .node(id)
                .children
                .iter()
                .map(|&c| {
                    let n = self.node(c);
                    BatchChild {
                        label: n.label,
                        marked: marked_set.contains(&c),
                        key_ref: KeyRef::new(n.label, n.version),
                        key: n.key.clone(),
                        joiner: n.user.filter(|u| joining.contains(u)),
                    }
                })
                .collect();
        }

        let joins = joins
            .iter()
            .map(|&(u, ref individual_key)| {
                let leaf_node = self.node(self.users[&u]);
                let parent = leaf_node.parent.expect("user leaf has a parent");
                // Every ancestor is marked, so it holds its new key by now.
                let mut path: Vec<(KeyRef, SymmetricKey)> = self
                    .ancestors_inclusive(parent)
                    .map(|anc| {
                        let n = self.node(anc);
                        (KeyRef::new(n.label, n.version), n.key.clone())
                    })
                    .collect();
                path.reverse(); // root-first
                BatchJoin {
                    user: u,
                    leaf_label: leaf_node.label,
                    leaf_ref: KeyRef::new(leaf_node.label, leaf_node.version),
                    leaf_key: individual_key.clone(),
                    path,
                }
            })
            .collect();

        Ok(BatchEvent { marked, joins, departed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_crypto::drbg::HmacDrbg;

    fn setup(degree: usize, n: u64) -> (KeyTree, HmacDrbg) {
        let mut src = HmacDrbg::from_seed(0xBA7C);
        let mut tree = KeyTree::new(degree, 8, &mut src);
        for i in 0..n {
            let ik = src.generate_key(8);
            tree.join(UserId(i), ik, &mut src).unwrap();
        }
        (tree, src)
    }

    fn join_reqs(src: &mut HmacDrbg, ids: &[u64]) -> Vec<(UserId, SymmetricKey)> {
        ids.iter().map(|&i| (UserId(i), src.generate_key(8))).collect()
    }

    /// Every key a departed user held must be marked; every joiner path
    /// entry must be marked; the root must be marked when anything changed.
    fn assert_marking_sound(
        ev: &BatchEvent,
        pre_keysets: &BTreeMap<UserId, Vec<KeyLabel>>,
        tree: &KeyTree,
    ) {
        let marked: BTreeSet<KeyLabel> = ev.marked_labels().into_iter().collect();
        if !marked.is_empty() {
            let (gk, _) = tree.group_key();
            assert_eq!(ev.marked[0].label, gk.label, "root first");
        }
        for u in &ev.departed {
            for label in &pre_keysets[u][1..] {
                // Skip the departed user's own leaf (removed, not rekeyed);
                // contracted nodes disappear rather than being rekeyed —
                // they're fine because the keys cease to exist.
                if tree.userset(*label).is_empty() {
                    continue;
                }
                assert!(
                    marked.contains(label),
                    "departed {u:?} still-live key {label:?} not marked"
                );
            }
        }
        for j in &ev.joins {
            for (kr, _) in &j.path {
                assert!(marked.contains(&kr.label), "joiner path key {:?} unmarked", kr.label);
            }
            let ks = tree.keyset(j.user).unwrap();
            assert_eq!(ks.len(), j.path.len() + 1, "unicast path covers whole keyset");
        }
    }

    fn pre_keysets(tree: &KeyTree) -> BTreeMap<UserId, Vec<KeyLabel>> {
        tree.members()
            .map(|u| {
                let labels = tree.keyset(u).unwrap().into_iter().map(|(r, _)| r.label).collect();
                (u, labels)
            })
            .collect()
    }

    #[test]
    fn pure_join_batch_marks_union_of_paths() {
        let (mut tree, mut src) = setup(3, 9);
        let pre = pre_keysets(&tree);
        let joins = join_reqs(&mut src, &[100, 101, 102, 103]);
        let ev = tree.apply_batch(&joins, &[], &mut src).unwrap();
        tree.check_invariants();
        assert_eq!(ev.joins.len(), 4);
        assert!(ev.departed.is_empty());
        assert_eq!(tree.user_count(), 13);
        assert_marking_sound(&ev, &pre, &tree);
        // Versions bumped exactly once: every marked ref is old version + 1
        // is implied by one generate per node; check refs are current.
        for m in &ev.marked {
            let (gk, gkey) = tree.group_key();
            if m.label == gk.label {
                assert_eq!(m.new_ref, gk);
                assert_eq!(m.new_key, gkey);
            }
        }
    }

    #[test]
    fn pure_leave_batch_marks_union_of_paths() {
        let (mut tree, mut src) = setup(3, 27);
        let pre = pre_keysets(&tree);
        let leaves: Vec<UserId> = [0u64, 5, 13, 26].map(UserId).to_vec();
        let ev = tree.apply_batch(&[], &leaves, &mut src).unwrap();
        tree.check_invariants();
        assert_eq!(ev.departed, leaves);
        assert!(ev.joins.is_empty());
        assert_eq!(tree.user_count(), 23);
        assert_marking_sound(&ev, &pre, &tree);
        // Departed users appear nowhere.
        for u in &leaves {
            assert!(!tree.is_member(*u));
        }
    }

    #[test]
    fn mixed_batch_refills_vacated_slots() {
        let (mut tree, mut src) = setup(4, 64);
        let key_count_before = tree.key_count();
        let height_before = tree.height();
        let pre = pre_keysets(&tree);
        let leaves: Vec<UserId> = [3u64, 17, 42].map(UserId).to_vec();
        let joins = join_reqs(&mut src, &[200, 201, 202]);
        let ev = tree.apply_batch(&joins, &leaves, &mut src).unwrap();
        tree.check_invariants();
        assert_eq!(tree.user_count(), 64);
        assert_marking_sound(&ev, &pre, &tree);
        // Equal joins and leaves refill in place: no growth in keys/height.
        assert_eq!(tree.key_count(), key_count_before);
        assert_eq!(tree.height(), height_before);
    }

    #[test]
    fn leave_and_rejoin_same_interval() {
        let (mut tree, mut src) = setup(3, 9);
        let joins = join_reqs(&mut src, &[4]);
        let ev = tree.apply_batch(&joins, &[UserId(4)], &mut src).unwrap();
        tree.check_invariants();
        assert!(tree.is_member(UserId(4)));
        assert_eq!(ev.departed, vec![UserId(4)]);
        assert_eq!(ev.joins.len(), 1);
        // The rejoined user got a fresh leaf label and key.
        assert_ne!(ev.joins[0].leaf_key, SymmetricKey::new(vec![0; 8]));
    }

    #[test]
    fn batch_validation_is_atomic() {
        let (mut tree, mut src) = setup(3, 9);
        let before = tree.key_count();
        let (gk_before, _) = tree.group_key();
        // Leaver not a member.
        let joins = join_reqs(&mut src, &[100]);
        assert_eq!(
            tree.apply_batch(&joins, &[UserId(77)], &mut src).unwrap_err(),
            TreeError::NotAMember(UserId(77))
        );
        // Joiner already a member.
        let joins = join_reqs(&mut src, &[4]);
        assert_eq!(
            tree.apply_batch(&joins, &[], &mut src).unwrap_err(),
            TreeError::AlreadyMember(UserId(4))
        );
        // Duplicate joiner.
        let joins = join_reqs(&mut src, &[100, 100]);
        assert_eq!(
            tree.apply_batch(&joins, &[], &mut src).unwrap_err(),
            TreeError::AlreadyMember(UserId(100))
        );
        tree.check_invariants();
        assert_eq!(tree.key_count(), before);
        assert_eq!(tree.group_key().0, gk_before);
    }

    #[test]
    fn batch_emptying_group_rotates_root() {
        let (mut tree, mut src) = setup(3, 4);
        let (gk_before, _) = tree.group_key();
        let leaves: Vec<UserId> = (0..4).map(UserId).collect();
        let ev = tree.apply_batch(&[], &leaves, &mut src).unwrap();
        tree.check_invariants();
        assert!(ev.marked.is_empty());
        assert_eq!(ev.departed.len(), 4);
        assert_eq!(tree.user_count(), 0);
        assert_eq!(tree.key_count(), 1);
        let (gk_after, _) = tree.group_key();
        assert!(gk_after.version > gk_before.version);
    }

    #[test]
    fn batched_marks_at_most_per_op_total() {
        // The whole point: a batch replaces no more keys than the same
        // operations applied one at a time (it replaces the union once).
        let (tree, mut src) = setup(4, 256);
        let mut per_op = tree.clone();
        let mut batched = tree.clone();
        let leaves: Vec<UserId> = (0..16).map(|i| UserId(i * 16)).collect();
        let joins = join_reqs(&mut src, &(1000..1016).collect::<Vec<_>>());

        let mut per_op_replacements = 0usize;
        for u in &leaves {
            per_op_replacements += per_op.leave(*u, &mut src).unwrap().marked.len();
        }
        for (u, ik) in &joins {
            per_op_replacements += per_op.join(*u, ik.clone(), &mut src).unwrap().marked.len();
        }

        let ev = batched.apply_batch(&joins, &leaves, &mut src).unwrap();
        batched.check_invariants();
        assert!(
            ev.marked.len() < per_op_replacements,
            "batched {} vs per-op {per_op_replacements}",
            ev.marked.len()
        );
    }

    /// [`BatchEvent::key_cover`]'s order contract: marked nodes in
    /// `marked` order (root first), children in recorded order, and the
    /// same operations replayed from scratch yield the identical cover
    /// sequence — the property the sealer's IV assignment rests on.
    #[test]
    fn key_cover_order_is_stable_and_exhaustive() {
        let run = || {
            let (mut tree, mut src) = setup(3, 30);
            let joins = join_reqs(&mut src, &[100, 101, 102]);
            let leaves: Vec<UserId> = [2u64, 5, 11, 17].map(UserId).to_vec();
            let ev = tree.apply_batch(&joins, &leaves, &mut src).unwrap();
            let cover: Vec<(KeyRef, KeyRef, bool)> =
                ev.key_cover().map(|(m, c)| (m.new_ref, c.key_ref, c.joiner.is_some())).collect();
            (ev, cover)
        };
        let (ev, cover) = run();
        let (_, cover2) = run();
        assert_eq!(cover, cover2, "cover sequence must be reproducible");
        let expected: usize = ev.marked.iter().map(|m| m.children.len()).sum();
        assert_eq!(cover.len(), expected, "cover visits every child exactly once");
        // Cover order is `marked` order: the flat sequence's marked refs
        // appear as contiguous runs following ev.marked.
        let mut runs = Vec::new();
        for (m_ref, _, _) in &cover {
            if runs.last() != Some(m_ref) {
                runs.push(*m_ref);
            }
        }
        let marked_refs: Vec<KeyRef> =
            ev.marked.iter().filter(|m| !m.children.is_empty()).map(|m| m.new_ref).collect();
        assert_eq!(runs, marked_refs, "marked nodes visited root-first, each in one run");
    }

    #[test]
    fn derived_batch_matches_shipped_structure_and_is_recomputable() {
        let (tree, mut src) = setup(3, 9);
        let mut shipped = tree.clone();
        let mut derived = tree.clone();
        let pre_keys: BTreeMap<KeyLabel, SymmetricKey> = derived
            .members()
            .flat_map(|u| derived.keyset(u).unwrap())
            .map(|(r, k)| (r.label, k))
            .collect();
        let joins = join_reqs(&mut src, &[100, 101, 102, 103]);
        let code = [0x42u8; 16];
        let sev = shipped.apply_batch(&joins, &[], &mut src.clone()).unwrap();
        let dev =
            derived.apply_interval(&joins, &[], &mut src, NewKeyMode::Derived(&code)).unwrap();
        let links = dev.derived_links();
        derived.check_invariants();
        // Same joins → same structure → same marked set.
        assert_eq!(sev.marked_labels(), dev.marked_labels());
        assert_eq!(links.len(), dev.marked.len());
        // Every link: new key = derive(from-key, code, label, new version),
        // where from is either the node's own pre-batch key or a displaced
        // leaf's individual key (both captured in pre_keys).
        for (link, m) in links.iter().zip(&dev.marked) {
            assert_eq!(link.new_ref, m.new_ref);
            let from_key = pre_keys.get(&link.from.label).expect("derive-from key pre-existed");
            let want = crate::derive::derive_key(
                from_key,
                &code,
                link.new_ref.label,
                link.new_ref.version,
                8,
            );
            assert_eq!(m.new_key, want, "marked node {:?} not derivable", m.label);
        }
    }

    #[test]
    fn derived_batch_split_derives_from_displaced_leaf() {
        // Degree 2, 4 members: more joiners than open slots forces splits.
        let (mut tree, mut src) = setup(2, 4);
        let pre = pre_keysets(&tree);
        let leaf_keys: BTreeMap<UserId, (KeyRef, SymmetricKey)> =
            tree.members().map(|u| (u, tree.keyset(u).unwrap()[0].clone())).collect();
        let joins = join_reqs(&mut src, &[10, 11]);
        let code = [3u8; 16];
        let ev = tree.apply_interval(&joins, &[], &mut src, NewKeyMode::Derived(&code)).unwrap();
        let links = ev.derived_links();
        tree.check_invariants();
        assert_marking_sound(&ev, &pre, &tree);
        // At least one link's derive-from is a displaced member's
        // individual key (a label outside the marked set's own lineage).
        let displaced_links: Vec<_> =
            links.iter().filter(|l| leaf_keys.values().any(|(r, _)| *r == l.from)).collect();
        assert!(!displaced_links.is_empty(), "split must derive from a displaced leaf");
        for l in displaced_links {
            let (_, ik) = leaf_keys.values().find(|(r, _)| *r == l.from).unwrap();
            let m = ev.marked.iter().find(|m| m.new_ref == l.new_ref).unwrap();
            let want = crate::derive::derive_key(ik, &code, l.new_ref.label, l.new_ref.version, 8);
            assert_eq!(m.new_key, want);
        }
    }

    /// A key source that counts the keys drawn from it.
    struct Counting(HmacDrbg, usize);

    impl KeySource for Counting {
        fn generate(&mut self, len: usize) -> Vec<u8> {
            self.1 += 1;
            self.0.generate(len)
        }
    }

    /// Every key an operation draws is one the tree keeps: a new tree draws
    /// its root's key, a join, leave or refresh one key per marked node, and
    /// a derived join none. A joiner's leaf holds the individual key it was
    /// given and a split-created node the displaced member's, so neither
    /// costs a draw.
    #[test]
    fn an_operation_draws_one_key_per_marked_node() {
        for degree in [2, 3, 4, u32::MAX as usize] {
            let mut keys = Counting(HmacDrbg::from_seed(0xC0), 0);
            let mut tree = KeyTree::new(degree, 8, &mut keys);
            assert_eq!(keys.1, 1, "degree {degree}: the root's key");
            let individual = |u: u64| SymmetricKey::new(u.to_be_bytes().to_vec());
            let code = [0x11u8; 16];
            for u in 0..24 {
                keys.1 = 0;
                let ev = tree.join(UserId(u), individual(u), &mut keys).unwrap();
                assert_eq!(keys.1, ev.marked.len(), "degree {degree}: join of {u}");
                keys.1 = 0;
                let joiner = [(UserId(100 + u), individual(100 + u))];
                tree.apply_interval(&joiner, &[], &mut keys, NewKeyMode::Derived(&code)).unwrap();
                assert_eq!(keys.1, 0, "degree {degree}: derived join of {}", 100 + u);
            }
            for u in 0..20 {
                keys.1 = 0;
                let ev = tree.leave(UserId(u), &mut keys).unwrap();
                assert_eq!(keys.1, ev.marked.len(), "degree {degree}: leave of {u}");
                keys.1 = 0;
                let ev = tree.refresh_group_key(&mut keys);
                assert_eq!((keys.1, ev.marked.len()), (1, 1), "degree {degree}: refresh");
            }
            tree.check_invariants();
        }
    }

    /// A tree of the given degree after `ops` of seeded churn: an op joins
    /// a fresh user unless it is odd and there is somebody to remove.
    fn churned(degree: usize, ops: &[(u8, usize)]) -> (KeyTree, HmacDrbg) {
        let (mut tree, mut src) = setup(degree, 0);
        for (i, &(kind, pick)) in ops.iter().enumerate() {
            let members: Vec<UserId> = tree.members().collect();
            if kind % 2 == 1 && !members.is_empty() {
                tree.leave(members[pick % members.len()], &mut src).unwrap();
            } else {
                let ik = src.generate_key(8);
                tree.join(UserId(i as u64), ik, &mut src).unwrap();
            }
        }
        (tree, src)
    }

    /// Every key in the tree, by label.
    fn all_keys(tree: &KeyTree) -> BTreeMap<KeyLabel, (KeyRef, SymmetricKey)> {
        let (root_ref, root_key) = tree.group_key();
        let mut keys = BTreeMap::from([(root_ref.label, (root_ref, root_key))]);
        for u in tree.members() {
            keys.extend(tree.keyset(u).unwrap().into_iter().map(|(r, k)| (r.label, (r, k))));
        }
        keys
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The interval of one join is the paper's join: `marked` is the
        /// chain from the root down to the joining point, each node known
        /// by its own key one version earlier — except a joining point a
        /// leaf split created, known by the displaced member's individual
        /// key — and the joiner's leaf hangs below the last of them.
        #[test]
        fn single_join_marks_the_joining_path(
            ops in proptest::collection::vec((0u8..3, proptest::prelude::any::<usize>()), 0..60),
            degree in 2usize..=6,
        ) {
            let (mut tree, mut src) = churned(degree, &ops);
            let before = all_keys(&tree);
            let leaves_before: BTreeMap<KeyRef, UserId> =
                tree.members().map(|u| (tree.keyset(u).unwrap()[0].0, u)).collect();
            let (u, ik) = (UserId(1_000_000), src.generate_key(8));
            let ev = tree.join(u, ik.clone(), &mut src).unwrap();
            tree.check_invariants();

            // Root-first, the joiner's keys above its own leaf.
            let mut path = tree.keyset(u).unwrap();
            let leaf = path.remove(0);
            path.reverse();
            let marked: Vec<_> = ev.marked.iter().map(|m| (m.new_ref, m.new_key.clone())).collect();
            proptest::prop_assert_eq!(&marked, &path);
            proptest::prop_assert_eq!(&ev.joins[0].path, &path);
            proptest::prop_assert_eq!((ev.joins[0].leaf_ref, ev.joins[0].leaf_key.clone()), leaf);
            proptest::prop_assert_eq!(&ev.joins[0].leaf_key, &ik);

            for (i, m) in ev.marked.iter().enumerate() {
                proptest::prop_assert_eq!(m.label, m.new_ref.label);
                match before.get(&m.label) {
                    Some((old_ref, old_key)) => {
                        proptest::prop_assert_eq!(m.old_ref, *old_ref);
                        proptest::prop_assert_eq!(m.new_ref.version, old_ref.version.next());
                        proptest::prop_assert_eq!(&m.old_key, old_key);
                    }
                    None => {
                        // Created by a split: the joining point, above the
                        // displaced member's unchanged leaf.
                        proptest::prop_assert_eq!(i, ev.marked.len() - 1);
                        let w = leaves_before[&m.old_ref];
                        let w_keys = tree.keyset(w).unwrap();
                        proptest::prop_assert_eq!(&w_keys[0], &(m.old_ref, m.old_key.clone()));
                        proptest::prop_assert_eq!(w_keys[1].0, m.new_ref);
                    }
                }
                let below: Vec<_> = m.children.iter().filter(|c| c.marked || c.joiner.is_some()).collect();
                proptest::prop_assert_eq!(below.len(), 1);
                match ev.marked.get(i + 1) {
                    Some(next) => proptest::prop_assert_eq!(below[0].label, next.label),
                    None => proptest::prop_assert_eq!(below[0].joiner, Some(u)),
                }
            }
        }

        /// The interval of one leave is the paper's leave: every key the
        /// leaver held that still exists is replaced, and nothing in the
        /// cover — so no ciphertext of any strategy — is under a key the
        /// leaver held.
        #[test]
        fn single_leave_cover_avoids_every_key_the_leaver_held(
            ops in proptest::collection::vec((0u8..3, proptest::prelude::any::<usize>()), 1..60),
            pick in proptest::prelude::any::<usize>(),
            degree in 2usize..=6,
        ) {
            let (mut tree, mut src) = churned(degree, &ops);
            let ik = src.generate_key(8);
            tree.join(UserId(1_000_000), ik, &mut src).unwrap(); // never empty
            let pre = pre_keysets(&tree);
            let members: Vec<UserId> = tree.members().collect();
            let victim = members[pick % members.len()];
            let held: BTreeSet<KeyRef> =
                tree.keyset(victim).unwrap().into_iter().map(|(r, _)| r).collect();
            let ev = tree.leave(victim, &mut src).unwrap();
            tree.check_invariants();
            if tree.user_count() > 0 {
                assert_marking_sound(&ev, &pre, &tree);
            }
            for (_, c) in ev.key_cover() {
                proptest::prop_assert!(!held.contains(&c.key_ref));
            }
            for strategy in crate::rekey::Strategy::ALL {
                let out = crate::rekey::Rekeyer::new(crate::rekey::KeyCipher::des_cbc(), 1)
                    .batch(&ev, strategy);
                for b in out.messages.iter().flat_map(|m| &m.bundles) {
                    proptest::prop_assert!(!held.contains(&b.encrypted_with));
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random mixed batches on random trees preserve all structural
        /// invariants and the marking soundness property.
        #[test]
        fn random_batches_sound(
            n in 1u64..40,
            degree in 2usize..6,
            join_count in 0u64..12,
            leave_seed in 0u64..1000,
        ) {
            let mut src = HmacDrbg::from_seed(leave_seed ^ 0xF00D);
            let mut tree = KeyTree::new(degree, 8, &mut src);
            for i in 0..n {
                let ik = src.generate_key(8);
                tree.join(UserId(i), ik, &mut src).unwrap();
            }
            let pre = pre_keysets(&tree);
            let leaves: Vec<UserId> = (0..n)
                .filter(|i| (i.wrapping_mul(leave_seed + 7)) % 3 == 0)
                .map(UserId)
                .collect();
            let joins: Vec<(UserId, SymmetricKey)> = (0..join_count)
                .map(|i| (UserId(1000 + i), src.generate_key(8)))
                .collect();
            let ev = tree.apply_batch(&joins, &leaves, &mut src).unwrap();
            tree.check_invariants();
            if tree.user_count() > 0 {
                assert_marking_sound(&ev, &pre, &tree);
            }
            proptest::prop_assert_eq!(
                tree.user_count() as u64,
                n - leaves.len() as u64 + join_count
            );
        }
    }
}
