//! Key trees — the paper's scalable special class of key graphs.
//!
//! A key tree is a single-root tree of k-nodes: the root holds the group
//! key, leaves hold individual keys (one per user), and interior nodes hold
//! subgroup keys. Joins attach a new individual-key leaf at a *joining
//! point*; leaves remove one and rekey from the *leaving point*; in both
//! cases every key on the path to the root is replaced (backward secrecy on
//! join, forward secrecy on leave).
//!
//! The server in the paper "employs a heuristic that attempts to build and
//! maintain a key tree that is full and balanced". Ours:
//!
//! * **Join:** attach at the shallowest interior node with fewer than `d`
//!   children; among those, the one with the smaller subtree; among those,
//!   the first in child order read from the root (which is breadth-first
//!   order). If every interior node is full, *split* the shallowest leaf
//!   (again the first in child order): a fresh interior node takes the
//!   leaf's place and adopts both the displaced leaf and the newcomer.
//! * **Leave:** remove the leaf; if the leaving point drops to a single
//!   child (and is not the root), splice that child into the grandparent so
//!   degenerate chains never accumulate.
//!
//! This module holds the tree, its queries and the choice of joining
//! point. The tree is changed in one place only:
//! [`KeyTree::apply_interval`] in [`crate::batch`], of which `join`,
//! `leave` and `refresh_group_key` are the intervals of one and of no
//! requests. It returns the one event ([`crate::batch::BatchEvent`]) that
//! carries the old and new keys along the changed paths — exactly the
//! information the rekeying strategies in [`crate::rekey`] need to
//! construct rekey messages.
//!
//! # Cost of choosing the joining point
//!
//! Every node caches a [`Summary`] of its subtree: the member count, the
//! best open interior node below it as `(depth, size)`, and the depth of
//! its shallowest user leaf, depths counted from the node itself. A
//! mutation recomputes the summaries of the one root path whose sizes it
//! changes anyway, each from at most `d` children, and the join descends
//! from the root taking at each level the first child whose summary is the
//! parent's one level down: O(d·h) per join or leave, no allocation, and
//! the slot a breadth-first search of the whole tree would return (the
//! search survives as the test oracle). Depths being relative, a subtree
//! that moves a level — under a split leaf, or up over a contracted unary
//! node — keeps its summaries; only the path above it is recomputed.
//!
//! [`KeyTree::userset`] is still linear in the arena: it finds its label by
//! scanning. Only subgroup-addressed sends call it, never the join/leave
//! path, and a label → node map would cost every node memory to serve
//! them.

use crate::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
use crate::rekey::Recipients;
use kg_crypto::{KeySource, SymmetricKey};
use std::collections::{BTreeMap, VecDeque};

/// Arena index of a node.
pub(crate) type NodeId = usize;

/// Errors from key-tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The user is already a member.
    AlreadyMember(UserId),
    /// The user is not a member.
    NotAMember(UserId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::AlreadyMember(u) => write!(f, "{u} is already a group member"),
            TreeError::NotAMember(u) => write!(f, "{u} is not a group member"),
        }
    }
}

impl std::error::Error for TreeError {}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) label: KeyLabel,
    pub(crate) version: KeyVersion,
    pub(crate) key: SymmetricKey,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// `Some(u)` iff this is the individual-key leaf of user `u`.
    pub(crate) user: Option<UserId>,
    /// What the join heuristic needs to know about this node's subtree.
    pub(crate) sum: Summary,
}

/// Cached facts about one node's subtree, each a function of the node and
/// its children's summaries ([`KeyTree::summarize`]). Depths count levels
/// below the node itself, so moving a subtree leaves them valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Summary {
    /// Number of users in the subtree.
    pub(crate) size: u32,
    /// Least `(depth, size)` over the subtree's interior nodes with a free
    /// child slot; [`Summary::NO_OPEN`] when all are full.
    pub(crate) open: (u32, u32),
    /// Depth of the subtree's shallowest user leaf; `u32::MAX` when it has
    /// none.
    pub(crate) leaf_depth: u32,
}

impl Summary {
    pub(crate) const NO_OPEN: (u32, u32) = (u32::MAX, u32::MAX);
    /// A user's individual-key leaf.
    pub(crate) const USER_LEAF: Summary =
        Summary { size: 1, open: Summary::NO_OPEN, leaf_depth: 0 };
    /// An interior node that has no children yet.
    pub(crate) const EMPTY_INTERIOR: Summary =
        Summary { size: 0, open: (0, 0), leaf_depth: u32::MAX };
}

/// A key tree of degree `d`.
#[derive(Debug, Clone)]
pub struct KeyTree {
    pub(crate) degree: usize,
    pub(crate) key_len: usize,
    pub(crate) nodes: Vec<Option<Node>>,
    pub(crate) free: Vec<NodeId>,
    pub(crate) root: NodeId,
    pub(crate) users: BTreeMap<UserId, NodeId>,
    pub(crate) next_label: u64,
}

impl KeyTree {
    /// Create an empty tree of the given degree with `key_len`-byte keys.
    /// A degree no group reaches (`u32::MAX as usize`) makes the tree a
    /// star: every member's leaf hangs off the root.
    ///
    /// # Panics
    /// Panics if `degree < 2` (a unary "tree" cannot host subgroups) or
    /// `key_len == 0`.
    pub fn new(degree: usize, key_len: usize, source: &mut dyn KeySource) -> Self {
        assert!(degree >= 2, "key tree degree must be at least 2");
        assert!(key_len > 0, "key length must be positive");
        let mut tree = KeyTree {
            degree,
            key_len,
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            users: BTreeMap::new(),
            next_label: 0,
        };
        tree.root = tree.alloc(source.generate_key(key_len), None, None);
        tree
    }

    /// The tree's degree parameter `d`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        self.key_len
    }

    /// Number of users (members).
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// All current members.
    pub fn members(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.keys().copied()
    }

    /// Whether `u` is a member.
    pub fn is_member(&self, u: UserId) -> bool {
        self.users.contains_key(&u)
    }

    /// Number of k-nodes in the tree.
    pub fn key_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// The current group key (root key) reference and material.
    pub fn group_key(&self) -> (KeyRef, SymmetricKey) {
        let root = self.node(self.root);
        (KeyRef::new(root.label, root.version), root.key.clone())
    }

    /// Tree height `h` — the number of edges on the longest root-to-user
    /// path, counting the user's edge to its individual-key leaf. This is
    /// the `h` of the paper's cost formulas; a user holds at most `h` keys.
    pub fn height(&self) -> usize {
        // A root-to-user path crosses every k-node from the user's leaf to
        // the root plus the final u-node edge, so the edge count equals the
        // number of k-nodes on the path (h = 2 for a star: leaf + root).
        self.users.values().map(|&leaf| self.depth_knodes(leaf)).max().unwrap_or(1)
    }

    /// Number of k-nodes on the path from `node` to the root, inclusive.
    pub(crate) fn depth_knodes(&self, node: NodeId) -> usize {
        let mut d = 1;
        let mut cur = node;
        while let Some(p) = self.node(cur).parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// The keys held by a member, leaf-first (individual key, …, group
    /// key). Returns `None` for non-members.
    pub fn keyset(&self, u: UserId) -> Option<Vec<(KeyRef, SymmetricKey)>> {
        let &leaf = self.users.get(&u)?;
        let mut out = Vec::new();
        let mut cur = Some(leaf);
        while let Some(id) = cur {
            let n = self.node(id);
            out.push((KeyRef::new(n.label, n.version), n.key.clone()));
            cur = n.parent;
        }
        Some(out)
    }

    /// The users holding the key at `label` (the subtree's members).
    pub fn userset(&self, label: KeyLabel) -> Vec<UserId> {
        match self.find_label(label) {
            None => Vec::new(),
            Some(id) => self.users_below(id),
        }
    }

    /// Users holding `include`'s key but not `exclude`'s — the recipient
    /// set "userset(K_i) − userset(K_{i+1})" of the join protocols.
    pub fn userset_except(&self, include: KeyLabel, exclude: KeyLabel) -> Vec<UserId> {
        let excluded: std::collections::BTreeSet<UserId> =
            self.userset(exclude).into_iter().collect();
        self.userset(include).into_iter().filter(|u| !excluded.contains(u)).collect()
    }

    /// The users a rekey message addressed to `to` reaches in this tree
    /// (`Group` is every member; a `User` is named, member or not).
    pub fn resolve(&self, to: &Recipients) -> Vec<UserId> {
        match to {
            Recipients::User(u) => vec![*u],
            Recipients::Subgroup(label) => self.userset(*label),
            Recipients::SubgroupExcept { include, exclude } => {
                self.userset_except(*include, *exclude)
            }
            Recipients::Group => self.members().collect(),
        }
    }

    /// Snapshot of the tree as a general [`crate::keygraph::KeyGraph`]
    /// (used by multi-group merging and by tests cross-checking the (U,K,R)
    /// semantics).
    pub fn to_key_graph(&self) -> crate::keygraph::KeyGraph {
        let mut g = crate::keygraph::KeyGraph::new();
        for node in self.nodes.iter().flatten() {
            g.add_key(node.label);
            if let Some(p) = node.parent {
                g.add_key_edge(node.label, self.node(p).label);
            }
            if let Some(u) = node.user {
                g.add_user_edge(u, node.label);
            }
        }
        g
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    /// A new node under the next label, holding `key` (no key is drawn
    /// here: a node costs a draw only when it is rekeyed).
    pub(crate) fn alloc(
        &mut self,
        key: SymmetricKey,
        parent: Option<NodeId>,
        user: Option<UserId>,
    ) -> NodeId {
        let node = Node {
            label: KeyLabel(self.next_label),
            version: KeyVersion::default(),
            key,
            parent,
            children: Vec::new(),
            user,
            sum: if user.is_some() { Summary::USER_LEAF } else { Summary::EMPTY_INTERIOR },
        };
        self.next_label += 1;
        match self.free.pop() {
            Some(id) => {
                self.nodes[id] = Some(node);
                id
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    pub(crate) fn dealloc(&mut self, id: NodeId) {
        self.nodes[id] = None;
        self.free.push(id);
    }

    /// `from`, its parent, … up to the root.
    pub(crate) fn ancestors_inclusive(&self, from: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(from), |&id| self.node(id).parent)
    }

    /// `id`'s summary from its children's cached ones.
    pub(crate) fn summarize(&self, id: NodeId) -> Summary {
        let node = self.node(id);
        if node.user.is_some() {
            return Summary::USER_LEAF;
        }
        let mut sum = Summary::EMPTY_INTERIOR;
        // `NO_OPEN` and "no leaf" saturate to themselves a level up, and
        // lose to any real candidate.
        let mut open_below = Summary::NO_OPEN;
        for &c in &node.children {
            let child = self.node(c).sum;
            sum.size += child.size;
            sum.leaf_depth = sum.leaf_depth.min(child.leaf_depth.saturating_add(1));
            open_below = open_below.min((child.open.0.saturating_add(1), child.open.1));
        }
        sum.open = if node.children.len() < self.degree { (0, sum.size) } else { open_below };
        sum
    }

    /// Recompute the cached summaries of `from` and every ancestor, after a
    /// change to `from`'s child list. Everything below `from` must already
    /// be current; nothing off this path can have changed.
    pub(crate) fn refresh_summaries(&mut self, from: NodeId) {
        let mut cur = Some(from);
        while let Some(id) = cur {
            let sum = self.summarize(id);
            let node = self.node_mut(id);
            node.sum = sum;
            cur = node.parent;
        }
    }

    fn users_below(&self, id: NodeId) -> Vec<UserId> {
        let mut out = Vec::new();
        let mut queue = VecDeque::from([id]);
        while let Some(n) = queue.pop_front() {
            let node = self.node(n);
            if let Some(u) = node.user {
                out.push(u);
            }
            queue.extend(node.children.iter().copied());
        }
        out
    }

    fn find_label(&self, label: KeyLabel) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.as_ref().is_some_and(|n| n.label == label))
    }

    /// The shallowest interior node with room (smaller subtree, then child
    /// order, breaking ties); if the interior of the tree is full, the
    /// shallowest user leaf, to split. Read off the cached summaries; under
    /// test, checked against the breadth-first oracle.
    pub(crate) fn find_join_slot(&self) -> JoinSlot {
        let root = self.node(self.root).sum;
        let slot = if root.open != Summary::NO_OPEN {
            JoinSlot::Interior(self.descend(|sum| sum.open))
        } else {
            assert!(root.leaf_depth != u32::MAX, "full tree has leaves");
            JoinSlot::SplitLeaf(self.descend(|sum| (sum.leaf_depth, 0)))
        };
        #[cfg(test)]
        assert_eq!(slot, self.find_join_slot_bfs(), "descent disagrees with the BFS");
        slot
    }

    /// From the root, follow the first child whose `(depth, tie-break)`
    /// summary is its parent's one level down, to the node where the depth
    /// reaches zero. Candidates at equal depth are in breadth-first order
    /// exactly when their child-index paths are in lexicographic order, so
    /// this is the first of the best candidates a breadth-first search
    /// meets.
    fn descend(&self, best: impl Fn(&Summary) -> (u32, u32)) -> NodeId {
        let mut id = self.root;
        loop {
            let node = self.node(id);
            let (depth, tie) = best(&node.sum);
            if depth == 0 {
                return id;
            }
            id = *node
                .children
                .iter()
                .find(|&&c| best(&self.node(c).sum) == (depth - 1, tie))
                .expect("a parent's summary comes from one of its children");
        }
    }

    /// The placement rule stated directly — the oracle the summaries are
    /// tested against. BFS for the shallowest interior node with room; if
    /// the interior of the tree is full, pick the shallowest user leaf to
    /// split.
    #[cfg(test)]
    pub(crate) fn find_join_slot_bfs(&self) -> JoinSlot {
        let mut queue = VecDeque::from([self.root]);
        let mut best_interior: Option<(usize, usize, NodeId)> = None; // (depth, size, id)
        let mut best_leaf: Option<(usize, NodeId)> = None;
        let mut depths: Vec<usize> = vec![0; self.nodes.len()];
        while let Some(id) = queue.pop_front() {
            let node = self.node(id);
            let depth = depths[id];
            if node.user.is_some() {
                if best_leaf.is_none_or(|(d, _)| depth < d) {
                    best_leaf = Some((depth, id));
                }
                continue;
            }
            if node.children.len() < self.degree {
                let size = node.sum.size as usize;
                let cand = (depth, size, id);
                if best_interior.is_none_or(|(d, s, _)| (depth, size) < (d, s)) {
                    best_interior = Some(cand);
                }
            }
            for &c in &node.children {
                depths[c] = depth + 1;
                queue.push_back(c);
            }
        }
        match best_interior {
            Some((_, _, id)) => JoinSlot::Interior(id),
            None => JoinSlot::SplitLeaf(best_leaf.expect("full tree has leaves").1),
        }
    }

    /// Check that the arena is one tree hanging from the root — every live
    /// node reached exactly once through child lists that agree with the
    /// `parent` fields, `users` naming exactly the user leaves — and
    /// rebuild every summary bottom-up, requiring the stored `size`s to
    /// match. Deserialization builds its arena from outside bytes and has
    /// no summaries; this is its validation and its rebuild in one pass.
    /// Every stored index must already name a live slot.
    pub(crate) fn validate_and_summarize(&mut self) -> Result<(), &'static str> {
        if self.node(self.root).parent.is_some() {
            return Err("root has a parent");
        }
        // Breadth-first from the root; `order` doubles as the queue.
        let mut reached = vec![false; self.nodes.len()];
        reached[self.root] = true;
        let mut order = vec![self.root];
        let mut next = 0;
        let mut user_leaves = 0usize;
        while let Some(&id) = order.get(next) {
            next += 1;
            let node = self.node(id);
            if node.children.len() > self.degree {
                return Err("node wider than the degree");
            }
            if let Some(u) = node.user {
                if !node.children.is_empty() {
                    return Err("user leaf with children");
                }
                if self.users.get(&u) != Some(&id) {
                    return Err("user leaf missing from the user index");
                }
                user_leaves += 1;
            }
            for &c in &node.children {
                if self.node(c).parent != Some(id) {
                    return Err("child list and parent field disagree");
                }
                if std::mem::replace(&mut reached[c], true) {
                    return Err("node reachable twice");
                }
                order.push(c);
            }
        }
        if order.len() != self.key_count() {
            return Err("node not reachable from the root");
        }
        if user_leaves != self.users.len() {
            return Err("user index names a non-leaf");
        }
        // Children come after their parent in `order`.
        for &id in order.iter().rev() {
            let sum = self.summarize(id);
            let node = self.node_mut(id);
            if node.sum.size != sum.size {
                return Err("size cache wrong");
            }
            node.sum = sum;
        }
        Ok(())
    }

    /// Structural invariants, asserted by tests after every mutation.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut seen_labels = std::collections::BTreeSet::new();
        let mut user_leaves = 0usize;
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            assert!(seen_labels.insert(node.label), "duplicate label {:?}", node.label);
            assert!(node.children.len() <= self.degree, "degree bound violated");
            for &c in &node.children {
                assert_eq!(self.node(c).parent, Some(id), "parent link broken");
            }
            if let Some(u) = node.user {
                assert!(node.children.is_empty(), "user leaf with children");
                assert_eq!(self.users.get(&u), Some(&id), "user map out of sync");
                user_leaves += 1;
            }
            assert_eq!(
                node.sum.size as usize,
                self.users_below(id).len(),
                "size cache wrong at {:?}",
                node.label
            );
            // No unary interior nodes except the root.
            if node.user.is_none() && id != self.root {
                assert!(node.children.len() >= 2, "unary interior node {:?}", node.label);
            }
        }
        assert_eq!(user_leaves, self.users.len(), "member count mismatch");
        assert!(self.nodes[self.root].is_some(), "root freed");
        assert!(self.node(self.root).parent.is_none(), "root has a parent");
        // Cached summaries equal the ones rebuilt from nothing.
        let mut rebuilt = self.clone();
        rebuilt.validate_and_summarize().expect("arena is a tree");
        for (id, (cached, fresh)) in self.nodes.iter().zip(&rebuilt.nodes).enumerate() {
            assert_eq!(
                cached.as_ref().map(|n| n.sum),
                fresh.as_ref().map(|n| n.sum),
                "summary cache wrong at slot {id}"
            );
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinSlot {
    Interior(NodeId),
    SplitLeaf(NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchEvent, NewKeyMode};
    use kg_crypto::drbg::HmacDrbg;

    fn setup(degree: usize) -> (KeyTree, HmacDrbg) {
        let mut src = HmacDrbg::from_seed(0xBEEF);
        let tree = KeyTree::new(degree, 8, &mut src);
        (tree, src)
    }

    fn join(tree: &mut KeyTree, src: &mut HmacDrbg, id: u64) -> BatchEvent {
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(id), ik, src).unwrap();
        tree.check_invariants();
        ev
    }

    /// The member whose leaf a single join split: the one previous holder
    /// of the joining point, which is known by that member's individual key.
    fn displaced_by(tree: &KeyTree, ev: &BatchEvent) -> Option<UserId> {
        let jp = ev.marked.last()?;
        tree.members().find(|&u| tree.keyset(u).unwrap()[0].0 == jp.old_ref)
    }

    /// The documented key-cover order is stable: two trees built by the
    /// same operation sequence yield events whose covers (path refs, child
    /// refs level by level) are element-for-element identical.
    #[test]
    fn event_key_cover_order_is_stable() {
        let run = || {
            let (mut tree, mut src) = setup(3);
            let mut trace: Vec<(KeyRef, KeyRef)> = Vec::new();
            for i in 0..40 {
                let ev = join(&mut tree, &mut src, i);
                for (k, p) in ev.marked.iter().enumerate() {
                    trace.push((p.old_ref, p.new_ref));
                    assert!(
                        k + 1 >= ev.marked.len() || p.label != ev.marked[k + 1].label,
                        "path nodes distinct"
                    );
                }
            }
            for i in (0..40).step_by(3) {
                let ev = tree.leave(UserId(i), &mut src).unwrap();
                tree.check_invariants();
                for (m, c) in ev.key_cover() {
                    trace.push((c.key_ref, m.new_ref));
                }
            }
            trace
        };
        assert_eq!(run(), run(), "same ops must produce the same key-cover sequence");
    }

    #[test]
    fn empty_tree_shape() {
        let (tree, _) = setup(3);
        assert_eq!(tree.user_count(), 0);
        assert_eq!(tree.key_count(), 1); // just the root
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn first_join_attaches_to_root() {
        let (mut tree, mut src) = setup(3);
        let ev = join(&mut tree, &mut src, 1);
        assert_eq!(tree.user_count(), 1);
        assert_eq!(ev.marked.len(), 1); // only the root changed
        assert_eq!(ev.marked[0].old_ref.label, ev.marked[0].label, "no leaf was split");
        assert_eq!(tree.height(), 2); // u -> k_u -> root
        let ks = tree.keyset(UserId(1)).unwrap();
        assert_eq!(ks.len(), 2);
    }

    #[test]
    fn join_rekeys_whole_path_and_bumps_versions() {
        let (mut tree, mut src) = setup(2);
        for i in 1..=4 {
            join(&mut tree, &mut src, i);
        }
        let (root_ref_before, root_key_before) = tree.group_key();
        let ev = join(&mut tree, &mut src, 5);
        let (root_ref_after, root_key_after) = tree.group_key();
        assert_eq!(root_ref_after.label, root_ref_before.label);
        assert!(root_ref_after.version > root_ref_before.version);
        assert_ne!(root_key_after, root_key_before);
        // The path's first element is the root; old key matches pre-state.
        assert_eq!(ev.marked[0].old_ref, root_ref_before);
        assert_eq!(ev.marked[0].old_key, root_key_before);
        assert_eq!(ev.marked[0].new_key, root_key_after);
    }

    #[test]
    fn figure5_join_shape() {
        // Degree-3 tree with 8 users grouped (3,3,2): joining u9 should
        // attach at the 2-user subgroup and change exactly that subgroup
        // key and the root (two path nodes), as in Figure 5.
        let (mut tree, mut src) = setup(3);
        for i in 1..=8 {
            join(&mut tree, &mut src, i);
        }
        assert_eq!(tree.height(), 3);
        let ev = join(&mut tree, &mut src, 9);
        assert_eq!(ev.marked.len(), 2, "root + joining point");
        assert_eq!(tree.height(), 3);
        // Everyone holds 3 keys now (full balanced 3-ary tree of 9).
        for i in 1..=9 {
            assert_eq!(tree.keyset(UserId(i)).unwrap().len(), 3);
        }
    }

    #[test]
    fn join_splits_leaf_when_full() {
        // Degree 2: after 2 users the root is full; the third join splits.
        let (mut tree, mut src) = setup(2);
        join(&mut tree, &mut src, 1);
        join(&mut tree, &mut src, 2);
        let ev = join(&mut tree, &mut src, 3);
        // The joining point is a fresh node, known to its one previous
        // holder by that member's individual key.
        let jp = ev.marked.last().unwrap();
        let w = displaced_by(&tree, &ev).expect("a leaf was split");
        assert!(w == UserId(1) || w == UserId(2));
        // The displaced user now holds 3 keys; the other old user only 2.
        let other = if w == UserId(1) { UserId(2) } else { UserId(1) };
        assert_eq!(tree.keyset(w).unwrap().len(), 3);
        assert_eq!(tree.keyset(other).unwrap().len(), 2);
        assert_eq!((jp.old_ref, jp.old_key.clone()), tree.keyset(w).unwrap()[0]);
    }

    #[test]
    fn leave_rekeys_path_and_removes_leaf() {
        let (mut tree, mut src) = setup(3);
        for i in 1..=9 {
            join(&mut tree, &mut src, i);
        }
        let (gk_before, _) = tree.group_key();
        let ev = tree.leave(UserId(9), &mut src).unwrap();
        tree.check_invariants();
        assert_eq!(tree.user_count(), 8);
        assert!(!tree.is_member(UserId(9)));
        let (gk_after, _) = tree.group_key();
        assert!(gk_after.version > gk_before.version);
        // Path root-first; last entry is the leaving point.
        assert!(!ev.marked.is_empty());
        assert_eq!(ev.marked[0].label, gk_after.label);
        // Children per level are nonempty (there are survivors).
        for level in &ev.marked {
            assert!(!level.children.is_empty());
        }
    }

    #[test]
    fn leave_contracts_unary_interior() {
        // Degree 2, three users: u3 under a split node with u-something.
        let (mut tree, mut src) = setup(2);
        for i in 1..=3 {
            join(&mut tree, &mut src, i);
        }
        // Leaving one member of the 2-subgroup must contract the subgroup
        // node away: everyone back to 2 keys.
        let three_key_user =
            (1..=3).map(UserId).find(|&u| tree.keyset(u).unwrap().len() == 3).unwrap();
        tree.leave(three_key_user, &mut src).unwrap();
        tree.check_invariants();
        for u in (1..=3).map(UserId).filter(|&u| tree.is_member(u)) {
            assert_eq!(tree.keyset(u).unwrap().len(), 2);
        }
        assert_eq!(tree.key_count(), 3); // root + 2 leaves
    }

    #[test]
    fn last_leave_empties_tree_but_keeps_root() {
        let (mut tree, mut src) = setup(4);
        join(&mut tree, &mut src, 1);
        let (gk_before, _) = tree.group_key();
        let ev = tree.leave(UserId(1), &mut src).unwrap();
        tree.check_invariants();
        assert!(ev.marked.is_empty());
        assert_eq!(tree.user_count(), 0);
        assert_eq!(tree.key_count(), 1);
        let (gk_after, _) = tree.group_key();
        assert!(gk_after.version > gk_before.version, "root key must still rotate");
    }

    #[test]
    fn refresh_rotates_root_only() {
        let (mut tree, mut src) = setup(3);
        for i in 1..=9 {
            join(&mut tree, &mut src, i);
        }
        let (gk_before, key_before) = tree.group_key();
        let keysets_before: Vec<_> = (1..=9).map(|i| tree.keyset(UserId(i)).unwrap()).collect();
        let mut expect = src.clone();
        let ev = tree.refresh_group_key(&mut src);
        tree.check_invariants();
        let (gk_after, key_after) = tree.group_key();
        assert_eq!(ev.marked.len(), 1, "refresh marks the root only");
        assert!(ev.joins.is_empty() && ev.departed.is_empty());
        let path = &ev.marked[0];
        assert_eq!(path.old_ref, gk_before);
        assert_eq!(path.old_key, key_before);
        assert_eq!(path.new_ref, gk_after);
        assert_eq!(path.new_key, key_after);
        assert_eq!(path.children.len(), 3);
        // One key draw: the new root key.
        assert_eq!(expect.generate_key(8), key_after);
        assert_eq!(expect.generate(8), src.generate(8));
        assert_eq!(gk_after.label, gk_before.label);
        assert!(gk_after.version > gk_before.version);
        assert_ne!(key_after, key_before);
        // Every non-root key is untouched.
        for (i, before) in (1..=9).zip(keysets_before) {
            let after = tree.keyset(UserId(i)).unwrap();
            assert_eq!(before.len(), after.len());
            for (b, a) in before.iter().zip(&after).take(before.len() - 1) {
                assert_eq!(b, a);
            }
        }
    }

    #[test]
    fn refresh_of_an_empty_group_rotates_the_root_and_tells_nobody() {
        let (mut tree, mut src) = setup(3);
        let (gk_before, _) = tree.group_key();
        let mut expect = src.clone();
        let ev = tree.refresh_group_key(&mut src);
        tree.check_invariants();
        assert!(ev.marked.is_empty());
        let (gk_after, key_after) = tree.group_key();
        assert_eq!(gk_after, KeyRef::new(gk_before.label, gk_before.version.next()));
        assert_eq!(expect.generate_key(8), key_after);
        assert_eq!(expect.generate(8), src.generate(8));
    }

    #[test]
    fn duplicate_join_and_phantom_leave_rejected() {
        let (mut tree, mut src) = setup(4);
        join(&mut tree, &mut src, 1);
        let ik = src.generate_key(8);
        assert_eq!(
            tree.join(UserId(1), ik, &mut src).unwrap_err(),
            TreeError::AlreadyMember(UserId(1))
        );
        assert_eq!(
            tree.leave(UserId(99), &mut src).unwrap_err(),
            TreeError::NotAMember(UserId(99))
        );
    }

    #[test]
    fn height_tracks_log_d() {
        for d in [2usize, 4, 8] {
            let (mut tree, mut src) = setup(d);
            let n = 64;
            for i in 0..n {
                join(&mut tree, &mut src, i);
            }
            let h = tree.height();
            let ideal = 1 + (n as f64).log(d as f64).ceil() as usize;
            assert!(h <= ideal + 1, "degree {d}: height {h} too far above ideal {ideal}");
        }
    }

    #[test]
    fn key_count_close_to_paper_formula() {
        // Table 1: a full balanced tree holds about d/(d-1) * n keys.
        let d = 4usize;
        let (mut tree, mut src) = setup(d);
        let n = 256;
        for i in 0..n {
            join(&mut tree, &mut src, i);
        }
        let expected = (d as f64) / (d as f64 - 1.0) * n as f64;
        let actual = tree.key_count() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.15,
            "key count {actual} vs formula {expected}"
        );
    }

    #[test]
    fn userset_and_userset_except() {
        let (mut tree, mut src) = setup(3);
        for i in 1..=9 {
            join(&mut tree, &mut src, i);
        }
        let (gk, _) = tree.group_key();
        let mut all = tree.userset(gk.label);
        all.sort();
        assert_eq!(all, (1..=9).map(UserId).collect::<Vec<_>>());
        // Excluding a subgroup leaves the complement.
        let u5_path = tree.keyset(UserId(5)).unwrap();
        let subgroup_label = u5_path[1].0.label; // u5's subgroup key
        let rest = tree.userset_except(gk.label, subgroup_label);
        assert!(!rest.contains(&UserId(5)));
        assert_eq!(rest.len(), 9 - tree.userset(subgroup_label).len());
    }

    #[test]
    fn to_key_graph_matches_tree_semantics() {
        let (mut tree, mut src) = setup(3);
        for i in 1..=7 {
            join(&mut tree, &mut src, i);
        }
        let g = tree.to_key_graph();
        assert_eq!(g.user_count(), 7);
        assert_eq!(g.key_count(), tree.key_count());
        for u in tree.members().collect::<Vec<_>>() {
            let tree_ks: std::collections::BTreeSet<KeyLabel> =
                tree.keyset(u).unwrap().into_iter().map(|(r, _)| r.label).collect();
            assert_eq!(g.keyset(u), tree_ks);
        }
        let (gk, _) = tree.group_key();
        assert_eq!(g.roots(), vec![gk.label]);
    }

    #[test]
    fn join_path_child_alignment() {
        let (mut tree, mut src) = setup(3);
        for i in 1..=8 {
            join(&mut tree, &mut src, i);
        }
        let ev = join(&mut tree, &mut src, 9);
        // The last marked node's child on the path is the joiner's leaf.
        let below_last: Vec<KeyLabel> = (ev.marked.last().unwrap().children.iter())
            .filter(|c| c.marked || c.joiner.is_some())
            .map(|c| c.label)
            .collect();
        assert_eq!(below_last, vec![ev.joins[0].leaf_label]);
        // Each earlier marked node's one marked child is the next one.
        for pair in ev.marked.windows(2) {
            let below: Vec<KeyLabel> = (pair[0].children.iter())
                .filter(|c| c.marked || c.joiner.is_some())
                .map(|c| c.label)
                .collect();
            assert_eq!(below, vec![pair[1].label]);
        }
    }

    #[test]
    fn churn_preserves_invariants() {
        let (mut tree, mut src) = setup(4);
        let mut present: Vec<u64> = Vec::new();
        for i in 0..200u64 {
            if i % 3 == 2 && !present.is_empty() {
                let idx = (i as usize * 7) % present.len();
                let u = present.remove(idx);
                tree.leave(UserId(u), &mut src).unwrap();
            } else {
                let ik = src.generate_key(8);
                tree.join(UserId(i), ik, &mut src).unwrap();
                present.push(i);
            }
            tree.check_invariants();
        }
        assert_eq!(tree.user_count(), present.len());
    }

    #[test]
    fn derived_join_keys_recomputable_from_old_keys() {
        // Every changed key equals derive_key(old, code, label, new_version)
        // — exactly what a member holding `old` computes from the code.
        let (mut tree, mut src) = setup(3);
        for i in 1..=8 {
            join(&mut tree, &mut src, i);
        }
        let code = [0x5Au8; 16];
        let ik = src.generate_key(8);
        let ev = tree
            .apply_interval(&[(UserId(9), ik)], &[], &mut src, NewKeyMode::Derived(&code))
            .unwrap();
        tree.check_invariants();
        assert_eq!(ev.derived_links().len(), ev.marked.len());
        for p in &ev.marked {
            let want = crate::derive::derive_key(&p.old_key, &code, p.label, p.new_ref.version, 8);
            assert_eq!(p.new_key, want);
        }
        // And the tree really installed them.
        let (gk_ref, gk) = tree.group_key();
        assert_eq!(gk_ref, ev.marked[0].new_ref);
        assert_eq!(gk, ev.marked[0].new_key);
    }

    #[test]
    fn derived_split_join_derives_fresh_node_from_displaced_leaf() {
        let (mut tree, mut src) = setup(2);
        join(&mut tree, &mut src, 1);
        join(&mut tree, &mut src, 2);
        let code = [7u8; 16];
        let ik = src.generate_key(8);
        let ev = tree
            .apply_interval(&[(UserId(3), ik)], &[], &mut src, NewKeyMode::Derived(&code))
            .unwrap();
        tree.check_invariants();
        let w = displaced_by(&tree, &ev).expect("a leaf was split");
        // The displaced member's (unchanged) individual key is the
        // derive-from source for the freshly split node.
        let jp = ev.marked.last().unwrap();
        let w_leaf_key = tree.keyset(w).unwrap()[0].1.clone();
        let want = crate::derive::derive_key(&w_leaf_key, &code, jp.label, jp.new_ref.version, 8);
        assert_eq!(jp.new_key, want);
    }

    #[test]
    fn derived_refresh_recomputable_from_old_root() {
        let (mut tree, mut src) = setup(3);
        for i in 1..=5 {
            join(&mut tree, &mut src, i);
        }
        let (_, old_root) = tree.group_key();
        let code = [9u8; 16];
        let ev = tree.apply_interval(&[], &[], &mut src, NewKeyMode::Derived(&code)).unwrap();
        let p = &ev.marked[0];
        tree.check_invariants();
        let want = crate::derive::derive_key(&old_root, &code, p.label, p.new_ref.version, 8);
        assert_eq!(p.new_key, want);
        assert_eq!(tree.group_key().1, p.new_key);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The summary descent and the whole-tree BFS name the same slot —
        /// same kind, same node — after every operation of any kind, and
        /// the cached summaries equal the recomputed ones throughout.
        /// An op is `(kind, member pick, join count)`.
        #[test]
        fn placement_matches_bfs_oracle(
            ops in proptest::collection::vec((0u8..16, proptest::prelude::any::<usize>(), 0usize..12), 300..360),
            degree in 2usize..=6,
        ) {
            let mut src = HmacDrbg::from_seed(3);
            let mut tree = KeyTree::new(degree, 8, &mut src);
            let mut next_user = 0u64;
            let code = [0xC0u8; 16];
            let mut fresh = |n: usize, src: &mut HmacDrbg| -> Vec<(UserId, SymmetricKey)> {
                (0..n)
                    .map(|_| {
                        next_user += 1;
                        (UserId(next_user), src.generate_key(8))
                    })
                    .collect()
            };
            for (kind, pick, joins) in ops {
                let members: Vec<UserId> = tree.members().collect();
                let member = |i: usize| members[i % members.len()];
                match kind {
                    0..=3 => {
                        let (u, ik) = fresh(1, &mut src).remove(0);
                        tree.join(u, ik, &mut src).unwrap();
                    }
                    4..=5 => {
                        let (u, ik) = fresh(1, &mut src).remove(0);
                        tree.apply_interval(&[(u, ik)], &[], &mut src, NewKeyMode::Derived(&code))
                            .unwrap();
                    }
                    6..=10 if !members.is_empty() => {
                        tree.leave(member(pick), &mut src).unwrap();
                    }
                    // A mixed interval: up to seven scattered leavers.
                    11..=12 if !members.is_empty() => {
                        let leaves: std::collections::BTreeSet<UserId> =
                            (0..pick % 8).map(|k| member(pick / 8 + 7 * k)).collect();
                        let leaves: Vec<UserId> = leaves.into_iter().collect();
                        let joins = fresh(joins, &mut src);
                        tree.apply_batch(&joins, &leaves, &mut src).unwrap();
                    }
                    // An interval in which everyone below one interior node
                    // leaves, so the node empties and is contracted away,
                    // while the joiners may outrun the vacated slots and
                    // split leaves.
                    13 => {
                        let interiors: Vec<NodeId> = (0..tree.nodes.len())
                            .filter(|&id| id != tree.root)
                            .filter(|&id| tree.nodes[id].as_ref().is_some_and(|n| n.user.is_none()))
                            .collect();
                        if !interiors.is_empty() {
                            let leaves = tree.users_below(interiors[pick % interiors.len()]);
                            let joins = fresh(joins, &mut src);
                            tree.apply_batch(&joins, &leaves, &mut src).unwrap();
                        }
                    }
                    14 => {
                        let joins = fresh(joins.max(1), &mut src);
                        tree.apply_interval(&joins, &[], &mut src, NewKeyMode::Derived(&code))
                            .unwrap();
                    }
                    15 => {
                        let encoded = crate::serial::encode_tree(&tree);
                        tree = crate::serial::decode_tree(&encoded, degree, 8).unwrap();
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(tree.find_join_slot(), tree.find_join_slot_bfs());
                tree.check_invariants();
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn random_churn_invariants(ops in proptest::collection::vec((0u8..2, 0u64..32), 1..100), degree in 2usize..6) {
            let mut src = HmacDrbg::from_seed(1);
            let mut tree = KeyTree::new(degree, 8, &mut src);
            for (op, uid) in ops {
                let u = UserId(uid);
                if op == 0 {
                    if !tree.is_member(u) {
                        let ik = src.generate_key(8);
                        tree.join(u, ik, &mut src).unwrap();
                    }
                } else if tree.is_member(u) {
                    tree.leave(u, &mut src).unwrap();
                }
                tree.check_invariants();
            }
        }

        /// After any churn, each member's keyset ends at the group key and
        /// starts at its individual key.
        #[test]
        fn keysets_well_formed(joins in 1usize..40, leaves in 0usize..20) {
            let mut src = HmacDrbg::from_seed(2);
            let mut tree = KeyTree::new(4, 8, &mut src);
            for i in 0..joins {
                let ik = src.generate_key(8);
                tree.join(UserId(i as u64), ik, &mut src).unwrap();
            }
            for i in 0..leaves.min(joins.saturating_sub(1)) {
                tree.leave(UserId(i as u64), &mut src).unwrap();
            }
            let (gk, gkey) = tree.group_key();
            for u in tree.members().collect::<Vec<_>>() {
                let ks = tree.keyset(u).unwrap();
                let (last_ref, last_key) = ks.last().unwrap();
                proptest::prop_assert_eq!(*last_ref, gk);
                proptest::prop_assert_eq!(last_key, &gkey);
            }
        }
    }
}
