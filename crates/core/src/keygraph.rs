//! General key graphs — the Section 2 formalism.
//!
//! A *key graph* is a DAG with u-nodes (users, no incoming edges) and
//! k-nodes (keys). It specifies a secure group `(U, K, R)` where `(u, k) ∈ R`
//! iff the graph has a directed path from u's node to k's node. This module
//! implements the general structure, the `keyset`/`userset` functions, and
//! the **key-covering problem**: given `S ⊆ U`, find a minimum set `K'` of
//! keys with `userset(K') = S`. The general problem is NP-hard (the paper
//! cites the technical report for the reduction), so we provide an exact
//! exponential solver for small instances and a greedy set-cover heuristic
//! for the rest. The tree-structured graphs in [`crate::tree`] solve it
//! exactly in linear time, which is the paper's point.
//!
//! Key graphs (rather than plain trees) matter for the paper's closing
//! application (Section 7 / the Keystone service): multiple secure groups
//! over one user population, with users in several groups — the per-group
//! key *trees* merge into a single key *graph*. See
//! [`KeyGraph::merge`].

use crate::ids::{KeyLabel, UserId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A directed acyclic key graph over users and keys.
///
/// Edges run *upward*: from a u-node to the k-nodes it directly holds, and
/// from a k-node to k-nodes "above" it. A user holds every key reachable
/// from its node.
#[derive(Debug, Clone, Default)]
pub struct KeyGraph {
    /// Direct edges from each user to k-nodes.
    user_edges: BTreeMap<UserId, BTreeSet<KeyLabel>>,
    /// Direct edges between k-nodes (from child to parent).
    key_edges: BTreeMap<KeyLabel, BTreeSet<KeyLabel>>,
    /// All k-nodes (including ones with no outgoing edges).
    keys: BTreeSet<KeyLabel>,
}

impl KeyGraph {
    /// An empty key graph.
    pub fn new() -> Self {
        KeyGraph::default()
    }

    /// The complete key graph over `users` (§2.2), the extreme that brackets
    /// the design space: one k-node per nonempty subset, held by exactly its
    /// members — 2^n − 1 keys, 2^(n−1) per user. A subset's label is its
    /// member set, as a bitmask over user ids, so the graph over S∖{u} is a
    /// subgraph of the graph over S: a leave needs no new key, and a join
    /// needs one per subset containing the joiner.
    ///
    /// # Panics
    /// Panics beyond 12 users (4,095 keys) or on a user id of 64 or more.
    pub fn complete(users: impl IntoIterator<Item = UserId>) -> KeyGraph {
        let users: Vec<UserId> = users.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
        assert!(users.len() <= 12, "complete key graph limited to 12 users");
        assert!(users.iter().all(|u| u.0 < 64), "complete key graph labels need user ids below 64");
        let mut g = KeyGraph::new();
        for subset in 1u32..1 << users.len() {
            let members: Vec<UserId> = (users.iter().enumerate())
                .filter(|(i, _)| subset >> i & 1 == 1)
                .map(|(_, &u)| u)
                .collect();
            let label = KeyLabel(members.iter().fold(0, |mask, u| mask | 1 << u.0));
            for u in members {
                g.add_user_edge(u, label);
            }
        }
        g
    }

    /// Add a user node (no keys yet). Idempotent.
    pub fn add_user(&mut self, u: UserId) {
        self.user_edges.entry(u).or_default();
    }

    /// Add a k-node. Idempotent.
    pub fn add_key(&mut self, k: KeyLabel) {
        self.keys.insert(k);
        self.key_edges.entry(k).or_default();
    }

    /// Add an edge from user `u` to key `k` (u directly holds k).
    pub fn add_user_edge(&mut self, u: UserId, k: KeyLabel) {
        self.add_user(u);
        self.add_key(k);
        self.user_edges.get_mut(&u).expect("just added").insert(k);
    }

    /// Add an edge from key `child` to key `parent`.
    ///
    /// # Panics
    /// Panics if the edge would create a cycle (key graphs are DAGs by
    /// definition; a cycle is a construction bug, not a runtime condition).
    pub fn add_key_edge(&mut self, child: KeyLabel, parent: KeyLabel) {
        self.add_key(child);
        self.add_key(parent);
        assert!(
            !self.reachable_keys_from(parent).contains(&child),
            "edge {child:?} -> {parent:?} would create a cycle"
        );
        self.key_edges.get_mut(&child).expect("just added").insert(parent);
    }

    /// Remove a user and its outgoing edges.
    pub fn remove_user(&mut self, u: UserId) {
        self.user_edges.remove(&u);
    }

    /// Remove a k-node and all edges touching it.
    pub fn remove_key(&mut self, k: KeyLabel) {
        self.keys.remove(&k);
        self.key_edges.remove(&k);
        for parents in self.key_edges.values_mut() {
            parents.remove(&k);
        }
        for keys in self.user_edges.values_mut() {
            keys.remove(&k);
        }
    }

    /// All users in the graph.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.user_edges.keys().copied()
    }

    /// All keys in the graph.
    pub fn keys(&self) -> impl Iterator<Item = KeyLabel> + '_ {
        self.keys.iter().copied()
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.user_edges.len()
    }

    /// Number of keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Roots: k-nodes with no outgoing edges.
    pub fn roots(&self) -> Vec<KeyLabel> {
        self.keys
            .iter()
            .copied()
            .filter(|k| self.key_edges.get(k).is_none_or(|p| p.is_empty()))
            .collect()
    }

    fn reachable_keys_from(&self, start: KeyLabel) -> BTreeSet<KeyLabel> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(k) = queue.pop_front() {
            if !seen.insert(k) {
                continue;
            }
            if let Some(parents) = self.key_edges.get(&k) {
                queue.extend(parents.iter().copied());
            }
        }
        seen
    }

    /// `keyset(u)`: every key reachable from user `u`.
    pub fn keyset(&self, u: UserId) -> BTreeSet<KeyLabel> {
        let mut out = BTreeSet::new();
        if let Some(direct) = self.user_edges.get(&u) {
            for &k in direct {
                out.extend(self.reachable_keys_from(k));
            }
        }
        out
    }

    /// `keyset(U')` for a set of users: keys held by at least one of them.
    pub fn keyset_of(&self, users: &BTreeSet<UserId>) -> BTreeSet<KeyLabel> {
        let mut out = BTreeSet::new();
        for &u in users {
            out.extend(self.keyset(u));
        }
        out
    }

    /// `userset(k)`: every user that holds key `k`.
    pub fn userset(&self, k: KeyLabel) -> BTreeSet<UserId> {
        self.user_edges
            .iter()
            .filter(|(_, direct)| {
                direct.iter().any(|&d| d == k || self.reachable_keys_from(d).contains(&k))
            })
            .map(|(&u, _)| u)
            .collect()
    }

    /// `userset(K')` for a set of keys: users holding at least one of them.
    pub fn userset_of(&self, keys: &BTreeSet<KeyLabel>) -> BTreeSet<UserId> {
        let mut out = BTreeSet::new();
        for &k in keys {
            out.extend(self.userset(k));
        }
        out
    }

    /// The user–key relation R as explicit pairs (small graphs/tests only).
    pub fn relation(&self) -> BTreeSet<(UserId, KeyLabel)> {
        let mut r = BTreeSet::new();
        for u in self.users().collect::<Vec<_>>() {
            for k in self.keyset(u) {
                r.insert((u, k));
            }
        }
        r
    }

    /// Merge another key graph into this one (union of nodes and edges).
    ///
    /// This is how multiple per-group key trees combine into the single key
    /// graph of a multi-group service (Section 7): a user in several groups
    /// appears once, with edges into each group's tree.
    pub fn merge(&mut self, other: &KeyGraph) {
        for (&u, keys) in &other.user_edges {
            for &k in keys {
                self.add_user_edge(u, k);
            }
            self.add_user(u);
        }
        for (&child, parents) in &other.key_edges {
            self.add_key(child);
            for &p in parents {
                self.add_key_edge(child, p);
            }
        }
        for &k in &other.keys {
            self.add_key(k);
        }
    }

    /// A copy of this graph with every key label shifted by `offset`.
    ///
    /// Independently built group key trees number their labels from zero;
    /// shifting avoids collisions when merging them into one multi-group
    /// key graph (Section 7).
    pub fn relabeled(&self, offset: u64) -> KeyGraph {
        let mut out = KeyGraph::new();
        for (&u, keys) in &self.user_edges {
            out.add_user(u);
            for &k in keys {
                out.add_user_edge(u, KeyLabel(k.0 + offset));
            }
        }
        for (&child, parents) in &self.key_edges {
            out.add_key(KeyLabel(child.0 + offset));
            for &p in parents {
                out.add_key_edge(KeyLabel(child.0 + offset), KeyLabel(p.0 + offset));
            }
        }
        for &k in &self.keys {
            out.add_key(KeyLabel(k.0 + offset));
        }
        out
    }

    /// Exact minimum key cover: the smallest `K' ⊆ K` with
    /// `userset(K') = target`, found by exhaustive subset search over the
    /// *useful* candidate keys. Exponential — intended for small instances
    /// and for validating the greedy heuristic in tests.
    ///
    /// Returns `None` when no cover exists (some target user holds no key,
    /// or every key covering a target user also covers a non-target user).
    pub fn key_cover_exact(&self, target: &BTreeSet<UserId>) -> Option<BTreeSet<KeyLabel>> {
        if target.is_empty() {
            return Some(BTreeSet::new());
        }
        // Candidate keys: those whose userset is a nonempty subset of target.
        let candidates: Vec<(KeyLabel, BTreeSet<UserId>)> = self
            .keys()
            .map(|k| (k, self.userset(k)))
            .filter(|(_, us)| !us.is_empty() && us.is_subset(target))
            .collect();
        let n = candidates.len();
        if n > 20 {
            // Refuse pathological instances; callers use the greedy path.
            return self.key_cover_greedy(target);
        }
        let mut best: Option<BTreeSet<KeyLabel>> = None;
        for mask in 0u32..(1 << n) {
            if let Some(ref b) = best {
                if (mask.count_ones() as usize) >= b.len() {
                    continue;
                }
            }
            let mut covered: BTreeSet<UserId> = BTreeSet::new();
            for (i, (_, us)) in candidates.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    covered.extend(us.iter().copied());
                }
            }
            if covered == *target {
                let set = candidates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, (k, _))| *k)
                    .collect();
                best = Some(set);
            }
        }
        best
    }

    /// Greedy key cover (classic ln(n)-approximation to set cover):
    /// repeatedly take the candidate key covering the most uncovered target
    /// users. Returns `None` when no cover exists.
    pub fn key_cover_greedy(&self, target: &BTreeSet<UserId>) -> Option<BTreeSet<KeyLabel>> {
        let mut remaining = target.clone();
        let candidates: Vec<(KeyLabel, BTreeSet<UserId>)> = self
            .keys()
            .map(|k| (k, self.userset(k)))
            .filter(|(_, us)| !us.is_empty() && us.is_subset(target))
            .collect();
        let mut cover = BTreeSet::new();
        while !remaining.is_empty() {
            let best =
                candidates.iter().max_by_key(|(_, us)| us.intersection(&remaining).count())?;
            let gain = best.1.intersection(&remaining).count();
            if gain == 0 {
                return None;
            }
            cover.insert(best.0);
            remaining = remaining.difference(&best.1).copied().collect();
        }
        Some(cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId(i)
    }
    fn k(i: u64) -> KeyLabel {
        KeyLabel(i)
    }

    /// Build the key graph of the paper's Figure 1:
    /// users u1..u4; keys k1..k4 (individual), k234, k1234.
    /// u1 -> k1, k1234; u2 -> k2, k234; u3 -> k3, k234; u4 -> k4, k234;
    /// k234 -> k1234.
    fn figure1() -> KeyGraph {
        let mut g = KeyGraph::new();
        for i in 1..=4 {
            g.add_user_edge(u(i), k(i));
        }
        g.add_user_edge(u(1), k(1234));
        for i in 2..=4 {
            g.add_user_edge(u(i), k(234));
        }
        g.add_key_edge(k(234), k(1234));
        g
    }

    #[test]
    fn figure1_keysets_match_paper() {
        let g = figure1();
        assert_eq!(g.keyset(u(1)), [k(1), k(1234)].into_iter().collect());
        assert_eq!(g.keyset(u(4)), [k(4), k(234), k(1234)].into_iter().collect());
    }

    #[test]
    fn figure1_usersets_match_paper() {
        let g = figure1();
        assert_eq!(g.userset(k(234)), [u(2), u(3), u(4)].into_iter().collect());
        assert_eq!(g.userset(k(1234)), [u(1), u(2), u(3), u(4)].into_iter().collect());
        assert_eq!(g.userset(k(1)), [u(1)].into_iter().collect());
    }

    #[test]
    fn figure1_relation_size() {
        let g = figure1();
        // R = {(u1,k1),(u1,k1234)} ∪ {(ui,ki),(ui,k234),(ui,k1234) : i=2..4}
        assert_eq!(g.relation().len(), 2 + 3 * 3);
    }

    #[test]
    fn roots_detected() {
        // In Figure 1 the individual k-nodes k1..k4 hang directly off the
        // u-nodes with no outgoing edges, so by the paper's definition they
        // are roots too ("a key graph can have multiple roots"); k1234 is
        // the group-key root.
        let g = figure1();
        let roots = g.roots();
        assert!(roots.contains(&k(1234)));
        assert_eq!(roots.len(), 5);
        // In a *tree* key graph, individual keys chain upward, so the only
        // root is the group key (cf. KeyTree::to_key_graph tests).
        let mut tree = KeyGraph::new();
        tree.add_user_edge(u(1), k(1));
        tree.add_user_edge(u(2), k(2));
        tree.add_key_edge(k(1), k(100));
        tree.add_key_edge(k(2), k(100));
        assert_eq!(tree.roots(), vec![k(100)]);
    }

    #[test]
    fn multi_root_graph() {
        let mut g = KeyGraph::new();
        g.add_user_edge(u(1), k(10));
        g.add_user_edge(u(1), k(20));
        assert_eq!(g.roots().len(), 2);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_rejected() {
        let mut g = KeyGraph::new();
        g.add_key_edge(k(1), k(2));
        g.add_key_edge(k(2), k(3));
        g.add_key_edge(k(3), k(1));
    }

    #[test]
    fn key_cover_after_leave_matches_paper_intro() {
        // The introduction's example: 9 users in 3 subgroups of 3, u1
        // leaves; the new subgroup {u2,u3} must be covered by individual
        // keys; the whole remaining group by {k23', s2, s3} — here we check
        // covering {u2..u9} uses subgroup keys, not 8 individual keys.
        let mut g = KeyGraph::new();
        for i in 1..=9 {
            g.add_user_edge(u(i), k(i));
        }
        // subgroup keys 101, 102, 103; group key 100.
        for i in 1..=3 {
            g.add_user_edge(u(i), k(101));
        }
        for i in 4..=6 {
            g.add_user_edge(u(i), k(102));
        }
        for i in 7..=9 {
            g.add_user_edge(u(i), k(103));
        }
        for sub in [101, 102, 103] {
            g.add_key_edge(k(sub), k(100));
        }
        // Cover U - {u1}:
        let target: BTreeSet<UserId> = (2..=9).map(u).collect();
        let cover = g.key_cover_exact(&target).unwrap();
        // Optimal: {k2, k3, k102, k103} — 4 keys.
        assert_eq!(cover.len(), 4);
        assert_eq!(g.userset_of(&cover), target);
        let greedy = g.key_cover_greedy(&target).unwrap();
        assert_eq!(g.userset_of(&greedy), target);
        assert!(greedy.len() >= cover.len());
    }

    #[test]
    fn key_cover_unsatisfiable() {
        let g = figure1();
        // {u2} alone: only k2 covers exactly u2 — satisfiable.
        let t: BTreeSet<UserId> = [u(2)].into_iter().collect();
        assert_eq!(g.key_cover_exact(&t).unwrap(), [k(2)].into_iter().collect());
        // A user with no keys is uncoverable.
        let mut g2 = g.clone();
        g2.add_user(u(99));
        let t: BTreeSet<UserId> = [u(2), u(99)].into_iter().collect();
        assert!(g2.key_cover_exact(&t).is_none());
        assert!(g2.key_cover_greedy(&t).is_none());
    }

    #[test]
    fn empty_cover_for_empty_target() {
        let g = figure1();
        assert_eq!(g.key_cover_exact(&BTreeSet::new()).unwrap(), BTreeSet::new());
    }

    #[test]
    fn merge_unions_two_groups() {
        // Two groups sharing user u2: merging their trees produces one key
        // graph where u2 reaches both roots.
        let mut g1 = KeyGraph::new();
        g1.add_user_edge(u(1), k(1));
        g1.add_user_edge(u(2), k(2));
        g1.add_key_edge(k(1), k(100));
        g1.add_key_edge(k(2), k(100));

        let mut g2 = KeyGraph::new();
        g2.add_user_edge(u(2), k(2));
        g2.add_user_edge(u(3), k(3));
        g2.add_key_edge(k(2), k(200));
        g2.add_key_edge(k(3), k(200));

        let mut merged = g1.clone();
        merged.merge(&g2);
        assert_eq!(merged.user_count(), 3);
        let ks = merged.keyset(u(2));
        assert!(ks.contains(&k(100)) && ks.contains(&k(200)));
        // u1 must not gain access to group 2's key.
        assert!(!merged.keyset(u(1)).contains(&k(200)));
        assert_eq!(merged.roots().len(), 2);
    }

    #[test]
    fn remove_key_cleans_edges() {
        let mut g = figure1();
        g.remove_key(k(234));
        assert!(!g.keyset(u(2)).contains(&k(234)));
        // u2 loses the path to the group key that ran through k234.
        assert!(!g.keyset(u(2)).contains(&k(1234)));
        assert!(g.keyset(u(1)).contains(&k(1234)));
    }

    #[test]
    fn remove_user_keeps_keys() {
        let mut g = figure1();
        g.remove_user(u(3));
        assert_eq!(g.user_count(), 3);
        assert!(g.keys().any(|key| key == k(3)));
        assert_eq!(g.userset(k(234)), [u(2), u(4)].into_iter().collect());
    }

    #[test]
    fn keyset_of_multiple_users() {
        let g = figure1();
        let users: BTreeSet<UserId> = [u(1), u(2)].into_iter().collect();
        let ks = g.keyset_of(&users);
        assert!(ks.contains(&k(1)) && ks.contains(&k(2)) && ks.contains(&k(234)));
    }

    fn complete(n: u64) -> KeyGraph {
        KeyGraph::complete((0..n).map(u))
    }

    #[test]
    fn complete_graph_table1_counts() {
        for n in 1..=6u64 {
            let g = complete(n);
            assert_eq!(g.key_count(), (1 << n) - 1, "n={n}");
            for uu in 0..n {
                assert_eq!(g.keyset(u(uu)).len(), 1 << (n - 1), "n={n}");
            }
        }
        assert_eq!(KeyGraph::complete([]).key_count(), 0);
    }

    #[test]
    fn complete_graph_join_adds_a_key_per_subset_with_the_joiner() {
        let grown = complete(5);
        let before: BTreeSet<KeyLabel> = complete(4).keys().collect();
        let after: BTreeSet<KeyLabel> = grown.keys().collect();
        assert!(before.is_subset(&after));
        // The joiner is in 2^m of the new subsets, m = 4 members before.
        assert_eq!(after.difference(&before).count(), 1 << 4);
        let everyone = after.iter().max().copied().unwrap();
        assert_eq!(grown.userset(everyone), (0..5).map(u).collect());
    }

    #[test]
    fn complete_graph_leave_adds_no_key() {
        let full = complete(5);
        let before: BTreeSet<KeyLabel> = full.keys().collect();
        let after: BTreeSet<KeyLabel> = KeyGraph::complete([1, 2, 3, 4].map(u)).keys().collect();
        assert!(after.is_subset(&before), "every survivor subset key already existed");
        assert_eq!(after.len(), 15);
        // None of them was ever held by the leaver.
        assert!(after.iter().all(|&key| !full.userset(key).contains(&u(0))));
    }

    #[test]
    #[should_panic(expected = "12 users")]
    fn complete_graph_refuses_more_than_twelve_users() {
        complete(13);
    }

    proptest::proptest! {
        /// keyset/userset duality: u ∈ userset(k) ⇔ k ∈ keyset(u).
        #[test]
        fn keyset_userset_duality(edges in proptest::collection::vec((0u64..8, 0u64..8), 1..30)) {
            let mut g = KeyGraph::new();
            for &(uu, kk) in &edges {
                g.add_user_edge(u(uu), k(kk));
            }
            // Random upward key edges that cannot cycle: only child < parent.
            for &(a, b) in &edges {
                if a < b {
                    g.add_key_edge(k(a), k(b));
                }
            }
            for uu in g.users().collect::<Vec<_>>() {
                for kk in g.keyset(uu) {
                    proptest::prop_assert!(g.userset(kk).contains(&uu));
                }
            }
            for kk in g.keys().collect::<Vec<_>>() {
                for uu in g.userset(kk) {
                    proptest::prop_assert!(g.keyset(uu).contains(&kk));
                }
            }
        }

        /// Greedy cover, when it exists, actually covers exactly the target.
        #[test]
        fn greedy_cover_is_exact_cover(edges in proptest::collection::vec((0u64..6, 0u64..6), 1..20)) {
            let mut g = KeyGraph::new();
            for &(uu, kk) in &edges {
                g.add_user_edge(u(uu), k(kk + 100));
            }
            // Also give each user an individual key so covers always exist.
            for uu in g.users().collect::<Vec<_>>() {
                g.add_user_edge(uu, k(uu.0));
            }
            let all: BTreeSet<UserId> = g.users().collect();
            for drop in all.iter().copied() {
                let target: BTreeSet<UserId> = all.iter().copied().filter(|&x| x != drop).collect();
                if target.is_empty() { continue; }
                let cover = g.key_cover_greedy(&target).unwrap();
                proptest::prop_assert_eq!(g.userset_of(&cover), target);
            }
        }
    }
}
