//! Key-tree serialization and root-key digest — the `kg-persist` substrate.
//!
//! Snapshots must restore a [`KeyTree`] *exactly*: the arena layout (node
//! slots, free list, label counter) determines which slots future joins
//! reuse, so a structurally-equal-but-reindexed tree would diverge from
//! the original on the very next operation. The encoding here therefore
//! serializes the arena verbatim rather than a normalized view, making
//! continuation after recovery byte-identical to never having crashed.
//!
//! The encoding holds the arena and nothing the caller already knows: the
//! tree's degree and key length are settings of the server's replay
//! contract, stored once in its log header, and are passed back in to
//! [`decode_tree`]. The format is versioned by the snapshot that holds it.
//!
//! [`root_digest`] hashes the current group key (label, version, material)
//! with SHA-256; the recovery path uses it to prove the replayed tree
//! converged on the same root key the pre-crash server held.

use crate::ids::{KeyLabel, KeyVersion, UserId};
use crate::tree::{KeyTree, Node, Summary};
use kg_crypto::sha256::Sha256;
use kg_crypto::{Digest, SymmetricKey};
use std::collections::BTreeMap;

/// Upper bound accepted for any count/length field when decoding (guards
/// allocation on corrupt snapshots).
const MAX_ITEMS: usize = 1 << 24;

/// Errors from decoding a serialized tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A structural check failed while rebuilding the arena.
    Corrupt(&'static str),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::Truncated => write!(f, "serialized tree is truncated"),
            SerialError::Corrupt(what) => write!(f, "corrupt serialized tree: {what}"),
        }
    }
}

impl std::error::Error for SerialError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, SerialError> {
    let (&b, rest) = buf.split_first().ok_or(SerialError::Truncated)?;
    *buf = rest;
    Ok(b)
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, SerialError> {
    if buf.len() < 4 {
        return Err(SerialError::Truncated);
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Ok(u32::from_be_bytes(head.try_into().expect("4 bytes")))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, SerialError> {
    if buf.len() < 8 {
        return Err(SerialError::Truncated);
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Ok(u64::from_be_bytes(head.try_into().expect("8 bytes")))
}

fn get_count(buf: &mut &[u8]) -> Result<usize, SerialError> {
    let n = get_u32(buf)? as usize;
    if n > MAX_ITEMS {
        return Err(SerialError::Corrupt("count exceeds sanity bound"));
    }
    Ok(n)
}

fn put_opt_index(out: &mut Vec<u8>, v: Option<usize>) {
    match v {
        None => out.push(0),
        Some(i) => {
            out.push(1);
            put_u64(out, i as u64);
        }
    }
}

fn get_opt_index(buf: &mut &[u8]) -> Result<Option<usize>, SerialError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_u64(buf)? as usize)),
        _ => Err(SerialError::Corrupt("bad option tag")),
    }
}

/// Serialize a tree, arena layout included, to a stable binary form. The
/// degree and key length are left out: [`decode_tree`] takes them back.
pub fn encode_tree(tree: &KeyTree) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, tree.root as u64);
    put_u64(&mut out, tree.next_label);
    put_u32(&mut out, tree.nodes.len() as u32);
    for slot in &tree.nodes {
        match slot {
            None => out.push(0),
            Some(node) => {
                out.push(1);
                put_u64(&mut out, node.label.0);
                put_u64(&mut out, node.version.0);
                put_u32(&mut out, node.key.len() as u32);
                out.extend_from_slice(node.key.material());
                put_opt_index(&mut out, node.parent);
                put_u32(&mut out, node.children.len() as u32);
                for &c in &node.children {
                    put_u64(&mut out, c as u64);
                }
                put_opt_index(&mut out, node.user.map(|u| u.0 as usize));
                put_u64(&mut out, u64::from(node.sum.size));
            }
        }
    }
    put_u32(&mut out, tree.free.len() as u32);
    for &f in &tree.free {
        put_u64(&mut out, f as u64);
    }
    put_u32(&mut out, tree.users.len() as u32);
    for (&u, &leaf) in &tree.users {
        put_u64(&mut out, u.0);
        put_u64(&mut out, leaf as u64);
    }
    out
}

/// Rebuild a tree of the given degree and key length from [`encode_tree`]
/// output. The result continues the original's behaviour exactly (same
/// arena slots, same label counter).
pub fn decode_tree(bytes: &[u8], degree: usize, key_len: usize) -> Result<KeyTree, SerialError> {
    if degree < 2 || key_len == 0 {
        return Err(SerialError::Corrupt("invalid degree/key length"));
    }
    let mut buf = bytes;
    let root = get_u64(&mut buf)? as usize;
    let next_label = get_u64(&mut buf)?;
    let n_slots = get_count(&mut buf)?;
    let mut nodes: Vec<Option<Node>> = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        match get_u8(&mut buf)? {
            0 => nodes.push(None),
            1 => {
                let label = KeyLabel(get_u64(&mut buf)?);
                let version = KeyVersion(get_u64(&mut buf)?);
                let klen = get_count(&mut buf)?;
                if buf.len() < klen {
                    return Err(SerialError::Truncated);
                }
                let key = SymmetricKey::from_bytes(&buf[..klen]);
                buf = &buf[klen..];
                let parent = get_opt_index(&mut buf)?;
                let n_children = get_count(&mut buf)?;
                let mut children = Vec::with_capacity(n_children);
                for _ in 0..n_children {
                    children.push(get_u64(&mut buf)? as usize);
                }
                let user = get_opt_index(&mut buf)?.map(|u| UserId(u as u64));
                let size = u32::try_from(get_u64(&mut buf)?)
                    .map_err(|_| SerialError::Corrupt("subtree size out of range"))?;
                // Only `size` is stored; the rest is rebuilt below.
                let sum = Summary { size, ..Summary::EMPTY_INTERIOR };
                nodes.push(Some(Node { label, version, key, parent, children, user, sum }));
            }
            _ => return Err(SerialError::Corrupt("bad node slot tag")),
        }
    }
    let n_free = get_count(&mut buf)?;
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free.push(get_u64(&mut buf)? as usize);
    }
    let n_users = get_count(&mut buf)?;
    let mut users = BTreeMap::new();
    for _ in 0..n_users {
        let u = UserId(get_u64(&mut buf)?);
        let leaf = get_u64(&mut buf)? as usize;
        users.insert(u, leaf);
    }
    if !buf.is_empty() {
        return Err(SerialError::Corrupt("trailing bytes"));
    }

    // Structural sanity before handing the arena back: every stored index
    // must reference a live slot, or later `node()` calls would panic.
    let live = |id: usize| nodes.get(id).is_some_and(|n| n.is_some());
    if !live(root) {
        return Err(SerialError::Corrupt("root index dead"));
    }
    for node in nodes.iter().flatten() {
        if let Some(p) = node.parent {
            if !live(p) {
                return Err(SerialError::Corrupt("parent index dead"));
            }
        }
        for &c in &node.children {
            if !live(c) {
                return Err(SerialError::Corrupt("child index dead"));
            }
        }
    }
    for &f in &free {
        if f >= nodes.len() || nodes[f].is_some() {
            return Err(SerialError::Corrupt("free-list entry live"));
        }
    }
    for &leaf in users.values() {
        if !live(leaf) {
            return Err(SerialError::Corrupt("user leaf dead"));
        }
    }
    // Indices are in range; now require them to describe one tree (a cycle
    // or a node shared between two parents would make the first walk over
    // the result endless) and rebuild what the encoding leaves out.
    let mut tree = KeyTree { degree, key_len, nodes, free, root, users, next_label };
    tree.validate_and_summarize().map_err(SerialError::Corrupt)?;
    Ok(tree)
}

/// SHA-256 digest of the current group (root) key: label, version, and
/// material. Two trees agree on this iff they hold the same group key.
pub fn root_digest(tree: &KeyTree) -> [u8; 32] {
    let (key_ref, key) = tree.group_key();
    let mut material = Vec::with_capacity(16 + key.len());
    material.extend_from_slice(&key_ref.label.0.to_be_bytes());
    material.extend_from_slice(&key_ref.version.0.to_be_bytes());
    material.extend_from_slice(key.material());
    let d = Sha256::digest(&material);
    let mut out = [0u8; 32];
    out.copy_from_slice(&d);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_crypto::drbg::HmacDrbg;
    use kg_crypto::KeySource;

    fn churned_tree(seed: u64, ops: u64) -> (KeyTree, HmacDrbg) {
        let mut src = HmacDrbg::from_seed(seed);
        let mut tree = KeyTree::new(4, 8, &mut src);
        let mut present = Vec::new();
        for i in 0..ops {
            if i % 3 == 2 && present.len() > 1 {
                let u = present.remove((i as usize * 13) % present.len());
                tree.leave(UserId(u), &mut src).unwrap();
            } else {
                let ik = src.generate_key(8);
                tree.join(UserId(i), ik, &mut src).unwrap();
                present.push(i);
            }
        }
        (tree, src)
    }

    #[test]
    fn roundtrip_preserves_structure_and_keys() {
        let (tree, _) = churned_tree(0xD00D, 120);
        let encoded = encode_tree(&tree);
        let restored = decode_tree(&encoded, tree.degree(), tree.key_len()).unwrap();
        restored.check_invariants();
        assert_eq!(restored.degree(), tree.degree());
        assert_eq!(restored.key_len(), tree.key_len());
        assert_eq!(restored.user_count(), tree.user_count());
        assert_eq!(restored.group_key(), tree.group_key());
        for u in tree.members().collect::<Vec<_>>() {
            assert_eq!(restored.keyset(u), tree.keyset(u));
        }
        assert_eq!(encode_tree(&restored), encoded, "re-encoding is stable");
    }

    #[test]
    fn restored_tree_continues_identically() {
        let (mut tree, mut src) = churned_tree(0xFACE, 60);
        let mut restored = decode_tree(&encode_tree(&tree), tree.degree(), tree.key_len()).unwrap();
        let mut src2 = src.clone();
        // The same future operations must produce identical events.
        let ik = src.generate_key(8);
        let ik2 = src2.generate_key(8);
        let ev_a = tree.join(UserId(9001), ik, &mut src).unwrap();
        let ev_b = restored.join(UserId(9001), ik2, &mut src2).unwrap();
        assert_eq!(ev_a.joins[0].leaf_label, ev_b.joins[0].leaf_label);
        assert_eq!(tree.group_key(), restored.group_key());
        let lv_a = tree.leave(UserId(9001), &mut src).unwrap();
        let lv_b = restored.leave(UserId(9001), &mut src2).unwrap();
        assert_eq!(lv_a.marked_labels(), lv_b.marked_labels());
        assert_eq!(tree.group_key(), restored.group_key());
        assert_eq!(root_digest(&tree), root_digest(&restored));
    }

    #[test]
    fn root_digest_tracks_group_key() {
        let (mut tree, mut src) = churned_tree(7, 20);
        let before = root_digest(&tree);
        assert_eq!(
            before,
            root_digest(&decode_tree(&encode_tree(&tree), tree.degree(), tree.key_len()).unwrap())
        );
        let departing = tree.members().next().unwrap();
        tree.leave(departing, &mut src).unwrap();
        assert_ne!(before, root_digest(&tree), "rekey must change the digest");
    }

    #[test]
    fn truncation_and_corruption_are_errors_not_panics() {
        let (tree, _) = churned_tree(3, 40);
        let encoded = encode_tree(&tree);
        for cut in 0..encoded.len() {
            assert!(decode_tree(&encoded[..cut], 4, 8).is_err(), "cut at {cut}");
        }
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(decode_tree(&trailing, 4, 8).is_err());
    }

    /// The degree comes from outside the encoding, and a tree wider than
    /// the degree it is decoded under is refused.
    #[test]
    fn a_tree_wider_than_its_degree_is_refused() {
        let (tree, _) = churned_tree(6, 30);
        let encoded = encode_tree(&tree);
        assert_eq!(encode_tree(&decode_tree(&encoded, 4, 8).unwrap()), encoded);
        assert_eq!(
            decode_tree(&encoded, 3, 8).unwrap_err(),
            SerialError::Corrupt("node wider than the degree")
        );
        let invalid = SerialError::Corrupt("invalid degree/key length");
        assert_eq!(decode_tree(&encoded, 1, 8).unwrap_err(), invalid);
        assert_eq!(decode_tree(&encoded, 4, 0).unwrap_err(), invalid);
    }

    #[test]
    fn star_degree_roundtrips() {
        let mut src = HmacDrbg::from_seed(8);
        let mut star = KeyTree::new(u32::MAX as usize, 8, &mut src);
        for i in 0..5 {
            let ik = src.generate_key(8);
            star.join(UserId(i), ik, &mut src).unwrap();
        }
        let encoded = encode_tree(&star);
        assert_eq!(encode_tree(&decode_tree(&encoded, star.degree(), 8).unwrap()), encoded);
    }

    #[test]
    fn dangling_indices_rejected() {
        let (tree, _) = churned_tree(4, 10);
        let mut clone = tree.clone();
        // Point the root at a hole in the arena.
        clone.nodes.push(None);
        clone.root = clone.nodes.len() - 1;
        let encoded = encode_tree(&clone);
        assert!(matches!(decode_tree(&encoded, 4, 8), Err(SerialError::Corrupt(_))));
    }

    /// Damage a valid tree's arena in place, then decode its encoding.
    fn decode_damaged(damage: impl FnOnce(&mut KeyTree)) -> Result<KeyTree, SerialError> {
        let (mut tree, _) = churned_tree(5, 120);
        damage(&mut tree);
        decode_tree(&encode_tree(&tree), tree.degree(), tree.key_len())
    }

    /// A non-root interior node together with one of its interior children.
    fn interior_pair(tree: &KeyTree) -> (usize, usize) {
        (0..tree.nodes.len())
            .filter(|&y| tree.nodes[y].as_ref().is_some_and(|n| n.user.is_none()))
            .find_map(|y| tree.node(y).parent.filter(|&x| x != tree.root).map(|x| (x, y)))
            .expect("a tree of this size has interior nodes three levels deep")
    }

    fn some_leaf(tree: &KeyTree) -> usize {
        *tree.users.values().next().expect("members")
    }

    #[test]
    fn cycle_rejected() {
        // x → y → x, cut loose from the rest: every child list agrees with
        // every parent field, and walking up from x never reaches the root.
        let got = decode_damaged(|tree| {
            let (x, y) = interior_pair(tree);
            let above = tree.node(x).parent.unwrap();
            tree.node_mut(above).children.retain(|&c| c != x);
            tree.node_mut(x).parent = Some(y);
            tree.node_mut(y).children.push(x);
        });
        assert!(matches!(got, Err(SerialError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn orphan_rejected() {
        let got = decode_damaged(|tree| {
            let copy = tree.nodes[some_leaf(tree)].clone();
            tree.nodes.push(copy);
        });
        assert!(matches!(got, Err(SerialError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn parent_child_mismatch_rejected() {
        let got = decode_damaged(|tree| {
            let (x, y) = interior_pair(tree);
            let leaf = some_leaf(tree);
            let elsewhere = if tree.node(leaf).parent == Some(y) { x } else { y };
            tree.node_mut(leaf).parent = Some(elsewhere);
        });
        assert!(matches!(got, Err(SerialError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn shared_child_rejected() {
        let got = decode_damaged(|tree| {
            let root = tree.root;
            let first = tree.node(root).children[0];
            tree.node_mut(root).children.push(first);
        });
        assert!(matches!(got, Err(SerialError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn wrong_size_rejected() {
        let got = decode_damaged(|tree| {
            let root = tree.root;
            tree.node_mut(root).sum.size += 1;
        });
        assert!(matches!(got, Err(SerialError::Corrupt(_))), "{got:?}");
    }
}
