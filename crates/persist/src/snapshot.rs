//! Snapshots: a full server checkpoint in one CRC-checked file.
//!
//! ```text
//! "KGSS" | version u32 | epoch u64 | body | crc32(everything before) u32
//! ```
//!
//! The body captures everything the server needs to resume: the next
//! sequence number, the key DRBG's working state, the encoded key tree (see
//! `kg_core::serial`), the ACL, accumulated statistics, and the batch
//! scheduler queue. `kg-persist` stays server-agnostic by mirroring the
//! server's state in plain data types here; the server converts in both
//! directions.
//!
//! Nothing here repeats the replay contract, which the WAL header beside
//! the snapshot holds once: no seed, a tree without its degree or key
//! length (the server decodes it under the header's), and a queue section
//! that every server writes, empty when it rekeys per request.
//!
//! Version 3 dropped version 2's second DRBG state, the IV stream's: a
//! rekey bundle's IV is derived from its interval and targets, so nothing
//! is drawn for it. A snapshot of any other version fails with
//! [`PersistError::UnsupportedVersion`].
//!
//! Snapshots are written atomically (temp file + rename), so a reader
//! never observes a half-written snapshot — a crash during the write
//! leaves the previous epoch's pair intact.

use crate::crc::crc32;
use crate::PersistError;
use kg_core::ids::UserId;
use kg_wire::codec::{get_u32, get_u64, get_u8};

use bytes::BufMut;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"KGSS";

/// Snapshot format version written by this crate.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Bound on any embedded blob (the encoded tree dominates; 1 GiB is far
/// beyond the millions-of-users scale and merely stops a corrupt length
/// field from allocating unbounded memory).
const MAX_BLOB_LEN: u64 = 1 << 30;

/// Bound on any collection count in a snapshot.
const MAX_SNAPSHOT_COUNT: u64 = 1 << 32;

/// Mirror of the server's access-control policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AclSnapshot {
    /// Admit anyone.
    AllowAll,
    /// Admit exactly the listed users (sorted).
    AllowList(Vec<UserId>),
}

/// Mirror of one statistics record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatRecord {
    /// Operation kind as its wire tag (join=0, leave=1, batch=2, refresh=3).
    pub kind: u8,
    /// Membership requests covered.
    pub requests: u32,
    /// Wire sizes of the rekey messages sent.
    pub msg_sizes: Vec<u32>,
    /// Processing time in nanoseconds.
    pub proc_ns: u64,
    /// Keys encrypted.
    pub encryptions: u64,
    /// Signature operations.
    pub signatures: u64,
}

/// Mirror of the batch scheduler's queue and interval clock (all empty and
/// zero for a server that rekeys per request).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Queued joins with their individual-key material, in arrival order.
    pub joins: Vec<(UserId, Vec<u8>)>,
    /// Queued leaves, in arrival order.
    pub leaves: Vec<UserId>,
    /// Start of the interval in progress when the snapshot was taken.
    pub last_flush_ms: u64,
    /// Intervals flushed so far.
    pub intervals_flushed: u64,
}

/// A full server checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Next rekey-packet sequence number.
    pub seq: u64,
    /// Key-generation DRBG working state `(K, V)`.
    pub keygen: ([u8; 32], [u8; 32]),
    /// The key tree, encoded by `kg_core::serial::encode_tree`.
    pub tree: Vec<u8>,
    /// Admission policy.
    pub acl: AclSnapshot,
    /// Accumulated per-operation statistics.
    pub stats: Vec<StatRecord>,
    /// Batch scheduler state.
    pub scheduler: SchedulerSnapshot,
    /// SHA-256 digest of the group key at snapshot time.
    pub root_digest: [u8; 32],
}

fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.put_u64(bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn get_blob(buf: &mut &[u8]) -> Result<Vec<u8>, PersistError> {
    let len = get_u64(buf).map_err(|_| PersistError::Corrupt("snapshot blob length"))?;
    if len > MAX_BLOB_LEN {
        return Err(PersistError::Corrupt("snapshot blob too long"));
    }
    let len = len as usize;
    if buf.len() < len {
        return Err(PersistError::Corrupt("snapshot blob truncated"));
    }
    let (blob, rest) = buf.split_at(len);
    *buf = rest;
    Ok(blob.to_vec())
}

fn get_snapshot_count(buf: &mut &[u8]) -> Result<usize, PersistError> {
    let n = get_u64(buf).map_err(|_| PersistError::Corrupt("snapshot count"))?;
    if n > MAX_SNAPSHOT_COUNT {
        return Err(PersistError::Corrupt("snapshot count too large"));
    }
    Ok(n as usize)
}

fn get_array32(buf: &mut &[u8]) -> Result<[u8; 32], PersistError> {
    if buf.len() < 32 {
        return Err(PersistError::Corrupt("snapshot digest truncated"));
    }
    let mut out = [0u8; 32];
    out.copy_from_slice(&buf[..32]);
    *buf = &buf[32..];
    Ok(out)
}

impl Snapshot {
    /// Serialize into a complete snapshot file image for `epoch`.
    pub fn encode(&self, epoch: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.tree.len() + 256);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.put_u32(SNAPSHOT_VERSION);
        out.put_u64(epoch);
        out.put_u64(self.seq);
        out.extend_from_slice(&self.keygen.0);
        out.extend_from_slice(&self.keygen.1);
        put_blob(&mut out, &self.tree);
        match &self.acl {
            AclSnapshot::AllowAll => out.put_u8(0),
            AclSnapshot::AllowList(users) => {
                out.put_u8(1);
                out.put_u64(users.len() as u64);
                for u in users {
                    out.put_u64(u.0);
                }
            }
        }
        out.put_u64(self.stats.len() as u64);
        for rec in &self.stats {
            out.put_u8(rec.kind);
            out.put_u32(rec.requests);
            out.put_u64(rec.msg_sizes.len() as u64);
            for &s in &rec.msg_sizes {
                out.put_u32(s);
            }
            out.put_u64(rec.proc_ns);
            out.put_u64(rec.encryptions);
            out.put_u64(rec.signatures);
        }
        let s = &self.scheduler;
        out.put_u64(s.joins.len() as u64);
        for (u, key) in &s.joins {
            out.put_u64(u.0);
            put_blob(&mut out, key);
        }
        out.put_u64(s.leaves.len() as u64);
        for u in &s.leaves {
            out.put_u64(u.0);
        }
        out.put_u64(s.last_flush_ms);
        out.put_u64(s.intervals_flushed);
        out.extend_from_slice(&self.root_digest);
        let crc = crc32(&out);
        out.put_u32(crc);
        out
    }

    /// Parse and validate a snapshot file image, returning the snapshot
    /// and its epoch.
    pub fn decode(bytes: &[u8]) -> Result<(Self, u64), PersistError> {
        if bytes.len() < 4 + 4 + 8 + 4 {
            return Err(PersistError::Corrupt("snapshot truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let mut crc_buf = crc_bytes;
        let stored = get_u32(&mut crc_buf).expect("4 bytes");
        if crc32(body) != stored {
            return Err(PersistError::Corrupt("snapshot crc"));
        }
        let mut buf = body;
        let (magic, rest) = buf.split_at(4);
        buf = rest;
        if magic != SNAPSHOT_MAGIC {
            return Err(PersistError::Corrupt("snapshot magic"));
        }
        let version = get_u32(&mut buf).map_err(|_| PersistError::Corrupt("snapshot header"))?;
        if version != SNAPSHOT_VERSION {
            return Err(PersistError::UnsupportedVersion { found: version });
        }
        let epoch = get_u64(&mut buf).map_err(|_| PersistError::Corrupt("snapshot header"))?;
        let seq = get_u64(&mut buf).map_err(|_| PersistError::Corrupt("snapshot header"))?;
        let keygen = (get_array32(&mut buf)?, get_array32(&mut buf)?);
        let tree = get_blob(&mut buf)?;
        let acl = match get_u8(&mut buf).map_err(|_| PersistError::Corrupt("snapshot acl"))? {
            0 => AclSnapshot::AllowAll,
            1 => {
                let n = get_snapshot_count(&mut buf)?;
                let mut users = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    users.push(UserId(
                        get_u64(&mut buf).map_err(|_| PersistError::Corrupt("snapshot acl"))?,
                    ));
                }
                AclSnapshot::AllowList(users)
            }
            _ => return Err(PersistError::Corrupt("snapshot acl tag")),
        };
        let n_stats = get_snapshot_count(&mut buf)?;
        let mut stats = Vec::with_capacity(n_stats.min(1 << 16));
        for _ in 0..n_stats {
            let corrupt = |_| PersistError::Corrupt("snapshot stats");
            let kind = get_u8(&mut buf).map_err(corrupt)?;
            let requests = get_u32(&mut buf).map_err(corrupt)?;
            let n_sizes = get_snapshot_count(&mut buf)?;
            let mut msg_sizes = Vec::with_capacity(n_sizes.min(1 << 16));
            for _ in 0..n_sizes {
                msg_sizes.push(get_u32(&mut buf).map_err(corrupt)?);
            }
            let proc_ns = get_u64(&mut buf).map_err(corrupt)?;
            let encryptions = get_u64(&mut buf).map_err(corrupt)?;
            let signatures = get_u64(&mut buf).map_err(corrupt)?;
            stats.push(StatRecord { kind, requests, msg_sizes, proc_ns, encryptions, signatures });
        }
        let corrupt = |_| PersistError::Corrupt("snapshot scheduler");
        let n_joins = get_snapshot_count(&mut buf)?;
        let mut joins = Vec::with_capacity(n_joins.min(1 << 16));
        for _ in 0..n_joins {
            let u = UserId(get_u64(&mut buf).map_err(corrupt)?);
            let key = get_blob(&mut buf)?;
            joins.push((u, key));
        }
        let n_leaves = get_snapshot_count(&mut buf)?;
        let mut leaves = Vec::with_capacity(n_leaves.min(1 << 16));
        for _ in 0..n_leaves {
            leaves.push(UserId(get_u64(&mut buf).map_err(corrupt)?));
        }
        let last_flush_ms = get_u64(&mut buf).map_err(corrupt)?;
        let intervals_flushed = get_u64(&mut buf).map_err(corrupt)?;
        let scheduler = SchedulerSnapshot { joins, leaves, last_flush_ms, intervals_flushed };
        let root_digest = get_array32(&mut buf)?;
        if !buf.is_empty() {
            return Err(PersistError::Corrupt("snapshot trailing bytes"));
        }
        let snap = Snapshot { seq, keygen, tree, acl, stats, scheduler, root_digest };
        Ok((snap, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            seq: 99,
            keygen: ([1u8; 32], [2u8; 32]),
            tree: vec![0xAB; 300],
            acl: AclSnapshot::AllowList(vec![UserId(1), UserId(5), UserId(9)]),
            stats: vec![StatRecord {
                kind: 2,
                requests: 12,
                msg_sizes: vec![100, 240],
                proc_ns: 5_000,
                encryptions: 31,
                signatures: 1,
            }],
            scheduler: SchedulerSnapshot {
                joins: vec![(UserId(42), vec![9u8; 8])],
                leaves: vec![UserId(3)],
                last_flush_ms: 1_234,
                intervals_flushed: 17,
            },
            root_digest: [0xCD; 32],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let bytes = snap.encode(6);
        let (decoded, epoch) = Snapshot::decode(&bytes).unwrap();
        assert_eq!(epoch, 6);
        assert_eq!(decoded, snap);
    }

    #[test]
    fn roundtrip_minimal() {
        let snap = Snapshot {
            seq: 0,
            keygen: ([0u8; 32], [0u8; 32]),
            tree: Vec::new(),
            acl: AclSnapshot::AllowAll,
            stats: Vec::new(),
            scheduler: SchedulerSnapshot::default(),
            root_digest: [0u8; 32],
        };
        let bytes = snap.encode(0);
        let (decoded, epoch) = Snapshot::decode(&bytes).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(decoded, snap);
    }

    /// Another version, its CRC intact, is a typed error naming it.
    #[test]
    fn other_versions_fail_closed_with_a_typed_error() {
        for version in [1u32, 2, 4] {
            let mut bytes = sample().encode(1);
            bytes[4..8].copy_from_slice(&version.to_be_bytes());
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_be_bytes());
            assert!(matches!(
                Snapshot::decode(&bytes),
                Err(PersistError::UnsupportedVersion { found }) if found == version
            ));
        }
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let bytes = sample().encode(1);
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().encode(1);
        let original = Snapshot::decode(&bytes).unwrap();
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0x01;
            match Snapshot::decode(&copy) {
                Err(_) => {}
                Ok(decoded) => assert_eq!(decoded, original, "flip at {i} silently accepted"),
            }
        }
    }
}
