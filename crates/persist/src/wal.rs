//! Write-ahead log: framing, fsync policy, and tail-tolerant reading.
//!
//! A log file is a header followed by a sequence of records:
//!
//! ```text
//! header:  "KGWL" | version u32 | epoch u64 | contract_len u32 | contract
//! record:  len u32 | payload (len bytes) | crc32(payload) u32
//! payload: tag u8 | body | post-op root digest (32 bytes)
//!          0 join: user u64   1 leave: user u64   2 refresh   3 flush: now_ms u64
//! ```
//!
//! All integers are big-endian, reusing the `kg-wire` codec. The
//! *contract* is the writer's replay contract: opaque bytes naming every
//! setting that decides what a record does when replayed. This crate
//! stores them and hands them back; the server compares them with its own
//! configuration before it replays anything. Records carry only the
//! request, plus the SHA-256 digest of the group key *after* it, so replay
//! can verify the recovered tree converged to the pre-crash state.
//!
//! A log whose version is not [`WAL_VERSION`] is refused with
//! [`PersistError::UnsupportedVersion`]; there is no reader for older
//! formats.
//!
//! A crash mid-`write(2)` leaves a torn final record — a short length
//! prefix, a short payload, or a CRC mismatch. `read_wal` stops at the
//! first invalid record and reports the byte offset of the valid prefix;
//! the next append truncates the tear away.

use crate::crc::crc32;
use crate::{PersistError, RecoveredState};
use kg_core::ids::UserId;
use kg_wire::codec::{get_u32, get_u64, get_u8};

use bytes::BufMut;
use std::io::Read;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 4] = b"KGWL";

/// WAL format version written by this crate (3: version 2's records, which
/// replay now draws other keys for).
pub const WAL_VERSION: u32 = 3;

/// Largest record payload accepted when reading (an op plus digest is a
/// few dozen bytes; anything huge is corruption, not data).
const MAX_RECORD_LEN: usize = 4096;

/// Largest replay contract accepted in a header (a few spec lines).
const MAX_CONTRACT_LEN: usize = 4096;

/// One logged request.
///
/// The log records *requests*, not effects: replaying a `Join` re-runs
/// admission control, key generation, and tree mutation through the same
/// server code path, which — given the checkpointed DRBG state — must
/// regenerate byte-identical keys. Whether a join is applied at once or
/// queued for the next interval, and which key stream it draws from, is
/// fixed by the replay contract in the log header, so a record names the
/// request alone. Only requests that succeeded are logged (failed requests
/// consume no key material).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A join: rekeyed at once, or queued on a server that batches.
    Join(UserId),
    /// A leave: rekeyed at once, or queued on a server that batches.
    Leave(UserId),
    /// Group-key refresh (key-version bump, no membership change).
    Refresh,
    /// A batch flush was attempted at `now_ms` (the interval clock reset
    /// even if the queue was empty, so empty flushes are logged too).
    Flush {
        /// The server clock passed to the flush.
        now_ms: u64,
    },
}

/// Each op's [`WalOp::name`], indexed by its record tag.
pub(crate) const WAL_OP_NAMES: [&str; 4] = ["join", "leave", "refresh", "flush"];

impl WalOp {
    /// Stable short name for this op, used as a metric label and in
    /// observability events.
    pub fn name(&self) -> &'static str {
        WAL_OP_NAMES[self.tag() as usize]
    }

    /// The record tag.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            WalOp::Join(_) => 0,
            WalOp::Leave(_) => 1,
            WalOp::Refresh => 2,
            WalOp::Flush { .. } => 3,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u8(self.tag());
        match self {
            WalOp::Join(u) | WalOp::Leave(u) => out.put_u64(u.0),
            WalOp::Refresh => {}
            WalOp::Flush { now_ms } => out.put_u64(*now_ms),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, PersistError> {
        let tag = get_u8(buf).map_err(|_| PersistError::Corrupt("wal op tag"))?;
        let mut body = || get_u64(buf).map_err(|_| PersistError::Corrupt("wal op body"));
        Ok(match tag {
            0 => WalOp::Join(UserId(body()?)),
            1 => WalOp::Leave(UserId(body()?)),
            2 => WalOp::Refresh,
            3 => WalOp::Flush { now_ms: body()? },
            _ => return Err(PersistError::Corrupt("wal op tag")),
        })
    }
}

/// When appended records are flushed to stable storage.
///
/// The policies trade durability for throughput exactly as in any
/// journaled store: `EveryRecord` loses nothing but pays a sync per op;
/// `EveryN` bounds loss to the last N−1 ops; `IntervalMs` bounds loss in
/// wall-clock time. Recovery is correct under all three — a record that
/// never reached the disk simply replays as if the request never
/// happened, and the DRBG checkpoint keeps later keys consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record.
    EveryRecord,
    /// `fdatasync` after every N records.
    EveryN(u32),
    /// `fdatasync` when this many milliseconds elapsed since the last one.
    IntervalMs(u64),
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::EveryN(32)
    }
}

/// Serialize the WAL file header.
pub(crate) fn encode_header(epoch: u64, contract: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + contract.len());
    out.extend_from_slice(WAL_MAGIC);
    out.put_u32(WAL_VERSION);
    out.put_u64(epoch);
    out.put_u32(contract.len() as u32);
    out.extend_from_slice(contract);
    out
}

/// Parse and validate a WAL header, returning `(epoch, contract)`. The
/// version is checked before anything past it is read.
fn decode_header(buf: &mut &[u8]) -> Result<(u64, Vec<u8>), PersistError> {
    let truncated = |_| PersistError::Corrupt("wal header truncated");
    if buf.len() < 4 {
        return Err(PersistError::Corrupt("wal header truncated"));
    }
    let (magic, rest) = buf.split_at(4);
    *buf = rest;
    if magic != WAL_MAGIC {
        return Err(PersistError::Corrupt("wal magic"));
    }
    let version = get_u32(buf).map_err(truncated)?;
    if version != WAL_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let epoch = get_u64(buf).map_err(truncated)?;
    let len = get_u32(buf).map_err(truncated)? as usize;
    if len > MAX_CONTRACT_LEN {
        return Err(PersistError::Corrupt("wal header contract length"));
    }
    if buf.len() < len {
        return Err(PersistError::Corrupt("wal header truncated"));
    }
    let (contract, rest) = buf.split_at(len);
    *buf = rest;
    Ok((epoch, contract.to_vec()))
}

/// Serialize one record: length-prefixed, CRC-trailed payload.
pub(crate) fn encode_record(op: &WalOp, root_digest: &[u8; 32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(48);
    op.encode(&mut payload);
    payload.extend_from_slice(root_digest);
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.put_u32(payload.len() as u32);
    out.extend_from_slice(&payload);
    out.put_u32(crc32(&payload));
    out
}

/// Read a whole WAL file, tolerating a torn final record: what it holds
/// (no snapshot yet), and the length of its valid prefix, the truncation
/// point for the next append.
pub(crate) fn read_wal(bytes: &[u8]) -> Result<(RecoveredState, u64), PersistError> {
    let mut buf = bytes;
    let (epoch, contract) = decode_header(&mut buf)?;
    let mut ops = Vec::new();
    let mut valid_len = (bytes.len() - buf.len()) as u64;
    loop {
        let mut cursor = buf;
        let Ok(len) = get_u32(&mut cursor) else { break };
        let len = len as usize;
        if len > MAX_RECORD_LEN || cursor.len() < len + 4 {
            break;
        }
        let payload = &cursor[..len];
        let mut crc_buf = &cursor[len..len + 4];
        let stored = get_u32(&mut crc_buf).expect("4 bytes checked");
        if crc32(payload) != stored {
            break;
        }
        // The frame is intact; a malformed payload inside a valid CRC is
        // real corruption, not a tear.
        let mut p = payload;
        let op = WalOp::decode(&mut p)?;
        if p.len() != 32 {
            return Err(PersistError::Corrupt("wal record digest"));
        }
        let mut digest = [0u8; 32];
        digest.copy_from_slice(p);
        ops.push((op, digest));
        let consumed = 4 + len + 4;
        buf = &buf[consumed..];
        valid_len += consumed as u64;
    }
    let torn_tail = !buf.is_empty();
    Ok((RecoveredState { snapshot: None, contract, epoch, ops, torn_tail }, valid_len))
}

/// Read a WAL from a file path.
pub(crate) fn read_wal_file(path: &std::path::Path) -> Result<(RecoveredState, u64), PersistError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    read_wal(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &[u8] = b"seed = 42\n";

    fn digest(b: u8) -> [u8; 32] {
        [b; 32]
    }

    fn sample_ops() -> [WalOp; 4] {
        [
            WalOp::Join(UserId(1)),
            WalOp::Leave(UserId(2)),
            WalOp::Flush { now_ms: 500 },
            WalOp::Refresh,
        ]
    }

    fn sample_log() -> Vec<u8> {
        let mut file = encode_header(3, CONTRACT);
        for (i, op) in sample_ops().iter().enumerate() {
            file.extend(encode_record(op, &digest(i as u8 + 1)));
        }
        file
    }

    #[test]
    fn roundtrip_all_ops() {
        let (contents, valid_len) = read_wal(&sample_log()).unwrap();
        assert_eq!(contents.epoch, 3);
        assert_eq!(contents.contract, CONTRACT);
        assert!(!contents.torn_tail);
        assert_eq!(valid_len, sample_log().len() as u64);
        let ops: Vec<WalOp> = contents.ops.iter().map(|(op, _)| *op).collect();
        assert_eq!(ops, sample_ops());
        assert_eq!(contents.ops[2].1, digest(3));
        let names: Vec<&str> = sample_ops().iter().map(WalOp::name).collect();
        assert_eq!(names, ["join", "leave", "flush", "refresh"]);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let file = sample_log();
        let third_record_end = {
            let mut f = encode_header(3, CONTRACT);
            for (i, op) in sample_ops()[..3].iter().enumerate() {
                f.extend(encode_record(op, &digest(i as u8 + 1)));
            }
            f.len()
        };
        // Cut anywhere strictly inside the final record: the first three
        // records must survive and the tear must be reported.
        for cut in third_record_end + 1..file.len() {
            let (contents, valid_len) = read_wal(&file[..cut]).unwrap();
            assert_eq!(contents.ops.len(), 3, "cut at {cut}");
            assert!(contents.torn_tail, "cut at {cut}");
            assert_eq!(valid_len, third_record_end as u64);
        }
        // Cut exactly at a record boundary: clean log, no tear.
        let (contents, _) = read_wal(&file[..third_record_end]).unwrap();
        assert_eq!(contents.ops.len(), 3);
        assert!(!contents.torn_tail);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let mut file = sample_log();
        let last = file.len() - 1;
        file[last] ^= 0xFF; // flip inside the final record's CRC
        let (contents, _) = read_wal(&file).unwrap();
        assert_eq!(contents.ops.len(), 3);
        assert!(contents.torn_tail);
    }

    #[test]
    fn bad_header_is_an_error() {
        let mut file = sample_log();
        file[0] = b'X';
        assert!(matches!(read_wal(&file), Err(PersistError::Corrupt("wal magic"))));
        let header_len = encode_header(3, CONTRACT).len();
        for cut in 0..header_len {
            assert!(
                matches!(read_wal(&sample_log()[..cut]), Err(PersistError::Corrupt(_))),
                "cut at {cut}"
            );
        }
        let mut file = sample_log();
        file[16..20].copy_from_slice(&(MAX_CONTRACT_LEN as u32 + 1).to_be_bytes());
        assert!(matches!(
            read_wal(&file),
            Err(PersistError::Corrupt("wal header contract length"))
        ));
    }

    /// Any other version is refused by number, whatever follows it.
    #[test]
    fn other_versions_are_refused_by_number() {
        for version in [0, 1, 2, u32::MAX] {
            let mut file = sample_log();
            file[4..8].copy_from_slice(&version.to_be_bytes());
            match read_wal(&file[..8]) {
                Err(PersistError::UnsupportedVersion { found }) => assert_eq!(found, version),
                other => panic!("version {version}: {other:?}"),
            }
        }
    }

    #[test]
    fn valid_crc_with_garbage_payload_is_corruption() {
        let mut file = encode_header(0, b"");
        let payload = vec![9u8; 40]; // tag 9 is not a WalOp
        file.put_u32(payload.len() as u32);
        file.extend_from_slice(&payload);
        file.put_u32(crc32(&payload));
        assert!(matches!(read_wal(&file), Err(PersistError::Corrupt("wal op tag"))));
    }
}
