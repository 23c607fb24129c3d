//! # kg-persist — durability for the group key server
//!
//! The paper's key server (§5) is an in-memory process: a crash loses the
//! whole key graph and forces a full group re-initialization. This crate
//! adds the standard database-style remedy, shaped to the key server's
//! unusual advantage — the server is a *deterministic* state machine
//! driven by an HMAC-DRBG, so the log can record tiny *requests* instead
//! of effects and recovery regenerates every key bit-for-bit:
//!
//! * [`wal`] — an append-only write-ahead log of the four requests (join,
//!   leave, refresh, interval flush), length-prefixed and CRC-checked,
//!   reusing the `kg-wire` codec, with a configurable fsync policy
//!   ([`FsyncPolicy`]). Each record carries the post-op root-key digest so
//!   replay can prove convergence. The header pins, once, the writer's
//!   *replay contract*: opaque bytes naming the settings that decide what
//!   a record does when replayed.
//! * [`snapshot`] — atomic full checkpoints (key tree, key DRBG state, ACL,
//!   stats, batch queue), written temp-file-then-rename.
//! * [`store`] — the epoch-paired directory layout tying the two
//!   together: taking a snapshot rotates to a fresh WAL (also written
//!   temp-file-then-rename) and truncates history; recovery loads the
//!   latest pair and tolerates a torn final record.
//!
//! The server side of the contract lives in `kg-server`
//! (`GroupKeyServer::recover`); this crate knows nothing about servers and
//! stores the contract without reading it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use snapshot::{AclSnapshot, SchedulerSnapshot, Snapshot, StatRecord};
pub use store::{PersistConfig, Persistence, RecoveredState};
pub use wal::{FsyncPolicy, WalOp};

use std::fmt;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// On-disk data failed validation; the payload names the first
    /// structure that did.
    Corrupt(&'static str),
    /// The log or the snapshot was written in a format version this crate
    /// does not read. Nothing in the store was changed.
    UnsupportedVersion {
        /// The version found in the log header or the snapshot header.
        found: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt(what) => write!(f, "persisted state corrupt: {what}"),
            PersistError::UnsupportedVersion { found } => write!(
                f,
                "store format version {found} is not supported (this build reads wal \
                 version {} and snapshot version {})",
                wal::WAL_VERSION,
                snapshot::SNAPSHOT_VERSION
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Corrupt(_) | PersistError::UnsupportedVersion { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let io = PersistError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
        assert!(std::error::Error::source(&io).is_some());
        let corrupt = PersistError::Corrupt("wal magic");
        assert!(corrupt.to_string().contains("wal magic"));
        assert!(std::error::Error::source(&corrupt).is_none());
        let old = PersistError::UnsupportedVersion { found: 1 };
        assert!(old.to_string().contains("version 1"));
    }
}
