//! # kg-wire — wire formats for the key-graphs prototype
//!
//! Binary message formats exchanged between the group key server and
//! clients: `join`/`join-ack`/`leave`/`leave-ack` control messages and
//! rekey packets carrying encrypted key bundles, subgroup labels, a
//! timestamp, and one of four authenticity tags (none / MD5 digest /
//! per-message RSA signature / Section-4 Merkle batch signature).
//!
//! Everything is length-prefixed with strict bounds checking — hostile
//! input cannot trigger large allocations or panics, and any trailing
//! bytes are rejected. Rekey packets write integers as canonical varints,
//! the other planes as big-endian fixed-width fields. Byte counts reported by the benchmark
//! harness are the true encoded sizes produced here.

#![forbid(unsafe_code)]
// Every byte here can come off the network: no panics outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
#![warn(missing_docs)]

pub mod cluster;
pub mod codec;
pub mod message;
pub mod telemetry;

pub use cluster::{
    ClusterBody, ClusterEnvelope, GroupId, ShardId, CLUSTER_MAGIC, CLUSTER_VERSION, ROUTER_SHARD,
};
pub use message::{
    AuthTag, BundleView, Bundles, ControlMessage, KeyRefs, OpKind, RekeyPacket, RekeyView,
    REKEY_MAGIC, REKEY_VERSION,
};
pub use telemetry::TelemetrySnapshot;

use std::fmt;

/// Errors from decoding wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the message was complete.
    Truncated,
    /// A length or count field exceeded its bound.
    FieldTooLong {
        /// Claimed length.
        len: usize,
        /// Permitted maximum.
        max: usize,
    },
    /// An enum tag byte was not recognized.
    BadTag {
        /// Which field was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::FieldTooLong { len, max } => {
                write!(f, "field length {len} exceeds maximum {max}")
            }
            WireError::BadTag { context, tag } => write!(f, "bad tag {tag} decoding {context}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::FieldTooLong { len: 10, max: 5 }.to_string().contains("10"));
        assert!(WireError::BadTag { context: "x", tag: 9 }.to_string().contains('9'));
        assert!(WireError::TrailingBytes(3).to_string().contains('3'));
    }
}
