//! Client-side key derivation — the `Strategy::Derived` KDF.
//!
//! The paper's three strategies all *ship* refreshed keys: every change to
//! a k-node costs the server an encryption and the group a ciphertext on
//! the wire. Client-derived rekeying (CKCS-style; see PAPERS.md) observes
//! that for *joins* and *refreshes* — where every current holder of a
//! changed key is entitled to its replacement — the server need only
//! multicast a short random **derivation code** and let each member
//! recompute the keys it holds:
//!
//! ```text
//! K'_x = HMAC-SHA256(K_x, code ‖ label(x) ‖ version'(x))  truncated to key_len
//! ```
//!
//! Binding the node's label and the *new* version number into the message
//! makes every (node, generation) derivation domain-separated: the same
//! code never maps two nodes, or two generations of one node, to related
//! keys. The server performs the same derivation (it holds every old key),
//! so server and members converge on identical key material with **zero**
//! key ciphertexts for current members — only the joiner still needs its
//! path shipped, sealed under its individual key.
//!
//! *Leaves must still ship*: a departing member holds the old keys on its
//! path, so any key derivable from them via a public code would be
//! derivable by the departed member too. Forward secrecy therefore forces
//! the evicted path's replacements to be fresh random keys delivered the
//! classic way (see `DESIGN.md` §4g for the full argument).

use crate::ids::{KeyLabel, KeyRef, KeyVersion};
use kg_crypto::hmac::hmac;
use kg_crypto::sha256::Sha256;
use kg_crypto::{Digest, SymmetricKey};

/// One derivable key replacement, as published in a derived rekey packet:
/// whoever holds the key at `from` recomputes the key at `new_ref` via
/// [`derive_key`]`(held, code, new_ref.label, new_ref.version)`.
///
/// `from` is usually the same node one version earlier; for a node freshly
/// created by a leaf split it is the displaced member's individual key —
/// a different label, held by exactly the node's previous userset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedLink {
    /// Reference of the replacement key (label + new version).
    pub new_ref: KeyRef,
    /// Reference of the key the replacement is derived from.
    pub from: KeyRef,
}

/// Bytes of derivation code published per derived rekey operation.
///
/// 128 bits: comfortably past birthday bounds for any conceivable number
/// of intervals, while keeping the multicast packet tiny.
pub const DERIVATION_CODE_LEN: usize = 16;

/// Derive the replacement key for node `label` at (new) version
/// `new_version` from its previous key `old` and the published `code`.
///
/// Both sides of the protocol call exactly this function: the server to
/// advance its tree, each member to advance the subset of the path it
/// holds. The HMAC output (32 bytes) is truncated to `key_len`.
pub fn derive_key(
    old: &SymmetricKey,
    code: &[u8],
    label: KeyLabel,
    new_version: KeyVersion,
    key_len: usize,
) -> SymmetricKey {
    debug_assert!(key_len <= Sha256::OUTPUT_SIZE, "key_len exceeds HMAC-SHA256 output");
    let mut msg = Vec::with_capacity(code.len() + 16);
    msg.extend_from_slice(code);
    msg.extend_from_slice(&label.0.to_be_bytes());
    msg.extend_from_slice(&new_version.0.to_be_bytes());
    let mut out = hmac::<Sha256>(old.material(), &msg);
    out.truncate(key_len);
    SymmetricKey::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(bytes: &[u8]) -> SymmetricKey {
        SymmetricKey::from_bytes(bytes)
    }

    #[test]
    fn deterministic_and_truncated() {
        let old = k(&[7u8; 8]);
        let code = [0xAAu8; DERIVATION_CODE_LEN];
        let a = derive_key(&old, &code, KeyLabel(3), KeyVersion(2), 8);
        let b = derive_key(&old, &code, KeyLabel(3), KeyVersion(2), 8);
        assert_eq!(a, b);
        assert_eq!(a.material().len(), 8);
    }

    #[test]
    fn domain_separated_by_label_version_code_and_key() {
        let old = k(&[7u8; 8]);
        let code = [0xAAu8; DERIVATION_CODE_LEN];
        let base = derive_key(&old, &code, KeyLabel(3), KeyVersion(2), 8);
        assert_ne!(base, derive_key(&old, &code, KeyLabel(4), KeyVersion(2), 8));
        assert_ne!(base, derive_key(&old, &code, KeyLabel(3), KeyVersion(3), 8));
        let code2 = [0xABu8; DERIVATION_CODE_LEN];
        assert_ne!(base, derive_key(&old, &code2, KeyLabel(3), KeyVersion(2), 8));
        assert_ne!(base, derive_key(&k(&[8u8; 8]), &code, KeyLabel(3), KeyVersion(2), 8));
    }

    #[test]
    fn matches_raw_hmac_construction() {
        // Pin the exact message layout: code ‖ label.be ‖ new_version.be.
        let old = k(b"old-key!");
        let code = [1u8; DERIVATION_CODE_LEN];
        let mut msg = code.to_vec();
        msg.extend_from_slice(&5u64.to_be_bytes());
        msg.extend_from_slice(&9u64.to_be_bytes());
        let want = &hmac::<Sha256>(old.material(), &msg)[..8];
        let got = derive_key(&old, &code, KeyLabel(5), KeyVersion(9), 8);
        assert_eq!(got.material(), want);
    }
}
