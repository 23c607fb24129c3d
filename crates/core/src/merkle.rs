//! Signing many rekey messages with one digital signature (Section 4).
//!
//! A digital signature is ~two orders of magnitude slower than a DES
//! encryption, and key-/user-oriented rekeying sends many messages per
//! join/leave. Signing each one individually makes the signature dominate
//! (Table 4: ~140 ms vs ~14 ms). The paper's remedy, after Merkle '89:
//! build a binary tree over the messages' digests, sign only the root, and
//! ship each message with its *authentication path* — the sibling digests
//! needed to recompute the root. One private-key operation amortizes over
//! the whole batch; each receiver does a handful of extra digest
//! computations.
//!
//! The paper's worked example (messages M1…M4, digest messages D12, D34,
//! D1-4) is exactly a two-level instance of this construction.

use kg_crypto::rsa::{HashAlg, RsaPublicKey};
use kg_crypto::CryptoError;

/// Which side a sibling digest sits on when recombining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Sibling is the left input of the parent digest.
    Left,
    /// Sibling is the right input.
    Right,
}

/// The authentication path for one message of a signed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthPath {
    /// Index of the message within the batch (diagnostic only).
    pub index: u32,
    /// Sibling digests from the leaf level up to (but excluding) the root.
    pub siblings: Vec<(Side, Vec<u8>)>,
}

impl AuthPath {
    /// Bytes this path adds to a rekey message on the wire (sides are
    /// packed one byte each in the prototype codec).
    pub fn wire_len(&self) -> usize {
        4 + self.siblings.iter().map(|(_, d)| 1 + d.len()).sum::<usize>()
    }
}

/// Build the digest tree over `messages`: its root digest, which the
/// sender signs once ([`kg_crypto::rsa::RsaPrivateKey::sign_digest`]), and
/// each message's authentication path, in input order.
///
/// Odd levels duplicate their last digest (so every node has two children),
/// keeping paths uniform. A single message's root is its own digest
/// (empty path).
pub fn digest_tree(alg: HashAlg, messages: &[&[u8]]) -> (Vec<u8>, Vec<AuthPath>) {
    assert!(!messages.is_empty(), "cannot sign an empty batch");
    // Level 0: message digests.
    let mut levels: Vec<Vec<Vec<u8>>> = vec![messages.iter().map(|m| alg.hash(m)).collect()];
    while levels.last().expect("nonempty").len() > 1 {
        let prev = levels.last().expect("nonempty");
        let mut next = Vec::with_capacity(prev.len().div_ceil(2));
        for pair in prev.chunks(2) {
            let left = &pair[0];
            let right = pair.get(1).unwrap_or(&pair[0]);
            let mut d = Vec::with_capacity(left.len() + right.len());
            d.extend_from_slice(left);
            d.extend_from_slice(right);
            next.push(alg.hash(&d));
        }
        levels.push(next);
    }
    let root = levels.last().expect("nonempty")[0].clone();

    let mut paths = Vec::with_capacity(messages.len());
    for i in 0..messages.len() {
        let mut siblings = Vec::new();
        let mut idx = i;
        for level in &levels[..levels.len() - 1] {
            let sib_idx = idx ^ 1;
            let sibling = level.get(sib_idx).unwrap_or(&level[idx]).clone();
            let side = if sib_idx < idx { Side::Left } else { Side::Right };
            siblings.push((side, sibling));
            idx /= 2;
        }
        paths.push(AuthPath { index: i as u32, siblings });
    }
    (root, paths)
}

/// Verify that `message` belongs to the batch signed by `root_signature`.
pub fn verify_message(
    key: &RsaPublicKey,
    alg: HashAlg,
    message: &[u8],
    path: &AuthPath,
    root_signature: &[u8],
) -> Result<(), CryptoError> {
    let mut digest = alg.hash(message);
    for (side, sibling) in &path.siblings {
        let mut combined = Vec::with_capacity(digest.len() + sibling.len());
        match side {
            Side::Left => {
                combined.extend_from_slice(sibling);
                combined.extend_from_slice(&digest);
            }
            Side::Right => {
                combined.extend_from_slice(&digest);
                combined.extend_from_slice(sibling);
            }
        }
        digest = alg.hash(&combined);
    }
    key.verify_digest(alg, &digest, root_signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_crypto::rsa::{RsaKeyPair, RsaPrivateKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(4242);
        RsaKeyPair::generate(512, &mut rng).unwrap()
    }

    /// What a sender ships for a batch: one root signature, one path per
    /// message.
    struct SignedBatch {
        root_signature: Vec<u8>,
        paths: Vec<AuthPath>,
    }

    fn sign_batch(
        key: &RsaPrivateKey,
        alg: HashAlg,
        messages: &[&[u8]],
    ) -> Result<SignedBatch, CryptoError> {
        let (root, paths) = digest_tree(alg, messages);
        Ok(SignedBatch { root_signature: key.sign_digest(alg, &root)?, paths })
    }

    #[test]
    fn four_messages_like_the_paper() {
        let kp = keypair();
        let msgs: Vec<&[u8]> = vec![b"M1", b"M2", b"M3", b"M4"];
        let batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
        assert_eq!(batch.paths.len(), 4);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(batch.paths[i].siblings.len(), 2, "two-level tree");
            verify_message(kp.public(), HashAlg::Md5, m, &batch.paths[i], &batch.root_signature)
                .unwrap();
        }
    }

    #[test]
    fn single_message_degenerates() {
        let kp = keypair();
        let batch = sign_batch(&kp.private, HashAlg::Md5, &[b"only"]).unwrap();
        assert!(batch.paths[0].siblings.is_empty());
        verify_message(kp.public(), HashAlg::Md5, b"only", &batch.paths[0], &batch.root_signature)
            .unwrap();
    }

    #[test]
    fn odd_batch_sizes() {
        let kp = keypair();
        for n in [2usize, 3, 5, 7, 19] {
            let owned: Vec<Vec<u8>> =
                (0..n).map(|i| format!("rekey message {i}").into_bytes()).collect();
            let msgs: Vec<&[u8]> = owned.iter().map(|m| m.as_slice()).collect();
            let batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
            for (i, m) in msgs.iter().enumerate() {
                verify_message(
                    kp.public(),
                    HashAlg::Md5,
                    m,
                    &batch.paths[i],
                    &batch.root_signature,
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = keypair();
        let msgs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d"];
        let batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
        assert!(verify_message(
            kp.public(),
            HashAlg::Md5,
            b"x",
            &batch.paths[0],
            &batch.root_signature
        )
        .is_err());
    }

    #[test]
    fn swapped_paths_rejected() {
        let kp = keypair();
        let msgs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d"];
        let batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
        // Message "a" with "b"'s path fails (siblings differ).
        assert!(verify_message(
            kp.public(),
            HashAlg::Md5,
            b"a",
            &batch.paths[1],
            &batch.root_signature
        )
        .is_err());
    }

    #[test]
    fn tampered_sibling_rejected() {
        let kp = keypair();
        let msgs: Vec<&[u8]> = vec![b"a", b"b"];
        let mut batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
        batch.paths[0].siblings[0].1[0] ^= 1;
        assert!(verify_message(
            kp.public(),
            HashAlg::Md5,
            b"a",
            &batch.paths[0],
            &batch.root_signature
        )
        .is_err());
    }

    #[test]
    fn cross_batch_signature_rejected() {
        let kp = keypair();
        let b1 = sign_batch(&kp.private, HashAlg::Md5, &[b"a", b"b"]).unwrap();
        let b2 = sign_batch(&kp.private, HashAlg::Md5, &[b"c", b"d"]).unwrap();
        assert!(verify_message(kp.public(), HashAlg::Md5, b"a", &b1.paths[0], &b2.root_signature)
            .is_err());
    }

    #[test]
    fn works_with_sha256() {
        let kp = keypair();
        let msgs: Vec<&[u8]> = vec![b"m1", b"m2", b"m3"];
        let batch = sign_batch(&kp.private, HashAlg::Sha256, &msgs).unwrap();
        for (i, m) in msgs.iter().enumerate() {
            verify_message(kp.public(), HashAlg::Sha256, m, &batch.paths[i], &batch.root_signature)
                .unwrap();
        }
    }

    #[test]
    fn path_wire_len_accounts_for_siblings() {
        let kp = keypair();
        let msgs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d"];
        let batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
        // Two siblings × (1 side byte + 16 digest bytes) + 4-byte index.
        assert_eq!(batch.paths[0].wire_len(), 4 + 2 * 17);
    }

    #[test]
    fn amortization_one_signature_many_messages() {
        // The point of the whole section: m messages, exactly one
        // signature. (Timing is benchmarked in kg-bench; here we assert
        // the structural property.)
        let kp = keypair();
        let owned: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 100]).collect();
        let msgs: Vec<&[u8]> = owned.iter().map(|m| m.as_slice()).collect();
        let batch = sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap();
        assert_eq!(batch.root_signature.len(), 64);
        assert_eq!(batch.paths.len(), 32);
        assert!(batch.paths.iter().all(|p| p.siblings.len() == 5)); // log2(32)
    }
}
