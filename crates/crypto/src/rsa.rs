//! RSA key generation and PKCS#1 v1.5 signatures.
//!
//! The paper signs rekey messages with RSA over a **512-bit modulus** — its
//! Table 4 and Figure 10/11 "with signature" series all pay one or more of
//! these operations per join/leave. This module provides:
//!
//! * key generation from two half-width primes (e = 65537, d = e⁻¹ mod
//!   λ(n)),
//! * EMSA-PKCS1-v1_5 encoding with the standard ASN.1 `DigestInfo`
//!   prefixes for MD5/SHA-1/SHA-256,
//! * signing with the Chinese Remainder Theorem speedup (~4×), and
//! * verification with the small public exponent (fast, as in the paper —
//!   clients verify much faster than the server signs).
//!
//! Every exponentiation runs in a per-modulus [`Montgomery`] context built
//! once with the key: one for `n` in the public key, one each for `p` and
//! `q` in the private key. [`BigUint::modpow`] is reached only through
//! [`RsaPrivateKey::private_op_no_crt`], the reference the tests compare
//! the CRT path against. Measured cost relative to DES is in the
//! [`crate::bigint`] module docs.

use crate::bigint::{BigUint, Montgomery};
use crate::prime::generate_prime;
use crate::{CryptoError, Digest};
use rand::RngCore;

/// ASN.1 DER `DigestInfo` prefix for MD5 (RFC 8017 §9.2 notes).
const MD5_PREFIX: &[u8] = &[
    0x30, 0x20, 0x30, 0x0c, 0x06, 0x08, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d, 0x02, 0x05, 0x05, 0x00,
    0x04, 0x10,
];
/// ASN.1 DER `DigestInfo` prefix for SHA-1.
const SHA1_PREFIX: &[u8] =
    &[0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14];
/// ASN.1 DER `DigestInfo` prefix for SHA-256.
const SHA256_PREFIX: &[u8] = &[
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Digest algorithm identifier for signature encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashAlg {
    /// MD5 (the paper's choice).
    Md5,
    /// SHA-1.
    Sha1,
    /// SHA-256.
    Sha256,
}

impl std::fmt::Display for HashAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for HashAlg {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "md5" => Ok(HashAlg::Md5),
            "sha1" => Ok(HashAlg::Sha1),
            "sha256" => Ok(HashAlg::Sha256),
            other => Err(format!("unknown digest: {other:?}")),
        }
    }
}

impl HashAlg {
    /// Stable spec-file name for this digest (the string
    /// [`HashAlg::from_str`] accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            HashAlg::Md5 => "md5",
            HashAlg::Sha1 => "sha1",
            HashAlg::Sha256 => "sha256",
        }
    }

    fn prefix(self) -> &'static [u8] {
        match self {
            HashAlg::Md5 => MD5_PREFIX,
            HashAlg::Sha1 => SHA1_PREFIX,
            HashAlg::Sha256 => SHA256_PREFIX,
        }
    }

    fn digest_len(self) -> usize {
        match self {
            HashAlg::Md5 => 16,
            HashAlg::Sha1 => 20,
            HashAlg::Sha256 => 32,
        }
    }

    /// Hash `data` with this algorithm.
    pub fn hash(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Md5 => crate::md5::Md5::digest(data),
            HashAlg::Sha1 => crate::sha1::Sha1::digest(data),
            HashAlg::Sha256 => crate::sha256::Sha256::digest(data),
        }
    }
}

/// RSA public key (modulus, public exponent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// The modulus, held only as its exponentiation context: this key is
    /// cloned into every client.
    n: Montgomery,
    e: BigUint,
}

/// RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: Montgomery,
    q: Montgomery,
    d_p: BigUint,   // d mod (p-1)
    d_q: BigUint,   // d mod (q-1)
    q_inv: BigUint, // q^{-1} mod p
}

/// An RSA keypair.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// The private half (includes the public key).
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generate a keypair with a modulus of `modulus_bits` bits (the paper
    /// used 512). `modulus_bits` must be even and ≥ 256.
    pub fn generate(modulus_bits: usize, rng: &mut dyn RngCore) -> Result<Self, CryptoError> {
        assert!(modulus_bits >= 256 && modulus_bits.is_multiple_of(2), "unsupported modulus size");
        let e = BigUint::from_u64(65537);
        let one = BigUint::one();
        for _attempt in 0..64 {
            let p = generate_prime(modulus_bits / 2, rng);
            let q = generate_prime(modulus_bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != modulus_bits {
                continue;
            }
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            // λ(n) = lcm(p-1, q-1)
            let lambda = p1.mul(&q1).div_rem(&p1.gcd(&q1)).0;
            let d = match e.mod_inverse(&lambda) {
                Some(d) => d,
                None => continue, // gcd(e, λ) != 1; re-draw primes
            };
            let d_p = d.rem(&p1);
            let d_q = d.rem(&q1);
            let q_inv = q.mod_inverse(&p).expect("p, q distinct primes");
            // Keep p > q so that CRT recombination's (m1 - m2) stays simple.
            let (p, q, d_p, d_q, q_inv) = if p > q {
                (p, q, d_p, d_q, q_inv)
            } else {
                let q_inv = p.mod_inverse(&q).expect("distinct primes");
                (q.clone(), p, d_q, d_p, q_inv)
            };
            let context = |m: &BigUint| Montgomery::new(m).expect("odd primes and their product");
            let public = RsaPublicKey { n: context(&n), e };
            return Ok(RsaKeyPair {
                private: RsaPrivateKey {
                    public,
                    d,
                    p: context(&p),
                    q: context(&q),
                    d_p,
                    d_q,
                    q_inv,
                },
            });
        }
        Err(CryptoError::KeyGenerationFailed)
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.private.public
    }
}

impl RsaPublicKey {
    /// The modulus `n`.
    pub fn modulus(&self) -> BigUint {
        self.n.modulus()
    }

    /// Modulus length in bytes (64 for RSA-512).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verify a PKCS#1 v1.5 signature over `message` hashed with `alg`.
    pub fn verify(
        &self,
        alg: HashAlg,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let digest = alg.hash(message);
        self.verify_digest(alg, &digest, signature)
    }

    /// Verify against a precomputed digest (the Merkle signing path
    /// verifies the *root* digest, not a raw message).
    pub fn verify_digest(
        &self,
        alg: HashAlg,
        digest: &[u8],
        signature: &[u8],
    ) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::SignatureMismatch);
        }
        let s = BigUint::from_bytes_be(signature);
        if !self.n.is_reduced(&s) {
            return Err(CryptoError::ValueOutOfRange);
        }
        let em = self.n.pow(&s, &self.e);
        let expected = emsa_pkcs1_v15(alg, digest, k)?;
        let em_bytes = em.to_bytes_be_padded(k).ok_or(CryptoError::SignatureMismatch)?;
        if em_bytes == expected {
            Ok(())
        } else {
            Err(CryptoError::SignatureMismatch)
        }
    }
}

impl RsaPrivateKey {
    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Sign `message` (hashed with `alg`) using PKCS#1 v1.5.
    pub fn sign(&self, alg: HashAlg, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let digest = alg.hash(message);
        self.sign_digest(alg, &digest)
    }

    /// Sign a precomputed digest. This is the operation the paper counts:
    /// one modular exponentiation with the private exponent — ~two orders
    /// of magnitude costlier than a DES encryption in the paper, about one
    /// here (see [`crate::bigint`]).
    pub fn sign_digest(&self, alg: HashAlg, digest: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(alg, digest, k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.private_op(&m);
        s.to_bytes_be_padded(k).ok_or(CryptoError::ValueOutOfRange)
    }

    /// The private-key operation `m^d mod n` via CRT.
    fn private_op(&self, m: &BigUint) -> BigUint {
        let m1 = self.p.pow(m, &self.d_p);
        let m2 = self.q.pow(m, &self.d_q);
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // h = q_inv * (m1 - m2) mod p  (lift m2 into [0,p) difference first)
        let m2_mod_p = m2.rem(&p);
        let diff = if m1 >= m2_mod_p { m1.sub(&m2_mod_p) } else { m1.add(&p).sub(&m2_mod_p) };
        let h = self.q_inv.mul(&diff).rem(&p);
        m2.add(&h.mul(&q))
    }

    /// The private-key operation without CRT and without the Montgomery
    /// contexts: plain [`BigUint::modpow`] with the full private exponent,
    /// the reference the tests hold [`private_op`](Self::private_op) to.
    pub fn private_op_no_crt(&self, m: &BigUint) -> BigUint {
        m.modpow(&self.d, &self.public.modulus())
    }
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print private material.
        write!(f, "RsaPrivateKey({} bits)", self.public.n.bit_len())
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 01 FF..FF 00 || DigestInfo || digest`.
fn emsa_pkcs1_v15(alg: HashAlg, digest: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    if digest.len() != alg.digest_len() {
        return Err(CryptoError::MalformedEncoding("digest length mismatch"));
    }
    let t_len = alg.prefix().len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xFF, k - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(alg.prefix());
    em.extend_from_slice(digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(42);
        RsaKeyPair::generate(bits, &mut rng).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip_512() {
        let kp = keypair(512);
        let msg = b"rekey message: {k_1-9}k_1-8, {k_789}k_78";
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            let sig = kp.private.sign(alg, msg).unwrap();
            assert_eq!(sig.len(), 64);
            kp.public().verify(alg, msg, &sig).unwrap();
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = keypair(512);
        let sig = kp.private.sign(HashAlg::Md5, b"genuine").unwrap();
        assert_eq!(
            kp.public().verify(HashAlg::Md5, b"forged!", &sig).unwrap_err(),
            CryptoError::SignatureMismatch
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair(512);
        let mut sig = kp.private.sign(HashAlg::Md5, b"msg").unwrap();
        sig[10] ^= 0x40;
        assert!(kp.public().verify(HashAlg::Md5, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair(512);
        let mut rng = StdRng::seed_from_u64(777);
        let kp2 = RsaKeyPair::generate(512, &mut rng).unwrap();
        let sig = kp1.private.sign(HashAlg::Md5, b"msg").unwrap();
        assert!(kp2.public().verify(HashAlg::Md5, b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = keypair(512);
        assert_eq!(
            kp.public().verify(HashAlg::Md5, b"m", &[0u8; 32]).unwrap_err(),
            CryptoError::SignatureMismatch
        );
    }

    #[test]
    fn signature_value_above_modulus_rejected() {
        let kp = keypair(512);
        let sig = vec![0xFFu8; 64];
        assert_eq!(
            kp.public().verify(HashAlg::Md5, b"m", &sig).unwrap_err(),
            CryptoError::ValueOutOfRange
        );
    }

    proptest::proptest! {
        /// CRT on Montgomery contexts against plain `modpow` with the full
        /// exponent, over messages across the whole range below n.
        #[test]
        fn crt_matches_plain_exponentiation(raw in proptest::collection::vec(0u8.., 64)) {
            use std::sync::OnceLock;
            static KEYPAIR: OnceLock<RsaKeyPair> = OnceLock::new();
            let kp = KEYPAIR.get_or_init(|| keypair(512));
            let n = kp.public().modulus();
            let top = n.sub(&BigUint::one());
            for m in [BigUint::from_bytes_be(&raw).rem(&n), BigUint::zero(), BigUint::one(), top] {
                let plain = kp.private.private_op_no_crt(&m);
                proptest::prop_assert_eq!(kp.private.private_op(&m), plain);
            }
        }
    }

    #[test]
    fn modulus_has_requested_width() {
        for bits in [256usize, 512] {
            let kp = keypair(bits);
            assert_eq!(kp.public().modulus_len(), bits / 8);
        }
    }

    #[test]
    fn verify_digest_path_matches_verify() {
        let kp = keypair(512);
        let msg = b"digest-path message";
        let digest = HashAlg::Md5.hash(msg);
        let sig = kp.private.sign_digest(HashAlg::Md5, &digest).unwrap();
        kp.public().verify(HashAlg::Md5, msg, &sig).unwrap();
        kp.public().verify_digest(HashAlg::Md5, &digest, &sig).unwrap();
    }

    #[test]
    fn emsa_encoding_shape() {
        let digest = [0xABu8; 16];
        let em = emsa_pkcs1_v15(HashAlg::Md5, &digest, 64).unwrap();
        assert_eq!(em.len(), 64);
        assert_eq!(&em[..2], &[0x00, 0x01]);
        assert_eq!(em[64 - 16 - 18 - 1], 0x00);
        assert!(em[2..64 - 16 - 18 - 1].iter().all(|&b| b == 0xFF));
        assert_eq!(&em[64 - 16..], &digest);
        // Modulus too small for the encoding is rejected.
        assert_eq!(
            emsa_pkcs1_v15(HashAlg::Sha256, &[0u8; 32], 32).unwrap_err(),
            CryptoError::MessageTooLong
        );
        // Digest of the wrong size is rejected.
        assert!(emsa_pkcs1_v15(HashAlg::Md5, &[0u8; 20], 64).is_err());
    }

    #[test]
    fn deterministic_keygen_from_seeded_rng() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let k1 = RsaKeyPair::generate(256, &mut r1).unwrap();
        let k2 = RsaKeyPair::generate(256, &mut r2).unwrap();
        assert_eq!(k1.public(), k2.public());
    }
}
