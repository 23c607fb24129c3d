//! HMAC (RFC 2104) over any [`Digest`].
//!
//! Used by [`crate::drbg::HmacDrbg`] (deterministic key generation for
//! reproducible experiments) and available as a message-integrity-check
//! option for rekey messages (the paper's rekey format reserves a MIC
//! field alongside the digital signature).
//!
//! [`Hmac::new`] absorbs both key pads, one compression each, and keeps
//! the two digest states. A clone of a freshly keyed `Hmac` is therefore a
//! MAC under the same key that skips those two compressions: the DRBG
//! keys one per `K` and clones it for every HMAC it computes under that
//! `K`.

use crate::Digest;

const BLOCK_SIZE: usize = 64; // MD5 / SHA-1 / SHA-256 all use 64-byte blocks.

/// Compute `HMAC(key, message)` with digest `D`.
pub fn hmac<D: Digest>(key: &[u8], message: &[u8]) -> Vec<u8> {
    let mut mac = Hmac::<D>::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC computation.
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    /// `H(K ⊕ ipad ‖ …)`, absorbing the message.
    inner: D,
    /// `H(K ⊕ opad ‖ …)`, waiting for the inner digest.
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Start an HMAC with the given key (any length; hashed down if longer
    /// than one block, zero-padded if shorter, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let d = D::digest(key);
            k[..d.len()].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ikey = [0u8; BLOCK_SIZE];
        let mut okey = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ikey[i] = k[i] ^ 0x36;
            okey[i] = k[i] ^ 0x5c;
        }
        let mut inner = D::new();
        inner.update(&ikey);
        let mut outer = D::new();
        outer.update(&okey);
        Hmac { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produce the MAC.
    pub fn finalize(self) -> Vec<u8> {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// Constant-time MAC comparison: returns true iff `a == b` without
/// short-circuiting on the first mismatching byte.
pub fn verify_mac(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md5::Md5;
    use crate::sha256::Sha256;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2202 HMAC-MD5 test vectors.
    #[test]
    fn rfc2202_hmac_md5() {
        assert_eq!(hex(&hmac::<Md5>(&[0x0b; 16], b"Hi There")), "9294727a3638bb1c13f48ef8158bfc9d");
        assert_eq!(
            hex(&hmac::<Md5>(b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
        assert_eq!(hex(&hmac::<Md5>(&[0xaa; 16], &[0xdd; 50])), "56be34521d144c88dbb8c733f0e8b3f6");
        // 80-byte key (> block handling requires key hashing only above 64).
        assert_eq!(
            hex(&hmac::<Md5>(
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd"
        );
    }

    /// RFC 4231 test case 1 and 2 for HMAC-SHA-256.
    #[test]
    fn rfc4231_hmac_sha256() {
        assert_eq!(
            hex(&hmac::<Sha256>(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac::<Sha256>(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"secret key";
        let msg: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let oneshot = hmac::<Sha256>(key, &msg);
        let mut mac = Hmac::<Sha256>::new(key);
        for piece in msg.chunks(17) {
            mac.update(piece);
        }
        assert_eq!(mac.finalize(), oneshot);
    }

    #[test]
    fn clones_of_one_keyed_mac_are_independent_macs_under_its_key() {
        let keyed = Hmac::<Sha256>::new(b"secret key");
        for msg in [&b""[..], b"abc", &[7u8; 200]] {
            let mut mac = keyed.clone();
            mac.update(msg);
            assert_eq!(mac.finalize(), hmac::<Sha256>(b"secret key", msg));
        }
    }

    #[test]
    fn verify_mac_behaviour() {
        let a = hmac::<Md5>(b"k", b"m");
        let mut b = a.clone();
        assert!(verify_mac(&a, &b));
        b[0] ^= 1;
        assert!(!verify_mac(&a, &b));
        assert!(!verify_mac(&a, &a[..a.len() - 1]));
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac::<Md5>(b"key1", b"msg"), hmac::<Md5>(b"key2", b"msg"));
        assert_ne!(hmac::<Md5>(b"key", b"msg1"), hmac::<Md5>(b"key", b"msg2"));
    }
}
