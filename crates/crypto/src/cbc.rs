//! Cipher Block Chaining mode with PKCS#5-style padding.
//!
//! The paper encrypts new keys with DES-CBC. Rekey messages in this
//! reproduction carry one CBC ciphertext per encrypted key (or per combined
//! key bundle in user-oriented rekeying, where several new keys are encrypted
//! together under one key — see Figure 5's `{k_{1-9}, k_{789}}_{k_7}`).
//!
//! Both directions work in place in the one buffer they return: encryption
//! chains each block on the ciphertext block just written before it, and
//! decryption runs from the last block to the first, so the ciphertext
//! block each one chains on is still there. Sealing or unsealing a key
//! allocates nothing but its output.
//!
//! Timing: the mode adds no table lookups of its own; those are the block
//! cipher's (see [`crate::des`] on cache timing). [`CbcCipher::decrypt`]
//! returns as soon as the padding is malformed, so its time depends on the
//! padding — a padding oracle wherever an attacker can submit ciphertexts
//! and watch. In the rekeying protocols only the server produces
//! ciphertexts and a client's failure is not reported back to anyone.

use crate::{BlockCipher, CryptoError};

/// A block cipher wrapped in CBC mode.
///
/// Padding is always applied (PKCS#5: `n` bytes of value `n`, 1 ≤ n ≤
/// block size), so the ciphertext length is `((len / bs) + 1) * bs` — an
/// 8-byte DES key encrypts to 16 bytes, and each additional key packed into
/// the same ciphertext adds one block. Rekey message sizes in Tables 4–6
/// follow directly from this sizing rule.
#[derive(Clone)]
pub struct CbcCipher<C: BlockCipher> {
    cipher: C,
}

impl<C: BlockCipher> CbcCipher<C> {
    /// Wrap a block cipher in CBC mode.
    pub fn new(cipher: C) -> Self {
        CbcCipher { cipher }
    }

    /// The ciphertext length produced for a plaintext of `plain_len` bytes.
    pub fn ciphertext_len(plain_len: usize) -> usize {
        (plain_len / C::BLOCK_SIZE + 1) * C::BLOCK_SIZE
    }

    /// Encrypt `plaintext` under the wrapped cipher with the given IV.
    ///
    /// # Panics
    /// Panics if `iv.len() != C::BLOCK_SIZE` (programming error; IVs are
    /// produced by the caller's key source at the right size).
    pub fn encrypt(&self, plaintext: &[u8], iv: &[u8]) -> Vec<u8> {
        assert_eq!(iv.len(), C::BLOCK_SIZE, "IV must be one block");
        let bs = C::BLOCK_SIZE;
        let pad = bs - plaintext.len() % bs;
        let mut data = Vec::with_capacity(plaintext.len() + pad);
        data.extend_from_slice(plaintext);
        data.extend(std::iter::repeat_n(pad as u8, pad));

        for start in (0..data.len()).step_by(bs) {
            let (done, rest) = data.split_at_mut(start);
            let block = &mut rest[..bs];
            xor_into(block, if start == 0 { iv } else { &done[start - bs..] });
            self.cipher.encrypt_block(block);
        }
        data
    }

    /// Decrypt a CBC ciphertext and strip padding.
    ///
    /// Returns [`CryptoError::BadPadding`] when the recovered padding is
    /// malformed — in the rekeying protocols this is how a client discovers
    /// it attempted decryption with a key it does not actually share with
    /// the server (e.g. an evicted member).
    pub fn decrypt(&self, ciphertext: &[u8], iv: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let bs = C::BLOCK_SIZE;
        if iv.len() != bs {
            return Err(CryptoError::InvalidIvLength { expected: bs, actual: iv.len() });
        }
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(bs) {
            return Err(CryptoError::InvalidCiphertextLength {
                block_size: bs,
                actual: ciphertext.len(),
            });
        }
        // Last block first, so the ciphertext block each one chains on is
        // still in place when it is needed.
        let mut data = ciphertext.to_vec();
        for start in (0..data.len()).step_by(bs).rev() {
            let (earlier, rest) = data.split_at_mut(start);
            let block = &mut rest[..bs];
            self.cipher.decrypt_block(block);
            xor_into(block, if start == 0 { iv } else { &earlier[start - bs..] });
        }
        let pad = *data.last().expect("nonempty") as usize;
        let padded = pad != 0
            && pad <= bs
            && data.len() >= pad
            && data[data.len() - pad..].iter().all(|&b| b as usize == pad);
        if !padded {
            // Under the right key with a tampered last block, every
            // earlier block is real plaintext: wipe it before the free.
            data.fill(0);
            std::hint::black_box(&data);
            return Err(CryptoError::BadPadding);
        }
        data.truncate(data.len() - pad);
        Ok(data)
    }
}

fn xor_into(block: &mut [u8], with: &[u8]) {
    for (b, w) in block.iter_mut().zip(with) {
        *b ^= w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::Des;

    fn cipher() -> CbcCipher<Des> {
        CbcCipher::new(Des::new(&[0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1]).unwrap())
    }

    #[test]
    fn roundtrip_various_lengths() {
        let c = cipher();
        let iv = [7u8; 8];
        for len in 0..64 {
            let msg: Vec<u8> = (0..len as u8).collect();
            let ct = c.encrypt(&msg, &iv);
            assert_eq!(ct.len(), CbcCipher::<Des>::ciphertext_len(len));
            assert_eq!(ct.len() % 8, 0);
            assert_eq!(c.decrypt(&ct, &iv).unwrap(), msg);
        }
    }

    #[test]
    fn ciphertext_len_is_always_padded() {
        // An exact multiple of the block size still gains one padding block.
        assert_eq!(CbcCipher::<Des>::ciphertext_len(0), 8);
        assert_eq!(CbcCipher::<Des>::ciphertext_len(8), 16);
        assert_eq!(CbcCipher::<Des>::ciphertext_len(9), 16);
        assert_eq!(CbcCipher::<Des>::ciphertext_len(16), 24);
    }

    #[test]
    fn wrong_key_yields_error_or_garbage() {
        let c = cipher();
        let wrong = CbcCipher::new(Des::new(&[1u8; 8]).unwrap());
        let iv = [0u8; 8];
        let msg = b"new group key bytes....";
        let ct = c.encrypt(msg, &iv);
        // Decrypting with the wrong key must not silently return the
        // plaintext; overwhelmingly it reports BadPadding.
        match wrong.decrypt(&ct, &iv) {
            Err(CryptoError::BadPadding) => {}
            Ok(other) => assert_ne!(other, msg.to_vec()),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn iv_affects_ciphertext() {
        let c = cipher();
        let msg = b"same plaintext";
        let a = c.encrypt(msg, &[0u8; 8]);
        let b = c.encrypt(msg, &[1u8; 8]);
        assert_ne!(a, b);
    }

    #[test]
    fn identical_blocks_do_not_repeat_in_ciphertext() {
        // This is the point of CBC over ECB.
        let c = cipher();
        let msg = [0x42u8; 32];
        let ct = c.encrypt(&msg, &[9u8; 8]);
        assert_ne!(&ct[0..8], &ct[8..16]);
        assert_ne!(&ct[8..16], &ct[16..24]);
    }

    #[test]
    fn rejects_malformed_inputs() {
        let c = cipher();
        assert_eq!(
            c.decrypt(&[0u8; 12], &[0u8; 8]).unwrap_err(),
            CryptoError::InvalidCiphertextLength { block_size: 8, actual: 12 }
        );
        assert_eq!(
            c.decrypt(&[0u8; 8], &[0u8; 4]).unwrap_err(),
            CryptoError::InvalidIvLength { expected: 8, actual: 4 }
        );
        assert_eq!(
            c.decrypt(&[], &[0u8; 8]).unwrap_err(),
            CryptoError::InvalidCiphertextLength { block_size: 8, actual: 0 }
        );
    }

    #[test]
    fn tampered_ciphertext_corrupts_plaintext() {
        let c = cipher();
        let iv = [3u8; 8];
        let msg = b"0123456789abcdef";
        let mut ct = c.encrypt(msg, &iv);
        ct[0] ^= 0x80;
        match c.decrypt(&ct, &iv) {
            Err(CryptoError::BadPadding) => {}
            Ok(recovered) => assert_ne!(recovered, msg.to_vec()),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    proptest::proptest! {
        #[test]
        fn roundtrip_random(
            key in proptest::array::uniform8(0u8..),
            iv in proptest::array::uniform8(0u8..),
            msg in proptest::collection::vec(0u8.., 0..256),
        ) {
            let c = CbcCipher::new(Des::new(&key).unwrap());
            let ct = c.encrypt(&msg, &iv);
            proptest::prop_assert_eq!(c.decrypt(&ct, &iv).unwrap(), msg);
        }
    }
}
