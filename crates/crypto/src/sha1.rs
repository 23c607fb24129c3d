//! SHA-1 (FIPS 180-4).
//!
//! Not used by the paper's prototype (which used MD5), but provided so the
//! benchmark harness can ablate the digest algorithm — the server spec file
//! in the paper selects "the message digest algorithm" as a parameter.

use crate::Digest;

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Sha1 {
    fn compress(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5A827999),
                1 => (b ^ c ^ d, 0x6ED9EBA1),
                2 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp =
                a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl Digest for Sha1 {
    const OUTPUT_SIZE: usize = 20;

    fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
            if data.is_empty() {
                // Everything was absorbed into the partial buffer; the
                // trailing copy below must not clobber `buffered`.
                return;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut tmp = [0u8; 64];
            tmp.copy_from_slice(block);
            self.compress(&tmp);
            data = rest;
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffered = data.len();
    }

    fn finalize(mut self) -> Vec<u8> {
        // 0x80, zeros, and the 64-bit length, written into the last block
        // (or two, when fewer than nine bytes of it are free).
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.compress(&block);
        let mut out = Vec::with_capacity(20);
        for word in self.state {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(&Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(&Sha1::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7 % 256) as u8).collect();
        let oneshot = Sha1::digest(&data);
        for chunk in [1usize, 13, 64, 65] {
            let mut h = Sha1::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), oneshot, "chunk {chunk}");
        }
    }

    /// `finalize` against the message padded by hand (FIPS 180-4 §5.1.1),
    /// absorbed by `update` and read off the state, for every length of
    /// the last block.
    #[test]
    fn finalize_pads_like_the_standard_at_every_length() {
        for len in 0..=200usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut padded = data.clone();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(len as u64 * 8).to_be_bytes());
            let mut h = Sha1::new();
            h.update(&padded);
            let by_hand: Vec<u8> = h.state.iter().flat_map(|w| w.to_be_bytes()).collect();
            assert_eq!(Sha1::digest(&data), by_hand, "length {len}");
        }
    }
}
