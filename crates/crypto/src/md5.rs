//! MD5 message digest (RFC 1321).
//!
//! The paper computes an MD5 digest over every rekey message and, for the
//! Section 4 technique, over small digest-concatenation messages forming a
//! Merkle tree. MD5 is cryptographically broken; it is implemented here
//! solely for reproduction fidelity (SHA-256 is available for ablations).

use crate::Digest;

/// Per-round left-rotation amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9,
    14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10, 15,
    21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// The sine-derived additive constants, `floor(2^32 * |sin(i+1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 hasher.
#[derive(Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Md5 {
    /// Hash a single buffer to its 16-byte digest as a fixed array.
    pub fn oneshot(data: &[u8]) -> [u8; 16] {
        let mut h = Md5::new();
        h.update(data);
        h.finish()
    }

    /// [`Digest::finalize`] into a fixed array, allocating nothing.
    pub fn finish(mut self) -> [u8; 16] {
        // 0x80, zeros, and the 64-bit length (little-endian), written into
        // the last block (or two, when fewer than nine bytes of it are free).
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_le_bytes());
        self.compress(&block);
        let mut out = [0u8; 16];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut m = [0u32; 16];
        for (i, word) in m.iter_mut().enumerate() {
            *word = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        let [mut a, mut b, mut c, mut d] = self.state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            b = b.wrapping_add(
                a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m[g]).rotate_left(S[i]),
            );
            a = tmp;
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
    }
}

impl Digest for Md5 {
    const OUTPUT_SIZE: usize = 16;

    fn new() -> Self {
        Md5 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
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

    fn finalize(self) -> Vec<u8> {
        self.finish().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The full RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex(&Md5::digest(input.as_bytes())), *expected, "input {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = Md5::digest(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 3, 63, 64, 65, 127] {
            let mut h = Md5::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn oneshot_array_matches_digest_vec() {
        let d = Md5::oneshot(b"abc");
        assert_eq!(d.to_vec(), Md5::digest(b"abc"));
    }

    #[test]
    fn length_extension_sensitivity() {
        // Messages of length 55, 56, 57 exercise all padding branches.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 121] {
            let m = vec![0xa5u8; len];
            let d1 = Md5::digest(&m);
            let mut m2 = m.clone();
            m2.push(0);
            assert_ne!(d1, Md5::digest(&m2), "len {len}");
        }
    }

    /// `finalize` against the message padded by hand (RFC 1321 §3.1–3.2),
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
            padded.extend_from_slice(&(len as u64 * 8).to_le_bytes());
            let mut h = Md5::new();
            h.update(&padded);
            let by_hand: Vec<u8> = h.state.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(Md5::digest(&data), by_hand, "length {len}");
        }
    }

    proptest::proptest! {
        #[test]
        fn deterministic(data in proptest::collection::vec(0u8.., 0..512)) {
            proptest::prop_assert_eq!(Md5::digest(&data), Md5::digest(&data));
        }

        #[test]
        fn split_invariance(data in proptest::collection::vec(0u8.., 0..512), split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Md5::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), Md5::digest(&data));
        }
    }
}
