//! The DES block cipher (FIPS 46-3) and Triple-DES (EDE3).
//!
//! The paper's prototype encrypts every new key with **DES-CBC**; all rekey
//! message sizes in Tables 4–6 are multiples of the 8-byte DES block. The
//! paper's cost argument (§4, Table 4) assumes a DES encryption is about two
//! orders of magnitude cheaper than an RSA-512 signature, so the cipher is
//! table-driven, the way production DES code is, rather than bit-serial.
//!
//! # How the tables are made
//!
//! The FIPS 46-3 arrays below are the only source of truth: every table the
//! cipher runs on is computed from them at compile time by `const fn`.
//!
//! * **IP, FP, PC1, PC2** become nibble tables. Entry `[k][v]` is the image
//!   of input nibble `k` holding `v` with every other bit clear; since each
//!   output bit is a copy of one input bit, any input's image is the OR of
//!   one entry per nibble — 16 lookups for a block, 14 for PC2 — instead of
//!   one shift-and-mask per output bit. PC2's entries are stored already in
//!   the round-key layout (see `group_shift`).
//! * **S-boxes and P** merge into eight `[u32; 64]` tables (2 KB): entry
//!   `[j][x]` is P applied to S-box `j`'s output for input `x` in its
//!   position, so a round is eight lookups XORed together.
//! * **E** needs no table. S-box `j` reads nibble `j` of R plus the bit on
//!   either side of it, wrapping around; R rotated left by 1 and right by 3
//!   put the odd and the even windows at bits 24, 16, 8 and 0 of a 32-bit
//!   lane each (`expand`). A compile-time assertion checks this against
//!   the E table.
//!
//! A block costs 32 nibble lookups and 16 × 8 S-box lookups; a key schedule
//! 16 + 16 × 14 nibble lookups. The bit-at-a-time cipher this replaced is
//! kept in the test module as the oracle the tables are checked against.
//!
//! # Side channels
//!
//! None of this is constant-time. The S-box lookups are indexed by R ⊕ K,
//! i.e. by key-dependent data, exactly as the bit-serial code's
//! `SBOXES[j][row][col]` lookups were: the combined tables are the same
//! class of cache-timing side channel over 2 KB instead of 256 B. The
//! nibble tables add lookups indexed by the plaintext or ciphertext (IP, FP)
//! and by the key (PC1, PC2).
//!
//! DES is, of course, cryptographically broken (56-bit key). It is provided
//! for reproduction fidelity; [`TripleDes`] is available where a less
//! embarrassing cipher is wanted at the same block size.

use crate::{BlockCipher, CryptoError};

/// Initial permutation (FIPS 46-3, 1-indexed positions of the input bit
/// placed at each output position, MSB first).
const IP: [u8; 64] = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4, 62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8, 57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3, 61,
    53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
];

/// Final permutation (the inverse of [`IP`]).
const FP: [u8; 64] = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31, 38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29, 36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
];

/// Expansion E: 32 bits -> 48 bits.
const E: [u8; 48] = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18,
    19, 20, 21, 20, 21, 22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
];

/// Permutation P applied to the S-box output.
const P: [u8; 32] = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10, 2, 8, 24, 14, 32, 27, 3, 9, 19,
    13, 30, 6, 22, 11, 4, 25,
];

/// The eight S-boxes. `SBOXES[i][row][col]` per FIPS 46-3.
const SBOXES: [[[u8; 16]; 4]; 8] = [
    [
        [14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7],
        [0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8],
        [4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0],
        [15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13],
    ],
    [
        [15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10],
        [3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5],
        [0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15],
        [13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9],
    ],
    [
        [10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8],
        [13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1],
        [13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7],
        [1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12],
    ],
    [
        [7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15],
        [13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9],
        [10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4],
        [3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14],
    ],
    [
        [2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9],
        [14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6],
        [4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14],
        [11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3],
    ],
    [
        [12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11],
        [10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8],
        [9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6],
        [4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13],
    ],
    [
        [4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1],
        [13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6],
        [1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2],
        [6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12],
    ],
    [
        [13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7],
        [1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2],
        [7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8],
        [2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11],
    ],
];

/// Permuted choice 1: 64-bit key -> 56 bits (drops parity bits).
const PC1: [u8; 56] = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18, 10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60,
    52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22, 14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
];

/// Permuted choice 2: 56 bits -> 48-bit round key.
const PC2: [u8; 48] = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10, 23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2, 41, 52,
    31, 37, 47, 55, 30, 40, 51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
];

/// Left-rotation schedule for the 16 rounds.
const SHIFTS: [u8; 16] = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1];

/// Apply a FIPS-style permutation table: output bit `i` (counting from the
/// MSB of the output) is input bit `table[i]` (1-indexed from the MSB of an
/// `in_bits`-wide value). Bit-serial; it runs at compile time only, to build
/// the tables below, and in the test oracle.
const fn permute(input: u64, table: &[u8], in_bits: u32) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < table.len() {
        out = (out << 1) | ((input >> (in_bits - table[i] as u32)) & 1);
        i += 1;
    }
    out
}

/// `table` as `N` nibble tables over a `4 * N`-bit input: `[k][v]` is the
/// image of an input whose nibble `k` (from the MSB) is `v` and whose other
/// bits are clear.
const fn nibble_tables<const N: usize>(table: &[u8]) -> [[u64; 16]; N] {
    let mut out = [[0u64; 16]; N];
    let mut k = 0;
    while k < N {
        let mut v = 0;
        while v < 16 {
            out[k][v] = permute((v as u64) << (4 * (N - 1 - k)), table, 4 * N as u32);
            v += 1;
        }
        k += 1;
    }
    out
}

/// Permute `input` by its nibble tables: every output bit copies one input
/// bit, which lies in exactly one nibble, so the image is the OR of one entry
/// per nibble.
fn by_nibbles<const N: usize>(tables: &[[u64; 16]; N], mut input: u64) -> u64 {
    let mut out = 0;
    for table in tables.iter().rev() {
        out |= table[(input & 0xF) as usize];
        input >>= 4;
    }
    out
}

const IP_TABLES: [[u64; 16]; 16] = nibble_tables(&IP);
const FP_TABLES: [[u64; 16]; 16] = nibble_tables(&FP);
const PC1_TABLES: [[u64; 16]; 16] = nibble_tables(&PC1);

/// PC2's nibble tables with every entry moved into the round-key layout.
/// Moving bits commutes with OR, so the image of any input is in that
/// layout too.
const PC2_TABLES: [[u64; 16]; 14] = {
    let mut tables = nibble_tables::<14>(&PC2);
    let mut k = 0;
    while k < 14 {
        let mut v = 0;
        while v < 16 {
            tables[k][v] = to_round_key_layout(tables[k][v]);
            v += 1;
        }
        k += 1;
    }
    tables
};

/// Where S-box `j`'s six input bits sit in a round key and in [`expand`]'s
/// output: odd boxes in the high 32-bit lane, even ones in the low lane, at
/// bit 24, 16, 8 or 0 of the lane for boxes (0, 1), (2, 3), (4, 5), (6, 7).
const fn group_shift(j: usize) -> u32 {
    (j as u32 % 2) * 32 + 8 * (3 - j as u32 / 2)
}

/// A FIPS 48-bit value (E's output, a round key: S-box 0's six bits most
/// significant) moved into the [`group_shift`] layout.
const fn to_round_key_layout(bits48: u64) -> u64 {
    let mut out = 0;
    let mut j = 0;
    while j < 8 {
        out |= ((bits48 >> (42 - 6 * j)) & 0x3F) << group_shift(j);
        j += 1;
    }
    out
}

/// E, by rotation. S-box `j` reads nibble `j` of R plus the bit on either
/// side of it, wrapping around: R rotated left by 1 puts the odd boxes'
/// windows at bits 24, 16, 8, 0, and R rotated right by 3 the even ones'.
/// The two bits between windows in each byte are ignored.
const fn expand(r: u32) -> u64 {
    ((r.rotate_left(1) as u64) << 32) | r.rotate_right(3) as u64
}

/// Bits of [`expand`]'s output that hold a window.
const WINDOWS: u64 = 0x3F3F_3F3F_3F3F_3F3F;

/// `expand` equals E for every R: both sides only copy bits, so agreeing on
/// each of the 32 single-bit inputs is agreeing everywhere.
const fn expand_is_e() -> bool {
    let mut i = 0;
    while i < 32 {
        let r = 1u32 << i;
        if expand(r) & WINDOWS != to_round_key_layout(permute(r as u64, &E, 32)) {
            return false;
        }
        i += 1;
    }
    true
}
const _: () = assert!(expand_is_e(), "rotation-based expansion differs from FIPS E");

/// S-box `j` followed by P: `[j][x]` is P applied to box `j`'s output for
/// the six input bits `x`, placed where box `j`'s output sits.
const SP: [[u32; 64]; 8] = {
    let mut sp = [[0u32; 64]; 8];
    let mut j = 0;
    while j < 8 {
        let mut x = 0;
        while x < 64 {
            let row = ((x >> 4) & 0b10) | (x & 1);
            let col = (x >> 1) & 0xF;
            let s = (SBOXES[j][row][col] as u64) << (28 - 4 * j);
            sp[j][x] = permute(s, &P, 32) as u32;
            x += 1;
        }
        j += 1;
    }
    sp
};

/// The 16 round keys of a 64-bit key, in the [`group_shift`] layout.
fn key_schedule(key64: u64) -> [u64; 16] {
    let pc1 = by_nibbles(&PC1_TABLES, key64);
    let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
    let mut d = pc1 & 0x0FFF_FFFF;
    let mut subkeys = [0u64; 16];
    for (round, &s) in SHIFTS.iter().enumerate() {
        c = ((c << s) | (c >> (28 - s as u32))) & 0x0FFF_FFFF;
        d = ((d << s) | (d >> (28 - s as u32))) & 0x0FFF_FFFF;
        subkeys[round] = by_nibbles(&PC2_TABLES, (c << 28) | d);
    }
    subkeys
}

/// The Feistel function: expand, mix with the round key, substitute and
/// permute in one lookup per S-box.
fn feistel(r: u32, subkey: u64) -> u32 {
    let x = expand(r) ^ subkey;
    let mut out = 0;
    for (j, sp) in SP.iter().enumerate() {
        out ^= sp[((x >> group_shift(j)) & 0x3F) as usize];
    }
    out
}

fn des_rounds(block: u64, subkeys: &[u64; 16], decrypt: bool) -> u64 {
    let ip = by_nibbles(&IP_TABLES, block);
    let mut l = (ip >> 32) as u32;
    let mut r = ip as u32;
    for round in 0..16 {
        let k = if decrypt { subkeys[15 - round] } else { subkeys[round] };
        let next_r = l ^ feistel(r, k);
        l = r;
        r = next_r;
    }
    // Note the final swap: the preoutput is R16 || L16.
    by_nibbles(&FP_TABLES, ((r as u64) << 32) | l as u64)
}

/// The DES block cipher with a precomputed key schedule.
///
/// `Debug` intentionally reveals nothing about the key schedule.
#[derive(Clone)]
pub struct Des {
    /// Round keys in the [`group_shift`] layout.
    subkeys: [u64; 16],
}

impl Des {
    /// Key length in bytes (including the 8 unused parity bits).
    pub const KEY_SIZE: usize = 8;

    /// Build a cipher from an 8-byte key. Parity bits are ignored, as is
    /// conventional.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        if key.len() != Self::KEY_SIZE {
            return Err(CryptoError::InvalidKeyLength {
                expected: Self::KEY_SIZE,
                actual: key.len(),
            });
        }
        let key64 = u64::from_be_bytes(key.try_into().expect("length checked"));
        Ok(Des { subkeys: key_schedule(key64) })
    }

    /// Encrypt a single 8-byte block given as a `u64` (big-endian semantics).
    pub fn encrypt_u64(&self, block: u64) -> u64 {
        des_rounds(block, &self.subkeys, false)
    }

    /// Decrypt a single 8-byte block given as a `u64`.
    pub fn decrypt_u64(&self, block: u64) -> u64 {
        des_rounds(block, &self.subkeys, true)
    }
}

impl std::fmt::Debug for Des {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Des(key schedule elided)")
    }
}

impl BlockCipher for Des {
    const BLOCK_SIZE: usize = 8;

    fn encrypt_block(&self, block: &mut [u8]) {
        debug_assert_eq!(block.len(), 8);
        let v = u64::from_be_bytes(block.try_into().expect("8-byte block"));
        block.copy_from_slice(&self.encrypt_u64(v).to_be_bytes());
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        debug_assert_eq!(block.len(), 8);
        let v = u64::from_be_bytes(block.try_into().expect("8-byte block"));
        block.copy_from_slice(&self.decrypt_u64(v).to_be_bytes());
    }
}

/// Triple-DES in EDE3 mode (encrypt-decrypt-encrypt with three independent
/// keys). Same 8-byte block as DES, 24-byte key.
#[derive(Clone)]
pub struct TripleDes {
    k1: Des,
    k2: Des,
    k3: Des,
}

impl TripleDes {
    /// Key length in bytes (three DES keys).
    pub const KEY_SIZE: usize = 24;

    /// Build a cipher from a 24-byte key (K1 || K2 || K3).
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        if key.len() != Self::KEY_SIZE {
            return Err(CryptoError::InvalidKeyLength {
                expected: Self::KEY_SIZE,
                actual: key.len(),
            });
        }
        Ok(TripleDes {
            k1: Des::new(&key[0..8])?,
            k2: Des::new(&key[8..16])?,
            k3: Des::new(&key[16..24])?,
        })
    }
}

impl std::fmt::Debug for TripleDes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TripleDes(key schedule elided)")
    }
}

impl BlockCipher for TripleDes {
    const BLOCK_SIZE: usize = 8;

    fn encrypt_block(&self, block: &mut [u8]) {
        let v = u64::from_be_bytes(block.try_into().expect("8-byte block"));
        let v = self.k3.encrypt_u64(self.k2.decrypt_u64(self.k1.encrypt_u64(v)));
        block.copy_from_slice(&v.to_be_bytes());
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        let v = u64::from_be_bytes(block.try_into().expect("8-byte block"));
        let v = self.k1.decrypt_u64(self.k2.encrypt_u64(self.k3.decrypt_u64(v)));
        block.copy_from_slice(&v.to_be_bytes());
    }
}

/// The bit-at-a-time cipher the tables replaced: every permutation one
/// shift-and-mask per output bit, E as a table, S-box then P. Kept as the
/// oracle the table-driven cipher is tested against.
#[cfg(test)]
mod reference {
    use super::{permute, E, FP, IP, P, PC1, PC2, SBOXES, SHIFTS};

    /// The 16 48-bit round keys derived from a 64-bit key.
    pub fn key_schedule(key64: u64) -> [u64; 16] {
        let pc1 = permute(key64, &PC1, 64);
        let mut c = (pc1 >> 28) & 0x0FFF_FFFF;
        let mut d = pc1 & 0x0FFF_FFFF;
        let mut subkeys = [0u64; 16];
        for (round, &s) in SHIFTS.iter().enumerate() {
            c = ((c << s) | (c >> (28 - s as u32))) & 0x0FFF_FFFF;
            d = ((d << s) | (d >> (28 - s as u32))) & 0x0FFF_FFFF;
            subkeys[round] = permute((c << 28) | d, &PC2, 56);
        }
        subkeys
    }

    /// The Feistel function: expand, mix with the round key, substitute,
    /// permute.
    fn feistel(r: u32, subkey: u64) -> u32 {
        let x = permute(r as u64, &E, 32) ^ subkey;
        let mut out = 0u32;
        for (box_idx, sbox) in SBOXES.iter().enumerate() {
            let six = ((x >> (42 - 6 * box_idx)) & 0x3F) as usize;
            let row = ((six >> 4) & 0b10) | (six & 1);
            let col = (six >> 1) & 0xF;
            out = (out << 4) | sbox[row][col] as u32;
        }
        permute(out as u64, &P, 32) as u32
    }

    pub fn des_rounds(block: u64, subkeys: &[u64; 16], decrypt: bool) -> u64 {
        let ip = permute(block, &IP, 64);
        let mut l = (ip >> 32) as u32;
        let mut r = ip as u32;
        for round in 0..16 {
            let k = if decrypt { subkeys[15 - round] } else { subkeys[round] };
            let next_r = l ^ feistel(r, k);
            l = r;
            r = next_r;
        }
        permute(((r as u64) << 32) | l as u64, &FP, 64)
    }

    /// EDE3 over the reference cipher.
    pub fn triple_des(keys: [u64; 3], block: u64, decrypt: bool) -> u64 {
        let [k1, k2, k3] = keys.map(key_schedule);
        if decrypt {
            des_rounds(des_rounds(des_rounds(block, &k3, true), &k2, false), &k1, true)
        } else {
            des_rounds(des_rounds(des_rounds(block, &k1, false), &k2, true), &k3, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic worked example from many DES expositions.
    #[test]
    fn known_answer_classic() {
        let des = Des::new(&0x1334_5779_9BBC_DFF1u64.to_be_bytes()).unwrap();
        assert_eq!(des.encrypt_u64(0x0123_4567_89AB_CDEF), 0x85E8_1354_0F0A_B405);
        assert_eq!(des.decrypt_u64(0x85E8_1354_0F0A_B405), 0x0123_4567_89AB_CDEF);
    }

    /// A second published vector ("8787878787878787" under 0E329232EA6D0D73
    /// encrypts to all zeros).
    #[test]
    fn known_answer_zero_ciphertext() {
        let des = Des::new(&0x0E32_9232_EA6D_0D73u64.to_be_bytes()).unwrap();
        assert_eq!(des.encrypt_u64(0x8787_8787_8787_8787), 0);
        assert_eq!(des.decrypt_u64(0), 0x8787_8787_8787_8787);
    }

    #[test]
    fn all_zero_key_and_block() {
        // DES with the (weak) all-zero key on the all-zero block — a widely
        // published vector.
        let des = Des::new(&[0u8; 8]).unwrap();
        assert_eq!(des.encrypt_u64(0), 0x8CA6_4DE9_C1B1_23A7);
    }

    #[test]
    fn block_cipher_trait_roundtrip() {
        let des = Des::new(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let mut block = *b"KEYGRAPH";
        let orig = block;
        des.encrypt_block(&mut block);
        assert_ne!(block, orig);
        des.decrypt_block(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn rejects_bad_key_length() {
        assert_eq!(
            Des::new(&[0u8; 7]).unwrap_err(),
            CryptoError::InvalidKeyLength { expected: 8, actual: 7 }
        );
        assert_eq!(
            TripleDes::new(&[0u8; 8]).unwrap_err(),
            CryptoError::InvalidKeyLength { expected: 24, actual: 8 }
        );
    }

    #[test]
    fn triple_des_degenerates_to_des_with_equal_keys() {
        let raw = [0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1];
        let mut k24 = Vec::new();
        for _ in 0..3 {
            k24.extend_from_slice(&raw);
        }
        let tdes = TripleDes::new(&k24).unwrap();
        let des = Des::new(&raw).unwrap();
        let mut a = *b"01234567";
        let mut b = a;
        tdes.encrypt_block(&mut a);
        des.encrypt_block(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn triple_des_roundtrip_distinct_keys() {
        let key: Vec<u8> = (0u8..24).collect();
        let tdes = TripleDes::new(&key).unwrap();
        let mut block = *b"\x00\x11\x22\x33\x44\x55\x66\x77";
        let orig = block;
        tdes.encrypt_block(&mut block);
        tdes.decrypt_block(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn parity_bits_are_ignored() {
        // Flipping the low (parity) bit of each key byte must not change the
        // cipher.
        let k1 = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0];
        let mut k2 = k1;
        for b in k2.iter_mut() {
            *b ^= 1;
        }
        let d1 = Des::new(&k1).unwrap();
        let d2 = Des::new(&k2).unwrap();
        assert_eq!(d1.encrypt_u64(0xAABB_CCDD_EEFF_0011), d2.encrypt_u64(0xAABB_CCDD_EEFF_0011));
    }

    #[test]
    fn complementation_property() {
        // DES satisfies E_{~k}(~p) = ~E_k(p).
        let k = 0x1334_5779_9BBC_DFF1u64;
        let p = 0x0123_4567_89AB_CDEFu64;
        let c = Des::new(&k.to_be_bytes()).unwrap().encrypt_u64(p);
        let c2 = Des::new(&(!k).to_be_bytes()).unwrap().encrypt_u64(!p);
        assert_eq!(c2, !c);
    }

    proptest::proptest! {
        #[test]
        fn roundtrip_random(key in proptest::array::uniform8(0u8..), block: u64) {
            let des = Des::new(&key).unwrap();
            proptest::prop_assert_eq!(des.decrypt_u64(des.encrypt_u64(block)), block);
        }

        #[test]
        fn triple_des_roundtrip_random(key in proptest::collection::vec(0u8.., 24), block: u64) {
            let tdes = TripleDes::new(&key).unwrap();
            let mut buf = block.to_be_bytes();
            tdes.encrypt_block(&mut buf);
            tdes.decrypt_block(&mut buf);
            proptest::prop_assert_eq!(u64::from_be_bytes(buf), block);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4096))]

        #[test]
        fn tables_match_the_bit_serial_reference(key: u64, block: u64) {
            let des = Des::new(&key.to_be_bytes()).unwrap();
            let subkeys = reference::key_schedule(key);
            proptest::prop_assert_eq!(des.encrypt_u64(block), reference::des_rounds(block, &subkeys, false));
            proptest::prop_assert_eq!(des.decrypt_u64(block), reference::des_rounds(block, &subkeys, true));
        }

        #[test]
        fn triple_des_matches_the_bit_serial_reference(k1: u64, k2: u64, k3: u64, block: u64) {
            let key: Vec<u8> = [k1, k2, k3].iter().flat_map(|k| k.to_be_bytes()).collect();
            let tdes = TripleDes::new(&key).unwrap();
            let mut buf = block.to_be_bytes();
            tdes.encrypt_block(&mut buf);
            proptest::prop_assert_eq!(u64::from_be_bytes(buf), reference::triple_des([k1, k2, k3], block, false));
            let mut buf = block.to_be_bytes();
            tdes.decrypt_block(&mut buf);
            proptest::prop_assert_eq!(u64::from_be_bytes(buf), reference::triple_des([k1, k2, k3], block, true));
        }
    }
}
