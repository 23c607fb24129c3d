//! Arbitrary-precision unsigned integers — the arithmetic substrate for RSA.
//!
//! The paper signs rekey messages with RSA using a 512-bit modulus; nothing
//! in the offline dependency set provides big-number arithmetic, so this
//! module implements it from scratch, in two layers.
//!
//! [`BigUint`] is the general layer — key generation, CRT recombination,
//! encoding — and the reference the fast layer is tested against:
//!
//! * base-2^32 limbs, little-endian, always normalized (no trailing zeros);
//! * schoolbook and Karatsuba multiplication (Karatsuba kicks in above a
//!   threshold; both are property-tested against each other);
//! * Knuth Algorithm D division with remainder;
//! * binary extended GCD for modular inverses;
//! * left-to-right square-and-multiply modular exponentiation
//!   ([`BigUint::modpow`]: one full division and three allocations per
//!   product — kept as the test oracle, called from no request or keygen
//!   path).
//!
//! [`Montgomery`] is the layer every RSA operation and every Miller–Rabin
//! round ([`crate::prime`]) runs on: a per-modulus context (the odd modulus
//! as 64-bit limbs, `-n⁻¹ mod 2⁶⁴`, `R² mod n`), CIOS multiplication with
//! `u128` products into caller-owned buffers, and an exponentiation whose
//! loop allocates nothing — a fixed 4-bit window for long exponents, plain
//! left-to-right binary for exponents of at most 64 bits (for e = 65537 a
//! 15-entry table costs more than the one multiplication it saves).
//!
//! The paper's premise is the *relative* cost of a signature and a DES
//! encryption — about two orders of magnitude on its 1998 hardware. With
//! `modpow` an RSA-512 signature here cost ≈ 129 DES-CBC key seals; on
//! Montgomery arithmetic it costs ≈ 11 (EXPERIMENTS.md, "RSA on Montgomery
//! arithmetic"), so the ratio the batch-signing argument rests on is an
//! order of magnitude smaller here than in the paper, and CI holds it
//! under 40.

use std::cmp::Ordering;
use std::fmt;

/// Number of limbs below which schoolbook multiplication is used directly.
const KARATSUBA_THRESHOLD: usize = 32;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian base-2^32 limbs; empty means zero; the last limb is
    /// nonzero (normalization invariant).
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint { limbs: vec![v as u32, (v >> 32) as u32] };
        n.normalize();
        n
    }

    /// Construct from big-endian bytes (leading zeros allowed).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut chunk_val: u32 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            chunk_val |= (b as u32) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(chunk_val);
                chunk_val = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(chunk_val);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// Returns `None` if the value does not fit (needed for fixed-width RSA
    /// signature encoding).
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parse a hexadecimal string (no prefix; case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let mut idx = 0;
        // Odd-length strings get an implicit leading zero nibble.
        if s.len() % 2 == 1 {
            bytes.push(hex_val(s[0])?);
            idx = 1;
        }
        while idx < s.len() {
            bytes.push(hex_val(s[idx])? << 4 | hex_val(s[idx + 1])?);
            idx += 2;
        }
        Some(BigUint::from_bytes_be(&bytes))
    }

    /// Render as lowercase hex with no leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is exactly one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 32)) & 1 == 1
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let sum = limb as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`. Panics if `other > self` (callers guard; this is an
    /// internal arithmetic substrate, not a public API surface that should
    /// silently wrap).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let mut diff = self.limbs[i] as i64 - *other.limbs.get(i).unwrap_or(&0) as i64 - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u32);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other`, choosing schoolbook or Karatsuba by operand size.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        if self.limbs.len().min(other.limbs.len()) < KARATSUBA_THRESHOLD {
            self.mul_schoolbook(other)
        } else {
            self.mul_karatsuba(other)
        }
    }

    /// Plain O(n·m) multiplication.
    pub fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Karatsuba multiplication, O(n^1.58); recursion bottoms out at
    /// [`KARATSUBA_THRESHOLD`] limbs.
    pub fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        if self.limbs.len().min(other.limbs.len()) < KARATSUBA_THRESHOLD {
            return self.mul_schoolbook(other);
        }
        let half = n / 2;
        let (a0, a1) = self.split_at(half);
        let (b0, b1) = other.split_at(half);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        z2.shl_limbs(2 * half).add(&z1.shl_limbs(half)).add(&z0)
    }

    /// Split into (low `at` limbs, remaining high limbs).
    fn split_at(&self, at: usize) -> (BigUint, BigUint) {
        if at >= self.limbs.len() {
            return (self.clone(), BigUint::zero());
        }
        let mut lo = BigUint { limbs: self.limbs[..at].to_vec() };
        lo.normalize();
        let hi = BigUint { limbs: self.limbs[at..].to_vec() };
        (lo, hi)
    }

    /// Multiply by 2^(32·n) (limb-wise left shift).
    fn shl_limbs(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u32; n];
        limbs.extend_from_slice(&self.limbs);
        BigUint { limbs }
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let mut limbs: Vec<u32> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            for i in 0..limbs.len() {
                limbs[i] >>= bit_shift;
                if i + 1 < limbs.len() {
                    limbs[i] |= limbs[i + 1] << (32 - bit_shift);
                }
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// `(self / divisor, self % divisor)`. Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut quotient = Vec::with_capacity(self.limbs.len());
            let mut rem = 0u64;
            for &l in self.limbs.iter().rev() {
                let cur = (rem << 32) | l as u64;
                quotient.push((cur / d) as u32);
                rem = cur % d;
            }
            quotient.reverse();
            let mut q = BigUint { limbs: quotient };
            q.normalize();
            return (q, BigUint::from_u64(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth TAOCP vol. 2, Algorithm 4.3.1-D, for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("multi-limb").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un: Vec<u32> = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs during the loop
        let vn = &v.limbs;
        let v_top = vn[n - 1] as u64;
        let v_second = vn[n - 2] as u64;

        let mut q = vec![0u32; m + 1];
        // D2–D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate q̂.
            let numerator = ((un[j + n] as u64) << 32) | un[j + n - 1] as u64;
            let mut qhat = numerator / v_top;
            let mut rhat = numerator % v_top;
            while qhat >= 1 << 32 || qhat * v_second > ((rhat << 32) | un[j + n - 2] as u64) {
                qhat -= 1;
                rhat += v_top;
                if rhat >= 1 << 32 {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * vn[i] as u64 + carry;
                carry = p >> 32;
                let t = un[i + j] as i64 - borrow - (p as u32) as i64;
                un[i + j] = t as u32;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i64 - borrow - carry as i64;
            un[j + n] = t as u32;
            // D5–D6: if we subtracted too much, add back.
            if t < 0 {
                qhat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let sum = un[i + j] as u64 + vn[i] as u64 + carry;
                    un[i + j] = sum as u32;
                    carry = sum >> 32;
                }
                un[j + n] = (un[j + n] as u64 + carry) as u32;
            }
            q[j] = qhat as u32;
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint { limbs: un[..n].to_vec() };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// `self % modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `self % divisor` for a single-limb divisor, without allocating (trial
    /// division in [`crate::prime`]). Panics on division by zero.
    pub fn rem_u32(&self, divisor: u32) -> u32 {
        assert!(divisor != 0, "BigUint division by zero");
        let d = divisor as u64;
        self.limbs.iter().rev().fold(0u64, |rem, &l| ((rem << 32) | l as u64) % d) as u32
    }

    /// The low `k` base-2^64 limbs, little-endian (zero beyond the top).
    fn limbs64(&self, k: usize) -> impl DoubleEndedIterator<Item = u64> + '_ {
        let half = |j: usize| self.limbs.get(j).copied().unwrap_or(0) as u64;
        (0..k).map(move |i| half(2 * i) | half(2 * i + 1) << 32)
    }

    /// Construct from little-endian base-2^64 limbs.
    fn from_limbs64(limbs: &[u64]) -> BigUint {
        let mut n =
            BigUint { limbs: limbs.iter().flat_map(|&l| [l as u32, (l >> 32) as u32]).collect() };
        n.normalize();
        n
    }

    /// `self^exponent mod modulus` via left-to-right square-and-multiply.
    ///
    /// Not constant-time — acceptable for a measurement prototype whose
    /// threat model (the paper's) is protocol-level, not side-channel-level.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let base = self.rem(modulus);
        let nbits = exponent.bit_len();
        for i in (0..nbits).rev() {
            result = result.mul(&result).rem(modulus);
            if exponent.bit(i) {
                result = result.mul(&base).rem(modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular inverse: `x` such that `self * x ≡ 1 (mod modulus)`, or
    /// `None` when `gcd(self, modulus) != 1`.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        // Extended Euclid on (modulus, self mod modulus), tracking only the
        // coefficient of `self`, with signs handled explicitly.
        if modulus.is_zero() {
            return None;
        }
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        // t0, t1 with explicit signs (value, is_negative).
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q*t1 (signed arithmetic)
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // Map the coefficient into [0, modulus).
        let (val, neg) = t0;
        let val = val.rem(modulus);
        Some(if neg && !val.is_zero() { modulus.sub(&val) } else { val })
    }
}

/// Signed subtraction helper for the extended Euclid: `a - b` where each
/// operand is (magnitude, is_negative).
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - (-b) = b - a
        (true, true) => {
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Debug for BigUint {
    /// Hex is the useful view for 512-bit values.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

/// `acc + a·b + carry` as `(low, high)` limbs; cannot overflow, since
/// `(2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸ − 1`.
#[inline(always)]
fn mul_add(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = acc as u128 + a as u128 * b as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

/// A Montgomery context for one odd modulus `n > 1`: everything modular
/// exponentiation needs that depends on `n` alone, computed once per key
/// (or per prime candidate).
///
/// With `k` the number of 64-bit limbs of `n` and `R = 2^(64k)`, a residue
/// `x` is held in *Montgomery form* `x·R mod n` as exactly `k` little-endian
/// limbs, always fully reduced — so two residues are equal iff their limb
/// slices are. [`mul`](Self::mul) maps two such forms to the form of the
/// product with no division. [`pow`](Self::pow) is the whole round trip on
/// [`BigUint`]s; [`to_mont`](Self::to_mont), [`pow_mont`](Self::pow_mont)
/// and `mul` let a caller that squares repeatedly (Miller–Rabin) stay
/// inside.
///
/// Heap use is two modulus widths in one allocation: an `RsaPublicKey` is
/// cloned into every client.
#[derive(Clone, PartialEq, Eq)]
pub struct Montgomery {
    /// `n` in the low half, `R² mod n` in the high half, `k` limbs each.
    n_r2: Box<[u64]>,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
}

impl Montgomery {
    /// The context for `modulus`, or `None` when it is even or below 3 —
    /// Montgomery reduction needs `gcd(n, 2⁶⁴) = 1`.
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() {
            return None;
        }
        let k = modulus.bit_len().div_ceil(64);
        let r2 = BigUint::one().shl(128 * k).rem(modulus);
        let n_r2: Box<[u64]> = modulus.limbs64(k).chain(r2.limbs64(k)).collect();
        // Newton's iteration doubles the correct low bits of n⁻¹ mod 2⁶⁴ each
        // step, and n·n ≡ 1 (mod 8) for odd n gives it three to start from.
        let n0 = n_r2[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        Some(Montgomery { n_r2, n0_inv: inv.wrapping_neg() })
    }

    /// Limbs per residue (`k`).
    pub fn limbs(&self) -> usize {
        self.n_r2.len() / 2
    }

    fn n(&self) -> &[u64] {
        &self.n_r2[..self.limbs()]
    }

    fn r2(&self) -> &[u64] {
        &self.n_r2[self.limbs()..]
    }

    /// The modulus.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs64(self.n())
    }

    /// Number of significant bits of the modulus.
    pub fn bit_len(&self) -> usize {
        let n = self.n();
        // The top limb is nonzero: `k` was derived from the bit length.
        n.len() * 64 - n[n.len() - 1].leading_zeros() as usize
    }

    /// Whether `x < n`, i.e. `x` is a canonical residue.
    pub fn is_reduced(&self, x: &BigUint) -> bool {
        let n = self.n();
        x.limbs.len() <= 2 * n.len() && x.limbs64(n.len()).rev().lt(n.iter().rev().copied())
    }

    /// `out = a·b·R⁻¹ mod n`: the Montgomery product of two residues in
    /// Montgomery form (coarsely integrated operand scanning — one pass of
    /// multiply-accumulate and one of reduction per limb of `b`, the two
    /// words above `out` carried in registers). `a`, `b` and `out` are `k`
    /// limbs each; inputs below `n` give an output below `n`.
    pub fn mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let n = self.n();
        let k = n.len();
        let (a, b, out) = (&a[..k], &b[..k], &mut out[..k]);
        out.fill(0);
        let mut top = 0u64;
        for &bi in b {
            let mut carry = 0;
            for (o, &aj) in out.iter_mut().zip(a) {
                (*o, carry) = mul_add(*o, aj, bi, carry);
            }
            let (t_k, t_k1) = top.overflowing_add(carry);
            // m makes the low limb of out + m·n vanish; shift down one limb.
            let m = out[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mul_add(out[0], m, n[0], 0);
            for j in 1..k {
                (out[j - 1], carry) = mul_add(out[j], m, n[j], carry);
            }
            let (low, over) = t_k.overflowing_add(carry);
            out[k - 1] = low;
            top = t_k1 as u64 + over as u64;
        }
        // The running value stays below 2n, so one subtraction finishes.
        if top != 0 || out.iter().rev().ge(n.iter().rev()) {
            let mut borrow = false;
            for (o, &nj) in out.iter_mut().zip(n) {
                let (d, b1) = o.overflowing_sub(nj);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                (*o, borrow) = (d, b1 | b2);
            }
        }
    }

    /// `x mod n` in Montgomery form.
    pub fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let k = self.limbs();
        let plain: Vec<u64> = if self.is_reduced(x) {
            x.limbs64(k).collect()
        } else {
            x.rem(&self.modulus()).limbs64(k).collect()
        };
        let mut out = vec![0; k];
        self.mul(&plain, self.r2(), &mut out);
        out
    }

    /// The residue a Montgomery form stands for.
    pub fn from_mont(&self, x: &[u64]) -> BigUint {
        let k = self.limbs();
        let mut one = vec![0; k];
        one[0] = 1;
        let mut out = vec![0; k];
        self.mul(x, &one, &mut out);
        BigUint::from_limbs64(&out)
    }

    /// `base^exponent` for a `base` in Montgomery form, in Montgomery form.
    ///
    /// Not constant-time (the window multiplication is skipped on a zero
    /// nibble) — acceptable for a measurement prototype whose threat model
    /// (the paper's) is protocol-level, not side-channel-level.
    pub fn pow_mont(&self, base: &[u64], exponent: &BigUint) -> Vec<u64> {
        let k = self.limbs();
        let nbits = exponent.bit_len();
        if nbits == 0 {
            return self.to_mont(&BigUint::one());
        }
        let mut acc = vec![0u64; k];
        let mut tmp = vec![0u64; k];
        if nbits <= 64 {
            // The top bit is set: start from the base itself.
            acc.copy_from_slice(&base[..k]);
            for i in (0..nbits - 1).rev() {
                self.mul(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
                if exponent.bit(i) {
                    self.mul(&acc, base, &mut tmp);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            return acc;
        }
        // powers[i-1] = base^i for i in 1..16; the top nibble is nonzero, so
        // base⁰ is never needed.
        let mut powers = vec![0u64; 15 * k];
        powers[..k].copy_from_slice(&base[..k]);
        for i in 1..15 {
            let (done, rest) = powers.split_at_mut(i * k);
            self.mul(&done[(i - 1) * k..], base, &mut rest[..k]);
        }
        // 32-bit limbs hold eight nibbles each, none straddling a limb.
        let nibble = |w: usize| (exponent.limbs[w / 8] >> (4 * (w % 8))) as usize & 0xF;
        let top = (nbits - 1) / 4;
        acc.copy_from_slice(&powers[(nibble(top) - 1) * k..][..k]);
        for w in (0..top).rev() {
            for _ in 0..4 {
                self.mul(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let nib = nibble(w);
            if nib != 0 {
                self.mul(&acc, &powers[(nib - 1) * k..][..k], &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        acc
    }

    /// `base^exponent mod n` — what [`BigUint::modpow`] computes, for this
    /// modulus.
    pub fn pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        self.from_mont(&self.pow_mont(&self.to_mont(base), exponent))
    }
}

impl fmt::Debug for Montgomery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Montgomery(0x{})", self.modulus().to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_normalization() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 0, 1]), BigUint::one());
        assert_eq!(BigUint::from_bytes_be(&[]), BigUint::zero());
        assert_eq!(n(0x1_0000_0000).to_bytes_be(), vec![1, 0, 0, 0, 0]);
    }

    #[test]
    fn byte_roundtrip() {
        let v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(v.to_hex(), "deadbeefcafebabe0123456789abcdef");
    }

    #[test]
    fn padded_serialization() {
        let v = n(0x1234);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert_eq!(v.to_bytes_be_padded(2).unwrap(), vec![0x12, 0x34]);
        assert!(v.to_bytes_be_padded(1).is_none());
        assert_eq!(BigUint::zero().to_bytes_be_padded(3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(BigUint::from_hex("ff").unwrap(), n(255));
        assert_eq!(BigUint::from_hex("100").unwrap(), n(256)); // odd length
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(u64::MAX).add(&n(1)).to_hex(), "10000000000000000");
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(5).sub(&n(5)), BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(3).sub(&n(5));
    }

    #[test]
    fn mul_small() {
        assert_eq!(n(7).mul(&n(6)), n(42));
        assert_eq!(n(0).mul(&n(12345)), BigUint::zero());
        assert_eq!(
            n(u32::MAX as u64).mul(&n(u32::MAX as u64)),
            n((u32::MAX as u64) * (u32::MAX as u64))
        );
    }

    #[test]
    fn mul_large_known() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let m = BigUint::from_hex(&"f".repeat(32)).unwrap();
        let sq = m.mul(&m);
        let expected =
            BigUint::from_hex("fffffffffffffffffffffffffffffffe00000000000000000000000000000001")
                .unwrap();
        assert_eq!(sq, expected);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Operands above the threshold (32 limbs = 1024 bits).
        let a = BigUint::from_hex(&"a5".repeat(160)).unwrap();
        let b = BigUint::from_hex(&"3c".repeat(170)).unwrap();
        assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(35).to_hex(), "800000000");
        assert_eq!(n(1).shl(35).shr(35), n(1));
        assert_eq!(n(0b1011).shr(2), n(0b10));
        assert_eq!(n(123).shr(64), BigUint::zero());
        assert_eq!(BigUint::zero().shl(100), BigUint::zero());
    }

    #[test]
    fn bit_accessors() {
        let v = n(0b1010_0001);
        assert!(v.bit(0));
        assert!(!v.bit(1));
        assert!(v.bit(5));
        assert!(v.bit(7));
        assert!(!v.bit(100));
        assert_eq!(v.bit_len(), 8);
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(n(1).shl(511).bit_len(), 512);
    }

    #[test]
    fn division_small() {
        let (q, r) = n(17).div_rem(&n(5));
        assert_eq!((q, r), (n(3), n(2)));
        let (q, r) = n(5).div_rem(&n(17));
        assert_eq!((q, r), (BigUint::zero(), n(5)));
        let (q, r) = n(17).div_rem(&n(17));
        assert_eq!((q, r), (BigUint::one(), BigUint::zero()));
    }

    #[test]
    fn division_multi_limb_knuth() {
        // A case exercising the add-back path is hard to hit randomly;
        // verify with algebraic identities on large values instead.
        let a = BigUint::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("ffffffffffffffff0000000000000001").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn modpow_known() {
        // 4^13 mod 497 = 445 (classic textbook example)
        assert_eq!(n(4).modpow(&n(13), &n(497)), n(445));
        // Fermat: a^(p-1) ≡ 1 mod p for prime p.
        let p = n(1_000_000_007);
        assert_eq!(n(123456).modpow(&p.sub(&n(1)), &p), n(1));
        // Modulus 1 → 0.
        assert_eq!(n(5).modpow(&n(3), &n(1)), BigUint::zero());
        // exponent 0 → 1.
        assert_eq!(n(5).modpow(&BigUint::zero(), &n(7)), n(1));
    }

    #[test]
    fn gcd_known() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(5)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
        assert_eq!(n(48).gcd(&n(36)), n(12));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 ≡ 1 mod 11
        assert_eq!(n(3).mod_inverse(&n(11)).unwrap(), n(4));
        // gcd != 1 → None
        assert!(n(6).mod_inverse(&n(9)).is_none());
        // 65537^{-1} mod a known 64-bit odd number round-trips.
        let m = n(0xFFFF_FFFF_FFFF_FFC5); // largest 64-bit prime
        let e = n(65537);
        let d = e.mod_inverse(&m).unwrap();
        assert_eq!(e.mul(&d).rem(&m), n(1));
    }

    #[test]
    fn ordering() {
        assert!(n(5) > n(3));
        assert!(BigUint::from_hex("100000000").unwrap() > n(u32::MAX as u64));
        assert_eq!(n(7).cmp(&n(7)), Ordering::Equal);
    }

    #[test]
    fn rem_u32_matches_div_rem() {
        let v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef55").unwrap();
        for d in [1u32, 2, 3, 251, 65_537, u32::MAX] {
            assert_eq!(n(v.rem_u32(d) as u64), v.rem(&n(d as u64)), "divisor {d}");
        }
        assert_eq!(BigUint::zero().rem_u32(7), 0);
    }

    #[test]
    fn montgomery_needs_an_odd_modulus_above_one() {
        for m in [BigUint::zero(), n(1), n(2), n(1 << 40), n(3).shl(700)] {
            assert!(Montgomery::new(&m).is_none(), "{m:?}");
        }
        let ctx = Montgomery::new(&n(3)).unwrap();
        assert_eq!((ctx.limbs(), ctx.bit_len(), ctx.modulus()), (1, 2, n(3)));
        assert_eq!(ctx.pow(&n(5), &n(3)), n(2)); // 125 mod 3
    }

    #[test]
    fn montgomery_reports_its_modulus() {
        // 65 bits: two limbs, the top one holding a single bit.
        let m = n(1).shl(64).add(&n(0xdead_beef_0000_0001));
        let ctx = Montgomery::new(&m).unwrap();
        assert_eq!((ctx.limbs(), ctx.bit_len(), ctx.modulus()), (2, 65, m.clone()));
        assert!(ctx.is_reduced(&m.sub(&n(1))));
        assert!(!ctx.is_reduced(&m));
        assert!(!ctx.is_reduced(&m.shl(64)));
        assert!(ctx.is_reduced(&BigUint::zero()));
        assert_eq!(format!("{ctx:?}"), format!("Montgomery(0x{})", m.to_hex()));
    }

    /// An odd modulus of exactly `bits` bits from random bytes; `top` forces
    /// the whole top 64-bit limb to `0x8000…` (1) or `0xFFFF…` (2), widening
    /// the modulus to a limb boundary.
    fn odd_modulus(bits: usize, top: u8, raw: &[u8]) -> BigUint {
        let bits = if top == 0 { bits } else { bits.next_multiple_of(64) };
        let mut bytes = raw[..bits.div_ceil(8)].to_vec();
        let excess = bytes.len() * 8 - bits;
        bytes[0] &= 0xFF >> excess;
        bytes[0] |= 0x80 >> excess;
        match top {
            1 => bytes[..8].copy_from_slice(&[0x80, 0, 0, 0, 0, 0, 0, 0]),
            2 => bytes[..8].fill(0xFF),
            _ => {}
        }
        *bytes.last_mut().unwrap() |= 1;
        let m = BigUint::from_bytes_be(&bytes);
        assert_eq!(m.bit_len(), bits);
        m
    }

    proptest::proptest! {
        #[test]
        fn add_sub_roundtrip(a: u64, b: u64) {
            let big = n(a).add(&n(b));
            proptest::prop_assert_eq!(big.sub(&n(b)), n(a));
        }

        #[test]
        fn mul_matches_u128(a: u64, b: u64) {
            let prod = n(a).mul(&n(b));
            let expected = (a as u128) * (b as u128);
            let hi = (expected >> 64) as u64;
            let lo = expected as u64;
            proptest::prop_assert_eq!(prod, n(hi).shl(64).add(&n(lo)));
        }

        #[test]
        fn div_rem_identity(a in proptest::collection::vec(0u8.., 1..48), b in proptest::collection::vec(0u8.., 1..24)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            if !b.is_zero() {
                let (q, r) = a.div_rem(&b);
                proptest::prop_assert!(r < b);
                proptest::prop_assert_eq!(q.mul(&b).add(&r), a);
            }
        }

        #[test]
        fn shl_shr_roundtrip(bytes in proptest::collection::vec(0u8.., 0..32), shift in 0usize..100) {
            let v = BigUint::from_bytes_be(&bytes);
            proptest::prop_assert_eq!(v.shl(shift).shr(shift), v);
        }

        #[test]
        fn karatsuba_equals_schoolbook_random(
            a in proptest::collection::vec(0u8.., 128..200),
            b in proptest::collection::vec(0u8.., 128..200),
        ) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            proptest::prop_assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
        }

        #[test]
        fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..40, m in 2u64..10_000) {
            let mut expected = 1u128;
            for _ in 0..exp {
                expected = expected * base as u128 % m as u128;
            }
            proptest::prop_assert_eq!(
                n(base).modpow(&n(exp), &n(m)),
                n(expected as u64)
            );
        }

        #[test]
        fn mod_inverse_is_inverse(a in 1u64..100_000, m in 2u64..100_000) {
            if let Some(inv) = n(a).mod_inverse(&n(m)) {
                proptest::prop_assert_eq!(n(a).mul(&inv).rem(&n(m)), n(1));
                proptest::prop_assert!(inv < n(m));
            }
        }

        #[test]
        fn gcd_divides_both(a in 1u64..1_000_000, b in 1u64..1_000_000) {
            let g = n(a).gcd(&n(b));
            proptest::prop_assert!(n(a).rem(&g).is_zero());
            proptest::prop_assert!(n(b).rem(&g).is_zero());
        }

        /// The oracle test for the fast layer: `Montgomery::pow` against
        /// `BigUint::modpow` over moduli of every limb count up to 1,024
        /// bits, widths that are not a multiple of 64 (33–64 bits is the
        /// single-limb case), extreme top limbs, the boundary bases and the
        /// exponents RSA and Miller–Rabin use on both exponentiation paths.
        #[test]
        fn montgomery_pow_matches_modpow(
            bits in 33usize..=1024,
            top in 0u8..3,
            raw_modulus in proptest::collection::vec(0u8.., 128),
            raw_base in proptest::collection::vec(0u8.., 1..160),
            raw_exponent in proptest::collection::vec(0u8.., 9..128),
        ) {
            let m = odd_modulus(bits, top, &raw_modulus);
            let ctx = Montgomery::new(&m).expect("odd modulus above one");
            proptest::prop_assert_eq!(ctx.modulus(), m.clone());
            proptest::prop_assert_eq!(ctx.bit_len(), m.bit_len());
            let random = BigUint::from_bytes_be(&raw_base);
            let bases = [n(0), n(1), m.sub(&n(1)), m.clone(), m.add(&random), random];
            // Long exponents take the window path; keep them within the
            // modulus width, as d, d_p, d_q and Miller–Rabin's d are.
            let excess = (raw_exponent.len() * 8).saturating_sub(m.bit_len());
            let long = BigUint::from_bytes_be(&raw_exponent).shr(excess);
            let exponents = [n(0), n(1), n(2), n(65_537), n(u64::MAX), long];
            for base in &bases {
                for e in &exponents {
                    let want = base.modpow(e, &m);
                    proptest::prop_assert_eq!(ctx.pow(base, e), want, "{:?}^{:?} mod {:?}", base, e, m);
                }
            }
        }

        #[test]
        fn montgomery_mul_matches_mul_rem(
            bits in 33usize..=1024,
            raw_modulus in proptest::collection::vec(0u8.., 128),
            a in proptest::collection::vec(0u8.., 0..160),
            b in proptest::collection::vec(0u8.., 0..160),
        ) {
            let m = odd_modulus(bits, 0, &raw_modulus);
            let ctx = Montgomery::new(&m).unwrap();
            let (a, b) = (BigUint::from_bytes_be(&a), BigUint::from_bytes_be(&b));
            let (am, bm) = (ctx.to_mont(&a), ctx.to_mont(&b));
            proptest::prop_assert_eq!(ctx.from_mont(&am), a.rem(&m));
            let mut product = vec![0; ctx.limbs()];
            ctx.mul(&am, &bm, &mut product);
            proptest::prop_assert_eq!(ctx.from_mont(&product), a.mul(&b).rem(&m));
        }
    }
}
