//! Probabilistic prime generation for RSA key generation.
//!
//! Miller–Rabin with a deterministic small-base pre-check plus random bases.
//! Candidate primes are drawn with both the top two bits set (so p·q reaches
//! the full modulus width — a 512-bit modulus from two 256-bit primes, as
//! the paper's RSA-512 requires) and the bottom bit set (odd).
//!
//! Trial division takes single-limb remainders and every Miller–Rabin round
//! runs inside one [`Montgomery`] context per candidate. Witnesses are drawn
//! from the generator exactly as the plain-`modpow` version drew them, so a
//! seeded generator yields the same primes (`crypto_kat` pins a modulus).

use crate::bigint::{BigUint, Montgomery};
use rand::RngCore;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Error probability ≤ 4^-rounds for composite inputs; 24 rounds is beyond
/// any practical concern for experiment-grade key generation.
pub fn is_probable_prime(n: &BigUint, rounds: u32, rng: &mut dyn RngCore) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_u32(p) == 0 {
            return *n == BigUint::from_u64(p as u64);
        }
    }
    // Write n-1 = d * 2^r with d odd.
    let n_minus_1 = n.sub(&BigUint::one());
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr(1);
        r += 1;
    }
    // Residues stay in Montgomery form throughout: the form is a bijection,
    // so comparing against the forms of 1 and n-1 decides the same thing.
    let ctx = Montgomery::new(n).expect("trial division by 2 left an odd n > 251");
    let one = ctx.to_mont(&BigUint::one());
    let minus_one = ctx.to_mont(&n_minus_1);
    let mut square = vec![0u64; ctx.limbs()];
    let two = BigUint::from_u64(2);
    'witness: for _ in 0..rounds {
        let a = random_below(&n_minus_1, rng).add(&two); // a in [2, n]
        if a >= *n {
            continue;
        }
        let mut x = ctx.pow_mont(&ctx.to_mont(&a), &d);
        if x == one || x == minus_one {
            continue;
        }
        for _ in 0..r.saturating_sub(1) {
            ctx.mul(&x, &x, &mut square);
            std::mem::swap(&mut x, &mut square);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Uniform random value in `[0, bound)`. Panics if `bound` is zero.
pub fn random_below(bound: &BigUint, rng: &mut dyn RngCore) -> BigUint {
    assert!(!bound.is_zero(), "random_below with zero bound");
    let bits = bound.bit_len();
    let bytes = bits.div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        // Mask off excess high bits so rejection sampling terminates fast.
        let excess = bytes * 8 - bits;
        buf[0] &= 0xFFu8 >> excess;
        let candidate = BigUint::from_bytes_be(&buf);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Generate a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (full-width product) and the low bit to
/// 1 (odd). Panics if `bits < 8`.
pub fn generate_prime(bits: usize, rng: &mut dyn RngCore) -> BigUint {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    let bytes = bits.div_ceil(8);
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        let excess = bytes * 8 - bits;
        buf[0] &= 0xFFu8 >> excess;
        // Force the two most significant bits of the `bits`-wide value.
        let top_bit = 7 - excess; // bit index within buf[0]
        if top_bit >= 1 {
            buf[0] |= 1 << top_bit;
            buf[0] |= 1 << (top_bit - 1);
        } else {
            buf[0] |= 1;
            buf[1] |= 0x80;
        }
        *buf.last_mut().expect("nonempty") |= 1;
        let candidate = BigUint::from_bytes_be(&buf);
        debug_assert_eq!(candidate.bit_len(), bits);
        if is_probable_prime(&candidate, 24, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 101, 251, 257, 65537, 1_000_000_007] {
            assert!(is_probable_prime(&BigUint::from_u64(p), 16, &mut r), "{p} should be prime");
        }
    }

    #[test]
    fn composites_rejected() {
        let mut r = rng();
        for c in [1u64, 4, 6, 9, 15, 21, 25, 255, 561, 1105, 1729, 2465, 6601, 62745, 162401] {
            // Includes Carmichael numbers (561, 1105, 1729, ...), which fool
            // Fermat but not Miller–Rabin.
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
        assert!(!is_probable_prime(&BigUint::zero(), 16, &mut r));
    }

    #[test]
    fn large_known_prime() {
        let mut r = rng();
        // 2^127 - 1 is a Mersenne prime.
        let m127 = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&m127, 16, &mut r));
        // 2^128 - 1 is composite.
        let m128 = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&m128, 16, &mut r));
    }

    #[test]
    fn generated_primes_have_requested_width() {
        let mut r = rng();
        for bits in [64usize, 96, 128] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            // Top two bits set.
            assert!(p.bit(bits - 1) && p.bit(bits - 2));
        }
    }

    #[test]
    fn random_below_is_in_range() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut r) < bound);
        }
        // Bound of one always yields zero.
        assert!(random_below(&BigUint::one(), &mut r).is_zero());
    }
}
