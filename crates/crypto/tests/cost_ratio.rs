//! Cost-ratio gates: two costs timed against each other in one process,
//! in alternating batches. A ratio of two costs timed side by side does
//! not depend on the host the way a time does. Run by CI as
//! `cargo test --release -p kg-crypto -- --ignored`.
//!
//! * One RSA-512 signature against one DES-CBC key seal. The paper's
//!   argument for signing once per request (§4, Table 4, Figure 10) rests
//!   on this ratio: a signature costs about two orders of magnitude more
//!   than encrypting a key. Measured at ≈ 93 (Montgomery RSA,
//!   table-driven DES); it was ≈ 129 with plain `BigUint::modpow` and
//!   bit-serial DES, and ≈ 11 with Montgomery RSA and bit-serial DES. The
//!   gate is a band with at least 2.5× headroom on each side of 93, so a
//!   slower signature and a slower cipher both fail it.
//! * One 8-byte `HmacDrbg` draw (a DES key) against one HMAC-SHA-256 of
//!   32 bytes under a 32-byte key. The server draws a key for every
//!   changed k-node (§3, Figures 6–9). Counted in SHA-256 compressions,
//!   the draw is 8 and the HMAC 4, because the generator keeps its keyed
//!   HMAC state between calls: measured at ≈ 2.1. A generator that keys a
//!   new HMAC for every HMAC it computes, as this one did before, is 12
//!   compressions and measured ≈ 3.1, so it fails the 1.6–2.6 band.

use kg_crypto::cbc::CbcCipher;
use kg_crypto::des::Des;
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::hmac::hmac;
use kg_crypto::rsa::{HashAlg, RsaKeyPair};
use kg_crypto::sha256::Sha256;
use kg_crypto::KeySource;
use std::hint::black_box;
use std::ops::RangeInclusive;
use std::time::Instant;

/// The accepted range of sign ÷ seal.
const SIGN_PER_SEAL: RangeInclusive<f64> = 35.0..=250.0;

/// The accepted range of an 8-byte draw ÷ one HMAC; the uncached
/// generator's ≈ 3.1 is outside it.
const DRAW_PER_HMAC: RangeInclusive<f64> = 1.6..=2.6;

/// Mean seconds per call over one batch of `iters` calls.
fn secs_per_call(iters: u32, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Medians over nine rounds of `(top, bottom, top ÷ bottom)` seconds per
/// call, each round timing one batch of each back to back, so a slow
/// stretch of the host slows both sides of a ratio alike.
fn median_ratio(
    (top_iters, mut top): (u32, impl FnMut()),
    (bottom_iters, mut bottom): (u32, impl FnMut()),
) -> (f64, f64, f64) {
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let rounds: Vec<(f64, f64)> = (0..9)
        .map(|_| (secs_per_call(top_iters, &mut top), secs_per_call(bottom_iters, &mut bottom)))
        .collect();
    (
        median(rounds.iter().map(|r| r.0).collect()),
        median(rounds.iter().map(|r| r.1).collect()),
        median(rounds.iter().map(|r| r.0 / r.1).collect()),
    )
}

fn assert_in_band(what: &str, ratio: f64, band: RangeInclusive<f64>) {
    assert!(
        band.contains(&ratio),
        "{what} costs {ratio:.2} (gate: {} to {})",
        band.start(),
        band.end()
    );
}

#[test]
#[ignore = "a timing; CI runs it in release"]
fn rsa_512_signature_costs_35_to_250_des_cbc_key_seals() {
    let mut drbg = HmacDrbg::from_seed(1);
    let pair = RsaKeyPair::generate(512, &mut drbg).expect("RSA-512 key generation");
    let digest = HashAlg::Md5.hash(b"merkle root of one operation's rekey messages");
    let sign = || {
        black_box(pair.private.sign_digest(HashAlg::Md5, black_box(&digest))).expect("sign");
    };
    // What the server does per key it ships: key schedule, then CBC over
    // the 8-byte key (two blocks with padding).
    let (key, iv, payload) = (drbg.generate(8), drbg.generate(8), drbg.generate(8));
    let seal = || {
        let cipher = CbcCipher::new(Des::new(black_box(&key)).expect("8-byte key"));
        black_box(cipher.encrypt(black_box(&payload), &iv));
    };

    let (sign, seal, ratio) = median_ratio((200, sign), (20_000, seal));
    println!("sign_digest {:.1} µs, DES-CBC seal {:.2} µs: {ratio:.1}×", sign * 1e6, seal * 1e6);
    assert_in_band("an RSA-512 signature in DES-CBC key seals", ratio, SIGN_PER_SEAL);
}

#[test]
#[ignore = "a timing; CI runs it in release"]
fn hmac_drbg_key_draw_costs_1_6_to_2_6_hmacs() {
    let mut drbg = HmacDrbg::from_seed(1);
    let draw = || {
        black_box(drbg.generate(black_box(8)));
    };
    let (key, message) = ([0x0b; 32], [0xdd; 32]);
    let mac = || {
        black_box(hmac::<Sha256>(black_box(&key), black_box(&message)));
    };

    let (draw, mac, ratio) = median_ratio((20_000, draw), (20_000, mac));
    println!("generate(8) {:.2} µs, HMAC-SHA-256 {:.2} µs: {ratio:.2}×", draw * 1e6, mac * 1e6);
    assert_in_band("an 8-byte HMAC-DRBG draw in HMAC-SHA-256s", ratio, DRAW_PER_HMAC);
}
