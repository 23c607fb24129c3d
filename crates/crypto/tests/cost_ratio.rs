//! Cost-ratio gate: one RSA-512 signature against one DES-CBC key seal,
//! timed in the same process. The paper's argument for signing once per
//! request (§4, Table 4, Figure 10) rests on this ratio: a signature costs
//! about two orders of magnitude more than encrypting a key. Measured here
//! at ≈ 94 (Montgomery RSA, table-driven DES); it was ≈ 129 with plain
//! `BigUint::modpow` and bit-serial DES, and ≈ 11 with Montgomery RSA and
//! bit-serial DES. The gate is a band with at least 2.5× headroom on each
//! side of 94, so a slower signature and a slower cipher both fail it. A
//! ratio of two medians from one run does not depend on the host the way a
//! time does. Run by CI as `cargo test --release -p kg-crypto -- --ignored`.

use kg_crypto::cbc::CbcCipher;
use kg_crypto::des::Des;
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::rsa::{HashAlg, RsaKeyPair};
use kg_crypto::KeySource;
use std::hint::black_box;
use std::time::Instant;

/// The accepted range of sign ÷ seal.
const BAND: std::ops::RangeInclusive<f64> = 35.0..=250.0;

/// Median over nine batches of the mean seconds per call.
fn median_secs_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

#[test]
#[ignore = "a timing; CI runs it in release"]
fn rsa_512_signature_costs_35_to_250_des_cbc_key_seals() {
    let mut drbg = HmacDrbg::from_seed(1);
    let pair = RsaKeyPair::generate(512, &mut drbg).expect("RSA-512 key generation");
    let digest = HashAlg::Md5.hash(b"merkle root of one operation's rekey messages");
    let sign = median_secs_per_call(200, || {
        black_box(pair.private.sign_digest(HashAlg::Md5, black_box(&digest))).expect("sign");
    });

    // What the server does per key it ships: key schedule, then CBC over
    // the 8-byte key (two blocks with padding).
    let (key, iv, payload) = (drbg.generate(8), drbg.generate(8), drbg.generate(8));
    let seal = median_secs_per_call(20_000, || {
        let cipher = CbcCipher::new(Des::new(black_box(&key)).expect("8-byte key"));
        black_box(cipher.encrypt(black_box(&payload), &iv));
    });

    let ratio = sign / seal;
    println!("sign_digest {:.1} µs, DES-CBC seal {:.2} µs: {ratio:.1}×", sign * 1e6, seal * 1e6);
    assert!(
        BAND.contains(&ratio),
        "an RSA-512 signature costs {ratio:.1} DES-CBC key seals (gate: {} to {})",
        BAND.start(),
        BAND.end()
    );
}
