//! Cost-ratio gate: one RSA-512 signature against one DES-CBC key seal,
//! timed in the same process. The paper's argument for signing once per
//! request (§4, Table 4, Figure 10) rests on this ratio, and with plain
//! `BigUint::modpow` most of it was big-integer overhead (≈ 129); on
//! Montgomery arithmetic it is ≈ 11. A ratio of two medians from one run
//! does not depend on the host the way a time does. Run by CI as
//! `cargo test --release -p kg-crypto -- --ignored`.

use kg_crypto::cbc::CbcCipher;
use kg_crypto::des::Des;
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::rsa::{HashAlg, RsaKeyPair};
use kg_crypto::KeySource;
use std::hint::black_box;
use std::time::Instant;

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
fn rsa_512_signature_costs_at_most_40_des_cbc_key_seals() {
    let mut drbg = HmacDrbg::from_seed(1);
    let pair = RsaKeyPair::generate(512, &mut drbg).expect("RSA-512 key generation");
    let digest = HashAlg::Md5.hash(b"merkle root of one operation's rekey messages");
    let sign = median_secs_per_call(200, || {
        black_box(pair.private.sign_digest(HashAlg::Md5, black_box(&digest))).expect("sign");
    });

    // What the server does per key it ships: key schedule, then CBC over
    // the 8-byte key (two blocks with padding).
    let (key, iv, payload) = (drbg.generate(8), drbg.generate(8), drbg.generate(8));
    let seal = median_secs_per_call(2_000, || {
        let cipher = CbcCipher::new(Des::new(black_box(&key)).expect("8-byte key"));
        black_box(cipher.encrypt(black_box(&payload), &iv));
    });

    let ratio = sign / seal;
    println!("sign_digest {:.1} µs, DES-CBC seal {:.2} µs: {ratio:.1}×", sign * 1e6, seal * 1e6);
    assert!(ratio <= 40.0, "an RSA-512 signature costs {ratio:.1} DES-CBC key seals (gate: 40)");
}
