//! Direct probes of the layers only reachable from inside the server or a
//! client (`kg-core`, `kg-crypto`), on the inputs the workloads produce: a
//! standalone `KeyTree` driven by the same request sequence, and unit calls
//! of the primitives at the default configuration's sizes (8-byte DES keys,
//! one key per sealed bundle, MD5, RSA-512). Traced runs only.

use crate::gen::{Churn, Request};
use crate::report::{Plan, Report};
use crate::stats::median;
use kg_core::derive::derive_key;
use kg_core::ids::{KeyLabel, KeyVersion, UserId};
use kg_core::rekey::KeyCipher;
use kg_core::tree::KeyTree;
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::md5::Md5;
use kg_crypto::rsa::{HashAlg, RsaKeyPair};
use kg_crypto::{KeySource, SymmetricKey};
use std::hint::black_box;
use std::time::Instant;

/// Requests replayed against the standalone tree after it is built.
const TREE_PROBE_OPS: usize = 2000;

/// Microseconds per call of `f`: the median over 9 batches, each sized to
/// last about `batch_ms` milliseconds.
fn us_per_call(batch_ms: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once_ns = start.elapsed().as_nanos().max(1) as f64;
    let iters = ((batch_ms * 1e6 / once_ns) as u64).clamp(1, 100_000);
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / 1e3 / iters as f64
        })
        .collect();
    median(&batches).expect("nine batches")
}

fn sealing_inputs() -> (KeyCipher, SymmetricKey, Vec<u8>, Vec<u8>) {
    let cipher = KeyCipher::des_cbc();
    let mut drbg = HmacDrbg::from_seed(1);
    let key = drbg.generate_key(cipher.key_len());
    let iv = drbg.generate(cipher.block_len());
    let payload = drbg.generate(cipher.key_len());
    (cipher, key, iv, payload)
}

fn rsa_inputs() -> (RsaKeyPair, Vec<u8>) {
    let mut drbg = HmacDrbg::from_seed(1);
    let pair = RsaKeyPair::generate(512, &mut drbg).expect("RSA-512 key generation");
    (pair, Md5::oneshot(b"merkle root of one operation's rekey messages").to_vec())
}

/// What a client pays per packet: one signature check, and per bundle it
/// holds the key for, one decryption (or, derived, one HMAC derivation).
pub fn client_crypto(report: &mut Report, derived: bool) {
    let (pair, digest) = rsa_inputs();
    let signature = pair.private.sign_digest(HashAlg::Md5, &digest).expect("sign");
    report.set(
        "crypto.verify_us",
        us_per_call(5.0, || {
            black_box(pair.public().verify_digest(HashAlg::Md5, black_box(&digest), &signature))
                .expect("signature verifies");
        }),
    );
    let (cipher, key, iv, payload) = sealing_inputs();
    let sealed = cipher.encrypt(&key, &iv, &payload);
    report.set(
        "crypto.unseal_us",
        us_per_call(2.0, || {
            black_box(cipher.decrypt(black_box(&key), &iv, &sealed)).expect("bundle decrypts");
        }),
    );
    if derived {
        let code = [7u8; kg_core::derive::DERIVATION_CODE_LEN];
        report.set(
            "crypto.derive_us",
            us_per_call(2.0, || {
                black_box(derive_key(
                    black_box(&key),
                    &code,
                    KeyLabel(42),
                    KeyVersion(3),
                    cipher.key_len(),
                ));
            }),
        );
    }
}

/// What the server pays per operation: one signature, one seal per bundle,
/// and MD5 over every encoded message.
pub fn server_crypto(report: &mut Report) {
    let (pair, digest) = rsa_inputs();
    report.set(
        "crypto.sign_us",
        us_per_call(20.0, || {
            black_box(pair.private.sign_digest(HashAlg::Md5, black_box(&digest))).expect("sign");
        }),
    );
    let (cipher, key, iv, payload) = sealing_inputs();
    report.set(
        "crypto.seal_us",
        us_per_call(2.0, || {
            black_box(cipher.encrypt(black_box(&key), &iv, &payload));
        }),
    );
    let kib = vec![0xA5u8; 1024];
    report.set(
        "crypto.digest_us_per_kb",
        us_per_call(2.0, || {
            black_box(Md5::oneshot(black_box(&kib)));
        }),
    );
}

/// `kg-core` alone: build a degree-4 tree of `n` members, then replay the
/// head of the workload's request sequence against it.
pub fn tree(report: &mut Report, plan: &Plan, n: usize) -> Result<(), String> {
    let key_len = KeyCipher::des_cbc().key_len();
    let mut drbg = HmacDrbg::from_seed(1);
    let start = Instant::now();
    let mut tree = KeyTree::new(4, key_len, &mut drbg);
    for u in 1..=n as u64 {
        let ik = drbg.generate_key(key_len);
        tree.join(UserId(u), ik, &mut drbg).map_err(|e| format!("tree probe join: {e}"))?;
    }
    report.set("core.tree_build_s", start.elapsed().as_secs_f64());

    let mut churn = Churn::new(plan.seed, n);
    let (mut join_us, mut leave_us) = (Vec::new(), Vec::new());
    for _ in 0..TREE_PROBE_OPS.min(plan.max_ops as usize) {
        match churn.next_request() {
            Request::Join(u) => {
                let ik = drbg.generate_key(key_len);
                let start = Instant::now();
                let event = tree.join(UserId(u), ik, &mut drbg);
                join_us.push(start.elapsed().as_nanos() as f64 / 1e3);
                black_box(event).map_err(|e| format!("tree probe join: {e}"))?;
            }
            Request::Leave(u) => {
                let start = Instant::now();
                let event = tree.leave(UserId(u), &mut drbg);
                leave_us.push(start.elapsed().as_nanos() as f64 / 1e3);
                black_box(event).map_err(|e| format!("tree probe leave: {e}"))?;
            }
        }
    }
    if tree.user_count() != churn.members().len() {
        return Err("tree probe lost track of the membership".into());
    }
    report.set_percentile("core.tree_join_us_p50", &join_us, 0.50, 1.0)?;
    report.set_percentile("core.tree_leave_us_p50", &leave_us, 0.50, 1.0)
}
