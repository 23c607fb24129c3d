//! Known-answer tests for every primitive `kg-crypto` implements from
//! scratch, against published standard vectors — data tables in-tree,
//! no network:
//!
//! * DES: NBS Special Publication 500-20 / FIPS 46-3 validation values
//! * Triple-DES: EDE3 composition and keying-option degeneracies
//! * MD5: the RFC 1321 §A.5 test suite
//! * SHA-1 / SHA-256: FIPS 180 (NIST CAVP) vectors, including the
//!   one-million-'a' extended message
//! * HMAC-DRBG: golden output and state, recorded from the generator that
//!   re-keyed its HMAC for every call
//! * RSA PKCS#1 v1.5: fixed-seed keypairs with pinned moduli and golden
//!   signatures, sign/verify round-trips at 512–1024 bits, and tamper
//!   rejection
//!
//! A from-scratch cipher that merely round-trips can still be wrong in
//! every byte; only external vectors catch a transposed permutation
//! table or a mis-ordered S-box.

use kg_crypto::des::{Des, TripleDes};
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::md5::Md5;
use kg_crypto::rsa::{HashAlg, RsaKeyPair};
use kg_crypto::sha1::Sha1;
use kg_crypto::sha256::Sha256;
use kg_crypto::{BlockCipher, Digest, KeySource};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// DES — FIPS 46-3 / NBS SP 500-20 validation values
// ---------------------------------------------------------------------------

/// `(key, plaintext, ciphertext)` single-block vectors. The first is the
/// worked example every DES description traces end to end; the rest are
/// from the NBS SP 500-20 validation tables (all-zero and all-one keys,
/// sparse keys, and the classic 0123456789ABCDEF exchanges).
const DES_VECTORS: &[(u64, u64, u64)] = &[
    (0x133457799BBCDFF1, 0x0123456789ABCDEF, 0x85E813540F0AB405),
    (0x0000000000000000, 0x0000000000000000, 0x8CA64DE9C1B123A7),
    (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0x7359B2163E4EDC58),
    (0x3000000000000000, 0x1000000000000001, 0x958E6E627A05557B),
    (0x1111111111111111, 0x1111111111111111, 0xF40379AB9E0EC533),
    (0x0123456789ABCDEF, 0x1111111111111111, 0x17668DFC7292532D),
    (0x1111111111111111, 0x0123456789ABCDEF, 0x8A5AE1F81AB8F2DD),
    (0xFEDCBA9876543210, 0x0123456789ABCDEF, 0xED39D950FA74BCC4),
    (0x7CA110454A1A6E57, 0x01A1D6D039776742, 0x690F5B0D9A26939B),
    (0x0131D9619DC1376E, 0x5CD54CA83DEF57DA, 0x7A389D10354BD271),
];

#[test]
fn des_fips_46_3_known_answers() {
    for &(key, plain, cipher) in DES_VECTORS {
        let des = Des::new(&key.to_be_bytes()).expect("8-byte key");
        assert_eq!(
            des.encrypt_u64(plain),
            cipher,
            "DES encrypt mismatch for key {key:016X}, pt {plain:016X}"
        );
        assert_eq!(
            des.decrypt_u64(cipher),
            plain,
            "DES decrypt mismatch for key {key:016X}, ct {cipher:016X}"
        );
    }
}

#[test]
fn des_rivest_iterative_test() {
    // Rivest, "Testing implementations of DES" (1985): X_{i+1} is X_i
    // encrypted (i even) or decrypted (i odd) under X_i itself as the key.
    // Sixteen steps feed every output back in as both key and data, so a
    // fault anywhere in the key schedule or either direction propagates.
    let mut x = 0x9474_B8E8_C73B_CA7Du64;
    for i in 0..16 {
        let des = Des::new(&x.to_be_bytes()).expect("8-byte key");
        x = if i % 2 == 0 { des.encrypt_u64(x) } else { des.decrypt_u64(x) };
    }
    assert_eq!(x, 0x1B1A_2DDB_4C64_2438, "X16 of Rivest's iterative DES test");
}

#[test]
fn des_complementation_property() {
    // FIPS 46-3's structural identity: E_{~K}(~P) == ~E_K(P). A cipher
    // with any mis-wired permutation fails this across random inputs.
    let mut rng = HmacDrbg::from_seed(0xDE5);
    use rand::RngCore;
    for _ in 0..16 {
        let key = rng.next_u64();
        let plain = rng.next_u64();
        let a = Des::new(&key.to_be_bytes()).unwrap().encrypt_u64(plain);
        let b = Des::new(&(!key).to_be_bytes()).unwrap().encrypt_u64(!plain);
        assert_eq!(!a, b, "complementation property violated");
    }
}

#[test]
fn triple_des_with_equal_keys_degenerates_to_des() {
    // FIPS 46-3 keying option 3: K1 = K2 = K3 makes EDE3 a single DES.
    for &(key, plain, cipher) in DES_VECTORS {
        let mut k24 = [0u8; 24];
        for part in k24.chunks_mut(8) {
            part.copy_from_slice(&key.to_be_bytes());
        }
        let tdes = TripleDes::new(&k24).expect("24-byte key");
        let mut block = plain.to_be_bytes();
        tdes.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), cipher, "EDE3(K,K,K) != DES(K)");
        tdes.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), plain);
    }
}

#[test]
fn triple_des_is_ede3_composition() {
    // EDE3 with independent keys must equal E_{K3}(D_{K2}(E_{K1}(P)))
    // computed from the single-DES primitives.
    let k1 = 0x0123456789ABCDEFu64;
    let k2 = 0x23456789ABCDEF01u64;
    let k3 = 0x456789ABCDEF0123u64;
    let mut k24 = Vec::new();
    for k in [k1, k2, k3] {
        k24.extend_from_slice(&k.to_be_bytes());
    }
    let tdes = TripleDes::new(&k24).unwrap();
    for plain in [0u64, 0x0011223344556677, u64::MAX, 0x8000000000000001] {
        let expect = Des::new(&k3.to_be_bytes()).unwrap().encrypt_u64(
            Des::new(&k2.to_be_bytes())
                .unwrap()
                .decrypt_u64(Des::new(&k1.to_be_bytes()).unwrap().encrypt_u64(plain)),
        );
        let mut block = plain.to_be_bytes();
        tdes.encrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), expect);
        tdes.decrypt_block(&mut block);
        assert_eq!(u64::from_be_bytes(block), plain);
    }
}

// ---------------------------------------------------------------------------
// MD5 — RFC 1321 §A.5
// ---------------------------------------------------------------------------

const MD5_SUITE: &[(&str, &str)] = &[
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

#[test]
fn md5_rfc_1321_suite() {
    for (msg, want) in MD5_SUITE {
        assert_eq!(hex(&Md5::digest(msg.as_bytes())), *want, "MD5({msg:?})");
    }
}

#[test]
fn md5_incremental_equals_oneshot() {
    // Feeding byte-by-byte must cross the 64-byte block boundary the
    // same way a single update does.
    let msg = MD5_SUITE.last().unwrap().0.as_bytes();
    let mut h = Md5::new();
    for b in msg {
        h.update(std::slice::from_ref(b));
    }
    assert_eq!(h.finalize(), Md5::digest(msg));
}

// ---------------------------------------------------------------------------
// SHA-1 / SHA-256 — FIPS 180 (NIST CAVP)
// ---------------------------------------------------------------------------

const SHA1_VECTORS: &[(&str, &str)] = &[
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
];

const SHA256_VECTORS: &[(&str, &str)] = &[
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
];

#[test]
fn sha1_fips_180_vectors() {
    for (msg, want) in SHA1_VECTORS {
        assert_eq!(hex(&Sha1::digest(msg.as_bytes())), *want, "SHA-1({msg:?})");
    }
}

#[test]
fn sha256_fips_180_vectors() {
    for (msg, want) in SHA256_VECTORS {
        assert_eq!(hex(&Sha256::digest(msg.as_bytes())), *want, "SHA-256({msg:?})");
    }
}

#[test]
fn sha_million_a_extended_vectors() {
    // FIPS 180's extended message: 1,000,000 repetitions of 'a', fed in
    // uneven chunks to exercise block-boundary handling.
    let chunk = [b'a'; 997];
    let mut s1 = Sha1::new();
    let mut s256 = Sha256::new();
    let mut fed = 0usize;
    while fed < 1_000_000 {
        let take = chunk.len().min(1_000_000 - fed);
        s1.update(&chunk[..take]);
        s256.update(&chunk[..take]);
        fed += take;
    }
    assert_eq!(hex(&s1.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    assert_eq!(
        hex(&s256.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// ---------------------------------------------------------------------------
// HMAC-DRBG — golden values recorded from the uncached generator
// ---------------------------------------------------------------------------

/// The first 64 bytes of `HmacDrbg::from_seed(1)`.
const DRBG_SEED_1_FIRST_64: &str = "63874537429702556009a5cb14f3154321aa42bea097d0264651c83f3d3f5323\
                                    4fa54bf4f1508acf4bb840709b96c97619108b305d21deae04127f1d3a47dc4b";

/// Draw sizes cycled through by the mixed-draw golden: a key, a
/// derivation code, chunks of 8, 32 and 128 DES IVs (as rekey IVs were
/// once drawn), and
/// lengths either side of one HMAC block.
const DRBG_MIXED_LENS: [usize; 11] = [8, 16, 64, 256, 1024, 0, 1, 31, 32, 33, 100];

/// `(K, V)` of `from_seed(1)` after 1,000 draws cycling through
/// [`DRBG_MIXED_LENS`].
const DRBG_MIXED_STATE: (&str, &str) = (
    "a297ddd2702a73829df56ed3adaec13861f959635a653b6d9ed8f1d9747b5df3",
    "3382470f8ae30ca0df296adad79b87d9707a589bb1af8c18324b43584845a34b",
);

/// Every key, IV and derivation code of every recorded run, every
/// snapshot's generator state and every pinned digest downstream come
/// from this stream, so it is pinned here, at its source.
#[test]
fn hmac_drbg_golden_output_and_state() {
    assert_eq!(hex(&HmacDrbg::from_seed(1).generate(64)), DRBG_SEED_1_FIRST_64);
    let mut drbg = HmacDrbg::from_seed(1);
    for i in 0..1000 {
        drbg.generate(DRBG_MIXED_LENS[i % DRBG_MIXED_LENS.len()]);
    }
    let (k, v) = drbg.state();
    assert_eq!((hex(&k).as_str(), hex(&v).as_str()), DRBG_MIXED_STATE);
}

// ---------------------------------------------------------------------------
// RSA PKCS#1 v1.5 — fixed-seed keypair, pinned golden signatures
// ---------------------------------------------------------------------------

/// A keypair generated from a pinned DRBG seed, so the same primes — and
/// therefore the same signatures — come out on every run and every machine.
fn fixed_keypair_of(bits: usize) -> RsaKeyPair {
    let mut rng = HmacDrbg::from_seed(0x5253_4131);
    RsaKeyPair::generate(bits, &mut rng).expect("fixed-seed keygen")
}

/// The keypair every RSA KAT uses: RSA-512, the paper's size.
fn fixed_keypair() -> RsaKeyPair {
    fixed_keypair_of(512)
}

/// The fixed-seed moduli at every width `rsa-bits` is used with. They pin
/// key generation — candidate draws, trial division, the Miller–Rabin
/// witnesses and their order — independently of signing: a server's keypair
/// comes from a seeded generator, so a keygen that consumed the stream
/// differently would change every signature of every recorded run. (Values
/// recorded from the plain-`modpow` key generation.)
const RSA_FIXED_MODULI: &[(usize, &str)] = &[
    (
        512,
        "a1c60067dd70d4ba5a2056f6ff351339dd01e95b9d56942bd7e27127dafa6a43\
         0e0514ea4eb454d241d58740e136934e32a9e3e03df51c31b7d69b5a68fad681",
    ),
    (
        768,
        "c8ba17f6acb281d9fbb000856bb204501da4e5a6d46854f19614a88f970bb505\
         2308f30660bf719807ce588341d851c3279496b03f425de315f169396e31a020\
         c5554c66883396143a5599c151c8a0f883d2e923ba662dbb6d0bbba1917206d1",
    ),
    (
        1024,
        "ba640d6007ce5992038b9756d340812e419fa688bbadcc63a2755b20c205579f\
         1e061074fa6635b3eaa91b7948cb769a3f74b3af3a6361de95db4d0318961909\
         e9b64dff820327efa31e3e05ae24d6f76fa1bb0dedca913c4eb034da9044ba27\
         36104b562cea3015195f1660760c5b21a5c35fa452585d00b74d5ba82e336135",
    ),
];

#[test]
fn rsa_fixed_seed_moduli_and_round_trips_at_every_width() {
    for (bits, want) in RSA_FIXED_MODULI {
        let kp = fixed_keypair_of(*bits);
        assert_eq!(kp.public().modulus().to_hex(), *want, "RSA-{bits} fixed-seed modulus changed");
        for alg in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            let sig = kp.private.sign(alg, RSA_GOLDEN_MSG).expect("sign");
            assert_eq!(sig.len(), bits / 8);
            kp.public().verify(alg, RSA_GOLDEN_MSG, &sig).expect("round trip verifies");
            kp.public()
                .verify(alg, b"attack at dusk", &sig)
                .expect_err("verify must reject a different message");
        }
    }
}

/// Golden signatures over `b"attack at dawn"` under the fixed keypair.
/// These pin the whole pipeline — prime generation, CRT signing, EMSA
/// PKCS#1 v1.5 encoding, and the digest — against regressions.
const RSA_GOLDEN_MSG: &[u8] = b"attack at dawn";
const RSA_GOLDEN: &[(HashAlg, &str)] = &[
    (
        HashAlg::Md5,
        "1eab12cb7438294f36c42032763ec20947f8787f766a1dd88bf8e252bd0579a9\
         1756076c4889833d60f88250b8276fb6c264dbf4acae97d2b49b1ba710a72fca",
    ),
    (
        HashAlg::Sha1,
        "70f5a496bd38adcfb27f6ea8a98fc0920e39a532fa24ddcc11bed8759e7b7440\
         04f2067f78a1428e278746b4866e3549f3b4bcd47c00d304486bf65a6c16d7dd",
    ),
    (
        HashAlg::Sha256,
        "4677390f4e3b006308894f8ee08414f66c06839ceb490a31746432233d82f3b3\
         4cbff73ec99c03b7b75395d8d4c54560db1c6252e79daa2aa89eb9cb78650a0e",
    ),
];

#[test]
fn rsa_pkcs1_v15_golden_signatures() {
    let kp = fixed_keypair();
    for (alg, want) in RSA_GOLDEN {
        let sig = kp.private.sign(*alg, RSA_GOLDEN_MSG).expect("sign");
        assert_eq!(sig.len(), kp.public().modulus_len(), "PKCS#1 signature must be modulus-sized");
        assert_eq!(hex(&sig), *want, "pinned {alg:?} signature changed");
        kp.public().verify(*alg, RSA_GOLDEN_MSG, &sig).expect("golden signature verifies");
    }
}

#[test]
fn rsa_verify_rejects_tampering() {
    let kp = fixed_keypair();
    let sig = kp.private.sign(HashAlg::Sha256, RSA_GOLDEN_MSG).unwrap();

    // Flipped message bit.
    kp.public()
        .verify(HashAlg::Sha256, b"attack at dusk", &sig)
        .expect_err("verify must reject a different message");
    // Flipped signature bit.
    let mut bad = sig.clone();
    bad[10] ^= 0x01;
    kp.public()
        .verify(HashAlg::Sha256, RSA_GOLDEN_MSG, &bad)
        .expect_err("verify must reject a corrupted signature");
    // Wrong digest algorithm.
    kp.public()
        .verify(HashAlg::Sha1, RSA_GOLDEN_MSG, &sig)
        .expect_err("verify must reject an algorithm mismatch");
    // Truncated signature.
    kp.public()
        .verify(HashAlg::Sha256, RSA_GOLDEN_MSG, &sig[1..])
        .expect_err("verify must reject a short signature");
}

#[test]
fn rsa_signatures_are_deterministic_across_instances() {
    // PKCS#1 v1.5 signing is deterministic: two independently generated
    // (same-seed) keypairs must produce bit-identical signatures.
    let a = fixed_keypair().private.sign(HashAlg::Md5, b"xyzzy").unwrap();
    let b = fixed_keypair().private.sign(HashAlg::Md5, b"xyzzy").unwrap();
    assert_eq!(a, b);
}
