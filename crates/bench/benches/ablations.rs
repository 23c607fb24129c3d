//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! * **Merkle batch size** — how the one-signature amortization scales
//!   with the number of rekey messages per operation (Section 4).
//! * **Cipher choice** — DES vs 3DES on the whole join+leave path.
//! * **Digest choice** — MD5 vs SHA-1 vs SHA-256 under batch signing.
//! * **Key-cover solvers** — greedy vs exact on general key graphs
//!   (the NP-hard Section 2 problem that trees sidestep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kg_core::ids::{KeyLabel, UserId};
use kg_core::keygraph::KeyGraph;
use kg_core::merkle::sign_batch;
use kg_core::rekey::{KeyCipher, Strategy};
use kg_crypto::rsa::{HashAlg, RsaKeyPair};
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_merkle_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let kp = RsaKeyPair::generate(512, &mut rng).unwrap();
    let mut g = c.benchmark_group("ablation/merkle-batch-size");
    g.sample_size(20);
    for m in [1usize, 4, 16, 64] {
        let owned: Vec<Vec<u8>> = (0..m).map(|i| vec![i as u8; 300]).collect();
        let msgs: Vec<&[u8]> = owned.iter().map(|v| v.as_slice()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| sign_batch(&kp.private, HashAlg::Md5, &msgs).unwrap())
        });
    }
    g.finish();
}

fn bench_cipher_choice(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/cipher");
    g.sample_size(20);
    for (cipher, name) in [(KeyCipher::DesCbc, "des-cbc"), (KeyCipher::TripleDesCbc, "3des-cbc")] {
        let config = ServerConfig::builder()
            .cipher(cipher)
            .strategy(Strategy::GroupOriented)
            .auth(AuthPolicy::None)
            .build()
            .unwrap();
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        for i in 0..512u64 {
            server.handle_join(UserId(i)).unwrap();
        }
        let mut next = 1_000_000u64;
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| {
                let u = UserId(next);
                next += 1;
                server.handle_join(u).unwrap();
                server.handle_leave(u).unwrap();
            })
        });
    }
    g.finish();
}

fn bench_digest_choice(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/digest-under-batch-signing");
    g.sample_size(20);
    for (digest, name) in
        [(HashAlg::Md5, "md5"), (HashAlg::Sha1, "sha1"), (HashAlg::Sha256, "sha256")]
    {
        let config = ServerConfig::builder()
            .digest(digest)
            .strategy(Strategy::KeyOriented)
            .auth(AuthPolicy::SignBatch)
            .build()
            .unwrap();
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        for i in 0..512u64 {
            server.handle_join(UserId(i)).unwrap();
        }
        let mut next = 1_000_000u64;
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| {
                let u = UserId(next);
                next += 1;
                server.handle_join(u).unwrap();
                server.handle_leave(u).unwrap();
            })
        });
    }
    g.finish();
}

fn bench_key_cover(c: &mut Criterion) {
    // A 3-level, 3-ary key "tree" expressed as a general graph: 27 users.
    let mut graph = KeyGraph::new();
    for u in 0..27u64 {
        graph.add_user_edge(UserId(u), KeyLabel(u));
        let mid = 100 + u / 3;
        let top = 200 + u / 9;
        graph.add_user_edge(UserId(u), KeyLabel(mid));
        graph.add_key_edge(KeyLabel(mid), KeyLabel(top));
        graph.add_key_edge(KeyLabel(top), KeyLabel(300));
    }
    let target: std::collections::BTreeSet<UserId> = (1..27).map(UserId).collect();
    let mut g = c.benchmark_group("ablation/key-cover");
    g.sample_size(20);
    g.bench_function("greedy", |b| b.iter(|| graph.key_cover_greedy(&target).unwrap()));
    g.bench_function("exact", |b| b.iter(|| graph.key_cover_exact(&target).unwrap()));
    g.finish();
}

criterion_group!(
    benches,
    bench_merkle_batch,
    bench_cipher_choice,
    bench_digest_choice,
    bench_key_cover
);
criterion_main!(benches);
