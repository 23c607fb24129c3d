//! Server-side strategy comparison (the left bars of Figure 11): for the
//! same tree and workload, group-oriented should be cheapest on the
//! server, key-oriented second, user-oriented most expensive — the
//! encryption-count ordering h(h+1)/2−1 > 2(h−1) materializing as time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kg_core::ids::UserId;
use kg_core::rekey::Strategy;
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};

fn bench_strategies(c: &mut Criterion) {
    let n = 1024u64;
    let mut g = c.benchmark_group("strategy/join+leave");
    g.sample_size(20);
    for strategy in Strategy::ALL {
        let config =
            ServerConfig::builder().strategy(strategy).auth(AuthPolicy::None).build().unwrap();
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        for i in 0..n {
            server.handle_join(UserId(i)).unwrap();
        }
        let mut next = 1_000_000u64;
        g.bench_with_input(BenchmarkId::from_parameter(strategy.as_str()), &(), |b, _| {
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

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
