//! `churn_server_key`: `GroupKeyServer` alone — no network, no clients —
//! under key-oriented rekeying, the server-heaviest strategy (about 20
//! messages per leave, the widest Merkle tree, the only `BundleCache` hits).

use crate::gen::{Churn, Request};
use crate::probes;
use crate::report::{
    peak_rss_mb, set_server_counts, set_up, Kind, KindCounts, Overhead, Plan, Report, Sample,
};
use crate::trace::Recorder;
use kg_core::ids::UserId;
use kg_core::rekey::Strategy;
use kg_obs::{Obs, ObsConfig};
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use std::hint::black_box;
use std::time::Instant;

/// Full-size group. The build is quadratic in n today, so it is done once
/// per run: at ~9 s a single build already averages over more work than
/// several builds of the other workloads.
pub const GROUP_SIZE: usize = 32_768;
const SMOKE_GROUP_SIZE: usize = 64;

fn build(n: usize) -> Result<GroupKeyServer, String> {
    let config = ServerConfig::builder()
        .strategy(Strategy::KeyOriented)
        .auth(AuthPolicy::SignBatch)
        .seed(1)
        .build()
        .expect("valid server config");
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    // The paper excludes the initial joins from every measurement and
    // populates with authentication off.
    server.set_auth(AuthPolicy::None);
    for u in 1..=n as u64 {
        server.handle_join(UserId(u)).map_err(|e| format!("set-up join of user {u}: {e}"))?;
    }
    server.set_auth(AuthPolicy::SignBatch);
    Ok(server)
}

pub fn run(plan: &Plan, rec: &mut Recorder) -> Result<Report, String> {
    let n = if plan.smoke { SMOKE_GROUP_SIZE } else { GROUP_SIZE };
    let mut report = Report::new(plan);
    report.notes.push(format!(
        "n = {n}, KeyOriented, sign-batch; direct handle_join/handle_leave calls, closed loop, \
         one thread; no network, no clients, no socket"
    ));

    let mut server = set_up(&mut report, plan, 1, || build(n))?;
    if server.group_size() != n {
        return Err("set-up lost members".into());
    }
    // A registry only in the traced run, for the cache hit and miss counters.
    let obs = if plan.trace { Obs::new(ObsConfig::default()) } else { Obs::disabled() };
    server.attach_obs(obs.clone());

    let mut churn = Churn::new(plan.seed, n);
    let mut samples = Vec::new();
    let (mut joins, mut leaves) = (KindCounts::default(), KindCounts::default());
    let mut overhead = Overhead::default();

    let started = Instant::now();
    while started.elapsed().as_secs_f64() < plan.seconds && report.attempted < plan.max_ops {
        let req = churn.next_request();
        let traced = Overhead::begin_op(rec, plan, report.attempted);
        let start = Instant::now();
        let result = rec.span("op", |rec| match req {
            Request::Join(u) => rec.span("server.join", |_| server.handle_join(UserId(u))),
            Request::Leave(u) => rec.span("server.leave", |_| server.handle_leave(UserId(u))),
        });
        let ns = start.elapsed().as_nanos() as u64;
        report.attempted += 1;

        let op = match black_box(result) {
            Ok(op) if !op.encoded.is_empty() => op,
            Ok(_) => {
                report.fail(format!("{req:?}: no rekey packet was encoded"));
                continue;
            }
            Err(e) => {
                report.fail(format!("{req:?}: {e}"));
                continue;
            }
        };
        overhead.add(traced, ns);
        let ms = ns as f64 / 1e6;
        let record = server.stats().records().last().expect("an operation was recorded");
        let encoded_bytes: u64 = op.encoded.iter().map(|f| f.len() as u64).sum();
        if record.total_bytes() != encoded_bytes {
            report.fail(format!("{req:?}: recorded bytes differ from the encoded frames"));
        }
        match req {
            Request::Join(_) => {
                samples.push(Sample { kind: Kind::Join, ms });
                joins.add(record);
            }
            Request::Leave(_) => {
                samples.push(Sample { kind: Kind::Leave, ms });
                leaves.add(record);
            }
        }
        if server.group_size() != churn.members().len() {
            report.fail(format!("{req:?}: group size differs from the generator's membership"));
        }
    }

    report.set_latency_metrics(&samples, 1.0)?;
    report.set("bytes_per_request", (joins.bytes + leaves.bytes) as f64 / report.attempted as f64);
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.notes.push(format!(
        "{} requests measured ({} joins, {} leaves)",
        samples.len(),
        joins.ops,
        leaves.ops
    ));
    if !plan.trace {
        return Ok(report);
    }

    let ms_of = |kind: Kind| -> Vec<f64> {
        samples.iter().filter(|s| s.kind == kind).map(|s| s.ms).collect()
    };
    let (join_ms, leave_ms) = (ms_of(Kind::Join), ms_of(Kind::Leave));
    report.set_percentile("server.join_us_p50", &join_ms, 0.50, 1e3)?;
    report.set_percentile("server.join_us_p99", &join_ms, 0.99, 1e3)?;
    report.set_percentile("server.leave_us_p50", &leave_ms, 0.50, 1e3)?;
    report.set_percentile("server.leave_us_p99", &leave_ms, 0.99, 1e3)?;
    set_server_counts(&mut report, joins, leaves);
    let hits = obs.counter_with("kg_par_cache_total", "result", "hit").get();
    let misses = obs.counter_with("kg_par_cache_total", "result", "miss").get();
    report.set("par.cache_hit_share", hits as f64 / (hits + misses).max(1) as f64);
    report.set_bench_overheads(rec, &overhead);

    probes::server_crypto(&mut report);
    probes::tree(&mut report, plan, n)?;
    if !plan.smoke {
        // What is left of a median operation once the probed parts are taken
        // out: encoding, Merkle digests, bookkeeping. Joins and leaves are 1:1.
        let v = |name: &str| report.values.get(name).copied().unwrap_or(0.0);
        let op_us = (v("server.join_us_p50") + v("server.leave_us_p50")) / 2.0;
        let tree_us = (v("core.tree_join_us_p50") + v("core.tree_leave_us_p50")) / 2.0;
        let seals = (v("server.seals_per_join") + v("server.seals_per_leave")) / 2.0;
        let other = op_us
            - tree_us
            - seals * v("crypto.seal_us")
            - v("server.signatures_per_op") * v("crypto.sign_us");
        report.set("server.other_us", other);
    }
    Ok(report)
}
