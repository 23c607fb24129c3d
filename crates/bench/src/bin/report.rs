//! Regenerate the paper's evaluation tables and figures.
//!
//! ```text
//! report [--quick] <artifact>...
//! artifacts: table1 table2 table3 table4 table5 table6
//!            fig10 fig11 fig12 iolus batch persist obs
//!            cluster trace derived all
//! ```
//!
//! An unknown artifact name is an error (exit code 2), not a silent no-op.
//!
//! The `batch`, `persist`, `obs`, `cluster`, `trace`, and `derived`
//! artifacts also write machine-readable `BENCH_batch.json`,
//! `BENCH_persist.json`, `BENCH_obs.json`, `BENCH_cluster.json`,
//! `BENCH_trace.json`, and `BENCH_derived.json` to the working directory.
//!
//! `--quick` shrinks group sizes / request counts for a fast smoke run,
//! and writes its artifacts as `BENCH_<name>.quick.json` so a smoke run
//! never clobbers a full run's numbers.
//! Absolute times differ from the paper's 1998 SGI Origin 200 numbers; the
//! comparisons (strategy ordering, O(log n) scaling, optimal degree ≈ 4,
//! the ~10× Merkle-signing win) are the reproduction targets. See
//! EXPERIMENTS.md for the side-by-side reading.

use kg_bench::{
    run, run_batch_comparison, run_derived_costs, run_obs_overhead, run_obs_reconcile,
    run_persist_overhead, run_recovery_curve, run_trace_plane, BatchConfig, ExperimentConfig,
    TextTable, TraceBenchConfig, SEEDS,
};
use kg_core::cost::{self, GraphClass};
use kg_core::ids::UserId;
use kg_core::keygraph::KeyGraph;
use kg_core::rekey::{KeyCipher, Rekeyer, Strategy};
use kg_core::tree::KeyTree;
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::KeySource;
use kg_iolus::IolusSystem;
use kg_server::AuthPolicy;

struct Opts {
    quick: bool,
    artifacts: Vec<String>,
}

/// An artifact's name and the function printing it.
type Artifact = (&'static str, fn(&Opts));

/// Every artifact, in the order `all` prints them.
const ARTIFACTS: [Artifact; 16] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table5", table5),
    ("table6", table6),
    ("fig12", fig12),
    ("iolus", iolus),
    ("batch", batch),
    ("persist", persist),
    ("obs", obs),
    ("cluster", cluster),
    ("trace", trace),
    ("derived", derived),
];

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    format!("usage: report [--quick] <artifact>...\nartifacts: {} all", names.join(" "))
}

fn parse_args() -> Opts {
    let mut quick = false;
    let mut artifacts = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            name if name == "all" || ARTIFACTS.iter().any(|(known, _)| *known == name) => {
                artifacts.push(name.to_string())
            }
            unknown => {
                eprintln!("report: unknown artifact {unknown:?}\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    Opts { quick, artifacts }
}

fn main() {
    let opts = parse_args();
    let all = opts.artifacts.iter().any(|a| a == "all");

    println!("# Key-graphs reproduction report");
    println!(
        "# mode: {}  (paper: n=8192, 1000 requests, 3 seeds, DES-CBC/MD5/RSA-512)\n",
        if opts.quick { "quick" } else { "full" }
    );

    for (name, artifact) in ARTIFACTS {
        if all || opts.artifacts.iter().any(|a| a == name) {
            artifact(&opts);
        }
    }
}

fn f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Format a float for the JSON artifacts (fixed precision, always finite
/// because every measured quantity is a ratio of positive numbers).
fn jf(v: f64) -> String {
    format!("{v:.4}")
}

/// Artifact file name for this run: quick runs write
/// `BENCH_<name>.quick.json` so a smoke run never overwrites the
/// hours-long full run's numbers.
fn artifact_name(opts: &Opts, base: &str) -> String {
    if opts.quick {
        base.replace(".json", ".quick.json")
    } else {
        base.to_string()
    }
}

/// Write a machine-readable artifact next to the report output. Failure
/// is a warning, not an error: the report must still run on a read-only
/// working directory.
fn write_artifact(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("(wrote {path})\n"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// A degree no group reaches: the key tree is the paper's star.
const STAR: usize = u32::MAX as usize;

/// A key tree of degree `d` grown by joining members `0..n`.
fn grown_tree(d: usize, n: u64, src: &mut HmacDrbg) -> KeyTree {
    let mut tree = KeyTree::new(d, 8, src);
    for i in 0..n {
        let ik = src.generate_key(8);
        tree.join(UserId(i), ik, src).unwrap();
    }
    tree
}

/// Table 1: number of keys held by the server and by each user.
fn table1(opts: &Opts) {
    println!("## Table 1 — number of keys (analytical formulas vs live structures)\n");
    let n: u64 = if opts.quick { 64 } else { 256 };
    let d = 4u64;
    // Measure a live tree, a live star, and a live complete graph (small).
    let mut src = HmacDrbg::from_seed(1);
    let tree = grown_tree(d as usize, n, &mut src);
    let star = grown_tree(STAR, n, &mut src);
    let nc = 8u64;
    let complete = KeyGraph::complete((0..nc).map(UserId));

    let mut t = TextTable::new(&[
        "class",
        "total keys (formula)",
        "total keys (measured)",
        "keys/user (formula)",
        "keys/user (measured)",
    ]);
    t.row(vec![
        format!("star (n={n})"),
        cost::server_total_keys(GraphClass::Star, n, 0).to_string(),
        star.key_count().to_string(),
        cost::keys_per_user(GraphClass::Star, n, 0).to_string(),
        star.height().to_string(),
    ]);
    t.row(vec![
        format!("tree (n={n}, d={d})"),
        cost::server_total_keys(GraphClass::Tree, n, d).to_string(),
        tree.key_count().to_string(),
        cost::keys_per_user(GraphClass::Tree, n, d).to_string(),
        tree.height().to_string(),
    ]);
    t.row(vec![
        format!("complete (n={nc})"),
        cost::server_total_keys(GraphClass::Complete, nc, 0).to_string(),
        complete.key_count().to_string(),
        cost::keys_per_user(GraphClass::Complete, nc, 0).to_string(),
        complete.keyset(UserId(0)).len().to_string(),
    ]);
    println!("{}", t.render());
}

/// Table 2: cost of a join/leave operation (star and tree server columns
/// measured live).
fn table2(opts: &Opts) {
    println!("## Table 2 — cost of a join/leave (encryptions; formulas vs measured)\n");
    let n: u64 = if opts.quick { 64 } else { 256 };
    let d = 4u64;
    let cfg = ExperimentConfig {
        n: n as usize,
        degree: d as usize,
        strategy: Strategy::GroupOriented,
        auth: AuthPolicy::None,
        ops: if opts.quick { 100 } else { 400 },
        seeds: vec![SEEDS[0]],
    };
    let r = run(&cfg);
    // The star's Figures 4 and 2: one member leaves the n-member star, and
    // a newcomer joins the n−1 left behind.
    let mut src = HmacDrbg::from_seed(2);
    let mut ivs = HmacDrbg::from_seed(3);
    let mut star = grown_tree(STAR, n, &mut src);
    let mut rekeyer = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
    let ev = star.leave(UserId(0), &mut src).unwrap();
    let star_leave = rekeyer.batch(&ev, Strategy::GroupOriented).ops.key_encryptions;
    let ik = src.generate_key(8);
    let ev = star.join(UserId(n), ik, &mut src).unwrap();
    let star_join = rekeyer.join(&ev, Strategy::GroupOriented).ops.key_encryptions;

    let h = cost::tree_height(n, d);
    let mut t = TextTable::new(&[
        "quantity",
        "star formula",
        "star measured",
        "tree formula",
        "tree measured",
        "complete",
    ]);
    t.row(vec![
        "server/join".into(),
        cost::join_cost_server(GraphClass::Star, n, d).to_string(),
        star_join.to_string(),
        format!("2(h-1) = {}", cost::join_cost_server(GraphClass::Tree, n, d)),
        f(r.join.encryptions_ave),
        format!("2^(n+1), n=8: {}", cost::join_cost_server(GraphClass::Complete, 8, 0)),
    ]);
    t.row(vec![
        "server/leave".into(),
        cost::leave_cost_server(GraphClass::Star, n, d).to_string(),
        star_leave.to_string(),
        format!("d(h-1) = {}", cost::leave_cost_server(GraphClass::Tree, n, d)),
        f(r.leave.encryptions_ave),
        "0".into(),
    ]);
    t.row(vec![
        "requester/join (decryptions)".into(),
        "1".into(),
        "-".into(),
        format!("h-1 = {}", h - 1),
        format!("{}", h - 1),
        "2^n".into(),
    ]);
    t.row(vec![
        "non-requester (decryptions)".into(),
        "1".into(),
        "-".into(),
        format!("d/(d-1) = {}", f(cost::join_cost_nonrequester(GraphClass::Tree, n, d))),
        f(r.client_all.key_changes_per_request),
        "2^(n-1) join / 0 leave".into(),
    ]);
    println!("{}", t.render());
    println!("(star and tree measured use group-oriented rekeying; the measured join cost includes the joiner's unicast copy, per the Figure 7 protocol)\n");
}

/// Table 3: average cost per operation.
fn table3(opts: &Opts) {
    println!("## Table 3 — average cost per operation (joins:leaves = 1:1)\n");
    let n: u64 = if opts.quick { 64 } else { 8192 };
    let d = 4u64;
    let cfg = ExperimentConfig {
        n: n as usize,
        degree: d as usize,
        strategy: Strategy::GroupOriented,
        auth: AuthPolicy::None,
        ops: if opts.quick { 100 } else { 1000 },
        seeds: vec![SEEDS[0]],
    };
    let r = run(&cfg);
    let mut t =
        TextTable::new(&["cost", "star", "tree formula", "tree measured", "complete (n=8)"]);
    t.row(vec![
        "server".into(),
        f(cost::avg_cost_server(GraphClass::Star, n, d)),
        format!("(d+2)(h-1)/2 = {}", f(cost::avg_cost_server(GraphClass::Tree, n, d))),
        f(r.all.encryptions_ave),
        f(cost::avg_cost_server(GraphClass::Complete, 8, 0)),
    ]);
    t.row(vec![
        "a user".into(),
        "1".into(),
        format!("d/(d-1) = {}", f(cost::avg_cost_user(GraphClass::Tree, n, d))),
        f(r.client_all.key_changes_per_request),
        f(cost::avg_cost_user(GraphClass::Complete, 8, 0)),
    ]);
    println!("{}", t.render());
    println!(
        "(optimal degree by the continuous model: {} — the paper's \"around four\")\n",
        cost::optimal_degree(n)
    );
}

/// Table 4: signing technique comparison.
fn table4(opts: &Opts) {
    let n = if opts.quick { 512 } else { 8192 };
    println!("## Table 4 — one signature per message vs one per batch (n={n}, d=4)\n");
    let ops = if opts.quick { 60 } else { 200 };
    let seeds = if opts.quick { vec![SEEDS[0]] } else { SEEDS[..2].to_vec() };
    let mut t = TextTable::new(&[
        "strategy",
        "signing",
        "msg size join",
        "msg size leave",
        "proc ms join",
        "proc ms leave",
        "proc ms ave",
        "proc ms p50",
        "proc ms p99",
    ]);
    for strategy in Strategy::ALL {
        for (auth, name) in
            [(AuthPolicy::SignEach, "per-message"), (AuthPolicy::SignBatch, "batch (Merkle)")]
        {
            let r =
                run(&ExperimentConfig { n, degree: 4, strategy, auth, ops, seeds: seeds.clone() });
            t.row(vec![
                strategy.as_str().into(),
                name.into(),
                f(r.join.msg_size_ave),
                f(r.leave.msg_size_ave),
                f(r.join.proc_ms_ave),
                f(r.leave.proc_ms_ave),
                f((r.join.proc_ms_ave + r.leave.proc_ms_ave) / 2.0),
                f(r.all.proc_ms_p50),
                f(r.all.proc_ms_p99),
            ]);
        }
    }
    println!("{}", t.render());
    println!("(paper, n=8192: key-oriented 140.1 ms per-message vs 14.5 ms batch — a ~10x reduction; group-oriented unaffected at 11.9 ms. p50/p99 are log-bucket histogram estimates over all requests; a p99 far above p50 marks the leave-heavy tail)\n");
}

/// Figure 10: server processing time vs group size.
fn fig10(opts: &Opts) {
    println!("## Figure 10 — server processing time per request vs group size (d=4)\n");
    let sizes: Vec<usize> =
        if opts.quick { vec![32, 128, 512] } else { vec![32, 128, 512, 2048, 8192] };
    let ops = if opts.quick { 100 } else { 300 };
    let seeds = if opts.quick { vec![SEEDS[0]] } else { SEEDS[..2].to_vec() };
    for (auth, label) in [
        (AuthPolicy::None, "encryption only"),
        (AuthPolicy::SignBatch, "encryption + MD5 + RSA-512 (batch signing)"),
    ] {
        println!("### {label}\n");
        let mut t = TextTable::new(&["n", "user (ms)", "key (ms)", "group (ms)"]);
        for &n in &sizes {
            let mut cells = vec![n.to_string()];
            for strategy in Strategy::ALL {
                let r = run(&ExperimentConfig {
                    n,
                    degree: 4,
                    strategy,
                    auth,
                    ops,
                    seeds: seeds.clone(),
                });
                cells.push(f(r.all.proc_ms_ave));
            }
            t.row(cells);
        }
        println!("{}", t.render());
    }
    println!("(expected shape: each column grows ~linearly in log n; group <= key <= user)\n");
}

/// Figure 11: server processing time vs key tree degree.
fn fig11(opts: &Opts) {
    println!("## Figure 11 — server processing time vs key tree degree\n");
    let n = if opts.quick { 512 } else { 8192 };
    let ops = if opts.quick { 100 } else { 200 };
    let seeds = vec![SEEDS[0]];
    let degrees = [2usize, 3, 4, 6, 8, 16];
    for (auth, label) in [
        (AuthPolicy::None, "encryption only"),
        (AuthPolicy::SignBatch, "encryption + MD5 + RSA-512 (batch signing)"),
    ] {
        println!("### {label} (n={n})\n");
        let mut t = TextTable::new(&["d", "user (ms)", "key (ms)", "group (ms)", "enc/op (group)"]);
        for &degree in &degrees {
            let mut cells = vec![degree.to_string()];
            let mut group_enc = 0.0;
            for strategy in Strategy::ALL {
                let r =
                    run(&ExperimentConfig { n, degree, strategy, auth, ops, seeds: seeds.clone() });
                cells.push(f(r.all.proc_ms_ave));
                if strategy == Strategy::GroupOriented {
                    group_enc = r.all.encryptions_ave;
                }
            }
            cells.push(f(group_enc));
            t.row(cells);
        }
        println!("{}", t.render());
    }
    println!("(expected shape: encryption cost minimized around d=4; group <= key <= user)\n");
}

/// Table 5: rekey messages sent by the server.
fn table5(opts: &Opts) {
    println!("## Table 5 — rekey messages sent by the server (with batch signing)\n");
    let n = if opts.quick { 512 } else { 8192 };
    let ops = if opts.quick { 100 } else { 250 };
    let seeds = vec![SEEDS[0]];
    for degree in [4usize, 8, 16] {
        println!("### degree {degree} (n={n})\n");
        let mut t = TextTable::new(&[
            "strategy",
            "join size ave",
            "join min",
            "join max",
            "leave size ave",
            "leave min",
            "leave max",
            "msgs/join",
            "msgs/leave",
            "proc ms p50",
            "proc ms p99",
        ]);
        for strategy in Strategy::ALL {
            let r = run(&ExperimentConfig {
                n,
                degree,
                strategy,
                auth: AuthPolicy::SignBatch,
                ops,
                seeds: seeds.clone(),
            });
            t.row(vec![
                strategy.as_str().into(),
                f(r.join.msg_size_ave),
                r.join.msg_size_min.to_string(),
                r.join.msg_size_max.to_string(),
                f(r.leave.msg_size_ave),
                r.leave.msg_size_min.to_string(),
                r.leave.msg_size_max.to_string(),
                f(r.join.msgs_per_op),
                f(r.leave.msgs_per_op),
                f(r.all.proc_ms_p50),
                f(r.all.proc_ms_p99),
            ]);
        }
        println!("{}", t.render());
    }
    println!("(paper shape at d=4: user/key = 7 msgs/join, 19 msgs/leave; group = 1 and 1, with the group-oriented leave message ~d x the join message. proc percentiles are log-bucket histogram estimates)\n");
}

/// Table 6: rekey messages received by a client.
fn table6(opts: &Opts) {
    println!("## Table 6 — rekey messages received by a client (with batch signing)\n");
    let n = if opts.quick { 512 } else { 8192 };
    let ops = if opts.quick { 100 } else { 250 };
    let seeds = vec![SEEDS[0]];
    for degree in [4usize, 8, 16] {
        println!("### degree {degree} (n={n})\n");
        let mut t =
            TextTable::new(&["strategy", "join size ave", "leave size ave", "msgs/request"]);
        for strategy in Strategy::ALL {
            let r = run(&ExperimentConfig {
                n,
                degree,
                strategy,
                auth: AuthPolicy::SignBatch,
                ops,
                seeds: seeds.clone(),
            });
            t.row(vec![
                strategy.as_str().into(),
                f(r.client_join.msg_size_ave),
                f(r.client_leave.msg_size_ave),
                f(r.client_all.msgs_per_request),
            ]);
        }
        println!("{}", t.render());
    }
    println!("(paper shape: every client receives exactly one message per request; user <= key <= group in received size; group-oriented leave messages grow with d)\n");
}

/// Figure 12: average key changes by a client per request.
fn fig12(opts: &Opts) {
    println!("## Figure 12 — key changes by a client per request\n");
    let ops = if opts.quick { 100 } else { 200 };
    let seeds = vec![SEEDS[0]];

    let n = if opts.quick { 512 } else { 8192 };
    println!("### vs key tree degree (n={n})\n");
    let mut t = TextTable::new(&["d", "measured", "d/(d-1)"]);
    for degree in [2usize, 3, 4, 6, 8, 12, 16] {
        let r = run(&ExperimentConfig {
            n,
            degree,
            strategy: Strategy::GroupOriented,
            auth: AuthPolicy::None,
            ops,
            seeds: seeds.clone(),
        });
        t.row(vec![
            degree.to_string(),
            f(r.client_all.key_changes_per_request),
            f(degree as f64 / (degree as f64 - 1.0)),
        ]);
    }
    println!("{}", t.render());

    println!("### vs initial group size (d=4)\n");
    let sizes: Vec<usize> =
        if opts.quick { vec![32, 128, 512] } else { vec![32, 128, 512, 2048, 8192] };
    let mut t = TextTable::new(&["n", "measured", "d/(d-1)"]);
    for nn in sizes {
        let r = run(&ExperimentConfig {
            n: nn,
            degree: 4,
            strategy: Strategy::GroupOriented,
            auth: AuthPolicy::None,
            ops,
            seeds: seeds.clone(),
        });
        t.row(vec![nn.to_string(), f(r.client_all.key_changes_per_request), f(4.0 / 3.0)]);
    }
    println!("{}", t.render());
    println!("(expected: flat in n, approaching d/(d-1) — the Table 3 user cost)\n");
}

/// Periodic batch rekeying vs the paper's per-operation protocol, over
/// the same Poisson churn workload.
fn batch(opts: &Opts) {
    println!("## Batch rekeying — periodic intervals vs per-operation (d=4, group-oriented, 1:1 join/leave Poisson churn)\n");
    let sizes: Vec<usize> =
        if opts.quick { vec![64, 256] } else { vec![64, 256, 1024, 4096, 16384] };
    let batch_sizes = [1usize, 4, 16, 64];
    let ops = if opts.quick { 96 } else { 384 };
    let seeds = if opts.quick { vec![SEEDS[0]] } else { SEEDS.to_vec() };
    let mut t = TextTable::new(&[
        "n",
        "batch",
        "intervals",
        "enc/req batched",
        "enc/req per-op",
        "mcast/req batched",
        "mcast/req per-op",
        "bytes/req batched",
        "bytes/req per-op",
    ]);
    let mut json_rows = Vec::new();
    for &n in &sizes {
        for &batch_size in &batch_sizes {
            let cfg =
                BatchConfig { ops, seeds: seeds.clone(), ..BatchConfig::baseline(n, batch_size) };
            let r = run_batch_comparison(&cfg);
            let per_req = |v: f64| v / ops as f64;
            t.row(vec![
                n.to_string(),
                batch_size.to_string(),
                format!("{:.0}", r.batched.flushes),
                f(per_req(r.batched.encryptions)),
                f(per_req(r.per_op.encryptions)),
                f(per_req(r.batched.multicasts)),
                f(per_req(r.per_op.multicasts)),
                f(per_req(r.batched.bytes)),
                f(per_req(r.per_op.bytes)),
            ]);
            json_rows.push(format!(
                "    {{\"n\": {n}, \"batch_size\": {batch_size}, \"intervals\": {}, \
                 \"enc_per_req_batched\": {}, \"enc_per_req_per_op\": {}, \
                 \"mcast_per_req_batched\": {}, \"mcast_per_req_per_op\": {}, \
                 \"bytes_per_req_batched\": {}, \"bytes_per_req_per_op\": {}}}",
                jf(r.batched.flushes),
                jf(per_req(r.batched.encryptions)),
                jf(per_req(r.per_op.encryptions)),
                jf(per_req(r.batched.multicasts)),
                jf(per_req(r.per_op.multicasts)),
                jf(per_req(r.batched.bytes)),
                jf(per_req(r.per_op.bytes)),
            ));
        }
    }
    println!("{}", t.render());
    println!("(expected shape: batch=1 pays a small join overhead — a batched join re-keys its whole path where the immediate Figure 7 protocol reuses old ancestor keys; from batch>=4 the consolidated interval marks each shared ancestor once, so encryptions and multicasts per request drop well below per-op and keep falling as the batch grows)\n");
    let json = format!(
        "{{\n  \"artifact\": \"batch\",\n  \"ops\": {ops},\n  \"seeds\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        seeds.len(),
        json_rows.join(",\n"),
    );
    write_artifact(&artifact_name(opts, "BENCH_batch.json"), &json);
}

/// Durability subsystem (`kg-persist`): WAL overhead under each fsync
/// policy, and time-to-recover as a function of log length.
fn persist(opts: &Opts) {
    println!("## Durability — WAL overhead and crash recovery (kg-persist, d=4, group-oriented)\n");
    let n = if opts.quick { 256 } else { 4096 };
    let ops = if opts.quick { 160 } else { 1000 };
    let seed = SEEDS[0];

    println!("### WAL overhead vs fsync policy (n={n}, {ops} requests, snapshots off)\n");
    let rows = run_persist_overhead(n, ops, seed);
    let mut t = TextTable::new(&["fsync policy", "elapsed ms", "ops/sec", "WAL KiB", "slowdown"]);
    for r in &rows {
        t.row(vec![
            r.policy.clone(),
            f(r.elapsed_ms),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.1}", r.wal_bytes as f64 / 1024.0),
            format!("{:.2}x", r.slowdown),
        ]);
    }
    println!("{}", t.render());
    let every_n = rows.iter().find(|r| r.policy == "every-32");
    if let Some(r) = every_n {
        println!("(fsync=every-32 slowdown vs no persistence: {:.2}x — target < 2x)\n", r.slowdown);
    }

    println!(
        "### Recovery time vs log length (n={n}, snapshots off so the full history replays)\n"
    );
    let churn_ops: Vec<usize> =
        if opts.quick { vec![100, 400] } else { vec![250, 1000, 4000, 16000] };
    let curve = run_recovery_curve(n, &churn_ops, seed);
    let mut t = TextTable::new(&["WAL records", "WAL KiB", "recover ms", "ms / 1k records"]);
    for p in &curve {
        t.row(vec![
            p.wal_ops.to_string(),
            format!("{:.1}", p.wal_bytes as f64 / 1024.0),
            f(p.recover_ms),
            f(p.recover_ms * 1000.0 / p.wal_ops as f64),
        ]);
    }
    println!("{}", t.render());
    println!("(expected shape: recovery time grows linearly in log length — which is exactly why snapshots truncate the log; with default thresholds the replayed tail is bounded by snapshot_every_ops)\n");

    let overhead_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"policy\": \"{}\", \"elapsed_ms\": {}, \"ops_per_sec\": {}, \
                 \"wal_bytes\": {}, \"slowdown\": {}}}",
                r.policy,
                jf(r.elapsed_ms),
                jf(r.ops_per_sec),
                r.wal_bytes,
                jf(r.slowdown),
            )
        })
        .collect();
    let recovery_json: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "    {{\"wal_ops\": {}, \"wal_bytes\": {}, \"recover_ms\": {}}}",
                p.wal_ops,
                p.wal_bytes,
                jf(p.recover_ms),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"artifact\": \"persist\",\n  \"n\": {n},\n  \"ops\": {ops},\n  \"seed\": {seed},\n  \
         \"overhead\": [\n{}\n  ],\n  \"recovery\": [\n{}\n  ]\n}}\n",
        overhead_json.join(",\n"),
        recovery_json.join(",\n"),
    );
    write_artifact(&artifact_name(opts, "BENCH_persist.json"), &json);
}

/// Observability layer (`kg-obs`): instrumentation overhead vs a
/// disabled handle, and a counter/WAL reconciliation after a crash.
fn obs(opts: &Opts) {
    println!("## Observability — kg-obs overhead and crash reconciliation (d=4, group-oriented)\n");
    let n = if opts.quick { 256 } else { 2048 };
    let ops = if opts.quick { 400 } else { 1000 };
    let repeats = if opts.quick { 7 } else { 11 };
    let seed = SEEDS[0];

    println!("### Instrumentation overhead (n={n}, {ops} requests, median of {repeats})\n");
    let o = run_obs_overhead(n, ops, seed, repeats);
    let mut t = TextTable::new(&["mode", "elapsed ms", "ops/sec"]);
    t.row(vec![
        "ObsConfig::disabled()".into(),
        f(o.baseline_ms),
        format!("{:.0}", ops as f64 / (o.baseline_ms / 1e3).max(1e-9)),
    ]);
    t.row(vec![
        "enabled (spans+counters+timeline)".into(),
        f(o.observed_ms),
        format!("{:.0}", ops as f64 / (o.observed_ms / 1e3).max(1e-9)),
    ]);
    println!("{}", t.render());
    println!("(overhead: {:+.2}% — target < 5%)\n", o.overhead_pct);

    println!("### What the enabled handle saw\n");
    let mut t = TextTable::new(&["quantity", "value"]);
    t.row(vec!["kg_requests_total (join+leave)".into(), o.requests_total.to_string()]);
    t.row(vec!["kg_encryptions_total".into(), o.encryptions_total.to_string()]);
    t.row(vec![
        "op.join span p50/p99 (us)".into(),
        format!("{} / {}", o.join_span.p50, o.join_span.p99),
    ]);
    t.row(vec![
        "op.leave span p50/p99 (us)".into(),
        format!("{} / {}", o.leave_span.p50, o.leave_span.p99),
    ]);
    t.row(vec!["timeline events".into(), o.timeline_total.to_string()]);
    t.row(vec!["prometheus exposition lines".into(), o.prometheus_lines.to_string()]);
    println!("{}", t.render());

    let rn = if opts.quick { 128 } else { 512 };
    let rops = if opts.quick { 100 } else { 400 };
    println!("### Counter / WAL reconciliation after a crash (n={rn}, {rops} requests)\n");
    let r = run_obs_reconcile(rn, rops, seed);
    let mut t = TextTable::new(&["account", "operations"]);
    t.row(vec!["expected (initial joins + requests)".into(), r.expected_ops.to_string()]);
    t.row(vec!["WalAppend timeline events".into(), r.wal_append_events.to_string()]);
    t.row(vec!["kg_requests_total counter".into(), r.requests_counter.to_string()]);
    t.row(vec!["ServerStats records pushed".into(), r.stats_records.to_string()]);
    t.row(vec!["WAL records replayed on recovery".into(), r.records_replayed.to_string()]);
    println!("{}", t.render());
    println!(
        "(recovered event seen: {}; all accounts {} — the timeline, the metrics registry, the stats vector, and the log on disk agree on what happened)\n",
        r.recovered_event_seen,
        if r.consistent() { "CONSISTENT" } else { "INCONSISTENT" },
    );

    let json = format!(
        "{{\n  \"artifact\": \"obs\",\n  \"n\": {n},\n  \"ops\": {ops},\n  \"seed\": {seed},\n  \
         \"overhead\": {{\"baseline_ms\": {}, \"observed_ms\": {}, \"overhead_pct\": {}, \
         \"requests_total\": {}, \"encryptions_total\": {}, \"timeline_events\": {}, \
         \"prometheus_lines\": {}, \
         \"join_span_us\": {{\"p50\": {}, \"p99\": {}}}, \
         \"leave_span_us\": {{\"p50\": {}, \"p99\": {}}}}},\n  \
         \"reconcile\": {{\"n\": {rn}, \"ops\": {rops}, \"expected_ops\": {}, \
         \"wal_append_events\": {}, \"requests_counter\": {}, \"stats_records\": {}, \
         \"records_replayed\": {}, \"recovered_event_seen\": {}, \"consistent\": {}}}\n}}\n",
        jf(o.baseline_ms),
        jf(o.observed_ms),
        jf(o.overhead_pct),
        o.requests_total,
        o.encryptions_total,
        o.timeline_total,
        o.prometheus_lines,
        o.join_span.p50,
        o.join_span.p99,
        o.leave_span.p50,
        o.leave_span.p99,
        r.expected_ops,
        r.wal_append_events,
        r.requests_counter,
        r.stats_records,
        r.records_replayed,
        r.recovered_event_seen,
        r.consistent(),
    );
    write_artifact(&artifact_name(opts, "BENCH_obs.json"), &json);
}

/// Section 6: Iolus comparison.
fn iolus(opts: &Opts) {
    println!("## Section 6 — key graphs vs Iolus (membership-time vs send-time work)\n");
    let n = if opts.quick { 256 } else { 4096 };
    // Key-graph side: measured server encryptions per request.
    let kg = run(&ExperimentConfig {
        n,
        degree: 4,
        strategy: Strategy::GroupOriented,
        auth: AuthPolicy::None,
        ops: if opts.quick { 100 } else { 400 },
        seeds: vec![SEEDS[0]],
    });
    // Iolus side: a 3-level agent hierarchy sized for n clients.
    let mut src = HmacDrbg::from_seed(4);
    let fanout = 8usize;
    let capacity = n / (fanout * fanout) + 1;
    let mut sys = IolusSystem::new(3, fanout, capacity, KeyCipher::des_cbc(), &mut src);
    for i in 0..n as u64 {
        sys.join(UserId(i), &mut src).unwrap();
    }
    // Measure Iolus join/leave/send costs.
    let jops = sys.join(UserId(900_000), &mut src).unwrap();
    let lops = sys.leave(UserId(0), &mut src).unwrap();
    let msg = sys.send_to_group(UserId(1), b"payload", &mut src).unwrap();

    let mut t = TextTable::new(&["quantity", "key graphs (d=4)", "iolus (8x8 agents)"]);
    t.row(vec![
        "encryptions per join".into(),
        f(kg.join.encryptions_ave),
        jops.encryptions.to_string(),
    ]);
    t.row(vec![
        "encryptions per leave".into(),
        f(kg.leave.encryptions_ave),
        lops.encryptions.to_string(),
    ]);
    t.row(vec![
        "extra work per group message".into(),
        "0 (shared group key)".into(),
        format!(
            "{} agent decrypts + {} re-encrypts",
            msg.ops.agent_decryptions, msg.ops.encryptions
        ),
    ]);
    t.row(vec![
        "trusted entities".into(),
        "1 (the key server)".into(),
        sys.agent_count().to_string(),
    ]);
    println!("{}", t.render());
    println!("(the paper's point: both are O(log n)-ish at membership time, but Iolus moves the '1 affects n' work onto every data message and multiplies the trust surface)\n");
}

/// Cluster: a sharded deployment driven to seven-figure membership on
/// the in-process simulator, with per-shard and aggregated load.
fn cluster(opts: &Opts) {
    use kg_bench::{run_cluster_scale, ClusterBenchConfig};
    println!("## Cluster — sharded deployment at scale (d=4, group-oriented, batched intervals)\n");
    let cfg = if opts.quick {
        ClusterBenchConfig {
            shards: 4,
            span: 4,
            members: 16_384,
            chunk: 2048,
            churn: 256,
            seed: 17,
        }
    } else {
        ClusterBenchConfig {
            shards: 4,
            span: 4,
            members: 1 << 20,
            chunk: 8192,
            churn: 2048,
            seed: 17,
        }
    };
    println!(
        "### One group spanned over {} shards, {} members admitted {} per interval\n",
        cfg.span, cfg.members, cfg.chunk
    );
    let r = run_cluster_scale(&cfg);

    let mut t = TextTable::new(&["shard", "members", "intervals", "requests", "encryptions"]);
    for s in &r.shards {
        t.row(vec![
            s.shard.to_string(),
            s.members.to_string(),
            s.intervals.to_string(),
            s.requests.to_string(),
            s.encryptions.to_string(),
        ]);
    }
    t.row(vec![
        "total".into(),
        r.shards.iter().map(|s| s.members).sum::<u64>().to_string(),
        r.shards.iter().map(|s| s.intervals).sum::<u64>().to_string(),
        r.shards.iter().map(|s| s.requests).sum::<u64>().to_string(),
        r.shards.iter().map(|s| s.encryptions).sum::<u64>().to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "build: {} members in {:.1}s ({:.0} joins/sec); churn of {} leave/join pairs in {:.1}s",
        cfg.members, r.build_secs, r.joins_per_sec, cfg.churn, r.churn_secs
    );
    println!(
        "router directory: {} members; shutdown ack: members={} wal_tail={}\n",
        r.directory_len, r.shutdown_members, r.shutdown_wal_tail
    );
    println!("(per-slice key trees stay at height log_d(n/span): a million-member group is four ~262k trees, so per-interval rekey cost scales with the slice, not the group — the Iolus §6 decomposition with the router standing in for the GSA hierarchy)\n");

    let counters_json = |cs: &[(String, u64)], indent: &str| -> String {
        cs.iter()
            .map(|(k, v)| {
                // Rendered counter names carry label quotes: foo{l="x"}.
                let k = k.replace('\\', "\\\\").replace('"', "\\\"");
                format!("{indent}{{\"name\": \"{k}\", \"value\": {v}}}")
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let shards_json: Vec<String> = r
        .shards
        .iter()
        .map(|s| {
            format!(
                "    {{\"shard\": {}, \"members\": {}, \"intervals\": {}, \"requests\": {}, \
                 \"encryptions\": {}, \"counters\": [\n{}\n    ]}}",
                s.shard,
                s.members,
                s.intervals,
                s.requests,
                s.encryptions,
                counters_json(&s.counters, "      ")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"config\": {{\"shards\": {}, \"span\": {}, \"members\": {}, \"chunk\": {}, \
         \"churn\": {}, \"seed\": {}}},\n  \"build_secs\": {},\n  \"joins_per_sec\": {},\n  \
         \"churn_secs\": {},\n  \"total_members\": {},\n  \"directory_len\": {},\n  \
         \"shutdown\": {{\"members\": {}, \"wal_tail\": {}}},\n  \"shards\": [\n{}\n  ],\n  \
         \"aggregated\": [\n{}\n  ],\n  \"router\": [\n{}\n  ]\n}}\n",
        cfg.shards,
        cfg.span,
        cfg.members,
        cfg.chunk,
        cfg.churn,
        cfg.seed,
        jf(r.build_secs),
        jf(r.joins_per_sec),
        jf(r.churn_secs),
        r.total_members,
        r.directory_len,
        r.shutdown_members,
        r.shutdown_wal_tail,
        shards_json.join(",\n"),
        counters_json(&r.aggregated, "    "),
        counters_json(&r.router_counters, "    "),
    );
    write_artifact(&artifact_name(opts, "BENCH_cluster.json"), &json);
}

/// Telemetry plane: the cluster-wide per-op rekey-cost ledger, trace
/// reassembly health, and the price of running the plane at all.
fn trace(opts: &Opts) {
    println!(
        "## Telemetry plane — rekey-cost ledger, trace stitching, and overhead (d=4, sharded)\n"
    );
    let cfg = if opts.quick {
        TraceBenchConfig {
            shards: 2,
            members: 128,
            churn: 16,
            reps: 3,
            seed: 23,
            telemetry_interval_ms: 50,
        }
    } else {
        TraceBenchConfig {
            shards: 4,
            members: 4096,
            churn: 256,
            reps: 7,
            seed: 23,
            telemetry_interval_ms: 50,
        }
    };
    let r = run_trace_plane(&cfg);

    println!(
        "### Per-op rekey cost, aggregated across {} shards ({} members, {} churn pairs per run)\n",
        cfg.shards, cfg.members, cfg.churn
    );
    let mut t = TextTable::new(&[
        "op (strategy:kind)",
        "ops",
        "enc/op",
        "msgs/op",
        "bytes/op",
        "nodes/op",
        "cache hits/op",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.op.clone(),
            row.ops.to_string(),
            f(row.per_op(row.encryptions)),
            f(row.per_op(row.messages)),
            format!("{:.0}", row.per_op(row.bytes)),
            f(row.per_op(row.nodes_touched)),
            f(row.per_op(row.cache_hits)),
        ]);
    }
    println!("{}", t.render());
    println!("(Table 4/5 shape from live counters: user/key pay O(log n) messages per op where group pays O(1); the key-oriented cache-hit column is the Figures 6/8 stored-ciphertext reuse; batch rows amortize the interval over its requests)\n");

    println!("### Cross-process trace reassembly\n");
    let mut t = TextTable::new(&["quantity", "value"]);
    t.row(vec!["traces stored".into(), r.traces_stored.to_string()]);
    t.row(vec!["fully stitched".into(), r.traces_stitched.to_string()]);
    if let Some(s) = &r.sample {
        t.row(vec!["sample spans".into(), s.spans.to_string()]);
        t.row(vec!["sample hops".into(), s.hops.to_string()]);
        t.row(vec!["router-observed window (us)".into(), s.router_window_us.to_string()]);
        t.row(vec!["node-internal window (us)".into(), s.node_window_us.to_string()]);
    }
    println!("{}", t.render());
    if let Some(s) = &r.sample {
        println!("sample trace:\n{}", s.rendered);
    }

    println!("### Plane overhead (median of {} interleaved repeats)\n", cfg.reps);
    let mut t = TextTable::new(&["mode", "elapsed ms"]);
    t.row(vec!["tracing + telemetry off".into(), f(r.baseline_ms)]);
    t.row(vec!["tracing + telemetry on".into(), f(r.traced_ms)]);
    println!("{}", t.render());
    println!("(overhead: {:+.2}% — target < 5%)\n", r.overhead_pct);

    let rows_json: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"op\": \"{}\", \"ops\": {}, \"encryptions\": {}, \"messages\": {}, \
                 \"bytes\": {}, \"nodes_touched\": {}, \"cache_hits\": {}, \
                 \"enc_per_op\": {}, \"msgs_per_op\": {}, \"bytes_per_op\": {}}}",
                row.op,
                row.ops,
                row.encryptions,
                row.messages,
                row.bytes,
                row.nodes_touched,
                row.cache_hits,
                jf(row.per_op(row.encryptions)),
                jf(row.per_op(row.messages)),
                jf(row.per_op(row.bytes)),
            )
        })
        .collect();
    let sample_json = match &r.sample {
        Some(s) => format!(
            "{{\"trace_id\": {}, \"spans\": {}, \"hops\": {}, \"router_window_us\": {}, \
             \"node_window_us\": {}}}",
            s.trace_id, s.spans, s.hops, s.router_window_us, s.node_window_us
        ),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"artifact\": \"trace\",\n  \"config\": {{\"shards\": {}, \"members\": {}, \
         \"churn\": {}, \"reps\": {}, \"seed\": {}, \"telemetry_interval_ms\": {}}},\n  \
         \"ledger\": [\n{}\n  ],\n  \"traces\": {{\"stored\": {}, \"stitched\": {}, \
         \"sample\": {}}},\n  \"overhead\": {{\"baseline_ms\": {}, \"traced_ms\": {}, \
         \"overhead_pct\": {}}}\n}}\n",
        cfg.shards,
        cfg.members,
        cfg.churn,
        cfg.reps,
        cfg.seed,
        cfg.telemetry_interval_ms,
        rows_json.join(",\n"),
        r.traces_stored,
        r.traces_stitched,
        sample_json,
        jf(r.baseline_ms),
        jf(r.traced_ms),
        jf(r.overhead_pct),
    );
    write_artifact(&artifact_name(opts, "BENCH_trace.json"), &json);
}

/// Client-derived rekeying (`strategy = derived`) vs the paper's shipped
/// strategies: per-op seals, key encryptions, and wire bytes at large n.
fn derived(opts: &Opts) {
    println!(
        "## Client-derived rekeying — server cost vs shipped strategies (d=4, immediate mode)\n"
    );
    let sizes: Vec<usize> = if opts.quick { vec![256, 1024] } else { vec![4096, 16384, 65536] };
    let probes = if opts.quick { 16 } else { 64 };
    let seed = SEEDS[0];
    let mut t = TextTable::new(&[
        "n",
        "strategy",
        "join seals",
        "join encs",
        "join bytes",
        "leave seals",
        "leave encs",
        "leave bytes",
        "refresh seals",
        "refresh bytes",
    ]);
    let mut json_rows = Vec::new();
    for &n in &sizes {
        for strategy in Strategy::EVERY {
            let r = run_derived_costs(n, probes, seed, strategy);
            t.row(vec![
                n.to_string(),
                strategy.to_string(),
                f(r.join.seals),
                f(r.join.encryptions),
                f(r.join.bytes),
                f(r.leave.seals),
                f(r.leave.encryptions),
                f(r.leave.bytes),
                f(r.refresh.seals),
                f(r.refresh.bytes),
            ]);
            let phase = |p: &kg_bench::DerivedPhase| {
                format!(
                    "{{\"seals_per_op\": {}, \"enc_per_op\": {}, \"msgs_per_op\": {}, \
                     \"bytes_per_op\": {}}}",
                    jf(p.seals),
                    jf(p.encryptions),
                    jf(p.messages),
                    jf(p.bytes),
                )
            };
            json_rows.push(format!(
                "    {{\"n\": {n}, \"strategy\": \"{strategy}\", \"join\": {}, \
                 \"leave\": {}, \"refresh\": {}}}",
                phase(&r.join),
                phase(&r.leave),
                phase(&r.refresh),
            ));
        }
    }
    println!("{}", t.render());
    println!("(expected shape: derived joins seal exactly 1 bundle and derived refreshes 0 at every n — the members recompute changed keys from the published derivation code — where every shipped strategy's seal count grows with the tree height; derived leaves match group-oriented, since keys the departed member could derive must be shipped instead)\n");
    let json = format!(
        "{{\n  \"artifact\": \"derived\",\n  \"probes\": {probes},\n  \"seed\": {seed},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
    );
    write_artifact(&artifact_name(opts, "BENCH_derived.json"), &json);
}
