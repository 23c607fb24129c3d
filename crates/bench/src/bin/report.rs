//! Regenerate the paper's evaluation tables and figures.
//!
//! ```text
//! report <artifact>...
//! artifacts: table1 table2 table3 table4 table5 table6
//!            fig10 fig11 fig12 iolus batch cluster trace derived all
//! ```
//!
//! An unknown artifact name is an error (exit code 2), not a silent no-op.
//!
//! Every artifact prints counts and bytes (keys, encryptions, messages,
//! key changes), which are functions of the code and the fixed seeds, so
//! two runs print them byte for byte; `report_counts.txt` is one such run,
//! and CI regenerates it and diffs it whole. Table 4 and Figures 10–11
//! are the exception: their subject is the paper's server time, so they
//! print wall-clock columns and stay out of that file. Absolute times
//! differ from the paper's 1998 SGI Origin 200 numbers; the comparisons
//! (strategy ordering, O(log n) scaling, optimal degree ≈ 4, the
//! Merkle-signing win) are the reproduction targets. See EXPERIMENTS.md
//! for the side-by-side reading, and the canonical benchmark
//! (`src/bin/perf`) for time per layer.

use kg_bench::{
    run, run_batch_comparison, run_cluster_scale, run_derived_costs, run_trace_plane, BatchConfig,
    ClusterBenchConfig, DerivedPhase, ExperimentConfig, TextTable, TraceBenchConfig, SEEDS,
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

/// An artifact's name and the function printing it.
type Artifact = (&'static str, fn());

/// Every artifact, in the order `all` prints them.
const ARTIFACTS: [Artifact; 14] = [
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
    ("cluster", cluster),
    ("trace", trace),
    ("derived", derived),
];

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    format!("usage: report <artifact>...\nartifacts: {} all", names.join(" "))
}

/// The artifact names on the command line (`all` when none is given).
fn parse_args() -> Vec<String> {
    let mut artifacts = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
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
    artifacts
}

fn main() {
    let artifacts = parse_args();
    let all = artifacts.iter().any(|a| a == "all");

    println!("# Key-graphs reproduction report");
    println!("# (paper: n=8192, 1000 requests, 3 seeds, DES-CBC/MD5/RSA-512)\n");

    for (name, artifact) in ARTIFACTS {
        if all || artifacts.iter().any(|a| a == name) {
            artifact();
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

/// Four decimals: the precision the batch and derived rows are compared
/// at, so a per-request mean that moves in its fourth place shows.
fn f4(v: f64) -> String {
    format!("{v:.4}")
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
fn table1() {
    println!("## Table 1 — number of keys (analytical formulas vs live structures)\n");
    let n: u64 = 256;
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
fn table2() {
    println!("## Table 2 — cost of a join/leave (encryptions; formulas vs measured)\n");
    let n: u64 = 256;
    let d = 4u64;
    let cfg = ExperimentConfig {
        n: n as usize,
        degree: d as usize,
        strategy: Strategy::GroupOriented,
        auth: AuthPolicy::None,
        ops: 400,
        seeds: vec![SEEDS[0]],
    };
    let r = run(&cfg);
    // The star's Figures 4 and 2: one member leaves the n-member star, and
    // a newcomer joins the n−1 left behind.
    let mut src = HmacDrbg::from_seed(2);
    let mut star = grown_tree(STAR, n, &mut src);
    let rekeyer = Rekeyer::new(KeyCipher::des_cbc(), 1);
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
fn table3() {
    println!("## Table 3 — average cost per operation (joins:leaves = 1:1)\n");
    let n: u64 = 8192;
    let d = 4u64;
    let cfg = ExperimentConfig {
        n: n as usize,
        degree: d as usize,
        strategy: Strategy::GroupOriented,
        auth: AuthPolicy::None,
        ops: 1000,
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
fn table4() {
    let n = 8192;
    println!("## Table 4 — one signature per message vs one per batch (n={n}, d=4)\n");
    let ops = 200;
    let seeds = SEEDS[..2].to_vec();
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
fn fig10() {
    println!("## Figure 10 — server processing time per request vs group size (d=4)\n");
    let sizes = [32usize, 128, 512, 2048, 8192];
    let ops = 300;
    let seeds = SEEDS[..2].to_vec();
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
fn fig11() {
    println!("## Figure 11 — server processing time vs key tree degree\n");
    let n = 8192;
    let ops = 200;
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
fn table5() {
    println!("## Table 5 — rekey messages sent by the server (with batch signing)\n");
    let n = 8192;
    let ops = 250;
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
            ]);
        }
        println!("{}", t.render());
    }
    println!("(paper shape at d=4: user/key = 7 msgs/join, 19 msgs/leave; group = 1 and 1, with the group-oriented leave message ~d x the join message)\n");
}

/// Table 6: rekey messages received by a client.
fn table6() {
    println!("## Table 6 — rekey messages received by a client (with batch signing)\n");
    let n = 8192;
    let ops = 250;
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
fn fig12() {
    println!("## Figure 12 — key changes by a client per request\n");
    let ops = 200;
    let seeds = vec![SEEDS[0]];

    let n = 8192;
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
    let sizes = [32usize, 128, 512, 2048, 8192];
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

/// Section 6: Iolus comparison.
fn iolus() {
    println!("## Section 6 — key graphs vs Iolus (membership-time vs send-time work)\n");
    let n = 4096;
    // Key-graph side: measured server encryptions per request.
    let kg = run(&ExperimentConfig {
        n,
        degree: 4,
        strategy: Strategy::GroupOriented,
        auth: AuthPolicy::None,
        ops: 400,
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

/// Periodic batch rekeying vs the paper's per-operation protocol, over
/// the same Poisson churn workload.
fn batch() {
    println!("## Batch rekeying — periodic intervals vs per-operation (d=4, group-oriented, 1:1 join/leave Poisson churn)\n");
    let batch_sizes = [1usize, 4, 16, 64];
    let ops = 384;
    println!("### per request, {ops} requests, mean of {} seeds\n", SEEDS.len());
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
    for n in [64usize, 256, 1024, 4096, 16384] {
        for &batch_size in &batch_sizes {
            let cfg =
                BatchConfig { ops, seeds: SEEDS.to_vec(), ..BatchConfig::baseline(n, batch_size) };
            let r = run_batch_comparison(&cfg);
            let per_req = |v: f64| f4(v / ops as f64);
            t.row(vec![
                n.to_string(),
                batch_size.to_string(),
                f4(r.batched.flushes),
                per_req(r.batched.encryptions),
                per_req(r.per_op.encryptions),
                per_req(r.batched.multicasts),
                per_req(r.per_op.multicasts),
                per_req(r.batched.bytes),
                per_req(r.per_op.bytes),
            ]);
        }
    }
    println!("{}", t.render());
    println!("(expected shape: batch=1 pays a small join overhead — a batched join re-keys its whole path where the immediate Figure 7 protocol reuses old ancestor keys; from batch>=4 the consolidated interval marks each shared ancestor once, so encryptions and multicasts per request drop well below per-op and keep falling as the batch grows)\n");
}

/// Cluster: a sharded deployment driven to seven-figure membership on
/// the in-process simulator, with per-shard load.
fn cluster() {
    println!("## Cluster — sharded deployment at scale (d=4, group-oriented, batched intervals)\n");
    let cfg = ClusterBenchConfig {
        shards: 4,
        span: 4,
        members: 1 << 20,
        chunk: 8192,
        churn: 2048,
        seed: 17,
    };
    println!(
        "### One group spanned over {} shards, {} members admitted {} per interval, then {} leave/join pairs\n",
        cfg.span, cfg.members, cfg.chunk, cfg.churn
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
        "group size: {}; router directory: {} members; shutdown ack: members={} wal_tail={}\n",
        r.total_members, r.directory_len, r.shutdown_members, r.shutdown_wal_tail
    );
    println!("(per-slice key trees stay at height log_d(n/span): a million-member group is four ~262k trees, so per-interval rekey cost scales with the slice, not the group — the Iolus §6 decomposition with the router standing in for the GSA hierarchy)\n");
}

/// Telemetry plane: the cluster-wide rekey-cost ledger and trace
/// reassembly.
fn trace() {
    println!("## Telemetry plane — rekey-cost ledger and trace stitching (d=4, sharded)\n");
    let cfg = TraceBenchConfig {
        shards: 4,
        members: 4096,
        churn: 256,
        seed: 23,
        telemetry_interval_ms: 50,
    };
    let r = run_trace_plane(&cfg);

    println!(
        "### Rekey cost totals, aggregated across {} shards ({} members, {} churn pairs per run)\n",
        cfg.shards, cfg.members, cfg.churn
    );
    let mut t = TextTable::new(&[
        "op (strategy:kind)",
        "ops",
        "encryptions",
        "messages",
        "bytes",
        "nodes touched",
        "cache hits",
    ]);
    for row in &r.rows {
        t.row(vec![
            row.op.clone(),
            row.ops.to_string(),
            row.encryptions.to_string(),
            row.messages.to_string(),
            row.bytes.to_string(),
            row.nodes_touched.to_string(),
            row.cache_hits.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(Table 4/5 shape from live counters: user/key pay O(log n) messages per op where group pays O(1); the key-oriented cache-hit column is the Figures 6/8 stored-ciphertext reuse; a batch row counts intervals, each covering many requests)\n");

    println!("### Cross-process trace reassembly (one more group-oriented run)\n");
    let mut t = TextTable::new(&["quantity", "traces"]);
    t.row(vec!["stored".into(), r.traces_stored.to_string()]);
    t.row(vec!["fully stitched".into(), r.traces_stitched.to_string()]);
    t.row(vec!["evicted".into(), r.traces_evicted.to_string()]);
    println!("{}", t.render());
}

/// Client-derived rekeying (`strategy = derived`) vs the paper's shipped
/// strategies: per-op seals, key encryptions, messages and wire bytes at
/// large n.
fn derived() {
    println!(
        "## Client-derived rekeying — server cost vs shipped strategies (d=4, immediate mode)\n"
    );
    let probes = 64;
    println!("### per operation, mean of {probes} probes of each kind\n");
    let mut t =
        TextTable::new(&["n", "strategy", "op", "seals/op", "enc/op", "msgs/op", "bytes/op"]);
    for n in [4096usize, 16384, 65536] {
        for strategy in Strategy::EVERY {
            let r = run_derived_costs(n, probes, SEEDS[0], strategy);
            let phases: [(&str, &DerivedPhase); 3] =
                [("join", &r.join), ("leave", &r.leave), ("refresh", &r.refresh)];
            for (op, p) in phases {
                t.row(vec![
                    n.to_string(),
                    strategy.to_string(),
                    op.into(),
                    f4(p.seals),
                    f4(p.encryptions),
                    f4(p.messages),
                    f4(p.bytes),
                ]);
            }
        }
    }
    println!("{}", t.render());
    println!("(expected shape: derived joins seal exactly 1 bundle and derived refreshes 0 at every n — the members recompute changed keys from the published derivation code — where every shipped strategy's seal count grows with the tree height; derived leaves match group-oriented, since keys the departed member could derive must be shipped instead)\n");
}
