//! The experiment harness: run a configuration over the paper's workload
//! and collect both server-side and client-side statistics.
//!
//! Server-side numbers (processing time, message counts/sizes, encryption
//! counts) come straight from [`kg_server::ServerStats`]. Client-side
//! numbers (Table 6, Figure 12) are computed *analytically from the
//! packets and the tree*: a member receives exactly the packets whose
//! recipient set contains it, and installs exactly the new keys on its own
//! path. The `kg-client` tests verify, with real clients, that actual
//! processing produces these exact counts; the harness uses the closed
//! form so that 8192-client experiments don't require 8192 live decrypting
//! state machines per run.

use crate::workload::{Request, Workload, SEEDS};
use kg_core::rekey::{Recipients, Strategy};
use kg_server::{AccessControl, Aggregate, AuthPolicy, GroupKeyServer, ServerConfig};
use kg_wire::OpKind;

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Initial group size n.
    pub n: usize,
    /// Key tree degree d.
    pub degree: usize,
    /// Rekeying strategy.
    pub strategy: Strategy,
    /// Authentication policy.
    pub auth: AuthPolicy,
    /// Number of measured join/leave requests.
    pub ops: usize,
    /// Workload seeds (averaged over; the paper used three).
    pub seeds: Vec<u64>,
}

impl ExperimentConfig {
    /// The paper's baseline configuration for a given (n, strategy).
    pub fn paper(n: usize, strategy: Strategy, auth: AuthPolicy) -> Self {
        ExperimentConfig { n, degree: 4, strategy, auth, ops: 1000, seeds: SEEDS.to_vec() }
    }
}

/// Client-side aggregates for one op kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientSide {
    /// Mean rekey-message bytes received by a client, per request.
    pub msg_size_ave: f64,
    /// Mean number of rekey messages received by a client, per request.
    pub msgs_per_request: f64,
    /// Mean key changes per client per request (Figure 12).
    pub key_changes_per_request: f64,
}

/// Everything one experiment produces.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The configuration that was run.
    pub config: ExperimentConfig,
    /// Server aggregate over joins only.
    pub join: Aggregate,
    /// Server aggregate over leaves only.
    pub leave: Aggregate,
    /// Server aggregate over all requests.
    pub all: Aggregate,
    /// Client-side aggregates for joins.
    pub client_join: ClientSide,
    /// Client-side aggregates for leaves.
    pub client_leave: ClientSide,
    /// Client-side aggregates over all requests.
    pub client_all: ClientSide,
}

/// Run one experiment (averaging over the config's seeds).
pub fn run(config: &ExperimentConfig) -> ExperimentResult {
    let mut join_aggs = Vec::new();
    let mut leave_aggs = Vec::new();
    let mut all_aggs = Vec::new();
    let mut cj = Vec::new();
    let mut cl = Vec::new();
    let mut ca = Vec::new();
    for &seed in &config.seeds {
        let (server_stats, client) = run_once(config, seed);
        if let Some(a) = server_stats.0 {
            join_aggs.push(a);
        }
        if let Some(a) = server_stats.1 {
            leave_aggs.push(a);
        }
        if let Some(a) = server_stats.2 {
            all_aggs.push(a);
        }
        cj.push(client.0);
        cl.push(client.1);
        ca.push(client.2);
    }
    ExperimentResult {
        config: config.clone(),
        join: mean_agg(&join_aggs),
        leave: mean_agg(&leave_aggs),
        all: mean_agg(&all_aggs),
        client_join: mean_client(&cj),
        client_leave: mean_client(&cl),
        client_all: mean_client(&ca),
    }
}

type SeedServerStats = (Option<Aggregate>, Option<Aggregate>, Option<Aggregate>);

fn run_once(
    config: &ExperimentConfig,
    seed: u64,
) -> (SeedServerStats, (ClientSide, ClientSide, ClientSide)) {
    let workload = Workload::generate(config.n, config.ops, seed);
    let server_config = ServerConfig::builder()
        .degree(config.degree)
        .strategy(config.strategy)
        .auth(config.auth)
        .seed(seed)
        .build()
        .expect("valid bench config");
    let mut server = GroupKeyServer::new(server_config, AccessControl::AllowAll);
    // Build the initial tree with authentication off — the paper's tables
    // exclude the n initial joins, and signing them would only slow the
    // sweep down (the RSA keypair is still generated above when needed).
    server.set_auth(AuthPolicy::None);
    for &u in &workload.initial {
        server.handle_join(u).expect("initial join");
    }
    server.set_auth(config.auth);
    server.reset_stats();

    // Client-side accumulators.
    let mut acc = [ClientAccum::default(); 2]; // [join, leave]
    for req in &workload.requests {
        let (op, kind) = match *req {
            Request::Join(u) => (server.handle_join(u).expect("join"), 0usize),
            Request::Leave(u) => (server.handle_leave(u).expect("leave"), 1usize),
        };
        let members = server.group_size() as f64;
        if members == 0.0 {
            continue;
        }
        let a = &mut acc[kind];
        a.requests += 1.0;
        a.members += members;
        for (p, bytes) in op.packets.iter().zip(&op.encoded) {
            let recipients = server.tree().resolve(&p.recipients).len() as f64;
            a.msgs_received += recipients;
            a.bytes_received += recipients * bytes.len() as f64;
        }
        // Exact key-change count: every member below a changed node
        // installs that node's new key. The changed nodes' labels are the
        // targets of the op's bundles; dedupe and count usersets.
        let mut labels = std::collections::BTreeSet::new();
        for p in &op.packets {
            for b in &p.bundles {
                for t in &b.targets {
                    labels.insert(t.label);
                }
            }
        }
        for l in labels {
            a.key_changes += server.tree().userset(l).len() as f64;
        }
    }
    let join_stats = server.stats().aggregate(Some(OpKind::Join));
    let leave_stats = server.stats().aggregate(Some(OpKind::Leave));
    let all_stats = server.stats().aggregate(None);
    let client_join = acc[0].finish();
    let client_leave = acc[1].finish();
    let client_all = ClientAccum {
        requests: acc[0].requests + acc[1].requests,
        members: acc[0].members + acc[1].members,
        msgs_received: acc[0].msgs_received + acc[1].msgs_received,
        bytes_received: acc[0].bytes_received + acc[1].bytes_received,
        key_changes: acc[0].key_changes + acc[1].key_changes,
    }
    .finish();
    ((join_stats, leave_stats, all_stats), (client_join, client_leave, client_all))
}

#[derive(Debug, Clone, Copy, Default)]
struct ClientAccum {
    requests: f64,
    members: f64,
    msgs_received: f64,
    bytes_received: f64,
    key_changes: f64,
}

impl ClientAccum {
    fn finish(self) -> ClientSide {
        if self.requests == 0.0 || self.msgs_received == 0.0 {
            return ClientSide::default();
        }
        let avg_members = self.members / self.requests;
        ClientSide {
            msg_size_ave: self.bytes_received / self.msgs_received,
            msgs_per_request: self.msgs_received / self.requests / avg_members,
            key_changes_per_request: self.key_changes / self.requests / avg_members,
        }
    }
}

fn mean_agg(aggs: &[Aggregate]) -> Aggregate {
    if aggs.is_empty() {
        return Aggregate {
            ops: 0,
            requests: 0,
            msg_size_ave: 0.0,
            msg_size_min: 0,
            msg_size_max: 0,
            msgs_per_op: 0.0,
            proc_ms_ave: 0.0,
            proc_ms_p50: 0.0,
            proc_ms_p99: 0.0,
            encryptions_ave: 0.0,
            signatures_ave: 0.0,
        };
    }
    let n = aggs.len() as f64;
    Aggregate {
        ops: aggs.iter().map(|a| a.ops).sum(),
        requests: aggs.iter().map(|a| a.requests).sum(),
        msg_size_ave: aggs.iter().map(|a| a.msg_size_ave).sum::<f64>() / n,
        msg_size_min: aggs.iter().map(|a| a.msg_size_min).min().unwrap_or(0),
        msg_size_max: aggs.iter().map(|a| a.msg_size_max).max().unwrap_or(0),
        msgs_per_op: aggs.iter().map(|a| a.msgs_per_op).sum::<f64>() / n,
        proc_ms_ave: aggs.iter().map(|a| a.proc_ms_ave).sum::<f64>() / n,
        proc_ms_p50: aggs.iter().map(|a| a.proc_ms_p50).sum::<f64>() / n,
        proc_ms_p99: aggs.iter().map(|a| a.proc_ms_p99).sum::<f64>() / n,
        encryptions_ave: aggs.iter().map(|a| a.encryptions_ave).sum::<f64>() / n,
        signatures_ave: aggs.iter().map(|a| a.signatures_ave).sum::<f64>() / n,
    }
}

fn mean_client(cs: &[ClientSide]) -> ClientSide {
    if cs.is_empty() {
        return ClientSide::default();
    }
    let n = cs.len() as f64;
    ClientSide {
        msg_size_ave: cs.iter().map(|c| c.msg_size_ave).sum::<f64>() / n,
        msgs_per_request: cs.iter().map(|c| c.msgs_per_request).sum::<f64>() / n,
        key_changes_per_request: cs.iter().map(|c| c.key_changes_per_request).sum::<f64>() / n,
    }
}

/// One batched-vs-per-operation experiment configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Initial group size n.
    pub n: usize,
    /// Key tree degree d.
    pub degree: usize,
    /// Rekeying strategy.
    pub strategy: Strategy,
    /// Requests collected per rekey interval (1 = flush on every request).
    pub batch_size: usize,
    /// Number of measured join/leave requests.
    pub ops: usize,
    /// Mean Poisson inter-arrival time in milliseconds (churn intensity).
    pub mean_interarrival_ms: f64,
    /// Workload seeds (averaged over).
    pub seeds: Vec<u64>,
}

impl BatchConfig {
    /// The batch experiment baseline for a given (n, batch size).
    pub fn baseline(n: usize, batch_size: usize) -> Self {
        BatchConfig {
            n,
            degree: 4,
            strategy: Strategy::GroupOriented,
            batch_size,
            ops: 400,
            mean_interarrival_ms: 10.0,
            seeds: SEEDS.to_vec(),
        }
    }
}

/// Totals over one measured phase, for one rekeying mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct RekeyCosts {
    /// Keys encrypted (the paper's cost unit).
    pub encryptions: f64,
    /// Rekey packets addressed to more than one member (group or subgroup
    /// delivery — each consumes a multicast send).
    pub multicasts: f64,
    /// Rekey packets addressed to a single member.
    pub unicasts: f64,
    /// Rekey operations performed: requests for per-op mode, flushed
    /// intervals for batched mode.
    pub flushes: f64,
    /// Total rekey bytes put on the wire.
    pub bytes: f64,
}

impl RekeyCosts {
    fn add_packets<'a, I>(&mut self, packets: I)
    where
        I: Iterator<Item = (&'a Recipients, usize)>,
    {
        for (recipients, len) in packets {
            match recipients {
                Recipients::User(_) => self.unicasts += 1.0,
                _ => self.multicasts += 1.0,
            }
            self.bytes += len as f64;
        }
    }
}

/// Result of one batched-vs-per-operation comparison.
#[derive(Debug, Clone)]
pub struct BatchComparison {
    /// The configuration that was run.
    pub config: BatchConfig,
    /// Costs of rekeying after every request (the paper's base protocol).
    pub per_op: RekeyCosts,
    /// Costs of periodic batch rekeying at the configured batch size.
    pub batched: RekeyCosts,
}

/// Run one batched-vs-per-op comparison: the same Poisson churn workload
/// is replayed through an immediate-mode server and through a batched
/// server that flushes every `batch_size` requests, and the total rekey
/// costs of the measured phase are compared (averaged over seeds).
pub fn run_batch_comparison(config: &BatchConfig) -> BatchComparison {
    let mut per_op = RekeyCosts::default();
    let mut batched = RekeyCosts::default();
    for &seed in &config.seeds {
        let workload = crate::workload::ChurnWorkload::generate(
            config.n,
            config.ops,
            config.mean_interarrival_ms,
            seed,
        );
        let p = rekey_costs(config, &workload, seed, false);
        let b = rekey_costs(config, &workload, seed, true);
        per_op.encryptions += p.encryptions;
        per_op.multicasts += p.multicasts;
        per_op.unicasts += p.unicasts;
        per_op.flushes += p.flushes;
        per_op.bytes += p.bytes;
        batched.encryptions += b.encryptions;
        batched.multicasts += b.multicasts;
        batched.unicasts += b.unicasts;
        batched.flushes += b.flushes;
        batched.bytes += b.bytes;
    }
    let k = config.seeds.len().max(1) as f64;
    for c in [&mut per_op, &mut batched] {
        c.encryptions /= k;
        c.multicasts /= k;
        c.unicasts /= k;
        c.flushes /= k;
        c.bytes /= k;
    }
    BatchComparison { config: config.clone(), per_op, batched }
}

/// Total rekey costs of `workload` on one server, rekeying after every
/// request or — `batched` — every `batch_size` requests. One loop serves
/// both: a request the server queues returns nothing to deliver, and
/// `tick` returns nothing on a server that has already rekeyed.
fn rekey_costs(
    config: &BatchConfig,
    workload: &crate::workload::ChurnWorkload,
    seed: u64,
    batched: bool,
) -> RekeyCosts {
    let mut builder = ServerConfig::builder()
        .degree(config.degree)
        .strategy(config.strategy)
        .auth(AuthPolicy::None)
        .seed(seed);
    if batched {
        // Depth-triggered flushing: the queue drains every `batch_size`
        // requests, making the batch size exact. The Poisson clock still
        // drives `tick`, so interval-triggered flushing is exercised when
        // the configured interval elapses first.
        builder = builder.batched(u64::MAX / 4, config.batch_size);
    }
    let server_config = builder.build().expect("valid bench config");
    let mut server = GroupKeyServer::new(server_config, AccessControl::AllowAll);
    for &u in &workload.initial {
        server.handle_join(u).expect("initial join");
    }
    server.flush(0).expect("initial flush");
    server.reset_stats();
    let mut costs = RekeyCosts::default();
    let mut absorb = |op: kg_server::ProcessedOp| {
        if op.delivery().next().is_none() {
            return; // queued: its interval is accounted when it flushes
        }
        costs
            .add_packets(op.packets.iter().zip(&op.encoded).map(|(p, e)| (&p.recipients, e.len())));
        costs.flushes += 1.0;
    };
    for t in &workload.arrivals {
        absorb(match t.request {
            Request::Join(u) => server.handle_join(u).expect("join"),
            Request::Leave(u) => server.handle_leave(u).expect("leave"),
        });
        if let Some(op) = server.tick(t.at_ms).expect("tick") {
            absorb(op);
        }
    }
    if let Some(op) = server.flush(workload.end_ms() + 1).expect("final flush") {
        absorb(op);
    }
    // The record window is bounded; the streaming aggregate covers every
    // op. Its mean times its count is the integer total up to rounding.
    costs.encryptions = server
        .stats()
        .aggregate(None)
        .map_or(0.0, |all| (all.encryptions_ave * all.ops as f64).round());
    costs
}

/// One row of the WAL-overhead comparison: the same churn workload run
/// with persistence off and with each fsync policy.
#[derive(Debug, Clone)]
pub struct WalOverheadRow {
    /// Human-readable policy name (`none` is the in-memory baseline).
    pub policy: String,
    /// Wall-clock time for the measured churn phase, in milliseconds.
    pub elapsed_ms: f64,
    /// Measured requests per second.
    pub ops_per_sec: f64,
    /// Bytes appended to the write-ahead log (0 for the baseline).
    pub wal_bytes: u64,
    /// Elapsed time relative to the in-memory baseline (1.0 = no cost).
    pub slowdown: f64,
}

/// One point of the recovery-time curve: crash after a log of the given
/// length, measure the time to rebuild the server from disk.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Records in the write-ahead log at the crash.
    pub wal_ops: usize,
    /// Bytes in the write-ahead log at the crash.
    pub wal_bytes: u64,
    /// Wall-clock recovery time (load + replay + digest check), ms.
    pub recover_ms: f64,
}

fn persist_scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kg-bench-{tag}-{}-{n}", std::process::id()))
}

fn churn(server: &mut GroupKeyServer, workload: &Workload) {
    for req in &workload.requests {
        match *req {
            Request::Join(u) => {
                server.handle_join(u).expect("join");
            }
            Request::Leave(u) => {
                server.handle_leave(u).expect("leave");
            }
        }
    }
}

/// Measure WAL overhead: run the same workload (initial group of `n`,
/// then `ops` join/leave requests) with persistence off and under each
/// fsync policy, timing only the measured churn phase. Snapshotting is
/// disabled so the numbers isolate the log-append cost.
pub fn run_persist_overhead(n: usize, ops: usize, seed: u64) -> Vec<WalOverheadRow> {
    let workload = Workload::generate(n, ops, seed);
    let config =
        ServerConfig::builder().auth(AuthPolicy::None).seed(seed).build().expect("valid config");
    let no_snapshots = |fsync| kg_persist::PersistConfig {
        fsync,
        snapshot_every_ops: u64::MAX,
        snapshot_max_bytes: u64::MAX,
    };

    let mut rows = Vec::new();
    let base_ms = {
        let mut server = GroupKeyServer::new(config.clone(), AccessControl::AllowAll);
        for &u in &workload.initial {
            server.handle_join(u).expect("initial join");
        }
        let start = std::time::Instant::now();
        churn(&mut server, &workload);
        start.elapsed().as_secs_f64() * 1e3
    };
    rows.push(WalOverheadRow {
        policy: "none".into(),
        elapsed_ms: base_ms,
        ops_per_sec: ops as f64 / (base_ms / 1e3).max(1e-9),
        wal_bytes: 0,
        slowdown: 1.0,
    });

    for (fsync, name) in [
        (kg_persist::FsyncPolicy::EveryRecord, "every-record"),
        (kg_persist::FsyncPolicy::EveryN(32), "every-32"),
        (kg_persist::FsyncPolicy::IntervalMs(50), "interval-50ms"),
    ] {
        let dir = persist_scratch_dir("overhead");
        let mut server = GroupKeyServer::with_persistence(
            config.clone(),
            AccessControl::AllowAll,
            &dir,
            no_snapshots(fsync),
        )
        .expect("create store");
        for &u in &workload.initial {
            server.handle_join(u).expect("initial join");
        }
        let start = std::time::Instant::now();
        churn(&mut server, &workload);
        server.sync_persistence().expect("final sync");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let wal_bytes = server.persistence().expect("persistent").wal_len();
        rows.push(WalOverheadRow {
            policy: name.into(),
            elapsed_ms: ms,
            ops_per_sec: ops as f64 / (ms / 1e3).max(1e-9),
            wal_bytes,
            slowdown: ms / base_ms.max(1e-9),
        });
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Measure time-to-recover as a function of log length: for each entry of
/// `churn_ops`, build a persisted server (initial group of `n`, then that
/// many requests, snapshots disabled so the whole history replays), crash
/// it, and time [`GroupKeyServer::recover`].
pub fn run_recovery_curve(n: usize, churn_ops: &[usize], seed: u64) -> Vec<RecoveryPoint> {
    let config =
        ServerConfig::builder().auth(AuthPolicy::None).seed(seed).build().expect("valid config");
    let pcfg = kg_persist::PersistConfig {
        fsync: kg_persist::FsyncPolicy::EveryN(4096),
        snapshot_every_ops: u64::MAX,
        snapshot_max_bytes: u64::MAX,
    };
    churn_ops
        .iter()
        .map(|&ops| {
            let workload = Workload::generate(n, ops, seed);
            let dir = persist_scratch_dir("recovery");
            let mut server = GroupKeyServer::with_persistence(
                config.clone(),
                AccessControl::AllowAll,
                &dir,
                pcfg,
            )
            .expect("create store");
            for &u in &workload.initial {
                server.handle_join(u).expect("initial join");
            }
            churn(&mut server, &workload);
            server.sync_persistence().expect("final sync");
            let wal_bytes = server.persistence().expect("persistent").wal_len();
            drop(server); // crash

            let start = std::time::Instant::now();
            let recovered =
                GroupKeyServer::recover(config.clone(), AccessControl::AllowAll, &dir, pcfg)
                    .expect("recover");
            let recover_ms = start.elapsed().as_secs_f64() * 1e3;
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
            RecoveryPoint { wal_ops: n + ops, wal_bytes, recover_ms }
        })
        .collect()
}

/// Result of the observability-overhead measurement: the same churn
/// workload timed with a disabled [`kg_obs::Obs`] handle (the baseline)
/// and with a fully enabled one (spans, counters, timeline).
#[derive(Debug, Clone)]
pub struct ObsOverhead {
    /// Median-of-`repeats` churn time with observability off, ms.
    pub baseline_ms: f64,
    /// Median-of-`repeats` churn time with observability on, ms.
    pub observed_ms: f64,
    /// `(observed / baseline − 1) × 100` — the acceptance target is < 5.
    pub overhead_pct: f64,
    /// `kg_requests_total` summed over the join/leave families after one
    /// observed run (should equal the request count).
    pub requests_total: u64,
    /// `kg_encryptions_total` after one observed run.
    pub encryptions_total: u64,
    /// Join-handler span distribution (`kg_span_us{span="op.join"}`).
    pub join_span: kg_obs::HistogramSnapshot,
    /// Leave-handler span distribution (`kg_span_us{span="op.leave"}`).
    pub leave_span: kg_obs::HistogramSnapshot,
    /// Events recorded on the timeline during the observed run.
    pub timeline_total: u64,
    /// Lines in the Prometheus exposition (a cheap "exporter works and
    /// has content" check for the JSON artifact).
    pub prometheus_lines: usize,
}

/// Measure the cost of the `kg-obs` layer: run the same workload
/// (initial group of `n`, then `ops` join/leave requests) `repeats`
/// times under a disabled handle and `repeats` times under an enabled
/// one, interleaved, and compare the *median* pass time of each. The
/// median rather than the mean or minimum because scheduling noise on a
/// shared host arrives as sustained spikes: a spike long enough to
/// cover half the interleaved passes would have to last the whole
/// measurement.
pub fn run_obs_overhead(n: usize, ops: usize, seed: u64, repeats: usize) -> ObsOverhead {
    use kg_obs::{Obs, ObsConfig};
    let workload = Workload::generate(n, ops, seed);
    let config =
        ServerConfig::builder().auth(AuthPolicy::None).seed(seed).build().expect("valid config");

    let run_once = |obs: Obs| -> (f64, Obs) {
        let mut server = GroupKeyServer::new(config.clone(), AccessControl::AllowAll);
        for &u in &workload.initial {
            server.handle_join(u).expect("initial join");
        }
        server.reset_stats();
        server.attach_obs(obs);
        let start = std::time::Instant::now();
        churn(&mut server, &workload);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, server.obs().clone())
    };

    // One untimed pass per mode warms caches (and absorbs any load spike
    // left over from whoever launched us) before measurement starts.
    let _ = run_once(Obs::disabled());
    let _ = run_once(Obs::new(ObsConfig::default()));

    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };
    let mut baseline = Vec::new();
    let mut observed = Vec::new();
    let mut last_obs = Obs::disabled();
    for _ in 0..repeats.max(1) {
        let (b, _) = run_once(Obs::disabled());
        baseline.push(b);
        let (o, obs) = run_once(Obs::new(ObsConfig::default()));
        observed.push(o);
        last_obs = obs;
    }
    let baseline_ms = median(&mut baseline);
    let observed_ms = median(&mut observed);

    let requests_total = last_obs.counter_with("kg_requests_total", "kind", "join").get()
        + last_obs.counter_with("kg_requests_total", "kind", "leave").get();
    ObsOverhead {
        baseline_ms,
        observed_ms,
        overhead_pct: (observed_ms / baseline_ms.max(1e-9) - 1.0) * 100.0,
        requests_total,
        encryptions_total: last_obs.counter("kg_encryptions_total").get(),
        join_span: last_obs.span_snapshot("op.join"),
        leave_span: last_obs.span_snapshot("op.leave"),
        timeline_total: last_obs.timeline_total(),
        prometheus_lines: last_obs.render_prometheus().lines().count(),
    }
}

/// Result of the counter/WAL reconciliation run: one persisted server
/// lifetime, a crash, and an observed recovery, with every independent
/// account of "how many operations happened" read back.
#[derive(Debug, Clone)]
pub struct ObsReconcile {
    /// Operations the first lifetime performed (initial joins + churn).
    pub expected_ops: u64,
    /// `WalAppend` timeline events recorded during the first lifetime
    /// (cumulative kind count — survives ring eviction).
    pub wal_append_events: u64,
    /// `kg_requests_total` over the join/leave families, first lifetime.
    pub requests_counter: u64,
    /// Records pushed into `ServerStats` during the first lifetime.
    pub stats_records: u64,
    /// `kg_replayed_records_total` as reported by the recovered server's
    /// fresh handle (equals the WAL records replayed from disk).
    pub records_replayed: u64,
    /// Whether the recovery emitted exactly one `Recovered` event.
    pub recovered_event_seen: bool,
}

impl ObsReconcile {
    /// True when every account agrees on the operation count.
    pub fn consistent(&self) -> bool {
        self.wal_append_events == self.expected_ops
            && self.requests_counter == self.expected_ops
            && self.stats_records == self.expected_ops
            && self.records_replayed == self.expected_ops
            && self.recovered_event_seen
    }
}

/// Reconcile the observability layer against the durability layer: run a
/// persisted, observed server (initial group of `n`, then `ops`
/// requests, snapshots off so the whole history stays in the log),
/// crash it, recover with a fresh handle, and read back every count
/// that should equal `n + ops`.
pub fn run_obs_reconcile(n: usize, ops: usize, seed: u64) -> ObsReconcile {
    use kg_obs::{Obs, ObsConfig};
    let workload = Workload::generate(n, ops, seed);
    let config =
        ServerConfig::builder().auth(AuthPolicy::None).seed(seed).build().expect("valid config");
    let pcfg = kg_persist::PersistConfig {
        fsync: kg_persist::FsyncPolicy::EveryN(1024),
        snapshot_every_ops: u64::MAX,
        snapshot_max_bytes: u64::MAX,
    };
    let dir = persist_scratch_dir("obs-reconcile");

    let obs = Obs::new(ObsConfig::default());
    let mut server =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, pcfg)
            .expect("create store");
    server.attach_obs(obs.clone());
    for &u in &workload.initial {
        server.handle_join(u).expect("initial join");
    }
    churn(&mut server, &workload);
    server.sync_persistence().expect("final sync");
    let stats_records = server.stats().records_pushed();
    drop(server); // crash

    let wal_append_events = obs.event_kind_counts().get("wal_append").copied().unwrap_or(0);
    let requests_counter = obs.counter_with("kg_requests_total", "kind", "join").get()
        + obs.counter_with("kg_requests_total", "kind", "leave").get();

    let recovery_obs = Obs::new(ObsConfig::default());
    let recovered = GroupKeyServer::recover_observed(
        config,
        AccessControl::AllowAll,
        &dir,
        pcfg,
        recovery_obs.clone(),
    )
    .expect("recover");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    ObsReconcile {
        expected_ops: (n + ops) as u64,
        wal_append_events,
        requests_counter,
        stats_records,
        records_replayed: recovery_obs.counter("kg_replayed_records_total").get(),
        recovered_event_seen: recovery_obs.event_kind_counts().get("recovered").copied() == Some(1),
    }
}

/// Simple fixed-width text table builder for the report binary.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Per-op server cost of one strategy at group size `n`, one phase per
/// op kind (see [`run_derived_costs`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct DerivedPhase {
    /// Bundles actually sealed (cipher invocations) per op — the O(1)
    /// quantity client-derived rekeying targets for joins and refreshes.
    pub seals: f64,
    /// Keys encrypted per op (the paper's cost unit: a bundle packing
    /// three keys costs three).
    pub encryptions: f64,
    /// Rekey frames emitted per op.
    pub messages: f64,
    /// Encoded rekey bytes emitted per op.
    pub bytes: f64,
}

/// The three phases of one [`run_derived_costs`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DerivedCosts {
    /// Joins of fresh users into the size-`n` group.
    pub join: DerivedPhase,
    /// Leaves of current members.
    pub leave: DerivedPhase,
    /// Group-key refreshes.
    pub refresh: DerivedPhase,
}

/// Measure the server-side per-op cost of `strategy` at group size `n`:
/// populate a server to `n` members, then probe `probes` joins, `probes`
/// refreshes, and `probes` leaves, reading seal/encryption counts from
/// the server's own metrics and frame sizes from the processed ops.
///
/// This is the derived-vs-shipped comparison surface: with
/// [`Strategy::Derived`] a join seals exactly one bundle (the joiner's
/// unicast) and a refresh seals none, independent of `n`, while the
/// shipped strategies scale with the tree height.
pub fn run_derived_costs(n: usize, probes: usize, seed: u64, strategy: Strategy) -> DerivedCosts {
    use kg_core::ids::UserId;
    use kg_obs::{Obs, ObsConfig};
    let config = ServerConfig::builder()
        .auth(AuthPolicy::None)
        .seed(seed)
        .strategy(strategy)
        .build()
        .expect("valid config");
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    for u in 0..n as u64 {
        server.handle_join(UserId(u)).expect("populate");
    }
    let obs = Obs::new(ObsConfig::default());
    server.attach_obs(obs.clone());
    let misses = obs.counter_with("kg_par_cache_total", "result", "miss");
    let encs = obs.counter("kg_encryptions_total");

    let mut measure = |ops: &mut dyn FnMut(&mut GroupKeyServer) -> kg_server::ProcessedOp| {
        let (m0, e0) = (misses.get(), encs.get());
        let (mut messages, mut bytes) = (0u64, 0u64);
        for _ in 0..probes {
            let out = ops(&mut server);
            messages += out.encoded.len() as u64;
            bytes += out.encoded.iter().map(|b| b.len() as u64).sum::<u64>();
        }
        let p = probes.max(1) as f64;
        DerivedPhase {
            seals: (misses.get() - m0) as f64 / p,
            encryptions: (encs.get() - e0) as f64 / p,
            messages: messages as f64 / p,
            bytes: bytes as f64 / p,
        }
    };

    let mut next = n as u64;
    let join = measure(&mut |s| {
        next += 1;
        s.handle_join(UserId(next - 1)).expect("probe join")
    });
    let refresh = measure(&mut |s| s.refresh_group_key().expect("probe refresh"));
    // Leave the probe joiners again: the group returns to size n, so
    // every phase measured the same population.
    let mut gone = n as u64;
    let leave = measure(&mut |s| {
        gone += 1;
        s.handle_leave(UserId(gone - 1)).expect("probe leave")
    });
    DerivedCosts { join, leave, refresh }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_experiment_runs() {
        let cfg = ExperimentConfig {
            n: 32,
            degree: 4,
            strategy: Strategy::GroupOriented,
            auth: AuthPolicy::None,
            ops: 50,
            seeds: vec![1],
        };
        let r = run(&cfg);
        assert_eq!(r.all.ops, 50);
        assert!(r.all.msg_size_ave > 0.0);
        assert!(r.all.proc_ms_ave >= 0.0);
        // Each client receives exactly one rekey message per request under
        // group-oriented rekeying (Table 6).
        assert!((r.client_all.msgs_per_request - 1.0).abs() < 0.2);
        // Key changes per request ≈ d/(d−1) = 1.33 (Figure 12).
        assert!(
            (r.client_all.key_changes_per_request - 4.0 / 3.0).abs() < 0.5,
            "got {}",
            r.client_all.key_changes_per_request
        );
    }

    #[test]
    fn strategies_have_expected_server_ordering() {
        // User-oriented does the most encryptions; group/key the least.
        let mk = |strategy| {
            run(&ExperimentConfig {
                n: 64,
                degree: 4,
                strategy,
                auth: AuthPolicy::None,
                ops: 60,
                seeds: vec![5],
            })
        };
        let user = mk(Strategy::UserOriented);
        let key = mk(Strategy::KeyOriented);
        let group = mk(Strategy::GroupOriented);
        assert!(user.leave.encryptions_ave > key.leave.encryptions_ave);
        assert!((key.leave.encryptions_ave - group.leave.encryptions_ave).abs() < 1e-9);
        // Group-oriented sends exactly 1 leave message; the others many.
        assert!((group.leave.msgs_per_op - 1.0).abs() < 1e-9);
        assert!(key.leave.msgs_per_op > 5.0);
    }

    #[test]
    fn client_side_message_counts_match_table6() {
        for strategy in Strategy::ALL {
            let r = run(&ExperimentConfig {
                n: 64,
                degree: 4,
                strategy,
                auth: AuthPolicy::None,
                ops: 40,
                seeds: vec![9],
            });
            // Table 6: every client gets exactly one rekey message per
            // request under all three strategies.
            assert!(
                (r.client_all.msgs_per_request - 1.0).abs() < 0.25,
                "{strategy:?}: {}",
                r.client_all.msgs_per_request
            );
        }
    }

    #[test]
    fn batch_comparison_runs_and_counts_intervals() {
        let cfg = BatchConfig {
            n: 64,
            degree: 4,
            strategy: Strategy::GroupOriented,
            batch_size: 8,
            ops: 64,
            mean_interarrival_ms: 10.0,
            seeds: vec![1],
        };
        let r = run_batch_comparison(&cfg);
        assert_eq!(r.per_op.flushes, 64.0, "per-op rekeys once per request");
        assert!(r.batched.flushes <= 64.0 / 8.0 + 1.0, "depth-8 queue flushes ~ops/8 times");
        assert!(r.per_op.encryptions > 0.0 && r.batched.encryptions > 0.0);
        assert!(r.per_op.multicasts > 0.0 && r.batched.multicasts > 0.0);
    }

    /// The ISSUE's acceptance bar: at n = 4096, d = 4, every batch size
    /// ≥ 4 must send strictly fewer encryptions AND strictly fewer
    /// multicasts than per-operation rekeying over the same workload.
    #[test]
    fn batched_beats_per_op_at_n4096() {
        for batch_size in [4usize, 16, 64] {
            let cfg = BatchConfig {
                n: 4096,
                degree: 4,
                strategy: Strategy::GroupOriented,
                batch_size,
                ops: 128,
                mean_interarrival_ms: 5.0,
                seeds: vec![SEEDS[0]],
            };
            let r = run_batch_comparison(&cfg);
            assert!(
                r.batched.encryptions < r.per_op.encryptions,
                "batch={batch_size}: encryptions {} !< {}",
                r.batched.encryptions,
                r.per_op.encryptions
            );
            assert!(
                r.batched.multicasts < r.per_op.multicasts,
                "batch={batch_size}: multicasts {} !< {}",
                r.batched.multicasts,
                r.per_op.multicasts
            );
        }
    }

    #[test]
    fn derived_join_cost_does_not_scale_with_group_size() {
        let small = run_derived_costs(32, 8, 1, Strategy::Derived);
        let big = run_derived_costs(256, 8, 1, Strategy::Derived);
        assert_eq!(small.join.seals, 1.0, "derived join seals one bundle");
        assert_eq!(big.join.seals, 1.0, "…at any group size");
        assert_eq!(big.refresh.seals, 0.0, "derived refresh is ciphertext-free");
        assert!(big.leave.seals > 1.0, "leaves ship keys for forward secrecy");
        let shipped = run_derived_costs(256, 8, 1, Strategy::GroupOriented);
        assert!(shipped.join.seals > 1.0, "shipped joins scale with the path");
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn text_table_rejects_bad_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
