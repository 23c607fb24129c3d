//! `cluster_batch`: the batch path end to end — a 4-shard `SimCluster` with
//! one group spanning all shards, 100 ms batched group-oriented rekeying and
//! signing on. Persistence is off in the measured phase (on this host's disk
//! fsync latency alone moved the interval median by a third between runs);
//! the traced run probes it separately, WAL, snapshots, crash and recovery.

use crate::e2e::net_config;
use crate::gen::{Churn, Request};
use crate::report::{peak_rss_mb, set_up, Kind, Overhead, Plan, Report, Sample};
use crate::stats::median;
use crate::trace::Recorder;
use kg_cluster::{NodeEvent, RouterEvent, ShardMap, SimCluster};
use kg_core::ids::UserId;
use kg_server::{AccessControl, AuthPolicy, ServerConfig};
use kg_wire::{GroupId, ShardId};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const GROUP_SIZE: usize = 32_768;
const SHARDS: u16 = 4;
const GROUP: GroupId = GroupId(1);
const INTERVAL_MS: u64 = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Sizes {
    n: usize,
    /// Joins per interval while building.
    build_chunk: usize,
    /// Leaves, and joins, per measured interval.
    pairs: usize,
    /// Intervals the persistence probe runs.
    probe_intervals: u64,
    /// The probe crashes and recovers one shard (rotating) after every this
    /// many intervals.
    recover_every: u64,
}

const FULL: Sizes =
    Sizes { n: GROUP_SIZE, build_chunk: 2048, pairs: 64, probe_intervals: 90, recover_every: 30 };
const SMOKE: Sizes =
    Sizes { n: 64, build_chunk: 16, pairs: 4, probe_intervals: 5, recover_every: 2 };

/// A persistence root beside the running executable — inside the build
/// directory, so inside the checkout — removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe.parent().ok_or("executable has no directory")?;
        let path = dir.join(format!("perf-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

struct System {
    cluster: SimCluster,
    now_ms: u64,
    /// The persistence root, when persistence is on. Declared after
    /// `cluster` so the files outlive the nodes writing them.
    scratch: Option<Scratch>,
}

/// Events of one interval, from the benchmark's own polls and the harness's.
#[derive(Default)]
struct Events {
    node: Vec<NodeEvent>,
    router: Vec<RouterEvent>,
}

impl System {
    fn build(sizes: &Sizes, scratch: Option<Scratch>) -> Result<Self, String> {
        let template = ServerConfig::builder()
            .seed(1)
            .batched(INTERVAL_MS, usize::MAX)
            .auth(AuthPolicy::SignBatch)
            .build()
            .expect("valid cluster template");
        let map = ShardMap::new(SHARDS).with_span(GROUP, SHARDS);
        let mut cluster = SimCluster::new(
            map,
            template,
            AccessControl::AllowAll,
            net_config(),
            scratch.as_ref().map(|s| s.0.as_path()),
        );
        // Per-member inboxes would only be drained and dropped: the cluster
        // is measured up to delivery into the member-facing inbox.
        cluster.use_shared_client_endpoint();
        let mut sys = System { cluster, now_ms: 0, scratch };
        let mut next = 1u64;
        while next <= sizes.n as u64 {
            let end = (next + sizes.build_chunk as u64 - 1).min(sizes.n as u64);
            for u in next..=end {
                sys.cluster.join(GROUP, UserId(u));
            }
            next = end + 1;
            sys.now_ms += INTERVAL_MS;
            sys.cluster.tick(sys.now_ms);
            sys.cluster.take_events();
        }
        if sys.cluster.group_size(GROUP) != sizes.n {
            return Err("cluster set-up lost members".into());
        }
        Ok(sys)
    }

    /// `SimCluster::settle`, spelled out over the public fields so each
    /// component's share is a span; the closing `settle` call is the
    /// harness's own member-inbox drain.
    fn settle(&mut self, rec: &mut Recorder, events: &mut Events) {
        let cluster = &mut self.cluster;
        loop {
            rec.span("cluster.net", |_| cluster.net.run_until_quiet());
            let routed = rec.span("cluster.router_poll", |_| cluster.router.poll(&mut cluster.net));
            let mut progress = !routed.is_empty();
            events.router.extend(routed);
            for node in &mut cluster.nodes {
                let polled = rec.span("cluster.node_poll", |_| node.poll(&mut cluster.net));
                progress |= !polled.is_empty();
                events.node.extend(polled);
            }
            if !progress {
                break;
            }
        }
        rec.span("cluster.settle", |_| cluster.settle());
    }

    /// One batch interval: submit, let the requests queue, flush, deliver.
    fn interval(&mut self, requests: &[Request], rec: &mut Recorder) -> (u64, Events) {
        let mut events = Events::default();
        let start = Instant::now();
        rec.span("op", |rec| {
            rec.span("cluster.submit", |_| {
                for req in requests {
                    match *req {
                        Request::Join(u) => self.cluster.join(GROUP, UserId(u)),
                        Request::Leave(u) => self.cluster.leave(GROUP, UserId(u)),
                    }
                }
            });
            self.now_ms += INTERVAL_MS;
            self.settle(rec, &mut events);
            let now_ms = self.now_ms;
            let cluster = &mut self.cluster;
            rec.span("cluster.node_tick", |_| {
                for node in &mut cluster.nodes {
                    events.node.extend(node.tick(&mut cluster.net, now_ms));
                }
            });
            self.settle(rec, &mut events);
        });
        let ns = start.elapsed().as_nanos() as u64;
        let (node, router) = self.cluster.take_events();
        events.node.extend(node);
        events.router.extend(router);
        (ns, events)
    }

    /// Keys sealed so far by the live slice servers of each shard.
    fn seals(&self) -> Vec<f64> {
        self.cluster
            .nodes
            .iter()
            .map(|node| {
                node.group(GROUP)
                    .and_then(|server| server.stats().aggregate(None))
                    .map_or(0.0, |a| a.encryptions_ave * a.ops as f64)
            })
            .collect()
    }
}

/// What a stretch of intervals measured.
#[derive(Default)]
struct Measured {
    interval_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    overhead: Overhead,
    requests: u64,
    rekey_bytes: u64,
    seals: f64,
}

/// Run intervals of churn while `more` says so, checking every one. With
/// persistence on, also crash and recover one shard at the fixed points.
fn drive(
    sys: &mut System,
    churn: &mut Churn,
    sizes: &Sizes,
    plan: &Plan,
    rec: &mut Recorder,
    report: &mut Report,
    mut more: impl FnMut(&Measured) -> bool,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut seals_seen = sys.seals();
    while more(&m) {
        let requests = churn.interval(sizes.pairs);
        let index = m.interval_ms.len() as u64;
        let traced = Overhead::begin_op(rec, plan, index);
        let (ns, events) = sys.interval(&requests, rec);

        // Everything below is outside the timed window.
        m.requests += requests.len() as u64;
        m.overhead.add(traced, ns);
        m.interval_ms.push(ns as f64 / 1e6);
        for event in &events.node {
            if let NodeEvent::Rejected(..) | NodeEvent::Failed(..) = event {
                report.fail(format!("interval {index}: {event:?}"));
            }
        }
        for event in &events.router {
            if let RouterEvent::RekeyMulticast { bytes, .. }
            | RouterEvent::RekeyUnicast { bytes, .. } = event
            {
                m.rekey_bytes += *bytes as u64;
            }
        }
        let now = sys.seals();
        m.seals += now.iter().zip(&seals_seen).map(|(a, b)| a - b).sum::<f64>();
        seals_seen = now;
        if sys.cluster.group_size(GROUP) != churn.members().len() {
            report.fail(format!("interval {index}: group size differs from the generator's"));
        }

        let done = index + 1;
        if sys.scratch.is_some() && done.is_multiple_of(sizes.recover_every) {
            let shard = ShardId(((done / sizes.recover_every) % SHARDS as u64) as u16);
            sys.cluster.crash_node(shard);
            let start = Instant::now();
            let recovered = sys.cluster.recover_node(shard);
            m.recover_ms.push(start.elapsed().as_nanos() as f64 / 1e6);
            recovered.map_err(|e| format!("recovering shard {}: {e}", shard.0))?;
            if sys.cluster.group_size(GROUP) != churn.members().len() {
                report.fail(format!("shard {} recovered to a different membership", shard.0));
            }
            seals_seen = sys.seals();
        }
    }
    Ok(m)
}

/// Clean shutdown: every member accounted for, nothing left to replay.
fn shut_down(sys: &mut System, churn: &Churn, report: &mut Report) {
    let (members, wal_tail) = sys.cluster.shutdown();
    if members != churn.members().len() as u64 || wal_tail != 0 {
        report.fail(format!("shutdown reported {members} members, WAL tail {wal_tail}"));
    }
}

/// `kg-persist` under the same intervals: WAL appends and snapshots on, a
/// shard crashed and recovered at fixed points, a clean shutdown. The root
/// is beside the executable — the checkout's build directory — so the times
/// include this host's disk and are reported unbounded, per layer only.
fn persistence_probe(
    report: &mut Report,
    plan: &Plan,
    sizes: &Sizes,
    plain_interval_ms: f64,
) -> Result<(), String> {
    let mut sys = System::build(sizes, Some(Scratch::new()?))?;
    let mut churn = Churn::new(plan.seed, sizes.n);
    let untraced = Plan { trace: false, ..*plan };
    let m = drive(&mut sys, &mut churn, sizes, &untraced, &mut Recorder::new(), report, |m| {
        (m.interval_ms.len() as u64) < sizes.probe_intervals
    })?;
    shut_down(&mut sys, &churn, report);
    if m.recover_ms.is_empty() {
        report.fail("persistence probe made no recovery");
    }
    let with_wal = median(&m.interval_ms).unwrap_or(0.0);
    report.set("persist.wal_ms_per_interval", with_wal - plain_interval_ms);
    report.set("persist.recover_ms_p50", median(&m.recover_ms).unwrap_or(0.0));
    report.set("persist.dir_bytes_end", sys.scratch.as_ref().map_or(0, |s| dir_bytes(&s.0)) as f64);
    Ok(())
}

pub fn run(plan: &Plan, rec: &mut Recorder) -> Result<Report, String> {
    let sizes = if plan.smoke { &SMOKE } else { &FULL };
    let mut report = Report::new(plan);
    report.notes.push(format!(
        "n = {}, {SHARDS} shards, group spans {SHARDS}, batched({INTERVAL_MS} ms) GroupOriented, \
         sign-batch, persistence off, shared client endpoint; {} leaves + {} joins per interval",
        sizes.n, sizes.pairs, sizes.pairs
    ));
    report.notes.push(
        "closed loop, one interval outstanding, one thread; in-process SimNetwork (100 us \
         simulated latency, no loss): no socket is opened"
            .into(),
    );

    let mut sys = set_up(&mut report, plan, SETUPS, || System::build(sizes, None))?;

    let mut churn = Churn::new(plan.seed, sizes.n);
    let relay_before = sys.cluster.net.stats(sys.cluster.router.endpoint()).datagrams_sent;
    let started = Instant::now();
    let m = drive(&mut sys, &mut churn, sizes, plan, rec, &mut report, |m| {
        started.elapsed().as_secs_f64() < plan.seconds && m.requests < plan.max_ops
    })?;
    let relayed =
        sys.cluster.net.stats(sys.cluster.router.endpoint()).datagrams_sent - relay_before;
    shut_down(&mut sys, &churn, &mut report);
    report.attempted = m.requests;

    // A request queued for an interval takes effect when the interval's
    // rekey is delivered, joins and leaves alike.
    let samples: Vec<Sample> =
        m.interval_ms.iter().map(|&ms| Sample { kind: Kind::Both, ms }).collect();
    report.set_latency_metrics(&samples, 2.0 * sizes.pairs as f64)?;
    report.set("bytes_per_request", m.rekey_bytes as f64 / m.requests as f64);
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.notes.push(format!(
        "{} intervals measured ({} requests)",
        m.interval_ms.len(),
        m.requests
    ));
    if !plan.trace {
        return Ok(report);
    }

    let layers = rec.layers();
    let traced = m.overhead.traced_ops.max(1) as f64;
    let ms_per_interval =
        |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64) / 1e6 / traced;
    report.set("cluster.submit_ms_per_interval", ms_per_interval("cluster.submit"));
    report.set("cluster.net_ms_per_interval", ms_per_interval("cluster.net"));
    report.set("cluster.router_poll_ms_per_interval", ms_per_interval("cluster.router_poll"));
    report.set("cluster.node_poll_ms_per_interval", ms_per_interval("cluster.node_poll"));
    report.set("cluster.node_tick_ms_per_interval", ms_per_interval("cluster.node_tick"));
    report.set("cluster.settle_ms_per_interval", ms_per_interval("cluster.settle"));
    let intervals = m.interval_ms.len().max(1) as f64;
    report.set("cluster.relay_datagrams_per_interval", relayed as f64 / intervals);
    report.set("batch.seals_per_request", m.seals / m.requests.max(1) as f64);
    report.set_bench_overheads(rec, &m.overhead);
    crate::probes::server_crypto(&mut report);
    drop(sys);
    persistence_probe(&mut report, plan, sizes, median(&m.interval_ms).unwrap_or(0.0))?;
    Ok(report)
}
