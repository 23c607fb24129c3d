//! Cluster-scale benchmark: an in-process sharded deployment driven to
//! seven-figure membership.
//!
//! Everything runs on the deterministic [`kg_net::SimNetwork`], so each
//! count (members, intervals, requests, encryptions per shard) is a
//! function of the configuration and the seed. Members share one driver
//! endpoint so the harness does not allocate a million inboxes; the
//! router's directory and multicast bookkeeping still see every member
//! individually.

use kg_cluster::{ShardMap, SimCluster};
use kg_core::ids::UserId;
use kg_net::NetConfig;
use kg_server::{AccessControl, ServerConfig};
use kg_wire::GroupId;

/// Knobs for [`run_cluster_scale`].
#[derive(Debug, Clone)]
pub struct ClusterBenchConfig {
    /// Shard count (the paper's single server is `1`).
    pub shards: u16,
    /// How many shards the benchmark group spans.
    pub span: u16,
    /// Total members to admit.
    pub members: u64,
    /// Joins driven per batch interval.
    pub chunk: u64,
    /// Leave/join pairs of post-build churn.
    pub churn: u64,
    /// Base DRBG seed (per-slice seeds derive from it).
    pub seed: u64,
}

/// Per-shard load figures, from the shard's admin stats report.
#[derive(Debug, Clone)]
pub struct ShardLoad {
    /// Shard id.
    pub shard: u16,
    /// Members resident in the shard's slices.
    pub members: u64,
    /// Intervals flushed.
    pub intervals: u64,
    /// Control requests processed.
    pub requests: u64,
    /// Key encryptions performed.
    pub encryptions: u64,
}

/// Everything [`run_cluster_scale`] measures.
#[derive(Debug, Clone)]
pub struct ClusterScaleResult {
    /// Members resident at the end (build − churn leaves + churn joins).
    pub total_members: u64,
    /// Router directory size at the end.
    pub directory_len: usize,
    /// Per-shard load, in shard order.
    pub shards: Vec<ShardLoad>,
    /// Members reported by the aggregated shutdown ack.
    pub shutdown_members: u64,
    /// WAL tail reported by the shutdown ack (0: nothing to replay).
    pub shutdown_wal_tail: u64,
}

const INTERVAL_MS: u64 = 100;

/// Build a spanned group to `members` across `shards` shard nodes, churn
/// it, collect per-shard load, and shut the cluster down.
pub fn run_cluster_scale(config: &ClusterBenchConfig) -> ClusterScaleResult {
    let group = GroupId(1);
    let map = ShardMap::new(config.shards).with_span(group, config.span);
    let template = ServerConfig::builder()
        .seed(config.seed)
        .batched(INTERVAL_MS, usize::MAX)
        .build()
        .expect("valid cluster template");
    let net = NetConfig {
        latency_min_us: 100,
        latency_max_us: 100,
        loss_probability: 0.0,
        duplicate_probability: 0.0,
        seed: config.seed,
    };
    let mut cluster = SimCluster::new(map, template, AccessControl::AllowAll, net, None);
    cluster.use_shared_client_endpoint();
    let mut now_ms = 0u64;

    // Build phase: `chunk` joins per interval.
    let mut next_user = 1u64;
    while next_user <= config.members {
        let end = (next_user + config.chunk - 1).min(config.members);
        for u in next_user..=end {
            cluster.join(group, UserId(u));
        }
        next_user = end + 1;
        now_ms += INTERVAL_MS;
        cluster.tick(now_ms);
        // Keep the event backlog from growing with the membership.
        cluster.take_events();
    }

    // Churn phase: leave the first `churn` members, admit replacements.
    for u in 1..=config.churn {
        cluster.leave(group, UserId(u));
    }
    for u in 0..config.churn {
        cluster.join(group, UserId(config.members + 1 + u));
    }
    now_ms += INTERVAL_MS;
    cluster.tick(now_ms);
    cluster.take_events();

    // Collect per-shard stats through the admin plane.
    cluster.request_stats();
    cluster.settle();
    let reports = cluster.take_admin_replies();
    let mut shards = Vec::new();
    for node in &cluster.nodes {
        let report = reports.iter().find_map(|env| match env.body {
            kg_wire::ClusterBody::StatsReport {
                members, intervals, requests, encryptions, ..
            } if env.shard == node.shard() => Some((members, intervals, requests, encryptions)),
            _ => None,
        });
        let (members, intervals, requests, encryptions) =
            report.unwrap_or((node.member_total(), 0, 0, 0));
        shards.push(ShardLoad { shard: node.shard().0, members, intervals, requests, encryptions });
    }
    let total_members = cluster.group_size(group) as u64;
    let directory_len = cluster.router.directory_len();

    let (shutdown_members, shutdown_wal_tail) = cluster.shutdown();

    ClusterScaleResult { total_members, directory_len, shards, shutdown_members, shutdown_wal_tail }
}
