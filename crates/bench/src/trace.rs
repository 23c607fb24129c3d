//! Telemetry-plane benchmark: the cluster-wide rekey-cost ledger and
//! how many cross-process traces reassemble.
//!
//! Two measurements, both counts, on the deterministic in-process
//! cluster:
//!
//! 1. **Ledger table** — drive every strategy through a sharded
//!    deployment (immediate joins/leaves/refreshes, plus a batched run
//!    for the interval path) and aggregate the per-shard
//!    `kg_ledger_*_total{op="strategy:kind"}` counters into one
//!    cluster-wide cost table: encryptions, rekey messages, bytes, and
//!    key-tree nodes touched — the paper's Tables 4/5 cost shape,
//!    measured from live counters instead of stats records.
//! 2. **Trace plane** — with tracing and telemetry on, count how many
//!    cross-process traces the router's store holds, how many of them
//!    reassemble fully stitched, and how many it evicted.
//!
//! What the plane costs in time is the canonical benchmark's
//! `bench.trace_overhead_pct`.

use kg_cluster::{aggregate_counter_values, ShardMap, SimCluster};
use kg_core::ids::UserId;
use kg_core::rekey::Strategy;
use kg_net::NetConfig;
use kg_server::{AccessControl, ServerConfig};
use kg_wire::GroupId;
use std::collections::BTreeMap;

/// Knobs for [`run_trace_plane`].
#[derive(Debug, Clone)]
pub struct TraceBenchConfig {
    /// Shard count of every measured deployment.
    pub shards: u16,
    /// Members admitted per strategy run.
    pub members: u64,
    /// Leaves (with replacement joins) driven after the build.
    pub churn: u64,
    /// Base DRBG seed.
    pub seed: u64,
    /// Node → router telemetry push cadence.
    pub telemetry_interval_ms: u64,
}

/// One aggregated ledger row: cluster-wide totals for one
/// `strategy:kind` label.
#[derive(Debug, Clone, Default)]
pub struct LedgerRow {
    /// The `op` label (`"key:leave"`, `"group:batch"`, ...).
    pub op: String,
    /// Operations completed.
    pub ops: u64,
    /// Key encryptions performed.
    pub encryptions: u64,
    /// Rekey packets emitted.
    pub messages: u64,
    /// Encoded rekey bytes on the wire.
    pub bytes: u64,
    /// Key-tree nodes whose keys changed (fresh keys generated).
    pub nodes_touched: u64,
    /// Stored ciphertexts resent (stored-ciphertext reuse, Figures 6/8).
    pub cache_hits: u64,
}

/// Everything [`run_trace_plane`] measures.
#[derive(Debug, Clone)]
pub struct TraceBenchResult {
    /// Aggregated ledger rows, sorted by `op` label.
    pub rows: Vec<LedgerRow>,
    /// Traces retained by the router's store after the traced run.
    pub traces_stored: usize,
    /// How many of those reassemble fully stitched.
    pub traces_stitched: usize,
    /// Traces the store evicted to stay within its capacity.
    pub traces_evicted: u64,
}

const INTERVAL_MS: u64 = 100;

fn net(seed: u64) -> NetConfig {
    NetConfig {
        latency_min_us: 100,
        latency_max_us: 100,
        loss_probability: 0.0,
        duplicate_probability: 0.0,
        seed,
    }
}

fn template(seed: u64, strategy: Strategy, batched: bool) -> ServerConfig {
    let builder = ServerConfig::builder().seed(seed).strategy(strategy);
    let builder =
        if batched { builder.batched(INTERVAL_MS, usize::MAX) } else { builder.immediate() };
    builder.build().expect("valid trace config")
}

/// Drive the measured schedule: admit `members`, churn `churn`
/// leave/join pairs, sprinkle refreshes, tick the clock forward so
/// batched intervals flush and telemetry pushes go out.
fn drive(cluster: &mut SimCluster, group: GroupId, members: u64, churn: u64) {
    let mut now_ms = 0u64;
    for u in 1..=members {
        cluster.join(group, UserId(u));
    }
    now_ms += INTERVAL_MS;
    cluster.tick(now_ms);
    for u in 1..=churn {
        cluster.leave(group, UserId(u));
        cluster.join(group, UserId(members + u));
    }
    cluster.refresh(group);
    now_ms += INTERVAL_MS;
    cluster.tick(now_ms);
    cluster.take_events();
}

/// Pull every `kg_ledger_*` counter out of an aggregated snapshot into
/// per-`op` rows.
fn ledger_rows(aggregated: &[(String, u64)], into: &mut BTreeMap<String, LedgerRow>) {
    for (name, v) in aggregated {
        let Some(rest) = name.strip_prefix("kg_ledger_") else { continue };
        let Some((field, label)) = rest.split_once("_total{op=\"") else { continue };
        let Some(op) = label.strip_suffix("\"}") else { continue };
        let row = into
            .entry(op.to_string())
            .or_insert_with(|| LedgerRow { op: op.to_string(), ..LedgerRow::default() });
        match field {
            "ops" => row.ops += v,
            "encryptions" => row.encryptions += v,
            "messages" => row.messages += v,
            "bytes" => row.bytes += v,
            "nodes_touched" => row.nodes_touched += v,
            "cache_hits" => row.cache_hits += v,
            _ => {}
        }
    }
}

/// Build one traced cluster, run the schedule, and fold its aggregated
/// counters into `rows`. Returns the cluster for further inspection.
fn measured_run(
    config: &TraceBenchConfig,
    strategy: Strategy,
    batched: bool,
    rows: &mut BTreeMap<String, LedgerRow>,
) -> SimCluster {
    let group = GroupId(1);
    let map = ShardMap::new(config.shards).with_span(group, config.shards);
    let mut cluster = SimCluster::new(
        map,
        template(config.seed, strategy, batched),
        AccessControl::AllowAll,
        net(config.seed),
        None,
    );
    cluster.use_shared_client_endpoint();
    cluster.enable_telemetry(config.telemetry_interval_ms);
    drive(&mut cluster, group, config.members, config.churn);
    let snapshots: Vec<Vec<(String, u64)>> =
        cluster.nodes.iter().map(|n| n.obs().counter_values()).collect();
    ledger_rows(&aggregate_counter_values(snapshots.iter()), rows);
    cluster
}

/// Run the telemetry-plane benchmark. See the module docs for the two
/// measurements.
pub fn run_trace_plane(config: &TraceBenchConfig) -> TraceBenchResult {
    // Every strategy, immediate (join/leave/refresh rows) and batched
    // (the interval path's `batch` rows).
    let mut rows: BTreeMap<String, LedgerRow> = BTreeMap::new();
    for strategy in Strategy::ALL {
        measured_run(config, strategy, false, &mut rows);
        measured_run(config, strategy, true, &mut rows);
    }

    // One more immediate group-oriented run, kept alive to interrogate
    // the router's store (a trace request forces a final harvest of the
    // router's own spans). Its ledger counts are not folded in again.
    let mut cluster = measured_run(config, Strategy::GroupOriented, false, &mut BTreeMap::new());
    cluster.request_trace(0);
    cluster.settle();
    let store = cluster.router.merger().traces();
    let traces_stitched = store
        .trace_ids()
        .iter()
        .filter_map(|id| store.get(*id))
        .filter(|t| t.is_stitched())
        .count();

    TraceBenchResult {
        rows: rows.into_values().collect(),
        traces_stored: store.len(),
        traces_stitched,
        traces_evicted: store.evicted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_rows_cover_every_strategy_and_traces_stitch() {
        let config = TraceBenchConfig {
            shards: 2,
            members: 24,
            churn: 4,
            seed: 11,
            telemetry_interval_ms: 50,
        };
        let r = run_trace_plane(&config);
        for strategy in ["user", "key", "group"] {
            for kind in ["join", "leave", "refresh", "batch"] {
                let op = format!("{strategy}:{kind}");
                let row = r.rows.iter().find(|row| row.op == op);
                assert!(row.is_some_and(|row| row.ops > 0), "ledger row {op} populated");
            }
        }
        let leave = r.rows.iter().find(|row| row.op == "key:leave").expect("key:leave row");
        assert!(leave.encryptions > 0 && leave.messages > 0 && leave.bytes > 0);
        assert!(r.traces_stored > 0, "router stored traces");
        assert!(r.traces_stitched > 0, "at least one cross-process trace stitched");
        assert_eq!(r.traces_evicted, 0, "24 members fit the store");
    }
}
