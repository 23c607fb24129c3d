//! End-to-end cluster tests on the deterministic simulator.
//!
//! The load-bearing property: **sharding is invisible**. Any schedule of
//! joins/leaves/refreshes/interval ticks routed through the cluster must
//! leave every member with exactly the keyset a standalone
//! [`GroupKeyServer`] run of the same slice sub-schedule produces — for
//! one shard, that IS the single-server deployment. The reference is
//! rebuilt per slice with the same [`group_seed`]-derived config the node
//! uses, so key material (not just membership) must match byte for byte.

use bytes::Bytes;
use kg_cluster::{group_seed, ShardMap, SimCluster};
use kg_core::ids::UserId;
use kg_core::rekey::Strategy;
use kg_net::{EndpointId, NetConfig, SimNetwork};
use kg_server::net::{leave_authenticator, NetServer, ServerEvent};
use kg_server::{AccessControl, GroupKeyServer, RekeyPolicy, ServerConfig};
use kg_wire::{
    ClusterBody, ClusterEnvelope, ControlMessage, GroupId, RekeyPacket, ShardId, ROUTER_SHARD,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// A benign deterministic LAN: fixed latency (no jitter ⇒ no reordering),
/// no loss — delivery order equals send order, so the cluster processes
/// the schedule exactly as the reference does.
fn lan() -> NetConfig {
    NetConfig {
        latency_min_us: 100,
        latency_max_us: 100,
        loss_probability: 0.0,
        duplicate_probability: 0.0,
        seed: 7,
    }
}

fn unique_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kg-cluster-{tag}-{}-{n}", std::process::id()))
}

const INTERVAL_MS: u64 = 100;

fn template(seed: u64, batched: bool) -> ServerConfig {
    ServerConfig {
        seed,
        rekey: if batched {
            RekeyPolicy::Batched { interval_ms: INTERVAL_MS, max_pending: usize::MAX }
        } else {
            RekeyPolicy::Immediate
        },
        ..ServerConfig::default()
    }
}

/// One step of a routed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Join(GroupId, UserId),
    Leave(GroupId, UserId),
    Refresh(GroupId),
    /// Advance the clock one interval and flush due batches.
    Tick,
}

/// Standalone per-slice servers fed the same sub-schedule the shard map
/// routes to each shard — the "no cluster" baseline.
struct Reference {
    map: ShardMap,
    template: ServerConfig,
    servers: BTreeMap<(GroupId, ShardId), GroupKeyServer>,
}

impl Reference {
    fn new(map: ShardMap, template: ServerConfig) -> Self {
        Reference { map, template, servers: BTreeMap::new() }
    }

    fn server(&mut self, group: GroupId, shard: ShardId) -> &mut GroupKeyServer {
        let tpl = &self.template;
        self.servers.entry((group, shard)).or_insert_with(|| {
            let config = ServerConfig { seed: group_seed(tpl.seed, shard, group), ..tpl.clone() };
            GroupKeyServer::new(config, AccessControl::AllowAll)
        })
    }

    fn apply(&mut self, op: Op, now_ms: u64) {
        match op {
            Op::Join(g, u) => {
                let shard = self.map.owner(g, u);
                self.server(g, shard).handle_join(u).expect("reference join");
            }
            Op::Leave(g, u) => {
                let shard = self.map.owner(g, u);
                self.server(g, shard).handle_leave(u).expect("reference leave");
            }
            Op::Refresh(g) => {
                // The router forwards to the span in shard order; only
                // already-instantiated slices rotate (the node's no-op
                // rule for unhosted groups).
                for shard in self.map.shards_of(g) {
                    if self.servers.contains_key(&(g, shard)) {
                        self.server(g, shard).refresh_group_key().expect("reference refresh");
                    }
                }
            }
            Op::Tick => {
                for s in self.servers.values_mut() {
                    s.tick(now_ms).expect("reference tick");
                }
            }
        }
    }
}

/// Materialize a raw command stream into a valid schedule: joins use
/// fresh users, leaves pick currently-admitted members (tracking batch
/// admission at tick boundaries), and the schedule ends with enough
/// ticks to flush everything.
fn materialize(
    raw: &[(u8, u64)],
    groups: &[GroupId],
    batched: bool,
) -> (Vec<Op>, BTreeSet<(GroupId, UserId)>) {
    let mut ops = Vec::new();
    let mut admitted: BTreeSet<(GroupId, UserId)> = BTreeSet::new();
    let mut pending_join: Vec<(GroupId, UserId)> = Vec::new();
    let mut leaving: BTreeSet<(GroupId, UserId)> = BTreeSet::new();
    let mut next_user = 1u64;
    for &(cmd, pick) in raw {
        let g = groups[(pick % groups.len() as u64) as usize];
        match cmd % 10 {
            0..=4 => {
                let u = UserId(next_user);
                next_user += 1;
                ops.push(Op::Join(g, u));
                if batched {
                    pending_join.push((g, u));
                } else {
                    admitted.insert((g, u));
                }
            }
            5..=7 => {
                let eligible: Vec<_> = admitted.difference(&leaving).copied().collect();
                if eligible.is_empty() {
                    continue;
                }
                let (g, u) = eligible[(pick % eligible.len() as u64) as usize];
                ops.push(Op::Leave(g, u));
                if batched {
                    leaving.insert((g, u));
                } else {
                    admitted.remove(&(g, u));
                }
            }
            8 => ops.push(Op::Refresh(g)),
            _ => {
                ops.push(Op::Tick);
                admitted.extend(pending_join.drain(..));
                for gu in std::mem::take(&mut leaving) {
                    admitted.remove(&gu);
                }
            }
        }
    }
    // Flush the tail so every join has a grant to compare.
    ops.push(Op::Tick);
    admitted.extend(pending_join.drain(..));
    for gu in std::mem::take(&mut leaving) {
        admitted.remove(&gu);
    }
    (ops, admitted)
}

/// Drive `ops` through both the cluster and the reference, then assert
/// every admitted member's keyset matches byte for byte.
fn run_equivalence(
    shards: u16,
    span: u16,
    batched: bool,
    strategy: Strategy,
    ops: &[Op],
    admitted: &BTreeSet<(GroupId, UserId)>,
) {
    let spanned = GroupId(1);
    let map = ShardMap::new(shards).with_span(spanned, span);
    let tpl = ServerConfig { strategy, ..template(42, batched) };
    let mut cluster =
        SimCluster::new(map.clone(), tpl.clone(), AccessControl::AllowAll, lan(), None);
    let mut reference = Reference::new(map.clone(), tpl);
    let mut now_ms = 0u64;
    for &op in ops {
        match op {
            Op::Join(g, u) => cluster.join(g, u),
            Op::Leave(g, u) => {
                // The cluster-side leave needs the grant; deliver it.
                cluster.settle();
                cluster.leave(g, u);
            }
            Op::Refresh(g) => cluster.refresh(g),
            Op::Tick => {
                now_ms += INTERVAL_MS;
                cluster.tick(now_ms);
            }
        }
        reference.apply(op, now_ms);
    }
    cluster.settle();

    for &(g, u) in admitted {
        let shard = map.owner(g, u);
        let cluster_ks = cluster
            .slice_server(g, u)
            .unwrap_or_else(|| panic!("cluster hosts {g:?} slice for {u:?}"))
            .tree()
            .keyset(u);
        let reference_ks = reference.server(g, shard).tree().keyset(u);
        assert!(cluster_ks.is_some(), "{u:?} admitted in cluster run of {g:?}");
        assert_eq!(cluster_ks, reference_ks, "keyset mismatch for {u:?} in {g:?}");
        assert!(cluster.grant(g, u).is_some(), "{u:?} holds a grant");
    }
    // Membership matches slice by slice, not just for sampled users.
    for g in [GroupId(1), GroupId(2)] {
        for shard in map.shards_of(g) {
            let want = reference.servers.get(&(g, shard)).map_or(0, |s| s.group_size());
            let got = cluster
                .nodes
                .iter()
                .find(|n| n.shard() == shard)
                .and_then(|n| n.group(g))
                .map_or(0, |s| s.group_size());
            assert_eq!(got, want, "slice size mismatch for {g:?} on {shard:?}");
        }
    }
}

#[test]
fn smoke_immediate_mode_session() {
    let g = GroupId(2);
    let map = ShardMap::new(2);
    let mut cluster =
        SimCluster::new(map, template(1, false), AccessControl::AllowAll, lan(), None);
    for u in 1..=6 {
        cluster.join(g, UserId(u));
    }
    cluster.settle();
    assert_eq!(cluster.group_size(g), 6);
    for u in 1..=6 {
        assert!(cluster.grant(g, UserId(u)).is_some(), "user {u} granted");
        let t = cluster.traffic(g, UserId(u));
        assert!(t.acks >= 1, "user {u} acked");
    }
    // Later joiners' rekey traffic reaches earlier members via the slice
    // multicast / unicast sets.
    assert!(cluster.traffic(g, UserId(1)).rekeys > 0, "member 1 saw rekeys");
    cluster.leave(g, UserId(3));
    cluster.settle();
    assert_eq!(cluster.group_size(g), 5);
    cluster.refresh(g);
    cluster.settle();
    assert_eq!(cluster.group_size(g), 5);
    let (_, router_events) = cluster.take_events();
    assert!(!router_events.is_empty());
}

#[test]
fn unauthenticated_leave_is_denied() {
    let g = GroupId(2);
    let mut cluster =
        SimCluster::new(ShardMap::new(2), template(1, false), AccessControl::AllowAll, lan(), None);
    cluster.join(g, UserId(1));
    cluster.settle();
    // Forge a leave with the wrong key: the shard must refuse it.
    let bogus = kg_server::net::leave_authenticator(UserId(1), b"not-the-individual-key");
    let ep = cluster.client_endpoint(g, UserId(1));
    let env = kg_wire::ClusterEnvelope::new(
        kg_wire::ROUTER_SHARD,
        g,
        kg_wire::ClusterBody::Control(kg_wire::ControlMessage::LeaveRequest {
            user: UserId(1),
            auth: bogus,
        }),
    );
    let router = cluster.router.endpoint();
    cluster.net.send_unicast(ep, router, bytes::Bytes::from(env.encode()));
    cluster.settle();
    assert_eq!(cluster.group_size(g), 1, "member still admitted");
}

#[test]
fn equivalence_fixed_batched_spanned() {
    // A deterministic schedule covering the interesting transitions:
    // spanned group, batched intervals, leaves and refreshes interleaved.
    let groups = [GroupId(1), GroupId(2)];
    let raw: Vec<(u8, u64)> = (0..60u64).map(|i| ((i % 10) as u8, i * 7 + 3)).collect();
    let (ops, admitted) = materialize(&raw, &groups, true);
    run_equivalence(4, 3, true, Strategy::GroupOriented, &ops, &admitted);
}

#[test]
fn equivalence_derived_strategy_immediate() {
    // Client-derived rekeying draws derivation codes from the same DRBG
    // as the keys, so sharding must preserve the exact draw schedule:
    // any divergence shows up as a keyset mismatch here.
    let groups = [GroupId(1), GroupId(2)];
    let raw: Vec<(u8, u64)> = (0..60u64).map(|i| ((i % 9) as u8, i * 11 + 5)).collect();
    let (ops, admitted) = materialize(&raw, &groups, false);
    run_equivalence(3, 2, false, Strategy::Derived, &ops, &admitted);
}

#[test]
fn equivalence_derived_strategy_batched() {
    let groups = [GroupId(1), GroupId(2)];
    let raw: Vec<(u8, u64)> = (0..60u64).map(|i| ((i % 10) as u8, i * 17 + 9)).collect();
    let (ops, admitted) = materialize(&raw, &groups, true);
    run_equivalence(4, 3, true, Strategy::Derived, &ops, &admitted);
}

#[test]
fn equivalence_single_shard_is_single_server() {
    // shards = 1: the cluster degenerates to the literal single-server
    // deployment, routed through the relay.
    let groups = [GroupId(1), GroupId(2)];
    let raw: Vec<(u8, u64)> = (0..40u64).map(|i| ((i % 9) as u8, i * 13 + 1)).collect();
    let (ops, admitted) = materialize(&raw, &groups, false);
    run_equivalence(1, 1, false, Strategy::GroupOriented, &ops, &admitted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any schedule, any shard count (1..=4), spanned or not, immediate
    /// or batched: cluster keysets equal single-server keysets.
    #[test]
    fn cluster_routes_any_schedule_like_a_single_server(
        raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..50),
        shards in 1..=4u16,
        span in 1..=4u16,
        batched in any::<bool>(),
        derived in any::<bool>(),
    ) {
        let groups = [GroupId(1), GroupId(2)];
        let strategy = if derived { Strategy::Derived } else { Strategy::GroupOriented };
        let (ops, admitted) = materialize(&raw, &groups, batched);
        run_equivalence(shards, span.min(shards), batched, strategy, &ops, &admitted);
    }
}

#[test]
fn shard_crash_mid_interval_recovers_and_converges() {
    let g = GroupId(1);
    let root = unique_dir("crash");
    let map = ShardMap::new(2).with_span(g, 2);
    let tpl = template(9, true);
    let mut cluster =
        SimCluster::new(map.clone(), tpl.clone(), AccessControl::AllowAll, lan(), Some(&root));
    let mut reference = Reference::new(map.clone(), tpl);
    let mut now_ms = 0;

    // Interval 1: admit a base population.
    for u in 1..=8 {
        cluster.join(g, UserId(u));
        reference.apply(Op::Join(g, UserId(u)), now_ms);
    }
    now_ms += INTERVAL_MS;
    cluster.tick(now_ms);
    reference.apply(Op::Tick, now_ms);

    // Mid-interval 2: more churn lands in the shards' queues (WAL-logged
    // as enqueues) but is NOT yet flushed...
    for u in 9..=12 {
        cluster.join(g, UserId(u));
        reference.apply(Op::Join(g, UserId(u)), now_ms);
    }
    cluster.settle();
    cluster.leave(g, UserId(2));
    reference.apply(Op::Leave(g, UserId(2)), now_ms);
    cluster.settle();

    // ...then one shard dies and comes back from WAL + snapshot, with
    // its pending queue intact.
    let victim = map.home(g);
    cluster.crash_node(victim);
    cluster.recover_node(victim).expect("node recovers from its slice directories");

    // Interval 2 flushes after recovery; then one more interval of churn.
    now_ms += INTERVAL_MS;
    cluster.tick(now_ms);
    reference.apply(Op::Tick, now_ms);
    for u in 13..=16 {
        cluster.join(g, UserId(u));
        reference.apply(Op::Join(g, UserId(u)), now_ms);
    }
    cluster.settle();
    cluster.leave(g, UserId(5));
    reference.apply(Op::Leave(g, UserId(5)), now_ms);
    now_ms += INTERVAL_MS;
    cluster.tick(now_ms);
    reference.apply(Op::Tick, now_ms);

    let admitted: BTreeSet<UserId> =
        (1..=16).map(UserId).filter(|u| ![UserId(2), UserId(5)].contains(u)).collect();
    assert_eq!(cluster.group_size(g), admitted.len());
    for &u in &admitted {
        let shard = map.owner(g, u);
        let cluster_ks = cluster.slice_server(g, u).expect("hosted").tree().keyset(u);
        let reference_ks = reference.server(g, shard).tree().keyset(u);
        assert!(cluster_ks.is_some(), "{u:?} admitted after crash");
        assert_eq!(cluster_ks, reference_ks, "crash+recover diverged for {u:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn telemetry_merges_and_traces_stitch() {
    let g = GroupId(2);
    let mut cluster =
        SimCluster::new(ShardMap::new(2), template(3, false), AccessControl::AllowAll, lan(), None);
    cluster.enable_telemetry(50);
    for u in 1..=6 {
        cluster.join(g, UserId(u));
    }
    cluster.settle();
    cluster.leave(g, UserId(3));
    cluster.settle();
    // First tick past the interval: every node pushes a snapshot with
    // its counter deltas and the trace spans recorded so far.
    cluster.tick(100);

    cluster.request_metrics(0);
    cluster.request_trace(0);
    cluster.settle();
    let replies = cluster.take_admin_replies();

    let metrics = replies
        .iter()
        .find_map(|env| match &env.body {
            kg_wire::ClusterBody::MetricsReport { text } => Some(text.clone()),
            _ => None,
        })
        .expect("router answered the metrics request");
    // The merged view carries both node-pushed server counters and the
    // router-side telemetry-plane gauges.
    assert!(metrics.contains("kg_requests_total"), "merged node counters present:\n{metrics}");
    assert!(
        metrics.contains("kg_cluster_telemetry_snapshots_total"),
        "per-shard stream health present:\n{metrics}"
    );
    assert!(metrics.contains("kg_cluster_shard_skew_pct"), "skew gauge present:\n{metrics}");

    let (trace_id, spans) = replies
        .iter()
        .find_map(|env| match &env.body {
            kg_wire::ClusterBody::TraceReport { trace_id, spans } => {
                Some((*trace_id, spans.clone()))
            }
            _ => None,
        })
        .expect("router answered the trace request");
    assert_ne!(trace_id, 0, "a fully-stitched trace exists");
    let traces = kg_obs::trace::reassemble(spans);
    assert_eq!(traces.len(), 1, "the report holds exactly one trace");
    let trace = &traces[0];
    assert_eq!(trace.trace_id, trace_id);
    assert!(trace.is_stitched(), "router and node halves joined up");
    let hops = trace.hops();
    assert!(hops.contains(&0) && hops.contains(&1), "both sides present: {hops:?}");
    assert!(
        trace.spans.iter().any(|s| s.hop == 0 && s.path == "router.recv"),
        "router request-side root present"
    );
    assert!(
        trace.spans.iter().any(|s| s.hop == 1 && s.path == "node.parse"),
        "node-internal root present"
    );
    // The router-observed window (ingress to fan-out, one clock) covers
    // the node-internal processing window.
    let router_window = trace.window_us(&[0, 2]);
    let node_window = trace.window_us(&[1]);
    assert!(router_window > 0, "router window observed");
    assert!(node_window <= router_window, "node work fits the end-to-end window");
    let rendered = trace.render();
    assert!(rendered.contains("router.recv"), "render names the root:\n{rendered}");

    // The flight recorder holds the recent snapshots and the merged view.
    let dump = cluster.router.flight_recorder_dump();
    assert!(dump.contains("\"snapshots\""), "flight recorder captured pushes:\n{dump}");
}

/// Shard-plane bodies (acks, grants, rekeys, shutdown acks, stats and
/// telemetry) are acted on only from the endpoint registered for the
/// shard they name: a member endpoint naming a thousand shards that do
/// not exist adds no per-shard state, and its forged rekey reaches nobody.
#[test]
fn shard_plane_traffic_from_an_unregistered_endpoint_adds_no_state() {
    let g = GroupId(2);
    let mut cluster =
        SimCluster::new(ShardMap::new(2), template(3, false), AccessControl::AllowAll, lan(), None);
    cluster.enable_telemetry(50);
    for u in 1..=4 {
        cluster.join(g, UserId(u));
    }
    cluster.settle();
    cluster.tick(100);
    cluster.settle();
    cluster.take_events();
    let shards = |c: &SimCluster| -> Vec<ShardId> {
        c.router.merger().shard_health().into_iter().map(|(s, _, _)| s).collect()
    };
    assert_eq!(shards(&cluster), [ShardId(0), ShardId(1)]);
    let rekeys =
        |c: &SimCluster| -> Vec<u64> { (1..=4).map(|u| c.traffic(g, UserId(u)).rekeys).collect() };
    let rekeys_before = rekeys(&cluster);
    let counter = |c: &SimCluster, name: &str| -> u64 {
        c.router.obs().counter_values().into_iter().find(|(n, _)| n == name).map_or(0, |(_, v)| v)
    };
    let multicasts_before = counter(&cluster, "kg_cluster_rekey_multicast_total");

    let forger = cluster.client_endpoint(g, UserId(1));
    let router = cluster.router.endpoint();
    for shard in 100..1_100u16 {
        let snapshot = kg_wire::TelemetrySnapshot {
            seq: 1,
            at_us: 0,
            counters: vec![("kg_requests_total{kind=\"join\"}".into(), 1)],
            gauges: Vec::new(),
            hists: Vec::new(),
            spans: Vec::new(),
        };
        let env = ClusterEnvelope::new(ShardId(shard), g, ClusterBody::Telemetry { snapshot });
        cluster.net.send_unicast(forger, router, Bytes::from(env.encode()));
    }
    let forged =
        ClusterEnvelope::new(ShardId(0), g, ClusterBody::RekeyGroup { payload: vec![7; 64] });
    cluster.net.send_unicast(forger, router, Bytes::from(forged.encode()));
    cluster.settle();

    assert_eq!(shards(&cluster), [ShardId(0), ShardId(1)], "the merger holds registered shards");
    assert_eq!(counter(&cluster, "kg_cluster_rekey_multicast_total"), multicasts_before);
    assert_eq!(rekeys(&cluster), rekeys_before, "nothing was multicast");
    assert_eq!(counter(&cluster, "kg_cluster_unregistered_total"), 1_001);
    assert!(
        cluster.router.obs().counter_values().iter().all(|(n, _)| !n.contains("shard=\"100\"")),
        "no series for an unregistered shard"
    );
    let (_, events) = cluster.take_events();
    assert_eq!(events.len(), 1_001);
    assert!(events.iter().all(|e| *e == kg_cluster::RouterEvent::BadDatagram { from: forger }));
}

#[test]
fn clean_shutdown_leaves_zero_wal_tail() {
    let g = GroupId(1);
    let root = unique_dir("shutdown");
    let map = ShardMap::new(3).with_span(g, 3);
    let mut cluster = SimCluster::new(
        map.clone(),
        template(5, true),
        AccessControl::AllowAll,
        lan(),
        Some(&root),
    );
    for u in 1..=20 {
        cluster.join(g, UserId(u));
    }
    cluster.settle();
    // Shutdown arrives MID-INTERVAL: the queues still hold all 20 joins.
    // The admin handshake must flush them, snapshot, and leave nothing
    // for a restart to replay.
    let (members, wal_tail) = cluster.shutdown();
    assert_eq!(members, 20, "final flush ran before the ack");
    assert_eq!(wal_tail, 0, "final snapshots cover the whole WAL");

    // A restart replays nothing and sees the full membership.
    for shard in map.all_shards() {
        cluster.net.restart(cluster.nodes[shard.0 as usize].endpoint());
        cluster.recover_node(shard).expect("clean restart");
    }
    assert_eq!(cluster.group_size(g), 20);
    for node in &cluster.nodes {
        assert_eq!(node.wal_tail_total(), 0, "nothing replayed on {:?}", node.shard());
    }
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------------------------
// Delivery order: one scenario, every front-end and configuration.
// ---------------------------------------------------------------------------

/// What a member's endpoint received, in arrival order. (The cluster's
/// out-of-band `Grant` envelope is consumed for its key, not listed.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    JoinGranted,
    JoinDenied,
    LeaveGranted,
    Rekey,
}

/// A key-server deployment as one member-facing surface: the single
/// `NetServer`, or a router with shard nodes behind it.
trait FrontEnd {
    /// Send `user`'s join request from the user's own endpoint.
    fn join(&mut self, user: UserId);
    /// Send `user`'s authenticated leave request from its endpoint.
    fn leave(&mut self, user: UserId);
    /// Let every request in flight reach its server and every answer its
    /// member, without advancing the clock.
    fn settle(&mut self);
    /// [`Self::settle`], then advance one rekey interval, tick, and settle.
    fn step(&mut self);
    /// Drain `user`'s inbox.
    fn drain(&mut self, user: UserId) -> Vec<Seen>;
}

fn classify(payload: &[u8]) -> Seen {
    match ControlMessage::decode(payload) {
        Ok(ControlMessage::JoinGranted { .. }) => Seen::JoinGranted,
        Ok(ControlMessage::JoinDenied { .. }) => Seen::JoinDenied,
        Ok(ControlMessage::LeaveGranted { .. }) => Seen::LeaveGranted,
        Ok(other) => panic!("unexpected control message at a member: {other:?}"),
        Err(_) => {
            assert!(RekeyPacket::sniff(payload), "neither an ack nor a rekey packet");
            Seen::Rekey
        }
    }
}

struct Single {
    net: SimNetwork,
    server: NetServer,
    eps: BTreeMap<UserId, EndpointId>,
    keys: BTreeMap<UserId, Vec<u8>>,
    now_ms: u64,
}

impl Single {
    fn new(config: ServerConfig, acl: AccessControl) -> Self {
        let mut net = SimNetwork::new(lan());
        let server = NetServer::new(GroupKeyServer::new(config, acl), &mut net);
        Single { net, server, eps: BTreeMap::new(), keys: BTreeMap::new(), now_ms: 0 }
    }

    fn request(&mut self, user: UserId, msg: ControlMessage) {
        let net = &mut self.net;
        let ep = *self.eps.entry(user).or_insert_with(|| net.endpoint());
        net.send_unicast(ep, self.server.endpoint(), Bytes::from(msg.encode()));
    }

    fn absorb(&mut self, events: Vec<ServerEvent>) {
        for event in events {
            if let ServerEvent::Joined(grant) = event {
                self.keys.insert(grant.user, grant.individual_key.material().to_vec());
            }
        }
        self.net.run_until_quiet();
    }
}

impl FrontEnd for Single {
    fn join(&mut self, user: UserId) {
        self.request(user, ControlMessage::JoinRequest { user });
    }

    fn leave(&mut self, user: UserId) {
        let auth = leave_authenticator(user, &self.keys[&user]);
        self.request(user, ControlMessage::LeaveRequest { user, auth });
    }

    fn settle(&mut self) {
        self.net.run_until_quiet();
        let events = self.server.poll(&mut self.net);
        self.absorb(events);
    }

    fn step(&mut self) {
        self.settle();
        self.now_ms += INTERVAL_MS;
        let events = self.server.tick(&mut self.net, self.now_ms);
        self.absorb(events);
    }

    fn drain(&mut self, user: UserId) -> Vec<Seen> {
        let ep = self.eps[&user];
        std::iter::from_fn(|| self.net.recv(ep)).map(|dg| classify(&dg.payload)).collect()
    }
}

/// One shard, one group: the cluster that must be indistinguishable from
/// [`Single`]. Driven through the public fields rather than
/// `SimCluster::settle`, which would drain the member inboxes this
/// scenario reads.
struct Sharded {
    cluster: SimCluster,
    keys: BTreeMap<UserId, Vec<u8>>,
    now_ms: u64,
}

const SHARDED_GROUP: GroupId = GroupId(2);

impl Sharded {
    fn new(
        config: ServerConfig,
        acl: AccessControl,
        persist_root: Option<&std::path::Path>,
    ) -> Self {
        let cluster = SimCluster::new(ShardMap::new(1), config, acl, lan(), persist_root);
        Sharded { cluster, keys: BTreeMap::new(), now_ms: 0 }
    }
}

impl FrontEnd for Sharded {
    fn join(&mut self, user: UserId) {
        self.cluster.join(SHARDED_GROUP, user);
    }

    fn leave(&mut self, user: UserId) {
        let auth = leave_authenticator(user, &self.keys[&user]);
        let msg = ControlMessage::LeaveRequest { user, auth };
        let env = ClusterEnvelope::new(ROUTER_SHARD, SHARDED_GROUP, ClusterBody::Control(msg));
        let ep = self.cluster.client_endpoint(SHARDED_GROUP, user);
        let router = self.cluster.router.endpoint();
        self.cluster.net.send_unicast(ep, router, Bytes::from(env.encode()));
    }

    fn settle(&mut self) {
        let c = &mut self.cluster;
        loop {
            c.net.run_until_quiet();
            let mut progress = !c.router.poll(&mut c.net).is_empty();
            for node in &mut c.nodes {
                progress |= !node.poll(&mut c.net).is_empty();
            }
            if !progress {
                return;
            }
        }
    }

    fn step(&mut self) {
        self.settle();
        self.now_ms += INTERVAL_MS;
        for node in &mut self.cluster.nodes {
            node.tick(&mut self.cluster.net, self.now_ms);
        }
        self.settle();
    }

    fn drain(&mut self, user: UserId) -> Vec<Seen> {
        let ep = self.cluster.client_endpoint(SHARDED_GROUP, user);
        let mut seen = Vec::new();
        while let Some(dg) = self.cluster.net.recv(ep) {
            if !ClusterEnvelope::sniff(&dg.payload) {
                seen.push(classify(&dg.payload));
            } else if let Ok(ClusterEnvelope {
                body: ClusterBody::Grant { user, key, .. }, ..
            }) = ClusterEnvelope::decode(&dg.payload)
            {
                self.keys.insert(user, key);
            }
        }
        seen
    }
}

/// The security-relevant order of delivery, which every front-end takes
/// from `ProcessedOp::delivery`: a departed member's endpoint sees its
/// `LeaveGranted` and nothing after it, and a joiner sees `JoinGranted`
/// before its first rekey packet — whether the request was carried out on
/// arrival or with its interval.
fn delivery_order_scenario(fe: &mut dyn FrontEnd, what: &str) {
    let joined_then_keyed = |seen: &[Seen], who: &str| {
        let ack = seen.iter().position(|s| *s == Seen::JoinGranted);
        let rekey = seen.iter().position(|s| *s == Seen::Rekey);
        assert!(ack.is_some() && rekey.is_some(), "{what}: {who} saw {seen:?}");
        assert!(ack < rekey, "{what}: {who} got a rekey packet before its ack: {seen:?}");
    };
    for u in 1..=4 {
        fe.join(UserId(u));
    }
    fe.step();
    for u in 1..=4 {
        joined_then_keyed(&fe.drain(UserId(u)), "a founder");
    }

    // A leave and a join (one interval, on a batching server).
    fe.leave(UserId(1));
    fe.join(UserId(5));
    fe.step();
    assert_eq!(fe.drain(UserId(1)), [Seen::LeaveGranted], "{what}: the departed member's inbox");
    joined_then_keyed(&fe.drain(UserId(5)), "the newcomer");
    assert!(fe.drain(UserId(2)).contains(&Seen::Rekey), "{what}: survivors are rekeyed");

    // Leave, then rejoin before the clock moves: inside one interval on a
    // batching server (not a departure), two operations otherwise. Either
    // way the member ends up admitted, acked last with a grant, and still
    // subscribed when the next operation's traffic goes out.
    fe.leave(UserId(2));
    fe.settle();
    fe.join(UserId(2));
    fe.step();
    let seen = fe.drain(UserId(2));
    let granted = seen.iter().rposition(|s| *s == Seen::JoinGranted);
    let granted = granted.unwrap_or_else(|| panic!("{what}: the rejoiner saw {seen:?}"));
    joined_then_keyed(&seen[granted..], "the rejoiner");
    assert!(!seen[granted..].contains(&Seen::LeaveGranted), "{what}: the rejoiner saw {seen:?}");
    fe.drain(UserId(3));
    fe.leave(UserId(3));
    fe.step();
    assert_eq!(fe.drain(UserId(3)), [Seen::LeaveGranted], "{what}: the second departure");
    assert!(fe.drain(UserId(2)).contains(&Seen::Rekey), "{what}: the rejoiner stayed subscribed");
}

#[test]
fn departed_see_their_ack_last_and_joiners_see_theirs_first() {
    for batched in [false, true] {
        for strategy in Strategy::EVERY {
            let config = ServerConfig { strategy, ..template(3, batched) };
            let what = format!("{strategy:?}, batched = {batched}");
            let acl = AccessControl::AllowAll;
            delivery_order_scenario(
                &mut Single::new(config.clone(), acl.clone()),
                &format!("NetServer, {what}"),
            );
            delivery_order_scenario(
                &mut Sharded::new(config, acl, None),
                &format!("one-shard cluster, {what}"),
            );
        }
    }
}

/// Admission control comes before the slice exists: a join the ACL denies
/// for a group the node does not host yet is answered `JoinDenied` without
/// building a key server or touching the disk.
#[test]
fn denied_first_join_creates_no_slice() {
    let root = unique_dir("denied");
    let acl = AccessControl::allow_list([UserId(1)]);
    let mut fe = Sharded::new(template(4, false), acl, Some(&root));
    fe.join(UserId(7));
    fe.step();
    assert_eq!(fe.drain(UserId(7)), [Seen::JoinDenied]);
    let node = &fe.cluster.nodes[0];
    assert_eq!(node.slices().count(), 0, "no key server for a denied join");
    let slice_dir = root.join("shard-0").join(format!("group-{}", SHARDED_GROUP.0));
    assert!(!slice_dir.exists(), "no store for a denied join");

    // The permitted user's join then creates both.
    fe.join(UserId(1));
    fe.step();
    assert_eq!(fe.drain(UserId(1))[0], Seen::JoinGranted);
    assert_eq!(fe.cluster.nodes[0].slices().count(), 1);
    assert!(slice_dir.exists());
    std::fs::remove_dir_all(&root).ok();
}
