//! `churn_e2e_group` / `churn_e2e_derived`: request → every member rekeyed,
//! through `NetServer` and a `ClientFleet` of live, signature-verifying
//! clients on the in-process `SimNetwork`.

use crate::gen::{Churn, Request};
use crate::report::{
    peak_rss_mb, set_server_counts, set_up, Kind, KindCounts, Overhead, Plan, Report, Sample,
};
use crate::trace::Recorder;
use kg_client::fleet::{ClientFleet, FleetEvent};
use kg_client::VerifyPolicy;
use kg_core::ids::UserId;
use kg_core::rekey::Strategy;
use kg_crypto::SymmetricKey;
use kg_net::{NetConfig, SimNetwork};
use kg_server::net::{NetServer, ServerEvent};
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use std::time::Instant;

/// Full-size group: per-request cost is n client applies, so n sets both the
/// latency and the O(n²) set-up.
pub const GROUP_SIZE: usize = 512;
const SMOKE_GROUP_SIZE: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fixed 100 µs simulated latency, no loss. The seed only feeds jitter and
/// loss draws, neither of which this configuration makes.
pub fn net_config() -> NetConfig {
    NetConfig {
        latency_min_us: 100,
        latency_max_us: 100,
        loss_probability: 0.0,
        duplicate_probability: 0.0,
        seed: 0,
    }
}

struct System {
    net: SimNetwork,
    server: NetServer,
    fleet: ClientFleet,
}

/// What one request did, as seen from outside the system.
#[derive(Default)]
struct Outcome {
    /// Request hand-off → return of the last pump that rekeyed a member.
    latency_ns: Option<u64>,
    acked: bool,
    packets: u64,
    keys_installed: u64,
    bundles_decrypted: u64,
    bundles_skipped: u64,
    errors: u64,
}

impl System {
    fn new(strategy: Strategy) -> Self {
        let config = ServerConfig::builder()
            .strategy(strategy)
            .auth(AuthPolicy::SignBatch)
            .seed(1)
            .build()
            .expect("valid server config");
        let mut net = SimNetwork::new(net_config());
        let server = GroupKeyServer::new(config, AccessControl::AllowAll);
        let verify = VerifyPolicy::RequireSignature {
            alg: server.config().digest,
            key: server.public_key().expect("signing server has a key").clone(),
        };
        let fleet = ClientFleet::new(server.config().cipher, verify);
        let server = NetServer::new(server, &mut net);
        System { net, server, fleet }
    }

    fn group_key(&self) -> SymmetricKey {
        self.server.inner().tree().group_key().1
    }

    fn converged(&self) -> bool {
        self.fleet.group_key_consensus() == Some(self.group_key())
    }

    /// Add what the network has delivered to `user`'s inbox, as
    /// `(datagrams, bytes)`.
    fn add_received(&self, user: u64, total: &mut (u64, u64)) {
        if let Some(ep) = self.fleet.endpoint(UserId(user)) {
            let stats = self.net.stats(ep);
            total.0 += stats.datagrams_received;
            total.1 += stats.bytes_received;
        }
    }

    /// Hand one request to the system and drive it until the network is quiet.
    fn request(&mut self, req: Request, rec: &mut Recorder) -> Outcome {
        let System { net, server, fleet } = self;
        let mut out = Outcome::default();
        let start = Instant::now();
        rec.span("op", |rec| {
            let to = server.endpoint();
            rec.span("client.request", |_| match req {
                Request::Join(u) => {
                    fleet.send_join_request(net, to, UserId(u));
                }
                Request::Leave(u) => fleet.send_leave_request(net, to, UserId(u)),
            });
            loop {
                rec.span("net.deliver", |_| net.run_until_quiet());
                for event in rec.span("server.poll", |_| server.poll(net)) {
                    match event {
                        ServerEvent::Joined(grant) => rec.span("client.grant", |_| {
                            fleet.apply_grant(
                                grant.user,
                                grant.individual_key.clone(),
                                grant.leaf_label,
                                &grant.path_labels,
                            )
                        }),
                        ServerEvent::Left(_) => {}
                        _ => out.errors += 1,
                    }
                }
                rec.span("net.deliver", |_| net.run_until_quiet());
                let events = rec.span("client.pump", |_| fleet.pump(net));
                let pumped_at = start.elapsed().as_nanos() as u64;
                for event in &events {
                    match event {
                        FleetEvent::Rekeyed(_, s) => {
                            out.latency_ns = Some(pumped_at);
                            out.packets += 1;
                            out.keys_installed += s.keys_installed;
                            out.bundles_decrypted += s.bundles_decrypted;
                            out.bundles_skipped += s.bundles_skipped;
                        }
                        FleetEvent::JoinAcked(_) | FleetEvent::LeaveAcked(_) => out.acked = true,
                        _ => out.errors += 1,
                    }
                }
                if net.pending_total() == 0 {
                    break;
                }
            }
        });
        out
    }

    /// Build the initial membership by `n` per-op joins through the network.
    fn build(strategy: Strategy, n: usize) -> Result<Self, String> {
        let mut sys = System::new(strategy);
        let mut rec = Recorder::new();
        for u in 1..=n as u64 {
            let out = sys.request(Request::Join(u), &mut rec);
            if out.errors > 0 || !out.acked || out.latency_ns.is_none() {
                return Err(format!("set-up join of user {u} failed"));
            }
        }
        Ok(sys)
    }
}

pub fn run(strategy: Strategy, plan: &Plan, rec: &mut Recorder) -> Result<Report, String> {
    let n = if plan.smoke { SMOKE_GROUP_SIZE } else { GROUP_SIZE };
    let mut report = Report::new(plan);
    report.notes.push(format!(
        "n = {n} live clients, {strategy:?}, per-op rekeying, sign-batch, clients require signatures"
    ));
    report.notes.push(
        "closed loop, one request outstanding, one thread; in-process SimNetwork \
         (100 us simulated latency, no loss): no socket is opened"
            .into(),
    );

    let mut sys = set_up(&mut report, plan, SETUPS, || System::build(strategy, n))?;
    if !sys.converged() || sys.server.inner().group_size() != n {
        return Err("set-up did not converge".into());
    }

    let mut churn = Churn::new(plan.seed, n);
    sys.net.reset_stats();
    let mut delivered = (0u64, 0u64);
    let mut samples = Vec::new();
    let (mut joins, mut leaves) = (KindCounts::default(), KindCounts::default());
    let mut overhead = Overhead::default();
    let (mut packets, mut keys, mut decrypted, mut skipped) = (0u64, 0u64, 0u64, 0u64);
    let mut traced_packets = 0u64;

    let started = Instant::now();
    while started.elapsed().as_secs_f64() < plan.seconds && report.attempted < plan.max_ops {
        let req = churn.next_request();
        let traced = Overhead::begin_op(rec, plan, report.attempted);
        let records_before = sys.server.inner().stats().records_pushed();
        let out = sys.request(req, rec);
        report.attempted += 1;

        // Everything below is outside the timed window.
        let Some(ns) = out.latency_ns else {
            report.fail(format!("{req:?}: no member was rekeyed"));
            continue;
        };
        if out.errors > 0 || !out.acked {
            report.fail(format!("{req:?}: refused, unacknowledged, or a rekey failed"));
        }
        overhead.add(traced, ns);
        let ms = ns as f64 / 1e6;
        packets += out.packets;
        keys += out.keys_installed;
        decrypted += out.bundles_decrypted;
        skipped += out.bundles_skipped;
        if traced {
            traced_packets += out.packets;
        }
        let stats = sys.server.inner().stats();
        let record =
            stats.records().last().filter(|_| stats.records_pushed() == records_before + 1);
        match (req, record) {
            (Request::Join(_), Some(r)) => {
                samples.push(Sample { kind: Kind::Join, ms });
                joins.add(r);
            }
            (Request::Leave(_), Some(r)) => {
                samples.push(Sample { kind: Kind::Leave, ms });
                leaves.add(r);
            }
            (_, None) => report.fail(format!("{req:?}: server recorded no operation")),
        }
        if let Request::Leave(u) = req {
            sys.add_received(u, &mut delivered);
            match sys.fleet.remove(&mut sys.net, UserId(u)) {
                Some(gone) if gone.group_key().map(|(_, k)| k) != Some(sys.group_key()) => {}
                _ => report.fail(format!("departed user {u} holds the current group key")),
            }
        }
        if !sys.converged() {
            report.fail(format!("{req:?}: members disagree with the server's group key"));
        }
    }
    if sys.server.inner().group_size() != churn.members().len() {
        report.fail("group size differs from the generator's membership");
    }

    let ops = report.attempted as f64;
    report.set_latency_metrics(&samples, 1.0)?;
    report.set("bytes_per_request", (joins.bytes + leaves.bytes) as f64 / ops);
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

    // Per-layer view: counts over every request, times over the traced blocks.
    for &u in churn.members() {
        sys.add_received(u, &mut delivered);
    }
    let at_server = sys.net.stats(sys.server.endpoint());
    report.set("net.datagrams_per_op", (delivered.0 + at_server.datagrams_received) as f64 / ops);
    report.set("net.bytes_delivered_per_op", (delivered.1 + at_server.bytes_received) as f64 / ops);
    report.set("client.packets_per_op", packets as f64 / ops);
    report.set("client.keys_installed_per_op", keys as f64 / ops);
    report
        .set("client.bundle_useful_share", decrypted as f64 / (decrypted + skipped).max(1) as f64);
    set_server_counts(&mut report, joins, leaves);

    let layers = rec.layers();
    let traced_ops = overhead.traced_ops.max(1) as f64;
    let self_ns = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64);
    report.set("client.pump_ms_per_op", self_ns("client.pump") / 1e6 / traced_ops);
    report.set("client.apply_us_mean", self_ns("client.pump") / 1e3 / traced_packets.max(1) as f64);
    report.set(
        "client.request_us",
        (self_ns("client.request") + self_ns("client.grant")) / 1e3 / traced_ops,
    );
    report.set("net.deliver_ms_per_op", self_ns("net.deliver") / 1e6 / traced_ops);
    report.set_percentile("server.poll_us_p50", &rec.self_ns_per_op("server.poll"), 0.50, 1e-3)?;
    report.set_bench_overheads(rec, &overhead);
    crate::probes::client_crypto(&mut report, strategy == Strategy::Derived);
    Ok(report)
}
