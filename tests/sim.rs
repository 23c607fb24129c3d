//! A deterministic fault-injection runner for the networked system:
//! `NetServer` and a `ClientFleet` over a seeded `SimNetwork`.
//!
//! A [`Scenario`] is a seed, a schedule of joins, leaves, refreshes and
//! ticks, and a fault plan, and every run replays exactly from it. The
//! faults are the ones the system claims to survive (every one but loss):
//!
//! * **duplication and reordering:** one datagram copy in five is
//!   duplicated, and every copy arrives after 50–500 µs of jitter, so
//!   copies overtake each other and a late duplicate can land after the
//!   next operation's rekey;
//! * **a server crash** at a chosen step: the `NetServer` is dropped with
//!   its store directory kept, its endpoint crashes, and it comes back
//!   through `GroupKeyServer::recover` + `NetServer::resume` with the
//!   driver's copy of its directory;
//! * **overload:** a batched server whose `batch-max-pending` is reached,
//!   so intervals flush on depth;
//! * **a delayed duplicate** of one step's request, delivered later on
//!   (used to pin the re-admission defect below).
//!
//! After every interval (each `Tick`, and the end of the schedule) the
//! runner checks three invariants:
//!
//! * **(a) convergence,** in inclusion form: each live member's live
//!   labels are exactly its path in the paper's §2 key graph,
//!   `KeyTree::to_key_graph().keyset(u)`, at the server's versions and
//!   values. A member also keeps the key of a k-node that a leave pruned
//!   from its path (no packet names the pruned node); such dead keys are
//!   counted, not failed.
//! * **(b) derivation-closure secrecy over the wiretap of the whole run,**
//!   crash included: a departed member that replays every recorded rekey
//!   packet, alone or all in order, reaches no key the tree holds.
//! * **(n) one nonce per key,** over the same wiretap: no two bundles share
//!   (`encrypted_with`, N), N being the nonce their IV E_K(N) is derived
//!   from, unless the two are the same bundle byte for byte (a duplicate,
//!   a redelivery, or a stored ciphertext resent). A repeated IV under one
//!   key with another plaintext is what the IV construction must rule out.
//!
//! When a scenario fails, a small delta-debugger ([`shrink`]) drops
//! schedule steps and faults while the failure persists and prints the
//! minimal failing (schedule, fault plan) pair; the vendored proptest
//! does not shrink.

use bytes::Bytes;
use keygraphs::client::fleet::{ClientFleet, FleetEvent};
use keygraphs::client::{Client, ClientError, VerifyPolicy};
use keygraphs::core::ids::{KeyRef, UserId};
use keygraphs::core::rekey::{bundle_nonce, KeyBundle, Strategy, NONCE_LEN};
use keygraphs::core::serial::root_digest;
use keygraphs::crypto::SymmetricKey;
use keygraphs::net::{Datagram, EndpointId, MulticastAddr, NetConfig, SimNetwork, Transport};
use keygraphs::persist::PersistConfig;
use keygraphs::server::net::{leave_authenticator, NetServer, ServerEvent};
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use keygraphs::wire::{ControlMessage, RekeyPacket, RekeyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The tier-1 seed list.
const SEEDS: [u64; 6] = [5, 29, 101, 202, 303, 404];

/// Requests per generated schedule.
const REQUESTS: usize = 40;

/// Virtual time one step of the run lets pass while datagrams are in
/// flight; an idle network jumps to the next millisecond, where a batching
/// server's deadlines fall.
const STEP_US: u64 = 25;

/// Virtual time between two requests of one burst. With the jump above,
/// operations the requests start are more than the 500 µs jitter window
/// apart, so one operation's packets never overtake the last one's: the
/// client refuses the older interval, and a member that misses one has no
/// way back (no repair plane yet). [`Fault::Unspaced`] drops the spacing,
/// and `an_overtaken_interval_strands_a_member` pins what then goes wrong.
const SPACING_US: u64 = 1_000;

/// Virtual time an interval may take to settle before the run fails.
const SETTLE_BUDGET_US: u64 = 2_000_000;

/// The overloaded server's queue depth and (long) interval.
const MAX_PENDING: usize = 3;
const OVERLOAD_INTERVAL_MS: u64 = 50;

/// How the server schedules its rekeying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// One rekey per request.
    Immediate,
    /// 1 ms intervals with room for every request.
    Batched,
    /// 50 ms intervals that flush once [`MAX_PENDING`] requests queue.
    Overloaded,
}

/// One step of a schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// A new user asks to join.
    Join,
    /// The present member at this position (modulo their number) asks to
    /// leave; skipped when no member is present.
    Leave(usize),
    /// The server rotates the group key, when nothing is queued.
    Refresh,
    /// Time passes until every request since the last tick is answered
    /// and every member is consistent; then the invariants are checked.
    Tick,
}

/// One fault of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Duplication 0.2 and 50–500 µs jitter, for the whole run.
    Duplicate,
    /// The requests of a burst go out back to back instead of
    /// [`SPACING_US`] apart, so a batching server can flush two intervals
    /// within the jitter window and their packets arrive reordered (used
    /// to pin the stranded-member defect below).
    Unspaced,
    /// The server crashes as soon as step `at`'s request has reached it
    /// (queued on a batching server), or before the next step when step
    /// `at` sent none, and recovers from its store.
    Crash { at: usize },
    /// Just before step `at`, the network delivers a late copy of the
    /// request step `of` sent.
    Replay { of: usize, at: usize },
}

/// A run, replayable from its fields alone.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Scenario {
    seed: u64,
    strategy: Strategy,
    mode: Mode,
    schedule: Vec<Step>,
    faults: Vec<Fault>,
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed {}, {}, {:?}\n  schedule: {:?}\n  faults:   {:?}",
            self.seed, self.strategy, self.mode, self.schedule, self.faults
        )
    }
}

impl Scenario {
    /// The seeded scenario: a few joins, then [`REQUESTS`] joins, leaves
    /// and the odd refresh, with a tick after each request (after bursts
    /// of two to six when overloaded), duplication throughout and one
    /// crash.
    fn generate(seed: u64, strategy: Strategy, mode: Mode) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = vec![Step::Join, Step::Join, Step::Join, Step::Tick];
        let mut requests = 0;
        while requests < REQUESTS {
            let burst = if mode == Mode::Overloaded { rng.gen_range(2..=6) } else { 1 };
            for _ in 0..burst {
                schedule.push(match rng.gen_range(0..20) {
                    0 => Step::Refresh,
                    1..=8 => Step::Leave(rng.gen_range(0..64)),
                    _ => Step::Join,
                });
                requests += 1;
            }
            schedule.push(Step::Tick);
        }
        let crash = rng.gen_range(4..schedule.len());
        Scenario {
            seed,
            strategy,
            mode,
            schedule,
            faults: vec![Fault::Duplicate, Fault::Crash { at: crash }],
        }
    }

    /// This scenario without the steps in `range`. A fault positioned at a
    /// removed step moves to the first step after the range; a replay of
    /// a removed request is dropped.
    fn without_steps(&self, range: std::ops::Range<usize>) -> Self {
        let removed = range.len();
        let shift = |i: usize| {
            if i < range.start {
                i
            } else if i < range.end {
                range.start
            } else {
                i - removed
            }
        };
        let faults = self
            .faults
            .iter()
            .filter_map(|&f| match f {
                Fault::Duplicate | Fault::Unspaced => Some(f),
                Fault::Crash { at } => Some(Fault::Crash { at: shift(at) }),
                Fault::Replay { of, .. } if range.contains(&of) => None,
                Fault::Replay { of, at } => Some(Fault::Replay { of: shift(of), at: shift(at) }),
            })
            .collect();
        let mut schedule = self.schedule.clone();
        schedule.drain(range);
        Scenario { schedule, faults, ..self.clone() }
    }
}

/// What a passing run observed.
#[derive(Debug, Default, Clone, Copy)]
struct Report {
    /// Intervals settled and checked.
    intervals: u64,
    /// Late duplicates a member refused as `StaleInterval`.
    stale: u64,
    /// Departed members the server counts as members again.
    readmitted: u64,
    /// Members holding a pruned k-node's (dead) key, summed over checks.
    lingering: u64,
    /// Crashes survived.
    crashes: u64,
    /// Intervals that flushed with at least [`MAX_PENDING`] requests.
    full_flushes: u64,
    /// Requests queued at a crash, summed: crashes that struck mid-interval
    /// recovered them from the log.
    queued_at_crash: u64,
    /// Distinct (key, nonce) pairs in the wiretap.
    nonces: u64,
    /// Recorded bundles that repeated an earlier one byte for byte.
    resent_bundles: u64,
}

impl std::ops::AddAssign for Report {
    fn add_assign(&mut self, r: Report) {
        self.intervals += r.intervals;
        self.stale += r.stale;
        self.readmitted += r.readmitted;
        self.lingering += r.lingering;
        self.crashes += r.crashes;
        self.full_flushes += r.full_flushes;
        self.queued_at_crash += r.queued_at_crash;
        self.nonces += r.nonces;
        self.resent_bundles += r.resent_bundles;
    }
}

/// A simulated network with a wiretap on every rekey datagram sent.
struct Tapped {
    net: SimNetwork,
    tap: Vec<Bytes>,
}

impl Tapped {
    fn record(&mut self, payload: &Bytes) {
        if RekeyPacket::sniff(payload) {
            self.tap.push(payload.clone());
        }
    }
}

impl Transport for Tapped {
    fn endpoint(&mut self) -> EndpointId {
        self.net.endpoint()
    }
    fn close(&mut self, ep: EndpointId) {
        self.net.close(ep)
    }
    fn multicast_group(&mut self) -> MulticastAddr {
        self.net.multicast_group()
    }
    fn join_group(&mut self, group: MulticastAddr, ep: EndpointId) {
        self.net.join_group(group, ep)
    }
    fn leave_group(&mut self, group: MulticastAddr, ep: EndpointId) {
        self.net.leave_group(group, ep)
    }
    fn send_unicast(&mut self, from: EndpointId, to: EndpointId, payload: Bytes) {
        self.record(&payload);
        self.net.send_unicast(from, to, payload)
    }
    fn send_multicast(&mut self, from: EndpointId, group: MulticastAddr, payload: Bytes) {
        self.record(&payload);
        self.net.send_multicast(from, group, payload)
    }
    fn send_to_set(&mut self, from: EndpointId, targets: &[EndpointId], payload: Bytes) {
        self.record(&payload);
        self.net.send_to_set(from, targets, payload)
    }
    fn recv(&mut self, ep: EndpointId) -> Option<Datagram> {
        self.net.recv(ep)
    }
    fn now_us(&self) -> u64 {
        self.net.now_us()
    }
}

/// A keyset keyed by reference, for order-free comparison.
fn by_ref(keys: Vec<(KeyRef, SymmetricKey)>) -> BTreeMap<KeyRef, Vec<u8>> {
    keys.into_iter().map(|(r, k)| (r, k.material().to_vec())).collect()
}

/// A departed member and what replaying the wiretap has got it so far.
struct Ghost {
    /// Its state when it left.
    left_with: Client,
    /// Its state after applying every recorded packet in order.
    in_order: Client,
    /// Key material reached by any packet applied alone to `left_with`.
    reached: BTreeSet<Vec<u8>>,
    /// Recorded packets replayed so far.
    seen: usize,
}

/// A request of the current burst, until it is answered.
struct Request {
    user: UserId,
    join: bool,
    answered: bool,
}

/// A store directory, removed when the run ends.
struct Store(PathBuf);

impl Store {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        Store(std::env::temp_dir().join(format!("kg-sim-{}-{n}", std::process::id())))
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Snapshots often, so a recovery replays a snapshot and a log tail.
fn persist_config() -> PersistConfig {
    PersistConfig { snapshot_every_ops: 8, ..PersistConfig::default() }
}

struct World {
    net: Tapped,
    server: Option<NetServer>,
    config: ServerConfig,
    store: Option<Store>,
    fleet: ClientFleet,
    /// Members whose join was answered, in join order.
    present: Vec<UserId>,
    ghosts: Vec<Ghost>,
    /// Every bundle in the wiretap by (key, nonce), and how many recorded
    /// packets have been read into it.
    nonces: BTreeMap<(KeyRef, [u8; NONCE_LEN]), KeyBundle>,
    nonces_seen: usize,
    /// The request datagram each step sent, for replays.
    sent: BTreeMap<usize, (EndpointId, Bytes)>,
    burst: Vec<Request>,
    /// Users whose request the server handled since the current step began.
    handled: BTreeSet<UserId>,
    next_user: u64,
    report: Report,
}

type Outcome<T = ()> = Result<T, String>;

impl World {
    fn new(s: &Scenario) -> Outcome<Self> {
        let duplicate = s.faults.contains(&Fault::Duplicate);
        let net = SimNetwork::new(NetConfig {
            latency_min_us: if duplicate { 50 } else { 100 },
            latency_max_us: if duplicate { 500 } else { 100 },
            loss_probability: 0.0,
            duplicate_probability: if duplicate { 0.2 } else { 0.0 },
            seed: s.seed,
        });
        let mut net = Tapped { net, tap: Vec::new() };
        let mut config = ServerConfig::builder().strategy(s.strategy).auth(AuthPolicy::SignBatch);
        config = match s.mode {
            Mode::Immediate => config,
            Mode::Batched => config.batched(1, 64),
            Mode::Overloaded => config.batched(OVERLOAD_INTERVAL_MS, MAX_PENDING),
        };
        let config = config.build().map_err(|e| e.to_string())?;
        let crashes = s.faults.iter().any(|f| matches!(f, Fault::Crash { .. }));
        let store = crashes.then(Store::new);
        let server = match &store {
            Some(store) => GroupKeyServer::with_persistence(
                config.clone(),
                AccessControl::AllowAll,
                &store.0,
                persist_config(),
            )
            .map_err(|e| e.to_string())?,
            None => GroupKeyServer::new(config.clone(), AccessControl::AllowAll),
        };
        let verify = VerifyPolicy::RequireSignature {
            alg: server.config().digest,
            key: server.public_key().expect("signing server").clone(),
        };
        let fleet = ClientFleet::new(server.config().cipher, verify);
        let server = Some(NetServer::new(server, &mut net));
        Ok(World {
            net,
            server,
            config,
            store,
            fleet,
            present: Vec::new(),
            ghosts: Vec::new(),
            nonces: BTreeMap::new(),
            nonces_seen: 0,
            sent: BTreeMap::new(),
            burst: Vec::new(),
            handled: BTreeSet::new(),
            next_user: 0,
            report: Report::default(),
        })
    }

    fn server(&self) -> &NetServer {
        self.server.as_ref().expect("server is up")
    }

    fn server_ep(&self) -> EndpointId {
        self.server().endpoint()
    }

    /// Run step `i` (the final settle when `i` is past the schedule), with
    /// the faults positioned there.
    fn step(&mut self, s: &Scenario, i: usize) -> Outcome {
        for fault in &s.faults {
            if let Fault::Replay { of, at } = *fault {
                if let Some((from, bytes)) = self.sent.get(&of).filter(|_| at == i).cloned() {
                    let to = self.server_ep();
                    self.net.net.send_unicast(from, to, bytes);
                }
            }
        }
        let mut crash = s.faults.contains(&Fault::Crash { at: i });
        let to = self.server_ep();
        let request = match s.schedule.get(i).copied().unwrap_or(Step::Tick) {
            Step::Join => {
                let user = UserId(self.next_user);
                self.next_user += 1;
                let from = self.fleet.send_join_request(&mut self.net, to, user);
                Some((user, true, from, ControlMessage::JoinRequest { user }.encode()))
            }
            Step::Leave(k) => {
                let leaving: Vec<UserId> =
                    self.burst.iter().filter(|r| !r.join).map(|r| r.user).collect();
                let candidates: Vec<UserId> =
                    self.present.iter().filter(|u| !leaving.contains(u)).copied().collect();
                candidates.get(k % candidates.len().max(1)).map(|&user| {
                    self.fleet.send_leave_request(&mut self.net, to, user);
                    let ik = self.fleet.client(user).and_then(Client::individual_key);
                    let auth = leave_authenticator(user, ik.expect("member").material());
                    let from = self.fleet.endpoint(user).expect("member");
                    (user, false, from, ControlMessage::LeaveRequest { user, auth }.encode())
                })
            }
            Step::Refresh => {
                self.refresh()?;
                None
            }
            Step::Tick => {
                if crash {
                    self.crash()?;
                }
                return self.settle();
            }
        };
        let user = request.as_ref().map(|r| r.0);
        if let Some((user, join, from, bytes)) = request {
            self.sent.insert(i, (from, Bytes::from(bytes)));
            self.burst.push(Request { user, join, answered: false });
        }
        // Space the requests of a burst; the last one goes straight to the
        // settle, so the previous interval's late duplicates can still
        // overtake it. A planned crash strikes as soon as the request has
        // reached the server.
        let last_of_burst = matches!(s.schedule.get(i + 1), None | Some(Step::Tick));
        let unspaced = last_of_burst || s.faults.contains(&Fault::Unspaced);
        let spacing = if unspaced { 0 } else { SPACING_US };
        let start = self.net.now_us();
        self.handled.clear();
        loop {
            let now = self.net.now_us();
            if crash
                && (user.is_none_or(|u| self.handled.contains(&u)) || now >= start + SPACING_US)
            {
                self.crash()?;
                crash = false;
            }
            if !crash && now >= start + spacing {
                return Ok(());
            }
            self.advance()?;
        }
    }

    /// Rotate the group key and multicast the refresh, as the server's
    /// host does on its rotation timer.
    fn refresh(&mut self) -> Outcome {
        let server = self.server.as_mut().expect("server is up");
        if server.inner().pending_requests() > 0 || server.inner().group_size() == 0 {
            return Ok(());
        }
        match &server.refresh(&mut self.net)[..] {
            [ServerEvent::Flushed { joined: 0, left: 0, .. }] => Ok(()),
            other => Err(format!("refresh: {other:?}")),
        }
    }

    /// Drop the server with its store kept, crash its endpoint, recover
    /// from the store and resume on the same endpoint.
    fn crash(&mut self) -> Outcome {
        let Some(store) = &self.store else { return Err("crash without a store".into()) };
        let ns = self.server.take().expect("server is up");
        let (ep, group, directory) = (ns.endpoint(), ns.group_addr(), ns.directory());
        let before = (root_digest(ns.inner().tree()), ns.inner().pending_requests());
        let key = ns.inner().public_key().cloned();
        drop(ns);
        self.net.net.crash(ep);
        let recovered = GroupKeyServer::recover(
            self.config.clone(),
            AccessControl::AllowAll,
            &store.0,
            persist_config(),
        )
        .map_err(|e| format!("recovery failed: {e}"))?;
        if (root_digest(recovered.tree()), recovered.pending_requests()) != before
            || recovered.public_key().cloned() != key
        {
            return Err("the recovered server differs from the one that crashed".into());
        }
        self.server = Some(NetServer::resume(recovered, &mut self.net, ep, group, directory));
        self.net.net.restart(ep);
        self.report.crashes += 1;
        self.report.queued_at_crash += before.1 as u64;
        Ok(())
    }

    /// Let a little virtual time pass, then run the server and every
    /// member on what arrived.
    fn advance(&mut self) -> Outcome {
        let idle = self.net.net.pending_total() == 0;
        let now = self.net.now_us();
        self.net.net.advance(if idle { 1_000 - now % 1_000 } else { STEP_US });
        let now_ms = self.net.now_us() / 1_000;
        let server = self.server.as_mut().expect("server is up");
        for ev in server.tick(&mut self.net, now_ms) {
            if let ServerEvent::Queued(u) | ServerEvent::Left(u) | ServerEvent::Rejected(u, _) = ev
            {
                self.handled.insert(u);
            }
            match ev {
                ServerEvent::Joined(g) => {
                    self.handled.insert(g.user);
                    self.fleet.apply_grant(g.user, g.individual_key, g.leaf_label, &g.path_labels)
                }
                ServerEvent::Flushed { joined, left, .. } if joined + left >= MAX_PENDING => {
                    self.report.full_flushes += 1
                }
                ServerEvent::FlushFailed(e) => return Err(format!("flush failed: {e}")),
                ServerEvent::BadDatagram { error, .. } => {
                    return Err(format!("bad datagram: {error}"))
                }
                _ => {}
            }
        }
        for ev in self.fleet.pump(&mut self.net) {
            match ev {
                FleetEvent::JoinAcked(u) => self.answered(u, true),
                FleetEvent::LeaveAcked(u) => self.answered(u, false),
                FleetEvent::RekeyFailed(_, ClientError::StaleInterval { .. }) => {
                    self.report.stale += 1
                }
                FleetEvent::RekeyFailed(u, e) => return Err(format!("{u:?} failed a rekey: {e}")),
                _ => {}
            }
        }
        Ok(())
    }

    /// Mark `user`'s request of this burst answered; a departing member
    /// becomes a ghost. A late duplicate of an earlier ack matches none.
    fn answered(&mut self, user: UserId, join: bool) {
        let Some(r) =
            self.burst.iter_mut().find(|r| r.user == user && r.join == join && !r.answered)
        else {
            return;
        };
        r.answered = true;
        if join {
            self.present.push(user);
        } else if let Some(c) = self.fleet.remove(&mut self.net, user) {
            self.present.retain(|&u| u != user);
            self.ghosts.push(Ghost {
                left_with: c.clone(),
                in_order: c,
                reached: BTreeSet::new(),
                seen: 0,
            });
        }
    }

    /// Run until every request of the burst is answered and every member
    /// is consistent; then check the invariants.
    fn settle(&mut self) -> Outcome {
        let deadline = self.net.now_us() + SETTLE_BUDGET_US;
        while self.net.now_us() < deadline {
            self.advance()?;
            if self.burst.iter().all(|r| r.answered) && self.converged() {
                self.burst.clear();
                self.report.intervals += 1;
                self.check_secrecy()?;
                return self.check_nonces();
            }
        }
        let open: Vec<_> = self.burst.iter().filter(|r| !r.answered).map(|r| r.user).collect();
        Err(format!("the interval never settled (unanswered: {open:?})"))
    }

    /// Invariant (a): every member holds its path in the key graph — each
    /// label of `KeyGraph::keyset(u)` at the server's version with the
    /// server's key — and no other live label; and the server's group is
    /// the present members plus the re-admitted departed ones. Dead labels
    /// are counted in `lingering`.
    fn converged(&mut self) -> bool {
        let server = self.server.as_ref().expect("server is up").inner();
        let tree = server.tree();
        let graph = tree.to_key_graph();
        let live: BTreeSet<_> = graph.keys().collect();
        let mut lingering = 0;
        let all = self.fleet.clients().all(|c| {
            let mut held = by_ref(c.keyset());
            let dead = held.len();
            held.retain(|r, _| live.contains(&r.label));
            lingering += u64::from(held.len() < dead);
            held.keys().map(|r| r.label).collect::<BTreeSet<_>>() == graph.keyset(c.user())
                && tree.keyset(c.user()).map(by_ref) == Some(held)
        });
        let readmitted =
            self.ghosts.iter().filter(|g| server.is_member(g.left_with.user())).count();
        if all && server.group_size() == self.present.len() + readmitted {
            self.report.lingering += lingering;
            self.report.readmitted = readmitted as u64;
            return true;
        }
        false
    }

    /// Invariant (b): each departed member replays every packet recorded
    /// since its last check, alone and in order, and nothing it has
    /// reached from the whole wiretap is a key the tree holds.
    fn check_secrecy(&mut self) -> Outcome {
        let tree = self.server().inner().tree();
        let live: BTreeSet<Vec<u8>> = tree
            .to_key_graph()
            .users()
            .flat_map(|u| tree.keyset(u).unwrap_or_default())
            .map(|(_, k)| k.material().to_vec())
            .collect();
        for g in &mut self.ghosts {
            for bytes in &self.net.tap[g.seen..] {
                let _ = g.in_order.apply(bytes);
                let mut alone = g.left_with.clone();
                if alone.apply(bytes).is_ok() {
                    g.reached
                        .extend(alone.keyset().into_iter().map(|(_, k)| k.material().to_vec()));
                }
            }
            g.seen = self.net.tap.len();
            let in_order = g.in_order.keyset().into_iter().map(|(_, k)| k.material().to_vec());
            if let Some(k) = g.reached.iter().cloned().chain(in_order).find(|k| live.contains(k)) {
                return Err(format!(
                    "departed {:?} reached a live key ({} bytes) from the wiretap",
                    g.left_with.user(),
                    k.len()
                ));
            }
        }
        Ok(())
    }

    /// Invariant (n): every bundle recorded since the last check, keyed by
    /// the key it is sealed under and the nonce of its packet's interval
    /// and its targets, is the first bundle with that key or equal to it.
    fn check_nonces(&mut self) -> Outcome {
        for bytes in &self.net.tap[self.nonces_seen..] {
            let packet = RekeyView::parse(bytes).map_err(|e| format!("recorded packet: {e}"))?;
            for b in packet.bundles() {
                let nonce = bundle_nonce(packet.interval, b.targets.iter());
                let bundle = b.to_bundle();
                match self.nonces.get(&(b.encrypted_with, nonce)) {
                    None => {
                        self.nonces.insert((b.encrypted_with, nonce), bundle);
                        self.report.nonces += 1;
                    }
                    Some(first) if *first == bundle => self.report.resent_bundles += 1,
                    Some(first) => {
                        return Err(format!(
                            "two bundles under {:?} share nonce {nonce:02x?} (interval {}): \
                             {first:?} and {bundle:?}",
                            b.encrypted_with, packet.interval
                        ))
                    }
                }
            }
        }
        self.nonces_seen = self.net.tap.len();
        Ok(())
    }
}

/// Run `s` to the end, checking the invariants after every interval, and
/// once more after the last straggler has landed.
fn run(s: &Scenario) -> Outcome<Report> {
    let mut w = World::new(s)?;
    for i in 0..=s.schedule.len() {
        w.step(s, i)?;
    }
    while w.net.net.pending_total() > 0 {
        w.advance()?;
    }
    w.settle()?;
    Ok(w.report)
}

/// The delta-debugger: the smallest scenario derived from `failing` by
/// dropping faults and runs of schedule steps (halves first, then
/// smaller runs, down to single steps) on which `fails` still holds,
/// repeated until no single removal keeps it failing.
fn shrink(failing: &Scenario, fails: impl Fn(&Scenario) -> bool) -> Scenario {
    let mut best = failing.clone();
    loop {
        let before = (best.schedule.len(), best.faults.len());
        for i in (0..best.faults.len()).rev() {
            let mut c = best.clone();
            c.faults.remove(i);
            if fails(&c) {
                best = c;
            }
        }
        let mut size = best.schedule.len().div_ceil(2);
        while size > 0 {
            let mut start = 0;
            while start < best.schedule.len() {
                let c = best.without_steps(start..(start + size).min(best.schedule.len()));
                if fails(&c) {
                    best = c;
                } else {
                    start += size;
                }
            }
            size /= 2;
        }
        if (best.schedule.len(), best.faults.len()) == before {
            return best;
        }
    }
}

/// Run every scenario; on a failure, shrink it and fail with the minimal
/// failing pair.
fn run_all(scenarios: impl IntoIterator<Item = Scenario>) -> Report {
    let mut total = Report::default();
    for s in scenarios {
        match run(&s) {
            Ok(r) => {
                if s.mode == Mode::Overloaded {
                    assert!(r.full_flushes > 0, "{s}\nnever reached batch-max-pending");
                }
                total += r;
            }
            Err(e) => {
                let minimal = shrink(&s, |c| run(c).is_err());
                let why = run(&minimal).err().unwrap_or_default();
                panic!("{e}\n{s}\nminimal failing pair ({why}):\n{minimal}");
            }
        }
    }
    total
}

fn scenarios(seeds: &[u64], modes: &[Mode]) -> Vec<Scenario> {
    let mut all = Vec::new();
    for strategy in Strategy::EVERY {
        for &mode in modes {
            all.extend(seeds.iter().map(|&seed| Scenario::generate(seed, strategy, mode)));
        }
    }
    all
}

/// The tier-1 list: every strategy, immediate and batched, on the six
/// seeds, and overloaded on two; each with duplication, jitter and one
/// crash + recovery.
#[test]
fn every_strategy_converges_and_keeps_secrecy_under_faults() {
    let t0 = std::time::Instant::now();
    let mut list = scenarios(&SEEDS, &[Mode::Immediate, Mode::Batched]);
    list.extend(scenarios(&SEEDS[..2], &[Mode::Overloaded]));
    let n = list.len();
    let r = run_all(list);
    assert_eq!(r.crashes, n as u64, "every scenario crashed and recovered once");
    assert!(r.full_flushes > 0);
    // Invariant (n) saw resends, not only first seals.
    assert!(r.nonces > 0 && r.resent_bundles > 0);
    eprintln!("{n} scenarios in {:.1?}: {r:?}", t0.elapsed());
}

/// The long list: 32 fixed seeds per strategy × mode. CI runs it in
/// release under a time limit.
#[test]
#[ignore = "long seed list; run with --release -- --ignored"]
fn long_seed_list() {
    let t0 = std::time::Instant::now();
    let seeds: Vec<u64> = (1_000..1_032).collect();
    let list = scenarios(&seeds, &[Mode::Immediate, Mode::Batched, Mode::Overloaded]);
    let n = list.len();
    let r = run_all(list);
    assert_eq!(r.crashes, n as u64);
    eprintln!("{n} scenarios in {:.1?}: {r:?}", t0.elapsed());
}

/// The open re-admission defect, pinned: a join request is only
/// `{ user }`, so a late duplicate of it re-admits a member that has
/// since left. The first join whose user later leaves gets a delayed copy
/// at the end of the run; the delta-debugger shrinks the run to the
/// minimal pair that still re-admits and prints it. Replaying the control
/// datagrams of a run must change no membership, and this test turns
/// into that invariant once a join is admitted once.
#[test]
fn a_late_duplicate_join_request_readmits_a_departed_member() {
    let base = Scenario::generate(SEEDS[0], Strategy::GroupOriented, Mode::Immediate);
    let readmits = |s: &Scenario| run(s).is_ok_and(|r| r.readmitted > 0);
    let end = base.schedule.len();
    let joins = (0..end).filter(|&i| base.schedule[i] == Step::Join);
    let found = joins
        .map(|of| {
            let mut s = base.clone();
            s.faults.push(Fault::Replay { of, at: end });
            s
        })
        .find(|s| readmits(s))
        .expect("a delayed join request of a departed member");
    let minimal = shrink(&found, readmits);
    eprintln!("minimal re-admission pair:\n{minimal}");
    assert!(readmits(&minimal));
    // One join, one leave of that member, and the replay after it.
    assert_eq!(minimal.faults.len(), 1);
    assert!(matches!(minimal.faults[0], Fault::Replay { of: 0, .. }));
    assert_eq!(minimal.schedule.first(), Some(&Step::Join));
    assert!(minimal.schedule.iter().any(|s| matches!(s, Step::Leave(_))));
    assert!(minimal.schedule.len() <= 3, "{minimal}");
}

/// The open stranded-member defect, pinned: a client commits a packet's
/// interval even when it could open nothing in it, so a member whose next
/// interval's packet overtakes the current one's refuses the current one
/// as `StaleInterval` and never converges. The other scenarios space a
/// burst's requests past the jitter window and so never meet it; with
/// [`Fault::Unspaced`] the seed-1009 derived run strands a member on its
/// first burst of joins. The delta-debugger shrinks the run to the minimal
/// pair and prints it; spaced, that pair settles. Once a member can
/// recover a missed interval, every member converges whether or not the
/// burst is spaced, and this test turns into that invariant.
#[test]
fn an_overtaken_interval_strands_a_member() {
    let mut base = Scenario::generate(1009, Strategy::Derived, Mode::Immediate);
    base.faults.push(Fault::Unspaced);
    let stranded = |s: &Scenario| run(s).is_err_and(|e| e.contains("never settled"));
    assert!(stranded(&base), "{base}");
    let minimal = shrink(&base, stranded);
    eprintln!("minimal stranding pair:\n{minimal}");
    // Replayed by hand, the run refuses an interval as stale on its way.
    let mut w = World::new(&minimal).expect("world");
    let end = (0..=minimal.schedule.len()).try_for_each(|i| w.step(&minimal, i));
    assert!(end.is_err_and(|e| e.contains("never settled")), "{minimal}");
    assert!(w.report.stale > 0, "{minimal}");
    // A few joins in one burst, reordered by the jitter.
    assert_eq!(minimal.faults, [Fault::Duplicate, Fault::Unspaced]);
    assert!(minimal.schedule.iter().all(|&s| s == Step::Join), "{minimal}");
    assert!(minimal.schedule.len() <= 3, "{minimal}");
    let mut spaced = minimal.clone();
    spaced.faults.retain(|&f| f != Fault::Unspaced);
    assert!(run(&spaced).is_ok(), "{spaced}");
}
