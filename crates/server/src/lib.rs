//! # kg-server — the prototype group key server
//!
//! The trusted entity of the paper: it owns the key tree, performs group
//! access control, processes join/leave requests, constructs rekey
//! messages under the configured strategy, authenticates them (digest,
//! per-message signature, or the Section 4 batch signature), and records
//! the statistics the evaluation tables are built from.
//!
//! [`GroupKeyServer`] is the network-free core — the benchmark harness
//! drives it directly, timing exactly what the paper timed (request
//! parsing, tree update, key generation, encryption, digest/signature,
//! message encoding). [`net::NetServer`] wraps it for operation over the
//! simulated network in `kg-net`, resolving each rekey message's
//! [`Recipients`](kg_core::rekey::Recipients) to concrete endpoints.
//!
//! ```
//! use kg_server::{GroupKeyServer, ServerConfig, AccessControl};
//! use kg_core::ids::UserId;
//!
//! // Paper defaults: degree-4 tree, group-oriented rekeying, DES-CBC.
//! let mut server = GroupKeyServer::new(ServerConfig::default(), AccessControl::AllowAll);
//! for i in 0..20 {
//!     server.handle_join(UserId(i)).unwrap();
//! }
//! let before = server.tree().group_key().0;
//! let op = server.handle_leave(UserId(7)).unwrap();
//! assert_eq!(op.packets.len(), 1, "group-oriented leave: one multicast");
//! assert!(server.tree().group_key().0.version > before.version);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod config;
pub mod net;
pub mod scheduler;
pub mod stats;

pub use acl::{AccessControl, AclError};
pub use config::{AuthPolicy, ConfigError, RekeyPolicy, ServerConfig};
pub use scheduler::{BatchPolicy, BatchScheduler, PendingBatch};
pub use stats::{Aggregate, OpRecord, ServerStats};

use kg_core::batch::NewKeyMode;
use kg_core::derive::{DerivedLink, DERIVATION_CODE_LEN};
use kg_core::ids::{KeyLabel, UserId};
use kg_core::merkle;
use kg_core::rekey::{Recipients, RekeyOutput, Rekeyer, Strategy};
use kg_core::serial;
use kg_core::tree::{KeyTree, TreeError};
use kg_crypto::drbg::HmacDrbg;
use kg_crypto::hmac::verify_mac;
use kg_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use kg_crypto::{KeySource, SymmetricKey};
use kg_obs::{Counter, Obs, ObsEvent};
use kg_persist::{
    AclSnapshot, PersistConfig, PersistError, Persistence, SchedulerSnapshot, Snapshot, StatRecord,
    WalOp,
};
use kg_wire::{AuthTag, OpKind, RekeyPacket};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// Access control denied the join.
    JoinDenied(UserId),
    /// Tree-level membership error (duplicate join / unknown leaver).
    Tree(TreeError),
    /// The write-ahead log could not be appended or the snapshot could
    /// not be installed. The op itself was applied in memory, but its
    /// durability is not guaranteed: a persistent server that returns
    /// this should be discarded and re-created via recovery.
    Persist(String),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::JoinDenied(u) => write!(f, "join denied for {u}"),
            RequestError::Tree(e) => write!(f, "{e}"),
            RequestError::Persist(detail) => write!(f, "persistence failure: {detail}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<TreeError> for RequestError {
    fn from(e: TreeError) -> Self {
        RequestError::Tree(e)
    }
}

/// Why crash recovery failed.
#[derive(Debug)]
pub enum RecoverError {
    /// The store could not be read (I/O failure, corrupt file, or a log
    /// format this build does not read).
    Persist(PersistError),
    /// The configuration passed to recovery differs from the store's
    /// replay contract, pinned in its log header, so replay would build
    /// other keys (or queue what was applied). Nothing was replayed and
    /// the store is untouched.
    ConfigMismatch {
        /// The spec key that differs (`seed`, `degree`, `cipher`,
        /// `strategy` or `rekey`).
        key: &'static str,
        /// Its value in the log header.
        logged: String,
        /// Its value in the configuration passed to recovery.
        configured: String,
    },
    /// The snapshotted key tree failed to decode.
    Tree(serial::SerialError),
    /// Replaying a logged op through the server failed — the log does not
    /// match the state it was supposedly produced from.
    Replay(RequestError),
    /// After some replayed record the tree's root-key digest does not match
    /// the digest the pre-crash server recorded with it, so recovery did
    /// not converge.
    DigestMismatch,
    /// The log header or snapshot is malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Persist(e) => write!(f, "{e}"),
            RecoverError::ConfigMismatch { key, logged, configured } => write!(
                f,
                "the store was written with {key} = {logged}, but {key} = {configured} is configured"
            ),
            RecoverError::Tree(e) => write!(f, "snapshot tree: {e}"),
            RecoverError::Replay(e) => write!(f, "wal replay: {e}"),
            RecoverError::DigestMismatch => {
                write!(f, "recovered root-key digest does not match the log")
            }
            RecoverError::Corrupt(what) => write!(f, "recovered state inconsistent: {what}"),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Persist(e) => Some(e),
            RecoverError::Tree(e) => Some(e),
            RecoverError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for RecoverError {
    fn from(e: PersistError) -> Self {
        RecoverError::Persist(e)
    }
}

/// Result of one request or one rekey: a join, a leave, a refresh or a
/// flushed batch interval. A request a batching server queued for a later
/// interval is the operation with nothing to deliver yet.
#[derive(Debug, Clone, Default)]
pub struct ProcessedOp {
    /// Sequence number assigned to this operation (for a queued request,
    /// the number the next operation will take). Its packets carry the
    /// interval number `seq + 1`.
    pub seq: u64,
    /// Fully authenticated rekey packets, ready to send: one per recipient
    /// class under the shipped strategies, at most one group multicast
    /// under `strategy = derived` (the derivation code, the changed-key
    /// worklist, and any shipped bundles — the joiners' paths; the whole
    /// payload of anything containing a leave).
    pub packets: Vec<RekeyPacket>,
    /// Encoded form of each packet (computed inside the timed section, as
    /// the paper's processing time includes message construction).
    pub encoded: Vec<Vec<u8>>,
    /// One grant per user this operation admitted (the out-of-band
    /// authentication-exchange payload).
    pub grants: Vec<JoinGrant>,
    /// Users this operation removed (a leave-then-rejoin inside one
    /// interval is not a departure: the member keeps its place and gets a
    /// new grant).
    pub departed: Vec<UserId>,
}

/// One step of delivering a [`ProcessedOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery<'a> {
    /// Remove the departed member from every delivery structure, then ack
    /// its leave.
    Evict(UserId),
    /// Subscribe the admitted member, then ack its join with the labels the
    /// grant describes.
    Admit(&'a JoinGrant),
    /// Send one encoded rekey packet to its recipients, resolved against
    /// the server's current (post-operation) tree.
    Frame(&'a Recipients, &'a [u8]),
}

impl ProcessedOp {
    /// Everything a front-end does to deliver this operation, in the order
    /// it must do it: the departed are evicted and acked *before* any rekey
    /// frame goes out, so none of the new keys reaches them; joiners are
    /// subscribed and acked before the frames, so they receive their path.
    /// (A derived packet is one group multicast: its sealed bundles are
    /// only decryptable by their intended holders, so widening delivery
    /// leaks nothing.)
    pub fn delivery(&self) -> impl Iterator<Item = Delivery<'_>> {
        let evictions = self.departed.iter().map(|&u| Delivery::Evict(u));
        let admissions = self.grants.iter().map(Delivery::Admit);
        let frames = self
            .packets
            .iter()
            .zip(&self.encoded)
            .map(|(p, bytes)| Delivery::Frame(&p.recipients, bytes.as_slice()));
        evictions.chain(admissions).chain(frames)
    }
}

/// The data a joining member receives out-of-band (via the authenticated
/// admission exchange).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinGrant {
    /// The admitted user.
    pub user: UserId,
    /// Its individual key.
    pub individual_key: SymmetricKey,
    /// Label of its individual-key leaf.
    pub leaf_label: KeyLabel,
    /// Labels of the path keys, root-first (the join-ack payload).
    pub path_labels: Vec<KeyLabel>,
}

/// The replay contract as a log header stores it: one spec line per
/// setting of [`ServerConfig::replay_contract`].
fn contract_bytes(config: &ServerConfig) -> Vec<u8> {
    config.replay_contract().map(|(key, value)| format!("{key} = {value}\n")).concat().into_bytes()
}

/// The prototype group key server.
pub struct GroupKeyServer {
    config: ServerConfig,
    acl: AccessControl,
    tree: KeyTree,
    keygen: HmacDrbg,
    rsa: Option<RsaKeyPair>,
    seq: u64,
    stats: ServerStats,
    /// Present iff `config.rekey` is [`RekeyPolicy::Batched`].
    scheduler: Option<BatchScheduler>,
    /// Durability store; `None` for a purely in-memory server.
    persist: Option<Persistence>,
    /// Observability handle; disabled (free) unless attached.
    obs: Obs,
    /// Counter handles resolved once at [`Self::attach_obs`] so the
    /// request path never touches the registry lock.
    metrics: ServerMetrics,
    /// Per-op rekey-cost ledger rows, same lifecycle as `metrics`.
    ledger: Ledger,
}

/// Label of each [`OpKind`], indexed by [`OpKind::tag`].
const KIND_NAMES: [&str; 4] = ["join", "leave", "batch", "refresh"];
/// Name of each kind's operation span, same index.
const OP_SPANS: [&str; 4] = ["op.join", "op.leave", "op.batch", "op.refresh"];

/// Pre-resolved counter handles for the per-request hot path. Detached
/// (no-op) until an enabled handle is attached.
#[derive(Debug, Default)]
struct ServerMetrics {
    /// `kg_requests_total{kind=…}`, indexed by [`OpKind::tag`].
    requests: [Counter; 4],
    encryptions: Counter,
    signatures: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
}

impl ServerMetrics {
    fn resolve(obs: &Obs) -> Self {
        ServerMetrics {
            requests: KIND_NAMES.map(|kind| obs.counter_with("kg_requests_total", "kind", kind)),
            encryptions: obs.counter("kg_encryptions_total"),
            signatures: obs.counter("kg_signatures_total"),
            // Stored ciphertexts resent (hit) and ciphertexts sealed
            // (miss), from `OpCounts`. The name stays because the frozen
            // canonical benchmark reads it.
            cache_hits: obs.counter_with("kg_par_cache_total", "result", "hit"),
            cache_misses: obs.counter_with("kg_par_cache_total", "result", "miss"),
        }
    }
}

/// One row of the per-op rekey-cost ledger: every counter carries the
/// label `op="<strategy>:<kind>"`, so aggregating across shards keeps
/// the cost breakdown the paper's Tables 4/5 report (encryptions and
/// rekey messages per request, by strategy and operation). Detached
/// (no-op) until resolved against an enabled [`Obs`].
#[derive(Debug, Default)]
struct LedgerCell {
    ops: Counter,
    encryptions: Counter,
    messages: Counter,
    bytes: Counter,
    nodes_touched: Counter,
    cache_hits: Counter,
}

impl LedgerCell {
    fn resolve(obs: &Obs, strategy: &str, kind: &str) -> Self {
        let op = format!("{strategy}:{kind}");
        LedgerCell {
            ops: obs.counter_with("kg_ledger_ops_total", "op", &op),
            encryptions: obs.counter_with("kg_ledger_encryptions_total", "op", &op),
            messages: obs.counter_with("kg_ledger_messages_total", "op", &op),
            bytes: obs.counter_with("kg_ledger_bytes_total", "op", &op),
            nodes_touched: obs.counter_with("kg_ledger_nodes_touched_total", "op", &op),
            cache_hits: obs.counter_with("kg_ledger_cache_hits_total", "op", &op),
        }
    }

    /// Account one completed operation. `bytes` is the total encoded
    /// wire size of its rekey packets; `nodes` the fresh keys the op
    /// generated (= key-tree nodes whose keys changed).
    fn record(&self, encryptions: u64, messages: u64, bytes: u64, nodes: u64, cache_hits: u64) {
        self.ops.inc();
        self.encryptions.add(encryptions);
        self.messages.add(messages);
        self.bytes.add(bytes);
        self.nodes_touched.add(nodes);
        self.cache_hits.add(cache_hits);
    }
}

/// The four ledger rows a server can write (its strategy is fixed at
/// construction, so one row per op kind suffices), indexed by
/// [`OpKind::tag`].
type Ledger = [LedgerCell; 4];

impl GroupKeyServer {
    /// Create a server. Generates an RSA keypair when the auth policy
    /// requires one (key generation happens here, once — not in the timed
    /// path).
    pub fn new(config: ServerConfig, acl: AccessControl) -> Self {
        let mut keygen = HmacDrbg::from_seed(config.seed ^ 0x6b67_5f6b_6579_7321);
        let rsa = config.auth.needs_signature_key().then(|| {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7273_615f_6b65_7921);
            RsaKeyPair::generate(config.rsa_bits, &mut rng).expect("RSA key generation")
        });
        let tree = KeyTree::new(config.degree, config.key_len(), &mut keygen);
        let scheduler = config.rekey.batch_policy().map(|p| BatchScheduler::new(p, 0));
        let stats = ServerStats::default();
        GroupKeyServer {
            config,
            acl,
            tree,
            keygen,
            rsa,
            seq: 0,
            stats,
            scheduler,
            persist: None,
            obs: Obs::disabled(),
            metrics: ServerMetrics::default(),
            ledger: Ledger::default(),
        }
    }

    /// Attach an observability handle. Spans, counters, and timeline
    /// events from the request handlers flow to it, and it is propagated
    /// to the batch scheduler and the durability store (queue-depth
    /// gauge, fsync histogram, WAL/snapshot events). Attach once, right
    /// after construction; a disabled handle detaches everything.
    pub fn attach_obs(&mut self, obs: Obs) {
        if let Some(s) = self.scheduler.as_mut() {
            s.attach_obs(obs.clone());
        }
        if let Some(p) = self.persist.as_mut() {
            p.attach_obs(obs.clone());
        }
        self.metrics = ServerMetrics::resolve(&obs);
        self.ledger =
            KIND_NAMES.map(|kind| LedgerCell::resolve(&obs, self.config.strategy.as_str(), kind));
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Create a server backed by a fresh durability store at `dir` (which
    /// must not already contain one). Every mutating op is written to the
    /// write-ahead log before the call returns; snapshots are taken on
    /// the thresholds in `persist_config`.
    pub fn with_persistence(
        config: ServerConfig,
        acl: AccessControl,
        dir: impl Into<PathBuf>,
        persist_config: PersistConfig,
    ) -> Result<Self, RecoverError> {
        let mut server = Self::new(config, acl);
        let persist = Persistence::create(dir, &contract_bytes(&server.config), persist_config)?;
        server.persist = Some(persist);
        Ok(server)
    }

    /// Rebuild a server from the store at `dir`: load the latest
    /// snapshot, replay the WAL tail through the normal request handlers
    /// (a torn final record is discarded), verify the tree against the
    /// root-key digest logged with every record, and reopen the log for
    /// append.
    ///
    /// `config` must match the store's replay contract, pinned in its log
    /// header when the store was created: `seed`, `degree`, `cipher`,
    /// `strategy` and `rekey` (immediate or batched). Any difference fails
    /// with [`RecoverError::ConfigMismatch`] before anything is replayed.
    /// The batch interval and depth, `auth`, `digest` and `rsa-bits` may
    /// change across a restart. Once a snapshot
    /// exists its ACL takes precedence over `acl`. Recovery is
    /// deterministic: the snapshot carries the key DRBG's working state, so
    /// replayed ops regenerate byte-identical keys.
    pub fn recover(
        config: ServerConfig,
        acl: AccessControl,
        dir: impl Into<PathBuf>,
        persist_config: PersistConfig,
    ) -> Result<Self, RecoverError> {
        Self::recover_observed(config, acl, dir, persist_config, Obs::disabled())
    }

    /// [`recover`](Self::recover) with an observability handle attached
    /// from the start: the handle sees a `Recovered` timeline event (and
    /// replay counters), and stays attached for subsequent operation.
    /// Replay itself runs unobserved — replayed ops are reconstructions,
    /// not new requests, so they must not inflate the counters that
    /// reconcile against the WAL.
    pub fn recover_observed(
        config: ServerConfig,
        acl: AccessControl,
        dir: impl Into<PathBuf>,
        persist_config: PersistConfig,
        obs: Obs,
    ) -> Result<Self, RecoverError> {
        let (persist, recovered) = Persistence::recover(dir, persist_config)?;
        // The one place the configuration meets stored state: the header's
        // replay contract must equal the configuration's, setting by
        // setting, before the snapshot's tree is decoded or a record replayed.
        let header = std::str::from_utf8(&recovered.contract)
            .ok()
            .and_then(|spec| ServerConfig::from_spec(spec).ok())
            .filter(|header| contract_bytes(header) == recovered.contract)
            .ok_or(RecoverError::Corrupt("wal header replay contract"))?;
        let mut settings = header.replay_contract().into_iter().zip(config.replay_contract());
        if let Some(((key, logged), (_, configured))) = settings.find(|(l, c)| l != c) {
            return Err(RecoverError::ConfigMismatch { key, logged, configured });
        }
        let mut server = match &recovered.snapshot {
            None => Self::new(config, acl),
            Some(snap) => Self::from_snapshot(config, snap)?,
        };
        // Prove convergence record by record: the snapshot's tree, and the
        // tree after each replayed op, must hash to the digest the
        // pre-crash server logged there. Only the group key is hashed, and
        // an op that replaces it alone draws the same key whatever the rest
        // of the tree holds, so the last record by itself can agree by
        // accident.
        let diverged =
            |server: &Self, logged: &[u8; 32]| serial::root_digest(&server.tree) != *logged;
        if recovered.snapshot.as_ref().is_some_and(|snap| diverged(&server, &snap.root_digest)) {
            return Err(RecoverError::DigestMismatch);
        }
        for (op, logged) in &recovered.ops {
            server.replay(*op).map_err(RecoverError::Replay)?;
            if diverged(&server, logged) {
                return Err(RecoverError::DigestMismatch);
            }
        }
        let records_replayed = recovered.ops.len() as u64;
        server.persist = Some(persist);
        server.attach_obs(obs);
        server.obs.counter("kg_recoveries_total").inc();
        server.obs.counter("kg_replayed_records_total").add(records_replayed);
        server.obs.event(ObsEvent::Recovered {
            epoch: recovered.epoch,
            records_replayed,
            torn_tail: recovered.torn_tail,
        });
        Ok(server)
    }

    /// Rebuild in-memory state from a snapshot (no log replay yet).
    /// `config` already agrees with the log header's replay contract, the
    /// one copy of it, so the tree decodes under its degree and key length
    /// and the queue is restored exactly when it batches.
    fn from_snapshot(config: ServerConfig, snap: &Snapshot) -> Result<Self, RecoverError> {
        let tree = serial::decode_tree(&snap.tree, config.degree, config.key_len())
            .map_err(RecoverError::Tree)?;
        let acl = match &snap.acl {
            AclSnapshot::AllowAll => AccessControl::AllowAll,
            AclSnapshot::AllowList(users) => AccessControl::allow_list(users.iter().copied()),
        };
        let records = snap
            .stats
            .iter()
            .map(|r| {
                Ok(OpRecord {
                    kind: OpKind::from_tag(r.kind)
                        .ok_or(RecoverError::Corrupt("snapshot stats op kind"))?,
                    requests: r.requests,
                    msg_sizes: r.msg_sizes.clone(),
                    proc_ns: r.proc_ns,
                    encryptions: r.encryptions,
                    signatures: r.signatures,
                })
            })
            .collect::<Result<Vec<_>, RecoverError>>()?;
        let s = &snap.scheduler;
        let scheduler = config.rekey.batch_policy().map(|policy| {
            BatchScheduler::restore(
                policy,
                s.joins.iter().map(|(u, k)| (*u, SymmetricKey::from_bytes(k))).collect(),
                s.leaves.clone(),
                s.last_flush_ms,
                s.intervals_flushed,
            )
        });
        // Everything a snapshot does not carry is what a fresh server has:
        // the RSA keypair in particular is derived from the seed
        // independently of the key DRBG, so it is regenerated rather
        // than persisted.
        let mut server = Self::new(config, acl);
        server.tree = tree;
        server.keygen = HmacDrbg::from_state(snap.keygen.0, snap.keygen.1);
        server.seq = snap.seq;
        server.scheduler = scheduler;
        for r in records {
            server.stats.push(r);
        }
        Ok(server)
    }

    /// Re-apply one logged request through the normal handlers (the
    /// header's contract, already checked, says what each one does).
    /// Persistence is detached during recovery, so nothing is re-logged.
    fn replay(&mut self, op: WalOp) -> Result<(), RequestError> {
        match op {
            WalOp::Join(u) => self.handle_join(u).map(drop),
            WalOp::Leave(u) => self.handle_leave(u).map(drop),
            WalOp::Refresh => self.refresh_group_key().map(drop),
            WalOp::Flush { now_ms } => self.flush(now_ms).map(drop),
        }
    }

    /// Capture the full server state as a snapshot.
    fn build_snapshot(&self) -> Snapshot {
        Snapshot {
            seq: self.seq,
            keygen: self.keygen.state(),
            tree: serial::encode_tree(&self.tree),
            acl: match &self.acl {
                AccessControl::AllowAll => AclSnapshot::AllowAll,
                AccessControl::AllowList(set) => {
                    AclSnapshot::AllowList(set.iter().copied().collect())
                }
            },
            stats: self
                .stats
                .records()
                .iter()
                .map(|r| StatRecord {
                    kind: r.kind.tag(),
                    requests: r.requests,
                    msg_sizes: r.msg_sizes.clone(),
                    proc_ns: r.proc_ns,
                    encryptions: r.encryptions,
                    signatures: r.signatures,
                })
                .collect(),
            scheduler: (self.scheduler.as_ref())
                .map(|s| SchedulerSnapshot {
                    joins: (s.pending_joins().iter())
                        .map(|(u, k)| (*u, k.material().to_vec()))
                        .collect(),
                    leaves: s.pending_leaves().to_vec(),
                    last_flush_ms: s.last_flush_ms(),
                    intervals_flushed: s.intervals_flushed(),
                })
                .unwrap_or_default(),
            root_digest: serial::root_digest(&self.tree),
        }
    }

    /// Append `op` to the WAL (no-op for in-memory servers), then take a
    /// snapshot if the store's thresholds have been crossed. Called after
    /// the op mutated the server, so the record's digest describes
    /// post-op state.
    fn log_op(&mut self, op: WalOp) -> Result<(), RequestError> {
        let Some(mut persist) = self.persist.take() else { return Ok(()) };
        let _span = self.obs.span("wal");
        let digest = serial::root_digest(&self.tree);
        let mut result = persist.append(&op, &digest);
        if result.is_ok() && persist.should_snapshot() {
            let snap = self.build_snapshot();
            result = persist.install_snapshot(&snap);
        }
        self.persist = Some(persist);
        result.map_err(|e| RequestError::Persist(e.to_string()))
    }

    /// Whether a durability store is attached.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Read access to the durability store.
    pub fn persistence(&self) -> Option<&Persistence> {
        self.persist.as_ref()
    }

    /// Flush the WAL to stable storage regardless of the fsync policy
    /// (clean shutdown).
    pub fn sync_persistence(&mut self) -> Result<(), RequestError> {
        if let Some(p) = self.persist.as_mut() {
            p.sync().map_err(|e| RequestError::Persist(e.to_string()))?;
        }
        Ok(())
    }

    /// Take a snapshot now, regardless of thresholds (no-op for in-memory
    /// servers).
    pub fn force_snapshot(&mut self) -> Result<(), RequestError> {
        let Some(mut persist) = self.persist.take() else { return Ok(()) };
        let snap = self.build_snapshot();
        let result = persist.install_snapshot(&snap);
        self.persist = Some(persist);
        result.map_err(|e| RequestError::Persist(e.to_string()))
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The server's signature-verification key, for distribution to
    /// clients. `None` when the auth policy doesn't sign.
    pub fn public_key(&self) -> Option<&RsaPublicKey> {
        self.rsa.as_ref().map(|kp| kp.public())
    }

    /// Current group size.
    pub fn group_size(&self) -> usize {
        self.tree.user_count()
    }

    /// Whether `u` is a member.
    pub fn is_member(&self, u: UserId) -> bool {
        self.tree.is_member(u)
    }

    /// Read access to the key tree (recipient resolution, tests).
    pub fn tree(&self) -> &KeyTree {
        &self.tree
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Clear statistics (after initial population, as in §5).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Switch the authentication policy at runtime.
    ///
    /// The experiment harness populates the initial group with
    /// authentication off (the paper excludes the n initial joins from
    /// every measurement) and then enables the configured policy for the
    /// measured phase.
    ///
    /// # Panics
    /// Panics when switching to a signing policy on a server constructed
    /// without one (no RSA keypair was generated).
    pub fn set_auth(&mut self, auth: AuthPolicy) {
        assert!(
            !auth.needs_signature_key() || self.rsa.is_some(),
            "server was built without a signature keypair"
        );
        self.config.auth = auth;
    }

    /// Process a join request: admit `user` now, or — on a batching server
    /// — queue the join for the next rekey interval and return an operation
    /// with nothing to deliver yet (the grant follows with the interval's).
    ///
    /// Access control and membership are checked here either way, and the
    /// individual key is drawn here: the authentication exchange (modelled
    /// by generating that key) happens *before* the timer starts — "the
    /// processing time for a join request does not include any time used
    /// to authenticate the requesting user" (§5). A join while a leave for
    /// the same user is queued is a leave-then-rejoin within one interval;
    /// a repeated queued join replaces the queued key.
    ///
    /// Under `strategy = derived` the server draws a derivation code,
    /// rotates the joiner's path by *deriving* each changed key from its
    /// predecessor (`HMAC(old, code ‖ ref)`), and publishes the code, the
    /// changed-key worklist, and the joiner's sealed unicast. Current
    /// members recompute the new keys locally; the only ciphertext the
    /// server seals is the joiner's bundle, so the per-join sealing cost
    /// is O(1) in the group size (the paper's O(log n) encryption work
    /// moves to the members as one HMAC per held-and-changed key).
    pub fn handle_join(&mut self, user: UserId) -> Result<ProcessedOp, RequestError> {
        if !self.acl.permits(user) {
            return Err(RequestError::JoinDenied(user));
        }
        let leaving = self.scheduler.as_ref().is_some_and(|s| s.has_pending_leave(user));
        if self.tree.is_member(user) && !leaving {
            return Err(RequestError::Tree(TreeError::AlreadyMember(user)));
        }
        // Per request, the operation's span opens before the individual key
        // is drawn, so a traced join accounts for the draw; the key is drawn
        // first either way.
        let op_span = self.scheduler.is_none().then(|| self.op_span(OpKind::Join));
        let individual_key = self.keygen.generate_key(self.config.key_len());
        if let Some(sched) = self.scheduler.as_mut() {
            sched.enqueue_join(user, individual_key);
            return self.queued(WalOp::Join(user));
        }
        let op = self.rekey(OpKind::Join, &[(user, individual_key)], &[])?;
        drop(op_span);
        self.obs.event(ObsEvent::Join { user: user.0 });
        self.log_op(WalOp::Join(user))?;
        Ok(op)
    }

    /// Process a leave request: remove `user` now, or — on a batching
    /// server — queue the leave for the next rekey interval (a leave for a
    /// user whose join is still queued cancels that join).
    pub fn handle_leave(&mut self, user: UserId) -> Result<ProcessedOp, RequestError> {
        let joining = self.scheduler.as_ref().is_some_and(|s| s.has_pending_join(user));
        if !self.tree.is_member(user) && !joining {
            return Err(RequestError::Tree(TreeError::NotAMember(user)));
        }
        if let Some(sched) = self.scheduler.as_mut() {
            sched.enqueue_leave(user);
            return self.queued(WalOp::Leave(user));
        }
        // Forward secrecy forbids deriving post-leave keys from pre-leave
        // ones, so derived mode ships a leave's fresh keys exactly like its
        // shipped fallback (no code, no worklist).
        let op_span = self.op_span(OpKind::Leave);
        let op = self.rekey(OpKind::Leave, &[], &[user])?;
        drop(op_span);
        self.obs.event(ObsEvent::Leave { user: user.0 });
        self.log_op(WalOp::Leave(user))?;
        Ok(op)
    }

    /// Log a request the scheduler just queued and answer it with the
    /// operation that has nothing to deliver.
    fn queued(&mut self, record: WalOp) -> Result<ProcessedOp, RequestError> {
        self.log_op(record)?;
        Ok(ProcessedOp { seq: self.seq, ..ProcessedOp::default() })
    }

    /// Whether `auth` is `{leave-request}_{k_u}`: the HMAC-MD5 of the user
    /// id under the member's individual key (its leaf key in the tree) —
    /// what [`net::leave_authenticator`] computes on the member's side.
    /// Front-ends check it before [`handle_leave`](Self::handle_leave).
    pub fn leave_is_authentic(&self, user: UserId, auth: &[u8]) -> bool {
        self.tree.keyset(user).and_then(|ks| ks.into_iter().next()).is_some_and(|(_, key)| {
            verify_mac(&net::leave_authenticator(user, key.material()), auth)
        })
    }

    /// Rotate the group key without any membership change: bump the root
    /// key's version and distribute the new key to the whole group under
    /// the old one. Used for periodic rotation, and after crash recovery
    /// to fence off any group key that may have leaked with the dead
    /// process.
    ///
    /// Under `strategy = derived` the new root key is derived from the old
    /// one and a published code, so the packet carries zero ciphertext —
    /// just the code and a one-entry worklist. Members pay one HMAC each;
    /// the server seals nothing.
    pub fn refresh_group_key(&mut self) -> Result<ProcessedOp, RequestError> {
        // The rotation happens (and consumes its keygen output, keeping
        // replay deterministic) even when there is nobody to tell; an
        // empty group gets no packet.
        let op_span = self.op_span(OpKind::Refresh);
        let op = self.rekey(OpKind::Refresh, &[], &[])?;
        drop(op_span);
        self.obs.event(ObsEvent::Refresh);
        self.log_op(WalOp::Refresh)?;
        Ok(op)
    }

    /// Requests queued for the next interval (0 in immediate mode).
    pub fn pending_requests(&self) -> usize {
        self.scheduler.as_ref().map_or(0, |s| s.pending())
    }

    /// Whether `user` has a join queued for the next interval.
    pub fn has_pending_join(&self, user: UserId) -> bool {
        self.scheduler.as_ref().is_some_and(|s| s.has_pending_join(user))
    }

    /// Flush the pending interval if the schedule says so (interval
    /// elapsed or queue depth reached). `Ok(None)` when there is nothing
    /// to do — including on an immediate-mode server, so drivers can tick
    /// unconditionally.
    pub fn tick(&mut self, now_ms: u64) -> Result<Option<ProcessedOp>, RequestError> {
        if self.scheduler.as_ref().is_some_and(|s| s.should_flush(now_ms)) {
            self.flush(now_ms)
        } else {
            Ok(None)
        }
    }

    /// Flush the pending interval unconditionally (tests, shutdown).
    ///
    /// An empty flush still resets the interval clock, so it is logged
    /// too — replay must reproduce the same schedule.
    pub fn flush(&mut self, now_ms: u64) -> Result<Option<ProcessedOp>, RequestError> {
        let Some(sched) = self.scheduler.as_mut() else { return Ok(None) };
        let op = match sched.take(now_ms) {
            None => None,
            Some(pending) => {
                let _op_span = self.op_span(OpKind::Batch);
                Some(self.rekey(OpKind::Batch, &pending.joins, &pending.leaves)?)
            }
        };
        self.log_op(WalOp::Flush { now_ms })?;
        Ok(op)
    }

    /// Graceful shutdown: flush the pending rekey interval (if any), write
    /// a final snapshot, and fsync — in that order, so the snapshot
    /// captures the post-flush tree and a subsequent
    /// [`recover`](GroupKeyServer::recover) replays **zero** WAL records.
    /// Returns the final interval so the caller can deliver its rekey
    /// traffic and acks before the process exits. Safe on in-memory and
    /// immediate-mode servers (both persistence steps are no-ops, and an
    /// unbatched server has nothing to flush).
    pub fn shutdown(&mut self, now_ms: u64) -> Result<Option<ProcessedOp>, RequestError> {
        let op = self.flush(now_ms)?;
        self.force_snapshot()?;
        self.sync_persistence()?;
        Ok(op)
    }

    /// WAL records a restart would replay right now: 0 immediately after
    /// a snapshot (in particular after [`shutdown`](GroupKeyServer::shutdown)).
    /// `None` for in-memory servers.
    pub fn wal_tail(&self) -> Option<u64> {
        self.persist.as_ref().map(|p| p.ops_since_snapshot())
    }

    /// The one step every operation is — a join, a leave, a refresh (no
    /// requests) or a batch interval: mark and replace the changed paths
    /// once, construct the rekey messages, and [`finish`](Self::finish).
    /// The caller has checked admission and logs the operation afterwards.
    ///
    /// Under `strategy = derived` a leave-free operation draws a derivation
    /// code (after any individual key, so replay under the same seed
    /// reproduces the identical code stream) and replaces each changed key
    /// by *deriving* it from its predecessor; the packet then carries the
    /// code, the changed-key worklist and the joiners' sealed unicasts.
    /// Forward secrecy: anything containing a leave draws fresh keys and
    /// ships them under the shipped fallback strategy instead.
    ///
    /// A join or refresh is told the paper's join way (§3.3: the new key
    /// under the key it replaces); a leave or batch interval the leave way
    /// (§3.4: the new key under each child's key).
    ///
    /// The caller holds the operation's [`op_span`](Self::op_span).
    fn rekey(
        &mut self,
        kind: OpKind,
        joins: &[(UserId, SymmetricKey)],
        leaves: &[UserId],
    ) -> Result<ProcessedOp, RequestError> {
        let started = Instant::now();
        let strategy = if leaves.is_empty() {
            self.config.strategy
        } else {
            self.config.strategy.shipped_fallback()
        };
        let derived = strategy == Strategy::Derived;
        let code = if derived { self.keygen.generate(DERIVATION_CODE_LEN) } else { Vec::new() };
        let event = {
            let _s = self.obs.span("tree");
            let mode = if derived { NewKeyMode::Derived(&code) } else { NewKeyMode::Fresh };
            self.tree.apply_interval(joins, leaves, &mut self.keygen, mode)?
        };
        let out = {
            let _s = self.obs.span("encrypt");
            // `finish` numbers the operation `seq + 1`; its bundles' IVs
            // derive from that interval.
            let rekeyer = Rekeyer::new(self.config.cipher, self.seq + 1);
            match kind {
                OpKind::Join | OpKind::Refresh => rekeyer.join(&event, strategy),
                OpKind::Leave | OpKind::Batch => rekeyer.batch(&event, strategy),
            }
        };
        // An emptied group is told nothing, not even a code.
        let derive = if derived && !event.marked.is_empty() {
            (code, event.derived_links())
        } else {
            Default::default()
        };
        let requests = (joins.len() + leaves.len()) as u32;
        let op = self.finish(kind, requests, started, out, derive);
        // The event lists every leaver, including users who rejoined in the
        // same interval; only those now outside the tree have departed.
        let departed = event.departed.into_iter().filter(|&u| !self.tree.is_member(u)).collect();
        let grants = event
            .joins
            .into_iter()
            .map(|j| JoinGrant {
                user: j.user,
                individual_key: j.leaf_key,
                leaf_label: j.leaf_label,
                path_labels: j.path.iter().map(|(r, _)| r.label).collect(),
            })
            .collect();
        Ok(ProcessedOp { grants, departed, ..op })
    }

    /// The span one operation of `kind` runs in (`op.join`, …), opened by
    /// each request entry around its [`rekey`](Self::rekey).
    fn op_span(&self, kind: OpKind) -> kg_obs::Span {
        self.obs.span(OP_SPANS[kind.tag() as usize])
    }

    /// The common tail of every operation — join, leave, refresh, batch
    /// interval: number it, put its messages into packets, authenticate
    /// and encode them, and account its cost (metrics, ledger, stats
    /// record). `derive` is the published `(code, worklist)` of a derived
    /// join, refresh or pure-join interval; empty otherwise.
    ///
    /// The shipped strategies send one packet per message (recipient
    /// class). `strategy = derived` sends one group multicast carrying the
    /// code, the worklist and every bundle, so clients see one monotonic
    /// stream; an operation with nothing to say (the last member leaving)
    /// sends nothing, like the shipped strategies.
    ///
    /// Returns the operation, numbered; the caller fills in whom it admitted
    /// and removed.
    fn finish(
        &mut self,
        kind: OpKind,
        requests: u32,
        started: Instant,
        out: RekeyOutput,
        (code, changed): (Vec<u8>, Vec<DerivedLink>),
    ) -> ProcessedOp {
        let seq = self.seq;
        self.seq += 1;
        // `interval` starts at 1: clients treat an equal interval as
        // redelivery, so 0 would alias their initial state. The timestamp
        // is the deterministic logical clock.
        let packet = |recipients, code, changed, bundles| RekeyPacket {
            interval: seq + 1,
            op: kind,
            timestamp_ms: seq,
            recipients,
            code,
            changed,
            bundles,
            auth: AuthTag::None,
        };
        let mut packets: Vec<RekeyPacket> = if self.config.strategy != Strategy::Derived {
            out.messages
                .into_iter()
                .map(|m| packet(m.recipients, Vec::new(), Vec::new(), m.bundles))
                .collect()
        } else if code.is_empty() && changed.is_empty() && out.messages.is_empty() {
            Vec::new()
        } else {
            let bundles = out.messages.into_iter().flat_map(|m| m.bundles).collect();
            vec![packet(Recipients::Group, code, changed, bundles)]
        };
        // Each body is encoded once: signed as it is, then sent with its
        // tag appended.
        let bodies: Vec<Vec<u8>> = {
            let _s = self.obs.span("body");
            packets.iter().map(|p| p.encode_body()).collect()
        };
        let (tags, signatures) = self.compute_auth_tags(&bodies);
        for (p, tag) in packets.iter_mut().zip(tags) {
            p.auth = tag;
        }
        let encoded: Vec<Vec<u8>> = {
            let _s = self.obs.span("encode");
            packets.iter().zip(bodies).map(|(p, body)| p.encode_with_body(body)).collect()
        };
        let proc_ns = started.elapsed().as_nanos() as u64;

        let _s = self.obs.span("account");
        let ops = out.ops;
        let at = kind.tag() as usize;
        self.metrics.requests[at].inc();
        self.metrics.signatures.add(signatures);
        // A refresh's single seal is accounted in the ledger and the stats
        // record only; the generic counters have never included it, and
        // `report derived` and the cluster stats report read them.
        if kind != OpKind::Refresh {
            self.metrics.encryptions.add(ops.key_encryptions);
            self.metrics.cache_hits.add(ops.cache_hits);
            self.metrics.cache_misses.add(ops.cache_misses);
        }
        self.ledger[at].record(
            ops.key_encryptions,
            encoded.len() as u64,
            encoded.iter().map(|e| e.len() as u64).sum(),
            ops.keys_generated,
            ops.cache_hits,
        );
        self.stats.push(OpRecord {
            kind,
            requests,
            msg_sizes: encoded.iter().map(|e| e.len() as u32).collect(),
            proc_ns,
            encryptions: ops.key_encryptions,
            signatures,
        });
        ProcessedOp { seq, packets, encoded, ..ProcessedOp::default() }
    }

    /// Compute per-packet authentication tags for the given encoded
    /// bodies. Returns the tags (one per body, in body order) and the
    /// number of RSA signing operations performed. `SignBatch` performs a
    /// *single* RSA operation over the digest-tree root (that is its whole
    /// point, §4). Hashing runs in the `digest` span, the private-key
    /// operations in the `rsa` span.
    fn compute_auth_tags(&self, bodies: &[Vec<u8>]) -> (Vec<AuthTag>, u64) {
        let alg = self.config.digest;
        let sign = |digest: &[u8]| {
            let key = &self.rsa.as_ref().expect("policy requires key").private;
            key.sign_digest(alg, digest).expect("signing")
        };
        match self.config.auth {
            AuthPolicy::None => (vec![AuthTag::None; bodies.len()], 0),
            AuthPolicy::Digest => {
                let _s = self.obs.span("digest");
                (bodies.iter().map(|b| AuthTag::Digest(alg.hash(b))).collect(), 0)
            }
            AuthPolicy::SignEach => {
                let digests: Vec<Vec<u8>> = {
                    let _s = self.obs.span("digest");
                    bodies.iter().map(|b| alg.hash(b)).collect()
                };
                let _s = self.obs.span("rsa");
                let tags = digests.iter().map(|d| AuthTag::Signed { signature: sign(d) }).collect();
                (tags, bodies.len() as u64)
            }
            AuthPolicy::SignBatch => {
                if bodies.is_empty() {
                    return (Vec::new(), 0);
                }
                let (root, paths) = {
                    let _s = self.obs.span("digest");
                    let refs: Vec<&[u8]> = bodies.iter().map(|b| b.as_slice()).collect();
                    merkle::digest_tree(alg, &refs)
                };
                let root_signature = {
                    let _s = self.obs.span("rsa");
                    sign(&root)
                };
                let tags = paths
                    .into_iter()
                    .map(|path| AuthTag::MerkleSigned {
                        root_signature: root_signature.clone(),
                        path,
                    })
                    .collect();
                (tags, 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::rekey::{Recipients, Strategy};

    fn server(auth: AuthPolicy, strategy: Strategy) -> GroupKeyServer {
        let config = ServerConfig { auth, strategy, rsa_bits: 512, ..ServerConfig::default() };
        GroupKeyServer::new(config, AccessControl::AllowAll)
    }

    fn populate(s: &mut GroupKeyServer, n: u64) {
        for i in 0..n {
            s.handle_join(UserId(i)).unwrap();
        }
    }

    #[test]
    fn join_produces_grant_and_packets() {
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        populate(&mut s, 8);
        let op = s.handle_join(UserId(100)).unwrap();
        let grant = &op.grants[0];
        assert_eq!(grant.user, UserId(100));
        assert!(!grant.path_labels.is_empty());
        assert_eq!(op.packets.len(), 2); // group multicast + joiner unicast
        assert_eq!(op.packets.len(), op.encoded.len());
        assert_eq!(s.group_size(), 9);
    }

    #[test]
    fn leave_requires_membership() {
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        populate(&mut s, 4);
        assert!(matches!(
            s.handle_leave(UserId(999)).unwrap_err(),
            RequestError::Tree(TreeError::NotAMember(_))
        ));
        s.handle_leave(UserId(2)).unwrap();
        assert_eq!(s.group_size(), 3);
        assert!(!s.is_member(UserId(2)));
    }

    #[test]
    fn acl_denies_join() {
        let config = ServerConfig::default();
        let mut s = GroupKeyServer::new(config, AccessControl::allow_list([UserId(1)]));
        assert!(s.handle_join(UserId(1)).is_ok());
        assert_eq!(s.handle_join(UserId(2)).unwrap_err(), RequestError::JoinDenied(UserId(2)));
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        s.handle_join(UserId(5)).unwrap();
        assert!(matches!(
            s.handle_join(UserId(5)).unwrap_err(),
            RequestError::Tree(TreeError::AlreadyMember(_))
        ));
    }

    #[test]
    fn digest_policy_attaches_valid_digest() {
        let mut s = server(AuthPolicy::Digest, Strategy::GroupOriented);
        populate(&mut s, 4);
        let op = s.handle_join(UserId(9)).unwrap();
        for (p, enc) in op.packets.iter().zip(&op.encoded) {
            let AuthTag::Digest(d) = &p.auth else { panic!("expected digest") };
            let (decoded, body_len) = RekeyPacket::decode(enc).unwrap();
            assert_eq!(d, &s.config().digest.hash(&enc[..body_len]));
            assert_eq!(&decoded, p);
        }
    }

    #[test]
    fn sign_each_produces_verifiable_signatures() {
        let mut s = server(AuthPolicy::SignEach, Strategy::KeyOriented);
        populate(&mut s, 8);
        let op = s.handle_leave(UserId(3)).unwrap();
        let pk = s.public_key().unwrap();
        let mut count = 0;
        for (p, enc) in op.packets.iter().zip(&op.encoded) {
            let AuthTag::Signed { signature } = &p.auth else { panic!("expected signature") };
            let (_, body_len) = RekeyPacket::decode(enc).unwrap();
            pk.verify(s.config().digest, &enc[..body_len], signature).unwrap();
            count += 1;
        }
        assert!(count > 1, "key-oriented leave sends several messages");
        let rec = s.stats().records().last().unwrap();
        assert_eq!(rec.signatures, count as u64);
    }

    #[test]
    fn sign_batch_uses_one_signature_for_all_messages() {
        let mut s = server(AuthPolicy::SignBatch, Strategy::KeyOriented);
        populate(&mut s, 16);
        let op = s.handle_leave(UserId(7)).unwrap();
        let pk = s.public_key().unwrap();
        assert!(op.packets.len() > 1);
        let mut roots = std::collections::BTreeSet::new();
        for (p, enc) in op.packets.iter().zip(&op.encoded) {
            let AuthTag::MerkleSigned { root_signature, path } = &p.auth else {
                panic!("expected merkle")
            };
            roots.insert(root_signature.clone());
            let (_, body_len) = RekeyPacket::decode(enc).unwrap();
            merkle::verify_message(pk, s.config().digest, &enc[..body_len], path, root_signature)
                .unwrap();
        }
        assert_eq!(roots.len(), 1, "single signature shared by the batch");
        let rec = s.stats().records().last().unwrap();
        assert_eq!(rec.signatures, 1);
    }

    /// `finish` encodes each body once, signs it and appends the tag: the
    /// datagrams must equal each finished packet's own `encode()`, for
    /// every strategy, auth policy and kind of operation.
    #[test]
    fn datagrams_equal_each_packets_own_encoding() {
        let auths =
            [AuthPolicy::None, AuthPolicy::Digest, AuthPolicy::SignEach, AuthPolicy::SignBatch];
        for strategy in Strategy::EVERY {
            for auth in auths {
                let mut s = server(auth, strategy);
                populate(&mut s, 8);
                let mut ops = vec![
                    s.handle_join(UserId(100)).unwrap(),
                    s.handle_leave(UserId(3)).unwrap(),
                    s.refresh_group_key().unwrap(),
                ];
                let rekey = RekeyPolicy::Batched { interval_ms: 100, max_pending: 1000 };
                let config = ServerConfig { rekey, ..s.config().clone() };
                let mut b = GroupKeyServer::new(config, AccessControl::AllowAll);
                populate_batched(&mut b, 8, 0);
                b.handle_join(UserId(100)).unwrap();
                b.handle_leave(UserId(3)).unwrap();
                ops.push(b.flush(100).unwrap().unwrap());
                for op in ops {
                    let kind = op.packets.first().map(|p| p.op);
                    assert!(kind.is_some(), "{strategy:?}/{auth:?}: no packet");
                    let own: Vec<Vec<u8>> = op.packets.iter().map(|p| p.encode()).collect();
                    assert_eq!(op.encoded, own, "{strategy:?}/{auth:?}/{kind:?}");
                    for (p, datagram) in op.packets.iter().zip(&op.encoded) {
                        assert_eq!(&RekeyPacket::decode(datagram).unwrap().0, p);
                    }
                }
            }
        }
    }

    #[test]
    fn stats_track_sizes_and_encryptions() {
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        populate(&mut s, 64);
        s.reset_stats();
        s.handle_join(UserId(200)).unwrap();
        s.handle_leave(UserId(200)).unwrap();
        let agg = s.stats().aggregate(None).unwrap();
        assert_eq!(agg.ops, 2);
        assert!(agg.msg_size_ave > 0.0);
        assert!(agg.encryptions_ave > 0.0);
        let join = s.stats().aggregate(Some(OpKind::Join)).unwrap();
        let leave = s.stats().aggregate(Some(OpKind::Leave)).unwrap();
        // Group-oriented: join sends 2 messages, leave sends 1.
        assert_eq!(join.msgs_per_op, 2.0);
        assert_eq!(leave.msgs_per_op, 1.0);
        // Leave encrypts ~d(h−1), join 2(h−1)+(h−1); comparable magnitudes.
        assert!(leave.encryptions_ave > join.encryptions_ave / 2.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let config = ServerConfig { seed, ..ServerConfig::default() };
            let mut s = GroupKeyServer::new(config, AccessControl::AllowAll);
            populate(&mut s, 10);
            let op = s.handle_leave(UserId(4)).unwrap();
            op.encoded.clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn last_member_leave_sends_nothing() {
        let mut s = server(AuthPolicy::SignBatch, Strategy::GroupOriented);
        s.handle_join(UserId(1)).unwrap();
        let op = s.handle_leave(UserId(1)).unwrap();
        assert!(op.packets.is_empty());
        assert_eq!(s.group_size(), 0);
        let rec = s.stats().records().last().unwrap();
        assert_eq!(rec.signatures, 0);
    }

    fn batched_server(strategy: Strategy, interval_ms: u64, max_pending: usize) -> GroupKeyServer {
        let config = ServerConfig {
            strategy,
            rekey: crate::RekeyPolicy::Batched { interval_ms, max_pending },
            ..ServerConfig::default()
        };
        GroupKeyServer::new(config, AccessControl::AllowAll)
    }

    /// Immediate-mode populate is unavailable in batched mode; seed the
    /// group through one big interval instead.
    fn populate_batched(s: &mut GroupKeyServer, n: u64, now_ms: u64) {
        for i in 0..n {
            s.handle_join(UserId(i)).unwrap();
        }
        s.flush(now_ms).unwrap().unwrap();
    }

    #[test]
    fn batched_interval_flushes_on_time_not_before() {
        let mut s = batched_server(Strategy::GroupOriented, 100, 1000);
        populate_batched(&mut s, 16, 0);
        s.handle_join(UserId(100)).unwrap();
        s.handle_leave(UserId(3)).unwrap();
        assert_eq!(s.pending_requests(), 2);
        assert!(s.tick(50).unwrap().is_none(), "interval not yet elapsed");
        let batch = s.tick(100).unwrap().expect("interval elapsed");
        assert_eq!(batch.packets[0].interval, 2);
        assert_eq!(batch.grants.len(), 1);
        assert_eq!(batch.grants[0].user, UserId(100));
        assert_eq!(batch.departed, vec![UserId(3)]);
        assert!(!batch.packets.is_empty());
        assert!(s.is_member(UserId(100)));
        assert!(!s.is_member(UserId(3)));
        // One per-interval stats record covering both requests.
        let rec = s.stats().records().last().unwrap();
        assert_eq!(rec.kind, OpKind::Batch);
        assert_eq!(rec.requests, 2);
        assert!(rec.encryptions > 0);
    }

    #[test]
    fn batched_queue_depth_forces_early_flush() {
        let mut s = batched_server(Strategy::GroupOriented, 1_000_000, 4);
        populate_batched(&mut s, 8, 0);
        for i in 100..103 {
            s.handle_join(UserId(i)).unwrap();
        }
        assert!(s.tick(1).unwrap().is_none());
        s.handle_join(UserId(103)).unwrap();
        let batch = s.tick(1).unwrap().expect("depth threshold");
        assert_eq!(batch.grants.len(), 4);
        assert_eq!(s.group_size(), 12);
    }

    #[test]
    fn batched_mode_validates_at_request_time() {
        let mut s = batched_server(Strategy::GroupOriented, 100, 100);
        populate_batched(&mut s, 4, 0);
        assert!(matches!(
            s.handle_join(UserId(2)).unwrap_err(),
            RequestError::Tree(TreeError::AlreadyMember(_))
        ));
        assert!(matches!(
            s.handle_leave(UserId(77)).unwrap_err(),
            RequestError::Tree(TreeError::NotAMember(_))
        ));
        // Leave-then-rejoin within one interval is allowed.
        s.handle_leave(UserId(2)).unwrap();
        s.handle_join(UserId(2)).unwrap();
        let batch = s.flush(10).unwrap().unwrap();
        assert_eq!(batch.grants.len(), 1);
        assert!(batch.departed.is_empty(), "rejoin is not a departure");
        assert!(s.is_member(UserId(2)));
    }

    #[test]
    fn batched_acl_denial_happens_at_request() {
        let config = ServerConfig {
            rekey: crate::RekeyPolicy::Batched { interval_ms: 10, max_pending: 10 },
            ..ServerConfig::default()
        };
        let mut s = GroupKeyServer::new(config, AccessControl::allow_list([UserId(1)]));
        s.handle_join(UserId(1)).unwrap();
        assert_eq!(s.handle_join(UserId(2)).unwrap_err(), RequestError::JoinDenied(UserId(2)));
        let batch = s.flush(0).unwrap().unwrap();
        assert_eq!(batch.grants.len(), 1);
    }

    /// A request on a batching server goes through the queue whatever it
    /// is and however often it is made: nothing is admitted or removed
    /// ahead of the interval, and the flush admits each user exactly once.
    /// On a server that rekeys per request, `tick` and `flush` are harmless.
    #[test]
    fn batched_requests_never_bypass_the_queue() {
        let mut s = batched_server(Strategy::GroupOriented, 100, 1000);
        populate_batched(&mut s, 4, 0);
        for _ in 0..2 {
            let op = s.handle_join(UserId(9)).unwrap();
            assert_eq!(op.delivery().count(), 0, "a queued request delivers nothing");
            assert!(!s.is_member(UserId(9)), "not admitted ahead of the interval");
        }
        s.handle_join(UserId(10)).unwrap();
        assert!(s.handle_leave(UserId(2)).unwrap().departed.is_empty());
        assert!(s.is_member(UserId(2)), "not removed ahead of the interval");
        assert_eq!(s.pending_requests(), 3);
        let op = s.flush(100).unwrap().expect("a non-empty interval");
        let admitted: Vec<UserId> = op.grants.iter().map(|g| g.user).collect();
        assert_eq!(admitted, [UserId(9), UserId(10)], "every queued joiner, once");
        assert_eq!(op.departed, [UserId(2)]);
        assert_eq!(s.group_size(), 5);

        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        assert!(s.tick(1_000).unwrap().is_none());
        assert!(s.flush(1_000).unwrap().is_none());
    }

    #[test]
    fn delivery_is_ordered_departed_then_grants_then_frames() {
        let mut s = batched_server(Strategy::KeyOriented, 100, 1000);
        populate_batched(&mut s, 9, 0);
        for u in [3, 4] {
            s.handle_leave(UserId(u)).unwrap();
        }
        for u in [20, 21] {
            s.handle_join(UserId(u)).unwrap();
        }
        let op = s.flush(100).unwrap().unwrap();
        assert!(op.packets.len() > 1, "key-oriented: several frames");
        let rank = |step: &Delivery<'_>| match step {
            Delivery::Evict(_) => 0,
            Delivery::Admit(_) => 1,
            Delivery::Frame(..) => 2,
        };
        let steps: Vec<Delivery<'_>> = op.delivery().collect();
        assert!(steps.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])), "{steps:?}");
        let count = |r: u8| steps.iter().filter(|s| rank(s) == r).count();
        assert_eq!((count(0), count(1), count(2)), (2, 2, op.encoded.len()));

        // A per-request operation is the same list with one entry.
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        populate(&mut s, 4);
        let op = s.handle_leave(UserId(1)).unwrap();
        assert_eq!(op.delivery().next(), Some(Delivery::Evict(UserId(1))));
        let op = s.handle_join(UserId(7)).unwrap();
        assert!(matches!(op.delivery().next(), Some(Delivery::Admit(g)) if g.user == UserId(7)));
    }

    #[test]
    fn batch_packets_carry_auth_under_every_policy() {
        for auth in [AuthPolicy::Digest, AuthPolicy::SignEach, AuthPolicy::SignBatch] {
            let config = ServerConfig {
                auth,
                rekey: crate::RekeyPolicy::Batched { interval_ms: 10, max_pending: 1000 },
                rsa_bits: 512,
                ..ServerConfig::default()
            };
            let mut s = GroupKeyServer::new(config, AccessControl::AllowAll);
            populate_batched(&mut s, 12, 0);
            for i in 100..104 {
                s.handle_join(UserId(i)).unwrap();
            }
            s.handle_leave(UserId(5)).unwrap();
            let batch = s.flush(10).unwrap().unwrap();
            for (p, enc) in batch.packets.iter().zip(&batch.encoded) {
                let (decoded, body_len) = RekeyPacket::decode(enc).unwrap();
                assert_eq!(&decoded, p);
                match (&p.auth, auth) {
                    (AuthTag::Digest(d), AuthPolicy::Digest) => {
                        assert_eq!(d, &s.config().digest.hash(&enc[..body_len]));
                    }
                    (AuthTag::Signed { signature }, AuthPolicy::SignEach) => {
                        s.public_key()
                            .unwrap()
                            .verify(s.config().digest, &enc[..body_len], signature)
                            .unwrap();
                    }
                    (AuthTag::MerkleSigned { root_signature, path }, AuthPolicy::SignBatch) => {
                        merkle::verify_message(
                            s.public_key().unwrap(),
                            s.config().digest,
                            &enc[..body_len],
                            path,
                            root_signature,
                        )
                        .unwrap();
                    }
                    (tag, policy) => panic!("unexpected tag {tag:?} under {policy:?}"),
                }
            }
        }
    }

    #[test]
    fn recipients_cover_all_members_for_each_strategy() {
        for strategy in Strategy::ALL {
            let mut s = server(AuthPolicy::None, strategy);
            populate(&mut s, 27);
            let op = s.handle_leave(UserId(13)).unwrap();
            // Union of resolved recipient sets must equal the remaining
            // membership.
            let mut covered = std::collections::BTreeSet::new();
            for p in &op.packets {
                covered.extend(s.tree().resolve(&p.recipients));
            }
            let members: std::collections::BTreeSet<UserId> = s.tree().members().collect();
            assert_eq!(covered, members, "strategy {strategy:?}");
        }
    }

    // ---- derived strategy -----------------------------------------------

    #[test]
    fn derived_join_publishes_code_at_constant_cost() {
        let mut s = server(AuthPolicy::None, Strategy::Derived);
        populate(&mut s, 64);
        let before = s.stats().records().len();
        let op = s.handle_join(UserId(100)).unwrap();
        assert_eq!(op.packets.len(), 1, "a derived op is one group multicast");
        let p = &op.packets[0];
        assert_eq!(p.op, kg_wire::OpKind::Join);
        assert_eq!(p.code.len(), kg_core::derive::DERIVATION_CODE_LEN);
        assert!(!p.changed.is_empty(), "join must publish derivation links");
        assert_eq!(p.bundles.len(), 1, "only the joiner's unicast is sealed");
        assert_eq!(op.grants.len(), 1);
        // O(1) bundles sealed: only the joiner's unicast, whose cost is the
        // path keys it packs. A shipped group-oriented join additionally
        // seals the whole path for the group multicast, doubling this.
        let rec = &s.stats().records()[before];
        assert_eq!(rec.encryptions, p.changed.len() as u64);
        // Everything multicasts: the joiner is subscribed before dispatch
        // and its bundle is sealed under a key only it holds.
        assert!(op.packets.iter().all(|p| p.recipients == Recipients::Group));
    }

    #[test]
    fn derived_leave_ships_keys_for_forward_secrecy() {
        let mut s = server(AuthPolicy::None, Strategy::Derived);
        populate(&mut s, 16);
        let op = s.handle_leave(UserId(5)).unwrap();
        assert_eq!(op.packets.len(), 1);
        let p = &op.packets[0];
        assert_eq!(p.op, kg_wire::OpKind::Leave);
        // Derivation from keys the departed member held would leak the new
        // keys to them; a leave publishes no code and ships everything.
        assert!(p.code.is_empty());
        assert!(p.changed.is_empty());
        assert!(!p.bundles.is_empty(), "replacement keys must be shipped");
        assert!(!s.is_member(UserId(5)));
    }

    #[test]
    fn derived_refresh_is_ciphertext_free() {
        let mut s = server(AuthPolicy::None, Strategy::Derived);
        populate(&mut s, 16);
        let before = s.stats().records().len();
        let op = s.refresh_group_key().unwrap();
        assert_eq!(op.packets.len(), 1);
        let p = &op.packets[0];
        assert_eq!(p.op, kg_wire::OpKind::Refresh);
        assert_eq!(p.code.len(), kg_core::derive::DERIVATION_CODE_LEN);
        assert_eq!(p.changed.len(), 1, "refresh rotates only the group key");
        assert!(p.bundles.is_empty(), "no ciphertext: every member derives");
        assert_eq!(s.stats().records()[before].encryptions, 0);
    }

    #[test]
    fn derived_intervals_are_strictly_monotonic() {
        let mut s = server(AuthPolicy::None, Strategy::Derived);
        let mut last = 0;
        for i in 0..8 {
            let op = s.handle_join(UserId(i)).unwrap();
            let p = &op.packets[0];
            assert!(p.interval > last, "intervals must advance past {last}");
            last = p.interval;
        }
        let op = s.refresh_group_key().unwrap();
        assert!(op.packets[0].interval > last);
    }

    #[test]
    fn derived_packets_carry_auth_tags() {
        let mut s = server(AuthPolicy::Digest, Strategy::Derived);
        populate(&mut s, 4);
        let op = s.handle_join(UserId(50)).unwrap();
        assert!(!matches!(op.packets[0].auth, kg_wire::AuthTag::None));
        let mut s = server(AuthPolicy::SignEach, Strategy::Derived);
        populate(&mut s, 4);
        let op = s.refresh_group_key().unwrap();
        assert!(matches!(op.packets[0].auth, kg_wire::AuthTag::Signed { .. }));
    }

    #[test]
    fn derived_batch_pure_join_publishes_code() {
        let config = ServerConfig {
            strategy: Strategy::Derived,
            rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 1024 },
            rsa_bits: 512,
            ..ServerConfig::default()
        };
        let mut s = GroupKeyServer::new(config, AccessControl::AllowAll);
        for i in 0..8 {
            s.handle_join(UserId(i)).unwrap();
        }
        let batch = s.flush(100).unwrap().unwrap();
        assert_eq!(batch.packets.len(), 1);
        let p = &batch.packets[0];
        assert_eq!(p.op, kg_wire::OpKind::Batch);
        assert!(!p.code.is_empty());
        assert!(!p.changed.is_empty());
        assert_eq!(p.bundles.len(), 8, "one sealed unicast per joiner");
        assert!(batch.packets.iter().all(|p| p.recipients == Recipients::Group));

        // An interval containing any leave falls back to shipping keys.
        s.handle_join(UserId(100)).unwrap();
        s.handle_leave(UserId(3)).unwrap();
        let batch = s.flush(200).unwrap().unwrap();
        assert_eq!(batch.packets.len(), 1);
        let p = &batch.packets[0];
        assert!(p.code.is_empty(), "leave intervals must not publish a code");
        assert!(p.changed.is_empty());
        assert!(!p.bundles.is_empty());
    }

    // ---- crash recovery -------------------------------------------------

    fn scratch_dir() -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("kg-server-recover-{}-{n}", std::process::id()))
    }

    fn persist_config() -> PersistConfig {
        PersistConfig { fsync: kg_persist::FsyncPolicy::EveryRecord, ..PersistConfig::default() }
    }

    #[test]
    fn persisted_server_recovers_identically() {
        let dir = scratch_dir();
        let config = ServerConfig { rsa_bits: 512, ..ServerConfig::default() };
        let mut control = GroupKeyServer::new(config.clone(), AccessControl::AllowAll);
        let mut s = GroupKeyServer::with_persistence(
            config.clone(),
            AccessControl::AllowAll,
            &dir,
            persist_config(),
        )
        .unwrap();
        for i in 0..20 {
            s.handle_join(UserId(i)).unwrap();
            control.handle_join(UserId(i)).unwrap();
        }
        s.handle_leave(UserId(3)).unwrap();
        control.handle_leave(UserId(3)).unwrap();
        s.refresh_group_key().unwrap();
        control.refresh_group_key().unwrap();
        let digest_at_crash = serial::root_digest(s.tree());
        drop(s); // crash: no clean shutdown

        // Simulate a write torn mid-record by the crash: garbage bytes
        // past the last complete record must be discarded on recovery.
        {
            use std::io::Write;
            let mut f =
                std::fs::OpenOptions::new().append(true).open(dir.join("wal-0.kgl")).unwrap();
            f.write_all(&[0xFF; 7]).unwrap();
        }

        let obs = Obs::new(kg_obs::ObsConfig::default());
        let mut r = GroupKeyServer::recover_observed(
            config,
            AccessControl::AllowAll,
            &dir,
            persist_config(),
            obs.clone(),
        )
        .unwrap();
        let recovered: Vec<ObsEvent> = obs.timeline().into_iter().map(|e| e.event).collect();
        assert_eq!(
            recovered,
            [ObsEvent::Recovered { epoch: 0, records_replayed: 22, torn_tail: true }],
            "the discarded tear is on the timeline"
        );
        assert_eq!(serial::root_digest(r.tree()), digest_at_crash);
        assert_eq!(r.group_size(), 19);
        assert!(!r.is_member(UserId(3)));
        assert!(r.is_persistent());

        // Post-recovery ops continue the same deterministic key streams
        // as a server that never crashed.
        let a = r.handle_join(UserId(100)).unwrap();
        let b = control.handle_join(UserId(100)).unwrap();
        assert_eq!(a.encoded, b.encoded);
        assert_eq!(serial::root_digest(r.tree()), serial::root_digest(control.tree()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_carries_exactly_the_retained_record_window() {
        const WINDOW: usize = ServerStats::DEFAULT_RECORD_CAP;
        let dir = scratch_dir();
        let config = ServerConfig::default();
        let mut s = GroupKeyServer::with_persistence(
            config.clone(),
            AccessControl::AllowAll,
            &dir,
            persist_config(),
        )
        .unwrap();
        for i in 0..3 * WINDOW as u64 {
            s.handle_join(UserId(i)).unwrap();
        }
        assert_eq!(s.stats().records().len(), WINDOW);
        assert_eq!(s.stats().records_pushed(), 3 * WINDOW as u64);
        assert_eq!(s.stats().records_evicted(), 2 * WINDOW as u64);
        let window = s.stats().records().to_vec();
        s.force_snapshot().unwrap();
        drop(s);

        let r = GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, persist_config())
            .unwrap();
        assert_eq!(r.stats().records(), window);
        // Evicted records are gone for good: the restored totals start at
        // the window.
        assert_eq!((r.stats().records_pushed(), r.stats().records_evicted()), (WINDOW as u64, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_server_recovers_mid_interval() {
        let dir = scratch_dir();
        let config = ServerConfig {
            rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 1000 },
            rsa_bits: 512,
            ..ServerConfig::default()
        };
        let mut control = GroupKeyServer::new(config.clone(), AccessControl::AllowAll);
        let mut s = GroupKeyServer::with_persistence(
            config.clone(),
            AccessControl::AllowAll,
            &dir,
            persist_config(),
        )
        .unwrap();
        for i in 0..16 {
            s.handle_join(UserId(i)).unwrap();
            control.handle_join(UserId(i)).unwrap();
        }
        s.flush(0).unwrap().unwrap();
        control.flush(0).unwrap().unwrap();
        // Crash with requests queued but the interval not yet flushed.
        s.handle_join(UserId(100)).unwrap();
        control.handle_join(UserId(100)).unwrap();
        s.handle_leave(UserId(5)).unwrap();
        control.handle_leave(UserId(5)).unwrap();
        drop(s);

        let mut r =
            GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, persist_config())
                .unwrap();
        assert_eq!(r.pending_requests(), 2, "queued requests survive the crash");
        let a = r.tick(100).unwrap().expect("interval elapsed");
        let b = control.tick(100).unwrap().expect("interval elapsed");
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.encoded, b.encoded, "recovered batch is byte-identical");
        assert_eq!(a.departed, b.departed);
        assert_eq!(
            a.grants[0].individual_key.material(),
            b.grants[0].individual_key.material(),
            "queued joiner gets the key generated before the crash"
        );
        assert_eq!(serial::root_digest(r.tree()), serial::root_digest(control.tree()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn derived_server_recovers_identically() {
        let dir = scratch_dir();
        let config =
            ServerConfig { strategy: Strategy::Derived, rsa_bits: 512, ..ServerConfig::default() };
        let mut control = GroupKeyServer::new(config.clone(), AccessControl::AllowAll);
        let mut s = GroupKeyServer::with_persistence(
            config.clone(),
            AccessControl::AllowAll,
            &dir,
            persist_config(),
        )
        .unwrap();
        for i in 0..20 {
            s.handle_join(UserId(i)).unwrap();
            control.handle_join(UserId(i)).unwrap();
        }
        s.refresh_group_key().unwrap();
        control.refresh_group_key().unwrap();
        s.handle_leave(UserId(3)).unwrap();
        control.handle_leave(UserId(3)).unwrap();
        let digest_at_crash = serial::root_digest(s.tree());
        drop(s);

        let mut r =
            GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, persist_config())
                .unwrap();
        assert_eq!(serial::root_digest(r.tree()), digest_at_crash);
        // The derivation-code draws are part of the deterministic key
        // stream: post-recovery packets must be byte-identical, codes
        // included, to a server that never crashed.
        let a = r.handle_join(UserId(100)).unwrap();
        let b = control.handle_join(UserId(100)).unwrap();
        assert_eq!(a.encoded, b.encoded);
        assert_eq!(a.packets[0].code, b.packets[0].code);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotation_survives_recovery() {
        let dir = scratch_dir();
        let config = ServerConfig { rsa_bits: 512, ..ServerConfig::default() };
        let acl = AccessControl::allow_list((0..40).map(UserId));
        let pcfg = PersistConfig { snapshot_every_ops: 4, ..persist_config() };
        let mut control = GroupKeyServer::new(config.clone(), acl.clone());
        let mut s =
            GroupKeyServer::with_persistence(config.clone(), acl.clone(), &dir, pcfg).unwrap();
        for i in 0..30 {
            s.handle_join(UserId(i)).unwrap();
            control.handle_join(UserId(i)).unwrap();
        }
        for i in (0..30).step_by(3) {
            s.handle_leave(UserId(i)).unwrap();
            control.handle_leave(UserId(i)).unwrap();
        }
        assert!(
            s.persistence().unwrap().epoch() > 0,
            "thresholds this low must have rotated at least once"
        );
        drop(s);

        let mut r = GroupKeyServer::recover(config, acl, &dir, pcfg).unwrap();
        assert_eq!(serial::root_digest(r.tree()), serial::root_digest(control.tree()));
        assert_eq!(r.group_size(), control.group_size());
        // The snapshotted allow-list is live again: outsiders stay out.
        assert_eq!(r.handle_join(UserId(999)).unwrap_err(), RequestError::JoinDenied(UserId(999)));
        // And continued operation still tracks the control server.
        let a = r.handle_join(UserId(0)).unwrap();
        let b = control.handle_join(UserId(0)).unwrap();
        assert_eq!(a.encoded, b.encoded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_rotates_group_key_and_notifies_group() {
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        populate(&mut s, 8);
        let before = serial::root_digest(s.tree());
        let op = s.refresh_group_key().unwrap();
        assert_ne!(serial::root_digest(s.tree()), before);
        assert_eq!(op.packets.len(), 1);
        assert_eq!(op.packets[0].op, OpKind::Refresh);
        assert!(matches!(op.packets[0].recipients, Recipients::Group));
        let rec = s.stats().records().last().unwrap();
        assert_eq!(rec.kind, OpKind::Refresh);
        assert_eq!(rec.requests, 0);
    }

    #[test]
    fn refresh_on_empty_group_emits_nothing() {
        let mut s = server(AuthPolicy::None, Strategy::GroupOriented);
        let op = s.refresh_group_key().unwrap();
        assert!(op.packets.is_empty());
        assert!(op.encoded.is_empty());
    }

    /// The rekey-cost ledger keys every counter by `op="strategy:kind"`
    /// and accounts encryptions, messages, bytes, and touched tree
    /// nodes per completed operation.
    #[test]
    fn ledger_accounts_per_op_costs() {
        let mut s = server(AuthPolicy::None, Strategy::KeyOriented);
        let obs = Obs::new(kg_obs::ObsConfig::default());
        s.attach_obs(obs.clone());
        populate(&mut s, 8);
        let leave = s.handle_leave(UserId(3)).unwrap();
        s.refresh_group_key().unwrap();

        let counters: std::collections::BTreeMap<String, u64> =
            obs.counter_values().into_iter().collect();
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        assert_eq!(get("kg_ledger_ops_total{op=\"key:join\"}"), 8);
        assert_eq!(get("kg_ledger_ops_total{op=\"key:leave\"}"), 1);
        assert_eq!(get("kg_ledger_ops_total{op=\"key:refresh\"}"), 1);
        // A key-oriented leave on a populated tree rewrites the leaf's
        // path: several messages, several encryptions, bytes on the wire.
        assert_eq!(get("kg_ledger_messages_total{op=\"key:leave\"}"), leave.encoded.len() as u64);
        assert_eq!(
            get("kg_ledger_bytes_total{op=\"key:leave\"}"),
            leave.encoded.iter().map(|e| e.len() as u64).sum::<u64>()
        );
        assert!(get("kg_ledger_encryptions_total{op=\"key:leave\"}") >= 2);
        assert!(get("kg_ledger_nodes_touched_total{op=\"key:leave\"}") >= 1);
        // Refresh: one fresh root key, one ciphertext for the group.
        assert_eq!(get("kg_ledger_encryptions_total{op=\"key:refresh\"}"), 1);
        assert_eq!(get("kg_ledger_nodes_touched_total{op=\"key:refresh\"}"), 1);
        // The generic encryption counter agrees with the ledger's total.
        let ledger_enc: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("kg_ledger_encryptions_total"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(get("kg_encryptions_total") + 1, ledger_enc, "refresh seal is ledger-only");
    }
}
