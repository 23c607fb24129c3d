//! Crash–recovery integration tests for the `kg-persist` subsystem.
//!
//! The headline property: kill the key server at a random point *inside*
//! a batched rekey interval — queued requests not yet flushed — recover
//! it from the write-ahead log, and prove that (a) the recovered key tree
//! is byte-identical (root digest), (b) no member desyncs: every live
//! client still tracks the server's group key through the post-recovery
//! flush, and (c) no stale key survives: departed members remain locked
//! out of the current group key. A second suite drives the same scenario
//! over the simulated network using its crash fault mode and
//! [`NetServer::resume`].

use bytes::Bytes;
use keygraphs::client::{Client, VerifyPolicy};
use keygraphs::core::ids::UserId;
use keygraphs::core::rekey::{KeyCipher, Strategy};
use keygraphs::core::serial::root_digest;
use keygraphs::crypto::rsa::HashAlg;
use keygraphs::net::{NetConfig, SimNetwork};
use keygraphs::persist::crc::crc32;
use keygraphs::persist::{FsyncPolicy, PersistConfig, PersistError};
use keygraphs::server::net::{leave_authenticator, NetServer, ServerEvent};
use keygraphs::server::{
    AccessControl, AuthPolicy, GroupKeyServer, RecoverError, RekeyPolicy, ServerConfig,
};
use keygraphs::wire::{ControlMessage, RekeyPacket};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kg-crash-{tag}-{}-{n}", std::process::id()))
}

fn batched_config(seed: u64) -> ServerConfig {
    ServerConfig {
        auth: AuthPolicy::None,
        seed,
        strategy: Strategy::GroupOriented,
        rekey: RekeyPolicy::Batched { interval_ms: 1_000, max_pending: usize::MAX },
        ..ServerConfig::default()
    }
}

fn pcfg() -> PersistConfig {
    PersistConfig { fsync: FsyncPolicy::EveryRecord, ..PersistConfig::default() }
}

/// A batched, persisted server plus live decrypting clients — the
/// durability analogue of the secrecy suite's `BatchWorld`. The server
/// can crash (be dropped) and be rebuilt from disk; the clients are
/// separate processes in this fiction and keep their state.
struct PersistWorld {
    dir: PathBuf,
    config: ServerConfig,
    server: Option<GroupKeyServer>,
    clients: BTreeMap<UserId, Client>,
    ghosts: Vec<(UserId, Client)>,
    now_ms: u64,
}

impl PersistWorld {
    fn new(seed: u64) -> Self {
        let dir = scratch_dir("world");
        let config = batched_config(seed);
        let server =
            GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, pcfg())
                .expect("create persistent server");
        PersistWorld {
            dir,
            config,
            server: Some(server),
            clients: BTreeMap::new(),
            ghosts: Vec::new(),
            now_ms: 0,
        }
    }

    fn server(&mut self) -> &mut GroupKeyServer {
        self.server.as_mut().expect("server is up")
    }

    /// Kill the server process: all in-memory state is gone; only the
    /// snapshot + WAL on disk survive.
    fn crash(&mut self) {
        self.server = None;
    }

    fn recover(&mut self) {
        assert!(self.server.is_none(), "recover implies a prior crash");
        let server = GroupKeyServer::recover(
            self.config.clone(),
            AccessControl::AllowAll,
            &self.dir,
            pcfg(),
        )
        .expect("recovery succeeds");
        self.server = Some(server);
    }

    /// Flush the pending interval and deliver its traffic to the clients.
    fn flush(&mut self) {
        self.now_ms += 1_000;
        let now = self.now_ms;
        let Some(batch) = self.server().flush(now).expect("flush") else { return };
        for u in &batch.departed {
            let ghost = self.clients.remove(u).expect("departed user had a client");
            self.ghosts.push((*u, ghost));
        }
        for g in &batch.grants {
            let mut c = Client::new(g.user, KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
            c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
            self.clients.insert(g.user, c);
        }
        for bytes in &batch.encoded {
            for c in self.clients.values_mut() {
                c.apply(bytes).expect("client applies batch");
            }
        }
    }

    /// No member desyncs: every live client tracks the server's group key.
    fn assert_completeness(&mut self) {
        let (gk_ref, gk) = self.server().tree().group_key();
        for (u, c) in &self.clients {
            let (r, k) = c.group_key().unwrap_or_else(|| panic!("{u} lost the group key"));
            assert_eq!(r, gk_ref, "{u} stale ref");
            assert_eq!(k, gk, "{u} stale key");
        }
    }

    /// No stale key survives: no departed member's keyset contains the
    /// current group key.
    fn assert_no_stale_keys(&mut self) {
        let (_, gk) = self.server().tree().group_key();
        for (u, ghost) in &self.ghosts {
            for (_, k) in ghost.keyset() {
                assert_ne!(k, gk, "{u} retains the live group key after recovery");
            }
        }
    }
}

impl Drop for PersistWorld {
    fn drop(&mut self) {
        self.server = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Decode a churn script into enqueue operations that are always valid
/// (mirrors the scheduler's collapse rules the way the secrecy suite
/// does): returns whether the op was actually enqueued.
struct ChurnState {
    members: std::collections::BTreeSet<u64>,
    pending_join: std::collections::BTreeSet<u64>,
    pending_leave: std::collections::BTreeSet<u64>,
}

impl ChurnState {
    fn new(members: impl IntoIterator<Item = u64>) -> Self {
        ChurnState {
            members: members.into_iter().collect(),
            pending_join: Default::default(),
            pending_leave: Default::default(),
        }
    }

    /// Apply (kind, uid) to `server` if valid; update the mirror.
    fn apply(&mut self, server: &mut GroupKeyServer, kind: u8, uid: u64) {
        let u = UserId(uid);
        if kind == 0 {
            if !self.members.contains(&uid) && !self.pending_join.contains(&uid) {
                server.handle_join(u).expect("valid queued join");
                self.pending_join.insert(uid);
            }
        } else {
            let future = self.members.len() + self.pending_join.len() - self.pending_leave.len();
            if self.pending_join.contains(&uid) {
                if future > 1 {
                    server.handle_leave(u).expect("collapse join+leave");
                    self.pending_join.remove(&uid);
                }
            } else if self.members.contains(&uid)
                && !self.pending_leave.contains(&uid)
                && future > 1
            {
                server.handle_leave(u).expect("valid queued leave");
                self.pending_leave.insert(uid);
            }
        }
    }

    fn settle(&mut self) {
        for j in std::mem::take(&mut self.pending_join) {
            self.members.insert(j);
        }
        for l in std::mem::take(&mut self.pending_leave) {
            self.members.remove(&l);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property. A persisted batched server and an identical
    /// in-memory control run the same churn; the persisted one is killed
    /// at a random point inside an interval and recovered. After recovery
    /// the two servers' key trees carry the same root digest, the rest of
    /// the run produces byte-identical rekey traffic, every live client
    /// stays in sync, and every departed member stays locked out.
    #[test]
    fn crash_at_random_point_mid_interval_recovers_exactly(
        ops in proptest::collection::vec((0u8..2, 0u64..32), 8..40),
        crash_at in 0usize..40,
    ) {
        let seed = 0xC0FF_EE00;
        let mut w = PersistWorld::new(seed);
        let mut control =
            GroupKeyServer::new(batched_config(seed), AccessControl::AllowAll);

        // Seed interval: admit a base population on both servers.
        let mut wm = ChurnState::new([]);
        let mut cm = ChurnState::new([]);
        for i in 0..8u64 {
            wm.apply(w.server(), 0, 1_000 + i);
            cm.apply(&mut control, 0, 1_000 + i);
        }
        w.flush();
        let c = control.flush(w.now_ms).expect("control flush");
        prop_assert!(c.is_some());
        wm.settle();
        cm.settle();

        // Churn in intervals of 4 requests, crashing mid-interval at the
        // chosen index (clamped into range).
        let crash_at = crash_at % ops.len();
        let mut crashed = false;
        for (i, &(kind, uid)) in ops.iter().enumerate() {
            wm.apply(w.server(), kind, uid);
            cm.apply(&mut control, kind, uid);
            if i == crash_at {
                // Kill the server with this interval's requests queued but
                // not flushed, then bring it back from disk.
                w.crash();
                w.recover();
                crashed = true;
                prop_assert_eq!(
                    root_digest(w.server().tree()),
                    root_digest(control.tree()),
                    "recovered tree differs from control"
                );
                prop_assert_eq!(
                    w.server().pending_requests(),
                    control.pending_requests(),
                    "recovered queue depth differs"
                );
            }
            if i % 4 == 3 || i + 1 == ops.len() {
                w.flush();
                let ours = control.flush(w.now_ms).expect("control flush");
                wm.settle();
                cm.settle();
                // The recovered server's tree tracks the never-crashed
                // control through every subsequent interval.
                let _ = ours;
                prop_assert_eq!(
                    root_digest(w.server().tree()),
                    root_digest(control.tree())
                );
                w.assert_completeness();
            }
        }
        prop_assert!(crashed);
        w.assert_no_stale_keys();
        prop_assert_eq!(root_digest(w.server().tree()), root_digest(control.tree()));
    }
}

/// Exhaustive variant of the headline test for one small interval: crash
/// after *every* prefix of the interval's requests and verify the
/// recovered server flushes byte-identically to a control that never
/// crashed.
#[test]
fn crash_at_every_point_of_an_interval_flushes_identically() {
    let seed = 0xBEEF;
    let script: [(u8, u64); 5] = [(0, 50), (1, 2), (0, 51), (1, 5), (0, 52)];
    for crash_after in 0..=script.len() {
        let mut w = PersistWorld::new(seed);
        let mut control = GroupKeyServer::new(batched_config(seed), AccessControl::AllowAll);
        let mut wm = ChurnState::new([]);
        let mut cm = ChurnState::new([]);
        for i in 0..8u64 {
            wm.apply(w.server(), 0, i);
            cm.apply(&mut control, 0, i);
        }
        w.flush();
        control.flush(w.now_ms).expect("control flush");
        wm.settle();
        cm.settle();

        for (i, &(kind, uid)) in script.iter().enumerate() {
            if i == crash_after {
                w.crash();
                w.recover();
            }
            wm.apply(w.server(), kind, uid);
            cm.apply(&mut control, kind, uid);
        }
        if crash_after == script.len() {
            w.crash();
            w.recover();
        }

        let now = w.now_ms + 1_000;
        let ours = w.server().flush(now).expect("flush").expect("non-empty interval");
        let theirs = control.flush(now).expect("flush").expect("non-empty interval");
        assert_eq!(
            ours.encoded, theirs.encoded,
            "crash point {crash_after}: recovered flush is not byte-identical"
        );
        assert_eq!(root_digest(w.server().tree()), root_digest(control.tree()));
    }
}

/// Every file of the store at `dir`, by path.
fn store_files(dir: &PathBuf) -> BTreeMap<PathBuf, Vec<u8>> {
    let files = std::fs::read_dir(dir).expect("store directory");
    files.map(|e| e.unwrap().path()).map(|p| (p.clone(), std::fs::read(p).unwrap())).collect()
}

/// The recorded root-key digests are what stands between a log and
/// silently different keys: a server that builds another tree from the
/// same requests lands on other keys. Here the log holds twelve joins, a
/// leave and a refresh, and the digest logged with the seventh join is
/// altered (its CRC recomputed, so the frame is intact): replay builds a
/// tree the log does not describe. Recovery must refuse, not panic, and
/// leave the store as it found it. The altered record is not the last, so
/// only a check of every record's digest catches it; the log ends in a
/// refresh, whose one draw is the same whatever the earlier records built.
#[test]
fn replay_that_builds_a_different_tree_fails_closed_on_the_digest() {
    let config = ServerConfig { auth: AuthPolicy::None, seed: 0xD16E, ..ServerConfig::default() };
    let dir = scratch_dir("digest");
    let mut server =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, pcfg())
            .expect("create persistent server");
    for u in 0..12 {
        server.handle_join(UserId(u)).expect("join");
    }
    server.handle_leave(UserId(5)).expect("leave");
    server.refresh_group_key().expect("refresh");
    drop(server);

    let path = dir.join("wal-0.kgl");
    let pristine = std::fs::read(&path).unwrap();
    let u32_at = |log: &[u8], at: usize| u32::from_be_bytes(log[at..at + 4].try_into().unwrap());
    // Header: magic, version, epoch, then the length-prefixed contract.
    let mut at = 20 + u32_at(&pristine, 16) as usize;
    for _ in 0..6 {
        at += 4 + u32_at(&pristine, at) as usize + 4;
    }
    let mut altered = pristine.clone();
    let payload = at + 4..at + 4 + u32_at(&pristine, at) as usize;
    altered[payload.end - 1] ^= 0x01; // the record's last digest byte
    let crc = crc32(&altered[payload.clone()]).to_be_bytes();
    altered[payload.end..payload.end + 4].copy_from_slice(&crc);
    std::fs::write(&path, &altered).unwrap();

    let before = store_files(&dir);
    let result = GroupKeyServer::recover(config.clone(), AccessControl::AllowAll, &dir, pcfg());
    assert!(matches!(result, Err(RecoverError::DigestMismatch)), "{:?}", result.err());
    assert_eq!(store_files(&dir), before, "a refused recovery must not touch the store");

    std::fs::write(&path, &pristine).unwrap();
    let recovered = GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, pcfg())
        .expect("the unaltered store recovers");
    assert_eq!(recovered.group_size(), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stores written before the log header carried the replay contract (WAL
/// version 1, whose eight record tags also encoded the server's mode) fail
/// closed with a typed version error: no panic, nothing replayed, nothing
/// truncated. The three fixtures, written by that code, hold all eight v1
/// tags between them: join, leave and refresh under a per-request
/// group-oriented server (the first drew a path's keys leaf-first, before
/// per-request rekeys went through the marking pass); derived join, leave
/// and derived refresh under `strategy = derived`; enqueued join, enqueued
/// leave and flush under `rekey = batched`.
#[test]
fn version_1_stores_fail_closed_with_a_typed_error() {
    let base = ServerConfig { auth: AuthPolicy::None, seed: 0xD16E, ..ServerConfig::default() };
    let fixtures: [(&str, &[u8], ServerConfig); 3] = [
        ("leaf-first", include_bytes!("fixtures/wal-per-op-leaf-first.kgl"), base.clone()),
        (
            "derived",
            include_bytes!("fixtures/wal-v1-derived-immediate.kgl"),
            ServerConfig { strategy: Strategy::Derived, ..base.clone() },
        ),
        (
            "batched",
            include_bytes!("fixtures/wal-v1-batched.kgl"),
            ServerConfig {
                rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 64 },
                ..base.clone()
            },
        ),
    ];
    for (name, log, config) in fixtures {
        let dir = scratch_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-0.kgl"), log).unwrap();
        let before = store_files(&dir);
        let result = GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, pcfg());
        assert!(
            matches!(
                result,
                Err(RecoverError::Persist(PersistError::UnsupportedVersion { found: 1 }))
            ),
            "{name}: {:?}",
            result.err()
        );
        assert_eq!(store_files(&dir), before, "{name}: the store is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Stores written before a created tree node stopped drawing a throw-away
/// key (WAL version 2, snapshot version 1, whose snapshot repeated the seed,
/// degree and key length of the log header's replay contract) would replay
/// into other keys. They fail closed at the log header, before the snapshot
/// or any record is decoded, and are left byte-identical. The three
/// fixtures were written by that code: an immediate store with only a log,
/// a derived one, and a batched one holding a snapshot with a queue and a
/// log tail.
#[test]
fn version_2_stores_fail_closed_at_the_log_header() {
    let base = ServerConfig { auth: AuthPolicy::None, seed: 0xD16E, ..ServerConfig::default() };
    let fixtures = [
        ("immediate", base.clone()),
        ("derived", ServerConfig { strategy: Strategy::Derived, ..base.clone() }),
        (
            "batched",
            ServerConfig {
                rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 64 },
                ..base.clone()
            },
        ),
    ];
    for (name, config) in fixtures {
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/store-v2-{name}"));
        let dir = scratch_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        for file in std::fs::read_dir(&fixture).unwrap() {
            let path = file.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        let before = store_files(&dir);
        let result = GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, pcfg());
        assert!(
            matches!(
                result,
                Err(RecoverError::Persist(PersistError::UnsupportedVersion { found: 2 }))
            ),
            "{name}: {:?}",
            result.err()
        );
        assert_eq!(store_files(&dir), before, "{name}: the store is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What a store holds when it is reopened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// Six joins (and, on a batching server, their interval) in the log.
    Records,
    /// A log with a header and nothing else.
    EmptyLog,
    /// A snapshot after the joins, then two leaves in the log.
    SnapshotAndTail,
    /// The joins, then `shutdown`: a snapshot and an empty log.
    AfterShutdown,
}

const HELD: [Held; 4] = [Held::Records, Held::EmptyLog, Held::SnapshotAndTail, Held::AfterShutdown];

fn write_store(config: &ServerConfig, dir: &PathBuf, held: Held) {
    let mut s =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, dir, pcfg())
            .expect("create persistent server");
    if held == Held::EmptyLog {
        return;
    }
    for u in 0..6 {
        s.handle_join(UserId(u)).expect("join");
    }
    s.flush(100).expect("flush");
    match held {
        Held::SnapshotAndTail => {
            s.force_snapshot().expect("snapshot");
            s.handle_leave(UserId(1)).expect("leave");
            s.handle_leave(UserId(2)).expect("leave");
        }
        Held::AfterShutdown => {
            s.shutdown(200).expect("shutdown");
        }
        Held::Records | Held::EmptyLog => {}
    }
}

/// Every setting of the replay contract — `seed`, `degree`, `cipher`,
/// `strategy` (every pair of the four) and `rekey` — is pinned once, in
/// the log header, whatever else the store holds. Changed across a
/// restart in either direction, recovery refuses with `ConfigMismatch`
/// naming that setting and leaves the store byte-identical; under the
/// configuration that wrote it, the same store recovers.
#[test]
fn a_changed_replay_setting_is_refused_by_the_log_header() {
    let base = ServerConfig { auth: AuthPolicy::None, seed: 0xC0DE, ..ServerConfig::default() };
    let mut flips = vec![
        ("seed", base.clone(), ServerConfig { seed: 0xC0DF, ..base.clone() }),
        ("degree", base.clone(), ServerConfig { degree: 8, ..base.clone() }),
        ("cipher", base.clone(), ServerConfig { cipher: KeyCipher::TripleDesCbc, ..base.clone() }),
        (
            "rekey",
            base.clone(),
            ServerConfig {
                rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 64 },
                ..base.clone()
            },
        ),
    ];
    for (i, &a) in Strategy::EVERY.iter().enumerate() {
        for &b in &Strategy::EVERY[i + 1..] {
            let with = |strategy| ServerConfig { strategy, ..base.clone() };
            flips.push(("strategy", with(a), with(b)));
        }
    }
    for (key, a, b) in flips {
        for (wrote, reads) in [(&a, &b), (&b, &a)] {
            for held in HELD {
                let spec = |c: &ServerConfig| c.to_spec().replace('\n', "; ");
                let cell = format!("{key}, {held:?}: [{}] -> [{}]", spec(wrote), spec(reads));
                let dir = scratch_dir("contract");
                write_store(wrote, &dir, held);
                let before = store_files(&dir);
                match GroupKeyServer::recover(reads.clone(), AccessControl::AllowAll, &dir, pcfg())
                {
                    Err(RecoverError::ConfigMismatch { key: named, logged, configured }) => {
                        assert_eq!(named, key, "{cell}");
                        assert_ne!(logged, configured, "{cell}");
                    }
                    other => panic!("{cell}: {:?}", other.err()),
                }
                assert_eq!(store_files(&dir), before, "{cell}: the store is untouched");
                GroupKeyServer::recover(wrote.clone(), AccessControl::AllowAll, &dir, pcfg())
                    .unwrap_or_else(|e| panic!("{cell}: own configuration: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// The settings outside the replay contract change nothing replay builds,
/// so they may change across a restart: the batch interval and depth,
/// `auth`, `digest` and `rsa-bits`.
#[test]
fn settings_outside_the_replay_contract_may_change_across_a_restart() {
    let wrote = ServerConfig {
        auth: AuthPolicy::None,
        seed: 0xC0DE,
        rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 64 },
        ..ServerConfig::default()
    };
    let changed = [
        ServerConfig {
            rekey: RekeyPolicy::Batched { interval_ms: 250, max_pending: 64 },
            ..wrote.clone()
        },
        ServerConfig {
            rekey: RekeyPolicy::Batched { interval_ms: 100, max_pending: 8 },
            ..wrote.clone()
        },
        ServerConfig { auth: AuthPolicy::Digest, ..wrote.clone() },
        ServerConfig { digest: HashAlg::Sha256, ..wrote.clone() },
        ServerConfig { rsa_bits: 768, ..wrote.clone() },
    ];
    for reads in changed {
        for held in HELD {
            let dir = scratch_dir("non-contract");
            write_store(&wrote, &dir, held);
            GroupKeyServer::recover(reads.clone(), AccessControl::AllowAll, &dir, pcfg())
                .unwrap_or_else(|e| panic!("{} after {held:?}: {e}", reads.to_spec()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Recovery composes with everything else the server does: ACL denials,
/// immediate-mode operations after a batched history is out of scope, but
/// repeated crash/recover cycles within one run must each resume exactly.
#[test]
fn repeated_crashes_across_snapshot_rotations() {
    let seed = 0x5EED;
    let dir = scratch_dir("rotations");
    let config = ServerConfig { auth: AuthPolicy::None, seed, ..ServerConfig::default() };
    // Aggressive snapshotting so the run crosses several epochs.
    let pc = PersistConfig {
        fsync: FsyncPolicy::EveryRecord,
        snapshot_every_ops: 5,
        ..PersistConfig::default()
    };
    let mut control = GroupKeyServer::new(config.clone(), AccessControl::AllowAll);
    let mut server =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, pc)
            .expect("create");
    for round in 0..6u64 {
        for i in 0..4 {
            let u = UserId(round * 10 + i);
            let a = server.handle_join(u).expect("join");
            let b = control.handle_join(u).expect("join");
            assert_eq!(a.encoded, b.encoded);
        }
        let victim = UserId(round * 10);
        let a = server.handle_leave(victim).expect("leave");
        let b = control.handle_leave(victim).expect("leave");
        assert_eq!(a.encoded, b.encoded);
        // Crash and recover every round.
        drop(server);
        server = GroupKeyServer::recover(config.clone(), AccessControl::AllowAll, &dir, pc)
            .expect("recover");
        assert_eq!(root_digest(server.tree()), root_digest(control.tree()), "round {round}");
    }
    assert!(
        server.persistence().expect("persistent").epoch() > 0,
        "the run should have rotated at least one snapshot"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Network-level crash injection: the same property driven end-to-end over
// SimNetwork's crash fault mode.
// ---------------------------------------------------------------------------

/// A networked client: endpoint + decrypting state machine.
struct NetMember {
    user: UserId,
    ep: keygraphs::net::EndpointId,
    client: Option<Client>,
}

fn drain_client(net: &mut SimNetwork, m: &mut NetMember) {
    while let Some(dg) = net.recv(m.ep) {
        if RekeyPacket::sniff(&dg.payload) {
            if let Some(c) = m.client.as_mut() {
                c.apply(&dg.payload).expect("client applies batch packet");
            }
        }
        // Control acks (JoinGranted / LeaveGranted) need no client action
        // here: grants are installed from ServerEvent::Joined, standing in
        // for the paper's authenticated join exchange.
    }
}

/// Kill the server host mid-interval with requests queued, lose its inbox
/// and in-flight traffic, restart the host, rebuild the process from disk
/// with [`GroupKeyServer::recover`] + [`NetServer::resume`], and prove the
/// whole group converges: admitted members track the group key, the
/// departed member is locked out, and a request sent while the host was
/// down is simply lost (retransmitted by its client) — never half-applied.
#[test]
fn network_crash_mid_interval_recovers_and_converges() {
    let seed = 0xD15C;
    let dir = scratch_dir("net");
    let mut net = SimNetwork::new(NetConfig { seed, ..NetConfig::default() });
    let config = batched_config(seed);
    let server =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, pcfg())
            .expect("create");
    let mut ns = NetServer::new(server, &mut net);
    let server_ep = ns.endpoint();
    let group_addr = ns.group_addr();

    // Interval 1: admit eight members.
    let mut members: Vec<NetMember> = (0..8u64)
        .map(|u| NetMember { user: UserId(u), ep: net.endpoint(), client: None })
        .collect();
    for m in &members {
        let req = ControlMessage::JoinRequest { user: m.user }.encode();
        net.send_unicast(m.ep, server_ep, Bytes::from(req));
    }
    net.run_until_quiet();
    let mut grants = BTreeMap::new();
    for ev in ns.tick(&mut net, 1_000) {
        if let ServerEvent::Joined(g) = ev {
            grants.insert(g.user, g);
        }
    }
    assert_eq!(grants.len(), 8);
    let mut individual_keys = BTreeMap::new();
    for m in &mut members {
        let g = grants.remove(&m.user).expect("granted");
        let mut c = Client::new(m.user, KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
        c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
        individual_keys.insert(m.user, g.individual_key.clone());
        m.client = Some(c);
    }
    net.run_until_quiet();
    for m in &mut members {
        drain_client(&mut net, m);
    }

    // Interval 2 begins: a leave and a join are queued…
    let leaver = 3usize;
    let leaver_user = members[leaver].user;
    let leaver_key = individual_keys.get(&leaver_user).unwrap();
    let auth = leave_authenticator(leaver_user, leaver_key.material());
    let req = ControlMessage::LeaveRequest { user: leaver_user, auth }.encode();
    net.send_unicast(members[leaver].ep, server_ep, Bytes::from(req));
    let mut newcomer = NetMember { user: UserId(100), ep: net.endpoint(), client: None };
    let req = ControlMessage::JoinRequest { user: newcomer.user }.encode();
    net.send_unicast(newcomer.ep, server_ep, Bytes::from(req));
    net.run_until_quiet();
    let events = ns.tick(&mut net, 1_500); // mid-interval: queue, no flush
    assert_eq!(
        events.iter().filter(|e| matches!(e, ServerEvent::Queued(_))).count(),
        2,
        "both requests queued before the crash: {events:?}"
    );
    assert_eq!(ns.inner().group_size(), 8, "not flushed yet");

    // …and the server host dies. The driver's deployment registry keeps
    // the directory; the process state is gone.
    let directory = ns.directory();
    net.crash(server_ep);
    drop(ns);

    // Traffic sent while the host is down is lost, not queued.
    let straggler = NetMember { user: UserId(200), ep: net.endpoint(), client: None };
    let req = ControlMessage::JoinRequest { user: straggler.user }.encode();
    net.send_unicast(straggler.ep, server_ep, Bytes::from(req));
    net.run_until_quiet();

    // Host restarts; the process recovers from snapshot + WAL.
    net.restart(server_ep);
    let recovered = GroupKeyServer::recover(config.clone(), AccessControl::AllowAll, &dir, pcfg())
        .expect("recover");
    assert_eq!(recovered.group_size(), 8);
    assert_eq!(recovered.pending_requests(), 2, "queued interval survived the crash");
    let mut ns = NetServer::resume(recovered, &mut net, server_ep, group_addr, directory);

    // The interval deadline passes: the recovered server flushes the queue
    // it inherited from the WAL.
    let events = ns.tick(&mut net, 2_100);
    assert!(
        events.iter().any(|e| matches!(e, ServerEvent::Flushed { joined: 1, left: 1, .. })),
        "recovered server flushed the pre-crash interval: {events:?}"
    );
    for ev in events {
        if let ServerEvent::Joined(g) = ev {
            assert_eq!(g.user, newcomer.user);
            let mut c = Client::new(g.user, KeyCipher::des_cbc(), VerifyPolicy::Opportunistic);
            c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
            newcomer.client = Some(c);
        }
    }
    net.run_until_quiet();

    // The straggler's request died with the host: it was never seen.
    assert!(!ns.inner().is_member(straggler.user));
    assert_eq!(ns.inner().pending_requests(), 0);

    // Every surviving member converges on the new group key; the departed
    // member is locked out even pooling everything it ever held.
    let ghost = members.remove(leaver);
    for m in &mut members {
        drain_client(&mut net, m);
    }
    drain_client(&mut net, &mut newcomer);
    let (gk_ref, gk) = ns.inner().tree().group_key();
    for m in members.iter().chain(std::iter::once(&newcomer)) {
        let (r, k) = m
            .client
            .as_ref()
            .unwrap()
            .group_key()
            .unwrap_or_else(|| panic!("{} has no group key", m.user));
        assert_eq!(r, gk_ref, "{} desynced (ref)", m.user);
        assert_eq!(k, gk, "{} desynced (key)", m.user);
    }
    for (_, k) in ghost.client.as_ref().unwrap().keyset() {
        assert_ne!(k, gk, "departed member retains the post-recovery group key");
    }

    // The lost straggler simply retries, as any UDP client must.
    let req = ControlMessage::JoinRequest { user: straggler.user }.encode();
    net.send_unicast(straggler.ep, server_ep, Bytes::from(req));
    net.run_until_quiet();
    let events = ns.tick(&mut net, 3_100);
    assert!(
        events.iter().any(|e| matches!(e, ServerEvent::Flushed { joined: 1, .. })),
        "retried join admitted after recovery: {events:?}"
    );
    drop(ns);
    let _ = std::fs::remove_dir_all(&dir);
}
