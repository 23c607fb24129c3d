//! End-to-end observability reconciliation: after a random sequence of
//! joins, leaves, and interval flushes — enqueued on a batching server or
//! rekeyed on arrival on an immediate one, and interrupted by a crash —
//! every independent account of "what happened" must agree:
//! the test's own ledger, the metrics registry, the cumulative event
//! timeline, the `ServerStats` record stream, and the write-ahead log
//! on disk (read back by replaying it).
//!
//! The key invariant under test is that *replay is unobserved*: a
//! recovered server reconstructs its state by re-running the logged
//! requests, and those reconstructions must not inflate the counters
//! that reconcile against the WAL.

use keygraphs::core::ids::UserId;
use keygraphs::obs::{Obs, ObsConfig};
use keygraphs::persist::{FsyncPolicy, PersistConfig};
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, RekeyPolicy, ServerConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kg-obs-reconcile-{}-{n}", std::process::id()))
}

fn config(seed: u64, batched: bool) -> ServerConfig {
    let rekey = if batched {
        RekeyPolicy::Batched { interval_ms: u64::MAX / 4, max_pending: usize::MAX }
    } else {
        RekeyPolicy::Immediate
    };
    ServerConfig { auth: AuthPolicy::None, seed, rekey, ..ServerConfig::default() }
}

/// Snapshots off so the full history stays in one log and the replay
/// count equals the append count; fsync per record so a crash (drop)
/// loses nothing.
fn pcfg() -> PersistConfig {
    PersistConfig {
        fsync: FsyncPolicy::EveryRecord,
        snapshot_every_ops: u64::MAX,
        snapshot_max_bytes: u64::MAX,
    }
}

/// What the test itself observed — the account everything else must
/// match.
struct Ledger {
    batched: bool,
    joins_ok: u64,
    leaves_ok: u64,
    flush_calls: u64,
    nonempty_flushes: u64,
}

impl Ledger {
    fn new(batched: bool) -> Self {
        Ledger { batched, joins_ok: 0, leaves_ok: 0, flush_calls: 0, nonempty_flushes: 0 }
    }

    /// Every accepted request is logged, and on a batching server every
    /// flush too (it resets the interval clock); an immediate server's
    /// flush is a no-op that logs nothing.
    fn wal_appends(&self) -> u64 {
        self.joins_ok + self.leaves_ok + if self.batched { self.flush_calls } else { 0 }
    }
}

/// One scripted op: 0 = join, 1 = leave, 2 = flush.
fn apply(server: &mut GroupKeyServer, ledger: &mut Ledger, now_ms: &mut u64, op: (u8, u64)) {
    match op.0 {
        0 => {
            if server.handle_join(UserId(op.1)).is_ok() {
                ledger.joins_ok += 1;
            }
        }
        1 => {
            if server.handle_leave(UserId(op.1)).is_ok() {
                ledger.leaves_ok += 1;
            }
        }
        _ => {
            *now_ms += 1;
            ledger.flush_calls += 1;
            if server.flush(*now_ms).expect("flush").is_some() {
                ledger.nonempty_flushes += 1;
            }
        }
    }
}

fn check_life(obs: &Obs, ledger: &Ledger, stats_records: u64, label: &str) {
    let kinds = obs.event_kind_counts();
    let count = |k: &str| kinds.get(k).copied().unwrap_or(0);
    let requests = |kind: &str| obs.counter_with("kg_requests_total", "kind", kind).get();
    assert_eq!(count("wal_append"), ledger.wal_appends(), "{label}: WalAppend events");
    if !ledger.batched {
        // Each accepted request is one operation: one event, one request
        // count and one stats record, and nothing is ever flushed.
        assert_eq!(count("join"), ledger.joins_ok, "{label}: join events");
        assert_eq!(count("leave"), ledger.leaves_ok, "{label}: leave events");
        assert_eq!(count("flush"), 0, "{label}: Flush events");
        assert_eq!(requests("join"), ledger.joins_ok, "{label}: join request counter");
        assert_eq!(requests("leave"), ledger.leaves_ok, "{label}: leave request counter");
        assert_eq!(stats_records, ledger.joins_ok + ledger.leaves_ok, "{label}: ServerStats");
        return;
    }
    assert_eq!(count("enqueue_join"), ledger.joins_ok, "{label}: enqueue_join events");
    // A leave that cancels a still-queued join surfaces as a collapse
    // instead of an enqueue; together they account for every accepted
    // leave request.
    assert_eq!(
        count("enqueue_leave") + count("collapsed_join"),
        ledger.leaves_ok,
        "{label}: leave-side events"
    );
    assert_eq!(count("flush"), ledger.nonempty_flushes, "{label}: Flush events");
    assert_eq!(requests("batch"), ledger.nonempty_flushes, "{label}: batch request counter");
    assert_eq!(stats_records, ledger.nonempty_flushes, "{label}: ServerStats records");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random join/leave/flush script on a batching or an immediate
    /// server, a crash at a random point, a second observed life, and a
    /// final replay-only recovery. All five accounts must reconcile at
    /// every stage.
    #[test]
    fn every_account_agrees(
        seed in 0u64..1_000,
        batched in any::<bool>(),
        script in proptest::collection::vec((0u8..3, 0u64..16), 8..48),
        crash_at in 4usize..8,
    ) {
        let dir = scratch_dir();
        let config = config(seed, batched);
        let crash_at = crash_at.min(script.len());
        let mut now_ms = 0u64;

        // Life 1: observed from birth, crashes mid-script.
        let obs1 = Obs::new(ObsConfig::default());
        let mut server = GroupKeyServer::with_persistence(
            config.clone(), AccessControl::AllowAll, &dir, pcfg(),
        ).expect("create persistent server");
        server.attach_obs(obs1.clone());
        let mut ledger1 = Ledger::new(batched);
        for &op in &script[..crash_at] {
            apply(&mut server, &mut ledger1, &mut now_ms, op);
        }
        let stats1 = server.stats().records_pushed();
        drop(server); // crash

        check_life(&obs1, &ledger1, stats1, "life 1");

        // Life 2: recovered under a fresh handle. Replay must restore
        // the stats stream without touching the new handle's request
        // counters or timeline (beyond the single Recovered event).
        let obs2 = Obs::new(ObsConfig::default());
        let mut server = GroupKeyServer::recover_observed(
            config.clone(), AccessControl::AllowAll, &dir, pcfg(), obs2.clone(),
        ).expect("recover");
        prop_assert_eq!(
            obs2.counter("kg_replayed_records_total").get(),
            ledger1.wal_appends(),
            "records replayed vs life-1 WAL appends"
        );
        prop_assert_eq!(
            obs2.event_kind_counts().get("recovered").copied().unwrap_or(0), 1
        );
        prop_assert_eq!(
            server.stats().records_pushed(), stats1,
            "replay reconstructs the same stats stream"
        );
        for kind in ["join", "leave", "batch"] {
            prop_assert_eq!(
                obs2.counter_with("kg_requests_total", "kind", kind).get(), 0,
                "replayed operations must not count as new requests"
            );
        }

        // Run the rest of the script observed, ending with a flush so
        // nothing is left queued.
        let mut ledger2 = Ledger::new(batched);
        for &op in &script[crash_at..] {
            apply(&mut server, &mut ledger2, &mut now_ms, op);
        }
        apply(&mut server, &mut ledger2, &mut now_ms, (2, 0));
        let stats2 = server.stats().records_pushed() - stats1;
        drop(server); // clean shutdown (fsync-per-record: nothing lost)

        check_life(&obs2, &ledger2, stats2, "life 2");

        // Final account: the log on disk holds both lives' appends.
        let obs3 = Obs::new(ObsConfig::default());
        let server = GroupKeyServer::recover_observed(
            config, AccessControl::AllowAll, &dir, pcfg(), obs3.clone(),
        ).expect("second recovery");
        prop_assert_eq!(
            obs3.counter("kg_replayed_records_total").get(),
            ledger1.wal_appends() + ledger2.wal_appends(),
            "the WAL is the union of both observed lives"
        );
        drop(server);
        std::fs::remove_dir_all(&dir).ok();
    }
}
