//! The on-disk store: an epoch-paired snapshot + WAL and the append path.
//!
//! A store directory holds at most one *epoch pair*:
//!
//! ```text
//! snapshot-<epoch>.kgs   checkpoint of the state at the start of the epoch
//! wal-<epoch>.kgl        every request since that checkpoint
//! ```
//!
//! Epoch 0 has no snapshot — its WAL starts from the freshly constructed
//! server. Taking a snapshot rotates to the next epoch: the new snapshot
//! and an empty WAL are written and synced *before* the previous pair is
//! deleted, so a crash at any point leaves one recoverable pair on disk.
//! Both new files are written whole under a `.tmp` name and renamed into
//! place, so a crash never leaves a `wal-<epoch>.kgl` without its header
//! (recovery ignores names that do not end in `.kgl`).

use crate::snapshot::Snapshot;
use crate::wal::{encode_header, encode_record, read_wal_file, FsyncPolicy, WalOp, WAL_OP_NAMES};
use crate::PersistError;

use kg_obs::{Counter, Histogram, Obs, ObsEvent};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tuning for the durability layer.
#[derive(Debug, Clone, Copy)]
pub struct PersistConfig {
    /// When appended WAL records reach stable storage.
    pub fsync: FsyncPolicy,
    /// Suggest a snapshot after this many logged ops.
    pub snapshot_every_ops: u64,
    /// Suggest a snapshot once the WAL exceeds this many bytes.
    pub snapshot_max_bytes: u64,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            fsync: FsyncPolicy::default(),
            snapshot_every_ops: 1024,
            snapshot_max_bytes: 4 << 20,
        }
    }
}

/// Everything read back from a store directory at recovery time.
#[derive(Debug)]
pub struct RecoveredState {
    /// The latest snapshot, if the store has rotated past epoch 0.
    pub snapshot: Option<Snapshot>,
    /// The replay contract the store was created with, as the WAL header
    /// holds it.
    pub contract: Vec<u8>,
    /// Epoch of the recovered pair.
    pub epoch: u64,
    /// Valid WAL records to replay, in order, each with the root-key
    /// digest observed after the op.
    pub ops: Vec<(WalOp, [u8; 32])>,
    /// Whether a torn final record was discarded.
    pub torn_tail: bool,
}

/// Handle to an open store: appends records, rotates on snapshot.
#[derive(Debug)]
pub struct Persistence {
    dir: PathBuf,
    config: PersistConfig,
    contract: Vec<u8>,
    epoch: u64,
    wal: File,
    wal_len: u64,
    /// Bytes past `wal_len` are a torn record, cut at the next append.
    torn: bool,
    ops_since_snapshot: u64,
    records_since_sync: u32,
    last_sync: Instant,
    obs: Obs,
    fsync_us: Histogram,
    /// `kg_wal_appends_total{op=…}`, indexed by record tag.
    appends: [Counter; 4],
}

fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal-{epoch}.kgl"))
}

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snapshot-{epoch}.kgs"))
}

/// Best-effort directory sync so renames/creates survive power loss.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
thread_local! {
    /// Set by tests to simulate a kill after a new WAL file is created and
    /// before its header is written.
    static KILL_BEFORE_WAL_HEADER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Write an empty WAL for `epoch` under a temporary name, sync it, then
/// rename it into place. Returns the handle, positioned for appends, and
/// the header's length.
fn create_wal(dir: &Path, epoch: u64, contract: &[u8]) -> Result<(File, u64), PersistError> {
    let tmp = dir.join(format!("wal-{epoch}.kgl.tmp"));
    let mut wal = File::create(&tmp)?;
    #[cfg(test)]
    if KILL_BEFORE_WAL_HEADER.get() {
        return Err(PersistError::Io(std::io::Error::other("simulated kill")));
    }
    let header = encode_header(epoch, contract);
    wal.write_all(&header)?;
    wal.sync_data()?;
    std::fs::rename(&tmp, wal_path(dir, epoch))?;
    sync_dir(dir);
    Ok((wal, header.len() as u64))
}

/// Find the highest epoch with a WAL file in `dir`.
fn latest_epoch(dir: &Path) -> Result<Option<u64>, PersistError> {
    let mut latest = None;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("wal-") else { continue };
        let Some(num) = rest.strip_suffix(".kgl") else { continue };
        if let Ok(epoch) = num.parse::<u64>() {
            latest = Some(latest.map_or(epoch, |e: u64| e.max(epoch)));
        }
    }
    Ok(latest)
}

impl Persistence {
    /// Create a fresh store in `dir` (created if absent) whose WAL header
    /// pins `contract`, the caller's replay contract, for every epoch.
    /// Fails if the directory already contains a WAL — an existing store
    /// must go through [`Persistence::recover`] instead of being
    /// overwritten.
    pub fn create(
        dir: impl Into<PathBuf>,
        contract: &[u8],
        config: PersistConfig,
    ) -> Result<Self, PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if latest_epoch(&dir)?.is_some() {
            return Err(PersistError::Corrupt("store directory already contains a log"));
        }
        let (wal, wal_len) = create_wal(&dir, 0, contract)?;
        Ok(Self::open(dir, config, contract.to_vec(), 0, wal, wal_len))
    }

    /// A handle appending to `wal` at `wal_len`, with nothing logged since
    /// the epoch began.
    fn open(
        dir: PathBuf,
        config: PersistConfig,
        contract: Vec<u8>,
        epoch: u64,
        wal: File,
        wal_len: u64,
    ) -> Self {
        Persistence {
            dir,
            config,
            contract,
            epoch,
            wal,
            wal_len,
            torn: false,
            ops_since_snapshot: 0,
            records_since_sync: 0,
            last_sync: Instant::now(),
            obs: Obs::disabled(),
            fsync_us: Histogram::default(),
            appends: Default::default(),
        }
    }

    /// Attach an observability handle: fsync latency lands in the
    /// `kg_fsync_us` histogram; appends, rotations, and snapshot
    /// installs are counted and put on the event timeline.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.fsync_us = obs.histogram("kg_fsync_us");
        self.appends = WAL_OP_NAMES.map(|op| obs.counter_with("kg_wal_appends_total", "op", op));
        self.obs = obs;
    }

    /// Read back the latest epoch pair and reopen the WAL for append. The
    /// caller checks `RecoveredState::contract` and replays the records
    /// through its own state machine, then continues appending through the
    /// returned handle. Nothing on disk changes here: a torn final record
    /// is cut at the first append, so a recovery the caller refuses leaves
    /// the store as it found it.
    pub fn recover(
        dir: impl Into<PathBuf>,
        config: PersistConfig,
    ) -> Result<(Self, RecoveredState), PersistError> {
        let dir = dir.into();
        let Some(epoch) = latest_epoch(&dir)? else {
            return Err(PersistError::Corrupt("no log found in store directory"));
        };
        let (mut recovered, valid_len) = read_wal_file(&wal_path(&dir, epoch))?;
        if recovered.epoch != epoch {
            return Err(PersistError::Corrupt("wal header epoch does not match file name"));
        }
        if epoch > 0 {
            let mut bytes = Vec::new();
            File::open(snapshot_path(&dir, epoch))?.read_to_end(&mut bytes)?;
            let (snap, snap_epoch) = Snapshot::decode(&bytes)?;
            if snap_epoch != epoch {
                return Err(PersistError::Corrupt("snapshot epoch does not match file name"));
            }
            recovered.snapshot = Some(snap);
        }
        // Append mode: every later write lands at the tail, once the torn
        // bytes (if any) are cut.
        let wal = OpenOptions::new().append(true).open(wal_path(&dir, epoch))?;
        let mut persistence =
            Self::open(dir, config, recovered.contract.clone(), epoch, wal, valid_len);
        persistence.torn = recovered.torn_tail;
        persistence.ops_since_snapshot = recovered.ops.len() as u64;
        Ok((persistence, recovered))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// Ops appended since the last snapshot (or creation).
    pub fn ops_since_snapshot(&self) -> u64 {
        self.ops_since_snapshot
    }

    /// Append one op to the WAL; syncs according to the fsync policy.
    /// The record carries the root-key digest observed *after* the op.
    pub fn append(&mut self, op: &WalOp, root_digest: &[u8; 32]) -> Result<(), PersistError> {
        let record = encode_record(op, root_digest);
        // Appends always land at the tracked tail: a torn record left by a
        // crash is cut first, so it cannot leave a gap under this one.
        if self.torn {
            self.wal.set_len(self.wal_len)?;
            self.torn = false;
        }
        self.wal.write_all(&record)?;
        self.wal_len += record.len() as u64;
        self.ops_since_snapshot += 1;
        self.records_since_sync += 1;
        self.appends[op.tag() as usize].inc();
        self.obs.event(ObsEvent::WalAppend { op: op.name() });
        let due = match self.config.fsync {
            FsyncPolicy::EveryRecord => true,
            FsyncPolicy::EveryN(n) => self.records_since_sync >= n.max(1),
            FsyncPolicy::IntervalMs(ms) => self.last_sync.elapsed().as_millis() as u64 >= ms,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        let started = Instant::now();
        self.wal.sync_data()?;
        self.fsync_us.record(started.elapsed().as_micros() as u64);
        self.records_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Whether the configured snapshot thresholds have been crossed.
    pub fn should_snapshot(&self) -> bool {
        self.ops_since_snapshot >= self.config.snapshot_every_ops
            || self.wal_len >= self.config.snapshot_max_bytes
    }

    /// Write `snap` as the next epoch's checkpoint and truncate the log:
    /// the snapshot and a fresh WAL are durably written first, then the
    /// previous epoch's files are removed.
    pub fn install_snapshot(&mut self, snap: &Snapshot) -> Result<(), PersistError> {
        let started = Instant::now();
        let new_epoch = self.epoch + 1;
        // 1. Atomic snapshot write: temp file, sync, rename.
        let final_path = snapshot_path(&self.dir, new_epoch);
        let tmp_path = self.dir.join(format!("snapshot-{new_epoch}.kgs.tmp"));
        let snap_bytes;
        {
            let encoded = snap.encode(new_epoch);
            snap_bytes = encoded.len() as u64;
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&encoded)?;
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        // 2. Fresh WAL for the new epoch, the same way.
        let (wal, wal_len) = create_wal(&self.dir, new_epoch, &self.contract)?;
        // 3. Only now is the old pair redundant.
        let _ = std::fs::remove_file(wal_path(&self.dir, self.epoch));
        if self.epoch > 0 {
            let _ = std::fs::remove_file(snapshot_path(&self.dir, self.epoch));
        }
        sync_dir(&self.dir);
        self.epoch = new_epoch;
        self.wal = wal;
        self.wal_len = wal_len;
        self.torn = false;
        self.ops_since_snapshot = 0;
        self.records_since_sync = 0;
        let duration_us = started.elapsed().as_micros() as u64;
        self.obs.counter("kg_snapshots_total").inc();
        self.obs.histogram("kg_snapshot_bytes").record(snap_bytes);
        self.obs.histogram("kg_snapshot_us").record(duration_us);
        self.obs.event(ObsEvent::SnapshotInstalled {
            epoch: new_epoch,
            bytes: snap_bytes,
            duration_us,
        });
        self.obs.event(ObsEvent::WalRotated { epoch: new_epoch });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::AclSnapshot;
    use kg_core::ids::UserId;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// Fresh scratch directory, unique per test invocation.
    fn scratch() -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("kg-persist-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn digest(b: u8) -> [u8; 32] {
        [b; 32]
    }

    const CONTRACT: &[u8] = b"seed = 5\n";

    fn ops(recovered: &RecoveredState) -> Vec<WalOp> {
        recovered.ops.iter().map(|(op, _)| *op).collect()
    }

    fn dummy_snapshot(seq: u64) -> Snapshot {
        Snapshot {
            seq,
            keygen: ([1u8; 32], [2u8; 32]),
            tree: vec![7u8; 64],
            acl: AclSnapshot::AllowAll,
            stats: Vec::new(),
            scheduler: Default::default(),
            root_digest: digest(9),
        }
    }

    #[test]
    fn create_append_recover() {
        let dir = scratch();
        let mut p = Persistence::create(&dir, CONTRACT, PersistConfig::default()).unwrap();
        p.append(&WalOp::Join(UserId(1)), &digest(1)).unwrap();
        p.append(&WalOp::Leave(UserId(1)), &digest(2)).unwrap();
        p.sync().unwrap();
        drop(p);

        let (p, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(recovered.contract, CONTRACT);
        assert_eq!(recovered.epoch, 0);
        assert!(recovered.snapshot.is_none());
        assert!(!recovered.torn_tail);
        assert_eq!(ops(&recovered), vec![WalOp::Join(UserId(1)), WalOp::Leave(UserId(1))]);
        assert_eq!(recovered.ops[1].1, digest(2));
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = scratch();
        let p = Persistence::create(&dir, CONTRACT, PersistConfig::default()).unwrap();
        drop(p);
        assert!(Persistence::create(&dir, CONTRACT, PersistConfig::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_truncates_torn_tail_and_appends_continue() {
        let dir = scratch();
        let mut p = Persistence::create(&dir, CONTRACT, PersistConfig::default()).unwrap();
        p.append(&WalOp::Join(UserId(1)), &digest(1)).unwrap();
        p.append(&WalOp::Join(UserId(2)), &digest(2)).unwrap();
        p.sync().unwrap();
        drop(p);

        // Tear the final record by chopping 3 bytes off the file.
        let path = wal_path(&dir, 0);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let (mut p, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert!(recovered.torn_tail);
        assert_eq!(recovered.ops.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len - 3, "recovery alone cuts nothing");
        // Appending after recovery lands cleanly where the tear was cut.
        p.append(&WalOp::Join(UserId(3)), &digest(3)).unwrap();
        p.sync().unwrap();
        drop(p);
        let (_, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert!(!recovered.torn_tail);
        assert_eq!(ops(&recovered), vec![WalOp::Join(UserId(1)), WalOp::Join(UserId(3))]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotates_epoch_and_removes_old_pair() {
        let dir = scratch();
        let mut p = Persistence::create(&dir, CONTRACT, PersistConfig::default()).unwrap();
        for i in 0..5 {
            p.append(&WalOp::Join(UserId(i)), &digest(i as u8)).unwrap();
        }
        p.install_snapshot(&dummy_snapshot(5)).unwrap();
        assert_eq!(p.epoch(), 1);
        assert_eq!(p.ops_since_snapshot(), 0);
        p.append(&WalOp::Leave(UserId(0)), &digest(100)).unwrap();
        p.sync().unwrap();
        drop(p);

        assert!(!wal_path(&dir, 0).exists());
        let (p, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(recovered.epoch, 1);
        let snap = recovered.snapshot.as_ref().expect("snapshot present past epoch 0");
        assert_eq!(snap.seq, 5);
        assert_eq!(ops(&recovered), vec![WalOp::Leave(UserId(0))]);
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn should_snapshot_thresholds() {
        let dir = scratch();
        let cfg = PersistConfig {
            fsync: FsyncPolicy::EveryRecord,
            snapshot_every_ops: 3,
            snapshot_max_bytes: u64::MAX,
        };
        let mut p = Persistence::create(&dir, CONTRACT, cfg).unwrap();
        assert!(!p.should_snapshot());
        for i in 0..3 {
            p.append(&WalOp::Join(UserId(i)), &digest(0)).unwrap();
        }
        assert!(p.should_snapshot());
        p.install_snapshot(&dummy_snapshot(3)).unwrap();
        assert!(!p.should_snapshot());
        drop(p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_every_n_counts_records() {
        let dir = scratch();
        let cfg = PersistConfig { fsync: FsyncPolicy::EveryN(2), ..PersistConfig::default() };
        let mut p = Persistence::create(&dir, CONTRACT, cfg).unwrap();
        // No crash-injection harness here — just exercise the counter path.
        for i in 0..5 {
            p.append(&WalOp::Join(UserId(i)), &digest(0)).unwrap();
        }
        drop(p);
        let (_, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(recovered.ops.len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_dir_is_an_error() {
        let dir = scratch();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Persistence::recover(&dir, PersistConfig::default()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill after a rotation created the new epoch's WAL file and before
    /// its header was written leaves the previous pair in charge: it
    /// recovers, and the next rotation goes through.
    #[test]
    fn kill_before_a_rotated_wal_has_its_header_keeps_the_previous_pair() {
        let dir = scratch();
        let mut p = Persistence::create(&dir, CONTRACT, PersistConfig::default()).unwrap();
        p.append(&WalOp::Join(UserId(1)), &digest(1)).unwrap();
        p.install_snapshot(&dummy_snapshot(1)).unwrap();
        p.append(&WalOp::Join(UserId(2)), &digest(2)).unwrap();
        p.sync().unwrap();
        KILL_BEFORE_WAL_HEADER.set(true);
        let killed = p.install_snapshot(&dummy_snapshot(2));
        KILL_BEFORE_WAL_HEADER.set(false);
        assert!(killed.is_err());
        drop(p);

        let (mut p, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(recovered.epoch, 1);
        assert_eq!(recovered.snapshot.as_ref().map(|s| s.seq), Some(1));
        assert_eq!(ops(&recovered), [WalOp::Join(UserId(2))]);
        p.install_snapshot(&dummy_snapshot(2)).unwrap();
        drop(p);
        let (_, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!((recovered.epoch, recovered.ops.len()), (2, 0));
        assert_eq!(recovered.contract, CONTRACT);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same kill while a store is being created leaves nothing that
    /// counts as a log, so the store can be created again.
    #[test]
    fn kill_before_a_new_stores_wal_has_its_header_leaves_no_store() {
        let dir = scratch();
        KILL_BEFORE_WAL_HEADER.set(true);
        let killed = Persistence::create(&dir, CONTRACT, PersistConfig::default());
        KILL_BEFORE_WAL_HEADER.set(false);
        assert!(killed.is_err());
        assert!(matches!(
            Persistence::recover(&dir, PersistConfig::default()),
            Err(PersistError::Corrupt("no log found in store directory"))
        ));

        let mut p = Persistence::create(&dir, CONTRACT, PersistConfig::default()).unwrap();
        p.append(&WalOp::Join(UserId(1)), &digest(1)).unwrap();
        p.sync().unwrap();
        drop(p);
        let (_, recovered) = Persistence::recover(&dir, PersistConfig::default()).unwrap();
        assert_eq!(ops(&recovered), [WalOp::Join(UserId(1))]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
