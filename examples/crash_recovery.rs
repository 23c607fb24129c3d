//! Crash and recovery of a persistent group key server.
//!
//! The server appends every mutating operation to a write-ahead log and
//! periodically installs a snapshot of its full state (key tree, ACL,
//! DRBG states, batch queue). This example kills the server mid-interval
//! — queued requests not yet flushed — rebuilds it from disk, verifies
//! the recovered key tree byte-for-byte against its root digest, and
//! shows the recovered process flushing the interval it inherited.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use keygraphs::core::ids::UserId;
use keygraphs::core::serial::root_digest;
use keygraphs::persist::{FsyncPolicy, PersistConfig};
use keygraphs::server::{AccessControl, GroupKeyServer, ServerConfig};

fn hex8(d: &[u8; 32]) -> String {
    d[..8].iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    println!("== Crash recovery with a write-ahead log ==\n");

    let dir = std::env::temp_dir().join(format!("kg-example-crash-{}", std::process::id()));
    let config = ServerConfig::builder().batched(100, 32).build().unwrap();
    let persist = PersistConfig {
        fsync: FsyncPolicy::EveryRecord,
        snapshot_every_ops: 16,
        ..PersistConfig::default()
    };

    // --- Normal operation: every op is logged before it is acknowledged.
    let mut server =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, persist)
            .expect("create persistent server");

    for i in 0..20u64 {
        server.handle_join(UserId(i)).unwrap();
    }
    server.flush(100).unwrap();
    server.handle_leave(UserId(3)).unwrap();
    server.handle_leave(UserId(11)).unwrap();
    server.flush(200).unwrap();

    let p = server.persistence().unwrap();
    println!(
        "after 2 intervals: group size {}, snapshot epoch {}, WAL {} bytes",
        server.group_size(),
        p.epoch(),
        p.wal_len()
    );

    // --- An interval begins: requests queue, the WAL records them…
    server.handle_join(UserId(40)).unwrap();
    server.handle_leave(UserId(7)).unwrap();
    let digest_at_crash = root_digest(server.tree());
    println!(
        "mid-interval: {} request(s) queued, tree digest {}…",
        server.pending_requests(),
        hex8(&digest_at_crash)
    );

    // --- …and the process dies. All in-memory state is gone.
    drop(server);
    println!("\n*** server process killed mid-interval ***\n");

    // --- Recovery: load the latest snapshot, replay the WAL tail, verify
    // the reached state against the last logged root digest.
    let mut server = GroupKeyServer::recover(config, AccessControl::AllowAll, &dir, persist)
        .expect("recover from snapshot + WAL");
    let digest_recovered = root_digest(server.tree());
    println!(
        "recovered: group size {}, {} request(s) still queued, digest {}…",
        server.group_size(),
        server.pending_requests(),
        hex8(&digest_recovered)
    );
    assert_eq!(digest_at_crash, digest_recovered, "byte-identical key tree");
    println!("digest matches the pre-crash tree: byte-identical recovery");

    // --- The recovered process picks up exactly where the old one died:
    // the interval it inherited flushes as if nothing happened.
    let batch = server.flush(300).unwrap().expect("pending interval flushes");
    println!(
        "\npost-recovery flush: +{} member(s), -{} member(s), {} rekey packet(s)",
        batch.grants.len(),
        batch.departed.len(),
        batch.encoded.len()
    );
    println!("final group size: {}", server.group_size());

    println!("\nKey observations:");
    println!("  - every successful op is appended (CRC-framed) to the WAL before");
    println!("    the server acknowledges it; snapshots bound the replay tail;");
    println!("  - recovery replays the WAL through the normal handlers, so the");
    println!("    rebuilt tree, DRBG states, and batch queue are byte-identical —");
    println!("    verified here by the root digest recorded with the last record;");
    println!("  - a torn final record (power loss mid-write) is detected by CRC");
    println!("    and discarded: the op was never acknowledged, so it never happened.");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
