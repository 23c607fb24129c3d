//! Tracing a server's life with `kg-obs`: joins, leaves, a crash, and
//! an observed recovery, narrated by the event timeline and measured by
//! the metrics registry.
//!
//! Every layer of the stack reports to one cloneable [`Obs`] handle:
//! the request handlers time their phases with nested spans
//! (`op.join.rsa`, `op.leave.encrypt`), the durability store counts
//! WAL appends and times fsyncs, and the recovery path records how many
//! log records it replayed — a number that must reconcile with the
//! appends the first life observed.
//!
//! ```text
//! cargo run --example observability
//! ```

use keygraphs::core::ids::UserId;
use keygraphs::obs::{Obs, ObsConfig};
use keygraphs::persist::{FsyncPolicy, PersistConfig};
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};

fn main() {
    println!("== Observing a key server's life: join, leave, crash, recover ==\n");

    let dir = std::env::temp_dir().join(format!("kg-example-obs-{}", std::process::id()));
    let config = ServerConfig::builder().auth(AuthPolicy::SignBatch).build().unwrap();
    let persist = PersistConfig {
        fsync: FsyncPolicy::EveryRecord,
        snapshot_every_ops: u64::MAX,
        snapshot_max_bytes: u64::MAX,
    };

    // --- Life 1: an observed server admits members, evicts some, dies.
    let obs = Obs::new(ObsConfig::default());
    let mut server =
        GroupKeyServer::with_persistence(config.clone(), AccessControl::AllowAll, &dir, persist)
            .expect("create persistent server");
    server.attach_obs(obs.clone());

    for i in 0..8u64 {
        server.handle_join(UserId(i)).unwrap();
    }
    server.handle_leave(UserId(2)).unwrap();
    server.handle_leave(UserId(5)).unwrap();
    server.sync_persistence().unwrap();

    println!("--- timeline of the first life ---");
    print!("{}", obs.render_timeline());

    println!("\n--- what the registry measured ---");
    for line in obs.render_prometheus().lines() {
        // The full exposition lists every span path and fsync bucket;
        // show the headline counters and the op-phase timings.
        if line.starts_with("kg_requests_total")
            || line.starts_with("kg_encryptions_total")
            || line.starts_with("kg_signatures_total")
            || line.starts_with("kg_wal_appends_total")
            || (line.starts_with("kg_span_us") && line.contains("_count"))
        {
            println!("{line}");
        }
    }
    let appends = obs.event_kind_counts().get("wal_append").copied().unwrap_or(0);
    println!("\nfirst life appended {appends} WAL records");

    drop(server); // crash: the process is gone, the log survives

    // --- Life 2: recover under a fresh handle and reconcile.
    let obs2 = Obs::new(ObsConfig::default());
    let mut server = GroupKeyServer::recover_observed(
        config,
        AccessControl::AllowAll,
        &dir,
        persist,
        obs2.clone(),
    )
    .expect("recover");

    println!("\n--- timeline of the recovered life ---");
    print!("{}", obs2.render_timeline());

    let replayed = obs2.counter("kg_replayed_records_total").get();
    println!("\nrecovery replayed {replayed} records (first life wrote {appends})");
    assert_eq!(replayed, appends, "the timeline and the log must agree");

    // The recovered server keeps reporting to its handle.
    server.handle_join(UserId(40)).unwrap();
    println!(
        "post-recovery join: kg_requests_total{{kind=\"join\"}} = {} (replayed joins excluded)",
        obs2.counter_with("kg_requests_total", "kind", "join").get()
    );

    drop(server);
    std::fs::remove_dir_all(&dir).ok();
    println!("\nAll accounts reconciled.");
}
