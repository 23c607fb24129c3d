//! `kgc-router` — the cluster's client-facing relay, over real UDP.
//!
//! Binds the well-known router endpoint (id 1), registers the shard
//! nodes' addresses, and relays until an admin shutdown completes.
//!
//! ```text
//! kgc-router --bind 127.0.0.1:7000 --shards 2 \
//!            --peer 0=127.0.0.1:7100 --peer 1=127.0.0.1:7101 \
//!            --span 1=2 --flight-recorder /tmp/kgc-flight.json
//! ```
//!
//! `--flight-recorder PATH` writes the telemetry flight-recorder dump
//! (merged metrics, recent raw snapshots, timeline tail) on shutdown
//! and on panic.

use kg_cluster::{Router, RouterEvent, ShardMap};
use kg_net::{EndpointId, Transport, UdpTransport};
use kg_obs::{Obs, ObsConfig};
use kg_wire::GroupId;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: kgc-router --bind ADDR --shards N \
[--peer SHARD=ADDR ...] [--span GROUP=SPAN ...] [--default-group G] \
[--flight-recorder PATH] [--quiet]";

fn fail(msg: &str) -> ! {
    eprintln!("kgc-router: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn split_pair(s: &str, what: &str) -> (String, String) {
    match s.split_once('=') {
        Some((a, b)) => (a.to_string(), b.to_string()),
        None => fail(&format!("{what} wants KEY=VALUE, got {s}")),
    }
}

fn main() {
    let mut bind: Option<String> = None;
    let mut shards: Option<u16> = None;
    let mut peers: Vec<(u16, String)> = Vec::new();
    let mut spans: Vec<(u32, u16)> = Vec::new();
    let mut default_group: Option<u32> = None;
    let mut flight_recorder: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--bind" => bind = Some(value("--bind")),
            "--shards" => {
                shards = Some(value("--shards").parse().unwrap_or_else(|_| fail("bad --shards")))
            }
            "--peer" => {
                let (s, addr) = split_pair(&value("--peer"), "--peer");
                peers.push((s.parse().unwrap_or_else(|_| fail("bad --peer shard id")), addr));
            }
            "--span" => {
                let (g, n) = split_pair(&value("--span"), "--span");
                spans.push((
                    g.parse().unwrap_or_else(|_| fail("bad --span group id")),
                    n.parse().unwrap_or_else(|_| fail("bad --span width")),
                ));
            }
            "--default-group" => {
                default_group =
                    Some(value("--default-group").parse().unwrap_or_else(|_| fail("bad group id")))
            }
            "--flight-recorder" => {
                flight_recorder = Some(PathBuf::from(value("--flight-recorder")))
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let bind = bind.unwrap_or_else(|| fail("--bind is required"));
    let shards = shards.unwrap_or_else(|| fail("--shards is required"));

    let mut map = ShardMap::new(shards);
    for (g, n) in spans {
        map = map.with_span(GroupId(g), n);
    }

    let mut net =
        UdpTransport::bind(&bind, 1).unwrap_or_else(|e| fail(&format!("bind {bind}: {e}")));
    for (shard, addr) in peers {
        let sock = addr.parse().unwrap_or_else(|_| fail(&format!("bad peer address {addr}")));
        // Shard n serves endpoint 1000 + n, per the id convention.
        net.register_peer(EndpointId(1000 + shard as u32), sock);
    }

    let mut router = Router::new(map, &mut net, Obs::new(ObsConfig::default()));
    for shard in router.map().all_shards().collect::<Vec<_>>() {
        router.register_shard(shard, EndpointId(1000 + shard.0 as u32));
    }
    if let Some(g) = default_group {
        router.set_default_group(GroupId(g));
    }
    // Flight recorder: keep the latest dump in shared memory, refreshed
    // about once a second; a panic writes the last refresh before the
    // process dies, a clean shutdown writes a final one below.
    let last_dump: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    if let Some(path) = flight_recorder.clone() {
        let dump = Arc::clone(&last_dump);
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Ok(text) = dump.lock() {
                let _ = std::fs::write(&path, text.as_str());
            }
            default_hook(info);
        }));
    }
    let mut last_refresh = Instant::now();
    if !quiet {
        eprintln!(
            "kgc-router: serving {} shard(s) on {} (endpoint {})",
            shards,
            net.local_addr().map(|a| a.to_string()).unwrap_or_default(),
            router.endpoint().0,
        );
    }

    while router.is_running() {
        net.poll_io();
        for event in router.poll(&mut net) {
            match event {
                RouterEvent::ShutdownComplete { members, wal_tail } if !quiet => {
                    eprintln!(
                        "kgc-router: cluster shut down; members={members} wal_tail={wal_tail}"
                    );
                }
                e if !quiet => eprintln!("kgc-router: {e:?}"),
                _ => {}
            }
        }
        if flight_recorder.is_some() && last_refresh.elapsed() >= Duration::from_secs(1) {
            last_refresh = Instant::now();
            *last_dump.lock().expect("flight recorder lock") = router.flight_recorder_dump();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if let Some(path) = &flight_recorder {
        match std::fs::write(path, router.flight_recorder_dump()) {
            Ok(()) if !quiet => {
                eprintln!("kgc-router: flight recorder written to {}", path.display());
            }
            Err(e) => eprintln!("kgc-router: flight recorder write failed: {e}"),
            _ => {}
        }
    }
}
