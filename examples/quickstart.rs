//! Quickstart: stand up a group key server, admit members, process a
//! leave, and watch the group key rotate under each rekeying strategy.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use keygraphs::core::ids::UserId;
use keygraphs::core::rekey::Strategy;
use keygraphs::server::{AccessControl, GroupKeyServer, ServerConfig};

fn main() {
    println!("== Secure Group Communications Using Key Graphs: quickstart ==\n");

    for strategy in Strategy::ALL {
        println!("--- strategy: {} ---", strategy.as_str());
        let config = ServerConfig::builder().strategy(strategy).build().unwrap();
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);

        // Nine members join (the paper's Figure 5 tree at d=4 would be
        // three subgroups of three at d=3; here d=4).
        for i in 1..=9u64 {
            let op = server.handle_join(UserId(i)).unwrap();
            println!(
                "join u{i}: {} rekey message(s), {} bytes total",
                op.encoded.len(),
                op.encoded.iter().map(|e| e.len()).sum::<usize>()
            );
        }
        let (gk_before, _) = server.tree().group_key();
        println!("group key after joins: {gk_before:?}");

        // u9 leaves: every key on its path is replaced.
        let op = server.handle_leave(UserId(9)).unwrap();
        let (gk_after, _) = server.tree().group_key();
        println!(
            "leave u9: {} rekey message(s), {} bytes; group key {gk_before:?} -> {gk_after:?}",
            op.encoded.len(),
            op.encoded.iter().map(|e| e.len()).sum::<usize>()
        );

        let agg = server.stats().aggregate(None).unwrap();
        println!(
            "server totals: {} ops, {:.1} B/msg avg, {:.2} encryptions/op, {:.3} ms/op\n",
            agg.ops, agg.msg_size_ave, agg.encryptions_ave, agg.proc_ms_ave
        );
    }
    println!("Key observations (cf. Sections 3 and 5 of the paper):");
    println!("  - group-oriented sends the fewest messages (1 multicast per request);");
    println!("  - key-oriented and user-oriented send one message per subgroup class;");
    println!("  - every strategy replaces exactly the keys on the requester's path.");
}
