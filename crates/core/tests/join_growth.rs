//! Growth gate: the tree's own work per join must follow the height, not
//! the membership, from 2^14 to 2^20 members (ROADMAP: "flat per-join tree
//! time from 2^14 to 2^20"). Equality of placement with the breadth-first
//! search is pinned by kg-core's unit tests; this pins what replacing the
//! search bought. Run by CI as `cargo test --release -p kg-core -- --ignored`.

use kg_core::{KeyTree, UserId};
use kg_crypto::{KeySource, SymmetricKey};
use std::time::Instant;

/// Key material from a counter, so that what is timed is the tree and not
/// the HMAC-DRBG a server would draw from.
struct CounterKeys(u64);

impl KeySource for CounterKeys {
    fn generate(&mut self, len: usize) -> Vec<u8> {
        self.0 += 1;
        self.0.to_be_bytes().iter().copied().cycle().take(len).collect()
    }
}

fn join_range(tree: &mut KeyTree, keys: &mut CounterKeys, users: std::ops::Range<u64>) -> f64 {
    let start = Instant::now();
    for u in users {
        let individual = SymmetricKey::new(keys.generate(8));
        tree.join(UserId(u), individual, keys).expect("fresh user id");
    }
    start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "builds a 2^20-member tree; CI runs it in release"]
fn per_join_time_follows_height_to_a_million_members() {
    const SMALL: u64 = 1 << 14;
    const FULL: u64 = 1 << 20;
    let mut keys = CounterKeys(0);
    let mut tree = KeyTree::new(4, 8, &mut keys);

    join_range(&mut tree, &mut keys, 0..SMALL);
    let early = join_range(&mut tree, &mut keys, SMALL..2 * SMALL);
    join_range(&mut tree, &mut keys, 2 * SMALL..FULL - SMALL);
    let late = join_range(&mut tree, &mut keys, FULL - SMALL..FULL);
    assert_eq!(tree.user_count() as u64, FULL);

    // The height grows 8 → 11 over this range (1.4×); a search of the
    // whole tree per join grows with the membership (≈ 64×).
    println!(
        "2^14 joins at n = 2^14: {early:.3} s; at n = 2^20: {late:.3} s ({:.1}×)",
        late / early
    );
    assert!(
        late <= 8.0 * early,
        "the last 2^14 joins took {late:.3} s against {early:.3} s at n = 2^14"
    );

    // Churn at full size, then the invariants (cached summaries included).
    for u in (0..FULL).step_by((FULL / SMALL) as usize) {
        tree.leave(UserId(u), &mut keys).expect("member");
    }
    join_range(&mut tree, &mut keys, FULL..FULL + SMALL);
    assert_eq!(tree.user_count() as u64, FULL);
    tree.check_invariants();
}
