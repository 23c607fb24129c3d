//! Allocation gate for [`Client::apply`], counted rather than timed so no
//! host can flake it.
//!
//! Under group-oriented rekeying every member receives the whole packet of
//! a leave (≈ 17 bundles at n = 512) and opens the one or two addressed to
//! it; a join's packet has ≈ 6. A member that materialised every bundle it
//! skips would allocate a few blocks per bundle, so its leave apply would
//! cost dozens of allocations more than its join apply. Reading the packet
//! in place makes the two equal up to per-key work.
//!
//! The same allocator checks secrecy hygiene: while an apply runs, every
//! block freed (or moved by `realloc`) is scanned for the key material
//! that apply installs. A plaintext buffer freed without a wipe trips it,
//! and so does one freed on the error path: a packet whose bundles have
//! their last ciphertext block flipped decrypts, under the right key, to
//! real key bytes followed by bad padding.

use kg_client::{Client, ClientError, ProcessSummary, VerifyPolicy};
use kg_core::ids::UserId;
use kg_core::rekey::{Recipients, Strategy};
use kg_crypto::SymmetricKey;
use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ServerConfig};
use kg_wire::RekeyView;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most keys one apply can install and still be watched for.
const MAX_NEEDLES: usize = 16;

thread_local! {
    /// Whether this thread is inside a measured apply.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (and reallocations) made while tracking.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// 8-byte key values the measured apply installs.
    static NEEDLES: Cell<[u64; MAX_NEEDLES]> = const { Cell::new([0; MAX_NEEDLES]) };
    static NEEDLE_COUNT: Cell<usize> = const { Cell::new(0) };
    /// Set when a freed block still held one of the needles.
    static LEAKED: Cell<bool> = const { Cell::new(false) };
}

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

/// Flag a block about to be released if it still holds a needle.
fn scan(block: &[u8]) {
    let needles = NEEDLES.with(Cell::get);
    let count = NEEDLE_COUNT.with(Cell::get);
    let needles = &needles[..count];
    let hit = block
        .windows(8)
        .map(|w| u64::from_ne_bytes(w.try_into().expect("8-byte window")))
        .any(|w| needles.contains(&w));
    if hit {
        LEAKED.with(|l| l.set(true));
    }
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping only reads blocks the caller still owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if tracking() {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if tracking() {
            scan(std::slice::from_raw_parts(ptr, layout.size()));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if tracking() {
            ALLOCS.with(|a| a.set(a.get() + 1));
            scan(std::slice::from_raw_parts(ptr, layout.size()));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Apply `bytes` to `client`, returning the result, the allocations it
/// made and whether a freed block still held a key that applying the
/// `intact` packet installs.
fn measured_apply(
    client: &mut Client,
    intact: &[u8],
    bytes: &[u8],
) -> (Result<ProcessSummary, ClientError>, u64, bool) {
    // A dry run on a copy names the keys the intact packet installs.
    let mut dry = client.clone();
    dry.apply(intact).expect("member applies the packet");
    let before = client.keyset();
    let installed: Vec<SymmetricKey> =
        dry.keyset().into_iter().filter(|e| !before.contains(e)).map(|(_, k)| k).collect();
    assert!(installed.len() <= MAX_NEEDLES);
    let mut needles = [0u64; MAX_NEEDLES];
    for (n, k) in needles.iter_mut().zip(&installed) {
        *n = u64::from_ne_bytes(k.material().try_into().expect("8-byte DES key"));
    }
    NEEDLES.with(|c| c.set(needles));
    NEEDLE_COUNT.with(|c| c.set(installed.len()));
    LEAKED.with(|l| l.set(false));
    ALLOCS.with(|a| a.set(0));

    TRACKING.with(|t| t.set(true));
    let result = client.apply(bytes);
    TRACKING.with(|t| t.set(false));

    let expected = if result.is_ok() { dry.keyset() } else { before };
    assert_eq!(client.keyset(), expected);
    (result, ALLOCS.with(Cell::get), LEAKED.with(Cell::get))
}

/// The packet every member receives (group-oriented: one multicast).
fn group_packet(encoded: &[Vec<u8>]) -> &[u8] {
    encoded
        .iter()
        .find(|b| RekeyView::parse(b).expect("valid packet").recipients == Recipients::Group)
        .expect("a group multicast")
}

#[test]
fn leave_apply_allocates_no_more_than_join_apply() {
    const N: u64 = 512;
    const OPS: u64 = 12;
    let config = ServerConfig::builder()
        .strategy(Strategy::GroupOriented)
        .auth(AuthPolicy::SignBatch)
        .seed(7)
        .build()
        .expect("valid config");
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    let verify = VerifyPolicy::RequireSignature {
        alg: server.config().digest,
        key: server.public_key().expect("signing server").clone(),
    };
    // Members spread over the tree; only they are simulated.
    let tracked = [0u64, 97, 205, 318, 430, 511];
    let mut members: Vec<Client> = Vec::new();
    for u in 0..N {
        let op = server.handle_join(UserId(u)).expect("join");
        if tracked.contains(&u) {
            let g = &op.grants[0];
            let mut c = Client::new(UserId(u), server.config().cipher, verify.clone());
            c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
            members.push(c);
        }
        for bytes in &op.encoded {
            for c in members.iter_mut() {
                c.apply(bytes).expect("member applies the packet");
            }
        }
    }

    let (mut join, mut leave) = ((0u64, 0u64), (0u64, 0u64));
    for i in 0..OPS {
        for (joining, op) in [
            (false, server.handle_leave(UserId(1 + i)).expect("leave")),
            (true, server.handle_join(UserId(10_000 + i)).expect("join")),
        ] {
            let group = group_packet(&op.encoded);
            for c in members.iter_mut() {
                let (result, allocs, leaked) = measured_apply(c, group, group);
                result.expect("member applies the packet");
                assert!(!leaked, "{:?} freed installed key material un-wiped", c.user());
                let tally = if joining { &mut join } else { &mut leave };
                tally.0 += allocs;
                tally.1 += 1;
            }
            for bytes in op.encoded.iter().filter(|b| b.as_slice() != group) {
                for c in members.iter_mut() {
                    c.apply(bytes).expect("member applies the packet");
                }
            }
        }
    }
    for c in &members {
        assert_eq!(c.group_key().expect("member").1, server.tree().group_key().1);
    }
    let join_mean = join.0 as f64 / join.1 as f64;
    let leave_mean = leave.0 as f64 / leave.1 as f64;
    eprintln!("allocations per apply: join {join_mean:.1}, leave {leave_mean:.1}");
    assert!(
        leave_mean <= join_mean + 2.0,
        "a leave apply allocates {leave_mean:.1} blocks against a join's {join_mean:.1}: \
         skipped bundles are being materialised"
    );
}

/// `packet` with one bit flipped in the last ciphertext block of every
/// bundle.
fn flip_last_blocks(packet: &[u8]) -> Vec<u8> {
    let view = RekeyView::parse(packet).expect("valid packet");
    let ends: Vec<usize> = view
        .bundles()
        .map(|b| b.ciphertext.as_ptr() as usize - packet.as_ptr() as usize + b.ciphertext.len())
        .collect();
    let mut bytes = packet.to_vec();
    for end in ends {
        bytes[end - 1] ^= 0x01;
    }
    bytes
}

/// A member that applies a corrupted packet with the right keys fails
/// with nothing installed, and frees no block that still holds a key the
/// intact packet would have installed. No authenticator is on, so the
/// corruption reaches decryption.
#[test]
fn corrupted_packet_apply_frees_no_key_material() {
    let config = ServerConfig::builder()
        .strategy(Strategy::GroupOriented)
        .auth(AuthPolicy::None)
        .seed(11)
        .build()
        .expect("valid config");
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    let mut members: Vec<Client> = Vec::new();
    for u in 0..64u64 {
        let op = server.handle_join(UserId(u)).expect("join");
        let g = &op.grants[0];
        let mut c = Client::new(g.user, server.config().cipher, VerifyPolicy::Opportunistic);
        c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
        members.push(c);
        for bytes in &op.encoded {
            for c in members.iter_mut() {
                c.apply(bytes).expect("member applies the packet");
            }
        }
    }
    let mut refused = 0;
    for i in 0..8u64 {
        for op in [
            server.handle_leave(UserId(i * 7)).expect("leave"),
            server.handle_join(UserId(1_000 + i)).expect("join"),
        ] {
            members.retain(|c| server.is_member(c.user()));
            let group = group_packet(&op.encoded);
            let corrupted = flip_last_blocks(group);
            for c in members.iter_mut() {
                let (result, _, leaked) = measured_apply(c, group, &corrupted);
                assert!(
                    !leaked,
                    "{:?} freed the plaintext of a corrupted bundle un-wiped",
                    c.user()
                );
                assert!(matches!(result, Err(ClientError::DecryptFailed(_))), "{result:?}");
                refused += 1;
                c.apply(group).expect("member applies the intact packet");
            }
            for bytes in op.encoded.iter().filter(|b| b.as_slice() != group) {
                for c in members.iter_mut() {
                    let _ = c.apply(bytes);
                }
            }
        }
    }
    assert!(refused > 0);
    for c in &members {
        assert_eq!(c.group_key().expect("member").1, server.tree().group_key().1);
    }
}
