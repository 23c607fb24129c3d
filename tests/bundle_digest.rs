//! Pins what a fixed request schedule emits, twice over.
//!
//! The **byte digest** covers every key bundle (targets, encrypting key,
//! ciphertext) and derivation code in emission order: framing may move,
//! bundles may not.
//!
//! The **structure digest** covers what each operation tells whom, with no
//! key, IV or ciphertext bytes in it: per packet its operation kind,
//! recipients and derivation links, and its bundles as a sorted list of
//! (encrypting key, targets, ciphertext length). A change that draws the
//! same keys in another order moves the byte digest and must leave this one
//! alone: every operation still tells the same recipients the same keys
//! under the same keys.

use keygraphs::core::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
use keygraphs::core::rekey::{KeyBundle, Recipients, Strategy};
use keygraphs::core::tree::KeyTree;
use keygraphs::crypto::sha256::Sha256;
use keygraphs::crypto::Digest;
use keygraphs::server::{AccessControl, GroupKeyServer, ServerConfig};
use keygraphs::wire::RekeyPacket;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// SHA-256 over every emitted bundle and code, hex, per
/// `Strategy::EVERY` × {immediate, batched(4)}. The `*/immediate` rows were
/// re-pinned when per-operation replacement went root-first like the
/// intervals' (which key draw lands on which node changed; the structure
/// digest below did not move), every row when created nodes stopped
/// drawing a throw-away key (the key stream shifted), and every row when
/// IVs came to be derived from a nonce instead of drawn (rekey format 2:
/// every ciphertext changed, and the IV left the stream).
const PINNED: [(&str, &str); 8] = [
    ("user/immediate", "ec88c8dc11cc27b2c61c5f2a23ae1f8a91e11a997714d28092aa5676cdddef52"),
    ("user/batched", "1729b1844de8110d6039bade4ee75734424865bc7c2b7eb408b10add0889b2f9"),
    ("key/immediate", "06bd21deffad5b7ba52cadd7a4573045f9b4889946c8e9580708b29e28370fe1"),
    ("key/batched", "1ce142090adf77af4bc97b0f8fb4a62c05d61ce03342a3deb7f8fea0de1c7563"),
    ("group/immediate", "eb8c999bd75737ef4ac1938318b96e4f976927a63ecbdc54dd809520d5f15425"),
    ("group/batched", "7b1659609549d8b79c2bfb82c16353810b1a6e9189c33ce7fdc57453aa80e3f0"),
    ("derived/immediate", "e6aeb244ac1982ffee637140466efa910047269d0c0d50ecccfb00d9b7b3e1ec"),
    ("derived/batched", "03780a47bd7d2b0a1aab74e7afadb0fca3cb531873296f636a1564bd3bdd3099"),
];

/// SHA-256 over every packet's structure, hex, same runs. The four rows
/// whose first operation sealed for nobody (a join into the empty group,
/// or a batched interval's empty multicast) were re-pinned when it stopped.
const PINNED_STRUCTURE: [(&str, &str); 8] = [
    ("user/immediate", "88d8607225c61128fc140b00349b3d6068ab1d5046c5e92c272d8de4f0bb5c98"),
    ("user/batched", "9abfa31a525a563592ea2b9d95e80891e2ae29d919e48e68a3ac8481bb45f255"),
    ("key/immediate", "f6f7995ce6308ba87fd97d15007e33dd154195cec904a2b6a3fbba4870d44b23"),
    ("key/batched", "1f4f33f5bf666314c72a29620e58ef169d41f14b9b2778c03a197d9095888382"),
    ("group/immediate", "839f0f2b441ab8dd527f1f8953306a8804948c6fe5e92ba837a812750edc3efb"),
    ("group/batched", "8ae521cc6fa6b71c7949e6eb55dfb6a7bee528ac07f901dea683a4081b6c77a0"),
    ("derived/immediate", "f52cddda51740566adbd94a420f1b5df68217e37c50aa9d8fffd5517309bd11d"),
    ("derived/batched", "fa71db05b13d676cb21ce4af0a5e94d025fee0e7b547bd0ad0cd34af0533d753"),
];

const REQUESTS: usize = 200;
const BATCH: usize = 4;

struct Stream(Sha256);

impl Stream {
    fn key_ref(&mut self, r: &KeyRef) {
        self.0.update(&r.label.0.to_be_bytes());
        self.0.update(&r.version.0.to_be_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.0.update(&(b.len() as u32).to_be_bytes());
        self.0.update(b);
    }

    fn bundle(&mut self, b: &KeyBundle) {
        self.0.update(&(b.targets.len() as u32).to_be_bytes());
        for t in &b.targets {
            self.key_ref(t);
        }
        self.key_ref(&b.encrypted_with);
        self.bytes(&b.ciphertext);
    }

    /// One packet's payload: its derivation code (when it has one), then
    /// its bundles in emission order.
    fn payload(&mut self, p: &RekeyPacket) {
        if !p.code.is_empty() {
            self.bytes(&p.code);
        }
        for b in &p.bundles {
            self.bundle(b);
        }
    }

    /// One packet's structure: who is told which keys under which keys.
    fn structure(&mut self, p: &RekeyPacket) {
        self.0.update(&[p.op.tag()]);
        match &p.recipients {
            Recipients::User(u) => {
                self.0.update(&[0]);
                self.0.update(&u.0.to_be_bytes());
            }
            Recipients::Subgroup(l) => {
                self.0.update(&[1]);
                self.0.update(&l.0.to_be_bytes());
            }
            Recipients::SubgroupExcept { include, exclude } => {
                self.0.update(&[2]);
                self.0.update(&include.0.to_be_bytes());
                self.0.update(&exclude.0.to_be_bytes());
            }
            Recipients::Group => self.0.update(&[3]),
        }
        self.0.update(&(p.changed.len() as u32).to_be_bytes());
        for link in &p.changed {
            self.key_ref(&link.new_ref);
            self.key_ref(&link.from);
        }
        let mut bundles: Vec<(KeyRef, &[KeyRef], usize)> = p
            .bundles
            .iter()
            .map(|b| (b.encrypted_with, b.targets.as_slice(), b.ciphertext.len()))
            .collect();
        bundles.sort();
        self.0.update(&(bundles.len() as u32).to_be_bytes());
        for (encrypted_with, targets, len) in bundles {
            self.key_ref(&encrypted_with);
            self.0.update(&(targets.len() as u32).to_be_bytes());
            for t in targets {
                self.key_ref(t);
            }
            self.0.update(&(len as u32).to_be_bytes());
        }
    }

    fn hex(self) -> String {
        self.0.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }
}

enum Request {
    Join(UserId),
    Leave(UserId),
    Refresh,
}

/// The fixed schedule: 45 % joins of fresh users, 50 % leaves of a
/// uniformly chosen member, 5 % group-key refreshes, never dropping below
/// four members. One xorshift stream, seeded by a constant.
fn schedule() -> Vec<Request> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut members: Vec<u64> = Vec::new();
    let mut fresh = 0u64;
    (0..REQUESTS)
        .map(|_| {
            let r = next() % 100;
            if members.len() < 4 || r < 45 {
                fresh += 1;
                members.push(fresh);
                Request::Join(UserId(fresh))
            } else if r < 95 {
                let at = (next() % members.len() as u64) as usize;
                Request::Leave(UserId(members.swap_remove(at)))
            } else {
                Request::Refresh
            }
        })
        .collect()
}

/// The run's (byte digest, structure digest).
fn run(strategy: Strategy, batched: bool) -> (String, String) {
    let mut b = ServerConfig::builder().strategy(strategy).seed(7);
    if batched {
        b = b.batched(1_000, usize::MAX);
    }
    let mut server = GroupKeyServer::new(b.build().expect("valid config"), AccessControl::AllowAll);
    let (mut bytes, mut structure) = (Stream(Sha256::new()), Stream(Sha256::new()));
    let mut emit = |packets: &[RekeyPacket]| {
        for p in packets {
            bytes.payload(p);
            structure.structure(p);
        }
    };
    for (i, request) in schedule().into_iter().enumerate() {
        match request {
            Request::Join(u) => emit(&server.handle_join(u).expect("join").packets),
            Request::Leave(u) => emit(&server.handle_leave(u).expect("leave").packets),
            Request::Refresh => emit(&server.refresh_group_key().expect("refresh").packets),
        }
        if batched && (i + 1) % BATCH == 0 {
            if let Some(batch) = server.flush(i as u64).expect("flush") {
                emit(&batch.packets);
            }
        }
    }
    (bytes.hex(), structure.hex())
}

/// Every run's name and digests, in `PINNED` order.
fn runs() -> Vec<(String, (String, String))> {
    let mut measured = Vec::new();
    for strategy in Strategy::EVERY {
        for batched in [false, true] {
            let mode = if batched { "batched" } else { "immediate" };
            measured.push((format!("{strategy}/{mode}"), run(strategy, batched)));
        }
    }
    measured
}

#[test]
fn emitted_bundles_and_codes_match_the_pinned_digests() {
    for ((name, (digest, _)), (pinned_name, pinned)) in runs().iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(digest, pinned, "{name}: the emitted bundle stream changed");
    }
}

#[test]
fn emitted_structure_matches_the_pinned_digests() {
    for ((name, (_, digest)), (pinned_name, pinned)) in runs().iter().zip(PINNED_STRUCTURE) {
        assert_eq!(name, pinned_name);
        assert_eq!(digest, pinned, "{name}: who is told which key under which key changed");
    }
}

/// A derived join or refresh draws no path key, so the code and links it
/// publishes cannot depend on the order replacements are drawn in, and
/// until the first leave puts fresh keys on a path neither can the bytes of
/// the joiner's bundle.
#[test]
fn derived_codes_links_and_leave_free_prefix_match_the_pinned_digests() {
    let config = ServerConfig::builder().strategy(Strategy::Derived).seed(7).build().unwrap();
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    let (mut published, mut prefix) = (Stream(Sha256::new()), Stream(Sha256::new()));
    let mut leave_free = true;
    for request in schedule() {
        let op = match request {
            Request::Join(u) => server.handle_join(u).expect("join"),
            Request::Leave(u) => {
                leave_free = false;
                server.handle_leave(u).expect("leave");
                continue;
            }
            Request::Refresh => server.refresh_group_key().expect("refresh"),
        };
        for p in &op.packets {
            published.bytes(&p.code);
            for link in &p.changed {
                published.key_ref(&link.new_ref);
                published.key_ref(&link.from);
            }
            if leave_free {
                prefix.payload(p);
            }
        }
    }
    assert_eq!(
        published.hex(),
        "f2ef8bbfb116e53bbab500c0f42090118ac2e8253a8288f9a4207c40ccc17417",
        "published codes and links changed"
    );
    assert_eq!(
        prefix.hex(),
        "a1d9cb9edb15534e62ea4de6c96ae33881d8c05ef1c58613cf7bad744bc97472",
        "joiner bundles before the first leave changed"
    );
}

/// Where each live key sits after an operation: its current reference, its
/// parent's label and its depth below the root, read off every member's
/// path.
#[derive(Default)]
struct Placement {
    current: BTreeMap<KeyLabel, KeyRef>,
    parent: BTreeMap<KeyLabel, KeyLabel>,
    depth: BTreeMap<KeyLabel, usize>,
}

impl Placement {
    fn of(tree: &KeyTree) -> Self {
        let mut at = Placement::default();
        for u in tree.members() {
            let path = tree.keyset(u).expect("member"); // leaf-first
            for (i, (r, _)) in path.iter().enumerate() {
                at.current.insert(r.label, *r);
                at.depth.insert(r.label, path.len() - 1 - i);
                if let Some((p, _)) = path.get(i + 1) {
                    at.parent.insert(r.label, p.label);
                }
            }
        }
        at
    }

    /// Whether `b` is sealed under the previous key of its deepest target
    /// (same label, one version earlier) or under the current key of one of
    /// that target's children.
    fn well_shaped(&self, b: &KeyBundle) -> bool {
        let Some(deepest) = b.targets.iter().max_by_key(|t| self.depth.get(&t.label)) else {
            return false;
        };
        let with = b.encrypted_with;
        let previous = deepest.version.0.checked_sub(1).map(KeyVersion);
        let own_old_key = with.label == deepest.label && Some(with.version) == previous;
        let child_key = self.parent.get(&with.label) == Some(&deepest.label)
            && self.current.get(&with.label) == Some(&with);
        own_old_key || child_key
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every bundle any strategy emits, per request or per interval, is
    /// sealed under one of two keys: the previous key of the bundle's
    /// deepest target, or the key of one of that target's children in the
    /// tree after the operation (a joiner's leaf included). Schedules start
    /// from an empty group. An op is `(kind, member pick)`.
    #[test]
    fn every_bundle_is_sealed_under_the_old_key_or_a_child_key(
        ops in proptest::collection::vec((0u8..8, any::<usize>()), 1..48),
        strategy in 0usize..4,
        degree in 0usize..4,
        batched in 0u8..2,
    ) {
        let strategy = Strategy::EVERY[strategy];
        let degree = [2, 3, 4, 16][degree];
        let mut b = ServerConfig::builder().strategy(strategy).degree(degree).seed(11);
        if batched == 1 {
            b = b.batched(1_000, usize::MAX);
        }
        let mut server = GroupKeyServer::new(b.build().expect("valid config"), AccessControl::AllowAll);
        let mut present: Vec<UserId> = Vec::new();
        let mut fresh = 0u64;
        for (i, (kind, pick)) in ops.into_iter().enumerate() {
            let op = match kind {
                0..=3 => {
                    fresh += 1;
                    present.push(UserId(fresh));
                    server.handle_join(UserId(fresh)).expect("join")
                }
                4..=5 if !present.is_empty() => {
                    let u = present.swap_remove(pick % present.len());
                    server.handle_leave(u).expect("leave")
                }
                6 => server.refresh_group_key().expect("refresh"),
                _ => match server.flush(i as u64).expect("flush") {
                    Some(op) => op,
                    None => continue,
                },
            };
            let placement = Placement::of(server.tree());
            for b in op.packets.iter().flat_map(|p| &p.bundles) {
                prop_assert!(
                    placement.well_shaped(b),
                    "{strategy}, d = {degree}, batched {batched}, op {i}: {b:?}"
                );
            }
        }
    }
}
