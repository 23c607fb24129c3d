//! Pins what a fixed request schedule emits, twice over.
//!
//! The **byte digest** covers every key bundle (targets, encrypting key,
//! IV, ciphertext) and derivation code in emission order: framing may move,
//! bundles may not.
//!
//! The **structure digest** covers what each operation tells whom, with no
//! key, IV or ciphertext bytes in it: per packet its operation kind,
//! recipients and derivation links, and its bundles as a sorted list of
//! (encrypting key, targets, ciphertext length). A change that draws the
//! same keys in another order moves the byte digest and must leave this one
//! alone: every operation still tells the same recipients the same keys
//! under the same keys.

use keygraphs::core::ids::{KeyRef, UserId};
use keygraphs::core::rekey::{KeyBundle, Recipients, Strategy};
use keygraphs::crypto::sha256::Sha256;
use keygraphs::crypto::Digest;
use keygraphs::server::{AccessControl, GroupKeyServer, ServerConfig};
use keygraphs::wire::RekeyPacket;

/// SHA-256 over every emitted bundle and code, hex, per
/// `Strategy::EVERY` × {immediate, batched(4)}. The `*/immediate` rows were
/// re-pinned when per-operation replacement went root-first like the
/// intervals' (which key draw lands on which node changed; the structure
/// digest below did not move).
const PINNED: [(&str, &str); 8] = [
    ("user/immediate", "3aa81b0d578c2b61d79101dffe4c68bd76d615006507b2fde8848f2207982cca"),
    ("user/batched", "00be488a64e4be6ee2f5f3bac81e2b6cbb599002a22a619dc96a09e69b8e1564"),
    ("key/immediate", "fb9409195dc3ecec71e16dfc130b68da1578af8529d7b68ec997da77614b8cb1"),
    ("key/batched", "91d68eaff4457075beba345256c88a13811c33a452a50a4ad82ea8058a328ecf"),
    ("group/immediate", "58837ae95eec7601ce1e236656b994c71da1df8fea6ef874fe812c897eaf5c5c"),
    ("group/batched", "57ee98b7b533fa777e5ae600ff3a08307a06193c3c908d36b8b6653c3ae5b0f2"),
    ("derived/immediate", "8b53f87c4778bfb4fc980660945e2f80af166e6c903c018632476ccc013cd6ff"),
    ("derived/batched", "729646f668ed53672dc89791254543334c3cf883e43f766da32c3c121fbd5644"),
];

/// SHA-256 over every packet's structure, hex, same runs.
const PINNED_STRUCTURE: [(&str, &str); 8] = [
    ("user/immediate", "c5ab3c9d37286757990cd45a1dd65e09338762f5ebdece4469ecc5ee704e4327"),
    ("user/batched", "9abfa31a525a563592ea2b9d95e80891e2ae29d919e48e68a3ac8481bb45f255"),
    ("key/immediate", "0f5a03f60f3852d5ea221ba23826da9c27c44f073bc1fdd48844989464ef8f11"),
    ("key/batched", "1f4f33f5bf666314c72a29620e58ef169d41f14b9b2778c03a197d9095888382"),
    ("group/immediate", "8678f6fd9be0bbca89263575cebeda7a541d9b818f2b75c408f4836b50e878bb"),
    ("group/batched", "1eae6cda37d273d69033da1adf0985c773d17dc693226a515db31bb79d3f90e2"),
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
        self.bytes(&b.iv);
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
        "b19c50811fa1d4de4aecb0b0bb2cc3a637cf62eda9974b2192b8086ec0915f6c",
        "published codes and links changed"
    );
    assert_eq!(
        prefix.hex(),
        "c3947c2d203c1ee9018cd8481560fde93ba8c1d3e2b0103572fecceb9425dbb1",
        "joiner bundles before the first leave changed"
    );
}
