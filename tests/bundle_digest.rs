//! Pins the ciphertext stream: a fixed request schedule must emit exactly
//! the same key bundles (targets, encrypting key, IV, ciphertext) and
//! derivation codes, in the same order, whatever packet framing carries
//! them. Framing may move; bundles may not.
//!
//! Only `Stream::op` and `Stream::batch` know how bundles are pulled out of
//! the packet types.

use keygraphs::core::ids::{KeyRef, UserId};
use keygraphs::core::rekey::{KeyBundle, Strategy};
use keygraphs::crypto::sha256::Sha256;
use keygraphs::crypto::Digest;
use keygraphs::server::{AccessControl, GroupKeyServer, ProcessedBatch, ProcessedOp, ServerConfig};

/// SHA-256 over every emitted bundle and code, hex, per
/// `Strategy::EVERY` × {immediate, batched(4)}.
const PINNED: [(&str, &str); 8] = [
    ("user/immediate", "05286e74422c68f26135243c8c881c6cc29ddfaefb162d479958edfd9fa82140"),
    ("user/batched", "00be488a64e4be6ee2f5f3bac81e2b6cbb599002a22a619dc96a09e69b8e1564"),
    ("key/immediate", "7cbed411a51a113fc7fa792b02500cfe7a0391118ac5aec4201dba0578fdee86"),
    ("key/batched", "91d68eaff4457075beba345256c88a13811c33a452a50a4ad82ea8058a328ecf"),
    ("group/immediate", "3e1031e750add1d62d3f3c438da8ebf61822328c11b4e9937bcba7cdb6898afa"),
    ("group/batched", "57ee98b7b533fa777e5ae600ff3a08307a06193c3c908d36b8b6653c3ae5b0f2"),
    ("derived/immediate", "44761e31de13b94065b8e89c8a495b234df82d49d65b7779a9cda49076bb215c"),
    ("derived/batched", "729646f668ed53672dc89791254543334c3cf883e43f766da32c3c121fbd5644"),
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
    fn payload<'a>(&mut self, code: &[u8], bundles: impl Iterator<Item = &'a KeyBundle>) {
        if !code.is_empty() {
            self.bytes(code);
        }
        for b in bundles {
            self.bundle(b);
        }
    }

    fn op(&mut self, op: &ProcessedOp) {
        for p in &op.packets {
            self.payload(&p.code, p.bundles.iter());
        }
    }

    fn batch(&mut self, batch: &ProcessedBatch) {
        for p in &batch.packets {
            self.payload(&p.code, p.bundles.iter());
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

fn run(strategy: Strategy, batched: bool) -> String {
    let mut b = ServerConfig::builder().strategy(strategy).seed(7);
    if batched {
        b = b.batched(1_000, usize::MAX);
    }
    let mut server = GroupKeyServer::new(b.build().expect("valid config"), AccessControl::AllowAll);
    let mut stream = Stream(Sha256::new());
    for (i, request) in schedule().into_iter().enumerate() {
        match request {
            Request::Join(u) if batched => server.enqueue_join(u).expect("enqueue join"),
            Request::Leave(u) if batched => server.enqueue_leave(u).expect("enqueue leave"),
            Request::Join(u) => stream.op(&server.handle_join(u).expect("join")),
            Request::Leave(u) => stream.op(&server.handle_leave(u).expect("leave")),
            Request::Refresh => stream.op(&server.refresh_group_key().expect("refresh")),
        }
        if batched && (i + 1) % BATCH == 0 {
            if let Some(batch) = server.flush(i as u64).expect("flush") {
                stream.batch(&batch);
            }
        }
    }
    stream.hex()
}

#[test]
fn emitted_bundles_and_codes_match_the_pinned_digests() {
    let mut measured = Vec::new();
    for strategy in Strategy::EVERY {
        for batched in [false, true] {
            let mode = if batched { "batched" } else { "immediate" };
            measured.push((format!("{strategy}/{mode}"), run(strategy, batched)));
        }
    }
    for ((name, digest), (pinned_name, pinned)) in measured.iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        assert_eq!(digest, pinned, "{name}: the emitted bundle stream changed");
    }
}
