//! Exhaustive wire-format conformance tests.
//!
//! Every message variant the protocol can produce must (a) round-trip
//! through encode/decode unchanged, and (b) reject — never panic on —
//! truncated or bit-flipped frames. The unit tests inside `kg-wire` spot
//! check individual variants; this suite enumerates the full cross
//! product: every `OpKind` × every `Recipients` × every `AuthTag` × every
//! shape of the derivation section for [`RekeyPacket`], and every
//! [`ControlMessage`] variant.

use kg_core::derive::DerivedLink;
use kg_core::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
use kg_core::merkle::{AuthPath, Side};
use kg_core::rekey::{KeyBundle, Recipients};
use kg_obs::{HistogramSnapshot, TraceContext, TraceSpan};
use kg_wire::{
    AuthTag, ClusterBody, ClusterEnvelope, ControlMessage, GroupId, OpKind, RekeyPacket, RekeyView,
    ShardId, TelemetrySnapshot, WireError, REKEY_VERSION,
};

const ALL_OPS: [OpKind; 4] = [OpKind::Join, OpKind::Leave, OpKind::Batch, OpKind::Refresh];

fn all_recipients() -> Vec<Recipients> {
    vec![
        Recipients::User(UserId(7)),
        Recipients::Subgroup(KeyLabel(3)),
        Recipients::SubgroupExcept { include: KeyLabel(4), exclude: KeyLabel(11) },
        Recipients::Group,
    ]
}

fn all_auth_tags() -> Vec<AuthTag> {
    vec![
        AuthTag::None,
        AuthTag::Digest(vec![0x11; 16]),
        AuthTag::Signed { signature: vec![0x22; 64] },
        AuthTag::MerkleSigned {
            root_signature: vec![0x33; 64],
            path: AuthPath {
                index: 5,
                siblings: vec![(Side::Left, vec![0x44; 16]), (Side::Right, vec![0x55; 16])],
            },
        },
    ]
}

fn bundle(n: u64) -> KeyBundle {
    KeyBundle {
        targets: vec![
            KeyRef::new(KeyLabel(n), KeyVersion(n % 4)),
            KeyRef::new(KeyLabel(n + 1), KeyVersion(0)),
        ],
        encrypted_with: KeyRef::new(KeyLabel(100 + n), KeyVersion(2)),
        ciphertext: vec![0xC3; 16 + (n as usize % 3) * 8],
    }
}

/// Every distinct rekey packet shape: 4 ops × 4 recipients × 4 auths,
/// with bundle counts varying 0..=2 and the derivation section cycling
/// through absent / code + links / code only / links only, so a shipped
/// packet, a derived join, a ciphertext-free refresh and the empty cases
/// are all covered.
fn all_rekey_packets() -> Vec<RekeyPacket> {
    let mut packets = Vec::new();
    for (i, op) in ALL_OPS.into_iter().enumerate() {
        for (j, recipients) in all_recipients().into_iter().enumerate() {
            for (k, auth) in all_auth_tags().into_iter().enumerate() {
                let nbundles = (i + j + k) % 3;
                let derive = (i + 2 * j + k) % 4;
                let nlinks = if derive == 1 || derive == 3 { 1 + k % 2 } else { 0 };
                packets.push(RekeyPacket {
                    interval: (i * 100 + j * 10 + k) as u64,
                    op,
                    timestamp_ms: 1_000 + k as u64,
                    recipients: recipients.clone(),
                    code: if derive == 1 || derive == 2 { vec![0xD7; 16] } else { Vec::new() },
                    changed: (0..nlinks)
                        .map(|l| DerivedLink {
                            new_ref: KeyRef::new(KeyLabel(l as u64), KeyVersion(2)),
                            from: KeyRef::new(KeyLabel(l as u64), KeyVersion(1)),
                        })
                        .collect(),
                    bundles: (0..nbundles).map(|b| bundle(b as u64)).collect(),
                    auth,
                });
            }
        }
    }
    packets
}

fn all_control_messages() -> Vec<ControlMessage> {
    vec![
        ControlMessage::JoinRequest { user: UserId(1) },
        ControlMessage::JoinGranted {
            user: UserId(2),
            leaf_label: KeyLabel(17),
            path_labels: vec![KeyLabel(0), KeyLabel(3), KeyLabel(9)],
        },
        ControlMessage::JoinDenied { user: UserId(3) },
        ControlMessage::LeaveRequest { user: UserId(4), auth: vec![0xAA; 16] },
        ControlMessage::LeaveGranted { user: UserId(5) },
        ControlMessage::LeaveDenied { user: UserId(6) },
    ]
}

#[test]
fn every_rekey_packet_variant_roundtrips() {
    let packets = all_rekey_packets();
    assert_eq!(packets.len(), 64, "4 ops x 4 recipients x 4 auths");
    for derive in [(true, true), (true, false), (false, true), (false, false)] {
        assert!(
            packets.iter().any(|p| (p.code.is_empty(), p.changed.is_empty()) == derive),
            "derivation-section shape {derive:?} is enumerated"
        );
    }
    for pkt in packets {
        let bytes = pkt.encode();
        assert!(RekeyPacket::sniff(&bytes));
        let (decoded, body_len) = RekeyPacket::decode(&bytes).expect("valid encoding");
        assert_eq!(decoded, pkt);
        assert_eq!(&bytes[..body_len], pkt.encode_body().as_slice());
        view_agrees_with_decode(&bytes);
    }
}

/// The version byte fails closed: every value but the current one is a
/// typed error, for every packet shape.
#[test]
fn unknown_rekey_version_fails_closed() {
    for pkt in all_rekey_packets() {
        let mut bytes = pkt.encode();
        assert_eq!(bytes[1], REKEY_VERSION);
        for v in (0..=u8::MAX).filter(|&v| v != REKEY_VERSION) {
            bytes[1] = v;
            assert!(
                matches!(
                    RekeyPacket::decode(&bytes),
                    Err(WireError::BadTag { context: "rekey version", tag }) if tag == v
                ),
                "version {v} of {pkt:?}"
            );
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The wire format, byte for byte: one shipped packet (a key-oriented
/// leave message to a subgroup, digest-tagged) and one derived packet (a
/// join: code, two links, the joiner's bundle, unauthenticated). A change
/// to either string is a protocol change and needs a version bump.
#[test]
fn golden_encodings_are_stable() {
    let shipped = RekeyPacket {
        interval: 0x0102,
        op: OpKind::Leave,
        timestamp_ms: 0x0101,
        recipients: Recipients::Subgroup(KeyLabel(9)),
        code: Vec::new(),
        changed: Vec::new(),
        bundles: vec![KeyBundle {
            targets: vec![KeyRef::new(KeyLabel(3), KeyVersion(2))],
            encrypted_with: KeyRef::new(KeyLabel(9), KeyVersion(1)),
            ciphertext: vec![0xC0; 16],
        }],
        auth: AuthTag::Digest(vec![0xDD; 16]),
    };
    assert_eq!(hex(&shipped.encode()), GOLDEN_SHIPPED);
    let derived = RekeyPacket {
        interval: 7,
        op: OpKind::Join,
        timestamp_ms: 6,
        recipients: Recipients::Group,
        code: (0u8..16).collect(),
        changed: vec![
            DerivedLink {
                new_ref: KeyRef::new(KeyLabel(0), KeyVersion(5)),
                from: KeyRef::new(KeyLabel(0), KeyVersion(4)),
            },
            DerivedLink {
                new_ref: KeyRef::new(KeyLabel(2), KeyVersion(1)),
                from: KeyRef::new(KeyLabel(11), KeyVersion(0)),
            },
        ],
        bundles: vec![KeyBundle {
            targets: vec![
                KeyRef::new(KeyLabel(0), KeyVersion(5)),
                KeyRef::new(KeyLabel(2), KeyVersion(1)),
            ],
            encrypted_with: KeyRef::new(KeyLabel(12), KeyVersion(0)),
            ciphertext: vec![0xC1; 24],
        }],
        auth: AuthTag::None,
    };
    assert_eq!(hex(&derived.encode()), GOLDEN_DERIVED);
    for (golden, pkt) in [(GOLDEN_SHIPPED, shipped), (GOLDEN_DERIVED, derived)] {
        let bytes: Vec<u8> = (0..golden.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(RekeyPacket::decode(&bytes).expect("golden frame decodes").0, pkt);
    }
}

const GOLDEN_SHIPPED: &str = "b502820201810201090001010302090110c0c0c0c0c0c0c0c0c0c0c0c0c0c0c0c00110dddddddddddddddddddddddddddddddd";
const GOLDEN_DERIVED: &str = "b502070006030110000102030405060708090a0b0c0d0e0f020005000402010b000102000502010c0018c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c1c100";

#[test]
fn every_control_message_variant_roundtrips() {
    for msg in all_control_messages() {
        let decoded = ControlMessage::decode(&msg.encode()).expect("valid encoding");
        assert_eq!(decoded, msg);
    }
}

/// Every cluster-plane body variant, including one carrying each control
/// message so the tunnelled encoding is exercised end to end.
fn all_cluster_envelopes() -> Vec<ClusterEnvelope> {
    let mut bodies: Vec<ClusterBody> =
        all_control_messages().into_iter().map(ClusterBody::Control).collect();
    bodies.extend([
        ClusterBody::Grant {
            user: UserId(9),
            key: vec![0x5C; 16],
            leaf_label: KeyLabel(21),
            path_labels: vec![KeyLabel(0), KeyLabel(2), KeyLabel(10)],
        },
        ClusterBody::RekeyGroup { payload: all_rekey_packets()[3].encode() },
        ClusterBody::RekeyUsers {
            users: vec![UserId(3), UserId(4)],
            payload: all_rekey_packets()[0].encode(),
        },
        ClusterBody::Refresh,
        ClusterBody::Shutdown,
        ClusterBody::ShutdownAck { members: 128, wal_tail: 0 },
        ClusterBody::StatsRequest,
        ClusterBody::StatsReport {
            members: 4096,
            intervals: 16,
            requests: 4200,
            encryptions: 90_000,
            pending: 17,
        },
        ClusterBody::Telemetry {
            snapshot: TelemetrySnapshot {
                seq: 5,
                at_us: 777,
                counters: vec![("kg_requests_total{kind=\"join\"}".into(), 12)],
                gauges: vec![("kg_batch_queue_depth".into(), -4)],
                hists: vec![(
                    "kg_span_us{span=\"op.join\"}".into(),
                    HistogramSnapshot {
                        count: 3,
                        sum: 30,
                        min: 5,
                        max: 15,
                        p50: 10,
                        p90: 15,
                        p99: 15,
                    },
                )],
                spans: vec![TraceSpan {
                    trace_id: 9,
                    span_id: 2,
                    parent_span: 1,
                    hop: 1,
                    path: "node.parse".into(),
                    start_us: 4,
                    end_us: 44,
                }],
            },
        },
        ClusterBody::MetricsRequest { format: 1 },
        ClusterBody::MetricsReport { text: "{\"counters\":{}}".into() },
        ClusterBody::TraceRequest { trace_id: 0 },
        ClusterBody::TraceReport {
            trace_id: 9,
            spans: vec![TraceSpan {
                trace_id: 9,
                span_id: 1,
                parent_span: 0,
                hop: 0,
                path: "router.recv".into(),
                start_us: 0,
                end_us: 50,
            }],
        },
    ]);
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| ClusterEnvelope {
            shard: ShardId(i as u16),
            group: GroupId(1000 + i as u32),
            // Alternate traced / untraced so the optional header is
            // exercised against every body shape.
            trace: if i % 2 == 1 {
                Some(TraceContext {
                    trace_id: 100 + i as u64,
                    parent_span: i as u64,
                    hop: (i % 3) as u8,
                })
            } else {
                None
            },
            body,
        })
        .collect()
}

#[test]
fn every_cluster_envelope_variant_roundtrips() {
    for env in all_cluster_envelopes() {
        let bytes = env.encode();
        assert!(ClusterEnvelope::sniff(&bytes));
        assert_eq!(ClusterEnvelope::decode(&bytes).expect("valid encoding"), env);
    }
}

/// [`RekeyView::parse`] accepts exactly what [`RekeyPacket::decode`]
/// accepts, and in place it reads the same packet: every bundle and link
/// comes back out of the datagram, and the body it hands the verifier is
/// the canonical body encoding.
fn view_agrees_with_decode(bytes: &[u8]) {
    let view = RekeyView::parse(bytes);
    let (pkt, body_len) = match RekeyPacket::decode(bytes) {
        Ok(decoded) => decoded,
        Err(e) => return assert_eq!(view, Err(e)),
    };
    let view = view.expect("the view parses what decode accepts");
    assert_eq!(view.body, &bytes[..body_len]);
    assert_eq!(view.body, pkt.encode_body().as_slice());
    assert_eq!(view.code, pkt.code.as_slice());
    assert_eq!(view.links().collect::<Vec<_>>(), pkt.changed);
    assert_eq!(view.bundles().len(), pkt.bundles.len());
    assert_eq!(view.bundles().map(|b| b.to_bundle()).collect::<Vec<_>>(), pkt.bundles);
}

/// Every strict prefix of a valid frame must decode to an error. The
/// encodings are deterministic with no optional trailing fields, so a
/// truncated frame can never be mistaken for a complete one.
#[test]
fn truncation_always_errors_never_panics() {
    for pkt in all_rekey_packets() {
        let bytes = pkt.encode();
        for cut in 0..bytes.len() {
            assert!(RekeyPacket::decode(&bytes[..cut]).is_err(), "cut {cut} of {pkt:?}");
            assert!(RekeyView::parse(&bytes[..cut]).is_err(), "cut {cut} of {pkt:?}");
        }
    }
    for msg in all_control_messages() {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(ControlMessage::decode(&bytes[..cut]).is_err(), "cut {cut} of {msg:?}");
        }
    }
    // Cluster envelopes with trailing-payload bodies may legitimately
    // decode from a prefix; the invariant there is no-misparse instead.
    for env in all_cluster_envelopes() {
        let bytes = env.encode();
        for cut in 0..bytes.len() {
            if let Ok(decoded) = ClusterEnvelope::decode(&bytes[..cut]) {
                assert_eq!(decoded.encode(), &bytes[..cut], "cut {cut} of {env:?}");
            }
        }
    }
}

/// Flipping any single bit of a valid frame must either produce a typed
/// decode error or decode to a message whose canonical re-encoding equals
/// the flipped bytes (a different but well-formed frame, e.g. a changed
/// user id). Silently misparsing — decoding to something that would
/// encode differently — is the failure mode this guards against, and
/// panicking is never acceptable.
#[test]
fn bit_flips_never_misparse_or_panic() {
    for pkt in all_rekey_packets() {
        let bytes = pkt.encode();
        for pos in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[pos / 8] ^= 1 << (pos % 8);
            view_agrees_with_decode(&flipped);
            if let Ok((decoded, _)) = RekeyPacket::decode(&flipped) {
                assert_eq!(decoded.encode(), flipped, "bit {pos} of {pkt:?}");
            }
        }
    }
    for msg in all_control_messages() {
        let bytes = msg.encode();
        for pos in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[pos / 8] ^= 1 << (pos % 8);
            if let Ok(decoded) = ControlMessage::decode(&flipped) {
                assert_eq!(decoded.encode(), flipped, "bit {pos} of {msg:?}");
            }
        }
    }
    for env in all_cluster_envelopes() {
        let bytes = env.encode();
        for pos in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[pos / 8] ^= 1 << (pos % 8);
            if let Ok(decoded) = ClusterEnvelope::decode(&flipped) {
                assert_eq!(decoded.encode(), flipped, "bit {pos} of {env:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fuzz harness
//
// The vendored proptest stand-in seeds its RNG from the test name, so
// every run explores the identical case set — failures reproduce
// exactly, with no corpus files and no network. Structured cases come
// from a small PRNG-driven generator (arbitrary field values with
// deliberate bias toward extremes, arbitrary collection sizes), which
// reaches far more shapes than the fixed 4×4×4 enumeration above.
// ---------------------------------------------------------------------------

/// Tiny xorshift PRNG so a single `u64` proptest input fans out into a
/// whole structured value without needing strategy combinators.
struct Fuzz(u64);

impl Fuzz {
    fn new(seed: u64) -> Self {
        Fuzz(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// A u64 biased toward the boundary values length/offset bugs live at.
    fn value(&mut self) -> u64 {
        match self.below(5) {
            0 => 0,
            1 => u64::MAX,
            2 => u32::MAX as u64,
            _ => self.next(),
        }
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// A printable-ASCII string (metric names / span paths are UTF-8
    /// on the wire; arbitrary bytes there are a typed decode error,
    /// which the garbage fuzz covers separately).
    fn string(&mut self, max_len: usize) -> String {
        let len = self.below(max_len as u64 + 1) as usize;
        (0..len).map(|_| (b' ' + (self.next() % 95) as u8) as char).collect()
    }
}

fn fuzz_key_ref(f: &mut Fuzz) -> KeyRef {
    KeyRef::new(KeyLabel(f.value()), KeyVersion(f.value()))
}

fn fuzz_bundle(f: &mut Fuzz) -> KeyBundle {
    KeyBundle {
        targets: (0..f.below(4)).map(|_| fuzz_key_ref(f)).collect(),
        encrypted_with: fuzz_key_ref(f),
        ciphertext: f.bytes(64),
    }
}

fn fuzz_recipients(f: &mut Fuzz) -> Recipients {
    match f.below(4) {
        0 => Recipients::User(UserId(f.value())),
        1 => Recipients::Subgroup(KeyLabel(f.value())),
        2 => Recipients::SubgroupExcept {
            include: KeyLabel(f.value()),
            exclude: KeyLabel(f.value()),
        },
        _ => Recipients::Group,
    }
}

fn fuzz_auth(f: &mut Fuzz) -> AuthTag {
    match f.below(4) {
        0 => AuthTag::None,
        1 => AuthTag::Digest(f.bytes(32)),
        2 => AuthTag::Signed { signature: f.bytes(96) },
        _ => AuthTag::MerkleSigned {
            root_signature: f.bytes(96),
            path: AuthPath {
                index: f.below(1 << 16) as u32,
                siblings: (0..f.below(5))
                    .map(|_| (if f.below(2) == 0 { Side::Left } else { Side::Right }, f.bytes(32)))
                    .collect(),
            },
        },
    }
}

fn fuzz_rekey_packet(f: &mut Fuzz) -> RekeyPacket {
    RekeyPacket {
        interval: f.value(),
        op: ALL_OPS[f.below(4) as usize],
        timestamp_ms: f.value(),
        recipients: fuzz_recipients(f),
        code: f.bytes(32),
        changed: (0..f.below(8))
            .map(|_| DerivedLink { new_ref: fuzz_key_ref(f), from: fuzz_key_ref(f) })
            .collect(),
        bundles: (0..f.below(8)).map(|_| fuzz_bundle(f)).collect(),
        auth: fuzz_auth(f),
    }
}

fn fuzz_control_message(f: &mut Fuzz) -> ControlMessage {
    match f.below(6) {
        0 => ControlMessage::JoinRequest { user: UserId(f.value()) },
        1 => ControlMessage::JoinGranted {
            user: UserId(f.value()),
            leaf_label: KeyLabel(f.value()),
            path_labels: (0..f.below(6)).map(|_| KeyLabel(f.value())).collect(),
        },
        2 => ControlMessage::JoinDenied { user: UserId(f.value()) },
        3 => ControlMessage::LeaveRequest { user: UserId(f.value()), auth: f.bytes(32) },
        4 => ControlMessage::LeaveGranted { user: UserId(f.value()) },
        _ => ControlMessage::LeaveDenied { user: UserId(f.value()) },
    }
}

fn fuzz_trace_span(f: &mut Fuzz) -> TraceSpan {
    let start = f.value();
    TraceSpan {
        trace_id: f.value(),
        span_id: f.value(),
        parent_span: f.value(),
        hop: f.value() as u8,
        path: f.string(48),
        start_us: start,
        end_us: start.saturating_add(f.below(1 << 20)),
    }
}

fn fuzz_telemetry_snapshot(f: &mut Fuzz) -> TelemetrySnapshot {
    TelemetrySnapshot {
        seq: f.value(),
        at_us: f.value(),
        counters: (0..f.below(6)).map(|_| (f.string(40), f.value())).collect(),
        gauges: (0..f.below(6)).map(|_| (f.string(40), f.value() as i64)).collect(),
        hists: (0..f.below(4))
            .map(|_| {
                (
                    f.string(40),
                    HistogramSnapshot {
                        count: f.value(),
                        sum: f.value(),
                        min: f.value(),
                        max: f.value(),
                        p50: f.value(),
                        p90: f.value(),
                        p99: f.value(),
                    },
                )
            })
            .collect(),
        spans: (0..f.below(5)).map(|_| fuzz_trace_span(f)).collect(),
    }
}

fn fuzz_cluster_envelope(f: &mut Fuzz) -> ClusterEnvelope {
    let body = match f.below(14) {
        0 => ClusterBody::Control(fuzz_control_message(f)),
        1 => ClusterBody::Grant {
            user: UserId(f.value()),
            key: f.bytes(32),
            leaf_label: KeyLabel(f.value()),
            path_labels: (0..f.below(6)).map(|_| KeyLabel(f.value())).collect(),
        },
        2 => ClusterBody::RekeyGroup { payload: f.bytes(128) },
        3 => ClusterBody::RekeyUsers {
            users: (0..f.below(8)).map(|_| UserId(f.value())).collect(),
            payload: f.bytes(128),
        },
        4 => ClusterBody::Refresh,
        5 => ClusterBody::Shutdown,
        6 => ClusterBody::ShutdownAck { members: f.value(), wal_tail: f.value() },
        7 => ClusterBody::StatsRequest,
        8 => ClusterBody::StatsReport {
            members: f.value(),
            intervals: f.value(),
            requests: f.value(),
            encryptions: f.value(),
            pending: f.value(),
        },
        9 => ClusterBody::Telemetry { snapshot: fuzz_telemetry_snapshot(f) },
        10 => ClusterBody::MetricsRequest { format: f.value() as u8 },
        11 => ClusterBody::MetricsReport { text: f.string(200) },
        12 => ClusterBody::TraceRequest { trace_id: f.value() },
        _ => ClusterBody::TraceReport {
            trace_id: f.value(),
            spans: (0..f.below(6)).map(|_| fuzz_trace_span(f)).collect(),
        },
    };
    ClusterEnvelope {
        shard: ShardId(f.value() as u16),
        group: GroupId(f.value() as u32),
        trace: if f.below(2) == 0 {
            None
        } else {
            Some(TraceContext { trace_id: f.value(), parent_span: f.value(), hop: f.value() as u8 })
        },
        body,
    }
}

proptest::proptest! {
    /// Random byte soup never panics any decoder or the in-place rekey
    /// view, and anything that does decode re-encodes to exactly the
    /// input (no silent misparses).
    /// Buffers up to 2 KiB reach the interior length-prefixed fields
    /// that short garbage can't.
    #[test]
    fn random_garbage_never_misparses(data in proptest::collection::vec(0u8.., 0..2048)) {
        view_agrees_with_decode(&data);
        if let Ok((pkt, _)) = RekeyPacket::decode(&data) {
            proptest::prop_assert_eq!(pkt.encode(), data.clone());
            // encode ∘ decode is idempotent: a second trip is a fixed point.
            let (again, _) = RekeyPacket::decode(&pkt.encode()).expect("re-decode");
            proptest::prop_assert_eq!(again, pkt);
        }
        if let Ok(msg) = ControlMessage::decode(&data) {
            proptest::prop_assert_eq!(msg.encode(), data.clone());
            let again = ControlMessage::decode(&msg.encode()).expect("re-decode");
            proptest::prop_assert_eq!(again, msg);
        }
        if let Ok(env) = ClusterEnvelope::decode(&data) {
            proptest::prop_assert_eq!(env.encode(), data);
            let again = ClusterEnvelope::decode(&env.encode()).expect("re-decode");
            proptest::prop_assert_eq!(again, env);
        }
    }

    /// Arbitrary *structured* packets — random field values biased
    /// toward boundary extremes, random collection sizes — round-trip
    /// through encode/decode unchanged, for every message type.
    #[test]
    fn arbitrary_structured_packets_roundtrip(seed in 0u64..) {
        let f = &mut Fuzz::new(seed);

        let pkt = fuzz_rekey_packet(f);
        let bytes = pkt.encode();
        proptest::prop_assert!(RekeyPacket::sniff(&bytes));
        let (decoded, body_len) = RekeyPacket::decode(&bytes).expect("valid rekey encoding");
        proptest::prop_assert_eq!(decoded, pkt.clone());
        proptest::prop_assert_eq!(&bytes[..body_len], pkt.encode_body().as_slice());

        let msg = fuzz_control_message(f);
        let decoded = ControlMessage::decode(&msg.encode()).expect("valid control encoding");
        proptest::prop_assert_eq!(decoded, msg);

        let env = fuzz_cluster_envelope(f);
        let bytes = env.encode();
        proptest::prop_assert!(ClusterEnvelope::sniff(&bytes));
        let decoded = ClusterEnvelope::decode(&bytes).expect("valid cluster encoding");
        proptest::prop_assert_eq!(decoded, env);
    }

    /// The three planes never alias: a rekey packet is not a control
    /// message and does not sniff as a cluster envelope, and neither of
    /// those sniffs (or decodes) as a rekey packet. `ClientFleet::pump`
    /// and the router dispatch on exactly this.
    #[test]
    fn planes_never_alias(seed in 0u64..) {
        let f = &mut Fuzz::new(seed);
        let rekey = fuzz_rekey_packet(f).encode();
        proptest::prop_assert!(ControlMessage::decode(&rekey).is_err());
        proptest::prop_assert!(!ClusterEnvelope::sniff(&rekey));
        proptest::prop_assert!(ClusterEnvelope::decode(&rekey).is_err());
        for other in [fuzz_control_message(f).encode(), fuzz_cluster_envelope(f).encode()] {
            proptest::prop_assert!(!RekeyPacket::sniff(&other));
            proptest::prop_assert!(RekeyPacket::decode(&other).is_err());
        }
    }

    /// Mutations of *valid* frames — spliced garbage windows, random
    /// truncation, appended tails — never panic a decoder (or the
    /// in-place rekey view, which must agree with it) and never
    /// silently misparse: whatever still decodes re-encodes to exactly
    /// the mutated bytes. Seeding from valid frames drives the fuzz
    /// deeper into the decoders than raw garbage can reach.
    #[test]
    fn mutated_valid_frames_never_misparse(seed in 0u64..) {
        let f = &mut Fuzz::new(seed);
        let mut frames = vec![fuzz_rekey_packet(f).encode(), fuzz_control_message(f).encode(),
            fuzz_cluster_envelope(f).encode()];
        for bytes in &mut frames {
            match f.below(3) {
                // Overwrite a random window with garbage.
                0 => {
                    if !bytes.is_empty() {
                        let start = f.below(bytes.len() as u64) as usize;
                        let end = (start + f.below(16) as usize + 1).min(bytes.len());
                        for b in &mut bytes[start..end] {
                            *b = f.next() as u8;
                        }
                    }
                }
                // Truncate at a random point.
                1 => {
                    let cut = f.below(bytes.len() as u64 + 1) as usize;
                    bytes.truncate(cut);
                }
                // Append a random tail.
                _ => {
                    let tail = f.bytes(32);
                    bytes.extend_from_slice(&tail);
                }
            }
        }
        for bytes in &frames {
            view_agrees_with_decode(bytes);
            if let Ok((pkt, _)) = RekeyPacket::decode(bytes) {
                proptest::prop_assert_eq!(pkt.encode(), bytes.clone());
            }
            if let Ok(msg) = ControlMessage::decode(bytes) {
                proptest::prop_assert_eq!(msg.encode(), bytes.clone());
            }
            if let Ok(env) = ClusterEnvelope::decode(bytes) {
                proptest::prop_assert_eq!(env.encode(), bytes.clone());
            }
        }
    }
}
