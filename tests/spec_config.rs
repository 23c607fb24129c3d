//! The paper-style specification file drives observable server behaviour.
//!
//! §5: "The server is initialized from a specification file which
//! determines the initial group size, the rekeying strategy, the key tree
//! degree, the encryption algorithm, the message digest algorithm, the
//! digital signature algorithm, etc."

use keygraphs::core::ids::UserId;
use keygraphs::server::{AccessControl, GroupKeyServer, ServerConfig};
use keygraphs::wire::{AuthTag, OpKind, RekeyPacket};

fn server_from(spec: &str) -> GroupKeyServer {
    let config = ServerConfig::from_spec(spec).expect("valid spec");
    GroupKeyServer::new(config, AccessControl::AllowAll)
}

#[test]
fn strategy_key_in_spec_changes_message_pattern() {
    let mut group = server_from("strategy = group");
    let mut user = server_from("strategy = user");
    for i in 0..27u64 {
        group.handle_join(UserId(i)).unwrap();
        user.handle_join(UserId(i)).unwrap();
    }
    let g = group.handle_leave(UserId(13)).unwrap();
    let u = user.handle_leave(UserId(13)).unwrap();
    assert_eq!(g.packets.len(), 1, "group-oriented: one multicast per leave");
    assert!(u.packets.len() > 1, "user-oriented: one message per class");
}

#[test]
fn degree_in_spec_changes_tree_shape() {
    let mut d2 = server_from("degree = 2");
    let mut d8 = server_from("degree = 8");
    for i in 0..64u64 {
        d2.handle_join(UserId(i)).unwrap();
        d8.handle_join(UserId(i)).unwrap();
    }
    assert!(d2.tree().height() > d8.tree().height());
    assert_eq!(d2.tree().degree(), 2);
    assert_eq!(d8.tree().degree(), 8);
}

#[test]
fn cipher_in_spec_changes_key_and_ciphertext_sizes() {
    let mut des = server_from("cipher = des-cbc");
    let mut tdes = server_from("cipher = 3des-cbc");
    for i in 0..4u64 {
        des.handle_join(UserId(i)).unwrap();
        tdes.handle_join(UserId(i)).unwrap();
    }
    let d = des.handle_join(UserId(9)).unwrap();
    let t = tdes.handle_join(UserId(9)).unwrap();
    assert_eq!(d.grants[0].individual_key.len(), 8);
    assert_eq!(t.grants[0].individual_key.len(), 24);
    // 3DES bundles carry 24-byte keys → larger ciphertexts.
    let d_bytes: usize = d.encoded.iter().map(|e| e.len()).sum();
    let t_bytes: usize = t.encoded.iter().map(|e| e.len()).sum();
    assert!(t_bytes > d_bytes);
}

#[test]
fn digest_in_spec_changes_tag_length() {
    let mut md5 = server_from("auth = digest\ndigest = md5");
    let mut sha = server_from("auth = digest\ndigest = sha256");
    md5.handle_join(UserId(1)).unwrap();
    sha.handle_join(UserId(1)).unwrap();
    let m = md5.handle_join(UserId(2)).unwrap();
    let s = sha.handle_join(UserId(2)).unwrap();
    let (mp, _) = RekeyPacket::decode(&m.encoded[0]).unwrap();
    let (sp, _) = RekeyPacket::decode(&s.encoded[0]).unwrap();
    match (&mp.auth, &sp.auth) {
        (AuthTag::Digest(a), AuthTag::Digest(b)) => {
            assert_eq!(a.len(), 16);
            assert_eq!(b.len(), 32);
        }
        other => panic!("expected digests, got {other:?}"),
    }
}

#[test]
fn signature_spec_produces_signed_packets() {
    let mut s = server_from("auth = sign-batch\nrsa-bits = 512\nstrategy = key");
    for i in 0..9u64 {
        s.handle_join(UserId(i)).unwrap();
    }
    let op = s.handle_leave(UserId(4)).unwrap();
    assert!(op.packets.len() > 1);
    for p in &op.packets {
        assert!(matches!(p.auth, AuthTag::MerkleSigned { .. }));
    }
    // Signature length matches the spec'd modulus.
    if let AuthTag::MerkleSigned { root_signature, .. } = &op.packets[0].auth {
        assert_eq!(root_signature.len(), 64);
    }
}

#[test]
fn seed_in_spec_makes_runs_reproducible() {
    let run = |spec: &str| {
        let mut s = server_from(spec);
        for i in 0..10u64 {
            s.handle_join(UserId(i)).unwrap();
        }
        s.handle_leave(UserId(5)).unwrap().encoded
    };
    assert_eq!(run("seed = 77"), run("seed = 77"));
    assert_ne!(run("seed = 77"), run("seed = 78"));
}

#[test]
fn op_kind_on_the_wire_matches_request() {
    let mut s = server_from("strategy = group");
    s.handle_join(UserId(1)).unwrap();
    let j = s.handle_join(UserId(2)).unwrap();
    let l = s.handle_leave(UserId(2)).unwrap();
    let (jp, _) = RekeyPacket::decode(&j.encoded[0]).unwrap();
    let (lp, _) = RekeyPacket::decode(&l.encoded[0]).unwrap();
    assert_eq!(jp.op, OpKind::Join);
    assert_eq!(lp.op, OpKind::Leave);
    assert!(lp.interval > jp.interval, "intervals increase");
}
