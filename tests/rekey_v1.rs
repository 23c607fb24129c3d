//! Rekey packets of format version 1 — fixed-width integers and an IV on
//! the wire for every bundle — fail closed under version 2.
//!
//! The two fixtures were written by version-1 code, seed 0xD16E, auth
//! none: `rekey-v1-shipped.bin` is the group-oriented multicast of a leave
//! of u2 after six joins, `rekey-v1-derived.bin` the derived packet of
//! u6's join after six joins. The members here are built by a version-2
//! server fed the same requests, so they hold the keys those packets were
//! sealed under: only the format stands between them and the new keys.

use keygraphs::client::{Client, ClientError, VerifyPolicy};
use keygraphs::core::ids::UserId;
use keygraphs::core::rekey::Strategy;
use keygraphs::server::{AccessControl, AuthPolicy, GroupKeyServer, ProcessedOp, ServerConfig};
use keygraphs::wire::{RekeyView, WireError};

const SHIPPED: &[u8] = include_bytes!("fixtures/rekey-v1-shipped.bin");
const DERIVED: &[u8] = include_bytes!("fixtures/rekey-v1-derived.bin");

/// Six members of a version-2 group with the fixtures' configuration.
fn group(strategy: Strategy) -> (GroupKeyServer, Vec<Client>) {
    let config =
        ServerConfig { auth: AuthPolicy::None, seed: 0xD16E, strategy, ..Default::default() };
    let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
    let mut members: Vec<Client> = Vec::new();
    for u in 0..6 {
        let op = server.handle_join(UserId(u)).expect("join");
        let g = &op.grants[0];
        let mut c = Client::new(g.user, server.config().cipher, VerifyPolicy::Opportunistic);
        c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
        members.push(c);
        deliver(&op, &mut members);
    }
    (server, members)
}

fn deliver(op: &ProcessedOp, members: &mut [Client]) {
    for bytes in &op.encoded {
        for c in members.iter_mut() {
            // A member outside a unicast's class opens nothing in it.
            let _ = c.apply(bytes);
        }
    }
}

/// Every member refuses `v1` with the version error and keeps its keys
/// and interval; the version-2 packet of the same request then applies.
fn refused_then_current(v1: &[u8], current: &ProcessedOp, members: &mut [Client]) {
    for c in members.iter_mut() {
        let (keys, interval) = (c.keyset(), c.last_interval());
        assert_eq!(
            c.apply(v1),
            Err(ClientError::Wire(WireError::BadTag { context: "rekey version", tag: 1 })),
            "{:?}",
            c.user()
        );
        assert_eq!((c.keyset(), c.last_interval()), (keys, interval), "{:?}", c.user());
    }
    let before: Vec<_> = members.iter().map(Client::keyset).collect();
    deliver(current, members);
    let moved = members.iter().zip(&before).filter(|(c, b)| c.keyset() != **b).count();
    assert!(moved > 0, "the version-2 packet of the same request installs keys");
}

#[test]
fn the_parser_refuses_both_version_1_fixtures() {
    for v1 in [SHIPPED, DERIVED] {
        assert_eq!(
            RekeyView::parse(v1),
            Err(WireError::BadTag { context: "rekey version", tag: 1 })
        );
    }
}

#[test]
fn members_refuse_a_version_1_shipped_packet_with_their_keys_unchanged() {
    let (mut server, mut members) = group(Strategy::GroupOriented);
    let op = server.handle_leave(UserId(2)).expect("leave");
    members.remove(2);
    refused_then_current(SHIPPED, &op, &mut members);
}

#[test]
fn members_refuse_a_version_1_derived_packet_with_their_keys_unchanged() {
    let (mut server, mut members) = group(Strategy::Derived);
    let op = server.handle_join(UserId(6)).expect("join");
    refused_then_current(DERIVED, &op, &mut members);
}
