//! The rekey apply as it was before packets were read in place: decode
//! into an owned [`RekeyPacket`], stage new keys in a `BTreeMap`. Kept as
//! an oracle — [`Client::apply`] must agree with it on every packet,
//! valid, corrupted, truncated, stale or redelivered.

use crate::{Client, ClientError, ProcessSummary};
use kg_core::ids::{KeyLabel, KeyRef, KeyVersion};
use kg_core::rekey::bundle_nonce;
use kg_crypto::SymmetricKey;
use kg_wire::RekeyPacket;
use std::collections::BTreeMap;

type Staged = BTreeMap<KeyLabel, (KeyVersion, SymmetricKey)>;

/// [`Client::apply`], the owned way. The observability hooks are left
/// out; everything the client state and the result show is kept.
fn apply(c: &mut Client, bytes: &[u8]) -> Result<ProcessSummary, ClientError> {
    let (packet, body_len) = RekeyPacket::decode(bytes)?;
    c.verify_auth(&packet.auth, &bytes[..body_len])?;
    if packet.interval < c.last_interval {
        return Err(ClientError::StaleInterval {
            packet: packet.interval,
            current: c.last_interval,
        });
    }

    let mut staged = Staged::new();
    let mut summary = ProcessSummary::default();
    let key_len = c.cipher.key_len();

    for link in &packet.changed {
        let Some((version, key)) = c.keys.get(&link.from.label) else { continue };
        if *version != link.from.version || !is_newer(c, &staged, link.new_ref) {
            continue;
        }
        let new_key = kg_core::derive::derive_key(
            key,
            &packet.code,
            link.new_ref.label,
            link.new_ref.version,
            key_len,
        );
        staged.insert(link.new_ref.label, (link.new_ref.version, new_key));
        summary.keys_installed += 1;
    }

    let mut done = vec![false; packet.bundles.len()];
    loop {
        let mut progress = false;
        for (i, bundle) in packet.bundles.iter().enumerate() {
            if done[i] {
                continue;
            }
            let holder = staged
                .get(&bundle.encrypted_with.label)
                .or_else(|| c.keys.get(&bundle.encrypted_with.label));
            let Some((version, key)) = holder else { continue };
            if *version != bundle.encrypted_with.version {
                continue;
            }
            let nonce = bundle_nonce(packet.interval, bundle.targets.iter().copied());
            let plain = c
                .cipher
                .open(key, &nonce, &bundle.ciphertext)
                .map_err(|_| ClientError::DecryptFailed(bundle.encrypted_with))?;
            if plain.len() != bundle.targets.len() * key_len {
                return Err(ClientError::DecryptFailed(bundle.encrypted_with));
            }
            for (target, material) in bundle.targets.iter().zip(plain.chunks(key_len)) {
                if is_newer(c, &staged, *target) {
                    staged
                        .insert(target.label, (target.version, SymmetricKey::from_bytes(material)));
                    summary.keys_installed += 1;
                }
            }
            summary.bundles_decrypted += 1;
            done[i] = true;
            progress = true;
        }
        if !progress {
            break;
        }
    }

    c.keys.extend(staged);
    c.last_interval = packet.interval;
    summary.bundles_skipped = done.iter().filter(|&&d| !d).count() as u64;
    c.stats.rekey_msgs += 1;
    c.stats.rekey_bytes += bytes.len() as u64;
    c.stats.key_changes += summary.keys_installed;
    Ok(summary)
}

fn is_newer(c: &Client, staged: &Staged, r: KeyRef) -> bool {
    staged.get(&r.label).or_else(|| c.keys.get(&r.label)).is_none_or(|(held, _)| r.version > *held)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerifyPolicy;
    use kg_core::ids::UserId;
    use kg_core::rekey::Strategy;
    use kg_server::{AccessControl, AuthPolicy, GroupKeyServer, ProcessedOp, ServerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// One member simulated twice: by [`Client::apply`] and by the
    /// reference.
    struct Twin {
        new: Client,
        old: Client,
    }

    impl Twin {
        /// Apply `bytes` both ways; the outcomes must be identical.
        /// Returns which outcome it was.
        fn apply(&mut self, bytes: &[u8]) -> &'static str {
            let old = apply(&mut self.old, bytes);
            let new = self.new.apply(bytes);
            assert_eq!(new, old, "{:?}", self.new.user());
            assert_eq!(self.new.keyset(), self.old.keyset());
            assert_eq!(self.new.last_interval(), self.old.last_interval());
            assert_eq!(self.new.stats(), self.old.stats());
            match new {
                Ok(_) => "ok",
                Err(ClientError::Wire(_)) => "wire",
                Err(ClientError::AuthFailed) => "auth",
                Err(ClientError::DecryptFailed(_)) => "decrypt",
                Err(ClientError::StaleInterval { .. }) => "stale",
            }
        }
    }

    /// A corrupted copy of a valid packet: the datagram truncated, one bit
    /// of a bundle's ciphertext flipped, or the interval every IV is
    /// derived from moved by one (a member then derives other IVs).
    fn corrupt(rng: &mut StdRng, bytes: &[u8]) -> Vec<u8> {
        let (mut pkt, _) = RekeyPacket::decode(bytes).expect("server packets decode");
        if rng.gen_bool(0.3) || pkt.bundles.is_empty() {
            return bytes[..rng.gen_range(0..bytes.len())].to_vec();
        }
        if rng.gen_bool(0.3) {
            pkt.interval ^= 1;
            return pkt.encode();
        }
        let i = rng.gen_range(0..pkt.bundles.len());
        let field = &mut pkt.bundles[i].ciphertext;
        let bit = rng.gen_range(0..field.len() * 8);
        field[bit / 8] ^= 1 << (bit % 8);
        pkt.encode()
    }

    /// Run one random schedule of joins, leaves and refreshes under one
    /// configuration, delivering every packet — plus corrupted copies,
    /// duplicates and stale replays — to every live and departed member.
    /// Counts the outcomes into `seen`.
    fn run(
        strategy: Strategy,
        batched: bool,
        auth: AuthPolicy,
        seed: u64,
        seen: &mut BTreeMap<&'static str, u64>,
    ) {
        let mut builder = ServerConfig::builder().strategy(strategy).auth(auth).seed(1);
        if batched {
            builder = builder.batched(10, 1_000);
        }
        let mut server =
            GroupKeyServer::new(builder.build().expect("valid config"), AccessControl::AllowAll);
        let verify = match (server.public_key(), auth) {
            (Some(key), _) => {
                VerifyPolicy::RequireSignature { alg: server.config().digest, key: key.clone() }
            }
            (None, AuthPolicy::Digest) => VerifyPolicy::RequireDigest(server.config().digest),
            (None, _) => VerifyPolicy::Opportunistic,
        };
        let cipher = server.config().cipher;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: BTreeMap<UserId, Twin> = BTreeMap::new();
        let mut departed: Vec<Twin> = Vec::new();
        let mut leaving: BTreeSet<UserId> = BTreeSet::new();
        let mut history: Vec<Vec<u8>> = Vec::new();
        let mut next_user = 0u64;
        let mut now = 0u64;

        let mut deliver = |op: ProcessedOp,
                           rng: &mut StdRng,
                           live: &mut BTreeMap<UserId, Twin>,
                           departed: &mut Vec<Twin>| {
            for u in &op.departed {
                departed.extend(live.remove(u));
            }
            for g in &op.grants {
                let mut c = Client::new(g.user, cipher, verify.clone());
                c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
                live.insert(g.user, Twin { old: c.clone(), new: c });
            }
            for bytes in &op.encoded {
                let mut variants = Vec::new();
                if rng.gen_bool(0.4) {
                    variants.push(corrupt(rng, bytes));
                }
                variants.push(bytes.clone());
                if rng.gen_bool(0.3) {
                    variants.push(bytes.clone());
                }
                if !history.is_empty() && rng.gen_bool(0.3) {
                    variants.push(history[rng.gen_range(0..history.len())].clone());
                }
                for v in &variants {
                    for t in live.values_mut().chain(departed.iter_mut()) {
                        *seen.entry(t.apply(v)).or_default() += 1;
                    }
                }
                history.push(bytes.clone());
            }
        };

        let initial = rng.gen_range(4..9);
        for _ in 0..initial {
            let op = server.handle_join(UserId(next_user)).expect("join");
            next_user += 1;
            deliver(op, &mut rng, &mut live, &mut departed);
        }
        if batched {
            now += 10;
            let op = server.flush(now).expect("flush").expect("seed interval");
            deliver(op, &mut rng, &mut live, &mut departed);
        }
        for _ in 0..rng.gen_range(8..14) {
            let candidates: Vec<UserId> =
                live.keys().filter(|u| !leaving.contains(u)).copied().collect();
            let op = match rng.gen_range(0..5) {
                0 if server.pending_requests() == 0 => server.refresh_group_key(),
                1 | 2 if candidates.len() > 2 => {
                    let u = candidates[rng.gen_range(0..candidates.len())];
                    leaving.insert(u);
                    server.handle_leave(u)
                }
                _ => {
                    next_user += 1;
                    server.handle_join(UserId(next_user))
                }
            }
            .expect("request accepted");
            deliver(op, &mut rng, &mut live, &mut departed);
            if batched && rng.gen_bool(0.5) {
                now += 10;
                if let Some(op) = server.flush(now).expect("flush") {
                    deliver(op, &mut rng, &mut live, &mut departed);
                }
            }
        }
    }

    /// Members of a small unauthenticated group (so hostile bytes reach
    /// decryption, not just the tag check) and the packets they applied.
    fn wiretapped_group(strategy: Strategy) -> (Vec<Twin>, Vec<Vec<u8>>) {
        let config = ServerConfig::builder().strategy(strategy).build().expect("valid config");
        let mut server = GroupKeyServer::new(config, AccessControl::AllowAll);
        let (mut members, mut frames) = (Vec::<Twin>::new(), Vec::new());
        for u in 0..6 {
            let op = server.handle_join(UserId(u)).expect("join");
            let g = &op.grants[0];
            let mut c = Client::new(g.user, server.config().cipher, VerifyPolicy::Opportunistic);
            c.install_grant(g.individual_key.clone(), g.leaf_label, &g.path_labels);
            members.push(Twin { old: c.clone(), new: c });
            frames.extend(op.encoded);
        }
        let op = server.handle_leave(UserId(2)).expect("leave");
        frames.extend(op.encoded);
        for t in &mut members {
            for f in &frames {
                t.apply(f);
            }
        }
        (members, frames)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Random bytes and mutations of real packets — spliced garbage,
        /// bit flips, truncation, appended tails — never panic
        /// [`Client::apply`], and it agrees with the reference on each.
        #[test]
        fn hostile_bytes_never_panic_apply(
            seed in 0u64..,
            data in proptest::collection::vec(0u8.., 0..512),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let strategy = Strategy::ALL[rng.gen_range(0..Strategy::ALL.len())];
            let (mut members, frames) = wiretapped_group(strategy);
            // Garbage behind a valid magic and version gets past the
            // first two checks.
            let framed = [&[kg_wire::REKEY_MAGIC, kg_wire::REKEY_VERSION], data.as_slice()].concat();
            let mut inputs = vec![data, framed];
            for f in &frames {
                let mut m = f.clone();
                match rng.gen_range(0..4) {
                    0 => {
                        let start = rng.gen_range(0..m.len());
                        let end = (start + rng.gen_range(1..17)).min(m.len());
                        m[start..end].iter_mut().for_each(|b| *b = rng.gen());
                    }
                    1 => {
                        let bit = rng.gen_range(0..m.len() * 8);
                        m[bit / 8] ^= 1 << (bit % 8);
                    }
                    2 => m.truncate(rng.gen_range(0..m.len())),
                    _ => m.extend((0..rng.gen_range(1..33)).map(|_| rng.gen::<u8>())),
                }
                inputs.push(m);
            }
            for bytes in &inputs {
                for t in &mut members {
                    t.apply(bytes);
                }
            }
        }

        /// [`Client::apply`] and the owned reference agree — same
        /// `Result`, summary, keyset, interval and counters — on every
        /// packet of random schedules under every strategy, immediate
        /// and batched, unauthenticated, digested and Merkle-signed, with
        /// ciphertext bit flips, moved intervals (so wrongly derived IVs),
        /// truncations, duplicates and stale replays mixed in.
        #[test]
        fn in_place_apply_matches_the_owned_reference(seed in 0u64..) {
            let mut seen = BTreeMap::new();
            for strategy in Strategy::ALL {
                for batched in [false, true] {
                    for auth in [AuthPolicy::None, AuthPolicy::Digest, AuthPolicy::SignBatch] {
                        run(strategy, batched, auth, seed, &mut seen);
                    }
                }
            }
            // Every outcome was exercised, not just the happy path.
            let kinds: Vec<_> = seen.keys().copied().collect();
            proptest::prop_assert_eq!(kinds, ["auth", "decrypt", "ok", "stale", "wire"]);
        }
    }
}
