//! Applying a rekey packet: read in place, checked, staged, committed.
//!
//! Everything here runs on bytes straight off the network, so nothing in
//! it may panic on them.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::{Client, ClientError, ProcessSummary, VerifyPolicy};
use kg_core::ids::{KeyLabel, KeyRef, KeyVersion};
use kg_core::merkle;
use kg_core::rekey::bundle_nonce;
use kg_crypto::rsa::HashAlg;
use kg_crypto::SymmetricKey;
use kg_obs::ObsEvent;
use kg_wire::{AuthTag, BundleView, RekeyView};
use std::time::Instant;

/// Keys a packet delivers, held aside until all of it applied. A member
/// stages at most one key per label on its path, so a short `Vec`
/// searched front to back beats a map.
#[derive(Default)]
struct Staged(Vec<(KeyLabel, (KeyVersion, SymmetricKey))>);

impl Staged {
    fn get(&self, label: KeyLabel) -> Option<&(KeyVersion, SymmetricKey)> {
        self.0.iter().find(|(l, _)| *l == label).map(|(_, held)| held)
    }

    fn insert(&mut self, r: KeyRef, key: SymmetricKey) {
        match self.0.iter_mut().find(|(l, _)| *l == r.label) {
            Some((_, held)) => *held = (r.version, key),
            None => self.0.push((r.label, (r.version, key))),
        }
    }
}

impl Client {
    /// Apply one encoded rekey packet, atomically.
    ///
    /// A packet may carry a derivation code and a work list of
    /// `(new_ref, from)` links (`Strategy::Derived` joins and refreshes):
    /// for every link whose `from` key this client holds (exact label
    /// *and* version — the derivation chains from the committed
    /// pre-interval keyset, never from a key staged this interval), the
    /// replacement is recomputed locally via
    /// [`kg_core::derive::derive_key`]. Its shipped bundles are then
    /// decrypted to a fixed point against the staged view: a bundle may be
    /// decryptable only under a key another bundle (or a derivation) of
    /// this packet delivers, as in a group-oriented leave. Bundles not
    /// addressed to this client are skipped; the packet is read in place
    /// ([`RekeyView`]), so skipping one allocates nothing.
    ///
    /// Application is all-or-nothing: new keys are staged aside and only
    /// merged into the key store once every reachable bundle decrypted
    /// cleanly. A decryption failure, a bad authenticity tag, or a stale
    /// interval (older than one already applied) leaves the keyset and the
    /// rekey counters untouched. An equal interval is accepted — an
    /// operation may span several packets, and a redelivery finds nothing
    /// newer to install.
    pub fn apply(&mut self, bytes: &[u8]) -> Result<ProcessSummary, ClientError> {
        let t0 = self.obs.is_enabled().then(Instant::now);
        let packet = RekeyView::parse(bytes)?;
        self.verify_auth(&packet.auth, packet.body)?;
        if packet.interval < self.last_interval {
            self.stale_rejections.inc();
            self.obs.event(ObsEvent::StaleInterval {
                packet: packet.interval,
                current: self.last_interval,
            });
            return Err(ClientError::StaleInterval {
                packet: packet.interval,
                current: self.last_interval,
            });
        }

        let mut staged = Staged::default();
        let mut summary = ProcessSummary::default();
        let key_len = self.cipher.key_len();

        // Pass 1 — derivation. Links only ever chain from pre-interval
        // keys (a split-created node derives from the displaced member's
        // individual key, not from anything new), so the lookup goes to
        // the committed keyset, not the staged view.
        for link in packet.links() {
            let Some((version, key)) = self.keys.get(&link.from.label) else { continue };
            if *version != link.from.version || !self.is_newer(&staged, link.new_ref) {
                continue;
            }
            let new_key = kg_core::derive::derive_key(
                key,
                packet.code,
                link.new_ref.label,
                link.new_ref.version,
                key_len,
            );
            staged.insert(link.new_ref, new_key);
            summary.keys_installed += 1;
        }

        // Pass 2 — shipped bundles, decrypted to a fixed point against
        // staged ∪ committed. Each bundle is read once; the ones not yet
        // opened are kept for the next round.
        let mut pending: Vec<Option<BundleView<'_>>> = packet.bundles().map(Some).collect();
        loop {
            let mut progress = false;
            for slot in pending.iter_mut() {
                let Some(bundle) = *slot else { continue };
                let with = bundle.encrypted_with;
                let holder = staged.get(with.label).or_else(|| self.keys.get(&with.label));
                let Some((version, key)) = holder else { continue };
                if *version != with.version {
                    continue;
                }
                // The IV is E_K(N) for the nonce of this interval and the
                // bundle's targets, computed only for a bundle this member
                // opens. The plaintext is the new keys themselves: held as
                // a key, it is wiped when dropped.
                let nonce = bundle_nonce(packet.interval, bundle.targets.iter());
                let plain = self
                    .cipher
                    .open(key, &nonce, bundle.ciphertext)
                    .map(SymmetricKey::new)
                    .map_err(|_| ClientError::DecryptFailed(with))?;
                if plain.len() != bundle.targets.len() * key_len {
                    return Err(ClientError::DecryptFailed(with));
                }
                for (target, material) in
                    bundle.targets.iter().zip(plain.material().chunks(key_len))
                {
                    if self.is_newer(&staged, target) {
                        staged.insert(target, SymmetricKey::from_bytes(material));
                        summary.keys_installed += 1;
                    }
                }
                summary.bundles_decrypted += 1;
                *slot = None;
                progress = true;
            }
            if !progress {
                break;
            }
        }

        // Commit: every bundle we could reach decrypted cleanly.
        self.keys.extend(staged.0);
        self.last_interval = packet.interval;
        summary.bundles_skipped = pending.iter().filter(|b| b.is_some()).count() as u64;
        self.stats.rekey_msgs += 1;
        self.stats.rekey_bytes += bytes.len() as u64;
        self.stats.key_changes += summary.keys_installed;
        if let Some(t0) = t0 {
            self.apply_us.record(t0.elapsed().as_micros() as u64);
        }
        Ok(summary)
    }

    /// Whether `r` is newer than what this client holds at `r.label`,
    /// counting keys staged by the packet being applied.
    fn is_newer(&self, staged: &Staged, r: KeyRef) -> bool {
        staged
            .get(r.label)
            .or_else(|| self.keys.get(&r.label))
            .is_none_or(|(held, _)| r.version > *held)
    }

    pub(crate) fn verify_auth(&mut self, auth: &AuthTag, body: &[u8]) -> Result<(), ClientError> {
        match (&self.verify, auth) {
            (VerifyPolicy::Opportunistic, AuthTag::None) => Ok(()),
            (VerifyPolicy::Opportunistic | VerifyPolicy::RequireDigest(_), AuthTag::Digest(d)) => {
                // The digest algorithm is inferred from its length.
                let alg = match d.len() {
                    16 => HashAlg::Md5,
                    20 => HashAlg::Sha1,
                    32 => HashAlg::Sha256,
                    _ => return Err(ClientError::AuthFailed),
                };
                if alg.hash(body) == *d {
                    Ok(())
                } else {
                    Err(ClientError::AuthFailed)
                }
            }
            (VerifyPolicy::RequireDigest(_), AuthTag::None) => Err(ClientError::AuthFailed),
            (VerifyPolicy::RequireSignature { alg, key }, AuthTag::Signed { signature }) => {
                self.stats.verifications += 1;
                key.verify(*alg, body, signature).map_err(|_| ClientError::AuthFailed)
            }
            (
                VerifyPolicy::RequireSignature { alg, key },
                AuthTag::MerkleSigned { root_signature, path },
            ) => {
                self.stats.verifications += 1;
                merkle::verify_message(key, *alg, body, path, root_signature)
                    .map_err(|_| ClientError::AuthFailed)
            }
            (VerifyPolicy::RequireSignature { .. }, _) => Err(ClientError::AuthFailed),
            // Opportunistic accepts signed packets it cannot check (no key).
            (VerifyPolicy::Opportunistic, _) => Ok(()),
            (VerifyPolicy::RequireDigest(_), _) => Ok(()),
        }
    }
}
