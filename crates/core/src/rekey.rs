//! Rekey message construction — the two protocols and three strategies
//! of Section 3.
//!
//! After an interval of joins and leaves has mutated the key tree
//! ([`crate::batch`]), the server must deliver the new keys to exactly the
//! users entitled to them. The paper has two rules for what a new key may
//! travel under, and this module has one construction for each:
//!
//! * **Join (§3.3), [`Rekeyer::join`]:** the new key under the key it
//!   replaces, `{K'_x}_{K_x}`. Safe only while every holder of the old key
//!   is entitled to the new one: a join, or a group-key refresh.
//! * **Leave (§3.4), [`Rekeyer::batch`]:** the new key under the key of
//!   each child of its node, `{K'_x}_{K_y}`, generalised from one leaving
//!   path to an interval's whole key cover. Serves a single leave and every
//!   batch interval.
//!
//! Either way the paper proposes three ways to package the delivery:
//!
//! * **User-oriented** (§3.3/§3.4): one message per user class, containing
//!   *precisely* the new keys that class needs, all encrypted under one key
//!   the class already holds. Most messages, most server encryptions,
//!   smallest messages per client.
//! * **Key-oriented** (Figures 6 and 8): each new key encrypted
//!   individually under its node's old key (join) or under each surviving
//!   child key (leave); ciphertexts are *stored and reused* across the
//!   per-subgroup messages, which is what brings the leave cost down from
//!   `(d−1)h(h−1)/2` to `d(h−1)` encryptions.
//! * **Group-oriented** (Figures 7 and 9): one rekey message carrying all
//!   new keys, multicast to the whole group; each client picks out what it
//!   can decrypt. Fewest messages and fewest server encryptions, but the
//!   biggest message on every client's wire.
//!
//! Plans are *materialized*: each [`KeyBundle`] carries a real ciphertext
//! produced by the configured cipher (DES-CBC in the paper), and an
//! [`OpCounts`] tally is returned so tests can check the Table 2 formulas
//! against reality.
//!
//! A bundle's CBC IV is not drawn and not sent: it is E_K(N), the
//! encrypted nonce of NIST SP 800-38A, Appendix C, where K is the key the
//! bundle is sealed under and N the [`bundle_nonce`] of the operation's
//! interval and the bundle's targets. A member recomputes N from the
//! packet it received. Within one operation each key seals at most one
//! distinct target list (a stored ciphertext resent is the same bundle),
//! and every operation has its own interval, so N never repeats under one
//! key.

use crate::batch::BatchEvent;
use crate::ids::{KeyLabel, KeyRef, UserId};
use kg_crypto::cbc::CbcCipher;
use kg_crypto::des::{Des, TripleDes};
use kg_crypto::md5::Md5;
use kg_crypto::{BlockCipher, CryptoError, Digest, SymmetricKey};
use std::collections::BTreeMap;

/// The rekeying strategies: the paper's three *shipped* strategies plus
/// the client-*derived* extension (see [`crate::derive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One tailored message per user class (§3.3 "user-oriented").
    UserOriented,
    /// Per-key ciphertexts with reuse (Figures 6/8).
    KeyOriented,
    /// One message for the whole group (Figures 7/9).
    GroupOriented,
    /// Client-derived rekeying: joins and refreshes publish a derivation
    /// code and members recompute changed keys locally
    /// ([`crate::derive::derive_key`]); leaves fall back to the shipped
    /// group-oriented construction (forward secrecy — see `DESIGN.md` §4g).
    Derived,
}

impl Strategy {
    /// The paper's three shipped strategies (Table 2 sweeps). The derived
    /// extension is deliberately excluded: these sweeps validate the
    /// paper's cost model, which derived rekeying side-steps.
    pub const ALL: [Strategy; 3] =
        [Strategy::UserOriented, Strategy::KeyOriented, Strategy::GroupOriented];

    /// Every strategy including [`Strategy::Derived`], for sweeps that
    /// compare shipped vs derived costs.
    pub const EVERY: [Strategy; 4] =
        [Strategy::UserOriented, Strategy::KeyOriented, Strategy::GroupOriented, Strategy::Derived];

    /// Short name used in reports and spec files ("user" / "key" /
    /// "group", as in the paper's tables, plus "derived").
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::UserOriented => "user",
            Strategy::KeyOriented => "key",
            Strategy::GroupOriented => "group",
            Strategy::Derived => "derived",
        }
    }

    /// The strategy rekey *messages* are constructed under: derived mode
    /// ships its leave (and mixed-batch) traffic group-oriented.
    pub fn shipped_fallback(self) -> Strategy {
        match self {
            Strategy::Derived => Strategy::GroupOriented,
            other => other,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "user" | "user-oriented" => Ok(Strategy::UserOriented),
            "key" | "key-oriented" => Ok(Strategy::KeyOriented),
            "group" | "group-oriented" => Ok(Strategy::GroupOriented),
            "derived" | "client-derived" => Ok(Strategy::Derived),
            other => Err(format!("unknown strategy {other:?}")),
        }
    }
}

/// Whom a rekey message is addressed to. The server resolves these against
/// the key tree when sending (subgroup multicast in the paper; the
/// simulated network does the same).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipients {
    /// A single user (unicast).
    User(UserId),
    /// Every user holding the key at this label.
    Subgroup(KeyLabel),
    /// Users holding `include`'s key but not `exclude`'s — the
    /// `userset(K_i) − userset(K_{i+1})` sets of the join protocols.
    SubgroupExcept {
        /// Users must hold this key…
        include: KeyLabel,
        /// …and must not hold this one.
        exclude: KeyLabel,
    },
    /// The entire group.
    Group,
}

/// One ciphertext inside a rekey message: `targets` new keys (in order)
/// encrypted under `encrypted_with`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyBundle {
    /// References of the new keys inside the ciphertext, in plaintext order.
    pub targets: Vec<KeyRef>,
    /// Reference of the key the bundle is encrypted under.
    pub encrypted_with: KeyRef,
    /// The ciphertext (length = padded concatenation of target keys),
    /// under the IV [`KeyCipher::seal`] derives from the
    /// [`bundle_nonce`].
    pub ciphertext: Vec<u8>,
}

/// Bytes in a bundle nonce: one cipher block (DES and 3DES alike).
pub const NONCE_LEN: usize = 8;

const _: () = assert!(Des::BLOCK_SIZE == NONCE_LEN && TripleDes::BLOCK_SIZE == NONCE_LEN);

/// N, the nonce a bundle's IV is encrypted from: the first cipher block of
/// MD5(interval ‖ (label ‖ version) per target), each field a big-endian
/// `u64`. The sealer and a member compute it from the same public fields; it
/// allocates nothing.
pub fn bundle_nonce(interval: u64, targets: impl IntoIterator<Item = KeyRef>) -> [u8; NONCE_LEN] {
    let mut h = Md5::new();
    h.update(&interval.to_be_bytes());
    for t in targets {
        h.update(&t.label.0.to_be_bytes());
        h.update(&t.version.0.to_be_bytes());
    }
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&h.finish()[..NONCE_LEN]);
    nonce
}

/// A rekey message: recipients plus one or more key bundles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RekeyMessage {
    /// Delivery scope.
    pub recipients: Recipients,
    /// Encrypted new keys.
    pub bundles: Vec<KeyBundle>,
}

impl RekeyMessage {
    /// Total number of encrypted keys carried (for cost accounting).
    pub fn key_count(&self) -> usize {
        self.bundles.iter().map(|b| b.targets.len()).sum()
    }
}

/// Cryptographic operation counts for one rekey operation, in the units of
/// the paper's cost model: `key_encryptions` counts *keys encrypted*, so a
/// bundle packing three keys into one ciphertext costs three.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Keys encrypted by the server.
    pub key_encryptions: u64,
    /// Fresh keys generated.
    pub keys_generated: u64,
    /// Stored ciphertexts sent again in a later message of the same
    /// operation (no IV drawn, no ciphertext produced, not counted in
    /// `key_encryptions`): the stored-ciphertext reuse of Figures 6/8,
    /// which only the key-oriented constructions make.
    pub cache_hits: u64,
    /// Ciphertexts sealed: the number of distinct ciphertexts the
    /// operation produced.
    pub cache_misses: u64,
}

/// Output of a rekey operation: the messages to send and the cost tally.
#[derive(Debug, Clone, Default)]
pub struct RekeyOutput {
    /// Messages to deliver (the joiner's unicast, when present, is the one
    /// with `Recipients::User`).
    pub messages: Vec<RekeyMessage>,
    /// Server-side operation counts.
    pub ops: OpCounts,
}

/// Key-encryption engine used to materialize bundles.
///
/// The paper's prototype used DES-CBC; [`KeyCipher::des_cbc`] is the
/// default. The trait-object-free enum keeps the hot path monomorphic
/// while still letting the benchmark harness ablate the cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCipher {
    /// DES in CBC mode (the paper's configuration).
    DesCbc,
    /// Triple-DES EDE3 in CBC mode (ablation option).
    TripleDesCbc,
}

impl std::fmt::Display for KeyCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for KeyCipher {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "des-cbc" => Ok(KeyCipher::DesCbc),
            "3des-cbc" => Ok(KeyCipher::TripleDesCbc),
            other => Err(format!("unknown cipher: {other:?}")),
        }
    }
}

impl KeyCipher {
    /// The paper's configuration.
    pub fn des_cbc() -> Self {
        KeyCipher::DesCbc
    }

    /// Stable spec-file name for this cipher (the string
    /// [`KeyCipher::from_str`] accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            KeyCipher::DesCbc => "des-cbc",
            KeyCipher::TripleDesCbc => "3des-cbc",
        }
    }

    /// Bytes of key material each encryption key must supply.
    pub fn key_len(self) -> usize {
        match self {
            KeyCipher::DesCbc => Des::KEY_SIZE,
            KeyCipher::TripleDesCbc => TripleDes::KEY_SIZE,
        }
    }

    /// Cipher block size (8 for both DES variants).
    pub fn block_len(self) -> usize {
        match self {
            KeyCipher::DesCbc => Des::BLOCK_SIZE,
            KeyCipher::TripleDesCbc => TripleDes::BLOCK_SIZE,
        }
    }

    /// Ciphertext size for a plaintext of `plain` bytes.
    pub fn ciphertext_len(self, plain: usize) -> usize {
        (plain / self.block_len() + 1) * self.block_len()
    }

    /// Encrypt `plaintext` under `key` with the given IV.
    pub fn encrypt(self, key: &SymmetricKey, iv: &[u8], plaintext: &[u8]) -> Vec<u8> {
        match self {
            KeyCipher::DesCbc => {
                let c = CbcCipher::new(Des::new(key.material()).expect("checked key length"));
                c.encrypt(plaintext, iv)
            }
            KeyCipher::TripleDesCbc => {
                let c = CbcCipher::new(TripleDes::new(key.material()).expect("checked key length"));
                c.encrypt(plaintext, iv)
            }
        }
    }

    /// Decrypt a bundle ciphertext.
    pub fn decrypt(
        self,
        key: &SymmetricKey,
        iv: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        match self {
            KeyCipher::DesCbc => {
                let c = CbcCipher::new(Des::new(key.material())?);
                c.decrypt(ciphertext, iv)
            }
            KeyCipher::TripleDesCbc => {
                let c = CbcCipher::new(TripleDes::new(key.material())?);
                c.decrypt(ciphertext, iv)
            }
        }
    }

    /// Encrypt a bundle's `plaintext` under `key` with IV = E_K(`nonce`),
    /// one key schedule for both.
    pub fn seal(self, key: &SymmetricKey, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        fn seal<C: BlockCipher>(c: C, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
            let mut iv = *nonce;
            c.encrypt_block(&mut iv);
            CbcCipher::new(c).encrypt(plaintext, &iv)
        }
        match self {
            KeyCipher::DesCbc => {
                seal(Des::new(key.material()).expect("checked key length"), nonce, plaintext)
            }
            KeyCipher::TripleDesCbc => {
                seal(TripleDes::new(key.material()).expect("checked key length"), nonce, plaintext)
            }
        }
    }

    /// Decrypt what [`seal`](Self::seal) produced under `key` for `nonce`.
    /// A wrong key, nonce or ciphertext shows as bad padding, nearly
    /// always.
    pub fn open(
        self,
        key: &SymmetricKey,
        nonce: &[u8; NONCE_LEN],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        fn open<C: BlockCipher>(
            c: C,
            nonce: &[u8; NONCE_LEN],
            ciphertext: &[u8],
        ) -> Result<Vec<u8>, CryptoError> {
            let mut iv = *nonce;
            c.encrypt_block(&mut iv);
            CbcCipher::new(c).decrypt(ciphertext, &iv)
        }
        match self {
            KeyCipher::DesCbc => open(Des::new(key.material())?, nonce, ciphertext),
            KeyCipher::TripleDesCbc => open(TripleDes::new(key.material())?, nonce, ciphertext),
        }
    }
}

/// The paper's join protocol (§3.3, Figures 6 and 7): each new key
/// `K'_i` encrypted under the key it replaces, `K_i`, which exactly the
/// node's previous holders have. The event must be one whose replaced keys
/// form a single chain x_0 … x_j from the root and in which nobody left —
/// a single join, or a group-key refresh (the root alone, no joiner: every
/// strategy then sends the one message `{K'_0}_{K_0}` to the group).
/// A first join into an empty group is the joiner's unicast alone
/// (Figure 2): nobody held the old root key.
///
/// The users holding old `K_i` but not `K_{i+1}` form one recipient class,
/// `userset(x_i) − userset(y)` where `y` is x_i's one child on the chain:
/// x_{i+1}, or below x_j the joiner's leaf. Under [`Strategy::Derived`]
/// current members recompute the chain from the published code
/// ([`crate::derive::derive_key`]), so only the joiner's unicast is sealed:
/// one seal regardless of tree height, and `keys_generated` counts 0.
///
/// Seal order is deterministic: per-path bundles root-first, then the
/// joiner unicast last.
///
/// # Panics
/// Panics when the event has a departure (a key a departed member holds
/// must never protect a new one) or is not a single chain.
fn build_join(sealer: &Rekeyer, ev: &BatchEvent, strategy: Strategy) -> RekeyOutput {
    // Servers pass only a join's or a refresh's event, which marks one
    // chain; no datagram picks the construction.
    assert!(ev.departed.is_empty(), "old keys may not protect new ones after a leave");
    assert!(ev.joins.len() <= 1, "the join protocol serves one joiner");
    let mut ops = OpCounts { keys_generated: ev.marked.len() as u64, ..OpCounts::default() };
    // Root-first: x_0 … x_j; none when the group was empty.
    let nobody_held =
        (ev.marked.first()).is_some_and(|root| root.children.iter().all(|c| c.joiner.is_some()));
    let path = if nobody_held { &ev.marked[..0] } else { &ev.marked[..] };
    let mut messages = Vec::new();
    // x_i's previous holders that are not below its child on the chain.
    let class = |i: usize| {
        let next = path.get(i + 1).map(|p| p.label);
        let mut on_chain = path[i].children.iter().filter(|c| c.marked || c.joiner.is_some());
        let below = on_chain.next().map(|c| c.label);
        // One chain by construction (see above).
        assert!(
            on_chain.next().is_none() && (next.is_none() || next == below),
            "replaced keys do not form a single chain"
        );
        match below {
            Some(exclude) => Recipients::SubgroupExcept { include: path[i].label, exclude },
            None => Recipients::Group, // a refresh: everyone holds the old root key
        }
    };
    // {K'_l}_{K_l}.
    let single = |ops: &mut OpCounts, l: usize| {
        let t = [(path[l].new_ref, &path[l].new_key)];
        sealer.seal(ops, path[l].old_ref, &path[l].old_key, &t)
    };

    match strategy {
        Strategy::UserOriented => {
            // Class i gets {K'_0 … K'_i} under old K_i.
            for i in 0..path.len() {
                let targets: Vec<(KeyRef, &SymmetricKey)> =
                    path[..=i].iter().map(|p| (p.new_ref, &p.new_key)).collect();
                let b = sealer.seal(&mut ops, path[i].old_ref, &path[i].old_key, &targets);
                messages.push(RekeyMessage { recipients: class(i), bundles: vec![b] });
            }
        }
        Strategy::KeyOriented => {
            // Each new key encrypted once under its old key and stored;
            // message i carries {K'_0}_{K_0} … {K'_i}_{K_i}, the i stored
            // ones resent (Figure 6's combined form). Sealed in path order.
            let mut stored = Vec::with_capacity(path.len());
            for i in 0..path.len() {
                stored.push(single(&mut ops, i));
                ops.cache_hits += i as u64;
                messages.push(RekeyMessage { recipients: class(i), bundles: stored.clone() });
            }
        }
        Strategy::GroupOriented => {
            // One multicast with every {K'_i}_{K_i}.
            if !path.is_empty() {
                let bundles = (0..path.len()).map(|l| single(&mut ops, l)).collect();
                messages.push(RekeyMessage { recipients: Recipients::Group, bundles });
            }
        }
        Strategy::Derived => ops.keys_generated = 0,
    }

    unicast_joiners(sealer, &mut ops, ev, &mut messages);
    RekeyOutput { messages, ops }
}

/// What every construction does for a joiner, last and in event order: its
/// full new path, root-first, in one unicast under its individual key.
fn unicast_joiners(
    sealer: &Rekeyer,
    ops: &mut OpCounts,
    ev: &BatchEvent,
    messages: &mut Vec<RekeyMessage>,
) {
    for j in &ev.joins {
        let targets: Vec<(KeyRef, &SymmetricKey)> = j.path.iter().map(|(r, k)| (*r, k)).collect();
        let b = sealer.seal(ops, j.leaf_ref, &j.leaf_key, &targets);
        messages.push(RekeyMessage { recipients: Recipients::User(j.user), bundles: vec![b] });
    }
}

/// Construct one batch interval's consolidated rekey messages: the natural
/// batched generalization of the paper's leave protocol. For every marked
/// node `x` and every child `y` that is not a freshly joined leaf, the new
/// key `K'_x` is distributed encrypted under `y`'s post-batch key (`y`'s
/// *new* key when `y` is itself marked — clients resolve the resulting
/// decryption order with their usual fixed-point pass).
///
/// Every current member learns exactly the new keys on its path;
/// departed members can decrypt none of them (each ciphertext is keyed
/// by a surviving child's key); joiners learn only post-batch keys, via
/// their unicast.
///
/// Seal order follows [`BatchEvent::key_cover`]: marked nodes root-first
/// (BFS), children in the recorded child order. For the key-oriented
/// strategy the marked-child chain ciphertexts are sealed first in that
/// cover order and stored; the per-subgroup messages then resend them.
/// Joiner unicasts come last, in event order.
fn build_batch(sealer: &Rekeyer, ev: &BatchEvent, strategy: Strategy) -> RekeyOutput {
    let mut ops = OpCounts { keys_generated: ev.marked.len() as u64, ..OpCounts::default() };
    let mut messages = Vec::new();
    if ev.marked.is_empty() {
        // Group emptied: nothing to distribute.
        return RekeyOutput { messages, ops };
    }

    // Parent links among marked nodes, from the children lists:
    // `parent_of[y] = x` iff marked y is a child of marked x. Walking
    // parent_of from any marked node reaches the root (index 0).
    let by_label: BTreeMap<KeyLabel, usize> =
        ev.marked.iter().enumerate().map(|(i, m)| (m.label, i)).collect();
    let mut parent_of: BTreeMap<KeyLabel, KeyLabel> = BTreeMap::new();
    for m in &ev.marked {
        for c in &m.children {
            if c.marked {
                parent_of.insert(c.label, m.label);
            }
        }
    }

    match strategy {
        Strategy::GroupOriented => {
            // One multicast carrying {K'_x}_{K_y} for every marked x
            // and every non-joiner child y (new K_y when y is marked).
            let mut bundles = Vec::new();
            for (m, c) in ev.key_cover() {
                if c.joiner.is_none() {
                    bundles.push(sealer.seal(
                        &mut ops,
                        c.key_ref,
                        &c.key,
                        &[(m.new_ref, &m.new_key)],
                    ));
                }
            }
            // None when every child is a joiner (into an empty group).
            if !bundles.is_empty() {
                messages.push(RekeyMessage { recipients: Recipients::Group, bundles });
            }
        }
        Strategy::KeyOriented => {
            // Seal each chain ciphertext {K'_x}_{K'_y} (marked child y of
            // marked x) once, in cover order, and store it by y's label:
            // the batched analogue of Figure 8's stored ciphertexts.
            let mut links: BTreeMap<KeyLabel, KeyBundle> = BTreeMap::new();
            for (m, c) in ev.key_cover().filter(|(_, c)| c.marked) {
                links.insert(
                    c.label,
                    sealer.seal(&mut ops, c.key_ref, &c.key, &[(m.new_ref, &m.new_key)]),
                );
            }
            // For each unmarked, non-joiner child y of marked x:
            // M = {K'_x}_{K_y}, then the stored {K'_p(x)}_{K'_x}, … up to
            // the root.
            for (m, c) in ev.key_cover() {
                if c.marked || c.joiner.is_some() {
                    continue;
                }
                let mut bundles =
                    vec![sealer.seal(&mut ops, c.key_ref, &c.key, &[(m.new_ref, &m.new_key)])];
                let mut cur = m.label;
                while let Some(link) = links.get(&cur) {
                    ops.cache_hits += 1;
                    bundles.push(link.clone());
                    cur = parent_of[&cur];
                }
                messages.push(RekeyMessage { recipients: Recipients::Subgroup(c.label), bundles });
            }
        }
        Strategy::Derived => {
            // Client-derived interval: the event must come from a
            // leave-free `NewKeyMode::Derived` interval, whose marked
            // keys every current member recomputes locally from the
            // published derivation code. Nothing is shipped to them —
            // the server's keys came from the KDF, not the generator —
            // so only the joiner unicasts below are sealed. Intervals
            // containing leaves use `Strategy::shipped_fallback()`
            // instead (forward secrecy: departed members could run the
            // public derivation too).
            ops.keys_generated = 0;
        }
        Strategy::UserOriented => {
            // For each unmarked, non-joiner child y of marked x: one
            // tailored message carrying every new key on x's path to
            // the root in a single bundle under K_y — smallest
            // per-client payload, most server encryptions.
            for (m, c) in ev.key_cover() {
                if c.marked || c.joiner.is_some() {
                    continue;
                }
                let mut targets: Vec<(KeyRef, &SymmetricKey)> = Vec::new();
                let mut cur = Some(m.label);
                while let Some(label) = cur {
                    let node = &ev.marked[by_label[&label]];
                    targets.push((node.new_ref, &node.new_key));
                    cur = parent_of.get(&label).copied();
                }
                let b = sealer.seal(&mut ops, c.key_ref, &c.key, &targets);
                messages.push(RekeyMessage {
                    recipients: Recipients::Subgroup(c.label),
                    bundles: vec![b],
                });
            }
        }
    }

    unicast_joiners(sealer, &mut ops, ev, &mut messages);
    RekeyOutput { messages, ops }
}

/// Context for materializing one operation's rekey messages: the cipher
/// and the operation's interval, the number its packets carry (a server's
/// `seq + 1`), from which every bundle's IV is derived.
///
/// It remembers nothing it sealed. The paper's stored-ciphertext reuse
/// (Figures 6 and 8) is written in the two constructions that send one
/// ciphertext in several messages, the key-oriented join and batch: each
/// keeps the [`KeyBundle`] it sealed and clones it into the later
/// messages, counting one `cache_hits` per clone. Construction order is
/// deterministic (see [`crate::batch::BatchEvent::key_cover`]), so every
/// output byte is a function of the event and the interval alone.
#[derive(Debug, Clone, Copy)]
pub struct Rekeyer {
    cipher: KeyCipher,
    interval: u64,
}

impl Rekeyer {
    /// Create a rekeyer for the operation numbered `interval`.
    pub fn new(cipher: KeyCipher, interval: u64) -> Self {
        Rekeyer { cipher, interval }
    }

    /// The cipher in use.
    pub fn cipher(&self) -> KeyCipher {
        self.cipher
    }

    /// The paper's join protocol (§3.3) under `strategy`: every new key
    /// encrypted under the key it replaces. For the event of a single join
    /// or of a group-key refresh; under [`Strategy::Derived`] only the
    /// joiner's unicast is sealed.
    ///
    /// # Panics
    /// Panics when somebody left in the event's interval, or its replaced
    /// keys are not a single chain from the root.
    pub fn join(&self, ev: &BatchEvent, strategy: Strategy) -> RekeyOutput {
        build_join(self, ev, strategy)
    }

    /// The paper's leave protocol (§3.4) generalised to any interval, under
    /// `strategy`: every new key encrypted under each child's
    /// post-interval key. Serves a single leave and every batch interval;
    /// returns an empty output when the group became empty.
    pub fn batch(&self, ev: &BatchEvent, strategy: Strategy) -> RekeyOutput {
        build_batch(self, ev, strategy)
    }

    /// `targets` sealed under `encrypting_key` with the IV derived from the
    /// interval and the targets ([`bundle_nonce`], [`KeyCipher::seal`]),
    /// counted into `ops`. The concatenated plaintext lives in one buffer
    /// of exact capacity, so it is never reallocated, and it is wiped when
    /// the seal returns.
    fn seal(
        &self,
        ops: &mut OpCounts,
        encrypting_ref: KeyRef,
        encrypting_key: &SymmetricKey,
        targets: &[(KeyRef, &SymmetricKey)],
    ) -> KeyBundle {
        ops.cache_misses += 1;
        ops.key_encryptions += targets.len() as u64;
        let mut plain = Vec::with_capacity(targets.iter().map(|(_, k)| k.len()).sum());
        for (_, key) in targets {
            plain.extend_from_slice(key.material());
        }
        let plain = SymmetricKey::new(plain);
        let nonce = bundle_nonce(self.interval, targets.iter().map(|(r, _)| *r));
        KeyBundle {
            targets: targets.iter().map(|(r, _)| *r).collect(),
            encrypted_with: encrypting_ref,
            ciphertext: self.cipher.seal(encrypting_key, &nonce, plain.material()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::KeyTree;
    use kg_crypto::drbg::HmacDrbg;
    use kg_crypto::KeySource;

    /// What a member does with a bundle of the operation numbered
    /// `interval`: recompute its nonce from the interval and the targets,
    /// and open it.
    fn open(
        cipher: KeyCipher,
        key: &SymmetricKey,
        interval: u64,
        b: &KeyBundle,
    ) -> Result<Vec<u8>, CryptoError> {
        cipher.open(key, &bundle_nonce(interval, b.targets.iter().copied()), &b.ciphertext)
    }

    /// Build the Figure 5 tree: degree 3, users u1..u8 (then u9 joins).
    fn figure5_tree() -> (KeyTree, HmacDrbg) {
        let mut src = HmacDrbg::from_seed(55);
        let mut tree = KeyTree::new(3, 8, &mut src);
        for i in 1..=8 {
            let ik = src.generate_key(8);
            tree.join(UserId(i), ik, &mut src).unwrap();
        }
        (tree, src)
    }

    fn h(tree: &KeyTree) -> usize {
        tree.height()
    }

    #[test]
    fn join_message_counts_match_paper() {
        // Figure 5 join: user-oriented → h msgs (incl. joiner), key-oriented
        // → h msgs, group-oriented → 2 msgs.
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(9), ik, &mut src).unwrap();
        let height = h(&tree);
        assert_eq!(height, 3);
        for (strategy, expected_msgs) in [
            (Strategy::UserOriented, height), // h−1 classes + joiner
            (Strategy::KeyOriented, height),  // same recipient classes
            (Strategy::GroupOriented, 2),     // one multicast + joiner
        ] {
            let interval = 1;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.join(&ev, strategy);
            assert_eq!(out.messages.len(), expected_msgs, "strategy {strategy:?}");
        }
    }

    #[test]
    fn join_encryption_costs_match_table2() {
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(9), ik, &mut src).unwrap();
        let height = h(&tree) as u64; // 3
        let cases = [
            // user-oriented: h(h+1)/2 − 1
            (Strategy::UserOriented, height * (height + 1) / 2 - 1),
            // key-oriented and group-oriented: 2(h−1)
            (Strategy::KeyOriented, 2 * (height - 1)),
            (Strategy::GroupOriented, 2 * (height - 1)),
        ];
        for (strategy, expected) in cases {
            let interval = 2;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.join(&ev, strategy);
            assert_eq!(out.ops.key_encryptions, expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn leave_message_counts_match_paper() {
        // Figure 5 leave of u9 from the 9-user tree: (d−1)(h−1) messages for
        // user/key-oriented, 1 for group-oriented.
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        tree.join(UserId(9), ik, &mut src).unwrap();
        let d = tree.degree() as u64;
        let height = h(&tree) as u64;
        let ev = tree.leave(UserId(9), &mut src).unwrap();
        for (strategy, expected) in [
            (Strategy::UserOriented, ((d - 1) * (height - 1)) as usize),
            (Strategy::KeyOriented, ((d - 1) * (height - 1)) as usize),
            (Strategy::GroupOriented, 1),
        ] {
            let interval = 3;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.batch(&ev, strategy);
            assert_eq!(out.messages.len(), expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn leave_encryption_costs_match_table2() {
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        tree.join(UserId(9), ik, &mut src).unwrap();
        let d = tree.degree() as u64;
        let height = h(&tree) as u64;
        let ev = tree.leave(UserId(9), &mut src).unwrap();
        // The paper's own Figure 5 example: key-oriented sends
        // {k1-8}k123, {k1-8}k456, {k1-8}k78, {k78}k7, {k78}k8 — five
        // encryptions. Table 2's d(h−1) rounds the leaving level up to d
        // children; the exact count on a full tree is (d−1) + d(h−2).
        let exact_key_group = (d - 1) + d * (height - 2);
        for (strategy, expected) in [
            // user-oriented: (d−1)·h(h−1)/2 (exact here: every level has
            // d−1 unchanged children).
            (Strategy::UserOriented, (d - 1) * height * (height - 1) / 2),
            (Strategy::KeyOriented, exact_key_group),
            (Strategy::GroupOriented, exact_key_group),
        ] {
            let interval = 4;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.batch(&ev, strategy);
            assert_eq!(out.ops.key_encryptions, expected, "strategy {strategy:?}");
        }
    }

    /// The reuse accounting: hits are the stored ciphertexts resent, as in
    /// Figures 6/8 (key-oriented chains), misses are the distinct
    /// ciphertexts, and hits never consume IVs or encryptions.
    #[test]
    fn cache_accounting_matches_stored_ciphertext_reuse() {
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        tree.join(UserId(9), ik, &mut src).unwrap();
        let ev = tree.leave(UserId(9), &mut src).unwrap();

        let interval = 17;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let out = rk.batch(&ev, Strategy::KeyOriented);
        // Key-oriented leave re-sends the chain links {K'_{l}}K'_{l+1}
        // in every message below their level: an unchanged child at level
        // i repeats i links, each a stored ciphertext resent.
        let expected_hits: u64 = (ev.marked.iter().enumerate())
            .map(|(i, m)| (m.children.iter().filter(|c| !c.marked).count() * i) as u64)
            .sum();
        assert!(expected_hits > 0, "figure-5 tree must have reusable chain links");
        assert_eq!(out.ops.cache_hits, expected_hits);
        let distinct: std::collections::BTreeSet<Vec<u8>> = out
            .messages
            .iter()
            .flat_map(|m| m.bundles.iter().map(|b| b.ciphertext.clone()))
            .collect();
        assert_eq!(distinct.len() as u64, out.ops.cache_misses);
        assert_eq!(out.ops.key_encryptions, out.ops.cache_misses); // all bundles single-target
                                                                   // Group-oriented packs everything once: no repeats possible.
        let interval = 17;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let out = rk.batch(&ev, Strategy::GroupOriented);
        assert_eq!(out.ops.cache_hits, 0);
    }

    #[test]
    fn joiner_always_gets_full_path() {
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(9), ik.clone(), &mut src).unwrap();
        for strategy in Strategy::ALL {
            let interval = 5;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.join(&ev, strategy);
            let joiner_msg = out
                .messages
                .iter()
                .find(|m| m.recipients == Recipients::User(UserId(9)))
                .expect("joiner unicast");
            assert_eq!(joiner_msg.key_count(), ev.marked.len());
            // The joiner can decrypt it with its individual key.
            let bundle = &joiner_msg.bundles[0];
            assert_eq!(bundle.encrypted_with, ev.joins[0].leaf_ref);
            let plain = open(KeyCipher::des_cbc(), &ik, interval, bundle).unwrap();
            assert_eq!(plain.len(), ev.marked.len() * 8);
            // Each 8-byte slice is the corresponding new key.
            for (i, p) in ev.marked.iter().enumerate() {
                assert_eq!(&plain[i * 8..(i + 1) * 8], p.new_key.material());
            }
        }
    }

    #[test]
    fn bundles_decrypt_under_declared_keys() {
        let (mut tree, mut src) = figure5_tree();
        // Capture old keys before the leave.
        let ik9 = src.generate_key(8);
        tree.join(UserId(9), ik9, &mut src).unwrap();
        let ev = tree.leave(UserId(9), &mut src).unwrap();
        // key-oriented: the head bundle of each message decrypts under an
        // unchanged child's key, yielding that level's new key.
        let interval = 6;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let out = rk.batch(&ev, Strategy::KeyOriented);
        let mut checked = 0;
        for msg in &out.messages {
            let head = &msg.bundles[0];
            for (_, child) in ev.key_cover().filter(|(_, c)| !c.marked) {
                if child.key_ref == head.encrypted_with {
                    let plain = open(KeyCipher::des_cbc(), &child.key, interval, head).unwrap();
                    let target = head.targets[0];
                    let p = ev.marked.iter().find(|p| p.new_ref == target).unwrap();
                    assert_eq!(plain, p.new_key.material());
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn group_oriented_leave_single_message_size_grows_with_d() {
        // Paper: the leave rekey message is about d times bigger than the
        // join one. Check the key-count ratio on a full tree.
        let mut src = HmacDrbg::from_seed(7);
        let mut tree = KeyTree::new(4, 8, &mut src);
        for i in 0..64 {
            let ik = src.generate_key(8);
            tree.join(UserId(i), ik, &mut src).unwrap();
        }
        let ik = src.generate_key(8);
        let jev = tree.join(UserId(100), ik, &mut src).unwrap();
        let interval = 8;
        let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
        let join_keys = rk.join(&jev, Strategy::GroupOriented).messages[0].key_count();
        let lev = tree.leave(UserId(100), &mut src).unwrap();
        let leave_keys = rk.batch(&lev, Strategy::GroupOriented).messages[0].key_count();
        assert!(
            leave_keys >= 3 * join_keys,
            "leave msg ({leave_keys} keys) should dwarf join msg ({join_keys} keys) at d=4"
        );
    }

    #[test]
    fn empty_group_leave_produces_no_messages() {
        let mut src = HmacDrbg::from_seed(9);
        let mut tree = KeyTree::new(4, 8, &mut src);
        let ik = src.generate_key(8);
        tree.join(UserId(1), ik, &mut src).unwrap();
        let ev = tree.leave(UserId(1), &mut src).unwrap();
        for strategy in Strategy::ALL {
            let interval = 10;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.batch(&ev, strategy);
            assert!(out.messages.is_empty(), "strategy {strategy:?}");
            assert_eq!(out.ops.key_encryptions, 0);
        }
    }

    #[test]
    fn refresh_message_decrypts_under_old_group_key() {
        let (mut tree, mut src) = figure5_tree();
        let (_, old_key) = tree.group_key();
        let ev = tree.refresh_group_key(&mut src);
        let path = &ev.marked[0];
        // Only the root changes, so every strategy sends the same message.
        for strategy in Strategy::ALL {
            let interval = 13;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.join(&ev, strategy);
            assert_eq!(out.messages.len(), 1);
            assert_eq!(out.ops.key_encryptions, 1);
            assert_eq!(out.ops.keys_generated, 1);
            let msg = &out.messages[0];
            assert_eq!(msg.recipients, Recipients::Group);
            let b = &msg.bundles[0];
            assert_eq!(b.encrypted_with, path.old_ref);
            assert_eq!(b.targets, vec![path.new_ref]);
            let plain = open(KeyCipher::des_cbc(), &old_key, interval, b).unwrap();
            assert_eq!(plain, tree.group_key().1.material());
        }
        // Derived: the group recomputes the root; nothing is sealed.
        let interval = 13;
        let out = Rekeyer::new(KeyCipher::des_cbc(), interval).join(&ev, Strategy::Derived);
        assert!(out.messages.is_empty());
        assert_eq!(out.ops, OpCounts::default());
    }

    #[test]
    fn derived_join_seals_only_the_joiner_unicast() {
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        let ev = tree.join(UserId(9), ik, &mut src).unwrap();
        let interval = 14;
        let out = Rekeyer::new(KeyCipher::des_cbc(), interval).join(&ev, Strategy::Derived);
        assert_eq!(out.messages.len(), 1);
        assert_eq!(out.messages[0].recipients, Recipients::User(UserId(9)));
        assert_eq!(out.ops.cache_misses, 1, "one seal regardless of tree height");
        assert_eq!(out.ops.key_encryptions, ev.marked.len() as u64);
        assert_eq!(out.ops.keys_generated, 0);
    }

    /// Encrypting a new key under the key it replaces is only safe while
    /// every holder of the old key is entitled to the new one.
    #[test]
    #[should_panic(expected = "after a leave")]
    fn join_construction_refuses_an_event_with_a_departure() {
        let (mut tree, mut src) = figure5_tree();
        let ev = tree.leave(UserId(3), &mut src).unwrap();
        let interval = 15;
        Rekeyer::new(KeyCipher::des_cbc(), interval).join(&ev, Strategy::GroupOriented);
    }

    /// The IV the sealer used is the one a member recomputes: E_K(N) for
    /// the nonce of the interval and the bundle's targets, under the key
    /// the bundle names. Decrypting with that IV through the explicit-IV
    /// CBC path returns the sealed keys; a neighbouring interval's IV does
    /// not.
    #[test]
    fn the_sealers_iv_is_the_one_a_member_recomputes() {
        let (mut tree, mut src) = figure5_tree();
        let ik = src.generate_key(8);
        tree.join(UserId(9), ik, &mut src).unwrap();
        let held: BTreeMap<KeyRef, SymmetricKey> =
            tree.members().flat_map(|u| tree.keyset(u).unwrap()).collect();
        let ev = tree.leave(UserId(9), &mut src).unwrap();
        let interval = 41;
        let out = Rekeyer::new(KeyCipher::des_cbc(), interval).batch(&ev, Strategy::GroupOriented);
        let mut opened = 0;
        for b in out.messages.iter().flat_map(|m| &m.bundles) {
            let Some(key) = held.get(&b.encrypted_with) else { continue };
            let iv = |interval| {
                let mut iv = bundle_nonce(interval, b.targets.iter().copied());
                Des::new(key.material()).unwrap().encrypt_block(&mut iv);
                iv
            };
            let target = ev.marked.iter().find(|m| m.new_ref == b.targets[0]).unwrap();
            let plain = KeyCipher::des_cbc().decrypt(key, &iv(interval), &b.ciphertext).unwrap();
            assert_eq!(plain, target.new_key.material());
            assert_eq!(open(KeyCipher::des_cbc(), key, interval, b).unwrap(), plain);
            let elsewhere = KeyCipher::des_cbc().decrypt(key, &iv(interval + 1), &b.ciphertext);
            assert_ne!(elsewhere.ok(), Some(plain));
            opened += 1;
        }
        assert!(opened > 0, "some bundle is sealed under a key held before the leave");
    }

    #[test]
    fn bundle_nonces_separate_intervals_and_target_lists() {
        let r = |l, v| KeyRef::new(KeyLabel(l), crate::ids::KeyVersion(v));
        let n = |interval, targets: &[KeyRef]| bundle_nonce(interval, targets.iter().copied());
        assert_eq!(n(5, &[r(1, 2)]), n(5, &[r(1, 2)]));
        assert_ne!(n(5, &[r(1, 2)]), n(6, &[r(1, 2)]));
        assert_ne!(n(5, &[r(1, 2)]), n(5, &[r(1, 3)]));
        assert_ne!(n(5, &[r(1, 2)]), n(5, &[r(2, 2)]));
        assert_ne!(n(5, &[r(1, 2)]), n(5, &[r(1, 2), r(0, 4)]));
        // The digest of the big-endian fields, first block.
        let mut input = 5u64.to_be_bytes().to_vec();
        input.extend_from_slice(&1u64.to_be_bytes());
        input.extend_from_slice(&2u64.to_be_bytes());
        assert_eq!(n(5, &[r(1, 2)]), Md5::oneshot(&input)[..NONCE_LEN]);
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!("user".parse::<Strategy>().unwrap(), Strategy::UserOriented);
        assert_eq!("key-oriented".parse::<Strategy>().unwrap(), Strategy::KeyOriented);
        assert_eq!("group".parse::<Strategy>().unwrap(), Strategy::GroupOriented);
        assert!("bogus".parse::<Strategy>().is_err());
        assert_eq!(Strategy::GroupOriented.as_str(), "group");
    }

    #[test]
    fn triple_des_cipher_works_end_to_end() {
        let mut src = HmacDrbg::from_seed(11);
        let mut tree = KeyTree::new(4, 24, &mut src);
        for i in 0..5 {
            let ik = src.generate_key(24);
            tree.join(UserId(i), ik, &mut src).unwrap();
        }
        let ik = src.generate_key(24);
        let ev = tree.join(UserId(9), ik.clone(), &mut src).unwrap();
        let interval = 12;
        let rk = Rekeyer::new(KeyCipher::TripleDesCbc, interval);
        let out = rk.join(&ev, Strategy::GroupOriented);
        let joiner_msg =
            out.messages.iter().find(|m| matches!(m.recipients, Recipients::User(_))).unwrap();
        let b = &joiner_msg.bundles[0];
        let plain = open(KeyCipher::TripleDesCbc, &ik, interval, b).unwrap();
        assert_eq!(plain.len(), ev.marked.len() * 24);
    }

    /// Batch-interval construction ([`Rekeyer::batch`]).
    mod batch {
        use super::*;
        use crate::ids::KeyVersion;
        use std::collections::BTreeMap as Map;

        fn setup(degree: usize, n: u64) -> (KeyTree, HmacDrbg) {
            let mut src = HmacDrbg::from_seed(0xBEE5);
            let mut tree = KeyTree::new(degree, 8, &mut src);
            for i in 0..n {
                let ik = src.generate_key(8);
                tree.join(UserId(i), ik, &mut src).unwrap();
            }
            (tree, src)
        }

        /// A minimal client model: a key store driven to fixed point over the
        /// interval's messages, mirroring what `kg-client` does on the wire.
        struct MiniClient {
            keys: Map<KeyLabel, (KeyVersion, SymmetricKey)>,
        }

        impl MiniClient {
            fn from_keyset(ks: Vec<(KeyRef, SymmetricKey)>) -> Self {
                MiniClient {
                    keys: ks.into_iter().map(|(r, k)| (r.label, (r.version, k))).collect(),
                }
            }

            fn holds(&self, r: KeyRef) -> Option<&SymmetricKey> {
                self.keys.get(&r.label).and_then(|(v, k)| (*v == r.version).then_some(k))
            }

            /// Decrypt every reachable bundle until no progress.
            fn absorb(&mut self, cipher: KeyCipher, interval: u64, messages: &[&RekeyMessage]) {
                loop {
                    let mut progressed = false;
                    for msg in messages {
                        for b in &msg.bundles {
                            let Some(key) = self.holds(b.encrypted_with) else { continue };
                            let plain = open(cipher, key, interval, b).unwrap();
                            for (i, t) in b.targets.iter().enumerate() {
                                let material = plain[i * 8..(i + 1) * 8].to_vec();
                                let cur = self.keys.get(&t.label);
                                if cur.is_none_or(|(v, _)| *v < t.version) {
                                    self.keys
                                        .insert(t.label, (t.version, SymmetricKey::new(material)));
                                    progressed = true;
                                }
                            }
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            }
        }

        /// Deliverability check for one batch under one strategy: survivors
        /// recover exactly their new keysets, departed users recover none of
        /// the new keys, joiners recover exactly their unicast path.
        fn check_batch(
            tree: &KeyTree,
            degree_note: &str,
            joins: &[(UserId, SymmetricKey)],
            leaves: &[UserId],
            strategy: Strategy,
            src: &mut HmacDrbg,
        ) {
            let mut tree = tree.clone();
            let pre_keysets: Map<UserId, Vec<(KeyRef, SymmetricKey)>> =
                tree.members().map(|u| (u, tree.keyset(u).unwrap())).collect();
            let ev = tree.apply_batch(joins, leaves, src).unwrap();
            let interval = 0x1117;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.batch(&ev, strategy);
            let joiner_set: std::collections::BTreeSet<UserId> =
                joins.iter().map(|&(u, _)| u).collect();

            // Map each user to the messages addressed to it (post-batch tree).
            let deliverable = |u: UserId, include_multicast: bool| -> Vec<&RekeyMessage> {
                out.messages
                    .iter()
                    .filter(|m| match &m.recipients {
                        Recipients::User(t) => *t == u,
                        Recipients::Subgroup(l) => {
                            include_multicast && tree.userset(*l).contains(&u)
                        }
                        Recipients::SubgroupExcept { include, exclude } => {
                            include_multicast
                                && tree.userset(*include).contains(&u)
                                && !tree.userset(*exclude).contains(&u)
                        }
                        Recipients::Group => include_multicast,
                    })
                    .collect()
            };

            // Survivors (and joiners) end up with exactly their new keysets.
            for u in tree.members().collect::<Vec<_>>() {
                let mut client = if joiner_set.contains(&u) {
                    MiniClient { keys: Map::new() }
                } else {
                    MiniClient::from_keyset(pre_keysets[&u].clone())
                };
                if let Some((_, ik)) = joins.iter().find(|&&(ju, _)| ju == u) {
                    let leaf = tree.keyset(u).unwrap()[0].clone();
                    client.keys.insert(leaf.0.label, (leaf.0.version, ik.clone()));
                }
                client.absorb(KeyCipher::des_cbc(), interval, &deliverable(u, true));
                for (r, k) in tree.keyset(u).unwrap() {
                    assert_eq!(
                        client.holds(r),
                        Some(&k),
                        "{degree_note} {strategy:?}: member {u:?} missing {r:?}"
                    );
                }
            }

            // Departed users, replaying *all* multicast traffic with their old
            // keys, must recover no marked key.
            for &u in leaves {
                if tree.is_member(u) {
                    continue; // left and rejoined in the same interval
                }
                let mut ghost = MiniClient::from_keyset(pre_keysets[&u].clone());
                let all: Vec<&RekeyMessage> = out.messages.iter().collect();
                ghost.absorb(KeyCipher::des_cbc(), interval, &all);
                for m in &ev.marked {
                    assert!(
                        ghost.holds(m.new_ref).is_none(),
                        "{degree_note} {strategy:?}: departed {u:?} decrypted {:?}",
                        m.new_ref
                    );
                }
            }
        }

        #[test]
        fn pure_join_batches_deliver_for_all_strategies() {
            for degree in [2usize, 3, 4] {
                let (tree, mut src) = setup(degree, 14);
                let joins: Vec<(UserId, SymmetricKey)> =
                    (100..106).map(|i| (UserId(i), src.generate_key(8))).collect();
                for strategy in Strategy::ALL {
                    check_batch(&tree, "pure-join", &joins, &[], strategy, &mut src);
                }
            }
        }

        #[test]
        fn pure_leave_batches_deliver_for_all_strategies() {
            for degree in [2usize, 3, 4] {
                let (tree, mut src) = setup(degree, 27);
                let leaves: Vec<UserId> = [1u64, 7, 13, 25].map(UserId).to_vec();
                for strategy in Strategy::ALL {
                    check_batch(&tree, "pure-leave", &[], &leaves, strategy, &mut src);
                }
            }
        }

        #[test]
        fn mixed_batches_deliver_for_all_strategies() {
            for degree in [2usize, 3, 4] {
                let (tree, mut src) = setup(degree, 20);
                let joins: Vec<(UserId, SymmetricKey)> =
                    (200..205).map(|i| (UserId(i), src.generate_key(8))).collect();
                let leaves: Vec<UserId> = [0u64, 4, 9, 19].map(UserId).to_vec();
                for strategy in Strategy::ALL {
                    check_batch(&tree, "mixed", &joins, &leaves, strategy, &mut src);
                }
            }
        }

        #[test]
        fn rejoin_within_interval_delivers() {
            let (tree, mut src) = setup(3, 9);
            let joins = vec![(UserId(4), src.generate_key(8))];
            let leaves = vec![UserId(4)];
            for strategy in Strategy::ALL {
                check_batch(&tree, "rejoin", &joins, &leaves, strategy, &mut src);
            }
        }

        #[test]
        fn empty_event_produces_no_messages() {
            let (mut tree, mut src) = setup(3, 4);
            let leaves: Vec<UserId> = (0..4).map(UserId).collect();
            let ev = tree.apply_batch(&[], &leaves, &mut src).unwrap();
            for strategy in Strategy::ALL {
                let interval = 1;
                let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
                let out = rk.batch(&ev, strategy);
                assert!(out.messages.is_empty());
                assert_eq!(out.ops.key_encryptions, 0);
            }
        }

        #[test]
        fn group_oriented_sends_exactly_one_multicast() {
            let (tree, mut src) = setup(4, 64);
            let mut t = tree.clone();
            let joins: Vec<(UserId, SymmetricKey)> =
                (100..104).map(|i| (UserId(i), src.generate_key(8))).collect();
            let leaves: Vec<UserId> = [3u64, 30, 60].map(UserId).to_vec();
            let ev = t.apply_batch(&joins, &leaves, &mut src).unwrap();
            let interval = 2;
            let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
            let out = rk.batch(&ev, Strategy::GroupOriented);
            let multicasts = out
                .messages
                .iter()
                .filter(|m| !matches!(m.recipients, Recipients::User(_)))
                .count();
            assert_eq!(multicasts, 1);
            let unicasts = out.messages.len() - multicasts;
            assert_eq!(unicasts, joins.len());
        }

        #[test]
        fn batched_costs_less_than_per_op_for_mixed_interval() {
            // The headline claim: one batched interval beats replaying the
            // same requests one at a time, in both encryptions and multicasts.
            let (tree, mut src) = setup(4, 256);
            let joins: Vec<(UserId, SymmetricKey)> =
                (1000..1016).map(|i| (UserId(i), src.generate_key(8))).collect();
            let leaves: Vec<UserId> = (0..16).map(|i| UserId(i * 13)).collect();
            for strategy in Strategy::ALL {
                let mut per_op_tree = tree.clone();
                let mut per_op_enc = 0u64;
                let mut per_op_multi = 0usize;
                let interval = 3;
                for &u in &leaves {
                    let ev = per_op_tree.leave(u, &mut src).unwrap();
                    let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
                    let out = rk.batch(&ev, strategy);
                    per_op_enc += out.ops.key_encryptions;
                    per_op_multi += out
                        .messages
                        .iter()
                        .filter(|m| !matches!(m.recipients, Recipients::User(_)))
                        .count();
                }
                for (u, ik) in &joins {
                    let ev = per_op_tree.join(*u, ik.clone(), &mut src).unwrap();
                    let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
                    let out = rk.join(&ev, strategy);
                    per_op_enc += out.ops.key_encryptions;
                    per_op_multi += out
                        .messages
                        .iter()
                        .filter(|m| !matches!(m.recipients, Recipients::User(_)))
                        .count();
                }

                let mut batch_tree = tree.clone();
                let ev = batch_tree.apply_batch(&joins, &leaves, &mut src).unwrap();
                let interval = 4;
                let rk = Rekeyer::new(KeyCipher::des_cbc(), interval);
                let out = rk.batch(&ev, strategy);
                let batch_multi = out
                    .messages
                    .iter()
                    .filter(|m| !matches!(m.recipients, Recipients::User(_)))
                    .count();
                assert!(
                    out.ops.key_encryptions < per_op_enc,
                    "{strategy:?}: batched {} vs per-op {per_op_enc} encryptions",
                    out.ops.key_encryptions
                );
                assert!(
                    batch_multi < per_op_multi,
                    "{strategy:?}: batched {batch_multi} vs per-op {per_op_multi} multicasts"
                );
            }
        }
    }
}

/// The parent design, kept as a test oracle: a sealer with a
/// per-operation bundle cache keyed by (encrypting ref, target refs,
/// plaintext key bytes), which the constructions re-request to reuse a
/// ciphertext. The cacheless constructions above must give an equal
/// [`RekeyOutput`].
#[cfg(test)]
mod reference {
    use super::{bundle_nonce, BatchEvent, KeyLabel, KeyRef, Strategy, SymmetricKey};
    use super::{KeyBundle, KeyCipher, OpCounts, Recipients, RekeyMessage, RekeyOutput};
    use std::collections::BTreeMap;

    /// [`super::Rekeyer::join`] as the parent built it.
    pub(super) fn join(
        cipher: KeyCipher,
        interval: u64,
        ev: &BatchEvent,
        strategy: Strategy,
    ) -> RekeyOutput {
        build_join(&mut Sealer::new(cipher, interval), ev, strategy)
    }

    /// [`super::Rekeyer::batch`] as the parent built it.
    pub(super) fn batch(
        cipher: KeyCipher,
        interval: u64,
        ev: &BatchEvent,
        strategy: Strategy,
    ) -> RekeyOutput {
        build_batch(&mut Sealer::new(cipher, interval), ev, strategy)
    }

    /// Per-operation encryption cache, keyed by `(encrypting key ref, target
    /// refs, payload bytes)`. The encrypting ref includes the key *version*,
    /// so a key change is an automatic invalidation. Its scope is one rekey
    /// operation (one join/leave/refresh, or one whole batch interval), so
    /// overlapping key-covers within an interval never seal the same
    /// (encrypting-key, payload) pair twice.
    type BundleCache = BTreeMap<(KeyRef, Vec<KeyRef>, Vec<u8>), KeyBundle>;

    /// Produces the ciphertext bundles of one rekey operation.
    ///
    /// The construction functions below describe *which* bundles an operation
    /// needs and in *what order*; the sealer encrypts.
    ///
    /// * Requesting the same `(encrypting_ref, targets, payload)` triple twice
    ///   within one sealer's lifetime returns the *same* bundle without
    ///   re-encrypting, and counts a cache hit instead of new
    ///   `key_encryptions`. Constructions rely on this for the paper's
    ///   stored-ciphertext reuse (Figures 6/8).
    /// * A first-time request encrypts under the IV derived from the
    ///   interval and the targets.
    struct Sealer {
        cipher: KeyCipher,
        interval: u64,
        cache: BundleCache,
    }

    impl Sealer {
        fn new(cipher: KeyCipher, interval: u64) -> Self {
            Sealer { cipher, interval, cache: BundleCache::new() }
        }

        /// The bundle carrying `targets` sealed under `encrypting_key`,
        /// counting the work performed (or the cache hit) into `ops`.
        fn bundle(
            &mut self,
            ops: &mut OpCounts,
            encrypting_ref: KeyRef,
            encrypting_key: &SymmetricKey,
            targets: &[(KeyRef, &SymmetricKey)],
        ) -> KeyBundle {
            use std::collections::btree_map::Entry;
            let mut payload = Vec::with_capacity(targets.len() * 8);
            for (_, key) in targets {
                payload.extend_from_slice(key.material());
            }
            let target_refs: Vec<KeyRef> = targets.iter().map(|(r, _)| *r).collect();
            match self.cache.entry((encrypting_ref, target_refs, payload)) {
                Entry::Occupied(e) => {
                    ops.cache_hits += 1;
                    e.get().clone()
                }
                Entry::Vacant(e) => {
                    ops.cache_misses += 1;
                    ops.key_encryptions += targets.len() as u64;
                    let (_, target_refs, plain) = e.key();
                    let nonce = bundle_nonce(self.interval, target_refs.iter().copied());
                    let ciphertext = self.cipher.seal(encrypting_key, &nonce, plain);
                    let bundle = KeyBundle {
                        targets: target_refs.clone(),
                        encrypted_with: encrypting_ref,
                        ciphertext,
                    };
                    e.insert(bundle).clone()
                }
            }
        }
    }

    /// The paper's join protocol (§3.3, Figures 6 and 7): each new key
    /// `K'_i` encrypted under the key it replaces, `K_i`, which exactly the
    /// node's previous holders have. The event must be one whose replaced keys
    /// form a single chain x_0 … x_j from the root and in which nobody left —
    /// a single join, or a group-key refresh (the root alone, no joiner: every
    /// strategy then sends the one message `{K'_0}_{K_0}` to the group).
    ///
    /// The users holding old `K_i` but not `K_{i+1}` form one recipient class,
    /// `userset(x_i) − userset(y)` where `y` is x_i's one child on the chain:
    /// x_{i+1}, or below x_j the joiner's leaf. Under [`Strategy::Derived`]
    /// current members recompute the chain from the published code
    /// ([`crate::derive::derive_key`]), so only the joiner's unicast is sealed:
    /// one seal regardless of tree height, and `keys_generated` counts 0.
    ///
    /// Bundle-request order is deterministic: per-path bundles root-first,
    /// then the joiner unicast last.
    ///
    /// # Panics
    /// Panics when the event has a departure (a key a departed member holds
    /// must never protect a new one) or is not a single chain.
    fn build_join(sealer: &mut Sealer, ev: &BatchEvent, strategy: Strategy) -> RekeyOutput {
        assert!(ev.departed.is_empty(), "old keys may not protect new ones after a leave");
        assert!(ev.joins.len() <= 1, "the join protocol serves one joiner");
        let mut ops = OpCounts { keys_generated: ev.marked.len() as u64, ..OpCounts::default() };
        // Root-first: x_0 … x_j; empty when nobody held the old root key.
        let nobody_held = (ev.marked.first())
            .is_some_and(|root| root.children.iter().all(|c| c.joiner.is_some()));
        let path = if nobody_held { &ev.marked[..0] } else { &ev.marked[..] };
        let mut messages = Vec::new();
        // x_i's previous holders that are not below its child on the chain.
        let class = |i: usize| {
            let next = path.get(i + 1).map(|p| p.label);
            let mut on_chain = path[i].children.iter().filter(|c| c.marked || c.joiner.is_some());
            let below = on_chain.next().map(|c| c.label);
            assert!(
                on_chain.next().is_none() && (next.is_none() || next == below),
                "replaced keys do not form a single chain"
            );
            match below {
                Some(exclude) => Recipients::SubgroupExcept { include: path[i].label, exclude },
                None => Recipients::Group, // a refresh: everyone holds the old root key
            }
        };
        // {K'_l}_{K_l}; requested again, it is the stored ciphertext.
        let single = |sealer: &mut Sealer, ops: &mut OpCounts, l: usize| {
            let t = [(path[l].new_ref, &path[l].new_key)];
            sealer.bundle(ops, path[l].old_ref, &path[l].old_key, &t)
        };

        match strategy {
            Strategy::UserOriented => {
                // Class i gets {K'_0 … K'_i} under old K_i.
                for i in 0..path.len() {
                    let targets: Vec<(KeyRef, &SymmetricKey)> =
                        path[..=i].iter().map(|p| (p.new_ref, &p.new_key)).collect();
                    let b = sealer.bundle(&mut ops, path[i].old_ref, &path[i].old_key, &targets);
                    messages.push(RekeyMessage { recipients: class(i), bundles: vec![b] });
                }
            }
            Strategy::KeyOriented => {
                // Each new key encrypted once under its old key; the
                // ciphertexts are shared across the per-class messages
                // (Figure 6's combined form). Message i carries
                // {K'_0}_{K_0} … {K'_i}_{K_i}; repeats are cache hits, so
                // single l draws its IV at first occurrence — path order.
                for i in 0..path.len() {
                    let bundles = (0..=i).map(|l| single(sealer, &mut ops, l)).collect();
                    messages.push(RekeyMessage { recipients: class(i), bundles });
                }
            }
            Strategy::GroupOriented => {
                // One multicast with every {K'_i}_{K_i}.
                if !path.is_empty() {
                    let bundles = (0..path.len()).map(|l| single(sealer, &mut ops, l)).collect();
                    messages.push(RekeyMessage { recipients: Recipients::Group, bundles });
                }
            }
            Strategy::Derived => ops.keys_generated = 0,
        }

        unicast_joiners(sealer, &mut ops, ev, &mut messages);
        RekeyOutput { messages, ops }
    }

    /// What every construction does for a joiner, last and in event order: its
    /// full new path, root-first, in one unicast under its individual key.
    fn unicast_joiners(
        sealer: &mut Sealer,
        ops: &mut OpCounts,
        ev: &BatchEvent,
        messages: &mut Vec<RekeyMessage>,
    ) {
        for j in &ev.joins {
            let targets: Vec<(KeyRef, &SymmetricKey)> =
                j.path.iter().map(|(r, k)| (*r, k)).collect();
            let b = sealer.bundle(ops, j.leaf_ref, &j.leaf_key, &targets);
            messages.push(RekeyMessage { recipients: Recipients::User(j.user), bundles: vec![b] });
        }
    }

    /// Construct one batch interval's consolidated rekey messages: the natural
    /// batched generalization of the paper's leave protocol. For every marked
    /// node `x` and every child `y` that is not a freshly joined leaf, the new
    /// key `K'_x` is distributed encrypted under `y`'s post-batch key (`y`'s
    /// *new* key when `y` is itself marked — clients resolve the resulting
    /// decryption order with their usual fixed-point pass).
    ///
    /// Every current member learns exactly the new keys on its path;
    /// departed members can decrypt none of them (each ciphertext is keyed
    /// by a surviving child's key); joiners learn only post-batch keys, via
    /// their unicast.
    ///
    /// Bundle-request order follows [`BatchEvent::key_cover`]: marked nodes
    /// root-first (BFS), children in the recorded child order. For the
    /// key-oriented strategy the marked-child chain ciphertexts are sealed
    /// first in that cover order (once, as the stored-ciphertext
    /// optimization requires); the per-subgroup messages
    /// then re-request them as cache hits. Joiner unicasts come last, in
    /// event order.
    fn build_batch(sealer: &mut Sealer, ev: &BatchEvent, strategy: Strategy) -> RekeyOutput {
        let mut ops = OpCounts { keys_generated: ev.marked.len() as u64, ..OpCounts::default() };
        let mut messages = Vec::new();
        if ev.marked.is_empty() {
            // Group emptied: nothing to distribute.
            return RekeyOutput { messages, ops };
        }

        // Parent links among marked nodes, from the children lists:
        // `parent_of[y] = x` iff marked y is a child of marked x. Walking
        // parent_of from any marked node reaches the root (index 0).
        let by_label: BTreeMap<KeyLabel, usize> =
            ev.marked.iter().enumerate().map(|(i, m)| (m.label, i)).collect();
        let mut parent_of: BTreeMap<KeyLabel, KeyLabel> = BTreeMap::new();
        for m in &ev.marked {
            for c in &m.children {
                if c.marked {
                    parent_of.insert(c.label, m.label);
                }
            }
        }

        match strategy {
            Strategy::GroupOriented => {
                // One multicast carrying {K'_x}_{K_y} for every marked x
                // and every non-joiner child y (new K_y when y is marked).
                let mut bundles = Vec::new();
                for (m, c) in ev.key_cover() {
                    if c.joiner.is_none() {
                        bundles.push(sealer.bundle(
                            &mut ops,
                            c.key_ref,
                            &c.key,
                            &[(m.new_ref, &m.new_key)],
                        ));
                    }
                }
                if !bundles.is_empty() {
                    messages.push(RekeyMessage { recipients: Recipients::Group, bundles });
                }
            }
            Strategy::KeyOriented => {
                // Seal the chain ciphertexts {K'_x}_{K'_y} (marked child y
                // of marked x) first, in cover order; the per-subgroup
                // messages below re-request them as cache hits, so each is
                // encrypted (and counted) exactly once — the batched
                // analogue of Figure 8's stored-ciphertext optimization.
                // `chain_src[y]` remembers the request triple so the walk
                // re-issues it identically.
                let mut chain_src: BTreeMap<KeyLabel, (KeyRef, &SymmetricKey)> = BTreeMap::new();
                for (m, c) in ev.key_cover() {
                    if c.marked {
                        let _ =
                            sealer.bundle(&mut ops, c.key_ref, &c.key, &[(m.new_ref, &m.new_key)]);
                        chain_src.insert(c.label, (c.key_ref, &c.key));
                    }
                }
                // For each unmarked, non-joiner child y of marked x:
                // M = {K'_x}_{K_y}, {K'_p(x)}_{K'_x}, … up to the root.
                for (m, c) in ev.key_cover() {
                    if c.marked || c.joiner.is_some() {
                        continue;
                    }
                    let head =
                        sealer.bundle(&mut ops, c.key_ref, &c.key, &[(m.new_ref, &m.new_key)]);
                    let mut bundles = vec![head];
                    let mut cur = m.label;
                    while let Some(&(link_ref, link_key)) = chain_src.get(&cur) {
                        let parent = &ev.marked[by_label[&parent_of[&cur]]];
                        bundles.push(sealer.bundle(
                            &mut ops,
                            link_ref,
                            link_key,
                            &[(parent.new_ref, &parent.new_key)],
                        ));
                        cur = parent.label;
                    }
                    messages
                        .push(RekeyMessage { recipients: Recipients::Subgroup(c.label), bundles });
                }
            }
            Strategy::Derived => {
                // Client-derived interval: the event must come from a
                // leave-free `NewKeyMode::Derived` interval, whose marked
                // keys every current member recomputes locally from the
                // published derivation code. Nothing is shipped to them —
                // the server's keys came from the KDF, not the generator —
                // so only the joiner unicasts below are sealed. Intervals
                // containing leaves use `Strategy::shipped_fallback()`
                // instead (forward secrecy: departed members could run the
                // public derivation too).
                ops.keys_generated = 0;
            }
            Strategy::UserOriented => {
                // For each unmarked, non-joiner child y of marked x: one
                // tailored message carrying every new key on x's path to
                // the root in a single bundle under K_y — smallest
                // per-client payload, most server encryptions.
                for (m, c) in ev.key_cover() {
                    if c.marked || c.joiner.is_some() {
                        continue;
                    }
                    let mut targets: Vec<(KeyRef, &SymmetricKey)> = Vec::new();
                    let mut cur = Some(m.label);
                    while let Some(label) = cur {
                        let node = &ev.marked[by_label[&label]];
                        targets.push((node.new_ref, &node.new_key));
                        cur = parent_of.get(&label).copied();
                    }
                    let b = sealer.bundle(&mut ops, c.key_ref, &c.key, &targets);
                    messages.push(RekeyMessage {
                        recipients: Recipients::Subgroup(c.label),
                        bundles: vec![b],
                    });
                }
            }
        }

        unicast_joiners(sealer, &mut ops, ev, &mut messages);
        RekeyOutput { messages, ops }
    }

    mod tests {
        use super::super::Rekeyer;
        use super::*;
        use crate::ids::UserId;
        use crate::tree::KeyTree;
        use kg_crypto::drbg::HmacDrbg;
        use kg_crypto::KeySource;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Both designs on `ev`, the operation numbered `interval`, under
        /// every strategy: equal messages and counts. `join` also runs the
        /// join construction.
        fn agree(cipher: KeyCipher, interval: u64, ev: &BatchEvent, totals: &mut OpCounts) {
            let join = ev.departed.is_empty() && ev.joins.len() <= 1;
            for strategy in Strategy::EVERY {
                for as_join in [false, true].into_iter().filter(|&j| !j || join) {
                    let (new, old) = if as_join {
                        (
                            Rekeyer::new(cipher, interval).join(ev, strategy),
                            super::join(cipher, interval, ev, strategy),
                        )
                    } else {
                        let old = super::batch(cipher, interval, ev, strategy);
                        (Rekeyer::new(cipher, interval).batch(ev, strategy), old)
                    };
                    assert_eq!(new.messages, old.messages, "{strategy:?}, join {as_join}");
                    assert_eq!(new.ops, old.ops, "{strategy:?}, join {as_join}");
                    totals.cache_hits += new.ops.cache_hits;
                    totals.cache_misses += new.ops.cache_misses;
                }
            }
        }

        fn run(seed: u64, degree: usize, totals: &mut OpCounts) {
            let mut rng = StdRng::seed_from_u64(seed ^ degree as u64);
            let cipher =
                if rng.gen_bool(0.25) { KeyCipher::TripleDesCbc } else { KeyCipher::DesCbc };
            let len = cipher.key_len();
            let mut src = HmacDrbg::from_seed(seed);
            let mut tree = KeyTree::new(degree, len, &mut src);
            let mut interval = 0u64;
            let mut next = 0u64;
            for _ in 0..rng.gen_range(1..40) {
                let ev = tree.join(UserId(next), src.generate_key(len), &mut src).unwrap();
                next += 1;
                interval += 1;
                agree(cipher, interval, &ev, totals);
            }
            for _ in 0..12 {
                let members: Vec<UserId> = tree.members().collect();
                let pick = |rng: &mut StdRng| members[rng.gen_range(0..members.len())];
                let ev = match rng.gen_range(0..4) {
                    0 => {
                        next += 1;
                        tree.join(UserId(next), src.generate_key(len), &mut src).unwrap()
                    }
                    1 if !members.is_empty() => tree.leave(pick(&mut rng), &mut src).unwrap(),
                    2 => tree.refresh_group_key(&mut src),
                    _ => {
                        let mut leaves: Vec<UserId> = Vec::new();
                        for _ in 0..rng.gen_range(0..5).min(members.len()) {
                            let u = pick(&mut rng);
                            if !leaves.contains(&u) {
                                leaves.push(u);
                            }
                        }
                        let mut joins = Vec::new();
                        for _ in 0..rng.gen_range(0..5) {
                            next += 1;
                            joins.push((UserId(next), src.generate_key(len)));
                        }
                        // Now and then a leaver rejoins in the same interval.
                        if let Some(&u) = leaves.first().filter(|_| rng.gen_bool(0.3)) {
                            joins.push((u, src.generate_key(len)));
                        }
                        tree.apply_batch(&joins, &leaves, &mut src).unwrap()
                    }
                };
                interval += 1;
                agree(cipher, interval, &ev, totals);
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

            /// The cacheless constructions and the cached reference give
            /// equal outputs (every message, recipient, bundle byte and
            /// all four counts), on
            /// random trees at d = 2, 3, 4 and 16 under random joins,
            /// leaves, refreshes and mixed intervals, for every strategy
            /// through `Rekeyer::batch` and, on the events it accepts,
            /// `Rekeyer::join`.
            #[test]
            fn cacheless_constructions_match_the_cached_reference(seed in 0u64..) {
                let mut totals = OpCounts::default();
                for degree in [2, 3, 4, 16] {
                    run(seed, degree, &mut totals);
                }
                // Stored ciphertexts were resent, not only sealed.
                proptest::prop_assert!(totals.cache_hits > 0 && totals.cache_misses > 0);
            }
        }
    }
}
