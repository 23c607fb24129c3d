//! Protocol messages and their binary encoding.
//!
//! The paper's prototype exchanges `join`, `join-ack`, `leave`, `leave-ack`
//! and rekey messages over UDP; rekey messages additionally carry "subgroup
//! labels for new keys, server digital signature, message integrity check,
//! timestamp, etc." (§3.1). This module defines those messages and a
//! deterministic binary codec, so that the byte counts the benchmark
//! harness reports are real wire sizes, not estimates.

use crate::codec::{
    get_bytes, get_count, get_u64, get_u8, get_varint, get_varint_count, get_varint_field,
    get_varint_u32, get_varints, put_bytes, put_varint, put_varint_bytes,
};
use crate::WireError;
use bytes::BufMut;
use kg_core::derive::DerivedLink;
use kg_core::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
use kg_core::merkle::{AuthPath, Side};
use kg_core::rekey::{KeyBundle, Recipients};

/// What triggered a rekey (carried for client statistics; the decryption
/// logic does not depend on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Triggered by a join.
    Join,
    /// Triggered by a leave.
    Leave,
    /// Triggered by a batched rekey interval (joins and leaves together).
    Batch,
    /// A group-key refresh (key-version bump) with no membership change —
    /// periodic rotation, or rotation forced after recovering from a crash.
    Refresh,
}

impl OpKind {
    /// The stable byte this kind is encoded as, on the wire and in
    /// server snapshots.
    pub fn tag(self) -> u8 {
        match self {
            OpKind::Join => 0,
            OpKind::Leave => 1,
            OpKind::Batch => 2,
            OpKind::Refresh => 3,
        }
    }

    /// Inverse of [`OpKind::tag`]; `None` for an unassigned byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(OpKind::Join),
            1 => Some(OpKind::Leave),
            2 => Some(OpKind::Batch),
            3 => Some(OpKind::Refresh),
            _ => None,
        }
    }
}

/// Authentication attached to a rekey message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthTag {
    /// No integrity protection (the paper's "encryption only" runs).
    None,
    /// A message digest over the body (MD5 in the paper).
    Digest(Vec<u8>),
    /// One digital signature per message (the expensive baseline of
    /// Table 4's left half).
    Signed {
        /// RSA signature over the body digest.
        signature: Vec<u8>,
    },
    /// Section 4's technique: the root signature of a digest tree over all
    /// rekey messages of this operation, plus this message's
    /// authentication path.
    MerkleSigned {
        /// Signature over the batch's root digest.
        root_signature: Vec<u8>,
        /// This message's path to the root.
        path: AuthPath,
    },
}

/// First byte of every encoded [`RekeyPacket`]. Distinct from every
/// [`ControlMessage`] tag (≤ 5) and from the cluster envelope magic
/// (`0xC7`), so a datagram's first byte says which plane it belongs to.
pub const REKEY_MAGIC: u8 = 0xB5;

/// Version byte following [`REKEY_MAGIC`]. Decoding fails closed on any
/// other value, so the format can evolve without silent misparses.
/// Version 1 framed every integer at fixed width and carried each
/// bundle's IV; version 2 writes varints and derives the IV (see
/// [`RekeyPacket`]).
pub const REKEY_VERSION: u8 = 2;

/// The one rekey packet, as delivered to clients: what a join, a leave, a
/// refresh or a batched interval sends to one recipient class.
///
/// It carries up to two things:
///
/// * `code` + `changed` — a derivation work list (`Strategy::Derived`
///   joins and refreshes): members holding the key at `changed[i].from`
///   recompute the key at `changed[i].new_ref` via
///   `derive_key(held, code, label, new_version)`. Both empty in a
///   packet that only ships ciphertext.
/// * `bundles` — shipped ciphertext for whoever cannot derive: every
///   recipient under the paper's three strategies; under
///   `Strategy::Derived` the joiner's path under its individual key and
///   the whole group-oriented payload of a leave (forward secrecy — a
///   departed member could run the public derivation too).
///
/// An operation may produce several packets (one per subgroup under the
/// user- and key-oriented strategies); they all carry the same `interval`.
/// `interval` totally orders a server's operations: clients apply each
/// packet atomically and reject anything older than what they already
/// applied.
///
/// # Layout
///
/// ```text
/// magic u8 | version u8 | interval v | op u8 | timestamp_ms v | recipients
/// | derive u8 (0 | 1 [ code | link count v | (new_ref, from) × n ])
/// | bundle count v | bundles ‖ auth
///
/// recipients  tag u8, then user v | label v | include v, exclude v | -
/// key ref     label v | version v
/// bundle      target count v | key ref × n | encrypted_with key ref
///             | ciphertext len v | ciphertext
/// code, tags  len v | bytes
/// ```
///
/// `v` is a canonical LEB128 varint ([`crate::codec::get_varint`]), so each
/// packet has exactly one encoding. Everything before `auth` is the *body*
/// the digest/signature covers.
///
/// A bundle carries no IV. Its sealer used IV = E_K(N), where K is the
/// `encrypted_with` key and N the [`bundle_nonce`](kg_core::rekey::bundle_nonce) of the packet's
/// `interval` and the bundle's targets, and a member recomputes both from
/// the fields it parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RekeyPacket {
    /// Position of the triggering operation in the server's total order
    /// (monotonically increasing, 1-based).
    pub interval: u64,
    /// What triggered the rekey.
    pub op: OpKind,
    /// Server timestamp (milliseconds since an arbitrary epoch; the paper's
    /// format reserves a timestamp field for replay detection).
    pub timestamp_ms: u64,
    /// Delivery scope.
    pub recipients: Recipients,
    /// Derivation code for this operation (empty when nothing is derived).
    pub code: Vec<u8>,
    /// Derivation work list, root-first.
    pub changed: Vec<DerivedLink>,
    /// Shipped bundles for recipients that cannot derive.
    pub bundles: Vec<KeyBundle>,
    /// Integrity/authenticity tag.
    pub auth: AuthTag,
}

impl RekeyPacket {
    /// Whether `bytes` belongs to the rekey plane (leading magic byte).
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.first() == Some(&REKEY_MAGIC)
    }

    /// Serialize the *body* (everything the digest/signature covers).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.put_u8(REKEY_MAGIC);
        out.put_u8(REKEY_VERSION);
        put_varint(&mut out, self.interval);
        out.put_u8(self.op.tag());
        put_varint(&mut out, self.timestamp_ms);
        encode_recipients(&mut out, &self.recipients);
        if self.code.is_empty() && self.changed.is_empty() {
            out.put_u8(0);
        } else {
            out.put_u8(1);
            put_varint_bytes(&mut out, &self.code);
            put_varint(&mut out, self.changed.len() as u64);
            for link in &self.changed {
                encode_keyref(&mut out, &link.new_ref);
                encode_keyref(&mut out, &link.from);
            }
        }
        put_varint(&mut out, self.bundles.len() as u64);
        for b in &self.bundles {
            encode_bundle(&mut out, b);
        }
        out
    }

    /// Serialize body + auth tag (the full datagram payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.encode_body();
        encode_auth(&mut out, &self.auth);
        out
    }

    /// [`encode`](Self::encode) for a sender that already holds this
    /// packet's [`encode_body`](Self::encode_body) — it encoded the body
    /// to sign it: appends the auth tag to `body`.
    pub fn encode_with_body(&self, mut body: Vec<u8>) -> Vec<u8> {
        encode_auth(&mut body, &self.auth);
        body
    }

    /// Decode a packet, returning it together with the length of its body
    /// prefix (callers re-digest `bytes[..body_len]` to verify the tag):
    /// [`RekeyView::parse`], copied out.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), WireError> {
        let view = RekeyView::parse(bytes)?;
        let body_len = view.body.len();
        Ok((view.into_packet(), body_len))
    }
}

/// A rekey packet parsed in place: the one parser of the rekey format.
///
/// [`RekeyView::parse`] walks the datagram once and validates all of it —
/// magic and version, every tag and flag, [`MAX_COUNT`](crate::codec::MAX_COUNT) and
/// [`MAX_FIELD_LEN`](crate::codec::MAX_FIELD_LEN), the one encoding of the
/// derive section, truncation and trailing bytes. The derivation code,
/// work list and bundles stay slices of the datagram; only the
/// authenticity tag is copied out. A member that opens one or two of a
/// group-oriented leave's bundles reads the others' headers and skips
/// them without allocating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RekeyView<'a> {
    /// See [`RekeyPacket::interval`].
    pub interval: u64,
    /// See [`RekeyPacket::op`].
    pub op: OpKind,
    /// See [`RekeyPacket::timestamp_ms`].
    pub timestamp_ms: u64,
    /// See [`RekeyPacket::recipients`].
    pub recipients: Recipients,
    /// Derivation code (empty when nothing is derived).
    pub code: &'a [u8],
    /// The body: the prefix of the datagram the authenticity tag covers.
    pub body: &'a [u8],
    /// Integrity/authenticity tag.
    pub auth: AuthTag,
    /// Derivation work list, root-first: `new_ref, from` of each link.
    links: KeyRefs<'a>,
    /// The bundles section, already validated.
    bundles: Bundles<'a>,
}

impl<'a> RekeyView<'a> {
    /// Parse and validate a whole datagram.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut buf = bytes;
        match get_u8(&mut buf)? {
            REKEY_MAGIC => {}
            t => return Err(WireError::BadTag { context: "rekey magic", tag: t }),
        }
        match get_u8(&mut buf)? {
            REKEY_VERSION => {}
            t => return Err(WireError::BadTag { context: "rekey version", tag: t }),
        }
        let interval = get_varint(&mut buf)?;
        let op = get_u8(&mut buf)?;
        let op = OpKind::from_tag(op).ok_or(WireError::BadTag { context: "op kind", tag: op })?;
        let timestamp_ms = get_varint(&mut buf)?;
        let recipients = decode_recipients(&mut buf)?;
        let (code, links): (&[u8], KeyRefs<'_>) = match get_u8(&mut buf)? {
            0 => (&[], KeyRefs::default()),
            1 => {
                let code = get_varint_field(&mut buf)?;
                let n = get_varint_count(&mut buf)?;
                let links = KeyRefs::parse(&mut buf, 2 * n)?;
                if code.is_empty() && links.is_empty() {
                    // Not what `encode` writes for an empty work list;
                    // accepting it would give one packet two encodings.
                    return Err(WireError::BadTag { context: "empty derive section", tag: 1 });
                }
                (code, links)
            }
            t => return Err(WireError::BadTag { context: "derive flag", tag: t }),
        };
        let left = get_varint_count(&mut buf)?;
        let bundles_at = buf;
        for _ in 0..left {
            BundleView::parse(&mut buf)?;
        }
        let bundles = Bundles { buf: consumed(bundles_at, buf), left };
        let body = consumed(bytes, buf);
        let auth = decode_auth(&mut buf)?;
        if !buf.is_empty() {
            return Err(WireError::TrailingBytes(buf.len()));
        }
        Ok(RekeyView { interval, op, timestamp_ms, recipients, code, body, auth, links, bundles })
    }

    /// The derivation work list, root-first.
    pub fn links(&self) -> impl ExactSizeIterator<Item = DerivedLink> + 'a {
        Links(self.links.refs())
    }

    /// The shipped bundles, in packet order.
    pub fn bundles(&self) -> Bundles<'a> {
        self.bundles.clone()
    }

    /// Copy the packet out into owned form.
    pub fn into_packet(self) -> RekeyPacket {
        let changed = self.links().collect();
        let bundles = self.bundles().map(|b| b.to_bundle()).collect();
        RekeyPacket {
            interval: self.interval,
            op: self.op,
            timestamp_ms: self.timestamp_ms,
            recipients: self.recipients,
            code: self.code.to_vec(),
            changed,
            bundles,
            auth: self.auth,
        }
    }
}

/// One bundle of a [`RekeyView`]: a [`KeyBundle`] read in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleView<'a> {
    /// References of the new keys inside the ciphertext, in plaintext order.
    pub targets: KeyRefs<'a>,
    /// Reference of the key the bundle is encrypted under.
    pub encrypted_with: KeyRef,
    /// The ciphertext.
    pub ciphertext: &'a [u8],
}

impl<'a> BundleView<'a> {
    #[inline]
    fn parse(buf: &mut &'a [u8]) -> Result<Self, WireError> {
        let n = get_varint_count(buf)?;
        let targets = KeyRefs::parse(buf, n)?;
        let encrypted_with = get_keyref(buf)?;
        let ciphertext = get_varint_field(buf)?;
        Ok(BundleView { targets, encrypted_with, ciphertext })
    }

    /// Copy the bundle out into owned form.
    pub fn to_bundle(&self) -> KeyBundle {
        KeyBundle {
            targets: self.targets.iter().collect(),
            encrypted_with: self.encrypted_with,
            ciphertext: self.ciphertext.to_vec(),
        }
    }
}

/// The bundles of a [`RekeyView`], read in place, in packet order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundles<'a> {
    buf: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Bundles<'a> {
    type Item = BundleView<'a>;

    #[inline]
    fn next(&mut self) -> Option<BundleView<'a>> {
        self.left = self.left.checked_sub(1)?;
        // `RekeyView::parse` validated every bundle, so this succeeds.
        BundleView::parse(&mut self.buf).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Bundles<'_> {}

/// Key references read in place: a validated run of (label, version)
/// varint pairs, decoded as they are iterated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyRefs<'a> {
    buf: &'a [u8],
    len: usize,
}

impl<'a> KeyRefs<'a> {
    /// Validate `n` references at the front of `buf` and split them off.
    #[inline]
    fn parse(buf: &mut &'a [u8], n: usize) -> Result<Self, WireError> {
        Ok(KeyRefs { buf: get_varints(buf, 2 * n)?, len: n })
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The references, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = KeyRef> + 'a {
        self.refs()
    }

    fn refs(&self) -> KeyRefIter<'a> {
        KeyRefIter { buf: self.buf, left: self.len }
    }
}

/// The references of a [`KeyRefs`], decoded one at a time.
struct KeyRefIter<'a> {
    buf: &'a [u8],
    left: usize,
}

impl Iterator for KeyRefIter<'_> {
    type Item = KeyRef;

    #[inline]
    fn next(&mut self) -> Option<KeyRef> {
        self.left = self.left.checked_sub(1)?;
        // `KeyRefs::parse` validated every reference, so this succeeds.
        get_keyref(&mut self.buf).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for KeyRefIter<'_> {}

/// A derivation work list read in place: its references taken two at a
/// time, `new_ref` then `from`.
struct Links<'a>(KeyRefIter<'a>);

impl Iterator for Links<'_> {
    type Item = DerivedLink;

    fn next(&mut self) -> Option<DerivedLink> {
        Some(DerivedLink { new_ref: self.0.next()?, from: self.0.next()? })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.len() / 2;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Links<'_> {}

/// The prefix of `before` that reading up to `after` consumed.
fn consumed<'a>(before: &'a [u8], after: &[u8]) -> &'a [u8] {
    before.get(..before.len() - after.len()).unwrap_or_default()
}

/// Control-plane messages between clients and the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// A user asks to join the group.
    JoinRequest {
        /// The requester.
        user: UserId,
    },
    /// Server grants a join: tells the user its leaf label and the labels
    /// of the path keys it is about to receive.
    JoinGranted {
        /// The admitted user.
        user: UserId,
        /// Label of the user's individual-key leaf.
        leaf_label: KeyLabel,
        /// Labels of the path keys, root-first.
        path_labels: Vec<KeyLabel>,
    },
    /// Server denies a join (access control).
    JoinDenied {
        /// The rejected user.
        user: UserId,
    },
    /// A user asks to leave; authenticated with an HMAC under the user's
    /// individual key (standing in for the paper's `{leave-request}_{k_u}`).
    LeaveRequest {
        /// The requester.
        user: UserId,
        /// HMAC-MD5 over `user` under the individual key.
        auth: Vec<u8>,
    },
    /// Server confirms a leave.
    LeaveGranted {
        /// The departed user.
        user: UserId,
    },
    /// Server refuses a leave (unknown member or bad authenticator).
    LeaveDenied {
        /// The refused user.
        user: UserId,
    },
}

impl ControlMessage {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            ControlMessage::JoinRequest { user } => {
                out.put_u8(0);
                out.put_u64(user.0);
            }
            ControlMessage::JoinGranted { user, leaf_label, path_labels } => {
                out.put_u8(1);
                out.put_u64(user.0);
                out.put_u64(leaf_label.0);
                out.put_u32(path_labels.len() as u32);
                for l in path_labels {
                    out.put_u64(l.0);
                }
            }
            ControlMessage::JoinDenied { user } => {
                out.put_u8(2);
                out.put_u64(user.0);
            }
            ControlMessage::LeaveRequest { user, auth } => {
                out.put_u8(3);
                out.put_u64(user.0);
                put_bytes(&mut out, auth);
            }
            ControlMessage::LeaveGranted { user } => {
                out.put_u8(4);
                out.put_u64(user.0);
            }
            ControlMessage::LeaveDenied { user } => {
                out.put_u8(5);
                out.put_u64(user.0);
            }
        }
        out
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut buf = bytes;
        let tag = get_u8(&mut buf)?;
        let msg = match tag {
            0 => ControlMessage::JoinRequest { user: UserId(get_u64(&mut buf)?) },
            1 => {
                let user = UserId(get_u64(&mut buf)?);
                let leaf_label = KeyLabel(get_u64(&mut buf)?);
                let n = get_count(&mut buf)?;
                let mut path_labels = Vec::with_capacity(n);
                for _ in 0..n {
                    path_labels.push(KeyLabel(get_u64(&mut buf)?));
                }
                ControlMessage::JoinGranted { user, leaf_label, path_labels }
            }
            2 => ControlMessage::JoinDenied { user: UserId(get_u64(&mut buf)?) },
            3 => {
                let user = UserId(get_u64(&mut buf)?);
                let auth = get_bytes(&mut buf)?;
                ControlMessage::LeaveRequest { user, auth }
            }
            4 => ControlMessage::LeaveGranted { user: UserId(get_u64(&mut buf)?) },
            5 => ControlMessage::LeaveDenied { user: UserId(get_u64(&mut buf)?) },
            t => return Err(WireError::BadTag { context: "control message", tag: t }),
        };
        if !buf.is_empty() {
            return Err(WireError::TrailingBytes(buf.len()));
        }
        Ok(msg)
    }
}

fn encode_keyref(out: &mut Vec<u8>, r: &KeyRef) {
    put_varint(out, r.label.0);
    put_varint(out, r.version.0);
}

#[inline]
fn get_keyref(buf: &mut &[u8]) -> Result<KeyRef, WireError> {
    Ok(KeyRef::new(KeyLabel(get_varint(buf)?), KeyVersion(get_varint(buf)?)))
}

fn encode_recipients(out: &mut Vec<u8>, r: &Recipients) {
    match r {
        Recipients::User(u) => {
            out.put_u8(0);
            put_varint(out, u.0);
        }
        Recipients::Subgroup(k) => {
            out.put_u8(1);
            put_varint(out, k.0);
        }
        Recipients::SubgroupExcept { include, exclude } => {
            out.put_u8(2);
            put_varint(out, include.0);
            put_varint(out, exclude.0);
        }
        Recipients::Group => out.put_u8(3),
    }
}

fn decode_recipients(buf: &mut &[u8]) -> Result<Recipients, WireError> {
    Ok(match get_u8(buf)? {
        0 => Recipients::User(UserId(get_varint(buf)?)),
        1 => Recipients::Subgroup(KeyLabel(get_varint(buf)?)),
        2 => Recipients::SubgroupExcept {
            include: KeyLabel(get_varint(buf)?),
            exclude: KeyLabel(get_varint(buf)?),
        },
        3 => Recipients::Group,
        t => return Err(WireError::BadTag { context: "recipients", tag: t }),
    })
}

fn encode_bundle(out: &mut Vec<u8>, b: &KeyBundle) {
    put_varint(out, b.targets.len() as u64);
    for t in &b.targets {
        encode_keyref(out, t);
    }
    encode_keyref(out, &b.encrypted_with);
    put_varint_bytes(out, &b.ciphertext);
}

fn encode_auth(out: &mut Vec<u8>, auth: &AuthTag) {
    match auth {
        AuthTag::None => out.put_u8(0),
        AuthTag::Digest(d) => {
            out.put_u8(1);
            put_varint_bytes(out, d);
        }
        AuthTag::Signed { signature } => {
            out.put_u8(2);
            put_varint_bytes(out, signature);
        }
        AuthTag::MerkleSigned { root_signature, path } => {
            out.put_u8(3);
            put_varint_bytes(out, root_signature);
            put_varint(out, path.index.into());
            put_varint(out, path.siblings.len() as u64);
            for (side, digest) in &path.siblings {
                out.put_u8(match side {
                    Side::Left => 0,
                    Side::Right => 1,
                });
                put_varint_bytes(out, digest);
            }
        }
    }
}

fn decode_auth(buf: &mut &[u8]) -> Result<AuthTag, WireError> {
    let field = |buf: &mut &[u8]| get_varint_field(buf).map(<[u8]>::to_vec);
    Ok(match get_u8(buf)? {
        0 => AuthTag::None,
        1 => AuthTag::Digest(field(buf)?),
        2 => AuthTag::Signed { signature: field(buf)? },
        3 => {
            let root_signature = field(buf)?;
            let index = get_varint_u32(buf)?;
            let n = get_varint_count(buf)?;
            let mut siblings = Vec::with_capacity(n);
            for _ in 0..n {
                let side = match get_u8(buf)? {
                    0 => Side::Left,
                    1 => Side::Right,
                    t => return Err(WireError::BadTag { context: "merkle side", tag: t }),
                };
                siblings.push((side, field(buf)?));
            }
            AuthTag::MerkleSigned { root_signature, path: AuthPath { index, siblings } }
        }
        t => return Err(WireError::BadTag { context: "auth tag", tag: t }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> KeyBundle {
        KeyBundle {
            targets: vec![
                KeyRef::new(KeyLabel(1), KeyVersion(3)),
                KeyRef::new(KeyLabel(2), KeyVersion(0)),
            ],
            encrypted_with: KeyRef::new(KeyLabel(9), KeyVersion(7)),
            ciphertext: vec![0xAB; 24],
        }
    }

    /// A shipped packet: ciphertext only, no derivation section.
    fn shipped_packet(auth: AuthTag) -> RekeyPacket {
        RekeyPacket {
            interval: 42,
            op: OpKind::Leave,
            timestamp_ms: 1_000_000,
            recipients: Recipients::SubgroupExcept { include: KeyLabel(5), exclude: KeyLabel(6) },
            code: Vec::new(),
            changed: Vec::new(),
            bundles: vec![sample_bundle(), sample_bundle()],
            auth,
        }
    }

    /// A derived packet: code, work list, and the joiner's bundle.
    fn derived_packet(auth: AuthTag) -> RekeyPacket {
        RekeyPacket {
            interval: 12,
            op: OpKind::Join,
            timestamp_ms: 555,
            recipients: Recipients::Group,
            code: vec![0xC0; 16],
            changed: vec![
                DerivedLink {
                    new_ref: KeyRef::new(KeyLabel(0), KeyVersion(4)),
                    from: KeyRef::new(KeyLabel(0), KeyVersion(3)),
                },
                DerivedLink {
                    new_ref: KeyRef::new(KeyLabel(3), KeyVersion(1)),
                    from: KeyRef::new(KeyLabel(17), KeyVersion(0)),
                },
            ],
            bundles: vec![sample_bundle()],
            auth,
        }
    }

    fn auth_variants() -> [AuthTag; 4] {
        [
            AuthTag::None,
            AuthTag::Digest(vec![0x11; 16]),
            AuthTag::Signed { signature: vec![0x22; 64] },
            AuthTag::MerkleSigned {
                root_signature: vec![0x33; 64],
                path: AuthPath {
                    index: 2,
                    siblings: vec![(Side::Left, vec![0x44; 16]), (Side::Right, vec![0x55; 16])],
                },
            },
        ]
    }

    #[test]
    fn rekey_roundtrip_all_auth_variants() {
        for auth in auth_variants() {
            for pkt in [shipped_packet(auth.clone()), derived_packet(auth.clone())] {
                let bytes = pkt.encode();
                assert!(RekeyPacket::sniff(&bytes));
                let (decoded, body_len) = RekeyPacket::decode(&bytes).unwrap();
                assert_eq!(decoded, pkt);
                assert_eq!(&bytes[..body_len], pkt.encode_body().as_slice());
            }
        }
    }

    #[test]
    fn view_borrows_every_field_from_the_datagram() {
        for pkt in [shipped_packet(AuthTag::None), derived_packet(AuthTag::None)] {
            let bytes = pkt.encode();
            let inside = |s: &[u8]| {
                let (outer, inner) = (bytes.as_ptr_range(), s.as_ptr_range());
                outer.start <= inner.start && inner.end <= outer.end
            };
            let view = RekeyView::parse(&bytes).unwrap();
            assert!(inside(view.body) && (view.code.is_empty() || inside(view.code)));
            assert_eq!(view.bundles().len(), pkt.bundles.len());
            for (b, owned) in view.bundles().zip(&pkt.bundles) {
                assert!(inside(b.ciphertext));
                assert_eq!(b.to_bundle(), *owned);
            }
            assert_eq!(view.links().collect::<Vec<_>>(), pkt.changed);
        }
    }

    #[test]
    fn magic_and_version_are_checked() {
        let mut bytes = shipped_packet(AuthTag::None).encode();
        bytes[0] = 0x00;
        assert!(!RekeyPacket::sniff(&bytes));
        assert!(matches!(
            RekeyPacket::decode(&bytes),
            Err(WireError::BadTag { context: "rekey magic", .. })
        ));
        bytes[0] = REKEY_MAGIC;
        assert_eq!(bytes[1], REKEY_VERSION);
        for v in [0u8, 1, 3, 7, 255] {
            bytes[1] = v;
            assert!(
                matches!(
                    RekeyPacket::decode(&bytes),
                    Err(WireError::BadTag { context: "rekey version", tag }) if tag == v
                ),
                "version {v} must be rejected"
            );
        }
    }

    #[test]
    fn derive_section_has_one_encoding() {
        // The flag byte follows the header (magic, version, interval 12,
        // op, timestamp 555 in two varint bytes) and a Group recipient.
        let mut pkt = derived_packet(AuthTag::None);
        pkt.bundles.clear();
        let flag_at = 2 + 1 + 1 + 2 + 1;
        let bytes = pkt.encode();
        assert_eq!(bytes[flag_at], 1);
        // Flag set, but an empty code and an empty work list (then no
        // bundles and no tag).
        let mut empty = bytes[..=flag_at].to_vec();
        empty.extend_from_slice(&[0; 4]);
        assert!(matches!(
            RekeyPacket::decode(&empty),
            Err(WireError::BadTag { context: "empty derive section", .. })
        ));
        let mut bad = bytes;
        bad[flag_at] = 2;
        assert!(matches!(
            RekeyPacket::decode(&bad),
            Err(WireError::BadTag { context: "derive flag", tag: 2 })
        ));
    }

    #[test]
    fn rekey_packets_are_not_control_messages() {
        for pkt in [shipped_packet(AuthTag::None), derived_packet(AuthTag::None)] {
            assert!(ControlMessage::decode(&pkt.encode()).is_err());
        }
    }

    #[test]
    fn every_op_kind_roundtrips_through_its_tag() {
        for op in [OpKind::Join, OpKind::Leave, OpKind::Batch, OpKind::Refresh] {
            assert_eq!(OpKind::from_tag(op.tag()), Some(op));
            let mut pkt = shipped_packet(AuthTag::None);
            pkt.op = op;
            assert_eq!(RekeyPacket::decode(&pkt.encode()).unwrap().0.op, op);
        }
        assert_eq!(OpKind::from_tag(4), None);
    }

    #[test]
    fn control_roundtrip_all_variants() {
        let msgs = [
            ControlMessage::JoinRequest { user: UserId(7) },
            ControlMessage::JoinGranted {
                user: UserId(7),
                leaf_label: KeyLabel(30),
                path_labels: vec![KeyLabel(0), KeyLabel(12)],
            },
            ControlMessage::JoinDenied { user: UserId(8) },
            ControlMessage::LeaveRequest { user: UserId(7), auth: vec![1, 2, 3] },
            ControlMessage::LeaveGranted { user: UserId(7) },
            ControlMessage::LeaveDenied { user: UserId(9) },
        ];
        for m in msgs {
            assert_eq!(ControlMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut bytes = shipped_packet(AuthTag::None).encode();
        let last = bytes.len() - 1;
        bytes[last] = 99; // auth tag byte
        assert!(matches!(
            RekeyPacket::decode(&bytes),
            Err(WireError::BadTag { context: "auth tag", .. })
        ));
        assert!(matches!(
            ControlMessage::decode(&[200]),
            Err(WireError::BadTag { context: "control message", .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        for pkt in [
            shipped_packet(AuthTag::Digest(vec![0; 16])),
            derived_packet(AuthTag::Digest(vec![0; 16])),
        ] {
            let bytes = pkt.encode();
            for cut in 0..bytes.len() {
                assert!(
                    RekeyPacket::decode(&bytes[..cut]).is_err(),
                    "decode of {cut}-byte prefix should fail"
                );
            }
            let mut extended = bytes;
            extended.push(0);
            assert!(matches!(RekeyPacket::decode(&extended), Err(WireError::TrailingBytes(1))));
        }
        let mut c = ControlMessage::JoinRequest { user: UserId(1) }.encode();
        c.push(7);
        assert!(matches!(ControlMessage::decode(&c), Err(WireError::TrailingBytes(1))));
    }

    #[test]
    fn body_excludes_auth() {
        let p1 = derived_packet(AuthTag::None);
        let p2 = derived_packet(AuthTag::Signed { signature: vec![9; 64] });
        assert_eq!(p1.encode_body(), p2.encode_body());
        assert_ne!(p1.encode(), p2.encode());
    }

    proptest::proptest! {
        #[test]
        fn rekey_roundtrip_random(
            interval: u64,
            ts: u64,
            codelen in 0usize..32,
            nlinks in 0usize..6,
            nbundles in 0usize..5,
            ctlen in 1usize..64,
        ) {
            let changed: Vec<DerivedLink> = (0..nlinks)
                .map(|i| DerivedLink {
                    new_ref: KeyRef::new(KeyLabel(i as u64), KeyVersion(interval % 7 + 1)),
                    from: KeyRef::new(KeyLabel(i as u64), KeyVersion(interval % 7)),
                })
                .collect();
            let bundles: Vec<KeyBundle> = (0..nbundles)
                .map(|i| KeyBundle {
                    targets: vec![KeyRef::new(KeyLabel(i as u64), KeyVersion(interval % 5))],
                    encrypted_with: KeyRef::new(KeyLabel(100 + i as u64), KeyVersion(0)),
                    ciphertext: vec![0x5A; ctlen],
                })
                .collect();
            let pkt = RekeyPacket {
                interval,
                op: OpKind::from_tag((interval % 4) as u8).expect("tags 0..4 are assigned"),
                timestamp_ms: ts,
                recipients: Recipients::User(UserId(ts)),
                code: vec![0xEE; codelen],
                changed,
                bundles,
                auth: AuthTag::None,
            };
            let (decoded, _) = RekeyPacket::decode(&pkt.encode()).unwrap();
            proptest::prop_assert_eq!(decoded, pkt);
        }

        /// Random garbage either fails to decode or re-encodes to itself
        /// (no silent misparses).
        #[test]
        fn garbage_never_misparses(data in proptest::collection::vec(0u8.., 0..128)) {
            if let Ok((pkt, _)) = RekeyPacket::decode(&data) {
                proptest::prop_assert_eq!(pkt.encode(), data);
            }
        }
    }
}
