//! # kg-core — secure groups using key graphs
//!
//! The primary contribution of *"Secure Group Communications Using Key
//! Graphs"* (Wong, Gouda, Lam; SIGCOMM '98), implemented as a library:
//!
//! * [`keygraph`] — the Section 2 formalism: secure groups `(U, K, R)` as
//!   DAGs of u-nodes and k-nodes, `keyset`/`userset`, and the NP-hard
//!   key-covering problem (exact + greedy solvers).
//!   [`KeyGraph::complete`](keygraph::KeyGraph::complete) builds the
//!   2^n−1-key extreme that brackets the design space.
//! * [`tree`] — key trees with the full-and-balanced maintenance heuristic:
//!   the structure, its queries, and the choice of joining point. A tree
//!   whose degree no group reaches is the star, the conventional baseline:
//!   one group key, Θ(n) leaves.
//! * [`batch`] — the one tree mutation and the one event. A rekey interval
//!   (any set of joins and leaves) is applied as a single update that
//!   replaces every key on the union of the changed paths once; a join, a
//!   leave and a group-key refresh are the intervals of one and of no
//!   requests. Every caller gets a [`batch::BatchEvent`].
//! * [`rekey`] — the paper's two constructions over that event, each under
//!   the three strategies (user-, key-, group-oriented) and materializing
//!   real DES-CBC-encrypted rekey messages with the paper's cost
//!   accounting: [`Rekeyer::join`](rekey::Rekeyer::join) is §3.3 (a new key
//!   under the key it replaces — joins and refreshes) and
//!   [`Rekeyer::batch`](rekey::Rekeyer::batch) is §3.4 generalised to any
//!   interval (a new key under each child's key — leaves and batches).
//! * [`derive`] — client-derived rekeying: a leave-free interval publishes
//!   a code instead of shipping keys.
//! * [`merkle`] — signing a batch of rekey messages with one RSA operation
//!   (Section 4).
//! * [`cost`] — the analytical model behind Tables 1–3.
//!
//! ## Quick tour
//!
//! ```
//! use kg_core::prelude::*;
//! use kg_crypto::drbg::HmacDrbg;
//! use kg_crypto::KeySource;
//!
//! let mut keys = HmacDrbg::from_seed(1);
//! let mut tree = KeyTree::new(4, 8, &mut keys);
//!
//! // Admit nine users. Each join replaces the keys from the joining point
//! // to the root; §3.3 tells them to the group under the keys they replace
//! // and to the joiner under its individual key.
//! for i in 0..9 {
//!     let individual = keys.generate_key(8);
//!     let event = tree.join(UserId(i), individual, &mut keys).unwrap();
//!     // Each operation is numbered; its bundles' IVs derive from it.
//!     let rekeyer = Rekeyer::new(KeyCipher::des_cbc(), i + 1);
//!     let out = rekeyer.join(&event, Strategy::GroupOriented);
//!     // One multicast (none when nobody held the old keys), one unicast.
//!     assert_eq!(out.messages.len(), if i == 0 { 1 } else { 2 });
//! }
//!
//! // One leave: the whole path to the root is replaced, and §3.4 tells
//! // each new key under the keys of the node's children.
//! let event = tree.leave(UserId(3), &mut keys).unwrap();
//! let out = Rekeyer::new(KeyCipher::des_cbc(), 10).batch(&event, Strategy::GroupOriented);
//! assert_eq!(out.messages.len(), 1); // single multicast
//!
//! // A whole interval is the same event and the same construction.
//! let joiner = (UserId(9), keys.generate_key(8));
//! let event = tree.apply_batch(&[joiner], &[UserId(0), UserId(5)], &mut keys).unwrap();
//! let out = Rekeyer::new(KeyCipher::des_cbc(), 11).batch(&event, Strategy::GroupOriented);
//! assert_eq!(out.messages.len(), 2); // one multicast, the joiner's unicast
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cost;
pub mod derive;
pub mod ids;
pub mod keygraph;
pub mod merkle;
pub mod rekey;
pub mod serial;
pub mod tree;

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::batch::{BatchChild, BatchEvent, BatchJoin, MarkedNode, NewKeyMode};
    pub use crate::derive::{derive_key, DerivedLink, DERIVATION_CODE_LEN};
    pub use crate::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
    pub use crate::keygraph::KeyGraph;
    pub use crate::rekey::{
        KeyBundle, KeyCipher, OpCounts, Recipients, RekeyMessage, RekeyOutput, Rekeyer, Strategy,
    };
    pub use crate::tree::{KeyTree, TreeError};
}

pub use prelude::*;
