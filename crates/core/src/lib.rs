//! # kg-core — secure groups using key graphs
//!
//! The primary contribution of *"Secure Group Communications Using Key
//! Graphs"* (Wong, Gouda, Lam; SIGCOMM '98), implemented as a library:
//!
//! * [`keygraph`] — the Section 2 formalism: secure groups `(U, K, R)` as
//!   DAGs of u-nodes and k-nodes, `keyset`/`userset`, and the NP-hard
//!   key-covering problem (exact + greedy solvers).
//! * [`star`] — the conventional baseline: one group key, Θ(n) leaves.
//! * [`tree`] — key trees with the full-and-balanced maintenance heuristic;
//!   joins and leaves return the changed-path events the strategies need.
//! * [`complete`] — the 2^n−1-key extreme, for bracketing the design space.
//! * [`rekey`] — the three rekeying strategies (user-, key-,
//!   group-oriented) materializing real DES-CBC-encrypted rekey messages
//!   for a join, a leave, a refresh or a whole batch interval, with the
//!   paper's cost accounting.
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
//! let mut ivs = HmacDrbg::from_seed(2);
//! let mut tree = KeyTree::new(4, 8, &mut keys);
//!
//! // Admit nine users.
//! for i in 0..9 {
//!     let individual = keys.generate_key(8);
//!     let event = tree.join(UserId(i), individual, &mut keys).unwrap();
//!     let mut rekeyer = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
//!     let out = rekeyer.join(&event, Strategy::GroupOriented);
//!     assert!(!out.messages.is_empty());
//! }
//!
//! // One leave: the whole path to the root is rekeyed.
//! let event = tree.leave(UserId(3), &mut keys).unwrap();
//! let mut rekeyer = Rekeyer::new(KeyCipher::des_cbc(), &mut ivs);
//! let out = rekeyer.leave(&event, Strategy::GroupOriented);
//! assert_eq!(out.messages.len(), 1); // single multicast
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod complete;
pub mod cost;
pub mod derive;
pub mod hybrid;
pub mod ids;
pub mod keygraph;
pub mod merkle;
pub mod rekey;
pub mod serial;
pub mod star;
pub mod tree;

/// Convenient re-exports of the types most callers need.
pub mod prelude {
    pub use crate::batch::{BatchChild, BatchEvent, BatchJoin, MarkedNode};
    pub use crate::derive::{derive_key, links_from_path, DerivedLink, DERIVATION_CODE_LEN};
    pub use crate::ids::{KeyLabel, KeyRef, KeyVersion, UserId};
    pub use crate::keygraph::KeyGraph;
    pub use crate::rekey::{
        KeyBundle, KeyCipher, OpCounts, Recipients, RekeyMessage, RekeyOutput, Rekeyer, Strategy,
    };
    pub use crate::star::StarGroup;
    pub use crate::tree::{
        JoinEvent, JoinPolicy, KeyTree, LeaveEvent, PathNode, SiblingChild, TreeError,
    };
}

pub use prelude::*;
