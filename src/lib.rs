//! # Information Slicing
//!
//! A complete Rust implementation of *Information Slicing: Anonymity
//! Using Unreliable Overlays* (Katti, Cohen, Katabi — NSDI 2007 /
//! MIT-CSAIL-TR-2007-013): anonymous, confidential, churn-resilient
//! communication over peer-to-peer overlays **without any public-key
//! cryptography**.
//!
//! Instead of onion layers, the source multiplies its message by a random
//! invertible matrix over GF(2⁸), splits the result into `d` slices, and
//! routes them along vertex-disjoint overlay paths that meet only at the
//! destination. Relays learn nothing but their own parents and children;
//! an attacker holding fewer than `d` slices learns *nothing at all*
//! (pi-security). Redundant coding (`d′ > d`) plus in-network
//! regeneration (random linear network coding) makes flows survive node
//! churn.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`gf`] | GF(2⁸) arithmetic, matrices, super-regular generators |
//! | [`crypto`] | SHA-256, HMAC, HKDF, ChaCha20, AEAD, bignum, toy RSA |
//! | [`codec`] | slice encode/decode, network re-coding, per-hop transforms |
//! | [`wire`] | packet format (flow-id + constant-size slots) |
//! | [`graph`] | Algorithm 1: stages, slice-maps, data-maps, per-node info |
//! | [`core`] | sans-IO protocol engine: source, relay, destination |
//! | [`onion`] | onion-routing baselines (standard + erasure-coded) |
//! | [`anonymity`] | entropy metric, attacker model, Figs. 7–10 engine |
//! | [`sim`] | churn models, Eqs. 6–7, AS-diverse selection, WAN profiles |
//! | [`overlay`] | tokio runtime: emulated + TCP transports, daemons |
//!
//! ## Quickstart
//!
//! ```
//! use information_slicing::core::{GraphParams, OverlayAddr, SourceSession};
//! use information_slicing::core::testnet::TestNet;
//!
//! // An overlay of candidate relays, a destination, and the source's
//! // pseudo-source addresses (§3: home + work, a friend, a cafe...).
//! let candidates: Vec<OverlayAddr> = (0..30).map(|i| OverlayAddr(100 + i)).collect();
//! let pseudo: Vec<OverlayAddr> = vec![OverlayAddr(1), OverlayAddr(2)];
//! let bob = OverlayAddr(99);
//!
//! // Establish a forwarding graph (L = 4 stages, split factor d = 2).
//! let (mut alice, setup) = SourceSession::establish(
//!     GraphParams::new(4, 2), &pseudo, &candidates, bob, 7,
//! ).unwrap();
//!
//! // Drive it through the in-memory test network.
//! let mut all_nodes = candidates.clone();
//! all_nodes.push(bob);
//! let mut net = TestNet::new(&all_nodes, 7);
//! net.submit(setup);
//! net.run_to_quiescence(Some(&mut alice));
//!
//! // Send an anonymous, confidential message.
//! let (_, packets) = alice.send_message(b"Let's meet at 5pm").expect("within chunk budget");
//! net.submit(packets);
//! net.run_to_quiescence(Some(&mut alice));
//! assert_eq!(net.messages_for(bob)[0].1, b"Let's meet at 5pm");
//! ```

#![forbid(unsafe_code)]

pub use slicing_anonymity as anonymity;
pub use slicing_codec as codec;
pub use slicing_core as core;
pub use slicing_crypto as crypto;
pub use slicing_gf as gf;
pub use slicing_graph as graph;
pub use slicing_onion as onion;
pub use slicing_overlay as overlay;
pub use slicing_sim as sim;
pub use slicing_wire as wire;
