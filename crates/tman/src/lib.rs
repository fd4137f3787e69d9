//! # bss-tman — generic gossip-based topology construction (T-Man)
//!
//! The paper builds its leaf sets with a mechanism "similar to the application of
//! T-MAN for building a sorted ring" (§4, citing Jelasity & Babaoglu, ESOA 2005).
//! This crate implements that generic protocol so that it can serve two roles in
//! the reproduction:
//!
//! 1. **Component reference** — the leaf-set half of the bootstrapping service is a
//!    specialisation of T-Man with a ring ranking function; having the generic
//!    protocol lets the two be compared side by side.
//! 2. **Ablation baseline** — running plain T-Man (ring construction only, no
//!    prefix-table feedback) quantifies how much the paper's mutual-boosting design
//!    buys. No experiment binary reports that number yet: `bss-bench` does not
//!    depend on this crate, and its `ablation` binary sweeps only the bootstrap
//!    protocol's own parameters (`cr`, `c`, sampler, loss).
//!
//! Modules:
//!
//! * [`ranking`] — pluggable ranking functions: ring distance, XOR distance,
//!   directed line.
//! * [`protocol`] — the generic gossip protocol over a
//!   [`PeerSampler`](bss_sampling::sampler::PeerSampler).
//! * [`ring`] — quality metrics for the sorted-ring target topology.
//!
//! # Example
//!
//! ```rust
//! use bss_sampling::sampler::OracleSampler;
//! use bss_sim::engine::cycle::CycleEngine;
//! use bss_sim::network::Network;
//! use bss_tman::protocol::{TmanConfig, TmanProtocol};
//! use bss_tman::ranking::RingRanking;
//! use bss_tman::ring::ring_completeness;
//! use bss_util::rng::SimRng;
//!
//! let mut rng = SimRng::seed_from(3);
//! let network = Network::with_random_ids(128, &mut rng);
//! let mut engine = CycleEngine::new(network, rng);
//! let mut tman = TmanProtocol::new(
//!     TmanConfig::default(),
//!     RingRanking,
//!     OracleSampler::new(),
//! );
//! tman.init_all(engine.context_mut());
//! engine.run(&mut tman, 25);
//! let completeness = ring_completeness(&tman, &engine.context().network);
//! assert!(completeness > 0.99, "ring should be (almost) perfect: {completeness}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod protocol;
pub mod ranking;
pub mod ring;

pub use protocol::{TmanConfig, TmanProtocol};
pub use ranking::{LineRanking, Ranking, RingRanking, XorRanking};
