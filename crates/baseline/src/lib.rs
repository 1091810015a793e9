//! Hand-coded Chord baseline.
//!
//! The paper compares its 47-rule declarative Chord against hand-tuned
//! imperative implementations (MIT Chord, MACEDON). This crate provides that
//! comparison point on *our* substrate: a conventional, state-machine-style
//! Chord node written directly against the network simulator's
//! [`Host`](p2_netsim::Host) interface, with the same protocol constants as
//! the OverLog specification (successor set of 4, 160-bit identifiers, 15 s
//! stabilization, 10 s finger fixing, 5 s liveness pings) and the same wire
//! tuple names, so byte-level traffic accounting is directly comparable.

pub mod chord;

pub use chord::{BaselineChord, BaselineConfig};
