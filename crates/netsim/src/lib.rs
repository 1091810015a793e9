//! Deterministic discrete-event network simulator.
//!
//! The paper evaluates P2 on the Emulab testbed: 100 stub nodes spread over
//! 10 domains, one router per domain, 2 ms intra-domain and 100 ms
//! inter-domain latency, 10 Mbps access links and 100 Mbps core links. This
//! crate reproduces that substrate in simulation so that hundreds of P2
//! nodes (or hand-coded baseline nodes) can run in-process with a virtual
//! clock:
//!
//! * [`Topology`] models the transit-stub layout and computes end-to-end
//!   latencies;
//! * [`Simulator`] hosts [`Host`] implementations (one per overlay node),
//!   delivers tuples with serialization + propagation delay, drives each
//!   host's timers, applies optional packet loss, and records per-tuple-name
//!   byte counters for the bandwidth experiments;
//! * churn is supported by marking nodes down (in-flight packets to them are
//!   dropped, their timers stop) and replacing them with fresh hosts.
//!
//! The simulator is fully deterministic for a given seed.
//!
//! Internally the event loop runs on interned [`NodeId`]s (dense `u32`
//! indices into the slot table) rather than string addresses, packet
//! latencies come from a precomputed domain×domain matrix, and node wakeups
//! live in a tombstone-free timer index separate from the delivery heap.
//! String addresses appear only at the public API boundary.

pub mod host;
pub mod id;
pub mod sim;
pub mod stats;
mod timer;
pub mod topology;

pub use host::{Envelope, Host};
pub use id::{AddrInterner, NodeId};
pub use sim::{NetworkConfig, Simulator};
pub use stats::NetStats;
pub use topology::Topology;
