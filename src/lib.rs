//! Umbrella crate for the P2 "Implementing Declarative Overlays" reproduction.
//!
//! This crate exists to host the workspace-level runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`); the library
//! functionality lives in the `crates/` members:
//!
//! * `p2-value`, `p2-pel`, `p2-table`, `p2-dataflow` — the runtime substrate;
//! * `p2-overlog`, `p2-core` — the OverLog language and planner (the paper's
//!   contribution);
//! * `p2-netsim`, `p2-overlays`, `p2-baseline`, `p2-harness`, `p2-bench` —
//!   the simulated testbed, shipped overlay specifications, the hand-coded
//!   comparison baseline, and the evaluation harness.
//!
//! See README.md for a tour and DESIGN.md for the system inventory.

/// Re-export of the most commonly used entry points, so examples and tests
/// can be read without chasing crate boundaries.
pub mod prelude {
    pub use p2_core::{NodeConfig, P2Node};
    pub use p2_harness::{BaselineCluster, ChordCluster, ChordClusterBuilder};
    pub use p2_netsim::{NetworkConfig, Simulator};
    pub use p2_overlays::{chord, gossip, monitor, narada, P2Host};
    pub use p2_overlog::compile_checked;
    pub use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};
}
