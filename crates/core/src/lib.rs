//! P2 — the declarative overlay engine.
//!
//! This crate is the paper's primary contribution wired together: it takes a
//! parsed and validated OverLog program (from `p2-overlog`) and *plans* it
//! into a per-node dataflow graph of elements (from `p2-dataflow`) over
//! soft-state tables (from `p2-table`), then exposes the running node as
//! [`P2Node`].
//!
//! The planning pipeline follows §3.5 of the paper:
//!
//! 1. tables and indices are created for every `materialize` statement
//!    (primary-key indices plus secondary indices on equijoin columns);
//! 2. each rule becomes one or more *strands*: a triggering event source
//!    (network arrival, local table delta, or `periodic` timer) followed by
//!    a chain of equijoins against materialized tables, selection filters
//!    compiled to PEL, optional aggregation, and a projection that builds
//!    the head tuple;
//! 3. head tuples are routed by their location specifier: tuples for the
//!    local node wrap straight back into the node's main demultiplexer,
//!    tuples for other nodes leave through the network egress element;
//! 4. a shared demultiplexer classifies every incoming tuple by name and
//!    feeds table inserts, rule strands and watchpoints.
//!
//! The result is a node whose behaviour is determined entirely by the
//! OverLog text, exactly as in the original system.

pub mod binding;
pub mod error;
pub mod node;
pub mod planner;

pub use error::PlanError;
pub use node::{NodeConfig, P2Node};
pub use planner::{PlanConfig, Planned, PlannedProgram};

// Re-exported so downstream crates can name the types appearing in
// `P2Node`'s public API without depending on the dataflow crate directly.
pub use p2_dataflow::elements::CollectorHandle;
pub use p2_dataflow::{EngineStats, Outgoing};
