//! The element library.
//!
//! These are the building blocks the OverLog planner assembles into per-node
//! dataflow graphs (paper §3.4): the rule strand (probes, anti-joins,
//! selections, assignments, aggregation and the head projection in one
//! element), bridges to stored tables (insert, materialized aggregates),
//! event sources (`periodic`), and general-purpose glue (queues, taps).
//! Heads route themselves through the engine (`crate::Head`), so there is
//! no network-egress, demultiplexer or delete element.

mod glue;
mod relational;
mod source;
mod strand;
mod table_ops;

pub use glue::{Collector, CollectorHandle, Queue};
pub use relational::ProbeKey;
pub use source::Periodic;
pub use strand::{AggOp, FusedStrand, StrandBody, StrandOp};
pub use table_ops::{Insert, TableAgg};
