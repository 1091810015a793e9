//! The element library.
//!
//! These are the building blocks the OverLog planner assembles into per-node
//! dataflow graphs (paper §3.4): the rule strand (probes, anti-joins,
//! selections, assignments, aggregation and the head projection in one
//! element), bridges to stored tables (insert, delete, materialized
//! aggregates), event sources (`periodic`), network egress, and
//! general-purpose glue (demultiplexers, queues, taps).

mod glue;
mod net;
mod relational;
mod source;
mod strand;
mod table_ops;

pub use glue::{Collector, CollectorHandle, Demux, Queue};
pub use net::NetOut;
pub use relational::ProbeKey;
pub use source::Periodic;
pub use strand::{AggOp, FusedStrand, StrandBody, StrandOp};
pub use table_ops::{Delete, Insert, TableAgg};
