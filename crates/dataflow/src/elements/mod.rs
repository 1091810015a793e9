//! The element library.
//!
//! These are the building blocks the OverLog planner assembles into per-node
//! dataflow graphs (paper §3.4): relational operators (equijoin, anti-join,
//! selection, projection, aggregation), bridges to stored tables (insert,
//! delete, materialized aggregates), event sources (`periodic`), network
//! egress, and general-purpose glue (demultiplexers, queues, taps).

mod glue;
mod net;
mod relational;
mod source;
mod strand;
mod table_ops;

pub use glue::{Collector, CollectorHandle, Demux, Queue};
pub use net::NetOut;
pub use relational::{AntiJoin, Join, ProbeKey, Project, Select};
pub use source::Periodic;
pub use strand::{FusedStrand, StrandOp, MAX_STRAND_PROBES};
pub use table_ops::{AggProbe, Delete, Insert, TableAgg};
