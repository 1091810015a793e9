//! The P2 dataflow framework.
//!
//! P2 executes overlay specifications as graphs of small dataflow *elements*
//! in the style of the Click modular router: each element has input and
//! output ports, tuples flow along the edges, and a per-node engine drives
//! the graph to completion for every external event (timer firing or packet
//! arrival), mirroring the single-threaded, run-to-completion `libasync`
//! loop of the original system.
//!
//! The crate provides:
//!
//! * [`Element`] and [`ElementCtx`] — the element interface;
//! * [`Engine`], [`Graph`] and [`Routing`] — per-node execution: an
//!   explicit work queue (push semantics), a timer wheel, network send
//!   collection, and runtime statistics, over a compiled routing table that
//!   engines running the same graph shape share;
//! * [`elements`] — the element library used by the OverLog planner: the
//!   rule strand (probes, anti-joins, selections, assignments, per-row
//!   aggregation and the head projection in one element), materialized
//!   aggregates, table insert/delete bridges, demultiplexers, queues,
//!   periodic event sources, network output, and debugging taps.
//!
//! # Tables are re-read, not mirrored
//!
//! No element keeps an incremental copy of table state. Rule strands
//! re-derive per trigger, so derived soft state stays alive by being
//! re-derived on refresh, as in the paper. In-strand aggregation
//! ([`elements::AggOp`]) reads the table per strand row, through a probe's
//! access path when it has a key, else through a group index on the table
//! (one evaluation per distinct row projection). A materialized aggregate
//! ([`elements::TableAgg`]) keeps only what it last emitted and re-reads
//! its whole table when the table's change counter
//! (`p2_table::Table::version`) has moved since its last read; a poke that
//! finds the counter unmoved costs one comparison. Under
//! refresh-heavy workloads that is most pokes, since a refresh leaves the
//! counter alone.
//!
//! A PEL evaluation that fails drops what it was evaluating and is counted
//! in [`EngineStats::eval_errors`].
//!
//! Deviation from the 2005 C++ implementation: the original uses push *and*
//! pull ports with continuation callbacks for flow control; here every edge
//! is push-driven from an explicit FIFO work queue and back-pressure is
//! exercised at the network boundary by the simulator (see DESIGN.md §5.1).

pub mod element;
pub mod elements;
pub mod engine;

pub use element::{Element, ElementCtx, Outgoing};
pub use engine::{Engine, EngineStats, Graph, Route, Routing};
