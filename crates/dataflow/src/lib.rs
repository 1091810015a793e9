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
//! * [`Engine`] and [`Graph`] — per-node execution: an explicit work queue
//!   (push semantics), a timer wheel, network send collection, and runtime
//!   statistics;
//! * [`elements`] — the element library used by the OverLog planner:
//!   demultiplexers, queues, equijoins, anti-joins, selections, projections,
//!   per-event and materialized aggregates, table insert/delete bridges,
//!   periodic event sources, network output, and debugging taps.
//!
//! # Incremental dataflow
//!
//! Stored tables publish their mutations as per-subscriber delta streams
//! (`p2_table::Table::subscribe_deltas`: `Insert`, `Delete`, `Expire`,
//! `Evict`, with replacement encoded as a Delete/Insert pair). One element
//! consumes them instead of rescanning its base table:
//! [`elements::TableAgg`] (materialized aggregates maintained per delta).
//! In-strand aggregation ([`elements::AggProbe`]) is not a delta consumer:
//! its result depends on the event as much as on the table, so it reads
//! the table per event — through the join's access path when it has a
//! key, else through a group index on the table (one evaluation per
//! distinct row projection) — and keeps no state between events. Rule
//! strands likewise re-derive per trigger — derived soft state
//! stays alive by being re-derived on refresh, as in the paper. The
//! consumer's fallback contract: a bounded per-subscriber delta log
//! (`p2_table::DELTA_LOG_CAP`) whose overflow — or any detected
//! incoherence — triggers a rebuild from a counted scan that restores
//! bit-for-bit the rescanning behaviour, observable via
//! `p2_table::TableStats` (`overflows`, `rebuilds`, `full_scans`). Its
//! quiet fast path: a subscription's lock-free pending flag
//! (`p2_table::DeltaSubscription::has_pending`) lets a sync poked on every
//! event cost one atomic load — no table lock, no drain — when nothing
//! changed, which under refresh-heavy workloads (pure refreshes log no
//! delta) is the overwhelmingly common case.
//!
//! Deviation from the 2005 C++ implementation: the original uses push *and*
//! pull ports with continuation callbacks for flow control; here every edge
//! is push-driven from an explicit FIFO work queue and back-pressure is
//! exercised at the network boundary by the simulator (see DESIGN.md §5.1).

pub mod element;
pub mod elements;
pub mod engine;

pub use element::{Element, ElementCtx, Outgoing};
pub use engine::{Engine, EngineStats, Graph, Route};
