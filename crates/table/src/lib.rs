//! Soft-state tables for the P2 dataflow engine.
//!
//! OverLog `materialize(name, lifetime, size, keys(...))` statements declare
//! tables; everything else is a transient stream. This crate implements the
//! table layer described in §3.2 of the paper:
//!
//! * tuples are retained for at most `lifetime` seconds (soft state) and the
//!   table holds at most `size` rows (FIFO eviction);
//! * every table has a primary key — inserting a tuple with an existing key
//!   replaces the old row (this is how `sequence`, `bestSucc`,
//!   `nextFingerFix` behave as updatable singletons);
//! * in-memory secondary indices provide fast equality lookups for the
//!   rule strands' probes, and group indices let a strand's aggregation
//!   read a table one distinct projection at a time;
//! * filters written in PEL can be applied to table scans;
//! * aggregates (min/max/count/sum/avg) can be computed over a table with
//!   optional group-by, and a change counter ([`Table::version`]) says when
//!   one is stale, which backs the "aggregate elements that maintain an
//!   up-to-date aggregate on a table" of §3.4.
//!
//! # Storage engine
//!
//! [`table::Table`] is a slab-backed storage engine: rows live in
//! `Vec<Option<Row>>` slots addressed by a compact [`RowId`], the primary
//! and secondary indices map 64-bit value hashes to `RowId`s (no key-vector
//! cloning), and a `BTreeSet<(SimTime, RowId)>` staleness queue makes
//! eviction-victim selection O(log n) and `expire(now)` O(rows actually
//! expired) — the seed implementation paid an O(n) scan for both on every
//! bounded insert and engine tick. Borrowing accessors
//! ([`Table::scan_iter`], [`Table::lookup_iter`], [`Table::get_ref`],
//! [`Table::contains_match`]) give the dataflow elements allocation-free
//! probe paths; see `table.rs`'s module docs for the full complexity table,
//! and [`TableStats`] for the per-table operation counters (including the
//! `full_scans` counter that makes un-indexed lookups observable).

pub mod aggregate;
pub mod catalog;
pub mod spec;
pub mod table;

pub use aggregate::{AggFunc, AggState};
pub use catalog::{Catalog, TableRef};
pub use spec::TableSpec;
pub use table::{Group, InsertOutcome, LookupIter, ProbeValue, RowId, Table, TableStats};
