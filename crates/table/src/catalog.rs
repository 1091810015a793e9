//! The per-node catalog of materialized tables.
//!
//! Tables are "named using unique IDs, and consequently can be shared
//! between different queries and/or dataflow elements" (§3.2). The catalog
//! owns one shared handle per declared table; dataflow elements clone the
//! handle they need.
//!
//! # Delta plumbing
//!
//! Every mutation that reaches a table through the catalog — dataflow
//! inserts and deletes, and the periodic [`Catalog::expire_all`] sweep —
//! feeds the table's [delta protocol](crate::table): a consumer that called
//! [`Table::subscribe_deltas`] on the shared handle sees the exact
//! `Insert`/`Delete`/`Expire`/`Evict` stream instead of re-probing table
//! state. The incremental `TableAgg` element in
//! `p2-dataflow` is the canonical consumer; expiry and eviction — which
//! previously changed state without any dataflow-visible signal — are
//! observable through the same stream.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::spec::TableSpec;
use crate::table::Table;

/// A shared, internally synchronized handle to a table.
///
/// A P2 node is single-threaded (run-to-completion), so the lock is never
/// contended in practice; it exists so that node state can be moved across
/// threads by the experiment harness (parameter sweeps run simulations in
/// parallel).
pub type TableRef = Arc<Mutex<Table>>;

/// All materialized tables of one node.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, TableRef>,
    /// The tables with a finite lifetime, in declaration order: the
    /// periodic expiry sweep only visits these (infinite-lifetime tables
    /// can never expire, so locking them per delivery is pure overhead).
    expiring: Vec<TableRef>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Declares a table (no-op if a table with this name already exists,
    /// mirroring P2's idempotent handling of repeated materialize statements
    /// when several overlays share definitions).
    pub fn declare(&mut self, spec: TableSpec) -> TableRef {
        if let Some(existing) = self.tables.get(&spec.name) {
            return existing.clone();
        }
        let expires = spec.lifetime.is_some();
        let table: TableRef = Arc::new(Mutex::new(Table::new(spec.clone())));
        self.tables.insert(spec.name, table.clone());
        if expires {
            self.expiring.push(table.clone());
        }
        table
    }

    /// Returns the table with the given name, if declared.
    pub fn get(&self, name: &str) -> Option<TableRef> {
        self.tables.get(name).cloned()
    }

    /// True if `name` is a declared (materialized) table; everything else is
    /// a transient stream.
    pub fn is_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all declared tables.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Total approximate resident bytes across all tables (footprint metric).
    pub fn resident_bytes(&self) -> usize {
        self.tables
            .values()
            .map(|t| t.lock().resident_bytes())
            .sum()
    }

    /// Expires soft state in every table; returns the number of expired rows.
    ///
    /// Uses [`Table::expire_count`], so the periodic sweep neither collects
    /// the expired tuples nor scans live rows — each table pays O(log n) for
    /// the staleness-queue peek plus O(log n) per row actually expired —
    /// and only finite-lifetime tables are visited at all. Expiry feeds the
    /// tables' delta streams, so subscribed aggregates observe it exactly.
    pub fn expire_all(&self, now: p2_value::SimTime) -> usize {
        self.expiring
            .iter()
            .map(|t| t.lock().expire_count(now))
            .sum()
    }

    /// Per-table operation counters, sorted by table name (storage
    /// observability: un-indexed scans, expirations, evictions).
    pub fn table_stats(&self) -> Vec<(String, crate::table::TableStats)> {
        let mut out: Vec<(String, crate::table::TableStats)> = self
            .tables
            .iter()
            .map(|(name, t)| (name.clone(), t.lock().stats()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Sum of the operation counters across all tables.
    pub fn stats_total(&self) -> crate::table::TableStats {
        let mut total = crate::table::TableStats::default();
        for t in self.tables.values() {
            total += t.lock().stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::{SimTime, TupleBuilder, Value};

    #[test]
    fn declare_and_share() {
        let mut cat = Catalog::new();
        let a = cat.declare(TableSpec::new("succ", vec![1]));
        let b = cat.declare(TableSpec::new("succ", vec![1]));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cat.is_table("succ"));
        assert!(!cat.is_table("lookup"));
        assert_eq!(cat.names(), vec!["succ".to_string()]);
    }

    #[test]
    fn expire_all_sweeps_every_table() {
        let mut cat = Catalog::new();
        let t1 = cat.declare(TableSpec::new("a", vec![0]).with_lifetime_secs(5));
        let t2 = cat.declare(TableSpec::new("b", vec![0]).with_lifetime_secs(5));
        t1.lock()
            .insert(TupleBuilder::new("a").push(1i64).build(), SimTime::ZERO)
            .unwrap();
        t2.lock()
            .insert(TupleBuilder::new("b").push(2i64).build(), SimTime::ZERO)
            .unwrap();
        assert_eq!(cat.expire_all(SimTime::from_secs(10)), 2);
        assert!(t1.lock().is_empty() && t2.lock().is_empty());
    }

    #[test]
    fn three_subscribers_drain_the_full_stream_independently() {
        use crate::table::TableDeltaKind;

        let mut cat = Catalog::new();
        let t = cat.declare(
            TableSpec::new("succ", vec![1])
                .with_lifetime_secs(10)
                .with_max_size(4),
        );
        let [s1, s2, s3] = [(); 3].map(|()| t.lock().subscribe_deltas());
        let succ = |s: i64, si: &str| {
            TupleBuilder::new("succ")
                .push("n1")
                .push(s)
                .push(si)
                .build()
        };

        // Phase 1: five inserts into a 4-row bound (one eviction), then a
        // replacement (Delete + Insert of the same key).
        for (i, s) in [1i64, 2, 3, 4, 5].iter().enumerate() {
            t.lock()
                .insert(succ(*s, "x"), SimTime::from_secs(i as u64))
                .unwrap();
        }
        t.lock()
            .insert(succ(2, "y"), SimTime::from_secs(5))
            .unwrap();

        // s1 drains mid-stream; the other queues are untouched by it.
        let mut d1 = Vec::new();
        assert!(!t.lock().drain_deltas(&s1, &mut d1));
        let phase1 = d1.len();
        assert!(phase1 > 0);

        // Phase 2: an explicit delete and an expiry sweep.
        t.lock().delete_key(&[Value::Int(3)]);
        assert!(cat.expire_all(SimTime::from_secs(100)) > 0);

        // s1 picks up only phase 2; s2 and s3 each still hold the full
        // stream, drained independently and identically.
        assert!(!t.lock().drain_deltas(&s1, &mut d1));
        let (mut d2, mut d3) = (Vec::new(), Vec::new());
        assert!(!t.lock().drain_deltas(&s2, &mut d2));
        assert!(!t.lock().drain_deltas(&s3, &mut d3));
        assert_eq!(d1, d2, "split drain concatenates to the full stream");
        assert_eq!(d2, d3, "subscribers see identical streams");
        for kind in [
            TableDeltaKind::Insert,
            TableDeltaKind::Delete,
            TableDeltaKind::Expire,
            TableDeltaKind::Evict,
        ] {
            assert!(
                d2.iter().any(|d| d.kind == kind),
                "stream is missing {kind:?}"
            );
        }
    }

    #[test]
    fn resident_bytes_sums_tables() {
        let mut cat = Catalog::new();
        let t = cat.declare(TableSpec::new("a", vec![0]));
        assert_eq!(cat.resident_bytes(), 0);
        t.lock()
            .insert(TupleBuilder::new("a").push("hello").build(), SimTime::ZERO)
            .unwrap();
        assert!(cat.resident_bytes() > 0);
    }
}
