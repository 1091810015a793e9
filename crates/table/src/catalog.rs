//! The per-node catalog of materialized tables.
//!
//! Tables are "named using unique IDs, and consequently can be shared
//! between different queries and/or dataflow elements" (§3.2). The catalog
//! owns one shared handle per declared table; dataflow elements clone the
//! handle they need.
//!
//! # Change counters
//!
//! Every mutation that reaches a table through the catalog — dataflow
//! inserts and deletes, and the periodic [`Catalog::expire_all`] sweep —
//! moves that table's [`Table::version`] when it changes a row. Expiry
//! sends no tuple through the dataflow graph, so a consumer of a whole
//! table (the `TableAgg` element in `p2-dataflow`) sees it as a moved
//! counter at its next poke.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::spec::TableSpec;
use crate::table::Table;

/// A shared, internally synchronized handle to a table.
///
/// A P2 node is single-threaded (run-to-completion), so the lock is never
/// contended. It was introduced so that node state could move across
/// threads, but nothing does that any more: every simulation runs its
/// nodes on one thread, and compiled plans, which are shared process-wide,
/// name tables by slot rather than by handle. The uncontended lock costs two
/// atomic read-modify-write operations per access: the vendored
/// `parking_lot` wraps `std::sync::Mutex`, whose lock and unlock each take
/// one. That cost does not show end to end: with this alias swapped for an
/// `Rc` of a `RefCell` wrapper keeping a `lock()` method, five interleaved
/// pairs of the end-to-end benchmark on a shared 2-core Xeon moved
/// `us_per_event` from 11.28 to 10.73 µs (medians, 4/5 pairs lower) on a
/// converged 100-node Chord ring and from 12.33 to 12.57 µs (2/5 lower) on
/// a 300-node one, both inside run-to-run noise. Dropping the lock is a
/// simplification, not a speed-up.
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
    /// and only finite-lifetime tables are visited at all. A table that
    /// loses rows moves its [`Table::version`]; the others keep theirs.
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
    use p2_value::{SimTime, TupleBuilder};

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

    /// `expire_all` moves the version of exactly the tables it removed rows
    /// from: not a table whose rows are all still live, and not an
    /// infinite-lifetime table, which it never visits.
    #[test]
    fn three_subscribers_drain_the_full_stream_independently() {
        let mut cat = Catalog::new();
        let spec = |name: &str, lifetime: Option<u64>| {
            let spec = TableSpec::new(name, vec![0]);
            match lifetime {
                Some(secs) => spec.with_lifetime_secs(secs),
                None => spec,
            }
        };
        let tables = [
            cat.declare(spec("short", Some(10))),
            cat.declare(spec("long", Some(1_000))),
            cat.declare(spec("forever", None)),
        ];
        for (t, name) in tables.iter().zip(["short", "long", "forever"]) {
            for (i, at) in [0u64, 5, 20].into_iter().enumerate() {
                t.lock()
                    .insert(
                        TupleBuilder::new(name).push(i as i64).build(),
                        SimTime::from_secs(at),
                    )
                    .unwrap();
            }
        }
        let versions = || tables.each_ref().map(|t| t.lock().version());

        let before = versions();
        assert_eq!(cat.expire_all(SimTime::from_secs(20)), 2);
        let after = versions();
        assert_eq!(after[0], before[0] + 2, "two expired rows, two steps");
        assert_eq!(after[1..], before[1..], "nothing expired there");

        // A sweep that expires nothing moves nothing.
        assert_eq!(cat.expire_all(SimTime::from_secs(21)), 0);
        assert_eq!(versions(), after);
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
