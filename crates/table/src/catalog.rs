//! How a program names its tables, and one node's tables read by name.
//!
//! Tables are "named using unique IDs, and consequently can be shared
//! between different queries and/or dataflow elements" (§3.2). A program's
//! [`Schema`] gives each declared table an id: its index in the `[Table]`
//! slice that every node of the program owns. The schema is built once per
//! plan and shared by every node; dataflow elements name tables by id, and
//! a node keeps no map of its own. [`Catalog`] pairs the schema with one
//! node's tables, to read them by name.
//!
//! # Change counters
//!
//! Every mutation of a table — dataflow inserts and deletes, and the
//! periodic [`Schema::expire_all`] sweep — moves that table's
//! [`Table::version`] when it changes a row. Expiry sends no tuple through
//! the dataflow graph, so a consumer of a whole table (the `TableAgg`
//! element in `p2-dataflow`) sees it as a moved counter at its next poke.

use std::collections::HashMap;

use crate::spec::TableSpec;
use crate::table::{Table, TableStats};

/// The tables a program declares: the id of each name, and which tables
/// can expire.
#[derive(Debug)]
pub struct Schema {
    ids: HashMap<String, usize>,
    /// The ids of the tables with a finite lifetime, ascending: the
    /// periodic expiry sweep only visits these (infinite-lifetime tables
    /// can never expire).
    expiring: Box<[usize]>,
}

impl Schema {
    /// The schema of the tables `specs` declares; the `i`-th spec gets id
    /// `i`. Panics if two specs share a name.
    pub fn new<'a>(specs: impl IntoIterator<Item = &'a TableSpec>) -> Schema {
        let mut ids = HashMap::new();
        let mut expiring = Vec::new();
        for (id, spec) in specs.into_iter().enumerate() {
            let repeated = ids.insert(spec.name.clone(), id).is_some();
            assert!(!repeated, "table `{}` declared twice", spec.name);
            if spec.lifetime.is_some() {
                expiring.push(id);
            }
        }
        Schema {
            ids,
            expiring: expiring.into(),
        }
    }

    /// The id of the table named `name`, if declared.
    pub fn id(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }

    /// Expires soft state in every table of a node (`tables[id]` is table
    /// `id`); returns the number of expired rows.
    ///
    /// Uses [`Table::expire_count`], so the periodic sweep neither collects
    /// the expired tuples nor scans live rows — each table pays O(log n) for
    /// the staleness-queue peek plus O(log n) per row actually expired —
    /// and only finite-lifetime tables are visited at all. A table that
    /// loses rows moves its [`Table::version`]; the others keep theirs.
    pub fn expire_all(&self, tables: &mut [Table], now: p2_value::SimTime) -> usize {
        self.expiring
            .iter()
            .map(|&id| tables[id].expire_count(now))
            .sum()
    }
}

/// One node's tables, read by name through the program's [`Schema`].
#[derive(Debug, Clone, Copy)]
pub struct Catalog<'a> {
    schema: &'a Schema,
    tables: &'a [Table],
}

impl<'a> Catalog<'a> {
    /// Names `tables` (`tables[id]` is table `id`) through `schema`.
    pub fn new(schema: &'a Schema, tables: &'a [Table]) -> Catalog<'a> {
        Catalog { schema, tables }
    }

    /// The table with the given name, if declared.
    pub fn get(&self, name: &str) -> Option<&'a Table> {
        self.schema.id(name).map(|id| &self.tables[id])
    }

    /// Names of all declared tables, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.iter().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// Total approximate resident bytes across all tables (footprint metric).
    pub fn resident_bytes(&self) -> usize {
        self.tables.iter().map(Table::resident_bytes).sum()
    }

    /// Sum of the operation counters across all tables.
    pub fn stats_total(&self) -> TableStats {
        let mut total = TableStats::default();
        for t in self.tables {
            total += t.stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::{SimTime, TupleBuilder};

    fn declare(specs: &[TableSpec]) -> (Schema, Vec<Table>) {
        let tables = specs.iter().cloned().map(Table::new).collect();
        (Schema::new(specs), tables)
    }

    #[test]
    fn declare_and_share() {
        let specs = [
            TableSpec::new("succ", vec![1]),
            TableSpec::new("pred", vec![0]),
        ];
        let (schema, tables) = declare(&specs);
        assert_eq!((schema.id("succ"), schema.id("pred")), (Some(0), Some(1)));
        assert_eq!(schema.id("lookup"), None);
        // One schema names the tables of every node that owns a copy.
        let (_, other) = declare(&specs);
        for node in [&tables, &other] {
            let cat = Catalog::new(&schema, node);
            assert!(std::ptr::eq(cat.get("succ").unwrap(), &node[0]));
            assert!(cat.get("lookup").is_none());
            assert_eq!(cat.names(), ["pred", "succ"]);
        }
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn a_name_declares_one_table() {
        let spec = TableSpec::new("succ", vec![1]);
        Schema::new([&spec, &spec]);
    }

    #[test]
    fn expire_all_sweeps_every_table() {
        let (schema, mut tables) = declare(&[
            TableSpec::new("a", vec![0]).with_lifetime_secs(5),
            TableSpec::new("b", vec![0]).with_lifetime_secs(5),
        ]);
        for (t, name) in tables.iter_mut().zip(["a", "b"]) {
            let row = TupleBuilder::new(name).push(1i64).build();
            t.insert(row, SimTime::ZERO).unwrap();
        }
        assert_eq!(schema.expire_all(&mut tables, SimTime::from_secs(10)), 2);
        assert!(tables.iter().all(Table::is_empty));
    }

    /// `expire_all` moves the version of exactly the tables it removed rows
    /// from: not a table whose rows are all still live, and not an
    /// infinite-lifetime table, which it never visits.
    #[test]
    fn three_subscribers_drain_the_full_stream_independently() {
        let (schema, mut tables) = declare(&[
            TableSpec::new("short", vec![0]).with_lifetime_secs(10),
            TableSpec::new("long", vec![0]).with_lifetime_secs(1_000),
            TableSpec::new("forever", vec![0]),
        ]);
        for t in &mut tables {
            for (i, at) in [0u64, 5, 20].into_iter().enumerate() {
                let row = TupleBuilder::new(t.name()).push(i as i64).build();
                t.insert(row, SimTime::from_secs(at)).unwrap();
            }
        }
        let versions = |tables: &[Table]| tables.iter().map(Table::version).collect::<Vec<_>>();

        let before = versions(&tables);
        assert_eq!(schema.expire_all(&mut tables, SimTime::from_secs(20)), 2);
        let after = versions(&tables);
        assert_eq!(after[0], before[0] + 2, "two expired rows, two steps");
        assert_eq!(after[1..], before[1..], "nothing expired there");

        // A sweep that expires nothing moves nothing.
        assert_eq!(schema.expire_all(&mut tables, SimTime::from_secs(21)), 0);
        assert_eq!(versions(&tables), after);
    }

    #[test]
    fn resident_bytes_sums_tables() {
        let (schema, mut tables) = declare(&[TableSpec::new("a", vec![0])]);
        assert_eq!(Catalog::new(&schema, &tables).resident_bytes(), 0);
        let row = TupleBuilder::new("a").push("hello").build();
        tables[0].insert(row, SimTime::ZERO).unwrap();
        assert!(Catalog::new(&schema, &tables).resident_bytes() > 0);
    }
}
