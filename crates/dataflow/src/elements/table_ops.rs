//! Elements bridging the dataflow graph and stored tables: insert and
//! materialized table aggregates. (A rule's per-row aggregation over a
//! table is a strand op, `crate::elements::AggOp`; a `delete` rule's head
//! is a `crate::Head::Delete` the engine runs.)
//!
//! # Materialized aggregation
//!
//! [`TableAgg`] keeps a rule like `succCount(NI, count<*>) :- succ(NI, S,
//! SI)` up to date by re-reading its table, `Table::aggregate` from
//! scratch, whenever the table's change counter (`Table::version`) has
//! moved since the last read, and diffing the result against what it last
//! emitted. A poke that finds the counter where it was costs one
//! comparison. The tables it watches are small (Chord's `succ` holds at
//! most a handful of rows), so the whole-table fold is cheap, and there is
//! no running state to drift: every emission equals a from-scratch
//! recompute, floating-point sums included, which a property test checks
//! under arbitrary insert/delete/expire/evict interleavings.

use std::sync::Arc;

use p2_table::{AggFunc, InsertOutcome};
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};

/// Stores arriving tuples into a table and re-emits them as *deltas*.
///
/// Every accepted insert (new row, replacement, or soft-state refresh) is
/// forwarded on port 0 so that downstream rules triggered by updates to this
/// table (e.g. `bestSucc :- succ, ...`) see the change. Rows evicted by the
/// size bound are emitted on port 1 for optional handling.
pub struct Insert {
    /// The table's id.
    table: usize,
    /// Number of inserts that failed (malformed tuples).
    pub errors: u64,
    /// Reused eviction spill buffer: eviction-heavy tables hit the
    /// size-bound path on every insert, and this keeps that path from
    /// allocating a fresh `Vec` per tuple (`Table::insert_spill`).
    spill: Vec<Tuple>,
}

impl Insert {
    /// Creates an insert bridge for the table with id `table`.
    pub fn new(table: usize) -> Insert {
        Insert {
            table,
            errors: 0,
            spill: Vec::new(),
        }
    }
}

impl Element for Insert {
    fn class(&self) -> &'static str {
        "Insert"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        debug_assert!(self.spill.is_empty(), "spill buffer drained every call");
        let now = ctx.now();
        let result = ctx
            .table_mut(self.table)
            .insert_spill(tuple.clone(), now, &mut self.spill);
        match result {
            Ok(outcome) => {
                // A soft-state refresh of an identical row leaves the table
                // unchanged; anything else (new row, replacement, eviction)
                // is a real mutation the profiler should see.
                if !matches!(outcome, InsertOutcome::Refreshed) || !self.spill.is_empty() {
                    ctx.note_state_change();
                }
                ctx.emit(0, tuple.clone());
                for e in self.spill.drain(..) {
                    ctx.emit(1, e);
                }
            }
            Err(_) => {
                self.errors += 1;
                self.spill.clear();
            }
        }
    }
}

/// Materialized aggregate over a table, re-emitted whenever it changes.
///
/// Implements rules whose body consists solely of a table and whose head
/// carries an aggregate (`succCount(NI, count<*>) :- succ(NI, S, SI)`); the
/// planner routes the table's insert and delete pokes here. A poke compares
/// the table's [`Table::version`] with the version last folded. If the
/// counter moved (an insert, replacement or delete, or an expiry or
/// eviction since the last poke), the element folds [`Table::aggregate`]
/// from scratch and walks the live groups and the last-emitted ones in one
/// sorted pass. It emits `out_name(group..., agg)` for every group whose
/// value changed. A group whose last row vanished emits its empty value
/// (`count`/`sum` 0) if it has one, and is forgotten either way, so a
/// re-appearance re-emits.
///
/// [`Table::version`]: p2_table::Table::version
/// [`Table::aggregate`]: p2_table::Table::aggregate
pub struct TableAgg {
    /// The table's id.
    table: usize,
    func: AggFunc,
    agg_col: Option<usize>,
    group_cols: Vec<usize>,
    out_name: Arc<str>,
    /// The table version `last` was folded from; `None` until the first
    /// fold succeeds.
    folded: Option<u64>,
    /// Last emitted value per group, sorted by group.
    last: Vec<(Vec<Value>, Value)>,
}

impl TableAgg {
    /// Creates a materialized aggregate over the table with id `table`.
    pub fn new(
        table: usize,
        func: AggFunc,
        agg_col: Option<usize>,
        group_cols: Vec<usize>,
        out_name: impl Into<Arc<str>>,
    ) -> TableAgg {
        TableAgg {
            table,
            func,
            agg_col,
            group_cols,
            out_name: out_name.into(),
            folded: None,
            last: Vec::new(),
        }
    }

    /// Re-folds the table if it changed since the last fold and emits every
    /// group whose aggregate changed, in group order.
    fn sync(&mut self, ctx: &mut ElementCtx<'_>) {
        let table = ctx.table(self.table);
        let version = table.version();
        if self.folded == Some(version) {
            return;
        }
        let live = table.aggregate(self.func, self.agg_col, &self.group_cols);
        // The table changed: this poke does real maintenance work.
        ctx.note_state_change();
        let live = match live {
            Ok(live) => {
                self.folded = Some(version);
                live
            }
            // A value the aggregate cannot take (non-numeric `sum`): emit
            // nothing, and fold again at the next poke.
            Err(_) => return,
        };
        let empty = self.func.apply(&[]).ok().flatten();
        let mut last = std::mem::take(&mut self.last).into_iter().peekable();
        for (group, agg) in &live {
            while let Some((gone, _)) = last.next_if(|(old, _)| old < group) {
                self.emit(gone, empty.as_ref(), ctx);
            }
            let same = last.next_if(|(old, _)| old == group);
            if same.is_none_or(|(_, was)| was != *agg) {
                self.emit(group.clone(), Some(agg), ctx);
            }
        }
        for (gone, _) in last {
            self.emit(gone, empty.as_ref(), ctx);
        }
        self.last = live;
    }

    /// Emits `out_name(group..., agg)`; a vanished group without an empty
    /// value (`min`/`max`/`avg`) has no `agg` and emits nothing.
    fn emit(&self, mut group: Vec<Value>, agg: Option<&Value>, ctx: &mut ElementCtx<'_>) {
        if let Some(agg) = agg {
            group.push(agg.clone());
            ctx.emit(0, Tuple::new(self.out_name.clone(), group));
        }
    }
}

impl Element for TableAgg {
    fn class(&self) -> &'static str {
        "TableAgg"
    }

    fn push(&mut self, _port: usize, _tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }

    fn on_start(&mut self, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{AggOp, Collector, FusedStrand};
    use crate::engine::{Engine, Graph, Head, Route};
    use p2_pel::{BinOp, Expr, IntervalKind, Program};
    use p2_table::{Table, TableSpec};
    use p2_value::{SimTime, TupleBuilder, Uint160};

    fn table(spec: TableSpec, rows: Vec<Tuple>) -> Table {
        let mut t = Table::new(spec);
        for r in rows {
            t.insert(r, SimTime::ZERO).unwrap();
        }
        t
    }

    /// A strand whose only op is `agg`, emitting `trigger ++ witness ++
    /// [aggregate]` (`width` fields) under `out_name`.
    fn agg_strand(agg: AggOp, width: usize, out_name: &str) -> Box<dyn Element> {
        let head = (0..width).map(|i| Program::compile(&Expr::Field(i)));
        Box::new(FusedStrand::new(
            vec![],
            vec![agg.into()],
            head.collect(),
            out_name,
        ))
    }

    /// Runs `element` on a node whose table 0 is `table`.
    fn run_one(element: Box<dyn Element>, table: Table, inputs: Vec<Tuple>) -> Vec<Tuple> {
        run_counted(element, table, inputs).0
    }

    /// Like [`run_one`], also returning the engine, for its counters and
    /// its table.
    fn run_counted(
        element: Box<dyn Element>,
        table: Table,
        inputs: Vec<Tuple>,
    ) -> (Vec<Tuple>, Engine) {
        let mut g = Graph::new();
        g.add_table(table);
        let e = g.add("elt", element);
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(e, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        engine.start(SimTime::ZERO);
        for i in inputs {
            engine.deliver(i, SimTime::from_secs(1));
        }
        let out = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        (out, engine)
    }

    #[test]
    fn insert_stores_and_emits_delta() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let insert = Insert::new(0);
        let tup = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        let (out, engine) = run_counted(Box::new(insert), t, vec![tup.clone()]);
        assert_eq!(out, vec![tup]);
        assert_eq!(engine.tables()[0].len(), 1);
    }

    #[test]
    fn insert_emits_evictions_on_port_one() {
        let mut g = Graph::new();
        let t = g.add_table(table(
            TableSpec::new("succ", vec![1]).with_max_size(1),
            vec![],
        ));
        let e = g.add("insert", Box::new(Insert::new(t)));
        let (c, evicted_buf) = Collector::new();
        let c = g.add("evicted", Box::new(c));
        g.connect(e, 1, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        for s in [5i64, 9] {
            let tup = TupleBuilder::new("succ")
                .push("n1")
                .push(s)
                .push("x")
                .build();
            engine.deliver(tup, SimTime::from_secs(s as u64));
        }
        assert_eq!(engine.tables()[t].len(), 1);
        assert_eq!(evicted_buf.lock().len(), 1);
    }

    /// An op-less strand projecting its trigger's `width` fields under
    /// `name`: a `delete` rule's strand.
    fn projection(width: usize, name: &str) -> Box<dyn Element> {
        let head = (0..width).map(|i| Program::compile(&Expr::Field(i)));
        Box::new(FusedStrand::new(vec![], vec![], head.collect(), name))
    }

    #[test]
    fn delete_removes_and_emits() {
        let row = TupleBuilder::new("neighbor").push("n1").push("n2").build();
        let mut g = Graph::new();
        let t = g.add_table(table(
            TableSpec::new("neighbor", vec![1]),
            vec![row.clone()],
        ));
        let del = g.add("delete", projection(2, "neighbor"));
        g.set_head(del, 0, Head::Delete { table: t });
        let (c, buf) = Collector::new();
        let c = g.add("removed", Box::new(c));
        g.connect(del, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: del,
            port: 0,
        });
        // A miss removes nothing and emits nothing; the hit emits the
        // removed row to the slot's routes.
        let other = TupleBuilder::new("neighbor").push("n1").push("n3").build();
        engine.deliver(other, SimTime::from_secs(1));
        assert!(buf.lock().is_empty());
        engine.deliver(row.clone(), SimTime::from_secs(1));
        let removed: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(removed, vec![row]);
        assert!(engine.tables()[t].is_empty());
        assert_eq!(engine.stats().malformed_heads, 0);
        // Two strand calls and the collector's one: the delete itself
        // calls no element.
        assert_eq!(engine.stats().handoffs, 2 + 1);
    }

    #[test]
    fn agg_probe_min_distance_like_chord_lookup() {
        // finger(NI, I, B, BI) rows; the event is lookup(NI, K, R, E) and we
        // aggregate D := K - B - 1 over fingers with B in (N, K).
        let fingers = vec![
            TupleBuilder::new("finger")
                .push("n1")
                .push(0i64)
                .push(Value::Id(Uint160::from_u64(10)))
                .push("n10")
                .build(),
            TupleBuilder::new("finger")
                .push("n1")
                .push(1i64)
                .push(Value::Id(Uint160::from_u64(40)))
                .push("n40")
                .build(),
            TupleBuilder::new("finger")
                .push("n1")
                .push(2i64)
                .push(Value::Id(Uint160::from_u64(90)))
                .push("n90")
                .build(),
        ];
        let t = table(TableSpec::new("finger", vec![2]), fingers);
        // Event tuple layout: (NI, K, R, E, N) — K at 1, N at 4.
        // Joined layout appends finger fields: I at 6, B at 7, BI at 8.
        let filter = Program::compile(&Expr::Interval {
            kind: IntervalKind::OpenOpen,
            value: Box::new(Expr::Field(7)),
            low: Box::new(Expr::Field(4)),
            high: Box::new(Expr::Field(1)),
        });
        let agg = Program::compile(&Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::Field(1), Expr::Field(7)),
            Expr::int(1),
        ));
        let probe = agg_strand(
            AggOp::new(0, 4, AggFunc::Min, Some(filter), agg),
            10,
            "bestLookupDist",
        );
        let event = TupleBuilder::new("lookup_node")
            .push("n1")
            .push(Value::Id(Uint160::from_u64(70)))
            .push("n1")
            .push(123i64)
            .push(Value::Id(Uint160::from_u64(5)))
            .build();
        let out = run_one(probe, t, vec![event]);
        assert_eq!(out.len(), 1);
        let got = &out[0];
        assert_eq!(got.name(), "bestLookupDist");
        // event (5 fields) ++ witness finger row (4 fields) ++ aggregate.
        assert_eq!(got.arity(), 10);
        // Fingers 10 and 40 are in (5, 70); min distance is 70-40-1 = 29,
        // achieved by the finger pointing at n40.
        assert_eq!(got.field(9), &Value::Id(Uint160::from_u64(29)));
        assert_eq!(got.field(8), &Value::str("n40"));
        assert_eq!(got.field(7), &Value::Id(Uint160::from_u64(40)));
    }

    #[test]
    fn agg_probe_max_picks_witness_row() {
        // Narada P0: pick the member with the maximum random number. Here we
        // use a deterministic "score" column instead of f_rand().
        let members = vec![
            TupleBuilder::new("member")
                .push("n1")
                .push("m1")
                .push(3i64)
                .build(),
            TupleBuilder::new("member")
                .push("n1")
                .push("m2")
                .push(9i64)
                .build(),
            TupleBuilder::new("member")
                .push("n1")
                .push("m3")
                .push(5i64)
                .build(),
        ];
        let t = table(TableSpec::new("member", vec![2]), members);
        // Event: (X, E); joined row starts at field 2, score at field 4.
        let agg = Program::compile(&Expr::Field(4));
        let probe = agg_strand(AggOp::new(0, 3, AggFunc::Max, None, agg), 6, "pingEvent");
        let event = TupleBuilder::new("periodic").push("n1").push(77i64).build();
        let out = run_one(probe, t, vec![event]);
        assert_eq!(out.len(), 1);
        // Witness row is m2 (score 9).
        assert_eq!(out[0].field(3), &Value::str("m2"));
        assert_eq!(out[0].field(5), &Value::Int(9));
    }

    #[test]
    fn agg_probe_count_emits_zero_and_min_does_not() {
        let t = || table(TableSpec::new("member", vec![1]), vec![]);
        let agg = Program::compile(&Expr::Field(0));
        let probe = AggOp::new(0, 3, AggFunc::Count, None, agg);
        let event = TupleBuilder::new("refresh").push("n1").build();
        let out = run_one(
            agg_strand(probe, 5, "membersFound"),
            t(),
            vec![event.clone()],
        );
        assert_eq!(out.len(), 1);
        // event (1) ++ null row padding (3) ++ count.
        assert_eq!(out[0].arity(), 5);
        assert_eq!(out[0].field(1), &Value::Null);
        assert_eq!(out[0].field(4), &Value::Int(0));

        let agg = Program::compile(&Expr::Field(0));
        let probe = AggOp::new(0, 3, AggFunc::Min, None, agg);
        assert!(run_one(agg_strand(probe, 5, "best"), t(), vec![event]).is_empty());
    }

    /// `member(X, A, S)` rows keyed on `A`, probed by `refresh(X, A)`
    /// events with `count<*>` — Narada's R5 in miniature.
    fn member_count_probe(rows: Vec<Tuple>, filter: Option<Program>) -> (Table, AggOp) {
        let t = table(TableSpec::new("member", vec![1]), rows);
        let one = Program::compile(&Expr::int(1));
        let probe = AggOp::new(0, 3, AggFunc::Count, filter, one);
        (t, probe)
    }

    fn member(a: impl Into<Value>, s: i64) -> Tuple {
        TupleBuilder::new("member")
            .push("n1")
            .push(a)
            .push(s)
            .build()
    }

    #[test]
    fn agg_probe_key_takes_the_primary_index() {
        let rows = (0..64i64).map(|i| member(format!("m{i}"), i)).collect();
        let (t, probe) = member_count_probe(rows, None);
        // Event field 1 (A) against member column 1: the primary key.
        let probe = probe.with_key(vec![(1, 1)]);
        let hit = TupleBuilder::new("refresh").push("n1").push("m7").build();
        let miss = TupleBuilder::new("refresh").push("n1").push("zz").build();
        let (out, engine) = run_counted(agg_strand(probe, 6, "membersFound"), t, vec![hit, miss]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].field(5), &Value::Int(1));
        assert_eq!(out[1].field(5), &Value::Int(0));
        let stats = engine.tables()[0].stats();
        assert_eq!((stats.primary_lookups, stats.full_scans), (2, 0));
    }

    /// The semantics of a pushed-down equality: a key compares by *index*
    /// equality (hash bucket, then `==`), like a join key. PEL `==` equates
    /// `Id(7)` with `Int(7)` but the two hash differently, so the same
    /// equality matches as a filter conjunct and misses as a key.
    #[test]
    fn agg_probe_key_uses_index_equality_for_id_vs_int() {
        let rows = || vec![member(Value::Id(Uint160::from_u64(7)), 1)];
        let event = TupleBuilder::new("refresh").push("n1").push(7i64).build();

        let eq = Program::compile(&Expr::bin(BinOp::Eq, Expr::Field(1), Expr::Field(3)));
        let (t, filtered) = member_count_probe(rows(), Some(eq));
        let out = run_one(agg_strand(filtered, 6, "out"), t, vec![event.clone()]);
        assert_eq!(out[0].field(5), &Value::Int(1));

        let (t, keyed) = member_count_probe(rows(), None);
        let keyed = agg_strand(keyed.with_key(vec![(1, 1)]), 6, "out");
        let out = run_one(keyed, t, vec![event]);
        assert_eq!(out[0].field(5), &Value::Int(0));
    }

    #[test]
    fn agg_probe_counts_one_eval_error_per_distinct_projection() {
        // count over 10 / S: S = 0 fails. Through the group index the three
        // S = 0 rows are one group, one evaluation and one error; the row
        // path evaluates, and fails, three times. Same tuple either way.
        let rows = vec![
            member("a", 0),
            member("b", 5),
            member("c", 0),
            member("d", 5),
            member("e", 0),
        ];
        let agg = || Program::compile(&Expr::bin(BinOp::Div, Expr::int(10), Expr::Field(3)));
        let event = TupleBuilder::new("ev").push("n1").build();
        let cols = AggOp::group_columns(AggFunc::Count, None, &agg(), 1).unwrap();
        assert_eq!(cols, [2]);
        let t = || {
            let mut t = table(TableSpec::new("member", vec![1]), rows.clone());
            t.add_group_index(cols.clone());
            t
        };

        let grouped = AggOp::new(0, 3, AggFunc::Count, None, agg()).with_group_index(cols.clone());
        let (out, engine) = run_counted(agg_strand(grouped, 5, "out"), t(), vec![event.clone()]);
        assert_eq!(engine.stats().eval_errors, 1);
        assert_eq!(out[0].field(4), &Value::Int(2));
        assert_eq!(engine.tables()[0].stats().full_scans, 0);

        let by_row = AggOp::new(0, 3, AggFunc::Count, None, agg());
        let (by_row_out, engine) = run_counted(agg_strand(by_row, 5, "out"), t(), vec![event]);
        assert_eq!(by_row_out, out);
        assert_eq!(engine.stats().eval_errors, 3);
        assert_eq!(engine.tables()[0].stats().full_scans, 1);
    }

    #[test]
    fn agg_probe_group_witness_is_the_lowest_row_id_among_ties() {
        // min<S % 10> over member(X, A, S): rows b and d tie at the minimum
        // in *different* groups; whichever group the table yields first,
        // the witness is the lower RowId, as in a scan.
        let rows = vec![
            member("a", 15),
            member("b", 21),
            member("c", 15),
            member("d", 11),
        ];
        let agg = || Program::compile(&Expr::bin(BinOp::Mod, Expr::Field(3), Expr::int(10)));
        let event = TupleBuilder::new("ev").push("n1").build();
        for (func, winner, value) in [(AggFunc::Min, "b", 1), (AggFunc::Max, "a", 5)] {
            let mut t = table(TableSpec::new("member", vec![1]), rows.clone());
            t.add_group_index(vec![2]);
            let probe = AggOp::new(0, 3, func, None, agg()).with_group_index(vec![2]);
            let out = run_one(agg_strand(probe, 5, "out"), t, vec![event.clone()]);
            assert_eq!(out[0].field(2), &Value::str(winner));
            assert_eq!(out[0].field(4), &Value::Int(value));
        }
    }

    #[test]
    fn agg_probe_group_columns_names_the_row_loads_of_eligible_probes() {
        // Event of 2 fields: loads 0-1 read the event, 3 and 5 row columns
        // 1 and 3.
        let filter = Program::compile(&Expr::bin(BinOp::Eq, Expr::Field(0), Expr::Field(5)));
        let agg = Program::compile(&Expr::bin(BinOp::Sub, Expr::Field(3), Expr::Field(1)));
        let cols = |func| AggOp::group_columns(func, Some(&filter), &agg, 2);
        assert_eq!(cols(AggFunc::Min), Some(vec![1, 3]));
        assert_eq!(cols(AggFunc::Count), Some(vec![1, 3]));
        assert_eq!(cols(AggFunc::Sum), None);
        assert_eq!(cols(AggFunc::Avg), None);
        let rand = Program::compile(&Expr::Call(p2_pel::Builtin::Rand, vec![]));
        assert_eq!(AggOp::group_columns(AggFunc::Max, None, &rand, 2), None);
        // `count<*>` with nothing to evaluate: one group of all rows.
        let one = Program::compile(&Expr::int(1));
        let all = AggOp::group_columns(AggFunc::Count, None, &one, 2);
        assert_eq!(all, Some(vec![]));
    }

    #[test]
    fn table_agg_emits_only_on_change() {
        let mut g = Graph::new();
        let t = g.add_table(table(TableSpec::new("succ", vec![1]), vec![]));
        let ins = g.add("insert", Box::new(Insert::new(t)));
        let agg = g.add(
            "count",
            Box::new(TableAgg::new(t, AggFunc::Count, None, vec![0], "succCount")),
        );
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(ins, 0, agg, 0);
        g.connect(agg, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: ins,
            port: 0,
        });
        engine.start(SimTime::ZERO);

        let s1 = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(s1.clone(), SimTime::from_secs(1));
        // Re-inserting the identical tuple does not change the count, so no
        // new aggregate is emitted.
        engine.deliver(s1, SimTime::from_secs(2));
        let s2 = TupleBuilder::new("succ")
            .push("n1")
            .push(9i64)
            .push("n9")
            .build();
        engine.deliver(s2, SimTime::from_secs(3));

        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].values(), &[Value::str("n1"), Value::Int(1)]);
        assert_eq!(emitted[1].values(), &[Value::str("n1"), Value::Int(2)]);
    }

    /// Regression: when every row of a group is deleted, the materialized
    /// aggregate must emit the empty-group value (count 0) instead of
    /// keeping the stale last value forever, and must forget the group so a
    /// re-appearance re-emits from scratch.
    #[test]
    fn table_agg_retracts_when_group_vanishes() {
        let mut g = Graph::new();
        let t = g.add_table(table(TableSpec::new("succ", vec![1]), vec![]));
        // "succ" tuples insert, "zap" tuples (same layout) delete — the
        // planner's insert-delta and delete-head wiring in miniature.
        let (to_insert, to_delete) = (g.add_dispatch("succ"), g.add_dispatch("zap"));
        let ins = g.add("insert", Box::new(Insert::new(t)));
        let del = g.add("delete", projection(3, "succ"));
        let agg = g.add(
            "count",
            Box::new(TableAgg::new(t, AggFunc::Count, None, vec![0], "succCount")),
        );
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect_dispatch(to_insert, ins, 0);
        g.connect_dispatch(to_delete, del, 0);
        g.set_head(del, 0, Head::Delete { table: t });
        g.connect(ins, 0, agg, 0);
        g.connect(del, 0, agg, 0);
        g.connect(agg, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_dispatch_entry();
        engine.start(SimTime::ZERO);

        let s1 = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(s1.clone(), SimTime::from_secs(1));
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(1)]
        );

        // Delete the only row: the group vanishes and the aggregate must
        // report a count of zero, not stay silent at the stale 1.
        let zap = TupleBuilder::new("zap")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(zap, SimTime::from_secs(2));
        assert!(
            engine.tables()[t].is_empty(),
            "delete did not remove the row"
        );
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(0)],
            "vanished group did not retract: {emitted:?}"
        );

        // Re-inserting the row re-emits count 1 (the group was dropped from
        // the memo, not left pinned at a stale value).
        engine.deliver(s1, SimTime::from_secs(3));
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(1)]
        );
    }
}
