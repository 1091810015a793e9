//! The rule-strand element: the one lowering of every rule body.
//!
//! [`FusedStrand`] runs a whole rule strand — filters on the trigger,
//! table probes, anti-joins, assignments, conditions, an aggregation over a
//! table, and the head projection — in **one element call**. Filters,
//! assignments and the head are evaluated against the *virtual*
//! concatenation `trigger ++ matched rows ++ assigned values`
//! ([`Program::eval_concat`]), probes walk the table through its borrowing
//! lookup iterator, and an aggregation appends its witness row and value
//! as two more segments, so the only tuple ever materialized is the head
//! tuple. Evaluation borrows its operands from those segments too: a flat
//! program (a bare field or constant, one binary operator over two of
//! them, one ring interval over three) reads them in place, and any other
//! program runs on an operand stack that borrows them (see `p2_pel::vm`),
//! so no program clones a field it loads unless that field is its result.
//! A strand with no ops is a bare head projection.
//!
//! # Level delays
//!
//! A strand of `k` steps (each trigger filter and op counts one, the head
//! one more) computes everything at the first breadth-first level. The
//! planner records `k − 1` levels as a delay on the strand's output slot,
//! and the engine holds each head tuple back by that much (`crate::engine`,
//! *Level delays*), which keeps the engine's emission order — and with it
//! the simulator's golden event stream — what it was when each step was an
//! element of its own.
//!
//! A strand that finds no match emits nothing, sends nothing and stores
//! nothing: the call is the whole cost of a useless poke, and the profiler
//! counts it as wasted.
//!
//! # Shared bodies and tables by id
//!
//! A strand is split in two. Its [`StrandBody`] — trigger filters, ops with
//! their probe keys and aggregation, head programs and output name — is
//! built once per planned strand and shared (`Arc`) by every node. A node's
//! [`FusedStrand`] holds only that body and the scratch for assigned
//! values.
//!
//! The body names each table an op reads by its plan table id, and a call
//! reads `tables[id]` from the node's tables, which the engine lends it
//! apart from the rest of the context ([`ElementCtx::with_tables`]), so the
//! strand emits, draws from the RNG and counts errors while it reads. A
//! probe keeps its table borrowed while the rest of the strand runs once
//! per matching row; a later probe, anti-join or aggregation over the same
//! table (a self-join) just borrows it again.
//!
//! # Aggregation
//!
//! [`AggOp`] folds a table per strand row (Figure 2's `Agg min<D> on
//! finger`). Candidates are the rows equal to the strand on the key's
//! columns (the whole table without a key), the filter decides whether a
//! candidate contributes, and the aggregate expression computes its value.
//! `min`/`max` append the table row achieving the extremum (the first
//! scanned on ties) as their witness, so the head may read the winning
//! row's columns; `count`/`sum`/`avg` append a null row. `count` and `sum`
//! emit a zero when no row contributes (Narada's `membersFound ...
//! count<*>` relies on seeing 0), while `min`/`max`/`avg` emit nothing.
//!
//! Key equality is *index* equality, exactly as for probe keys (see
//! [`ProbeKey`]); keyed candidates arrive in ascending `RowId` order. With
//! no key every row is a candidate, but within one strand row the filter
//! and the aggregate expression are functions of the row's projection onto
//! the columns they load, and a soft-state table repeats itself (Chord's
//! 160 `finger` rows hold ~8 distinct `B`). An unkeyed `min`/`max`/`count`
//! therefore reads the table through a *group index* over exactly those
//! columns ([`AggOp::group_columns`], [`AggOp::with_group_index`],
//! [`p2_table::Table::groups`]): one evaluation per group, a uniform group
//! contributing its value once per row it holds, a non-uniform one (hash
//! collision, `Int(1)` beside `Double(1.0)`) read row by row. The witness
//! is the row with the best value and, among equal values, the lowest
//! `RowId` — what a scan in `RowId` order picks — so the result is that of
//! the plain scan whenever the contributed values are totally ordered (they
//! always are within one variant and across the numeric ones).
//!
//! Three kinds of unkeyed aggregation keep the row-by-row counted scan:
//! programs drawing on the RNG (`max<R>` with `R := f_rand()`) draw once
//! per row, in scan order, inside the one call, so a seed fixes the draws;
//! `sum`/`avg` accumulate floating point, whose result depends on the order
//! of addition; and an aggregation given no group index.
//!
//! An evaluation that raises an error drops what it was evaluating (a
//! strand row, or an aggregation candidate: a row or a uniform group) and
//! is counted once through [`ElementCtx::note_eval_error`].
//!
//! # Probe-time caveat
//!
//! Level delays preserve emission *levels*, not probe *times*: a strand
//! probes its tables when it executes, one level after its trigger, even
//! where its head surfaces later. A program could observe that only if
//! **the same cascade mutates a probed table between** the trigger and the
//! level the head surfaces at — a sibling strand of the same trigger
//! writing a table that this one probes. None of the shipped OverLog
//! programs has that shape (their table writes wrap around through the
//! demultiplexer, landing after every sibling probe). What a rule derives
//! is checked against a naive reference evaluator over the OverLog AST
//! (`p2-core`'s `prop_strand_equivalence` tests); the order it derives it
//! in is pinned end to end by the golden NetStats.

use std::cmp::Ordering;
use std::sync::Arc;

use p2_pel::Program;
use p2_table::{AggFunc, AggState, Table};
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};
use crate::elements::relational::ProbeKey;

/// Virtual-tuple segments kept on the stack; deeper strands spill to the
/// heap.
const INLINE_PARTS: usize = 8;

/// Calls `body` with `prefix ++ [last]`, on the stack up to
/// [`INLINE_PARTS`] entries and on the heap beyond.
fn with_pushed<T: Copy, R>(prefix: &[T], last: T, body: impl FnOnce(&[T]) -> R) -> R {
    let n = prefix.len();
    if n < INLINE_PARTS {
        let mut inline = [last; INLINE_PARTS];
        inline[..n].copy_from_slice(prefix);
        body(&inline[..=n])
    } else {
        let mut heap = Vec::with_capacity(n + 1);
        heap.extend_from_slice(prefix);
        heap.push(last);
        body(&heap)
    }
}

/// One operation of a strand, in rule-body order. An op names its table by
/// plan table id: its index in the node's tables.
pub enum StrandOp {
    /// Selection over the virtual strand tuple; a false or failed filter
    /// drops the current row combination.
    Filter(Program),
    /// Equijoin probe: the table is probed with key values drawn from the
    /// virtual strand tuple, and execution continues once per matching
    /// row, in the table's deterministic lookup order.
    Probe { table: usize, key: ProbeKey },
    /// Anti-join over the virtual strand tuple: execution continues only
    /// when no table row matches.
    AntiJoin { table: usize, key: ProbeKey },
    /// Assignment: evaluates one expression over the virtual strand tuple
    /// and appends the result.
    Assign(Program),
    /// Aggregation over a table (see the module docs); always the last op.
    Agg(Box<AggOp>),
}

/// A per-strand-row aggregation over a table: [`StrandOp::Agg`].
pub struct AggOp {
    /// The table's id.
    table: usize,
    key: ProbeKey,
    /// Columns of the group index an unkeyed aggregation reads through.
    group_cols: Option<Vec<usize>>,
    func: AggFunc,
    filter: Option<Program>,
    agg_expr: Program,
    /// The witness of `count`/`sum`/`avg`: one null per table column.
    nulls: Box<[Value]>,
}

/// Whether an aggregation's result is the same read group by group as row
/// by row (see the module docs).
fn folds_by_group<'p>(func: AggFunc, mut programs: impl Iterator<Item = &'p Program>) -> bool {
    matches!(func, AggFunc::Min | AggFunc::Max | AggFunc::Count)
        && !programs.any(Program::uses_random)
}

/// One strand row's fold in progress: candidates go in through
/// [`Folding::step`], `(aggregate, witness)` comes out of
/// [`Folding::finish`].
struct Folding<'a, 'c> {
    agg: &'a AggOp,
    /// The virtual strand tuple the candidates are appended to.
    event: &'a [&'a [Value]],
    ctx: &'a mut ElementCtx<'c>,
    /// `count`/`sum`/`avg` accumulator.
    state: AggState,
    /// `min`/`max`: the best value so far, the scan position of the row
    /// that contributed it, and that row.
    best: Option<(Value, usize, Tuple)>,
    /// The accumulator rejected a value (non-numeric `sum`/`avg`).
    failed: bool,
}

impl Folding<'_, '_> {
    /// Folds in `times` rows that all evaluate like `row`, the first of
    /// them at scan position `at` (its `RowId`, or any index ascending in
    /// `RowId`). Candidates may arrive in any order: among equal extrema
    /// the lowest position wins, as it would in a scan.
    fn step(&mut self, at: usize, row: &Tuple, times: usize) {
        let Some(v) = self.agg.contribution(self.event, row.values(), self.ctx) else {
            return;
        };
        let wanted = match self.agg.func {
            AggFunc::Min => Ordering::Less,
            AggFunc::Max => Ordering::Greater,
            _ => {
                self.failed |= self.state.accumulate_n(&v, times).is_err();
                return;
            }
        };
        let better = self.best.as_ref().is_none_or(|(best, best_at, _)| {
            let ord = v.cmp(best);
            ord == wanted || (ord == Ordering::Equal && at < *best_at)
        });
        if better {
            self.best = Some((v, at, row.clone()));
        }
    }

    /// `(aggregate, witness)`, or `None` when nothing is to be emitted:
    /// `min`/`max`/`avg` over no contribution produce no tuple at all
    /// (`count`/`sum` legitimately produce 0), and a value the accumulator
    /// rejected aborts the whole fold, exactly like `AggFunc::apply`
    /// erroring over the collected contributions would.
    fn finish(self) -> Option<(Value, Option<Tuple>)> {
        if self.failed {
            return None;
        }
        match self.agg.func {
            AggFunc::Min | AggFunc::Max => self.best.map(|(v, _, row)| (v, Some(row))),
            _ => self.state.finish().map(|v| (v, None)),
        }
    }
}

impl AggOp {
    /// Creates an aggregation over the table with id `table`, whose rows
    /// have `table_arity` fields. Without a key ([`AggOp::with_key`]) or a
    /// group index ([`AggOp::with_group_index`]) every strand row pays a
    /// counted full scan.
    pub fn new(
        table: usize,
        table_arity: usize,
        func: AggFunc,
        filter: Option<Program>,
        agg_expr: Program,
    ) -> AggOp {
        AggOp {
            table,
            key: ProbeKey::default(),
            group_cols: None,
            func,
            filter,
            agg_expr,
            nulls: vec![Value::Null; table_arity].into(),
        }
    }

    /// Restricts the candidates to rows equal to the strand on the given
    /// `(strand field, table column)` pairs. The key *replaces* those
    /// equalities: the planner removes them from the filter.
    pub fn with_key(mut self, key: Vec<(usize, usize)>) -> AggOp {
        self.key = ProbeKey::new(key);
        self
    }

    /// Lets the aggregation, while it has no key, read the table through
    /// its group index over `cols`, which must be what
    /// [`AggOp::group_columns`] returns for it and be declared on the table
    /// ([`p2_table::Table::add_group_index`]; without it the fold falls
    /// back to the counted scan).
    pub fn with_group_index(mut self, cols: Vec<usize>) -> AggOp {
        let func = self.func;
        assert!(
            folds_by_group(func, self.filter.iter().chain([&self.agg_expr])),
            "a {func:?} aggregation cannot fold by group"
        );
        self.group_cols = Some(cols);
        self
    }

    /// The key candidates must match (empty: every row is a candidate).
    pub fn key(&self) -> &ProbeKey {
        &self.key
    }

    /// The columns of the group index an unkeyed aggregation reads
    /// through, if it was given one.
    pub fn group_index(&self) -> Option<&[usize]> {
        self.group_cols.as_deref()
    }

    /// Evaluates one row's contribution against `event ++ row`: a false or
    /// failed filter and a failed aggregate expression both mean "does not
    /// contribute"; failures are counted on `ctx`.
    fn contribution(
        &self,
        event: &[&[Value]],
        row: &[Value],
        ctx: &mut ElementCtx<'_>,
    ) -> Option<Value> {
        with_pushed(event, row, |view| {
            if let Some(filter) = &self.filter {
                match filter.eval_bool_concat(view, ctx.eval()) {
                    Ok(true) => {}
                    Ok(false) => return None,
                    Err(_) => {
                        ctx.note_eval_error();
                        return None;
                    }
                }
            }
            self.agg_expr
                .eval_concat(view, ctx.eval())
                .map_err(|_| ctx.note_eval_error())
                .ok()
        })
    }

    /// Folds `table` for the strand tuple `event`: `(aggregate, witness)`,
    /// or `None` when nothing is to be emitted.
    fn fold(
        &self,
        table: &Table,
        event: &[&[Value]],
        ctx: &mut ElementCtx<'_>,
    ) -> Option<(Value, Option<Tuple>)> {
        let mut folding = Folding {
            agg: self,
            event,
            ctx,
            state: AggState::new(self.func),
            best: None,
            failed: false,
        };
        if !self.key.is_empty() {
            // Conflicting key constraints, or a strand too short to probe:
            // no row matches (`count`/`sum` still report their zero).
            if self.key.stream_checks_hold(event) == Some(true) {
                self.key.with_probe(event, |probe| {
                    let rows = table.lookup_iter(&self.key.table_cols, probe);
                    for (at, row) in rows.enumerate() {
                        folding.step(at, row, 1);
                    }
                });
            }
        } else if let Some(groups) = self.group_cols.as_deref().and_then(|c| table.groups(c)) {
            for group in groups {
                if group.is_uniform() {
                    let (id, row) = group.first();
                    folding.step(id.index(), row, group.size());
                } else {
                    for (id, row) in group.rows() {
                        folding.step(id.index(), row, 1);
                    }
                }
            }
        } else {
            for (at, row) in table.scan_iter_counted().enumerate() {
                folding.step(at, row, 1);
            }
        }
        folding.finish()
    }

    /// The table columns (sorted) a group index must cover for an unkeyed
    /// aggregation with these programs over a strand tuple of
    /// `event_arity` fields to evaluate once per group — every row column
    /// the programs load — or `None` if it must read row by row
    /// (`sum`/`avg`, RNG draws).
    pub fn group_columns(
        func: AggFunc,
        filter: Option<&Program>,
        agg_expr: &Program,
        event_arity: usize,
    ) -> Option<Vec<usize>> {
        let programs = || filter.into_iter().chain([agg_expr]);
        if !folds_by_group(func, programs()) {
            return None;
        }
        let mut cols: Vec<usize> = programs()
            .flat_map(Program::loads)
            .filter_map(|field| field.checked_sub(event_arity))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        Some(cols)
    }
}

impl From<AggOp> for StrandOp {
    fn from(op: AggOp) -> StrandOp {
        StrandOp::Agg(Box::new(op))
    }
}

/// The node-independent half of a rule strand: its programs, probe keys
/// and aggregation, with every table named by plan table id. One body is
/// built per planned strand and shared (`Arc`) by every node's
/// [`FusedStrand`].
pub struct StrandBody {
    /// Filters over the bare trigger tuple (constant/repeat checks).
    pre_filters: Box<[Program]>,
    /// The strand body, in rule-body order. Probes nest: each match of an
    /// earlier probe runs the remaining ops once, depth-first.
    ops: Box<[StrandOp]>,
    /// Head projection programs over the final virtual strand tuple.
    head_fields: Box<[Program]>,
    out_name: Arc<str>,
}

impl StrandBody {
    /// Builds a body. An [`StrandOp::Agg`] may only be the last op.
    pub fn new(
        pre_filters: Vec<Program>,
        ops: Vec<StrandOp>,
        head_fields: Vec<Program>,
        out_name: impl Into<Arc<str>>,
    ) -> Arc<StrandBody> {
        let last = ops.len().saturating_sub(1);
        assert!(
            ops.iter()
                .enumerate()
                .all(|(i, op)| i == last || !matches!(op, StrandOp::Agg(_))),
            "an aggregation must be a strand's last op"
        );
        Arc::new(StrandBody {
            pre_filters: pre_filters.into(),
            ops: ops.into(),
            head_fields: head_fields.into(),
            out_name: out_name.into(),
        })
    }

    /// The strand's aggregation, if it ends in one.
    pub fn agg(&self) -> Option<&AggOp> {
        match self.ops.last() {
            Some(StrandOp::Agg(agg)) => Some(agg),
            _ => None,
        }
    }
}

/// One node's rule strand: a shared [`StrandBody`] run over the node's
/// tables in a single element call. See the module docs for the contract.
pub struct FusedStrand {
    body: Arc<StrandBody>,
    /// Scratch buffer for assigned values, reused across rows and calls.
    extras: Vec<Value>,
}

impl From<Arc<StrandBody>> for FusedStrand {
    fn from(body: Arc<StrandBody>) -> FusedStrand {
        FusedStrand {
            body,
            extras: Vec::new(),
        }
    }
}

impl FusedStrand {
    /// Creates a strand with a body of its own ([`StrandBody::new`]).
    pub fn new(
        pre_filters: Vec<Program>,
        ops: Vec<StrandOp>,
        head_fields: Vec<Program>,
        out_name: impl Into<Arc<str>>,
    ) -> FusedStrand {
        StrandBody::new(pre_filters, ops, head_fields, out_name).into()
    }

    /// The shared body.
    pub fn body(&self) -> &Arc<StrandBody> {
        &self.body
    }

    /// Creates a probe op of the table with id `table` from raw
    /// `(strand field, table column)` key pairs.
    pub fn probe_op(table: usize, key: Vec<(usize, usize)>) -> StrandOp {
        StrandOp::Probe {
            table,
            key: ProbeKey::new(key),
        }
    }

    /// Creates an anti-join op over the table with id `table` from raw
    /// `(strand field, table column)` key pairs.
    pub fn anti_op(table: usize, key: Vec<(usize, usize)>) -> StrandOp {
        StrandOp::AntiJoin {
            table,
            key: ProbeKey::new(key),
        }
    }
}

/// Evaluates the head over the final virtual tuple and emits it on port 0;
/// a failing field drops the tuple.
fn emit_head(
    view: &[&[Value]],
    head_fields: &[Program],
    out_name: &Arc<str>,
    ctx: &mut ElementCtx<'_>,
) {
    let mut values = Vec::with_capacity(head_fields.len());
    for program in head_fields {
        match program.eval_concat(view, ctx.eval()) {
            Ok(v) => values.push(v),
            Err(_) => {
                ctx.note_eval_error();
                return;
            }
        }
    }
    ctx.emit(0, Tuple::new(out_name.clone(), values));
}

/// The borrowed, loop-invariant half of a strand call.
struct Run<'s> {
    head_fields: &'s [Program],
    out_name: &'s Arc<str>,
    /// The node's tables, indexed by table id.
    tables: &'s [Table],
}

impl Run<'_> {
    /// Runs the remaining ops of a strand for the current row combination,
    /// depth-first, emitting one head tuple per surviving combination.
    /// `rows` holds the trigger plus the rows matched by earlier probes;
    /// `extras` holds the assigned values (pushed and popped around the
    /// recursion so sibling combinations never see each other's
    /// assignments).
    fn exec(
        &self,
        ops: &[StrandOp],
        rows: &[&[Value]],
        extras: &mut Vec<Value>,
        ctx: &mut ElementCtx<'_>,
    ) {
        let Some((op, rest)) = ops.split_first() else {
            with_pushed(rows, extras.as_slice(), |view| {
                emit_head(view, self.head_fields, self.out_name, ctx)
            });
            return;
        };
        match op {
            StrandOp::Filter(filter) => {
                let ok = with_pushed(rows, extras.as_slice(), |view| {
                    filter.eval_bool_concat(view, ctx.eval())
                });
                match ok {
                    Ok(true) => self.exec(rest, rows, extras, ctx),
                    Ok(false) => {}
                    Err(_) => ctx.note_eval_error(),
                }
            }
            StrandOp::Assign(expr) => {
                let v = with_pushed(rows, extras.as_slice(), |view| {
                    expr.eval_concat(view, ctx.eval())
                });
                match v {
                    Ok(v) => {
                        extras.push(v);
                        self.exec(rest, rows, extras, ctx);
                        extras.pop();
                    }
                    Err(_) => ctx.note_eval_error(),
                }
            }
            StrandOp::AntiJoin { table, key } => {
                let table = &self.tables[*table];
                let any_match = with_pushed(rows, extras.as_slice(), |view| {
                    if key.is_empty() {
                        return Some(!table.is_empty());
                    }
                    match key.stream_checks_hold(view) {
                        // Conflicting constraints: nothing can match.
                        Some(false) => Some(false),
                        None => None,
                        Some(true) => key
                            .with_probe(view, |probe| table.contains_match(&key.table_cols, probe)),
                    }
                });
                // A malformed strand (None) drops the combination.
                if any_match == Some(false) {
                    self.exec(rest, rows, extras, ctx);
                }
            }
            StrandOp::Probe { table, key } => {
                // Probe keys reference only fields bound before this probe
                // (trigger and earlier rows): the planner places every
                // probe before the first assignment.
                let table = &self.tables[*table];
                let mut each = |row: &Tuple| {
                    with_pushed(rows, row.values(), |rows| {
                        self.exec(rest, rows, extras, ctx)
                    })
                };
                if key.is_empty() {
                    table.scan_iter().for_each(&mut each);
                } else if key.stream_checks_hold(rows) == Some(true) {
                    key.with_probe(rows, |probe| {
                        table
                            .lookup_iter(&key.table_cols, probe)
                            .for_each(&mut each)
                    });
                }
            }
            StrandOp::Agg(agg) => {
                with_pushed(rows, extras.as_slice(), |event| {
                    let folded = agg.fold(&self.tables[agg.table], event, ctx);
                    let Some((aggregate, witness)) = folded else {
                        return;
                    };
                    let witness = witness.as_ref().map_or(&agg.nulls[..], Tuple::values);
                    with_pushed(event, witness, |view| {
                        with_pushed(view, std::slice::from_ref(&aggregate), |view| {
                            emit_head(view, self.head_fields, self.out_name, ctx)
                        })
                    })
                });
            }
        }
    }
}

impl Element for FusedStrand {
    fn class(&self) -> &'static str {
        "FusedStrand"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let body = &*self.body;
        for filter in &body.pre_filters {
            match filter.eval_bool(tuple, ctx.eval()) {
                Ok(true) => {}
                Ok(false) => return,
                Err(_) => {
                    ctx.note_eval_error();
                    return;
                }
            }
        }
        let extras = &mut self.extras;
        extras.clear();
        ctx.with_tables(|tables, ctx| {
            let run = Run {
                head_fields: &body.head_fields,
                out_name: &body.out_name,
                tables,
            };
            run.exec(&body.ops, &[tuple.values()], extras, ctx)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Collector;
    use crate::engine::{Engine, Graph, Route};
    use p2_pel::{BinOp, Expr};
    use p2_table::TableSpec;
    use p2_value::{SimTime, TupleBuilder};

    fn succ_table() -> Table {
        let mut t = Table::new(TableSpec::new("succ", vec![1]));
        t.add_index(vec![0]);
        for (s, si) in [(5i64, "n5"), (9, "n9")] {
            t.insert(
                TupleBuilder::new("succ")
                    .push("n1")
                    .push(s)
                    .push(si)
                    .build(),
                SimTime::ZERO,
            )
            .unwrap();
        }
        t
    }

    /// Runs `element` over the node's `tables` (table `i` is `tables[i]`).
    fn run_one(element: Box<dyn Element>, tables: Vec<Table>, input: Tuple) -> Vec<Tuple> {
        run_delayed(element, tables, input, 0)
    }

    /// Like [`run_one`], with the element's output slot held back by
    /// `levels`.
    fn run_delayed(
        element: Box<dyn Element>,
        tables: Vec<Table>,
        input: Tuple,
        levels: u32,
    ) -> Vec<Tuple> {
        let mut g = Graph::new();
        for table in tables {
            g.add_table(table);
        }
        let e = g.add("elt", element);
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(e, 0, c, 0);
        g.set_delay(e, 0, levels);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        engine.deliver(input, SimTime::ZERO);
        let out = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        out
    }

    fn field(i: usize) -> Program {
        Program::compile(&Expr::Field(i))
    }

    #[test]
    fn fused_join_filter_assign_head() {
        // Rule shape: out(SI, D) :- ev(NI, X), succ(NI, S, SI), S > 4,
        //                           D := S + X.
        // Virtual layout: ev(0..2) ++ succ(2..5) ++ [D at 5].
        let strand = FusedStrand::new(
            vec![],
            vec![
                FusedStrand::probe_op(0, vec![(0, 0)]),
                StrandOp::Filter(Program::compile(&Expr::bin(
                    BinOp::Gt,
                    Expr::Field(3),
                    Expr::int(4),
                ))),
                StrandOp::Assign(Program::compile(&Expr::bin(
                    BinOp::Add,
                    Expr::Field(3),
                    Expr::Field(1),
                ))),
            ],
            vec![field(4), field(5)],
            "out",
        );
        let input = TupleBuilder::new("ev").push("n1").push(100i64).build();
        let out = run_one(Box::new(strand), vec![succ_table()], input);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.name() == "out" && t.arity() == 2));
        let got: Vec<(Value, Value)> = out
            .iter()
            .map(|t| (t.field(0).clone(), t.field(1).clone()))
            .collect();
        assert!(got.contains(&(Value::str("n5"), Value::Int(105))));
        assert!(got.contains(&(Value::str("n9"), Value::Int(109))));
    }

    #[test]
    fn fused_pre_filter_and_no_join() {
        // out(X) :- ev(NI, X), NI == "n1".
        let mk = || {
            FusedStrand::new(
                vec![Program::compile(&Expr::bin(
                    BinOp::Eq,
                    Expr::Field(0),
                    Expr::Const(Value::str("n1")),
                ))],
                vec![],
                vec![field(1)],
                "out",
            )
        };
        let hit = TupleBuilder::new("ev").push("n1").push(7i64).build();
        assert_eq!(run_one(Box::new(mk()), vec![], hit).len(), 1);
        let miss = TupleBuilder::new("ev").push("n2").push(7i64).build();
        assert!(run_one(Box::new(mk()), vec![], miss).is_empty());
    }

    #[test]
    fn fused_multi_probe_nests_depth_first() {
        // out(SI, P) :- ev(NI), succ(NI, S, SI), pref(SI, P):
        // two chained probes, the second keyed off the first's row.
        let pref = {
            let mut t = Table::new(TableSpec::new("pref", vec![0, 1]));
            for (si, p) in [("n5", 50i64), ("n5", 51), ("n9", 90)] {
                t.insert(
                    TupleBuilder::new("pref").push(si).push(p).build(),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            t
        };
        let strand = FusedStrand::new(
            vec![],
            vec![
                FusedStrand::probe_op(0, vec![(0, 0)]),
                // succ row occupies fields 1..4 (ev has arity 1); SI at 3.
                FusedStrand::probe_op(1, vec![(3, 0)]),
            ],
            vec![field(3), field(5)],
            "out",
        );
        let ev = TupleBuilder::new("ev").push("n1").build();
        let out = run_one(Box::new(strand), vec![succ_table(), pref], ev);
        let got: Vec<(Value, Value)> = out
            .iter()
            .map(|t| (t.field(0).clone(), t.field(1).clone()))
            .collect();
        assert_eq!(got.len(), 3);
        assert!(got.contains(&(Value::str("n5"), Value::Int(50))));
        assert!(got.contains(&(Value::str("n5"), Value::Int(51))));
        assert!(got.contains(&(Value::str("n9"), Value::Int(90))));
    }

    #[test]
    fn fused_antijoin_drops_matches() {
        // out(X) :- ev(NI, X), not succ(NI, _, _): anti-join on column 0.
        let mk = || {
            FusedStrand::new(
                vec![],
                vec![FusedStrand::anti_op(0, vec![(0, 0)])],
                vec![field(1)],
                "out",
            )
        };
        let hit = TupleBuilder::new("ev").push("n1").push(1i64).build();
        assert!(run_one(Box::new(mk()), vec![succ_table()], hit).is_empty());
        let miss = TupleBuilder::new("ev").push("n7").push(1i64).build();
        assert_eq!(run_one(Box::new(mk()), vec![succ_table()], miss).len(), 1);
    }

    #[test]
    fn fused_errors_drop_the_row_only() {
        // The head references a missing field for one of the two rows'
        // payloads: only that row is dropped.
        let strand = FusedStrand::new(
            vec![],
            vec![
                FusedStrand::probe_op(0, vec![(0, 0)]),
                StrandOp::Filter(Program::compile(&Expr::bin(
                    BinOp::Gt,
                    Expr::Field(9),
                    Expr::int(0),
                ))),
            ],
            vec![field(0)],
            "out",
        );
        let input = TupleBuilder::new("ev").push("n1").build();
        assert!(run_one(Box::new(strand), vec![succ_table()], input).is_empty());
    }

    /// `link(A, B)` rows forming the chain 0 → 1 → … → 11.
    fn link_table() -> Table {
        let mut t = Table::new(TableSpec::new("link", vec![0, 1]));
        t.add_index(vec![0]);
        for a in 0..11i64 {
            let row = TupleBuilder::new("link").push(a).push(a + 1).build();
            t.insert(row, SimTime::ZERO).unwrap();
        }
        t
    }

    #[test]
    fn self_join_reads_through_the_held_guard() {
        // out(A, C) :- ev(A), link(A, B), link(B, C), not link(C, A),
        // count<*> over link(C, _): the second probe, the anti-join and the
        // aggregation all read the table the first probe is reading.
        let strand = FusedStrand::new(
            vec![],
            vec![
                FusedStrand::probe_op(0, vec![(0, 0)]),
                FusedStrand::probe_op(0, vec![(2, 0)]),
                FusedStrand::anti_op(0, vec![(4, 0), (0, 1)]),
                AggOp::new(0, 2, p2_table::AggFunc::Count, None, field(0))
                    .with_key(vec![(4, 0)])
                    .into(),
            ],
            vec![field(0), field(4), field(7)],
            "out",
        );
        let ev = TupleBuilder::new("ev").push(3i64).build();
        let out = run_one(Box::new(strand), vec![link_table()], ev);
        let got: Vec<&[Value]> = out.iter().map(|t| t.values()).collect();
        assert_eq!(got, [&[Value::Int(3), Value::Int(5), Value::Int(1)][..]]);
    }

    #[test]
    fn deep_strands_spill_to_the_heap() {
        // Ten chained self-probes: more segments than the inline array
        // carries.
        let ops = (0..10)
            .map(|i| FusedStrand::probe_op(0, vec![(2 * i, 0)]))
            .collect();
        let strand = FusedStrand::new(vec![], ops, vec![field(20)], "out");
        let ev = TupleBuilder::new("ev").push(1i64).build();
        let out = run_one(Box::new(strand), vec![link_table()], ev);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values(), &[Value::Int(11)]);
    }

    #[test]
    fn pad_forwards_unchanged() {
        // A strand re-emitting its trigger through a slot delayed by three
        // levels: the tuple arrives once, exactly as emitted.
        let echo = || FusedStrand::new(vec![], vec![], vec![field(0)], "x");
        let t = TupleBuilder::new("x").push(1i64).build();
        assert_eq!(
            run_delayed(Box::new(echo()), vec![], t.clone(), 3),
            vec![t.clone()]
        );
        assert_eq!(run_one(Box::new(echo()), vec![], t.clone()), vec![t]);
    }
}
