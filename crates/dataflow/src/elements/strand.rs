//! The fused rule-strand element.
//!
//! # Why fuse
//!
//! The planner's generic translation runs a rule body as a chain of
//! elements (`Select → Join → Select → Project… → Project(head)`), with a
//! work-queue hand-off between every pair. Each hop pays an element call,
//! emission-buffer traffic, and — worst of all — a **materialized
//! intermediate tuple**: every `Join` allocates the concatenated tuple and
//! every assignment `Project` re-copies the entire strand tuple through
//! per-field PEL programs just to append one value.
//!
//! [`FusedStrand`] collapses the dominant rule shapes (a single table join
//! — or none — plus selections, anti-joins, and assignments, ending in the
//! head projection) into **one element call**: filters and assignments are
//! evaluated against the *virtual* concatenation `trigger ++ joined-row ++
//! assigned-values` ([`Program::eval_concat`]), the join probes the table
//! through the borrowing lookup iterator, and the only tuple ever
//! materialized is the final head tuple.
//!
//! A fused strand runs a `k`-stage chain in one call, so its head tuples
//! would surface `k − 1` breadth-first levels before the generic chain's.
//! The planner puts those levels back as a delay on the strand's output
//! slot; `crate::engine`'s *Level delays* section explains why that keeps
//! the two lowerings' event streams bit-identical.
//!
//! A strand that finds no match emits nothing, sends nothing and stores
//! nothing: the call is the whole cost of a useless poke, and the profiler
//! counts it as wasted.
//!
//! # Probe-time caveat
//!
//! Level delays preserve emission *levels*, not probe *times*: a fused strand
//! probes its tables when it executes (one level after its trigger),
//! while the generic chain's joins probe a few levels later. The two can
//! disagree only when **the same engine cascade mutates a probed table in
//! between** — a program shape where a sibling strand of the same trigger
//! writes a table that another sibling probes deeply. None of the shipped
//! OverLog programs has that shape (their table writes wrap around
//! through the demultiplexer, landing after every sibling probe), and the
//! equivalence is verified per program rather than assumed: the
//! `sim_bench` strand gate and the fused-vs-generic ring A/B assert
//! bit-identical event streams end-to-end and fail CI on divergence. A
//! program that trips the gate should plan with
//! `PlanConfig::without_fusion` until its rules are restructured.

use std::sync::Arc;

use p2_pel::Program;
use p2_table::TableRef;
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};
use crate::elements::relational::{ProbeKey, INLINE_PROBE, NULL_VALUE};

/// Maximum number of segments a strand's virtual tuple can have: the
/// trigger, up to [`MAX_STRAND_PROBES`] joined rows, and the assigned
/// values. Planners must not fuse strands with more probes.
pub const MAX_STRAND_PROBES: usize = 4;
const MAX_PARTS: usize = MAX_STRAND_PROBES + 2;

/// One operation of a fused strand, in original chain order.
pub enum StrandOp {
    /// Selection over the virtual strand tuple; a false or failed filter
    /// drops the current row combination (mirroring the generic `Select`).
    Filter(Program),
    /// Equijoin probe: the table is probed with key values drawn from the
    /// virtual strand tuple, and execution continues once per matching
    /// row, in the table's deterministic lookup order (mirroring the
    /// generic `Join`, minus the materialized intermediate tuple).
    Probe { table: TableRef, key: ProbeKey },
    /// Anti-join over the virtual strand tuple: execution continues only
    /// when no table row matches (mirroring the generic `AntiJoin`).
    AntiJoin { table: TableRef, key: ProbeKey },
    /// Assignment: evaluates one expression over the virtual strand tuple
    /// and appends the result (the generic form is a whole-tuple `Project`
    /// with one extra field).
    Assign(Program),
}

/// A whole planned rule strand — trigger filters, table join probes,
/// anti-joins, assignments, conditions, and the head projection — executed
/// in a single element call. See the module docs for the fusion contract.
pub struct FusedStrand {
    /// Filters over the bare trigger tuple (constant/repeat checks).
    pre_filters: Vec<Program>,
    /// The strand body, in chain order. Probes nest: each match of an
    /// earlier probe runs the remaining ops once, depth-first, which
    /// enumerates row combinations in exactly the order the generic
    /// chain's breadth-first expansion emits them.
    ops: Vec<StrandOp>,
    /// Head projection programs over the final virtual strand tuple.
    head_fields: Vec<Program>,
    out_name: Arc<str>,
    /// Scratch buffer for assigned values, reused across rows and calls.
    extras: Vec<Value>,
}

impl FusedStrand {
    /// Creates a fused strand. The `ops` must contain at most
    /// [`MAX_STRAND_PROBES`] probes, and a probe's table must not recur in
    /// a later probe or anti-join (the planner's fusability check
    /// guarantees both; violating the latter would self-deadlock on the
    /// table guard).
    pub fn new(
        pre_filters: Vec<Program>,
        ops: Vec<StrandOp>,
        head_fields: Vec<Program>,
        out_name: impl Into<Arc<str>>,
    ) -> FusedStrand {
        assert!(
            ops.iter()
                .filter(|op| matches!(op, StrandOp::Probe { .. }))
                .count()
                <= MAX_STRAND_PROBES,
            "fused strand exceeds MAX_STRAND_PROBES"
        );
        FusedStrand {
            pre_filters,
            ops,
            head_fields,
            out_name: out_name.into(),
            extras: Vec::new(),
        }
    }

    /// Creates a probe op from raw `(strand field, table column)` key pairs
    /// (normalized exactly like the generic `Join`).
    pub fn probe_op(table: TableRef, key: Vec<(usize, usize)>) -> StrandOp {
        StrandOp::Probe {
            table,
            key: ProbeKey::new(key),
        }
    }

    /// Creates an anti-join op from raw `(strand field, table column)` key
    /// pairs (normalized exactly like the generic `AntiJoin`).
    pub fn anti_op(table: TableRef, key: Vec<(usize, usize)>) -> StrandOp {
        StrandOp::AntiJoin {
            table,
            key: ProbeKey::new(key),
        }
    }
}

/// Collects the probe values for `key` out of the virtual strand tuple
/// `parts`, then runs `body`. `None` when a referenced field is missing
/// (malformed tuple — the generic chain drops it too).
fn with_view_probe<R>(
    key: &ProbeKey,
    parts: &[&[Value]],
    body: impl FnOnce(&[&Value]) -> R,
) -> Option<R> {
    // Shared segmented-field resolution (`p2_pel::concat_get`): probe keys
    // and PEL programs agree on what a field index means by construction.
    let view = |i: usize| p2_pel::concat_get(parts, i);
    let n = key.pairs.len();
    let mut stack: [&Value; INLINE_PROBE] = [&NULL_VALUE; INLINE_PROBE];
    let mut heap: Vec<&Value>;
    let probe: &[&Value] = if n <= INLINE_PROBE {
        for (slot, (s, _)) in stack.iter_mut().zip(&key.pairs) {
            *slot = view(*s)?;
        }
        &stack[..n]
    } else {
        heap = Vec::with_capacity(n);
        for (s, _) in &key.pairs {
            heap.push(view(*s)?);
        }
        &heap
    };
    Some(body(probe))
}

/// Whether the folded duplicate-column constraints hold over the virtual
/// strand tuple (`None` when a field is missing), mirroring
/// `ProbeKey::stream_checks_hold`.
fn view_stream_checks(key: &ProbeKey, parts: &[&[Value]]) -> Option<bool> {
    let view = |i: usize| p2_pel::concat_get(parts, i);
    for &(a, b) in &key.stream_checks {
        match (view(a), view(b)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(_), Some(_)) => return Some(false),
            _ => return None,
        }
    }
    Some(true)
}

/// Appends `row` to the segment list (bounded by [`MAX_PARTS`]).
fn pushed<'a>(rows: &[&'a [Value]], row: &'a [Value]) -> ([&'a [Value]; MAX_PARTS], usize) {
    let mut next: [&[Value]; MAX_PARTS] = [&[]; MAX_PARTS];
    next[..rows.len()].copy_from_slice(rows);
    next[rows.len()] = row;
    (next, rows.len() + 1)
}

/// Runs the remaining ops of a strand for the current row combination,
/// depth-first, emitting one head tuple on port 0 per surviving
/// combination. `rows` holds the trigger plus the rows matched by earlier
/// probes; `extras` holds the assigned values (pushed and popped around the
/// recursion so sibling combinations never see each other's assignments).
/// Free function over explicit field borrows so the op list stays borrowed
/// (and probe guards stay held) while the scratch field mutates. A filter,
/// assignment or head field that raises an evaluation error drops the
/// combination and is counted through [`ElementCtx::note_eval_error`].
fn exec(
    ops: &[StrandOp],
    rows: &[&[Value]],
    extras: &mut Vec<Value>,
    head_fields: &[Program],
    out_name: &Arc<str>,
    ctx: &mut ElementCtx<'_>,
) {
    // The evaluation view is `rows ++ extras`; rebuilt per op because
    // `extras` may have grown.
    let Some((op, rest)) = ops.split_first() else {
        let mut values = Vec::with_capacity(head_fields.len());
        for program in head_fields {
            let (view, n) = pushed(rows, extras);
            match program.eval_concat(&view[..n], ctx.eval()) {
                Ok(v) => values.push(v),
                Err(_) => {
                    ctx.note_eval_error();
                    return;
                }
            }
        }
        ctx.emit(0, Tuple::new(out_name.clone(), values));
        return;
    };
    match op {
        StrandOp::Filter(filter) => {
            let ok = {
                let (view, n) = pushed(rows, extras);
                filter.eval_bool_concat(&view[..n], ctx.eval())
            };
            match ok {
                Ok(true) => exec(rest, rows, extras, head_fields, out_name, ctx),
                Ok(false) => {}
                Err(_) => ctx.note_eval_error(),
            }
        }
        StrandOp::Assign(expr) => {
            let v = {
                let (view, n) = pushed(rows, extras);
                expr.eval_concat(&view[..n], ctx.eval())
            };
            match v {
                Ok(v) => {
                    extras.push(v);
                    exec(rest, rows, extras, head_fields, out_name, ctx);
                    extras.pop();
                }
                Err(_) => ctx.note_eval_error(),
            }
        }
        StrandOp::AntiJoin { table, key } => {
            let any_match = {
                let guard = table.lock();
                if key.is_empty() {
                    Some(!guard.is_empty())
                } else {
                    let (view, n) = pushed(rows, extras);
                    match view_stream_checks(key, &view[..n]) {
                        // Conflicting constraints: nothing can match.
                        Some(false) => Some(false),
                        None => None,
                        Some(true) => with_view_probe(key, &view[..n], |probe| {
                            guard.contains_match(&key.table_cols, probe)
                        }),
                    }
                }
            };
            // Malformed (None) drops the combination, like the generic
            // element.
            if any_match == Some(false) {
                exec(rest, rows, extras, head_fields, out_name, ctx);
            }
        }
        StrandOp::Probe { table, key } => {
            // Probe keys reference only fields bound before this probe
            // (trigger and earlier rows), so the probe view excludes
            // `extras` — which also keeps it mutably free for the
            // recursion.
            let guard = table.lock();
            if key.is_empty() {
                for row in guard.scan_iter() {
                    let (next, n) = pushed(rows, row.values());
                    exec(rest, &next[..n], extras, head_fields, out_name, ctx);
                }
                return;
            }
            if view_stream_checks(key, rows) != Some(true) {
                return; // conflicting constraints or malformed tuple
            }
            with_view_probe(key, rows, |probe| {
                for row in guard.lookup_iter(&key.table_cols, probe) {
                    let (next, n) = pushed(rows, row.values());
                    exec(rest, &next[..n], extras, head_fields, out_name, ctx);
                }
            });
        }
    }
}

impl Element for FusedStrand {
    fn class(&self) -> &'static str {
        "FusedStrand"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        // Disjoint field borrows: the op list stays borrowed while the
        // executor mutates the scratch field.
        let FusedStrand {
            pre_filters,
            ops,
            head_fields,
            out_name,
            extras,
        } = self;

        for filter in pre_filters.iter() {
            match filter.eval_bool(tuple, ctx.eval()) {
                Ok(true) => {}
                Ok(false) => return,
                Err(_) => {
                    ctx.note_eval_error();
                    return;
                }
            }
        }
        extras.clear();
        exec(ops, &[tuple.values()], extras, head_fields, out_name, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Collector;
    use crate::engine::{Engine, Graph, Route};
    use p2_pel::{BinOp, Expr};
    use p2_table::{Table, TableSpec};
    use p2_value::{SimTime, TupleBuilder};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn succ_table() -> TableRef {
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
        Arc::new(Mutex::new(t))
    }

    fn run_one(element: Box<dyn Element>, input: Tuple) -> Vec<Tuple> {
        run_delayed(element, input, 0)
    }

    /// Like [`run_one`], with the element's output slot held back by
    /// `levels`.
    fn run_delayed(element: Box<dyn Element>, input: Tuple, levels: u32) -> Vec<Tuple> {
        let mut g = Graph::new();
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
                FusedStrand::probe_op(succ_table(), vec![(0, 0)]),
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
        let out = run_one(Box::new(strand), input);
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
        assert_eq!(run_one(Box::new(mk()), hit).len(), 1);
        let miss = TupleBuilder::new("ev").push("n2").push(7i64).build();
        assert!(run_one(Box::new(mk()), miss).is_empty());
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
            std::sync::Arc::new(Mutex::new(t))
        };
        let strand = FusedStrand::new(
            vec![],
            vec![
                FusedStrand::probe_op(succ_table(), vec![(0, 0)]),
                // succ row occupies fields 1..4 (ev has arity 1); SI at 3.
                FusedStrand::probe_op(pref, vec![(3, 0)]),
            ],
            vec![field(3), field(5)],
            "out",
        );
        let out = run_one(Box::new(strand), TupleBuilder::new("ev").push("n1").build());
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
                vec![FusedStrand::anti_op(succ_table(), vec![(0, 0)])],
                vec![field(1)],
                "out",
            )
        };
        let hit = TupleBuilder::new("ev").push("n1").push(1i64).build();
        assert!(run_one(Box::new(mk()), hit).is_empty());
        let miss = TupleBuilder::new("ev").push("n7").push(1i64).build();
        assert_eq!(run_one(Box::new(mk()), miss).len(), 1);
    }

    #[test]
    fn fused_errors_drop_the_row_only() {
        // The head references a missing field for one of the two rows'
        // payloads: only that row is dropped.
        let strand = FusedStrand::new(
            vec![],
            vec![
                FusedStrand::probe_op(succ_table(), vec![(0, 0)]),
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
        assert!(run_one(Box::new(strand), input).is_empty());
    }

    #[test]
    fn pad_forwards_unchanged() {
        // A strand re-emitting its trigger through a slot delayed by three
        // levels: the tuple arrives once, exactly as emitted.
        let echo = || FusedStrand::new(vec![], vec![], vec![field(0)], "x");
        let t = TupleBuilder::new("x").push(1i64).build();
        assert_eq!(run_delayed(Box::new(echo()), t.clone(), 3), vec![t.clone()]);
        assert_eq!(run_one(Box::new(echo()), t.clone()), vec![t]);
    }
}
