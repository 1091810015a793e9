//! Relational operator elements: equijoin, anti-join, selection, projection.

use std::sync::Arc;

use p2_pel::Program;
use p2_table::TableRef;
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};

/// Upper bound on join-key arity probed without heap allocation; OverLog
/// rules rarely unify more than two or three columns per table.
pub(crate) const INLINE_PROBE: usize = 8;

pub(crate) const NULL_VALUE: Value = Value::Null;

/// Join-key pairs normalized at construction: table columns sorted
/// ascending and deduplicated (the order [`p2_table::Table::lookup_iter`]
/// requires), with the stream fields carried alongside.
///
/// When two different stream fields constrain the *same* table column
/// (`(s1, t), (s2, t)`), one pair drives the probe and the rest become
/// stream-side equality checks (`tuple[s1] == tuple[s2]`): the constraints
/// can only both hold when those stream values agree.
///
/// A key compares by *index* equality: a primary or declared secondary
/// index is probed by `Value`'s hash and each hit confirmed with `==`. The
/// hash agrees with `==` within Bool/Int/Double/Time and within `Str` and
/// `Id`, but `Id(x) == Int(x)` holds while the two hash differently — a key
/// equating an `Id` with an `Int` finds nothing through an index, where
/// the same equality written as a PEL condition would match. This holds
/// for join, anti-join and aggregation-probe keys alike; programs keep a
/// column to one of the two types.
#[derive(Debug, Clone, Default)]
pub struct ProbeKey {
    /// `(stream field, table column)` with unique table columns, sorted by
    /// table column.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// The table columns alone, in the same (sorted) order.
    pub(crate) table_cols: Vec<usize>,
    /// Stream-field pairs that must be equal (folded duplicate-column
    /// constraints).
    pub(crate) stream_checks: Vec<(usize, usize)>,
}

impl ProbeKey {
    pub(crate) fn new(mut key: Vec<(usize, usize)>) -> ProbeKey {
        key.sort_by_key(|(_, t)| *t);
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(key.len());
        let mut stream_checks = Vec::new();
        for (s, t) in key {
            match pairs.last() {
                Some(&(s0, t0)) if t0 == t => {
                    if s0 != s {
                        stream_checks.push((s0, s));
                    }
                }
                _ => pairs.push((s, t)),
            }
        }
        let table_cols = pairs.iter().map(|(_, t)| *t).collect();
        ProbeKey {
            pairs,
            table_cols,
            stream_checks,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the stream tuple satisfies the folded duplicate-column
    /// constraints: `Some(true)` if all hold (vacuously with none declared),
    /// `Some(false)` if some pair is present but unequal, `None` when the
    /// tuple is too short to evaluate a check (malformed).
    pub(crate) fn stream_checks_hold(&self, tuple: &Tuple) -> Option<bool> {
        for &(a, b) in &self.stream_checks {
            match (tuple.get(a), tuple.get(b)) {
                (Ok(x), Ok(y)) if x == y => {}
                (Ok(_), Ok(_)) => return Some(false),
                _ => return None,
            }
        }
        Some(true)
    }

    /// Runs `body` with the probe values borrowed from `tuple` (no clones;
    /// stack storage up to [`INLINE_PROBE`] columns). Returns `None` when
    /// the tuple is too short to probe. Callers must consult
    /// [`ProbeKey::stream_checks_hold`] first — a failed check means no row
    /// can match, which a join and an anti-join interpret oppositely.
    pub(crate) fn with_probe<R>(
        &self,
        tuple: &Tuple,
        body: impl FnOnce(&[&Value]) -> R,
    ) -> Option<R> {
        let n = self.pairs.len();
        let mut stack: [&Value; INLINE_PROBE] = [&NULL_VALUE; INLINE_PROBE];
        let mut heap: Vec<&Value>;
        let probe: &[&Value] = if n <= INLINE_PROBE {
            for (slot, (s, _)) in stack.iter_mut().zip(&self.pairs) {
                *slot = tuple.get(*s).ok()?;
            }
            &stack[..n]
        } else {
            heap = Vec::with_capacity(n);
            for (s, _) in &self.pairs {
                heap.push(tuple.get(*s).ok()?);
            }
            &heap
        };
        Some(body(probe))
    }
}

/// Stream × table equijoin.
///
/// The arriving tuple (the *stream* side, typically an event) probes the
/// materialized table on equality of the configured key columns; every match
/// is emitted as the concatenation `stream ++ table_row` under `out_name`.
/// This is the workhorse of OverLog rule bodies — "the unification of
/// variables in the body of a rule is implemented by an equality-based
/// relational join" (§2.4).
///
/// Probing is allocation-free: key values are borrowed from the stream
/// tuple and matches are walked through the table's borrowing lookup
/// iterator, so the only allocations are the emitted joined tuples.
pub struct Join {
    table: TableRef,
    key: ProbeKey,
    out_name: Arc<str>,
}

impl Join {
    /// Creates an equijoin against `table` on the given
    /// `(stream field, table field)` key pairs.
    pub fn new(table: TableRef, key: Vec<(usize, usize)>, out_name: impl Into<Arc<str>>) -> Join {
        Join {
            table,
            key: ProbeKey::new(key),
            out_name: out_name.into(),
        }
    }
}

impl Element for Join {
    fn class(&self) -> &'static str {
        "Join"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let guard = self.table.lock();
        if self.key.is_empty() {
            for row in guard.scan_iter() {
                ctx.emit(0, tuple.join(self.out_name.clone(), row));
            }
            return;
        }
        if self.key.stream_checks_hold(tuple) != Some(true) {
            return; // conflicting constraints or malformed: nothing matches
        }
        self.key.with_probe(tuple, |probe| {
            for row in guard.lookup_iter(&self.key.table_cols, probe) {
                ctx.emit(0, tuple.join(self.out_name.clone(), row));
            }
        });
    }
}

/// Stream × table anti-join (negation).
///
/// Forwards the arriving tuple unchanged when **no** table row matches the
/// key columns; used to implement `not member(...)`-style body terms. The
/// membership test borrows its probe values and stops at the first match.
pub struct AntiJoin {
    table: TableRef,
    key: ProbeKey,
}

impl AntiJoin {
    /// Creates an anti-join against `table` on the given key pairs.
    pub fn new(table: TableRef, key: Vec<(usize, usize)>) -> AntiJoin {
        AntiJoin {
            table,
            key: ProbeKey::new(key),
        }
    }
}

impl Element for AntiJoin {
    fn class(&self) -> &'static str {
        "AntiJoin"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let any_match = {
            let guard = self.table.lock();
            if self.key.is_empty() {
                Some(!guard.is_empty())
            } else {
                match self.key.stream_checks_hold(tuple) {
                    // Conflicting constraints: no row can match, so the
                    // negation is satisfied.
                    Some(false) => Some(false),
                    // Malformed tuple: dropped below, as before.
                    None => None,
                    Some(true) => self.key.with_probe(tuple, |probe| {
                        guard.contains_match(&self.key.table_cols, probe)
                    }),
                }
            }
        };
        // A tuple too short to probe (None) is dropped, as before.
        if any_match == Some(false) {
            ctx.emit(0, tuple.clone());
        }
    }
}

/// Selection: forwards tuples for which the PEL filter evaluates to true.
///
/// Evaluation errors drop the tuple (a malformed remote tuple must not take
/// the node down) and are counted through [`ElementCtx::note_eval_error`].
pub struct Select {
    filter: Program,
}

impl Select {
    /// Creates a selection from a compiled PEL predicate.
    pub fn new(filter: Program) -> Select {
        Select { filter }
    }
}

impl Element for Select {
    fn class(&self) -> &'static str {
        "Select"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        match self.filter.eval_bool(tuple, ctx.eval()) {
            Ok(true) => ctx.emit(0, tuple.clone()),
            Ok(false) => {}
            Err(_) => ctx.note_eval_error(),
        }
    }
}

/// Projection: builds the head tuple by evaluating one PEL program per output
/// field ("a 'project' element implements a superset of a purely logical
/// database projection operator by running a PEL program on each incoming
/// tuple", §3.4). A field program that raises an evaluation error drops the
/// tuple and is counted through [`ElementCtx::note_eval_error`].
pub struct Project {
    out_name: Arc<str>,
    fields: Vec<Program>,
}

impl Project {
    /// Creates a projection producing tuples named `out_name`.
    pub fn new(out_name: impl Into<Arc<str>>, fields: Vec<Program>) -> Project {
        Project {
            out_name: out_name.into(),
            fields,
        }
    }
}

impl Element for Project {
    fn class(&self) -> &'static str {
        "Project"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let mut values = Vec::with_capacity(self.fields.len());
        for program in &self.fields {
            match program.eval(tuple, ctx.eval()) {
                Ok(v) => values.push(v),
                Err(_) => {
                    ctx.note_eval_error();
                    return;
                }
            }
        }
        ctx.emit(0, Tuple::new(self.out_name.clone(), values));
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
        let mut g = Graph::new();
        let e = g.add("elt", element);
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(e, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        engine.deliver(input, SimTime::ZERO);
        let out = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        out
    }

    #[test]
    fn join_emits_one_tuple_per_match() {
        let table = succ_table();
        let join = Join::new(table, vec![(0, 0)], "ev_succ");
        let input = TupleBuilder::new("ev").push("n1").push(42i64).build();
        let out = run_one(Box::new(join), input);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.name() == "ev_succ" && t.arity() == 5));
        // Stream fields come first, then the table row.
        assert_eq!(out[0].field(1), &Value::Int(42));
    }

    #[test]
    fn join_with_no_match_emits_nothing() {
        let table = succ_table();
        let join = Join::new(table, vec![(0, 0)], "ev_succ");
        let input = TupleBuilder::new("ev").push("n2").build();
        assert!(run_one(Box::new(join), input).is_empty());
    }

    #[test]
    fn join_on_empty_key_is_cartesian_with_table() {
        let table = succ_table();
        let join = Join::new(table, vec![], "ev_succ");
        let input = TupleBuilder::new("ev").push("whatever").build();
        assert_eq!(run_one(Box::new(join), input).len(), 2);
    }

    #[test]
    fn join_keeps_duplicate_column_constraints() {
        // Two different stream fields constraining the same table column:
        // both equalities must hold, so a tuple whose fields disagree
        // matches nothing even though one of them alone would.
        let table = succ_table();
        let join = Join::new(table.clone(), vec![(0, 0), (1, 0)], "ev_succ");
        let agree = TupleBuilder::new("ev").push("n1").push("n1").build();
        assert_eq!(run_one(Box::new(join), agree).len(), 2);

        let join = Join::new(table.clone(), vec![(0, 0), (1, 0)], "ev_succ");
        let disagree = TupleBuilder::new("ev").push("n1").push("n2").build();
        assert!(run_one(Box::new(join), disagree).is_empty());

        // The anti-join sees the conflicting constraint as "no match" and
        // forwards the tuple.
        let anti = AntiJoin::new(table, vec![(0, 0), (1, 0)]);
        let disagree = TupleBuilder::new("ev").push("n1").push("n2").build();
        assert_eq!(run_one(Box::new(anti), disagree).len(), 1);
    }

    #[test]
    fn antijoin_forwards_only_non_matching() {
        let table = succ_table();
        let anti = AntiJoin::new(table.clone(), vec![(0, 0)]);
        let hit = TupleBuilder::new("ev").push("n1").build();
        assert!(run_one(Box::new(anti), hit).is_empty());

        let anti = AntiJoin::new(table, vec![(0, 0)]);
        let miss = TupleBuilder::new("ev").push("n7").build();
        assert_eq!(run_one(Box::new(anti), miss).len(), 1);
    }

    #[test]
    fn select_filters_and_survives_errors() {
        let filter = Program::compile(&Expr::bin(BinOp::Gt, Expr::Field(1), Expr::int(5)));
        let sel = Select::new(filter);
        let keep = TupleBuilder::new("x").push("n1").push(9i64).build();
        assert_eq!(run_one(Box::new(sel), keep).len(), 1);

        let filter = Program::compile(&Expr::bin(BinOp::Gt, Expr::Field(1), Expr::int(5)));
        let sel = Select::new(filter);
        let drop = TupleBuilder::new("x").push("n1").push(3i64).build();
        assert!(run_one(Box::new(sel), drop).is_empty());

        // A tuple that is too short triggers an evaluation error and is
        // dropped without panicking.
        let filter = Program::compile(&Expr::bin(BinOp::Gt, Expr::Field(1), Expr::int(5)));
        let sel = Select::new(filter);
        let short = TupleBuilder::new("x").push("n1").build();
        assert!(run_one(Box::new(sel), short).is_empty());
    }

    #[test]
    fn project_reorders_and_computes() {
        let fields = vec![
            Program::compile(&Expr::Field(2)),
            Program::compile(&Expr::bin(BinOp::Add, Expr::Field(1), Expr::int(1))),
        ];
        let proj = Project::new("out", fields);
        let input = TupleBuilder::new("in")
            .push("n1")
            .push(10i64)
            .push("n9")
            .build();
        let out = run_one(Box::new(proj), input);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].name(), "out");
        assert_eq!(out[0].values(), &[Value::str("n9"), Value::Int(11)]);
    }
}
