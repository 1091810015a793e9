//! Join keys: how a rule strand probes a table on the values it has bound.

use p2_value::Value;

/// Upper bound on join-key arity probed without heap allocation; OverLog
/// rules rarely unify more than two or three columns per table.
const INLINE_PROBE: usize = 8;

const NULL_VALUE: Value = Value::Null;

/// Join-key pairs normalized at construction: table columns sorted
/// ascending and deduplicated (the order [`p2_table::Table::lookup_iter`]
/// requires), with the strand fields carried alongside.
///
/// When two different strand fields constrain the *same* table column
/// (`(s1, t), (s2, t)`), one pair drives the probe and the rest become
/// strand-side equality checks (`view[s1] == view[s2]`): the constraints
/// can only both hold when those strand values agree.
///
/// A key compares by *index* equality: a primary or declared secondary
/// index is probed by `Value`'s hash and each hit confirmed with `==`. The
/// hash agrees with `==` within Bool/Int/Double/Time and within `Str` and
/// `Id`, but `Id(x) == Int(x)` holds while the two hash differently — a key
/// equating an `Id` with an `Int` finds nothing through an index, where
/// the same equality written as a PEL condition would match. This holds
/// for join, anti-join and aggregation keys alike; programs keep a column
/// to one of the two types.
///
/// Field indices address a strand's *virtual* tuple, a list of segments
/// (trigger, matched rows, assigned values) resolved with
/// [`p2_pel::concat_get`], the same way PEL programs resolve them.
#[derive(Debug, Clone, Default)]
pub struct ProbeKey {
    /// `(strand field, table column)` with unique table columns, sorted by
    /// table column.
    pairs: Box<[(usize, usize)]>,
    /// The table columns alone, in the same (sorted) order.
    pub(crate) table_cols: Box<[usize]>,
    /// Strand-field pairs that must be equal (folded duplicate-column
    /// constraints).
    stream_checks: Box<[(usize, usize)]>,
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
            pairs: pairs.into(),
            table_cols,
            stream_checks: stream_checks.into(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `(strand field, table column)` pairs the probe matches on, one
    /// per table column, sorted by table column.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Whether the virtual tuple `parts` satisfies the folded
    /// duplicate-column constraints: `Some(true)` if all hold (vacuously
    /// with none declared), `Some(false)` if some pair is present but
    /// unequal, `None` when a checked field is missing (malformed).
    pub(crate) fn stream_checks_hold(&self, parts: &[&[Value]]) -> Option<bool> {
        let view = |i: usize| p2_pel::concat_get(parts, i);
        for &(a, b) in &self.stream_checks {
            match (view(a), view(b)) {
                (Some(x), Some(y)) if x == y => {}
                (Some(_), Some(_)) => return Some(false),
                _ => return None,
            }
        }
        Some(true)
    }

    /// Runs `body` with the probe values borrowed from the virtual tuple
    /// `parts` (no clones; stack storage up to [`INLINE_PROBE`] columns).
    /// Returns `None` when a key field is missing. Callers must consult
    /// [`ProbeKey::stream_checks_hold`] first — a failed check means no
    /// row can match, which a probe and an anti-join interpret oppositely.
    pub(crate) fn with_probe<R>(
        &self,
        parts: &[&[Value]],
        body: impl FnOnce(&[&Value]) -> R,
    ) -> Option<R> {
        let view = |i: usize| p2_pel::concat_get(parts, i);
        let n = self.pairs.len();
        let mut stack: [&Value; INLINE_PROBE] = [&NULL_VALUE; INLINE_PROBE];
        let mut heap: Vec<&Value>;
        let probe: &[&Value] = if n <= INLINE_PROBE {
            for (slot, (s, _)) in stack.iter_mut().zip(&self.pairs) {
                *slot = view(*s)?;
            }
            &stack[..n]
        } else {
            heap = Vec::with_capacity(n);
            for (s, _) in &self.pairs {
                heap.push(view(*s)?);
            }
            &heap
        };
        Some(body(probe))
    }
}

#[cfg(test)]
mod tests {
    //! The key semantics, driven through the strand ops that use them.

    use crate::element::Element;
    use crate::elements::{Collector, FusedStrand, StrandOp};
    use crate::engine::{Engine, Graph, Route};
    use p2_pel::{BinOp, Expr, Program};
    use p2_table::{Table, TableSpec};
    use p2_value::{SimTime, Tuple, TupleBuilder, Value};

    /// The node's one table, id 0.
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

    /// A strand running `ops` and emitting the first `width` fields of its
    /// virtual tuple under `out_name`.
    fn strand(ops: Vec<StrandOp>, width: usize, out_name: &str) -> Box<dyn Element> {
        let head = (0..width).map(|i| Program::compile(&Expr::Field(i)));
        Box::new(FusedStrand::new(vec![], ops, head.collect(), out_name))
    }

    /// `trigger ++ succ row` for every `succ` row matching `key`.
    fn join(key: Vec<(usize, usize)>, trigger_arity: usize) -> Box<dyn Element> {
        let probe = FusedStrand::probe_op(0, key);
        strand(vec![probe], trigger_arity + 3, "ev_succ")
    }

    /// The trigger, forwarded when no `succ` row matches `key`.
    fn anti(key: Vec<(usize, usize)>, trigger_arity: usize) -> Box<dyn Element> {
        let anti = FusedStrand::anti_op(0, key);
        strand(vec![anti], trigger_arity, "ev")
    }

    /// Runs `element` on a node whose table 0 is [`succ_table`].
    fn run_one(element: Box<dyn Element>, input: Tuple) -> Vec<Tuple> {
        let mut g = Graph::new();
        g.add_table(succ_table());
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
        let input = TupleBuilder::new("ev").push("n1").push(42i64).build();
        let out = run_one(join(vec![(0, 0)], 2), input);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.name() == "ev_succ" && t.arity() == 5));
        // Trigger fields come first, then the table row.
        assert_eq!(out[0].field(1), &Value::Int(42));
    }

    #[test]
    fn join_with_no_match_emits_nothing() {
        let input = TupleBuilder::new("ev").push("n2").build();
        assert!(run_one(join(vec![(0, 0)], 1), input).is_empty());
    }

    #[test]
    fn join_on_empty_key_is_cartesian_with_table() {
        let input = TupleBuilder::new("ev").push("whatever").build();
        assert_eq!(run_one(join(vec![], 1), input).len(), 2);
    }

    #[test]
    fn join_keeps_duplicate_column_constraints() {
        // Two different trigger fields constraining the same table column:
        // both equalities must hold, so a tuple whose fields disagree
        // matches nothing even though one of them alone would.
        let key = || vec![(0, 0), (1, 0)];
        let agree = TupleBuilder::new("ev").push("n1").push("n1").build();
        assert_eq!(run_one(join(key(), 2), agree).len(), 2);

        let disagree = TupleBuilder::new("ev").push("n1").push("n2").build();
        assert!(run_one(join(key(), 2), disagree.clone()).is_empty());

        // The anti-join sees the conflicting constraint as "no match" and
        // forwards the tuple.
        assert_eq!(run_one(anti(key(), 2), disagree).len(), 1);
    }

    #[test]
    fn antijoin_forwards_only_non_matching() {
        let hit = TupleBuilder::new("ev").push("n1").build();
        assert!(run_one(anti(vec![(0, 0)], 1), hit).is_empty());

        let miss = TupleBuilder::new("ev").push("n7").build();
        assert_eq!(run_one(anti(vec![(0, 0)], 1), miss).len(), 1);
    }

    #[test]
    fn select_filters_and_survives_errors() {
        let select = || {
            let filter = Program::compile(&Expr::bin(BinOp::Gt, Expr::Field(1), Expr::int(5)));
            strand(vec![StrandOp::Filter(filter)], 2, "x")
        };
        let keep = TupleBuilder::new("x").push("n1").push(9i64).build();
        assert_eq!(run_one(select(), keep).len(), 1);

        let drop = TupleBuilder::new("x").push("n1").push(3i64).build();
        assert!(run_one(select(), drop).is_empty());

        // A tuple that is too short triggers an evaluation error and is
        // dropped without panicking.
        let short = TupleBuilder::new("x").push("n1").build();
        assert!(run_one(select(), short).is_empty());
    }

    #[test]
    fn project_reorders_and_computes() {
        let fields = vec![
            Program::compile(&Expr::Field(2)),
            Program::compile(&Expr::bin(BinOp::Add, Expr::Field(1), Expr::int(1))),
        ];
        let proj = FusedStrand::new(vec![], vec![], fields, "out");
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
