//! Property test pinning a strand's aggregation (`AggOp`) — keyed
//! candidates, and one evaluation per group of a group index for unkeyed
//! `min`/`max`/`count` — to a naive reference fold that walks every live row in scan order and
//! evaluates the full filter and the aggregate expression on each (no key,
//! no grouping). Both see the same arbitrary interleaving of inserts,
//! replaces, deletes, expirations, evictions and probe events over a table
//! with many duplicate projections, for every aggregate function, with and
//! without a pushed-down key, under a filter that fails on some rows;
//! emitted tuples (witness row included) must agree exactly. Column `B`
//! mixes `Int(n)` with `Double(n as f64)` — equal, hashed alike, yet
//! dividing differently — so non-uniform buckets are common and a probe
//! that trusted the hash would be caught.

use p2_dataflow::elements::{AggOp, Collector, CollectorHandle, FusedStrand, Insert};
use p2_dataflow::{Engine, Graph, Head};
use p2_pel::{BinOp, EvalContext, Expr, Program};
use p2_table::{AggFunc, Table, TableSpec};
use p2_value::{SimTime, Tuple, TupleBuilder, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Action {
    /// Insert `row(id, g, b, v)` (same `id` replaces; over-capacity
    /// evicts), with `b` stored as a `Double` if `b_double`.
    Insert {
        id: i64,
        g: i64,
        b: i64,
        b_double: bool,
        v: i64,
        at_secs: u64,
    },
    /// Delete the row keyed `id`.
    Delete { id: i64 },
    /// Expire soft state.
    Expire { at_secs: u64 },
    /// Deliver the probe event `ev(g, k)`: aggregate over matching rows.
    Probe { g: i64, k: i64, at_secs: u64 },
}

fn arb_action() -> impl Strategy<Value = Action> {
    // The vendored proptest has no weighted arms; duplication stands in
    // for weights (inserts and probes dominate). 40 row ids draw `(g, b,
    // v)` from 3 x (4 x 2 variants) x 3 values, so projections repeat
    // heavily and most `(g, b, v)` buckets hold both variants of `b`.
    let insert = || {
        // (The vendored proptest implements tuples up to arity four.)
        (
            0i64..40,
            (0i64..3, 0i64..4, 0i64..3),
            any::<bool>(),
            0u64..150,
        )
            .prop_map(|(id, (g, b, v), b_double, at_secs)| Action::Insert {
                id,
                g,
                b,
                b_double,
                v,
                at_secs,
            })
    };
    let probe = || {
        (0i64..3, 0i64..4, 0u64..150).prop_map(|(g, k, at_secs)| Action::Probe { g, k, at_secs })
    };
    prop_oneof![
        insert(),
        insert(),
        insert(),
        insert(),
        probe(),
        probe(),
        probe(),
        (0i64..40).prop_map(|id| Action::Delete { id }),
        (0u64..200).prop_map(|at_secs| Action::Expire { at_secs }),
    ]
}

fn arb_func() -> impl Strategy<Value = AggFunc> {
    prop_oneof![
        Just(AggFunc::Count),
        Just(AggFunc::Sum),
        Just(AggFunc::Avg),
        Just(AggFunc::Min),
        Just(AggFunc::Max),
    ]
}

// The joined tuple is `ev(G, K) ++ row(ID, G', B, V)`: fields 0-1 the
// event, 2-5 the row.

/// `G == G'`: the equality a keyed probe pushes into its key.
fn key_equality() -> Expr {
    Expr::bin(BinOp::Eq, Expr::Field(0), Expr::Field(3))
}

/// `12 / (B - K) > 0`: true for `B > K`, false for `B < K`, and a
/// division error on the rows with `B == K`.
fn residual() -> Expr {
    Expr::bin(
        BinOp::Gt,
        Expr::bin(
            BinOp::Div,
            Expr::int(12),
            Expr::bin(BinOp::Sub, Expr::Field(4), Expr::Field(1)),
        ),
        Expr::int(0),
    )
}

/// `V % 2 * 10 + 7 / (B + 1) - K`: ties are common within a projection
/// and (`V` of 0 and 2) across projections, so the first-scanned witness
/// rule is exercised, and the division is integral for an `Int` `B` but not
/// for the equal `Double`.
fn agg_expr() -> Expr {
    Expr::bin(
        BinOp::Sub,
        Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mul,
                Expr::bin(BinOp::Mod, Expr::Field(5), Expr::int(2)),
                Expr::int(10),
            ),
            Expr::bin(
                BinOp::Div,
                Expr::int(7),
                Expr::bin(BinOp::Add, Expr::Field(4), Expr::int(1)),
            ),
        ),
        Expr::Field(1),
    )
}

/// The reference: every live row, in scan order, through the whole filter
/// and the aggregate expression.
fn naive_probe(table: &Table, func: AggFunc, event: &Tuple) -> Option<Tuple> {
    let filter = Program::compile(&Expr::bin(BinOp::And, key_equality(), residual()));
    let agg = Program::compile(&agg_expr());
    let mut ev = EvalContext::new("n1", 1);
    let mut contribs: Vec<Value> = Vec::new();
    let mut witness: Option<(Value, Tuple)> = None;
    for row in table.scan_iter() {
        let joined = [event.values(), row.values()];
        if !matches!(filter.eval_bool_concat(&joined, &mut ev), Ok(true)) {
            continue;
        }
        let Ok(v) = agg.eval_concat(&joined, &mut ev) else {
            continue;
        };
        let better = match (&witness, func) {
            (None, _) => true,
            (Some((best, _)), AggFunc::Min) => v < *best,
            (Some((best, _)), AggFunc::Max) => v > *best,
            _ => false,
        };
        if better {
            witness = Some((v.clone(), row.clone()));
        }
        contribs.push(v);
    }
    let aggregate = func.apply(&contribs).ok().flatten()?;
    let mut extra = match (func, witness) {
        (AggFunc::Min | AggFunc::Max, Some((_, row))) => row.values().to_vec(),
        _ => vec![Value::Null; 4],
    };
    extra.push(aggregate);
    Some(event.extended(extra).renamed("out"))
}

/// Insert bridge and delete head on the table, plus the aggregating
/// strand on the event stream, each reached through its name's dispatch.
struct Rig {
    engine: Engine,
    buf: CollectorHandle,
}

/// The rig's one table.
const TABLE: usize = 0;

impl Rig {
    fn new(func: AggFunc, max_size: usize, keyed: bool) -> Rig {
        let spec = TableSpec::new("row", vec![0])
            .with_lifetime_secs(40)
            .with_max_size(max_size);
        let mut table = Table::new(spec);
        let agg = Program::compile(&agg_expr());
        let filter = if keyed {
            residual()
        } else {
            Expr::bin(BinOp::And, key_equality(), residual())
        };
        let filter = Program::compile(&filter);
        // The group index exists whenever the probe has no key, whether or
        // not this `func` may use it; a keyed probe is handed group columns
        // the table does not index, so taking that path would show up as a
        // fallback scan.
        let min_cols = AggOp::group_columns(AggFunc::Min, Some(&filter), &agg, 2);
        let min_cols = min_cols.expect("min folds by group");
        let cols = AggOp::group_columns(func, Some(&filter), &agg, 2);
        if keyed {
            table.add_index(vec![1]);
        } else {
            assert_eq!(min_cols, [1, 2, 3]);
            table.add_group_index(min_cols);
        }
        let probe = {
            let mut probe = AggOp::new(TABLE, 4, func, Some(filter), agg);
            if keyed {
                probe = probe.with_key(vec![(0, 1)]);
            }
            let probe = match cols {
                Some(cols) => probe.with_group_index(cols),
                None => probe,
            };
            // `ev(G, K) ++ witness ++ [aggregate]`, the reference's shape.
            let head = (0..7).map(|i| Program::compile(&Expr::Field(i)));
            FusedStrand::new(vec![], vec![probe.into()], head.collect(), "out")
        };

        let mut g = Graph::new();
        assert_eq!(g.add_table(table), TABLE);
        let ins = g.add("insert", Box::new(Insert::new(TABLE)));
        // A `delete` rule's strand: it projects the pattern, and its head
        // deletes the match.
        let zap = (0..4).map(|i| Program::compile(&Expr::Field(i)));
        let zap = FusedStrand::new(vec![], vec![], zap.collect(), "zap");
        let del = g.add("delete", Box::new(zap));
        g.set_head(del, 0, Head::Delete { table: TABLE });
        let probe_id = g.add("probe", Box::new(probe));
        let (c, buf) = Collector::new();
        let tap = g.add("tap", Box::new(c));
        for (name, consumer) in [("row", ins), ("zap", del), ("ev", probe_id)] {
            let dispatch = g.add_dispatch(name);
            g.connect_dispatch(dispatch, consumer, 0);
        }
        g.connect(probe_id, 0, tap, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_dispatch_entry();
        engine.start(SimTime::ZERO);
        Rig { engine, buf }
    }

    fn table(&self) -> &Table {
        &self.engine.tables()[TABLE]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn agg_probe_matches_naive_fold(
        func in arb_func(),
        keyed in any::<bool>(),
        actions in proptest::collection::vec(arb_action(), 1..120),
        max_size in 4usize..40,
    ) {
        let mut rig = Rig::new(func, max_size, keyed);
        let mut expected: Vec<Tuple> = Vec::new();
        let mut probes = 0u64;
        let mut now = SimTime::ZERO;
        for action in actions {
            match action {
                Action::Insert { id, g, b, b_double, v, at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    let b = if b_double { Value::Double(b as f64) } else { Value::Int(b) };
                    let t = TupleBuilder::new("row").push(id).push(g).push(b).push(v).build();
                    rig.engine.deliver(t, now);
                }
                Action::Delete { id } => {
                    let pattern = Tuple::new(
                        "zap",
                        vec![Value::Int(id), Value::Null, Value::Null, Value::Null],
                    );
                    rig.engine.deliver(pattern, now);
                }
                Action::Expire { at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    rig.engine.tables_mut()[TABLE].expire(now);
                }
                Action::Probe { g, k, at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    let ev = TupleBuilder::new("ev").push(g).push(k).build();
                    expected.extend(naive_probe(rig.table(), func, &ev));
                    rig.engine.deliver(ev, now);
                    probes += 1;
                }
            }
            rig.table().check_consistency().unwrap();
            let got: Vec<Tuple> = rig.buf.lock().iter().map(|(_, t)| t.clone()).collect();
            prop_assert_eq!(&got, &expected, "probe divergence for {:?} at {:?}", func, now);
            // `==` equates `Int(3)` with `Double(3.0)`; the variants must
            // agree too.
            prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));
        }
        // One index read per probe and never a scan — the key's index for a
        // keyed probe, the group index for unkeyed min/max/count — while
        // unkeyed sum/avg scan in row order and leave the group index alone.
        let stats = rig.table().stats();
        let by_group = matches!(func, AggFunc::Min | AggFunc::Max | AggFunc::Count);
        let (indexed, scans) = if keyed || by_group { (probes, 0) } else { (0, probes) };
        prop_assert_eq!((stats.indexed_lookups, stats.full_scans), (indexed, scans));
    }
}
