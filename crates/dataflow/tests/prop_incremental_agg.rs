//! Property test pinning the materialized `TableAgg` to the
//! recompute-per-poke semantics: under arbitrary interleavings of insert /
//! delete / expire / evict, for every `AggFunc`, the element's emission
//! stream must be identical to a reference model that recomputes
//! `Table::aggregate` from scratch at every poke and diffs against its
//! memo. Payloads mix integers with tenths, which binary floating point
//! cannot represent exactly, so a `sum`/`avg` kept as a running total with
//! retractions would drift from the from-scratch fold.

use p2_dataflow::elements::{Collector, FusedStrand, Insert, TableAgg};
use p2_dataflow::{Engine, Graph, Head};
use p2_pel::{Expr, Program};
use p2_table::{AggFunc, Table, TableSpec};
use p2_value::{SimTime, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Action {
    /// Insert `t(group, key, payload)` (pokes the aggregate).
    Insert {
        group: i64,
        key: i64,
        payload: Value,
        at_secs: u64,
    },
    /// Delete by key (pokes the aggregate when a row is removed).
    Delete { key: i64 },
    /// Expire soft state directly on the table (observable to the
    /// aggregate only at its next poke).
    Expire { at_secs: u64 },
}

/// `Int(n)` or `Double(n / 10)`.
fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|n| Value::Double(n as f64 / 10.0)),
    ]
}

fn arb_insert() -> impl Strategy<Value = Action> {
    (0i64..3, 0i64..12, arb_payload(), 0u64..300).prop_map(|(group, key, payload, at_secs)| {
        Action::Insert {
            group,
            key,
            payload,
            at_secs,
        }
    })
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_insert(),
        arb_insert(),
        (0i64..12).prop_map(|key| Action::Delete { key }),
        (0u64..400).prop_map(|at_secs| Action::Expire { at_secs }),
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

/// The recompute-per-poke reference model: a from-scratch
/// `Table::aggregate` diffed against the last-emitted memo, vanished and
/// changed groups emitted in one sorted pass (the element's documented
/// emission contract).
struct RecomputeModel {
    func: AggFunc,
    agg_col: Option<usize>,
    group_cols: Vec<usize>,
    last: HashMap<Vec<Value>, Value>,
}

impl RecomputeModel {
    fn poke(&mut self, table: &Table) -> Vec<Vec<Value>> {
        let live: HashMap<Vec<Value>, Value> = table
            .aggregate(self.func, self.agg_col, &self.group_cols)
            .expect("test values are always aggregable")
            .into_iter()
            .collect();
        let mut keys: Vec<Vec<Value>> = live.keys().chain(self.last.keys()).cloned().collect();
        keys.sort();
        keys.dedup();
        let empty_value = self.func.apply(&[]).ok().flatten();
        let mut out = Vec::new();
        for key in keys {
            match live.get(&key) {
                Some(agg) => {
                    if self.last.get(&key) != Some(agg) {
                        self.last.insert(key.clone(), agg.clone());
                        let mut values = key;
                        values.push(agg.clone());
                        out.push(values);
                    }
                }
                None => {
                    if self.last.remove(&key).is_some() {
                        if let Some(v) = &empty_value {
                            let mut values = key;
                            values.push(v.clone());
                            out.push(values);
                        }
                    }
                }
            }
        }
        out
    }
}

fn row(group: i64, key: i64, payload: Value) -> Tuple {
    Tuple::new("t", vec![Value::Int(group), Value::Int(key), payload])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_table_agg_matches_from_scratch_recompute(
        func in arb_func(),
        actions in proptest::collection::vec(arb_action(), 1..80),
        max_size in 2usize..8,
    ) {
        // The planner's wiring in miniature: the insert bridge and a
        // delete rule's head write the table and poke the aggregate; an extra poke stream lets
        // the test surface expiry-only changes the way any later poke
        // would.
        let agg_col = match func {
            AggFunc::Count => None,
            _ => Some(2),
        };
        let spec = TableSpec::new("t", vec![1])
            .with_lifetime_secs(50)
            .with_max_size(max_size);
        let mut g = Graph::new();
        let table = g.add_table(Table::new(spec));
        let ins = g.add("insert", Box::new(Insert::new(table)));
        let zap = (0..3).map(|i| Program::compile(&Expr::Field(i)));
        let zap = FusedStrand::new(vec![], vec![], zap.collect(), "zap");
        let del = g.add("delete", Box::new(zap));
        g.set_head(del, 0, Head::Delete { table });
        let agg = g.add(
            "agg",
            Box::new(TableAgg::new(table, func, agg_col, vec![0], "out")),
        );
        let (c, buf) = Collector::new();
        let tap = g.add("tap", Box::new(c));
        for (name, consumer) in [("t", ins), ("zap", del), ("poke", agg)] {
            let dispatch = g.add_dispatch(name);
            g.connect_dispatch(dispatch, consumer, 0);
        }
        g.connect(ins, 0, agg, 0);
        g.connect(del, 0, agg, 0);
        g.connect(agg, 0, tap, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_dispatch_entry();
        engine.start(SimTime::ZERO);

        let mut model = RecomputeModel {
            func,
            agg_col,
            group_cols: vec![0],
            last: HashMap::new(),
        };
        let mut now = SimTime::ZERO;
        let mut seen = 0usize;
        for action in actions {
            match action {
                Action::Insert { group, key, payload, at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    engine.deliver(row(group, key, payload), now);
                }
                Action::Delete { key } => {
                    let pattern = Tuple::new(
                        "zap",
                        vec![Value::Null, Value::Int(key), Value::Null],
                    );
                    engine.deliver(pattern, now);
                }
                Action::Expire { at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs));
                    engine.tables_mut()[table].expire(now);
                }
            }
            // A trailing poke flushes any change the action itself did not
            // poke for (expiry, no-op deletes); redundant pokes must be
            // silent in both the element and the model.
            engine.deliver(Tuple::new("poke", vec![]), now);

            let expected = model.poke(&engine.tables()[table]);
            let emitted: Vec<Vec<Value>> = {
                let guard = buf.lock();
                guard[seen..].iter().map(|(_, t)| t.values().to_vec()).collect()
            };
            seen += emitted.len();
            prop_assert_eq!(
                emitted,
                expected,
                "divergence for {:?} after {:?}",
                func,
                now
            );
            engine.tables()[table].check_consistency().unwrap();
        }
    }
}
