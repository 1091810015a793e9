//! Property test pinning the materialized `TableAgg` to the
//! recompute-per-poke semantics: under arbitrary interleavings of insert /
//! delete / expire / evict, for every `AggFunc`, the element's emission
//! stream must be identical to a reference model that recomputes
//! `Table::aggregate` from scratch at every poke and diffs against its
//! memo. Payloads mix integers with tenths, which binary floating point
//! cannot represent exactly, so a `sum`/`avg` kept as a running total with
//! retractions would drift from the from-scratch fold.

use p2_dataflow::elements::{Collector, Delete, Demux, Insert, TableAgg};
use p2_dataflow::{Engine, Graph, Route};
use p2_table::{AggFunc, TableRef, TableSpec};
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
    fn poke(&mut self, table: &TableRef) -> Vec<Vec<Value>> {
        let live: HashMap<Vec<Value>, Value> = table
            .lock()
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
        // The planner's wiring in miniature: inserts and deletes bridge
        // into the table and poke the aggregate; an extra poke stream lets
        // the test surface expiry-only changes the way any later poke
        // would.
        let agg_col = match func {
            AggFunc::Count => None,
            _ => Some(2),
        };
        let spec = TableSpec::new("t", vec![1])
            .with_lifetime_secs(50)
            .with_max_size(max_size);
        let table: TableRef =
            std::sync::Arc::new(parking_lot::Mutex::new(p2_table::Table::new(spec)));

        let mut g = Graph::new();
        let demux = g.add(
            "demux",
            Box::new(Demux::new(vec!["t".into(), "zap".into(), "poke".into()])),
        );
        let ins = g.add("insert", Box::new(Insert::new(table.clone())));
        let del = g.add("delete", Box::new(Delete::new(table.clone())));
        let agg = g.add(
            "agg",
            Box::new(TableAgg::new(table.clone(), func, agg_col, vec![0], "out")),
        );
        let (c, buf) = Collector::new();
        let tap = g.add("tap", Box::new(c));
        g.connect(demux, 0, ins, 0);
        g.connect(demux, 1, del, 0);
        g.connect(ins, 0, agg, 0);
        g.connect(del, 0, agg, 0);
        g.connect(demux, 2, agg, 0);
        g.connect(agg, 0, tap, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: demux,
            port: 0,
        });
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
                    table.lock().expire(now);
                }
            }
            // A trailing poke flushes any change the action itself did not
            // poke for (expiry, no-op deletes); redundant pokes must be
            // silent in both the element and the model.
            engine.deliver(Tuple::new("poke", vec![]), now);

            let expected = model.poke(&table);
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
            table.lock().check_consistency().unwrap();
        }
    }
}
