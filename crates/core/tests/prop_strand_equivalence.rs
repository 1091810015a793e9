//! Property and example tests pinning the planner's strands to a naive
//! reference evaluator (`reference`): a node running the planned program
//! and the evaluator, fed the same inputs, must send the same tuples on
//! every `deliver` and `advance_to` (compared sorted: the order is pinned
//! end to end by the golden NetStats, not here) and end with the same
//! table contents. The program covers every strand shape: bare heads,
//! selections and assignments, joins with conditions, self-joins, a
//! five-table join, anti-joins and an aggregation over a table the
//! strand also probes, delete routing, keyed and group-indexed aggregations with
//! witnesses (M5's ties span groups, so the witness is the first row
//! scanned, not the first of its group), `count<*>` over no rows, a
//! row-scanned `sum`, and a maintained aggregate feeding a table-triggered
//! rule.

mod reference;

use p2_core::{P2Node, PlanConfig, PlannedProgram};
use p2_overlog::compile_checked;
use p2_value::{SimTime, Tuple, Value};
use proptest::prelude::*;
use reference::RefNode;

const PROGRAM: &str = r#"
    materialize(member, 30, 6, keys(2)).
    materialize(score, infinity, infinity, keys(2)).
    materialize(size, infinity, 1, keys(1)).
    materialize(link, infinity, infinity, keys(2, 3)).
    materialize(e1, infinity, infinity, keys(2, 3)).
    materialize(e2, infinity, infinity, keys(2, 3)).
    materialize(e3, infinity, infinity, keys(2, 3)).
    materialize(e4, infinity, infinity, keys(2, 3)).
    materialize(e5, infinity, infinity, keys(2, 3)).
    materialize(cand, 40, infinity, keys(2)).
    R1 member@X(X, Y, S) :- add@X(X, Y, S).
    R2 out@Y(Y, X, D) :- ev@X(X, Y), member@X(X, Y, S), S > 2, D := S + 1.
    R3 far@Y(Y, X, T) :- ev@X(X, Y), X != Y, T := f_now().
    R4 delete member@X(X, Y, S) :- del@X(X, Y), member@X(X, Y, S).
    R5 lone@Y(Y, X) :- probe@X(X, Y), not score@X(X, Y).
    R6 score@X(X, Y) :- mark@X(X, Y).
    R7 size@X(X, count<*>) :- member@X(X, Y, S).
    R8 grown@Y(Y, X, C) :- size@X(X, C), member@X(X, Y, S), C > 3.
    L1 link@X(X, A, B) :- addLink@X(X, A, B).
    L2 delete link@X(X, A, B) :- cut@X(X, A, B).
    H1 hop2@C(C, X, A) :- hop@X(X, A), link@X(X, A, B), link@X(X, B, C).
    H2 fanout@B(B, X, count<*>) :- hop@X(X, A), link@X(X, A, B), link@X(X, B, C).
    N1 oneway@B(B, X, A) :- hop@X(X, A), link@X(X, A, B), not link@X(X, B, A).
    E1 e1@X(X, A, B) :- addEdge@X(X, I, A, B), I == 1.
    E2 e2@X(X, A, B) :- addEdge@X(X, I, A, B), I == 2.
    E3 e3@X(X, A, B) :- addEdge@X(X, I, A, B), I == 3.
    E4 e4@X(X, A, B) :- addEdge@X(X, I, A, B), I == 4.
    E5 e5@X(X, A, B) :- addEdge@X(X, I, A, B), I == 5.
    P5 path@F(F, X, A) :- go@X(X, A), e1@X(X, A, B), e2@X(X, B, C), e3@X(X, C, D),
       e4@X(X, D, E), e5@X(X, E, F).
    C1 cand@X(X, W, V) :- offer@X(X, W, V).
    M1 best@R(R, K, W, min<D>) :- ask@X(X, K, R), cand@X(X, W, V), D := V - K, V > K.
    M2 many@R(R, K, count<*>) :- ask@X(X, K, R), cand@X(X, W, V), V > K.
    M3 total@R(R, K, sum<V>) :- ask@X(X, K, R), cand@X(X, W, V).
    M4 known@R(R, W, count<*>) :- askFor@X(X, W, R), cand@X(X, W2, V), W2 == W.
    M5 half@R(R, K, W, max<D>) :- ask@X(X, K, R), cand@X(X, W, V), D := V / 2.
"#;

/// The node's address; peers are `n1`..`n4`, so index 0 is local.
const ME: &str = "n1";

fn peer(i: usize) -> Value {
    Value::str(["n1", "n2", "n3", "n4"][i])
}

fn tuple(name: &str, mut values: Vec<Value>) -> Tuple {
    values.insert(0, Value::str(ME));
    Tuple::new(name, values)
}

#[derive(Debug, Clone)]
enum Step {
    Deliver(Tuple),
    Advance(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let deliver = |s: BoxedStrategy<Tuple>| s.prop_map(Step::Deliver);
    let by_peer = |name: &'static str| {
        deliver(
            (0usize..4)
                .prop_map(move |y| tuple(name, vec![peer(y)]))
                .boxed(),
        )
    };
    let by_pair = |name: &'static str| {
        let pair = (0usize..4, 0usize..4);
        deliver(
            pair.prop_map(move |(a, b)| tuple(name, vec![peer(a), peer(b)]))
                .boxed(),
        )
    };
    prop_oneof![
        deliver(
            (0usize..4, -3i64..8)
                .prop_map(|(y, s)| tuple("add", vec![peer(y), Value::Int(s)]))
                .boxed()
        ),
        by_peer("ev"),
        by_peer("del"),
        by_peer("probe"),
        by_peer("mark"),
        by_pair("addLink"),
        by_pair("addLink"),
        by_pair("cut"),
        by_peer("hop"),
        deliver(
            (1i64..6, 0usize..4, 0usize..4)
                .prop_map(|(i, a, b)| tuple("addEdge", vec![Value::Int(i), peer(a), peer(b)]))
                .boxed()
        ),
        by_peer("go"),
        deliver(
            (0usize..4, 0i64..6)
                .prop_map(|(w, v)| tuple("offer", vec![peer(w), Value::Int(v)]))
                .boxed()
        ),
        deliver(
            (0i64..6, 0usize..4)
                .prop_map(|(k, r)| tuple("ask", vec![Value::Int(k), peer(r)]))
                .boxed()
        ),
        by_pair("askFor"),
        (1u64..40).prop_map(Step::Advance),
    ]
}

/// A call's sends as sorted `(destination, name, fields)`.
type Sends = Vec<(String, String, Vec<Value>)>;

fn sorted(sent: impl IntoIterator<Item = (String, Tuple)>) -> Sends {
    let mut sent: Sends = sent
        .into_iter()
        .map(|(dst, t)| (dst, t.name().to_string(), t.values().to_vec()))
        .collect();
    sent.sort();
    sent
}

fn table_rows(node: &P2Node, name: &str) -> Vec<Vec<Value>> {
    let table = node.table(name).expect("declared table");
    let mut rows: Vec<Vec<Value>> = table.scan_iter().map(|t| t.values().to_vec()).collect();
    rows.sort();
    rows
}

/// Runs `steps` through the planned node and the reference evaluator,
/// asserting they agree call by call and on the final tables; returns
/// each call's sends.
fn run(steps: &[Step]) -> Vec<Sends> {
    let program = compile_checked(PROGRAM).expect("test program compiles");
    let plan = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter())
        .expect("test program plans");
    let mut node = P2Node::from_plan(&plan, ME, 7, vec![]);
    let mut reference = RefNode::new(&program, ME);
    let to_pairs = |out: Vec<p2_dataflow::Outgoing>| {
        out.into_iter()
            .map(|o| (o.dst.to_string(), o.tuple))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        sorted(to_pairs(node.start(SimTime::ZERO))),
        sorted(reference.start(SimTime::ZERO)),
        "start diverged"
    );
    let mut now = SimTime::from_secs(1);
    let mut calls = Vec::new();
    for step in steps {
        let (got, want) = match step {
            Step::Advance(secs) => {
                now += SimTime::from_secs(*secs);
                (node.advance_to(now), reference.advance_to(now))
            }
            Step::Deliver(t) => (
                node.deliver(t.clone(), now),
                reference.deliver(t.clone(), now),
            ),
        };
        let got = sorted(to_pairs(got));
        assert_eq!(got, sorted(want), "diverged at {step:?} ({now:?})");
        calls.push(got);
    }
    for m in &program.materializations {
        assert_eq!(
            table_rows(&node, &m.name),
            reference.rows(&m.name),
            "final `{}` diverged",
            m.name
        );
    }
    calls
}

fn sent_names(calls: &[Sends]) -> Vec<String> {
    calls.iter().flatten().map(|(_, n, _)| n.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fused_and_generic_nodes_are_observationally_identical(
        steps in proptest::collection::vec(arb_step(), 1..80),
    ) {
        run(&steps);
    }
}

/// Every rule of the test program lowers to strands (plus its egress,
/// delete bridge or materialized aggregate), whatever its shape.
#[test]
fn the_test_program_actually_fuses() {
    let program = compile_checked(PROGRAM).unwrap();
    let plan = PlannedProgram::compile(&program, &PlanConfig::new().without_jitter()).unwrap();
    let meta = plan.obs_meta();
    for rule in &program.rules {
        let kinds: Vec<&str> = meta
            .elems
            .iter()
            .filter(|e| e.rule.as_deref() == Some(rule.id.as_str()))
            .map(|e| e.kind.as_str())
            .collect();
        assert!(kinds.contains(&"strand"), "{}: {kinds:?}", rule.id);
        assert!(
            kinds
                .iter()
                .all(|k| ["strand", "netout", "delete", "table_agg"].contains(k)),
            "{}: {kinds:?}",
            rule.id
        );
    }
}

fn deliver(name: &str, values: Vec<Value>) -> Step {
    Step::Deliver(tuple(name, values))
}

fn link(a: usize, b: usize) -> Step {
    deliver("addLink", vec![peer(a), peer(b)])
}

/// H1 probes `link` twice: the second probe reads the table the first is
/// reading.
#[test]
fn self_join_matches_the_reference() {
    let calls = run(&[
        link(0, 1),
        link(1, 2),
        link(1, 3),
        deliver("hop", vec![peer(0)]),
    ]);
    let hop2: Vec<&String> = calls[3]
        .iter()
        .filter(|(_, n, _)| n == "hop2")
        .map(|(dst, _, _)| dst)
        .collect();
    assert_eq!(hop2, ["n3", "n4"]);
}

/// P5 joins five distinct tables after its trigger.
#[test]
fn five_table_join_matches_the_reference() {
    let edge =
        |i: i64, a: usize, b: usize| deliver("addEdge", vec![Value::Int(i), peer(a), peer(b)]);
    let calls = run(&[
        edge(1, 0, 1),
        edge(2, 1, 2),
        edge(3, 2, 3),
        edge(4, 3, 1),
        edge(5, 1, 2),
        edge(5, 1, 3),
        deliver("go", vec![peer(0)]),
        deliver("go", vec![peer(1)]),
    ]);
    assert_eq!(sent_names(&calls[6..7]), ["path", "path"]);
    assert!(calls[7].is_empty());
}

/// N1 probes `link` and then negates `link`: the anti-join reads the table
/// the probe is reading.
#[test]
fn anti_join_over_a_probed_table_matches_the_reference() {
    let calls = run(&[
        link(0, 1),
        link(1, 0),
        link(0, 2),
        deliver("hop", vec![peer(0)]),
    ]);
    let oneway: Vec<&String> = calls[3]
        .iter()
        .filter(|(_, n, _)| n == "oneway")
        .map(|(dst, _, _)| dst)
        .collect();
    assert_eq!(oneway, ["n3"]);
}

/// H2 probes `link` and then counts `link` rows keyed on the probed row:
/// the aggregation reads the table the probe reads.
#[test]
fn aggregation_over_a_probed_table_matches_the_reference() {
    let calls = run(&[
        link(0, 1),
        link(0, 2),
        link(1, 2),
        link(1, 3),
        link(1, 0),
        deliver("hop", vec![peer(0)]),
    ]);
    let fanout: Vec<(&String, &Value)> = calls[5]
        .iter()
        .filter(|(_, n, _)| n == "fanout")
        .map(|(dst, _, v)| (dst, &v[2]))
        .collect();
    assert_eq!(
        fanout,
        [
            (&"n2".to_string(), &Value::Int(3)),
            (&"n3".to_string(), &Value::Int(0))
        ]
    );
}

/// M1's `min` sends the witness row's `W` (the first of two tied rows);
/// M2's `count<*>` over no contributing row sends 0, where `min` sends
/// nothing.
#[test]
fn min_witness_and_empty_count_match_the_reference() {
    let offer = |w: usize, v: i64| deliver("offer", vec![peer(w), Value::Int(v)]);
    let ask = |k: i64| deliver("ask", vec![Value::Int(k), peer(1)]);
    let calls = run(&[offer(2, 4), offer(3, 2), offer(1, 2), ask(1), ask(5)]);
    let find = |call: &Sends, name: &str| {
        call.iter()
            .find(|(_, n, _)| n == name)
            .map(|(_, _, v)| v.clone())
    };
    // `min<V - K>` over V in {4, 2, 2}: the tie at 2 goes to n4, the first
    // row offered with it.
    assert_eq!(
        find(&calls[3], "best"),
        Some(vec![peer(1), Value::Int(1), peer(3), Value::Int(1)])
    );
    assert_eq!(
        find(&calls[3], "many"),
        Some(vec![peer(1), Value::Int(1), Value::Int(3)])
    );
    assert_eq!(find(&calls[4], "best"), None);
    assert_eq!(
        find(&calls[4], "many"),
        Some(vec![peer(1), Value::Int(5), Value::Int(0)])
    );
}
