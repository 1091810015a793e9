//! Micro-benchmarks for the P2 runtime primitives (experiment E8):
//! element handoff cost, PEL evaluation, tuple marshaling, and table
//! operations. These back the paper's §3.3 claim that inter-element
//! transitions are cheap ("most take about 50 machine instructions").

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use p2_dataflow::elements::{FusedStrand, Queue};
use p2_dataflow::{Engine, Graph, Route};
use p2_pel::{BinOp, EvalContext, Expr, Program};
use p2_table::{Table, TableSpec};
use p2_value::{wire, SimTime, Tuple, TupleBuilder, Uint160, Value};

fn sample_tuple() -> Tuple {
    TupleBuilder::new("lookup")
        .push("node17:11111")
        .push(Value::Id(Uint160::hash_of(b"some key")))
        .push("node3:11111")
        .push(123_456_789i64)
        .build()
}

fn bench_pel(c: &mut Criterion) {
    let expr = Expr::bin(
        BinOp::And,
        Expr::bin(BinOp::Ne, Expr::Field(0), Expr::str("-")),
        Expr::bin(
            BinOp::Gt,
            Expr::bin(BinOp::Sub, Expr::Field(3), Expr::int(1_000_000)),
            Expr::int(0),
        ),
    );
    let program = Program::compile(&expr);
    let tuple = sample_tuple();
    let mut ctx = EvalContext::new("node17:11111", 7);
    c.bench_function("pel_vm_eval_filter", |b| {
        b.iter(|| program.eval(black_box(&tuple), &mut ctx).unwrap())
    });

    let ring = Expr::Interval {
        kind: p2_pel::IntervalKind::OpenClosed,
        value: Box::new(Expr::Field(1)),
        low: Box::new(Expr::Const(Value::Id(Uint160::from_u64(10)))),
        high: Box::new(Expr::Const(Value::Id(Uint160::MAX))),
    };
    let ring = Program::compile(&ring);
    c.bench_function("pel_vm_ring_interval", |b| {
        b.iter(|| ring.eval(black_box(&tuple), &mut ctx).unwrap())
    });
}

fn bench_tuples(c: &mut Criterion) {
    let tuple = sample_tuple();
    c.bench_function("tuple_clone_refcounted", |b| {
        b.iter(|| black_box(tuple.clone()))
    });
    c.bench_function("tuple_marshal", |b| {
        b.iter(|| wire::marshal(black_box(&tuple)))
    });
    let bytes = wire::marshal(&tuple);
    c.bench_function("tuple_unmarshal", |b| {
        b.iter(|| wire::unmarshal(black_box(&bytes)).unwrap())
    });
}

fn bench_table(c: &mut Criterion) {
    let mut t = Table::new(TableSpec::new("member", vec![1]).with_max_size(1000));
    t.add_index(vec![2]);
    for i in 0..500i64 {
        let tup = TupleBuilder::new("member")
            .push("n0")
            .push(i)
            .push(i % 10)
            .build();
        t.insert(tup, SimTime::ZERO).unwrap();
    }
    c.bench_function("table_indexed_lookup_500_rows", |b| {
        b.iter(|| t.lookup(black_box(&[2]), black_box(&[Value::Int(7)])))
    });
    c.bench_function("table_insert_refresh", |b| {
        let tup = TupleBuilder::new("member")
            .push("n0")
            .push(42i64)
            .push(2i64)
            .build();
        b.iter(|| {
            t.insert(black_box(tup.clone()), SimTime::from_secs(1))
                .unwrap()
        })
    });
}

/// Head programs copying the first `width` fields of a strand's virtual
/// tuple.
fn copy_fields(width: usize) -> Vec<Program> {
    (0..width)
        .map(|i| Program::compile(&Expr::Field(i)))
        .collect()
}

fn bench_elements(c: &mut Criterion) {
    // A three-element chain: Queue -> selecting strand -> Queue; measures
    // per-tuple handoff cost through the engine's work queue.
    let mut g = Graph::new();
    let q1 = g.add("q1", Box::new(Queue::new(None)));
    let select = Program::compile(&Expr::bin(BinOp::Ne, Expr::Field(0), Expr::str("-")));
    let sel = g.add(
        "sel",
        Box::new(FusedStrand::new(
            vec![select],
            vec![],
            copy_fields(4),
            "lookup",
        )),
    );
    let q2 = g.add("q2", Box::new(Queue::new(None)));
    g.connect(q1, 0, sel, 0);
    g.connect(sel, 0, q2, 0);
    let mut engine = Engine::new(g, "n0", 1);
    engine.set_entry(Route {
        element: q1,
        port: 0,
    });
    let tuple = sample_tuple();
    c.bench_function("element_handoff_chain_of_3", |b| {
        b.iter(|| engine.deliver(black_box(tuple.clone()), SimTime::ZERO))
    });

    // A strand's equijoin probe of a 100-row indexed table.
    let mut table = Table::new(TableSpec::new("succ", vec![1]));
    table.add_index(vec![0]);
    for i in 0..100i64 {
        let tup = TupleBuilder::new("succ")
            .push("node0:11111")
            .push(Value::Id(Uint160::hash_of(&i.to_be_bytes())))
            .push(format!("node{i}"))
            .build();
        table.insert(tup, SimTime::ZERO).unwrap();
    }
    let mut g = Graph::new();
    let probe = FusedStrand::probe_op(g.add_table(table), vec![(0, 0)]);
    let join = g.add(
        "join",
        Box::new(FusedStrand::new(
            vec![],
            vec![probe],
            copy_fields(5),
            "probe",
        )),
    );
    let mut engine = Engine::new(g, "node0:11111", 1);
    engine.set_entry(Route {
        element: join,
        port: 0,
    });
    let probe = TupleBuilder::new("ev")
        .push("node0:11111")
        .push(1i64)
        .build();
    c.bench_function("equijoin_probe_100_row_table", |b| {
        b.iter(|| engine.deliver(black_box(probe.clone()), SimTime::ZERO))
    });
}

/// Storage-engine benchmarks backing the table overhaul's perf claims:
/// bounded insert (O(log n) eviction instead of an O(n) victim scan),
/// expiry ticks (O(expired) instead of a full-row sweep), and indexed
/// probes at growing row counts.
fn bench_table_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_storage");

    fn filled(rows: i64) -> Table {
        let mut t = Table::new(
            TableSpec::new("member", vec![1])
                .with_lifetime_secs(3600)
                .with_max_size(rows as usize),
        );
        t.add_index(vec![2]);
        for i in 0..rows {
            let tup = TupleBuilder::new("member")
                .push("n0")
                .push(i)
                .push(i % 64)
                .build();
            t.insert(tup, SimTime::from_secs(i as u64)).unwrap();
        }
        t
    }

    for rows in [1_000i64, 10_000, 100_000] {
        // Insert at the size bound: every insert evicts the stalest row.
        let mut t = filled(rows);
        let mut next = rows;
        group.bench_function(format!("insert_with_eviction_{rows}"), |b| {
            b.iter(|| {
                next += 1;
                let tup = TupleBuilder::new("member")
                    .push("n0")
                    .push(next)
                    .push(next % 64)
                    .build();
                t.insert(black_box(tup), SimTime::from_secs(next as u64))
                    .unwrap()
            })
        });

        // Idle expiry tick: nothing has expired; the engine must answer in
        // O(log n) rather than scanning every row.
        let mut t = filled(rows);
        group.bench_function(format!("expire_tick_idle_{rows}"), |b| {
            b.iter(|| black_box(t.expire_count(SimTime::from_secs(10))))
        });

        // Indexed probe on the secondary index.
        let t = filled(rows);
        group.bench_function(format!("indexed_probe_{rows}"), |b| {
            let probe = [Value::Int(7)];
            b.iter(|| t.lookup_iter(black_box(&[2]), black_box(&probe)).count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pel,
    bench_tuples,
    bench_table,
    bench_table_storage,
    bench_elements
);
criterion_main!(benches);
