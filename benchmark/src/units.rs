//! Unit costs: each layer's public calls timed in isolation, at the sizes
//! a Chord node works with. Multiplied by the traced run's counts they give
//! the share of host time an outside model can account for.

use std::hint::black_box;
use std::time::Instant;

use p2_dataflow::elements::Queue;
use p2_dataflow::{Engine, Graph, Route};
use p2_netsim::{Envelope, Host, NetworkConfig, Simulator};
use p2_pel::{EvalContext, Expr, IntervalKind, Program};
use p2_table::{Table, TableSpec};
use p2_value::{wire, SimTime, Tuple, TupleBuilder, Uint160, Value};

use crate::stats::quantile;

/// Nanoseconds per call of each unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Units {
    pub primary_get_ns: f64,
    pub indexed_probe_ns: f64,
    pub insert_refresh_ns: f64,
    pub expire_tick_ns: f64,
    pub pel_eval_ns: f64,
    pub tuple_build_ns: f64,
    pub marshal_ns: f64,
    pub unmarshal_ns: f64,
    pub handoff_ns: f64,
    pub toy_ns_per_event: f64,
}

const REPS: usize = 7;

/// Lower quartile over `REPS` batches of `iters` calls, in ns per call.
fn ns_per_call(iters: u32, mut call: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                call();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    quantile(&batches, 0.25)
}

fn lookup_tuple() -> Tuple {
    TupleBuilder::new("lookup")
        .push("node17:11111")
        .push(Value::Id(Uint160::hash_of(b"some key")))
        .push("node3:11111")
        .push(123_456_789i64)
        .build()
}

/// A finger-table-sized table: 160 rows keyed on column 1, indexed on 2.
fn finger_like() -> Table {
    let mut t = Table::new(
        TableSpec::new("finger", vec![1])
            .with_lifetime_secs(180)
            .with_max_size(160),
    );
    t.add_index(vec![2]);
    for i in 0..160i64 {
        let row = TupleBuilder::new("finger")
            .push("node0:11111")
            .push(i)
            .push(i % 16)
            .build();
        t.insert(row, SimTime::ZERO)
            .expect("row has the key column");
    }
    t
}

/// A host that sends one tuple to its ring neighbour every second.
struct Toy {
    addr: String,
    peer: String,
    phase_ms: u64,
    next: Option<SimTime>,
}

impl Host for Toy {
    fn start(&mut self, now: SimTime) -> Vec<Envelope> {
        self.next = Some(now + SimTime::from_millis(1000 + self.phase_ms));
        Vec::new()
    }

    fn deliver(&mut self, _tuple: Tuple, _now: SimTime) -> Vec<Envelope> {
        Vec::new()
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
        match self.next {
            Some(t) if t <= now => {
                self.next = Some(t + SimTime::from_secs(1));
                vec![Envelope::new(
                    self.peer.as_str(),
                    TupleBuilder::new("ping").push(self.addr.as_str()).build(),
                )]
            }
            _ => Vec::new(),
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.next
    }
}

fn toy_ns_per_event(nodes: usize) -> f64 {
    let mut sim: Simulator<Toy> = Simulator::new(NetworkConfig::emulab_default(17));
    for i in 0..nodes {
        sim.add_node(
            format!("n{i}"),
            Toy {
                addr: format!("n{i}"),
                peer: format!("n{}", (i + 1) % nodes),
                phase_ms: (i as u64 * 131) % 997,
                next: None,
            },
        );
    }
    sim.start_all();
    sim.run_for(SimTime::from_secs(2));
    let batches: Vec<f64> = (0..REPS)
        .map(|_| {
            let before = sim.events_processed();
            let t = Instant::now();
            sim.run_for(SimTime::from_secs(20));
            t.elapsed().as_nanos() as f64 / (sim.events_processed() - before).max(1) as f64
        })
        .collect();
    quantile(&batches, 0.25)
}

pub fn measure(nodes: usize) -> Units {
    let tuple = lookup_tuple();
    let table = finger_like();
    let key = [Value::Int(77)];
    let probe = [Value::Int(7)];
    let primary_get_ns = ns_per_call(20_000, || {
        black_box(table.get_ref(black_box(&key)));
    });
    let indexed_probe_ns = ns_per_call(20_000, || {
        black_box(
            table
                .lookup_iter(black_box(&[2]), black_box(&probe))
                .count(),
        );
    });
    let mut table = table;
    let refresh = TupleBuilder::new("finger")
        .push("node0:11111")
        .push(42i64)
        .push(10i64)
        .build();
    let insert_refresh_ns = ns_per_call(20_000, || {
        black_box(table.insert(black_box(refresh.clone()), SimTime::from_secs(1))).ok();
    });
    let expire_tick_ns = ns_per_call(20_000, || {
        black_box(table.expire_count(black_box(SimTime::from_secs(10))));
    });

    // Chord's ring-interval test `K in (N, S]` on 160-bit identifiers.
    let ring = Program::compile(&Expr::Interval {
        kind: IntervalKind::OpenClosed,
        value: Box::new(Expr::Field(1)),
        low: Box::new(Expr::Const(Value::Id(Uint160::from_u64(10)))),
        high: Box::new(Expr::Const(Value::Id(Uint160::MAX))),
    });
    let mut ctx = EvalContext::new("node17:11111", 7);
    let pel_eval_ns = ns_per_call(20_000, || {
        black_box(ring.eval(black_box(&tuple), &mut ctx)).ok();
    });

    let tuple_build_ns = ns_per_call(20_000, || {
        black_box(lookup_tuple());
    });
    let marshal_ns = ns_per_call(20_000, || {
        black_box(wire::marshal(black_box(&tuple)));
    });
    let bytes = wire::marshal(&tuple);
    let unmarshal_ns = ns_per_call(20_000, || {
        black_box(wire::unmarshal(black_box(&bytes))).ok();
    });

    // Three pass-through elements: what one hop through the engine's work
    // queue costs when the element itself does nothing.
    let mut graph = Graph::new();
    let first = graph.add("q1", Box::new(Queue::new(None)));
    let second = graph.add("q2", Box::new(Queue::new(None)));
    let third = graph.add("q3", Box::new(Queue::new(None)));
    graph.connect(first, 0, second, 0);
    graph.connect(second, 0, third, 0);
    let mut engine = Engine::new(graph, "n0", 1);
    engine.set_entry(Route {
        element: first,
        port: 0,
    });
    let before = engine.stats().handoffs;
    let per_deliver_ns = ns_per_call(20_000, || {
        black_box(engine.deliver(black_box(tuple.clone()), SimTime::ZERO));
    });
    let handoffs_per_deliver = (engine.stats().handoffs - before) as f64 / (REPS as f64 * 20_000.0);
    let handoff_ns = per_deliver_ns / handoffs_per_deliver.max(1.0);

    Units {
        primary_get_ns,
        indexed_probe_ns,
        insert_refresh_ns,
        expire_tick_ns,
        pel_eval_ns,
        tuple_build_ns,
        marshal_ns,
        unmarshal_ns,
        handoff_ns,
        toy_ns_per_event: toy_ns_per_event(nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_is_timed() {
        let u = measure(8);
        for (name, ns) in [
            ("primary_get", u.primary_get_ns),
            ("indexed_probe", u.indexed_probe_ns),
            ("insert_refresh", u.insert_refresh_ns),
            ("expire_tick", u.expire_tick_ns),
            ("pel_eval", u.pel_eval_ns),
            ("tuple_build", u.tuple_build_ns),
            ("marshal", u.marshal_ns),
            ("unmarshal", u.unmarshal_ns),
            ("handoff", u.handoff_ns),
            ("toy", u.toy_ns_per_event),
        ] {
            assert!(ns > 0.0 && ns < 1e6, "{name}: {ns} ns");
        }
    }
}
