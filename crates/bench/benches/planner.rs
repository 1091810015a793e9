//! Benchmarks of the OverLog front end and planner: parsing and planning the
//! full Chord specification (the paper's "life of a query": parse → plan →
//! execute), plus a single-node end-to-end event cascade.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use p2_core::{NodeConfig, P2Node};
use p2_overlays::chord;
use p2_overlog::{compile_checked, parse_program};
use p2_value::SimTime;

fn bench_front_end(c: &mut Criterion) {
    c.bench_function("parse_chord_47_rules", |b| {
        b.iter(|| parse_program(black_box(chord::CHORD_OLG)).unwrap())
    });
    c.bench_function("parse_validate_chord", |b| {
        b.iter(|| compile_checked(black_box(chord::CHORD_OLG)).unwrap())
    });
    c.bench_function("plan_chord_node", |b| {
        let program = chord::program();
        b.iter(|| {
            P2Node::with_facts(
                program,
                NodeConfig::new("node0:11111", 7).without_jitter(),
                chord::base_facts("node0:11111", None),
            )
            .unwrap()
        })
    });
}

fn bench_node_cascade(c: &mut Criterion) {
    // A single Chord node processing a lookup for a key it owns: measures
    // the full dispatch -> strand -> local head -> dispatch path.
    let mut node = P2Node::with_facts(
        chord::program(),
        NodeConfig::new("node0:11111", 7).without_jitter(),
        chord::base_facts("node0:11111", None),
    )
    .unwrap();
    node.start(SimTime::ZERO);
    node.deliver(chord::join_tuple("node0:11111", 1), SimTime::from_secs(1));
    node.advance_to(SimTime::from_secs(60));
    let key = chord::key_id("benchmark key");
    let mut event = 10_000i64;
    c.bench_function("chord_node_local_lookup_cascade", |b| {
        b.iter(|| {
            event += 1;
            node.deliver(
                chord::lookup_tuple("node0:11111", key, "node0:11111", event),
                SimTime::from_secs(120),
            )
        })
    });
}

criterion_group!(benches, bench_front_end, bench_node_cascade);
criterion_main!(benches);
