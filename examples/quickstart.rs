//! Quickstart: write a tiny OverLog program, compile it into a dataflow
//! node, and watch it derive tuples.
//!
//! Run with: `cargo run --example quickstart`

use p2_suite::prelude::*;

/// A three-rule "who do I know" program: every time a `hello` event arrives
/// from some peer, remember the peer in the `acquaintance` table, count how
/// many peers we know, and greet the peer back.
const PROGRAM: &str = r#"
    materialize(acquaintance, infinity, infinity, keys(2)).

    A1 acquaintance@X(X, Y, T) :- hello@X(X, Y), T := f_now().
    A2 acquaintanceCount@X(X, count<*>) :- acquaintance@X(X, Y, T).
    A3 greeting@Y(Y, X) :- hello@X(X, Y).
"#;

fn main() {
    // 1. Parse and validate the OverLog text.
    let program = compile_checked(PROGRAM).expect("program is valid OverLog");
    println!(
        "parsed {} rules and {} table declaration(s)",
        program.rule_count(),
        program.materializations.len()
    );

    // 2. Plan it into a dataflow graph for a node called alice.
    let mut node = P2Node::new(
        &program,
        NodeConfig::new("alice", 1)
            .watch("acquaintanceCount")
            .without_jitter(),
    )
    .expect("program plans into a dataflow");
    println!("\nplanned dataflow graph:\n{}", node.graph_description());

    // 3. Drive it: deliver a few hello events, as the network would.
    node.start(SimTime::ZERO);
    for (t, peer) in ["bob", "carol", "bob", "dave"].iter().enumerate() {
        let hello = TupleBuilder::new("hello").push("alice").push(*peer).build();
        let outgoing = node.deliver(hello, SimTime::from_secs(t as u64 + 1));
        for env in &outgoing {
            println!("t={}s  alice sends {} to {}", t + 1, env.tuple, env.dst);
        }
    }

    // 4. Inspect the derived state.
    let table = node.table("acquaintance").expect("declared table");
    println!("\nacquaintance table now holds {} rows:", table.len());
    for row in table.scan() {
        println!("  {row}");
    }
    let counts = node.collector("acquaintanceCount").expect("watched");
    let counts = counts.lock();
    let last = counts.last().expect("at least one count emitted");
    println!("\nlatest acquaintanceCount tuple: {}", last.1);
}
