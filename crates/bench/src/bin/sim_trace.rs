//! Tuple provenance tracing demo: replays one tagged Chord lookup and
//! prints its hop-by-hop rule-level derivation tree.
//!
//! Builds a small declarative ring, arms the lookup's event identifier as
//! the cluster-wide trace tag, and lets the engine record the derivation
//! cascade — the tagged tuple's arrival at each node, the rule firings it
//! feeds, and the network sends it causes — into per-node ring buffers. The
//! drained trace is deterministic (sorted by virtual time, node, per-node
//! sequence) and identical across runs.
//!
//! Usage: `cargo run --release --bin sim_trace [-- --nodes N] [--seed S]
//! [--jsonl]`
//!
//! `--jsonl` prints the raw one-object-per-line trace instead of the tree.

use p2_harness::ChordCluster;
use p2_obs::{TraceEvent, TraceKind};
use p2_value::Uint160;

fn print_tree(events: &[TraceEvent]) {
    let mut hop = 0usize;
    for e in events {
        let secs = e.at as f64 / 1e6;
        match e.kind {
            TraceKind::Recv => {
                hop += 1;
                println!("hop {hop}: {} @ {secs:.3}s  recv {}", e.node, e.tuple);
            }
            TraceKind::Fire => {
                let rule = e.rule.as_deref().unwrap_or("-");
                println!(
                    "    [{rule}] {}  ({} emitted{})",
                    e.elem,
                    e.emitted,
                    if e.out.is_empty() { "" } else { ":" }
                );
                for t in &e.out {
                    println!("        -> {t}");
                }
            }
            TraceKind::Send => {
                let dst = e.dst.as_deref().unwrap_or("?");
                println!("    send -> {dst}  {}", e.tuple);
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let nodes: usize = value("--nodes").and_then(|s| s.parse().ok()).unwrap_or(16);
    let seed: u64 = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(42);
    let jsonl = args.iter().any(|a| a == "--jsonl");

    eprintln!("building {nodes}-node ring (seed {seed})...");
    let mut cluster = ChordCluster::builder(nodes, seed).build_fast(300);
    eprintln!(
        "ring correctness {:.2}; issuing traced lookup...",
        cluster.ring_correctness()
    );

    let key = Uint160::hash_of(b"traced object");
    let origin = cluster.addrs()[nodes / 2].clone();
    let handle = cluster.issue_traced_lookup(&origin, key);
    cluster.run_for(10.0);

    let outcome = cluster.outcome(&handle);
    let events = cluster.drain_trace();
    if events.is_empty() {
        eprintln!("error: the traced lookup left no trace events");
        std::process::exit(1);
    }

    if jsonl {
        print!("{}", p2_obs::trace_jsonl(&events));
    } else {
        println!(
            "derivation of lookup event {} (key {} from {origin}):",
            handle.event, handle.key
        );
        print_tree(&events);
    }

    match outcome {
        Some(o) => {
            let recvs = events.iter().filter(|e| e.kind == TraceKind::Recv).count();
            eprintln!(
                "lookup completed: owner {} after {} hops ({} trace events, \
                 {} tagged arrivals, latency {:.3}s)",
                o.owner,
                o.hops,
                events.len(),
                recvs,
                o.latency
            );
        }
        None => {
            eprintln!("error: the traced lookup did not complete within 10 s");
            std::process::exit(1);
        }
    }
}
