//! Epidemic gossip: inject one rumor at a single node and watch push-gossip
//! spread it to the whole population.
//!
//! Run with: `cargo run --release --example gossip_broadcast`

use p2_suite::prelude::*;

fn main() {
    let n = 20;
    let addrs: Vec<String> = (0..n).map(|i| format!("g{i}:7000")).collect();

    // Each node knows 3 pseudo-random peers (a sparse, connected digraph).
    let mut sim: Simulator<P2Host> = Simulator::new(NetworkConfig::emulab_default(3));
    for i in 0..n {
        let peers: Vec<String> = (1..=3).map(|k| addrs[(i + k * 7) % n].clone()).collect();
        let peer_refs: Vec<&str> = peers.iter().map(String::as_str).collect();
        let host =
            gossip::build_node(&addrs[i], &peer_refs, 100 + i as u64, true).expect("gossip plans");
        sim.add_node(addrs[i].clone(), host);
    }
    for a in &addrs {
        sim.start_node(a);
    }

    println!("injecting rumor 1 at {} ...", addrs[0]);
    sim.inject(
        &addrs[0],
        gossip::rumor_tuple(&addrs[0], 1, "the paper is reproducible"),
    );

    let infected = |sim: &Simulator<P2Host>| {
        addrs
            .iter()
            .filter(|a| {
                !sim.node(a)
                    .unwrap()
                    .node()
                    .table("rumor")
                    .unwrap()
                    .is_empty()
            })
            .count()
    };

    for checkpoint in [2u64, 4, 8, 16, 32, 64] {
        sim.run_until(SimTime::from_secs(checkpoint));
        println!(
            "  t={checkpoint:>3}s  nodes holding the rumor: {}/{n}",
            infected(&sim)
        );
    }

    let stats = sim.stats();
    println!(
        "\ngossip traffic: {} messages, {} bytes total",
        stats.messages_sent, stats.bytes_sent
    );
    assert_eq!(infected(&sim), n, "the rumor should reach every node");
    println!("rumor reached every node.");
}
