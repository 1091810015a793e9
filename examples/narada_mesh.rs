//! Run the Narada mesh-membership overlay (Appendix A) on a line of seed
//! neighbours and watch epidemic membership propagation fill every node's
//! member table.
//!
//! Run with: `cargo run --release --example narada_mesh`

use p2_suite::prelude::*;

fn main() {
    let n = 8;
    let addrs: Vec<String> = (0..n).map(|i| format!("mesh{i}:9000")).collect();

    // Seed topology: a line — node i initially knows only node i-1.
    let mut sim: Simulator<P2Host> = Simulator::new(NetworkConfig::emulab_default(11));
    for i in 0..n {
        let neighbors: Vec<&str> = if i == 0 {
            vec![]
        } else {
            vec![addrs[i - 1].as_str()]
        };
        let host =
            narada::build_node(&addrs[i], &neighbors, 50 + i as u64, true).expect("narada plans");
        sim.add_node(addrs[i].clone(), host);
    }
    for a in &addrs {
        sim.start_node(a);
    }

    println!("running the mesh for 2 virtual minutes of refresh gossip...");
    for checkpoint in [15u64, 30, 60, 120] {
        sim.run_until(SimTime::from_secs(checkpoint));
        let sizes: Vec<usize> = addrs
            .iter()
            .map(|a| sim.node(a).unwrap().node().table("member").unwrap().len())
            .collect();
        println!("  t={checkpoint:>3}s  member-table sizes: {sizes:?}");
    }

    println!("\nfinal membership at {}:", addrs[n - 1]);
    let members = sim
        .node(&addrs[n - 1])
        .unwrap()
        .node()
        .table("member")
        .unwrap()
        .scan();
    for m in members {
        println!("  {m}");
    }
    let neighbors = sim
        .node(&addrs[0])
        .unwrap()
        .node()
        .table("neighbor")
        .unwrap()
        .len();
    println!(
        "\nnode {} now has {} mesh neighbours (started with 0)",
        addrs[0], neighbors
    );
}
