//! Cross-crate integration tests: every shipped overlay running end-to-end
//! over the simulated network, exercising the full
//! OverLog → planner → dataflow → simulator stack.

use p2_suite::prelude::*;

fn addrs(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}:9000")).collect()
}

#[test]
fn narada_membership_converges_to_full_mesh_knowledge() {
    let n = 6;
    let addrs = addrs("mesh", n);
    let mut sim: Simulator<P2Host> = Simulator::new(NetworkConfig::emulab_default(21));
    for i in 0..n {
        let neighbors: Vec<&str> = if i == 0 {
            vec![]
        } else {
            vec![addrs[i - 1].as_str()]
        };
        let host = narada::build_node(&addrs[i], &neighbors, 70 + i as u64, true).unwrap();
        sim.add_node(addrs[i].clone(), host);
    }
    for a in &addrs {
        sim.start_node(a);
    }
    sim.run_until(SimTime::from_secs(180));

    // Every node should have learned about (nearly) every other member via
    // epidemic refresh propagation along the line of seed neighbours.
    for a in &addrs {
        let members = sim.node(a).unwrap().node().table("member").unwrap().len();
        assert!(
            members >= n - 2,
            "{a} only knows {members} members of a {n}-node mesh"
        );
    }

    // Mesh links became mutual: node 0 started with no neighbours but must
    // have gained some from incoming refreshes.
    let n0_neighbors = sim
        .node(&addrs[0])
        .unwrap()
        .node()
        .table("neighbor")
        .unwrap()
        .len();
    assert!(n0_neighbors >= 1);
}

#[test]
fn narada_declares_dead_neighbors_after_silence() {
    let n = 3;
    let addrs = addrs("dead", n);
    let mut sim: Simulator<P2Host> = Simulator::new(NetworkConfig::emulab_default(5));
    for i in 0..n {
        let neighbors: Vec<&str> = addrs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, a)| a.as_str())
            .collect();
        let host = narada::build_node(&addrs[i], &neighbors, 5 + i as u64, true).unwrap();
        sim.add_node(addrs[i].clone(), host);
    }
    for a in &addrs {
        sim.start_node(a);
    }
    sim.run_until(SimTime::from_secs(60));

    // Kill node 2 and let the 20-second liveness threshold pass.
    sim.take_down(&addrs[2]);
    sim.run_until(SimTime::from_secs(150));

    // The survivors should have dropped the dead node from their neighbour
    // tables (rule L3) and marked its member entry dead (rule L4).
    for a in &addrs[..2] {
        let node = sim.node(a).unwrap().node();
        let neighbors = node.table("neighbor").unwrap().scan();
        assert!(
            !neighbors
                .iter()
                .any(|t| t.field(1).to_display_string() == addrs[2]),
            "{a} still lists the dead node as a neighbour"
        );
        let members = node.table("member").unwrap().scan();
        let dead_entry = members
            .iter()
            .find(|t| t.field(1).to_display_string() == addrs[2])
            .expect("member entry for the dead node exists");
        assert_eq!(
            dead_entry.field(4),
            &Value::Int(0),
            "member not marked dead"
        );
    }
}

#[test]
fn latency_monitor_measures_round_trip_times() {
    let a = "mon0:9000";
    let b = "mon1:9000";
    let mut sim: Simulator<P2Host> = Simulator::new(NetworkConfig::emulab_default(9));
    sim.add_node(a, monitor::build_node(a, &[b], 1, true).unwrap());
    sim.add_node(b, monitor::build_node(b, &[a], 2, true).unwrap());
    sim.start_node(a);
    sim.start_node(b);
    sim.run_until(SimTime::from_secs(60));

    let latencies = sim.node(a).unwrap().node().table("latency").unwrap().scan();
    assert!(!latencies.is_empty(), "no latency measurements recorded");
    for row in latencies {
        let rtt = row.field(2).to_double().unwrap();
        // The two monitor nodes land in different Emulab domains, so the RTT
        // is ~208 ms plus serialization; it must never be negative or huge.
        assert!(rtt > 0.1 && rtt < 1.0, "implausible RTT {rtt}");
    }
}

#[test]
fn gossip_rumor_reaches_every_node() {
    let n = 10;
    let addrs = addrs("gossip", n);
    let mut sim: Simulator<P2Host> = Simulator::new(NetworkConfig::emulab_default(17));
    for i in 0..n {
        let peers: Vec<String> = (1..=2).map(|k| addrs[(i + k * 3) % n].clone()).collect();
        let peer_refs: Vec<&str> = peers.iter().map(String::as_str).collect();
        let host = gossip::build_node(&addrs[i], &peer_refs, 200 + i as u64, true).unwrap();
        sim.add_node(addrs[i].clone(), host);
    }
    for a in &addrs {
        sim.start_node(a);
    }
    sim.inject(&addrs[3], gossip::rumor_tuple(&addrs[3], 99, "payload"));
    sim.run_until(SimTime::from_secs(90));

    let infected = addrs
        .iter()
        .filter(|a| {
            !sim.node(a)
                .unwrap()
                .node()
                .table("rumor")
                .unwrap()
                .is_empty()
        })
        .count();
    assert_eq!(infected, n, "rumor did not reach every node");
}

#[test]
fn declarative_and_baseline_chord_agree_on_lookup_owners() {
    let n = 6;
    let mut p2 = ChordCluster::build(n, 120, 31);
    let mut base = BaselineCluster::build(n, 150, 31);
    assert!(p2.ring_correctness() > 0.99);
    assert!(base.ring_correctness() > 0.99);

    let mut agreements = 0;
    let total = 8;
    for i in 0..total {
        let key = Uint160::hash_of(format!("agree-{i}").as_bytes());
        let p2_origin = p2.addrs()[i % n].clone();
        let base_origin = base.addrs()[(i + 1) % n].clone();
        let hp = p2.issue_lookup_from(&p2_origin, key);
        let hb = base.issue_lookup_from(&base_origin, key);
        p2.run_for(8.0);
        base.run_for(8.0);
        let op = p2.outcome(&hp).map(|o| o.owner);
        let ob = base.outcome(&hb).map(|o| o.owner);
        if op.is_some() && op == ob {
            agreements += 1;
        }
    }
    assert!(
        agreements >= total - 1,
        "declarative and baseline Chord disagreed too often ({agreements}/{total})"
    );
}
