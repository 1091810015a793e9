//! Failure-injection tests for the declarative Chord overlay: node crashes,
//! lossy links, and landmark failure after bootstrap.

use p2_suite::prelude::*;

#[test]
fn ring_heals_after_a_node_crash() {
    let n = 8;
    let mut cluster = ChordCluster::build(n, 180, 77);
    assert!(cluster.ring_correctness() > 0.99);

    // Crash one non-landmark node and give the overlay time to heal.
    // Successor soft state expires within 10 s and stabilization repairs the
    // ring within a few 15 s rounds, but finger entries pointing at the dead
    // node live for up to 180 s (the specification's finger lifetime) and
    // lookups routed through them are lost in the meantime — the paper makes
    // the same observation about P2 Chord under churn. We therefore measure
    // after the stale-finger window has passed.
    let victim = cluster.addrs()[3].clone();
    cluster.crash(&victim);
    cluster.run_for(420.0);

    // The ring itself heals completely: every survivor's best successor is
    // again its correct ring successor and nobody points at the victim.
    let up = cluster.up_addrs();
    assert_eq!(up.len(), n - 1);
    assert!(
        cluster.ring_correctness() > 0.99,
        "ring did not heal: correctness {}",
        cluster.ring_correctness()
    );
    for a in &up {
        assert_ne!(
            cluster.best_successor(a).as_deref(),
            Some(victim.as_str()),
            "{a} still points at the crashed node"
        );
    }

    // Lookups that complete still resolve to the correct live owner. Note
    // that the published specification has no "forward to successor"
    // fallback: once finger entries through the failed node expire, lookups
    // whose target falls into the resulting finger gap are dropped rather
    // than rerouted, so completion after a failure is well below 100% on a
    // small ring (the paper observes the same fragility under churn, §5.2).
    let mut completed = 0;
    let mut correct = 0;
    let total = 10;
    for i in 0..total {
        let key = Uint160::hash_of(format!("heal-{i}").as_bytes());
        let origin = up[i % up.len()].clone();
        let handle = cluster.issue_lookup_from(&origin, key);
        cluster.run_for(8.0);
        if let Some(outcome) = cluster.outcome(&handle) {
            completed += 1;
            let expect = p2_harness::cluster::expected_owner(key, &up).unwrap();
            if outcome.owner == expect {
                correct += 1;
            }
        }
    }
    assert!(completed >= 1, "no lookup completed after the crash");
    assert_eq!(
        correct, completed,
        "completed lookups must name the correct live owner"
    );
}

#[test]
fn crashed_node_can_rejoin_and_is_reintegrated() {
    let n = 6;
    let mut cluster = ChordCluster::build(n, 150, 13);
    let victim = cluster.addrs()[2].clone();
    cluster.crash(&victim);
    cluster.run_for(60.0);
    cluster.rejoin(&victim);
    cluster.run_for(240.0);

    assert!(
        cluster.is_joined(&victim),
        "rejoined node never found a successor"
    );
    // And the overall ring is mostly consistent again.
    assert!(
        cluster.ring_correctness() >= 0.8,
        "ring correctness after rejoin: {}",
        cluster.ring_correctness()
    );
}

#[test]
fn chord_survives_moderate_packet_loss() {
    // Build a small ring over a lossy network: soft-state refresh plus
    // periodic retries should still converge, albeit more slowly.
    let n = 5;
    let mut config = NetworkConfig::emulab_default(3);
    config.loss_rate = 0.05;
    let mut sim: Simulator<P2Host> = Simulator::new(config);
    let addrs: Vec<String> = (0..n).map(|i| format!("lossy{i}:1000")).collect();
    for (i, addr) in addrs.iter().enumerate() {
        let landmark = if i == 0 {
            None
        } else {
            Some(addrs[0].as_str())
        };
        let host = chord::build_node(addr, landmark, 400 + i as u64, true).unwrap();
        sim.add_node(addr.clone(), host);
    }
    for (i, addr) in addrs.iter().enumerate() {
        sim.start_node(addr);
        sim.inject(addr, chord::join_tuple(addr, 10 + i as i64));
        sim.run_for(SimTime::from_secs(2));
    }
    for round in 0..15 {
        sim.run_for(SimTime::from_secs(20));
        for (i, addr) in addrs.iter().enumerate() {
            let joined = !sim
                .node(addr)
                .unwrap()
                .node()
                .table("bestSucc")
                .unwrap()
                .is_empty();
            if !joined {
                sim.inject(addr, chord::join_tuple(addr, 1000 + round * 10 + i as i64));
            }
        }
    }
    sim.run_for(SimTime::from_secs(120));

    let joined = addrs
        .iter()
        .filter(|a| {
            !sim.node(a)
                .unwrap()
                .node()
                .table("bestSucc")
                .unwrap()
                .is_empty()
        })
        .count();
    assert!(
        joined >= n - 1,
        "only {joined}/{n} nodes joined under 5% packet loss"
    );
    assert!(
        sim.stats().messages_dropped > 0,
        "loss was configured but nothing dropped"
    );
}
