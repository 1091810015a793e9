//! Observability determinism gates: the rule-level profiler and the
//! provenance trace must be pure observers. The JSONL trace and the merged
//! profiler counters of a tagged lookup are bit-identical between the
//! sequential simulator and the sharded one at every worker count, and the
//! profile's wasted-poke audit must agree with the static analyzer's
//! refresh-transparency classification.

use p2_harness::ChordCluster;
use p2_obs::{ElemCounters, TraceKind};
use p2_value::Uint160;

/// Builds a 16-node ring, profiles a settle window, then traces one tagged
/// lookup; returns everything the observability layer produced.
fn traced_run(workers: Option<usize>) -> (String, Vec<ElemCounters>, Option<String>) {
    let builder = ChordCluster::builder(16, 23);
    let builder = match workers {
        None => builder,
        Some(w) => builder.par_threads(w),
    };
    let mut cluster = builder.build_fast(120);
    cluster.enable_observability();
    cluster.run_for(30.0);
    let key = Uint160::hash_of(b"traced determinism object");
    let origin = cluster.addrs()[5].clone();
    let handle = cluster.issue_traced_lookup(&origin, key);
    cluster.run_for(10.0);
    let owner = cluster.outcome(&handle).map(|o| o.owner);
    (cluster.drain_trace_jsonl(), cluster.obs_counters(), owner)
}

#[test]
fn trace_and_profile_are_identical_across_worker_counts() {
    let (jsonl, counters, owner) = traced_run(None);
    assert!(owner.is_some(), "sequential traced lookup did not complete");
    assert!(!jsonl.is_empty(), "tagged lookup left no trace");
    assert!(
        jsonl.lines().any(|l| l.contains("lookupResults")),
        "trace never derived the lookup result"
    );
    assert!(
        counters.iter().any(|c| c.invocations > 0),
        "profiler recorded no work"
    );
    for w in [1, 2, 4] {
        let (j, c, o) = traced_run(Some(w));
        assert_eq!(o, owner, "{w}-worker lookup owner diverged");
        assert_eq!(j, jsonl, "{w}-worker JSONL trace diverged");
        assert_eq!(c, counters, "{w}-worker profiler counters diverged");
    }
}

/// The wasted-poke audit. The engine runs every poke, so the PR 9 claim
/// is checked on what actually ran: refresh-transparent rules carry the
/// bulk of the ran-and-wasted pokes, and the rules whose triggers mostly
/// find nothing to do (F8, F9, CM9) show up among them.
#[test]
fn wasted_poke_audit_matches_rule_classification() {
    let mut cluster = ChordCluster::builder(16, 23).build_fast(120);
    cluster.enable_observability();
    cluster.run_for(60.0);
    let report = cluster.obs_report();

    assert!(report.total_pokes > 0, "no pokes profiled");
    assert!(
        report.total_wasted_pokes > 0,
        "steady-state maintenance should contain refresh no-ops"
    );
    // The PR-8 classification predicted that refresh-transparent rules
    // (the SU0/SU1-style soft-state refresh paths) account for the bulk of
    // the no-op pokes; the measured audit must agree.
    assert!(
        report.refresh_transparent.wasted_pokes >= report.other_rules.wasted_pokes,
        "refresh-transparent rules no longer dominate wasted pokes: {} vs {}",
        report.refresh_transparent.wasted_pokes,
        report.other_rules.wasted_pokes
    );
    for rule in ["F8", "F9", "CM9"] {
        let r = report.rules.iter().find(|r| r.rule == rule).unwrap();
        assert!(r.wasted_pokes > 0, "{rule} wasted no pokes: {r:?}");
    }
    // Every rule the analyzer classified appears in the profile.
    assert!(
        report.rules.iter().filter(|r| r.class.is_some()).count() > 30,
        "rule attribution lost most rules"
    );
}

#[test]
fn observability_is_off_by_default_and_trace_is_scoped_to_the_tag() {
    let mut cluster = ChordCluster::builder(8, 7).build_fast(120);
    // Off by default: no counters exist, draining yields nothing.
    assert!(cluster.obs_counters().is_empty());
    assert!(cluster.drain_trace().is_empty());

    cluster.enable_observability();
    let key = Uint160::hash_of(b"scoped trace");
    let origin = cluster.addrs()[3].clone();
    let handle = cluster.issue_traced_lookup(&origin, key);
    cluster.run_for(10.0);
    let events = cluster.drain_trace();
    assert!(!events.is_empty());
    // Every traced tuple carries the tag (the lookup's event id).
    let tag = format!("{}", handle.event);
    for e in &events {
        assert!(
            e.tuple.contains(&tag),
            "untagged tuple in trace: {}",
            e.tuple
        );
    }
    // The cascade re-enters remote nodes: arrivals recorded on more than
    // one node, and the sends pair up with them.
    let recv_nodes: std::collections::BTreeSet<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Recv)
        .map(|e| e.node.clone())
        .collect();
    assert!(recv_nodes.len() > 1, "trace never left the origin");
    assert!(events.iter().any(|e| e.kind == TraceKind::Send));
    // Draining consumed the rings.
    assert!(cluster.drain_trace().is_empty());
}
