//! The benchmark's vocabulary: workloads and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root mirrors the manifest part of these tables; a self-test compares
//! the two.

use serde::Json;

use crate::json::object;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock measurement: varies from run to run.
    Wall,
    /// Simulated time or a count: a function of the seed alone when the
    /// number of windows is fixed.
    Simulated,
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

/// End-to-end metrics every simulated workload reports; these are the
/// `end_to_end` entries of `BENCHMARK.json`.
pub const MANIFEST_END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25, Clock::Wall),
    e2e("us_per_event", "us", Better::Lower, 0.25, Clock::Wall),
    e2e("virtual_s_per_s", "1/s", Better::Higher, 0.25, Clock::Wall),
    e2e("plan_ms", "ms", Better::Lower, 0.25, Clock::Wall),
    e2e("node_boot_us", "us", Better::Lower, 0.25, Clock::Wall),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20, Clock::Wall),
    e2e(
        "maint_bytes_per_node_vs",
        "B/s",
        Better::Lower,
        0.15,
        Clock::Simulated,
    ),
];

/// End-to-end metrics only some workloads have (lookups, a ring). `run`
/// prints them and `aa` checks them; they cannot be manifest entries
/// because the manifest wants every metric from every workload.
pub const WORKLOAD_END_TO_END: [EndToEnd; 7] = [
    e2e("lookups_per_s", "1/s", Better::Higher, 0.10, Clock::Wall),
    e2e(
        "lookup_latency_p50_vs",
        "s",
        Better::Lower,
        0.02,
        Clock::Simulated,
    ),
    e2e(
        "lookup_latency_p99_vs",
        "s",
        Better::Lower,
        0.02,
        Clock::Simulated,
    ),
    e2e("mean_hops", "count", Better::Lower, 0.02, Clock::Simulated),
    e2e(
        "ring_correctness",
        "share",
        Better::Higher,
        0.02,
        Clock::Simulated,
    ),
    e2e(
        "lookup_correct_share",
        "share",
        Better::Higher,
        0.02,
        Clock::Simulated,
    ),
    e2e(
        "failed_share",
        "share",
        Better::Lower,
        0.005,
        Clock::Simulated,
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    MANIFEST_END_TO_END
        .iter()
        .chain(WORKLOAD_END_TO_END.iter())
        .find(|m| m.name == name)
}

/// A per-layer metric of the traced run: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Per-layer metrics, outermost layer first; these are the `per_layer`
/// entries of `BENCHMARK.json`. A metric a workload has no source for
/// (lookup harvest on the mesh, say) reads 0 there.
pub const PER_LAYER: [PerLayer; 54] = [
    ("netsim.self_us_per_event", "us", Lower),
    ("netsim.events_per_vs", "1/s", Lower),
    ("netsim.wakeup_share", "share", Lower),
    ("netsim.msgs_per_vs", "1/s", Lower),
    ("netsim.bytes_per_msg", "B", Lower),
    ("netsim.dropped_share", "share", Lower),
    ("netsim.in_flight", "count", Lower),
    ("netsim.toy_ns_per_event", "ns", Lower),
    ("host.deliver_us_p50", "us", Lower),
    ("host.deliver_us_p99", "us", Lower),
    ("host.advance_us_p50", "us", Lower),
    ("host.advance_us_p99", "us", Lower),
    ("host.deliver_share", "share", Lower),
    ("host.advance_share", "share", Lower),
    ("host.next_deadline_share", "share", Lower),
    ("host.calls_per_event", "count", Lower),
    ("host.envelopes_per_call", "count", Lower),
    ("dataflow.handoffs_per_event", "count", Lower),
    ("dataflow.timers_per_event", "count", Lower),
    ("dataflow.sends_per_event", "count", Lower),
    ("dataflow.suppressed_per_event", "count", Higher),
    ("dataflow.dropped_no_entry", "count", Lower),
    ("dataflow.handoff_ns", "ns", Lower),
    ("table.primary_per_event", "count", Lower),
    ("table.indexed_per_event", "count", Lower),
    ("table.full_scans_per_event", "count", Lower),
    ("table.expired_per_event", "count", Lower),
    ("table.evicted", "count", Lower),
    ("table.overflows", "count", Lower),
    ("table.rebuilds", "count", Lower),
    ("table.resident_bytes_per_node", "B", Lower),
    ("table.primary_get_ns", "ns", Lower),
    ("table.indexed_probe_ns", "ns", Lower),
    ("table.insert_refresh_ns", "ns", Lower),
    ("table.expire_tick_ns", "ns", Lower),
    ("pel.eval_ns", "ns", Lower),
    ("value.tuple_build_ns", "ns", Lower),
    ("value.marshal_ns", "ns", Lower),
    ("value.unmarshal_ns", "ns", Lower),
    ("obs.invocations_per_event", "count", Lower),
    ("obs.useful_poke_ratio", "share", Higher),
    ("obs.top5_rule_share", "share", Lower),
    ("obs.overhead_ratio", "ratio", Lower),
    ("overlog.parse_ms", "ms", Lower),
    ("overlog.analyze_ms", "ms", Lower),
    ("core.plan_ms", "ms", Lower),
    ("core.instantiate_us", "us", Lower),
    ("core.start_us", "us", Lower),
    ("harness.bringup_virtual_s", "s", Lower),
    ("harness.harvest_us_per_lookup", "us", Lower),
    ("harness.rejoin_us", "us", Lower),
    ("baseline.us_per_event", "us", Lower),
    ("baseline.ratio", "ratio", Lower),
    ("budget.attributed_share", "share", Higher),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ChordSteady,
    ChordLookups,
    ChordChurn,
    NaradaMesh,
    PlanBoot,
}

/// One workload: what runs, at what size, and why it is in the suite.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub nodes: usize,
    /// Node count under `--smoke`.
    pub smoke_nodes: usize,
    /// Virtual microseconds per measurement window.
    pub window_us: u64,
    /// Listed in `BENCHMARK.json`. `plan_boot` simulates nothing, so it has
    /// no per-event metrics to give the manifest; `run`, `trace` and `aa`
    /// still run it.
    pub in_manifest: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "chord_steady_100",
        why: "converged 100-node ring, maintenance only: timer-driven strands, keyed probes and soft-state refresh on a cache-resident working set",
        kind: Kind::ChordSteady,
        nodes: 100,
        smoke_nodes: 24,
        window_us: 15_000_000,
        in_manifest: true,
    },
    Workload {
        name: "chord_steady_300",
        why: "same program at the paper's middle size: three times the working set and set-up, catches tuning that only helps a cache-resident ring",
        kind: Kind::ChordSteady,
        nodes: 300,
        smoke_nodes: 32,
        window_us: 5_000_000,
        in_manifest: true,
    },
    Workload {
        name: "chord_lookups_100",
        why: "open loop of 200 lookups per virtual second: arrival-driven aggregate probes over finger and 160-bit PEL arithmetic, which steady rings barely run",
        kind: Kind::ChordLookups,
        nodes: 100,
        smoke_nodes: 24,
        window_us: 3_000_000,
        in_manifest: true,
    },
    Workload {
        name: "chord_churn_100",
        why: "8-minute mean sessions: expiry, delete, view retraction, failure detection and node re-instantiation, the write side that static rings bypass",
        kind: Kind::ChordChurn,
        nodes: 100,
        smoke_nodes: 24,
        window_us: 15_000_000,
        in_manifest: true,
    },
    Workload {
        name: "narada_mesh_64",
        why: "a different program: member x neighbour fan-out and count<*> per message, so the simulator and tuple handling carry a real share",
        kind: Kind::NaradaMesh,
        nodes: 64,
        smoke_nodes: 16,
        // One refresh period, so every window holds one round per node.
        window_us: 3_000_000,
        in_manifest: true,
    },
    Workload {
        name: "plan_boot",
        why: "parse, analyze and plan the four shipped programs and boot 100 Chord nodes: the front end does all the work here and none in steady state",
        kind: Kind::PlanBoot,
        nodes: 100,
        smoke_nodes: 24,
        window_us: 0,
        in_manifest: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Wall seconds the driver asks each run to measure for.
pub const RUN_SECONDS: u64 = 8;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    object([
        (
            "command",
            Json::Array(command.into_iter().map(text).collect()),
        ),
        ("paths", Json::Array(vec![text("benchmark")])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .filter(|w| w.in_manifest)
                    .map(|w| object([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                MANIFEST_END_TO_END
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Json::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        object([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_unique_and_within_the_limits() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(MANIFEST_END_TO_END.iter().map(|m| m.name));
        all.extend(WORKLOAD_END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &all {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let unique: std::collections::HashSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        assert!(WORKLOADS.len() <= 8);
        assert!(MANIFEST_END_TO_END.len() + WORKLOAD_END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        for m in MANIFEST_END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
        // Compare as re-parsed text: the writer prints 0.25 and the parser
        // reads it back as the same float, whole numbers as integers.
        let generated = json::parse(&serde_json::to_string_pretty(&manifest()).unwrap()).unwrap();
        assert_eq!(
            on_disk, generated,
            "regenerate with `p2-benchmark manifest > BENCHMARK.json`"
        );
        let listed = json::as_array(json::get(&on_disk, "workloads").unwrap()).unwrap();
        assert!((2..=8).contains(&listed.len()));
        assert_eq!(
            json::as_str(json::get(&listed[0], "name").unwrap()),
            Some(WORKLOADS[0].name)
        );
        assert!(text.len() <= 64 * 1024);
    }
}
