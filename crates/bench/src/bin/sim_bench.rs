//! Simulator event-loop benchmark: measures what the PR-2 overhaul targets
//! (interned NodeIds, the tombstone-free timer index, matrix latency
//! lookup) and writes the results to `BENCH_sim.json` so the trajectory is
//! tracked like `BENCH_table.json`.
//!
//! Two sections:
//!
//! * `toy_event_loop` — rings of trivial periodic hosts (one ping per
//!   second per node, no dataflow machinery). This isolates the simulator's
//!   own per-event cost; with the interned core it should be roughly
//!   independent of node count and allocation-free on the delivery and
//!   wakeup paths.
//! * `chord_rings` — full declarative Chord rings booted converged by
//!   `ChordCluster::build_fast`, reporting bring-up wall time (boot plus
//!   warm-up) and steady-state event throughput. The binary **exits
//!   non-zero unless every ring's `ring_correctness` is 1.0** after the
//!   warm-up. It also reports the per-event full-scan rate (an unkeyed
//!   aggregation without a group index is a counted full scan).
//!
//! With `--par` the binary instead benchmarks the **parallel sharded
//! simulator**: steady-state Chord-ring throughput of the sequential
//! `Simulator` and of 1/2/4/8 workers per ring size, each worker count's
//! speed-up taken against the sequential ring built from the same seed,
//! written to `BENCH_parsim.json`, plus a golden gate that runs
//! the same small ring on the sequential and the 2-worker engine and
//! **exits non-zero if their NetStats or event counts diverge** (CI runs
//! this in smoke mode).
//!
//! With `--obs` the binary runs the **rule-level profiler** instead: each
//! ring size is profiled over a steady-state window and the merged per-rule
//! invocation/wasted-poke report is written to `BENCH_obs.json`, together
//! with an off/on golden gate on the 100-node pinned ring — enabling
//! observability must leave the NetStats and event-count pins bit-identical
//! or the binary **exits non-zero** — and a ceiling on the 100-node ring's
//! wasted pokes per simulated event. The report tree is schema-checked
//! in-process before it is written.
//!
//! Usage: `cargo run --release --bin sim_bench [-- --smoke] [--par] [--obs]
//! [--sizes N,N,..] [--workers N,N,..] [--out PATH]`

use std::time::Instant;

use p2_bench::to_json;
use p2_harness::metrics::{EngineOps, SimOps, StorageOps};
use p2_harness::ChordCluster;
use p2_netsim::{Envelope, Host, NetworkConfig, Simulator};
use p2_value::{SimTime, Tuple, TupleBuilder};
use serde::{Json, Serialize};

/// A minimal host: one ping to its ring neighbor every second, phase-spread
/// so events are not synchronized.
struct Toy {
    addr: String,
    peer: String,
    next: Option<SimTime>,
    received: u64,
}

impl Host for Toy {
    fn start(&mut self, now: SimTime) -> Vec<Envelope> {
        // Phase-spread the first tick by the node's hash.
        let phase = (self.addr.len() as u64 * 131 + self.addr.as_bytes()[1] as u64) % 997;
        self.next = Some(now + SimTime::from_millis(1000 + phase));
        Vec::new()
    }

    fn deliver(&mut self, _tuple: Tuple, _now: SimTime) -> Vec<Envelope> {
        self.received += 1;
        Vec::new()
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
        let mut out = Vec::new();
        if let Some(t) = self.next {
            if t <= now {
                out.push(Envelope::new(
                    self.peer.clone(),
                    TupleBuilder::new("ping").push(self.addr.as_str()).build(),
                ));
                self.next = Some(t + SimTime::from_secs(1));
            }
        }
        out
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.next
    }
}

#[derive(Debug, Clone, Serialize)]
struct ToyResult {
    nodes: usize,
    virtual_secs: u64,
    events: u64,
    wall_secs: f64,
    ns_per_event: f64,
    events_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ChordResult {
    nodes: usize,
    /// Wall seconds of `build_fast`: the converged boot plus the warm-up.
    build_wall_secs: f64,
    /// Must read 1.0, or the binary exits non-zero.
    ring_correctness: f64,
    virtual_secs: u64,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    messages_per_virtual_sec: f64,
    /// Full table scans per processed event in the measurement window:
    /// aggregations left with neither a key nor a group index (0 for
    /// Chord, whose unkeyed L2/L3/SU1/S3 folds read group indices).
    full_scans_per_event: f64,
    /// End-of-run table-storage counters of the default ring.
    storage_ops: StorageOps,
    /// End-of-run simulator event-loop counters of the default ring.
    sim_ops: SimOps,
    /// End-of-run engine ingress counters of the default ring.
    engine_ops: EngineOps,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    toy_event_loop: Vec<ToyResult>,
    chord_rings: Vec<ChordResult>,
}

/// One steady-state throughput window; `workers` 0 is the sequential
/// `Simulator`, the baseline of every speed-up.
#[derive(Debug, Clone, Serialize)]
struct ParResult {
    nodes: usize,
    workers: usize,
    build_wall_secs: f64,
    ring_correctness: f64,
    virtual_secs: u64,
    events: u64,
    wall_secs: f64,
    events_per_sec: f64,
    /// Throughput relative to the sequential run of the same ring size.
    speedup_vs_sequential: f64,
    sync_rounds: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct GoldenPin {
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    bytes_sent: u64,
    events_processed: u64,
}

#[derive(Debug, Clone, Serialize)]
struct GoldenGate {
    nodes: usize,
    workers: usize,
    sequential: GoldenPin,
    parallel: GoldenPin,
    matches: bool,
}

#[derive(Debug, Clone, Serialize)]
struct ParReport {
    bench: String,
    machine_cores: usize,
    scaling: Vec<Vec<ParResult>>,
    golden_gate: GoldenGate,
}

fn bench_toy(nodes: usize, virtual_secs: u64) -> ToyResult {
    let mut sim: Simulator<Toy> = Simulator::new(NetworkConfig::emulab_default(17));
    for i in 0..nodes {
        let addr = format!("n{i}");
        let peer = format!("n{}", (i + 1) % nodes);
        sim.add_node(
            addr.clone(),
            Toy {
                addr,
                peer,
                next: None,
                received: 0,
            },
        );
    }
    sim.start_all();
    // Warm up one virtual second so every node's first tick has fired.
    sim.run_for(SimTime::from_secs(2));
    let before = sim.events_processed();
    let start = Instant::now();
    sim.run_for(SimTime::from_secs(virtual_secs));
    let wall = start.elapsed().as_secs_f64();
    let events = sim.events_processed() - before;
    ToyResult {
        nodes,
        virtual_secs,
        events,
        wall_secs: wall,
        ns_per_event: wall * 1e9 / events.max(1) as f64,
        events_per_sec: events as f64 / wall.max(1e-12),
    }
}

fn bench_chord(nodes: usize, warmup_secs: u64, virtual_secs: u64) -> ChordResult {
    let start = Instant::now();
    let mut cluster = ChordCluster::builder(nodes, 42).build_fast(warmup_secs);
    let build_wall_secs = start.elapsed().as_secs_f64();
    let ring_correctness = cluster.ring_correctness();

    cluster.sim.reset_stats();
    let before_events = cluster.sim.events_processed();
    let scans_before = cluster.storage_ops().full_scans;
    let t = Instant::now();
    cluster.run_for(virtual_secs as f64);
    let wall = t.elapsed().as_secs_f64();
    let events = cluster.sim.events_processed() - before_events;
    let full_scans = cluster.storage_ops().full_scans - scans_before;
    let sent = cluster.sim.stats().messages_sent;
    ChordResult {
        nodes,
        build_wall_secs,
        ring_correctness,
        virtual_secs,
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-12),
        messages_per_virtual_sec: sent as f64 / virtual_secs.max(1) as f64,
        full_scans_per_event: full_scans as f64 / events.max(1) as f64,
        storage_ops: cluster.storage_ops(),
        sim_ops: cluster.sim_ops(),
        engine_ops: cluster.engine_stats(),
    }
}

/// Steady-state Chord-ring throughput on the sharded simulator with
/// `workers` threads, or on the sequential one for 0.
fn bench_par(nodes: usize, workers: usize, warmup_secs: u64, virtual_secs: u64) -> ParResult {
    let start = Instant::now();
    let builder = ChordCluster::builder(nodes, 42);
    let builder = match workers {
        0 => builder,
        w => builder.par_threads(w),
    };
    let mut cluster = builder.build_fast(warmup_secs);
    let build_wall_secs = start.elapsed().as_secs_f64();
    let ring_correctness = cluster.ring_correctness();
    let before_events = cluster.sim.events_processed();
    let rounds_before = match &cluster.sim {
        p2_netsim::AnySimulator::Par(sim) => sim.sync_rounds(),
        p2_netsim::AnySimulator::Seq(_) => 0,
    };
    let start = Instant::now();
    cluster.run_for(virtual_secs as f64);
    let wall = start.elapsed().as_secs_f64();
    let events = cluster.sim.events_processed() - before_events;
    let sync_rounds = match &cluster.sim {
        p2_netsim::AnySimulator::Par(sim) => sim.sync_rounds() - rounds_before,
        p2_netsim::AnySimulator::Seq(_) => 0,
    };
    ParResult {
        nodes,
        workers,
        build_wall_secs,
        ring_correctness,
        virtual_secs,
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-12),
        speedup_vs_sequential: 0.0, // filled in by the caller
        sync_rounds,
    }
}

/// Runs the golden equivalence gate: the same staggered-bring-up ring on
/// the sequential and the parallel engine must produce identical NetStats
/// and event counts.
fn golden_gate(nodes: usize, workers: usize, warmup_secs: u64) -> GoldenGate {
    let run = |par: Option<usize>| {
        let builder = ChordCluster::builder(nodes, 42);
        let builder = match par {
            None => builder,
            Some(w) => builder.par_threads(w),
        };
        let mut cluster = builder.build(warmup_secs);
        cluster.sim.reset_stats();
        let before = cluster.sim.events_processed();
        cluster.run_for(60.0);
        let s = cluster.sim.stats();
        GoldenPin {
            messages_sent: s.messages_sent,
            messages_delivered: s.messages_delivered,
            messages_dropped: s.messages_dropped,
            bytes_sent: s.bytes_sent,
            events_processed: cluster.sim.events_processed() - before,
        }
    };
    let sequential = run(None);
    let parallel = run(Some(workers));
    GoldenGate {
        nodes,
        workers,
        sequential,
        parallel,
        matches: sequential == parallel,
    }
}

/// Rule-level profile of one ring size (the `--obs` mode payload).
#[derive(Debug, Clone, Serialize)]
struct ObsSizeResult {
    nodes: usize,
    /// Virtual seconds profiled (steady state, after bring-up and warm-up).
    virtual_secs: u64,
    /// Simulated events over the profiled window.
    events: u64,
    /// `profile.total_wasted_pokes / events`: the unit of the ceiling gate.
    wasted_pokes_per_event: f64,
    /// Cluster-wide engine ingress counters over the profiled window.
    engine_ops: EngineOps,
    /// The merged rule-level profile (per-rule wasted-poke rates, class
    /// buckets, per-table refresh rates).
    profile: p2_obs::ProfileReport,
}

/// The observability golden gate: the same staggered ring run with the
/// profiler off and on must produce identical NetStats and event counts
/// (observability taps must never change behaviour).
#[derive(Debug, Clone, Serialize)]
struct ObsGolden {
    nodes: usize,
    obs_off: GoldenPin,
    obs_on: GoldenPin,
    matches: bool,
    obs_off_wall_secs: f64,
    obs_on_wall_secs: f64,
    /// `obs_on` events/s relative to `obs_off` (1.0 = no overhead; wall
    /// clock, so noisy — informational, not gated).
    throughput_ratio: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ObsReport {
    bench: String,
    profiles: Vec<ObsSizeResult>,
    golden: ObsGolden,
}

/// Runs the measurement window with wall timing and returns the golden pin.
fn pinned_window(cluster: &mut ChordCluster) -> (GoldenPin, f64) {
    cluster.sim.reset_stats();
    let before = cluster.sim.events_processed();
    let t = Instant::now();
    cluster.run_for(60.0);
    let wall = t.elapsed().as_secs_f64();
    let s = cluster.sim.stats();
    let pin = GoldenPin {
        messages_sent: s.messages_sent,
        messages_delivered: s.messages_delivered,
        messages_dropped: s.messages_dropped,
        bytes_sent: s.bytes_sent,
        events_processed: cluster.sim.events_processed() - before,
    };
    (pin, wall)
}

/// Profiles one ring size: steady-state window with the rule-level profiler
/// on, reported as a merged cluster-wide profile.
fn bench_obs(nodes: usize, warmup_secs: u64, virtual_secs: u64) -> ObsSizeResult {
    let mut cluster = ChordCluster::builder(nodes, 42).build_fast(warmup_secs);
    // Enabling after bring-up zeroes the counters at the steady state, so
    // the profile reflects maintenance traffic, not joins.
    cluster.enable_observability();
    let engine_before = cluster.engine_stats();
    let events_before = cluster.sim.events_processed();
    cluster.run_for(virtual_secs as f64);
    let events = cluster.sim.events_processed() - events_before;
    let profile = cluster.obs_report();
    let mut engine_ops = cluster.engine_stats();
    engine_ops.handoffs -= engine_before.handoffs;
    engine_ops.injected -= engine_before.injected;
    engine_ops.dropped_no_entry -= engine_before.dropped_no_entry;
    engine_ops.timers_fired -= engine_before.timers_fired;
    engine_ops.sent -= engine_before.sent;
    ObsSizeResult {
        nodes,
        virtual_secs,
        events,
        wasted_pokes_per_event: profile.total_wasted_pokes as f64 / events.max(1) as f64,
        engine_ops,
        profile,
    }
}

/// Ceiling on the 100-node steady-state ring's wasted pokes per simulated
/// event. The engine runs every poke, so a planning or program change that
/// multiplies useless triggers fails CI. Events do not depend on how many
/// elements a rule lowers to, pokes do, so the ceiling is per event: the
/// former ceiling of 45% of pokes, at its measured 85,668 pokes over 15,910
/// events of the smoke window, is 0.45 × 85,668 ⁄ 15,910 = 2.42. The smoke
/// window reads 2.12 (33,773 wasted), the full window 2.25. Wasted pokes
/// are a count, not time: most are one strand call whose first probe finds
/// nothing.
const WASTED_RATE_CEILING: f64 = 2.42;

/// The `--obs` mode: per-size rule-level profiles plus the off/on golden
/// gate. Exits non-zero if observability perturbs the golden run, if the
/// long-standing 100-node golden pin no longer holds, or if the 100-node
/// steady-state ring's wasted pokes per event exceed
/// [`WASTED_RATE_CEILING`] (the 100-node profile is added when absent from
/// `--sizes` so the gate always runs).
fn run_obs_mode(out_path: &str, smoke: bool, sizes: &[usize]) -> i32 {
    let (warmup_secs, measure_secs) = if smoke { (60, 30) } else { (300, 60) };

    let mut sizes = sizes.to_vec();
    if !sizes.contains(&100) {
        eprintln!("obs: adding the 100-node profile (wasted-poke gate)");
        sizes.push(100);
    }
    let mut profiles = Vec::new();
    for &n in &sizes {
        eprintln!("obs profile: {n} nodes ({measure_secs} virtual s steady state)...");
        let r = bench_obs(n, warmup_secs, measure_secs);
        let p = &r.profile;
        eprintln!(
            "  {} rules, {} events, {} pokes, {} wasted ({:.1}%, {:.2} per event); \
             refresh-transparent rules: {} pokes, {:.1}% wasted; \
             other rules: {} pokes, {:.1}% wasted",
            p.rules.len(),
            r.events,
            p.total_pokes,
            p.total_wasted_pokes,
            100.0 * p.wasted_rate,
            r.wasted_pokes_per_event,
            p.refresh_transparent.pokes,
            100.0 * p.refresh_transparent.wasted_rate,
            p.other_rules.pokes,
            100.0 * p.other_rules.wasted_rate,
        );
        profiles.push(r);
    }

    // The waste gate: the 100-node steady-state profile must keep its
    // wasted pokes per event under the pinned ceiling.
    let waste_gate_ok = profiles.iter().filter(|r| r.nodes == 100).all(|r| {
        eprintln!(
            "  100-node waste gate: {:.2} wasted pokes per event (ceiling {WASTED_RATE_CEILING})",
            r.wasted_pokes_per_event,
        );
        r.wasted_pokes_per_event < WASTED_RATE_CEILING
    });

    // Golden gate: always the 100-node staggered ring whose NetStats and
    // event count are pinned by the determinism tests, so CI asserts the
    // pins hold with observability both off and on.
    let gate_nodes = 100;
    eprintln!("obs golden gate: {gate_nodes}-node ring, profiler off vs on...");
    let mut off_ring = ChordCluster::build(gate_nodes, 120, 42);
    let (obs_off, obs_off_wall_secs) = pinned_window(&mut off_ring);
    let mut on_ring = ChordCluster::build(gate_nodes, 120, 42);
    on_ring.enable_observability();
    let (obs_on, obs_on_wall_secs) = pinned_window(&mut on_ring);
    let golden = ObsGolden {
        nodes: gate_nodes,
        obs_off,
        obs_on,
        matches: obs_off == obs_on,
        obs_off_wall_secs,
        obs_on_wall_secs,
        throughput_ratio: (obs_on.events_processed as f64 / obs_on_wall_secs.max(1e-12))
            / (obs_off.events_processed as f64 / obs_off_wall_secs.max(1e-12)).max(1e-12),
    };
    eprintln!(
        "  off {:?} vs on {:?} -> {} (on/off throughput {:.3})",
        golden.obs_off,
        golden.obs_on,
        if golden.matches { "MATCH" } else { "DIVERGED" },
        golden.throughput_ratio
    );

    let pin_holds = golden.obs_off
        == GoldenPin {
            messages_sent: 29_634,
            messages_delivered: 29_638,
            messages_dropped: 0,
            bytes_sent: 2_787_660,
            events_processed: 31_838,
        };

    let report = ObsReport {
        bench: "obs_profile".to_string(),
        profiles,
        golden,
    };
    // The vendored serde has no JSON parser, so the schema check inspects
    // the serialization tree in-process before it is rendered to disk.
    let tree = report.to_json();
    if let Err(e) = validate_obs_schema(&tree) {
        eprintln!("error: BENCH_obs.json schema check failed: {e}");
        return 1;
    }
    eprintln!("BENCH_obs.json schema OK");
    let json = to_json(&tree);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return 2;
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
    if !report.golden.matches {
        eprintln!("error: enabling observability perturbed the golden run");
        return 1;
    }
    if !pin_holds {
        eprintln!("error: 100-node golden pin no longer holds (obs off)");
        return 1;
    }
    if !waste_gate_ok {
        eprintln!(
            "error: 100-node steady-state ring exceeded {WASTED_RATE_CEILING} wasted pokes per event"
        );
        return 1;
    }
    0
}

/// Structural schema check for the `--obs` report tree.
fn validate_obs_schema(tree: &Json) -> Result<(), String> {
    let obj = as_object(tree, "report")?;
    field(obj, "bench").and_then(|v| match v {
        Json::Str(_) => Ok(()),
        _ => Err("report.bench must be a string".to_string()),
    })?;
    let profiles = match field(obj, "profiles")? {
        Json::Array(items) => items,
        _ => return Err("report.profiles must be an array".to_string()),
    };
    for (i, p) in profiles.iter().enumerate() {
        let p = as_object(p, &format!("profiles[{i}]"))?;
        for key in ["nodes", "virtual_secs", "events"] {
            expect_uint(p, key)?;
        }
        expect_number(p, "wasted_pokes_per_event")?;
        let profile = as_object(field(p, "profile")?, &format!("profiles[{i}].profile"))?;
        for key in ["total_pokes", "total_wasted_pokes"] {
            expect_uint(profile, key)?;
        }
        expect_number(profile, "wasted_rate")?;
        let rules = match field(profile, "rules")? {
            Json::Array(items) => items,
            _ => return Err("profile.rules must be an array".to_string()),
        };
        for r in rules {
            let r = as_object(r, "rule profile")?;
            match field(r, "rule")? {
                Json::Str(_) => {}
                _ => return Err("rule profile .rule must be a string".to_string()),
            }
            expect_uint(r, "pokes")?;
            expect_uint(r, "wasted_pokes")?;
            expect_number(r, "wasted_rate")?;
        }
        for bucket in ["refresh_transparent", "other_rules"] {
            let b = as_object(field(profile, bucket)?, bucket)?;
            expect_uint(b, "rules")?;
            expect_uint(b, "pokes")?;
            expect_uint(b, "wasted_pokes")?;
            expect_number(b, "wasted_rate")?;
        }
    }
    let golden = as_object(field(obj, "golden")?, "golden")?;
    for pin in ["obs_off", "obs_on"] {
        let p = as_object(field(golden, pin)?, pin)?;
        for key in [
            "messages_sent",
            "messages_delivered",
            "messages_dropped",
            "bytes_sent",
            "events_processed",
        ] {
            expect_uint(p, key)?;
        }
    }
    match field(golden, "matches")? {
        Json::Bool(_) => Ok(()),
        _ => Err("golden.matches must be a bool".to_string()),
    }
}

fn as_object<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Object(fields) => Ok(fields),
        _ => Err(format!("{what} must be an object")),
    }
}

fn field<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

fn expect_uint(obj: &[(String, Json)], key: &str) -> Result<(), String> {
    match field(obj, key)? {
        Json::UInt(_) | Json::Int(_) => Ok(()),
        _ => Err(format!("key {key:?} must be an integer")),
    }
}

fn expect_number(obj: &[(String, Json)], key: &str) -> Result<(), String> {
    match field(obj, key)? {
        Json::UInt(_) | Json::Int(_) | Json::Float(_) => Ok(()),
        _ => Err(format!("key {key:?} must be a number")),
    }
}

fn run_par_mode(out_path: &str, smoke: bool, sizes: &[usize], workers: &[usize]) -> i32 {
    let (warmup_secs, measure_secs) = if smoke { (60, 10) } else { (300, 30) };
    let machine_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut scaling = Vec::new();
    for &n in sizes {
        let mut row: Vec<ParResult> = Vec::new();
        // The sequential ring first: every speed-up is taken against it.
        for w in std::iter::once(0).chain(workers.iter().copied()) {
            match w {
                0 => eprintln!("chord ring: {n} nodes, sequential simulator..."),
                w => eprintln!("parsim chord ring: {n} nodes, {w} workers..."),
            }
            let mut r = bench_par(n, w, warmup_secs, measure_secs);
            let base = row.first().map_or(r.events_per_sec, |s| s.events_per_sec);
            r.speedup_vs_sequential = r.events_per_sec / base.max(1e-12);
            eprintln!(
                "  ring {:.2}, {} events in {:.3} s -> {:>10.0} events/s \
                 ({:.2}x sequential, {} sync rounds)",
                r.ring_correctness,
                r.events,
                r.wall_secs,
                r.events_per_sec,
                r.speedup_vs_sequential,
                r.sync_rounds
            );
            row.push(r);
        }
        scaling.push(row);
    }

    let gate_nodes = if smoke { 16 } else { 64 };
    eprintln!("golden gate: {gate_nodes}-node ring, sequential vs 2 workers...");
    let gate = golden_gate(gate_nodes, 2, if smoke { 60 } else { 120 });
    eprintln!(
        "  sequential {:?} vs parallel {:?} -> {}",
        gate.sequential,
        gate.parallel,
        if gate.matches { "MATCH" } else { "DIVERGED" }
    );

    let matches = gate.matches;
    let report = ParReport {
        bench: "parsim_scaling".to_string(),
        machine_cores,
        scaling,
        golden_gate: gate,
    };
    let json = to_json(&report);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return 2;
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
    if !matches {
        eprintln!("error: parallel golden run diverged from the sequential pin");
        return 1;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let smoke = flag("--smoke");
    let par = flag("--par");
    let obs = flag("--obs");
    let out_path = value("--out").unwrap_or_else(|| {
        if par {
            "BENCH_parsim.json".to_string()
        } else if obs {
            "BENCH_obs.json".to_string()
        } else {
            "BENCH_sim.json".to_string()
        }
    });
    let sizes: Vec<usize> = match value("--sizes") {
        Some(s) => s.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        None if smoke => vec![16],
        None if par => vec![500, 2000],
        None => vec![100, 500, 2000],
    };
    // `build_fast` rings start converged; the warm-up only lets the
    // periodic timers run through a few of their periods.
    let warmup_secs = 60;
    let measure_secs = if smoke { 10 } else { 30 };

    // Fail on an unwritable output path up front, not after minutes of
    // measurement.
    if let Err(e) = std::fs::write(&out_path, "{}") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    if par {
        let workers: Vec<usize> = match value("--workers") {
            Some(s) => s.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
            None if smoke => vec![1, 2],
            None => vec![1, 2, 4, 8],
        };
        std::process::exit(run_par_mode(&out_path, smoke, &sizes, &workers));
    }

    if obs {
        std::process::exit(run_obs_mode(&out_path, smoke, &sizes));
    }

    let mut toy_event_loop = Vec::new();
    for &n in &sizes {
        eprintln!("toy event loop: {n} nodes...");
        let r = bench_toy(n, if smoke { 30 } else { 120 });
        eprintln!(
            "  {} events in {:.3} s -> {:>9.1} ns/event ({:>12.0} events/s)",
            r.events, r.wall_secs, r.ns_per_event, r.events_per_sec
        );
        toy_event_loop.push(r);
    }

    let mut chord_rings = Vec::new();
    for &n in &sizes {
        eprintln!("chord ring: {n} nodes (converged boot, warmup {warmup_secs} s)...");
        let r = bench_chord(n, warmup_secs, measure_secs);
        eprintln!(
            "  bring-up {:.2} s wall, ring {:.2}, {} events in {:.3} s -> {:>12.0} events/s \
             ({:>8.0} msgs/virtual-s; full scans/event {:.4})",
            r.build_wall_secs,
            r.ring_correctness,
            r.events,
            r.wall_secs,
            r.events_per_sec,
            r.messages_per_virtual_sec,
            r.full_scans_per_event
        );
        chord_rings.push(r);
    }

    let rings_correct = chord_rings.iter().all(|r| r.ring_correctness == 1.0);

    let report = BenchReport {
        bench: "sim_event_loop".to_string(),
        toy_event_loop,
        chord_rings,
    };
    let json = to_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
    if !rings_correct {
        eprintln!("error: a Chord ring's best successors were not all correct after the warm-up");
        std::process::exit(1);
    }
}
