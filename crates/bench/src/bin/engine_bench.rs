//! Dataflow-engine benchmark: measures what the PR-3 overhaul targets
//! (compiled adjacency dispatch, scratch-buffer element calls, `Arc<str>`
//! sends, batched delivery, and shared-plan instantiation) and writes the
//! results to `BENCH_engine.json` so the engine gets the same perf
//! trajectory tracking as `BENCH_table.json` and `BENCH_sim.json`.
//!
//! Four sections:
//!
//! * `pipeline` — a synthetic chain of pass-through elements with fan-out,
//!   no tables or PEL. This isolates the engine's per-handoff cost: queue
//!   pop, adjacency lookup, tuple clone per route.
//! * `chord_deliver` — a single-node Chord ring answering `lookup` tuples
//!   end-to-end (predicate dispatch, rule strands with their probes and
//!   aggregations, self-routing heads), through both the one-at-a-time and
//!   the batched delivery entry points.
//! * `plan_sharing` — wall time and resident memory to bring up many Chord
//!   nodes by re-planning per node (the pre-PR-3 path) versus instantiating
//!   from one shared `PlannedProgram`.
//! * `agg_probe` — a strand aggregation's access path, with a new probed
//!   key every event: a primary-key probe versus a full scan over 64
//!   distinct rows (Narada's R5); the group index versus the row-by-row
//!   scan over 160 rows holding 8 projections (Chord's L2); and the same
//!   pair on an adverse table whose 64 rows are 64 groups, where grouping
//!   can save nothing.
//!
//! The binary also asserts what CI guards here: every rule of the shared
//! Chord plan must lower to strands, with no other rule-body element (the
//! `chord_deliver` section then drives them end-to-end), the group index
//! must read the 160 / 8 table at least
//! [`GROUPED_MIN_SPEEDUP`]× faster than the row scan, and on the adverse
//! table it may cost at most [`ADVERSE_MAX_RATIO`]× the row scan — the
//! measurement that lets the planner take the group path whenever the
//! index exists, with no threshold to tune.
//!
//! Usage: `cargo run --release --bin engine_bench [-- --smoke] [--out PATH]`

use std::time::Instant;

use p2_bench::to_json;
use p2_core::{P2Node, PlanConfig, PlannedProgram};
use p2_dataflow::elements::{AggOp, FusedStrand};
use p2_dataflow::{Element, ElementCtx, Engine, Graph, Route};
use p2_overlays::chord;
use p2_pel::{BinOp, Expr, IntervalKind, Program};
use p2_table::{AggFunc, Table, TableSpec};
use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};
use serde::Serialize;

/// Floor on `grouped_vs_scan`'s speedup (160 rows, 8 projections).
const GROUPED_MIN_SPEEDUP: f64 = 2.0;
/// Ceiling on `grouped_adverse`'s cost relative to the row scan (64 rows,
/// 64 projections).
const ADVERSE_MAX_RATIO: f64 = 1.1;
/// Alternating rounds per arm of the two grouped cases.
const ROUNDS: u64 = 5;

/// Forwards every tuple on all connected output ports.
struct Repeat {
    ports: usize,
}

impl Element for Repeat {
    fn class(&self) -> &'static str {
        "Repeat"
    }
    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        for p in 0..self.ports {
            ctx.emit(p, tuple.clone());
        }
    }
}

/// Terminal element: counts arrivals, emits nothing.
struct Count {
    seen: u64,
}

impl Element for Count {
    fn class(&self) -> &'static str {
        "Count"
    }
    fn push(&mut self, _port: usize, _tuple: &Tuple, _ctx: &mut ElementCtx<'_>) {
        self.seen += 1;
    }
}

#[derive(Debug, Clone, Serialize)]
struct PipelineResult {
    chain_len: usize,
    fanout: usize,
    deliveries: u64,
    handoffs: u64,
    wall_secs: f64,
    ns_per_handoff: f64,
    handoffs_per_sec: f64,
}

/// A chain of `chain_len` single-port repeaters ending in a `fanout`-way
/// split into counters: every delivery costs `chain_len + fanout` handoffs.
fn bench_pipeline(chain_len: usize, fanout: usize, deliveries: u64) -> PipelineResult {
    let mut g = Graph::new();
    let mut prev = None;
    let mut first = None;
    for i in 0..chain_len {
        let id = g.add(format!("repeat{i}"), Box::new(Repeat { ports: 1 }));
        if let Some(p) = prev {
            g.connect(p, 0, id, 0);
        }
        first.get_or_insert(id);
        prev = Some(id);
    }
    let tail = g.add("split", Box::new(Repeat { ports: 1 }));
    if let Some(p) = prev {
        g.connect(p, 0, tail, 0);
    }
    for i in 0..fanout {
        let c = g.add(format!("count{i}"), Box::new(Count { seen: 0 }));
        g.connect(tail, 0, c, 0);
    }
    let mut engine = Engine::new(g, "n1", 1);
    engine.set_entry(Route {
        element: first.unwrap_or(tail),
        port: 0,
    });
    engine.start(SimTime::ZERO);

    let tuple = TupleBuilder::new("x").push("payload").push(7i64).build();
    let start = Instant::now();
    for _ in 0..deliveries {
        engine.deliver(tuple.clone(), SimTime::from_secs(1));
    }
    let wall = start.elapsed().as_secs_f64();
    let handoffs = engine.stats().handoffs;
    PipelineResult {
        chain_len,
        fanout,
        deliveries,
        handoffs,
        wall_secs: wall,
        ns_per_handoff: wall * 1e9 / handoffs.max(1) as f64,
        handoffs_per_sec: handoffs as f64 / wall.max(1e-12),
    }
}

#[derive(Debug, Clone, Serialize)]
struct ChordDeliverResult {
    lookups: u64,
    batched: bool,
    wall_secs: f64,
    us_per_lookup: f64,
    lookups_per_sec: f64,
    handoffs_per_lookup: f64,
}

/// A one-node Chord ring (the node is its own successor) answering lookups
/// locally: the full dispatch → rule-strand → head → dispatch path with
/// real tables.
fn bench_chord_deliver(lookups: u64, batch: usize) -> ChordDeliverResult {
    let mut host = chord::build_node("n0:11111", None, 7, false).expect("chord node plans");
    let node = host.node_mut();
    node.start(SimTime::ZERO);
    node.deliver(chord::join_tuple("n0:11111", 1), SimTime::from_secs(1));
    node.advance_to(SimTime::from_secs(30));
    assert!(
        node.table("bestSucc").is_some_and(|t| !t.is_empty()),
        "single-node ring did not converge"
    );
    let handoffs_before = node.stats().handoffs;

    let mut made = 0u64;
    let mut key_seq = 0u64;
    let mut next_key = || {
        key_seq += 1;
        Uint160::hash_of(&key_seq.to_le_bytes())
    };
    let start = Instant::now();
    let now = SimTime::from_secs(31);
    while made < lookups {
        let n = batch.min((lookups - made) as usize);
        if n == 1 {
            node.deliver(
                chord::lookup_tuple("n0:11111", next_key(), "n0:11111", made as i64),
                now,
            );
        } else {
            let batch_tuples: Vec<Tuple> = (0..n)
                .map(|i| {
                    chord::lookup_tuple(
                        "n0:11111",
                        next_key(),
                        "n0:11111",
                        (made as usize + i) as i64,
                    )
                })
                .collect();
            node.deliver_many(batch_tuples, now);
        }
        made += n as u64;
        // Keep the observation taps from growing without bound.
        if made.is_multiple_of(8192) {
            for name in ["lookup", "lookupResults"] {
                if let Some(c) = node.collector(name) {
                    c.lock().clear();
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let handoffs = node.stats().handoffs - handoffs_before;
    ChordDeliverResult {
        lookups,
        batched: batch > 1,
        wall_secs: wall,
        us_per_lookup: wall * 1e6 / lookups.max(1) as f64,
        lookups_per_sec: lookups as f64 / wall.max(1e-12),
        handoffs_per_lookup: handoffs as f64 / lookups.max(1) as f64,
    }
}

#[derive(Debug, Clone, Serialize)]
struct PlanSharingResult {
    nodes: usize,
    fresh_plan_wall_secs: f64,
    fresh_plan_us_per_node: f64,
    shared_plan_wall_secs: f64,
    shared_plan_us_per_node: f64,
    instantiation_speedup: f64,
    fresh_rss_bytes_per_node: f64,
    shared_rss_bytes_per_node: f64,
}

/// Resident-set size of this process in bytes (Linux; 0 elsewhere).
fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

fn chord_facts(addr: &str) -> Vec<Tuple> {
    chord::base_facts(addr, Some("node0:11111"))
}

fn bench_plan_sharing(nodes: usize) -> PlanSharingResult {
    let program = chord::program();
    let config = PlanConfig::new()
        .watch("lookupResults")
        .watch("lookup")
        .without_jitter();

    // Shared path first, from the cleanest heap baseline: one compile, N
    // instantiations.
    let rss0 = rss_bytes();
    let start = Instant::now();
    let shared_plan = PlannedProgram::compile(program, &config).expect("chord plans");
    let shared: Vec<P2Node> = (0..nodes)
        .map(|i| {
            let addr = format!("node{i}:11111");
            P2Node::from_plan(&shared_plan, &addr, i as u64, chord_facts(&addr))
        })
        .collect();
    let shared_wall = start.elapsed().as_secs_f64();
    let shared_rss = rss_bytes().saturating_sub(rss0);

    // Pre-PR-3 path: full compile per node. Measured second, so any pages
    // recycled from the shared run's temporaries shrink this delta — the
    // comparison is conservative for the shared-plan claim.
    let rss1 = rss_bytes();
    let start = Instant::now();
    let fresh: Vec<P2Node> = (0..nodes)
        .map(|i| {
            let addr = format!("node{i}:11111");
            let plan = PlannedProgram::compile(program, &config).expect("chord plans");
            P2Node::from_plan(&plan, &addr, i as u64, chord_facts(&addr))
        })
        .collect();
    let fresh_wall = start.elapsed().as_secs_f64();
    let fresh_rss = rss_bytes().saturating_sub(rss1);

    // Touch both fleets so the optimizer cannot elide them, and count a
    // value the fleets agree on.
    let sanity: usize = fresh
        .iter()
        .chain(shared.iter())
        .filter(|n| n.table("node").is_some_and(|t| t.len() == 1))
        .count();
    assert_eq!(sanity, 2 * nodes, "fleet sanity check failed");

    PlanSharingResult {
        nodes,
        fresh_plan_wall_secs: fresh_wall,
        fresh_plan_us_per_node: fresh_wall * 1e6 / nodes.max(1) as f64,
        shared_plan_wall_secs: shared_wall,
        shared_plan_us_per_node: shared_wall * 1e6 / nodes.max(1) as f64,
        instantiation_speedup: fresh_wall / shared_wall.max(1e-12),
        fresh_rss_bytes_per_node: fresh_rss as f64 / nodes.max(1) as f64,
        shared_rss_bytes_per_node: shared_rss as f64 / nodes.max(1) as f64,
    }
}

#[derive(Debug, Clone, Serialize)]
struct AggProbeResult {
    /// `keyed_vs_scan` (Narada R5), `grouped_vs_scan` (Chord L2) or
    /// `grouped_adverse` (every row its own group).
    case: &'static str,
    rows: usize,
    /// Distinct projections of the rows onto the columns the probe's
    /// programs read.
    distinct_projections: usize,
    events: u64,
    probe_ns_per_event: f64,
    baseline_ns_per_event: f64,
    speedup: f64,
}

/// A strand whose only op is `agg`, emitting `trigger ++ witness ++
/// [aggregate]` (`width` fields).
fn agg_strand(agg: AggOp, width: usize) -> Box<dyn Element> {
    let head = (0..width).map(|i| Program::compile(&Expr::Field(i)));
    Box::new(FusedStrand::new(
        vec![],
        vec![agg.into()],
        head.collect(),
        "out",
    ))
}

/// Delivers `events` probe events (cycling through `stream`, so the probed
/// key changes every event) to the strand `make` builds over table 0, a
/// fresh `spec` table preloaded with `rows` that `make` may index; returns
/// ns per event.
fn time_probe(
    spec: TableSpec,
    rows: &[Tuple],
    stream: &[Tuple],
    events: u64,
    make: impl FnOnce(&mut Table) -> Box<dyn Element>,
) -> f64 {
    let mut table = Table::new(spec);
    for row in rows {
        table
            .insert(row.clone(), SimTime::from_secs(1))
            .expect("well-formed row");
    }
    let mut g = Graph::new();
    let probe = g.add("probe", make(&mut table));
    g.add_table(table);
    let sink = g.add("sink", Box::new(Count { seen: 0 }));
    g.connect(probe, 0, sink, 0);
    let mut engine = Engine::new(g, "n1", 1);
    engine.set_entry(Route {
        element: probe,
        port: 0,
    });
    engine.start(SimTime::ZERO);
    let start = Instant::now();
    for i in 0..events as usize {
        engine.deliver(stream[i % stream.len()].clone(), SimTime::from_secs(2));
    }
    start.elapsed().as_secs_f64() * 1e9 / events.max(1) as f64
}

/// Narada's R5: `count<*>` over 64 `member` rows of which at most one has
/// the event's `A`. The keyed aggregation takes `member`'s primary index;
/// the baseline is the same strand with `B == A` left in its filter.
fn bench_agg_probe_keyed(events: u64) -> AggProbeResult {
    let rows: Vec<Tuple> = (0..64i64)
        .map(|i| {
            TupleBuilder::new("member")
                .push("n1")
                .push(format!("m{i}"))
                .push(i)
                .build()
        })
        .collect();
    // Four in five events name a member, the rest a stranger.
    let stream: Vec<Tuple> = (0..80)
        .map(|i| {
            TupleBuilder::new("refreshMsg")
                .push("n1")
                .push(format!("m{i}"))
                .build()
        })
        .collect();
    let spec = || TableSpec::new("member", vec![1]);
    let same_node = || Expr::bin(BinOp::Eq, Expr::Field(0), Expr::Field(2));
    let count = |filter: Expr| {
        let one = Program::compile(&Expr::int(1));
        let filter = Some(Program::compile(&filter));
        AggOp::new(0, 3, AggFunc::Count, filter, one)
    };
    let probe_ns_per_event = time_probe(spec(), &rows, &stream, events, |_| {
        agg_strand(count(same_node()).with_key(vec![(1, 1)]), 6)
    });
    let baseline_ns_per_event = time_probe(spec(), &rows, &stream, events, |_| {
        let same_member = Expr::bin(BinOp::Eq, Expr::Field(1), Expr::Field(3));
        agg_strand(count(Expr::bin(BinOp::And, same_node(), same_member)), 6)
    });
    AggProbeResult {
        case: "keyed_vs_scan",
        rows: rows.len(),
        distinct_projections: rows.len(),
        events,
        probe_ns_per_event,
        baseline_ns_per_event,
        speedup: baseline_ns_per_event / probe_ns_per_event.max(1e-12),
    }
}

/// Chord's L2: `min<K - B - 1>` over `rows` `finger` rows holding
/// `rows / run` distinct `B`, filtered by `B in (N, K)`, with a new `K` every
/// event. The aggregation reads the table through the group index on `B`;
/// the baseline is the same strand without it, scanning row by row.
fn bench_agg_probe_grouped(case: &'static str, rows: u64, run: u64, events: u64) -> AggProbeResult {
    let id = |x: u64| Value::Id(Uint160::from_u64(x));
    // Finger `i` points at the first node at or past `2^i`-ish distance:
    // runs of equal `B`, as in a real finger table, spread over the range
    // the events' `K` sweeps so the filter passes about half of them.
    let groups = rows / run;
    let rows: Vec<Tuple> = (0..rows)
        .map(|i| {
            TupleBuilder::new("finger")
                .push("n1")
                .push(i as i64)
                .push(id(1000 + 8000 / groups * (i / run)))
                .push(format!("n{}", i / run))
                .build()
        })
        .collect();
    // Event layout (NI, K, R, E, N); joined B is field 7.
    let stream: Vec<Tuple> = (0..1024u64)
        .map(|i| {
            TupleBuilder::new("lookup")
                .push("n1")
                .push(id(500 + 8 * i))
                .push("n9")
                .push(i as i64)
                .push(id(5))
                .build()
        })
        .collect();
    let spec = || TableSpec::new("finger", vec![1]);
    let probe = || {
        let filter = Program::compile(&Expr::Interval {
            kind: IntervalKind::OpenOpen,
            value: Box::new(Expr::Field(7)),
            low: Box::new(Expr::Field(4)),
            high: Box::new(Expr::Field(1)),
        });
        let agg = Program::compile(&Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::Field(1), Expr::Field(7)),
            Expr::int(1),
        ));
        AggOp::new(0, 4, AggFunc::Min, Some(filter), agg)
    };
    // The two arms alternate and each keeps its fastest round: the CI
    // bounds below compare them, and interference on a shared box only
    // ever adds time.
    let (mut probe_ns_per_event, mut baseline_ns_per_event) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let ns = time_probe(spec(), &rows, &stream, events / ROUNDS, |table| {
            table.add_group_index(vec![2]);
            agg_strand(probe().with_group_index(vec![2]), 10)
        });
        probe_ns_per_event = probe_ns_per_event.min(ns);
        let ns = time_probe(spec(), &rows, &stream, events / ROUNDS, |_| {
            agg_strand(probe(), 10)
        });
        baseline_ns_per_event = baseline_ns_per_event.min(ns);
    }
    AggProbeResult {
        case,
        rows: rows.len(),
        distinct_projections: groups as usize,
        events,
        probe_ns_per_event,
        baseline_ns_per_event,
        speedup: baseline_ns_per_event / probe_ns_per_event.max(1e-12),
    }
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    pipeline: Vec<PipelineResult>,
    chord_deliver: Vec<ChordDeliverResult>,
    plan_sharing: PlanSharingResult,
    agg_probe: Vec<AggProbeResult>,
    /// Strand elements in the shared Chord plan: every rule lowers to
    /// strands.
    strand_count: usize,
}

/// Asserts that every rule of `plan` lowers to strands, with no rule
/// element besides its strands, trigger timer and materialized aggregate;
/// returns the number of strands.
fn assert_strands_only(plan: &PlannedProgram) -> usize {
    let meta = plan.obs_meta();
    let mut strands = 0;
    let mut rules_with_strands = std::collections::BTreeSet::new();
    let mut rules = std::collections::BTreeSet::new();
    for elem in &meta.elems {
        let Some(rule) = elem.rule.as_deref() else {
            continue;
        };
        rules.insert(rule);
        match elem.kind.as_str() {
            "strand" => {
                strands += 1;
                rules_with_strands.insert(rule);
            }
            "periodic" | "table_agg" => {}
            other => panic!("rule {rule} lowered to a {other} element"),
        }
    }
    assert_eq!(rules, rules_with_strands, "a rule has no strand");
    strands
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let out_path = value("--out").unwrap_or_else(|| "BENCH_engine.json".to_string());
    let smoke = flag("--smoke");
    let (pipe_deliveries, lookups, fleet, probe_events) = if smoke {
        (50_000u64, 20_000u64, 64usize, 25_000u64)
    } else {
        (500_000, 100_000, 512, 100_000)
    };

    // Fail on an unwritable output path up front.
    if let Err(e) = std::fs::write(&out_path, "{}") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }

    // Plan sharing first: its RSS deltas are cleanest before the other
    // sections grow (and then recycle) the heap.
    eprintln!("plan sharing: {fleet} chord nodes...");
    let plan_sharing = bench_plan_sharing(fleet);
    eprintln!(
        "  fresh {:>8.1} us/node ({:.0} KiB RSS) vs shared {:>8.1} us/node ({:.0} KiB RSS): {:.1}x",
        plan_sharing.fresh_plan_us_per_node,
        plan_sharing.fresh_rss_bytes_per_node / 1024.0,
        plan_sharing.shared_plan_us_per_node,
        plan_sharing.shared_rss_bytes_per_node / 1024.0,
        plan_sharing.instantiation_speedup
    );

    let mut pipeline = Vec::new();
    for (chain, fanout) in [(32usize, 1usize), (8, 8), (1, 32)] {
        eprintln!("pipeline: chain {chain}, fanout {fanout}...");
        let r = bench_pipeline(chain, fanout, pipe_deliveries);
        eprintln!(
            "  {} handoffs in {:.3} s -> {:>7.1} ns/handoff ({:>12.0} handoffs/s)",
            r.handoffs, r.wall_secs, r.ns_per_handoff, r.handoffs_per_sec
        );
        pipeline.push(r);
    }

    // CI smoke-run of the strand path: every rule of the default shared
    // plan lowers to strands, and the lookup benchmark below then drives
    // them end-to-end.
    let strand_count = assert_strands_only(chord::shared_plan(false));
    eprintln!("chord shared plan: {strand_count} rule strands, no other rule-body element");

    let mut chord_deliver = Vec::new();
    for batch in [1usize, 64] {
        eprintln!("chord lookups: batch {batch}...");
        let r = bench_chord_deliver(lookups, batch);
        eprintln!(
            "  {} lookups in {:.3} s -> {:>7.2} us/lookup ({:>9.0} lookups/s, {:.1} handoffs each)",
            r.lookups, r.wall_secs, r.us_per_lookup, r.lookups_per_sec, r.handoffs_per_lookup
        );
        chord_deliver.push(r);
    }

    let mut agg_probe = Vec::new();
    for r in [
        bench_agg_probe_keyed(probe_events),
        bench_agg_probe_grouped("grouped_vs_scan", 160, 20, probe_events),
        bench_agg_probe_grouped("grouped_adverse", 64, 1, probe_events),
    ] {
        eprintln!(
            "agg probe {}: {} rows, {} distinct projections, {} events",
            r.case, r.rows, r.distinct_projections, r.events
        );
        eprintln!(
            "  probe {:>7.0} ns/event vs baseline {:>8.0} ns/event: {:.2}x",
            r.probe_ns_per_event, r.baseline_ns_per_event, r.speedup
        );
        match r.case {
            "grouped_vs_scan" => assert!(
                r.speedup >= GROUPED_MIN_SPEEDUP,
                "group index regressed: {:.2}x the row scan on {} rows / {} projections, \
                 need >= {GROUPED_MIN_SPEEDUP}x",
                r.speedup,
                r.rows,
                r.distinct_projections
            ),
            "grouped_adverse" => assert!(
                r.probe_ns_per_event <= ADVERSE_MAX_RATIO * r.baseline_ns_per_event,
                "group index costs {:.2}x the row scan when every row is its own group, \
                 need <= {ADVERSE_MAX_RATIO}x",
                r.probe_ns_per_event / r.baseline_ns_per_event
            ),
            _ => {}
        }
        agg_probe.push(r);
    }

    let report = BenchReport {
        bench: "dataflow_engine".to_string(),
        pipeline,
        chord_deliver,
        plan_sharing,
        agg_probe,
        strand_count,
    };
    let json = to_json(&report);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
