//! Runs one workload in this process, untraced (end-to-end metrics) or
//! traced (per-layer metrics), and assembles its [`Detail`].

use std::sync::Arc;
use std::time::Instant;

use p2_harness::{BaselineCluster, ChordCluster};
use p2_overlays::{gossip, monitor, P2Host};
use p2_value::SimTime;

use crate::frontend::{self, Frontend, Overlay, Probe};
use crate::metrics::{Kind, Workload, PER_LAYER};
use crate::report::{Detail, Metric};
use crate::rig::{BenchRing, ChordRig, Counters, Mesh, Rig};
use crate::stats::{highest_supported_percentile, quantile};
use crate::timed::{Call, Recorder, Span, Timed};
use crate::units::{self, Units};
use crate::workloads::{run_phase, Budget, Churn, Lookups, Phase, Scenario, Steady, Window};

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Wall seconds to measure for; `None` measures exactly the minimum
    /// number of windows, which makes simulated metrics a function of the
    /// seed alone.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
}

const MIN_WINDOWS: usize = 30;
const MIN_TRACED_WINDOWS: usize = 10;
const SMOKE_WINDOWS: usize = 5;
/// Set-up runs up to this many times, `setup_s` being the median …
const SETUP_REPS: usize = 3;
/// … but stops repeating once this much wall time has gone into it.
const SETUP_BUDGET_S: f64 = 6.0;

impl Options {
    fn min_windows(&self) -> usize {
        match (self.smoke, self.trace) {
            (true, _) => SMOKE_WINDOWS,
            (false, true) => MIN_TRACED_WINDOWS,
            (false, false) => MIN_WINDOWS,
        }
    }

    fn budget(&self) -> Budget {
        Budget {
            min_windows: self.min_windows(),
            seconds: self.seconds,
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `build` up to [`SETUP_REPS`] times and keeps the last result.
fn set_up<R>(build: impl Fn() -> R) -> (R, f64, usize) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut rig = None;
    while times.len() < SETUP_REPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        rig.expect("the loop runs at least once"),
        quantile(&times, 0.5),
        times.len(),
    )
}

/// Lets a freshly joined overlay converge: virtual time in `slice_s` steps
/// until the structural check holds (ten steps at most), then one more.
fn settle<R: Rig>(rig: &mut R, slice_s: u64) {
    for _ in 0..10 {
        if rig.structure_ok() {
            break;
        }
        rig.run_until_us(rig.now_us() + slice_s * 1_000_000);
    }
    rig.run_until_us(rig.now_us() + slice_s * 1_000_000);
}

const CHORD_SETTLE_S: u64 = 30;
const MESH_WARMUP_S: u64 = 30;
const MESH_SETTLE_S: u64 = 6;

fn us_per_event(windows: &[Window]) -> Vec<f64> {
    windows
        .iter()
        .map(|w| w.wall_s * 1e6 / w.events.max(1) as f64)
        .collect()
}

fn new_detail(w: &Workload, nodes: usize, opts: &Options) -> Detail {
    Detail {
        workload: w.name.to_string(),
        seed: opts.seed,
        traced: opts.trace,
        smoke: opts.smoke,
        nodes,
        windows: 0,
        setups: 1,
        attempted: 0,
        failed: 0,
        checks: Vec::new(),
        metrics: Vec::new(),
    }
}

/// End-to-end metrics and output checks of an untraced phase.
fn finish_untraced<R: Rig>(
    detail: &mut Detail,
    kind: Kind,
    rig: &R,
    front: &Frontend,
    setup_s: f64,
    phase: &Phase,
) {
    let n = rig.population();
    let tally = &phase.tally;
    detail.windows = phase.windows.len();
    detail.attempted = tally.attempted + front.attempted;
    detail.failed = tally.failed + front.failed;

    let speeds: Vec<f64> = phase
        .windows
        .iter()
        .map(|w| w.virtual_us as f64 / 1e6 / w.wall_s)
        .collect();
    let m = &mut detail.metrics;
    m.push(Metric::new("setup_s", setup_s, "s"));
    m.push(Metric::lower_quartile(
        "us_per_event",
        &us_per_event(&phase.windows),
        "us",
    ));
    m.push(Metric::upper_quartile("virtual_s_per_s", &speeds, "1/s"));
    m.push(Metric::new("plan_ms", front.plan_ms, "ms"));
    m.push(Metric::new("node_boot_us", front.node_boot_us(), "us"));
    m.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    m.push(Metric::new(
        "maint_bytes_per_node_vs",
        phase.counters.maint_bytes as f64 / n as f64 / (phase.virtual_us as f64 / 1e6),
        "B/s",
    ));

    if tally.lookups_issued > 0 {
        let completed = tally.lookups_completed as f64 / tally.lookups_issued as f64;
        if kind == Kind::ChordLookups {
            let per_window = tally.lookups_completed as f64 / phase.windows.len() as f64;
            let rates: Vec<f64> = phase
                .windows
                .iter()
                .map(|w| per_window / w.wall_s)
                .collect();
            m.push(Metric::upper_quartile("lookups_per_s", &rates, "1/s"));
        }
        m.push(Metric::new(
            "lookup_latency_p50_vs",
            quantile(&tally.latencies_vs, 0.5),
            "s",
        ));
        if let Some((99, p99)) = highest_supported_percentile(&tally.latencies_vs) {
            m.push(Metric::new("lookup_latency_p99_vs", p99, "s"));
        }
        let mean_hops = tally.hops.iter().sum::<f64>() / tally.hops.len().max(1) as f64;
        m.push(Metric::new("mean_hops", mean_hops, "count"));
        let correct = tally.lookups_correct as f64 / tally.lookups_issued as f64;
        m.push(Metric::new("lookup_correct_share", correct, "share"));
        match kind {
            Kind::ChordLookups => detail.check(
                "lookups_completed_correct",
                correct >= 0.99,
                format!(
                    "{} of {} lookups answered with the right owner; mean hops {mean_hops:.2} against log2(N)/2 = {:.2}",
                    tally.lookups_correct,
                    tally.lookups_issued,
                    (n as f64).log2() / 2.0
                ),
            ),
            _ => {
                let agreed =
                    tally.consistency.iter().sum::<f64>() / tally.consistency.len().max(1) as f64;
                detail.check(
                    "lookups_survive_churn",
                    completed >= 0.8,
                    format!(
                        "{:.3} of {} probe lookups answered, {correct:.3} with the right owner, {agreed:.3} mean agreement in a probe group, {} crash+rejoin events",
                        completed, tally.lookups_issued, tally.churn_events
                    ),
                )
            }
        }
    }
    let m = &mut detail.metrics;
    if kind != Kind::NaradaMesh {
        let ring = tally.ring_samples.iter().sum::<f64>() / tally.ring_samples.len().max(1) as f64;
        m.push(Metric::new("ring_correctness", ring, "share"));
        if kind == Kind::ChordChurn {
            detail.check(
                "ring_holds_under_churn",
                ring >= 0.5,
                format!("mean ring correctness {ring:.3} over window ends"),
            );
        }
    }
    detail.metrics.push(Metric::new(
        "failed_share",
        detail.failed as f64 / detail.attempted.max(1) as f64,
        "share",
    ));
    if kind != Kind::ChordChurn {
        detail.check(
            match kind {
                Kind::NaradaMesh => "full_live_membership",
                _ => "single_successor_cycle",
            },
            rig.structure_ok(),
            format!("{n} nodes after the last window"),
        );
    }
    check_fallbacks(detail, kind, &phase.counters);
}

/// On a static overlay no fallback path may run. Under churn a delta log
/// can overflow at a node that sits un-joined (seen on about one seed in
/// ten), and its rebuild recovers, so there the counts are only reported.
fn check_fallbacks(detail: &mut Detail, kind: Kind, c: &Counters) {
    detail.check(
        "no_fallback_taken",
        kind == Kind::ChordChurn || c.fallbacks() == 0,
        format!(
            "dropped_no_entry {}, overflows {}, rebuilds {}",
            c.engine.dropped_no_entry, c.storage.overflows, c.storage.rebuilds
        ),
    );
}

/// The hand-written Chord on the same topology and seed: wall µs per event
/// over the same windows.
fn baseline_us_per_event(n: usize, window_us: u64, windows: usize, seed: u64) -> f64 {
    let mut base = BaselineCluster::build(n, 120, seed);
    let mut samples = Vec::with_capacity(windows);
    for _ in 0..=windows {
        let before = base.sim.events_processed();
        let t = Instant::now();
        base.sim.run_for(SimTime::from_micros(window_us));
        let wall = t.elapsed().as_secs_f64();
        samples.push(wall * 1e6 / (base.sim.events_processed() - before).max(1) as f64);
    }
    quantile(&samples[1..], 0.25)
}

/// What a traced run knows besides its two phases.
struct TraceContext<'a> {
    front: &'a Frontend,
    units: &'a Units,
    bringup_virtual_s: f64,
    baseline_us: Option<f64>,
}

/// Per-layer metrics from the traced phase, its untraced twin, the unit
/// costs and the front-end probe. Emits every name in [`PER_LAYER`].
fn finish_traced<R: Rig>(
    detail: &mut Detail,
    kind: Kind,
    rig: &R,
    untraced: &Phase,
    traced: &Phase,
    ctx: &TraceContext,
) {
    let c = &traced.counters;
    let rec = &traced.recorded;
    let events = c.events.max(1) as f64;
    let vs = traced.virtual_us.max(1) as f64 / 1e6;
    let window_ns = rec.window_ns.max(1) as f64;
    let host_ns = rec.host_ns() as f64;
    let deliver = rec.call(Call::Deliver);
    let advance = rec.call(Call::AdvanceTo);
    let deliver_ns = (deliver.total_ns + rec.call(Call::DeliverMany).total_ns) as f64;
    let working_calls: u64 = [
        Call::Start,
        Call::Deliver,
        Call::DeliverMany,
        Call::AdvanceTo,
    ]
    .iter()
    .map(|&k| rec.call(k).calls)
    .sum();
    let all_calls: u64 = Call::ALL.iter().map(|&k| rec.call(k).calls).sum();
    let envelopes: u64 = Call::ALL.iter().map(|&k| rec.call(k).envelopes).sum();

    let report = rig.obs_report();
    let (invocations, useful, top5, inserts, rule_invocations) = match &report {
        Some(r) => {
            let mut by_rule: Vec<u64> = r.rules.iter().map(|p| p.counters.invocations).collect();
            by_rule.sort_unstable_by(|a, b| b.cmp(a));
            let all: u64 = by_rule.iter().sum();
            let top: u64 = by_rule.iter().take(5).sum();
            (
                r.totals.invocations,
                1.0 - r.total_wasted_pokes as f64 / r.total_pokes.max(1) as f64,
                top as f64 / all.max(1) as f64,
                r.tables.iter().map(|t| t.inserts).sum::<u64>(),
                all,
            )
        }
        None => (0, 0.0, 0.0, 0, 0),
    };

    let u = ctx.units;
    // The outside model of host time: counts from the traced phase times
    // unit costs measured in isolation. The simulator sizes packets but
    // never marshals them, so marshalling has a unit cost and no share.
    let expire_ticks = working_calls * rig.tables_per_node() as u64;
    let modelled_ns = c.engine.handoffs as f64 * u.handoff_ns
        + c.storage.primary_lookups as f64 * u.primary_get_ns
        + c.storage.indexed_lookups as f64 * u.indexed_probe_ns
        + inserts as f64 * u.insert_refresh_ns
        + expire_ticks as f64 * u.expire_tick_ns
        + rule_invocations as f64 * u.pel_eval_ns
        + c.engine.sent as f64 * u.tuple_build_ns;

    let untraced_us = quantile(&us_per_event(&untraced.windows), 0.25);
    let traced_us = quantile(&us_per_event(&traced.windows), 0.25);
    let t = &traced.tally;
    let per_event = |count: u64| count as f64 / events;

    let values: Vec<(&str, f64)> = vec![
        (
            "netsim.self_us_per_event",
            (window_ns - host_ns) / 1e3 / events,
        ),
        ("netsim.events_per_vs", events / vs),
        ("netsim.wakeup_share", per_event(c.wakeups)),
        ("netsim.msgs_per_vs", c.msgs_sent as f64 / vs),
        (
            "netsim.bytes_per_msg",
            c.bytes_sent as f64 / c.msgs_sent.max(1) as f64,
        ),
        (
            "netsim.dropped_share",
            c.msgs_dropped as f64 / c.msgs_sent.max(1) as f64,
        ),
        ("netsim.in_flight", c.in_flight as f64),
        ("netsim.toy_ns_per_event", u.toy_ns_per_event),
        ("host.deliver_us_p50", deliver.hist.quantile_ns(0.5) / 1e3),
        ("host.deliver_us_p99", deliver.hist.quantile_ns(0.99) / 1e3),
        ("host.advance_us_p50", advance.hist.quantile_ns(0.5) / 1e3),
        ("host.advance_us_p99", advance.hist.quantile_ns(0.99) / 1e3),
        ("host.deliver_share", deliver_ns / window_ns),
        ("host.advance_share", advance.total_ns as f64 / window_ns),
        (
            "host.next_deadline_share",
            rec.call(Call::NextDeadline).total_ns as f64 / window_ns,
        ),
        ("host.calls_per_event", all_calls as f64 / events),
        (
            "host.envelopes_per_call",
            envelopes as f64 / working_calls.max(1) as f64,
        ),
        ("dataflow.handoffs_per_event", per_event(c.engine.handoffs)),
        (
            "dataflow.timers_per_event",
            per_event(c.engine.timers_fired),
        ),
        ("dataflow.sends_per_event", per_event(c.engine.sent)),
        (
            "dataflow.suppressed_per_event",
            per_event(c.engine.suppressed_refresh_pokes + c.engine.suppressed_guard_pokes),
        ),
        (
            "dataflow.dropped_no_entry",
            c.engine.dropped_no_entry as f64,
        ),
        ("dataflow.handoff_ns", u.handoff_ns),
        (
            "table.primary_per_event",
            per_event(c.storage.primary_lookups),
        ),
        (
            "table.indexed_per_event",
            per_event(c.storage.indexed_lookups),
        ),
        (
            "table.full_scans_per_event",
            per_event(c.storage.full_scans),
        ),
        ("table.expired_per_event", per_event(c.storage.expired)),
        ("table.evicted", c.storage.evicted as f64),
        ("table.overflows", c.storage.overflows as f64),
        ("table.rebuilds", c.storage.rebuilds as f64),
        (
            "table.resident_bytes_per_node",
            rig.resident_bytes_per_node(),
        ),
        ("table.primary_get_ns", u.primary_get_ns),
        ("table.indexed_probe_ns", u.indexed_probe_ns),
        ("table.insert_refresh_ns", u.insert_refresh_ns),
        ("table.expire_tick_ns", u.expire_tick_ns),
        ("pel.eval_ns", u.pel_eval_ns),
        ("value.tuple_build_ns", u.tuple_build_ns),
        ("value.marshal_ns", u.marshal_ns),
        ("value.unmarshal_ns", u.unmarshal_ns),
        ("obs.invocations_per_event", per_event(invocations)),
        ("obs.useful_poke_ratio", useful),
        ("obs.top5_rule_share", top5),
        ("obs.overhead_ratio", traced_us / untraced_us.max(1e-9)),
        ("overlog.parse_ms", ctx.front.times.parse_ms),
        ("overlog.analyze_ms", ctx.front.times.analyze_ms),
        ("core.plan_ms", ctx.front.times.plan_ms),
        ("core.instantiate_us", ctx.front.instantiate_us),
        ("core.start_us", ctx.front.start_us),
        ("harness.bringup_virtual_s", ctx.bringup_virtual_s),
        (
            "harness.harvest_us_per_lookup",
            t.harvest_ns as f64 / 1e3 / t.lookups_issued.max(1) as f64,
        ),
        (
            "harness.rejoin_us",
            t.rejoin_ns as f64 / 1e3 / t.churn_events.max(1) as f64,
        ),
        ("baseline.us_per_event", ctx.baseline_us.unwrap_or(0.0)),
        (
            "baseline.ratio",
            ctx.baseline_us.map_or(0.0, |b| untraced_us / b.max(1e-9)),
        ),
        ("budget.attributed_share", modelled_ns / host_ns.max(1.0)),
    ];
    push_per_layer(detail, &values);

    detail.windows = traced.windows.len();
    detail.attempted = t.attempted + ctx.front.attempted;
    detail.failed = t.failed + ctx.front.failed;
    detail.check(
        "spans_fit_their_windows",
        host_ns <= window_ns,
        format!(
            "host spans {:.1} ms + simulator self time {:.1} ms = window wall {:.1} ms over {} windows",
            host_ns / 1e6,
            (window_ns - host_ns) / 1e6,
            window_ns / 1e6,
            rec.windows
        ),
    );
    check_fallbacks(detail, kind, c);
}

/// Adds every [`PER_LAYER`] metric, in table order, reading 0 where
/// `values` has no entry.
fn push_per_layer(detail: &mut Detail, values: &[(&str, f64)]) {
    for (name, unit, _) in PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| n == &name)
            .map_or(0.0, |(_, v)| *v);
        detail.metrics.push(Metric::new(name, value, unit));
    }
}

fn write_trace(spans: &[Span]) -> std::io::Result<()> {
    let dir = crate::report::out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut text = String::new();
    for span in spans {
        text.push_str(&serde_json::to_string(&span.to_json()).expect("writer cannot fail"));
        text.push('\n');
    }
    std::fs::write(dir.join("trace.jsonl"), text)
}

/// Untraced run of a simulated workload: front-end probe, repeated set-up,
/// one measured phase.
fn untraced<R: Rig>(
    w: &Workload,
    opts: &Options,
    nodes: usize,
    overlay: Overlay,
    build: impl Fn() -> R,
    scenario: impl FnOnce(&R) -> Box<dyn Scenario<R>>,
) -> Detail {
    let mut detail = new_detail(w, nodes, opts);
    let (mut rig, setup_s, setups) = set_up(build);
    detail.setups = setups;
    let rec = Recorder::new();
    let mut scenario = scenario(&rig);
    let mut probe = Probe::new(overlay, nodes, opts.seed);
    let phase = run_phase(
        &mut rig,
        scenario.as_mut(),
        opts.budget(),
        &rec,
        &mut || probe.sample(),
    );
    finish_untraced(&mut detail, w.kind, &rig, &probe.finish(), setup_s, &phase);
    detail
}

/// Traced run of a simulated workload on `rig`, whose hosts report to
/// `rec`: an untraced phase, then the same windows with spans and the
/// rule profiler on.
fn traced<R: Rig>(
    w: &Workload,
    opts: &Options,
    overlay: Overlay,
    rec: &Arc<Recorder>,
    mut rig: R,
    enable_obs: impl FnOnce(&mut R),
    scenario: impl FnOnce(&R) -> Box<dyn Scenario<R>>,
) -> Detail {
    let nodes = rig.population();
    let mut detail = new_detail(w, nodes, opts);
    let mut scenario = scenario(&rig);
    let mut probe = Probe::new(overlay, nodes, opts.seed);
    // The two phases share the time, so their ratio compares like with like.
    let half = Budget {
        min_windows: opts.min_windows(),
        seconds: opts.seconds.map(|s| s / 2.0),
    };
    let before = run_phase(&mut rig, scenario.as_mut(), half, rec, &mut || {
        probe.sample()
    });
    enable_obs(&mut rig);
    rec.enable(true);
    let phase = run_phase(&mut rig, scenario.as_mut(), half, rec, &mut || {});
    rec.enable(false);
    let front = probe.finish();

    let units = units::measure(nodes);
    let baseline_us = (w.name == "chord_steady_100")
        .then(|| baseline_us_per_event(nodes, w.window_us, opts.min_windows(), opts.seed));
    let ctx = TraceContext {
        front: &front,
        units: &units,
        bringup_virtual_s: rig.bring_up_virtual_secs(),
        baseline_us,
    };
    finish_traced(&mut detail, w.kind, &rig, &before, &phase, &ctx);
    if let Err(e) = write_trace(&phase.recorded.sample) {
        eprintln!("trace.jsonl not written: {e}");
    }
    detail
}

fn chord_scenario<R: ChordRig>(
    w: &Workload,
    seed: u64,
) -> impl FnOnce(&R) -> Box<dyn Scenario<R>> + '_ {
    move |rig: &R| -> Box<dyn Scenario<R>> {
        match w.kind {
            Kind::ChordLookups => Box::new(Lookups::new(rig.addrs(), w.window_us, seed)),
            Kind::ChordChurn => Box::new(Churn::new(rig.addrs(), w.window_us, rig.now_us(), seed)),
            _ => Box::new(Steady {
                window_us: w.window_us,
            }),
        }
    }
}

/// The shipped programs besides Chord's.
const OTHER_PROGRAMS: [&str; 3] = [
    p2_overlays::narada::NARADA_OLG,
    gossip::GOSSIP_OLG,
    monitor::MONITOR_OLG,
];

/// `plan_boot`: every window plans the four shipped programs and boots
/// `nodes` Chord nodes from the fresh plan. No simulator runs, so the
/// per-event metrics do not exist here.
fn plan_boot(w: &Workload, opts: &Options, nodes: usize) -> Detail {
    let mut detail = new_detail(w, nodes, opts);
    let mut others_refused = 0u64;
    let mut window = |chord: &mut Probe| {
        let t = Instant::now();
        chord.sample();
        for source in OTHER_PROGRAMS {
            others_refused += u64::from(frontend::plan_once(source).is_err());
        }
        t.elapsed().as_secs_f64()
    };

    let mut warm = Probe::new(Overlay::Chord, nodes, opts.seed);
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| window(&mut warm)).collect();
    let budget = opts.budget();
    let started = Instant::now();
    let mut chord = Probe::new(Overlay::Chord, nodes, opts.seed);
    let mut windows = 0usize;
    while windows < budget.min_windows
        || budget
            .seconds
            .is_some_and(|s| started.elapsed().as_secs_f64() < s)
    {
        window(&mut chord);
        windows += 1;
    }

    let front = chord.finish();
    detail.windows = windows;
    detail.setups = setups.len();
    detail.attempted = front.attempted + (windows * OTHER_PROGRAMS.len()) as u64;
    detail.failed = front.failed + others_refused;
    if opts.trace {
        push_per_layer(
            &mut detail,
            &[
                ("overlog.parse_ms", front.times.parse_ms),
                ("overlog.analyze_ms", front.times.analyze_ms),
                ("core.plan_ms", front.times.plan_ms),
                ("core.instantiate_us", front.instantiate_us),
                ("core.start_us", front.start_us),
            ],
        );
    } else {
        let m = &mut detail.metrics;
        m.push(Metric::new("setup_s", quantile(&setups, 0.5), "s"));
        m.push(Metric::new("plan_ms", front.plan_ms, "ms"));
        m.push(Metric::new("node_boot_us", front.node_boot_us(), "us"));
        m.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        m.push(Metric::new(
            "failed_share",
            detail.failed as f64 / detail.attempted.max(1) as f64,
            "share",
        ));
    }
    detail.check(
        "programs_plan_and_boot",
        detail.failed == 0,
        format!(
            "{} plan and boot calls, {} refused",
            detail.attempted, detail.failed
        ),
    );
    detail
}

/// Runs workload `w` in this process.
pub fn run(w: &Workload, opts: &Options) -> Detail {
    let nodes = if opts.smoke { w.smoke_nodes } else { w.nodes };
    let seed = opts.seed;
    match (w.kind, opts.trace) {
        (Kind::PlanBoot, _) => plan_boot(w, opts, nodes),
        (Kind::NaradaMesh, false) => untraced(
            w,
            opts,
            nodes,
            Overlay::Narada,
            || {
                let mut mesh: Mesh<P2Host> =
                    Mesh::boot(nodes, MESH_WARMUP_S, seed, &Recorder::new());
                settle(&mut mesh, MESH_SETTLE_S);
                mesh
            },
            |_| {
                Box::new(Steady {
                    window_us: w.window_us,
                })
            },
        ),
        (Kind::NaradaMesh, true) => {
            let rec = Recorder::new();
            let mut mesh: Mesh<Timed<P2Host>> = Mesh::boot(nodes, MESH_WARMUP_S, seed, &rec);
            settle(&mut mesh, MESH_SETTLE_S);
            traced(
                w,
                opts,
                Overlay::Narada,
                &rec,
                mesh,
                Mesh::enable_obs,
                |_| {
                    Box::new(Steady {
                        window_us: w.window_us,
                    })
                },
            )
        }
        (_, false) => untraced(
            w,
            opts,
            nodes,
            Overlay::Chord,
            || {
                let mut cluster = ChordCluster::builder(nodes, seed).build_fast(0);
                settle(&mut cluster, CHORD_SETTLE_S);
                cluster
            },
            chord_scenario(w, seed),
        ),
        (_, true) => {
            let rec = Recorder::new();
            let mut ring = BenchRing::boot(nodes, 0, seed, rec.clone());
            settle(&mut ring, CHORD_SETTLE_S);
            traced(
                w,
                opts,
                Overlay::Chord,
                &rec,
                ring,
                BenchRing::enable_obs,
                chord_scenario(w, seed),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::workload;

    fn smoke(trace: bool, seed: u64) -> Options {
        Options {
            seed,
            seconds: None,
            trace,
            smoke: true,
        }
    }

    #[test]
    fn same_seed_repeats_simulated_metrics_and_another_seed_does_not() {
        let w = workload("chord_lookups_100").unwrap();
        let a = run(w, &smoke(false, 5));
        let b = run(w, &smoke(false, 5));
        let c = run(w, &smoke(false, 6));
        assert!(a.correct(), "{:?}", a.checks);
        for name in [
            "maint_bytes_per_node_vs",
            "lookup_latency_p50_vs",
            "mean_hops",
            "ring_correctness",
            "failed_share",
        ] {
            let (x, y) = (a.metric(name).unwrap().value, b.metric(name).unwrap().value);
            assert_eq!(x.to_bits(), y.to_bits(), "{name} differs on the same seed");
        }
        // Another seed draws other keys and origins, so latencies differ.
        assert_ne!(
            a.metric("lookup_latency_p50_vs").unwrap().value.to_bits(),
            c.metric("lookup_latency_p50_vs").unwrap().value.to_bits()
        );
    }

    #[test]
    fn timed_hosts_conserve_time_and_calls() {
        let rec = Recorder::new();
        let mut ring = BenchRing::boot(16, 0, 9, rec.clone());
        settle(&mut ring, CHORD_SETTLE_S);
        assert!(ring.structure_ok());
        rec.enable(true);
        let before = ring.counters();
        let mut steady = Steady {
            window_us: 5_000_000,
        };
        let mut tally = crate::workloads::Tally::default();
        for _ in 0..3 {
            Scenario::<BenchRing>::window(&mut steady, &mut ring, &rec, &mut tally);
        }
        rec.enable(false);
        let grown = ring.counters().since(&before);
        let recorded = rec.take();
        assert_eq!(recorded.windows, 3);
        assert!(recorded.host_ns() <= recorded.window_ns);
        // Every wakeup is one `advance_to`, every other event one delivery,
        // and the simulator asks for the next deadline after each.
        assert_eq!(recorded.call(Call::AdvanceTo).calls, grown.wakeups);
        assert_eq!(
            recorded.call(Call::Deliver).calls + recorded.call(Call::DeliverMany).calls,
            grown.events - grown.wakeups
        );
        assert_eq!(recorded.call(Call::NextDeadline).calls, grown.events);
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn traced_run_emits_every_per_layer_metric_and_conserves_time() {
        let w = workload("chord_steady_100").unwrap();
        let d = run(w, &smoke(true, 5));
        assert!(d.correct(), "{:?}", d.checks);
        assert_eq!(d.metrics.len(), PER_LAYER.len());
        for (name, _, _) in PER_LAYER {
            assert!(d.metric(name).is_some(), "{name} missing");
        }
        let share = |name: &str| d.metric(name).unwrap().value;
        let host = share("host.deliver_share")
            + share("host.advance_share")
            + share("host.next_deadline_share");
        assert!(host > 0.0 && host <= 1.0, "host share {host}");
        assert!(share("obs.overhead_ratio") > 0.0);
        assert!(share("baseline.us_per_event") > 0.0);
    }
}
