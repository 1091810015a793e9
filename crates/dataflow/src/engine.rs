//! The per-node dataflow engine: graph construction, compilation, work
//! queue, and timers.
//!
//! # Architecture: build-time graph, compiled run-time form
//!
//! A [`Graph`] is the *construction* representation: elements plus a
//! `HashMap` of edges, convenient for the planner to assemble incrementally.
//! [`Engine::new`] consumes the graph and compiles the edges into a dense
//! adjacency table — a flat `Vec<Route>` with one contiguous span per
//! `(element, output port)` slot, addressed by `port_base[element] + port`.
//! Routing an emission is then two array loads and a slice walk; the
//! per-emission `HashMap` probe of the original engine is gone. The
//! compiled form is semantically identical to the edge map (see
//! [`Engine::routes_of`], which the property tests compare against
//! [`Graph::connect`] semantics).
//!
//! # Hot-path allocation discipline
//!
//! Element calls hand their effects to the engine through two scratch
//! buffers (`scratch_emissions`, `scratch_timers`) owned by the engine and
//! reused across every `push`/`on_timer`/`on_start` invocation, so the
//! steady-state cost of an element call allocates nothing beyond the tuples
//! it creates. Tuple fan-out across a multi-route port clones the
//! (`Arc`-backed, cheap) tuple for all but the last route, which takes the
//! original. Network sends carry `Arc<str>` destinations (see
//! [`Outgoing`]), so handing a tuple to the simulator does not allocate
//! either.
//!
//! # Batched delivery
//!
//! External drivers that have several tuples for the same node at the same
//! virtual instant use [`Engine::deliver_many`]: the batch is enqueued as a
//! whole and drained in one run-to-completion pass, amortizing the
//! per-delivery bookkeeping (one outgoing buffer, one queue drain) across
//! the batch.
//!
//! # Delta-driven scheduling
//!
//! When scheduling is enabled ([`Engine::set_scheduling`], wired from
//! `PlanConfig::delta_schedule` by the planner), the engine consults
//! [`Element::would_wake`] just before invoking an element; a `false`
//! answer is the element's proof that the invocation would produce zero
//! emissions, sends and state change, and the call is skipped. Guards run
//! at invocation time (not enqueue time) because they read element state,
//! which other queued work may change in between. Guards never evaluate
//! RNG-bearing programs, so the node's deterministic RNG stream is
//! untouched and sharded runs stay bit-identical.
//!
//! Skipped calls are counted ([`EngineStats::suppressed_guard_pokes`] and
//! the profiler's per-element suppressed counter) so the wasted-poke audit
//! distinguishes "never ran" from "ran and wasted". With scheduling off
//! (the default for raw engines) every tuple is delivered.
//!
//! The engine is instantiated per node, but the *plan* it executes can be
//! shared: see `p2_core::PlannedProgram`, which compiles an OverLog program
//! once into element specs plus this module's edge list, and stamps out
//! per-node engines cheaply.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use p2_obs::{NodeObs, ObsMeta, TraceEvent};
use p2_pel::EvalContext;
use p2_value::{SimTime, Tuple, Value};

use crate::element::{Element, ElementCtx, Outgoing};

/// An input port of an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    /// Element index in the graph.
    pub element: usize,
    /// Input port number on that element.
    pub port: usize,
}

/// A dataflow graph under construction: elements plus directed edges from
/// output ports to input ports.
///
/// An output port may be connected to several input ports; the engine
/// duplicates tuples across them (the explicit `Dup` element of the paper's
/// Figure 2 is folded into the edge representation).
#[derive(Default)]
pub struct Graph {
    elements: Vec<Box<dyn Element>>,
    names: Vec<Arc<str>>,
    edges: HashMap<(usize, usize), Vec<Route>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Adds an element, returning its index.
    pub fn add(&mut self, name: impl Into<Arc<str>>, element: Box<dyn Element>) -> usize {
        self.elements.push(element);
        self.names.push(name.into());
        self.elements.len() - 1
    }

    /// Connects `from`'s output port `out_port` to `to`'s input port `in_port`.
    pub fn connect(&mut self, from: usize, out_port: usize, to: usize, in_port: usize) {
        self.edges.entry((from, out_port)).or_default().push(Route {
            element: to,
            port: in_port,
        });
    }

    /// Number of elements in the graph.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Human-readable description of the graph (element classes and edges),
    /// used by the examples and for debugging planner output.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.elements.iter().enumerate() {
            out.push_str(&format!("[{i}] {} ({})\n", self.names[i], e.class()));
        }
        let mut edges: Vec<(&(usize, usize), &Vec<Route>)> = self.edges.iter().collect();
        edges.sort_by_key(|(k, _)| **k);
        for ((from, port), routes) in edges {
            for r in routes {
                out.push_str(&format!("  {from}:{port} -> {}:{}\n", r.element, r.port));
            }
        }
        out
    }
}

/// Counters describing engine activity (used by benchmarks and experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Tuples pushed into element input ports.
    pub handoffs: u64,
    /// Tuples injected from outside (network arrivals, application events)
    /// that actually entered the graph.
    pub injected: u64,
    /// Tuples delivered while no entry port was configured; they never
    /// entered the graph and are *not* counted in `injected`.
    pub dropped_no_entry: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Tuples handed to the network.
    pub sent: u64,
    /// Pokes skipped at invocation time by a [`Element::would_wake`]
    /// guard proving the call a no-op. Zero with scheduling off.
    pub suppressed_guard_pokes: u64,
}

#[derive(Debug, PartialEq, Eq)]
struct TimerEntry {
    fire_at: SimTime,
    seq: u64,
    element: usize,
    token: u64,
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.fire_at, self.seq).cmp(&(other.fire_at, other.seq))
    }
}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The per-node execution engine.
///
/// The engine owns the compiled dataflow graph, a FIFO work queue of pending
/// `(route, tuple)` deliveries, and a timer heap. External drivers (the
/// network simulator or a unit test) interact with it through four calls:
/// [`Engine::start`], [`Engine::deliver`] / [`Engine::deliver_many`], and
/// [`Engine::advance_to`]; each returns the tuples the node wants
/// transmitted.
pub struct Engine {
    elements: Vec<Box<dyn Element>>,
    names: Vec<Arc<str>>,
    /// `port_base[e]` is the flat slot index of element `e`'s output port 0;
    /// `port_base[e + 1] - port_base[e]` is the number of connected output
    /// ports recorded for `e`. One trailing entry marks the total.
    port_base: Vec<usize>,
    /// Per-slot `(start, end)` span into `routes`.
    route_spans: Vec<(u32, u32)>,
    /// All routes, concatenated in slot order; connect-call order is
    /// preserved within a slot.
    routes: Vec<Route>,
    entry: Option<Route>,
    queue: VecDeque<(Route, Tuple)>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    eval: EvalContext,
    now: SimTime,
    stats: EngineStats,
    started: bool,
    /// Whether the `would_wake` guards are consulted. Off by default so
    /// raw engines and unit graphs run every poke; the planner turns it on
    /// from `PlanConfig::delta_schedule`.
    scheduling: bool,
    /// Reused emission buffer: filled by one element call, drained by
    /// `absorb`, never reallocated in steady state.
    scratch_emissions: Vec<(usize, Tuple)>,
    /// Reused timer-request buffer, same lifecycle.
    scratch_timers: Vec<(u64, SimTime)>,
    /// Observability taps (profiler counters + provenance tracing). `None`
    /// by default: the disabled cost is one branch per element invocation,
    /// and enabling it never changes what the engine does — only what it
    /// records.
    obs: Option<Box<NodeObs>>,
}

impl Engine {
    /// Creates an engine for the node with the given address and RNG seed,
    /// compiling the graph's edge map into the dense adjacency table.
    pub fn new(graph: Graph, local_addr: impl Into<String>, seed: u64) -> Engine {
        let Graph {
            elements,
            names,
            edges,
        } = graph;

        // Output-port count per element (highest connected port + 1).
        let mut port_counts = vec![0usize; elements.len()];
        for &(e, p) in edges.keys() {
            port_counts[e] = port_counts[e].max(p + 1);
        }
        let mut port_base = Vec::with_capacity(elements.len() + 1);
        let mut total = 0usize;
        for &c in &port_counts {
            port_base.push(total);
            total += c;
        }
        port_base.push(total);

        // Lay the routes out contiguously in (element, port) order; the
        // per-slot route order is exactly the `connect` call order.
        let mut sorted: Vec<((usize, usize), Vec<Route>)> = edges.into_iter().collect();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        let mut route_spans = vec![(0u32, 0u32); total];
        let mut routes = Vec::new();
        for ((e, p), rs) in sorted {
            let start = routes.len() as u32;
            routes.extend(rs);
            route_spans[port_base[e] + p] = (start, routes.len() as u32);
        }

        Engine {
            elements,
            names,
            port_base,
            route_spans,
            routes,
            entry: None,
            queue: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            eval: EvalContext::new(local_addr.into(), seed),
            now: SimTime::ZERO,
            stats: EngineStats::default(),
            started: false,
            scheduling: false,
            scratch_emissions: Vec::new(),
            scratch_timers: Vec::new(),
            obs: None,
        }
    }

    /// Enables the rule-level profiler using the program's compile-time
    /// element metadata (`meta` must describe this engine's elements; index
    /// `i` of the meta table corresponds to element `i`). Counters start at
    /// zero; tracing stays off until [`Engine::set_trace_tag`].
    pub fn enable_obs(&mut self, meta: Arc<ObsMeta>) {
        debug_assert_eq!(meta.len(), self.elements.len());
        let addr: Arc<str> = Arc::from(self.eval.local_addr_str());
        self.obs = Some(Box::new(NodeObs::new(meta, addr)));
    }

    /// Disables all observability taps, dropping collected state.
    pub fn disable_obs(&mut self) {
        self.obs = None;
    }

    /// The observability state, when enabled.
    pub fn obs(&self) -> Option<&NodeObs> {
        self.obs.as_deref()
    }

    /// Mutable access to the observability state, when enabled.
    pub fn obs_mut(&mut self) -> Option<&mut NodeObs> {
        self.obs.as_deref_mut()
    }

    /// Starts provenance tracing for tuples carrying `tag` in any field
    /// (content-addressed: the tag crosses the network inside the tuple).
    /// Requires [`Engine::enable_obs`] first; returns whether tracing is on.
    pub fn set_trace_tag(&mut self, tag: Value, ring_cap: usize) -> bool {
        match &mut self.obs {
            Some(obs) => {
                obs.set_trace(tag, ring_cap);
                true
            }
            None => false,
        }
    }

    /// Removes and returns buffered trace events (tracing stays enabled).
    pub fn drain_trace(&mut self) -> Vec<TraceEvent> {
        self.obs
            .as_deref_mut()
            .map(NodeObs::drain_trace)
            .unwrap_or_default()
    }

    /// Declares the input port that externally injected tuples (network
    /// arrivals, application requests) are delivered to.
    pub fn set_entry(&mut self, route: Route) {
        self.entry = Some(route);
    }

    /// Turns delta-driven scheduling on or off (see the module-level
    /// *Delta-driven scheduling* section). Off by default.
    pub fn set_scheduling(&mut self, on: bool) {
        self.scheduling = on;
    }

    /// Whether delta-driven scheduling is active.
    pub fn scheduling(&self) -> bool {
        self.scheduling
    }

    /// The node's address.
    pub fn local_addr(&self) -> String {
        self.eval.local_addr_str().to_string()
    }

    /// Current virtual time as seen by the node.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Engine activity counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of elements in the compiled graph.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the compiled graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The compiled routes out of `(element, out_port)`, in `connect` order.
    /// Empty for unconnected ports — the compiled equivalent of a missing
    /// edge-map entry (tuples emitted there are discarded).
    pub fn routes_of(&self, element: usize, out_port: usize) -> &[Route] {
        if element >= self.elements.len() {
            return &[];
        }
        let base = self.port_base[element];
        if out_port >= self.port_base[element + 1] - base {
            return &[];
        }
        let (start, end) = self.route_spans[base + out_port];
        &self.routes[start as usize..end as usize]
    }

    /// Human-readable description of the compiled graph (element classes and
    /// edges), identical in format to [`Graph::describe`].
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.elements.iter().enumerate() {
            out.push_str(&format!("[{i}] {} ({})\n", self.names[i], e.class()));
        }
        for e in 0..self.elements.len() {
            for p in 0..self.port_base[e + 1] - self.port_base[e] {
                for r in self.routes_of(e, p) {
                    out.push_str(&format!("  {e}:{p} -> {}:{}\n", r.element, r.port));
                }
            }
        }
        out
    }

    fn set_now(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
        self.eval.set_now(self.now);
    }

    /// Starts the engine: every element's `on_start` hook runs (emitting
    /// initial facts and scheduling periodic timers) and the resulting
    /// cascade is processed.
    pub fn start(&mut self, now: SimTime) -> Vec<Outgoing> {
        self.set_now(now);
        self.started = true;
        let mut outgoing = Vec::new();
        for idx in 0..self.elements.len() {
            {
                let mut ctx = ElementCtx::new(
                    self.now,
                    self.queue.len(),
                    &mut self.eval,
                    &mut self.scratch_emissions,
                    &mut outgoing,
                    &mut self.scratch_timers,
                );
                self.elements[idx].on_start(&mut ctx);
            }
            self.absorb(idx);
        }
        self.drain(&mut outgoing);
        self.stats.sent += outgoing.len() as u64;
        outgoing
    }

    /// Delivers an externally produced tuple (network arrival or application
    /// event) to the entry port and runs the graph to completion.
    ///
    /// With no entry port configured the tuple is dropped and counted in
    /// [`EngineStats::dropped_no_entry`]; it is not counted as injected and
    /// does not advance the node's clock.
    pub fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Outgoing> {
        let Some(entry) = self.entry else {
            self.stats.dropped_no_entry += 1;
            return Vec::new();
        };
        self.set_now(now);
        self.stats.injected += 1;
        if let Some(obs) = &mut self.obs {
            if obs.tagged(&tuple) {
                obs.trace_recv(self.now, &tuple);
            }
        }
        let mut outgoing = Vec::new();
        self.queue.push_back((entry, tuple));
        self.drain(&mut outgoing);
        self.stats.sent += outgoing.len() as u64;
        outgoing
    }

    /// Delivers a batch of external tuples at the same virtual instant: the
    /// whole batch is enqueued at the entry port, then the graph runs to
    /// completion once. Equivalent to the tuples arriving back-to-back, but
    /// with the per-delivery bookkeeping (outgoing buffer, queue drain)
    /// amortized across the batch.
    pub fn deliver_many(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
        now: SimTime,
    ) -> Vec<Outgoing> {
        let Some(entry) = self.entry else {
            self.stats.dropped_no_entry += tuples.into_iter().count() as u64;
            return Vec::new();
        };
        self.set_now(now);
        let mut outgoing = Vec::new();
        let before = self.queue.len();
        for tuple in tuples {
            if let Some(obs) = &mut self.obs {
                if obs.tagged(&tuple) {
                    obs.trace_recv(self.now, &tuple);
                }
            }
            self.queue.push_back((entry, tuple));
        }
        self.stats.injected += (self.queue.len() - before) as u64;
        self.drain(&mut outgoing);
        self.stats.sent += outgoing.len() as u64;
        outgoing
    }

    /// The next time at which a timer wants to fire, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.timers.peek().map(|Reverse(t)| t.fire_at)
    }

    /// Advances virtual time to `now`, firing every timer due at or before
    /// it and processing the resulting cascades.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<Outgoing> {
        let mut outgoing = Vec::new();
        loop {
            let due = matches!(self.timers.peek(), Some(Reverse(t)) if t.fire_at <= now);
            if !due {
                break;
            }
            let Reverse(entry) = self.timers.pop().expect("peeked");
            self.set_now(entry.fire_at);
            self.stats.timers_fired += 1;
            let idx = entry.element;
            let sends_before = outgoing.len();
            let state_changed;
            {
                let mut ctx = ElementCtx::new(
                    self.now,
                    self.queue.len(),
                    &mut self.eval,
                    &mut self.scratch_emissions,
                    &mut outgoing,
                    &mut self.scratch_timers,
                );
                self.elements[idx].on_timer(entry.token, &mut ctx);
                state_changed = ctx.state_changed();
            }
            if self.obs.is_some() {
                self.record_obs_timer(idx, state_changed, sends_before, &outgoing);
            }
            self.absorb(idx);
            self.drain(&mut outgoing);
        }
        self.set_now(now);
        self.stats.sent += outgoing.len() as u64;
        outgoing
    }

    /// Routes the scratch-buffered emissions from element `idx` into the
    /// work queue (via the compiled adjacency table) and registers requested
    /// timers. Leaves both scratch buffers empty with capacity retained.
    fn absorb(&mut self, idx: usize) {
        let base = self.port_base[idx];
        let nports = self.port_base[idx + 1] - base;
        for (port, tuple) in self.scratch_emissions.drain(..) {
            // Emissions on unconnected ports are silently dropped, like
            // Click's Discard element.
            if port >= nports {
                continue;
            }
            let (start, end) = self.route_spans[base + port];
            if let Some((last, rest)) = self.routes[start as usize..end as usize].split_last() {
                for r in rest {
                    self.queue.push_back((*r, tuple.clone()));
                }
                self.queue.push_back((*last, tuple));
            }
        }
        for (token, fire_at) in self.scratch_timers.drain(..) {
            self.timer_seq += 1;
            self.timers.push(Reverse(TimerEntry {
                fire_at,
                seq: self.timer_seq,
                element: idx,
                token,
            }));
        }
    }

    /// Processes the work queue until empty (run to completion).
    fn drain(&mut self, outgoing: &mut Vec<Outgoing>) {
        while let Some((route, tuple)) = self.queue.pop_front() {
            let idx = route.element;
            if self.scheduling && !self.elements[idx].would_wake(route.port, &tuple, &mut self.eval)
            {
                // Dynamic suppression: the element proved this invocation
                // a no-op (no emission, send, or state change possible).
                self.stats.suppressed_guard_pokes += 1;
                if let Some(obs) = &mut self.obs {
                    obs.record_suppressed(idx);
                }
                continue;
            }
            self.stats.handoffs += 1;
            let sends_before = outgoing.len();
            let state_changed;
            {
                let mut ctx = ElementCtx::new(
                    self.now,
                    self.queue.len(),
                    &mut self.eval,
                    &mut self.scratch_emissions,
                    outgoing,
                    &mut self.scratch_timers,
                );
                self.elements[idx].push(route.port, &tuple, &mut ctx);
                state_changed = ctx.state_changed();
            }
            if self.obs.is_some() {
                self.record_obs_push(idx, &tuple, state_changed, sends_before, outgoing);
            }
            self.absorb(idx);
        }
    }

    /// Observability tap for one element invocation: runs between the
    /// element call and `absorb`, while the invocation's emissions are
    /// still in the scratch buffer and its sends occupy the tail of
    /// `outgoing`. Only called when `self.obs` is `Some`.
    fn record_obs_push(
        &mut self,
        idx: usize,
        tuple: &Tuple,
        state_changed: bool,
        sends_before: usize,
        outgoing: &[Outgoing],
    ) {
        let obs = self.obs.as_deref_mut().expect("obs enabled");
        let emitted = self.scratch_emissions.len() as u64;
        let sent = (outgoing.len() - sends_before) as u64;
        obs.record_push(idx, emitted, sent, state_changed);
        if obs.tracing() {
            if obs.tagged(tuple) {
                obs.trace_fire(
                    self.now,
                    idx,
                    tuple,
                    emitted,
                    self.scratch_emissions.iter().map(|(_, t)| t),
                );
            }
            for o in &outgoing[sends_before..] {
                if obs.tagged(&o.tuple) {
                    obs.trace_send(self.now, &o.dst, &o.tuple);
                }
            }
        }
    }

    /// Observability tap for one timer callback, mirroring
    /// [`Engine::record_obs_push`]. Timer invocations have no input tuple,
    /// so only tagged sends are traced.
    fn record_obs_timer(
        &mut self,
        idx: usize,
        state_changed: bool,
        sends_before: usize,
        outgoing: &[Outgoing],
    ) {
        let obs = self.obs.as_deref_mut().expect("obs enabled");
        let emitted = self.scratch_emissions.len() as u64;
        let sent = (outgoing.len() - sends_before) as u64;
        obs.record_timer(idx, emitted, sent, state_changed);
        if obs.tracing() {
            for o in &outgoing[sends_before..] {
                if obs.tagged(&o.tuple) {
                    obs.trace_send(self.now, &o.dst, &o.tuple);
                }
            }
        }
    }
}

// Compile-time audit: the engine (and therefore every element behind its
// `Box<dyn Element>`s, via the `Element: Send` supertrait) must be `Send`
// so whole nodes can be sharded across the parallel simulator's worker
// threads. Any element gaining `Rc`/`RefCell`-style state breaks this
// assertion instead of breaking multi-core runs at a distance.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Element, ElementCtx};
    use p2_value::{TupleBuilder, Value};

    /// Appends a constant field to every tuple and forwards it on port 0.
    struct Tag(i64);

    impl Element for Tag {
        fn class(&self) -> &'static str {
            "Tag"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            ctx.emit(0, tuple.extended(vec![Value::Int(self.0)]));
        }
    }

    /// Sends every tuple to a fixed remote address.
    struct SendAway;

    impl Element for SendAway {
        fn class(&self) -> &'static str {
            "SendAway"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            ctx.send("n9", tuple.clone());
        }
    }

    /// Emits a `tick` tuple every second, up to a bound.
    struct Ticker {
        remaining: u32,
    }

    impl Element for Ticker {
        fn class(&self) -> &'static str {
            "Ticker"
        }
        fn push(&mut self, _port: usize, _tuple: &Tuple, _ctx: &mut ElementCtx<'_>) {}
        fn on_start(&mut self, ctx: &mut ElementCtx<'_>) {
            ctx.schedule(0, SimTime::from_secs(1));
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut ElementCtx<'_>) {
            ctx.emit(
                0,
                TupleBuilder::new("tick")
                    .push(ctx.now().as_secs_f64())
                    .build(),
            );
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule(0, SimTime::from_secs(1));
            }
        }
    }

    #[test]
    fn pipeline_and_fanout() {
        let mut g = Graph::new();
        let a = g.add("tagA", Box::new(Tag(1)));
        let b = g.add("tagB", Box::new(Tag(2)));
        let c = g.add("send", Box::new(SendAway));
        // a fans out to b and c; b feeds c.
        g.connect(a, 0, b, 0);
        g.connect(a, 0, c, 0);
        g.connect(b, 0, c, 0);
        assert_eq!(g.len(), 3);
        assert!(g.describe().contains("Tag"));

        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: a,
            port: 0,
        });
        engine.start(SimTime::ZERO);
        let out = engine.deliver(
            TupleBuilder::new("x").push(0i64).build(),
            SimTime::from_secs(1),
        );
        // Two tuples reach the network: one via a->c, one via a->b->c.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| &*o.dst == "n9"));
        let arities: Vec<usize> = out.iter().map(|o| o.tuple.arity()).collect();
        assert!(arities.contains(&2) && arities.contains(&3));
        assert_eq!(engine.stats().injected, 1);
        assert!(engine.stats().handoffs >= 3);
    }

    #[test]
    fn compiled_adjacency_matches_connect_calls() {
        let mut g = Graph::new();
        let a = g.add("tagA", Box::new(Tag(1)));
        let b = g.add("tagB", Box::new(Tag(2)));
        let c = g.add("send", Box::new(SendAway));
        g.connect(a, 0, b, 0);
        g.connect(a, 0, c, 0);
        g.connect(b, 2, c, 1); // gap: port 1 of b stays unconnected
        let before = g.describe();

        let engine = Engine::new(g, "n1", 1);
        assert_eq!(
            engine.routes_of(a, 0),
            &[
                Route {
                    element: b,
                    port: 0
                },
                Route {
                    element: c,
                    port: 0
                }
            ]
        );
        assert!(engine.routes_of(b, 0).is_empty());
        assert!(engine.routes_of(b, 1).is_empty());
        assert_eq!(
            engine.routes_of(b, 2),
            &[Route {
                element: c,
                port: 1
            }]
        );
        // Out-of-range queries are empty, not a panic — including the exact
        // element-count boundary (one past the last element).
        assert!(engine.routes_of(c, 0).is_empty());
        assert!(engine.routes_of(engine.len(), 0).is_empty());
        assert!(engine.routes_of(99, 0).is_empty());
        assert!(engine.routes_of(a, 99).is_empty());
        // The compiled description matches the construction-time one.
        assert_eq!(engine.describe(), before);
        assert_eq!(engine.len(), 3);
        assert!(!engine.is_empty());
    }

    #[test]
    fn timers_fire_in_order_and_stop() {
        let mut g = Graph::new();
        let t = g.add("ticker", Box::new(Ticker { remaining: 3 }));
        let s = g.add("send", Box::new(SendAway));
        g.connect(t, 0, s, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.start(SimTime::ZERO);
        assert_eq!(engine.next_deadline(), Some(SimTime::from_secs(1)));

        let out = engine.advance_to(SimTime::from_secs(10));
        assert_eq!(out.len(), 3);
        assert_eq!(engine.next_deadline(), None);
        assert_eq!(engine.stats().timers_fired, 3);
        // The ticks carried their fire times.
        assert_eq!(out[0].tuple.field(0), &Value::Double(1.0));
        assert_eq!(out[2].tuple.field(0), &Value::Double(3.0));
    }

    #[test]
    fn unconnected_ports_drop_tuples() {
        let mut g = Graph::new();
        let a = g.add("tag", Box::new(Tag(1)));
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: a,
            port: 0,
        });
        let out = engine.deliver(TupleBuilder::new("x").build(), SimTime::ZERO);
        assert!(out.is_empty());
    }

    #[test]
    fn deliver_without_entry_counts_drops_not_injections() {
        let g = Graph::new();
        let mut engine = Engine::new(g, "n1", 1);
        let out = engine.deliver(TupleBuilder::new("x").build(), SimTime::from_secs(5));
        assert!(out.is_empty());
        // The drop is counted separately, not as an injection, and the
        // node's clock does not advance for a tuple that never entered.
        assert_eq!(engine.stats().injected, 0);
        assert_eq!(engine.stats().dropped_no_entry, 1);
        assert_eq!(engine.now(), SimTime::ZERO);

        let out = engine.deliver_many(
            vec![
                TupleBuilder::new("y").build(),
                TupleBuilder::new("z").build(),
            ],
            SimTime::from_secs(6),
        );
        assert!(out.is_empty());
        assert_eq!(engine.stats().injected, 0);
        assert_eq!(engine.stats().dropped_no_entry, 3);
    }

    #[test]
    fn deliver_many_matches_sequential_delivery_totals() {
        let build = || {
            let mut g = Graph::new();
            let a = g.add("tag", Box::new(Tag(1)));
            let s = g.add("send", Box::new(SendAway));
            g.connect(a, 0, s, 0);
            let mut engine = Engine::new(g, "n1", 1);
            engine.set_entry(Route {
                element: a,
                port: 0,
            });
            engine.start(SimTime::ZERO);
            engine
        };
        let tuples: Vec<Tuple> = (0..4)
            .map(|i| TupleBuilder::new("x").push(i as i64).build())
            .collect();

        let mut seq = build();
        let mut seq_out = Vec::new();
        for t in tuples.clone() {
            seq_out.extend(seq.deliver(t, SimTime::from_secs(1)));
        }

        let mut batched = build();
        let batch_out = batched.deliver_many(tuples, SimTime::from_secs(1));

        assert_eq!(seq_out, batch_out);
        assert_eq!(seq.stats().injected, 4);
        assert_eq!(batched.stats().injected, 4);
        assert_eq!(seq.stats().sent, batched.stats().sent);
        assert_eq!(seq.stats().handoffs, batched.stats().handoffs);
    }
}
