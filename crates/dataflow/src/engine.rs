//! The per-node dataflow engine: graph construction, compilation, work
//! queue, and timers.
//!
//! # Architecture: build-time graph, compiled run-time form
//!
//! A [`Graph`] is the *construction* representation: elements plus the
//! list of edges in `connect` order, convenient to assemble incrementally.
//! [`Routing::compile`] turns element names, edges and level delays into a
//! dense adjacency table — a flat slice of [`Route`]s with one contiguous
//! span per `(element, output port)` slot, addressed by
//! `port_base[element] + port`. Routing an emission is then two array loads
//! and a slice walk. The compiled form is semantically identical to the
//! edge list (see [`Engine::routes_of`], which the property tests compare
//! against [`Graph::connect`] semantics). [`Engine::new`] compiles a graph
//! and hands the result to [`Engine::with_routing`], the one constructor.
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
//! # Level delays
//!
//! The FIFO work queue processes emissions in breadth-first level order,
//! and the simulator puts a node's sends on its access link in the order
//! the node emits them — so the *relative order* of sends produced by
//! different rule strands triggered by the same tuple is observable. A
//! rule strand (`elements::FusedStrand`) runs its `k` steps — trigger
//! checks, probes, anti-joins, assignments, conditions, an aggregation,
//! the head — in one call at level 1. The golden event stream was pinned
//! when each step was an element of its own and the head surfaced at
//! level `k`; emitted at level 1, the strand's sends would move against
//! longer or shorter sibling strands.
//!
//! An output slot may therefore carry a **level delay**
//! ([`Graph::set_delay`], compiled into `slot_delay` beside the route
//! spans). Every queue entry carries a remaining-level count, set from its
//! slot's delay when the emission is routed; [`Engine`]'s drain loop moves
//! an entry whose count is above zero to the back of the queue with one
//! level fewer, without calling any element, cloning any tuple or counting
//! a handoff. Each such move lands the entry exactly where a forwarding
//! element would have pushed its output, so after `k − 1` moves the head
//! tuple reaches its consumer at level `k`, which keeps the 100-node golden
//! pins bit-identical. A slot with several routes enqueues them side by
//! side and nothing runs between their re-queues, so a fan-out stays
//! contiguous, as a forwarder's single emission would have kept it. Dead
//! tuples (filtered out inside a strand) are never enqueued at all.
//!
//! # Per-node engines over a shared plan
//!
//! An engine runs one node, but nothing in its [`Routing`] depends on the
//! node: it is immutable and shared (`Arc`) by every engine built over it.
//! `p2_core::PlannedProgram` compiles an OverLog program once — its
//! routing table and every rule strand's body
//! (`elements::StrandBody`) included — and stamps out each node's engine
//! with [`Engine::with_routing`]. A node's engine then holds only what is
//! its own: element state (tables, strand scratch, periodic phases), the
//! work queue, the timer heap, the RNG and the counters.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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
    /// `(from, out_port, to)` in `connect` order.
    edges: Vec<(usize, usize, Route)>,
    /// `(from, out_port, levels)` in `set_delay` order; see *Level delays*.
    delays: Vec<(usize, usize, u32)>,
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
        let route = Route {
            element: to,
            port: in_port,
        };
        self.edges.push((from, out_port, route));
    }

    /// Holds every tuple emitted on `from`'s output port `out_port` back by
    /// `levels` breadth-first levels before its routes receive it (see the
    /// module-level *Level delays* section). A later call for the same port
    /// replaces an earlier one.
    pub fn set_delay(&mut self, from: usize, out_port: usize, levels: u32) {
        self.delays.push((from, out_port, levels));
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
        let routing = Routing::compile(self.names.clone(), &self.edges, &self.delays);
        routing.describe(|e| self.elements[e].class())
    }
}

/// The compiled, node-independent wiring of a dataflow graph: element
/// names, the dense adjacency table and the per-slot level delays (see the
/// module docs). [`Routing::compile`] builds it once per graph shape, and
/// every engine running that shape shares it through an `Arc`.
#[derive(Debug)]
pub struct Routing {
    names: Box<[Arc<str>]>,
    /// `port_base[e]` is the flat slot index of element `e`'s output port 0;
    /// `port_base[e + 1] - port_base[e]` is the number of connected output
    /// ports recorded for `e`. One trailing entry marks the total.
    port_base: Box<[usize]>,
    /// Per-slot `(start, end)` span into `routes`.
    route_spans: Box<[(u32, u32)]>,
    /// Per-slot level delay, parallel to `route_spans`.
    slot_delay: Box<[u32]>,
    /// All routes, concatenated in slot order; connect-call order is
    /// preserved within a slot.
    routes: Box<[Route]>,
}

impl Routing {
    /// Compiles the edges `(from, out_port, to)` of a graph whose elements
    /// are `names` into the dense adjacency table. `delays` holds
    /// `(from, out_port, levels)` level delays; the last one given for a
    /// slot wins, and one on a slot without routes is dropped.
    pub fn compile(
        names: Vec<Arc<str>>,
        edges: &[(usize, usize, Route)],
        delays: &[(usize, usize, u32)],
    ) -> Routing {
        // Output-port count per element (highest connected port + 1).
        let mut port_counts = vec![0usize; names.len()];
        for &(e, p, _) in edges {
            port_counts[e] = port_counts[e].max(p + 1);
        }
        let mut port_base = Vec::with_capacity(names.len() + 1);
        let mut total = 0usize;
        for &c in &port_counts {
            port_base.push(total);
            total += c;
        }
        port_base.push(total);

        // Lay the routes out contiguously in (element, port) order; the
        // sort is stable, so the per-slot route order is exactly the
        // `connect` call order.
        let mut sorted: Vec<&(usize, usize, Route)> = edges.iter().collect();
        sorted.sort_by_key(|&&(e, p, _)| (e, p));
        let mut route_spans = vec![(0u32, 0u32); total];
        let mut routes = Vec::with_capacity(edges.len());
        for &&(e, p, route) in &sorted {
            let span = &mut route_spans[port_base[e] + p];
            if span.1 == 0 {
                span.0 = routes.len() as u32;
            }
            routes.push(route);
            span.1 = routes.len() as u32;
        }
        let mut slot_delay = vec![0u32; total];
        for &(e, p, levels) in delays {
            let slot = port_base[e] + p;
            if p < port_counts[e] && route_spans[slot].1 > 0 {
                slot_delay[slot] = levels;
            }
        }
        Routing {
            names: names.into(),
            port_base: port_base.into(),
            route_spans: route_spans.into(),
            slot_delay: slot_delay.into(),
            routes: routes.into(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of element `element`.
    pub fn name(&self, element: usize) -> &Arc<str> {
        &self.names[element]
    }

    /// Number of routes (edges) over all slots.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The compiled routes out of `(element, out_port)`, in `connect` order.
    /// Empty for unconnected ports — the compiled equivalent of a missing
    /// edge (tuples emitted there are discarded).
    pub fn routes_of(&self, element: usize, out_port: usize) -> &[Route] {
        match self.slot(element, out_port) {
            Some(slot) => {
                let (start, end) = self.route_spans[slot];
                &self.routes[start as usize..end as usize]
            }
            None => &[],
        }
    }

    /// The compiled level delay of `(element, out_port)` (0 when none, or
    /// when the slot has no routes).
    pub fn delay_of(&self, element: usize, out_port: usize) -> u32 {
        self.slot(element, out_port)
            .map_or(0, |slot| self.slot_delay[slot])
    }

    /// The flat slot index of a connected `(element, out_port)`.
    fn slot(&self, element: usize, out_port: usize) -> Option<usize> {
        if element >= self.names.len() {
            return None;
        }
        let base = self.port_base[element];
        (out_port < self.port_base[element + 1] - base).then_some(base + out_port)
    }

    /// Describes the graph, one line per element (`class` names its class)
    /// and one per route in slot order; a delayed slot reads `+N levels`.
    fn describe(&self, class: impl Fn(usize) -> &'static str) -> String {
        let mut out = String::new();
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("[{i}] {name} ({})\n", class(i)));
        }
        for e in 0..self.names.len() {
            for p in 0..self.port_base[e + 1] - self.port_base[e] {
                let delay = self.delay_of(e, p);
                for r in self.routes_of(e, p) {
                    out.push_str(&format!("  {e}:{p} -> {}:{}", r.element, r.port));
                    if delay > 0 {
                        out.push_str(&format!(" +{delay} levels"));
                    }
                    out.push('\n');
                }
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
    /// PEL evaluations that raised an error, summed over every element
    /// ([`ElementCtx::note_eval_error`]); 0 in a clean run.
    pub eval_errors: u64,
}

/// One pending delivery in the work queue.
struct Pending {
    route: Route,
    tuple: Tuple,
    /// Breadth-first levels left to wait before `route` receives `tuple`.
    delay: u32,
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
/// The engine owns the node's elements, a FIFO work queue of pending
/// `(route, tuple)` deliveries, and a timer heap, and shares the compiled
/// [`Routing`] with every engine of the same plan. External drivers (the
/// network simulator or a unit test) interact with it through four calls:
/// [`Engine::start`], [`Engine::deliver`] / [`Engine::deliver_many`], and
/// [`Engine::advance_to`]; each returns the tuples the node wants
/// transmitted.
pub struct Engine {
    elements: Vec<Box<dyn Element>>,
    routing: Arc<Routing>,
    entry: Option<Route>,
    queue: VecDeque<Pending>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    eval: EvalContext,
    now: SimTime,
    stats: EngineStats,
    started: bool,
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
    /// compiling the graph's edges into the dense adjacency table.
    pub fn new(graph: Graph, local_addr: impl Into<Arc<str>>, seed: u64) -> Engine {
        let Graph {
            elements,
            names,
            edges,
            delays,
        } = graph;
        let routing = Routing::compile(names, &edges, &delays);
        Engine::with_routing(Arc::new(routing), elements, local_addr, seed)
    }

    /// Creates an engine running `elements` (element `i` of `routing` is
    /// `elements[i]`) over a shared, already compiled routing table.
    pub fn with_routing(
        routing: Arc<Routing>,
        elements: Vec<Box<dyn Element>>,
        local_addr: impl Into<Arc<str>>,
        seed: u64,
    ) -> Engine {
        assert_eq!(
            elements.len(),
            routing.len(),
            "the routing table describes a graph of another size"
        );
        Engine {
            elements,
            routing,
            entry: None,
            queue: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            eval: EvalContext::new(local_addr, seed),
            now: SimTime::ZERO,
            stats: EngineStats::default(),
            started: false,
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

    /// The compiled routing table, shared with every engine built over it.
    pub fn routing(&self) -> &Arc<Routing> {
        &self.routing
    }

    /// Element `element` of the graph.
    pub fn element(&self, element: usize) -> &dyn Element {
        &*self.elements[element]
    }

    /// The compiled routes out of `(element, out_port)`; see
    /// [`Routing::routes_of`].
    pub fn routes_of(&self, element: usize, out_port: usize) -> &[Route] {
        self.routing.routes_of(element, out_port)
    }

    /// The compiled level delay of `(element, out_port)`; see
    /// [`Routing::delay_of`].
    pub fn delay_of(&self, element: usize, out_port: usize) -> u32 {
        self.routing.delay_of(element, out_port)
    }

    /// Human-readable description of the compiled graph (element classes and
    /// edges), identical in format to [`Graph::describe`].
    pub fn describe(&self) -> String {
        self.routing.describe(|e| self.elements[e].class())
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
                self.stats.eval_errors += ctx.eval_errors();
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
        self.queue.push_back(Pending {
            route: entry,
            tuple,
            delay: 0,
        });
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
            self.queue.push_back(Pending {
                route: entry,
                tuple,
                delay: 0,
            });
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
                self.stats.eval_errors += ctx.eval_errors();
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
        let routing = &*self.routing;
        let base = routing.port_base[idx];
        let nports = routing.port_base[idx + 1] - base;
        for (port, tuple) in self.scratch_emissions.drain(..) {
            // Emissions on unconnected ports are silently dropped, like
            // Click's Discard element.
            if port >= nports {
                continue;
            }
            let slot = base + port;
            let (start, end) = routing.route_spans[slot];
            let delay = routing.slot_delay[slot];
            if let Some((last, rest)) = routing.routes[start as usize..end as usize].split_last() {
                for &route in rest {
                    self.queue.push_back(Pending {
                        route,
                        tuple: tuple.clone(),
                        delay,
                    });
                }
                self.queue.push_back(Pending {
                    route: *last,
                    tuple,
                    delay,
                });
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
        while let Some(Pending {
            route,
            tuple,
            delay,
        }) = self.queue.pop_front()
        {
            if delay > 0 {
                // One level later: where a forwarding element would have
                // pushed it (see *Level delays*).
                self.queue.push_back(Pending {
                    route,
                    tuple,
                    delay: delay - 1,
                });
                continue;
            }
            let idx = route.element;
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
                self.stats.eval_errors += ctx.eval_errors();
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

    /// Logs each tuple it receives, then emits `copies` tagged copies of it
    /// on port 0 and, with a `dst`, sends it there.
    struct Logged {
        name: &'static str,
        log: Arc<std::sync::Mutex<Vec<String>>>,
        copies: i64,
        dst: Option<&'static str>,
    }

    impl Element for Logged {
        fn class(&self) -> &'static str {
            "Logged"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            self.log
                .lock()
                .unwrap()
                .push(format!("{} {tuple}", self.name));
            for i in 0..self.copies {
                ctx.emit(0, tuple.extended(vec![Value::Int(i)]));
            }
            if let Some(dst) = self.dst {
                ctx.send(dst, tuple.clone());
            }
        }
    }

    /// Re-emits every tuple unchanged: the explicit form of one level of
    /// delay.
    struct Forward;

    impl Element for Forward {
        fn class(&self) -> &'static str {
            "Forward"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            ctx.emit(0, tuple.clone());
        }
    }

    /// How the graph of `delay_matches_forwarder_chains` holds a slot back.
    #[derive(Clone, Copy, PartialEq)]
    enum Hold {
        Forwarders,
        Delay,
        Nothing,
    }

    /// `split` fans out to two sibling strands: `a` emits two tuples whose
    /// slot reaches `x` and `y` two levels late, `b` emits two whose slot
    /// reaches `z` one level late. Returns the invocation log, the sends
    /// and the handoff count of one delivery.
    fn run_held(hold: Hold) -> (Vec<String>, Vec<Outgoing>, u64, String) {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let logged = |name, copies, dst| -> Box<dyn Element> {
            Box::new(Logged {
                name,
                log: log.clone(),
                copies,
                dst,
            })
        };
        let mut g = Graph::new();
        let split = g.add("split", logged("split", 1, None));
        let a = g.add("a", logged("a", 2, None));
        let b = g.add("b", logged("b", 2, None));
        let x = g.add("x", logged("x", 0, Some("nx")));
        let y = g.add("y", logged("y", 0, Some("ny")));
        let z = g.add("z", logged("z", 0, Some("nz")));
        g.connect(split, 0, a, 0);
        g.connect(split, 0, b, 0);
        let held = |g: &mut Graph, from: usize, levels: u32| match hold {
            Hold::Forwarders => (0..levels).fold(from, |prev, i| {
                let f = g.add(format!("fwd{from}.{i}"), Box::new(Forward));
                g.connect(prev, 0, f, 0);
                f
            }),
            Hold::Delay => {
                g.set_delay(from, 0, levels);
                from
            }
            Hold::Nothing => from,
        };
        let a_out = held(&mut g, a, 2);
        g.connect(a_out, 0, x, 0);
        g.connect(a_out, 0, y, 0);
        let b_out = held(&mut g, b, 1);
        g.connect(b_out, 0, z, 0);
        let described = g.describe();

        let mut engine = Engine::new(g, "n1", 1);
        assert_eq!(engine.describe(), described);
        engine.set_entry(Route {
            element: split,
            port: 0,
        });
        let out = engine.deliver(TupleBuilder::new("t").build(), SimTime::ZERO);
        let invocations = log.lock().unwrap().clone();
        (invocations, out, engine.stats().handoffs, described)
    }

    #[test]
    fn delay_matches_forwarder_chains() {
        let (fwd_log, fwd_out, fwd_handoffs, _) = run_held(Hold::Forwarders);
        let (log, out, handoffs, described) = run_held(Hold::Delay);
        assert_eq!(log, fwd_log);
        assert_eq!(out, fwd_out);
        // `b`'s sends come first: it is one level shallower than `a`, and
        // each of `a`'s tuples reaches `x` and `y` back to back.
        let dsts: Vec<&str> = out.iter().map(|o| &*o.dst).collect();
        assert_eq!(dsts, ["nz", "nz", "nx", "ny", "nx", "ny"]);
        // The six forwarder calls (two tuples × three levels) are gone.
        assert_eq!(handoffs + 6, fwd_handoffs);
        assert!(described.contains("  1:0 -> 3:0 +2 levels\n  1:0 -> 4:0 +2 levels\n"));
        assert!(described.contains("  2:0 -> 5:0 +1 levels\n"));

        // Without the hold `a`'s sends overtake `b`'s: the check above is
        // not vacuous.
        let (_, undelayed, _, _) = run_held(Hold::Nothing);
        assert_ne!(undelayed, out);
    }
}
