//! The per-node dataflow engine: graph construction, compilation, work
//! queue, and timers.
//!
//! # Architecture: build-time graph, compiled run-time form
//!
//! A [`Graph`] is the *construction* representation: elements plus a
//! [`Wiring`] — the edges in `connect` order, level delays, heads and
//! predicate dispatches — convenient to assemble incrementally.
//! [`Routing::compile`] turns a wiring into a dense adjacency table — a flat
//! slice of [`Route`]s with one contiguous span per `(element, output
//! port)` slot, addressed by `port_base[element] + port`, followed by one
//! span per dispatch. Routing an emission is then two array loads and a
//! slice walk. The compiled form is semantically identical to the edge list
//! (see [`Engine::routes_of`], which the property tests compare against
//! [`Graph::connect`] semantics). [`Engine::new`] compiles a graph and hands
//! the result to [`Engine::with_routing`], the one constructor.
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
//! [`Outgoing`]), so handing a tuple to the network does not allocate
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
//! # Heads and dispatch
//!
//! In the paper's Figure 2 a rule's head passes through a network-out
//! element, and a tuple addressed to the local node loops back into the
//! node's demultiplexer, which hands it to every rule and table bridge
//! listening for its name. Neither reads a table, so here neither is an
//! element: an output slot may carry a [`Head`] ([`Graph::set_head`]) that
//! the engine runs itself, the way a compiled constraint program calls its
//! occurrence procedures directly.
//!
//! * A *dispatch* ([`Graph::add_dispatch`]) is the list of consumers of one
//!   predicate — in the planner's graphs its table's `Insert`, then the
//!   strands it triggers, in plan order. A local head fans out to its
//!   predicate's dispatch, and so does every tuple [`Engine::deliver`]
//!   hands in once [`Engine::set_dispatch_entry`] is set; a name without a
//!   dispatch is dropped.
//! * [`Head::Located`] reads the destination from a field: a remote tuple
//!   goes to the network, a local one to its dispatch. A missing, empty or
//!   `"null"` destination drops the tuple and counts it in
//!   [`EngineStats::malformed_heads`].
//! * [`Head::Delete`] removes the tuple's match from a table and hands each
//!   removed row to the slot's routes (the table's materialized
//!   aggregates).
//!
//! None of these steps calls an element, so none counts a handoff.
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
//! when each step was an element of its own, the head surfaced at level
//! `k`, a network-out element routed it at level `k + 1` and a local tuple
//! went through the demultiplexer at level `k + 2`; emitted at level 1,
//! the strand's sends would move against longer or shorter sibling
//! strands.
//!
//! An output slot may therefore carry a **level delay**
//! ([`Graph::set_delay`], compiled beside the slot's route span). Every
//! queue entry carries a remaining-level count, set from its slot's delay
//! when the emission is routed; [`Engine`]'s drain loop moves an entry
//! whose count is above zero to the back of the queue with one level
//! fewer, without calling any element, cloning any tuple or counting a
//! handoff. Each such move lands the entry exactly where a forwarding
//! element would have pushed its output, so after `k − 1` moves the head
//! tuple reaches its consumer at level `k`, which keeps the 100-node golden
//! pins bit-identical. A slot with several routes enqueues them side by
//! side and nothing runs between their re-queues, so a fan-out stays
//! contiguous, as a forwarder's single emission would have kept it. Dead
//! tuples (filtered out inside a strand) are never enqueued at all.
//!
//! A head takes the levels of the elements it replaces. A located or
//! delete head waits out the slot's delay as one queue entry and runs
//! where the network-out or delete element ran; a located head's local
//! tuple then fans out to its dispatch one level later, where the
//! demultiplexer would have pushed it, and a delete's removed rows reach
//! their routes at the next level, as the delete element's emissions did.
//! A head without a location went straight to the demultiplexer, so its
//! tuple fans out to its dispatch at once, one level later than the slot's
//! delay. A delivered tuple fans out to its dispatch at once: the queue is
//! empty when a delivery starts, so skipping the demultiplexer's level
//! moves every entry by the same one level.
//!
//! # Per-node engines over a shared plan
//!
//! An engine runs one node, but nothing in its [`Routing`] depends on the
//! node: it is immutable and shared (`Arc`) by every engine built over it.
//! `p2_core::PlannedProgram` compiles an OverLog program once — its
//! routing table and every rule strand's body
//! (`elements::StrandBody`) included — and stamps out each node's engine
//! with [`Engine::with_routing`]. A node's engine then holds only what is
//! its own: its tables, element state (strand scratch, periodic phases),
//! the work queue, the timer heap, the RNG and the counters.
//!
//! The engine owns the node's tables as one slice, indexed by plan table
//! id, and lends it to each element it calls through [`ElementCtx`].
//! Elements and shared strand bodies name tables by id only. A node runs
//! single-threaded to completion, so the tables need no lock: a strand
//! reading a table twice (a self-join) takes two shared borrows of it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use p2_obs::{NodeObs, ObsMeta, TraceEvent};
use p2_pel::EvalContext;
use p2_table::Table;
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

/// How a rule's head tuple leaves its strand's output slot (see the
/// module-level *Heads and dispatch* section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// A head without a location: the tuple fans out to this dispatch.
    Local(usize),
    /// Field `dest_field` names the destination: a remote tuple goes to the
    /// network, a local one fans out to `dispatch`.
    Located { dest_field: usize, dispatch: usize },
    /// A `delete` head: its match in table `table` is removed, and the
    /// removed row goes to the slot's routes.
    Delete { table: usize },
}

/// The wiring of a dataflow graph under construction: element names,
/// edges, level delays, heads and predicate dispatches, each in call order.
/// A [`Graph`] keeps one beside its elements; the planner builds one for
/// its shared plan. [`Routing::compile`] turns it into the run-time form.
#[derive(Debug, Clone, Default)]
pub struct Wiring {
    names: Vec<Arc<str>>,
    /// `(from, out_port, to)` in `connect` order.
    edges: Vec<(usize, usize, Route)>,
    /// `(from, out_port, levels)` in `set_delay` order; see *Level delays*.
    delays: Vec<(usize, usize, u32)>,
    /// `(from, out_port, head)` in `set_head` order.
    heads: Vec<(usize, usize, Head)>,
    /// Predicate name per dispatch id.
    dispatches: Vec<Arc<str>>,
    /// `(dispatch, to)` in `connect_dispatch` order.
    dispatch_edges: Vec<(usize, Route)>,
}

impl Wiring {
    /// Names the next element, returning its index.
    pub fn add(&mut self, name: impl Into<Arc<str>>) -> usize {
        self.names.push(name.into());
        self.names.len() - 1
    }

    /// Connects `from`'s output port `out_port` to `to`'s input port
    /// `in_port`.
    pub fn connect(&mut self, from: usize, out_port: usize, to: usize, in_port: usize) {
        let route = Route {
            element: to,
            port: in_port,
        };
        self.edges.push((from, out_port, route));
    }

    /// Holds every tuple emitted on `from`'s output port `out_port` back by
    /// `levels` breadth-first levels (see the module-level *Level delays*
    /// section). A later call for the same port replaces an earlier one.
    pub fn set_delay(&mut self, from: usize, out_port: usize, levels: u32) {
        self.delays.push((from, out_port, levels));
    }

    /// Makes `from`'s output port `out_port` a head slot: every tuple
    /// emitted there routes itself as `head` says. A [`Head::Delete`]
    /// slot's routes receive the rows it removes; other head slots should
    /// have no routes. A later call for the same port replaces an earlier
    /// one.
    pub fn set_head(&mut self, from: usize, out_port: usize, head: Head) {
        self.heads.push((from, out_port, head));
    }

    /// Declares the dispatch of predicate `name`, returning its id. A name
    /// declared twice keeps its first dispatch for deliveries by name.
    pub fn add_dispatch(&mut self, name: impl Into<Arc<str>>) -> usize {
        self.dispatches.push(name.into());
        self.dispatches.len() - 1
    }

    /// Appends `to`'s input port `in_port` to dispatch `dispatch`'s
    /// consumers.
    pub fn connect_dispatch(&mut self, dispatch: usize, to: usize, in_port: usize) {
        let route = Route {
            element: to,
            port: in_port,
        };
        self.dispatch_edges.push((dispatch, route));
    }
}

/// A dataflow graph under construction: elements plus their [`Wiring`],
/// and the tables its elements name by id.
///
/// An output port may be connected to several input ports; the engine
/// duplicates tuples across them (the explicit `Dup` element of the paper's
/// Figure 2 is folded into the edge representation).
#[derive(Default)]
pub struct Graph {
    elements: Vec<Box<dyn Element>>,
    wiring: Wiring,
    tables: Vec<Table>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Adds an element, returning its index.
    pub fn add(&mut self, name: impl Into<Arc<str>>, element: Box<dyn Element>) -> usize {
        self.elements.push(element);
        self.wiring.add(name)
    }

    /// Adds a table for the elements to name, returning its id.
    pub fn add_table(&mut self, table: Table) -> usize {
        self.tables.push(table);
        self.tables.len() - 1
    }

    /// Connects `from`'s output port `out_port` to `to`'s input port `in_port`.
    pub fn connect(&mut self, from: usize, out_port: usize, to: usize, in_port: usize) {
        self.wiring.connect(from, out_port, to, in_port);
    }

    /// Holds a port's tuples back by `levels` levels; see
    /// [`Wiring::set_delay`].
    pub fn set_delay(&mut self, from: usize, out_port: usize, levels: u32) {
        self.wiring.set_delay(from, out_port, levels);
    }

    /// Makes a port a head slot; see [`Wiring::set_head`].
    pub fn set_head(&mut self, from: usize, out_port: usize, head: Head) {
        self.wiring.set_head(from, out_port, head);
    }

    /// Declares a predicate's dispatch; see [`Wiring::add_dispatch`].
    pub fn add_dispatch(&mut self, name: impl Into<Arc<str>>) -> usize {
        self.wiring.add_dispatch(name)
    }

    /// Adds a consumer to a dispatch; see [`Wiring::connect_dispatch`].
    pub fn connect_dispatch(&mut self, dispatch: usize, to: usize, in_port: usize) {
        self.wiring.connect_dispatch(dispatch, to, in_port);
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
        let routing = Routing::compile(self.wiring.clone());
        routing.describe(|e| self.elements[e].class())
    }
}

/// One compiled output slot (or dispatch): its span of `Routing::routes`,
/// its level delay and its head.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    start: u32,
    end: u32,
    delay: u32,
    head: Option<Head>,
}

/// The compiled, node-independent wiring of a dataflow graph: element
/// names, the dense adjacency table, the per-slot level delays and heads,
/// and the predicate dispatches (see the module docs).
/// [`Routing::compile`] builds it once per graph shape, and every engine
/// running that shape shares it through an `Arc`.
#[derive(Debug)]
pub struct Routing {
    names: Box<[Arc<str>]>,
    /// `port_base[e]` is the flat slot index of element `e`'s output port 0;
    /// `port_base[e + 1] - port_base[e]` is the number of connected output
    /// ports recorded for `e`. One trailing entry marks the total, which is
    /// also the slot index of dispatch 0.
    port_base: Box<[usize]>,
    /// Element slots, then one slot per dispatch.
    slots: Box<[Slot]>,
    /// All routes, concatenated in slot order; connect-call order is
    /// preserved within a slot.
    routes: Box<[Route]>,
    /// Predicate name per dispatch id.
    dispatch_names: Box<[Arc<str>]>,
    /// Dispatch id per predicate name, for deliveries.
    dispatch_ids: HashMap<Arc<str>, usize>,
}

impl Routing {
    /// Compiles a graph's wiring into the dense adjacency table. The last
    /// delay or head given for a slot wins; a delay on a slot with neither
    /// routes nor a head is dropped.
    pub fn compile(wiring: Wiring) -> Routing {
        let Wiring {
            names,
            edges,
            delays,
            heads,
            dispatches,
            dispatch_edges,
        } = wiring;
        // Output-port count per element (highest connected port + 1).
        let mut port_counts = vec![0usize; names.len()];
        let head_ports = heads.iter().map(|&(e, p, _)| (e, p));
        for (e, p) in edges.iter().map(|&(e, p, _)| (e, p)).chain(head_ports) {
            port_counts[e] = port_counts[e].max(p + 1);
        }
        let mut port_base = Vec::with_capacity(names.len() + 1);
        let mut total = 0usize;
        for &c in &port_counts {
            port_base.push(total);
            total += c;
        }
        port_base.push(total);

        // Lay the routes out contiguously in slot order (dispatch slots
        // after every element's); the sort is stable, so the per-slot route
        // order is exactly the `connect` call order.
        let dispatch_routes = dispatch_edges.iter().map(|&(d, r)| (total + d, r));
        let mut sorted: Vec<(usize, Route)> = edges
            .iter()
            .map(|&(e, p, r)| (port_base[e] + p, r))
            .chain(dispatch_routes)
            .collect();
        sorted.sort_by_key(|&(slot, _)| slot);
        let mut slots = vec![Slot::default(); total + dispatches.len()];
        let mut routes = Vec::with_capacity(sorted.len());
        for (slot, route) in sorted {
            let slot = &mut slots[slot];
            if slot.end == 0 {
                slot.start = routes.len() as u32;
            }
            routes.push(route);
            slot.end = routes.len() as u32;
        }
        for (e, p, head) in heads {
            slots[port_base[e] + p].head = Some(head);
        }
        for (e, p, levels) in delays {
            if p < port_counts[e] {
                let slot = &mut slots[port_base[e] + p];
                if slot.end > 0 || slot.head.is_some() {
                    slot.delay = levels;
                }
            }
        }
        let mut dispatch_ids = HashMap::with_capacity(dispatches.len());
        for (d, name) in dispatches.iter().enumerate() {
            dispatch_ids.entry(name.clone()).or_insert(d);
        }
        Routing {
            names: names.into(),
            port_base: port_base.into(),
            slots: slots.into(),
            routes: routes.into(),
            dispatch_names: dispatches.into(),
            dispatch_ids,
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

    /// Number of routes (edges and dispatch consumers) over all slots.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// The compiled routes out of `(element, out_port)`, in `connect` order.
    /// Empty for unconnected ports — the compiled equivalent of a missing
    /// edge (tuples emitted there are discarded).
    pub fn routes_of(&self, element: usize, out_port: usize) -> &[Route] {
        match self.slot(element, out_port) {
            Some(slot) => self.span(slot),
            None => &[],
        }
    }

    /// The compiled level delay of `(element, out_port)` (0 when none, or
    /// when the slot has neither routes nor a head).
    pub fn delay_of(&self, element: usize, out_port: usize) -> u32 {
        self.slot(element, out_port)
            .map_or(0, |slot| self.slots[slot].delay)
    }

    /// The dispatch id of predicate `name`, if it has one.
    pub fn dispatch_of(&self, name: &str) -> Option<usize> {
        self.dispatch_ids.get(name).copied()
    }

    /// The consumers of dispatch `dispatch`, in `connect_dispatch` order
    /// (empty for an unknown id).
    pub fn dispatch_routes(&self, dispatch: usize) -> &[Route] {
        if dispatch < self.dispatch_names.len() {
            self.span(self.port_base[self.names.len()] + dispatch)
        } else {
            &[]
        }
    }

    /// The flat slot index of a connected `(element, out_port)`.
    fn slot(&self, element: usize, out_port: usize) -> Option<usize> {
        if element >= self.names.len() {
            return None;
        }
        let base = self.port_base[element];
        (out_port < self.port_base[element + 1] - base).then_some(base + out_port)
    }

    /// The routes of slot `slot`.
    fn span(&self, slot: usize) -> &[Route] {
        let Slot { start, end, .. } = self.slots[slot];
        &self.routes[start as usize..end as usize]
    }

    /// Describes the graph, one line per element (`class` names its class),
    /// one per route in slot order (a delayed slot reads `+N levels`), one
    /// per head slot (`=>`) and one per dispatch consumer.
    fn describe(&self, class: impl Fn(usize) -> &'static str) -> String {
        let mut out = String::new();
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("[{i}] {name} ({})\n", class(i)));
        }
        let levels = |delay: u32| match delay {
            0 => String::new(),
            n => format!(" +{n} levels"),
        };
        let names = &self.dispatch_names;
        for e in 0..self.names.len() {
            for p in 0..self.port_base[e + 1] - self.port_base[e] {
                let slot = self.slots[self.port_base[e] + p];
                let mut suffix = levels(slot.delay);
                if let Some(head) = slot.head {
                    let head = match head {
                        Head::Local(d) => format!("dispatch {}", names[d]),
                        Head::Located {
                            dest_field,
                            dispatch,
                        } => format!(
                            "send to field {dest_field}, or dispatch {}",
                            names[dispatch]
                        ),
                        Head::Delete { table } => format!("delete from table {table}"),
                    };
                    out.push_str(&format!("  {e}:{p} => {head}{suffix}\n"));
                    suffix = " (removed rows)".to_string();
                }
                for r in self.routes_of(e, p) {
                    out.push_str(&format!("  {e}:{p} -> {}:{}{suffix}\n", r.element, r.port));
                }
            }
        }
        for (d, name) in self.dispatch_names.iter().enumerate() {
            for r in self.dispatch_routes(d) {
                out.push_str(&format!("  dispatch {name} -> {}:{}\n", r.element, r.port));
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
    /// Head tuples dropped as malformed: a [`Head::Located`] tuple whose
    /// destination field is missing, empty or `"null"`, or a
    /// [`Head::Delete`] tuple too short for its table's key. Neither sent
    /// nor dispatched; 0 in a clean run.
    pub malformed_heads: u64,
}

/// Where [`Engine::deliver`] hands external tuples.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// One element's input port.
    Port(Route),
    /// The dispatch of the tuple's name.
    Dispatch,
}

/// What a queue entry does once its level delay has run out.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Pushes the tuple into an element's input port: one handoff.
    Push(Route),
    /// Runs the located or delete head of slot `slot`.
    Head(usize),
}

/// One pending step in the work queue.
struct Pending {
    step: Step,
    tuple: Tuple,
    /// Breadth-first levels left to wait before `step` runs.
    delay: u32,
}

/// Enqueues `tuple` for every route in `routes`, `delay` levels late: a
/// clone for all but the last route, which takes the tuple.
fn fan_out(queue: &mut VecDeque<Pending>, routes: &[Route], tuple: Tuple, delay: u32) {
    if let Some((last, rest)) = routes.split_last() {
        for &route in rest {
            queue.push_back(Pending {
                step: Step::Push(route),
                tuple: tuple.clone(),
                delay,
            });
        }
        queue.push_back(Pending {
            step: Step::Push(*last),
            tuple,
            delay,
        });
    }
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
/// element pushes and head steps, and a timer heap, and shares the compiled
/// [`Routing`] with every engine of the same plan. External drivers (the
/// network simulator or a unit test) interact with it through four calls:
/// [`Engine::start`], [`Engine::deliver`] / [`Engine::deliver_many`], and
/// [`Engine::advance_to`]; each returns the tuples the node wants
/// transmitted.
pub struct Engine {
    elements: Vec<Box<dyn Element>>,
    routing: Arc<Routing>,
    /// The node's tables, indexed by table id.
    tables: Box<[Table]>,
    entry: Option<Entry>,
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
    /// Reused buffer for the rows a delete head removes.
    scratch_removed: Vec<Tuple>,
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
            wiring,
            tables,
        } = graph;
        let routing = Routing::compile(wiring);
        Engine::with_routing(Arc::new(routing), elements, tables, local_addr, seed)
    }

    /// Creates an engine running `elements` (element `i` of `routing` is
    /// `elements[i]`) over a shared, already compiled routing table and
    /// the node's `tables` (table `id` is `tables[id]`).
    pub fn with_routing(
        routing: Arc<Routing>,
        elements: Vec<Box<dyn Element>>,
        tables: Vec<Table>,
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
            tables: tables.into(),
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
            scratch_removed: Vec::new(),
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
        self.entry = Some(Entry::Port(route));
    }

    /// Delivers externally injected tuples to the dispatch of their name
    /// (see the module-level *Heads and dispatch* section) instead of to
    /// one port.
    pub fn set_dispatch_entry(&mut self) {
        self.entry = Some(Entry::Dispatch);
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

    /// The node's tables, indexed by table id.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The node's tables, to change (the expiry sweep, fact installation).
    pub fn tables_mut(&mut self) -> &mut [Table] {
        &mut self.tables
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
                    &mut self.tables,
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

    /// Enqueues an external tuple at `entry`.
    fn enter(&mut self, entry: Entry, tuple: Tuple) {
        self.stats.injected += 1;
        if let Some(obs) = &mut self.obs {
            if obs.tagged(&tuple) {
                obs.trace_recv(self.now, &tuple);
            }
        }
        match entry {
            Entry::Port(route) => self.queue.push_back(Pending {
                step: Step::Push(route),
                tuple,
                delay: 0,
            }),
            Entry::Dispatch => {
                let routing = &*self.routing;
                if let Some(d) = routing.dispatch_of(tuple.name()) {
                    fan_out(&mut self.queue, routing.dispatch_routes(d), tuple, 0);
                }
            }
        }
    }

    /// Delivers an externally produced tuple (network arrival or application
    /// event) to the entry and runs the graph to completion.
    ///
    /// With no entry configured the tuple is dropped and counted in
    /// [`EngineStats::dropped_no_entry`]; it is not counted as injected and
    /// does not advance the node's clock.
    pub fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Outgoing> {
        let Some(entry) = self.entry else {
            self.stats.dropped_no_entry += 1;
            return Vec::new();
        };
        self.set_now(now);
        self.enter(entry, tuple);
        let mut outgoing = Vec::new();
        self.drain(&mut outgoing);
        self.stats.sent += outgoing.len() as u64;
        outgoing
    }

    /// Delivers a batch of external tuples at the same virtual instant: the
    /// whole batch is enqueued at the entry, then the graph runs to
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
        for tuple in tuples {
            self.enter(entry, tuple);
        }
        let mut outgoing = Vec::new();
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
                    &mut self.tables,
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
            let Slot { delay, head, .. } = routing.slots[slot];
            match head {
                None => fan_out(&mut self.queue, routing.span(slot), tuple, delay),
                // Where the demultiplexer would have pushed it.
                Some(Head::Local(d)) => fan_out(
                    &mut self.queue,
                    routing.dispatch_routes(d),
                    tuple,
                    delay + 1,
                ),
                Some(_) => self.queue.push_back(Pending {
                    step: Step::Head(slot),
                    tuple,
                    delay,
                }),
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
        while let Some(Pending { step, tuple, delay }) = self.queue.pop_front() {
            if delay > 0 {
                // One level later: where a forwarding element would have
                // pushed it (see *Level delays*).
                self.queue.push_back(Pending {
                    step,
                    tuple,
                    delay: delay - 1,
                });
                continue;
            }
            let route = match step {
                Step::Push(route) => route,
                Step::Head(slot) => {
                    self.run_head(slot, tuple, outgoing);
                    continue;
                }
            };
            let idx = route.element;
            self.stats.handoffs += 1;
            let sends_before = outgoing.len();
            let state_changed;
            {
                let mut ctx = ElementCtx::new(
                    self.now,
                    self.queue.len(),
                    &mut self.tables,
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

    /// Runs the located or delete head of slot `slot` on `tuple`, at the
    /// level the network-out or delete element it replaces ran (see
    /// *Level delays*).
    fn run_head(&mut self, slot: usize, tuple: Tuple, outgoing: &mut Vec<Outgoing>) {
        let routing = &*self.routing;
        match routing.slots[slot].head {
            Some(Head::Located {
                dest_field,
                dispatch,
            }) => {
                // Hot path: the destination is a string value, whose
                // `Arc<str>` is shared into `Outgoing.dst` directly — no
                // allocation per send.
                let dst: Option<Arc<str>> = match tuple.get(dest_field) {
                    Ok(Value::Str(s)) => Some(s.clone()),
                    Ok(other) => Some(Arc::from(other.to_display_string())),
                    Err(_) => None,
                };
                let Some(dst) = dst.filter(|d| !d.is_empty() && &**d != "null") else {
                    self.stats.malformed_heads += 1;
                    return;
                };
                if &*dst == self.eval.local_addr_str() {
                    // The demultiplexer's level, one after this step.
                    let consumers = routing.dispatch_routes(dispatch);
                    fan_out(&mut self.queue, consumers, tuple, 1);
                } else {
                    if let Some(obs) = self.obs.as_deref_mut() {
                        if obs.tagged(&tuple) {
                            obs.trace_send(self.now, &dst, &tuple);
                        }
                    }
                    outgoing.push(Outgoing { dst, tuple });
                }
            }
            Some(Head::Delete { table }) => {
                debug_assert!(self.scratch_removed.is_empty());
                let removed = &mut self.scratch_removed;
                if self.tables[table]
                    .delete_matching_spill(&tuple, removed)
                    .is_err()
                {
                    self.stats.malformed_heads += 1;
                }
                for row in removed.drain(..) {
                    fan_out(&mut self.queue, routing.span(slot), row, 0);
                }
            }
            Some(Head::Local(_)) | None => unreachable!("only located and delete heads queue"),
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
    use crate::elements::{Collector, TableAgg};
    use p2_table::{AggFunc, TableSpec};
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
    /// Collects what dispatch `name` of `g` hands its one consumer.
    fn tap(g: &mut Graph, name: &str) -> crate::elements::CollectorHandle {
        let d = g.add_dispatch(name);
        let (c, buf) = Collector::new();
        let c = g.add(format!("tap:{name}"), Box::new(c));
        g.connect_dispatch(d, c, 0);
        buf
    }

    #[test]
    fn local_wraps_and_remote_sends() {
        let mut g = Graph::new();
        let local_buf = tap(&mut g, "succ");
        let head = g.add("head", Box::new(Forward));
        g.set_head(
            head,
            0,
            Head::Located {
                dest_field: 0,
                dispatch: 0,
            },
        );
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: head,
            port: 0,
        });

        let local = TupleBuilder::new("succ").push("n1").push(5i64).build();
        let out = engine.deliver(local, SimTime::ZERO);
        assert!(out.is_empty());
        assert_eq!(local_buf.lock().len(), 1);

        let remote = TupleBuilder::new("succ").push("n7").push(5i64).build();
        let out = engine.deliver(remote, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(&*out[0].dst, "n7");
        assert_eq!(local_buf.lock().len(), 1);
        // Two calls of `head` and the tap's one: routing a head calls no
        // element.
        assert_eq!(engine.stats().handoffs, 3);
        assert_eq!(engine.stats().sent, 1);
        assert_eq!(engine.stats().malformed_heads, 0);
    }

    #[test]
    fn malformed_destinations_are_dropped() {
        let mut g = Graph::new();
        let local_buf = tap(&mut g, "x");
        let t = g.add_table(Table::new(TableSpec::new("gone", vec![1])));
        let (x, gone) = (0, g.add_dispatch("gone"));
        let head = g.add("head", Box::new(Forward));
        g.set_head(
            head,
            0,
            Head::Located {
                dest_field: 1,
                dispatch: x,
            },
        );
        g.connect_dispatch(x, head, 0);
        let delete = g.add("delete", Box::new(Forward));
        g.set_head(delete, 0, Head::Delete { table: t });
        g.connect_dispatch(gone, delete, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_dispatch_entry();
        // A missing, an empty and a `"null"` destination, and a delete too
        // short for its table's key: each is dropped and counted, neither
        // sent nor dispatched.
        let short = TupleBuilder::new("x").push("n1").build();
        let empty = TupleBuilder::new("x").push("n1").push("").build();
        let null = TupleBuilder::new("x").push("n1").push("null").build();
        let keyless = TupleBuilder::new("gone").push("n1").build();
        for t in [short, empty, null, keyless] {
            assert!(engine.deliver(t, SimTime::ZERO).is_empty());
        }
        // `head` is the tap's only other consumer of `x`, before it.
        assert_eq!(local_buf.lock().len(), 3);
        assert_eq!(engine.stats().malformed_heads, 4);
        assert_eq!(engine.stats().sent, 0);
        assert_eq!(engine.stats().handoffs, 3 + 3 + 1);
    }

    #[test]
    fn demux_routes_by_name() {
        let mut g = Graph::new();
        let lookup_buf = tap(&mut g, "lookup");
        let succ_buf = tap(&mut g, "succ");
        // A second consumer of `succ` receives each tuple after the first.
        let (c, second_buf) = Collector::new();
        let second = g.add("second", Box::new(c));
        g.connect_dispatch(1, second, 0);

        let mut engine = Engine::new(g, "n1", 1);
        engine.set_dispatch_entry();
        engine.start(SimTime::ZERO);
        for name in ["lookup", "succ", "succ", "ping"] {
            engine.deliver(TupleBuilder::new(name).push("n1").build(), SimTime::ZERO);
        }
        engine.deliver_many(
            vec![
                TupleBuilder::new("succ").push("n2").build(),
                TupleBuilder::new("zzz").build(),
            ],
            SimTime::ZERO,
        );
        assert_eq!(lookup_buf.lock().len(), 1);
        assert_eq!(succ_buf.lock().len(), 3);
        assert_eq!(second_buf.lock().len(), 3);
        // A name without a dispatch enters and is dropped, as a
        // demultiplexer's unconnected default port dropped it.
        assert_eq!(engine.stats().injected, 6);
        assert_eq!(engine.stats().dropped_no_entry, 0);
        assert_eq!(engine.stats().handoffs, 7);
    }

    #[test]
    fn demux_port_queries() {
        let mut g = Graph::new();
        let sink = g.add("sink", Box::new(Forward));
        let a = g.add_dispatch("a");
        let b = g.add_dispatch("b");
        let again = g.add_dispatch("a");
        g.connect_dispatch(b, sink, 0);
        g.connect_dispatch(again, sink, 1);
        let described = g.describe();
        let engine = Engine::new(g, "n1", 1);
        let routing = engine.routing();
        assert_eq!((a, b, again), (0, 1, 2));
        assert_eq!(routing.dispatch_of("b"), Some(b));
        // A repeated name delivers to its first dispatch.
        assert_eq!(routing.dispatch_of("a"), Some(a));
        assert_eq!(routing.dispatch_of("zzz"), None);
        assert!(routing.dispatch_routes(a).is_empty());
        let to_sink = |port| Route {
            element: sink,
            port,
        };
        assert_eq!(routing.dispatch_routes(b), &[to_sink(0)]);
        assert_eq!(routing.dispatch_routes(again), &[to_sink(1)]);
        assert!(routing.dispatch_routes(99).is_empty());
        // Dispatch consumers are routes, but of no element's port.
        assert_eq!(routing.route_count(), 2);
        assert!(engine.routes_of(sink, 0).is_empty());
        assert_eq!(
            described,
            "[0] sink (Forward)\n  dispatch b -> 0:0\n  dispatch a -> 0:1\n"
        );
    }

    /// Logs each tuple it receives, then emits the tuples `out` on port 0:
    /// a rule strand whose head derives them.
    struct Derive {
        name: &'static str,
        log: Arc<std::sync::Mutex<Vec<String>>>,
        out: Vec<Tuple>,
    }

    impl Element for Derive {
        fn class(&self) -> &'static str {
            "Derive"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            self.log
                .lock()
                .unwrap()
                .push(format!("{} {tuple}", self.name));
            for t in &self.out {
                ctx.emit(0, t.clone());
            }
        }
    }

    /// Test-local stand-in for the network-out element heads replaced: a
    /// tuple whose field `dest_field` names this node leaves on port 0, any
    /// other is sent there.
    struct EgressFwd {
        dest_field: usize,
    }

    impl Element for EgressFwd {
        fn class(&self) -> &'static str {
            "EgressFwd"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            let Value::Str(dst) = tuple.field(self.dest_field) else {
                panic!("test destinations are strings");
            };
            if **dst == *ctx.local_addr() {
                ctx.emit(0, tuple.clone());
            } else {
                ctx.send(dst.clone(), tuple.clone());
            }
        }
    }

    /// Test-local stand-in for the demultiplexer dispatch replaced: tuple
    /// name `names[i]` leaves on port `i`.
    struct DemuxFwd {
        names: Vec<&'static str>,
    }

    impl Element for DemuxFwd {
        fn class(&self) -> &'static str {
            "DemuxFwd"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            if let Some(port) = self.names.iter().position(|n| *n == tuple.name()) {
                ctx.emit(port, tuple.clone());
            }
        }
    }

    /// Test-local stand-in for the delete element [`Head::Delete`]
    /// replaced: removes the tuple's match and emits it on port 0.
    struct DeleteFwd {
        table: usize,
    }

    impl Element for DeleteFwd {
        fn class(&self) -> &'static str {
            "DeleteFwd"
        }
        fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
            let mut removed = Vec::new();
            let table = ctx.table_mut(self.table);
            table.delete_matching_spill(tuple, &mut removed).unwrap();
            for row in removed {
                ctx.emit(0, row);
            }
        }
    }

    /// A delivered `go` reaches four sibling strands of different depths:
    /// `a` derives two located heads for this node two levels late, `b`
    /// two remote ones one level late, `c` a `delete` head whose table's
    /// aggregate feeds `w`, and `d` an unlocated head one level late.
    /// `e` derives a remote head three levels late. Local heads fan out to
    /// `x`, `y` and `z`, each of which sends. With
    /// `emulate`, the deleted egress, demultiplexer and delete elements do
    /// the routing as forwarding elements; without, heads and dispatch do.
    /// Returns the invocation log, the sends and the handoff count of the
    /// start and one delivery.
    fn run_heads(emulate: bool) -> (Vec<String>, Vec<Outgoing>, u64) {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let row = |s: i64| {
            let name = format!("n{s}");
            TupleBuilder::new("succ")
                .push("n1")
                .push(s)
                .push(name)
                .build()
        };
        let head =
            |name: &str, dst: &str, i: i64| TupleBuilder::new(name).push(dst).push(i).build();
        let derive = |name, out| -> Box<dyn Element> {
            Box::new(Derive {
                name,
                log: log.clone(),
                out,
            })
        };
        let logged = |name, dst| -> Box<dyn Element> {
            Box::new(Logged {
                name,
                log: log.clone(),
                copies: 0,
                dst: Some(dst),
            })
        };
        let mut g = Graph::new();
        let mut succ = Table::new(TableSpec::new("succ", vec![1]));
        for s in [5, 9] {
            succ.insert(row(s), SimTime::ZERO).unwrap();
        }
        let t = g.add_table(succ);
        let a = g.add(
            "a",
            derive("a", vec![head("loc", "n1", 1), head("loc", "n1", 2)]),
        );
        let b = g.add(
            "b",
            derive("b", vec![head("rem", "n7", 1), head("rem", "n8", 2)]),
        );
        let c = g.add("c", derive("c", vec![row(5)]));
        let d = g.add(
            "d",
            derive("d", vec![Tuple::new("loc", vec![Value::Int(3)])]),
        );
        let e = g.add("e", derive("e", vec![head("rem", "ne", 1)]));
        let strands = [a, b, c, d, e];
        let consumers = [g.add("x", logged("x", "nx")), g.add("y", logged("y", "ny"))];
        let consumers = [consumers[0], consumers[1], g.add("z", logged("z", "nz"))];
        let agg = TableAgg::new(t, AggFunc::Count, None, vec![0], "cnt");
        let agg = g.add("agg", Box::new(agg));
        let w = g.add("w", logged("w", "nw"));
        g.connect(agg, 0, w, 0);
        for (strand, levels) in [(a, 2), (b, 1), (d, 1), (e, 3)] {
            g.set_delay(strand, 0, levels);
        }
        if emulate {
            let demux = g.add(
                "demux",
                Box::new(DemuxFwd {
                    names: vec!["go", "loc"],
                }),
            );
            for strand in strands {
                g.connect(demux, 0, strand, 0);
            }
            for consumer in consumers {
                g.connect(demux, 1, consumer, 0);
            }
            for strand in [a, b, e] {
                let egress = g.add("egress", Box::new(EgressFwd { dest_field: 0 }));
                g.connect(strand, 0, egress, 0);
                g.connect(egress, 0, demux, 0);
            }
            let delete = g.add("delete", Box::new(DeleteFwd { table: t }));
            g.connect(c, 0, delete, 0);
            g.connect(delete, 0, agg, 0);
            g.connect(d, 0, demux, 0);
            let mut engine = Engine::new(g, "n1", 1);
            engine.set_entry(Route {
                element: demux,
                port: 0,
            });
            return run_go(engine, &log);
        }
        let (go, loc) = (g.add_dispatch("go"), g.add_dispatch("loc"));
        for strand in strands {
            g.connect_dispatch(go, strand, 0);
        }
        for consumer in consumers {
            g.connect_dispatch(loc, consumer, 0);
        }
        let located = Head::Located {
            dest_field: 0,
            dispatch: loc,
        };
        g.set_head(a, 0, located);
        g.set_head(b, 0, located);
        g.set_head(e, 0, located);
        g.set_head(c, 0, Head::Delete { table: t });
        g.connect(c, 0, agg, 0);
        g.set_head(d, 0, Head::Local(loc));
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_dispatch_entry();
        run_go(engine, &log)
    }

    /// Starts `engine`, delivers one `go` and returns what
    /// [`run_heads`] returns.
    fn run_go(
        mut engine: Engine,
        log: &std::sync::Mutex<Vec<String>>,
    ) -> (Vec<String>, Vec<Outgoing>, u64) {
        let mut out = engine.start(SimTime::ZERO);
        let go = TupleBuilder::new("go").push("n1").build();
        out.extend(engine.deliver(go, SimTime::from_secs(1)));
        let invocations = log.lock().unwrap().clone();
        (invocations, out, engine.stats().handoffs)
    }

    #[test]
    fn heads_match_egress_and_demux_forwarders() {
        let (fwd_log, fwd_out, fwd_handoffs) = run_heads(true);
        let (log, out, handoffs) = run_heads(false);
        assert_eq!(log, fwd_log);
        assert_eq!(out, fwd_out);
        let dsts: Vec<&str> = out.iter().map(|o| &*o.dst).collect();
        // `w`'s first count is the aggregate's start-up value. Then, by
        // level: `b`'s sends (3), the delete's count and `d`'s local head
        // (4), `e`'s send (5) and `a`'s two local heads (6).
        let order = ["nw", "n7", "n8", "nw", "nx", "ny", "nz", "ne"];
        let local = ["nx", "ny", "nz", "nx", "ny", "nz"];
        assert_eq!(dsts, [&order[..], &local[..]].concat(), "{log:#?}");
        // The forwarders' calls are gone: the demultiplexer passes of the
        // delivery and the three local heads, five egress calls and one
        // delete.
        assert_eq!(handoffs + 1 + 3 + 5 + 1, fwd_handoffs);
    }
}
