//! The public node API: a running P2 instance for one overlay participant.

use std::collections::HashMap;

use p2_dataflow::elements::CollectorHandle;
use p2_dataflow::{EngineStats, Outgoing};
use p2_overlog::Program;
use p2_table::{Catalog, TableRef};
use p2_value::{SimTime, Tuple};

use crate::error::PlanError;
use crate::planner::{PlanConfig, Planned, PlannedProgram};

/// Configuration for instantiating a [`P2Node`].
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's network address (also the value bound to fact location
    /// variables such as `NI`).
    pub addr: String,
    /// Seed for the node's deterministic RNG (event identifiers, `f_rand`,
    /// periodic phase jitter).
    pub seed: u64,
    /// How the program is planned (watches, periodic jitter); everything
    /// here is node-independent.
    pub plan: PlanConfig,
}

impl NodeConfig {
    /// Creates a configuration with the given address and seed and the
    /// default plan ([`PlanConfig::new`]).
    pub fn new(addr: impl Into<String>, seed: u64) -> NodeConfig {
        NodeConfig {
            addr: addr.into(),
            seed,
            plan: PlanConfig::new(),
        }
    }

    /// Adds a watched tuple name; matching tuples arriving at this node are
    /// recorded and retrievable via [`P2Node::collector`].
    pub fn watch(mut self, name: impl Into<String>) -> NodeConfig {
        self.plan = self.plan.watch(name);
        self
    }

    /// Disables periodic phase jitter (deterministic timer schedule).
    pub fn without_jitter(mut self) -> NodeConfig {
        self.plan = self.plan.without_jitter();
        self
    }
}

/// A running P2 node: an OverLog program compiled to a dataflow graph, plus
/// its soft-state tables, driven by virtual time.
///
/// The node is driven externally (by the network simulator, the experiment
/// harness, or a test): [`P2Node::start`] boots it, [`P2Node::deliver`] hands
/// it a tuple addressed to it, and [`P2Node::advance_to`] moves its clock
/// forward, firing timers. Each call returns the tuples the node wants sent
/// to other nodes.
pub struct P2Node {
    addr: String,
    engine: p2_dataflow::Engine,
    catalog: Catalog,
    collectors: HashMap<String, CollectorHandle>,
    pending_stream_facts: Vec<Tuple>,
    started: bool,
}

impl P2Node {
    /// Compiles `program` for a node with the given configuration.
    ///
    /// Facts declared in the program are installed with the location
    /// variable bound to the node's address.
    pub fn new(program: &Program, config: NodeConfig) -> Result<P2Node, PlanError> {
        P2Node::with_facts(program, config, Vec::new())
    }

    /// Like [`P2Node::new`], additionally installing host-provided base
    /// facts (e.g. `landmark(addr, landmark_addr)` and `node(addr, id)`
    /// tuples that differ per node).
    ///
    /// This compiles a fresh plan per call; multi-node hosts should compile
    /// one [`PlannedProgram`] and use [`P2Node::from_plan`] instead.
    pub fn with_facts(
        program: &Program,
        config: NodeConfig,
        extra_facts: Vec<Tuple>,
    ) -> Result<P2Node, PlanError> {
        let shared = PlannedProgram::compile(program, &config.plan)?;
        Ok(P2Node::from_plan(
            &shared,
            &config.addr,
            config.seed,
            extra_facts,
        ))
    }

    /// Instantiates a node from a shared, pre-compiled plan: the cheap
    /// per-node path (no rule analysis or PEL compilation). The plan's
    /// program facts are installed with the location variable bound to
    /// `addr`, followed by the host-provided `extra_facts`.
    pub fn from_plan(
        plan: &PlannedProgram,
        addr: &str,
        seed: u64,
        extra_facts: Vec<Tuple>,
    ) -> P2Node {
        let Planned {
            engine,
            catalog,
            collectors,
        } = plan.instantiate(addr, seed);

        let mut node = P2Node {
            addr: addr.to_string(),
            engine,
            catalog,
            collectors,
            pending_stream_facts: Vec::new(),
            started: false,
        };
        for tuple in plan.facts_for(addr) {
            node.install_fact(tuple);
        }
        for tuple in extra_facts {
            node.install_fact(tuple);
        }
        node
    }

    fn install_fact(&mut self, tuple: Tuple) {
        match self.catalog.get(tuple.name()) {
            Some(table) => {
                // Base facts are installed directly; they are present before
                // the first rule fires, like P2's bootstrap state.
                let _ = table.lock().insert(tuple, SimTime::ZERO);
            }
            None => self.pending_stream_facts.push(tuple),
        }
    }

    /// The node's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Boots the node at virtual time `now`: periodic sources arm their
    /// timers, materialized aggregates emit their initial values, and any
    /// stream facts are injected.
    pub fn start(&mut self, now: SimTime) -> Vec<Outgoing> {
        self.started = true;
        let mut out = self.engine.start(now);
        for fact in std::mem::take(&mut self.pending_stream_facts) {
            out.extend(self.engine.deliver(fact, now));
        }
        out
    }

    /// True once [`P2Node::start`] has been called.
    pub fn is_started(&self) -> bool {
        self.started
    }

    /// Delivers a tuple addressed to this node (a network arrival or a local
    /// application event such as a `lookup` request), running the dataflow to
    /// completion.
    pub fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Outgoing> {
        self.catalog.expire_all(now);
        self.engine.deliver(tuple, now)
    }

    /// Delivers a batch of tuples arriving at the same virtual instant,
    /// expiring soft state once and draining the dataflow once for the
    /// whole batch.
    pub fn deliver_many(
        &mut self,
        tuples: impl IntoIterator<Item = Tuple>,
        now: SimTime,
    ) -> Vec<Outgoing> {
        self.catalog.expire_all(now);
        self.engine.deliver_many(tuples, now)
    }

    /// Advances the node's clock to `now`, firing due timers and sweeping
    /// expired soft state.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<Outgoing> {
        self.catalog.expire_all(now);
        self.engine.advance_to(now)
    }

    /// The earliest time at which this node has a timer to fire.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.engine.next_deadline()
    }

    /// A handle to one of the node's materialized tables.
    pub fn table(&self, name: &str) -> Option<TableRef> {
        self.catalog.get(name)
    }

    /// The node's table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The observation buffer for a watched tuple name.
    pub fn collector(&self, name: &str) -> Option<CollectorHandle> {
        self.collectors.get(name).cloned()
    }

    /// Engine activity counters.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Enables the rule-level profiler using the plan's element metadata
    /// (see [`PlannedProgram::obs_meta`]). Idempotent in effect but resets
    /// counters when called again.
    pub fn enable_obs(&mut self, meta: std::sync::Arc<p2_obs::ObsMeta>) {
        self.engine.enable_obs(meta);
    }

    /// The node's observability state, when enabled.
    pub fn obs(&self) -> Option<&p2_obs::NodeObs> {
        self.engine.obs()
    }

    /// Starts provenance tracing for tuples carrying `tag` in any field.
    /// Requires [`P2Node::enable_obs`] first; returns whether tracing is on.
    pub fn set_trace_tag(&mut self, tag: p2_value::Value, ring_cap: usize) -> bool {
        self.engine.set_trace_tag(tag, ring_cap)
    }

    /// Removes and returns buffered provenance trace events.
    pub fn drain_trace(&mut self) -> Vec<p2_obs::TraceEvent> {
        self.engine.drain_trace()
    }

    /// Approximate bytes of soft state currently held by the node.
    pub fn resident_table_bytes(&self) -> usize {
        self.catalog.resident_bytes()
    }

    /// Human-readable dump of the planned dataflow graph.
    pub fn graph_description(&self) -> String {
        self.engine.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_overlog::compile_checked;
    use p2_value::{TupleBuilder, Value};

    /// A two-rule ping/pong program: delivering `pingEvent(X, Y, E)` at X
    /// sends `ping(Y, X, E)` to Y; Y answers with `pong(X, Y, E)`.
    const PING_PONG: &str = r#"
        materialize(node, infinity, 1, keys(1)).
        P1 ping@Y(Y, X, E) :- pingEvent@X(X, Y, E).
        P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
    "#;

    fn node(addr: &str) -> P2Node {
        let program = compile_checked(PING_PONG).unwrap();
        P2Node::new(
            &program,
            NodeConfig::new(addr, 1).watch("pong").without_jitter(),
        )
        .unwrap()
    }

    #[test]
    fn ping_pong_between_two_nodes() {
        let mut a = node("n1");
        let mut b = node("n2");
        a.start(SimTime::ZERO);
        b.start(SimTime::ZERO);

        let event = TupleBuilder::new("pingEvent")
            .push("n1")
            .push("n2")
            .push(42i64)
            .build();
        let out = a.deliver(event, SimTime::from_secs(1));
        assert_eq!(out.len(), 1);
        assert_eq!(&*out[0].dst, "n2");
        assert_eq!(out[0].tuple.name(), "ping");

        let out = b.deliver(out[0].tuple.clone(), SimTime::from_secs(1));
        assert_eq!(out.len(), 1);
        assert_eq!(&*out[0].dst, "n1");
        assert_eq!(out[0].tuple.name(), "pong");

        let out = a.deliver(out[0].tuple.clone(), SimTime::from_secs(1));
        assert!(out.is_empty());
        let observed = a.collector("pong").unwrap();
        assert_eq!(observed.lock().len(), 1);
        assert_eq!(observed.lock()[0].1.field(1), &Value::str("n2"));
    }

    #[test]
    fn facts_are_installed_into_tables() {
        let src = r#"
            materialize(landmark, infinity, 1, keys(1)).
            F0 landmark@NI(NI, "n0").
            J1 joinReq@LI(LI, NI) :- joinEvent@NI(NI), landmark@NI(NI, LI), LI != NI.
        "#;
        let program = compile_checked(src).unwrap();
        let mut n = P2Node::new(&program, NodeConfig::new("n5", 3).without_jitter()).unwrap();
        assert_eq!(n.table("landmark").unwrap().lock().len(), 1);
        n.start(SimTime::ZERO);
        let out = n.deliver(
            TupleBuilder::new("joinEvent").push("n5").build(),
            SimTime::from_secs(1),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(&*out[0].dst, "n0");
        assert_eq!(out[0].tuple.name(), "joinReq");
    }

    #[test]
    fn extra_facts_and_local_wraparound() {
        // A rule whose head is local: derived tuples are stored in the local
        // table via the wrap-around path, not sent anywhere.
        let src = r#"
            materialize(member, 120, infinity, keys(2)).
            materialize(neighbor, 120, infinity, keys(2)).
            N1 member@X(X, Y, 0, 0, true) :- probe@X(X), neighbor@X(X, Y).
        "#;
        let program = compile_checked(src).unwrap();
        let neighbor_fact = TupleBuilder::new("neighbor").push("n1").push("n2").build();
        let mut n = P2Node::with_facts(
            &program,
            NodeConfig::new("n1", 1).without_jitter(),
            vec![neighbor_fact],
        )
        .unwrap();
        n.start(SimTime::ZERO);
        let out = n.deliver(
            TupleBuilder::new("probe").push("n1").build(),
            SimTime::from_secs(1),
        );
        assert!(out.is_empty());
        let member = n.table("member").unwrap();
        assert_eq!(member.lock().len(), 1);
        let row = member.lock().scan()[0].clone();
        assert_eq!(row.field(1), &Value::str("n2"));
        assert_eq!(row.field(4), &Value::Bool(true));
    }

    #[test]
    fn soft_state_expires_as_time_advances() {
        let src = r#"
            materialize(member, 5, infinity, keys(2)).
            M1 member@X(X, Y, T) :- memberAdd@X(X, Y), T := f_now().
        "#;
        let program = compile_checked(src).unwrap();
        let mut n = P2Node::new(&program, NodeConfig::new("n1", 1).without_jitter()).unwrap();
        n.start(SimTime::ZERO);
        n.deliver(
            TupleBuilder::new("memberAdd").push("n1").push("n2").build(),
            SimTime::from_secs(1),
        );
        assert_eq!(n.table("member").unwrap().lock().len(), 1);
        n.advance_to(SimTime::from_secs(3));
        assert_eq!(n.table("member").unwrap().lock().len(), 1);
        n.advance_to(SimTime::from_secs(10));
        assert_eq!(n.table("member").unwrap().lock().len(), 0);
    }

    #[test]
    fn soft_state_refresh_refires_table_delta_rules() {
        // Re-inserting an identical keyed row changes nothing in `peer` but
        // its timestamp, yet the poke must still re-run M1: the re-derived
        // `seen` is what keeps the downstream `cache` row alive (the shape
        // of Chord's succ -> SU0 -> SU1 keep-alive cascade).
        let src = r#"
            materialize(peer, 30, infinity, keys(1,2)).
            materialize(cache, 30, infinity, keys(1,2)).
            M1 seen@X(X, Y) :- peer@X(X, Y).
            M2 cache@X(X, Y) :- seen@X(X, Y).
        "#;
        let program = compile_checked(src).unwrap();
        let config = NodeConfig::new("n1", 1).watch("seen").without_jitter();
        let mut n = P2Node::new(&program, config).unwrap();
        n.start(SimTime::ZERO);
        let peer = TupleBuilder::new("peer").push("n1").push("n2").build();
        n.deliver(peer.clone(), SimTime::from_secs(1));
        n.deliver(peer, SimTime::from_secs(20));
        assert_eq!(n.collector("seen").unwrap().lock().len(), 2);
        n.advance_to(SimTime::from_secs(40));
        assert_eq!(n.table("cache").unwrap().lock().len(), 1);
        n.advance_to(SimTime::from_secs(60));
        assert_eq!(n.table("cache").unwrap().lock().len(), 0);
    }

    #[test]
    fn periodic_rules_fire_and_count_events() {
        let src = r#"
            materialize(counter, infinity, infinity, keys(2)).
            T1 tick@X(X, E) :- periodic@X(X, E, 2).
            T2 counter@X(X, E) :- tick@X(X, E).
        "#;
        let program = compile_checked(src).unwrap();
        let mut n = P2Node::new(&program, NodeConfig::new("n1", 1).without_jitter()).unwrap();
        n.start(SimTime::ZERO);
        n.advance_to(SimTime::from_secs(9));
        // Ticks at t=2,4,6,8 -> 4 counter rows (each with a unique event id).
        assert_eq!(n.table("counter").unwrap().lock().len(), 4);
        assert!(n.stats().timers_fired >= 4);
    }

    #[test]
    fn graph_description_names_rules() {
        let program = compile_checked(PING_PONG).unwrap();
        let n = P2Node::new(&program, NodeConfig::new("n1", 1)).unwrap();
        let desc = n.graph_description();
        assert!(desc.contains("P1:strand"));
        assert!(desc.contains("P2:strand"));
        assert!(desc.contains("insert:node"));
        assert!(n.resident_table_bytes() == 0);
    }
}
