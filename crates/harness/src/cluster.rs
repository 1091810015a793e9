//! Whole-overlay cluster bring-up, workload generation and measurement.

use p2_baseline::{BaselineChord, BaselineConfig};
use p2_netsim::{NetworkConfig, Simulator};
use p2_overlays::{chord, P2Host};
use p2_value::{SimTime, Tuple, TupleBuilder, Uint160, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A lookup in flight, identified by its origin and event identifier.
#[derive(Debug, Clone)]
pub struct LookupHandle {
    /// Node at which the lookup was issued (and to which the result
    /// returns).
    pub origin: String,
    /// The looked-up key.
    pub key: Uint160,
    /// Event identifier correlating request and response.
    pub event: i64,
    /// Virtual time at which the lookup was injected.
    pub issued_at: SimTime,
}

/// The observed completion of a lookup.
#[derive(Debug, Clone)]
pub struct LookupOutcome {
    /// Address reported as the key's owner (successor of the key).
    pub owner: String,
    /// Seconds from issue to the result arriving back at the origin.
    pub latency: f64,
    /// Number of overlay hops the request traversed.
    pub hops: usize,
}

fn node_addr(i: usize) -> String {
    format!("node{i}:11111")
}

/// Fraction of up nodes whose reported successor (per `successor_of`) is
/// the correct clockwise ring successor among up nodes. Shared by the
/// declarative and baseline clusters; iterates borrowed addresses, no list
/// clone.
fn ring_correctness_of<'a>(
    up_addresses: impl Iterator<Item = &'a str>,
    successor_of: impl Fn(&str) -> Option<String>,
) -> f64 {
    let mut ids: Vec<(Uint160, &str)> = up_addresses.map(|a| (chord::node_id(a), a)).collect();
    if ids.len() < 2 {
        return 1.0;
    }
    ids.sort();
    let correct = (0..ids.len())
        .filter(|&pos| {
            let a = ids[pos].1;
            let expect = ids[(pos + 1) % ids.len()].1;
            successor_of(a).as_deref() == Some(expect)
        })
        .count();
    correct as f64 / ids.len() as f64
}

/// The correct owner of `key` among `nodes`: the node whose identifier is
/// the key's clockwise successor on the ring.
pub fn expected_owner(key: Uint160, nodes: &[String]) -> Option<String> {
    if nodes.is_empty() {
        return None;
    }
    let mut ids: Vec<(Uint160, &String)> = nodes.iter().map(|a| (chord::node_id(a), a)).collect();
    ids.sort();
    for (id, a) in &ids {
        if key <= *id {
            return Some((*a).clone());
        }
    }
    Some(ids[0].1.clone())
}

/// Configuration for building a [`ChordCluster`]: the ring's size and seed
/// and the Chord program variant.
#[derive(Debug, Clone)]
pub struct ChordClusterBuilder {
    n: usize,
    seed: u64,
    opts: chord::ChordOpts,
}

impl ChordClusterBuilder {
    /// Enables join-time successor-list seeding (the JS1 rule): joiners
    /// request their successor's successor list the moment the join lookup
    /// answers, instead of waiting for the first stabilization period. It
    /// affects only joins, so [`ChordClusterBuilder::build`] and
    /// [`ChordCluster::rejoin`]; a [`ChordClusterBuilder::build_fast`] ring
    /// never joins.
    pub fn join_seed(mut self, on: bool) -> ChordClusterBuilder {
        self.opts.join_seed = on;
        self
    }

    /// Builds and boots the ring with the paper's staggered bring-up (see
    /// [`ChordCluster::build`]).
    pub fn build(self, warmup_secs: u64) -> ChordCluster {
        let mut cluster = ChordCluster::new_unbooted(self);
        cluster.boot(warmup_secs);
        cluster
    }

    /// Builds the ring already converged (see [`ChordCluster::build_fast`]).
    pub fn build_fast(self, warmup_secs: u64) -> ChordCluster {
        let mut cluster = ChordCluster::new_unbooted(self);
        cluster.boot_fast(warmup_secs);
        cluster
    }
}

/// A cluster of declarative (P2) Chord nodes running on the simulated
/// Emulab-like topology.
pub struct ChordCluster {
    /// The underlying simulator; exposed for stats access and advanced use.
    pub sim: Simulator<P2Host>,
    addrs: Vec<String>,
    seed: u64,
    /// The program variant every node of this cluster runs (also the cache
    /// key under which [`chord::shared_plan_for`] holds the shared plan).
    opts: chord::ChordOpts,
    next_event: i64,
    rng: SmallRng,
    brought_up_at: SimTime,
    obs_enabled: bool,
    trace_tag: Option<Value>,
    /// Counters of the engines crashes took down, so cluster totals
    /// survive the nodes that produced them.
    departed: Departed,
}

/// Storage, engine, evaluation-error and profiler counters folded in from
/// nodes at the moment they went down.
#[derive(Debug, Clone, Default)]
struct Departed {
    storage: p2_table::TableStats,
    engine: crate::metrics::EngineOps,
    eval_errors: u64,
    obs: Vec<p2_obs::ElemCounters>,
}

impl ChordCluster {
    /// Starts configuring a cluster of `n` nodes (base Chord program unless
    /// overridden).
    pub fn builder(n: usize, seed: u64) -> ChordClusterBuilder {
        ChordClusterBuilder {
            n,
            seed,
            opts: chord::ChordOpts::default(),
        }
    }

    /// Builds and boots an `n`-node ring: node 0 is the bootstrap landmark,
    /// every other node joins through it. Joins are staggered and re-issued
    /// until every node has learned a successor, then the ring is left to
    /// stabilize for `warmup_secs` of virtual time.
    pub fn build(n: usize, warmup_secs: u64, seed: u64) -> ChordCluster {
        ChordCluster::builder(n, seed).build(warmup_secs)
    }

    /// Plans `n` Chord nodes and adds them to a fresh simulator without
    /// starting any of them (shared prelude of the bring-up paths).
    fn new_unbooted(config: ChordClusterBuilder) -> ChordCluster {
        let ChordClusterBuilder { n, seed, opts } = config;
        let mut sim = Simulator::new(NetworkConfig::emulab_default(seed));
        let addrs: Vec<String> = (0..n).map(node_addr).collect();
        for (i, addr) in addrs.iter().enumerate() {
            let landmark = if i == 0 {
                None
            } else {
                Some(addrs[0].as_str())
            };
            let host = chord::build_node_for(addr, landmark, seed.wrapping_add(i as u64), opts)
                .expect("chord node must plan");
            sim.add_node(addr.clone(), host);
        }
        ChordCluster {
            sim,
            addrs,
            seed,
            opts,
            next_event: 1_000_000,
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED),
            brought_up_at: SimTime::ZERO,
            obs_enabled: false,
            trace_tag: None,
            departed: Departed::default(),
        }
    }

    /// Builds an `n`-node ring that starts converged, then runs it for
    /// `warmup_secs`. Every node starts at virtual time 0 and receives,
    /// through its own dataflow, the routing state the specification
    /// reaches on this ring ([`chord::converged_ring`]). No node joins:
    /// [`ChordCluster::build`], [`ChordCluster::rejoin`] and churn are the
    /// paths that exercise the join protocol.
    ///
    /// That state is a fixpoint of the rules, so the ring keeps it:
    ///
    /// * every `succ` row is refreshed each ping period by CM8, and the
    ///   fifth successor that SB5–SB7 hand back is evicted again by S2;
    /// * no node lies between a node's `pred` and itself, so SB9 never
    ///   replaces it;
    /// * one fix-finger cycle takes one F1 period per finger group, well
    ///   inside the 180 s finger lifetime, and re-derives every finger
    ///   through F3–F6;
    /// * `bestSucc`, `succCount`, finger 0 and `pingNode` come from the
    ///   node's own rules (SU0–SU3, S1, CM2/CM3).
    ///
    /// The routing state after a warm-up equals the staggered
    /// [`ChordCluster::build`] ring's, and it does not change when the ring
    /// runs on past the finger lifetime (`sim_determinism`'s
    /// `analytic_bring_up_is_the_joined_fixpoint`).
    pub fn build_fast(n: usize, warmup_secs: u64, seed: u64) -> ChordCluster {
        ChordCluster::builder(n, seed).build_fast(warmup_secs)
    }

    /// `start_all`, then one injection per tuple of
    /// [`chord::converged_ring`], then the caller's warm-up, the only
    /// burn-in. Three details keep the run itself, not only its routing
    /// state, like a joined ring's:
    ///
    /// * **Fix-finger phases differ per node.** With every node at
    ///   `nextFingerFix = 0`, every node's first fix would run finger 0's
    ///   ~150-step F6 chain in the same F1 period.
    /// * **Strings are shared.** Each address is one `Value::Str` and each
    ///   relation name one `Arc<str>` across all injected rows; a fresh
    ///   string per row would stay resident in the tables.
    /// * **One tuple per injection.** A batched injection of a node's ~165
    ///   rows would leave its engine's work queue at that capacity for
    ///   good.
    fn boot_fast(&mut self, warmup_secs: u64) {
        self.sim.start_all();
        let sim = &mut self.sim;
        chord::converged_ring(&self.addrs, self.seed, |addr, tuple| {
            sim.inject(addr, tuple)
        });
        self.brought_up_at = self.sim.now();
        self.sim.run_for(SimTime::from_secs(warmup_secs));
        self.clear_observations();
        self.sim.reset_stats();
    }

    /// Virtual seconds the join phase of bring-up took, measured before
    /// the warm-up window: until every node of [`ChordCluster::build`] had
    /// learned a successor; 0 for [`ChordCluster::build_fast`], where no
    /// node joins.
    pub fn bring_up_virtual_secs(&self) -> f64 {
        self.brought_up_at.as_secs_f64()
    }

    /// Sends a fresh `join` event to every up node that has not learned a
    /// best successor, in address order, and returns how many it sent.
    ///
    /// A `join` lives 10 s. A join lookup that crosses a dead node is lost,
    /// and then the node never joins: a crash-and-rejoin driver calls this
    /// periodically, as a real node would retry.
    pub fn reissue_joins(&mut self) -> usize {
        let pending: Vec<String> = self
            .sim
            .up_addresses_iter()
            .filter(|a| !self.is_joined(a))
            .map(str::to_string)
            .collect();
        let joins: Vec<(String, Tuple)> = pending
            .into_iter()
            .map(|addr| {
                let tuple = chord::join_tuple(&addr, self.fresh_event());
                (addr, tuple)
            })
            .collect();
        let sent = joins.len();
        self.sim.inject_many(joins);
        sent
    }

    fn boot(&mut self, warmup_secs: u64) {
        let addrs = self.addrs.clone();
        for addr in &addrs {
            self.sim.start_node(addr);
            let event = self.fresh_event();
            self.sim.inject(addr, chord::join_tuple(addr, event));
            self.sim.run_for(SimTime::from_millis(500));
        }
        // Re-issue joins for stragglers, in one batch per round.
        for _ in 0..12 {
            self.sim.run_for(SimTime::from_secs(20));
            if self.reissue_joins() == 0 {
                break;
            }
        }
        self.brought_up_at = self.sim.now();
        self.sim.run_for(SimTime::from_secs(warmup_secs));
        self.clear_observations();
        self.sim.reset_stats();
    }

    fn fresh_event(&mut self) -> i64 {
        self.next_event += 1;
        self.next_event
    }

    /// All node addresses.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Addresses of nodes currently up.
    pub fn up_addrs(&self) -> Vec<String> {
        self.sim.up_addresses()
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Advances virtual time.
    pub fn run_for(&mut self, secs: f64) {
        self.sim.run_for(SimTime::from_secs_f64(secs));
    }

    /// True if the node has learned a best successor.
    pub fn is_joined(&self, addr: &str) -> bool {
        self.sim
            .node(addr)
            .map(|h| h.node().table("bestSucc").is_some_and(|t| !t.is_empty()))
            .unwrap_or(false)
    }

    /// The node's current best-successor address, if any.
    pub fn best_successor(&self, addr: &str) -> Option<String> {
        let host = self.sim.node(addr)?;
        let table = host.node().table("bestSucc")?;
        // Borrowing scan: the singleton row is read in place, no snapshot.
        table
            .scan_iter()
            .next()
            .map(|t| t.field(2).to_display_string())
    }

    /// Sorted display rows of one node's named table (empty when the node
    /// or table is absent). The determinism tests use this to compare the
    /// full routing state — successor lists, fingers, predecessors — with
    /// the state `chord::converged_ring` seeds.
    pub fn table_rows(&self, addr: &str, table: &str) -> Vec<String> {
        let Some(host) = self.sim.node(addr) else {
            return Vec::new();
        };
        let Some(table) = host.node().table(table) else {
            return Vec::new();
        };
        let mut rows: Vec<String> = table.scan_iter().map(|t| t.to_string()).collect();
        rows.sort();
        rows
    }

    /// Fraction of up nodes whose best successor is the correct ring
    /// successor among up nodes (a ring-consistency health metric).
    pub fn ring_correctness(&self) -> f64 {
        ring_correctness_of(self.sim.up_addresses_iter(), |a| self.best_successor(a))
    }

    /// True when the best-successor pointers of the up nodes form one
    /// single cycle visiting every up node exactly once — the structural
    /// definition of a correct Chord ring, stricter than a high
    /// [`ChordCluster::ring_correctness`] fraction.
    pub fn is_single_cycle(&self) -> bool {
        let up: Vec<&str> = self.sim.up_addresses_iter().collect();
        let Some(&start) = up.first() else {
            return true;
        };
        let mut seen = std::collections::HashSet::with_capacity(up.len());
        let mut cursor = start.to_string();
        for _ in 0..up.len() {
            if !seen.insert(cursor.clone()) {
                return false; // revisited a node before closing the cycle
            }
            match self.best_successor(&cursor) {
                Some(next) => cursor = next,
                None => return false, // a node without a successor
            }
        }
        // After exactly `up` hops we must be back at the start having
        // visited every up node once.
        cursor == start && seen.len() == up.len()
    }

    /// Panics unless the successor pointers form a single cycle over the up
    /// nodes; bring-up tests use this as their ring-structure assertion.
    pub fn assert_single_cycle(&self) {
        assert!(
            self.is_single_cycle(),
            "successor pointers do not form a single {}-node cycle (ring_correctness = {:.3})",
            self.sim.up_count(),
            self.ring_correctness()
        );
    }

    /// Issues a lookup for `key` at `origin`.
    pub fn issue_lookup_from(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        let event = self.fresh_event();
        self.inject_lookup(origin, key, event)
    }

    fn inject_lookup(&mut self, origin: &str, key: Uint160, event: i64) -> LookupHandle {
        let handle = LookupHandle {
            origin: origin.to_string(),
            key,
            event,
            issued_at: self.sim.now(),
        };
        self.sim
            .inject(origin, chord::lookup_tuple(origin, key, origin, event));
        handle
    }

    /// Issues a lookup for a uniformly random key from a random up node.
    pub fn issue_random_lookup(&mut self) -> LookupHandle {
        let idx = self.rng.gen_range(0..self.sim.up_count());
        let origin = self
            .sim
            .up_addresses_iter()
            .nth(idx)
            .expect("up_count bounds the index")
            .to_string();
        let key = Uint160::hash_of(&self.rng.gen::<[u8; 16]>());
        self.issue_lookup_from(&origin, key)
    }

    /// Looks for the completion of a previously issued lookup.
    pub fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome> {
        let host = self.sim.node(&handle.origin)?;
        let results = host.node().collector("lookupResults")?;
        let results = results.lock();
        let (arrived_at, tuple) = results
            .iter()
            .find(|(_, t)| t.field(4) == &Value::Int(handle.event))?;
        let owner = tuple.field(3).to_display_string();
        let latency = arrived_at.saturating_sub(handle.issued_at).as_secs_f64();
        Some(LookupOutcome {
            owner,
            latency,
            hops: self.count_hops(handle.event),
        })
    }

    /// Counts how many overlay hops a lookup event traversed by counting the
    /// nodes that observed the `lookup` tuple (the origin's own injection is
    /// excluded).
    fn count_hops(&self, event: i64) -> usize {
        let mut seen = 0usize;
        for addr in &self.addrs {
            if let Some(host) = self.sim.node(addr) {
                if let Some(collector) = host.node().collector("lookup") {
                    seen += collector
                        .lock()
                        .iter()
                        .filter(|(_, t)| t.field(3) == &Value::Int(event))
                        .count();
                }
            }
        }
        seen.saturating_sub(1)
    }

    /// Clears all observation buffers (lookup and result taps) to bound
    /// memory during long experiments.
    pub fn clear_observations(&mut self) {
        for addr in &self.addrs {
            if let Some(host) = self.sim.node(addr) {
                for name in ["lookup", "lookupResults"] {
                    if let Some(c) = host.node().collector(name) {
                        c.lock().clear();
                    }
                }
            }
        }
    }

    /// Crashes a node (fail-stop). Its counters stay in the cluster totals
    /// ([`ChordCluster::storage_ops`], [`ChordCluster::engine_stats`],
    /// [`ChordCluster::eval_errors`], [`ChordCluster::obs_counters`]).
    pub fn crash(&mut self, addr: &str) {
        self.fold_departing(addr);
        self.sim.take_down(addr);
    }

    /// Folds an up node's counters into the departed totals, before its
    /// engine stops counting (a crash) or is dropped (a rejoin).
    fn fold_departing(&mut self, addr: &str) {
        if !self.sim.is_up(addr) {
            return;
        }
        let Some(host) = self.sim.node(addr) else {
            return;
        };
        let node = host.node();
        let stats = node.stats();
        self.departed.storage += node.catalog().stats_total();
        self.departed.engine.absorb(stats);
        self.departed.eval_errors += stats.eval_errors;
        if let Some(obs) = node.obs() {
            p2_obs::merge_counters(&mut self.departed.obs, obs.counters());
        }
    }

    /// Replaces a crashed node with a fresh instance that rejoins through
    /// the landmark.
    pub fn rejoin(&mut self, addr: &str) {
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let landmark = if addr == self.addrs[0] {
            None
        } else {
            Some(self.addrs[0].as_str())
        };
        let host =
            chord::build_node_for(addr, landmark, self.seed, self.opts).expect("chord node plans");
        self.fold_departing(addr);
        self.sim.replace_node(addr, host);
        // A replacement node starts with a fresh engine: re-arm the cluster's
        // observability (and any active trace tag) so its counters and trace
        // ring keep participating in cluster-wide aggregation.
        if self.obs_enabled {
            let meta = chord::shared_plan_for(self.opts).obs_meta();
            let tag = self.trace_tag.clone();
            if let Some(host) = self.sim.node_mut(addr) {
                host.node_mut().enable_obs(meta);
                if let Some(tag) = tag {
                    host.node_mut()
                        .set_trace_tag(tag, p2_obs::DEFAULT_TRACE_CAP);
                }
            }
        }
        let event = self.fresh_event();
        self.sim.inject(addr, chord::join_tuple(addr, event));
    }

    /// Average bytes of soft state per up node (working-set style metric).
    pub fn mean_resident_bytes(&self) -> f64 {
        let mut count = 0usize;
        let mut total = 0usize;
        for id in self.sim.up_ids() {
            count += 1;
            total += self.sim.node_by_id(id).node().resident_table_bytes();
        }
        if count == 0 {
            return 0.0;
        }
        total as f64 / count as f64
    }

    /// Table-storage operation counters summed over all nodes, crashed
    /// ones included (indexed vs. full-scan lookups, expirations,
    /// evictions). Lets experiments verify that the hot probe paths stay on
    /// an index.
    pub fn storage_ops(&self) -> crate::metrics::StorageOps {
        let mut total = self.departed.storage;
        for id in self.sim.up_ids() {
            total += self.sim.node_by_id(id).node().catalog().stats_total();
        }
        total.into()
    }

    /// Simulator event-loop counters (events processed, wakeup share, live
    /// timer entries). Lets experiments verify the event core stays
    /// tombstone-free at scale.
    pub fn sim_ops(&self) -> crate::metrics::SimOps {
        crate::metrics::SimOps {
            events_processed: self.sim.events_processed(),
            wakeups_processed: self.sim.wakeups_processed(),
            packets_in_flight: self.sim.packets_in_flight(),
            scheduled_wakeups: self.sim.scheduled_wakeups(),
        }
    }

    /// Engine ingress counters summed over all nodes, crashed ones included
    /// (injected tuples, drops for names with no entry port), the
    /// dataflow-layer companion of [`ChordCluster::storage_ops`] and
    /// [`ChordCluster::sim_ops`].
    pub fn engine_stats(&self) -> crate::metrics::EngineOps {
        let mut total = self.departed.engine;
        for id in self.sim.up_ids() {
            total.absorb(self.sim.node_by_id(id).node().stats());
        }
        total
    }

    /// PEL evaluation errors summed over all nodes, crashed ones included
    /// (`p2_dataflow::EngineStats::eval_errors`): rule evaluations that
    /// failed and dropped their tuple. 0 in a clean run.
    pub fn eval_errors(&self) -> u64 {
        let up = self.sim.up_ids();
        let live: u64 = up
            .map(|id| self.sim.node_by_id(id).node().stats().eval_errors)
            .sum();
        self.departed.eval_errors + live
    }

    /// Turns on the rule-level profiler on every node. Counters start at
    /// zero from this instant; calling this mid-run therefore profiles the
    /// steady state, not bring-up. Tracing stays off until
    /// [`ChordCluster::issue_traced_lookup`] arms a tag.
    pub fn enable_observability(&mut self) {
        let meta = chord::shared_plan_for(self.opts).obs_meta();
        let addrs = self.addrs.clone();
        for addr in &addrs {
            if let Some(host) = self.sim.node_mut(addr) {
                host.node_mut().enable_obs(meta.clone());
            }
        }
        self.departed.obs.clear();
        self.obs_enabled = true;
    }

    /// True once [`ChordCluster::enable_observability`] has run.
    pub fn observability_enabled(&self) -> bool {
        self.obs_enabled
    }

    /// Issues a lookup whose event identifier is armed as the trace tag on
    /// every node: each node records the tagged tuple's arrival, the rule
    /// firings it feeds, and the sends it causes. Enables observability
    /// first if it is not already on. The previous trace (if any) is
    /// discarded.
    pub fn issue_traced_lookup(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        if !self.obs_enabled {
            self.enable_observability();
        }
        let event = self.fresh_event();
        let tag = Value::Int(event);
        let addrs = self.addrs.clone();
        for addr in &addrs {
            if let Some(host) = self.sim.node_mut(addr) {
                host.node_mut()
                    .set_trace_tag(tag.clone(), p2_obs::DEFAULT_TRACE_CAP);
            }
        }
        self.trace_tag = Some(tag);
        self.inject_lookup(origin, key, event)
    }

    /// Drains every node's trace ring into one deterministically ordered
    /// event list (sorted by virtual time, then node address, then per-node
    /// sequence number).
    pub fn drain_trace(&mut self) -> Vec<p2_obs::TraceEvent> {
        let mut events = Vec::new();
        let addrs = self.addrs.clone();
        for addr in &addrs {
            if let Some(host) = self.sim.node_mut(addr) {
                events.extend(host.node_mut().drain_trace());
            }
        }
        p2_obs::sort_trace(&mut events);
        events
    }

    /// Drains the trace as one JSONL document (one compact JSON object per
    /// event, in the deterministic [`ChordCluster::drain_trace`] order).
    pub fn drain_trace_jsonl(&mut self) -> String {
        let events = self.drain_trace();
        p2_obs::trace_jsonl(&events)
    }

    /// Per-element profiler counters merged over all nodes, crashed ones
    /// included (element index = plan spec index, identical on every node).
    pub fn obs_counters(&self) -> Vec<p2_obs::ElemCounters> {
        let mut merged = self.departed.obs.clone();
        for id in self.sim.up_ids() {
            if let Some(obs) = self.sim.node_by_id(id).node().obs() {
                p2_obs::merge_counters(&mut merged, obs.counters());
            }
        }
        merged
    }

    /// The cluster-wide rule-level profile: per-rule invocation and
    /// wasted-poke counters bucketed by the static `RuleClass` analysis.
    pub fn obs_report(&self) -> p2_obs::ProfileReport {
        let meta = chord::shared_plan_for(self.opts).obs_meta();
        p2_obs::build_report(&meta, &self.obs_counters())
    }
}

/// A cluster of hand-coded baseline Chord nodes on the same substrate.
pub struct BaselineCluster {
    /// The underlying simulator.
    pub sim: Simulator<BaselineChord>,
    addrs: Vec<String>,
    next_event: i64,
    rng: SmallRng,
}

impl BaselineCluster {
    /// Builds and boots an `n`-node baseline ring (same bring-up protocol as
    /// [`ChordCluster::build`]).
    pub fn build(n: usize, warmup_secs: u64, seed: u64) -> BaselineCluster {
        let mut sim = Simulator::new(NetworkConfig::emulab_default(seed));
        let addrs: Vec<String> = (0..n).map(node_addr).collect();
        for (i, addr) in addrs.iter().enumerate() {
            let landmark = if i == 0 {
                None
            } else {
                Some(addrs[0].as_str())
            };
            let node = BaselineChord::new(
                addr,
                landmark,
                seed.wrapping_add(1000 + i as u64),
                BaselineConfig::default(),
            );
            sim.add_node(addr.clone(), node);
        }
        let mut cluster = BaselineCluster {
            sim,
            addrs,
            next_event: 5_000_000,
            rng: SmallRng::seed_from_u64(seed ^ 0xBA5E),
        };
        for addr in cluster.addrs.clone() {
            cluster.sim.start_node(&addr);
            cluster.sim.run_for(SimTime::from_millis(500));
        }
        cluster.sim.run_for(SimTime::from_secs(warmup_secs));
        cluster.sim.reset_stats();
        cluster
    }

    /// All node addresses.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Advances virtual time.
    pub fn run_for(&mut self, secs: f64) {
        self.sim.run_for(SimTime::from_secs_f64(secs));
    }

    /// Fraction of nodes whose first successor is the correct ring
    /// successor.
    pub fn ring_correctness(&self) -> f64 {
        ring_correctness_of(self.sim.up_addresses_iter(), |a| {
            self.sim
                .node(a)
                .and_then(|n| n.successors().first().cloned())
        })
    }

    /// Issues a lookup for `key` from `origin`.
    pub fn issue_lookup_from(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        self.next_event += 1;
        let event = self.next_event;
        let handle = LookupHandle {
            origin: origin.to_string(),
            key,
            event,
            issued_at: self.sim.now(),
        };
        let tuple: Tuple = TupleBuilder::new("lookup")
            .push(origin)
            .push(Value::Id(key))
            .push(origin)
            .push(event)
            .build();
        self.sim.inject(origin, tuple);
        handle
    }

    /// Issues a lookup for a uniformly random key from a random up node.
    pub fn issue_random_lookup(&mut self) -> LookupHandle {
        let idx = self.rng.gen_range(0..self.sim.up_count());
        let origin = self
            .sim
            .up_addresses_iter()
            .nth(idx)
            .expect("up_count bounds the index")
            .to_string();
        let key = Uint160::hash_of(&self.rng.gen::<[u8; 16]>());
        self.issue_lookup_from(&origin, key)
    }

    /// Looks for the completion of a previously issued lookup (hop counts
    /// are not tracked for the baseline).
    pub fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome> {
        let node = self.sim.node(&handle.origin)?;
        let (arrived_at, tuple) = node
            .lookup_results()
            .iter()
            .find(|(_, t)| t.field(4) == &Value::Int(handle.event))?;
        Some(LookupOutcome {
            owner: tuple.field(3).to_display_string(),
            latency: arrived_at.saturating_sub(handle.issued_at).as_secs_f64(),
            hops: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_cluster_forms_and_answers_lookups() {
        let mut cluster = ChordCluster::build(6, 90, 11);
        assert!(cluster.ring_correctness() > 0.99, "ring did not form");
        let key = Uint160::hash_of(b"some object");
        let origin = cluster.addrs()[2].clone();
        let handle = cluster.issue_lookup_from(&origin, key);
        cluster.run_for(8.0);
        let outcome = cluster.outcome(&handle).expect("lookup completes");
        assert_eq!(
            Some(outcome.owner.clone()),
            expected_owner(key, &cluster.up_addrs())
        );
        assert!(outcome.latency > 0.0 && outcome.latency < 8.0);
        assert!(cluster.mean_resident_bytes() > 0.0);
        cluster.clear_observations();
    }

    /// L2 and L3 run on every lookup hop; both must read `finger` through
    /// its group indices, never by walking its rows.
    #[test]
    fn lookups_never_scan_finger() {
        let mut cluster = ChordCluster::build(6, 90, 11);
        let finger_stats = |cluster: &ChordCluster| {
            let mut total = p2_table::TableStats::default();
            for id in cluster.sim.up_ids() {
                let catalog = cluster.sim.node_by_id(id).node().catalog();
                total += catalog.get("finger").expect("chord table").stats();
            }
            total
        };
        let before = finger_stats(&cluster);
        let handles: Vec<LookupHandle> = (0..30)
            .map(|_| {
                let handle = cluster.issue_random_lookup();
                cluster.run_for(1.0);
                handle
            })
            .collect();
        cluster.run_for(8.0);
        let answered = handles.iter().filter(|h| cluster.outcome(h).is_some());
        assert!(answered.count() >= 25, "the ring answers its lookups");
        let after = finger_stats(&cluster);
        assert_eq!(after.full_scans, before.full_scans);
        // At least L2 and L3 once per lookup.
        assert!(after.indexed_lookups - before.indexed_lookups >= 60);
    }

    #[test]
    fn fast_bring_up_forms_a_ring() {
        // The converged boot stays a ring once its timers have run and
        // answers lookups from its injected fingers.
        let mut cluster = ChordCluster::build_fast(8, 300, 17);
        assert!(
            cluster.ring_correctness() > 0.99,
            "fast-boot ring did not form: {}",
            cluster.ring_correctness()
        );
        cluster.assert_single_cycle();
        let key = Uint160::hash_of(b"fast boot object");
        let origin = cluster.addrs()[3].clone();
        let handle = cluster.issue_lookup_from(&origin, key);
        cluster.run_for(8.0);
        let outcome = cluster.outcome(&handle).expect("lookup completes");
        assert_eq!(
            Some(outcome.owner),
            expected_owner(key, &cluster.up_addrs())
        );
        let ops = cluster.sim_ops();
        assert!(ops.events_processed > 0);
        assert!(ops.wakeups_processed > 0);
        assert!(
            ops.scheduled_wakeups <= cluster.len(),
            "timer index leaked entries: {ops:?}"
        );
        cluster.sim.check_consistency();
    }

    /// A rejoining node whose join lookup ends at a dead node stays out of
    /// the ring once its 10 s `join` expires; a reissued join brings it in.
    #[test]
    fn reissued_join_recovers_a_lost_rejoin() {
        let lost_rejoin = || {
            let mut cluster = ChordCluster::build_fast(16, 30, 5);
            let landmark = node_addr(0);
            let mut ring: Vec<(Uint160, String)> = cluster
                .addrs()
                .iter()
                .map(|a| (chord::node_id(a), a.clone()))
                .collect();
            ring.sort();
            // A node and its ring predecessor, where a lookup for the
            // node's own identifier ends; neither is the landmark.
            let pos = (1..ring.len())
                .find(|&p| ring[p].1 != landmark && ring[p - 1].1 != landmark)
                .expect("16 nodes leave such a pair");
            let (pred, node) = (ring[pos - 1].1.clone(), ring[pos].1.clone());
            cluster.crash(&pred);
            cluster.crash(&node);
            cluster.rejoin(&node);
            cluster.run_for(60.0);
            assert!(!cluster.is_joined(&node), "the join lookup was not lost");
            (cluster, node)
        };

        let (mut unretried, node) = lost_rejoin();
        unretried.run_for(240.0);
        assert!(!unretried.is_joined(&node), "a lost join recovered alone");

        // Until the fingers that point at the dead predecessor are fixed or
        // expire, a retry can be lost the same way, so retry every 20 s.
        let (mut cluster, node) = lost_rejoin();
        let retried = (0..12).any(|_| {
            assert_eq!(cluster.reissue_joins(), 1, "one node is un-joined");
            cluster.run_for(20.0);
            cluster.is_joined(&node)
        });
        assert!(retried, "every reissued join was lost");
        assert_eq!(cluster.reissue_joins(), 0);
    }

    /// Crashing and rejoining a node keeps its counters in the cluster
    /// totals: no total ever decreases.
    #[test]
    fn cluster_totals_survive_crash_and_rejoin() {
        let mut cluster = ChordCluster::build_fast(16, 30, 11);
        cluster.enable_observability();
        cluster.run_for(20.0);
        let totals = |c: &ChordCluster| {
            let s = c.storage_ops();
            let e = c.engine_stats();
            let obs = c.obs_counters();
            [
                s.primary_lookups,
                s.indexed_lookups,
                s.full_scans,
                s.expired,
                s.evicted,
                e.handoffs,
                e.injected,
                e.dropped_no_entry,
                e.timers_fired,
                e.sent,
                c.eval_errors(),
                obs.iter().map(|o| o.invocations).sum(),
                obs.iter().map(|o| o.wasted_pokes).sum(),
                c.obs_report().total_pokes,
            ]
        };
        let victim = node_addr(5);
        let mut last = totals(&cluster);
        let mut step = |cluster: &mut ChordCluster, what: &str| {
            let now = totals(cluster);
            for (i, (was, is)) in last.iter().zip(&now).enumerate() {
                assert!(is >= was, "total {i} fell from {was} to {is} after {what}");
            }
            last = now;
        };
        cluster.crash(&victim);
        step(&mut cluster, "the crash");
        cluster.run_for(20.0);
        step(&mut cluster, "running without the node");
        cluster.rejoin(&victim);
        step(&mut cluster, "the rejoin");
        cluster.run_for(20.0);
        step(&mut cluster, "running with the new node");
        assert!(last[5] > 0, "no element calls counted");
        assert!(last[11] > 0, "the profiler counted no invocations");
    }

    #[test]
    fn baseline_cluster_forms_and_answers_lookups() {
        let mut cluster = BaselineCluster::build(6, 150, 13);
        assert!(
            cluster.ring_correctness() > 0.99,
            "baseline ring did not form"
        );
        let mut handles = Vec::new();
        for _ in 0..5 {
            handles.push(cluster.issue_random_lookup());
            cluster.run_for(3.0);
        }
        cluster.run_for(5.0);
        let completed = handles
            .iter()
            .filter(|h| cluster.outcome(h).is_some())
            .count();
        assert!(
            completed >= 4,
            "only {completed}/5 baseline lookups completed"
        );
    }

    #[test]
    fn expected_owner_is_clockwise_successor() {
        let nodes: Vec<String> = (0..4).map(node_addr).collect();
        let mut ids: Vec<Uint160> = nodes.iter().map(|a| chord::node_id(a)).collect();
        ids.sort();
        // A key just below the second-lowest id belongs to that node.
        let key = ids[1].wrapping_sub(Uint160::ONE);
        let owner = expected_owner(key, &nodes).unwrap();
        assert_eq!(chord::node_id(&owner), ids[1]);
    }
}
