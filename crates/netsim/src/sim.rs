//! The discrete-event simulator core.
//!
//! Everything inside the event loop runs on interned [`NodeId`]s: the slot
//! table is a dense `Vec` indexed by id, packet deliveries carry ids, and
//! per-packet latency is two array loads (sender domain, receiver domain)
//! into the topology's precomputed latency matrix. Node wakeups live in a
//! dedicated tombstone-free `TimerIndex` instead of the
//! delivery heap, so rescheduling a node's timer replaces its entry in
//! O(log n) and no superseded entries are ever popped and skipped. String
//! addresses only appear at the public API boundary and are resolved to ids
//! once per call (or once per packet, at dispatch).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use p2_value::{wire, SimTime, Tuple};

use crate::host::{Envelope, Host};
use crate::id::{AddrInterner, NodeId};
use crate::stats::NetStats;
use crate::timer::TimerIndex;
use crate::topology::Topology;

/// Simulator-wide configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// The physical layout and link parameters.
    pub topology: Topology,
    /// Independent per-packet loss probability (0.0 = lossless).
    pub loss_rate: f64,
    /// Seed for the simulator's own randomness (loss decisions).
    pub seed: u64,
}

impl NetworkConfig {
    /// The paper's Emulab-like configuration with no induced loss.
    pub fn emulab_default(seed: u64) -> NetworkConfig {
        NetworkConfig {
            topology: Topology::emulab_default(),
            loss_rate: 0.0,
            seed,
        }
    }
}

struct Slot<H> {
    host: H,
    domain: usize,
    up: bool,
    started: bool,
    link_busy_until: SimTime,
    /// Number of envelopes this node has ever handed to the network. Doubles
    /// as the per-sender emission index that [`loss_roll`] hashes.
    sends: u64,
}

/// Deterministic per-packet loss roll in `[0, 1)`.
///
/// A splitmix64-style hash of `(seed, sender, emission index)` rather than a
/// draw from one global RNG stream: the value a packet rolls depends only on
/// who sent it and how many packets that sender emitted before it, never on
/// how sends from different nodes interleave. A node's drops therefore do
/// not shift when other nodes' traffic changes.
fn loss_roll(seed: u64, src: NodeId, emission: u64) -> f64 {
    let mut x = seed
        ^ (src.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ emission.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Normalizes a user-provided seed (0 is reserved as "unset" by xorshift-era
/// callers; keep the historical substitute so fixed-seed runs stay stable).
fn normalize_seed(seed: u64) -> u64 {
    if seed == 0 {
        0xDEAD_BEEF
    } else {
        seed
    }
}

/// A delivery destination: resolved to an id at dispatch for every known
/// node (the hot path), kept as the raw address for destinations that do
/// not exist yet so they can be re-resolved at arrival time — a node added
/// and started while the packet is in flight still receives it, as in the
/// seed simulator.
#[derive(Debug)]
enum Dst {
    Id(NodeId),
    Unresolved(Arc<str>),
}

/// A packet in flight. Wakeups do not appear here — they live in the
/// [`TimerIndex`].
#[derive(Debug)]
struct Event {
    at: SimTime,
    seq: u64,
    dst: Dst,
    tuple: Tuple,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The discrete-event network simulator, hosting one [`Host`] per overlay
/// node.
pub struct Simulator<H: Host> {
    topology: Topology,
    loss_rate: f64,
    interner: AddrInterner,
    slots: Vec<Slot<H>>,
    events: BinaryHeap<Reverse<Event>>,
    timers: TimerIndex,
    seq: u64,
    now: SimTime,
    seed: u64,
    stats: NetStats,
    deliveries_processed: u64,
    wakeups_processed: u64,
}

impl<H: Host> Simulator<H> {
    /// Creates an empty simulator.
    pub fn new(config: NetworkConfig) -> Simulator<H> {
        let mut topology = config.topology;
        // The matrix is built by `Topology::new`, but the config's fields are
        // public; honor any direct edits made between construction and here.
        topology.rebuild_latency_matrix();
        Simulator {
            topology,
            loss_rate: config.loss_rate,
            interner: AddrInterner::new(),
            slots: Vec::new(),
            events: BinaryHeap::new(),
            timers: TimerIndex::default(),
            seq: 0,
            now: SimTime::ZERO,
            seed: normalize_seed(config.seed),
            stats: NetStats::default(),
            deliveries_processed: 0,
            wakeups_processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets the traffic counters (used to exclude warm-up traffic from
    /// measurements).
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// Total events processed by [`Simulator::run_until`] since construction
    /// (packet deliveries, arrival-time drops, and wakeups). This is the
    /// denominator for event-loop throughput benchmarks.
    pub fn events_processed(&self) -> u64 {
        self.deliveries_processed + self.wakeups_processed
    }

    /// Wakeup events processed since construction.
    pub fn wakeups_processed(&self) -> u64 {
        self.wakeups_processed
    }

    /// Mutable access to the topology (placement of future nodes).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The interned id of a node address, if the node was ever added.
    pub fn node_id(&self, addr: &str) -> Option<NodeId> {
        self.interner.get(addr)
    }

    /// The address behind an interned id.
    pub fn addr_of(&self, id: NodeId) -> &str {
        self.interner.addr(id)
    }

    /// Addresses of all nodes ever added, in insertion order, without
    /// cloning. Prefer this over [`Simulator::addresses`] in loops.
    pub fn addresses_iter(&self) -> impl Iterator<Item = &str> {
        self.interner.iter()
    }

    /// Addresses of all nodes ever added, in insertion order.
    pub fn addresses(&self) -> Vec<String> {
        self.addresses_iter().map(str::to_string).collect()
    }

    /// Addresses of nodes currently up, without cloning. Prefer this over
    /// [`Simulator::up_addresses`] in loops.
    pub fn up_addresses_iter(&self) -> impl Iterator<Item = &str> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.up)
            .map(|(i, _)| self.interner.addr(NodeId::from_index(i)))
    }

    /// Addresses of nodes currently up.
    pub fn up_addresses(&self) -> Vec<String> {
        self.up_addresses_iter().map(str::to_string).collect()
    }

    /// Ids of nodes currently up, in insertion order.
    pub fn up_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.up)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Number of nodes currently up.
    pub fn up_count(&self) -> usize {
        self.slots.iter().filter(|s| s.up).count()
    }

    /// Total number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Shared access to a node's host.
    pub fn node(&self, addr: &str) -> Option<&H> {
        self.node_id(addr).map(|id| &self.slots[id.index()].host)
    }

    /// Mutable access to a node's host (state inspection in experiments).
    pub fn node_mut(&mut self, addr: &str) -> Option<&mut H> {
        self.node_id(addr)
            .map(|id| &mut self.slots[id.index()].host)
    }

    /// Shared access to a node's host by id.
    pub fn node_by_id(&self, id: NodeId) -> &H {
        &self.slots[id.index()].host
    }

    /// True if the node exists and is up.
    pub fn is_up(&self, addr: &str) -> bool {
        self.node_id(addr)
            .map(|id| self.slots[id.index()].up)
            .unwrap_or(false)
    }

    /// Adds a node (initially up but not started) and places it in the
    /// topology. Returns the node's interned id.
    pub fn add_node(&mut self, addr: impl Into<String>, host: H) -> NodeId {
        let addr = addr.into();
        let domain = self.topology.place(addr.clone());
        let id = self.interner.intern(&addr);
        assert_eq!(
            id.index(),
            self.slots.len(),
            "address {addr:?} was already added; use replace_node"
        );
        self.slots.push(Slot {
            host,
            domain,
            up: true,
            started: false,
            link_busy_until: SimTime::ZERO,
            sends: 0,
        });
        self.timers.grow(self.slots.len());
        id
    }

    /// Boots a node at the current virtual time.
    pub fn start_node(&mut self, addr: &str) {
        if let Some(id) = self.node_id(addr) {
            self.start_node_id(id);
        }
    }

    /// Boots a node by id at the current virtual time.
    pub fn start_node_id(&mut self, id: NodeId) {
        let now = self.now;
        let slot = &mut self.slots[id.index()];
        if !slot.up {
            return;
        }
        slot.started = true;
        let out = slot.host.start(now);
        self.dispatch(id, out);
        self.schedule_wakeup(id);
    }

    /// Boots every node that is up and not yet started, in insertion order.
    /// Batched bring-up path for large rings.
    pub fn start_all(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].up && !self.slots[i].started {
                self.start_node_id(NodeId::from_index(i));
            }
        }
    }

    /// Delivers an application-level tuple to a node immediately (e.g. a
    /// lookup request or a join event injected by the workload generator).
    pub fn inject(&mut self, addr: &str, tuple: Tuple) {
        if let Some(id) = self.node_id(addr) {
            self.inject_id(id, tuple);
        }
    }

    /// Delivers an application-level tuple to a node by id.
    pub fn inject_id(&mut self, id: NodeId, tuple: Tuple) {
        let now = self.now;
        let slot = &mut self.slots[id.index()];
        if !slot.up {
            return;
        }
        let out = slot.host.deliver(tuple, now);
        self.dispatch(id, out);
        self.schedule_wakeup(id);
    }

    /// Injects a batch of tuples at the current virtual time, in order.
    /// Batched bring-up / workload path for large rings: consecutive tuples
    /// for the same node are handed to the host in one
    /// [`Host::deliver_many`] call, amortizing per-tuple dispatch.
    pub fn inject_many<S: AsRef<str>>(&mut self, batch: impl IntoIterator<Item = (S, Tuple)>) {
        let mut pending: Option<(NodeId, Vec<Tuple>)> = None;
        for (addr, tuple) in batch {
            let Some(id) = self.node_id(addr.as_ref()) else {
                continue;
            };
            match &mut pending {
                Some((pid, tuples)) if *pid == id => tuples.push(tuple),
                _ => {
                    if let Some((pid, tuples)) = pending.take() {
                        self.inject_batch_id(pid, tuples);
                    }
                    pending = Some((id, vec![tuple]));
                }
            }
        }
        if let Some((pid, tuples)) = pending.take() {
            self.inject_batch_id(pid, tuples);
        }
    }

    /// Delivers a same-instant batch to one node through the host's batched
    /// entry point.
    fn inject_batch_id(&mut self, id: NodeId, tuples: Vec<Tuple>) {
        let now = self.now;
        let slot = &mut self.slots[id.index()];
        if !slot.up {
            return;
        }
        let out = match tuples.len() {
            1 => slot
                .host
                .deliver(tuples.into_iter().next().expect("len checked"), now),
            _ => slot.host.deliver_many(tuples, now),
        };
        self.dispatch(id, out);
        self.schedule_wakeup(id);
    }

    /// Marks a node as failed: its timers stop and packets addressed to it
    /// are dropped.
    pub fn take_down(&mut self, addr: &str) {
        if let Some(id) = self.node_id(addr) {
            self.slots[id.index()].up = false;
            self.timers.cancel(id);
        }
    }

    /// Replaces a failed node with a fresh host (crash-rejoin churn) and
    /// boots it at the current time. The address keeps its interned id and
    /// topology placement.
    pub fn replace_node(&mut self, addr: &str, host: H) {
        let id = match self.node_id(addr) {
            Some(id) => {
                let slot = &mut self.slots[id.index()];
                slot.host = host;
                slot.up = true;
                slot.started = false;
                slot.link_busy_until = self.now;
                self.timers.cancel(id);
                id
            }
            None => self.add_node(addr.to_string(), host),
        };
        self.start_node_id(id);
    }

    /// Runs the simulation until virtual time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            // The next event is the lowest (time, seq) across the delivery
            // heap and the timer index; seq preserves a deterministic order
            // for events scheduled at the same microsecond.
            let next_delivery = self.events.peek().map(|Reverse(e)| (e.at, e.seq));
            let next_wakeup = self.timers.peek().map(|(at, seq, _)| (at, seq));
            let (wakeup_first, at) = match (next_delivery, next_wakeup) {
                (None, None) => break,
                (Some((da, _)), None) => (false, da),
                (None, Some((wa, _))) => (true, wa),
                (Some(d), Some(w)) => {
                    if w < d {
                        (true, w.0)
                    } else {
                        (false, d.0)
                    }
                }
            };
            if at > until {
                break;
            }
            if at > self.now {
                self.now = at;
            }
            if wakeup_first {
                let (_, id) = self.timers.pop_first().expect("peeked");
                self.wakeups_processed += 1;
                let now = self.now;
                let slot = &mut self.slots[id.index()];
                if slot.up && slot.started {
                    let out = slot.host.advance_to(now);
                    self.dispatch(id, out);
                    self.schedule_wakeup(id);
                }
            } else {
                let Reverse(event) = self.events.pop().expect("peeked");
                self.deliveries_processed += 1;
                let now = self.now;
                let id = match event.dst {
                    Dst::Id(id) => Some(id),
                    // Rare path: the destination did not exist at dispatch;
                    // it may have been added while the packet was in flight.
                    Dst::Unresolved(ref addr) => self.interner.get(addr),
                };
                match id {
                    Some(id) if self.slots[id.index()].up && self.slots[id.index()].started => {
                        self.stats.record_delivery();
                        let slot = &mut self.slots[id.index()];
                        let out = slot.host.deliver(event.tuple, now);
                        self.dispatch(id, out);
                        self.schedule_wakeup(id);
                    }
                    _ => self.stats.record_drop(),
                }
            }
        }
        self.now = until;
    }

    /// Runs the simulation for an additional duration.
    pub fn run_for(&mut self, duration: SimTime) {
        self.run_until(self.now + duration);
    }

    /// Queues envelopes produced by `src` as network transmissions. The
    /// destination address is resolved to a [`NodeId`] here, once per packet;
    /// nothing past this point touches strings.
    fn dispatch(&mut self, src: NodeId, envelopes: Vec<Envelope>) {
        for env in envelopes {
            let payload = wire::encoded_size(&env.tuple) + wire::UDP_IP_HEADER;
            self.stats
                .record_send(self.interner.addr(src), env.tuple.name(), payload);

            let emission = self.slots[src.index()].sends;
            self.slots[src.index()].sends += 1;
            if self.loss_rate > 0.0 && loss_roll(self.seed, src, emission) < self.loss_rate {
                self.stats.record_drop();
                continue;
            }

            // Serialization on the sender's access link (the link is busy
            // until the previous packet has left).
            let tx_delay = self.topology.access_tx_delay(payload);
            let slot = &mut self.slots[src.index()];
            let start = slot.link_busy_until.max(self.now);
            let departure = start + tx_delay;
            slot.link_busy_until = departure;
            let src_domain = slot.domain;

            let (dst, latency) = match self.interner.get(env.dst.as_ref()) {
                Some(dst) if dst == src => (Dst::Id(dst), SimTime::ZERO),
                Some(dst) => (
                    Dst::Id(dst),
                    self.topology
                        .domain_latency(src_domain, self.slots[dst.index()].domain),
                ),
                // Unknown destination: keep the address and re-resolve at
                // arrival (the node may be added while the packet flies).
                // Latency honors any placement already made via
                // `topology_mut`, as the seed did; unplaced falls to domain 0.
                None => {
                    let dst_domain = self.topology.domain_of(env.dst.as_ref()).unwrap_or(0);
                    (
                        Dst::Unresolved(env.dst),
                        self.topology.domain_latency(src_domain, dst_domain),
                    )
                }
            };
            let arrival = departure + latency;
            self.seq += 1;
            self.events.push(Reverse(Event {
                at: arrival,
                seq: self.seq,
                dst,
                tuple: env.tuple,
            }));
        }
    }

    /// (Re)schedules the node's wakeup to its next timer deadline, replacing
    /// any previously scheduled entry (no tombstones, no spurious wakeups).
    fn schedule_wakeup(&mut self, id: NodeId) {
        let slot = &self.slots[id.index()];
        if !slot.up || !slot.started {
            return;
        }
        match slot.host.next_deadline() {
            None => self.timers.cancel(id),
            Some(deadline) => {
                let at = deadline.max(self.now);
                if self.timers.deadline_of(id) == Some(at) {
                    return;
                }
                self.seq += 1;
                self.timers.set(id, at, self.seq);
            }
        }
    }

    /// Number of scheduled wakeup entries (at most one per node — a
    /// regression guard against tombstone accumulation).
    pub fn scheduled_wakeups(&self) -> usize {
        self.timers.len()
    }

    /// Number of packets currently in flight.
    pub fn packets_in_flight(&self) -> usize {
        self.events.len()
    }

    /// Verifies the internal indices agree (interner ⇄ slots ⇄ timer index);
    /// panics on the first inconsistency. Test support.
    pub fn check_consistency(&self) {
        assert_eq!(
            self.interner.len(),
            self.slots.len(),
            "interner and slot table disagree on node count"
        );
        self.timers.check_consistency();
        assert!(
            self.timers.len() <= self.slots.len(),
            "more timer entries than nodes"
        );
        for i in 0..self.slots.len() {
            let id = NodeId::from_index(i);
            assert_eq!(
                self.interner.get(self.interner.addr(id)),
                Some(id),
                "interner round-trip failed for {id}"
            );
            if let Some(deadline) = self.timers.deadline_of(id) {
                let slot = &self.slots[i];
                assert!(
                    slot.up && slot.started,
                    "down or unstarted node {id} has a timer entry at {deadline}"
                );
            }
        }
        for Reverse(e) in self.events.iter() {
            if let Dst::Id(id) = e.dst {
                assert!(
                    id.index() < self.slots.len(),
                    "in-flight packet addressed to dangling {id}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::TupleBuilder;

    /// A toy host that answers every `ping` with a `pong` back to the sender
    /// and sends one `hello` to a configured peer every 5 seconds.
    struct Toy {
        addr: String,
        peer: Option<String>,
        next_hello: Option<SimTime>,
        pongs_received: usize,
        pings_received: usize,
        spurious_wakeups: usize,
    }

    impl Toy {
        fn new(addr: &str, peer: Option<&str>) -> Toy {
            Toy {
                addr: addr.to_string(),
                peer: peer.map(str::to_string),
                next_hello: None,
                pongs_received: 0,
                pings_received: 0,
                spurious_wakeups: 0,
            }
        }
    }

    impl Host for Toy {
        fn start(&mut self, now: SimTime) -> Vec<Envelope> {
            if self.peer.is_some() {
                self.next_hello = Some(now + SimTime::from_secs(5));
            }
            Vec::new()
        }

        fn deliver(&mut self, tuple: Tuple, _now: SimTime) -> Vec<Envelope> {
            match tuple.name() {
                "ping" => {
                    self.pings_received += 1;
                    let from = tuple.field(0).to_display_string();
                    vec![Envelope::new(
                        from,
                        TupleBuilder::new("pong").push(self.addr.as_str()).build(),
                    )]
                }
                "pong" => {
                    self.pongs_received += 1;
                    Vec::new()
                }
                _ => Vec::new(),
            }
        }

        fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
            let mut out = Vec::new();
            match self.next_hello {
                Some(t) if t <= now => {
                    if let Some(peer) = &self.peer {
                        out.push(Envelope::new(
                            peer.clone(),
                            TupleBuilder::new("ping").push(self.addr.as_str()).build(),
                        ));
                    }
                    self.next_hello = Some(t + SimTime::from_secs(5));
                }
                _ => self.spurious_wakeups += 1,
            }
            out
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.next_hello
        }
    }

    fn two_node_sim(loss: f64) -> Simulator<Toy> {
        let mut config = NetworkConfig::emulab_default(7);
        config.loss_rate = loss;
        let mut sim = Simulator::new(config);
        sim.add_node("n0", Toy::new("n0", Some("n1")));
        sim.add_node("n1", Toy::new("n1", None));
        sim.start_node("n0");
        sim.start_node("n1");
        sim
    }

    #[test]
    fn periodic_ping_pong_over_the_network() {
        let mut sim = two_node_sim(0.0);
        sim.run_until(SimTime::from_secs(26));
        // Pings at t=5,10,15,20,25 -> 5 round trips.
        assert_eq!(sim.node("n1").unwrap().pings_received, 5);
        assert_eq!(sim.node("n0").unwrap().pongs_received, 5);
        assert_eq!(sim.stats().messages_sent, 10);
        assert_eq!(sim.stats().messages_delivered, 10);
        assert!(sim.stats().bytes_sent > 0);
        assert!(sim.stats().bytes_by_name.contains_key("ping"));
        assert!(sim.events_processed() >= 10);
        sim.check_consistency();
    }

    #[test]
    fn latency_delays_delivery() {
        let mut sim = two_node_sim(0.0);
        // n0 and n1 are in different domains (round-robin), so one-way
        // latency is ~104 ms; run until just before the first ping arrives.
        sim.run_until(SimTime::from_millis(5_100));
        assert_eq!(sim.node("n1").unwrap().pings_received, 0);
        sim.run_until(SimTime::from_millis(5_200));
        assert_eq!(sim.node("n1").unwrap().pings_received, 1);
    }

    #[test]
    fn loss_drops_packets() {
        let mut sim = two_node_sim(1.0);
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.node("n1").unwrap().pings_received, 0);
        assert!(sim.stats().messages_dropped > 0);
    }

    #[test]
    fn down_nodes_do_not_receive_or_tick() {
        let mut sim = two_node_sim(0.0);
        sim.run_until(SimTime::from_secs(7));
        sim.take_down("n1");
        sim.run_until(SimTime::from_secs(30));
        // Only the first ping (t=5) arrived before the failure.
        assert_eq!(sim.node("n1").unwrap().pings_received, 1);
        assert!(sim.stats().messages_dropped > 0);
        assert_eq!(sim.up_count(), 1);
        assert!(!sim.is_up("n1"));
        sim.check_consistency();

        // Rejoin with a fresh host: traffic flows again.
        sim.replace_node("n1", Toy::new("n1", None));
        sim.run_until(SimTime::from_secs(60));
        assert!(sim.node("n1").unwrap().pings_received > 0);
        assert!(sim.is_up("n1"));
        sim.check_consistency();
    }

    #[test]
    fn injection_reaches_the_target_node() {
        let mut sim = two_node_sim(0.0);
        sim.inject("n1", TupleBuilder::new("ping").push("n0").build());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node("n1").unwrap().pings_received, 1);
        assert_eq!(sim.node("n0").unwrap().pongs_received, 1);
    }

    #[test]
    fn determinism_for_a_fixed_seed() {
        let run = || {
            let mut sim = two_node_sim(0.3);
            sim.run_until(SimTime::from_secs(100));
            (
                sim.stats().messages_delivered,
                sim.stats().messages_dropped,
                sim.stats().bytes_sent,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_spurious_wakeups_ever_fire() {
        // Toy counts advance_to calls with nothing due. The tombstone-free
        // timer index must never produce one, even across churn.
        let mut sim = two_node_sim(0.0);
        sim.run_until(SimTime::from_secs(40));
        sim.take_down("n0");
        sim.replace_node("n0", Toy::new("n0", Some("n1")));
        sim.run_until(SimTime::from_secs(120));
        for addr in ["n0", "n1"] {
            assert_eq!(
                sim.node(addr).unwrap().spurious_wakeups,
                0,
                "{addr} saw a spurious wakeup"
            );
        }
        // At most one scheduled wakeup per node, no tombstones.
        assert!(sim.scheduled_wakeups() <= sim.node_count());
        sim.check_consistency();
    }

    #[test]
    fn rescheduling_earlier_cancels_the_superseded_wakeup() {
        // n0's periodic hello is at t=5; delivering a ping to n0 makes the
        // simulator re-examine its deadline. The timer index must keep
        // exactly one entry for n0 throughout.
        let mut sim = two_node_sim(0.0);
        sim.inject("n0", TupleBuilder::new("pong").push("n1").build());
        assert!(sim.scheduled_wakeups() <= 2);
        sim.run_until(SimTime::from_secs(26));
        assert_eq!(sim.node("n1").unwrap().pings_received, 5);
        assert_eq!(sim.node("n0").unwrap().spurious_wakeups, 0);
        assert_eq!(sim.node("n1").unwrap().spurious_wakeups, 0);
    }

    #[test]
    fn batched_bring_up_matches_manual_bring_up() {
        let build = |batched: bool| {
            let mut sim: Simulator<Toy> = Simulator::new(NetworkConfig::emulab_default(7));
            sim.add_node("n0", Toy::new("n0", Some("n1")));
            sim.add_node("n1", Toy::new("n1", None));
            if batched {
                sim.start_all();
                sim.inject_many([("n1", TupleBuilder::new("ping").push("n0").build())]);
            } else {
                sim.start_node("n0");
                sim.start_node("n1");
                sim.inject("n1", TupleBuilder::new("ping").push("n0").build());
            }
            sim.run_until(SimTime::from_secs(26));
            (
                sim.stats().messages_sent,
                sim.stats().messages_delivered,
                sim.stats().bytes_sent,
            )
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn packet_to_a_node_added_mid_flight_is_delivered() {
        // n0 pings "n2" before n2 exists; n2 is added and started while the
        // packet is in flight and must still receive it (destinations are
        // re-resolved at arrival time).
        let mut sim = two_node_sim(0.0);
        sim.inject("n0", TupleBuilder::new("ping").push("n2").build());
        // The pong to "n2" is now in flight (unplaced destinations get
        // domain-0 latency: ~4 ms away).
        sim.run_for(SimTime::from_millis(2));
        sim.add_node("n2", Toy::new("n2", None));
        sim.start_node("n2");
        sim.run_for(SimTime::from_secs(1));
        assert_eq!(sim.node("n2").unwrap().pongs_received, 1);
        sim.check_consistency();

        // A packet to an address that never materializes is dropped at
        // arrival, not lost silently at dispatch.
        let drops_before = sim.stats().messages_dropped;
        sim.inject("n0", TupleBuilder::new("ping").push("ghost").build());
        sim.run_for(SimTime::from_secs(1));
        assert_eq!(sim.stats().messages_dropped, drops_before + 1);
    }

    #[test]
    fn ids_are_stable_across_replacement() {
        let mut sim = two_node_sim(0.0);
        let id = sim.node_id("n1").unwrap();
        sim.take_down("n1");
        sim.replace_node("n1", Toy::new("n1", None));
        assert_eq!(sim.node_id("n1"), Some(id));
        assert_eq!(sim.addr_of(id), "n1");
        assert_eq!(sim.node_by_id(id).addr, "n1");
        assert_eq!(sim.up_ids().count(), 2);
        assert_eq!(
            sim.up_addresses_iter().collect::<Vec<_>>(),
            vec!["n0", "n1"]
        );
        assert_eq!(sim.addresses_iter().count(), 2);
    }
}
