//! Parallel sharded simulation: a deterministic multi-core executor.
//!
//! [`ParSimulator`] mirrors [`Simulator`]'s API but shards
//! nodes across a fixed pool of worker threads (`NodeId` modulo worker
//! count) and runs **conservative time-window synchronization**:
//!
//! 1. Every round, each shard publishes the timestamp of its earliest
//!    pending event; the global minimum `T0` and the lookahead window `W`
//!    (the minimum cross-node link latency from
//!    [`Topology::min_latency`](crate::Topology::min_latency)) define the
//!    round's *horizon* `T0 + W`.
//! 2. Each worker independently executes every delivery and wakeup of its
//!    own shard with `time < horizon`. This is sound because any packet a
//!    node emits at `t ≥ T0` arrives no earlier than `t + W ≥ horizon`:
//!    nothing a shard does inside the window can affect another shard
//!    *within* that window.
//! 3. Cross-shard packets produced during the window land in per-(source
//!    shard, destination shard) mailboxes and are merged into the
//!    destination shards' event queues at the round barrier.
//!
//! # Determinism contract
//!
//! A parallel run is bit-for-bit reproducible for a fixed seed **at every
//! worker count**, and reproduces the sequential simulator's [`NetStats`]
//! and events-processed counters on the workloads this repository pins
//! (the golden determinism suite in `crates/harness/tests`). Three
//! mechanisms make that hold:
//!
//! * **Sharding-invariant event ordering.** Every delivery carries the key
//!   `(arrival time, send time, sender id, sender emission index)` assigned
//!   *at send time* from per-sender state, never from arrival or mailbox
//!   order. Shard queues and the mailbox merge both order by this key, so
//!   the per-node delivery sequence is independent of how nodes are
//!   interleaved across workers. On a same-microsecond tie at one node the
//!   parallel engine is deterministic but *defined differently* from the
//!   sequential one: two packets order by `(send time, sender, emission)`
//!   and a packet always precedes a wakeup, whereas the sequential engine
//!   orders both kinds of tie by its global dispatch counter. The engines
//!   therefore agree whenever no two events for the same node collide on
//!   the same microsecond — which the golden suite and the CI gate verify
//!   for the pinned workloads (arrival times carry µs-grained serialization
//!   offsets, so collisions do not occur there).
//! * **Hash-split loss decisions.** Packet loss rolls
//!   `loss_roll(seed, sender, emission index)` — a pure function of
//!   per-sender state shared with the sequential simulator, not a draw from
//!   one global RNG stream that worker interleaving would scramble.
//! * **Merge-ordered accounting.** Worker-local [`NetStats`] and event
//!   counters are merged in shard order at the end of `run_until`; counter
//!   addition commutes, so totals equal the sequential run's.
//!
//! The lookahead must be positive: a topology whose minimum distinct-node
//! latency is zero cannot be windowed (a zero-latency packet could demand
//! same-instant cross-shard delivery), so construction asserts
//! `min_latency ≥ 1 µs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Barrier, Mutex};

use p2_value::{wire, SimTime, Tuple};

use crate::host::{Envelope, Host};
use crate::id::{AddrInterner, NodeId};
use crate::sim::{loss_roll, normalize_seed, NetworkConfig, Simulator};
use crate::stats::NetStats;
use crate::timer::TimerIndex;
use crate::topology::Topology;

/// Sharding-invariant total order on packet deliveries.
///
/// `at` is the arrival time; `sent`, `src` and `emit` identify the emission
/// deterministically (the sender's virtual time, id, and per-sender
/// emission counter). Two distinct packets can never compare equal: `(src,
/// emit)` is unique per emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    sent: SimTime,
    src: u32,
    emit: u64,
}

/// A packet bound for a node of a known shard.
#[derive(Debug)]
struct PEvent {
    key: EventKey,
    /// Index of the destination node within its shard's slot table.
    dst_local: u32,
    tuple: Tuple,
}

impl PartialEq for PEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for PEvent {}

impl Ord for PEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for PEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A packet to a destination address that was unknown when it was sent.
/// Like the sequential simulator's unresolved destinations it is
/// re-resolved later — the node may be added (and started) between runs
/// while the packet is in flight.
#[derive(Debug)]
struct LimboPacket {
    key: EventKey,
    dst: Arc<str>,
    tuple: Tuple,
}

struct PSlot<H> {
    host: H,
    /// Global id of this node (the slot's shard-local index is its position
    /// in the shard's slot table).
    id: NodeId,
    domain: usize,
    up: bool,
    started: bool,
    link_busy_until: SimTime,
    /// Per-sender emission counter; feeds both the delivery-order key and
    /// the loss hash, mirroring the sequential simulator's slot counter.
    sends: u64,
}

/// One worker's share of the simulation: its nodes, their pending
/// deliveries, and their timer index, all keyed by shard-local indices.
struct Shard<H> {
    slots: Vec<PSlot<H>>,
    heap: BinaryHeap<Reverse<PEvent>>,
    timers: TimerIndex,
    timer_seq: u64,
    stats: NetStats,
    deliveries_processed: u64,
    wakeups_processed: u64,
    /// Packets to unknown destinations emitted during the current run;
    /// collected into the simulator-level limbo at the end of `run_until`.
    limbo_out: Vec<LimboPacket>,
}

impl<H: Host> Shard<H> {
    fn new() -> Shard<H> {
        Shard {
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            timers: TimerIndex::default(),
            timer_seq: 0,
            stats: NetStats::default(),
            deliveries_processed: 0,
            wakeups_processed: 0,
            limbo_out: Vec::new(),
        }
    }

    /// Microsecond timestamp of the earliest pending event (delivery or
    /// wakeup), or `u64::MAX` when idle.
    fn next_event_micros(&self) -> u64 {
        let delivery = self.heap.peek().map(|Reverse(e)| e.key.at.as_micros());
        let wakeup = self.timers.peek().map(|(at, _, _)| at.as_micros());
        delivery.unwrap_or(u64::MAX).min(wakeup.unwrap_or(u64::MAX))
    }

    /// (Re)schedules a node's wakeup to its next deadline, exactly like the
    /// sequential simulator (at most one live entry per node, deadline
    /// clamped to `now`).
    fn schedule_wakeup(&mut self, local: usize, now: SimTime) {
        let slot = &self.slots[local];
        if !slot.up || !slot.started {
            return;
        }
        let lid = NodeId::from_index(local);
        match slot.host.next_deadline() {
            None => self.timers.cancel(lid),
            Some(deadline) => {
                let at = deadline.max(now);
                if self.timers.deadline_of(lid) == Some(at) {
                    return;
                }
                self.timer_seq += 1;
                self.timers.set(lid, at, self.timer_seq);
            }
        }
    }

    /// Routes one emitted batch: in-shard packets go straight into the
    /// local heap, cross-shard packets into the staging buffer for the
    /// round's mailbox exchange, unknown destinations into the limbo list.
    fn dispatch(
        &mut self,
        local: usize,
        envelopes: Vec<Envelope>,
        now: SimTime,
        ctx: &ShardCtx<'_>,
        staging: &mut [Vec<PEvent>],
    ) {
        for env in envelopes {
            let routed = route_packet(
                env,
                now,
                &mut self.slots[local],
                &mut self.stats,
                ctx.topology,
                ctx.interner,
                ctx.locate,
                ctx.domains,
                ctx.loss_rate,
                ctx.seed,
            );
            match routed {
                None => {}
                Some(Routed::Event(shard, event)) => {
                    if shard as usize == ctx.me {
                        self.heap.push(Reverse(event));
                    } else {
                        staging[shard as usize].push(event);
                    }
                }
                Some(Routed::Limbo(packet)) => self.limbo_out.push(packet),
            }
        }
    }

    /// Executes every delivery and wakeup with `time < horizon`, in
    /// `(time, key)` order with deliveries before wakeups on a time tie.
    fn run_window(&mut self, horizon: SimTime, ctx: &ShardCtx<'_>, staging: &mut [Vec<PEvent>]) {
        loop {
            let next_delivery = self.heap.peek().map(|Reverse(e)| e.key.at);
            let next_wakeup = self.timers.peek().map(|(at, _, _)| at);
            let take_wakeup = match (next_delivery, next_wakeup) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(d), Some(w)) => w < d,
            };
            if take_wakeup {
                let (at, lid) = self
                    .timers
                    .peek()
                    .map(|(at, _, id)| (at, id))
                    .expect("peeked");
                if at >= horizon {
                    break;
                }
                self.timers.pop_first();
                self.wakeups_processed += 1;
                let local = lid.index();
                if self.slots[local].up && self.slots[local].started {
                    let out = self.slots[local].host.advance_to(at);
                    self.dispatch(local, out, at, ctx, staging);
                    self.schedule_wakeup(local, at);
                }
            } else {
                let at = next_delivery.expect("peeked");
                if at >= horizon {
                    break;
                }
                let Reverse(event) = self.heap.pop().expect("peeked");
                self.deliveries_processed += 1;
                let local = event.dst_local as usize;
                if self.slots[local].up && self.slots[local].started {
                    self.stats.record_delivery();
                    let out = self.slots[local].host.deliver(event.tuple, at);
                    self.dispatch(local, out, at, ctx, staging);
                    self.schedule_wakeup(local, at);
                } else {
                    self.stats.record_drop();
                }
            }
        }
    }
}

/// Read-only state a worker shares with every other worker.
#[derive(Clone, Copy)]
struct ShardCtx<'a> {
    me: usize,
    topology: &'a Topology,
    interner: &'a AddrInterner,
    /// `NodeId` → `(shard, shard-local index)`.
    locate: &'a [(u32, u32)],
    /// `NodeId` → topology domain (fixed at `add_node`).
    domains: &'a [usize],
    loss_rate: f64,
    seed: u64,
}

enum Routed {
    /// Deliver to `(shard, event)`.
    Event(u32, PEvent),
    /// Destination address unknown; park until it (maybe) appears.
    Limbo(LimboPacket),
}

/// The shared sender-side packet path: records the send, rolls loss,
/// serializes on the sender's access link, resolves the destination, and
/// stamps the sharding-invariant ordering key. Returns `None` for a lost
/// packet. Used identically by worker threads (via [`Shard::dispatch`]) and
/// the main thread (injections and node boots between runs).
///
/// LOCKSTEP CONTRACT: this is the parallel twin of the sequential
/// `Simulator::dispatch` (`sim.rs`). The two must make byte-identical
/// decisions — same accounting order, same loss roll, same serialization
/// and latency arithmetic, same unresolved-destination fallback — or
/// seq-vs-par equivalence breaks. Any edit here must be mirrored there;
/// the golden suite and the CI gate (`sim_bench --par`) enforce it.
#[allow(clippy::too_many_arguments)]
fn route_packet<H: Host>(
    env: Envelope,
    now: SimTime,
    slot: &mut PSlot<H>,
    stats: &mut NetStats,
    topology: &Topology,
    interner: &AddrInterner,
    locate: &[(u32, u32)],
    domains: &[usize],
    loss_rate: f64,
    seed: u64,
) -> Option<Routed> {
    let src = slot.id;
    let payload = wire::encoded_size(&env.tuple) + wire::UDP_IP_HEADER;
    stats.record_send(interner.addr(src), env.tuple.name(), payload);

    let emit = slot.sends;
    slot.sends += 1;
    if loss_rate > 0.0 && loss_roll(seed, src, emit) < loss_rate {
        stats.record_drop();
        return None;
    }

    let tx_delay = topology.access_tx_delay(payload);
    let start = slot.link_busy_until.max(now);
    let departure = start + tx_delay;
    slot.link_busy_until = departure;
    let src_domain = slot.domain;

    Some(match interner.get(env.dst.as_ref()) {
        Some(dst) => {
            let latency = if dst == src {
                SimTime::ZERO
            } else {
                topology.domain_latency(src_domain, domains[dst.index()])
            };
            let (shard, local) = locate[dst.index()];
            Routed::Event(
                shard,
                PEvent {
                    key: EventKey {
                        at: departure + latency,
                        sent: now,
                        src: src.index() as u32,
                        emit,
                    },
                    dst_local: local,
                    tuple: env.tuple,
                },
            )
        }
        None => {
            let dst_domain = topology.domain_of(env.dst.as_ref()).unwrap_or(0);
            let latency = topology.domain_latency(src_domain, dst_domain);
            Routed::Limbo(LimboPacket {
                key: EventKey {
                    at: departure + latency,
                    sent: now,
                    src: src.index() as u32,
                    emit,
                },
                dst: env.dst,
                tuple: env.tuple,
            })
        }
    })
}

/// The worker body: one conservative synchronization round per iteration
/// until the global event horizon passes `until`.
///
/// Host code can panic (a bug in an element, a debug assertion). A naked
/// panic would leave the other workers blocked forever on the un-poisonable
/// `std::sync::Barrier`, turning a test failure into a hang — so the window
/// execution is wrapped in `catch_unwind`, the panic raises the shared
/// `abort` flag, every worker leaves the barrier protocol at the same
/// round, and the original panic is re-raised so `thread::scope`
/// propagates it to the caller.
#[allow(clippy::too_many_arguments)]
fn worker_loop<H: Host>(
    shard: &mut Shard<H>,
    until: SimTime,
    window: SimTime,
    ctx: ShardCtx<'_>,
    next_times: &[AtomicU64],
    mailboxes: &[Vec<Mutex<Vec<PEvent>>>],
    barrier: &Barrier,
    abort: &AtomicBool,
) -> u64 {
    let shards = next_times.len();
    let mut staging: Vec<Vec<PEvent>> = (0..shards).map(|_| Vec::new()).collect();
    let mut rounds = 0u64;
    loop {
        // Phase 1: publish this shard's earliest pending event, then derive
        // the round's horizon from the global minimum. Every worker computes
        // the same `t0`, so they all break on the same round.
        next_times[ctx.me].store(shard.next_event_micros(), Ordering::SeqCst);
        barrier.wait();
        let t0 = next_times
            .iter()
            .map(|t| t.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        if t0 > until.as_micros() {
            break;
        }
        rounds += 1;
        let horizon = SimTime::from_micros(
            t0.saturating_add(window.as_micros())
                .min(until.as_micros() + 1),
        );

        // Phase 2: run the window, then publish cross-shard packets. The
        // shard state is abandoned wholesale on a panic (the simulation is
        // dead either way), so AssertUnwindSafe is sound here.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shard.run_window(horizon, &ctx, &mut staging);
        }));
        match &outcome {
            Ok(()) => {
                for (dst, buf) in staging.iter_mut().enumerate() {
                    if !buf.is_empty() {
                        mailboxes[ctx.me][dst]
                            .lock()
                            .expect("mailbox lock")
                            .append(buf);
                    }
                }
            }
            Err(_) => abort.store(true, Ordering::SeqCst),
        }
        barrier.wait();
        if abort.load(Ordering::SeqCst) {
            // Every worker observes the flag after the same barrier and
            // exits the protocol together; the panicking one re-raises.
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
            break;
        }

        // Phase 3: absorb this shard's mailbox column. Push order does not
        // matter — the heap orders by the sharding-invariant key.
        for row in mailboxes {
            let incoming = std::mem::take(&mut *row[ctx.me].lock().expect("mailbox lock"));
            for event in incoming {
                shard.heap.push(Reverse(event));
            }
        }
        barrier.wait();
    }
    rounds
}

/// A deterministic, multi-core discrete-event simulator with the same
/// public surface as [`Simulator`]. See the module docs for the
/// synchronization protocol and determinism contract.
pub struct ParSimulator<H: Host> {
    topology: Topology,
    loss_rate: f64,
    seed: u64,
    interner: AddrInterner,
    shards: Vec<Shard<H>>,
    /// `NodeId` → `(shard, shard-local index)`.
    locate: Vec<(u32, u32)>,
    /// `NodeId` → topology domain.
    domains: Vec<usize>,
    limbo: Vec<LimboPacket>,
    now: SimTime,
    stats: NetStats,
    deliveries_processed: u64,
    wakeups_processed: u64,
    rounds: u64,
}

impl<H: Host> ParSimulator<H> {
    /// Creates an empty parallel simulator with `workers` shards (one
    /// worker thread per shard during [`ParSimulator::run_until`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology's minimum distinct-node latency is below one
    /// microsecond — conservative windowing needs positive lookahead.
    pub fn new(config: NetworkConfig, workers: usize) -> ParSimulator<H> {
        let mut topology = config.topology;
        topology.rebuild_latency_matrix();
        assert!(
            topology.min_latency() >= SimTime::from_micros(1),
            "parallel simulation requires a positive minimum link latency \
             (topology lookahead is {:?})",
            topology.min_latency()
        );
        let workers = workers.max(1);
        ParSimulator {
            topology,
            loss_rate: config.loss_rate,
            seed: normalize_seed(config.seed),
            interner: AddrInterner::new(),
            shards: (0..workers).map(|_| Shard::new()).collect(),
            locate: Vec::new(),
            domains: Vec::new(),
            limbo: Vec::new(),
            now: SimTime::ZERO,
            stats: NetStats::default(),
            deliveries_processed: 0,
            wakeups_processed: 0,
            rounds: 0,
        }
    }

    /// Number of shards / worker threads.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Synchronization rounds executed so far (diagnostics: the per-round
    /// barrier cost amortizes over the events each round processes).
    pub fn sync_rounds(&self) -> u64 {
        self.rounds
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters (merged across shards; exact between runs).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets the traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// Total events processed since construction (deliveries, arrival-time
    /// drops, and wakeups), summed over shards.
    pub fn events_processed(&self) -> u64 {
        self.deliveries_processed + self.wakeups_processed
    }

    /// Wakeup events processed since construction.
    pub fn wakeups_processed(&self) -> u64 {
        self.wakeups_processed
    }

    /// Mutable access to the topology (placement of future nodes). The
    /// lookahead window is re-derived from the topology at the start of
    /// every run, so latency edits (followed by
    /// [`Topology::rebuild_latency_matrix`]) are honored.
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

    /// Addresses of all nodes ever added, in insertion order.
    pub fn addresses_iter(&self) -> impl Iterator<Item = &str> {
        self.interner.iter()
    }

    /// Addresses of all nodes ever added, in insertion order (cloning).
    pub fn addresses(&self) -> Vec<String> {
        self.addresses_iter().map(str::to_string).collect()
    }

    /// Addresses of nodes currently up, in insertion order.
    pub fn up_addresses_iter(&self) -> impl Iterator<Item = &str> {
        (0..self.locate.len())
            .map(NodeId::from_index)
            .filter(|id| self.slot(*id).up)
            .map(|id| self.interner.addr(id))
    }

    /// Addresses of nodes currently up (cloning).
    pub fn up_addresses(&self) -> Vec<String> {
        self.up_addresses_iter().map(str::to_string).collect()
    }

    /// Ids of nodes currently up, in insertion order.
    pub fn up_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.locate.len())
            .map(NodeId::from_index)
            .filter(|id| self.slot(*id).up)
    }

    /// Number of nodes currently up.
    pub fn up_count(&self) -> usize {
        self.up_ids().count()
    }

    /// Total number of nodes ever added.
    pub fn node_count(&self) -> usize {
        self.locate.len()
    }

    fn slot(&self, id: NodeId) -> &PSlot<H> {
        let (shard, local) = self.locate[id.index()];
        &self.shards[shard as usize].slots[local as usize]
    }

    fn slot_mut(&mut self, id: NodeId) -> &mut PSlot<H> {
        let (shard, local) = self.locate[id.index()];
        &mut self.shards[shard as usize].slots[local as usize]
    }

    /// Shared access to a node's host.
    pub fn node(&self, addr: &str) -> Option<&H> {
        self.node_id(addr).map(|id| &self.slot(id).host)
    }

    /// Mutable access to a node's host.
    pub fn node_mut(&mut self, addr: &str) -> Option<&mut H> {
        self.node_id(addr).map(|id| &mut self.slot_mut(id).host)
    }

    /// Shared access to a node's host by id.
    pub fn node_by_id(&self, id: NodeId) -> &H {
        &self.slot(id).host
    }

    /// True if the node exists and is up.
    pub fn is_up(&self, addr: &str) -> bool {
        self.node_id(addr)
            .map(|id| self.slot(id).up)
            .unwrap_or(false)
    }

    /// Adds a node (initially up but not started), sharding it by id.
    pub fn add_node(&mut self, addr: impl Into<String>, host: H) -> NodeId {
        let addr = addr.into();
        let domain = self.topology.place(addr.clone());
        let id = self.interner.intern(&addr);
        assert_eq!(
            id.index(),
            self.locate.len(),
            "address {addr:?} was already added; use replace_node"
        );
        let shard = id.index() % self.shards.len();
        let local = self.shards[shard].slots.len();
        self.locate.push((shard as u32, local as u32));
        self.domains.push(domain);
        self.shards[shard].slots.push(PSlot {
            host,
            id,
            domain,
            up: true,
            started: false,
            link_busy_until: SimTime::ZERO,
            sends: 0,
        });
        self.shards[shard].timers.grow(local + 1);
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
        let slot = self.slot_mut(id);
        if !slot.up {
            return;
        }
        slot.started = true;
        let out = slot.host.start(now);
        self.dispatch_main(id, out);
        self.schedule_wakeup_main(id);
    }

    /// Boots every node that is up and not yet started, in insertion order.
    pub fn start_all(&mut self) {
        for i in 0..self.locate.len() {
            let id = NodeId::from_index(i);
            let slot = self.slot(id);
            if slot.up && !slot.started {
                self.start_node_id(id);
            }
        }
    }

    /// Delivers an application-level tuple to a node immediately.
    pub fn inject(&mut self, addr: &str, tuple: Tuple) {
        if let Some(id) = self.node_id(addr) {
            self.inject_id(id, tuple);
        }
    }

    /// Delivers an application-level tuple to a node by id.
    pub fn inject_id(&mut self, id: NodeId, tuple: Tuple) {
        let now = self.now;
        let slot = self.slot_mut(id);
        if !slot.up {
            return;
        }
        let out = slot.host.deliver(tuple, now);
        self.dispatch_main(id, out);
        self.schedule_wakeup_main(id);
    }

    /// Injects a batch of tuples at the current virtual time, in order,
    /// batching consecutive same-node tuples through
    /// [`Host::deliver_many`] exactly like the sequential simulator.
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

    fn inject_batch_id(&mut self, id: NodeId, tuples: Vec<Tuple>) {
        let now = self.now;
        let slot = self.slot_mut(id);
        if !slot.up {
            return;
        }
        let out = match tuples.len() {
            1 => slot
                .host
                .deliver(tuples.into_iter().next().expect("len checked"), now),
            _ => slot.host.deliver_many(tuples, now),
        };
        self.dispatch_main(id, out);
        self.schedule_wakeup_main(id);
    }

    /// Marks a node as failed: its timers stop and packets addressed to it
    /// are dropped.
    pub fn take_down(&mut self, addr: &str) {
        if let Some(id) = self.node_id(addr) {
            let (shard, local) = self.locate[id.index()];
            let shard = &mut self.shards[shard as usize];
            shard.slots[local as usize].up = false;
            shard.timers.cancel(NodeId::from_index(local as usize));
        }
    }

    /// Replaces a failed node with a fresh host (crash-rejoin churn) and
    /// boots it. The address keeps its id, shard, and placement.
    pub fn replace_node(&mut self, addr: &str, host: H) {
        let id = match self.node_id(addr) {
            Some(id) => {
                let now = self.now;
                let (shard, local) = self.locate[id.index()];
                let shard = &mut self.shards[shard as usize];
                let slot = &mut shard.slots[local as usize];
                slot.host = host;
                slot.up = true;
                slot.started = false;
                slot.link_busy_until = now;
                shard.timers.cancel(NodeId::from_index(local as usize));
                id
            }
            None => self.add_node(addr.to_string(), host),
        };
        self.start_node_id(id);
    }

    /// Routes envelopes emitted on the main thread (injections, boots)
    /// using the same packet path as the workers.
    fn dispatch_main(&mut self, id: NodeId, envelopes: Vec<Envelope>) {
        let now = self.now;
        let (src_shard, src_local) = self.locate[id.index()];
        for env in envelopes {
            let routed = route_packet(
                env,
                now,
                &mut self.shards[src_shard as usize].slots[src_local as usize],
                &mut self.stats,
                &self.topology,
                &self.interner,
                &self.locate,
                &self.domains,
                self.loss_rate,
                self.seed,
            );
            match routed {
                None => {}
                Some(Routed::Event(shard, event)) => {
                    self.shards[shard as usize].heap.push(Reverse(event));
                }
                Some(Routed::Limbo(packet)) => self.limbo.push(packet),
            }
        }
    }

    fn schedule_wakeup_main(&mut self, id: NodeId) {
        let now = self.now;
        let (shard, local) = self.locate[id.index()];
        self.shards[shard as usize].schedule_wakeup(local as usize, now);
    }

    /// Re-resolves parked unknown-destination packets against the current
    /// interner: destinations that appeared since the last run get their
    /// packet queued on the owning shard; packets whose destination still
    /// does not exist and whose arrival falls inside this run are counted
    /// as arrival-time drops (exactly the accounting the sequential
    /// simulator performs when it pops them).
    fn settle_limbo(&mut self, until: SimTime) {
        if self.limbo.is_empty() {
            return;
        }
        let mut keep = Vec::new();
        for packet in std::mem::take(&mut self.limbo) {
            match self.interner.get(&packet.dst) {
                Some(id) => {
                    let (shard, local) = self.locate[id.index()];
                    self.shards[shard as usize].heap.push(Reverse(PEvent {
                        key: packet.key,
                        dst_local: local,
                        tuple: packet.tuple,
                    }));
                }
                None if packet.key.at <= until => {
                    self.deliveries_processed += 1;
                    self.stats.record_drop();
                }
                None => keep.push(packet),
            }
        }
        self.limbo = keep;
    }

    /// Runs the simulation until virtual time `until` on the worker pool.
    pub fn run_until(&mut self, until: SimTime) {
        self.settle_limbo(until);
        // Re-derived every run so topology edits are honored — and
        // re-asserted: silently clamping a sub-µs lookahead would let a
        // cross-shard packet arrive inside the window that produced it
        // (out-of-order delivery), quietly breaking the contract the
        // constructor enforces loudly.
        let window = self.topology.min_latency();
        assert!(
            window >= SimTime::from_micros(1),
            "parallel simulation requires a positive minimum link latency \
             (topology lookahead is {window:?} after edits)"
        );
        let shards = self.shards.len();
        let next_times: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mailboxes: Vec<Vec<Mutex<Vec<PEvent>>>> = (0..shards)
            .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect();
        let barrier = Barrier::new(shards);
        let rounds = AtomicU64::new(0);
        let abort = AtomicBool::new(false);
        {
            let topology = &self.topology;
            let interner = &self.interner;
            let locate = &self.locate[..];
            let domains = &self.domains[..];
            let loss_rate = self.loss_rate;
            let seed = self.seed;
            let next_times = &next_times;
            let mailboxes = &mailboxes;
            let barrier = &barrier;
            let rounds = &rounds;
            let abort = &abort;
            std::thread::scope(|scope| {
                for (me, shard) in self.shards.iter_mut().enumerate() {
                    let ctx = ShardCtx {
                        me,
                        topology,
                        interner,
                        locate,
                        domains,
                        loss_rate,
                        seed,
                    };
                    scope.spawn(move || {
                        let ran = worker_loop(
                            shard, until, window, ctx, next_times, mailboxes, barrier, abort,
                        );
                        // Every worker runs the same number of rounds; one
                        // representative publishes the count.
                        if me == 0 {
                            rounds.store(ran, Ordering::Relaxed);
                        }
                    });
                }
            });
        }
        self.now = until;
        self.rounds += rounds.load(Ordering::Relaxed);
        // Merge worker-local accounting in shard order (deterministic) and
        // fold this run's unknown-destination packets into limbo, counting
        // the ones that were due within this run as drops.
        let mut limbo_new = Vec::new();
        for shard in &mut self.shards {
            let shard_stats = std::mem::take(&mut shard.stats);
            self.stats.merge(&shard_stats);
            self.deliveries_processed += std::mem::take(&mut shard.deliveries_processed);
            self.wakeups_processed += std::mem::take(&mut shard.wakeups_processed);
            limbo_new.append(&mut shard.limbo_out);
        }
        for packet in limbo_new {
            if packet.key.at <= until {
                self.deliveries_processed += 1;
                self.stats.record_drop();
            } else {
                self.limbo.push(packet);
            }
        }
    }

    /// Runs the simulation for an additional duration.
    pub fn run_for(&mut self, duration: SimTime) {
        self.run_until(self.now + duration);
    }

    /// Number of scheduled wakeup entries across shards (at most one per
    /// node).
    pub fn scheduled_wakeups(&self) -> usize {
        self.shards.iter().map(|s| s.timers.len()).sum()
    }

    /// Number of packets currently in flight (shard queues plus parked
    /// unknown-destination packets).
    pub fn packets_in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.heap.len()).sum::<usize>() + self.limbo.len()
    }

    /// Verifies the sharded indices agree (interner ⇄ locate table ⇄ shard
    /// slots ⇄ per-shard timer indices); panics on the first inconsistency.
    pub fn check_consistency(&self) {
        assert_eq!(
            self.interner.len(),
            self.locate.len(),
            "interner and locate table disagree on node count"
        );
        assert_eq!(self.locate.len(), self.domains.len());
        let per_shard: usize = self.shards.iter().map(|s| s.slots.len()).sum();
        assert_eq!(
            per_shard,
            self.locate.len(),
            "shard slots do not partition the nodes"
        );
        for i in 0..self.locate.len() {
            let id = NodeId::from_index(i);
            assert_eq!(
                self.interner.get(self.interner.addr(id)),
                Some(id),
                "interner round-trip failed for {id}"
            );
            let (shard, local) = self.locate[i];
            assert_eq!(
                shard as usize,
                i % self.shards.len(),
                "node {id} is on the wrong shard"
            );
            let slot = &self.shards[shard as usize].slots[local as usize];
            assert_eq!(
                slot.id, id,
                "locate table points at the wrong slot for {id}"
            );
            assert_eq!(slot.domain, self.domains[i]);
        }
        for shard in &self.shards {
            shard.timers.check_consistency();
            assert!(
                shard.timers.len() <= shard.slots.len(),
                "more timer entries than nodes in a shard"
            );
            for local in 0..shard.slots.len() {
                if let Some(deadline) = shard.timers.deadline_of(NodeId::from_index(local)) {
                    let slot = &shard.slots[local];
                    assert!(
                        slot.up && slot.started,
                        "down or unstarted node {} has a timer entry at {deadline}",
                        slot.id
                    );
                }
            }
            for Reverse(event) in shard.heap.iter() {
                assert!(
                    (event.dst_local as usize) < shard.slots.len(),
                    "in-flight packet addressed to a dangling shard-local slot"
                );
            }
        }
    }
}

/// Either simulator behind one front-end, so harness code can switch
/// between the sequential and sharded engines with a runtime knob while
/// keeping direct method calls (`cluster.sim.stats()`, …).
pub enum AnySimulator<H: Host> {
    /// The sequential event loop ([`Simulator`]).
    Seq(Simulator<H>),
    /// The sharded multi-core executor ([`ParSimulator`]).
    Par(ParSimulator<H>),
}

macro_rules! delegate {
    ($self:ident, $method:ident $(, $arg:expr)*) => {
        match $self {
            AnySimulator::Seq(sim) => sim.$method($($arg),*),
            AnySimulator::Par(sim) => sim.$method($($arg),*),
        }
    };
}

impl<H: Host> AnySimulator<H> {
    /// Builds the sequential engine, or the sharded one when
    /// `par_threads` is `Some(n)`.
    pub fn build(config: NetworkConfig, par_threads: Option<usize>) -> AnySimulator<H> {
        match par_threads {
            None => AnySimulator::Seq(Simulator::new(config)),
            Some(n) => AnySimulator::Par(ParSimulator::new(config, n)),
        }
    }

    /// Worker threads in use (1 for the sequential engine).
    pub fn par_workers(&self) -> usize {
        match self {
            AnySimulator::Seq(_) => 1,
            AnySimulator::Par(sim) => sim.workers(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        delegate!(self, now)
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetStats {
        delegate!(self, stats)
    }

    /// Resets the traffic counters.
    pub fn reset_stats(&mut self) {
        delegate!(self, reset_stats)
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        delegate!(self, events_processed)
    }

    /// Wakeup events processed since construction.
    pub fn wakeups_processed(&self) -> u64 {
        delegate!(self, wakeups_processed)
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        delegate!(self, topology)
    }

    /// Mutable access to the topology.
    pub fn topology_mut(&mut self) -> &mut Topology {
        delegate!(self, topology_mut)
    }

    /// The interned id of a node address, if the node was ever added.
    pub fn node_id(&self, addr: &str) -> Option<NodeId> {
        delegate!(self, node_id, addr)
    }

    /// The address behind an interned id.
    pub fn addr_of(&self, id: NodeId) -> &str {
        delegate!(self, addr_of, id)
    }

    /// Addresses of all nodes ever added, in insertion order.
    pub fn addresses_iter(&self) -> Box<dyn Iterator<Item = &str> + '_> {
        match self {
            AnySimulator::Seq(sim) => Box::new(sim.addresses_iter()),
            AnySimulator::Par(sim) => Box::new(sim.addresses_iter()),
        }
    }

    /// Addresses of all nodes ever added, in insertion order (cloning).
    pub fn addresses(&self) -> Vec<String> {
        delegate!(self, addresses)
    }

    /// Addresses of nodes currently up, in insertion order.
    pub fn up_addresses_iter(&self) -> Box<dyn Iterator<Item = &str> + '_> {
        match self {
            AnySimulator::Seq(sim) => Box::new(sim.up_addresses_iter()),
            AnySimulator::Par(sim) => Box::new(sim.up_addresses_iter()),
        }
    }

    /// Addresses of nodes currently up (cloning).
    pub fn up_addresses(&self) -> Vec<String> {
        delegate!(self, up_addresses)
    }

    /// Ids of nodes currently up, in insertion order.
    pub fn up_ids(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
        match self {
            AnySimulator::Seq(sim) => Box::new(sim.up_ids()),
            AnySimulator::Par(sim) => Box::new(sim.up_ids()),
        }
    }

    /// Number of nodes currently up.
    pub fn up_count(&self) -> usize {
        delegate!(self, up_count)
    }

    /// Total number of nodes ever added.
    pub fn node_count(&self) -> usize {
        delegate!(self, node_count)
    }

    /// Shared access to a node's host.
    pub fn node(&self, addr: &str) -> Option<&H> {
        delegate!(self, node, addr)
    }

    /// Mutable access to a node's host.
    pub fn node_mut(&mut self, addr: &str) -> Option<&mut H> {
        delegate!(self, node_mut, addr)
    }

    /// Shared access to a node's host by id.
    pub fn node_by_id(&self, id: NodeId) -> &H {
        delegate!(self, node_by_id, id)
    }

    /// True if the node exists and is up.
    pub fn is_up(&self, addr: &str) -> bool {
        delegate!(self, is_up, addr)
    }

    /// Adds a node (initially up but not started).
    pub fn add_node(&mut self, addr: impl Into<String>, host: H) -> NodeId {
        delegate!(self, add_node, addr, host)
    }

    /// Boots a node at the current virtual time.
    pub fn start_node(&mut self, addr: &str) {
        delegate!(self, start_node, addr)
    }

    /// Boots a node by id at the current virtual time.
    pub fn start_node_id(&mut self, id: NodeId) {
        delegate!(self, start_node_id, id)
    }

    /// Boots every node that is up and not yet started, in insertion order.
    pub fn start_all(&mut self) {
        delegate!(self, start_all)
    }

    /// Delivers an application-level tuple to a node immediately.
    pub fn inject(&mut self, addr: &str, tuple: Tuple) {
        delegate!(self, inject, addr, tuple)
    }

    /// Delivers an application-level tuple to a node by id.
    pub fn inject_id(&mut self, id: NodeId, tuple: Tuple) {
        delegate!(self, inject_id, id, tuple)
    }

    /// Injects a batch of tuples at the current virtual time, in order.
    pub fn inject_many<S: AsRef<str>>(&mut self, batch: impl IntoIterator<Item = (S, Tuple)>) {
        delegate!(self, inject_many, batch)
    }

    /// Marks a node as failed.
    pub fn take_down(&mut self, addr: &str) {
        delegate!(self, take_down, addr)
    }

    /// Replaces a failed node with a fresh host and boots it.
    pub fn replace_node(&mut self, addr: &str, host: H) {
        delegate!(self, replace_node, addr, host)
    }

    /// Runs the simulation until virtual time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        delegate!(self, run_until, until)
    }

    /// Runs the simulation for an additional duration.
    pub fn run_for(&mut self, duration: SimTime) {
        delegate!(self, run_for, duration)
    }

    /// Number of scheduled wakeup entries.
    pub fn scheduled_wakeups(&self) -> usize {
        delegate!(self, scheduled_wakeups)
    }

    /// Number of packets currently in flight.
    pub fn packets_in_flight(&self) -> usize {
        delegate!(self, packets_in_flight)
    }

    /// Verifies the engine's internal indices agree; panics on mismatch.
    pub fn check_consistency(&self) {
        delegate!(self, check_consistency)
    }
}

/// Compile-time audit for the sharding requirement: every host (and the
/// whole sharded simulator) must be `Send` so shards can move to worker
/// threads. `Host: Send` is a supertrait bound, so this holds for any `H`;
/// type-checking this definition keeps it from regressing silently.
#[allow(dead_code)]
fn _send_audit<H: Host>() {
    fn assert_send<T: Send>() {}
    assert_send::<ParSimulator<H>>();
    assert_send::<Simulator<H>>();
    assert_send::<AnySimulator<H>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_value::TupleBuilder;

    /// The same toy host the sequential simulator's tests use: answers
    /// every `ping` with a `pong`, sends one `hello`-ping to a configured
    /// peer every 5 seconds.
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

    fn populate(n: usize, add: &mut dyn FnMut(String, Toy)) {
        for i in 0..n {
            let addr = format!("n{i}");
            let peer = format!("n{}", (i + 1) % n);
            add(addr.clone(), Toy::new(&addr, Some(&peer)));
        }
    }

    fn summarize_seq(sim: &Simulator<Toy>, n: usize) -> (u64, u64, u64, u64, u64, Vec<usize>) {
        let pings = (0..n)
            .map(|i| sim.node(&format!("n{i}")).unwrap().pings_received)
            .collect();
        let s = sim.stats();
        (
            s.messages_sent,
            s.messages_delivered,
            s.messages_dropped,
            s.bytes_sent,
            sim.events_processed(),
            pings,
        )
    }

    fn summarize_par(sim: &ParSimulator<Toy>, n: usize) -> (u64, u64, u64, u64, u64, Vec<usize>) {
        let pings = (0..n)
            .map(|i| sim.node(&format!("n{i}")).unwrap().pings_received)
            .collect();
        let s = sim.stats();
        (
            s.messages_sent,
            s.messages_delivered,
            s.messages_dropped,
            s.bytes_sent,
            sim.events_processed(),
            pings,
        )
    }

    fn config(loss: f64) -> NetworkConfig {
        let mut config = NetworkConfig::emulab_default(7);
        config.loss_rate = loss;
        config
    }

    #[test]
    fn parallel_matches_sequential_ring_with_and_without_loss() {
        for loss in [0.0, 0.3] {
            let n = 12;
            let mut seq: Simulator<Toy> = Simulator::new(config(loss));
            populate(n, &mut |a, h| {
                seq.add_node(a, h);
            });
            seq.start_all();
            seq.run_until(SimTime::from_secs(60));
            let golden = summarize_seq(&seq, n);

            for workers in [1, 2, 3, 5] {
                let mut par: ParSimulator<Toy> = ParSimulator::new(config(loss), workers);
                populate(n, &mut |a, h| {
                    par.add_node(a, h);
                });
                par.start_all();
                par.run_until(SimTime::from_secs(60));
                assert_eq!(
                    summarize_par(&par, n),
                    golden,
                    "{workers}-worker run diverged from sequential at loss {loss}"
                );
                assert!(par.sync_rounds() > 0);
                for i in 0..n {
                    assert_eq!(
                        par.node(&format!("n{i}")).unwrap().spurious_wakeups,
                        0,
                        "n{i} saw a spurious wakeup"
                    );
                }
                par.check_consistency();
            }
        }
    }

    enum Churn {
        Run(u64),
        Down(usize),
        Replace(usize),
    }

    const CHURN_SCRIPT: &[Churn] = &[
        Churn::Run(20),
        Churn::Down(3),
        Churn::Run(15),
        Churn::Replace(3),
        Churn::Down(0),
        Churn::Run(25),
        Churn::Replace(0),
        Churn::Run(40),
    ];

    #[test]
    fn churn_between_runs_matches_sequential() {
        let n = 8;
        let fresh = |i: usize| {
            let a = format!("n{i}");
            Toy::new(&a, Some(&format!("n{}", (i + 1) % n)))
        };

        let mut seq: Simulator<Toy> = Simulator::new(config(0.0));
        populate(n, &mut |a, h| {
            seq.add_node(a, h);
        });
        seq.start_all();
        for step in CHURN_SCRIPT {
            match step {
                Churn::Run(s) => seq.run_for(SimTime::from_secs(*s)),
                Churn::Down(i) => seq.take_down(&format!("n{i}")),
                Churn::Replace(i) => seq.replace_node(&format!("n{i}"), fresh(*i)),
            }
        }
        let golden = summarize_seq(&seq, n);

        for workers in [1, 3] {
            let mut par: ParSimulator<Toy> = ParSimulator::new(config(0.0), workers);
            populate(n, &mut |a, h| {
                par.add_node(a, h);
            });
            par.start_all();
            for step in CHURN_SCRIPT {
                match step {
                    Churn::Run(s) => par.run_for(SimTime::from_secs(*s)),
                    Churn::Down(i) => par.take_down(&format!("n{i}")),
                    Churn::Replace(i) => par.replace_node(&format!("n{i}"), fresh(*i)),
                }
            }
            assert_eq!(
                summarize_par(&par, n),
                golden,
                "churned {workers}-worker run diverged from sequential"
            );
            par.check_consistency();
        }
    }

    #[test]
    fn packet_to_a_node_added_mid_flight_is_delivered() {
        // Mirrors the sequential test: destinations unknown at dispatch are
        // parked in limbo and re-resolved between runs.
        let mut par: ParSimulator<Toy> = ParSimulator::new(config(0.0), 2);
        par.add_node("n0", Toy::new("n0", None));
        par.add_node("n1", Toy::new("n1", None));
        par.start_all();
        par.inject("n0", TupleBuilder::new("ping").push("n2").build());
        assert_eq!(par.packets_in_flight(), 1);
        par.run_for(SimTime::from_millis(2));
        par.add_node("n2", Toy::new("n2", None));
        par.start_node("n2");
        par.run_for(SimTime::from_secs(1));
        assert_eq!(par.node("n2").unwrap().pongs_received, 1);
        par.check_consistency();

        // A packet to an address that never materializes is dropped at
        // arrival time, with the drop and the processed event counted.
        let drops_before = par.stats().messages_dropped;
        let events_before = par.events_processed();
        par.inject("n0", TupleBuilder::new("ping").push("ghost").build());
        par.run_for(SimTime::from_secs(1));
        assert_eq!(par.stats().messages_dropped, drops_before + 1);
        assert_eq!(par.events_processed(), events_before + 1);
        assert_eq!(par.packets_in_flight(), 0);
    }

    /// A host that panics when its timer first fires.
    struct Exploder;

    impl Host for Exploder {
        fn start(&mut self, _now: SimTime) -> Vec<Envelope> {
            Vec::new()
        }
        fn deliver(&mut self, _tuple: Tuple, _now: SimTime) -> Vec<Envelope> {
            Vec::new()
        }
        fn advance_to(&mut self, _now: SimTime) -> Vec<Envelope> {
            panic!("host bug");
        }
        fn next_deadline(&self) -> Option<SimTime> {
            Some(SimTime::from_secs(1))
        }
    }

    // `thread::scope` re-panics with its own payload, so no `expected`
    // message: the property under test is that the panic PROPAGATES at all
    // instead of deadlocking the surviving workers on the barrier.
    #[test]
    #[should_panic]
    fn a_host_panic_propagates_instead_of_deadlocking_the_barrier() {
        let mut par: ParSimulator<Exploder> = ParSimulator::new(config(0.0), 3);
        // Several nodes across shards so the non-panicking workers are
        // really blocked in the barrier protocol when the panic hits.
        for i in 0..6 {
            par.add_node(format!("n{i}"), Exploder);
        }
        par.start_all();
        par.run_until(SimTime::from_secs(10));
    }

    #[test]
    fn any_simulator_switches_engines() {
        let mut seq: AnySimulator<Toy> = AnySimulator::build(config(0.0), None);
        let mut par: AnySimulator<Toy> = AnySimulator::build(config(0.0), Some(3));
        assert_eq!(seq.par_workers(), 1);
        assert_eq!(par.par_workers(), 3);
        for sim in [&mut seq, &mut par] {
            sim.add_node("n0", Toy::new("n0", Some("n1")));
            sim.add_node("n1", Toy::new("n1", None));
            sim.start_all();
            sim.run_until(SimTime::from_secs(26));
            sim.check_consistency();
        }
        assert_eq!(seq.stats().messages_sent, par.stats().messages_sent);
        assert_eq!(seq.events_processed(), par.events_processed());
        assert_eq!(seq.node("n1").unwrap().pings_received, 5);
        assert_eq!(par.node("n1").unwrap().pings_received, 5);
        assert_eq!(
            seq.up_addresses_iter().collect::<Vec<_>>(),
            par.up_addresses_iter().collect::<Vec<_>>()
        );
    }
}
