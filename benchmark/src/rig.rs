//! The systems under test behind one interface.
//!
//! End-to-end numbers come from the harness's own [`ChordCluster`] and a
//! bare `Simulator<P2Host>`; traced numbers need every host wrapped in
//! [`Timed`], which the harness cluster cannot hold, so [`BenchRing`] boots
//! a Chord ring on a bench-owned simulator from the same public pieces
//! (`chord::build_node_for`, `chord::join_tuple`, `chord::lookup_tuple`,
//! the `lookupResults` collector). [`Mesh`] is the Narada overlay on a
//! bench-owned simulator in both modes.

use std::sync::Arc;

use p2_harness::metrics::{EngineOps, StorageOps};
use p2_harness::{ChordCluster, LookupHandle, LookupOutcome};
use p2_netsim::{NetStats, NetworkConfig, Simulator};
use p2_obs::{ElemCounters, ObsMeta, ProfileReport};
use p2_overlays::chord::{self, ChordOpts};
use p2_overlays::{narada, P2Host};
use p2_table::TableStats;
use p2_value::{SimTime, Tuple, Uint160, Value};

use crate::timed::{P2Wrap, Recorder, Timed};

/// Every layer's counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub events: u64,
    pub wakeups: u64,
    pub in_flight: usize,
    pub msgs_sent: u64,
    pub msgs_dropped: u64,
    pub bytes_sent: u64,
    pub maint_bytes: u64,
    pub storage: StorageOps,
    pub engine: EngineOps,
}

impl Counters {
    fn with_net(mut self, net: &NetStats) -> Counters {
        self.msgs_sent = net.messages_sent;
        self.msgs_dropped = net.messages_dropped;
        self.bytes_sent = net.bytes_sent;
        self.maint_bytes = net.maintenance_bytes();
        self
    }

    /// Growth since `earlier`. Saturating: a crashed node takes its
    /// per-node counters with it, so a sum over up nodes can step back.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (s, e) = (&self.storage, &earlier.storage);
        let (g, h) = (&self.engine, &earlier.engine);
        Counters {
            events: self.events.saturating_sub(earlier.events),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            in_flight: self.in_flight,
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            msgs_dropped: self.msgs_dropped.saturating_sub(earlier.msgs_dropped),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            maint_bytes: self.maint_bytes.saturating_sub(earlier.maint_bytes),
            storage: StorageOps {
                primary_lookups: s.primary_lookups.saturating_sub(e.primary_lookups),
                indexed_lookups: s.indexed_lookups.saturating_sub(e.indexed_lookups),
                full_scans: s.full_scans.saturating_sub(e.full_scans),
                expired: s.expired.saturating_sub(e.expired),
                evicted: s.evicted.saturating_sub(e.evicted),
                overflows: s.overflows.saturating_sub(e.overflows),
                rebuilds: s.rebuilds.saturating_sub(e.rebuilds),
            },
            engine: EngineOps {
                handoffs: g.handoffs.saturating_sub(h.handoffs),
                injected: g.injected.saturating_sub(h.injected),
                dropped_no_entry: g.dropped_no_entry.saturating_sub(h.dropped_no_entry),
                timers_fired: g.timers_fired.saturating_sub(h.timers_fired),
                sent: g.sent.saturating_sub(h.sent),
                suppressed_refresh_pokes: g
                    .suppressed_refresh_pokes
                    .saturating_sub(h.suppressed_refresh_pokes),
                suppressed_guard_pokes: g
                    .suppressed_guard_pokes
                    .saturating_sub(h.suppressed_guard_pokes),
            },
        }
    }

    /// Fallbacks a static overlay never takes: a tuple dropped for want of
    /// an entry port (lost, so also a failed operation), a delta log that
    /// overflowed, a view rebuilt from scratch (both recovered).
    pub fn fallbacks(&self) -> u64 {
        self.engine.dropped_no_entry + self.storage.overflows + self.storage.rebuilds
    }
}

/// Operations checked at a window's end: nodes with the right successor on
/// a ring, expected `member` rows on the mesh.
#[derive(Debug, Clone, Copy, Default)]
pub struct Health {
    pub attempted: u64,
    pub failed: u64,
}

/// A running overlay the window loop can advance and read counters from.
pub trait Rig {
    fn now_us(&self) -> u64;
    /// Advances virtual time to `us` whole microseconds since the start.
    fn run_until_us(&mut self, us: u64);
    /// Simulator events processed so far (cheap; read around every window).
    fn events(&self) -> u64;
    /// Every layer's counters, summed over the up nodes.
    fn counters(&self) -> Counters;
    fn population(&self) -> usize;
    fn tables_per_node(&self) -> usize;
    fn health(&self) -> Health;
    /// True when the overlay's structural output check holds (one successor
    /// cycle over the up nodes; full live membership).
    fn structure_ok(&self) -> bool;
    fn resident_bytes_per_node(&self) -> f64;
    /// Rule-level profile since observability was switched on; `None` on
    /// the untraced rigs.
    fn obs_report(&self) -> Option<ProfileReport>;
    /// Empties the watch buffers, which otherwise grow with virtual time
    /// and would make peak memory depend on how long a run measures.
    fn clear_observations(&mut self);
    /// Virtual seconds the join phase of set-up took (0 where nothing joins).
    fn bring_up_virtual_secs(&self) -> f64;
}

/// A Chord ring that takes lookups and churn.
pub trait ChordRig: Rig {
    fn addrs(&self) -> &[String];
    fn up_addrs(&self) -> Vec<String>;
    fn issue_lookup(&mut self, origin: &str, key: Uint160) -> LookupHandle;
    fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome>;
    /// Fail-stop crash, then a fresh instance that rejoins via the landmark.
    fn crash_rejoin(&mut self, addr: &str);
    fn is_joined(&self, addr: &str) -> bool;
    /// Re-sends the join event of a node whose join lookup was lost.
    fn reissue_join(&mut self, addr: &str);
}

fn ring_health(up: usize, ring_correctness: f64) -> Health {
    Health {
        attempted: up as u64,
        failed: ((1.0 - ring_correctness) * up as f64).round() as u64,
    }
}

impl Rig for ChordCluster {
    fn now_us(&self) -> u64 {
        self.now().as_micros()
    }

    fn run_until_us(&mut self, us: u64) {
        self.sim.run_until(SimTime::from_micros(us));
    }

    fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    fn counters(&self) -> Counters {
        let ops = self.sim_ops();
        Counters {
            events: ops.events_processed,
            wakeups: ops.wakeups_processed,
            in_flight: ops.packets_in_flight,
            storage: self.storage_ops(),
            engine: self.engine_stats(),
            ..Counters::default()
        }
        .with_net(self.sim.stats())
    }

    fn population(&self) -> usize {
        self.len()
    }

    fn tables_per_node(&self) -> usize {
        self.sim
            .node(&ChordCluster::addrs(self)[0])
            .map_or(0, |h| h.node().catalog().names().len())
    }

    fn health(&self) -> Health {
        ring_health(self.sim.up_count(), self.ring_correctness())
    }

    fn structure_ok(&self) -> bool {
        self.is_single_cycle()
    }

    fn resident_bytes_per_node(&self) -> f64 {
        self.mean_resident_bytes()
    }

    fn obs_report(&self) -> Option<ProfileReport> {
        None
    }

    fn clear_observations(&mut self) {
        ChordCluster::clear_observations(self);
    }

    fn bring_up_virtual_secs(&self) -> f64 {
        ChordCluster::bring_up_virtual_secs(self)
    }
}

impl ChordRig for ChordCluster {
    fn addrs(&self) -> &[String] {
        ChordCluster::addrs(self)
    }

    fn up_addrs(&self) -> Vec<String> {
        ChordCluster::up_addrs(self)
    }

    fn issue_lookup(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        self.issue_lookup_from(origin, key)
    }

    fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome> {
        ChordCluster::outcome(self, handle)
    }

    fn crash_rejoin(&mut self, addr: &str) {
        self.crash(addr);
        self.rejoin(addr);
    }

    fn is_joined(&self, addr: &str) -> bool {
        ChordCluster::is_joined(self, addr)
    }

    fn reissue_join(&mut self, addr: &str) {
        // Event ids only need to be unique per node; the cluster's own
        // counter starts at 1 000 000 and never reaches this range.
        let event = i64::MAX - self.now().as_micros() as i64;
        self.sim.inject(addr, chord::join_tuple(addr, event));
    }
}

/// Counters of a bench-owned simulator whose hosts are (wrapped) P2 nodes,
/// on top of what nodes that have since crashed had counted.
fn sim_counters<W: P2Wrap>(
    sim: &Simulator<W>,
    mut storage: TableStats,
    mut engine: EngineOps,
) -> Counters {
    for id in sim.up_ids() {
        let node = sim.node_by_id(id).p2().node();
        storage += node.catalog().stats_total();
        engine.absorb(node.stats());
    }
    Counters {
        events: sim.events_processed(),
        wakeups: sim.wakeups_processed(),
        in_flight: sim.packets_in_flight(),
        storage: storage.into(),
        engine,
        ..Counters::default()
    }
    .with_net(sim.stats())
}

fn sim_resident_bytes<W: P2Wrap>(sim: &Simulator<W>) -> f64 {
    let total: usize = sim
        .up_ids()
        .map(|id| sim.node_by_id(id).p2().node().resident_table_bytes())
        .sum();
    total as f64 / sim.up_count().max(1) as f64
}

fn sim_tables_per_node<W: P2Wrap>(sim: &Simulator<W>) -> usize {
    sim.up_ids().next().map_or(0, |id| {
        sim.node_by_id(id).p2().node().catalog().names().len()
    })
}

fn sim_obs_report<W: P2Wrap>(sim: &Simulator<W>, meta: &ObsMeta) -> ProfileReport {
    let mut merged: Vec<ElemCounters> = Vec::new();
    for id in sim.up_ids() {
        if let Some(obs) = sim.node_by_id(id).p2().node().obs() {
            p2_obs::merge_counters(&mut merged, obs.counters());
        }
    }
    p2_obs::build_report(meta, &merged)
}

pub fn node_addr(i: usize) -> String {
    format!("node{i}:11111")
}

/// Initial mesh neighbours of node `i`: `i-1` and `i/2`.
pub fn mesh_neighbors(i: usize, addrs: &[String]) -> Vec<&str> {
    let mut neighbors = Vec::new();
    if i > 0 {
        neighbors.push(addrs[i - 1].as_str());
        if i / 2 != i - 1 {
            neighbors.push(addrs[i / 2].as_str());
        }
    }
    neighbors
}

/// A Chord ring on a bench-owned simulator of [`Timed`] hosts.
pub struct BenchRing {
    pub sim: Simulator<Timed<P2Host>>,
    rec: Arc<Recorder>,
    addrs: Vec<String>,
    seed: u64,
    next_event: i64,
    brought_up_at: SimTime,
    obs: Option<Arc<ObsMeta>>,
    /// Table and engine counters of crashed nodes, which would otherwise
    /// leave the cluster-wide sums with their node.
    retired_storage: TableStats,
    retired_engine: EngineOps,
}

impl BenchRing {
    /// Plans `n` nodes, starts them together and joins them in doubling
    /// waves, each wave landing on a ring the earlier ones have stabilized
    /// (the harness's fast bring-up, written against the public overlay
    /// API), then lets the ring settle for `warmup_secs`.
    pub fn boot(n: usize, warmup_secs: u64, seed: u64, rec: Arc<Recorder>) -> BenchRing {
        let mut sim = Simulator::new(NetworkConfig::emulab_default(seed));
        let addrs: Vec<String> = (0..n).map(node_addr).collect();
        for (i, addr) in addrs.iter().enumerate() {
            let landmark = (i > 0).then(|| addrs[0].as_str());
            let host = chord::build_node_for(
                addr,
                landmark,
                seed.wrapping_add(i as u64),
                ChordOpts::default(),
            )
            .expect("the shipped Chord program plans");
            sim.add_node(addr.clone(), Timed::new(host, rec.clone()));
        }
        let mut ring = BenchRing {
            sim,
            rec,
            addrs,
            seed,
            next_event: 1_000_000,
            brought_up_at: SimTime::ZERO,
            obs: None,
            retired_storage: TableStats::default(),
            retired_engine: EngineOps::default(),
        };
        ring.sim.start_all();
        let mut joined = 0usize;
        let max_waves = 4 * (usize::BITS - n.max(1).leading_zeros()) as usize + 16;
        for _ in 0..max_waves {
            let wave = joined.max(4).min(n);
            let pending: Vec<String> = ring
                .addrs
                .iter()
                .filter(|a| !ring.is_joined(a))
                .take(wave)
                .cloned()
                .collect();
            if pending.is_empty() {
                break;
            }
            let joins: Vec<(String, Tuple)> = pending
                .into_iter()
                .map(|addr| {
                    let tuple = chord::join_tuple(&addr, ring.fresh_event());
                    (addr, tuple)
                })
                .collect();
            ring.sim.inject_many(joins);
            // Stragglers whose join lookup was lost are re-issued next wave.
            for _ in 0..24 {
                ring.sim.run_for(SimTime::from_secs(5));
                if ring.joined_correctness() >= 0.97 {
                    break;
                }
            }
            joined = ring.addrs.iter().filter(|a| ring.is_joined(a)).count();
        }
        ring.brought_up_at = ring.sim.now();
        ring.sim.run_for(SimTime::from_secs(warmup_secs));
        ring.clear_observations();
        ring.sim.reset_stats();
        ring
    }

    fn fresh_event(&mut self) -> i64 {
        self.next_event += 1;
        self.next_event
    }

    fn best_successor(&self, addr: &str) -> Option<String> {
        let table = self.sim.node(addr)?.inner().node().table("bestSucc")?;
        let guard = table.lock();
        let out = guard
            .scan_iter()
            .next()
            .map(|t| t.field(2).to_display_string());
        out
    }

    /// Share of `members` whose best successor is the next of `members`
    /// clockwise.
    fn correctness_among<'a>(&self, members: impl Iterator<Item = &'a str>) -> f64 {
        let mut ids: Vec<(Uint160, &str)> = members.map(|a| (chord::node_id(a), a)).collect();
        if ids.len() < 2 {
            return 1.0;
        }
        ids.sort();
        let correct = (0..ids.len())
            .filter(|&pos| {
                let expect = ids[(pos + 1) % ids.len()].1;
                self.best_successor(ids[pos].1).as_deref() == Some(expect)
            })
            .count();
        correct as f64 / ids.len() as f64
    }

    fn joined_correctness(&self) -> f64 {
        self.correctness_among(
            self.addrs
                .iter()
                .map(String::as_str)
                .filter(|a| self.is_joined(a)),
        )
    }

    /// Switches the rule-level profiler on at every node, counters at zero.
    pub fn enable_obs(&mut self) {
        let meta = chord::shared_plan_for(ChordOpts::default()).obs_meta();
        for addr in &self.addrs {
            if let Some(host) = self.sim.node_mut(addr) {
                host.inner_mut().node_mut().enable_obs(meta.clone());
            }
        }
        self.obs = Some(meta);
    }

    fn collector_rows(
        &self,
        addr: &str,
        name: &str,
        event_field: usize,
        event: i64,
    ) -> Vec<(SimTime, Tuple)> {
        let Some(collector) = self
            .sim
            .node(addr)
            .and_then(|h| h.inner().node().collector(name))
        else {
            return Vec::new();
        };
        let guard = collector.lock();
        guard
            .iter()
            .filter(|(_, t)| t.field(event_field) == &Value::Int(event))
            .cloned()
            .collect()
    }
}

impl Rig for BenchRing {
    fn now_us(&self) -> u64 {
        self.sim.now().as_micros()
    }

    fn run_until_us(&mut self, us: u64) {
        self.sim.run_until(SimTime::from_micros(us));
    }

    fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    fn counters(&self) -> Counters {
        sim_counters(&self.sim, self.retired_storage, self.retired_engine)
    }

    fn population(&self) -> usize {
        self.addrs.len()
    }

    fn tables_per_node(&self) -> usize {
        sim_tables_per_node(&self.sim)
    }

    fn health(&self) -> Health {
        ring_health(
            self.sim.up_count(),
            self.correctness_among(self.sim.up_addresses_iter()),
        )
    }

    fn structure_ok(&self) -> bool {
        let up: Vec<&str> = self.sim.up_addresses_iter().collect();
        let Some(&start) = up.first() else {
            return true;
        };
        let mut seen = std::collections::HashSet::with_capacity(up.len());
        let mut cursor = start.to_string();
        for _ in 0..up.len() {
            if !seen.insert(cursor.clone()) {
                return false;
            }
            match self.best_successor(&cursor) {
                Some(next) => cursor = next,
                None => return false,
            }
        }
        cursor == start && seen.len() == up.len()
    }

    fn resident_bytes_per_node(&self) -> f64 {
        sim_resident_bytes(&self.sim)
    }

    fn obs_report(&self) -> Option<ProfileReport> {
        self.obs
            .as_ref()
            .map(|meta| sim_obs_report(&self.sim, meta))
    }

    fn clear_observations(&mut self) {
        for addr in &self.addrs {
            for name in ["lookup", "lookupResults"] {
                if let Some(c) = self
                    .sim
                    .node(addr)
                    .and_then(|h| h.inner().node().collector(name))
                {
                    c.lock().clear();
                }
            }
        }
    }

    fn bring_up_virtual_secs(&self) -> f64 {
        self.brought_up_at.as_secs_f64()
    }
}

impl ChordRig for BenchRing {
    fn addrs(&self) -> &[String] {
        &self.addrs
    }

    fn up_addrs(&self) -> Vec<String> {
        self.sim.up_addresses()
    }

    fn issue_lookup(&mut self, origin: &str, key: Uint160) -> LookupHandle {
        let event = self.fresh_event();
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

    fn outcome(&self, handle: &LookupHandle) -> Option<LookupOutcome> {
        let (arrived_at, tuple) = self
            .collector_rows(&handle.origin, "lookupResults", 4, handle.event)
            .into_iter()
            .next()?;
        // A hop is a node that saw the `lookup` tuple; the origin's own
        // injection does not count.
        let seen: usize = self
            .addrs
            .iter()
            .map(|a| self.collector_rows(a, "lookup", 3, handle.event).len())
            .sum();
        Some(LookupOutcome {
            owner: tuple.field(3).to_display_string(),
            latency: arrived_at.saturating_sub(handle.issued_at).as_secs_f64(),
            hops: seen.saturating_sub(1),
        })
    }

    fn crash_rejoin(&mut self, addr: &str) {
        if let Some(host) = self.sim.node(addr) {
            self.retired_storage += host.inner().node().catalog().stats_total();
            self.retired_engine.absorb(host.inner().node().stats());
        }
        self.sim.take_down(addr);
        self.seed = self.seed.wrapping_add(0x9E37_79B9);
        let landmark = (addr != self.addrs[0]).then(|| self.addrs[0].as_str());
        let mut host = chord::build_node_for(addr, landmark, self.seed, ChordOpts::default())
            .expect("the shipped Chord program plans");
        if let Some(meta) = &self.obs {
            host.node_mut().enable_obs(meta.clone());
        }
        self.sim
            .replace_node(addr, Timed::new(host, self.rec.clone()));
        let event = self.fresh_event();
        self.sim.inject(addr, chord::join_tuple(addr, event));
    }

    fn is_joined(&self, addr: &str) -> bool {
        self.sim
            .node(addr)
            .and_then(|h| h.inner().node().table("bestSucc"))
            .is_some_and(|t| !t.lock().is_empty())
    }

    fn reissue_join(&mut self, addr: &str) {
        let event = self.fresh_event();
        self.sim.inject(addr, chord::join_tuple(addr, event));
    }
}

/// The Narada membership mesh: node `i` starts with neighbours `i-1` and
/// `i/2`, so news crosses the mesh in O(log n) refresh rounds.
pub struct Mesh<W: P2Wrap> {
    pub sim: Simulator<W>,
    addrs: Vec<String>,
    obs: Option<Arc<ObsMeta>>,
}

impl<W: P2Wrap> Mesh<W> {
    pub fn boot(n: usize, warmup_secs: u64, seed: u64, rec: &Arc<Recorder>) -> Mesh<W> {
        let mut sim = Simulator::new(NetworkConfig::emulab_default(seed));
        let addrs: Vec<String> = (0..n).map(|i| format!("mesh{i}:9000")).collect();
        for i in 0..n {
            let neighbors = mesh_neighbors(i, &addrs);
            let host = narada::build_node(&addrs[i], &neighbors, seed.wrapping_add(i as u64), true)
                .expect("the shipped Narada program plans");
            sim.add_node(addrs[i].clone(), W::wrap(host, rec));
        }
        sim.start_all();
        sim.run_for(SimTime::from_secs(warmup_secs));
        sim.reset_stats();
        Mesh {
            sim,
            addrs,
            obs: None,
        }
    }

    /// Switches the rule-level profiler on at every node. The metadata
    /// comes from planning the program the way `narada::build_node` does.
    pub fn enable_obs(&mut self) {
        let config = p2_core::PlanConfig::new().watch("refresh");
        let meta = p2_core::PlannedProgram::compile(narada::program(), &config)
            .expect("the shipped Narada program plans")
            .obs_meta();
        for addr in &self.addrs {
            if let Some(host) = self.sim.node_mut(addr) {
                host.p2_mut().node_mut().enable_obs(meta.clone());
            }
        }
        self.obs = Some(meta);
    }
}

impl<W: P2Wrap> Rig for Mesh<W> {
    fn now_us(&self) -> u64 {
        self.sim.now().as_micros()
    }

    fn run_until_us(&mut self, us: u64) {
        self.sim.run_until(SimTime::from_micros(us));
    }

    fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    fn counters(&self) -> Counters {
        sim_counters(&self.sim, TableStats::default(), EngineOps::default())
    }

    fn population(&self) -> usize {
        self.addrs.len()
    }

    fn tables_per_node(&self) -> usize {
        sim_tables_per_node(&self.sim)
    }

    /// One operation per (node, member) pair: the node must hold a live
    /// `member` row for that member.
    fn health(&self) -> Health {
        let n = self.addrs.len() as u64;
        let mut live = 0u64;
        for addr in &self.addrs {
            if let Some(table) = self
                .sim
                .node(addr)
                .and_then(|h| h.p2().node().table("member"))
            {
                live += table
                    .lock()
                    .scan_iter()
                    .filter(|t| t.field(4) == &Value::Int(1))
                    .count() as u64;
            }
        }
        Health {
            attempted: n * n,
            failed: (n * n).saturating_sub(live),
        }
    }

    fn structure_ok(&self) -> bool {
        self.health().failed == 0
    }

    fn resident_bytes_per_node(&self) -> f64 {
        sim_resident_bytes(&self.sim)
    }

    fn obs_report(&self) -> Option<ProfileReport> {
        self.obs
            .as_ref()
            .map(|meta| sim_obs_report(&self.sim, meta))
    }

    /// The mesh's one watch (`refresh`) matches no tuple of the program.
    fn clear_observations(&mut self) {}

    fn bring_up_virtual_secs(&self) -> f64 {
        0.0
    }
}
