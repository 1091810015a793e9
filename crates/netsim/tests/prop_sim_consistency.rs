//! Property tests for the simulator's interned-id core: arbitrary
//! interleavings of traffic, crashes, and crash-rejoin churn, on random
//! topologies and loss rates, must never leave dangling `NodeId`s, orphaned
//! timer entries, or spurious wakeups, and must replay identically.

use p2_netsim::{Envelope, Host, NetworkConfig, Simulator, Topology};
use p2_value::{SimTime, Tuple, TupleBuilder};
use proptest::prelude::*;

/// A minimal periodic host: sends one `ping` to its peer every `period`
/// seconds and counts wakeups that arrive with nothing due (there must be
/// none — the timer index never fires stale entries).
struct Periodic {
    addr: String,
    peer: String,
    period: SimTime,
    next: Option<SimTime>,
    spurious_wakeups: usize,
    delivered: usize,
}

impl Periodic {
    fn new(addr: String, peer: String, period_secs: u64) -> Periodic {
        Periodic {
            addr,
            peer,
            period: SimTime::from_secs(period_secs),
            next: None,
            spurious_wakeups: 0,
            delivered: 0,
        }
    }
}

impl Host for Periodic {
    fn start(&mut self, now: SimTime) -> Vec<Envelope> {
        self.next = Some(now + self.period);
        Vec::new()
    }

    fn deliver(&mut self, _tuple: Tuple, _now: SimTime) -> Vec<Envelope> {
        self.delivered += 1;
        Vec::new()
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
        match self.next {
            Some(t) if t <= now => {
                self.next = Some(t + self.period);
                vec![Envelope::new(
                    self.peer.clone(),
                    TupleBuilder::new("ping").push(self.addr.as_str()).build(),
                )]
            }
            _ => {
                self.spurious_wakeups += 1;
                Vec::new()
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.next
    }
}

#[derive(Debug, Clone)]
enum Action {
    /// Advance virtual time by this many milliseconds.
    Run(u64),
    /// Inject a ping into node `i` (mod population).
    Inject(usize),
    /// Crash node `i`.
    TakeDown(usize),
    /// Crash-rejoin node `i` with a fresh host.
    Replace(usize),
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..30_000).prop_map(Action::Run),
        (0usize..16).prop_map(Action::Inject),
        (0usize..16).prop_map(Action::TakeDown),
        (0usize..16).prop_map(Action::Replace),
    ]
}

/// A random transit-stub layout and loss rate.
#[derive(Debug, Clone)]
struct TopoSpec {
    domains: usize,
    intra_ms: u64,
    inter_ms: u64,
    loss: f64,
    seed: u64,
}

fn arb_topo() -> impl Strategy<Value = TopoSpec> {
    ((1usize..6, 1u64..40, 1u64..200), (0usize..3, 1u64..1000)).prop_map(
        |((domains, intra_ms, inter_ms), (loss_idx, seed))| TopoSpec {
            domains,
            intra_ms,
            inter_ms,
            loss: [0.0, 0.2, 0.6][loss_idx],
            seed,
        },
    )
}

fn config(spec: &TopoSpec) -> NetworkConfig {
    NetworkConfig {
        topology: Topology::new(
            spec.domains,
            SimTime::from_millis(spec.intra_ms),
            SimTime::from_millis(spec.inter_ms),
            10e6,
            100e6,
        ),
        loss_rate: spec.loss,
        seed: spec.seed,
    }
}

/// Everything observable about a finished run: traffic counters, event
/// counters, and per-node final state.
#[derive(Debug, PartialEq)]
struct Snapshot {
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    bytes_sent: u64,
    events_processed: u64,
    wakeups_processed: u64,
    now_micros: u64,
    per_node: Vec<(usize, usize, Option<SimTime>, bool)>,
}

fn snapshot(sim: &Simulator<Periodic>, n: usize) -> Snapshot {
    let s = sim.stats();
    Snapshot {
        messages_sent: s.messages_sent,
        messages_delivered: s.messages_delivered,
        messages_dropped: s.messages_dropped,
        bytes_sent: s.bytes_sent,
        events_processed: sim.events_processed(),
        wakeups_processed: sim.wakeups_processed(),
        now_micros: sim.now().as_micros(),
        per_node: (0..n)
            .map(|i| {
                let h = sim.node(&addr(i)).expect("node exists");
                (
                    h.delivered,
                    h.spurious_wakeups,
                    h.next_deadline(),
                    sim.is_up(&addr(i)),
                )
            })
            .collect(),
    }
}

fn addr(i: usize) -> String {
    format!("n{i}")
}

fn host(i: usize, n: usize) -> Periodic {
    Periodic::new(addr(i), addr((i + 1) % n), 2 + (i as u64 % 5))
}

/// Runs one case: builds the ring, applies `actions`, checks the id and
/// timer invariants after every step, drains, and returns the snapshot.
fn run_case(spec: &TopoSpec, n: usize, actions: &[Action]) -> Snapshot {
    let mut sim: Simulator<Periodic> = Simulator::new(config(spec));
    for i in 0..n {
        sim.add_node(addr(i), host(i, n));
    }
    sim.start_all();
    sim.check_consistency();

    for action in actions {
        let desc = format!("{action:?}");
        match *action {
            Action::Run(ms) => sim.run_for(SimTime::from_millis(ms)),
            Action::Inject(i) => {
                let a = addr(i % n);
                sim.inject(&a, TupleBuilder::new("ping").push(a.as_str()).build());
            }
            Action::TakeDown(i) => sim.take_down(&addr(i % n)),
            Action::Replace(i) => sim.replace_node(&addr(i % n), host(i % n, n)),
        }

        sim.check_consistency();
        // Ids are dense and stable: every address resolves, round-trips,
        // and stays within the slot table.
        for i in 0..n {
            let a = addr(i);
            let id = sim.node_id(&a);
            prop_assert!(id.is_some(), "{a} lost its id after {desc}");
            let id = id.unwrap();
            prop_assert!(id.index() < sim.node_count());
            prop_assert_eq!(sim.addr_of(id), a.as_str());
        }
        // At most one timer entry per node, none for down nodes.
        prop_assert!(
            sim.scheduled_wakeups() <= sim.up_count(),
            "timer entries leaked after {}",
            desc
        );
    }

    // Drain remaining traffic; no host may ever have seen a stale wakeup.
    sim.run_for(SimTime::from_secs(60));
    sim.check_consistency();
    for i in 0..n {
        let a = addr(i);
        prop_assert_eq!(
            sim.node(&a).unwrap().spurious_wakeups,
            0,
            "{} saw spurious wakeups",
            a
        );
    }
    snapshot(&sim, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn churn_never_leaves_dangling_ids_or_timers(
        spec in arb_topo(),
        n in 2usize..10,
        actions in proptest::collection::vec(arb_action(), 1..60),
    ) {
        run_case(&spec, n, &actions);
    }

    // A fixed seed and schedule must replay to the same traffic, event
    // counters and per-node state, lossy links included. A fresh run
    // builds fresh hash states, so a second run in the same process
    // catches hash-order nondeterminism.
    #[test]
    fn lossy_random_runs_replay_to_the_same_snapshot(
        spec in arb_topo(),
        n in 2usize..10,
        actions in proptest::collection::vec(arb_action(), 1..60),
    ) {
        let first = run_case(&spec, n, &actions);
        let second = run_case(&spec, n, &actions);
        prop_assert_eq!(
            first, second,
            "rerun diverged (loss {}, domains {})",
            spec.loss, spec.domains
        );
    }
}
