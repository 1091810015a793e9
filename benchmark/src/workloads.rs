//! What happens inside a measurement window, per workload, and the loop
//! that runs windows until the budget is spent.
//!
//! A window's timed region covers only calls into the system under test;
//! harvesting lookup outcomes and sampling ring health happen between
//! windows. Virtual time advances in whole microseconds throughout.

use std::time::Instant;

use p2_harness::churn::ChurnSchedule;
use p2_harness::cluster::expected_owner;
use p2_harness::LookupHandle;
use p2_value::Uint160;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rig::{ChordRig, Counters, Rig};
use crate::timed::{Recorded, Recorder};

/// One timed window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_s: f64,
    pub events: u64,
    pub virtual_us: u64,
}

/// How long a phase measures: at least `min_windows`, and then until
/// `seconds` of wall time have passed since the phase began.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub min_windows: usize,
    pub seconds: Option<f64>,
}

/// What the driver observed between windows.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations that must succeed on a healthy overlay, and how many did
    /// not.
    pub attempted: u64,
    pub failed: u64,
    pub lookups_issued: u64,
    pub lookups_completed: u64,
    pub lookups_correct: u64,
    pub latencies_vs: Vec<f64>,
    pub hops: Vec<f64>,
    /// Share of up nodes with the right successor, one sample per window.
    pub ring_samples: Vec<f64>,
    /// Share of a probe group that agreed on the majority answer (churn).
    pub consistency: Vec<f64>,
    pub churn_events: u64,
    pub harvest_ns: u64,
    pub rejoin_ns: u64,
}

impl Tally {
    /// Samples the overlay's health at a window's end. On a static overlay
    /// every checked node is an operation that must succeed; under churn
    /// (`soft`) the share is the measurement.
    fn sample_health<R: Rig + ?Sized>(&mut self, rig: &R, soft: bool) {
        let health = rig.health();
        if !soft {
            self.attempted += health.attempted;
            self.failed += health.failed;
        }
        self.ring_samples
            .push(1.0 - health.failed as f64 / health.attempted.max(1) as f64);
    }
}

/// Runs `body` as the window's timed region.
fn timed<R: Rig + ?Sized>(rig: &mut R, rec: &Recorder, body: impl FnOnce(&mut R)) -> Window {
    let events = rig.events();
    let started_us = rig.now_us();
    rec.begin_window();
    let t = Instant::now();
    body(rig);
    let wall_s = t.elapsed().as_secs_f64();
    rec.end_window();
    Window {
        wall_s,
        events: rig.events() - events,
        virtual_us: rig.now_us() - started_us,
    }
}

pub trait Scenario<R: Rig + ?Sized> {
    fn window(&mut self, rig: &mut R, rec: &Recorder, tally: &mut Tally) -> Window;
}

/// Maintenance only: advance virtual time, then check every node.
pub struct Steady {
    pub window_us: u64,
}

impl<R: Rig + ?Sized> Scenario<R> for Steady {
    fn window(&mut self, rig: &mut R, rec: &Recorder, tally: &mut Tally) -> Window {
        let window = timed(rig, rec, |r| r.run_until_us(r.now_us() + self.window_us));
        tally.sample_health(rig, false);
        rig.clear_observations();
        window
    }
}

/// Scores finished lookups against the ring's true owners; returns the
/// owners the answered ones named.
fn harvest<R: ChordRig + ?Sized>(
    rig: &mut R,
    handles: &[LookupHandle],
    tally: &mut Tally,
) -> Vec<String> {
    let t = Instant::now();
    let up = rig.up_addrs();
    let mut answers = Vec::with_capacity(handles.len());
    for handle in handles {
        tally.lookups_issued += 1;
        if let Some(outcome) = rig.outcome(handle) {
            tally.lookups_completed += 1;
            tally.latencies_vs.push(outcome.latency);
            tally.hops.push(outcome.hops as f64);
            if Some(&outcome.owner) == expected_owner(handle.key, &up).as_ref() {
                tally.lookups_correct += 1;
            }
            answers.push(outcome.owner);
        }
    }
    rig.clear_observations();
    tally.harvest_ns += t.elapsed().as_nanos() as u64;
    answers
}

/// Open loop in virtual time: `per_step` lookups every `step_us`, keys and
/// origins drawn from the seed, for the first half of the window; the
/// second half drains. A lookup that has not answered by the window's end,
/// or names the wrong owner, is a failed operation.
pub struct Lookups {
    rng: SmallRng,
    addrs: Vec<String>,
    steps: u64,
    step_us: u64,
    per_step: usize,
}

pub const LOOKUP_STEP_US: u64 = 100_000;
pub const LOOKUPS_PER_STEP: usize = 20;

impl Lookups {
    pub fn new(addrs: &[String], window_us: u64, seed: u64) -> Lookups {
        Lookups {
            rng: SmallRng::seed_from_u64(seed ^ 0x0100_C0B5),
            addrs: addrs.to_vec(),
            steps: window_us / 2 / LOOKUP_STEP_US,
            step_us: LOOKUP_STEP_US,
            per_step: LOOKUPS_PER_STEP,
        }
    }
}

impl<R: ChordRig + ?Sized> Scenario<R> for Lookups {
    fn window(&mut self, rig: &mut R, rec: &Recorder, tally: &mut Tally) -> Window {
        let mut handles = Vec::with_capacity(self.steps as usize * self.per_step);
        let window = timed(rig, rec, |r| {
            for _ in 0..self.steps {
                for _ in 0..self.per_step {
                    let origin = &self.addrs[self.rng.gen_range(0..self.addrs.len())];
                    let key = Uint160::hash_of(&self.rng.gen::<[u8; 16]>());
                    handles.push(r.issue_lookup(origin, key));
                }
                r.run_until_us(r.now_us() + self.step_us);
            }
            r.run_until_us(r.now_us() + self.steps * self.step_us);
        });
        let (completed, correct) = (tally.lookups_completed, tally.lookups_correct);
        harvest(rig, &handles, tally);
        let good = (tally.lookups_correct - correct).min(tally.lookups_completed - completed);
        tally.attempted += handles.len() as u64;
        tally.failed += handles.len() as u64 - good;
        tally.sample_health(rig, false);
        window
    }
}

/// Crash-and-rejoin churn with exponential sessions, plus one group of
/// same-key probe lookups per window. Lost and misdirected lookups are what
/// this workload measures (the paper's Fig. 4), so they are reported as
/// shares, not as failed operations.
pub struct Churn {
    schedule: ChurnSchedule,
    rng: SmallRng,
    addrs: Vec<String>,
    window_us: u64,
    probes: usize,
}

pub const CHURN_MEAN_SESSION_S: f64 = 8.0 * 60.0;
pub const CHURN_PROBES: usize = 5;

impl Churn {
    pub fn new(addrs: &[String], window_us: u64, now_us: u64, seed: u64) -> Churn {
        Churn {
            schedule: ChurnSchedule::new(
                addrs.len(),
                CHURN_MEAN_SESSION_S,
                now_us as f64 / 1e6,
                seed ^ 0xC0FFEE,
            ),
            rng: SmallRng::seed_from_u64(seed ^ 0xC4_0521),
            addrs: addrs.to_vec(),
            window_us,
            probes: CHURN_PROBES,
        }
    }
}

impl<R: ChordRig + ?Sized> Scenario<R> for Churn {
    fn window(&mut self, rig: &mut R, rec: &Recorder, tally: &mut Tally) -> Window {
        let key = Uint160::hash_of(&self.rng.gen::<[u8; 16]>());
        let mut origins = rig.up_addrs();
        for i in 0..self.probes.min(origins.len()) {
            let pick = self.rng.gen_range(i..origins.len());
            origins.swap(i, pick);
        }
        origins.truncate(self.probes);

        let mut handles = Vec::with_capacity(origins.len());
        let mut rejoin_ns = 0u64;
        let mut churn_events = 0u64;
        let window = timed(rig, rec, |r| {
            // A join event lives ten seconds; a node whose join lookup was
            // lost under churn gets a fresh one, as a real node would retry.
            for addr in &self.addrs {
                if !r.is_joined(addr) {
                    r.reissue_join(addr);
                }
            }
            for origin in &origins {
                handles.push(r.issue_lookup(origin, key));
            }
            let end_us = r.now_us() + self.window_us;
            while let Some(at) = self.schedule.next_event_at() {
                // Whole microseconds, rounded up: stepping by the float gap
                // `at - now` can round to 0 µs and never reach the event.
                let at_us = (at * 1e6).ceil() as u64;
                if at_us >= end_us {
                    break;
                }
                if at_us > r.now_us() {
                    r.run_until_us(at_us);
                }
                let Some((_, index)) = self.schedule.pop() else {
                    break;
                };
                let t = Instant::now();
                r.crash_rejoin(&self.addrs[index]);
                rejoin_ns += t.elapsed().as_nanos() as u64;
                churn_events += 1;
            }
            r.run_until_us(end_us);
        });
        tally.rejoin_ns += rejoin_ns;
        tally.churn_events += churn_events;
        tally.attempted += handles.len() as u64 + churn_events;

        let answers = harvest(rig, &handles, tally);
        let majority = answers
            .iter()
            .map(|a| answers.iter().filter(|b| *b == a).count())
            .max()
            .unwrap_or(0);
        tally
            .consistency
            .push(majority as f64 / handles.len().max(1) as f64);
        tally.sample_health(rig, true);
        window
    }
}

/// A measured phase: its windows, what the driver saw, the counters'
/// growth, the virtual time covered and the spans recorded.
pub struct Phase {
    pub windows: Vec<Window>,
    pub tally: Tally,
    pub counters: Counters,
    pub virtual_us: u64,
    pub recorded: Recorded,
}

/// Runs one discarded warm-up window, then windows until `budget` is spent,
/// calling `between` after each (outside the timed region).
pub fn run_phase<R: Rig + ?Sized>(
    rig: &mut R,
    scenario: &mut dyn Scenario<R>,
    budget: Budget,
    rec: &Recorder,
    between: &mut dyn FnMut(),
) -> Phase {
    scenario.window(rig, rec, &mut Tally::default());
    rec.take();
    let before = rig.counters();
    let started_us = rig.now_us();
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut windows = Vec::new();
    while windows.len() < budget.min_windows
        || budget
            .seconds
            .is_some_and(|s| started.elapsed().as_secs_f64() < s)
    {
        windows.push(scenario.window(rig, rec, &mut tally));
        between();
    }
    let counters = rig.counters().since(&before);
    tally.attempted += counters.engine.dropped_no_entry;
    tally.failed += counters.engine.dropped_no_entry;
    Phase {
        windows,
        tally,
        counters,
        virtual_us: rig.now_us() - started_us,
        recorded: rec.take(),
    }
}
