//! The front end, timed call by call: OverLog text → validated program →
//! analysis → shared plan → per-node engine → started host.

use std::hint::black_box;
use std::time::Instant;

use p2_core::{P2Node, PlanConfig, PlannedProgram};
use p2_netsim::Host;
use p2_overlays::{chord, narada, P2Host};
use p2_overlog::{analyze, compile_checked};
use p2_value::{SimTime, Tuple};

use crate::rig::{mesh_neighbors, node_addr};
use crate::stats::quantile;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall milliseconds of one pass over a program text.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTimes {
    /// `compile_checked`: lex, parse, validate.
    pub parse_ms: f64,
    /// `analyze`: stratification, schemas, lifetimes, rule classes.
    pub analyze_ms: f64,
    /// `PlannedProgram::compile` with the default configuration.
    pub plan_ms: f64,
}

impl PlanTimes {
    pub fn total_ms(&self) -> f64 {
        self.parse_ms + self.analyze_ms + self.plan_ms
    }
}

/// Parses, analyzes and plans `source` once. `Err` carries the stage that
/// refused the program; the shipped programs never take it.
pub fn plan_once(source: &str) -> Result<(PlannedProgram, PlanTimes), String> {
    let t = Instant::now();
    let program = compile_checked(source).map_err(|e| format!("parse: {e}"))?;
    let parse_ms = ms_since(t);
    let t = Instant::now();
    let analysis = analyze(&program);
    let analyze_ms = ms_since(t);
    if analysis.has_errors() {
        return Err("analyze: the program has errors".to_string());
    }
    black_box(&analysis);
    let t = Instant::now();
    let plan =
        PlannedProgram::compile(&program, &PlanConfig::new()).map_err(|e| format!("plan: {e}"))?;
    let plan_ms = ms_since(t);
    Ok((
        plan,
        PlanTimes {
            parse_ms,
            analyze_ms,
            plan_ms,
        },
    ))
}

/// Which overlay's per-node base facts to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlay {
    Chord,
    Narada,
}

impl Overlay {
    pub fn source(self) -> &'static str {
        match self {
            Overlay::Chord => chord::CHORD_OLG,
            Overlay::Narada => narada::NARADA_OLG,
        }
    }

    fn facts(self, i: usize, addrs: &[String]) -> Vec<Tuple> {
        match self {
            Overlay::Chord => chord::base_facts(&addrs[i], (i > 0).then(|| addrs[0].as_str())),
            Overlay::Narada => narada::env_facts(&addrs[i], &mesh_neighbors(i, addrs)),
        }
    }
}

/// Mean wall microseconds per node of instantiating and of starting `n`
/// nodes from `plan`.
pub fn boot_nodes(plan: &PlannedProgram, overlay: Overlay, n: usize, seed: u64) -> (f64, f64) {
    let addrs: Vec<String> = (0..n).map(node_addr).collect();
    let t = Instant::now();
    let mut hosts: Vec<P2Host> = (0..n)
        .map(|i| {
            let facts = overlay.facts(i, &addrs);
            P2Host::new(P2Node::from_plan(
                plan,
                &addrs[i],
                seed.wrapping_add(i as u64),
                facts,
            ))
        })
        .collect();
    let instantiate_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let t = Instant::now();
    for host in &mut hosts {
        black_box(host.start(SimTime::ZERO));
    }
    let start_us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    (instantiate_us, start_us)
}

/// Lower quartiles over the samples of a [`Probe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Frontend {
    pub times: PlanTimes,
    /// Parse through plan, end to end.
    pub plan_ms: f64,
    pub instantiate_us: f64,
    pub start_us: f64,
    /// Plan or boot calls made, and how many of them were refused.
    pub attempted: u64,
    pub failed: u64,
}

impl Frontend {
    pub fn node_boot_us(&self) -> f64 {
        self.instantiate_us + self.start_us
    }
}

/// Nodes booted per sample: enough to average out, few enough to run
/// between every two windows.
const BOOT_NODES: usize = 100;

/// Plans one overlay's program and boots its nodes, one sample per call.
/// A simulated workload takes one sample between every two windows, so the
/// samples spread over the whole run instead of sharing one noisy instant.
pub struct Probe {
    overlay: Overlay,
    nodes: usize,
    seed: u64,
    samples: Vec<(PlanTimes, f64, f64)>,
    failed: u64,
}

impl Probe {
    pub fn new(overlay: Overlay, nodes: usize, seed: u64) -> Probe {
        Probe {
            overlay,
            nodes: nodes.min(BOOT_NODES),
            seed,
            samples: Vec::new(),
            failed: 0,
        }
    }

    pub fn sample(&mut self) {
        match plan_once(self.overlay.source()) {
            Ok((plan, times)) => {
                let (instantiate, start) = boot_nodes(&plan, self.overlay, self.nodes, self.seed);
                self.samples.push((times, instantiate, start));
            }
            Err(_) => self.failed += 1,
        }
    }

    pub fn finish(&self) -> Frontend {
        let column = |f: fn(&(PlanTimes, f64, f64)) -> f64| -> f64 {
            quantile(&self.samples.iter().map(f).collect::<Vec<f64>>(), 0.25)
        };
        Frontend {
            times: PlanTimes {
                parse_ms: column(|(t, _, _)| t.parse_ms),
                analyze_ms: column(|(t, _, _)| t.analyze_ms),
                plan_ms: column(|(t, _, _)| t.plan_ms),
            },
            plan_ms: column(|(t, _, _)| t.total_ms()),
            instantiate_us: column(|(_, i, _)| *i),
            start_us: column(|(_, _, s)| *s),
            attempted: (self.samples.len() * (1 + self.nodes)) as u64 + self.failed,
            failed: self.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_programs_plan_and_boot() {
        for overlay in [Overlay::Chord, Overlay::Narada] {
            let mut probe = Probe::new(overlay, 4, 7);
            probe.sample();
            probe.sample();
            let f = probe.finish();
            assert_eq!(f.failed, 0);
            assert_eq!(f.attempted, 2 + 2 * 4);
            assert!(f.plan_ms > 0.0 && f.node_boot_us() > 0.0);
        }
        assert!(plan_once("this is not overlog").is_err());
    }
}
