//! Round-trip latency monitoring overlay (rules P0–P3 of §2.3).

use std::sync::OnceLock;

use p2_core::{NodeConfig, P2Node, PlanError};
use p2_overlog::{compile_checked, Program};
use p2_value::{Tuple, TupleBuilder};

use crate::host::P2Host;

/// The OverLog source text of the latency monitor.
pub const MONITOR_OLG: &str = include_str!("../programs/latency_monitor.olg");

/// Parses and validates the monitor program (cached after the first call).
pub fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        compile_checked(MONITOR_OLG).expect("the shipped monitor program must parse and validate")
    })
}

/// Number of rules in the monitor specification.
pub fn rule_count() -> usize {
    program().rule_count()
}

/// Member facts declaring which peers a node measures.
pub fn member_facts(addr: &str, peers: &[&str]) -> Vec<Tuple> {
    peers
        .iter()
        .map(|p| TupleBuilder::new("member").push(addr).push(*p).build())
        .collect()
}

/// Builds a ready-to-run latency-monitor node wrapped for the simulator.
pub fn build_node(
    addr: &str,
    peers: &[&str],
    seed: u64,
    jitter: bool,
) -> Result<P2Host, PlanError> {
    let mut config = NodeConfig::new(addr, seed);
    if !jitter {
        config = config.without_jitter();
    }
    let node = P2Node::with_facts(program(), config, member_facts(addr, peers))?;
    Ok(P2Host::new(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_parses_and_plans() {
        assert_eq!(rule_count(), 4);
        let host = build_node("n1", &["n2"], 1, false).unwrap();
        assert_eq!(host.node().table("member").unwrap().len(), 1);
        assert!(host.node().table("latency").unwrap().is_empty());
    }
}
