//! Epidemic push-gossip overlay.

use std::sync::OnceLock;

use p2_core::{P2Node, PlanConfig, PlanError, PlannedProgram};
use p2_overlog::{compile_checked, Program};
use p2_value::{Tuple, TupleBuilder};

use crate::host::P2Host;

/// The OverLog source text of the gossip overlay.
pub const GOSSIP_OLG: &str = include_str!("../programs/gossip.olg");

/// Parses and validates the gossip program (cached after the first call).
pub fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        compile_checked(GOSSIP_OLG).expect("the shipped gossip program must parse and validate")
    })
}

/// Number of rules in the gossip specification.
pub fn rule_count() -> usize {
    program().rule_count()
}

/// Link facts declaring a node's gossip peers.
pub fn link_facts(addr: &str, peers: &[&str]) -> Vec<Tuple> {
    peers
        .iter()
        .map(|p| TupleBuilder::new("link").push(addr).push(*p).build())
        .collect()
}

/// A rumor tuple to inject at a node.
pub fn rumor_tuple(addr: &str, id: i64, payload: &str) -> Tuple {
    TupleBuilder::new("rumor")
        .push(addr)
        .push(id)
        .push(payload)
        .build()
}

/// The shared, node-independent plan of the gossip program,
/// compiled once per process and per jitter mode; every node instantiates
/// from it.
fn shared_plan(jitter: bool) -> &'static PlannedProgram {
    static PLANS: [OnceLock<PlannedProgram>; 2] = [OnceLock::new(), OnceLock::new()];
    PLANS[usize::from(jitter)].get_or_init(|| {
        let mut config = PlanConfig::new();
        if !jitter {
            config = config.without_jitter();
        }
        PlannedProgram::compile(program(), &config).expect("the shipped gossip program must plan")
    })
}

/// Builds a ready-to-run gossip node wrapped for the simulator.
pub fn build_node(
    addr: &str,
    peers: &[&str],
    seed: u64,
    jitter: bool,
) -> Result<P2Host, PlanError> {
    let node = P2Node::from_plan(shared_plan(jitter), addr, seed, link_facts(addr, peers));
    Ok(P2Host::new(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_parses_and_plans() {
        assert_eq!(rule_count(), 3);
        let host = build_node("n1", &["n2", "n3"], 1, false).unwrap();
        assert_eq!(host.node().table("link").unwrap().lock().len(), 2);
        assert!(host.node().graph_description().contains("G2:strand"));
    }

    #[test]
    fn rumor_shape() {
        let r = rumor_tuple("n1", 7, "hello");
        assert_eq!(r.name(), "rumor");
        assert_eq!(r.arity(), 3);
    }
}
