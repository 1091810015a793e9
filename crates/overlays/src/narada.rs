//! Narada-style mesh membership maintenance (Appendix A of the paper).

use std::sync::OnceLock;

use p2_core::{P2Node, PlanConfig, PlanError, PlannedProgram};
use p2_overlog::{compile_checked, Program};
use p2_value::{Tuple, TupleBuilder};

use crate::host::P2Host;

/// The OverLog source text of the Narada mesh specification.
pub const NARADA_OLG: &str = include_str!("../programs/narada_mesh.olg");

/// Parses and validates the Narada program (cached after the first call).
pub fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        compile_checked(NARADA_OLG).expect("the shipped Narada program must parse and validate")
    })
}

/// Number of rules in the mesh-maintenance specification.
///
/// The paper quotes "a Narada-style mesh network in 16 rules"; the
/// executable form reproduced here carries 16 rules: the 15 of Appendix A
/// plus one bootstrap rule (M0) installing the node's own member entry,
/// without which an Appendix-A mesh whose member tables start empty never
/// begins propagating membership.
pub fn rule_count() -> usize {
    program().rule_count()
}

/// Environment facts declaring a node's initial mesh neighbours.
pub fn env_facts(addr: &str, neighbors: &[&str]) -> Vec<Tuple> {
    neighbors
        .iter()
        .map(|n| {
            TupleBuilder::new("env")
                .push(addr)
                .push("neighbor")
                .push(*n)
                .build()
        })
        .collect()
}

/// The shared, node-independent plan of the Narada program with the `refresh` watch,
/// compiled once per process and per jitter mode; every node instantiates
/// from it.
fn shared_plan(jitter: bool) -> &'static PlannedProgram {
    static PLANS: [OnceLock<PlannedProgram>; 2] = [OnceLock::new(), OnceLock::new()];
    PLANS[usize::from(jitter)].get_or_init(|| {
        let mut config = PlanConfig::new().watch("refresh");
        if !jitter {
            config = config.without_jitter();
        }
        PlannedProgram::compile(program(), &config).expect("the shipped Narada program must plan")
    })
}

/// Builds a ready-to-run Narada mesh node wrapped for the simulator.
pub fn build_node(
    addr: &str,
    neighbors: &[&str],
    seed: u64,
    jitter: bool,
) -> Result<P2Host, PlanError> {
    let node = P2Node::from_plan(shared_plan(jitter), addr, seed, env_facts(addr, neighbors));
    Ok(P2Host::new(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_parses_and_matches_the_papers_compactness_claim() {
        // 16 rules, matching the paper's "Narada-style mesh in 16 rules"
        // claim (see EXPERIMENTS.md, E7).
        assert_eq!(rule_count(), 16);
        assert!(program().is_materialized("member"));
        assert!(program().is_materialized("env"));
    }

    #[test]
    fn node_plans_with_neighbors() {
        let host = build_node("n1", &["n2", "n3"], 7, false).unwrap();
        assert_eq!(host.node().table("env").unwrap().len(), 2);
        let desc = host.node().graph_description();
        assert!(desc.contains("R5:strand"));
        assert!(desc.contains("L3:delete:neighbor"));
    }

    #[test]
    fn env_facts_shape() {
        let facts = env_facts("n1", &["n9"]);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].name(), "env");
        assert_eq!(facts[0].arity(), 3);
    }
}
